//! Online conformance guard: per-session trace validation.
//!
//! A [`GuardProgram`] compiles the loaded system — the fixed components
//! plus the derived converter, each reduced to its strong-bisimulation
//! minimum ([`protoquot_spec::minimize()`]) — into the one
//! [`CompiledSystem`] the static verifier runs on (composite CSR, τ*
//! rows and ψ step table over the shared
//! [`protoquot_spec::EventTable`]), keeps it for admission's
//! re-verification, and then **determinizes** the whole per-frame check
//! into a DFA at build time: states are the reachable
//! `(τ-closed composite subset, ψ-hub)` pairs, and the τ-closure, the
//! external step and the ψ-hub step are fused into one dense
//! `|states| × |Σ|` transition table whose entries carry the verdict:
//!
//! * **trace membership** — an event under which the subset goes empty
//!   is a dead edge ([`Conviction::NotATrace`]): no execution of
//!   `B ‖ C` produces the frame.
//! * **safety** — an event the subset survives but ψ cannot take is a
//!   [`Conviction::ServiceViolation`] edge (trace inclusion fails).
//! * **progress** — each DFA state precomputes the paper's
//!   sink-acceptance containment (`∃` acceptance set `A` of the hub
//!   with `A ⊆ τ*(s)`) over its subset. An edge into a state where
//!   *every* subset member fails is a [`Conviction::Stalled`] edge
//!   (the true system state must fail too); a state where *some*
//!   member fails confirms a client-attested stall
//!   ([`SessionGuard::attest_stall`]).
//!
//! The steady-state [`SessionGuard`] is therefore a single `u32` DFA
//! state and one table row load per frame — O(1), no allocation — where
//! the retained [`SessionGuardReference`] re-plays subset tracking
//! (τ-closure + ext step + containment scan) on every frame. The
//! reference is the differential oracle: `tests/runtime_agreement.rs`
//! asserts bit-identical convictions (kind, event index, frame
//! position) between the two on every system it sweeps.
//!
//! Both progress rules are sound with respect to the static check: for
//! a converter that passes [`protoquot_spec::verify_system`], every
//! reachable `(state, hub)` pair satisfies containment, so no genuine
//! trace can ever convict.
//!
//! The parts are minimized by [`CompiledSystem::minimal`], which says
//! why that changes sizes, not verdicts. A DFA state's subset is the
//! image of the literal subset: empty, all-failing or some-failing
//! exactly when that one is. Composite state ids, `possible_states` and
//! subset sizes count states of the minimized composite.

use crate::codec::RejectReason;
use protoquot_spec::{CompiledSystem, EventId, EventTable, Spec, SpecError, SubsetKernel};
use std::sync::Arc;
use std::time::Instant;

/// Why a session was convicted by the online guard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Conviction {
    /// The frame is not an event any execution of `B ‖ C` can produce
    /// after the accepted prefix.
    NotATrace {
        /// Event-table index of the offending frame.
        event: u16,
    },
    /// `B ‖ C` can produce the event, but the service specification
    /// cannot — trace inclusion (the paper's safety half) fails.
    ServiceViolation {
        /// Event-table index of the offending frame.
        event: u16,
    },
    /// Sink-acceptance containment fails for the reachable states —
    /// the progress half of satisfaction is violated.
    Stalled,
}

impl Conviction {
    /// The wire reject code reported for this conviction.
    pub fn reject_reason(&self) -> RejectReason {
        match self {
            Conviction::NotATrace { .. } => RejectReason::NotATrace,
            Conviction::ServiceViolation { .. } => RejectReason::ServiceViolation,
            Conviction::Stalled => RejectReason::Stalled,
        }
    }
}

impl std::fmt::Display for Conviction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Conviction::NotATrace { event } => write!(f, "not a trace (event #{event})"),
            Conviction::ServiceViolation { event } => {
                write!(f, "service violation (event #{event})")
            }
            Conviction::Stalled => write!(f, "progress stall"),
        }
    }
}

/// Build-time cost and size of the compiled guard DFA, surfaced through
/// `RuntimeStats` snapshots, `protoquot serve --stats` and the EXP-R
/// bench report.
#[derive(Clone, Debug, Default)]
pub struct GuardBuildStats {
    /// Reachable `(composite subset, ψ-hub)` DFA states.
    pub dfa_states: usize,
    /// Events per transition row (`|Σ|`, the shared event table).
    pub dfa_events: usize,
    /// Bytes of the dense transition table plus the per-state verdict
    /// and subset-size side arrays.
    pub table_bytes: usize,
    /// Largest subset of the minimized composite behind any DFA state.
    pub max_subset: usize,
    /// Wall-clock milliseconds spent compiling the system the DFA is
    /// built over: each part's minimum, then the composite product, its
    /// τ* rows and the service's normal form ([`CompiledSystem::new`]).
    pub compile_ms: f64,
    /// Wall-clock milliseconds spent subset-constructing the DFA
    /// (the system compile in `compile_ms` excluded).
    pub build_ms: f64,
}

impl std::fmt::Display for GuardBuildStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} states x {} events, {} table bytes, max subset {}, \
             system compiled in {:.3} ms, built in {:.3} ms",
            self.dfa_states,
            self.dfa_events,
            self.table_bytes,
            self.max_subset,
            self.compile_ms,
            self.build_ms
        )
    }
}

/// Transition-table sentinel: the event extends no trace of `B ‖ C`.
const T_NOT_A_TRACE: u32 = u32::MAX;
/// Transition-table sentinel: ψ has no step for the event.
const T_SERVICE_VIOLATION: u32 = u32::MAX - 1;
/// Transition-table sentinel: every reachable state in the target
/// subset fails sink-acceptance containment (eager stall).
const T_STALL: u32 = u32::MAX - 2;
/// Targets at or above this value are verdicts, not states.
const T_SENTINEL_BASE: u32 = T_STALL;

/// Borrowed view of a [`GuardProgram`]'s determinized tables — the
/// exact arrays the per-frame check reads — for the compiled artifact
/// format ([`crate::artifact`]), which digests them.
pub(crate) struct GuardDfaTables<'a> {
    /// `|Σ|` — the transition-row stride.
    pub nsym: usize,
    /// Initial DFA state.
    pub dfa_initial: u32,
    /// Dense `|states| × nsym` transition/verdict table.
    pub trans: &'a [u32],
    /// Per-state attested-stall confirmation flags.
    pub any_fail: &'a [bool],
    /// Per-state composite-subset sizes.
    pub subset_size: &'a [u32],
    /// Set when sessions start convicted.
    pub initial_verdict: Option<&'a Conviction>,
}

/// Compiled guard shared by every session of one gateway.
pub struct GuardProgram {
    /// The compiled `B ‖ C` against the service: composite, τ* rows,
    /// ψ step table — the objects the static check runs on.
    system: CompiledSystem,
    /// Fused τ-closure + ext-step + ψ-step DFA: row `s` holds the
    /// target (or verdict sentinel) for every event index.
    trans: Vec<u32>,
    /// `|Σ|` — the transition-row stride.
    nsym: usize,
    /// Initial DFA state (`(τ*-closure of the initial composite state,
    /// ψ_A.ε)`).
    dfa_initial: u32,
    /// Per-DFA-state: some subset member fails containment (confirms an
    /// attested stall).
    any_fail: Vec<bool>,
    /// Per-DFA-state: states of the minimized composite in the subset
    /// (for parity with the reference guard's `possible_states`).
    subset_size: Vec<u32>,
    /// Set when the *initial* configuration already fails containment
    /// for every reachable state: sessions start convicted.
    initial_verdict: Option<Conviction>,
    build: GuardBuildStats,
}

impl GuardProgram {
    /// Compiles each part's strong-bisimulation minimum against
    /// `service` ([`CompiledSystem::minimal`]) and subset-constructs the
    /// per-frame check into a DFA. Every verdict equals the one the
    /// literal parts would give; only the composite, and so the DFA, is
    /// smaller. Validation is [`CompiledSystem::new`]'s: no event may be
    /// shared by more than two components, and the solo (externally
    /// visible) alphabet of the composition must equal the service
    /// alphabet.
    pub fn new(parts: &[&Spec], service: &Spec) -> Result<GuardProgram, SpecError> {
        let t0 = Instant::now();
        let system = CompiledSystem::minimal(parts, service)?;
        Ok(GuardProgram::determinized(system, t0))
    }

    /// The guard over the literal parts, for the differential tests.
    #[cfg(test)]
    fn literal(parts: &[&Spec], service: &Spec) -> Result<GuardProgram, SpecError> {
        let t0 = Instant::now();
        Ok(GuardProgram::determinized(
            CompiledSystem::new(parts, service)?,
            t0,
        ))
    }

    /// Wraps a system compiled since `t0` and determinizes it.
    fn determinized(system: CompiledSystem, t0: Instant) -> GuardProgram {
        let compile_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut prog = GuardProgram {
            system,
            trans: Vec::new(),
            nsym: 0,
            dfa_initial: 0,
            any_fail: Vec::new(),
            subset_size: Vec::new(),
            initial_verdict: None,
            build: GuardBuildStats {
                compile_ms,
                ..GuardBuildStats::default()
            },
        };
        prog.determinize();
        prog
    }

    /// Subset-constructs the DFA over the compiled composite, on the
    /// [`SubsetKernel`]: states are reachable `(sorted τ-closed subset,
    /// hub)` pairs, edges fuse the ext step, the τ-closure of its image
    /// and the ψ-hub step, and the progress verdicts are folded into the
    /// table (stall edges) and the per-state `any_fail` flags.
    ///
    /// Each state is interned once, as the flat key `[hub, subset…]`.
    /// Expanding a state buckets its members' external edges by event
    /// in one pass; every event's successor is then read off its bucket.
    /// States are expanded last-in first-out. The DFA ids this order
    /// assigns feed every artifact's tables digest, so changing it
    /// refuses every artifact written before.
    fn determinize(&mut self) {
        let t0 = Instant::now();
        let sys = &self.system;
        let comp = sys.composite();
        let nsym = sys.table().len();
        let (ext, tau) = (comp.ext_edges(), comp.int_edges());
        let all_fail = |subset: &[u32], hub: u32| subset.iter().all(|&s| !sys.progress_ok(s, hub));

        // Ids at `T_SENTINEL_BASE` would read as verdicts.
        let mut states = SubsetKernel::new(comp.n, nsym, T_SENTINEL_BASE as usize).tagged(1);
        let mut work: Vec<u32> = Vec::new();
        let mut trans: Vec<u32> = Vec::new();
        let mut any_fail: Vec<bool> = Vec::new();
        let mut subset_size: Vec<u32> = Vec::new();
        let mut max_subset = 0usize;
        let mut key = Vec::new();
        let mut intern =
            |states: &mut SubsetKernel, hub: u32, subset: &[u32], work: &mut Vec<u32>| {
                key.clear();
                key.push(hub);
                key.extend_from_slice(subset);
                let (id, fresh) = states
                    .intern(&key)
                    .expect("guard DFA state space collides with verdict sentinels");
                if fresh {
                    work.push(id);
                }
                id
            };

        let initial_hub = sys.initial_hub();
        let mut next = vec![comp.initial];
        states.close(&mut next, tau, |_| false);
        let dfa_initial = intern(&mut states, initial_hub, &next, &mut work);
        if all_fail(&next, initial_hub) {
            // The initial configuration already fails containment for
            // every reachable state — sessions start convicted, exactly
            // as the reference guard does.
            self.initial_verdict = Some(Conviction::Stalled);
        }

        // Every interned state is popped once, and a pop sizes the tables
        // for every state interned so far, so the last pop sizes them all.
        while let Some(id) = work.pop() {
            let row = id as usize * nsym;
            trans.resize(states.len() * nsym, T_NOT_A_TRACE);
            any_fail.resize(states.len(), false);
            subset_size.resize(states.len(), 0);

            let k = states.get(id);
            let (hub, subset) = (k[0], &k[1..]);
            max_subset = max_subset.max(subset.len());
            any_fail[id as usize] = subset.iter().any(|&s| !sys.progress_ok(s, hub));
            subset_size[id as usize] = subset.len() as u32;

            states.expand(id, ext);
            for ev in 0..nsym {
                trans[row + ev] = if states.dead(ev) {
                    T_NOT_A_TRACE
                } else {
                    match sys.hub_step(hub, ev as u32) {
                        None => T_SERVICE_VIOLATION,
                        Some(next_hub) => {
                            states.step(ev, tau, |_| false, &mut next);
                            if all_fail(&next, next_hub) {
                                // A stall edge is terminal: the target
                                // state is never resident, so it is not
                                // interned or explored.
                                T_STALL
                            } else {
                                intern(&mut states, next_hub, &next, &mut work)
                            }
                        }
                    }
                };
            }
        }

        self.dfa_initial = dfa_initial;
        self.nsym = nsym;
        self.build = GuardBuildStats {
            dfa_states: states.len(),
            dfa_events: nsym,
            table_bytes: trans.len() * 4 + any_fail.len() + subset_size.len() * 4,
            max_subset,
            compile_ms: self.build.compile_ms,
            build_ms: t0.elapsed().as_secs_f64() * 1e3,
        };
        self.trans = trans;
        self.any_fail = any_fail;
        self.subset_size = subset_size;
    }

    /// The compiled system the guard runs on (the minimized parts), for
    /// re-verification at admission without compiling `B ‖ C` again.
    pub fn system(&self) -> &CompiledSystem {
        &self.system
    }

    /// The shared event table (index ↔ event mapping on the wire).
    pub fn table(&self) -> &Arc<EventTable> {
        self.system.table()
    }

    /// States of the compiled `B ‖ C` over the minimized parts.
    pub fn num_states(&self) -> usize {
        self.system.composite().n
    }

    /// ψ-hubs of the normalized service.
    pub fn num_hubs(&self) -> usize {
        self.system.num_hubs()
    }

    /// Build-time cost and size of the guard DFA.
    pub fn build_stats(&self) -> &GuardBuildStats {
        &self.build
    }

    /// Borrowed view of the determinized tables, for the compiled
    /// artifact's tables digest. The subset construction is
    /// deterministic for a given system, so two builds of the same specs
    /// always return identical tables.
    pub(crate) fn dfa_tables(&self) -> GuardDfaTables<'_> {
        GuardDfaTables {
            nsym: self.nsym,
            dfa_initial: self.dfa_initial,
            trans: &self.trans,
            any_fail: &self.any_fail,
            subset_size: &self.subset_size,
            initial_verdict: self.initial_verdict.as_ref(),
        }
    }

    /// Walks the DFA greedily (first non-convicting event from each
    /// state), returning up to `len` event indices of a genuine,
    /// never-convicting trace of the loaded system — the workload the
    /// relay-capacity benchmarks pump through the gateway. Shorter than
    /// `len` only if the walk hits a state with no surviving edge.
    pub fn sample_accepted(&self, len: usize) -> Vec<u16> {
        let mut out = Vec::with_capacity(len);
        let mut cur = self.dfa_initial;
        if self.initial_verdict.is_some() {
            return out;
        }
        for _ in 0..len {
            let row = &self.trans[cur as usize * self.nsym..(cur as usize + 1) * self.nsym];
            let Some(ev) = row.iter().position(|&t| t < T_SENTINEL_BASE) else {
                break;
            };
            out.push(ev as u16);
            cur = row[ev];
        }
        out
    }
}

/// Per-session online guard state: one `u32` DFA state.
///
/// [`SessionGuard::observe`] is a single transition-table load per
/// frame; the subset tracking, τ-closure and containment scans all
/// happened at [`GuardProgram::new`] time. The pre-determinization
/// implementation is retained as [`SessionGuardReference`] — the
/// differential oracle.
pub struct SessionGuard {
    prog: Arc<GuardProgram>,
    cur: u32,
    convicted: Option<Conviction>,
    observed: u64,
}

impl SessionGuard {
    /// A fresh guard at the initial DFA state.
    ///
    /// If the initial configuration already fails progress containment
    /// for every reachable state, the session starts convicted — the
    /// static verdict is necessarily a progress failure too.
    pub fn new(prog: Arc<GuardProgram>) -> SessionGuard {
        let cur = prog.dfa_initial;
        let convicted = prog.initial_verdict.clone();
        SessionGuard {
            prog,
            cur,
            convicted,
            observed: 0,
        }
    }

    /// Validates one external event frame (an event-table index).
    ///
    /// On `Err` the session is convicted and stays convicted; every
    /// later call returns the same conviction.
    pub fn observe(&mut self, event: u16) -> Result<(), Conviction> {
        if let Some(c) = &self.convicted {
            return Err(c.clone());
        }
        let prog = &*self.prog;
        let ev = usize::from(event);
        if ev >= prog.nsym {
            // The gateway rejects unknown indices before reaching the
            // guard; treat a stray one as a non-trace.
            let c = Conviction::NotATrace { event };
            self.convicted = Some(c.clone());
            return Err(c);
        }
        let target = prog.trans[self.cur as usize * prog.nsym + ev];
        if target < T_SENTINEL_BASE {
            self.cur = target;
            self.observed += 1;
            return Ok(());
        }
        let c = match target {
            T_NOT_A_TRACE => Conviction::NotATrace { event },
            T_SERVICE_VIOLATION => Conviction::ServiceViolation { event },
            _ => {
                // A stall edge extends the trace with a genuine step —
                // the conviction is about the state it lands in, so the
                // frame counts as observed (the reference guard agrees).
                self.observed += 1;
                Conviction::Stalled
            }
        };
        self.convicted = Some(c.clone());
        Err(c)
    }

    /// Confirms or dismisses a client-attested stall.
    ///
    /// Convicts when some possible state fails containment — the
    /// attested stall then witnesses a reachable progress-failing pair.
    /// An attestation no possible state supports is dismissed (`Ok`).
    pub fn attest_stall(&mut self) -> Result<(), Conviction> {
        if let Some(c) = &self.convicted {
            return Err(c.clone());
        }
        if self.prog.any_fail[self.cur as usize] {
            let c = Conviction::Stalled;
            self.convicted = Some(c.clone());
            return Err(c);
        }
        Ok(())
    }

    /// The conviction, if the session has one.
    pub fn convicted(&self) -> Option<&Conviction> {
        self.convicted.as_ref()
    }

    /// Frames accepted so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Number of states of the minimized composite currently possible.
    pub fn possible_states(&self) -> usize {
        self.prog.subset_size[self.cur as usize] as usize
    }

    /// The interned event behind a wire index, if any.
    pub fn event_of(&self, event: u16) -> Option<EventId> {
        self.prog.table().event(u32::from(event))
    }
}

/// The pre-determinization per-session guard: re-plays subset tracking
/// over the compiled `B ‖ C` product (τ-closure + ext step), the ψ-hub
/// step and the containment scans on **every frame**. Retained verbatim
/// as the differential oracle for [`SessionGuard`] — the same
/// engine/reference split every other phase of this workspace has.
pub struct SessionGuardReference {
    prog: Arc<GuardProgram>,
    /// τ-closed, sorted, deduplicated set of possible composite states.
    possible: Vec<u32>,
    /// Scratch mark bits for the τ-closure (cleared after each use).
    seen: Vec<bool>,
    hub: u32,
    convicted: Option<Conviction>,
    observed: u64,
}

impl SessionGuardReference {
    /// A fresh guard at the initial state of the compiled product.
    pub fn new(prog: Arc<GuardProgram>) -> SessionGuardReference {
        let n = prog.num_states();
        let possible = vec![prog.system.composite().initial];
        let hub = prog.system.initial_hub();
        let mut guard = SessionGuardReference {
            prog,
            possible,
            seen: vec![false; n],
            hub,
            convicted: None,
            observed: 0,
        };
        guard.tau_close();
        if guard.all_fail() {
            guard.convicted = Some(Conviction::Stalled);
        }
        guard
    }

    /// Extends `possible` with everything reachable over internal
    /// edges, leaving it sorted and deduplicated.
    fn tau_close(&mut self) {
        let comp = self.prog.system.composite();
        for &s in &self.possible {
            self.seen[s as usize] = true;
        }
        let mut i = 0;
        while i < self.possible.len() {
            let s = self.possible[i] as usize;
            for k in comp.int_off[s] as usize..comp.int_off[s + 1] as usize {
                let t = comp.int_tgt[k];
                if !self.seen[t as usize] {
                    self.seen[t as usize] = true;
                    self.possible.push(t);
                }
            }
            i += 1;
        }
        self.possible.sort_unstable();
        for &s in &self.possible {
            self.seen[s as usize] = false;
        }
    }

    fn all_fail(&self) -> bool {
        self.possible
            .iter()
            .all(|&s| !self.prog.system.progress_ok(s, self.hub))
    }

    /// Validates one external event frame (an event-table index).
    pub fn observe(&mut self, event: u16) -> Result<(), Conviction> {
        if let Some(c) = &self.convicted {
            return Err(c.clone());
        }
        if usize::from(event) >= self.prog.table().len() {
            let c = Conviction::NotATrace { event };
            self.convicted = Some(c.clone());
            return Err(c);
        }
        let comp = self.prog.system.composite();
        let mut next: Vec<u32> = Vec::with_capacity(self.possible.len());
        for &s in &self.possible {
            let s = s as usize;
            for k in comp.ext_off[s] as usize..comp.ext_off[s + 1] as usize {
                if comp.ext_ev[k] == u32::from(event) {
                    let t = comp.ext_tgt[k];
                    if !self.seen[t as usize] {
                        self.seen[t as usize] = true;
                        next.push(t);
                    }
                }
            }
        }
        for &t in &next {
            self.seen[t as usize] = false;
        }
        if next.is_empty() {
            let c = Conviction::NotATrace { event };
            self.convicted = Some(c.clone());
            return Err(c);
        }
        let Some(hub) = self.prog.system.hub_step(self.hub, u32::from(event)) else {
            let c = Conviction::ServiceViolation { event };
            self.convicted = Some(c.clone());
            return Err(c);
        };
        self.possible = next;
        self.hub = hub;
        self.observed += 1;
        self.tau_close();
        if self.all_fail() {
            let c = Conviction::Stalled;
            self.convicted = Some(c.clone());
            return Err(c);
        }
        Ok(())
    }

    /// Confirms or dismisses a client-attested stall.
    pub fn attest_stall(&mut self) -> Result<(), Conviction> {
        if let Some(c) = &self.convicted {
            return Err(c.clone());
        }
        if self
            .possible
            .iter()
            .any(|&s| !self.prog.system.progress_ok(s, self.hub))
        {
            let c = Conviction::Stalled;
            self.convicted = Some(c.clone());
            return Err(c);
        }
        Ok(())
    }

    /// The conviction, if the session has one.
    pub fn convicted(&self) -> Option<&Conviction> {
        self.convicted.as_ref()
    }

    /// Frames accepted so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Number of composite states currently possible.
    pub fn possible_states(&self) -> usize {
        self.possible.len()
    }

    /// The interned event behind a wire index, if any.
    pub fn event_of(&self, event: u16) -> Option<EventId> {
        self.prog.table().event(u32::from(event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protoquot_spec::SpecBuilder;

    fn service() -> Spec {
        let mut b = SpecBuilder::new("service");
        let u0 = b.state("u0");
        let u1 = b.state("u1");
        b.ext(u0, "acc", u1);
        b.ext(u1, "del", u0);
        b.build().unwrap()
    }

    fn idx(prog: &GuardProgram, name: &str) -> u16 {
        prog.table()
            .events
            .iter()
            .position(|e| e.name() == name)
            .unwrap() as u16
    }

    #[test]
    fn genuine_traces_are_accepted() {
        let mut b = SpecBuilder::new("impl");
        let s0 = b.state("s0");
        let mid = b.state("mid");
        let s1 = b.state("s1");
        b.ext(s0, "acc", mid);
        b.int(mid, s1);
        b.ext(s1, "del", s0);
        let implementation = b.build().unwrap();
        let svc = service();
        let prog = Arc::new(GuardProgram::new(&[&implementation], &svc).unwrap());
        let (acc, del) = (idx(&prog, "acc"), idx(&prog, "del"));
        let mut g = SessionGuard::new(Arc::clone(&prog));
        let mut r = SessionGuardReference::new(Arc::clone(&prog));
        for _ in 0..3 {
            assert_eq!(g.observe(acc), Ok(()));
            assert_eq!(g.observe(del), Ok(()));
            assert_eq!(r.observe(acc), Ok(()));
            assert_eq!(r.observe(del), Ok(()));
        }
        assert_eq!(g.observed(), 6);
        assert_eq!(r.observed(), 6);
        assert!(g.convicted().is_none());
        assert_eq!(g.attest_stall(), Ok(()));
        assert_eq!(r.attest_stall(), Ok(()));
        assert!(prog.build_stats().dfa_states >= 2);
        assert!(prog.build_stats().table_bytes > 0);
    }

    #[test]
    fn non_traces_and_service_violations_convict() {
        // `del` is enabled initially in the implementation but not in
        // the service: membership passes, trace inclusion fails.
        let mut b = SpecBuilder::new("impl");
        let s0 = b.state("s0");
        let s1 = b.state("s1");
        b.ext(s0, "acc", s1);
        b.ext(s1, "del", s0);
        b.ext(s0, "del", s0);
        let implementation = b.build().unwrap();
        let svc = service();
        let prog = Arc::new(GuardProgram::new(&[&implementation], &svc).unwrap());
        let (acc, del) = (idx(&prog, "acc"), idx(&prog, "del"));

        let mut g = SessionGuard::new(Arc::clone(&prog));
        assert_eq!(
            g.observe(del),
            Err(Conviction::ServiceViolation { event: del })
        );
        // Convictions are sticky.
        assert_eq!(
            g.observe(acc),
            Err(Conviction::ServiceViolation { event: del })
        );

        // Double `acc` is impossible in the composite itself.
        let mut g = SessionGuard::new(Arc::clone(&prog));
        assert_eq!(g.observe(acc), Ok(()));
        assert_eq!(g.observe(acc), Err(Conviction::NotATrace { event: acc }));

        // The reference agrees frame for frame.
        let mut r = SessionGuardReference::new(Arc::clone(&prog));
        assert_eq!(
            r.observe(del),
            Err(Conviction::ServiceViolation { event: del })
        );
        let mut r = SessionGuardReference::new(Arc::clone(&prog));
        assert_eq!(r.observe(acc), Ok(()));
        assert_eq!(r.observe(acc), Err(Conviction::NotATrace { event: acc }));
    }

    #[test]
    fn dead_ends_convict_eagerly() {
        let mut b = SpecBuilder::new("impl");
        let s0 = b.state("s0");
        let dead = b.state("dead");
        b.ext(s0, "acc", dead);
        let implementation = b
            .build()
            .unwrap()
            .with_alphabet_extended(service().alphabet());
        let svc = service();
        let prog = Arc::new(GuardProgram::new(&[&implementation], &svc).unwrap());
        let acc = idx(&prog, "acc");
        let mut g = SessionGuard::new(Arc::clone(&prog));
        assert_eq!(g.observe(acc), Err(Conviction::Stalled));
        let mut r = SessionGuardReference::new(Arc::clone(&prog));
        assert_eq!(r.observe(acc), Err(Conviction::Stalled));
    }

    #[test]
    fn attested_stalls_need_a_failing_witness() {
        // Nondeterministic `acc`: one branch progresses, one is stuck.
        // The eager all-fail rule cannot fire, but an attested stall is
        // confirmed by the stuck branch.
        let mut b = SpecBuilder::new("impl");
        let s0 = b.state("s0");
        let s1 = b.state("s1");
        let dead = b.state("dead");
        b.ext(s0, "acc", s1);
        b.ext(s0, "acc", dead);
        b.ext(s1, "del", s0);
        let implementation = b.build().unwrap();
        let svc = service();
        let prog = Arc::new(GuardProgram::new(&[&implementation], &svc).unwrap());
        let acc = idx(&prog, "acc");
        let mut g = SessionGuard::new(Arc::clone(&prog));
        assert_eq!(g.observe(acc), Ok(()));
        assert_eq!(g.possible_states(), 2);
        assert_eq!(g.attest_stall(), Err(Conviction::Stalled));
        let mut r = SessionGuardReference::new(Arc::clone(&prog));
        assert_eq!(r.observe(acc), Ok(()));
        assert_eq!(r.possible_states(), 2);
        assert_eq!(r.attest_stall(), Err(Conviction::Stalled));
    }

    #[test]
    fn interface_mismatch_is_rejected() {
        let mut b = SpecBuilder::new("impl");
        let s0 = b.state("s0");
        b.ext(s0, "other", s0);
        let implementation = b.build().unwrap();
        assert!(GuardProgram::new(&[&implementation], &service()).is_err());
    }

    #[test]
    fn sampled_traces_never_convict() {
        let mut b = SpecBuilder::new("impl");
        let s0 = b.state("s0");
        let s1 = b.state("s1");
        b.ext(s0, "acc", s1);
        b.ext(s1, "del", s0);
        let implementation = b.build().unwrap();
        let svc = service();
        let prog = Arc::new(GuardProgram::new(&[&implementation], &svc).unwrap());
        let trace = prog.sample_accepted(256);
        assert_eq!(trace.len(), 256);
        let mut g = SessionGuard::new(Arc::clone(&prog));
        let mut r = SessionGuardReference::new(Arc::clone(&prog));
        for &ev in &trace {
            assert_eq!(g.observe(ev), Ok(()));
            assert_eq!(r.observe(ev), Ok(()));
        }
    }

    /// Asserts that the served guard, built over each part's minimum,
    /// gives the verdicts of the guard over the literal parts: a BFS over
    /// pairs of their DFA states compares every table entry's verdict
    /// sentinel and every state's `any_fail`, after the initial verdicts.
    fn agrees_with_literal(label: &str, parts: &[&Spec], service: &Spec) {
        let (lit, min) = match (
            GuardProgram::literal(parts, service),
            GuardProgram::new(parts, service),
        ) {
            (Ok(lit), Ok(min)) => (lit, min),
            (lit, min) => {
                let text = |r: Result<GuardProgram, SpecError>| r.err().map(|e| e.to_string());
                assert_eq!(text(lit), text(min), "{label}: build errors differ");
                return;
            }
        };
        assert_eq!(lit.initial_verdict, min.initial_verdict, "{label}");
        assert!(min.num_states() <= lit.num_states(), "{label}");
        assert!(min.build.max_subset <= lit.build.max_subset, "{label}");
        let nsym = lit.nsym;
        assert_eq!(nsym, min.nsym, "{label}");
        let kind = |t: u32| t.max(T_SENTINEL_BASE - 1);
        let mut seen = std::collections::HashSet::new();
        let mut work = vec![(lit.dfa_initial, min.dfa_initial)];
        while let Some((a, b)) = work.pop() {
            if !seen.insert((a, b)) {
                continue;
            }
            let (a, b) = (a as usize, b as usize);
            assert_eq!(lit.any_fail[a], min.any_fail[b], "{label}: any_fail");
            for ev in 0..nsym {
                let (x, y) = (lit.trans[a * nsym + ev], min.trans[b * nsym + ev]);
                assert_eq!(kind(x), kind(y), "{label}: verdict under event #{ev}");
                if x < T_SENTINEL_BASE {
                    work.push((x, y));
                }
            }
        }
    }

    #[test]
    fn minimized_guard_gives_the_literal_verdicts() {
        use protoquot_core::solve;
        use protoquot_protocols::{
            ab_to_nak_configuration, at_least_once, colocated_configuration, exactly_once,
            nfa_blowup, random_component, symmetric_configuration, RandomParams,
        };
        use protoquot_sim::redirect_transition;
        let builtins = [
            ("colocated", colocated_configuration(), exactly_once()),
            ("symmetric", symmetric_configuration(), at_least_once()),
            ("ab-nak", ab_to_nak_configuration(), exactly_once()),
        ];
        for (label, cfg, service) in &builtins {
            let c = solve(&cfg.b, service, &cfg.int).unwrap().converter;
            agrees_with_literal(label, &[&cfg.b, &c], service);
            for k in 1..=3 {
                let mutant = redirect_transition(&c, k).unwrap();
                agrees_with_literal(&format!("{label}/mut{k}"), &[&cfg.b, &mutant], service);
            }
        }
        let service = exactly_once();
        for n in 1..=8 {
            let (b, int) = nfa_blowup(n);
            let c = solve(&b, &service, &int).unwrap().converter;
            agrees_with_literal(&format!("nfa-blowup({n})"), &[&b, &c], &service);
        }
        for seed in 0..40 {
            let (b, int) = random_component(seed, RandomParams::default());
            let mut stuck = SpecBuilder::new("stuck");
            stuck.state("c0");
            for e in int.iter() {
                stuck.event(&e.name());
            }
            let stuck = stuck.build().unwrap();
            agrees_with_literal(&format!("random({seed})"), &[&b, &stuck], &service);
            if let Ok(q) = solve(&b, &service, &int) {
                agrees_with_literal(
                    &format!("random({seed})/derived"),
                    &[&b, &q.converter],
                    &service,
                );
            }
        }
    }

    #[test]
    fn stray_indices_convict_both_guards() {
        let mut b = SpecBuilder::new("impl");
        let s0 = b.state("s0");
        let s1 = b.state("s1");
        b.ext(s0, "acc", s1);
        b.ext(s1, "del", s0);
        let implementation = b.build().unwrap();
        let svc = service();
        let prog = Arc::new(GuardProgram::new(&[&implementation], &svc).unwrap());
        let mut g = SessionGuard::new(Arc::clone(&prog));
        let mut r = SessionGuardReference::new(Arc::clone(&prog));
        assert_eq!(g.observe(999), Err(Conviction::NotATrace { event: 999 }));
        assert_eq!(r.observe(999), Err(Conviction::NotATrace { event: 999 }));
    }
}
