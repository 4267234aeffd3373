//! A compiled, interned verification engine for the satisfaction check.
//!
//! The reference pipeline — [`crate::compose_all_reference`] folding
//! pairwise products, [`crate::normalize`] building per-hub `HashMap`s, and
//! [`crate::satisfies`] exploring with per-state λ*/τ* DFS — is clear
//! but allocation-heavy. This module compiles the same §3/§4 objects
//! into dense CSR form (`u32` state ids, event-indexed step tables,
//! bitset alphabets) and re-runs the three hot paths on top of it:
//!
//! * **composition** — a single n-way reachable product exploration
//!   instead of fold-with-materialization. [`compose_all`] is the one
//!   composition every caller runs (CLI, `protocols` configurations,
//!   verify, guard, admission); the fold is only its oracle;
//! * **normalization** — subset construction on the [`SubsetKernel`],
//!   with interned, canonically sorted hub sets and a dense ψ step table;
//! * **satisfaction** — a depth-first product frontier over a bitmap of
//!   pairs and one progress scan, with a canonical BFS re-walk on
//!   failure paths only.
//!
//! The [`SubsetKernel`] is also the one subset construction the rest of
//! the workspace runs on: the Fig. 5 safety engine in `protoquot-core`
//! and the runtime guard's DFA build both loop over it. Its sibling, the
//! strong-bisimulation kernel, runs `minimize` and `bisimilar`.
//!
//! Everything observable — verdicts, witness traces, violation state
//! ids, `needed`/`offered` sets — is **bit identical** to the reference;
//! `tests/verify_differential.rs` enforces this. The reference functions
//! stay in place as oracles.

mod bisim;
mod compiled;
mod norm;
mod product;
mod subset;

use crate::error::SpecError;
use crate::event::{Alphabet, EventId};
use crate::minimize::minimize;
use crate::satisfy::SatisfactionResult;
use crate::spec::{spec_from_parts, Spec, StateId};
pub(crate) use bisim::bisim_classes;
use compiled::{build_nway, build_single, tau_star_rows};
use norm::{compile_normal, CompiledNormal, NO_HUB};
use product::run_product;
use std::collections::HashMap;
use std::sync::Arc;

pub use compiled::{bits_subset, CompiledComposite, EventTable, TauStar, DENSE_TUPLE_SLOTS};
pub use subset::{Csr, SliceInterner, SubsetKernel};

/// Size and work counters of one engine verification run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerifyEngineStats {
    /// Composite states explored (equals the reference composite).
    pub states: usize,
    /// Composite transitions (external + internal CSR entries).
    pub transitions: usize,
    /// ψ-hubs of the determinized service.
    pub hubs: usize,
    /// Reachable product pairs checked (up to the stopping point on a
    /// safety violation).
    pub pairs: usize,
    /// Interning hits: composite tuples plus hub sets.
    pub dedup_hits: usize,
    /// Bytes held by the compiled CSR tables and interned keys.
    pub arena_bytes: usize,
}

impl std::fmt::Display for VerifyEngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "states={} transitions={} hubs={} pairs={} dedup_hits={} arena={}B",
            self.states, self.transitions, self.hubs, self.pairs, self.dedup_hits, self.arena_bytes
        )
    }
}

/// Verdict plus engine statistics.
#[derive(Debug)]
pub struct EngineVerdict {
    /// The satisfaction verdict, bit identical to the reference.
    pub verdict: SatisfactionResult,
    /// Counters of the run.
    pub stats: VerifyEngineStats,
}

/// Counts alphabet owners per event, rejecting events shared by more
/// than two components ([`SpecError::EventSharedByMoreThanTwo`]).
pub(crate) fn event_counts(parts: &[&Spec]) -> Result<HashMap<EventId, usize>, SpecError> {
    let mut counts: HashMap<EventId, usize> = HashMap::new();
    for p in parts {
        for e in p.alphabet().iter() {
            *counts.entry(e).or_insert(0) += 1;
        }
    }
    if let Some((e, _)) = counts.iter().find(|&(_, &c)| c > 2) {
        return Err(SpecError::EventSharedByMoreThanTwo(e.name()));
    }
    Ok(counts)
}

/// The composite interface: events owned by exactly one component
/// (shared events synchronise and hide, per §3's `‖`).
fn solo_alphabet(counts: &HashMap<EventId, usize>) -> Alphabet {
    let mut a = Alphabet::new();
    for (&e, &c) in counts {
        if c == 1 {
            a.insert(e);
        }
    }
    a
}

/// `P_0 ‖ … ‖ P_{n-1}` against a service, compiled once: the shared
/// event table, the composite in CSR form, its τ* rows and the compiled
/// normal form of the service.
///
/// Everything that checks or runs a system reads this one object: the
/// product check ([`CompiledSystem::verify`]), and the runtime guard,
/// which subset-constructs its DFA over the same composite, τ* rows and
/// ψ step table — so a system that is verified and then served is
/// compiled once, not once per consumer.
pub struct CompiledSystem {
    table: Arc<EventTable>,
    comp: CompiledComposite,
    norm: CompiledNormal,
    tau: Vec<u64>,
}

impl CompiledSystem {
    /// Validates and compiles the system.
    ///
    /// Same errors as `satisfies(&compose_all(parts)?, service)`: an
    /// event shared by more than two components, then an interface (the
    /// events owned by exactly one component) that differs from the
    /// service alphabet.
    pub fn new(parts: &[&Spec], service: &Spec) -> Result<CompiledSystem, SpecError> {
        assert!(
            !parts.is_empty(),
            "CompiledSystem needs at least one component"
        );
        let counts = event_counts(parts)?;
        let iface = solo_alphabet(&counts);
        if &iface != service.alphabet() {
            return Err(SpecError::InterfaceMismatch {
                left: format!("{iface}"),
                right: format!("{}", service.alphabet()),
            });
        }
        let table = EventTable::new(service.alphabet());
        let comp = if parts.len() == 1 {
            build_single(parts[0], &table)
        } else {
            build_nway(parts, &table)
        };
        let tau = tau_star_rows(&comp, table.words());
        let norm = compile_normal(service, &table);
        Ok(CompiledSystem {
            table: Arc::new(table),
            comp,
            norm,
            tau,
        })
    }

    /// [`CompiledSystem::new`] over each part's strong-bisimulation
    /// minimum ([`crate::minimize()`]).
    ///
    /// Minimizing the parts changes sizes, not verdicts. Strong
    /// bisimulation is a congruence for `‖` and keeps traces, τ* and
    /// acceptance sets, so the minimized composite satisfies the service
    /// iff the literal one does. Minimizing keeps each alphabet, so the
    /// setup errors are the literal ones too. Composite state ids,
    /// counts and witnesses are those of the minimized composite (on
    /// nfa-blowup(11), 13 states rather than the literal 14,338); a
    /// caller that owes the literal witness re-walks the literal parts.
    pub fn minimal(parts: &[&Spec], service: &Spec) -> Result<CompiledSystem, SpecError> {
        let minimal: Vec<Spec> = parts.iter().map(|p| minimize(p)).collect();
        let refs: Vec<&Spec> = minimal.iter().collect();
        CompiledSystem::new(&refs, service)
    }

    /// The service's event table (index ↔ event, name-sorted).
    pub fn table(&self) -> &Arc<EventTable> {
        &self.table
    }

    /// The compiled composite `P_0 ‖ … ‖ P_{n-1}`.
    pub fn composite(&self) -> &CompiledComposite {
        &self.comp
    }

    /// `τ*` of composite state `s`: the events it offers after any
    /// number of internal moves, as a bitset over the event table.
    pub fn tau_star(&self, s: u32) -> &[u64] {
        let words = self.norm.words;
        &self.tau[s as usize * words..(s as usize + 1) * words]
    }

    /// ψ-hubs of the determinized service.
    pub fn num_hubs(&self) -> usize {
        self.norm.nh
    }

    /// The initial ψ-hub.
    pub fn initial_hub(&self) -> u32 {
        self.norm.initial
    }

    /// ψ's step from `hub` under event-table index `ev`, if defined.
    pub fn hub_step(&self, hub: u32, ev: u32) -> Option<u32> {
        match self.norm.step[hub as usize * self.norm.ne + ev as usize] {
            NO_HUB => None,
            h => Some(h),
        }
    }

    /// Sink-acceptance containment: does some acceptance set of `hub`
    /// lie within `τ*(s)`?
    pub fn progress_ok(&self, s: u32, hub: u32) -> bool {
        let offered = self.tau_star(s);
        self.norm
            .acceptance(hub as usize)
            .any(|needed| bits_subset(needed, offered))
    }

    /// Checks that the system satisfies the service. Equivalent to
    /// `satisfies(&compose_all(parts)?, service)`: same verdict, same
    /// witness.
    pub fn verify(&self) -> EngineVerdict {
        let outcome = run_product(self);
        EngineVerdict {
            verdict: outcome.verdict,
            stats: VerifyEngineStats {
                states: self.comp.n,
                transitions: self.comp.num_transitions(),
                hubs: self.norm.nh,
                pairs: outcome.pairs,
                dedup_hits: self.comp.dedup_hits + self.norm.dedup_hits,
                arena_bytes: self.comp.arena_bytes + self.norm.arena_bytes,
            },
        }
    }
}

/// Checks `P_0 ‖ … ‖ P_{n-1} satisfies service` on the compiled engine:
/// [`CompiledSystem::new`] then [`CompiledSystem::verify`].
///
/// Equivalent to `satisfies(&compose_all(parts)?, service)` — same
/// errors, same verdict, same witness — but without materializing the
/// composite `Spec`.
pub fn verify_system(parts: &[&Spec], service: &Spec) -> Result<EngineVerdict, SpecError> {
    Ok(CompiledSystem::new(parts, service)?.verify())
}

/// N-ary composition `P_0 ‖ … ‖ P_{n-1}` (§3's `‖` over all parts at
/// once) as a single reachable product exploration, without
/// materializing any intermediate composite.
///
/// Events shared by more than two components are refused
/// ([`SpecError::EventSharedByMoreThanTwo`]): `‖` hides a shared event
/// once its pair synchronises, so a third owner could never join in.
/// The result is identical to the reference left fold
/// [`crate::compose_all_reference`] — same state numbering, names, and
/// per-state adjacency order (modulo the duplicate-edge removal both
/// paths share).
pub fn compose_all(parts: &[&Spec]) -> Result<Spec, SpecError> {
    assert!(
        !parts.is_empty(),
        "compose_all needs at least one component"
    );
    let counts = event_counts(parts)?;
    if parts.len() == 1 {
        return Ok(parts[0].clone());
    }
    let iface = solo_alphabet(&counts);
    let tbl = EventTable::new(&iface);
    let comp = build_nway(parts, &tbl);

    let name = parts
        .iter()
        .map(|p| p.name().to_string())
        .collect::<Vec<_>>()
        .join("||");
    let names: Vec<String> = (0..comp.n)
        .map(|i| {
            let t = comp.tuple(i);
            let mut label = parts[0].state_name(StateId(t[0])).to_string();
            for (i, &s) in t.iter().enumerate().skip(1) {
                label = format!("({},{})", label, parts[i].state_name(StateId(s)));
            }
            label
        })
        .collect();

    let mut ext = Vec::with_capacity(comp.ext_ev.len());
    let mut int = Vec::with_capacity(comp.int_tgt.len());
    for s in 0..comp.n {
        for k in comp.ext_off[s] as usize..comp.ext_off[s + 1] as usize {
            ext.push((
                StateId(s as u32),
                tbl.events[comp.ext_ev[k] as usize],
                StateId(comp.ext_tgt[k]),
            ));
        }
        for k in comp.int_off[s] as usize..comp.int_off[s + 1] as usize {
            int.push((StateId(s as u32), StateId(comp.int_tgt[k])));
        }
    }
    spec_from_parts(name, iface, names, StateId(0), ext, int)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::{compose, compose_all_reference};
    use crate::minimize::bisimilar;
    use crate::satisfy::{satisfies, Violation};
    use crate::spec::SpecBuilder;

    fn alternator(name: &str, a: &str, b: &str) -> Spec {
        let mut sb = SpecBuilder::new(name);
        let s0 = sb.state("s0");
        let s1 = sb.state("s1");
        sb.ext(s0, a, s1);
        sb.ext(s1, b, s0);
        sb.build().unwrap()
    }

    /// Relay of three components: in -> x -> y -> out.
    fn relay_parts() -> (Spec, Spec, Spec) {
        (
            alternator("p0", "in", "x"),
            alternator("p1", "x", "y"),
            alternator("p2", "y", "out"),
        )
    }

    #[test]
    fn nway_matches_pairwise_compose_exactly() {
        let a = alternator("A", "in", "x");
        let b = alternator("B", "x", "out");
        let reference = compose(&a, &b);
        let nway = compose_all(&[&a, &b]).unwrap();
        assert_eq!(nway.name(), reference.name());
        assert_eq!(nway.alphabet(), reference.alphabet());
        assert_eq!(nway.num_states(), reference.num_states());
        for s in reference.states() {
            assert_eq!(nway.state_name(s), reference.state_name(s));
            assert_eq!(nway.external_from(s), reference.external_from(s));
            assert_eq!(nway.internal_from(s), reference.internal_from(s));
        }
        assert_eq!(nway.initial(), reference.initial());
    }

    #[test]
    fn nway_matches_fold_for_three_parts() {
        let (p0, p1, p2) = relay_parts();
        let folded = compose_all_reference(&[&p0, &p1, &p2]).unwrap();
        let nway = compose_all(&[&p0, &p1, &p2]).unwrap();
        assert_eq!(nway.num_states(), folded.num_states());
        assert_eq!(nway.alphabet(), folded.alphabet());
        for s in folded.states() {
            assert_eq!(nway.external_from(s), folded.external_from(s));
            assert_eq!(nway.internal_from(s), folded.internal_from(s));
        }
        assert!(bisimilar(&nway, &folded));
    }

    #[test]
    fn nway_rejects_three_way_sharing() {
        let p0 = alternator("p0", "e", "x");
        let p1 = alternator("p1", "e", "y");
        let p2 = alternator("p2", "e", "z");
        assert!(matches!(
            compose_all(&[&p0, &p1, &p2]),
            Err(SpecError::EventSharedByMoreThanTwo(_))
        ));
    }

    #[test]
    fn engine_agrees_on_simple_satisfaction() {
        let service = alternator("svc", "acc", "del");
        let mut sb = SpecBuilder::new("impl");
        let s0 = sb.state("s0");
        let mid = sb.state("mid");
        let s1 = sb.state("s1");
        sb.ext(s0, "acc", mid);
        sb.int(mid, s1);
        sb.ext(s1, "del", s0);
        let imp = sb.build().unwrap();
        let out = verify_system(&[&imp], &service).unwrap();
        assert!(out.verdict.is_ok());
        assert!(out.stats.pairs >= 3);
    }

    #[test]
    fn engine_reproduces_reference_safety_witness() {
        let service = alternator("svc", "acc", "del");
        let mut sb = SpecBuilder::new("impl");
        let s0 = sb.state("s0");
        let s1 = sb.state("s1");
        sb.ext(s0, "acc", s1);
        sb.ext(s1, "del", s0);
        sb.ext(s1, "del", s1); // duplicate delivery
        let imp = sb.build().unwrap();
        let reference = satisfies(&imp, &service).unwrap();
        let engine = verify_system(&[&imp], &service).unwrap();
        match (&reference, &engine.verdict) {
            (Err(Violation::Safety { trace: rt }), Err(Violation::Safety { trace: et })) => {
                assert_eq!(rt, et);
            }
            other => panic!("expected matching safety violations, got {other:?}"),
        }
    }

    #[test]
    fn engine_reproduces_reference_progress_violation() {
        let service = alternator("svc", "acc", "del");
        let mut sb = SpecBuilder::new("impl");
        let s0 = sb.state("s0");
        let s1 = sb.state("s1");
        let dead = sb.state("dead");
        sb.ext(s0, "acc", s1);
        sb.ext(s1, "del", s0);
        sb.int(s1, dead);
        let imp = sb.build().unwrap();
        let reference = satisfies(&imp, &service).unwrap();
        let engine = verify_system(&[&imp], &service).unwrap();
        match (&reference, &engine.verdict) {
            (
                Err(Violation::Progress {
                    trace: rt,
                    state: rs,
                    needed: rn,
                    offered: ro,
                }),
                Err(Violation::Progress {
                    trace: et,
                    state: es,
                    needed: en,
                    offered: eo,
                }),
            ) => {
                assert_eq!(rt, et);
                assert_eq!(rs, es);
                assert_eq!(rn, en);
                assert_eq!(ro, eo);
            }
            other => panic!("expected matching progress violations, got {other:?}"),
        }
    }

    #[test]
    fn interface_mismatch_matches_reference_error() {
        let b = alternator("b", "x", "y");
        let a = alternator("a", "x", "z");
        let reference = satisfies(&b, &a).unwrap_err();
        let engine = verify_system(&[&b], &a).unwrap_err();
        assert_eq!(format!("{reference}"), format!("{engine}"));
    }

    #[test]
    fn stats_match_the_reference_composite() {
        let (p0, p1, p2) = relay_parts();
        let composite = compose_all(&[&p0, &p1, &p2]).unwrap();
        let service = {
            // The composite interface is {in, out}; accept everything.
            let mut sb = SpecBuilder::new("svc");
            let s0 = sb.state("s0");
            let s1 = sb.state("s1");
            sb.ext(s0, "in", s1);
            sb.ext(s1, "out", s0);
            sb.build().unwrap()
        };
        let reference = satisfies(&composite, &service).unwrap();
        let base = verify_system(&[&p0, &p1, &p2], &service).unwrap();
        assert_eq!(reference.is_ok(), base.verdict.is_ok());
        assert_eq!(base.stats.states, composite.num_states());
        assert_eq!(
            base.stats.transitions,
            composite.num_external() + composite.num_internal()
        );
        let again = verify_system(&[&p0, &p1, &p2], &service).unwrap();
        assert_eq!(again.stats, base.stats);
    }
}
