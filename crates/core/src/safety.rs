//! The safety phase of the quotient algorithm (paper Figure 5).
//!
//! Builds `C0`, the specification over `Int` with the **largest** trace
//! set such that every trace of `B ‖ C0` projects to a trace of A:
//! a worklist construction over canonical pair sets, creating a state
//! for each distinct `h.r` whose `ok` predicate holds, and an
//! `r --e--> re` transition whenever `φ(h.r, e)` is `ok`.
//!
//! *Vacuous* states (empty pair sets — converter traces no trace of B
//! matches) are trivially safe and belong to the maximal solution, but
//! are useless in practice: B ‖ C never reaches them. They are included
//! only when requested, so that maximality (Theorem 1(ii)) can be
//! tested literally.
//!
//! Two implementations exist:
//!
//! * [`safety_phase`] — the production entry point, backed by the
//!   interned engine in [`mod@crate::safety_engine`], one loop over the
//!   subset-construction kernel;
//! * [`safety_phase_reference`] — the direct Figure 5 transcription
//!   below, kept so the engine's equivalence is *tested*
//!   (`tests/safety_differential.rs`), not assumed. Its worklist is
//!   FIFO, so states are created (and named `c0, c1, …`) in
//!   breadth-first discovery order — the canonical order the kernel's
//!   first-intern ids give the engine with no renumbering.

use crate::pairset::{h_epsilon, phi, OkViolation, PairSet};
use protoquot_spec::{spec_from_parts, Alphabet, EventId, NormalSpec, Spec, StateId};
use std::collections::{HashMap, VecDeque};

/// Output of the safety phase.
#[derive(Clone, Debug)]
pub struct SafetyPhase {
    /// `C0` — the maximal safe converter.
    pub c0: Spec,
    /// `f.c` for every state of `c0` (same indexing).
    pub f: Vec<PairSet>,
    /// Whether vacuous states were included.
    pub includes_vacuous: bool,
}

/// Why the safety phase produced nothing: `ok(h.ε)` failed, i.e. even
/// the empty converter lets B violate the service.
#[derive(Clone, Debug)]
pub struct SafetyFailure {
    /// The `ok` violation at the initial pair set.
    pub violation: OkViolation,
}

/// Limits for the construction (the problem is PSPACE-hard; the state
/// space of `C0` is bounded by `2^(|A|·|B|)`).
#[derive(Clone, Copy, Debug)]
pub struct SafetyLimits {
    /// Abort if more than this many converter states are created.
    pub max_states: usize,
}

impl Default for SafetyLimits {
    fn default() -> Self {
        SafetyLimits {
            max_states: 1_000_000,
        }
    }
}

/// Runs the Figure 5 construction via the interned engine
/// ([`crate::safety_engine::safety_engine`]).
///
/// * `b` — the fixed components (e.g. `P0 ‖ channels ‖ Q1`), alphabet
///   `Int ∪ Ext`;
/// * `na` — the normalized service specification, alphabet `Ext`;
/// * `int` — the converter interface;
/// * `include_vacuous` — see module docs.
///
/// Returns `Err` iff no safe converter exists, `Ok(None)` if limits were
/// exceeded.
pub fn safety_phase(
    b: &Spec,
    na: &NormalSpec,
    int: &Alphabet,
    include_vacuous: bool,
    limits: SafetyLimits,
) -> Result<Option<SafetyPhase>, SafetyFailure> {
    crate::safety_engine::safety_engine(b, na, int, include_vacuous, limits, 1)
        .map(|out| out.map(|o| o.phase))
}

/// The direct Figure 5 worklist transcription (single-threaded, pair
/// sets cloned as `HashMap` keys). Kept verbatim as the oracle for
/// `tests/safety_differential.rs`; use [`safety_phase`] elsewhere.
pub fn safety_phase_reference(
    b: &Spec,
    na: &NormalSpec,
    int: &Alphabet,
    include_vacuous: bool,
    limits: SafetyLimits,
) -> Result<Option<SafetyPhase>, SafetyFailure> {
    let ext = b.alphabet().difference(int);
    let h0 = h_epsilon(na, b, &ext).map_err(|violation| SafetyFailure { violation })?;

    let mut index: HashMap<PairSet, StateId> = HashMap::new();
    let mut f: Vec<PairSet> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    let mut transitions: Vec<(StateId, EventId, StateId)> = Vec::new();
    let mut work: VecDeque<StateId> = VecDeque::new();

    // The budget covers every state, including the initial one: check
    // it *before* any insertion so an exceeded budget never leaves a
    // phantom name/pair-set entry behind.
    if limits.max_states == 0 {
        return Ok(None);
    }
    index.insert(h0.clone(), StateId(0));
    names.push("c0".to_owned());
    f.push(h0);
    work.push_back(StateId(0));

    while let Some(c) = work.pop_front() {
        for e in int.iter() {
            let j = match phi(na, b, &ext, &f[c.index()], e) {
                Ok(j) => j,
                Err(_) => continue, // not ok: omit the transition
            };
            if j.is_empty() && !include_vacuous {
                continue;
            }
            let target = match index.get(&j) {
                Some(&t) => t,
                None => {
                    let t = StateId(names.len() as u32);
                    // Budget first, insertions after (see above).
                    if t.index() >= limits.max_states {
                        return Ok(None);
                    }
                    names.push(format!("c{}", t.index()));
                    index.insert(j.clone(), t);
                    f.push(j);
                    work.push_back(t);
                    t
                }
            };
            transitions.push((c, e, target));
        }
    }

    let c0 = spec_from_parts(
        "C0".to_owned(),
        int.clone(),
        names,
        StateId(0),
        transitions,
        Vec::new(),
    )
    .expect("safety phase constructs a valid spec");
    Ok(Some(SafetyPhase {
        c0,
        f,
        includes_vacuous: include_vacuous,
    }))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use protoquot_spec::{compose, normalize, satisfies_safety, SpecBuilder};

    /// Service over {acc, del}; B is a relay that must be told (`fwd`)
    /// to move a message along: acc --> (needs fwd) --> del.
    pub(crate) fn relay_problem() -> (Spec, Spec, Alphabet) {
        let mut sb = SpecBuilder::new("S");
        let u0 = sb.state("u0");
        let u1 = sb.state("u1");
        sb.ext(u0, "acc", u1);
        sb.ext(u1, "del", u0);
        let service = sb.build().unwrap();

        let mut bb = SpecBuilder::new("B");
        let b0 = bb.state("b0");
        let b1 = bb.state("b1");
        let b2 = bb.state("b2");
        bb.ext(b0, "acc", b1);
        bb.ext(b1, "fwd", b2);
        bb.ext(b2, "del", b0);
        // A disruptive option: the converter could also trigger `dup`
        // which makes B deliver without a new accept — unsafe.
        let b3 = bb.state("b3");
        bb.ext(b2, "dup", b3);
        bb.ext(b3, "del", b2);
        let b = bb.build().unwrap();
        let int = Alphabet::from_names(["fwd", "dup"]);
        (service, b, int)
    }

    #[test]
    fn safety_phase_builds_safe_converter() {
        let (service, b, int) = relay_problem();
        let na = normalize(&service);
        let out = safety_phase(&b, &na, &int, false, SafetyLimits::default())
            .unwrap()
            .unwrap();
        // The converter must allow fwd but never dup (dup leads to
        // del.del which the service forbids).
        let dup = EventId::new("dup");
        for (_, e, _) in out.c0.external_transitions() {
            assert_ne!(e, dup, "unsafe event admitted: {:?}", out.c0);
        }
        // And B ‖ C0 must satisfy the service w.r.t. safety.
        let composite = compose(&b, &out.c0);
        assert!(satisfies_safety(&composite, &service).unwrap().is_ok());
    }

    #[test]
    fn safety_phase_fails_when_b_unconstrained() {
        // B can `del` immediately regardless of the converter.
        let mut sb = SpecBuilder::new("S");
        let u0 = sb.state("u0");
        let u1 = sb.state("u1");
        sb.ext(u0, "acc", u1);
        sb.ext(u1, "del", u0);
        let service = sb.build().unwrap();
        let mut bb = SpecBuilder::new("B");
        let b0 = bb.state("b0");
        bb.ext(b0, "del", b0);
        bb.event("acc");
        bb.event("m");
        let b = bb.build().unwrap();
        let int = Alphabet::from_names(["m"]);
        let err = safety_phase(
            &b,
            &normalize(&service),
            &int,
            false,
            SafetyLimits::default(),
        )
        .unwrap_err();
        assert_eq!(err.violation.event, EventId::new("del"));
    }

    #[test]
    fn vacuous_states_appear_only_when_requested() {
        let (service, b, int) = relay_problem();
        let na = normalize(&service);
        let lean = safety_phase(&b, &na, &int, false, SafetyLimits::default())
            .unwrap()
            .unwrap();
        let full = safety_phase(&b, &na, &int, true, SafetyLimits::default())
            .unwrap()
            .unwrap();
        assert!(lean.f.iter().all(|j| !j.is_empty()));
        assert!(full.f.iter().any(|j| j.is_empty()));
        assert!(full.c0.num_states() > lean.c0.num_states());
        // The vacuous absorbing state self-loops on every Int event.
        let vac = full
            .f
            .iter()
            .position(|j| j.is_empty())
            .map(|i| StateId(i as u32))
            .unwrap();
        assert_eq!(full.c0.external_from(vac).len(), int.len());
        for &(_, t) in full.c0.external_from(vac) {
            assert_eq!(t, vac);
        }
    }

    #[test]
    fn state_budget_respected() {
        let (service, b, int) = relay_problem();
        let na = normalize(&service);
        let out = safety_phase(&b, &na, &int, false, SafetyLimits { max_states: 1 }).unwrap();
        assert!(out.is_none());
    }

    /// A zero budget admits no states at all — not even the initial
    /// one (regression: the initial insertion used to bypass the
    /// check).
    #[test]
    fn zero_state_budget_admits_nothing() {
        let (service, b, int) = relay_problem();
        let na = normalize(&service);
        let out = safety_phase(&b, &na, &int, false, SafetyLimits { max_states: 0 }).unwrap();
        assert!(out.is_none());
        let out =
            safety_phase_reference(&b, &na, &int, false, SafetyLimits { max_states: 0 }).unwrap();
        assert!(out.is_none());
    }

    /// The budget boundary is exact, for both implementations: a budget
    /// of exactly the reachable state count succeeds, one less fails —
    /// and the failing run performs no insertion for the over-budget
    /// state (regression: the budget must be checked before `names` or
    /// any other per-state structure grows).
    #[test]
    fn state_budget_boundary_is_exact() {
        let (service, b, int) = relay_problem();
        let na = normalize(&service);
        for include_vacuous in [false, true] {
            let full = safety_phase(&b, &na, &int, include_vacuous, SafetyLimits::default())
                .unwrap()
                .unwrap();
            let n = full.c0.num_states();
            for run in [safety_phase, safety_phase_reference] {
                let exact = run(
                    &b,
                    &na,
                    &int,
                    include_vacuous,
                    SafetyLimits { max_states: n },
                )
                .unwrap()
                .expect("budget == reachable states must succeed");
                assert_eq!(exact.c0.num_states(), n);
                assert_eq!(exact.f.len(), n, "no phantom pair-set entry");
                let over = run(
                    &b,
                    &na,
                    &int,
                    include_vacuous,
                    SafetyLimits { max_states: n - 1 },
                )
                .unwrap();
                assert!(over.is_none(), "budget == n-1 must be exceeded");
                let none = run(
                    &b,
                    &na,
                    &int,
                    include_vacuous,
                    SafetyLimits { max_states: 0 },
                )
                .unwrap();
                assert!(none.is_none(), "budget 0 admits nothing");
            }
        }
    }
}
