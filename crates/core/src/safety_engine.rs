//! The interned exploration engine for the safety phase.
//!
//! Same Figure 5 construction as [`crate::safety::safety_phase_reference`],
//! run as one loop over the [`SubsetKernel`] that also builds the
//! service's normal form and the runtime guard DFA:
//!
//! * **Dense pair indices.** A pair `(a, b)` becomes the integer
//!   `a·|B| + b`, so a pair set is a sorted `u32` slice instead of a
//!   `Vec<(usize, StateId)>`. The encoding preserves the canonical
//!   `(hub, b_state)` lexicographic order, so an interned set converts
//!   back to an equal [`PairSet`] by plain division.
//! * **Precomputed pair-step graph.** The `ok` flag, the closure
//!   successors (internal B-moves plus ψ-tracked `Ext` moves) and the
//!   `Int`-labelled step edges of every pair are computed once, as two
//!   CSR graphs. Each state's `φ` images then come from one bucketed
//!   pass over its pairs' step edges, and each image is closed with the
//!   kernel's flag-reset BFS, which aborts at the first pair that is not
//!   `ok`.
//! * **FIFO by id.** The kernel hands out ids in first-intern order, so
//!   expanding ids `0, 1, 2, …` is exactly the reference's FIFO
//!   worklist: states, names and transitions come out in its order with
//!   no queue and no renumbering.
//!
//! `tests/safety_differential.rs` checks that equivalence against the
//! reference across every benchmark family.

use crate::pairset::{h_epsilon, PairSet};
use crate::safety::{SafetyFailure, SafetyLimits, SafetyPhase};
use protoquot_spec::{
    spec_from_parts, Alphabet, Csr, EventId, NormalSpec, Spec, StateId, SubsetKernel,
};
use std::collections::HashMap;

/// Counters describing one engine run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SafetyEngineStats {
    /// Distinct converter states explored (and kept).
    pub states: usize,
    /// Transitions of the resulting `C0`.
    pub transitions: usize,
    /// Intern calls that found an already-interned pair set.
    pub dedup_hits: usize,
    /// Payload bytes held by the interned-set arena.
    pub arena_bytes: usize,
}

/// A [`SafetyPhase`] plus the engine counters that produced it.
#[derive(Clone, Debug)]
pub struct SafetyEngineOutput {
    /// The safety-phase result, bit-identical to the reference's.
    pub phase: SafetyPhase,
    /// Run statistics.
    pub stats: SafetyEngineStats,
}

/// The pair-step graph over dense pair indices `hub·|B| + b`.
struct PairGraph {
    /// Per pair: does `ok` hold (no `Ext` move leaves ψ undefined)?
    ok: Vec<bool>,
    /// Closure edges (internal B-moves + tracked `Ext` moves); a pair
    /// that is not `ok` has none.
    closure_off: Vec<u32>,
    closure_tgt: Vec<u32>,
    /// Step edges (B performing an `Int` event), labelled by the
    /// event's position in the interface.
    step_off: Vec<u32>,
    step_ev: Vec<u32>,
    step_tgt: Vec<u32>,
}

impl PairGraph {
    fn new(b: &Spec, na: &NormalSpec, int_events: &[EventId], ext: &Alphabet) -> PairGraph {
        let nb = b.num_states();
        let int_index: HashMap<EventId, u32> = int_events
            .iter()
            .enumerate()
            .map(|(i, &e)| (e, i as u32))
            .collect();
        let mut g = PairGraph {
            ok: Vec::new(),
            closure_off: vec![0],
            closure_tgt: Vec::new(),
            step_off: vec![0],
            step_ev: Vec::new(),
            step_tgt: Vec::new(),
        };
        for hub in 0..na.num_hubs() {
            for bi in 0..nb {
                let bs = StateId(bi as u32);
                let start = g.closure_tgt.len();
                let mut ok = true;
                for &t in b.internal_from(bs) {
                    g.closure_tgt.push((hub * nb + t.index()) as u32);
                }
                for &(e, t) in b.external_from(bs) {
                    if let Some(&ei) = int_index.get(&e) {
                        g.step_ev.push(ei);
                        g.step_tgt.push((hub * nb + t.index()) as u32);
                    } else if ext.contains(e) {
                        match na.step(hub, e) {
                            Some(h2) => g.closure_tgt.push((h2 * nb + t.index()) as u32),
                            None => ok = false,
                        }
                    }
                }
                if !ok {
                    // A bad pair aborts any closure that reaches it; its
                    // outgoing edges are never walked.
                    g.closure_tgt.truncate(start);
                }
                g.ok.push(ok);
                g.closure_off.push(g.closure_tgt.len() as u32);
                g.step_off.push(g.step_tgt.len() as u32);
            }
        }
        g
    }
}

/// Runs the Figure 5 construction.
///
/// Arguments are as for [`crate::safety::safety_phase`]; the result is
/// bit-identical to [`crate::safety::safety_phase_reference`] (state
/// names, transition order, `f` — everything). `threads` is ignored:
/// the construction runs on the calling thread.
///
/// Returns `Err` iff no safe converter exists, `Ok(None)` if the state
/// budget was exceeded.
pub fn safety_engine(
    b: &Spec,
    na: &NormalSpec,
    int: &Alphabet,
    include_vacuous: bool,
    limits: SafetyLimits,
    _threads: usize,
) -> Result<Option<SafetyEngineOutput>, SafetyFailure> {
    let ext = b.alphabet().difference(int);
    // `h.ε` — computed by the same routine the reference uses, so an
    // initial `ok` failure reports the identical violation.
    let h0 = h_epsilon(na, b, &ext).map_err(|violation| SafetyFailure { violation })?;

    let int_events: Vec<EventId> = int.iter().collect();
    let nb = b.num_states();
    let g = PairGraph::new(b, na, &int_events, &ext);
    let step = Csr {
        off: &g.step_off,
        ev: &g.step_ev,
        tgt: &g.step_tgt,
    };
    let closure = Csr {
        off: &g.closure_off,
        ev: &[],
        tgt: &g.closure_tgt,
    };

    // The budget covers every state including `h.ε`: a zero budget
    // admits nothing.
    let mut sets = SubsetKernel::new(g.ok.len(), int_events.len(), limits.max_states);
    let h0: Vec<u32> = h0
        .iter()
        .map(|(hub, bs)| (hub * nb + bs.index()) as u32)
        .collect();
    if sets.intern(&h0).is_none() {
        return Ok(None);
    }

    let mut transitions = Vec::new();
    let mut next = Vec::new();
    let mut id = 0u32;
    while (id as usize) < sets.len() {
        sets.expand(id, step);
        for (ei, &e) in int_events.iter().enumerate() {
            if !sets.step(ei, closure, |p| !g.ok[p as usize], &mut next) {
                continue; // not ok: omit the transition
            }
            if next.is_empty() && !include_vacuous {
                continue;
            }
            let Some((to, _)) = sets.intern(&next) else {
                return Ok(None);
            };
            transitions.push((StateId(id), e, StateId(to)));
        }
        id += 1;
    }

    let n = sets.len();
    let f = (0..n as u32)
        .map(|i| {
            PairSet::from_pairs(
                sets.get(i)
                    .iter()
                    .map(|&p| (p as usize / nb, StateId(p % nb as u32))),
            )
        })
        .collect();
    let stats = SafetyEngineStats {
        states: n,
        transitions: transitions.len(),
        dedup_hits: sets.dedup_hits(),
        arena_bytes: sets.key_bytes(),
    };
    let c0 = spec_from_parts(
        "C0".to_owned(),
        int.clone(),
        (0..n).map(|i| format!("c{i}")).collect(),
        StateId(0),
        transitions,
        Vec::new(),
    )
    .expect("safety engine constructs a valid spec");
    Ok(Some(SafetyEngineOutput {
        phase: SafetyPhase {
            c0,
            f,
            includes_vacuous: include_vacuous,
        },
        stats,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::safety::safety_phase_reference;
    use crate::safety::tests::relay_problem;
    use protoquot_spec::{normalize, SpecBuilder};

    #[test]
    fn engine_matches_reference_bit_for_bit() {
        let (service, b, int) = relay_problem();
        let na = normalize(&service);
        for include_vacuous in [false, true] {
            let reference =
                safety_phase_reference(&b, &na, &int, include_vacuous, SafetyLimits::default())
                    .unwrap()
                    .unwrap();
            let out = safety_engine(&b, &na, &int, include_vacuous, SafetyLimits::default(), 1)
                .unwrap()
                .unwrap();
            assert_eq!(out.phase.c0, reference.c0);
            assert_eq!(out.phase.f, reference.f);
            assert_eq!(out.phase.includes_vacuous, reference.includes_vacuous);
        }
    }

    #[test]
    fn stats_are_consistent() {
        let (service, b, int) = relay_problem();
        let na = normalize(&service);
        let one = safety_engine(&b, &na, &int, true, SafetyLimits::default(), 1)
            .unwrap()
            .unwrap();
        assert_eq!(one.stats.states, one.phase.c0.num_states());
        assert_eq!(one.stats.transitions, one.phase.c0.num_external());
        // Every interned pair set but the (possibly empty) vacuous one
        // holds at least one u32.
        assert!(one.stats.arena_bytes >= 4 * (one.stats.states - 1));
        // Each transition is one intern call; all calls beyond the
        // n - 1 that created states were dedup hits.
        assert_eq!(
            one.stats.dedup_hits,
            one.stats.transitions - (one.stats.states - 1)
        );
    }

    #[test]
    fn failure_reports_same_violation_as_reference() {
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
        let na = normalize(&service);
        let engine = safety_engine(&b, &na, &int, false, SafetyLimits::default(), 1).unwrap_err();
        let reference =
            safety_phase_reference(&b, &na, &int, false, SafetyLimits::default()).unwrap_err();
        assert_eq!(engine.violation.event, reference.violation.event);
        assert_eq!(engine.violation.hub, reference.violation.hub);
        assert_eq!(engine.violation.b_state, reference.violation.b_state);
    }
}
