//! Differential test for the interned safety engine: on every
//! benchmark-family instance, a sweep of random components and both
//! paper §5 configurations, the engine must produce a **bit-identical**
//! [`protoquot_core::SafetyPhase`] — same `c0` (state names included:
//! the engine's ids are the reference's FIFO discovery order), same `f`
//! pair sets, same transition order — as the direct Figure 5
//! transcription (`safety_phase_reference`). Its counters are pinned on
//! nfa-blowup(1..11).

use protoquot_core::{safety_engine, safety_phase_reference, SafetyLimits};
use protoquot_protocols::{
    colocated_configuration, exactly_once, nfa_blowup, random_component, relay_chain,
    symmetric_configuration, toggle_puzzle, windowed, RandomParams,
};
use protoquot_spec::{normalize, Alphabet, Spec};

/// Runs the engine against the reference on one problem and asserts
/// bit-identical output. Returns false when the
/// problem has no safe converter or exceeds the budget — in which case
/// the engine must agree on *that* too (callers count covered
/// instances).
fn engines_agree(label: &str, b: &Spec, service: &Spec, int: &Alphabet) -> bool {
    let na = normalize(service);
    let mut covered = false;
    for include_vacuous in [false, true] {
        let reference =
            safety_phase_reference(b, &na, int, include_vacuous, SafetyLimits::default());
        covered |= !include_vacuous && matches!(reference, Ok(Some(_)));
        let engine = safety_engine(b, &na, int, include_vacuous, SafetyLimits::default(), 1);
        match (&reference, &engine) {
            (Ok(Some(r)), Ok(Some(e))) => {
                assert_eq!(
                    e.phase.c0, r.c0,
                    "{label} / vacuous={include_vacuous}: C0 differs"
                );
                assert_eq!(
                    e.phase.f, r.f,
                    "{label} / vacuous={include_vacuous}: f differs"
                );
                assert_eq!(e.phase.includes_vacuous, r.includes_vacuous);
                // The spec compares transitions as sets, but the engine must
                // also keep the reference's transition order, so compare the
                // enumerations directly.
                let rt: Vec<_> = r.c0.external_transitions().collect();
                let et: Vec<_> = e.phase.c0.external_transitions().collect();
                assert_eq!(
                    et, rt,
                    "{label} / vacuous={include_vacuous}: \
                     transition order differs"
                );
                // And the names really are the canonical c0..cN.
                for (i, s) in r.c0.states().enumerate() {
                    assert_eq!(e.phase.c0.state_name(s), format!("c{i}"));
                }
                assert_eq!(e.stats.states, r.c0.num_states());
                assert_eq!(e.stats.transitions, r.c0.num_external());
                assert_eq!(
                    e.stats.dedup_hits,
                    e.stats.transitions - (e.stats.states - 1),
                    "{label}: every transition but a new state's is a dedup hit"
                );
            }
            (Ok(None), Ok(None)) => {}
            (Err(r), Err(e)) => {
                assert_eq!(e.violation.event, r.violation.event, "{label}");
                assert_eq!(e.violation.hub, r.violation.hub, "{label}");
                assert_eq!(e.violation.b_state, r.violation.b_state, "{label}");
            }
            (r, e) => panic!(
                "{label} / vacuous={include_vacuous}: outcome \
                 shape differs (reference ok={:?}, engine ok={:?})",
                r.is_ok(),
                e.is_ok()
            ),
        }
    }
    covered
}

#[test]
fn engines_agree_on_scaling_families() {
    let service = exactly_once();
    for n in [1usize, 2, 3, 5, 8, 12] {
        let (b, int) = relay_chain(n);
        assert!(engines_agree(
            &format!("relay-chain({n})"),
            &b,
            &service,
            &int
        ));
    }
    for n in [1usize, 2, 3, 4, 5] {
        let (b, int) = toggle_puzzle(n);
        assert!(engines_agree(
            &format!("toggle-puzzle({n})"),
            &b,
            &service,
            &int
        ));
    }
    for n in [1usize, 3, 5, 7, 9] {
        let (b, int) = nfa_blowup(n);
        assert!(engines_agree(
            &format!("nfa-blowup({n})"),
            &b,
            &service,
            &int
        ));
    }
    // Windowed services exercise multi-hub normal forms.
    for w in [1usize, 2, 3] {
        let (b, int) = relay_chain(2 * w + 2);
        assert!(engines_agree(
            &format!("relay-chain/windowed({w})"),
            &b,
            &windowed(w),
            &int
        ));
    }
}

#[test]
fn engines_agree_on_random_components() {
    let service = exactly_once();
    let mut covered = 0usize;
    for seed in 0..40u64 {
        let (b, int) = random_component(seed, RandomParams::default());
        if engines_agree(&format!("random({seed})"), &b, &service, &int) {
            covered += 1;
        }
    }
    assert!(
        covered >= 5,
        "too few random instances pass the safety phase ({covered}/40)"
    );
}

#[test]
fn engines_agree_on_paper_configurations() {
    let service = exactly_once();
    let colocated = colocated_configuration();
    assert!(engines_agree(
        "paper/colocated",
        &colocated.b,
        &service,
        &colocated.int
    ));
    let sym = symmetric_configuration();
    assert!(engines_agree("paper/symmetric", &sym.b, &service, &sym.int));
}

#[test]
fn engines_agree_at_tight_budgets() {
    // Sweep budgets through the boundary on an instance with a
    // non-trivial quotient: both implementations must flip from
    // `Ok(None)` to `Ok(Some)` at exactly the same budget.
    let service = exactly_once();
    let (b, int) = nfa_blowup(4);
    let na = normalize(&service);
    let full = safety_phase_reference(&b, &na, &int, false, SafetyLimits::default())
        .unwrap()
        .unwrap();
    let n = full.c0.num_states();
    for max_states in [0, 1, n - 1, n, n + 1] {
        let reference =
            safety_phase_reference(&b, &na, &int, false, SafetyLimits { max_states }).unwrap();
        let engine = safety_engine(&b, &na, &int, false, SafetyLimits { max_states }, 1).unwrap();
        assert_eq!(engine.is_some(), reference.is_some(), "budget {max_states}");
        if let (Some(e), Some(r)) = (&engine, &reference) {
            assert_eq!(e.phase.c0, r.c0, "budget {max_states}");
        }
    }
}

/// Safety-engine counters on nfa-blowup(n), n = 1..=11:
/// `(states, transitions, dedup_hits, arena_bytes)`, with or without
/// vacuous states (the family has none).
const NFA_BLOWUP_SAFETY: [(usize, usize, usize, usize); 11] = [
    (3, 6, 4, 24),
    (5, 10, 6, 48),
    (9, 18, 10, 104),
    (17, 34, 18, 232),
    (33, 66, 34, 520),
    (65, 130, 66, 1160),
    (129, 258, 130, 2568),
    (257, 514, 258, 5640),
    (513, 1026, 514, 12296),
    (1025, 2050, 1026, 26632),
    (2049, 4098, 2050, 57352),
];

#[test]
fn engine_counters_are_pinned_on_nfa_blowup() {
    let na = normalize(&exactly_once());
    for (i, &pinned) in NFA_BLOWUP_SAFETY.iter().enumerate() {
        let (b, int) = nfa_blowup(i + 1);
        for include_vacuous in [false, true] {
            let s = safety_engine(&b, &na, &int, include_vacuous, SafetyLimits::default(), 1)
                .unwrap()
                .unwrap()
                .stats;
            assert_eq!(
                (s.states, s.transitions, s.dedup_hits, s.arena_bytes),
                pinned,
                "nfa-blowup({}) / vacuous={include_vacuous}",
                i + 1
            );
            assert_eq!(s.dedup_hits, s.transitions - (s.states - 1));
        }
    }
}
