//! Differential test for the incremental progress engine: on every
//! benchmark-family instance and both paper §5 configurations, under
//! both strategies and with and without vacuous converter states, the
//! incremental fixpoint must produce a state-for-state identical
//! converter — and identical iteration, removal, and witness data — to
//! the retained full-recompute reference implementation
//! (`progress_phase_reference_with`).
//!
//! The engine works on the reachable product `B ‖ C0` only, so it also
//! has to stay exact and bounded when `|S_B| · |S_C0|` is far beyond
//! what the reference's full grid can hold.

use protoquot_core::{
    progress_phase_reference_with, progress_phase_with, safety_phase, PairSet, ProgressPhase,
    ProgressStrategy, SafetyLimits, SafetyPhase,
};
use protoquot_protocols::{
    colocated_configuration, exactly_once, nfa_blowup, random_component, relay_chain,
    symmetric_configuration, toggle_puzzle, windowed, RandomParams,
};
use protoquot_spec::{normalize, spec_from_parts, verify_system, Alphabet, Spec};

const STRATEGIES: [ProgressStrategy; 2] = [
    ProgressStrategy::FullProduct,
    ProgressStrategy::ReachableProduct,
];

/// Asserts that two progress runs agree on everything the reference
/// reports: converter, iteration and removal counts, and witness.
fn assert_same_outcome(label: &str, old: &ProgressPhase, new: &ProgressPhase) {
    assert_eq!(old.converter, new.converter, "{label}: converters differ");
    assert_eq!(
        old.iterations, new.iterations,
        "{label}: iteration counts differ"
    );
    assert_eq!(old.removed, new.removed, "{label}: removal counts differ");
    match (&old.first_witness, &new.first_witness) {
        (None, None) => {}
        (Some(a), Some(c)) => {
            assert_eq!(a.state, c.state, "{label}: witness state");
            assert_eq!(a.trace, c.trace, "{label}: witness trace");
            assert_eq!(a.hub, c.hub, "{label}: witness hub");
            assert_eq!(a.b_state, c.b_state, "{label}: witness B state");
            assert_eq!(a.needed, c.needed, "{label}: witness needs");
            assert_eq!(a.offered, c.offered, "{label}: witness offer");
        }
        (a, c) => panic!(
            "{label}: witness presence differs (reference {:?}, incremental {:?})",
            a.is_some(),
            c.is_some()
        ),
    }
}

/// Runs both engines on one quotient problem and asserts equality of
/// everything observable. Returns false when the safety phase yields
/// no `C0` to run progress on (callers count covered instances).
fn engines_agree(label: &str, b: &Spec, service: &Spec, int: &Alphabet) -> bool {
    let na = normalize(service);
    for include_vacuous in [false, true] {
        let safety = match safety_phase(b, &na, int, include_vacuous, SafetyLimits::default()) {
            Ok(Some(s)) => s,
            _ => return false, // unsafe or over budget: no progress phase
        };
        for strategy in STRATEGIES {
            assert_same_outcome(
                &format!("{label} / {strategy:?} / vacuous {include_vacuous}"),
                &progress_phase_reference_with(b, &na, &safety, strategy),
                &progress_phase_with(b, &na, &safety, strategy),
            );
        }
    }
    true
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
    // Windowed services drive multi-iteration fixpoints on the relay.
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
    // Figure 14: converter exists. Figure 12 (symmetric): safety
    // succeeds but progress empties the converter, exercising the
    // witness and the removed-initial-state path.
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

/// The engine's product is the reachable `B ‖ C0`: the first τ* pass
/// covers all of it, and where progress removes nothing it is the very
/// composite the verify engine checks for `B ‖ C`.
#[test]
fn progress_product_is_the_reachable_composite() {
    let service = exactly_once();
    let na = normalize(&service);
    let mut untouched = 0;
    for n in 1..=11 {
        let (b, int) = nfa_blowup(n);
        let safety = safety_phase(&b, &na, &int, false, SafetyLimits::default())
            .unwrap()
            .unwrap();
        let p = progress_phase_with(&b, &na, &safety, ProgressStrategy::FullProduct);
        assert_eq!(
            p.stats.slice_sizes[0], p.stats.product_nodes,
            "nfa-blowup({n}): first pass covers the product"
        );
        if p.removed == 0 {
            untouched += 1;
            let converter = p.converter.expect("nothing removed: a converter");
            let verdict = verify_system(&[&b, &converter], &service).unwrap();
            assert_eq!(
                p.stats.product_nodes, verdict.stats.states,
                "nfa-blowup({n}): progress product vs verified composite"
            );
        }
    }
    assert!(untouched > 0, "no instance kept its whole C0");
}

/// `spec` with `extra` unreachable, transition-free states appended.
fn pad(spec: &Spec, extra: usize) -> Spec {
    let names = spec
        .states()
        .map(|s| spec.state_name(s).to_owned())
        .chain((0..extra).map(|i| format!("pad{i}")))
        .collect();
    spec_from_parts(
        spec.name().to_owned(),
        spec.alphabet().clone(),
        names,
        spec.initial(),
        spec.external_transitions().collect(),
        spec.internal_transitions().collect(),
    )
    .unwrap()
}

/// Padding `B` and `C0` with unreachable states until `|S_B| · |S_C0|`
/// leaves the `u32` range changes nothing: the progress phase only ever
/// builds the reachable product. (The reference is not run here: its
/// grid is exactly what this size rules out.)
#[test]
fn unreachable_padding_past_u32_grid_changes_nothing() {
    let service = exactly_once();
    let na = normalize(&service);
    let cfg = colocated_configuration();
    let safety = safety_phase(&cfg.b, &na, &cfg.int, false, SafetyLimits::default())
        .unwrap()
        .unwrap();

    let side = 1usize << 16;
    let b = pad(&cfg.b, side - cfg.b.num_states());
    let padded_safety = safety_phase(&b, &na, &cfg.int, false, SafetyLimits::default())
        .unwrap()
        .unwrap();
    assert_eq!(padded_safety.c0, safety.c0, "B's padding is unreachable");
    let nc = safety.c0.num_states();
    let mut f = padded_safety.f;
    f.resize(side, PairSet::empty());
    let padded_safety = SafetyPhase {
        c0: pad(&padded_safety.c0, side - nc),
        f,
        includes_vacuous: false,
    };
    assert!(b.num_states() * padded_safety.c0.num_states() >= 1 << 32);

    for strategy in STRATEGIES {
        let plain = progress_phase_with(&cfg.b, &na, &safety, strategy);
        let padded = progress_phase_with(&b, &na, &padded_safety, strategy);
        let label = format!("padded colocated / {strategy:?}");
        assert!(plain.removed > 0, "{label}: the fixture exercises removal");
        assert_same_outcome(&label, &plain, &padded);
        assert_eq!(plain.stats, padded.stats, "{label}: engine counters");
        // Each later pass covers only the backward slice of the round's
        // removals (a full recompute per round would agree on all else).
        assert_eq!(
            plain.stats.slice_sizes,
            [176, 82, 35, 11],
            "{label}: τ* slices"
        );
    }
}
