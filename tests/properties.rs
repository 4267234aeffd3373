//! Property-based tests (proptest) on the core invariants:
//!
//! * algebraic laws of composition (commutativity/associativity up to
//!   bisimilarity on pairwise-disjoint-or-shared interfaces);
//! * normalization produces normal form and preserves the trace set
//!   and the satisfaction relation;
//! * minimization preserves bisimilarity;
//! * serde and speclang round-trips are exact;
//! * **every** quotient the solver derives on random problems passes
//!   independent verification, and every "no converter" answer is
//!   corroborated by the safety-only baseline or a genuine conflict;
//! * the verification of a converter, which checks each part's
//!   bisimulation minimum, gives the literal verdict and the reference
//!   witness on every mutant of the derived converter.

use proptest::prelude::*;
use protoquot_core::{
    converter_verdict, converter_verdict_reference, solve, solve_with, verify_converter,
    ProgressStrategy, QuotientError, QuotientOptions,
};
use protoquot_sim::redirect_transition;
use protoquot_spec::trace::traces_up_to;
use protoquot_spec::{
    bisimilar, compose, is_normal_form, minimize, normalize, satisfies, verify_system, Alphabet,
    CompiledSystem, Spec, SpecBuilder,
};

/// A random specification over up to `max_states` states and the given
/// event pool; `int_edges` controls internal-transition count.
fn arb_spec(
    name: &'static str,
    events: &'static [&'static str],
    max_states: usize,
) -> impl Strategy<Value = Spec> {
    let st = 1..=max_states;
    st.prop_flat_map(move |n| {
        let edge = (0..n, 0..events.len(), 0..n);
        let internal = (0..n, 0..n);
        (
            proptest::collection::vec(edge, 0..(3 * n + 1)),
            proptest::collection::vec(internal, 0..n),
        )
            .prop_map(move |(edges, internals)| {
                let mut b = SpecBuilder::new(name);
                let ids: Vec<_> = (0..n).map(|i| b.state(&format!("s{i}"))).collect();
                for (s, e, t) in edges {
                    b.ext(ids[s], events[e], ids[t]);
                }
                for (s, t) in internals {
                    b.int(ids[s], ids[t]);
                }
                for e in events {
                    b.event(e);
                }
                b.build().expect("random spec is valid")
            })
    })
}

const EV_A: &[&str] = &["pa", "pb", "pc"];
const EV_SHARED: &[&str] = &["pc", "pd"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn composition_is_commutative_up_to_bisimilarity(
        a in arb_spec("A", EV_A, 4),
        b in arb_spec("B", EV_SHARED, 4),
    ) {
        let ab = compose(&a, &b);
        let ba = compose(&b, &a);
        prop_assert!(bisimilar(&ab, &ba));
    }

    #[test]
    fn composition_with_empty_interface_is_interleaving_size(
        a in arb_spec("A", &["xa"], 4),
        b in arb_spec("B", &["xb"], 4),
    ) {
        // Disjoint alphabets: reachable product ≤ |A|·|B| states and the
        // alphabet is the union.
        let ab = compose(&a, &b);
        prop_assert!(ab.num_states() <= a.num_states() * b.num_states());
        prop_assert_eq!(ab.alphabet(), &a.alphabet().union(b.alphabet()));
    }

    #[test]
    fn normalization_yields_normal_form_and_preserves_traces(
        a in arb_spec("A", EV_A, 5),
    ) {
        let na = normalize(&a);
        prop_assert!(is_normal_form(na.spec()));
        let orig: std::collections::HashSet<_> =
            traces_up_to(&a, 4).into_iter().collect();
        let norm: std::collections::HashSet<_> =
            traces_up_to(na.spec(), 4).into_iter().collect();
        prop_assert_eq!(orig, norm);
    }

    #[test]
    fn normalization_preserves_satisfaction(
        a in arb_spec("A", EV_A, 4),
        b in arb_spec("B", EV_A, 4),
    ) {
        // B ⊨ A iff B ⊨ normalize(A).
        let na = normalize(&a);
        let direct = satisfies(&b, &a).unwrap();
        let via_norm = satisfies(&b, na.spec()).unwrap();
        prop_assert_eq!(direct.is_ok(), via_norm.is_ok());
    }

    #[test]
    fn minimization_preserves_bisimilarity_and_shrinks(
        a in arb_spec("A", EV_A, 5),
    ) {
        let m = minimize(&a);
        prop_assert!(bisimilar(&a, &m));
        prop_assert!(m.num_states() <= a.num_states());
        // Idempotent.
        let mm = minimize(&m);
        prop_assert_eq!(mm.num_states(), m.num_states());
    }

    #[test]
    fn serde_roundtrip_exact(a in arb_spec("A", EV_A, 5)) {
        let json = serde_json::to_string(&a).unwrap();
        let back: Spec = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn speclang_roundtrip_exact(a in arb_spec("A", EV_A, 5)) {
        let text = protoquot_speclang::print_spec(&a);
        let back = protoquot_speclang::parse_spec(&text).unwrap();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn sink_collapse_preserves_traces(a in arb_spec("A", EV_A, 5)) {
        let c = protoquot_spec::collapse_sinks(&a);
        let orig: std::collections::HashSet<_> =
            traces_up_to(&a, 4).into_iter().collect();
        let coll: std::collections::HashSet<_> =
            traces_up_to(&c, 4).into_iter().collect();
        prop_assert_eq!(orig, coll);
    }
}

/// Random quotient problems: B over {acc, del, m0, m1}, service over
/// {acc, del}. Whatever the solver answers must be consistent.
fn arb_quotient_problem() -> impl Strategy<Value = (Spec, Spec, Alphabet)> {
    let b = arb_spec("B", &["acc", "del", "m0", "m1"], 5);
    let a = arb_spec("A", &["acc", "del"], 3);
    (b, a).prop_map(|(b, a)| (b, a, Alphabet::from_names(["m0", "m1"])))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_derived_quotient_verifies((b, a, int) in arb_quotient_problem()) {
        match solve(&b, &a, &int) {
            Ok(q) => {
                prop_assert!(q.converter.is_internal_free());
                prop_assert_eq!(q.converter.alphabet(), &int);
                let v = verify_converter(&b, &a, &q.converter);
                prop_assert!(v.is_ok(), "verification failed: {:?}", v.err());
            }
            Err(QuotientError::NoSafeConverter { .. }) => {
                // Corroborate: the safety-only baseline agrees.
                prop_assert!(matches!(
                    protoquot_baselines::submodule_construction(&b, &a, &int),
                    Err(protoquot_baselines::SubmoduleError::NoSafeConverter)
                ));
            }
            Err(QuotientError::NoProgressingConverter { safety_output, .. }) => {
                // The safety output exists and is safe, but composing it
                // in does not satisfy the full service.
                let composite = compose(&b, &safety_output);
                prop_assert!(
                    protoquot_spec::satisfies_safety(&composite, &a).unwrap().is_ok()
                );
                prop_assert!(satisfies(&composite, &a).unwrap().is_err());
            }
            Err(QuotientError::BadProblem(e)) => {
                prop_assert!(false, "problem should be valid: {e}");
            }
            Err(QuotientError::StateBudgetExceeded { .. }) => {
                // Cannot happen at these sizes.
                prop_assert!(false, "budget exceeded on a tiny problem");
            }
        }
    }

    #[test]
    fn minimal_verdict_matches_the_literal((b, a, int) in arb_quotient_problem()) {
        // The derived converter, or the safety output progress emptied,
        // and every `redirect_transition` mutant of it.
        let c = match solve(&b, &a, &int) {
            Ok(q) => Some(q.converter),
            Err(QuotientError::NoProgressingConverter { safety_output, .. }) => Some(*safety_output),
            Err(_) => None,
        };
        let mutants = c.iter().flat_map(|c| {
            std::iter::once(c.clone()).chain((0..).map_while(|k| redirect_transition(c, k)))
        });
        for m in mutants {
            match (converter_verdict(&b, &a, &m), converter_verdict_reference(&b, &a, &m)) {
                (Ok(checked), Ok(reference)) => {
                    prop_assert_eq!(format!("{checked:?}"), format!("{reference:?}"));
                }
                (Err(checked), Err(reference)) => {
                    prop_assert_eq!(checked.to_string(), reference.to_string());
                }
                (checked, reference) => {
                    prop_assert!(false, "setup differs: {checked:?} vs {reference:?}");
                }
            }
            match (verify_system(&[&b, &m], &a), CompiledSystem::minimal(&[&b, &m], &a)) {
                (Ok(literal), Ok(minimal)) => prop_assert_eq!(
                    literal.verdict.is_ok(),
                    minimal.verify().verdict.is_ok()
                ),
                (Err(literal), Err(minimal)) => {
                    prop_assert_eq!(literal.to_string(), minimal.to_string());
                }
                _ => prop_assert!(false, "setup differs"),
            }
        }
    }

    #[test]
    fn progress_strategies_both_verify((b, a, int) in arb_quotient_problem()) {
        // The paper-exact full-product strategy and the reachable-product
        // refinement must agree on existence; both outputs (when they
        // exist) verify, and the refinement keeps at least as much.
        let full = solve(&b, &a, &int);
        let reach = solve_with(
            &b,
            &a,
            &int,
            &QuotientOptions {
                strategy: ProgressStrategy::ReachableProduct,
                ..Default::default()
            },
        );
        match (full, reach) {
            (Ok(qf), Ok(qr)) => {
                let vf = verify_converter(&b, &a, &qf.converter);
                let vr = verify_converter(&b, &a, &qr.converter);
                prop_assert!(vf.is_ok(), "full failed: {:?}", vf.err());
                prop_assert!(vr.is_ok(), "reachable failed: {:?}", vr.err());
                prop_assert!(qr.converter.num_states() >= qf.converter.num_states());
            }
            (Err(_), Err(_)) => {}
            (Ok(_), Err(e)) => {
                // The refinement can only keep more: this must not happen.
                prop_assert!(false, "reachable lost a converter full found: {e}");
            }
            (Err(_), Ok(qr)) => {
                // The refinement may find converters Fig. 6 discards —
                // they must still verify.
                let vr = verify_converter(&b, &a, &qr.converter);
                prop_assert!(vr.is_ok(), "extra reachable converter broken: {:?}", vr.err());
            }
        }
    }

    #[test]
    fn bounded_trace_inclusion_agrees_with_safety_checker(
        b in arb_spec("B", EV_A, 4),
        a in arb_spec("A", EV_A, 4),
    ) {
        // The efficient subset-product safety checker and the brute-force
        // bounded enumerator agree (on the bounded horizon).
        let fast = protoquot_spec::satisfies_safety(&b, &a).unwrap();
        let brute = protoquot_spec::trace::bounded_trace_inclusion(&b, &a, 5);
        match (fast, brute) {
            (Ok(()), Some(cex)) => {
                prop_assert!(
                    false,
                    "checker said safe but {:?} is a counterexample",
                    cex.iter().map(|e| e.name()).collect::<Vec<_>>()
                );
            }
            (Err(protoquot_spec::Violation::Safety { trace }), None) => {
                // The violation must simply be longer than the horizon.
                prop_assert!(trace.len() > 5, "short violation missed by enumerator");
            }
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The hand-rolled JSON writer in `spec::serde_impl::to_json`
    /// produces exactly what serde_json would parse back to the same
    /// machine.
    #[test]
    fn hand_rolled_json_parses_with_serde_json(a in arb_spec("A", EV_A, 5)) {
        let hand = protoquot_spec::serde_impl::to_json(&a);
        let back: Spec = serde_json::from_str(&hand).unwrap();
        prop_assert_eq!(back, a);
    }

    /// `satisfies_safety` is a preorder: reflexive and transitive
    /// (trace inclusion).
    #[test]
    fn safety_satisfaction_is_a_preorder(
        a in arb_spec("A", EV_A, 4),
        b in arb_spec("B", EV_A, 4),
        c in arb_spec("C", EV_A, 4),
    ) {
        let holds = |x: &Spec, y: &Spec| {
            matches!(protoquot_spec::satisfies_safety(x, y), Ok(Ok(())))
        };
        prop_assert!(holds(&a, &a));
        if holds(&c, &b) && holds(&b, &a) {
            prop_assert!(holds(&c, &a), "transitivity failed");
        }
    }

    /// Determinization commutes with trace semantics under composition
    /// with a disjoint partner: det(A) ‖ P and A ‖ P have equal trace
    /// sets.
    #[test]
    fn determinize_stable_under_disjoint_composition(
        a in arb_spec("A", EV_A, 4),
        p in arb_spec("P", &["zq"], 3),
    ) {
        let lhs = compose(&protoquot_spec::determinize(&a), &p);
        let rhs = compose(&a, &p);
        prop_assert!(protoquot_spec::language_equal(&lhs, &rhs));
    }
}
