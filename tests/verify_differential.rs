//! Differential test for the compiled verification engine: on every
//! benchmark-family instance, a sweep of random components, both paper
//! §5 configurations and the AB↔NAK gateway, one
//! [`protoquot_spec::CompiledSystem`] — compiled once, as registry
//! admission reuses the guard's — must verify **bit-identically** to
//! the retained reference oracle
//! ([`protoquot_core::converter_verdict_reference`] = pairwise
//! `compose` + interpreted `satisfies`): same verdict shape, same
//! witness trace event-for-event, same `Progress` state/needed/offered
//! contents. Its size counters must match the reference composite, and
//! on nfa-blowup(1..11) the engine and guard counters are pinned.
//!
//! The n-way composition the engine explores is pinned too:
//! [`protoquot_spec::compose_all_nway`] must equal the reference
//! `compose_all` fold state for state (names, adjacency, initial state)
//! on random components and on 3- and 4-component relay chains, with
//! the tuple index on both sides of [`protoquot_spec::DENSE_TUPLE_SLOTS`].
//! So are the compiled τ* rows: every composite state's row must equal
//! the reference [`protoquot_spec::Closures`] τ* of the materialized
//! `compose_all` composite.
//!
//! The derive path's check, `converter_verdict_with`, verifies each
//! part's bisimulation minimum ([`protoquot_spec::CompiledSystem::minimal`])
//! and walks the literal parts only on failure. On every
//! `redirect_transition` mutant of the builtins' and nfa-blowup(1..8)'s
//! derived converters it must give the literal `Ok`/`Err`, setup error
//! and counters, and on `Err` the reference's witness.

use protoquot_core::{converter_verdict_reference, converter_verdict_with, solve, QuotientError};
use protoquot_protocols::{
    ab_to_nak_configuration, at_least_once, colocated_configuration, exactly_once, nfa_blowup,
    random_component, relay_chain, symmetric_configuration, toggle_puzzle, windowed, Configuration,
    RandomParams,
};
use protoquot_runtime::GuardProgram;
use protoquot_sim::redirect_transition;
use protoquot_spec::{
    compose, compose_all, compose_all_nway, minimize, verify_system, Alphabet, Closures,
    CompiledSystem, Spec, SpecBuilder, StateId, Violation, DENSE_TUPLE_SLOTS,
};

/// A converter over `int` that declares every interface event but
/// enables none: composing it with `B` freezes all interaction on
/// `Int`, which typically manifests as a progress violation — a cheap
/// way to drive every problem instance down the violation path.
fn stuck_converter(int: &Alphabet) -> Spec {
    let mut cb = SpecBuilder::new("stuck");
    cb.state("c0");
    for e in int.iter() {
        cb.event(&e.name());
    }
    cb.build().expect("stuck converter is well-formed")
}

/// Rebuilds `c` without its last external transition (same states,
/// same alphabet): a minimal mutation that keeps the interface intact
/// while usually breaking satisfaction somewhere deep in the product.
fn drop_last_transition(c: &Spec) -> Spec {
    let edges: Vec<_> = c.external_transitions().collect();
    let mut cb = SpecBuilder::new("mutant");
    let ids: Vec<_> = c.states().map(|s| cb.state(c.state_name(s))).collect();
    for e in c.alphabet().iter() {
        cb.event(&e.name());
    }
    for &(f, e, t) in &edges[..edges.len().saturating_sub(1)] {
        cb.ext(ids[f.index()], &e.name(), ids[t.index()]);
    }
    for (f, t) in c.internal_transitions() {
        cb.int(ids[f.index()], ids[t.index()]);
    }
    cb.initial(ids[c.initial().index()]);
    cb.build().expect("mutant converter is well-formed")
}

fn assert_violation_eq(label: &str, r: &Violation, e: &Violation) {
    match (r, e) {
        (Violation::Safety { trace: rt }, Violation::Safety { trace: et }) => {
            assert_eq!(et, rt, "{label}: safety witness differs");
        }
        (
            Violation::Progress {
                trace: rt,
                state: rs,
                needed: rn,
                offered: ro,
            },
            Violation::Progress {
                trace: et,
                state: es,
                needed: en,
                offered: eo,
            },
        ) => {
            assert_eq!(et, rt, "{label}: progress trace differs");
            assert_eq!(es, rs, "{label}: progress state differs");
            assert_eq!(en, rn, "{label}: needed sets differ");
            assert_eq!(eo, ro, "{label}: offered set differs");
        }
        _ => panic!("{label}: violation kind differs (reference {r:?}, engine {e:?})"),
    }
}

/// Runs the engine against the reference on one `(B, A, C)` problem:
/// the [`CompiledSystem`] must give a bit-identical verdict, and its
/// composite counters must match the materialized reference composite.
/// Returns true when the converter actually works (callers count
/// coverage of the `Ok` path).
fn verdicts_agree(label: &str, b: &Spec, service: &Spec, converter: &Spec) -> bool {
    let reference = converter_verdict_reference(b, service, converter);
    let (system, reference) = match (CompiledSystem::new(&[b, converter], service), &reference) {
        (Ok(system), Ok(reference)) => (system, reference),
        (Err(e), Err(r)) => {
            assert_eq!(e.to_string(), r.to_string(), "{label}: setup error differs");
            return false;
        }
        (e, r) => panic!(
            "{label}: outcome shape differs (reference ok={:?}, engine ok={:?})",
            r.is_ok(),
            e.is_ok()
        ),
    };
    let engine = system.verify();
    match (reference, &engine.verdict) {
        (Ok(()), Ok(())) => {}
        (Err(rv), Err(ev)) => assert_violation_eq(label, rv, ev),
        (r, e) => panic!("{label}: verdict differs (reference {r:?}, engine {e:?})"),
    }
    let composite = compose(b, converter);
    assert_eq!(
        engine.stats.states,
        composite.num_states(),
        "{label}: states"
    );
    assert_eq!(
        engine.stats.transitions,
        composite.num_external() + composite.num_internal(),
        "{label}: transitions"
    );
    reference.is_ok()
}

/// Exercises one quotient problem end to end: the derived converter
/// (when one exists), a mutated variant of it, and the always-stuck
/// converter. Returns true when a converter was derived.
fn problem_agrees(label: &str, b: &Spec, service: &Spec, int: &Alphabet) -> bool {
    let derived = solve(b, service, int).ok().map(|q| q.converter);
    if let Some(c) = &derived {
        assert!(
            verdicts_agree(&format!("{label}/derived"), b, service, c),
            "{label}: derived converter must verify"
        );
        if c.external_transitions().next().is_some() {
            let mutant = drop_last_transition(c);
            verdicts_agree(&format!("{label}/mutant"), b, service, &mutant);
        }
    }
    verdicts_agree(&format!("{label}/stuck"), b, service, &stuck_converter(int));
    derived.is_some()
}

#[test]
fn engine_agrees_on_scaling_families() {
    let service = exactly_once();
    for n in [1usize, 2, 3, 5, 8, 12] {
        let (b, int) = relay_chain(n);
        problem_agrees(&format!("relay-chain({n})"), &b, &service, &int);
    }
    for n in [1usize, 2, 3, 4, 5] {
        let (b, int) = toggle_puzzle(n);
        problem_agrees(&format!("toggle-puzzle({n})"), &b, &service, &int);
    }
    for n in [1usize, 3, 5, 7, 9] {
        let (b, int) = nfa_blowup(n);
        problem_agrees(&format!("nfa-blowup({n})"), &b, &service, &int);
    }
    // Windowed services exercise multi-hub normal forms and multi-set
    // acceptance in the progress scan.
    for w in [1usize, 2, 3] {
        let (b, int) = relay_chain(2 * w + 2);
        problem_agrees(
            &format!("relay-chain/windowed({w})"),
            &b,
            &windowed(w),
            &int,
        );
    }
}

#[test]
fn engine_agrees_on_random_components() {
    // Random components are deadlock-prone enough that none of the 40
    // seeds admits a full converter (the safety-differential sweep only
    // requires the *safety phase* to succeed), so the coverage bar here
    // is that every seed reaches a definite verdict: the stuck-converter
    // product must be fully explored — composition, normalization,
    // progress scan — and both implementations must report the same
    // violation bit for bit.
    let service = exactly_once();
    let mut definite = 0usize;
    for seed in 0..40u64 {
        let (b, int) = random_component(seed, RandomParams::default());
        problem_agrees(&format!("random({seed})"), &b, &service, &int);
        let stuck = stuck_converter(&int);
        if matches!(
            converter_verdict_reference(&b, &service, &stuck),
            Ok(Err(_))
        ) {
            definite += 1;
        }
    }
    assert_eq!(
        definite, 40,
        "every random instance must reach a definite verdict"
    );
}

#[test]
fn engine_agrees_on_paper_configurations() {
    let service = exactly_once();
    let colocated = colocated_configuration();
    assert!(
        problem_agrees("paper/colocated", &colocated.b, &service, &colocated.int),
        "the co-located configuration has a converter (paper Fig. 14)"
    );

    // The Fig. 14 hand-derived converter: the EXP-MAX verified-converter
    // check that `report --quick` times as `verify_ms`.
    let mut cb = SpecBuilder::new("hand");
    let s: Vec<_> = (0..9).map(|i| cb.state(&format!("h{i}"))).collect();
    cb.ext(s[0], "+d0", s[1]);
    cb.ext(s[1], "+D", s[2]);
    cb.ext(s[2], "-A", s[3]);
    cb.ext(s[3], "-a0", s[4]);
    cb.ext(s[4], "+d0", s[3]);
    cb.ext(s[4], "+d1", s[5]);
    cb.ext(s[5], "+D", s[6]);
    cb.ext(s[6], "-A", s[7]);
    cb.ext(s[7], "-a1", s[8]);
    cb.ext(s[8], "+d1", s[7]);
    cb.ext(s[8], "+d0", s[1]);
    let hand = cb.build().expect("Fig. 14 converter is well-formed");
    assert!(
        verdicts_agree("paper/colocated/fig14", &colocated.b, &service, &hand),
        "the Fig. 14 hand converter must verify"
    );

    // The symmetric configuration has no converter at all (§5): only the
    // violation paths are reachable, and the engine must reproduce them.
    let sym = symmetric_configuration();
    assert!(
        !problem_agrees("paper/symmetric", &sym.b, &service, &sym.int),
        "the symmetric configuration must not yield a converter"
    );
}

/// Counters of the derived converter's system on nfa-blowup(n), n =
/// 1..=11: verify's `(states, transitions, pairs, dedup_hits,
/// arena_bytes)` on the literal parts (2 hubs each).
const NFA_BLOWUP_SYSTEM: [(usize, usize, usize, usize, usize); 11] = [
    (6, 12, 6, 8, 216),
    (12, 24, 12, 14, 368),
    (26, 52, 26, 28, 720),
    (58, 116, 58, 60, 1520),
    (130, 260, 130, 132, 3312),
    (290, 580, 290, 292, 7280),
    (642, 1284, 642, 644, 15984),
    (1410, 2820, 1410, 1412, 34928),
    (3074, 6148, 3074, 3076, 75888),
    (6658, 13316, 6658, 6660, 163952),
    (14338, 28676, 14338, 14340, 352368),
];

/// The guard's `(num_states, dfa_states, table_bytes, max_subset)` on
/// the same systems. It compiles each part's bisimulation minimum: the
/// converter collapses to one state and `B` to n + 2, so the composite
/// has n + 2 states, not the literal one's 6..14,338.
const NFA_BLOWUP_GUARD: [(usize, usize, usize, usize); 11] = [
    (3, 2, 26, 2),
    (4, 2, 26, 3),
    (5, 2, 26, 4),
    (6, 2, 26, 5),
    (7, 2, 26, 6),
    (8, 2, 26, 7),
    (9, 2, 26, 8),
    (10, 2, 26, 9),
    (11, 2, 26, 10),
    (12, 2, 26, 11),
    (13, 2, 26, 12),
];

#[test]
fn engine_and_guard_counters_are_pinned_on_nfa_blowup() {
    let service = exactly_once();
    for (i, (&(states, transitions, pairs, dedup, arena), &guard)) in
        NFA_BLOWUP_SYSTEM.iter().zip(&NFA_BLOWUP_GUARD).enumerate()
    {
        let (b, int) = nfa_blowup(i + 1);
        let q = solve(&b, &service, &int).expect("nfa-blowup has a converter");
        let v = verify_system(&[&b, &q.converter], &service).unwrap();
        assert!(v.verdict.is_ok(), "nfa-blowup({})", i + 1);
        let st = v.stats;
        assert_eq!(
            (
                st.states,
                st.transitions,
                st.hubs,
                st.pairs,
                st.dedup_hits,
                st.arena_bytes
            ),
            (states, transitions, 2, pairs, dedup, arena),
            "nfa-blowup({}): verify counters",
            i + 1
        );
        let prog = GuardProgram::new(&[&b, &q.converter], &service).unwrap();
        assert!(
            prog.system().verify().verdict.is_ok(),
            "nfa-blowup({})",
            i + 1
        );
        let g = prog.build_stats();
        assert_eq!(
            (prog.num_states(), g.dfa_states, g.table_bytes, g.max_subset),
            guard,
            "nfa-blowup({}): guard counters",
            i + 1
        );
    }
}

/// `converter_verdict_with` checks the compositional minimum
/// ([`CompiledSystem::minimal`]) and walks the literal `B ‖ C` only on
/// failure. Against the literal `verify_system` it must give the same
/// setup error, or the same `Ok`/`Err` and, on `Err`, the literal
/// witness and counters; the minimum's own verdict (over `min_b`, the
/// minimized `b`) must already be the literal `Ok`/`Err`. With
/// `reference`, an `Err`'s witness is also held to
/// `converter_verdict_reference`. Returns the verdict, `None` on a setup
/// error.
fn minimal_agrees(
    label: &str,
    (b, min_b): (&Spec, &Spec),
    service: &Spec,
    c: &Spec,
    reference: bool,
) -> Option<bool> {
    let (literal, checked) = (
        verify_system(&[b, c], service),
        converter_verdict_with(b, service, c, 1),
    );
    let (literal, (verdict, stats)) = match (literal, checked) {
        (Ok(literal), Ok(checked)) => (literal, checked),
        (Err(l), Err(m)) => {
            assert_eq!(l.to_string(), m.to_string(), "{label}: setup error");
            return None;
        }
        (l, m) => panic!("{label}: setup differs (literal {l:?}, checked {m:?})"),
    };
    let minimal = CompiledSystem::new(&[min_b, &minimize(c)], service).unwrap();
    let minimal_ok = minimal.verify().verdict.is_ok();
    let label = format!("{label} (literal {})", literal.stats.states);
    assert_eq!(
        minimal_ok,
        literal.verdict.is_ok(),
        "{label}: minimal verdict"
    );
    match (verdict, &literal.verdict) {
        (Ok(()), Ok(())) => assert_eq!(stats.states, minimal.composite().n, "{label}: states"),
        (Err(v), Err(lv)) => {
            assert_violation_eq(&label, lv, &v);
            assert_eq!(
                stats, literal.stats,
                "{label}: a failure reports the literal"
            );
            if reference {
                let r = converter_verdict_reference(b, service, c).unwrap();
                assert_violation_eq(&label, &r.expect_err("literal fails"), &v);
            }
        }
        (v, l) => panic!("{label}: verdict differs (checked {v:?}, literal {l:?})"),
    }
    Some(minimal_ok)
}

/// [`minimal_agrees`] on `c` and each of its `redirect_transition`
/// mutants, the reference witness checked on every `stride`-th; counts
/// `(accepted, rejected)` into `tally`.
fn mutants_agree(
    label: &str,
    (b, service): (&Spec, &Spec),
    c: &Spec,
    stride: usize,
    tally: &mut (usize, usize),
) {
    let min_b = minimize(b);
    let mutants = (0..).map_while(|k| redirect_transition(c, k));
    for (k, m) in std::iter::once(c.clone()).chain(mutants).enumerate() {
        let label = format!("{label}/mut{k}");
        match minimal_agrees(&label, (b, &min_b), service, &m, k % stride == 0) {
            Some(true) => tally.0 += 1,
            Some(false) => tally.1 += 1,
            None => {}
        }
    }
}

/// The converter `solve` derives, or the safety phase's output when
/// progress empties it.
fn derived_or_safe(b: &Spec, service: &Spec, int: &Alphabet) -> Option<Spec> {
    match solve(b, service, int) {
        Ok(q) => Some(q.converter),
        Err(QuotientError::NoProgressingConverter { safety_output, .. }) => Some(*safety_output),
        Err(_) => None,
    }
}

/// Every `redirect_transition` mutant of the colocated and ab-nak
/// builtins' and of nfa-blowup(1..8)'s derived converters gets the
/// literal verdict from the minimal check.
#[test]
fn minimal_verdict_matches_the_literal_on_mutants() {
    let mut tally = (0, 0);
    let colocated = colocated_configuration();
    let ab_nak = ab_to_nak_configuration();
    for (name, cfg) in [("colocated", colocated), ("ab-nak", ab_nak)] {
        let c = derived_or_safe(&cfg.b, &exactly_once(), &cfg.int).expect("a builtin derives");
        mutants_agree(name, (&cfg.b, &exactly_once()), &c, 1, &mut tally);
    }
    let service = exactly_once();
    for n in 1..=8 {
        let (b, int) = nfa_blowup(n);
        let c = derived_or_safe(&b, &service, &int).expect("nfa-blowup derives");
        let label = format!("nfa-blowup({n})");
        mutants_agree(&label, (&b, &service), &c, 1, &mut tally);
    }
    assert_eq!(tally, (1046, 24), "(accepted, rejected) converters");
}

/// The same on the symmetric builtin (at-least-once service). Its
/// 173-state converter has 689 mutants whose reference check takes up
/// to 0.1 s each in a release build, so the reference sees every 64th;
/// the literal engine sees all, and is held to the reference on this
/// configuration by `engine_agrees_on_paper_configurations`.
#[test]
fn minimal_verdict_matches_the_literal_on_symmetric_mutants() {
    let (cfg, service) = (symmetric_configuration(), at_least_once());
    let c = derived_or_safe(&cfg.b, &service, &cfg.int).expect("symmetric derives");
    let mut tally = (0, 0);
    mutants_agree("symmetric", (&cfg.b, &service), &c, 64, &mut tally);
    assert_eq!(tally, (456, 234), "(accepted, rejected) converters");
}

#[test]
fn engine_agrees_on_ab_nak_gateway() {
    let Configuration { b, int, .. } = ab_to_nak_configuration();
    problem_agrees("gateway/ab-nak", &b, &exactly_once(), &int);
}

/// A converter over `int` that takes every interface event in one
/// state: composing it with `B` hides all of `Int` as internal moves.
fn chaos_converter(int: &Alphabet) -> Spec {
    let mut cb = SpecBuilder::new("chaos");
    let c0 = cb.state("c0");
    for e in int.iter() {
        cb.ext(c0, &e.name(), c0);
    }
    cb.build().expect("chaos converter is well-formed")
}

/// Component `i` of a `k`-stage relay: a two-slot buffer that takes
/// `c{i}` (`in` for the first) and hands on `c{i+1}` (`out` for the
/// last), directly or after an internal step. A half-full stage can
/// both take and hand on, so the n-way scan meets solo edges and
/// synchronisations at every fold level in one state, as well as
/// nondeterminism and internal moves.
fn relay_stage(i: usize, k: usize) -> Spec {
    let name = |j: usize| match j {
        0 => "in".to_string(),
        j if j == k => "out".to_string(),
        j => format!("c{j}"),
    };
    let (take, give) = (name(i), name(i + 1));
    let mut sb = SpecBuilder::new(&format!("stage{i}"));
    let empty = sb.state("empty");
    let held = sb.state("held");
    let ready = sb.state("ready");
    let full = sb.state("full");
    sb.ext(empty, &take, held);
    sb.int(held, ready);
    sb.ext(held, &give, empty);
    sb.ext(held, &take, full);
    sb.ext(ready, &give, empty);
    sb.ext(ready, &take, full);
    sb.ext(full, &give, held);
    sb.build().expect("relay stage is well-formed")
}

fn assert_nway_matches_fold(label: &str, parts: &[&Spec]) {
    let folded = compose_all(parts);
    let nway = compose_all_nway(parts);
    let (folded, nway) = match (folded, nway) {
        (Ok(f), Ok(n)) => (f, n),
        (Err(f), Err(n)) => {
            assert_eq!(n.to_string(), f.to_string(), "{label}: error differs");
            return;
        }
        (f, n) => panic!(
            "{label}: outcome differs (fold ok={}, n-way ok={})",
            f.is_ok(),
            n.is_ok()
        ),
    };
    assert_eq!(nway.name(), folded.name(), "{label}: name");
    assert_eq!(nway.alphabet(), folded.alphabet(), "{label}: alphabet");
    assert_eq!(nway.num_states(), folded.num_states(), "{label}: states");
    assert_eq!(nway.initial(), folded.initial(), "{label}: initial state");
    for s in folded.states() {
        assert_eq!(
            nway.state_name(s),
            folded.state_name(s),
            "{label}: name of state {s:?}"
        );
        assert_eq!(
            nway.external_from(s),
            folded.external_from(s),
            "{label}: external adjacency of state {s:?}"
        );
        assert_eq!(
            nway.internal_from(s),
            folded.internal_from(s),
            "{label}: internal adjacency of state {s:?}"
        );
    }
}

#[test]
fn nway_composition_matches_the_fold() {
    for seed in 0..40u64 {
        let (b, int) = random_component(seed, RandomParams::default());
        let stuck = stuck_converter(&int);
        let chaos = chaos_converter(&int);
        assert_nway_matches_fold(&format!("random({seed})/stuck"), &[&b, &stuck]);
        assert_nway_matches_fold(&format!("random({seed})/chaos"), &[&b, &chaos]);
        assert_nway_matches_fold(&format!("random({seed})/flipped"), &[&chaos, &b]);
    }
    for k in [3usize, 4] {
        let stages: Vec<Spec> = (0..k).map(|i| relay_stage(i, k)).collect();
        let parts: Vec<&Spec> = stages.iter().collect();
        assert_nway_matches_fold(&format!("relay({k})"), &parts);
        let reversed: Vec<&Spec> = stages.iter().rev().collect();
        assert_nway_matches_fold(&format!("relay({k})/reversed"), &reversed);
    }
}

/// `c` plus unreachable, edgeless states up to `n` states in all.
fn padded(c: &Spec, n: usize) -> Spec {
    let mut sb = SpecBuilder::new(c.name());
    let ids: Vec<_> = c.states().map(|s| sb.state(c.state_name(s))).collect();
    for k in c.num_states()..n {
        sb.state(&format!("pad{k}"));
    }
    for e in c.alphabet().iter() {
        sb.event(&e.name());
    }
    for (f, e, t) in c.external_transitions() {
        sb.ext_id(ids[f.index()], e, ids[t.index()]);
    }
    for (f, t) in c.internal_transitions() {
        sb.int(ids[f.index()], ids[t.index()]);
    }
    sb.initial(ids[c.initial().index()]);
    sb.build().expect("padded spec is well-formed")
}

#[test]
fn nway_composition_matches_the_fold_on_both_sides_of_the_dense_cap() {
    // Component 0 is padded so that ∏|Pᵢ| lands exactly on the cap
    // (directly indexed) or just above it (hashed); the reachable
    // product stays the 3-stage relay's.
    let stages: Vec<Spec> = (0..3).map(|i| relay_stage(i, 3)).collect();
    let rest: usize = stages[1..].iter().map(Spec::num_states).product();
    assert_eq!(DENSE_TUPLE_SLOTS % rest, 0, "the cap splits evenly");
    for (label, first) in [
        ("at the cap", DENSE_TUPLE_SLOTS / rest),
        ("above the cap", DENSE_TUPLE_SLOTS / rest + 1),
    ] {
        let head = padded(&stages[0], first);
        let parts = [&head, &stages[1], &stages[2]];
        let slots: usize = parts.iter().map(|p| p.num_states()).product();
        assert_eq!(slots > DENSE_TUPLE_SLOTS, label == "above the cap");
        assert_nway_matches_fold(&format!("padded relay(3) {label}"), &parts);
        let reversed = [&stages[2], &stages[1], &head];
        assert_nway_matches_fold(&format!("padded relay(3) {label}/reversed"), &reversed);
    }
}

/// Pins [`CompiledSystem::tau_star`] to the reference τ* of the
/// materialized `compose_all` composite, state by state, for the n-way
/// compile of `parts` and for the single-component compile of that
/// composite. Returns how many composite states lie on an internal
/// cycle (a τ-SCC with more than one member).
fn tau_star_agrees(label: &str, parts: &[&Spec], service: &Spec) -> usize {
    let composite = compose_all(parts).expect("the parts compose");
    let closures = Closures::compute(&composite);
    let nway = CompiledSystem::new(parts, service).expect("the system compiles");
    let single = CompiledSystem::new(&[&composite], service).expect("the composite compiles");
    for system in [&nway, &single] {
        assert_eq!(
            system.composite().n,
            composite.num_states(),
            "{label}: composite size"
        );
        for s in composite.states() {
            assert_eq!(
                system.table().to_alphabet(system.tau_star(s.0)),
                *closures.tau_star(s),
                "{label}: τ* of state {s:?}"
            );
        }
    }
    composite
        .states()
        .filter(|&s| {
            closures
                .lambda_star(s)
                .iter()
                .any(|t| t != s && closures.reaches(t, s))
        })
        .count()
}

/// Converters for `tau_star_agrees`: the derived one when it exists,
/// plus the stuck and chaos converters over `int`.
fn tau_star_agrees_on_problem(label: &str, b: &Spec, service: &Spec, int: &Alphabet) -> usize {
    let mut converters = vec![stuck_converter(int), chaos_converter(int)];
    converters.extend(solve(b, service, int).ok().map(|q| q.converter));
    converters
        .iter()
        .map(|c| tau_star_agrees(&format!("{label}/{}", c.name()), &[b, c], service))
        .sum()
}

#[test]
fn compiled_tau_star_matches_the_reference_closure() {
    let service = exactly_once();
    let mut cyclic = 0;
    for n in [1usize, 2, 3, 5, 8] {
        let (b, int) = relay_chain(n);
        cyclic += tau_star_agrees_on_problem(&format!("relay-chain({n})"), &b, &service, &int);
    }
    for n in [1usize, 2, 3, 4] {
        let (b, int) = toggle_puzzle(n);
        cyclic += tau_star_agrees_on_problem(&format!("toggle-puzzle({n})"), &b, &service, &int);
    }
    for n in [1usize, 3, 5, 7] {
        let (b, int) = nfa_blowup(n);
        cyclic += tau_star_agrees_on_problem(&format!("nfa-blowup({n})"), &b, &service, &int);
    }
    for seed in 0..40u64 {
        let (b, int) = random_component(seed, RandomParams::default());
        cyclic += tau_star_agrees_on_problem(&format!("random({seed})"), &b, &service, &int);
    }
    assert!(cyclic > 0, "the sweep must meet multi-member τ-SCCs");

    // A hand-built τ-SCC: `h` bounces between p1 and p2 against q's
    // self-loop, so (p1,q)~>(p2,q)~>(p1,q), and only p2 offers `del`;
    // p3, reached from the cycle, offers `acc` to both members.
    let mut pb = SpecBuilder::new("p");
    let p: Vec<StateId> = (0..4).map(|i| pb.state(&format!("p{i}"))).collect();
    pb.ext(p[0], "acc", p[1]);
    pb.ext(p[1], "h", p[2]);
    pb.ext(p[2], "h", p[1]);
    pb.ext(p[2], "del", p[0]);
    pb.int(p[1], p[3]);
    pb.ext(p[3], "acc", p[3]);
    let p = pb.build().expect("p is well-formed");
    let mut qb = SpecBuilder::new("q");
    let q0 = qb.state("q0");
    qb.ext(q0, "h", q0);
    let q = qb.build().expect("q is well-formed");
    assert_eq!(tau_star_agrees("h-cycle", &[&p, &q], &service), 2);
    assert_eq!(tau_star_agrees("h-cycle/flipped", &[&q, &p], &service), 2);
}
