//! EXP-C1 / EXP-C2: the §7 complexity-shape claims.
//!
//! * `relay_chain/n` — benign linear family: quotient grows linearly;
//! * `nfa_blowup/n` — adversarial family: a small B (n+2 states) whose
//!   quotient has ~2^n states (NFA→DFA blowup inside the pair-set
//!   construction — the §7 worst case and the PSPACE-hardness in
//!   action);
//! * `toggle_puzzle/n` — a second stressor where B itself is the
//!   exponential object (subset-tracking over register valuations);
//! * `progress_vs_safety/w` — phase split on windowed services: the
//!   progress phase stays polynomial in the safety output's size;
//! * `safety_engine/...` — EXP-C4: the interned engine against the
//!   reference transcription on the adversarial family.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use protoquot_core::solve;
use protoquot_core::{progress_phase, safety_phase, safety_phase_reference, SafetyLimits};
use protoquot_protocols::service::windowed;
use protoquot_protocols::{exactly_once, nfa_blowup, relay_chain, toggle_puzzle};
use protoquot_spec::normalize;

fn bench_scaling(c: &mut Criterion) {
    let na_exact = normalize(&exactly_once());

    let mut g = c.benchmark_group("relay_chain");
    for n in [2usize, 4, 8, 16] {
        let (b, int) = relay_chain(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| solve(&b, &exactly_once(), &int).unwrap())
        });
    }
    g.finish();

    let mut g = c.benchmark_group("nfa_blowup");
    g.sample_size(10);
    for n in [4usize, 6, 8, 10] {
        let (b, int) = nfa_blowup(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| {
                safety_phase(&b, &na_exact, &int, false, SafetyLimits::default())
                    .unwrap()
                    .unwrap()
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("toggle_puzzle");
    g.sample_size(10);
    for n in [2usize, 3, 4, 5] {
        let (b, int) = toggle_puzzle(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| {
                safety_phase(&b, &na_exact, &int, false, SafetyLimits::default())
                    .unwrap()
                    .unwrap()
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("progress_vs_safety");
    g.sample_size(20);
    for w in [1usize, 2, 3] {
        let (b, int) = relay_chain(2 * w + 2);
        let na = normalize(&windowed(w));
        let safety = safety_phase(&b, &na, &int, false, SafetyLimits::default())
            .unwrap()
            .unwrap();
        g.bench_with_input(BenchmarkId::new("safety", w), &w, |bench, _| {
            bench.iter(|| {
                safety_phase(&b, &na, &int, false, SafetyLimits::default())
                    .unwrap()
                    .unwrap()
            })
        });
        g.bench_with_input(BenchmarkId::new("progress", w), &w, |bench, _| {
            bench.iter(|| progress_phase(&b, &na, &safety))
        });
    }
    g.finish();

    let mut g = c.benchmark_group("safety_engine");
    g.sample_size(10);
    let (b, int) = nfa_blowup(10);
    g.bench_function("reference/nfa-10", |bench| {
        bench.iter(|| {
            safety_phase_reference(&b, &na_exact, &int, false, SafetyLimits::default())
                .unwrap()
                .unwrap()
        })
    });
    g.bench_function("engine/nfa-10", |bench| {
        bench.iter(|| {
            safety_phase(&b, &na_exact, &int, false, SafetyLimits::default())
                .unwrap()
                .unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
