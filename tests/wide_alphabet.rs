//! Quotient problems with more than 64 external events. τ* rows,
//! acceptance sets and witness offers are bitsets over the `Ext` event
//! table, one `u64` word per 64 events; these cases cross from one word
//! to two (an early implementation panicked on `Ext > 64`).

use protoquot_core::{solve, verify_converter};
use protoquot_spec::{Alphabet, Spec, SpecBuilder};

/// A relay ring over `n` distinct external events: the service cycles
/// `x0 … x{n-1}`; B requires an internal `f{i}` nudge after each `x{i}`
/// before it will accept the next one.
fn wide_ring(n: usize) -> (Spec, Spec, Alphabet) {
    let mut sb = SpecBuilder::new("wide-service");
    let hubs: Vec<_> = (0..n).map(|i| sb.state(&format!("u{i}"))).collect();
    for i in 0..n {
        sb.ext(hubs[i], &format!("x{i}"), hubs[(i + 1) % n]);
    }
    let service = sb.build().unwrap();

    let mut bb = SpecBuilder::new("wide-b");
    let ready: Vec<_> = (0..n).map(|i| bb.state(&format!("a{i}"))).collect();
    let pending: Vec<_> = (0..n).map(|i| bb.state(&format!("m{i}"))).collect();
    for i in 0..n {
        bb.ext(ready[i], &format!("x{i}"), pending[i]);
        bb.ext(pending[i], &format!("f{i}"), ready[(i + 1) % n]);
    }
    let b = bb.build().unwrap();
    let int: Alphabet = (0..n)
        .map(|i| format!("f{i}"))
        .collect::<Vec<_>>()
        .iter()
        .map(String::as_str)
        .collect();
    (service, b, int)
}

#[test]
fn seventy_external_events_solve_and_verify() {
    let (service, b, int) = wide_ring(70);
    let ext = b.alphabet().difference(&int);
    assert!(ext.len() > 64, "fixture must exceed one bitset word");
    let q = solve(&b, &service, &int).expect("a converter exists");
    verify_converter(&b, &service, &q.converter).expect("derived converter verifies");
    // The driving converter fires each f{i} in turn: one state per
    // phase of the ring survives.
    assert!(q.converter.num_states() >= 70);
    assert_eq!(q.stats.removed_states, 0);
}

/// Exactly at the boundary the rows still fit one word; one past it
/// they take two — both must derive and verify.
#[test]
fn mask_representation_boundary() {
    for n in [64usize, 65] {
        let (service, b, int) = wide_ring(n);
        let q =
            solve(&b, &service, &int).unwrap_or_else(|e| panic!("wide_ring({n}) must solve: {e}"));
        verify_converter(&b, &service, &q.converter).unwrap();
    }
}
