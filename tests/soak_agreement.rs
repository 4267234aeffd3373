//! Differential test between the **soak fleet** (dynamic, fault-injecting,
//! seeded execution with online conformance checking) and the **static**
//! verifier (`converter_verdict`, i.e. `B ‖ C ⊨ A` via the Figure 6
//! phases). Because fault plans only bias the choice among *enabled*
//! actions, every faulted trace is a genuine trace of `B ‖ C`, so the two
//! oracles must agree:
//!
//! * a statically verified converter must survive any soak, at 1 and 8
//!   worker threads alike (and the two reports must be byte-identical
//!   apart from wall-clock throughput);
//! * a mutated converter that the static check rejects must be caught by
//!   the soak, with a ddmin-minimized counterexample of at most 20
//!   events.
//!
//! It also pins `drive` to the soak: each driven session runs the same
//! [`Execution`] as the fleet's run of that seed.

use protoquot_core::{converter_verdict, solve};
use protoquot_protocols::nak::ab_to_nak_configuration;
use protoquot_protocols::{
    at_least_once, colocated_configuration, exactly_once, nfa_blowup, relay_chain,
    symmetric_configuration, toggle_puzzle,
};
use protoquot_runtime::{drive, DriveConfig, Gateway, GatewayConfig, LoopbackMux, MuxTransport};
use protoquot_sim::{
    redirect_transition, Execution, FaultPlan, FleetConfig, FleetRunner, RunParams, RunVerdict,
};
use protoquot_spec::{Alphabet, Spec};

/// Soak budget per instance; small enough to keep the suite quick yet
/// large enough that every statically rejected mutant below is caught.
fn config(threads: usize) -> FleetConfig {
    FleetConfig {
        runs: 40,
        threads,
        params: RunParams {
            faults: FaultPlan::parse("loss,dup,reorder").unwrap(),
            ..RunParams::new(0x50AB_A6EE, 600)
        },
        ..FleetConfig::default()
    }
}

/// Runs the fleet at 1 and 8 threads, asserts the reports are
/// thread-count invariant, and returns whether the soak found the system
/// conforming.
fn soak_conforms(label: &str, components: Vec<Spec>, service: &Spec) -> bool {
    let fleet = FleetRunner::new(components, service.clone());
    let one = fleet.run(&config(1));
    let eight = fleet.run(&config(8));
    assert_eq!(
        (one.conforming, one.safety, one.deadlock, one.livelock),
        (
            eight.conforming,
            eight.safety,
            eight.deadlock,
            eight.livelock
        ),
        "{label}: verdict histogram differs across thread counts"
    );
    assert_eq!(
        one.total_steps, eight.total_steps,
        "{label}: total steps differ across thread counts"
    );
    assert_eq!(
        one.counterexamples, eight.counterexamples,
        "{label}: counterexamples differ across thread counts"
    );
    one.is_conforming()
}

/// The core differential check for one quotient problem: derive the
/// converter, confirm static and dynamic verdicts agree on the clean
/// system, then mutate single transitions of the converter and insist
/// the two oracles keep agreeing — with a short minimized witness
/// whenever the soak convicts. Returns how many mutants were rejected
/// (tiny instances can have only behaviour-preserving redirects, so
/// callers assert non-vacuity over a whole sweep, not per instance).
fn assert_agreement(label: &str, b: &Spec, service: &Spec, int: &Alphabet) -> usize {
    let q =
        solve(b, service, int).unwrap_or_else(|e| panic!("{label}: expected a converter, got {e}"));
    let converter = q.converter;

    let static_ok = converter_verdict(b, service, &converter)
        .unwrap_or_else(|e| panic!("{label}: static check failed to run: {e}"))
        .is_ok();
    assert!(
        static_ok,
        "{label}: derived converter fails the static check"
    );
    assert!(
        soak_conforms(label, vec![b.clone(), converter.clone()], service),
        "{label}: statically verified converter failed the soak"
    );

    // Mutate external transitions one at a time. The soak is a sound
    // bug-finder (it only ever witnesses real traces), so wherever it
    // convicts the static verdict must already be a rejection; and for
    // this fault mix and budget every static rejection below is in fact
    // witnessed dynamically, with a short minimized counterexample.
    let mut caught = 0usize;
    for k in 0..4 {
        let Some(mutant) = redirect_transition(&converter, k) else {
            break;
        };
        let mutant_label = format!("{label}/mut{k}");
        let mutant_static_ok = converter_verdict(b, service, &mutant)
            .map(|v| v.is_ok())
            .unwrap_or(false);
        let mutant_soak_ok = soak_conforms(&mutant_label, vec![b.clone(), mutant], service);
        assert_eq!(
            mutant_static_ok, mutant_soak_ok,
            "{mutant_label}: static ({mutant_static_ok}) and soak ({mutant_soak_ok}) disagree"
        );
        if !mutant_soak_ok {
            caught += 1;
        }
    }
    caught
}

/// Every counterexample reported for this system must carry a minimized
/// witness of at most 20 events.
fn assert_minimized(label: &str, components: Vec<Spec>, service: &Spec) {
    let fleet = FleetRunner::new(components, service.clone());
    let report = fleet.run(&config(1));
    assert!(
        !report.is_conforming(),
        "{label}: expected a non-conforming report"
    );
    assert!(
        !report.counterexamples.is_empty(),
        "{label}: non-conforming report carries no counterexample"
    );
    for cx in &report.counterexamples {
        assert!(
            cx.events.len() <= 20,
            "{label}: counterexample of {} events exceeds the 20-event bound",
            cx.events.len()
        );
    }
}

#[test]
fn benchmark_families_agree() {
    let service = exactly_once();
    let mut caught = 0usize;
    for n in [1usize, 2, 4] {
        let (b, int) = relay_chain(n);
        caught += assert_agreement(&format!("relay-chain({n})"), &b, &service, &int);
    }
    for n in [1usize, 2] {
        let (b, int) = toggle_puzzle(n);
        caught += assert_agreement(&format!("toggle-puzzle({n})"), &b, &service, &int);
    }
    for n in [1usize, 3, 5] {
        let (b, int) = nfa_blowup(n);
        caught += assert_agreement(&format!("nfa-blowup({n})"), &b, &service, &int);
    }
    assert!(
        caught > 0,
        "no single-transition mutant was rejected across the family sweep"
    );
}

#[test]
fn paper_configurations_agree() {
    let mut caught = 0usize;

    // §5, colocated variant: an exactly-once converter exists.
    let cfg = colocated_configuration();
    caught += assert_agreement("colocated/exactly-once", &cfg.b, &exactly_once(), &cfg.int);

    // §5, symmetric variant: exactly-once is unsolvable, at-least-once
    // restores existence.
    let cfg = symmetric_configuration();
    caught += assert_agreement(
        "symmetric/at-least-once",
        &cfg.b,
        &at_least_once(),
        &cfg.int,
    );

    // The AB↔NAK heterogeneous gateway used by the soak acceptance run.
    let cfg = ab_to_nak_configuration();
    caught += assert_agreement("ab-nak/exactly-once", &cfg.b, &exactly_once(), &cfg.int);

    assert!(
        caught > 0,
        "no single-transition mutant was rejected across the paper configurations"
    );
}

#[test]
fn mutated_converter_yields_short_minimized_counterexample() {
    let cfg = colocated_configuration();
    let service = exactly_once();
    let q = solve(&cfg.b, &service, &cfg.int).unwrap();
    for k in 0..4 {
        let Some(mutant) = redirect_transition(&q.converter, k) else {
            break;
        };
        if converter_verdict(&cfg.b, &service, &mutant)
            .map(|v| v.is_ok())
            .unwrap_or(false)
        {
            continue; // behaviour-preserving redirect: nothing to witness
        }
        assert_minimized(
            &format!("colocated/mut{k}"),
            vec![cfg.b.clone(), mutant],
            &service,
        );
    }
}

/// `drive` relays the soak's executions over the wire: every session of
/// a loopback campaign takes the steps and reaches the local verdict of
/// its [`Execution`] run alone, for derived converters and mutants 1–3
/// alike. The one exception is a run the gateway cuts short by
/// convicting an event frame as `stalled` (progress is already lost,
/// which the local watchdog only sees later); a derived converter has
/// none.
#[test]
fn drive_sessions_run_the_soak_executions() {
    let cfg = DriveConfig {
        runs: 200,
        params: RunParams {
            faults: FaultPlan::parse("loss,reorder").unwrap(),
            ..RunParams::new(7, 600)
        },
        ..DriveConfig::default()
    };
    for (name, system) in [
        ("colocated", colocated_configuration()),
        ("ab-nak", ab_to_nak_configuration()),
    ] {
        let service = exactly_once();
        let q = solve(&system.b, &service, &system.int).unwrap();
        for k in [None, Some(1), Some(2), Some(3)] {
            let label = format!("{name}/{k:?}");
            let converter = match k {
                None => q.converter.clone(),
                Some(k) => redirect_transition(&q.converter, k).unwrap(),
            };
            let components = [system.b.clone(), converter];
            let parts: Vec<&Spec> = components.iter().collect();
            let gw = Gateway::new(&parts, &service, GatewayConfig::default()).unwrap();
            let report = drive(&components, &service, &cfg, || {
                Ok(Box::new(LoopbackMux::new(gw.clone())) as Box<dyn MuxTransport>)
            });
            assert_eq!(report.io_errors, 0, "{label}: {report}");
            for o in &report.outcomes {
                let cut = o.conviction.as_deref() == Some("stalled") && !o.stall_attested;
                assert!(!cut || k.is_some(), "{label}: run {} cut short", o.run);
                if cut {
                    continue;
                }
                let mut alone = Execution::new(&components, &service, &cfg.params, o.run);
                let verdict = alone
                    .run(&mut Vec::new())
                    .map_or(RunVerdict::Conforming, |(v, _)| v);
                assert_eq!(
                    (o.steps, o.local_verdict),
                    (alone.steps(), verdict),
                    "{label}: run {} diverges from its execution",
                    o.run
                );
            }
        }
    }
}
