//! The benchmark's own checks: its statistics, its inputs, its
//! verdicts, and a short clean run of every workload.

use pqbench::deploy::Expect;
use pqbench::inputs::{
    session_id, Wire, LOCKSTEP_EVENTS, LOCKSTEP_POOL, PAPER_SOURCE, PLANT_EVERY,
};
use pqbench::measure::{percentile, quartiles};
use pqbench::metrics::{compare, RunRecord, Verdict, END_TO_END, PER_LAYER};
use pqbench::workloads::{run_problems, RunConfig, Workload, RUN_SECONDS};
use protoquot_runtime::codec::encode_frame;
use protoquot_spec::{compose, compose_all, has_trace, Alphabet, EventId, Spec};
use serde::Value;
use std::collections::BTreeMap;
use std::process::Command;

#[test]
fn tail_percentiles_need_ten_samples_beyond() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.5), Some(50.0));
    assert_eq!(
        percentile(&v, 0.9),
        Some(90.0),
        "exactly ten samples beyond"
    );
    assert_eq!(percentile(&v, 0.95), None);
    assert_eq!(percentile(&v, 0.99), None);
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.99), Some(990.0));
    assert_eq!(percentile(&v, 0.999), None);
    assert_eq!(
        percentile(&[7.0], 0.5),
        Some(7.0),
        "a median needs one sample"
    );
    assert_eq!(percentile(&[], 0.5), None);
}

#[test]
fn quartiles_match_the_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 8.25));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
}

/// `fig9_weakened`'s derived system, as the serve-lockstep client sees
/// it, plus the composite `B ‖ C` the oracle checks against.
fn lockstep_system() -> (Wire, Spec) {
    let file = protoquot_speclang::parse_source(PAPER_SOURCE).unwrap();
    let decl = file.problem("fig9_weakened").unwrap();
    let parts: Vec<&Spec> = decl
        .components
        .iter()
        .map(|c| file.spec(c).unwrap())
        .collect();
    let b = compose_all(&parts).unwrap();
    let service = file.spec(&decl.service).unwrap();
    let int: Alphabet = decl.internal.iter().map(String::as_str).collect();
    let converter = protoquot_core::solve(&b, service, &int).unwrap().converter;
    let composite = compose(&b, &converter);
    (Wire::new(&b, &converter, service).unwrap(), composite)
}

/// Every frame of the first `sessions` lockstep sessions, encoded.
fn wire_bytes(wire: &Wire, seed: u64, sessions: u64) -> Vec<u8> {
    let pool = wire.lockstep_pool(seed).unwrap();
    let mut out = Vec::new();
    for k in 0..sessions {
        let script = &pool[(k % pool.len() as u64) as usize];
        for i in 0..script.frames() {
            encode_frame(&script.frame(session_id(seed, k), i), &mut out);
        }
    }
    out
}

#[test]
fn the_seed_alone_fixes_the_frames() {
    let (wire, _) = lockstep_system();
    assert_eq!(wire_bytes(&wire, 7, 200), wire_bytes(&wire, 7, 200));
    assert_ne!(wire_bytes(&wire, 7, 200), wire_bytes(&wire, 8, 200));
    let ids = |seed| (0..1000).map(|k| session_id(seed, k)).collect::<Vec<u64>>();
    let (a, b) = (ids(7), ids(8));
    assert!(
        a.iter().all(|id| !b.contains(id)),
        "a new seed draws new session ids"
    );
    let mut sorted = a.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(
        sorted.len(),
        a.len(),
        "session ids do not repeat within a run"
    );
    // Ids spread over the gateway's eight shards.
    let mut shards = [0u32; 8];
    for id in &a {
        shards[(id % 8) as usize] += 1;
    }
    assert!(shards.iter().all(|&n| n > 60), "{shards:?}");
}

#[test]
fn planted_events_are_decided_by_has_trace() {
    let (wire, composite) = lockstep_system();
    let table = wire.codec.table().clone();
    let event = |i: u16| -> EventId { table.event(u32::from(i)).unwrap() };
    let pool = wire.lockstep_pool(0x5eed).unwrap();
    assert_eq!(pool.len(), LOCKSTEP_POOL);
    for (i, script) in pool.iter().enumerate() {
        let prefix: Vec<EventId> = script.events.iter().map(|&e| event(e)).collect();
        assert!(
            has_trace(&composite, &prefix),
            "script {i} replays a trace of B ‖ C"
        );
        match script.planted {
            Some(p) => {
                assert_eq!(i % PLANT_EVERY, PLANT_EVERY - 1);
                let mut t = prefix.clone();
                t.push(event(p));
                assert!(
                    !has_trace(&composite, &t),
                    "script {i}'s planted event is a non-trace"
                );
            }
            None => {
                assert_ne!(i % PLANT_EVERY, PLANT_EVERY - 1);
                assert_eq!(script.events.len(), LOCKSTEP_EVENTS);
            }
        }
    }
}

/// Runs the benchmark binary and parses its last output line.
fn bench(args: &[&str]) -> (bool, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_pqbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().unwrap_or_default().to_string();
    let value =
        serde_json::from_str(&last).unwrap_or_else(|e| panic!("{args:?}: last line `{last}`: {e}"));
    (out.status.success(), value)
}

fn check_clean_run(args: &[&str], expected: &[&str]) {
    let (ok, v) = bench(args);
    let o = v.as_obj().unwrap();
    let keys: Vec<&String> = o.keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert!(ok, "{args:?} exits 0");
    assert_eq!(o["correct"], Value::Bool(true), "{args:?}");
    assert_eq!(o["failed"], Value::Int(0), "{args:?}");
    assert!(o["attempted"].as_int().unwrap() >= 1);
    let metrics = o["metrics"].as_obj().unwrap();
    for name in expected {
        let m = metrics
            .get(*name)
            .unwrap_or_else(|| panic!("{args:?}: no {name}"));
        assert!(m.as_obj().unwrap().contains_key("unit"));
    }
}

#[test]
fn every_workload_runs_clean_for_a_second() {
    let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    for w in Workload::ALL {
        check_clean_run(&["--workload", w.name(), "--seconds", "1"], &expected);
    }
}

#[test]
fn every_traced_workload_reports_every_layer() {
    let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    for w in Workload::ALL {
        check_clean_run(
            &["--workload", w.name(), "--seconds", "1", "--trace", "1"],
            &expected,
        );
    }
}

#[test]
fn a_wrong_prediction_fails_the_run() {
    let cfg = RunConfig {
        workload: Workload::DerivePaper,
        seed: 1,
        seconds: 0.2,
        trace: false,
        spans: None,
    };
    let mut problems = Workload::DerivePaper.problems();
    problems[0].expect = Expect::Converter { states: 10 };
    let out = run_problems(&cfg, &problems);
    let t = &out.tally;
    assert!(t.failed > 0 && t.attempted > t.failed);
    assert!(
        t.errors.iter().any(|e| e.contains("fig13")),
        "{:?}",
        t.errors
    );
    let line = pqbench::metrics::result_line(t.attempted, t.failed, t.failed == 0, &out.metrics);
    assert!(line.contains("\"correct\":false"));
}

#[test]
fn unknown_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_pqbench"))
        .args(["--workload", "no-such-workload"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}

fn record(
    workload: &str,
    trace: bool,
    i: usize,
    started_ms: u64,
    metrics: &[(&str, f64)],
) -> RunRecord {
    RunRecord {
        workload: workload.into(),
        trace,
        seed: i as u64,
        started_ms,
        metrics: metrics
            .iter()
            .map(|&(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    }
}

/// Ten alternating pairs: parent latency 100 ± 1, change at `factor`.
fn pairs(factor: f64) -> (Vec<RunRecord>, Vec<RunRecord>) {
    let (mut p, mut c) = (Vec::new(), Vec::new());
    for i in 0..10 {
        let jitter = (i % 3) as f64 - 1.0;
        let (tp, tc) = if i % 2 == 0 {
            (2 * i, 2 * i + 1)
        } else {
            (2 * i + 1, 2 * i)
        };
        p.push(record(
            "serve-mux",
            false,
            i,
            tp as u64,
            &[("latency_p50_us", 100.0 + jitter)],
        ));
        c.push(record(
            "serve-mux",
            false,
            i,
            tc as u64,
            &[("latency_p50_us", (100.0 + jitter) * factor)],
        ));
    }
    for i in 0..3 {
        let v = 40.0 + i as f64;
        p.push(record(
            "serve-mux",
            true,
            i,
            100 + i as u64,
            &[
                ("codec.self_ns_per_frame", v),
                ("guard.observe_ns_per_frame", 4.0),
            ],
        ));
        c.push(record(
            "serve-mux",
            true,
            i,
            200 + i as u64,
            &[
                ("codec.self_ns_per_frame", v * factor),
                ("guard.observe_ns_per_frame", 4.0),
            ],
        ));
    }
    (p, c)
}

#[test]
fn compare_applies_the_pairwise_rule_and_names_the_layer() {
    let verdict = |factor| {
        let (p, c) = pairs(factor);
        let rows = compare(&p, &c);
        assert_eq!(rows.len(), 1, "one end-to-end metric was recorded");
        rows.into_iter().next().unwrap()
    };
    assert_eq!(verdict(0.8).verdict, Verdict::Improved);
    assert_eq!(verdict(1.0).verdict, Verdict::Unchanged);
    assert_eq!(
        verdict(1.05).verdict,
        Verdict::Unchanged,
        "within the 10% bound"
    );
    let slow = verdict(1.3);
    assert_eq!(slow.verdict, Verdict::Regressed);
    assert_eq!(slow.moved.len(), 1, "{:?}", slow.moved);
    assert!(slow.moved[0].starts_with("codec.self_ns_per_frame"));

    let (p, c) = pairs(0.8);
    let rows = compare(&p[..5], &c[..5]);
    assert!(
        matches!(rows[0].verdict, Verdict::Unresolved(_)),
        "five pairs are too few"
    );
    let mut same_order = c.clone();
    for (i, r) in same_order.iter_mut().enumerate() {
        r.started_ms = 1000 + i as u64;
    }
    assert!(matches!(
        compare(&p, &same_order)[0].verdict,
        Verdict::Unresolved(_)
    ));
}

#[test]
fn benchmark_json_matches_the_metric_table() {
    let v: Value = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
    let o = v.as_obj().unwrap();
    let list = |k: &str| {
        o[k].as_arr()
            .unwrap()
            .iter()
            .map(|m| m.as_obj().unwrap().clone())
            .collect::<Vec<_>>()
    };
    let names: Vec<String> = list("workloads")
        .iter()
        .map(|w| w["name"].as_str().unwrap().to_string())
        .collect();
    assert_eq!(names, Workload::ALL.map(|w| w.name().to_string()));
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let entries = list(key);
        assert_eq!(entries.len(), table.len(), "{key}");
        for (e, m) in entries.iter().zip(table) {
            assert_eq!(e["name"].as_str(), Some(m.name));
            assert_eq!(e["unit"].as_str(), Some(m.unit), "{}", m.name);
            assert_eq!(e["better"].as_str(), Some(m.better.name()), "{}", m.name);
            let bound = e.get("bound").map(|b| match b {
                Value::Float(f) => *f,
                Value::Int(i) => *i as f64,
                _ => panic!("{}: bound is not a number", m.name),
            });
            assert_eq!(bound, m.bound, "{}", m.name);
        }
    }
    assert_eq!(o["run_seconds"].as_int(), Some(RUN_SECONDS as i128));
}
