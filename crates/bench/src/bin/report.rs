//! Prints the full experiment report used to fill `EXPERIMENTS.md`:
//! the §5 qualitative results plus the §7 complexity-shape tables.
//!
//! Run with: `cargo run -p protoquot-bench --bin report --release`
//!
//! `--quick` instead runs only the CI smoke gate: it measures seven
//! values, writes them to `BENCH_smoke.json`, and exits nonzero if any
//! regressed more than 2× against the committed baseline
//! (`crates/bench/BENCH_BASELINE.json`). They are the nfa-blowup-11
//! safety+progress derivation (`total_ms`), the EXP-W literal
//! verification (`verify_ms`), the gateway and reactor pumps
//! (`serve_events_per_sec`, `reactor_events_per_sec`), the EXP-W guard
//! build (`guard_build_ms`), and the nfa-blowup-11 registry admission
//! (`admit_ms`) and system compile (`compile_ms`).

use protoquot_baselines::submodule_construction;
use protoquot_bench::paper_report;
use protoquot_core::{
    converter_verdict_reference, converter_verdict_with, progress_phase, safety_engine,
    safety_phase, safety_phase_reference, solve, SafetyLimits,
};
use protoquot_protocols::service::windowed;
use protoquot_protocols::{
    ab_channel, ab_sender, at_least_once, colocated_configuration, connection_service,
    exactly_once, gateway_configuration, nfa_blowup, ns_receiver, relay_chain,
    symmetric_configuration, toggle_puzzle,
};
use protoquot_runtime::artifact::encode;
use protoquot_runtime::{
    drive, Conn, ConverterRegistry, DriveConfig, Frame, Gateway, GatewayConfig, GuardProgram,
    LoopbackConn, LoopbackMux, MuxClient, MuxTransport, ReactorConfig, ReactorServer, Reply,
    SessionGuard, SessionGuardReference,
};
use protoquot_sim::{
    redirect_transition, run_monitored, FaultPlan, FleetConfig, FleetRunner, RunParams, SimConfig,
};
use protoquot_spec::{minimize, normalize, verify_system, Alphabet, CompiledSystem, Spec};
use std::sync::Arc;
use std::time::Instant;

/// Best of 3 runs of `f`: the fastest wall time (ms) and the last run's
/// result. A single cold call would time first-call allocation as much
/// as the work.
fn best_of_3<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..3 {
        let t = Instant::now();
        let o = f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        out = Some(o);
    }
    (best, out.unwrap())
}

/// Best-of-3 wall times (ms) of the nfa-blowup-11 safety and progress
/// phases — the workload the CI smoke gate tracks.
fn nfa_blowup_11_phase_times() -> (f64, f64) {
    let (b, int) = nfa_blowup(11);
    let na = normalize(&exactly_once());
    let mut safety_ms = f64::INFINITY;
    let mut progress_ms = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        let s = safety_phase(&b, &na, &int, false, SafetyLimits::default())
            .unwrap()
            .unwrap();
        safety_ms = safety_ms.min(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let p = progress_phase(&b, &na, &s);
        progress_ms = progress_ms.min(t.elapsed().as_secs_f64() * 1e3);
        assert!(p.converter.is_some());
    }
    (safety_ms, progress_ms)
}

/// Best-of-3 wall time (ms) of the compiled verification engine on the
/// EXP-W verified-converter check: the 173-state converter the §5
/// symmetric configuration yields against the weakened at-least-once
/// service, verified on the literal parts with [`verify_system`], the
/// 3,452-state `B ‖ C` the gate's baseline was set on. (The interpreted
/// reference `compose` + `satisfies` takes ~22 ms on this workload — the
/// figure EXPERIMENTS.md EXP-W records; `converter_verdict_with`, which
/// checks the parts' bisimulation minima, is timed beside it in EXP-C5.)
fn exp_w_verify_time() -> f64 {
    let cfg = symmetric_configuration();
    let service = at_least_once();
    let q = solve(&cfg.b, &service, &cfg.int).expect("EXP-W converter exists");
    let (verify_ms, out) =
        best_of_3(|| verify_system(&[&cfg.b, &q.converter], &service).expect("interfaces line up"));
    assert!(out.verdict.is_ok(), "EXP-W converter must verify");
    verify_ms
}

/// Relays `runs` gateway sessions of the Fig. 14 colocated system over
/// the in-process mux loopback with `threads` client threads at one
/// session per connection, each answered inline on its own thread,
/// returning `(accepted_events_per_sec, frames_relayed)`. The
/// gateway's online guard is live for every frame, so this measures
/// the full codec → session table → guard path.
fn loopback_throughput(threads: usize, runs: u64) -> (f64, u64) {
    let cfg = protoquot_protocols::colocated_configuration();
    let service = exactly_once();
    let q = solve(&cfg.b, &service, &cfg.int).expect("Fig. 14 converter exists");
    let gw = Gateway::new(&[&cfg.b, &q.converter], &service, GatewayConfig::default())
        .expect("gateway must compile the system");
    let dcfg = DriveConfig {
        runs,
        threads,
        params: RunParams {
            faults: FaultPlan::parse("loss,dup,reorder").unwrap(),
            ..RunParams::new(0x50AB, 600)
        },
        ..DriveConfig::default()
    };
    let t = Instant::now();
    let report = drive(&[cfg.b, q.converter], &service, &dcfg, || {
        Ok(Box::new(LoopbackMux::new(gw.clone())) as Box<dyn MuxTransport>)
    });
    let secs = t.elapsed().as_secs_f64();
    gw.drain();
    assert!(report.is_clean(), "derived converter must relay clean");
    (report.accepted as f64 / secs, report.frames_sent)
}

/// EXP-R2: the gateway capacity pump. Synthesizes a genuine accepted
/// trace straight off the guard DFA ([`GuardProgram::sample_accepted`])
/// and pushes it through the full loopback wire path — encode → decode
/// → session table → guard → reply — as fast as the gateway takes frames,
/// `threads` client threads each owning a private block of sessions.
///
/// Unlike EXP-R1 this is not simulator-paced: the drive loop spends
/// most of its time scheduling faulted component steps, which caps the
/// measured rate well below what the runtime itself sustains. The pump
/// isolates the per-frame runtime cost of the determinized guard.
/// Returns `(accepted events/sec, frames pumped)`.
fn pump_throughput(threads: usize, sessions_per_thread: u64, trace_len: usize) -> (f64, u64) {
    let cfg = protoquot_protocols::colocated_configuration();
    let service = exactly_once();
    let q = solve(&cfg.b, &service, &cfg.int).expect("Fig. 14 converter exists");
    let gw = Gateway::new(&[&cfg.b, &q.converter], &service, GatewayConfig::default())
        .expect("gateway must compile the system");
    let trace = gw.program().sample_accepted(trace_len);
    assert!(!trace.is_empty(), "colocated system must relay events");
    let t = Instant::now();
    std::thread::scope(|scope| {
        for tid in 0..threads as u64 {
            let gw = gw.clone();
            let trace = &trace;
            scope.spawn(move || {
                let mut conn = LoopbackConn::new(gw);
                for s in 0..sessions_per_thread {
                    let session = tid * sessions_per_thread + s;
                    for &event in trace {
                        match conn.call(&Frame::Event { session, event }) {
                            Ok(Reply::Accepted { .. }) => {}
                            other => panic!("pump frame rejected: {other:?}"),
                        }
                    }
                    let _ = conn.call(&Frame::Close { session });
                }
            });
        }
    });
    let secs = t.elapsed().as_secs_f64();
    gw.drain();
    let snap = gw.stats();
    assert_eq!(snap.convictions, 0, "pumped trace must stay accepted");
    let total = threads as u64 * sessions_per_thread * trace.len() as u64;
    (total as f64 / secs, total)
}

/// EXP-R2 at the guard layer: a sampled accepted trace of `parts`
/// observed straight through one guard implementation per session —
/// the compiled DFA or the subset-replaying reference — with no codec,
/// gateway, or transport in the way. Returns `(events/sec, frames)`.
fn guard_observe_throughput(
    parts: &[&protoquot_spec::Spec],
    service: &protoquot_spec::Spec,
    reference: bool,
    sessions: u64,
    trace_len: usize,
) -> (f64, u64) {
    let prog = Arc::new(GuardProgram::new(parts, service).expect("guard must compile"));
    let trace = prog.sample_accepted(trace_len);
    assert!(!trace.is_empty(), "system must relay events");
    let t = Instant::now();
    for _ in 0..sessions {
        let accepted = if reference {
            let mut guard = SessionGuardReference::new(Arc::clone(&prog));
            trace.iter().all(|&e| guard.observe(e).is_ok())
        } else {
            let mut guard = SessionGuard::new(Arc::clone(&prog));
            trace.iter().all(|&e| guard.observe(e).is_ok())
        };
        assert!(accepted, "sampled trace must stay accepted");
    }
    let total = sessions * trace.len() as u64;
    (total as f64 / t.elapsed().as_secs_f64(), total)
}

/// EXP-R3/R5 pump over a live reactor server on loopback TCP:
/// `clients` threads each multiplex `sessions_per_client` concurrent
/// sessions over **one** socket, pushing a sampled accepted trace
/// through every session in batched rounds (one frame per session per
/// round, replies drained before the next round — so per-session wire
/// order is program order). Returns `(accepted events/sec, frames
/// pumped)`.
fn reactor_pump_throughput(
    clients: usize,
    sessions_per_client: u64,
    trace_len: usize,
) -> (f64, u64) {
    let cfg = protoquot_protocols::colocated_configuration();
    let service = exactly_once();
    let q = solve(&cfg.b, &service, &cfg.int).expect("Fig. 14 converter exists");
    let gw = Gateway::new(&[&cfg.b, &q.converter], &service, GatewayConfig::default())
        .expect("gateway must compile the system");
    let trace = gw.program().sample_accepted(trace_len);
    assert!(!trace.is_empty(), "colocated system must relay events");
    let mut server = ReactorServer::bind(gw.clone(), "127.0.0.1:0", ReactorConfig::default())
        .expect("reactor must bind a loopback port");
    let addr = server.local_addr();
    let t = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients as u64 {
            let trace = &trace;
            scope.spawn(move || {
                let mut conn = MuxClient::connect(addr).expect("connect to reactor");
                let mut replies = Vec::new();
                let base = c * sessions_per_client;
                let mut round = |frames: &mut dyn Iterator<Item = Frame>| {
                    let mut queued = 0u64;
                    for frame in frames {
                        conn.queue(&frame).expect("queue frame");
                        queued += 1;
                    }
                    let mut got = 0u64;
                    while got < queued {
                        conn.exchange(true, &mut replies).expect("exchange");
                        for r in replies.drain(..) {
                            assert!(
                                matches!(r, Reply::Accepted { .. }),
                                "pump frame rejected: {r:?}"
                            );
                            got += 1;
                        }
                    }
                };
                for &event in trace {
                    round(&mut (0..sessions_per_client).map(|s| Frame::Event {
                        session: base + s,
                        event,
                    }));
                }
                round(&mut (0..sessions_per_client).map(|s| Frame::Close { session: base + s }));
            });
        }
    });
    let secs = t.elapsed().as_secs_f64();
    server.stop();
    gw.drain();
    let snap = gw.stats();
    assert_eq!(snap.convictions, 0, "pumped trace must stay accepted");
    let total = clients as u64 * sessions_per_client * trace.len() as u64;
    (total as f64 / secs, total)
}

/// Resident set size of this process in KiB, from `/proc/self/status`
/// (Linux only; `None` elsewhere — EXP-R3 then reports no memory column).
fn vm_rss_kib() -> Option<i64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// One EXP-R3 row over the reactor: `sessions` concurrent sessions
/// multiplexed over a **single** socket, pumped in batched rounds by a
/// single client thread. Returns `(events/sec, frames, rss delta KiB)`.
fn reactor_concurrency_row(sessions: u64, trace_len: usize) -> (f64, u64, i64) {
    let cfg = protoquot_protocols::colocated_configuration();
    let service = exactly_once();
    let q = solve(&cfg.b, &service, &cfg.int).expect("Fig. 14 converter exists");
    let gw = Gateway::new(&[&cfg.b, &q.converter], &service, GatewayConfig::default())
        .expect("gateway must compile the system");
    let trace = gw.program().sample_accepted(trace_len);
    let rss_before = vm_rss_kib().unwrap_or(0);
    let mut server = ReactorServer::bind(gw.clone(), "127.0.0.1:0", ReactorConfig::default())
        .expect("reactor must bind");
    let addr = server.local_addr();
    let mut conn = MuxClient::connect(addr).expect("connect");
    let mut replies = Vec::new();
    let t = Instant::now();
    let mut rss_after = rss_before;
    for (i, &event) in trace.iter().enumerate() {
        for s in 0..sessions {
            conn.queue(&Frame::Event { session: s, event })
                .expect("queue");
        }
        let mut got = 0u64;
        while got < sessions {
            conn.exchange(true, &mut replies).expect("exchange");
            for r in replies.drain(..) {
                assert!(matches!(r, Reply::Accepted { .. }), "rejected: {r:?}");
                got += 1;
            }
        }
        if i == 0 {
            // All sessions are resident after the first round.
            rss_after = vm_rss_kib().unwrap_or(rss_before);
        }
    }
    let secs = t.elapsed().as_secs_f64();
    rss_after = rss_after.max(vm_rss_kib().unwrap_or(0));
    for s in 0..sessions {
        conn.queue(&Frame::Close { session: s })
            .expect("queue close");
    }
    let mut got = 0u64;
    while got < sessions {
        conn.exchange(true, &mut replies).expect("exchange");
        got += replies.drain(..).len() as u64;
    }
    server.stop();
    gw.drain();
    let total = sessions * trace.len() as u64;
    (total as f64 / secs, total, (rss_after - rss_before).max(0))
}

/// Best-of-3 wall time (ms) of subset-constructing the guard DFA for
/// the heaviest builtin system (the EXP-W symmetric converter, ~700
/// external product transitions) — the figure the smoke gate tracks so
/// determinization cost never silently regresses into serve startup.
fn guard_build_time() -> f64 {
    let cfg = symmetric_configuration();
    let service = at_least_once();
    let q = solve(&cfg.b, &service, &cfg.int).expect("EXP-W converter exists");
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let prog = GuardProgram::new(&[&cfg.b, &q.converter], &service)
            .expect("EXP-W system must compile");
        best = best.min(prog.build_stats().build_ms);
    }
    best
}

/// Best-of-3 wall time (ms) of `ConverterRegistry::admit` at one
/// verify thread on nfa-blowup(11)'s artifact (a 14,338-state `B ‖ C`):
/// decode, guard rebuild with the tables-digest check, and the
/// full product check. The smoke gate at 2× the baseline is coarse:
/// it catches admission growing back to the ~34 ms that boxed-tuple
/// interning plus a second compile cost, not one extra compile on its
/// own (~3 ms on a 2-vCPU VM).
fn admit_time() -> f64 {
    let (b, int) = nfa_blowup(11);
    let service = exactly_once();
    let q = solve(&b, &service, &int).expect("nfa-blowup(11) converter exists");
    let bytes = encode(&[&b, &q.converter], &service).expect("artifact encodes");
    let dir = std::env::temp_dir().join(format!("protoquot-smoke-admit-{}", std::process::id()));
    let mut registry = ConverterRegistry::open(&dir, &service, 1).expect("registry opens");
    let (best, _) = best_of_3(|| registry.admit(&bytes).expect("verified artifact admits"));
    let _ = std::fs::remove_dir_all(&dir);
    best
}

/// Best-of-11 wall time (ms) of `CompiledSystem::new` on nfa-blowup(11)'s
/// system (a 14,338-state `B ‖ C`): the n-way product build, its τ*
/// rows and the service's normal form — the compile that verify, guard
/// build and admission each start with, so a regression here names the
/// compile layer rather than one of its three consumers.
fn compile_time() -> f64 {
    let (b, int) = nfa_blowup(11);
    let service = exactly_once();
    let q = solve(&b, &service, &int).expect("nfa-blowup(11) converter exists");
    let mut best = f64::INFINITY;
    for _ in 0..11 {
        let t = Instant::now();
        let system = CompiledSystem::new(&[&b, &q.converter], &service).expect("system compiles");
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            system.composite().n,
            14_338,
            "nfa-blowup(11) composite size"
        );
    }
    best
}

/// Reads one numeric field out of the committed baseline JSON object.
fn baseline_field(value: &serde::Value, field: &str) -> Option<f64> {
    value
        .as_obj()
        .and_then(|o| o.get(field))
        .and_then(|v| match v {
            serde::Value::Float(f) => Some(*f),
            serde::Value::Int(i) => Some(*i as f64),
            _ => None,
        })
}

/// The CI smoke gate (`--quick`): emit `BENCH_smoke.json` and fail on
/// a more-than-2× regression vs the committed baseline of
/// nfa-blowup-11 safety+progress, the EXP-W verified-converter check,
/// the gateway and reactor pumps, the EXP-W guard build, the
/// nfa-blowup-11 registry admission, or the nfa-blowup-11 system
/// compile.
/// Returns the process exit code.
fn quick_smoke() -> i32 {
    let (safety_ms, progress_ms) = nfa_blowup_11_phase_times();
    let total_ms = safety_ms + progress_ms;
    let verify_ms = exp_w_verify_time();
    // Best-of-2 gateway capacity pump at one thread (EXP-R2 workload,
    // scaled down for CI): the determinized guard's per-frame rate.
    let serve_events_per_sec = (0..2)
        .map(|_| pump_throughput(1, 8, 2_048).0)
        .fold(0.0f64, f64::max);
    // Best-of-2 reactor pump (EXP-R3 workload, scaled down for CI): 256
    // sessions multiplexed over one real loopback socket.
    let reactor_events_per_sec = (0..2)
        .map(|_| reactor_pump_throughput(1, 256, 256).0)
        .fold(0.0f64, f64::max);
    let guard_build_ms = guard_build_time();
    let admit_ms = admit_time();
    let compile_ms = compile_time();
    let json = format!(
        "{{\"bench\":\"nfa-blowup-11\",\"safety_ms\":{safety_ms:.3},\
         \"progress_ms\":{progress_ms:.3},\"total_ms\":{total_ms:.3},\
         \"verify_ms\":{verify_ms:.3},\
         \"serve_events_per_sec\":{serve_events_per_sec:.0},\
         \"reactor_events_per_sec\":{reactor_events_per_sec:.0},\
         \"guard_build_ms\":{guard_build_ms:.3},\
         \"admit_ms\":{admit_ms:.3},\
         \"compile_ms\":{compile_ms:.3}}}\n"
    );
    println!(
        "smoke: nfa-blowup-11 safety {safety_ms:.3} ms + progress {progress_ms:.3} ms \
         = {total_ms:.3} ms"
    );
    println!("smoke: EXP-W verified-converter check (literal engine) {verify_ms:.3} ms");
    println!("smoke: gateway capacity pump {serve_events_per_sec:.0} accepted events/s");
    println!("smoke: reactor mux pump {reactor_events_per_sec:.0} accepted events/s");
    println!("smoke: EXP-W guard DFA build {guard_build_ms:.3} ms");
    println!("smoke: nfa-blowup-11 registry admission (1 thread) {admit_ms:.3} ms");
    println!("smoke: nfa-blowup-11 system compile {compile_ms:.3} ms");
    if let Err(e) = std::fs::write("BENCH_smoke.json", &json) {
        eprintln!("smoke: cannot write BENCH_smoke.json: {e}");
        return 1;
    }
    let baseline_path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_BASELINE.json");
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("smoke: cannot read {baseline_path}: {e}");
            return 1;
        }
    };
    let value: serde::Value = match serde_json::from_str(&baseline) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("smoke: {baseline_path} is not valid JSON: {e}");
            return 1;
        }
    };
    let Some(budget_ms) = baseline_field(&value, "total_ms") else {
        eprintln!("smoke: {baseline_path} lacks a numeric `total_ms`");
        return 1;
    };
    println!(
        "smoke: baseline total {budget_ms:.3} ms, gate at {:.3} ms (2x)",
        budget_ms * 2.0
    );
    if total_ms > budget_ms * 2.0 {
        eprintln!(
            "smoke: REGRESSION — nfa-blowup-11 took {total_ms:.3} ms, more than 2x the \
             committed baseline of {budget_ms:.3} ms"
        );
        return 1;
    }
    let Some(verify_budget_ms) = baseline_field(&value, "verify_ms") else {
        eprintln!("smoke: {baseline_path} lacks a numeric `verify_ms`");
        return 1;
    };
    println!(
        "smoke: baseline verify {verify_budget_ms:.3} ms, gate at {:.3} ms (2x)",
        verify_budget_ms * 2.0
    );
    if verify_ms > verify_budget_ms * 2.0 {
        eprintln!(
            "smoke: REGRESSION — the EXP-W verified-converter check took {verify_ms:.3} ms, \
             more than 2x the committed baseline of {verify_budget_ms:.3} ms"
        );
        return 1;
    }
    let Some(serve_budget) = baseline_field(&value, "serve_events_per_sec") else {
        eprintln!("smoke: {baseline_path} lacks a numeric `serve_events_per_sec`");
        return 1;
    };
    println!(
        "smoke: baseline relay {serve_budget:.0} events/s, gate at {:.0} events/s (2x)",
        serve_budget / 2.0
    );
    if serve_events_per_sec < serve_budget / 2.0 {
        eprintln!(
            "smoke: REGRESSION — the gateway relayed {serve_events_per_sec:.0} events/s, \
             less than half the committed baseline of {serve_budget:.0} events/s"
        );
        return 1;
    }
    let Some(reactor_budget) = baseline_field(&value, "reactor_events_per_sec") else {
        eprintln!("smoke: {baseline_path} lacks a numeric `reactor_events_per_sec`");
        return 1;
    };
    println!(
        "smoke: baseline reactor {reactor_budget:.0} events/s, gate at {:.0} events/s (2x)",
        reactor_budget / 2.0
    );
    if reactor_events_per_sec < reactor_budget / 2.0 {
        eprintln!(
            "smoke: REGRESSION — the reactor relayed {reactor_events_per_sec:.0} events/s, \
             less than half the committed baseline of {reactor_budget:.0} events/s"
        );
        return 1;
    }
    let Some(build_budget_ms) = baseline_field(&value, "guard_build_ms") else {
        eprintln!("smoke: {baseline_path} lacks a numeric `guard_build_ms`");
        return 1;
    };
    println!(
        "smoke: baseline guard build {build_budget_ms:.3} ms, gate at {:.3} ms (2x)",
        build_budget_ms * 2.0
    );
    if guard_build_ms > build_budget_ms * 2.0 {
        eprintln!(
            "smoke: REGRESSION — the EXP-W guard DFA took {guard_build_ms:.3} ms to \
             subset-construct, more than 2x the committed baseline of {build_budget_ms:.3} ms"
        );
        return 1;
    }
    let Some(admit_budget_ms) = baseline_field(&value, "admit_ms") else {
        eprintln!("smoke: {baseline_path} lacks a numeric `admit_ms`");
        return 1;
    };
    println!(
        "smoke: baseline admission {admit_budget_ms:.3} ms, gate at {:.3} ms (2x)",
        admit_budget_ms * 2.0
    );
    if admit_ms > admit_budget_ms * 2.0 {
        eprintln!(
            "smoke: REGRESSION — admitting the nfa-blowup-11 artifact took {admit_ms:.3} ms, \
             more than 2x the committed baseline of {admit_budget_ms:.3} ms"
        );
        return 1;
    }
    let Some(compile_budget_ms) = baseline_field(&value, "compile_ms") else {
        eprintln!("smoke: {baseline_path} lacks a numeric `compile_ms`");
        return 1;
    };
    println!(
        "smoke: baseline system compile {compile_budget_ms:.3} ms, gate at {:.3} ms (2x)",
        compile_budget_ms * 2.0
    );
    if compile_ms > compile_budget_ms * 2.0 {
        eprintln!(
            "smoke: REGRESSION — compiling nfa-blowup-11's system took {compile_ms:.3} ms, \
             more than 2x the committed baseline of {compile_budget_ms:.3} ms"
        );
        return 1;
    }
    println!("smoke: OK");
    0
}

fn main() {
    if std::env::args().skip(1).any(|a| a == "--quick") {
        std::process::exit(quick_smoke());
    }
    println!("{}", paper_report());

    println!("== EXP-C1: safety-phase growth (paper §7: worst-case exponential) ==");
    println!(
        "{:>14} {:>10} {:>12} {:>12} {:>12}",
        "family", "param", "|B| states", "C0 states", "safety ms"
    );
    for n in [2usize, 4, 8, 12, 16] {
        let (b, int) = relay_chain(n);
        let na = normalize(&exactly_once());
        let t = Instant::now();
        let s = safety_phase(&b, &na, &int, false, SafetyLimits::default())
            .unwrap()
            .unwrap();
        println!(
            "{:>14} {:>10} {:>12} {:>12} {:>12.3}",
            "relay-chain",
            n,
            b.num_states(),
            s.c0.num_states(),
            t.elapsed().as_secs_f64() * 1e3
        );
    }
    for n in [3usize, 5, 7, 9, 11] {
        let (b, int) = nfa_blowup(n);
        let na = normalize(&exactly_once());
        let t = Instant::now();
        let s = safety_phase(&b, &na, &int, false, SafetyLimits::default())
            .unwrap()
            .unwrap();
        println!(
            "{:>14} {:>10} {:>12} {:>12} {:>12.3}",
            "nfa-blowup",
            n,
            b.num_states(),
            s.c0.num_states(),
            t.elapsed().as_secs_f64() * 1e3
        );
    }
    for n in [2usize, 3, 4, 5, 6] {
        let (b, int) = toggle_puzzle(n);
        let na = normalize(&exactly_once());
        let t = Instant::now();
        let s = safety_phase(&b, &na, &int, false, SafetyLimits::default())
            .unwrap()
            .unwrap();
        println!(
            "{:>14} {:>10} {:>12} {:>12} {:>12.3}",
            "toggle-puzzle",
            n,
            b.num_states(),
            s.c0.num_states(),
            t.elapsed().as_secs_f64() * 1e3
        );
    }

    println!("\n== EXP-C2: progress phase is cheap relative to safety (paper §7) ==");
    println!(
        "{:>14} {:>10} {:>12} {:>12} {:>12} {:>10}",
        "family", "param", "safety ms", "progress ms", "C0 states", "prog iters"
    );
    for w in [1usize, 2, 3] {
        // Windowed services over the relay chain grow the quotient.
        let (b, int) = relay_chain(2 * w + 2);
        let na = normalize(&windowed(w));
        let t0 = Instant::now();
        let s = safety_phase(&b, &na, &int, false, SafetyLimits::default())
            .unwrap()
            .unwrap();
        let safety_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let p = progress_phase(&b, &na, &s);
        let progress_ms = t1.elapsed().as_secs_f64() * 1e3;
        println!(
            "{:>14} {:>10} {:>12.3} {:>12.3} {:>12} {:>10}",
            "relay/window",
            w,
            safety_ms,
            progress_ms,
            s.c0.num_states(),
            p.iterations
        );
    }
    {
        let cfg = protoquot_protocols::colocated_configuration();
        let q = solve(&cfg.b, &exactly_once(), &cfg.int).unwrap();
        println!(
            "{:>14} {:>10} {:>12.3} {:>12.3} {:>12} {:>10}",
            "paper/Fig14",
            "-",
            q.stats.safety_time.as_secs_f64() * 1e3,
            q.stats.progress_time.as_secs_f64() * 1e3,
            q.stats.safety_states,
            q.stats.progress_iterations
        );
        let sym = protoquot_protocols::symmetric_configuration();
        if let Err(protoquot_core::QuotientError::NoProgressingConverter { .. }) =
            solve(&sym.b, &exactly_once(), &sym.int)
        {
            // timings via a fresh phase split
            let na = normalize(&exactly_once());
            let t0 = Instant::now();
            let s = safety_phase(&sym.b, &na, &sym.int, false, SafetyLimits::default())
                .unwrap()
                .unwrap();
            let safety_ms = t0.elapsed().as_secs_f64() * 1e3;
            let t1 = Instant::now();
            let p = progress_phase(&sym.b, &na, &s);
            let progress_ms = t1.elapsed().as_secs_f64() * 1e3;
            println!(
                "{:>14} {:>10} {:>12.3} {:>12.3} {:>12} {:>10}",
                "paper/Fig12",
                "-",
                safety_ms,
                progress_ms,
                s.c0.num_states(),
                p.iterations
            );
        }
    }

    println!("\n== EXP-C2b: progress time vs quotient size (polynomial, §7) ==");
    println!(
        "{:>14} {:>10} {:>12} {:>12} {:>14} {:>12} {:>12} {:>10}",
        "family",
        "param",
        "C0 states",
        "progress ms",
        "ms per state",
        "prod nodes",
        "touched",
        "recomps"
    );
    for n in [5usize, 7, 9, 11] {
        let (b, int) = nfa_blowup(n);
        let na = normalize(&exactly_once());
        let s = safety_phase(&b, &na, &int, false, SafetyLimits::default())
            .unwrap()
            .unwrap();
        let (ms, p) = best_of_3(|| progress_phase(&b, &na, &s));
        assert!(p.converter.is_some());
        println!(
            "{:>14} {:>10} {:>12} {:>12.3} {:>14.5} {:>12} {:>12} {:>10}",
            "nfa-blowup",
            n,
            s.c0.num_states(),
            ms,
            ms / s.c0.num_states() as f64,
            p.stats.product_nodes,
            p.stats.nodes_touched,
            p.stats.tau_star_recomputations
        );
    }

    println!("\n== EXP-F13/BASE/SIM: the co-located problem, derived and simulated ==");
    {
        // The full quotient against the safety-only predecessor on the
        // Fig. 13 problem, then the derived converter in the simulated
        // pipeline (AB sender, lossy channel, converter, NS receiver)
        // under the service monitor, 10 000 steps per loss weight.
        let cfg = colocated_configuration();
        let exact = exactly_once();
        let (full_ms, q) = best_of_3(|| solve(&cfg.b, &exact, &cfg.int).unwrap());
        let (safety_ms, _) =
            best_of_3(|| submodule_construction(&cfg.b, &exact, &cfg.int).unwrap());
        println!("full quotient {full_ms:.3} ms, safety-only (Merlin–Bochmann) {safety_ms:.3} ms");
        for loss in [0u32, 5, 20] {
            let parts = vec![
                ab_sender(),
                ab_channel(),
                q.converter.clone(),
                ns_receiver(),
            ];
            let sim = SimConfig {
                seed: 1,
                max_steps: 10_000,
                internal_weights: vec![(1, loss)],
            };
            let (ms, report) = best_of_3(|| run_monitored(parts.clone(), &exact, &sim));
            assert!(report.is_clean(), "the derived pipeline must run clean");
            let steps_per_sec = report.steps as f64 / ms * 1e3;
            println!("simulated pipeline, loss weight {loss:>2}: {steps_per_sec:>10.0} steps/s");
        }
    }

    println!("\n== EXP-C3: incremental engine vs full-recompute reference ==");
    println!(
        "{:>14} {:>10} {:>12} {:>12} {:>12} {:>8} {:>10} {:>10} {:>16}",
        "family",
        "param",
        "ref ms",
        "incr ms",
        "speedup",
        "iters",
        "grid",
        "product",
        "slice sizes"
    );
    let colocated = protoquot_protocols::colocated_configuration();
    for (label, b, int) in [
        ("relay-chain", relay_chain(12).0, relay_chain(12).1),
        ("nfa-blowup", nfa_blowup(11).0, nfa_blowup(11).1),
        ("toggle-puzzle", toggle_puzzle(6).0, toggle_puzzle(6).1),
        ("paper/Fig14", colocated.b, colocated.int),
    ] {
        let na = normalize(&exactly_once());
        let s = safety_phase(&b, &na, &int, false, SafetyLimits::default())
            .unwrap()
            .unwrap();
        let (ref_ms, pr) = best_of_3(|| protoquot_core::progress_phase_reference(&b, &na, &s));
        let (inc_ms, pi) = best_of_3(|| progress_phase(&b, &na, &s));
        assert_eq!(pr.converter, pi.converter, "engines must agree");
        assert_eq!(pr.iterations, pi.iterations);
        let slices: Vec<String> = pi.stats.slice_sizes.iter().map(|s| s.to_string()).collect();
        println!(
            "{:>14} {:>10} {:>12.3} {:>12.3} {:>11.2}x {:>8} {:>10} {:>10} {:>16}",
            label,
            "-",
            ref_ms,
            inc_ms,
            ref_ms / inc_ms,
            pi.iterations,
            b.num_states() * s.c0.num_states(),
            pi.stats.product_nodes,
            slices.join(",")
        );
    }

    println!("\n== EXP-C4: interned safety engine vs reference transcription ==");
    println!(
        "{:>14} {:>10} {:>10} {:>10} {:>10} {:>10} {:>11} {:>10}",
        "family", "ref ms", "engine ms", "speedup", "states", "trans", "dedup hits", "arena KiB"
    );
    let colocated = protoquot_protocols::colocated_configuration();
    let symmetric = protoquot_protocols::symmetric_configuration();
    for (label, b, int) in [
        ("nfa-blowup-11", nfa_blowup(11).0, nfa_blowup(11).1),
        ("toggle-puzzle-6", toggle_puzzle(6).0, toggle_puzzle(6).1),
        ("paper/Fig14", colocated.b, colocated.int),
        ("paper/Fig12", symmetric.b, symmetric.int),
    ] {
        let na = normalize(&exactly_once());
        let (ref_ms, reference) = best_of_3(|| {
            safety_phase_reference(&b, &na, &int, false, SafetyLimits::default())
                .unwrap()
                .unwrap()
        });
        let (eng_ms, out) = best_of_3(|| {
            safety_engine(&b, &na, &int, false, SafetyLimits::default(), 1)
                .unwrap()
                .unwrap()
        });
        assert_eq!(out.phase.c0, reference.c0, "engines must agree");
        assert_eq!(out.phase.f, reference.f);
        println!(
            "{:>14} {:>10.3} {:>10.3} {:>9.2}x {:>10} {:>10} {:>11} {:>10.1}",
            label,
            ref_ms,
            eng_ms,
            ref_ms / eng_ms,
            out.stats.states,
            out.stats.transitions,
            out.stats.dedup_hits,
            out.stats.arena_bytes as f64 / 1024.0
        );
    }

    println!("\n== EXP-C5: compiled verification engine vs reference oracle ==");
    println!(
        "{:>14} {:>10} {:>10} {:>10} {:>8} {:>8} {:>6} {:>8} {:>10} {:>10} {:>8}",
        "instance",
        "ref ms",
        "engine ms",
        "speedup",
        "states",
        "trans",
        "hubs",
        "pairs",
        "arena KiB",
        "minimal ms",
        "states"
    );
    {
        let colocated = protoquot_protocols::colocated_configuration();
        let symmetric = symmetric_configuration();
        let instances: Vec<(
            &str,
            protoquot_spec::Spec,
            protoquot_spec::Alphabet,
            protoquot_spec::Spec,
        )> = vec![
            (
                "relay-chain-12",
                relay_chain(12).0,
                relay_chain(12).1,
                exactly_once(),
            ),
            (
                "nfa-blowup-11",
                nfa_blowup(11).0,
                nfa_blowup(11).1,
                exactly_once(),
            ),
            ("paper/Fig14", colocated.b, colocated.int, exactly_once()),
            ("EXP-W/sym", symmetric.b, symmetric.int, at_least_once()),
        ];
        for (label, b, int, service) in instances {
            let q = solve(&b, &service, &int).expect("instance has a converter");
            let (ref_ms, reference) =
                best_of_3(|| converter_verdict_reference(&b, &service, &q.converter).unwrap());
            assert!(reference.is_ok(), "{label}: derived converter must verify");
            let (eng_ms, literal) =
                best_of_3(|| verify_system(&[&b, &q.converter], &service).unwrap());
            assert!(literal.verdict.is_ok(), "{label}: engines must agree");
            let (min_ms, (verdict, minimal)) =
                best_of_3(|| converter_verdict_with(&b, &service, &q.converter, 1).unwrap());
            assert!(verdict.is_ok(), "{label}: the minimal check must agree");
            let stats = literal.stats;
            println!(
                "{:>14} {:>10.3} {:>10.3} {:>9.2}x {:>8} {:>8} {:>6} {:>8} {:>10.1} {:>10.3} {:>8}",
                label,
                ref_ms,
                eng_ms,
                ref_ms / eng_ms,
                stats.states,
                stats.transitions,
                stats.hubs,
                stats.pairs,
                stats.arena_bytes as f64 / 1024.0,
                min_ms,
                minimal.states
            );
        }
    }

    println!("\n== EXP-K: mod-k sequence-number scaling (input growth) ==");
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12}",
        "k", "|B| states", "C states", "exists", "total ms"
    );
    for k in [2usize, 3, 4] {
        // Converter between mod-k ABP sender and the NS receiver,
        // co-located (generalising the paper's Fig. 13 problem).
        let sender = protoquot_protocols::modk_sender(k);
        let msgs = protoquot_protocols::modk_messages(k);
        let msg_refs: Vec<&str> = msgs.iter().map(String::as_str).collect();
        let ch = protoquot_protocols::duplex_lossy_channel("ch", &msg_refs, "t_A");
        let n1 = protoquot_protocols::ns_receiver();
        let b = protoquot_spec::compose_all(&[&sender, &ch, &n1]).unwrap();
        let mut int_names: Vec<String> = Vec::new();
        for i in 0..k {
            int_names.push(format!("+d{i}"));
            int_names.push(format!("-a{i}"));
        }
        int_names.push("+D".into());
        int_names.push("-A".into());
        let int: protoquot_spec::Alphabet = int_names.iter().map(String::as_str).collect();
        let t = Instant::now();
        let r = solve(&b, &exactly_once(), &int);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match r {
            Ok(q) => println!(
                "{:>6} {:>12} {:>12} {:>12} {:>12.3}",
                k,
                b.num_states(),
                q.converter.num_states(),
                "yes",
                ms
            ),
            Err(_) => println!(
                "{:>6} {:>12} {:>12} {:>12} {:>12.3}",
                k,
                b.num_states(),
                "-",
                "no",
                ms
            ),
        }
    }

    println!("\n== EXP-NAK: corruption instead of loss (extension) ==");
    {
        use protoquot_protocols::{nak_system_fully_corrupting, nak_system_half_corrupting};
        let half = nak_system_half_corrupting();
        let fullc = nak_system_fully_corrupting();
        println!(
            "half-corrupting NAK system ({} states): exactly-once = {}",
            half.num_states(),
            protoquot_spec::satisfies(&half, &exactly_once())
                .unwrap()
                .is_ok()
        );
        println!(
            "fully-corrupting NAK system ({} states): exactly-once = {}, at-least-once = {}",
            fullc.num_states(),
            protoquot_spec::satisfies(&fullc, &exactly_once())
                .unwrap()
                .is_ok(),
            protoquot_spec::satisfies(&fullc, &protoquot_protocols::at_least_once())
                .unwrap()
                .is_ok()
        );
        let cfg = protoquot_protocols::ab_to_nak_configuration();
        match solve(&cfg.b, &exactly_once(), &cfg.int) {
            Ok(q) => println!(
                "AB→NAK conversion (direct responses): converter DERIVED ({} states)",
                q.converter.num_states()
            ),
            Err(e) => println!("AB→NAK conversion: UNEXPECTED {e}"),
        }
    }

    println!("\n== EXP-DUPLEX: one converter, both directions (extension) ==");
    {
        let cfg = protoquot_protocols::duplex_configuration();
        let service = protoquot_protocols::duplex_service();
        let t = Instant::now();
        match solve(&cfg.b, &service, &cfg.int) {
            Ok(q) => println!(
                "B = {} states, |Int| = {}: bidirectional converter DERIVED \
                 ({} states, {} transitions; safety {} states) in {:.1} ms",
                cfg.b.num_states(),
                cfg.int.len(),
                q.converter.num_states(),
                q.converter.num_external(),
                q.stats.safety_states,
                t.elapsed().as_secs_f64() * 1e3
            ),
            Err(e) => println!("duplex: UNEXPECTED {e}"),
        }
    }

    println!("\n== EXP-FLOW: window flow control (extension) ==");
    {
        use protoquot_protocols::flow_control_configuration;
        use protoquot_protocols::service::windowed as win;
        for (w, c) in [(1usize, 1usize), (2, 2), (3, 2)] {
            let cfg = flow_control_configuration(w, c);
            let t = Instant::now();
            match solve(&cfg.b, &win(w), &cfg.int) {
                Ok(q) => println!(
                    "w={w} cap={c}: B = {} states -> converter {} states / {} transitions \
                     (safety {}) in {:.1} ms",
                    cfg.b.num_states(),
                    q.converter.num_states(),
                    q.converter.num_external(),
                    q.stats.safety_states,
                    t.elapsed().as_secs_f64() * 1e3
                ),
                Err(e) => println!("w={w} cap={c}: UNEXPECTED {e}"),
            }
        }
    }

    println!("\n== EXP-FRONT: the §6 front man (extension) ==");
    {
        let cfg = protoquot_protocols::frontman_configuration();
        let service = protoquot_protocols::two_client_service();
        match solve(&cfg.b, &service, &cfg.int) {
            Ok(q) => println!(
                "B = {} states: front-man converter DERIVED ({} states / {} transitions); \
                 native traffic untouched by construction",
                cfg.b.num_states(),
                q.converter.num_states(),
                q.converter.num_external()
            ),
            Err(e) => println!("front man: UNEXPECTED {e}"),
        }
    }

    println!("\n== EXP-R1: gateway loopback relay throughput ==");
    {
        // The Fig. 14 derived converter executed live: fleet-style
        // faulted schedules relayed frame by frame through the
        // session-multiplexed gateway, with the online conformance
        // guard checking every frame against the compiled B ‖ C
        // product. Accepted events per second, loopback transport.
        println!(
            "{:>8} {:>8} {:>12} {:>14}",
            "threads", "runs", "frames", "events/sec"
        );
        for threads in [1usize, 2, 8] {
            let (events_per_sec, frames) = loopback_throughput(threads, 400);
            println!(
                "{threads:>8} {:>8} {frames:>12} {events_per_sec:>14.0}",
                400
            );
        }
    }

    println!("\n== EXP-R2: guard determinization — gateway capacity pump ==");
    {
        // How fast the runtime itself takes frames once the simulator
        // is out of the loop: a sampled accepted trace pumped through
        // the full loopback wire path on the determinized DFA guard.
        println!(
            "{:>12} {:>8} {:>12} {:>14}",
            "system", "threads", "frames", "events/sec"
        );
        for threads in [1usize, 2, 8] {
            let (events_per_sec, frames) = pump_throughput(threads, 16, 4_096);
            println!(
                "{:>12} {threads:>8} {frames:>12} {events_per_sec:>14.0}",
                "colocated"
            );
        }
        // The same determinization at the guard layer, where the
        // subset-replaying reference is compared: both guards observe
        // one sampled accepted trace per session directly. The
        // reference rows pump fewer frames — they are two to three
        // orders slower per frame. The symmetric system is where
        // determinization earns its keep: its composite subsets reach
        // four digits, so the reference pays a τ-closure over a
        // thousand-state frontier per frame while the DFA still pays
        // one table load.
        let cfg = protoquot_protocols::colocated_configuration();
        let q = solve(&cfg.b, &exactly_once(), &cfg.int).unwrap();
        let sym = symmetric_configuration();
        let qs = solve(&sym.b, &at_least_once(), &sym.int).unwrap();
        let systems = [
            (
                "colocated",
                [&cfg.b, &q.converter],
                exactly_once(),
                4u64,
                512usize,
            ),
            (
                "EXP-W/sym",
                [&sym.b, &qs.converter],
                at_least_once(),
                1,
                128,
            ),
        ];
        println!(
            "{:>12} {:>10} {:>12} {:>14}",
            "system", "guard", "frames", "events/sec"
        );
        for (label, parts, service, ref_sessions, ref_len) in &systems {
            println!(
                "{label} guard: {}",
                GuardProgram::new(parts, service).unwrap().build_stats()
            );
            for (guard, reference, sessions, trace_len) in [
                ("dfa", false, 16u64, 4_096usize),
                ("reference", true, *ref_sessions, *ref_len),
            ] {
                let (events_per_sec, frames) =
                    guard_observe_throughput(parts, service, reference, sessions, trace_len);
                println!("{label:>12} {guard:>10} {frames:>12} {events_per_sec:>14.0}");
            }
        }
    }

    println!("\n== EXP-MIN: the guard serves each part's bisimulation minimum ==");
    {
        // `solve` returns Fig. 6's maximal converter; the guard compiles
        // each part's strong-bisimulation minimum, so `B ‖ C` and its
        // subsets shrink while every verdict stays the literal one's.
        println!(
            "{:>16} {:>6} {:>7} {:>10} {:>10} {:>11} {:>9}",
            "system", "|C|", "|C_min|", "B‖C lit", "B‖C served", "max subset", "guard ms"
        );
        let mut systems: Vec<(String, Spec, Alphabet, Spec)> = (1..=11)
            .map(|n| {
                let (b, int) = nfa_blowup(n);
                (format!("nfa-blowup-{n}"), b, int, exactly_once())
            })
            .collect();
        let (sym, col, gw) = (
            symmetric_configuration(),
            colocated_configuration(),
            gateway_configuration(),
        );
        let (toggle, toggle_int) = toggle_puzzle(6);
        systems.extend([
            ("EXP-W/sym".into(), sym.b, sym.int, at_least_once()),
            ("toggle-puzzle-6".into(), toggle, toggle_int, exactly_once()),
            ("colocated".into(), col.b, col.int, exactly_once()),
            ("gateway".into(), gw.b, gw.int, connection_service()),
        ]);
        for (label, b, int, service) in &systems {
            let c = solve(b, service, int).expect("converter exists").converter;
            let literal = CompiledSystem::new(&[b, &c], service).expect("system compiles");
            let (ms, prog) = best_of_3(|| GuardProgram::new(&[b, &c], service).unwrap());
            println!(
                "{label:>16} {:>6} {:>7} {:>10} {:>10} {:>11} {ms:>9.3}",
                c.num_states(),
                minimize(&c).num_states(),
                literal.composite().n,
                prog.num_states(),
                prog.build_stats().max_subset,
            );
        }
    }

    println!("\n== EXP-R3: reactor concurrency — events/s and memory vs session count ==");
    {
        // How many *concurrent* sessions the reactor carries, and at
        // what cost: every session multiplexed over one socket served
        // by a fixed loop pool. RSS deltas cover the whole process
        // (client and server are in-process here).
        println!(
            "{:>10} {:>10} {:>12} {:>14} {:>12}",
            "sessions", "sockets", "frames", "events/sec", "rss KiB"
        );
        for &sessions in &[1_000u64, 10_000, 100_000] {
            let (evps, frames, rss) = reactor_concurrency_row(sessions, 8);
            println!(
                "{sessions:>10} {:>10} {frames:>12} {evps:>14.0} {rss:>12}",
                1
            );
        }
    }

    println!("\n== EXP-R5: batched dispatch — reactor mux pump ==");
    {
        // The reactor mux pump: each readiness batch answered in
        // arrival order against its connection's own session table,
        // one lookup per frame and no lock, replies coalesced into a
        // single buffered write. Four clients on the default two
        // loops are two connections per loop.
        println!(
            "{:>10} {:>10} {:>12} {:>14}",
            "clients", "sessions", "frames", "batched/s"
        );
        for &(clients, sessions) in &[(1usize, 256u64), (1, 1_024), (2, 512), (4, 256)] {
            let (batched, frames) = (0..2)
                .map(|_| reactor_pump_throughput(clients, sessions, 256))
                .fold((0.0f64, 0u64), |acc, r| (acc.0.max(r.0), r.1));
            println!("{clients:>10} {sessions:>10} {frames:>12} {batched:>14.0}");
        }
    }

    println!("\n== EXP-S1: soak fleet throughput and mutation detection ==");
    {
        // The Fig. 14 derivation under a hostile schedule: loss bias,
        // duplication bias and periodic reordering, fully monitored.
        let cfg = protoquot_protocols::colocated_configuration();
        let q = solve(&cfg.b, &exactly_once(), &cfg.int).unwrap();
        let faults = FaultPlan::parse("loss,dup,reorder").unwrap();
        let fleet = FleetRunner::new(vec![cfg.b.clone(), q.converter.clone()], exactly_once());
        println!(
            "{:>8} {:>8} {:>12} {:>14} {:>12}",
            "threads", "runs", "steps", "steps/sec", "verdict"
        );
        for threads in [1usize, 2, 8] {
            let report = fleet.run(&FleetConfig {
                runs: 2_000,
                threads,
                params: RunParams {
                    faults: faults.clone(),
                    ..RunParams::new(0x50AB, 1_000)
                },
                ..FleetConfig::default()
            });
            println!(
                "{:>8} {:>8} {:>12} {:>14.0} {:>12}",
                threads,
                report.runs,
                report.total_steps,
                report.steps_per_sec,
                if report.is_conforming() {
                    "Conforming"
                } else {
                    "FAIL"
                }
            );
            assert!(report.is_conforming(), "derived converter must soak clean");
        }
        // One redirected transition must be caught, with a short
        // minimized counterexample.
        let broken = redirect_transition(&q.converter, 0).unwrap();
        let report = FleetRunner::new(vec![cfg.b, broken], exactly_once()).run(&FleetConfig {
            runs: 200,
            threads: 8,
            params: RunParams {
                faults,
                ..RunParams::new(0x50AB, 1_000)
            },
            ..FleetConfig::default()
        });
        match report.counterexamples.first() {
            Some(cx) => println!(
                "mutated converter (transition 0 redirected): caught as {} in run {}, \
                 minimized to {} actions / {} events",
                cx.verdict,
                cx.run,
                cx.schedule.len(),
                cx.events.len()
            ),
            None => println!("mutated converter: NOT CAUGHT (unexpected)"),
        }
        assert!(!report.is_conforming(), "mutated converter must be caught");
    }
}
