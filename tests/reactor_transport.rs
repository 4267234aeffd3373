//! Cross-transport differential: the drive report is a property of the
//! *system and schedule*, not of the carrier. The same campaign config
//! must produce byte-identical [`DriveReport`] JSON over
//!
//! * the in-memory loopback (no socket at all),
//! * the reactor server driven with one session per connection (the
//!   lockstep shape), and
//! * the reactor server driven by multiplexed sessions
//!   (`sessions_per_conn` > 1 over a [`MuxClient`]),
//!
//! for a statically verified converter *and* for a rejected mutant —
//! i.e. conviction outcomes agree across carriers frame for frame.
//! The loopback, which never touches a socket, is the oracle for the
//! reactor.

use protoquot_core::{converter_verdict, solve};
use protoquot_protocols::{colocated_configuration, exactly_once};
use protoquot_runtime::{
    drive, DriveConfig, DriveReport, Gateway, GatewayConfig, LoopbackMux, MuxClient, MuxTransport,
    ReactorConfig, ReactorServer,
};
use protoquot_sim::{redirect_transition, FaultPlan};
use protoquot_spec::Spec;

fn config(runs: u64, threads: usize, sessions_per_conn: u64) -> DriveConfig {
    DriveConfig {
        runs,
        threads,
        seed: 0x5EAC_7012,
        max_steps: 400,
        faults: FaultPlan::parse("loss,dup,reorder").unwrap(),
        sessions_per_conn,
        ..DriveConfig::default()
    }
}

/// A fresh gateway per campaign: closed sessions are tombstoned until
/// idle eviction, and every campaign reuses run indices as session ids.
fn gateway(components: &[Spec], service: &Spec) -> Gateway {
    let parts: Vec<&Spec> = components.iter().collect();
    Gateway::new(&parts, service, GatewayConfig::default())
        .expect("gateway must compile the system")
}

/// One campaign over the named carrier, with its own server teardown.
/// `reactor-lockstep` drives the config at one session per connection.
fn campaign(
    carrier: &str,
    components: &[Spec],
    service: &Spec,
    cfg: &DriveConfig,
) -> (DriveReport, u64, u64) {
    let gw = gateway(components, service);
    let report = match carrier {
        "loopback" => drive(components, service, cfg, || {
            Ok(Box::new(LoopbackMux::new(gw.clone())) as Box<dyn MuxTransport>)
        }),
        "reactor-lockstep" | "reactor-mux" => {
            let mut server =
                ReactorServer::bind(gw.clone(), "127.0.0.1:0", ReactorConfig::default())
                    .expect("bind");
            let addr = server.local_addr();
            let shaped = DriveConfig {
                sessions_per_conn: if carrier == "reactor-lockstep" {
                    1
                } else {
                    cfg.sessions_per_conn
                },
                ..cfg.clone()
            };
            let report = drive(components, service, &shaped, move || {
                MuxClient::connect(addr).map(|c| Box::new(c) as Box<dyn MuxTransport>)
            });
            server.stop();
            report
        }
        other => panic!("unknown carrier {other}"),
    };
    gw.drain();
    let snap = gw.stats();
    assert_eq!(
        snap.convictions, report.convicted_runs,
        "{carrier}: gateway conviction counter disagrees with the drive report"
    );
    (report, snap.connections_opened, snap.connections_closed)
}

#[test]
fn reports_identical_across_all_transports() {
    let system = colocated_configuration();
    let service = exactly_once();
    let q = solve(&system.b, &service, &system.int).expect("colocated converter derives");
    let mutant = (0..8)
        .find_map(|k| {
            let m = redirect_transition(&q.converter, k)?;
            let ok = converter_verdict(&system.b, &service, &m)
                .map(|v| v.is_ok())
                .unwrap_or(false);
            (!ok).then_some(m)
        })
        .expect("some single-transition mutant is statically rejected");

    for (label, converter, expect_clean) in
        [("derived", &q.converter, true), ("mutant", &mutant, false)]
    {
        let components = [system.b.clone(), converter.clone()];
        let cfg = config(32, 2, 8);
        let (baseline, _, _) = campaign("loopback", &components, &service, &cfg);
        assert_eq!(
            baseline.is_clean(),
            expect_clean,
            "{label}: unexpected loopback verdict: {baseline}"
        );
        if expect_clean {
            assert!(baseline.accepted > 0, "{label}: campaign relayed nothing");
        } else {
            assert!(baseline.convicted_runs > 0, "{label}: no convictions");
        }
        for carrier in ["reactor-lockstep", "reactor-mux"] {
            let (report, opened, closed) = campaign(carrier, &components, &service, &cfg);
            assert_eq!(
                baseline.to_json(),
                report.to_json(),
                "{label}: {carrier} diverges from the loopback baseline"
            );
            assert!(opened > 0, "{label}: {carrier} opened no connections");
            assert_eq!(
                opened, closed,
                "{label}: {carrier} leaked connections ({opened} opened, {closed} closed)"
            );
        }
    }
}

/// Client-side pipelining composes with the server's batched dispatch:
/// a clean campaign driven with a deep speculation window over the
/// multiplexed reactor produces the same report as the unpipelined
/// campaign at one session per connection.
#[test]
fn pipelined_reactor_campaigns_match_lockstep() {
    let system = colocated_configuration();
    let service = exactly_once();
    let q = solve(&system.b, &service, &system.int).expect("colocated converter derives");
    let components = [system.b.clone(), q.converter.clone()];
    let cfg = config(24, 2, 8);
    let (baseline, _, _) = campaign("reactor-lockstep", &components, &service, &cfg);
    assert!(baseline.is_clean(), "verified converter convicted");
    for pipeline in [4u64, 16] {
        let piped_cfg = DriveConfig {
            pipeline,
            ..config(24, 2, 8)
        };
        let (piped, _, _) = campaign("reactor-mux", &components, &service, &piped_cfg);
        assert_eq!(
            baseline.to_json(),
            piped.to_json(),
            "pipeline depth {pipeline} changed the reactor campaign report"
        );
    }
}

/// The multiplexed driver holds a thousand concurrent sessions per
/// connection over the reactor without convictions, transport errors,
/// or report divergence — a scaled-down rehearsal of the 100k+ target
/// documented in EXPERIMENTS.md (EXP-R3).
#[test]
fn reactor_sustains_a_thousand_sessions_per_connection() {
    let system = colocated_configuration();
    let service = exactly_once();
    let q = solve(&system.b, &service, &system.int).expect("colocated converter derives");
    let components = [system.b.clone(), q.converter.clone()];
    let cfg = DriveConfig {
        runs: 2000,
        threads: 2,
        seed: 0x1000_5E55,
        max_steps: 120,
        faults: FaultPlan::parse("loss").unwrap(),
        sessions_per_conn: 1000,
        ..DriveConfig::default()
    };
    let gw = gateway(&components, &service);
    let mut server =
        ReactorServer::bind(gw.clone(), "127.0.0.1:0", ReactorConfig::default()).expect("bind");
    let addr = server.local_addr();
    let report = drive(&components, &service, &cfg, move || {
        MuxClient::connect(addr).map(|c| Box::new(c) as Box<dyn MuxTransport>)
    });
    server.stop();
    gw.drain();
    assert_eq!(report.runs, 2000);
    assert!(report.is_clean(), "verified converter convicted: {report}");
    assert!(report.accepted > 0, "no frames relayed");
    let snap = gw.stats();
    // 2000 sessions crossed at most two sockets.
    assert!(
        snap.connections_opened <= 2,
        "expected at most one connection per driver thread, saw {}",
        snap.connections_opened
    );
    assert_eq!(snap.sessions_opened, 2000, "every run is one session");
}
