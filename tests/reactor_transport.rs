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
//!
//! A session id is scoped to its connection: the same id on two
//! connections names two sessions, and a connection's sessions end
//! when it drops.

use protoquot_core::{converter_verdict, solve};
use protoquot_protocols::{colocated_configuration, exactly_once};
use protoquot_runtime::{
    drive, Conn, DriveConfig, DriveReport, Frame, Gateway, GatewayConfig, LoopbackMux, MuxClient,
    MuxTransport, ReactorConfig, ReactorServer, Reply, TcpConn,
};
use protoquot_sim::{redirect_transition, FaultPlan, RunParams};
use protoquot_spec::{EventId, Spec};
use std::time::{Duration, Instant};

fn config(runs: u64, threads: usize, sessions_per_conn: u64) -> DriveConfig {
    DriveConfig {
        runs,
        threads,
        params: RunParams {
            faults: FaultPlan::parse("loss,dup,reorder").unwrap(),
            ..RunParams::new(0x5EAC_7012, 400)
        },
        sessions_per_conn,
        ..DriveConfig::default()
    }
}

/// A fresh gateway per campaign, so each campaign's stats are its own.
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
        params: RunParams {
            faults: FaultPlan::parse("loss").unwrap(),
            ..RunParams::new(0x1000_5E55, 120)
        },
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

/// The colocated system's derived converter behind a reactor, and two
/// plain connections to it.
fn two_connections() -> (Gateway, ReactorServer, TcpConn, TcpConn) {
    let system = colocated_configuration();
    let service = exactly_once();
    let q = solve(&system.b, &service, &system.int).expect("colocated converter derives");
    let gw = gateway(&[system.b, q.converter], &service);
    let server =
        ReactorServer::bind(gw.clone(), "127.0.0.1:0", ReactorConfig::default()).expect("bind");
    let a = TcpConn::connect(server.local_addr()).expect("connect A");
    let b = TcpConn::connect(server.local_addr()).expect("connect B");
    (gw, server, a, b)
}

fn event(gw: &Gateway, session: u64, name: &str) -> Frame {
    gw.codec()
        .event_frame(session, EventId::new(name))
        .expect("event on the wire")
}

/// Polls `gw`'s stats until `pred` holds or five seconds pass.
fn eventually(gw: &Gateway, pred: impl Fn(&protoquot_runtime::StatsSnapshot) -> bool) -> bool {
    let until = Instant::now() + Duration::from_secs(5);
    while Instant::now() < until {
        if pred(&gw.stats()) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

/// B's `acc` on the id of A's open session is judged on B's own fresh
/// session, so it is accepted and leaves A's session as it was.
#[test]
fn same_id_on_two_connections_is_two_sessions() {
    let (gw, mut server, mut a, mut b) = two_connections();
    let accepted = Ok(Reply::Accepted { session: 5 });
    assert_eq!(a.call(&event(&gw, 5, "acc")).map_err(drop), accepted);
    assert_eq!(b.call(&event(&gw, 5, "acc")).map_err(drop), accepted);
    assert_eq!(a.call(&event(&gw, 5, "del")).map_err(drop), accepted);
    assert_eq!(b.call(&event(&gw, 5, "del")).map_err(drop), accepted);
    server.stop();
    let snap = gw.stats();
    assert_eq!((snap.sessions_opened, snap.convictions), (2, 0));
}

/// A `Close` from B on the id of A's session is answered on B's own
/// table, where the id names no session, and touches nothing of A's.
#[test]
fn foreign_close_touches_nothing() {
    let (gw, mut server, mut a, mut b) = two_connections();
    let accepted = Ok(Reply::Accepted { session: 6 });
    assert_eq!(a.call(&event(&gw, 6, "acc")).map_err(drop), accepted);
    assert_eq!(b.call(&Frame::Close { session: 6 }).map_err(drop), accepted);
    assert_eq!(a.call(&event(&gw, 6, "del")).map_err(drop), accepted);
    server.stop();
}

/// Dropping a connection ends its open sessions at once, so the
/// converter version they drained retires without any idle sweep (the
/// gateway's idle timeout is the default 30 s).
#[test]
fn dropping_a_connection_ends_its_sessions() {
    let (gw, mut server, mut a, b) = two_connections();
    for session in 1..=3 {
        let reply = a.call(&event(&gw, session, "acc")).expect("acc answered");
        assert_eq!(reply, Reply::Accepted { session });
    }
    let reply = a
        .call(&Frame::Close { session: 3 })
        .expect("close answered");
    assert_eq!(reply, Reply::Accepted { session: 3 });
    gw.swap(2, gw.program()).expect("swap to v2");
    assert_eq!(gw.stats().version_sessions, vec![(1, 2)]);
    drop((a, b));
    assert!(
        eventually(&gw, |s| s.sessions_active == 0 && s.versions_retired == 1),
        "sessions outlived their connection: {}",
        gw.stats()
    );
    let snap = gw.stats();
    assert_eq!((snap.sessions_closed, snap.sessions_evicted), (1, 2));
    assert_eq!(snap.version_sessions, vec![]);
    server.stop();
}
