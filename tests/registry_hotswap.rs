//! Registry admission and live hot-swap, end to end over real sockets:
//!
//! 1. **A verified v2 swap under load is invisible** — a drive campaign
//!    running across the swap finishes with zero convictions, zero
//!    rejections, and zero dropped sessions, while a session opened
//!    before the swap drains cleanly on the old converter and the old
//!    version retires at zero sessions.
//! 2. **A mutant artifact is refused at admission** — an internally
//!    consistent compiled artifact whose converter fails `verify_system`
//!    never reaches the gateway: the registry refuses it, nothing is
//!    stored, and the old version keeps serving.
//! 3. **The swap gate holds** — stale version numbers and alien event
//!    tables are refused by `Gateway::swap` itself.

use protoquot_core::solve;
use protoquot_protocols::{colocated_configuration, exactly_once};
use protoquot_runtime::{
    artifact, drive, table_hash, Conn, ConnLimits, ConverterRegistry, DriveConfig, Frame, Gateway,
    GatewayConfig, GuardProgram, MuxClient, MuxTransport, ReactorConfig, ReactorServer,
    RegistryError, StatsSnapshot, TcpConn,
};
use protoquot_sim::{redirect_transition, RunParams};
use protoquot_spec::{EventTable, Spec};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn derived_system() -> (Vec<Spec>, Spec) {
    let system = colocated_configuration();
    let service = exactly_once();
    let q = solve(&system.b, &service, &system.int).expect("colocated converter derives");
    (vec![system.b, q.converter], service)
}

fn tempdir(tag: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("protoquot-hotswap-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Polls `gw` stats until `pred` holds or the deadline passes.
fn wait_for(gw: &Gateway, deadline: Duration, pred: impl Fn(&StatsSnapshot) -> bool) -> bool {
    let until = Instant::now() + deadline;
    while Instant::now() < until {
        if pred(&gw.stats()) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

fn sessions_on(snap: &StatsSnapshot, version: u32) -> u64 {
    snap.version_sessions
        .iter()
        .find(|(v, _)| *v == version)
        .map(|(_, n)| *n)
        .unwrap_or(0)
}

/// A verified v2 artifact admitted mid-traffic swaps the gateway with
/// zero convictions and zero dropped sessions; a session opened before
/// the swap drains on v1, which retires at zero sessions.
#[test]
fn verified_swap_under_load_is_invisible() {
    let (components, service) = derived_system();
    let parts: Vec<&Spec> = components.iter().collect();
    let gw = Gateway::new(&parts, &service, GatewayConfig::default()).expect("gateway");
    let hash = table_hash(&EventTable::new(service.alphabet()));
    assert_eq!(
        gw.table_hash(),
        hash,
        "wire identity derives from the service"
    );

    let mut server = ReactorServer::bind(
        gw.clone(),
        "127.0.0.1:0",
        ReactorConfig {
            loops: 2,
            limits: ConnLimits {
                require_hello: true,
                ..ConnLimits::default()
            },
            ..ReactorConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    // A pinned session born on v1, held open across the swap. Its id
    // sits far above the drive campaign's run-indexed session ids.
    const PINNED: u64 = 1 << 40;
    let mut pinned = TcpConn::connect_negotiated(addr, hash).expect("negotiated connect");
    let reply = pinned
        .call(&Frame::Event {
            session: PINNED,
            event: 0,
        })
        .expect("pinned session opens");
    assert_eq!(reply.session(), PINNED);
    assert!(wait_for(&gw, Duration::from_secs(5), |s| {
        sessions_on(s, 1) == 1
    }));

    // Traffic in flight while the swap lands.
    let cfg = DriveConfig {
        runs: 120,
        threads: 4,
        params: RunParams::new(0xD0_5EED, 400),
        ..DriveConfig::default()
    };
    let driver = {
        let (components, service) = (components.clone(), service.clone());
        std::thread::spawn(move || {
            drive(&components, &service, &cfg, move || {
                MuxClient::connect_negotiated(addr, hash)
                    .map(|c| Box::new(c) as Box<dyn MuxTransport>)
            })
        })
    };

    // Admit a freshly encoded, re-verified artifact as v2 and swap.
    let dir = tempdir("swap");
    let mut registry =
        ConverterRegistry::open(&dir, &service, gw.active_version()).expect("registry opens");
    let bytes = artifact::encode(&parts, &service).expect("artifact encodes");
    let admitted = registry.admit(&bytes).expect("verified artifact admits");
    assert_eq!(admitted.version, 2);
    assert_eq!(admitted.table_hash, hash);
    gw.swap(admitted.version, Arc::clone(&admitted.program))
        .expect("swap to the admitted version");
    assert_eq!(gw.active_version(), 2);

    let report = driver.join().expect("driver thread");
    assert!(
        report.is_clean(),
        "swap under load dropped or convicted traffic: {}",
        report.to_json()
    );
    assert!(report.runs == 120 && report.accepted > 0);

    // The pinned v1 session still drains on its birth program: the
    // per-version table shows v1 holding it (and possibly campaign
    // sessions born before the swap landed) post-swap.
    let snap = gw.stats();
    assert_eq!(snap.active_version, 2);
    assert_eq!(snap.swaps, 1);
    assert!(
        sessions_on(&snap, 1) >= 1,
        "pinned session must drain on v1: {snap}"
    );
    let reply = pinned
        .call(&Frame::Event {
            session: PINNED,
            event: 1,
        })
        .expect("pinned session survives the swap");
    assert_eq!(reply.session(), PINNED);
    pinned
        .call(&Frame::Close { session: PINNED })
        .expect("pinned session closes");
    drop(pinned);

    // v1 retires once its last session is gone: every session ends
    // with its connection, no idle sweep needed.
    let until = Instant::now() + Duration::from_secs(10);
    loop {
        let s = gw.stats();
        if s.versions_retired == 1 && sessions_on(&s, 1) == 0 {
            break;
        }
        assert!(Instant::now() < until, "drained v1 never retired: {s}");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(gw.stats().convictions, 0, "a clean swap convicts nobody");
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A mutant converter — internally consistent as an artifact, but no
/// longer satisfying the service — is refused at admission: nothing is
/// stored, no version number is burned, and the running gateway keeps
/// serving v1.
#[test]
fn mutant_artifact_is_refused_and_old_version_keeps_serving() {
    let (components, service) = derived_system();
    let parts: Vec<&Spec> = components.iter().collect();
    let gw = Gateway::new(&parts, &service, GatewayConfig::default()).expect("gateway");
    let mut server =
        ReactorServer::bind(gw.clone(), "127.0.0.1:0", ReactorConfig::default()).expect("bind");
    let addr = server.local_addr();

    let dir = tempdir("mutant");
    let mut registry =
        ConverterRegistry::open(&dir, &service, gw.active_version()).expect("registry opens");

    // Some single-transition redirect of the converter that still
    // encodes and instantiates, but fails re-verification.
    let mut refused = 0;
    for k in 0..16 {
        let Some(mutant) = redirect_transition(&components[1], k) else {
            continue;
        };
        let mutated = [&components[0], &mutant];
        let Ok(bytes) = artifact::encode(&mutated, &service) else {
            continue;
        };
        match registry.admit(&bytes) {
            Err(RegistryError::Refused(msg)) => {
                assert!(
                    msg.contains("does not satisfy"),
                    "refusal must name the contract: {msg}"
                );
                refused += 1;
            }
            Err(other) => panic!("mutant refused for the wrong reason: {other}"),
            Ok(admitted) => {
                // A behaviour-preserving redirect: legitimately
                // admitted, but never swapped in by this test.
                assert!(admitted.version >= 2);
            }
        }
    }
    assert!(refused > 0, "no mutant exercised the admission gate");

    // Nothing refused was stored, and the gateway never moved off v1.
    let stored = registry.stored().expect("store listing");
    assert_eq!(
        stored.len() as u32,
        registry.next_version() - 2,
        "refused artifacts must not be stored"
    );
    assert_eq!(gw.active_version(), 1);

    // v1 still serves after the refusals.
    let mut conn = TcpConn::connect(addr).expect("connect");
    let reply = conn
        .call(&Frame::Event {
            session: 9,
            event: 0,
        })
        .expect("old version keeps serving");
    assert_eq!(reply.session(), 9);
    assert_eq!(gw.stats().convictions, 0);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Gateway::swap` itself refuses stale version numbers and alien
/// event tables, independent of the registry.
#[test]
fn swap_gate_refuses_stale_versions_and_alien_tables() {
    let (components, service) = derived_system();
    let parts: Vec<&Spec> = components.iter().collect();
    let gw = Gateway::new(&parts, &service, GatewayConfig::default()).expect("gateway");
    let prog = Arc::new(GuardProgram::new(&parts, &service).expect("program"));

    // Not strictly newer than the active version.
    assert!(gw.swap(1, Arc::clone(&prog)).is_err());
    assert!(gw.swap(0, Arc::clone(&prog)).is_err());

    // A different service alphabet means a different event table, and
    // so a different wire identity: refused regardless of version.
    let mut b = protoquot_spec::SpecBuilder::new("alien-contract");
    let s0 = b.state("s0");
    for e in ["zig", "zag"] {
        b.ext(s0, e, s0);
    }
    let alien_service = b.build().expect("alien service builds");
    let alien = GuardProgram::new(&[&alien_service], &alien_service).expect("alien program");
    assert!(
        gw.swap(2, Arc::new(alien)).is_err(),
        "an alien event table must be refused"
    );

    // The well-formed successor is still accepted afterwards.
    gw.swap(2, prog).expect("legitimate swap");
    assert_eq!(gw.active_version(), 2);
}
