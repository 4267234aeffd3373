//! Adversarial wire robustness, pinned end to end.
//!
//! Four properties, all over real sockets:
//!
//! 1. **Torn/garbage bytes at every offset through the reactor** — the
//!    `read_frame` codec path already has per-offset coverage; here
//!    the same hostile prefixes go through the epoll reactor, which
//!    must cut every damaged connection (counted as a `protocol`
//!    eviction) and keep serving honest ones.
//! 2. **Session floods evict, never stall** — the same lockstep flood
//!    against reactors with one and with four event loops must be
//!    answered in full (no stall) and produce *identical*
//!    deterministic stats: the reject histogram, session counts, and
//!    eviction taxonomy cannot depend on the loop count.
//! 3. **Slow consumers are counted evictions** — a client that writes
//!    frames but never reads replies must be dropped once the reactor's
//!    outbound buffer cap is hit, and the drop must be visible in
//!    `RuntimeStats` as a `slow_consumer` eviction (the regression for
//!    the formerly silent 4 MiB-cap drop).
//! 4. **The adversarial campaign is loop-count invariant** — the full
//!    `drive --adversarial` battery against identically configured
//!    reactors with one and with four event loops must produce
//!    byte-identical report JSON, with every attack neutralized. Hello
//!    refusal bytes are pinned the same way.

use protoquot_core::solve;
use protoquot_protocols::{colocated_configuration, exactly_once};
use protoquot_runtime::{
    adversarial, table_hash, AdversarialConfig, Conn, ConnLimits, Frame, Gateway, GatewayConfig,
    ReactorConfig, ReactorServer, StatsSnapshot, TcpConn,
};
use protoquot_spec::{EventTable, Spec};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

fn derived_system() -> (Vec<Spec>, Spec) {
    let system = colocated_configuration();
    let service = exactly_once();
    let q = solve(&system.b, &service, &system.int).expect("colocated converter derives");
    (vec![system.b, q.converter], service)
}

fn gateway(components: &[Spec], service: &Spec, cfg: GatewayConfig) -> Gateway {
    let parts: Vec<&Spec> = components.iter().collect();
    Gateway::new(&parts, service, cfg).expect("gateway must compile the system")
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

fn evictions(snap: &StatsSnapshot, reason: &str) -> u64 {
    snap.conn_evictions
        .iter()
        .find(|(r, _)| *r == reason)
        .map(|(_, n)| *n)
        .expect("eviction taxonomy covers every reason")
}

/// Hostile prefixes at every offset through the reactor: a valid
/// three-frame stream torn at byte `k`, and the same stream with a
/// corrupting 0xFF spliced in at byte `k`. Every damaged connection is
/// cut (or, for tears at message boundaries, served cleanly); the
/// server answers an honest connection afterwards.
#[test]
fn reactor_survives_torn_and_garbage_bytes_at_every_offset() {
    let (components, service) = derived_system();
    let gw = gateway(&components, &service, GatewayConfig::default());
    let mut server = ReactorServer::bind(
        gw.clone(),
        "127.0.0.1:0",
        ReactorConfig {
            loops: 1,
            ..ReactorConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    // A valid wire stream: Event, Stall, Close on one session.
    let mut stream_bytes = Vec::new();
    for frame in [
        Frame::Event {
            session: 9,
            event: 0,
        },
        Frame::Stall { session: 9 },
        Frame::Close { session: 9 },
    ] {
        protoquot_runtime::codec::encode_frame(&frame, &mut stream_bytes);
    }

    // Torn at every offset: send a strict prefix, then EOF.
    for k in 0..stream_bytes.len() {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        conn.write_all(&stream_bytes[..k]).expect("prefix write");
        conn.shutdown(Shutdown::Write).expect("half-close");
        // Drain whatever replies the complete frames earned; the
        // server must close the connection promptly either way.
        let mut sink = Vec::new();
        conn.read_to_end(&mut sink)
            .expect("server must close a torn connection, not stall it");
    }

    // Garbage at every offset: valid bytes up to `k`, then 0xFF as a
    // wrecked length prefix once the next message starts.
    for k in 0..stream_bytes.len() {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Enough 0xFF to both complete any partially sent payload
        // (≤ 14 bytes outstanding) and still leave a wrecked length
        // prefix for the message after it.
        let mut bytes = stream_bytes[..k].to_vec();
        bytes.extend_from_slice(&[0xFF; 24]);
        conn.write_all(&bytes).expect("garbage write");
        let mut sink = Vec::new();
        conn.read_to_end(&mut sink)
            .expect("server must cut a garbage connection, not stall it");
    }

    // Damage was counted: every mid-message tear and every corrupt
    // length prefix is a protocol eviction. (Tears at message
    // boundaries are clean closes, not evictions.)
    let snap = gw.stats();
    assert!(
        evictions(&snap, "protocol") > 0,
        "protocol damage left no eviction trace: {snap}"
    );

    // An honest client is still served.
    let mut honest = TcpConn::connect(addr).expect("connect after the abuse");
    let reply = honest
        .call(&Frame::Event {
            session: 777,
            event: 0,
        })
        .expect("honest call after the abuse");
    assert_eq!(reply.session(), 777);
    server.stop();
}

/// The deterministic fields of a snapshot, serialized for equality:
/// everything scheduling-independent that a lockstep campaign pins.
fn deterministic_stats(snap: &StatsSnapshot) -> String {
    format!(
        "opened={} closed={} expelled={} rejects={:?} evictions={:?} accepted={} frames={}",
        snap.sessions_opened,
        snap.sessions_closed,
        snap.sessions_expelled,
        snap.rejects,
        snap.conn_evictions,
        snap.accepted,
        snap.frames,
    )
}

/// A session flood over one connection against a capped server:
/// everything past the cap bounces with `resource_limit`, every frame
/// is answered (no stall), and the resulting stats are identical at 1
/// and 4 event loops.
#[test]
fn session_flood_is_evicted_not_stalled_at_any_loop_count() {
    let (components, service) = derived_system();
    let mut stats = Vec::new();
    for loops in [1usize, 4] {
        let gw = gateway(&components, &service, GatewayConfig::default());
        let mut server = ReactorServer::bind(
            gw.clone(),
            "127.0.0.1:0",
            ReactorConfig {
                loops,
                limits: ConnLimits {
                    max_sessions_per_conn: 8,
                    ..ConnLimits::default()
                },
                ..ReactorConfig::default()
            },
        )
        .expect("bind");
        let addr = server.local_addr();
        let mut conn = TcpConn::connect(addr).expect("connect");
        // 64 fresh sessions on one connection, lockstep. The first 8
        // are admitted; 56 bounce at the transport with
        // `resource_limit` before ever touching the gateway table.
        for s in 0..64u64 {
            let reply = conn
                .call(&Frame::Event {
                    session: s,
                    event: 0,
                })
                .expect("flood frame must be answered, not stalled");
            assert_eq!(reply.session(), s, "reply misattributed");
        }
        // Close the admitted ones so the accounting is settled.
        for s in 0..64u64 {
            conn.call(&Frame::Close { session: s })
                .expect("close must be answered");
        }
        server.stop();
        stats.push(deterministic_stats(&gw.stats()));
    }
    assert_eq!(
        stats[0], stats[1],
        "flood accounting depends on the loop count"
    );
    assert!(
        stats[0].contains("(\"resource_limit\", 56)"),
        "cap overflow must bounce with resource_limit: {}",
        stats[0]
    );
}

/// A client that writes frames and never reads replies must be dropped
/// once the reactor's outbound cap is exceeded — and the drop is a
/// counted `slow_consumer` eviction, not a silent disappearance.
#[test]
fn slow_consumer_is_a_counted_eviction() {
    let (components, service) = derived_system();
    let gw = gateway(&components, &service, GatewayConfig::default());
    let mut server = ReactorServer::bind(
        gw.clone(),
        "127.0.0.1:0",
        ReactorConfig {
            loops: 1,
            // Tiny cap so the kernel's socket buffers are the only
            // slack a non-reading client gets.
            outbuf_cap: 4 << 10,
            ..ReactorConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let mut conn = TcpStream::connect(addr).expect("connect");
    // Pin the client's kernel receive buffer tiny. An explicit size
    // switches off receive autotuning, so the kernel cannot quietly
    // absorb tens of megabytes of replies on behalf of a client that
    // never reads — the reactor's own cap becomes the binding limit.
    reactor::set_recv_buffer(conn.as_raw_fd(), 4096).expect("clamp client rcvbuf");
    let mut chunk = Vec::new();
    for i in 0..4096u64 {
        protoquot_runtime::codec::encode_frame(
            &Frame::Event {
                session: i % 4,
                event: 0,
            },
            &mut chunk,
        );
    }
    // Keep pouring frames without ever reading replies. The kernel's
    // socket buffers (bounded by rmem_max + wmem_max) absorb replies
    // for a while; once they are full the reactor's 4 KiB cap trips
    // and the server cuts us — a failed write IS the eviction landing.
    let deadline = Instant::now() + Duration::from_secs(60);
    while Instant::now() < deadline {
        if conn.write_all(&chunk).is_err() {
            break;
        }
        if evictions(&gw.stats(), "slow_consumer") > 0 {
            break;
        }
    }
    // The counter is bumped before the drop, so it is visible at the
    // latest shortly after the write side starts failing.
    let evicted = wait_for(&gw, Duration::from_secs(5), |snap| {
        evictions(snap, "slow_consumer") > 0
    });
    let snap = gw.stats();
    assert!(
        evicted,
        "non-reading client was never evicted as a slow consumer: {snap}"
    );
    drop(conn);
    // The pool is not wedged: an honest client still gets answers.
    let mut honest = TcpConn::connect(addr).expect("connect after eviction");
    let reply = honest
        .call(&Frame::Event {
            session: 999_999,
            event: 0,
        })
        .expect("honest call after slow-consumer eviction");
    assert_eq!(reply.session(), 999_999);
    server.stop();
}

/// Writes `lead` to a fresh connection against a strict-hello server,
/// half-closes, and returns every byte the server answered before
/// cutting the connection.
fn refusal_bytes(addr: std::net::SocketAddr, lead: &[u8]) -> Vec<u8> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    conn.write_all(lead).expect("lead write");
    conn.shutdown(Shutdown::Write).expect("half-close");
    let mut bytes = Vec::new();
    conn.read_to_end(&mut bytes)
        .expect("server must cut a refused connection, not stall it");
    bytes
}

fn rejects(snap: &StatsSnapshot, reason: &str) -> u64 {
    snap.rejects
        .iter()
        .find(|(r, _)| *r == reason)
        .map(|(_, n)| *n)
        .expect("reject taxonomy covers every reason")
}

/// Version negotiation under `require_hello`, pinned across reactor
/// loop counts:
///
/// * a peer carrying the gateway's event-table hash is acked and
///   served;
/// * a mismatched hash is answered with one `version_mismatch` reject
///   and cut;
/// * a legacy peer that leads with an event frame (no hello at all)
///   gets the same treatment;
/// * garbage in place of a hello is a protocol eviction, not a stall;
/// * the refusal bytes on the wire are identical with one and with four
///   event loops, and none of it is a conviction.
#[test]
fn hello_negotiation_is_enforced_and_transport_invariant() {
    let (components, service) = derived_system();
    let hash = table_hash(&EventTable::new(service.alphabet()));
    let limits = ConnLimits {
        require_hello: true,
        ..ConnLimits::default()
    };

    // The exact leads every server sees.
    let mut bad_hello = Vec::new();
    protoquot_runtime::codec::encode_frame(
        &Frame::Hello {
            session: 7,
            table_hash: hash ^ 1,
            version: 0,
        },
        &mut bad_hello,
    );
    let mut legacy_lead = Vec::new();
    protoquot_runtime::codec::encode_frame(
        &Frame::Event {
            session: 5,
            event: 0,
        },
        &mut legacy_lead,
    );

    let mut transcripts = Vec::new();
    for loops in [1usize, 4] {
        let gw = gateway(&components, &service, GatewayConfig::default());
        let mut server = ReactorServer::bind(
            gw.clone(),
            "127.0.0.1:0",
            ReactorConfig {
                loops,
                limits,
                ..ReactorConfig::default()
            },
        )
        .expect("bind reactor");
        let addr = server.local_addr();

        // A peer with the right hash negotiates and is served.
        let mut honest = TcpConn::connect_negotiated(addr, hash).expect("negotiated connect");
        let reply = honest
            .call(&Frame::Event {
                session: 1,
                event: 0,
            })
            .expect("negotiated peer is served");
        assert_eq!(reply.session(), 1);
        honest
            .call(&Frame::Close { session: 1 })
            .expect("close after service");
        drop(honest);

        // A mismatched hash is refused at connect.
        let err = match TcpConn::connect_negotiated(addr, hash ^ 1) {
            Err(e) => e,
            Ok(_) => panic!("mismatched hash must be refused at hello"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);

        // Raw transcripts: mismatched hello, legacy no-hello lead, and
        // garbage where the hello should be.
        let mismatch = refusal_bytes(addr, &bad_hello);
        let legacy = refusal_bytes(addr, &legacy_lead);
        let garbage = refusal_bytes(addr, &[0xFF; 24]);
        assert!(
            garbage.is_empty(),
            "garbage in place of a hello earned a reply: {garbage:?}"
        );
        // Both refusals decode as a rejected reply carrying the
        // version-mismatch reason, addressed to the offending session.
        for (bytes, session) in [(&mismatch, 7u64), (&legacy, 5u64)] {
            let mut replies = protoquot_runtime::ReplyBuffer::new();
            replies.extend(bytes);
            match replies.next_reply().expect("refusal decodes") {
                Some(protoquot_runtime::Reply::Rejected { session: s, reason }) => {
                    assert_eq!(s, session);
                    assert_eq!(reason.name(), "version_mismatch");
                }
                other => panic!("refusal was not a rejection: {other:?}"),
            }
            assert_eq!(
                replies.next_reply().expect("no trailing bytes"),
                None,
                "refusal must be exactly one reply"
            );
        }

        server.stop();
        let snap = gw.stats();
        // Three refused peers (connect_negotiated + raw hello + legacy
        // lead), every one counted, none a conviction.
        assert_eq!(
            rejects(&snap, "version_mismatch"),
            3,
            "version mismatches must be counted: {snap}"
        );
        assert_eq!(snap.convictions, 0, "negotiation is not a conviction");
        assert!(
            evictions(&snap, "protocol") > 0,
            "garbage hello must be a protocol eviction: {snap}"
        );
        transcripts.push((mismatch, legacy));
    }
    assert_eq!(
        transcripts[0], transcripts[1],
        "hello refusal bytes depend on the loop count"
    );
}

/// The full adversarial battery produces byte-identical JSON against
/// identically configured reactors with one and with four event loops,
/// with every attack neutralized.
#[test]
fn adversarial_report_is_transport_invariant() {
    let (components, service) = derived_system();
    let limits = ConnLimits {
        max_sessions_per_conn: 16,
        read_deadline: Duration::from_millis(100),
        ..ConnLimits::default()
    };
    let cfg = AdversarialConfig {
        frames_per_attack: 32,
        churn_conns: 8,
        drip_hold: Duration::from_millis(600),
        ..AdversarialConfig::default()
    };
    let reports: Vec<_> = [1usize, 4]
        .into_iter()
        .map(|loops| {
            let gw = gateway(&components, &service, GatewayConfig::default());
            let mut server = ReactorServer::bind(
                gw,
                "127.0.0.1:0",
                ReactorConfig {
                    loops,
                    limits,
                    ..ReactorConfig::default()
                },
            )
            .expect("bind");
            let report = adversarial(server.local_addr(), &cfg)
                .unwrap_or_else(|e| panic!("campaign over {loops} loop(s): {e}"));
            server.stop();
            assert!(
                report.is_contained(),
                "{loops} loop(s) failed to contain the battery:\n{report}"
            );
            report
        })
        .collect();
    assert_eq!(
        reports[0].to_json(),
        reports[1].to_json(),
        "adversarial report depends on the loop count:\n1 loop: {}\n4 loops: {}",
        reports[0],
        reports[1]
    );
}
