//! Differential test between the **live runtime** (the gateway relay
//! with its online conformance guard) and the **static** verifier
//! (`converter_verdict`, i.e. `B ‖ C ⊨ A` by the paper's two-phase
//! check):
//!
//! * every event sequence the runtime *accepts* is a genuine trace of
//!   the reference composite `B ‖ C` (checked with `has_trace` on the
//!   recorded per-session prefixes);
//! * a statically verified converter is never convicted online, at 1
//!   and 8 client threads alike (each frame answered on the thread
//!   that sent it), and the drive reports are identical across thread
//!   counts;
//! * every single-transition converter mutant is convicted by the
//!   online guard exactly when the static checker rejects it, across
//!   all builtin configurations;
//! * the compiled DFA guard and the subset-replaying reference guard
//!   agree bit for bit — on sampled and random streams over every
//!   mutant, and on the per-session frame streams of whole recorded
//!   drive campaigns.

use protoquot_core::{converter_verdict, solve};
use protoquot_protocols::nak::ab_to_nak_configuration;
use protoquot_protocols::{
    at_least_once, colocated_configuration, exactly_once, random_component,
    symmetric_configuration, RandomParams,
};
use protoquot_runtime::{
    drive, Conn, DriveConfig, DriveReport, Frame, Gateway, GatewayConfig, GuardProgram,
    LoopbackConn, Reply, SessionGuard, SessionGuardReference,
};
use protoquot_sim::{redirect_transition, FaultPlan};
use protoquot_spec::{compose_all, has_trace, Alphabet, EventId, Spec, SpecBuilder};
use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex};

/// Same budget as the soak differential suite: small enough to stay
/// quick, large enough that every statically rejected mutant below is
/// convicted over the wire.
fn config(threads: usize) -> DriveConfig {
    DriveConfig {
        runs: 40,
        threads,
        seed: 0x50AB_A6EE,
        max_steps: 600,
        faults: FaultPlan::parse("loss,dup,reorder").unwrap(),
        ..DriveConfig::default()
    }
}

/// Per session, every frame the driver sent with the reply it got.
type ExchangeLog = Arc<Mutex<HashMap<u64, Vec<(Frame, Reply)>>>>;

/// A loopback connection that records every exchange per session —
/// the runtime's observable behaviour, replayable offline.
struct RecordingConn {
    inner: LoopbackConn,
    log: ExchangeLog,
}

impl Conn for RecordingConn {
    fn call(&mut self, frame: &Frame) -> io::Result<Reply> {
        let reply = self.inner.call(frame)?;
        self.log
            .lock()
            .unwrap()
            .entry(frame.session())
            .or_default()
            .push((*frame, reply));
        Ok(reply)
    }
}

/// One recorded drive campaign and the (drained) gateway it ran on.
struct Campaign {
    report: DriveReport,
    log: ExchangeLog,
    gateway: Gateway,
}

impl Campaign {
    /// Per session, the event prefix the gateway *accepted* — the
    /// runtime's observable language.
    fn accepted_traces(&self) -> Vec<(u64, Vec<EventId>)> {
        let codec = self.gateway.codec();
        self.log
            .lock()
            .unwrap()
            .iter()
            .map(|(&session, exchanges)| {
                let trace = exchanges
                    .iter()
                    .filter_map(|(frame, reply)| match (frame, reply) {
                        (Frame::Event { event, .. }, Reply::Accepted { .. }) => {
                            Some(codec.event_of(*event).expect("accepted unknown index"))
                        }
                        _ => None,
                    })
                    .collect();
                (session, trace)
            })
            .collect()
    }
}

/// One drive campaign against a fresh gateway from `threads` client
/// threads, recording every exchange.
fn campaign(components: &[Spec], service: &Spec, threads: usize) -> Campaign {
    let parts: Vec<&Spec> = components.iter().collect();
    let gateway = Gateway::new(&parts, service, GatewayConfig::default())
        .expect("gateway must compile the system");
    let log: ExchangeLog = Arc::new(Mutex::new(HashMap::new()));
    let report = drive(components, service, &config(threads), || {
        Ok(Box::new(RecordingConn {
            inner: LoopbackConn::new(gateway.clone()),
            log: Arc::clone(&log),
        }) as Box<dyn Conn>)
    });
    gateway.drain();
    assert_eq!(
        gateway.stats().convictions,
        report.convicted_runs,
        "gateway conviction counter disagrees with the drive report"
    );
    Campaign {
        report,
        log,
        gateway,
    }
}

/// Drives at 1 and 8 threads, asserts the reports are identical,
/// asserts every accepted prefix is a trace of the reference composite,
/// and returns whether the runtime found the system clean.
/// `expect_traffic` is asserted only for systems that should relay
/// events (mutants may be convicted before a single frame lands).
fn runtime_conforms(
    label: &str,
    components: &[Spec],
    service: &Spec,
    expect_traffic: bool,
) -> bool {
    let one = campaign(components, service, 1);
    let eight = campaign(components, service, 8);
    assert_eq!(
        one.report.to_json(),
        eight.report.to_json(),
        "{label}: drive report differs across thread counts"
    );
    assert_eq!(one.report.io_errors, 0, "{label}: loopback cannot fail");

    let parts: Vec<&Spec> = components.iter().collect();
    let composite = compose_all(&parts).expect("composable system");
    let traces = one.accepted_traces();
    if expect_traffic {
        assert!(
            traces.iter().any(|(_, t)| !t.is_empty()),
            "{label}: the drive relayed no events at all"
        );
    }
    for (session, trace) in &traces {
        assert!(
            has_trace(&composite, trace),
            "{label}: session {session} accepted a non-trace of B‖C: {trace:?}"
        );
    }
    one.report.convicted_runs == 0
}

/// The core differential check for one builtin configuration: derive
/// the converter, confirm the clean system is never convicted, then
/// mutate single transitions and insist online convictions coincide
/// with static rejections. Returns how many mutants were convicted.
fn assert_agreement(
    label: &str,
    b: &Spec,
    service: &Spec,
    int: &protoquot_spec::Alphabet,
) -> usize {
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
        runtime_conforms(label, &[b.clone(), converter.clone()], service, true),
        "{label}: statically verified converter was convicted online"
    );

    let mut caught = 0usize;
    for k in 0..4 {
        let Some(mutant) = redirect_transition(&converter, k) else {
            break;
        };
        let mutant_label = format!("{label}/mut{k}");
        let mutant_static_ok = converter_verdict(b, service, &mutant)
            .map(|v| v.is_ok())
            .unwrap_or(false);
        let mutant_runtime_ok =
            runtime_conforms(&mutant_label, &[b.clone(), mutant], service, false);
        assert_eq!(
            mutant_static_ok, mutant_runtime_ok,
            "{mutant_label}: static ({mutant_static_ok}) and online guard \
             ({mutant_runtime_ok}) disagree"
        );
        if !mutant_runtime_ok {
            caught += 1;
        }
    }
    caught
}

#[test]
fn builtin_configurations_agree_online() {
    let mut caught = 0usize;

    // §5, colocated variant: an exactly-once converter exists.
    let cfg = colocated_configuration();
    caught += assert_agreement("colocated/exactly-once", &cfg.b, &exactly_once(), &cfg.int);

    // §5, symmetric variant under the at-least-once weakening.
    let cfg = symmetric_configuration();
    caught += assert_agreement(
        "symmetric/at-least-once",
        &cfg.b,
        &at_least_once(),
        &cfg.int,
    );

    // The AB↔NAK heterogeneous gateway.
    let cfg = ab_to_nak_configuration();
    caught += assert_agreement("ab-nak/exactly-once", &cfg.b, &exactly_once(), &cfg.int);

    assert!(
        caught > 0,
        "no single-transition mutant was convicted across the builtin sweep"
    );
}

#[test]
fn convictions_name_the_violation_kind() {
    // A converted frame stream that breaks the service must be turned
    // away with a semantic reason, not a generic error: drive a known
    // statically-rejected mutant and check the reported reject reasons
    // are drawn from the guard's vocabulary.
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
            continue;
        }
        let report = campaign(&[cfg.b.clone(), mutant], &service, 2).report;
        assert!(report.convicted_runs > 0, "mut{k}: expected convictions");
        for o in report.outcomes.iter().filter(|o| o.conviction.is_some()) {
            let reason = o.conviction.as_deref().unwrap();
            assert!(
                ["not_a_trace", "service_violation", "stalled", "convicted"].contains(&reason),
                "mut{k}: unexpected conviction reason `{reason}`"
            );
        }
        return;
    }
    panic!("no statically rejected mutant found to drive");
}

// ---------------------------------------------------------------------
// DFA vs. reference guard differential
// ---------------------------------------------------------------------

/// Streams fed to each guard pair per system.
const GUARD_STREAMS: u64 = 6;
/// Frames per stream (conviction usually ends a stream much earlier).
const STREAM_LEN: usize = 200;

/// Deterministic xorshift64* generator so every differential stream is
/// reproducible from its label seed.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// A converter over `int` that declares every interface event but
/// enables none: composing it with a component freezes all interaction
/// on `Int` — the cheap way to steer arbitrary systems down the
/// conviction paths (same trick as the verify differential).
fn stuck_converter(int: &Alphabet) -> Spec {
    let mut cb = SpecBuilder::new("stuck");
    cb.state("c0");
    for e in int.iter() {
        cb.event(&e.name());
    }
    cb.build().expect("stuck converter is well-formed")
}

/// The core bit-identity check: the compiled DFA guard and the
/// subset-replaying reference must agree on every stream — same
/// conviction kind, same offending event index, same frame position
/// (`observed()` at conviction time), same possible-state counts, and
/// same attested-stall verdicts.
///
/// Streams follow a genuine sampled trace up to a random cut, then turn
/// random (with indices one past the table to hit the unknown-index
/// path too), so both the long-accept prefixes and all three conviction
/// kinds are exercised.
fn guards_agree(label: &str, parts: &[&Spec], service: &Spec, seed: u64) {
    guards_agree_scaled(label, parts, service, seed, GUARD_STREAMS, STREAM_LEN)
}

/// [`guards_agree`] with an explicit stream budget: the
/// several-hundred-mutant sweeps run a trimmed budget per mutant (the
/// derived converters already cover the long OK paths at full budget).
fn guards_agree_scaled(
    label: &str,
    parts: &[&Spec],
    service: &Spec,
    seed: u64,
    streams: u64,
    stream_len: usize,
) {
    let prog = match GuardProgram::new(parts, service) {
        Ok(p) => Arc::new(p),
        // Systems the gateway would refuse to load have no online
        // behavior to compare.
        Err(_) => return,
    };
    let nsym = prog.table().len().max(1) as u64;
    let accepted = prog.sample_accepted(stream_len);
    let mut rng = XorShift(seed | 1);
    for round in 0..streams {
        let mut dfa = SessionGuard::new(Arc::clone(&prog));
        let mut reference = SessionGuardReference::new(Arc::clone(&prog));
        assert_eq!(
            dfa.convicted(),
            reference.convicted(),
            "{label}/s{round}: initial verdict differs"
        );
        if dfa.convicted().is_some() {
            break; // start-convicted systems have no further frames
        }
        let cut = if accepted.is_empty() {
            0
        } else {
            rng.next() as usize % (accepted.len() + 1)
        };
        #[allow(clippy::needless_range_loop)] // `pos` indexes past `accepted`'s end
        for pos in 0..STREAM_LEN {
            let ev = if pos < cut {
                accepted[pos]
            } else {
                (rng.next() % (nsym + 1)) as u16
            };
            let d = dfa.observe(ev);
            let r = reference.observe(ev);
            assert_eq!(
                d, r,
                "{label}/s{round}: conviction differs at frame {pos} (event {ev})"
            );
            assert_eq!(
                dfa.observed(),
                reference.observed(),
                "{label}/s{round}: frame position differs at frame {pos}"
            );
            if d.is_err() {
                break;
            }
            assert_eq!(
                dfa.possible_states(),
                reference.possible_states(),
                "{label}/s{round}: possible-state count differs at frame {pos}"
            );
            if rng.next().is_multiple_of(13) {
                let da = dfa.attest_stall();
                let ra = reference.attest_stall();
                assert_eq!(
                    da, ra,
                    "{label}/s{round}: attested-stall verdict differs at frame {pos}"
                );
                if da.is_err() {
                    break;
                }
            }
        }
        assert_eq!(
            dfa.convicted(),
            reference.convicted(),
            "{label}/s{round}: final conviction differs"
        );
        assert_eq!(
            dfa.observed(),
            reference.observed(),
            "{label}/s{round}: final frame position differs"
        );
    }
}

/// The three builtin systems, each with its derived converter and
/// **every** single-transition mutant of it.
#[test]
fn dfa_and_reference_guards_agree_on_builtins_and_all_mutants() {
    let systems: [(&str, Spec, Spec, Alphabet); 3] = {
        let colocated = colocated_configuration();
        let sym = symmetric_configuration();
        let nak = ab_to_nak_configuration();
        [
            ("colocated", colocated.b, exactly_once(), colocated.int),
            ("symmetric", sym.b, at_least_once(), sym.int),
            ("ab-nak", nak.b, exactly_once(), nak.int),
        ]
    };
    for (label, b, service, int) in &systems {
        let q = solve(b, service, int)
            .unwrap_or_else(|e| panic!("{label}: expected a converter, got {e}"));
        guards_agree(
            &format!("{label}/derived"),
            &[b, &q.converter],
            service,
            0xD1FF_0000 ^ label.len() as u64,
        );
        // Every single-transition mutant (the symmetric converter has
        // several hundred); each (build + streams) is independent, so
        // the sweep fans out across threads.
        let mutants: Vec<(usize, Spec)> = (0..)
            .map_while(|k| Some((k, redirect_transition(&q.converter, k)?)))
            .collect();
        assert!(
            !mutants.is_empty(),
            "{label}: converter has no transitions to mutate"
        );
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(16);
        let next = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some((k, mutant)) = mutants.get(i) else {
                        break;
                    };
                    // Trimmed budget: the derived run above already
                    // soaks the long accept paths at full budget, so
                    // each mutant only needs enough frames past the
                    // cut to force its conviction.
                    guards_agree_scaled(
                        &format!("{label}/mut{k}"),
                        &[b, mutant],
                        service,
                        0xD1FF_1000 ^ (*k as u64) << 8,
                        2,
                        64,
                    );
                });
            }
        });
    }
}

/// 40 random components, each frozen by the stuck converter so the
/// progress paths are reachable.
#[test]
fn dfa_and_reference_guards_agree_on_random_components() {
    let service = exactly_once();
    for seed in 0..40u64 {
        let (b, int) = random_component(seed, RandomParams::default());
        let stuck = stuck_converter(&int);
        guards_agree(
            &format!("random({seed})"),
            &[&b, &stuck],
            &service,
            0xC0FF_EE00 ^ seed,
        );
    }
}

/// Replays one session's recorded exchanges through the DFA guard and
/// the reference guard side by side. Both must return the same verdict
/// at every frame with the same frame position, and the verdicts must
/// be the ones the gateway answered with, so the replay is faithful to
/// the campaign. Returns whether the session was convicted.
fn replay_session(label: &str, prog: &Arc<GuardProgram>, exchanges: &[(Frame, Reply)]) -> bool {
    let mut dfa = SessionGuard::new(Arc::clone(prog));
    let mut reference = SessionGuardReference::new(Arc::clone(prog));
    for (pos, (frame, reply)) in exchanges.iter().enumerate() {
        let (d, r) = match *frame {
            Frame::Event { event, .. } => (dfa.observe(event), reference.observe(event)),
            Frame::Stall { .. } => (dfa.attest_stall(), reference.attest_stall()),
            Frame::Close { .. } | Frame::Hello { .. } => continue,
        };
        assert_eq!(d, r, "{label}: verdicts differ at frame {pos} ({frame:?})");
        assert_eq!(
            dfa.observed(),
            reference.observed(),
            "{label}: frame positions differ at frame {pos}"
        );
        assert_eq!(
            d.is_ok(),
            matches!(reply, Reply::Accepted { .. }),
            "{label}: frame {pos} replayed as {d:?} but the gateway answered {reply:?}"
        );
    }
    assert_eq!(
        dfa.convicted(),
        reference.convicted(),
        "{label}: final verdict"
    );
    dfa.convicted().is_some()
}

/// Whole drive campaigns replayed at the guard layer: each session's
/// recorded frame stream goes through the compiled DFA guard and the
/// subset-replaying reference guard, which must agree on every verdict
/// and frame position — for the derived converter and a statically
/// rejected mutant of each builtin system. The replayed convictions
/// must add up to the campaign's convicted runs.
#[test]
fn recorded_campaigns_replay_identically_through_both_guards() {
    let systems: [(&str, Spec, Spec, Alphabet); 3] = {
        let colocated = colocated_configuration();
        let sym = symmetric_configuration();
        let nak = ab_to_nak_configuration();
        [
            ("colocated", colocated.b, exactly_once(), colocated.int),
            ("symmetric", sym.b, at_least_once(), sym.int),
            ("ab-nak", nak.b, exactly_once(), nak.int),
        ]
    };
    for (label, b, service, int) in &systems {
        let q = solve(b, service, int)
            .unwrap_or_else(|e| panic!("{label}: expected a converter, got {e}"));
        let mutant = (0..)
            .map_while(|k| redirect_transition(&q.converter, k))
            .find(|m| {
                !converter_verdict(b, service, m)
                    .map(|v| v.is_ok())
                    .unwrap_or(false)
            })
            .unwrap_or_else(|| panic!("{label}: no statically rejected mutant"));
        for (kind, converter) in [("derived", &q.converter), ("mutant", &mutant)] {
            let run = campaign(&[b.clone(), converter.clone()], service, 2);
            let prog = run.gateway.program();
            let convicted = run
                .log
                .lock()
                .unwrap()
                .iter()
                .filter(|(session, exchanges)| {
                    replay_session(&format!("{label}/{kind}/s{session}"), &prog, exchanges)
                })
                .count() as u64;
            assert_eq!(
                convicted, run.report.convicted_runs,
                "{label}/{kind}: replayed convictions disagree with the campaign"
            );
            if kind == "mutant" {
                assert!(convicted > 0, "{label}/mutant: campaign convicted nobody");
            }
        }
    }
}
