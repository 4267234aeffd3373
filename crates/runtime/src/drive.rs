//! Seeded load generator: replays fleet-style schedules over the wire.
//!
//! [`drive`] runs the same weighted random executions as the
//! `protoquot-sim` soak fleet — same [`derive_seed`] per run, same
//! fault biasing, same [`ServiceMonitor`]/[`ProgressWatchdog`]
//! machinery — but relays every *solo* (externally visible) event to a
//! serving gateway as a wire frame and records the verdicts coming
//! back. Each run is one session; worker threads claim run indices
//! from an atomic counter and the outcomes are re-sorted by run, so
//! the resulting [`DriveReport`] is identical at any client or server
//! thread count.
//!
//! Every run is executed by a resumable `SessionTask` state machine:
//! `advance(reply) -> Option<Frame>` hands the driver the next frame
//! to send and parks the task until that frame's reply arrives. Both
//! campaign shapes are thin loops over it —
//!
//! * [`drive`] (lockstep): one [`Conn`] per thread, one live task at a
//!   time, `call` per frame;
//! * [`drive_mux`] (multiplexed): one [`MuxTransport`] per thread
//!   carrying up to [`DriveConfig::sessions_per_conn`] concurrent
//!   tasks, frames batched per exchange and replies dispatched to
//!   tasks by the session id in their headers.
//!
//! Because the two paths share the per-session state machine verbatim
//! and each task keeps exactly one frame outstanding by default (so
//! per-session wire order is program order), a mux campaign produces the *same* report
//! as a lockstep campaign over the same config — transports and
//! concurrency change the schedule of bytes, not the verdicts.
//! `tests/reactor_transport.rs` pins this byte-for-byte across
//! transports. [`DriveConfig::pipeline`] deepens the per-session
//! window (speculative accepts, see `PipelinedTask`) so the load
//! generator can saturate a batching server; reports stay
//! deterministic at any depth.
//!
//! When the local watchdog sees a deadlock or livelock, the client
//! *attests* a stall ([`crate::codec::Frame::Stall`]); the gateway
//! confirms or dismisses it against the compiled product. A faulty
//! converter therefore gets convicted either on a relayed frame
//! (safety) or on the attested stall (progress).

use crate::codec::{Frame, Reply, WireCodec};
use crate::transport::{Conn, MuxTransport};
use protoquot_sim::{
    derive_seed, Action, ExternalPolicy, FaultPlan, FaultState, MonitorVerdict, ProgressVerdict,
    ProgressWatchdog, Runner, ServiceMonitor, System,
};
use protoquot_spec::Spec;
use serde::Value;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Configuration of one drive campaign.
#[derive(Clone, Debug)]
pub struct DriveConfig {
    /// Sessions (independent runs) to drive.
    pub runs: u64,
    /// Client worker threads, each with its own connection.
    pub threads: usize,
    /// Campaign seed; run `i` uses `derive_seed(seed, i)`.
    pub seed: u64,
    /// Step budget per run.
    pub max_steps: u64,
    /// Fault models biasing every run's schedule.
    pub faults: FaultPlan,
    /// Service-silent steps before the watchdog probes.
    pub quiescence_threshold: u64,
    /// Global states explored per watchdog probe.
    pub probe_budget: usize,
    /// Stop claiming new runs after this wall-clock budget (soak mode).
    pub duration: Option<Duration>,
    /// Concurrent sessions each connection multiplexes in
    /// [`drive_mux`] campaigns (total concurrency = `threads` × this).
    /// Ignored by the lockstep [`drive`] path.
    pub sessions_per_conn: u64,
    /// Outstanding frames each multiplexed session keeps in flight
    /// (clamped to at least 1; ignored by the lockstep [`drive`]
    /// path). Above 1 the driver *speculates*: it consumes an
    /// optimistic `Accepted` for each unanswered event frame and keeps
    /// sending, rolling the accounting back if the real reply turns
    /// out to be a rejection. Reports stay deterministic and
    /// thread/carrier-invariant at any depth, and runs that are never
    /// rejected (a clean converter) report identically to depth 1;
    /// rejected runs may legitimately count extra `frames_sent` for
    /// the frames that were already on the wire when the rejection
    /// landed.
    pub pipeline: u64,
}

impl Default for DriveConfig {
    fn default() -> DriveConfig {
        DriveConfig {
            runs: 100,
            threads: 1,
            seed: 0xD41E,
            max_steps: 600,
            faults: FaultPlan::none(),
            quiescence_threshold: 64,
            probe_budget: 20_000,
            duration: None,
            sessions_per_conn: 1,
            pipeline: 1,
        }
    }
}

/// What happened to one driven session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunOutcome {
    /// Run index (= wire session id).
    pub run: u64,
    /// Simulator steps executed (internal moves included).
    pub steps: u64,
    /// Event frames relayed to the gateway.
    pub frames_sent: u64,
    /// Frames the gateway accepted.
    pub accepted: u64,
    /// Whether the client attested a stall.
    pub stall_attested: bool,
    /// Server-side conviction (reject reason name), if any. Only
    /// reasons where [`crate::codec::RejectReason::is_conviction`]
    /// holds — verdicts against the converter — land here.
    pub conviction: Option<String>,
    /// Operational rejection (reject reason name), if any: the server
    /// refused the session for resource/overload reasons
    /// (`resource_limit`, `overloaded`, …) without judging the
    /// converter. The run still stops, but it is not a conviction.
    pub rejected: Option<String>,
    /// What the local monitor/watchdog concluded.
    pub local_verdict: &'static str,
    /// Transport failure, if the run died on I/O.
    pub io_error: Option<String>,
}

/// Aggregated result of a drive campaign.
#[derive(Clone, Debug)]
pub struct DriveReport {
    /// Runs driven.
    pub runs: u64,
    /// Total event frames relayed.
    pub frames_sent: u64,
    /// Total frames accepted by the gateway.
    pub accepted: u64,
    /// Runs that ended with a server-side conviction.
    pub convicted_runs: u64,
    /// Runs ended by an operational rejection (not a conviction).
    pub rejected_runs: u64,
    /// Stall attestations sent.
    pub stalls_attested: u64,
    /// Runs that died on transport errors.
    pub io_errors: u64,
    /// Per-run outcomes, sorted by run index.
    pub outcomes: Vec<RunOutcome>,
}

impl DriveReport {
    /// No convictions, no operational rejections, and no transport
    /// failures.
    pub fn is_clean(&self) -> bool {
        self.convicted_runs == 0 && self.rejected_runs == 0 && self.io_errors == 0
    }

    /// The report as a JSON value tree (thread-count invariant).
    pub fn to_value(&self) -> Value {
        let mut o = BTreeMap::new();
        o.insert("runs".into(), Value::Int(self.runs as i128));
        o.insert("frames_sent".into(), Value::Int(self.frames_sent as i128));
        o.insert("accepted".into(), Value::Int(self.accepted as i128));
        o.insert(
            "convicted_runs".into(),
            Value::Int(self.convicted_runs as i128),
        );
        o.insert(
            "rejected_runs".into(),
            Value::Int(self.rejected_runs as i128),
        );
        o.insert(
            "stalls_attested".into(),
            Value::Int(self.stalls_attested as i128),
        );
        o.insert("io_errors".into(), Value::Int(self.io_errors as i128));
        o.insert(
            "outcomes".into(),
            Value::Arr(self.outcomes.iter().map(RunOutcome::to_value).collect()),
        );
        Value::Obj(o)
    }

    /// The report as a compact JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.to_value()).expect("report serialization cannot fail")
    }
}

impl RunOutcome {
    /// One outcome as a JSON value tree.
    pub fn to_value(&self) -> Value {
        let mut o = BTreeMap::new();
        o.insert("run".into(), Value::Int(self.run as i128));
        o.insert("steps".into(), Value::Int(self.steps as i128));
        o.insert("frames_sent".into(), Value::Int(self.frames_sent as i128));
        o.insert("accepted".into(), Value::Int(self.accepted as i128));
        o.insert("stall_attested".into(), Value::Bool(self.stall_attested));
        o.insert(
            "conviction".into(),
            match &self.conviction {
                Some(c) => Value::Str(c.clone()),
                None => Value::Null,
            },
        );
        o.insert(
            "rejected".into(),
            match &self.rejected {
                Some(r) => Value::Str(r.clone()),
                None => Value::Null,
            },
        );
        o.insert(
            "local_verdict".into(),
            Value::Str(self.local_verdict.to_string()),
        );
        o.insert(
            "io_error".into(),
            match &self.io_error {
                Some(e) => Value::Str(e.clone()),
                None => Value::Null,
            },
        );
        Value::Obj(o)
    }
}

impl std::fmt::Display for DriveReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "runs {} | frames {} accepted {} | convicted {} | rejected {} | stalls attested {} | io errors {}",
            self.runs,
            self.frames_sent,
            self.accepted,
            self.convicted_runs,
            self.rejected_runs,
            self.stalls_attested,
            self.io_errors
        )
    }
}

/// Drives `cfg.runs` sessions of `components` (including the converter)
/// against a gateway reached through `mk_conn`, monitoring each run
/// locally against `service`.
pub fn drive<F>(components: &[Spec], service: &Spec, cfg: &DriveConfig, mk_conn: F) -> DriveReport
where
    F: Fn() -> io::Result<Box<dyn Conn>> + Sync,
{
    let codec = match WireCodec::new(service.alphabet()) {
        Ok(c) => c,
        Err(e) => {
            // The service alphabet cannot be carried on the wire at
            // all; report it as a failed run instead of panicking.
            let mut o = empty_outcome(0);
            o.io_error = Some(e.to_string());
            return report_from(vec![o]);
        }
    };
    let next = AtomicU64::new(0);
    let deadline = cfg.duration.map(|d| Instant::now() + d);
    let outcomes: Mutex<Vec<RunOutcome>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..cfg.threads.max(1) {
            scope.spawn(|| {
                let mut conn: Option<Box<dyn Conn>> = None;
                loop {
                    let run = next.fetch_add(1, Ordering::Relaxed);
                    if run >= cfg.runs {
                        break;
                    }
                    if let Some(deadline) = deadline {
                        if Instant::now() >= deadline {
                            break;
                        }
                    }
                    if conn.is_none() {
                        conn = match mk_conn() {
                            Ok(c) => Some(c),
                            Err(e) => {
                                let mut o = empty_outcome(run);
                                o.io_error = Some(e.to_string());
                                // Recover the list even if a sibling
                                // driver thread panicked: losing the
                                // partial outcomes would only mask the
                                // original failure.
                                outcomes.lock().unwrap_or_else(|p| p.into_inner()).push(o);
                                continue;
                            }
                        };
                    }
                    let out = run_one(
                        components,
                        service,
                        &codec,
                        conn.as_deref_mut().unwrap(),
                        cfg,
                        run,
                    );
                    if out.io_error.is_some() {
                        conn = None; // reconnect for the next run
                    }
                    outcomes.lock().unwrap_or_else(|p| p.into_inner()).push(out);
                }
            });
        }
    });
    let outcomes = outcomes.into_inner().unwrap_or_else(|p| p.into_inner());
    report_from(outcomes)
}

fn empty_outcome(run: u64) -> RunOutcome {
    RunOutcome {
        run,
        steps: 0,
        frames_sent: 0,
        accepted: 0,
        stall_attested: false,
        conviction: None,
        rejected: None,
        local_verdict: "conforming",
        io_error: None,
    }
}

/// Which frame a parked [`SessionTask`] is waiting on.
enum Pending {
    Event,
    Stall,
    Close,
}

/// One driven session as a resumable state machine.
///
/// [`SessionTask::advance`] consumes the reply to the previously
/// returned frame (if any), runs the fleet-style execution forward,
/// and returns the next frame to put on the wire — or `None` when the
/// run is finished and [`SessionTask::into_outcome`] may be taken.
/// The lockstep and multiplexed campaign drivers differ only in how
/// they schedule these frames onto connections; the run semantics —
/// and therefore the [`RunOutcome`] for a given config and run index —
/// live entirely here.
struct SessionTask<'a> {
    cfg: &'a DriveConfig,
    codec: &'a WireCodec,
    runner: Runner,
    monitor: ServiceMonitor,
    watchdog: ProgressWatchdog,
    fault: FaultState,
    session: u64,
    out: RunOutcome,
    pending: Option<Pending>,
    /// Action whose post-reply bookkeeping (`watchdog.note`, verdict
    /// checks) still has to run once the in-flight reply arrives.
    tail_action: Option<Action>,
    done: bool,
}

impl<'a> SessionTask<'a> {
    fn new(
        components: &[Spec],
        service: &Spec,
        codec: &'a WireCodec,
        cfg: &'a DriveConfig,
        run: u64,
    ) -> SessionTask<'a> {
        let seed = derive_seed(cfg.seed, run);
        let system = System::new(components.to_vec(), ExternalPolicy::AlwaysEnabled);
        SessionTask {
            cfg,
            codec,
            runner: Runner::new(system, seed),
            monitor: ServiceMonitor::new(service),
            watchdog: ProgressWatchdog::new(cfg.quiescence_threshold, cfg.probe_budget),
            fault: cfg.faults.start(seed),
            session: run,
            out: empty_outcome(run),
            pending: None,
            tail_action: None,
            done: false,
        }
    }

    /// Feeds the reply to the last returned frame (`None` only on the
    /// first call) and returns the next frame to send, or `None` when
    /// the run is complete.
    fn advance(&mut self, reply: Option<Reply>) -> Option<Frame> {
        if self.done {
            return None;
        }
        match self.pending.take() {
            None => {}
            Some(Pending::Event) => {
                match reply {
                    Some(Reply::Accepted { .. }) => self.out.accepted += 1,
                    Some(Reply::Rejected { reason, .. }) => self.record_reject(reason),
                    // Connection-plane; never answers an event frame.
                    Some(Reply::HelloAck { .. }) => {}
                    None => return self.finish(),
                }
                let stop = self.out.conviction.is_some() || self.out.rejected.is_some();
                if let Some(frame) = self.tail(stop) {
                    return Some(frame);
                }
                if self.done {
                    return None;
                }
            }
            Some(Pending::Stall) => {
                match reply {
                    Some(Reply::Accepted { .. }) | Some(Reply::HelloAck { .. }) => {}
                    Some(Reply::Rejected { reason, .. }) => self.record_reject(reason),
                    None => {}
                }
                // An attested stall always ends the run, confirmed or
                // dismissed.
                return self.finish();
            }
            Some(Pending::Close) => {
                self.done = true;
                return None;
            }
        }
        self.step_loop()
    }

    /// The connection died while this task's frame was in flight.
    /// Terminal: records the error exactly as the lockstep path does —
    /// including running the event tail's safety check, and ignoring
    /// errors on the final `Close`.
    fn fail(&mut self, e: &io::Error) {
        if self.done {
            return;
        }
        match self.pending.take() {
            Some(Pending::Event) => {
                self.out.io_error = Some(e.to_string());
                let _ = self.tail(true);
            }
            Some(Pending::Stall) => {
                self.out.io_error = Some(e.to_string());
                let _ = self.finish();
            }
            // A failed Close is ignored (the run already concluded).
            Some(Pending::Close) | None => {}
        }
        self.done = true;
    }

    fn into_outcome(self) -> RunOutcome {
        self.out
    }

    /// Runs the execution until a frame must cross the wire.
    fn step_loop(&mut self) -> Option<Frame> {
        loop {
            if self.runner.steps() >= self.cfg.max_steps {
                return self.finish();
            }
            let fault = &mut self.fault;
            let Some(action) = self.runner.step_weighted(|a, base| fault.weigh(a, base)) else {
                self.out.local_verdict = "deadlock";
                return self.attest();
            };
            self.fault.note(&action);
            if let Action::Event { event, .. } = &action {
                self.monitor.observe(*event);
                // Solo events are the composite interface: relay them.
                if let Some(frame) = self.codec.event_frame(self.session, *event) {
                    self.out.frames_sent += 1;
                    self.tail_action = Some(action);
                    self.pending = Some(Pending::Event);
                    return Some(frame);
                }
            }
            self.tail_action = Some(action);
            if let Some(frame) = self.tail(false) {
                return Some(frame);
            }
            if self.done {
                return None;
            }
        }
    }

    /// Post-action bookkeeping: watchdog note, safety verdict, and —
    /// unless the run is already stopping — the progress probe. Returns
    /// a frame (stall attestation or close) when one must be sent.
    fn tail(&mut self, mut stop: bool) -> Option<Frame> {
        let action = self
            .tail_action
            .take()
            .expect("tail runs once per recorded action");
        self.watchdog.note(&action, &self.monitor);
        if matches!(
            self.monitor.verdict(),
            MonitorVerdict::SafetyViolation { .. }
        ) {
            self.out.local_verdict = "safety";
            stop = true;
        } else if !stop {
            match self
                .watchdog
                .poll(self.runner.system(), self.runner.states(), &self.monitor)
            {
                ProgressVerdict::Livelock { .. } => {
                    self.out.local_verdict = "livelock";
                    return self.attest();
                }
                ProgressVerdict::Deadlock { .. } => {
                    self.out.local_verdict = "deadlock";
                    return self.attest();
                }
                ProgressVerdict::Progressing => {}
            }
        }
        if stop {
            return self.finish();
        }
        None
    }

    /// Classifies a server rejection: guard verdicts are convictions,
    /// everything else (resource limits, overload, closed sessions) is
    /// an operational rejection. Either way the run stops.
    fn record_reject(&mut self, reason: crate::codec::RejectReason) {
        let name = reason.name().to_string();
        if reason.is_conviction() {
            self.out.conviction = Some(name);
        } else {
            self.out.rejected = Some(name);
        }
    }

    /// Sends a stall attestation; a `Stalled` rejection is a
    /// conviction.
    fn attest(&mut self) -> Option<Frame> {
        if self.out.conviction.is_some()
            || self.out.rejected.is_some()
            || self.out.io_error.is_some()
        {
            return self.finish();
        }
        self.out.stall_attested = true;
        self.pending = Some(Pending::Stall);
        Some(Frame::Stall {
            session: self.session,
        })
    }

    /// Ends the execution: fixes the step count and sends the final
    /// `Close` unless the transport already failed.
    fn finish(&mut self) -> Option<Frame> {
        self.out.steps = self.runner.steps();
        if self.out.io_error.is_some() {
            self.done = true;
            return None;
        }
        self.pending = Some(Pending::Close);
        Some(Frame::Close {
            session: self.session,
        })
    }
}

/// A [`SessionTask`] with up to [`DriveConfig::pipeline`] frames in
/// flight at once, used by [`drive_mux`] to saturate a batching
/// server.
///
/// The underlying state machine consumes exactly one reply per frame,
/// so pipelining works by *speculation*: while the next frame to send
/// would be an event, the wrapper feeds the task an optimistic
/// `Accepted` and queues the next frame immediately, counting how many
/// optimistic replies are unconfirmed. Real replies arrive in
/// per-session order, so each `Accepted` confirms the oldest
/// speculation. A real rejection means the run actually ended at that
/// frame: the wrapper rolls back the unconfirmed accepts, records the
/// rejection, seals the session with a `Close`, and discards the
/// replies of the frames that were already on the wire. Stall
/// attestations and closes are never speculated past — their replies
/// change control flow — so a parked task drains its window first.
///
/// Everything here is a deterministic function of the reply sequence,
/// which is itself deterministic per session, so campaign reports stay
/// thread- and carrier-invariant at any depth; at depth 1 no
/// speculation ever happens and the behavior is exactly the classic
/// one-outstanding-frame loop.
struct PipelinedTask<'a> {
    task: SessionTask<'a>,
    /// Frame window (≥ 1).
    depth: u64,
    /// Frames on the wire without a real reply yet.
    in_flight: u64,
    /// Optimistic `Accepted`s consumed but not yet confirmed.
    speculated: u64,
    /// A rejection landed mid-window: the run is over, remaining
    /// in-flight replies (including the sealing `Close`) are drained
    /// and discarded.
    draining: bool,
}

impl<'a> PipelinedTask<'a> {
    fn new(task: SessionTask<'a>, depth: u64) -> PipelinedTask<'a> {
        PipelinedTask {
            task,
            depth: depth.max(1),
            in_flight: 0,
            speculated: 0,
            draining: false,
        }
    }

    /// Tops the window up: queues frames until the depth is reached,
    /// the task parks on a reply it cannot speculate past (stall or
    /// close), or the run ends.
    fn fill(&mut self, conn: &mut dyn MuxTransport) -> io::Result<()> {
        while !self.draining && !self.task.done && self.in_flight < self.depth {
            let frame =
                if self.in_flight == 0 && self.speculated == 0 && self.task.pending.is_none() {
                    self.task.advance(None)
                } else if matches!(self.task.pending, Some(Pending::Event)) {
                    self.speculated += 1;
                    self.task.advance(Some(Reply::Accepted {
                        session: self.task.session,
                    }))
                } else {
                    // Parked on a stall or close reply, or waiting for the
                    // window's tail reply at depth 1.
                    return Ok(());
                };
            match frame {
                Some(frame) => {
                    conn.queue(&frame)?;
                    self.in_flight += 1;
                }
                None => return Ok(()),
            }
        }
        Ok(())
    }

    /// Consumes one real reply (always for the oldest in-flight frame:
    /// per-session reply order is wire order) and refills the window.
    fn on_reply(&mut self, reply: Reply, conn: &mut dyn MuxTransport) -> io::Result<()> {
        self.in_flight -= 1;
        if self.draining {
            return Ok(());
        }
        if self.speculated > 0 {
            // The oldest in-flight frame was an event we already
            // answered optimistically.
            match reply {
                Reply::Accepted { .. } => self.speculated -= 1,
                // Connection-plane; never answers an event frame.
                Reply::HelloAck { .. } => {}
                Reply::Rejected { reason, .. } => {
                    // Speculation was wrong: the run ended here. Roll
                    // back the unconfirmed accepts, record the verdict
                    // with the step count as of now, and seal the
                    // session the way `finish` would.
                    self.task.out.accepted -= self.speculated;
                    self.speculated = 0;
                    self.task.record_reject(reason);
                    self.task.out.steps = self.task.runner.steps();
                    self.task.pending = None;
                    self.task.tail_action = None;
                    self.draining = true;
                    conn.queue(&Frame::Close {
                        session: self.task.session,
                    })?;
                    self.in_flight += 1;
                    return Ok(());
                }
            }
        } else if let Some(frame) = self.task.advance(Some(reply)) {
            conn.queue(&frame)?;
            self.in_flight += 1;
        }
        self.fill(conn)
    }

    /// Whether the run is over and every in-flight reply is accounted
    /// for — only then may the outcome be taken.
    fn complete(&self) -> bool {
        self.in_flight == 0 && (self.task.done || self.draining)
    }

    /// The connection died. Unconfirmed speculative accepts are rolled
    /// back before the terminal bookkeeping so the outcome never
    /// counts an accept the server was not seen to grant.
    fn fail(&mut self, e: &io::Error) {
        self.task.out.accepted -= self.speculated;
        self.speculated = 0;
        if !self.draining {
            self.task.fail(e);
        }
        self.task.done = true;
    }

    fn into_outcome(self) -> RunOutcome {
        self.task.into_outcome()
    }
}

/// One session over a lockstep connection: drive the [`SessionTask`]
/// frame by frame, each `call` blocking for its reply.
fn run_one(
    components: &[Spec],
    service: &Spec,
    codec: &WireCodec,
    conn: &mut dyn Conn,
    cfg: &DriveConfig,
    run: u64,
) -> RunOutcome {
    let mut task = SessionTask::new(components, service, codec, cfg, run);
    let mut next = task.advance(None);
    while let Some(frame) = next {
        match conn.call(&frame) {
            Ok(reply) => next = task.advance(Some(reply)),
            Err(e) => {
                task.fail(&e);
                break;
            }
        }
    }
    task.into_outcome()
}

/// Drives `cfg.runs` sessions multiplexed over [`MuxTransport`]
/// connections: each of `cfg.threads` worker threads keeps up to
/// [`DriveConfig::sessions_per_conn`] concurrent `PipelinedTask`s
/// live on one connection, batching their frames per exchange and
/// routing each reply to the task its session id names.
///
/// At the default [`DriveConfig::pipeline`] of 1 every task holds at
/// most one outstanding frame, so per-session wire order equals
/// program order and the report matches a lockstep [`drive`] campaign
/// over the same config, field for field. Deeper pipelines keep up to
/// that many frames in flight per session (see `PipelinedTask`);
/// reports stay deterministic, and runs the server never rejects are
/// still identical to depth 1.
pub fn drive_mux<F>(
    components: &[Spec],
    service: &Spec,
    cfg: &DriveConfig,
    mk_conn: F,
) -> DriveReport
where
    F: Fn() -> io::Result<Box<dyn MuxTransport>> + Sync,
{
    let codec = match WireCodec::new(service.alphabet()) {
        Ok(c) => c,
        Err(e) => {
            let mut o = empty_outcome(0);
            o.io_error = Some(e.to_string());
            return report_from(vec![o]);
        }
    };
    let next = AtomicU64::new(0);
    let deadline = cfg.duration.map(|d| Instant::now() + d);
    let outcomes: Mutex<Vec<RunOutcome>> = Mutex::new(Vec::new());
    let per_conn = cfg.sessions_per_conn.max(1) as usize;
    let depth = cfg.pipeline.max(1);
    std::thread::scope(|scope| {
        for _ in 0..cfg.threads.max(1) {
            scope.spawn(|| {
                let mut conn: Option<Box<dyn MuxTransport>> = None;
                let mut tasks: HashMap<u64, PipelinedTask> = HashMap::new();
                let mut replies: Vec<Reply> = Vec::new();
                let mut exhausted = false;
                let push = |out: RunOutcome| {
                    outcomes.lock().unwrap_or_else(|p| p.into_inner()).push(out);
                };
                loop {
                    // Refill the task set up to the per-connection cap.
                    while !exhausted && tasks.len() < per_conn {
                        let run = next.fetch_add(1, Ordering::Relaxed);
                        if run >= cfg.runs {
                            exhausted = true;
                            break;
                        }
                        if let Some(deadline) = deadline {
                            if Instant::now() >= deadline {
                                exhausted = true;
                                break;
                            }
                        }
                        if conn.is_none() {
                            conn = match mk_conn() {
                                Ok(c) => Some(c),
                                Err(e) => {
                                    let mut o = empty_outcome(run);
                                    o.io_error = Some(e.to_string());
                                    push(o);
                                    continue;
                                }
                            };
                        }
                        let task = SessionTask::new(components, service, &codec, cfg, run);
                        let mut task = PipelinedTask::new(task, depth);
                        match task.fill(conn.as_mut().unwrap().as_mut()) {
                            Ok(()) => {
                                if task.complete() {
                                    push(task.into_outcome());
                                } else {
                                    tasks.insert(run, task);
                                }
                            }
                            Err(e) => {
                                task.fail(&e);
                                push(task.into_outcome());
                            }
                        }
                    }
                    if tasks.is_empty() {
                        if exhausted {
                            break;
                        }
                        continue;
                    }
                    // Flush queued frames and wait for replies.
                    let c = conn.as_mut().expect("live tasks imply a connection");
                    match c.exchange(true, &mut replies) {
                        Ok(()) => {
                            let mut failed = None;
                            for reply in replies.drain(..) {
                                let session = reply.session();
                                let Some(mut task) = tasks.remove(&session) else {
                                    continue; // reply for an already-failed task
                                };
                                match task.on_reply(reply, conn.as_mut().unwrap().as_mut()) {
                                    Ok(()) => {
                                        if task.complete() {
                                            push(task.into_outcome());
                                        } else {
                                            tasks.insert(session, task);
                                        }
                                    }
                                    Err(e) => {
                                        task.fail(&e);
                                        push(task.into_outcome());
                                        failed = Some(e);
                                    }
                                }
                            }
                            if let Some(e) = failed {
                                fail_all(&mut tasks, &e, &push);
                                conn = None;
                            }
                        }
                        Err(e) => {
                            // The connection died: every in-flight task
                            // on it records the transport error, and the
                            // next refill reconnects.
                            fail_all(&mut tasks, &e, &push);
                            conn = None;
                        }
                    }
                }
            });
        }
    });
    let outcomes = outcomes.into_inner().unwrap_or_else(|p| p.into_inner());
    report_from(outcomes)
}

/// Terminally fails every in-flight task with `e`.
fn fail_all<F: Fn(RunOutcome)>(tasks: &mut HashMap<u64, PipelinedTask>, e: &io::Error, push: &F) {
    for (_, mut task) in tasks.drain() {
        task.fail(e);
        push(task.into_outcome());
    }
}

/// Sorts outcomes by run and aggregates the campaign totals.
fn report_from(mut outcomes: Vec<RunOutcome>) -> DriveReport {
    outcomes.sort_by_key(|o| o.run);
    DriveReport {
        runs: outcomes.len() as u64,
        frames_sent: outcomes.iter().map(|o| o.frames_sent).sum(),
        accepted: outcomes.iter().map(|o| o.accepted).sum(),
        convicted_runs: outcomes.iter().filter(|o| o.conviction.is_some()).count() as u64,
        rejected_runs: outcomes.iter().filter(|o| o.rejected.is_some()).count() as u64,
        stalls_attested: outcomes.iter().filter(|o| o.stall_attested).count() as u64,
        io_errors: outcomes.iter().filter(|o| o.io_error.is_some()).count() as u64,
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gateway::{Gateway, GatewayConfig};
    use crate::transport::{LoopbackConn, LoopbackMux};
    use protoquot_core::solve;
    use protoquot_protocols::{colocated_configuration, exactly_once};
    use protoquot_sim::redirect_transition;

    fn gateway(components: &[Spec], service: &Spec) -> Gateway {
        let parts: Vec<&Spec> = components.iter().collect();
        Gateway::new(&parts, service, GatewayConfig::default())
            .expect("gateway must compile the system")
    }

    fn cfg(sessions_per_conn: u64, threads: usize) -> DriveConfig {
        DriveConfig {
            runs: 48,
            threads,
            seed: 0xBEEF_CAFE,
            max_steps: 400,
            faults: FaultPlan::parse("loss,reorder").unwrap(),
            sessions_per_conn,
            ..DriveConfig::default()
        }
    }

    /// A multiplexed campaign must reproduce the lockstep campaign's
    /// report byte for byte — same accepts, same convictions, same
    /// stall attestations — for a clean derived converter and for a
    /// convicted mutant alike, at several concurrency shapes.
    #[test]
    fn mux_campaigns_match_lockstep_campaigns() {
        let system = colocated_configuration();
        let service = exactly_once();
        let q = solve(&system.b, &service, &system.int).expect("colocated converter derives");
        let mutant = (0..8)
            .find_map(|k| redirect_transition(&q.converter, k))
            .expect("converter has transitions to mutate");
        for (label, converter) in [("derived", &q.converter), ("mutant", &mutant)] {
            let components = [system.b.clone(), converter.clone()];
            let gw = gateway(&components, &service);
            let lockstep = drive(&components, &service, &cfg(1, 1), || {
                Ok(Box::new(LoopbackConn::new(gw.clone())) as Box<dyn Conn>)
            });
            for (sessions, threads) in [(1u64, 1usize), (8, 1), (16, 2)] {
                let gw = gateway(&components, &service);
                let mux = drive_mux(&components, &service, &cfg(sessions, threads), || {
                    Ok(Box::new(LoopbackMux::new(gw.clone())) as Box<dyn MuxTransport>)
                });
                assert_eq!(
                    lockstep.to_json(),
                    mux.to_json(),
                    "{label}: mux report diverges at {sessions} sessions/conn × {threads} threads"
                );
            }
            if label == "mutant" {
                assert!(
                    lockstep.convicted_runs > 0,
                    "mutant campaign saw no convictions"
                );
            } else {
                assert!(lockstep.is_clean(), "derived converter was convicted");
                assert!(lockstep.accepted > 0, "derived campaign relayed nothing");
            }
        }
    }

    /// Pipelined campaigns: a converter the server never rejects
    /// produces a report byte-identical to lockstep at any depth (all
    /// speculation confirms), and a convicted mutant — where
    /// speculation rolls back — still reports identically across
    /// thread counts and depths-of-window (determinism), with the same
    /// set of convicted runs as depth 1.
    #[test]
    fn pipelined_campaigns_stay_deterministic() {
        let system = colocated_configuration();
        let service = exactly_once();
        let q = solve(&system.b, &service, &system.int).expect("colocated converter derives");
        let mutant = (0..8)
            .find_map(|k| redirect_transition(&q.converter, k))
            .expect("converter has transitions to mutate");
        let piped = |components: &[Spec], threads: usize, pipeline: u64| {
            let gw = gateway(components, &service);
            let mut c = cfg(8, threads);
            c.pipeline = pipeline;
            drive_mux(components, &service, &c, || {
                Ok(Box::new(LoopbackMux::new(gw.clone())) as Box<dyn MuxTransport>)
            })
        };
        let derived = [system.b.clone(), q.converter.clone()];
        let gw = gateway(&derived, &service);
        let lockstep = drive(&derived, &service, &cfg(1, 1), || {
            Ok(Box::new(LoopbackConn::new(gw.clone())) as Box<dyn Conn>)
        });
        assert!(lockstep.is_clean(), "derived converter was convicted");
        for pipeline in [2, 4, 16] {
            assert_eq!(
                lockstep.to_json(),
                piped(&derived, 1, pipeline).to_json(),
                "clean pipelined campaign diverged at depth {pipeline}"
            );
        }
        let mutated = [system.b.clone(), mutant.clone()];
        let one = piped(&mutated, 1, 4);
        assert!(one.convicted_runs > 0, "mutant campaign saw no convictions");
        assert_eq!(
            one.to_json(),
            piped(&mutated, 2, 4).to_json(),
            "pipelined mutant report depends on thread count"
        );
        // Speculation may widen frames_sent on rejected runs, but the
        // verdicts must match the classic window exactly.
        let classic = piped(&mutated, 1, 1);
        let convicted = |r: &DriveReport| {
            r.outcomes
                .iter()
                .map(|o| (o.run, o.conviction.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(convicted(&one), convicted(&classic));
    }

    /// A mux connection that dies mid-campaign records transport errors
    /// for the in-flight sessions and the campaign still accounts for
    /// every run.
    #[test]
    fn mux_campaign_survives_connection_failures() {
        struct FailingMux {
            calls: u64,
        }
        impl MuxTransport for FailingMux {
            fn queue(&mut self, _frame: &Frame) -> io::Result<()> {
                Ok(())
            }
            fn exchange(&mut self, _wait: bool, _replies: &mut Vec<Reply>) -> io::Result<()> {
                self.calls += 1;
                Err(io::Error::other("wire snapped"))
            }
        }
        let system = colocated_configuration();
        let service = exactly_once();
        let q = solve(&system.b, &service, &system.int).expect("colocated converter derives");
        let components = [system.b.clone(), q.converter.clone()];
        let report = drive_mux(&components, &service, &cfg(4, 1), || {
            Ok(Box::new(FailingMux { calls: 0 }) as Box<dyn MuxTransport>)
        });
        assert_eq!(report.runs, 48, "every claimed run must be accounted for");
        assert!(report.io_errors > 0, "the snapped wire left no trace");
        for o in &report.outcomes {
            assert!(
                o.io_error.is_some(),
                "run {} completed over a wire that always fails",
                o.run
            );
        }
    }
}
