//! The session-multiplexed relay gateway.
//!
//! A [`Gateway`] owns the converter versions — the active compiled
//! [`GuardProgram`] and at most one draining predecessor — with their
//! per-version session counts, drain and stats. It owns no session.
//! A session id is scoped to the connection that carries it: that
//! connection's FIFO order is the one total order of the session's
//! events, the trace the guard checks. So each connection holds its
//! own session table, a [`BatchScratch`]: `session id → SessionCore`
//! (guard state plus lifecycle), owned by the one thread serving the
//! connection. [`Gateway::call_batch`] answers a batch of frames in
//! arrival order against that table, with one table lookup per frame
//! and no lock.
//!
//! Lifecycle:
//!
//! * a session opens on its first frame, bound to the active version;
//! * [`Gateway::sweep`] removes a table's sessions idle past the
//!   configured timeout, and [`Gateway::end_sessions`] removes all of
//!   them when their connection drops;
//! * [`Gateway::drain`] stops admitting frames
//!   ([`RejectReason::Draining`]). Nothing is ever queued, so every
//!   frame admitted before the flag was set has already been answered.

use crate::codec::{encode_reply, table_hash, Frame, RejectReason, Reply, WireCodec, WireError};
use crate::guard::{GuardProgram, SessionGuard};
use crate::stats::{RuntimeStats, StatsSnapshot};
use protoquot_spec::{Spec, SpecError};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Why a [`Gateway`] failed to start.
#[derive(Debug)]
pub enum GatewayError {
    /// The conversion system failed to compile or validate.
    Spec(SpecError),
    /// The compiled event table cannot be carried by the wire format
    /// (more events than a 16-bit frame index addresses).
    Wire(WireError),
    /// A hot-swap was refused: event-table mismatch, stale version
    /// number, or the previous version still draining (N-1 support).
    Swap(String),
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::Spec(e) => write!(f, "{e}"),
            GatewayError::Wire(e) => write!(f, "{e}"),
            GatewayError::Swap(e) => write!(f, "swap refused: {e}"),
        }
    }
}

impl std::error::Error for GatewayError {}

impl From<SpecError> for GatewayError {
    fn from(e: SpecError) -> GatewayError {
        GatewayError::Spec(e)
    }
}

impl From<WireError> for GatewayError {
    fn from(e: WireError) -> GatewayError {
        GatewayError::Wire(e)
    }
}

/// Tuning knobs of a [`Gateway`].
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Idle time after which [`Gateway::sweep`] removes a session.
    pub idle_timeout: Duration,
    /// Frames (events + stalls) one session may send over its
    /// lifetime; beyond it the session is *expelled*: the frame bounces
    /// with [`RejectReason::ResourceLimit`], the session is marked
    /// closed, and the next idle sweep removes it. `0` disables the
    /// budget (the default — campaigns legitimately run long sessions).
    pub session_frame_budget: u64,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig {
            idle_timeout: Duration::from_secs(30),
            session_frame_budget: 0,
        }
    }
}

/// One connection's session table: `session id → SessionCore`, plus a
/// tombstone per closed session. The thread serving the connection
/// owns it, so the cores sit inline and no lock guards them.
/// [`Gateway::call_batch`] opens a session on its first frame and ends
/// it on its `Close`; [`Gateway::sweep`] and [`Gateway::end_sessions`]
/// remove the rest.
#[derive(Default)]
pub struct BatchScratch {
    /// Live sessions.
    sessions: HashMap<u64, SessionCore>,
    /// Ended sessions (closed or expelled) and the time of their last
    /// frame: a later frame on the id answers `Closed` until the sweep
    /// drops the tombstone. An id and a time, not a core, so a closed
    /// session holds no guard and no converter version.
    closed: HashMap<u64, Instant>,
    /// Most live sessions the table may hold; `0` is unbounded.
    cap: usize,
}

impl BatchScratch {
    /// An empty table with no session cap.
    pub fn new() -> BatchScratch {
        BatchScratch::default()
    }

    /// An empty table holding at most `cap` live sessions (`0`: no
    /// cap). A frame that would open one more bounces with
    /// [`RejectReason::ResourceLimit`]; a `Close` frees its slot.
    pub(crate) fn capped(cap: usize) -> BatchScratch {
        BatchScratch {
            cap,
            ..BatchScratch::default()
        }
    }
}

/// What a session does with a frame admission passed on to it.
#[derive(Clone, Copy, Debug)]
enum SessionOp {
    Event(u16),
    Stall,
    Close,
}

struct SessionCore {
    guard: SessionGuard,
    last_active: Instant,
    /// Event + stall frames processed, charged against
    /// [`GatewayConfig::session_frame_budget`].
    frames_seen: u64,
    /// Converter version this session was bound to at first contact.
    /// Fixed for the session's lifetime: a hot-swap never rebinds a
    /// live session, it only changes what *new* sessions get.
    version: u32,
}

struct GatewayInner {
    /// The active converter: `(version, program)`. Read once per
    /// session open — never on the per-frame path, which goes through
    /// the session's own guard.
    active: RwLock<(u32, Arc<GuardProgram>)>,
    /// The N-1 version still draining sessions, if any. Retired (and
    /// cleared) when its per-version session count reaches zero.
    prev: Mutex<Option<(u32, Arc<GuardProgram>)>>,
    /// FNV-1a hash of the event table — the wire identity every
    /// admissible converter version must share.
    table_hash: u64,
    codec: WireCodec,
    stats: RuntimeStats,
    draining: AtomicBool,
    cfg: GatewayConfig,
}

impl GatewayInner {
    /// Answers a hello: ack with our identity when the peer's table
    /// hash matches (and its pinned version, if any, is the active
    /// one), otherwise a counted `VersionMismatch` reject. No session
    /// state is created or touched.
    fn hello_reply(&self, session: u64, peer_hash: u64, peer_version: u32) -> Reply {
        let active_version = self.active.read().unwrap().0;
        if peer_hash == self.table_hash && (peer_version == 0 || peer_version == active_version) {
            Reply::HelloAck {
                session,
                table_hash: self.table_hash,
                version: active_version,
            }
        } else {
            self.stats.note_reject(RejectReason::VersionMismatch);
            Reply::Rejected {
                session,
                reason: RejectReason::VersionMismatch,
            }
        }
    }

    /// A fresh session bound to the active version, counted open.
    fn open(&self, now: Instant) -> SessionCore {
        let (version, prog) = {
            let active = self.active.read().unwrap();
            (active.0, Arc::clone(&active.1))
        };
        self.stats.note_open(version);
        SessionCore {
            guard: SessionGuard::new(prog),
            last_active: now,
            frames_seen: 0,
            version,
        }
    }

    /// Accounts a session leaving `version`; when that drains the
    /// previous (non-active) version to zero sessions, retires it —
    /// dropping the last gateway reference to its program.
    fn note_session_gone(&self, version: u32) {
        if self.stats.note_version_close(version) == 0 {
            let mut prev = self.prev.lock().unwrap();
            if prev.as_ref().is_some_and(|(v, _)| *v == version) {
                *prev = None;
                self.stats.note_version_retired();
            }
        }
    }
}

/// A cloneable handle to one running gateway.
#[derive(Clone)]
pub struct Gateway {
    inner: Arc<GatewayInner>,
}

impl Gateway {
    /// Compiles `parts` (components plus the derived converter) against
    /// `service` — including the guard-DFA subset construction — and
    /// starts a gateway on it.
    pub fn new(
        parts: &[&Spec],
        service: &Spec,
        cfg: GatewayConfig,
    ) -> Result<Gateway, GatewayError> {
        Gateway::with_program(Arc::new(GuardProgram::new(parts, service)?), cfg)
    }

    /// Starts a gateway on an already-compiled program (e.g. one
    /// instantiated from a registry artifact), bound as version 1.
    pub fn with_program(
        prog: Arc<GuardProgram>,
        cfg: GatewayConfig,
    ) -> Result<Gateway, GatewayError> {
        let codec = WireCodec::from_table(Arc::clone(prog.table()))?;
        let stats = RuntimeStats::with_guard_build(codec.table().len(), prog.build_stats().clone());
        let hash = table_hash(codec.table());
        stats.set_wire_identity(hash, 1);
        Ok(Gateway {
            inner: Arc::new(GatewayInner {
                active: RwLock::new((1, prog)),
                prev: Mutex::new(None),
                table_hash: hash,
                codec,
                stats,
                draining: AtomicBool::new(false),
                cfg,
            }),
        })
    }

    /// The wire codec (shared event table) of this gateway.
    pub fn codec(&self) -> &WireCodec {
        &self.inner.codec
    }

    /// The currently active compiled guard program. New sessions bind
    /// this; sessions opened before a hot-swap keep the program they
    /// were born with.
    pub fn program(&self) -> Arc<GuardProgram> {
        Arc::clone(&self.inner.active.read().unwrap().1)
    }

    /// The currently active converter version.
    pub fn active_version(&self) -> u32 {
        self.inner.active.read().unwrap().0
    }

    /// FNV-1a hash of the event table — the wire identity negotiated
    /// at hello and required of every swapped-in converter version.
    pub fn table_hash(&self) -> u64 {
        self.inner.table_hash
    }

    /// Hot-swaps the active converter to `prog` as `version`.
    ///
    /// New sessions bind `prog` immediately; existing sessions drain
    /// on the program they were born with. One previous version may be
    /// draining at a time (N-1 support): a second swap is refused
    /// until the earlier version's session count reaches zero and it
    /// is retired. The replacement must carry a byte-identical event
    /// table (same wire identity) and a strictly newer version number.
    pub fn swap(&self, version: u32, prog: Arc<GuardProgram>) -> Result<(), GatewayError> {
        let inner = &self.inner;
        let new_hash = table_hash(prog.table());
        if new_hash != inner.table_hash {
            return Err(GatewayError::Swap(format!(
                "event-table hash {:016x} does not match the wire identity {:016x}",
                new_hash, inner.table_hash
            )));
        }
        // Lock order: active (write) then prev — matched nowhere else,
        // so no cycle. Session open takes active (read) only; session
        // close takes prev only.
        let mut active = inner.active.write().unwrap();
        if version <= active.0 {
            return Err(GatewayError::Swap(format!(
                "version {version} is not newer than active version {}",
                active.0
            )));
        }
        let mut prev = inner.prev.lock().unwrap();
        if let Some((draining, _)) = prev.as_ref() {
            let left = inner.stats.sessions_on_version(*draining);
            if left > 0 {
                return Err(GatewayError::Swap(format!(
                    "version {draining} still draining {left} session(s); \
                     only one previous version may drain at a time"
                )));
            }
            // Fully drained but never observed a close (e.g. no
            // session ever bound it): retire it now.
            *prev = None;
            inner.stats.note_version_retired();
        }
        let old = std::mem::replace(&mut *active, (version, prog));
        if inner.stats.sessions_on_version(old.0) > 0 {
            *prev = Some(old);
        } else {
            inner.stats.note_version_retired();
        }
        inner.stats.note_swap();
        inner.stats.set_wire_identity(inner.table_hash, version);
        Ok(())
    }

    /// Admission, the first step of every frame: counts the frame,
    /// bounces it while the gateway drains, and answers a hello from
    /// the wire identity. Negotiation is connection-level, so a hello
    /// never opens or touches a session. Whatever passes is the
    /// operation its session applies.
    fn admit(&self, frame: Frame) -> Result<SessionOp, Reply> {
        let inner = &self.inner;
        inner.stats.note_frame();
        let session = frame.session();
        if inner.draining.load(Ordering::Acquire) {
            inner.stats.note_reject(RejectReason::Draining);
            return Err(Reply::Rejected {
                session,
                reason: RejectReason::Draining,
            });
        }
        match frame {
            Frame::Event { event, .. } => Ok(SessionOp::Event(event)),
            Frame::Stall { .. } => Ok(SessionOp::Stall),
            Frame::Close { .. } => Ok(SessionOp::Close),
            Frame::Hello {
                table_hash,
                version,
                ..
            } => Err(inner.hello_reply(session, table_hash, version)),
        }
    }

    /// Applies `op` to `session` in `table`: one lookup for a live
    /// session. An unknown id is looked up once more among the
    /// tombstones, then opened unless the table's cap is reached or the
    /// operation is a `Close`. A session the operation ends leaves a
    /// tombstone.
    fn step(&self, table: &mut BatchScratch, session: u64, op: SessionOp, now: Instant) -> Reply {
        let inner = &*self.inner;
        let reject = |reason: RejectReason| {
            inner.stats.note_reject(reason);
            Reply::Rejected { session, reason }
        };
        let full = table.cap > 0 && table.sessions.len() >= table.cap;
        let mut entry = match table.sessions.entry(session) {
            Entry::Occupied(e) => e,
            Entry::Vacant(e) => {
                if let Some(last) = table.closed.get_mut(&session) {
                    *last = now;
                    return reject(RejectReason::Closed);
                }
                match op {
                    // A `Close` on an id the table never opened ends
                    // nothing: answered, it leaves no session and no
                    // tombstone, so it cannot grow the table.
                    SessionOp::Close => return Reply::Accepted { session },
                    _ if full => return reject(RejectReason::ResourceLimit),
                    _ => e.insert_entry(inner.open(now)),
                }
            }
        };
        let core = entry.get_mut();
        core.last_active = now;
        let (reply, ended) = process(inner, core, session, op);
        if ended {
            inner.stats.note_close();
            inner.note_session_gone(entry.remove().version);
            table.closed.insert(session, now);
        }
        reply
    }

    /// Answers `frames` — one transport batch of one connection — in
    /// arrival order against the connection's session `table`, one
    /// table lookup and one guard-DFA row per frame. Replies are
    /// encoded straight into `out` (the caller's reusable outbound
    /// buffer) with no per-frame allocation. A hello, or any frame
    /// while draining, is answered by admission alone and opens no
    /// session.
    ///
    /// Every frame is answered inline, so `slow` is never invoked; the
    /// parameter is kept only so existing callers compile unchanged.
    pub fn call_batch(
        &self,
        frames: &[Frame],
        table: &mut BatchScratch,
        out: &mut Vec<u8>,
        _slow: &mut dyn FnMut(Frame),
    ) {
        if frames.is_empty() {
            return;
        }
        self.inner.stats.note_batch(frames.len());
        let now = Instant::now();
        for &frame in frames {
            let reply = match self.admit(frame) {
                Ok(op) => self.step(table, frame.session(), op, now),
                Err(reply) => reply,
            };
            encode_reply(&reply, out);
        }
    }

    /// Evicts the live sessions of `table` that `gone` picks; a
    /// previous version drained to zero retires here. Returns how many
    /// went.
    fn evict(&self, table: &mut BatchScratch, gone: impl Fn(&SessionCore) -> bool) -> usize {
        let inner = &*self.inner;
        let before = table.sessions.len();
        table.sessions.retain(|_, core| {
            if !gone(core) {
                return true;
            }
            inner.stats.note_evict();
            inner.note_session_gone(core.version);
            false
        });
        before - table.sessions.len()
    }

    /// Evicts the sessions of `table` idle longer than the configured
    /// timeout, and drops its tombstones as old. Returns how many
    /// sessions went.
    pub fn sweep(&self, table: &mut BatchScratch) -> usize {
        let (now, idle) = (Instant::now(), self.inner.cfg.idle_timeout);
        table
            .closed
            .retain(|_, last| now.duration_since(*last) < idle);
        self.evict(table, |core| now.duration_since(core.last_active) >= idle)
    }

    /// Ends every session of `table`, as when its connection drops.
    pub fn end_sessions(&self, table: &mut BatchScratch) {
        table.closed.clear();
        self.evict(table, |_| true);
    }

    /// The configured idle timeout, for transports that schedule
    /// [`Gateway::sweep`].
    pub(crate) fn idle_timeout(&self) -> Duration {
        self.inner.cfg.idle_timeout
    }

    /// Stops admitting frames: from here on every frame bounces with
    /// [`RejectReason::Draining`]. Frames are answered on the thread
    /// that hands them in, so nothing is left in flight to wait for.
    pub fn drain(&self) {
        self.inner.draining.store(true, Ordering::Release);
    }

    /// The live counters, for transports to record connection events.
    pub(crate) fn runtime_stats(&self) -> &RuntimeStats {
        &self.inner.stats
    }

    /// Answers a transport-level hello: counted like any frame, acked
    /// or rejected from the gateway's wire identity, touching no
    /// session state. Transports call this for hellos they intercept
    /// at connection open.
    pub(crate) fn hello(&self, session: u64, peer_hash: u64, peer_version: u32) -> Reply {
        self.inner.stats.note_frame();
        self.inner.hello_reply(session, peer_hash, peer_version)
    }

    /// Accounts a frame a *transport* refused before submission (a
    /// connection that skipped negotiation) and builds the rejection
    /// reply. Keeps transport-side rejects indistinguishable from
    /// gateway-side ones in the stats: the frame is counted, the
    /// reason is counted.
    pub(crate) fn transport_reject(&self, session: u64, reason: RejectReason) -> Reply {
        self.inner.stats.note_frame();
        self.inner.stats.note_reject(reason);
        Reply::Rejected { session, reason }
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot(self.inner.codec.table())
    }

    /// Sessions currently resident in all connections' tables: the
    /// `sessions.active` gauge.
    pub fn resident_sessions(&self) -> usize {
        self.stats().sessions_active as usize
    }
}

/// Applies one admitted operation to a live session: its reply, and
/// whether the operation ended the session.
fn process(
    inner: &GatewayInner,
    core: &mut SessionCore,
    session: u64,
    op: SessionOp,
) -> (Reply, bool) {
    let reject = |reason: RejectReason| {
        inner.stats.note_reject(reason);
        Reply::Rejected { session, reason }
    };
    // Frame budget: an event/stall stream past the configured cap
    // expels the session — convict-or-evict, never serve an abusive
    // session forever. `Close` is always admitted (it releases state).
    if !matches!(op, SessionOp::Close) {
        let budget = inner.cfg.session_frame_budget;
        core.frames_seen += 1;
        if budget > 0 && core.frames_seen > budget {
            inner.stats.note_expel();
            return (reject(RejectReason::ResourceLimit), true);
        }
    }
    let already = core.guard.convicted().is_some();
    let verdict = match op {
        SessionOp::Event(event) => {
            if inner.codec.event_of(event).is_none() {
                return (reject(RejectReason::UnknownEvent), false);
            }
            core.guard
                .observe(event)
                .map(|()| inner.stats.note_accept(event))
        }
        SessionOp::Stall => core.guard.attest_stall(),
        SessionOp::Close => return (Reply::Accepted { session }, true),
    };
    let reply = match verdict {
        Ok(()) => Reply::Accepted { session },
        Err(_) if already => reject(RejectReason::Convicted),
        Err(conviction) => {
            inner.stats.note_conviction();
            reject(conviction.reject_reason())
        }
    };
    (reply, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::ReplyBuffer;
    use protoquot_spec::{EventId, SpecBuilder};

    fn relay_system() -> (Spec, Spec) {
        let mut b = SpecBuilder::new("impl");
        let s0 = b.state("s0");
        let s1 = b.state("s1");
        b.ext(s0, "acc", s1);
        b.ext(s1, "del", s0);
        let implementation = b.build().unwrap();
        let mut b = SpecBuilder::new("service");
        let u0 = b.state("u0");
        let u1 = b.state("u1");
        b.ext(u0, "acc", u1);
        b.ext(u1, "del", u0);
        (implementation, b.build().unwrap())
    }

    fn gateway(cfg: GatewayConfig) -> Gateway {
        let (implementation, service) = relay_system();
        Gateway::new(&[&implementation], &service, cfg).unwrap()
    }

    fn no_slow(_: Frame) {
        unreachable!("call_batch answers every frame inline")
    }

    fn ev(gw: &Gateway, session: u64, name: &str) -> Frame {
        gw.codec().event_frame(session, EventId::new(name)).unwrap()
    }

    /// Every reply `call_batch` encodes for `frames`, in order.
    fn batch(gw: &Gateway, table: &mut BatchScratch, frames: &[Frame]) -> Vec<Reply> {
        let mut out = Vec::new();
        gw.call_batch(frames, table, &mut out, &mut no_slow);
        let mut rdec = ReplyBuffer::new();
        rdec.extend(&out);
        std::iter::from_fn(|| rdec.next_reply().unwrap()).collect()
    }

    /// One frame's reply: `call_batch` on a one-frame slice.
    fn call(gw: &Gateway, table: &mut BatchScratch, frame: Frame) -> Reply {
        let replies = batch(gw, table, &[frame]);
        assert_eq!(replies.len(), 1, "one frame, one reply");
        replies[0]
    }

    fn rejected(session: u64, reason: RejectReason) -> Reply {
        Reply::Rejected { session, reason }
    }

    #[test]
    fn sessions_are_isolated_and_ordered() {
        let gw = gateway(GatewayConfig::default());
        let mut t = BatchScratch::new();
        assert_eq!(
            call(&gw, &mut t, ev(&gw, 1, "acc")),
            Reply::Accepted { session: 1 }
        );
        // Session 2 starts fresh: `del` first is a service violation
        // there, while session 1 can take it.
        assert_eq!(
            call(&gw, &mut t, ev(&gw, 2, "del")),
            rejected(2, RejectReason::NotATrace)
        );
        assert_eq!(
            call(&gw, &mut t, ev(&gw, 1, "del")),
            Reply::Accepted { session: 1 }
        );
        assert_eq!(gw.resident_sessions(), 2);
        let snap = gw.stats();
        assert_eq!(snap.sessions_opened, 2);
        assert_eq!(snap.accepted, 2);
        assert_eq!(snap.convictions, 1);
        assert!(snap.guard_build.dfa_states > 0, "build stats must flow");
        gw.drain();
    }

    /// `Close` ends the session at once and leaves a tombstone: later
    /// frames on the id answer `closed` until the sweep drops it, and
    /// the id then opens a fresh session.
    #[test]
    fn close_ends_the_session_and_its_tombstone_answers_until_swept() {
        let gw = gateway(GatewayConfig {
            idle_timeout: Duration::from_millis(0),
            ..GatewayConfig::default()
        });
        let mut t = BatchScratch::new();
        assert_eq!(
            call(&gw, &mut t, ev(&gw, 9, "acc")),
            Reply::Accepted { session: 9 }
        );
        let close = Frame::Close { session: 9 };
        assert_eq!(call(&gw, &mut t, close), Reply::Accepted { session: 9 });
        assert_eq!((gw.resident_sessions(), gw.stats().sessions_closed), (0, 1));
        assert_eq!(gw.stats().version_sessions, vec![]);
        assert_eq!(
            call(&gw, &mut t, ev(&gw, 9, "del")),
            rejected(9, RejectReason::Closed)
        );
        assert_eq!(gw.sweep(&mut t), 0, "a tombstone is not a session");
        assert_eq!(
            call(&gw, &mut t, ev(&gw, 9, "acc")),
            Reply::Accepted { session: 9 }
        );
        assert_eq!(gw.stats().sessions_opened, 2);
    }

    /// Ending a table evicts its live sessions whatever their idle
    /// time; a closed one was already counted at its `Close`.
    #[test]
    fn ending_a_table_ends_its_sessions() {
        let gw = gateway(GatewayConfig::default());
        let mut t = BatchScratch::new();
        call(&gw, &mut t, ev(&gw, 1, "acc"));
        call(&gw, &mut t, ev(&gw, 2, "acc"));
        call(&gw, &mut t, Frame::Close { session: 2 });
        assert_eq!(gw.sweep(&mut t), 0, "nothing is idle for 30 s yet");
        gw.end_sessions(&mut t);
        let snap = gw.stats();
        assert_eq!((snap.sessions_active, snap.sessions_closed), (0, 1));
        assert_eq!(snap.sessions_evicted, 1);
        assert_eq!(snap.version_sessions, vec![]);
    }

    #[test]
    fn draining_rejects_new_frames() {
        let gw = gateway(GatewayConfig::default());
        gw.drain();
        assert_eq!(
            call(&gw, &mut BatchScratch::new(), ev(&gw, 3, "acc")),
            rejected(3, RejectReason::Draining)
        );
        assert_eq!(gw.stats().sessions_opened, 0);
    }

    #[test]
    fn unknown_event_indices_bounce() {
        let gw = gateway(GatewayConfig::default());
        let frame = Frame::Event {
            session: 4,
            event: 999,
        };
        assert_eq!(
            call(&gw, &mut BatchScratch::new(), frame),
            rejected(4, RejectReason::UnknownEvent)
        );
        gw.drain();
    }

    /// A session that overruns its frame budget is expelled: the
    /// overrunning frame bounces with `ResourceLimit` and ends the
    /// session, later frames see `Closed`, and other sessions are
    /// untouched.
    #[test]
    fn frame_budget_expels_abusive_sessions() {
        let cfg = GatewayConfig {
            session_frame_budget: 4,
            idle_timeout: Duration::from_millis(0),
        };
        let gw = gateway(cfg);
        let mut t = BatchScratch::new();
        for _ in 0..2 {
            assert_eq!(
                call(&gw, &mut t, ev(&gw, 1, "acc")),
                Reply::Accepted { session: 1 }
            );
            assert_eq!(
                call(&gw, &mut t, ev(&gw, 1, "del")),
                Reply::Accepted { session: 1 }
            );
        }
        assert_eq!(
            call(&gw, &mut t, ev(&gw, 1, "acc")),
            rejected(1, RejectReason::ResourceLimit)
        );
        assert_eq!(
            call(&gw, &mut t, ev(&gw, 1, "del")),
            rejected(1, RejectReason::Closed)
        );
        // A well-behaved session is unaffected.
        assert_eq!(
            call(&gw, &mut t, ev(&gw, 2, "acc")),
            Reply::Accepted { session: 2 }
        );
        let snap = gw.stats();
        assert_eq!(snap.sessions_expelled, 1);
        assert!(snap.rejects.contains(&("resource_limit", 1)));
        // The expelled session counts as closed, not as an idle
        // eviction: it was terminated for cause, and `expelled`
        // already attributes the cause.
        assert_eq!((snap.sessions_closed, snap.sessions_active), (1, 1));
        gw.drain();
        assert_eq!(gw.sweep(&mut t), 1);
        assert_eq!(gw.resident_sessions(), 0);
        assert_eq!(gw.stats().sessions_evicted, 1);
    }

    /// A capped table bounces the session past its cap at open, while
    /// known sessions and `Close` frames pass (a `Close` on an unknown
    /// id opens nothing); a closed or expelled session frees its slot.
    #[test]
    fn capped_table_bounces_sessions_past_the_cap() {
        let gw = gateway(GatewayConfig {
            session_frame_budget: 2,
            ..GatewayConfig::default()
        });
        let mut t = BatchScratch::capped(2);
        let limit = |s| rejected(s, RejectReason::ResourceLimit);
        let replies = batch(
            &gw,
            &mut t,
            &[
                ev(&gw, 1, "acc"),
                ev(&gw, 2, "acc"),
                ev(&gw, 3, "acc"),
                ev(&gw, 1, "del"),
                Frame::Close { session: 4 },
                Frame::Close { session: 1 },
                ev(&gw, 3, "acc"),
            ],
        );
        let accepted = |session| Reply::Accepted { session };
        assert_eq!(
            replies,
            [
                accepted(1),
                accepted(2),
                limit(3),
                accepted(1),
                accepted(4),
                accepted(1),
                accepted(3),
            ]
        );
        // Session 2 overruns its budget of two frames and is expelled,
        // which frees its slot for session 5.
        let replies = batch(
            &gw,
            &mut t,
            &[
                ev(&gw, 6, "acc"),
                ev(&gw, 2, "del"),
                ev(&gw, 2, "acc"),
                ev(&gw, 5, "acc"),
            ],
        );
        assert_eq!(replies, [limit(6), accepted(2), limit(2), accepted(5)]);
        assert!(gw.stats().rejects.contains(&("resource_limit", 3)));
    }

    /// A flood of `Close` frames on ids the table never opened is
    /// answered frame by frame and leaves the table empty: no session
    /// opens and no tombstone stays behind, cap or no cap.
    #[test]
    fn closes_on_unknown_ids_leave_the_table_empty() {
        let gw = gateway(GatewayConfig::default());
        for mut t in [BatchScratch::capped(8), BatchScratch::new()] {
            let frames: Vec<Frame> = (0..10_000)
                .map(|session| Frame::Close { session })
                .collect();
            let replies = batch(&gw, &mut t, &frames);
            let want: Vec<Reply> = (0..10_000)
                .map(|session| Reply::Accepted { session })
                .collect();
            assert_eq!(replies, want);
            assert_eq!((t.sessions.len(), t.closed.len()), (0, 0));
        }
        let snap = gw.stats();
        assert_eq!((snap.sessions_opened, snap.sessions_closed), (0, 0));
    }

    /// 32 threads share one gateway, each stepping a session of its own
    /// table through 100 accepted events: the shared counters add up.
    #[test]
    fn many_sessions_in_parallel_stay_consistent() {
        let gw = gateway(GatewayConfig::default());
        std::thread::scope(|scope| {
            for session in 0..32u64 {
                let gw = &gw;
                scope.spawn(move || {
                    let mut t = BatchScratch::new();
                    for _ in 0..50 {
                        let acc = ev(gw, session, "acc");
                        assert_eq!(call(gw, &mut t, acc), Reply::Accepted { session });
                        let del = ev(gw, session, "del");
                        assert_eq!(call(gw, &mut t, del), Reply::Accepted { session });
                    }
                });
            }
        });
        let snap = gw.stats();
        assert_eq!(snap.accepted, 32 * 100);
        assert_eq!(snap.convictions, 0);
        assert_eq!(snap.sessions_opened, 32);
        gw.drain();
    }

    /// Batched execution is per-frame execution: the replies `call_batch`
    /// gives an interleaved multi-session batch are, in order, the
    /// replies one-frame calls give, and the stats agree.
    #[test]
    fn call_batch_matches_per_frame_replies() {
        let batched = gateway(GatewayConfig::default());
        let oracle = gateway(GatewayConfig::default());
        let frames: Vec<Frame> = vec![
            ev(&batched, 1, "acc"),
            ev(&batched, 2, "del"), // fresh-session violation: convicts 2
            ev(&batched, 1, "del"),
            Frame::Stall { session: 3 },
            ev(&batched, 2, "acc"), // already convicted
            ev(&batched, 1, "acc"),
            Frame::Close { session: 3 },
        ];
        let mut t = BatchScratch::new();
        let want: Vec<Reply> = frames.iter().map(|&f| call(&oracle, &mut t, f)).collect();
        assert_eq!(batch(&batched, &mut BatchScratch::new(), &frames), want);
        let (a, b) = (batched.stats(), oracle.stats());
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.convictions, b.convictions);
        assert_eq!(a.rejects, b.rejects);
        assert_eq!(a.frames, b.frames);
        assert_eq!(a.batches, 1);
        assert_eq!(a.batch_frames, frames.len() as u64);
        batched.drain();
        oracle.drain();
    }

    /// The mux shape — one frame per session per batch, from one
    /// thread — counts every frame and opens each session once.
    #[test]
    fn one_frame_per_session_batches_count_every_frame() {
        let gw = gateway(GatewayConfig::default());
        let (mut t, mut out) = (BatchScratch::new(), Vec::new());
        for _ in 0..4 {
            let round: Vec<Frame> = (0..256).map(|session| Frame::Stall { session }).collect();
            gw.call_batch(&round, &mut t, &mut out, &mut no_slow);
        }
        let snap = gw.stats();
        assert_eq!((snap.batches, snap.batch_frames), (4, 1024));
        assert_eq!((snap.sessions_opened, snap.sessions_active), (256, 256));
    }

    /// A draining gateway bounces a whole batch with per-frame
    /// `Draining` rejects, still encoded into the caller's buffer.
    #[test]
    fn call_batch_rejects_everything_while_draining() {
        let gw = gateway(GatewayConfig::default());
        gw.drain();
        let frames = [
            Frame::Stall { session: 7 },
            Frame::Close { session: 8 },
            Frame::Stall { session: 7 },
        ];
        let rej = |session| rejected(session, RejectReason::Draining);
        assert_eq!(
            batch(&gw, &mut BatchScratch::new(), &frames),
            vec![rej(7), rej(8), rej(7)]
        );
    }

    /// One id in two tables is two sessions. Two threads batch 1000
    /// stalls each into session 1 of their own table under a
    /// 1500-frame budget: neither session sees the other's frames, so
    /// each stays under its budget and accepts all 1000.
    #[test]
    fn one_id_in_two_tables_is_two_sessions() {
        let gw = gateway(GatewayConfig {
            session_frame_budget: 1500,
            ..GatewayConfig::default()
        });
        let frames = vec![Frame::Stall { session: 1 }; 1000];
        let tallies: Vec<Vec<Reply>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let (gw, frames) = (&gw, &frames);
                    scope.spawn(move || batch(gw, &mut BatchScratch::new(), frames))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for replies in tallies {
            assert_eq!(replies, vec![Reply::Accepted { session: 1 }; 1000]);
        }
        let snap = gw.stats();
        assert_eq!(snap.batch_frames, 2000);
        assert_eq!(snap.sessions_opened, 2);
        assert_eq!(snap.sessions_expelled, 0);
    }

    /// Negotiation through `call_batch` is connection-level: a hello
    /// is answered from the wire identity and opens no session, so it
    /// cannot hold a version open against the next swap. Mixed with
    /// session work, it answers in arrival order.
    #[test]
    fn call_batch_answers_hellos_without_opening_sessions() {
        let gw = gateway(GatewayConfig::default());
        let hash = gw.table_hash();
        let hello = |table_hash| Frame::Hello {
            session: 0,
            table_hash,
            version: 0,
        };
        let ack = Reply::HelloAck {
            session: 0,
            table_hash: hash,
            version: 1,
        };
        let mut t = BatchScratch::new();
        assert_eq!(
            batch(&gw, &mut t, &[hello(hash), hello(hash ^ 1)]),
            [ack, rejected(0, RejectReason::VersionMismatch)]
        );
        assert_eq!(gw.resident_sessions(), 0);
        assert_eq!(gw.stats().sessions_opened, 0);
        let acc = ev(&gw, 0, "acc");
        assert_eq!(
            batch(&gw, &mut t, &[acc, hello(hash), acc]),
            [
                Reply::Accepted { session: 0 },
                ack,
                rejected(0, RejectReason::NotATrace)
            ]
        );
        assert_eq!(gw.stats().sessions_opened, 1);
        gw.drain();
    }

    /// A behaviourally identical implementation with renamed states:
    /// same alphabet (same event table, same wire identity), distinct
    /// compiled program — the shape of a legitimate converter rev.
    fn relay_system_v2() -> (Spec, Spec) {
        let mut b = SpecBuilder::new("impl-v2");
        let t0 = b.state("t0");
        let t1 = b.state("t1");
        b.ext(t0, "acc", t1);
        b.ext(t1, "del", t0);
        let implementation = b.build().unwrap();
        let (_, service) = relay_system();
        (implementation, service)
    }

    #[test]
    fn hello_negotiation_acks_match_and_rejects_mismatch() {
        let gw = gateway(GatewayConfig::default());
        let hash = gw.table_hash();
        assert_ne!(hash, 0);
        let mut t = BatchScratch::new();
        let mut hello = |table_hash, version| {
            call(
                &gw,
                &mut t,
                Frame::Hello {
                    session: 0,
                    table_hash,
                    version,
                },
            )
        };
        let ack = Reply::HelloAck {
            session: 0,
            table_hash: hash,
            version: 1,
        };
        // Matching hash, unpinned version: ack with our identity.
        assert_eq!(hello(hash, 0), ack);
        // Pinning the active version also acks.
        assert_eq!(hello(hash, 1), ack);
        // A peer speaking a different event table is turned away.
        let mismatch = rejected(0, RejectReason::VersionMismatch);
        assert_eq!(hello(hash ^ 1, 0), mismatch);
        // So is one pinned to a version we no longer (or never) serve.
        assert_eq!(hello(hash, 7), mismatch);
        // Negotiation is connection-level: no session state was made.
        assert_eq!(gw.resident_sessions(), 0);
        let snap = gw.stats();
        assert_eq!(snap.sessions_opened, 0);
        assert!(snap.rejects.contains(&("version_mismatch", 2)));
        assert_eq!(snap.table_hash, hash);
        assert_eq!(snap.active_version, 1);
        gw.drain();
    }

    #[test]
    fn hot_swap_binds_new_sessions_and_drains_old_before_retiring() {
        let gw = gateway(GatewayConfig {
            idle_timeout: Duration::from_millis(0),
            ..GatewayConfig::default()
        });
        let mut t = BatchScratch::new();
        // Session 1 opens on version 1.
        assert_eq!(
            call(&gw, &mut t, ev(&gw, 1, "acc")),
            Reply::Accepted { session: 1 }
        );
        // Swap in the rev: same event table, new program, version 2.
        let (impl2, service) = relay_system_v2();
        let prog2 = Arc::new(GuardProgram::new(&[&impl2], &service).unwrap());
        gw.swap(2, Arc::clone(&prog2)).unwrap();
        assert_eq!(gw.active_version(), 2);
        // Session 1 keeps draining on v1; session 2 binds v2.
        assert_eq!(
            call(&gw, &mut t, ev(&gw, 1, "del")),
            Reply::Accepted { session: 1 }
        );
        assert_eq!(
            call(&gw, &mut t, ev(&gw, 2, "acc")),
            Reply::Accepted { session: 2 }
        );
        let snap = gw.stats();
        assert_eq!(snap.active_version, 2);
        assert_eq!(snap.swaps, 1);
        assert_eq!(snap.version_sessions, vec![(1, 1), (2, 1)]);
        // A third version is refused while v1 still drains (N-1).
        let err = gw.swap(3, Arc::clone(&prog2)).unwrap_err();
        assert!(matches!(err, GatewayError::Swap(_)), "{err}");
        // Stale or duplicate version numbers are refused outright.
        assert!(gw.swap(2, Arc::clone(&prog2)).is_err());
        // A program speaking a different event table can never go live.
        let mut b = SpecBuilder::new("other");
        let s0 = b.state("s0");
        b.ext(s0, "foo", s0);
        let other = b.build().unwrap();
        let mut b = SpecBuilder::new("other-svc");
        let u0 = b.state("u0");
        b.ext(u0, "foo", u0);
        let other_svc = b.build().unwrap();
        let alien = Arc::new(GuardProgram::new(&[&other], &other_svc).unwrap());
        assert!(matches!(gw.swap(3, alien), Err(GatewayError::Swap(_))));
        // Drain v1: closing its session retires it at once, and the
        // next swap is admitted.
        let close = Frame::Close { session: 1 };
        assert_eq!(call(&gw, &mut t, close), Reply::Accepted { session: 1 });
        assert_eq!(gw.stats().versions_retired, 1);
        gw.drain();
        gw.sweep(&mut t);
        let snap = gw.stats();
        // The zero-timeout sweep evicted session 2, so no version
        // holds sessions — but the *active* version never retires.
        assert_eq!(snap.versions_retired, 1);
        assert_eq!(snap.version_sessions, vec![]);
        gw.swap(3, prog2).unwrap();
        assert_eq!(gw.active_version(), 3);
    }
}
