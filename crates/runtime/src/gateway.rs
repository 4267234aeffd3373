//! The session-multiplexed relay gateway.
//!
//! A [`Gateway`] owns one compiled [`GuardProgram`] and a sharded
//! session table: `session id → SessionCore` (guard state plus
//! lifecycle), owned by stripe-locked maps. Every frame is
//! answered inline on the thread that hands it in — admission, the
//! session's shard lock, one guard-DFA row. [`Gateway::call_batch`]
//! runs a transport batch grouped by session, one lock acquisition
//! per session per batch; [`Gateway::call`] is the same step for a
//! single frame. The shard lock is the session lock: it serializes a
//! session whose frames arrive on several threads, while sessions in
//! distinct shards proceed in parallel. No code path waits for a shard
//! lock while it holds another gateway lock, so the gateway cannot
//! deadlock against itself.
//!
//! Lifecycle:
//!
//! * [`Gateway::evict_idle`] sweeps sessions idle past the configured
//!   timeout, shard by shard under the same lock;
//! * [`Gateway::drain`] stops admitting frames
//!   ([`RejectReason::Draining`]). Nothing is ever queued, so every
//!   frame admitted before the flag was set has already been answered.

use crate::codec::{encode_reply, table_hash, Frame, RejectReason, Reply, WireCodec, WireError};
use crate::guard::{GuardProgram, SessionGuard};
use crate::stats::{RuntimeStats, StatsSnapshot};
use protoquot_spec::{Spec, SpecError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Stripe-locked shards of the session table. A session step holds
/// its shard lock for the whole guard run, so event loops serving
/// different connections wait on each other only when their sessions
/// share a shard. With 64 stripes, four connections of 256 sessions on
/// two loops wait for under 1% of their frames (EXPERIMENTS, EXP-R5).
const SHARDS: usize = 64;

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
    /// Idle time after which [`Gateway::evict_idle`] removes a session.
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

/// One batch group: the frames of one session, chained in arrival
/// order through [`BatchScratch::next`].
struct BatchGroup {
    session: u64,
    head: u32,
    tail: u32,
    count: u32,
    /// How many of the frames are hellos.
    hellos: u32,
}

/// Reusable per-connection scratch for [`Gateway::call_batch`]:
/// groups a batch's frames by session without allocating in the
/// steady state. Grouping is an intrusive linked list over frame
/// indices — one hash lookup per frame, groups iterated in order of
/// first appearance, per-session frame order preserved.
#[derive(Default)]
pub struct BatchScratch {
    by_session: HashMap<u64, u32>,
    groups: Vec<BatchGroup>,
    /// `next[i]` is the index of the next frame of the same session,
    /// or `u32::MAX` at a chain's tail.
    next: Vec<u32>,
}

impl BatchScratch {
    /// An empty scratch; buffers grow to the largest batch seen and
    /// are retained across calls.
    pub fn new() -> BatchScratch {
        BatchScratch::default()
    }

    fn group(&mut self, frames: &[Frame]) {
        self.by_session.clear();
        self.groups.clear();
        self.next.clear();
        self.next.resize(frames.len(), u32::MAX);
        for (i, frame) in frames.iter().enumerate() {
            let i = i as u32;
            let g = match self.by_session.entry(frame.session()) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    let g = &mut self.groups[*e.get() as usize];
                    self.next[g.tail as usize] = i;
                    g.tail = i;
                    g.count += 1;
                    g
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(self.groups.len() as u32);
                    self.groups.push(BatchGroup {
                        session: frame.session(),
                        head: i,
                        tail: i,
                        count: 1,
                        hellos: 0,
                    });
                    self.groups.last_mut().expect("just pushed")
                }
            };
            g.hellos += u32::from(matches!(frame, Frame::Hello { .. }));
        }
    }

    /// The frame indices of `g`, in arrival order.
    fn chain(&self, g: &BatchGroup) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(Some(g.head), |&i| Some(self.next[i as usize]))
            .take(g.count as usize)
            .map(|i| i as usize)
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
    closed: bool,
    last_active: Instant,
    /// Event + stall frames processed, charged against
    /// [`GatewayConfig::session_frame_budget`].
    frames_seen: u64,
    /// Converter version this session was bound to at first contact.
    /// Fixed for the session's lifetime: a hot-swap never rebinds a
    /// live session, it only changes what *new* sessions get.
    version: u32,
}

/// Each core is boxed: cores stored inline would sit next to each
/// other in the shard's table, so loops stepping neighbouring sessions
/// would write to the same cache lines.
type Shard = Mutex<HashMap<u64, Box<SessionCore>>>;

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
    shards: Vec<Shard>,
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
                shards: (0..SHARDS).map(|_| Shard::default()).collect(),
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

    /// Admission, the one step every entry point shares: counts the
    /// frame, bounces it while the gateway drains, and answers a hello
    /// from the wire identity. Negotiation is connection-level, so a
    /// hello never opens or touches a session. Whatever passes is the
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

    /// The execution step every entry point shares: takes `session`'s
    /// shard lock once, opens the session on first contact, and runs
    /// `frames` — all of that session, in arrival order — through
    /// admission and the guard, handing each reply to `answer`.
    /// Returns whether another thread held the lock; trying it first
    /// costs nothing when none does.
    fn step_session(
        &self,
        session: u64,
        frames: impl Iterator<Item = Frame>,
        mut answer: impl FnMut(Reply),
    ) -> bool {
        let inner = &self.inner;
        let shard = &inner.shards[(session % SHARDS as u64) as usize];
        let (mut map, contended) = match shard.try_lock() {
            Ok(map) => (map, false),
            Err(_) => (shard.lock().expect("shard lock poisoned"), true),
        };
        let core = map.entry(session).or_insert_with(|| {
            let (version, prog) = {
                let active = inner.active.read().unwrap();
                (active.0, Arc::clone(&active.1))
            };
            inner.stats.note_open(version);
            Box::new(SessionCore {
                guard: SessionGuard::new(prog),
                closed: false,
                last_active: Instant::now(),
                frames_seen: 0,
                version,
            })
        });
        for frame in frames {
            answer(match self.admit(frame) {
                Ok(op) => process(inner, core, session, op),
                Err(reply) => reply,
            });
        }
        core.last_active = Instant::now();
        contended
    }

    /// Answers one frame on the caller's thread: the one-frame case of
    /// the per-session step [`Gateway::call_batch`] runs. A hello, or
    /// any frame while draining, is answered by admission alone and
    /// opens no session.
    pub fn call(&self, frame: Frame) -> Reply {
        if matches!(frame, Frame::Hello { .. }) || self.inner.draining.load(Ordering::Acquire) {
            return self
                .admit(frame)
                .expect_err("admission answers hellos and draining frames");
        }
        let mut reply = None;
        self.step_session(frame.session(), std::iter::once(frame), |r| reply = Some(r));
        reply.expect("one frame, one reply")
    }

    /// Processes one transport batch — every frame decoded from one
    /// readiness chunk — grouped by session: one shard-lock
    /// acquisition and one contiguous guard-DFA run per session per
    /// batch. Replies are encoded straight into `out` (the caller's
    /// reusable outbound buffer) with no per-frame allocation.
    ///
    /// Every frame is answered inline, so `slow` is never invoked; the
    /// parameter is kept only so existing callers compile unchanged.
    ///
    /// Replies land in `out` grouped by session (groups in order of
    /// first appearance, per-session order preserved) — equivalent to
    /// per-frame execution for any client that attributes replies by
    /// the session id in their headers, as the campaign driver does.
    /// The `batch` fuzz target holds this equivalence against
    /// per-frame [`Gateway::call`]s at arbitrary batch boundaries.
    pub fn call_batch(
        &self,
        frames: &[Frame],
        scratch: &mut BatchScratch,
        out: &mut Vec<u8>,
        _slow: &mut dyn FnMut(Frame),
    ) {
        if frames.is_empty() {
            return;
        }
        let inner = &self.inner;
        inner.stats.note_batch(frames.len());
        // A draining gateway admits nothing: every frame is answered
        // in arrival order, and no session is opened.
        if inner.draining.load(Ordering::Acquire) {
            for &frame in frames {
                let reply = self
                    .admit(frame)
                    .expect_err("a draining gateway admits nothing");
                encode_reply(&reply, out);
            }
            return;
        }
        scratch.group(frames);
        let mut deepest = 0;
        for g in &scratch.groups {
            deepest = deepest.max(g.count);
            if g.hellos == g.count {
                // Hellos alone need no session core, so negotiation
                // never opens a session.
                for i in scratch.chain(g) {
                    let reply = self
                        .admit(frames[i])
                        .expect_err("admission answers every hello");
                    encode_reply(&reply, out);
                }
            } else if self.step_session(g.session, scratch.chain(g).map(|i| frames[i]), |r| {
                encode_reply(&r, out)
            }) {
                inner.stats.note_batch_slow(g.count as usize);
            }
        }
        inner.stats.note_batch_backlog(deepest as usize - 1);
    }

    /// Removes sessions idle longer than the configured timeout.
    /// Returns how many were evicted.
    pub fn evict_idle(&self) -> usize {
        let inner = &self.inner;
        let mut evicted = 0;
        let mut gone_versions = Vec::new();
        for shard in &inner.shards {
            let mut map = shard.lock().unwrap();
            map.retain(|_, core| {
                let stale = core.last_active.elapsed() >= inner.cfg.idle_timeout;
                if stale {
                    if core.closed {
                        inner.stats.note_close();
                    } else {
                        inner.stats.note_evict();
                    }
                    gone_versions.push(core.version);
                    evicted += 1;
                }
                !stale
            });
        }
        // Version accounting outside the shard locks: draining the
        // previous version to zero retires it here.
        for version in gone_versions {
            inner.note_session_gone(version);
        }
        evicted
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

    /// Accounts a frame a *transport* refused before submission (e.g.
    /// the per-connection session cap) and builds the rejection reply.
    /// Keeps transport-side rejects indistinguishable from gateway-side
    /// ones in the stats: the frame is counted, the reason is counted.
    pub(crate) fn transport_reject(&self, session: u64, reason: RejectReason) -> Reply {
        self.inner.stats.note_frame();
        self.inner.stats.note_reject(reason);
        Reply::Rejected { session, reason }
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot(self.inner.codec.table())
    }

    /// Sessions currently resident in the table.
    pub fn resident_sessions(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().unwrap().len())
            .sum()
    }
}

/// Applies one admitted operation to a session under its shard lock.
fn process(inner: &GatewayInner, core: &mut SessionCore, session: u64, op: SessionOp) -> Reply {
    let reject = |reason: RejectReason| {
        inner.stats.note_reject(reason);
        Reply::Rejected { session, reason }
    };
    if core.closed {
        return reject(RejectReason::Closed);
    }
    // Frame budget: an event/stall stream past the configured cap
    // expels the session — convict-or-evict, never serve an abusive
    // session forever. `Close` is always admitted (it releases state).
    if !matches!(op, SessionOp::Close) {
        let budget = inner.cfg.session_frame_budget;
        core.frames_seen += 1;
        if budget > 0 && core.frames_seen > budget {
            core.closed = true;
            inner.stats.note_expel();
            return reject(RejectReason::ResourceLimit);
        }
    }
    let already = core.guard.convicted().is_some();
    let verdict = match op {
        SessionOp::Event(event) => {
            if inner.codec.event_of(event).is_none() {
                return reject(RejectReason::UnknownEvent);
            }
            core.guard
                .observe(event)
                .map(|()| inner.stats.note_accept(event))
        }
        SessionOp::Stall => core.guard.attest_stall(),
        SessionOp::Close => {
            core.closed = true;
            return Reply::Accepted { session };
        }
    };
    match verdict {
        Ok(()) => Reply::Accepted { session },
        Err(_) if already => reject(RejectReason::Convicted),
        Err(conviction) => {
            inner.stats.note_conviction();
            reject(conviction.reject_reason())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protoquot_spec::SpecBuilder;

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

    #[test]
    fn sessions_are_isolated_and_ordered() {
        let gw = gateway(GatewayConfig::default());
        let acc = gw
            .codec()
            .event_frame(1, protoquot_spec::EventId::new("acc"));
        let acc = acc.unwrap();
        assert_eq!(gw.call(acc), Reply::Accepted { session: 1 });
        // Session 2 starts fresh: `del` first is a service violation
        // there, while session 1 can take it.
        let del2 = gw
            .codec()
            .event_frame(2, protoquot_spec::EventId::new("del"))
            .unwrap();
        assert_eq!(
            gw.call(del2),
            Reply::Rejected {
                session: 2,
                reason: RejectReason::NotATrace,
            }
        );
        let del1 = gw
            .codec()
            .event_frame(1, protoquot_spec::EventId::new("del"))
            .unwrap();
        assert_eq!(gw.call(del1), Reply::Accepted { session: 1 });
        assert_eq!(gw.resident_sessions(), 2);
        let snap = gw.stats();
        assert_eq!(snap.sessions_opened, 2);
        assert_eq!(snap.accepted, 2);
        assert_eq!(snap.convictions, 1);
        assert!(snap.guard_build.dfa_states > 0, "build stats must flow");
        gw.drain();
    }

    #[test]
    fn close_then_evict_removes_the_session() {
        let cfg = GatewayConfig {
            idle_timeout: Duration::from_millis(0),
            ..GatewayConfig::default()
        };
        let gw = gateway(cfg);
        assert_eq!(
            gw.call(Frame::Close { session: 9 }),
            Reply::Accepted { session: 9 }
        );
        let acc = gw
            .codec()
            .event_frame(9, protoquot_spec::EventId::new("acc"))
            .unwrap();
        assert_eq!(
            gw.call(acc),
            Reply::Rejected {
                session: 9,
                reason: RejectReason::Closed,
            }
        );
        assert_eq!(gw.evict_idle(), 1);
        assert_eq!(gw.resident_sessions(), 0);
        let snap = gw.stats();
        assert_eq!(snap.sessions_closed, 1);
    }

    #[test]
    fn draining_rejects_new_frames() {
        let gw = gateway(GatewayConfig::default());
        gw.drain();
        let acc = gw
            .codec()
            .event_frame(3, protoquot_spec::EventId::new("acc"))
            .unwrap();
        assert_eq!(
            gw.call(acc),
            Reply::Rejected {
                session: 3,
                reason: RejectReason::Draining,
            }
        );
    }

    #[test]
    fn unknown_event_indices_bounce() {
        let gw = gateway(GatewayConfig::default());
        assert_eq!(
            gw.call(Frame::Event {
                session: 4,
                event: 999
            }),
            Reply::Rejected {
                session: 4,
                reason: RejectReason::UnknownEvent,
            }
        );
        gw.drain();
    }

    /// A session that overruns its frame budget is expelled: the
    /// overrunning frame bounces with `ResourceLimit`, later frames see
    /// `Closed`, other sessions are untouched, and the idle sweep
    /// removes the expelled core.
    #[test]
    fn frame_budget_expels_abusive_sessions() {
        let cfg = GatewayConfig {
            session_frame_budget: 4,
            idle_timeout: Duration::from_millis(0),
        };
        let gw = gateway(cfg);
        let acc = |s| {
            gw.codec()
                .event_frame(s, protoquot_spec::EventId::new("acc"))
                .unwrap()
        };
        let del = |s| {
            gw.codec()
                .event_frame(s, protoquot_spec::EventId::new("del"))
                .unwrap()
        };
        for _ in 0..2 {
            assert_eq!(gw.call(acc(1)), Reply::Accepted { session: 1 });
            assert_eq!(gw.call(del(1)), Reply::Accepted { session: 1 });
        }
        assert_eq!(
            gw.call(acc(1)),
            Reply::Rejected {
                session: 1,
                reason: RejectReason::ResourceLimit,
            }
        );
        assert_eq!(
            gw.call(del(1)),
            Reply::Rejected {
                session: 1,
                reason: RejectReason::Closed,
            }
        );
        // A well-behaved session is unaffected.
        assert_eq!(gw.call(acc(2)), Reply::Accepted { session: 2 });
        let snap = gw.stats();
        assert_eq!(snap.sessions_expelled, 1);
        assert!(snap.rejects.contains(&("resource_limit", 1)));
        gw.drain();
        assert_eq!(gw.evict_idle(), 2);
        assert_eq!(gw.resident_sessions(), 0);
        // The expelled session counts as closed by the sweep, not as an
        // idle eviction: it was terminated for cause, and `expelled`
        // already attributes the cause.
        assert_eq!(gw.stats().sessions_closed, 1);
    }

    #[test]
    fn many_sessions_in_parallel_stay_consistent() {
        let gw = gateway(GatewayConfig::default());
        let codec = gw.codec().clone();
        std::thread::scope(|scope| {
            for session in 0..32u64 {
                let gw = gw.clone();
                let codec = codec.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        let acc = codec.event_frame(session, protoquot_spec::EventId::new("acc"));
                        assert_eq!(gw.call(acc.unwrap()), Reply::Accepted { session });
                        let del = codec.event_frame(session, protoquot_spec::EventId::new("del"));
                        assert_eq!(gw.call(del.unwrap()), Reply::Accepted { session });
                    }
                });
            }
        });
        let snap = gw.stats();
        assert_eq!(snap.accepted, 32 * 100);
        assert_eq!(snap.convictions, 0);
        gw.drain();
    }

    /// Batched execution is observationally equivalent to per-frame
    /// execution: for every session, the reply sequence produced by
    /// `call_batch` over an interleaved multi-session batch matches
    /// what sequential `call`s produce, and the stats agree.
    #[test]
    fn call_batch_matches_per_frame_replies() {
        let batched = gateway(GatewayConfig::default());
        let oracle = gateway(GatewayConfig::default());
        let ev = |gw: &Gateway, s, name| {
            gw.codec()
                .event_frame(s, protoquot_spec::EventId::new(name))
                .unwrap()
        };
        let frames: Vec<Frame> = vec![
            ev(&batched, 1, "acc"),
            ev(&batched, 2, "del"), // fresh-session violation: convicts 2
            ev(&batched, 1, "del"),
            Frame::Stall { session: 3 },
            ev(&batched, 2, "acc"), // already convicted
            ev(&batched, 1, "acc"),
            Frame::Close { session: 3 },
        ];
        let mut per_session: HashMap<u64, Vec<Reply>> = HashMap::new();
        for &frame in &frames {
            per_session
                .entry(frame.session())
                .or_default()
                .push(oracle.call(frame));
        }
        let mut scratch = BatchScratch::new();
        let mut out = Vec::new();
        batched.call_batch(&frames, &mut scratch, &mut out, &mut no_slow);
        // Replies come back grouped by session; per-session order must
        // match the oracle's.
        let mut rdec = crate::codec::ReplyBuffer::new();
        rdec.extend(&out);
        let mut batched_per_session: HashMap<u64, Vec<Reply>> = HashMap::new();
        while let Some(reply) = rdec.next_reply().unwrap() {
            batched_per_session
                .entry(reply.session())
                .or_default()
                .push(reply);
        }
        assert_eq!(batched_per_session, per_session);
        let (a, b) = (batched.stats(), oracle.stats());
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.convictions, b.convictions);
        assert_eq!(a.rejects, b.rejects);
        assert_eq!(a.frames, b.frames);
        assert_eq!(a.batches, 1);
        assert_eq!(a.batch_frames, frames.len() as u64);
        assert_eq!(a.batch_slow, 0, "one thread never contends a session");
        // Session 1's three frames: two waited behind its first.
        assert_eq!(a.queue_high_water, 2);
        batched.drain();
        oracle.drain();
    }

    /// The mux shape — one frame per session per batch, from one
    /// thread — keeps both contention gauges at zero.
    #[test]
    fn one_frame_per_session_batches_leave_contention_gauges_at_zero() {
        let gw = gateway(GatewayConfig::default());
        let (mut scratch, mut out) = (BatchScratch::new(), Vec::new());
        for _ in 0..4 {
            let round: Vec<Frame> = (0..256).map(|session| Frame::Stall { session }).collect();
            gw.call_batch(&round, &mut scratch, &mut out, &mut no_slow);
        }
        let snap = gw.stats();
        assert_eq!((snap.batch_frames, snap.batch_slow), (1024, 0));
        assert_eq!(snap.queue_high_water, 0);
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
        let mut scratch = BatchScratch::new();
        let mut out = Vec::new();
        gw.call_batch(&frames, &mut scratch, &mut out, &mut no_slow);
        let mut rdec = crate::codec::ReplyBuffer::new();
        rdec.extend(&out);
        let mut replies = Vec::new();
        while let Some(reply) = rdec.next_reply().unwrap() {
            replies.push(reply);
        }
        let rej = |session| Reply::Rejected {
            session,
            reason: RejectReason::Draining,
        };
        assert_eq!(replies, vec![rej(7), rej(8), rej(7)]);
    }

    /// Two threads batch 1000 stalls each into one session under a
    /// 1500-frame budget. Whatever the interleaving, the session lock
    /// serializes them: exactly 1500 accepted, the 1501st expels the
    /// session, and the 499 after it see `closed`.
    #[test]
    fn contended_session_is_serialized_by_its_lock() {
        let gw = gateway(GatewayConfig {
            session_frame_budget: 1500,
            ..GatewayConfig::default()
        });
        let frames = vec![Frame::Stall { session: 1 }; 1000];
        let outs: Vec<Vec<u8>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let (gw, frames) = (&gw, &frames);
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        gw.call_batch(frames, &mut BatchScratch::new(), &mut out, &mut no_slow);
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut tally: HashMap<&str, u32> = HashMap::new();
        let mut rdec = crate::codec::ReplyBuffer::new();
        for out in &outs {
            rdec.extend(out);
        }
        while let Some(reply) = rdec.next_reply().unwrap() {
            let name = match reply {
                Reply::Accepted { .. } => "accepted",
                Reply::Rejected { reason, .. } => reason.name(),
                Reply::HelloAck { .. } => "hello_ack",
            };
            *tally.entry(name).or_default() += 1;
        }
        let want: HashMap<&str, u32> = [("accepted", 1500), ("resource_limit", 1), ("closed", 499)]
            .into_iter()
            .collect();
        assert_eq!(tally, want);
        let snap = gw.stats();
        assert_eq!(snap.batch_frames, 2000);
        // A group is contended as a whole or not at all.
        assert!(
            [0, 1000, 2000].contains(&snap.batch_slow),
            "{}",
            snap.batch_slow
        );
        assert_eq!(snap.queue_high_water, 999);
        assert_eq!(snap.sessions_expelled, 1);
    }

    /// Negotiation through `call_batch` is connection-level exactly as
    /// through `call`: a hello is answered from the wire identity and
    /// opens no session, so it cannot hold a version open against the
    /// next swap. A hello sharing a batch with its session's frames
    /// keeps its place in that session's reply order.
    #[test]
    fn call_batch_answers_hellos_without_opening_sessions() {
        let batched = gateway(GatewayConfig::default());
        let oracle = gateway(GatewayConfig::default());
        let hash = batched.table_hash();
        let hello = |table_hash| Frame::Hello {
            session: 0,
            table_hash,
            version: 0,
        };
        let mut scratch = BatchScratch::new();
        let mut out = Vec::new();
        batched.call_batch(
            &[hello(hash), hello(hash ^ 1)],
            &mut scratch,
            &mut out,
            &mut no_slow,
        );
        let mut rdec = crate::codec::ReplyBuffer::new();
        rdec.extend(&out);
        for frame in [hello(hash), hello(hash ^ 1)] {
            assert_eq!(rdec.next_reply().unwrap(), Some(oracle.call(frame)));
        }
        assert_eq!(rdec.next_reply().unwrap(), None);
        for gw in [&batched, &oracle] {
            assert_eq!(gw.resident_sessions(), 0);
            assert_eq!(gw.stats().sessions_opened, 0);
        }
        // Mixed with session work, the hello answers in arrival order.
        let acc = batched
            .codec()
            .event_frame(0, protoquot_spec::EventId::new("acc"))
            .unwrap();
        out.clear();
        batched.call_batch(
            &[acc, hello(hash), acc],
            &mut scratch,
            &mut out,
            &mut no_slow,
        );
        rdec.extend(&out);
        let ack = Reply::HelloAck {
            session: 0,
            table_hash: hash,
            version: 1,
        };
        let not_a_trace = Reply::Rejected {
            session: 0,
            reason: RejectReason::NotATrace,
        };
        for want in [Reply::Accepted { session: 0 }, ack, not_a_trace] {
            assert_eq!(rdec.next_reply().unwrap(), Some(want));
        }
        assert_eq!(batched.stats().sessions_opened, 1);
        batched.drain();
        oracle.drain();
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
        // Matching hash, unpinned version: ack with our identity.
        assert_eq!(
            gw.call(Frame::Hello {
                session: 0,
                table_hash: hash,
                version: 0,
            }),
            Reply::HelloAck {
                session: 0,
                table_hash: hash,
                version: 1,
            }
        );
        // Pinning the active version also acks.
        assert_eq!(
            gw.call(Frame::Hello {
                session: 0,
                table_hash: hash,
                version: 1,
            }),
            Reply::HelloAck {
                session: 0,
                table_hash: hash,
                version: 1,
            }
        );
        // A peer speaking a different event table is turned away.
        assert_eq!(
            gw.call(Frame::Hello {
                session: 0,
                table_hash: hash ^ 1,
                version: 0,
            }),
            Reply::Rejected {
                session: 0,
                reason: RejectReason::VersionMismatch,
            }
        );
        // So is one pinned to a version we no longer (or never) serve.
        assert_eq!(
            gw.call(Frame::Hello {
                session: 0,
                table_hash: hash,
                version: 7,
            }),
            Reply::Rejected {
                session: 0,
                reason: RejectReason::VersionMismatch,
            }
        );
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
        let cfg = GatewayConfig {
            idle_timeout: Duration::from_millis(0),
            ..GatewayConfig::default()
        };
        let gw = gateway(cfg);
        let acc = |s| {
            gw.codec()
                .event_frame(s, protoquot_spec::EventId::new("acc"))
                .unwrap()
        };
        // Session 1 opens on version 1.
        assert_eq!(gw.call(acc(1)), Reply::Accepted { session: 1 });
        // Swap in the rev: same event table, new program, version 2.
        let (impl2, service) = relay_system_v2();
        let prog2 = Arc::new(GuardProgram::new(&[&impl2], &service).unwrap());
        gw.swap(2, Arc::clone(&prog2)).unwrap();
        assert_eq!(gw.active_version(), 2);
        // Session 1 keeps draining on v1; session 2 binds v2.
        let del1 = gw
            .codec()
            .event_frame(1, protoquot_spec::EventId::new("del"))
            .unwrap();
        assert_eq!(gw.call(del1), Reply::Accepted { session: 1 });
        assert_eq!(gw.call(acc(2)), Reply::Accepted { session: 2 });
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
        // Drain v1: close its session, sweep it out — v1 retires and
        // the next swap is admitted.
        assert_eq!(
            gw.call(Frame::Close { session: 1 }),
            Reply::Accepted { session: 1 }
        );
        gw.drain();
        gw.evict_idle();
        let snap = gw.stats();
        assert_eq!(snap.versions_retired, 1);
        // The zero-timeout sweep also evicted session 2, so no version
        // holds sessions — but the *active* version never retires.
        assert_eq!(snap.version_sessions, vec![]);
        gw.swap(3, prog2).unwrap();
        assert_eq!(gw.active_version(), 3);
    }
}
