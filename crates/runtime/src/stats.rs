//! Gateway observability: lock-free counters and JSON snapshots.
//!
//! [`RuntimeStats`] is a bag of atomics bumped from the hot paths
//! (admission, batches, eviction); [`StatsSnapshot`] is an immutable view with
//! derived rates, rendered as text (`protoquot serve --stats`) or JSON
//! (the periodic snapshot stream).

use crate::codec::RejectReason;
use crate::guard::{Conviction, GuardBuildStats};
use protoquot_spec::EventTable;
use serde::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const REASONS: [RejectReason; 10] = [
    RejectReason::NotATrace,
    RejectReason::ServiceViolation,
    RejectReason::Stalled,
    RejectReason::Convicted,
    RejectReason::Backpressure,
    RejectReason::Draining,
    RejectReason::Closed,
    RejectReason::UnknownEvent,
    RejectReason::ResourceLimit,
    RejectReason::VersionMismatch,
];

/// Counter slot for a reject reason. Exhaustive on purpose: adding a
/// `RejectReason` variant without growing [`REASONS`] (and this match)
/// is a compile error, not a runtime panic in the hot reject path.
fn reason_slot(reason: RejectReason) -> usize {
    match reason {
        RejectReason::NotATrace => 0,
        RejectReason::ServiceViolation => 1,
        RejectReason::Stalled => 2,
        RejectReason::Convicted => 3,
        RejectReason::Backpressure => 4,
        RejectReason::Draining => 5,
        RejectReason::Closed => 6,
        RejectReason::UnknownEvent => 7,
        RejectReason::ResourceLimit => 8,
        RejectReason::VersionMismatch => 9,
    }
}

/// Why a transport cut a connection before the peer closed it — the
/// connection-level half of the eviction taxonomy (the session-level
/// half is idle eviction and budget expulsion in the gateway). The
/// invariant these exist for: an abusive peer is convicted or evicted,
/// never allowed to stall an event loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnEvictReason {
    /// The peer stopped reading and its outbound buffer overran the
    /// cap (reactor write-buffer limit, previously a silent drop).
    SlowConsumer,
    /// The peer left a frame unfinished past the read deadline
    /// (slow-drip / slow-loris input).
    SlowRead,
    /// The peer sent bytes that do not decode (garbage, oversize or
    /// zero length prefix) or died mid-frame (torn stream).
    Protocol,
}

impl ConnEvictReason {
    /// Stable snake_case name for stats keys.
    pub fn name(self) -> &'static str {
        match self {
            ConnEvictReason::SlowConsumer => "slow_consumer",
            ConnEvictReason::SlowRead => "slow_read",
            ConnEvictReason::Protocol => "protocol",
        }
    }
}

/// Slot order of [`ConnEvictReason`] counters; exhaustive like
/// [`reason_slot`].
const CONN_EVICT_REASONS: [ConnEvictReason; 3] = [
    ConnEvictReason::SlowConsumer,
    ConnEvictReason::SlowRead,
    ConnEvictReason::Protocol,
];

fn conn_evict_slot(reason: ConnEvictReason) -> usize {
    match reason {
        ConnEvictReason::SlowConsumer => 0,
        ConnEvictReason::SlowRead => 1,
        ConnEvictReason::Protocol => 2,
    }
}

/// Power-of-two batch-size histogram buckets: bucket `i` counts
/// batches of `2^i ..= 2^(i+1)-1` frames, the last bucket is open.
const BATCH_BUCKETS: usize = 8;

/// Stable labels of the batch-size buckets, for snapshots.
const BATCH_BUCKET_NAMES: [&str; BATCH_BUCKETS] = ["1", "2", "4", "8", "16", "32", "64", "128+"];

fn batch_bucket(frames: usize) -> usize {
    (usize::BITS - 1 - frames.max(1).leading_zeros()).min(BATCH_BUCKETS as u32 - 1) as usize
}

/// Shared counters of one gateway.
pub struct RuntimeStats {
    started: Instant,
    sessions_opened: AtomicU64,
    sessions_evicted: AtomicU64,
    sessions_closed: AtomicU64,
    sessions_active: AtomicU64,
    sessions_expelled: AtomicU64,
    connections_opened: AtomicU64,
    connections_closed: AtomicU64,
    conn_evictions: [AtomicU64; 3],
    frames: AtomicU64,
    accepted: AtomicU64,
    rejects: [AtomicU64; 10],
    convictions: AtomicU64,
    /// Most frames of one session that waited behind an earlier frame
    /// of the same session in one batch.
    queue_high_water: AtomicU64,
    /// Batches taken through `Gateway::call_batch`.
    batches: AtomicU64,
    /// Frames carried by those batches.
    batch_frames: AtomicU64,
    /// Batched frames processed inline under the session lock.
    batch_inline: AtomicU64,
    /// Batched frames whose session lock was held by another thread
    /// when their group reached it.
    batch_slow: AtomicU64,
    /// Batch-size histogram, power-of-two buckets.
    batch_hist: [AtomicU64; BATCH_BUCKETS],
    /// Raw bytes read off transport sockets.
    bytes_in: AtomicU64,
    /// Raw bytes written back to transport sockets.
    bytes_out: AtomicU64,
    /// Accepted frames per event-table index.
    per_event: Vec<AtomicU64>,
    /// Build-time cost of the guard DFA (fixed at construction).
    guard_build: GuardBuildStats,
    /// Negotiation fingerprint of the active event table
    /// ([`crate::codec::table_hash`]); 0 until the gateway sets it.
    table_hash: AtomicU64,
    /// The converter version new sessions bind (registry version id).
    active_version: AtomicU64,
    /// Live sessions per converter version. Touched only at session
    /// open/close/evict — never on the per-frame path.
    version_sessions: Mutex<BTreeMap<u32, u64>>,
    /// Completed hot-swaps (`Gateway` activations after the first).
    swaps: AtomicU64,
    /// Old versions fully drained and released.
    versions_retired: AtomicU64,
}

impl RuntimeStats {
    /// Fresh counters for a table of `num_events` wire events.
    pub fn new(num_events: usize) -> RuntimeStats {
        RuntimeStats::with_guard_build(num_events, GuardBuildStats::default())
    }

    /// Fresh counters carrying the gateway's guard-DFA build stats.
    pub fn with_guard_build(num_events: usize, guard_build: GuardBuildStats) -> RuntimeStats {
        RuntimeStats {
            started: Instant::now(),
            sessions_opened: AtomicU64::new(0),
            sessions_evicted: AtomicU64::new(0),
            sessions_closed: AtomicU64::new(0),
            sessions_active: AtomicU64::new(0),
            sessions_expelled: AtomicU64::new(0),
            connections_opened: AtomicU64::new(0),
            connections_closed: AtomicU64::new(0),
            conn_evictions: Default::default(),
            frames: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            rejects: Default::default(),
            convictions: AtomicU64::new(0),
            queue_high_water: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batch_frames: AtomicU64::new(0),
            batch_inline: AtomicU64::new(0),
            batch_slow: AtomicU64::new(0),
            batch_hist: Default::default(),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            per_event: (0..num_events).map(|_| AtomicU64::new(0)).collect(),
            guard_build,
            table_hash: AtomicU64::new(0),
            active_version: AtomicU64::new(0),
            version_sessions: Mutex::new(BTreeMap::new()),
            swaps: AtomicU64::new(0),
            versions_retired: AtomicU64::new(0),
        }
    }

    /// Records the gateway's wire identity: the negotiation fingerprint
    /// of its event table and the converter version new sessions bind.
    /// Called at construction and again on every hot-swap.
    pub fn set_wire_identity(&self, table_hash: u64, version: u32) {
        self.table_hash.store(table_hash, Ordering::Relaxed);
        self.active_version
            .store(u64::from(version), Ordering::Relaxed);
    }

    /// A hot-swap activated a new converter version.
    pub fn note_swap(&self) {
        self.swaps.fetch_add(1, Ordering::Relaxed);
    }

    /// An old converter version's last session ended and its program
    /// was released.
    pub fn note_version_retired(&self) {
        self.versions_retired.fetch_add(1, Ordering::Relaxed);
    }

    /// A session bound converter version `version` at open.
    pub fn note_version_open(&self, version: u32) {
        let mut map = self.version_sessions.lock().expect("stats mutex poisoned");
        *map.entry(version).or_insert(0) += 1;
    }

    /// A session bound to `version` ended (close, evict, or expel);
    /// returns the sessions still live on that version, so the gateway
    /// can retire a fully drained old program.
    pub fn note_version_close(&self, version: u32) -> u64 {
        let mut map = self.version_sessions.lock().expect("stats mutex poisoned");
        match map.get_mut(&version) {
            Some(n) if *n > 1 => {
                *n -= 1;
                *n
            }
            Some(_) => {
                map.remove(&version);
                0
            }
            None => 0,
        }
    }

    /// Live sessions currently bound to `version`.
    pub fn sessions_on_version(&self, version: u32) -> u64 {
        let map = self.version_sessions.lock().expect("stats mutex poisoned");
        map.get(&version).copied().unwrap_or(0)
    }

    /// A session was created.
    pub fn note_open(&self) {
        self.sessions_opened.fetch_add(1, Ordering::Relaxed);
        self.sessions_active.fetch_add(1, Ordering::Relaxed);
    }

    /// A session was evicted by the idle sweeper.
    pub fn note_evict(&self) {
        self.sessions_evicted.fetch_add(1, Ordering::Relaxed);
        self.sessions_active.fetch_sub(1, Ordering::Relaxed);
    }

    /// A session was closed and removed.
    pub fn note_close(&self) {
        self.sessions_closed.fetch_add(1, Ordering::Relaxed);
        self.sessions_active.fetch_sub(1, Ordering::Relaxed);
    }

    /// A transport connection was accepted.
    pub fn note_conn_open(&self) {
        self.connections_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// A transport connection ended (clean EOF, torn stream, or error).
    pub fn note_conn_close(&self) {
        self.connections_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// A transport cut a connection for `reason`. Counted *in addition
    /// to* [`RuntimeStats::note_conn_close`], which still fires when the
    /// connection is dropped — evictions attribute the cut, closes
    /// count it.
    pub fn note_conn_evict(&self, reason: ConnEvictReason) {
        self.conn_evictions[conn_evict_slot(reason)].fetch_add(1, Ordering::Relaxed);
    }

    /// A session overran its frame budget and was expelled (marked
    /// closed by the gateway rather than by a client `Close`).
    pub fn note_expel(&self) {
        self.sessions_expelled.fetch_add(1, Ordering::Relaxed);
    }

    /// A frame arrived (before any verdict).
    pub fn note_frame(&self) {
        self.frames.fetch_add(1, Ordering::Relaxed);
    }

    /// An event frame passed the guard.
    pub fn note_accept(&self, event: u16) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = self.per_event.get(usize::from(event)) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A frame was rejected with `reason`.
    pub fn note_reject(&self, reason: RejectReason) {
        self.rejects[reason_slot(reason)].fetch_add(1, Ordering::Relaxed);
    }

    /// The guard convicted a session (counted once per session).
    pub fn note_conviction(&self, _conviction: &Conviction) {
        self.convictions.fetch_add(1, Ordering::Relaxed);
    }

    /// In one batch, `frames` frames of one session waited behind an
    /// earlier frame of that session (its largest group size − 1).
    /// Called once per batch.
    pub fn note_batch_backlog(&self, frames: usize) {
        self.queue_high_water
            .fetch_max(frames as u64, Ordering::Relaxed);
    }

    /// One `call_batch` of `frames` frames entered the gateway.
    pub fn note_batch(&self, frames: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_frames
            .fetch_add(frames as u64, Ordering::Relaxed);
        self.batch_hist[batch_bucket(frames)].fetch_add(1, Ordering::Relaxed);
    }

    /// `n` batched frames were processed inline under the session lock.
    pub fn note_batch_inline(&self, n: usize) {
        self.batch_inline.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// `n` batched frames found their session lock held by another
    /// thread and waited for it.
    pub fn note_batch_slow(&self, n: usize) {
        self.batch_slow.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// `n` raw bytes arrived from a transport socket.
    pub fn note_bytes_in(&self, n: usize) {
        self.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// `n` raw bytes were written back to a transport socket.
    pub fn note_bytes_out(&self, n: usize) {
        self.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// An immutable snapshot with derived rates.
    pub fn snapshot(&self, table: &EventTable) -> StatsSnapshot {
        let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
        let accepted = self.accepted.load(Ordering::Relaxed);
        StatsSnapshot {
            uptime_secs: elapsed,
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            sessions_evicted: self.sessions_evicted.load(Ordering::Relaxed),
            sessions_closed: self.sessions_closed.load(Ordering::Relaxed),
            sessions_active: self.sessions_active.load(Ordering::Relaxed),
            sessions_expelled: self.sessions_expelled.load(Ordering::Relaxed),
            connections_opened: self.connections_opened.load(Ordering::Relaxed),
            connections_closed: self.connections_closed.load(Ordering::Relaxed),
            conn_evictions: CONN_EVICT_REASONS
                .iter()
                .enumerate()
                .map(|(i, &r)| (r.name(), self.conn_evictions[i].load(Ordering::Relaxed)))
                .collect(),
            frames: self.frames.load(Ordering::Relaxed),
            accepted,
            events_per_sec: accepted as f64 / elapsed,
            rejects: REASONS
                .iter()
                .enumerate()
                .map(|(i, &r)| (r.name(), self.rejects[i].load(Ordering::Relaxed)))
                .filter(|&(_, n)| n > 0)
                .collect(),
            convictions: self.convictions.load(Ordering::Relaxed),
            queue_high_water: self.queue_high_water.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batch_frames: self.batch_frames.load(Ordering::Relaxed),
            batch_inline: self.batch_inline.load(Ordering::Relaxed),
            batch_slow: self.batch_slow.load(Ordering::Relaxed),
            batch_hist: BATCH_BUCKET_NAMES
                .iter()
                .zip(&self.batch_hist)
                .map(|(&name, c)| (name, c.load(Ordering::Relaxed)))
                .collect(),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            per_event: table
                .events
                .iter()
                .zip(&self.per_event)
                .map(|(e, c)| (e.name(), c.load(Ordering::Relaxed)))
                .collect(),
            guard_build: self.guard_build.clone(),
            table_hash: self.table_hash.load(Ordering::Relaxed),
            active_version: self.active_version.load(Ordering::Relaxed) as u32,
            version_sessions: self
                .version_sessions
                .lock()
                .expect("stats mutex poisoned")
                .iter()
                .map(|(&v, &n)| (v, n))
                .collect(),
            swaps: self.swaps.load(Ordering::Relaxed),
            versions_retired: self.versions_retired.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time view of [`RuntimeStats`].
#[derive(Clone, Debug)]
pub struct StatsSnapshot {
    /// Seconds since the gateway started.
    pub uptime_secs: f64,
    /// Sessions ever created.
    pub sessions_opened: u64,
    /// Sessions removed by the idle sweeper.
    pub sessions_evicted: u64,
    /// Sessions removed after a `Close` frame.
    pub sessions_closed: u64,
    /// Sessions currently resident.
    pub sessions_active: u64,
    /// Sessions expelled after overrunning their frame budget.
    pub sessions_expelled: u64,
    /// Transport connections ever accepted (0 for pure loopback).
    pub connections_opened: u64,
    /// Transport connections ended.
    pub connections_closed: u64,
    /// Connection cuts per [`ConnEvictReason`] (every reason listed,
    /// zero counts included — operators alert on these).
    pub conn_evictions: Vec<(&'static str, u64)>,
    /// Frames received.
    pub frames: u64,
    /// Event frames accepted by the guard.
    pub accepted: u64,
    /// Accepted events per second of uptime.
    pub events_per_sec: f64,
    /// Reject counts per reason (zero counts omitted).
    pub rejects: Vec<(&'static str, u64)>,
    /// Sessions convicted by the online guard.
    pub convictions: u64,
    /// Most frames of one session that waited behind an earlier frame
    /// of the same session in one batch (largest group size − 1).
    pub queue_high_water: u64,
    /// Batches taken through `Gateway::call_batch`.
    pub batches: u64,
    /// Frames carried by those batches.
    pub batch_frames: u64,
    /// Batched frames processed inline under the session lock.
    pub batch_inline: u64,
    /// Batched frames whose session lock was held by another thread.
    pub batch_slow: u64,
    /// Batch-size histogram: power-of-two buckets (`"1"`, `"2"`, …,
    /// `"128+"`), every bucket listed with zero counts included.
    pub batch_hist: Vec<(&'static str, u64)>,
    /// Raw bytes read off transport sockets.
    pub bytes_in: u64,
    /// Raw bytes written back to transport sockets.
    pub bytes_out: u64,
    /// Accepted frames per event name, in event-table order.
    pub per_event: Vec<(String, u64)>,
    /// Size and build cost of the compiled guard DFA.
    pub guard_build: GuardBuildStats,
    /// Negotiation fingerprint of the active event table (0 when the
    /// gateway never set one — bare `RuntimeStats` in tests).
    pub table_hash: u64,
    /// Converter version new sessions bind.
    pub active_version: u32,
    /// Live sessions per converter version, ascending by version.
    pub version_sessions: Vec<(u32, u64)>,
    /// Completed hot-swaps.
    pub swaps: u64,
    /// Old versions fully drained and released.
    pub versions_retired: u64,
}

impl StatsSnapshot {
    /// The snapshot as a JSON value tree.
    pub fn to_value(&self) -> Value {
        let mut o = BTreeMap::new();
        o.insert("uptime_secs".into(), Value::Float(self.uptime_secs));
        let mut s = BTreeMap::new();
        s.insert("opened".into(), Value::Int(self.sessions_opened as i128));
        s.insert("evicted".into(), Value::Int(self.sessions_evicted as i128));
        s.insert("closed".into(), Value::Int(self.sessions_closed as i128));
        s.insert("active".into(), Value::Int(self.sessions_active as i128));
        s.insert(
            "expelled".into(),
            Value::Int(self.sessions_expelled as i128),
        );
        o.insert("sessions".into(), Value::Obj(s));
        let mut c = BTreeMap::new();
        c.insert("opened".into(), Value::Int(self.connections_opened as i128));
        c.insert("closed".into(), Value::Int(self.connections_closed as i128));
        c.insert(
            "evictions".into(),
            Value::Obj(
                self.conn_evictions
                    .iter()
                    .map(|&(name, n)| (name.to_string(), Value::Int(n as i128)))
                    .collect(),
            ),
        );
        o.insert("connections".into(), Value::Obj(c));
        o.insert("frames".into(), Value::Int(self.frames as i128));
        o.insert("accepted".into(), Value::Int(self.accepted as i128));
        o.insert("events_per_sec".into(), Value::Float(self.events_per_sec));
        o.insert(
            "rejects".into(),
            Value::Obj(
                self.rejects
                    .iter()
                    .map(|&(name, n)| (name.to_string(), Value::Int(n as i128)))
                    .collect(),
            ),
        );
        o.insert("convictions".into(), Value::Int(self.convictions as i128));
        o.insert(
            "queue_high_water".into(),
            Value::Int(self.queue_high_water as i128),
        );
        let mut b = BTreeMap::new();
        b.insert("batches".into(), Value::Int(self.batches as i128));
        b.insert("frames".into(), Value::Int(self.batch_frames as i128));
        b.insert("inline".into(), Value::Int(self.batch_inline as i128));
        b.insert("slow_path".into(), Value::Int(self.batch_slow as i128));
        b.insert(
            "sizes".into(),
            Value::Obj(
                self.batch_hist
                    .iter()
                    .map(|&(name, n)| (name.to_string(), Value::Int(n as i128)))
                    .collect(),
            ),
        );
        o.insert("batching".into(), Value::Obj(b));
        let mut w = BTreeMap::new();
        w.insert("in".into(), Value::Int(self.bytes_in as i128));
        w.insert("out".into(), Value::Int(self.bytes_out as i128));
        o.insert("bytes".into(), Value::Obj(w));
        o.insert(
            "per_event".into(),
            Value::Obj(
                self.per_event
                    .iter()
                    .map(|(name, n)| (name.clone(), Value::Int(*n as i128)))
                    .collect(),
            ),
        );
        let mut g = BTreeMap::new();
        g.insert(
            "dfa_states".into(),
            Value::Int(self.guard_build.dfa_states as i128),
        );
        g.insert(
            "dfa_events".into(),
            Value::Int(self.guard_build.dfa_events as i128),
        );
        g.insert(
            "table_bytes".into(),
            Value::Int(self.guard_build.table_bytes as i128),
        );
        g.insert(
            "max_subset".into(),
            Value::Int(self.guard_build.max_subset as i128),
        );
        g.insert(
            "compile_ms".into(),
            Value::Float(self.guard_build.compile_ms),
        );
        g.insert("build_ms".into(), Value::Float(self.guard_build.build_ms));
        o.insert("guard_build".into(), Value::Obj(g));
        o.insert(
            "table_hash".into(),
            Value::Str(format!("{:016x}", self.table_hash)),
        );
        let mut r = BTreeMap::new();
        r.insert(
            "active_version".into(),
            Value::Int(self.active_version as i128),
        );
        r.insert("swaps".into(), Value::Int(self.swaps as i128));
        r.insert("retired".into(), Value::Int(self.versions_retired as i128));
        r.insert(
            "sessions".into(),
            Value::Obj(
                self.version_sessions
                    .iter()
                    .map(|&(v, n)| (format!("{v}"), Value::Int(n as i128)))
                    .collect(),
            ),
        );
        o.insert("registry".into(), Value::Obj(r));
        Value::Obj(o)
    }

    /// The snapshot as a compact JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.to_value()).expect("snapshot serialization cannot fail")
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "uptime {:.1}s | sessions active={} opened={} closed={} evicted={}",
            self.uptime_secs,
            self.sessions_active,
            self.sessions_opened,
            self.sessions_closed,
            self.sessions_evicted
        )?;
        let evictions: Vec<String> = self
            .conn_evictions
            .iter()
            .filter(|&&(_, n)| n > 0)
            .map(|&(name, n)| format!("{name}={n}"))
            .collect();
        writeln!(
            f,
            "connections opened={} closed={}{}{}",
            self.connections_opened,
            self.connections_closed,
            if evictions.is_empty() {
                ""
            } else {
                " | evictions "
            },
            evictions.join(" ")
        )?;
        if self.sessions_expelled > 0 {
            writeln!(f, "sessions expelled={}", self.sessions_expelled)?;
        }
        writeln!(
            f,
            "frames {} | accepted {} ({:.0} ev/s) | convictions {} | queue high-water {}",
            self.frames,
            self.accepted,
            self.events_per_sec,
            self.convictions,
            self.queue_high_water
        )?;
        if self.batches > 0 {
            let sizes: Vec<String> = self
                .batch_hist
                .iter()
                .filter(|&&(_, n)| n > 0)
                .map(|&(name, n)| format!("{name}={n}"))
                .collect();
            writeln!(
                f,
                "batches {} | batched frames {} (inline {} slow {}) | sizes {}",
                self.batches,
                self.batch_frames,
                self.batch_inline,
                self.batch_slow,
                sizes.join(" ")
            )?;
        }
        if self.bytes_in > 0 || self.bytes_out > 0 {
            writeln!(f, "bytes in {} out {}", self.bytes_in, self.bytes_out)?;
        }
        if !self.rejects.is_empty() {
            let parts: Vec<String> = self
                .rejects
                .iter()
                .map(|&(name, n)| format!("{name}={n}"))
                .collect();
            writeln!(f, "rejects {}", parts.join(" "))?;
        }
        let parts: Vec<String> = self
            .per_event
            .iter()
            .map(|(name, n)| format!("{name}={n}"))
            .collect();
        writeln!(f, "events {}", parts.join(" "))?;
        if self.table_hash != 0 || self.active_version != 0 {
            let per_version: Vec<String> = self
                .version_sessions
                .iter()
                .map(|&(v, n)| format!("v{v}={n}"))
                .collect();
            writeln!(
                f,
                "wire table hash {:016x} | version {} | sessions per version {}{}",
                self.table_hash,
                self.active_version,
                if per_version.is_empty() {
                    "-".to_string()
                } else {
                    per_version.join(" ")
                },
                if self.swaps > 0 || self.versions_retired > 0 {
                    format!(" | swaps {} retired {}", self.swaps, self.versions_retired)
                } else {
                    String::new()
                }
            )?;
        }
        write!(f, "guard dfa {}", self.guard_build)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protoquot_spec::{Alphabet, EventId};

    #[test]
    fn counters_round_trip_into_snapshots() {
        let table = EventTable::new(&Alphabet::from_names(["acc", "del"]));
        let stats = RuntimeStats::new(table.len());
        stats.note_conn_open();
        stats.note_conn_open();
        stats.note_conn_close();
        stats.note_open();
        stats.note_frame();
        stats.note_accept(0);
        stats.note_frame();
        stats.note_reject(RejectReason::Closed);
        stats.note_conviction(&Conviction::Stalled);
        stats.note_batch_backlog(5);
        stats.note_batch_backlog(3);
        stats.note_close();

        let snap = stats.snapshot(&table);
        assert_eq!(snap.sessions_opened, 1);
        assert_eq!(snap.sessions_active, 0);
        assert_eq!(snap.connections_opened, 2);
        assert_eq!(snap.connections_closed, 1);
        assert_eq!(snap.frames, 2);
        assert_eq!(snap.accepted, 1);
        assert_eq!(snap.rejects, vec![("closed", 1)]);
        assert_eq!(snap.convictions, 1);
        assert_eq!(snap.queue_high_water, 5);
        let first = EventId::new("acc");
        assert_eq!(snap.per_event[table.idx(first) as usize].1, 1);

        let value = snap.to_value();
        let obj = value.as_obj().unwrap();
        assert_eq!(obj["accepted"], Value::Int(1));
        assert_eq!(obj["rejects"].as_obj().unwrap()["closed"], Value::Int(1));
        assert_eq!(
            obj["connections"].as_obj().unwrap()["opened"],
            Value::Int(2)
        );
        assert!(snap.to_json().contains("\"accepted\":1"));
        assert!(format!("{snap}").contains("queue high-water 5"));
        assert!(format!("{snap}").contains("connections opened=2 closed=1"));
        assert!(snap.to_json().contains("\"guard_build\""));
    }

    /// Every `RejectReason` variant must own a distinct counter slot
    /// inside the `REASONS` bounds, and the slot must point back at the
    /// same variant. The `match` inside `reason_slot` is exhaustive, so
    /// a new variant fails compilation before it can fail here.
    #[test]
    fn reason_slots_cover_every_variant_exactly_once() {
        let mut hit = [false; REASONS.len()];
        for &reason in REASONS.iter() {
            let slot = reason_slot(reason);
            assert!(slot < REASONS.len(), "{reason:?}: slot {slot} out of range");
            assert_eq!(
                REASONS[slot], reason,
                "{reason:?}: REASONS[{slot}] disagrees with reason_slot"
            );
            assert!(!hit[slot], "{reason:?}: slot {slot} already taken");
            hit[slot] = true;
        }
        assert!(hit.iter().all(|&h| h), "some counter slot is unreachable");

        // Counting through the public API lands in the right slots.
        let stats = RuntimeStats::new(0);
        for &reason in REASONS.iter() {
            stats.note_reject(reason);
        }
        let table = EventTable::new(&Alphabet::new());
        let snap = stats.snapshot(&table);
        for &reason in REASONS.iter() {
            assert!(
                snap.rejects.contains(&(reason.name(), 1)),
                "{reason:?}: reject count missing from the snapshot"
            );
        }
    }

    /// Connection evictions are attributed per reason, surfaced in the
    /// JSON snapshot with every reason present (zero counts included),
    /// and session expulsions count separately from closes.
    #[test]
    fn conn_eviction_taxonomy_round_trips() {
        let table = EventTable::new(&Alphabet::from_names(["acc"]));
        let stats = RuntimeStats::new(table.len());
        stats.note_conn_open();
        stats.note_conn_evict(ConnEvictReason::SlowConsumer);
        stats.note_conn_close();
        stats.note_conn_evict(ConnEvictReason::Protocol);
        stats.note_conn_evict(ConnEvictReason::Protocol);
        stats.note_open();
        stats.note_expel();

        let snap = stats.snapshot(&table);
        assert_eq!(
            snap.conn_evictions,
            vec![("slow_consumer", 1), ("slow_read", 0), ("protocol", 2)]
        );
        assert_eq!(snap.sessions_expelled, 1);
        let value = snap.to_value();
        let conns = value.as_obj().unwrap()["connections"].as_obj().unwrap();
        let ev = conns["evictions"].as_obj().unwrap();
        assert_eq!(ev["slow_consumer"], Value::Int(1));
        assert_eq!(ev["slow_read"], Value::Int(0));
        assert_eq!(ev["protocol"], Value::Int(2));
        assert_eq!(
            value.as_obj().unwrap()["sessions"].as_obj().unwrap()["expelled"],
            Value::Int(1)
        );
        let text = format!("{snap}");
        assert!(text.contains("evictions slow_consumer=1 protocol=2"));
        assert!(text.contains("sessions expelled=1"));
    }

    /// Every `ConnEvictReason` owns a distinct slot, mirroring the
    /// reject-reason slot test.
    #[test]
    fn conn_evict_slots_cover_every_variant_exactly_once() {
        let mut hit = [false; CONN_EVICT_REASONS.len()];
        for &reason in CONN_EVICT_REASONS.iter() {
            let slot = conn_evict_slot(reason);
            assert_eq!(CONN_EVICT_REASONS[slot], reason);
            assert!(!hit[slot], "{reason:?}: slot {slot} already taken");
            hit[slot] = true;
        }
        assert!(hit.iter().all(|&h| h));
    }

    /// Batch counters and byte counters land in the snapshot, the JSON
    /// tree, and the text rendering; the histogram buckets by the
    /// floor power of two with an open top bucket.
    #[test]
    fn batch_and_byte_counters_round_trip() {
        assert_eq!(batch_bucket(1), 0);
        assert_eq!(batch_bucket(2), 1);
        assert_eq!(batch_bucket(3), 1);
        assert_eq!(batch_bucket(4), 2);
        assert_eq!(batch_bucket(127), 6);
        assert_eq!(batch_bucket(128), 7);
        assert_eq!(batch_bucket(100_000), 7);

        let table = EventTable::new(&Alphabet::from_names(["acc"]));
        let stats = RuntimeStats::new(table.len());
        stats.note_batch(1);
        stats.note_batch(3);
        stats.note_batch(256);
        stats.note_batch_inline(255);
        stats.note_batch_slow(5);
        stats.note_bytes_in(4096);
        stats.note_bytes_out(1234);

        let snap = stats.snapshot(&table);
        assert_eq!(snap.batches, 3);
        assert_eq!(snap.batch_frames, 260);
        assert_eq!(snap.batch_inline, 255);
        assert_eq!(snap.batch_slow, 5);
        assert_eq!(snap.batch_hist.len(), BATCH_BUCKETS);
        assert!(snap.batch_hist.contains(&("1", 1)));
        assert!(snap.batch_hist.contains(&("2", 1)));
        assert!(snap.batch_hist.contains(&("128+", 1)));
        assert_eq!(snap.bytes_in, 4096);
        assert_eq!(snap.bytes_out, 1234);

        let value = snap.to_value();
        let b = value.as_obj().unwrap()["batching"].as_obj().unwrap();
        assert_eq!(b["batches"], Value::Int(3));
        assert_eq!(b["frames"], Value::Int(260));
        assert_eq!(b["inline"], Value::Int(255));
        assert_eq!(b["slow_path"], Value::Int(5));
        assert_eq!(b["sizes"].as_obj().unwrap()["128+"], Value::Int(1));
        assert_eq!(b["sizes"].as_obj().unwrap()["64"], Value::Int(0));
        let w = value.as_obj().unwrap()["bytes"].as_obj().unwrap();
        assert_eq!(w["in"], Value::Int(4096));
        assert_eq!(w["out"], Value::Int(1234));

        let text = format!("{snap}");
        assert!(text.contains("batches 3 | batched frames 260 (inline 255 slow 5)"));
        assert!(text.contains("bytes in 4096 out 1234"));
    }

    /// Per-version session accounting, swap/retire counters and the
    /// wire identity all round-trip into snapshots, JSON and text.
    #[test]
    fn version_accounting_round_trips() {
        let table = EventTable::new(&Alphabet::from_names(["acc"]));
        let stats = RuntimeStats::new(table.len());
        stats.set_wire_identity(0xABCD_EF01_2345_6789, 1);
        stats.note_version_open(1);
        stats.note_version_open(1);
        stats.note_version_open(1);
        // Swap to v2: new sessions bind v2, v1 drains.
        stats.set_wire_identity(0xABCD_EF01_2345_6789, 2);
        stats.note_swap();
        stats.note_version_open(2);
        assert_eq!(stats.note_version_close(1), 2);
        assert_eq!(stats.sessions_on_version(1), 2);
        assert_eq!(stats.note_version_close(1), 1);
        assert_eq!(stats.note_version_close(1), 0, "v1 fully drained");
        stats.note_version_retired();
        // Closing an unknown version is a no-op, not an underflow.
        assert_eq!(stats.note_version_close(7), 0);

        let snap = stats.snapshot(&table);
        assert_eq!(snap.table_hash, 0xABCD_EF01_2345_6789);
        assert_eq!(snap.active_version, 2);
        assert_eq!(snap.version_sessions, vec![(2, 1)]);
        assert_eq!(snap.swaps, 1);
        assert_eq!(snap.versions_retired, 1);

        let value = snap.to_value();
        let obj = value.as_obj().unwrap();
        assert_eq!(
            obj["table_hash"],
            Value::Str("abcdef0123456789".to_string())
        );
        let r = obj["registry"].as_obj().unwrap();
        assert_eq!(r["active_version"], Value::Int(2));
        assert_eq!(r["swaps"], Value::Int(1));
        assert_eq!(r["retired"], Value::Int(1));
        assert_eq!(r["sessions"].as_obj().unwrap()["2"], Value::Int(1));

        let text = format!("{snap}");
        assert!(text.contains("wire table hash abcdef0123456789"));
        assert!(text.contains("version 2"));
        assert!(text.contains("v2=1"));
        assert!(text.contains("swaps 1 retired 1"));
    }

    #[test]
    fn guard_build_stats_surface_in_snapshots() {
        let table = EventTable::new(&Alphabet::from_names(["acc"]));
        let build = GuardBuildStats {
            dfa_states: 7,
            dfa_events: 1,
            table_bytes: 42,
            max_subset: 3,
            compile_ms: 1.25,
            build_ms: 0.5,
        };
        let stats = RuntimeStats::with_guard_build(table.len(), build);
        let snap = stats.snapshot(&table);
        assert_eq!(snap.guard_build.dfa_states, 7);
        let value = snap.to_value();
        let g = value.as_obj().unwrap()["guard_build"].as_obj().unwrap();
        assert_eq!(g["dfa_states"], Value::Int(7));
        assert_eq!(g["table_bytes"], Value::Int(42));
        assert_eq!(g["compile_ms"], Value::Float(1.25));
        assert_eq!(g["build_ms"], Value::Float(0.5));
        let line = format!("{snap}");
        assert!(line.contains("guard dfa 7 states"));
        assert!(line.contains("system compiled in 1.250 ms, built in 0.500 ms"));
    }
}
