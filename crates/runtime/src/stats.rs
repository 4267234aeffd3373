//! Gateway observability: lock-free counters and JSON snapshots.
//!
//! [`RuntimeStats`] is a bag of atomics bumped from the hot paths
//! (admission, batches, eviction); [`StatsSnapshot`] is an immutable view with
//! derived rates, rendered as text (`protoquot serve --stats`) or JSON
//! (the periodic snapshot stream).
//!
//! Each plain counter is declared once, in the `stats!` table below:
//! its row names the [`RuntimeStats`] atomic slot and the
//! [`StatsSnapshot`] field, and places it in the JSON tree.

use crate::codec::RejectReason;
use crate::guard::GuardBuildStats;
use protoquot_spec::EventTable;
use serde::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

named_enum! {
    /// Why a transport cut a connection before the peer closed it — the
    /// connection-level half of the eviction taxonomy (the session-level
    /// half is idle eviction and budget expulsion in the gateway). The
    /// invariant these exist for: an abusive peer is convicted or
    /// evicted, never allowed to stall an event loop.
    pub enum ConnEvictReason {
        /// The peer stopped reading and its outbound buffer overran the
        /// cap (reactor write-buffer limit, previously a silent drop).
        SlowConsumer = 0 => "slow_consumer",
        /// The peer left a frame unfinished past the read deadline
        /// (slow-drip / slow-loris input).
        SlowRead = 1 => "slow_read",
        /// The peer sent bytes that do not decode (garbage, oversize or
        /// zero length prefix) or died mid-frame (torn stream).
        Protocol = 2 => "protocol",
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

/// Declares the snapshot's fields in one table. A counter row
/// `(field, "json.path", "doc")` makes the `Counters` atomic, the `u64`
/// field of [`StatsSnapshot`] and the counter's JSON entry; the rows
/// after it are the snapshot's other fields, rendered by hand.
macro_rules! stats {
    (
        counters { $(($counter:ident, $path:literal, $cdoc:literal),)+ }
        $(($field:ident: $ty:ty, $doc:literal),)+
    ) => {
        /// One relaxed atomic slot per plain counter.
        #[derive(Default)]
        struct Counters {
            $($counter: AtomicU64,)+
        }

        impl Counters {
            fn load_into(&self, s: &mut StatsSnapshot) {
                $(s.$counter = self.$counter.load(Relaxed);)+
            }
        }

        /// Point-in-time view of [`RuntimeStats`].
        #[derive(Clone, Debug, Default)]
        pub struct StatsSnapshot {
            $(#[doc = $cdoc] pub $counter: u64,)+
            $(#[doc = $doc] pub $field: $ty,)+
        }

        impl StatsSnapshot {
            /// Each plain counter's JSON path and value.
            fn counters(&self) -> [(&'static str, u64); [$($path),+].len()] {
                [$(($path, self.$counter)),+]
            }
        }
    };
}

stats! {
    counters {
        (sessions_opened, "sessions.opened", "Sessions ever created."),
        (sessions_evicted, "sessions.evicted", "Sessions removed by the idle sweeper."),
        (sessions_closed, "sessions.closed", "Sessions removed after a `Close` frame."),
        (sessions_active, "sessions.active", "Sessions currently resident."),
        (sessions_expelled, "sessions.expelled", "Sessions expelled over their frame budget."),
        (connections_opened, "connections.opened",
            "Transport connections ever accepted (0 for pure loopback)."),
        (connections_closed, "connections.closed", "Transport connections ended."),
        (frames, "frames", "Frames received."),
        (accepted, "accepted", "Event frames accepted by the guard."),
        (convictions, "convictions", "Sessions convicted by the online guard."),
        (queue_high_water, "queue_high_water",
            "Most frames of one session queued behind its own earlier frame in one batch."),
        (batches, "batching.batches", "Batches taken through `Gateway::call_batch`."),
        (batch_frames, "batching.frames", "Frames carried by those batches."),
        (batch_slow, "batching.slow_path",
            "Batched frames whose session's shard lock another thread held."),
        (bytes_in, "bytes.in", "Raw bytes read off transport sockets."),
        (bytes_out, "bytes.out", "Raw bytes written back to transport sockets."),
        (swaps, "registry.swaps", "Completed hot-swaps."),
        (versions_retired, "registry.retired", "Old versions fully drained and released."),
    }
    (uptime_secs: f64, "Seconds since the gateway started."),
    (events_per_sec: f64, "Accepted events per second of uptime."),
    (conn_evictions: Vec<(&'static str, u64)>,
        "Connection cuts per [`ConnEvictReason`], zero counts included."),
    (rejects: Vec<(&'static str, u64)>, "Reject counts per reason, zero counts omitted."),
    (batch_hist: Vec<(&'static str, u64)>,
        "Batch-size histogram (`\"1\"`, `\"2\"`, …, `\"128+\"`), zero counts included."),
    (per_event: Vec<(String, u64)>, "Accepted frames per event name, in event-table order."),
    (guard_build: GuardBuildStats, "Size and build cost of the compiled guard DFA."),
    (table_hash: u64, "Negotiation fingerprint of the active event table (0 if never set)."),
    (active_version: u32, "Converter version new sessions bind."),
    (version_sessions: Vec<(u32, u64)>, "Live sessions per converter version, ascending."),
}

/// Shared counters of one gateway.
pub struct RuntimeStats {
    started: Instant,
    counters: Counters,
    conn_evictions: [AtomicU64; ConnEvictReason::ALL.len()],
    rejects: [AtomicU64; RejectReason::ALL.len()],
    batch_hist: [AtomicU64; BATCH_BUCKETS],
    /// Accepted frames per event-table index.
    per_event: Vec<AtomicU64>,
    guard_build: GuardBuildStats,
    table_hash: AtomicU64,
    active_version: AtomicU64,
    /// Live sessions per converter version. Touched only at session
    /// open/close/evict — never on the per-frame path.
    version_sessions: Mutex<BTreeMap<u32, u64>>,
}

/// `(name, count)` pairs of a taxonomy's counter slots.
fn load_named(
    names: impl IntoIterator<Item = &'static str>,
    slots: &[AtomicU64],
) -> Vec<(&'static str, u64)> {
    names
        .into_iter()
        .zip(slots)
        .map(|(name, c)| (name, c.load(Relaxed)))
        .collect()
}

impl RuntimeStats {
    /// Zeroed counters for `num_events` wire events and a guard build.
    pub fn with_guard_build(num_events: usize, guard_build: GuardBuildStats) -> RuntimeStats {
        RuntimeStats {
            started: Instant::now(),
            counters: Counters::default(),
            conn_evictions: Default::default(),
            rejects: Default::default(),
            batch_hist: Default::default(),
            per_event: (0..num_events).map(|_| AtomicU64::new(0)).collect(),
            guard_build,
            table_hash: AtomicU64::new(0),
            active_version: AtomicU64::new(0),
            version_sessions: Mutex::new(BTreeMap::new()),
        }
    }

    /// Records the gateway's wire identity — its event table's
    /// fingerprint and the version new sessions bind — at every swap.
    pub fn set_wire_identity(&self, table_hash: u64, version: u32) {
        self.table_hash.store(table_hash, Relaxed);
        self.active_version.store(u64::from(version), Relaxed);
    }

    /// A hot-swap activated a new converter version.
    pub fn note_swap(&self) {
        self.counters.swaps.fetch_add(1, Relaxed);
    }

    /// A drained old converter version was released.
    pub fn note_version_retired(&self) {
        self.counters.versions_retired.fetch_add(1, Relaxed);
    }

    /// A session bound to `version` ended (close, evict, or expel);
    /// returns the sessions still live on that version, so the gateway
    /// can retire a fully drained old program.
    pub fn note_version_close(&self, version: u32) -> u64 {
        let mut map = self.versions();
        let Some(n) = map.get_mut(&version) else {
            return 0;
        };
        *n -= 1;
        let left = *n;
        if left == 0 {
            map.remove(&version);
        }
        left
    }

    /// Live sessions currently bound to `version`.
    pub fn sessions_on_version(&self, version: u32) -> u64 {
        self.versions().get(&version).copied().unwrap_or(0)
    }

    fn versions(&self) -> MutexGuard<'_, BTreeMap<u32, u64>> {
        self.version_sessions.lock().expect("stats mutex poisoned")
    }

    /// A session was created, bound to converter version `version`.
    pub fn note_open(&self, version: u32) {
        self.counters.sessions_opened.fetch_add(1, Relaxed);
        self.counters.sessions_active.fetch_add(1, Relaxed);
        *self.versions().entry(version).or_insert(0) += 1;
    }

    /// A session was evicted by the idle sweeper.
    pub fn note_evict(&self) {
        self.counters.sessions_evicted.fetch_add(1, Relaxed);
        self.counters.sessions_active.fetch_sub(1, Relaxed);
    }

    /// A session was closed and removed.
    pub fn note_close(&self) {
        self.counters.sessions_closed.fetch_add(1, Relaxed);
        self.counters.sessions_active.fetch_sub(1, Relaxed);
    }

    /// A transport connection was accepted.
    pub fn note_conn_open(&self) {
        self.counters.connections_opened.fetch_add(1, Relaxed);
    }

    /// A transport connection ended (clean EOF, torn stream, or error).
    pub fn note_conn_close(&self) {
        self.counters.connections_closed.fetch_add(1, Relaxed);
    }

    /// A transport cut a connection for `reason`. The drop still calls
    /// [`RuntimeStats::note_conn_close`]: evictions attribute the cut,
    /// closes count it.
    pub fn note_conn_evict(&self, reason: ConnEvictReason) {
        self.conn_evictions[reason.index()].fetch_add(1, Relaxed);
    }

    /// A session overran its frame budget and the gateway closed it.
    pub fn note_expel(&self) {
        self.counters.sessions_expelled.fetch_add(1, Relaxed);
    }

    /// A frame arrived (before any verdict).
    pub fn note_frame(&self) {
        self.counters.frames.fetch_add(1, Relaxed);
    }

    /// An event frame passed the guard.
    pub fn note_accept(&self, event: u16) {
        self.counters.accepted.fetch_add(1, Relaxed);
        if let Some(c) = self.per_event.get(usize::from(event)) {
            c.fetch_add(1, Relaxed);
        }
    }

    /// A frame was rejected with `reason`.
    pub fn note_reject(&self, reason: RejectReason) {
        self.rejects[reason.index()].fetch_add(1, Relaxed);
    }

    /// The guard convicted a session (counted once per session).
    pub fn note_conviction(&self) {
        self.counters.convictions.fetch_add(1, Relaxed);
    }

    /// Once per batch: its largest session group waited `frames` frames
    /// behind that session's first frame.
    pub fn note_batch_backlog(&self, frames: usize) {
        self.counters
            .queue_high_water
            .fetch_max(frames as u64, Relaxed);
    }

    /// One `call_batch` of `frames` frames entered the gateway.
    pub fn note_batch(&self, frames: usize) {
        self.counters.batches.fetch_add(1, Relaxed);
        self.counters.batch_frames.fetch_add(frames as u64, Relaxed);
        self.batch_hist[batch_bucket(frames)].fetch_add(1, Relaxed);
    }

    /// `n` batched frames waited for a shard lock another thread held.
    pub fn note_batch_slow(&self, n: usize) {
        self.counters.batch_slow.fetch_add(n as u64, Relaxed);
    }

    /// `n` raw bytes arrived from a transport socket.
    pub fn note_bytes_in(&self, n: usize) {
        self.counters.bytes_in.fetch_add(n as u64, Relaxed);
    }

    /// `n` raw bytes were written back to a transport socket.
    pub fn note_bytes_out(&self, n: usize) {
        self.counters.bytes_out.fetch_add(n as u64, Relaxed);
    }

    /// An immutable snapshot with derived rates.
    pub fn snapshot(&self, table: &EventTable) -> StatsSnapshot {
        let mut rejects = load_named(RejectReason::ALL.map(RejectReason::name), &self.rejects);
        rejects.retain(|&(_, n)| n > 0);
        let mut s = StatsSnapshot {
            uptime_secs: self.started.elapsed().as_secs_f64().max(1e-9),
            conn_evictions: load_named(
                ConnEvictReason::ALL.map(ConnEvictReason::name),
                &self.conn_evictions,
            ),
            rejects,
            batch_hist: load_named(BATCH_BUCKET_NAMES, &self.batch_hist),
            per_event: table
                .events
                .iter()
                .zip(&self.per_event)
                .map(|(e, c)| (e.name(), c.load(Relaxed)))
                .collect(),
            guard_build: self.guard_build.clone(),
            table_hash: self.table_hash.load(Relaxed),
            active_version: self.active_version.load(Relaxed) as u32,
            version_sessions: self.versions().iter().map(|(&v, &n)| (v, n)).collect(),
            ..StatsSnapshot::default()
        };
        self.counters.load_into(&mut s);
        s.events_per_sec = s.accepted as f64 / s.uptime_secs;
        s
    }
}

/// Inserts `value` at the dotted `path`, creating the groups on the way.
fn insert(tree: &mut BTreeMap<String, Value>, path: &str, value: Value) {
    let Some((group, rest)) = path.split_once('.') else {
        tree.insert(path.to_string(), value);
        return;
    };
    match tree
        .entry(group.to_string())
        .or_insert_with(|| Value::Obj(BTreeMap::new()))
    {
        Value::Obj(group) => insert(group, rest, value),
        _ => unreachable!("a JSON path runs through a leaf"),
    }
}

/// A `(name, count)` list as a JSON object.
fn named<K: ToString>(pairs: &[(K, u64)]) -> Value {
    Value::Obj(
        pairs
            .iter()
            .map(|(k, n)| (k.to_string(), Value::Int((*n).into())))
            .collect(),
    )
}

/// `name=count` pairs joined by spaces, zero counts dropped unless `zeros`.
fn pairs<K: std::fmt::Display>(items: &[(K, u64)], zeros: bool) -> String {
    let shown = items.iter().filter(|&(_, n)| zeros || *n > 0);
    shown
        .map(|(k, n)| format!("{k}={n}"))
        .collect::<Vec<_>>()
        .join(" ")
}

impl StatsSnapshot {
    /// Every JSON leaf as `(dotted path, value)`; a map-valued field
    /// (`rejects`, `per_event`, `batching.sizes`, …) is one leaf.
    fn entries(&self) -> Vec<(&'static str, Value)> {
        let g = &self.guard_build;
        let table_hash = format!("{:016x}", self.table_hash);
        let mut entries: Vec<(&'static str, Value)> = self
            .counters()
            .into_iter()
            .map(|(path, n)| (path, Value::Int(n.into())))
            .collect();
        entries.extend([
            ("uptime_secs", Value::Float(self.uptime_secs)),
            ("events_per_sec", Value::Float(self.events_per_sec)),
            ("connections.evictions", named(&self.conn_evictions)),
            ("rejects", named(&self.rejects)),
            ("batching.sizes", named(&self.batch_hist)),
            ("per_event", named(&self.per_event)),
            ("guard_build.dfa_states", Value::Int(g.dfa_states as i128)),
            ("guard_build.dfa_events", Value::Int(g.dfa_events as i128)),
            ("guard_build.table_bytes", Value::Int(g.table_bytes as i128)),
            ("guard_build.max_subset", Value::Int(g.max_subset as i128)),
            ("guard_build.compile_ms", Value::Float(g.compile_ms)),
            ("guard_build.build_ms", Value::Float(g.build_ms)),
            ("table_hash", Value::Str(table_hash)),
            (
                "registry.active_version",
                Value::Int(self.active_version.into()),
            ),
            ("registry.sessions", named(&self.version_sessions)),
        ]);
        entries
    }

    /// The snapshot as a JSON value tree.
    pub fn to_value(&self) -> Value {
        let mut tree = BTreeMap::new();
        for (path, value) in self.entries() {
            insert(&mut tree, path, value);
        }
        Value::Obj(tree)
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
        let (opened, closed) = (self.connections_opened, self.connections_closed);
        write!(f, "connections opened={opened} closed={closed}")?;
        let evictions = pairs(&self.conn_evictions, false);
        if !evictions.is_empty() {
            write!(f, " | evictions {evictions}")?;
        }
        writeln!(f)?;
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
            writeln!(
                f,
                "batches {} | batched frames {} (slow {}) | sizes {}",
                self.batches,
                self.batch_frames,
                self.batch_slow,
                pairs(&self.batch_hist, false)
            )?;
        }
        if self.bytes_in > 0 || self.bytes_out > 0 {
            writeln!(f, "bytes in {} out {}", self.bytes_in, self.bytes_out)?;
        }
        if !self.rejects.is_empty() {
            writeln!(f, "rejects {}", pairs(&self.rejects, false))?;
        }
        writeln!(f, "events {}", pairs(&self.per_event, true))?;
        if self.table_hash != 0 || self.active_version != 0 {
            let per_version: Vec<_> = self
                .version_sessions
                .iter()
                .map(|&(v, n)| (format!("v{v}"), n))
                .collect();
            let per_version = match pairs(&per_version, true) {
                p if p.is_empty() => "-".to_string(),
                p => p,
            };
            write!(
                f,
                "wire table hash {:016x} | version {} | sessions per version {per_version}",
                self.table_hash, self.active_version
            )?;
            if self.swaps > 0 || self.versions_retired > 0 {
                let (swaps, retired) = (self.swaps, self.versions_retired);
                write!(f, " | swaps {swaps} retired {retired}")?;
            }
            writeln!(f)?;
        }
        write!(f, "guard dfa {}", self.guard_build)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protoquot_spec::{Alphabet, EventId};

    fn fresh(num_events: usize) -> RuntimeStats {
        RuntimeStats::with_guard_build(num_events, GuardBuildStats::default())
    }

    /// One snapshot with every counter, two reject reasons, every
    /// eviction reason, a swap and a guard build, rendered in full: the
    /// JSON stream and the text summary are pinned byte for byte.
    #[test]
    fn snapshot_renders_byte_for_byte() {
        let snap = StatsSnapshot {
            uptime_secs: 2.5,
            sessions_opened: 11,
            sessions_evicted: 3,
            sessions_closed: 5,
            sessions_active: 2,
            sessions_expelled: 1,
            connections_opened: 7,
            connections_closed: 6,
            conn_evictions: vec![("slow_consumer", 1), ("slow_read", 2), ("protocol", 3)],
            frames: 40,
            accepted: 30,
            events_per_sec: 12.0,
            rejects: vec![("not_a_trace", 4), ("closed", 6)],
            convictions: 4,
            queue_high_water: 9,
            batches: 8,
            batch_frames: 38,
            batch_slow: 2,
            batch_hist: vec![
                ("1", 1),
                ("2", 2),
                ("4", 0),
                ("8", 3),
                ("16", 0),
                ("32", 0),
                ("64", 1),
                ("128+", 1),
            ],
            bytes_in: 4096,
            bytes_out: 1234,
            per_event: vec![("acc".to_string(), 17), ("del".to_string(), 13)],
            guard_build: GuardBuildStats {
                dfa_states: 7,
                dfa_events: 2,
                table_bytes: 42,
                max_subset: 3,
                compile_ms: 1.25,
                build_ms: 0.5,
            },
            table_hash: 0xABCD_EF01_2345_6789,
            active_version: 2,
            version_sessions: vec![(1, 1), (2, 1)],
            swaps: 1,
            versions_retired: 14,
        };
        assert_eq!(
            snap.to_json(),
            concat!(
                r#"{"accepted":30,"#,
                r#""batching":{"batches":8,"frames":38,"#,
                r#""sizes":{"1":1,"128+":1,"16":0,"2":2,"32":0,"4":0,"64":1,"8":3},"slow_path":2},"#,
                r#""bytes":{"in":4096,"out":1234},"#,
                r#""connections":{"closed":6,"#,
                r#""evictions":{"protocol":3,"slow_consumer":1,"slow_read":2},"opened":7},"#,
                r#""convictions":4,"events_per_sec":12,"frames":40,"#,
                r#""guard_build":{"build_ms":0.5,"compile_ms":1.25,"dfa_events":2,"#,
                r#""dfa_states":7,"max_subset":3,"table_bytes":42},"#,
                r#""per_event":{"acc":17,"del":13},"queue_high_water":9,"#,
                r#""registry":{"active_version":2,"retired":14,"sessions":{"1":1,"2":1},"swaps":1},"#,
                r#""rejects":{"closed":6,"not_a_trace":4},"#,
                r#""sessions":{"active":2,"closed":5,"evicted":3,"expelled":1,"opened":11},"#,
                r#""table_hash":"abcdef0123456789","uptime_secs":2.5}"#,
            )
        );
        assert_eq!(
            format!("{snap}"),
            "uptime 2.5s | sessions active=2 opened=11 closed=5 evicted=3\n\
             connections opened=7 closed=6 | evictions slow_consumer=1 slow_read=2 protocol=3\n\
             sessions expelled=1\n\
             frames 40 | accepted 30 (12 ev/s) | convictions 4 | queue high-water 9\n\
             batches 8 | batched frames 38 (slow 2) | sizes 1=1 2=2 8=3 64=1 128+=1\n\
             bytes in 4096 out 1234\n\
             rejects not_a_trace=4 closed=6\n\
             events acc=17 del=13\n\
             wire table hash abcdef0123456789 | version 2 | sessions per version v1=1 v2=1 \
             | swaps 1 retired 14\n\
             guard dfa 7 states x 2 events, 42 table bytes, max subset 3, \
             system compiled in 1.250 ms, built in 0.500 ms"
        );
    }

    #[test]
    fn counters_round_trip_into_snapshots() {
        let table = EventTable::new(&Alphabet::from_names(["acc", "del"]));
        let stats = fresh(table.len());
        stats.note_conn_open();
        stats.note_conn_open();
        stats.note_conn_close();
        stats.note_open(1);
        stats.note_frame();
        stats.note_accept(0);
        stats.note_frame();
        stats.note_reject(RejectReason::Closed);
        stats.note_conviction();
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

    /// Each `note_*` call bumps its own counter, and each counter lands
    /// under its own JSON path.
    #[test]
    fn every_counter_bumps_its_own_field() {
        let table = EventTable::new(&Alphabet::from_names(["acc"]));
        let stats = fresh(table.len());
        let times = |n: usize, f: &dyn Fn()| (0..n).for_each(|_| f());
        times(20, &|| stats.note_open(1));
        times(3, &|| stats.note_evict());
        times(5, &|| stats.note_close());
        times(7, &|| stats.note_expel());
        times(8, &|| stats.note_conn_open());
        times(6, &|| stats.note_conn_close());
        times(40, &|| stats.note_frame());
        times(30, &|| stats.note_accept(0));
        times(4, &|| stats.note_conviction());
        stats.note_batch_backlog(9);
        stats.note_batch_backlog(2);
        stats.note_batch(16);
        stats.note_batch(17);
        stats.note_batch_slow(10);
        stats.note_bytes_in(4096);
        stats.note_bytes_out(1234);
        times(15, &|| stats.note_swap());
        times(14, &|| stats.note_version_retired());

        let snap = stats.snapshot(&table);
        assert_eq!(
            snap.counters(),
            [
                ("sessions.opened", 20),
                ("sessions.evicted", 3),
                ("sessions.closed", 5),
                ("sessions.active", 12),
                ("sessions.expelled", 7),
                ("connections.opened", 8),
                ("connections.closed", 6),
                ("frames", 40),
                ("accepted", 30),
                ("convictions", 4),
                ("queue_high_water", 9),
                ("batching.batches", 2),
                ("batching.frames", 33),
                ("batching.slow_path", 10),
                ("bytes.in", 4096),
                ("bytes.out", 1234),
                ("registry.swaps", 15),
                ("registry.retired", 14),
            ]
        );
        assert_eq!(snap.per_event, vec![("acc".to_string(), 30)]);
        assert_eq!(snap.batch_frames, 33);
        assert_eq!(snap.versions_retired, 14);
    }

    /// The field table of `docs/RUNTIME.md` lists exactly the keys the
    /// snapshot JSON emits; a map-valued field (`rejects`, `per_event`,
    /// `batching.sizes`, …) is one key.
    #[test]
    fn runtime_doc_lists_every_json_key() {
        let doc = include_str!("../../../docs/RUNTIME.md");
        let section = doc
            .split("## `RuntimeStats` JSON, field by field")
            .nth(1)
            .expect("the stats section")
            .split("\n## ")
            .next()
            .unwrap();
        let mut rows: Vec<&str> = section
            .lines()
            .filter_map(|l| l.strip_prefix("| `"))
            .map(|l| l.split('`').next().unwrap())
            .collect();
        rows.sort();

        // Every leaf of the emitted tree, with its dotted path.
        fn leaves(prefix: &str, v: &Value, out: &mut Vec<String>) {
            match v {
                Value::Obj(o) if !o.is_empty() => {
                    for (k, v) in o {
                        let path = if prefix.is_empty() {
                            k.clone()
                        } else {
                            format!("{prefix}.{k}")
                        };
                        leaves(&path, v, out);
                    }
                }
                _ => out.push(prefix.to_string()),
            }
        }
        let table = EventTable::new(&Alphabet::from_names(["acc"]));
        let mut emitted = Vec::new();
        leaves(
            "",
            &fresh(table.len()).snapshot(&table).to_value(),
            &mut emitted,
        );
        // A leaf inside a map-valued field belongs to that field's row.
        for leaf in &emitted {
            assert!(
                rows.iter()
                    .any(|r| leaf == r || leaf.starts_with(&format!("{r}."))),
                "{leaf} is emitted but not documented"
            );
        }
        let keys: Vec<&str> = {
            let mut k: Vec<&str> = StatsSnapshot::default()
                .entries()
                .into_iter()
                .map(|(path, _)| path)
                .collect();
            k.sort();
            k
        };
        assert_eq!(rows, keys, "documented rows vs emitted keys");
    }

    /// Every `RejectReason` variant owns a distinct counter slot inside
    /// `ALL`'s bounds, and the slot points back at the same variant;
    /// counting through the public API lands each reason in its own slot
    /// under its own name.
    #[test]
    fn reason_slots_cover_every_variant_exactly_once() {
        for (i, &reason) in RejectReason::ALL.iter().enumerate() {
            assert_eq!(reason.index(), i, "{reason:?}");
        }
        let stats = fresh(0);
        for (i, &reason) in RejectReason::ALL.iter().enumerate() {
            for _ in 0..=i {
                stats.note_reject(reason);
            }
        }
        let snap = stats.snapshot(&EventTable::new(&Alphabet::new()));
        let expected: Vec<(&str, u64)> = RejectReason::ALL
            .iter()
            .enumerate()
            .map(|(i, r)| (r.name(), i as u64 + 1))
            .collect();
        assert_eq!(snap.rejects, expected);
    }

    /// Connection evictions are attributed per reason, surfaced in the
    /// JSON snapshot with every reason present (zero counts included),
    /// and session expulsions count separately from closes.
    #[test]
    fn conn_eviction_taxonomy_round_trips() {
        let table = EventTable::new(&Alphabet::from_names(["acc"]));
        let stats = fresh(table.len());
        stats.note_conn_open();
        stats.note_conn_evict(ConnEvictReason::SlowConsumer);
        stats.note_conn_close();
        stats.note_conn_evict(ConnEvictReason::Protocol);
        stats.note_conn_evict(ConnEvictReason::Protocol);
        stats.note_open(1);
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
        let stats = fresh(0);
        for (i, &reason) in ConnEvictReason::ALL.iter().enumerate() {
            assert_eq!(reason.index(), i, "{reason:?}");
            for _ in 0..=i {
                stats.note_conn_evict(reason);
            }
        }
        let snap = stats.snapshot(&EventTable::new(&Alphabet::new()));
        assert_eq!(
            snap.conn_evictions,
            vec![("slow_consumer", 1), ("slow_read", 2), ("protocol", 3)]
        );
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
        let stats = fresh(table.len());
        stats.note_batch(1);
        stats.note_batch(3);
        stats.note_batch(256);
        stats.note_batch_slow(5);
        stats.note_bytes_in(4096);
        stats.note_bytes_out(1234);

        let snap = stats.snapshot(&table);
        assert_eq!(snap.batches, 3);
        assert_eq!(snap.batch_frames, 260);
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
        assert_eq!(b["slow_path"], Value::Int(5));
        assert_eq!(b["sizes"].as_obj().unwrap()["128+"], Value::Int(1));
        assert_eq!(b["sizes"].as_obj().unwrap()["64"], Value::Int(0));
        let w = value.as_obj().unwrap()["bytes"].as_obj().unwrap();
        assert_eq!(w["in"], Value::Int(4096));
        assert_eq!(w["out"], Value::Int(1234));

        let text = format!("{snap}");
        assert!(text.contains("batches 3 | batched frames 260 (slow 5)"));
        assert!(text.contains("bytes in 4096 out 1234"));
    }

    /// Per-version session accounting, swap/retire counters and the
    /// wire identity all round-trip into snapshots, JSON and text.
    #[test]
    fn version_accounting_round_trips() {
        let table = EventTable::new(&Alphabet::from_names(["acc"]));
        let stats = fresh(table.len());
        stats.set_wire_identity(0xABCD_EF01_2345_6789, 1);
        stats.note_open(1);
        stats.note_open(1);
        stats.note_open(1);
        // Swap to v2: new sessions bind v2, v1 drains.
        stats.set_wire_identity(0xABCD_EF01_2345_6789, 2);
        stats.note_swap();
        stats.note_open(2);
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
