//! # protoquot-runtime
//!
//! A live gateway runtime for derived protocol converters.
//!
//! The rest of the workspace *derives* and *verifies* converters in
//! the sense of Calvert & Lam's top-down method; this crate *executes*
//! them as a production-shaped relay:
//!
//! * [`codec`] — a length-prefixed wire format whose event frames are
//!   indices into the shared [`protoquot_spec::EventTable`] (stable
//!   across processes because the table is sorted by event name);
//! * [`guard`] — the online conformance guard: trace membership in
//!   `B ‖ C`, service trace inclusion (ψ-hub), and sink-acceptance
//!   progress containment, **determinized at build time** into a DFA
//!   over `(composite-subset, ψ-hub)` pairs so the per-frame check is
//!   one transition-table row; the subset-replaying interpreter
//!   ([`SessionGuardReference`]) is retained as the guard-level
//!   differential oracle;
//! * [`gateway`] — a sharded, session-multiplexed relay: striped
//!   session table, per-session bounded queues drained by a worker
//!   pool, backpressure, idle eviction, graceful drain; transports
//!   hand it whole readiness batches via [`Gateway::call_batch`] —
//!   one shard lookup, one session lock, and one contiguous guard-DFA
//!   run per session per batch, replies encoded zero-copy into the
//!   caller's outbound buffer; [`Gateway::call`] and
//!   [`Gateway::submit`] share its admission step (drain check, frame
//!   count, hello answer);
//! * [`transport`] — carriers of the same bytes: the in-memory
//!   loopback and the non-blocking epoll reactor ([`ReactorServer`]),
//!   which serves every connection from a fixed pool of event loops
//!   and multiplexes 100k+ sessions per socket via the session ids
//!   already present in each frame header; [`TcpConn`] and
//!   [`MuxClient`] are its lockstep and multiplexed clients;
//! * [`mod@drive`] — a seeded load generator replaying fleet-style fault
//!   schedules over the wire, attesting stalls to the server; one
//!   session at a time per connection ([`drive()`]) or many concurrent
//!   sessions multiplexed over each connection ([`drive_mux`]), with
//!   byte-identical reports either way, and an optional per-session
//!   pipeline window ([`DriveConfig::pipeline`]) that speculates
//!   accepts to keep a batching server saturated — deterministic at
//!   any depth;
//! * [`mod@fuzz`] — a vendored deterministic fuzz engine (seeded
//!   corpus, structure-aware frame mutators, panic/hang detection,
//!   ddmin shrinking) over the codec, guard, gateway dispatch, batch
//!   boundaries, and artifact loader — `protoquot fuzz`, gated in CI
//!   under a pinned seed;
//! * [`mod@adversarial`] — a hostile load generator: eight wire-level
//!   attacks (garbage, truncation, floods, churn, slow-drip,
//!   backpressure abuse, zombies) with a deterministic containment
//!   report, identical at any reactor loop count — `drive
//!   --adversarial`;
//! * [`stats`] — lock-free counters with JSON snapshots, including
//!   the connection-eviction taxonomy (`slow_consumer`, `slow_read`,
//!   `protocol`) behind the resource limits in [`transport`];
//! * [`artifact`] — the `PQCA` compiled-converter format: specs plus
//!   the prebuilt guard-DFA tables under a content hash, with a
//!   strict fuzzable loader whose [`CompiledArtifact::instantiate`]
//!   demands the rebuilt guard be byte-identical to the stored one;
//! * [`registry`] — the versioned converter store behind live
//!   hot-swap: admission re-runs [`protoquot_spec::verify_system`]
//!   against the pinned service contract before an artifact can go
//!   live via [`Gateway::swap`], while peers negotiate the wire
//!   identity (event-table hash + active version) in a hello
//!   handshake.
//!
//! The headline property, enforced by `tests/runtime_agreement.rs` at
//! the workspace root: **every event sequence the runtime accepts is a
//! trace the static checker accepts, and every faulty converter the
//! static checker rejects is convicted online** when driven with the
//! same fleet schedules. `tests/reactor_transport.rs` extends the
//! differential across carriers: the same campaign produces the same
//! report over loopback and the reactor, lockstep or multiplexed.
//!
//! The operator-facing guide — every CLI flag, the stats/report JSON
//! schemas, reject reasons, and backpressure/eviction/drain semantics
//! — is `docs/RUNTIME.md` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversarial;
pub mod artifact;
pub mod codec;
pub mod drive;
pub mod fuzz;
pub mod gateway;
pub mod guard;
pub mod registry;
pub mod stats;
pub mod transport;

pub use adversarial::{adversarial, AdversarialConfig, AdversarialReport, AttackOutcome};
pub use artifact::{ArtifactDfa, ArtifactError, CompiledArtifact, ARTIFACT_FORMAT, ARTIFACT_MAGIC};
pub use codec::{
    table_hash, Frame, FrameBuffer, RejectReason, Reply, ReplyBuffer, WireCodec, WireError,
};
pub use drive::{drive, drive_mux, DriveConfig, DriveReport, RunOutcome};
pub use fuzz::{Finding, FindingKind, FuzzConfig, FuzzReport, FuzzTarget};
pub use gateway::{BatchScratch, Gateway, GatewayConfig, GatewayError, Responder};
pub use guard::{Conviction, GuardBuildStats, GuardProgram, SessionGuard, SessionGuardReference};
pub use registry::{AdmittedVersion, ConverterRegistry, RegistryError};
pub use stats::{ConnEvictReason, RuntimeStats, StatsSnapshot};
pub use transport::{
    Conn, ConnLimits, LoopbackConn, LoopbackMux, MuxClient, MuxTransport, ReactorConfig,
    ReactorServer, TcpConn,
};
