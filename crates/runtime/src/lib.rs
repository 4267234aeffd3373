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
//! * [`gateway`] — a sharded, session-multiplexed relay that answers
//!   every frame inline on the thread that hands it in: striped
//!   session table whose shard lock is the session lock, idle
//!   eviction, per-session frame budgets, drain; transports hand it
//!   whole readiness batches via [`Gateway::call_batch`] — one shard
//!   lock and one contiguous guard-DFA run per session per batch,
//!   replies encoded zero-copy into the caller's outbound buffer;
//!   [`Gateway::call`] is the same step for one frame;
//! * [`transport`] — carriers of the same bytes: the in-memory
//!   loopback and the non-blocking epoll reactor ([`ReactorServer`]),
//!   which serves every connection from a fixed pool of event loops
//!   and multiplexes 100k+ sessions per socket via the session ids
//!   already present in each frame header; [`MuxClient`] is its
//!   campaign client, and [`TcpConn`] a blocking one-frame client;
//! * [`mod@drive`] — a seeded load generator replaying the soak fleet's
//!   executions over the wire, attesting stalls to the server: one
//!   driver ([`drive()`]) multiplexing [`DriveConfig::sessions_per_conn`]
//!   concurrent sessions over each [`MuxTransport`] (1, the default,
//!   is lockstep), one frame in flight per session, with
//!   byte-identical reports at any shape;
//! * [`mod@fuzz`] — a vendored deterministic fuzz engine (seeded
//!   corpus, structure-aware frame mutators, panic/hang detection,
//!   ddmin shrinking) over the codec, guard, gateway dispatch, batch
//!   boundaries, and artifact loader — `protoquot fuzz`, gated in CI
//!   under a pinned seed;
//! * [`mod@adversarial`] — a hostile load generator: eight wire-level
//!   attacks (garbage, truncation, floods, churn, slow-drip,
//!   unread bursts, zombies) with a deterministic containment
//!   report, identical at any reactor loop count — `drive
//!   --adversarial`;
//! * [`stats`] — lock-free counters with JSON snapshots, including
//!   the connection-eviction taxonomy (`slow_consumer`, `slow_read`,
//!   `protocol`) behind the resource limits in [`transport`];
//! * [`artifact`] — the `PQCA` compiled-converter format: specs plus
//!   a digest of their guard-DFA tables under a content hash, with a
//!   strict fuzzable loader whose [`CompiledArtifact::instantiate`]
//!   demands the rebuilt guard's tables match the stored digest;
//! * [`registry`] — the versioned converter store behind live
//!   hot-swap: admission re-runs the product check
//!   ([`protoquot_spec::CompiledSystem::verify`], on the system the
//!   guard rebuild compiled) against the pinned service contract
//!   before an artifact can go
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
//! report over loopback and the reactor, at one session per
//! connection or many.
//!
//! The operator-facing guide — every CLI flag, the stats/report JSON
//! schemas, reject reasons, and write-bound/eviction/drain semantics
//! — is `docs/RUNTIME.md` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Declares a fieldless enum as one table: each variant with its
/// discriminant (a wire code, where the value travels) and its stable
/// snake_case name. The enum, `ALL`, `name()` and `index()` all come from
/// that table. Discriminants must run contiguously in declaration order,
/// checked at compile time, so `index()` is one subtraction.
macro_rules! named_enum {
    (
        $(#[$meta:meta])*
        pub enum $ty:ident {
            $($(#[$vmeta:meta])* $variant:ident = $code:literal => $name:literal,)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u8)]
        pub enum $ty {
            $($(#[$vmeta])* $variant = $code,)+
        }

        impl $ty {
            /// Every variant, in declaration order.
            pub const ALL: [$ty; [$($name),+].len()] = [$($ty::$variant),+];

            /// Stable snake_case name, used in reports, stats keys and
            /// on the command line.
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)+
                }
            }

            /// The variant's position in `ALL` (its counter slot).
            pub fn index(self) -> usize {
                usize::from(self as u8 - $ty::ALL[0] as u8)
            }
        }

        const _: () = {
            let mut i = 0;
            while i < $ty::ALL.len() {
                assert!($ty::ALL[i] as usize == $ty::ALL[0] as usize + i);
                i += 1;
            }
        };
    };
}

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
pub use artifact::{ArtifactError, CompiledArtifact, ARTIFACT_FORMAT, ARTIFACT_MAGIC};
pub use codec::{
    table_hash, Frame, FrameBuffer, RejectReason, Reply, ReplyBuffer, WireCodec, WireError,
};
pub use drive::{drive, DriveConfig, DriveReport, RunOutcome};
pub use fuzz::{Finding, FindingKind, FuzzConfig, FuzzReport, FuzzTarget};
pub use gateway::{BatchScratch, Gateway, GatewayConfig, GatewayError};
pub use guard::{Conviction, GuardBuildStats, GuardProgram, SessionGuard, SessionGuardReference};
pub use registry::{AdmittedVersion, ConverterRegistry, RegistryError};
pub use stats::{ConnEvictReason, RuntimeStats, StatsSnapshot};
pub use transport::{
    Conn, ConnLimits, LoopbackConn, LoopbackMux, MuxClient, MuxTransport, ReactorConfig,
    ReactorServer, TcpConn,
};
