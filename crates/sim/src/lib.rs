//! # protoquot-sim
//!
//! Executable semantics for composed specifications: where the analysis
//! crates prove that a conversion system works, this crate *runs* it.
//!
//! * [`engine`] — step semantics with seeded weighted-random
//!   scheduling; events shared by several components fire as
//!   handshakes, internal transitions fire unilaterally, and per-
//!   component internal weights model channel loss rates;
//! * [`monitor`] — an online service monitor that tracks the observed
//!   external trace through a normalized service spec and pinpoints the
//!   first safety violation;
//! * [`harness`] — one-call bounded runs producing a [`RunReport`]
//!   (deadlock flag, verdict, event and loss counters);
//! * [`fault`] — composable scheduler-level fault models (loss,
//!   duplication, reordering, burst loss) biasing the choice among
//!   enabled actions;
//! * [`fleet`] — a parallel, seeded soak fleet running thousands of
//!   monitored, fault-injected runs and aggregating a [`SoakReport`];
//!   each run is an [`Execution`], which the runtime's `drive` also
//!   relays over the wire;
//! * [`shrink`] — delta-debugging minimization of a failing schedule
//!   to its shortest violating action sequence.
//!
//! Used by the examples to demonstrate a derived converter shuttling
//! messages between the alternating-bit and non-sequenced protocol
//! machines under fault injection, and by integration tests to confirm
//! that simulated runs agree with the static `satisfies` verdicts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod explore;
pub mod fault;
pub mod fleet;
pub mod harness;
pub mod log;
pub mod monitor;
pub mod shrink;

pub use engine::{derive_seed, Action, ExternalPolicy, Runner, System};
pub use explore::{explore, ExploreResult};
pub use fault::{redirect_transition, Fault, FaultPlan, FaultState};
pub use fleet::{
    Counterexample, Execution, FleetConfig, FleetRunner, Halt, RunParams, RunVerdict, SoakReport,
};
pub use harness::{run_monitored, run_traced, RunReport, SimConfig};
pub use log::{render_msc, TraceEntry, TraceEvent};
pub use monitor::{MonitorVerdict, ProgressVerdict, ProgressWatchdog, ServiceMonitor};
pub use shrink::{ddmin, shrink_schedule, FailureKind};
