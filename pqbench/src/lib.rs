//! # pqbench
//!
//! One benchmark for both halves of protoquot: deriving a converter
//! and taking it live (parse → compose → safety → progress → verify →
//! guard build → artifact → registry admission → hot-swap), and
//! serving it over the epoll reactor.
//!
//! Every layer is measured from outside, by timing calls into the
//! public functions of `speclang`, `spec`, `core` and `runtime`:
//!
//! * [`workloads`] — the four workloads, each run in a fresh process;
//! * [`deploy`] — the derive-to-live pipeline, whole or stage by stage;
//! * [`serve`] — closed-loop clients over loopback TCP and the layer
//!   ladder that replays their frames through ever deeper rungs;
//! * [`inputs`] — seeded inputs: spec sources, session scripts, planted
//!   events;
//! * [`tracing`] — in-memory spans written as JSON lines;
//! * [`measure`] — percentiles, quartiles, windows, peak RSS;
//! * [`metrics`] — the metric table, result records and `compare`.

#![forbid(unsafe_code)]

pub mod deploy;
pub mod inputs;
pub mod measure;
pub mod metrics;
pub mod serve;
pub mod tracing;
pub mod workloads;
