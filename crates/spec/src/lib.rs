//! # protoquot-spec
//!
//! The finite-state specification formalism of *Calvert & Lam, "Deriving
//! a Protocol Converter: A Top-Down Method" (SIGCOMM 1989)*, §3.
//!
//! A specification is a tuple `(S, Σ, T, λ, s0)`:
//!
//! * `S` — finite states ([`Spec::states`]),
//! * `Σ` — the event interface ([`Alphabet`]),
//! * `T ⊆ S × Σ × S` — external transitions, which fire only when both
//!   sides of the interface enable them,
//! * `λ ⊆ S × S` — internal transitions, which fire unilaterally and
//!   unobserved,
//! * `s0` — the initial state.
//!
//! On top of the tuple, this crate provides everything the quotient
//! algorithm (in `protoquot-core`) needs:
//!
//! * [`fn@compose`] — the paper's `‖` operator (shared events
//!   synchronise and hide; interfaces combine by symmetric difference);
//! * [`Closures`] — `λ*`, `τ`, `τ*`;
//! * [`SinkInfo`]/[`collapse_sinks`] — sink sets and the Figure 4
//!   collapse;
//! * [`normalize`]/[`NormalSpec`] — the normal form required of service
//!   specifications, with the `ψ` trace tracker;
//! * [`satisfies`] — the two-part satisfaction relation (safety = trace
//!   inclusion, progress = sink-acceptance containment);
//! * [`fn@minimize`]/[`bisimilar`] — strong bisimulation tools;
//! * trace utilities, DOT export, serde support.
//!
//! ## Quick example
//!
//! ```
//! use protoquot_spec::{SpecBuilder, satisfies};
//!
//! // Service: strictly alternating accept/deliver.
//! let mut b = SpecBuilder::new("service");
//! let u0 = b.state("u0");
//! let u1 = b.state("u1");
//! b.ext(u0, "acc", u1);
//! b.ext(u1, "del", u0);
//! let service = b.build().unwrap();
//!
//! // An implementation with an internal step still satisfies it.
//! let mut b = SpecBuilder::new("impl");
//! let s0 = b.state("s0");
//! let mid = b.state("mid");
//! let s1 = b.state("s1");
//! b.ext(s0, "acc", mid);
//! b.int(mid, s1);
//! b.ext(s1, "del", s0);
//! let implementation = b.build().unwrap();
//!
//! assert!(satisfies(&implementation, &service).unwrap().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod closure;
pub mod compose;
pub mod dot;
pub mod engine;
pub mod error;
pub mod event;
pub mod failures;
pub mod graph;
pub mod lang;
pub mod minimize;
pub mod normal;
pub mod satisfy;
pub mod serde_impl;
pub mod sink;
pub mod spec;
pub mod stateset;
pub mod trace;

pub use closure::Closures;
pub use compose::{compose, compose_all, compose_full, hide, sync_product};
pub use dot::{to_dot, to_text};
pub use engine::{
    bits_subset, compose_all_nway, verify_system, CompiledComposite, CompiledSystem, Csr,
    EngineVerdict, EventTable, SliceInterner, SubsetKernel, TauStar, VerifyEngineStats,
    DENSE_TUPLE_SLOTS,
};
pub use error::SpecError;
pub use event::{Alphabet, EventId};
pub use failures::Failures;
pub use graph::{prune_unreachable, reachable};
pub use lang::{all_minimal_violations, determinize, language_equal, MinimalViolation};
pub use minimize::{bisimilar, minimize};
pub use normal::{is_normal_form, normalize, NormalSpec};
pub use satisfy::{safety_with, satisfies, satisfies_safety, satisfies_with, Violation};
pub use serde_impl::SpecDoc;
pub use sink::{collapse_sinks, SinkInfo};
pub use spec::{spec_from_parts, Spec, SpecBuilder, StateId};
pub use stateset::StateSet;
pub use trace::{has_trace, project, trace_of, trace_string, Trace};
