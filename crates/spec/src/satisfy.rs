//! The satisfaction relation of §3: "B satisfies A" = safety + progress.
//!
//! * **Safety**: every trace of B is a trace of A (`∀t: B.t ⇒ A.t`).
//! * **Progress**: any environment guaranteed not to deadlock with A is
//!   certain not to deadlock with B — formalised through sink sets:
//!   after any trace `t` leading B to `b`, `prog.(ψ_A.t).b` must hold,
//!   i.e. A may be in a sink whose enabled set is contained in τ*.b.
//!
//! A is regarded as a service specification (nondeterminism = choice,
//! unfair); B as an implementation (nondeterminism fair). A is
//! normalized internally; see [`crate::normal`] for why that preserves
//! both halves of the relation.

use crate::closure::Closures;
use crate::error::SpecError;
use crate::event::{Alphabet, EventId};
use crate::normal::{normalize, NormalSpec};
use crate::spec::{Spec, StateId};
use crate::trace::Trace;
use std::collections::{HashMap, VecDeque};

/// Why a satisfaction check failed.
#[derive(Clone, Debug)]
pub enum Violation {
    /// B can perform a trace A cannot: `trace` is a minimal witness (its
    /// last event is the offending one).
    Safety {
        /// The offending trace of B (not a trace of A).
        trace: Trace,
    },
    /// After `trace`, B may settle in `state` whose τ* set `offered` is
    /// not a superset of any sink acceptance set of A (`needed`): an
    /// environment tuned to A could deadlock with B.
    Progress {
        /// Trace leading to the violation.
        trace: Trace,
        /// The B-state at the violation.
        state: StateId,
        /// A's sink acceptance sets at ψ_A.trace.
        needed: Vec<Alphabet>,
        /// τ*.state in B.
        offered: Alphabet,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Safety { trace } => write!(
                f,
                "safety violation: implementation performs `{}` which the service forbids",
                crate::trace::trace_string(trace)
            ),
            Violation::Progress {
                trace,
                state,
                needed,
                offered,
            } => write!(
                f,
                "progress violation after `{}` in state {}: offers {} but the service \
                 requires one of {:?} to be fully offered",
                crate::trace::trace_string(trace),
                state,
                offered,
                needed
            ),
        }
    }
}

/// Outcome of [`satisfies`]: `Ok(())` or the first violation found.
pub type SatisfactionResult = Result<(), Violation>;

/// Internal: reachable (B-state, ψ-hub) pairs with a parent pointer for
/// counterexample extraction.
struct Exploration {
    /// (b, hub) pairs, indexed.
    pairs: Vec<(StateId, usize)>,
    /// Parent index and the event taken (None for internal moves).
    parents: Vec<Option<(usize, Option<EventId>)>>,
    /// First safety violation found, if any: (pair index, event).
    violation: Option<(usize, EventId)>,
}

/// Breadth-first product exploration. FIFO order matters: discovery
/// order is the canonical order the compiled engine
/// ([`crate::engine`]) re-walks on failure, parent pointers form a BFS tree
/// (so extracted witnesses are shortest), and the progress check scans
/// pairs in exactly this order.
fn explore(b: &Spec, na: &NormalSpec, stop_at_violation: bool) -> Exploration {
    let mut index: HashMap<(StateId, usize), usize> = HashMap::new();
    let mut pairs = Vec::new();
    let mut parents = Vec::new();
    let mut work = VecDeque::new();
    let start = (b.initial(), na.initial_hub());
    index.insert(start, 0);
    pairs.push(start);
    parents.push(None);
    work.push_back(0usize);
    let mut violation = None;

    while let Some(i) = work.pop_front() {
        let (bs, hub) = pairs[i];
        for &t in b.internal_from(bs) {
            let key = (t, hub);
            if let std::collections::hash_map::Entry::Vacant(v) = index.entry(key) {
                let id = pairs.len();
                v.insert(id);
                pairs.push(key);
                parents.push(Some((i, None)));
                work.push_back(id);
            }
        }
        for &(e, t) in b.external_from(bs) {
            match na.step(hub, e) {
                Some(hub2) => {
                    let key = (t, hub2);
                    if let std::collections::hash_map::Entry::Vacant(v) = index.entry(key) {
                        let id = pairs.len();
                        v.insert(id);
                        pairs.push(key);
                        parents.push(Some((i, Some(e))));
                        work.push_back(id);
                    }
                }
                None => {
                    if violation.is_none() {
                        violation = Some((i, e));
                        if stop_at_violation {
                            return Exploration {
                                pairs,
                                parents,
                                violation,
                            };
                        }
                    }
                }
            }
        }
    }
    Exploration {
        pairs,
        parents,
        violation,
    }
}

fn trace_to(exp: &Exploration, mut i: usize) -> Trace {
    let mut rev = Vec::new();
    while let Some((p, e)) = exp.parents[i] {
        if let Some(e) = e {
            rev.push(e);
        }
        i = p;
    }
    rev.reverse();
    rev
}

/// Checks that the interfaces match, then `B satisfies A with respect to
/// safety`: trace inclusion, via the (B-state × ψ-hub) product.
pub fn satisfies_safety(b: &Spec, a: &Spec) -> Result<SatisfactionResult, SpecError> {
    check_interface(b, a)?;
    let na = normalize(a);
    Ok(safety_with(b, &na))
}

/// Safety check against an already-normalized service.
pub fn safety_with(b: &Spec, na: &NormalSpec) -> SatisfactionResult {
    let exp = explore(b, na, true);
    if let Some((i, e)) = exp.violation {
        let mut trace = trace_to(&exp, i);
        trace.push(e);
        return Err(Violation::Safety { trace });
    }
    Ok(())
}

/// Checks `B satisfies A` (safety **and** progress).
///
/// ```
/// use protoquot_spec::{satisfies, SpecBuilder, Violation};
/// let mut a = SpecBuilder::new("A");
/// let u0 = a.state("u0");
/// let u1 = a.state("u1");
/// a.ext(u0, "acc", u1);
/// a.ext(u1, "del", u0);
/// let service = a.build().unwrap();
/// // An implementation that can silently die after `acc` fails progress.
/// let mut b = SpecBuilder::new("B");
/// let s0 = b.state("s0");
/// let s1 = b.state("s1");
/// let dead = b.state("dead");
/// b.ext(s0, "acc", s1);
/// b.ext(s1, "del", s0);
/// b.int(s1, dead);
/// let imp = b.build().unwrap();
/// assert!(matches!(
///     satisfies(&imp, &service).unwrap(),
///     Err(Violation::Progress { .. })
/// ));
/// ```
pub fn satisfies(b: &Spec, a: &Spec) -> Result<SatisfactionResult, SpecError> {
    check_interface(b, a)?;
    let na = normalize(a);
    Ok(satisfies_with(b, &na))
}

/// Full satisfaction against an already-normalized service.
///
/// Uses the paper's simplification: since a sink set is reachable from
/// every state, quantifying `prog` over *all* reachable states is
/// equivalent to quantifying over sink states only.
pub fn satisfies_with(b: &Spec, na: &NormalSpec) -> SatisfactionResult {
    let exp = explore(b, na, true);
    if let Some((i, e)) = exp.violation {
        let mut trace = trace_to(&exp, i);
        trace.push(e);
        return Err(Violation::Safety { trace });
    }
    let cl = Closures::compute(b);
    for (i, &(bs, hub)) in exp.pairs.iter().enumerate() {
        let offered = cl.tau_star(bs);
        let ok = na
            .acceptance(hub)
            .iter()
            .any(|needed| needed.is_subset(offered));
        if !ok {
            return Err(Violation::Progress {
                trace: trace_to(&exp, i),
                state: bs,
                needed: na.acceptance(hub).to_vec(),
                offered: offered.clone(),
            });
        }
    }
    Ok(())
}

fn check_interface(b: &Spec, a: &Spec) -> Result<(), SpecError> {
    if b.alphabet() != a.alphabet() {
        return Err(SpecError::InterfaceMismatch {
            left: format!("{}", b.alphabet()),
            right: format!("{}", a.alphabet()),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecBuilder;
    use crate::trace::trace_string;

    fn service() -> Spec {
        let mut b = SpecBuilder::new("S");
        let u0 = b.state("u0");
        let u1 = b.state("u1");
        b.ext(u0, "acc", u1);
        b.ext(u1, "del", u0);
        b.build().unwrap()
    }

    /// A perfect implementation: identical machine.
    #[test]
    fn identical_machine_satisfies() {
        let s = service();
        assert!(satisfies(&s, &s).unwrap().is_ok());
    }

    /// An implementation with a harmless internal stutter still satisfies.
    #[test]
    fn internal_stutter_satisfies() {
        let mut b = SpecBuilder::new("impl");
        let u0 = b.state("u0");
        let mid = b.state("mid");
        let u1 = b.state("u1");
        b.ext(u0, "acc", mid);
        b.int(mid, u1);
        b.ext(u1, "del", u0);
        let imp = b.build().unwrap();
        assert!(satisfies(&imp, &service()).unwrap().is_ok());
    }

    /// Duplicate delivery violates safety; the counterexample is minimal.
    #[test]
    fn duplicate_delivery_violates_safety() {
        let mut b = SpecBuilder::new("dup");
        let u0 = b.state("u0");
        let u1 = b.state("u1");
        let u2 = b.state("u2");
        b.ext(u0, "acc", u1);
        b.ext(u1, "del", u2);
        b.ext(u2, "del", u0);
        let imp = b.build().unwrap();
        match satisfies(&imp, &service()).unwrap() {
            Err(Violation::Safety { trace }) => {
                assert_eq!(trace_string(&trace), "acc.del.del");
            }
            other => panic!("expected safety violation, got {:?}", other.err()),
        }
    }

    /// An implementation that can stall (deadlock state) violates progress.
    #[test]
    fn stalling_violates_progress() {
        let mut b = SpecBuilder::new("stall");
        let u0 = b.state("u0");
        let u1 = b.state("u1");
        let dead = b.state("dead");
        b.ext(u0, "acc", u1);
        b.ext(u1, "del", u0);
        b.int(u1, dead); // after acc, may silently die
        let imp = b.build().unwrap();
        match satisfies(&imp, &service()).unwrap() {
            Err(Violation::Progress {
                needed, offered, ..
            }) => {
                assert!(offered.is_empty() || !needed.iter().any(|n| n.is_subset(&offered)));
            }
            other => panic!("expected progress violation, got {:?}", other.err()),
        }
    }

    /// Refusing to ever engage (empty implementation) fails progress but
    /// not safety.
    #[test]
    fn empty_implementation_fails_progress_only() {
        let mut b = SpecBuilder::new("empty");
        b.state("only");
        b.event("acc");
        b.event("del");
        let imp = b.build().unwrap();
        assert!(satisfies_safety(&imp, &service()).unwrap().is_ok());
        assert!(matches!(
            satisfies(&imp, &service()).unwrap(),
            Err(Violation::Progress { .. })
        ));
    }

    /// The service's own nondeterminism: B may implement either branch.
    #[test]
    fn implementation_may_resolve_service_choice() {
        // Service: after req, may answer ok or err (internal choice).
        let mut b = SpecBuilder::new("C");
        let s0 = b.state("s0");
        let mid = b.state("mid");
        let l = b.state("l");
        let r = b.state("r");
        b.ext(s0, "req", mid);
        b.int(mid, l);
        b.int(mid, r);
        b.ext(l, "ok", s0);
        b.ext(r, "err", s0);
        let srv = b.build().unwrap();

        // Implementation that always answers ok.
        let mut b = SpecBuilder::new("okimpl");
        let s0 = b.state("s0");
        let s1 = b.state("s1");
        b.ext(s0, "req", s1);
        b.ext(s1, "ok", s0);
        b.event("err");
        let imp = b.build().unwrap();
        assert!(satisfies(&imp, &srv).unwrap().is_ok());
    }

    /// The converse direction: a *service* client cannot demand more than
    /// an acceptance set — B offering neither branch fails.
    #[test]
    fn offering_no_branch_fails() {
        let mut b = SpecBuilder::new("C");
        let s0 = b.state("s0");
        let mid = b.state("mid");
        let l = b.state("l");
        let r = b.state("r");
        b.ext(s0, "req", mid);
        b.int(mid, l);
        b.int(mid, r);
        b.ext(l, "ok", s0);
        b.ext(r, "err", s0);
        let srv = b.build().unwrap();

        let mut b = SpecBuilder::new("noimpl");
        let s0 = b.state("s0");
        let s1 = b.state("s1");
        b.ext(s0, "req", s1);
        b.event("ok");
        b.event("err");
        let imp = b.build().unwrap();
        assert!(matches!(
            satisfies(&imp, &srv).unwrap(),
            Err(Violation::Progress { .. })
        ));
    }

    #[test]
    fn interface_mismatch_is_an_error() {
        let s = service();
        let mut b = SpecBuilder::new("other");
        let x = b.state("x");
        b.ext(x, "different", x);
        let imp = b.build().unwrap();
        assert!(satisfies(&imp, &s).is_err());
    }

    /// Fair internal cycles in B are fine: a loss/retry loop that always
    /// may exit to the required event still satisfies progress.
    #[test]
    fn fair_retry_loop_satisfies() {
        let mut b = SpecBuilder::new("retry");
        let u0 = b.state("u0");
        let trying = b.state("trying");
        let again = b.state("again");
        let u1 = b.state("u1");
        b.ext(u0, "acc", trying);
        b.int(trying, again); // "loss"
        b.int(again, trying); // "timeout + retransmit"
        b.int(trying, u1); // success path
        b.ext(u1, "del", u0);
        let imp = b.build().unwrap();
        assert!(satisfies(&imp, &service()).unwrap().is_ok());
    }

    /// An infinite internal livelock that never reaches a del-enabled
    /// state violates progress.
    #[test]
    fn livelock_violates_progress() {
        let mut b = SpecBuilder::new("livelock");
        let u0 = b.state("u0");
        let l1 = b.state("l1");
        let l2 = b.state("l2");
        b.ext(u0, "acc", l1);
        b.int(l1, l2);
        b.int(l2, l1);
        b.event("del");
        let imp = b.build().unwrap();
        assert!(matches!(
            satisfies(&imp, &service()).unwrap(),
            Err(Violation::Progress { .. })
        ));
    }

    #[test]
    fn violation_display_is_informative() {
        let v = Violation::Safety {
            trace: crate::trace::trace_of(&["a", "b"]),
        };
        assert!(v.to_string().contains("a.b"));
        let v = Violation::Progress {
            trace: vec![],
            state: StateId(3),
            needed: vec![Alphabet::from_names(["del"])],
            offered: Alphabet::new(),
        };
        assert!(v.to_string().contains("progress"));
    }
}
