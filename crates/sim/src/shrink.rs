//! Schedule shrinking: minimize a failing run to its shortest violating
//! action sequence before reporting it.
//!
//! A soak failure arrives as the full recorded schedule — often
//! thousands of actions, most of them irrelevant channel noise. This
//! module applies delta debugging (ddmin) over the schedule: repeatedly
//! delete chunks and replay, keeping any candidate that still fails
//! in the *same class* ([`FailureKind`]). Replay is apply-if-enabled:
//! an action that is no longer enabled after earlier deletions is
//! skipped rather than failing the candidate, which both smooths the
//! search landscape (ddmin's chunks need not align with the system's
//! causal structure) and lets the replayer itself drop dead weight —
//! the result of a successful replay is the subsequence that was
//! actually applied, ending at the violation.

use crate::engine::{Action, System};
use crate::monitor::{MonitorVerdict, ServiceMonitor};
use protoquot_spec::Spec;

/// The failure class a shrink must preserve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The service monitor flagged an event the service does not allow.
    Safety,
    /// The system reached a global state with no enabled actions.
    Deadlock,
}

/// Replays `schedule` against a fresh instance of `system`, skipping
/// actions that are not enabled when their turn comes. Returns the
/// applied subsequence if the replay reproduces `kind`:
///
/// * [`FailureKind::Safety`] — the subsequence ends at the first action
///   whose event the monitor rejects;
/// * [`FailureKind::Deadlock`] — the final state (after the whole
///   schedule) has no enabled actions.
///
/// Returns `None` if the failure does not reproduce.
pub fn replay(
    system: &System,
    service: &Spec,
    schedule: &[Action],
    kind: FailureKind,
) -> Option<Vec<Action>> {
    let mut states: Vec<_> = system.components().iter().map(Spec::initial).collect();
    let mut monitor = ServiceMonitor::new(service);
    let mut enabled = Vec::new();
    let mut applied = Vec::new();
    for action in schedule {
        system.actions_into(&states, &mut enabled);
        if !enabled.contains(action) {
            continue;
        }
        match action {
            Action::Internal { component, to } => states[*component] = *to,
            Action::Event { event, moves } => {
                for &(c, t) in moves {
                    states[c] = t;
                }
                monitor.observe(*event);
            }
        }
        applied.push(action.clone());
        if kind == FailureKind::Safety {
            if let MonitorVerdict::SafetyViolation { .. } = monitor.verdict() {
                return Some(applied);
            }
        }
    }
    match kind {
        FailureKind::Safety => None,
        FailureKind::Deadlock => {
            system.actions_into(&states, &mut enabled);
            if enabled.is_empty() {
                Some(applied)
            } else {
                None
            }
        }
    }
}

/// Minimizes `schedule` to a (locally) shortest action sequence that
/// still reproduces `kind` on `system`, using [`ddmin`] with
/// apply-if-enabled replay. If the input schedule does not reproduce
/// the failure at all (it should — it was recorded from a failing run),
/// it is returned unchanged.
pub fn shrink_schedule(
    system: &System,
    service: &Spec,
    schedule: &[Action],
    kind: FailureKind,
) -> Vec<Action> {
    match replay(system, service, schedule, kind) {
        Some(applied) => ddmin(applied, usize::MAX, |candidate| {
            replay(system, service, candidate, kind)
        }),
        None => schedule.to_vec(),
    }
}

/// Delta debugging over a failing `input`: repeatedly deletes one chunk
/// and probes the rest, keeping what `reproduce` returns for a
/// candidate that still fails (the candidate itself, or a reduction of
/// it). Stops at a 1-minimal result or after `max_probes` probes, so a
/// caller whose probes are costly can bound the search.
pub fn ddmin<T: Clone>(
    input: Vec<T>,
    max_probes: usize,
    mut reproduce: impl FnMut(&[T]) -> Option<Vec<T>>,
) -> Vec<T> {
    let mut current = input;
    let mut probes = 0usize;
    let mut chunks = 2usize;
    while current.len() >= 2 && probes < max_probes {
        let chunk_len = current.len().div_ceil(chunks);
        let mut reduced = false;
        let mut start = 0;
        while start < current.len() && probes < max_probes {
            let end = (start + chunk_len).min(current.len());
            let candidate: Vec<T> = current[..start]
                .iter()
                .chain(&current[end..])
                .cloned()
                .collect();
            probes += 1;
            if let Some(kept) = reproduce(&candidate) {
                current = kept;
                chunks = 2.max(chunks.saturating_sub(1));
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if chunks >= current.len() {
                break;
            }
            chunks = (chunks * 2).min(current.len());
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExternalPolicy;
    use protoquot_spec::SpecBuilder;

    /// A machine that may emit `good` forever but can also emit `bad`,
    /// which the service never allows.
    fn sometimes_bad() -> Spec {
        let mut b = SpecBuilder::new("M");
        let s0 = b.state("s0");
        b.ext(s0, "good", s0);
        b.ext(s0, "bad", s0);
        b.build().unwrap()
    }

    fn good_service() -> Spec {
        let mut b = SpecBuilder::new("S");
        let u0 = b.state("u0");
        b.ext(u0, "good", u0);
        // `bad` is in the service alphabet but never allowed: observing
        // it anywhere is a safety violation.
        b.event("bad");
        b.build().unwrap()
    }

    fn ev(name: &str, moves: Vec<(usize, protoquot_spec::StateId)>) -> Action {
        Action::Event {
            event: protoquot_spec::EventId::new(name),
            moves,
        }
    }

    #[test]
    fn safety_failure_shrinks_to_single_event() {
        let system = System::new(vec![sometimes_bad()], ExternalPolicy::AlwaysEnabled);
        let s0 = protoquot_spec::StateId(0);
        // 40 goods, one bad in the middle, more goods after.
        let mut schedule = Vec::new();
        for _ in 0..20 {
            schedule.push(ev("good", vec![(0, s0)]));
        }
        schedule.push(ev("bad", vec![(0, s0)]));
        for _ in 0..20 {
            schedule.push(ev("good", vec![(0, s0)]));
        }
        let min = shrink_schedule(&system, &good_service(), &schedule, FailureKind::Safety);
        assert_eq!(min.len(), 1, "should shrink to just the bad event: {min:?}");
        assert_eq!(min[0], ev("bad", vec![(0, s0)]));
    }

    #[test]
    fn deadlock_failure_shrinks_to_shortest_path() {
        // s0 -a-> s1 -b-> dead, with a self-loop `spin` on s0 padding
        // the schedule.
        let mut b = SpecBuilder::new("D");
        let s0 = b.state("s0");
        let s1 = b.state("s1");
        let s2 = b.state("dead");
        b.ext(s0, "spin", s0);
        b.ext(s0, "a", s1);
        b.ext(s1, "b", s2);
        let spec = b.build().unwrap();
        let system = System::new(vec![spec], ExternalPolicy::AlwaysEnabled);
        let service = good_service(); // watches nothing relevant
        let mut schedule = Vec::new();
        for _ in 0..15 {
            schedule.push(ev("spin", vec![(0, s0)]));
        }
        schedule.push(ev("a", vec![(0, s1)]));
        schedule.push(ev("b", vec![(0, s2)]));
        let min = shrink_schedule(&system, &service, &schedule, FailureKind::Deadlock);
        assert_eq!(min.len(), 2, "deadlock needs exactly a then b: {min:?}");
    }

    #[test]
    fn non_reproducing_schedule_returned_unchanged() {
        let system = System::new(vec![sometimes_bad()], ExternalPolicy::AlwaysEnabled);
        let s0 = protoquot_spec::StateId(0);
        let schedule = vec![ev("good", vec![(0, s0)]); 3];
        let min = shrink_schedule(&system, &good_service(), &schedule, FailureKind::Safety);
        assert_eq!(min.len(), 3);
    }

    #[test]
    fn empty_schedule_terminates_for_both_kinds() {
        // Safety: an empty schedule cannot reproduce, so it comes back
        // unchanged (and empty). Deadlock: a system that is dead from
        // the start reproduces on the empty schedule, which is already
        // minimal. Either way ddmin must terminate immediately.
        let live = System::new(vec![sometimes_bad()], ExternalPolicy::AlwaysEnabled);
        let min = shrink_schedule(&live, &good_service(), &[], FailureKind::Safety);
        assert!(min.is_empty());

        let mut b = SpecBuilder::new("Stuck");
        b.state("s0"); // no transitions at all
        let stuck = System::new(vec![b.build().unwrap()], ExternalPolicy::AlwaysEnabled);
        let min = shrink_schedule(&stuck, &good_service(), &[], FailureKind::Deadlock);
        assert!(min.is_empty());
    }

    #[test]
    fn already_minimal_counterexample_is_returned_verbatim() {
        let system = System::new(vec![sometimes_bad()], ExternalPolicy::AlwaysEnabled);
        let s0 = protoquot_spec::StateId(0);
        let schedule = vec![ev("bad", vec![(0, s0)])];
        let min = shrink_schedule(&system, &good_service(), &schedule, FailureKind::Safety);
        assert_eq!(min, schedule, "a 1-event counterexample cannot shrink");
    }

    #[test]
    fn reorder_fragile_failure_shrinks_to_a_valid_trace() {
        // `bad` is enabled only after `x` (s0 -x-> s1), and `y` undoes
        // the arming (s1 -y-> s0). Deleting a chunk that contains an
        // `x` but not its `bad` leaves later actions dis-enabled, so
        // most ddmin candidates are fragile under this reordering;
        // apply-if-enabled replay must skip them rather than wedge, and
        // the search must still terminate on a genuine failing trace.
        let mut b = SpecBuilder::new("Armed");
        let s0 = b.state("s0");
        let s1 = b.state("armed");
        b.ext(s0, "x", s1);
        b.ext(s1, "y", s0);
        b.ext(s1, "bad", s1);
        let system = System::new(vec![b.build().unwrap()], ExternalPolicy::AlwaysEnabled);

        let mut service = SpecBuilder::new("S");
        let u0 = service.state("u0");
        service.ext(u0, "x", u0);
        service.ext(u0, "y", u0);
        service.event("bad");
        let service = service.build().unwrap();

        let mut schedule = Vec::new();
        for _ in 0..12 {
            schedule.push(ev("x", vec![(0, s1)]));
            schedule.push(ev("y", vec![(0, s0)]));
        }
        schedule.push(ev("x", vec![(0, s1)]));
        schedule.push(ev("bad", vec![(0, s1)]));

        let min = shrink_schedule(&system, &service, &schedule, FailureKind::Safety);
        assert_eq!(min.len(), 2, "minimal arming trace is x then bad: {min:?}");
        // Whatever came back must itself replay to the same failure.
        let replayed = replay(&system, &service, &min, FailureKind::Safety)
            .expect("shrunk schedule must still fail");
        assert_eq!(replayed, min);
    }

    #[test]
    fn inapplicable_actions_are_skipped_not_fatal() {
        let system = System::new(vec![sometimes_bad()], ExternalPolicy::AlwaysEnabled);
        let s0 = protoquot_spec::StateId(0);
        let s9 = protoquot_spec::StateId(9); // nonsense move: never enabled
        let schedule = vec![ev("good", vec![(0, s9)]), ev("bad", vec![(0, s0)])];
        let min = replay(&system, &good_service(), &schedule, FailureKind::Safety).unwrap();
        assert_eq!(min.len(), 1);
    }
}
