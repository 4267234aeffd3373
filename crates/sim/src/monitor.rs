//! Online service monitoring: checks a running system's external trace
//! against a (normalized) service specification, flagging safety
//! violations the moment they occur, plus a [`ProgressWatchdog`] that
//! flags deadlock and livelock — the dynamic twin of the static
//! progress phase (`prog.a.⟨b,c⟩`, Fig. 6 of the paper).

use crate::engine::{Action, System};
use protoquot_spec::{normalize, EventId, NormalSpec, Spec, StateId};
use std::collections::{HashSet, VecDeque};

/// What the monitor observed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MonitorVerdict {
    /// All observed events so far are consistent with the service.
    Conforming,
    /// The event at `position` (index into the observed trace) is not
    /// allowed by the service after the preceding trace.
    SafetyViolation {
        /// Offset of the offending event in the observed trace.
        position: usize,
        /// The offending event.
        event: EventId,
    },
}

/// Tracks ψ through the service as events are observed.
pub struct ServiceMonitor {
    service: NormalSpec,
    hub: usize,
    observed: Vec<EventId>,
    verdict: MonitorVerdict,
}

impl ServiceMonitor {
    /// Builds a monitor for `service` (normalized internally).
    pub fn new(service: &Spec) -> ServiceMonitor {
        let service = normalize(service);
        let hub = service.initial_hub();
        ServiceMonitor {
            service,
            hub,
            observed: Vec::new(),
            verdict: MonitorVerdict::Conforming,
        }
    }

    /// The service's alphabet — feed the monitor exactly these events.
    pub fn monitored_events(&self) -> impl Iterator<Item = EventId> + '_ {
        self.service.spec().alphabet().iter()
    }

    /// True if `event` is one the monitor watches.
    pub fn watches(&self, event: EventId) -> bool {
        self.service.spec().alphabet().contains(event)
    }

    /// Observes one event. Events outside the service alphabet are
    /// ignored; after a violation further events are recorded but not
    /// tracked.
    pub fn observe(&mut self, event: EventId) {
        if !self.watches(event) {
            return;
        }
        let position = self.observed.len();
        self.observed.push(event);
        if self.verdict != MonitorVerdict::Conforming {
            return;
        }
        match self.service.step(self.hub, event) {
            Some(h) => self.hub = h,
            None => {
                self.verdict = MonitorVerdict::SafetyViolation { position, event };
            }
        }
    }

    /// The verdict so far.
    pub fn verdict(&self) -> &MonitorVerdict {
        &self.verdict
    }

    /// The observed (service-alphabet) trace.
    pub fn observed(&self) -> &[EventId] {
        &self.observed
    }

    /// Events the service could accept next (τ* of the current hub);
    /// empty after a violation.
    pub fn acceptable_next(&self) -> Vec<EventId> {
        if self.verdict != MonitorVerdict::Conforming {
            return Vec::new();
        }
        self.service.tau_star(self.hub).iter().collect()
    }
}

/// What the progress watchdog concluded about a quiescent system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgressVerdict {
    /// The system can still produce service-visible progress.
    Progressing,
    /// No action is enabled at all: the run is stuck for good.
    Deadlock {
        /// `component:state` names of the stuck global state.
        states: Vec<String>,
    },
    /// Actions remain enabled (τ-cycles, unproductive handshakes) but
    /// no acceptable service event is reachable from here: the system
    /// spins forever without ever serving its users.
    Livelock {
        /// `component:state` names of the livelocked global state.
        states: Vec<String>,
    },
}

/// Detects quiescence-based progress failures during a run.
///
/// The safety monitor ([`ServiceMonitor`]) can only flag events that
/// *do* happen; this watchdog flags the dual failure — service events
/// that stop happening. The static progress phase removes converter
/// states from which the composed system could settle into an internal
/// cycle outside every sink set of the service (Fig. 6); dynamically,
/// the same symptom is a run going *quiescent*: many scheduler steps
/// with no service-alphabet event. After `quiescence_threshold` such
/// steps the watchdog probes: a bounded breadth-first closure of the
/// current global state over all semantically enabled actions. If the
/// closure completes without reaching any event the service currently
/// accepts (`ServiceMonitor::acceptable_next`, i.e. τ* of the hub ψ),
/// the run is livelocked — a fair scheduler may merely be unlucky, but
/// no scheduler at all can produce progress from here. If the probe is
/// inconclusive (budget exhausted) the threshold backs off
/// exponentially so long healthy runs are not drowned in probes.
///
/// Note the probe walks *semantic* enablement ([`System::actions_into`])
/// — a τ-cycle that is escapable only through an event some partner
/// component never enables is still a livelock, even though the cycling
/// component's own sink analysis would see an escape. That asymmetry is
/// exactly what makes the dynamic check worth running next to the
/// static one.
pub struct ProgressWatchdog {
    base_threshold: u64,
    threshold: u64,
    probe_budget: usize,
    quiescent: u64,
}

impl ProgressWatchdog {
    /// A watchdog probing after `quiescence_threshold` service-silent
    /// steps, exploring at most `probe_budget` global states per probe.
    pub fn new(quiescence_threshold: u64, probe_budget: usize) -> ProgressWatchdog {
        let t = quiescence_threshold.max(1);
        ProgressWatchdog {
            base_threshold: t,
            threshold: t,
            probe_budget: probe_budget.max(1),
            quiescent: 0,
        }
    }

    /// Records one applied action. A monitored (service-alphabet) event
    /// resets the quiescence counter and the probe backoff; anything
    /// else deepens the quiescence.
    pub fn note(&mut self, action: &Action, monitor: &ServiceMonitor) {
        match action {
            Action::Event { event, .. } if monitor.watches(*event) => {
                self.quiescent = 0;
                self.threshold = self.base_threshold;
            }
            _ => self.quiescent += 1,
        }
    }

    /// Checks the current global state, probing if quiescent for long
    /// enough. Cheap (one comparison) when no probe is due.
    pub fn poll(
        &mut self,
        system: &System,
        states: &[StateId],
        monitor: &ServiceMonitor,
    ) -> ProgressVerdict {
        if self.quiescent < self.threshold {
            return ProgressVerdict::Progressing;
        }
        // Probe due. Which events would count as progress?
        let targets: HashSet<EventId> = monitor.acceptable_next().into_iter().collect();
        if targets.is_empty() {
            // Safety already violated (handled elsewhere) — or a service
            // with a terminal state, where quiescence is legitimate.
            self.quiescent = 0;
            return ProgressVerdict::Progressing;
        }
        let mut seen: HashSet<Vec<StateId>> = HashSet::new();
        let mut queue: VecDeque<Vec<StateId>> = VecDeque::new();
        let mut actions: Vec<Action> = Vec::new();
        let mut truncated = false;
        seen.insert(states.to_vec());
        queue.push_back(states.to_vec());
        let mut first = true;
        while let Some(g) = queue.pop_front() {
            system.actions_into(&g, &mut actions);
            if first && actions.is_empty() {
                return ProgressVerdict::Deadlock {
                    states: pinpoint(system, states),
                };
            }
            first = false;
            for a in &actions {
                if let Action::Event { event, .. } = a {
                    if targets.contains(event) {
                        // Progress is reachable; the scheduler was just
                        // unlucky. Back off so a long quiescent-but-live
                        // run doesn't pay for a probe every few steps.
                        self.quiescent = 0;
                        self.threshold = self.threshold.saturating_mul(2);
                        return ProgressVerdict::Progressing;
                    }
                }
                let mut g2 = g.clone();
                match a {
                    Action::Internal { component, to } => g2[*component] = *to,
                    Action::Event { moves, .. } => {
                        for &(c, t) in moves {
                            g2[c] = t;
                        }
                    }
                }
                if seen.contains(&g2) {
                    continue;
                }
                if seen.len() >= self.probe_budget {
                    truncated = true;
                    continue;
                }
                seen.insert(g2.clone());
                queue.push_back(g2);
            }
        }
        if truncated {
            // The reachable set did not close within budget:
            // inconclusive. Back off and keep running.
            self.quiescent = 0;
            self.threshold = self.threshold.saturating_mul(2);
            return ProgressVerdict::Progressing;
        }
        ProgressVerdict::Livelock {
            states: pinpoint(system, states),
        }
    }
}

/// `component:state` names of the global state `states`.
pub(crate) fn pinpoint(system: &System, states: &[StateId]) -> Vec<String> {
    system
        .components()
        .iter()
        .zip(states)
        .map(|(c, &s)| format!("{}:{}", c.name(), c.state_name(s)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use protoquot_spec::SpecBuilder;

    fn service() -> Spec {
        let mut b = SpecBuilder::new("S");
        let u0 = b.state("u0");
        let u1 = b.state("u1");
        b.ext(u0, "acc", u1);
        b.ext(u1, "del", u0);
        b.build().unwrap()
    }

    #[test]
    fn conforming_run() {
        let mut m = ServiceMonitor::new(&service());
        for e in ["acc", "del", "acc", "del"] {
            m.observe(EventId::new(e));
        }
        assert_eq!(*m.verdict(), MonitorVerdict::Conforming);
        assert_eq!(m.observed().len(), 4);
        assert_eq!(m.acceptable_next(), vec![EventId::new("acc")]);
    }

    #[test]
    fn violation_flagged_at_position() {
        let mut m = ServiceMonitor::new(&service());
        m.observe(EventId::new("acc"));
        m.observe(EventId::new("del"));
        m.observe(EventId::new("del"));
        assert_eq!(
            *m.verdict(),
            MonitorVerdict::SafetyViolation {
                position: 2,
                event: EventId::new("del")
            }
        );
        assert!(m.acceptable_next().is_empty());
        // Later events don't change the verdict.
        m.observe(EventId::new("acc"));
        assert!(matches!(
            m.verdict(),
            MonitorVerdict::SafetyViolation { position: 2, .. }
        ));
    }

    #[test]
    fn unwatched_events_ignored() {
        let mut m = ServiceMonitor::new(&service());
        m.observe(EventId::new("noise"));
        assert_eq!(m.observed().len(), 0);
        assert!(!m.watches(EventId::new("noise")));
        assert!(m.watches(EventId::new("acc")));
    }

    use crate::engine::{ExternalPolicy, Runner, System};

    fn tick_service() -> Spec {
        let mut b = SpecBuilder::new("ticker");
        let u0 = b.state("u0");
        b.ext(u0, "tick", u0);
        b.build().unwrap()
    }

    /// Drives a run feeding monitor + watchdog, returning the first
    /// non-progressing verdict (or Progressing after `max` steps).
    fn drive(components: Vec<Spec>, service: &Spec, max: u64) -> ProgressVerdict {
        let sys = System::new(components, ExternalPolicy::AlwaysEnabled);
        let mut r = Runner::new(sys, 42);
        let monitor = ServiceMonitor::new(service);
        let mut wd = ProgressWatchdog::new(16, 10_000);
        let mut m = monitor;
        for _ in 0..max {
            match r.step_random() {
                None => {
                    return ProgressVerdict::Deadlock {
                        states: pinpoint(r.system(), r.states()),
                    }
                }
                Some(a) => {
                    if let Action::Event { event, .. } = &a {
                        m.observe(*event);
                    }
                    wd.note(&a, &m);
                    let v = wd.poll(r.system(), r.states(), &m);
                    if v != ProgressVerdict::Progressing {
                        return v;
                    }
                }
            }
        }
        ProgressVerdict::Progressing
    }

    #[test]
    fn watchdog_flags_deadlock_with_pinpointed_state() {
        // One tick, then a state with no moves at all: deadlock.
        let mut b = SpecBuilder::new("once");
        let s0 = b.state("live");
        let s1 = b.state("stuck");
        b.ext(s0, "tick", s1);
        let v = drive(vec![b.build().unwrap()], &tick_service(), 1_000);
        assert_eq!(
            v,
            ProgressVerdict::Deadlock {
                states: vec!["once:stuck".into()]
            }
        );
    }

    #[test]
    fn watchdog_flags_internal_livelock_outside_sink_sets() {
        // `spin` ticks from s0, but can slide into a τ-cycle s1 ⇄ s2.
        // That cycle is NOT a sink set of `spin` alone — s1 offers the
        // external escape `probe` — but the partner component shares
        // `probe` in its alphabet and never enables it, so dynamically
        // the cycle is inescapable and no `tick` is ever reachable
        // again. Per-component sink analysis cannot see this; the
        // watchdog's semantic-closure probe must.
        let mut b = SpecBuilder::new("spin");
        let s0 = b.state("serving");
        let s1 = b.state("spin1");
        let s2 = b.state("spin2");
        b.ext(s0, "tick", s0);
        b.int(s0, s1);
        b.int(s1, s2);
        b.int(s2, s1);
        b.ext(s1, "probe", s0);
        let spin = b.build().unwrap();

        let mut b = SpecBuilder::new("mute");
        let m0 = b.state("deaf");
        let m1 = b.state("unreachable");
        // `probe` is in mute's alphabet but only enabled from a state
        // that nothing ever reaches.
        b.ext(m1, "probe", m1);
        let _ = m0;
        let mute = b.build().unwrap();

        let v = drive(vec![spin, mute], &tick_service(), 5_000);
        match v {
            ProgressVerdict::Livelock { states } => {
                assert_eq!(states[1], "mute:deaf");
                assert!(
                    states[0] == "spin:spin1" || states[0] == "spin:spin2",
                    "unexpected pinpoint {states:?}"
                );
            }
            other => panic!("expected livelock, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_backs_off_on_healthy_quiescence() {
        // A system that ticks but also has long internal detours: the
        // watchdog may probe, must conclude Progressing, and must not
        // fire spuriously.
        let mut b = SpecBuilder::new("detour");
        let s0 = b.state("s0");
        let s1 = b.state("s1");
        b.ext(s0, "tick", s0);
        b.int(s0, s1);
        b.int(s1, s0);
        let v = drive(vec![b.build().unwrap()], &tick_service(), 3_000);
        assert_eq!(v, ProgressVerdict::Progressing);
    }
}
