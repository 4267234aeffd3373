//! The soak fleet: thousands of independent seeded, fault-injected,
//! fully monitored runs executed across worker threads.
//!
//! Each run `i` of a fleet is its own [`Execution`] — a [`Runner`],
//! [`ServiceMonitor`], [`ProgressWatchdog`] and fault state under the
//! deterministic seed [`derive_seed`]`(base, i)`. Runs share nothing
//! mutable, so the fleet splits them into contiguous chunks, one scoped thread
//! ([`std::thread::scope`]) per chunk. Results are aggregated into a
//! [`SoakReport`] that is **invariant in the thread count**: verdict
//! counts are sums, and counterexamples are kept for the lowest-numbered
//! failing runs, so `--threads 1` and `--threads 8` produce the same
//! report (modulo wall-clock throughput). The differential test relies on this.
//!
//! Failing schedules are minimized with [`shrink_schedule`] before
//! reporting (ddmin; see [`crate::shrink`]).

use crate::engine::{derive_seed, Action, ExternalPolicy, Runner, System};
use crate::fault::{FaultPlan, FaultState};
use crate::monitor::{pinpoint, MonitorVerdict, ProgressVerdict, ProgressWatchdog, ServiceMonitor};
use crate::shrink::{shrink_schedule, FailureKind};
use protoquot_spec::{verify_system, Spec, SpecError, VerifyEngineStats, Violation};
use serde::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::thread;
use std::time::Instant;

/// Outcome of one soak run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RunVerdict {
    /// The run completed its step budget without any violation.
    Conforming,
    /// The service monitor flagged a forbidden event.
    Safety,
    /// The run reached a global state with no enabled actions.
    Deadlock,
    /// The watchdog proved no acceptable service event is reachable.
    Livelock,
}

impl fmt::Display for RunVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RunVerdict::Conforming => "Conforming",
            RunVerdict::Safety => "Safety",
            RunVerdict::Deadlock => "Deadlock",
            RunVerdict::Livelock => "Livelock",
        };
        f.write_str(s)
    }
}

/// A minimized failing run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counterexample {
    /// Fleet-level index of the failing run.
    pub run: u64,
    /// The run's derived seed (replayable).
    pub seed: u64,
    /// What went wrong.
    pub verdict: RunVerdict,
    /// The minimized schedule, rendered one action per entry
    /// (`τ:component` for internal moves, the event name otherwise).
    pub schedule: Vec<String>,
    /// Just the event names within the minimized schedule, in order —
    /// the externally visible shape of the failure.
    pub events: Vec<String>,
    /// `component:state` pinpoint of the stuck global state
    /// (deadlock/livelock only; empty for safety violations).
    pub pinpoint: Vec<String>,
}

impl Counterexample {
    fn to_value(&self) -> Value {
        let mut o = BTreeMap::new();
        o.insert("run".into(), Value::Int(self.run as i128));
        o.insert("seed".into(), Value::Int(self.seed as i128));
        o.insert("verdict".into(), Value::Str(self.verdict.to_string()));
        o.insert(
            "schedule".into(),
            Value::Arr(
                self.schedule
                    .iter()
                    .map(|s| Value::Str(s.clone()))
                    .collect(),
            ),
        );
        o.insert(
            "events".into(),
            Value::Arr(self.events.iter().map(|s| Value::Str(s.clone())).collect()),
        );
        o.insert(
            "pinpoint".into(),
            Value::Arr(
                self.pinpoint
                    .iter()
                    .map(|s| Value::Str(s.clone()))
                    .collect(),
            ),
        );
        Value::Obj(o)
    }
}

/// Configuration of a soak fleet.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of independent runs.
    pub runs: u64,
    /// Worker threads (1 = run inline on the caller).
    pub threads: usize,
    /// Fleet-level seed; run `i` uses `derive_seed(seed, i)`.
    pub seed: u64,
    /// Step budget per run.
    pub max_steps: u64,
    /// Fault models biasing every run's schedule.
    pub faults: FaultPlan,
    /// Service-silent steps before the watchdog probes.
    pub quiescence_threshold: u64,
    /// Global states explored per watchdog probe.
    pub probe_budget: usize,
    /// Keep at most this many (lowest-run-index) counterexamples.
    pub max_counterexamples: usize,
    /// Minimize failing schedules with ddmin before reporting.
    pub shrink: bool,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            runs: 1_000,
            threads: 1,
            seed: 0xC0FFEE,
            max_steps: 2_000,
            faults: FaultPlan::none(),
            quiescence_threshold: 64,
            probe_budget: 20_000,
            max_counterexamples: 3,
            shrink: true,
        }
    }
}

/// Aggregated result of a soak fleet.
#[derive(Clone, Debug)]
pub struct SoakReport {
    /// Runs executed.
    pub runs: u64,
    /// Worker threads used.
    pub threads: usize,
    /// Fleet-level seed.
    pub seed: u64,
    /// Human-readable fault plan (`loss,dup` or `none`).
    pub faults: String,
    /// Runs that completed cleanly.
    pub conforming: u64,
    /// Runs flagged by the safety monitor.
    pub safety: u64,
    /// Runs that deadlocked.
    pub deadlock: u64,
    /// Runs the watchdog proved livelocked.
    pub livelock: u64,
    /// Scheduler steps summed over all runs.
    pub total_steps: u64,
    /// Wall-clock seconds for the whole fleet.
    pub elapsed_secs: f64,
    /// `total_steps / elapsed_secs`.
    pub steps_per_sec: f64,
    /// Minimized counterexamples (lowest failing run indices first, at
    /// most `max_counterexamples`).
    pub counterexamples: Vec<Counterexample>,
}

impl SoakReport {
    /// True if every run conformed.
    pub fn is_conforming(&self) -> bool {
        self.safety == 0 && self.deadlock == 0 && self.livelock == 0
    }

    /// The report as a JSON string (vendored serde shim).
    pub fn to_json(&self) -> String {
        let mut o = BTreeMap::new();
        o.insert("runs".into(), Value::Int(self.runs as i128));
        o.insert("threads".into(), Value::Int(self.threads as i128));
        o.insert("seed".into(), Value::Int(self.seed as i128));
        o.insert("faults".into(), Value::Str(self.faults.clone()));
        o.insert("conforming".into(), Value::Int(self.conforming as i128));
        o.insert("safety".into(), Value::Int(self.safety as i128));
        o.insert("deadlock".into(), Value::Int(self.deadlock as i128));
        o.insert("livelock".into(), Value::Int(self.livelock as i128));
        o.insert("total_steps".into(), Value::Int(self.total_steps as i128));
        o.insert("elapsed_secs".into(), Value::Float(self.elapsed_secs));
        o.insert("steps_per_sec".into(), Value::Float(self.steps_per_sec));
        o.insert(
            "verdict".into(),
            Value::Str(if self.is_conforming() {
                "Conforming".into()
            } else {
                "NonConforming".into()
            }),
        );
        o.insert(
            "counterexamples".into(),
            Value::Arr(
                self.counterexamples
                    .iter()
                    .map(Counterexample::to_value)
                    .collect(),
            ),
        );
        serde_json::to_string(&Value::Obj(o)).expect("report serialization cannot fail")
    }
}

impl fmt::Display for SoakReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "soak: {} runs × ≤{} steps, {} threads, faults={}, seed={:#x}",
            self.runs,
            self.total_steps.checked_div(self.runs).unwrap_or(0),
            self.threads,
            self.faults,
            self.seed
        )?;
        writeln!(
            f,
            "verdicts: {} conforming, {} safety, {} deadlock, {} livelock",
            self.conforming, self.safety, self.deadlock, self.livelock
        )?;
        writeln!(
            f,
            "throughput: {} steps in {:.2}s = {:.0} steps/sec",
            self.total_steps, self.elapsed_secs, self.steps_per_sec
        )?;
        writeln!(
            f,
            "overall: {}",
            if self.is_conforming() {
                "Conforming"
            } else {
                "NON-CONFORMING"
            }
        )?;
        for cx in &self.counterexamples {
            writeln!(
                f,
                "counterexample (run {}, seed {:#x}, {}; {} actions / {} events):",
                cx.run,
                cx.seed,
                cx.verdict,
                cx.schedule.len(),
                cx.events.len()
            )?;
            writeln!(f, "  schedule: {}", cx.schedule.join(" "))?;
            if !cx.pinpoint.is_empty() {
                writeln!(f, "  stuck at: {}", cx.pinpoint.join(" ‖ "))?;
            }
        }
        Ok(())
    }
}

/// Result of one run, returned by its chunk's thread.
struct RunResult {
    steps: u64,
    verdict: RunVerdict,
    counterexample: Option<Counterexample>,
}

/// Executes soak fleets over a fixed set of components and a service.
pub struct FleetRunner {
    components: Vec<Spec>,
    service: Spec,
}

impl FleetRunner {
    /// A fleet over `components` (wired by event-name sharing, external
    /// events always enabled) monitored against `service`.
    pub fn new(components: Vec<Spec>, service: Spec) -> FleetRunner {
        FleetRunner {
            components,
            service,
        }
    }

    /// Static conformance oracle for the fleet: checks that the n-way
    /// composition of the components satisfies the service, on the
    /// compiled verification engine ([`protoquot_spec::verify_system`])
    /// — no composite `Spec` is materialized. The dynamic soak runs are
    /// sound with respect to this verdict: a conforming static system
    /// never produces fault-free violations.
    pub fn static_verdict(&self) -> Result<(Result<(), Violation>, VerifyEngineStats), SpecError> {
        let parts: Vec<&Spec> = self.components.iter().collect();
        let out = verify_system(&parts, &self.service)?;
        Ok((out.verdict, out.stats))
    }

    /// Runs the fleet and aggregates the report.
    pub fn run(&self, config: &FleetConfig) -> SoakReport {
        let start = Instant::now();
        let threads = config.threads.max(1);
        // Contiguous chunks: chunk-local counterexample caps stay exact
        // after the global merge (see below).
        let chunk = config.runs.div_ceil(threads as u64).max(1);
        let results: Vec<RunResult> = thread::scope(|scope| {
            let workers: Vec<_> = (0..config.runs)
                .step_by(chunk as usize)
                .map(|lo| {
                    let hi = (lo + chunk).min(config.runs);
                    scope.spawn(move || self.run_chunk(config, lo..hi))
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("fleet worker died"))
                .collect()
        });
        // Thread-count invariance: chunks join in order, so the
        // aggregation below sees runs in run order.
        let mut report = SoakReport {
            runs: config.runs,
            threads,
            seed: config.seed,
            faults: config.faults.to_string(),
            conforming: 0,
            safety: 0,
            deadlock: 0,
            livelock: 0,
            total_steps: 0,
            elapsed_secs: 0.0,
            steps_per_sec: 0.0,
            counterexamples: Vec::new(),
        };
        for r in results {
            report.total_steps += r.steps;
            match r.verdict {
                RunVerdict::Conforming => report.conforming += 1,
                RunVerdict::Safety => report.safety += 1,
                RunVerdict::Deadlock => report.deadlock += 1,
                RunVerdict::Livelock => report.livelock += 1,
            }
            if report.counterexamples.len() < config.max_counterexamples {
                if let Some(cx) = r.counterexample {
                    report.counterexamples.push(cx);
                }
            }
        }
        report.elapsed_secs = start.elapsed().as_secs_f64();
        report.steps_per_sec = if report.elapsed_secs > 0.0 {
            report.total_steps as f64 / report.elapsed_secs
        } else {
            0.0
        };
        report
    }

    /// Runs `runs` in order. Shrink work is capped per chunk: the global
    /// merge keeps the lowest `max_counterexamples` run indices, and
    /// within a contiguous chunk those are always its first failures.
    fn run_chunk(&self, config: &FleetConfig, runs: std::ops::Range<u64>) -> Vec<RunResult> {
        let mut kept = 0usize;
        runs.map(|run| {
            let mut r = soak_run(&self.components, &self.service, config, run);
            if r.counterexample.is_some() {
                if kept >= config.max_counterexamples {
                    r.counterexample = None;
                } else {
                    kept += 1;
                }
            }
            r
        })
        .collect()
    }
}

fn render_action(system: &System, action: &Action) -> String {
    match action {
        Action::Internal { component, .. } => {
            format!("τ:{}", system.components()[*component].name())
        }
        Action::Event { event, .. } => event.name(),
    }
}

/// Why a run stopped before its step budget: the verdict and, for a
/// deadlock or livelock, the `component:state` pinpoint of the stuck
/// global state.
pub type Halt = (RunVerdict, Vec<String>);

/// One seeded, fault-biased, monitored execution of a fleet's system —
/// a soak run here, a drive session in `protoquot-runtime` — resumable
/// one action at a time. [`Execution::act`] takes a step and
/// [`Execution::settle`] judges it, so a caller may put the action's
/// event on the wire in between; [`Execution::run`] loops the two.
pub struct Execution {
    runner: Runner,
    monitor: ServiceMonitor,
    watchdog: ProgressWatchdog,
    fault: FaultState,
}

impl Execution {
    /// Run `seed` of `components` (wired by event-name sharing,
    /// external events always enabled), biased by `faults` and
    /// monitored against `service`; the watchdog probes after
    /// `quiescence_threshold` service-silent steps, exploring at most
    /// `probe_budget` global states.
    pub fn new(
        components: &[Spec],
        service: &Spec,
        seed: u64,
        faults: &FaultPlan,
        quiescence_threshold: u64,
        probe_budget: usize,
    ) -> Execution {
        let system = System::new(components.to_vec(), ExternalPolicy::AlwaysEnabled);
        Execution {
            runner: Runner::new(system, seed),
            monitor: ServiceMonitor::new(service),
            watchdog: ProgressWatchdog::new(quiescence_threshold, probe_budget),
            fault: faults.start(seed),
        }
    }

    /// Takes one fault-weighted step and shows its event to the safety
    /// monitor; the action must be settled before the next `act`. A
    /// global state with no enabled action halts the run as a deadlock.
    pub fn act(&mut self) -> Result<Action, Halt> {
        let fault = &mut self.fault;
        let Some(action) = self.runner.step_weighted(|a, base| fault.weigh(a, base)) else {
            let states = pinpoint(self.runner.system(), self.runner.states());
            return Err((RunVerdict::Deadlock, states));
        };
        self.fault.note(&action);
        if let Action::Event { event, .. } = &action {
            self.monitor.observe(*event);
        }
        Ok(action)
    }

    /// Judges the last action taken: the watchdog notes it, then the
    /// safety verdict and — unless the run is `stopping` anyway — the
    /// progress probe may halt the run.
    pub fn settle(&mut self, action: &Action, stopping: bool) -> Option<Halt> {
        self.watchdog.note(action, &self.monitor);
        if matches!(
            self.monitor.verdict(),
            MonitorVerdict::SafetyViolation { .. }
        ) {
            return Some((RunVerdict::Safety, Vec::new()));
        }
        if stopping {
            return None;
        }
        match self
            .watchdog
            .poll(self.runner.system(), self.runner.states(), &self.monitor)
        {
            ProgressVerdict::Livelock { states } => Some((RunVerdict::Livelock, states)),
            ProgressVerdict::Deadlock { states } => Some((RunVerdict::Deadlock, states)),
            ProgressVerdict::Progressing => None,
        }
    }

    /// Acts and settles until `max_steps` steps or a halt, appending
    /// every action taken to `schedule`. `None` means the run conformed
    /// for its whole budget.
    pub fn run(&mut self, max_steps: u64, schedule: &mut Vec<Action>) -> Option<Halt> {
        while self.steps() < max_steps {
            let action = match self.act() {
                Ok(action) => action,
                Err(halt) => return Some(halt),
            };
            let halt = self.settle(&action, false);
            schedule.push(action);
            if halt.is_some() {
                return halt;
            }
        }
        None
    }

    /// Scheduler steps taken so far (internal moves included).
    pub fn steps(&self) -> u64 {
        self.runner.steps()
    }

    /// The system being run.
    pub fn system(&self) -> &System {
        self.runner.system()
    }
}

/// One fully monitored, fault-injected run.
fn soak_run(components: &[Spec], service: &Spec, config: &FleetConfig, run: u64) -> RunResult {
    let seed = derive_seed(config.seed, run);
    let mut exec = Execution::new(
        components,
        service,
        seed,
        &config.faults,
        config.quiescence_threshold,
        config.probe_budget,
    );
    let mut schedule: Vec<Action> = Vec::new();
    let Some((verdict, pinpoint)) = exec.run(config.max_steps, &mut schedule) else {
        return RunResult {
            steps: exec.steps(),
            verdict: RunVerdict::Conforming,
            counterexample: None,
        };
    };
    let minimized = match (config.shrink, verdict) {
        (true, RunVerdict::Safety) => {
            shrink_schedule(exec.system(), service, &schedule, FailureKind::Safety)
        }
        (true, RunVerdict::Deadlock) => {
            shrink_schedule(exec.system(), service, &schedule, FailureKind::Deadlock)
        }
        // Livelock is a property of the reachable closure, not of a
        // finite prefix; report the raw schedule with the pinpoint.
        _ => schedule,
    };
    let rendered: Vec<String> = minimized
        .iter()
        .map(|a| render_action(exec.system(), a))
        .collect();
    let events: Vec<String> = minimized
        .iter()
        .filter_map(|a| match a {
            Action::Event { event, .. } => Some(event.name()),
            Action::Internal { .. } => None,
        })
        .collect();
    RunResult {
        steps: exec.steps(),
        verdict,
        counterexample: Some(Counterexample {
            run,
            seed,
            verdict,
            schedule: rendered,
            events,
            pinpoint,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::redirect_transition;
    use protoquot_spec::SpecBuilder;

    fn ping_pong() -> (Vec<Spec>, Spec) {
        let mut b = SpecBuilder::new("P");
        let s0 = b.state("s0");
        let s1 = b.state("s1");
        b.ext(s0, "acc", s1);
        b.ext(s1, "del", s0);
        let machine = b.build().unwrap();
        let mut b = SpecBuilder::new("S");
        let u0 = b.state("u0");
        let u1 = b.state("u1");
        b.ext(u0, "acc", u1);
        b.ext(u1, "del", u0);
        (vec![machine], b.build().unwrap())
    }

    #[test]
    fn clean_system_conforms() {
        let (components, service) = ping_pong();
        let fleet = FleetRunner::new(components, service);
        let report = fleet.run(&FleetConfig {
            runs: 50,
            max_steps: 200,
            ..FleetConfig::default()
        });
        assert!(report.is_conforming(), "{report}");
        assert_eq!(report.conforming, 50);
        assert_eq!(report.total_steps, 50 * 200);
        let json = report.to_json();
        assert!(json.contains("\"conforming\":50"), "{json}");
    }

    #[test]
    fn mutated_machine_is_caught_and_minimized() {
        let (components, service) = ping_pong();
        // Redirect `del`'s target so the machine can emit `del` twice.
        let broken = redirect_transition(&components[0], 1).unwrap();
        let fleet = FleetRunner::new(vec![broken], service);
        let report = fleet.run(&FleetConfig {
            runs: 20,
            max_steps: 200,
            ..FleetConfig::default()
        });
        assert!(!report.is_conforming());
        assert!(!report.counterexamples.is_empty());
        let cx = &report.counterexamples[0];
        assert_eq!(cx.verdict, RunVerdict::Safety);
        assert!(
            cx.events.len() <= 20,
            "counterexample not minimized: {:?}",
            cx.events
        );
    }

    #[test]
    fn static_verdict_agrees_with_soak() {
        let (components, service) = ping_pong();
        let clean = FleetRunner::new(components.clone(), service.clone());
        let (verdict, stats) = clean.static_verdict().unwrap();
        assert!(verdict.is_ok());
        assert!(stats.pairs >= 2);

        let broken = redirect_transition(&components[0], 1).unwrap();
        let bad = FleetRunner::new(vec![broken], service);
        let (base, _) = bad.static_verdict().unwrap();
        assert!(base.is_err(), "redirected delivery must fail statically");
    }

    #[test]
    fn report_is_thread_count_invariant() {
        let (components, service) = ping_pong();
        let broken = redirect_transition(&components[0], 1).unwrap();
        let fleet = FleetRunner::new(vec![broken], service);
        let base = FleetConfig {
            runs: 40,
            max_steps: 100,
            ..FleetConfig::default()
        };
        let one = fleet.run(&FleetConfig {
            threads: 1,
            ..base.clone()
        });
        let eight = fleet.run(&FleetConfig { threads: 8, ..base });
        assert_eq!(one.conforming, eight.conforming);
        assert_eq!(one.safety, eight.safety);
        assert_eq!(one.deadlock, eight.deadlock);
        assert_eq!(one.livelock, eight.livelock);
        assert_eq!(one.total_steps, eight.total_steps);
        assert_eq!(one.counterexamples, eight.counterexamples);
    }
}
