//! The metric table, result records, and the `compare` gate.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics with
//! the same units, directions and bounds; a test holds the two equal.

use crate::measure::{median, quartiles};
use serde::Value;
use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    /// Per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Metrics a user of the system sees, from untraced runs. One exchange
/// is a derive pass (derive workloads), a mux round (`serve-mux`) or a
/// frame (`serve-lockstep`); latency and throughput are those of the
/// run's quiet tenth ([`crate::measure::quiet`]).
///
/// Bounds: on a shared 2-vCPU VM, host load drifts over minutes and
/// moved the serve workloads' timings by more than 10 % between runs,
/// so timings get the largest bound allowed, which set-up shares, and
/// memory, which follows the sessions a run opens, 0.2. Tail
/// percentiles spread too widely to gate on and are per-layer metrics
/// of the traced run (`transport.rtt_p99_us`, `transport.rtt_p999_us`).
pub const END_TO_END: [Metric; 4] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("latency_p50_us", "us", Lower, 0.25),
    e2e("throughput_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.2),
];

/// Metrics of single layers, from the traced run. The README maps each
/// to the end-to-end metric and workload it should move.
pub const PER_LAYER: [Metric; 39] = [
    layer("speclang.parse_ms", "ms", Lower),
    layer("spec.compose_ms", "ms", Lower),
    layer("spec.normalize_ms", "ms", Lower),
    layer("spec.verify_ms", "ms", Lower),
    layer("spec.verify_states", "count", Lower),
    layer("core.safety_ms", "ms", Lower),
    layer("core.safety_states", "count", Lower),
    layer("core.safety_dedup_hits", "count", Lower),
    layer("core.progress_ms", "ms", Lower),
    layer("core.progress_iterations", "count", Lower),
    layer("core.progress_nodes_touched", "count", Lower),
    layer("guard.build_ms", "ms", Lower),
    layer("guard.dfa_states", "count", Lower),
    layer("guard.table_bytes", "bytes", Lower),
    layer("guard.max_subset", "count", Lower),
    layer("artifact.encode_ms", "ms", Lower),
    layer("artifact.decode_ms", "ms", Lower),
    layer("artifact.instantiate_ms", "ms", Lower),
    layer("artifact.bytes", "bytes", Lower),
    layer("registry.admit_ms", "ms", Lower),
    layer("registry.admit_self_ms", "ms", Lower),
    layer("gateway.swap_us", "us", Lower),
    layer("guard.observe_ns_per_frame", "ns", Lower),
    layer("gateway.self_ns_per_frame", "ns", Lower),
    layer("gateway.batch_frames_mean", "frames", Higher),
    layer("gateway.slow_path_frac", "ratio", Lower),
    layer("gateway.queue_high_water", "count", Lower),
    layer("gateway.convictions", "count", Lower),
    layer("gateway.rejects_other", "count", Lower),
    layer("gateway.sessions_resident_end", "count", Lower),
    layer("codec.self_ns_per_frame", "ns", Lower),
    layer("codec.bytes_in_per_frame", "bytes", Lower),
    layer("codec.bytes_out_per_frame", "bytes", Lower),
    layer("transport.self_ns_per_frame", "ns", Lower),
    layer("transport.exchanges_per_round", "count", Lower),
    layer("transport.connect_hello_us_p50", "us", Lower),
    layer("transport.rtt_p99_us", "us", Lower),
    layer("transport.rtt_p999_us", "us", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
];

/// The table entry for `name`.
pub fn lookup(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

/// Operations attempted and failed, with the first few failures
/// described.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Operations attempted: problem derivations or frames.
    pub attempted: u64,
    /// Operations whose outcome differed from the prediction.
    pub failed: u64,
    /// The first [`Tally::KEPT`] failures, described.
    pub errors: Vec<String>,
}

impl Tally {
    /// Failure descriptions kept.
    pub const KEPT: usize = 8;

    /// Counts one failure.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < Tally::KEPT {
            self.errors.push(what);
        }
    }

    /// Adds `other`'s counts and descriptions.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = Tally::KEPT.saturating_sub(self.errors.len());
        self.errors.extend(other.errors.into_iter().take(room));
    }
}

/// The benchmark's last output line: exactly `correct`, `attempted`,
/// `failed` and `metrics` (each metric as `{"value", "unit"}`).
pub fn result_line(
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: &BTreeMap<String, f64>,
) -> String {
    let mut m = BTreeMap::new();
    for (name, &value) in metrics {
        let unit = name
            .rsplit('/')
            .next()
            .and_then(lookup)
            .map_or("", |d| d.unit);
        let mut entry = BTreeMap::new();
        entry.insert("value".to_string(), Value::Float(value));
        entry.insert("unit".to_string(), Value::Str(unit.to_string()));
        m.insert(name.clone(), Value::Obj(entry));
    }
    let mut top = BTreeMap::new();
    top.insert("correct".to_string(), Value::Bool(correct));
    top.insert("attempted".to_string(), Value::Int(attempted.into()));
    top.insert("failed".to_string(), Value::Int(failed.into()));
    top.insert("metrics".to_string(), Value::Obj(m));
    serde_json::to_string(&Value::Obj(top)).expect("a value tree always serializes")
}

/// One run as recorded in a `--json` result file.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Whether this was a traced run (per-layer metrics).
    pub trace: bool,
    /// Input seed.
    pub seed: u64,
    /// Start time, milliseconds since the Unix epoch.
    pub started_ms: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

impl RunRecord {
    /// The record as one JSON line.
    pub fn to_json(&self, tally: &Tally) -> String {
        let mut o = BTreeMap::new();
        o.insert("kind".to_string(), Value::Str("run".into()));
        o.insert("workload".to_string(), Value::Str(self.workload.clone()));
        o.insert("trace".to_string(), Value::Bool(self.trace));
        o.insert("seed".to_string(), Value::Int(self.seed.into()));
        o.insert("started_ms".to_string(), Value::Int(self.started_ms.into()));
        o.insert("correct".to_string(), Value::Bool(tally.failed == 0));
        o.insert("attempted".to_string(), Value::Int(tally.attempted.into()));
        o.insert("failed".to_string(), Value::Int(tally.failed.into()));
        o.insert("metrics".to_string(), floats(&self.metrics));
        serde_json::to_string(&Value::Obj(o)).expect("a value tree always serializes")
    }
}

/// A name → number map as a JSON object.
pub fn floats(values: &BTreeMap<String, f64>) -> Value {
    Value::Obj(
        values
            .iter()
            .map(|(k, &v)| (k.clone(), Value::Float(v)))
            .collect(),
    )
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// The `run` records of a result file (JSON lines; other kinds of
/// line are skipped).
pub fn parse_records(text: &str) -> Result<Vec<RunRecord>, String> {
    let mut out = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: Value = serde_json::from_str(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let o = v
            .as_obj()
            .ok_or_else(|| format!("line {}: not an object", n + 1))?;
        if o.get("kind").and_then(Value::as_str) != Some("run") {
            continue;
        }
        let field = |k: &str| o.get(k).ok_or_else(|| format!("line {}: no `{k}`", n + 1));
        let metrics = field("metrics")?
            .as_obj()
            .ok_or_else(|| format!("line {}: `metrics` is not an object", n + 1))?
            .iter()
            .filter_map(|(k, v)| number(v).map(|x| (k.clone(), x)))
            .collect();
        out.push(RunRecord {
            workload: field("workload")?
                .as_str()
                .ok_or_else(|| format!("line {}: bad `workload`", n + 1))?
                .to_string(),
            trace: matches!(field("trace")?, Value::Bool(true)),
            seed: number(field("seed")?).unwrap_or(0.0) as u64,
            started_ms: number(field("started_ms")?).unwrap_or(0.0) as u64,
            metrics,
        });
    }
    Ok(out)
}

/// The outcome of comparing one (end-to-end metric, workload) pair.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// The change wins ≥ 9/10 of the pairs and the medians differ by
    /// more than the parent's interquartile range.
    Improved,
    /// The change's median is within the bound of the parent's.
    Unchanged,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Regressed,
    /// The runs cannot tell; the reason says why.
    Unresolved(String),
}

/// One row of `compare`'s report.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// End-to-end metric.
    pub metric: &'static Metric,
    /// Pairs compared.
    pub pairs: usize,
    /// Pairs the change won.
    pub wins: usize,
    /// Parent median.
    pub parent: f64,
    /// Change median.
    pub change: f64,
    /// Parent interquartile range.
    pub parent_iqr: f64,
    /// The verdict.
    pub verdict: Verdict,
    /// For a regression: per-layer metrics of this workload whose
    /// traced median left the parent's min..max range.
    pub moved: Vec<String>,
}

/// Fewest alternating pairs a verdict may rest on.
pub const MIN_PAIRS: usize = 10;

fn values<'a>(runs: &'a [RunRecord], workload: &str, trace: bool) -> Vec<&'a RunRecord> {
    runs.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .collect()
}

fn better(m: &Metric, a: f64, b: f64) -> bool {
    match m.better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    }
}

/// Applies the pairwise rule to every (end-to-end metric, workload)
/// present in both files. Run `i` of the parent pairs with run `i` of
/// the change; the pairs must alternate which side ran first.
pub fn compare(parent: &[RunRecord], change: &[RunRecord]) -> Vec<Row> {
    let mut workloads: Vec<&str> = parent.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut rows = Vec::new();
    for w in workloads {
        let p_runs = values(parent, w, false);
        let c_runs = values(change, w, false);
        if c_runs.is_empty() {
            continue;
        }
        let pairs = p_runs.len().min(c_runs.len());
        let parent_first = (0..pairs)
            .filter(|&i| p_runs[i].started_ms < c_runs[i].started_ms)
            .count();
        for m in &END_TO_END {
            let p: Vec<f64> = p_runs
                .iter()
                .filter_map(|r| r.metrics.get(m.name).copied())
                .collect();
            let c: Vec<f64> = c_runs
                .iter()
                .filter_map(|r| r.metrics.get(m.name).copied())
                .collect();
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let n = p.len().min(c.len());
            let wins = (0..n).filter(|&i| better(m, c[i], p[i])).count();
            let (mp, mc) = (median(&p), median(&c));
            let (q1, q3) = quartiles(&p);
            let iqr = q3 - q1;
            let bound = m.bound.unwrap_or(0.0);
            let worse = match m.better {
                Better::Lower => (mc - mp) / mp.abs(),
                Better::Higher => (mp - mc) / mp.abs(),
            };
            let all_better = c.iter().all(|&cv| p.iter().all(|&pv| better(m, cv, pv)));
            let verdict = if n < MIN_PAIRS {
                Verdict::Unresolved(format!("{n} pairs; needs {MIN_PAIRS}"))
            } else if parent_first == 0 || parent_first == pairs {
                Verdict::Unresolved("the pairs did not alternate which side ran first".into())
            } else if better(m, mc, mp) && wins * 10 >= n * 9 && (mc - mp).abs() > iqr {
                Verdict::Improved
            } else if worse > bound {
                Verdict::Regressed
            } else if iqr / mp.abs() > bound && !all_better {
                Verdict::Unresolved(format!(
                    "parent spread {:.1}% exceeds the {:.0}% bound",
                    100.0 * iqr / mp.abs(),
                    100.0 * bound
                ))
            } else {
                Verdict::Unchanged
            };
            let moved = if verdict == Verdict::Regressed {
                moved_layers(parent, change, w)
            } else {
                Vec::new()
            };
            rows.push(Row {
                workload: w.to_string(),
                metric: m,
                pairs: n,
                wins,
                parent: mp,
                change: mc,
                parent_iqr: iqr,
                verdict,
                moved,
            });
        }
    }
    rows
}

/// Per-layer metrics of `workload` whose traced median in `change`
/// lies outside the parent's traced min..max.
fn moved_layers(parent: &[RunRecord], change: &[RunRecord], workload: &str) -> Vec<String> {
    let p_runs = values(parent, workload, true);
    let c_runs = values(change, workload, true);
    let mut out = Vec::new();
    for m in &PER_LAYER {
        let p: Vec<f64> = p_runs
            .iter()
            .filter_map(|r| r.metrics.get(m.name).copied())
            .collect();
        let c: Vec<f64> = c_runs
            .iter()
            .filter_map(|r| r.metrics.get(m.name).copied())
            .collect();
        if p.is_empty() || c.is_empty() {
            continue;
        }
        let lo = p.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = p.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mc = median(&c);
        if mc < lo || mc > hi {
            out.push(format!(
                "{} {:.4} -> {:.4} {}",
                m.name,
                median(&p),
                mc,
                m.unit
            ));
        }
    }
    out
}
