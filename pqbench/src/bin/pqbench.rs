//! `pqbench` — measures protoquot end to end and layer by layer.
//!
//! ```text
//! pqbench [--workload NAME]... [--seed S] [--seconds N] [--runs N]
//!         [--trace 0|1] [--spans DIR] [--json OUT] [--quick]
//! pqbench compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! Each run of a workload happens in fresh child processes (this same
//! executable, `pqbench child ...`); set-up time is the median of
//! several cold set-ups, each in a process of its own. The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See `pqbench/README.md`.

use pqbench::inputs::DEFAULT_SEED;
use pqbench::measure::{median, quiet, Window};
use pqbench::metrics::{
    compare, floats, lookup, parse_records, result_line, RunRecord, Tally, Verdict, END_TO_END,
    PER_LAYER,
};
use pqbench::workloads::{run, setup_only, Outcome, RunConfig, Workload, RUN_SECONDS};
use serde::Value;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Measured seconds per run under `--quick`.
const QUICK_SECONDS: f64 = 2.0;
/// Child processes an untraced run is split over, each measuring an
/// equal share of the run's seconds, so that one process the scheduler
/// placed badly does not move the run's value.
const CHILDREN_PER_RUN: usize = 4;
/// Extra set-up-only processes per untraced run: `setup_s` is the
/// median over these and the measuring children's set-ups.
const SETUP_CHILDREN: usize = 1;

const USAGE: &str = "usage: pqbench [--workload NAME]... [--seed S] [--seconds N] [--runs N] \
[--trace 0|1] [--spans DIR] [--json OUT] [--quick]\n       pqbench compare PARENT.jsonl CHANGE.jsonl\n\
workloads: derive-blowup, derive-paper, serve-mux, serve-lockstep";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    runs: usize,
    trace: bool,
    spans: Option<PathBuf>,
    json: Option<PathBuf>,
    setup_only: bool,
}

fn parse_seed(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|_| format!("bad seed `{s}`"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        runs: 1,
        trace: false,
        spans: None,
        json: None,
        setup_only: false,
    };
    let mut seconds = None;
    let mut quick = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workloads
                    .push(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => a.seed = parse_seed(value()?)?,
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds `{v}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--runs" => {
                let v = value()?;
                a.runs = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("bad --runs `{v}`"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--spans" => a.spans = Some(PathBuf::from(value()?)),
            "--json" => a.json = Some(PathBuf::from(value()?)),
            "--quick" => quick = true,
            "--setup-only" => a.setup_only = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    a.seconds = seconds.unwrap_or(if quick { QUICK_SECONDS } else { RUN_SECONDS });
    if a.workloads.is_empty() {
        a.workloads = Workload::ALL.to_vec();
    }
    if a.spans.is_some() && !a.trace {
        return Err("--spans needs --trace 1".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("compare") => compare_files(&argv[1..]),
        Some("child") => child(&argv[1..]),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        _ => bench(&argv),
    };
    result.unwrap_or_else(|e| {
        eprintln!("pqbench: {e}");
        ExitCode::from(2)
    })
}

/// `pqbench child`: one run (or one cold set-up) in this process;
/// prints one JSON object.
fn child(argv: &[String]) -> Result<ExitCode, String> {
    let a = parse_args(argv)?;
    let [workload] = a.workloads[..] else {
        return Err("child runs exactly one workload".into());
    };
    let out = if a.setup_only {
        let setup_s = setup_only(workload)?;
        Outcome {
            setup_s,
            ..Outcome::default()
        }
    } else {
        run(&RunConfig {
            workload,
            seed: a.seed,
            seconds: a.seconds,
            trace: a.trace,
            spans: a.spans,
        })
    };
    let mut o = BTreeMap::new();
    o.insert("setup_s".to_string(), Value::Float(out.setup_s));
    o.insert(
        "attempted".to_string(),
        Value::Int(out.tally.attempted.into()),
    );
    o.insert("failed".to_string(), Value::Int(out.tally.failed.into()));
    o.insert(
        "errors".to_string(),
        Value::Arr(out.tally.errors.into_iter().map(Value::Str).collect()),
    );
    o.insert("metrics".to_string(), floats(&out.metrics));
    o.insert(
        "windows".to_string(),
        Value::Arr(
            out.windows
                .iter()
                .map(|w| Value::Arr(vec![Value::Float(w.rate), Value::Float(w.p50_us)]))
                .collect(),
        ),
    );
    println!(
        "{}",
        serde_json::to_string(&Value::Obj(o)).expect("a value tree always serializes")
    );
    Ok(ExitCode::SUCCESS)
}

/// Runs this executable as a child and parses its JSON line. The child
/// is killed (and reaped) if it outlives `limit`.
fn spawn_child(args: &[String], limit: Duration) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut proc = Command::new(exe)
        .arg("child")
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let deadline = Instant::now() + limit;
    let status = loop {
        if let Some(status) = proc.try_wait().map_err(|e| format!("wait: {e}"))? {
            break status;
        }
        if Instant::now() > deadline {
            let _ = proc.kill();
            let _ = proc.wait();
            return Err(format!("child {args:?} ran past {limit:?} and was killed"));
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut text = String::new();
    proc.stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut text)
        .map_err(|e| format!("child output: {e}"))?;
    if !status.success() {
        return Err(format!("child {args:?} exited with {status}"));
    }
    let line = text.lines().last().ok_or("child printed nothing")?;
    let v: Value = serde_json::from_str(line).map_err(|e| format!("child output: {e}"))?;
    let o = v.as_obj().ok_or("child output is not an object")?;
    let number = |v: &Value| match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    };
    let num = |k: &str| o.get(k).and_then(number).unwrap_or(0.0);
    let metrics = match o.get("metrics") {
        Some(Value::Obj(m)) => m
            .iter()
            .filter_map(|(k, v)| number(v).map(|x| (k.clone(), x)))
            .collect(),
        _ => BTreeMap::new(),
    };
    let windows = o
        .get("windows")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| match w.as_arr()? {
            [rate, p50] => Some(Window {
                rate: number(rate)?,
                p50_us: number(p50)?,
            }),
            _ => None,
        })
        .collect();
    let errors = o
        .get("errors")
        .and_then(Value::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(|e| e.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    Ok(Outcome {
        setup_s: num("setup_s"),
        tally: Tally {
            attempted: num("attempted") as u64,
            failed: num("failed") as u64,
            errors,
        },
        metrics,
        windows,
    })
}

/// One run of one workload. Untraced: [`CHILDREN_PER_RUN`] measuring
/// children plus [`SETUP_CHILDREN`] cold set-ups, folded by median
/// (latency and throughput: by [`quiet`] over the pooled windows).
/// Traced: one child measuring the whole run.
fn one_run(a: &Args, w: Workload, seed: u64, run: usize) -> Result<Outcome, String> {
    let base = vec![
        "--workload".to_string(),
        w.name().to_string(),
        "--seed".to_string(),
        seed.to_string(),
    ];
    let children = if a.trace { 1 } else { CHILDREN_PER_RUN };
    let seconds = a.seconds / children as f64;
    let mut args = base.clone();
    args.extend([
        "--seconds".to_string(),
        seconds.to_string(),
        "--trace".to_string(),
        if a.trace { "1" } else { "0" }.to_string(),
    ]);
    if let Some(dir) = &a.spans {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let file = dir.join(format!("{}-{seed:#x}-{run}.jsonl", w.name()));
        args.extend(["--spans".to_string(), file.display().to_string()]);
    }
    let limit = Duration::from_secs_f64(seconds * 3.0 + 60.0);
    let mut outcomes = Vec::new();
    for _ in 0..children {
        outcomes.push(spawn_child(&args, limit)?);
    }
    let mut setups: Vec<f64> = outcomes.iter().map(|o| o.setup_s).collect();
    if !a.trace {
        let mut args = base;
        args.push("--setup-only".into());
        for _ in 0..SETUP_CHILDREN {
            setups.push(spawn_child(&args, Duration::from_secs(60))?.setup_s);
        }
    }
    let mut out = Outcome {
        setup_s: median(&setups),
        ..Outcome::default()
    };
    for o in &outcomes {
        out.tally.merge(o.tally.clone());
    }
    for name in expected(a.trace) {
        let v: Vec<f64> = outcomes
            .iter()
            .filter_map(|o| o.metrics.get(name).copied())
            .collect();
        if v.len() == outcomes.len() {
            out.metrics.insert(name.to_string(), median(&v));
        }
    }
    if !a.trace {
        // Latency and throughput come from every child's windows at once.
        let windows: Vec<Window> = outcomes.iter().flat_map(|o| o.windows.clone()).collect();
        if let Some((latency, throughput)) = quiet(&windows) {
            out.metrics.insert("latency_p50_us".into(), latency);
            out.metrics.insert("throughput_per_s".into(), throughput);
        }
        out.metrics.insert("setup_s".into(), out.setup_s);
    }
    Ok(out)
}

/// The expected metric names of a run, in table order.
fn expected(trace: bool) -> Vec<&'static str> {
    if trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    }
}

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// The default `pqbench` command.
fn bench(argv: &[String]) -> Result<ExitCode, String> {
    let a = parse_args(argv)?;
    if a.setup_only {
        return Err("--setup-only is internal to `pqbench child`".into());
    }
    let mut total = Tally::default();
    let mut final_metrics = BTreeMap::new();
    let mut json_lines = Vec::new();
    for &w in &a.workloads {
        let mut per_run: Vec<BTreeMap<String, f64>> = Vec::new();
        for r in 0..a.runs {
            let seed = a.seed.wrapping_add(r as u64);
            let started_ms = unix_ms();
            let out = one_run(&a, w, seed, r)?;
            for e in &out.tally.errors {
                eprintln!("pqbench: {} run {r}: {e}", w.name());
            }
            if a.json.is_some() {
                let record = RunRecord {
                    workload: w.name().to_string(),
                    trace: a.trace,
                    seed,
                    started_ms,
                    metrics: out.metrics.clone(),
                };
                json_lines.push(record.to_json(&out.tally));
            }
            total.merge(out.tally);
            per_run.push(out.metrics);
        }
        let summary = summarize(&per_run, a.trace);
        print_table(w, &a, &summary);
        if a.json.is_some() {
            json_lines.push(summary_json(w, &a, &summary));
        }
        for (name, (_, med, _)) in summary {
            let key = if a.workloads.len() == 1 {
                name.to_string()
            } else {
                format!("{}/{name}", w.name())
            };
            final_metrics.insert(key, med);
        }
    }
    if let Some(path) = &a.json {
        append_lines(path, &json_lines)?;
    }
    let missing: Vec<&str> = expected(a.trace)
        .into_iter()
        .filter(|n| {
            !final_metrics
                .keys()
                .any(|k| k.rsplit('/').next() == Some(*n))
        })
        .collect();
    if !missing.is_empty() {
        eprintln!(
            "pqbench: not measured (too few samples?): {}",
            missing.join(", ")
        );
    }
    let correct = total.failed == 0 && total.attempted > 0;
    println!(
        "{}",
        result_line(
            total.attempted.max(1),
            total.failed,
            correct,
            &final_metrics
        )
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// min / median / max of each expected metric over the runs.
fn summarize(runs: &[BTreeMap<String, f64>], trace: bool) -> Vec<(&'static str, (f64, f64, f64))> {
    expected(trace)
        .into_iter()
        .filter_map(|name| {
            let v: Vec<f64> = runs.iter().filter_map(|m| m.get(name).copied()).collect();
            if v.is_empty() {
                return None;
            }
            let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            Some((name, (lo, median(&v), hi)))
        })
        .collect()
}

fn print_table(w: Workload, a: &Args, summary: &[(&'static str, (f64, f64, f64))]) {
    println!(
        "== {} (seed {:#x}, {} s, {} run{}, {}, loopback TCP) ==",
        w.name(),
        a.seed,
        a.seconds,
        a.runs,
        if a.runs == 1 { "" } else { "s" },
        if a.trace { "traced" } else { "untraced" },
    );
    for (name, (lo, med, hi)) in summary {
        let m = lookup(name).expect("table metric");
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", bound {:.0}%", b * 100.0));
        println!(
            "  {name:<34} {med:>14.4} {:<6} [{lo:.4} .. {hi:.4}] ({} is better{bound})",
            m.unit,
            m.better.name()
        );
    }
}

/// Where and how the numbers were made.
fn provenance(a: &Args) -> Value {
    let capture = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            // Never look for a repository above the working directory.
            .env(
                "GIT_CEILING_DIRECTORIES",
                std::env::current_dir()
                    .ok()
                    .and_then(|d| d.parent().map(Path::to_path_buf))
                    .unwrap_or_default(),
            )
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let mut p = BTreeMap::new();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    p.insert("nproc".to_string(), Value::Int(nproc as i128));
    p.insert(
        "git_sha".to_string(),
        Value::Str(capture("git", &["rev-parse", "HEAD"])),
    );
    p.insert("rustc".to_string(), Value::Str(capture("rustc", &["-V"])));
    p.insert("seed".to_string(), Value::Int(a.seed.into()));
    p.insert("seconds".to_string(), Value::Float(a.seconds));
    p.insert("runs".to_string(), Value::Int(a.runs as i128));
    p.insert(
        "setup_samples".to_string(),
        Value::Int((SETUP_CHILDREN + CHILDREN_PER_RUN) as i128),
    );
    p.insert(
        "children_per_run".to_string(),
        Value::Int(CHILDREN_PER_RUN as i128),
    );
    p.insert("network".to_string(), Value::Str("loopback TCP".into()));
    Value::Obj(p)
}

fn summary_json(w: Workload, a: &Args, summary: &[(&'static str, (f64, f64, f64))]) -> String {
    let mut metrics = BTreeMap::new();
    for (name, (lo, med, hi)) in summary {
        let mut m = BTreeMap::new();
        m.insert(
            "unit".to_string(),
            Value::Str(lookup(name).expect("table metric").unit.into()),
        );
        m.insert("min".to_string(), Value::Float(*lo));
        m.insert("median".to_string(), Value::Float(*med));
        m.insert("max".to_string(), Value::Float(*hi));
        metrics.insert(name.to_string(), Value::Obj(m));
    }
    let mut o = BTreeMap::new();
    o.insert("kind".to_string(), Value::Str("summary".into()));
    o.insert("workload".to_string(), Value::Str(w.name().into()));
    o.insert("trace".to_string(), Value::Bool(a.trace));
    o.insert("metrics".to_string(), Value::Obj(metrics));
    o.insert("provenance".to_string(), provenance(a));
    serde_json::to_string(&Value::Obj(o)).expect("a value tree always serializes")
}

fn append_lines(path: &Path, lines: &[String]) -> Result<(), String> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    for l in lines {
        writeln!(f, "{l}").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    f.flush().map_err(|e| format!("{}: {e}", path.display()))
}

/// `pqbench compare PARENT CHANGE`: exits 1 when any pair regressed.
fn compare_files(argv: &[String]) -> Result<ExitCode, String> {
    let [parent, change] = argv else {
        return Err(USAGE.into());
    };
    let read = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| parse_records(&t).map_err(|e| format!("{p}: {e}")))
    };
    let rows = compare(&read(parent)?, &read(change)?);
    if rows.is_empty() {
        return Err("no workload has untraced runs in both files".into());
    }
    let mut regressed = false;
    for r in &rows {
        let verdict = match &r.verdict {
            Verdict::Improved => "improved".to_string(),
            Verdict::Unchanged => "unchanged".to_string(),
            Verdict::Regressed => {
                regressed = true;
                "REGRESSED".to_string()
            }
            Verdict::Unresolved(why) => format!("unresolved ({why})"),
        };
        println!(
            "{:<15} {:<18} parent {:>12.4} change {:>12.4} {:<4} iqr {:>10.4} wins {:>2}/{:<2} {verdict}",
            r.workload, r.metric.name, r.parent, r.change, r.metric.unit, r.parent_iqr, r.wins, r.pairs,
        );
        for m in &r.moved {
            println!("    moved: {m}");
        }
        if r.verdict == Verdict::Regressed && r.moved.is_empty() {
            println!("    no traced runs name a layer that moved");
        }
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
