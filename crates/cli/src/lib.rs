//! # protoquot-cli
//!
//! A command-line front end for the protocol-converter toolkit: author
//! machines in the textual language (see `protoquot-speclang`), then
//! compose, check, derive and simulate from the shell.
//!
//! ```text
//! protoquot parse FILE                          list the specs in a file
//! protoquot show FILE SPEC [--dot]              print one spec (text or DOT)
//! protoquot compose FILE SPEC... [--name N]     compose and print
//! protoquot check FILE --impl S --service A     satisfaction check
//! protoquot solve FILE --service A --int e1,e2 [--b SPEC...]
//!          [--dot] [--prune] [--vacuous] [--reachable]
//! protoquot simulate FILE --service A --components S1,S2,...
//!          [--steps N] [--seed K] [--loss COMP=WEIGHT]...
//! protoquot minimize FILE SPEC                  bisimulation quotient
//! protoquot normalize FILE SPEC                 service normal form
//! protoquot violations FILE --impl S --service A all minimal escapes
//! protoquot explore FILE --service A --components S1,S2,...
//!          [--max-states N]                     exhaustive check
//! protoquot soak (FILE --service A --components S1,... | --builtin NAME [--mutate K])
//!          [--runs N] [--threads T] [--steps N] [--faults loss,dup,reorder,burst]
//!          [--seed S] [--no-shrink] [--json]    fault-injecting soak fleet
//! ```
//!
//! The command logic lives in [`run`], which returns the output as a
//! string so it is unit-testable; `main` is a thin shell around it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use protoquot_core::{prune_useless, solve_with, ProgressStrategy, QuotientOptions};
use protoquot_runtime::{
    adversarial, drive, table_hash, AdversarialConfig, CompiledArtifact, ConnLimits,
    ConverterRegistry, DriveConfig, FuzzConfig, FuzzTarget, Gateway, GatewayConfig, GuardProgram,
    LoopbackMux, MuxClient, MuxTransport, ReactorConfig, ReactorServer,
};
use protoquot_sim::{
    redirect_transition, run_monitored, FaultPlan, FleetConfig, FleetRunner, MonitorVerdict,
    SimConfig,
};
use protoquot_spec::{
    compose_all, satisfies, to_dot, to_text, Alphabet, CompiledSystem, EventTable, Spec,
};
use protoquot_speclang::{parse_source, SourceFile};
use serde::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// A CLI failure: usage problems, file problems, or tool errors, all
/// with a user-facing message.
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl CliError {
    /// The process exit code for this failure. Verdict failures are
    /// distinguished so CI can tell a *convicted converter* (the guard
    /// found the system guilty — exit 2) from an *operational* unclean
    /// campaign (resource rejects or transport errors under
    /// `--expect-clean` — exit 3). Everything else exits 1.
    pub fn exit_code(&self) -> u8 {
        if self.0.starts_with("drive convicted:") {
            2
        } else if self.0.starts_with("drive unclean:") {
            3
        } else {
            1
        }
    }
}

fn err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

/// Top-level usage text.
pub const USAGE: &str = "protoquot — derive protocol converters (Calvert & Lam, SIGCOMM '89)

usage:
  protoquot parse FILE
  protoquot show FILE SPEC [--dot]
  protoquot compose FILE SPEC... [--name NAME] [--dot]
  protoquot check FILE --impl SPEC --service SPEC
  protoquot solve FILE --service SPEC --int e1,e2,... [--b SPEC...]
            [--dot] [--prune] [--vacuous] [--reachable] [--stats]
            [--emit compiled [--out PATH]]
  protoquot solve FILE --problem NAME [--dot] [--prune] [--vacuous] [--reachable]
            [--stats] [--emit compiled [--out PATH]]
  protoquot solve --builtin colocated|symmetric|ab-nak [--mutate K] [options as above]
  protoquot simulate FILE --service SPEC --components S1,S2,...
            [--steps N] [--seed K] [--loss COMPONENT=WEIGHT]...
  protoquot minimize FILE SPEC
  protoquot normalize FILE SPEC
  protoquot violations FILE --impl SPEC --service SPEC
  protoquot explore FILE --service SPEC --components S1,S2,... [--max-states N]
  protoquot soak FILE --service SPEC --components S1,S2,...
            [--runs N] [--threads T] [--steps N] [--faults loss,dup,reorder,burst]
            [--seed S] [--no-shrink] [--json]
  protoquot soak --builtin colocated|symmetric|ab-nak [--mutate K] [options as above]
  protoquot serve (FILE --service SPEC --components S1,S2,... | --builtin NAME [--mutate K])
            [--addr HOST:PORT] [--loops N] [--duration SECS]
            [--stats] [--frame-budget N] [--max-sessions-per-conn N]
            [--read-deadline SECS] [--registry DIR [--control HOST:PORT]]
            [--require-hello]
  protoquot reload --control HOST:PORT --artifact PATH
  protoquot drive (FILE --service SPEC --components S1,S2,... | --builtin NAME [--mutate K])
            (--connect HOST:PORT | --loopback) [--runs N] [--threads T] [--steps N]
            [--sessions-per-conn N] [--pipeline N] [--faults loss,dup,reorder,burst]
            [--seed S] [--duration SECS] [--expect-clean] [--adversarial] [--json]
            [--no-hello]
            (each thread drives N sessions over one connection; the default
            N = 1 is lockstep, and the report is the same at any N and T)
  protoquot fuzz [FILE --service SPEC --components S1,S2,... | --builtin NAME [--mutate K]]
            [--target codec|guard|gateway|batch|artifact|all] [--seed S] [--iters N]
            [--max-len N] [--no-shrink] [--json]

FILE contains specifications in the textual language, e.g.:

  spec N0 {
    initial n0;
    n0: acc -> n1;
    n1: -D -> n2;
    n2: +A -> n0 | t_N -> n1;
  }
";

/// Executes a CLI invocation (without the program name) and returns its
/// stdout content.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return err(USAGE);
    };
    match cmd.as_str() {
        "parse" => cmd_parse(rest),
        "show" => cmd_show(rest),
        "compose" => cmd_compose(rest),
        "check" => cmd_check(rest),
        "solve" => cmd_solve(rest),
        "simulate" => cmd_simulate(rest),
        "minimize" => cmd_minimize(rest),
        "normalize" => cmd_normalize(rest),
        "violations" => cmd_violations(rest),
        "explore" => cmd_explore(rest),
        "soak" => cmd_soak(rest),
        "serve" => cmd_serve(rest),
        "reload" => cmd_reload(rest),
        "drive" => cmd_drive(rest),
        "fuzz" => cmd_fuzz(rest),
        "help" | "--help" | "-h" => Ok(USAGE.to_owned()),
        other => err(format!("unknown command `{other}`\n\n{USAGE}")),
    }
}

/// Splits `rest` into positional arguments and `--flag [value]` options.
struct Parsed {
    positional: Vec<String>,
    flags: Vec<(String, Vec<String>)>,
}

/// Which flags take a value.
const VALUED: &[&str] = &[
    "--problem",
    "--name",
    "--impl",
    "--service",
    "--int",
    "--b",
    "--components",
    "--steps",
    "--seed",
    "--loss",
    "--max-states",
    "--threads",
    "--runs",
    "--faults",
    "--builtin",
    "--mutate",
    "--emit",
    "--addr",
    "--connect",
    "--duration",
    "--loops",
    "--sessions-per-conn",
    "--frame-budget",
    "--max-sessions-per-conn",
    "--read-deadline",
    "--target",
    "--iters",
    "--max-len",
    "--pipeline",
    "--out",
    "--registry",
    "--control",
    "--artifact",
];

/// Which flags stand alone.
const BOOLEAN: &[&str] = &[
    "--dot",
    "--prune",
    "--vacuous",
    "--reachable",
    "--stats",
    "--json",
    "--no-shrink",
    "--require-hello",
    "--loopback",
    "--expect-clean",
    "--adversarial",
    "--no-hello",
];

fn parse_args(rest: &[String]) -> Result<Parsed, CliError> {
    let mut positional = Vec::new();
    let mut flags: Vec<(String, Vec<String>)> = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        let a = &rest[i];
        if let Some(flag) = a.strip_prefix("--").map(|_| a.clone()) {
            if VALUED.contains(&flag.as_str()) {
                let Some(v) = rest.get(i + 1) else {
                    return err(format!("flag {flag} needs a value"));
                };
                match flags.iter_mut().find(|(f, _)| *f == flag) {
                    Some((_, vs)) => vs.push(v.clone()),
                    None => flags.push((flag, vec![v.clone()])),
                }
                i += 2;
            } else if BOOLEAN.contains(&flag.as_str()) {
                if !flags.iter().any(|(f, _)| *f == flag) {
                    flags.push((flag, Vec::new()));
                }
                i += 1;
            } else {
                return err(format!("unknown flag {flag}"));
            }
        } else {
            positional.push(a.clone());
            i += 1;
        }
    }
    Ok(Parsed { positional, flags })
}

impl Parsed {
    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .and_then(|(_, vs)| vs.first())
            .map(String::as_str)
    }

    fn values(&self, flag: &str) -> Vec<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, vs)| vs.iter().map(String::as_str).collect())
            .unwrap_or_default()
    }
}

fn load(path: &str) -> Result<Vec<Spec>, CliError> {
    Ok(load_source(path)?.specs)
}

fn load_source(path: &str) -> Result<SourceFile, CliError> {
    let source = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read `{path}`: {e}")))?;
    parse_source(&source).map_err(|e| CliError(format!("{path}: {e}")))
}

fn find<'a>(specs: &'a [Spec], name: &str) -> Result<&'a Spec, CliError> {
    specs.iter().find(|s| s.name() == name).ok_or_else(|| {
        CliError(format!(
            "no spec named `{name}` (available: {})",
            specs.iter().map(Spec::name).collect::<Vec<_>>().join(", ")
        ))
    })
}

fn cmd_parse(rest: &[String]) -> Result<String, CliError> {
    let p = parse_args(rest)?;
    let [file] = &p.positional[..] else {
        return err("usage: protoquot parse FILE");
    };
    let specs = load(file)?;
    let mut out = String::new();
    for s in &specs {
        out.push_str(&s.summary());
        out.push('\n');
    }
    Ok(out)
}

fn cmd_show(rest: &[String]) -> Result<String, CliError> {
    let p = parse_args(rest)?;
    let [file, name] = &p.positional[..] else {
        return err("usage: protoquot show FILE SPEC [--dot]");
    };
    let specs = load(file)?;
    let s = find(&specs, name)?;
    Ok(if p.has("--dot") {
        to_dot(s)
    } else {
        to_text(s)
    })
}

fn cmd_compose(rest: &[String]) -> Result<String, CliError> {
    let p = parse_args(rest)?;
    let Some((file, names)) = p.positional.split_first() else {
        return err("usage: protoquot compose FILE SPEC... [--name NAME] [--dot]");
    };
    if names.len() < 2 {
        return err("compose needs at least two spec names");
    }
    let specs = load(file)?;
    let parts: Vec<&Spec> = names
        .iter()
        .map(|n| find(&specs, n))
        .collect::<Result<_, _>>()?;
    let composite = compose_all(&parts)
        .map_err(|e| CliError(e.to_string()))?
        .with_name(p.value("--name").unwrap_or("composite"));
    Ok(if p.has("--dot") {
        to_dot(&composite)
    } else {
        to_text(&composite)
    })
}

fn cmd_check(rest: &[String]) -> Result<String, CliError> {
    let p = parse_args(rest)?;
    let [file] = &p.positional[..] else {
        return err("usage: protoquot check FILE --impl SPEC --service SPEC");
    };
    let specs = load(file)?;
    let imp = find(
        &specs,
        p.value("--impl")
            .ok_or(CliError("--impl required".into()))?,
    )?;
    let srv = find(
        &specs,
        p.value("--service")
            .ok_or(CliError("--service required".into()))?,
    )?;
    match satisfies(imp, srv).map_err(|e| CliError(e.to_string()))? {
        Ok(()) => Ok(format!(
            "OK: `{}` satisfies `{}` (safety and progress)\n",
            imp.name(),
            srv.name()
        )),
        Err(v) => Ok(format!("FAIL: {v}\n")),
    }
}

fn cmd_solve(rest: &[String]) -> Result<String, CliError> {
    let p = parse_args(rest)?;
    // A built-in target needs no spec file: the configuration carries
    // B, the interface and the service.
    if let Some(name) = p.value("--builtin") {
        if !p.positional.is_empty() {
            return err("--builtin does not take a FILE");
        }
        let (cfg, service) = builtin_configuration(name)?;
        return solve_system(&p, cfg.b, &service, &cfg.int);
    }
    let [file] = &p.positional[..] else {
        return err(
            "usage: protoquot solve (FILE (--problem NAME | --service SPEC --int e1,e2,... \
             [--b SPEC...]) | --builtin colocated|symmetric|ab-nak)",
        );
    };
    let source = load_source(file)?;
    let specs = &source.specs;

    // A declared problem supplies service, components and interface.
    let decl = match p.value("--problem") {
        Some(name) => Some(source.problem(name).ok_or_else(|| {
            CliError(format!(
                "no problem named `{name}` (available: {})",
                source
                    .problems
                    .iter()
                    .map(|d| d.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })?),
        None => None,
    };
    let service_name = match (&decl, p.value("--service")) {
        (Some(d), None) => d.service.as_str(),
        (None, Some(s)) => s,
        (Some(_), Some(_)) => return err("give either --problem or --service, not both"),
        (None, None) => return err("--service (or --problem) required"),
    };
    let srv = find(specs, service_name)?;
    let int: Alphabet = match (&decl, p.value("--int")) {
        (Some(d), None) => d.internal.iter().map(String::as_str).collect(),
        (None, Some(v)) => v.split(',').filter(|s| !s.is_empty()).collect(),
        (Some(_), Some(_)) => return err("give either --problem or --int, not both"),
        (None, None) => return err("--int (or --problem) required"),
    };
    // The fixed components: from the problem, the --b list, or every
    // spec except the service.
    let b_names: Vec<&str> = match &decl {
        Some(d) => d.components.iter().map(String::as_str).collect(),
        None => p.values("--b"),
    };
    let parts: Vec<&Spec> = if b_names.is_empty() {
        specs.iter().filter(|s| s.name() != srv.name()).collect()
    } else {
        b_names
            .iter()
            .map(|n| find(specs, n))
            .collect::<Result<_, _>>()?
    };
    if parts.is_empty() {
        return err("no fixed components: give --b or add specs to the file");
    }
    let b = if parts.len() == 1 {
        parts[0].clone()
    } else {
        compose_all(&parts).map_err(|e| CliError(e.to_string()))?
    };
    let srv = srv.clone();
    solve_system(&p, b, &srv, &int)
}

/// The shared back half of `solve`: derives the converter for one
/// resolved quotient problem and renders/emits it per the flags.
fn solve_system(p: &Parsed, b: Spec, srv: &Spec, int: &Alphabet) -> Result<String, CliError> {
    if p.has("--threads") {
        return err("solve runs on one thread; --threads is a drive and soak option");
    }
    let options = QuotientOptions {
        include_vacuous: p.has("--vacuous"),
        strategy: if p.has("--reachable") {
            ProgressStrategy::ReachableProduct
        } else {
            ProgressStrategy::FullProduct
        },
        ..Default::default()
    };
    let mut out = String::new();
    out.push_str(&format!(
        "B = {} ({} states); service = {}; Int = {}\n",
        b.name(),
        b.num_states(),
        srv.name(),
        int
    ));
    match solve_with(&b, srv, int, &options) {
        Ok(q) => {
            let converter = if p.has("--prune") {
                prune_useless(&b, srv, &q.converter)
            } else {
                q.converter
            };
            // A deliberate bug, e.g. to exercise registry admission:
            // redirect the K-th external transition of the derived
            // converter before verification and emission.
            let converter = match p.value("--mutate") {
                Some(k) => {
                    let k: usize = k
                        .parse()
                        .map_err(|_| CliError("--mutate must be a transition index".into()))?;
                    redirect_transition(&converter, k).ok_or_else(|| {
                        CliError(format!(
                            "--mutate {k}: converter has only {} external transitions",
                            converter.num_external()
                        ))
                    })?
                }
                None => converter,
            };
            out.push_str(&format!(
                "converter derived: {} states, {} transitions \
                 (safety {} states, progress removed {} in {} iterations)\n",
                converter.num_states(),
                converter.num_external(),
                q.stats.safety_states,
                q.stats.removed_states,
                q.stats.progress_iterations
            ));
            if p.has("--stats") {
                // The wire identity the runtime will negotiate: the
                // name-sorted event table of the service alphabet.
                let tbl = EventTable::new(srv.alphabet());
                out.push_str(&format!(
                    "event table: {} events, hash {:016x}\n",
                    tbl.len(),
                    table_hash(&tbl)
                ));
                let se = &q.stats.safety_engine;
                out.push_str(&format!(
                    "safety engine: {} states, {} transitions, {} dedup hits, \
                     {} arena bytes\n",
                    se.states, se.transitions, se.dedup_hits, se.arena_bytes
                ));
                // Re-verify the emitted converter on the compiled
                // verification engine and report its counters.
                match protoquot_core::converter_verdict_with(&b, srv, &converter, 1) {
                    Ok((verdict, ve)) => {
                        let outcome = match verdict {
                            Ok(()) => "verified".to_string(),
                            Err(v) => format!("REJECTED: {v}"),
                        };
                        out.push_str(&format!(
                            "verify engine: {} states, {} transitions, {} hubs, {} pairs, \
                             {} dedup hits, {} arena bytes; {}\n",
                            ve.states,
                            ve.transitions,
                            ve.hubs,
                            ve.pairs,
                            ve.dedup_hits,
                            ve.arena_bytes,
                            outcome
                        ));
                    }
                    Err(e) => {
                        out.push_str(&format!("verify engine: setup error: {e}\n"));
                    }
                }
            }
            out.push('\n');
            match p.value("--emit") {
                Some("compiled") => {
                    // The dump is the system the guard serves, each part
                    // minimized; with `--out`, the same guard feeds the
                    // artifact's tables digest.
                    let parts = [&b, &converter];
                    let prog =
                        GuardProgram::new(&parts, srv).map_err(|e| CliError(e.to_string()))?;
                    out.push_str(&emit_compiled(prog.system())?);
                    out.push('\n');
                    if let Some(path) = p.value("--out") {
                        out.push_str(&emit_artifact(&parts, srv, &prog, path)?);
                    }
                }
                Some(other) => {
                    return err(format!(
                        "--emit: unknown format `{other}` (known: compiled)"
                    ))
                }
                None if p.value("--out").is_some() => {
                    return err("--out needs --emit compiled");
                }
                None => out.push_str(&if p.has("--json") {
                    protoquot_spec::serde_impl::to_json(&converter)
                } else if p.has("--dot") {
                    to_dot(&converter)
                } else {
                    to_text(&converter)
                }),
            }
            Ok(out)
        }
        Err(e) => {
            out.push_str(&format!("no converter: {e}\n"));
            if let protoquot_core::QuotientError::NoProgressingConverter {
                witness: Some(w), ..
            } = &e
            {
                out.push_str(&format!(
                    "first conflict: after converter trace `{}`, the service needs one \
                     of {:?} but the composite can only offer {}\n",
                    protoquot_spec::trace_string(&w.trace),
                    w.needed,
                    w.offered
                ));
            }
            Ok(out)
        }
    }
}

fn cmd_simulate(rest: &[String]) -> Result<String, CliError> {
    let p = parse_args(rest)?;
    let [file] = &p.positional[..] else {
        return err(
            "usage: protoquot simulate FILE --service SPEC --components S1,S2,... \
             [--steps N] [--seed K] [--loss COMPONENT=WEIGHT]...",
        );
    };
    let specs = load(file)?;
    let srv = find(
        &specs,
        p.value("--service")
            .ok_or(CliError("--service required".into()))?,
    )?;
    let comp_names: Vec<&str> = p
        .value("--components")
        .ok_or(CliError("--components required".into()))?
        .split(',')
        .filter(|s| !s.is_empty())
        .collect();
    let components: Vec<Spec> = comp_names
        .iter()
        .map(|n| find(&specs, n).cloned())
        .collect::<Result<_, _>>()?;
    let steps: u64 = match p.value("--steps") {
        Some(v) => v
            .parse()
            .map_err(|_| CliError("--steps must be a number".into()))?,
        None => 10_000,
    };
    let seed: u64 = match p.value("--seed") {
        Some(v) => v
            .parse()
            .map_err(|_| CliError("--seed must be a number".into()))?,
        None => 0,
    };
    let mut internal_weights = Vec::new();
    for lw in p.values("--loss") {
        let Some((name, w)) = lw.split_once('=') else {
            return err("--loss takes COMPONENT=WEIGHT");
        };
        let Some(idx) = comp_names.iter().position(|n| *n == name) else {
            return err(format!("--loss: `{name}` is not in --components"));
        };
        let w: u32 = w
            .parse()
            .map_err(|_| CliError("--loss weight must be a number".into()))?;
        internal_weights.push((idx, w));
    }
    let report = run_monitored(
        components,
        srv,
        &SimConfig {
            seed,
            max_steps: steps,
            internal_weights,
        },
    );
    let mut out = String::new();
    out.push_str(&format!("ran {} steps (seed {seed})\n", report.steps));
    for (name, count) in &report.monitored_counts {
        out.push_str(&format!("  {name}: {count}\n"));
    }
    for (i, n) in comp_names.iter().enumerate() {
        if report.internal_counts[i] > 0 {
            out.push_str(&format!(
                "  internal transitions of {n}: {}\n",
                report.internal_counts[i]
            ));
        }
    }
    if report.deadlocked {
        out.push_str("DEADLOCK: the system stopped before the step budget\n");
    }
    match &report.verdict {
        MonitorVerdict::Conforming => out.push_str("service monitor: conforming\n"),
        MonitorVerdict::SafetyViolation { position, event } => out.push_str(&format!(
            "service monitor: VIOLATION at observed event #{position} (`{event}`)\n"
        )),
    }
    Ok(out)
}

fn cmd_minimize(rest: &[String]) -> Result<String, CliError> {
    let p = parse_args(rest)?;
    let [file, name] = &p.positional[..] else {
        return err("usage: protoquot minimize FILE SPEC");
    };
    let specs = load(file)?;
    let s = find(&specs, name)?;
    let m = protoquot_spec::minimize(s);
    Ok(format!(
        "{} -> {} states\n{}",
        s.num_states(),
        m.num_states(),
        to_text(&m)
    ))
}

fn cmd_normalize(rest: &[String]) -> Result<String, CliError> {
    let p = parse_args(rest)?;
    let [file, name] = &p.positional[..] else {
        return err("usage: protoquot normalize FILE SPEC");
    };
    let specs = load(file)?;
    let s = find(&specs, name)?;
    let already = protoquot_spec::is_normal_form(s);
    let n = protoquot_spec::normalize(s);
    Ok(format!(
        "input {} in normal form; {} hubs\n{}",
        if already { "already" } else { "not" },
        n.num_hubs(),
        to_text(n.spec())
    ))
}

fn cmd_violations(rest: &[String]) -> Result<String, CliError> {
    let p = parse_args(rest)?;
    let [file] = &p.positional[..] else {
        return err("usage: protoquot violations FILE --impl SPEC --service SPEC");
    };
    let specs = load(file)?;
    let imp = find(
        &specs,
        p.value("--impl")
            .ok_or(CliError("--impl required".into()))?,
    )?;
    let srv = find(
        &specs,
        p.value("--service")
            .ok_or(CliError("--service required".into()))?,
    )?;
    if imp.alphabet() != srv.alphabet() {
        return err(format!(
            "interface mismatch: {} vs {}",
            imp.alphabet(),
            srv.alphabet()
        ));
    }
    let vs = protoquot_spec::all_minimal_violations(imp, srv);
    if vs.is_empty() {
        return Ok(format!(
            "no violations: every trace of `{}` is a trace of `{}`\n",
            imp.name(),
            srv.name()
        ));
    }
    let mut out = format!("{} minimal violation(s):\n", vs.len());
    for v in vs {
        out.push_str(&format!(
            "  `{}` (state {} enables `{}`)\n",
            protoquot_spec::trace_string(&v.trace()),
            imp.state_name(v.b_state),
            v.event
        ));
    }
    Ok(out)
}

fn cmd_explore(rest: &[String]) -> Result<String, CliError> {
    let p = parse_args(rest)?;
    let [file] = &p.positional[..] else {
        return err(
            "usage: protoquot explore FILE --service SPEC --components S1,S2,... \
             [--max-states N]",
        );
    };
    let specs = load(file)?;
    let srv = find(
        &specs,
        p.value("--service")
            .ok_or(CliError("--service required".into()))?,
    )?;
    let components: Vec<Spec> = p
        .value("--components")
        .ok_or(CliError("--components required".into()))?
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|n| find(&specs, n).cloned())
        .collect::<Result<_, _>>()?;
    let max_states: usize = match p.value("--max-states") {
        Some(v) => v
            .parse()
            .map_err(|_| CliError("--max-states must be a number".into()))?,
        None => 1_000_000,
    };
    let r = protoquot_sim::explore(components, srv, max_states);
    let mut out = format!(
        "explored {} global states ({})\n",
        r.states_visited,
        if r.complete { "complete" } else { "budget hit" }
    );
    match &r.violation {
        Some((prefix, e)) => out.push_str(&format!(
            "VIOLATION: after `{}`, event `{e}` is not allowed by the service\n",
            protoquot_spec::trace_string(prefix)
        )),
        None => out.push_str("no safety violation reachable\n"),
    }
    match &r.deadlock {
        Some(w) => out.push_str(&format!(
            "DEADLOCK reachable after `{}`\n",
            protoquot_spec::trace_string(w)
        )),
        None => out.push_str("no deadlock reachable\n"),
    }
    Ok(out)
}

/// Builds the components + service of a built-in §5 soak target:
/// `colocated` (Fig. 13/14, exactly-once), `symmetric` (Fig. 9 with the
/// §5 at-least-once weakening) or `ab-nak` (the ABP↔NAK variant,
/// exactly-once). The converter is derived on the spot; `--mutate K`
/// redirects its `K`-th external transition to seed a deliberate bug.
fn builtin_soak_system(name: &str, mutate: Option<&str>) -> Result<(Vec<Spec>, Spec), CliError> {
    let (cfg, service) = builtin_configuration(name)?;
    let q = protoquot_core::solve(&cfg.b, &service, &cfg.int)
        .map_err(|e| CliError(format!("cannot derive the {name} converter: {e}")))?;
    let mut converter = q.converter;
    if let Some(k) = mutate {
        let k: usize = k
            .parse()
            .map_err(|_| CliError("--mutate must be a transition index".into()))?;
        converter = redirect_transition(&converter, k).ok_or_else(|| {
            CliError(format!(
                "--mutate {k}: converter has only {} external transitions",
                converter.num_external()
            ))
        })?;
    }
    Ok((vec![cfg.b, converter], service))
}

/// The raw quotient configuration of one built-in §5 target: the fixed
/// components composed as `B`, the interface alphabet, and the service
/// contract.
fn builtin_configuration(
    name: &str,
) -> Result<(protoquot_protocols::paper::Configuration, Spec), CliError> {
    use protoquot_protocols::paper::{colocated_configuration, symmetric_configuration};
    use protoquot_protocols::service::{at_least_once, exactly_once};
    Ok(match name {
        "colocated" => (colocated_configuration(), exactly_once()),
        "symmetric" => (symmetric_configuration(), at_least_once()),
        "ab-nak" => (
            protoquot_protocols::nak::ab_to_nak_configuration(),
            exactly_once(),
        ),
        other => {
            return err(format!(
                "unknown builtin `{other}` (known: colocated, symmetric, ab-nak)"
            ))
        }
    })
}

/// Resolves the soak/serve/drive target system: either `--builtin NAME
/// [--mutate K]` or FILE with `--service`/`--components` (the listed
/// components must include the converter).
fn load_target(p: &Parsed, usage: &str) -> Result<(Vec<Spec>, Spec), CliError> {
    if let Some(builtin) = p.value("--builtin") {
        if !p.positional.is_empty() {
            return err("--builtin does not take a FILE");
        }
        builtin_soak_system(builtin, p.value("--mutate"))
    } else {
        let [file] = &p.positional[..] else {
            return err(usage);
        };
        let specs = load(file)?;
        let srv = find(
            &specs,
            p.value("--service")
                .ok_or(CliError("--service required".into()))?,
        )?;
        let components: Vec<Spec> = p
            .value("--components")
            .ok_or(CliError("--components required".into()))?
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|n| find(&specs, n).cloned())
            .collect::<Result<_, _>>()?;
        Ok((components, srv.clone()))
    }
}

fn cmd_soak(rest: &[String]) -> Result<String, CliError> {
    let p = parse_args(rest)?;
    let (components, service) = load_target(
        &p,
        "usage: protoquot soak (FILE --service SPEC --components S1,S2,... | \
         --builtin colocated|symmetric|ab-nak [--mutate K]) [--runs N] [--threads T] \
         [--steps N] [--faults loss,dup,reorder,burst] [--seed S] [--no-shrink] [--json]",
    )?;
    let parse_num = |flag: &str, default: u64| -> Result<u64, CliError> {
        match p.value(flag) {
            Some(v) => v
                .parse()
                .map_err(|_| CliError(format!("{flag} must be a number"))),
            None => Ok(default),
        }
    };
    let faults = FaultPlan::parse(p.value("--faults").unwrap_or(""))
        .map_err(|e| CliError(format!("--faults: {e}")))?;
    let config = FleetConfig {
        runs: parse_num("--runs", 1_000)?,
        threads: parse_num("--threads", 1)? as usize,
        seed: parse_num("--seed", 0xC0FFEE)?,
        max_steps: parse_num("--steps", 2_000)?,
        faults,
        shrink: !p.has("--no-shrink"),
        ..FleetConfig::default()
    };
    let runner = FleetRunner::new(components, service);
    // Static oracle on the compiled verification engine, so every soak
    // prints what the formalism says *before* the dynamic evidence.
    let static_line = match runner.static_verdict() {
        Ok((Ok(()), stats)) => format!("static verdict: Conforming ({stats})\n"),
        Ok((Err(v), stats)) => format!("static verdict: NON-CONFORMING: {v} ({stats})\n"),
        Err(e) => format!("static verdict: setup error: {e}\n"),
    };
    let report = runner.run(&config);
    Ok(if p.has("--json") {
        let mut json = report.to_json();
        json.push('\n');
        json
    } else {
        format!("{static_line}{report}")
    })
}

/// JSON dump of the compiled CSR automaton of `B ‖ C` the guard serves
/// (each part minimized, [`GuardProgram::new`]) over the shared
/// name-sorted event table: states, event-indexed external adjacency,
/// internal adjacency, and `τ*` rows — everything the runtime guard
/// loads, emitted so external tools can consume a derived converter
/// without re-deriving it.
fn emit_compiled(sys: &CompiledSystem) -> Result<String, CliError> {
    let (tbl, comp) = (sys.table(), sys.composite());
    let mut o = BTreeMap::new();
    o.insert(
        "event_table".into(),
        Value::Arr(tbl.events.iter().map(|e| Value::Str(e.name())).collect()),
    );
    o.insert("states".into(), Value::Int(comp.n as i128));
    o.insert("initial".into(), Value::Int(comp.initial as i128));
    o.insert(
        "transitions".into(),
        Value::Int(comp.num_transitions() as i128),
    );
    let mut ext = Vec::with_capacity(comp.n);
    let mut int = Vec::with_capacity(comp.n);
    let mut tau_rows = Vec::with_capacity(comp.n);
    for s in 0..comp.n {
        ext.push(Value::Arr(
            (comp.ext_off[s] as usize..comp.ext_off[s + 1] as usize)
                .map(|k| {
                    Value::Arr(vec![
                        Value::Int(comp.ext_ev[k] as i128),
                        Value::Int(comp.ext_tgt[k] as i128),
                    ])
                })
                .collect(),
        ));
        int.push(Value::Arr(
            (comp.int_off[s] as usize..comp.int_off[s + 1] as usize)
                .map(|k| Value::Int(comp.int_tgt[k] as i128))
                .collect(),
        ));
        let row = sys.tau_star(s as u32);
        tau_rows.push(Value::Arr(
            (0..tbl.len() as u32)
                .filter(|&i| row[(i / 64) as usize] >> (i % 64) & 1 == 1)
                .map(|i| Value::Int(i as i128))
                .collect(),
        ));
    }
    o.insert("external".into(), Value::Arr(ext));
    o.insert("internal".into(), Value::Arr(int));
    o.insert("tau_star".into(), Value::Arr(tau_rows));
    serde_json::to_string(&Value::Obj(o)).map_err(|e| CliError(e.to_string()))
}

/// Writes the binary `PQCA` artifact of the derived system to `path`
/// and returns a receipt line with the content and event-table hashes
/// — everything `protoquot reload` needs to take it live.
fn emit_artifact(
    parts: &[&Spec],
    srv: &Spec,
    prog: &GuardProgram,
    path: &str,
) -> Result<String, CliError> {
    let bytes = protoquot_runtime::artifact::encode_with_program(parts, srv, prog);
    let artifact =
        CompiledArtifact::decode(&bytes).expect("a freshly encoded artifact always decodes");
    std::fs::write(path, &bytes).map_err(|e| CliError(format!("cannot write `{path}`: {e}")))?;
    Ok(format!(
        "wrote {path}: {} bytes, content {:016x}, event table {:016x}\n",
        bytes.len(),
        artifact.content_hash,
        artifact.table_hash
    ))
}

/// The value of `flag` as a [`Duration`] in (fractional) seconds.
/// Negative, NaN and infinite values are named errors, never panics.
fn parse_secs(p: &Parsed, flag: &str) -> Result<Option<Duration>, CliError> {
    p.value(flag)
        .map(|v| {
            v.parse()
                .ok()
                .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
                .ok_or_else(|| CliError(format!("{flag} must be a non-negative number of seconds")))
        })
        .transpose()
}

fn cmd_serve(rest: &[String]) -> Result<String, CliError> {
    let p = parse_args(rest)?;
    let (components, service) = load_target(
        &p,
        "usage: protoquot serve (FILE --service SPEC --components S1,S2,... | \
         --builtin colocated|symmetric|ab-nak [--mutate K]) [--addr HOST:PORT] \
         [--loops N] [--duration SECS] [--stats] [--frame-budget N] \
         [--max-sessions-per-conn N] [--read-deadline SECS] \
         [--registry DIR [--control HOST:PORT]] [--require-hello]",
    )?;
    if p.has("--threads") {
        return err("serve answers frames on its event loops (--loops); \
                    --threads is a drive and soak option");
    }
    let frame_budget: u64 = match p.value("--frame-budget") {
        Some(v) => v
            .parse()
            .map_err(|_| CliError("--frame-budget must be a number (0 disables)".into()))?,
        None => 0,
    };
    let mut limits = ConnLimits::default();
    if let Some(v) = p.value("--max-sessions-per-conn") {
        limits.max_sessions_per_conn = v.parse().map_err(|_| {
            CliError("--max-sessions-per-conn must be a number (0 disables)".into())
        })?;
    }
    if let Some(deadline) = parse_secs(&p, "--read-deadline")? {
        limits.read_deadline = deadline;
    }
    limits.require_hello = p.has("--require-hello");
    let loops: usize = match p.value("--loops") {
        Some(v) => v
            .parse()
            .map_err(|_| CliError("--loops must be a number".into()))?,
        None => ReactorConfig::default().loops,
    };
    let duration = parse_secs(&p, "--duration")?;
    let parts: Vec<&Spec> = components.iter().collect();
    let cfg = GatewayConfig {
        session_frame_budget: frame_budget,
        ..GatewayConfig::default()
    };
    let gw = Gateway::new(&parts, &service, cfg).map_err(|e| CliError(e.to_string()))?;
    let mut out = String::new();
    // The registry + control surface: verified artifacts admitted over
    // the control socket hot-swap the serving gateway.
    let mut control = None;
    if let Some(dir) = p.value("--registry") {
        let registry = ConverterRegistry::open(dir, &service, gw.active_version())
            .map_err(|e| CliError(format!("cannot open registry `{dir}`: {e}")))?;
        if let Some(addr) = p.value("--control") {
            let c = ControlServer::bind(addr, registry, gw.clone())
                .map_err(|e| CliError(format!("cannot bind control socket {addr}: {e}")))?;
            println!("control on {}", c.local_addr());
            out.push_str(&format!("control on {}\n", c.local_addr()));
            control = Some(c);
        }
    } else if p.value("--control").is_some() {
        return err("--control needs --registry DIR");
    }
    let mut server = None;
    if let Some(addr) = p.value("--addr") {
        let cfg = ReactorConfig {
            loops,
            limits,
            ..ReactorConfig::default()
        };
        let s = ReactorServer::bind(gw.clone(), addr, cfg)
            .map_err(|e| CliError(format!("cannot bind {addr}: {e}")))?;
        let local = s.local_addr();
        // Printed immediately (not just returned) so scripts can scrape
        // the bound port before the serve loop ends.
        println!("serving on {local}");
        out.push_str(&format!("served on {local}\n"));
        server = Some(s);
    }
    let deadline = duration.map(|d| std::time::Instant::now() + d);
    let mut last_snapshot = std::time::Instant::now();
    loop {
        match deadline {
            Some(d) if std::time::Instant::now() >= d => break,
            // Without --addr there is no traffic source to wait for.
            None if server.is_none() => break,
            _ => {}
        }
        std::thread::sleep(Duration::from_millis(100));
        gw.evict_idle();
        if p.has("--stats") && last_snapshot.elapsed() >= Duration::from_secs(5) {
            println!("{}", gw.stats().to_json());
            last_snapshot = std::time::Instant::now();
        }
    }
    if let Some(mut s) = server {
        s.stop();
    }
    if let Some(c) = control {
        c.stop();
    }
    gw.drain();
    let snap = gw.stats();
    out.push_str(&format!("{snap}\n"));
    if p.has("--stats") {
        out.push_str(&snap.to_json());
        out.push('\n');
    }
    Ok(out)
}

/// The reload control surface of `protoquot serve`: a line-oriented
/// TCP listener answering `reload PATH` by running the artifact at
/// PATH through the registry's admission gate (decode, rebuild,
/// re-verify against the pinned service) and, on admission, hot-swapping
/// the serving gateway — new sessions bind the new version, existing
/// sessions drain on the old one.
///
/// Replies are a single line: `ok version N content HASH table HASH`
/// or `error: ...`. The listener serves one command per connection; a
/// line longer than [`MAX_CONTROL_LINE`] is answered with an error and
/// the connection cut, so a peer cannot grow the server's memory.
struct ControlServer {
    local: std::net::SocketAddr,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Longest control-socket command line accepted, newline included.
const MAX_CONTROL_LINE: u64 = 4096;

impl ControlServer {
    fn bind(
        addr: &str,
        mut registry: ConverterRegistry,
        gw: Gateway,
    ) -> std::io::Result<ControlServer> {
        use std::io::{BufRead, BufReader, Read, Write};
        use std::sync::atomic::{AtomicBool, Ordering};
        let listener = std::net::TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let stopped = std::sync::Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !stopped.load(Ordering::Relaxed) {
                let (stream, _) = match listener.accept() {
                    Ok(conn) => conn,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(25));
                        continue;
                    }
                    Err(_) => break,
                };
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
                let mut reader = BufReader::new(stream).take(MAX_CONTROL_LINE);
                let mut line = String::new();
                if reader.read_line(&mut line).is_err() {
                    continue;
                }
                let reply = if reader.limit() == 0 && !line.ends_with('\n') {
                    "error: control line too long".to_string()
                } else {
                    match line.trim().strip_prefix("reload ") {
                        Some(path) if !path.is_empty() => {
                            match Self::reload(&mut registry, &gw, path.trim()) {
                                Ok(msg) => msg,
                                Err(e) => format!("error: {e}"),
                            }
                        }
                        _ => "error: expected `reload PATH`".to_string(),
                    }
                };
                let mut stream = reader.into_inner().into_inner();
                let _ = writeln!(stream, "{reply}");
            }
        });
        Ok(ControlServer {
            local,
            stop,
            handle: Some(handle),
        })
    }

    /// Admission then swap; refusal at either gate leaves the old
    /// version serving untouched.
    fn reload(
        registry: &mut ConverterRegistry,
        gw: &Gateway,
        path: &str,
    ) -> Result<String, String> {
        let admitted = registry.admit_file(path).map_err(|e| e.to_string())?;
        gw.swap(admitted.version, admitted.program)
            .map_err(|e| e.to_string())?;
        Ok(format!(
            "ok version {} content {:016x} table {:016x}",
            admitted.version, admitted.content_hash, admitted.table_hash
        ))
    }

    fn local_addr(&self) -> std::net::SocketAddr {
        self.local
    }

    fn stop(mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// `protoquot reload`: asks a serving gateway's control socket to
/// admit and hot-swap the artifact at `--artifact PATH` (a path on the
/// server's filesystem, as emitted by `solve --emit compiled --out`).
fn cmd_reload(rest: &[String]) -> Result<String, CliError> {
    use std::io::{BufRead, BufReader, Write};
    let p = parse_args(rest)?;
    let usage = "usage: protoquot reload --control HOST:PORT --artifact PATH";
    let Some(addr) = p.value("--control") else {
        return err(usage);
    };
    let Some(path) = p.value("--artifact") else {
        return err(usage);
    };
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| CliError(format!("cannot reach control socket {addr}: {e}")))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| CliError(e.to_string()))?;
    writeln!(stream, "reload {path}").map_err(|e| CliError(format!("control send: {e}")))?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| CliError(format!("control read: {e}")))?;
    let line = line.trim();
    if line.starts_with("ok ") {
        Ok(format!("{line}\n"))
    } else if line.is_empty() {
        err("control socket closed without a reply")
    } else {
        err(format!("reload refused: {line}"))
    }
}

fn cmd_drive(rest: &[String]) -> Result<String, CliError> {
    let p = parse_args(rest)?;
    // The adversarial campaign attacks the wire itself — no spec needed
    // (and none consulted), so it branches before target loading.
    if p.has("--adversarial") {
        let Some(addr) = p.value("--connect") else {
            return err("--adversarial needs --connect HOST:PORT (it attacks the wire itself)");
        };
        let report = adversarial(addr, &AdversarialConfig::default())
            .map_err(|e| CliError(format!("adversarial campaign failed to run: {e}")))?;
        let out = if p.has("--json") {
            let mut json = report.to_json();
            json.push('\n');
            json
        } else {
            format!("{report}")
        };
        if p.has("--expect-clean") && !report.is_contained() {
            return err(format!(
                "drive unclean: adversarial campaign not contained \
                 (an attack was neither convicted nor evicted):\n{report}"
            ));
        }
        return Ok(out);
    }
    let (components, service) = load_target(
        &p,
        "usage: protoquot drive (FILE --service SPEC --components S1,S2,... | \
         --builtin colocated|symmetric|ab-nak [--mutate K]) (--connect HOST:PORT | \
         --loopback) [--runs N] [--threads T] [--steps N] [--sessions-per-conn N] \
         [--pipeline N] [--faults loss,dup,reorder,burst] [--seed S] [--duration SECS] \
         [--expect-clean] [--adversarial] [--json] [--no-hello]",
    )?;
    let parse_num = |flag: &str, default: u64| -> Result<u64, CliError> {
        match p.value(flag) {
            Some(v) => v
                .parse()
                .map_err(|_| CliError(format!("{flag} must be a number"))),
            None => Ok(default),
        }
    };
    let faults = FaultPlan::parse(p.value("--faults").unwrap_or(""))
        .map_err(|e| CliError(format!("--faults: {e}")))?;
    let pipeline = parse_num("--pipeline", 1)?;
    if !(1..=64).contains(&pipeline) {
        return err("--pipeline must be between 1 and 64");
    }
    let cfg = DriveConfig {
        runs: parse_num("--runs", 100)?,
        threads: parse_num("--threads", 1)? as usize,
        seed: parse_num("--seed", 0xD41E)?,
        max_steps: parse_num("--steps", 600)?,
        faults,
        duration: parse_secs(&p, "--duration")?,
        sessions_per_conn: parse_num("--sessions-per-conn", 1)?,
        pipeline,
        ..DriveConfig::default()
    };
    let report = match (p.value("--connect"), p.has("--loopback")) {
        (Some(addr), false) => {
            // Negotiate the wire identity at connection open (the
            // event-table hash is derived from the service alphabet,
            // exactly as the server derives its own); `--no-hello`
            // drives as a legacy peer instead.
            let hash =
                (!p.has("--no-hello")).then(|| table_hash(&EventTable::new(service.alphabet())));
            drive(&components, &service, &cfg, || {
                match hash {
                    Some(h) => MuxClient::connect_negotiated(addr, h),
                    None => MuxClient::connect(addr),
                }
                .map(|c| Box::new(c) as Box<dyn MuxTransport>)
            })
        }
        (None, true) => {
            let parts: Vec<&Spec> = components.iter().collect();
            let gw = Gateway::new(&parts, &service, GatewayConfig::default())
                .map_err(|e| CliError(e.to_string()))?;
            let report = drive(&components, &service, &cfg, || {
                Ok(Box::new(LoopbackMux::new(gw.clone())) as Box<dyn MuxTransport>)
            });
            gw.drain();
            report
        }
        _ => return err("give exactly one of --connect HOST:PORT or --loopback"),
    };
    let out = if p.has("--json") {
        let mut json = report.to_json();
        json.push('\n');
        json
    } else {
        format!("{report}\n")
    };
    if p.has("--expect-clean") && !report.is_clean() {
        // Convictions are verdicts against the converter; everything
        // else unclean is operational. CI keys its exit code off the
        // message prefix (see `CliError::exit_code`).
        if report.convicted_runs > 0 {
            return err(format!(
                "drive convicted: the online guard convicted {} run(s): {report}",
                report.convicted_runs
            ));
        }
        return err(format!(
            "drive unclean: {} operational reject(s) and {} transport error(s) \
             (no convictions): {report}",
            report.rejected_runs, report.io_errors
        ));
    }
    Ok(out)
}

/// `protoquot fuzz`: the deterministic fuzz engine over the codec,
/// guard, gateway, batch-dispatch, and artifact-loader targets.
/// Without a FILE or
/// `--builtin` the colocated paper system is fuzzed (the targets need
/// *a* compiled system; hostile inputs do not care which).
fn cmd_fuzz(rest: &[String]) -> Result<String, CliError> {
    let p = parse_args(rest)?;
    let (components, service) = if p.value("--builtin").is_none() && p.positional.is_empty() {
        builtin_soak_system("colocated", p.value("--mutate"))?
    } else {
        load_target(
            &p,
            "usage: protoquot fuzz [FILE --service SPEC --components S1,S2,... | \
                 --builtin colocated|symmetric|ab-nak [--mutate K]] \
                 [--target codec|guard|gateway|batch|artifact|all] [--seed S] [--iters N] \
                 [--max-len N] [--no-shrink] [--json]",
        )?
    };
    // Seeds round-trip through the report, which prints them in hex;
    // accept both `0x…` and decimal so a red report reproduces by
    // copy-paste.
    let parse_num = |flag: &str, default: u64| -> Result<u64, CliError> {
        match p.value(flag) {
            Some(v) => match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse(),
            }
            .map_err(|_| CliError(format!("{flag} must be a number"))),
            None => Ok(default),
        }
    };
    let defaults = FuzzConfig::default();
    let cfg = FuzzConfig {
        seed: parse_num("--seed", defaults.seed)?,
        iters: parse_num("--iters", defaults.iters)?,
        max_len: parse_num("--max-len", defaults.max_len as u64)? as usize,
        shrink: !p.has("--no-shrink"),
        ..defaults
    };
    let targets: Vec<FuzzTarget> = match p.value("--target").unwrap_or("all") {
        "all" => FuzzTarget::ALL.to_vec(),
        name => match FuzzTarget::parse(name) {
            Some(t) => vec![t],
            None => return err("--target must be codec, guard, gateway, batch, artifact, or all"),
        },
    };
    let parts: Vec<&Spec> = components.iter().collect();
    let started = std::time::Instant::now();
    let report = protoquot_runtime::fuzz::fuzz(&parts, &service, &targets, &cfg)
        .map_err(|e| CliError(format!("fuzz target system does not compile: {e}")))?;
    let elapsed = started.elapsed();
    let mut out = if p.has("--json") {
        let mut json = report.to_json();
        json.push('\n');
        json
    } else {
        format!("{report}\n")
    };
    if !p.has("--json") {
        // Throughput goes to the human report only — the JSON stays
        // deterministic for CI pinning.
        let total: u64 = report.executed.iter().map(|(_, n)| n).sum();
        out.push_str(&format!(
            "{total} cases in {:.2}s ({:.0} cases/s)\n",
            elapsed.as_secs_f64(),
            total as f64 / elapsed.as_secs_f64().max(1e-9),
        ));
    }
    if !report.is_clean() {
        return err(format!(
            "fuzz found {} failing case(s):\n{report}",
            report.findings.len()
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    const SOURCE: &str = "
        spec S { initial u0; u0: acc -> u1; u1: del -> u0; }
        spec B {
          initial b0;
          b0: acc -> b1;
          b1: fwd -> b2;
          b2: del -> b0;
        }
        spec Broken { initial x0; x0: acc -> x1; x1: del -> x2; x2: del -> x0; }
        problem relay {
          components B;
          service S;
          internal fwd;
        }
    ";

    /// A temp path no other test in any process shares: the test
    /// harness runs tests in parallel threads of one process, so the
    /// pid alone is not enough.
    fn temp_path(tag: &str) -> std::path::PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("protoquot-cli-{tag}-{}-{n}", std::process::id()))
    }

    fn with_file<F: FnOnce(&str) -> R, R>(f: F) -> R {
        let path = temp_path("test.pq");
        let mut file = std::fs::File::create(&path).unwrap();
        file.write_all(SOURCE.as_bytes()).unwrap();
        let r = f(path.to_str().unwrap());
        let _ = std::fs::remove_file(&path);
        r
    }

    fn run_ok(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&args).unwrap()
    }

    #[test]
    fn parse_lists_specs() {
        with_file(|path| {
            let out = run_ok(&["parse", path]);
            assert!(out.contains("S: 2 states"));
            assert!(out.contains("B: 3 states"));
            assert!(out.contains("Broken: 3 states"));
        })
    }

    #[test]
    fn show_prints_text_and_dot() {
        with_file(|path| {
            let text = run_ok(&["show", path, "S"]);
            assert!(text.contains("u0: acc -> u1"));
            let dot = run_ok(&["show", path, "S", "--dot"]);
            assert!(dot.contains("digraph"));
        })
    }

    #[test]
    fn show_unknown_spec_errors() {
        with_file(|path| {
            let args: Vec<String> = ["show", path, "Nope"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let e = run(&args).unwrap_err();
            assert!(e.to_string().contains("available: S, B, Broken"));
        })
    }

    #[test]
    fn check_reports_both_verdicts() {
        with_file(|path| {
            let bad = run_ok(&["check", path, "--impl", "Broken", "--service", "S"]);
            assert!(bad.starts_with("FAIL"), "{bad}");
            // B alone doesn't have the same interface; compose story is
            // covered by solve. Check S against itself instead.
            let ok = run_ok(&["check", path, "--impl", "S", "--service", "S"]);
            assert!(ok.starts_with("OK"), "{ok}");
        })
    }

    #[test]
    fn solve_derives_converter() {
        with_file(|path| {
            let out = run_ok(&["solve", path, "--service", "S", "--int", "fwd", "--b", "B"]);
            assert!(out.contains("converter derived"), "{out}");
            assert!(out.contains("fwd"), "{out}");
        })
    }

    #[test]
    fn solve_threads_and_stats_flags() {
        with_file(|path| {
            let one = run_ok(&["solve", path, "--problem", "relay", "--stats"]);
            assert!(one.contains("safety engine:"), "{one}");
            assert!(one.contains("verify engine:"), "{one}");
            assert!(one.contains("; verified"), "{one}");
            assert!(!one.contains("threads"), "{one}");
            for threads in ["x", "4"] {
                let args: Vec<String> = ["solve", path, "--problem", "relay", "--threads", threads]
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
                assert!(run(&args).is_err(), "solve --threads {threads}");
            }
            let args: Vec<String> = ["serve", "--builtin", "colocated", "--threads", "4"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            assert!(run(&args).is_err(), "serve --threads");
        })
    }

    #[test]
    fn solve_emits_json() {
        with_file(|path| {
            let out = run_ok(&["solve", path, "--problem", "relay", "--json"]);
            assert!(out.contains("\"external\""), "{out}");
            assert!(out.contains("\"fwd\""), "{out}");
        })
    }

    #[test]
    fn solve_by_declared_problem() {
        with_file(|path| {
            let out = run_ok(&["solve", path, "--problem", "relay"]);
            assert!(out.contains("converter derived"), "{out}");
            let args: Vec<String> = ["solve", path, "--problem", "nope"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let e = run(&args).unwrap_err();
            assert!(e.to_string().contains("available: relay"), "{e}");
            // Mixing --problem with --service is rejected.
            let args: Vec<String> = ["solve", path, "--problem", "relay", "--service", "S"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            assert!(run(&args).is_err());
        })
    }

    #[test]
    fn solve_reports_nonexistence_with_witness() {
        with_file(|path| {
            // Against Broken (which duplicates), no converter over {fwd}
            // can exist — fwd isn't even in its alphabet, so the problem
            // is malformed; use B with an empty Int instead: B alone
            // cannot progress past b1.
            let out = run_ok(&[
                "solve",
                path,
                "--service",
                "S",
                "--int",
                "fwd,unused_evt",
                "--b",
                "B",
            ]);
            // unused_evt not in B's alphabet -> BadProblem, reported.
            assert!(
                out.contains("no converter") || out.contains("malformed"),
                "{out}"
            );
        })
    }

    #[test]
    fn simulate_runs_clean() {
        with_file(|path| {
            // Close the loop: B needs a converter for fwd; simulate the
            // service spec S as a self-system instead (trivially clean).
            let out = run_ok(&[
                "simulate",
                path,
                "--service",
                "S",
                "--components",
                "S",
                "--steps",
                "100",
            ]);
            assert!(out.contains("ran 100 steps"), "{out}");
            assert!(out.contains("conforming"), "{out}");
        })
    }

    #[test]
    fn simulate_detects_violation() {
        with_file(|path| {
            let out = run_ok(&[
                "simulate",
                path,
                "--service",
                "S",
                "--components",
                "Broken",
                "--steps",
                "50",
                "--seed",
                "3",
            ]);
            assert!(out.contains("VIOLATION"), "{out}");
        })
    }

    #[test]
    fn compose_hides_shared_events() {
        with_file(|path| {
            let out = run_ok(&["compose", path, "B", "S", "--name", "closed"]);
            // B and S share acc/del -> hidden; fwd remains.
            assert!(out.contains("alphabet: {fwd}"), "{out}");
        })
    }

    #[test]
    fn minimize_and_normalize_commands() {
        with_file(|path| {
            let m = run_ok(&["minimize", path, "S"]);
            assert!(m.contains("2 -> 2 states"), "{m}");
            let n = run_ok(&["normalize", path, "S"]);
            assert!(n.contains("already in normal form"), "{n}");
            assert!(n.contains("2 hubs"), "{n}");
        })
    }

    #[test]
    fn violations_command_lists_escapes() {
        with_file(|path| {
            let out = run_ok(&["violations", path, "--impl", "Broken", "--service", "S"]);
            assert!(out.contains("minimal violation"), "{out}");
            assert!(out.contains("acc.del.del"), "{out}");
            let ok = run_ok(&["violations", path, "--impl", "S", "--service", "S"]);
            assert!(ok.contains("no violations"), "{ok}");
        })
    }

    #[test]
    fn explore_command_exhaustive() {
        with_file(|path| {
            let clean = run_ok(&["explore", path, "--service", "S", "--components", "S"]);
            assert!(clean.contains("no safety violation reachable"), "{clean}");
            assert!(clean.contains("no deadlock reachable"), "{clean}");
            let dirty = run_ok(&["explore", path, "--service", "S", "--components", "Broken"]);
            assert!(dirty.contains("VIOLATION"), "{dirty}");
        })
    }

    #[test]
    fn soak_runs_clean_on_file_system() {
        with_file(|path| {
            let out = run_ok(&[
                "soak",
                path,
                "--service",
                "S",
                "--components",
                "S",
                "--runs",
                "20",
                "--steps",
                "100",
            ]);
            assert!(out.contains("20 conforming"), "{out}");
            assert!(out.contains("overall: Conforming"), "{out}");
        })
    }

    #[test]
    fn soak_catches_broken_machine_with_counterexample() {
        with_file(|path| {
            let out = run_ok(&[
                "soak",
                path,
                "--service",
                "S",
                "--components",
                "Broken",
                "--runs",
                "10",
                "--steps",
                "100",
            ]);
            assert!(out.contains("NON-CONFORMING"), "{out}");
            assert!(out.contains("counterexample"), "{out}");
        })
    }

    #[test]
    fn soak_json_output() {
        with_file(|path| {
            let out = run_ok(&[
                "soak",
                path,
                "--service",
                "S",
                "--components",
                "S",
                "--runs",
                "5",
                "--steps",
                "50",
                "--json",
            ]);
            assert!(out.contains("\"verdict\":\"Conforming\""), "{out}");
            assert!(out.contains("\"runs\":5"), "{out}");
        })
    }

    #[test]
    fn soak_builtin_colocated_with_faults() {
        let out = run_ok(&[
            "soak",
            "--builtin",
            "colocated",
            "--runs",
            "10",
            "--steps",
            "300",
            "--faults",
            "loss,dup,reorder",
        ]);
        assert!(out.contains("static verdict: Conforming"), "{out}");
        assert!(out.contains("overall: Conforming"), "{out}");
        assert!(out.contains("faults=loss,dup,reorder"), "{out}");
    }

    #[test]
    fn soak_builtin_mutated_converter_is_caught() {
        // Scan mutation indices until one yields a converter the soak
        // flags (some redirects are behaviour-preserving).
        for k in 0..12 {
            let args: Vec<String> = [
                "soak",
                "--builtin",
                "colocated",
                "--mutate",
                &k.to_string(),
                "--runs",
                "30",
                "--steps",
                "400",
                "--faults",
                "loss,dup,reorder",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            let out = run(&args).unwrap();
            if out.contains("NON-CONFORMING") {
                return;
            }
        }
        panic!("no mutation index was caught by the soak fleet");
    }

    #[test]
    fn soak_rejects_bad_flags() {
        let args: Vec<String> = ["soak", "--builtin", "nope"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(run(&args)
            .unwrap_err()
            .to_string()
            .contains("unknown builtin"));
        let args: Vec<String> = ["soak", "--builtin", "colocated", "--faults", "cosmic"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(run(&args)
            .unwrap_err()
            .to_string()
            .contains("unknown fault"));
    }

    #[test]
    fn solve_emits_compiled_csr_json() {
        with_file(|path| {
            let out = run_ok(&["solve", path, "--problem", "relay", "--emit", "compiled"]);
            let json = out.lines().last().unwrap();
            assert!(json.contains("\"event_table\":[\"acc\",\"del\"]"), "{json}");
            assert!(json.contains("\"tau_star\""), "{json}");
            assert!(json.contains("\"external\""), "{json}");
            assert!(json.contains("\"initial\":0"), "{json}");
            let args: Vec<String> = ["solve", path, "--problem", "relay", "--emit", "nope"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            assert!(run(&args)
                .unwrap_err()
                .to_string()
                .contains("unknown format"));
        })
    }

    #[test]
    fn solve_stats_reports_event_table_hash() {
        with_file(|path| {
            let out = run_ok(&["solve", path, "--problem", "relay", "--stats"]);
            assert!(out.contains("event table: 2 events, hash "), "{out}");
        })
    }

    #[test]
    fn solve_emit_compiled_out_writes_a_loadable_artifact() {
        with_file(|path| {
            let artifact_path = temp_path("artifact.pqca");
            let artifact_path = artifact_path.to_str().unwrap().to_string();
            let out = run_ok(&[
                "solve",
                path,
                "--problem",
                "relay",
                "--emit",
                "compiled",
                "--out",
                &artifact_path,
            ]);
            // The JSON stdout is the one without `--out`; the receipt
            // line follows it.
            let plain = run_ok(&["solve", path, "--problem", "relay", "--emit", "compiled"]);
            assert!(out.starts_with(&plain), "{out}");
            assert!(out.contains("\"tau_star\""), "{out}");
            assert!(out.contains(&format!("wrote {artifact_path}:")), "{out}");
            // The file decodes, re-verifies, and carries the same wire
            // identity the stats line reports.
            let bytes = std::fs::read(&artifact_path).unwrap();
            let artifact = CompiledArtifact::decode(&bytes).expect("emitted artifact decodes");
            let (_, service, prog) = artifact.instantiate().expect("emitted artifact rebuilds");
            assert_eq!(service.name(), "S");
            assert_eq!(
                table_hash(&EventTable::new(service.alphabet())),
                artifact.table_hash
            );
            drop(prog);
            let _ = std::fs::remove_file(&artifact_path);
            // --out without --emit compiled is rejected.
            let args: Vec<String> = ["solve", path, "--problem", "relay", "--out", "/tmp/x"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            assert!(run(&args)
                .unwrap_err()
                .to_string()
                .contains("--out needs --emit compiled"));
        })
    }

    /// Negative, NaN and infinite seconds are named errors for both
    /// duration flags, never a panic in `Duration::from_secs_f64`.
    #[test]
    fn bad_durations_are_named_errors() {
        for (cmd, flag) in [
            ("serve", "--duration"),
            ("drive", "--duration"),
            ("serve", "--read-deadline"),
        ] {
            for bad in ["-1", "nan", "inf", "-inf", "soon"] {
                let args: Vec<String> = [cmd, "--builtin", "colocated", "--loopback", flag, bad]
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
                let e = run(&args).unwrap_err().to_string();
                assert_eq!(
                    e,
                    format!("{flag} must be a non-negative number of seconds"),
                    "{cmd} {flag} {bad}"
                );
            }
        }
        let p = parse_args(&["--read-deadline".into(), "0".into()]).unwrap();
        assert_eq!(
            parse_secs(&p, "--read-deadline").unwrap(),
            Some(Duration::ZERO)
        );
        let p = parse_args(&["--duration".into(), "1.5".into()]).unwrap();
        assert_eq!(
            parse_secs(&p, "--duration").unwrap(),
            Some(Duration::from_millis(1500))
        );
    }

    /// The control surface end to end: an emitted artifact admitted
    /// over the control socket swaps the gateway; a mutant artifact is
    /// refused at admission with the old version still serving; an
    /// over-long command line is refused without being buffered.
    #[test]
    fn reload_control_socket_swaps_and_refuses() {
        use std::io::{BufRead, BufReader};
        let (components, service) = builtin_soak_system("colocated", None).unwrap();
        let parts: Vec<&Spec> = components.iter().collect();
        let gw = Gateway::new(&parts, &service, GatewayConfig::default()).unwrap();
        let dir = temp_path("registry");
        let _ = std::fs::remove_dir_all(&dir);
        let registry = ConverterRegistry::open(&dir, &service, gw.active_version()).unwrap();
        let control = ControlServer::bind("127.0.0.1:0", registry, gw.clone()).unwrap();
        let addr = control.local_addr().to_string();

        // 1 MiB with no newline: answered with an error and cut.
        let conn = std::net::TcpStream::connect(&addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut writer = conn.try_clone().unwrap();
        let flood = std::thread::spawn(move || {
            // The server cuts us mid-flood; the write error is expected.
            let _ = writer.write_all(&vec![b'x'; 1 << 20]);
        });
        let mut line = String::new();
        BufReader::new(conn).read_line(&mut line).unwrap();
        assert_eq!(line, "error: control line too long\n");
        flood.join().unwrap();

        // A verified v2 artifact (same system, freshly encoded).
        let bytes = protoquot_runtime::artifact::encode(&parts, &service).unwrap();
        let good = dir.join("v2.pqca");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&good, &bytes).unwrap();
        let out = run_ok(&[
            "reload",
            "--control",
            &addr,
            "--artifact",
            good.to_str().unwrap(),
        ]);
        assert!(out.starts_with("ok version 2 "), "{out}");
        assert_eq!(gw.active_version(), 2);

        // A mutant artifact (internally consistent, fails re-verify).
        let mutant = (0..16)
            .find_map(|k| {
                let m = redirect_transition(&components[1], k)?;
                let mutated = [&components[0], &m];
                let bytes = protoquot_runtime::artifact::encode(&mutated, &service).ok()?;
                CompiledArtifact::decode(&bytes).ok()?.instantiate().ok()?;
                Some(bytes)
            })
            .expect("some mutant encodes");
        let bad = dir.join("mutant.pqca");
        std::fs::write(&bad, &mutant).unwrap();
        let args: Vec<String> = ["reload", "--control", &addr, "--artifact"]
            .iter()
            .map(|s| s.to_string())
            .chain([bad.to_str().unwrap().to_string()])
            .collect();
        let e = run(&args).unwrap_err().to_string();
        assert!(e.contains("reload refused"), "{e}");
        // The refusal left version 2 serving.
        assert_eq!(gw.active_version(), 2);

        // Garbage is a clean error too.
        let junk = dir.join("junk.pqca");
        std::fs::write(&junk, b"not an artifact").unwrap();
        let args: Vec<String> = ["reload", "--control", &addr, "--artifact"]
            .iter()
            .map(|s| s.to_string())
            .chain([junk.to_str().unwrap().to_string()])
            .collect();
        assert!(run(&args)
            .unwrap_err()
            .to_string()
            .contains("reload refused"));
        assert_eq!(gw.active_version(), 2);

        control.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drive_loopback_clean_on_correct_converter() {
        let out = run_ok(&[
            "drive",
            "--builtin",
            "colocated",
            "--loopback",
            "--runs",
            "10",
            "--steps",
            "200",
            "--expect-clean",
        ]);
        assert!(out.contains("runs 10"), "{out}");
        assert!(out.contains("convicted 0"), "{out}");
    }

    #[test]
    fn drive_loopback_convicts_a_mutated_converter() {
        // Mirrors the soak sweep: at least one single-transition mutant
        // must be convicted by the online guard over the wire.
        for k in 0..4 {
            let mutate = k.to_string();
            let out = run_ok(&[
                "drive",
                "--builtin",
                "colocated",
                "--mutate",
                &mutate,
                "--loopback",
                "--runs",
                "20",
                "--steps",
                "300",
                "--faults",
                "loss,reorder",
                "--json",
            ]);
            if !out.contains("\"convicted_runs\":0") {
                assert!(out.contains("\"convicted_runs\":"), "{out}");
                return;
            }
        }
        panic!("no mutation index was convicted by the driven gateway");
    }

    #[test]
    fn drive_pipeline_flag_does_not_change_the_report() {
        // One clean campaign at four sessions per connection, then the
        // same seed with a pipeline window: the reports must be
        // byte-identical (the flag changes the hot path, never the
        // outcome).
        let base = &[
            "drive",
            "--builtin",
            "colocated",
            "--loopback",
            "--runs",
            "8",
            "--steps",
            "200",
            "--sessions-per-conn",
            "4",
            "--expect-clean",
            "--json",
        ];
        let lockstep = run_ok(base);
        let mut piped = base.to_vec();
        piped.extend(["--pipeline", "8"]);
        assert_eq!(lockstep, run_ok(&piped), "--pipeline changed the report");
    }

    #[test]
    fn drive_pipeline_validates_depth() {
        // --pipeline works at the default one session per connection
        // and rejects absurd depths.
        let out = run_ok(&[
            "drive",
            "--builtin",
            "colocated",
            "--loopback",
            "--runs",
            "4",
            "--steps",
            "200",
            "--pipeline",
            "4",
            "--expect-clean",
        ]);
        assert!(out.contains("runs 4"), "{out}");
        let args: Vec<String> = [
            "drive",
            "--builtin",
            "colocated",
            "--loopback",
            "--pipeline",
            "0",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let e = run(&args).unwrap_err();
        assert!(e.to_string().contains("--pipeline must be"), "{e}");
    }

    #[test]
    fn drive_requires_a_transport() {
        let args: Vec<String> = ["drive", "--builtin", "colocated"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(run(&args)
            .unwrap_err()
            .to_string()
            .contains("--connect HOST:PORT or --loopback"));
    }

    #[test]
    fn serve_smoke_reports_stats() {
        // Zero duration: start, drain, report. No transport needed.
        let out = run_ok(&[
            "serve",
            "--builtin",
            "colocated",
            "--duration",
            "0",
            "--stats",
        ]);
        assert!(out.contains("sessions active=0"), "{out}");
        assert!(out.contains("\"events_per_sec\""), "{out}");
        // The determinized guard's build figures ride along in both
        // the human and JSON stats renderings.
        assert!(out.contains("guard dfa"), "{out}");
        assert!(out.contains("\"guard_build\""), "{out}");
    }

    #[test]
    fn serve_and_drive_over_tcp() {
        // End-to-end: a served gateway on an OS-assigned port, driven
        // over real sockets by the fleet replayer.
        let (components, service) = builtin_soak_system("colocated", None).unwrap();
        let parts: Vec<&Spec> = components.iter().collect();
        let gw = Gateway::new(&parts, &service, GatewayConfig::default()).unwrap();
        let mut server =
            ReactorServer::bind(gw.clone(), "127.0.0.1:0", ReactorConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        let out = run_ok(&[
            "drive",
            "--builtin",
            "colocated",
            "--connect",
            &addr,
            "--runs",
            "5",
            "--steps",
            "200",
            "--threads",
            "2",
            "--expect-clean",
        ]);
        assert!(out.contains("runs 5"), "{out}");
        server.stop();
        gw.drain();
        let snap = gw.stats();
        assert!(snap.accepted > 0, "no frames reached the served gateway");
        assert_eq!(snap.convictions, 0);
    }

    #[test]
    fn serve_reactor_and_drive_multiplexed_over_tcp() {
        // End-to-end over the readiness transport: a reactor-served
        // gateway, driven by multiplexed sessions over one socket per
        // thread. The report must equal the default one-session-per-
        // connection (lockstep) campaign's.
        let (components, service) = builtin_soak_system("colocated", None).unwrap();
        let parts: Vec<&Spec> = components.iter().collect();
        let gw = Gateway::new(&parts, &service, GatewayConfig::default()).unwrap();
        let mut server =
            ReactorServer::bind(gw.clone(), "127.0.0.1:0", ReactorConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        let mux_out = run_ok(&[
            "drive",
            "--builtin",
            "colocated",
            "--connect",
            &addr,
            "--runs",
            "8",
            "--steps",
            "200",
            "--sessions-per-conn",
            "4",
            "--expect-clean",
            "--json",
        ]);
        // Closed sessions are tombstoned until idle eviction, so the
        // lockstep control campaign (same run indices = same session
        // ids) needs a fresh gateway.
        let gw2 = Gateway::new(&parts, &service, GatewayConfig::default()).unwrap();
        let mut server2 =
            ReactorServer::bind(gw2.clone(), "127.0.0.1:0", ReactorConfig::default()).unwrap();
        let addr2 = server2.local_addr().to_string();
        let lockstep_out = run_ok(&[
            "drive",
            "--builtin",
            "colocated",
            "--connect",
            &addr2,
            "--runs",
            "8",
            "--steps",
            "200",
            "--expect-clean",
            "--json",
        ]);
        assert_eq!(
            mux_out, lockstep_out,
            "multiplexed and lockstep campaigns diverged over the reactor"
        );
        server.stop();
        server2.stop();
        gw.drain();
        gw2.drain();
        let snap = gw.stats();
        assert!(snap.accepted > 0, "no frames reached the served gateway");
        assert_eq!(snap.convictions, 0);
        assert!(
            snap.connections_opened >= 1 && snap.connections_opened == snap.connections_closed,
            "connection accounting is off: {snap}"
        );
    }

    #[test]
    fn unknown_flags_are_named_errors() {
        for args in [
            &["serve", "--builtin", "colocated", "--transport", "blocking"][..],
            &[
                "serve",
                "--builtin",
                "colocated",
                "--duration",
                "0",
                "--no-batch",
            ],
            &[
                "drive",
                "--builtin",
                "colocated",
                "--loopback",
                "--no-batch",
            ],
        ] {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let e = run(&args).unwrap_err().to_string();
            assert!(e.starts_with("unknown flag --"), "{args:?}: {e}");
        }
    }

    #[test]
    fn usage_and_unknown_command() {
        let e = run(&["bogus".to_owned()]).unwrap_err();
        assert!(e.to_string().contains("unknown command"));
        let help = run(&["help".to_owned()]).unwrap();
        assert!(help.contains("usage:"));
        assert!(run(&[]).is_err());
    }

    #[test]
    fn flag_value_missing_is_error() {
        with_file(|path| {
            let args: Vec<String> = ["check", path, "--impl"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let e = run(&args).unwrap_err();
            assert!(e.to_string().contains("needs a value"));
        })
    }

    #[test]
    fn loss_flag_validation() {
        with_file(|path| {
            let args: Vec<String> = [
                "simulate",
                path,
                "--service",
                "S",
                "--components",
                "S",
                "--loss",
                "Nope=3",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            let e = run(&args).unwrap_err();
            assert!(e.to_string().contains("not in --components"));
        })
    }
}
