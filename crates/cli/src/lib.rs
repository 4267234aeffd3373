//! # protoquot-cli
//!
//! A command-line front end for the protocol-converter toolkit: author
//! machines in the textual language (see `protoquot-speclang`), then
//! compose, check, derive and simulate from the shell. `protoquot help`
//! prints every command's usage; that usage text is also the only
//! declaration of the flags each command accepts.
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
    RunParams, SimConfig,
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

/// A command handler, given the arguments its usage admits.
type Handler = fn(&Parsed) -> Result<String, CliError>;

/// Every command as `(usage, handler)`, in `help` order. The usage is
/// what `help` prints and what a misuse error shows, and it is the
/// command's flag declaration (see `flags`).
const COMMANDS: &[(&str, Handler)] = &[
    ("protoquot parse FILE", cmd_parse),
    ("protoquot show FILE SPEC [--dot]", cmd_show),
    (
        "protoquot compose FILE SPEC... [--name NAME] [--dot]",
        cmd_compose,
    ),
    ("protoquot check FILE --impl SPEC --service SPEC", cmd_check),
    (
        "protoquot solve FILE --service SPEC --int e1,e2,... [--b SPEC...]
            [--dot] [--json] [--prune] [--vacuous] [--reachable] [--stats]
            [--emit compiled [--out PATH]]
  protoquot solve FILE --problem NAME [--dot] [--json] [--prune] [--vacuous] [--reachable]
            [--stats] [--emit compiled [--out PATH]]
  protoquot solve --builtin colocated|symmetric|ab-nak [--mutate K] [options as above]",
        cmd_solve,
    ),
    (
        "protoquot simulate FILE --service SPEC --components S1,S2,...
            [--steps N] [--seed K] [--loss COMPONENT=WEIGHT]...",
        cmd_simulate,
    ),
    ("protoquot minimize FILE SPEC", cmd_minimize),
    ("protoquot normalize FILE SPEC", cmd_normalize),
    (
        "protoquot violations FILE --impl SPEC --service SPEC",
        cmd_violations,
    ),
    (
        "protoquot explore FILE --service SPEC --components S1,S2,... [--max-states N]",
        cmd_explore,
    ),
    (
        "protoquot soak FILE --service SPEC --components S1,S2,...
            [--runs N] [--threads T] [--steps N] [--faults loss,dup,reorder,burst]
            [--seed S] [--no-shrink] [--json]
  protoquot soak --builtin colocated|symmetric|ab-nak [--mutate K] [options as above]",
        cmd_soak,
    ),
    (
        "protoquot serve (FILE --service SPEC --components S1,S2,... | --builtin NAME [--mutate K])
            [--addr HOST:PORT] [--loops N] [--duration SECS]
            [--stats] [--frame-budget N] [--max-sessions-per-conn N]
            [--read-deadline SECS] [--registry DIR [--control HOST:PORT]]
            [--require-hello]",
        cmd_serve,
    ),
    (
        "protoquot reload --control HOST:PORT --artifact PATH",
        cmd_reload,
    ),
    (
        "protoquot drive (FILE --service SPEC --components S1,S2,... | --builtin NAME [--mutate K])
            (--connect HOST:PORT | --loopback) [--runs N] [--threads T] [--steps N]
            [--sessions-per-conn N] [--faults loss,dup,reorder,burst]
            [--seed S] [--duration SECS] [--expect-clean] [--adversarial] [--json]
            [--no-hello]
            (each thread drives N sessions over one connection; the default
            N = 1 is lockstep, and the report is the same at any N and T)",
        cmd_drive,
    ),
    (
        "protoquot fuzz [FILE --service SPEC --components S1,S2,... | --builtin NAME [--mutate K]]
            [--target codec|guard|gateway|batch|artifact|all] [--seed S] [--iters N]
            [--max-len N] [--no-shrink] [--json]",
        cmd_fuzz,
    ),
];

/// A command's name: the second word of its usage.
fn name(usage: &str) -> &str {
    usage.split_whitespace().nth(1).unwrap_or_default()
}

/// Every flag `usage` declares, with whether it takes a value: a flag
/// followed by a placeholder (`--seed S`) does, a bracketed one alone
/// (`[--json]`) does not.
fn flags(usage: &'static str) -> Vec<(&'static str, bool)> {
    let words: Vec<&'static str> = usage.split_whitespace().collect();
    let mut flags = Vec::new();
    for (i, word) in words.iter().enumerate() {
        let word = word.trim_start_matches(['[', '(']);
        let flag = word.trim_end_matches([']', ')']);
        if flag.starts_with("--") {
            let placeholder = words
                .get(i + 1)
                .filter(|w| !w.starts_with(['[', '(', '|', '-']));
            flags.push((flag, flag == word && placeholder.is_some()));
        }
    }
    flags
}

/// Top-level usage text: every command's usage, then a sample spec.
pub fn usage() -> String {
    let mut out = String::from(
        "protoquot — derive protocol converters (Calvert & Lam, SIGCOMM '89)\n\nusage:\n",
    );
    for (usage, _) in COMMANDS {
        out.push_str(&format!("  {usage}\n"));
    }
    out.push_str(
        "
FILE contains specifications in the textual language, e.g.:

  spec N0 {
    initial n0;
    n0: acc -> n1;
    n1: -D -> n2;
    n2: +A -> n0 | t_N -> n1;
  }
",
    );
    out
}

/// Executes a CLI invocation (without the program name) and returns its
/// stdout content.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return err(usage());
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        return Ok(usage());
    }
    let Some(&(usage, handler)) = COMMANDS.iter().find(|(u, _)| name(u) == cmd) else {
        return err(format!("unknown command `{cmd}`\n\n{}", self::usage()));
    };
    let p = parse_args(rest)?;
    // A flag only another command declares is refused, not ignored.
    let declared = flags(usage);
    if let Some((flag, _)) = p
        .flags
        .iter()
        .find(|(f, _)| !declared.iter().any(|(d, _)| d == f))
    {
        return err(format!("unknown flag {flag} for `{cmd}`\n\nusage: {usage}"));
    }
    handler(&Parsed { usage, ..p })
}

/// One command's arguments: positionals and `--flag [value]` options.
struct Parsed {
    /// The usage of the command they were given to.
    usage: &'static str,
    positional: Vec<String>,
    flags: Vec<(String, Vec<String>)>,
}

/// Splits `rest` into positional arguments and `--flag [value]` options.
/// A flag takes a value when the usage declaring it gives one; a flag
/// no command declares is an error.
fn parse_args(rest: &[String]) -> Result<Parsed, CliError> {
    let mut p = Parsed {
        usage: "",
        positional: Vec::new(),
        flags: Vec::new(),
    };
    let mut args = rest.iter();
    while let Some(a) = args.next() {
        if !a.starts_with("--") {
            p.positional.push(a.clone());
            continue;
        }
        let Some((_, valued)) = COMMANDS
            .iter()
            .flat_map(|(usage, _)| flags(usage))
            .find(|(f, _)| f == a)
        else {
            return err(format!("unknown flag {a}"));
        };
        let value = if valued {
            let v = args
                .next()
                .ok_or_else(|| CliError(format!("flag {a} needs a value")))?;
            Some(v.clone())
        } else {
            None
        };
        match p.flags.iter_mut().find(|(f, _)| f == a) {
            Some((_, vs)) => vs.extend(value),
            None => p.flags.push((a.clone(), value.into_iter().collect())),
        }
    }
    Ok(p)
}

impl Parsed {
    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.values(flag).first().copied()
    }

    fn values(&self, flag: &str) -> Vec<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, vs)| vs.iter().map(String::as_str).collect())
            .unwrap_or_default()
    }

    /// The error for positional arguments the command cannot take.
    fn misuse<T>(&self) -> Result<T, CliError> {
        err(format!("usage: {}", self.usage))
    }

    /// The integer value of `flag`, if given. Reports print seeds in
    /// hex, so `0x…` is accepted beside decimal: a seed reproduces by
    /// copy-paste.
    fn num<T: TryFrom<u64>>(&self, flag: &str) -> Result<Option<T>, CliError> {
        self.value(flag)
            .map(|v| parse_num(v).ok_or_else(|| CliError(format!("{flag} must be a number"))))
            .transpose()
    }

    /// The spec a required `--service` or `--impl` flag names.
    fn spec<'a>(&self, specs: &'a [Spec], flag: &str) -> Result<&'a Spec, CliError> {
        let name = self
            .value(flag)
            .ok_or_else(|| CliError(format!("{flag} required")))?;
        find(specs, name)
    }

    /// The specs the required `--components S1,S2,...` list names.
    fn components(&self, specs: &[Spec]) -> Result<Vec<Spec>, CliError> {
        self.value("--components")
            .ok_or(CliError("--components required".into()))?
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|n| find(specs, n).cloned())
            .collect()
    }

    /// A report as `--json` asks for it: its JSON plus a newline, or else
    /// `text`.
    fn render(&self, json: impl FnOnce() -> String, text: impl FnOnce() -> String) -> String {
        if self.has("--json") {
            json() + "\n"
        } else {
            text()
        }
    }
}

/// An unsigned integer in decimal or `0x…` hex, if it fits `T`.
fn parse_num<T: TryFrom<u64>>(v: &str) -> Option<T> {
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    }
    .ok()?
    .try_into()
    .ok()
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

fn cmd_parse(p: &Parsed) -> Result<String, CliError> {
    let [file] = &p.positional[..] else {
        return p.misuse();
    };
    let specs = load(file)?;
    let mut out = String::new();
    for s in &specs {
        out.push_str(&s.summary());
        out.push('\n');
    }
    Ok(out)
}

fn cmd_show(p: &Parsed) -> Result<String, CliError> {
    let [file, name] = &p.positional[..] else {
        return p.misuse();
    };
    let specs = load(file)?;
    let s = find(&specs, name)?;
    Ok(if p.has("--dot") {
        to_dot(s)
    } else {
        to_text(s)
    })
}

fn cmd_compose(p: &Parsed) -> Result<String, CliError> {
    let Some((file, names)) = p.positional.split_first() else {
        return p.misuse();
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

fn cmd_check(p: &Parsed) -> Result<String, CliError> {
    let [file] = &p.positional[..] else {
        return p.misuse();
    };
    let specs = load(file)?;
    let imp = p.spec(&specs, "--impl")?;
    let srv = p.spec(&specs, "--service")?;
    match satisfies(imp, srv).map_err(|e| CliError(e.to_string()))? {
        Ok(()) => Ok(format!(
            "OK: `{}` satisfies `{}` (safety and progress)\n",
            imp.name(),
            srv.name()
        )),
        Err(v) => Ok(format!("FAIL: {v}\n")),
    }
}

fn cmd_solve(p: &Parsed) -> Result<String, CliError> {
    // A built-in target needs no spec file: the configuration carries
    // B, the interface and the service.
    if let Some(name) = p.value("--builtin") {
        builtin_only(p, &["--problem", "--service", "--int", "--b"])?;
        let (cfg, service) = builtin_configuration(name)?;
        return solve_system(p, &[&cfg.b], &service, &cfg.int);
    }
    let [file] = &p.positional[..] else {
        return p.misuse();
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
    solve_system(p, &parts, srv, &int)
}

/// The shared back half of `solve`: derives the converter for one
/// resolved quotient problem over its fixed `parts` and renders/emits
/// it per the flags. `--emit compiled` serves and ships the parts as
/// given plus the converter, `[parts…, C]`.
fn solve_system(
    p: &Parsed,
    parts: &[&Spec],
    srv: &Spec,
    int: &Alphabet,
) -> Result<String, CliError> {
    // Both output flags are checked before solving, so a bad one fails
    // whether or not a converter exists.
    let emit = match p.value("--emit") {
        Some("compiled") => true,
        Some(other) => {
            return err(format!(
                "--emit: unknown format `{other}` (known: compiled)"
            ))
        }
        None if p.value("--out").is_some() => return err("--out needs --emit compiled"),
        None => false,
    };
    let b = compose_all(parts).map_err(|e| CliError(e.to_string()))?;
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
            // Mutated before verification and emission, e.g. to
            // exercise registry admission.
            let converter = mutate(converter, p.num("--mutate")?)?;
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
            if emit {
                // The dump is the system the guard serves, each part
                // minimized; with `--out`, the same guard feeds the
                // artifact's tables digest.
                let system: Vec<&Spec> = parts.iter().copied().chain([&converter]).collect();
                let prog = GuardProgram::new(&system, srv).map_err(|e| CliError(e.to_string()))?;
                out.push_str(&emit_compiled(prog.system())?);
                out.push('\n');
                if let Some(path) = p.value("--out") {
                    out.push_str(&emit_artifact(&system, srv, &prog, path)?);
                }
            } else {
                out.push_str(&if p.has("--json") {
                    protoquot_spec::serde_impl::to_json(&converter)
                } else if p.has("--dot") {
                    to_dot(&converter)
                } else {
                    to_text(&converter)
                });
            }
            Ok(out)
        }
        Err(e) => {
            if let Some(path) = p.value("--out") {
                let problem = p
                    .value("--problem")
                    .or(p.value("--builtin"))
                    .unwrap_or(srv.name());
                return err(format!(
                    "no converter for `{problem}`: {e}; nothing written to `{path}`"
                ));
            }
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

fn cmd_simulate(p: &Parsed) -> Result<String, CliError> {
    let [file] = &p.positional[..] else {
        return p.misuse();
    };
    let specs = load(file)?;
    let srv = p.spec(&specs, "--service")?;
    let components = p.components(&specs)?;
    let names: Vec<String> = components.iter().map(|c| c.name().to_owned()).collect();
    let steps = p.num("--steps")?.unwrap_or(10_000);
    let seed = p.num("--seed")?.unwrap_or(0);
    let mut internal_weights = Vec::new();
    for lw in p.values("--loss") {
        let Some((name, w)) = lw.split_once('=') else {
            return err("--loss takes COMPONENT=WEIGHT");
        };
        let Some(idx) = names.iter().position(|n| n == name) else {
            return err(format!("--loss: `{name}` is not in --components"));
        };
        let w = parse_num(w).ok_or(CliError("--loss weight must be a number".into()))?;
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
    for (i, n) in names.iter().enumerate() {
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

fn cmd_minimize(p: &Parsed) -> Result<String, CliError> {
    let [file, name] = &p.positional[..] else {
        return p.misuse();
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

fn cmd_normalize(p: &Parsed) -> Result<String, CliError> {
    let [file, name] = &p.positional[..] else {
        return p.misuse();
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

fn cmd_violations(p: &Parsed) -> Result<String, CliError> {
    let [file] = &p.positional[..] else {
        return p.misuse();
    };
    let specs = load(file)?;
    let imp = p.spec(&specs, "--impl")?;
    let srv = p.spec(&specs, "--service")?;
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

fn cmd_explore(p: &Parsed) -> Result<String, CliError> {
    let [file] = &p.positional[..] else {
        return p.misuse();
    };
    let specs = load(file)?;
    let srv = p.spec(&specs, "--service")?;
    let components = p.components(&specs)?;
    let max_states = p.num("--max-states")?.unwrap_or(1_000_000);
    let r = protoquot_sim::explore(components, srv, max_states);
    let mut out = format!(
        "explored {} global states ({})\n",
        r.states_visited,
        if r.complete { "complete" } else { "budget hit" }
    );
    // A search the budget cut short proves nothing beyond what it saw.
    let none = |what: &str| {
        if r.complete {
            format!("no {what} reachable\n")
        } else {
            format!("no {what} found within {} states\n", r.states_visited)
        }
    };
    match &r.violation {
        Some((prefix, e)) => out.push_str(&format!(
            "VIOLATION: after `{}`, event `{e}` is not allowed by the service\n",
            protoquot_spec::trace_string(prefix)
        )),
        None => out.push_str(&none("safety violation")),
    }
    match &r.deadlock {
        Some(w) => out.push_str(&format!(
            "DEADLOCK reachable after `{}`\n",
            protoquot_spec::trace_string(w)
        )),
        None => out.push_str(&none("deadlock")),
    }
    Ok(out)
}

/// `--mutate K`: redirects the converter's `K`-th external transition,
/// a deliberate bug for the conviction and admission paths to catch.
fn mutate(converter: Spec, k: Option<usize>) -> Result<Spec, CliError> {
    let Some(k) = k else {
        return Ok(converter);
    };
    redirect_transition(&converter, k).ok_or_else(|| {
        CliError(format!(
            "--mutate {k}: converter has only {} external transitions",
            converter.num_external()
        ))
    })
}

/// Builds the components + service of a built-in §5 soak target:
/// `colocated` (Fig. 13/14, exactly-once), `symmetric` (Fig. 9 with the
/// §5 at-least-once weakening) or `ab-nak` (the ABP↔NAK variant,
/// exactly-once). The converter is derived on the spot; `k` is its
/// `--mutate`.
fn builtin_soak_system(name: &str, k: Option<usize>) -> Result<(Vec<Spec>, Spec), CliError> {
    let (cfg, service) = builtin_configuration(name)?;
    let q = protoquot_core::solve(&cfg.b, &service, &cfg.int)
        .map_err(|e| CliError(format!("cannot derive the {name} converter: {e}")))?;
    Ok((vec![cfg.b, mutate(q.converter, k)?], service))
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

/// Resolves the soak/serve/drive/fuzz target system: either `--builtin
/// NAME [--mutate K]` or FILE with `--service`/`--components` (the
/// listed components must include the converter).
fn load_target(p: &Parsed) -> Result<(Vec<Spec>, Spec), CliError> {
    if let Some(builtin) = p.value("--builtin") {
        builtin_only(p, &["--service", "--components"])?;
        builtin_soak_system(builtin, p.num("--mutate")?)
    } else {
        let [file] = &p.positional[..] else {
            return p.misuse();
        };
        if p.has("--mutate") {
            return err("--mutate needs --builtin");
        }
        let specs = load(file)?;
        let srv = p.spec(&specs, "--service")?.clone();
        Ok((p.components(&specs)?, srv))
    }
}

/// `--builtin` names the whole system, so a FILE or any of the
/// `file_flags` that pick parts from one is refused, not ignored.
fn builtin_only(p: &Parsed, file_flags: &[&str]) -> Result<(), CliError> {
    if !p.positional.is_empty() {
        return err("--builtin does not take a FILE");
    }
    match file_flags.iter().find(|f| p.has(f)) {
        Some(f) => err(format!("--builtin does not take {f}")),
        None => Ok(()),
    }
}

/// The `--faults`, `--seed` and `--steps` of soak and drive, over the
/// command's own `defaults`.
fn run_params(p: &Parsed, defaults: RunParams) -> Result<RunParams, CliError> {
    let faults = FaultPlan::parse(p.value("--faults").unwrap_or(""))
        .map_err(|e| CliError(format!("--faults: {e}")))?;
    Ok(RunParams {
        faults,
        seed: p.num("--seed")?.unwrap_or(defaults.seed),
        max_steps: p.num("--steps")?.unwrap_or(defaults.max_steps),
        ..defaults
    })
}

fn cmd_soak(p: &Parsed) -> Result<String, CliError> {
    let (components, service) = load_target(p)?;
    let defaults = FleetConfig::default();
    let config = FleetConfig {
        runs: p.num("--runs")?.unwrap_or(defaults.runs),
        threads: p.num("--threads")?.unwrap_or(defaults.threads),
        params: run_params(p, defaults.params)?,
        shrink: !p.has("--no-shrink"),
        ..defaults
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
    Ok(p.render(|| report.to_json(), || format!("{static_line}{report}")))
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

fn cmd_serve(p: &Parsed) -> Result<String, CliError> {
    let (components, service) = load_target(p)?;
    let frame_budget = p.num("--frame-budget")?.unwrap_or(0);
    let defaults = ConnLimits::default();
    let limits = ConnLimits {
        max_sessions_per_conn: p
            .num("--max-sessions-per-conn")?
            .unwrap_or(defaults.max_sessions_per_conn),
        read_deadline: parse_secs(p, "--read-deadline")?.unwrap_or(defaults.read_deadline),
        require_hello: p.has("--require-hello"),
    };
    let loops = p.num("--loops")?.unwrap_or(ReactorConfig::default().loops);
    let duration = parse_secs(p, "--duration")?;
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
                // One write: a reply split over two could lose its
                // tail to the reset that closing an unread flood sends.
                let _ = stream.write_all(format!("{reply}\n").as_bytes());
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
fn cmd_reload(p: &Parsed) -> Result<String, CliError> {
    use std::io::{BufRead, BufReader, Write};
    let (true, Some(addr), Some(path)) = (
        p.positional.is_empty(),
        p.value("--control"),
        p.value("--artifact"),
    ) else {
        return p.misuse();
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

fn cmd_drive(p: &Parsed) -> Result<String, CliError> {
    // The adversarial campaign attacks the wire itself — no spec needed
    // (and none consulted), so it branches before target loading.
    if p.has("--adversarial") {
        if !p.positional.is_empty() {
            return p.misuse();
        }
        let reads = ["--adversarial", "--connect", "--expect-clean", "--json"];
        if let Some((flag, _)) = p.flags.iter().find(|(f, _)| !reads.contains(&f.as_str())) {
            return err(format!("--adversarial does not take {flag}"));
        }
        let Some(addr) = p.value("--connect") else {
            return err("--adversarial needs --connect HOST:PORT (it attacks the wire itself)");
        };
        let report = adversarial(addr, &AdversarialConfig::default())
            .map_err(|e| CliError(format!("adversarial campaign failed to run: {e}")))?;
        if p.has("--expect-clean") && !report.is_contained() {
            return err(format!(
                "drive unclean: adversarial campaign not contained \
                 (an attack was neither convicted nor evicted):\n{report}"
            ));
        }
        return Ok(p.render(|| report.to_json(), || format!("{report}")));
    }
    let (components, service) = load_target(p)?;
    let defaults = DriveConfig::default();
    let cfg = DriveConfig {
        runs: p.num("--runs")?.unwrap_or(defaults.runs),
        threads: p.num("--threads")?.unwrap_or(defaults.threads),
        params: run_params(p, defaults.params)?,
        duration: parse_secs(p, "--duration")?,
        sessions_per_conn: p
            .num("--sessions-per-conn")?
            .unwrap_or(defaults.sessions_per_conn),
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
    Ok(p.render(|| report.to_json(), || format!("{report}\n")))
}

/// `protoquot fuzz`: the deterministic fuzz engine over the codec,
/// guard, gateway, batch-dispatch, and artifact-loader targets.
/// Without a FILE or
/// `--builtin` the colocated paper system is fuzzed (the targets need
/// *a* compiled system; hostile inputs do not care which).
fn cmd_fuzz(p: &Parsed) -> Result<String, CliError> {
    let (components, service) = if p.value("--builtin").is_none()
        && p.positional.is_empty()
        && !p.has("--service")
        && !p.has("--components")
    {
        builtin_soak_system("colocated", p.num("--mutate")?)?
    } else {
        load_target(p)?
    };
    let defaults = FuzzConfig::default();
    let cfg = FuzzConfig {
        seed: p.num("--seed")?.unwrap_or(defaults.seed),
        iters: p.num("--iters")?.unwrap_or(defaults.iters),
        max_len: p.num("--max-len")?.unwrap_or(defaults.max_len),
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
    if !report.is_clean() {
        return err(format!(
            "fuzz found {} failing case(s):\n{report}",
            report.findings.len()
        ));
    }
    // Throughput goes to the human report only — the JSON stays
    // deterministic for CI pinning.
    Ok(p.render(
        || report.to_json(),
        || {
            let total: u64 = report.executed.iter().map(|(_, n)| n).sum();
            format!(
                "{report}\n{total} cases in {:.2}s ({:.0} cases/s)\n",
                elapsed.as_secs_f64(),
                total as f64 / elapsed.as_secs_f64().max(1e-9),
            )
        },
    ))
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

    const PAPER: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/paper.pq");

    /// `--emit` and `--out` are checked before solving, so a bad flag
    /// fails on fig9 (no converter) as it does on a solvable problem,
    /// and asking for an artifact that cannot exist writes nothing.
    #[test]
    fn solve_checks_output_flags_when_no_converter_exists() {
        let out = temp_path("fig9.pqca");
        let out = out.to_str().unwrap();
        let nothing_written = format!("nothing written to `{out}`");
        for (flags, expect) in [
            (&["--emit", "nope"][..], vec!["unknown format `nope`"]),
            (&["--out", out][..], vec!["--out needs --emit compiled"]),
            (
                &["--emit", "compiled", "--out", out][..],
                vec!["no converter for `fig9`", &nothing_written],
            ),
        ] {
            let args: Vec<String> = ["solve", PAPER, "--problem", "fig9"]
                .iter()
                .chain(flags)
                .map(|s| s.to_string())
                .collect();
            let e = run(&args).unwrap_err().to_string();
            for part in expect {
                assert!(e.contains(part), "{flags:?}: {e}");
            }
        }
        assert!(!std::path::Path::new(out).exists());
    }

    /// A FILE-derived artifact ships the problem's parts as written,
    /// then the converter.
    #[test]
    fn solve_out_ships_the_parts_as_written() {
        let path = temp_path("fig13.pqca");
        let path = path.to_str().unwrap();
        run_ok(&[
            "solve",
            PAPER,
            "--problem",
            "fig13",
            "--emit",
            "compiled",
            "--out",
            path,
        ]);
        let artifact = CompiledArtifact::decode(&std::fs::read(path).unwrap()).unwrap();
        let _ = std::fs::remove_file(path);
        let names: Vec<&str> = artifact.parts.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names[..3], ["A0", "Ach", "N1"]);
        assert_eq!(names.len(), 4);
        artifact.instantiate().expect("the parts artifact rebuilds");
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
        // A switch each command declares: only drive takes --loopback.
        for (cmd, switch, flag) in [
            ("serve", "--stats", "--duration"),
            ("drive", "--loopback", "--duration"),
            ("serve", "--stats", "--read-deadline"),
        ] {
            for bad in ["-1", "nan", "inf", "-inf", "soon"] {
                let args: Vec<String> = [cmd, "--builtin", "colocated", switch, flag, bad]
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
        // The lockstep control campaign reuses the run indices as
        // session ids on the same server: ids are scoped to their
        // connection, and the first campaign's connections are gone.
        let lockstep_out = run_ok(&[
            "drive",
            "--builtin",
            "colocated",
            "--connect",
            &addr,
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
        gw.drain();
        let snap = gw.stats();
        assert!(snap.accepted > 0, "no frames reached the served gateway");
        assert_eq!(snap.convictions, 0);
        assert!(
            snap.connections_opened >= 2 && snap.connections_opened == snap.connections_closed,
            "connection accounting is off: {snap}"
        );
        assert_eq!(
            snap.sessions_active, 0,
            "sessions outlived their connections"
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

    /// A search the state budget cut short claims nothing about the
    /// states it never reached.
    #[test]
    fn explore_budget_hit_claims_only_what_it_searched() {
        let path = temp_path("stuck.pq");
        std::fs::write(
            &path,
            "spec S { initial u0; u0: acc -> u1; u1: del -> u0; }
             spec R { initial r0; r0: acc -> r1; r1: del -> r2; r2: acc -> r3;
                      r3: del -> r4; r4: acc -> r5; }",
        )
        .unwrap();
        let path = path.to_str().unwrap();
        let full = run_ok(&["explore", path, "--service", "S", "--components", "R"]);
        assert!(
            full.contains("DEADLOCK reachable after `acc.del.acc.del.acc`"),
            "{full}"
        );
        let cut = run_ok(&[
            "explore",
            path,
            "--service",
            "S",
            "--components",
            "R",
            "--max-states",
            "2",
        ]);
        assert!(cut.contains("(budget hit)"), "{cut}");
        assert!(!cut.contains("reachable"), "{cut}");
        assert!(
            cut.contains("no safety violation found within 2 states"),
            "{cut}"
        );
        assert!(cut.contains("no deadlock found within 2 states"), "{cut}");
        let _ = std::fs::remove_file(path);
    }

    /// Every command refuses a flag that only other commands declare,
    /// instead of ignoring it; and a flag takes a value in every command
    /// or in none.
    #[test]
    fn commands_refuse_flags_they_do_not_declare() {
        with_file(|path| {
            for args in [
                &["parse", path, "--sessions-per-conn", "9"][..],
                &["show", path, "S", "--json"],
                &["compose", path, "B", "S", "--stats"],
                &[
                    "check",
                    path,
                    "--impl",
                    "S",
                    "--service",
                    "S",
                    "--loops",
                    "2",
                ],
                &["solve", path, "--problem", "relay", "--seed", "x"],
                &["solve", path, "--problem", "relay", "--addr", "1.2.3.4:5"],
                &["solve", path, "--problem", "relay", "--threads", "4"],
                &[
                    "simulate",
                    path,
                    "--service",
                    "S",
                    "--components",
                    "S",
                    "--runs",
                    "3",
                ],
                &["minimize", path, "S", "--dot"],
                &["normalize", path, "S", "--prune"],
                &[
                    "violations",
                    path,
                    "--impl",
                    "S",
                    "--service",
                    "S",
                    "--json",
                ],
                &[
                    "explore",
                    path,
                    "--service",
                    "S",
                    "--components",
                    "S",
                    "--steps",
                    "5",
                ],
                &[
                    "soak",
                    "--builtin",
                    "colocated",
                    "--emit",
                    "compiled",
                    "--dot",
                ],
                &["serve", "--builtin", "colocated", "--loopback"],
                &[
                    "reload",
                    "--control",
                    "127.0.0.1:1",
                    "--artifact",
                    "x",
                    "--json",
                ],
                &["drive", "--builtin", "colocated", "--loopback", "--stats"],
                &["fuzz", "--builtin", "colocated", "--runs", "3"],
            ] {
                let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
                let e = run(&args).unwrap_err().to_string();
                assert!(e.starts_with("unknown flag --"), "{args:?}: {e}");
            }
        });
        let all: Vec<_> = COMMANDS.iter().flat_map(|(u, _)| flags(u)).collect();
        for (f, valued) in &all {
            assert!(all.iter().all(|(g, v)| g != f || v == valued), "{f}");
        }
    }

    /// `--builtin` names the whole system: a flag that picks parts from
    /// a FILE is refused by name, not ignored, in every command taking
    /// both forms; and `--mutate` is refused in the FILE form it cannot
    /// apply to.
    #[test]
    fn builtin_refuses_file_form_flags() {
        let refused = |args: &[&str], flag: &str| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let e = run(&args).unwrap_err().to_string();
            assert_eq!(e, format!("--builtin does not take {flag}"), "{args:?}");
        };
        let solve = ["solve", "--builtin", "colocated"];
        for (flag, value) in [
            ("--problem", "nope"),
            ("--service", "Nope"),
            ("--int", "zz"),
            ("--b", "Q"),
        ] {
            refused(&[&solve[..], &[flag, value]].concat(), flag);
        }
        for cmd in ["soak", "serve", "drive", "fuzz"] {
            for flag in ["--service", "--components"] {
                refused(&[cmd, "--builtin", "colocated", flag, "X"], flag);
            }
        }
        with_file(|path| {
            for cmd in ["soak", "serve", "drive", "fuzz"] {
                let args = [cmd, path, "--service", "S", "--components", "S"];
                let args: Vec<String> = [&args[..], &["--mutate", "1"]]
                    .concat()
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
                let e = run(&args).unwrap_err().to_string();
                assert_eq!(e, "--mutate needs --builtin", "{args:?}");
            }
        });
        // Without FILE or `--builtin`, fuzz takes the colocated system,
        // so it refuses what only a FILE could mean.
        for flag in ["--service", "--components"] {
            let args: Vec<String> = ["fuzz", flag, "X"].iter().map(|s| s.to_string()).collect();
            let e = run(&args).unwrap_err().to_string();
            assert!(e.starts_with("usage: protoquot fuzz"), "{flag}: {e}");
        }
    }

    /// `drive --adversarial` attacks the wire and reads only
    /// `--connect`, `--expect-clean` and `--json`; every other flag
    /// drive declares is refused by name before anything is dialled.
    #[test]
    fn adversarial_refuses_campaign_flags() {
        let (usage, _) = COMMANDS
            .iter()
            .find(|(u, _)| u.starts_with("protoquot drive"))
            .expect("drive is a command");
        let reads = ["--adversarial", "--connect", "--expect-clean", "--json"];
        let refused: Vec<_> = flags(usage)
            .into_iter()
            .filter(|(f, _)| !reads.contains(f))
            .collect();
        assert!(refused.len() >= 10, "{refused:?}");
        for (flag, valued) in refused {
            let mut args = vec!["drive", "--adversarial", "--connect", "127.0.0.1:1", flag];
            args.extend(valued.then_some("bogus"));
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let e = run(&args).unwrap_err().to_string();
            assert_eq!(e, format!("--adversarial does not take {flag}"), "{args:?}");
        }
    }

    /// A command that takes no positional argument prints its usage for
    /// a stray one, before it dials anything.
    #[test]
    fn stray_positionals_print_the_usage() {
        for args in [
            &[
                "reload",
                "stray",
                "--control",
                "127.0.0.1:1",
                "--artifact",
                "x",
            ][..],
            &[
                "drive",
                "stray",
                "--adversarial",
                "--connect",
                "127.0.0.1:1",
            ],
        ] {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let e = run(&args).unwrap_err().to_string();
            assert!(
                e.starts_with(&format!("usage: protoquot {}", args[0])),
                "{args:?}: {e}"
            );
        }
    }

    /// `--seed` takes the `0x…` form reports print as well as decimal,
    /// in every command, and both name the same campaign.
    #[test]
    fn hex_and_decimal_seeds_agree() {
        let with_seed = |args: &[&str], seed: &str| {
            let mut args = args.to_vec();
            args.extend(["--seed", seed]);
            run_ok(&args)
        };
        // Soak's report also carries its wall-clock timing.
        let untimed = |json: String| {
            let mut v: Value = serde_json::from_str(&json).unwrap();
            if let Value::Obj(o) = &mut v {
                o.remove("elapsed_secs");
                o.remove("steps_per_sec");
            }
            serde_json::to_string(&v).unwrap()
        };
        let soak = ["soak", "--builtin", "colocated", "--runs", "20", "--json"];
        let (hex, dec) = (with_seed(&soak, "0xc0ffee"), with_seed(&soak, "12648430"));
        assert!(hex.contains("\"seed\":12648430"), "{hex}");
        assert_eq!(untimed(hex), untimed(dec));
        let drive = [
            "drive",
            "--builtin",
            "colocated",
            "--loopback",
            "--runs",
            "8",
            "--steps",
            "200",
            "--faults",
            "loss,reorder",
            "--json",
        ];
        assert_eq!(with_seed(&drive, "0xd41e"), with_seed(&drive, "54302"));
        with_file(|path| {
            let simulate = ["simulate", path, "--service", "S", "--components", "Broken"];
            let hex = with_seed(&simulate, "0x2a");
            assert!(hex.contains("(seed 42)"), "{hex}");
            assert_eq!(hex, with_seed(&simulate, "42"));
        });
    }

    /// docs/RUNTIME.md's `serve` and `drive` flag tables list exactly
    /// the flags those commands declare (drive selects its target as
    /// serve does, so serve's target table counts for both).
    #[test]
    fn runtime_doc_tables_list_serve_and_drive_flags() {
        let doc = include_str!("../../../docs/RUNTIME.md");
        let section = |cmd: &str| {
            let heading = format!("## `protoquot {cmd}`");
            doc.split(heading.as_str())
                .nth(1)
                .unwrap()
                .split("\n## ")
                .next()
                .unwrap()
        };
        fn table_flags(text: &str) -> std::collections::BTreeSet<&str> {
            text.lines()
                .filter_map(|l| l.strip_prefix("| `"))
                .flat_map(|l| l.split('`').next().unwrap().split_whitespace())
                .filter(|w| w.starts_with("--"))
                .collect()
        }
        let declared = |cmd: &str| {
            let (usage, _) = COMMANDS.iter().find(|(u, _)| name(u) == cmd).unwrap();
            flags(usage).into_iter().map(|(f, _)| f).collect()
        };
        let serve = section("serve");
        assert_eq!(table_flags(serve), declared("serve"));
        let target = serve.split("Serving options").next().unwrap();
        let mut drive = table_flags(section("drive"));
        drive.extend(table_flags(target));
        assert_eq!(drive, declared("drive"));
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
