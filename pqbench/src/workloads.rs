//! The four workloads and what one run of each measures.
//!
//! | workload | what runs |
//! |---|---|
//! | `derive-blowup` | nfa-blowup(11) against exactly-once, text to live, pass after pass |
//! | `derive-paper` | `fig13`, `fig9_weakened` and `fig9` from `specs/paper.pq`, pass after pass |
//! | `serve-mux` | `fig13`'s converter, 256 sessions multiplexed on one connection |
//! | `serve-lockstep` | `fig9_weakened`'s converter, one frame outstanding, planted convictions |
//!
//! An untraced run reports the end-to-end metrics. A traced run
//! reports every per-layer metric: derive workloads take the derive
//! layers from their passes and the serve layers from a short lockstep
//! probe of the last converter they took live; serve workloads take
//! the derive layers from their own set-up.

use crate::deploy::{deploy, parse, Counts, Ctx, Deployed, Expect, Live, Problem};
use crate::inputs::{blowup_source, Wire, PAPER_SOURCE};
use crate::measure::{median, peak_rss_mib, percentile, quiet, sort, Window, Windows};
use crate::metrics::Tally;
use crate::serve::{ladder, Client, Mode, Segment};
use crate::tracing::{close, open, Tracer, ROOT};
use protoquot_runtime::{Gateway, ReactorConfig, ReactorServer};
use protoquot_spec::Spec;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The exponential EXP-C1 derivation, taken live on an idle gateway.
    DeriveBlowup,
    /// The paper's three §5 problems, parsed and derived each pass.
    DerivePaper,
    /// The batched hot path: 256 sessions on one connection.
    ServeMux,
    /// The batch-of-one path, connects, closes and convictions.
    ServeLockstep,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::DeriveBlowup,
        Workload::DerivePaper,
        Workload::ServeMux,
        Workload::ServeLockstep,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DeriveBlowup => "derive-blowup",
            Workload::DerivePaper => "derive-paper",
            Workload::ServeMux => "serve-mux",
            Workload::ServeLockstep => "serve-lockstep",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The specification text the workload derives from.
    pub fn source(self) -> String {
        match self {
            Workload::DeriveBlowup => blowup_source(),
            _ => PAPER_SOURCE.to_string(),
        }
    }

    /// The problems the workload derives, with the predicted outcome.
    pub fn problems(self) -> Vec<Problem> {
        let fig13 = Problem {
            name: "fig13",
            expect: Expect::Converter { states: 9 },
        };
        let fig9_weakened = Problem {
            name: "fig9_weakened",
            expect: Expect::Converter { states: 173 },
        };
        match self {
            Workload::DeriveBlowup => vec![Problem {
                name: "nfa_blowup_11",
                expect: Expect::Converter { states: 2049 },
            }],
            Workload::DerivePaper => vec![
                fig13,
                fig9_weakened,
                Problem {
                    name: "fig9",
                    expect: Expect::NoConverter,
                },
            ],
            Workload::ServeMux => vec![fig13],
            Workload::ServeLockstep => vec![fig9_weakened],
        }
    }

    fn mode(self) -> Option<Mode> {
        match self {
            Workload::ServeMux => Some(Mode::Mux),
            Workload::ServeLockstep => Some(Mode::Lockstep),
            _ => None,
        }
    }
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// What to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced.
    pub trace: bool,
    /// Where a traced run writes its spans as JSON lines.
    pub spans: Option<PathBuf>,
}

/// What one run measured.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Seconds from a cold start to the first possible use.
    pub setup_s: f64,
    /// Operations attempted and failed: problem derivations or frames.
    pub tally: Tally,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// The measured windows of an untraced run, from which
    /// `latency_p50_us` and `throughput_per_s` are taken.
    pub windows: Vec<Window>,
}

impl Outcome {
    /// Records a metric; a value that could not be measured (no
    /// samples) is left out rather than printed as `null`.
    fn set(&mut self, name: &str, value: f64) {
        if value.is_finite() {
            self.metrics.insert(name.to_string(), value);
        }
    }
}

/// A per-process directory for registry stores, under `.pqbench/` in
/// the working directory, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        Scratch(Path::new(".pqbench").join(std::process::id().to_string()))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run is using it.
        let _ = std::fs::remove_dir(".pqbench");
    }
}

/// Runs the workload's own problems.
pub fn run(cfg: &RunConfig) -> Outcome {
    run_problems(cfg, &cfg.workload.problems())
}

/// Runs the workload against `problems` — its own, or deliberately
/// wrong predictions, which must show up as failures.
pub fn run_problems(cfg: &RunConfig, problems: &[Problem]) -> Outcome {
    let scratch = Scratch::new();
    let mut out = Outcome::default();
    let mut tracer = cfg.trace.then(Tracer::new);
    let result = match cfg.workload.mode() {
        None => derive_run(cfg, problems, &scratch, &mut tracer, &mut out),
        Some(mode) => serve_run(cfg, mode, problems, &scratch, &mut tracer, &mut out),
    };
    if let Err(e) = result {
        out.tally.fail(e);
    }
    if let Some(t) = tracer.as_ref().filter(|t| t.dropped() > 0) {
        eprintln!("pqbench: span store full, {} spans not kept", t.dropped());
    }
    if let (Some(t), Some(path)) = (&tracer, &cfg.spans) {
        let written = std::fs::File::create(path)
            .map(std::io::BufWriter::new)
            .and_then(|w| t.write_jsonl(w));
        if let Err(e) = written {
            out.tally
                .fail(format!("writing spans to {}: {e}", path.display()));
        }
    }
    out
}

/// Sets up the workload once, cold, and reports the seconds it took.
pub fn setup_only(workload: Workload) -> Result<f64, String> {
    let scratch = Scratch::new();
    let problems = workload.problems();
    let mut none = None;
    match workload.mode() {
        None => {
            let mut d = Deriver::new(workload, &problems, &scratch);
            let t = d.pass(&mut none, 0);
            match d.tally.errors.first() {
                Some(e) => Err(e.clone()),
                None => Ok(t.as_secs_f64()),
            }
        }
        Some(mode) => {
            let (_, setup_s, _) = serve_setup(workload, mode, &problems, &scratch, &mut none)?;
            Ok(setup_s)
        }
    }
}

/// Derive passes over one source, each problem taken live on its own
/// gateway.
struct Deriver {
    source: String,
    problems: Vec<Problem>,
    lives: Vec<Option<Live>>,
    dirs: Vec<PathBuf>,
    /// `solve`'s converter per problem, from the first untraced pass.
    refs: Vec<Option<Option<Spec>>>,
    /// The last converter taken live, and which problem it solves.
    last: Option<(usize, Deployed)>,
    /// Problem derivations attempted and failed.
    tally: Tally,
    /// Counters of each traced pass.
    counts: Vec<Counts>,
}

impl Deriver {
    fn new(workload: Workload, problems: &[Problem], scratch: &Scratch) -> Deriver {
        Deriver {
            source: workload.source(),
            problems: problems.to_vec(),
            lives: problems.iter().map(|_| None).collect(),
            dirs: problems.iter().map(|p| scratch.0.join(p.name)).collect(),
            refs: vec![None; problems.len()],
            last: None,
            tally: Tally::default(),
            counts: Vec::new(),
        }
    }

    /// One pass: parse the source, then derive and deploy every
    /// problem. Returns its wall time.
    fn pass(&mut self, tracer: &mut Option<Tracer>, req: u64) -> Duration {
        let mut counts = Counts::new();
        let t0 = Instant::now();
        let root = open(tracer, "derive.pass", ROOT, req);
        let mut ctx = Ctx {
            tracer,
            parent: root,
            req,
            counts: &mut counts,
        };
        match parse(&self.source, &mut ctx) {
            Err(e) => {
                self.tally.attempted += self.problems.len() as u64;
                for _ in 0..self.problems.len() {
                    self.tally.fail(e.clone());
                }
            }
            Ok(file) => {
                for i in 0..self.problems.len() {
                    self.tally.attempted += 1;
                    let p = self.problems[i];
                    let reference = self.refs[i].as_ref();
                    match deploy(
                        &file,
                        &p,
                        &mut self.lives[i],
                        &self.dirs[i],
                        reference,
                        &mut ctx,
                    ) {
                        Ok(d) => {
                            if self.refs[i].is_none() && ctx.tracer.is_none() {
                                self.refs[i] = Some(d.as_ref().map(|d| d.converter.clone()));
                            }
                            if let Some(d) = d {
                                self.last = Some((i, d));
                            }
                        }
                        Err(e) => self.tally.fail(e),
                    }
                }
            }
        }
        close(ctx.tracer, root);
        let t = t0.elapsed();
        if tracer.is_some() {
            self.counts.push(counts);
        }
        t
    }

    fn drain_into(&mut self, out: &mut Outcome) {
        out.tally.merge(std::mem::take(&mut self.tally));
    }
}

/// The end-to-end metrics of an untraced run's measured windows.
fn end_to_end(out: &mut Outcome, windows: Vec<Window>) {
    if let Some((latency, throughput)) = quiet(&windows) {
        out.set("latency_p50_us", latency);
        out.set("throughput_per_s", throughput);
    }
    out.windows = windows;
    if let Some(v) = peak_rss_mib() {
        out.set("peak_rss_mib", v);
    }
}

/// Measured seconds per run unless told otherwise; `run_seconds` in
/// `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 24.0;

/// Share of a traced run's measured seconds spent untraced, as the
/// baseline of `trace.overhead_frac` and the top ladder rung.
const UNTRACED_SHARE: f64 = 0.3;
/// Share of a derive workload's traced run spent on the serve probe.
const PROBE_SHARE: f64 = 0.25;
/// Lockstep sessions the ladder replays (mux replays one generation).
const LADDER_LOCKSTEP_SESSIONS: usize = 4096;
/// Interleaved repetitions of the ladder; each rung reports the median.
const LADDER_REPS: usize = 3;

fn derive_run(
    cfg: &RunConfig,
    problems: &[Problem],
    scratch: &Scratch,
    tracer: &mut Option<Tracer>,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut d = Deriver::new(cfg.workload, problems, scratch);
    let mut none = None;
    // Set-up is the first, cold pass: what a one-shot derivation pays.
    out.setup_s = d.pass(&mut none, 0).as_secs_f64();
    d.pass(&mut none, 1);
    let mut req = 2;
    let mut measure = |d: &mut Deriver, tracer: &mut Option<Tracer>, secs: f64| {
        let start = Instant::now();
        let until = start + Duration::from_secs_f64(secs);
        let mut windows = Windows::new(start);
        let mut lat = Vec::new();
        while Instant::now() < until {
            let t = d.pass(tracer, req).as_secs_f64() * 1e6;
            req += 1;
            lat.push(t);
            windows.add(Instant::now(), 1.0, t);
        }
        (lat, windows.finish(Instant::now()))
    };
    if tracer.is_none() {
        let (_, windows) = measure(&mut d, &mut none, cfg.seconds);
        d.drain_into(out);
        end_to_end(out, windows);
        return Ok(());
    }
    let derive_secs = cfg.seconds * (1.0 - PROBE_SHARE);
    let (lat_u, _) = measure(&mut d, &mut none, derive_secs * UNTRACED_SHARE);
    let (lat_t, _) = measure(&mut d, tracer, derive_secs * (1.0 - UNTRACED_SHARE));
    d.drain_into(out);
    out.set("trace.overhead_frac", median(&lat_t) / median(&lat_u) - 1.0);
    derive_layers(out, tracer.as_ref().expect("traced"), &d.counts);

    // The serve layers: a lockstep probe of the last converter live.
    let (i, deployed) = d.last.take().ok_or("no converter went live to probe")?;
    let live = d.lives[i]
        .as_ref()
        .expect("a deployed problem has a gateway");
    let mut server = Server::bind(&live.gateway, Mode::Lockstep, tracer)?;
    let wire = Wire::new(&deployed.b, &deployed.converter, &deployed.service)?;
    server.client.load(wire.lockstep_pool(cfg.seed)?, cfg.seed);
    let probe = serve_traced(
        &mut server,
        Mode::Lockstep,
        cfg.seconds * PROBE_SHARE,
        tracer,
        out,
    );
    server.finish(out);
    probe.map(|_| ())
}

/// Median over traced passes of each derive stage's time, and of each
/// work counter.
fn derive_layers(out: &mut Outcome, tracer: &Tracer, counts: &[Counts]) {
    const STAGES: [(&str, &str, f64); 12] = [
        ("speclang.parse", "speclang.parse_ms", 1e-6),
        ("spec.compose", "spec.compose_ms", 1e-6),
        ("spec.normalize", "spec.normalize_ms", 1e-6),
        ("core.safety", "core.safety_ms", 1e-6),
        ("core.progress", "core.progress_ms", 1e-6),
        ("spec.verify", "spec.verify_ms", 1e-6),
        ("guard.build", "guard.build_ms", 1e-6),
        ("artifact.encode", "artifact.encode_ms", 1e-6),
        ("artifact.decode", "artifact.decode_ms", 1e-6),
        ("artifact.instantiate", "artifact.instantiate_ms", 1e-6),
        ("registry.admit", "registry.admit_ms", 1e-6),
        ("gateway.swap", "gateway.swap_us", 1e-3),
    ];
    let self_ns = tracer.self_ns();
    // Per pass (request id): summed self time of each stage.
    let mut passes: BTreeMap<u64, BTreeMap<&str, f64>> = BTreeMap::new();
    for (s, &ns) in tracer.spans().iter().zip(&self_ns) {
        if s.name == "derive.pass" {
            passes.entry(s.req).or_default();
        } else if let Some(&(_, metric, scale)) = STAGES.iter().find(|st| st.0 == s.name) {
            *passes
                .entry(s.req)
                .or_default()
                .entry(metric)
                .or_insert(0.0) += ns as f64 * scale;
        }
    }
    for &(_, metric, _) in &STAGES {
        let v: Vec<f64> = passes
            .values()
            .map(|p| p.get(metric).copied().unwrap_or(0.0))
            .collect();
        out.set(metric, median(&v));
    }
    let admit_self: Vec<f64> = passes
        .values()
        .map(|p| {
            let get = |k: &str| p.get(k).copied().unwrap_or(0.0);
            get("registry.admit_ms") - get("artifact.decode_ms") - get("artifact.instantiate_ms")
        })
        .collect();
    out.set("registry.admit_self_ms", median(&admit_self));
    for name in [
        "spec.verify_states",
        "core.safety_states",
        "core.safety_dedup_hits",
        "core.progress_iterations",
        "core.progress_nodes_touched",
        "guard.dfa_states",
        "guard.table_bytes",
        "guard.max_subset",
        "artifact.bytes",
    ] {
        let v: Vec<f64> = counts
            .iter()
            .map(|c| c.get(name).copied().unwrap_or(0.0))
            .collect();
        out.set(name, median(&v));
    }
}

/// A reactor serving a live gateway, and the client connected to it.
struct Server {
    reactor: ReactorServer,
    gateway: Gateway,
    client: Client,
}

impl Server {
    /// Binds a reactor in front of `gateway` and connects the client:
    /// done at the first HelloAck.
    fn bind(gateway: &Gateway, mode: Mode, tracer: &mut Option<Tracer>) -> Result<Server, String> {
        let reactor = ReactorServer::bind(gateway.clone(), "127.0.0.1:0", ReactorConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        let span = open(tracer, "client.connect", ROOT, 0);
        let client = Client::connect(mode, reactor.local_addr(), gateway.table_hash())?;
        close(tracer, span);
        Ok(Server {
            reactor,
            gateway: gateway.clone(),
            client,
        })
    }

    /// Stops the reactor and checks that every planted event, and
    /// nothing else, convicted.
    fn finish(mut self, out: &mut Outcome) {
        self.reactor.stop();
        let stats = self.gateway.stats();
        let planted = self.client.planted;
        out.tally.merge(std::mem::take(&mut self.client.tally));
        if stats.convictions != planted {
            out.tally.fail(format!(
                "the gateway convicted {} sessions, {planted} events were planted",
                stats.convictions
            ));
        }
    }
}

/// A serve workload's set-up — derivation through the registry, the
/// reactor, and the first negotiated connection — and its seconds.
fn serve_setup(
    workload: Workload,
    mode: Mode,
    problems: &[Problem],
    scratch: &Scratch,
    tracer: &mut Option<Tracer>,
) -> Result<(Server, f64, Deriver), String> {
    let t0 = Instant::now();
    let mut d = Deriver::new(workload, problems, scratch);
    d.pass(tracer, 0);
    if let Some(e) = d.tally.errors.first() {
        return Err(e.clone());
    }
    let (i, _) = d
        .last
        .as_ref()
        .ok_or("the serve problem has no converter")?;
    let gateway = d.lives[*i].as_ref().expect("deployed").gateway.clone();
    let server = Server::bind(&gateway, mode, tracer)?;
    Ok((server, t0.elapsed().as_secs_f64(), d))
}

fn serve_run(
    cfg: &RunConfig,
    mode: Mode,
    problems: &[Problem],
    scratch: &Scratch,
    tracer: &mut Option<Tracer>,
    out: &mut Outcome,
) -> Result<(), String> {
    let (mut server, setup_s, mut d) = serve_setup(cfg.workload, mode, problems, scratch, tracer)?;
    out.setup_s = setup_s;
    d.drain_into(out);
    if tracer.is_some() {
        derive_layers(out, tracer.as_ref().expect("traced"), &d.counts);
    }
    let (_, deployed) = d.last.as_ref().expect("checked at set-up");
    let wire = Wire::new(&deployed.b, &deployed.converter, &deployed.service)?;
    let pool = match mode {
        Mode::Mux => wire.mux_pool(cfg.seed)?,
        Mode::Lockstep => wire.lockstep_pool(cfg.seed)?,
    };
    server.client.load(pool, cfg.seed);
    let result = if tracer.is_none() {
        serve_untraced(&mut server, cfg.seconds, out)
    } else {
        serve_traced(&mut server, mode, cfg.seconds, tracer, out).map(|overhead| {
            out.set("trace.overhead_frac", overhead);
        })
    };
    server.finish(out);
    result
}

/// Warm-up before measuring: caches fill, sessions spread over shards.
fn warm_up(server: &mut Server, seconds: f64) -> Result<(), String> {
    let warm = Duration::from_secs_f64((seconds * 0.1).min(0.5));
    server.client.run(Instant::now() + warm, &mut None)?;
    Ok(())
}

fn serve_untraced(server: &mut Server, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    warm_up(server, seconds)?;
    let seg = server
        .client
        .run(Instant::now() + Duration::from_secs_f64(seconds), &mut None)?;
    end_to_end(out, seg.windows.finish(Instant::now()));
    Ok(())
}

/// The serve layers of a traced run: an untraced segment (the top
/// ladder rung), a traced segment, the in-process ladder, and the
/// gateway's own counters. Returns the tracing overhead.
fn serve_traced(
    server: &mut Server,
    mode: Mode,
    seconds: f64,
    tracer: &mut Option<Tracer>,
    out: &mut Outcome,
) -> Result<f64, String> {
    warm_up(server, seconds)?;
    let segment =
        |server: &mut Server, tracer: &mut Option<Tracer>, secs: f64| -> Result<Segment, String> {
            server
                .client
                .run(Instant::now() + Duration::from_secs_f64(secs), tracer)
        };
    let untraced = segment(server, &mut None, seconds * UNTRACED_SHARE)?;
    let mut traced = segment(server, tracer, seconds * (1.0 - UNTRACED_SHARE))?;

    let (frames, slots, per_exchange) = server.client.replay_plan(LADDER_LOCKSTEP_SESSIONS);
    let rungs = ladder(
        &server.gateway.program(),
        &frames,
        &slots,
        per_exchange,
        LADDER_REPS,
    )?;
    let top = untraced.ns_per_frame();
    out.set("guard.observe_ns_per_frame", rungs.r0);
    out.set("gateway.self_ns_per_frame", rungs.r1 - rungs.r0);
    out.set("codec.self_ns_per_frame", rungs.r2 - rungs.r1);
    out.set("transport.self_ns_per_frame", top - rungs.r2);

    let s = server.gateway.stats();
    out.set(
        "gateway.batch_frames_mean",
        s.batch_frames as f64 / s.batches.max(1) as f64,
    );
    out.set(
        "gateway.slow_path_frac",
        s.batch_slow as f64 / s.batch_frames.max(1) as f64,
    );
    out.set("gateway.queue_high_water", s.queue_high_water as f64);
    out.set("gateway.convictions", s.convictions as f64);
    let other: u64 = s
        .rejects
        .iter()
        .filter(|(name, _)| *name != "not_a_trace")
        .map(|(_, n)| n)
        .sum();
    out.set("gateway.rejects_other", other as f64);
    out.set(
        "gateway.sessions_resident_end",
        server.gateway.resident_sessions() as f64,
    );
    out.set(
        "codec.bytes_in_per_frame",
        s.bytes_in as f64 / s.frames.max(1) as f64,
    );
    out.set(
        "codec.bytes_out_per_frame",
        s.bytes_out as f64 / s.frames.max(1) as f64,
    );

    let t = tracer.as_ref().expect("traced");
    let count = |name: &str| t.spans().iter().filter(|s| s.name == name).count() as f64;
    let (exchanges, rounds) = match mode {
        Mode::Mux => (count("client.exchange"), count("serve.round")),
        Mode::Lockstep => (count("client.call"), count("serve.frame")),
    };
    out.set("transport.exchanges_per_round", exchanges / rounds.max(1.0));
    let connects: Vec<f64> = t
        .spans()
        .iter()
        .filter(|s| s.name == "client.connect")
        .map(|s| s.ns() as f64 / 1e3)
        .collect();
    out.set("transport.connect_hello_us_p50", median(&connects));
    sort(&mut traced.rtt_us);
    let max = traced.rtt_us.last().copied().unwrap_or(0.0);
    out.set(
        "transport.rtt_p99_us",
        percentile(&traced.rtt_us, 0.99).unwrap_or(max),
    );
    out.set(
        "transport.rtt_p999_us",
        percentile(&traced.rtt_us, 0.999).unwrap_or(max),
    );
    Ok(traced.ns_per_frame() / top - 1.0)
}
