//! The derive-to-live pipeline, from specification text to a converter
//! serving on a gateway:
//!
//! parse → compose → solve (normalize, Fig. 5 safety, Fig. 6 progress)
//! → verify → guard build → artifact encode → registry admission
//! (decode, instantiate, re-verify) → `Gateway::swap`.
//!
//! Untraced, `solve` runs as one call, the way `protoquot solve` pays
//! for it. Traced, its phases are called one by one inside spans, the
//! artifact is also decoded and instantiated on its own so that
//! admission's self time can be taken apart, and the converter must
//! equal the one `solve` derives.

use crate::tracing::{span, Tracer};
use protoquot_core::{
    converter_verdict_with, progress_phase_with, safety_engine, solve, validate_problem,
    ProgressStrategy, QuotientError, QuotientOptions, SafetyLimits,
};
use protoquot_runtime::artifact::encode_with_program;
use protoquot_runtime::{
    CompiledArtifact, ConverterRegistry, Gateway, GatewayConfig, GuardProgram,
};
use protoquot_spec::{compose_all, normalize, Alphabet, Spec};
use protoquot_speclang::{parse_source, SourceFile};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// What a problem's derivation must produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// A converter with exactly this many states.
    Converter {
        /// Converter states.
        states: usize,
    },
    /// No converter: the Fig. 6 progress phase empties the safe one.
    NoConverter,
}

/// One quotient problem declared in a source file.
#[derive(Clone, Copy, Debug)]
pub struct Problem {
    /// The `problem` declaration's name.
    pub name: &'static str,
    /// The outcome the benchmark predicts.
    pub expect: Expect,
}

/// Work counters of traced passes, by per-layer metric name.
pub type Counts = BTreeMap<&'static str, f64>;

/// Where one problem's converters go live: a gateway, and the registry
/// that admits each new version before it is swapped in.
pub struct Live {
    /// The serving gateway.
    pub gateway: Gateway,
    registry: ConverterRegistry,
}

/// A converter that went live.
pub struct Deployed {
    /// The fixed components, composed.
    pub b: Spec,
    /// The derived converter.
    pub converter: Spec,
    /// The service it satisfies.
    pub service: Spec,
}

/// The span context of one pass: tracer, parent span, request id, and
/// the counters traced stages add to.
pub struct Ctx<'a> {
    /// `None` when untraced.
    pub tracer: &'a mut Option<Tracer>,
    /// Parent span of the stages.
    pub parent: u32,
    /// Request id of the pass.
    pub req: u64,
    /// Work counters, filled only when traced.
    pub counts: &'a mut Counts,
}

impl Ctx<'_> {
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        span(self.tracer, name, self.parent, self.req, f)
    }

    fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    fn count(&mut self, name: &'static str, value: usize) {
        if self.traced() {
            *self.counts.entry(name).or_insert(0.0) += value as f64;
        }
    }
}

/// Parses a source file inside a `speclang.parse` span.
pub fn parse(source: &str, ctx: &mut Ctx) -> Result<SourceFile, String> {
    ctx.span("speclang.parse", || parse_source(source))
        .map_err(|e| format!("parse: {e}"))
}

/// Derives `problem` from `file` and, when a converter exists, takes it
/// live on `live` (created on first use, with its registry under
/// `registry_dir`). Returns the deployed converter, or `None` when the
/// problem is expected to have none. Any outcome other than the
/// predicted one is an error.
///
/// `reference` is `solve`'s converter for the problem, which a traced
/// pass must reproduce; when absent a traced pass computes it first,
/// outside any span.
pub fn deploy(
    file: &SourceFile,
    problem: &Problem,
    live: &mut Option<Live>,
    registry_dir: &Path,
    reference: Option<&Option<Spec>>,
    ctx: &mut Ctx,
) -> Result<Option<Deployed>, String> {
    let name = problem.name;
    let decl = file
        .problem(name)
        .ok_or_else(|| format!("no problem `{name}` in the source"))?;
    let service = file
        .spec(&decl.service)
        .ok_or_else(|| format!("{name}: no service spec `{}`", decl.service))?
        .clone();
    let int: Alphabet = decl.internal.iter().map(String::as_str).collect();
    let b = ctx.span("spec.compose", || {
        let parts = decl
            .components
            .iter()
            .map(|c| file.spec(c).ok_or_else(|| format!("{name}: no spec `{c}`")))
            .collect::<Result<Vec<&Spec>, String>>()?;
        match parts[..] {
            [one] => Ok(one.clone()),
            _ => compose_all(&parts).map_err(|e| format!("{name}: compose: {e}")),
        }
    })?;

    let converter = if ctx.traced() {
        let owned;
        let reference = match reference {
            Some(r) => r,
            None => {
                owned = solve(&b, &service, &int).ok().map(|q| q.converter);
                &owned
            }
        };
        let converter = phases(name, &b, &service, &int, ctx)?;
        if converter.as_ref() != reference.as_ref() {
            return Err(format!(
                "{name}: the phase-by-phase converter differs from solve's"
            ));
        }
        converter
    } else {
        match solve(&b, &service, &int) {
            Ok(q) => Some(q.converter),
            Err(QuotientError::NoProgressingConverter { .. }) => None,
            Err(e) => return Err(format!("{name}: {e}")),
        }
    };
    let converter = match (converter, problem.expect) {
        (None, Expect::NoConverter) => return Ok(None),
        (Some(c), Expect::Converter { states }) if c.num_states() == states => c,
        (Some(c), expect) => {
            return Err(format!(
                "{name}: derived a {}-state converter, expected {expect:?}",
                c.num_states()
            ))
        }
        (None, expect) => return Err(format!("{name}: no converter, expected {expect:?}")),
    };

    let (verdict, stats) = ctx
        .span("spec.verify", || {
            converter_verdict_with(&b, &service, &converter, 1)
        })
        .map_err(|e| format!("{name}: verify: {e}"))?;
    verdict.map_err(|v| format!("{name}: the derived converter fails verification: {v}"))?;
    ctx.count("spec.verify_states", stats.states);

    let parts = [&b, &converter];
    let prog = ctx
        .span("guard.build", || GuardProgram::new(&parts, &service))
        .map_err(|e| format!("{name}: guard build: {e}"))?;
    let build = prog.build_stats();
    ctx.count("guard.dfa_states", build.dfa_states);
    ctx.count("guard.table_bytes", build.table_bytes);
    ctx.count("guard.max_subset", build.max_subset);

    let bytes = ctx.span("artifact.encode", || {
        encode_with_program(&parts, &service, &prog)
    });
    ctx.count("artifact.bytes", bytes.len());
    if ctx.traced() {
        let artifact = ctx
            .span("artifact.decode", || CompiledArtifact::decode(&bytes))
            .map_err(|e| format!("{name}: decode: {e}"))?;
        ctx.span("artifact.instantiate", || artifact.instantiate())
            .map_err(|e| format!("{name}: instantiate: {e}"))?;
    }

    if live.is_none() {
        *live = Some(Live::start(prog, &service, registry_dir)?);
    }
    let live = live.as_mut().expect("started above");
    let admitted = ctx
        .span("registry.admit", || live.registry.admit(&bytes))
        .map_err(|e| format!("{name}: admission: {e}"))?;
    let version = admitted.version;
    ctx.span("gateway.swap", || {
        live.gateway.swap(version, admitted.program)
    })
    .map_err(|e| format!("{name}: {e}"))?;
    Ok(Some(Deployed {
        b,
        converter,
        service,
    }))
}

/// The phases `solve` runs, one span each: validation and service
/// normalization, Fig. 5 safety, Fig. 6 progress.
fn phases(
    name: &str,
    b: &Spec,
    service: &Spec,
    int: &Alphabet,
    ctx: &mut Ctx,
) -> Result<Option<Spec>, String> {
    let na = ctx
        .span("spec.normalize", || {
            validate_problem(b, service, int).map(|()| normalize(service))
        })
        .map_err(|e| format!("{name}: {e}"))?;
    let limits = SafetyLimits {
        max_states: QuotientOptions::default().max_states,
    };
    let safety = match ctx.span("core.safety", || {
        safety_engine(b, &na, int, false, limits, 1)
    }) {
        Ok(Some(out)) => out,
        Ok(None) => return Err(format!("{name}: safety phase over its state budget")),
        Err(_) => return Err(format!("{name}: no safe converter exists")),
    };
    ctx.count("core.safety_states", safety.stats.states);
    ctx.count("core.safety_dedup_hits", safety.stats.dedup_hits);
    let progress = ctx.span("core.progress", || {
        progress_phase_with(b, &na, &safety.phase, ProgressStrategy::FullProduct)
    });
    ctx.count("core.progress_iterations", progress.iterations);
    ctx.count("core.progress_nodes_touched", progress.stats.nodes_touched);
    Ok(progress.converter)
}

impl Live {
    /// A gateway serving `prog` as version 1, and a registry whose
    /// first admission becomes version 2.
    fn start(prog: GuardProgram, service: &Spec, registry_dir: &Path) -> Result<Live, String> {
        let gateway = Gateway::with_program(Arc::new(prog), GatewayConfig::default())
            .map_err(|e| format!("gateway: {e}"))?;
        let registry = ConverterRegistry::open(registry_dir, service, gateway.active_version())
            .map_err(|e| format!("registry {}: {e}", registry_dir.display()))?;
        Ok(Live { gateway, registry })
    }
}
