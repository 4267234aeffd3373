//! The public quotient API: problem statement, options, diagnostics.
//!
//! `solve(B, A, Int)` answers the paper's §4 problem: given `B` over
//! `Int ∪ Ext` and a service `A` over `Ext`, produce `C` over `Int` with
//! `B ‖ C satisfies A`, or report that none exists — with which phase
//! ruled it out and a witness.

use crate::pairset::OkViolation;
use crate::progress::{
    progress_phase_with, ProgressEngineStats, ProgressStrategy, ProgressWitness,
};
use crate::safety::{SafetyLimits, SafetyPhase};
use crate::safety_engine::{safety_engine, SafetyEngineStats};
use protoquot_spec::{normalize, Alphabet, NormalSpec, Spec, SpecError};
use std::time::{Duration, Instant};

/// Options controlling [`solve_with`].
#[derive(Clone, Debug)]
pub struct QuotientOptions {
    /// Include vacuous converter states (traces of C no trace of B
    /// matches). Required for literal maximality; useless in practice.
    pub include_vacuous: bool,
    /// Safety-phase state budget.
    pub max_states: usize,
    /// Progress fixpoint strategy (paper-exact full product by
    /// default; see [`ProgressStrategy`]).
    pub strategy: ProgressStrategy,
}

impl Default for QuotientOptions {
    fn default() -> Self {
        QuotientOptions {
            include_vacuous: false,
            max_states: 1_000_000,
            strategy: ProgressStrategy::FullProduct,
        }
    }
}

/// A successful derivation.
#[derive(Clone, Debug)]
pub struct Quotient {
    /// The derived converter (maximal solution, unreachable states
    /// pruned).
    pub converter: Spec,
    /// The raw safety-phase output `C0` (before progress pruning).
    pub safety_output: Spec,
    /// Statistics about the run.
    pub stats: QuotientStats,
}

/// Run statistics.
#[derive(Clone, Debug, Default)]
pub struct QuotientStats {
    /// States of `C0`.
    pub safety_states: usize,
    /// Transitions of `C0`.
    pub safety_transitions: usize,
    /// Progress fixpoint iterations.
    pub progress_iterations: usize,
    /// States removed by the progress phase.
    pub removed_states: usize,
    /// Wall time of the safety phase.
    pub safety_time: Duration,
    /// Wall time of the progress phase.
    pub progress_time: Duration,
    /// Work counters from the incremental progress engine.
    pub progress_engine: ProgressEngineStats,
    /// Work counters from the interned safety engine.
    pub safety_engine: SafetyEngineStats,
}

/// Why no converter was produced.
#[derive(Debug)]
pub enum QuotientError {
    /// The problem statement is malformed (alphabet mismatches).
    BadProblem(SpecError),
    /// `ok(h.ε)` fails: B violates the service no matter what the
    /// converter does. No converter exists even w.r.t. safety.
    NoSafeConverter {
        /// The initial `ok` violation.
        violation: OkViolation,
    },
    /// A maximal safe converter exists but every candidate admits a
    /// progress violation: safety and progress requirements conflict
    /// (the paper's §5 symmetric configuration). No converter exists.
    NoProgressingConverter {
        /// The safety-phase output, for diagnosis (boxed: the error
        /// path should not weigh down every `Result`).
        safety_output: Box<Spec>,
        /// Progress iterations performed before emptying.
        iterations: usize,
        /// Why the first bad state was bad.
        witness: Option<ProgressWitness>,
    },
    /// The safety-phase state budget was exceeded.
    StateBudgetExceeded {
        /// The budget that was exceeded.
        max_states: usize,
    },
}

impl std::fmt::Display for QuotientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuotientError::BadProblem(e) => write!(f, "malformed quotient problem: {e}"),
            QuotientError::NoSafeConverter { violation } => write!(
                f,
                "no converter exists (safety): B can perform external event `{}` \
                 from state {} which the service cannot accept",
                violation.event, violation.b_state
            ),
            QuotientError::NoProgressingConverter { iterations, .. } => write!(
                f,
                "no converter exists (progress): every safe converter admits a \
                 deadlock the service forbids (fixpoint after {iterations} iterations)"
            ),
            QuotientError::StateBudgetExceeded { max_states } => {
                write!(f, "safety phase exceeded the {max_states}-state budget")
            }
        }
    }
}

impl std::error::Error for QuotientError {}

/// Solves the quotient problem with default options.
pub fn solve(b: &Spec, a: &Spec, int: &Alphabet) -> Result<Quotient, QuotientError> {
    solve_with(b, a, int, &QuotientOptions::default())
}

/// Solves the quotient problem.
pub fn solve_with(
    b: &Spec,
    a: &Spec,
    int: &Alphabet,
    options: &QuotientOptions,
) -> Result<Quotient, QuotientError> {
    validate_problem(b, a, int).map_err(QuotientError::BadProblem)?;
    let na = normalize(a);
    solve_normalized(b, &na, int, options)
}

/// Solves against an already-normalized service (used by benches to
/// exclude normalization cost, and by callers deriving several
/// converters against one service).
pub fn solve_normalized(
    b: &Spec,
    na: &NormalSpec,
    int: &Alphabet,
    options: &QuotientOptions,
) -> Result<Quotient, QuotientError> {
    let t0 = Instant::now();
    let (safety, engine_stats): (SafetyPhase, SafetyEngineStats) = match safety_engine(
        b,
        na,
        int,
        options.include_vacuous,
        SafetyLimits {
            max_states: options.max_states,
        },
        1,
    ) {
        Ok(Some(out)) => (out.phase, out.stats),
        Ok(None) => {
            return Err(QuotientError::StateBudgetExceeded {
                max_states: options.max_states,
            })
        }
        Err(fail) => {
            return Err(QuotientError::NoSafeConverter {
                violation: fail.violation,
            })
        }
    };
    let safety_time = t0.elapsed();

    let t1 = Instant::now();
    let progress = progress_phase_with(b, na, &safety, options.strategy);
    let progress_time = t1.elapsed();

    let stats = QuotientStats {
        safety_states: safety.c0.num_states(),
        safety_transitions: safety.c0.num_external(),
        progress_iterations: progress.iterations,
        removed_states: progress.removed,
        safety_time,
        progress_time,
        progress_engine: progress.stats,
        safety_engine: engine_stats,
    };
    match progress.converter {
        Some(converter) => Ok(Quotient {
            converter,
            safety_output: safety.c0,
            stats,
        }),
        None => Err(QuotientError::NoProgressingConverter {
            safety_output: Box::new(safety.c0),
            iterations: progress.iterations,
            witness: progress.first_witness,
        }),
    }
}

/// Solves a *constrained* quotient: derive the maximal converter whose
/// trace set is additionally contained in the constraint `K` (alphabet
/// ⊆ `Int`). This folds Okumura's "conversion seed" idea into the
/// top-down method — but with the top-down guarantee intact: if this
/// returns an error, **no** converter compatible with the constraint
/// exists for the given service.
///
/// Implementation: constrain `B` by the synchronous product `B ⊗ K`
/// (shared events stay visible, so `K` gates when `Int` events can
/// happen) and run the ordinary quotient. Vacuous states are forced
/// off so every converter state is realisable — hence inside `K`.
///
/// ```
/// use protoquot_spec::{Alphabet, SpecBuilder};
/// use protoquot_core::{solve, solve_constrained};
///
/// // Service and a two-path relay: the converter may use fast or slow.
/// let mut sb = SpecBuilder::new("S");
/// let u0 = sb.state("u0");
/// let u1 = sb.state("u1");
/// sb.ext(u0, "acc", u1);
/// sb.ext(u1, "del", u0);
/// let service = sb.build().unwrap();
/// let mut bb = SpecBuilder::new("B");
/// let b0 = bb.state("b0");
/// let b1 = bb.state("b1");
/// let b2 = bb.state("b2");
/// bb.ext(b0, "acc", b1);
/// bb.ext(b1, "fast", b2);
/// bb.ext(b1, "slow", b2);
/// bb.ext(b2, "del", b0);
/// let b = bb.build().unwrap();
/// let int = Alphabet::from_names(["fast", "slow"]);
///
/// // Constraint: never use the slow path.
/// let mut kb = SpecBuilder::new("K");
/// let k0 = kb.state("k0");
/// kb.ext(k0, "fast", k0);
/// kb.event("slow");
/// let k = kb.build().unwrap();
///
/// let unconstrained = solve(&b, &service, &int).unwrap();
/// let constrained = solve_constrained(&b, &k, &service, &int).unwrap();
/// let slow = protoquot_spec::EventId::new("slow");
/// assert!(unconstrained.converter.external_transitions().any(|(_, e, _)| e == slow));
/// assert!(constrained.converter.external_transitions().all(|(_, e, _)| e != slow));
/// ```
pub fn solve_constrained(
    b: &Spec,
    constraint: &Spec,
    a: &Spec,
    int: &Alphabet,
) -> Result<Quotient, QuotientError> {
    if !constraint.alphabet().is_subset(int) {
        return Err(QuotientError::BadProblem(SpecError::InterfaceMismatch {
            left: format!("Σ_K {}", constraint.alphabet()),
            right: format!("Int {}", int),
        }));
    }
    let constrained_b = protoquot_spec::sync_product(b, constraint);
    let options = QuotientOptions {
        include_vacuous: false,
        ..Default::default()
    };
    solve_with(&constrained_b, a, int, &options)
}

/// Checks the §4 interface conditions: `Int ⊆ Σ_B`, `Σ_A = Σ_B − Int`,
/// and `Int ∩ Σ_A = ∅`.
pub fn validate_problem(b: &Spec, a: &Spec, int: &Alphabet) -> Result<(), SpecError> {
    if !int.is_subset(b.alphabet()) {
        return Err(SpecError::InterfaceMismatch {
            left: format!("Int {}", int),
            right: format!("Σ_B {}", b.alphabet()),
        });
    }
    let ext = b.alphabet().difference(int);
    if &ext != a.alphabet() {
        return Err(SpecError::InterfaceMismatch {
            left: format!("Σ_B − Int {}", ext),
            right: format!("Σ_A {}", a.alphabet()),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use protoquot_spec::{compose, satisfies, SpecBuilder};

    fn service() -> Spec {
        let mut sb = SpecBuilder::new("S");
        let u0 = sb.state("u0");
        let u1 = sb.state("u1");
        sb.ext(u0, "acc", u1);
        sb.ext(u1, "del", u0);
        sb.build().unwrap()
    }

    fn relay() -> Spec {
        let mut bb = SpecBuilder::new("B");
        let b0 = bb.state("b0");
        let b1 = bb.state("b1");
        let b2 = bb.state("b2");
        bb.ext(b0, "acc", b1);
        bb.ext(b1, "fwd", b2);
        bb.ext(b2, "del", b0);
        bb.build().unwrap()
    }

    #[test]
    fn end_to_end_solve_and_verify() {
        let b = relay();
        let a = service();
        let int = Alphabet::from_names(["fwd"]);
        let q = solve(&b, &a, &int).unwrap();
        assert_eq!(q.converter.alphabet(), &int);
        assert!(q.converter.is_internal_free());
        assert!(satisfies(&compose(&b, &q.converter), &a).unwrap().is_ok());
        assert!(q.stats.safety_states >= q.converter.num_states());
    }

    #[test]
    fn bad_problem_int_not_subset() {
        let b = relay();
        let a = service();
        let int = Alphabet::from_names(["not_in_b"]);
        assert!(matches!(
            solve(&b, &a, &int),
            Err(QuotientError::BadProblem(_))
        ));
    }

    #[test]
    fn bad_problem_ext_mismatch() {
        let b = relay();
        let mut sb = SpecBuilder::new("S2");
        let u0 = sb.state("u0");
        sb.ext(u0, "something_else", u0);
        let a = sb.build().unwrap();
        let int = Alphabet::from_names(["fwd"]);
        assert!(matches!(
            solve(&b, &a, &int),
            Err(QuotientError::BadProblem(_))
        ));
    }

    #[test]
    fn no_safe_converter_reported() {
        let mut bb = SpecBuilder::new("B");
        let b0 = bb.state("b0");
        bb.ext(b0, "del", b0);
        bb.event("acc");
        bb.event("m");
        let b = bb.build().unwrap();
        let int = Alphabet::from_names(["m"]);
        match solve(&b, &service(), &int) {
            Err(QuotientError::NoSafeConverter { violation }) => {
                assert_eq!(violation.event.name(), "del");
            }
            other => panic!("expected NoSafeConverter, got {other:?}"),
        }
    }

    #[test]
    fn no_progressing_converter_reported() {
        // B deadlocks after acc; the only Int event is a decoy B never
        // enables usefully.
        let mut bb = SpecBuilder::new("B");
        let b0 = bb.state("b0");
        let b1 = bb.state("b1");
        bb.ext(b0, "acc", b1);
        bb.event("decoy");
        bb.event("del");
        let b = bb.build().unwrap();
        let int = Alphabet::from_names(["decoy"]);
        match solve(&b, &service(), &int) {
            Err(QuotientError::NoProgressingConverter { safety_output, .. }) => {
                assert!(safety_output.num_states() >= 1);
            }
            other => panic!("expected NoProgressingConverter, got {other:?}"),
        }
    }

    #[test]
    fn budget_error_reported() {
        let b = relay();
        let a = service();
        let int = Alphabet::from_names(["fwd"]);
        let opts = QuotientOptions {
            max_states: 1,
            ..Default::default()
        };
        assert!(matches!(
            solve_with(&b, &a, &int, &opts),
            Err(QuotientError::StateBudgetExceeded { max_states: 1 })
        ));
    }

    #[test]
    fn constrained_solve_respects_and_reports() {
        // Constraint that forbids the only useful event: no converter.
        let b = relay();
        let a = service();
        let int = Alphabet::from_names(["fwd"]);
        let mut kb = SpecBuilder::new("K");
        kb.state("k0");
        kb.event("fwd");
        let no_fwd = kb.build().unwrap();
        assert!(solve_constrained(&b, &no_fwd, &a, &int).is_err());

        // Permissive constraint: same answer as unconstrained (the
        // composite still verifies against the original B).
        let mut kb = SpecBuilder::new("K");
        let k0 = kb.state("k0");
        kb.ext(k0, "fwd", k0);
        let any = kb.build().unwrap();
        let q = solve_constrained(&b, &any, &a, &int).unwrap();
        assert!(satisfies(&compose(&b, &q.converter), &a).unwrap().is_ok());
    }

    #[test]
    fn constrained_solve_rejects_oversized_constraint_alphabet() {
        let b = relay();
        let a = service();
        let int = Alphabet::from_names(["fwd"]);
        let mut kb = SpecBuilder::new("K");
        let k0 = kb.state("k0");
        kb.ext(k0, "not_in_int", k0);
        let k = kb.build().unwrap();
        assert!(matches!(
            solve_constrained(&b, &k, &a, &int),
            Err(QuotientError::BadProblem(_))
        ));
    }

    #[test]
    fn error_display() {
        let e = QuotientError::StateBudgetExceeded { max_states: 7 };
        assert!(e.to_string().contains('7'));
    }
}
