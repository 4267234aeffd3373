//! Independent verification that a candidate converter actually works:
//! composes `B ‖ C` and runs the full satisfaction check against `A`,
//! on each part's bisimulation minimum first and on the literal parts
//! only to name a failure's witness.
//!
//! The quotient algorithm is proven correct in the paper, but this crate
//! re-checks every derivation in tests and benches — the implementation,
//! not the theorem, is what could be wrong.

use protoquot_spec::{
    compose, satisfies, verify_system, CompiledSystem, Spec, SpecError, VerifyEngineStats,
    Violation,
};

/// Result of a verification: `Ok(())`, a counterexample, or a malformed
/// setup (alphabet mismatch between `B ‖ C` and `A`).
#[derive(Debug)]
pub enum VerifyError {
    /// The composite's interface differs from the service's — usually a
    /// wrong `Int` split.
    Setup(SpecError),
    /// `B ‖ C` does not satisfy `A`.
    Unsatisfied(Violation),
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Setup(e) => write!(f, "verification setup error: {e}"),
            VerifyError::Unsatisfied(v) => write!(f, "converter does not work: {v}"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Checks `B ‖ converter satisfies A`.
///
/// ```
/// use protoquot_core::{solve, verify_converter};
/// use protoquot_spec::{Alphabet, SpecBuilder};
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
/// bb.ext(b1, "fwd", b2);
/// bb.ext(b2, "del", b0);
/// let b = bb.build().unwrap();
/// let int = Alphabet::from_names(["fwd"]);
/// let q = solve(&b, &service, &int).unwrap();
/// verify_converter(&b, &service, &q.converter).unwrap();
/// ```
pub fn verify_converter(b: &Spec, a: &Spec, converter: &Spec) -> Result<(), VerifyError> {
    match converter_verdict(b, a, converter) {
        Ok(Ok(())) => Ok(()),
        Ok(Err(v)) => Err(VerifyError::Unsatisfied(v)),
        Err(e) => Err(VerifyError::Setup(e)),
    }
}

/// Like [`verify_converter`], but mirrors the shape of
/// [`protoquot_spec::satisfies`]: the outer error is a malformed setup,
/// the inner result is the verdict with its counterexample. Used by the
/// soak machinery to compare the *static* verdict against dynamic runs
/// without collapsing the violation details into a display-only error.
pub fn converter_verdict(
    b: &Spec,
    a: &Spec,
    converter: &Spec,
) -> Result<Result<(), Violation>, SpecError> {
    converter_verdict_with(b, a, converter, 1).map(|(verdict, _)| verdict)
}

/// [`converter_verdict`] on the compiled verification engine, also
/// returning the engine counters. The verdict (and any witness inside
/// it) is bit identical to the reference.
///
/// The check runs on the compositional minimum
/// ([`CompiledSystem::minimal`]), whose verdict is the literal one. Only
/// when it fails is the literal `B ‖ C` walked again, so that the
/// witness is the reference's. The stats are those of the system whose
/// verdict is returned: the minimized composite on `Ok`, the literal one
/// on `Err`. `threads` is ignored: the check runs on the calling thread.
pub fn converter_verdict_with(
    b: &Spec,
    a: &Spec,
    converter: &Spec,
    _threads: usize,
) -> Result<(Result<(), Violation>, VerifyEngineStats), SpecError> {
    let out = CompiledSystem::minimal(&[b, converter], a)?.verify();
    let out = match out.verdict {
        Ok(()) => out,
        Err(_) => verify_system(&[b, converter], a)?,
    };
    Ok((out.verdict, out.stats))
}

/// The retained reference oracle: materialize `B ‖ C` with the pairwise
/// [`protoquot_spec::compose()`] and run the interpreted
/// [`protoquot_spec::satisfies`]. `tests/verify_differential.rs` holds
/// [`converter_verdict`] to this bit for bit.
pub fn converter_verdict_reference(
    b: &Spec,
    a: &Spec,
    converter: &Spec,
) -> Result<Result<(), Violation>, SpecError> {
    let composite = compose(b, converter);
    satisfies(&composite, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::solve;
    use protoquot_spec::{Alphabet, SpecBuilder};

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
    fn derived_converter_verifies() {
        let b = relay();
        let a = service();
        let int = Alphabet::from_names(["fwd"]);
        let q = solve(&b, &a, &int).unwrap();
        verify_converter(&b, &a, &q.converter).unwrap();
    }

    #[test]
    fn broken_converter_rejected() {
        let b = relay();
        let a = service();
        // A converter that never forwards: deadlock after acc.
        let mut cb = SpecBuilder::new("stuck");
        cb.state("c0");
        cb.event("fwd");
        let stuck = cb.build().unwrap();
        match verify_converter(&b, &a, &stuck) {
            Err(VerifyError::Unsatisfied(Violation::Progress { .. })) => {}
            other => panic!("expected progress violation, got {other:?}"),
        }
    }

    #[test]
    fn wrong_interface_rejected() {
        let b = relay();
        let a = service();
        // Converter whose alphabet leaves `fwd` exposed.
        let mut cb = SpecBuilder::new("noop");
        cb.state("c0");
        cb.event("unrelated");
        let noop = cb.build().unwrap();
        match verify_converter(&b, &a, &noop) {
            Err(VerifyError::Setup(_)) => {}
            other => panic!("expected setup error, got {other:?}"),
        }
    }

    #[test]
    fn engine_verdict_matches_reference_oracle() {
        let b = relay();
        let a = service();
        let int = Alphabet::from_names(["fwd"]);
        let q = solve(&b, &a, &int).unwrap();
        let mut cb = SpecBuilder::new("stuck");
        cb.state("c0");
        cb.event("fwd");
        let stuck = cb.build().unwrap();
        for converter in [&q.converter, &stuck] {
            let reference = converter_verdict_reference(&b, &a, converter);
            let engine = converter_verdict(&b, &a, converter);
            assert_eq!(format!("{reference:?}"), format!("{engine:?}"));
        }
    }

    #[test]
    fn error_display() {
        let e = VerifyError::Unsatisfied(Violation::Safety {
            trace: protoquot_spec::trace_of(&["x"]),
        });
        assert!(e.to_string().contains("does not work"));
    }
}
