//! # protoquot-bench
//!
//! Experiment reporting for the Calvert & Lam SIGCOMM '89
//! reproduction: [`paper_report`] regenerates the qualitative results —
//! existence/non-existence, machine sizes, phase statistics — recorded
//! in `EXPERIMENTS.md`, and the `report` binary prints every table
//! there, timings included.
//!
//! Run `cargo run --release -p protoquot-bench --bin report`. The
//! end-to-end and per-layer benchmark is `pqbench` (its own package).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use protoquot_core::{solve, verify_converter, QuotientError};
use protoquot_protocols::{
    ab_system, at_least_once, colocated_configuration, exactly_once, ns_system,
    symmetric_configuration,
};
use protoquot_spec::satisfies;
use std::fmt::Write as _;

/// Regenerates the paper's §5 results as a text report: the inputs'
/// sizes, both configurations' outcomes, the weakened-service variant,
/// and the formalization validations. Every line is re-derived, not
/// hard-coded.
pub fn paper_report() -> String {
    let mut out = String::new();
    let exact = exactly_once();
    let weak = at_least_once();

    writeln!(out, "== Calvert & Lam SIGCOMM '89 — experiment report ==").unwrap();

    // Formalization validation (Figures 7, 8, 10, 11).
    let ab = ab_system();
    let ns = ns_system();
    writeln!(
        out,
        "AB system (A0||Ach||A1): {} states; satisfies exactly-once: {}",
        ab.num_states(),
        satisfies(&ab, &exact).unwrap().is_ok()
    )
    .unwrap();
    writeln!(
        out,
        "NS system (N0||Nch||N1): {} states; satisfies exactly-once: {}; \
         satisfies at-least-once: {}",
        ns.num_states(),
        satisfies(&ns, &exact).unwrap().is_ok(),
        satisfies(&ns, &weak).unwrap().is_ok()
    )
    .unwrap();

    // EXP-F12: symmetric configuration.
    let sym = symmetric_configuration();
    writeln!(
        out,
        "symmetric B = A0||Ach||Nch||N1: {} states, |Int| = {}",
        sym.b.num_states(),
        sym.int.len()
    )
    .unwrap();
    match solve(&sym.b, &exact, &sym.int) {
        Err(QuotientError::NoProgressingConverter {
            safety_output,
            iterations,
            ..
        }) => {
            writeln!(
                out,
                "  EXP-F12: safety phase -> {} states / {} transitions (cf. Fig. 12); \
                 progress emptied it in {} iterations -> NO converter (paper agrees)",
                safety_output.num_states(),
                safety_output.num_external(),
                iterations
            )
            .unwrap();
        }
        other => writeln!(out, "  EXP-F12: UNEXPECTED {other:?}").unwrap(),
    }

    // EXP-F13/14: co-located configuration.
    let col = colocated_configuration();
    writeln!(
        out,
        "co-located B = A0||Ach||N1: {} states, |Int| = {}",
        col.b.num_states(),
        col.int.len()
    )
    .unwrap();
    match solve(&col.b, &exact, &col.int) {
        Ok(q) => {
            let verified = verify_converter(&col.b, &exact, &q.converter).is_ok();
            writeln!(
                out,
                "  EXP-F14: converter DERIVED -> {} states / {} transitions \
                 (safety {} states, progress removed {} in {} iterations); verified: {} \
                 (cf. Fig. 14)",
                q.converter.num_states(),
                q.converter.num_external(),
                q.stats.safety_states,
                q.stats.removed_states,
                q.stats.progress_iterations,
                verified
            )
            .unwrap();
        }
        Err(e) => writeln!(out, "  EXP-F14: UNEXPECTED failure {e}").unwrap(),
    }

    // EXP-W: weakened service on the symmetric configuration.
    match solve(&sym.b, &weak, &sym.int) {
        Ok(q) => writeln!(
            out,
            "  EXP-W: at-least-once service -> converter DERIVED for the symmetric \
             configuration ({} states); verified: {} (paper's §5 remark)",
            q.converter.num_states(),
            verify_converter(&sym.b, &weak, &q.converter).is_ok()
        )
        .unwrap(),
        Err(e) => writeln!(out, "  EXP-W: UNEXPECTED failure {e}").unwrap(),
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_regenerates_the_paper_results() {
        let r = paper_report();
        assert!(r.contains("EXP-F12"), "{r}");
        assert!(r.contains("NO converter"), "{r}");
        assert!(r.contains("converter DERIVED"), "{r}");
        assert!(!r.contains("UNEXPECTED"), "{r}");
    }
}
