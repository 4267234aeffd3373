//! Strong bisimulation: minimization and equivalence checking.
//!
//! [`minimize`] quotients a machine by strong bisimulation and
//! [`bisimilar`] compares two machines. The runtime guard serves each
//! part's minimum, and tests compare algorithm outputs modulo state
//! naming. Internal moves are one more label, so this is finer than
//! trace or testing equivalence. Both run on the engine's one
//! O(m log n) partition-refinement kernel.

use crate::engine::{bisim_classes, Csr};
use crate::event::EventId;
use crate::spec::{spec_from_parts, Spec, StateId};

/// `specs` side by side as one labelled graph: each spec's states follow
/// the ones before it, an external edge is labelled by its event's rank
/// among the events of the alphabets, and an internal edge by one label
/// more.
fn graph(specs: &[&Spec]) -> (Vec<u32>, Vec<u32>, Vec<u32>, usize) {
    let mut events: Vec<EventId> = specs.iter().flat_map(|s| s.alphabet().iter()).collect();
    events.sort_unstable();
    events.dedup();
    let (mut off, mut ev, mut tgt, mut base) = (vec![0], Vec::new(), Vec::new(), 0);
    for spec in specs {
        for s in spec.states() {
            for &(e, t) in spec.external_from(s) {
                ev.push(events.binary_search(&e).expect("collected above") as u32);
                tgt.push(base + t.0);
            }
            for &t in spec.internal_from(s) {
                ev.push(events.len() as u32);
                tgt.push(base + t.0);
            }
            off.push(tgt.len() as u32);
        }
        base += spec.num_states() as u32;
    }
    (off, ev, tgt, events.len() + 1)
}

/// Quotients the specification by strong bisimulation. States are
/// numbered breadth first from the initial one, and each takes the name
/// and the edge order of the state it was first reached at.
///
/// ```
/// use protoquot_spec::{minimize, bisimilar, SpecBuilder};
/// // A 4-state unrolling of a 2-state loop.
/// let mut b = SpecBuilder::new("unrolled");
/// let s: Vec<_> = (0..4).map(|i| b.state(&format!("s{i}"))).collect();
/// for i in 0..4 {
///     b.ext(s[i], if i % 2 == 0 { "e" } else { "f" }, s[(i + 1) % 4]);
/// }
/// let big = b.build().unwrap();
/// let small = minimize(&big);
/// assert_eq!(small.num_states(), 2);
/// assert!(bisimilar(&big, &small));
/// ```
pub fn minimize(spec: &Spec) -> Spec {
    let (off, ev, tgt, labels) = graph(&[spec]);
    let csr = Csr {
        off: &off,
        ev: &ev,
        tgt: &tgt,
    };
    let (class, reps) = bisim_classes(csr, labels, &[spec.initial().0]);
    let to = |t: StateId| StateId(class[t.index()]);
    let (mut ext, mut int) = (Vec::new(), Vec::new());
    for (c, &r) in reps.iter().enumerate() {
        let (from, r) = (StateId(c as u32), StateId(r));
        ext.extend(spec.external_from(r).iter().map(|&(e, t)| (from, e, to(t))));
        int.extend(spec.internal_from(r).iter().map(|&t| (from, to(t))));
    }
    let names = reps.iter().map(|&r| spec.state_name(StateId(r)).to_owned());
    let (name, alphabet) = (format!("{}/min", spec.name()), spec.alphabet().clone());
    spec_from_parts(name, alphabet, names.collect(), StateId(0), ext, int)
        .expect("minimization preserves validity")
}

/// True iff the two specifications have equal alphabets and bisimilar
/// initial states.
pub fn bisimilar(a: &Spec, b: &Spec) -> bool {
    if a.alphabet() != b.alphabet() {
        return false;
    }
    let (off, ev, tgt, labels) = graph(&[a, b]);
    let csr = Csr {
        off: &off,
        ev: &ev,
        tgt: &tgt,
    };
    let roots = [a.initial().0, a.num_states() as u32 + b.initial().0];
    let (class, _) = bisim_classes(csr, labels, &roots);
    class[roots[0] as usize] == class[roots[1] as usize]
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecBuilder;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// A random machine of 1..=8 states over `a`, `b`, `c`, with some
    /// internal moves and possibly unreachable states.
    fn random_spec(seed: u64) -> Spec {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = SpecBuilder::new("random");
        let n = rng.gen_range(1..9);
        let s: Vec<_> = (0..n).map(|i| b.state(&format!("s{i}"))).collect();
        for e in ["a", "b", "c"] {
            b.event(e);
        }
        for _ in 0..rng.gen_range(0..2 * n + 1) {
            let (from, to) = (s[rng.gen_range(0..n)], s[rng.gen_range(0..n)]);
            b.ext(from, ["a", "b", "c"][rng.gen_range(0..3)], to);
        }
        for _ in 0..rng.gen_range(0..n / 2 + 1) {
            b.int(s[rng.gen_range(0..n)], s[rng.gen_range(0..n)]);
        }
        b.build().unwrap()
    }

    /// Bisimilarity as the greatest fixpoint over pairs of states: drop
    /// a pair while one side has a move the other cannot match.
    fn bisimilarity(spec: &Spec) -> Vec<Vec<bool>> {
        let n = spec.num_states();
        let moves = |s: usize| -> Vec<(Option<EventId>, usize)> {
            let s = StateId(s as u32);
            let ext = spec
                .external_from(s)
                .iter()
                .map(|&(e, t)| (Some(e), t.index()));
            ext.chain(spec.internal_from(s).iter().map(|&t| (None, t.index())))
                .collect()
        };
        let mut rel = vec![vec![true; n]; n];
        let mut changed = true;
        while changed {
            changed = false;
            for p in 0..n {
                for q in 0..n {
                    let matched = |x: usize, y: usize| {
                        moves(x)
                            .iter()
                            .all(|&(l, x2)| moves(y).iter().any(|&(l2, y2)| l == l2 && rel[x2][y2]))
                    };
                    if rel[p][q] && !(matched(p, q) && matched(q, p)) {
                        rel[p][q] = false;
                        changed = true;
                    }
                }
            }
        }
        rel
    }

    #[test]
    fn kernel_classes_are_bisimilarity() {
        for seed in 0..400 {
            let spec = random_spec(seed);
            let (off, ev, tgt, labels) = graph(&[&spec]);
            let csr = Csr {
                off: &off,
                ev: &ev,
                tgt: &tgt,
            };
            let all: Vec<u32> = (0..spec.num_states() as u32).collect();
            let (class, reps) = bisim_classes(csr, labels, &all);
            let rel = bisimilarity(&spec);
            for p in 0..spec.num_states() {
                assert!(reps[class[p] as usize] as usize <= p, "seed {seed}");
                for q in 0..spec.num_states() {
                    assert_eq!(class[p] == class[q], rel[p][q], "seed {seed}: {p} ~ {q}");
                }
            }
        }
    }

    #[test]
    fn minimum_is_bisimilar_idempotent_and_has_no_bisimilar_states() {
        for seed in 0..400 {
            let spec = random_spec(seed);
            let m = minimize(&spec);
            assert!(bisimilar(&spec, &m), "seed {seed}");
            assert_eq!(minimize(&m).with_name(m.name()), m, "seed {seed}");
            let rel = bisimilarity(&m);
            for (p, row) in rel.iter().enumerate() {
                for (q, &related) in row.iter().enumerate() {
                    assert_eq!(related, p == q, "seed {seed}: {p} ~ {q}");
                }
            }
        }
    }

    #[test]
    fn renumbering_the_states_changes_nothing() {
        for seed in 0..400 {
            let spec = random_spec(seed);
            let mut rng = StdRng::seed_from_u64(!seed);
            let n = spec.num_states();
            // Fisher–Yates: state `s` becomes `to[s]`.
            let mut to: Vec<u32> = (0..n as u32).collect();
            for i in (1..n).rev() {
                to.swap(i, rng.gen_range(0..i + 1));
            }
            let map = |s: StateId| StateId(to[s.index()]);
            let mut names = vec![String::new(); n];
            for s in spec.states() {
                names[to[s.index()] as usize] = spec.state_name(s).to_owned();
            }
            let ext = spec
                .external_transitions()
                .map(|(s, e, t)| (map(s), e, map(t)));
            let int = spec.internal_transitions().map(|(s, t)| (map(s), map(t)));
            let renumbered = spec_from_parts(
                spec.name().to_owned(),
                spec.alphabet().clone(),
                names,
                map(spec.initial()),
                ext.collect(),
                int.collect(),
            )
            .unwrap();
            assert_eq!(minimize(&renumbered), minimize(&spec), "seed {seed}");
        }
    }

    #[test]
    fn a_long_chain_minimizes_in_well_under_a_second() {
        // s0 -a-> s1 -a-> … -a-> s19999: no two states are bisimilar, and
        // round-based refinement would need 20,000 rounds.
        let n = 20_000;
        let names = (0..n).map(|i| format!("s{i}")).collect();
        let a = EventId::new("a");
        let ext = (0..n - 1)
            .map(|i| (StateId(i), a, StateId(i + 1)))
            .collect();
        let alphabet = crate::event::Alphabet::from_names(["a"]);
        let chain = spec_from_parts("chain".into(), alphabet, names, StateId(0), ext, vec![]);
        let chain = chain.unwrap();
        let t = std::time::Instant::now();
        let m = minimize(&chain);
        let elapsed = t.elapsed();
        assert_eq!(m.num_states(), n as usize);
        assert!(elapsed.as_secs_f64() < 1.0, "took {elapsed:?}");
    }

    fn two_state_loop(name: &str) -> Spec {
        let mut b = SpecBuilder::new(name);
        let x = b.state("x");
        let y = b.state("y");
        b.ext(x, "e", y);
        b.ext(y, "f", x);
        b.build().unwrap()
    }

    #[test]
    fn identical_machines_are_bisimilar() {
        let a = two_state_loop("a");
        let b = two_state_loop("b");
        assert!(bisimilar(&a, &b));
    }

    #[test]
    fn unrolled_loop_minimizes_back() {
        // x -e-> y -f-> x2 -e-> y2 -f-> x : a 4-state unrolling of the
        // 2-state loop.
        let mut b = SpecBuilder::new("unrolled");
        let x = b.state("x");
        let y = b.state("y");
        let x2 = b.state("x2");
        let y2 = b.state("y2");
        b.ext(x, "e", y);
        b.ext(y, "f", x2);
        b.ext(x2, "e", y2);
        b.ext(y2, "f", x);
        let big = b.build().unwrap();
        let small = minimize(&big);
        assert_eq!(small.num_states(), 2);
        assert!(bisimilar(&big, &small));
        assert!(bisimilar(&big, &two_state_loop("ref")));
    }

    #[test]
    fn different_behaviour_not_bisimilar() {
        let a = two_state_loop("a");
        let mut b = SpecBuilder::new("b");
        let x = b.state("x");
        let y = b.state("y");
        b.ext(x, "e", y);
        b.ext(y, "e", x); // f replaced by e
        b.event("f");
        let other = b.build().unwrap();
        assert!(!bisimilar(&a, &other));
    }

    #[test]
    fn alphabet_mismatch_not_bisimilar() {
        let a = two_state_loop("a");
        let mut bb = SpecBuilder::new("b");
        let x = bb.state("x");
        let y = bb.state("y");
        bb.ext(x, "e", y);
        bb.ext(y, "f", x);
        bb.event("extra");
        let b = bb.build().unwrap();
        assert!(!bisimilar(&a, &b));
    }

    #[test]
    fn internal_transitions_distinguish_strongly() {
        // x -e-> y  vs  x ~> m -e-> y : trace-equivalent but not strongly
        // bisimilar.
        let mut b1 = SpecBuilder::new("direct");
        let x = b1.state("x");
        let y = b1.state("y");
        b1.ext(x, "e", y);
        let direct = b1.build().unwrap();
        let mut b2 = SpecBuilder::new("stutter");
        let x = b2.state("x");
        let m = b2.state("m");
        let y = b2.state("y");
        b2.int(x, m);
        b2.ext(m, "e", y);
        let stutter = b2.build().unwrap();
        assert!(!bisimilar(&direct, &stutter));
    }

    #[test]
    fn minimize_merges_duplicate_deadends() {
        let mut b = SpecBuilder::new("dup");
        let s = b.state("s");
        let d1 = b.state("d1");
        let d2 = b.state("d2");
        b.ext(s, "e", d1);
        b.ext(s, "e", d2);
        let spec = b.build().unwrap();
        let m = minimize(&spec);
        assert_eq!(m.num_states(), 2);
        assert_eq!(m.num_external(), 1);
    }

    #[test]
    fn minimize_is_idempotent() {
        let a = two_state_loop("a");
        let m1 = minimize(&a);
        let m2 = minimize(&m1);
        assert_eq!(m1.num_states(), m2.num_states());
        assert!(bisimilar(&m1, &m2));
    }
}
