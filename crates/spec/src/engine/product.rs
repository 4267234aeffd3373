//! The (composite state × ψ-hub) product check: safety as trace
//! inclusion, progress as sink-acceptance containment.
//!
//! The happy path is a depth-first frontier over a bitmap of pairs,
//! then one scan of the reached pairs against the system's τ* rows.
//! Only when a check *fails* does a canonical BFS re-walk run,
//! reproducing the reference exploration order exactly — so the
//! witness trace, violation state id, and needed/offered sets are bit
//! identical to [`crate::satisfies`].

use super::compiled::{bits_subset, CompiledComposite};
use super::norm::{CompiledNormal, NO_HUB};
use super::CompiledSystem;
use crate::satisfy::{SatisfactionResult, Violation};
use crate::spec::StateId;
use std::collections::{HashMap, VecDeque};

use super::compiled::EventTable;

/// Sequential canonical re-walk of the product, in exactly the
/// reference [`crate::satisfy`] exploration order: FIFO over pairs,
/// internal edges before external edges, stopping at the first
/// undefined ψ step when `stop` is set.
struct Walk {
    /// `(state, hub)` pairs in discovery order.
    pairs: Vec<(u32, u32)>,
    /// Per pair: parent index and the external event (as a table index,
    /// `u32::MAX` for internal moves / the root).
    parents: Vec<(u32, u32)>,
    /// First safety violation: (pair index, event-table index).
    violation: Option<(usize, u32)>,
}

const NO_EVENT: u32 = u32::MAX;
const NO_PARENT: u32 = u32::MAX;

fn canonical_walk(comp: &CompiledComposite, norm: &CompiledNormal, stop: bool) -> Walk {
    let ne = norm.ne;
    let mut index: HashMap<(u32, u32), u32> = HashMap::new();
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut parents: Vec<(u32, u32)> = Vec::new();
    let mut work: VecDeque<u32> = VecDeque::new();
    let start = (comp.initial, norm.initial);
    index.insert(start, 0);
    pairs.push(start);
    parents.push((NO_PARENT, NO_EVENT));
    work.push_back(0);
    let mut violation = None;

    while let Some(i) = work.pop_front() {
        let (t, h) = pairs[i as usize];
        let tu = t as usize;
        for k in comp.int_off[tu] as usize..comp.int_off[tu + 1] as usize {
            let key = (comp.int_tgt[k], h);
            if let std::collections::hash_map::Entry::Vacant(v) = index.entry(key) {
                let id = pairs.len() as u32;
                v.insert(id);
                pairs.push(key);
                parents.push((i, NO_EVENT));
                work.push_back(id);
            }
        }
        for k in comp.ext_off[tu] as usize..comp.ext_off[tu + 1] as usize {
            let ev = comp.ext_ev[k];
            let h2 = norm.step[h as usize * ne + ev as usize];
            if h2 == NO_HUB {
                if violation.is_none() {
                    violation = Some((i as usize, ev));
                    if stop {
                        return Walk {
                            pairs,
                            parents,
                            violation,
                        };
                    }
                }
                continue;
            }
            let key = (comp.ext_tgt[k], h2);
            if let std::collections::hash_map::Entry::Vacant(v) = index.entry(key) {
                let id = pairs.len() as u32;
                v.insert(id);
                pairs.push(key);
                parents.push((i, ev));
                work.push_back(id);
            }
        }
    }
    Walk {
        pairs,
        parents,
        violation,
    }
}

fn trace_to(walk: &Walk, tbl: &EventTable, mut i: usize) -> Vec<crate::event::EventId> {
    let mut rev = Vec::new();
    loop {
        let (p, ev) = walk.parents[i];
        if p == NO_PARENT {
            break;
        }
        if ev != NO_EVENT {
            rev.push(tbl.events[ev as usize]);
        }
        i = p as usize;
    }
    rev.reverse();
    rev
}

/// Outcome of the product check.
pub(crate) struct ProductOutcome {
    pub(crate) verdict: SatisfactionResult,
    /// Reachable product pairs (up to the stopping point on a safety
    /// violation).
    pub(crate) pairs: usize,
}

pub(crate) fn run_product(sys: &CompiledSystem) -> ProductOutcome {
    let (comp, norm, tau, tbl) = (&sys.comp, &sys.norm, &sys.tau, &*sys.table);
    let total = comp.n as u64 * norm.nh as u64;
    let Some(seen) = reachable_pairs(comp, norm, total) else {
        // Canonical re-walk to the reference's first violation.
        let walk = canonical_walk(comp, norm, true);
        let (i, ev) = walk
            .violation
            .expect("the frontier saw a violation the canonical walk must reach");
        let mut trace = trace_to(&walk, tbl, i);
        trace.push(tbl.events[ev as usize]);
        return ProductOutcome {
            verdict: Err(Violation::Safety { trace }),
            pairs: walk.pairs.len(),
        };
    };

    // Progress: some acceptance set of the hub must be offered (τ*) by
    // the composite state, for every reachable pair.
    let any_fail = progress_fails(norm, &seen, tau, total);
    let pairs = seen.iter().map(|w| w.count_ones() as usize).sum();

    if !any_fail {
        return ProductOutcome {
            verdict: Ok(()),
            pairs,
        };
    }

    // Canonical re-walk (no safety violation exists) to the reference's
    // first progress-violating pair in discovery order.
    let words = norm.words;
    let walk = canonical_walk(comp, norm, false);
    debug_assert!(walk.violation.is_none());
    for (i, &(t, h)) in walk.pairs.iter().enumerate() {
        let offered = &tau[t as usize * words..(t as usize + 1) * words];
        let ok = norm
            .acceptance(h as usize)
            .any(|needed| bits_subset(needed, offered));
        if !ok {
            let needed = norm
                .acceptance(h as usize)
                .map(|bits| tbl.to_alphabet(bits))
                .collect();
            return ProductOutcome {
                verdict: Err(Violation::Progress {
                    trace: trace_to(&walk, tbl, i),
                    state: StateId(t),
                    needed,
                    offered: tbl.to_alphabet(offered),
                }),
                pairs,
            };
        }
    }
    unreachable!("progress scan failed but canonical walk found no violating pair")
}

/// The frontier: a depth-first walk over a bitmap of pairs. Returns
/// the reachable-pair bitmap, or `None` at the first undefined ψ step.
fn reachable_pairs(
    comp: &CompiledComposite,
    norm: &CompiledNormal,
    total: u64,
) -> Option<Vec<u64>> {
    let ne = norm.ne;
    let nh = norm.nh as u64;
    let mut seen = vec![0u64; total.div_ceil(64) as usize];
    let mut mark = |p: u64| {
        let (w, bit) = ((p / 64) as usize, 1u64 << (p % 64));
        let fresh = seen[w] & bit == 0;
        seen[w] |= bit;
        fresh
    };
    let root = comp.initial as u64 * nh + norm.initial as u64;
    mark(root);
    let mut stack = vec![root];
    while let Some(p) = stack.pop() {
        let t = (p / nh) as usize;
        let h = p % nh;
        for k in comp.int_off[t] as usize..comp.int_off[t + 1] as usize {
            let p2 = comp.int_tgt[k] as u64 * nh + h;
            if mark(p2) {
                stack.push(p2);
            }
        }
        for k in comp.ext_off[t] as usize..comp.ext_off[t + 1] as usize {
            let h2 = norm.step[h as usize * ne + comp.ext_ev[k] as usize];
            if h2 == NO_HUB {
                return None;
            }
            let p2 = comp.ext_tgt[k] as u64 * nh + h2 as u64;
            if mark(p2) {
                stack.push(p2);
            }
        }
    }
    Some(seen)
}

fn progress_fails(norm: &CompiledNormal, seen: &[u64], tau: &[u64], total: u64) -> bool {
    let words = norm.words;
    let nh = norm.nh as u64;
    for p in 0..total {
        if seen[(p / 64) as usize] >> (p % 64) & 1 == 0 {
            continue;
        }
        let t = (p / nh) as usize;
        let h = (p % nh) as usize;
        let offered = &tau[t * words..(t + 1) * words];
        if !norm
            .acceptance(h)
            .any(|needed| bits_subset(needed, offered))
        {
            return true;
        }
    }
    false
}
