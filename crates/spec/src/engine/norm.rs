//! Compiled determinization of the service specification.
//!
//! The same subset construction as [`crate::normal::normalize`], run on
//! the [`SubsetKernel`]: hubs are interned, canonically sorted state
//! sets and the ψ step function is a dense `hubs × events` table
//! instead of per-hub `HashMap`s. Hub numbering is internal to the
//! engine — the content per hub (acceptance sets in first-occurrence
//! order over ascending members, and the step function on state sets)
//! is identical to the reference, up to that renaming.

use super::compiled::{build_single, EventTable};
use super::subset::SubsetKernel;
use crate::sink::SinkInfo;
use crate::spec::{Spec, StateId};
use std::collections::HashMap;

/// Sentinel for "event not accepted by this hub" in the step table.
pub(crate) const NO_HUB: u32 = u32::MAX;

/// The compiled normal form of a service specification.
pub(crate) struct CompiledNormal {
    /// Number of hubs (λ*-closed state sets).
    pub(crate) nh: usize,
    /// Number of events in the interned table.
    pub(crate) ne: usize,
    /// Bitset words per row.
    pub(crate) words: usize,
    /// Initial hub (λ*-closure of the initial state).
    pub(crate) initial: u32,
    /// Dense ψ step table, `nh × ne`, [`NO_HUB`] where undefined.
    pub(crate) step: Vec<u32>,
    /// Concatenated acceptance bitsets, `words` u64s each.
    pub(crate) acc_data: Vec<u64>,
    /// Per-hub offsets into `acc_data` in units of sets (length `nh+1`).
    pub(crate) acc_off: Vec<u32>,
    /// Hub-set interning hits during the subset construction.
    pub(crate) dedup_hits: usize,
    /// Bytes held by the step table, acceptance storage, and hub keys.
    pub(crate) arena_bytes: usize,
}

impl CompiledNormal {
    /// Acceptance bitsets of `hub`, first-occurrence order.
    pub(crate) fn acceptance(&self, hub: usize) -> impl Iterator<Item = &[u64]> {
        let lo = self.acc_off[hub] as usize;
        let hi = self.acc_off[hub + 1] as usize;
        (lo..hi).map(move |i| &self.acc_data[i * self.words..(i + 1) * self.words])
    }
}

/// Runs the subset construction over `a` against the interned event
/// table, on the [`SubsetKernel`]: hubs are expanded in id order, ψ
/// steps in event-table order. Every event of `a`'s alphabet must be in
/// the table.
pub(crate) fn compile_normal(a: &Spec, tbl: &EventTable) -> CompiledNormal {
    let ne = tbl.len();
    let words = tbl.words();
    let n = a.num_states();
    let sinks = SinkInfo::compute(a);

    // τ* of each sink SCC, as bits (the acceptance-set alphabet).
    let mut scc_bits: HashMap<usize, Vec<u64>> = HashMap::new();
    for s in a.states() {
        if sinks.is_sink(s) {
            scc_bits
                .entry(sinks.scc_of(s))
                .or_insert_with(|| tbl.alphabet_bits(&sinks.scc_tau(a, s)));
        }
    }

    // `a` in CSR form: external edges labelled by event index, λ edges.
    let csr = build_single(a, tbl);
    let (ext, lambda) = (csr.ext_edges(), csr.int_edges());

    let mut hubs = SubsetKernel::new(n, ne, NO_HUB as usize);
    let mut set = vec![a.initial().0];
    hubs.close(&mut set, lambda, |_| false);
    hubs.intern(&set);

    let mut step: Vec<u32> = Vec::new();
    let mut acc_data: Vec<u64> = Vec::new();
    let mut acc_off: Vec<u32> = vec![0];

    // Hubs are expanded in id order, so `step` and the acceptance
    // storage grow row by row.
    let mut h = 0u32;
    while (h as usize) < hubs.len() {
        // Acceptance: sink SCC τ* sets over ascending members,
        // deduplicated keeping first occurrence — the reference order.
        let first_set = acc_data.len() / words;
        for &s in hubs.get(h) {
            if sinks.is_sink(StateId(s)) {
                let bits = &scc_bits[&sinks.scc_of(StateId(s))];
                let sets_so_far = acc_data.len() / words;
                let dup = (first_set..sets_so_far)
                    .any(|i| &acc_data[i * words..(i + 1) * words] == bits.as_slice());
                if !dup {
                    acc_data.extend_from_slice(bits);
                }
            }
        }
        debug_assert!(
            acc_data.len() / words > first_set,
            "every λ*-closed set contains a sink state"
        );
        acc_off.push((acc_data.len() / words) as u32);

        hubs.expand(h, ext);
        for ev in 0..ne {
            step.push(if hubs.dead(ev) {
                NO_HUB
            } else {
                hubs.step(ev, lambda, |_| false, &mut set);
                hubs.intern(&set).expect("hub ids stay below NO_HUB").0
            });
        }
        h += 1;
    }

    let nh = hubs.len();
    debug_assert_eq!(step.len(), nh * ne);
    let arena_bytes = hubs.key_bytes() + 4 * (step.len() + acc_off.len()) + 8 * acc_data.len();
    CompiledNormal {
        nh,
        ne,
        words,
        initial: 0,
        step,
        acc_data,
        acc_off,
        dedup_hits: hubs.dedup_hits(),
        arena_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normal::normalize;
    use crate::spec::SpecBuilder;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::VecDeque;

    /// Walks the compiled normal form and the reference [`normalize`] in
    /// lockstep from their initial hubs: same hub count, the same
    /// defined/undefined ψ step per event, a consistent hub bijection,
    /// and equal acceptance lists in order.
    fn assert_matches_reference(label: &str, a: &Spec) {
        let reference = normalize(a);
        let tbl = EventTable::new(a.alphabet());
        let norm = compile_normal(a, &tbl);
        assert_eq!(norm.nh, reference.num_hubs(), "{label}: hub count");
        let mut to_ref = vec![usize::MAX; norm.nh];
        let mut to_norm = vec![u32::MAX; norm.nh];
        let mut queue = VecDeque::new();
        let mut pair = |h: u32, r: usize, queue: &mut VecDeque<(u32, usize)>| {
            if to_ref[h as usize] == usize::MAX && to_norm[r] == u32::MAX {
                to_ref[h as usize] = r;
                to_norm[r] = h;
                queue.push_back((h, r));
            }
            assert!(
                to_ref[h as usize] == r && to_norm[r] == h,
                "{label}: hub {h} pairs with reference hubs {r} and {}",
                to_ref[h as usize]
            );
        };
        pair(norm.initial, reference.initial_hub(), &mut queue);
        while let Some((h, r)) = queue.pop_front() {
            let acc: Vec<_> = norm
                .acceptance(h as usize)
                .map(|bits| tbl.to_alphabet(bits))
                .collect();
            assert_eq!(
                acc,
                reference.acceptance(r),
                "{label}: acceptance of hub {h}"
            );
            for (ev, &e) in tbl.events.iter().enumerate() {
                match (norm.step[h as usize * norm.ne + ev], reference.step(r, e)) {
                    (NO_HUB, None) => {}
                    (h2, Some(r2)) if h2 != NO_HUB => pair(h2, r2, &mut queue),
                    (h2, r2) => {
                        panic!("{label}: ψ({h}, {e}) is {h2} here, {r2:?} in the reference")
                    }
                }
            }
        }
        assert!(
            to_norm.iter().all(|&h| h != NO_HUB),
            "{label}: unpaired hubs"
        );
    }

    fn cycle(name: &str, w: usize) -> Spec {
        let mut b = SpecBuilder::new(name);
        let states: Vec<_> = (0..=w).map(|i| b.state(&format!("out{i}"))).collect();
        for i in 0..w {
            b.ext(states[i], "acc", states[i + 1]);
            b.ext(states[i + 1], "del", states[i]);
        }
        b.build().unwrap()
    }

    #[test]
    fn compiled_normal_form_matches_the_reference() {
        // The scaling families' services: exactly-once is window 1.
        for w in 1..=3 {
            assert_matches_reference(&format!("window-{w}"), &cycle("S", w));
        }
        // The §5 weakening (at-least-once), whose duplicate choice is
        // internal: two acceptance sets on one hub.
        let mut b = SpecBuilder::new("S-at-least-once");
        let (u0, u1, hub) = (b.state("u0"), b.state("u1"), b.state("u2"));
        let (done, dup) = (b.state("u2-done"), b.state("u2-dup"));
        b.ext(u0, "acc", u1);
        b.ext(u1, "del", hub);
        b.int(hub, done);
        b.int(hub, dup);
        b.ext(done, "acc", u1);
        b.ext(dup, "del", hub);
        assert_matches_reference("at-least-once", &b.build().unwrap());
        // The random-component sweep's shape (8 states over acc, del and
        // three internal events, two extra edges a state, 30 % λ edges),
        // each component normalized as a service: nondeterminism and
        // λ-closures the services above do not have.
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut b = SpecBuilder::new("random");
            let states: Vec<_> = (0..8).map(|i| b.state(&format!("s{i}"))).collect();
            let events = ["acc", "del", "m0", "m1", "m2"];
            for i in 1..8 {
                let from = states[rng.gen_range(0..i)];
                b.ext(from, events[rng.gen_range(0..events.len())], states[i]);
            }
            for &s in &states {
                for _ in 0..2 {
                    let to = states[rng.gen_range(0..8)];
                    b.ext(s, events[rng.gen_range(0..events.len())], to);
                }
                if rng.gen_range(0..100) < 30 {
                    b.int(s, states[rng.gen_range(0..8)]);
                }
            }
            assert_matches_reference(&format!("random({seed})"), &b.build().unwrap());
        }
    }
}
