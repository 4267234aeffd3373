//! The subset-construction kernel.
//!
//! Three constructions determinize something by stepping sets of `u32`
//! elements: the Fig. 5 safety phase (sets of `(a, b)` pairs stepped by
//! `φ`), the service's normal form (λ*-closed state sets stepped by ψ)
//! and the runtime guard DFA (τ-closed composite subsets under a
//! ψ-hub). Each is one loop over a [`SubsetKernel`]:
//!
//! * **Interning.** Sets are keys of a [`SliceInterner`], which hands out
//!   ids in first-intern order. Walking ids `0, 1, 2, …` therefore visits
//!   states in FIFO discovery order, with no queue.
//! * **Budget.** [`SubsetKernel::intern`] refuses a new set once the
//!   exact state budget is used up, before inserting it.
//! * **Step.** [`SubsetKernel::expand`] buckets a state's labelled edges
//!   (an `(off, ev, tgt)` [`Csr`]) by event in one pass, and
//!   [`SubsetKernel::step`] reads one event's image off its bucket and
//!   closes it under an unlabelled [`Csr`], aborting at the first "bad"
//!   element. One flag-reset `seen` array deduplicates both.

const EMPTY: u32 = u32::MAX;

fn hash(key: &[u32]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = key.len() as u64;
    for &w in key {
        h = (h.rotate_left(5) ^ u64::from(w)).wrapping_mul(K);
    }
    h
}

/// Interns `u32` slices (of any lengths) into ids `0, 1, 2, …`.
///
/// Keys live back to back in one arena; an open-addressing table of
/// `u32` ids, probed linearly and hashed by a small multiplicative
/// hasher, maps a key to the id it was first interned under. A probe
/// borrows the caller's slice, so a hit allocates nothing and a miss
/// only appends to the arena. Ids are handed out in first-intern order,
/// so the numbering is independent of the hash function.
pub struct SliceInterner {
    arena: Vec<u32>,
    /// Key `i` is `arena[off[i]..off[i + 1]]`.
    off: Vec<usize>,
    /// Hash per id, kept so growth never rehashes a key.
    hashes: Vec<u64>,
    /// Open-addressing slots holding ids, [`EMPTY`] when free; the
    /// length is a power of two kept at least twice the key count.
    slots: Vec<u32>,
    shift: u32,
}

impl Default for SliceInterner {
    fn default() -> SliceInterner {
        SliceInterner::new()
    }
}

impl SliceInterner {
    /// An empty interner.
    pub fn new() -> SliceInterner {
        SliceInterner {
            arena: Vec::new(),
            off: vec![0],
            hashes: Vec::new(),
            slots: vec![EMPTY; 16],
            shift: 64 - 4,
        }
    }

    /// Number of interned keys.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The key interned under `id`.
    pub fn get(&self, id: u32) -> &[u32] {
        &self.arena[self.off[id as usize]..self.off[id as usize + 1]]
    }

    /// The id of `key`, interning it if new; the flag is true when it
    /// was new.
    pub fn intern(&mut self, key: &[u32]) -> (u32, bool) {
        self.intern_within(key, usize::MAX)
            .expect("slice interner is full")
    }

    /// Like [`SliceInterner::intern`], but a new key is refused (`None`)
    /// when `max_keys` keys are interned already.
    pub fn intern_within(&mut self, key: &[u32], max_keys: usize) -> Option<(u32, bool)> {
        let h = hash(key);
        let mask = self.slots.len() - 1;
        let mut i = (h >> self.shift) as usize;
        loop {
            let id = self.slots[i];
            if id == EMPTY {
                break;
            }
            if self.hashes[id as usize] == h && self.get(id) == key {
                return Some((id, false));
            }
            i = (i + 1) & mask;
        }
        if self.len() >= max_keys.min(EMPTY as usize) {
            return None;
        }
        let id = self.hashes.len() as u32;
        self.slots[i] = id;
        self.hashes.push(h);
        self.arena.extend_from_slice(key);
        self.off.push(self.arena.len());
        if 2 * self.hashes.len() > self.slots.len() {
            self.grow();
        }
        Some((id, true))
    }

    fn grow(&mut self) {
        self.slots = vec![EMPTY; self.slots.len() * 2];
        self.shift -= 1;
        let mask = self.slots.len() - 1;
        for (id, &h) in self.hashes.iter().enumerate() {
            let mut i = (h >> self.shift) as usize;
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = id as u32;
        }
    }

    /// Words held by the key arena.
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// The key arena, keys back to back in id order.
    pub fn into_arena(self) -> Vec<u32> {
        self.arena
    }
}

/// A graph over dense `u32` nodes in compressed sparse row form: node
/// `u`'s edges are `k ∈ off[u]..off[u + 1]`, going to `tgt[k]` and
/// labelled `ev[k]` (an unlabelled graph leaves `ev` empty).
#[derive(Clone, Copy)]
pub struct Csr<'a> {
    /// Row offsets, one more than the node count.
    pub off: &'a [u32],
    /// Event label per edge (empty when unlabelled).
    pub ev: &'a [u32],
    /// Target node per edge.
    pub tgt: &'a [u32],
}

impl Csr<'_> {
    pub(crate) fn edges(&self, u: u32) -> std::ops::Range<usize> {
        self.off[u as usize] as usize..self.off[u as usize + 1] as usize
    }
}

/// Interned subsets of a `u32` universe plus the scratch that steps
/// them; see the module docs.
pub struct SubsetKernel {
    ids: SliceInterner,
    max_states: usize,
    /// Leading words of every key that are not members (the guard's
    /// ψ-hub); [`SubsetKernel::expand`] skips them.
    tags: usize,
    dedup_hits: usize,
    /// Membership flags over the universe; all clear between calls.
    seen: Vec<bool>,
    /// Event `ev`'s bucket of the last expanded state is
    /// `bucket[start[ev]..start[ev + 1]]`.
    start: Vec<u32>,
    fill: Vec<u32>,
    bucket: Vec<u32>,
}

impl SubsetKernel {
    /// A kernel over elements `0..universe` stepped by events
    /// `0..events`, admitting at most `max_states` sets.
    pub fn new(universe: usize, events: usize, max_states: usize) -> SubsetKernel {
        SubsetKernel {
            ids: SliceInterner::new(),
            max_states,
            tags: 0,
            dedup_hits: 0,
            seen: vec![false; universe],
            start: vec![0; events + 1],
            fill: Vec::new(),
            bucket: Vec::new(),
        }
    }

    /// The same kernel with every key led by `tags` words that are not
    /// members.
    pub fn tagged(mut self, tags: usize) -> SubsetKernel {
        self.tags = tags;
        self
    }

    /// The id of `key`, interning it if new (flag true); `None` when it
    /// is new and the state budget is used up.
    pub fn intern(&mut self, key: &[u32]) -> Option<(u32, bool)> {
        let out = self.ids.intern_within(key, self.max_states)?;
        if !out.1 {
            self.dedup_hits += 1;
        }
        Some(out)
    }

    /// The key interned under `id`.
    pub fn get(&self, id: u32) -> &[u32] {
        self.ids.get(id)
    }

    /// Sets interned so far.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Interning calls that found an existing set.
    pub fn dedup_hits(&self) -> usize {
        self.dedup_hits
    }

    /// Payload bytes of the interned keys.
    pub fn key_bytes(&self) -> usize {
        self.ids.arena_len() * std::mem::size_of::<u32>()
    }

    /// Buckets the `edges` leaving state `id`'s members by event, for
    /// the [`SubsetKernel::step`]s that follow.
    pub fn expand(&mut self, id: u32, edges: Csr<'_>) {
        let members = &self.ids.get(id)[self.tags..];
        let start = &mut self.start;
        start.iter_mut().for_each(|c| *c = 0);
        for &u in members {
            for k in edges.edges(u) {
                start[edges.ev[k] as usize + 1] += 1;
            }
        }
        for ev in 1..start.len() {
            start[ev] += start[ev - 1];
        }
        self.bucket.resize(start[start.len() - 1] as usize, 0);
        self.fill.clear();
        self.fill.extend_from_slice(start);
        for &u in members {
            for k in edges.edges(u) {
                let slot = &mut self.fill[edges.ev[k] as usize];
                self.bucket[*slot as usize] = edges.tgt[k];
                *slot += 1;
            }
        }
    }

    /// True if no member of the last expanded state has an `ev` edge.
    pub fn dead(&self, ev: usize) -> bool {
        self.start[ev] == self.start[ev + 1]
    }

    /// Writes into `out` the `ev` image of the last expanded state,
    /// closed under `closure`; see [`SubsetKernel::close`].
    pub fn step(
        &mut self,
        ev: usize,
        closure: Csr<'_>,
        bad: impl Fn(u32) -> bool,
        out: &mut Vec<u32>,
    ) -> bool {
        out.clear();
        out.extend_from_slice(&self.bucket[self.start[ev] as usize..self.start[ev + 1] as usize]);
        self.close(out, closure, bad)
    }

    /// Closes `set` in place under `closure`, deduplicated and sorted.
    /// Returns false, leaving `set` unspecified, as soon as the closure
    /// reaches an element that is `bad`; a bad element's edges are never
    /// walked.
    pub fn close(
        &mut self,
        set: &mut Vec<u32>,
        closure: Csr<'_>,
        bad: impl Fn(u32) -> bool,
    ) -> bool {
        let seen = &mut self.seen;
        // Keep each seed's first occurrence, marking it seen.
        set.retain(|&u| !std::mem::replace(&mut seen[u as usize], true));
        let mut ok = !set.iter().any(|&u| bad(u));
        let mut i = 0;
        while ok && i < set.len() {
            for k in closure.edges(set[i]) {
                let t = closure.tgt[k];
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    set.push(t);
                    if bad(t) {
                        ok = false;
                        break;
                    }
                }
            }
            i += 1;
        }
        for &u in set.iter() {
            seen[u as usize] = false;
        }
        if ok {
            set.sort_unstable();
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_in_first_intern_order() {
        let mut t = SliceInterner::new();
        assert_eq!(t.intern(&[3, 1]), (0, true));
        assert_eq!(t.intern(&[1, 3]), (1, true));
        assert_eq!(t.intern(&[3, 1]), (0, false));
        assert_eq!(t.intern(&[]), (2, true));
        assert_eq!(t.intern(&[7]), (3, true));
        assert_eq!(t.get(1), &[1, 3]);
        assert_eq!(t.get(2), &[] as &[u32]);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn survives_growth() {
        let mut t = SliceInterner::new();
        for i in 0..10_000u32 {
            assert_eq!(t.intern(&[i, i ^ 5, i / 3]), (i, true));
        }
        for i in 0..10_000u32 {
            assert_eq!(t.intern(&[i, i ^ 5, i / 3]), (i, false));
            assert_eq!(t.get(i), &[i, i ^ 5, i / 3]);
        }
        assert_eq!(t.into_arena().len(), 30_000);
    }

    #[test]
    fn budget_refuses_only_new_sets() {
        let mut k = SubsetKernel::new(4, 1, 2);
        assert_eq!(k.intern(&[0]), Some((0, true)));
        assert_eq!(k.intern(&[1, 2]), Some((1, true)));
        assert_eq!(k.intern(&[3]), None);
        assert_eq!(k.intern(&[1, 2]), Some((1, false)));
        assert_eq!((k.len(), k.dedup_hits(), k.key_bytes()), (2, 1, 12));
        assert_eq!(SubsetKernel::new(1, 1, 0).intern(&[]), None);
    }

    #[test]
    fn steps_close_and_abort_on_bad_elements() {
        // Labelled edges 0 -a-> 1, 0 -b-> 3, 2 -a-> 1; closure 1 -> 2 -> 4.
        let (l_off, l_ev, l_tgt) = ([0, 2, 2, 3, 3, 3], [0, 1, 0], [1, 3, 1]);
        let (c_off, c_tgt) = ([0, 0, 1, 2, 2, 2], [2, 4]);
        let labelled = Csr {
            off: &l_off,
            ev: &l_ev,
            tgt: &l_tgt,
        };
        let closure = Csr {
            off: &c_off,
            ev: &[],
            tgt: &c_tgt,
        };
        let mut k = SubsetKernel::new(5, 3, usize::MAX).tagged(1);
        let (id, _) = k.intern(&[9, 0, 2]).unwrap();
        k.expand(id, labelled);
        let mut out = Vec::new();
        assert!(k.step(0, closure, |_| false, &mut out));
        assert_eq!(out, [1, 2, 4]);
        assert!(!k.step(0, closure, |u| u == 4, &mut out));
        assert!(k.step(1, closure, |_| false, &mut out));
        assert_eq!(out, [3]);
        assert!(k.dead(2) && !k.dead(0));
        assert!(k.step(2, closure, |_| false, &mut out));
        assert!(out.is_empty());
        assert!(k.seen.iter().all(|&s| !s), "scratch is clear between calls");
    }
}
