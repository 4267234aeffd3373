//! Compiled CSR automata: dense `u32` state ids, event-indexed edge
//! tables, and bitset alphabets over an interned event table.
//!
//! The composite of `n` components is explored **once**, directly over
//! state tuples, instead of folding pairwise [`crate::compose`] calls
//! that materialize (and re-intern) every intermediate `Spec`. The
//! expansion scan below is ordered so that both the state numbering and
//! the per-state adjacency order are *identical* to what the reference
//! left fold would produce — that is what lets the engine reproduce the
//! reference verdicts, witness traces, and violation state ids bit for
//! bit (see `tests/verify_differential.rs`).

use super::subset::{Csr, SliceInterner};
use crate::event::{Alphabet, EventId};
use crate::spec::{Spec, StateId};
use std::collections::HashMap;

/// Interned table of an alphabet's events, sorted ascending by event
/// *name* — the single event-id assignment point shared by the verify
/// engine, the simulation engine, and the runtime wire codec.
///
/// Numeric [`EventId`]s are process-local (the interner hands them out
/// in first-use order), so two processes built from the same
/// specification would disagree on them. Table indices depend only on
/// the event names: identical alphabets yield identical index
/// assignments in every process, which is what lets a gateway and a
/// remote load generator agree on the wire encoding of each event.
pub struct EventTable {
    /// The events, ascending by name; the table index of an event is
    /// its position here.
    pub events: Vec<EventId>,
    index: HashMap<EventId, u32>,
}

impl EventTable {
    /// Builds the table for `alphabet`. Index assignment depends only
    /// on the event names, never on interner history.
    pub fn new(alphabet: &Alphabet) -> EventTable {
        let mut events: Vec<EventId> = alphabet.iter().collect();
        events.sort_by_key(|e| e.name());
        let index = events
            .iter()
            .enumerate()
            .map(|(i, &e)| (e, i as u32))
            .collect();
        EventTable { events, index }
    }

    /// Number of events in the table.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the table holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Words per bitset row (at least one so slices stay non-empty).
    pub fn words(&self) -> usize {
        self.events.len().div_ceil(64) + usize::from(self.events.is_empty())
    }

    /// The table index of `e`. Panics if `e` is not in the table.
    pub fn idx(&self, e: EventId) -> u32 {
        self.index[&e]
    }

    /// The table index of `e`, or `None` if `e` is not in the table.
    pub fn lookup(&self, e: EventId) -> Option<u32> {
        self.index.get(&e).copied()
    }

    /// The event behind table index `i`, or `None` if out of range.
    pub fn event(&self, i: u32) -> Option<EventId> {
        self.events.get(i as usize).copied()
    }

    /// Decodes a bitset row back into an [`Alphabet`].
    pub fn to_alphabet(&self, bits: &[u64]) -> Alphabet {
        let mut a = Alphabet::new();
        for (i, &e) in self.events.iter().enumerate() {
            if bits[i / 64] >> (i % 64) & 1 == 1 {
                a.insert(e);
            }
        }
        a
    }

    /// Encodes an [`Alphabet`] as a bitset row over this table.
    pub fn alphabet_bits(&self, a: &Alphabet) -> Vec<u64> {
        let mut bits = vec![0u64; self.words()];
        for e in a.iter() {
            set_bit(&mut bits, self.idx(e));
        }
        bits
    }
}

pub(crate) fn set_bit(bits: &mut [u64], i: u32) {
    bits[(i / 64) as usize] |= 1u64 << (i % 64);
}

/// `sub ⊆ sup` for two bitset rows over one event table.
pub fn bits_subset(sub: &[u64], sup: &[u64]) -> bool {
    sub.iter().zip(sup).all(|(&a, &b)| a & !b == 0)
}

/// The compiled composite `P_0 ‖ … ‖ P_{n-1}` in CSR form.
///
/// External edges carry event-table indices; internal edges are plain
/// successor lists. For a single component the compile is the identity
/// on state ids; for `n ≥ 2` the numbering equals the reference fold's.
pub struct CompiledComposite {
    /// Number of composite states.
    pub n: usize,
    /// Initial composite state.
    pub initial: u32,
    /// CSR row offsets into `ext_ev`/`ext_tgt` (length `n + 1`).
    pub ext_off: Vec<u32>,
    /// Event-table index per external edge, in adjacency order.
    pub ext_ev: Vec<u32>,
    /// Target state per external edge.
    pub ext_tgt: Vec<u32>,
    /// CSR row offsets into `int_tgt` (length `n + 1`).
    pub int_off: Vec<u32>,
    /// Target state per internal edge, in adjacency order.
    pub int_tgt: Vec<u32>,
    /// Tuple-interning hits during the n-way exploration.
    pub dedup_hits: usize,
    /// Bytes held by the CSR arrays and interned tuple keys.
    pub arena_bytes: usize,
    /// The state tuples behind the composite ids, back to back
    /// (`stride` components each; empty for the single-component
    /// identity compile).
    tuples: Vec<u32>,
    stride: usize,
}

impl CompiledComposite {
    /// A composite whose caller already laid its states out: `initial`
    /// plus the external CSR `(ext_off, ext_ev, ext_tgt)`, `ext_ev`
    /// holding event-table indices, and the internal CSR
    /// `(int_off, int_tgt)`, both with `n + 1` row offsets. It has no
    /// tuples.
    pub fn from_csr(
        initial: u32,
        (ext_off, ext_ev, ext_tgt): (Vec<u32>, Vec<u32>, Vec<u32>),
        (int_off, int_tgt): (Vec<u32>, Vec<u32>),
    ) -> CompiledComposite {
        let mut c = CompiledComposite {
            n: ext_off.len() - 1,
            initial,
            ext_off,
            ext_ev,
            ext_tgt,
            int_off,
            int_tgt,
            dedup_hits: 0,
            arena_bytes: 0,
            tuples: Vec::new(),
            stride: 0,
        };
        c.finish_arena();
        c
    }

    /// The internal edges reversed, as CSR `(off, src)`: row `t` lists
    /// the source of every internal edge into `t`, ascending.
    pub fn reverse_internal(&self) -> (Vec<u32>, Vec<u32>) {
        let mut off = vec![0u32; self.n + 1];
        for &t in &self.int_tgt {
            off[t as usize + 1] += 1;
        }
        for i in 0..self.n {
            off[i + 1] += off[i];
        }
        let mut src = vec![0u32; self.int_tgt.len()];
        let mut cursor = off.clone();
        for s in 0..self.n {
            for &t in &self.int_tgt[self.int_off[s] as usize..self.int_off[s + 1] as usize] {
                src[cursor[t as usize] as usize] = s as u32;
                cursor[t as usize] += 1;
            }
        }
        (off, src)
    }

    /// Total edges (external + internal CSR entries).
    pub fn num_transitions(&self) -> usize {
        self.ext_ev.len() + self.int_tgt.len()
    }

    /// The external edges, labelled by event-table index.
    pub fn ext_edges(&self) -> Csr<'_> {
        Csr {
            off: &self.ext_off,
            ev: &self.ext_ev,
            tgt: &self.ext_tgt,
        }
    }

    /// The internal edges.
    pub fn int_edges(&self) -> Csr<'_> {
        Csr {
            off: &self.int_off,
            ev: &[],
            tgt: &self.int_tgt,
        }
    }

    /// The component states behind composite state `i` (empty for the
    /// single-component identity compile).
    pub fn tuple(&self, i: usize) -> &[u32] {
        &self.tuples[i * self.stride..(i + 1) * self.stride]
    }

    fn finish_arena(&mut self) {
        self.arena_bytes = 4
            * (self.tuples.len()
                + self.ext_off.len()
                + self.ext_ev.len()
                + self.ext_tgt.len()
                + self.int_off.len()
                + self.int_tgt.len());
    }
}

/// Identity compile of a single component: state `i` stays state `i`
/// (including unreachable ones — the product exploration never visits
/// them), so violation state ids match the reference exactly.
pub(crate) fn build_single(b: &Spec, tbl: &EventTable) -> CompiledComposite {
    let n = b.num_states();
    let mut ext_off = Vec::with_capacity(n + 1);
    let mut int_off = Vec::with_capacity(n + 1);
    let mut ext_ev = Vec::with_capacity(b.num_external());
    let mut ext_tgt = Vec::with_capacity(b.num_external());
    let mut int_tgt = Vec::with_capacity(b.num_internal());
    ext_off.push(0);
    int_off.push(0);
    for s in b.states() {
        for &(e, t) in b.external_from(s) {
            ext_ev.push(tbl.idx(e));
            ext_tgt.push(t.0);
        }
        for &t in b.internal_from(s) {
            int_tgt.push(t.0);
        }
        ext_off.push(ext_ev.len() as u32);
        int_off.push(int_tgt.len() as u32);
    }
    CompiledComposite::from_csr(
        b.initial().0,
        (ext_off, ext_ev, ext_tgt),
        (int_off, int_tgt),
    )
}

/// How one component edge participates in the composite.
#[derive(Clone, Copy)]
enum EdgeKind {
    /// Event owned by this component alone: external in the composite
    /// (payload = event-table index).
    Solo(u32),
    /// Event shared with component `other`: synchronises and hides.
    Shared(u32),
}

/// Every component's external edges, classified once, in one flat CSR:
/// the row of state `s` of component `i` is `base[i] + s`, and each row
/// keeps the spec's stored edge order.
struct PartEdges {
    base: Vec<usize>,
    off: Vec<u32>,
    /// Dense per-system event id, for matching synchronisation partners.
    ev: Vec<u32>,
    kind: Vec<EdgeKind>,
    tgt: Vec<u32>,
}

impl PartEdges {
    fn new(parts: &[&Spec], tbl: &EventTable) -> PartEdges {
        // Ownership is resolved once per event of the union alphabet;
        // an event's dense id is its position in the sorted union.
        let mut events: Vec<EventId> = parts.iter().flat_map(|p| p.alphabet().iter()).collect();
        events.sort_unstable();
        events.dedup();
        let dense = |e: EventId| {
            events
                .binary_search(&e)
                .expect("every edge event is in its spec's alphabet")
        };
        const NONE: u32 = u32::MAX;
        let mut owners = vec![(NONE, NONE); events.len()];
        for (i, p) in parts.iter().enumerate() {
            for e in p.alphabet().iter() {
                let o = &mut owners[dense(e)];
                if o.0 == NONE {
                    o.0 = i as u32;
                } else {
                    o.1 = i as u32;
                }
            }
        }
        let mut solo_idx = vec![NONE; events.len()];
        for (k, &e) in tbl.events.iter().enumerate() {
            if let Ok(d) = events.binary_search(&e) {
                solo_idx[d] = k as u32;
            }
        }

        let mut base = Vec::with_capacity(parts.len());
        let mut off = vec![0u32];
        let total: usize = parts.iter().map(|p| p.num_external()).sum();
        let mut ev = Vec::with_capacity(total);
        let mut kind = Vec::with_capacity(total);
        let mut tgt = Vec::with_capacity(total);
        for (i, p) in parts.iter().enumerate() {
            base.push(off.len() - 1);
            for s in p.states() {
                for &(e, t) in p.external_from(s) {
                    let d = dense(e);
                    let (first, second) = owners[d];
                    kind.push(if second == NONE {
                        assert!(
                            solo_idx[d] != NONE,
                            "solo event {e} is not in the event table"
                        );
                        EdgeKind::Solo(solo_idx[d])
                    } else {
                        EdgeKind::Shared(if first == i as u32 { second } else { first })
                    });
                    ev.push(d as u32);
                    tgt.push(t.0);
                }
                off.push(ev.len() as u32);
            }
        }
        PartEdges {
            base,
            off,
            ev,
            kind,
            tgt,
        }
    }

    /// Edge index range of state `s` of component `i`.
    fn row(&self, i: usize, s: u32) -> std::ops::Range<usize> {
        let r = self.base[i] + s as usize;
        self.off[r] as usize..self.off[r + 1] as usize
    }
}

/// Largest `∏|Pᵢ|` whose tuples the n-way exploration indexes directly:
/// 2²⁰ `u32` slots, 4 MiB. Larger products are interned by hash, whose
/// memory grows with the reachable set alone, so components padded with
/// unreachable states (say, in an artifact submitted for admission)
/// cannot make a compile allocate more than this.
pub const DENSE_TUPLE_SLOTS: usize = 1 << 20;

/// Tuple → id map of the n-way exploration. Both implementations hand
/// out ids `0, 1, 2, …` in first-reach order and keep the tuples back
/// to back in id order, so the composite does not depend on which one
/// ran.
trait TupleIds {
    /// The key `reach` takes for the tuple `cur`.
    fn rank(&self, cur: &[u32]) -> usize;
    /// The id of `cur` (whose key is `rank`) with component `i` moved
    /// to `ti` and, if given, component `j` to `tj`; true when new.
    fn reach(
        &mut self,
        cur: &[u32],
        rank: usize,
        i: usize,
        ti: u32,
        j: Option<(usize, u32)>,
    ) -> (u32, bool);
    /// The tuple behind `id`.
    fn get(&self, id: u32) -> &[u32];
    /// Number of tuples reached.
    fn len(&self) -> usize;
    /// The tuples, back to back in id order.
    fn into_arena(self) -> Vec<u32>;
}

/// Direct index by mixed-radix rank `Σ sᵢ·∏_{j>i}|Pⱼ|`. Slot `rank`
/// holds `id + 1`, or 0 while unreached, so the index starts out as
/// zeroed memory the allocator need not touch.
struct DenseTuples {
    slots: Vec<u32>,
    /// `∏_{j>i}|Pⱼ|` per component.
    radix: Vec<usize>,
    arena: Vec<u32>,
    stride: usize,
}

impl DenseTuples {
    /// `None` when `∏ sizes` exceeds [`DENSE_TUPLE_SLOTS`].
    fn new(sizes: &[usize]) -> Option<DenseTuples> {
        let total = sizes
            .iter()
            .try_fold(1usize, |acc, &n| acc.checked_mul(n))
            .filter(|&t| t <= DENSE_TUPLE_SLOTS)?;
        let mut radix = vec![1usize; sizes.len()];
        for i in (1..sizes.len()).rev() {
            radix[i - 1] = radix[i] * sizes[i];
        }
        Some(DenseTuples {
            slots: vec![0; total],
            radix,
            arena: Vec::new(),
            stride: sizes.len(),
        })
    }
}

impl TupleIds for DenseTuples {
    fn rank(&self, cur: &[u32]) -> usize {
        cur.iter()
            .zip(&self.radix)
            .map(|(&s, &r)| s as usize * r)
            .sum()
    }

    fn reach(
        &mut self,
        cur: &[u32],
        rank: usize,
        i: usize,
        ti: u32,
        j: Option<(usize, u32)>,
    ) -> (u32, bool) {
        let mut r = rank - cur[i] as usize * self.radix[i] + ti as usize * self.radix[i];
        if let Some((j, tj)) = j {
            r = r - cur[j] as usize * self.radix[j] + tj as usize * self.radix[j];
        }
        match self.slots[r] {
            0 => {
                let id = self.len() as u32;
                self.slots[r] = id + 1;
                let at = self.arena.len();
                self.arena.extend_from_slice(cur);
                self.arena[at + i] = ti;
                if let Some((j, tj)) = j {
                    self.arena[at + j] = tj;
                }
                (id, true)
            }
            slot => (slot - 1, false),
        }
    }

    fn get(&self, id: u32) -> &[u32] {
        let at = id as usize * self.stride;
        &self.arena[at..at + self.stride]
    }

    fn len(&self) -> usize {
        self.arena.len() / self.stride
    }

    fn into_arena(self) -> Vec<u32> {
        self.arena
    }
}

/// Hashed interning ([`SliceInterner`]): each successor is written into
/// one reusable probe buffer, so a hit allocates nothing.
struct HashedTuples {
    intern: SliceInterner,
    probe: Vec<u32>,
}

impl TupleIds for HashedTuples {
    fn rank(&self, _: &[u32]) -> usize {
        0
    }

    fn reach(
        &mut self,
        cur: &[u32],
        _: usize,
        i: usize,
        ti: u32,
        j: Option<(usize, u32)>,
    ) -> (u32, bool) {
        self.probe.copy_from_slice(cur);
        self.probe[i] = ti;
        if let Some((j, tj)) = j {
            self.probe[j] = tj;
        }
        self.intern.intern(&self.probe)
    }

    fn get(&self, id: u32) -> &[u32] {
        self.intern.get(id)
    }

    fn len(&self) -> usize {
        self.intern.len()
    }

    fn into_arena(self) -> Vec<u32> {
        self.intern.into_arena()
    }
}

/// Interning state of the n-way exploration.
struct Explore<T> {
    ids: T,
    work: Vec<u32>,
    dedup_hits: usize,
}

impl<T: TupleIds> Explore<T> {
    /// Interns `cur` with position `i` (and optionally `j`) replaced,
    /// queueing the tuple if it is new.
    fn reach(
        &mut self,
        cur: &[u32],
        rank: usize,
        i: usize,
        ti: u32,
        j: Option<(usize, u32)>,
    ) -> u32 {
        let (id, fresh) = self.ids.reach(cur, rank, i, ti, j);
        if fresh {
            self.work.push(id);
        } else {
            self.dedup_hits += 1;
        }
        id
    }
}

/// N-way reachable product exploration.
///
/// The scan order below flattens the reference left fold
/// `(…(P_0 ‖ P_1) ‖ …) ‖ P_{n-1}`: interning happens in exactly the
/// order the outermost pairwise [`crate::compose`] would intern, and
/// the per-state adjacency comes out as
///
/// * external: components ascending, solo edges in stored order;
/// * internal: synchronisations with component `n-1` first (driven by
///   the lower-indexed owner's edge order), then each inner fold
///   level's synchronisations descending, then every component's
///   internal moves ascending.
///
/// Tuples are indexed directly by their mixed-radix rank when
/// `∏|Pᵢ| ≤` [`DENSE_TUPLE_SLOTS`] (a successor's rank is its parent's
/// plus the moved components' deltas, so a hit is one array load), and
/// interned by hash above that. Events present in the table but shared
/// (hence hidden) never reach `ext_ev`; an event shared by more than
/// two components must have been rejected by the caller.
pub(crate) fn build_nway(parts: &[&Spec], tbl: &EventTable) -> CompiledComposite {
    debug_assert!(!parts.is_empty());
    let sizes: Vec<usize> = parts.iter().map(|p| p.num_states()).collect();
    match DenseTuples::new(&sizes) {
        Some(dense) => explore(parts, tbl, dense),
        None => explore(
            parts,
            tbl,
            HashedTuples {
                intern: SliceInterner::new(),
                probe: vec![0; parts.len()],
            },
        ),
    }
}

fn explore<T: TupleIds>(parts: &[&Spec], tbl: &EventTable, ids: T) -> CompiledComposite {
    let np = parts.len();
    let last = np - 1;
    let pe = PartEdges::new(parts, tbl);

    let mut x = Explore {
        ids,
        work: Vec::new(),
        dedup_hits: 0,
    };
    let mut cur: Vec<u32> = parts.iter().map(|p| p.initial().0).collect();
    let rank = x.ids.rank(&cur);
    x.reach(&cur, rank, 0, cur[0], None);
    let mut ext_edges: Vec<(u32, u32, u32)> = Vec::new();
    let mut int_edges: Vec<(u32, u32)> = Vec::new();

    // LIFO pop mirrors the reference `compose` work stack, so ids are
    // assigned in the same first-reference order.
    while let Some(id) = x.work.pop() {
        cur.copy_from_slice(x.ids.get(id));
        let rank = x.ids.rank(&cur);
        // Phase A: the outermost fold level — solo externals and
        // synchronisations with the last component, interleaved in each
        // component's stored edge order.
        for i in 0..np {
            for k in pe.row(i, cur[i]) {
                match pe.kind[k] {
                    EdgeKind::Solo(ev) => {
                        let to = x.reach(&cur, rank, i, pe.tgt[k], None);
                        ext_edges.push((id, ev, to));
                    }
                    EdgeKind::Shared(other) if other as usize == last && i != last => {
                        for q in pe.row(last, cur[last]) {
                            if pe.ev[q] == pe.ev[k] {
                                let to = x.reach(&cur, rank, i, pe.tgt[k], Some((last, pe.tgt[q])));
                                int_edges.push((id, to));
                            }
                        }
                    }
                    EdgeKind::Shared(_) => {}
                }
            }
        }
        // Phase B: inner fold levels' synchronisations, level descending.
        for l in (1..last).rev() {
            for i in 0..l {
                for k in pe.row(i, cur[i]) {
                    if let EdgeKind::Shared(other) = pe.kind[k] {
                        if other as usize == l {
                            for q in pe.row(l, cur[l]) {
                                if pe.ev[q] == pe.ev[k] {
                                    let to =
                                        x.reach(&cur, rank, i, pe.tgt[k], Some((l, pe.tgt[q])));
                                    int_edges.push((id, to));
                                }
                            }
                        }
                    }
                }
            }
        }
        // Phase C: internal moves of every component, ascending.
        for (i, p) in parts.iter().enumerate() {
            for &t in p.internal_from(StateId(cur[i])) {
                let to = x.reach(&cur, rank, i, t.0, None);
                int_edges.push((id, to));
            }
        }
    }

    let n = x.ids.len();
    let (ext_off, ext_ev, ext_tgt) = csr_ext(n, &ext_edges);
    let (int_off, int_tgt) = csr_int(n, &int_edges);
    let mut c = CompiledComposite {
        n,
        initial: 0,
        ext_off,
        ext_ev,
        ext_tgt,
        int_off,
        int_tgt,
        dedup_hits: x.dedup_hits,
        arena_bytes: 0,
        tuples: x.ids.into_arena(),
        stride: np,
    };
    c.finish_arena();
    c
}

/// Stable counting sort of `(from, ev, tgt)` edges into CSR rows.
fn csr_ext(n: usize, edges: &[(u32, u32, u32)]) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let mut off = vec![0u32; n + 1];
    for &(f, _, _) in edges {
        off[f as usize + 1] += 1;
    }
    for i in 0..n {
        off[i + 1] += off[i];
    }
    let mut ev = vec![0u32; edges.len()];
    let mut tgt = vec![0u32; edges.len()];
    let mut cursor: Vec<u32> = off.clone();
    for &(f, e, t) in edges {
        let p = cursor[f as usize] as usize;
        ev[p] = e;
        tgt[p] = t;
        cursor[f as usize] += 1;
    }
    (off, ev, tgt)
}

fn csr_int(n: usize, edges: &[(u32, u32)]) -> (Vec<u32>, Vec<u32>) {
    let mut off = vec![0u32; n + 1];
    for &(f, _) in edges {
        off[f as usize + 1] += 1;
    }
    for i in 0..n {
        off[i + 1] += off[i];
    }
    let mut tgt = vec![0u32; edges.len()];
    let mut cursor: Vec<u32> = off.clone();
    for &(f, t) in edges {
        let p = cursor[f as usize] as usize;
        tgt[p] = t;
        cursor[f as usize] += 1;
    }
    (off, tgt)
}

/// `τ*` rows for every composite state: the externally offered events
/// after any number of internal moves, as bitsets over the event table.
/// One [`TauStar::pass`] over every state and every edge.
pub(crate) fn tau_star_rows(comp: &CompiledComposite, words: usize) -> Vec<u64> {
    let mut tau = TauStar::new(comp.n, words);
    tau.pass(comp, 0..comp.n as u32, |_| true);
    tau.rows
}

/// [`TauStar`] index of a state whose row is final. It lies above every
/// live Tarjan index, so the low-link `min` ignores it and no on-stack
/// flag is needed.
const DONE: u32 = u32::MAX - 1;
/// [`TauStar`] index of a state the next pass recomputes.
const UNVISITED: u32 = u32::MAX;

/// `τ*` rows of a compiled composite and the one routine that computes
/// them, from scratch or again after edges died.
///
/// A [`pass`](TauStar::pass) is one iterative Tarjan walk over the
/// internal graph with the reverse topological DP folded in: SCCs
/// complete successors-first, so when one completes, every successor
/// outside it holds its final row, and the SCC's row — its members'
/// external events plus those rows — is written to every member at
/// once. A pass computes only states marked unvisited; a finished state
/// it meets is a boundary constant, read and never re-entered. So a
/// caller that kills edges reopens the states whose rows could shrink
/// and re-runs the pass on them alone.
pub struct TauStar {
    words: usize,
    rows: Vec<u64>,
    /// Tarjan index of a state during a pass, [`DONE`] once its row is
    /// final, [`UNVISITED`] while a pass is to compute it.
    index: Vec<u32>,
    stack: Vec<u32>,
    /// DFS frames: state, next internal edge, low-link.
    frames: Vec<(u32, u32, u32)>,
    acc: Vec<u64>,
}

impl TauStar {
    /// `n` unvisited states with empty `words`-word rows.
    pub fn new(n: usize, words: usize) -> TauStar {
        TauStar {
            words,
            rows: vec![0; n * words],
            index: vec![UNVISITED; n],
            stack: Vec::new(),
            frames: Vec::new(),
            acc: vec![0; words],
        }
    }

    /// The `τ*` row of state `s` (final once a pass has reached it).
    pub fn row(&self, s: u32) -> &[u64] {
        &self.rows[s as usize * self.words..(s as usize + 1) * self.words]
    }

    /// Marks `s` for recomputation by the next pass.
    pub fn reopen(&mut self, s: u32) {
        self.index[s as usize] = UNVISITED;
    }

    /// Computes the row of every unvisited state reachable from `roots`
    /// over live internal edges; an edge into a state `live` refuses is
    /// dead and skipped.
    pub fn pass(
        &mut self,
        comp: &CompiledComposite,
        roots: impl IntoIterator<Item = u32>,
        live: impl Fn(u32) -> bool,
    ) {
        let words = self.words;
        let mut next_index = 0u32;
        for root in roots {
            if self.index[root as usize] != UNVISITED {
                continue;
            }
            self.open(comp, root, &mut next_index);
            while let Some(&(v, edge, low)) = self.frames.last() {
                let s = v as usize;
                if edge < comp.int_off[s + 1] {
                    self.frames.last_mut().expect("a frame is open").1 += 1;
                    let w = comp.int_tgt[edge as usize];
                    if !live(w) {
                        continue;
                    }
                    match self.index[w as usize] {
                        UNVISITED => self.open(comp, w, &mut next_index),
                        i => {
                            let frame = self.frames.last_mut().expect("a frame is open");
                            frame.2 = frame.2.min(i);
                        }
                    }
                    continue;
                }
                self.frames.pop();
                if let Some(parent) = self.frames.last_mut() {
                    parent.2 = parent.2.min(low);
                }
                if low != self.index[s] {
                    continue;
                }
                // `v` roots an SCC: its members are the stack above it, and
                // still carry live indices, so `DONE` marks exactly the
                // successors outside it.
                let root_at = self
                    .stack
                    .iter()
                    .rposition(|&w| w == v)
                    .expect("an SCC root is on the Tarjan stack");
                self.acc.iter_mut().for_each(|w| *w = 0);
                for &m in &self.stack[root_at..] {
                    let mu = m as usize;
                    for k in comp.ext_off[mu] as usize..comp.ext_off[mu + 1] as usize {
                        set_bit(&mut self.acc, comp.ext_ev[k]);
                    }
                    for k in comp.int_off[mu] as usize..comp.int_off[mu + 1] as usize {
                        let t = comp.int_tgt[k];
                        if self.index[t as usize] == DONE && live(t) {
                            let row = &self.rows[t as usize * words..(t as usize + 1) * words];
                            for (a, &r) in self.acc.iter_mut().zip(row) {
                                *a |= r;
                            }
                        }
                    }
                }
                for &m in &self.stack[root_at..] {
                    let mu = m as usize;
                    self.rows[mu * words..(mu + 1) * words].copy_from_slice(&self.acc);
                    self.index[mu] = DONE;
                }
                self.stack.truncate(root_at);
            }
        }
    }

    fn open(&mut self, comp: &CompiledComposite, s: u32, next_index: &mut u32) {
        self.index[s as usize] = *next_index;
        self.stack.push(s);
        self.frames.push((s, comp.int_off[s as usize], *next_index));
        *next_index += 1;
    }
}
