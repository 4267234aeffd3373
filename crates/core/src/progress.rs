//! The progress phase of the quotient algorithm (paper Figure 6).
//!
//! Iteratively deletes *bad* states from the safety-phase output `C0`.
//! A converter state `c` is bad iff some `(a, b) ∈ f.c` has
//! `¬prog.a.⟨b,c⟩`: the service may be in a sink set none of whose
//! acceptance sets is fully offered (via τ*) by the composite `B ‖ C`
//! at `⟨b, c⟩`. Deleting states shrinks τ* in the composite, so the
//! check repeats until a fixpoint; removing the initial state means no
//! converter exists.
//!
//! τ*⟨b,c⟩ is computed on the reachable product `B ‖ C0`, read off the
//! safety phase's pair sets rather than explored: `f.c` is closed under
//! B's λ and `Ext` moves and stepped by `Int`, so the reachable nodes
//! are exactly the `⟨b, c⟩` with `(a, b) ∈ f.c`. Node `⟨b, c⟩` is `c`'s
//! offset plus the rank of `b` among `f.c`'s B-states, so no tuple is
//! hashed. Internal edges are B's λ moves and B's `Int` moves paired
//! with C0's; external edges are B's `Ext` moves, inside `c` (C0 has no
//! `Ext` events), so a node's local offer is `τ.b ∩ Ext`.
//!
//! ## The incremental engine
//!
//! * The product is built **once**, plus a reverse CSR of its internal
//!   edges. An edge is *live* iff the converter state of its target is
//!   still alive (a recomputed node's own state always is), so deletion
//!   never rewrites the graph.
//! * τ* rows are bitsets over the `Ext` event table, computed by the
//!   verify engine's τ* routine ([`TauStar`]), first over every node.
//!   After a deletion round only the **backward slice** — the nodes that
//!   could reach a deleted node over the previous graph, found over the
//!   reverse CSR — can change, since τ* only ever shrinks. The routine
//!   reruns on the slice alone, reading untouched rows as constants.
//! * Only converter states owning a recomputed node are re-checked for
//!   badness (a re-check of an unchanged state finds the same pairs
//!   good as before).
//!
//! [`progress_phase_reference_with`] keeps the pre-incremental
//! implementation, so equivalence is *tested*
//! (`tests/progress_differential.rs`), not assumed.
//!
//! ## Strategies
//!
//! * [`ProgressStrategy::FullProduct`] — Figure 6 verbatim: every
//!   `(a, b) ∈ f.c` is checked against τ* over the whole product.
//! * [`ProgressStrategy::ReachableProduct`] — an ablation: pairs whose
//!   product node deletions have made unreachable are *skipped*. This is
//!   sound (unreachable states cannot cause a violation) and can only
//!   keep **more** converter behaviour than Figure 6; every output still
//!   passes independent verification (`tests/properties.rs`).

use crate::safety::SafetyPhase;
use protoquot_spec::{
    bits_subset, prune_unreachable, Alphabet, CompiledComposite, EventId, EventTable, NormalSpec,
    Spec, StateId, TauStar,
};
use std::collections::HashMap;

/// How the fixpoint treats pairs made unreachable by earlier deletions
/// (see module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ProgressStrategy {
    /// The paper's Figure 6, verbatim.
    #[default]
    FullProduct,
    /// Skip pairs whose composite state has become unreachable.
    ReachableProduct,
}

/// A concrete explanation of the *first* bad state found: after the
/// converter trace `trace`, the components may be in `b_state` with the
/// service at hub `hub`; the composite can then only ever offer
/// `offered`, which covers none of the service's acceptance sets
/// `needed`.
#[derive(Clone, Debug)]
pub struct ProgressWitness {
    /// The bad converter state (index in `C0`).
    pub state: StateId,
    /// A converter trace (over `Int`) reaching it.
    pub trace: Vec<EventId>,
    /// The failing pair's service hub.
    pub hub: usize,
    /// The failing pair's B-state.
    pub b_state: StateId,
    /// A's sink acceptance sets at the hub.
    pub needed: Vec<Alphabet>,
    /// τ* of the composite at `(b_state, state)`.
    pub offered: Alphabet,
}

/// Work counters from the incremental fixpoint engine, per
/// [`progress_phase_with`] run. They count nodes and edges of the
/// reachable product `B ‖ C0`, never of the grid `S_B × S_C0`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProgressEngineStats {
    /// Nodes of the reachable product `B ‖ C0`.
    pub product_nodes: usize,
    /// Its internal edges: B's λ moves plus `Int` synchronisations.
    pub product_edges: usize,
    /// τ*-recompute set size per iteration: the whole product on the
    /// first iteration, the backward slice of the deletions afterwards.
    pub slice_sizes: Vec<usize>,
    /// Total product nodes whose τ* was recomputed, summed over all
    /// iterations (= sum of `slice_sizes`).
    pub nodes_touched: usize,
    /// Number of τ* recompute passes actually run (iterations whose
    /// slice was non-empty).
    pub tau_star_recomputations: usize,
}

/// Outcome of the progress phase.
#[derive(Clone, Debug)]
pub struct ProgressPhase {
    /// The converter, if one survives (reachable states only).
    pub converter: Option<Spec>,
    /// Number of remove-and-recompute iterations performed.
    pub iterations: usize,
    /// Converter states removed as bad (cumulative, before the final
    /// reachability prune).
    pub removed: usize,
    /// Why the first bad state was bad (useful when the phase empties
    /// the converter); `None` if nothing was ever removed.
    pub first_witness: Option<ProgressWitness>,
    /// Incremental-engine work counters (all zero from the reference
    /// engine, which predates them).
    pub stats: ProgressEngineStats,
}

/// Runs the Figure 6 fixpoint (paper-exact strategy).
pub fn progress_phase(b: &Spec, na: &NormalSpec, safety: &SafetyPhase) -> ProgressPhase {
    progress_phase_with(b, na, safety, ProgressStrategy::FullProduct)
}

/// Runs the progress fixpoint with an explicit strategy, via the
/// incremental engine. `safety` must be the safety phase's output for
/// `b` (so `Int ⊆ Σ_B`, as [`crate::validate_problem`] checks).
pub fn progress_phase_with(
    b: &Spec,
    na: &NormalSpec,
    safety: &SafetyPhase,
    strategy: ProgressStrategy,
) -> ProgressPhase {
    Engine::new(b, na, safety).run(na, safety, strategy)
}

/// Incremental τ* fixpoint over the reachable product `B ‖ C0`.
struct Engine {
    comp: CompiledComposite,
    /// The `Ext` events: the product's interface and the rows' bits.
    table: EventTable,
    /// The nodes of converter state `c` are `off[c]..off[c + 1]`, one per
    /// B-state of `f.c`, ascending; `b_of` holds each node's B-state and
    /// `conv` its converter state.
    off: Vec<u32>,
    b_of: Vec<u32>,
    conv: Vec<u32>,
    /// Reverse CSR of the product's internal edges.
    rev_off: Vec<u32>,
    rev_src: Vec<u32>,
    /// τ* per product node (exact for every node of an alive state).
    tau: TauStar,
    /// Per-hub acceptance sets, as bitset rows back to back.
    acceptance: Vec<Vec<u64>>,
    /// Liveness per converter state.
    alive: Vec<bool>,
    // Scratch, allocated once and epoch-stamped.
    epoch: u32,
    mark: Vec<u32>,
    queue: Vec<u32>,
    dirty: Vec<u32>,
    stats: ProgressEngineStats,
}

/// The node `⟨bs, c⟩` of the product laid out by [`Engine::new`].
fn node(off: &[u32], b_of: &[u32], bs: u32, c: u32) -> u32 {
    let (from, to) = (off[c as usize], off[c as usize + 1]);
    let rank = b_of[from as usize..to as usize].binary_search(&bs);
    from + rank.expect("every reachable ⟨b, c⟩ has b in f.c") as u32
}

impl Engine {
    fn new(b: &Spec, na: &NormalSpec, safety: &SafetyPhase) -> Engine {
        let c0 = &safety.c0;
        let ext = b.alphabet().difference(c0.alphabet());
        let table = EventTable::new(&ext);
        // Nodes `{c} × proj_B(f.c)` (see the module docs). No budget of
        // its own: the safety phase's `max_states` bounds the pair sets.
        let (mut off, mut b_of, mut conv, mut row) = (vec![0u32], Vec::new(), Vec::new(), vec![]);
        for (c, f) in safety.f.iter().enumerate() {
            row.clear();
            row.extend(f.iter().map(|(_, bs)| bs.0));
            row.sort_unstable();
            row.dedup();
            b_of.extend_from_slice(&row);
            conv.resize(b_of.len(), c as u32);
            off.push(b_of.len() as u32);
        }
        // B's `Ext` moves, by event-table index, stay inside `c`; its λ
        // moves and its `Int` moves paired with C0's are internal edges.
        let (mut ext_off, mut ext_ev, mut ext_tgt) = (vec![0u32], Vec::new(), Vec::new());
        let (mut int_off, mut int_tgt) = (vec![0u32], Vec::new());
        let ext_move = |&(e, t): &(EventId, StateId)| Some((table.lookup(e)?, t.0));
        let moves: Vec<Vec<(u32, u32)>> = (b.states())
            .map(|s| b.external_from(s).iter().filter_map(ext_move).collect())
            .collect();
        for (&bs, &c) in b_of.iter().zip(&conv) {
            for &(ev, t) in &moves[bs as usize] {
                ext_ev.push(ev);
                ext_tgt.push(node(&off, &b_of, t, c));
            }
            let c_moves = c0.external_from(StateId(c));
            for &(e, t) in b.external_from(StateId(bs)) {
                if let Some(&(_, ct)) = c_moves.iter().find(|&&(f, _)| f == e) {
                    int_tgt.push(node(&off, &b_of, t.0, ct.0));
                }
            }
            for &t in b.internal_from(StateId(bs)) {
                int_tgt.push(node(&off, &b_of, t.0, c));
            }
            ext_off.push(ext_ev.len() as u32);
            int_off.push(int_tgt.len() as u32);
        }
        let initial = node(&off, &b_of, b.initial().0, c0.initial().0);
        let comp =
            CompiledComposite::from_csr(initial, (ext_off, ext_ev, ext_tgt), (int_off, int_tgt));
        let n = comp.n;
        let (rev_off, rev_src) = comp.reverse_internal();

        let acceptance = (0..na.num_hubs())
            .map(|h| {
                na.acceptance(h)
                    .iter()
                    .flat_map(|a| table.alphabet_bits(&a.intersection(&ext)))
                    .collect()
            })
            .collect();
        Engine {
            tau: TauStar::new(n, table.words()),
            stats: ProgressEngineStats {
                product_nodes: n,
                product_edges: comp.int_tgt.len(),
                ..ProgressEngineStats::default()
            },
            comp,
            table,
            off,
            b_of,
            conv,
            rev_off,
            rev_src,
            acceptance,
            alive: vec![true; c0.num_states()],
            epoch: 0,
            mark: vec![0; n],
            queue: Vec::new(),
            dirty: Vec::new(),
        }
    }

    /// Backward slice: every still-alive product node that could reach
    /// a node of a just-removed converter state over the *previous*
    /// (pre-removal) live graph. Fills `self.dirty` and stamps
    /// `mark = self.epoch` on everything visited (callers bump the
    /// epoch first).
    fn backward_slice(&mut self, removed_cs: &[usize]) {
        let epoch = self.epoch;
        self.queue.clear();
        self.dirty.clear();
        for &cs in removed_cs {
            for n in self.off[cs]..self.off[cs + 1] {
                self.mark[n as usize] = epoch;
                self.queue.push(n);
            }
        }
        while let Some(n) = self.queue.pop() {
            let n = n as usize;
            for ei in self.rev_off[n]..self.rev_off[n + 1] {
                let p = self.rev_src[ei as usize];
                if self.mark[p as usize] == epoch {
                    continue;
                }
                // A dead `p` needs no row. It cannot be a just-removed
                // node either: those are the seeds, already marked.
                if !self.alive[self.conv[p as usize] as usize] {
                    continue;
                }
                self.mark[p as usize] = epoch;
                self.queue.push(p);
                self.dirty.push(p);
            }
        }
    }

    /// Forward closure from the initial composite state over live
    /// internal edges plus B's `Ext` moves (which keep the converter
    /// state fixed). Marks members with `mark = self.epoch`.
    fn forward_reachable(&mut self) {
        let epoch = self.epoch;
        let start = self.comp.initial;
        self.queue.clear();
        self.mark[start as usize] = epoch;
        self.queue.push(start);
        while let Some(n) = self.queue.pop() {
            let n = n as usize;
            let (comp, mark) = (&self.comp, &mut self.mark);
            let int = &comp.int_tgt[comp.int_off[n] as usize..comp.int_off[n + 1] as usize];
            let ext = &comp.ext_tgt[comp.ext_off[n] as usize..comp.ext_off[n + 1] as usize];
            for &w in int.iter().chain(ext) {
                if self.alive[self.conv[w as usize] as usize] && mark[w as usize] != epoch {
                    mark[w as usize] = epoch;
                    self.queue.push(w);
                }
            }
        }
    }

    /// Counts one τ* pass over `len` nodes.
    fn count_pass(&mut self, len: usize) {
        self.stats.slice_sizes.push(len);
        if len > 0 {
            self.stats.nodes_touched += len;
            self.stats.tau_star_recomputations += 1;
        }
    }

    /// The remove-and-recompute fixpoint (Figure 6).
    fn run(
        mut self,
        na: &NormalSpec,
        safety: &SafetyPhase,
        strategy: ProgressStrategy,
    ) -> ProgressPhase {
        let c0_initial = safety.c0.initial().index();
        let words = self.table.words();
        let mut iterations = 0usize;
        let mut removed = 0usize;
        let mut first_witness: Option<ProgressWitness> = None;
        let mut removed_cs: Vec<usize> = Vec::new();
        let mut recheck = vec![false; self.alive.len()];

        loop {
            iterations += 1;
            // 1. (Re)compute τ* — the whole product on the first pass,
            //    the backward slice of last round's deletions afterwards.
            if iterations == 1 {
                self.count_pass(self.comp.n);
                self.tau.pass(&self.comp, 0..self.comp.n as u32, |_| true);
                recheck.fill(true);
            } else {
                self.epoch += 1;
                self.backward_slice(&removed_cs);
                let dirty = std::mem::take(&mut self.dirty);
                self.count_pass(dirty.len());
                recheck.fill(false);
                for &n in &dirty {
                    recheck[self.conv[n as usize] as usize] = true;
                    self.tau.reopen(n);
                }
                let (alive, conv) = (&self.alive, &self.conv);
                self.tau.pass(&self.comp, dirty.iter().copied(), |w| {
                    alive[conv[w as usize] as usize]
                });
                self.dirty = dirty;
            }
            removed_cs.clear();

            // 2. Reachability, only when the strategy skips
            //    unreachable pairs and something needs re-checking.
            let mut reach_epoch = 0u32;
            if strategy == ProgressStrategy::ReachableProduct && recheck.iter().any(|&r| r) {
                self.epoch += 1;
                reach_epoch = self.epoch;
                self.forward_reachable();
            }

            // 3. Re-check the slice's states, ascending, matching the
            //    reference scan order exactly.
            let mut any_bad = false;
            for (cs, &check) in recheck.iter().enumerate() {
                if !check || !self.alive[cs] {
                    continue;
                }
                let bad = safety.f[cs].iter().find_map(|(hub, bs)| {
                    let n = node(&self.off, &self.b_of, bs.0, cs as u32);
                    if strategy == ProgressStrategy::ReachableProduct
                        && self.mark[n as usize] != reach_epoch
                    {
                        return None; // cannot occur: skip
                    }
                    let offered = self.tau.row(n);
                    let covered = self.acceptance[hub]
                        .chunks(words)
                        .any(|req| bits_subset(req, offered));
                    (!covered).then_some((hub, bs, n))
                });
                if let Some((hub, bs, n)) = bad {
                    if first_witness.is_none() {
                        first_witness = Some(ProgressWitness {
                            state: StateId(cs as u32),
                            trace: trace_to_state(&safety.c0, &self.alive, StateId(cs as u32)),
                            hub,
                            b_state: bs,
                            needed: na.acceptance(hub).to_vec(),
                            offered: self.table.to_alphabet(self.tau.row(n)),
                        });
                    }
                    self.alive[cs] = false;
                    removed_cs.push(cs);
                    removed += 1;
                    any_bad = true;
                }
            }
            if !self.alive[c0_initial] || !any_bad {
                break;
            }
        }
        ProgressPhase {
            converter: surviving(&safety.c0, &self.alive),
            iterations,
            removed,
            first_witness,
            stats: self.stats,
        }
    }
}

/// The surviving converter: `c0` restricted to the alive states and
/// pruned to the reachable ones; `None` once the initial state died.
fn surviving(c0: &Spec, alive: &[bool]) -> Option<Spec> {
    if !alive[c0.initial().index()] {
        return None;
    }
    let names: Vec<String> = (0..c0.num_states()).map(|i| format!("c{i}")).collect();
    let transitions: Vec<(StateId, EventId, StateId)> = c0
        .external_transitions()
        .filter(|(s, _, t)| alive[s.index()] && alive[t.index()])
        .collect();
    // Dead states stay as isolated vertices; pruning removes them along
    // with anything no longer reachable.
    let full = protoquot_spec::spec_from_parts(
        "C".to_owned(),
        c0.alphabet().clone(),
        names,
        c0.initial(),
        transitions,
        Vec::new(),
    )
    .expect("progress phase constructs a valid spec");
    Some(prune_unreachable(&full))
}

// ---------------------------------------------------------------------------
// Reference implementation (pre-incremental), kept for differential
// testing.
// ---------------------------------------------------------------------------

/// The original full-recompute progress phase: rebuilds the product
/// adjacency and reruns Tarjan on every iteration. Kept verbatim so
/// `tests/progress_differential.rs` can assert the incremental engine
/// produces identical converters; limited to ≤ 64 external events.
pub fn progress_phase_reference(b: &Spec, na: &NormalSpec, safety: &SafetyPhase) -> ProgressPhase {
    progress_phase_reference_with(b, na, safety, ProgressStrategy::FullProduct)
}

/// [`progress_phase_reference`] with an explicit strategy.
pub fn progress_phase_reference_with(
    b: &Spec,
    na: &NormalSpec,
    safety: &SafetyPhase,
    strategy: ProgressStrategy,
) -> ProgressPhase {
    let ext = b.alphabet().difference(safety.c0.alphabet());
    assert!(
        ext.len() <= 64,
        "the reference progress engine supports at most 64 external events (got {})",
        ext.len()
    );
    let table = EventTable::new(&ext);
    let mask = |a: &Alphabet| table.alphabet_bits(&a.intersection(&ext))[0];
    // Per-hub acceptance sets as masks.
    let acceptance: Vec<Vec<u64>> = (0..na.num_hubs())
        .map(|h| na.acceptance(h).iter().map(mask).collect())
        .collect();
    // τ.b ∩ Ext per B-state.
    let b_tau: Vec<u64> = b.states().map(|s| mask(&b.tau(s))).collect();

    let nb = b.num_states();
    let nc = safety.c0.num_states();
    let node = |bs: usize, cs: usize| bs * nc + cs;
    let mut alive = vec![true; nc];
    let mut iterations = 0usize;
    let mut removed = 0usize;
    let mut first_witness: Option<ProgressWitness> = None;

    // B's transitions grouped: internal, Ext-labelled, Int-labelled.
    let mut b_int_edges: HashMap<EventId, Vec<(StateId, StateId)>> = HashMap::new();
    let mut b_ext_edges: Vec<(StateId, StateId)> = Vec::new();
    for (s, e, t) in b.external_transitions() {
        if ext.contains(e) {
            b_ext_edges.push((s, t));
        } else {
            b_int_edges.entry(e).or_default().push((s, t));
        }
    }

    loop {
        iterations += 1;
        // Internal-edge adjacency of the (alive) product: B's λ moves
        // and Int-synchronised moves.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nb * nc];
        for bs in b.states() {
            for &tb in b.internal_from(bs) {
                for cs in 0..nc {
                    if alive[cs] {
                        adj[node(bs.index(), cs)].push(node(tb.index(), cs));
                    }
                }
            }
        }
        for (cs, e, ct) in safety.c0.external_transitions() {
            if !alive[cs.index()] || !alive[ct.index()] {
                continue;
            }
            if let Some(edges) = b_int_edges.get(&e) {
                for &(bs, bt) in edges {
                    adj[node(bs.index(), cs.index())].push(node(bt.index(), ct.index()));
                }
            }
        }

        // For the reachable strategy: which product nodes can occur at
        // all? Forward closure over internal edges *plus* B's Ext moves
        // (which keep the converter state fixed).
        let reachable = match strategy {
            ProgressStrategy::FullProduct => None,
            ProgressStrategy::ReachableProduct => {
                let mut seen = vec![false; nb * nc];
                let start = node(b.initial().index(), safety.c0.initial().index());
                let mut stack = vec![start];
                seen[start] = true;
                while let Some(n) = stack.pop() {
                    let (bs, cs) = (n / nc, n % nc);
                    for &m in &adj[n] {
                        if !seen[m] {
                            seen[m] = true;
                            stack.push(m);
                        }
                    }
                    // Ext moves of B leave the converter state alone.
                    for &(s, t) in &b_ext_edges {
                        if s.index() == bs {
                            let m = node(t.index(), cs);
                            if !seen[m] {
                                seen[m] = true;
                                stack.push(m);
                            }
                        }
                    }
                }
                Some(seen)
            }
        };

        // τ* over the product: SCC condensation + propagation.
        let local: Vec<u64> = (0..nb * nc).map(|n| b_tau[n / nc]).collect();
        let tau_star = propagate_tau_star(&adj, &local);

        // Mark bad states.
        let mut any_bad = false;
        for cs in 0..nc {
            if !alive[cs] {
                continue;
            }
            let bad_pair = safety.f[cs].iter().find(|&(hub, bs)| {
                if let Some(seen) = &reachable {
                    if !seen[node(bs.index(), cs)] {
                        return false; // cannot occur: skip
                    }
                }
                let offered = tau_star[node(bs.index(), cs)];
                !acceptance[hub].iter().any(|&req| req & !offered == 0)
            });
            if let Some((hub, bs)) = bad_pair {
                if first_witness.is_none() {
                    first_witness = Some(ProgressWitness {
                        state: StateId(cs as u32),
                        trace: trace_to_state(&safety.c0, &alive, StateId(cs as u32)),
                        hub,
                        b_state: bs,
                        needed: na.acceptance(hub).to_vec(),
                        offered: table.to_alphabet(&[tau_star[node(bs.index(), cs)]]),
                    });
                }
                alive[cs] = false;
                removed += 1;
                any_bad = true;
            }
        }
        if !alive[safety.c0.initial().index()] || !any_bad {
            break;
        }
    }
    ProgressPhase {
        converter: surviving(&safety.c0, &alive),
        iterations,
        removed,
        first_witness,
        stats: ProgressEngineStats::default(),
    }
}

/// Shortest trace from `c0`'s initial state to `target` through alive
/// states (BFS over the converter graph).
fn trace_to_state(c0: &Spec, alive: &[bool], target: StateId) -> Vec<EventId> {
    let n = c0.num_states();
    let mut parent: Vec<Option<(StateId, EventId)>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    seen[c0.initial().index()] = true;
    queue.push_back(c0.initial());
    while let Some(s) = queue.pop_front() {
        if s == target {
            break;
        }
        for &(e, t) in c0.external_from(s) {
            if alive[t.index()] && !seen[t.index()] {
                seen[t.index()] = true;
                parent[t.index()] = Some((s, e));
                queue.push_back(t);
            }
        }
    }
    let mut rev = Vec::new();
    let mut cur = target;
    while let Some((p, e)) = parent[cur.index()] {
        rev.push(e);
        cur = p;
    }
    rev.reverse();
    rev
}

/// τ* over a directed graph: for each node, the union of `local` over
/// all reachable nodes (including itself). Tarjan condensation; SCCs are
/// emitted in reverse topological order, so a single ascending pass
/// accumulates cross-edges. (Reference-engine helper.)
fn propagate_tau_star(adj: &[Vec<usize>], local: &[u64]) -> Vec<u64> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut scc_of = vec![usize::MAX; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut num_sccs = 0usize;

    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&(v, ci)) = call.last() {
            if ci == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if ci < adj[v].len() {
                call.last_mut().unwrap().1 += 1;
                let w = adj[v][ci];
                if index[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    loop {
                        let w = stack.pop().unwrap();
                        on_stack[w] = false;
                        scc_of[w] = num_sccs;
                        if w == v {
                            break;
                        }
                    }
                    num_sccs += 1;
                }
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    low[parent] = low[parent].min(low[v]);
                }
            }
        }
    }

    // Accumulate local masks per SCC.
    let mut scc_mask = vec![0u64; num_sccs];
    for v in 0..n {
        scc_mask[scc_of[v]] |= local[v];
    }
    // Cross edges always point to an earlier-emitted SCC, so ascending
    // order sees targets finalized first.
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for (v, outs) in adj.iter().enumerate() {
        for &w in outs {
            let (s, t) = (scc_of[v], scc_of[w]);
            if s != t {
                edges.push((s, t));
            }
        }
    }
    edges.sort_unstable_by_key(|&(s, _)| s);
    for (s, t) in edges {
        debug_assert!(t < s);
        scc_mask[s] |= scc_mask[t];
    }
    (0..n).map(|v| scc_mask[scc_of[v]]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairset::PairSet;
    use crate::safety::{safety_phase, SafetyLimits};
    use protoquot_protocols::{
        at_least_once, colocated_configuration, connection_service, exactly_once,
        frontman_configuration, gateway_configuration, nfa_blowup, symmetric_configuration,
        symmetric_gateway, two_client_service,
    };
    use protoquot_spec::{
        compose, compose_all, compose_all_reference, normalize, satisfies, spec_from_parts,
        CompiledSystem, SpecBuilder,
    };

    fn service() -> Spec {
        let mut sb = SpecBuilder::new("S");
        let u0 = sb.state("u0");
        let u1 = sb.state("u1");
        sb.ext(u0, "acc", u1);
        sb.ext(u1, "del", u0);
        sb.build().unwrap()
    }

    /// B where the converter simply forwards: progress achievable.
    #[test]
    fn progress_keeps_working_converter() {
        let mut bb = SpecBuilder::new("B");
        let b0 = bb.state("b0");
        let b1 = bb.state("b1");
        let b2 = bb.state("b2");
        bb.ext(b0, "acc", b1);
        bb.ext(b1, "fwd", b2);
        bb.ext(b2, "del", b0);
        let b = bb.build().unwrap();
        let int = Alphabet::from_names(["fwd"]);
        let na = normalize(&service());
        let s = safety_phase(&b, &na, &int, false, SafetyLimits::default())
            .unwrap()
            .unwrap();
        let p = progress_phase(&b, &na, &s);
        let conv = p.converter.expect("converter must exist");
        assert!(satisfies(&compose(&b, &conv), &service()).unwrap().is_ok());
        assert!(p.first_witness.is_none());
        // Engine counters: one full pass, nothing incremental needed.
        assert_eq!(p.stats.slice_sizes.len(), p.iterations);
        assert_eq!(p.stats.slice_sizes[0], p.stats.product_nodes);
    }

    /// B that deadlocks after acc unless the converter fires `go`,
    /// which is unsafe (leads to double delivery). Safety admits the
    /// do-nothing converter; progress then removes everything — and the
    /// witness explains why.
    #[test]
    fn progress_detects_unresolvable_conflict_with_witness() {
        let mut bb = SpecBuilder::new("B");
        let b0 = bb.state("b0");
        let b1 = bb.state("b1");
        let b2 = bb.state("b2");
        let b3 = bb.state("b3");
        bb.ext(b0, "acc", b1);
        bb.ext(b1, "go", b2);
        bb.ext(b2, "del", b3);
        bb.ext(b3, "del", b0);
        let b = bb.build().unwrap();
        let int = Alphabet::from_names(["go"]);
        let na = normalize(&service());
        let s = safety_phase(&b, &na, &int, false, SafetyLimits::default())
            .unwrap()
            .unwrap();
        let p = progress_phase(&b, &na, &s);
        assert!(p.converter.is_none(), "no converter should survive");
        let w = p.first_witness.expect("witness explains the failure");
        // The stuck pair: service wants del, composite offers nothing.
        assert_eq!(w.b_state, b1);
        assert!(w.offered.is_empty());
        assert!(w.needed.iter().any(|n| n.contains(EventId::new("del"))));
        assert!(w.trace.is_empty(), "the initial state itself is bad");
    }

    /// Progress must iterate: removing one state makes another bad.
    #[test]
    fn progress_iterates_to_fixpoint() {
        let mut bb = SpecBuilder::new("B");
        let b0 = bb.state("b0");
        let b1 = bb.state("b1");
        let b2 = bb.state("b2");
        let b3 = bb.state("b3");
        bb.ext(b0, "acc", b1);
        bb.ext(b1, "m1", b2);
        bb.ext(b2, "m2", b3);
        bb.ext(b3, "del", b0);
        bb.event("m3");
        let b = bb.build().unwrap();
        let int = Alphabet::from_names(["m1", "m2", "m3"]);
        let na = normalize(&service());
        let s = safety_phase(&b, &na, &int, false, SafetyLimits::default())
            .unwrap()
            .unwrap();
        let p = progress_phase(&b, &na, &s);
        let conv = p.converter.expect("converter exists");
        assert!(satisfies(&compose(&b, &conv), &service()).unwrap().is_ok());
    }

    /// Both strategies verify; the reachable strategy never keeps fewer
    /// states.
    #[test]
    fn strategies_agree_on_verification() {
        for (mk, expect_some) in [
            (relay_b as fn() -> (Spec, Alphabet), true),
            (dead_b as fn() -> (Spec, Alphabet), false),
        ] {
            let (b, int) = mk();
            let na = normalize(&service());
            let s = safety_phase(&b, &na, &int, false, SafetyLimits::default())
                .unwrap()
                .unwrap();
            let full = progress_phase_with(&b, &na, &s, ProgressStrategy::FullProduct);
            let reach = progress_phase_with(&b, &na, &s, ProgressStrategy::ReachableProduct);
            assert_eq!(full.converter.is_some(), expect_some);
            if let Some(cf) = &full.converter {
                let cr = reach
                    .converter
                    .as_ref()
                    .expect("reachable keeps at least as much");
                assert!(cr.num_states() >= cf.num_states());
                assert!(satisfies(&compose(&b, cf), &service()).unwrap().is_ok());
                assert!(satisfies(&compose(&b, cr), &service()).unwrap().is_ok());
            }
        }
    }

    /// The incremental engine and the retained reference implementation
    /// agree on these unit fixtures (the broad check lives in
    /// `tests/progress_differential.rs`).
    #[test]
    fn incremental_matches_reference_on_fixtures() {
        for mk in [
            relay_b as fn() -> (Spec, Alphabet),
            dead_b as fn() -> (Spec, Alphabet),
        ] {
            let (b, int) = mk();
            let na = normalize(&service());
            let s = safety_phase(&b, &na, &int, false, SafetyLimits::default())
                .unwrap()
                .unwrap();
            for strategy in [
                ProgressStrategy::FullProduct,
                ProgressStrategy::ReachableProduct,
            ] {
                let new = progress_phase_with(&b, &na, &s, strategy);
                let old = progress_phase_reference_with(&b, &na, &s, strategy);
                assert_eq!(new.converter, old.converter);
                assert_eq!(new.iterations, old.iterations);
                assert_eq!(new.removed, old.removed);
            }
        }
    }

    fn relay_b() -> (Spec, Alphabet) {
        let mut bb = SpecBuilder::new("B");
        let b0 = bb.state("b0");
        let b1 = bb.state("b1");
        let b2 = bb.state("b2");
        bb.ext(b0, "acc", b1);
        bb.ext(b1, "fwd", b2);
        bb.ext(b2, "del", b0);
        (bb.build().unwrap(), Alphabet::from_names(["fwd"]))
    }

    fn dead_b() -> (Spec, Alphabet) {
        let mut bb = SpecBuilder::new("B");
        let b0 = bb.state("b0");
        let b1 = bb.state("b1");
        bb.ext(b0, "acc", b1);
        bb.event("decoy");
        bb.event("del");
        (bb.build().unwrap(), Alphabet::from_names(["decoy"]))
    }

    /// A row of `c` as sorted `(event, target)` and target lists, its
    /// targets renamed by `to`.
    fn sorted_row(c: &CompiledComposite, s: u32, to: impl Fn(u32) -> u32) -> [Vec<(u32, u32)>; 2] {
        let (ext, int) = (c.ext_edges(), c.int_edges());
        let row = |off: &[u32]| off[s as usize] as usize..off[s as usize + 1] as usize;
        let mut e: Vec<_> = row(ext.off).map(|k| (ext.ev[k], to(ext.tgt[k]))).collect();
        let mut i: Vec<_> = row(int.off).map(|k| (0, to(int.tgt[k]))).collect();
        e.sort_unstable();
        i.sort_unstable();
        [e, i]
    }

    /// Fig. 6's product, laid out from `f.c`, is the n-way composite
    /// `B ‖ C0` up to renumbering: node `⟨b, c⟩` of one is node `⟨b, c⟩`
    /// of the other, with the same initial node and the same external
    /// and internal edges, duplicates included.
    fn assert_laid_out_is_the_composite(label: &str, b: &Spec, service: &Spec, s: &SafetyPhase) {
        let engine = Engine::new(b, &normalize(service), s);
        let system = CompiledSystem::new(&[b, &s.c0], service).unwrap();
        let (nway, laid) = (system.composite(), &engine.comp);
        let nway_spec = compose_all(&[b, &s.c0]).unwrap();
        assert!(
            nway_spec == compose_all_reference(&[b, &s.c0]).unwrap(),
            "{label}: the n-way composite is the fold's"
        );
        assert_eq!(
            (nway.n, nway_spec.num_states()),
            (laid.n, laid.n),
            "{label}"
        );
        let to_laid = |i: u32| {
            let t = nway.tuple(i as usize);
            node(&engine.off, &engine.b_of, t[0], t[1])
        };
        assert_eq!(to_laid(nway.initial), laid.initial, "{label}: initial node");
        for i in 0..nway.n as u32 {
            let (t, j) = (nway.tuple(i as usize), to_laid(i) as usize);
            assert_eq!([engine.b_of[j], engine.conv[j]], t, "{label}: node {j}");
            let want = sorted_row(nway, i, to_laid);
            assert_eq!(
                sorted_row(laid, j as u32, |x| x),
                want,
                "{label}: edges of {t:?}"
            );
        }
    }

    /// `spec` with `extra` unreachable, transition-free states appended.
    fn pad(spec: &Spec, extra: usize) -> Spec {
        let pads = (0..extra).map(|i| format!("pad{i}"));
        let names = spec.states().map(|s| spec.state_name(s).to_owned());
        let (ext, int) = (spec.external_transitions(), spec.internal_transitions());
        let (name, alphabet) = (spec.name().to_owned(), spec.alphabet().clone());
        let names = names.chain(pads).collect();
        spec_from_parts(
            name,
            alphabet,
            names,
            spec.initial(),
            ext.collect(),
            int.collect(),
        )
        .unwrap()
    }

    #[test]
    fn laid_out_product_is_the_nway_composite() {
        let mut problems: Vec<(String, Spec, Alphabet, Spec)> = (1..=11)
            .map(|n| {
                let (b, int) = nfa_blowup(n);
                (format!("nfa-blowup({n})"), b, int, exactly_once())
            })
            .collect();
        for (name, cfg, service) in [
            ("colocated", colocated_configuration(), exactly_once()),
            ("symmetric", symmetric_configuration(), exactly_once()),
            (
                "symmetric/at-least-once",
                symmetric_configuration(),
                at_least_once(),
            ),
            ("gateway", gateway_configuration(), connection_service()),
            (
                "symmetric-gateway",
                symmetric_gateway(),
                connection_service(),
            ),
            ("frontman", frontman_configuration(), two_client_service()),
        ] {
            problems.push((name.to_owned(), cfg.b, cfg.int, service));
        }
        for (label, b, int, service) in &problems {
            let na = normalize(service);
            for vacuous in [false, true] {
                let s = safety_phase(b, &na, int, vacuous, SafetyLimits::default())
                    .unwrap()
                    .unwrap();
                assert_laid_out_is_the_composite(&format!("{label}/{vacuous}"), b, service, &s);
            }
        }

        // Padding `B` and `C0` past the `u32` grid with unreachable states
        // (whose `f.c` is empty) adds no node.
        let (cfg, service) = (colocated_configuration(), exactly_once());
        let na = normalize(&service);
        let s = safety_phase(&cfg.b, &na, &cfg.int, false, SafetyLimits::default())
            .unwrap()
            .unwrap();
        let (mut f, side) = (s.f.clone(), 1usize << 16);
        f.resize(side, PairSet::empty());
        let padded = SafetyPhase {
            c0: pad(&s.c0, side - s.c0.num_states()),
            f,
            includes_vacuous: false,
        };
        let b = pad(&cfg.b, side - cfg.b.num_states());
        assert_laid_out_is_the_composite("padded colocated", &b, &service, &padded);
    }

    #[test]
    fn tau_star_propagation_on_dag_and_cycle() {
        // 0 -> 1 -> 2, 2 -> 1 (cycle 1-2), local: 0:001, 1:010, 2:100.
        let adj = vec![vec![1], vec![2], vec![1]];
        let local = vec![0b001, 0b010, 0b100];
        let t = propagate_tau_star(&adj, &local);
        assert_eq!(t[2], 0b110);
        assert_eq!(t[1], 0b110);
        assert_eq!(t[0], 0b111);
    }
}
