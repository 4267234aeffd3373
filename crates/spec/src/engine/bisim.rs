//! The strong-bisimulation kernel: the coarsest partition of a labelled
//! [`Csr`] graph's nodes that no labelled step can tell apart.
//!
//! It is Paige–Tarjan's three-way split. Blocks of nodes are kept stable
//! against *splitters*, unions of blocks. A splitter `X` of two or more
//! blocks gives up the smaller of two of them, `B`. Label by label,
//! every block then splits into the nodes with an edge into `B` and
//! none into `X − B`, those with both, and those with neither. A
//! counter per (node, label, splitter) tells "both" from "`B` only"
//! without reading `X − B`. A node lies in a given-up `B` at most
//! log₂ n times, so a run costs O(m log n). Blocks live in one
//! refinable partition, an array of nodes with each block a range and
//! its marked nodes a prefix of that range.

use super::Csr;

const NONE: u32 = u32::MAX;

/// The refinement state; see the module docs.
struct Refiner {
    /// Block `b` is `elems[first[b]..end[b]]`; its marked states are
    /// the prefix before `mid[b]`. `loc` inverts `elems`.
    elems: Vec<u32>,
    loc: Vec<u32>,
    blk: Vec<u32>,
    first: Vec<u32>,
    mid: Vec<u32>,
    end: Vec<u32>,
    touched: Vec<u32>,
    /// The blocks of each splitter, each block's splitter, and the
    /// splitters of two or more blocks.
    splitters: Vec<Vec<u32>>,
    of: Vec<u32>,
    compound: Vec<u32>,
    /// Counters as `(edges, state, label)`.
    ctr: Vec<(u32, u32, u32)>,
    by_label: Vec<Vec<u32>>,
}

impl Refiner {
    fn mark(&mut self, s: u32) {
        let (s, b) = (s as usize, self.blk[s as usize] as usize);
        let (i, j) = (self.loc[s] as usize, self.mid[b] as usize);
        if i >= j {
            if j == self.first[b] as usize {
                self.touched.push(b as u32);
            }
            self.elems.swap(i, j);
            self.loc[self.elems[i] as usize] = i as u32;
            self.loc[s] = j as u32;
            self.mid[b] += 1;
        }
    }

    /// Splits the marked prefix off every touched block, as a new block
    /// of the same splitter.
    fn split(&mut self) {
        while let Some(b) = self.touched.pop() {
            let (b, lo) = (b as usize, self.first[b as usize]);
            let m = std::mem::replace(&mut self.mid[b], lo);
            if m == self.end[b] {
                continue;
            }
            let z = self.first.len() as u32;
            for &s in &self.elems[lo as usize..m as usize] {
                self.blk[s as usize] = z;
            }
            self.first.push(lo);
            self.mid.push(lo);
            self.end.push(m);
            (self.first[b], self.mid[b]) = (m, m);
            let x = self.of[b];
            self.of.push(x);
            self.splitters[x as usize].push(z);
            if self.splitters[x as usize].len() == 2 {
                self.compound.push(x);
            }
        }
    }

    /// Splits every block, label by label, by having an edge counted by
    /// one of `hits`, then by that counter still being positive.
    fn refine(&mut self, hits: &[u32]) {
        let mut labels = Vec::new();
        for &c in hits {
            let l = self.ctr[c as usize].2 as usize;
            if self.by_label[l].is_empty() {
                labels.push(l);
            }
            self.by_label[l].push(c);
        }
        for l in labels {
            let mut cs = std::mem::take(&mut self.by_label[l]);
            for pass in 0..2 {
                for &c in &cs {
                    let (count, s, _) = self.ctr[c as usize];
                    if pass == 0 || count > 0 {
                        self.mark(s);
                    }
                }
                self.split();
            }
            cs.clear();
            self.by_label[l] = cs;
        }
    }
}

/// The coarsest strong bisimulation on the nodes of `edges`, whose
/// labels lie below `labels`. Returns each node's class, numbered
/// breadth first from `roots` along edges in order ([`NONE`] when
/// unreached), and per class the node it was first reached at.
pub(crate) fn bisim_classes(edges: Csr<'_>, labels: usize, roots: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let (n, m) = (edges.off.len() - 1, edges.tgt.len());
    let mut r = Refiner {
        elems: (0..n as u32).collect(),
        loc: (0..n as u32).collect(),
        blk: vec![0; n],
        first: vec![0],
        mid: vec![0],
        end: vec![n as u32],
        touched: Vec::new(),
        splitters: vec![vec![0]],
        of: vec![0],
        compound: Vec::new(),
        ctr: Vec::new(),
        by_label: vec![Vec::new(); labels],
    };
    // In-edges grouped by target, and per edge the counter it counts
    // towards: one per source and label, into the splitter of all nodes.
    let mut in_off = vec![0u32; n + 1];
    for &t in edges.tgt {
        in_off[t as usize + 1] += 1;
    }
    for i in 0..n {
        in_off[i + 1] += in_off[i];
    }
    let (mut fill, mut in_edge, mut ctr_of) = (in_off.clone(), vec![0u32; m], vec![0u32; m]);
    let mut last = vec![NONE; labels];
    for u in 0..n as u32 {
        for k in edges.edges(u) {
            let (l, t) = (edges.ev[k] as usize, edges.tgt[k] as usize);
            if last[l] == NONE {
                last[l] = r.ctr.len() as u32;
                r.ctr.push((0, u, l as u32));
            }
            ctr_of[k] = last[l];
            r.ctr[last[l] as usize].0 += 1;
            in_edge[fill[t] as usize] = k as u32;
            fill[t] += 1;
        }
        edges
            .edges(u)
            .for_each(|k| last[edges.ev[k] as usize] = NONE);
    }
    // Split by enabled labels: stable against the splitter of all nodes.
    r.refine(&(0..r.ctr.len() as u32).collect::<Vec<_>>());
    let (mut hits, mut fresh) = (Vec::new(), vec![NONE; r.ctr.len()]);
    while let Some(x) = r.compound.pop() {
        let size = |b: u32| r.end[b as usize] - r.first[b as usize];
        let (b0, b1) = (r.splitters[x as usize][0], r.splitters[x as usize][1]);
        let b = r.splitters[x as usize].swap_remove(usize::from(size(b1) < size(b0)));
        if r.splitters[x as usize].len() >= 2 {
            r.compound.push(x);
        }
        r.of[b as usize] = r.splitters.len() as u32;
        r.splitters.push(vec![b]);
        // Move the edges into `b` onto fresh counters.
        for i in r.first[b as usize]..r.end[b as usize] {
            let t = r.elems[i as usize] as usize;
            for &k in &in_edge[in_off[t] as usize..in_off[t + 1] as usize] {
                let c = ctr_of[k as usize] as usize;
                if fresh[c] == NONE {
                    fresh[c] = r.ctr.len() as u32;
                    hits.push(c as u32);
                    r.ctr.push((0, r.ctr[c].1, r.ctr[c].2));
                    fresh.push(NONE);
                }
                ctr_of[k as usize] = fresh[c];
                r.ctr[c].0 -= 1;
                r.ctr[fresh[c] as usize].0 += 1;
            }
        }
        r.refine(&hits);
        hits.drain(..).for_each(|c| fresh[c as usize] = NONE);
    }
    let (mut class, mut reps) = (vec![NONE; r.first.len()], Vec::new());
    let mut visit = |s: u32, reps: &mut Vec<u32>| {
        let b = r.blk[s as usize] as usize;
        if class[b] == NONE {
            class[b] = reps.len() as u32;
            reps.push(s);
        }
    };
    roots.iter().for_each(|&s| visit(s, &mut reps));
    let mut i = 0;
    while let Some(&s) = reps.get(i) {
        edges.edges(s).for_each(|k| visit(edges.tgt[k], &mut reps));
        i += 1;
    }
    (r.blk.iter().map(|&b| class[b as usize]).collect(), reps)
}
