//! Blocked-bitset relations: the bit-parallel join/fixpoint kernel.
//!
//! Run nodes are dense `u32`s, so a node-pair relation over an
//! `n`-node run is an `n × n` boolean matrix — the same shape the
//! 64-state `StateMatrix` of `rpq-core` exploits for DFA relations
//! (PAPER.md §III-C), scaled past 64 columns by blocking each row into
//! `⌈n/64⌉` `u64` words. Composition becomes word-wise row ORs and the
//! semi-naive Kleene fixpoint becomes `next = Δ ∘ base; new = next & !seen`
//! on whole words, eliminating the per-pair hashing and per-round `Vec`
//! churn of the pair-based operators.
//!
//! [`BitRelation`] is one of the two formats a relation's explicit
//! pairs live in ([`crate::Pairs::Bits`], beside the pair kernel's
//! sorted [`NodePairSet`]): the bit and condensation kernels return
//! their results as rows, and joins, unions and the final selection
//! consume them as rows. Pairs are listed only where a caller asks for
//! them — [`BitRelation::select_pairs`] ANDs the target mask into each
//! selected row and lists what survives, and [`BitRelation::to_pairs`]
//! serves the pair-returning wrappers of [`crate::join`].

use crate::csr::CsrRelation;
use crate::relation::NodePairSet;
use crate::rowops;
use rpq_labeling::NodeId;

/// A dense boolean relation over `n` nodes, one blocked bitset row per
/// source node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitRelation {
    n_nodes: usize,
    /// Words per row: `⌈n_nodes/64⌉`.
    words_per_row: usize,
    /// Row-major `n_nodes × words_per_row` words.
    words: Vec<u64>,
}

impl BitRelation {
    /// The empty relation over `n_nodes` nodes.
    pub fn new(n_nodes: usize) -> BitRelation {
        let words_per_row = n_nodes.div_ceil(64);
        BitRelation {
            n_nodes,
            words_per_row,
            words: vec![0; n_nodes * words_per_row],
        }
    }

    /// Build from a pair set. `n_nodes` must bound every node id
    /// (checked in debug builds).
    pub fn from_pairs(pairs: &NodePairSet, n_nodes: usize) -> BitRelation {
        let mut bits = BitRelation::new(n_nodes);
        bits.set_all(pairs);
        bits
    }

    /// Add every pair of `pairs` (each id must be below `n_nodes`).
    pub fn set_all(&mut self, pairs: &NodePairSet) {
        for (u, v) in pairs.iter() {
            self.set(u, v);
        }
    }

    /// Build from a CSR adjacency (the cached per-`(run, tag)` arena).
    pub fn from_csr(csr: &CsrRelation) -> BitRelation {
        let n = csr.n_nodes();
        let mut bits = BitRelation::new(n);
        for u in 0..n as u32 {
            let row = bits.row_index(u as usize);
            for &v in csr.neighbors_raw(u) {
                bits.words[row + (v as usize >> 6)] |= 1 << (v & 63);
            }
        }
        bits
    }

    /// Number of nodes in the universe (row/column count).
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Words per blocked row.
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    #[inline]
    fn row_index(&self, u: usize) -> usize {
        u * self.words_per_row
    }

    /// The blocked bitset row of source `u`.
    #[inline]
    pub fn row(&self, u: usize) -> &[u64] {
        &self.words[self.row_index(u)..self.row_index(u) + self.words_per_row]
    }

    /// The mutable blocked bitset row of source `u` (the condensation
    /// closure writes whole finished component rows at once).
    #[inline]
    pub(crate) fn row_mut(&mut self, u: usize) -> &mut [u64] {
        let start = self.row_index(u);
        &mut self.words[start..start + self.words_per_row]
    }

    /// Add `(u, v)`.
    #[inline]
    pub fn set(&mut self, u: NodeId, v: NodeId) {
        debug_assert!(u.index() < self.n_nodes && v.index() < self.n_nodes);
        let start = self.row_index(u.index());
        self.words[start + (v.index() >> 6)] |= 1 << (v.index() & 63);
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, u: NodeId, v: NodeId) -> bool {
        if u.index() >= self.n_nodes || v.index() >= self.n_nodes {
            return false;
        }
        let start = self.row_index(u.index());
        self.words[start + (v.index() >> 6)] >> (v.index() & 63) & 1 == 1
    }

    /// Add every pair of `sources × targets`: the targets are set in
    /// `scratch`, one blocked row, which is ORed into each source row
    /// over the words the targets span and then cleared. `scratch` must
    /// be an all-zero row of [`BitRelation::words_per_row`] words; it is
    /// all zero again on return.
    pub fn set_product(
        &mut self,
        sources: impl IntoIterator<Item = NodeId>,
        targets: impl IntoIterator<Item = NodeId>,
        scratch: &mut [u64],
    ) {
        debug_assert_eq!(scratch.len(), self.words_per_row);
        let (mut lo, mut hi) = (usize::MAX, 0);
        for v in targets {
            let w = v.index() >> 6;
            scratch[w] |= 1 << (v.index() & 63);
            lo = lo.min(w);
            hi = hi.max(w);
        }
        if lo > hi {
            return;
        }
        let span = lo..hi + 1;
        for u in sources {
            let start = self.row_index(u.index());
            rowops::or_into(
                &mut self.words[start + span.start..start + span.end],
                &scratch[span.clone()],
            );
        }
        scratch[span].fill(0);
    }

    /// Remove every reflexive pair `(u, u)`: one word per row.
    pub fn clear_diagonal(&mut self) {
        for u in 0..self.n_nodes {
            let start = self.row_index(u);
            self.words[start + (u >> 6)] &= !(1 << (u & 63));
        }
    }

    /// Number of pairs (popcount over all rows).
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Word-wise union, in place. Returns whether `self` changed.
    pub fn union_in_place(&mut self, other: &BitRelation) -> bool {
        debug_assert_eq!(self.n_nodes, other.n_nodes);
        // One flat word-slice OR: rows share a stride, so the whole
        // matrix is a single blocked pass.
        rowops::or_into_changed(&mut self.words, &other.words)
    }

    /// Word-wise union.
    pub fn union(&self, other: &BitRelation) -> BitRelation {
        let mut out = self.clone();
        out.union_in_place(other);
        out
    }

    /// Word-wise difference `self ∖ other`.
    pub fn difference(&self, other: &BitRelation) -> BitRelation {
        debug_assert_eq!(self.n_nodes, other.n_nodes);
        let mut out = self.clone();
        rowops::andnot_into(&mut out.words, &other.words);
        out
    }

    /// Composition `{(u, w) | (u, v) ∈ self, (v, w) ∈ other}`: for each
    /// set bit `v` of a row, OR in `other`'s row of `v` — the blocked
    /// analogue of boolean matrix multiplication. Middle nodes whose
    /// `other` row is empty contribute nothing, so one mask of the
    /// non-empty rows is built first and ANDed into each left word
    /// before its bits are walked: a dense left side joined with a
    /// sparse right one visits only the middles that can extend.
    pub fn compose(&self, other: &BitRelation) -> BitRelation {
        debug_assert_eq!(self.n_nodes, other.n_nodes);
        let wpr = self.words_per_row;
        let mut live = vec![0u64; wpr];
        for v in 0..other.n_nodes {
            if other.row(v).iter().any(|&w| w != 0) {
                live[v >> 6] |= 1 << (v & 63);
            }
        }
        let mut out = BitRelation::new(self.n_nodes);
        let mut gather: Vec<usize> = Vec::new();
        for u in 0..self.n_nodes {
            gather.clear();
            for (block, (&word, &mask)) in self.row(u).iter().zip(&live).enumerate() {
                gather.extend(BitIter(word & mask).map(|b| other.row_index((block << 6) + b)));
            }
            if gather.is_empty() {
                continue;
            }
            let out_start = out.row_index(u);
            rowops::or_gather_into(
                &mut out.words[out_start..out_start + wpr],
                gather.iter().map(|&start| &other.words[start..start + wpr]),
            );
        }
        out
    }

    /// Composition with a CSR left operand: iterate the sparse adjacency
    /// lists instead of scanning row words — the join kernel for sparse
    /// `A ∘ dense B`.
    pub fn compose_csr(a: &CsrRelation, b: &BitRelation) -> BitRelation {
        debug_assert_eq!(a.n_nodes(), b.n_nodes);
        let wpr = b.words_per_row;
        let mut out = BitRelation::new(b.n_nodes);
        for u in 0..a.n_nodes() as u32 {
            let out_start = out.row_index(u as usize);
            rowops::or_gather_into(
                &mut out.words[out_start..out_start + wpr],
                a.neighbors_raw(u).iter().map(|&v| {
                    let b_start = b.row_index(v as usize);
                    &b.words[b_start..b_start + wpr]
                }),
            );
        }
        out
    }

    /// Transitive closure (Kleene plus) of `self`, semi-naive and fully
    /// word-wise: per round, each non-empty delta row is extended by one
    /// base step (`next = ⋃_{v ∈ Δ[u]} base[v]`) and only the genuinely
    /// new bits (`new = next & !seen`) survive into the next delta.
    /// Every pair enters a delta row exactly once, so total work is
    /// `O(|closure| · n/64)` words — the classic bit-parallel bound,
    /// with no per-pair hashing and no per-round re-sorting.
    pub fn transitive_closure(&self) -> BitRelation {
        let n = self.n_nodes;
        let wpr = self.words_per_row;
        let mut seen = self.clone();
        let mut delta = self.clone();
        let mut next = vec![0u64; wpr];
        // Row starts of the current row's gather sources, batched so
        // the gather can consume them in pairs (one `next` pass
        // per two base rows — see [`rowops::or_gather_into`]).
        let mut gather: Vec<usize> = Vec::new();
        // Worklist of rows whose delta is non-empty: per-round cost is
        // proportional to the rows still growing, not to n (deep sparse
        // graphs would otherwise pay an n-row zero-scan per round).
        let mut active: Vec<usize> = (0..n)
            .filter(|&u| {
                let start = u * wpr;
                delta.words[start..start + wpr].iter().any(|&w| w != 0)
            })
            .collect();
        while !active.is_empty() {
            let mut still_active = Vec::with_capacity(active.len());
            for &u in &active {
                let d_start = delta.row_index(u);
                next.fill(0);
                gather.clear();
                for block in 0..wpr {
                    let mut bits = delta.words[d_start + block];
                    while bits != 0 {
                        let v = (block << 6) + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        gather.push(self.row_index(v));
                    }
                }
                rowops::or_gather_into(
                    &mut next,
                    gather.iter().map(|&base| &self.words[base..base + wpr]),
                );
                // new = next & !seen; seen |= new; delta[u] = new.
                let s_start = seen.row_index(u);
                let row_grew = rowops::claim_new(
                    &next,
                    &mut seen.words[s_start..s_start + wpr],
                    &mut delta.words[d_start..d_start + wpr],
                );
                if row_grew {
                    still_active.push(u);
                }
            }
            active = still_active;
        }
        seen
    }

    /// Relayout into a larger universe: same pairs, `n_nodes` rows of
    /// `⌈n_nodes/64⌉` words. Streaming appends grow the node universe,
    /// which changes the blocked-row stride — a plain word copy would
    /// misalign every row past the first.
    pub fn grow(&self, n_nodes: usize) -> BitRelation {
        assert!(
            n_nodes >= self.n_nodes,
            "grow cannot shrink the universe ({} -> {n_nodes})",
            self.n_nodes
        );
        let mut out = BitRelation::new(n_nodes);
        let old_wpr = self.words_per_row;
        for u in 0..self.n_nodes {
            let src = self.row_index(u);
            let dst = u * out.words_per_row;
            out.words[dst..dst + old_wpr].copy_from_slice(&self.words[src..src + old_wpr]);
        }
        out
    }

    /// Extend a finished transitive closure by a batch of new edges
    /// without refixpointing the whole graph: `self` is the closure of
    /// some edge set `E`, `base` is the grown base `E ∪ Δ`, and `delta`
    /// holds the new edges `Δ` (all three over the same universe —
    /// [`BitRelation::grow`] first when nodes were added).
    ///
    /// The old closure does double duty. Seeding: a new edge `(u, v)`
    /// can only create pairs `(x, y)` with `x ∈ {u} ∪ pred(u)` (read
    /// off column `u` of the old closure) and `y ∈ {v} ∪ succ(v)` (row
    /// `v`), so exactly those rows enter the delta worklist, pre-loaded
    /// with the whole old reach of `v` in one OR. Propagation: the
    /// semi-naive rounds step through `base[w] | closure_old[w]`, so a
    /// round traverses an arbitrarily long stretch of *old* edges at
    /// once and the round count is bounded by the number of Δ-edges on
    /// a path, not the graph diameter. Rows never seeded or reached
    /// stay untouched — the "delta rounds instead of a full refixpoint"
    /// the streaming store relies on.
    pub fn extend_closure(&self, base: &BitRelation, delta: &NodePairSet) -> BitRelation {
        let n = base.n_nodes;
        let wpr = base.words_per_row;
        assert_eq!(self.n_nodes, n, "closure and base universes differ");
        let mut seen = self.clone();
        let mut dl = BitRelation::new(n);
        let mut on_worklist = vec![false; n];
        let mut active: Vec<usize> = Vec::new();

        // Seed one step row per distinct Δ source: the union of {v} and
        // the old closure rows of every new target v of u.
        let mut step = vec![0u64; wpr];
        let dpairs = delta.as_slice();
        let mut i = 0;
        while i < dpairs.len() {
            let u = dpairs[i].0;
            step.fill(0);
            while i < dpairs.len() && dpairs[i].0 == u {
                let v = dpairs[i].1.index();
                step[v >> 6] |= 1 << (v & 63);
                rowops::or_into(&mut step, self.row(v));
                i += 1;
            }
            // Affected sources: u itself plus everything that already
            // reached u (column u of the old closure).
            let u_block = u.index() >> 6;
            let u_bit = 1u64 << (u.index() & 63);
            for (x, on_wl) in on_worklist.iter_mut().enumerate() {
                let reaches_u = x == u.index() || self.words[x * wpr + u_block] & u_bit != 0;
                if !reaches_u {
                    continue;
                }
                let s_start = x * wpr;
                let grew = rowops::claim_new_accum(
                    &step,
                    &mut seen.words[s_start..s_start + wpr],
                    &mut dl.words[s_start..s_start + wpr],
                );
                if grew && !*on_wl {
                    *on_wl = true;
                    active.push(x);
                }
            }
        }

        // Semi-naive rounds over the accelerated step relation
        // `base[w] | closure_old[w]`: any pair it adds is a real path in
        // `E ∪ Δ` (old-closure rows are Δ-free path bundles), and any
        // new pair (x, y) is found — induction on the number of Δ-edges
        // along a witnessing path: the prefix up to the first Δ-edge
        // (u, v) puts x in the seeded set with v's old reach, and each
        // later Δ-edge is crossed by one further round, the old-edge
        // stretches between them collapsing into single closure-row ORs.
        let mut next = vec![0u64; wpr];
        while !active.is_empty() {
            let mut still_active = Vec::with_capacity(active.len());
            for &u in &active {
                on_worklist[u] = false;
                let d_start = u * wpr;
                next.fill(0);
                for block in 0..wpr {
                    let mut bits = dl.words[d_start + block];
                    while bits != 0 {
                        let w = (block << 6) + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let b_start = w * wpr;
                        rowops::or2_into(
                            &mut next,
                            &base.words[b_start..b_start + wpr],
                            &self.words[b_start..b_start + wpr],
                        );
                    }
                }
                let s_start = u * wpr;
                let row_grew = rowops::claim_new(
                    &next,
                    &mut seen.words[s_start..s_start + wpr],
                    &mut dl.words[d_start..d_start + wpr],
                );
                if row_grew {
                    still_active.push(u);
                }
            }
            active = still_active;
        }
        seen
    }

    /// Restrict to `sources × targets` without materializing the
    /// unselected pairs: the target list becomes one blocked mask that
    /// is ANDed into each selected source row as it is scanned, so a
    /// dense relation pays `⌈n/64⌉` word-ANDs per source instead of a
    /// per-pair membership probe (the ROADMAP's "bit-parallel endpoint
    /// selection" follow-up to the PR 2 kernel). Lists may arrive
    /// unsorted and with duplicates; out-of-range ids select nothing.
    pub fn select_pairs(&self, sources: &[NodeId], targets: &[NodeId]) -> NodePairSet {
        let mut mask = vec![0u64; self.words_per_row];
        for &v in targets {
            if v.index() < self.n_nodes {
                mask[v.index() >> 6] |= 1 << (v.index() & 63);
            }
        }
        let mut srcs: Vec<usize> = sources
            .iter()
            .map(|u| u.index())
            .filter(|&u| u < self.n_nodes)
            .collect();
        srcs.sort_unstable();
        srcs.dedup();
        let mut out = Vec::new();
        for u in srcs {
            let start = self.row_index(u);
            for (block, (&row_word, &mask_word)) in self.words[start..start + self.words_per_row]
                .iter()
                .zip(&mask)
                .enumerate()
            {
                let word = row_word & mask_word;
                out.extend(
                    BitIter(word).map(|b| (NodeId(u as u32), NodeId(((block << 6) + b) as u32))),
                );
            }
        }
        // Sources were visited in increasing order and each row scans
        // left to right, so the output is sorted and duplicate-free.
        NodePairSet::from_sorted_unique(out)
    }

    /// Iterate the pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.n_nodes).flat_map(move |u| {
            self.row(u).iter().enumerate().flat_map(move |(block, &w)| {
                BitIter(w).map(move |b| (NodeId(u as u32), NodeId(((block << 6) + b) as u32)))
            })
        })
    }

    /// Materialize back into the boundary pair-set type (already sorted
    /// by construction — no sort, no dedup).
    pub fn to_pairs(&self) -> NodePairSet {
        NodePairSet::from_sorted_unique(self.iter().collect())
    }
}

/// Iterator over the set bit positions of one word.
struct BitIter(u64);

impl Iterator for BitIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let b = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn pairs(ps: &[(u32, u32)]) -> NodePairSet {
        NodePairSet::from_pairs(ps.iter().map(|&(a, b)| (n(a), n(b))).collect())
    }

    #[test]
    fn roundtrip_pairs() {
        let p = pairs(&[(0, 1), (2, 70), (70, 0), (100, 100)]);
        let bits = BitRelation::from_pairs(&p, 101);
        assert_eq!(bits.len(), 4);
        assert!(bits.contains(n(2), n(70)));
        assert!(!bits.contains(n(70), n(2)));
        assert_eq!(bits.to_pairs(), p);
    }

    #[test]
    fn word_ops_match_set_semantics() {
        let a = BitRelation::from_pairs(&pairs(&[(0, 1), (1, 2)]), 80);
        let b = BitRelation::from_pairs(&pairs(&[(1, 2), (2, 79)]), 80);
        assert_eq!(a.union(&b).to_pairs(), pairs(&[(0, 1), (1, 2), (2, 79)]));
        assert_eq!(a.difference(&b).to_pairs(), pairs(&[(0, 1)]));
        assert_eq!(a.compose(&b).to_pairs(), pairs(&[(0, 2), (1, 79)]));
    }

    #[test]
    fn closure_of_long_chain_crosses_word_blocks() {
        let chain: Vec<(u32, u32)> = (0..200).map(|i| (i, i + 1)).collect();
        let bits = BitRelation::from_pairs(&pairs(&chain), 201);
        let tc = bits.transitive_closure();
        assert_eq!(tc.len(), 201 * 200 / 2);
        assert!(tc.contains(n(0), n(200)));
        assert!(!tc.contains(n(200), n(0)));
    }

    #[test]
    fn closure_handles_cycles() {
        let bits = BitRelation::from_pairs(&pairs(&[(0, 1), (1, 0)]), 2);
        assert_eq!(
            bits.transitive_closure().to_pairs(),
            pairs(&[(0, 0), (0, 1), (1, 0), (1, 1)])
        );
    }

    #[test]
    fn select_pairs_masks_rows() {
        let p = pairs(&[(0, 1), (0, 70), (2, 70), (70, 0), (3, 3)]);
        let bits = BitRelation::from_pairs(&p, 80);
        // Unsorted, duplicated lists; out-of-range ids are ignored.
        let sel = bits.select_pairs(
            &[n(2), n(0), n(2), n(3), n(999)],
            &[n(70), n(3), n(70), n(999)],
        );
        assert_eq!(sel, pairs(&[(0, 70), (2, 70), (3, 3)]));
        assert!(bits.select_pairs(&[], &[n(70)]).is_empty());
        assert!(bits.select_pairs(&[n(0)], &[]).is_empty());
    }

    #[test]
    fn set_product_and_clear_diagonal() {
        let mut bits = BitRelation::new(130);
        let mut scratch = vec![0u64; bits.words_per_row()];
        bits.set_product([n(0), n(129)], [n(129), n(1), n(64)], &mut scratch);
        assert!(scratch.iter().all(|&w| w == 0), "scratch row cleared");
        bits.set_product([n(5)], [n(5)], &mut scratch);
        bits.set_product([n(7)], [], &mut scratch);
        let off_diagonal = [(0, 1), (0, 64), (0, 129), (129, 1), (129, 64)];
        let mut all = off_diagonal.to_vec();
        all.extend([(5, 5), (129, 129)]);
        assert_eq!(bits.to_pairs(), pairs(&all));
        bits.clear_diagonal();
        assert_eq!(bits.to_pairs(), pairs(&off_diagonal));
    }

    #[test]
    fn empty_relation_closure_is_empty() {
        let bits = BitRelation::new(64);
        assert!(bits.transitive_closure().is_empty());
        assert!(bits.to_pairs().is_empty());
    }

    #[test]
    fn grow_preserves_pairs_across_the_stride_change() {
        // 60 -> 130 nodes crosses a words-per-row boundary (1 -> 3).
        let p = pairs(&[(0, 1), (2, 59), (59, 0)]);
        let bits = BitRelation::from_pairs(&p, 60);
        let grown = bits.grow(130);
        assert_eq!(grown.n_nodes(), 130);
        assert_eq!(grown.to_pairs(), p);
        assert_eq!(bits.grow(60).to_pairs(), p);
    }

    #[test]
    fn extend_closure_matches_refixpoint_on_chains_and_cycles() {
        // Base chain 0→1→2→3, closed; append 3→4 (new node) and 4→0
        // (creates a cycle through the whole chain).
        let base_old = pairs(&[(0, 1), (1, 2), (2, 3)]);
        let closure_old = BitRelation::from_pairs(&base_old, 4).transitive_closure();
        let delta = pairs(&[(3, 4), (4, 0)]);
        let base_new = BitRelation::from_pairs(&base_old.union(&delta), 5);
        let extended = closure_old.grow(5).extend_closure(&base_new, &delta);
        assert_eq!(
            extended.to_pairs(),
            base_new.transitive_closure().to_pairs()
        );
        // The cycle makes every pair reachable, including self-loops.
        assert!(extended.contains(n(2), n(2)));
        assert_eq!(extended.len(), 25);
    }

    #[test]
    fn extend_closure_with_empty_delta_is_identity() {
        let base = pairs(&[(0, 1), (1, 70), (70, 2)]);
        let bits = BitRelation::from_pairs(&base, 80);
        let closure = bits.transitive_closure();
        let extended = closure.extend_closure(&bits, &NodePairSet::new());
        assert_eq!(extended, closure);
    }

    #[test]
    fn extend_closure_chains_multiple_new_edges_in_one_batch() {
        // Two disjoint old chains bridged by two Δ edges in one batch:
        // completeness needs a propagation round per Δ edge on the path.
        let base_old = pairs(&[(0, 1), (1, 2), (10, 11), (11, 12)]);
        let closure_old = BitRelation::from_pairs(&base_old, 20).transitive_closure();
        let delta = pairs(&[(2, 10), (12, 15)]);
        let base_new = BitRelation::from_pairs(&base_old.union(&delta), 20);
        let extended = closure_old.extend_closure(&base_new, &delta);
        assert_eq!(
            extended.to_pairs(),
            base_new.transitive_closure().to_pairs()
        );
        assert!(extended.contains(n(0), n(15)));
    }
}
