//! All-pairs safe queries (Section IV-A, Algorithm 2).
//!
//! Three evaluation strategies, matching the paper's experiment labels:
//!
//! * [`all_pairs_nested`] — **Option S1 / "RPL"**: nested loop over
//!   `l1 × l2` with the constant-time pairwise decode per pair,
//!   `Θ(|l1|·|l2|)`. Kept as the referee of the other two.
//! * [`all_pairs_filtered`] — **Option S2 / "optRPL"**: Algorithm 2.
//!   Both lists become projections of the compressed parse tree
//!   ([`ListTree`]); a simultaneous top-down merge visits the tree
//!   positions where two labels diverge (Case 1: children of one simple
//!   workflow; Case 2: unfoldings of one recursion chain, red/blue
//!   coloring) and emits exactly the *answer* pairs.
//! * [`all_pairs_reachability`] — the same merge with every mask ≡ 1:
//!   the input+output-linear all-pairs reachability evaluator the
//!   paper obtains "as a side effect".
//!
//! ## Masks, aggregates, and what the merge costs
//!
//! A pair `(u, v)` diverging at a tree node matches iff
//! `(row(u) · middle) AND col(v) ≠ 0`, where `row(u)` is the start state
//! pushed up `u`'s exit chain to the divergence point, `col(v)` the
//! accepting states pulled back along `v`'s enter chain, and `middle`
//! the body closure (Case 1) or the run of unfoldings between the two
//! (Case 2) — see [`crate::plan`]. Each side of the merge stores, per
//! leaf, its mask as seen from every depth of its label, and per tree
//! node the OR of its leaves' masks there. Since `row · M` distributes
//! over OR, the decode test on two aggregates is exact for "no pair of
//! these subtrees matches": a production group, a red or blue
//! grandchild, or a chain step whose aggregate test fails is skipped
//! before any leaf is enumerated.
//!
//! Leaves that survive are grouped by mask. Case 1 buckets each child's
//! leaves once and emits source bucket × target bucket wherever the
//! masks meet across the body closure. Case 2 is one sweep per
//! direction over the chain's children in unfolding order: the side
//! entering through red (blue) grandchildren is carried as *classes* —
//! leaves keyed by their mask at the current chain position, advanced
//! across index gaps with power-table row or column products, merged
//! when their masks coincide, dropped when their mask dies — and each
//! child on the other side buckets its leaves and meets every class
//! carried from lower indices.
//!
//! Every emission is one source group × one target group, and it goes
//! to a sink that starts as a pair list. Once the list would hold more
//! pairs than the `n × ⌈n/64⌉` answer matrix has words (`n` nodes in
//! the run; a pair is one word), the sink converts it once into
//! [`BitRelation`] rows, and from then on an emission sets its target
//! bits in one scratch row and ORs the words they span into each
//! source row. Rows are only used where the bit kernel can represent
//! the universe ([`bits_representable`]).
//!
//! Cost: `O((|l1| + |l2|) · depth)` row/column steps for masks and
//! aggregates, plus `O(chain positions × classes × buckets)` for the
//! sweeps, plus the emission: `O(N)` for `N` *answers* while the sink is
//! a list, then a counting sort of the answers by node id in `O(N + n)`;
//! in rows, `O(|targets| + |sources| · span)` words per group pair and
//! no sort. A sink never holds more than the larger of `N` pairs and
//! the matrix.

use crate::plan::SafeQueryPlan;
use rpq_grammar::{ProductionId, Specification};
use rpq_labeling::{LabelEntry, ListTree, ListTreeNode, NodeId, Run};
use rpq_relalg::kernel::bits_representable;
use rpq_relalg::{BitRelation, NodePairSet, Pairs};
use std::iter;
use std::ops::Range;

/// Option S1: nested-loop structural join with O(1) pairwise decodes.
pub fn all_pairs_nested(
    plan: &SafeQueryPlan,
    run: &Run,
    l1: &[NodeId],
    l2: &[NodeId],
) -> NodePairSet {
    let mut out = Vec::new();
    for &u in l1 {
        for &v in l2 {
            if plan.pairwise(run, u, v) {
                out.push((u, v));
            }
        }
    }
    NodePairSet::from_pairs(out)
}

/// Option S2: Algorithm 2 — the tree merge with mask-pruned groups.
pub fn all_pairs_filtered(
    plan: &SafeQueryPlan,
    spec: &Specification,
    run: &Run,
    l1: &[NodeId],
    l2: &[NodeId],
) -> NodePairSet {
    all_pairs_relation(plan, spec, run, l1, l2).into_sorted()
}

/// [`all_pairs_filtered`] in the format its answer count picks: a
/// sorted list, or bit rows over the run's universe once the list would
/// outgrow them — the shape a composite plan's joins consume as is.
pub fn all_pairs_relation(
    plan: &SafeQueryPlan,
    spec: &Specification,
    run: &Run,
    l1: &[NodeId],
    l2: &[NodeId],
) -> Pairs {
    let switch_at = rows_switch_point(run.n_nodes());
    let masks = Masks::of(plan, spec);
    merge_lists(spec, run, masks, plan.accepts_epsilon(), l1, l2, switch_at)
}

/// Algorithm 2 without the filter: all-pairs *reachability* in time
/// linear in input and output.
pub fn all_pairs_reachability(
    spec: &Specification,
    run: &Run,
    l1: &[NodeId],
    l2: &[NodeId],
) -> NodePairSet {
    // u ⇝ u holds under plain reachability.
    let switch_at = rows_switch_point(run.n_nodes());
    merge_lists(spec, run, Masks::Reach(spec), true, l1, l2, switch_at).into_sorted()
}

/// The answer count at which a pair list holds as many words as the
/// `n × ⌈n/64⌉` row matrix; never, for universes the bit kernel cannot
/// represent.
fn rows_switch_point(n_nodes: usize) -> usize {
    if bits_representable(n_nodes) {
        n_nodes * n_nodes.div_ceil(64)
    } else {
        usize::MAX
    }
}

/// The merge proper; the sink turns into rows once its list would pass
/// `switch_at` pairs.
fn merge_lists(
    spec: &Specification,
    run: &Run,
    masks: Masks<'_>,
    epsilon: bool,
    l1: &[NodeId],
    l2: &[NodeId],
    switch_at: usize,
) -> Pairs {
    let src_tree = ListTree::build(run, l1);
    // A composite leaf merges the universe with itself: one trie serves
    // both sides, which differ only in their masks.
    let dst_tree = (l1 != l2).then(|| ListTree::build(run, l2));
    let dst_tree = dst_tree.as_ref().unwrap_or(&src_tree);
    if src_tree.n_leaves() == 0 || dst_tree.n_leaves() == 0 {
        return Pairs::default();
    }
    let merger = Merger {
        spec,
        masks,
        epsilon,
        src: Side::build(run, &src_tree, masks.start(), |row, e| {
            masks.exit_step(row, e)
        }),
        dst: Side::build(run, dst_tree, masks.accept(), |col, e| {
            masks.enter_step(col, e)
        }),
    };
    let mut scratch = Scratch {
        sink: Sink::List {
            pairs: Vec::new(),
            switch_at,
            n_nodes: run.n_nodes(),
        },
        carried: Vec::new(),
        visited: Vec::new(),
        carried_at: Vec::new(),
        visited_at: Vec::new(),
        spare: Vec::new(),
    };
    merger.merge(0, 0, 0, &mut scratch);
    scratch.sink.finish()
}

/// Where the merge writes its answers: a pair list until it would pass
/// `switch_at` pairs, then blocked rows over the `n_nodes` universe.
enum Sink {
    List {
        pairs: Vec<(NodeId, NodeId)>,
        switch_at: usize,
        n_nodes: usize,
    },
    Rows {
        rows: BitRelation,
        /// The scratch target row; all zero between emissions.
        mask: Vec<u64>,
    },
}

impl Sink {
    /// Add `sources × targets`. The emission that would take the list
    /// past its switch point moves the list into rows first.
    fn emit<S, T>(&mut self, sources: S, targets: T)
    where
        S: ExactSizeIterator<Item = NodeId>,
        T: ExactSizeIterator<Item = NodeId> + Clone,
    {
        if let Sink::List {
            pairs,
            switch_at,
            n_nodes,
        } = self
        {
            let n = sources.len().saturating_mul(targets.len());
            if n <= switch_at.saturating_sub(pairs.len()) {
                for u in sources {
                    pairs.extend(targets.clone().map(|v| (u, v)));
                }
                return;
            }
            let mut rows = BitRelation::new(*n_nodes);
            for &(u, v) in pairs.iter() {
                rows.set(u, v);
            }
            let mask = vec![0; rows.words_per_row()];
            *self = Sink::Rows { rows, mask };
        }
        if let Sink::Rows { rows, mask } = self {
            rows.set_product(sources, targets, mask);
        }
    }

    /// The answers: a list is sorted, rows already are a set.
    fn finish(self) -> Pairs {
        match self {
            Sink::List { pairs, n_nodes, .. } => Pairs::Sorted(sorted_answers(pairs, n_nodes)),
            Sink::Rows { rows, .. } => Pairs::Bits(rows),
        }
    }
}

/// The merge's answers as a set. Every pair is emitted exactly once
/// (it has one divergence point, the lists are deduplicated, a leaf
/// sits in one class), so two stable counting passes over node ids —
/// targets, then sources — sort it in `O(N + n)`, several times faster
/// than a comparison sort of the group-ordered output.
fn sorted_answers(mut pairs: Vec<(NodeId, NodeId)>, n_nodes: usize) -> NodePairSet {
    if pairs.len() > 1 {
        let mut tmp = vec![(NodeId(0), NodeId(0)); pairs.len()];
        let mut count = vec![0u32; n_nodes + 1];
        counting_pass(&pairs, &mut tmp, &mut count, |p| p.1);
        counting_pass(&tmp, &mut pairs, &mut count, |p| p.0);
    }
    NodePairSet::from_sorted_unique(pairs)
}

/// One stable counting-sort pass of `from` into `to` by `key`.
fn counting_pass(
    from: &[(NodeId, NodeId)],
    to: &mut [(NodeId, NodeId)],
    count: &mut [u32],
    key: impl Fn(&(NodeId, NodeId)) -> NodeId,
) {
    count.fill(0);
    for p in from {
        count[key(p).index() + 1] += 1;
    }
    for i in 1..count.len() {
        count[i] += count[i - 1];
    }
    for p in from {
        let slot = &mut count[key(p).index()];
        to[*slot as usize] = *p;
        *slot += 1;
    }
}

/// The two mask algebras the merge runs over.
#[derive(Clone, Copy)]
enum Masks<'a> {
    /// DFA-state sets of a safe plan: rows for sources, columns for
    /// targets.
    Plan(&'a SafeQueryPlan),
    /// Plain reachability: one state, so every mask is 1 and a body
    /// closure is "position `i` reaches position `j`".
    Reach(&'a Specification),
}

impl<'a> Masks<'a> {
    /// The algebra `plan` runs over: plain reachability needs no DFA.
    fn of(plan: &'a SafeQueryPlan, spec: &'a Specification) -> Masks<'a> {
        if plan.is_reachability() {
            Masks::Reach(spec)
        } else {
            Masks::Plan(plan)
        }
    }

    /// A source leaf's own row: the start state.
    fn start(self) -> u64 {
        match self {
            Masks::Plan(p) => 1 << p.start_state(),
            Masks::Reach(_) => 1,
        }
    }

    /// A target leaf's own column: the accepting states.
    fn accept(self) -> u64 {
        match self {
            Masks::Plan(p) => p.accepting_mask(),
            Masks::Reach(_) => 1,
        }
    }

    fn exit_step(self, row: u64, e: LabelEntry) -> u64 {
        match self {
            Masks::Plan(p) => p.exit_step(row, e),
            Masks::Reach(_) => row,
        }
    }

    fn enter_step(self, col: u64, e: LabelEntry) -> u64 {
        match self {
            Masks::Plan(p) => p.enter_step(col, e),
            Masks::Reach(_) => col,
        }
    }

    /// `row · between_k(i, j)`.
    fn between_row(self, k: ProductionId, i: usize, j: usize, row: u64) -> u64 {
        match self {
            Masks::Plan(p) => p.between(k, i, j).row_mul(row),
            Masks::Reach(spec) => Masks::reach_or_zero(spec, k, i, j, row),
        }
    }

    /// `between_k(i, j) · col`.
    fn between_col(self, k: ProductionId, i: usize, j: usize, col: u64) -> u64 {
        match self {
            Masks::Plan(p) => p.between(k, i, j).col_mul(col),
            Masks::Reach(spec) => Masks::reach_or_zero(spec, k, i, j, col),
        }
    }

    fn reach_or_zero(spec: &Specification, k: ProductionId, i: usize, j: usize, m: u64) -> u64 {
        if spec.production(k).body.reaches(i, j) {
            m
        } else {
            0
        }
    }

    /// A mask at chain position `from` carried to `to` in the sweep's
    /// direction (every later unfolding is reachable, so `Reach` keeps
    /// it).
    fn advance(self, dir: Dir, cycle: u16, start_phase: u16, from: u32, to: u32, m: u64) -> u64 {
        match (self, dir) {
            (Masks::Plan(p), Dir::Down) => p.chain_desc_row(cycle, start_phase, from, to, m),
            (Masks::Plan(p), Dir::Up) => p.chain_asc_col(cycle, start_phase, from, to, m),
            (Masks::Reach(_), _) => m,
        }
    }
}

/// One list as a [`ListTree`] plus its masks (rows for the source list,
/// columns for the target list).
struct Side<'t> {
    tree: &'t ListTree,
    /// The leaf at position `p` of `tree.leaves()` has mask
    /// `masks[off[p] + d]` as seen from its ancestor at depth `d`.
    off: Vec<u32>,
    masks: Vec<u64>,
    /// Per tree node: the OR of its leaves' masks at the node's depth.
    agg: Vec<u64>,
}

impl<'t> Side<'t> {
    /// `leaf_mask` is a leaf's mask at its own depth; `step` carries a
    /// mask at a child to its parent across the child's label entry.
    fn build(
        run: &Run,
        tree: &'t ListTree,
        leaf_mask: u64,
        step: impl Fn(u64, LabelEntry) -> u64,
    ) -> Side<'t> {
        let mut off = Vec::with_capacity(tree.n_leaves());
        let mut masks = Vec::new();
        for &id in tree.leaves() {
            let entries = run.label(id).entries();
            let base = masks.len();
            off.push(base as u32);
            masks.resize(base + entries.len() + 1, leaf_mask);
            for (d, &e) in entries.iter().enumerate().rev() {
                masks[base + d] = step(masks[base + d + 1], e);
            }
        }
        // Arena indices are topological (children after parents).
        let mut agg = vec![0u64; tree.n_nodes()];
        for i in (0..tree.n_nodes()).rev() {
            let node = tree.node(i as u32);
            let own = if node.leaf.is_some() { leaf_mask } else { 0 };
            agg[i] = node.children.iter().fold(own, |m, &c| {
                let e = tree.node(c).entry.expect("only the root has no entry");
                m | step(agg[c as usize], e)
            });
        }
        Side {
            tree,
            off,
            masks,
            agg,
        }
    }

    /// Append the leaves under `node` to `buf` keyed by `key(mask at
    /// depth)`, zero keys dropped, sorted by key so that equal keys
    /// form buckets; returns where in `buf` they landed.
    fn bucket(
        &self,
        node: u32,
        depth: usize,
        key: impl Fn(u64) -> u64,
        buf: &mut Vec<(u64, NodeId)>,
    ) -> Range<usize> {
        let start = buf.len();
        let range = self.tree.leaf_range(node);
        for (&off, &id) in self.off[range.clone()]
            .iter()
            .zip(&self.tree.leaves()[range])
        {
            let k = key(self.masks[off as usize + depth]);
            if k != 0 {
                buf.push((k, id));
            }
        }
        buf[start..].sort_unstable_by_key(|&(k, _)| k);
        start..buf.len()
    }
}

/// Runs of equal keys in a [`Side::bucket`] buffer.
fn buckets(buf: &[(u64, NodeId)]) -> impl Iterator<Item = &[(u64, NodeId)]> {
    buf.chunk_by(|x, y| x.0 == y.0)
}

/// Case 2 sweep direction.
#[derive(Clone, Copy)]
enum Dir {
    /// Set<: sources in shallower unfoldings, carried down as rows.
    Down,
    /// Set>: targets in shallower unfoldings, carried up as columns.
    Up,
}

/// A sweep class: leaves sharing one mask at the current chain
/// position.
type Class = (u64, Vec<NodeId>);

/// The answers and the buffers reused across one merge.
struct Scratch {
    sink: Sink,
    carried: Vec<(u64, NodeId)>,
    visited: Vec<(u64, NodeId)>,
    /// Case 1: where each child's buckets sit in `carried`/`visited`.
    carried_at: Vec<Option<Range<usize>>>,
    visited_at: Vec<Option<Range<usize>>>,
    /// Emptied class lists, kept for reuse.
    spare: Vec<Vec<NodeId>>,
}

struct Merger<'a> {
    spec: &'a Specification,
    masks: Masks<'a>,
    epsilon: bool,
    src: Side<'a>,
    dst: Side<'a>,
}

impl Merger<'_> {
    fn merge(&self, n1: u32, n2: u32, depth: usize, s: &mut Scratch) {
        let a = self.src.tree.node(n1);
        let b = self.dst.tree.node(n2);

        // Same tree position holding a leaf in both lists: the self pair.
        if let (Some(u), Some(v)) = (a.leaf, b.leaf) {
            debug_assert_eq!(u, v, "equal labels denote the same node");
            if self.epsilon {
                s.sink.emit(iter::once(u), iter::once(v));
            }
        }
        if a.children.is_empty() || b.children.is_empty() {
            return;
        }

        // All children of one node share their entry kind.
        match self.src.tree.node(a.children[0]).entry {
            Some(LabelEntry::Rec {
                cycle, start_phase, ..
            }) => self.merge_recursion(a, b, depth, cycle, start_phase, s),
            _ => self.merge_production(a, b, depth, s),
        }
    }

    /// Case 1: children come from the same simple workflow. Each child
    /// is bucketed at most once, the first time one of its groups
    /// passes the aggregate test; all groups are emitted before the
    /// same-position children recurse and reuse the scratch buffers.
    fn merge_production(&self, a: &ListTreeNode, b: &ListTreeNode, depth: usize, s: &mut Scratch) {
        s.carried.clear();
        s.visited.clear();
        s.carried_at.clear();
        s.carried_at.resize(a.children.len(), None);
        s.visited_at.clear();
        s.visited_at.resize(b.children.len(), None);
        for (&c1, at_u) in a.children.iter().zip(&mut s.carried_at) {
            let (k, i) = prod_entry(self.src.tree.node(c1).entry);
            for (&c2, at_v) in b.children.iter().zip(&mut s.visited_at) {
                let (k2, j) = prod_entry(self.dst.tree.node(c2).entry);
                debug_assert_eq!(k, k2, "same parent node fired one production");
                let across = |row| self.masks.between_row(k, i, j, row);
                if i == j || across(self.src.agg[c1 as usize]) & self.dst.agg[c2 as usize] == 0 {
                    continue;
                }
                let us = at_u
                    .get_or_insert_with(|| self.src.bucket(c1, depth + 1, |r| r, &mut s.carried))
                    .clone();
                let vs = at_v
                    .get_or_insert_with(|| self.dst.bucket(c2, depth + 1, |c| c, &mut s.visited))
                    .clone();
                for us in buckets(&s.carried[us]) {
                    let w = across(us[0].0);
                    for vs in buckets(&s.visited[vs.clone()]) {
                        if w & vs[0].0 != 0 {
                            s.sink
                                .emit(us.iter().map(|&(_, u)| u), vs.iter().map(|&(_, v)| v));
                        }
                    }
                }
            }
        }
        for &c1 in &a.children {
            let (_, i) = prod_entry(self.src.tree.node(c1).entry);
            for &c2 in &b.children {
                if prod_entry(self.dst.tree.node(c2).entry).1 == i {
                    self.merge(c1, c2, depth + 1, s);
                }
            }
        }
    }

    /// Case 2: children are unfoldings of one recursion chain. Equal
    /// indices recurse (Set=), unequal ones are one sweep each way.
    fn merge_recursion(
        &self,
        a: &ListTreeNode,
        b: &ListTreeNode,
        depth: usize,
        cycle: u16,
        start_phase: u16,
        s: &mut Scratch,
    ) {
        let (mut x, mut y) = (0usize, 0usize);
        while x < a.children.len() && y < b.children.len() {
            let ia = rec_idx(self.src.tree.node(a.children[x]).entry);
            let ib = rec_idx(self.dst.tree.node(b.children[y]).entry);
            match ia.cmp(&ib) {
                std::cmp::Ordering::Equal => {
                    self.merge(a.children[x], b.children[y], depth + 1, s);
                    x += 1;
                    y += 1;
                }
                std::cmp::Ordering::Less => x += 1,
                std::cmp::Ordering::Greater => y += 1,
            }
        }
        self.sweep(Dir::Down, a, b, depth, cycle, start_phase, s);
        self.sweep(Dir::Up, a, b, depth, cycle, start_phase, s);
    }

    /// Set< (`Down`) or Set> (`Up`) in one pass over the chain's
    /// children in unfolding order.
    ///
    /// The *carried* side (sources going down, targets going up)
    /// enters through the grandchildren of its child `c` that reach
    /// (are reached from) the recursive position — red (blue) — and
    /// then sits at position `c + 1`: a row at the input, a column at
    /// the output of that unfolding. Each child of the *visited* side
    /// meets every class carried from strictly lower indices; at equal
    /// indices it is visited before the carried child is added, so
    /// those pairs stay with Set=.
    #[allow(clippy::too_many_arguments)]
    fn sweep(
        &self,
        dir: Dir,
        a: &ListTreeNode,
        b: &ListTreeNode,
        depth: usize,
        cycle: u16,
        start_phase: u16,
        s: &mut Scratch,
    ) {
        let (carry, carry_kids, visit, visit_kids) = match dir {
            Dir::Down => (&self.src, &a.children, &self.dst, &b.children),
            Dir::Up => (&self.dst, &b.children, &self.src, &a.children),
        };
        let chain = &self.spec.recursion().cycles[cycle as usize];
        let advance = |classes: &mut Vec<Class>, spare: &mut Vec<Vec<NodeId>>, from, to| {
            if from == to || classes.is_empty() {
                return;
            }
            for class in classes.iter_mut() {
                class.0 = self
                    .masks
                    .advance(dir, cycle, start_phase, from, to, class.0);
            }
            coalesce(classes, spare);
        };
        let mut classes: Vec<Class> = Vec::new();
        let mut pos = 0u32;
        let mut x = 0usize;
        for &cv in visit_kids {
            let iv = rec_idx(visit.tree.node(cv).entry);
            while let Some(&cc) = carry_kids.get(x) {
                let ic = rec_idx(carry.tree.node(cc).entry);
                if ic >= iv {
                    break;
                }
                x += 1;
                advance(&mut classes, &mut s.spare, pos, ic + 1);
                pos = ic + 1;
                let phase = (start_phase as usize + ic as usize - 1) % chain.len();
                let edge = chain.edges[phase];
                let rp = edge.body_pos as usize;
                for &g in &carry.tree.node(cc).children {
                    let (k, i) = prod_entry(carry.tree.node(g).entry);
                    if k != edge.production {
                        // The chain's last unfolding fired its exit
                        // production: no deeper unfolding exists.
                        continue;
                    }
                    let key = |m| match dir {
                        Dir::Down => self.masks.between_row(k, i, rp, m),
                        Dir::Up => self.masks.between_col(k, rp, i, m),
                    };
                    if key(carry.agg[g as usize]) == 0 {
                        continue;
                    }
                    s.carried.clear();
                    carry.bucket(g, depth + 2, key, &mut s.carried);
                    for run in buckets(&s.carried) {
                        let nodes = run.iter().map(|&(_, n)| n);
                        match classes.iter_mut().find(|c| c.0 == run[0].0) {
                            Some(class) => class.1.extend(nodes),
                            None => {
                                let mut list = s.spare.pop().unwrap_or_default();
                                list.extend(nodes);
                                classes.push((run[0].0, list));
                            }
                        }
                    }
                }
            }
            if classes.is_empty() {
                if x == carry_kids.len() {
                    break;
                }
                continue;
            }
            advance(&mut classes, &mut s.spare, pos, iv);
            pos = iv;
            let live = classes.iter().fold(0, |m, c| m | c.0);
            if live & visit.agg[cv as usize] == 0 {
                continue;
            }
            s.visited.clear();
            visit.bucket(cv, depth + 1, |m| m, &mut s.visited);
            for bucket in buckets(&s.visited) {
                for (mask, list) in &classes {
                    if mask & bucket[0].0 == 0 {
                        continue;
                    }
                    let visited = bucket.iter().map(|&(_, w)| w);
                    match dir {
                        Dir::Down => s.sink.emit(list.iter().copied(), visited),
                        Dir::Up => s.sink.emit(visited, list.iter().copied()),
                    }
                }
            }
        }
        for (_, mut list) in classes {
            list.clear();
            s.spare.push(list);
        }
    }
}

/// Drop classes whose mask died and merge those whose masks now
/// coincide, the smaller list into the larger.
fn coalesce(classes: &mut Vec<Class>, spare: &mut Vec<Vec<NodeId>>) {
    classes.sort_unstable_by_key(|c| c.0);
    let mut kept = 0;
    for i in 0..classes.len() {
        if classes[i].0 == 0 {
            continue;
        }
        if kept > 0 && classes[kept - 1].0 == classes[i].0 {
            let mut other = std::mem::take(&mut classes[i].1);
            let keep = &mut classes[kept - 1].1;
            if keep.len() < other.len() {
                std::mem::swap(keep, &mut other);
            }
            keep.append(&mut other);
            spare.push(other);
        } else {
            classes.swap(kept, i);
            kept += 1;
        }
    }
    for (_, mut list) in classes.drain(kept..) {
        if list.capacity() > 0 {
            list.clear();
            spare.push(list);
        }
    }
}

fn prod_entry(e: Option<LabelEntry>) -> (ProductionId, usize) {
    match e {
        Some(LabelEntry::Prod { production, pos }) => (production, pos as usize),
        other => unreachable!("expected production entry, got {other:?}"),
    }
}

fn rec_idx(e: Option<LabelEntry>) -> u32 {
    match e {
        Some(LabelEntry::Rec { idx, .. }) => idx,
        other => unreachable!("expected recursion entry, got {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SafeQueryPlan;
    use rpq_automata::{compile_minimal_dfa, parse, Symbol};
    use rpq_grammar::{ProductionId, SpecificationBuilder};
    use rpq_labeling::{RunBuilder, Scripted};

    fn fig2() -> Specification {
        let mut b = SpecificationBuilder::new();
        for m in ["a", "b", "c", "d", "e"] {
            b.atomic(m);
        }
        for m in ["S", "A", "B"] {
            b.composite(m);
        }
        b.production("S", |w| {
            let c = w.node("c");
            let a = w.node("A");
            let bb = w.node("B");
            let b2 = w.node("b");
            // W1 is a diamond: c feeds both A and B, which both feed b
            // (the only shape consistent with Examples 3.1 and 3.2).
            w.edge(c, a);
            w.edge(c, bb);
            w.edge(a, b2);
            w.edge(bb, b2);
        });
        b.production("A", |w| {
            let a = w.node("a");
            let aa = w.node("A");
            let d = w.node("d");
            // The paper's unsafe example ⎵* a ⎵* needs an `a` tag that
            // only W2 executions cross.
            w.edge_named(a, aa, "a");
            w.edge(aa, d);
        });
        b.production("A", |w| {
            let e1 = w.node("e");
            let e2 = w.node("e");
            w.edge(e1, e2);
        });
        b.production("B", |w| {
            let b1 = w.node("b");
            let b2 = w.node("b");
            w.edge(b1, b2);
        });
        b.start("S");
        b.build().unwrap()
    }

    fn plan(spec: &Specification, text: &str) -> SafeQueryPlan {
        let re = parse(text, &mut |n| spec.tag_by_name(n).map(|t| Symbol(t.0))).unwrap();
        SafeQueryPlan::compile(spec, compile_minimal_dfa(&re, spec.n_tags())).unwrap()
    }

    fn fig2_run(spec: &Specification) -> Run {
        RunBuilder::new(spec)
            .policy(Scripted::new([
                ProductionId(0),
                ProductionId(1),
                ProductionId(1),
                ProductionId(2),
                ProductionId(3),
            ]))
            .build()
            .unwrap()
    }

    #[test]
    fn filtered_matches_nested_on_fig2() {
        let spec = fig2();
        let run = fig2_run(&spec);
        let all: Vec<NodeId> = run.node_ids().collect();
        assert_ne!(run.n_nodes() % 64, 0);
        for q in ["_*", "_* e _*", "_* b _*", "(_* e _*)?", "d d", "d+", "b+"] {
            let p = plan(&spec, q);
            let nested = all_pairs_nested(&p, &run, &all, &all);
            let filtered = all_pairs_filtered(&p, &spec, &run, &all, &all);
            assert_eq!(nested, filtered, "query {q}");
            check_switch_points(&spec, &run, &p, &all, &all, q);
        }
    }

    #[test]
    fn reachability_tree_merge_matches_bfs() {
        let spec = fig2();
        let run = RunBuilder::new(&spec)
            .seed(7)
            .target_edges(600)
            .build()
            .unwrap();
        let all: Vec<NodeId> = run.node_ids().collect();
        let result = all_pairs_reachability(&spec, &run, &all, &all);

        // BFS ground truth from every node.
        let mut expected = Vec::new();
        for u in run.node_ids() {
            let mut seen = vec![false; run.n_nodes()];
            let mut stack = vec![u];
            seen[u.index()] = true;
            while let Some(x) = stack.pop() {
                for &(to, _) in run.out_edges(x) {
                    if !seen[to.index()] {
                        seen[to.index()] = true;
                        stack.push(to);
                    }
                }
            }
            for v in run.node_ids() {
                if seen[v.index()] {
                    expected.push((u, v));
                }
            }
        }
        assert_eq!(result, NodePairSet::from_pairs(expected));
    }

    #[test]
    fn example_3_1_all_pairs() {
        // All-pairs over l1 = {d:1, d:2, e:2}, l2 = {b:1, b:2} for the
        // paper's Example 3.1 analogues: with tags following the
        // head-name convention, ⎵* b matches exactly the pairs the paper
        // lists for R1 and b matches the single pair of R2.
        let spec = fig2();
        let run = fig2_run(&spec);
        let n = |s: &str| run.node_by_name(&spec, s).unwrap();
        let l1 = vec![n("d:1"), n("d:2"), n("e:2")];
        let l2 = vec![n("b:1"), n("b:2")];

        let r1 = plan(&spec, "_* b");
        let got = all_pairs_filtered(&r1, &spec, &run, &l1, &l2);
        let expect = NodePairSet::from_pairs(vec![
            (n("d:1"), n("b:1")),
            (n("d:2"), n("b:1")),
            (n("e:2"), n("b:1")),
        ]);
        assert_eq!(got, expect);

        let r2 = plan(&spec, "b");
        let got = all_pairs_filtered(&r2, &spec, &run, &l1, &l2);
        let expect = NodePairSet::from_pairs(vec![(n("d:1"), n("b:1"))]);
        assert_eq!(got, expect);
    }

    #[test]
    fn disjoint_lists_and_empty_lists() {
        let spec = fig2();
        let run = fig2_run(&spec);
        let p = plan(&spec, "_*");
        assert!(all_pairs_filtered(&p, &spec, &run, &[], &[]).is_empty());
        let some = vec![run.entry()];
        assert!(all_pairs_filtered(&p, &spec, &run, &some, &[]).is_empty());
        // Self pair under reachability.
        let self_pairs = all_pairs_filtered(&p, &spec, &run, &some, &some);
        assert_eq!(self_pairs.len(), 1);
    }

    /// The merge at every switch point that matters: rows from the
    /// first emission (0), from the second pair on (1), from half the
    /// answers on (a switch mid-merge), and never. Each must equal the
    /// nested decode, and the sink must end in rows exactly when the
    /// answers outnumber the switch point.
    fn check_switch_points(
        spec: &Specification,
        run: &Run,
        p: &SafeQueryPlan,
        l1: &[NodeId],
        l2: &[NodeId],
        what: &str,
    ) {
        let nested = all_pairs_nested(p, run, l1, l2);
        for switch_at in [0, 1, nested.len() / 2, usize::MAX] {
            let masks = Masks::of(p, spec);
            let got = merge_lists(spec, run, masks, p.accepts_epsilon(), l1, l2, switch_at);
            assert_eq!(
                matches!(got, Pairs::Bits(_)),
                nested.len() > switch_at,
                "{what}: format at switch point {switch_at}"
            );
            assert_eq!(
                got,
                Pairs::Sorted(nested.clone()),
                "{what}: switch point {switch_at}"
            );
        }
    }

    /// The `allpairs_sweep` fixtures: 3k-edge BioAID and QBLast runs and
    /// the two-entry 2-cycle, each with IFQs k ∈ {1, 3, 5}, `_*` (the
    /// reachability masks), an ε-accepting optional IFQ, and lists that
    /// share one trie or cross both ways round.
    #[test]
    fn every_switch_point_matches_nested_on_the_sweep_fixtures() {
        use rpq_automata::Regex;
        use rpq_workloads::{paper_examples, realistic, runs};
        let mut fixtures: Vec<(Specification, Run, Vec<String>)> =
            [realistic::bioaid_like(), realistic::qblast_like()]
                .into_iter()
                .map(|real| {
                    let run = runs::simulate(&real.spec, 3000, 17).unwrap();
                    (real.spec, run, real.pool_tags)
                })
                .collect();
        let two = paper_examples::two_entry_cycle_spec();
        let run = runs::simulate_fork(&two, 0, 1500, 5).unwrap();
        let tags = ["in", "mid", "in2", "out"].map(String::from).to_vec();
        fixtures.push((two, run, tags));
        assert!(fixtures.iter().any(|(_, run, _)| run.n_nodes() % 64 != 0));
        for (spec, run, tags) in &fixtures {
            let sym = |name: &str| Regex::Sym(Symbol(spec.tag_by_name(name).unwrap().0));
            let ifq = |k: usize| {
                let mut parts = vec![Regex::any_star()];
                for i in 0..k {
                    parts.push(sym(&tags[(i * 3 + k) % tags.len()]));
                    parts.push(Regex::any_star());
                }
                Regex::concat(parts)
            };
            let queries = [
                ifq(1),
                ifq(3),
                ifq(5),
                Regex::any_star(),
                Regex::optional(ifq(1)),
            ];
            let a = runs::sample_nodes(run, 200, 1);
            let b = runs::sample_nodes(run, 200, 2);
            for q in &queries {
                let p =
                    SafeQueryPlan::compile(spec, compile_minimal_dfa(q, spec.n_tags())).unwrap();
                assert_eq!(p.is_reachability(), *q == Regex::any_star(), "{q:?}");
                for (l1, l2) in [(&a, &a), (&a, &b), (&b, &a)] {
                    check_switch_points(spec, run, &p, l1, l2, &format!("{q:?}"));
                }
            }
        }
    }

    #[test]
    fn filtered_matches_nested_on_larger_runs() {
        let spec = fig2();
        for seed in 0..4u64 {
            let run = RunBuilder::new(&spec)
                .seed(seed)
                .target_edges(300)
                .build()
                .unwrap();
            let all: Vec<NodeId> = run.node_ids().collect();
            for q in ["_* e _*", "d d", "b+"] {
                let p = plan(&spec, q);
                let nested = all_pairs_nested(&p, &run, &all, &all);
                let filtered = all_pairs_filtered(&p, &spec, &run, &all, &all);
                assert_eq!(nested, filtered, "seed {seed} query {q}");
                check_switch_points(&spec, &run, &p, &all, &all, q);
            }
        }
    }
}
