//! Cardinality estimation and join ordering for decomposed plans.
//!
//! The paper's conclusion names a cost model as future work: "building a
//! cost model to predict the intermediate result size so as to optimize
//! the query process". This module provides a simple, documented one:
//!
//! * leaf relations are estimated from the tag index (exact for single
//!   symbols and wildcards);
//! * composition uses the uniform-containment assumption
//!   `|A ∘ B| ≈ |A|·|B| / n`, unions add, Kleene closure multiplies by
//!   the run's average path expansion (capped at `n²`);
//! * concatenation chains are associated with the classic matrix-chain
//!   dynamic program over these estimates, minimizing the size of
//!   intermediate relations the joins must materialize.
//!
//! Estimates steer *plan shape* only — results are exact regardless.

use crate::general::PlanNode;
use rpq_relalg::TagIndex;

/// Modeled semi-naive rounds factor of the pair-kernel fixpoint: each
/// closure pair is hashed, pushed, and re-sorted into the result.
pub const PAIR_CLOSURE_FACTOR: f64 = 4.0;

/// Modeled cost of one blocked-bitset word OR relative to one hashed
/// pair touch: words are branch-free, sequential, and discover up to
/// 64 pairs at once (see `rpq_relalg::kernel::HASH_OP_COST`).
pub const WORD_VS_PAIR_DISCOUNT: f64 =
    rpq_relalg::kernel::WORD_OP_COST / rpq_relalg::kernel::HASH_OP_COST;

/// Cardinality estimator over one run.
#[derive(Debug, Clone)]
pub struct CostModel {
    n_nodes: f64,
    n_edges: f64,
    per_tag: Vec<f64>,
}

impl CostModel {
    /// Build from the run's tag index.
    pub fn new(index: &TagIndex, n_nodes: usize) -> CostModel {
        let per_tag: Vec<f64> = (0..index.n_tags())
            .map(|t| index.count(rpq_grammar::Tag(t as u32)) as f64)
            .collect();
        CostModel {
            n_nodes: n_nodes as f64,
            n_edges: per_tag.iter().sum(),
            per_tag,
        }
    }

    /// Estimated pair count of a plan node's relation.
    pub fn estimate(&self, node: &PlanNode) -> f64 {
        match node {
            PlanNode::Empty => 0.0,
            PlanNode::Epsilon => self.n_nodes,
            PlanNode::Sym(t) => self.per_tag.get(t.index()).copied().unwrap_or(0.0),
            PlanNode::Wildcard => self.n_edges,
            // A safe subquery's result is bounded by reachable pairs;
            // without deeper statistics assume DAG reachability density
            // ~ n·√n (chains give n²/2, shallow forests n·depth).
            PlanNode::SafeEval(..) => self.n_nodes * self.n_nodes.max(1.0).sqrt(),
            PlanNode::Concat(children) => {
                let mut est = self.estimate(&children[0]);
                for c in &children[1..] {
                    est = self.compose_estimate(est, self.estimate(c));
                }
                est
            }
            PlanNode::Alt(children) => children.iter().map(|c| self.estimate(c)).sum(),
            PlanNode::Star(inner) | PlanNode::Plus(inner) => {
                self.closure_estimate(self.estimate(inner))
            }
            PlanNode::Optional(inner) => self.estimate(inner) + self.n_nodes,
        }
    }

    /// `|A ∘ B|` under uniform containment.
    pub fn compose_estimate(&self, a: f64, b: f64) -> f64 {
        if self.n_nodes == 0.0 {
            return 0.0;
        }
        a * b / self.n_nodes
    }

    /// `|A⁺|`: closure expansion, capped by the all-pairs bound.
    ///
    /// Calibration note: `ln n` expansion (the classic chain-count
    /// heuristic) badly underestimates reachability-style closures on
    /// provenance DAGs, whose transitive closures are dense; `√n`
    /// reproduces the observed blowups on the Fig. 15 workload while
    /// leaving genuinely sparse closures cheap.
    pub fn closure_estimate(&self, a: f64) -> f64 {
        (a * self.n_nodes.max(1.0).sqrt()).min(self.n_nodes * self.n_nodes)
    }

    /// Total relational *work* of evaluating a plan node: the sum of
    /// every intermediate relation's estimated size (joins and closures
    /// pay for what they materialize). Used to decide between relational
    /// evaluation and the label-based merge for safe subqueries.
    pub fn work_estimate(&self, node: &PlanNode) -> f64 {
        match node {
            PlanNode::Empty | PlanNode::Epsilon => 1.0,
            PlanNode::Sym(_) | PlanNode::Wildcard => self.estimate(node),
            // Should the caller hand us a nested safe subquery, its own
            // evaluation would touch the candidate pairs of the
            // universe; surface that as expensive.
            PlanNode::SafeEval(..) => self.n_nodes * self.n_nodes,
            PlanNode::Concat(children) => {
                let mut work = 0.0;
                let mut est = self.estimate(&children[0]);
                work += self.work_estimate(&children[0]);
                for c in &children[1..] {
                    work += self.work_estimate(c);
                    est = self.compose_estimate(est, self.estimate(c));
                    work += est;
                }
                work
            }
            PlanNode::Alt(children) => {
                children.iter().map(|c| self.work_estimate(c)).sum::<f64>() + self.estimate(node)
            }
            PlanNode::Star(inner) | PlanNode::Plus(inner) => {
                self.work_estimate(inner) + self.closure_op_work(self.estimate(inner))
            }
            PlanNode::Optional(inner) => self.work_estimate(inner) + self.estimate(inner),
        }
    }

    /// Work (in equivalent pair touches) of one transitive-closure
    /// operator over a base relation of estimated size `base_est`.
    ///
    /// The pair kernel pays [`PAIR_CLOSURE_FACTOR`] per closure pair
    /// (hash + re-sort); the bit kernel pays one `⌈n/64⌉`-word row OR
    /// per closure pair plus the pair↔bitset conversions, each word
    /// discounted by [`WORD_VS_PAIR_DISCOUNT`]. The condensation kernel
    /// pays per *base* pair instead of per closure pair — one row OR per
    /// distinct condensation edge, plus the linear Tarjan walk and the
    /// `n`-row output write — which is why it dominates on deep sparse
    /// graphs whose closures dwarf their bases. The dispatcher in
    /// `rpq_relalg::kernel` picks the cheapest strategy at evaluation
    /// time, so the model charges the minimum of the three.
    pub fn closure_op_work(&self, base_est: f64) -> f64 {
        let closure = self.closure_estimate(base_est);
        let pair_work = PAIR_CLOSURE_FACTOR * closure;
        if !rpq_relalg::kernel::bits_representable(self.n_nodes as usize) {
            return pair_work;
        }
        let wpr = (self.n_nodes / 64.0).ceil().max(1.0);
        let bit_work = WORD_VS_PAIR_DISCOUNT * wpr * (closure + 3.0 * self.n_nodes);
        // Condensation: row ORs bounded by the base's edges (distinct
        // condensation edges never exceed them), the n-row output copy,
        // and the Tarjan walk at roughly one pair touch per node+edge.
        let scc_work = WORD_VS_PAIR_DISCOUNT * wpr * (base_est + 2.0 * self.n_nodes)
            + 0.25 * (self.n_nodes + base_est);
        pair_work.min(bit_work).min(scc_work)
    }

    /// Optimal association order for composing a concatenation chain:
    /// the matrix-chain DP over pair-count estimates. Returns a binary
    /// association tree as nested split indices: `splits[i][j]` is the
    /// split point of segment `i..=j`.
    pub fn chain_order(&self, sizes: &[f64]) -> ChainOrder {
        let m = sizes.len();
        debug_assert!(m >= 1);
        // cost[i][j]: cheapest total intermediate size for segment i..=j;
        // est[i][j]: its estimated result size.
        let idx = |i: usize, j: usize| i * m + j;
        let mut cost = vec![0.0f64; m * m];
        let mut est = vec![0.0f64; m * m];
        let mut split = vec![0usize; m * m];
        for i in 0..m {
            est[idx(i, i)] = sizes[i];
        }
        for len in 2..=m {
            for i in 0..=(m - len) {
                let j = i + len - 1;
                let mut best = f64::INFINITY;
                let mut best_k = i;
                let mut best_est = 0.0;
                for k in i..j {
                    let left = est[idx(i, k)];
                    let right = est[idx(k + 1, j)];
                    let out = self.compose_estimate(left, right);
                    let total = cost[idx(i, k)] + cost[idx(k + 1, j)] + out;
                    if total < best {
                        best = total;
                        best_k = k;
                        best_est = out;
                    }
                }
                cost[idx(i, j)] = best;
                est[idx(i, j)] = best_est;
                split[idx(i, j)] = best_k;
            }
        }
        ChainOrder { m, split }
    }
}

/// Association tree for a concatenation chain.
#[derive(Debug)]
pub struct ChainOrder {
    m: usize,
    split: Vec<usize>,
}

impl ChainOrder {
    /// The split point of the segment `i..=j`.
    pub fn split_of(&self, i: usize, j: usize) -> usize {
        self.split[i * self.m + j]
    }

    /// Chain length.
    pub fn len(&self) -> usize {
        self.m
    }

    /// Is the chain trivial?
    pub fn is_empty(&self) -> bool {
        self.m == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_grammar::Tag;

    fn model(n_nodes: usize, counts: &[usize]) -> CostModel {
        CostModel {
            n_nodes: n_nodes as f64,
            n_edges: counts.iter().sum::<usize>() as f64,
            per_tag: counts.iter().map(|&c| c as f64).collect(),
        }
    }

    #[test]
    fn leaf_estimates_are_exact() {
        let m = model(100, &[5, 50]);
        assert_eq!(m.estimate(&PlanNode::Sym(Tag(0))), 5.0);
        assert_eq!(m.estimate(&PlanNode::Sym(Tag(1))), 50.0);
        assert_eq!(m.estimate(&PlanNode::Wildcard), 55.0);
        assert_eq!(m.estimate(&PlanNode::Epsilon), 100.0);
        assert_eq!(m.estimate(&PlanNode::Empty), 0.0);
    }

    #[test]
    fn compose_shrinks_with_selective_sides() {
        let m = model(1000, &[]);
        let joined = m.compose_estimate(10.0, 10.0);
        assert!(joined < 10.0);
        let big = m.compose_estimate(5000.0, 5000.0);
        assert!(big > 5000.0);
    }

    #[test]
    fn chain_order_prefers_selective_first() {
        // Sizes [1000, 1, 1000]: composing the two big ends last loses;
        // the DP must split at the small middle.
        let m = model(100, &[]);
        let order = m.chain_order(&[1000.0, 1.0, 1000.0]);
        // Optimal association: either (A·B)·C or A·(B·C) — both confine
        // one big operand per join. The losing split would not exist in
        // a 3-chain, so check a 4-chain where it matters:
        let order4 = m.chain_order(&[1000.0, 1.0, 1.0, 1000.0]);
        // Best plan joins the middle small pair first: split at 0 or 2
        // overall, never pairing the two 1000s directly.
        let s = order4.split_of(0, 3);
        assert!(s == 0 || s == 2, "split {s}");
        let _ = order;
    }

    #[test]
    fn closure_is_capped() {
        let m = model(10, &[]);
        assert!(m.closure_estimate(1e12) <= 100.0 + 1e-9);
    }
}
