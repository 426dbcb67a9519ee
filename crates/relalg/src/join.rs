//! Composition joins and the semi-naive Kleene fixpoint.
//!
//! These are the operators baseline G1 (Li & Moon's parse-tree
//! evaluation, the paper's Option G1) is built from; the paper's own
//! approach uses them only for the *unsafe remainder* of a decomposed
//! query — which is exactly why it wins on queries whose safe parts are
//! lowly selective.
//!
//! Every operator exists in two kernels (see [`crate::kernel`]): the
//! original sorted-pair/hash implementation (`*_pairs`, kept as the
//! referee and the sparse fast path) and the blocked-bitset kernel of
//! [`crate::bits`]. The `*_in` entry points take the universe size and
//! dispatch per call on density; the parameterless wrappers infer the
//! universe from the operand ids for callers without a run at hand.

use crate::bits::BitRelation;
use crate::csr::CsrRelation;
use crate::kernel::{choose_closure, choose_compose, choose_select, record_closure, Kernel};
use crate::relation::{NodePairSet, Relation};
use rpq_labeling::NodeId;
use std::collections::HashMap;

/// Composition of pair sets with the **pair kernel**: `{(u, w) |
/// (u, v) ∈ a, (v, w) ∈ b}` as a hash join on the shared middle node.
/// Kept verbatim as the referee the bit kernel is property-tested
/// against, and as the dispatch target for sparse operands.
pub fn compose_pairs_kernel(a: &NodePairSet, b: &NodePairSet) -> NodePairSet {
    // Index b by source.
    let mut by_src: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    for (v, w) in b.iter() {
        by_src.entry(v).or_default().push(w);
    }
    let mut out = Vec::new();
    for (u, v) in a.iter() {
        if let Some(ws) = by_src.get(&v) {
            out.extend(ws.iter().map(|&w| (u, w)));
        }
    }
    NodePairSet::from_pairs(out)
}

/// Composition of pair sets with the **bit kernel**: the left operand
/// iterates as CSR adjacency, the right as blocked bitset rows, and
/// every `(u, v)` of `a` contributes one word-wise row OR.
pub fn compose_pairs_bits(a: &NodePairSet, b: &NodePairSet, n_nodes: usize) -> NodePairSet {
    let csr = CsrRelation::from_pairs(a, n_nodes);
    let bits = BitRelation::from_pairs(b, n_nodes);
    BitRelation::compose_csr(&csr, &bits).to_pairs()
}

/// Composition of pair sets over an `n_nodes` universe, dispatching on
/// density.
pub fn compose_pairs_in(a: &NodePairSet, b: &NodePairSet, n_nodes: usize) -> NodePairSet {
    if a.is_empty() || b.is_empty() {
        return NodePairSet::new();
    }
    match choose_compose(n_nodes, a.len(), b.len()) {
        // SCC is closure-only; the chooser never returns it, but keep
        // the match total on the word-parallel side.
        Kernel::Bits | Kernel::Scc => compose_pairs_bits(a, b, n_nodes),
        Kernel::Pairs => compose_pairs_kernel(a, b),
    }
}

/// Composition of pair sets (kernel-dispatched; universe inferred from
/// the operand ids). Prefer [`compose_pairs_in`] when the run size is
/// at hand.
pub fn compose_pairs(a: &NodePairSet, b: &NodePairSet) -> NodePairSet {
    compose_pairs_in(a, b, a.universe_bound().max(b.universe_bound()))
}

/// Composition of relations over an `n_nodes` universe, respecting
/// symbolic identity: `(a ∪ id?) ∘ (b ∪ id?)`.
pub fn compose_in(a: &Relation, b: &Relation, n_nodes: usize) -> Relation {
    let mut pairs = compose_pairs_in(&a.pairs, &b.pairs, n_nodes);
    if a.identity {
        pairs = pairs.union(&b.pairs);
    }
    if b.identity {
        pairs = pairs.union(&a.pairs);
    }
    Relation {
        pairs,
        identity: a.identity && b.identity,
    }
}

/// Composition of relations (universe inferred from the operand ids).
pub fn compose(a: &Relation, b: &Relation) -> Relation {
    compose_in(a, b, a.pairs.universe_bound().max(b.pairs.universe_bound()))
}

/// Transitive closure (Kleene plus) with the **pair kernel**, computed
/// semi-naively: `Δ₀ = R; Δᵢ₊₁ = (Δᵢ ∘ R) ∖ total`. This is the
/// fixpoint loop whose unknown round count makes Kleene-star queries
/// expensive for the baselines (Section V-A: "Since it is unknown how
/// many rounds it takes to reach a fixpoint, the performance can be
/// very bad"). Kept verbatim as the referee for the bit kernel.
pub fn transitive_closure_pairs(r: &NodePairSet) -> NodePairSet {
    // Successor index of the base relation.
    let mut succ: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    for (u, v) in r.iter() {
        succ.entry(u).or_default().push(v);
    }
    // Hash membership + a flat accumulator: per-round work is then
    // proportional to the newly discovered pairs only (a per-round
    // sorted union would add an O(total) term per round, quadratic on
    // long chains).
    let mut seen: std::collections::HashSet<(NodeId, NodeId)> = r.iter().collect();
    let mut acc: Vec<(NodeId, NodeId)> = r.iter().collect();
    let mut delta: Vec<(NodeId, NodeId)> = r.iter().collect();
    while !delta.is_empty() {
        let mut next = Vec::new();
        for &(u, v) in &delta {
            if let Some(ws) = succ.get(&v) {
                for &w in ws {
                    if seen.insert((u, w)) {
                        next.push((u, w));
                    }
                }
            }
        }
        acc.extend_from_slice(&next);
        delta = next;
    }
    NodePairSet::from_pairs(acc)
}

/// Transitive closure with the **bit kernel**: word-wise semi-naive
/// rounds over blocked bitset rows (see
/// [`BitRelation::transitive_closure`]).
pub fn transitive_closure_bits(r: &NodePairSet, n_nodes: usize) -> NodePairSet {
    BitRelation::from_pairs(r, n_nodes)
        .transitive_closure()
        .to_pairs()
}

/// Transitive closure with the **condensation kernel**: iterative
/// Tarjan SCC, then one reverse-topological pass ORing component
/// closure rows (see [`crate::scc`]). Cycles collapse to shared
/// component rows instead of per-round delta unions, so word work
/// scales with the *base* graph rather than the closure.
pub fn transitive_closure_scc(r: &NodePairSet, n_nodes: usize) -> NodePairSet {
    crate::scc::transitive_closure_scc(&CsrRelation::from_pairs(r, n_nodes)).to_pairs()
}

/// [`transitive_closure_scc`] straight off a CSR arena (no pair→CSR
/// conversion — the Tarjan walk consumes the adjacency as-is).
pub fn transitive_closure_scc_csr(base: &CsrRelation) -> NodePairSet {
    crate::scc::transitive_closure_scc(base).to_pairs()
}

/// Transitive closure over an `n_nodes` universe, dispatching on
/// density.
pub fn transitive_closure_in(r: &NodePairSet, n_nodes: usize) -> NodePairSet {
    // A 0/1-pair base is its own closure.
    if r.len() < 2 {
        return r.clone();
    }
    let kernel = choose_closure(n_nodes, r.len());
    record_closure(kernel);
    match kernel {
        Kernel::Scc => transitive_closure_scc(r, n_nodes),
        Kernel::Bits => transitive_closure_bits(r, n_nodes),
        Kernel::Pairs => transitive_closure_pairs(r),
    }
}

/// Transitive closure (kernel-dispatched; universe inferred from the
/// operand ids). Prefer [`transitive_closure_in`] when the run size is
/// at hand.
pub fn transitive_closure(r: &NodePairSet) -> NodePairSet {
    transitive_closure_in(r, r.universe_bound())
}

/// Transitive closure straight off a cached CSR arena (the session's
/// per-`(run, tag)` adjacency): skips the pair→CSR conversion the
/// other entry points pay.
pub fn transitive_closure_csr(base: &CsrRelation) -> NodePairSet {
    if base.n_edges() < 2 {
        return base.to_pairs();
    }
    let kernel = choose_closure(base.n_nodes(), base.n_edges());
    record_closure(kernel);
    match kernel {
        Kernel::Scc => transitive_closure_scc_csr(base),
        Kernel::Bits => BitRelation::from_csr(base).transitive_closure().to_pairs(),
        Kernel::Pairs => transitive_closure_pairs(&base.to_pairs()),
    }
}

/// [`transitive_closure_csr`] with a shared, evaluation-scoped
/// condensation: when the dispatch picks the SCC kernel, the Tarjan
/// walk runs at most once per `cache` — over `whole`, the run's full
/// adjacency (a super-graph of every per-tag `base`) — and the closure
/// is scheduled off the cached component DAG
/// ([`crate::scc::transitive_closure_scc_with`]). The non-SCC kernels
/// are untouched, so a closure dispatched to them never pays the
/// condensation.
pub fn transitive_closure_csr_shared(
    base: &CsrRelation,
    whole: &CsrRelation,
    cache: &crate::scc::CondensationCache,
) -> NodePairSet {
    if base.n_edges() < 2 {
        return base.to_pairs();
    }
    let kernel = choose_closure(base.n_nodes(), base.n_edges());
    record_closure(kernel);
    match kernel {
        Kernel::Scc => {
            crate::scc::transitive_closure_scc_with(cache.condensation(whole), base).to_pairs()
        }
        Kernel::Bits => BitRelation::from_csr(base).transitive_closure().to_pairs(),
        Kernel::Pairs => transitive_closure_pairs(&base.to_pairs()),
    }
}

/// Kernel-dispatched transitive closure materialized as a
/// [`BitRelation`] — the shape live delta maintenance keeps warm
/// ([`BitRelation::extend_closure`] seeds its delta rounds off it).
/// Dispatches through [`choose_closure`] like every other closure
/// entry point, so an SCC-eligible sparse graph condenses instead of
/// paying the semi-naive fixpoint. A `Pairs` verdict still runs the
/// bit fixpoint (the caller's maintained structure is bit-shaped by
/// definition) and is counted as the bits closure it actually is.
pub fn transitive_closure_bitrel(r: &NodePairSet, n_nodes: usize) -> BitRelation {
    let bits = BitRelation::from_pairs(r, n_nodes);
    // A 0/1-pair base is its own closure; mirror the other entry
    // points and skip dispatch (and its accounting) entirely.
    if r.len() < 2 {
        return bits;
    }
    match choose_closure(n_nodes, r.len()) {
        Kernel::Scc => {
            record_closure(Kernel::Scc);
            crate::scc::transitive_closure_scc(&CsrRelation::from_pairs(r, n_nodes))
        }
        Kernel::Bits | Kernel::Pairs => {
            record_closure(Kernel::Bits);
            bits.transitive_closure()
        }
    }
}

/// Endpoint selection `r ↾ l1 × l2` with the **pair kernel**: one
/// sorted merge over the pairs for the source restriction, then a
/// binary-search probe per matched pair for the target restriction.
/// Kept as the referee the bit-parallel selection is property-tested
/// against. Lists may arrive unsorted and with duplicates.
pub fn select_pairs_kernel(r: &NodePairSet, l1: &[NodeId], l2: &[NodeId]) -> NodePairSet {
    let mut l1s = l1.to_vec();
    l1s.sort_unstable();
    l1s.dedup();
    let mut l2s = l2.to_vec();
    l2s.sort_unstable();
    l2s.dedup();
    let mut matched = Vec::new();
    r.retain_sources_into(&l1s, &mut matched);
    matched.retain(|(_, v)| l2s.binary_search(v).is_ok());
    NodePairSet::from_sorted_unique(matched)
}

/// Endpoint selection with the **bit kernel**: the relation becomes
/// blocked bitset rows and the target list one blocked mask ANDed into
/// each selected source row before any pair materializes (see
/// [`BitRelation::select_pairs`]).
pub fn select_pairs_bits(
    r: &NodePairSet,
    l1: &[NodeId],
    l2: &[NodeId],
    n_nodes: usize,
) -> NodePairSet {
    BitRelation::from_pairs(r, n_nodes).select_pairs(l1, l2)
}

/// Endpoint selection over an `n_nodes` universe, dispatching on
/// density. As with the other
/// `_in` entry points, `n_nodes` must bound every node id of `r`;
/// list entries at or past it simply never match.
pub fn select_pairs_in(
    r: &NodePairSet,
    l1: &[NodeId],
    l2: &[NodeId],
    n_nodes: usize,
) -> NodePairSet {
    if r.is_empty() || l1.is_empty() || l2.is_empty() {
        return NodePairSet::new();
    }
    match choose_select(n_nodes, r.len(), l1.len(), l2.len()) {
        // As in `compose_pairs_in`: the chooser never returns Scc.
        Kernel::Bits | Kernel::Scc => select_pairs_bits(r, l1, l2, n_nodes),
        Kernel::Pairs => select_pairs_kernel(r, l1, l2),
    }
}

/// Kleene star as a relation over an `n_nodes` universe:
/// `r* = r⁺ ∪ id`.
pub fn star_in(r: &NodePairSet, n_nodes: usize) -> Relation {
    Relation {
        pairs: transitive_closure_in(r, n_nodes),
        identity: true,
    }
}

/// Kleene star (universe inferred from the operand ids).
pub fn star(r: &NodePairSet) -> Relation {
    Relation {
        pairs: transitive_closure(r),
        identity: true,
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
    fn compose_pairs_basic() {
        let a = pairs(&[(0, 1), (1, 2)]);
        let b = pairs(&[(1, 5), (2, 6)]);
        let c = compose_pairs(&a, &b);
        assert_eq!(c, pairs(&[(0, 5), (1, 6)]));
        // Both kernels agree.
        assert_eq!(compose_pairs_kernel(&a, &b), c);
        assert_eq!(compose_pairs_bits(&a, &b, 7), c);
    }

    #[test]
    fn compose_with_identity() {
        let a = Relation::from_pairs(pairs(&[(0, 1)]));
        let eps = Relation::epsilon();
        assert_eq!(compose(&a, &eps), a);
        assert_eq!(compose(&eps, &a), a);
        let opt = a.union(&eps); // a?
        let twice = compose(&opt, &opt); // matches "", "a", "aa"
        assert!(twice.identity);
        assert!(twice.contains(n(0), n(1)));
    }

    #[test]
    fn closure_of_chain() {
        let chain = pairs(&[(0, 1), (1, 2), (2, 3)]);
        let expected = pairs(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(transitive_closure(&chain), expected);
        assert_eq!(transitive_closure_pairs(&chain), expected);
        assert_eq!(transitive_closure_bits(&chain, 4), expected);
        assert_eq!(transitive_closure_scc(&chain, 4), expected);
        assert_eq!(
            transitive_closure_csr(&CsrRelation::from_pairs(&chain, 4)),
            expected
        );
        assert_eq!(
            transitive_closure_scc_csr(&CsrRelation::from_pairs(&chain, 4)),
            expected
        );
    }

    #[test]
    fn closure_of_diamond() {
        let d = pairs(&[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let tc = transitive_closure(&d);
        assert!(tc.contains(n(0), n(3)));
        assert!(!tc.contains(n(1), n(2)));
        assert_eq!(tc.len(), 5);
    }

    #[test]
    fn closure_of_empty_is_empty() {
        assert!(transitive_closure(&NodePairSet::new()).is_empty());
        assert!(transitive_closure_bits(&NodePairSet::new(), 8).is_empty());
    }

    #[test]
    fn star_includes_identity() {
        let s = star(&pairs(&[(0, 1)]));
        assert!(s.contains(n(4), n(4)));
        assert!(s.contains(n(0), n(1)));
    }

    #[test]
    fn closure_handles_cycles_in_relation_graphs() {
        // Relations produced by sub-queries can cycle even on DAG runs
        // (e.g. different path endpoints); the fixpoint must still stop.
        let cyc = pairs(&[(0, 1), (1, 0)]);
        let expected = pairs(&[(0, 0), (0, 1), (1, 0), (1, 1)]);
        assert_eq!(transitive_closure_pairs(&cyc), expected);
        assert_eq!(transitive_closure_bits(&cyc, 2), expected);
        assert_eq!(transitive_closure_scc(&cyc, 2), expected);
    }
}
