//! Composition joins, Kleene closures and endpoint selection.
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
//! [`crate::bits`]; closures have a third, the condensation pass of
//! [`crate::scc`].
//!
//! **Two formats, pairs built last.** An intermediate result stays in
//! the format of the kernel that produced it ([`Pairs`]): the pair
//! kernel returns a sorted list, the bit and condensation kernels
//! return blocked rows. [`closure_in`], [`closure_csr`],
//! [`closure_csr_shared`] and [`join_in`] accept either format and
//! return whichever their kernel builds; a join whose operand is
//! already rows runs the bit kernel without converting it back, and
//! the size-based choosers decide only between two lists. Pairs are
//! listed once, at the final selection ([`Pairs::select_in`] →
//! [`BitRelation::select_pairs`]), and only for the selected rows.
//!
//! The `NodePairSet`-returning entry points (`compose_pairs_in`,
//! `transitive_closure_csr`, `select_pairs_in` and the per-kernel
//! `*_pairs` / `*_bits` / `*_scc` functions) list their result; they
//! serve referees, benches and callers outside a relation pipeline.

use crate::bits::BitRelation;
use crate::csr::CsrRelation;
use crate::kernel::{choose_closure, choose_compose, choose_select, record_closure, Kernel};
use crate::relation::{NodePairSet, Pairs, Relation};
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

/// The bit-kernel join of two lists: the left operand iterates as CSR
/// adjacency, the right as blocked bitset rows, and every `(u, v)` of
/// `a` contributes one word-wise row OR.
fn compose_bits(a: &NodePairSet, b: &NodePairSet, n_nodes: usize) -> BitRelation {
    BitRelation::compose_csr(
        &CsrRelation::from_pairs(a, n_nodes),
        &BitRelation::from_pairs(b, n_nodes),
    )
}

/// Composition of pair sets with the **bit kernel**, listed.
pub fn compose_pairs_bits(a: &NodePairSet, b: &NodePairSet, n_nodes: usize) -> NodePairSet {
    compose_bits(a, b, n_nodes).to_pairs()
}

/// Composition of two lists over an `n_nodes` universe, dispatching on
/// density; the result keeps the format of the kernel that ran.
fn compose_sorted(a: &NodePairSet, b: &NodePairSet, n_nodes: usize) -> Pairs {
    match choose_compose(n_nodes, a.len(), b.len()) {
        // SCC is closure-only; the chooser never returns it, but keep
        // the match total on the word-parallel side.
        Kernel::Bits | Kernel::Scc => Pairs::Bits(compose_bits(a, b, n_nodes)),
        Kernel::Pairs => Pairs::Sorted(compose_pairs_kernel(a, b)),
    }
}

/// Composition of pair sets over an `n_nodes` universe, dispatching on
/// density (listed).
pub fn compose_pairs_in(a: &NodePairSet, b: &NodePairSet, n_nodes: usize) -> NodePairSet {
    if a.is_empty() || b.is_empty() {
        return NodePairSet::new();
    }
    compose_sorted(a, b, n_nodes).into_sorted()
}

/// Composition `a ∘ b` over an `n_nodes` universe, in either format.
/// When either operand is already bit rows the bit kernel runs: a row
/// left side walks its set bits ([`BitRelation::compose`]), a list left
/// side iterates as CSR ([`BitRelation::compose_csr`]), and a list right
/// side becomes rows. Two lists are left to the size-based chooser.
pub fn join_in(a: &Pairs, b: &Pairs, n_nodes: usize) -> Pairs {
    if a.is_empty() || b.is_empty() {
        return Pairs::default();
    }
    match (a, b) {
        (Pairs::Sorted(a), Pairs::Sorted(b)) => compose_sorted(a, b, n_nodes),
        (Pairs::Bits(a), b) => Pairs::Bits(a.compose(&b.to_bits(n_nodes))),
        (Pairs::Sorted(a), Pairs::Bits(b)) => Pairs::Bits(BitRelation::compose_csr(
            &CsrRelation::from_pairs(a, n_nodes),
            b,
        )),
    }
}

/// Composition of relations over an `n_nodes` universe, respecting
/// symbolic identity: `(a ∪ id?) ∘ (b ∪ id?)`. The identity unions OR
/// bit rows whenever either side is rows.
pub fn compose_in(a: &Relation, b: &Relation, n_nodes: usize) -> Relation {
    let mut pairs = join_in(&a.pairs, &b.pairs, n_nodes);
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

/// Transitive closure of a relation in either format over an `n_nodes`
/// universe, dispatching on density ([`choose_closure`] sees the pair
/// count, whatever the format). The condensation and bit kernels
/// return rows, the pair kernel a list.
pub fn closure_in(r: &Pairs, n_nodes: usize) -> Pairs {
    let len = r.len();
    // A 0/1-pair base is its own closure.
    if len < 2 {
        return r.clone();
    }
    let kernel = choose_closure(n_nodes, len);
    record_closure(kernel);
    match kernel {
        Kernel::Scc => Pairs::Bits(crate::scc::transitive_closure_scc(&r.to_csr(n_nodes))),
        Kernel::Bits => Pairs::Bits(r.to_bits(n_nodes).transitive_closure()),
        Kernel::Pairs => Pairs::Sorted(transitive_closure_pairs(&r.to_sorted())),
    }
}

/// Transitive closure straight off a cached CSR arena (the session's
/// per-`(run, tag)` adjacency), dispatching on density: skips the
/// pair→CSR conversion [`closure_in`] pays for a list.
pub fn closure_csr(base: &CsrRelation) -> Pairs {
    closure_csr_with(base, || crate::scc::transitive_closure_scc(base))
}

/// [`closure_csr`] with a shared, evaluation-scoped condensation: when
/// the dispatch picks the SCC kernel, the Tarjan walk runs at most once
/// per `cache` — over `whole`, the run's full adjacency (a super-graph
/// of every per-tag `base`) — and the closure is scheduled off the
/// cached component DAG ([`crate::scc::transitive_closure_scc_with`]).
/// The non-SCC kernels are untouched, so a closure dispatched to them
/// never pays the condensation.
pub fn closure_csr_shared(
    base: &CsrRelation,
    whole: &CsrRelation,
    cache: &crate::scc::CondensationCache,
) -> Pairs {
    closure_csr_with(base, || {
        crate::scc::transitive_closure_scc_with(cache.condensation(whole), base)
    })
}

/// The dispatch shared by the CSR closures; `scc` runs the
/// condensation kernel when it is chosen.
fn closure_csr_with(base: &CsrRelation, scc: impl FnOnce() -> BitRelation) -> Pairs {
    if base.n_edges() < 2 {
        return Pairs::Sorted(base.to_pairs());
    }
    let kernel = choose_closure(base.n_nodes(), base.n_edges());
    record_closure(kernel);
    match kernel {
        Kernel::Scc => Pairs::Bits(scc()),
        Kernel::Bits => Pairs::Bits(BitRelation::from_csr(base).transitive_closure()),
        Kernel::Pairs => Pairs::Sorted(transitive_closure_pairs(&base.to_pairs())),
    }
}

/// [`closure_csr`], listed.
pub fn transitive_closure_csr(base: &CsrRelation) -> NodePairSet {
    closure_csr(base).into_sorted()
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
        // As in `compose_sorted`: the chooser never returns Scc.
        Kernel::Bits | Kernel::Scc => select_pairs_bits(r, l1, l2, n_nodes),
        Kernel::Pairs => select_pairs_kernel(r, l1, l2),
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

    /// A list in both formats over an `n`-node universe.
    fn both(ps: &NodePairSet, n: usize) -> [Pairs; 2] {
        [Pairs::Sorted(ps.clone()), Pairs::Bits(ps.to_bits(n))]
    }

    #[test]
    fn compose_pairs_basic() {
        let a = pairs(&[(0, 1), (1, 2)]);
        let b = pairs(&[(1, 5), (2, 6)]);
        let c = compose_pairs_in(&a, &b, 7);
        assert_eq!(c, pairs(&[(0, 5), (1, 6)]));
        // Both kernels agree, and so does every format pairing.
        assert_eq!(compose_pairs_kernel(&a, &b), c);
        assert_eq!(compose_pairs_bits(&a, &b, 7), c);
        for pa in both(&a, 7) {
            for pb in both(&b, 7) {
                assert_eq!(join_in(&pa, &pb, 7).into_sorted(), c);
            }
        }
    }

    #[test]
    fn compose_with_identity() {
        let a = Relation::from_pairs(pairs(&[(0, 1)]));
        let eps = Relation::epsilon();
        assert_eq!(compose_in(&a, &eps, 2), a);
        assert_eq!(compose_in(&eps, &a, 2), a);
        let opt = a.clone().union(&eps); // a?
        let twice = compose_in(&opt, &opt, 2); // matches "", "a", "aa"
        assert!(twice.identity);
        assert!(twice.contains(n(0), n(1)));
    }

    #[test]
    fn closure_of_chain() {
        let chain = pairs(&[(0, 1), (1, 2), (2, 3)]);
        let expected = pairs(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        for r in both(&chain, 4) {
            assert_eq!(closure_in(&r, 4).into_sorted(), expected);
        }
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
        let tc = closure_in(&Pairs::Sorted(d), 4);
        assert!(tc.contains(n(0), n(3)));
        assert!(!tc.contains(n(1), n(2)));
        assert_eq!(tc.len(), 5);
    }

    #[test]
    fn closure_of_empty_is_empty() {
        assert!(closure_in(&Pairs::default(), 0).is_empty());
        assert!(transitive_closure_bits(&NodePairSet::new(), 8).is_empty());
    }

    #[test]
    fn star_includes_identity() {
        // `r*` as the evaluators build it: closure plus the symbolic
        // identity.
        let s = Relation {
            pairs: closure_in(&Pairs::Sorted(pairs(&[(0, 1)])), 5),
            identity: true,
        };
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
