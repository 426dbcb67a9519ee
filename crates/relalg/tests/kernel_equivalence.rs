//! Property tests: the bit-parallel kernel agrees exactly with the
//! pair-based referee operators on random relations, and all **three**
//! closure kernels (pairs referee, semi-naive bits, Tarjan
//! condensation) are byte-identical on every graph shape — random,
//! DAG, cyclic, multi-SCC, and the relations a simulated run yields.
//!
//! The referee is the seed implementation (`compose_pairs_kernel`,
//! `transitive_closure_pairs`) kept verbatim in `join.rs`; the subject
//! is every bit-kernel entry point plus the density-dispatched `*_in`
//! operators (which must agree with both, whichever kernel they pick).

use proptest::prelude::*;
use rpq_grammar::Tag;
use rpq_labeling::NodeId;
use rpq_relalg::{
    compose_pairs_bits, compose_pairs_in, compose_pairs_kernel, select_pairs_bits, select_pairs_in,
    select_pairs_kernel, transitive_closure_bits, transitive_closure_in, transitive_closure_pairs,
    transitive_closure_scc, transitive_closure_scc_csr, BitRelation, Condensation, CsrRelation,
    NodePairSet, TagIndex,
};
use rpq_workloads::runs::{
    cyclic_core_relation, deep_chain_relation, multi_scc_relation, wide_dag_relation,
};

/// Random relation over a universe of `n` nodes: up to `max_pairs`
/// arbitrary (possibly duplicate, possibly self-loop) pairs.
fn relation(n: u32, max_pairs: usize) -> impl Strategy<Value = NodePairSet> {
    prop::collection::vec((0..n, 0..n), 0..max_pairs).prop_map(|raw| {
        NodePairSet::from_pairs(
            raw.into_iter()
                .map(|(u, v)| (NodeId(u), NodeId(v)))
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn compose_kernels_agree(
        a in relation(90, 120),
        b in relation(90, 120),
    ) {
        let referee = compose_pairs_kernel(&a, &b);
        prop_assert_eq!(&compose_pairs_bits(&a, &b, 90), &referee);
        prop_assert_eq!(&compose_pairs_in(&a, &b, 90), &referee);
    }

    #[test]
    fn closure_kernels_agree(r in relation(70, 100)) {
        let referee = transitive_closure_pairs(&r);
        prop_assert_eq!(&transitive_closure_bits(&r, 70), &referee);
        prop_assert_eq!(&transitive_closure_scc(&r, 70), &referee);
        prop_assert_eq!(&transitive_closure_in(&r, 70), &referee);
        // Closure off the CSR arena takes a different construction path.
        let csr = CsrRelation::from_pairs(&r, 70);
        prop_assert_eq!(&rpq_relalg::transitive_closure_csr(&csr), &referee);
        prop_assert_eq!(&transitive_closure_scc_csr(&csr), &referee);
    }

    // Three-way closure differential over structured corpora: the
    // random-relation test above rarely produces long paths or large
    // cycles, so each SCC-hostile shape gets its own generator —
    // permuted deep chains (maximal semi-naive round counts), layered
    // DAGs (dense closures), chains with a cyclic core (the paper's
    // workflow regime) and multi-SCC tangles with self-loops.
    #[test]
    fn closure_kernels_agree_on_deep_chains(seed in 0u64..40, n in 2usize..120) {
        let r = deep_chain_relation(n, seed);
        let referee = transitive_closure_pairs(&r);
        prop_assert_eq!(&transitive_closure_bits(&r, n), &referee);
        prop_assert_eq!(&transitive_closure_scc(&r, n), &referee);
        prop_assert_eq!(&transitive_closure_in(&r, n), &referee);
    }

    #[test]
    fn closure_kernels_agree_on_wide_dags(
        seed in 0u64..40,
        width in 1usize..12,
        fanout in 1usize..4,
    ) {
        let r = wide_dag_relation(90, width, fanout, seed);
        let referee = transitive_closure_pairs(&r);
        prop_assert_eq!(&transitive_closure_bits(&r, 90), &referee);
        prop_assert_eq!(&transitive_closure_scc(&r, 90), &referee);
    }

    #[test]
    fn closure_kernels_agree_on_cyclic_cores(
        seed in 0u64..40,
        n in 2usize..100,
        core in 1usize..30,
    ) {
        let r = cyclic_core_relation(n, core.min(n), seed);
        let referee = transitive_closure_pairs(&r);
        prop_assert_eq!(&transitive_closure_bits(&r, n), &referee);
        prop_assert_eq!(&transitive_closure_scc(&r, n), &referee);
    }

    #[test]
    fn closure_kernels_agree_on_multi_scc_tangles(
        seed in 0u64..60,
        n_comps in 1usize..12,
        extra in 0usize..60,
    ) {
        let r = multi_scc_relation(80, n_comps, extra, seed);
        let referee = transitive_closure_pairs(&r);
        prop_assert_eq!(&transitive_closure_bits(&r, 80), &referee);
        prop_assert_eq!(&transitive_closure_scc(&r, 80), &referee);
        // The condensation invariant the one-pass closure relies on.
        let csr = CsrRelation::from_pairs(&r, 80);
        prop_assert!(Condensation::of(&csr).is_reverse_topological(&csr));
    }

    #[test]
    fn union_and_difference_agree(
        a in relation(80, 100),
        b in relation(80, 100),
    ) {
        let ab = BitRelation::from_pairs(&a, 80);
        let bb = BitRelation::from_pairs(&b, 80);
        // Pair-set referee for union; filter referee for difference.
        prop_assert_eq!(&ab.union(&bb).to_pairs(), &a.union(&b));
        let diff_referee: NodePairSet =
            a.iter().filter(|&(u, v)| !b.contains(u, v)).collect();
        prop_assert_eq!(&ab.difference(&bb).to_pairs(), &diff_referee);
    }

    #[test]
    fn endpoint_selection_kernels_agree(
        r in relation(90, 400),
        l1 in prop::collection::vec(0..90u32, 0..60),
        l2 in prop::collection::vec(0..90u32, 0..60),
    ) {
        let l1: Vec<NodeId> = l1.into_iter().map(NodeId).collect();
        let l2: Vec<NodeId> = l2.into_iter().map(NodeId).collect();
        // The pair-kernel referee, written out longhand.
        let mut l2s = l2.clone();
        l2s.sort_unstable();
        let referee: NodePairSet = r
            .iter()
            .filter(|(u, v)| l1.contains(u) && l2s.binary_search(v).is_ok())
            .collect();
        prop_assert_eq!(&select_pairs_kernel(&r, &l1, &l2), &referee);
        prop_assert_eq!(&select_pairs_bits(&r, &l1, &l2, 90), &referee);
        prop_assert_eq!(&select_pairs_in(&r, &l1, &l2, 90), &referee);
        prop_assert_eq!(&r.to_bits(90).select_pairs(&l1, &l2), &referee);
    }

    // Incremental closure maintenance (the live-ingestion delta path):
    // growing an old closure to a larger universe and extending it with
    // a random batch of new edges must be byte-identical to refixpointing
    // the union from scratch — including when the delta bridges
    // previously separate components or creates new cycles.
    #[test]
    fn extend_closure_matches_full_refixpoint(
        base in relation(70, 90),
        delta in relation(96, 40),
    ) {
        let old = BitRelation::from_pairs(&base, 70).transitive_closure();
        let merged = base.union(&delta);
        let merged_bits = BitRelation::from_pairs(&merged, 96);
        let maintained = old.grow(96).extend_closure(&merged_bits, &delta);
        prop_assert_eq!(&maintained, &merged_bits.transitive_closure());
    }

    #[test]
    fn csr_and_bits_round_trip(r in relation(100, 150)) {
        prop_assert_eq!(&CsrRelation::from_pairs(&r, 100).to_pairs(), &r);
        prop_assert_eq!(&r.to_bits(100).to_pairs(), &r);
        prop_assert_eq!(
            &BitRelation::from_csr(&CsrRelation::from_pairs(&r, 100)).to_pairs(),
            &r
        );
    }
}

// ---------------------------------------------------------------------
// Degenerate closure shapes, pinned three-way.
// ---------------------------------------------------------------------

fn pairs_of(ps: &[(u32, u32)]) -> NodePairSet {
    NodePairSet::from_pairs(ps.iter().map(|&(a, b)| (NodeId(a), NodeId(b))).collect())
}

fn assert_three_way(r: &NodePairSet, n: usize) {
    let referee = transitive_closure_pairs(r);
    assert_eq!(transitive_closure_bits(r, n), referee);
    assert_eq!(transitive_closure_scc(r, n), referee);
    assert_eq!(transitive_closure_in(r, n), referee);
}

#[test]
fn closure_of_empty_graph_is_empty_in_every_kernel() {
    assert_three_way(&NodePairSet::new(), 0);
    assert_three_way(&NodePairSet::new(), 64);
}

#[test]
fn closure_of_one_giant_cycle_is_complete_in_every_kernel() {
    let n = 130; // crosses word blocks
    let mut edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    edges.push((n - 1, 0));
    let r = pairs_of(&edges);
    assert_three_way(&r, n as usize);
    assert_eq!(
        transitive_closure_scc(&r, n as usize).len(),
        (n * n) as usize
    );
}

#[test]
fn closure_of_disconnected_components_in_every_kernel() {
    // Two chains, one 3-cycle, one self-loop, isolated nodes.
    let r = pairs_of(&[
        (0, 1),
        (1, 2),
        (10, 11),
        (20, 21),
        (21, 22),
        (22, 20),
        (30, 30),
    ]);
    assert_three_way(&r, 40);
}

#[test]
fn closure_of_self_loop_forest_in_every_kernel() {
    let r = pairs_of(&[(0, 0), (3, 3), (7, 7), (63, 63), (64, 64)]);
    assert_three_way(&r, 70);
}

// ---------------------------------------------------------------------
// Run-derived relations: the shapes a `Session` composite evaluation
// actually feeds the operators — a simulated Fig. 2 run's merged edge
// relation and each per-tag relation, acyclic and with appended
// back-edges — through every kernel of every operator.
// ---------------------------------------------------------------------

#[test]
fn kernels_agree_on_run_derived_relations() {
    let spec = rpq_workloads::paper_examples::fig2_spec();
    for edges in [150, 180] {
        let base = rpq_workloads::runs::simulate(&spec, edges, 11).expect("derivable");
        let cyclic = rpq_workloads::runs::with_back_edges(&base, 6);
        assert!(!cyclic.is_acyclic(), "back-edges must create cycles");
        for run in [&base, &cyclic] {
            let n = run.n_nodes();
            let index = TagIndex::build(run, spec.n_tags());
            let all: Vec<NodeId> = run.node_ids().collect();
            let some: Vec<NodeId> = all.iter().copied().step_by(3).collect();
            let whole = index.all_edges();
            let per_tag = (0..index.n_tags()).map(|t| index.edges(Tag(t as u32)));
            for r in std::iter::once(whole).chain(per_tag) {
                assert_three_way(r, n);
                let closure = transitive_closure_pairs(r);
                assert_eq!(
                    compose_pairs_bits(&closure, whole, n),
                    compose_pairs_kernel(&closure, whole)
                );
                assert_eq!(compose_pairs_bits(r, r, n), compose_pairs_kernel(r, r));
                for (l1, l2) in [(&all, &all), (&some, &all), (&all, &some)] {
                    assert_eq!(
                        select_pairs_bits(&closure, l1, l2, n),
                        select_pairs_kernel(&closure, l1, l2)
                    );
                }
            }
        }
    }
}
