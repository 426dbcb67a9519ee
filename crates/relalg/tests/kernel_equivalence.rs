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
    closure_csr, closure_csr_shared, closure_in, compose_in, compose_pairs_bits, compose_pairs_in,
    compose_pairs_kernel, join_in, select_pairs_bits, select_pairs_in, select_pairs_kernel,
    transitive_closure_bits, transitive_closure_pairs, transitive_closure_scc,
    transitive_closure_scc_csr, BitRelation, Condensation, CondensationCache, CsrRelation,
    NodePairSet, Pairs, Relation, TagIndex,
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

/// The dispatched closure of a list, listed.
fn sorted_closure(r: &NodePairSet, n: usize) -> NodePairSet {
    closure_in(&Pairs::Sorted(r.clone()), n).into_sorted()
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
        prop_assert_eq!(&sorted_closure(&r, 70), &referee);
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
        prop_assert_eq!(&sorted_closure(&r, n), &referee);
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
    assert_eq!(sorted_closure(r, n), referee);
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

// ---------------------------------------------------------------------
// Format equivalence: a relation's explicit pairs are a sorted list or
// bit rows, whichever kernel produced them. Every operator, fed every
// combination of input formats, must list exactly the pair-kernel
// referee's answer.
// ---------------------------------------------------------------------

/// A universe size (rarely a multiple of 64) and two random relations
/// over it.
fn sized_pair(max_pairs: usize) -> impl Strategy<Value = (usize, NodePairSet, NodePairSet)> {
    (
        1u32..150,
        relation(150, max_pairs),
        relation(150, max_pairs),
    )
        .prop_map(|(n, a, b)| {
            let inside = |r: NodePairSet| -> NodePairSet {
                r.iter().filter(|(u, v)| u.0 < n && v.0 < n).collect()
            };
            (n as usize, inside(a), inside(b))
        })
}

/// A fair coin.
fn flag() -> impl Strategy<Value = bool> {
    (0u8..2).prop_map(|b| b == 1)
}

/// `r` in both formats over an `n`-node universe.
fn formats(r: &NodePairSet, n: usize) -> [Pairs; 2] {
    [Pairs::Sorted(r.clone()), Pairs::Bits(r.to_bits(n))]
}

/// The pair-kernel referee of `(a ∪ id?) ∘ (b ∪ id?)`'s explicit pairs.
fn compose_referee(a: &NodePairSet, id_a: bool, b: &NodePairSet, id_b: bool) -> NodePairSet {
    let mut out = compose_pairs_kernel(a, b);
    if id_a {
        out = out.union(b);
    }
    if id_b {
        out = out.union(a);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn closures_agree_in_every_format(case in sized_pair(200)) {
        let (n, r, other) = case;
        let referee = transitive_closure_pairs(&r);
        let csr = CsrRelation::from_pairs(&r, n);
        let cache = CondensationCache::new();
        let mut closures = vec![closure_csr(&csr), closure_csr_shared(&csr, &csr, &cache)];
        // A base inside a larger graph, as each per-tag closure of a
        // composite plan sits inside the run's whole adjacency; one
        // cache serves two bases of the same whole.
        let whole: NodePairSet = r.iter().chain(other.iter()).collect();
        let whole = CsrRelation::from_pairs(&whole, n);
        let shared = CondensationCache::new();
        prop_assert_eq!(
            closure_csr_shared(&CsrRelation::from_pairs(&other, n), &whole, &shared).into_sorted(),
            transitive_closure_pairs(&other)
        );
        closures.push(closure_csr_shared(&csr, &whole, &shared));
        closures.extend(formats(&r, n).iter().map(|p| closure_in(p, n)));
        for closure in closures {
            prop_assert_eq!(closure.len(), referee.len());
            prop_assert_eq!(&closure, &Pairs::Sorted(referee.clone()));
            prop_assert_eq!(closure.into_sorted(), referee.clone());
        }
    }

    #[test]
    fn joins_agree_in_every_format(
        case in sized_pair(200),
        id_a in flag(),
        id_b in flag(),
        dense_left in flag(),
        sparse_right in flag(),
    ) {
        let (n, a, b) = case;
        // A closed left side is dense; dropping every odd source on the
        // right leaves half its rows empty (the masked row join).
        let a = if dense_left { transitive_closure_pairs(&a) } else { a };
        let b: NodePairSet = if sparse_right {
            b.iter().filter(|(u, _)| u.0 % 2 == 0).collect()
        } else {
            b
        };
        let referee = compose_referee(&a, id_a, &b, id_b);
        for pa in formats(&a, n) {
            for pb in formats(&b, n) {
                prop_assert_eq!(
                    join_in(&pa, &pb, n).into_sorted(),
                    compose_pairs_kernel(&a, &b)
                );
                let left = Relation { pairs: pa.clone(), identity: id_a };
                let right = Relation { pairs: pb, identity: id_b };
                let joined = compose_in(&left, &right, n);
                prop_assert_eq!(joined.identity, id_a && id_b);
                prop_assert_eq!(&joined.pairs, &Pairs::Sorted(referee.clone()));
                prop_assert_eq!(joined.pairs.into_sorted(), referee.clone());
            }
        }
    }

    #[test]
    fn unions_agree_in_every_format(
        case in sized_pair(200),
        id_a in flag(),
        id_b in flag(),
    ) {
        let (n, a, b) = case;
        let referee = a.union(&b);
        for pa in formats(&a, n) {
            for pb in formats(&b, n) {
                let left = Relation { pairs: pa.clone(), identity: id_a };
                let u = left.union(&Relation { pairs: pb, identity: id_b });
                prop_assert_eq!(u.identity, id_a || id_b);
                prop_assert_eq!(u.pairs.into_sorted(), referee.clone());
            }
        }
    }

    #[test]
    fn selection_membership_and_equality_agree_in_every_format(
        case in sized_pair(300),
        l1 in prop::collection::vec(0..160u32, 0..60),
        l2 in prop::collection::vec(0..160u32, 0..60),
        identity in flag(),
    ) {
        let (n, r, _) = case;
        let l1: Vec<NodeId> = l1.into_iter().map(NodeId).collect();
        let l2: Vec<NodeId> = l2.into_iter().map(NodeId).collect();
        // List entries past the universe never match a pair; the
        // symbolic identity still relates them to themselves.
        let mut referee = select_pairs_kernel(&r, &l1, &l2);
        if identity {
            let diagonal: NodePairSet =
                l1.iter().filter(|u| l2.contains(u)).map(|&u| (u, u)).collect();
            referee = referee.union(&diagonal);
        }
        let [sorted, bits] = formats(&r, n);
        for pairs in [&sorted, &bits] {
            let rel = Relation { pairs: pairs.clone(), identity };
            prop_assert_eq!(&rel.select_pairs(&l1, &l2), &referee);
            prop_assert_eq!(&rel.select_pairs_in(&l1, &l2, n), &referee);
            for u in (0..n as u32).map(NodeId) {
                for v in (0..n as u32).map(NodeId) {
                    prop_assert_eq!(
                        rel.contains(u, v),
                        (identity && u == v) || r.contains(u, v)
                    );
                }
            }
        }
        // Equality reads contents: the same pairs are equal in either
        // format and over a wider row stride, one more pair is not.
        prop_assert_eq!(&sorted, &bits);
        prop_assert_eq!(&bits, &sorted);
        prop_assert_eq!(&Pairs::Bits(r.to_bits(n + 64)), &sorted);
        prop_assert_eq!(&Pairs::Bits(r.to_bits(n + 64)), &bits);
        if !r.contains(NodeId(0), NodeId(0)) {
            let mut more = r.to_bits(n);
            more.set(NodeId(0), NodeId(0));
            let more = Pairs::Bits(more);
            assert_ne!(more, sorted);
            assert_ne!(more, bits);
            assert_ne!(sorted, more);
        }
    }
}

#[test]
fn empty_relations_behave_alike_in_either_format() {
    for n in [0usize, 1, 2, 63, 64, 65, 130] {
        let chain: NodePairSet = (1..n as u32).map(|i| (NodeId(i - 1), NodeId(i))).collect();
        let all: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let empties = [
            Pairs::Sorted(NodePairSet::new()),
            Pairs::Bits(BitRelation::new(n)),
        ];
        assert_eq!(empties[0], empties[1]);
        for empty in &empties {
            assert!(empty.is_empty());
            assert_eq!(empty.len(), 0);
            assert!(closure_in(empty, n).is_empty());
            let nothing = Relation {
                pairs: empty.clone(),
                identity: false,
            };
            assert!(nothing.select_pairs_in(&all, &all, n).is_empty());
            let eps = Relation {
                pairs: empty.clone(),
                identity: true,
            };
            assert_eq!(eps.select_pairs_in(&all, &all, n).len(), n);
            for other in formats(&chain, n) {
                assert!(join_in(empty, &other, n).is_empty());
                assert!(join_in(&other, empty, n).is_empty());
                assert_eq!(empty.clone().union(&other).into_sorted(), chain);
                assert_eq!(other.clone().union(empty).into_sorted(), chain);
                let r = Relation {
                    pairs: other,
                    identity: false,
                };
                assert_eq!(compose_in(&eps, &r, n), r);
                assert_eq!(compose_in(&r, &eps, n), r);
                assert_eq!(compose_in(&nothing, &r, n), Relation::empty());
            }
        }
    }
}
