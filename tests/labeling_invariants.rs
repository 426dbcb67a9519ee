//! Structural invariants of runs and labels — the properties the whole
//! decoding approach rests on.

use proptest::prelude::*;
use rpq_labeling::{Label, ListTree, NodeId, ParseTree, Run, RunBuilder, UniformRandom};
use rpq_workloads::{synthetic, SynthParams};
use std::collections::{HashMap, HashSet};

fn spec_params() -> impl Strategy<Value = SynthParams> {
    (
        2usize..=5,
        4usize..=10,
        0usize..=2,
        0usize..=1,
        3usize..=5,
        0u64..5000,
    )
        .prop_filter_map(
            "recursion block must leave a start module",
            |(nc, na, selfs, twos, minb, seed)| {
                if selfs + 2 * twos >= nc {
                    return None;
                }
                Some(SynthParams {
                    n_atomic: na,
                    n_composite: nc,
                    n_self_cycles: selfs,
                    n_two_cycles: twos,
                    body_nodes: (minb, minb + 3),
                    extra_edge_prob: 0.3,
                    composite_ref_prob: 0.1,
                    n_tags: 8,
                    alt_production_per_mille: 400,
                    seed,
                })
            },
        )
}

/// The interface property behind label decoding: the set of leaves below
/// any *production-position* prefix of the compressed parse tree forms a
/// sub-DAG with a unique entry and a unique exit.
///
/// Prefixes ending at a recursion child are deliberately excluded: child
/// `i`'s leaf set has a "hole" where children `i+1..` nest inside its
/// body, so it has a second boundary crossing (into and out of the
/// hole). The decoder models those crossings explicitly with the
/// descent/ascent chains rather than treating the child as opaque.
fn check_subrun_interfaces(run: &Run) {
    // Group nodes by each production-position prefix of their label.
    let mut groups: HashMap<Vec<rpq_labeling::LabelEntry>, Vec<NodeId>> = HashMap::new();
    for (id, node) in run.nodes() {
        let entries = node.label.entries();
        for depth in 0..entries.len() {
            let ends_at_rec =
                depth > 0 && matches!(entries[depth - 1], rpq_labeling::LabelEntry::Rec { .. });
            if ends_at_rec {
                continue;
            }
            groups
                .entry(entries[..depth].to_vec())
                .or_default()
                .push(id);
        }
    }
    for (prefix, members) in groups {
        let set: HashSet<NodeId> = members.iter().copied().collect();
        let mut entries = 0usize;
        let mut exits = 0usize;
        for &m in &members {
            let has_external_in = run.in_edges(m).iter().any(|(src, _)| !set.contains(src))
                || run.in_edges(m).is_empty();
            let has_internal_in = run.in_edges(m).iter().any(|(src, _)| set.contains(src));
            if has_external_in {
                assert!(
                    !has_internal_in,
                    "node {m:?} mixes internal and external inputs in sub-run {prefix:?}"
                );
                entries += 1;
            }
            let has_external_out = run.out_edges(m).iter().any(|(dst, _)| !set.contains(dst))
                || run.out_edges(m).is_empty();
            let has_internal_out = run.out_edges(m).iter().any(|(dst, _)| set.contains(dst));
            if has_external_out {
                assert!(
                    !has_internal_out,
                    "node {m:?} mixes internal and external outputs in sub-run {prefix:?}"
                );
                exits += 1;
            }
        }
        assert_eq!(entries, 1, "sub-run {prefix:?} must have a unique entry");
        assert_eq!(exits, 1, "sub-run {prefix:?} must have a unique exit");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Every sub-run has a unique entry and exit node — the property
    /// that lets paths be decomposed through interface ports.
    #[test]
    fn subruns_have_unique_interfaces(
        params in spec_params(),
        run_seed in 0u64..1000,
    ) {
        let s = synthetic::generate(&params);
        let run = RunBuilder::new(&s.spec)
            .policy(UniformRandom::new(run_seed))
            .target_edges(60)
            .build()
            .unwrap();
        check_subrun_interfaces(&run);
    }

    /// Runs are DAGs with unique global entry/exit; labels are unique
    /// and sorted order equals parse-tree document order.
    #[test]
    fn run_and_label_global_invariants(
        params in spec_params(),
        run_seed in 0u64..1000,
    ) {
        let s = synthetic::generate(&params);
        let run = RunBuilder::new(&s.spec)
            .policy(UniformRandom::new(run_seed))
            .target_edges(80)
            .build()
            .unwrap();
        prop_assert!(run.is_acyclic());

        let mut labels: Vec<&Label> = run.node_ids().map(|id| run.label(id)).collect();
        let n = labels.len();
        labels.sort();
        labels.dedup();
        prop_assert_eq!(labels.len(), n, "labels must be unique");

        let tree = ParseTree::from_run(&run);
        prop_assert_eq!(tree.leaves(), run.nodes_in_document_order());
        // Depth bound: production levels ≤ longest acyclic chain of
        // composites, plus one recursion level per cycle; 2·|G| is a
        // loose structural bound.
        prop_assert!(tree.depth() <= 2 * s.spec.size());
    }

    /// ListTree projections: leaves of a random subset come back in
    /// document order, with consistent leaf counts.
    #[test]
    fn list_tree_projection_invariants(
        params in spec_params(),
        run_seed in 0u64..1000,
        subset_seed in 0u64..1000,
    ) {
        let s = synthetic::generate(&params);
        let run = RunBuilder::new(&s.spec)
            .policy(UniformRandom::new(run_seed))
            .target_edges(60)
            .build()
            .unwrap();
        let subset = rpq_workloads::runs::sample_nodes(&run, run.n_nodes() / 2 + 1, subset_seed);
        let tree = ListTree::build(&run, &subset);
        prop_assert_eq!(tree.n_leaves(), {
            let mut s2 = subset.clone();
            s2.sort_unstable();
            s2.dedup();
            s2.len()
        });
        let leaves = tree.leaves_under(0);
        // Document order.
        for w in leaves.windows(2) {
            prop_assert!(run.label(w[0]) < run.label(w[1]));
        }
        // Exactly the subset.
        let got: HashSet<NodeId> = leaves.iter().copied().collect();
        let want: HashSet<NodeId> = subset.into_iter().collect();
        prop_assert_eq!(got, want);
        // Every subtree's leaves are its children's, concatenated.
        for i in 0..tree.n_nodes() as u32 {
            let node = tree.node(i);
            let mut below: Vec<NodeId> = node.leaf.into_iter().collect();
            for &c in &node.children {
                below.extend_from_slice(tree.leaves_under(c));
            }
            prop_assert_eq!(tree.leaves_under(i), &below[..]);
        }
    }

    /// Derivation respects the grammar: every run edge's tag appears on
    /// some production-body edge, and node modules are atomic.
    #[test]
    fn runs_respect_the_grammar(
        params in spec_params(),
        run_seed in 0u64..1000,
    ) {
        let s = synthetic::generate(&params);
        let spec = &s.spec;
        let run = RunBuilder::new(spec)
            .policy(UniformRandom::new(run_seed))
            .target_edges(60)
            .build()
            .unwrap();
        let body_tags: HashSet<u32> = spec
            .productions()
            .iter()
            .flat_map(|p| p.body.edges().iter().map(|e| e.tag.0))
            .collect();
        for e in run.edges() {
            prop_assert!(body_tags.contains(&e.tag.0), "unknown tag {:?}", e.tag);
        }
        for (_, node) in run.nodes() {
            prop_assert!(!spec.is_composite(node.module), "composite node in run");
        }
    }
}
