//! Tree representation of a list of nodes (Fig. 12).
//!
//! Algorithm 2 represents each input node list as a projection of the
//! compressed parse tree whose leaves are exactly the listed nodes. Since
//! a label is the root-to-leaf entry path, the projection is a trie over
//! labels; with the list sorted in label (document) order the trie is
//! built in linear time by extending the rightmost path. The sort
//! compares integers: the run's cached [`Run::document_rank`], not
//! labels.
//!
//! Leaves are kept in one document-ordered array, so the leaves under
//! any trie node are a contiguous slice of it
//! ([`ListTree::leaves_under`]).

use crate::label::LabelEntry;
use crate::run::{NodeId, Run};

/// One trie node.
#[derive(Debug, Clone)]
pub struct ListTreeNode {
    /// The edge label from the parent (`None` only for the root).
    pub entry: Option<LabelEntry>,
    /// Child indices into the tree's node arena, in document order.
    pub children: Vec<u32>,
    /// For leaves: the run node.
    pub leaf: Option<NodeId>,
    /// Position of this subtree's first leaf in [`ListTree::leaves`].
    pub first_leaf: u32,
    /// Number of leaves in this subtree (cross-product sizing).
    pub n_leaves: u32,
}

/// A trie over the labels of a node list.
#[derive(Debug, Clone)]
pub struct ListTree {
    /// Arena; index 0 is the root.
    nodes: Vec<ListTreeNode>,
    /// The listed nodes, deduplicated, in document order.
    leaves: Vec<NodeId>,
}

impl ListTree {
    /// Build from a list of run nodes. The list is sorted internally by
    /// document rank; duplicates are collapsed.
    pub fn build(run: &Run, list: &[NodeId]) -> ListTree {
        let rank = run.document_rank();
        let mut sorted: Vec<(u32, NodeId)> =
            list.iter().map(|&id| (rank[id.index()], id)).collect();
        sorted.sort_unstable();
        sorted.dedup();

        let mut nodes = vec![ListTreeNode {
            entry: None,
            children: Vec::new(),
            leaf: None,
            first_leaf: 0,
            n_leaves: 0,
        }];
        let mut leaves = Vec::with_capacity(sorted.len());
        // Rightmost path through the trie: (node index, depth).
        let mut path: Vec<u32> = vec![0];
        let mut prev: Option<&[LabelEntry]> = None;

        for &(_, id) in &sorted {
            let entries = run.label(id).entries();
            let prev_entries: &[LabelEntry] = prev.unwrap_or(&[]);
            if prev.is_some() && entries == prev_entries {
                continue; // duplicate label (cannot happen across distinct nodes)
            }
            // Longest common prefix with the previous label.
            let mut lcp = 0;
            while lcp < prev_entries.len()
                && lcp < entries.len()
                && prev_entries[lcp] == entries[lcp]
            {
                lcp += 1;
            }
            debug_assert!(
                lcp < entries.len() || prev.is_none(),
                "one label cannot be a prefix of another distinct leaf's label"
            );
            path.truncate(lcp + 1);
            for &e in &entries[lcp..] {
                let parent = *path.last().expect("path non-empty");
                let idx = nodes.len() as u32;
                nodes.push(ListTreeNode {
                    entry: Some(e),
                    children: Vec::new(),
                    leaf: None,
                    first_leaf: leaves.len() as u32,
                    n_leaves: 0,
                });
                nodes[parent as usize].children.push(idx);
                path.push(idx);
            }
            let leaf_idx = *path.last().expect("path non-empty") as usize;
            nodes[leaf_idx].leaf = Some(id);
            leaves.push(id);
            prev = Some(entries);
        }

        // Leaf counts bottom-up (arena indices are topological: children
        // are created after parents).
        for i in (0..nodes.len()).rev() {
            let mut count = u32::from(nodes[i].leaf.is_some());
            for &c in &nodes[i].children {
                count += nodes[c as usize].n_leaves;
            }
            nodes[i].n_leaves = count;
        }
        ListTree { nodes, leaves }
    }

    /// The root node (depth 0; corresponds to the run's root execution).
    pub fn root(&self) -> &ListTreeNode {
        &self.nodes[0]
    }

    /// Node by arena index.
    #[inline]
    pub fn node(&self, idx: u32) -> &ListTreeNode {
        &self.nodes[idx as usize]
    }

    /// Total trie nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// All leaves, deduplicated, in document order.
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves
    }

    /// Leaves under the subtree rooted at `idx`, in document order.
    pub fn leaves_under(&self, idx: u32) -> &[NodeId] {
        &self.leaves[self.leaf_range(idx)]
    }

    /// Positions in [`ListTree::leaves`] of the leaves under `idx`.
    pub fn leaf_range(&self, idx: u32) -> std::ops::Range<usize> {
        let n = &self.nodes[idx as usize];
        n.first_leaf as usize..(n.first_leaf + n.n_leaves) as usize
    }

    /// Number of leaves in the whole tree.
    pub fn n_leaves(&self) -> usize {
        self.nodes[0].n_leaves as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive::RunBuilder;
    use rpq_grammar::{Specification, SpecificationBuilder};

    fn recursive_spec() -> Specification {
        let mut b = SpecificationBuilder::new();
        b.atomic("t");
        b.atomic("u");
        b.composite("S");
        b.production("S", |w| {
            let x = w.node("t");
            let s = w.node("S");
            let y = w.node("u");
            w.edge_named(x, s, "in");
            w.edge_named(s, y, "out");
        });
        b.production("S", |w| {
            w.node("t");
        });
        b.start("S");
        b.build().unwrap()
    }

    #[test]
    fn full_list_tree_has_all_leaves_in_order() {
        let spec = recursive_spec();
        let run = RunBuilder::new(&spec)
            .seed(1)
            .target_edges(100)
            .build()
            .unwrap();
        let all: Vec<NodeId> = run.node_ids().collect();
        let tree = ListTree::build(&run, &all);
        assert_eq!(tree.n_leaves(), run.n_nodes());
        let leaves = tree.leaves_under(0);
        assert_eq!(leaves, run.nodes_in_document_order());
    }

    #[test]
    fn subset_tree_projects() {
        let spec = recursive_spec();
        let run = RunBuilder::new(&spec)
            .seed(2)
            .target_edges(60)
            .build()
            .unwrap();
        let t_mod = spec.module_by_name("t").unwrap();
        let subset = run.nodes_of_module(t_mod);
        let tree = ListTree::build(&run, &subset);
        assert_eq!(tree.n_leaves(), subset.len());
        // Every leaf is from the subset.
        let leaves = tree.leaves_under(0);
        assert_eq!(leaves, tree.leaves());
        for l in leaves {
            assert!(subset.contains(l));
        }
    }

    #[test]
    fn duplicates_are_collapsed() {
        let spec = recursive_spec();
        let run = RunBuilder::new(&spec)
            .seed(3)
            .target_edges(40)
            .build()
            .unwrap();
        let id = run.entry();
        let tree = ListTree::build(&run, &[id, id, id]);
        assert_eq!(tree.n_leaves(), 1);
    }

    #[test]
    fn leaf_counts_are_consistent() {
        let spec = recursive_spec();
        let run = RunBuilder::new(&spec)
            .seed(4)
            .target_edges(80)
            .build()
            .unwrap();
        let all: Vec<NodeId> = run.node_ids().collect();
        let tree = ListTree::build(&run, &all);
        for i in 0..tree.n_nodes() as u32 {
            assert_eq!(
                tree.node(i).n_leaves as usize,
                tree.leaves_under(i).len(),
                "node {i}"
            );
        }
    }

    #[test]
    fn empty_list_gives_empty_tree() {
        let spec = recursive_spec();
        let run = RunBuilder::new(&spec)
            .seed(5)
            .target_edges(20)
            .build()
            .unwrap();
        let tree = ListTree::build(&run, &[]);
        assert_eq!(tree.n_leaves(), 0);
        assert_eq!(tree.n_nodes(), 1);
    }
}
