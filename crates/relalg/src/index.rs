//! Per-tag inverted edge index (baseline G3's index; Section V-A).
//!
//! "For each run, an index maps an edge tag γ ∈ Γ to a list of node pairs
//! that are connected by an edge tagged γ." The index also serves the
//! rare-label selection of baseline G2 and the selectivity estimates of
//! the cost-model extension.

use crate::relation::NodePairSet;
use rpq_grammar::Tag;
use rpq_labeling::{NodeId, Run};

/// Inverted index from edge tags to edge endpoint pairs.
///
/// Run stores persist it next to the run it indexes and reload it warm
/// after a restart (`rpq-store`, through [`TagIndex::from_parts`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TagIndex {
    /// `per_tag[t]`: sorted pairs connected by a `t`-tagged edge.
    per_tag: Vec<NodePairSet>,
    /// All edges regardless of tag, built once at construction (the
    /// wildcard relation used to repeat an `O(|Γ|)` sorted-union sweep
    /// per call).
    all: NodePairSet,
    /// Node count of the indexed run — the universe bound the kernel
    /// dispatch and the CSR/bitset builders need.
    n_nodes: usize,
}

impl TagIndex {
    /// Build the index for a run over a `n_tags`-tag alphabet.
    pub fn build(run: &Run, n_tags: usize) -> TagIndex {
        let mut buckets: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); n_tags];
        let mut all: Vec<(NodeId, NodeId)> = Vec::with_capacity(run.n_edges());
        for e in run.edges() {
            buckets[e.tag.index()].push((e.src, e.dst));
            all.push((e.src, e.dst));
        }
        TagIndex {
            per_tag: buckets.into_iter().map(NodePairSet::from_pairs).collect(),
            all: NodePairSet::from_pairs(all),
            n_nodes: run.n_nodes(),
        }
    }

    /// Assemble from per-tag pair sets and the wildcard set over
    /// `n_nodes` nodes, unchecked: loaders gate on
    /// [`TagIndex::is_well_formed`].
    pub fn from_parts(per_tag: Vec<NodePairSet>, all: NodePairSet, n_nodes: usize) -> TagIndex {
        TagIndex {
            per_tag,
            all,
            n_nodes,
        }
    }

    /// Merge a batch of appended edges into the index in place,
    /// growing the universe to `n_nodes`. Each touched tag's pair set
    /// (and the wildcard set) is extended by a sorted linear merge, so
    /// the result is *identical* to rebuilding from the grown run —
    /// both are pure functions of the pair sets — at the cost of the
    /// batch plus the touched tags, not the whole run. Returns the tags
    /// whose pair sets actually changed (the ones whose CSR mirrors
    /// must be refreshed); duplicate edges change nothing and report
    /// nothing.
    pub fn extend(&mut self, edges: &[(Tag, NodeId, NodeId)], n_nodes: usize) -> Vec<Tag> {
        assert!(n_nodes >= self.n_nodes, "a run can only grow");
        let mut by_tag: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); self.per_tag.len()];
        let mut all_new: Vec<(NodeId, NodeId)> = Vec::with_capacity(edges.len());
        for &(t, u, v) in edges {
            debug_assert!(u.index() < n_nodes && v.index() < n_nodes);
            by_tag[t.index()].push((u, v));
            all_new.push((u, v));
        }
        let mut touched = Vec::new();
        for (t, new_pairs) in by_tag.into_iter().enumerate() {
            if new_pairs.is_empty() {
                continue;
            }
            let merged = self.per_tag[t].union(&NodePairSet::from_pairs(new_pairs));
            if merged.len() != self.per_tag[t].len() {
                touched.push(Tag(t as u32));
            }
            self.per_tag[t] = merged;
        }
        self.all = self.all.union(&NodePairSet::from_pairs(all_new));
        self.n_nodes = n_nodes;
        touched
    }

    /// Edges tagged `tag`.
    pub fn edges(&self, tag: Tag) -> &NodePairSet {
        &self.per_tag[tag.index()]
    }

    /// Number of edges tagged `tag` (selectivity statistic).
    pub fn count(&self, tag: Tag) -> usize {
        self.per_tag[tag.index()].len()
    }

    /// All edges regardless of tag (the wildcard relation), cached at
    /// build time — one pass over the run instead of `O(|Γ|)` sorted
    /// unions per call.
    pub fn all_edges(&self) -> &NodePairSet {
        &self.all
    }

    /// Node count of the indexed run.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// The tag with the fewest (but non-zero) matching edges among
    /// `candidates` — G2's "rare label". Returns `None` when every
    /// candidate has zero matches (the query is trivially empty on this
    /// run).
    pub fn rarest(&self, candidates: &[Tag]) -> Option<Tag> {
        candidates
            .iter()
            .copied()
            .filter(|&t| self.count(t) > 0)
            .min_by_key(|&t| self.count(t))
    }

    /// Number of tags.
    pub fn n_tags(&self) -> usize {
        self.per_tag.len()
    }

    /// Shape checks for loaded indexes: the tag alphabet matches,
    /// every endpoint is inside the declared universe, and the cached
    /// wildcard relation is at least as large as the largest per-tag
    /// relation (each pair set is sorted by construction).
    /// Linear in the number of indexed pairs.
    pub fn is_well_formed(&self, n_tags: usize) -> bool {
        let in_universe = |s: &NodePairSet| {
            s.iter()
                .all(|(u, v)| u.index() < self.n_nodes && v.index() < self.n_nodes)
        };
        self.per_tag.len() == n_tags
            && in_universe(&self.all)
            && self.per_tag.iter().all(in_universe)
            && self.per_tag.iter().map(NodePairSet::len).sum::<usize>() >= self.all.len()
            && self.per_tag.iter().all(|s| s.len() <= self.all.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_grammar::SpecificationBuilder;
    use rpq_labeling::RunBuilder;

    #[test]
    fn index_counts_match_run_edges() {
        let mut b = SpecificationBuilder::new();
        b.atomic("t");
        b.composite("S");
        b.production("S", |w| {
            let x = w.node("t");
            let s = w.node("S");
            let y = w.node("t");
            w.edge_named(x, s, "fwd");
            w.edge_named(s, y, "bwd");
        });
        b.production("S", |w| {
            let x = w.node("t");
            let y = w.node("t");
            w.edge_named(x, y, "base");
        });
        b.start("S");
        let spec = b.build().unwrap();
        let run = RunBuilder::new(&spec)
            .seed(1)
            .target_edges(50)
            .build()
            .unwrap();
        let idx = TagIndex::build(&run, spec.n_tags());

        let total: usize = (0..spec.n_tags()).map(|t| idx.count(Tag(t as u32))).sum();
        assert_eq!(total, run.n_edges());
        assert_eq!(idx.all_edges().len(), run.n_edges());
        assert_eq!(idx.n_nodes(), run.n_nodes());

        // The cached wildcard relation equals the per-tag union referee.
        let mut referee = NodePairSet::new();
        for t in 0..spec.n_tags() {
            referee = referee.union(idx.edges(Tag(t as u32)));
        }
        assert_eq!(idx.all_edges(), &referee);

        // "base" appears exactly once (one base-case firing).
        let base = spec.tag_by_name("base").unwrap();
        assert_eq!(idx.count(base), 1);

        // The rarest among {fwd, base} is base.
        let fwd = spec.tag_by_name("fwd").unwrap();
        assert_eq!(idx.rarest(&[fwd, base]), Some(base));
    }

    #[test]
    fn from_parts_round_trip_and_well_formedness() {
        let mut b = SpecificationBuilder::new();
        b.atomic("t");
        b.composite("S");
        b.production("S", |w| {
            let x = w.node("t");
            let s = w.node("S");
            let y = w.node("t");
            w.edge_named(x, s, "fwd");
            w.edge_named(s, y, "bwd");
        });
        b.production("S", |w| {
            let x = w.node("t");
            let y = w.node("t");
            w.edge_named(x, y, "base");
        });
        b.start("S");
        let spec = b.build().unwrap();
        let run = RunBuilder::new(&spec)
            .seed(9)
            .target_edges(60)
            .build()
            .unwrap();
        let idx = TagIndex::build(&run, spec.n_tags());
        let per_tag = (0..idx.n_tags())
            .map(|t| idx.edges(Tag(t as u32)).clone())
            .collect();
        let back = TagIndex::from_parts(per_tag, idx.all_edges().clone(), idx.n_nodes());
        assert_eq!(back, idx);
        assert!(back.is_well_formed(spec.n_tags()));
        assert!(!back.is_well_formed(spec.n_tags() + 1));
    }

    #[test]
    fn extend_merges_new_edges_and_reports_touched_tags() {
        let mut b = SpecificationBuilder::new();
        b.atomic("t");
        b.composite("S");
        b.production("S", |w| {
            let x = w.node("t");
            let s = w.node("S");
            let y = w.node("t");
            w.edge_named(x, s, "fwd");
            w.edge_named(s, y, "bwd");
        });
        b.production("S", |w| {
            let x = w.node("t");
            let y = w.node("t");
            w.edge_named(x, y, "base");
        });
        b.start("S");
        let spec = b.build().unwrap();
        let run = RunBuilder::new(&spec)
            .seed(4)
            .target_edges(40)
            .build()
            .unwrap();
        let mut idx = TagIndex::build(&run, spec.n_tags());
        let before = idx.clone();
        let fwd = spec.tag_by_name("fwd").unwrap();
        let base = spec.tag_by_name("base").unwrap();
        let n = run.n_nodes();

        // Two genuinely new edges (one to a brand-new node) plus a
        // duplicate of an existing pair.
        let existing = idx.edges(fwd).iter().next().unwrap();
        let new_edges = vec![
            (fwd, NodeId(0), NodeId(n as u32)),
            (base, NodeId(n as u32), NodeId(0)),
            (fwd, existing.0, existing.1),
        ];
        let touched = idx.extend(&new_edges, n + 1);
        assert_eq!(touched, vec![fwd, base]);
        assert_eq!(idx.n_nodes(), n + 1);
        assert_eq!(idx.edges(fwd).len(), before.edges(fwd).len() + 1);
        assert!(idx.edges(fwd).contains(NodeId(0), NodeId(n as u32)));
        assert!(idx.edges(base).contains(NodeId(n as u32), NodeId(0)));
        assert_eq!(idx.all_edges().len(), before.all_edges().len() + 2);
        assert!(idx.is_well_formed(spec.n_tags()));

        // The CSR mirror refreshed via extend() equals a full rebuild.
        let mut csr = crate::csr::CsrIndex::build(&before);
        csr.extend(&idx, &touched);
        assert_eq!(csr, crate::csr::CsrIndex::build(&idx));
        assert!(csr.is_well_formed(spec.n_tags()));

        // Re-applying only duplicates touches nothing and changes
        // nothing.
        let snapshot = idx.clone();
        assert!(idx.extend(&new_edges[2..], n + 1).is_empty());
        assert_eq!(idx, snapshot);
    }

    #[test]
    fn rarest_skips_absent_tags() {
        let mut b = SpecificationBuilder::new();
        b.atomic("t");
        b.composite("S");
        b.declare_tag("phantom");
        b.production("S", |w| {
            let x = w.node("t");
            let y = w.node("t");
            w.edge_named(x, y, "real");
        });
        b.start("S");
        let spec = b.build().unwrap();
        let run = RunBuilder::new(&spec).build().unwrap();
        let idx = TagIndex::build(&run, spec.n_tags());
        let phantom = spec.tag_by_name("phantom").unwrap();
        let real = spec.tag_by_name("real").unwrap();
        assert_eq!(idx.rarest(&[phantom]), None);
        assert_eq!(idx.rarest(&[phantom, real]), Some(real));
    }
}
