//! CSR adjacency arenas: flat, cache-friendly neighbor lists.
//!
//! A [`CsrRelation`] stores a node-pair relation as two flat arrays
//! (`offsets` + `targets`), forward and transposed — the arena layout
//! used by rustfst-style libraries for dense-id graphs. Built once per
//! `(run, tag)` and cached in the session (see [`CsrIndex`]), it feeds
//! the bit-parallel kernel of [`crate::bits`]: sparse neighbor
//! iteration on one side of a join, blocked bitset rows on the other.

use crate::bits::BitRelation;
use crate::index::TagIndex;
use crate::relation::{pack_u32s, unpack_u32s, NodePairSet};
use rpq_grammar::Tag;
use rpq_labeling::NodeId;
use serde::{Deserialize, Serialize};

/// A relation in compressed-sparse-row form, forward and transposed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrRelation {
    n_nodes: u32,
    /// `targets[offsets[u]..offsets[u+1]]`: successors of `u`, sorted.
    offsets: Vec<u32>,
    targets: Vec<u32>,
    /// Transpose: `rev_targets[rev_offsets[v]..rev_offsets[v+1]]` are
    /// the predecessors of `v`, sorted.
    rev_offsets: Vec<u32>,
    rev_targets: Vec<u32>,
}

impl CsrRelation {
    /// Build from a sorted, deduplicated pair set over `n_nodes` nodes.
    /// One counting pass per direction — no hashing, no re-sorting.
    pub fn from_pairs(pairs: &NodePairSet, n_nodes: usize) -> CsrRelation {
        CsrRelation::from_sorted(pairs.iter(), pairs.len(), n_nodes)
    }

    /// Build from blocked bitset rows (the bit and condensation
    /// kernels' output), without listing the pairs first.
    pub fn from_bits(bits: &BitRelation) -> CsrRelation {
        CsrRelation::from_sorted(bits.iter(), bits.len(), bits.n_nodes())
    }

    /// Build from `m` pairs arriving sorted and duplicate-free.
    fn from_sorted(
        pairs: impl Iterator<Item = (NodeId, NodeId)>,
        m: usize,
        n_nodes: usize,
    ) -> CsrRelation {
        let n = n_nodes as u32;

        // Forward: pairs are sorted by source, so targets is one copy.
        let mut offsets = vec![0u32; n_nodes + 1];
        let mut targets = Vec::with_capacity(m);
        for (u, v) in pairs {
            debug_assert!(u.0 < n && v.0 < n);
            offsets[u.index() + 1] += 1;
            targets.push(v.0);
        }
        for i in 0..n_nodes {
            offsets[i + 1] += offsets[i];
        }

        // Transpose: counting sort by target keeps each predecessor
        // list sorted (the forward rows are visited in source order).
        let mut rev_offsets = vec![0u32; n_nodes + 1];
        for &v in &targets {
            rev_offsets[v as usize + 1] += 1;
        }
        for i in 0..n_nodes {
            rev_offsets[i + 1] += rev_offsets[i];
        }
        let mut cursor = rev_offsets.clone();
        let mut rev_targets = vec![0u32; targets.len()];
        for u in 0..n_nodes {
            for &v in &targets[offsets[u] as usize..offsets[u + 1] as usize] {
                rev_targets[cursor[v as usize] as usize] = u as u32;
                cursor[v as usize] += 1;
            }
        }

        CsrRelation {
            n_nodes: n,
            offsets,
            targets,
            rev_offsets,
            rev_targets,
        }
    }

    /// Number of nodes in the universe.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.n_nodes as usize
    }

    /// Number of pairs.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.targets.len()
    }

    /// Is the relation empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Successors of `u` as raw dense ids, sorted.
    #[inline]
    pub fn neighbors_raw(&self, u: u32) -> &[u32] {
        &self.targets[self.offsets[u as usize] as usize..self.offsets[u as usize + 1] as usize]
    }

    /// Predecessors of `v` as raw dense ids, sorted.
    #[inline]
    pub fn predecessors_raw(&self, v: u32) -> &[u32] {
        &self.rev_targets
            [self.rev_offsets[v as usize] as usize..self.rev_offsets[v as usize + 1] as usize]
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.neighbors_raw(u.0).len()
    }

    /// Membership test (binary search in the successor list).
    pub fn contains(&self, u: NodeId, v: NodeId) -> bool {
        u.0 < self.n_nodes && self.neighbors_raw(u.0).binary_search(&v.0).is_ok()
    }

    /// Structural invariants hold: offset arrays are monotonic,
    /// cover exactly the target arrays, every id is in-universe, and
    /// each adjacency row is sorted and duplicate-free. `from_pairs`
    /// guarantees all of this; deserialized arenas (whose bytes bypass
    /// the constructor) must be checked before the kernels index into
    /// them. Linear in nodes + edges.
    pub fn is_well_formed(&self) -> bool {
        let n = self.n_nodes as usize;
        let dir_ok = |offsets: &[u32], targets: &[u32]| {
            offsets.len() == n + 1
                && offsets[0] == 0
                && *offsets.last().expect("n + 1 > 0") as usize == targets.len()
                && offsets.windows(2).all(|w| w[0] <= w[1])
                && targets.iter().all(|&t| t < self.n_nodes)
                && (0..n).all(|u| {
                    let row = &targets[offsets[u] as usize..offsets[u + 1] as usize];
                    row.windows(2).all(|w| w[0] < w[1])
                })
        };
        dir_ok(&self.offsets, &self.targets)
            && dir_ok(&self.rev_offsets, &self.rev_targets)
            && self.targets.len() == self.rev_targets.len()
    }

    /// Grow the universe to `n_nodes` without touching the pairs: the
    /// new trailing nodes have no edges, so both offset arrays extend
    /// by repeating their final cumulative count — exactly what
    /// [`CsrRelation::from_pairs`] would build for the same pair set
    /// over the larger universe, so incrementally grown arenas stay
    /// byte-identical to rebuilt ones.
    pub(crate) fn pad_to(&mut self, n_nodes: usize) {
        debug_assert!(n_nodes >= self.n_nodes());
        let last = *self.offsets.last().expect("offsets are never empty");
        self.offsets.resize(n_nodes + 1, last);
        let rev_last = *self.rev_offsets.last().expect("offsets are never empty");
        self.rev_offsets.resize(n_nodes + 1, rev_last);
        self.n_nodes = n_nodes as u32;
    }

    /// Materialize back into the boundary pair-set type (sorted by
    /// construction).
    pub fn to_pairs(&self) -> NodePairSet {
        let mut out = Vec::with_capacity(self.n_edges());
        for u in 0..self.n_nodes {
            for &v in self.neighbors_raw(u) {
                out.push((NodeId(u), NodeId(v)));
            }
        }
        NodePairSet::from_sorted_unique(out)
    }
}

// Persistence: the four index arrays are packed byte buffers, so a
// run store decodes an arena at memcpy speed instead of paying an
// enum construction per integer (which measured *slower* than
// rebuilding the arena from its run). Deserialized arenas bypass
// `from_pairs`, so loaders must gate on [`CsrRelation::is_well_formed`]
// before any kernel indexes into them.
impl Serialize for CsrRelation {
    fn to_value(&self) -> serde::Value {
        let arr = |v: &[u32]| pack_u32s(v.len(), v.iter().copied());
        serde::Value::Map(vec![
            (
                "n_nodes".to_owned(),
                serde::Value::UInt(self.n_nodes.into()),
            ),
            ("offsets".to_owned(), arr(&self.offsets)),
            ("targets".to_owned(), arr(&self.targets)),
            ("rev_offsets".to_owned(), arr(&self.rev_offsets)),
            ("rev_targets".to_owned(), arr(&self.rev_targets)),
        ])
    }
}

impl Deserialize for CsrRelation {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let field = |name: &str| {
            value
                .get_field(name)
                .ok_or_else(|| serde::DeError::missing("CsrRelation", name))
        };
        Ok(CsrRelation {
            n_nodes: u32::from_value(field("n_nodes")?)?,
            offsets: unpack_u32s(field("offsets")?)?,
            targets: unpack_u32s(field("targets")?)?,
            rev_offsets: unpack_u32s(field("rev_offsets")?)?,
            rev_targets: unpack_u32s(field("rev_targets")?)?,
        })
    }
}

/// The per-run CSR arena: one [`CsrRelation`] per edge tag plus the
/// wildcard relation, mirroring [`TagIndex`] in CSR form. Sessions
/// cache one per run beside the tag index so repeated composite
/// evaluations never rebuild adjacency (see `rpq-core`'s `Session`).
///
/// Serializable for the same reason as [`TagIndex`]: run stores
/// persist the arena beside the run so a restarted process evaluates
/// off warm adjacency instead of rebuilding it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsrIndex {
    n_nodes: usize,
    per_tag: Vec<CsrRelation>,
    all: CsrRelation,
}

impl CsrIndex {
    /// Build from a tag index (which already holds the sorted per-tag
    /// pair lists and the one-pass wildcard relation).
    pub fn build(index: &TagIndex) -> CsrIndex {
        let n_nodes = index.n_nodes();
        CsrIndex {
            n_nodes,
            per_tag: (0..index.n_tags())
                .map(|t| CsrRelation::from_pairs(index.edges(Tag(t as u32)), n_nodes))
                .collect(),
            all: CsrRelation::from_pairs(index.all_edges(), n_nodes),
        }
    }

    /// Refresh the arena after its [`TagIndex`] absorbed an append:
    /// `touched` tags (as reported by `TagIndex::extend`) are rebuilt
    /// from their merged pair lists — a counting pass over that tag's
    /// edges only — while untouched tags merely pad their offset arrays
    /// to the grown universe. The wildcard relation is rebuilt whenever
    /// anything changed. Equal to `CsrIndex::build(index)` by
    /// construction (both are pure functions of the pair sets).
    pub fn extend(&mut self, index: &TagIndex, touched: &[Tag]) {
        let n_nodes = index.n_nodes();
        if n_nodes != self.n_nodes {
            for rel in self.per_tag.iter_mut() {
                rel.pad_to(n_nodes);
            }
            self.all.pad_to(n_nodes);
            self.n_nodes = n_nodes;
        }
        for &t in touched {
            self.per_tag[t.index()] = CsrRelation::from_pairs(index.edges(t), n_nodes);
        }
        if !touched.is_empty() {
            self.all = CsrRelation::from_pairs(index.all_edges(), n_nodes);
        }
    }

    /// Number of nodes in the run.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// The CSR adjacency of one tag's edges.
    pub fn csr(&self, tag: Tag) -> &CsrRelation {
        &self.per_tag[tag.index()]
    }

    /// The CSR adjacency of all edges (the wildcard relation).
    pub fn all(&self) -> &CsrRelation {
        &self.all
    }

    /// Every contained relation is well-formed for a `n_tags`-tag
    /// alphabet over this universe (see [`CsrRelation::is_well_formed`]
    /// — the load-time guard for deserialized arenas).
    pub fn is_well_formed(&self, n_tags: usize) -> bool {
        self.per_tag.len() == n_tags
            && self
                .per_tag
                .iter()
                .chain(std::iter::once(&self.all))
                .all(|r| r.n_nodes() == self.n_nodes && r.is_well_formed())
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
    fn empty_relation() {
        let csr = CsrRelation::from_pairs(&NodePairSet::new(), 5);
        assert_eq!(csr.n_nodes(), 5);
        assert_eq!(csr.n_edges(), 0);
        assert!(csr.is_empty());
        assert!(csr.neighbors_raw(3).is_empty());
        assert!(csr.predecessors_raw(0).is_empty());
        assert!(csr.to_pairs().is_empty());
    }

    #[test]
    fn self_loops_round_trip() {
        let p = pairs(&[(0, 0), (2, 2), (2, 3)]);
        let csr = CsrRelation::from_pairs(&p, 4);
        assert_eq!(csr.neighbors_raw(2), &[2, 3]);
        assert_eq!(csr.predecessors_raw(2), &[2]);
        assert!(csr.contains(n(0), n(0)));
        assert!(!csr.contains(n(0), n(1)));
        assert_eq!(csr.to_pairs(), p);
    }

    #[test]
    fn multi_edges_collapse_via_pair_set_dedup() {
        // Runs can carry parallel same-tag edges; the pair-set boundary
        // dedups them, so CSR rows hold each target once.
        let p = pairs(&[(1, 2), (1, 2), (1, 0)]);
        let csr = CsrRelation::from_pairs(&p, 3);
        assert_eq!(csr.n_edges(), 2);
        assert_eq!(csr.neighbors_raw(1), &[0, 2]);
        assert_eq!(csr.predecessors_raw(2), &[1]);
    }

    #[test]
    fn serde_round_trip_and_well_formedness() {
        let p = pairs(&[(0, 3), (1, 3), (2, 0), (3, 1), (3, 2)]);
        let csr = CsrRelation::from_pairs(&p, 4);
        assert!(csr.is_well_formed());
        let back =
            <CsrRelation as serde::Deserialize>::from_value(&serde::Serialize::to_value(&csr))
                .unwrap();
        assert_eq!(back, csr);
        assert!(back.is_well_formed());

        // A tampered arena (out-of-universe target) is rejected by the
        // load-time guard instead of panicking inside a kernel.
        let mut bad = csr.clone();
        bad.targets[0] = 99;
        assert!(!bad.is_well_formed());
        let mut bad = csr.clone();
        bad.offsets[2] = 7;
        assert!(!bad.is_well_formed());
    }

    #[test]
    fn pad_to_matches_from_pairs_over_the_larger_universe() {
        let p = pairs(&[(0, 3), (3, 1), (2, 2)]);
        let mut padded = CsrRelation::from_pairs(&p, 4);
        padded.pad_to(9);
        assert_eq!(padded, CsrRelation::from_pairs(&p, 9));
        assert!(padded.is_well_formed());
        assert!(padded.neighbors_raw(8).is_empty());
        // Padding to the current size is a no-op.
        let mut same = CsrRelation::from_pairs(&p, 4);
        same.pad_to(4);
        assert_eq!(same, CsrRelation::from_pairs(&p, 4));
    }

    #[test]
    fn forward_and_transpose_agree() {
        let p = pairs(&[(0, 3), (1, 3), (2, 0), (3, 1), (3, 2)]);
        let csr = CsrRelation::from_pairs(&p, 4);
        for (u, v) in p.iter() {
            assert!(csr.neighbors_raw(u.0).contains(&v.0));
            assert!(csr.predecessors_raw(v.0).contains(&u.0));
        }
        assert_eq!(csr.out_degree(n(3)), 2);
        assert_eq!(csr.to_pairs(), p);
    }
}
