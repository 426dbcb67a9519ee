//! Node-pair sets and relations with symbolic identity.

use crate::bits::BitRelation;
use crate::csr::CsrRelation;
use rpq_labeling::NodeId;
use std::borrow::Cow;

/// A sorted, deduplicated set of `(source, target)` node pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodePairSet {
    pairs: Vec<(NodeId, NodeId)>,
}

impl NodePairSet {
    /// Empty set.
    pub fn new() -> NodePairSet {
        NodePairSet::default()
    }

    /// Build from arbitrary pairs (sorts and dedups).
    pub fn from_pairs(mut pairs: Vec<(NodeId, NodeId)>) -> NodePairSet {
        pairs.sort_unstable();
        pairs.dedup();
        NodePairSet { pairs }
    }

    /// Build from pairs already sorted and deduplicated (checked in
    /// debug builds) — the no-cost boundary for kernel outputs that are
    /// sorted by construction (bitset row scans, CSR traversals).
    pub fn from_sorted_unique(pairs: Vec<(NodeId, NodeId)>) -> NodePairSet {
        debug_assert!(pairs.windows(2).all(|w| w[0] < w[1]));
        NodePairSet { pairs }
    }

    /// Convert to a blocked-bitset relation over `n_nodes` nodes.
    pub fn to_bits(&self, n_nodes: usize) -> BitRelation {
        BitRelation::from_pairs(self, n_nodes)
    }

    /// Materialize a blocked-bitset relation (sorted by construction).
    pub fn from_bits(bits: &BitRelation) -> NodePairSet {
        bits.to_pairs()
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Membership test (binary search).
    pub fn contains(&self, u: NodeId, v: NodeId) -> bool {
        self.pairs.binary_search(&(u, v)).is_ok()
    }

    /// Iterate pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.pairs.iter().copied()
    }

    /// Raw slice access.
    pub fn as_slice(&self) -> &[(NodeId, NodeId)] {
        &self.pairs
    }

    /// Set union.
    pub fn union(&self, other: &NodePairSet) -> NodePairSet {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        while i < self.pairs.len() && j < other.pairs.len() {
            match self.pairs[i].cmp(&other.pairs[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.pairs[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.pairs[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.pairs[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.pairs[i..]);
        out.extend_from_slice(&other.pairs[j..]);
        NodePairSet { pairs: out }
    }

    /// Restrict to pairs whose source is in `sources`.
    ///
    /// Pairs are already sorted by source, so this is a two-pointer
    /// merge — no per-call hash set (sorts a local copy of `sources`
    /// only when the caller passes it unsorted).
    pub fn filter_sources(&self, sources: &[NodeId]) -> NodePairSet {
        let mut out = Vec::new();
        with_sorted(sources, |sorted| {
            self.retain_sources_into(sorted, &mut out);
        });
        NodePairSet { pairs: out }
    }

    /// Restrict to pairs whose target is in `targets` (binary search
    /// per pair against the sorted target list — pairs are not sorted
    /// by target, so no merge is possible).
    pub fn filter_targets(&self, targets: &[NodeId]) -> NodePairSet {
        let mut out = Vec::new();
        with_sorted(targets, |sorted| {
            self.retain_targets_into(sorted, &mut out);
        });
        NodePairSet { pairs: out }
    }

    /// No-allocation variant of [`NodePairSet::filter_sources`] for hot
    /// loops: appends the matching pairs (still sorted) to `out`.
    /// `sources` must be sorted (checked in debug builds).
    pub fn retain_sources_into(&self, sources: &[NodeId], out: &mut Vec<(NodeId, NodeId)>) {
        debug_assert!(sources.windows(2).all(|w| w[0] <= w[1]));
        let mut k = 0;
        for &(u, v) in &self.pairs {
            while k < sources.len() && sources[k] < u {
                k += 1;
            }
            if k == sources.len() {
                break;
            }
            if sources[k] == u {
                out.push((u, v));
            }
        }
    }

    /// No-allocation variant of [`NodePairSet::filter_targets`]:
    /// appends the matching pairs (still sorted) to `out`. `targets`
    /// must be sorted (checked in debug builds).
    pub fn retain_targets_into(&self, targets: &[NodeId], out: &mut Vec<(NodeId, NodeId)>) {
        debug_assert!(targets.windows(2).all(|w| w[0] <= w[1]));
        out.extend(
            self.pairs
                .iter()
                .copied()
                .filter(|(_, v)| targets.binary_search(v).is_ok()),
        );
    }
}

/// Run `f` with a sorted view of `nodes`, copying only when the caller
/// passed them unsorted.
fn with_sorted(nodes: &[NodeId], f: impl FnOnce(&[NodeId])) {
    if nodes.is_sorted() {
        f(nodes);
    } else {
        let mut sorted = nodes.to_vec();
        sorted.sort_unstable();
        f(&sorted);
    }
}

impl FromIterator<(NodeId, NodeId)> for NodePairSet {
    fn from_iter<T: IntoIterator<Item = (NodeId, NodeId)>>(iter: T) -> Self {
        NodePairSet::from_pairs(iter.into_iter().collect())
    }
}

/// Pack dense `u32` data into the data model's byte buffer
/// (little-endian) — an element-wise `Value::Seq` costs an enum
/// construction per number on both ends, which makes decoding a
/// persisted index *slower* than rebuilding it; the packed form
/// decodes at memcpy speed. Shared with the CSR arena's impls.
pub(crate) fn pack_u32s(n_values: usize, values: impl Iterator<Item = u32>) -> serde::Value {
    let mut bytes = Vec::with_capacity(n_values * 4);
    for v in values {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    serde::Value::Bytes(bytes)
}

/// Inverse of [`pack_u32s`]. Strictly requires the packed byte shape:
/// accepting an element-wise sequence here would silently mis-decode a
/// JSON round-trip of the packed form (JSON renders `Bytes` as an
/// array of *byte* values, so an element-wise reading would yield one
/// u32 per byte — four times too many, all wrong). Packed index types
/// round-trip through the binary codec only; JSON is one-way display.
pub(crate) fn unpack_u32s(value: &serde::Value) -> Result<Vec<u32>, serde::DeError> {
    match value {
        serde::Value::Bytes(bytes) => {
            if bytes.len() % 4 != 0 {
                return Err(serde::DeError::custom(
                    "packed u32 buffer length is not a multiple of 4",
                ));
            }
            Ok(bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect())
        }
        other => Err(serde::DeError::expected("packed byte buffer", other)),
    }
}

// Persistence (run-store index files): a pair set serializes as its
// pair list packed `u, v, u, v, …`; deserialization goes through
// `from_pairs`, so a tampered or hand-written file can never violate
// the sorted/deduplicated invariant the kernels rely on.
impl serde::Serialize for NodePairSet {
    fn to_value(&self) -> serde::Value {
        pack_u32s(
            self.pairs.len() * 2,
            self.pairs.iter().flat_map(|&(u, v)| [u.0, v.0]),
        )
    }
}

impl serde::Deserialize for NodePairSet {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let flat = unpack_u32s(value)?;
        if flat.len() % 2 != 0 {
            return Err(serde::DeError::custom(
                "pair buffer holds an odd number of node ids",
            ));
        }
        Ok(NodePairSet::from_pairs(
            flat.chunks_exact(2)
                .map(|c| (NodeId(c[0]), NodeId(c[1])))
                .collect(),
        ))
    }
}

/// The explicit pairs of a [`Relation`], in the format of the kernel
/// that produced them: the pair kernel's sorted list, or the bit and
/// condensation kernels' blocked rows. Operators accept either format
/// (see [`crate::join`]); pairs are listed only when a final selection
/// asks for them. Equality compares contents, not format.
#[derive(Debug, Clone)]
pub enum Pairs {
    /// A sorted, deduplicated pair list.
    Sorted(NodePairSet),
    /// Blocked bitset rows over the run's universe.
    Bits(BitRelation),
}

impl Default for Pairs {
    fn default() -> Pairs {
        Pairs::Sorted(NodePairSet::new())
    }
}

impl Pairs {
    /// Number of pairs (a popcount for bit rows).
    pub fn len(&self) -> usize {
        match self {
            Pairs::Sorted(s) => s.len(),
            Pairs::Bits(b) => b.len(),
        }
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        match self {
            Pairs::Sorted(s) => s.is_empty(),
            Pairs::Bits(b) => b.is_empty(),
        }
    }

    /// Membership test.
    pub fn contains(&self, u: NodeId, v: NodeId) -> bool {
        match self {
            Pairs::Sorted(s) => s.contains(u, v),
            Pairs::Bits(b) => b.contains(u, v),
        }
    }

    /// Iterate the pairs in sorted order, whatever the format.
    pub fn iter(&self) -> Box<dyn Iterator<Item = (NodeId, NodeId)> + '_> {
        match self {
            Pairs::Sorted(s) => Box::new(s.iter()),
            Pairs::Bits(b) => Box::new(b.iter()),
        }
    }

    /// The pairs as a sorted list (bit rows are listed here).
    pub fn into_sorted(self) -> NodePairSet {
        match self {
            Pairs::Sorted(s) => s,
            Pairs::Bits(b) => b.to_pairs(),
        }
    }

    /// The pairs as a sorted list, borrowed when they already are.
    pub fn to_sorted(&self) -> Cow<'_, NodePairSet> {
        match self {
            Pairs::Sorted(s) => Cow::Borrowed(s),
            Pairs::Bits(b) => Cow::Owned(b.to_pairs()),
        }
    }

    /// The pairs as a CSR adjacency over `n_nodes` nodes.
    pub fn to_csr(&self, n_nodes: usize) -> CsrRelation {
        match self {
            Pairs::Sorted(s) => CsrRelation::from_pairs(s, n_nodes),
            Pairs::Bits(b) => {
                debug_assert_eq!(b.n_nodes(), n_nodes);
                CsrRelation::from_bits(b)
            }
        }
    }

    /// The pairs as blocked rows over `n_nodes` nodes, borrowed when
    /// they already are.
    pub fn to_bits(&self, n_nodes: usize) -> Cow<'_, BitRelation> {
        match self {
            Pairs::Sorted(s) => Cow::Owned(BitRelation::from_pairs(s, n_nodes)),
            Pairs::Bits(b) => {
                debug_assert_eq!(b.n_nodes(), n_nodes);
                Cow::Borrowed(b)
            }
        }
    }

    /// Set union. Two lists merge; when either side is bit rows the
    /// result is bit rows (`self`'s rows are reused in place).
    pub fn union(self, other: &Pairs) -> Pairs {
        match (self, other) {
            (Pairs::Sorted(a), Pairs::Sorted(b)) => Pairs::Sorted(a.union(b)),
            (Pairs::Bits(mut a), Pairs::Bits(b)) => {
                a.union_in_place(b);
                Pairs::Bits(a)
            }
            (Pairs::Bits(mut a), Pairs::Sorted(b)) => {
                a.set_all(b);
                Pairs::Bits(a)
            }
            (Pairs::Sorted(a), Pairs::Bits(b)) => {
                let mut b = b.clone();
                b.set_all(&a);
                Pairs::Bits(b)
            }
        }
    }

    /// The pairs without their reflexive `(u, u)`, in the same format:
    /// a list is filtered, bit rows clear one word per row.
    pub fn without_diagonal(self) -> Pairs {
        match self {
            Pairs::Sorted(s) => Pairs::Sorted(NodePairSet {
                pairs: s.pairs.into_iter().filter(|(u, v)| u != v).collect(),
            }),
            Pairs::Bits(mut b) => {
                b.clear_diagonal();
                Pairs::Bits(b)
            }
        }
    }

    /// Restrict to `l1 × l2` (lists may arrive unsorted and with
    /// duplicates). A list takes the pair-kernel merge
    /// ([`crate::join::select_pairs_kernel`]); bit rows AND a target
    /// mask into each selected row ([`BitRelation::select_pairs`]).
    pub fn select(&self, l1: &[NodeId], l2: &[NodeId]) -> NodePairSet {
        match self {
            Pairs::Sorted(s) => crate::join::select_pairs_kernel(s, l1, l2),
            Pairs::Bits(b) => b.select_pairs(l1, l2),
        }
    }

    /// [`Pairs::select`] over an `n_nodes` universe: a list dispatches
    /// on density ([`crate::join::select_pairs_in`]); bit rows are
    /// already in the dense kernel's shape and are selected directly.
    pub fn select_in(&self, l1: &[NodeId], l2: &[NodeId], n_nodes: usize) -> NodePairSet {
        match self {
            Pairs::Sorted(s) => crate::join::select_pairs_in(s, l1, l2, n_nodes),
            Pairs::Bits(b) => b.select_pairs(l1, l2),
        }
    }
}

impl PartialEq for Pairs {
    fn eq(&self, other: &Pairs) -> bool {
        match (self, other) {
            (Pairs::Sorted(a), Pairs::Sorted(b)) => a == b,
            (Pairs::Bits(a), Pairs::Bits(b)) if a.n_nodes() == b.n_nodes() => a == b,
            _ => self.iter().eq(other.iter()),
        }
    }
}

impl Eq for Pairs {}

/// A relation: explicit pairs plus a symbolic "identity on all nodes"
/// component. `ε` and `e*` contribute the identity; keeping it symbolic
/// avoids materializing `|V|` reflexive pairs in every star.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Relation {
    /// Explicit (non-reflexive-by-construction) pairs.
    pub pairs: Pairs,
    /// Whether the identity relation is included.
    pub identity: bool,
}

impl Relation {
    /// The empty relation (∅).
    pub fn empty() -> Relation {
        Relation::default()
    }

    /// The identity relation (ε).
    pub fn epsilon() -> Relation {
        Relation {
            pairs: Pairs::default(),
            identity: true,
        }
    }

    /// From explicit pairs.
    pub fn from_pairs(pairs: NodePairSet) -> Relation {
        Relation {
            pairs: Pairs::Sorted(pairs),
            identity: false,
        }
    }

    /// Union of relations (bit rows when either side is bit rows).
    pub fn union(self, other: &Relation) -> Relation {
        Relation {
            pairs: self.pairs.union(&other.pairs),
            identity: self.identity || other.identity,
        }
    }

    /// Does the relation relate `u` to `v`?
    pub fn contains(&self, u: NodeId, v: NodeId) -> bool {
        (self.identity && u == v) || self.pairs.contains(u, v)
    }

    /// The relation restricted to `l1 × l2` (lists may arrive unsorted
    /// and with duplicates): [`Pairs::select`], with the symbolic
    /// identity contributing `(u, u)` for every `u ∈ l1 ∩ l2` — the
    /// shared finale of every all-pairs evaluator over a composite
    /// relation. [`Relation::select_pairs_in`] is the kernel-dispatched
    /// variant for callers that know the universe size.
    pub fn select_pairs(&self, l1: &[NodeId], l2: &[NodeId]) -> NodePairSet {
        self.graft_identity(self.pairs.select(l1, l2), l1, l2)
    }

    /// Kernel-dispatched [`Relation::select_pairs`] over an `n_nodes`
    /// universe ([`Pairs::select_in`]): bit rows and dense lists AND a
    /// blocked target mask into each selected source row, sparse lists
    /// take the sorted merge. The symbolic identity contributes
    /// `(u, u)` for every `u ∈ l1 ∩ l2` either way.
    pub fn select_pairs_in(&self, l1: &[NodeId], l2: &[NodeId], n_nodes: usize) -> NodePairSet {
        self.graft_identity(self.pairs.select_in(l1, l2, n_nodes), l1, l2)
    }

    /// Add the symbolic identity's `(u, u)` for every `u ∈ l1 ∩ l2` to
    /// an already-selected pair set (no-op for identity-free
    /// relations). The identity pairs come out of the sorted
    /// intersection already ordered, so this is a linear merge with
    /// `selected` — never a re-sort of the (possibly large) selection.
    fn graft_identity(&self, selected: NodePairSet, l1: &[NodeId], l2: &[NodeId]) -> NodePairSet {
        if !self.identity {
            return selected;
        }
        let mut l1s = l1.to_vec();
        l1s.sort_unstable();
        l1s.dedup();
        let mut l2s = l2.to_vec();
        l2s.sort_unstable();
        l2s.dedup();
        let id_pairs: Vec<(NodeId, NodeId)> = l1s
            .iter()
            .filter(|u| l2s.binary_search(u).is_ok())
            .map(|&u| (u, u))
            .collect();
        selected.union(&NodePairSet::from_sorted_unique(id_pairs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn from_pairs_sorts_and_dedups() {
        let s = NodePairSet::from_pairs(vec![(n(2), n(1)), (n(0), n(5)), (n(2), n(1))]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.as_slice(), &[(n(0), n(5)), (n(2), n(1))]);
        assert!(s.contains(n(2), n(1)));
        assert!(!s.contains(n(1), n(2)));
    }

    #[test]
    fn union_merges() {
        let a = NodePairSet::from_pairs(vec![(n(0), n(1)), (n(2), n(3))]);
        let b = NodePairSet::from_pairs(vec![(n(0), n(1)), (n(4), n(5))]);
        let u = a.union(&b);
        assert_eq!(u.len(), 3);
        assert!(u.contains(n(4), n(5)));
    }

    #[test]
    fn filters() {
        let s = NodePairSet::from_pairs(vec![(n(0), n(1)), (n(2), n(3)), (n(0), n(3))]);
        assert_eq!(s.filter_sources(&[n(0)]).len(), 2);
        assert_eq!(s.filter_targets(&[n(3)]).len(), 2);
        assert_eq!(s.filter_sources(&[]).len(), 0);
        // Unsorted and duplicated inputs behave like sets.
        assert_eq!(s.filter_sources(&[n(2), n(0), n(2)]).len(), 3);
        assert_eq!(s.filter_targets(&[n(3), n(1), n(3)]).len(), 3);
    }

    #[test]
    fn retain_into_appends_sorted_matches() {
        let s = NodePairSet::from_pairs(vec![(n(0), n(1)), (n(2), n(3)), (n(5), n(0))]);
        let mut out = Vec::new();
        s.retain_sources_into(&[n(0), n(5)], &mut out);
        assert_eq!(out, vec![(n(0), n(1)), (n(5), n(0))]);
        out.clear();
        s.retain_targets_into(&[n(0), n(3)], &mut out);
        assert_eq!(out, vec![(n(2), n(3)), (n(5), n(0))]);
    }

    #[test]
    fn select_pairs_restricts_and_adds_identity() {
        let list = NodePairSet::from_pairs(vec![(n(0), n(1)), (n(2), n(3)), (n(5), n(0))]);
        for pairs in [Pairs::Bits(list.to_bits(6)), Pairs::Sorted(list)] {
            let r = Relation {
                pairs,
                identity: true,
            };
            // Unsorted, duplicated lists; (2,2) comes from the identity,
            // (2,3) from the pairs — self-loop dedup is the boundary's job.
            let s = r.select_pairs(&[n(2), n(0), n(2)], &[n(3), n(1), n(2)]);
            assert_eq!(s.as_slice(), &[(n(0), n(1)), (n(2), n(2)), (n(2), n(3))]);
            assert_eq!(
                r.select_pairs_in(&[n(2), n(0), n(2)], &[n(3), n(1), n(2)], 6),
                s
            );
            let no_id = Relation {
                pairs: r.pairs.clone(),
                identity: false,
            };
            assert_eq!(no_id.select_pairs(&[n(2)], &[n(2), n(3)]).len(), 1);
        }
    }

    #[test]
    fn bits_round_trip() {
        let s = NodePairSet::from_pairs(vec![(n(0), n(70)), (n(3), n(2))]);
        assert_eq!(NodePairSet::from_bits(&s.to_bits(71)), s);
        let bits = Pairs::Bits(s.to_bits(71));
        assert_eq!(bits, Pairs::Sorted(s.clone()));
        assert_eq!(bits.into_sorted(), s);
    }

    #[test]
    fn without_diagonal_keeps_the_format() {
        let s = NodePairSet::from_pairs(vec![(n(0), n(0)), (n(0), n(70)), (n(70), n(70))]);
        let off = NodePairSet::from_pairs(vec![(n(0), n(70))]);
        let bits = Pairs::Bits(s.to_bits(71)).without_diagonal();
        assert!(matches!(bits, Pairs::Bits(_)));
        assert_eq!(bits.into_sorted(), off);
        let list = Pairs::Sorted(s).without_diagonal();
        assert!(matches!(list, Pairs::Sorted(_)));
        assert_eq!(list.into_sorted(), off);
    }

    #[test]
    fn relation_identity_semantics() {
        let r = Relation::epsilon();
        assert!(r.contains(n(7), n(7)));
        assert!(!r.contains(n(7), n(8)));
        let m = r.select_pairs(&[n(1), n(2)], &[n(1), n(2)]);
        assert_eq!(m.as_slice(), &[(n(1), n(1)), (n(2), n(2))]);
    }

    #[test]
    fn relation_union_keeps_identity() {
        let a = Relation::from_pairs(NodePairSet::from_pairs(vec![(n(0), n(1))]));
        let b = Relation::epsilon();
        let u = a.union(&b);
        assert!(u.identity);
        assert!(u.contains(n(0), n(1)));
        assert!(u.contains(n(9), n(9)));
    }
}
