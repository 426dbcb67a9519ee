//! Provenance runs: edge-tagged DAGs produced by derivation.
//!
//! A run contains only atomic module executions (all composites have been
//! replaced). Node replacement with unique-source/unique-sink bodies
//! guarantees that every run is itself a DAG with a unique entry node and
//! a unique exit node, and — crucially for the labeling approach — that
//! the sub-run derived from any module execution has a unique entry and
//! exit too, so every path crossing its boundary passes through them.

use crate::label::Label;
use rpq_grammar::{ModuleId, Tag};
use serde::{Deserialize, Serialize};

/// Dense run-node id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One atomic module execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunNode {
    /// The atomic module executed.
    pub module: ModuleId,
    /// 1-based occurrence number among executions of the same module
    /// (creation order) — the paper's `a:1`, `a:2`, … notation.
    pub occurrence: u32,
    /// Derivation-based reachability label `ψV`.
    pub label: Label,
}

/// One tagged data edge of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunEdge {
    /// Producer execution.
    pub src: NodeId,
    /// Consumer execution.
    pub dst: NodeId,
    /// Data name, inherited from the production body that introduced the
    /// edge (tags survive node replacement unchanged).
    pub tag: Tag,
}

/// One batch of appended provenance events for a run open in streaming
/// mode: `nodes` are appended densely after the run's existing nodes
/// (the first one receives the next free [`NodeId`]), `edges` may
/// connect any mix of old and new nodes. Applied via
/// [`Run::apply_events`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventBatch {
    /// Newly executed atomic modules, in id order.
    pub nodes: Vec<RunNode>,
    /// Newly observed data edges.
    pub edges: Vec<RunEdge>,
}

impl EventBatch {
    /// Does the batch carry no events at all?
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.edges.is_empty()
    }
}

/// A fully derived, labeled run.
///
/// Besides nodes and edges a run carries lazily filled caches of
/// values derived from them — fingerprint, acyclicity, distinct-edge
/// count and document rank — none of which is persisted or compared.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Run {
    nodes: Vec<RunNode>,
    edges: Vec<RunEdge>,
    /// Outgoing adjacency: `(target, tag)` per node.
    out: Vec<Vec<(NodeId, Tag)>>,
    /// Incoming adjacency: `(source, tag)` per node.
    inc: Vec<Vec<(NodeId, Tag)>>,
    entry: NodeId,
    exit: NodeId,
    /// Lazily computed structural fingerprint (see [`Run::fingerprint`]).
    #[serde(skip)]
    fingerprint: std::sync::OnceLock<(u64, u64)>,
    /// Lazily computed acyclicity verdict (see [`Run::is_acyclic`]).
    /// Derived runs are always DAGs, but streamed event batches can
    /// close cycles, and label-based query plans must know.
    #[serde(skip)]
    acyclic: std::sync::OnceLock<bool>,
    /// Lazily computed distinct-edge count (see
    /// [`Run::n_distinct_edges`]).
    #[serde(skip)]
    distinct_edges: std::sync::OnceLock<usize>,
    /// Lazily computed document rank of every node (see
    /// [`Run::document_rank`]): 4 bytes per node, filled by the first
    /// caller that orders nodes by label, never at derive or load.
    #[serde(skip)]
    doc_rank: std::sync::OnceLock<Vec<u32>>,
}

/// Structural equality: two runs are equal iff their event histories
/// (nodes and edges, in order) are — the adjacency lists, entry/exit
/// and fingerprint are all derived from those, and the lazily-filled
/// fingerprint cell must not make a decoded copy compare unequal to
/// its original.
impl PartialEq for Run {
    fn eq(&self, other: &Run) -> bool {
        self.nodes == other.nodes && self.edges == other.edges
    }
}

impl Eq for Run {}

impl Run {
    /// Assemble a run from nodes and edges (crate-internal; use
    /// [`crate::RunBuilder`]).
    pub(crate) fn from_parts(nodes: Vec<RunNode>, edges: Vec<RunEdge>) -> Run {
        let n = nodes.len();
        let mut out: Vec<Vec<(NodeId, Tag)>> = vec![Vec::new(); n];
        let mut inc: Vec<Vec<(NodeId, Tag)>> = vec![Vec::new(); n];
        for e in &edges {
            out[e.src.index()].push((e.dst, e.tag));
            inc[e.dst.index()].push((e.src, e.tag));
        }
        let entry = NodeId(
            inc.iter()
                .position(|v| v.is_empty())
                .expect("run has a unique entry") as u32,
        );
        let exit = NodeId(
            out.iter()
                .rposition(|v| v.is_empty())
                .expect("run has a unique exit") as u32,
        );
        debug_assert_eq!(inc.iter().filter(|v| v.is_empty()).count(), 1);
        debug_assert_eq!(out.iter().filter(|v| v.is_empty()).count(), 1);
        Run {
            nodes,
            edges,
            out,
            inc,
            entry,
            exit,
            fingerprint: std::sync::OnceLock::new(),
            acyclic: std::sync::OnceLock::new(),
            distinct_edges: std::sync::OnceLock::new(),
            doc_rank: std::sync::OnceLock::new(),
        }
    }

    /// Assemble a run from explicit nodes and edges under *relaxed*
    /// entry/exit rules: the entry is the first node without incoming
    /// edges and the exit the last node without outgoing ones, with no
    /// uniqueness requirement. Derivation ([`crate::RunBuilder`])
    /// guarantees a unique source and sink, but the id-prefix states a
    /// *streaming* run passes through between event batches generally
    /// have several of each — they are valid provenance graphs whose
    /// derivation simply has not finished. Errors when `nodes` is
    /// empty, an edge endpoint is out of range, or no source/sink
    /// exists (the graph would be entered by a cycle).
    pub fn assemble(nodes: Vec<RunNode>, edges: Vec<RunEdge>) -> Result<Run, String> {
        if nodes.is_empty() {
            return Err("a run needs at least one node".to_owned());
        }
        let n = nodes.len();
        let mut out: Vec<Vec<(NodeId, Tag)>> = vec![Vec::new(); n];
        let mut inc: Vec<Vec<(NodeId, Tag)>> = vec![Vec::new(); n];
        for e in &edges {
            if e.src.index() >= n || e.dst.index() >= n {
                return Err(format!(
                    "edge {} -> {} references a node outside the {n}-node run",
                    e.src.0, e.dst.0
                ));
            }
            out[e.src.index()].push((e.dst, e.tag));
            inc[e.dst.index()].push((e.src, e.tag));
        }
        let entry = inc
            .iter()
            .position(|v| v.is_empty())
            .map(|i| NodeId(i as u32))
            .ok_or("run has no source node (every node has an incoming edge)")?;
        let exit = out
            .iter()
            .rposition(|v| v.is_empty())
            .map(|i| NodeId(i as u32))
            .ok_or("run has no sink node (every node has an outgoing edge)")?;
        Ok(Run {
            nodes,
            edges,
            out,
            inc,
            entry,
            exit,
            fingerprint: std::sync::OnceLock::new(),
            acyclic: std::sync::OnceLock::new(),
            distinct_edges: std::sync::OnceLock::new(),
            doc_rank: std::sync::OnceLock::new(),
        })
    }

    /// The event history the run was assembled from — the inverse of
    /// [`Run::assemble`], for callers that grow a run by many batches
    /// and re-assemble once.
    pub fn into_parts(self) -> (Vec<RunNode>, Vec<RunEdge>) {
        (self.nodes, self.edges)
    }

    /// The run grown by one [`EventBatch`]: batch nodes take the next
    /// free ids in order, batch edges land after the existing ones.
    /// The result is re-assembled from scratch (adjacency, entry/exit,
    /// fingerprint), so it is indistinguishable from a run whose full
    /// node/edge lists arrived at once in the same order.
    pub fn apply_events(&self, batch: &EventBatch) -> Result<Run, String> {
        let mut nodes = self.nodes.clone();
        nodes.extend(batch.nodes.iter().cloned());
        let mut edges = self.edges.clone();
        edges.extend(batch.edges.iter().copied());
        Run::assemble(nodes, edges)
    }

    /// A 128-bit structural fingerprint over size, entry/exit and every
    /// edge, computed once and cached. Re-deserialized copies of the
    /// same run produce the same fingerprint, so it serves as a cheap
    /// run identity for caches (e.g. the session's per-run tag index).
    pub fn fingerprint(&self) -> (u64, u64) {
        *self.fingerprint.get_or_init(|| {
            fn mix(h: &mut u64, v: u64) {
                *h ^= v;
                *h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            let mut a: u64 = 0xcbf2_9ce4_8422_2325;
            let mut b: u64 = 0x6c62_272e_07bb_0142;
            for h in [&mut a, &mut b] {
                mix(h, self.nodes.len() as u64);
                mix(h, self.edges.len() as u64);
                mix(h, u64::from(self.entry.0));
                mix(h, u64::from(self.exit.0));
            }
            for e in &self.edges {
                mix(&mut a, (u64::from(e.src.0) << 32) | u64::from(e.dst.0));
                mix(
                    &mut b,
                    (u64::from(e.tag.0) << 32) | u64::from(e.src.0 ^ e.dst.0),
                );
            }
            (a, b)
        })
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges — the paper's run-size parameter.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Distinct `(src, tag, dst)` triples, computed once and cached —
    /// the edge count of the deduplicated adjacency arenas (per-tag
    /// CSR lists and their transposes) built over this run.
    /// [`Run::n_edges`] counts raw events; histories that re-append an
    /// existing edge (live streams routinely do) inflate it, while the
    /// arenas a product search walks hold each triple exactly once.
    pub fn n_distinct_edges(&self) -> usize {
        *self.distinct_edges.get_or_init(|| {
            let mut triples: Vec<(u32, u32, u32)> = self
                .edges
                .iter()
                .map(|e| (e.src.0, e.tag.0, e.dst.0))
                .collect();
            triples.sort_unstable();
            triples.dedup();
            triples.len()
        })
    }

    /// Node metadata.
    #[inline]
    pub fn node(&self, id: NodeId) -> &RunNode {
        &self.nodes[id.index()]
    }

    /// Node label `ψV(v)`.
    #[inline]
    pub fn label(&self, id: NodeId) -> &Label {
        &self.nodes[id.index()].label
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// All nodes with ids.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &RunNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// All edges.
    pub fn edges(&self) -> &[RunEdge] {
        &self.edges
    }

    /// Outgoing `(target, tag)` pairs of `node`.
    #[inline]
    pub fn out_edges(&self, node: NodeId) -> &[(NodeId, Tag)] {
        &self.out[node.index()]
    }

    /// Incoming `(source, tag)` pairs of `node`.
    #[inline]
    pub fn in_edges(&self, node: NodeId) -> &[(NodeId, Tag)] {
        &self.inc[node.index()]
    }

    /// The run's unique entry (source) node.
    pub fn entry(&self) -> NodeId {
        self.entry
    }

    /// The run's unique exit (sink) node.
    pub fn exit(&self) -> NodeId {
        self.exit
    }

    /// Look up a node by the paper's `name:occurrence` notation, e.g.
    /// `"a:2"`. Requires the specification for name resolution.
    pub fn node_by_name(&self, spec: &rpq_grammar::Specification, name: &str) -> Option<NodeId> {
        let (module, occ) = name.rsplit_once(':')?;
        let occ: u32 = occ.parse().ok()?;
        let module = spec.module_by_name(module)?;
        self.nodes
            .iter()
            .position(|n| n.module == module && n.occurrence == occ)
            .map(|i| NodeId(i as u32))
    }

    /// Human-readable node name.
    pub fn node_name(&self, spec: &rpq_grammar::Specification, id: NodeId) -> String {
        let n = self.node(id);
        format!("{}:{}", spec.module_name(n.module), n.occurrence)
    }

    /// Nodes executing `module`, in occurrence order.
    pub fn nodes_of_module(&self, module: ModuleId) -> Vec<NodeId> {
        self.nodes()
            .filter(|(_, n)| n.module == module)
            .map(|(id, _)| id)
            .collect()
    }

    /// Node ids sorted by label (document order) — the input order
    /// Algorithm 2 expects.
    pub fn nodes_in_document_order(&self) -> Vec<NodeId> {
        let mut ids = vec![NodeId(0); self.n_nodes()];
        for (id, &rank) in self.node_ids().zip(self.document_rank()) {
            ids[rank as usize] = id;
        }
        ids
    }

    /// Every node's position in document (label) order, indexed by
    /// node id. Sorted once on first use and cached, so orderings of
    /// node lists ([`crate::ListTree::build`]) sort integers instead
    /// of comparing labels. The ranks are a permutation of `0..n`;
    /// nodes with equal labels (only hand-assembled runs have them)
    /// keep id order.
    pub fn document_rank(&self) -> &[u32] {
        self.doc_rank.get_or_init(|| {
            let mut ids: Vec<NodeId> = self.node_ids().collect();
            ids.sort_by(|a, b| self.label(*a).cmp(self.label(*b)));
            let mut rank = vec![0u32; ids.len()];
            for (pos, id) in ids.iter().enumerate() {
                rank[id.index()] = pos as u32;
            }
            rank
        })
    }

    /// Check that this run is consistent with `spec`: every label entry
    /// references an existing production/body position or cycle, every
    /// node's module matches the position its label points at, and all
    /// modules are atomic.
    ///
    /// Query plans decode labels against the specification without
    /// further checks; pairing a run with the wrong specification would
    /// otherwise fail deep inside the decoder. Call this after loading a
    /// persisted run.
    pub fn validate_against(&self, spec: &rpq_grammar::Specification) -> Result<(), String> {
        let rec = spec.recursion();
        for (id, node) in self.nodes() {
            if node.module.index() >= spec.n_modules() {
                return Err(format!(
                    "node {id:?}: module id {} out of range",
                    node.module.0
                ));
            }
            if spec.is_composite(node.module) {
                return Err(format!("node {id:?} executes a composite module"));
            }
            let entries = node.label.entries();
            let Some(last) = entries.last() else {
                // Only a single-node run of an atomic start has an empty
                // label.
                if self.n_nodes() == 1 && spec.start() == node.module {
                    continue;
                }
                return Err(format!("node {id:?} has an empty label"));
            };
            match *last {
                crate::label::LabelEntry::Prod { production, pos } => {
                    let Some(prod) = spec.productions().get(production.index()) else {
                        return Err(format!(
                            "node {id:?}: production #{} out of range",
                            production.0
                        ));
                    };
                    if pos as usize >= prod.body.n_nodes() {
                        return Err(format!(
                            "node {id:?}: position {pos} outside production #{}",
                            production.0
                        ));
                    }
                    if prod.body.node(pos as usize) != node.module {
                        return Err(format!(
                            "node {id:?}: module mismatch at production #{} position {pos}",
                            production.0
                        ));
                    }
                }
                crate::label::LabelEntry::Rec { .. } => {
                    return Err(format!(
                        "node {id:?}: atomic node label ends with a recursion entry"
                    ));
                }
            }
            for e in entries {
                if let crate::label::LabelEntry::Rec {
                    cycle,
                    start_phase,
                    idx,
                } = *e
                {
                    let Some(c) = rec.cycles.get(cycle as usize) else {
                        return Err(format!("node {id:?}: cycle {cycle} out of range"));
                    };
                    if start_phase as usize >= c.len() {
                        return Err(format!(
                            "node {id:?}: phase {start_phase} outside cycle {cycle}"
                        ));
                    }
                    if idx == 0 {
                        return Err(format!("node {id:?}: recursion index 0 (1-based)"));
                    }
                }
            }
        }
        for e in self.edges() {
            if e.tag.index() >= spec.n_tags() {
                return Err(format!("edge tag {:?} out of range", e.tag));
            }
        }
        Ok(())
    }

    /// Is the run a DAG? Computed once (Kahn's algorithm) and cached:
    /// derived runs always are, but [`Run::apply_events`] can close a
    /// cycle, after which derivation labels no longer describe
    /// reachability and label-based plans must step aside.
    pub fn is_acyclic(&self) -> bool {
        *self.acyclic.get_or_init(|| {
            let n = self.n_nodes();
            let mut indeg: Vec<usize> = (0..n).map(|i| self.inc[i].len()).collect();
            let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
            let mut seen = 0;
            while let Some(v) = queue.pop() {
                seen += 1;
                for &(to, _) in &self.out[v] {
                    indeg[to.index()] -= 1;
                    if indeg[to.index()] == 0 {
                        queue.push(to.index());
                    }
                }
            }
            seen == n
        })
    }
}
