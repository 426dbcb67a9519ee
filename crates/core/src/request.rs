//! Query requests and outcomes: every evaluation mode in one place.
//!
//! A [`QueryRequest`] selects *which* pairs of a run to test against a
//! prepared query; [`crate::Session::evaluate`] answers it with a
//! [`QueryOutcome`] carrying the result plus evaluation metadata
//! (which plan kind ran, whether the per-run index cache hit, how many
//! candidate nodes were touched).

use rpq_labeling::NodeId;
use rpq_relalg::NodePairSet;

/// What to evaluate over a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryRequest {
    /// Does a matching path lead from the first node to the second?
    Pairwise(NodeId, NodeId),
    /// Does a matching path lead from the run's unique entry to its
    /// unique exit? Run-relative, so one request is meaningful across
    /// a whole corpus — the batch executor's natural mode (node ids
    /// differ per run; entry/exit always exist).
    EntryExit,
    /// All matching pairs of `l1 × l2` (Algorithm 2 for safe plans).
    AllPairs(Vec<NodeId>, Vec<NodeId>),
    /// All matching pairs `(u, v)` for the fixed source `u`.
    SourceStar(NodeId),
    /// All matching pairs `(u, v)` for the fixed target `v`.
    TargetStar(NodeId),
    /// The set of nodes reachable from `u` along a matching path.
    Reachable(NodeId),
}

impl QueryRequest {
    /// [`QueryRequest::Pairwise`] from endpoints.
    pub fn pairwise(u: NodeId, v: NodeId) -> QueryRequest {
        QueryRequest::Pairwise(u, v)
    }

    /// [`QueryRequest::EntryExit`] — the run-relative pairwise mode.
    pub fn entry_exit() -> QueryRequest {
        QueryRequest::EntryExit
    }

    /// [`QueryRequest::AllPairs`] from node lists.
    pub fn all_pairs(l1: impl Into<Vec<NodeId>>, l2: impl Into<Vec<NodeId>>) -> QueryRequest {
        QueryRequest::AllPairs(l1.into(), l2.into())
    }

    /// [`QueryRequest::SourceStar`] from the source.
    pub fn source_star(u: NodeId) -> QueryRequest {
        QueryRequest::SourceStar(u)
    }

    /// [`QueryRequest::TargetStar`] from the target.
    pub fn target_star(v: NodeId) -> QueryRequest {
        QueryRequest::TargetStar(v)
    }

    /// [`QueryRequest::Reachable`] from the source.
    pub fn reachable(u: NodeId) -> QueryRequest {
        QueryRequest::Reachable(u)
    }
}

/// Which evaluation strategy a prepared plan uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanKind {
    /// Fully safe: answered from labels alone (Algorithms 1 and 2).
    Safe,
    /// Decomposed: safe subqueries composed relationally (Section IV-B).
    Composite,
}

/// Whether an evaluation consulted the session's per-run index cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexCacheUse {
    /// The plan never needed the tag index (safe plans).
    NotNeeded,
    /// The index was served from the session cache.
    Hit,
    /// The index was built (and cached) for this evaluation.
    Miss,
}

/// Evaluation metadata returned alongside every result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalMeta {
    /// Strategy of the plan that ran.
    pub plan_kind: PlanKind,
    /// Per-run tag-index cache interaction.
    pub index_cache: IndexCacheUse,
    /// Which closure algorithm(s) actually executed during this
    /// evaluation (the per-operator dispatch may condense one fixpoint
    /// and run another semi-naive). All-zero for safe plans and
    /// closure-free composite plans.
    pub closures: rpq_relalg::ClosureCounts,
    /// How the SCC-kernel closures above sourced their Tarjan
    /// condensation: `computed` counts fresh condensations of the run's
    /// adjacency, `reused` counts closures answered off the
    /// evaluation-scoped [`rpq_relalg::CondensationCache`] (a plan with
    /// k eligible tag closures reports `computed == 1, reused == k - 1`).
    /// All-zero whenever no SCC-kernel closure ran.
    pub condensations: rpq_relalg::CondensationCounts,
    /// Candidate nodes the request ranged over (2 for pairwise,
    /// `|l1| + |l2|` for list modes).
    pub nodes_touched: usize,
    /// Which engine answered this request, as the session picked it.
    pub strategy: crate::EvalStrategy,
    /// `(dfa_state, node)` product states the lazy engine expanded for
    /// this request; 0 for materialized evaluations.
    pub product_states: u64,
    /// Per-stage timing breakdown of this evaluation: `(stage, µs)`
    /// self-times collected by `rpq_obs::Trace` (`plan` = prepared-plan
    /// compile/lookup, `index`/`csr` = per-run artifact build or load,
    /// `eval` = the evaluation proper). Empty when tracing is disabled
    /// process-wide (`rpq_obs::set_enabled(false)`).
    pub stages: rpq_obs::Stages,
}

/// The payload of a [`QueryOutcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryResult {
    /// Pairwise verdict.
    Bool(bool),
    /// Matching pairs.
    Pairs(NodePairSet),
    /// Matching nodes (for [`QueryRequest::Reachable`]).
    Nodes(Vec<NodeId>),
}

/// The answer to a [`QueryRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutcome {
    /// The result payload, shaped by the request mode.
    pub result: QueryResult,
    /// How the evaluation ran.
    pub meta: EvalMeta,
}

impl QueryOutcome {
    /// The pairwise verdict, if this was a pairwise request.
    pub fn as_bool(&self) -> Option<bool> {
        match &self.result {
            QueryResult::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The matching pairs, if this was a pair-producing request.
    pub fn as_pairs(&self) -> Option<&NodePairSet> {
        match &self.result {
            QueryResult::Pairs(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The matching nodes, if this was a reachability request.
    pub fn as_nodes(&self) -> Option<&[NodeId]> {
        match &self.result {
            QueryResult::Nodes(nodes) => Some(nodes),
            _ => None,
        }
    }

    /// Number of matches (1/0 for pairwise verdicts).
    pub fn len(&self) -> usize {
        match &self.result {
            QueryResult::Bool(b) => usize::from(*b),
            QueryResult::Pairs(pairs) => pairs.len(),
            QueryResult::Nodes(nodes) => nodes.len(),
        }
    }

    /// Did the query match nothing?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
