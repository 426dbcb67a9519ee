//! The wire protocol: length-prefixed frames of binary-coded messages.
//!
//! Every message travels as one frame:
//!
//! ```text
//! +------+---------+------------+------------------------+
//! | RPQN | version | length u32 | payload (length bytes) |
//! +------+---------+------------+------------------------+
//!   4 B      1 B     LE, capped    rpq_store::codec bytes
//! ```
//!
//! The payload reuses the run store's binary codec
//! ([`rpq_store::codec`]) — magic/version header, string interning,
//! varints, allocation-capped decode — so the service speaks the same
//! dialect the store persists, and every decode failure is a clean
//! error rather than a panic or an unbounded allocation. The frame
//! length is capped at [`MAX_FRAME`] on both sides: a corrupt or
//! hostile length prefix can never drive a multi-gigabyte read.
//!
//! Requests address runs **by store fingerprint** ([`RunAddr`]): the
//! 128-bit structural fingerprint is stable across store rebuilds and
//! process restarts, where catalog positions are not. (Positional
//! addressing is still offered for load generators sweeping a corpus.)

use rpq_core::{IndexCacheUse, PlanKind, QueryOutcome, QueryRequest, QueryResult, RpqError};
use rpq_labeling::{EventBatch, NodeId, Run};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// Frame magic: `RPQN` ("rpq network").
pub const MAGIC: [u8; 4] = *b"RPQN";

/// Protocol version; bumped on any wire-incompatible change.
/// (v2 added the closure-algorithm counters to [`WireOutcome`] and
/// [`WireStatsReply`]; v3 added the live-ingestion verbs —
/// [`WireRequest::Append`], [`WireRequest::Subscribe`],
/// [`WireRequest::Unsubscribe`] — and the store epoch / append
/// counters in [`WireStatsReply`]; v4 added chunked streaming
/// responses — [`WireResponse::OutcomeStream`] followed by
/// [`WireResponse::Chunk`] frames — the replication verbs
/// [`WireRequest::FetchRun`] / [`WireRequest::PushRun`], and the
/// router's degraded [`WireResponse::Unavailable`] frame; v5 added the
/// observability surface — [`WireRequest::Metrics`] answered by
/// [`WireResponse::Metrics`] with a mergeable registry snapshot and
/// the slow-query ring, the per-request stage breakdown in
/// [`WireOutcome::stages`], and the retry counter in
/// [`WireStatsReply`]; v6 added the lazy product-graph evaluation
/// strategy — [`QuerySpec::strategy`], the resolved
/// [`WireOutcome::strategy`] / [`WireOutcome::product_states`], the
/// strategy / expansion counters in [`WireStatsReply`] — and chunked
/// subscription pushes: a [`WireResponse::DeltaStream`] header followed
/// by [`WireResponse::Chunk`] frames when one delta outgrows the
/// server's chunk bound; v7 added the shared-condensation counters —
/// [`WireOutcome::condensations_computed`] /
/// [`WireOutcome::condensations_reused`] per request plus their
/// process-wide twins in [`WireStatsReply`] — and two counters of the
/// persisted plan cache (reloads, rebuilds); v8 removed what only the
/// deleted process-wide mode switches fed — the `kernel` field of
/// [`WireOutcome`] and [`WireSlowQuery`], and
/// `WireStatsReply::config_warnings`. Since then the server refuses a
/// non-empty [`QuerySpec::policy`] or [`QuerySpec::strategy`]; the
/// fields stay in the frame. v9 removed v7's two plan-cache counters
/// with the persisted plan cache: every process compiles its own plans.)
pub const VERSION: u8 = 9;

/// Hard cap on one frame's payload (64 MiB) — bounds the allocation a
/// length prefix can demand before a single payload byte is read.
pub const MAX_FRAME: usize = 64 << 20;

/// How a request names the run it queries.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunAddr {
    /// The run's 128-bit structural fingerprint (`hi`, `lo`) — the
    /// stable address ([`rpq_store::RunStore::find_by_fingerprint`]).
    Fingerprint(u64, u64),
    /// Catalog position (ingestion order) — convenient for load
    /// generators; unstable across removals.
    Index(u64),
}

/// The evaluation mode, mirroring [`QueryRequest`] with wire-friendly
/// node ids (raw `u32` indexes into the run).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireMode {
    /// Pairwise verdict between two nodes.
    Pairwise(u32, u32),
    /// Pairwise verdict from the run's entry to its exit.
    EntryExit,
    /// All matching pairs of `l1 × l2`.
    AllPairs(Vec<u32>, Vec<u32>),
    /// All matching pairs over the whole node universe — expanded
    /// server-side, so no id lists ship on the wire (an explicit
    /// `AllPairs(0..n, 0..n)` would otherwise grow linearly with the
    /// run and needs a round trip just to learn `n`).
    AllPairsFull,
    /// All matching pairs from a fixed source.
    SourceStar(u32),
    /// All matching pairs into a fixed target.
    TargetStar(u32),
    /// Nodes reachable from a fixed source along a matching path.
    Reachable(u32),
}

impl WireMode {
    /// Lower to a [`QueryRequest`], validating every node id against
    /// the run (out-of-range ids would panic deep inside evaluation).
    pub fn to_request(&self, run: &Run) -> Result<QueryRequest, RpqError> {
        let n = run.n_nodes() as u32;
        let check = |id: u32| -> Result<NodeId, RpqError> {
            if id < n {
                Ok(NodeId(id))
            } else {
                Err(RpqError::invalid(format!(
                    "node id {id} out of range for a {n}-node run"
                )))
            }
        };
        let check_all = |ids: &[u32]| -> Result<Vec<NodeId>, RpqError> {
            ids.iter().map(|&id| check(id)).collect()
        };
        Ok(match self {
            WireMode::Pairwise(u, v) => QueryRequest::Pairwise(check(*u)?, check(*v)?),
            WireMode::EntryExit => QueryRequest::EntryExit,
            WireMode::AllPairs(l1, l2) => QueryRequest::AllPairs(check_all(l1)?, check_all(l2)?),
            WireMode::AllPairsFull => {
                let all: Vec<NodeId> = run.node_ids().collect();
                QueryRequest::AllPairs(all.clone(), all)
            }
            WireMode::SourceStar(u) => QueryRequest::SourceStar(check(*u)?),
            WireMode::TargetStar(v) => QueryRequest::TargetStar(check(*v)?),
            WireMode::Reachable(u) => QueryRequest::Reachable(check(*u)?),
        })
    }
}

/// One query to evaluate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuerySpec {
    /// The regular path query text (server-side parsed and plan-cached).
    pub query: String,
    /// Must be empty. The server chooses how a query is planned; a
    /// non-empty value is refused with [`RpqError::Invalid`]. The field
    /// stays in the frame so older clients' frames still decode.
    pub policy: String,
    /// Must be empty. The server chooses the evaluation engine per
    /// request; a non-empty value is refused with [`RpqError::Invalid`].
    /// The field stays in the frame so older clients' frames still
    /// decode.
    pub strategy: String,
    /// Which stored run to evaluate over.
    pub run: RunAddr,
    /// Ship the per-stage timing breakdown in the outcome. Stage
    /// timings always land in the server's histograms and slow-query
    /// log; serializing them onto every response is measurable at
    /// closed-loop rates, so the wire copy is opt-in (the CLI asks for
    /// it, the bench harness does not).
    pub stages: bool,
    /// The evaluation mode.
    pub mode: WireMode,
}

impl QuerySpec {
    /// Refuse a frame that names a policy or strategy: the server
    /// chooses both, and ignoring the request silently would hide that.
    pub(crate) fn check_no_override(&self) -> Result<(), RpqError> {
        for (field, value) in [("policy", &self.policy), ("strategy", &self.strategy)] {
            if !value.is_empty() {
                return Err(RpqError::invalid(format!(
                    "QuerySpec.{field} must be empty, got {value:?}: the server chooses \
                     how each query is evaluated"
                )));
            }
        }
        Ok(())
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireRequest {
    /// Evaluate a query.
    Query(QuerySpec),
    /// Snapshot the server's session/store/service counters.
    Stats,
    /// List the stored runs (ids, fingerprints, sizes).
    ListRuns,
    /// Liveness probe.
    Ping,
    /// Ask the server to stop accepting and drain.
    Shutdown,
    /// Append a batch of new nodes/edges to an open run. The store
    /// maintains the run's persisted indexes incrementally and the
    /// server refreshes its session caches; the reply is
    /// [`WireResponse::Appended`].
    Append {
        /// Which stored run to grow.
        run: RunAddr,
        /// The events to apply.
        batch: EventBatch,
    },
    /// Stand a query up over an open run: the server replies
    /// [`WireResponse::Subscribed`] with the current answer, then
    /// pushes a [`WireResponse::Delta`] with *newly derived* answers
    /// each time an append lands. The connection stays in push mode
    /// until [`WireRequest::Unsubscribe`], disconnect, or server
    /// shutdown.
    Subscribe(QuerySpec),
    /// Leave push mode; the server replies
    /// [`WireResponse::Unsubscribed`] (after any in-flight deltas) and
    /// the connection returns to request/response.
    Unsubscribe,
    /// Fetch a stored run's full event data — the replication verb a
    /// peer (or the router's sync loop) uses to copy an immutable
    /// artifact off this backend. The reply is
    /// [`WireResponse::RunData`], stamped with the donor's catalog
    /// epoch so the recipient can order what it heard.
    FetchRun(RunAddr),
    /// Ingest a run shipped from a peer — the receiving half of
    /// replication. Deduplicated by structural fingerprint like any
    /// other ingest; the reply is [`WireResponse::Pushed`].
    PushRun {
        /// The run to ingest.
        run: Run,
    },
    /// Snapshot the server's metrics registry — counters, gauges,
    /// latency histograms, notes, and the slow-query ring — as a
    /// [`WireResponse::Metrics`]. Routers answer this verb themselves
    /// by merging every reachable backend's snapshot with their own
    /// per-backend health/retry/sync metrics, so one scrape shows the
    /// whole fleet.
    Metrics,
}

/// A query result on the wire, mirroring [`QueryResult`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireResult {
    /// Pairwise verdict.
    Bool(bool),
    /// Matching pairs, sorted.
    Pairs(Vec<(u32, u32)>),
    /// Matching nodes (reachability), sorted.
    Nodes(Vec<u32>),
}

impl WireResult {
    /// Convert an in-process result for the wire.
    pub fn from_result(result: &QueryResult) -> WireResult {
        match result {
            QueryResult::Bool(b) => WireResult::Bool(*b),
            QueryResult::Pairs(pairs) => {
                WireResult::Pairs(pairs.iter().map(|(u, v)| (u.0, v.0)).collect())
            }
            QueryResult::Nodes(nodes) => WireResult::Nodes(nodes.iter().map(|n| n.0).collect()),
        }
    }

    /// Number of matches (1/0 for verdicts).
    pub fn len(&self) -> usize {
        match self {
            WireResult::Bool(b) => usize::from(*b),
            WireResult::Pairs(pairs) => pairs.len(),
            WireResult::Nodes(nodes) => nodes.len(),
        }
    }

    /// Did the query match nothing?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An empty result of the same kind — the placeholder a
    /// [`WireResponse::OutcomeStream`] header carries while the real
    /// matches follow in chunks. (For `Bool` the verdict itself is
    /// carried: a one-bit result never streams.)
    pub fn empty_like(&self) -> WireResult {
        match self {
            WireResult::Bool(b) => WireResult::Bool(*b),
            WireResult::Pairs(_) => WireResult::Pairs(Vec::new()),
            WireResult::Nodes(_) => WireResult::Nodes(Vec::new()),
        }
    }

    /// Append one streamed chunk; kinds must match the header's.
    /// Chunks arrive in order and pre-sorted, so concatenation
    /// reproduces the unchunked result byte for byte.
    pub fn absorb_chunk(&mut self, part: WireResult) -> Result<(), RpqError> {
        match (self, part) {
            (WireResult::Pairs(acc), WireResult::Pairs(part)) => acc.extend(part),
            (WireResult::Nodes(acc), WireResult::Nodes(part)) => acc.extend(part),
            (WireResult::Bool(acc), WireResult::Bool(part)) => *acc = *acc || part,
            (header, part) => {
                return Err(RpqError::invalid(format!(
                    "streamed chunk kind does not match the outcome header \
                     (header {header:?}, chunk {part:?})"
                )))
            }
        }
        Ok(())
    }
}

/// A query outcome on the wire: the result plus the per-request
/// [`rpq_core::EvalMeta`] and server-side timing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireOutcome {
    /// The result payload.
    pub result: WireResult,
    /// `safe` or `composite` — which plan strategy ran.
    pub plan_kind: String,
    /// `hit` / `miss` / `none` — the per-run index-cache interaction.
    pub index_cache: String,
    /// Transitive closures this evaluation ran through the semi-naive
    /// pair fixpoint.
    pub closure_pairs: u64,
    /// Closures run through the blocked-bitset semi-naive fixpoint.
    pub closure_bits: u64,
    /// Closures run through the Tarjan condensation pass.
    pub closure_scc: u64,
    /// SCC condensations this evaluation computed from scratch.
    pub condensations_computed: u64,
    /// SCC condensations this evaluation reused from the run-scoped
    /// condensation cache instead of recomputing.
    pub condensations_reused: u64,
    /// Candidate nodes the request ranged over.
    pub nodes_touched: u64,
    /// `lazy` or `materialized` — the evaluation engine the server
    /// picked for this request.
    pub strategy: String,
    /// `(dfa_state, node)` product states the lazy engine expanded;
    /// 0 for materialized evaluations.
    pub product_states: u64,
    /// Server-side evaluation time in microseconds (excludes transport).
    pub micros: u64,
    /// Per-stage timing breakdown in microseconds, self-time per stage
    /// (session stages such as `plan` / `index` / `csr` / `eval` plus
    /// the server's own `load` span). Empty when tracing is disabled
    /// or the request left [`QuerySpec::stages`] unset.
    pub stages: Vec<(String, u64)>,
}

impl WireOutcome {
    /// Package an in-process outcome for the wire. `stages` starts
    /// empty: the stage breakdown spans two trace frames (the
    /// session's, carried in the outcome's metadata, and the server's
    /// own), so the server merges and attaches it — and only when the
    /// request opted in ([`QuerySpec::stages`]).
    pub fn from_outcome(outcome: &QueryOutcome, micros: u64) -> WireOutcome {
        WireOutcome {
            result: WireResult::from_result(&outcome.result),
            plan_kind: match outcome.meta.plan_kind {
                PlanKind::Safe => "safe",
                PlanKind::Composite => "composite",
            }
            .to_owned(),
            index_cache: match outcome.meta.index_cache {
                IndexCacheUse::NotNeeded => "none",
                IndexCacheUse::Hit => "hit",
                IndexCacheUse::Miss => "miss",
            }
            .to_owned(),
            closure_pairs: outcome.meta.closures.pairs,
            closure_bits: outcome.meta.closures.bits,
            closure_scc: outcome.meta.closures.scc,
            condensations_computed: outcome.meta.condensations.computed,
            condensations_reused: outcome.meta.condensations.reused,
            nodes_touched: outcome.meta.nodes_touched as u64,
            strategy: outcome.meta.strategy.name().to_owned(),
            product_states: outcome.meta.product_states,
            micros,
            stages: Vec::new(),
        }
    }
}

/// What an [`WireRequest::Append`] did, mirroring
/// [`rpq_store::Appended`] with wire-flattened fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireAppended {
    /// The open run's growth sequence number after this append.
    pub seq: u64,
    /// The store's catalog epoch after this append.
    pub epoch: u64,
    /// Nodes the batch added.
    pub new_nodes: u64,
    /// Edges the batch added (net of duplicates).
    pub new_edges: u64,
    /// `1` if the churn threshold forced a full index rebuild, `0` if
    /// the delta maintenance path ran.
    pub rebuilt: u64,
    /// Total nodes after the append.
    pub n_nodes: u64,
    /// Total edges after the append.
    pub n_edges: u64,
    /// New structural fingerprint, high half — the run's stable
    /// [`RunAddr::Fingerprint`] address changes on every append.
    pub fp_hi: u64,
    /// New structural fingerprint, low half.
    pub fp_lo: u64,
}

impl WireAppended {
    /// Package a store-level append receipt for the wire.
    pub fn from_appended(a: &rpq_store::Appended) -> WireAppended {
        WireAppended {
            seq: a.seq,
            epoch: a.epoch,
            new_nodes: a.new_nodes as u64,
            new_edges: a.new_edges as u64,
            rebuilt: u64::from(a.rebuilt),
            n_nodes: a.n_nodes as u64,
            n_edges: a.n_edges as u64,
            fp_hi: a.fingerprint.0,
            fp_lo: a.fingerprint.1,
        }
    }
}

/// One stored run, as listed by [`WireRequest::ListRuns`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireRunInfo {
    /// Store id.
    pub id: u64,
    /// Fingerprint high half.
    pub fp_hi: u64,
    /// Fingerprint low half.
    pub fp_lo: u64,
    /// Node count.
    pub n_nodes: u64,
    /// Edge count.
    pub n_edges: u64,
}

/// Counter snapshot of [`WireRequest::Stats`]: the session's cache
/// movement, the store's reload/rebuild counters and the service's own
/// admission numbers, flattened for the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireStatsReply {
    /// Plan-cache hits ([`rpq_core::SessionStats`]).
    pub plan_hits: u64,
    /// Plan-cache misses.
    pub plan_misses: u64,
    /// Tag-index cache hits.
    pub index_hits: u64,
    /// Tag-index cache misses.
    pub index_misses: u64,
    /// CSR-arena cache hits.
    pub csr_hits: u64,
    /// CSR-arena cache misses.
    pub csr_misses: u64,
    /// Tag indexes + CSR arenas dropped by the session LRU bound.
    pub session_evictions: u64,
    /// Runs in the store's catalog.
    pub store_runs: u64,
    /// Artifacts decoded from disk ([`rpq_store::StoreStats`]).
    pub tag_reloads: u64,
    /// CSR artifacts decoded from disk.
    pub csr_reloads: u64,
    /// Artifacts re-derived from their runs.
    pub tag_rebuilds: u64,
    /// CSR artifacts re-derived.
    pub csr_rebuilds: u64,
    /// Connections the service accepted.
    pub accepted: u64,
    /// Requests served (all verbs).
    pub requests: u64,
    /// Connections refused with [`WireResponse::Overloaded`].
    pub overloaded: u64,
    /// Requests answered with [`WireResponse::Error`].
    pub request_errors: u64,
    /// Process-wide closures run by the semi-naive pair fixpoint
    /// (`rpq_relalg::closure_counts`).
    pub closures_pairs: u64,
    /// Process-wide closures run by the blocked-bitset fixpoint.
    pub closures_bits: u64,
    /// Process-wide closures run by the Tarjan condensation pass.
    pub closures_scc: u64,
    /// Process-wide SCC condensations computed from scratch
    /// (`rpq_relalg::condensation_counts`).
    pub condensations_computed: u64,
    /// Process-wide SCC condensations answered by the run-scoped
    /// condensation cache.
    pub condensations_reused: u64,
    /// The store's catalog epoch — a monotonic counter bumped on every
    /// catalog-visible mutation (ingest, append, remove, gc).
    pub store_epoch: u64,
    /// Append batches applied to open runs.
    pub appends: u64,
    /// Appends whose churn crossed the threshold and forced a full
    /// index rebuild instead of delta maintenance.
    pub append_rebuilds: u64,
    /// Subscriptions the service accepted ([`WireRequest::Subscribe`]).
    pub subscriptions: u64,
    /// Reconnect/backoff retries taken by this process's outbound
    /// clients (`connect_with_retry` pauses plus router failover
    /// re-dispatches).
    pub retries: u64,
    /// Evaluations answered by the lazy product-graph engine
    /// (`rpq_core::lazy_counts`).
    pub strategy_lazy: u64,
    /// Evaluations answered by the materialized plan path.
    pub strategy_materialized: u64,
    /// `(dfa_state, node)` product states the lazy engine expanded,
    /// process-wide.
    pub lazy_expansions: u64,
}

/// One latency histogram on the wire: per-bucket counts in
/// [`rpq_obs`]'s fixed log₂ bucket layout plus the running sum/count,
/// mirroring [`rpq_obs::HistogramSnapshot`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireHistogram {
    /// Per-bucket observation counts (bucket `i` covers values of bit
    /// length `i`; bucket 0 is exact zero, the last bucket overflow).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl WireHistogram {
    /// Package a registry histogram snapshot for the wire.
    pub fn from_snapshot(h: &rpq_obs::HistogramSnapshot) -> WireHistogram {
        WireHistogram {
            buckets: h.buckets.clone(),
            count: h.count,
            sum: h.sum,
        }
    }

    /// Rebuild the mergeable snapshot (for percentile math client-side).
    pub fn to_snapshot(&self) -> rpq_obs::HistogramSnapshot {
        rpq_obs::HistogramSnapshot {
            buckets: self.buckets.clone(),
            count: self.count,
            sum: self.sum,
        }
    }
}

/// One slow-query log entry on the wire, mirroring
/// [`rpq_obs::SlowQuery`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireSlowQuery {
    /// The query text as received.
    pub query: String,
    /// Hex fingerprint of the run it evaluated over.
    pub fingerprint: String,
    /// Closures run by the pair fixpoint during this evaluation.
    pub closure_pairs: u64,
    /// Closures run by the blocked-bitset fixpoint.
    pub closure_bits: u64,
    /// Closures run by the Tarjan condensation pass.
    pub closure_scc: u64,
    /// Per-stage self-times in microseconds.
    pub stages: Vec<(String, u64)>,
    /// Total server-side time in microseconds.
    pub total_micros: u64,
}

impl WireSlowQuery {
    /// Package a slow-log entry for the wire.
    pub fn from_entry(e: &rpq_obs::SlowQuery) -> WireSlowQuery {
        WireSlowQuery {
            query: e.query.clone(),
            fingerprint: e.fingerprint.clone(),
            closure_pairs: e.closures[0],
            closure_bits: e.closures[1],
            closure_scc: e.closures[2],
            stages: e.stages.clone(),
            total_micros: e.total_micros,
        }
    }
}

/// A full metrics scrape: the registry snapshot (counters, gauges,
/// histograms, notes) plus the slow-query ring, oldest first. Replies
/// to [`WireRequest::Metrics`]; snapshots merge name-wise
/// ([`rpq_obs::MetricsSnapshot::merge`]), which is how the router folds
/// every backend's scrape into one fleet-wide answer.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireMetricsReply {
    /// Monotonic counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Point-in-time gauges, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Latency histograms, sorted by name.
    pub histograms: Vec<(String, WireHistogram)>,
    /// Free-text annotations.
    pub notes: Vec<(String, String)>,
    /// The slow-query ring, oldest first; empty when no `--slow-ms`
    /// threshold is set.
    pub slow: Vec<WireSlowQuery>,
}

impl WireMetricsReply {
    /// Package a registry snapshot (plus slow-log entries) for the wire.
    pub fn from_snapshot(
        snap: &rpq_obs::MetricsSnapshot,
        slow: Vec<rpq_obs::SlowQuery>,
    ) -> WireMetricsReply {
        WireMetricsReply {
            counters: snap.counters.clone(),
            gauges: snap.gauges.clone(),
            histograms: snap
                .histograms
                .iter()
                .map(|(name, h)| (name.clone(), WireHistogram::from_snapshot(h)))
                .collect(),
            notes: snap.notes.clone(),
            slow: slow.iter().map(WireSlowQuery::from_entry).collect(),
        }
    }

    /// Rebuild the mergeable registry snapshot (drops the slow log).
    pub fn to_snapshot(&self) -> rpq_obs::MetricsSnapshot {
        rpq_obs::MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(name, h)| (name.clone(), h.to_snapshot()))
                .collect(),
            notes: self.notes.clone(),
        }
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireResponse {
    /// A query's outcome.
    Outcome(WireOutcome),
    /// The counter snapshot.
    Stats(WireStatsReply),
    /// The run inventory.
    Runs(Vec<WireRunInfo>),
    /// Liveness reply.
    Pong,
    /// Admission control refused the connection: the waiting queue is
    /// full. The connection closes after this response — retry with
    /// backoff. Carries the queue bound that was hit.
    Overloaded {
        /// The configured waiting-connection bound.
        queue: u64,
    },
    /// The server acknowledged [`WireRequest::Shutdown`] and is
    /// draining.
    ShuttingDown,
    /// An [`WireRequest::Append`] landed; carries the growth receipt.
    Appended(WireAppended),
    /// A subscription is standing; carries the open run's current
    /// growth sequence and the query's *current* full answer (the
    /// baseline every later [`WireResponse::Delta`] is relative to).
    Subscribed {
        /// Growth sequence the baseline was evaluated at.
        seq: u64,
        /// The current answer.
        initial: WireResult,
    },
    /// Pushed to a subscriber after an append: only the answers that
    /// are *new* since the previous push (for verdict modes, a
    /// `Bool(true)` the first time the verdict flips to true).
    Delta {
        /// Growth sequence this delta was evaluated at.
        seq: u64,
        /// Newly derived answers only.
        added: WireResult,
    },
    /// The server left push mode; request/response resumes.
    Unsubscribed,
    /// Header of a chunked subscription push: a [`WireResponse::Delta`]
    /// whose `added` payload outgrew the server's chunk bound. Carries
    /// the growth sequence and an *empty* result of the correct kind;
    /// the newly derived answers follow in [`WireResponse::Chunk`]
    /// frames, exactly like an [`WireResponse::OutcomeStream`].
    DeltaStream {
        /// Growth sequence this delta was evaluated at.
        seq: u64,
        /// Empty placeholder of the delta's result kind.
        added: WireResult,
    },
    /// Header of a chunked query outcome: the metadata of
    /// [`WireResponse::Outcome`] whose `result` field is an *empty*
    /// result of the correct kind; the actual matches follow in
    /// [`WireResponse::Chunk`] frames. Servers switch to this shape
    /// when one `Outcome` frame would be huge (`AllPairs` over a big
    /// run) — many bounded frames instead of one 64 MiB frame.
    OutcomeStream(WireOutcome),
    /// One slice of a chunked outcome. The final slice has `last`
    /// set; concatenating every `part` in arrival order reproduces the
    /// unchunked result exactly (the parts are already globally
    /// sorted).
    Chunk {
        /// Is this the final slice?
        last: bool,
        /// The matches in this slice.
        part: WireResult,
    },
    /// The request could not be served by any replica — the router's
    /// degraded answer when every backend holding the run is down,
    /// distinct from [`WireResponse::Overloaded`] (retry soon) and
    /// [`WireResponse::Error`] (the request itself is at fault).
    Unavailable {
        /// What was unreachable and why.
        message: String,
    },
    /// A [`WireRequest::FetchRun`] reply: the run's full event data.
    RunData {
        /// The donor's catalog epoch when it served this copy.
        epoch: u64,
        /// The stored run.
        run: Run,
    },
    /// A [`WireRequest::PushRun`] landed.
    Pushed {
        /// The id the run holds in the recipient's store.
        id: u64,
        /// `1` if the recipient already held this fingerprint, `0` if
        /// the push grew its corpus.
        deduplicated: u64,
        /// The recipient's catalog epoch after the push.
        epoch: u64,
    },
    /// A [`WireRequest::Metrics`] reply: the metrics snapshot and the
    /// slow-query ring.
    Metrics(WireMetricsReply),
    /// The request failed; the connection stays usable.
    Error {
        /// Stable error class (`parse` / `plan` / `grammar` / `run` /
        /// `io` / `invalid`).
        kind: String,
        /// Human-readable detail.
        message: String,
    },
}

/// The stable error class of an [`RpqError`], as sent in
/// [`WireResponse::Error`].
pub fn error_kind(e: &RpqError) -> &'static str {
    match e {
        RpqError::Parse(_) => "parse",
        RpqError::Plan(_) => "plan",
        RpqError::Grammar(_) => "grammar",
        RpqError::Run(_) => "run",
        RpqError::Io { .. } => "io",
        RpqError::Invalid(_) => "invalid",
    }
}

impl WireResponse {
    /// The [`WireResponse::Error`] frame reporting `e`: its stable
    /// [`error_kind`] and its message.
    pub fn error(e: &RpqError) -> WireResponse {
        WireResponse::Error {
            kind: error_kind(e).to_owned(),
            message: e.to_string(),
        }
    }
}

// ---------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------

/// Encode `value` into one frame. The [`MAX_FRAME`] cap is enforced on
/// this side too: an oversized payload is an `Invalid` error *before*
/// any byte is written (otherwise the peer's cap check would kill the
/// connection after all the work was done — and a payload past `u32`
/// would silently truncate the length prefix into garbage framing).
pub fn encode_frame<T: Serialize>(value: &T) -> Result<Vec<u8>, RpqError> {
    let payload = rpq_store::codec::to_bytes(value);
    if payload.len() > MAX_FRAME {
        return Err(RpqError::invalid(format!(
            "message of {} bytes exceeds the {MAX_FRAME}-byte frame cap; \
             narrow the request (e.g. select fewer endpoints)",
            payload.len()
        )));
    }
    let mut frame = Vec::with_capacity(9 + payload.len());
    frame.extend_from_slice(&MAGIC);
    frame.push(VERSION);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    Ok(frame)
}

/// Write `value` as one frame. An [`RpqError::Invalid`] means the
/// message was too large and *nothing was written* — the connection is
/// still in sync and the caller may substitute a smaller message (the
/// server sends an error response instead of an oversized outcome).
pub fn write_message<T: Serialize>(w: &mut impl Write, value: &T) -> Result<(), RpqError> {
    let frame = encode_frame(value)?;
    w.write_all(&frame)
        .and_then(|()| w.flush())
        .map_err(|e| RpqError::io("cannot write protocol frame", e))
}

/// Read one frame and decode its payload. Returns `Ok(None)` on a
/// clean end of stream (the peer closed between frames); a stream that
/// ends *inside* a frame is an error.
pub fn read_message<T: Deserialize>(r: &mut impl Read) -> Result<Option<T>, RpqError> {
    let mut header = [0u8; 9];
    match read_exact_or_eof(r, &mut header)? {
        ReadState::CleanEof => return Ok(None),
        ReadState::Filled => {}
    }
    decode_after_header(r, &header)
}

/// Validate a 9-byte frame header and return the payload length it
/// announces (already checked against [`MAX_FRAME`]). Public for
/// servers (this crate's and the router's) that interleave patient,
/// timeout-polling reads with frame decoding.
pub fn frame_len(header: &[u8; 9]) -> Result<usize, RpqError> {
    if header[..4] != MAGIC {
        return Err(RpqError::invalid(
            "not an rpq protocol frame (bad magic)".to_owned(),
        ));
    }
    if header[4] != VERSION {
        return Err(RpqError::invalid(format!(
            "unsupported protocol version {} (this build speaks {VERSION})",
            header[4]
        )));
    }
    let len = u32::from_le_bytes([header[5], header[6], header[7], header[8]]) as usize;
    if len > MAX_FRAME {
        return Err(RpqError::invalid(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"
        )));
    }
    Ok(len)
}

/// Decode one frame's payload bytes.
pub fn decode_payload<T: Deserialize>(payload: &[u8]) -> Result<T, RpqError> {
    rpq_store::codec::from_bytes(payload)
        .map_err(|e| RpqError::invalid(format!("corrupt protocol payload: {e}")))
}

/// Shared tail of [`read_message`] and the server's interruptible
/// reader: validate a 9-byte header and decode the payload it announces.
pub(crate) fn decode_after_header<T: Deserialize>(
    r: &mut impl Read,
    header: &[u8; 9],
) -> Result<Option<T>, RpqError> {
    let len = frame_len(header)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)
        .map_err(|e| RpqError::io("truncated protocol frame", e))?;
    Ok(Some(decode_payload(&payload)?))
}

pub(crate) enum ReadState {
    CleanEof,
    Filled,
}

/// `read_exact`, except a stream that ends before the *first* byte is
/// a clean EOF rather than an error.
pub(crate) fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<ReadState, RpqError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(ReadState::CleanEof),
            Ok(0) => {
                return Err(RpqError::invalid(format!(
                    "stream ended {filled} bytes into a frame header"
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(RpqError::io("cannot read protocol frame", e)),
        }
    }
    Ok(ReadState::Filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(value: T) {
        let frame = encode_frame(&value).unwrap();
        let mut cursor = &frame[..];
        let back: T = read_message(&mut cursor).unwrap().unwrap();
        assert_eq!(back, value);
        assert!(cursor.is_empty());
    }

    #[test]
    fn requests_round_trip() {
        round_trip(WireRequest::Ping);
        round_trip(WireRequest::Stats);
        round_trip(WireRequest::ListRuns);
        round_trip(WireRequest::Shutdown);
        for mode in [
            WireMode::Pairwise(3, 9),
            WireMode::EntryExit,
            WireMode::AllPairs(vec![0, 1, 2], vec![2, 1]),
            WireMode::AllPairsFull,
            WireMode::SourceStar(0),
            WireMode::TargetStar(7),
            WireMode::Reachable(1),
        ] {
            round_trip(WireRequest::Query(QuerySpec {
                query: "_* a _*".to_owned(),
                policy: "cost".to_owned(),
                strategy: "lazy".to_owned(),
                stages: false,
                run: RunAddr::Fingerprint(0xdead, 0xbeef),
                mode,
            }));
        }
        round_trip(WireRequest::Query(QuerySpec {
            query: "a+".to_owned(),
            policy: String::new(),
            strategy: String::new(),
            stages: false,
            run: RunAddr::Index(2),
            mode: WireMode::EntryExit,
        }));
    }

    #[test]
    fn streaming_verbs_round_trip() {
        use rpq_grammar::Tag;
        use rpq_labeling::RunEdge;

        round_trip(WireRequest::Unsubscribe);
        round_trip(WireRequest::Append {
            run: RunAddr::Index(0),
            batch: EventBatch::default(),
        });
        round_trip(WireRequest::Append {
            run: RunAddr::Fingerprint(7, 9),
            batch: EventBatch {
                nodes: Vec::new(),
                edges: vec![RunEdge {
                    src: NodeId(0),
                    dst: NodeId(3),
                    tag: Tag(1),
                }],
            },
        });
        round_trip(WireRequest::Subscribe(QuerySpec {
            query: "untrusted _* publish".to_owned(),
            policy: String::new(),
            strategy: String::new(),
            stages: false,
            run: RunAddr::Index(1),
            mode: WireMode::EntryExit,
        }));

        round_trip(WireResponse::Appended(WireAppended {
            seq: 3,
            epoch: 12,
            new_nodes: 2,
            new_edges: 5,
            rebuilt: 1,
            n_nodes: 40,
            n_edges: 95,
            fp_hi: 0xfeed,
            fp_lo: 0xf00d,
        }));
        round_trip(WireResponse::Subscribed {
            seq: 0,
            initial: WireResult::Pairs(vec![(0, 9)]),
        });
        round_trip(WireResponse::Delta {
            seq: 4,
            added: WireResult::Bool(true),
        });
        round_trip(WireResponse::Unsubscribed);
        round_trip(WireResponse::Stats(WireStatsReply {
            store_epoch: 8,
            appends: 3,
            append_rebuilds: 1,
            subscriptions: 2,
            ..WireStatsReply::default()
        }));
    }

    #[test]
    fn responses_round_trip() {
        round_trip(WireResponse::Pong);
        round_trip(WireResponse::ShuttingDown);
        round_trip(WireResponse::Overloaded { queue: 64 });
        round_trip(WireResponse::Error {
            kind: "parse".to_owned(),
            message: "unbalanced".to_owned(),
        });
        round_trip(WireResponse::Runs(vec![WireRunInfo {
            id: 1,
            fp_hi: 2,
            fp_lo: 3,
            n_nodes: 4,
            n_edges: 5,
        }]));
        round_trip(WireResponse::Stats(WireStatsReply {
            plan_hits: 1,
            requests: 9,
            ..WireStatsReply::default()
        }));
        for result in [
            WireResult::Bool(true),
            WireResult::Pairs(vec![(0, 1), (2, 3)]),
            WireResult::Nodes(vec![5, 6]),
        ] {
            round_trip(WireResponse::Outcome(WireOutcome {
                result,
                plan_kind: "safe".to_owned(),
                index_cache: "none".to_owned(),
                closure_pairs: 0,
                closure_bits: 1,
                closure_scc: 2,
                condensations_computed: 1,
                condensations_reused: 3,
                nodes_touched: 2,
                strategy: "materialized".to_owned(),
                product_states: 0,
                micros: 17,
                stages: vec![("plan".to_owned(), 3), ("eval".to_owned(), 11)],
            }));
        }
    }

    #[test]
    fn v4_replication_and_streaming_frames_round_trip() {
        round_trip(WireRequest::FetchRun(RunAddr::Fingerprint(0xabc, 0xdef)));
        round_trip(WireRequest::FetchRun(RunAddr::Index(3)));
        let run = rpq_labeling::RunBuilder::new(&rpq_workloads::paper_examples::fig2_spec())
            .seed(5)
            .target_edges(40)
            .build()
            .unwrap();
        round_trip(WireRequest::PushRun { run: run.clone() });
        round_trip(WireResponse::RunData { epoch: 12, run });
        round_trip(WireResponse::Pushed {
            id: 7,
            deduplicated: 1,
            epoch: 13,
        });
        round_trip(WireResponse::Unavailable {
            message: "all 2 replicas of run 00ab..cd are down".to_owned(),
        });
        round_trip(WireResponse::OutcomeStream(WireOutcome {
            result: WireResult::Pairs(Vec::new()),
            plan_kind: "safe".to_owned(),
            index_cache: "hit".to_owned(),
            closure_pairs: 0,
            closure_bits: 0,
            closure_scc: 0,
            condensations_computed: 0,
            condensations_reused: 0,
            nodes_touched: 9,
            strategy: "lazy".to_owned(),
            product_states: 120,
            micros: 4,
            stages: Vec::new(),
        }));
        round_trip(WireResponse::Chunk {
            last: false,
            part: WireResult::Pairs(vec![(0, 1), (0, 2)]),
        });
        round_trip(WireResponse::Chunk {
            last: true,
            part: WireResult::Nodes(vec![3, 4, 5]),
        });
    }

    #[test]
    fn v5_metrics_frames_round_trip() {
        round_trip(WireRequest::Metrics);
        round_trip(WireResponse::Metrics(WireMetricsReply::default()));
        round_trip(WireResponse::Metrics(WireMetricsReply {
            counters: vec![
                ("rpq_requests_total".to_owned(), 42),
                ("rpq_request_errors_total".to_owned(), 1),
            ],
            gauges: vec![("rpq_store_runs".to_owned(), 6)],
            histograms: vec![(
                "rpq_request_micros".to_owned(),
                WireHistogram {
                    buckets: vec![0, 1, 2, 3],
                    count: 6,
                    sum: 19,
                },
            )],
            notes: vec![("build".to_owned(), "0.2.0".to_owned())],
            slow: vec![WireSlowQuery {
                query: "_* a _*".to_owned(),
                fingerprint: "00ab00cd".to_owned(),
                closure_pairs: 1,
                closure_bits: 0,
                closure_scc: 2,
                stages: vec![("eval".to_owned(), 950)],
                total_micros: 1200,
            }],
        }));
        round_trip(WireResponse::Stats(WireStatsReply {
            retries: 4,
            ..WireStatsReply::default()
        }));
    }

    #[test]
    fn v6_strategy_and_delta_stream_frames_round_trip() {
        round_trip(WireRequest::Query(QuerySpec {
            query: "a+".to_owned(),
            policy: String::new(),
            strategy: "materialized".to_owned(),
            stages: true,
            run: RunAddr::Index(0),
            mode: WireMode::EntryExit,
        }));
        round_trip(WireResponse::DeltaStream {
            seq: 9,
            added: WireResult::Pairs(Vec::new()),
        });
        round_trip(WireResponse::Stats(WireStatsReply {
            strategy_lazy: 12,
            strategy_materialized: 30,
            lazy_expansions: 4096,
            ..WireStatsReply::default()
        }));
    }

    #[test]
    fn v7_condensation_counters_round_trip() {
        round_trip(WireResponse::Stats(WireStatsReply {
            condensations_computed: 3,
            condensations_reused: 9,
            ..WireStatsReply::default()
        }));
    }

    #[test]
    fn metrics_reply_converts_to_a_mergeable_snapshot() {
        let registry = rpq_obs::Registry::new();
        registry.counter("rpq_requests_total").add(5);
        registry.gauge("rpq_store_runs").set(3);
        registry.histogram("rpq_request_micros").record(100);
        registry.histogram("rpq_request_micros").record(7);
        registry.note("build", "x");
        let snap = registry.snapshot();
        let wire = WireMetricsReply::from_snapshot(&snap, Vec::new());
        assert_eq!(wire.to_snapshot(), snap);
        // Merging two wire-rebuilt snapshots doubles counters and
        // histogram counts — the fleet-aggregation path.
        let mut merged = wire.to_snapshot();
        merged.merge(&wire.to_snapshot());
        assert_eq!(merged.counter("rpq_requests_total"), 10);
        assert_eq!(
            merged.histogram("rpq_request_micros").map(|h| h.count),
            Some(4)
        );
    }

    #[test]
    fn chunks_reassemble_exactly() {
        let mut acc = WireResult::Pairs(Vec::new());
        acc.absorb_chunk(WireResult::Pairs(vec![(0, 1), (0, 2)]))
            .unwrap();
        acc.absorb_chunk(WireResult::Pairs(vec![(1, 2)])).unwrap();
        assert_eq!(acc, WireResult::Pairs(vec![(0, 1), (0, 2), (1, 2)]));
        // Kind mismatch is an error, not a silent drop.
        assert!(acc.absorb_chunk(WireResult::Nodes(vec![9])).is_err());
        // empty_like keeps the kind (and, for Bool, the verdict).
        assert_eq!(
            WireResult::Pairs(vec![(5, 6)]).empty_like(),
            WireResult::Pairs(Vec::new())
        );
        assert_eq!(WireResult::Bool(true).empty_like(), WireResult::Bool(true));
    }

    #[test]
    fn corrupt_frames_are_rejected_not_panicked() {
        let good = encode_frame(&WireRequest::Ping).unwrap();
        // Clean EOF before any byte.
        assert!(read_message::<WireRequest>(&mut &[][..]).unwrap().is_none());
        // Truncation at every prefix errors (except length 0 = clean EOF).
        for cut in 1..good.len() {
            assert!(
                read_message::<WireRequest>(&mut &good[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(read_message::<WireRequest>(&mut &bad[..]).is_err());
        // Bad version.
        let mut bad = good.clone();
        bad[4] = 99;
        assert!(read_message::<WireRequest>(&mut &bad[..]).is_err());
        // A length prefix past the cap is refused before any allocation.
        let mut bad = good.clone();
        bad[5..9].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(read_message::<WireRequest>(&mut &bad[..]).is_err());
        // Garbage payload of the advertised length.
        let mut bad = good;
        for b in bad.iter_mut().skip(9) {
            *b = 0xFF;
        }
        assert!(read_message::<WireRequest>(&mut &bad[..]).is_err());
    }

    #[test]
    fn oversized_messages_are_refused_before_any_byte_is_written() {
        // A payload past MAX_FRAME must error cleanly with nothing on
        // the wire — the peer's connection stays in sync.
        let huge = "x".repeat(MAX_FRAME + 1024);
        let mut sink = Vec::new();
        let err = write_message(&mut sink, &huge).unwrap_err();
        assert!(matches!(err, RpqError::Invalid(_)), "{err:?}");
        assert!(err.to_string().contains("frame cap"), "{err}");
        assert!(sink.is_empty(), "nothing may be written on refusal");
    }

    #[test]
    fn error_kinds_are_stable() {
        let io = RpqError::io("x", std::io::Error::new(std::io::ErrorKind::NotFound, "y"));
        for (e, kind) in [(RpqError::invalid("x"), "invalid"), (io, "io")] {
            assert_eq!(
                WireResponse::error(&e),
                WireResponse::Error {
                    kind: kind.to_owned(),
                    message: e.to_string(),
                }
            );
        }
    }
}
