//! The session-oriented prepared-query API.
//!
//! The paper's economics are *compile once, evaluate many*: a query is
//! compiled against the specification (safety check, query-intersected
//! grammar, decomposition) and then answered over many runs with
//! constant-time pairwise decoding — the access pattern of the stored
//! indexes in Section VII. [`Session`] makes that the shape of the API:
//!
//! * a `Session` owns an `Arc<`[`Specification`]`>` and two caches — a
//!   **plan cache** keyed by the normalized regex, and a **per-run
//!   [`TagIndex`] cache** keyed by run identity — so repeated queries
//!   never recompile and repeated runs never re-index;
//! * [`Session::prepare`] returns a [`PreparedQuery`], a cheaply
//!   cloneable handle bundling the parsed regex, the compiled
//!   [`QueryPlan`], its safety verdict and plan statistics;
//! * [`Session::evaluate`] answers a [`QueryRequest`] with a
//!   [`QueryOutcome`] carrying the result and evaluation metadata.
//!
//! ```
//! use rpq_core::{QueryRequest, Session};
//! use rpq_grammar::SpecificationBuilder;
//! use rpq_labeling::RunBuilder;
//!
//! let mut b = SpecificationBuilder::new();
//! b.atomic("t");
//! b.composite("S");
//! b.production("S", |w| {
//!     let x = w.node("t");
//!     let s = w.node("S");
//!     let y = w.node("t");
//!     w.edge_named(x, s, "down");
//!     w.edge_named(s, y, "up");
//! });
//! b.production("S", |w| { w.node("t"); });
//! b.start("S");
//! let spec = b.build().unwrap();
//!
//! let session = Session::from_spec(spec);
//! let query = session.prepare("_* down _* up _*").unwrap();
//! let run = RunBuilder::new(session.spec()).seed(1).target_edges(64).build().unwrap();
//! let outcome = session.evaluate(
//!     &query,
//!     &run,
//!     &QueryRequest::pairwise(run.entry(), run.exit()),
//! );
//! assert_eq!(outcome.as_bool(), Some(true));
//!
//! // Preparing the same query again (any spelling) hits the plan cache.
//! let again = session.prepare("_*  down  _*  up  _*").unwrap();
//! assert_eq!(session.stats().plan_hits, 1);
//! assert_eq!(session.stats().plan_misses, 1);
//! assert_eq!(again.source(), query.source());
//! ```

use crate::error::RpqError;
use crate::general::{self, QueryPlan};
use crate::lazy::{self, EvalStrategy, LazyEval};
use crate::plan::SafeQueryPlan;
use crate::request::{EvalMeta, IndexCacheUse, PlanKind, QueryOutcome, QueryRequest, QueryResult};
use rpq_automata::{compile_minimal_dfa, parse, Dfa, Regex, Symbol};
use rpq_grammar::Specification;
use rpq_labeling::{NodeId, Run};
use rpq_relalg::{CsrIndex, NodePairSet, TagIndex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Compile-time statistics of a prepared query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanStats {
    /// States of the query's minimal DFA.
    pub dfa_states: usize,
    /// Number of label-evaluated safe subqueries (1 for safe plans).
    pub n_safe_subqueries: usize,
    /// Safe or composite evaluation strategy.
    pub kind: PlanKind,
    /// The Definition-13 safety verdict (see [`PreparedQuery::is_safe`]).
    pub safe: bool,
}

struct PreparedInner {
    /// The specification the plan was compiled against; evaluation
    /// asserts it matches the session's.
    spec: Arc<Specification>,
    source: String,
    regex: Regex,
    plan: QueryPlan,
    /// The query's minimal DFA, retained from planning: the lazy
    /// product-graph engine composes it with the run's CSR arena at
    /// evaluation time.
    dfa: Arc<Dfa>,
    stats: PlanStats,
}

/// A compiled query handle, cheap to clone and detached from the
/// session's lifetime.
///
/// Produced by [`Session::prepare`]; reusing one across runs (or
/// cloning it into other threads of work) never recompiles the plan.
#[derive(Clone)]
pub struct PreparedQuery {
    inner: Arc<PreparedInner>,
}

impl PreparedQuery {
    /// The query text as given to [`Session::prepare`] (normalized
    /// queries prepared from different spellings keep the first
    /// spelling seen).
    pub fn source(&self) -> &str {
        &self.inner.source
    }

    /// The parsed regex.
    pub fn regex(&self) -> &Regex {
        &self.inner.regex
    }

    /// The compiled plan.
    pub fn plan(&self) -> &QueryPlan {
        &self.inner.plan
    }

    /// The query's minimal DFA (compiled once at prepare time; the
    /// lazy evaluation strategy composes it with the run graph on the
    /// fly).
    pub fn dfa(&self) -> &Dfa {
        &self.inner.dfa
    }

    /// Is the query safe for the specification (Definition 13)?
    ///
    /// This is the *semantic* safety verdict, independent of how the
    /// plan evaluates: it stays `true` for safe single-symbol leaves
    /// (which are answered from the tag index regardless). Use
    /// [`PlanStats::kind`] for the evaluation strategy.
    pub fn is_safe(&self) -> bool {
        self.inner.stats.safe
    }

    /// Compile-time statistics.
    pub fn stats(&self) -> &PlanStats {
        &self.inner.stats
    }

    /// The underlying safe plan, when the whole query is safe —
    /// for direct access to the label decoder (`pairwise`, λ
    /// matrices) without going through [`Session::evaluate`].
    pub fn safe_plan(&self) -> Option<&SafeQueryPlan> {
        self.inner.plan.as_safe()
    }
}

impl std::fmt::Debug for PreparedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedQuery")
            .field("source", &self.inner.source)
            .field("stats", &self.inner.stats)
            .finish()
    }
}

/// Cache counters of a [`Session`] (monotonic, snapshot via
/// [`Session::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Queries served from the plan cache.
    pub plan_hits: u64,
    /// Queries compiled anew.
    pub plan_misses: u64,
    /// Evaluations that found their run's tag index cached.
    pub index_hits: u64,
    /// Evaluations that had to build a tag index.
    pub index_misses: u64,
    /// Evaluations that found their run's CSR arena cached.
    pub csr_hits: u64,
    /// Evaluations that had to build a CSR arena.
    pub csr_misses: u64,
    /// Tag indexes dropped by the LRU bound
    /// ([`Session::with_cache_capacity`]).
    pub index_evictions: u64,
    /// CSR arenas dropped by the LRU bound.
    pub csr_evictions: u64,
}

impl SessionStats {
    /// The counter movement since an `earlier` snapshot — per-batch /
    /// per-request deltas out of the monotonic totals.
    pub fn since(self, earlier: SessionStats) -> SessionStats {
        SessionStats {
            plan_hits: self.plan_hits - earlier.plan_hits,
            plan_misses: self.plan_misses - earlier.plan_misses,
            index_hits: self.index_hits - earlier.index_hits,
            index_misses: self.index_misses - earlier.index_misses,
            csr_hits: self.csr_hits - earlier.csr_hits,
            csr_misses: self.csr_misses - earlier.csr_misses,
            index_evictions: self.index_evictions - earlier.index_evictions,
            csr_evictions: self.csr_evictions - earlier.csr_evictions,
        }
    }
}

/// A size-bounded least-recently-used map over [`RunKey`]s.
///
/// Both per-run caches (tag indexes and CSR arenas) sit behind one of
/// these: every get or insert stamps the entry with a logical tick, and
/// inserts past the capacity drop the stalest entries. The default
/// capacity is unbounded, matching the pre-LRU behavior; long-lived
/// sessions over large run corpora bound it via
/// [`Session::with_cache_capacity`].
struct LruMap<V> {
    entries: HashMap<RunKey, (V, u64)>,
    tick: u64,
    capacity: usize,
}

impl<V: Clone> LruMap<V> {
    fn new() -> LruMap<V> {
        LruMap {
            entries: HashMap::new(),
            tick: 0,
            capacity: usize::MAX,
        }
    }

    fn get(&mut self, key: &RunKey) -> Option<V> {
        let tick = self.tick + 1;
        let (value, last_used) = self.entries.get_mut(key)?;
        self.tick = tick;
        *last_used = tick;
        Some(value.clone())
    }

    /// Insert, keeping any entry already present for `key` (so racing
    /// builders converge on one shared value), then trim to capacity.
    /// Returns the retained value and the number of evicted entries.
    fn insert_or_keep(&mut self, key: RunKey, value: V) -> (V, u64) {
        self.tick += 1;
        let entry = self.entries.entry(key).or_insert((value, self.tick));
        entry.1 = self.tick;
        let kept = entry.0.clone();
        (kept, self.trim())
    }

    /// Evict least-recently-used entries until the map fits the
    /// capacity; returns how many were dropped. The victim search is
    /// an O(len) min-scan per eviction — deliberate: capacities are
    /// working-set sized (tens to thousands), where the scan beats a
    /// heap's bookkeeping; revisit if capacities ever reach 10⁵+.
    fn trim(&mut self) -> u64 {
        let mut evicted = 0;
        while self.entries.len() > self.capacity {
            let stalest = self
                .entries
                .iter()
                .min_by_key(|(_, (_, last_used))| *last_used)
                .map(|(key, _)| *key)
                .expect("len > capacity >= 0 implies non-empty");
            self.entries.remove(&stalest);
            evicted += 1;
        }
        evicted
    }

    fn set_capacity(&mut self, capacity: usize) -> u64 {
        self.capacity = capacity;
        self.trim()
    }

    fn clear(&mut self) {
        self.entries.clear();
    }

    fn remove(&mut self, key: &RunKey) -> bool {
        self.entries.remove(key).is_some()
    }

    fn contains(&self, key: &RunKey) -> bool {
        self.entries.contains_key(key)
    }
}

/// A query session bound to one workflow specification.
///
/// Sessions are `Send + Sync`: the specification is shared behind an
/// `Arc` and both caches sit behind mutexes, so one session can serve
/// queries from many threads (the architectural requirement for the
/// service-style deployments the roadmap targets).
pub struct Session {
    spec: Arc<Specification>,
    /// Prepared queries keyed by the normalized regex rendering —
    /// parsing runs the AST smart constructors, so differently-spelled
    /// equivalent queries share one entry.
    plans: Mutex<HashMap<String, PreparedQuery>>,
    indexes: Mutex<LruMap<Arc<TagIndex>>>,
    /// CSR adjacency arenas (per-tag + wildcard), cached per run beside
    /// the tag indexes: composite evaluations feed them to the
    /// bit-parallel join/fixpoint kernel of `rpq-relalg`.
    csrs: Mutex<LruMap<Arc<CsrIndex>>>,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    index_hits: AtomicU64,
    index_misses: AtomicU64,
    csr_hits: AtomicU64,
    csr_misses: AtomicU64,
    index_evictions: AtomicU64,
    csr_evictions: AtomicU64,
}

/// Run identity for the index cache: the run's 128-bit structural
/// fingerprint ([`Run::fingerprint`], computed once per run and cached
/// on it) plus its node/edge counts as an extra collision guard, so
/// re-deserialized copies of the same run share a cache entry.
/// The fingerprint is not collision-resistant against an adversary;
/// services ingesting untrusted runs should key caches by an external
/// run id instead.
type RunKey = (u64, u64, u64, u64);

fn run_key(run: &Run) -> RunKey {
    let (a, b) = run.fingerprint();
    (a, b, run.n_nodes() as u64, run.n_edges() as u64)
}

impl Session {
    /// Open a session over a shared specification.
    pub fn new(spec: Arc<Specification>) -> Session {
        Session {
            spec,
            plans: Mutex::new(HashMap::new()),
            indexes: Mutex::new(LruMap::new()),
            csrs: Mutex::new(LruMap::new()),
            plan_hits: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
            index_hits: AtomicU64::new(0),
            index_misses: AtomicU64::new(0),
            csr_hits: AtomicU64::new(0),
            csr_misses: AtomicU64::new(0),
            index_evictions: AtomicU64::new(0),
            csr_evictions: AtomicU64::new(0),
        }
    }

    /// Open a session, taking ownership of the specification.
    pub fn from_spec(spec: Specification) -> Session {
        Session::new(Arc::new(spec))
    }

    /// Bound each per-run cache (tag indexes and CSR arenas) to at most
    /// `capacity` runs, evicting least-recently-used entries beyond it.
    ///
    /// Long-lived sessions iterating large corpora (batch executors,
    /// services) use this so memory stays proportional to the working
    /// set instead of the corpus; evictions are counted in
    /// [`SessionStats::index_evictions`] / [`SessionStats::csr_evictions`].
    /// A capacity of 0 disables retention entirely (every evaluation
    /// rebuilds or reloads its indexes). Prepared plans are unaffected —
    /// they are small and keyed by query, not by run.
    pub fn with_cache_capacity(self, capacity: usize) -> Session {
        let evicted = self
            .indexes
            .lock()
            .expect("index cache lock")
            .set_capacity(capacity);
        self.index_evictions.fetch_add(evicted, Ordering::Relaxed);
        let evicted = self
            .csrs
            .lock()
            .expect("csr cache lock")
            .set_capacity(capacity);
        self.csr_evictions.fetch_add(evicted, Ordering::Relaxed);
        self
    }

    /// The specification this session queries.
    pub fn spec(&self) -> &Specification {
        &self.spec
    }

    /// A shared handle to the specification.
    pub fn spec_arc(&self) -> Arc<Specification> {
        Arc::clone(&self.spec)
    }

    /// Cache counters so far.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            plan_hits: self.plan_hits.load(Ordering::Relaxed),
            plan_misses: self.plan_misses.load(Ordering::Relaxed),
            index_hits: self.index_hits.load(Ordering::Relaxed),
            index_misses: self.index_misses.load(Ordering::Relaxed),
            csr_hits: self.csr_hits.load(Ordering::Relaxed),
            csr_misses: self.csr_misses.load(Ordering::Relaxed),
            index_evictions: self.index_evictions.load(Ordering::Relaxed),
            csr_evictions: self.csr_evictions.load(Ordering::Relaxed),
        }
    }

    /// Parse query text, resolving tag names against the specification.
    pub fn parse(&self, text: &str) -> Result<Regex, RpqError> {
        Ok(parse(text, &mut |name| {
            self.spec.tag_by_name(name).map(|t| Symbol(t.0))
        })?)
    }

    /// Prepare a query: parse, check safety and plan it.
    pub fn prepare(&self, text: &str) -> Result<PreparedQuery, RpqError> {
        let regex = self.parse(text)?;
        self.prepare_cached(|| text.to_owned(), &regex)
    }

    /// Prepare an already-parsed regex.
    pub fn prepare_regex(&self, regex: &Regex) -> Result<PreparedQuery, RpqError> {
        let source = || {
            regex
                .display_with(&|s| self.spec.tag_name(rpq_grammar::Tag(s.0)).to_owned())
                .to_string()
        };
        self.prepare_cached(source, regex)
    }

    /// `source` is rendered only on a cache miss.
    fn prepare_cached(
        &self,
        source: impl FnOnce() -> String,
        regex: &Regex,
    ) -> Result<PreparedQuery, RpqError> {
        // Stage-timed when a trace frame is open (a cache hit is still
        // a `plan` stage — just a very short one).
        let _plan_span = rpq_obs::Trace::span("plan");
        let key = format!("{regex:?}");
        if let Some(prepared) = self.plans.lock().expect("plan cache lock").get(&key) {
            self.plan_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(prepared.clone());
        }
        // Compile outside the lock: planning can be expensive and must
        // not serialize concurrent sessions' unrelated queries. The
        // minimal DFA is the dominant cost — compile it once and share
        // it between the planner, the stats and the safety verdict.
        let dfa = Arc::new(compile_minimal_dfa(regex, self.spec.n_tags()));
        let dfa_states = dfa.n_states();
        let plan = general::plan_query_with_dfa(&self.spec, regex, &dfa)?;
        // Definition-13 safety is a property of the query, not of the
        // chosen plan: a non-leaf plan settles it, but index-answered
        // leaves need an explicit probe — the verdict alone, no plan is
        // built to read it.
        let safe = match &plan {
            QueryPlan::Safe(_) => true,
            QueryPlan::Composite(_) if general::is_leaf(regex) => {
                SafeQueryPlan::check(&self.spec, &dfa).is_ok()
            }
            QueryPlan::Composite(_) => false,
        };
        let stats = PlanStats {
            dfa_states,
            n_safe_subqueries: plan.n_safe_subqueries(),
            kind: if plan.is_safe() {
                PlanKind::Safe
            } else {
                PlanKind::Composite
            },
            safe,
        };
        let prepared = PreparedQuery {
            inner: Arc::new(PreparedInner {
                spec: Arc::clone(&self.spec),
                source: source(),
                regex: regex.clone(),
                plan,
                dfa,
                stats,
            }),
        };
        // This call compiled, so it counts as a miss even if a racing
        // thread inserted the same key first (the first entry is kept
        // so clones stay identity-shared); hits + misses therefore
        // always equals the number of prepare calls.
        self.plan_misses.fetch_add(1, Ordering::Relaxed);
        let mut plans = self.plans.lock().expect("plan cache lock");
        let entry = plans.entry(key).or_insert(prepared);
        Ok(entry.clone())
    }

    /// Is `regex` safe w.r.t. the specification (Definition 13)?
    pub fn is_safe(&self, regex: &Regex) -> bool {
        let dfa = compile_minimal_dfa(regex, self.spec.n_tags());
        SafeQueryPlan::check(&self.spec, &dfa).is_ok()
    }

    /// Compile strictly as a safe plan, erroring when decomposition
    /// would be needed.
    pub fn plan_safe(&self, regex: &Regex) -> Result<SafeQueryPlan, RpqError> {
        Ok(SafeQueryPlan::compile(
            &self.spec,
            compile_minimal_dfa(regex, self.spec.n_tags()),
        )?)
    }

    /// The cached per-run tag index, building it on first sight of the
    /// run. Returns the index and whether the cache hit.
    pub fn index_for(&self, run: &Run) -> (Arc<TagIndex>, IndexCacheUse) {
        let _span = rpq_obs::Trace::span("index");
        let key = run_key(run);
        if let Some(index) = self.indexes.lock().expect("index cache lock").get(&key) {
            self.index_hits.fetch_add(1, Ordering::Relaxed);
            return (index, IndexCacheUse::Hit);
        }
        let built = Arc::new(TagIndex::build(run, self.spec.n_tags()));
        // As with plans: this call built an index, so it reports (and
        // counts) a miss even when it loses an insert race.
        self.index_misses.fetch_add(1, Ordering::Relaxed);
        let (kept, evicted) = self
            .indexes
            .lock()
            .expect("index cache lock")
            .insert_or_keep(key, built);
        self.index_evictions.fetch_add(evicted, Ordering::Relaxed);
        (kept, IndexCacheUse::Miss)
    }

    /// Adopt externally built per-run artifacts — typically decoded
    /// from a persistent run store — into the session caches, so the
    /// next evaluation over `run` hits instead of rebuilding. Entries
    /// already cached for the run are kept (the adopted copies are
    /// dropped); neither path touches the hit/miss counters, though
    /// LRU evictions triggered by the insert are counted as usual.
    pub fn seed_run_cache(&self, run: &Run, index: Arc<TagIndex>, csr: Option<Arc<CsrIndex>>) {
        let key = run_key(run);
        let (_, evicted) = self
            .indexes
            .lock()
            .expect("index cache lock")
            .insert_or_keep(key, index);
        self.index_evictions.fetch_add(evicted, Ordering::Relaxed);
        if let Some(csr) = csr {
            let (_, evicted) = self
                .csrs
                .lock()
                .expect("csr cache lock")
                .insert_or_keep(key, csr);
            self.csr_evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Is `run`'s tag index currently cached? Batch executors use this
    /// to skip redundant warm-artifact loads; it does not bump LRU
    /// recency or any counter.
    pub fn run_is_cached(&self, run: &Run) -> bool {
        self.indexes
            .lock()
            .expect("index cache lock")
            .contains(&run_key(run))
    }

    /// The cached per-run CSR adjacency arena, building it (and the tag
    /// index it derives from) on first sight of the run. Returns the
    /// arena and whether the cache hit.
    pub fn csr_for(&self, run: &Run) -> (Arc<CsrIndex>, IndexCacheUse) {
        let key = run_key(run);
        if let Some(csr) = self.csrs.lock().expect("csr cache lock").get(&key) {
            self.csr_hits.fetch_add(1, Ordering::Relaxed);
            return (csr, IndexCacheUse::Hit);
        }
        let (index, _) = self.index_for(run);
        self.csr_build(key, &index)
    }

    /// [`Session::csr_for`] when the caller already fetched the run's
    /// tag index — avoids a second index-cache interaction (and a
    /// second hit in the counters) per evaluation.
    fn csr_with(&self, run: &Run, index: &TagIndex) -> (Arc<CsrIndex>, IndexCacheUse) {
        let key = run_key(run);
        if let Some(csr) = self.csrs.lock().expect("csr cache lock").get(&key) {
            self.csr_hits.fetch_add(1, Ordering::Relaxed);
            return (csr, IndexCacheUse::Hit);
        }
        self.csr_build(key, index)
    }

    /// The cached CSR arena when `plan` can consume it (it contains a
    /// closure over an index leaf) and the kernel dispatch can take the
    /// bit path for this run; `None` otherwise — closure-free plans and
    /// universes past the bit-kernel memory guard never pay the arena
    /// build.
    fn csr_if_useful(
        &self,
        run: &Run,
        index: &TagIndex,
        plan: &QueryPlan,
    ) -> Option<Arc<CsrIndex>> {
        if !rpq_relalg::kernel::bits_representable(run.n_nodes()) || !general::plan_uses_csr(plan) {
            return None;
        }
        Some(self.csr_with(run, index).0)
    }

    fn csr_build(&self, key: RunKey, index: &TagIndex) -> (Arc<CsrIndex>, IndexCacheUse) {
        let _span = rpq_obs::Trace::span("csr");
        let built = Arc::new(CsrIndex::build(index));
        // As with plans and indexes: this call built an arena, so it
        // reports (and counts) a miss even when it loses an insert race.
        self.csr_misses.fetch_add(1, Ordering::Relaxed);
        let (kept, evicted) = self
            .csrs
            .lock()
            .expect("csr cache lock")
            .insert_or_keep(key, built);
        self.csr_evictions.fetch_add(evicted, Ordering::Relaxed);
        (kept, IndexCacheUse::Miss)
    }

    /// Evict cached per-run indexes and CSR arenas (e.g. after
    /// discarding a batch of runs); prepared plans are kept.
    pub fn clear_run_cache(&self) {
        self.indexes.lock().expect("index cache lock").clear();
        self.csrs.lock().expect("csr cache lock").clear();
    }

    /// Evict the cached artifacts of one run — fingerprint-level
    /// invalidation for live ingestion: when a stored run grows, its
    /// *old* fingerprint's entries are stale (the grown run keys
    /// differently, so they would never be overwritten, only orphaned).
    /// Pass the pre-growth run; returns whether anything was cached.
    /// Pair with [`Session::seed_run_cache`] on the grown run to swap
    /// the entries instead of merely dropping them.
    pub fn invalidate_run(&self, run: &Run) -> bool {
        let key = run_key(run);
        let index_dropped = self.indexes.lock().expect("index cache lock").remove(&key);
        let csr_dropped = self.csrs.lock().expect("csr cache lock").remove(&key);
        index_dropped || csr_dropped
    }

    /// Answer `request` for `query` over `run`.
    ///
    /// Safe plans never touch the tag index; composite plans fetch it
    /// from the per-run cache (building it at most once per run). The
    /// session picks the engine per request: the lazy product search
    /// (the query DFA composed with the run's CSR arena on the fly)
    /// when a shape-only cost model predicts it cheaper, and always
    /// where labels do not describe the run; the materialized
    /// relational/label plan otherwise. Safe plans on sound runs always
    /// evaluate materialized — label decoding is already constant-time
    /// per pair, so a product search could only lose.
    pub fn evaluate(
        &self,
        query: &PreparedQuery,
        run: &Run,
        request: &QueryRequest,
    ) -> QueryOutcome {
        self.evaluate_on(query, run, request, None)
    }

    /// Test hook: [`Session::evaluate`] on a named engine, so the
    /// differential suites can compare the two engines on every request
    /// mode. A run whose labels are unsound still goes lazy. Not part
    /// of the API; nothing outside tests calls it.
    #[doc(hidden)]
    pub fn evaluate_forced(
        &self,
        query: &PreparedQuery,
        run: &Run,
        request: &QueryRequest,
        engine: EvalStrategy,
    ) -> QueryOutcome {
        self.evaluate_on(query, run, request, Some(engine))
    }

    fn evaluate_on(
        &self,
        query: &PreparedQuery,
        run: &Run,
        request: &QueryRequest,
        forced: Option<EvalStrategy>,
    ) -> QueryOutcome {
        self.assert_owns(query);
        // Open a trace frame for this evaluation: the artifact lookups
        // below record `index`/`csr` spans, the evaluation proper is
        // the `eval` span (plus `lazy_expand` for product searches),
        // and the collected breakdown lands in `EvalMeta::stages`.
        // Frames nest, so a server tracing its own request stages
        // around this call is unaffected.
        rpq_obs::Trace::begin();
        // Where labels are unsound the product search reads the edge
        // lists as they actually are and takes over regardless.
        let use_lazy = labels_unsound(query, run)
            || match forced {
                Some(engine) => engine == EvalStrategy::Lazy,
                None => self.auto_picks_lazy(query, run, request),
            };
        lazy::record_strategy(use_lazy);
        if use_lazy {
            return self.evaluate_lazy(query, run, request);
        }
        let plan = &query.inner.plan;
        let kind = query.inner.stats.kind;
        // Composite evaluation needs the per-run index; safe plans
        // decode labels only. The CSR arena rides along only when the
        // plan actually closes over an index leaf and the universe fits
        // the bit path — never pay the build for dead weight.
        let (index, csr, index_cache) = match plan {
            QueryPlan::Safe(_) => (None, None, IndexCacheUse::NotNeeded),
            QueryPlan::Composite(..) => {
                let (index, usage) = self.index_for(run);
                let csr = self.csr_if_useful(run, &index, plan);
                (Some(index), csr, usage)
            }
        };
        let index = index.as_deref();
        let csr = csr.as_deref();

        // Evaluation is synchronous on this thread, so the thread-local
        // closure counters bracket it exactly even under concurrency.
        let closures_before = rpq_relalg::thread_closure_counts();
        let condensations_before = rpq_relalg::thread_condensation_counts();

        let eval_span = rpq_obs::Trace::span("eval");
        let (result, nodes_touched) = match request {
            QueryRequest::Pairwise(..) | QueryRequest::EntryExit => {
                let (u, v) = match request {
                    QueryRequest::Pairwise(u, v) => (*u, *v),
                    _ => (run.entry(), run.exit()),
                };
                let hit = match (plan, index) {
                    (QueryPlan::Safe(p), _) => p.pairwise(run, u, v),
                    (QueryPlan::Composite(..), Some(idx)) => {
                        general::pairwise_csr(plan, &self.spec, run, idx, csr, u, v)
                    }
                    (QueryPlan::Composite(..), None) => unreachable!("index fetched above"),
                };
                (QueryResult::Bool(hit), 2)
            }
            QueryRequest::AllPairs(l1, l2) => {
                let pairs = self.all_pairs_inner(plan, run, index, csr, l1, l2);
                (QueryResult::Pairs(pairs), l1.len() + l2.len())
            }
            QueryRequest::SourceStar(u) => {
                let all: Vec<NodeId> = run.node_ids().collect();
                let touched = all.len() + 1;
                let pairs = self.all_pairs_inner(plan, run, index, csr, &[*u], &all);
                (QueryResult::Pairs(pairs), touched)
            }
            QueryRequest::TargetStar(v) => {
                let all: Vec<NodeId> = run.node_ids().collect();
                let touched = all.len() + 1;
                let pairs = self.all_pairs_inner(plan, run, index, csr, &all, &[*v]);
                (QueryResult::Pairs(pairs), touched)
            }
            QueryRequest::Reachable(u) => {
                let all: Vec<NodeId> = run.node_ids().collect();
                let touched = all.len() + 1;
                let pairs = self.all_pairs_inner(plan, run, index, csr, &[*u], &all);
                let nodes: Vec<NodeId> = pairs.iter().map(|(_, v)| v).collect();
                (QueryResult::Nodes(nodes), touched)
            }
        };
        drop(eval_span);
        QueryOutcome {
            result,
            meta: EvalMeta {
                plan_kind: kind,
                index_cache,
                closures: rpq_relalg::thread_closure_counts().since(closures_before),
                condensations: rpq_relalg::thread_condensation_counts().since(condensations_before),
                nodes_touched,
                strategy: EvalStrategy::Materialized,
                product_states: 0,
                stages: rpq_obs::Trace::take(),
            },
        }
    }

    /// The session's per-request engine choice. Deliberately
    /// shape-only — it reads the run's node/edge counts and the plan's
    /// DFA size, never the tag index — so choosing a strategy can't
    /// perturb the session's index-cache hit/miss accounting.
    ///
    /// Lazy wins when the frontier-bound product search is predicted
    /// cheaper than materializing the plan's closures:
    /// `searches × |Q| × (n + m)` (product-search worst case) against
    /// `max(n, min(m·√n, n²))` (a semi-naive closure's ballpark). The
    /// search count is 1 for single-source/target modes and `|l1|` for
    /// all-pairs, so full-universe all-pairs requests — where the
    /// materialized closure amortizes across every source — stay
    /// materialized.
    fn auto_picks_lazy(&self, query: &PreparedQuery, run: &Run, request: &QueryRequest) -> bool {
        if query.inner.stats.kind != PlanKind::Composite
            || !general::plan_uses_csr(&query.inner.plan)
        {
            return false;
        }
        let n_searches = match request {
            QueryRequest::Pairwise(..)
            | QueryRequest::EntryExit
            | QueryRequest::SourceStar(_)
            | QueryRequest::TargetStar(_)
            | QueryRequest::Reachable(_) => 1.0,
            QueryRequest::AllPairs(l1, _) => l1.len().max(1) as f64,
        };
        let n = run.n_nodes() as f64;
        let m = run.n_edges() as f64;
        // The reversed-DFA `TargetStar` search walks the *transposed
        // arenas*, whose per-tag predecessor lists are deduplicated
        // pair sets — so its edge budget is the run's distinct-triple
        // count, not the raw event count. The two differ on stores
        // whose histories re-append existing edges (live streams
        // routinely do); charging the raw forward count there
        // over-priced the reversed walk and flipped the choice to
        // materialized on exactly the append-heavy runs where the
        // backward search is cheapest. Forward modes keep the raw
        // count: it is the conservative bound that holds full-universe
        // all-pairs requests on the materialized path.
        let m_lazy = match request {
            QueryRequest::TargetStar(_) => run.n_distinct_edges() as f64,
            _ => m,
        };
        let states = query.inner.stats.dfa_states.max(1) as f64;
        let lazy_cost = n_searches * states * (n + m_lazy);
        let materialized_cost = (m * n.max(1.0).sqrt()).min(n * n).max(n);
        lazy_cost < materialized_cost
    }

    /// The lazy product-graph evaluation path: compose the prepared
    /// query's minimal DFA with the run's CSR arena on the fly (see
    /// [`LazyEval`]). Uses the same per-run CSR cache as materialized
    /// composite evaluation, so the two strategies warm each other.
    fn evaluate_lazy(
        &self,
        query: &PreparedQuery,
        run: &Run,
        request: &QueryRequest,
    ) -> QueryOutcome {
        let (csr, index_cache) = self.csr_for(run);
        let closures_before = rpq_relalg::thread_closure_counts();
        let condensations_before = rpq_relalg::thread_condensation_counts();
        let expansions_before = lazy::thread_expansions();
        let eval_span = rpq_obs::Trace::span("eval");
        let mut engine = LazyEval::new(query.dfa(), &csr, self.spec.n_tags());
        let (result, nodes_touched) = match request {
            QueryRequest::Pairwise(..) | QueryRequest::EntryExit => {
                let (u, v) = match request {
                    QueryRequest::Pairwise(u, v) => (*u, *v),
                    _ => (run.entry(), run.exit()),
                };
                (QueryResult::Bool(engine.pairwise(u, v)), 2)
            }
            QueryRequest::AllPairs(l1, l2) => {
                let pairs = NodePairSet::from_pairs(engine.all_pairs(l1, l2));
                (QueryResult::Pairs(pairs), l1.len() + l2.len())
            }
            QueryRequest::SourceStar(u) => {
                let pairs: Vec<(NodeId, NodeId)> =
                    engine.reachable(*u).into_iter().map(|v| (*u, v)).collect();
                (
                    QueryResult::Pairs(NodePairSet::from_pairs(pairs)),
                    run.n_nodes() + 1,
                )
            }
            QueryRequest::TargetStar(v) => (
                QueryResult::Pairs(NodePairSet::from_pairs(engine.target_star(*v))),
                run.n_nodes() + 1,
            ),
            QueryRequest::Reachable(u) => {
                (QueryResult::Nodes(engine.reachable(*u)), run.n_nodes() + 1)
            }
        };
        drop(eval_span);
        QueryOutcome {
            result,
            meta: EvalMeta {
                plan_kind: query.inner.stats.kind,
                index_cache,
                closures: rpq_relalg::thread_closure_counts().since(closures_before),
                condensations: rpq_relalg::thread_condensation_counts().since(condensations_before),
                nodes_touched,
                strategy: EvalStrategy::Lazy,
                product_states: lazy::thread_expansions() - expansions_before,
                stages: rpq_obs::Trace::take(),
            },
        }
    }

    fn all_pairs_inner(
        &self,
        plan: &QueryPlan,
        run: &Run,
        index: Option<&TagIndex>,
        csr: Option<&CsrIndex>,
        l1: &[NodeId],
        l2: &[NodeId],
    ) -> NodePairSet {
        match (plan, index) {
            (QueryPlan::Safe(p), _) => {
                crate::allpairs::all_pairs_filtered(p, &self.spec, run, l1, l2)
            }
            (QueryPlan::Composite(..), Some(idx)) => {
                general::all_pairs_csr(plan, &self.spec, run, idx, csr, l1, l2)
            }
            (QueryPlan::Composite(..), None) => unreachable!("index fetched above"),
        }
    }

    /// Pairwise verdict: `evaluate(.., Pairwise(u, v))` as a bool.
    ///
    /// A safe plan over a run its labels describe is answered by the
    /// label decode alone ([`SafeQueryPlan::pairwise`]), counted as one
    /// materialized evaluation like `evaluate` would, without building
    /// the outcome, trace frame and metadata around it. Every other
    /// case goes through [`Session::evaluate`].
    pub fn pairwise(&self, query: &PreparedQuery, run: &Run, u: NodeId, v: NodeId) -> bool {
        if let QueryPlan::Safe(p) = &query.inner.plan {
            if !labels_unsound(query, run) {
                self.assert_owns(query);
                lazy::record_strategy(false);
                return p.pairwise(run, u, v);
            }
        }
        self.evaluate(query, run, &QueryRequest::Pairwise(u, v))
            .as_bool()
            .expect("pairwise outcome")
    }

    /// All-pairs result set: `evaluate(.., AllPairs(l1, l2))`'s pairs,
    /// answered by the engine `evaluate` would pick.
    pub fn all_pairs(
        &self,
        query: &PreparedQuery,
        run: &Run,
        l1: &[NodeId],
        l2: &[NodeId],
    ) -> NodePairSet {
        match self
            .evaluate(query, run, &QueryRequest::all_pairs(l1, l2))
            .result
        {
            QueryResult::Pairs(pairs) => pairs,
            _ => unreachable!("all-pairs requests produce pairs"),
        }
    }

    /// A prepared query carries λ matrices and tag ids compiled for
    /// one specification; evaluating it against a session over a
    /// different one would silently decode garbage. Identical-content
    /// specifications behind different `Arc`s are accepted (the
    /// equality check only runs when the pointers differ).
    fn assert_owns(&self, query: &PreparedQuery) {
        assert!(
            Arc::ptr_eq(&self.spec, &query.inner.spec) || *self.spec == *query.inner.spec,
            "PreparedQuery {:?} was prepared against a different specification \
             than this session's; re-prepare it on this session",
            query.source(),
        );
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("spec_size", &self.spec.size())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Would evaluating `query` on `run` decode labels that do not describe
/// the run? Safe (sub)plans decode derivation labels, and labels
/// describe reachability only on derivation DAGs. A streamed run that
/// has grown a cycle (`Run::apply_events` accepts arbitrary event
/// batches) is no derivation, so the label shortcut is unsound there —
/// for fully-safe plans *and* for composite plans with `SafeEval`
/// subtrees alike. The acyclicity verdict is cached on the run, so the
/// check costs a load on the steady-state path.
fn labels_unsound(query: &PreparedQuery, run: &Run) -> bool {
    query.inner.plan.n_safe_subqueries() > 0 && !run.is_acyclic()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_grammar::SpecificationBuilder;
    use rpq_labeling::{EventBatch, RunBuilder, RunEdge};

    fn spec() -> Specification {
        let mut b = SpecificationBuilder::new();
        b.atomic("t");
        b.atomic("u");
        b.composite("S");
        b.production("S", |w| {
            let x = w.node("t");
            let s = w.node("S");
            let y = w.node("u");
            w.edge_named(x, s, "go");
            w.edge_named(s, y, "done");
        });
        b.production("S", |w| {
            let x = w.node("t");
            let y = w.node("u");
            w.edge_named(x, y, "base");
        });
        b.start("S");
        b.build().unwrap()
    }

    #[test]
    fn prepare_twice_hits_the_plan_cache() {
        let session = Session::from_spec(spec());
        let q1 = session.prepare("go+ base _*").unwrap();
        let q2 = session.prepare("go+  base  _*").unwrap(); // different spelling
        assert_eq!(session.stats().plan_misses, 1);
        assert_eq!(session.stats().plan_hits, 1);
        // Same underlying plan object.
        assert!(Arc::ptr_eq(&q1.inner, &q2.inner));
    }

    #[test]
    fn index_is_built_once_per_run() {
        let session = Session::from_spec(spec());
        let run = RunBuilder::new(session.spec())
            .seed(2)
            .target_edges(60)
            .build()
            .unwrap();
        // Single-symbol queries are composite (index-answered) leaves.
        let q_go = session.prepare("go").unwrap();
        let q_base = session.prepare("base").unwrap();
        let all: Vec<NodeId> = run.node_ids().collect();
        // Forced materialized: the per-evaluation index-cache contract
        // is the subject (the lazy product search only touches the
        // index cache while building a missing CSR arena).
        let o1 = session.evaluate_forced(
            &q_go,
            &run,
            &QueryRequest::all_pairs(all.clone(), all.clone()),
            EvalStrategy::Materialized,
        );
        assert_eq!(o1.meta.index_cache, IndexCacheUse::Miss);
        let o2 = session.evaluate_forced(
            &q_base,
            &run,
            &QueryRequest::all_pairs(all.clone(), all),
            EvalStrategy::Materialized,
        );
        assert_eq!(o2.meta.index_cache, IndexCacheUse::Hit);
        assert_eq!(session.stats().index_misses, 1);
        assert_eq!(session.stats().index_hits, 1);
        // Leaf plans have no closure, so no CSR arena was built.
        assert_eq!(session.stats().csr_misses, 0);
    }

    #[test]
    fn csr_arena_is_built_once_and_only_for_closure_plans() {
        let session = Session::from_spec(spec());
        let run = RunBuilder::new(session.spec())
            .seed(4)
            .target_edges(60)
            .build()
            .unwrap();
        // `go+ base` is unsafe; its safe `go+` part is cheaper as a
        // join on this small run, and that lowering closes over an
        // index leaf: the arena is built on first evaluation, cached on
        // the second. (Forced materialized: this test pins the
        // relational path's artifact accounting.)
        let q = session.prepare("go+ base").unwrap();
        let entry = run.entry();
        let star = QueryRequest::source_star(entry);
        let forced = EvalStrategy::Materialized;
        session.evaluate_forced(&q, &run, &star, forced);
        assert_eq!(session.stats().csr_misses, 1);
        session.evaluate_forced(&q, &run, &star, forced);
        assert_eq!(session.stats().csr_hits, 1);
        assert_eq!(session.stats().csr_misses, 1);
        // One index interaction per evaluation, not two.
        assert_eq!(session.stats().index_misses + session.stats().index_hits, 2);
        // Eviction drops the arena with the index.
        session.clear_run_cache();
        session.evaluate_forced(&q, &run, &star, forced);
        assert_eq!(session.stats().csr_misses, 2);
    }

    #[test]
    fn closure_algorithms_surface_in_eval_meta() {
        let session = Session::from_spec(spec());
        let run = RunBuilder::new(session.spec())
            .seed(6)
            .target_edges(60)
            .build()
            .unwrap();
        let q = session.prepare("go+ base").unwrap();
        let entry = run.entry();
        let star = QueryRequest::source_star(entry);
        // Forced materialized throughout: closure counters are a
        // relational-path fact.
        let forced = EvalStrategy::Materialized;
        // A small run with a handful of `go` edges is a shape the
        // dispatch condenses: the one closure of the lowered `go+` runs
        // scc and the meta says so.
        let outcome = session.evaluate_forced(&q, &run, &star, forced);
        assert_eq!(outcome.meta.closures.scc, 1, "{:?}", outcome.meta.closures);
        assert_eq!(outcome.meta.closures.total(), 1);
        assert_eq!(outcome.meta.strategy, EvalStrategy::Materialized);
        assert_eq!(outcome.meta.product_states, 0);
        // Safe plans never touch the relational kernels.
        let safe = session.prepare("_*").unwrap();
        let outcome = session.evaluate(&safe, &run, &QueryRequest::entry_exit());
        assert_eq!(outcome.meta.closures, rpq_relalg::ClosureCounts::default());
    }

    #[test]
    fn k_tag_closures_condense_exactly_once() {
        let session = Session::from_spec(spec());
        let run = RunBuilder::new(session.spec())
            .seed(6)
            .target_edges(60)
            .build()
            .unwrap();
        // Three distinct closures in one plan (the lowered `go+`,
        // `done+` and `_+`), alternated so every branch evaluates:
        // Tarjan runs once over the run's full adjacency, the other two
        // closures — the wildcard one included — reuse the cached
        // component DAG.
        let q = session.prepare("go+ base | base done+ | _+ go _*").unwrap();
        let star = QueryRequest::source_star(run.entry());
        let outcome = session.evaluate_forced(&q, &run, &star, EvalStrategy::Materialized);
        assert_eq!(outcome.meta.closures.scc, 3, "{:?}", outcome.meta.closures);
        assert_eq!(
            outcome.meta.condensations.computed, 1,
            "{:?}",
            outcome.meta.condensations
        );
        assert_eq!(
            outcome.meta.condensations.reused, 2,
            "{:?}",
            outcome.meta.condensations
        );
        // The cache is evaluation-scoped: a fresh evaluation condenses
        // afresh (and reuses again), it does not inherit the last one.
        let outcome = session.evaluate_forced(&q, &run, &star, EvalStrategy::Materialized);
        assert_eq!(outcome.meta.condensations.computed, 1);
        assert_eq!(outcome.meta.condensations.reused, 2);
        // Lazy evaluations never condense.
        let outcome = session.evaluate_forced(&q, &run, &star, EvalStrategy::Lazy);
        assert_eq!(
            outcome.meta.condensations,
            rpq_relalg::CondensationCounts::default()
        );
    }

    #[test]
    fn target_star_auto_boundary_charges_the_transposed_arena() {
        // Regression: the reversed-DFA `TargetStar` search walks the
        // deduplicated transposed arenas, so the session must charge it the
        // run's distinct-triple count — not the raw event count, which
        // a live stream re-appending existing edges inflates
        // arbitrarily. Forward modes keep the conservative raw charge,
        // so the two sides of the decision boundary diverge on exactly
        // such runs.
        let session = Session::from_spec(spec());
        // Unsafe, two DFA states, and its `_*` part may lower to a
        // closure over the wildcard leaf: a plan the session weighs.
        let q = session.prepare("_* go _*").unwrap();
        let mut run = RunBuilder::new(session.spec())
            .seed(4)
            .target_edges(60)
            .build()
            .unwrap();
        let duplicates: Vec<RunEdge> = run
            .node_ids()
            .flat_map(|u| {
                run.out_edges(u)
                    .iter()
                    .map(move |&(v, tag)| RunEdge {
                        src: u,
                        dst: v,
                        tag,
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        let n = run.n_nodes() as f64;
        let s = q.inner.stats.dfa_states.max(1) as f64;
        let mat = |m_raw: f64| (m_raw * n.sqrt()).min(n * n).max(n);
        // Re-append the existing edges until the *raw* charge for one
        // search crosses the materialized estimate. The distinct count
        // never moves, so the run ends up straddling the boundary.
        for _ in 0..200 {
            let m_raw = run.n_edges() as f64;
            if s * (n + m_raw) >= mat(m_raw) {
                break;
            }
            run = run
                .apply_events(&EventBatch {
                    nodes: Vec::new(),
                    edges: duplicates.clone(),
                })
                .unwrap();
        }
        let m_raw = run.n_edges() as f64;
        let m_distinct = run.n_distinct_edges() as f64;
        assert!(m_distinct < m_raw);
        assert!(
            s * (n + m_raw) >= mat(m_raw),
            "raw-charged search must look more expensive than materializing"
        );
        assert!(
            s * (n + m_distinct) < mat(m_raw),
            "distinct-charged search must undercut it"
        );
        // The boundary: backward search lazy, forward search (same run,
        // same plan, still raw-charged) materialized.
        let target = QueryRequest::target_star(run.exit());
        assert!(session.auto_picks_lazy(&q, &run, &target));
        assert!(!session.auto_picks_lazy(&q, &run, &QueryRequest::source_star(run.entry())));
        // End to end: the session picks — and reports — lazy for the
        // backward search on this run.
        let outcome = session.evaluate(&q, &run, &target);
        assert_eq!(outcome.meta.strategy, EvalStrategy::Lazy);
    }

    #[test]
    fn evaluations_carry_a_stage_breakdown() {
        let session = Session::from_spec(spec());
        let run = RunBuilder::new(session.spec())
            .seed(11)
            .target_edges(60)
            .build()
            .unwrap();
        // A composite leaf touches the index: both stages appear.
        let q = session.prepare("go").unwrap();
        let all: Vec<NodeId> = run.node_ids().collect();
        let outcome = session.evaluate(&q, &run, &QueryRequest::all_pairs(all.clone(), all));
        let names: Vec<&str> = outcome.meta.stages.iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"index"), "{names:?}");
        assert!(names.contains(&"eval"), "{names:?}");
        // Safe plans have no artifact stage.
        let safe = session.prepare("_*").unwrap();
        let outcome = session.evaluate(&safe, &run, &QueryRequest::entry_exit());
        let names: Vec<&str> = outcome.meta.stages.iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"eval"), "{names:?}");
        assert!(!names.contains(&"index"), "{names:?}");
    }

    #[test]
    fn safe_plans_skip_the_index() {
        let session = Session::from_spec(spec());
        let run = RunBuilder::new(session.spec())
            .seed(3)
            .target_edges(60)
            .build()
            .unwrap();
        let q = session.prepare("_*").unwrap();
        assert!(q.is_safe());
        // Forced materialized: the claim is about the label-decoding
        // safe plan, which needs no per-run artifact at all; a forced
        // lazy evaluation would legitimately build the CSR arena.
        let outcome = session.evaluate_forced(
            &q,
            &run,
            &QueryRequest::pairwise(run.entry(), run.exit()),
            EvalStrategy::Materialized,
        );
        assert_eq!(outcome.as_bool(), Some(true));
        assert_eq!(outcome.meta.index_cache, IndexCacheUse::NotNeeded);
        assert_eq!(outcome.meta.plan_kind, PlanKind::Safe);
        assert_eq!(session.stats().index_misses, 0);
    }

    #[test]
    fn star_and_reachable_agree() {
        let session = Session::from_spec(spec());
        let run = RunBuilder::new(session.spec())
            .seed(5)
            .target_edges(80)
            .build()
            .unwrap();
        let q = session.prepare("go+").unwrap();
        let entry = run.entry();
        let star = session.evaluate(&q, &run, &QueryRequest::source_star(entry));
        let reach = session.evaluate(&q, &run, &QueryRequest::reachable(entry));
        let star_targets: Vec<NodeId> = star.as_pairs().unwrap().iter().map(|(_, v)| v).collect();
        assert_eq!(reach.as_nodes().unwrap(), star_targets.as_slice());

        // Target star is the transpose selection.
        let exit = run.exit();
        let tstar = session.evaluate(&q, &run, &QueryRequest::target_star(exit));
        for (u, v) in tstar.as_pairs().unwrap().iter() {
            assert_eq!(v, exit);
            assert!(session.pairwise(&q, &run, u, v));
        }
    }

    #[test]
    fn lazy_and_materialized_agree_and_surface_in_meta() {
        let session = Session::from_spec(spec());
        let run = RunBuilder::new(session.spec())
            .seed(12)
            .target_edges(80)
            .build()
            .unwrap();
        let q = session.prepare("go+ base _*").unwrap();
        let all: Vec<NodeId> = run.node_ids().collect();
        let requests = [
            QueryRequest::entry_exit(),
            QueryRequest::pairwise(run.entry(), run.exit()),
            QueryRequest::all_pairs(all.clone(), all.clone()),
            QueryRequest::source_star(run.entry()),
            QueryRequest::target_star(run.exit()),
            QueryRequest::reachable(run.entry()),
        ];
        for request in &requests {
            let lazy = session.evaluate_forced(&q, &run, request, EvalStrategy::Lazy);
            let mat = session.evaluate_forced(&q, &run, request, EvalStrategy::Materialized);
            assert_eq!(lazy.result, mat.result, "{request:?}");
            assert_eq!(lazy.meta.strategy, EvalStrategy::Lazy);
            assert_eq!(mat.meta.strategy, EvalStrategy::Materialized);
            assert!(lazy.meta.product_states > 0, "{request:?}");
            assert_eq!(mat.meta.product_states, 0);
            // Lazy evaluations never run relational closures, and their
            // product search shows up in the stage breakdown.
            assert_eq!(lazy.meta.closures.total(), 0);
            let names: Vec<&str> = lazy.meta.stages.iter().map(|(n, _)| *n).collect();
            assert!(names.contains(&"lazy_expand"), "{names:?}");
        }
        // The lazy path reports the CSR cache interaction: the first
        // evaluation above built the arena, the rest hit it.
        assert_eq!(session.stats().csr_misses, 1);
    }

    #[test]
    fn invalidate_run_evicts_only_that_run() {
        let session = Session::from_spec(spec());
        let run_a = RunBuilder::new(session.spec())
            .seed(8)
            .target_edges(40)
            .build()
            .unwrap();
        let run_b = RunBuilder::new(session.spec())
            .seed(9)
            .target_edges(60)
            .build()
            .unwrap();
        let q = session.prepare("go").unwrap();
        let all_a: Vec<NodeId> = run_a.node_ids().collect();
        let all_b: Vec<NodeId> = run_b.node_ids().collect();
        session.evaluate(&q, &run_a, &QueryRequest::all_pairs(all_a.clone(), all_a));
        session.evaluate(
            &q,
            &run_b,
            &QueryRequest::all_pairs(all_b.clone(), all_b.clone()),
        );
        assert!(session.run_is_cached(&run_a));
        assert!(session.run_is_cached(&run_b));

        assert!(session.invalidate_run(&run_a));
        assert!(!session.run_is_cached(&run_a));
        assert!(session.run_is_cached(&run_b));
        // Nothing left to drop for the same run.
        assert!(!session.invalidate_run(&run_a));
        // The survivor still answers from cache.
        let misses = session.stats().index_misses;
        session.evaluate(&q, &run_b, &QueryRequest::all_pairs(all_b.clone(), all_b));
        assert_eq!(session.stats().index_misses, misses);
    }

    #[test]
    fn prepared_queries_outlive_their_borrow_sites() {
        // The handle is detached: usable after the preparing scope ends
        // and across clones.
        let session = Session::from_spec(spec());
        let q = {
            let q = session.prepare("_* done").unwrap();
            q.clone()
        };
        let run = RunBuilder::new(session.spec())
            .seed(7)
            .target_edges(40)
            .build()
            .unwrap();
        assert!(session.pairwise(&q, &run, run.entry(), run.exit()));
    }
}
