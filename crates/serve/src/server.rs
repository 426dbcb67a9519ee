//! The query server: the backend tier's request dispatch over one
//! warm run store.
//!
//! One [`Server`] owns one shared [`Session`] and one [`RunStore`]:
//! the session's plan and per-run caches are `Send + Sync`, so every
//! worker thread evaluates straight off the same warm state — the
//! paper's *compile once, evaluate many* economics stretched across a
//! socket. The connection lifecycle — accept loop, admission control,
//! idle-connection parking, deadlines, chunked responses and shutdown
//! — is the network front end in [`crate::front`], which the routing
//! tier runs on too; this module keeps only what a request does. The
//! `serve_direct` and `serve_routed` benchmark workloads measure the
//! whole path over loopback.
//!
//! **Push mode.** [`WireRequest::Subscribe`] takes its connection over:
//! the worker evaluates the standing query after each append and
//! pushes only newly derived answers, oversized deltas chunked like
//! outcomes. A subscription pins its worker until the peer
//! unsubscribes, leaves, or shutdown drains it — the one exception to
//! idle parking.
//!
//! **Shutdown.** [`ShutdownHandle::shutdown`], the protocol's
//! [`WireRequest::Shutdown`] verb, or a SIGTERM/SIGINT flag installed
//! by the CLI ([`crate::signals`]) stops the front end; [`Server::run`]
//! then returns its final [`ServeReport`].

use crate::front::{Front, FrontCounters, Incoming, Limits, Link, Reply, Service, ShutdownHandle};
use crate::protocol::{
    QuerySpec, RunAddr, WireAppended, WireMetricsReply, WireOutcome, WireRequest, WireResponse,
    WireResult, WireRunInfo, WireStatsReply,
};
use rpq_core::{PreparedQuery, RpqError, Session};
use rpq_labeling::EventBatch;
use rpq_obs::{Counter, Histogram, MetricsSnapshot, Registry, SlowLog, SlowQuery};
use rpq_store::{OpenRun, RunId, RunStore};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Server configuration (the CLI's `rpq serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads = max in-flight connections; 0 means one per
    /// available CPU.
    pub workers: usize,
    /// Waiting-connection bound beyond the in-flight workers;
    /// connections past it receive [`WireResponse::Overloaded`].
    pub queue: usize,
    /// LRU bound for the session and store caches (`None` = unbounded).
    pub cache: Option<usize>,
    /// Idle keep-alive bound: a connection that sends no request for
    /// this long is closed cleanly. Idle connections are parked with
    /// the readiness poller (they pin no worker); this bounds how long
    /// one may stay parked. Distinct from `deadline` — that one
    /// polices a peer that stops *inside* a frame; this one polices a
    /// peer that stops *between* frames. Subscriptions are exempt (a
    /// quiet watcher is the normal state).
    pub idle_timeout: Duration,
    /// Per-request deadline: a peer that stalls mid-frame, or stops
    /// draining a response, is cut off after this long. The bound a
    /// fleet client can rely on — no request hangs past it.
    pub deadline: Duration,
    /// Result entries (pairs/nodes) per streamed chunk: an outcome
    /// larger than this ships as an [`WireResponse::OutcomeStream`]
    /// header plus `Chunk` frames of at most this many entries, so
    /// `AllPairs` over a huge run never builds one 64 MiB frame.
    pub chunk_entries: usize,
    /// Slow-query threshold in milliseconds: a query whose server-side
    /// time clears it is captured in the slow-query ring (query text,
    /// run fingerprint, closure counts, stage breakdown) and
    /// shipped with [`WireResponse::Metrics`]. `None` disables capture.
    pub slow_ms: Option<u64>,
    /// Optional second listener that answers every TCP connection with
    /// the Prometheus-style text exposition of the metrics registry and
    /// closes — scrapeable with `curl`/`nc`, no protocol needed.
    pub metrics_addr: Option<String>,
    /// Master observability switch: `false` skips registry recording,
    /// per-query tracing frames, and slow-log capture (the bench
    /// overhead guard measures this delta). Metrics verbs still answer,
    /// from whatever was recorded while observation was on.
    pub observe: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 0,
            queue: 64,
            cache: None,
            idle_timeout: Duration::from_secs(60),
            deadline: Duration::from_secs(30),
            chunk_entries: 65_536,
            slow_ms: None,
            metrics_addr: None,
            observe: true,
        }
    }
}

/// The server's registry handles, resolved once at bind time so the
/// request path records with single relaxed atomic ops — these are thin
/// views over the registry, which remains the source of truth for
/// stats, exposition, and fleet merging.
struct Counters {
    accepted: &'static Counter,
    requests: &'static Counter,
    overloaded: &'static Counter,
    request_errors: &'static Counter,
    subscriptions: &'static Counter,
    /// End-to-end server-side query latency, µs.
    request_micros: &'static Histogram,
    /// Response serialization + write time, µs (a stage that cannot
    /// ride in its own response, so it lives in the registry only).
    serialize_micros: &'static Histogram,
    /// Per-stage histograms, pre-resolved for every name the tracing
    /// layer emits — a name-keyed registry lookup (lock + hash +
    /// format!) per stage per request costs double-digit percent at
    /// loopback request rates.
    stage_micros: Vec<(&'static str, &'static Histogram)>,
}

/// Every stage name the serving path can report (tracing spans in
/// `Session::evaluate` — including the lazy engine's product-search
/// span — the store loader, and the server itself).
const STAGE_NAMES: [&str; 6] = ["plan", "index", "csr", "eval", "lazy_expand", "store_load"];

impl Counters {
    fn new(registry: &Registry) -> Counters {
        Counters {
            accepted: registry.counter("rpq_connections_accepted_total"),
            requests: registry.counter("rpq_requests_total"),
            overloaded: registry.counter("rpq_overloaded_total"),
            request_errors: registry.counter("rpq_request_errors_total"),
            subscriptions: registry.counter("rpq_subscriptions_total"),
            request_micros: registry.histogram("rpq_request_micros"),
            serialize_micros: registry.histogram("rpq_serialize_micros"),
            stage_micros: STAGE_NAMES
                .iter()
                .map(|name| {
                    (
                        *name,
                        registry.histogram(&format!("rpq_stage_micros{{stage=\"{name}\"}}")),
                    )
                })
                .collect(),
        }
    }

    /// The histogram for one stage: a linear scan over the handful of
    /// known names, falling back to a registry lookup for stages added
    /// by future layers.
    fn stage_histogram(&self, registry: &Registry, name: &str) -> &'static Histogram {
        match self.stage_micros.iter().find(|(n, _)| *n == name) {
            Some((_, histogram)) => histogram,
            None => registry.histogram(&format!("rpq_stage_micros{{stage=\"{name}\"}}")),
        }
    }
}

/// What the server did over its lifetime, returned by [`Server::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeReport {
    /// Connections accepted.
    pub accepted: u64,
    /// Requests served (all verbs).
    pub requests: u64,
    /// Connections refused by admission control.
    pub overloaded: u64,
    /// Requests answered with an error response.
    pub request_errors: u64,
    /// Median query latency over the server's lifetime, µs (log₂-bucket
    /// upper bound; 0 when no query ran).
    pub p50_us: u64,
    /// 99th-percentile query latency, µs.
    pub p99_us: u64,
}

/// A bound TCP query service over one warm run store.
pub struct Server {
    front: Front,
    store: Arc<RunStore>,
    session: Arc<Session>,
    cache: Option<usize>,
    registry: Arc<Registry>,
    counters: Counters,
    slow_log: SlowLog,
    observe: bool,
    /// Runs held open for streaming: the store's own registry keeps
    /// only weak handles, so the server pins each touched run's
    /// [`OpenRun`] for its lifetime — growth sequence numbers stay
    /// monotonic across requests, and appenders and subscribers on
    /// different connections share one growth signal.
    open_runs: Mutex<HashMap<RunId, Arc<OpenRun>>>,
}

impl Server {
    /// Bind the listener and assemble the shared session. The session
    /// shares the store's specification, so prepared plans and stored
    /// runs always agree; `config.cache` bounds both the session's
    /// per-run caches and the store's in-memory caches (bounding one
    /// side only would leave the other retaining the full corpus).
    pub fn bind(store: RunStore, config: &ServeConfig) -> Result<Server, RpqError> {
        let registry = Arc::new(Registry::new());
        let counters = Counters::new(&registry);
        let front = Front::bind(
            &config.addr,
            config.metrics_addr.as_deref(),
            Limits {
                workers: config.workers,
                queue: config.queue,
                idle_timeout: config.idle_timeout,
                deadline: config.deadline,
                chunk_entries: config.chunk_entries,
            },
            FrontCounters {
                accepted: counters.accepted,
                requests: counters.requests,
                overloaded: counters.overloaded,
                request_errors: Some(counters.request_errors),
                serialize_micros: config.observe.then_some(counters.serialize_micros),
            },
        )?;
        let store = Arc::new(match config.cache {
            Some(capacity) => store.with_cache_capacity(capacity),
            None => store,
        });
        let session = Session::new(store.spec_arc());
        let session = match config.cache {
            Some(capacity) => session.with_cache_capacity(capacity),
            None => session,
        };
        let slow_log = match config.slow_ms {
            Some(ms) => SlowLog::new(ms.saturating_mul(1_000), rpq_obs::DEFAULT_CAPACITY),
            None => SlowLog::disabled(),
        };
        Ok(Server {
            front,
            store,
            session: Arc::new(session),
            cache: config.cache,
            registry,
            counters,
            slow_log,
            observe: config.observe,
            open_runs: Mutex::new(HashMap::new()),
        })
    }

    /// The bound address (read the ephemeral port here).
    pub fn local_addr(&self) -> Result<SocketAddr, RpqError> {
        self.front.local_addr()
    }

    /// The bound metrics-exposition address, when
    /// [`ServeConfig::metrics_addr`] was set.
    pub fn metrics_local_addr(&self) -> Option<SocketAddr> {
        self.front.metrics_local_addr()
    }

    /// Worker threads the server will run.
    pub fn workers(&self) -> usize {
        self.front.workers()
    }

    /// A handle that stops this server from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.front.shutdown_handle()
    }

    /// Seed the session caches with stored runs' persisted artifacts
    /// (building and persisting any that are missing), so the first
    /// query of each warmed run hits instead of rebuilding. When the
    /// caches are LRU-bounded, only the *newest* `cache` runs are
    /// warmed — seeding more would decode artifacts straight into
    /// eviction. Returns the number of runs warmed.
    pub fn warm(&self) -> Result<usize, RpqError> {
        let ids = self.store.ids();
        let keep = self.cache.unwrap_or(usize::MAX).min(ids.len());
        let mut warmed = 0;
        for &id in &ids[ids.len() - keep..] {
            let run = self.store.run(id)?;
            let (tag, csr) = self.store.artifacts(id)?;
            self.session.seed_run_cache(&run, tag, Some(csr));
            warmed += 1;
        }
        Ok(warmed)
    }

    /// Serve until shutdown (handle, protocol verb, or the optional
    /// `external` flag — the CLI passes its SIGTERM/SIGINT flag here).
    /// Blocks the calling thread; workers run scoped inside.
    pub fn run(self, external: Option<&AtomicBool>) -> ServeReport {
        self.front.run(&self, external);
        let latency = self.counters.request_micros.snapshot();
        ServeReport {
            accepted: self.counters.accepted.get(),
            requests: self.counters.requests.get(),
            overloaded: self.counters.overloaded.get(),
            request_errors: self.counters.request_errors.get(),
            p50_us: latency.p50(),
            p99_us: latency.p99(),
        }
    }

    /// Evaluate one query request against the shared session, under a
    /// server-side trace frame. The frame collects the stages spent
    /// *outside* [`Session::evaluate`] — `plan` (compile or plan-cache
    /// lookup) and `store_load` (artifact decode) — while the session's
    /// own frame lands `index`/`csr`/`eval` in the outcome's metadata;
    /// the wire outcome carries the union when the request asked for
    /// it ([`QuerySpec::stages`]).
    fn evaluate(&self, spec: &QuerySpec) -> Result<WireOutcome, RpqError> {
        let started = Instant::now();
        if self.observe {
            rpq_obs::Trace::begin();
        }
        let evaluated = self.evaluate_inner(spec);
        let frame = if self.observe {
            rpq_obs::Trace::take()
        } else {
            Vec::new()
        };
        let mut outcome = evaluated?;
        let micros = started.elapsed().as_micros() as u64;
        // Merge the session's stages with the server's own frame —
        // static names throughout, so the hot path allocates no stage
        // strings. They materialize only for clients that opted in
        // ([`QuerySpec::stages`]) and for slow-log captures.
        let mut stages: rpq_obs::Stages = std::mem::take(&mut outcome.meta.stages);
        for (name, us) in frame {
            match stages.iter_mut().find(|(n, _)| *n == name) {
                Some(slot) => slot.1 += us,
                None => stages.push((name, us)),
            }
        }
        let mut wire = WireOutcome::from_outcome(&outcome, micros);
        if self.observe {
            self.observe_query(spec, &wire, &stages);
        }
        if spec.stages {
            wire.stages = stages.iter().map(|&(n, us)| (n.to_owned(), us)).collect();
        }
        Ok(wire)
    }

    /// The untimed body of [`Server::evaluate`] — separated so the
    /// trace frame opened around it is always closed, even on `?` exits.
    fn evaluate_inner(&self, spec: &QuerySpec) -> Result<rpq_core::QueryOutcome, RpqError> {
        spec.check_no_override()?;
        let id = self.resolve(&spec.run)?;
        let run = self.store.run(id)?;
        let request = spec.mode.to_request(&run)?;
        let query = self.session.prepare(&spec.query)?;
        Ok(self.session.evaluate(&query, &run, &request))
    }

    /// Record one evaluated query into the registry (latency and
    /// per-stage histograms) and, past the threshold, the slow-query
    /// ring.
    fn observe_query(&self, spec: &QuerySpec, wire: &WireOutcome, stages: &rpq_obs::Stages) {
        self.counters.request_micros.record(wire.micros);
        for &(name, us) in stages {
            self.counters
                .stage_histogram(&self.registry, name)
                .record(us);
        }
        if self.slow_log.qualifies(wire.micros) {
            let fingerprint = match spec.run {
                RunAddr::Fingerprint(hi, lo) => format!("{hi:016x}{lo:016x}"),
                RunAddr::Index(i) => match self.resolve(&spec.run).and_then(|id| {
                    self.store
                        .metas()
                        .iter()
                        .find(|m| m.id == id)
                        .map(|m| format!("{:016x}{:016x}", m.fp_hi, m.fp_lo))
                        .ok_or_else(|| RpqError::invalid("run vanished".to_owned()))
                }) {
                    Ok(fp) => fp,
                    Err(_) => format!("#{i}"),
                },
            };
            self.slow_log.record(SlowQuery {
                query: spec.query.clone(),
                fingerprint,
                closures: [wire.closure_pairs, wire.closure_bits, wire.closure_scc],
                stages: stages.iter().map(|&(n, us)| (n.to_owned(), us)).collect(),
                total_micros: wire.micros,
            });
        }
    }

    /// Open a run for streaming — or return the handle already held.
    /// The first live verb on a run opens it; the handle then stays
    /// pinned until the server stops.
    fn open(&self, id: RunId) -> Result<Arc<OpenRun>, RpqError> {
        let mut open_runs = self.open_runs.lock().expect("open-run table lock");
        if let Some(open) = open_runs.get(&id) {
            return Ok(Arc::clone(open));
        }
        let open = self.store.open_run(id)?;
        open_runs.insert(id, Arc::clone(&open));
        Ok(open)
    }

    /// Serve one run wholesale for replication.
    fn fetch_run(&self, addr: &RunAddr) -> Result<WireResponse, RpqError> {
        let id = self.resolve(addr)?;
        let run = self.store.run(id)?;
        Ok(WireResponse::RunData {
            epoch: self.store.epoch(),
            run: (*run).clone(),
        })
    }

    /// Resolve a wire run address to a store id.
    fn resolve(&self, addr: &RunAddr) -> Result<RunId, RpqError> {
        match *addr {
            RunAddr::Fingerprint(hi, lo) => {
                self.store.find_by_fingerprint(hi, lo).ok_or_else(|| {
                    RpqError::invalid(format!("no stored run has fingerprint {hi:016x}{lo:016x}"))
                })
            }
            RunAddr::Index(i) => self.store.id_at(i as usize).ok_or_else(|| {
                RpqError::invalid(format!(
                    "run #{i} out of range for a {}-run store",
                    self.store.len()
                ))
            }),
        }
    }

    /// Apply an append batch to an open run, then refresh the shared
    /// session at fingerprint granularity: the pre-growth run's cache
    /// entries are invalidated (they are orphans — that fingerprint no
    /// longer names a stored run) and the freshly maintained artifacts
    /// are seeded under the grown fingerprint, so the next query over
    /// the run hits warm instead of rebuilding.
    fn append(&self, addr: &RunAddr, batch: &EventBatch) -> Result<WireAppended, RpqError> {
        let id = self.resolve(addr)?;
        let open = self.open(id)?;
        let before = open.snapshot();
        let receipt = open.append_events(batch)?;
        if receipt.seq != before.seq {
            let after = open.snapshot();
            self.session.invalidate_run(&before.run);
            self.session.seed_run_cache(
                &after.run,
                Arc::clone(&after.tag),
                Some(Arc::clone(&after.csr)),
            );
        }
        Ok(WireAppended::from_appended(&receipt))
    }

    /// Evaluate a standing query against one live snapshot.
    fn eval_snapshot(
        &self,
        query: &PreparedQuery,
        spec: &QuerySpec,
        snap: &rpq_store::LiveSnapshot,
    ) -> Result<WireResult, RpqError> {
        let request = spec.mode.to_request(&snap.run)?;
        let outcome = self.session.evaluate(query, &snap.run, &request);
        Ok(WireResult::from_result(&outcome.result))
    }

    /// Run one subscription: evaluate the baseline, acknowledge with
    /// [`WireResponse::Subscribed`], then alternate short socket polls
    /// (to notice `Unsubscribe` / disconnect / shutdown) with waits on
    /// the open run's growth signal, pushing a [`WireResponse::Delta`]
    /// of *newly derived* answers after each append that changes the
    /// result. The worker is released the moment the peer leaves.
    fn serve_subscription(&self, link: &mut Link<'_>, spec: QuerySpec) -> Reply {
        // Stand the query up. Any setup failure is an ordinary error
        // response and the connection stays in request/response mode.
        let stood = (|| {
            spec.check_no_override()?;
            let id = self.resolve(&spec.run)?;
            let open = self.open(id)?;
            let query = self.session.prepare(&spec.query)?;
            let snap = open.snapshot();
            let retained = self.eval_snapshot(&query, &spec, &snap)?;
            Ok::<_, RpqError>((open, query, snap, retained))
        })();
        let (open, query, mut snap, mut retained) = match stood {
            Ok(stood) => stood,
            Err(e) => {
                self.counters.request_errors.incr();
                return resume_if_sent(link.send(&WireResponse::error(&e)));
            }
        };
        let ack = WireResponse::Subscribed {
            seq: snap.seq,
            initial: retained.clone(),
        };
        if link.send(&ack).is_err() {
            return Reply::Close;
        }
        self.counters.subscriptions.incr();

        // Push mode.
        loop {
            // SIGTERM/shutdown drains the subscriber: the worker is
            // released and the scope can join.
            if self.front.is_shutdown() {
                return Reply::Close;
            }
            match link.poll() {
                Ok(Incoming::Quiet) => {}
                Ok(Incoming::Closed) => return Reply::Close,
                Ok(Incoming::Request(WireRequest::Unsubscribe)) => {
                    self.counters.requests.incr();
                    return resume_if_sent(link.send(&WireResponse::Unsubscribed));
                }
                Ok(Incoming::Request(_)) => {
                    self.counters.requests.incr();
                    self.counters.request_errors.incr();
                    let refusal = RpqError::invalid(
                        "connection is in push mode; send Unsubscribe first".to_owned(),
                    );
                    if link.send(&WireResponse::error(&refusal)).is_err() {
                        return Reply::Close;
                    }
                }
                // Malformed frame: framing is lost, drop the connection.
                Err(_) => return Reply::Close,
            }
            if let Some(next) = open.wait_newer(snap.seq, Duration::from_millis(150)) {
                snap = next;
                let now = match self.eval_snapshot(&query, &spec, &snap) {
                    Ok(result) => result,
                    Err(e) => {
                        let _ = link.send(&WireResponse::error(&e));
                        return Reply::Close;
                    }
                };
                if let Some(added) = wire_added(&retained, &now) {
                    // Oversized deltas stream as a `DeltaStream` header
                    // plus bounded chunks, like a large outcome.
                    let delta = WireResponse::Delta {
                        seq: snap.seq,
                        added,
                    };
                    if link.send(&delta).is_err() {
                        return Reply::Close;
                    }
                }
                retained = now;
            }
        }
    }

    /// The stats verb's snapshot.
    fn stats(&self) -> WireStatsReply {
        let session = self.session.stats();
        let store = self.store.stats();
        let closures = rpq_relalg::closure_counts();
        let lazy = rpq_core::lazy_counts();
        WireStatsReply {
            plan_hits: session.plan_hits,
            plan_misses: session.plan_misses,
            index_hits: session.index_hits,
            index_misses: session.index_misses,
            csr_hits: session.csr_hits,
            csr_misses: session.csr_misses,
            session_evictions: session.index_evictions + session.csr_evictions,
            store_runs: self.store.len() as u64,
            tag_reloads: store.tag_reloads,
            csr_reloads: store.csr_reloads,
            tag_rebuilds: store.tag_rebuilds,
            csr_rebuilds: store.csr_rebuilds,
            accepted: self.counters.accepted.get(),
            requests: self.counters.requests.get(),
            overloaded: self.counters.overloaded.get(),
            request_errors: self.counters.request_errors.get(),
            closures_pairs: closures.pairs,
            closures_bits: closures.bits,
            closures_scc: closures.scc,
            condensations_computed: rpq_relalg::condensation_counts().computed,
            condensations_reused: rpq_relalg::condensation_counts().reused,
            store_epoch: store.epoch,
            appends: store.appended,
            append_rebuilds: store.append_rebuilds,
            subscriptions: self.counters.subscriptions.get(),
            retries: rpq_obs::global().counter("rpq_connect_retries_total").get(),
            strategy_lazy: lazy.lazy_evals,
            strategy_materialized: lazy.materialized_evals,
            lazy_expansions: lazy.expansions,
        }
    }

    /// The metrics verb's reply: the full snapshot plus the slow-query
    /// ring.
    fn metrics_reply(&self) -> WireMetricsReply {
        WireMetricsReply::from_snapshot(&self.metrics_snapshot(), self.slow_log.entries())
    }

    /// Freeze everything observable about this process into one
    /// mergeable snapshot: the server's own registry, the process-wide
    /// registry (client connect retries), and point-in-time readings
    /// derived from the session, store, and relalg counters that keep
    /// their own state.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.registry.snapshot();
        snap.merge(&rpq_obs::global().snapshot());
        let session = self.session.stats();
        let store = self.store.stats();
        let closures = rpq_relalg::closure_counts();
        let lazy = rpq_core::lazy_counts();
        let derived = MetricsSnapshot {
            counters: vec![
                (
                    "rpq_closures_total{kernel=\"bits\"}".to_owned(),
                    closures.bits,
                ),
                (
                    "rpq_closures_total{kernel=\"pairs\"}".to_owned(),
                    closures.pairs,
                ),
                (
                    "rpq_closures_total{kernel=\"scc\"}".to_owned(),
                    closures.scc,
                ),
                (
                    "rpq_condensations_total{outcome=\"computed\"}".to_owned(),
                    rpq_relalg::condensation_counts().computed,
                ),
                (
                    "rpq_condensations_total{outcome=\"reused\"}".to_owned(),
                    rpq_relalg::condensation_counts().reused,
                ),
                ("rpq_lazy_expansions_total".to_owned(), lazy.expansions),
                ("rpq_plan_cache_hits_total".to_owned(), session.plan_hits),
                (
                    "rpq_plan_cache_misses_total".to_owned(),
                    session.plan_misses,
                ),
                (
                    "rpq_session_evictions_total".to_owned(),
                    session.index_evictions + session.csr_evictions,
                ),
                (
                    "rpq_store_append_bytes_total".to_owned(),
                    store.append_bytes,
                ),
                (
                    "rpq_store_append_rebuilds_total".to_owned(),
                    store.append_rebuilds,
                ),
                ("rpq_store_appends_total".to_owned(), store.appended),
                (
                    "rpq_store_csr_rebuilds_total".to_owned(),
                    store.csr_rebuilds,
                ),
                ("rpq_store_csr_reloads_total".to_owned(), store.csr_reloads),
                (
                    "rpq_store_tag_rebuilds_total".to_owned(),
                    store.tag_rebuilds,
                ),
                ("rpq_store_tag_reloads_total".to_owned(), store.tag_reloads),
                (
                    "rpq_strategy_total{strategy=\"lazy\"}".to_owned(),
                    lazy.lazy_evals,
                ),
                (
                    "rpq_strategy_total{strategy=\"materialized\"}".to_owned(),
                    lazy.materialized_evals,
                ),
            ],
            gauges: vec![
                ("rpq_store_epoch".to_owned(), store.epoch as i64),
                ("rpq_store_runs".to_owned(), self.store.len() as i64),
            ],
            histograms: Vec::new(),
            notes: Vec::new(),
        };
        snap.merge(&derived);
        snap
    }
}

impl Service for Server {
    /// Dispatch one request. Every failure is an error response on a
    /// connection that stays usable.
    fn respond(&self, request: WireRequest, link: &mut Link<'_>) -> Reply {
        let answered = match request {
            WireRequest::Ping => Ok(WireResponse::Pong),
            WireRequest::ListRuns => Ok(WireResponse::Runs(
                self.store
                    .metas()
                    .iter()
                    .map(|m| WireRunInfo {
                        id: m.id.0,
                        fp_hi: m.fp_hi,
                        fp_lo: m.fp_lo,
                        n_nodes: m.n_nodes,
                        n_edges: m.n_edges,
                    })
                    .collect(),
            )),
            WireRequest::Stats => Ok(WireResponse::Stats(self.stats())),
            WireRequest::Metrics => Ok(WireResponse::Metrics(self.metrics_reply())),
            WireRequest::Shutdown => {
                self.front.shutdown();
                return Reply::Last(WireResponse::ShuttingDown);
            }
            WireRequest::Query(spec) => self.evaluate(&spec).map(WireResponse::Outcome),
            WireRequest::Append { run, batch } => {
                self.append(&run, &batch).map(WireResponse::Appended)
            }
            // Replication verbs: a peer (the router's sync loop, or a
            // sibling backend) fetches a stored run wholesale or pushes
            // one in. Both ride the ordinary dispatch path — the run
            // travels as one codec payload, and `Pushed`/`RunData`
            // carry the catalog epoch so the caller can gate on it.
            WireRequest::FetchRun(addr) => self.fetch_run(&addr),
            WireRequest::PushRun { run } => {
                self.store
                    .ingest(&run)
                    .map(|ingested| WireResponse::Pushed {
                        id: ingested.id.0,
                        deduplicated: u64::from(ingested.deduplicated),
                        epoch: self.store.epoch(),
                    })
            }
            // Subscribe flips the connection into push mode — it needs
            // the link itself, not a one-shot response.
            WireRequest::Subscribe(spec) => return self.serve_subscription(link, spec),
            // A subscription answers its own Unsubscribe; one reaching
            // plain dispatch has no subscription standing.
            WireRequest::Unsubscribe => Err(RpqError::invalid(
                "no subscription is standing on this connection".to_owned(),
            )),
        };
        Reply::Respond(answered.unwrap_or_else(|e| {
            self.counters.request_errors.incr();
            WireResponse::error(&e)
        }))
    }

    fn metrics_text(&self) -> String {
        self.metrics_snapshot().to_text()
    }
}

/// Keep serving after a reply the service wrote itself, unless the
/// write failed.
fn resume_if_sent(sent: Result<(), RpqError>) -> Reply {
    match sent {
        Ok(()) => Reply::Resume,
        Err(_) => Reply::Close,
    }
}

/// The answers in `now` that were not in `then` — what a
/// [`WireResponse::Delta`] carries. Results only grow under appends
/// (paths survive new edges), so set difference over the sorted wire
/// vectors is exact; a verdict pushes once, on its `false → true`
/// flip. `None` means nothing new (no frame goes out).
fn wire_added(then: &WireResult, now: &WireResult) -> Option<WireResult> {
    match (then, now) {
        (WireResult::Bool(was), WireResult::Bool(is)) => {
            (!was && *is).then_some(WireResult::Bool(true))
        }
        (WireResult::Pairs(old), WireResult::Pairs(new)) => {
            let added: Vec<(u32, u32)> = new
                .iter()
                .filter(|p| old.binary_search(p).is_err())
                .copied()
                .collect();
            (!added.is_empty()).then_some(WireResult::Pairs(added))
        }
        (WireResult::Nodes(old), WireResult::Nodes(new)) => {
            let added: Vec<u32> = new
                .iter()
                .filter(|n| old.binary_search(n).is_err())
                .copied()
                .collect();
            (!added.is_empty()).then_some(WireResult::Nodes(added))
        }
        // A shape change cannot happen for a fixed mode; push the full
        // result rather than silently dropping it.
        _ => Some(now.clone()),
    }
}
