#![warn(missing_docs)]

//! A fault-tolerant routing tier in front of a fleet of `rpq-serve`
//! backends.
//!
//! One [`Router`] speaks the same wire protocol as the backends
//! ([`rpq_serve::protocol`]) on its front side, and acts as a client
//! on its back side. It places every run fingerprint on the fleet with
//! a consistent-hash [`ring`](ring::HashRing) (R-way replication),
//! health-checks the backends (ping probes, consecutive-failure
//! ejection, half-open recovery — [`health`]), and on a backend
//! failure transparently retries the next replica under the shared
//! [`RetryPolicy`], so a single dead backend costs one failover, not a
//! failed query. When *no* replica answers, the client receives a
//! graceful [`WireResponse::Unavailable`] frame instead of a hang.
//!
//! The front side runs on the backends' own network front end
//! ([`rpq_serve::front`]): the same accept loop, admission control
//! (`workers + queue` live connections, graceful
//! [`WireResponse::Overloaded`] refusals), idle keep-alive parking,
//! deadlines and chunked responses. This crate keeps only the routing
//! dispatch and its two background loops.
//!
//! A background sync loop keeps replication flowing: it watches each
//! backend's catalog epoch (re-reading inventories only when the epoch
//! moves) and copies any run missing from one of its ring-assigned
//! replicas backend-to-backend with the protocol's
//! [`FetchRun`](WireRequest::FetchRun) / [`PushRun`](WireRequest::PushRun)
//! verbs. Runs are immutable, deduplicated by structural fingerprint,
//! so the copy is idempotent and safe to race with queries.
//!
//! The router serves **query traffic** — `Query`, `ListRuns` (the
//! merged fleet inventory), `Stats` (summed fleet counters), `Metrics`
//! (the fleet-wide observability scrape: router registry merged with
//! every reachable backend's snapshot), `Ping`, `Shutdown`. The
//! live-ingestion verbs (`Append`, `Subscribe`) and
//! the replication verbs are refused with a pointer to the backends:
//! they are stateful per-connection or per-store, and a transparent
//! proxy for them would have to forward growth signals it cannot
//! fan out correctly.
//!
//! Stand up two backends and a router, then query through it:
//!
//! ```
//! use rpq_router::{Router, RouterConfig};
//! use rpq_serve::{protocol::*, ServeClient, ServeConfig, Server};
//! use rpq_store::RunStore;
//! use std::sync::Arc;
//!
//! let spec = Arc::new(rpq_workloads::paper_examples::fig2_spec());
//! let run = rpq_labeling::RunBuilder::new(&spec)
//!     .seed(1)
//!     .target_edges(60)
//!     .build()
//!     .unwrap();
//! let mut backends = Vec::new();
//! let mut handles = Vec::new();
//! let mut joins = Vec::new();
//! let mut dirs = Vec::new();
//! for i in 0..2 {
//!     let dir = std::env::temp_dir().join(format!("rpq_router_doc_{}_{i}", std::process::id()));
//!     let _ = std::fs::remove_dir_all(&dir);
//!     let store = RunStore::create(&dir, Arc::clone(&spec)).unwrap();
//!     store.ingest(&run).unwrap();
//!     let server = Server::bind(store, &ServeConfig::default()).unwrap();
//!     backends.push(server.local_addr().unwrap());
//!     handles.push(server.shutdown_handle());
//!     joins.push(std::thread::spawn(move || server.run(None)));
//!     dirs.push(dir);
//! }
//!
//! let config = RouterConfig {
//!     backends,
//!     ..RouterConfig::default()
//! };
//! let router = Router::bind(&config).unwrap();
//! let addr = router.local_addr().unwrap();
//! let handle = router.shutdown_handle();
//! let routing = std::thread::spawn(move || router.run(None));
//!
//! // The router speaks the backend protocol: the ordinary client works.
//! let mut client = ServeClient::connect(addr).unwrap();
//! let outcome = client
//!     .query(QuerySpec {
//!         query: "_*".to_owned(),
//!         policy: String::new(),
//!         strategy: String::new(),
//!         run: RunAddr::Index(0),
//!         stages: false,
//!         mode: WireMode::EntryExit,
//!     })
//!     .unwrap();
//! assert_eq!(outcome.result, WireResult::Bool(true));
//!
//! handle.shutdown();
//! routing.join().unwrap();
//! for h in handles {
//!     h.shutdown();
//! }
//! for j in joins {
//!     j.join().unwrap();
//! }
//! # for dir in dirs { let _ = std::fs::remove_dir_all(&dir); }
//! ```

pub mod health;
pub mod ring;

use health::{Availability, HealthTable};
use ring::HashRing;
use rpq_core::RpqError;
use rpq_obs::{Counter, Registry};
use rpq_serve::front::{Front, FrontCounters, Limits, Link, Reply, Service};
use rpq_serve::protocol::{
    QuerySpec, RunAddr, WireMetricsReply, WireRequest, WireResponse, WireRunInfo, WireStatsReply,
};
use rpq_serve::{RetryPolicy, ServeClient};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub use rpq_serve::ShutdownHandle;

/// Router configuration (the CLI's `rpq router` flags).
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address for the front side; port 0 picks an ephemeral port.
    pub addr: String,
    /// The backend fleet, in ring order. The order is part of the
    /// placement: every router in front of the same fleet must list
    /// the backends identically.
    pub backends: Vec<SocketAddr>,
    /// Replication factor R: how many backends hold (and may answer
    /// for) each run. Capped at the fleet size.
    pub replication: usize,
    /// Worker threads on the front side; 0 means one per CPU.
    pub workers: usize,
    /// Waiting-connection bound; connections past `workers + queue`
    /// receive [`WireResponse::Overloaded`].
    pub queue: usize,
    /// Per-attempt deadline on the back side: connect, send and read
    /// against one backend are each bounded by it, so a black-holed
    /// backend costs one deadline, not a hang.
    pub deadline: Duration,
    /// Backoff between replica failovers (and the pacing the backends'
    /// own clients share).
    pub retry: RetryPolicy,
    /// Consecutive failures before a backend is ejected.
    pub eject_after: u32,
    /// How long an ejected backend cools before a half-open trial.
    pub cooldown: Duration,
    /// Cadence of the background ping probe over the fleet.
    pub probe_interval: Duration,
    /// Cadence of the replication sync loop; `None` disables
    /// replication (the router still fails over between whatever
    /// replicas already hold each run).
    pub sync_interval: Option<Duration>,
    /// Result entries per streamed chunk on the front side, mirroring
    /// [`rpq_serve::ServeConfig::chunk_entries`].
    pub chunk_entries: usize,
    /// Idle keep-alive bound for front-side connections: an idle
    /// client is parked with the readiness poller (it pins no worker)
    /// and closed once it stays quiet this long.
    pub idle_timeout: Duration,
    /// Optional plain-text metrics listener, mirroring
    /// [`rpq_serve::ServeConfig::metrics_addr`]: every connection gets
    /// the *fleet-wide* text exposition (router registry merged with
    /// every reachable backend's snapshot) and a close.
    pub metrics_addr: Option<String>,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:0".to_owned(),
            backends: Vec::new(),
            replication: 2,
            workers: 0,
            queue: 64,
            deadline: Duration::from_secs(5),
            retry: RetryPolicy::default(),
            eject_after: 3,
            cooldown: Duration::from_millis(500),
            probe_interval: Duration::from_millis(250),
            sync_interval: Some(Duration::from_millis(500)),
            chunk_entries: 65_536,
            idle_timeout: Duration::from_secs(60),
            metrics_addr: None,
        }
    }
}

/// What the router did over its lifetime, returned by [`Router::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterReport {
    /// Front-side connections accepted.
    pub accepted: u64,
    /// Requests served (all verbs).
    pub requests: u64,
    /// Connections refused by admission control.
    pub overloaded: u64,
    /// Attempts that failed over to another replica (backend down,
    /// overloaded, or missing the run).
    pub failovers: u64,
    /// Requests answered [`WireResponse::Unavailable`] — every replica
    /// was down.
    pub unavailable: u64,
    /// Runs copied between backends by the replication sync loop.
    pub synced_runs: u64,
    /// Backoff pauses taken between replica failover attempts.
    pub retries: u64,
}

/// The router's registry handles, resolved once at bind time; the
/// registry itself is the source of truth for the metrics verb and the
/// text exposition.
struct Counters {
    accepted: &'static Counter,
    requests: &'static Counter,
    overloaded: &'static Counter,
    failovers: &'static Counter,
    retries: &'static Counter,
    unavailable: &'static Counter,
    synced_runs: &'static Counter,
    /// Back-side connection pool traffic: a hit reuses a warm
    /// connection, a miss opens a fresh one, a discard drops a pooled
    /// connection that failed mid-use (stale or backend down).
    pool_hits: &'static Counter,
    pool_misses: &'static Counter,
    pool_discards: &'static Counter,
    /// Front-side dispatch latency, µs (includes the back-side trip).
    request_micros: &'static rpq_obs::Histogram,
}

impl Counters {
    fn new(registry: &Registry) -> Counters {
        Counters {
            accepted: registry.counter("rpq_router_connections_accepted_total"),
            requests: registry.counter("rpq_router_requests_total"),
            overloaded: registry.counter("rpq_router_overloaded_total"),
            failovers: registry.counter("rpq_router_failovers_total"),
            retries: registry.counter("rpq_router_retries_total"),
            unavailable: registry.counter("rpq_router_unavailable_total"),
            synced_runs: registry.counter("rpq_router_synced_runs_total"),
            pool_hits: registry.counter("rpq_router_pool_hits_total"),
            pool_misses: registry.counter("rpq_router_pool_misses_total"),
            pool_discards: registry.counter("rpq_router_pool_discards_total"),
            request_micros: registry.histogram("rpq_router_request_micros"),
        }
    }
}

/// A bound routing tier over a fleet of backends.
pub struct Router {
    front: Front,
    backends: Vec<SocketAddr>,
    ring: HashRing,
    health: HealthTable,
    replication: usize,
    /// Per-attempt deadline on the back side (the front end applies
    /// the same bound to front-side reads and writes).
    deadline: Duration,
    retry: RetryPolicy,
    probe_interval: Duration,
    sync_interval: Option<Duration>,
    registry: Arc<Registry>,
    counters: Counters,
    /// Warm back-side connections, one stack per backend: probes,
    /// inventory scans and failover attempts reuse a connected
    /// [`ServeClient`] instead of paying a TCP connect each time.
    pools: Vec<Mutex<Vec<ServeClient>>>,
}

/// Warm connections retained per backend; extras close on check-in.
const POOL_CAP: usize = 8;

impl Router {
    /// Bind the front listener and assemble the ring and health table.
    pub fn bind(config: &RouterConfig) -> Result<Router, RpqError> {
        if config.backends.is_empty() {
            return Err(RpqError::invalid(
                "a router needs at least one backend (--backend ADDR)".to_owned(),
            ));
        }
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
                request_errors: None,
                serialize_micros: None,
            },
        )?;
        let pools = (0..config.backends.len())
            .map(|_| Mutex::new(Vec::new()))
            .collect();
        Ok(Router {
            front,
            pools,
            ring: HashRing::new(config.backends.len()),
            health: HealthTable::new(config.backends.len(), config.eject_after, config.cooldown),
            backends: config.backends.clone(),
            replication: config.replication.clamp(1, config.backends.len()),
            deadline: config.deadline,
            retry: config.retry,
            probe_interval: config.probe_interval,
            sync_interval: config.sync_interval,
            registry,
            counters,
        })
    }

    /// The bound metrics-exposition address, when
    /// [`RouterConfig::metrics_addr`] was set.
    pub fn metrics_local_addr(&self) -> Option<SocketAddr> {
        self.front.metrics_local_addr()
    }

    /// The bound front address (read the ephemeral port here).
    pub fn local_addr(&self) -> Result<SocketAddr, RpqError> {
        self.front.local_addr()
    }

    /// Worker threads the router will run.
    pub fn workers(&self) -> usize {
        self.front.workers()
    }

    /// A handle that stops this router from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.front.shutdown_handle()
    }

    /// Route until shutdown (handle, protocol verb, or the optional
    /// `external` flag — the CLI passes its SIGTERM/SIGINT flag here).
    /// Blocks the calling thread; workers, prober and syncer run
    /// scoped inside.
    pub fn run(self, external: Option<&AtomicBool>) -> RouterReport {
        std::thread::scope(|scope| {
            // The prober and syncer stop on the front end's shutdown
            // flag, which the front end raises for `external` too.
            scope.spawn(|| self.run_prober());
            if self.sync_interval.is_some() {
                scope.spawn(|| self.run_syncer());
            }
            self.front.run(&self, external);
        });
        RouterReport {
            accepted: self.counters.accepted.get(),
            requests: self.counters.requests.get(),
            overloaded: self.counters.overloaded.get(),
            failovers: self.counters.failovers.get(),
            unavailable: self.counters.unavailable.get(),
            synced_runs: self.counters.synced_runs.get(),
            retries: self.counters.retries.get(),
        }
    }

    // -----------------------------------------------------------------
    // Dispatch.
    // -----------------------------------------------------------------

    /// Dispatch one front request.
    fn dispatch(&self, request: WireRequest) -> Reply {
        let response = match request {
            // The router answers for its own liveness — a fleet whose
            // backends are all down still pings (and reports
            // Unavailable for real work).
            WireRequest::Ping => WireResponse::Pong,
            WireRequest::Shutdown => {
                self.front.shutdown();
                return Reply::Last(WireResponse::ShuttingDown);
            }
            WireRequest::Stats => self.fleet_stats(),
            WireRequest::Metrics => WireResponse::Metrics(self.fleet_metrics()),
            WireRequest::ListRuns => match self.inventory() {
                Ok(merged) => WireResponse::Runs(merged),
                Err(message) => {
                    self.counters.unavailable.incr();
                    WireResponse::Unavailable { message }
                }
            },
            WireRequest::Query(spec) => self.route_query(spec),
            // Stateful verbs are refused with a pointer, not proxied:
            // appends and subscriptions bind to one backend's open-run
            // growth signal, and replication verbs are the sync loop's
            // internal traffic.
            WireRequest::Append { .. }
            | WireRequest::Subscribe(_)
            | WireRequest::Unsubscribe
            | WireRequest::FetchRun(_)
            | WireRequest::PushRun { .. } => WireResponse::error(&RpqError::invalid(
                "the router serves query traffic only \
                 (Query/ListRuns/Stats/Metrics/Ping/Shutdown); send \
                 live-ingestion and replication verbs directly to a backend",
            )),
        };
        Reply::Respond(response)
    }

    /// A freshly connected client against one backend, every I/O
    /// bounded by the per-attempt deadline. Back-side traffic goes
    /// through [`Router::with_backend`], which fronts this with the
    /// warm pool.
    fn backend_client(&self, backend: usize) -> Result<ServeClient, RpqError> {
        let mut client = ServeClient::connect_deadline(self.backends[backend], self.deadline)?;
        client.set_io_timeout(Some(self.deadline))?;
        Ok(client)
    }

    /// Run one back-side interaction against a backend over a pooled
    /// connection. A warm connection that fails mid-use is discarded
    /// and the interaction retried once on a fresh connect — the
    /// backend may simply have idle-closed the pooled socket, and only
    /// the fresh attempt is an authoritative health signal. Successful
    /// connections go back to the pool (bounded at [`POOL_CAP`]).
    ///
    /// `f` must be effectively idempotent: it can run twice when the
    /// pooled attempt fails. Every routed verb is (queries are
    /// read-only, `PushRun` deduplicates by fingerprint).
    fn with_backend<T>(
        &self,
        backend: usize,
        mut f: impl FnMut(&mut ServeClient) -> Result<T, RpqError>,
    ) -> Result<T, RpqError> {
        if let Some(mut client) = self.pool_take(backend) {
            self.counters.pool_hits.incr();
            match f(&mut client) {
                Ok(value) => {
                    self.pool_put(backend, client);
                    return Ok(value);
                }
                Err(_) => self.counters.pool_discards.incr(),
            }
        } else {
            self.counters.pool_misses.incr();
        }
        let mut client = self.backend_client(backend)?;
        let value = f(&mut client)?;
        self.pool_put(backend, client);
        Ok(value)
    }

    fn pool_take(&self, backend: usize) -> Option<ServeClient> {
        self.pools[backend].lock().expect("pool lock").pop()
    }

    fn pool_put(&self, backend: usize, client: ServeClient) {
        let mut pool = self.pools[backend].lock().expect("pool lock");
        if pool.len() < POOL_CAP {
            pool.push(client);
        }
    }

    /// Run `f` against every backend that is not cooling off, in fleet
    /// order, recording each outcome in the health table; the answers
    /// of those that replied.
    fn scan<T>(&self, mut f: impl FnMut(&mut ServeClient) -> Result<T, RpqError>) -> Vec<T> {
        let mut answers = Vec::new();
        for backend in 0..self.backends.len() {
            if self.health.availability(backend) == Availability::Ejected {
                continue;
            }
            match self.with_backend(backend, &mut f) {
                Ok(answer) => {
                    self.health.record_success(backend);
                    answers.push(answer);
                }
                Err(_) => self.health.record_failure(backend),
            }
        }
        answers
    }

    /// Route one query: resolve positional addressing against the
    /// merged inventory, then try the run's replicas in
    /// health-preferred ring order with backoff between failovers.
    fn route_query(&self, mut spec: QuerySpec) -> WireResponse {
        // Positional addresses are a router-local notion (each backend
        // numbers its catalog differently) — always rewrite to the
        // stable fingerprint before anything ships to a backend.
        let (fp_hi, fp_lo) = match spec.run {
            RunAddr::Fingerprint(hi, lo) => (hi, lo),
            RunAddr::Index(i) => match self.inventory() {
                Ok(merged) => match merged.get(i as usize) {
                    Some(info) => {
                        spec.run = RunAddr::Fingerprint(info.fp_hi, info.fp_lo);
                        (info.fp_hi, info.fp_lo)
                    }
                    None => {
                        return WireResponse::error(&RpqError::invalid(format!(
                            "run #{i} out of range for a {}-run fleet",
                            merged.len()
                        )))
                    }
                },
                Err(message) => {
                    self.counters.unavailable.incr();
                    return WireResponse::Unavailable { message };
                }
            },
        };
        let mut order = self.ring.replicas_for(fp_hi, fp_lo, self.replication);
        // Health-preferred: healthy replicas first, half-open trials
        // next, ejected corpses last-resort. The sort is stable, so
        // ring preference breaks ties inside each class.
        order.sort_by_key(|&b| match self.health.availability(b) {
            Availability::Healthy => 0u8,
            Availability::HalfOpen => 1,
            Availability::Ejected => 2,
        });
        let request = WireRequest::Query(spec);
        let salt = fp_hi ^ fp_lo.rotate_left(17);
        for (attempt, &backend) in order.iter().enumerate() {
            if attempt > 0 {
                self.counters.retries.incr();
                self.retry.pause((attempt - 1) as u32, salt);
            }
            match self.with_backend(backend, |c| c.request(&request)) {
                Ok(response) => {
                    if stale_replica(&response) {
                        // The backend is alive but has not replicated
                        // this run yet — its answer would be a false
                        // "no such run". Count it healthy, fail over.
                        self.health.record_success(backend);
                        self.counters.failovers.incr();
                        continue;
                    }
                    if backpressure(&response) {
                        // Alive but refusing (overloaded / draining):
                        // not a health event, but another replica may
                        // have room.
                        self.counters.failovers.incr();
                        continue;
                    }
                    self.health.record_success(backend);
                    return response;
                }
                Err(_) => {
                    self.health.record_failure(backend);
                    self.counters.failovers.incr();
                }
            }
        }
        self.counters.unavailable.incr();
        WireResponse::Unavailable {
            message: format!(
                "no replica answered for run {fp_hi:016x}{fp_lo:016x} \
                 ({} tried); the fleet may be down or still replicating",
                order.len()
            ),
        }
    }

    /// The merged fleet inventory: the union of every reachable
    /// backend's runs, deduplicated by fingerprint and sorted by it,
    /// re-numbered with fleet-wide positional ids. `Err` carries the
    /// Unavailable message when *no* backend answered.
    fn inventory(&self) -> Result<Vec<WireRunInfo>, String> {
        let inventories = self.scan(|c| c.runs());
        if inventories.is_empty() {
            return Err("no backend answered the inventory scan; the fleet is down".to_owned());
        }
        let mut merged: BTreeMap<(u64, u64), WireRunInfo> = BTreeMap::new();
        for info in inventories.into_iter().flatten() {
            merged.entry((info.fp_hi, info.fp_lo)).or_insert(info);
        }
        Ok(merged
            .into_values()
            .enumerate()
            .map(|(i, mut info)| {
                info.id = i as u64;
                info
            })
            .collect())
    }

    /// Fleet-wide stats: every reachable backend's counters summed
    /// field-wise. (Per-backend numbers — epochs in particular — come
    /// from querying a backend directly.)
    fn fleet_stats(&self) -> WireResponse {
        let replies = self.scan(|c| c.stats());
        if replies.is_empty() {
            self.counters.unavailable.incr();
            return WireResponse::Unavailable {
                message: "no backend answered the stats scan; the fleet is down".to_owned(),
            };
        }
        let mut total = WireStatsReply::default();
        for stats in &replies {
            add_stats(&mut total, stats);
        }
        // The router's own failover pauses ride along: a fleet client
        // asking for Stats sees retry pressure wherever it arises.
        total.retries += self.counters.retries.get();
        WireResponse::Stats(total)
    }

    /// One fleet-wide scrape: the router's own registry (request /
    /// failover / retry / sync counters, per-backend health gauges)
    /// merged name-wise with every reachable backend's metrics
    /// snapshot, slow-query rings concatenated. Unreachable backends
    /// simply contribute nothing — a scrape never fails outright.
    fn fleet_metrics(&self) -> WireMetricsReply {
        // Refresh the per-backend health gauges right before freezing.
        for (backend, addr) in self.backends.iter().enumerate() {
            let availability = self.health.availability(backend);
            self.registry
                .gauge(&format!("rpq_router_backend_healthy{{backend=\"{addr}\"}}"))
                .set(i64::from(availability == Availability::Healthy));
            self.registry
                .gauge(&format!("rpq_router_backend_ejected{{backend=\"{addr}\"}}"))
                .set(i64::from(availability == Availability::Ejected));
        }
        let mut snap = self.registry.snapshot();
        snap.merge(&rpq_obs::global().snapshot());
        let mut slow = Vec::new();
        for reply in self.scan(|c| c.metrics()) {
            snap.merge(&reply.to_snapshot());
            slow.extend(reply.slow);
        }
        let mut reply = WireMetricsReply::from_snapshot(&snap, Vec::new());
        reply.slow = slow;
        reply
    }

    // -----------------------------------------------------------------
    // Background loops.
    // -----------------------------------------------------------------

    /// Sleep in shutdown-polling ticks; false once shutdown is up.
    fn pace(&self, total: Duration) -> bool {
        let started = Instant::now();
        while started.elapsed() < total {
            if self.front.is_shutdown() {
                return false;
            }
            std::thread::sleep(Duration::from_millis(25).min(total));
        }
        !self.front.is_shutdown()
    }

    /// The prober: pings every backend that is not cooling off, so
    /// failures are noticed before traffic hits them and half-open
    /// backends get their recovery trial even when idle.
    fn run_prober(&self) {
        loop {
            for backend in 0..self.backends.len() {
                if self.front.is_shutdown() {
                    return;
                }
                if self.health.availability(backend) == Availability::Ejected {
                    continue;
                }
                match self.with_backend(backend, |c| c.ping()) {
                    Ok(()) => self.health.record_success(backend),
                    Err(_) => self.health.record_failure(backend),
                }
            }
            if !self.pace(self.probe_interval) {
                return;
            }
        }
    }

    /// The replication syncer: watch each backend's catalog epoch,
    /// re-inventory only when it moves, and copy any run missing from
    /// one of its ring-assigned replicas (FetchRun from a holder →
    /// PushRun to the replica). Runs are immutable and fingerprint-
    /// deduplicated, so every copy is idempotent.
    fn run_syncer(&self) {
        let interval = self.sync_interval.expect("syncer spawned without interval");
        // Per-backend (epoch, inventory) cache — the epoch gate.
        let mut cache: Vec<Option<(u64, Vec<WireRunInfo>)>> = vec![None; self.backends.len()];
        loop {
            if !self.pace(interval) {
                return;
            }
            self.sync_once(&mut cache);
        }
    }

    /// One replication round.
    fn sync_once(&self, cache: &mut [Option<(u64, Vec<WireRunInfo>)>]) {
        // Phase 1: snapshot each reachable backend's inventory, gated
        // on its catalog epoch (unchanged epoch → cached inventory).
        let mut view: Vec<Option<Vec<WireRunInfo>>> = vec![None; self.backends.len()];
        for backend in 0..self.backends.len() {
            if self.front.is_shutdown() {
                return;
            }
            if self.health.availability(backend) == Availability::Ejected {
                continue;
            }
            let epoch = match self.with_backend(backend, |c| c.stats()) {
                Ok(stats) => {
                    self.health.record_success(backend);
                    stats.store_epoch
                }
                Err(_) => {
                    self.health.record_failure(backend);
                    continue;
                }
            };
            let inventory = match &cache[backend] {
                Some((cached_epoch, inventory)) if *cached_epoch == epoch => inventory.clone(),
                _ => match self.with_backend(backend, |c| c.runs()) {
                    Ok(inventory) => {
                        cache[backend] = Some((epoch, inventory.clone()));
                        inventory
                    }
                    Err(_) => {
                        self.health.record_failure(backend);
                        continue;
                    }
                },
            };
            view[backend] = Some(inventory);
        }
        // Phase 2: for every known run, every reachable ring-assigned
        // replica that lacks it gets a copy from a current holder.
        let mut holders: BTreeMap<(u64, u64), Vec<usize>> = BTreeMap::new();
        for (backend, inventory) in view.iter().enumerate() {
            if let Some(inventory) = inventory {
                for info in inventory {
                    holders
                        .entry((info.fp_hi, info.fp_lo))
                        .or_default()
                        .push(backend);
                }
            }
        }
        for (&(fp_hi, fp_lo), holding) in &holders {
            for &replica in &self.ring.replicas_for(fp_hi, fp_lo, self.replication) {
                if self.front.is_shutdown() {
                    return;
                }
                if view[replica].is_none() || holding.contains(&replica) {
                    continue;
                }
                let Some(&donor) = holding.first() else {
                    continue;
                };
                let fetched =
                    self.with_backend(donor, |c| c.fetch_run(RunAddr::Fingerprint(fp_hi, fp_lo)));
                let Ok((_donor_epoch, run)) = fetched else {
                    continue;
                };
                // Cloned because a pooled attempt may retry the push
                // on a fresh connection (idempotent: fingerprint-
                // deduplicated server-side).
                if let Ok((_, deduplicated, _epoch)) =
                    self.with_backend(replica, |c| c.push_run(run.clone()))
                {
                    if !deduplicated {
                        self.counters.synced_runs.incr();
                    }
                    // The replica's epoch moved: drop its cache entry
                    // so the next round re-reads the inventory.
                    cache[replica] = None;
                }
            }
        }
    }
}

impl Service for Router {
    fn respond(&self, request: WireRequest, _link: &mut Link<'_>) -> Reply {
        let dispatched = Instant::now();
        let reply = self.dispatch(request);
        // Front-side dispatch latency, back-side trip included.
        self.counters
            .request_micros
            .record(dispatched.elapsed().as_micros() as u64);
        reply
    }

    fn metrics_text(&self) -> String {
        self.fleet_metrics().to_snapshot().to_text()
    }
}

/// Is this response a live backend telling us it does not hold the
/// run? (The exact message `rpq-serve`'s resolver produces — a stale
/// replica mid-replication, or a ring disagreement; either way another
/// replica may hold it.)
fn stale_replica(response: &WireResponse) -> bool {
    matches!(
        response,
        WireResponse::Error { kind, message }
            if kind == "invalid" && message.contains("no stored run has fingerprint")
    )
}

/// Is this response a refusal worth failing over (the backend is
/// alive, just not serving right now)?
fn backpressure(response: &WireResponse) -> bool {
    matches!(
        response,
        WireResponse::Overloaded { .. }
            | WireResponse::ShuttingDown
            | WireResponse::Unavailable { .. }
    )
}

/// Sum two stats snapshots field-wise.
fn add_stats(total: &mut WireStatsReply, s: &WireStatsReply) {
    total.plan_hits += s.plan_hits;
    total.plan_misses += s.plan_misses;
    total.index_hits += s.index_hits;
    total.index_misses += s.index_misses;
    total.csr_hits += s.csr_hits;
    total.csr_misses += s.csr_misses;
    total.session_evictions += s.session_evictions;
    total.store_runs += s.store_runs;
    total.tag_reloads += s.tag_reloads;
    total.csr_reloads += s.csr_reloads;
    total.tag_rebuilds += s.tag_rebuilds;
    total.csr_rebuilds += s.csr_rebuilds;
    total.accepted += s.accepted;
    total.requests += s.requests;
    total.overloaded += s.overloaded;
    total.request_errors += s.request_errors;
    total.closures_pairs += s.closures_pairs;
    total.closures_bits += s.closures_bits;
    total.closures_scc += s.closures_scc;
    total.condensations_computed += s.condensations_computed;
    total.condensations_reused += s.condensations_reused;
    total.store_epoch += s.store_epoch;
    total.appends += s.appends;
    total.append_rebuilds += s.append_rebuilds;
    total.subscriptions += s.subscriptions;
    total.retries += s.retries;
    total.strategy_lazy += s.strategy_lazy;
    total.strategy_materialized += s.strategy_materialized;
    total.lazy_expansions += s.lazy_expansions;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stale_replica_detection_matches_the_server_wording() {
        assert!(stale_replica(&WireResponse::Error {
            kind: "invalid".to_owned(),
            message: "no stored run has fingerprint 00000000000000010000000000000002".to_owned(),
        }));
        assert!(!stale_replica(&WireResponse::Error {
            kind: "parse".to_owned(),
            message: "no stored run has fingerprint 0".to_owned(),
        }));
        assert!(!stale_replica(&WireResponse::Pong));
    }

    #[test]
    fn backpressure_covers_refusals_not_request_faults() {
        assert!(backpressure(&WireResponse::Overloaded { queue: 4 }));
        assert!(backpressure(&WireResponse::ShuttingDown));
        assert!(backpressure(&WireResponse::Unavailable {
            message: String::new()
        }));
        assert!(!backpressure(&WireResponse::Error {
            kind: "parse".to_owned(),
            message: "bad query".to_owned(),
        }));
        assert!(!backpressure(&WireResponse::Pong));
    }

    #[test]
    fn bind_refuses_an_empty_fleet() {
        let err = match Router::bind(&RouterConfig::default()) {
            Ok(_) => panic!("an empty fleet must not bind"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("at least one backend"));
    }
}
