//! The query server: accept loop, bounded worker pool, admission
//! control.
//!
//! One [`Server`] owns one shared [`Session`] and one [`RunStore`]:
//! the session's plan and per-run caches are `Send + Sync`, so every
//! worker thread evaluates straight off the same warm state — the
//! paper's *compile once, evaluate many* economics stretched across a
//! socket. Concurrency is a hand-rolled pool in the style of
//! `rpq_core`'s batch executor (`std::thread::scope` + shared queue),
//! not an async runtime: connections are few and CPU-bound evaluation
//! dominates, so thread-per-worker with a bounded waiting room is both
//! simpler and measurably sufficient (see `BENCH_serve.json`).
//!
//! **Admission control.** At most `workers + queue` connections are
//! live at once, tracked by a per-connection permit released on close.
//! A connection beyond that is answered with one
//! [`WireResponse::Overloaded`] frame and closed — a graceful refusal
//! the client can see and back off from, never a silently dropped
//! socket.
//!
//! **Readiness loop.** Idle keep-alive connections do not pin workers:
//! a worker that sees no request for a short grace period *parks* the
//! connection with a poller thread, which scans parked sockets with
//! non-blocking peeks, closes the ones idle past `idle_timeout`, and
//! hands a connection back to the worker queue the moment its next
//! request's first byte arrives. Busy connections stay on their worker
//! between requests, so closed-loop throughput is unchanged.
//! Subscriptions still pin a worker — push mode is the documented
//! exception.
//!
//! **Deadlines.** A peer that stalls *inside* a request frame, or that
//! stops draining a response, is cut off after the configured
//! [`ServeConfig::deadline`] — a slowloris cannot hold a worker past
//! it. Outcomes whose result exceeds [`ServeConfig::chunk_entries`]
//! stream as one [`WireResponse::OutcomeStream`] header plus bounded
//! [`WireResponse::Chunk`] frames instead of one huge frame.
//!
//! **Shutdown.** The accept loop stops when the shutdown flag rises —
//! via [`ShutdownHandle::shutdown`], the protocol's
//! [`WireRequest::Shutdown`] verb, or a SIGTERM/SIGINT flag installed
//! by the CLI ([`crate::signals`]). Workers finish the request in
//! flight, drain the waiting queue, the poller drops parked
//! connections, and the server returns its final [`ServeReport`].

use crate::protocol::{
    self, error_kind, QuerySpec, RunAddr, WireAppended, WireMetricsReply, WireOutcome, WireRequest,
    WireResponse, WireResult, WireRunInfo, WireStatsReply,
};
use rpq_core::{EvalStrategy, PreparedQuery, RpqError, Session, SubqueryPolicy};
use rpq_labeling::EventBatch;
use rpq_obs::{Counter, Histogram, MetricsSnapshot, Registry, SlowLog, SlowQuery};
use rpq_store::{OpenRun, RunId, RunStore};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Worker read-timeout tick: how often a blocked read wakes to poll
/// the shutdown flag (and, between frames, the idle grace).
const READ_TICK: Duration = Duration::from_millis(50);

/// How long a worker waits between frames before parking the
/// connection with the poller. Long enough that a closed-loop client
/// issuing back-to-back requests never parks; short enough that an
/// idle keep-alive releases its worker promptly.
const IDLE_GRACE: Duration = Duration::from_millis(50);

/// The poller's scan cadence over parked connections.
const POLL_TICK: Duration = Duration::from_millis(5);

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
    /// Default subquery policy for requests that don't name one.
    pub policy: SubqueryPolicy,
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
            policy: SubqueryPolicy::CostBased,
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

/// A clonable handle that stops a running server from another thread.
#[derive(Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Ask the server to stop accepting and drain.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has shutdown been requested?
    pub fn is_shutdown(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Result of one patient read: the buffer was filled, the connection
/// is done (peer EOF / shutdown while idle), or the idle grace passed
/// between frames and the connection should be parked.
enum ReadOutcome {
    Filled,
    Done,
    Idle,
}

/// What one request-read produced for the connection loop.
enum ReadReq {
    Request(WireRequest),
    Closed,
    Idle,
}

/// One live-connection permit, counted against `workers + queue`.
/// Dropping it (connection closed anywhere — worker, poller, queue
/// drain) releases the slot.
struct Permit {
    live: Arc<AtomicUsize>,
}

impl Permit {
    fn acquire(live: &Arc<AtomicUsize>) -> Permit {
        live.fetch_add(1, Ordering::Relaxed);
        Permit {
            live: Arc::clone(live),
        }
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One admitted connection travelling between the accept loop, the
/// worker pool and the readiness poller.
struct Conn {
    stream: TcpStream,
    /// When the connection last went idle — the poller closes it once
    /// this is `idle_timeout` ago.
    idle_since: Instant,
    _permit: Permit,
}

/// How a subscription ended: back to request/response (clean
/// `Unsubscribe`) or the connection is done (disconnect, shutdown
/// drain, transport error).
enum SubExit {
    Resume,
    Close,
}

/// One non-blocking peek at a subscribed connection's read side.
enum SubPoll {
    /// Nothing pending.
    Quiet,
    /// The peer closed.
    Closed,
    /// A complete request frame arrived.
    Request(WireRequest),
}

/// The dispatch queue between the accept loop / poller and the
/// workers. Admission is enforced by [`Permit`]s, so the queue itself
/// only needs to bound against that same `workers + queue` total.
struct ConnQueue {
    state: Mutex<(VecDeque<Conn>, bool)>,
    ready: Condvar,
    capacity: usize,
}

impl ConnQueue {
    fn new(capacity: usize) -> ConnQueue {
        ConnQueue {
            state: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Enqueue a connection for a worker, or hand it back when the
    /// room is full (cannot happen while permits bound the live count,
    /// but the queue stays safe on its own).
    fn push(&self, conn: Conn) -> Result<(), Conn> {
        let mut state = self.state.lock().expect("conn queue lock");
        if state.0.len() >= self.capacity {
            return Err(conn);
        }
        state.0.push_back(conn);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Next waiting connection; blocks, and returns `None` once the
    /// queue is closed *and* drained.
    fn pop(&self) -> Option<Conn> {
        let mut state = self.state.lock().expect("conn queue lock");
        loop {
            if let Some(conn) = state.0.pop_front() {
                return Some(conn);
            }
            if state.1 {
                return None;
            }
            state = self.ready.wait(state).expect("conn queue wait");
        }
    }

    fn close(&self) {
        self.state.lock().expect("conn queue lock").1 = true;
        self.ready.notify_all();
    }
}

/// A bound TCP query service over one warm run store.
pub struct Server {
    listener: TcpListener,
    store: Arc<RunStore>,
    session: Arc<Session>,
    workers: usize,
    queue_cap: usize,
    cache: Option<usize>,
    policy: SubqueryPolicy,
    idle_timeout: Duration,
    deadline: Duration,
    chunk_entries: usize,
    shutdown: Arc<AtomicBool>,
    registry: Arc<Registry>,
    counters: Counters,
    slow_log: SlowLog,
    metrics_listener: Option<TcpListener>,
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
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| RpqError::io(format!("cannot bind {}", config.addr), e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| RpqError::io("cannot set the listener non-blocking", e))?;
        let store = Arc::new(match config.cache {
            Some(capacity) => store.with_cache_capacity(capacity),
            None => store,
        });
        // The store doubles as the session's durable plan tier: plans
        // compiled here persist beside the index artifacts, and a
        // restarted process reloads them instead of recompiling.
        let session = Session::new(store.spec_arc())
            .with_plan_store(Arc::clone(&store) as Arc<dyn rpq_core::PlanStore>);
        let session = match config.cache {
            Some(capacity) => session.with_cache_capacity(capacity),
            None => session,
        };
        let workers = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            config.workers
        };
        let metrics_listener = match &config.metrics_addr {
            Some(addr) => {
                let l = TcpListener::bind(addr)
                    .map_err(|e| RpqError::io(format!("cannot bind metrics address {addr}"), e))?;
                l.set_nonblocking(true)
                    .map_err(|e| RpqError::io("cannot set the metrics listener non-blocking", e))?;
                Some(l)
            }
            None => None,
        };
        let registry = Arc::new(Registry::new());
        let counters = Counters::new(&registry);
        let slow_log = match config.slow_ms {
            Some(ms) => SlowLog::new(ms.saturating_mul(1_000), rpq_obs::DEFAULT_CAPACITY),
            None => SlowLog::disabled(),
        };
        Ok(Server {
            listener,
            store,
            session: Arc::new(session),
            workers,
            queue_cap: config.queue.max(1),
            cache: config.cache,
            policy: config.policy,
            idle_timeout: config.idle_timeout,
            deadline: config.deadline,
            chunk_entries: config.chunk_entries.max(1),
            shutdown: Arc::new(AtomicBool::new(false)),
            registry,
            counters,
            slow_log,
            metrics_listener,
            observe: config.observe,
            open_runs: Mutex::new(HashMap::new()),
        })
    }

    /// The bound address (read the ephemeral port here).
    pub fn local_addr(&self) -> Result<SocketAddr, RpqError> {
        self.listener
            .local_addr()
            .map_err(|e| RpqError::io("cannot read the bound address", e))
    }

    /// The bound metrics-exposition address, when
    /// [`ServeConfig::metrics_addr`] was set.
    pub fn metrics_local_addr(&self) -> Option<SocketAddr> {
        self.metrics_listener
            .as_ref()
            .and_then(|l| l.local_addr().ok())
    }

    /// Worker threads the server will run.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// A handle that stops this server from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            flag: Arc::clone(&self.shutdown),
        }
    }

    /// Seed the session caches with stored runs' persisted artifacts
    /// (building and persisting any that are missing), so the first
    /// query of each warmed run hits instead of rebuilding. When the
    /// caches are LRU-bounded, only the *newest* `cache` runs are
    /// warmed — seeding more would decode artifacts straight into
    /// eviction. Also re-prepares every persisted compiled plan, so the
    /// restarted server answers its standing queries plan-warm from the
    /// first request. Returns the number of runs warmed.
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
        // Pull persisted plans through the store tier into the session
        // cache. Best-effort: a plan whose query no longer parses (or
        // whose persisted bytes fail validation) recompiles on demand.
        for (source, policy) in self.store.persisted_plans() {
            let _ = self.session.prepare_with(&source, policy);
        }
        Ok(warmed)
    }

    /// Serve until shutdown (handle, protocol verb, or the optional
    /// `external` flag — the CLI passes its SIGTERM/SIGINT flag here).
    /// Blocks the calling thread; workers run scoped inside.
    pub fn run(self, external: Option<&AtomicBool>) -> ServeReport {
        let capacity = self.workers + self.queue_cap;
        let queue = ConnQueue::new(capacity);
        // Connections a worker set aside between requests, awaiting
        // the poller's pickup.
        let parked_inbox: Mutex<Vec<Conn>> = Mutex::new(Vec::new());
        let live = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..self.workers {
                scope.spawn(|| {
                    while let Some(conn) = queue.pop() {
                        self.serve_connection(conn, &parked_inbox);
                    }
                });
            }
            // The readiness poller: watches parked idle connections so
            // they pin no worker, and re-dispatches them on their next
            // request's first byte.
            scope.spawn(|| self.poll_parked(&queue, &parked_inbox));
            // The metrics-exposition listener: any TCP connection gets
            // one plain-text registry dump and a close.
            if self.metrics_listener.is_some() {
                scope.spawn(|| self.serve_metrics_scrapes());
            }

            // Accept loop: non-blocking accept polled against the
            // shutdown flags, so SIGTERM is noticed within ~10 ms.
            loop {
                if external.is_some_and(|f| f.load(Ordering::Relaxed)) {
                    // Propagate: workers and the poller poll only the
                    // internal flag, and they must see the external
                    // (SIGTERM) one too or the scope would never join.
                    self.shutdown.store(true, Ordering::Relaxed);
                }
                if self.shutdown.load(Ordering::Relaxed) {
                    break;
                }
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        self.counters.accepted.incr();
                        // Admission control: refuse past `workers +
                        // queue` *live* connections (idle parked ones
                        // included — each holds resources either way).
                        if live.load(Ordering::Relaxed) >= capacity {
                            self.counters.overloaded.incr();
                            self.refuse(stream);
                            continue;
                        }
                        let conn = Conn {
                            stream,
                            idle_since: Instant::now(),
                            _permit: Permit::acquire(&live),
                        };
                        if let Err(rejected) = queue.push(conn) {
                            self.counters.overloaded.incr();
                            self.refuse(rejected.stream);
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        // Transient accept failure (e.g. aborted
                        // handshake): back off briefly and keep serving.
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
            }
            queue.close();
        });
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

    /// The metrics-exposition loop: accept, dump the registry's text
    /// exposition, close. Non-blocking accepts polled against the
    /// shutdown flag, same as the main listener; a stalled scraper is
    /// cut off by a short write timeout.
    fn serve_metrics_scrapes(&self) {
        let listener = self
            .metrics_listener
            .as_ref()
            .expect("metrics listener present when this loop runs");
        loop {
            if self.shutdown.load(Ordering::Relaxed) {
                return;
            }
            match listener.accept() {
                Ok((mut stream, _)) => {
                    let text = self.metrics_snapshot().to_text();
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
                    let _ = stream.write_all(text.as_bytes());
                    let _ = stream.flush();
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::Interrupted =>
                {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    }

    /// Graceful refusal: one Overloaded frame, then close. Bounded
    /// write timeout so a dead peer cannot wedge the accept loop.
    fn refuse(&self, mut stream: TcpStream) {
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
        if protocol::write_message(
            &mut stream,
            &WireResponse::Overloaded {
                queue: self.queue_cap as u64,
            },
        )
        .is_err()
        {
            return;
        }
        // The client may already have written a request; closing with
        // those bytes unread would turn the close into a TCP RST, which
        // on some stacks discards the Overloaded frame before the
        // client reads it. Signal end-of-responses, then briefly drain
        // the read side so the refusal survives in order.
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
        let mut sink = [0u8; 4096];
        for _ in 0..16 {
            match stream.read(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
    }

    /// The readiness poller: owns every parked (idle keep-alive)
    /// connection. Non-blocking peeks detect the next request's first
    /// byte (→ back to the worker queue), a clean close (→ drop), or
    /// continued silence (→ close once `idle_timeout` passes). On
    /// shutdown the parked set is dropped, draining idle connections
    /// without any worker involvement.
    fn poll_parked(&self, queue: &ConnQueue, parked_inbox: &Mutex<Vec<Conn>>) {
        let mut parked: Vec<Conn> = Vec::new();
        loop {
            if self.shutdown.load(Ordering::Relaxed) {
                return;
            }
            parked.append(&mut parked_inbox.lock().expect("parked inbox lock"));
            let mut i = 0;
            while i < parked.len() {
                let mut probe = [0u8; 1];
                match parked[i].stream.peek(&mut probe) {
                    // EOF: the peer left while parked.
                    Ok(0) => {
                        parked.swap_remove(i);
                    }
                    // A request has begun: back to blocking mode and
                    // onto the worker queue. The byte was only peeked,
                    // so the worker reads the frame from its start.
                    Ok(_) => {
                        let conn = parked.swap_remove(i);
                        if conn.stream.set_nonblocking(false).is_ok() {
                            // Queue overflow cannot happen (permits
                            // bound live connections to its capacity);
                            // if it somehow does, the push hands the
                            // connection back and it is dropped.
                            let _ = queue.push(conn);
                        }
                    }
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::Interrupted =>
                    {
                        if parked[i].idle_since.elapsed() > self.idle_timeout {
                            parked.swap_remove(i);
                        } else {
                            i += 1;
                        }
                    }
                    Err(_) => {
                        parked.swap_remove(i);
                    }
                }
            }
            std::thread::sleep(POLL_TICK);
        }
    }

    /// Serve requests on one connection until the peer closes, a
    /// transport error occurs, shutdown drains it, or it goes idle —
    /// idle connections are parked with the poller so they pin no
    /// worker.
    fn serve_connection(&self, mut conn: Conn, parked_inbox: &Mutex<Vec<Conn>>) {
        let _ = conn.stream.set_nonblocking(false);
        // Short read timeout: between requests the worker wakes to
        // check the shutdown flag and the idle grace instead of
        // blocking forever.
        let _ = conn.stream.set_read_timeout(Some(READ_TICK));
        // A peer that stops draining its response is cut off at the
        // deadline, same as one that stalls sending its request.
        let _ = conn.stream.set_write_timeout(Some(self.deadline));
        let _ = conn.stream.set_nodelay(true);
        loop {
            // Checked between requests too: a continuously busy
            // connection never hits the idle read path, and must still
            // drain (request in flight finished, response written).
            if self.shutdown.load(Ordering::Relaxed) {
                return;
            }
            let request = match self.read_request(&mut conn.stream) {
                Ok(ReadReq::Request(request)) => request,
                // Peer closed, or shutdown drained the idle connection.
                Ok(ReadReq::Closed) => return,
                // Idle past the grace: park with the poller and free
                // this worker for connections with work to do.
                Ok(ReadReq::Idle) => {
                    conn.idle_since = Instant::now() - IDLE_GRACE;
                    if conn.stream.set_nonblocking(true).is_ok() {
                        parked_inbox.lock().expect("parked inbox lock").push(conn);
                    }
                    return;
                }
                Err(e) => {
                    // Malformed frame: report once, then drop the
                    // connection (framing is lost).
                    let _ = protocol::write_message(
                        &mut conn.stream,
                        &WireResponse::Error {
                            kind: error_kind(&e).to_owned(),
                            message: e.to_string(),
                        },
                    );
                    return;
                }
            };
            self.counters.requests.incr();
            // Subscribe flips the connection into push mode — it needs
            // the stream itself, so it bypasses the one-shot dispatch.
            let request = match request {
                WireRequest::Subscribe(spec) => {
                    match self.serve_subscription(&mut conn.stream, spec) {
                        SubExit::Resume => continue,
                        SubExit::Close => return,
                    }
                }
                other => other,
            };
            let (response, stop) = self.handle(request);
            let serialize_started = Instant::now();
            match self.write_response(&mut conn.stream, &response) {
                Ok(()) => {}
                // An Invalid write error means the response exceeded
                // the frame cap and nothing hit the wire: the
                // connection is still in sync, so substitute an error
                // response the client can act on.
                Err(e @ RpqError::Invalid(_)) => {
                    self.counters.request_errors.incr();
                    let substitute = WireResponse::Error {
                        kind: error_kind(&e).to_owned(),
                        message: e.to_string(),
                    };
                    if protocol::write_message(&mut conn.stream, &substitute).is_err() {
                        return;
                    }
                }
                Err(_) => return,
            }
            if self.observe {
                self.counters
                    .serialize_micros
                    .record(serialize_started.elapsed().as_micros() as u64);
            }
            if stop {
                return;
            }
        }
    }

    /// Write one response, streaming oversized outcomes as an
    /// [`WireResponse::OutcomeStream`] header plus bounded
    /// [`WireResponse::Chunk`] frames.
    fn write_response(
        &self,
        stream: &mut TcpStream,
        response: &WireResponse,
    ) -> Result<(), RpqError> {
        if let WireResponse::Outcome(outcome) = response {
            if outcome.result.len() > self.chunk_entries {
                return self.write_streamed(stream, outcome);
            }
        }
        protocol::write_message(stream, response)
    }

    /// The chunked response path: header first (metadata plus an empty
    /// result of the right kind), then the matches in arrival-order
    /// slices of at most `chunk_entries`, the final one flagged `last`.
    fn write_streamed(
        &self,
        stream: &mut TcpStream,
        outcome: &WireOutcome,
    ) -> Result<(), RpqError> {
        let header = WireOutcome {
            result: outcome.result.empty_like(),
            ..outcome.clone()
        };
        protocol::write_message(stream, &WireResponse::OutcomeStream(header))?;
        match &outcome.result {
            WireResult::Pairs(pairs) => {
                let slices = pairs.chunks(self.chunk_entries);
                let n = slices.len();
                for (i, slice) in slices.enumerate() {
                    let frame = WireResponse::Chunk {
                        last: i + 1 == n,
                        part: WireResult::Pairs(slice.to_vec()),
                    };
                    protocol::write_message(stream, &frame)?;
                }
            }
            WireResult::Nodes(nodes) => {
                let slices = nodes.chunks(self.chunk_entries);
                let n = slices.len();
                for (i, slice) in slices.enumerate() {
                    let frame = WireResponse::Chunk {
                        last: i + 1 == n,
                        part: WireResult::Nodes(slice.to_vec()),
                    };
                    protocol::write_message(stream, &frame)?;
                }
            }
            // A one-bit verdict can never exceed the chunk bound; the
            // header already carried it, close the stream.
            WireResult::Bool(_) => {
                protocol::write_message(
                    stream,
                    &WireResponse::Chunk {
                        last: true,
                        part: outcome.result.clone(),
                    },
                )?;
            }
        }
        Ok(())
    }

    /// Read one request, waking on the read timeout to poll the
    /// shutdown flag and the idle grace.
    fn read_request(&self, stream: &mut TcpStream) -> Result<ReadReq, RpqError> {
        let mut header = [0u8; 9];
        // Patient header read: timeouts between requests are idleness,
        // not errors — but once a frame has started, a peer that stalls
        // past the deadline is cut off.
        let mut in_frame = false;
        match self.read_patient(stream, &mut header, &mut in_frame)? {
            ReadOutcome::Done => return Ok(ReadReq::Closed),
            ReadOutcome::Idle => return Ok(ReadReq::Idle),
            ReadOutcome::Filled => {}
        }
        let len = protocol::frame_len(&header)?;
        let mut payload = vec![0u8; len];
        match self.read_patient(stream, &mut payload, &mut in_frame)? {
            // `Idle` cannot surface here (`in_frame` is already set),
            // and an EOF inside the payload is an error either way.
            ReadOutcome::Done | ReadOutcome::Idle => Err(RpqError::invalid(
                "stream ended inside a frame payload".to_owned(),
            )),
            ReadOutcome::Filled => Ok(ReadReq::Request(protocol::decode_payload(&payload)?)),
        }
    }

    /// Fill `buf`, retrying read timeouts. Before any byte of the
    /// frame has arrived (`*in_frame` false), a timeout polls the
    /// shutdown flag and reports `Idle` once the parking grace passes;
    /// once inside a frame, stalls past the configured deadline are
    /// cut off. EOF before the first byte reports `Done`.
    fn read_patient(
        &self,
        stream: &mut TcpStream,
        buf: &mut [u8],
        in_frame: &mut bool,
    ) -> Result<ReadOutcome, RpqError> {
        let mut filled = 0;
        let mut stall_started: Option<Instant> = None;
        let mut idle_started: Option<Instant> = None;
        while filled < buf.len() {
            match stream.read(&mut buf[filled..]) {
                Ok(0) if !*in_frame && filled == 0 => return Ok(ReadOutcome::Done),
                Ok(0) => {
                    return Err(RpqError::invalid(
                        "stream ended inside a protocol frame".to_owned(),
                    ))
                }
                Ok(n) => {
                    filled += n;
                    *in_frame = true;
                    stall_started = None;
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if !*in_frame && filled == 0 {
                        // Idle between frames: drain on shutdown, park
                        // once the grace passes — an idle connection
                        // must not pin a worker.
                        if self.shutdown.load(Ordering::Relaxed) {
                            return Ok(ReadOutcome::Done);
                        }
                        let t0 = *idle_started.get_or_insert_with(Instant::now);
                        if t0.elapsed() >= IDLE_GRACE {
                            return Ok(ReadOutcome::Idle);
                        }
                        continue;
                    }
                    let t0 = *stall_started.get_or_insert_with(Instant::now);
                    if t0.elapsed() > self.deadline {
                        return Err(RpqError::invalid(format!(
                            "peer stalled mid-frame past the {:?} deadline",
                            self.deadline
                        )));
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(RpqError::io("cannot read request frame", e)),
            }
        }
        Ok(ReadOutcome::Filled)
    }

    /// Dispatch one request; the bool asks the connection loop to stop.
    fn handle(&self, request: WireRequest) -> (WireResponse, bool) {
        match request {
            WireRequest::Ping => (WireResponse::Pong, false),
            WireRequest::ListRuns => (
                WireResponse::Runs(
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
                ),
                false,
            ),
            WireRequest::Stats => (WireResponse::Stats(self.stats()), false),
            WireRequest::Metrics => (WireResponse::Metrics(self.metrics_reply()), false),
            WireRequest::Shutdown => {
                self.shutdown.store(true, Ordering::Relaxed);
                (WireResponse::ShuttingDown, true)
            }
            WireRequest::Query(spec) => match self.evaluate(&spec) {
                Ok(outcome) => (WireResponse::Outcome(outcome), false),
                Err(e) => {
                    self.counters.request_errors.incr();
                    (
                        WireResponse::Error {
                            kind: error_kind(&e).to_owned(),
                            message: e.to_string(),
                        },
                        false,
                    )
                }
            },
            WireRequest::Append { run, batch } => match self.append(&run, &batch) {
                Ok(receipt) => (WireResponse::Appended(receipt), false),
                Err(e) => {
                    self.counters.request_errors.incr();
                    (
                        WireResponse::Error {
                            kind: error_kind(&e).to_owned(),
                            message: e.to_string(),
                        },
                        false,
                    )
                }
            },
            // Replication verbs: a peer (the router's sync loop, or a
            // sibling backend) fetches a stored run wholesale or pushes
            // one in. Both ride the ordinary dispatch path — the run
            // travels as one codec payload, and `Pushed`/`RunData`
            // carry the catalog epoch so the caller can gate on it.
            WireRequest::FetchRun(addr) => match self.fetch_run(&addr) {
                Ok(response) => (response, false),
                Err(e) => {
                    self.counters.request_errors.incr();
                    (
                        WireResponse::Error {
                            kind: error_kind(&e).to_owned(),
                            message: e.to_string(),
                        },
                        false,
                    )
                }
            },
            WireRequest::PushRun { run } => match self.store.ingest(&run) {
                Ok(ingested) => (
                    WireResponse::Pushed {
                        id: ingested.id.0,
                        deduplicated: u64::from(ingested.deduplicated),
                        epoch: self.store.epoch(),
                    },
                    false,
                ),
                Err(e) => {
                    self.counters.request_errors.incr();
                    (
                        WireResponse::Error {
                            kind: error_kind(&e).to_owned(),
                            message: e.to_string(),
                        },
                        false,
                    )
                }
            },
            // Subscribe is intercepted by the connection loop; an
            // Unsubscribe reaching plain dispatch has no subscription
            // standing.
            WireRequest::Subscribe(_) | WireRequest::Unsubscribe => {
                self.counters.request_errors.incr();
                (
                    WireResponse::Error {
                        kind: "invalid".to_owned(),
                        message: "no subscription is standing on this connection".to_owned(),
                    },
                    false,
                )
            }
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
        let policy = self.resolve_policy(spec)?;
        let strategy = self.resolve_strategy(spec)?;
        let id = self.resolve(&spec.run)?;
        let run = self.store.run(id)?;
        let request = spec.mode.to_request(&run)?;
        let query = self.session.prepare_with(&spec.query, policy)?;
        Ok(self
            .session
            .evaluate_with_strategy(&query, &run, &request, strategy))
    }

    /// The request's subquery policy, or the server default when the
    /// spec leaves it empty.
    fn resolve_policy(&self, spec: &QuerySpec) -> Result<SubqueryPolicy, RpqError> {
        if spec.policy.is_empty() {
            return Ok(self.policy);
        }
        SubqueryPolicy::from_cli_name(&spec.policy).ok_or_else(|| {
            RpqError::invalid(format!(
                "invalid policy {:?}: valid policies are {}",
                spec.policy,
                SubqueryPolicy::NAMES.join(", ")
            ))
        })
    }

    /// The request's evaluation strategy; an empty field lets the cost
    /// model pick ([`EvalStrategy::Auto`]).
    fn resolve_strategy(&self, spec: &QuerySpec) -> Result<EvalStrategy, RpqError> {
        if spec.strategy.is_empty() {
            return Ok(EvalStrategy::Auto);
        }
        EvalStrategy::from_name(&spec.strategy).ok_or_else(|| {
            RpqError::invalid(format!(
                "invalid strategy {:?}: valid strategies are {}",
                spec.strategy,
                EvalStrategy::NAMES.join(", ")
            ))
        })
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
        let strategy = self.resolve_strategy(spec)?;
        let outcome = self
            .session
            .evaluate_with_strategy(query, &snap.run, &request, strategy);
        Ok(WireResult::from_result(&outcome.result))
    }

    /// Run one subscription: evaluate the baseline, acknowledge with
    /// [`WireResponse::Subscribed`], then alternate short socket polls
    /// (to notice `Unsubscribe` / disconnect / shutdown) with waits on
    /// the open run's growth signal, pushing a [`WireResponse::Delta`]
    /// of *newly derived* answers after each append that changes the
    /// result. The worker is released the moment the peer leaves.
    fn serve_subscription(&self, stream: &mut TcpStream, spec: QuerySpec) -> SubExit {
        // Stand the query up. Any setup failure is an ordinary error
        // response and the connection stays in request/response mode.
        let stood = (|| {
            let policy = self.resolve_policy(&spec)?;
            // Validate now so a bad strategy name fails the subscribe,
            // not the first delta push.
            self.resolve_strategy(&spec)?;
            let id = self.resolve(&spec.run)?;
            let open = self.open(id)?;
            let query = self.session.prepare_with(&spec.query, policy)?;
            Ok::<_, RpqError>((open, query))
        })();
        let (open, query) = match stood {
            Ok(stood) => stood,
            Err(e) => {
                self.counters.request_errors.incr();
                let report = WireResponse::Error {
                    kind: error_kind(&e).to_owned(),
                    message: e.to_string(),
                };
                return match protocol::write_message(stream, &report) {
                    Ok(()) => SubExit::Resume,
                    Err(_) => SubExit::Close,
                };
            }
        };
        let mut snap = open.snapshot();
        let mut retained = match self.eval_snapshot(&query, &spec, &snap) {
            Ok(result) => result,
            Err(e) => {
                self.counters.request_errors.incr();
                let report = WireResponse::Error {
                    kind: error_kind(&e).to_owned(),
                    message: e.to_string(),
                };
                return match protocol::write_message(stream, &report) {
                    Ok(()) => SubExit::Resume,
                    Err(_) => SubExit::Close,
                };
            }
        };
        let ack = WireResponse::Subscribed {
            seq: snap.seq,
            initial: retained.clone(),
        };
        if protocol::write_message(stream, &ack).is_err() {
            return SubExit::Close;
        }
        self.counters.subscriptions.incr();

        // Push mode. A tighter read timeout keeps both halves of the
        // poll/wait cycle responsive; the request/response timeout is
        // restored on a clean unsubscribe.
        let _ = stream.set_read_timeout(Some(READ_TICK));
        loop {
            // SIGTERM/shutdown drains the subscriber: the worker is
            // released and the scope can join.
            if self.shutdown.load(Ordering::Relaxed) {
                return SubExit::Close;
            }
            match self.poll_subscriber(stream) {
                Ok(SubPoll::Quiet) => {}
                Ok(SubPoll::Closed) => return SubExit::Close,
                Ok(SubPoll::Request(WireRequest::Unsubscribe)) => {
                    self.counters.requests.incr();
                    let _ = stream.set_read_timeout(Some(READ_TICK));
                    return match protocol::write_message(stream, &WireResponse::Unsubscribed) {
                        Ok(()) => SubExit::Resume,
                        Err(_) => SubExit::Close,
                    };
                }
                Ok(SubPoll::Request(_)) => {
                    self.counters.requests.incr();
                    self.counters.request_errors.incr();
                    let report = WireResponse::Error {
                        kind: "invalid".to_owned(),
                        message: "connection is in push mode; send Unsubscribe first".to_owned(),
                    };
                    if protocol::write_message(stream, &report).is_err() {
                        return SubExit::Close;
                    }
                }
                // Malformed frame: framing is lost, drop the connection.
                Err(_) => return SubExit::Close,
            }
            if let Some(next) = open.wait_newer(snap.seq, Duration::from_millis(150)) {
                snap = next;
                let now = match self.eval_snapshot(&query, &spec, &snap) {
                    Ok(result) => result,
                    Err(e) => {
                        let report = WireResponse::Error {
                            kind: error_kind(&e).to_owned(),
                            message: e.to_string(),
                        };
                        let _ = protocol::write_message(stream, &report);
                        return SubExit::Close;
                    }
                };
                if let Some(added) = wire_added(&retained, &now) {
                    if self.write_delta(stream, snap.seq, &added).is_err() {
                        return SubExit::Close;
                    }
                }
                retained = now;
            }
        }
    }

    /// Push one delta, streaming oversized payloads exactly like a
    /// chunked query outcome: a [`WireResponse::DeltaStream`] header
    /// (the sequence plus an empty result of the right kind) followed
    /// by bounded [`WireResponse::Chunk`] frames — an append landing
    /// thousands of new pairs never builds one huge push frame.
    fn write_delta(
        &self,
        stream: &mut TcpStream,
        seq: u64,
        added: &WireResult,
    ) -> Result<(), RpqError> {
        if added.len() <= self.chunk_entries {
            return protocol::write_message(
                stream,
                &WireResponse::Delta {
                    seq,
                    added: added.clone(),
                },
            );
        }
        let header = WireResponse::DeltaStream {
            seq,
            added: added.empty_like(),
        };
        protocol::write_message(stream, &header)?;
        match added {
            WireResult::Pairs(pairs) => {
                let slices = pairs.chunks(self.chunk_entries);
                let n = slices.len();
                for (i, slice) in slices.enumerate() {
                    let frame = WireResponse::Chunk {
                        last: i + 1 == n,
                        part: WireResult::Pairs(slice.to_vec()),
                    };
                    protocol::write_message(stream, &frame)?;
                }
            }
            WireResult::Nodes(nodes) => {
                let slices = nodes.chunks(self.chunk_entries);
                let n = slices.len();
                for (i, slice) in slices.enumerate() {
                    let frame = WireResponse::Chunk {
                        last: i + 1 == n,
                        part: WireResult::Nodes(slice.to_vec()),
                    };
                    protocol::write_message(stream, &frame)?;
                }
            }
            // A verdict never exceeds the chunk bound; unreachable, but
            // close the stream coherently if it ever does.
            WireResult::Bool(_) => {
                protocol::write_message(
                    stream,
                    &WireResponse::Chunk {
                        last: true,
                        part: added.clone(),
                    },
                )?;
            }
        }
        Ok(())
    }

    /// One non-blocking peek at a subscribed connection: nothing
    /// pending, a clean close, or a full request frame (read patiently
    /// once its first byte has arrived — the 30 s mid-frame stall
    /// deadline applies).
    fn poll_subscriber(&self, stream: &mut TcpStream) -> Result<SubPoll, RpqError> {
        let mut header = [0u8; 9];
        let first = match stream.read(&mut header) {
            Ok(0) => return Ok(SubPoll::Closed),
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                return Ok(SubPoll::Quiet)
            }
            Err(e) => return Err(RpqError::io("cannot read request frame", e)),
        };
        let mut in_frame = true;
        if first < header.len() {
            match self.read_patient(stream, &mut header[first..], &mut in_frame)? {
                // `Idle` cannot surface with `in_frame` already set.
                ReadOutcome::Done | ReadOutcome::Idle => {
                    return Err(RpqError::invalid(
                        "stream ended inside a frame header".to_owned(),
                    ))
                }
                ReadOutcome::Filled => {}
            }
        }
        let len = protocol::frame_len(&header)?;
        let mut payload = vec![0u8; len];
        match self.read_patient(stream, &mut payload, &mut in_frame)? {
            ReadOutcome::Done | ReadOutcome::Idle => Err(RpqError::invalid(
                "stream ended inside a frame payload".to_owned(),
            )),
            ReadOutcome::Filled => Ok(SubPoll::Request(protocol::decode_payload(&payload)?)),
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
            plan_reloads: store.plan_reloads,
            plan_rebuilds: store.plan_rebuilds,
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
                (
                    "rpq_store_plan_rebuilds_total".to_owned(),
                    store.plan_rebuilds,
                ),
                (
                    "rpq_store_plan_reloads_total".to_owned(),
                    store.plan_reloads,
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
