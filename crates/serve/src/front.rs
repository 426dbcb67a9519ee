//! The network front end both serving tiers run on: accept loop,
//! admission control, bounded worker pool, idle-connection parking,
//! patient request reads and the chunked response writer.
//!
//! A [`Front`] owns the listeners and the connection lifecycle; a
//! [`Service`] — the backend [`Server`](crate::Server) or the routing
//! tier in `rpq-router` — supplies only the request dispatch and the
//! metrics-scrape text. Concurrency is a hand-rolled pool in the style
//! of `rpq_core`'s batch executor (`std::thread::scope` + shared
//! queue), not an async runtime: connections are few and CPU-bound
//! evaluation dominates. The `serve_direct` and `serve_routed`
//! benchmark workloads drive this path end to end.
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
//! between requests, so closed-loop throughput is unchanged. A service
//! that takes a connection over ([`Reply::Resume`] after a
//! subscription) keeps its worker for as long as it holds the link.
//!
//! **Deadlines.** A peer that stalls *inside* a request frame, or that
//! stops draining a response, is cut off after the configured
//! [`Limits::deadline`] — a slowloris cannot hold a worker past it.
//! Outcomes and deltas whose result exceeds [`Limits::chunk_entries`]
//! stream as one [`WireResponse::OutcomeStream`] /
//! [`WireResponse::DeltaStream`] header plus bounded
//! [`WireResponse::Chunk`] frames instead of one huge frame.
//!
//! **Shutdown.** The accept loop stops when the shutdown flag rises —
//! via [`ShutdownHandle::shutdown`], a service's `Shutdown` verb, or
//! the `external` flag passed to [`Front::run`] (the CLI's
//! SIGTERM/SIGINT flag, [`crate::signals`]). Workers finish the request
//! in flight, drain the waiting queue, the poller drops parked
//! connections, and [`Front::run`] returns.

use crate::protocol::{self, WireOutcome, WireRequest, WireResponse, WireResult};
use rpq_core::RpqError;
use rpq_obs::{Counter, Histogram};
use std::collections::VecDeque;
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

/// How long a non-blocking accept loop sleeps when no connection is
/// pending (or an accept failed transiently).
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// A clonable handle that stops a running front end from another
/// thread.
#[derive(Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Ask the service to stop accepting and drain.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has shutdown been requested?
    pub fn is_shutdown(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// The connection-lifecycle bounds a service binds its front end with,
/// copied from its own configuration.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Worker threads; 0 means one per available CPU.
    pub workers: usize,
    /// Waiting-connection bound beyond the workers (at least 1).
    pub queue: usize,
    /// How long a parked connection may stay idle before it is closed.
    pub idle_timeout: Duration,
    /// Mid-frame stall bound on reads, and the write timeout.
    pub deadline: Duration,
    /// Result entries per streamed chunk (at least 1).
    pub chunk_entries: usize,
}

/// The service's registry handles the front end records into.
#[derive(Clone, Copy)]
pub struct FrontCounters {
    /// Connections accepted (refused ones included).
    pub accepted: &'static Counter,
    /// Requests read off a connection, every verb.
    pub requests: &'static Counter,
    /// Connections refused by admission control.
    pub overloaded: &'static Counter,
    /// Bumped when a response overflowed the frame cap and an error
    /// frame went out in its place; `None` counts nothing.
    pub request_errors: Option<&'static Counter>,
    /// Response write time, µs; `None` records nothing.
    pub serialize_micros: Option<&'static Histogram>,
}

/// What a [`Service`] tells the connection loop after one request.
pub enum Reply {
    /// Write this response and keep serving the connection.
    Respond(WireResponse),
    /// Write this response, then close the connection.
    Last(WireResponse),
    /// The service answered on the [`Link`] itself; keep serving.
    Resume,
    /// The service is done with the connection; close it.
    Close,
}

/// One request-serving tier: the dispatch a [`Front`] calls into.
pub trait Service: Sync {
    /// Answer one request. `link` is the connection, for a service
    /// that takes it over (push mode) instead of returning one
    /// response.
    fn respond(&self, request: WireRequest, link: &mut Link<'_>) -> Reply;

    /// The Prometheus-style text the metrics listener serves.
    fn metrics_text(&self) -> String;
}

/// What one request read produced.
pub enum Incoming {
    /// A complete request frame.
    Request(WireRequest),
    /// The peer closed, or shutdown drained the idle connection.
    Closed,
    /// No request began within the wait.
    Quiet,
}

/// A connection handed to [`Service::respond`], with the front end's
/// framing, deadlines and chunking.
pub struct Link<'a> {
    stream: &'a mut TcpStream,
    front: &'a Front,
}

impl Link<'_> {
    /// Write one response, streaming an oversized outcome or delta as
    /// a header plus bounded [`WireResponse::Chunk`] frames.
    pub fn send(&mut self, response: &WireResponse) -> Result<(), RpqError> {
        self.front.write_response(self.stream, response)
    }

    /// Wait one read tick for a request; a frame that has begun is
    /// read in full under the mid-frame deadline.
    pub fn poll(&mut self) -> Result<Incoming, RpqError> {
        self.front.read_request(self.stream, Duration::ZERO)
    }
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

/// The bound listeners and connection lifecycle of one service.
pub struct Front {
    listener: TcpListener,
    metrics_listener: Option<TcpListener>,
    /// With `workers` resolved and `queue` / `chunk_entries` at least 1.
    limits: Limits,
    shutdown: ShutdownHandle,
    counters: FrontCounters,
}

impl Front {
    /// Bind the request listener on `addr` and, when given, the
    /// metrics-exposition listener on `metrics_addr`.
    pub fn bind(
        addr: &str,
        metrics_addr: Option<&str>,
        limits: Limits,
        counters: FrontCounters,
    ) -> Result<Front, RpqError> {
        // Non-blocking: the accept loops poll against the shutdown flag.
        let listener =
            TcpListener::bind(addr).map_err(|e| RpqError::io(format!("cannot bind {addr}"), e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| RpqError::io("cannot set the listener non-blocking", e))?;
        let metrics_listener = match metrics_addr {
            Some(addr) => {
                let l = TcpListener::bind(addr)
                    .map_err(|e| RpqError::io(format!("cannot bind metrics address {addr}"), e))?;
                l.set_nonblocking(true)
                    .map_err(|e| RpqError::io("cannot set the metrics listener non-blocking", e))?;
                Some(l)
            }
            None => None,
        };
        let workers = if limits.workers == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            limits.workers
        };
        Ok(Front {
            listener,
            metrics_listener,
            limits: Limits {
                workers,
                queue: limits.queue.max(1),
                chunk_entries: limits.chunk_entries.max(1),
                ..limits
            },
            shutdown: ShutdownHandle {
                flag: Arc::new(AtomicBool::new(false)),
            },
            counters,
        })
    }

    /// The bound request address (read the ephemeral port here).
    pub fn local_addr(&self) -> Result<SocketAddr, RpqError> {
        self.listener
            .local_addr()
            .map_err(|e| RpqError::io("cannot read the bound address", e))
    }

    /// The bound metrics-exposition address, when one was requested.
    pub fn metrics_local_addr(&self) -> Option<SocketAddr> {
        self.metrics_listener
            .as_ref()
            .and_then(|l| l.local_addr().ok())
    }

    /// Worker threads [`Front::run`] will start.
    pub fn workers(&self) -> usize {
        self.limits.workers
    }

    /// A handle that stops [`Front::run`] from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// Raise the shutdown flag.
    pub fn shutdown(&self) {
        self.shutdown.shutdown();
    }

    /// Has shutdown been requested?
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.is_shutdown()
    }

    /// Serve `service` until shutdown (handle, a service's `Shutdown`
    /// verb, or the optional `external` flag — the CLI passes its
    /// SIGTERM/SIGINT flag here). Blocks the calling thread; workers,
    /// the poller and the metrics listener run scoped inside.
    pub fn run<S: Service>(&self, service: &S, external: Option<&AtomicBool>) {
        let capacity = self.limits.workers + self.limits.queue;
        let queue = ConnQueue::new(capacity);
        // Connections a worker set aside between requests, awaiting
        // the poller's pickup.
        let parked_inbox: Mutex<Vec<Conn>> = Mutex::new(Vec::new());
        let live = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..self.limits.workers {
                scope.spawn(|| {
                    while let Some(conn) = queue.pop() {
                        self.serve_connection(service, conn, &parked_inbox);
                    }
                });
            }
            // The readiness poller: watches parked idle connections so
            // they pin no worker, and re-dispatches them on their next
            // request's first byte.
            scope.spawn(|| self.poll_parked(&queue, &parked_inbox));
            // The metrics-exposition listener: any TCP connection gets
            // one plain-text registry dump and a close.
            if let Some(listener) = &self.metrics_listener {
                scope.spawn(move || self.serve_metrics_scrapes(listener, service));
            }

            // Accept loop: non-blocking accept polled against the
            // shutdown flags, so SIGTERM is noticed within ~10 ms.
            loop {
                if external.is_some_and(|f| f.load(Ordering::Relaxed)) {
                    // Propagate: workers and the poller poll only the
                    // internal flag, and they must see the external
                    // (SIGTERM) one too or the scope would never join.
                    self.shutdown();
                }
                if self.is_shutdown() {
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
                        std::thread::sleep(ACCEPT_BACKOFF);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        // Transient accept failure (e.g. aborted
                        // handshake): back off briefly and keep serving.
                        std::thread::sleep(ACCEPT_BACKOFF);
                    }
                }
            }
            queue.close();
        });
    }

    /// The metrics-exposition loop: accept, write the service's text
    /// exposition, close. Non-blocking accepts polled against the
    /// shutdown flag, same as the main listener; a stalled scraper is
    /// cut off by a short write timeout.
    fn serve_metrics_scrapes<S: Service>(&self, listener: &TcpListener, service: &S) {
        while !self.is_shutdown() {
            match listener.accept() {
                Ok((mut stream, _)) => {
                    let text = service.metrics_text();
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
                    let _ = stream.write_all(text.as_bytes());
                    let _ = stream.flush();
                }
                Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
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
                queue: self.limits.queue as u64,
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
            if self.is_shutdown() {
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
                        if parked[i].idle_since.elapsed() > self.limits.idle_timeout {
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
    fn serve_connection<S: Service>(
        &self,
        service: &S,
        mut conn: Conn,
        parked_inbox: &Mutex<Vec<Conn>>,
    ) {
        let _ = conn.stream.set_nonblocking(false);
        // Short read timeout: between requests the worker wakes to
        // check the shutdown flag and the idle grace instead of
        // blocking forever.
        let _ = conn.stream.set_read_timeout(Some(READ_TICK));
        // A peer that stops draining its response is cut off at the
        // deadline, same as one that stalls sending its request.
        let _ = conn.stream.set_write_timeout(Some(self.limits.deadline));
        let _ = conn.stream.set_nodelay(true);
        loop {
            // Checked between requests too: a continuously busy
            // connection never hits the idle read path, and must still
            // drain (request in flight finished, response written).
            if self.is_shutdown() {
                return;
            }
            let request = match self.read_request(&mut conn.stream, IDLE_GRACE) {
                Ok(Incoming::Request(request)) => request,
                Ok(Incoming::Closed) => return,
                // Idle past the grace: park with the poller and free
                // this worker for connections with work to do.
                Ok(Incoming::Quiet) => {
                    conn.idle_since = Instant::now() - IDLE_GRACE;
                    if conn.stream.set_nonblocking(true).is_ok() {
                        parked_inbox.lock().expect("parked inbox lock").push(conn);
                    }
                    return;
                }
                Err(e) => {
                    // Malformed frame: report once, then drop the
                    // connection (framing is lost).
                    let _ = protocol::write_message(&mut conn.stream, &WireResponse::error(&e));
                    return;
                }
            };
            self.counters.requests.incr();
            let mut link = Link {
                stream: &mut conn.stream,
                front: self,
            };
            let (response, last) = match service.respond(request, &mut link) {
                Reply::Respond(response) => (response, false),
                Reply::Last(response) => (response, true),
                Reply::Resume => continue,
                Reply::Close => return,
            };
            let serialize_started = Instant::now();
            match self.write_response(&mut conn.stream, &response) {
                Ok(()) => {}
                // An Invalid write error means the response exceeded
                // the frame cap and nothing hit the wire: the
                // connection is still in sync, so substitute an error
                // response the client can act on.
                Err(e @ RpqError::Invalid(_)) => {
                    if let Some(errors) = self.counters.request_errors {
                        errors.incr();
                    }
                    if protocol::write_message(&mut conn.stream, &WireResponse::error(&e)).is_err()
                    {
                        return;
                    }
                }
                Err(_) => return,
            }
            if let Some(serialize) = self.counters.serialize_micros {
                serialize.record(serialize_started.elapsed().as_micros() as u64);
            }
            if last {
                return;
            }
        }
    }

    /// Write one response, streaming an oversized outcome as an
    /// [`WireResponse::OutcomeStream`] header and an oversized delta as
    /// a [`WireResponse::DeltaStream`] header, each followed by bounded
    /// [`WireResponse::Chunk`] frames.
    fn write_response(
        &self,
        stream: &mut TcpStream,
        response: &WireResponse,
    ) -> Result<(), RpqError> {
        match response {
            WireResponse::Outcome(outcome) if outcome.result.len() > self.limits.chunk_entries => {
                let header = WireOutcome {
                    result: outcome.result.empty_like(),
                    ..outcome.clone()
                };
                let header = WireResponse::OutcomeStream(header);
                self.write_streamed(stream, &header, &outcome.result)
            }
            WireResponse::Delta { seq, added } if added.len() > self.limits.chunk_entries => {
                let header = WireResponse::DeltaStream {
                    seq: *seq,
                    added: added.empty_like(),
                };
                self.write_streamed(stream, &header, added)
            }
            _ => protocol::write_message(stream, response),
        }
    }

    /// The chunked response path: `header` first (metadata plus an
    /// empty result of the right kind), then `result` in arrival-order
    /// slices of at most `chunk_entries`, the final one flagged `last`.
    fn write_streamed(
        &self,
        stream: &mut TcpStream,
        header: &WireResponse,
        result: &WireResult,
    ) -> Result<(), RpqError> {
        protocol::write_message(stream, header)?;
        let emit = |stream: &mut TcpStream, last: bool, part: WireResult| {
            protocol::write_message(stream, &WireResponse::Chunk { last, part })
        };
        match result {
            WireResult::Pairs(pairs) => {
                let slices = pairs.chunks(self.limits.chunk_entries);
                let n = slices.len();
                for (i, slice) in slices.enumerate() {
                    emit(stream, i + 1 == n, WireResult::Pairs(slice.to_vec()))?;
                }
            }
            WireResult::Nodes(nodes) => {
                let slices = nodes.chunks(self.limits.chunk_entries);
                let n = slices.len();
                for (i, slice) in slices.enumerate() {
                    emit(stream, i + 1 == n, WireResult::Nodes(slice.to_vec()))?;
                }
            }
            // A one-bit verdict can never exceed the chunk bound; the
            // header already carried it, close the stream.
            WireResult::Bool(_) => emit(stream, true, result.clone())?,
        }
        Ok(())
    }

    /// Read one request, waking on the read timeout to poll the
    /// shutdown flag; `Quiet` once `grace` passes with no frame begun.
    fn read_request(&self, stream: &mut TcpStream, grace: Duration) -> Result<Incoming, RpqError> {
        let mut header = [0u8; 9];
        // Patient header read: timeouts between requests are idleness,
        // not errors — but once a frame has started, a peer that stalls
        // past the deadline is cut off.
        let mut in_frame = false;
        if let Some(unread) = self.read_patient(stream, &mut header, &mut in_frame, grace)? {
            return Ok(unread);
        }
        let len = protocol::frame_len(&header)?;
        let mut payload = vec![0u8; len];
        // With `in_frame` set, only an error can cut the payload short;
        // an early end is reported as one either way.
        if self
            .read_patient(stream, &mut payload, &mut in_frame, grace)?
            .is_some()
        {
            return Err(RpqError::invalid(
                "stream ended inside a frame payload".to_owned(),
            ));
        }
        Ok(Incoming::Request(protocol::decode_payload(&payload)?))
    }

    /// Fill `buf` (`None`), retrying read timeouts. Before any byte of
    /// the frame has arrived (`*in_frame` false), a timeout polls the
    /// shutdown flag (`Closed` once it rises) and reports `Quiet` once
    /// `grace` passes; once inside a frame, stalls past the configured
    /// deadline are cut off. EOF before the first byte reports
    /// `Closed`.
    fn read_patient(
        &self,
        stream: &mut TcpStream,
        buf: &mut [u8],
        in_frame: &mut bool,
        grace: Duration,
    ) -> Result<Option<Incoming>, RpqError> {
        let mut filled = 0;
        let mut stall_started: Option<Instant> = None;
        let mut idle_started: Option<Instant> = None;
        while filled < buf.len() {
            match stream.read(&mut buf[filled..]) {
                Ok(0) if !*in_frame && filled == 0 => return Ok(Some(Incoming::Closed)),
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
                        // Idle between frames: drain on shutdown, give
                        // up once the grace passes — an idle connection
                        // must not pin a worker.
                        if self.is_shutdown() {
                            return Ok(Some(Incoming::Closed));
                        }
                        let t0 = *idle_started.get_or_insert_with(Instant::now);
                        if t0.elapsed() >= grace {
                            return Ok(Some(Incoming::Quiet));
                        }
                        continue;
                    }
                    let t0 = *stall_started.get_or_insert_with(Instant::now);
                    if t0.elapsed() > self.limits.deadline {
                        return Err(RpqError::invalid(format!(
                            "peer stalled mid-frame past the {:?} deadline",
                            self.limits.deadline
                        )));
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(RpqError::io("cannot read request frame", e)),
            }
        }
        Ok(None)
    }
}
