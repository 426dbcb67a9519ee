//! Deterministic fault injection for the fleet's tests (test support,
//! compiled into `router_faults` only).
//!
//! [`FaultProxy`] is a tiny TCP proxy that sits between a client (or
//! the router) and a real backend and misbehaves *on command*: refuse
//! connections, truncate a response mid-frame, stall forever after a
//! prefix, or trickle bytes slowly. Faults are applied on the
//! backend→client pump — the direction where a dying backend hurts —
//! while the client→backend pump stays faithful, so the backend always
//! sees well-formed requests.
//!
//! The point is determinism: `kill -9` in a smoke test exercises the
//! same client-visible symptom (connection reset mid-frame) but only
//! sometimes lands mid-frame. The proxy makes "the 17th byte of the
//! response never arrives" a reproducible fixture, which is what the
//! router's failover tests assert byte-identical answers under.
//!
//! [`corrupt_artifacts`] covers the remaining fault class — disk
//! corruption — by scribbling garbage into a store's persisted index
//! files; the store's decode-or-rebuild fallback turns that into a
//! correctness no-op, which the tests verify end to end.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What the proxy does to backend→client traffic. Set it at any time
/// with [`FaultProxy::set_mode`]; new connections and in-flight pumps
/// observe the change on their next chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Pass traffic through untouched.
    None,
    /// Refuse new connections (accepted, then immediately closed) and
    /// cut existing ones.
    Refuse,
    /// Forward `after` response bytes, then close the client side —
    /// a response truncated mid-frame.
    TruncateResponse {
        /// Bytes forwarded before the cut.
        after: usize,
    },
    /// Forward `after` response bytes, then forward nothing more while
    /// keeping the connection open — the black-hole stall that only a
    /// deadline can unstick.
    Stall {
        /// Bytes forwarded before the stall.
        after: usize,
    },
    /// Trickle the response `chunk` bytes at a time with `delay_ms`
    /// between chunks — a slow reader/backend that tests deadline
    /// budgets without a full stall.
    SlowRead {
        /// Bytes forwarded per chunk.
        chunk: usize,
        /// Pause between chunks, in milliseconds.
        delay_ms: u64,
    },
}

/// The modes, collapsed for lock-free sharing with pump threads.
const MODE_NONE: u8 = 0;
const MODE_REFUSE: u8 = 1;
const MODE_TRUNCATE: u8 = 2;
const MODE_STALL: u8 = 3;
const MODE_SLOW: u8 = 4;

#[derive(Debug)]
struct Shared {
    mode: AtomicU8,
    after: AtomicUsize,
    chunk: AtomicUsize,
    delay_ms: AtomicUsize,
    /// Response bytes forwarded since the last `set_mode` — the
    /// counter `after` cuts against, cumulative across connections so
    /// "truncate after N bytes" means N bytes of *service*, not N per
    /// retry.
    forwarded: AtomicUsize,
}

/// A fault-injecting TCP proxy in front of one backend address.
///
/// Dropping the handle stops the accept loop; pump threads die with
/// their connections.
#[derive(Debug)]
pub struct FaultProxy {
    addr: SocketAddr,
    shared: Arc<Shared>,
    stop: Arc<std::sync::atomic::AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl FaultProxy {
    /// Start a proxy on an ephemeral loopback port, forwarding to
    /// `backend`, in [`FaultMode::None`].
    pub fn start(backend: SocketAddr) -> std::io::Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            mode: AtomicU8::new(MODE_NONE),
            after: AtomicUsize::new(0),
            chunk: AtomicUsize::new(0),
            delay_ms: AtomicUsize::new(0),
            forwarded: AtomicUsize::new(0),
        });
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let accept_shared = Arc::clone(&shared);
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::spawn(move || {
            while !accept_stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((client, _)) => {
                        if accept_shared.mode.load(Ordering::Relaxed) == MODE_REFUSE {
                            drop(client);
                            continue;
                        }
                        let Ok(upstream) = TcpStream::connect(backend) else {
                            drop(client);
                            continue;
                        };
                        let _ = client.set_nodelay(true);
                        let _ = upstream.set_nodelay(true);
                        spawn_pumps(client, upstream, Arc::clone(&accept_shared));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(FaultProxy {
            addr,
            shared,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Switch fault modes and reset the forwarded-byte counter the
    /// byte-positioned modes cut against.
    pub fn set_mode(&self, mode: FaultMode) {
        let (tag, after, chunk, delay_ms) = match mode {
            FaultMode::None => (MODE_NONE, 0, 0, 0),
            FaultMode::Refuse => (MODE_REFUSE, 0, 0, 0),
            FaultMode::TruncateResponse { after } => (MODE_TRUNCATE, after, 0, 0),
            FaultMode::Stall { after } => (MODE_STALL, after, 0, 0),
            FaultMode::SlowRead { chunk, delay_ms } => {
                (MODE_SLOW, 0, chunk.max(1), delay_ms as usize)
            }
        };
        self.shared.after.store(after, Ordering::Relaxed);
        self.shared.chunk.store(chunk, Ordering::Relaxed);
        self.shared.delay_ms.store(delay_ms, Ordering::Relaxed);
        self.shared.forwarded.store(0, Ordering::Relaxed);
        self.shared.mode.store(tag, Ordering::Relaxed);
    }

    /// Response bytes forwarded since the last [`FaultProxy::set_mode`].
    pub fn forwarded(&self) -> usize {
        self.shared.forwarded.load(Ordering::Relaxed)
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

/// Two pump threads per connection: a faithful client→backend pump and
/// a fault-applying backend→client pump.
fn spawn_pumps(client: TcpStream, upstream: TcpStream, shared: Arc<Shared>) {
    let (client_read, client_write) = (client.try_clone().expect("clone client stream"), client);
    let (upstream_read, upstream_write) = (
        upstream.try_clone().expect("clone upstream stream"),
        upstream,
    );
    std::thread::spawn(move || pump_faithful(client_read, upstream_write));
    std::thread::spawn(move || pump_faulty(upstream_read, client_write, shared));
}

fn pump_faithful(mut from: TcpStream, mut to: TcpStream) {
    let mut buf = [0u8; 4096];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }
    }
    let _ = to.shutdown(std::net::Shutdown::Write);
}

fn pump_faulty(mut from: TcpStream, mut to: TcpStream, shared: Arc<Shared>) {
    // Short read timeout so a mode change (e.g. → Refuse) is noticed
    // even while the backend is quiet.
    let _ = from.set_read_timeout(Some(Duration::from_millis(20)));
    let mut buf = [0u8; 4096];
    loop {
        let mode = shared.mode.load(Ordering::Relaxed);
        if mode == MODE_REFUSE {
            break;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                continue
            }
            Err(_) => break,
        };
        let mut sent = 0;
        while sent < n {
            // Re-read the mode per slice: a frame larger than the
            // cut-off must be truncated inside this read, not after.
            match shared.mode.load(Ordering::Relaxed) {
                // Every arm counts *before* it writes: a reader that has
                // seen the bytes must also see them counted. A failed
                // write ends the pump, so an over-count is never
                // observed.
                MODE_NONE => {
                    shared.forwarded.fetch_add(n - sent, Ordering::Relaxed);
                    if to.write_all(&buf[sent..n]).is_err() {
                        return;
                    }
                    sent = n;
                }
                MODE_TRUNCATE | MODE_STALL => {
                    let cut = shared.after.load(Ordering::Relaxed);
                    let done = shared.forwarded.load(Ordering::Relaxed);
                    let budget = cut.saturating_sub(done);
                    let take = budget.min(n - sent);
                    if take > 0 {
                        shared.forwarded.fetch_add(take, Ordering::Relaxed);
                        if to.write_all(&buf[sent..sent + take]).is_err() {
                            return;
                        }
                        sent += take;
                    }
                    if sent < n {
                        if shared.mode.load(Ordering::Relaxed) == MODE_TRUNCATE {
                            let _ = to.shutdown(std::net::Shutdown::Both);
                            return;
                        }
                        // Stall: hold the connection open, forward
                        // nothing, until the mode changes.
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
                MODE_SLOW => {
                    let chunk = shared.chunk.load(Ordering::Relaxed).max(1);
                    let delay = shared.delay_ms.load(Ordering::Relaxed) as u64;
                    let take = chunk.min(n - sent);
                    shared.forwarded.fetch_add(take, Ordering::Relaxed);
                    if to.write_all(&buf[sent..sent + take]).is_err() {
                        return;
                    }
                    sent += take;
                    if sent < n {
                        std::thread::sleep(Duration::from_millis(delay));
                    }
                }
                // Refuse (or an unknown tag): cut the connection.
                _ => {
                    let _ = to.shutdown(std::net::Shutdown::Both);
                    return;
                }
            }
        }
    }
    let _ = to.shutdown(std::net::Shutdown::Write);
}

/// Scribble garbage into every persisted index artifact under a store
/// directory — the corrupt-artifact fault point. The store's
/// decode-or-rebuild fallback must absorb this without a wrong answer;
/// returns how many files were corrupted.
pub fn corrupt_artifacts(store_dir: &std::path::Path) -> std::io::Result<usize> {
    let index = store_dir.join("index");
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&index)? {
        let path = entry?.path();
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
        let is_artifact = name.as_deref().is_some_and(|n| {
            (n.starts_with("tag-") || n.starts_with("csr-")) && n.ends_with(".bin")
        });
        if is_artifact {
            std::fs::write(&path, b"corrupted-by-fault-injection")?;
            corrupted += 1;
        }
    }
    Ok(corrupted)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-shot echo server: accepts connections, echoes bytes back.
    fn echo_server() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            // Serve a bounded number of connections, then exit — the
            // tests below open at most a handful.
            for _ in 0..8 {
                let Ok((mut conn, _)) = listener.accept() else {
                    return;
                };
                std::thread::spawn(move || {
                    let mut buf = [0u8; 1024];
                    while let Ok(n) = conn.read(&mut buf) {
                        if n == 0 || conn.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        (addr, handle)
    }

    #[test]
    fn passthrough_then_truncate_then_refuse() {
        let (backend, _server) = echo_server();
        let proxy = FaultProxy::start(backend).unwrap();

        // Passthrough: bytes echo through the proxy unchanged.
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        conn.write_all(b"hello").unwrap();
        let mut buf = [0u8; 5];
        conn.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        assert_eq!(proxy.forwarded(), 5);

        // Truncate: only the first 3 response bytes arrive, then EOF.
        proxy.set_mode(FaultMode::TruncateResponse { after: 3 });
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        conn.write_all(b"abcdef").unwrap();
        let mut got = Vec::new();
        let _ = conn.read_to_end(&mut got);
        assert_eq!(got, b"abc");

        // Refuse: the connection dies without service.
        proxy.set_mode(FaultMode::Refuse);
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let _ = conn.write_all(b"zz");
        let mut got = Vec::new();
        let _ = conn.read_to_end(&mut got);
        assert!(got.is_empty(), "refused connection must serve nothing");
    }

    #[test]
    fn stall_holds_the_connection_quiet() {
        let (backend, _server) = echo_server();
        let proxy = FaultProxy::start(backend).unwrap();
        proxy.set_mode(FaultMode::Stall { after: 2 });
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        conn.write_all(b"abcdef").unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        let mut buf = [0u8; 2];
        conn.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ab");
        // The rest never comes: the read times out rather than EOFs.
        let mut probe = [0u8; 1];
        let err = conn.read_exact(&mut probe).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "expected a timeout, got {err:?}"
        );
    }

    #[test]
    fn slow_read_trickles_the_full_payload() {
        let (backend, _server) = echo_server();
        let proxy = FaultProxy::start(backend).unwrap();
        proxy.set_mode(FaultMode::SlowRead {
            chunk: 2,
            delay_ms: 5,
        });
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        conn.write_all(b"abcdefgh").unwrap();
        let started = std::time::Instant::now();
        let mut buf = [0u8; 8];
        conn.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"abcdefgh");
        assert!(
            started.elapsed() >= Duration::from_millis(10),
            "slow mode must actually pace the bytes"
        );
    }
}
