//! The router's front side parks idle keep-alive clients like a
//! backend does: a client that goes quiet between requests holds no
//! worker, so a second client is served at once, and a parked client
//! is closed once the idle bound passes.

use rpq_labeling::RunBuilder;
use rpq_router::{Router, RouterConfig};
use rpq_serve::{ServeClient, ServeConfig, Server};
use rpq_store::RunStore;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn connect(addr: SocketAddr) -> ServeClient {
    ServeClient::connect_with_retry(addr, Duration::from_secs(5)).unwrap()
}

#[test]
fn an_idle_client_pins_no_worker_and_is_closed_after_the_idle_bound() {
    let dir = std::env::temp_dir()
        .join("rpq_router_tests")
        .join(format!("idle_clients_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = Arc::new(rpq_workloads::paper_examples::fig2_spec());
    let store = RunStore::create(&dir, Arc::clone(&spec)).unwrap();
    let run = RunBuilder::new(&spec)
        .seed(4)
        .target_edges(60)
        .build()
        .unwrap();
    store.ingest(&run).unwrap();
    let backend = Server::bind(store, &ServeConfig::default()).unwrap();
    let backend_addr = backend.local_addr().unwrap();
    let backend_handle = backend.shutdown_handle();
    let backend_serving = std::thread::spawn(move || backend.run(None));

    // One worker, and an idle bound longer than B's 1 s budget: a
    // router that kept A's worker until the bound would make B wait
    // the whole 1.5 s.
    let idle_timeout = Duration::from_millis(1500);
    let router = Router::bind(&RouterConfig {
        backends: vec![backend_addr],
        workers: 1,
        idle_timeout,
        sync_interval: None,
        ..RouterConfig::default()
    })
    .unwrap();
    let addr = router.local_addr().unwrap();
    let handle = router.shutdown_handle();
    let routing = std::thread::spawn(move || router.run(None));

    // A pings, then goes quiet with its socket open.
    let mut a = connect(addr);
    a.ping().unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // B is answered at once: A's worker was released.
    let started = Instant::now();
    let mut b = connect(addr);
    b.ping().unwrap();
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_secs(1),
        "the second client waited {waited:?} behind an idle one"
    );

    // A parked connection still serves its next request...
    a.ping().unwrap();
    // ...and is closed once it stays quiet past the idle bound.
    std::thread::sleep(idle_timeout + Duration::from_millis(800));
    assert!(
        a.ping().is_err(),
        "the idle connection should have been closed"
    );

    handle.shutdown();
    let report = routing.join().unwrap();
    assert!(report.requests >= 3);
    backend_handle.shutdown();
    backend_serving.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
