//! The service contract: every protocol request type returns outcomes
//! **byte-identical** to in-process evaluation on the same store, under
//! any interleaving of concurrent clients; failures are responses, not
//! disconnects; overload is a graceful refusal; shutdown drains.
//!
//! The referee is a direct `Session` over the same runs: each sampled
//! request is evaluated through the wire *and* in-process, and the two
//! results are compared as their binary codec renderings (the same
//! bytes the protocol ships).

use proptest::prelude::*;
use rpq_core::{QueryOutcome, Session};
use rpq_labeling::{Run, RunBuilder};
use rpq_router::{Router, RouterConfig};
use rpq_serve::protocol::{QuerySpec, RunAddr, WireMode, WireResponse, WireResult};
use rpq_serve::{ServeClient, ServeConfig, Server};
use rpq_store::RunStore;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

const QUERIES: [&str; 5] = ["_* e _*", "a", "_* a _*", "a+", "_* e _* a _*"];

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("rpq_serve_tests")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Fixture {
    addr: SocketAddr,
    runs: Vec<Run>,
    referee: Session,
}

/// One shared warm server for the whole test binary: bound once on an
/// ephemeral port, never shut down (the test process's exit reaps it).
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = temp_dir("fixture");
        let spec = Arc::new(rpq_workloads::paper_examples::fig2_spec());
        let store = RunStore::create(&dir, Arc::clone(&spec)).unwrap();
        let runs: Vec<Run> = (0..3)
            .map(|i| {
                RunBuilder::new(&spec)
                    .seed(i as u64 + 1)
                    .target_edges(60 + 25 * i)
                    .build()
                    .unwrap()
            })
            .collect();
        for run in &runs {
            assert!(!store.ingest(run).unwrap().deduplicated);
        }
        let server = Server::bind(
            store,
            &ServeConfig {
                workers: 3,
                queue: 32,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(server.warm().unwrap(), 3);
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run(None));
        Fixture {
            addr,
            runs,
            referee: Session::new(spec),
        }
    })
}

fn connect(addr: SocketAddr) -> ServeClient {
    ServeClient::connect_with_retry(addr, Duration::from_secs(5)).unwrap()
}

/// In-process evaluation of the same (query, run, mode) triple.
fn referee_outcome(fix: &Fixture, query: &str, run_idx: usize, mode: &WireMode) -> QueryOutcome {
    let run = &fix.runs[run_idx];
    let prepared = fix.referee.prepare(query).unwrap();
    let request = mode.to_request(run).unwrap();
    fix.referee.evaluate(&prepared, run, &request)
}

/// The acceptance check: the wire result and the in-process result
/// must encode to identical bytes.
fn assert_byte_identical(local: &QueryOutcome, remote: &WireResult) {
    let local_wire = WireResult::from_result(&local.result);
    assert_eq!(
        rpq_store::codec::to_bytes(&local_wire),
        rpq_store::codec::to_bytes(remote),
        "wire result diverges from in-process evaluation"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Every request type, random queries/runs/endpoints, fingerprint
    /// and positional addressing: the server's answer is byte-identical
    /// to a direct `Session` over the same run.
    #[test]
    fn server_matches_in_process_evaluation(
        query_idx in 0..QUERIES.len(),
        run_idx in 0..3usize,
        mode_sel in 0..7u32,
        raw_u in 0..10_000u32,
        raw_v in 0..10_000u32,
        by_fingerprint in 0..2u32,
    ) {
        let fix = fixture();
        let run = &fix.runs[run_idx];
        let n = run.n_nodes() as u32;
        let (u, v) = (raw_u % n, raw_v % n);
        let all: Vec<u32> = (0..n).collect();
        let mode = match mode_sel {
            0 => WireMode::Pairwise(u, v),
            1 => WireMode::EntryExit,
            2 => WireMode::AllPairs(all.clone(), all),
            3 => WireMode::SourceStar(u),
            4 => WireMode::TargetStar(v),
            5 => WireMode::Reachable(u),
            _ => WireMode::AllPairsFull,
        };
        let addr = if by_fingerprint == 1 {
            let (hi, lo) = run.fingerprint();
            RunAddr::Fingerprint(hi, lo)
        } else {
            RunAddr::Index(run_idx as u64)
        };
        let query = QUERIES[query_idx];
        let mut client = connect(fix.addr);
        let remote = client
            .query(QuerySpec {
                query: query.to_owned(),
                policy: String::new(),
                strategy: String::new(),
                stages: false,
                run: addr,
                mode: mode.clone(),
            })
            .unwrap();
        let local = referee_outcome(fix, query, run_idx, &mode);
        assert_byte_identical(&local, &remote.result);
    }
}

#[test]
fn concurrent_clients_all_match_the_referee() {
    let fix = fixture();
    let threads = 8;
    let per_thread = 12;
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                let mut client = connect(fix.addr);
                for i in 0..per_thread {
                    let query = QUERIES[(t + i) % QUERIES.len()];
                    let run_idx = (t * per_thread + i) % fix.runs.len();
                    let n = fix.runs[run_idx].n_nodes() as u32;
                    let mode = match i % 3 {
                        0 => WireMode::EntryExit,
                        1 => WireMode::SourceStar((i as u32 * 7) % n),
                        _ => WireMode::Pairwise((i as u32 * 3) % n, (t as u32 * 5) % n),
                    };
                    let remote = client
                        .query(QuerySpec {
                            query: query.to_owned(),
                            policy: String::new(),
                            strategy: String::new(),
                            stages: false,
                            run: RunAddr::Index(run_idx as u64),
                            mode: mode.clone(),
                        })
                        .unwrap();
                    let local = referee_outcome(fix, query, run_idx, &mode);
                    assert_byte_identical(&local, &remote.result);
                }
            });
        }
    });
}

#[test]
fn failures_are_error_responses_and_the_connection_survives() {
    let fix = fixture();
    let mut client = connect(fix.addr);
    let spec = |query: &str, run: RunAddr, mode: WireMode, policy: &str| QuerySpec {
        query: query.to_owned(),
        policy: policy.to_owned(),
        strategy: String::new(),
        run,
        stages: false,
        mode,
    };
    let cases = [
        // (request, expected error kind)
        (
            spec("(((", RunAddr::Index(0), WireMode::EntryExit, ""),
            "parse",
        ),
        (
            spec("_*", RunAddr::Fingerprint(1, 2), WireMode::EntryExit, ""),
            "invalid",
        ),
        (
            spec("_*", RunAddr::Index(99), WireMode::EntryExit, ""),
            "invalid",
        ),
        (
            spec(
                "_*",
                RunAddr::Index(0),
                WireMode::Pairwise(0, 1_000_000),
                "",
            ),
            "invalid",
        ),
        (
            spec("_*", RunAddr::Index(0), WireMode::EntryExit, "fastest"),
            "invalid",
        ),
    ];
    for (request, expected_kind) in cases {
        match client
            .request(&rpq_serve::WireRequest::Query(request))
            .unwrap()
        {
            WireResponse::Error { kind, message } => {
                assert_eq!(kind, expected_kind, "{message}");
                assert!(!message.is_empty());
            }
            other => panic!("expected an error response, got {other:?}"),
        }
        // The connection is still usable after each failure.
        client.ping().unwrap();
    }
    // Stats reflect the served traffic.
    let stats = client.stats().unwrap();
    assert!(stats.request_errors >= cases_len());
    assert!(stats.requests > stats.request_errors);
    assert_eq!(stats.store_runs, 3);
}

const fn cases_len() -> u64 {
    5
}

/// `QuerySpec.policy` and `strategy` stay in the frame but the server
/// chooses both: empty fields are served, any value is a typed
/// `invalid` refusal naming the field — never silently ignored.
#[test]
fn evaluation_overrides_are_refused_and_empty_fields_served() {
    let fix = fixture();
    let mut client = connect(fix.addr);
    let mode = WireMode::AllPairsFull;
    let spec = |policy: &str, strategy: &str| QuerySpec {
        query: "_* a _*".to_owned(),
        policy: policy.to_owned(),
        strategy: strategy.to_owned(),
        run: RunAddr::Index(0),
        stages: false,
        mode: mode.clone(),
    };
    let served = client.query(spec("", "")).unwrap();
    assert_byte_identical(&referee_outcome(fix, "_* a _*", 0, &mode), &served.result);
    for (request, field) in [
        (spec("naive", ""), "policy"),
        (spec("cost", ""), "policy"),
        (spec("", "lazy"), "strategy"),
        (spec("", "materialized"), "strategy"),
    ] {
        match client
            .request(&rpq_serve::WireRequest::Query(request))
            .unwrap()
        {
            WireResponse::Error { kind, message } => {
                assert_eq!(kind, "invalid", "{message}");
                assert!(message.contains(&format!("QuerySpec.{field}")), "{message}");
                assert!(message.contains("server chooses"), "{message}");
            }
            other => panic!("expected an error response, got {other:?}"),
        }
    }
    // A standing query is refused the same way, before it subscribes.
    let mut watcher = connect(fix.addr);
    match watcher
        .request(&rpq_serve::WireRequest::Subscribe(spec("", "lazy")))
        .unwrap()
    {
        WireResponse::Error { kind, .. } => assert_eq!(kind, "invalid"),
        other => panic!("expected an error response, got {other:?}"),
    }
    watcher.ping().unwrap();
}

/// A store holding one small run, in its own directory.
fn one_run_store(name: &str, seed: u64) -> (PathBuf, RunStore) {
    let dir = temp_dir(name);
    let spec = Arc::new(rpq_workloads::paper_examples::fig2_spec());
    let store = RunStore::create(&dir, Arc::clone(&spec)).unwrap();
    let run = RunBuilder::new(&spec)
        .seed(seed)
        .target_edges(60)
        .build()
        .unwrap();
    store.ingest(&run).unwrap();
    (dir, store)
}

/// The admission scenario against a 1-worker, 1-slot front end at
/// `addr`, ending with a protocol-level shutdown.
fn saturate_then_shut_down(addr: SocketAddr) {
    // A occupies the only worker (the ping proves it was dequeued).
    let mut a = connect(addr);
    a.ping().unwrap();
    // B fills the one-slot waiting queue.
    let b = connect(addr);
    std::thread::sleep(Duration::from_millis(150));
    // C is refused — with a response, not a dropped socket.
    let mut c = connect(addr);
    match c.request(&rpq_serve::WireRequest::Ping) {
        Ok(WireResponse::Overloaded { queue }) => assert_eq!(queue, 1),
        other => panic!("expected Overloaded, got {other:?}"),
    }

    // Releasing A lets the queued B be served.
    drop(a);
    let mut b = {
        let mut b = b;
        b.ping().unwrap();
        b
    };

    // Protocol-level shutdown acknowledges, then the front end drains
    // and run() returns.
    b.shutdown_server().unwrap();
}

#[test]
fn overload_is_a_graceful_refusal_and_shutdown_drains() {
    // A private 1-worker, 1-slot server so saturation is deterministic.
    let (dir, store) = one_run_store("overload", 9);
    let server = Server::bind(
        store,
        &ServeConfig {
            workers: 1,
            queue: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let serving = std::thread::spawn(move || server.run(None));
    saturate_then_shut_down(addr);
    // run() returns with truthful counters.
    let report = serving.join().unwrap();
    assert!(report.accepted >= 3);
    assert_eq!(report.overloaded, 1);
    assert!(report.requests >= 3);
    let _ = std::fs::remove_dir_all(&dir);

    // The router runs on the same front end: the same scenario against
    // a 1-worker, 1-slot router (over an ordinary backend) refuses the
    // same way and reports the same counts.
    let (dir, store) = one_run_store("overload_routed", 9);
    let backend = Server::bind(store, &ServeConfig::default()).unwrap();
    let backend_addr = backend.local_addr().unwrap();
    let backend_handle = backend.shutdown_handle();
    let backend_serving = std::thread::spawn(move || backend.run(None));
    let router = Router::bind(&RouterConfig {
        backends: vec![backend_addr],
        workers: 1,
        queue: 1,
        sync_interval: None,
        ..RouterConfig::default()
    })
    .unwrap();
    let addr = router.local_addr().unwrap();
    let routing = std::thread::spawn(move || router.run(None));
    saturate_then_shut_down(addr);
    let report = routing.join().unwrap();
    assert!(report.accepted >= 3);
    assert_eq!(report.overloaded, 1);
    assert!(report.requests >= 3);
    backend_handle.shutdown();
    backend_serving.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn external_flag_shutdown_drains_idle_keepalive_connections() {
    // Regression: the SIGTERM path sets an *external* flag; workers
    // idling on a held-open connection must still drain, or run()
    // never joins its scope.
    use std::sync::atomic::{AtomicBool, Ordering};
    let dir = temp_dir("sigterm_drain");
    let spec = Arc::new(rpq_workloads::paper_examples::fig2_spec());
    let store = RunStore::create(&dir, Arc::clone(&spec)).unwrap();
    let run = RunBuilder::new(&spec)
        .seed(3)
        .target_edges(60)
        .build()
        .unwrap();
    store.ingest(&run).unwrap();
    let server = Server::bind(store, &ServeConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    static FLAG: AtomicBool = AtomicBool::new(false);
    let serving = std::thread::spawn(move || server.run(Some(&FLAG)));

    // A connected client, idle between requests, occupies a worker.
    let mut idle = connect(addr);
    idle.ping().unwrap();
    FLAG.store(true, Ordering::Relaxed);
    // run() must return despite the held-open connection.
    let report = serving.join().unwrap();
    assert!(report.requests >= 1);
    FLAG.store(false, Ordering::Relaxed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_drains_a_continuously_busy_connection() {
    // Regression: a client issuing back-to-back requests never lets the
    // worker hit the idle read path; the between-requests shutdown
    // check must drain it anyway.
    let dir = temp_dir("busy_drain");
    let spec = Arc::new(rpq_workloads::paper_examples::fig2_spec());
    let store = RunStore::create(&dir, Arc::clone(&spec)).unwrap();
    let run = RunBuilder::new(&spec)
        .seed(5)
        .target_edges(60)
        .build()
        .unwrap();
    store.ingest(&run).unwrap();
    let server = Server::bind(store, &ServeConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.shutdown_handle();
    let serving = std::thread::spawn(move || server.run(None));

    let hammer = std::thread::spawn(move || {
        let mut client = connect(addr);
        let mut served = 0u64;
        // Busy loop until the drain closes the connection under us.
        while client.ping().is_ok() {
            served += 1;
        }
        served
    });
    // Let the hammer get going, then pull the plug mid-stream.
    std::thread::sleep(Duration::from_millis(150));
    handle.shutdown();
    let report = serving.join().unwrap();
    let served = hammer.join().unwrap();
    assert!(served > 0, "the hammer never got through");
    assert!(report.requests >= served, "{report:?} vs {served}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_on_the_same_store_answers_identically() {
    let dir = temp_dir("restart");
    let spec = Arc::new(rpq_workloads::paper_examples::fig2_spec());
    let store = RunStore::create(&dir, Arc::clone(&spec)).unwrap();
    let run = RunBuilder::new(&spec)
        .seed(7)
        .target_edges(120)
        .build()
        .unwrap();
    store.ingest(&run).unwrap();
    // One safe query (label decode) and one composite (decomposed).
    let queries = ["_* e _*", "_* a _*"];
    let spec_q = |query: &str| QuerySpec {
        query: query.to_owned(),
        policy: String::new(),
        strategy: String::new(),
        stages: false,
        run: RunAddr::Index(0),
        mode: WireMode::AllPairsFull,
    };
    let serve = |store: RunStore| -> Vec<WireResult> {
        let server = Server::bind(store, &ServeConfig::default()).unwrap();
        assert_eq!(server.warm().unwrap(), 1);
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle();
        let serving = std::thread::spawn(move || server.run(None));
        let mut client = connect(addr);
        let answers = queries
            .iter()
            .map(|q| client.query(spec_q(q)).unwrap().result)
            .collect();
        handle.shutdown();
        serving.join().unwrap();
        answers
    };
    let before = serve(store);

    // Older builds persisted compiled safe plans under `plans/`. Nothing
    // reads them: the restarted server compiles its own plans.
    std::fs::create_dir_all(dir.join("plans")).unwrap();
    std::fs::write(dir.join("plans").join("plan-0123.bin"), b"RPQ plan").unwrap();
    let after = serve(RunStore::open(&dir).unwrap());
    assert_eq!(before, after);

    let session = Session::new(Arc::clone(&spec));
    let all: Vec<rpq_labeling::NodeId> = run.node_ids().collect();
    for (query, answer) in queries.iter().zip(&after) {
        let prepared = session.prepare(query).unwrap();
        let expected = rpq_baselines::Referee::new(&run, prepared.dfa()).all_pairs(&all, &all);
        let expected = WireResult::Pairs(expected.iter().map(|(u, v)| (u.0, v.0)).collect());
        assert_eq!(answer, &expected, "{query}");
    }
    assert!(session.prepare(queries[0]).unwrap().plan().is_safe());
    assert!(!session.prepare(queries[1]).unwrap().plan().is_safe());

    // gc removes the leftover tree.
    assert_eq!(RunStore::open(&dir).unwrap().prune_orphans().unwrap(), 1);
    assert!(!dir.join("plans").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_handle_stops_an_idle_server() {
    let dir = temp_dir("handle");
    let spec = Arc::new(rpq_workloads::paper_examples::fig2_spec());
    let store = RunStore::create(&dir, Arc::clone(&spec)).unwrap();
    let server = Server::bind(store, &ServeConfig::default()).unwrap();
    let handle = server.shutdown_handle();
    let serving = std::thread::spawn(move || server.run(None));
    std::thread::sleep(Duration::from_millis(50));
    assert!(!handle.is_shutdown());
    handle.shutdown();
    let report = serving.join().unwrap();
    assert_eq!(report.requests, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
