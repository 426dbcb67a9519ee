//! The fleet contract: a router in front of replicated backends keeps
//! answering **byte-identically** to a direct in-process `Session`
//! while any single backend is down, refusing connections, truncating
//! responses mid-frame, or stalling — and every degraded path is a
//! bounded, typed refusal rather than a hang.
//!
//! The harness is deterministic: backends are in-process `Server`s,
//! the misbehaving one sits behind a [`FaultProxy`], and placement is
//! chosen by scanning seeds until every backend is the consistent-hash
//! primary for at least one run.

use proptest::prelude::*;
use rpq_core::Session;
use rpq_labeling::{Run, RunBuilder};
use rpq_router::ring::HashRing;
use rpq_router::{Router, RouterConfig};
use rpq_serve::faults::{corrupt_artifacts, FaultMode, FaultProxy};
use rpq_serve::protocol::{QuerySpec, RunAddr, WireMode, WireRequest, WireResponse, WireResult};
use rpq_serve::{RetryPolicy, ServeClient, ServeConfig, Server};
use rpq_store::RunStore;
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

const BACKENDS: usize = 3;
const REPLICATION: usize = 2;
const QUERIES: [&str; 4] = ["_* e _*", "a", "a+", "_* e _* a _*"];

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("rpq_router_tests")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs chosen so `runs[i]` has ring primary `i` for `i < BACKENDS`
/// (plus one extra): every backend is some run's first routing choice,
/// so faulting any one of them is guaranteed to sit on a hot path.
fn build_runs(spec: &rpq_grammar::Specification) -> Vec<Run> {
    let ring = HashRing::new(BACKENDS);
    let mut by_primary: Vec<Option<Run>> = (0..BACKENDS).map(|_| None).collect();
    let mut extra = None;
    let mut seen = BTreeSet::new();
    for seed in 1..=64u64 {
        let run = RunBuilder::new(spec)
            .seed(seed)
            .target_edges(48 + (seed as usize % 7) * 6)
            .build()
            .unwrap();
        let (hi, lo) = run.fingerprint();
        // Same-size targets can saturate to structurally identical
        // runs; only distinct fingerprints are usable.
        if !seen.insert((hi, lo)) {
            continue;
        }
        let primary = ring.primary(hi, lo).unwrap();
        if by_primary[primary].is_none() {
            by_primary[primary] = Some(run);
        } else if extra.is_none() {
            extra = Some(run);
        }
        if extra.is_some() && by_primary.iter().all(|r| r.is_some()) {
            break;
        }
    }
    let mut runs: Vec<Run> = by_primary
        .into_iter()
        .map(|r| r.expect("seed scan must cover every primary"))
        .collect();
    runs.push(extra.unwrap());
    runs
}

/// A whole in-process fleet: three backends (optionally one behind a
/// fault proxy), a router, and a direct-`Session` referee.
struct Fleet {
    router: SocketAddr,
    backends: Vec<SocketAddr>,
    backend_handles: Vec<rpq_serve::ShutdownHandle>,
    router_handle: rpq_router::ShutdownHandle,
    runs: Vec<Run>,
    referee: Session,
    proxy: Option<FaultProxy>,
}

impl Fleet {
    /// Start a fleet. Run `j` is seeded onto backend `(j + 1) % 3`
    /// only — deliberately *not* its ring replicas — so correctness
    /// under failover depends on the replication syncer doing its job.
    fn start(tag: &str, faulted: bool, sync: bool) -> Fleet {
        let spec = Arc::new(rpq_workloads::paper_examples::fig2_spec());
        let runs = build_runs(&spec);
        let mut backends = Vec::new();
        let mut backend_handles = Vec::new();
        for b in 0..BACKENDS {
            let store =
                RunStore::create(temp_dir(&format!("{tag}_b{b}")), Arc::clone(&spec)).unwrap();
            for (j, run) in runs.iter().enumerate() {
                if (j + 1) % BACKENDS == b {
                    assert!(!store.ingest(run).unwrap().deduplicated);
                }
            }
            let server = Server::bind(
                store,
                &ServeConfig {
                    workers: 2,
                    queue: 16,
                    chunk_entries: 8,
                    deadline: Duration::from_secs(2),
                    ..ServeConfig::default()
                },
            )
            .unwrap();
            server.warm().unwrap();
            backends.push(server.local_addr().unwrap());
            backend_handles.push(server.shutdown_handle());
            std::thread::spawn(move || server.run(None));
        }
        let proxy = faulted.then(|| FaultProxy::start(backends[0]).unwrap());
        let mut fronts = backends.clone();
        if let Some(proxy) = &proxy {
            fronts[0] = proxy.addr();
        }
        let router = Router::bind(&RouterConfig {
            backends: fronts,
            replication: REPLICATION,
            workers: 2,
            queue: 16,
            deadline: Duration::from_millis(700),
            retry: RetryPolicy::fixed(Duration::from_millis(10), Duration::from_millis(40)),
            eject_after: 2,
            cooldown: Duration::from_millis(150),
            probe_interval: Duration::from_millis(50),
            sync_interval: sync.then(|| Duration::from_millis(50)),
            chunk_entries: 8,
            ..RouterConfig::default()
        })
        .unwrap();
        let router_addr = router.local_addr().unwrap();
        let router_handle = router.shutdown_handle();
        std::thread::spawn(move || router.run(None));
        let fleet = Fleet {
            router: router_addr,
            backends,
            backend_handles,
            router_handle,
            runs,
            referee: Session::new(spec),
            proxy,
        };
        if sync {
            fleet.wait_replicated();
        }
        fleet
    }

    /// Block until every run is held by *all* of its ring replicas —
    /// the state in which any single backend is expendable.
    fn wait_replicated(&self) {
        let ring = HashRing::new(BACKENDS);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let holders: Vec<BTreeSet<(u64, u64)>> = self
                .backends
                .iter()
                .map(|&addr| {
                    let mut client = connect(addr);
                    client
                        .runs()
                        .unwrap()
                        .into_iter()
                        .map(|info| (info.fp_hi, info.fp_lo))
                        .collect()
                })
                .collect();
            let placed = self.runs.iter().all(|run| {
                let fp = run.fingerprint();
                ring.replicas_for(fp.0, fp.1, REPLICATION)
                    .into_iter()
                    .all(|b| holders[b].contains(&fp))
            });
            if placed {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "replication never converged: {holders:?}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    fn client(&self) -> ServeClient {
        connect(self.router)
    }

    /// The referee's binary rendering of (query, run, mode).
    fn expected(&self, run_idx: usize, query: &str, mode: &WireMode) -> Vec<u8> {
        let run = &self.runs[run_idx];
        let prepared = self.referee.prepare(query).unwrap();
        let request = mode.to_request(run).unwrap();
        let outcome = self.referee.evaluate(&prepared, run, &request);
        rpq_store::codec::to_bytes(&WireResult::from_result(&outcome.result))
    }

    /// Route (query, run, mode) through the router by fingerprint and
    /// return the binary rendering of the answer.
    fn routed(
        &self,
        client: &mut ServeClient,
        run_idx: usize,
        query: &str,
        mode: &WireMode,
    ) -> Vec<u8> {
        let (hi, lo) = self.runs[run_idx].fingerprint();
        let outcome = client
            .query(QuerySpec {
                query: query.to_owned(),
                policy: String::new(),
                strategy: String::new(),
                stages: false,
                run: RunAddr::Fingerprint(hi, lo),
                mode: mode.clone(),
            })
            .unwrap();
        rpq_store::codec::to_bytes(&outcome.result)
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.router_handle.shutdown();
        for handle in &self.backend_handles {
            handle.shutdown();
        }
    }
}

fn connect(addr: SocketAddr) -> ServeClient {
    ServeClient::connect_with_retry(addr, Duration::from_secs(5)).unwrap()
}

fn modes(run: &Run) -> Vec<WireMode> {
    let n = run.n_nodes() as u32;
    vec![
        WireMode::EntryExit,
        WireMode::AllPairsFull,
        WireMode::Reachable(0),
        WireMode::Pairwise(0, n - 1),
    ]
}

/// Any single backend may die: the fleet keeps answering every query
/// byte-identically, within a bounded time.
#[test]
fn every_query_survives_each_single_backend_down() {
    for victim in 0..BACKENDS {
        let fleet = Fleet::start(&format!("victim{victim}"), false, true);
        fleet.backend_handles[victim].shutdown();
        let mut client = fleet.client();
        for (run_idx, run) in fleet.runs.iter().enumerate() {
            for (q, query) in QUERIES.iter().enumerate() {
                let mode = &modes(run)[q % 4];
                let started = Instant::now();
                let got = fleet.routed(&mut client, run_idx, query, mode);
                assert!(
                    started.elapsed() < Duration::from_secs(5),
                    "failover latency unbounded with backend {victim} down"
                );
                assert_eq!(
                    got,
                    fleet.expected(run_idx, query, mode),
                    "run {run_idx} query {query:?} diverged with backend {victim} down"
                );
            }
        }
    }
}

/// A backend that truncates responses mid-frame — including inside a
/// chunked stream — is failed over transparently; once the fault is
/// lifted, the half-open probe readmits it.
#[test]
fn mid_frame_truncation_fails_over_byte_identically() {
    let fleet = Fleet::start("truncate", true, true);
    let proxy = fleet.proxy.as_ref().unwrap();
    // runs[0]'s ring primary is backend 0, so the first attempt goes
    // through the proxy. AllPairsFull over chunk_entries=8 streams,
    // so cuts at different offsets land mid-header and mid-chunk.
    let mode = WireMode::AllPairsFull;
    let expected = fleet.expected(0, QUERIES[0], &mode);
    let mut client = fleet.client();
    for cut in [5usize, 16, 64, 256, 1024] {
        proxy.set_mode(FaultMode::None);
        std::thread::sleep(Duration::from_millis(200));
        proxy.set_mode(FaultMode::TruncateResponse { after: cut });
        let started = Instant::now();
        let got = fleet.routed(&mut client, 0, QUERIES[0], &mode);
        assert_eq!(got, expected, "diverged with responses cut at {cut} bytes");
        assert!(started.elapsed() < Duration::from_secs(5));
    }
    // Recovery: lift the fault, let the prober readmit backend 0, and
    // the fleet still answers (now again through the primary).
    proxy.set_mode(FaultMode::None);
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(fleet.routed(&mut client, 0, QUERIES[0], &mode), expected);
}

/// A backend that accepts a request and then stalls mid-response costs
/// one per-attempt deadline, not a hang: the router cuts it off and
/// the replica answers.
#[test]
fn a_stalled_backend_costs_one_deadline_not_a_hang() {
    let fleet = Fleet::start("stall", true, true);
    let proxy = fleet.proxy.as_ref().unwrap();
    let mode = WireMode::AllPairsFull;
    let expected = fleet.expected(0, QUERIES[0], &mode);
    let mut client = fleet.client();
    proxy.set_mode(FaultMode::Stall { after: 16 });
    let started = Instant::now();
    let got = fleet.routed(&mut client, 0, QUERIES[0], &mode);
    let elapsed = started.elapsed();
    assert_eq!(got, expected, "diverged with a stalled backend");
    // One stalled attempt (≤ the 700ms per-attempt deadline) plus the
    // healthy replica; generous slack for a loaded test machine.
    assert!(
        elapsed < Duration::from_secs(5),
        "stall was not cut off: {elapsed:?}"
    );
    proxy.set_mode(FaultMode::None);
}

/// Catalog-epoch divergence: a run pushed to one backend only moves
/// that backend's epoch; a backend that does not hold it refuses with
/// the stale-replica error, the syncer notices the epoch change and
/// re-replicates, and the fleet then survives losing the donor.
#[test]
fn epoch_divergence_resyncs_and_stale_replicas_refuse() {
    let fleet = Fleet::start("epoch", false, true);
    let spec = Arc::new(rpq_workloads::paper_examples::fig2_spec());
    // A run nobody holds yet: a target size the fixture scan never
    // uses, double-checked against every fixture fingerprint (same
    // target sizes can saturate to structurally identical runs).
    let fresh = RunBuilder::new(&spec)
        .seed(999)
        .target_edges(100)
        .build()
        .unwrap();
    let (hi, lo) = fresh.fingerprint();
    assert!(
        fleet.runs.iter().all(|r| r.fingerprint() != (hi, lo)),
        "the fresh run must be new to the fleet"
    );
    // The donor is one of the run's ring replicas and the stale backend
    // the one outside them. The syncer copies a run to its ring
    // replicas only, so it can never hand the stale backend the run
    // between the push and the refusal checked below — with a stale
    // *replica* that check would race the syncer's next round.
    let ring = HashRing::new(BACKENDS);
    let replicas = ring.replicas_for(hi, lo, REPLICATION);
    let donor = replicas[0];
    let stale = (0..BACKENDS)
        .find(|b| !replicas.contains(b))
        .expect("fewer replicas than backends");
    let epoch_before: Vec<u64> = fleet
        .backends
        .iter()
        .map(|&addr| connect(addr).stats().unwrap().store_epoch)
        .collect();
    let (_, deduplicated, epoch) = connect(fleet.backends[donor])
        .push_run(fresh.clone())
        .unwrap();
    assert!(!deduplicated);
    assert!(epoch > epoch_before[donor], "a push must move the epoch");
    // A backend that does not hold the run refuses it as stale rather
    // than answering wrong.
    match connect(fleet.backends[stale])
        .request(&WireRequest::Query(QuerySpec {
            query: QUERIES[0].to_owned(),
            policy: String::new(),
            strategy: String::new(),
            stages: false,
            run: RunAddr::Fingerprint(hi, lo),
            mode: WireMode::EntryExit,
        }))
        .unwrap()
    {
        WireResponse::Error { kind, message } => {
            assert_eq!(kind, "invalid");
            assert!(
                message.contains("no stored run has fingerprint"),
                "{message}"
            );
        }
        other => panic!("expected a stale-replica refusal, got {other:?}"),
    }
    // The syncer spots the divergent epoch and re-replicates; after
    // convergence the donor itself is expendable.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let placed = ring.replicas_for(hi, lo, REPLICATION).into_iter().all(|b| {
            connect(fleet.backends[b])
                .runs()
                .unwrap()
                .iter()
                .any(|info| (info.fp_hi, info.fp_lo) == (hi, lo))
        });
        if placed {
            break;
        }
        assert!(Instant::now() < deadline, "the epoch change never synced");
        std::thread::sleep(Duration::from_millis(50));
    }
    fleet.backend_handles[donor].shutdown();
    let prepared = fleet.referee.prepare(QUERIES[0]).unwrap();
    let request = WireMode::EntryExit.to_request(&fresh).unwrap();
    let expected = rpq_store::codec::to_bytes(&WireResult::from_result(
        &fleet.referee.evaluate(&prepared, &fresh, &request).result,
    ));
    let outcome = fleet
        .client()
        .query(QuerySpec {
            query: QUERIES[0].to_owned(),
            policy: String::new(),
            strategy: String::new(),
            stages: false,
            run: RunAddr::Fingerprint(hi, lo),
            mode: WireMode::EntryExit,
        })
        .unwrap();
    assert_eq!(rpq_store::codec::to_bytes(&outcome.result), expected);
}

/// Positional addressing goes through the merged fleet inventory:
/// `ListRuns` is the fingerprint-sorted union of all backends, and
/// `Index(i)` answers exactly like the fingerprint it denotes.
#[test]
fn positional_addressing_follows_the_merged_inventory() {
    let fleet = Fleet::start("positional", false, true);
    let mut client = fleet.client();
    let inventory = client.runs().unwrap();
    assert_eq!(inventory.len(), fleet.runs.len());
    for (i, info) in inventory.iter().enumerate() {
        assert_eq!(info.id, i as u64, "inventory ids must be positional");
        if i > 0 {
            assert!(
                (inventory[i - 1].fp_hi, inventory[i - 1].fp_lo) < (info.fp_hi, info.fp_lo),
                "inventory must be fingerprint-sorted"
            );
        }
        let run_idx = fleet
            .runs
            .iter()
            .position(|r| r.fingerprint() == (info.fp_hi, info.fp_lo))
            .unwrap();
        let by_index = client
            .query(QuerySpec {
                query: QUERIES[0].to_owned(),
                policy: String::new(),
                strategy: String::new(),
                stages: false,
                run: RunAddr::Index(i as u64),
                mode: WireMode::AllPairsFull,
            })
            .unwrap();
        assert_eq!(
            rpq_store::codec::to_bytes(&by_index.result),
            fleet.expected(run_idx, QUERIES[0], &WireMode::AllPairsFull),
            "positional and fingerprint addressing diverged at index {i}"
        );
    }
    // Out-of-range positions are a typed error, not a hang or crash.
    match client
        .request(&WireRequest::Query(QuerySpec {
            query: QUERIES[0].to_owned(),
            policy: String::new(),
            strategy: String::new(),
            stages: false,
            run: RunAddr::Index(99),
            mode: WireMode::EntryExit,
        }))
        .unwrap()
    {
        WireResponse::Error { kind, .. } => assert_eq!(kind, "invalid"),
        other => panic!("expected an error, got {other:?}"),
    }
}

/// When *every* replica of a run is gone the router degrades to a
/// bounded `Unavailable` refusal — and stays alive: pings, stats and
/// the next query still get responses.
#[test]
fn losing_all_replicas_is_a_bounded_unavailable_refusal() {
    let spec = Arc::new(rpq_workloads::paper_examples::fig2_spec());
    let run = RunBuilder::new(&spec)
        .seed(7)
        .target_edges(60)
        .build()
        .unwrap();
    let store = RunStore::create(temp_dir("unavailable_b0"), Arc::clone(&spec)).unwrap();
    store.ingest(&run).unwrap();
    let server = Server::bind(store, &ServeConfig::default()).unwrap();
    let backend = server.local_addr().unwrap();
    let backend_handle = server.shutdown_handle();
    let serving = std::thread::spawn(move || server.run(None));
    let router = Router::bind(&RouterConfig {
        backends: vec![backend],
        replication: 1,
        workers: 1,
        deadline: Duration::from_millis(500),
        retry: RetryPolicy::fixed(Duration::from_millis(5), Duration::from_millis(20)),
        sync_interval: None,
        ..RouterConfig::default()
    })
    .unwrap();
    let router_addr = router.local_addr().unwrap();
    let router_handle = router.shutdown_handle();
    std::thread::spawn(move || router.run(None));

    let (hi, lo) = run.fingerprint();
    let query = |client: &mut ServeClient| {
        client.request(&WireRequest::Query(QuerySpec {
            query: "_* e _*".to_owned(),
            policy: String::new(),
            strategy: String::new(),
            stages: false,
            run: RunAddr::Fingerprint(hi, lo),
            mode: WireMode::EntryExit,
        }))
    };
    let mut client = connect(router_addr);
    // Sanity: the single-backend fleet answers while it is up.
    match query(&mut client).unwrap() {
        WireResponse::Outcome(_) | WireResponse::OutcomeStream(_) => {}
        other => panic!("expected an answer, got {other:?}"),
    }
    backend_handle.shutdown();
    serving.join().unwrap();

    let started = Instant::now();
    match query(&mut client).unwrap() {
        WireResponse::Unavailable { message } => {
            assert!(message.contains("no replica answered"), "{message}")
        }
        other => panic!("expected Unavailable, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "a dead fleet must refuse quickly"
    );
    // The router itself is alive and typed about the degradation.
    client.ping().unwrap();
    match client.request(&WireRequest::ListRuns).unwrap() {
        WireResponse::Unavailable { .. } => {}
        other => panic!("expected Unavailable runs, got {other:?}"),
    }
    match client.request(&WireRequest::Stats).unwrap() {
        WireResponse::Unavailable { .. } => {}
        other => panic!("expected Unavailable stats, got {other:?}"),
    }
    // Non-query verbs are rejected at the front door, dead fleet or not.
    match client
        .request(&WireRequest::Subscribe(QuerySpec {
            query: "_* e _*".to_owned(),
            policy: String::new(),
            strategy: String::new(),
            stages: false,
            run: RunAddr::Fingerprint(hi, lo),
            mode: WireMode::EntryExit,
        }))
        .unwrap()
    {
        WireResponse::Error { kind, message } => {
            assert_eq!(kind, "invalid");
            assert!(message.contains("query traffic only"), "{message}");
        }
        other => panic!("expected a verb refusal, got {other:?}"),
    }
    router_handle.shutdown();
}

/// Disk corruption of warm artifacts is a correctness no-op: the
/// store's decode-or-rebuild fallback regenerates them, and a server
/// over the scribbled store answers byte-identically.
#[test]
fn corrupted_artifacts_rebuild_instead_of_corrupting_answers() {
    let dir = temp_dir("corrupt");
    let spec = Arc::new(rpq_workloads::paper_examples::fig2_spec());
    let store = RunStore::create(&dir, Arc::clone(&spec)).unwrap();
    let run = RunBuilder::new(&spec)
        .seed(11)
        .target_edges(70)
        .build()
        .unwrap();
    store.ingest(&run).unwrap();
    // Warm once so the tag-index/CSR artifacts exist on disk.
    let server = Server::bind(store, &ServeConfig::default()).unwrap();
    server.warm().unwrap();
    let handle = server.shutdown_handle();
    let serving = std::thread::spawn(move || server.run(None));
    handle.shutdown();
    serving.join().unwrap();

    assert!(corrupt_artifacts(&dir).unwrap() > 0, "nothing to corrupt");

    let referee = Session::new(Arc::clone(&spec));
    let prepared = referee.prepare("_* e _*").unwrap();
    let request = WireMode::AllPairsFull.to_request(&run).unwrap();
    let expected = rpq_store::codec::to_bytes(&WireResult::from_result(
        &referee.evaluate(&prepared, &run, &request).result,
    ));
    let reopened = Server::bind(RunStore::open(&dir).unwrap(), &ServeConfig::default()).unwrap();
    reopened.warm().unwrap();
    let addr = reopened.local_addr().unwrap();
    std::thread::spawn(move || reopened.run(None));
    let outcome = connect(addr)
        .query(QuerySpec {
            query: "_* e _*".to_owned(),
            policy: String::new(),
            strategy: String::new(),
            stages: false,
            run: RunAddr::Index(0),
            mode: WireMode::AllPairsFull,
        })
        .unwrap();
    assert_eq!(rpq_store::codec::to_bytes(&outcome.result), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The router forwards `QuerySpec.policy` / `strategy` untouched:
/// empty fields are answered byte-identically, a value comes back as
/// the backend's typed `invalid` refusal, and the connection stays
/// usable.
#[test]
fn evaluation_overrides_are_refused_through_the_router() {
    let fleet = Fleet::start("overrides", false, true);
    let mut client = fleet.client();
    let (query, mode) = (QUERIES[3], WireMode::AllPairsFull);
    assert_eq!(
        fleet.routed(&mut client, 0, query, &mode),
        fleet.expected(0, query, &mode)
    );
    let (hi, lo) = fleet.runs[0].fingerprint();
    for (policy, strategy, field) in [("naive", "", "policy"), ("", "lazy", "strategy")] {
        let request = WireRequest::Query(QuerySpec {
            query: query.to_owned(),
            policy: policy.to_owned(),
            strategy: strategy.to_owned(),
            stages: false,
            run: RunAddr::Fingerprint(hi, lo),
            mode: mode.clone(),
        });
        match client.request(&request).unwrap() {
            WireResponse::Error { kind, message } => {
                assert_eq!(kind, "invalid", "{message}");
                assert!(message.contains(&format!("QuerySpec.{field}")), "{message}");
            }
            other => panic!("expected an error response, got {other:?}"),
        }
        client.ping().unwrap();
    }
}

/// One long-lived faulted fleet for the property: built once, queried
/// under a randomized schedule of proxy faults.
fn shared_fleet() -> &'static Fleet {
    static FLEET: OnceLock<Fleet> = OnceLock::new();
    FLEET.get_or_init(|| Fleet::start("shared", true, true))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Under a randomized schedule of injected faults on one backend —
    /// none, refused connections, responses truncated at a random byte
    /// offset — every (query, run, mode) routed through the fleet is
    /// byte-identical to direct in-process evaluation.
    #[test]
    fn routed_answers_match_direct_evaluation_under_faults(
        query_idx in 0..QUERIES.len(),
        run_idx in 0..(BACKENDS + 1),
        mode_sel in 0..4usize,
        fault_sel in 0..3u32,
        cut in 5..600usize,
    ) {
        let fleet = shared_fleet();
        let proxy = fleet.proxy.as_ref().unwrap();
        proxy.set_mode(match fault_sel {
            0 => FaultMode::None,
            1 => FaultMode::Refuse,
            _ => FaultMode::TruncateResponse { after: cut },
        });
        let run = &fleet.runs[run_idx];
        let mode = &modes(run)[mode_sel];
        let query = QUERIES[query_idx];
        let mut client = fleet.client();
        let got = fleet.routed(&mut client, run_idx, query, mode);
        proxy.set_mode(FaultMode::None);
        prop_assert_eq!(got, fleet.expected(run_idx, query, mode));
    }
}
