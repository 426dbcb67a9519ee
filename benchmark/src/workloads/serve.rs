//! `serve_direct` and `serve_routed` — what a user of the query service
//! sees.
//!
//! `serve_direct`: one closed-loop client over loopback to one `Server`
//! on a warm store of BioAID-like runs with a session/store cache a
//! quarter the size of the corpus. Requests address runs by
//! fingerprint; 80 % go to a hot set of four runs, 20 % sweep the whole
//! corpus in a seeded order (each run equally often, so the number of
//! cache misses is a property of the cache policy and not of the
//! draw). Mix: 25 % `EntryExit` safe, 25 % `Pairwise` safe, 25 %
//! `Reachable` unsafe, 25 % `Pairwise` unsafe — the last two go to the
//! lazy product search under `auto`. p50 is the hot path (wire, framing,
//! thread wake-up, plan-cache hit, ns-scale decode or µs-scale search);
//! p95 is the cache-miss path (store reload and decode). The slow
//! classes — misses, CSR rebuilds after an eviction, whole-run searches
//! from the entry — add up to about a third of the ops: at the issue's
//! 70/30 split they added up to half, and the median flipped between
//! the hot path and a rebuild from one seed to the next.
//!
//! `serve_routed`: the identical request sequence through a `Router`
//! (replication 2, sync loop off) in front of two such backends, each
//! holding the full corpus — the same traffic plus one hop, so
//! `serve_routed − serve_direct` is the router tier by construction.

use super::{
    frozen_unsafe_queries, micros, referee_reachable, text_of, EvalFacts, EvalTotals, SpecKind,
};
use super::{DERIVATION_SEED, POOL_SEED};
use crate::gen::{Digest, Manifest, Rng};
use crate::harness::{spread_sample, Check, Workload};
use crate::host;
use crate::metrics::Layers;
use crate::sizes::Sizes;
use crate::trace::Tracer;
use rpq::baselines::Referee;
use rpq::prelude::*;
use rpq::serve::protocol::{
    decode_payload, encode_frame, QuerySpec, RunAddr, WireMode, WireRequest, WireResponse,
};
use rpq::serve::protocol::{WireOutcome, WireResult};
use rpq::workloads::{runs, QueryGen};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    EntryExitSafe,
    PairwiseSafe,
    ReachableUnsafe,
    PairwiseUnsafe,
}

#[derive(Clone)]
struct Req {
    kind: Kind,
    run: usize,
    query: usize,
    u: u32,
    v: u32,
}

pub struct Inputs {
    n_runs: usize,
    edges: usize,
    cache: usize,
    safe: Vec<String>,
    unsafe_: Vec<String>,
    ops: Vec<Req>,
}

impl Inputs {
    fn text(&self, req: &Req) -> &str {
        match req.kind {
            Kind::EntryExitSafe | Kind::PairwiseSafe => &self.safe[req.query],
            Kind::ReachableUnsafe | Kind::PairwiseUnsafe => &self.unsafe_[req.query],
        }
    }

    fn wire(&self, req: &Req, fingerprint: (u64, u64), stages: bool) -> WireRequest {
        WireRequest::Query(QuerySpec {
            query: self.text(req).to_owned(),
            // Empty = the server's defaults: no forced policy/strategy.
            policy: String::new(),
            strategy: String::new(),
            stages,
            run: RunAddr::Fingerprint(fingerprint.0, fingerprint.1),
            mode: match req.kind {
                Kind::EntryExitSafe => WireMode::EntryExit,
                Kind::PairwiseSafe | Kind::PairwiseUnsafe => WireMode::Pairwise(req.u, req.v),
                Kind::ReachableUnsafe => WireMode::Reachable(req.u),
            },
        })
    }
}

/// A server or router running on its own thread: asked to stop, then
/// joined, on drop.
pub(super) struct Running {
    stop: Box<dyn Fn()>,
    thread: Option<JoinHandle<()>>,
}

impl Running {
    fn spawn(stop: impl Fn() + 'static, run: impl FnOnce() + Send + 'static) -> Running {
        Running {
            stop: Box::new(stop),
            thread: Some(std::thread::spawn(run)),
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        (self.stop)();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// One `Server` on its own store directory.
struct Backend {
    dir: PathBuf,
    addr: SocketAddr,
    _running: Running,
}

fn connect(addr: SocketAddr) -> Result<ServeClient, String> {
    ServeClient::connect_with_retry(addr, Duration::from_secs(5)).map_err(|e| e.to_string())
}

/// Ingest `corpus` into a fresh store under `dir`, materialize its
/// artifacts, and serve the reopened (cold-cache, warm-disk) store.
pub(super) fn start_backend(
    dir: &Path,
    spec: &Arc<Specification>,
    corpus: &[Run],
    cache: Option<usize>,
    layers: &mut Layers,
) -> Result<(SocketAddr, Running), String> {
    let e = |e: RpqError| e.to_string();
    let store = RunStore::create(dir, Arc::clone(spec)).map_err(e)?;
    for run in corpus {
        let t = Instant::now();
        store.ingest(run).map_err(e)?;
        layers.push("store.ingest_us_per_run", micros(t));
    }
    let t = Instant::now();
    store.materialize_artifacts().map_err(e)?;
    layers.push(
        "store.materialize_us_per_run",
        micros(t) / corpus.len().max(1) as f64,
    );
    if store.len() != corpus.len() {
        return Err("the generated corpus deduplicated inside the store".to_owned());
    }
    drop(store);
    let t = Instant::now();
    let store = RunStore::open(dir).map_err(e)?;
    let server = Server::bind(
        store,
        &ServeConfig {
            workers: host::workers(),
            cache,
            ..ServeConfig::default()
        },
    )
    .map_err(e)?;
    server.warm().map_err(e)?;
    layers.push("store.open_warm_us", micros(t));
    let addr = server.local_addr().map_err(e)?;
    let handle = server.shutdown_handle();
    let running = Running::spawn(
        move || handle.shutdown(),
        move || {
            server.run(None);
        },
    );
    Ok((addr, running))
}

/// `ROUTED = false` is `serve_direct`, `true` is `serve_routed`.
pub struct Serve<const ROUTED: bool> {
    inputs: Arc<Inputs>,
    spec: Arc<Specification>,
    corpus: Vec<Run>,
    // Field order is drop order: clients, then the router, then the
    // backends it talks to.
    client: ServeClient,
    /// Straight to backend 0, for the hop subtraction (routed only).
    direct: Option<ServeClient>,
    _front: Option<Running>,
    backends: Vec<Backend>,
    /// Per op: the request as timed, and its traced twin that asks the
    /// server to ship its stage breakdown.
    requests: Vec<(WireRequest, WireRequest)>,
    local: Session,
    totals: EvalTotals,
    issued: u64,
}

impl<const ROUTED: bool> Serve<ROUTED> {
    fn outcome(response: Result<WireResponse, RpqError>) -> Result<WireOutcome, String> {
        match response {
            Ok(WireResponse::Outcome(outcome)) => Ok(outcome),
            Ok(WireResponse::Overloaded { queue }) => {
                Err(format!("refused: overloaded (queue {queue})"))
            }
            Ok(WireResponse::Unavailable { message }) => {
                Err(format!("refused: unavailable ({message})"))
            }
            Ok(WireResponse::Error { kind, message }) => Err(format!("{kind} error: {message}")),
            Ok(other) => Err(format!("unexpected response {other:?}")),
            Err(e) => Err(e.to_string()),
        }
    }
}

impl<const ROUTED: bool> Workload for Serve<ROUTED> {
    type Inputs = Inputs;
    /// A routed set-up builds two stores; three of them cost 4 s.
    const SETUP_REPEATS: usize = if ROUTED { 3 } else { 5 };

    fn generate(seed: u64, sizes: &Sizes) -> (Inputs, Manifest) {
        let mut manifest = Manifest::default();
        // Stream 4 for both serve workloads: the request sequence of
        // `serve_routed` is `serve_direct`'s.
        let mut rng = Rng::new(seed, 4);
        let real = SpecKind::Bioaid.build();
        let session = Session::from_spec(real.spec.clone());
        let per_kind = sizes.serve_queries_per_kind;

        let mut gen = QueryGen::new(&real.spec, POOL_SEED);
        let mut safe: Vec<String> = Vec::new();
        while safe.len() < per_kind {
            let text = text_of(
                &real.spec,
                &gen.ifq_over(&real.pool_tags, 1 + safe.len() % 3),
            );
            match session.prepare(&text) {
                Ok(q) if q.is_safe() && !safe.contains(&text) => safe.push(text),
                _ => manifest.count("queries.safe.rejected", 1),
            }
        }
        let calibration = runs::simulate(&real.spec, sizes.serve_edges, DERIVATION_SEED)
            .expect("realistic specs derive");
        let from_entry = QueryRequest::reachable(calibration.entry());
        let unsafe_: Vec<String> =
            frozen_unsafe_queries(&session, per_kind, "queries.unsafe", &mut manifest, |q| {
                match session.evaluate(q, &calibration, &from_entry).len() {
                    0 => Err("empty_answer"),
                    _ => Ok(()),
                }
            })
            .iter()
            .map(|q| q.source().to_owned())
            .collect();

        let corpus = runs::corpus(
            &real.spec,
            sizes.serve_runs,
            sizes.serve_edges,
            DERIVATION_SEED,
        )
        .expect("realistic specs derive");
        let hot = rng.sample(corpus.len(), sizes.serve_hot_runs);
        let mut sweep: Vec<u32> = (0..corpus.len() as u32).collect();
        rng.shuffle(&mut sweep);

        // Exact quotas for kind (25 % each) and placement (80 % hot),
        // then seeded orders.
        let n = sizes.serve_ops;
        let mut kinds: Vec<Kind> = (0..n)
            .map(|i| {
                [
                    Kind::EntryExitSafe,
                    Kind::PairwiseSafe,
                    Kind::ReachableUnsafe,
                    Kind::PairwiseUnsafe,
                ][i % 4]
            })
            .collect();
        rng.shuffle(&mut kinds);
        let mut to_hot: Vec<bool> = (0..n).map(|i| i % 10 < 8).collect();
        rng.shuffle(&mut to_hot);
        let mut swept = 0usize;
        let mut digest = Digest::default();
        let ops: Vec<Req> = kinds
            .into_iter()
            .zip(to_hot)
            .map(|(kind, hot_request)| {
                let run = if hot_request {
                    hot[rng.below(hot.len())] as usize
                } else {
                    swept += 1;
                    sweep[(swept - 1) % sweep.len()] as usize
                };
                let n_nodes = corpus[run].n_nodes();
                let u = match kind {
                    Kind::ReachableUnsafe if rng.below(4) == 0 => corpus[run].entry().0,
                    _ => rng.below(n_nodes) as u32,
                };
                let req = Req {
                    kind,
                    run,
                    query: rng.below(per_kind),
                    u,
                    v: rng.below(n_nodes) as u32,
                };
                digest.u64(kind as u64);
                digest.u64(run as u64);
                digest.u64(req.query as u64);
                digest.ids(&[req.u, req.v]);
                manifest.count(
                    if hot_request {
                        "ops.to_hot_runs"
                    } else {
                        "ops.sweeping"
                    },
                    1,
                );
                req
            })
            .collect();
        for text in safe.iter().chain(&unsafe_) {
            digest.text(text);
        }
        manifest.count("runs", corpus.len() as u64);
        manifest.count("cache_capacity", sizes.serve_cache as u64);
        manifest.inputs_digest = digest.hex();
        (
            Inputs {
                n_runs: sizes.serve_runs,
                edges: sizes.serve_edges,
                cache: sizes.serve_cache,
                safe,
                unsafe_,
                ops,
            },
            manifest,
        )
    }

    fn setup(
        inputs: &Arc<Inputs>,
        dir: &Path,
        layers: &mut Layers,
    ) -> Result<Serve<ROUTED>, String> {
        let spec = Arc::new(SpecKind::Bioaid.build_timed(layers).spec);
        let t = Instant::now();
        let corpus = runs::corpus(&spec, inputs.n_runs, inputs.edges, DERIVATION_SEED)
            .map_err(|e| format!("run derivation failed: {e}"))?;
        let edges: usize = corpus.iter().map(Run::n_edges).sum();
        layers.push(
            "labeling.derive_edges_per_s",
            edges as f64 / t.elapsed().as_secs_f64().max(1e-9),
        );

        let mut backends = Vec::new();
        for b in 0..if ROUTED { 2 } else { 1 } {
            let dir = dir.join(format!("backend-{b}"));
            let (addr, running) = start_backend(&dir, &spec, &corpus, Some(inputs.cache), layers)?;
            backends.push(Backend {
                dir,
                addr,
                _running: running,
            });
        }
        let mut front_addr = backends[0].addr;
        let front = if ROUTED {
            let router = Router::bind(&RouterConfig {
                backends: backends.iter().map(|b| b.addr).collect(),
                replication: 2,
                workers: host::workers(),
                // Every backend already holds everything.
                sync_interval: None,
                ..RouterConfig::default()
            })
            .map_err(|e| e.to_string())?;
            front_addr = router.local_addr().map_err(|e| e.to_string())?;
            let handle = router.shutdown_handle();
            Some(Running::spawn(
                move || handle.shutdown(),
                move || {
                    router.run(None);
                },
            ))
        } else {
            None
        };
        let t = Instant::now();
        let client = connect(front_addr)?;
        layers.push("serve.connect_us", micros(t));
        let direct = if ROUTED {
            Some(connect(backends[0].addr)?)
        } else {
            None
        };

        let requests = inputs
            .ops
            .iter()
            .map(|req| {
                let fingerprint = corpus[req.run].fingerprint();
                (
                    inputs.wire(req, fingerprint, false),
                    inputs.wire(req, fingerprint, true),
                )
            })
            .collect();
        Ok(Serve {
            inputs: Arc::clone(inputs),
            local: Session::new(Arc::clone(&spec)),
            spec,
            corpus,
            client,
            direct,
            _front: front,
            backends,
            requests,
            totals: EvalTotals::default(),
            issued: 0,
        })
    }

    fn n_ops(&self) -> usize {
        self.requests.len()
    }

    fn op(&mut self, i: usize, tracer: &mut Tracer, layers: &mut Layers) -> Result<u64, String> {
        self.issued += 1;
        if !tracer.is_on() {
            return Self::outcome(self.client.request(&self.requests[i].0))
                .map(|o| o.result.len() as u64);
        }
        let span = tracer.enter("serve.request");
        let t = Instant::now();
        let outcome = Self::outcome(self.client.request(&self.requests[i].1));
        let us = micros(t);
        if let Ok(outcome) = &outcome {
            let stages: Vec<(&str, u64)> = outcome
                .stages
                .iter()
                .map(|(name, us)| (name.as_str(), *us))
                .collect();
            self.totals.note(
                layers,
                &EvalFacts {
                    stages: &stages,
                    wall_us: outcome.micros as f64,
                    lazy: outcome.strategy == "lazy",
                    product_states: outcome.product_states,
                    closures: outcome.closure_pairs + outcome.closure_bits + outcome.closure_scc,
                    condensations_computed: outcome.condensations_computed,
                    condensations_reused: outcome.condensations_reused,
                    answers: outcome.result.len() as u64,
                },
            );
            layers.push("serve.server_us", outcome.micros as f64);
            layers.push("serve.wire_us", us - outcome.micros as f64);
            tracer.count("server_us", outcome.micros as f64);
            tracer.count("answers", outcome.result.len() as f64);
            for (name, us) in &stages {
                tracer.count(
                    match *name {
                        "plan" => "stage.plan_us",
                        "store_load" => "stage.store_load_us",
                        "index" => "stage.index_us",
                        "csr" => "stage.csr_us",
                        "eval" => "stage.eval_us",
                        "lazy_expand" => "stage.lazy_expand_us",
                        _ => "stage.other_us",
                    },
                    *us as f64,
                );
            }
        }
        tracer.exit(span);
        outcome.map(|o| o.result.len() as u64)
    }

    /// The same request again, routed and direct back to back (their
    /// difference is the hop), its response through the codec alone,
    /// the store's load path on a cold handle, and a plan-cache hit on
    /// an in-process session.
    fn replay(&mut self, i: usize, layers: &mut Layers) -> Result<(), String> {
        let request = &self.requests[i].0;
        // First touch may reload the run on either path; time the second.
        Self::outcome(self.client.request(request))?;
        let t = Instant::now();
        let outcome = Self::outcome(self.client.request(request))?;
        let front_us = micros(t);
        if let Some(direct) = &mut self.direct {
            Self::outcome(direct.request(request))?;
            let t = Instant::now();
            Self::outcome(direct.request(request))?;
            let hop = front_us - micros(t);
            layers.push("router.hop_us", hop);
            layers.push("router.hop_p95_us", hop);
        }

        let response = WireResponse::Outcome(outcome);
        let t = Instant::now();
        let frame = encode_frame(&response).map_err(|e| e.to_string())?;
        layers.push("serve.encode_us", micros(t));
        layers.push("serve.response_bytes", frame.len() as f64);
        let t = Instant::now();
        let back: WireResponse = decode_payload(&frame[9..]).map_err(|e| e.to_string())?;
        layers.push("serve.decode_us", micros(t));
        if back != response {
            return Err(format!("op {i}: response does not survive the codec"));
        }

        let req = &self.inputs.ops[i];
        let fingerprint = self.corpus[req.run].fingerprint();
        let store = RunStore::open(&self.backends[0].dir).map_err(|e| e.to_string())?;
        let id = store
            .find_by_fingerprint(fingerprint.0, fingerprint.1)
            .ok_or_else(|| format!("op {i}: run missing from the backend store"))?;
        let t = Instant::now();
        store.run(id).map_err(|e| e.to_string())?;
        layers.push("store.run_load_us", micros(t));
        let t = Instant::now();
        store.artifacts(id).map_err(|e| e.to_string())?;
        layers.push("store.artifact_load_us", micros(t));

        let text = self.inputs.text(req);
        self.local.prepare(text).map_err(|e| e.to_string())?;
        let t = Instant::now();
        std::hint::black_box(self.local.prepare(text).map_err(|e| e.to_string())?);
        layers.push("core.prepare_hit_us", micros(t));
        Ok(())
    }

    fn finish_trace(&mut self, layers: &mut Layers) -> Result<(), String> {
        self.totals.finish(layers);
        let t = Instant::now();
        let metrics = self.client.metrics().map_err(|e| e.to_string())?;
        layers.push("obs.metrics_scrape_us", micros(t));
        let stats = self.client.stats().map_err(|e| e.to_string())?;
        super::note_cache_ratios(
            layers,
            (stats.plan_hits, stats.plan_misses),
            (stats.index_hits, stats.index_misses),
            (stats.csr_hits, stats.csr_misses),
        );
        // Lifetime totals, scaled to one pass of the op sequence.
        let per_pass = self.requests.len() as f64 / (self.issued as f64).max(1.0);
        layers.push(
            "store.reloads",
            (stats.tag_reloads + stats.csr_reloads) as f64 * per_pass,
        );
        layers.push(
            "store.rebuilds",
            (stats.tag_rebuilds + stats.csr_rebuilds) as f64 * per_pass,
        );
        layers.push("serve.overloaded", stats.overloaded as f64);
        layers.push("serve.request_errors", stats.request_errors as f64);
        let edges: usize = self.corpus.iter().map(Run::n_edges).sum();
        layers.push(
            "store.disk_bytes_per_edge",
            host::dir_bytes(&self.backends[0].dir) as f64 / edges as f64,
        );
        if ROUTED {
            let counter = |name: &str| {
                metrics
                    .counters
                    .iter()
                    .find(|(k, _)| k == name)
                    .map_or(0.0, |(_, v)| *v as f64)
            };
            layers.push("router.failovers", counter("rpq_router_failovers_total"));
            layers.push("router.retries", counter("rpq_router_retries_total"));
            layers.push(
                "router.unavailable",
                counter("rpq_router_unavailable_total"),
            );
            let mut served = Vec::new();
            for backend in &self.backends {
                served.push(
                    connect(backend.addr)?
                        .stats()
                        .map_err(|e| e.to_string())?
                        .requests as f64,
                );
            }
            let total: f64 = served.iter().sum();
            layers.push(
                "router.backend_skew",
                served.iter().cloned().fold(0.0, f64::max) / total.max(1.0),
            );
        }
        Ok(())
    }

    fn check(&mut self, answers: &[u64], sizes: &Sizes) -> Check {
        let mut check = Check::default();
        // Reachable ops first (set-valued), then an even spread of all.
        let reachable: Vec<usize> = (0..self.requests.len())
            .filter(|&i| self.inputs.ops[i].kind == Kind::ReachableUnsafe)
            .take(sizes.check_ops)
            .collect();
        let spread = spread_sample(self.requests.len(), sizes.check_ops);
        for i in reachable.into_iter().chain(spread) {
            let req = &self.inputs.ops[i];
            let run = &self.corpus[req.run];
            let outcome = match Self::outcome(self.client.request(&self.requests[i].0)) {
                Ok(outcome) => outcome,
                Err(e) => {
                    check.compare(false, || format!("op {i}: {e}"));
                    continue;
                }
            };
            let Ok(query) = self.local.prepare(self.inputs.text(req)) else {
                check.compare(false, || format!("op {i}: query does not prepare locally"));
                continue;
            };
            let expected = match req.kind {
                Kind::ReachableUnsafe => {
                    referee_reachable(&self.spec, run, query.regex(), NodeId(req.u))
                        .map(WireResult::Nodes)
                }
                _ => {
                    let (u, v) = match req.kind {
                        Kind::EntryExitSafe => (run.entry(), run.exit()),
                        _ => (NodeId(req.u), NodeId(req.v)),
                    };
                    let dfa = rpq::automata::compile_minimal_dfa(query.regex(), self.spec.n_tags());
                    (dfa.n_states() <= super::MAX_DFA_STATES)
                        .then(|| WireResult::Bool(Referee::new(run, &dfa).pairwise(u, v)))
                }
            };
            let Some(expected) = expected else { continue };
            check.compare(
                outcome.result == expected && expected.len() as u64 == answers[i],
                || {
                    format!(
                        "op {i}: {} answered {} match(es), referee {}",
                        self.inputs.text(req),
                        outcome.result.len(),
                        expected.len()
                    )
                },
            );
        }
        check
    }
}
