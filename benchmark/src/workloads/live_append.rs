//! `live_append` — writes beside reads: append-to-visible-answer
//! latency.
//!
//! Runs of both datasets are each cut by `runs::event_stream` into a
//! base plus a fixed number of batches (~80 edges). Each stream has its
//! own `Server` (a store holds one specification, and the short bases
//! of two runs of one dataset can be structurally identical, which a
//! store deduplicates); an op is `ServeClient::append(batch)` immediately
//! followed by a `Reachable` query on an unsafe standing query from the
//! run's entry, addressed by the receipt's new fingerprint, timed from
//! before the append to the answer. The streams interleave in seeded
//! order; every pass starts from fresh stores (re-creation untimed).
//! The same `store`/`relalg`/`labeling` code the read workloads use,
//! driven as a writer: per-append cost grows with the run.

use super::serve::{start_backend, Running};
use super::{
    frozen_unsafe_queries, micros, referee_reachable, seeded_sizes, SpecKind, DERIVATION_SEED,
};
use crate::gen::{Digest, Manifest, Rng};
use crate::harness::{Check, Workload};
use crate::host;
use crate::metrics::Layers;
use crate::sizes::Sizes;
use crate::trace::Tracer;
use rpq::labeling::EventBatch;
use rpq::prelude::*;
use rpq::relalg::BitRelation;
use rpq::serve::protocol::{QuerySpec, RunAddr, WireMode, WireResult};
use rpq::store::OpenRun;
use rpq::workloads::runs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct Inputs {
    batches: usize,
    /// Per stream: `(dataset, target size)`; sizes are drawn by the seed
    /// within ±5 % of the frozen base.
    streams: Vec<(usize, usize)>,
    /// Per dataset: the standing query.
    queries: [String; 2],
    /// Which stream's next batch each op appends.
    ops: Vec<usize>,
}

/// One streamed run: the finished run, its base and its batches.
struct Stream {
    dataset: usize,
    full: Run,
    base: Run,
    batches: Vec<EventBatch>,
}

/// One stream's server for the current pass.
struct Live {
    client: ServeClient,
    _running: Running,
}

/// Where a stream stands in the current pass.
#[derive(Clone)]
struct Cursor {
    /// Current address of the growing run.
    fingerprint: (u64, u64),
    applied: usize,
}

/// A stream's in-process replica, appended to in lockstep by the
/// traced run.
struct Replica {
    open: Arc<OpenRun>,
    dir: PathBuf,
    applied: usize,
}

pub struct LiveAppend {
    inputs: Arc<Inputs>,
    dir: PathBuf,
    specs: Vec<Arc<Specification>>,
    streams: Vec<Stream>,
    live: Vec<Live>,
    cursors: Vec<Cursor>,
    generation: usize,
    /// Stores untouched since they were started: the next pass may use
    /// them as they are.
    fresh: bool,
    /// Per stream: the answer after its final batch in the last pass.
    finals: Vec<Option<Vec<u32>>>,
    replicas: Vec<Replica>,
}

impl LiveAppend {
    fn start_servers(&mut self, layers: &mut Layers) -> Result<(), String> {
        self.live.clear();
        self.generation += 1;
        for (s, stream) in self.streams.iter().enumerate() {
            let dir = self.dir.join(format!("gen-{}-{s}", self.generation));
            let bases = std::slice::from_ref(&stream.base);
            let (addr, running) =
                start_backend(&dir, &self.specs[stream.dataset], bases, None, layers)?;
            let t = Instant::now();
            let client = ServeClient::connect_with_retry(addr, Duration::from_secs(5))
                .map_err(|e| e.to_string())?;
            layers.push("serve.connect_us", micros(t));
            self.live.push(Live {
                client,
                _running: running,
            });
        }
        self.cursors = self
            .streams
            .iter()
            .map(|s| Cursor {
                fingerprint: s.base.fingerprint(),
                applied: 0,
            })
            .collect();
        self.fresh = true;
        Ok(())
    }
}

impl Workload for LiveAppend {
    type Inputs = Inputs;
    const SETUP_REPEATS: usize = 25;

    fn generate(seed: u64, sizes: &Sizes) -> (Inputs, Manifest) {
        let mut manifest = Manifest::default();
        let mut rng = Rng::new(seed, 6);
        let mut queries: [String; 2] = Default::default();
        let mut sizes_by_dataset: [Vec<usize>; 2] = Default::default();
        for (d, kind) in SpecKind::BOTH.into_iter().enumerate() {
            let real = kind.build();
            let session = Session::from_spec(real.spec.clone());
            let calibration = runs::simulate(&real.spec, sizes.live_edges, DERIVATION_SEED)
                .expect("realistic specs derive");
            let from_entry = QueryRequest::reachable(calibration.entry());
            let prefix = format!("queries.{}", kind.name());
            // A standing query worth watching: its answer keeps growing
            // with the run.
            let kept =
                frozen_unsafe_queries(&session, 1, &prefix, &mut manifest, |q| {
                    match session.evaluate(q, &calibration, &from_entry).len() {
                        n if n * 20 < calibration.n_nodes() => Err("answer_too_small"),
                        _ => Ok(()),
                    }
                });
            queries[d] = kept[0].source().to_owned();
            sizes_by_dataset[d] = seeded_sizes(
                &mut rng,
                sizes.live_edges,
                sizes.live_streams_per_spec,
                |edges| {
                    runs::simulate(&real.spec, edges, DERIVATION_SEED)
                        .expect("realistic specs derive")
                },
            );
        }
        // Datasets alternate, so neighbouring streams differ in shape.
        let streams: Vec<(usize, usize)> = (0..2 * sizes.live_streams_per_spec)
            .map(|s| (s % 2, sizes_by_dataset[s % 2][s / 2]))
            .collect();
        // Each stream's batches in order, the streams interleaved.
        let mut ops: Vec<usize> = (0..streams.len() * sizes.live_batches)
            .map(|i| i % streams.len())
            .collect();
        rng.shuffle(&mut ops);
        let mut digest = Digest::default();
        for (dataset, edges) in &streams {
            digest.u64(*dataset as u64);
            digest.u64(*edges as u64);
        }
        for text in &queries {
            digest.text(text);
        }
        for &s in &ops {
            digest.u64(s as u64);
        }
        manifest.count("runs", streams.len() as u64);
        manifest.count("ops.append_then_query", ops.len() as u64);
        manifest.inputs_digest = digest.hex();
        (
            Inputs {
                batches: sizes.live_batches,
                streams,
                queries,
                ops,
            },
            manifest,
        )
    }

    fn setup(inputs: &Arc<Inputs>, dir: &Path, layers: &mut Layers) -> Result<LiveAppend, String> {
        let specs: Vec<Arc<Specification>> = SpecKind::BOTH
            .iter()
            .map(|k| Arc::new(k.build_timed(layers).spec))
            .collect();
        let mut streams = Vec::new();
        for &(dataset, edges) in &inputs.streams {
            let full = super::derive_timed(layers, || {
                runs::simulate(&specs[dataset], edges, DERIVATION_SEED)
            })?;
            let (base, batches) = runs::event_stream(&full, inputs.batches)?;
            streams.push(Stream {
                dataset,
                full,
                base,
                batches,
            });
        }
        let mut live = LiveAppend {
            inputs: Arc::clone(inputs),
            dir: dir.to_owned(),
            specs,
            finals: vec![None; streams.len()],
            streams,
            live: Vec::new(),
            cursors: Vec::new(),
            generation: 0,
            fresh: false,
            replicas: Vec::new(),
        };
        live.start_servers(layers)?;
        Ok(live)
    }

    fn n_ops(&self) -> usize {
        self.inputs.ops.len()
    }

    /// Every pass replays the streams from their bases.
    fn begin_pass(&mut self) -> Result<(), String> {
        if !self.fresh {
            self.start_servers(&mut Layers::default())?;
        }
        self.fresh = false;
        Ok(())
    }

    fn op(&mut self, i: usize, tracer: &mut Tracer, _layers: &mut Layers) -> Result<u64, String> {
        let s = self.inputs.ops[i];
        let stream = &self.streams[s];
        let (cursor, client) = (&mut self.cursors[s], &mut self.live[s].client);
        let batch = stream.batches[cursor.applied].clone();

        let span = tracer.enter("serve.append");
        let receipt = client.append(
            RunAddr::Fingerprint(cursor.fingerprint.0, cursor.fingerprint.1),
            batch,
        );
        if let Ok(receipt) = &receipt {
            tracer.count("new_edges", receipt.new_edges as f64);
            tracer.count("rebuilt", receipt.rebuilt as f64);
        }
        tracer.exit(span);
        let receipt = receipt.map_err(|e| e.to_string())?;
        cursor.fingerprint = (receipt.fp_hi, receipt.fp_lo);
        cursor.applied += 1;

        let query = QuerySpec {
            query: self.inputs.queries[stream.dataset].clone(),
            // Empty = the server's defaults: no forced policy/strategy.
            policy: String::new(),
            strategy: String::new(),
            stages: false,
            run: RunAddr::Fingerprint(cursor.fingerprint.0, cursor.fingerprint.1),
            mode: WireMode::Reachable(stream.base.entry().0),
        };
        let span = tracer.enter("serve.request");
        let outcome = client.query(query);
        if let Ok(outcome) = &outcome {
            tracer.count("server_us", outcome.micros as f64);
            tracer.count("answers", outcome.result.len() as f64);
        }
        tracer.exit(span);
        let outcome = outcome.map_err(|e| e.to_string())?;
        if cursor.applied == stream.batches.len() {
            self.finals[s] = match &outcome.result {
                WireResult::Nodes(nodes) => Some(nodes.clone()),
                _ => None,
            };
        }
        Ok(outcome.result.len() as u64)
    }

    /// The replicas follow every op, in order.
    fn replay_sample(&self, _sizes: &Sizes) -> Vec<usize> {
        (0..self.inputs.ops.len()).collect()
    }

    /// The op's batch applied to an in-process replica store in
    /// lockstep, and — on the replica's state just before it — through
    /// each maintenance step's public function alone.
    fn replay(&mut self, i: usize, layers: &mut Layers) -> Result<(), String> {
        let e = |e: RpqError| e.to_string();
        if i == 0 {
            self.replicas.clear();
            for (s, stream) in self.streams.iter().enumerate() {
                let dir = self.dir.join(format!("replica-{s}"));
                let _ = std::fs::remove_dir_all(&dir);
                let store = Arc::new(
                    RunStore::create(&dir, Arc::clone(&self.specs[stream.dataset])).map_err(e)?,
                );
                let id = store.ingest(&stream.base).map_err(e)?.id;
                store.materialize_artifacts().map_err(e)?;
                self.replicas.push(Replica {
                    open: store.open_run(id).map_err(e)?,
                    dir,
                    applied: 0,
                });
            }
        }
        let s = self.inputs.ops[i];
        let replica = &mut self.replicas[s];
        let batch = &self.streams[s].batches[replica.applied];
        replica.applied += 1;
        let before = replica.open.snapshot();

        let t = Instant::now();
        let grown = before.run.apply_events(batch)?;
        layers.push("labeling.apply_events_us", micros(t));
        let t = Instant::now();
        std::hint::black_box(grown.fingerprint());
        layers.push("labeling.fingerprint_us", micros(t));

        let n = grown.n_nodes();
        let edges: Vec<(Tag, NodeId, NodeId)> =
            batch.edges.iter().map(|e| (e.tag, e.src, e.dst)).collect();
        let delta: NodePairSet = batch
            .edges
            .iter()
            .map(|e| (e.src, e.dst))
            .filter(|&(u, v)| !before.tag.all_edges().contains(u, v))
            .collect();
        let t = Instant::now();
        let mut tag = (*before.tag).clone();
        tag.extend(&edges, n);
        layers.push("relalg.index_extend_us", micros(t));
        if let Some(reach) = &before.reach {
            let t = Instant::now();
            let base = BitRelation::from_pairs(tag.all_edges(), n);
            std::hint::black_box(reach.grow(n).extend_closure(&base, &delta));
            layers.push("relalg.extend_closure_us", micros(t));
        }

        let t = Instant::now();
        let receipt = replica.open.append_events(batch).map_err(e)?;
        layers.push("store.append_us", micros(t));
        layers.push(
            "store.append_rebuilds",
            f64::from(u8::from(receipt.rebuilt)),
        );
        layers.push(
            "store.artifact_bytes_per_append",
            (host::dir_bytes(&replica.dir.join("runs"))
                + host::dir_bytes(&replica.dir.join("index"))) as f64,
        );
        if i + 1 == self.inputs.ops.len() {
            let (bytes, edges) = self.replicas.iter().fold((0, 0), |(bytes, edges), r| {
                (
                    bytes + host::dir_bytes(&r.dir),
                    edges + r.open.snapshot().run.n_edges(),
                )
            });
            layers.push(
                "store.disk_bytes_per_edge",
                bytes as f64 / edges.max(1) as f64,
            );
        }
        Ok(())
    }

    fn finish_trace(&mut self, layers: &mut Layers) -> Result<(), String> {
        self.replicas.clear();
        let (mut plan, mut index, mut csr) = ((0, 0), (0, 0), (0, 0));
        for live in &mut self.live {
            let t = Instant::now();
            live.client.metrics().map_err(|e| e.to_string())?;
            layers.push("obs.metrics_scrape_us", micros(t));
            let stats = live.client.stats().map_err(|e| e.to_string())?;
            plan = (plan.0 + stats.plan_hits, plan.1 + stats.plan_misses);
            index = (index.0 + stats.index_hits, index.1 + stats.index_misses);
            csr = (csr.0 + stats.csr_hits, csr.1 + stats.csr_misses);
            layers.push("serve.overloaded", stats.overloaded as f64);
            layers.push("serve.request_errors", stats.request_errors as f64);
        }
        super::note_cache_ratios(layers, plan, index, csr);
        Ok(())
    }

    /// Every final answer against the referee on the finished run.
    fn check(&mut self, _answers: &[u64], _sizes: &Sizes) -> Check {
        let mut check = Check::default();
        for (s, stream) in self.streams.iter().enumerate() {
            let (spec, text) = (
                &self.specs[stream.dataset],
                &self.inputs.queries[stream.dataset],
            );
            let Ok(query) = Session::new(Arc::clone(spec)).prepare(text) else {
                check.compare(false, || format!("standing query {text} does not prepare"));
                continue;
            };
            let Some(expected) =
                referee_reachable(spec, &stream.full, query.regex(), stream.base.entry())
            else {
                continue;
            };
            check.compare(self.finals[s].as_ref() == Some(&expected), || {
                format!(
                    "stream {s}: {text}: final answer has {:?} node(s), referee {}",
                    self.finals[s].as_ref().map(Vec::len),
                    expected.len()
                )
            });
        }
        check
    }
}
