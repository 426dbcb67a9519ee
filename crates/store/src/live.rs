//! Live ingestion: streaming appends with incremental artifact
//! maintenance.
//!
//! A stored run opened via [`RunStore::open_run`] becomes an
//! [`OpenRun`]: batches of new nodes and edges land through
//! [`OpenRun::append_events`], and the run's persisted artifacts are
//! maintained *incrementally* instead of rebuilt — each touched tag's
//! pair set is merged in place (`TagIndex::extend`), only the CSR
//! mirrors of touched tags are refreshed (`CsrIndex::extend`), and the
//! warm wildcard reachability closure is extended by a semi-naive
//! delta round seeded from the genuinely new edges
//! (`BitRelation::extend_closure`) rather than refixpointed from
//! scratch. Because every maintained structure is a pure function of
//! its pair sets, the incremental result is byte-identical to
//! re-ingesting the grown run (pinned by the `live_equivalence`
//! property suite).
//!
//! Past a configurable churn threshold the delta path stops paying off
//! and the append falls back to a full rebuild, counted in
//! [`StoreStats::append_rebuilds`](crate::StoreStats::append_rebuilds).
//!
//! Appends are durable: the catalog row (fingerprint, sizes) and epoch
//! are updated first, then the run and artifact files are rewritten
//! atomically, so reopening the store resumes from the grown run with
//! warm indexes. Subscribers follow the per-run monotonic sequence
//! number via [`OpenRun::wait_newer`] — the mechanism `rpq serve`'s
//! standing queries block on between pushes.

use crate::{codec, fp_key, write_atomic, RunId, RunStore};
use rpq_core::RpqError;
use rpq_grammar::Tag;
use rpq_labeling::{EventBatch, NodeId, Run};
use rpq_relalg::{kernel, BitRelation, CsrIndex, NodePairSet, TagIndex};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Default churn threshold: a batch whose genuinely new edges exceed
/// this percentage of the already-indexed edge count triggers a full
/// artifact rebuild instead of the delta path (`0` forces a rebuild on
/// every non-duplicate append — the benchmark's referee mode).
pub const DEFAULT_CHURN_PERCENT: u32 = 25;

/// The mutable state of one open run, swapped wholesale under its
/// mutex on every successful append.
struct LiveState {
    run: Arc<Run>,
    tag: Arc<TagIndex>,
    csr: Arc<CsrIndex>,
    /// Maintained transitive closure of the wildcard relation — the
    /// structure the delta rounds extend. `None` once the run outgrows
    /// the bit-kernel universe bound.
    reach: Option<Arc<BitRelation>>,
    /// Bumped once per applied batch; subscribers wait on it.
    seq: u64,
}

/// A stored run opened for streaming appends (see [`RunStore::open_run`]).
///
/// The handle is shared: opening the same run twice yields the same
/// `Arc`, so concurrent appenders and subscribers serialize on one
/// live state instead of racing on the run's files.
pub struct OpenRun {
    store: Arc<RunStore>,
    id: RunId,
    churn_percent: AtomicU32,
    state: Mutex<LiveState>,
    grown: Condvar,
}

/// The outcome of one [`OpenRun::append_events`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Appended {
    /// The run's sequence number after this batch (monotonic per open
    /// run; an empty batch leaves it unchanged).
    pub seq: u64,
    /// The store's catalog epoch after this batch.
    pub epoch: u64,
    /// Nodes carried by the batch.
    pub new_nodes: usize,
    /// Edges carried by the batch (duplicates included).
    pub new_edges: usize,
    /// `true` when churn forced a full artifact rebuild instead of the
    /// incremental delta path.
    pub rebuilt: bool,
    /// Node count of the grown run.
    pub n_nodes: usize,
    /// Edge count of the grown run.
    pub n_edges: usize,
    /// Structural fingerprint of the grown run (its new catalog
    /// identity).
    pub fingerprint: (u64, u64),
}

/// A consistent view of an open run at one sequence number: the grown
/// run, its maintained artifacts, and (while the universe fits the bit
/// kernel) the maintained wildcard reachability closure.
#[derive(Clone)]
pub struct LiveSnapshot {
    /// Sequence number this snapshot was taken at.
    pub seq: u64,
    /// The run as of `seq`.
    pub run: Arc<Run>,
    /// Its maintained tag index.
    pub tag: Arc<TagIndex>,
    /// Its maintained CSR mirror.
    pub csr: Arc<CsrIndex>,
    /// Its maintained wildcard closure, when bit-representable.
    pub reach: Option<Arc<BitRelation>>,
}

fn snapshot_of(live: &LiveState) -> LiveSnapshot {
    LiveSnapshot {
        seq: live.seq,
        run: Arc::clone(&live.run),
        tag: Arc::clone(&live.tag),
        csr: Arc::clone(&live.csr),
        reach: live.reach.clone(),
    }
}

impl RunStore {
    /// Open a stored run for streaming appends. The run's artifacts
    /// are loaded (or built) warm, and its wildcard closure is
    /// fixpointed once so later appends only pay delta rounds.
    /// Opening an already-open run returns the existing shared handle.
    pub fn open_run(self: &Arc<Self>, id: RunId) -> Result<Arc<OpenRun>, RpqError> {
        let mut open = self.open_runs.lock().expect("open-run registry lock");
        if let Some(existing) = open.get(&id).and_then(std::sync::Weak::upgrade) {
            return Ok(existing);
        }
        let run = self.run(id)?;
        let (tag, csr) = self.artifacts(id)?;
        let n = run.n_nodes();
        // Kernel-dispatched warm fixpoint: an auto-eligible run
        // condenses here instead of paying the semi-naive rounds.
        let reach = kernel::bits_representable(n)
            .then(|| Arc::new(rpq_relalg::transitive_closure_bitrel(tag.all_edges(), n)));
        let handle = Arc::new(OpenRun {
            store: Arc::clone(self),
            id,
            churn_percent: AtomicU32::new(DEFAULT_CHURN_PERCENT),
            state: Mutex::new(LiveState {
                run,
                tag,
                csr,
                reach,
                seq: 0,
            }),
            grown: Condvar::new(),
        });
        open.insert(id, Arc::downgrade(&handle));
        Ok(handle)
    }
}

impl OpenRun {
    /// The run's id inside its store.
    pub fn id(&self) -> RunId {
        self.id
    }

    /// The store this run lives in.
    pub fn store(&self) -> &Arc<RunStore> {
        &self.store
    }

    /// Override the churn threshold (see [`DEFAULT_CHURN_PERCENT`]).
    pub fn set_churn_percent(&self, percent: u32) {
        self.churn_percent.store(percent, Ordering::Relaxed);
    }

    /// The current live view of the run.
    pub fn snapshot(&self) -> LiveSnapshot {
        snapshot_of(&self.state.lock().expect("live run lock"))
    }

    /// Block until the run grows past `last_seen` (returning the new
    /// snapshot) or `timeout` elapses (returning `None`). Standing
    /// queries alternate this with their client socket so a quiet run
    /// never pins a worker in a busy loop.
    pub fn wait_newer(&self, last_seen: u64, timeout: Duration) -> Option<LiveSnapshot> {
        let live = self.state.lock().expect("live run lock");
        let (live, _) = self
            .grown
            .wait_timeout_while(live, timeout, |s| s.seq <= last_seen)
            .expect("live run lock");
        (live.seq > last_seen).then(|| snapshot_of(&live))
    }

    /// Apply one event batch: grow the run, maintain its artifacts
    /// (incrementally below the churn threshold, by full rebuild
    /// above it), persist everything, and wake subscribers. An empty
    /// batch is a no-op that reports the current state.
    ///
    /// Ordering on failure: the catalog row is updated (and persisted)
    /// before the run and artifact files are rewritten, and the live
    /// in-memory state advances only after every write landed — so an
    /// errored append leaves the live state unchanged and a retry of
    /// the same batch converges.
    pub fn append_events(&self, batch: &EventBatch) -> Result<Appended, RpqError> {
        let mut live = self.state.lock().expect("live run lock");
        if batch.is_empty() {
            return Ok(Appended {
                seq: live.seq,
                epoch: self.store.epoch(),
                new_nodes: 0,
                new_edges: 0,
                rebuilt: false,
                n_nodes: live.run.n_nodes(),
                n_edges: live.run.n_edges(),
                fingerprint: live.run.fingerprint(),
            });
        }
        let run = live.run.apply_events(batch).map_err(|e| {
            RpqError::invalid(format!("cannot apply event batch to {}: {e}", self.id))
        })?;
        run.validate_against(self.store.spec()).map_err(|e| {
            RpqError::invalid(format!(
                "grown run {} no longer matches the store spec: {e}",
                self.id
            ))
        })?;
        let n_nodes = run.n_nodes();

        // Genuinely new wildcard pairs: duplicates of already-indexed
        // edges extend nothing and must not seed the closure delta.
        let delta: NodePairSet = batch
            .edges
            .iter()
            .map(|e| (e.src, e.dst))
            .filter(|&(u, v)| !live.tag.all_edges().contains(u, v))
            .collect();
        let existing = live.tag.all_edges().len();
        let percent = self.churn_percent.load(Ordering::Relaxed);
        let rebuilt = (delta.len() as u128) * 100 > (existing as u128) * (percent as u128);

        let (tag, csr, reach) = if rebuilt {
            let tag = TagIndex::build(&run, self.store.spec().n_tags());
            // A churn-triggered rebuild refixpoints from scratch, so it
            // goes through the same `choose_closure` dispatch as
            // evaluation-time closures rather than hardcoding the
            // semi-naive path.
            let reach = kernel::bits_representable(n_nodes).then(|| {
                Arc::new(rpq_relalg::transitive_closure_bitrel(
                    tag.all_edges(),
                    n_nodes,
                ))
            });
            let csr = CsrIndex::build(&tag);
            (Arc::new(tag), Arc::new(csr), reach)
        } else {
            let mut tag = (*live.tag).clone();
            let batch_edges: Vec<(Tag, NodeId, NodeId)> =
                batch.edges.iter().map(|e| (e.tag, e.src, e.dst)).collect();
            let touched = tag.extend(&batch_edges, n_nodes);
            let mut csr = (*live.csr).clone();
            csr.extend(&tag, &touched);
            let reach = if kernel::bits_representable(n_nodes) {
                live.reach.as_ref().map(|old| {
                    let base = BitRelation::from_pairs(tag.all_edges(), n_nodes);
                    Arc::new(old.grow(n_nodes).extend_closure(&base, &delta))
                })
            } else {
                // The run outgrew the bit-kernel universe bound; stop
                // maintaining the closure rather than paying quadratic
                // space past the dispatch cutoff.
                None
            };
            (Arc::new(tag), Arc::new(csr), reach)
        };

        // Catalog first: the row's fingerprint and sizes become the
        // grown run's, under the same lock discipline as ingest.
        let key = fp_key(&run);
        let epoch = {
            let mut state = self.store.state.lock().expect("catalog lock");
            if let Some(&other) = state.by_fingerprint.get(&key) {
                if other != self.id {
                    return Err(RpqError::invalid(format!(
                        "append makes {} structurally identical to stored run {other}",
                        self.id
                    )));
                }
            }
            let position = state
                .catalog
                .entries
                .iter()
                .position(|e| e.id == self.id.0)
                .ok_or_else(|| {
                    RpqError::invalid(format!("run {} was removed while open", self.id))
                })?;
            let old = state.catalog.entries[position].clone();
            let old_key = (old.fp_hi, old.fp_lo, old.n_nodes, old.n_edges);
            let entry = &mut state.catalog.entries[position];
            entry.fp_hi = key.0;
            entry.fp_lo = key.1;
            entry.n_nodes = key.2;
            entry.n_edges = key.3;
            state.by_fingerprint.remove(&old_key);
            state.by_fingerprint.insert(key, self.id);
            state.catalog.epoch += 1;
            // A fingerprint change can move the row between catalog
            // shards. New shard first: a crash between the two writes
            // leaves the id in both, and the loader keeps the
            // higher-stamped (newer) row.
            let new_shard = crate::shard_of(key.0, state.shard_bits);
            let old_shard = crate::shard_of(old.fp_hi, state.shard_bits);
            let dirty: Vec<usize> = if new_shard == old_shard {
                vec![new_shard]
            } else {
                vec![new_shard, old_shard]
            };
            if let Err(e) = self.store.persist_catalog(&mut state, Some(&dirty)) {
                state.catalog.entries[position] = old;
                state.by_fingerprint.remove(&key);
                state.by_fingerprint.insert(old_key, self.id);
                state.catalog.epoch -= 1;
                return Err(e);
            }
            state.catalog.epoch
        };

        write_atomic(&self.store.run_path(self.id), &codec::to_bytes(&run))?;
        write_atomic(
            &self.store.tag_path(self.id),
            &codec::to_bytes(tag.as_ref()),
        )?;
        write_atomic(
            &self.store.csr_path(self.id),
            &codec::to_bytes(csr.as_ref()),
        )?;

        // Refresh the store caches: stale entries would answer for the
        // pre-append run.
        let run = Arc::new(run);
        {
            let mut cache = self.store.runs.lock().expect("run cache lock");
            cache.remove(&self.id);
            cache.insert_or_keep(self.id, Arc::clone(&run));
        }
        {
            let mut cache = self.store.artifacts.lock().expect("artifact cache lock");
            cache.remove(&self.id);
            cache.insert_or_keep(self.id, (Arc::clone(&tag), Arc::clone(&csr)));
        }
        self.store.appended.fetch_add(1, Ordering::Relaxed);
        if rebuilt {
            self.store.append_rebuilds.fetch_add(1, Ordering::Relaxed);
        }

        let out = Appended {
            seq: live.seq + 1,
            epoch,
            new_nodes: batch.nodes.len(),
            new_edges: batch.edges.len(),
            rebuilt,
            n_nodes,
            n_edges: run.n_edges(),
            fingerprint: run.fingerprint(),
        };
        live.run = run;
        live.tag = tag;
        live.csr = csr;
        live.reach = reach;
        live.seq += 1;
        drop(live);
        self.grown.notify_all();
        Ok(out)
    }
}

impl std::fmt::Debug for OpenRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let live = self.state.lock().expect("live run lock");
        f.debug_struct("OpenRun")
            .field("id", &self.id)
            .field("seq", &live.seq)
            .field("n_nodes", &live.run.n_nodes())
            .field("n_edges", &live.run.n_edges())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_labeling::RunBuilder;
    use rpq_workloads::runs::event_stream;
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("rpq_live_unit")
            .join(format!("{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec() -> rpq_grammar::Specification {
        rpq_workloads::paper_examples::fig2_spec()
    }

    fn run_of(spec: &rpq_grammar::Specification, seed: u64, target: usize) -> Run {
        RunBuilder::new(spec)
            .seed(seed)
            .target_edges(target)
            .build()
            .unwrap()
    }

    #[test]
    fn incremental_appends_match_reingesting_the_grown_run() {
        let dir = temp_dir("delta_equals_rebuild");
        let spec = Arc::new(spec());
        let full = run_of(&spec, 7, 90);
        let (base, batches) = event_stream(&full, 4).unwrap();

        let store = Arc::new(RunStore::create(&dir, Arc::clone(&spec)).unwrap());
        let id = store.ingest(&base).unwrap().id;
        let open = store.open_run(id).unwrap();
        let mut last_seq = 0;
        for batch in &batches {
            let out = open.append_events(batch).unwrap();
            assert!(out.seq >= last_seq);
            last_seq = out.seq;
        }

        // The maintained artifacts equal a from-scratch build of the
        // replayed run — in memory and as persisted bytes.
        let snap = open.snapshot();
        let mut replayed = base.clone();
        for batch in &batches {
            replayed = replayed.apply_events(batch).unwrap();
        }
        let fresh_tag = TagIndex::build(&replayed, spec.n_tags());
        let fresh_csr = CsrIndex::build(&fresh_tag);
        assert_eq!(*snap.tag, fresh_tag);
        assert_eq!(*snap.csr, fresh_csr);
        assert_eq!(
            std::fs::read(store.tag_path(id)).unwrap(),
            codec::to_bytes(&fresh_tag)
        );
        assert_eq!(
            std::fs::read(store.csr_path(id)).unwrap(),
            codec::to_bytes(&fresh_csr)
        );
        // The maintained closure equals a full refixpoint.
        let n = replayed.n_nodes();
        let referee = BitRelation::from_pairs(fresh_tag.all_edges(), n).transitive_closure();
        assert_eq!(*snap.reach.as_ref().unwrap().as_ref(), referee);

        // The catalog row follows the grown run: fingerprint lookup
        // finds it, and re-ingesting the replayed run deduplicates.
        let fp = replayed.fingerprint();
        assert_eq!(store.find_by_fingerprint(fp.0, fp.1), Some(id));
        assert!(store.ingest(&replayed).unwrap().deduplicated);

        // Reopening the store resumes from the grown run, warm.
        drop(open);
        drop(store);
        let reopened = RunStore::open(&dir).unwrap();
        assert_eq!(reopened.run(id).unwrap().fingerprint(), fp);
        reopened.artifacts(id).unwrap();
        assert_eq!(reopened.stats().tag_reloads, 1);
        assert_eq!(reopened.stats().tag_rebuilds, 0);
    }

    #[test]
    fn churn_threshold_picks_rebuild_or_delta() {
        let dir = temp_dir("churn");
        let spec = Arc::new(spec());
        let full = run_of(&spec, 11, 80);
        let (base, batches) = event_stream(&full, 3).unwrap();
        let store = Arc::new(RunStore::create(&dir, Arc::clone(&spec)).unwrap());
        let id = store.ingest(&base).unwrap().id;
        let open = store.open_run(id).unwrap();

        // Threshold 0: every batch with at least one new pair rebuilds.
        open.set_churn_percent(0);
        let out = open.append_events(&batches[0]).unwrap();
        assert!(out.rebuilt);
        assert_eq!(store.stats().append_rebuilds, 1);
        // A generous threshold routes small batches down the delta path.
        open.set_churn_percent(10_000);
        let out = open.append_events(&batches[1]).unwrap();
        assert!(!out.rebuilt);
        assert_eq!(store.stats().append_rebuilds, 1);
        assert_eq!(store.stats().appended, 2);

        // An empty batch changes nothing at all.
        let epoch = store.epoch();
        let out = open.append_events(&EventBatch::default()).unwrap();
        assert_eq!(out.new_nodes + out.new_edges, 0);
        assert_eq!(out.seq, 2);
        assert_eq!(store.epoch(), epoch);
        assert_eq!(store.stats().appended, 2);
    }

    #[test]
    fn rebuilds_route_the_closure_through_kernel_dispatch() {
        // Regression: the open-time warm fixpoint and the
        // churn-triggered rebuild both hardcoded the semi-naive bit
        // fixpoint, so an SCC-eligible run never condensed on the
        // live path. Both now go through `choose_closure`; a 90-edge
        // run is a shape it condenses, and the closure counters must
        // say so.
        let dir = temp_dir("rebuild_dispatch");
        let spec = Arc::new(spec());
        let full = run_of(&spec, 13, 90);
        let (base, batches) = event_stream(&full, 2).unwrap();
        let store = Arc::new(RunStore::create(&dir, Arc::clone(&spec)).unwrap());
        let id = store.ingest(&base).unwrap().id;

        let before = rpq_relalg::thread_closure_counts();
        let open = store.open_run(id).unwrap();
        let opened = rpq_relalg::thread_closure_counts().since(before);
        assert_eq!(
            opened.scc, 1,
            "open-time fixpoint must dispatch: {opened:?}"
        );
        assert_eq!(opened.bits, 0, "{opened:?}");

        // Churn threshold 0: the append rebuilds, and the rebuilt
        // closure dispatches too.
        open.set_churn_percent(0);
        let before = rpq_relalg::thread_closure_counts();
        let out = open.append_events(&batches[0]).unwrap();
        assert!(out.rebuilt);
        let rebuilt = rpq_relalg::thread_closure_counts().since(before);
        assert_eq!(rebuilt.scc, 1, "rebuild must dispatch: {rebuilt:?}");
        assert_eq!(rebuilt.bits, 0, "{rebuilt:?}");

        // Same closure as a semi-naive refixpoint, algorithm aside.
        let snap = open.snapshot();
        let referee =
            BitRelation::from_pairs(snap.tag.all_edges(), snap.run.n_nodes()).transitive_closure();
        assert_eq!(*snap.reach.as_ref().unwrap().as_ref(), referee);
    }

    #[test]
    fn open_run_handles_are_shared() {
        let dir = temp_dir("shared_handle");
        let spec = Arc::new(spec());
        let store = Arc::new(RunStore::create(&dir, Arc::clone(&spec)).unwrap());
        let id = store.ingest(&run_of(&spec, 3, 60)).unwrap().id;
        let a = store.open_run(id).unwrap();
        let b = store.open_run(id).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // Dropping every handle releases the registry slot; a later
        // open starts fresh from the persisted (grown) state.
        drop(a);
        drop(b);
        let c = store.open_run(id).unwrap();
        assert_eq!(c.snapshot().seq, 0);
        assert!(store.open_run(RunId(999)).is_err());
    }

    #[test]
    fn wait_newer_wakes_on_append_and_times_out_when_quiet() {
        let dir = temp_dir("wait_newer");
        let spec = Arc::new(spec());
        let full = run_of(&spec, 5, 70);
        let (base, batches) = event_stream(&full, 1).unwrap();
        let store = Arc::new(RunStore::create(&dir, Arc::clone(&spec)).unwrap());
        let id = store.ingest(&base).unwrap().id;
        let open = store.open_run(id).unwrap();

        // Quiet run: the wait times out empty-handed.
        assert!(open.wait_newer(0, Duration::from_millis(20)).is_none());

        let watcher = {
            let open = Arc::clone(&open);
            std::thread::spawn(move || open.wait_newer(0, Duration::from_secs(30)))
        };
        open.append_events(&batches[0]).unwrap();
        let snap = watcher.join().unwrap().expect("watcher saw the append");
        assert_eq!(snap.seq, 1);
        assert_eq!(snap.run.n_nodes(), full.n_nodes());
        // A stale cursor returns immediately with the current state.
        assert!(open.wait_newer(0, Duration::from_secs(30)).is_some());
    }
}
