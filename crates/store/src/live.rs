//! Live ingestion: streaming appends that cost the batch, not the run.
//!
//! A stored run opened via [`RunStore::open_run`] becomes an
//! [`OpenRun`]: batches of new nodes and edges land through
//! [`OpenRun::append_events`]. An append *writes* two things — the
//! batch, as one checksummed segment at the end of the run's event log
//! (`runs/run-<id>.log`), and then the run's catalog row — and nothing
//! else: the base run file and both index artifact files are not
//! touched. Everything derived is maintained in memory: each touched
//! tag's pair set is merged in place (`TagIndex::extend`) and only the
//! CSR mirrors of touched tags are refreshed (`CsrIndex::extend`).
//! Because both are pure functions of their pair sets, the maintained
//! indexes equal a from-scratch build of the grown run (pinned by the
//! `live_equivalence` property suite). Past a configurable churn
//! threshold the delta path stops paying off and the append rebuilds
//! both instead, counted in
//! [`StoreStats::append_rebuilds`](crate::StoreStats::append_rebuilds).
//!
//! Commit order is *segment first, catalog row second*. The row's
//! fingerprint is the commit record ([`RunStore::run`] replays the log
//! until it reaches it), so a process that dies between the two writes
//! leaves a segment no row vouches for — the reopened run is exactly
//! the pre-append one, and the next append overwrites that tail. A
//! process that dies after the row landed reopens to exactly the
//! post-append run. Nothing is `fsync`ed: this is atomicity against
//! readers and process crashes, not against power loss. The index
//! artifact files of a run that was appended to are stale by their
//! fingerprint stamp; a reopened store rebuilds them on first use, and
//! [`RunStore::materialize_artifacts`] folds the log into the base
//! file and re-persists them.
//!
//! The wildcard reachability closure is *not* maintained by appends.
//! [`OpenRun::reach`] computes it on demand and keeps it: the first
//! call fixpoints through the kernel dispatch, later calls catch up
//! with a semi-naive delta round seeded from the edges added since
//! (`BitRelation::extend_closure`) instead of refixpointing.
//!
//! Subscribers follow the per-run monotonic sequence number via
//! [`OpenRun::wait_newer`] — the mechanism `rpq serve`'s standing
//! queries block on between pushes.

use crate::{fp_key, log, RunId, RunStore};
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
/// every non-duplicate append — the benchmark's referee mode). The
/// same rule decides whether [`OpenRun::reach`] catches its closure up
/// or recomputes it.
pub const DEFAULT_CHURN_PERCENT: u32 = 25;

/// The mutable state of one open run, swapped wholesale under its
/// mutex on every successful append.
struct LiveState {
    run: Arc<Run>,
    tag: Arc<TagIndex>,
    csr: Arc<CsrIndex>,
    /// Byte length of the event log's committed prefix: where the next
    /// segment is written.
    log_len: u64,
    /// Bumped once per applied batch; subscribers wait on it.
    seq: u64,
}

/// The wildcard closure [`OpenRun::reach`] last computed, with what it
/// was computed from — the next call's starting point.
#[derive(Clone)]
struct Reach {
    seq: u64,
    tag: Arc<TagIndex>,
    closure: Arc<BitRelation>,
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
    /// Locked after `state` where both are needed, and never across a
    /// closure computation.
    reach: Mutex<Option<Reach>>,
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
/// run, its maintained artifacts, and its wildcard reachability
/// closure if [`OpenRun::reach`] has computed one for exactly this
/// sequence number.
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
    /// Its wildcard closure, when one is on hand for `seq`.
    pub reach: Option<Arc<BitRelation>>,
}

impl RunStore {
    /// Open a stored run for streaming appends: the run is replayed
    /// from its files and its artifacts are loaded (or rebuilt) warm.
    /// Opening an already-open run returns the existing shared handle.
    pub fn open_run(self: &Arc<Self>, id: RunId) -> Result<Arc<OpenRun>, RpqError> {
        let mut open = self.open_runs.lock().expect("open-run registry lock");
        if let Some(existing) = open.get(&id).and_then(std::sync::Weak::upgrade) {
            return Ok(existing);
        }
        // From the files, not the run cache: the replay also says where
        // the log's committed prefix ends, and the first append must
        // land there — over any tail a crash left behind.
        let (run, log_len) = self.load_run(id)?;
        let run = Arc::new(run);
        self.runs
            .lock()
            .expect("run cache lock")
            .replace(id, Arc::clone(&run));
        let (tag, csr) = self.artifacts(id)?;
        let handle = Arc::new(OpenRun {
            store: Arc::clone(self),
            id,
            churn_percent: AtomicU32::new(DEFAULT_CHURN_PERCENT),
            state: Mutex::new(LiveState {
                run,
                tag,
                csr,
                log_len,
                seq: 0,
            }),
            reach: Mutex::new(None),
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

    /// Does a delta of `new` pairs on top of `existing` indexed ones
    /// exceed the churn threshold?
    fn churns(&self, new: usize, existing: usize) -> bool {
        let percent = self.churn_percent.load(Ordering::Relaxed);
        (new as u128) * 100 > (existing as u128) * u128::from(percent)
    }

    /// The current live view of the run.
    pub fn snapshot(&self) -> LiveSnapshot {
        self.snapshot_of(&self.state.lock().expect("live run lock"))
    }

    fn snapshot_of(&self, live: &LiveState) -> LiveSnapshot {
        let reach = self.reach.lock().expect("live closure lock");
        LiveSnapshot {
            seq: live.seq,
            run: Arc::clone(&live.run),
            tag: Arc::clone(&live.tag),
            csr: Arc::clone(&live.csr),
            reach: reach
                .as_ref()
                .filter(|reach| reach.seq == live.seq)
                .map(|reach| Arc::clone(&reach.closure)),
        }
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
        (live.seq > last_seen).then(|| self.snapshot_of(&live))
    }

    /// The transitive closure of the run's wildcard relation as of the
    /// current sequence number, or `None` once the run has outgrown
    /// the bit kernel's universe bound. Computed on demand and kept:
    /// the first call fixpoints through the kernel dispatch
    /// (`transitive_closure_bitrel`); a later call extends the kept
    /// closure by the edges indexed since
    /// ([`BitRelation::extend_closure`]) — or recomputes, when those
    /// exceed the churn threshold. Appends never pay for it.
    pub fn reach(&self) -> Option<Arc<BitRelation>> {
        // Kept closure first, live state second, neither lock held
        // while the other is taken: the closure on hand is then never
        // ahead of the state it is caught up to.
        let kept = self.reach.lock().expect("live closure lock").clone();
        let (seq, tag) = {
            let live = self.state.lock().expect("live run lock");
            (live.seq, Arc::clone(&live.tag))
        };
        let n = tag.n_nodes();
        if !kernel::bits_representable(n) {
            // Quadratic space past the dispatch cutoff: give it up.
            *self.reach.lock().expect("live closure lock") = None;
            return None;
        }
        let closure = match kept {
            Some(kept) if kept.seq == seq => return Some(kept.closure),
            Some(kept) => {
                let old = kept.tag.all_edges();
                let delta = NodePairSet::from_sorted_unique(
                    tag.all_edges()
                        .iter()
                        .filter(|&(u, v)| !old.contains(u, v))
                        .collect(),
                );
                if self.churns(delta.len(), old.len()) {
                    rpq_relalg::transitive_closure_bitrel(tag.all_edges(), n)
                } else {
                    let base = BitRelation::from_pairs(tag.all_edges(), n);
                    kept.closure.grow(n).extend_closure(&base, &delta)
                }
            }
            None => rpq_relalg::transitive_closure_bitrel(tag.all_edges(), n),
        };
        let closure = Arc::new(closure);
        let mut slot = self.reach.lock().expect("live closure lock");
        // A racing call may have caught up further in the meantime.
        if slot.as_ref().is_none_or(|newer| newer.seq < seq) {
            *slot = Some(Reach {
                seq,
                tag,
                closure: Arc::clone(&closure),
            });
        }
        Some(closure)
    }

    /// Apply one event batch: grow the run, maintain its indexes in
    /// memory (incrementally below the churn threshold, by full
    /// rebuild above it), commit the batch, and wake subscribers. An
    /// empty batch is a no-op that reports the current state.
    ///
    /// What reaches the filesystem is the batch and the catalog row,
    /// in that order: the batch as one segment at the end of the run's
    /// event log, then the row (fingerprint, sizes, epoch) that makes
    /// it part of the run. The live in-memory state advances only
    /// after both landed. If the row cannot be persisted the catalog
    /// rolls back and the segment stays behind as a tail no row
    /// vouches for — skipped by readers, overwritten by the next
    /// append — so an errored append leaves the stored run and the
    /// live state unchanged and a retry of the same batch converges.
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
        // edges extend nothing and must not count as churn.
        let delta: NodePairSet = batch
            .edges
            .iter()
            .map(|e| (e.src, e.dst))
            .filter(|&(u, v)| !live.tag.all_edges().contains(u, v))
            .collect();
        let rebuilt = self.churns(delta.len(), live.tag.all_edges().len());
        let (tag, csr) = if rebuilt {
            let tag = TagIndex::build(&run, self.store.spec().n_tags());
            let csr = CsrIndex::build(&tag);
            (tag, csr)
        } else {
            let mut tag = (*live.tag).clone();
            let batch_edges: Vec<(Tag, NodeId, NodeId)> =
                batch.edges.iter().map(|e| (e.tag, e.src, e.dst)).collect();
            let touched = tag.extend(&batch_edges, n_nodes);
            let mut csr = (*live.csr).clone();
            csr.extend(&tag, &touched);
            (tag, csr)
        };

        // Commit, under the same lock discipline as ingest: the
        // segment, then the catalog row whose fingerprint and sizes
        // become the grown run's.
        let key = fp_key(&run);
        let segment = log::frame(batch);
        let log_path = self.store.log_path(self.id);
        let (epoch, catalog_bytes) = {
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
            log::write_segment(&log_path, live.log_len, &segment)?;
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
            match self.store.persist_catalog(&mut state, Some(&dirty)) {
                Ok(bytes) => (state.catalog.epoch, bytes),
                Err(e) => {
                    state.catalog.entries[position] = old;
                    state.by_fingerprint.remove(&key);
                    state.by_fingerprint.insert(old_key, self.id);
                    state.catalog.epoch -= 1;
                    return Err(e);
                }
            }
        };

        // Refresh the store caches: stale entries would answer for the
        // pre-append run.
        let (run, tag, csr) = (Arc::new(run), Arc::new(tag), Arc::new(csr));
        self.store
            .runs
            .lock()
            .expect("run cache lock")
            .replace(self.id, Arc::clone(&run));
        self.store
            .artifacts
            .lock()
            .expect("artifact cache lock")
            .replace(self.id, (Arc::clone(&tag), Arc::clone(&csr)));
        self.store.appended.fetch_add(1, Ordering::Relaxed);
        if rebuilt {
            self.store.append_rebuilds.fetch_add(1, Ordering::Relaxed);
        }
        self.store
            .append_bytes
            .fetch_add(segment.len() as u64 + catalog_bytes, Ordering::Relaxed);

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
        live.log_len += segment.len() as u64;
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

    /// Bytes and modification time of the three files an append must
    /// leave alone: the base run and both index artifacts.
    fn untouched_files(store: &RunStore, id: RunId) -> Vec<(Vec<u8>, std::time::SystemTime)> {
        [store.run_path(id), store.tag_path(id), store.csr_path(id)]
            .iter()
            .map(|path| {
                let modified = std::fs::metadata(path).unwrap().modified().unwrap();
                (std::fs::read(path).unwrap(), modified)
            })
            .collect()
    }

    #[test]
    fn incremental_appends_match_reingesting_the_grown_run() {
        let dir = temp_dir("delta_equals_rebuild");
        let spec = Arc::new(spec());
        let full = run_of(&spec, 7, 90);
        let (base, batches) = event_stream(&full, 4).unwrap();

        let store = Arc::new(RunStore::create(&dir, Arc::clone(&spec)).unwrap());
        let id = store.ingest(&base).unwrap().id;
        store.materialize_artifacts().unwrap();
        let files = untouched_files(&store, id);
        let open = store.open_run(id).unwrap();
        let mut replayed = base.clone();
        let mut last_seq = 0;
        for batch in &batches {
            let out = open.append_events(batch).unwrap();
            assert!(out.seq >= last_seq);
            last_seq = out.seq;
            replayed = replayed.apply_events(batch).unwrap();
            // An append writes the log and the catalog: the base run
            // and both artifact files keep their bytes and mtimes.
            assert!(untouched_files(&store, id) == files);
        }
        assert!(store.log_path(id).exists());

        // The maintained indexes equal a from-scratch build of the
        // replayed run.
        let snap = open.snapshot();
        let fresh_tag = TagIndex::build(&replayed, spec.n_tags());
        let fresh_csr = CsrIndex::build(&fresh_tag);
        assert_eq!(*snap.tag, fresh_tag);
        assert_eq!(*snap.csr, fresh_csr);
        // No closure until someone asks; then it equals a full
        // refixpoint and rides along in snapshots of that sequence
        // number.
        assert!(snap.reach.is_none());
        let n = replayed.n_nodes();
        let referee = BitRelation::from_pairs(fresh_tag.all_edges(), n).transitive_closure();
        assert_eq!(*open.reach().unwrap(), referee);
        assert_eq!(*open.snapshot().reach.unwrap(), referee);

        // The catalog row follows the grown run: fingerprint lookup
        // finds it, and re-ingesting the replayed run deduplicates.
        let fp = replayed.fingerprint();
        assert_eq!(store.find_by_fingerprint(fp.0, fp.1), Some(id));
        assert!(store.ingest(&replayed).unwrap().deduplicated);

        // Reopening the store resumes from the grown run. Its artifact
        // files are stamped for the base, so they rebuild — once: the
        // rebuild re-persists them, and the next process reloads.
        drop(open);
        drop(store);
        let reopened = RunStore::open(&dir).unwrap();
        assert_eq!(*reopened.run(id).unwrap(), replayed);
        assert_eq!(reopened.run(id).unwrap().fingerprint(), fp);
        let (tag, csr) = reopened.artifacts(id).unwrap();
        assert_eq!((&*tag, &*csr), (&fresh_tag, &fresh_csr));
        assert_eq!(reopened.stats().tag_rebuilds, 1);
        assert_eq!(reopened.stats().csr_rebuilds, 1);
        assert_eq!(reopened.stats().tag_reloads, 0);
        let warm = RunStore::open(&dir).unwrap();
        let (tag, csr) = warm.artifacts(id).unwrap();
        assert_eq!((&*tag, &*csr), (&fresh_tag, &fresh_csr));
        assert_eq!(warm.stats().tag_reloads, 1);
        assert_eq!(warm.stats().csr_reloads, 1);
        assert_eq!(warm.stats().tag_rebuilds, 0);
    }

    #[test]
    fn an_append_hands_the_filesystem_the_batch_not_the_run() {
        let dir = temp_dir("append_bytes");
        let spec = Arc::new(spec());
        let full = run_of(&spec, 21, 3_400);
        let (mut base, mut batches) = event_stream(&full, 16).unwrap();
        let last = batches.pop().unwrap();
        for batch in &batches {
            base = base.apply_events(batch).unwrap();
        }
        assert!(base.n_edges() >= 3_000, "{}", base.n_edges());
        assert!(
            (150..=250).contains(&last.edges.len()),
            "{}",
            last.edges.len()
        );

        let store = Arc::new(RunStore::create(&dir, Arc::clone(&spec)).unwrap());
        let id = store.ingest(&base).unwrap().id;
        store.materialize_artifacts().unwrap();
        let files = untouched_files(&store, id);
        let open = store.open_run(id).unwrap();
        let before = store.stats();
        open.append_events(&last).unwrap();
        let written = store.stats().since(before).append_bytes;

        let encoded = crate::codec::to_bytes(&last).len() as u64;
        assert!(written > encoded, "{written} vs {encoded}");
        assert!(written < 2 * encoded + 1024, "{written} vs {encoded}");
        assert_eq!(
            std::fs::metadata(store.log_path(id)).unwrap().len(),
            encoded + 12
        );
        assert!(untouched_files(&store, id) == files);
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
        // Regression, re-aimed: the closure used to be fixpointed at
        // open time and again by every churn-triggered rebuild, at
        // first hardcoding the semi-naive bit fixpoint so an
        // SCC-eligible run never condensed. It is on demand now —
        // opening and appending compute none — and every from-scratch
        // computation `reach()` makes goes through `choose_closure`; a
        // 90-edge run is a shape it condenses, and the closure counters
        // must say so.
        let dir = temp_dir("rebuild_dispatch");
        let spec = Arc::new(spec());
        let full = run_of(&spec, 13, 90);
        let (base, batches) = event_stream(&full, 2).unwrap();
        let store = Arc::new(RunStore::create(&dir, Arc::clone(&spec)).unwrap());
        let id = store.ingest(&base).unwrap().id;
        let referee = |open: &OpenRun| {
            let snap = open.snapshot();
            BitRelation::from_pairs(snap.tag.all_edges(), snap.run.n_nodes()).transitive_closure()
        };
        let counts_of = |f: &mut dyn FnMut()| {
            let before = rpq_relalg::thread_closure_counts();
            f();
            rpq_relalg::thread_closure_counts().since(before)
        };

        let mut open = None;
        let opened = counts_of(&mut || open = Some(store.open_run(id).unwrap()));
        let open = open.unwrap();
        assert_eq!((opened.scc, opened.bits), (0, 0), "{opened:?}");
        let first = counts_of(&mut || assert_eq!(*open.reach().unwrap(), referee(&open)));
        assert_eq!(first.scc, 1, "first fixpoint must dispatch: {first:?}");
        assert_eq!(first.bits, 0, "{first:?}");
        // Asked again at the same sequence number: the kept closure.
        let again = counts_of(&mut || assert_eq!(*open.reach().unwrap(), referee(&open)));
        assert_eq!((again.scc, again.bits), (0, 0), "{again:?}");

        // Churn threshold 0: the append rebuilds its indexes and
        // computes no closure; catching the closure up is past the
        // threshold too, so it recomputes — dispatched.
        open.set_churn_percent(0);
        let appended = counts_of(&mut || assert!(open.append_events(&batches[0]).unwrap().rebuilt));
        assert_eq!((appended.scc, appended.bits), (0, 0), "{appended:?}");
        assert!(open.snapshot().reach.is_none());
        let recomputed = counts_of(&mut || assert_eq!(*open.reach().unwrap(), referee(&open)));
        assert_eq!(recomputed.scc, 1, "recompute must dispatch: {recomputed:?}");
        assert_eq!(recomputed.bits, 0, "{recomputed:?}");

        // A generous threshold: the kept closure is extended by the new
        // edges — same closure as a semi-naive refixpoint, and no
        // from-scratch closure of any kind was run to get it.
        open.set_churn_percent(10_000);
        assert!(!open.append_events(&batches[1]).unwrap().rebuilt);
        let extended = counts_of(&mut || assert_eq!(*open.reach().unwrap(), referee(&open)));
        assert_eq!((extended.scc, extended.bits), (0, 0), "{extended:?}");
    }

    /// Ingest the base of a 4-batch stream and append every batch;
    /// returns the store, the run's id and the grown run.
    fn grown_store(name: &str, seed: u64) -> (PathBuf, Arc<RunStore>, RunId, Run) {
        let dir = temp_dir(name);
        let spec = Arc::new(spec());
        let (base, batches) = event_stream(&run_of(&spec, seed, 90), 4).unwrap();
        let store = Arc::new(RunStore::create(&dir, Arc::clone(&spec)).unwrap());
        let id = store.ingest(&base).unwrap().id;
        let open = store.open_run(id).unwrap();
        let mut grown = base;
        for batch in &batches {
            open.append_events(batch).unwrap();
            grown = grown.apply_events(batch).unwrap();
        }
        (dir, store, id, grown)
    }

    #[test]
    fn gc_keeps_the_log_of_a_cataloged_run_and_nothing_of_a_removed_one() {
        let (dir, store, id, grown) = grown_store("gc_log", 17);
        std::fs::write(dir.join("runs").join("run-999.log"), b"x").unwrap();
        assert_eq!(store.prune_orphans().unwrap(), 1);
        assert!(store.log_path(id).exists());
        drop(store);
        let reopened = RunStore::open(&dir).unwrap();
        assert_eq!(*reopened.run(id).unwrap(), grown);
        reopened.artifacts(id).unwrap();

        assert_eq!(reopened.remove_run(grown.fingerprint()).unwrap(), Some(id));
        assert_eq!(reopened.prune_orphans().unwrap(), 0);
        for sub in ["runs", "index"] {
            let left: Vec<_> = std::fs::read_dir(dir.join(sub)).unwrap().collect();
            assert!(left.is_empty(), "{sub}: {left:?}");
        }
    }

    #[test]
    fn materialize_folds_the_log_of_closed_runs_only() {
        let (dir, store, id, grown) = grown_store("fold", 19);
        // Still open (the server pins its handles): left alone.
        let open = store.open_run(id).unwrap();
        assert_eq!(store.materialize_artifacts().unwrap(), 0);
        assert!(store.log_path(id).exists());
        drop(open);

        // Closed: the log folds into the base, the artifacts are
        // re-stamped, and a second pass finds nothing to do.
        assert_eq!(store.materialize_artifacts().unwrap(), 1);
        assert!(!store.log_path(id).exists());
        assert_eq!(
            std::fs::read(store.run_path(id)).unwrap(),
            crate::codec::to_bytes(&grown)
        );
        assert_eq!(store.materialize_artifacts().unwrap(), 0);
        drop(store);
        let reopened = Arc::new(RunStore::open(&dir).unwrap());
        assert_eq!(*reopened.run(id).unwrap(), grown);
        let (tag, _) = reopened.artifacts(id).unwrap();
        assert_eq!(*tag, TagIndex::build(&grown, reopened.spec().n_tags()));
        let stats = reopened.stats();
        assert_eq!((stats.tag_reloads, stats.csr_reloads), (1, 1));
        assert_eq!((stats.tag_rebuilds, stats.csr_rebuilds), (0, 0));
        // A folded run takes appends like an ingested one: the log
        // starts over.
        assert_eq!(reopened.open_run(id).unwrap().snapshot().seq, 0);
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
