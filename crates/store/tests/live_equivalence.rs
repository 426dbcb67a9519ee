//! Property tests pinning the live write path to the from-scratch
//! referee: for any base run and any append schedule, the
//! `TagIndex`/`CsrIndex` a live [`OpenRun`](rpq_store::OpenRun)
//! maintains equal the artifacts a fresh store derives from
//! re-ingesting the final run; the store reopened after *every* append
//! replays its event log to exactly the in-memory run; the on-demand
//! wildcard closure equals a full refixpoint whenever it is asked for;
//! folding the log changes nothing a reader can see; and every query
//! outcome agrees. Fixed cases then put the files in each state a
//! process crash can leave them in — and in a few only a bad restore
//! can — and require the reopened store to be exactly the pre- or
//! post-append run, answering like the product-graph referee.

use proptest::prelude::*;
use rpq_core::{EvalStrategy, QueryRequest, Session};
use rpq_labeling::{EventBatch, NodeId, Run, RunBuilder};
use rpq_relalg::{BitRelation, CsrIndex, TagIndex};
use rpq_store::{codec, RunId, RunStore};
use rpq_workloads::paper_examples;
use rpq_workloads::runs::{self, event_stream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Safe, composite and star plans over the Fig. 2 grammar.
const QUERIES: &[&str] = &["_*", "_* e _*", "_* a _*", "a+", "_* d _* a _*"];

fn scratch_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("rpq_live_prop").join(format!(
        "{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// What a cold process sees of run `id`: the store reopened from its
/// files, the run and artifacts it hands out.
fn cold_view(dir: &Path, id: RunId) -> (Arc<Run>, Arc<TagIndex>, Arc<CsrIndex>) {
    let store = RunStore::open(dir).unwrap();
    let run = store.run(id).unwrap();
    let (tag, csr) = store.artifacts(id).unwrap();
    (run, tag, csr)
}

/// The reopened store holds exactly `truth` as run `id`: equal run,
/// equal fingerprint, artifacts equal to a from-scratch build — and,
/// with a session seeded from those artifacts (so a wrong artifact is
/// a wrong answer), every query answers like the product-graph referee
/// on `truth`. The lazy engine only (forced through the session's test
/// hook): it reads the run's real edges, while label decoding is
/// defined for finished derivations and most of these runs are
/// prefixes of one.
/// Off-diagonal pairs only: the referee's `(u, u)` rule assumes a DAG,
/// and one of these runs is cyclic.
fn assert_reopens_to(dir: &Path, id: RunId, truth: &Run) {
    let store = RunStore::open(dir).unwrap();
    let run = store.run(id).unwrap();
    let (tag, csr) = store.artifacts(id).unwrap();
    assert!(*run == *truth, "{id}: stored run differs");
    assert_eq!(run.fingerprint(), truth.fingerprint());
    let fresh_tag = TagIndex::build(truth, store.spec().n_tags());
    assert!(*tag == fresh_tag, "{id}: tag index differs");
    assert!(*csr == CsrIndex::build(&fresh_tag), "{id}: CSR differs");
    let session = Session::new(store.spec_arc());
    session.seed_run_cache(&run, tag, Some(csr));
    let all: Vec<NodeId> = truth.node_ids().collect();
    let off_diagonal = |pairs: &rpq_relalg::NodePairSet| -> Vec<(NodeId, NodeId)> {
        pairs.iter().filter(|(u, v)| u != v).collect()
    };
    for text in QUERIES {
        let query = session.prepare(text).unwrap();
        let request = QueryRequest::all_pairs(all.clone(), all.clone());
        let got = session.evaluate_forced(&query, &run, &request, EvalStrategy::Lazy);
        let expected = rpq_baselines::Referee::new(truth, query.dfa()).all_pairs(&all, &all);
        assert!(
            off_diagonal(got.as_pairs().unwrap()) == off_diagonal(&expected),
            "{id}: {text}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn maintained_artifacts_match_fresh_ingest_of_the_final_run(
        seed in 0u64..500,
        edges in 60usize..140,
        n_batches in 1usize..5,
        // 0 forces a full rebuild on every append, 100 keeps the delta
        // path for all but the wildest batches, 25 is the default mix.
        churn_choice in 0usize..3,
        // When the wildcard closure is asked for: never, after every
        // append, after every second one, once (after the first).
        reach_choice in 0usize..4,
    ) {
        let churn: u32 = [0, 25, 100][churn_choice];
        let wants_reach = |appended: usize| match reach_choice {
            0 => false,
            1 => true,
            2 => appended.is_multiple_of(2),
            _ => appended == 1,
        };
        let spec = Arc::new(paper_examples::fig2_spec());
        let full = RunBuilder::new(&spec)
            .seed(seed)
            .target_edges(edges)
            .build()
            .expect("fig2 derives");
        let (base, batches) = event_stream(&full, n_batches).expect("streamable");

        // Maintained path: ingest the base, then append every batch
        // through the live handle, replaying in memory alongside.
        let dir_live = scratch_dir();
        let live_store = Arc::new(RunStore::create(&dir_live, Arc::clone(&spec)).unwrap());
        let id = live_store.ingest(&base).unwrap().id;
        let open = live_store.open_run(id).unwrap();
        open.set_churn_percent(churn);
        let mut replayed = base;
        for (i, batch) in batches.iter().enumerate() {
            let receipt = open.append_events(batch).unwrap();
            replayed = replayed.apply_events(batch).unwrap();
            prop_assert_eq!(receipt.n_nodes, replayed.n_nodes());
            prop_assert_eq!(receipt.n_edges, replayed.n_edges());
            prop_assert_eq!(receipt.fingerprint, replayed.fingerprint());

            // A second process opening the directory now replays base
            // plus log to exactly this run, and derives its artifacts.
            let (cold_run, cold_tag, cold_csr) = cold_view(&dir_live, id);
            prop_assert!(*cold_run == replayed, "reopened after append {}", i + 1);
            prop_assert_eq!(cold_run.fingerprint(), replayed.fingerprint());
            let fresh_tag = TagIndex::build(&replayed, spec.n_tags());
            prop_assert!(*cold_csr == CsrIndex::build(&fresh_tag));
            prop_assert!(*cold_tag == fresh_tag);

            prop_assert!(open.snapshot().reach.is_none(), "no closure unasked");
            if wants_reach(i + 1) {
                let snap = open.snapshot();
                let referee = BitRelation::from_pairs(snap.tag.all_edges(), snap.run.n_nodes())
                    .transitive_closure();
                prop_assert!(*open.reach().expect("small universe") == referee);
                prop_assert!(open.snapshot().reach.is_some_and(|kept| *kept == referee));
            }
        }
        let stats = live_store.stats();
        prop_assert_eq!(stats.appended, batches.len() as u64);
        if churn == 0 {
            // Zero tolerance: every append takes the rebuild fallback.
            prop_assert_eq!(stats.append_rebuilds, batches.len() as u64);
        }
        // Epoch: one bump for the ingest, one per append.
        prop_assert_eq!(live_store.epoch(), 1 + batches.len() as u64);
        let maintained = open.snapshot();

        // Referee: one fresh ingest of the final run.
        let dir_fresh = scratch_dir();
        let fresh_store = RunStore::create(&dir_fresh, Arc::clone(&spec)).unwrap();
        let fresh_id = fresh_store.ingest(&replayed).unwrap().id;
        let (fresh_tag, fresh_csr) = fresh_store.artifacts(fresh_id).unwrap();
        prop_assert!(*maintained.tag == *fresh_tag);
        prop_assert!(*maintained.csr == *fresh_csr);

        // Cold re-open, before and after folding the log into the base
        // file: the same run and the same artifacts either way, and
        // after the fold they decode warm.
        drop(open);
        drop(live_store);
        let unfolded = cold_view(&dir_live, id);
        let folding = RunStore::open(&dir_live).unwrap();
        folding.materialize_artifacts().unwrap();
        drop(folding);
        prop_assert!(!dir_live.join("runs").join(format!("run-{}.log", id.0)).exists());
        let reopened = RunStore::open(&dir_live).unwrap();
        let stored_run = reopened.run(id).unwrap();
        prop_assert_eq!(codec::to_bytes(&*stored_run), codec::to_bytes(&replayed));
        prop_assert!(*stored_run == *unfolded.0);
        let (live_tag, live_csr) = reopened.artifacts(id).unwrap();
        let after = reopened.stats();
        prop_assert_eq!(after.tag_rebuilds, 0);
        prop_assert_eq!(after.csr_rebuilds, 0);
        prop_assert!(*live_tag == *unfolded.1 && *live_csr == *unfolded.2);
        prop_assert_eq!(codec::to_bytes(&*live_tag), codec::to_bytes(&*fresh_tag));
        prop_assert_eq!(codec::to_bytes(&*live_csr), codec::to_bytes(&*fresh_csr));

        // Every query outcome over the reloaded artifacts agrees
        // with the fresh ones (sessions seeded so evaluation really
        // consumes each side's artifacts, not a rebuilt index).
        let live_session = Session::new(Arc::clone(&spec));
        live_session.seed_run_cache(&stored_run, live_tag, Some(live_csr));
        let fresh_session = Session::new(Arc::clone(&spec));
        fresh_session.seed_run_cache(&replayed, fresh_tag, Some(fresh_csr));
        let all: Vec<_> = replayed.node_ids().collect();
        for query_text in QUERIES {
            let live_query = live_session.prepare(query_text).unwrap();
            let fresh_query = fresh_session.prepare(query_text).unwrap();
            let request = QueryRequest::all_pairs(all.clone(), all.clone());
            let live_pairs = live_session
                .evaluate(&live_query, &stored_run, &request)
                .as_pairs()
                .expect("all-pairs")
                .iter()
                .collect::<Vec<_>>();
            let fresh_pairs = fresh_session
                .evaluate(&fresh_query, &replayed, &request)
                .as_pairs()
                .expect("all-pairs")
                .iter()
                .collect::<Vec<_>>();
            prop_assert_eq!(live_pairs, fresh_pairs, "{} disagrees", query_text);
            let entry_exit = QueryRequest::entry_exit();
            prop_assert_eq!(
                live_session
                    .evaluate(&live_query, &stored_run, &entry_exit)
                    .as_bool(),
                fresh_session
                    .evaluate(&fresh_query, &replayed, &entry_exit)
                    .as_bool(),
                "{} entry-exit disagrees",
                query_text
            );
        }

        let _ = std::fs::remove_dir_all(&dir_live);
        let _ = std::fs::remove_dir_all(&dir_fresh);
    }
}

// ---------------------------------------------------------------------
// Fixed cases: the states a crash (or a bad restore) leaves behind.
// ---------------------------------------------------------------------

/// A store holding one run grown by the first `committed` batches of a
/// four-batch stream, closed. Returns the directory, the id, the run
/// as of each number of applied batches, and the batches.
fn grown_store(committed: usize) -> (PathBuf, RunId, Vec<Run>, Vec<EventBatch>) {
    let dir = scratch_dir();
    let spec = Arc::new(paper_examples::fig2_spec());
    let full = RunBuilder::new(&spec)
        .seed(41)
        .target_edges(120)
        .build()
        .unwrap();
    let (base, batches) = event_stream(&full, 4).unwrap();
    let store = Arc::new(RunStore::create(&dir, Arc::clone(&spec)).unwrap());
    let id = store.ingest(&base).unwrap().id;
    let mut states = vec![base];
    for batch in &batches {
        let next = states.last().unwrap().apply_events(batch).unwrap();
        states.push(next);
    }
    append(&store, id, &batches[..committed]);
    (dir, id, states, batches)
}

fn append(store: &Arc<RunStore>, id: RunId, batches: &[EventBatch]) {
    let open = store.open_run(id).unwrap();
    for batch in batches {
        open.append_events(batch).unwrap();
    }
}

fn log_path(dir: &Path, id: RunId) -> PathBuf {
    dir.join("runs").join(format!("run-{}.log", id.0))
}

/// Copy the catalog (manifest and shard files) of the store at `from`
/// over the one at `to`.
fn copy_catalog(from: &Path, to: &Path) {
    std::fs::copy(from.join("catalog.json"), to.join("catalog.json")).unwrap();
    let _ = std::fs::remove_dir_all(to.join("catalog"));
    std::fs::create_dir_all(to.join("catalog")).unwrap();
    for entry in std::fs::read_dir(from.join("catalog")).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join("catalog").join(entry.file_name())).unwrap();
    }
}

/// The store of [`grown_store`]`(2)` as a process that died *between*
/// the third append's two writes leaves it: segment in the log,
/// catalog row not bumped. Also returns the log's length before that
/// segment.
fn crashed_before_the_catalog_bump() -> (PathBuf, RunId, Vec<Run>, Vec<EventBatch>, u64) {
    let (dir, id, states, batches) = grown_store(2);
    let saved = scratch_dir();
    std::fs::create_dir_all(&saved).unwrap();
    copy_catalog(&dir, &saved);
    let committed = std::fs::metadata(log_path(&dir, id)).unwrap().len();
    append(&Arc::new(RunStore::open(&dir).unwrap()), id, &batches[2..3]);
    assert!(std::fs::metadata(log_path(&dir, id)).unwrap().len() > committed);
    copy_catalog(&saved, &dir);
    let _ = std::fs::remove_dir_all(&saved);
    (dir, id, states, batches, committed)
}

#[test]
fn a_segment_without_its_catalog_bump_is_not_part_of_the_run() {
    let (dir, id, states, batches, _) = crashed_before_the_catalog_bump();
    assert_reopens_to(&dir, id, &states[2]);
    // The retried append lands over the orphaned segment, not after it.
    append(&Arc::new(RunStore::open(&dir).unwrap()), id, &batches[2..]);
    assert_reopens_to(&dir, id, &states[4]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_or_corrupt_uncommitted_tail_is_ignored_and_overwritten() {
    // Cut mid-header, mid-payload, and one byte short of whole.
    let whole = {
        let (dir, id, _, _, committed) = crashed_before_the_catalog_bump();
        let len = std::fs::metadata(log_path(&dir, id)).unwrap().len();
        let _ = std::fs::remove_dir_all(&dir);
        len - committed
    };
    for keep in [5, whole / 2, whole - 1] {
        let (dir, id, states, batches, committed) = crashed_before_the_catalog_bump();
        let log = std::fs::OpenOptions::new()
            .write(true)
            .open(log_path(&dir, id))
            .unwrap();
        log.set_len(committed + keep).unwrap();
        drop(log);
        assert_reopens_to(&dir, id, &states[2]);
        append(&Arc::new(RunStore::open(&dir).unwrap()), id, &batches[2..3]);
        assert_reopens_to(&dir, id, &states[3]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // A flipped payload byte in the uncommitted segment.
    let (dir, id, states, batches, committed) = crashed_before_the_catalog_bump();
    let mut bytes = std::fs::read(log_path(&dir, id)).unwrap();
    let flip = committed as usize + (bytes.len() - committed as usize) / 2;
    bytes[flip] ^= 0x01;
    std::fs::write(log_path(&dir, id), &bytes).unwrap();
    assert_reopens_to(&dir, id, &states[2]);
    append(&Arc::new(RunStore::open(&dir).unwrap()), id, &batches[2..3]);
    assert_reopens_to(&dir, id, &states[3]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damage_to_a_committed_segment_is_an_error_not_an_older_run() {
    // Not a crash state — a committed segment is never rewritten — but
    // what disk damage or a bad restore looks like: the row names a
    // run its files cannot reproduce. Typed, never silent.
    let (dir, id, _, _) = grown_store(3);
    let pristine = std::fs::read(log_path(&dir, id)).unwrap();
    let mut flipped = pristine.clone();
    flipped[pristine.len() / 2] ^= 0x01;
    for damaged in [&flipped[..], &pristine[..pristine.len() - 7], &[]] {
        std::fs::write(log_path(&dir, id), damaged).unwrap();
        let store = Arc::new(RunStore::open(&dir).unwrap());
        let refused = store.run(id).unwrap_err().to_string();
        assert!(
            refused.contains("does not match its catalog row"),
            "{refused}"
        );
        assert!(store.open_run(id).is_err());
        assert!(store.artifacts(id).is_err());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_fold_interrupted_after_the_base_rename_leaves_the_folded_run() {
    let (dir, id, states, batches) = grown_store(3);
    // The fold's first step and nothing else: the new base is in
    // place, the log it was folded from still lies beside it.
    let base = dir.join("runs").join(format!("run-{}.bin", id.0));
    std::fs::write(&base, codec::to_bytes(&states[3])).unwrap();
    assert!(log_path(&dir, id).exists());
    assert_reopens_to(&dir, id, &states[3]);
    // The next append starts the log over rather than extending the
    // stale one...
    append(&Arc::new(RunStore::open(&dir).unwrap()), id, &batches[3..]);
    assert_reopens_to(&dir, id, &states[4]);
    // ...and a fold that runs to completion changes nothing visible.
    RunStore::open(&dir)
        .unwrap()
        .materialize_artifacts()
        .unwrap();
    assert!(!log_path(&dir, id).exists());
    assert_reopens_to(&dir, id, &states[4]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_foreign_and_unstamped_artifacts_rebuild_instead_of_answering() {
    let dir = scratch_dir();
    let spec = Arc::new(paper_examples::fig2_spec());
    let corpus = runs::corpus(&spec, 2, 80, 5).unwrap();
    let store = Arc::new(RunStore::create(&dir, Arc::clone(&spec)).unwrap());
    let a = store.ingest(&corpus[0]).unwrap().id;
    let b = store.ingest(&corpus[1]).unwrap().id;
    store.materialize_artifacts().unwrap();
    let artifact = |kind: &str, id: RunId| dir.join("index").join(format!("{kind}-{}.bin", id.0));
    let aside = |kind: &str| dir.join(format!("{kind}-aside.bin"));
    for kind in ["tag", "csr"] {
        std::fs::copy(artifact(kind, a), aside(kind)).unwrap();
    }

    // Grow run `a` by an edges-only batch: reverse edges between
    // existing nodes, no new node — the stale pair keeps its n_nodes,
    // has fewer pairs than the grown run has edges, and is mutually
    // consistent.
    let grown = runs::with_back_edges(&corpus[0], 3);
    let batch = EventBatch {
        nodes: Vec::new(),
        edges: grown.edges()[corpus[0].n_edges()..].to_vec(),
    };
    append(&store, a, &[batch]);
    drop(store);

    // A mis-restored backup: the pre-append artifacts come back.
    for kind in ["tag", "csr"] {
        std::fs::copy(aside(kind), artifact(kind, a)).unwrap();
    }
    let reopened = RunStore::open(&dir).unwrap();
    let (tag, csr) = reopened.artifacts(a).unwrap();
    let fresh_tag = TagIndex::build(&grown, spec.n_tags());
    assert!(*tag == fresh_tag, "stale tag index accepted");
    assert!(*csr == CsrIndex::build(&fresh_tag), "stale CSR accepted");
    assert_eq!(reopened.stats().tag_rebuilds, 1);
    assert_eq!(reopened.stats().csr_rebuilds, 1);
    drop(reopened);
    assert_reopens_to(&dir, a, &grown);

    // Two runs' artifacts swapped (both pairs current before the swap:
    // the rebuild above re-persisted `a`'s): each rebuilds.
    for kind in ["tag", "csr"] {
        std::fs::rename(artifact(kind, a), aside(kind)).unwrap();
        std::fs::rename(artifact(kind, b), artifact(kind, a)).unwrap();
        std::fs::rename(aside(kind), artifact(kind, b)).unwrap();
    }
    let swapped = RunStore::open(&dir).unwrap();
    swapped.artifacts(a).unwrap();
    swapped.artifacts(b).unwrap();
    assert_eq!(swapped.stats().tag_rebuilds, 2);
    assert_eq!(swapped.stats().csr_rebuilds, 2);
    assert_eq!(swapped.stats().tag_reloads + swapped.stats().csr_reloads, 0);
    drop(swapped);
    assert_reopens_to(&dir, a, &grown);
    assert_reopens_to(&dir, b, &corpus[1]);

    // Artifacts written by an older build carry no fingerprint stamp:
    // the bare codec payload. They rebuild once — never an error — and
    // the re-persisted files reload.
    let b_tag = TagIndex::build(&corpus[1], spec.n_tags());
    std::fs::write(artifact("tag", b), codec::to_bytes(&b_tag)).unwrap();
    std::fs::write(
        artifact("csr", b),
        codec::to_bytes(&CsrIndex::build(&b_tag)),
    )
    .unwrap();
    let legacy = RunStore::open(&dir).unwrap();
    legacy.artifacts(b).unwrap();
    assert_eq!(legacy.stats().tag_rebuilds, 1);
    assert_eq!(legacy.stats().csr_rebuilds, 1);
    drop(legacy);
    let again = RunStore::open(&dir).unwrap();
    again.artifacts(b).unwrap();
    assert_eq!(again.stats().tag_reloads, 1);
    assert_eq!(again.stats().csr_reloads, 1);
    assert_eq!(again.stats().tag_rebuilds + again.stats().csr_rebuilds, 0);
    assert_reopens_to(&dir, b, &corpus[1]);

    let _ = std::fs::remove_dir_all(&dir);
}
