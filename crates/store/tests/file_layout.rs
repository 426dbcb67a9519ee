//! The store's own files on disk: stores written by older builds (run
//! bases and log segments in the generic `RPQB` 1 codec) still open and
//! answer, and the next fold rewrites them in the typed `RPQB` 2
//! layout; and the typed run file is a fraction of the generic one.

use rpq_baselines::Referee;
use rpq_core::{QueryRequest, Session};
use rpq_labeling::{NodeId, Run, RunBuilder};
use rpq_store::{codec, RunId, RunStore};
use rpq_workloads::{bioaid_like, paper_examples, runs};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("rpq_file_layout")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_path(dir: &Path, id: RunId) -> PathBuf {
    dir.join("runs").join(format!("run-{}.bin", id.0))
}

fn log_path(dir: &Path, id: RunId) -> PathBuf {
    dir.join("runs").join(format!("run-{}.log", id.0))
}

/// One event-log segment as older builds framed it: payload length,
/// FNV-1a of the payload, then the generic codec's payload.
fn v1_segment(batch: &rpq_labeling::EventBatch) -> Vec<u8> {
    let payload = codec::to_bytes(batch);
    let mut checksum = 0xcbf2_9ce4_8422_2325u64;
    for &b in &payload {
        checksum = (checksum ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&checksum.to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Every query answers like the product-graph referee on `truth`.
fn assert_answers_like_the_referee(store: &RunStore, id: RunId, truth: &Run) {
    let run = store.run(id).unwrap();
    assert!(*run == *truth);
    let session = Session::new(store.spec_arc());
    let all: Vec<NodeId> = truth.node_ids().collect();
    for text in ["_*", "_* e _*", "_* a _*", "_* d _* a _*"] {
        let query = session.prepare(text).unwrap();
        let request = QueryRequest::all_pairs(all.clone(), all.clone());
        let got = session.evaluate(&query, &run, &request);
        let expected = Referee::new(truth, query.dfa()).all_pairs(&all, &all);
        assert!(got.as_pairs() == Some(&expected), "{text}");
    }
}

#[test]
fn an_older_builds_base_and_log_open_answer_and_fold_to_the_typed_layout() {
    let dir = scratch_dir("v1");
    let spec = Arc::new(paper_examples::fig2_spec());
    let full = RunBuilder::new(&spec)
        .seed(23)
        .target_edges(90)
        .build()
        .unwrap();
    let other = RunBuilder::new(&spec)
        .seed(24)
        .target_edges(60)
        .build()
        .unwrap();
    let (base, batches) = runs::event_stream(&full, 1).unwrap();
    // The whole derivation, its edges in stream order.
    let grown = base.apply_events(&batches[0]).unwrap();

    // The catalog rows of an appended-to run and of a plain one, then
    // their files as an older build left them: both bases and the one
    // log segment in the generic codec.
    let store = Arc::new(RunStore::create(&dir, Arc::clone(&spec)).unwrap());
    let id = store.ingest(&base).unwrap().id;
    store
        .open_run(id)
        .unwrap()
        .append_events(&batches[0])
        .unwrap();
    let plain = store.ingest(&other).unwrap().id;
    drop(store);
    std::fs::write(run_path(&dir, id), codec::to_bytes(&base)).unwrap();
    std::fs::write(log_path(&dir, id), v1_segment(&batches[0])).unwrap();
    std::fs::write(run_path(&dir, plain), codec::to_bytes(&other)).unwrap();

    let store = RunStore::open(&dir).unwrap();
    assert_answers_like_the_referee(&store, id, &grown);
    assert_answers_like_the_referee(&store, plain, &other);

    // The fold rewrites both bases in the typed layout — the one with a
    // log and the one without — and drops the log.
    assert_eq!(store.materialize_artifacts().unwrap(), 2);
    for run in [id, plain] {
        let bytes = std::fs::read(run_path(&dir, run)).unwrap();
        assert_eq!(&bytes[..6], b"RPQB\x02G", "{run}");
    }
    assert!(!log_path(&dir, id).exists());
    assert_eq!(store.materialize_artifacts().unwrap(), 0);
    drop(store);

    let reopened = RunStore::open(&dir).unwrap();
    assert_answers_like_the_referee(&reopened, id, &grown);
    assert_answers_like_the_referee(&reopened, plain, &other);
    reopened.artifacts(id).unwrap();
    let stats = reopened.stats();
    assert_eq!((stats.tag_reloads, stats.csr_reloads), (1, 1));
    assert_eq!((stats.tag_rebuilds, stats.csr_rebuilds), (0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_typed_run_file_is_at_most_a_quarter_of_the_generic_one() {
    let spec = Arc::new(bioaid_like().spec);
    let run = runs::simulate(&spec, 2_000, 3).unwrap();
    assert!(run.n_edges() >= 2_000);
    let dir = scratch_dir("size");
    let store = RunStore::create(&dir, spec).unwrap();
    let id = store.ingest(&run).unwrap().id;
    let typed = std::fs::metadata(run_path(&dir, id)).unwrap().len() as usize;
    let generic = codec::to_bytes(&run).len();
    assert!(
        4 * typed <= generic,
        "typed {typed} B vs generic {generic} B"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
