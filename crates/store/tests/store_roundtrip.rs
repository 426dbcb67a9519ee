//! Persistence round-trip: a store written by one process instance and
//! reopened by another answers queries identically, and the reload
//! counters prove the indexes came back warm instead of being
//! re-derived.

#[path = "../../../tests/support/tamper.rs"]
mod tamper;

use rpq_core::{BatchOptions, QueryRequest, Session};
use rpq_store::RunStore;
use rpq_workloads::{paper_examples, runs};
use std::path::PathBuf;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("rpq_store_roundtrip")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn persist_reload_identical_outcomes_and_warm_counters() {
    let dir = scratch_dir("warm");
    let spec = paper_examples::fig2_spec();
    let corpus = runs::corpus(&spec, 5, 60, 11).unwrap();

    // ---- first process instance: ingest, materialize, evaluate ----
    let (first_outcomes, ids) = {
        let store = RunStore::create(&dir, std::sync::Arc::new(spec)).unwrap();
        for run in &corpus {
            store.ingest(run).unwrap();
        }
        assert_eq!(store.materialize_artifacts().unwrap(), 5);
        let session = Session::new(store.spec_arc());
        let query = session.prepare("_* a _*").unwrap();
        let outcome = session.evaluate_batch(
            &query,
            &store,
            &QueryRequest::entry_exit(),
            &BatchOptions::threads(2),
        );
        assert_eq!(outcome.n_err(), 0);
        let verdicts: Vec<bool> = outcome
            .items
            .iter()
            .map(|i| i.outcome.as_ref().unwrap().as_bool().unwrap())
            .collect();
        (verdicts, store.ids())
    };

    // ---- "restarted process": fresh store + session over the dir ----
    let store = RunStore::open(&dir).unwrap();
    assert_eq!(store.ids(), ids, "catalog order is stable across reopen");
    let session = Session::new(store.spec_arc());
    let query = session.prepare("_* a _*").unwrap();
    let outcome = session.evaluate_batch(
        &query,
        &store,
        &QueryRequest::entry_exit(),
        &BatchOptions::threads(3),
    );
    let second_outcomes: Vec<bool> = outcome
        .items
        .iter()
        .map(|i| i.outcome.as_ref().unwrap().as_bool().unwrap())
        .collect();
    assert_eq!(second_outcomes, first_outcomes, "identical QueryOutcomes");

    // Reload counters prove the indexes came back warm: every tag
    // index and CSR arena was decoded from its persisted artifact...
    let stats = store.stats();
    assert_eq!(stats.tag_reloads, 5);
    assert_eq!(stats.csr_reloads, 5);
    assert_eq!(stats.tag_rebuilds, 0);
    assert_eq!(stats.csr_rebuilds, 0);
    // ...and the session consumed them instead of building its own:
    // its caches were seeded, so evaluations hit. Whichever evaluation
    // strategy the session resolves to, the composite plan closes over
    // the warm CSR arena (the lazy product search reads it directly
    // and skips the tag index entirely, so only csr_hits is pinned)
    // and nothing was ever derived session-side.
    assert!(
        outcome.stats.csr_hits > 0,
        "warm CSR arenas must be consumed"
    );
    assert_eq!(outcome.stats.index_misses, 0);
    assert_eq!(outcome.stats.csr_misses, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn single_run_queries_agree_between_loaded_and_original_runs() {
    let dir = scratch_dir("single");
    let spec = paper_examples::fig2_spec();
    let corpus = runs::corpus(&spec, 3, 70, 23).unwrap();
    let store = RunStore::create(&dir, std::sync::Arc::new(spec)).unwrap();
    let ids: Vec<_> = corpus.iter().map(|r| store.ingest(r).unwrap().id).collect();

    // Reopen and compare full all-pairs result sets per run.
    let store = RunStore::open(&dir).unwrap();
    let session = Session::new(store.spec_arc());
    let query = session.prepare("_* e _*").unwrap();
    for (run, &id) in corpus.iter().zip(&ids) {
        let loaded = store.run(id).unwrap();
        assert_eq!(loaded.fingerprint(), run.fingerprint());
        let all: Vec<rpq_labeling::NodeId> = run.node_ids().collect();
        let expected = session.evaluate(
            &query,
            run,
            &QueryRequest::all_pairs(all.clone(), all.clone()),
        );
        let got = session.evaluate(&query, &loaded, &QueryRequest::all_pairs(all.clone(), all));
        assert_eq!(got.result, expected.result, "{id}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_run_file_with_an_edge_outside_the_run_is_refused_and_the_store_survives() {
    let dir = scratch_dir("bad_file");
    let spec = paper_examples::fig2_spec();
    let corpus = runs::corpus(&spec, 2, 30, 5).unwrap();
    let store = RunStore::create(&dir, std::sync::Arc::new(spec)).unwrap();
    let good = store.ingest(&corpus[0]).unwrap().id;

    // The second run with an edge to node 999 in its edge list only:
    // the adjacency written beside it stays in range.
    let bad = tamper::with_extra_edge(&corpus[1], tamper::outside_edge(&corpus[1]));
    let path = dir.join("bad.json");
    std::fs::write(&path, serde_json::to_string(&bad).unwrap()).unwrap();
    let err = store.ingest_json_file(&path).unwrap_err();
    assert!(matches!(err, rpq_core::RpqError::Invalid(_)), "{err:?}");
    assert_eq!(store.ids(), vec![good]);
    drop(store);

    // Every later command on the store still works.
    let store = RunStore::open(&dir).unwrap();
    assert_eq!(store.ids(), vec![good]);
    let session = Session::new(store.spec_arc());
    let query = session.prepare("_* e _* a _*").unwrap();
    let outcome = session.evaluate_batch(
        &query,
        &store,
        &QueryRequest::entry_exit(),
        &BatchOptions::threads(2),
    );
    assert_eq!(outcome.n_err(), 0);
    store.materialize_artifacts().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
