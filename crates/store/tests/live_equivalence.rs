//! Property tests pinning incremental index maintenance to the
//! from-scratch referee: for any base run and any append schedule, the
//! `TagIndex`/`CsrIndex` a live [`OpenRun`](rpq_store::OpenRun)
//! maintains — and persists — are byte-identical to the artifacts a
//! fresh store derives from re-ingesting the final run, and every
//! query outcome over the seeded artifacts agrees.

use proptest::prelude::*;
use rpq_core::{QueryRequest, Session};
use rpq_labeling::RunBuilder;
use rpq_store::{codec, RunStore};
use rpq_workloads::paper_examples;
use rpq_workloads::runs::event_stream;
use std::path::PathBuf;
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
    ) {
        let churn: u32 = [0, 25, 100][churn_choice];
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
        let ingested = live_store.ingest(&base).unwrap();
        let open = live_store.open_run(ingested.id).unwrap();
        open.set_churn_percent(churn);
        let mut replayed = base;
        for batch in &batches {
            let receipt = open.append_events(batch).unwrap();
            replayed = replayed.apply_events(batch).unwrap();
            prop_assert_eq!(receipt.n_nodes, replayed.n_nodes());
            prop_assert_eq!(receipt.n_edges, replayed.n_edges());
            prop_assert_eq!(receipt.fingerprint, replayed.fingerprint());
        }
        let stats = live_store.stats();
        prop_assert_eq!(stats.appended, batches.len() as u64);
        if churn == 0 {
            // Zero tolerance: every append takes the rebuild fallback.
            prop_assert_eq!(stats.append_rebuilds, batches.len() as u64);
        }
        // Epoch: one bump for the ingest, one per append.
        prop_assert_eq!(live_store.epoch(), 1 + batches.len() as u64);

        // Referee: one fresh ingest of the final run.
        let dir_fresh = scratch_dir();
        let fresh_store = RunStore::create(&dir_fresh, Arc::clone(&spec)).unwrap();
        let fresh_id = fresh_store.ingest(&replayed).unwrap().id;
        let (fresh_tag, fresh_csr) = fresh_store.artifacts(fresh_id).unwrap();

        // Cold re-open: the run and artifacts the live path *persisted*
        // must decode warm (no rebuild fallback) and match the fresh
        // derivation byte for byte.
        drop(open);
        drop(live_store);
        let reopened = RunStore::open(&dir_live).unwrap();
        let id = reopened.ids()[0];
        let stored_run = reopened.run(id).unwrap();
        prop_assert_eq!(codec::to_bytes(&*stored_run), codec::to_bytes(&replayed));
        let (live_tag, live_csr) = reopened.artifacts(id).unwrap();
        let after = reopened.stats();
        prop_assert_eq!(after.tag_rebuilds, 0);
        prop_assert_eq!(after.csr_rebuilds, 0);
        prop_assert_eq!(codec::to_bytes(&*live_tag), codec::to_bytes(&*fresh_tag));
        prop_assert_eq!(codec::to_bytes(&*live_csr), codec::to_bytes(&*fresh_csr));

        // Every query outcome over the maintained artifacts agrees
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
