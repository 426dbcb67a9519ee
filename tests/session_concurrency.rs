//! Hammer one shared `Session` from many threads and prove the
//! service-grade claims the serve layer leans on:
//!
//! * every concurrent outcome equals single-threaded evaluation on a
//!   private referee session — under mixed queries (safe, index leaf,
//!   decomposed composite, relational closure), mixed request modes,
//!   LRU evictions mid-flight and hostile `clear_run_cache` calls;
//! * the cache counters stay consistent: hits + misses always equals
//!   the number of cache interactions, with no drops or double counts
//!   lost to races.

use rpq::prelude::*;
use rpq_core::QueryResult;
use std::sync::atomic::{AtomicUsize, Ordering};

const QUERIES: [&str; 4] = [
    // One safe plan, one index-answered leaf, one decomposed composite,
    // one composite closing a derived relation.
    "_* e _*",
    "a",
    "_* a _*",
    "(a _*)+ e",
];

const THREADS: usize = 8;
const ITERS: usize = 48;
const N_RUNS: usize = 6;

fn spec() -> rpq::grammar::Specification {
    rpq::workloads::paper_examples::fig2_spec()
}

fn corpus() -> Vec<Run> {
    let spec = spec();
    (0..N_RUNS)
        .map(|i| {
            RunBuilder::new(&spec)
                .seed(i as u64 + 11)
                .target_edges(60 + 20 * i)
                .build()
                .unwrap()
        })
        .collect()
}

/// The deterministic work item of thread `t`, iteration `i`.
fn schedule(t: usize, i: usize, runs: &[Run]) -> (usize, usize, QueryRequest) {
    let q = (t * 31 + i * 7) % QUERIES.len();
    let r = (t * 13 + i * 5) % runs.len();
    let run = &runs[r];
    let request = match (t + i) % 3 {
        0 => QueryRequest::entry_exit(),
        1 => QueryRequest::source_star(run.entry()),
        _ => QueryRequest::pairwise(run.entry(), run.exit()),
    };
    (q, r, request)
}

#[test]
fn concurrent_outcomes_equal_single_threaded_evaluation() {
    let runs = corpus();

    // Referee: a private session, evaluated single-threaded.
    let referee = Session::from_spec(spec());
    let expected: Vec<Vec<QueryResult>> = (0..THREADS)
        .map(|t| {
            (0..ITERS)
                .map(|i| {
                    let (q, r, request) = schedule(t, i, &runs);
                    let prepared = referee.prepare(QUERIES[q]).unwrap();
                    referee.evaluate(&prepared, &runs[r], &request).result
                })
                .collect()
        })
        .collect();

    // Subject: one shared session, tight LRU bound (capacity 2 against
    // 6 runs guarantees evictions while queries are in flight), plus a
    // thread that periodically wipes the run caches outright.
    let session = Session::from_spec(spec()).with_cache_capacity(2);
    let lazy_evals = AtomicUsize::new(0);
    let materialized_composites = AtomicUsize::new(0);
    let prepare_calls = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let session = &session;
            let runs = &runs;
            let expected = &expected;
            let lazy_evals = &lazy_evals;
            let materialized_composites = &materialized_composites;
            let prepare_calls = &prepare_calls;
            scope.spawn(move || {
                for (i, want) in expected[t].iter().enumerate() {
                    let (q, r, request) = schedule(t, i, runs);
                    let text = QUERIES[q];
                    // Preparing inside the loop exercises the plan
                    // cache under contention.
                    let prepared = session.prepare(text).unwrap();
                    prepare_calls.fetch_add(1, Ordering::Relaxed);
                    let outcome = session.evaluate(&prepared, &runs[r], &request);
                    // The meta records the *resolved* strategy, which
                    // is what drives cache-counter accounting below.
                    if outcome.meta.strategy == EvalStrategy::Lazy {
                        lazy_evals.fetch_add(1, Ordering::Relaxed);
                    } else if prepared.stats().kind == PlanKind::Composite {
                        materialized_composites.fetch_add(1, Ordering::Relaxed);
                    }
                    assert_eq!(
                        &outcome.result, want,
                        "thread {t}, iteration {i}: query {text:?} over run {r} diverged"
                    );
                    // Hostile cache traffic mid-flight.
                    if t == 0 && i % 12 == 11 {
                        session.clear_run_cache();
                    }
                }
            });
        }
    });

    let stats = session.stats();
    // Plan-cache accounting: every prepare call is exactly one hit or
    // one miss (racing compilers each count their own miss), and at
    // least one compilation happened per distinct query.
    assert_eq!(
        stats.plan_hits + stats.plan_misses,
        prepare_calls.load(Ordering::Relaxed) as u64
    );
    assert!(stats.plan_misses >= QUERIES.len() as u64, "{stats:?}");

    // Index accounting: every materialized composite evaluation
    // interacts with the per-run index cache exactly once; a lazy
    // evaluation goes straight to the CSR arena and touches the index
    // only when the arena is cold (one build); materialized safe plans
    // never touch either cache.
    let lazy = lazy_evals.load(Ordering::Relaxed) as u64;
    let materialized = materialized_composites.load(Ordering::Relaxed) as u64;
    let index_uses = stats.index_hits + stats.index_misses;
    assert!(
        index_uses >= materialized && index_uses <= materialized + lazy,
        "index uses {index_uses} outside [{materialized}, {}]: {stats:?}",
        materialized + lazy
    );
    // CSR arenas are fetched exactly once per lazy evaluation and at
    // most once per materialized composite evaluation.
    let csr_uses = stats.csr_hits + stats.csr_misses;
    assert!(
        csr_uses >= lazy && csr_uses <= lazy + materialized,
        "csr uses {csr_uses} outside [{lazy}, {}]: {stats:?}",
        lazy + materialized
    );
    // The tight LRU bound plus clear_run_cache forced rebuilding: with
    // 6 distinct runs through 2-entry caches there must be evictions,
    // and strictly more cold builds than the corpus alone explains.
    assert!(stats.index_evictions + stats.csr_evictions > 0, "{stats:?}");
    assert!(
        stats.index_misses + stats.csr_misses > N_RUNS as u64,
        "{stats:?}"
    );
}

#[test]
fn batch_executor_agrees_with_itself_under_eviction_pressure() {
    // The batch path exercises seed_run_cache + evaluate concurrently;
    // under a 1-entry cache its results must not change.
    let runs = corpus();
    let roomy = Session::from_spec(spec());
    let tight = Session::from_spec(spec()).with_cache_capacity(1);
    let request = QueryRequest::entry_exit();
    for text in QUERIES {
        let q_roomy = roomy.prepare(text).unwrap();
        let q_tight = tight.prepare(text).unwrap();
        let a = roomy.evaluate_batch(
            &q_roomy,
            runs.as_slice(),
            &request,
            &BatchOptions::threads(1),
        );
        let b = tight.evaluate_batch(
            &q_tight,
            runs.as_slice(),
            &request,
            &BatchOptions::threads(6),
        );
        for (x, y) in a.items.iter().zip(&b.items) {
            assert_eq!(
                x.outcome.as_ref().unwrap().result,
                y.outcome.as_ref().unwrap().result,
                "query {text:?}"
            );
        }
    }
    assert!(tight.stats().index_evictions > 0);
}
