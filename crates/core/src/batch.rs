//! Cross-run batch evaluation: one prepared plan fanned across a run
//! corpus on a scoped thread pool.
//!
//! The paper's stored-index workloads (Section VII) are *one query,
//! many runs*: the plan is compiled once and each run is answered off
//! its persisted per-run indexes. [`Session::evaluate_batch`] is that
//! shape as an API — it takes any [`RunSource`] (an in-memory slice of
//! runs, or a persistent `RunStore` from the `rpq-store` crate),
//! evaluates every run against one [`PreparedQuery`], and returns the
//! per-run outcomes plus the batch's aggregate cache-counter movement
//! and wall-clock time.
//!
//! Parallelism is a hand-rolled scoped pool (`std::thread::scope` +
//! an atomic work cursor) rather than an async runtime: the session's
//! caches are already `Send + Sync`, per-run evaluation is pure CPU,
//! and work stealing over a shared counter keeps the threads busy even
//! when run sizes are skewed.

use crate::error::RpqError;
use crate::request::{PlanKind, QueryOutcome, QueryRequest};
use crate::session::{PreparedQuery, Session, SessionStats};
use rpq_labeling::Run;
use rpq_relalg::{CsrIndex, TagIndex};
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A run handed out by a [`RunSource`]: borrowed straight from an
/// in-memory slice, or shared out of a store's cache.
pub enum RunRef<'a> {
    /// Borrowed from the source's own storage.
    Borrowed(&'a Run),
    /// Shared ownership (e.g. a store's in-memory run cache).
    Shared(Arc<Run>),
}

impl Deref for RunRef<'_> {
    type Target = Run;

    fn deref(&self) -> &Run {
        match self {
            RunRef::Borrowed(run) => run,
            RunRef::Shared(run) => run,
        }
    }
}

/// A corpus of runs a batch evaluation ranges over.
///
/// Implemented by in-memory slices (below) and by the persistent
/// `RunStore` of the `rpq-store` crate, which also hands the session
/// its persisted per-run artifacts via [`RunSource::warm_artifacts`].
/// Sources must be `Sync`: the batch executor calls them from worker
/// threads.
pub trait RunSource: Sync {
    /// Number of runs in the corpus.
    fn n_runs(&self) -> usize;

    /// The `i`-th run (`i < n_runs()`). Errors are per-run: a corrupt
    /// entry fails its own [`BatchItem`] without aborting the batch.
    fn run(&self, i: usize) -> Result<RunRef<'_>, RpqError>;

    /// Pre-built artifacts for the `i`-th run, if the source persisted
    /// them — the batch executor seeds the session's caches with these
    /// (via [`Session::seed_run_cache`]) so warm stores evaluate
    /// without re-deriving any index.
    fn warm_artifacts(&self, i: usize) -> Option<(Arc<TagIndex>, Arc<CsrIndex>)> {
        let _ = i;
        None
    }
}

impl RunSource for [Run] {
    fn n_runs(&self) -> usize {
        self.len()
    }

    fn run(&self, i: usize) -> Result<RunRef<'_>, RpqError> {
        Ok(RunRef::Borrowed(&self[i]))
    }
}

impl RunSource for Vec<Run> {
    fn n_runs(&self) -> usize {
        self.len()
    }

    fn run(&self, i: usize) -> Result<RunRef<'_>, RpqError> {
        Ok(RunRef::Borrowed(&self[i]))
    }
}

impl RunSource for [Arc<Run>] {
    fn n_runs(&self) -> usize {
        self.len()
    }

    fn run(&self, i: usize) -> Result<RunRef<'_>, RpqError> {
        Ok(RunRef::Shared(Arc::clone(&self[i])))
    }
}

/// Knobs of a batch evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchOptions {
    /// Worker threads; 0 means one per available CPU. Clamped to the
    /// corpus size (never more threads than runs, never fewer than 1).
    pub threads: usize,
}

impl BatchOptions {
    /// Options with an explicit thread count.
    pub fn threads(threads: usize) -> BatchOptions {
        BatchOptions { threads }
    }
}

/// One run's result within a [`BatchOutcome`].
#[derive(Debug)]
pub struct BatchItem {
    /// Index of the run in the source.
    pub index: usize,
    /// The evaluation result, or the per-run failure (e.g. a corrupt
    /// store entry) that prevented it.
    pub outcome: Result<QueryOutcome, RpqError>,
    /// Wall-clock seconds this run took on its worker.
    pub secs: f64,
}

/// The result of [`Session::evaluate_batch`].
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-run results, in source order (one per source run).
    pub items: Vec<BatchItem>,
    /// Worker threads actually used.
    pub threads: usize,
    /// Wall-clock seconds for the whole batch.
    pub wall_secs: f64,
    /// The session's cache-counter movement over this batch (plan and
    /// index hits/misses/evictions attributable to it — assuming no
    /// concurrent foreign traffic on the session).
    pub stats: SessionStats,
}

impl BatchOutcome {
    /// Runs that evaluated successfully.
    pub fn n_ok(&self) -> usize {
        self.items.iter().filter(|i| i.outcome.is_ok()).count()
    }

    /// Runs that failed (source errors).
    pub fn n_err(&self) -> usize {
        self.items.len() - self.n_ok()
    }

    /// Successful outcomes with their source indexes.
    pub fn outcomes(&self) -> impl Iterator<Item = (usize, &QueryOutcome)> {
        self.items
            .iter()
            .filter_map(|i| i.outcome.as_ref().ok().map(|o| (i.index, o)))
    }

    /// Total matches across successful runs (pairwise verdicts count
    /// as 0/1).
    pub fn total_matches(&self) -> usize {
        self.outcomes().map(|(_, o)| o.len()).sum()
    }
}

impl Session {
    /// Evaluate `request` for `query` over every run of `source`,
    /// fanning per-run work across a scoped thread pool.
    ///
    /// The plan is compiled exactly once (it already is — `query` is
    /// prepared); per-run tag indexes and CSR arenas come from the
    /// session caches, seeded with the source's persisted artifacts
    /// when it has them ([`RunSource::warm_artifacts`]), so a warm
    /// store evaluates a corpus without re-deriving a single index.
    ///
    /// `options.threads` is clamped to `[1, n_runs]`; 0 asks for one
    /// thread per available CPU. Results arrive in source order
    /// regardless of scheduling. Source failures are per-run
    /// ([`BatchItem::outcome`]); the batch itself always completes.
    pub fn evaluate_batch<S>(
        &self,
        query: &PreparedQuery,
        source: &S,
        request: &QueryRequest,
        options: &BatchOptions,
    ) -> BatchOutcome
    where
        S: RunSource + ?Sized,
    {
        let n = source.n_runs();
        let requested = if options.threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            options.threads
        };
        let threads = requested.clamp(1, n.max(1));

        let before = self.stats();
        let started = Instant::now();
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<BatchItem>>> = (0..n).map(|_| Mutex::new(None)).collect();
        // Safe plans decode labels only: never pull (or, on a cold
        // store, derive and persist) index artifacts a plan cannot
        // read.
        let wants_artifacts = query.stats().kind == PlanKind::Composite;

        let worker = || loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let run_started = Instant::now();
            let outcome = source.run(i).map(|run| {
                if wants_artifacts && !self.run_is_cached(&run) {
                    if let Some((index, csr)) = source.warm_artifacts(i) {
                        self.seed_run_cache(&run, index, Some(csr));
                    }
                }
                self.evaluate(query, &run, request)
            });
            *slots[i].lock().expect("batch result slot") = Some(BatchItem {
                index: i,
                outcome,
                secs: run_started.elapsed().as_secs_f64(),
            });
        };

        if threads == 1 {
            worker();
        } else {
            std::thread::scope(|scope| {
                // The worker captures only shared references, so it is
                // `Copy` — each spawn gets its own copy of the closure.
                for _ in 0..threads {
                    scope.spawn(worker);
                }
            });
        }

        BatchOutcome {
            items: slots
                .into_iter()
                .map(|slot| {
                    slot.into_inner()
                        .expect("batch result slot")
                        .expect("work cursor covers every run")
                })
                .collect(),
            threads,
            wall_secs: started.elapsed().as_secs_f64(),
            stats: self.stats().since(before),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_grammar::SpecificationBuilder;
    use rpq_labeling::RunBuilder;

    fn spec() -> rpq_grammar::Specification {
        let mut b = SpecificationBuilder::new();
        b.atomic("t");
        b.atomic("u");
        b.composite("S");
        b.production("S", |w| {
            let x = w.node("t");
            let s = w.node("S");
            let y = w.node("u");
            w.edge_named(x, s, "go");
            w.edge_named(s, y, "done");
        });
        b.production("S", |w| {
            let x = w.node("t");
            let y = w.node("u");
            w.edge_named(x, y, "base");
        });
        b.start("S");
        b.build().unwrap()
    }

    fn corpus(session: &Session, n: usize) -> Vec<Run> {
        (0..n)
            .map(|seed| {
                RunBuilder::new(session.spec())
                    .seed(seed as u64 + 1)
                    .target_edges(50 + 10 * seed)
                    .build()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn batch_matches_sequential_evaluate_at_any_thread_count() {
        let runs = {
            let session = Session::from_spec(spec());
            corpus(&session, 6)
        };
        let request = QueryRequest::source_star(runs[0].entry());

        // Sequential referee: per-run `evaluate` on a fresh session.
        let referee_session = Session::from_spec(spec());
        let referee_query = referee_session.prepare("go+ done").unwrap();
        let expected: Vec<QueryOutcome> = runs
            .iter()
            .map(|run| referee_session.evaluate(&referee_query, run, &request))
            .collect();

        for threads in [1, 2, 5, 64] {
            // A fresh session per thread count: cold caches every time.
            let session = Session::from_spec(spec());
            let query = session.prepare("go+ done").unwrap();
            let outcome = session.evaluate_batch(
                &query,
                runs.as_slice(),
                &request,
                &BatchOptions::threads(threads),
            );
            assert_eq!(outcome.items.len(), runs.len());
            assert!(outcome.threads <= runs.len());
            for (i, item) in outcome.items.iter().enumerate() {
                assert_eq!(item.index, i);
                let got = item.outcome.as_ref().expect("in-memory source");
                assert_eq!(got.result, expected[i].result, "run {i}, {threads} threads");
            }
        }
    }

    #[test]
    fn batch_counts_one_index_build_per_run() {
        let session = Session::from_spec(spec());
        let runs = corpus(&session, 4);
        // Composite plan: needs the per-run index.
        let query = session.prepare("go").unwrap();
        let all: Vec<rpq_labeling::NodeId> = runs[0].node_ids().collect();
        let outcome = session.evaluate_batch(
            &query,
            runs.as_slice(),
            &QueryRequest::all_pairs(all.clone(), all),
            &BatchOptions::threads(3),
        );
        assert_eq!(outcome.n_ok(), 4);
        assert_eq!(outcome.n_err(), 0);
        assert_eq!(outcome.stats.index_misses, 4);
        assert_eq!(outcome.stats.index_hits, 0);
        assert!(outcome.wall_secs > 0.0);
    }

    #[test]
    fn lru_capacity_bounds_the_cache_and_counts_evictions() {
        let session = Session::from_spec(spec()).with_cache_capacity(2);
        let runs = corpus(&session, 5);
        let query = session.prepare("go").unwrap();
        let all: Vec<rpq_labeling::NodeId> = runs[0].node_ids().collect();
        // `go` is a closure-free index leaf, so the session evaluates
        // it materialized, which touches the index cache on every
        // evaluation: index-cache LRU recency is the subject.
        let eval = |run: &_| {
            session.evaluate(
                &query,
                run,
                &QueryRequest::all_pairs(all.clone(), all.clone()),
            )
        };
        for run in &runs {
            eval(run);
        }
        // 5 distinct runs through a 2-entry cache: ≥ 3 evictions.
        assert!(session.stats().index_evictions >= 3);
        // The two most recent runs are still cached.
        assert!(session.run_is_cached(&runs[4]));
        assert!(session.run_is_cached(&runs[3]));
        assert!(!session.run_is_cached(&runs[0]));
        // Re-evaluating an evicted run is a miss again.
        let before = session.stats();
        eval(&runs[0]);
        assert_eq!(session.stats().since(before).index_misses, 1);
        // And a recently-cached run still hits.
        let before = session.stats();
        eval(&runs[4]);
        assert_eq!(session.stats().since(before).index_hits, 1);
    }

    #[test]
    fn seeded_artifacts_turn_first_touch_into_a_hit() {
        let session = Session::from_spec(spec());
        let run = corpus(&session, 1).remove(0);
        let index = Arc::new(rpq_relalg::TagIndex::build(&run, session.spec().n_tags()));
        let csr = Arc::new(rpq_relalg::CsrIndex::build(&index));
        session.seed_run_cache(&run, index, Some(csr));
        // Seeding counts neither hits nor misses.
        assert_eq!(session.stats().index_misses, 0);
        assert_eq!(session.stats().index_hits, 0);
        assert!(session.run_is_cached(&run));

        let query = session.prepare("go").unwrap();
        let all: Vec<rpq_labeling::NodeId> = run.node_ids().collect();
        // A closure-free leaf evaluates materialized, which consults
        // the index cache — the seeded entry must hit.
        let outcome = session.evaluate(&query, &run, &QueryRequest::all_pairs(all.clone(), all));
        assert_eq!(outcome.meta.strategy, crate::EvalStrategy::Materialized);
        assert_eq!(session.stats().index_hits, 1);
        assert_eq!(session.stats().index_misses, 0);
    }
}
