//! `Session::pairwise` counts evaluation strategies exactly as
//! `Session::evaluate` does for the same calls. The strategy counters
//! are process-wide, so this test has a binary to itself: no other test
//! evaluates while it reads them.

use rpq::prelude::*;
use rpq_core::{lazy_counts, EvalStrategy, LazyCounts, QueryRequest};
use rpq_labeling::RunBuilder;
use rpq_workloads::paper_examples;

/// Run `calls` through `answer` and return the counter deltas.
fn counted(calls: usize, mut answer: impl FnMut(usize) -> bool) -> (Vec<bool>, LazyCounts) {
    let before = lazy_counts();
    let answers = (0..calls).map(&mut answer).collect();
    let after = lazy_counts();
    let delta = LazyCounts {
        expansions: after.expansions - before.expansions,
        lazy_evals: after.lazy_evals - before.lazy_evals,
        materialized_evals: after.materialized_evals - before.materialized_evals,
    };
    (answers, delta)
}

#[test]
fn pairwise_counts_strategies_like_evaluate() {
    let spec = paper_examples::fig2_spec();
    let run = RunBuilder::new(&spec)
        .seed(11)
        .target_edges(150)
        .build()
        .unwrap();
    let cyclic = rpq_workloads::runs::with_back_edges(&run, 5);
    let via_pairwise = Session::from_spec(spec.clone());
    let via_evaluate = Session::from_spec(spec);
    // Safe on an acyclic run (materialized), safe on a cyclic run
    // (rerouted to the lazy search), and two decomposed plans (whatever
    // the session picks).
    let queries = ["_* e _*", "_* a _*", "(a _*)+ e"];
    let mut calls = Vec::new();
    for q in 0..queries.len() {
        for r in [&run, &cyclic] {
            let nodes: Vec<NodeId> = r.node_ids().step_by(11).collect();
            for &u in &nodes {
                for &v in &nodes {
                    calls.push((q, r, u, v));
                }
            }
        }
    }
    let prepare = |s: &Session| -> Vec<PreparedQuery> {
        queries
            .iter()
            .map(|text| s.prepare(text).unwrap())
            .collect()
    };
    let (qp, qe) = (prepare(&via_pairwise), prepare(&via_evaluate));

    let (got, by_pairwise) = counted(calls.len(), |i| {
        let (q, r, u, v) = calls[i];
        via_pairwise.pairwise(&qp[q], r, u, v)
    });
    let (want, by_evaluate) = counted(calls.len(), |i| {
        let (q, r, u, v) = calls[i];
        via_evaluate
            .evaluate(&qe[q], r, &QueryRequest::Pairwise(u, v))
            .as_bool()
            .unwrap()
    });
    assert_eq!(got, want);
    assert_eq!(by_pairwise, by_evaluate);
    assert!(by_pairwise.materialized_evals > 0 && by_pairwise.lazy_evals > 0);
    assert_eq!(
        by_pairwise.materialized_evals + by_pairwise.lazy_evals,
        calls.len() as u64
    );
    assert_eq!(via_pairwise.stats(), via_evaluate.stats());

    // The test hook counts under the engine that ran, on every request
    // mode: the forced one, or lazy wherever labels are unsound.
    let all: Vec<NodeId> = run.node_ids().collect();
    let requests = [
        QueryRequest::Pairwise(run.entry(), run.exit()),
        QueryRequest::EntryExit,
        QueryRequest::AllPairs(all.clone(), all),
        QueryRequest::SourceStar(run.entry()),
        QueryRequest::TargetStar(run.exit()),
        QueryRequest::Reachable(run.entry()),
    ];
    for (q, r, engine, lazy) in [
        (0, &run, EvalStrategy::Lazy, true),
        (0, &run, EvalStrategy::Materialized, false),
        (0, &cyclic, EvalStrategy::Materialized, true),
        (2, &run, EvalStrategy::Lazy, true),
        (2, &run, EvalStrategy::Materialized, false),
    ] {
        for request in &requests {
            let (_, delta) = counted(1, |_| {
                let outcome = via_evaluate.evaluate_forced(&qe[q], r, request, engine);
                assert_eq!(outcome.meta.strategy == EvalStrategy::Lazy, lazy);
                true
            });
            let want = (u64::from(lazy), u64::from(!lazy));
            assert_eq!(
                (delta.lazy_evals, delta.materialized_evals),
                want,
                "{} {engine:?} {request:?}",
                queries[q]
            );
        }
    }
}
