//! Coverage for the session-oriented prepared-query API: cache
//! behavior, cross-run reuse, the unified error enum, and the
//! star/reachable selection modes cross-checked against the
//! brute-force product-construction referee.

use rpq::prelude::*;
use rpq_automata::compile_minimal_dfa;
use rpq_baselines::{Referee, G1};
use rpq_core::{IndexCacheUse, QueryRequest, RpqError};
use rpq_labeling::RunBuilder;
use rpq_workloads::paper_examples;

#[test]
fn plan_cache_counts_hits_and_misses() {
    let session = Session::from_spec(paper_examples::fig2_spec());
    assert_eq!(session.stats(), SessionStats::default());

    let first = session.prepare("_* e _*").unwrap();
    assert_eq!(session.stats().plan_misses, 1);
    assert_eq!(session.stats().plan_hits, 0);

    // Same query, different whitespace: the normalized regex is the key.
    let second = session.prepare("_*   e   _*").unwrap();
    assert_eq!(session.stats().plan_misses, 1);
    assert_eq!(session.stats().plan_hits, 1);
    assert_eq!(first.source(), second.source());

    // A genuinely different query misses.
    session.prepare("_* a _*").unwrap();
    assert_eq!(session.stats().plan_misses, 2);
    assert_eq!(session.stats().plan_hits, 1);
}

#[test]
fn prepared_query_reuses_across_runs_without_recompiling() {
    let session = Session::from_spec(paper_examples::fig2_spec());
    let query = session.prepare("_* e _*").unwrap();
    assert!(query.is_safe());

    for seed in [1u64, 2, 3] {
        let run = RunBuilder::new(session.spec())
            .seed(seed)
            .target_edges(120)
            .build()
            .unwrap();
        let outcome = session.evaluate(
            &query,
            &run,
            &QueryRequest::pairwise(run.entry(), run.exit()),
        );
        // Fig. 2 runs always cross an `e` edge on the entry→exit path
        // only when W3 fired on that path; just require a verdict and
        // cross-check it against the referee.
        let dfa = compile_minimal_dfa(query.regex(), session.spec().n_tags());
        let referee = Referee::new(&run, &dfa);
        assert_eq!(
            outcome.as_bool().unwrap(),
            referee.pairwise(run.entry(), run.exit()),
            "seed {seed}"
        );
    }
    // Three distinct runs, one compile.
    assert_eq!(session.stats().plan_misses, 1);
    assert_eq!(session.stats().plan_hits, 0);
}

#[test]
fn tag_index_is_built_once_per_run_across_queries() {
    let session = Session::from_spec(paper_examples::fig2_spec());
    let run = paper_examples::fig2_run(session.spec());
    let all: Vec<NodeId> = run.node_ids().collect();

    // This test pins the *materialized* pipeline's index-cache
    // plumbing, so it forces that engine through the test hook: the
    // lazy product search reads the CSR arena directly and touches the
    // tag-index cache only on a CSR miss, which is not the contract
    // under test.
    let eval = |q: &_, run: &_, request: &_| {
        session.evaluate_forced(q, run, request, EvalStrategy::Materialized)
    };

    // Two *different* composite queries on the same run: the first
    // evaluation builds the index, the second reuses it.
    let q1 = session.prepare("_* a _*").unwrap();
    let q2 = session.prepare("_* d _*").unwrap();
    assert!(!q1.is_safe() && !q2.is_safe());

    let o1 = eval(
        &q1,
        &run,
        &QueryRequest::all_pairs(all.clone(), all.clone()),
    );
    assert_eq!(o1.meta.index_cache, IndexCacheUse::Miss);
    let o2 = eval(
        &q2,
        &run,
        &QueryRequest::all_pairs(all.clone(), all.clone()),
    );
    assert_eq!(o2.meta.index_cache, IndexCacheUse::Hit);
    assert_eq!(session.stats().index_misses, 1);
    assert_eq!(session.stats().index_hits, 1);

    // A different run is a different cache entry...
    let other = RunBuilder::new(session.spec())
        .seed(8)
        .target_edges(90)
        .build()
        .unwrap();
    let o3 = eval(&q1, &other, &QueryRequest::all_pairs(all.clone(), all));
    assert_eq!(o3.meta.index_cache, IndexCacheUse::Miss);
    assert_eq!(session.stats().index_misses, 2);

    // ...while a re-deserialized copy of the first run shares its entry
    // (identity is structural, not by address).
    let copy: rpq_labeling::Run =
        serde_json::from_str(&serde_json::to_string(&run).unwrap()).unwrap();
    let (_, usage) = session.index_for(&copy);
    assert_eq!(usage, IndexCacheUse::Hit);
}

#[test]
fn clear_run_cache_forgets_indexes_but_keeps_plans() {
    let session = Session::from_spec(paper_examples::fig2_spec());
    let run = paper_examples::fig2_run(session.spec());
    let all: Vec<NodeId> = run.node_ids().collect();
    let q = session.prepare("_* a _*").unwrap();

    session.evaluate(&q, &run, &QueryRequest::all_pairs(all.clone(), all.clone()));
    assert_eq!(session.stats().index_misses, 1);

    // Eviction drops the per-run tag index *and* CSR arena...
    session.clear_run_cache();
    let outcome = session.evaluate(&q, &run, &QueryRequest::all_pairs(all.clone(), all));
    assert_eq!(outcome.meta.index_cache, IndexCacheUse::Miss);
    assert_eq!(session.stats().index_misses, 2);

    // ...but compiled plans survive: preparing the same query again is
    // still a cache hit.
    session.prepare("_* a _*").unwrap();
    assert_eq!(session.stats().plan_hits, 1);
    assert_eq!(session.stats().plan_misses, 1);
    // Manual eviction is not an LRU eviction: counters stay at zero.
    assert_eq!(session.stats().index_evictions, 0);
    assert_eq!(session.stats().csr_evictions, 0);
}

#[test]
fn lru_capacity_evicts_least_recently_used_runs() {
    // Capacity 2: the third distinct run evicts the least recently
    // used of the first two.
    let session = Session::from_spec(paper_examples::fig2_spec()).with_cache_capacity(2);
    let q = session.prepare("_* a _*").unwrap();
    let runs: Vec<_> = (0..3)
        .map(|i| {
            RunBuilder::new(session.spec())
                .seed(20 + i)
                .target_edges(60 + 25 * i as usize)
                .build()
                .unwrap()
        })
        .collect();
    let all: Vec<NodeId> = runs[0].node_ids().collect();
    // Forced materialized: LRU recency in the *index* cache is the
    // subject, and only the materialized pipeline touches it on every
    // composite evaluation (lazy refreshes the CSR cache instead).
    let probe = |run| {
        session
            .evaluate_forced(
                &q,
                run,
                &QueryRequest::all_pairs(all.clone(), all.clone()),
                EvalStrategy::Materialized,
            )
            .meta
            .index_cache
    };

    assert_eq!(probe(&runs[0]), IndexCacheUse::Miss);
    assert_eq!(probe(&runs[1]), IndexCacheUse::Miss);
    // Touch run 0 so run 1 becomes the LRU victim.
    assert_eq!(probe(&runs[0]), IndexCacheUse::Hit);
    assert_eq!(probe(&runs[2]), IndexCacheUse::Miss);
    assert!(session.stats().index_evictions >= 1);
    assert!(!session.run_is_cached(&runs[1]), "LRU victim evicted");
    assert!(session.run_is_cached(&runs[0]), "recently-used run kept");
    assert!(session.run_is_cached(&runs[2]));
    // The victim re-enters as a miss; the survivor still hits.
    assert_eq!(probe(&runs[1]), IndexCacheUse::Miss);
    assert_eq!(probe(&runs[2]), IndexCacheUse::Hit);
}

#[test]
fn safe_queries_never_touch_the_index() {
    let session = Session::from_spec(paper_examples::fig2_spec());
    let run = paper_examples::fig2_run(session.spec());
    let q = session.prepare("_* e _*").unwrap();
    assert!(q.is_safe());
    let all: Vec<NodeId> = run.node_ids().collect();
    // Forced materialized: the claim is about the *label-decoding*
    // safe plan, which answers without any per-run artifact. A forced
    // lazy evaluation would legitimately build the CSR arena (and the
    // tag index feeding it) even for a safe query.
    let outcome = session.evaluate_forced(
        &q,
        &run,
        &QueryRequest::all_pairs(all.clone(), all),
        EvalStrategy::Materialized,
    );
    assert_eq!(outcome.meta.index_cache, IndexCacheUse::NotNeeded);
    assert_eq!(session.stats().index_misses, 0);
    assert_eq!(session.stats().index_hits, 0);
}

#[test]
fn rpq_error_converts_from_every_layer() {
    let session = Session::from_spec(paper_examples::fig2_spec());

    // Parse layer.
    let err = session.prepare("(((").unwrap_err();
    assert!(matches!(err, RpqError::Parse(_)), "{err:?}");
    assert!(err.to_string().contains("parse"), "{err}");
    assert!(std::error::Error::source(&err).is_some());

    // Plan layer: strictly-safe compilation of an unsafe query.
    let unsafe_q = session.parse("_* a _*").unwrap();
    let err = session.plan_safe(&unsafe_q).unwrap_err();
    assert!(matches!(err, RpqError::Plan(_)), "{err:?}");
    assert!(err.to_string().contains("unsafe"), "{err}");

    // Grammar layer: an invalid specification converts with `?`.
    fn build_bad_spec() -> Result<Specification, RpqError> {
        let mut b = SpecificationBuilder::new();
        b.composite("S");
        // No production for the start module: validation refuses.
        b.start("S");
        Ok(b.build()?)
    }
    let err = build_bad_spec().unwrap_err();
    assert!(matches!(err, RpqError::Grammar(_)), "{err:?}");

    // Run layer: derivation refuses non-strictly-linear recursion.
    fn derive_bad_run() -> Result<rpq_labeling::Run, RpqError> {
        let mut b = SpecificationBuilder::new();
        b.atomic("t");
        b.composite("S");
        // Two recursive productions for one module: cycles share S.
        b.production("S", |w| {
            let x = w.node("t");
            let s = w.node("S");
            w.edge_named(x, s, "p");
        });
        b.production("S", |w| {
            let s = w.node("S");
            let y = w.node("t");
            w.edge_named(s, y, "q");
        });
        b.production("S", |w| {
            w.node("t");
        });
        b.start("S");
        let spec = b.build().map_err(RpqError::from)?;
        Ok(RunBuilder::new(&spec).seed(1).target_edges(30).build()?)
    }
    let err = derive_bad_run().unwrap_err();
    assert!(matches!(err, RpqError::Run(_)), "{err:?}");

    // I/O layer.
    let io = std::fs::read_to_string("/definitely/not/a/file.json").unwrap_err();
    let err = RpqError::from(io);
    assert!(matches!(err, RpqError::Io { .. }), "{err:?}");
}

#[test]
fn star_and_reachable_match_the_referee() {
    for (spec, queries) in [
        (
            paper_examples::fig2_spec(),
            vec!["_* e _*", "_* a _*", "a+"],
        ),
        (paper_examples::fork_spec(), vec!["fork*"]),
    ] {
        let session = Session::from_spec(spec);
        let run = RunBuilder::new(session.spec())
            .seed(4)
            .target_edges(150)
            .build()
            .unwrap();
        let all: Vec<NodeId> = run.node_ids().collect();

        for text in queries {
            let query = session.prepare(text).unwrap();
            let dfa = compile_minimal_dfa(query.regex(), session.spec().n_tags());
            let referee = Referee::new(&run, &dfa);

            // Probe several sources/targets including entry and exit.
            let probes: Vec<NodeId> = all.iter().step_by(all.len() / 8 + 1).copied().collect();
            for &node in probes.iter().chain([run.entry(), run.exit()].iter()) {
                let expected_from = referee.all_pairs(&[node], &all);
                let star = session.evaluate(&query, &run, &QueryRequest::source_star(node));
                assert_eq!(
                    star.as_pairs().unwrap(),
                    &expected_from,
                    "{text}: source star of {node:?}"
                );

                let reach = session.evaluate(&query, &run, &QueryRequest::reachable(node));
                let expected_nodes: Vec<NodeId> = expected_from.iter().map(|(_, v)| v).collect();
                assert_eq!(
                    reach.as_nodes().unwrap(),
                    expected_nodes.as_slice(),
                    "{text}: reachable from {node:?}"
                );

                let expected_to = referee.all_pairs(&all, &[node]);
                let tstar = session.evaluate(&query, &run, &QueryRequest::target_star(node));
                assert_eq!(
                    tstar.as_pairs().unwrap(),
                    &expected_to,
                    "{text}: target star of {node:?}"
                );
            }
        }
    }
}

/// The default plan — safe parts on labels or joins, whichever the
/// cost rule picks — answers like the relational baseline G1 and the
/// product-construction referee.
#[test]
fn default_plans_agree_with_g1_and_the_referee() {
    let session = Session::from_spec(paper_examples::fig2_spec());
    let run = paper_examples::fig2_run(session.spec());
    let all: Vec<NodeId> = run.node_ids().collect();
    let (index, _) = session.index_for(&run);

    for text in ["_* a _*", "_* e _* a _*", "a+", "_* e _*"] {
        let q = session.prepare(text).unwrap();
        let ours = session.all_pairs(&q, &run, &all, &all);
        assert_eq!(
            ours,
            G1::new(&index).all_pairs(q.regex(), &all, &all),
            "{text}: vs G1"
        );
        assert_eq!(
            ours,
            Referee::new(&run, q.dfa()).all_pairs(&all, &all),
            "{text}: vs the referee"
        );
    }
}

#[test]
fn semantic_safety_is_independent_of_the_plan_shape() {
    let session = Session::from_spec(paper_examples::fig2_spec());

    // R3 is safe (Definition 13) and planned safe; ⎵* a ⎵* is neither.
    let safe = session.prepare("_* e _*").unwrap();
    assert!(safe.is_safe());
    assert_eq!(safe.stats().kind, PlanKind::Safe);
    let unsafe_q = session.prepare("_* a _*").unwrap();
    assert!(!unsafe_q.is_safe());
    assert_eq!(unsafe_q.stats().kind, PlanKind::Composite);

    // A safe single-symbol leaf is index-answered (composite plan) yet
    // semantically safe: `b` appears on every entry→exit path of Fig. 2.
    let leaf = session.prepare("b").unwrap();
    assert_eq!(leaf.stats().kind, PlanKind::Composite);
    assert_eq!(leaf.is_safe(), session.is_safe(leaf.regex()));
}

/// `Session::evaluate` is the engine it picks and nothing else: on
/// every request mode, for safe and decomposed plans, its outcome —
/// result and metadata, stage timings aside — equals the test hook
/// forcing that engine, and the other engine gives the same result.
#[test]
fn evaluate_is_the_engine_it_picks() {
    let session = Session::from_spec(paper_examples::fig2_spec());
    let run = RunBuilder::new(session.spec())
        .seed(11)
        .target_edges(150)
        .build()
        .unwrap();
    let nodes: Vec<NodeId> = run.node_ids().collect();
    let mid = nodes[nodes.len() / 2];
    let probe = nodes[nodes.len() / 3];
    let requests = [
        QueryRequest::Pairwise(run.entry(), run.exit()),
        QueryRequest::Pairwise(run.entry(), mid),
        QueryRequest::Pairwise(mid, probe),
        QueryRequest::EntryExit,
        QueryRequest::AllPairs(nodes.clone(), nodes.clone()),
        QueryRequest::AllPairs(vec![run.entry(), mid], nodes.clone()),
        QueryRequest::SourceStar(run.entry()),
        QueryRequest::SourceStar(mid),
        QueryRequest::TargetStar(run.exit()),
        QueryRequest::TargetStar(probe),
        QueryRequest::Reachable(run.entry()),
        QueryRequest::Reachable(mid),
    ];
    let (lazy, materialized) = (EvalStrategy::Lazy, EvalStrategy::Materialized);
    for text in ["_* e _*", "_* a _*", "(a _*)+ e"] {
        let query = session.prepare(text).unwrap();
        for request in &requests {
            // Warm the per-run caches so every call sees the same state.
            session.evaluate_forced(&query, &run, request, lazy);
            session.evaluate_forced(&query, &run, request, materialized);
            let mut picked = session.evaluate(&query, &run, request);
            let other = match picked.meta.strategy {
                EvalStrategy::Lazy => materialized,
                EvalStrategy::Materialized => lazy,
            };
            let mut forced = session.evaluate_forced(&query, &run, request, picked.meta.strategy);
            picked.meta.stages.clear();
            forced.meta.stages.clear();
            assert_eq!(picked, forced, "{text} {request:?}");
            let other = session.evaluate_forced(&query, &run, request, other);
            assert_eq!(picked.result, other.result, "{text} {request:?}");
        }
    }
}

/// `Session::pairwise` is `evaluate(.., Pairwise(u, v))` as a bool and
/// `Session::all_pairs` is `evaluate(.., AllPairs(l1, l2))`'s pairs,
/// for safe and decomposed plans; on a cyclic streamed run a plan with
/// safe parts still steps aside for the product search (`all_pairs`
/// included, checked against the referee); and a session answering
/// through `pairwise` / `all_pairs` ends with the same counters as one
/// answering the same calls through `evaluate`.
#[test]
fn pairwise_is_evaluate_pairwise() {
    let spec = paper_examples::fig2_spec();
    let run = RunBuilder::new(&spec)
        .seed(11)
        .target_edges(150)
        .build()
        .unwrap();
    let cyclic = rpq_workloads::runs::with_back_edges(&run, 5);
    assert!(!cyclic.is_acyclic());
    let via_pairwise = Session::from_spec(spec.clone());
    let via_evaluate = Session::from_spec(spec.clone());
    let lazy = Session::from_spec(spec);
    for (text, kind) in [
        ("_* e _*", PlanKind::Safe),
        ("_* a _*", PlanKind::Composite),
        ("(a _*)+ e", PlanKind::Composite),
    ] {
        let qp = via_pairwise.prepare(text).unwrap();
        let qe = via_evaluate.prepare(text).unwrap();
        let ql = lazy.prepare(text).unwrap();
        assert_eq!(qp.stats().kind, kind, "{text}");
        for r in [&run, &cyclic] {
            let all: Vec<NodeId> = r.node_ids().collect();
            let got = via_pairwise.all_pairs(&qp, r, &all, &all);
            let want =
                via_evaluate.evaluate(&qe, r, &QueryRequest::AllPairs(all.clone(), all.clone()));
            assert_eq!(Some(&got), want.as_pairs(), "{text}: all_pairs vs evaluate");
            // The referee's diagonal rule assumes a DAG: on the cyclic
            // run, compare it off the diagonal only.
            let off_diagonal = |pairs: &NodePairSet| -> Vec<(NodeId, NodeId)> {
                pairs
                    .iter()
                    .filter(|(u, v)| r.is_acyclic() || u != v)
                    .collect()
            };
            let referee = Referee::new(r, qp.dfa()).all_pairs(&all, &all);
            assert_eq!(
                off_diagonal(&got),
                off_diagonal(&referee),
                "{text}: all_pairs vs referee"
            );
            let nodes: Vec<NodeId> = r.node_ids().step_by(9).collect();
            for &u in &nodes {
                for &v in &nodes {
                    let request = QueryRequest::Pairwise(u, v);
                    let got = via_pairwise.pairwise(&qp, r, u, v);
                    let want = via_evaluate.evaluate(&qe, r, &request).as_bool();
                    assert_eq!(Some(got), want, "{text} ({u:?}, {v:?})");
                    let product = lazy
                        .evaluate_forced(&ql, r, &request, EvalStrategy::Lazy)
                        .as_bool();
                    assert_eq!(
                        Some(got),
                        product,
                        "{text} ({u:?}, {v:?}) vs the product search"
                    );
                }
            }
        }
    }
    assert_eq!(via_pairwise.stats(), via_evaluate.stats());

    // The reroute is not vacuous: label decoding alone answers some
    // pair of the cyclic run wrongly.
    let all: Vec<NodeId> = cyclic.node_ids().collect();
    let product = lazy.evaluate_forced(
        &lazy.prepare("_* e _*").unwrap(),
        &cyclic,
        &QueryRequest::AllPairs(all.clone(), all.clone()),
        EvalStrategy::Lazy,
    );
    let safe = via_pairwise.prepare("_* e _*").unwrap();
    let labels = rpq_core::all_pairs_nested(safe.safe_plan().unwrap(), &cyclic, &all, &all);
    assert_ne!(product.as_pairs(), Some(&labels));
}
