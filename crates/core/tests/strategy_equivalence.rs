//! Differential property tests for the two evaluation engines: the lazy
//! product-graph engine must agree **byte-identically** with the
//! materialized relational pipeline (and with the session's own pick,
//! whichever side it takes) on every request mode, for safe and
//! composite plans, and across run shapes from plain acyclic
//! simulations to deep recursive unfoldings and streamed-in cyclic /
//! multi-SCC graphs. The engines are forced through the session's
//! hidden test hook, `Session::evaluate_forced`.
//!
//! The referee is test-local and deliberately primitive: one DFS per
//! source over the product space `(dfa_state, node)`, reading
//! successors straight off [`Run::out_edges`]. It shares nothing with
//! either subject — no relational kernels, no CSR arenas, no visited
//! bitsets — so a bug in shared plumbing cannot cancel out.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rpq_automata::Symbol;
use rpq_core::{EvalStrategy, PlanKind, PreparedQuery, QueryRequest, QueryResult, Session};
use rpq_labeling::{NodeId, Run};
use rpq_workloads::runs::with_back_edges;

/// Full matching-pair relation by brute-force product search: for each
/// source `u`, walk `(state, node)` pairs depth-first from
/// `(q0, u)` and record `(u, v)` whenever an accepting state is
/// reached at `v`. The length-0 path falls out of the same check —
/// `(q0, u)` itself is accepting exactly when ε is in the language.
fn referee_pairs(query: &PreparedQuery, run: &Run) -> BTreeSet<(NodeId, NodeId)> {
    let dfa = query.dfa();
    let mut pairs = BTreeSet::new();
    let mut seen = vec![false; dfa.n_states() * run.n_nodes()];
    for u in run.node_ids() {
        seen.iter_mut().for_each(|s| *s = false);
        let mut stack = vec![(dfa.start(), u)];
        seen[dfa.start() as usize * run.n_nodes() + u.index()] = true;
        while let Some((q, v)) = stack.pop() {
            if dfa.is_accepting(q) {
                pairs.insert((u, v));
            }
            for &(w, tag) in run.out_edges(v) {
                let q2 = dfa.next(q, Symbol(tag.0));
                let slot = q2 as usize * run.n_nodes() + w.index();
                if !seen[slot] {
                    seen[slot] = true;
                    stack.push((q2, w));
                }
            }
        }
    }
    pairs
}

/// Request-shaped canonical form so referee expectations and engine
/// results compare on content (the engines themselves are additionally
/// compared byte-for-byte against each other).
#[derive(Debug, PartialEq, Eq)]
enum Canon {
    Bool(bool),
    Pairs(BTreeSet<(NodeId, NodeId)>),
    Nodes(BTreeSet<NodeId>),
}

fn canon(result: &QueryResult) -> Canon {
    match result {
        QueryResult::Bool(b) => Canon::Bool(*b),
        QueryResult::Pairs(set) => Canon::Pairs(set.iter().collect()),
        QueryResult::Nodes(nodes) => Canon::Nodes(nodes.iter().copied().collect()),
    }
}

fn expected(request: &QueryRequest, pairs: &BTreeSet<(NodeId, NodeId)>, run: &Run) -> Canon {
    match request {
        QueryRequest::Pairwise(u, v) => Canon::Bool(pairs.contains(&(*u, *v))),
        QueryRequest::EntryExit => Canon::Bool(pairs.contains(&(run.entry(), run.exit()))),
        QueryRequest::AllPairs(l1, l2) => {
            let s1: BTreeSet<NodeId> = l1.iter().copied().collect();
            let s2: BTreeSet<NodeId> = l2.iter().copied().collect();
            Canon::Pairs(
                pairs
                    .iter()
                    .filter(|(u, v)| s1.contains(u) && s2.contains(v))
                    .copied()
                    .collect(),
            )
        }
        QueryRequest::SourceStar(u) => {
            Canon::Pairs(pairs.iter().filter(|(a, _)| a == u).copied().collect())
        }
        QueryRequest::TargetStar(v) => {
            Canon::Pairs(pairs.iter().filter(|(_, b)| b == v).copied().collect())
        }
        QueryRequest::Reachable(u) => Canon::Nodes(
            pairs
                .iter()
                .filter(|(a, _)| a == u)
                .map(|(_, b)| *b)
                .collect(),
        ),
    }
}

/// Every request mode, probed from the entry, the exit, and two
/// interior nodes — each answered by both engines and by the session's
/// own pick, and pinned to the referee relation.
fn assert_differential(session: &Session, query_text: &str, run: &Run) {
    let query = session.prepare(query_text).expect("query prepares");
    let pairs = referee_pairs(&query, run);
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
    for request in &requests {
        let lazy = session.evaluate_forced(&query, run, request, EvalStrategy::Lazy);
        let materialized =
            session.evaluate_forced(&query, run, request, EvalStrategy::Materialized);
        let picked = session.evaluate(&query, run, request);
        assert_eq!(
            lazy.result, materialized.result,
            "{query_text} {request:?}: lazy and materialized disagree"
        );
        assert_eq!(
            picked.result, materialized.result,
            "{query_text} {request:?}: the session's pick disagrees with materialized"
        );
        assert_eq!(
            canon(&lazy.result),
            expected(request, &pairs, run),
            "{query_text} {request:?}: engines disagree with the product-DFS referee"
        );
    }
}

const FIG2_QUERIES: &[&str] = &["_*", "_+", "_* a _*", "(a | e)+", "a* e a*"];
const FORK_QUERIES: &[&str] = &["_*", "fork*", "fork* join", "_* join"];
const CYCLE_QUERIES: &[&str] = &["_*", "_+", "_* ab _*", "(ab | ba)+"];
/// Fig. 2 queries the planner decomposes: their safe parts either
/// decode labels or, when the cost rule says joins are cheaper, lower
/// to relational closures — the materialized side runs both.
const FIG2_COMPOSITE_QUERIES: &[&str] = &["_* a _*", "a _*", "_* a _* a _*", "(a _*)+ e"];

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Random Fig. 2 simulations: the paper's running example, acyclic
    /// but branchy, under the cost-based planner.
    #[test]
    fn strategies_agree_on_fig2_simulations(seed in 0u64..64, edges in 30usize..140) {
        let session = Session::from_spec(rpq_workloads::paper_examples::fig2_spec());
        let run = rpq_workloads::runs::simulate(session.spec(), edges, seed).expect("derivable");
        for query in FIG2_QUERIES {
            assert_differential(&session, query, &run);
        }
    }

    /// The same corpus on queries the planner decomposes, so the
    /// materialized side exercises composite plans.
    #[test]
    fn strategies_agree_on_composite_plans(seed in 0u64..64, edges in 30usize..120) {
        let session = Session::from_spec(rpq_workloads::paper_examples::fig2_spec());
        let run = rpq_workloads::runs::simulate(session.spec(), edges, seed).expect("derivable");
        for query in FIG2_COMPOSITE_QUERIES {
            let kind = session.prepare(query).expect("query prepares").stats().kind;
            prop_assert_eq!(kind, PlanKind::Composite, "{}", query);
            assert_differential(&session, query, &run);
        }
    }

    /// Deep fork-join unfoldings: long recursive chains through the
    /// `M → dist (A | M) agg` cycle give the lazy frontier its worst
    /// diameter.
    #[test]
    fn strategies_agree_on_deep_fork_unfoldings(seed in 0u64..64, edges in 60usize..260) {
        let spec = rpq_workloads::paper_examples::fork_spec();
        let session = Session::from_spec(spec);
        let run = rpq_workloads::runs::simulate_fork(session.spec(), 0, edges, seed)
            .expect("fork spec derives");
        for query in FORK_QUERIES {
            assert_differential(&session, query, &run);
        }
    }
}

/// Cyclic and multi-SCC graphs: closures stop being path counting and
/// the lazy visited-set must terminate. One reversed edge per stretch
/// of five yields several disjoint nontrivial SCCs.
#[test]
fn strategies_agree_on_cyclic_and_multi_scc_runs() {
    let session = Session::from_spec(rpq_workloads::paper_examples::fig2_spec());
    for (seed, every) in [(3u64, 5usize), (17, 7), (29, 4)] {
        let base = rpq_workloads::runs::simulate(session.spec(), 110, seed).expect("derivable");
        let run = with_back_edges(&base, every);
        assert!(!run.is_acyclic(), "back-edges must create cycles");
        for query in FIG2_QUERIES.iter().chain(FIG2_COMPOSITE_QUERIES) {
            assert_differential(&session, query, &run);
        }
    }
}

/// Strictly linear two-phase recursion: the deepest chains the corpus
/// can produce, probing worklist depth rather than branching.
#[test]
fn strategies_agree_on_deep_two_phase_chains() {
    let session = Session::from_spec(rpq_workloads::paper_examples::two_phase_cycle_spec());
    for seed in [1u64, 9, 23] {
        let run = rpq_workloads::runs::simulate(session.spec(), 160, seed).expect("derivable");
        for query in CYCLE_QUERIES {
            assert_differential(&session, query, &run);
        }
    }
}
