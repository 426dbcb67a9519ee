//! Composite plans and baseline G1 at dense sizes: unsafe queries from
//! the benchmark's `composite` population, all-pairs over the full
//! universe of ~1 000-edge BioAID- and QBLast-like runs, against the
//! product-automaton referee.
//!
//! At these sizes the closures dispatch to the bit and condensation
//! kernels, so relations travel between operators as bit rows and are
//! listed only by the final selection; the small fixtures of the other
//! suites mostly stay on the pair kernel and never exercise that path.

use rpq::prelude::*;
use rpq_baselines::{Referee, G1};
use rpq_core::{all_pairs_filtered, eval_node, EvalCtx, PlanNode};
use rpq_relalg::{NodePairSet, Pairs};
use rpq_workloads::{bioaid_like, qblast_like, runs};
use std::sync::Arc;

/// `(query, matches on the 1 000-edge seed-3 run)` — the counts are
/// what the referee answers, pinned so a change in the fixtures shows.
const BIOAID: [(&str, usize); 5] = [
    ("((cyc9_2|t2|t3)+ (_*|cyc11_0 t12)+)+", 138_541),
    ("(t11y _*|cyc14_2|t7) (_*|t18|t2+)", 1_511),
    ("t7y++ _* t6y+", 1),
    ("(t5x _*)+|(cyc14_2 t2y)*", 1_000),
    // A label-evaluated subquery that accepts ε: its reflexive pairs
    // move into the symbolic identity before the join.
    ("(t0|rec9|t0) (rec10|_*|_ t5x)", 109_410),
];

const QBLAST: [(&str, usize); 4] = [
    ("((t8x|cyc9_2|t12)+ (_*|cyc9_1 t12y)+)+", 1_030),
    ("(t12 rec7 _*|(_*|t1y) (cyc6_2|t2))*", 81_888),
    ("_|cyc9_0 _*|_* t14 _*", 109_284),
    ("cyc6_1 _*|t12 cyc9_1|t17|t10x", 67_775),
];

/// Does the plan hold a label-evaluated subquery that accepts ε?
fn has_epsilon_safe_eval(node: &PlanNode) -> bool {
    match node {
        PlanNode::SafeEval(plan, _) => plan.accepts_epsilon(),
        PlanNode::Concat(cs) | PlanNode::Alt(cs) => cs.iter().any(has_epsilon_safe_eval),
        PlanNode::Star(c) | PlanNode::Plus(c) | PlanNode::Optional(c) => has_epsilon_safe_eval(c),
        _ => false,
    }
}

/// The session and run of one dataset: `rpq simulate <spec> --edges
/// 1000 --seed 3`.
fn fixture(spec: Specification) -> (Session, Run) {
    let run = runs::simulate(&spec, 1_000, 3).expect("realistic specs derive");
    (Session::from_spec(spec), run)
}

/// Check every query of `queries` under the three subquery policies
/// and G1; returns how many dense-kernel (bits or scc) closures the
/// cost-based evaluations ran.
fn check(session: &Session, run: &Run, queries: &[(&str, usize)]) -> u64 {
    let index = TagIndex::build(run, session.spec().n_tags());
    let g1 = G1::new(&index);
    let all: Vec<NodeId> = run.node_ids().collect();
    let request = QueryRequest::all_pairs(all.clone(), all.clone());
    let mut dense_closures = 0;
    for &(text, matches) in queries {
        let query = session.prepare(text).expect("query plans");
        assert!(!query.is_safe(), "{text} must be unsafe");
        let referee = Referee::new(run, query.dfa()).all_pairs(&all, &all);
        assert_eq!(referee.len(), matches, "referee count for {text}");

        let outcome = session.evaluate(&query, run, &request);
        assert_eq!(
            outcome.as_pairs(),
            Some(&referee),
            "cost-based plan: {text}"
        );
        dense_closures += outcome.meta.closures.bits + outcome.meta.closures.scc;
        for policy in [
            SubqueryPolicy::AlwaysLabels,
            SubqueryPolicy::AlwaysRelational,
        ] {
            let forced = session.prepare_with(text, policy).expect("query plans");
            let outcome = session.evaluate(&forced, run, &request);
            assert_eq!(
                outcome.as_pairs(),
                Some(&referee),
                "{} plan: {text}",
                policy.cli_name()
            );
        }
        assert_eq!(
            g1.all_pairs(query.regex(), &all, &all),
            referee,
            "G1: {text}"
        );
    }
    dense_closures
}

#[test]
fn bioaid_composite_plans_and_g1_match_the_referee() {
    let (session, run) = fixture(bioaid_like().spec);
    assert_eq!(run.n_nodes(), 741);
    let (eps_query, _) = BIOAID[4];
    let labels = session
        .prepare_with(eps_query, SubqueryPolicy::AlwaysLabels)
        .expect("query plans");
    let QueryPlan::Composite(node, _) = labels.plan() else {
        panic!("{eps_query} must decompose");
    };
    assert!(has_epsilon_safe_eval(node), "{eps_query}");
    assert!(
        check(&session, &run, &BIOAID) > 0,
        "no bits/scc closure ran"
    );
}

/// A label-merged leaf hands the join bit rows once its answers
/// outnumber the words of the row matrix (`_*`: ~226k pairs against
/// 741 × 12 words) and a sorted list below that (`t0 _*`: 1 282 pairs).
/// Either way the contents are the merge's answers, with an
/// ε-accepting leaf's diagonal moved into the symbolic identity.
#[test]
fn safe_eval_leaves_come_out_in_the_format_their_size_picks() {
    let (session, run) = fixture(bioaid_like().spec);
    let index = TagIndex::build(&run, session.spec().n_tags());
    let all: Vec<NodeId> = run.node_ids().collect();
    let ctx = EvalCtx {
        spec: session.spec(),
        run: &run,
        index: &index,
        csr: None,
        universe: &all,
        policy: SubqueryPolicy::AlwaysLabels,
        condensations: None,
    };
    for (text, dense) in [("_*", true), ("t0 _*", false)] {
        let query = session.prepare(text).expect("query plans");
        let plan = session.plan_safe(query.regex()).expect("leaf is safe");
        let answers = all_pairs_filtered(&plan, session.spec(), &run, &all, &all);
        let epsilon = plan.accepts_epsilon();
        assert_eq!(epsilon, text == "_*");
        let leaf = PlanNode::SafeEval(Arc::new(plan), query.regex().clone());
        let rel = eval_node(&leaf, &ctx);
        assert_eq!(matches!(rel.pairs, Pairs::Bits(_)), dense, "{text}");
        assert_eq!(rel.identity, epsilon, "{text}");
        let expected: NodePairSet = answers.iter().filter(|(u, v)| !epsilon || u != v).collect();
        assert_eq!(rel.pairs, Pairs::Sorted(expected), "{text}");
        assert_eq!(
            rel.select_pairs_in(&all, &all, run.n_nodes()),
            answers,
            "{text}"
        );
    }
}

#[test]
fn qblast_composite_plans_and_g1_match_the_referee() {
    let (session, run) = fixture(qblast_like().spec);
    assert!(
        check(&session, &run, &QBLAST) > 0,
        "no bits/scc closure ran"
    );
}
