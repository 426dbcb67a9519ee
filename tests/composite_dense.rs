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
use rpq_core::{
    all_pairs_filtered, all_pairs_relation, joins_beat_labels, relational_node, EvalStrategy,
    PlanNode,
};
use rpq_relalg::{NodePairSet, Pairs};
use rpq_workloads::{bioaid_like, qblast_like, runs};

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

/// How many of the plan's `SafeEval` subtrees the labels-vs-joins rule
/// leaves on the label merge for this run.
fn label_merged_leaves(node: &PlanNode, index: &TagIndex, n_nodes: usize) -> usize {
    match node {
        PlanNode::SafeEval(_, regex) => {
            usize::from(!joins_beat_labels(&relational_node(regex), index, n_nodes))
        }
        PlanNode::Concat(cs) | PlanNode::Alt(cs) => cs
            .iter()
            .map(|c| label_merged_leaves(c, index, n_nodes))
            .sum(),
        PlanNode::Star(c) | PlanNode::Plus(c) | PlanNode::Optional(c) => {
            label_merged_leaves(c, index, n_nodes)
        }
        _ => 0,
    }
}

/// The session and run of one dataset: `rpq simulate <spec> --edges
/// 1000 --seed 3`.
fn fixture(spec: Specification) -> (Session, Run) {
    let run = runs::simulate(&spec, 1_000, 3).expect("realistic specs derive");
    (Session::from_spec(spec), run)
}

/// Check every query of `queries` — the session's pick, both engines
/// forced through the test hook, and G1 — against the referee. Returns
/// how many dense-kernel (bits or scc) closures the session's
/// evaluations ran and how many `SafeEval` subtrees stayed on the
/// label merge.
fn check(session: &Session, run: &Run, queries: &[(&str, usize)]) -> (u64, usize) {
    let index = TagIndex::build(run, session.spec().n_tags());
    let g1 = G1::new(&index);
    let all: Vec<NodeId> = run.node_ids().collect();
    let request = QueryRequest::all_pairs(all.clone(), all.clone());
    let (mut dense_closures, mut label_leaves) = (0, 0);
    for &(text, matches) in queries {
        let query = session.prepare(text).expect("query plans");
        assert!(!query.is_safe(), "{text} must be unsafe");
        let referee = Referee::new(run, query.dfa()).all_pairs(&all, &all);
        assert_eq!(referee.len(), matches, "referee count for {text}");

        let outcome = session.evaluate(&query, run, &request);
        assert_eq!(outcome.as_pairs(), Some(&referee), "default plan: {text}");
        dense_closures += outcome.meta.closures.bits + outcome.meta.closures.scc;
        let QueryPlan::Composite(node) = query.plan() else {
            panic!("{text} must decompose");
        };
        label_leaves += label_merged_leaves(node, &index, run.n_nodes());
        for engine in [EvalStrategy::Lazy, EvalStrategy::Materialized] {
            let outcome = session.evaluate_forced(&query, run, &request, engine);
            assert_eq!(outcome.as_pairs(), Some(&referee), "{engine:?}: {text}");
        }
        assert_eq!(
            g1.all_pairs(query.regex(), &all, &all),
            referee,
            "G1: {text}"
        );
    }
    (dense_closures, label_leaves)
}

#[test]
fn bioaid_composite_plans_and_g1_match_the_referee() {
    let (session, run) = fixture(bioaid_like().spec);
    assert_eq!(run.n_nodes(), 741);
    let (eps_query, _) = BIOAID[4];
    let query = session.prepare(eps_query).expect("query plans");
    let QueryPlan::Composite(node) = query.plan() else {
        panic!("{eps_query} must decompose");
    };
    assert!(has_epsilon_safe_eval(node), "{eps_query}");
    let (dense_closures, label_leaves) = check(&session, &run, &BIOAID);
    assert!(dense_closures > 0, "no bits/scc closure ran");
    assert!(label_leaves > 0, "no SafeEval stayed on the label merge");
}

/// The label merge hands the join bit rows once its answers outnumber
/// the words of the row matrix (`_*`: ~226k pairs against 741 × 12
/// words) and a sorted list below that (`t0 _*`: 1 282 pairs). Either
/// way the contents are the merge's answers, and dropping an
/// ε-accepting leaf's diagonal (its move into the symbolic identity)
/// keeps the format.
#[test]
fn safe_eval_leaves_come_out_in_the_format_their_size_picks() {
    let (session, run) = fixture(bioaid_like().spec);
    let all: Vec<NodeId> = run.node_ids().collect();
    for (text, dense) in [("_*", true), ("t0 _*", false)] {
        let regex = session.parse(text).expect("query parses");
        let plan = session.plan_safe(&regex).expect("leaf is safe");
        let answers = all_pairs_filtered(&plan, session.spec(), &run, &all, &all);
        let epsilon = plan.accepts_epsilon();
        assert_eq!(epsilon, text == "_*");
        let pairs = all_pairs_relation(&plan, session.spec(), &run, &all, &all);
        assert_eq!(matches!(pairs, Pairs::Bits(_)), dense, "{text}");
        assert_eq!(pairs, Pairs::Sorted(answers.clone()), "{text}");
        let stripped = pairs.without_diagonal();
        assert_eq!(matches!(stripped, Pairs::Bits(_)), dense, "{text}");
        let expected: NodePairSet = answers.iter().filter(|(u, v)| u != v).collect();
        assert_eq!(stripped, Pairs::Sorted(expected), "{text}");
    }
}

#[test]
fn qblast_composite_plans_and_g1_match_the_referee() {
    let (session, run) = fixture(qblast_like().spec);
    let (dense_closures, label_leaves) = check(&session, &run, &QBLAST);
    assert!(dense_closures > 0, "no bits/scc closure ran");
    assert!(label_leaves > 0, "no SafeEval stayed on the label merge");
}
