//! Golden plan skeletons: the planner may get faster, not different.
//!
//! For a frozen population of queries (IFQs of k = 0..10 symbols over
//! all tags, random queries of 4..12 leaves, stars) on BioAID-like,
//! QBLast-like and a 120-composite synthetic grammar, the file
//! `tests/golden/plan_skeletons.txt` records what `plan_query` decided:
//! safe or composite, the unsafety witness of the whole query, the
//! number of safe subqueries, and where every safe segment starts and
//! ends. It was written at the commit *before* the verdict-first
//! planner landed; regenerate it (`cargo test --test plan_skeletons --
//! --ignored`) only in a change that means to alter plans.

use rpq_automata::{compile_minimal_dfa, Regex};
use rpq_core::{check_safety, plan_query, PlanNode, QueryPlan, SafetyOutcome};
use rpq_grammar::{Specification, Tag};
use rpq_workloads::{bioaid_like, qblast_like, synthetic, QueryGen, SynthParams};
use std::fmt::Write;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/plan_skeletons.txt"
);

/// fig13a's largest size bucket (~1200), the benchmark's recipe.
fn synthetic_120() -> Specification {
    synthetic::generate(&SynthParams::fig13a(120, 0x601D)).spec
}

fn queries(spec: &Specification, seed: u64) -> Vec<Regex> {
    let mut gen = QueryGen::new(spec, seed);
    let mut out = Vec::new();
    for round in 0..5 {
        for k in 0..=10 {
            out.push(gen.ifq(k));
        }
        for leaves in 4..=12 {
            out.push(gen.random_query(leaves));
        }
        for leaves in 1..=4 {
            out.push(Regex::star(gen.random_query(leaves + round % 2)));
        }
    }
    out
}

fn text(spec: &Specification, re: &Regex) -> String {
    re.display_with(&|s| spec.tag_name(Tag(s.0)).to_owned())
        .to_string()
}

fn node_skeleton(spec: &Specification, node: &PlanNode, out: &mut String) {
    let children = |name: &str, cs: &[PlanNode], out: &mut String| {
        write!(out, "{name}(").unwrap();
        for (i, c) in cs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            node_skeleton(spec, c, out);
        }
        out.push(')');
    };
    match node {
        PlanNode::SafeEval(_, re) => write!(out, "safe[{}]", text(spec, re)).unwrap(),
        PlanNode::Sym(tag) => out.push_str(spec.tag_name(*tag)),
        PlanNode::Wildcard => out.push('_'),
        PlanNode::Epsilon => out.push_str("eps"),
        PlanNode::Empty => out.push_str("empty"),
        PlanNode::Concat(cs) => children("cat", cs, out),
        PlanNode::Alt(cs) => children("alt", cs, out),
        PlanNode::Star(c) => children("star", std::slice::from_ref(&**c), out),
        PlanNode::Plus(c) => children("plus", std::slice::from_ref(&**c), out),
        PlanNode::Optional(c) => children("opt", std::slice::from_ref(&**c), out),
    }
}

fn skeletons() -> String {
    let specs = [
        ("bioaid", bioaid_like().spec),
        ("qblast", qblast_like().spec),
        ("synthetic", synthetic_120()),
    ];
    let mut out = String::new();
    let mut n = 0;
    for (s, (name, spec)) in specs.iter().enumerate() {
        for re in queries(spec, 0x5CE1 + s as u64) {
            let plan = plan_query(spec, &re).expect("strictly linear specs always plan");
            write!(out, "{name}\t{}\t", text(spec, &re)).unwrap();
            match &plan {
                QueryPlan::Safe(_) => out.push_str("safe"),
                QueryPlan::Composite(node) => {
                    let dfa = compile_minimal_dfa(&re, spec.n_tags());
                    // Leaves are index-answered even when safe.
                    match check_safety(spec, &dfa) {
                        SafetyOutcome::Unsafe { witness } => {
                            write!(out, "unsafe witness=#{} ", witness.0).unwrap()
                        }
                        SafetyOutcome::Safe { .. } => out.push_str("leaf "),
                    }
                    write!(out, "n_safe={} ", plan.n_safe_subqueries()).unwrap();
                    node_skeleton(spec, node, &mut out);
                }
            }
            out.push('\n');
            n += 1;
        }
    }
    assert!(n >= 300, "only {n} queries");
    out
}

#[test]
fn plans_match_the_golden_skeletons() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file is committed");
    let ours = skeletons();
    for (i, (want, got)) in golden.lines().zip(ours.lines()).enumerate() {
        assert_eq!(got, want, "plan skeleton {i} differs");
    }
    assert_eq!(ours.lines().count(), golden.lines().count());
}

#[test]
#[ignore = "rewrites the golden file; see the module docs"]
fn regenerate_golden_skeletons() {
    std::fs::write(GOLDEN, skeletons()).expect("tests/golden is writable");
}
