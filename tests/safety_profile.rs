//! Safety-profile expectations on the realistic datasets: the paper
//! observes that "most of the queries are safe" on BioAID/QBLast; our
//! stand-ins must reproduce that, and the benchmark workloads rely on
//! specific query classes being safe.

use rpq_automata::{compile_minimal_dfa, Dfa, Regex};
use rpq_core::{
    check_safety, lambda_fixpoint, BodyMatrices, EdgeSteps, SafetyOutcome, Session, StateMatrix,
};
use rpq_grammar::{ModuleKind, ProductionId, Specification};
use rpq_workloads::{bioaid_like, qblast_like, synthetic, QueryGen, SynthParams};

#[test]
fn pool_tag_ifqs_are_safe_on_realistic_specs() {
    for real in [bioaid_like(), qblast_like()] {
        let session = Session::from_spec(real.spec.clone());
        let mut qg = QueryGen::new(&real.spec, 17);
        for k in 0..=6usize {
            for i in 0..6 {
                // Pool tags live outside recursion bodies, so IFQs over
                // them are safe by construction.
                let q = qg.ifq_over(&real.pool_tags, k);
                assert!(
                    session.is_safe(&q),
                    "{}: pool IFQ k={k} #{i} unsafe",
                    real.name
                );
            }
        }
        // Unrestricted IFQs mix in cycle-local tags; a fair share stays
        // safe, but not all — the planner's decomposition path matters.
        let mut n_safe = 0;
        let total = 40;
        for _ in 0..total {
            if session.is_safe(&qg.ifq(3)) {
                n_safe += 1;
            }
        }
        assert!(
            n_safe > 0 && n_safe < total,
            "{}: {n_safe}/{total} unrestricted IFQs safe",
            real.name
        );
    }
}

#[test]
fn cycle_chain_star_is_safe() {
    // The Kleene-star workload a* (a = first cycle's chain tag) must be
    // safe so that RPL/optRPL evaluate it from labels (Fig. 13g/13h).
    for real in [bioaid_like(), qblast_like()] {
        let session = Session::from_spec(real.spec.clone());
        let qg = QueryGen::new(&real.spec, 0);
        let q = qg.kleene_star(&real.cycle_tags[0]).expect("tag exists");
        assert!(
            session.is_safe(&q),
            "{}: {}* should be safe",
            real.name,
            real.cycle_tags[0]
        );
    }
}

#[test]
fn most_random_queries_are_safe() {
    // Section V-E: "We observed that most of the queries are safe."
    for real in [bioaid_like(), qblast_like()] {
        let session = Session::from_spec(real.spec.clone());
        let mut qg = QueryGen::new(&real.spec, 23);
        let mut n_safe = 0;
        let total = 60;
        for _ in 0..total {
            let q = qg.random_query(5);
            if session.is_safe(&q) {
                n_safe += 1;
            }
        }
        assert!(
            n_safe * 2 >= total,
            "{}: only {n_safe}/{total} random queries safe",
            real.name
        );
        // But unsafe queries must exist too (Fig. 15 needs them).
        assert!(
            n_safe < total,
            "{}: every random query safe — Fig. 15 would be empty",
            real.name
        );
    }
}

/// The one-phase safety check this repository started with, kept here
/// as the referee of the verdict phase: every production's *full*
/// port-graph closure is computed as soon as its body is λ-defined, and
/// the closure's head is the candidate.
fn one_phase_check(spec: &Specification, dfa: &Dfa) -> Result<Vec<StateMatrix>, ProductionId> {
    let q = dfa.n_states();
    let steps = EdgeSteps::new(dfa);
    let mut defined: Vec<bool> = spec
        .modules()
        .iter()
        .map(|m| m.kind == ModuleKind::Atomic)
        .collect();
    // Undefined entries are never read: a body is closed only once all
    // of its modules are defined.
    let mut lambda = vec![StateMatrix::identity(q); spec.n_modules()];
    let mut verified = vec![false; spec.productions().len()];
    loop {
        let mut progressed = false;
        for (pi, prod) in spec.productions().iter().enumerate() {
            if verified[pi] || !prod.body.nodes().iter().all(|m| defined[m.index()]) {
                continue;
            }
            let candidate = BodyMatrices::compute(&prod.body, &steps, &lambda)
                .head()
                .clone();
            verified[pi] = true;
            progressed = true;
            let head = prod.head.index();
            if !defined[head] {
                defined[head] = true;
                lambda[head] = candidate;
            } else if lambda[head] != candidate {
                return Err(ProductionId(pi as u32));
            }
        }
        if !progressed {
            return Ok(lambda);
        }
    }
}

/// The pools of the tests above, plus mixed queries on a 120-composite
/// synthetic grammar (fig13a's largest size bucket).
fn verdict_pools() -> Vec<(Specification, Vec<Regex>)> {
    let mut pools = Vec::new();
    for real in [bioaid_like(), qblast_like()] {
        let mut queries = Vec::new();
        let mut qg = QueryGen::new(&real.spec, 17);
        for k in 0..=6usize {
            queries.extend((0..6).map(|_| qg.ifq_over(&real.pool_tags, k)));
        }
        queries.extend((0..40).map(|_| qg.ifq(3)));
        queries.extend(qg.kleene_star(&real.cycle_tags[0]));
        let mut qg = QueryGen::new(&real.spec, 23);
        queries.extend((0..60).map(|_| qg.random_query(5)));
        pools.push((real.spec, queries));
    }
    let synthetic = synthetic::generate(&SynthParams::fig13a(120, 0xF13A));
    let mut qg = QueryGen::new(&synthetic.spec, 29);
    let mut queries = Vec::new();
    for k in 0..=10usize {
        queries.push(qg.ifq_over(&synthetic.pool_tags, k));
        queries.extend((0..3).map(|_| qg.ifq(k)));
        queries.push(qg.random_query(2 + k));
    }
    pools.push((synthetic.spec, queries));
    pools
}

#[test]
fn verdict_phase_equals_the_full_check() {
    let (mut n_safe, mut n_unsafe) = (0, 0);
    for (spec, queries) in verdict_pools() {
        for q in &queries {
            let dfa = compile_minimal_dfa(q, spec.n_tags());
            let verdict = lambda_fixpoint(&spec, &dfa);
            // Same verdict, same λ, same witness as the one-phase check.
            assert_eq!(verdict, one_phase_check(&spec, &dfa), "query {q:?}");
            // And `check_safety` is the verdict plus closures that agree
            // with it: every production's head is the λ of its module.
            match (check_safety(&spec, &dfa), verdict) {
                (SafetyOutcome::Safe { lambda, bodies }, Ok(expected)) => {
                    assert_eq!(lambda, expected);
                    for (bm, prod) in bodies.iter().zip(spec.productions()) {
                        assert_eq!(bm.head(), &lambda[prod.head.index()], "query {q:?}");
                    }
                    n_safe += 1;
                }
                (SafetyOutcome::Unsafe { witness }, Err(expected)) => {
                    assert_eq!(witness, expected);
                    n_unsafe += 1;
                }
                (full, verdict) => panic!("query {q:?}: {full:?} vs {verdict:?}"),
            }
        }
    }
    assert!(
        n_safe > 50 && n_unsafe > 50,
        "{n_safe} safe, {n_unsafe} unsafe"
    );
}
