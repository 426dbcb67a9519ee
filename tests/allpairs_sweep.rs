//! Differential tests for the all-pairs tree merge (Algorithm 2) where
//! it is hardest: deep recursion chains, cycles longer than one module
//! entered at a non-zero phase, and node lists confined to, or kept off,
//! one unfolding of a chain.
//!
//! `all_pairs_filtered` must equal the nested-loop decode
//! `all_pairs_nested` on every case and the product-graph referee on a
//! sample; the star modes of `Session::evaluate` must equal the lazy
//! product search.

use proptest::prelude::*;
use rpq_automata::{compile_minimal_dfa, Regex, Symbol};
use rpq_baselines::Referee;
use rpq_core::{
    all_pairs_filtered, all_pairs_nested, all_pairs_reachability, EvalStrategy, QueryRequest,
    SafeQueryPlan, Session,
};
use rpq_grammar::Specification;
use rpq_labeling::{LabelEntry, NodeId, Run};
use rpq_workloads::{paper_examples, realistic, runs, QueryGen};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// One run with its safe queries and its recursion chains.
struct Fixture {
    name: String,
    spec: Specification,
    session: Session,
    run: Run,
    /// Safe queries: IFQs with k ∈ {1, 3, 5}, `t*` over a cycle tag,
    /// `_*`, an ε-accepting optional IFQ, and a few random ones.
    queries: Vec<(Regex, SafeQueryPlan)>,
    /// Per recursion node with at least two unfoldings in the run: the
    /// nodes under each unfolding, by unfolding index.
    chains: Vec<BTreeMap<u32, Vec<NodeId>>>,
}

impl Fixture {
    fn new(
        name: &str,
        spec: Specification,
        run: Run,
        tags: &[&str],
        cycle_tag: &str,
        marker_query: Option<(&[&str], &[&str])>,
    ) -> Fixture {
        let session = Session::from_spec(spec.clone());
        let sym = |name: &str| Regex::Sym(Symbol(spec.tag_by_name(name).expect("tag exists").0));
        let mut candidates: Vec<Regex> = [1usize, 3, 5]
            .iter()
            .map(|&k| {
                let mut parts = vec![Regex::any_star()];
                for i in 0..k {
                    parts.push(sym(tags[(i * 3 + k) % tags.len()]));
                    parts.push(Regex::any_star());
                }
                Regex::concat(parts)
            })
            .collect();
        candidates.push(Regex::star(sym(cycle_tag)));
        candidates.push(Regex::any_star());
        candidates.push(Regex::optional(candidates[0].clone()));
        // `_* (m1|m2|…) (n1|n2|…)*`: the last marker seen is an `m`,
        // with only neutral `n` tags after it.
        if let Some((markers, neutral)) = marker_query {
            let alt = |names: &[&str]| Regex::alt(names.iter().map(|n| sym(n)).collect());
            candidates.push(Regex::concat(vec![
                Regex::any_star(),
                alt(markers),
                Regex::star(alt(neutral)),
            ]));
        }
        let mut queries: Vec<(Regex, SafeQueryPlan)> = candidates
            .into_iter()
            .map(|q| {
                let plan = session.plan_safe(&q);
                (
                    q,
                    plan.unwrap_or_else(|e| panic!("{name}: fixture query unsafe: {e}")),
                )
            })
            .collect();
        // Plus up to three random combinations that plan safely.
        let mut gen = QueryGen::new(&spec, 11);
        let random: Vec<(Regex, SafeQueryPlan)> = (0..40)
            .map(|_| gen.random_query(4))
            .filter_map(|q| session.plan_safe(&q).ok().map(|p| (q, p)))
            .filter(|(_, p)| p.n_states() > 1)
            .take(3)
            .collect();
        queries.extend(random);
        assert!(
            queries
                .iter()
                .any(|(q, _)| q.nullable() && *q != Regex::any_star()),
            "{name}: no ε-accepting query besides _*"
        );

        let mut by_node: BTreeMap<Vec<LabelEntry>, BTreeMap<u32, Vec<NodeId>>> = BTreeMap::new();
        for id in run.node_ids() {
            let entries = run.label(id).entries();
            for (d, e) in entries.iter().enumerate() {
                if let LabelEntry::Rec { idx, .. } = *e {
                    by_node
                        .entry(entries[..d].to_vec())
                        .or_default()
                        .entry(idx)
                        .or_default()
                        .push(id);
                }
            }
        }
        let chains: Vec<BTreeMap<u32, Vec<NodeId>>> = by_node
            .into_values()
            .filter(|unfoldings| unfoldings.len() >= 2)
            .collect();
        assert!(!chains.is_empty(), "{name}: no recursion chain");
        Fixture {
            name: name.to_owned(),
            spec,
            session,
            run,
            queries,
            chains,
        }
    }

    /// The chain with the most unfoldings.
    fn deepest_chain(&self) -> &BTreeMap<u32, Vec<NodeId>> {
        self.chains
            .iter()
            .max_by_key(|c| c.len())
            .expect("at least one chain")
    }
}

fn fixtures() -> &'static [Fixture] {
    static FIXTURES: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let mut out = Vec::new();
        for real in [realistic::bioaid_like(), realistic::qblast_like()] {
            let pool: Vec<&str> = real.pool_tags.iter().map(String::as_str).collect();
            let cycle = real.cycle_tags[0].as_str();
            let plain = runs::simulate(&real.spec, 3000, 17).expect("derives");
            let fork = runs::simulate_fork(&real.spec, 0, 3000, 17).expect("derives");
            out.push(Fixture::new(
                &format!("{} simulate", real.name),
                real.spec.clone(),
                plain,
                &pool,
                cycle,
                None,
            ));
            out.push(Fixture::new(
                &format!("{} fork", real.name),
                real.spec.clone(),
                fork,
                &pool,
                cycle,
                None,
            ));
        }
        let two = paper_examples::two_entry_cycle_spec();
        let run = runs::simulate_fork(&two, 0, 1500, 5).expect("derives");
        out.push(Fixture::new(
            "two-entry cycle",
            two,
            run,
            &["in", "mid", "in2", "out"],
            "ab",
            Some((&["ab", "ea"], &["in", "mid", "in2", "out", "na", "nb"])),
        ));
        let three = paper_examples::three_phase_cycle_spec();
        let run = runs::simulate_fork(&three, 0, 1500, 5).expect("derives");
        out.push(Fixture::new(
            "three-phase cycle",
            three,
            run,
            &["start"],
            "stepB",
            Some((&["stepA"], &["start"])),
        ));
        out
    })
}

/// Keep at most `max` nodes of `list`, spread over it.
fn thin(list: &[NodeId], max: usize) -> Vec<NodeId> {
    let step = list.len().div_ceil(max).max(1);
    list.iter().step_by(step).copied().collect()
}

/// One node list of a shape the old merge was never stressed on.
fn list(f: &Fixture, shape: u8, chain: usize, pick: u64, seed: u64) -> Vec<NodeId> {
    let chain = &f.chains[chain % f.chains.len()];
    let idxs: Vec<u32> = chain.keys().copied().collect();
    let k = idxs[pick as usize % idxs.len()];
    let gather = |keep: &dyn Fn(u32) -> bool| -> Vec<NodeId> {
        let nodes: Vec<NodeId> = chain
            .iter()
            .filter(|(&i, _)| keep(i))
            .flat_map(|(_, nodes)| nodes.iter().copied())
            .collect();
        thin(&nodes, 90)
    };
    match shape {
        // Random, with duplicates.
        0 => {
            let mut nodes = runs::sample_nodes(&f.run, 80, seed);
            nodes.extend_from_within(..20);
            nodes
        }
        1 => gather(&|i| i == k),
        2 => gather(&|i| i < k),
        3 => gather(&|i| i > k),
        // One node.
        _ => vec![NodeId((seed % f.run.n_nodes() as u64) as u32)],
    }
}

/// `filtered == nested`, and `== referee` when asked.
fn check(f: &Fixture, q: usize, l1: &[NodeId], l2: &[NodeId], with_referee: bool) {
    let (regex, plan) = &f.queries[q % f.queries.len()];
    let filtered = all_pairs_filtered(plan, &f.spec, &f.run, l1, l2);
    let nested = all_pairs_nested(plan, &f.run, l1, l2);
    assert_eq!(
        filtered, nested,
        "{}: filtered vs nested on {regex:?}",
        f.name
    );
    if with_referee {
        let dfa = compile_minimal_dfa(regex, f.spec.n_tags());
        let referee = Referee::new(&f.run, &dfa);
        assert_eq!(
            filtered,
            referee.all_pairs(l1, l2),
            "{}: filtered vs referee on {regex:?}",
            f.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 40,
        .. ProptestConfig::default()
    })]

    /// Random, duplicated, one-unfolding, before/after-one-unfolding and
    /// single-node lists, in every combination.
    #[test]
    fn filtered_matches_nested_and_referee(
        fixture in 0usize..6,
        query in 0usize..8,
        shapes in (0u8..5, 0u8..5),
        chains in (0usize..64, 0usize..64),
        picks in (0u64..1000, 0u64..1000),
        seed in 0u64..10_000,
    ) {
        let f = &fixtures()[fixture];
        let l1 = list(f, shapes.0, chains.0, picks.0, seed);
        let l2 = list(f, shapes.1, chains.1, picks.1, seed ^ 0x5bd1);
        check(f, query, &l1, &l2, seed % 3 == 0);
    }

    /// The universe against one node, both ways round.
    #[test]
    fn universe_times_one_node(
        fixture in 0usize..6,
        query in 0usize..8,
        node in 0u64..100_000,
    ) {
        let f = &fixtures()[fixture];
        let all: Vec<NodeId> = f.run.node_ids().collect();
        let one = [NodeId((node % all.len() as u64) as u32)];
        check(f, query, &all, &one, node % 4 == 0);
        check(f, query, &one, &all, node % 4 == 1);
    }

    /// Star modes through the session: the session's pick, the forced
    /// materialized (label) answer and the forced lazy product search
    /// agree.
    #[test]
    fn star_modes_match_the_lazy_strategy(
        fixture in 0usize..6,
        query in 0usize..8,
        node in 0u64..100_000,
    ) {
        let f = &fixtures()[fixture];
        let (regex, _) = &f.queries[query % f.queries.len()];
        let q = f.session.prepare_regex(regex).expect("prepares");
        let u = NodeId((node % f.run.n_nodes() as u64) as u32);
        for request in [
            QueryRequest::SourceStar(u),
            QueryRequest::TargetStar(u),
            QueryRequest::Reachable(u),
        ] {
            let ours = f.session.evaluate(&q, &f.run, &request);
            for engine in [EvalStrategy::Lazy, EvalStrategy::Materialized] {
                let forced = f.session.evaluate_forced(&q, &f.run, &request, engine);
                prop_assert_eq!(&ours.result, &forced.result, "{}: {:?} {:?} on {:?}", f.name, engine, request, regex);
            }
        }
    }
}

/// Fixed regression cases per gap shape on the deepest chain of every
/// fixture, both directions: adjacent unfoldings (nothing carried
/// across), every gap up to past twice the cycle length (single steps,
/// whose order and phases matter), a long gap (the power-table path),
/// both lists holding nodes of the same two unfoldings (equal indices
/// on both sides), and a dense run of consecutive unfoldings.
#[test]
fn gap_shapes_on_the_deepest_chains() {
    for f in fixtures() {
        let chain = f.deepest_chain();
        let idxs: Vec<u32> = chain.keys().copied().collect();
        assert!(idxs.len() >= 8, "{}: chain too shallow", f.name);
        let at = |i: u32| thin(&chain[&i], 40);
        let (first, far) = (idxs[1], idxs[idxs.len() - 2]);
        assert!(far - first > 7, "{}: no long gap", f.name);
        let both: Vec<NodeId> = at(first).into_iter().chain(at(far)).collect();
        // Consecutive unfoldings, densely: several classes in flight
        // whose masks meet after a step and must merge.
        let dense: Vec<NodeId> = idxs[..12.min(idxs.len())]
            .iter()
            .flat_map(|i| chain[i].iter().copied())
            .collect();
        let dense = thin(&dense, 150);
        for q in 0..f.queries.len() {
            check(f, q, &dense, &dense, true);
            for next in (first + 1..=first + 7).chain([far]) {
                if chain.contains_key(&next) {
                    check(f, q, &at(first), &at(next), true);
                    check(f, q, &at(next), &at(first), true);
                }
            }
            check(f, q, &both, &both, true);
        }
    }
}

/// The fixtures cover what the sweep's phase arithmetic can get wrong:
/// cycles of length > 1, chains entered at a non-zero phase, and deep
/// chains; and every fixture has a query with more than one state.
#[test]
fn fixtures_cover_multi_phase_chains() {
    let rec_entries = |f: &Fixture| -> Vec<(u16, u16)> {
        f.run
            .node_ids()
            .flat_map(|id| f.run.label(id).entries().to_vec())
            .filter_map(|e| match e {
                LabelEntry::Rec {
                    cycle, start_phase, ..
                } => Some((cycle, start_phase)),
                LabelEntry::Prod { .. } => None,
            })
            .collect()
    };
    for f in fixtures() {
        assert!(
            f.deepest_chain().len() >= 8,
            "{}: chain too shallow",
            f.name
        );
        assert!(
            f.queries.iter().any(|(_, p)| p.n_states() > 1),
            "{}: only one-state queries",
            f.name
        );
    }
    let fs = fixtures();
    let two = fs.iter().find(|f| f.name == "two-entry cycle").unwrap();
    assert!(rec_entries(two).iter().any(|&(_, t)| t != 0));
    assert_eq!(two.spec.recursion().cycles[0].len(), 2);
    let three = fs.iter().find(|f| f.name == "three-phase cycle").unwrap();
    assert_eq!(three.spec.recursion().cycles[0].len(), 3);
}

/// Plain reachability is the merge with every mask ≡ 1; it must agree
/// with the `_*` plan's nested decode on the same shapes.
#[test]
fn reachability_merge_matches_nested_reachability() {
    for f in fixtures() {
        let star = f.session.plan_safe(&Regex::any_star()).expect("_* is safe");
        let chain = f.deepest_chain();
        let idxs: Vec<u32> = chain.keys().copied().collect();
        let l1: Vec<NodeId> = thin(&chain[&idxs[1]], 30)
            .into_iter()
            .chain(runs::sample_nodes(&f.run, 40, 3))
            .collect();
        let l2: Vec<NodeId> = thin(&chain[&idxs[idxs.len() - 1]], 30)
            .into_iter()
            .chain(runs::sample_nodes(&f.run, 40, 4))
            .collect();
        for (a, b) in [(&l1, &l2), (&l2, &l1), (&l1, &l1)] {
            assert_eq!(
                all_pairs_reachability(&f.spec, &f.run, a, b),
                all_pairs_nested(&star, &f.run, a, b),
                "{}",
                f.name
            );
        }
    }
}
