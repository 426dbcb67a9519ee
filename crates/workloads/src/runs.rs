//! Run-simulation conveniences shared by benches, examples and tests,
//! plus deterministic **graph corpora** (deep chains, wide DAGs, cyclic
//! cores, multi-SCC tangles) for the closure-kernel differential tests
//! and the `relalg_kernel` bench.

use rpq_grammar::Specification;
use rpq_labeling::{DeriveError, EventBatch, ForkFocus, NodeId, Run, RunBuilder, RunEdge, RunNode};
use rpq_relalg::NodePairSet;

/// Simulate a run of roughly `target_edges` edges (the paper's random
/// production firing).
pub fn simulate(spec: &Specification, target_edges: usize, seed: u64) -> Result<Run, DeriveError> {
    RunBuilder::new(spec)
        .seed(seed)
        .target_edges(target_edges)
        .build()
}

/// Simulate a fork-heavy run: the designated cycle is unfolded until the
/// run reaches roughly `target_edges` edges, every other recursion fires
/// once (the Fig. 13g/13h workload).
pub fn simulate_fork(
    spec: &Specification,
    cycle: usize,
    target_edges: usize,
    seed: u64,
) -> Result<Run, DeriveError> {
    // Estimate unfoldings from the cycle production's body size.
    let rec = spec.recursion();
    let edges_per_unfold: usize = rec.cycles[cycle]
        .edges
        .iter()
        .map(|e| spec.production(e.production).body.edges().len())
        .sum::<usize>()
        .max(1);
    let unfoldings = (target_edges / edges_per_unfold).max(1) as u64;
    RunBuilder::new(spec)
        .policy(ForkFocus::new(cycle, unfoldings, seed))
        .target_edges(target_edges)
        .build()
}

/// Simulate a corpus of `n_runs` structurally distinct runs for store
/// ingestion and batch benchmarks.
///
/// Seeds vary per run *and* target sizes ramp in small strides (from
/// `target_edges` up to roughly `1.5 × target_edges`): small grammars
/// can derive structurally identical runs from different seeds at one
/// target size, and identical structure would (correctly) deduplicate
/// away inside a `RunStore` — the ramp guarantees distinct
/// fingerprints without changing the corpus's size class.
pub fn corpus(
    spec: &Specification,
    n_runs: usize,
    target_edges: usize,
    seed: u64,
) -> Result<Vec<Run>, DeriveError> {
    let stride = (target_edges / (2 * n_runs.max(1))).max(4);
    (0..n_runs)
        .map(|i| simulate(spec, target_edges + i * stride, seed + i as u64))
        .collect()
}

/// Slice a finished run into a streaming arrival: a base prefix run
/// plus `n_batches` [`EventBatch`]es that grow it back to the full run.
///
/// The cut points are node-id prefixes, so every intermediate state is
/// the induced subgraph on a prefix of the final id space: node ids in
/// the streamed run match the final run exactly, and each edge lands in
/// the earliest batch where both its endpoints exist. Replaying the
/// batches through `Run::apply_events` therefore reproduces the
/// original node list and edge *set* (edge order differs — edges are
/// grouped by arrival batch — so the structural fingerprint may too,
/// but every derived index is a pure function of the pair sets and
/// comes out identical). Errors only if some prefix has no source or
/// sink, which cannot happen for derivation-produced DAGs.
pub fn event_stream(run: &Run, n_batches: usize) -> Result<(Run, Vec<EventBatch>), String> {
    let n = run.n_nodes();
    let segments = n_batches + 1;
    // Prefix node count after each segment: roughly equal slices, the
    // base always keeping at least one node, monotone up to n.
    let cuts: Vec<usize> = (1..=segments)
        .map(|k| (n * k).div_ceil(segments).clamp(1, n.max(1)))
        .collect();
    let mut batch_edges: Vec<Vec<RunEdge>> = vec![Vec::new(); segments];
    for &e in run.edges() {
        let bound = e.src.index().max(e.dst.index());
        // The first segment whose prefix contains both endpoints.
        let k = cuts.partition_point(|&c| c <= bound);
        batch_edges[k].push(e);
    }
    let node_at = |i: usize| run.node(NodeId(i as u32)).clone();
    let base_nodes: Vec<RunNode> = (0..cuts[0]).map(node_at).collect();
    let mut edges = batch_edges.into_iter();
    let base = Run::assemble(base_nodes, edges.next().expect("segments >= 1"))?;
    let batches = cuts
        .windows(2)
        .zip(edges)
        .map(|(w, edges)| EventBatch {
            nodes: (w[0]..w[1]).map(node_at).collect(),
            edges,
        })
        .collect();
    Ok((base, batches))
}

/// Sample `n` node ids deterministically (stride sampling) — benchmark
/// input lists.
pub fn sample_nodes(run: &Run, n: usize, seed: u64) -> Vec<rpq_labeling::NodeId> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let mut all: Vec<rpq_labeling::NodeId> = run.node_ids().collect();
    all.shuffle(&mut rng);
    all.truncate(n);
    all
}

/// Append back-edges to a simulated run through the streaming-ingestion
/// path, turning interior stretches into cycles: every `every`-th edge
/// gains its reverse. Edges are chosen so the run keeps a unique source
/// and sink (entry keeps no incoming edge, exit no outgoing one), which
/// `Run::assemble` requires. Panics when no edge qualifies.
pub fn with_back_edges(run: &Run, every: usize) -> Run {
    let mut back = Vec::new();
    for (i, e) in run.edges().iter().enumerate() {
        if i % every == 0 && e.src != run.entry() && e.dst != run.exit() {
            back.push(RunEdge {
                src: e.dst,
                dst: e.src,
                tag: e.tag,
            });
        }
    }
    assert!(!back.is_empty(), "corpus too small to seed cycles");
    run.apply_events(&EventBatch {
        nodes: Vec::new(),
        edges: back,
    })
    .expect("back-edge batch re-assembles")
}

// ---------------------------------------------------------------------
// Graph corpora: raw node-pair relations with controlled SCC structure.
//
// These are *relations*, not grammar-derived runs: the closure kernels
// of `rpq-relalg` operate on arbitrary node-pair graphs (sub-query
// results cycle even over DAG runs), so their differential tests need
// shapes a workflow grammar cannot derive — giant cycles, multi-SCC
// tangles, self-loop forests. All generators are deterministic per
// seed and distinct across seeds (the analogue of `corpus`'s
// fingerprint-distinctness guarantee, unit-tested below).
// ---------------------------------------------------------------------

/// SplitMix64 — deterministic without pulling the rand shim into every
/// caller's seed plumbing.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniformly random relation with `n_pairs` pairs over `n_nodes`
/// (duplicates collapse in the pair set) — the dense-join workload of
/// the kernel benches.
pub fn random_relation(n_nodes: usize, n_pairs: usize, seed: u64) -> NodePairSet {
    let mut rng = seed;
    let pairs = (0..n_pairs)
        .map(|_| {
            let u = splitmix(&mut rng) as usize % n_nodes;
            let v = splitmix(&mut rng) as usize % n_nodes;
            (NodeId(u as u32), NodeId(v as u32))
        })
        .collect();
    NodePairSet::from_pairs(pairs)
}

/// A seeded permutation of `0..n` (Fisher–Yates), so structurally
/// identical shapes land on different node ids per seed.
fn permutation(n: usize, rng: &mut u64) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = (splitmix(rng) % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// A single path through all `n_nodes` nodes (in seeded order): the
/// worst case for the semi-naive closure — `n` rounds, `O(n²)` closure
/// pairs — and the best case for condensation (`n` singleton
/// components, one bit pass).
pub fn deep_chain_relation(n_nodes: usize, seed: u64) -> NodePairSet {
    let mut rng = seed ^ 0xDEE9;
    let perm = permutation(n_nodes, &mut rng);
    NodePairSet::from_pairs(
        perm.windows(2)
            .map(|w| (NodeId(w[0]), NodeId(w[1])))
            .collect(),
    )
}

/// A layered DAG: `width` nodes per layer, each wired to `fanout`
/// random nodes of the next layer — the shape of fork-heavy provenance
/// runs, whose closures are deep *and* dense.
pub fn wide_dag_relation(n_nodes: usize, width: usize, fanout: usize, seed: u64) -> NodePairSet {
    let width = width.max(1);
    let mut rng = seed ^ 0xDA6;
    let mut pairs = Vec::new();
    let layers = n_nodes.div_ceil(width);
    for layer in 0..layers.saturating_sub(1) {
        let base = layer * width;
        let next_base = (layer + 1) * width;
        let next_width = width.min(n_nodes.saturating_sub(next_base));
        if next_width == 0 {
            break;
        }
        for u in base..(base + width).min(n_nodes) {
            for _ in 0..fanout {
                let v = next_base + (splitmix(&mut rng) as usize % next_width);
                pairs.push((NodeId(u as u32), NodeId(v as u32)));
            }
        }
    }
    NodePairSet::from_pairs(pairs)
}

/// A DAG chain with one cyclic core of `core_size` nodes spliced into
/// the middle — the paper's workflow regime (DAG-shaped runs with a
/// small loop), where condensation collapses the core to one component
/// row instead of discovering its `core²` pairs round by round.
pub fn cyclic_core_relation(n_nodes: usize, core_size: usize, seed: u64) -> NodePairSet {
    let mut rng = seed ^ 0xC0DE;
    let perm = permutation(n_nodes, &mut rng);
    let core_size = core_size.min(n_nodes);
    let core_start = (n_nodes - core_size) / 2;
    let mut pairs: Vec<(NodeId, NodeId)> = perm
        .windows(2)
        .map(|w| (NodeId(w[0]), NodeId(w[1])))
        .collect();
    if core_size > 1 {
        // Close the core: its last chain node loops back to its first.
        pairs.push((
            NodeId(perm[core_start + core_size - 1]),
            NodeId(perm[core_start]),
        ));
    } else if core_size == 1 && n_nodes > 0 {
        pairs.push((NodeId(perm[core_start]), NodeId(perm[core_start])));
    }
    NodePairSet::from_pairs(pairs)
}

/// A tangle of `n_comps` disjoint cycles (sizes drawn per seed, some
/// singletons with self-loops) connected by `extra_edges` random
/// cross-component edges directed from later to earlier components —
/// guaranteeing at least `n_comps` SCCs survive. The multi-SCC
/// workload of the three-way closure proptests.
pub fn multi_scc_relation(
    n_nodes: usize,
    n_comps: usize,
    extra_edges: usize,
    seed: u64,
) -> NodePairSet {
    let n_comps = n_comps.clamp(1, n_nodes.max(1));
    let mut rng = seed ^ 0x5CC;
    let perm = permutation(n_nodes, &mut rng);
    // Random component boundaries: pick n_comps-1 distinct cut points.
    let mut cuts: Vec<usize> = (1..n_nodes).collect();
    for i in (1..cuts.len()).rev() {
        let j = (splitmix(&mut rng) % (i as u64 + 1)) as usize;
        cuts.swap(i, j);
    }
    let mut cuts: Vec<usize> = cuts.into_iter().take(n_comps - 1).collect();
    cuts.push(0);
    cuts.push(n_nodes);
    cuts.sort_unstable();
    cuts.dedup();

    let mut pairs = Vec::new();
    let comps: Vec<&[u32]> = cuts
        .windows(2)
        .map(|w| &perm[w[0]..w[1]])
        .filter(|m| !m.is_empty())
        .collect();
    for members in &comps {
        if members.len() == 1 {
            // Singleton: a coin decides between a self-loop (cyclic
            // component) and a bare node (acyclic singleton).
            if splitmix(&mut rng).is_multiple_of(2) {
                pairs.push((NodeId(members[0]), NodeId(members[0])));
            }
        } else {
            // A ring through the members.
            for w in members.windows(2) {
                pairs.push((NodeId(w[0]), NodeId(w[1])));
            }
            pairs.push((NodeId(members[members.len() - 1]), NodeId(members[0])));
        }
    }
    // Cross edges flow from higher component index to lower, so no new
    // cycle can form across components.
    if comps.len() > 1 {
        for _ in 0..extra_edges {
            let ci = 1 + (splitmix(&mut rng) as usize % (comps.len() - 1));
            let cj = splitmix(&mut rng) as usize % ci;
            let u = comps[ci][splitmix(&mut rng) as usize % comps[ci].len()];
            let v = comps[cj][splitmix(&mut rng) as usize % comps[cj].len()];
            pairs.push((NodeId(u), NodeId(v)));
        }
    }
    NodePairSet::from_pairs(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_examples::{fig2_spec, fork_spec};

    #[test]
    fn simulate_hits_target() {
        let spec = fig2_spec();
        let run = simulate(&spec, 500, 3).unwrap();
        assert!(run.n_edges() >= 500);
    }

    #[test]
    fn fork_simulation_unfolds_the_cycle() {
        let spec = fork_spec();
        let run = simulate_fork(&spec, 0, 400, 1).unwrap();
        let fork = spec.tag_by_name("fork").unwrap();
        let n_fork = run.edges().iter().filter(|e| e.tag == fork).count();
        assert!(n_fork >= 80, "only {n_fork} fork edges");
    }

    #[test]
    fn corpus_runs_are_structurally_distinct() {
        let spec = fig2_spec();
        let runs = corpus(&spec, 8, 100, 5).unwrap();
        assert_eq!(runs.len(), 8);
        let mut fingerprints: Vec<_> = runs.iter().map(|r| r.fingerprint()).collect();
        fingerprints.sort_unstable();
        fingerprints.dedup();
        assert_eq!(fingerprints.len(), 8, "corpus runs must not collide");
        assert_eq!(corpus(&spec, 0, 100, 5).unwrap().len(), 0);
    }

    type Generator = Box<dyn Fn(u64) -> NodePairSet>;

    #[test]
    fn graph_generators_are_deterministic_bounded_and_seed_distinct() {
        let gens: Vec<(&str, Generator)> = vec![
            ("chain", Box::new(|s| deep_chain_relation(97, s))),
            ("dag", Box::new(|s| wide_dag_relation(97, 8, 2, s))),
            ("core", Box::new(|s| cyclic_core_relation(97, 9, s))),
            ("tangle", Box::new(|s| multi_scc_relation(97, 7, 30, s))),
            ("random", Box::new(|s| random_relation(97, 200, s))),
        ];
        for (name, gen) in &gens {
            // Deterministic per seed, bounded to the universe.
            assert_eq!(gen(3), gen(3), "{name}");
            assert!(
                gen(3).iter().all(|(u, v)| u.index() < 97 && v.index() < 97),
                "{name}"
            );
            assert!(!gen(3).is_empty(), "{name}");
            // Distinct across seeds — the graph analogue of `corpus`'s
            // fingerprint distinctness.
            let mut seen: Vec<NodePairSet> = Vec::new();
            for seed in 0..8 {
                let g = gen(seed);
                assert!(!seen.contains(&g), "{name}: seed {seed} collides");
                seen.push(g);
            }
        }
    }

    #[test]
    fn graph_generators_have_the_advertised_structure() {
        // The chain is one path: n-1 edges, every out-degree ≤ 1.
        let chain = deep_chain_relation(64, 1);
        assert_eq!(chain.len(), 63);

        // The cyclic core closes exactly one extra edge over the chain.
        let core = cyclic_core_relation(64, 8, 1);
        assert_eq!(core.len(), 64);

        // The tangle honors its component floor: rings only reach
        // backwards, so at least `n_comps` SCCs survive. Verify via the
        // condensation itself.
        let tangle = multi_scc_relation(80, 6, 25, 2);
        let csr = rpq_relalg::CsrRelation::from_pairs(&tangle, 80);
        let cond = rpq_relalg::Condensation::of(&csr);
        assert!(cond.n_comps() >= 6, "{}", cond.n_comps());
        assert!(cond.n_comps() < 80);
        assert!(cond.is_reverse_topological(&csr));

        // Degenerate sizes stay total.
        assert!(deep_chain_relation(0, 1).is_empty());
        assert!(deep_chain_relation(1, 1).is_empty());
        assert_eq!(cyclic_core_relation(1, 1, 1).len(), 1); // one self-loop
        assert!(multi_scc_relation(0, 3, 5, 1).is_empty());
        assert!(!multi_scc_relation(1, 1, 0, 4).iter().any(|(u, v)| u != v));
    }

    #[test]
    fn event_stream_replays_back_to_the_original_run() {
        let spec = fig2_spec();
        let run = simulate(&spec, 300, 7).unwrap();
        for n_batches in [0, 1, 3, 10] {
            let (base, batches) = event_stream(&run, n_batches).unwrap();
            assert_eq!(batches.len(), n_batches);
            assert!(base.n_nodes() >= 1);
            let mut grown = base;
            for batch in &batches {
                let next = grown.apply_events(batch).unwrap();
                assert!(next.n_nodes() >= grown.n_nodes());
                assert!(next.n_edges() >= grown.n_edges());
                grown = next;
            }
            // Same nodes in the same order, same edge set: every
            // derived index is identical even though edge order (and
            // hence the fingerprint) may differ.
            assert_eq!(grown.n_nodes(), run.n_nodes());
            assert_eq!(grown.n_edges(), run.n_edges());
            for id in run.node_ids() {
                assert_eq!(grown.node(id), run.node(id));
            }
            let idx_grown = rpq_relalg::TagIndex::build(&grown, spec.n_tags());
            let idx_run = rpq_relalg::TagIndex::build(&run, spec.n_tags());
            assert_eq!(idx_grown, idx_run);
            assert!(grown.validate_against(&spec).is_ok());
        }
        // Deterministic: slicing twice yields the same stream.
        let (a_base, a_batches) = event_stream(&run, 4).unwrap();
        let (b_base, b_batches) = event_stream(&run, 4).unwrap();
        assert_eq!(a_base.n_edges(), b_base.n_edges());
        assert_eq!(a_batches, b_batches);
    }

    #[test]
    fn sampling_is_deterministic_and_bounded() {
        let spec = fig2_spec();
        let run = simulate(&spec, 300, 3).unwrap();
        let a = sample_nodes(&run, 50, 9);
        let b = sample_nodes(&run, 50, 9);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        let all = sample_nodes(&run, 10_000_000, 9);
        assert_eq!(all.len(), run.n_nodes());
    }
}
