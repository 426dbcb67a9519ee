//! Random workflow-specification generator.
//!
//! Used for the overhead experiments ("synthetic workflows of size
//! varying from 400 to 1200", Fig. 13a) and for property-based testing.
//! Generated specifications are always valid and strictly
//! linear-recursive by construction:
//!
//! * composites are ranked; except for cycle edges, production bodies
//!   reference only higher-indexed (lower-ranked) composites, so the
//!   non-cycle production graph is a DAG and every module is productive;
//! * recursion comes as **self-cycles** and **two-module cycles**
//!   (`A → B → A`, with `B` owning only the cycle production — the shape
//!   needed to reproduce QBLast's production statistics); cycles never
//!   share modules, so strict linearity holds by construction;
//! * each composite's first production embeds the next composite outside
//!   its own cycle, so every run visits every composite — run growth via
//!   recursion is always reachable;
//! * bodies are random single-source/single-sink DAGs; the probability
//!   of extra forward edges steers "deep" (chain) versus "branchy"
//!   (diamond) shapes.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rpq_grammar::{Specification, SpecificationBuilder};

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct SynthParams {
    /// Number of atomic modules.
    pub n_atomic: usize,
    /// Number of composite modules (≥ 1; the first is the start).
    pub n_composite: usize,
    /// Number of self-recursive composites.
    pub n_self_cycles: usize,
    /// Number of `A → B → A` cycles (each consumes two composites; `B`
    /// has no exit production).
    pub n_two_cycles: usize,
    /// Body size range (nodes per production body), inclusive.
    pub body_nodes: (usize, usize),
    /// Probability scale of extra forward edges beyond the spanning
    /// structure — higher = "branchy" (QBLast-like), lower = "deep"
    /// (BioAID-like).
    pub extra_edge_prob: f64,
    /// Probability that a non-chain body position references a composite
    /// instead of an atomic module (keep small: it multiplies minimal
    /// run sizes).
    pub composite_ref_prob: f64,
    /// Number of distinct base edge tags to draw from.
    pub n_tags: usize,
    /// Extra (non-recursive) alternative productions per composite,
    /// expressed per mille (0–1000).
    pub alt_production_per_mille: u32,
    /// RNG seed.
    pub seed: u64,
}

impl SynthParams {
    /// The recipe of the overhead experiments (Fig. 13a): bodies average
    /// ~6.5 nodes, so `n_composite` composites — a quarter of them
    /// self-recursive — give a grammar of size ≈ 10 · `n_composite`
    /// (120 composites for the largest bucket, ~1200).
    pub fn fig13a(n_composite: usize, seed: u64) -> SynthParams {
        SynthParams {
            n_atomic: n_composite * 2,
            n_composite,
            n_self_cycles: (n_composite / 4).max(1),
            n_two_cycles: 0,
            body_nodes: (4, 8),
            extra_edge_prob: 0.2,
            composite_ref_prob: 0.0,
            n_tags: 20,
            alt_production_per_mille: 0,
            seed,
        }
    }
}

impl Default for SynthParams {
    fn default() -> SynthParams {
        SynthParams {
            n_atomic: 12,
            n_composite: 6,
            n_self_cycles: 2,
            n_two_cycles: 0,
            body_nodes: (3, 7),
            extra_edge_prob: 0.25,
            composite_ref_prob: 0.05,
            n_tags: 10,
            alt_production_per_mille: 300,
            seed: 0,
        }
    }
}

/// A generated specification plus bookkeeping the benches use.
#[derive(Debug)]
pub struct SynthesizedSpec {
    /// The specification.
    pub spec: Specification,
    /// Tags on the cycle-chain edges, one per cycle, in cycle order —
    /// natural Kleene-star query targets.
    pub cycle_tags: Vec<String>,
    /// The base tag pool used outside recursion bodies. IFQs drawn from
    /// these tags are safe by construction (cycle bodies use local tags
    /// and every source→sink path crosses the recursive position).
    pub pool_tags: Vec<String>,
}

/// Which recursion role a composite plays.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Role {
    Plain,
    SelfCycle,
    /// First member of a two-cycle (has exit + cycle productions).
    PairA,
    /// Second member (only the cycle production).
    PairB,
}

/// Generate a specification from parameters.
pub fn generate(params: &SynthParams) -> SynthesizedSpec {
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let nc = params.n_composite;
    let recursion_block = params.n_self_cycles + 2 * params.n_two_cycles;
    assert!(nc >= 1, "need at least a start module");
    assert!(
        recursion_block < nc,
        "the start module must stay non-recursive"
    );
    assert!(params.body_nodes.0 >= 1 && params.body_nodes.0 <= params.body_nodes.1);

    // Layout: plain composites first, then self-cycles, then pairs.
    let first_self = nc - recursion_block;
    let first_pair = first_self + params.n_self_cycles;
    let role = |i: usize| -> Role {
        if i < first_self {
            Role::Plain
        } else if i < first_pair {
            Role::SelfCycle
        } else if (i - first_pair).is_multiple_of(2) {
            Role::PairA
        } else {
            Role::PairB
        }
    };
    // Cycle partner (for the recursive production's target).
    let partner = |i: usize| -> usize {
        match role(i) {
            Role::SelfCycle => i,
            Role::PairA => i + 1,
            Role::PairB => i - 1,
            Role::Plain => unreachable!("plain modules have no partner"),
        }
    };
    let same_cycle = |i: usize, j: usize| -> bool {
        match role(i) {
            Role::Plain => false,
            Role::SelfCycle => i == j,
            Role::PairA | Role::PairB => j == i || j == partner(i),
        }
    };

    let mut b = SpecificationBuilder::new();
    let atomics: Vec<String> = (0..params.n_atomic).map(|i| format!("at{i}")).collect();
    for a in &atomics {
        b.atomic(a);
    }
    let composites: Vec<String> = (0..nc).map(|i| format!("C{i}")).collect();
    for c in &composites {
        b.composite(c);
    }

    let tag_pool: Vec<String> = (0..params.n_tags).map(|i| format!("t{i}")).collect();
    let mut cycle_tags = Vec::new();

    for ci in 0..nc {
        let r = role(ci);
        // Composites this module's bodies may reference (besides its
        // cycle partner at the recursive position): strictly later, not
        // in the same cycle.
        let comp_pool: Vec<&str> = (ci + 1..nc)
            .filter(|&j| !same_cycle(ci, j))
            .map(|j| composites[j].as_str())
            .collect();
        // The chain link guaranteeing reachability of later composites.
        let must_include = comp_pool.first().copied();

        // Cycle-production bodies draw from a cycle-local tag pool: on
        // the paper's real datasets most queries are *safe*, and tags
        // confined to recursion bodies are exactly what keeps λ matrices
        // consistent across exit/continue executions for wildcard-
        // separated queries (see DESIGN.md).
        let local_pool: Vec<String> = (0..3).map(|k| format!("cyc{ci}_{k}")).collect();
        let gen_body = |rng: &mut SmallRng,
                        b: &mut SpecificationBuilder,
                        include: Option<&str>,
                        rec: Option<(&str, &str)>| {
            let min = params
                .body_nodes
                .0
                .max(1 + usize::from(include.is_some()) + usize::from(rec.is_some()) * 2);
            let len = rng.gen_range(min..=params.body_nodes.1.max(min));
            let pool = if rec.is_some() {
                &local_pool
            } else {
                &tag_pool
            };
            emit_production(
                b,
                &composites[ci],
                len,
                &atomics,
                &comp_pool,
                include,
                rec,
                pool,
                params.extra_edge_prob,
                params.composite_ref_prob,
                rng,
            );
        };

        match r {
            Role::Plain | Role::SelfCycle | Role::PairA => {
                // First (exit) production carries the reachability chain.
                gen_body(&mut rng, &mut b, must_include, None);
                if r != Role::Plain {
                    let chain_tag = format!("rec{ci}");
                    cycle_tags.push(chain_tag.clone());
                    let partner_name = composites[partner(ci)].clone();
                    gen_body(&mut rng, &mut b, None, Some((&partner_name, &chain_tag)));
                }
                if r == Role::Plain && rng.gen_range(0..1000) < params.alt_production_per_mille {
                    gen_body(&mut rng, &mut b, must_include, None);
                }
            }
            Role::PairB => {
                // Only the cycle production; the chain tag was assigned
                // by PairA (one tag per cycle), so reuse a local tag.
                let back_tag = format!("rec{ci}b");
                let partner_name = composites[partner(ci)].clone();
                gen_body(&mut rng, &mut b, None, Some((&partner_name, &back_tag)));
            }
        }
    }
    b.start(&composites[0]);
    let spec = b.build().expect("synthetic specification is valid");
    debug_assert!(spec.is_strictly_linear());
    // Only pool tags actually interned (used on some edge) qualify.
    let pool_tags = tag_pool
        .into_iter()
        .filter(|t| spec.tag_by_name(t).is_some())
        .collect();
    SynthesizedSpec {
        spec,
        cycle_tags,
        pool_tags,
    }
}

/// Emit one production with a random single-source/single-sink DAG body.
#[allow(clippy::too_many_arguments)]
fn emit_production(
    b: &mut SpecificationBuilder,
    head: &str,
    body_len: usize,
    atomics: &[String],
    comp_pool: &[&str],
    must_include: Option<&str>,
    recursive: Option<(&str, &str)>,
    tag_pool: &[String],
    extra_edge_prob: f64,
    composite_ref_prob: f64,
    rng: &mut SmallRng,
) {
    let n = body_len;
    // Module per position: atomics by default, composites occasionally.
    let mut names: Vec<String> = (0..n)
        .map(|_| {
            if !comp_pool.is_empty() && rng.gen_bool(composite_ref_prob) {
                comp_pool[rng.gen_range(0..comp_pool.len())].to_owned()
            } else {
                atomics[rng.gen_range(0..atomics.len())].clone()
            }
        })
        .collect();
    // Place the recursive partner in the middle and the chain link just
    // after the source (distinct positions; n is large enough).
    let rec_pos = recursive.map(|(partner, _)| {
        let p = n / 2;
        names[p] = partner.to_owned();
        p
    });
    if let Some(link) = must_include {
        let mut p = 1.min(n - 1);
        if Some(p) == rec_pos {
            p = (p + 1).min(n - 1);
        }
        names[p] = link.to_owned();
    }

    let tag = |rng: &mut SmallRng| tag_pool[rng.gen_range(0..tag_pool.len())].clone();

    b.production(head, |w| {
        let handles: Vec<usize> = names.iter().map(|m| w.node(m)).collect();
        let mut outdeg = vec![0usize; n];
        match (rec_pos, recursive) {
            (Some(p), Some((_, chain))) => {
                // Recursive bodies are chains through the recursive
                // position: every source→sink path crosses it, which is
                // what keeps the λ fixpoint of wildcard-separated
                // queries consistent (no bypass paths; see DESIGN.md).
                for i in 1..n {
                    w.edge_named(handles[i - 1], handles[i], &tag(rng));
                    outdeg[i - 1] += 1;
                }
                // The cycle-chain edge runs source → recursive position,
                // so consecutive unfoldings chain their chain-tag edges
                // (the `a*` workload of Fig. 13g/13h).
                w.edge_named(handles[0], handles[p], chain);
                outdeg[0] += 1;
                // Extra branching edges stay within one side of the
                // recursive position.
                for i in 0..n {
                    for k in (i + 1)..n {
                        let crosses = i < p && k > p;
                        let is_chain_dup = i == 0 && k == p;
                        if !crosses
                            && !is_chain_dup
                            && rng.gen_bool((extra_edge_prob / (1.0 + (k - i) as f64)).min(1.0))
                        {
                            let t = format!("{}x", tag(rng));
                            w.edge_named(handles[i], handles[k], &t);
                            outdeg[i] += 1;
                        }
                    }
                }
            }
            _ => {
                // Spanning in-edges: every node i ≥ 1 from some j < i.
                for i in 1..n {
                    let j = rng.gen_range(0..i);
                    w.edge_named(handles[j], handles[i], &tag(rng));
                    outdeg[j] += 1;
                }
                // Unique sink: every node but the last needs out-degree.
                // The `y` suffix keeps these tags disjoint from spanning
                // tags so parallel edges never carry equal tags.
                for i in 0..n.saturating_sub(1) {
                    if outdeg[i] == 0 {
                        let k = rng.gen_range(i + 1..n);
                        let t = format!("{}y", tag(rng));
                        w.edge_named(handles[i], handles[k], &t);
                        outdeg[i] += 1;
                    }
                }
                // Extra branching edges, tag-suffixed `x` likewise.
                for i in 0..n {
                    for k in (i + 1)..n {
                        if rng.gen_bool((extra_edge_prob / (1.0 + (k - i) as f64)).min(1.0)) {
                            let t = format!("{}x", tag(rng));
                            w.edge_named(handles[i], handles[k], &t);
                            outdeg[i] += 1;
                        }
                    }
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_labeling::MinSizes;

    #[test]
    fn generated_specs_are_valid_and_linear() {
        for seed in 0..40u64 {
            let params = SynthParams {
                seed,
                ..SynthParams::default()
            };
            let s = generate(&params);
            assert!(s.spec.is_strictly_linear(), "seed {seed}");
            assert_eq!(
                s.spec.recursion().cycles.len(),
                params.n_self_cycles,
                "seed {seed}"
            );
            assert_eq!(s.cycle_tags.len(), params.n_self_cycles);
        }
    }

    #[test]
    fn two_cycles_are_generated_correctly() {
        for seed in 0..20u64 {
            let params = SynthParams {
                n_composite: 8,
                n_self_cycles: 1,
                n_two_cycles: 2,
                alt_production_per_mille: 0,
                seed,
                ..SynthParams::default()
            };
            let s = generate(&params);
            assert!(s.spec.is_strictly_linear(), "seed {seed}");
            let rec = s.spec.recursion();
            assert_eq!(rec.cycles.len(), 3, "seed {seed}");
            let lens: Vec<usize> = rec.cycles.iter().map(|c| c.len()).collect();
            assert_eq!(lens.iter().filter(|&&l| l == 1).count(), 1);
            assert_eq!(lens.iter().filter(|&&l| l == 2).count(), 2);
            // Productions: 3 plain + 1 self (2) + 2 pairs (3 each) = 11.
            assert_eq!(s.spec.productions().len(), 11);
            assert_eq!(s.spec.n_recursive_productions(), 5);
        }
    }

    #[test]
    fn generated_specs_derive_runs() {
        for seed in 0..10u64 {
            let s = generate(&SynthParams {
                seed,
                ..SynthParams::default()
            });
            let run = rpq_labeling::RunBuilder::new(&s.spec)
                .seed(seed)
                .target_edges(300)
                .build()
                .unwrap();
            assert!(run.is_acyclic());
            assert!(run.n_edges() >= 300, "seed {seed}: {}", run.n_edges());
        }
    }

    #[test]
    fn minimal_runs_stay_small() {
        // The reachability chain must not blow up minimal completions.
        let s = generate(&SynthParams {
            n_composite: 16,
            n_atomic: 96,
            n_self_cycles: 7,
            body_nodes: (4, 8),
            composite_ref_prob: 0.05,
            seed: 3,
            ..SynthParams::default()
        });
        let ms = MinSizes::compute(&s.spec);
        assert!(
            ms.min_edges[s.spec.start().index()] < 2_000,
            "minimal run too large: {}",
            ms.min_edges[s.spec.start().index()]
        );
    }

    #[test]
    fn size_scales_with_parameters() {
        let small = generate(&SynthParams {
            n_composite: 4,
            n_atomic: 8,
            seed: 1,
            ..SynthParams::default()
        });
        let large = generate(&SynthParams {
            n_composite: 24,
            n_atomic: 60,
            n_self_cycles: 8,
            seed: 1,
            ..SynthParams::default()
        });
        assert!(large.spec.size() > 2 * small.spec.size());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&SynthParams::default());
        let b = generate(&SynthParams::default());
        assert_eq!(a.spec, b.spec);
    }
}
