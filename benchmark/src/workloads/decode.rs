//! `decode` — the paper's home ground (fig13c–h): safe queries answered
//! from derivation labels alone.
//!
//! In-process `Session::evaluate` / `Session::pairwise` with safe
//! queries — IFQs of k ∈ {1,3,5} symbols drawn from the dataset's safe
//! tag pool by selectivity, and `a*` over the unfolded cycle of
//! fork-heavy runs — on four 16k-edge runs. Op mix by count: 40 %
//! all-pairs over 512×512 sampled nodes, 20 % all-pairs over 128×128,
//! 30 % blocks of 128×128 = 16 384 pairwise calls, 10 % source/target
//! stars. All time is label decoding and tree merge in `core` and
//! `labeling`; relalg kernels, the lazy search, the store and the
//! network do nothing here, and the two list sizes expose whether
//! all-pairs scales with candidates (n²) or with output.

use super::{micros, referee_pairs, text_of, EvalTotals, SpecKind, DERIVATION_SEED};
use crate::gen::{Digest, Manifest, Rng};
use crate::harness::{spread_sample, Check, Workload};
use crate::metrics::Layers;
use crate::sizes::Sizes;
use crate::trace::Tracer;
use rpq::baselines::{ifq_symbols, G3};
use rpq::prelude::*;
use rpq::workloads::{runs, RealisticSpec};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// How to derive one of the four runs.
#[derive(Clone)]
struct RunRecipe {
    spec: SpecKind,
    /// Unfold the first cycle (fig13g/h) instead of firing at random.
    fork: bool,
    /// Target size, within ±5 % of the frozen base, drawn by the seed.
    edges: usize,
}

impl RunRecipe {
    fn derive(&self, real: &RealisticSpec) -> Result<Run, rpq::labeling::DeriveError> {
        if self.fork {
            runs::simulate_fork(&real.spec, 0, self.edges, DERIVATION_SEED)
        } else {
            runs::simulate(&real.spec, self.edges, DERIVATION_SEED)
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    AllPairsBig,
    AllPairsSmall,
    PairBlock,
    SourceStar,
    TargetStar,
}

struct OpSpec {
    kind: Kind,
    run: usize,
    /// Index into the run's query list.
    query: usize,
    l1: Vec<u32>,
    l2: Vec<u32>,
}

pub struct Inputs {
    recipes: Vec<RunRecipe>,
    /// Per run: the safe query texts its ops draw from.
    queries: Vec<Vec<String>>,
    ops: Vec<OpSpec>,
}

/// IFQ symbols from the safe pool, rare tags (`high` selectivity) or
/// frequent ones, by the run's own tag counts.
fn pool_ifq(real: &RealisticSpec, index: &TagIndex, k: usize, high: bool, rng: &mut Rng) -> Regex {
    let mut pool: Vec<(usize, Tag)> = real
        .pool_tags
        .iter()
        .filter_map(|name| real.spec.tag_by_name(name))
        .map(|tag| (index.count(tag), tag))
        .filter(|(count, _)| *count > 0)
        .collect();
    pool.sort_unstable_by_key(|&(count, tag)| (count, tag.0));
    if !high {
        pool.reverse();
    }
    pool.truncate(pool.len().div_ceil(3).max(1));
    let symbols: Vec<Symbol> = (0..k)
        .map(|_| Symbol(pool[rng.below(pool.len())].1 .0))
        .collect();
    Regex::ifq(&symbols)
}

pub struct Decode {
    inputs: Arc<Inputs>,
    specs: Vec<RealisticSpec>,
    sessions: Vec<Session>,
    runs: Vec<Run>,
    /// Per op: session index, prepared query, prebuilt request.
    ops: Vec<(usize, PreparedQuery, QueryRequest)>,
    totals: EvalTotals,
}

impl Decode {
    fn spec_index(kind: SpecKind) -> usize {
        SpecKind::BOTH
            .iter()
            .position(|k| *k == kind)
            .expect("listed")
    }

    fn nodes(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }
}

impl Workload for Decode {
    type Inputs = Inputs;
    const SETUP_REPEATS: usize = 9;

    fn generate(seed: u64, sizes: &Sizes) -> (Inputs, Manifest) {
        let mut manifest = Manifest::default();
        let mut rng = Rng::new(seed, 1);
        let specs: Vec<RealisticSpec> = SpecKind::BOTH.iter().map(|k| k.build()).collect();
        let sessions: Vec<Session> = specs
            .iter()
            .map(|r| Session::from_spec(r.spec.clone()))
            .collect();
        let recipes: Vec<RunRecipe> = [false, true]
            .into_iter()
            .flat_map(|fork| SpecKind::BOTH.map(|spec| (spec, fork)))
            .map(|(spec, fork)| RunRecipe {
                spec,
                fork,
                edges: super::seeded_size(&mut rng, sizes.decode_edges),
            })
            .collect();

        let mut queries = Vec::new();
        let mut sizes_of_runs = Vec::new();
        for recipe in &recipes {
            let s = Decode::spec_index(recipe.spec);
            let (real, session) = (&specs[s], &sessions[s]);
            let run = recipe.derive(real).expect("realistic specs derive");
            let index = TagIndex::build(&run, real.spec.n_tags());
            let mut texts: Vec<String> = Vec::new();
            let mut candidates: Vec<Regex> = Vec::new();
            if recipe.fork {
                let star = real
                    .spec
                    .tag_by_name(&real.cycle_tags[0])
                    .expect("cycle tag exists");
                candidates.push(Regex::star(Regex::Sym(Symbol(star.0))));
            }
            for k in [1, 3, 5] {
                for high in [true, false] {
                    candidates.push(pool_ifq(real, &index, k, high, &mut rng));
                }
            }
            for regex in candidates {
                let text = text_of(&real.spec, &regex);
                match session.prepare(&text) {
                    Ok(q) if q.is_safe() && !texts.contains(&text) => texts.push(text),
                    Ok(q) if q.is_safe() => manifest.count("queries.rejected.duplicate", 1),
                    _ => manifest.count("queries.rejected.unsafe", 1),
                }
            }
            assert!(!texts.is_empty(), "no safe query for a decode run");
            manifest.count("queries.kept", texts.len() as u64);
            queries.push(texts);
            sizes_of_runs.push(run.n_nodes());
        }

        // Exact quotas (40/20/30/10 %), then a seeded order.
        let n = sizes.decode_ops;
        let mut kinds = Vec::with_capacity(n);
        kinds.extend(std::iter::repeat_n(Kind::AllPairsBig, n * 40 / 100));
        kinds.extend(std::iter::repeat_n(Kind::AllPairsSmall, n * 20 / 100));
        kinds.extend(std::iter::repeat_n(Kind::PairBlock, n * 30 / 100));
        while kinds.len() < n {
            kinds.push(if kinds.len() % 2 == 0 {
                Kind::SourceStar
            } else {
                Kind::TargetStar
            });
        }
        rng.shuffle(&mut kinds);
        let mut digest = Digest::default();
        let ops: Vec<OpSpec> = kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| {
                // Runs round-robin so every pass covers all four evenly.
                let run = i % recipes.len();
                let query = rng.below(queries[run].len());
                let n_nodes = sizes_of_runs[run];
                let list = match kind {
                    Kind::AllPairsBig => sizes.decode_big_list,
                    Kind::AllPairsSmall | Kind::PairBlock => sizes.decode_small_list,
                    Kind::SourceStar | Kind::TargetStar => 1,
                };
                let (l1, l2) = (rng.sample(n_nodes, list), rng.sample(n_nodes, list));
                digest.u64(kind as u64);
                digest.u64(recipes[run].edges as u64);
                digest.text(&queries[run][query]);
                digest.ids(&l1);
                digest.ids(&l2);
                manifest.count(
                    match kind {
                        Kind::AllPairsBig => "ops.all_pairs_big",
                        Kind::AllPairsSmall => "ops.all_pairs_small",
                        Kind::PairBlock => "ops.pair_block",
                        Kind::SourceStar | Kind::TargetStar => "ops.star",
                    },
                    1,
                );
                OpSpec {
                    kind,
                    run,
                    query,
                    l1,
                    l2,
                }
            })
            .collect();
        manifest.count("runs", recipes.len() as u64);
        manifest.inputs_digest = digest.hex();
        (
            Inputs {
                recipes,
                queries,
                ops,
            },
            manifest,
        )
    }

    fn setup(inputs: &Arc<Inputs>, _dir: &Path, layers: &mut Layers) -> Result<Decode, String> {
        let specs: Vec<RealisticSpec> = SpecKind::BOTH
            .iter()
            .map(|k| k.build_timed(layers))
            .collect();
        let sessions: Vec<Session> = specs
            .iter()
            .map(|r| Session::from_spec(r.spec.clone()))
            .collect();
        let mut runs = Vec::new();
        let mut label_bytes = 0.0;
        for recipe in &inputs.recipes {
            let real = &specs[Decode::spec_index(recipe.spec)];
            let run = super::derive_timed(layers, || recipe.derive(real))?;
            label_bytes += rpq::labeling::RunStats::measure(&run).label_bytes_avg;
            runs.push(run);
        }
        layers.push(
            "labeling.label_bytes_per_node",
            label_bytes / runs.len() as f64,
        );
        let mut ops = Vec::with_capacity(inputs.ops.len());
        for op in &inputs.ops {
            let s = Decode::spec_index(inputs.recipes[op.run].spec);
            let query = sessions[s]
                .prepare(&inputs.queries[op.run][op.query])
                .map_err(|e| format!("cannot prepare a decode query: {e}"))?;
            let request = match op.kind {
                Kind::AllPairsBig | Kind::AllPairsSmall | Kind::PairBlock => {
                    QueryRequest::all_pairs(Decode::nodes(&op.l1), Decode::nodes(&op.l2))
                }
                Kind::SourceStar => QueryRequest::source_star(NodeId(op.l1[0])),
                Kind::TargetStar => QueryRequest::target_star(NodeId(op.l1[0])),
            };
            ops.push((s, query, request));
        }
        Ok(Decode {
            inputs: Arc::clone(inputs),
            specs,
            sessions,
            runs,
            ops,
            totals: EvalTotals::default(),
        })
    }

    fn n_ops(&self) -> usize {
        self.ops.len()
    }

    fn op(&mut self, i: usize, tracer: &mut Tracer, layers: &mut Layers) -> Result<u64, String> {
        let spec = &self.inputs.ops[i];
        let (s, query, request) = &self.ops[i];
        let (session, run) = (&self.sessions[*s], &self.runs[spec.run]);
        if spec.kind == Kind::PairBlock {
            let QueryRequest::AllPairs(l1, l2) = request else {
                unreachable!("pair blocks carry two lists")
            };
            let span = tracer.enter("core.pairwise_block");
            let t = Instant::now();
            let mut hits = 0u64;
            for &u in l1 {
                for &v in l2 {
                    hits += u64::from(session.pairwise(query, run, u, v));
                }
            }
            let pairs = (l1.len() * l2.len()) as f64;
            if tracer.is_on() {
                layers.push("core.decode.pair_ns", micros(t) * 1e3 / pairs);
                tracer.count("pairs", pairs);
                tracer.count("answers", hits as f64);
            }
            tracer.exit(span);
            return Ok(hits);
        }
        let span = tracer.enter("core.evaluate");
        let t = Instant::now();
        let outcome = session.evaluate(query, run, request);
        let us = micros(t);
        let answers = outcome.len() as u64;
        if tracer.is_on() {
            self.totals.note_outcome(layers, &outcome, us);
            tracer.count("answers", answers as f64);
            tracer.count("nodes_touched", outcome.meta.nodes_touched as f64);
            let candidates = (spec.l1.len() * spec.l2.len()) as f64;
            let per = |total_us: f64, n: f64| total_us * 1e3 / n.max(1.0);
            match spec.kind {
                Kind::AllPairsBig => {
                    layers.push("core.decode.allpairs_us", us);
                    layers.push("core.decode.ns_per_candidate", per(us, candidates));
                    layers.push("core.decode.ns_per_answer", per(us, answers as f64));
                }
                Kind::AllPairsSmall => {
                    layers.push("core.decode.ns_per_candidate_small", per(us, candidates));
                    layers.push("core.decode.ns_per_answer_small", per(us, answers as f64));
                }
                _ => {}
            }
        }
        tracer.exit(span);
        Ok(answers)
    }

    /// G3 (index lookups chained with label reachability) on the same
    /// IFQ op: the paper's strongest baseline for this workload.
    fn replay(&mut self, i: usize, layers: &mut Layers) -> Result<(), String> {
        let spec = &self.inputs.ops[i];
        let (s, query, request) = &self.ops[i];
        let (real, run) = (&self.specs[*s], &self.runs[spec.run]);
        let (Some(symbols), QueryRequest::AllPairs(l1, l2)) = (ifq_symbols(query.regex()), request)
        else {
            return Ok(());
        };
        let t = Instant::now();
        let index = TagIndex::build(run, real.spec.n_tags());
        layers.push("relalg.tagindex_build_us", micros(t));
        let g3 = G3::new(&real.spec, run, &index);
        if spec.kind == Kind::PairBlock {
            let t = Instant::now();
            let mut hits = 0u64;
            for &u in l1 {
                for &v in l2 {
                    hits += u64::from(g3.pairwise(&symbols, u, v));
                }
            }
            std::hint::black_box(hits);
            layers.push(
                "baselines.g3_pair_ns",
                micros(t) * 1e3 / (l1.len() * l2.len()) as f64,
            );
            return Ok(());
        }
        let t = Instant::now();
        let theirs = g3.all_pairs(&symbols, l1, l2);
        let g3_us = micros(t);
        let t = Instant::now();
        let ours = self.sessions[*s].evaluate(query, run, request);
        let ours_us = micros(t);
        if ours.as_pairs() != Some(&theirs) {
            return Err(format!(
                "op {i}: G3 disagrees with label decoding on {}",
                query.source()
            ));
        }
        layers.push("baselines.g3_allpairs_us", g3_us);
        layers.push("paper.speedup_vs_g3", g3_us / ours_us.max(1e-9));
        Ok(())
    }

    fn finish_trace(&mut self, layers: &mut Layers) -> Result<(), String> {
        self.totals.finish(layers);
        super::note_session_caches(layers, &self.sessions);
        Ok(())
    }

    fn check(&mut self, answers: &[u64], sizes: &Sizes) -> Check {
        let mut check = Check::default();
        for i in spread_sample(self.ops.len(), sizes.check_ops) {
            let spec = &self.inputs.ops[i];
            let (s, query, request) = &self.ops[i];
            let (real, run) = (&self.specs[*s], &self.runs[spec.run]);
            let all: Vec<NodeId> = run.node_ids().collect();
            let (l1, l2): (Vec<NodeId>, Vec<NodeId>) = match request {
                QueryRequest::AllPairs(l1, l2) => (l1.clone(), l2.clone()),
                QueryRequest::SourceStar(u) => (vec![*u], all),
                QueryRequest::TargetStar(v) => (all, vec![*v]),
                _ => unreachable!("decode issues no other request"),
            };
            let Some(expected) = referee_pairs(&real.spec, run, query.regex(), &l1, &l2) else {
                continue;
            };
            // Pair blocks are checked by count; set-valued answers are
            // re-evaluated and compared pair for pair.
            let agrees = expected.len() as u64 == answers[i]
                && (spec.kind == Kind::PairBlock
                    || self.sessions[*s].evaluate(query, run, request).as_pairs()
                        == Some(&expected));
            check.compare(agrees, || {
                format!(
                    "op {i}: {} answered {} pairs, referee {}",
                    query.source(),
                    answers[i],
                    expected.len()
                )
            });
        }
        check
    }
}
