//! One experiment per figure of the paper's Section V.
//!
//! Every function takes a [`Scale`] so the same code serves the full
//! paper-scale sweep (`repro` binary) and quick smoke/criterion runs.
//! Returned [`Table`]s print paper-style rows; EXPERIMENTS.md records
//! the paper-vs-measured comparison.

use crate::datasets::Dataset;
use crate::timing::{fmt_secs, time_avg_secs, time_stats_secs, Table};
use rpq_automata::{compile_minimal_dfa, Regex};
use rpq_baselines::{ifq_symbols, G1, G2, G3};
use rpq_core::{all_pairs_filtered, all_pairs_nested, plan_query};
use rpq_labeling::NodeId;
use rpq_workloads::{runs, synthetic, QueryGen, SynthParams};

/// Sweep scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale parameters (minutes of wall time).
    Full,
    /// Reduced parameters for smoke tests and Criterion.
    Quick,
}

impl Scale {
    fn reps(self) -> usize {
        match self {
            Scale::Full => 5, // the paper averages 5 runs per setting
            Scale::Quick => 2,
        }
    }
}

/// Pick `n` IFQs over the dataset's safe pool with the requested `k`.
fn safe_pool_ifqs(d: &Dataset, k: usize, n: usize, seed: u64) -> Vec<Regex> {
    let mut qg = QueryGen::new(d.spec(), seed);
    (0..n).map(|_| qg.ifq_over(&d.real.pool_tags, k)).collect()
}

// ---------------------------------------------------------------------
// Fig. 13a — safety-check overhead vs grammar size.
// ---------------------------------------------------------------------

/// Average/worst planning overhead of 20 IFQs (k = 3) over synthetic
/// grammars of increasing size (10 grammars per size bucket).
pub fn fig13a(scale: Scale) -> Table {
    let mut table = Table::new(
        "Fig 13a: time overhead vs grammar size (IFQ k=3)",
        &["grammar size", "avg", "worst"],
    );
    let (buckets, per_bucket, n_queries): (Vec<usize>, usize, usize) = match scale {
        Scale::Full => (vec![400, 600, 800, 1000, 1200], 10, 20),
        Scale::Quick => (vec![400, 800], 2, 5),
    };
    for target_size in buckets {
        // Scale composite/atomic counts to hit the size bucket; bodies
        // average ~6.5 nodes → size ≈ 7.5 · productions.
        let n_composite = (target_size / 10).max(4);
        let mut avg_total = 0.0;
        let mut worst: f64 = 0.0;
        let mut n_measured = 0;
        let mut actual_size = 0usize;
        for g in 0..per_bucket {
            let s = synthetic::generate(&SynthParams::fig13a(n_composite, 0xF13A + g as u64));
            actual_size += s.spec.size();
            let mut qg = QueryGen::new(&s.spec, g as u64);
            for _ in 0..n_queries {
                let q = qg.ifq_over(&s.pool_tags, 3);
                // Time the raw planner: a session's plan cache would
                // turn every repetition after the first into a hit.
                let t = time_avg_secs(
                    || {
                        std::hint::black_box(plan_query(&s.spec, &q).unwrap());
                    },
                    scale.reps(),
                );
                avg_total += t;
                worst = worst.max(t);
                n_measured += 1;
            }
        }
        table.row(vec![
            format!("{}", actual_size / per_bucket),
            fmt_secs(avg_total / n_measured as f64),
            fmt_secs(worst),
        ]);
    }
    table
}

// ---------------------------------------------------------------------
// Fig. 13b — overhead vs query size on BioAID / QBLast.
// ---------------------------------------------------------------------

/// Planning overhead of IFQs with k = 0..10 on both datasets.
pub fn fig13b(scale: Scale) -> Table {
    let mut table = Table::new(
        "Fig 13b: time overhead vs query size k",
        &[
            "k",
            "BioAID avg",
            "BioAID worst",
            "QBLast avg",
            "QBLast worst",
        ],
    );
    let ks: Vec<usize> = match scale {
        Scale::Full => (0..=10).collect(),
        Scale::Quick => vec![0, 4, 10],
    };
    let datasets = [Dataset::bioaid(), Dataset::qblast()];
    for k in ks {
        let mut cells = vec![format!("{k}")];
        for d in &datasets {
            let queries = safe_pool_ifqs(d, k, if scale == Scale::Full { 20 } else { 4 }, k as u64);
            let mut avg = 0.0;
            let mut worst: f64 = 0.0;
            for q in &queries {
                let t = time_avg_secs(
                    || {
                        std::hint::black_box(plan_query(d.spec(), q).unwrap());
                    },
                    scale.reps(),
                );
                avg += t;
                worst = worst.max(t);
            }
            cells.push(fmt_secs(avg / queries.len() as f64));
            cells.push(fmt_secs(worst));
        }
        table.row(cells);
    }
    table
}

// ---------------------------------------------------------------------
// Fig. 13c — pairwise query time vs run size (RPL vs G3 vs G2).
// ---------------------------------------------------------------------

/// Per-pair query time of a safe IFQ (k = 3) on BioAID runs of growing
/// size, over `n_pairs` random node pairs. RPL's time includes the plan
/// overhead amortized over the pairs, as in the paper.
pub fn fig13c(scale: Scale) -> Table {
    let mut table = Table::new(
        "Fig 13c: pairwise query time vs run size (BioAID, IFQ k=3, per pair)",
        &["run edges", "RPL", "G3", "G2"],
    );
    let d = Dataset::bioaid();
    let (sizes, n_pairs): (Vec<usize>, usize) = match scale {
        Scale::Full => (vec![1000, 2000, 4000, 8000], 10_000),
        Scale::Quick => (vec![500, 1000], 500),
    };
    let q = safe_pool_ifqs(&d, 3, 1, 99).pop().expect("one query");
    let syms = ifq_symbols(&q).expect("IFQ shape");
    for edges in sizes {
        let run = d.run(edges, 42);
        let index = d.index(&run);
        let session = d.session();
        let pairs: Vec<(NodeId, NodeId)> = {
            let l1 = runs::sample_nodes(&run, n_pairs, 1);
            let l2 = runs::sample_nodes(&run, n_pairs, 2);
            l1.into_iter()
                .cycle()
                .zip(l2.into_iter().cycle().skip(3))
                .take(n_pairs)
                .collect()
        };

        // RPL: plan once + decode per pair.
        let rpl = {
            let start = std::time::Instant::now();
            let plan = session.plan_safe(&q).expect("pool IFQs are safe");
            let mut hits = 0usize;
            for &(u, v) in &pairs {
                hits += usize::from(plan.pairwise(&run, u, v));
            }
            std::hint::black_box(hits);
            start.elapsed().as_secs_f64() / pairs.len() as f64
        };

        // G3: index + reachability labels.
        let g3 = {
            let g3 = G3::new(d.spec(), &run, &index);
            let start = std::time::Instant::now();
            let mut hits = 0usize;
            for &(u, v) in &pairs {
                hits += usize::from(g3.pairwise(&syms, u, v));
            }
            std::hint::black_box(hits);
            start.elapsed().as_secs_f64() / pairs.len() as f64
        };

        // G2: product BFS per pair (cap pair count — it is linear in run
        // size per pair and dominates wall time).
        let g2 = {
            let g2 = G2::new(&run, &index);
            let dfa = compile_minimal_dfa(&q, d.spec().n_tags());
            let capped = &pairs[..pairs
                .len()
                .min(if scale == Scale::Full { 500 } else { 100 })];
            let start = std::time::Instant::now();
            let mut hits = 0usize;
            for &(u, v) in capped {
                hits += usize::from(g2.pairwise(&dfa, u, v));
            }
            std::hint::black_box(hits);
            start.elapsed().as_secs_f64() / capped.len() as f64
        };

        table.row(vec![
            format!("{}", run.n_edges()),
            fmt_secs(rpl),
            fmt_secs(g3),
            fmt_secs(g2),
        ]);
    }
    table
}

// ---------------------------------------------------------------------
// Fig. 13d — pairwise query time vs query size.
// ---------------------------------------------------------------------

/// Per-pair query time vs IFQ size k on a 2K-edge BioAID run.
pub fn fig13d(scale: Scale) -> Table {
    let mut table = Table::new(
        "Fig 13d: pairwise query time vs query size (BioAID, run 2K, per pair)",
        &["k", "RPL", "G3", "G2"],
    );
    let d = Dataset::bioaid();
    let (ks, n_pairs): (Vec<usize>, usize) = match scale {
        Scale::Full => ((0..=10).collect(), 10_000),
        Scale::Quick => (vec![0, 3, 8], 300),
    };
    let edges = if scale == Scale::Full { 2000 } else { 800 };
    let run = d.run(edges, 42);
    let index = d.index(&run);
    let session = d.session();
    let pairs: Vec<(NodeId, NodeId)> = {
        let l1 = runs::sample_nodes(&run, n_pairs, 1);
        let l2 = runs::sample_nodes(&run, n_pairs, 2);
        l1.into_iter()
            .cycle()
            .zip(l2.into_iter().cycle().skip(3))
            .take(n_pairs)
            .collect()
    };
    for k in ks {
        let q = safe_pool_ifqs(&d, k, 1, 7 + k as u64).pop().expect("query");
        let syms = ifq_symbols(&q).expect("IFQ shape");

        let rpl = {
            let start = std::time::Instant::now();
            let plan = session.plan_safe(&q).expect("pool IFQs are safe");
            let mut hits = 0;
            for &(u, v) in &pairs {
                hits += usize::from(plan.pairwise(&run, u, v));
            }
            std::hint::black_box(hits);
            start.elapsed().as_secs_f64() / pairs.len() as f64
        };
        let g3 = {
            let g3 = G3::new(d.spec(), &run, &index);
            let start = std::time::Instant::now();
            let mut hits = 0;
            for &(u, v) in &pairs {
                hits += usize::from(g3.pairwise(&syms, u, v));
            }
            std::hint::black_box(hits);
            start.elapsed().as_secs_f64() / pairs.len() as f64
        };
        let g2 = {
            let g2 = G2::new(&run, &index);
            let dfa = compile_minimal_dfa(&q, d.spec().n_tags());
            let capped = &pairs[..pairs
                .len()
                .min(if scale == Scale::Full { 500 } else { 100 })];
            let start = std::time::Instant::now();
            let mut hits = 0;
            for &(u, v) in capped {
                hits += usize::from(g2.pairwise(&dfa, u, v));
            }
            std::hint::black_box(hits);
            start.elapsed().as_secs_f64() / capped.len() as f64
        };
        table.row(vec![
            format!("{k}"),
            fmt_secs(rpl),
            fmt_secs(g3),
            fmt_secs(g2),
        ]);
    }
    table
}

// ---------------------------------------------------------------------
// Fig. 13e/13f — all-pairs IFQs by selectivity.
// ---------------------------------------------------------------------

/// All-pairs time of 8 IFQs (k = 3): 4 highly selective + 4 lowly
/// selective, comparing Baseline (G3), RPL (S1) and optRPL (S2).
pub fn fig13ef(d: &Dataset, scale: Scale) -> Table {
    let mut table = Table::new(
        &format!(
            "Fig 13e/f: all-pairs IFQ k=3 by selectivity ({}, run 2K)",
            d.name()
        ),
        &[
            "query",
            "selectivity",
            "matches",
            "Baseline(G3)",
            "RPL(S1)",
            "optRPL(S2)",
        ],
    );
    let edges = if scale == Scale::Full { 2000 } else { 600 };
    let run = d.run(edges, 42);
    let index = d.index(&run);
    let session = d.session();
    let all: Vec<NodeId> = match scale {
        Scale::Full => run.node_ids().collect(),
        Scale::Quick => runs::sample_nodes(&run, 250, 5),
    };
    let per_class = if scale == Scale::Full { 4 } else { 2 };

    let mut qg = QueryGen::new(d.spec(), 31);
    let mut queries: Vec<(Regex, &str)> = Vec::new();
    let mut tries = 0;
    while queries.iter().filter(|(_, s)| *s == "high").count() < per_class && tries < 200 {
        let q = qg.ifq_by_selectivity(3, &index, true);
        if session.is_safe(&q) {
            queries.push((q, "high"));
        }
        tries += 1;
    }
    tries = 0;
    while queries.iter().filter(|(_, s)| *s == "low").count() < per_class && tries < 200 {
        let q = qg.ifq_by_selectivity(3, &index, false);
        if session.is_safe(&q) {
            queries.push((q, "low"));
        }
        tries += 1;
    }

    for (i, (q, sel)) in queries.iter().enumerate() {
        let syms = ifq_symbols(q).expect("IFQ shape");
        let g3 = G3::new(d.spec(), &run, &index);
        let plan = session.plan_safe(q).expect("selected safe queries");
        let matches = g3.all_pairs(&syms, &all, &all).len();

        let t_g3 = time_avg_secs(
            || {
                std::hint::black_box(g3.all_pairs(&syms, &all, &all));
            },
            scale.reps(),
        );
        let t_s1 = time_avg_secs(
            || {
                std::hint::black_box(all_pairs_nested(&plan, &run, &all, &all));
            },
            scale.reps(),
        );
        let t_s2 = time_avg_secs(
            || {
                std::hint::black_box(all_pairs_filtered(&plan, d.spec(), &run, &all, &all));
            },
            scale.reps(),
        );
        table.row(vec![
            format!("Q{}", i + 1),
            (*sel).to_owned(),
            format!("{matches}"),
            fmt_secs(t_g3),
            fmt_secs(t_s1),
            fmt_secs(t_s2),
        ]);
    }
    table
}

// ---------------------------------------------------------------------
// Fig. 13g/13h — Kleene star over fork recursion.
// ---------------------------------------------------------------------

/// All-pairs `a*` (a = the first cycle's chain tag) on fork-heavy runs
/// of growing size: Baseline (G1 fixpoint) vs RPL vs optRPL.
pub fn fig13gh(d: &Dataset, scale: Scale) -> Table {
    let mut table = Table::new(
        &format!("Fig 13g/h: all-pairs a* vs run size ({})", d.name()),
        &[
            "run edges",
            "matches",
            "Baseline(G1)",
            "RPL(S1)",
            "optRPL(S2)",
        ],
    );
    let sizes: Vec<usize> = match scale {
        Scale::Full => vec![1000, 2000, 4000, 8000, 16_000],
        Scale::Quick => vec![500, 1000],
    };
    let session = d.session();
    let qg = QueryGen::new(d.spec(), 0);
    let q = qg.kleene_star(d.star_tag()).expect("cycle tag exists");
    for edges in sizes {
        let run = d.fork_run(edges, 42);
        let index = d.index(&run);
        // Lists capped at 2500 sampled nodes: the S1 nested loop is
        // Θ(|l1|·|l2|) by design, and uncapped 16K-node lists would take
        // ~10 minutes per repetition without changing the shape.
        let all: Vec<NodeId> = match scale {
            Scale::Full => runs::sample_nodes(&run, 2500, 5),
            Scale::Quick => runs::sample_nodes(&run, 300, 5),
        };

        let g1 = G1::new(&index);
        let matches = g1.all_pairs(&q, &all, &all).len();
        let t_g1 = time_avg_secs(
            || {
                std::hint::black_box(g1.all_pairs(&q, &all, &all));
            },
            scale.reps(),
        );
        let plan = session.plan_safe(&q).expect("chain-tag star is safe");
        let t_s1 = time_avg_secs(
            || {
                std::hint::black_box(all_pairs_nested(&plan, &run, &all, &all));
            },
            scale.reps(),
        );
        let t_s2 = time_avg_secs(
            || {
                std::hint::black_box(all_pairs_filtered(&plan, d.spec(), &run, &all, &all));
            },
            scale.reps(),
        );
        table.row(vec![
            format!("{}", run.n_edges()),
            format!("{matches}"),
            fmt_secs(t_g1),
            fmt_secs(t_s1),
            fmt_secs(t_s2),
        ]);
    }
    table
}

// ---------------------------------------------------------------------
// Fig. 15a/15b — improvement of the decomposing planner on unsafe queries.
// ---------------------------------------------------------------------

/// Generate random queries, keep the unsafe ones, and report the
/// improvement of the decomposing planner (costRPL) over baseline G1,
/// sorted descending as in the paper's bar charts.
pub fn fig15(d: &Dataset, scale: Scale) -> Table {
    let mut table = Table::new(
        &format!(
            "Fig 15: improvement over G1 on unsafe queries ({}) — costRPL = decomposed plan, each safe part on labels or joins by cost",
            d.name()
        ),
        &["query", "safe parts", "matches", "G1", "costRPL", "impr"],
    );
    let edges = if scale == Scale::Full { 2000 } else { 600 };
    let n_queries = if scale == Scale::Full { 40 } else { 10 };
    let run = d.run(edges, 42);
    let session = d.session();
    // One index for this run: G1 borrows the session's cached copy, so
    // `Session::all_pairs` below does not build a second one.
    let (index, _) = session.index_for(&run);
    let all: Vec<NodeId> = match scale {
        Scale::Full => run.node_ids().collect(),
        Scale::Quick => runs::sample_nodes(&run, 250, 5),
    };

    let mut qg = QueryGen::new(d.spec(), 1234);
    let mut unsafe_queries = Vec::new();
    let mut tries = 0;
    while unsafe_queries.len() < n_queries && tries < n_queries * 60 {
        let q = qg.random_query(6);
        tries += 1;
        let dfa = compile_minimal_dfa(&q, d.spec().n_tags());
        if dfa.n_states() > 64 {
            continue;
        }
        if !session.is_safe(&q) {
            unsafe_queries.push(q);
        }
    }

    let mut rows: Vec<(f64, Vec<String>)> = Vec::new();
    for (i, q) in unsafe_queries.iter().enumerate() {
        let plan_cost = session.prepare_regex(q).expect("plan compiles");
        let g1 = G1::new(&index);
        let reference = g1.all_pairs(q, &all, &all);
        let ours_cost = session.all_pairs(&plan_cost, &run, &all, &all);
        assert_eq!(reference, ours_cost, "correctness cross-check");

        let (t_g1, _) = time_stats_secs(
            || {
                std::hint::black_box(g1.all_pairs(q, &all, &all));
            },
            scale.reps(),
        );
        let (t_cost, _) = time_stats_secs(
            || {
                std::hint::black_box(session.all_pairs(&plan_cost, &run, &all, &all));
            },
            scale.reps(),
        );
        let impr_cost = 100.0 * (t_g1 - t_cost) / t_g1;
        rows.push((
            impr_cost,
            vec![
                format!("U{}", i + 1),
                format!("{}", plan_cost.stats().n_safe_subqueries),
                format!("{}", reference.len()),
                fmt_secs(t_g1),
                fmt_secs(t_cost),
                format!("{impr_cost:.1}%"),
            ],
        ));
    }
    rows.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite"));
    for (_, cells) in rows {
        table.row(cells);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    // Smoke tests: every experiment runs at Quick scale and produces
    // plausible tables. These keep the harness from rotting.

    #[test]
    fn fig13a_smoke() {
        let t = fig13a(Scale::Quick);
        assert!(t.render().contains("Fig 13a"));
    }

    #[test]
    fn fig13b_smoke() {
        let t = fig13b(Scale::Quick);
        assert!(t.render().lines().count() >= 5);
    }

    #[test]
    fn fig13c_smoke() {
        let t = fig13c(Scale::Quick);
        assert!(t.render().contains("RPL"));
    }

    #[test]
    fn fig13d_smoke() {
        let t = fig13d(Scale::Quick);
        assert!(t.render().contains("G3"));
    }

    #[test]
    fn fig13ef_smoke() {
        let t = fig13ef(&Dataset::qblast(), Scale::Quick);
        let rendered = t.render();
        assert!(
            rendered.contains("high") && rendered.contains("low"),
            "{rendered}"
        );
    }

    #[test]
    fn fig13gh_smoke() {
        let t = fig13gh(&Dataset::qblast(), Scale::Quick);
        assert!(t.render().contains("Baseline(G1)"));
    }

    #[test]
    fn fig15_smoke() {
        let t = fig15(&Dataset::qblast(), Scale::Quick);
        assert!(t.render().contains("improvement"));
    }
}
