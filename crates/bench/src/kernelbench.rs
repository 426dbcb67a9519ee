//! A/B/C measurement of the `rpq-relalg` kernels: sorted-pair/hash vs
//! CSR + blocked-bitset vs Tarjan condensation, on transitive closure
//! (all three) and composition (the two join kernels).
//!
//! This is the source of `BENCH_relalg.json`, the recorded perf
//! baseline the roadmap asks for: the `repro` binary (figure name
//! `relalg`) prints the table and writes the JSON next to the working
//! directory; `cargo bench -p rpq-bench --bench relalg_kernel` runs the
//! same workloads under Criterion.
//!
//! Closure workloads cover the shapes that separate the kernels:
//! **deep chains** (maximal semi-naive round counts — condensation's
//! best case), **wide layered DAGs** (fork-heavy provenance runs,
//! deep *and* dense closures) and **cyclic cores** (the paper's
//! workflow regime: a DAG run with one loop). The generators live in
//! `rpq_workloads::runs` and are shared with the three-way closure
//! proptests.

use crate::timing::{fmt_secs, time_avg_secs, Table};
use rpq_relalg::{
    closure_csr_shared, compose_pairs_bits, compose_pairs_kernel, transitive_closure_bits,
    transitive_closure_pairs, transitive_closure_scc, transitive_closure_scc_csr,
    CondensationCache, CsrRelation, NodePairSet,
};
use rpq_workloads::runs::{cyclic_core_relation, deep_chain_relation, wide_dag_relation};

/// A layered DAG over `n_nodes` nodes (`width` nodes per layer, each
/// wired to `fanout` random nodes of the next layer) — kept as a thin
/// alias over the shared workloads generator for the Criterion bench.
pub fn layered_relation(n_nodes: usize, width: usize, fanout: usize, seed: u64) -> NodePairSet {
    wide_dag_relation(n_nodes, width, fanout, seed)
}

/// A uniformly random relation with `n_pairs` pairs over `n_nodes` —
/// alias over the shared workloads generator, like [`layered_relation`].
pub fn random_relation(n_nodes: usize, n_pairs: usize, seed: u64) -> NodePairSet {
    rpq_workloads::runs::random_relation(n_nodes, n_pairs, seed)
}

/// One kernel A/B/C timing.
#[derive(Debug, Clone)]
pub struct KernelMeasurement {
    /// `transitive_closure` or `compose`.
    pub op: &'static str,
    /// Workload shape (`deep_chain` / `layered` / `cyclic_core` /
    /// `random`).
    pub workload: &'static str,
    /// Universe size.
    pub n_nodes: usize,
    /// Input pair count (left operand for compose).
    pub n_pairs: usize,
    /// Output pair count (all kernels agree; cross-checked).
    pub out_pairs: usize,
    /// Pair-kernel seconds per call.
    pub pairs_secs: f64,
    /// Bit-kernel seconds per call.
    pub bits_secs: f64,
    /// Condensation-kernel seconds per call (closure ops only).
    pub scc_secs: Option<f64>,
}

impl KernelMeasurement {
    /// How many times faster the bit kernel ran than the pair kernel.
    pub fn speedup(&self) -> f64 {
        self.pairs_secs / self.bits_secs.max(1e-12)
    }

    /// How many times faster the condensation pass ran than the
    /// semi-naive bit closure (the scc acceptance metric).
    pub fn scc_speedup_vs_bits(&self) -> Option<f64> {
        self.scc_secs.map(|scc| self.bits_secs / scc.max(1e-12))
    }
}

/// Time one closure workload through all three kernels.
fn measure_closure(
    workload: &'static str,
    base: NodePairSet,
    n: usize,
    reps: usize,
) -> KernelMeasurement {
    let referee = transitive_closure_pairs(&base);
    assert_eq!(
        referee,
        transitive_closure_bits(&base, n),
        "kernels disagree on closure ({workload})"
    );
    assert_eq!(
        referee,
        transitive_closure_scc(&base, n),
        "condensation disagrees on closure ({workload})"
    );
    let pairs_secs = time_avg_secs(
        || {
            std::hint::black_box(transitive_closure_pairs(&base));
        },
        reps,
    );
    let bits_secs = time_avg_secs(
        || {
            std::hint::black_box(transitive_closure_bits(&base, n));
        },
        reps,
    );
    let scc_secs = time_avg_secs(
        || {
            std::hint::black_box(transitive_closure_scc(&base, n));
        },
        reps,
    );
    KernelMeasurement {
        op: "transitive_closure",
        workload,
        n_nodes: n,
        n_pairs: base.len(),
        out_pairs: referee.len(),
        pairs_secs,
        bits_secs,
        scc_secs: Some(scc_secs),
    }
}

/// Run the kernel sweep. `full` widens the size range and the rep
/// count (the `repro` default); quick mode still covers the ≥ 1024-node
/// sizes the acceptance bar measures.
pub fn measure(full: bool) -> Vec<KernelMeasurement> {
    let sizes: &[usize] = if full {
        &[128, 512, 1024, 2048, 4096]
    } else {
        &[128, 512, 1024]
    };
    let reps = if full { 5 } else { 3 };
    let mut out = Vec::new();

    for &n in sizes {
        // Closure over a fork-shaped layered DAG (width n/16, fanout 2).
        out.push(measure_closure(
            "layered",
            layered_relation(n, (n / 16).max(2), 2, 0xC105 + n as u64),
            n,
            reps,
        ));
        // Closure over one deep chain: n-1 edges, n rounds, O(n²)
        // closure pairs — the semi-naive worst case.
        out.push(measure_closure(
            "deep_chain",
            deep_chain_relation(n, 0xDC + n as u64),
            n,
            reps,
        ));
        // Closure over a chain with an n/8-node cyclic core mid-way.
        out.push(measure_closure(
            "cyclic_core",
            cyclic_core_relation(n, (n / 8).max(2), 0xCC + n as u64),
            n,
            reps,
        ));

        // Composition of two random relations of 4n pairs each (the
        // join kernels; condensation does not apply).
        let a = random_relation(n, 4 * n, 0xA11CE + n as u64);
        let b = random_relation(n, 4 * n, 0xB0B + n as u64);
        let referee = compose_pairs_kernel(&a, &b);
        assert_eq!(
            referee,
            compose_pairs_bits(&a, &b, n),
            "kernels disagree on compose"
        );
        let pairs_secs = time_avg_secs(
            || {
                std::hint::black_box(compose_pairs_kernel(&a, &b));
            },
            reps,
        );
        let bits_secs = time_avg_secs(
            || {
                std::hint::black_box(compose_pairs_bits(&a, &b, n));
            },
            reps,
        );
        out.push(KernelMeasurement {
            op: "compose",
            workload: "random",
            n_nodes: n,
            n_pairs: a.len(),
            out_pairs: referee.len(),
            pairs_secs,
            bits_secs,
            scc_secs: None,
        });
    }
    out
}

/// One condensation-reuse timing: a k-closure evaluation's SCC-kernel
/// work with a Tarjan walk per closure (the pre-sharing behavior) vs
/// one walk over the run's full adjacency reused by every closure
/// ([`CondensationCache`], the `EvalCtx` path).
#[derive(Debug, Clone)]
pub struct CondensationMeasurement {
    /// Universe size.
    pub n_nodes: usize,
    /// Closures per evaluation (= per-tag sub-relations).
    pub n_closures: usize,
    /// Edges per per-tag sub-relation.
    pub tag_edges: usize,
    /// Seconds per evaluation condensing once per *closure*.
    pub fresh_secs: f64,
    /// Seconds per evaluation condensing once per *evaluation*.
    pub shared_secs: f64,
}

impl CondensationMeasurement {
    /// How many times faster the shared-condensation evaluation ran
    /// (the reuse acceptance metric: ≥ 1.5 on k ≥ 4 closures).
    pub fn reuse_speedup(&self) -> f64 {
        self.fresh_secs / self.shared_secs.max(1e-12)
    }
}

/// The condensation-reuse sweep: k sparse per-tag relations over one
/// shared universe — the shape of a multi-closure composite plan over
/// a provenance run — closed through the SCC kernel with and without
/// the evaluation-scoped condensation cache.
pub fn measure_condensation(full: bool) -> Vec<CondensationMeasurement> {
    let sizes: &[usize] = if full {
        &[1024, 2048, 4096, 8192]
    } else {
        &[1024, 2048]
    };
    let reps = if full { 5 } else { 3 };
    let n_closures = 6;
    let mut out = Vec::new();
    for &n in sizes {
        // Sparse per-tag bases (≤ n/2 edges each), DAG-oriented like
        // the provenance runs this models (workflow runs are DAGs with
        // at most small cyclic cores): the per-closure Tarjan walk plus
        // the full-matrix component pass are the dominant costs the
        // shared schedule removes — its sweep skips source-less rows
        // and scales with the base, not the universe.
        let tag_edges = n / 2;
        let bases: Vec<CsrRelation> = (0..n_closures)
            .map(|i| {
                let pairs: NodePairSet = random_relation(n, tag_edges, 0x7A6 + (n * 31 + i) as u64)
                    .iter()
                    .filter(|(a, b)| a != b)
                    .map(|(a, b)| if a.0 < b.0 { (a, b) } else { (b, a) })
                    .collect();
                CsrRelation::from_pairs(&pairs, n)
            })
            .collect();
        let whole: NodePairSet = bases
            .iter()
            .flat_map(|b| b.to_pairs().iter().collect::<Vec<_>>())
            .collect();
        let whole = CsrRelation::from_pairs(&whole, n);
        // The two schedules must agree before they race.
        for base in &bases {
            let cache = CondensationCache::new();
            assert_eq!(
                transitive_closure_scc_csr(base),
                closure_csr_shared(base, &whole, &cache).into_sorted(),
                "shared condensation disagrees with the per-closure walk"
            );
        }
        // Interleave the two schedules rep by rep and keep the best of
        // each, so clock drift over a long sweep cannot masquerade as a
        // schedule difference.
        let mut fresh_secs = f64::INFINITY;
        let mut shared_secs = f64::INFINITY;
        for _ in 0..reps.max(1) {
            fresh_secs = fresh_secs.min(time_avg_secs(
                || {
                    for base in &bases {
                        std::hint::black_box(rpq_relalg::scc::transitive_closure_scc(base));
                    }
                },
                1,
            ));
            shared_secs = shared_secs.min(time_avg_secs(
                || {
                    let cache = CondensationCache::new();
                    for base in &bases {
                        std::hint::black_box(closure_csr_shared(base, &whole, &cache));
                    }
                },
                1,
            ));
        }
        out.push(CondensationMeasurement {
            n_nodes: n,
            n_closures,
            tag_edges,
            fresh_secs,
            shared_secs,
        });
    }
    out
}

/// Paper-style table of the condensation-reuse sweep.
pub fn condensation_table(measurements: &[CondensationMeasurement]) -> Table {
    let mut table = Table::new(
        "condensation reuse: Tarjan per closure vs once per evaluation (scc kernel)",
        &[
            "nodes",
            "closures",
            "tag edges",
            "fresh",
            "shared",
            "fresh/shared",
        ],
    );
    for m in measurements {
        table.row(vec![
            format!("{}", m.n_nodes),
            format!("{}", m.n_closures),
            format!("{}", m.tag_edges),
            fmt_secs(m.fresh_secs),
            fmt_secs(m.shared_secs),
            format!("{:.2}x", m.reuse_speedup()),
        ]);
    }
    table
}

/// The `condensation_sweep` JSON section of `BENCH_relalg.json`.
pub fn condensation_to_json(measurements: &[CondensationMeasurement]) -> String {
    let mut out = String::from("[\n");
    for (i, m) in measurements.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"n_nodes\": {}, \"n_closures\": {}, \"tag_edges\": {}, \
             \"fresh_secs\": {:.9}, \"shared_secs\": {:.9}, \"reuse_speedup\": {:.3}}}{}\n",
            m.n_nodes,
            m.n_closures,
            m.tag_edges,
            m.fresh_secs,
            m.shared_secs,
            m.reuse_speedup(),
            if i + 1 < measurements.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]");
    out
}

/// Paper-style table of a sweep.
pub fn table(measurements: &[KernelMeasurement]) -> Table {
    let mut table = Table::new(
        "relalg kernel A/B/C: pairs vs blocked bitsets vs condensation",
        &[
            "op",
            "workload",
            "nodes",
            "in pairs",
            "out pairs",
            "pairs",
            "bits",
            "scc",
            "bits/pairs",
            "scc/bits",
        ],
    );
    for m in measurements {
        table.row(vec![
            m.op.to_owned(),
            m.workload.to_owned(),
            format!("{}", m.n_nodes),
            format!("{}", m.n_pairs),
            format!("{}", m.out_pairs),
            fmt_secs(m.pairs_secs),
            fmt_secs(m.bits_secs),
            m.scc_secs.map_or_else(|| "—".to_owned(), fmt_secs),
            format!("{:.1}x", m.speedup()),
            m.scc_speedup_vs_bits()
                .map_or_else(|| "—".to_owned(), |s| format!("{s:.1}x")),
        ]);
    }
    table
}

/// The JSON baseline record (`BENCH_relalg.json`). The kernel A/B/C
/// lands under `results`; [`run_and_record`] appends the session-level
/// lazy-vs-materialized sweep as a sibling `strategy_sweep` section.
pub fn to_json(measurements: &[KernelMeasurement]) -> String {
    let mut out = String::from("{\n  \"bench\": \"relalg_kernel\",\n  \"results\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let scc_fields = match (m.scc_secs, m.scc_speedup_vs_bits()) {
            (Some(secs), Some(speedup)) => {
                format!(", \"scc_secs\": {secs:.9}, \"scc_speedup_vs_bits\": {speedup:.3}")
            }
            _ => String::new(),
        };
        out.push_str(&format!(
            "    {{\"op\": \"{}\", \"workload\": \"{}\", \"n_nodes\": {}, \"n_pairs\": {}, \
             \"out_pairs\": {}, \"pairs_secs\": {:.9}, \"bits_secs\": {:.9}, \
             \"speedup\": {:.3}{}}}{}\n",
            m.op,
            m.workload,
            m.n_nodes,
            m.n_pairs,
            m.out_pairs,
            m.pairs_secs,
            m.bits_secs,
            m.speedup(),
            scc_fields,
            if i + 1 < measurements.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Run every sweep — the kernel A/B/C, the condensation-reuse A/B and
/// the session-level strategy A/B — write the combined baseline to
/// `path`, and return the rendered tables (kernels first, in sweep
/// order).
pub fn run_and_record(full: bool, path: &str) -> std::io::Result<Vec<Table>> {
    let measurements = measure(full);
    let condensations = measure_condensation(full);
    let strategies = crate::lazybench::measure(full);
    let mut json = to_json(&measurements);
    let closer = "  ]\n}\n";
    debug_assert!(json.ends_with(closer));
    json.truncate(json.len() - closer.len());
    json.push_str(&format!(
        "  ],\n  \"condensation_sweep\": {},\n  \"strategy_sweep\": {}\n}}\n",
        condensation_to_json(&condensations),
        crate::lazybench::to_json(&strategies)
    ));
    std::fs::write(path, json)?;
    Ok(vec![
        table(&measurements),
        condensation_table(&condensations),
        crate::lazybench::table(&strategies),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_and_bounded() {
        let a = layered_relation(256, 16, 2, 7);
        assert_eq!(a, layered_relation(256, 16, 2, 7));
        assert!(a.iter().all(|(u, v)| u.index() < 256 && v.index() < 256));
        let r = random_relation(100, 300, 7);
        assert!(r.iter().all(|(u, v)| u.index() < 100 && v.index() < 100));
        assert!(!r.is_empty());
    }

    #[test]
    fn json_is_well_formed() {
        let m = vec![
            KernelMeasurement {
                op: "compose",
                workload: "random",
                n_nodes: 10,
                n_pairs: 3,
                out_pairs: 2,
                pairs_secs: 1e-6,
                bits_secs: 5e-7,
                scc_secs: None,
            },
            KernelMeasurement {
                op: "transitive_closure",
                workload: "deep_chain",
                n_nodes: 10,
                n_pairs: 9,
                out_pairs: 45,
                pairs_secs: 1e-6,
                bits_secs: 5e-7,
                scc_secs: Some(1e-7),
            },
        ];
        let json = to_json(&m);
        assert!(json.contains("\"speedup\": 2.000"));
        assert!(json.contains("\"scc_speedup_vs_bits\": 5.000"));
        assert!(json.contains("\"workload\": \"deep_chain\""));
        // Compose rows carry no scc fields.
        assert!(!json
            .lines()
            .any(|l| l.contains("compose") && l.contains("scc")));
        // Balanced braces/brackets and a trailing-comma-free list.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains(",\n  ]"));
    }

    #[test]
    fn condensation_json_section_is_well_formed() {
        let conds = vec![CondensationMeasurement {
            n_nodes: 10,
            n_closures: 6,
            tag_edges: 5,
            fresh_secs: 3e-6,
            shared_secs: 1e-6,
        }];
        let json = condensation_to_json(&conds);
        assert!(json.contains("\"reuse_speedup\": 3.000"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn condensation_sweep_cross_checks_and_reports() {
        // One tiny size through the sweep's cross-check.
        let bases: Vec<CsrRelation> = (0..4)
            .map(|i| CsrRelation::from_pairs(&random_relation(64, 32, i), 64))
            .collect();
        let whole: NodePairSet = bases
            .iter()
            .flat_map(|b| b.to_pairs().iter().collect::<Vec<_>>())
            .collect();
        let whole = CsrRelation::from_pairs(&whole, 64);
        let cache = CondensationCache::new();
        for base in &bases {
            assert_eq!(
                transitive_closure_scc_csr(base),
                closure_csr_shared(base, &whole, &cache).into_sorted()
            );
        }
    }

    #[test]
    fn quick_sweep_has_an_scc_leg_per_closure_workload() {
        // Tiny smoke of the real measurement loop (reps=1, one size).
        let m = measure_closure("deep_chain", deep_chain_relation(128, 1), 128, 1);
        assert_eq!(m.out_pairs, 128 * 127 / 2);
        assert!(m.scc_secs.is_some());
        assert!(m.scc_speedup_vs_bits().unwrap() > 0.0);
    }
}
