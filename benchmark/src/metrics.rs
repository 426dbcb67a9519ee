//! The frozen vocabulary of the benchmark: workload names, the five
//! end-to-end metrics with their regression bounds, and every
//! per-layer metric with the end-to-end metric it is predicted to move.
//! `BENCHMARK.json` at the repository root lists the same names; a
//! self-test keeps the two in step.

use crate::stats;
use std::collections::BTreeMap;

/// The six workloads, in run order, each with the one-line reason it
/// exists (README.md has the long form).
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "decode",
        "safe queries on 16k-edge runs: all time is label decoding, relalg/lazy/store/network idle",
    ),
    (
        "composite",
        "unsafe queries, full-universe all-pairs: time sits in relalg kernels and core::general",
    ),
    (
        "compile",
        "cold Session::prepare of distinct queries: parse, DFA, safety, planning; no run touched",
    ),
    (
        "serve_direct",
        "loopback requests to one Server, corpus 4x the cache: wire + plan hit + decode/lazy + reloads",
    ),
    (
        "serve_routed",
        "the same request sequence through a Router over two backends: serve_direct plus one hop",
    ),
    (
        "live_append",
        "append a batch then query it over loopback: the write path beside the read path",
    ),
];

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Every workload reports all five. A bound holds for all six
/// workloads, so the noisiest one sets it: between ten runs on the
/// reference host `serve_routed` spreads 16 % / 12 % / 14 % (ops, p50,
/// p95) and `live_append` 8 % in resident memory, while the in-process
/// workloads stay under 6 % (README.md, "Noise"). `bench compare` prints
/// the spreads it saw beside every verdict.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "op/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p95_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// How the samples pushed under a per-layer name become its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// Median of the samples (times of repeated calls).
    Median,
    /// 95th percentile of the samples.
    P95,
    /// Mean of the samples (per-op counts: exact for a given seed).
    Mean,
    /// Sum of the samples (event totals).
    Sum,
    /// The last sample (a ratio computed once at the end).
    Last,
}

/// One per-layer metric.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub agg: Agg,
    /// The end-to-end metric and workload it is predicted to move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    agg: Agg,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        agg,
        moves,
    }
}

use Agg::{Last, Mean, Median, Sum, P95};
use Better::{Higher, Lower};

/// Every per-layer metric. The prefix before the first dot is the
/// layer. A workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: &[PerLayer] = &[
    // automata
    m(
        "automata.parse_us",
        "us",
        Lower,
        Median,
        "op_p50_us on compile",
    ),
    m(
        "automata.dfa_us",
        "us",
        Lower,
        Median,
        "op_p50_us (big DFAs: op_p95_us) on compile",
    ),
    m(
        "automata.dfa_states",
        "count",
        Lower,
        Mean,
        "exact; explains the compile tail",
    ),
    // grammar
    m(
        "grammar.spec_build_us",
        "us",
        Lower,
        Median,
        "setup_s on every workload",
    ),
    // labeling
    m(
        "labeling.derive_edges_per_s",
        "1/s",
        Higher,
        Median,
        "setup_s on decode, composite, serve_*",
    ),
    m(
        "labeling.apply_events_us",
        "us",
        Lower,
        Median,
        "op_p50_us on live_append",
    ),
    m(
        "labeling.fingerprint_us",
        "us",
        Lower,
        Median,
        "op_p50_us on live_append",
    ),
    m(
        "labeling.label_bytes_per_node",
        "B",
        Lower,
        Mean,
        "exact; peak_rss_mb on decode",
    ),
    // relalg
    m(
        "relalg.tagindex_build_us",
        "us",
        Lower,
        Median,
        "setup_s; op_p95_us on serve_direct if a miss rebuilds",
    ),
    m(
        "relalg.csr_build_us",
        "us",
        Lower,
        Median,
        "setup_s; op_p95_us on serve_direct if a miss rebuilds",
    ),
    m(
        "relalg.closure_us",
        "us",
        Lower,
        Median,
        "ops_per_s and op_p50_us on composite; 0 on decode",
    ),
    m(
        "relalg.compose_us",
        "us",
        Lower,
        Median,
        "ops_per_s and op_p50_us on composite",
    ),
    m(
        "relalg.select_us",
        "us",
        Lower,
        Median,
        "ops_per_s and op_p50_us on composite",
    ),
    m(
        "relalg.closures_per_op",
        "count",
        Lower,
        Mean,
        "exact; ops_per_s on composite",
    ),
    m(
        "relalg.condensations_computed_per_op",
        "count",
        Lower,
        Mean,
        "exact; ops_per_s on composite",
    ),
    m(
        "relalg.condensations_reused_per_op",
        "count",
        Higher,
        Mean,
        "exact; ops_per_s on composite",
    ),
    m(
        "relalg.index_extend_us",
        "us",
        Lower,
        Median,
        "op_p50_us on live_append",
    ),
    m(
        "relalg.extend_closure_us",
        "us",
        Lower,
        Median,
        "op_p50_us on live_append",
    ),
    // core
    m(
        "core.safety_us",
        "us",
        Lower,
        Median,
        "op_p50_us on compile",
    ),
    m(
        "core.plan_us",
        "us",
        Lower,
        Median,
        "op_p50_us on compile (contains dfa and safety)",
    ),
    m(
        "core.plan.safe_subqueries",
        "count",
        Lower,
        Mean,
        "exact; the paper's k per unsafe query; ops_per_s on composite",
    ),
    m(
        "core.plan.safe_share",
        "ratio",
        Higher,
        Last,
        "exact; share of prepared queries that are fully safe",
    ),
    m(
        "core.prepare_hit_us",
        "us",
        Lower,
        Median,
        "op_p50_us on serve_direct",
    ),
    m(
        "core.decode.pair_ns",
        "ns",
        Lower,
        Median,
        "ops_per_s and op_p50_us on decode",
    ),
    m(
        "core.decode.allpairs_us",
        "us",
        Lower,
        Median,
        "ops_per_s and op_p95_us on decode (512x512 lists)",
    ),
    m(
        "core.decode.ns_per_candidate",
        "ns",
        Lower,
        Median,
        "decode, 512x512 lists; flat across list sizes = nested loop",
    ),
    m(
        "core.decode.ns_per_candidate_small",
        "ns",
        Lower,
        Median,
        "decode, 128x128 lists",
    ),
    m(
        "core.decode.ns_per_answer",
        "ns",
        Lower,
        Median,
        "decode, 512x512 lists; flat across list sizes = output-bounded",
    ),
    m(
        "core.decode.ns_per_answer_small",
        "ns",
        Lower,
        Median,
        "decode, 128x128 lists",
    ),
    m(
        "core.stage.plan_us",
        "us",
        Lower,
        Mean,
        "per-op mean from EvalMeta::stages; serve_*",
    ),
    m(
        "core.stage.store_load_us",
        "us",
        Lower,
        Mean,
        "per-op mean; op_p95_us on serve_direct",
    ),
    m(
        "core.stage.index_us",
        "us",
        Lower,
        Mean,
        "per-op mean; op_p95_us on serve_direct",
    ),
    m(
        "core.stage.csr_us",
        "us",
        Lower,
        Mean,
        "per-op mean; op_p95_us on serve_direct",
    ),
    m(
        "core.stage.eval_us",
        "us",
        Lower,
        Mean,
        "per-op mean; ops_per_s on composite and decode",
    ),
    m(
        "core.stage.lazy_expand_us",
        "us",
        Lower,
        Mean,
        "per-op mean; op_p50_us on serve_direct",
    ),
    m(
        "core.unattributed_share",
        "ratio",
        Lower,
        Last,
        "1 - sum(stages)/evaluate wall; a growing share is an unexplained gap",
    ),
    m(
        "core.lazy.share",
        "ratio",
        Lower,
        Last,
        "share of ops the lazy engine answered; 0 on composite",
    ),
    m(
        "core.lazy.product_states_per_op",
        "count",
        Lower,
        Mean,
        "exact; op_p50_us on serve_direct",
    ),
    m(
        "core.cache.plan_hit_ratio",
        "ratio",
        Higher,
        Last,
        "op_p50_us on serve_direct; 0 on compile",
    ),
    m(
        "core.cache.index_hit_ratio",
        "ratio",
        Higher,
        Last,
        "op_p95_us on serve_direct",
    ),
    m(
        "core.cache.csr_hit_ratio",
        "ratio",
        Higher,
        Last,
        "op_p95_us on serve_direct",
    ),
    m(
        "core.answers_per_op",
        "count",
        Lower,
        Mean,
        "exact; identifies the op sequence, not a cost",
    ),
    // store
    m(
        "store.ingest_us_per_run",
        "us",
        Lower,
        Median,
        "setup_s on serve_*, live_append",
    ),
    m(
        "store.materialize_us_per_run",
        "us",
        Lower,
        Median,
        "setup_s on serve_*, live_append",
    ),
    m(
        "store.open_warm_us",
        "us",
        Lower,
        Median,
        "setup_s on serve_*, live_append",
    ),
    m(
        "store.artifact_load_us",
        "us",
        Lower,
        Median,
        "op_p95_us on serve_direct",
    ),
    m(
        "store.run_load_us",
        "us",
        Lower,
        Median,
        "op_p95_us on serve_direct",
    ),
    m(
        "store.reloads",
        "count",
        Lower,
        Sum,
        "op_p95_us on serve_direct",
    ),
    m(
        "store.rebuilds",
        "count",
        Lower,
        Sum,
        "op_p95_us on serve_direct",
    ),
    m(
        "store.append_us",
        "us",
        Lower,
        Median,
        "op_p50_us on live_append",
    ),
    m(
        "store.append_rebuilds",
        "count",
        Lower,
        Sum,
        "exact; op_p95_us on live_append",
    ),
    m(
        "store.disk_bytes_per_edge",
        "B",
        Lower,
        Last,
        "exact; space, trades against append time",
    ),
    m(
        "store.artifact_bytes_per_append",
        "B",
        Lower,
        Mean,
        "exact; write volume, trades against append time",
    ),
    // serve
    m(
        "serve.server_us",
        "us",
        Lower,
        Median,
        "op_p50_us on serve_direct",
    ),
    m(
        "serve.wire_us",
        "us",
        Lower,
        Median,
        "client latency - server_us; op_p50_us on serve_direct",
    ),
    m(
        "serve.encode_us",
        "us",
        Lower,
        Median,
        "op_p50_us on serve_direct",
    ),
    m(
        "serve.decode_us",
        "us",
        Lower,
        Median,
        "op_p50_us on serve_direct",
    ),
    m(
        "serve.response_bytes",
        "B",
        Lower,
        Mean,
        "op_p50_us on serve_direct",
    ),
    m(
        "serve.connect_us",
        "us",
        Lower,
        Median,
        "setup_s on serve_*",
    ),
    m("serve.overloaded", "count", Lower, Sum, "failed ops"),
    m("serve.request_errors", "count", Lower, Sum, "failed ops"),
    // router
    m(
        "router.hop_us",
        "us",
        Lower,
        Median,
        "op_p50_us on serve_routed; must not move serve_direct",
    ),
    m(
        "router.hop_p95_us",
        "us",
        Lower,
        P95,
        "op_p95_us on serve_routed",
    ),
    m("router.failovers", "count", Lower, Sum, "expected 0"),
    m("router.retries", "count", Lower, Sum, "expected 0"),
    m(
        "router.unavailable",
        "count",
        Lower,
        Sum,
        "expected 0; failed ops",
    ),
    m(
        "router.backend_skew",
        "ratio",
        Lower,
        Last,
        "share of requests the busier backend served",
    ),
    // obs
    m(
        "obs.trace_overhead_pct",
        "%",
        Lower,
        Last,
        "traced vs untraced ops_per_s; keep under 5",
    ),
    m(
        "obs.metrics_scrape_us",
        "us",
        Lower,
        Median,
        "should move nothing on the request path",
    ),
    // baselines
    m(
        "baselines.g1_allpairs_us",
        "us",
        Lower,
        Median,
        "the paper's G1 on composite ops",
    ),
    m(
        "baselines.g3_allpairs_us",
        "us",
        Lower,
        Median,
        "the paper's G3 on decode IFQ all-pairs ops",
    ),
    m(
        "baselines.g3_pair_ns",
        "ns",
        Lower,
        Median,
        "the paper's G3 on decode IFQ pairwise blocks",
    ),
    m(
        "paper.speedup_vs_g1",
        "ratio",
        Higher,
        Median,
        "G1 us / ours us on the same composite op",
    ),
    m(
        "paper.speedup_vs_g3",
        "ratio",
        Higher,
        Median,
        "G3 us / ours us on the same decode all-pairs op",
    ),
];

/// Samples collected under per-layer names during a traced run.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, Vec<f64>>);

impl Layers {
    /// Record one sample. Panics on a name missing from [`PER_LAYER`]:
    /// a typo would otherwise report a silent 0.
    pub fn push(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|p| p.name == name),
            "unknown per-layer metric {name}"
        );
        self.0.entry(name).or_default().push(value);
    }

    /// The metric's value under its aggregation; 0 with no samples.
    pub fn value(&self, metric: &PerLayer) -> f64 {
        let Some(samples) = self.0.get(metric.name) else {
            return 0.0;
        };
        match metric.agg {
            Agg::Median => stats::median(samples),
            Agg::P95 => stats::percentile(&stats::sorted(samples.clone()), 0.95),
            Agg::Mean => stats::mean(samples),
            Agg::Sum => samples.iter().sum(),
            Agg::Last => samples.last().copied().unwrap_or(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(
                ok(name) && why.len() <= 200 && !why.contains('\n'),
                "{name}"
            );
            assert!(seen.insert(name), "{name} used twice");
        }
        for e in &END_TO_END {
            assert!(ok(e.name) && unit_ok(e.unit), "{}", e.name);
            assert!(e.bound > 0.0 && e.bound <= 0.25);
            assert!(seen.insert(e.name), "{} used twice", e.name);
        }
        for p in PER_LAYER {
            assert!(ok(p.name) && unit_ok(p.unit), "{}", p.name);
            assert!(seen.insert(p.name), "{} used twice", p.name);
        }
        assert!(PER_LAYER.len() <= 128);
        assert_eq!(END_TO_END.last().unwrap().name, "setup_s");
    }

    /// `BENCHMARK.json` at the repository root is the driver's copy of
    /// the tables above; on a mismatch the panic prints the file the
    /// tables call for.
    #[test]
    fn benchmark_json_matches_the_tables() {
        use crate::json::Json;
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let on_disk =
            Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json is readable"))
                .unwrap();
        let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
        let expected = Json::obj([
            (
                "command",
                strings(&[
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--bin",
                    "bench",
                    "--",
                    "run",
                ]),
            ),
            ("paths", strings(&["benchmark"])),
            ("run_seconds", Json::Num(10.0)),
            (
                "workloads",
                Json::Arr(
                    WORKLOADS
                        .iter()
                        .map(|(name, why)| {
                            Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                        })
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                Json::Arr(
                    END_TO_END
                        .iter()
                        .map(|e| {
                            Json::obj([
                                ("name", Json::str(e.name)),
                                ("unit", Json::str(e.unit)),
                                ("better", Json::str(e.better.name())),
                                ("bound", Json::Num(e.bound)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "per_layer",
                Json::Arr(
                    PER_LAYER
                        .iter()
                        .map(|p| {
                            Json::obj([
                                ("name", Json::str(p.name)),
                                ("unit", Json::str(p.unit)),
                                ("better", Json::str(p.better.name())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        assert!(
            on_disk == expected,
            "BENCHMARK.json is out of step with src/metrics.rs; it should read:\n{}",
            expected.pretty()
        );
    }

    #[test]
    fn aggregations() {
        let mut layers = Layers::default();
        for v in [1.0, 2.0, 30.0] {
            layers.push("automata.parse_us", v);
            layers.push("store.reloads", v);
            layers.push("core.answers_per_op", v);
            layers.push("core.lazy.share", v);
        }
        let by_name = |n: &str| layers.value(PER_LAYER.iter().find(|p| p.name == n).unwrap());
        assert_eq!(by_name("automata.parse_us"), 2.0);
        assert_eq!(by_name("store.reloads"), 33.0);
        assert_eq!(by_name("core.answers_per_op"), 11.0);
        assert_eq!(by_name("core.lazy.share"), 30.0);
        assert_eq!(by_name("router.hop_us"), 0.0);
    }
}
