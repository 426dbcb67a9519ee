//! Lazy-vs-materialized strategy A/B at the session level: the same
//! prepared composite query over the same cached CSR arena, answered
//! once by the on-the-fly DFA×graph product search and once by the
//! materialized relational pipeline (both forced through the session's
//! test hook) — plus the session's own pick, which must track
//! whichever side wins.
//!
//! The sweep rides along with the kernel A/B in `BENCH_relalg.json`
//! (section `strategy_sweep`, from `repro -- relalg`). Workloads are
//! the realistic fork-heavy runs at ≥4096 nodes — large and sparse,
//! which is exactly the regime where a frontier-bound product search
//! beats materializing closures: `Pairwise` stops at the first
//! accepting hit and `Reachable` is one search, while the relational
//! pipeline pays for the whole relation either way. Full-universe
//! `AllPairs` is the converse case — one product search per source —
//! where the session must keep picking the materialized side.

use crate::datasets::Dataset;
use crate::timing::{fmt_secs, time_avg_secs, Table};
use rpq_core::{EvalStrategy, QueryRequest, Session};
use rpq_labeling::{NodeId, Run};

/// One strategy A/B timing for a single request mode.
#[derive(Debug, Clone)]
pub struct StrategyMeasurement {
    /// Dataset name (`bioaid` / `qblast`).
    pub dataset: &'static str,
    /// Query text.
    pub query: String,
    /// Request mode (`pairwise` / `reachable` / `all_pairs`).
    pub mode: &'static str,
    /// Run size.
    pub n_nodes: usize,
    /// Run edges.
    pub n_edges: usize,
    /// Forced-lazy seconds per call.
    pub lazy_secs: f64,
    /// Forced-materialized seconds per call.
    pub materialized_secs: f64,
    /// Seconds per call when the session picks the engine.
    pub auto_secs: f64,
    /// The engine the session picked.
    pub auto_picked: &'static str,
}

impl StrategyMeasurement {
    /// Materialized-over-lazy speedup (>1 means lazy wins).
    pub fn lazy_speedup(&self) -> f64 {
        self.materialized_secs / self.lazy_secs
    }

    /// The session's pick's time relative to the faster forced strategy (1.0 is a
    /// perfect pick; the cost model should stay within ~1.1).
    pub fn auto_vs_best(&self) -> f64 {
        self.auto_secs / self.lazy_secs.min(self.materialized_secs)
    }
}

fn measure_request(
    dataset: &'static str,
    session: &Session,
    query_text: &str,
    run: &Run,
    mode: &'static str,
    request: &QueryRequest,
    reps: usize,
) -> StrategyMeasurement {
    let query = session.prepare(query_text).expect("query prepares");
    // Warm every per-run artifact (tag index and CSR arena) and
    // cross-check the strategies before timing anything.
    let lazy = session.evaluate_forced(&query, run, request, EvalStrategy::Lazy);
    let materialized = session.evaluate_forced(&query, run, request, EvalStrategy::Materialized);
    assert_eq!(
        lazy.result, materialized.result,
        "strategies disagree on {query_text} ({mode})"
    );
    let auto_picked = session.evaluate(&query, run, request).meta.strategy.name();

    // `None` times the session's own pick.
    let time = |forced: Option<EvalStrategy>| {
        time_avg_secs(
            || {
                std::hint::black_box(match forced {
                    Some(engine) => session.evaluate_forced(&query, run, request, engine),
                    None => session.evaluate(&query, run, request),
                });
            },
            reps,
        )
    };
    StrategyMeasurement {
        dataset,
        query: query_text.to_owned(),
        mode,
        n_nodes: run.n_nodes(),
        n_edges: run.n_edges(),
        lazy_secs: time(Some(EvalStrategy::Lazy)),
        materialized_secs: time(Some(EvalStrategy::Materialized)),
        auto_secs: time(None),
        auto_picked,
    }
}

/// Run the sweep. `full` adds the large (≥4096-node) tier the
/// baseline's speedup claims are about.
pub fn measure(full: bool) -> Vec<StrategyMeasurement> {
    let edge_targets: &[usize] = if full { &[1536, 6144] } else { &[1024] };
    let reps = if full { 3 } else { 2 };
    let mut out = Vec::new();
    for dataset in [Dataset::bioaid(), Dataset::qblast()] {
        for &edges in edge_targets {
            let run = dataset.fork_run(edges, 7);
            let session = dataset.session();
            // A decomposed composite query through the star tag: both
            // strategies run over the CSR arena, so the A/B isolates
            // product search vs relational materialization.
            let query = format!("_* {} _*", dataset.star_tag());
            let all: Vec<NodeId> = run.node_ids().collect();
            for (mode, request) in [
                ("pairwise", QueryRequest::pairwise(run.entry(), run.exit())),
                ("reachable", QueryRequest::reachable(run.entry())),
                (
                    "all_pairs",
                    QueryRequest::all_pairs(all.clone(), all.clone()),
                ),
            ] {
                out.push(measure_request(
                    dataset.name(),
                    session,
                    &query,
                    &run,
                    mode,
                    &request,
                    reps,
                ));
            }
        }
    }
    out
}

/// Paper-style table of the sweep.
pub fn table(measurements: &[StrategyMeasurement]) -> Table {
    let mut table = Table::new(
        "evaluation strategy A/B: lazy product search vs materialized pipeline",
        &[
            "dataset",
            "query",
            "mode",
            "nodes",
            "edges",
            "lazy",
            "materialized",
            "auto",
            "mat/lazy",
            "auto/best",
            "auto picks",
        ],
    );
    for m in measurements {
        table.row(vec![
            m.dataset.to_owned(),
            m.query.clone(),
            m.mode.to_owned(),
            format!("{}", m.n_nodes),
            format!("{}", m.n_edges),
            fmt_secs(m.lazy_secs),
            fmt_secs(m.materialized_secs),
            fmt_secs(m.auto_secs),
            format!("{:.1}x", m.lazy_speedup()),
            format!("{:.2}", m.auto_vs_best()),
            m.auto_picked.to_owned(),
        ]);
    }
    table
}

/// The `strategy_sweep` JSON section of `BENCH_relalg.json`.
pub fn to_json(measurements: &[StrategyMeasurement]) -> String {
    let mut out = String::from("[\n");
    for (i, m) in measurements.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"query\": \"{}\", \"mode\": \"{}\", \
             \"n_nodes\": {}, \"n_edges\": {}, \"lazy_secs\": {:.9}, \
             \"materialized_secs\": {:.9}, \"auto_secs\": {:.9}, \
             \"lazy_speedup\": {:.3}, \"auto_vs_best\": {:.3}, \"auto_picked\": \"{}\"}}{}\n",
            m.dataset,
            m.query,
            m.mode,
            m.n_nodes,
            m.n_edges,
            m.lazy_secs,
            m.materialized_secs,
            m.auto_secs,
            m.lazy_speedup(),
            m.auto_vs_best(),
            m.auto_picked,
            if i + 1 < measurements.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_is_consistent() {
        let measurements = measure(false);
        assert!(!measurements.is_empty());
        for m in &measurements {
            assert!(m.lazy_secs > 0.0 && m.materialized_secs > 0.0 && m.auto_secs > 0.0);
            assert!(matches!(m.auto_picked, "lazy" | "materialized"));
        }
        let json = to_json(&measurements);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(table(&measurements).render().contains("auto/best"));
    }
}
