//! Live-ingestion measurement: the source of `BENCH_ingest.json`.
//!
//! Two sections, both asking the same question — what does delta
//! maintenance buy over rebuilding from scratch on every append?
//!
//! * **store appends** — a streamed BioAID-like run replayed through
//!   [`OpenRun::append_events`](rpq_store::OpenRun::append_events)
//!   twice: once with the churn threshold effectively disabled (every
//!   batch takes the incremental path) and once with it at zero (every
//!   batch forces the full-rebuild fallback). Same base, same batches,
//!   same event log and same in-memory indexes at the end — the
//!   wall-clock gap is the maintenance strategy, nothing else. Reported
//!   as append throughput and per-append latency.
//! * **closure deltas** — the kernel underneath: a finished wildcard
//!   closure extended by [`BitRelation::extend_closure`] versus a full
//!   `transitive_closure` refixpoint of the grown graph, per append,
//!   over the three shapes the kernel bench established (deep chains —
//!   maximal round counts, layered DAGs — dense closures, cyclic
//!   cores — condensation territory).

use crate::kernelbench::layered_relation;
use crate::timing::{fmt_secs, Table};
use rpq_labeling::Run;
use rpq_relalg::{BitRelation, NodePairSet};
use rpq_store::RunStore;
use rpq_workloads::runs::{cyclic_core_relation, deep_chain_relation, event_stream};
use rpq_workloads::{bioaid_like, runs};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// One store-append leg (delta maintenance or forced rebuilds).
#[derive(Debug, Clone)]
pub struct AppendLeg {
    /// `"delta"` or `"rebuild"`.
    pub leg: &'static str,
    /// Wall-clock seconds across all appends.
    pub total_secs: f64,
    /// Mean seconds per append.
    pub mean_secs: f64,
    /// Worst single append.
    pub max_secs: f64,
    /// Appended edges per second of wall-clock.
    pub edges_per_sec: f64,
    /// Appends that took the full-rebuild fallback.
    pub rebuilds: u64,
}

/// One closure-delta point: a shape at one size.
#[derive(Debug, Clone)]
pub struct ClosurePoint {
    /// `"deep_chain"`, `"layered"` or `"cyclic_core"`.
    pub shape: &'static str,
    /// Universe size.
    pub n_nodes: usize,
    /// Edges in the base graph (closure pre-fixpointed).
    pub base_edges: usize,
    /// Edges arriving across the appends.
    pub delta_edges: usize,
    /// Number of appends the delta edges are split into.
    pub n_batches: usize,
    /// Mean seconds per append, incremental `extend_closure` path.
    pub delta_mean_secs: f64,
    /// Mean seconds per append, full `transitive_closure` refixpoint.
    pub full_mean_secs: f64,
}

impl ClosurePoint {
    /// Full-refixpoint latency over delta latency.
    pub fn speedup(&self) -> f64 {
        self.full_mean_secs / self.delta_mean_secs.max(1e-12)
    }
}

/// The full measurement.
#[derive(Debug, Clone)]
pub struct IngestMeasurement {
    /// Base-run edges before streaming starts.
    pub base_edges: usize,
    /// Total edges across the appended batches.
    pub appended_edges: usize,
    /// Appends per leg.
    pub n_batches: usize,
    /// Incremental-maintenance leg.
    pub delta: AppendLeg,
    /// Rebuild-per-append leg.
    pub rebuild: AppendLeg,
    /// Closure-kernel points, one per workload shape.
    pub closure: Vec<ClosurePoint>,
}

impl IngestMeasurement {
    /// Rebuild per-append latency over delta per-append latency — the
    /// headline number.
    pub fn append_speedup(&self) -> f64 {
        self.rebuild.mean_secs / self.delta.mean_secs.max(1e-12)
    }
}

/// A scratch store directory (wiped before use).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("rpq_bench_ingest")
        .join(format!("{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Replay `batches` onto a fresh store holding `base`, measuring every
/// append. `churn_percent` selects the maintenance strategy: huge
/// (never rebuild) for the delta leg, zero (always rebuild) for the
/// rebuild leg.
fn measure_append_leg(
    leg: &'static str,
    spec: &Arc<rpq_grammar::Specification>,
    base: &Run,
    batches: &[rpq_labeling::EventBatch],
    churn_percent: u32,
) -> AppendLeg {
    let dir = scratch_dir(leg);
    let store = Arc::new(RunStore::create(&dir, Arc::clone(spec)).expect("create scratch store"));
    let id = store.ingest(base).expect("ingest base").id;
    let open = store.open_run(id).expect("open run");
    open.set_churn_percent(churn_percent);

    let mut total = 0.0f64;
    let mut worst = 0.0f64;
    let mut edges = 0usize;
    for batch in batches {
        let start = Instant::now();
        let receipt = open.append_events(batch).expect("append");
        let t = start.elapsed().as_secs_f64();
        total += t;
        worst = worst.max(t);
        edges += receipt.new_edges;
    }
    let rebuilds = store.stats().append_rebuilds;
    drop(open);
    let _ = std::fs::remove_dir_all(&dir);
    AppendLeg {
        leg,
        total_secs: total,
        mean_secs: total / batches.len().max(1) as f64,
        max_secs: worst,
        edges_per_sec: edges as f64 / total.max(1e-12),
        rebuilds,
    }
}

/// Split a relation into a base prefix plus `n_batches` deltas and
/// measure closure maintenance both ways on every append.
fn measure_closure_point(
    shape: &'static str,
    pairs: NodePairSet,
    n_nodes: usize,
    n_batches: usize,
) -> ClosurePoint {
    let all: Vec<_> = pairs.iter().collect();
    // The last ~10% of edges arrive as appends.
    let cut = all.len() - (all.len() / 10).max(n_batches);
    let (base_pairs, rest) = all.split_at(cut);
    let base_set: NodePairSet = base_pairs.iter().copied().collect();
    let per_batch = rest.len().div_ceil(n_batches);

    // Incremental path: one pre-fixpointed closure, extended per batch
    // (the grown base relation is part of the maintained state, so its
    // update is inside the timed region — exactly what `OpenRun::reach`
    // pays when it catches up).
    let mut base_rel = BitRelation::from_pairs(&base_set, n_nodes);
    let mut closure = base_rel.transitive_closure();
    let mut grown = base_set.clone();
    let mut delta_total = 0.0f64;
    for chunk in rest.chunks(per_batch) {
        let delta: NodePairSet = chunk.iter().copied().collect();
        let start = Instant::now();
        grown = grown.iter().chain(delta.iter()).collect();
        base_rel = BitRelation::from_pairs(&grown, n_nodes);
        closure = closure.extend_closure(&base_rel, &delta);
        delta_total += start.elapsed().as_secs_f64();
    }

    // Full path: refixpoint the grown graph from scratch per batch.
    let mut grown_full = base_set.clone();
    let mut full_total = 0.0f64;
    let mut full_closure = BitRelation::new(n_nodes);
    for chunk in rest.chunks(per_batch) {
        let delta: NodePairSet = chunk.iter().copied().collect();
        let start = Instant::now();
        grown_full = grown_full.iter().chain(delta.iter()).collect();
        full_closure = BitRelation::from_pairs(&grown_full, n_nodes).transitive_closure();
        full_total += start.elapsed().as_secs_f64();
    }
    assert_eq!(
        closure, full_closure,
        "{shape}: incremental and full closures diverged"
    );

    let n_appends = rest.chunks(per_batch).count();
    ClosurePoint {
        shape,
        n_nodes,
        base_edges: base_pairs.len(),
        delta_edges: rest.len(),
        n_batches: n_appends,
        delta_mean_secs: delta_total / n_appends.max(1) as f64,
        full_mean_secs: full_total / n_appends.max(1) as f64,
    }
}

/// Run the measurement. `full` widens run and graph sizes; quick mode
/// keeps CI fast.
pub fn measure(full: bool) -> IngestMeasurement {
    let (target_edges, n_batches, n_nodes) = if full {
        (1500, 16, 1500)
    } else {
        (400, 8, 300)
    };
    let real = bioaid_like();
    let spec = Arc::new(real.spec.clone());
    let run = runs::simulate(&spec, target_edges, 0x1A57).expect("bioaid derives");
    let (base, batches) = event_stream(&run, n_batches).expect("streamable");

    // Disabled threshold (delta can never exceed existing × 10000%) vs
    // zero tolerance (any non-empty delta rebuilds).
    let delta = measure_append_leg("delta", &spec, &base, &batches, 10_000);
    let rebuild = measure_append_leg("rebuild", &spec, &base, &batches, 0);

    let closure = vec![
        measure_closure_point(
            "deep_chain",
            deep_chain_relation(n_nodes, 0xC4A1),
            n_nodes,
            n_batches,
        ),
        measure_closure_point(
            "layered",
            layered_relation(n_nodes, n_nodes / 16, 2, 0xC4A2),
            n_nodes,
            n_batches,
        ),
        measure_closure_point(
            "cyclic_core",
            cyclic_core_relation(n_nodes, n_nodes / 8, 0xC4A3),
            n_nodes,
            n_batches,
        ),
    ];

    IngestMeasurement {
        base_edges: base.n_edges(),
        appended_edges: batches.iter().map(|b| b.edges.len()).sum(),
        n_batches: batches.len(),
        delta,
        rebuild,
        closure,
    }
}

/// Paper-style table of a measurement.
pub fn table(m: &IngestMeasurement) -> Table {
    let mut table = Table::new(
        &format!(
            "live ingest: bioaid, {} base + {} appended edge(s) over {} batch(es)",
            m.base_edges, m.appended_edges, m.n_batches
        ),
        &[
            "leg",
            "per-append",
            "worst",
            "edges/s",
            "rebuilds",
            "speedup",
        ],
    );
    for leg in [&m.delta, &m.rebuild] {
        table.row(vec![
            format!("store {}", leg.leg),
            fmt_secs(leg.mean_secs),
            fmt_secs(leg.max_secs),
            format!("{:.0}", leg.edges_per_sec),
            leg.rebuilds.to_string(),
            if leg.leg == "delta" {
                format!("{:.2}x vs rebuild", m.append_speedup())
            } else {
                "1.00x".to_owned()
            },
        ]);
    }
    for p in &m.closure {
        table.row(vec![
            format!("closure {}", p.shape),
            fmt_secs(p.delta_mean_secs),
            fmt_secs(p.full_mean_secs),
            "-".to_owned(),
            "-".to_owned(),
            format!("{:.2}x vs full", p.speedup()),
        ]);
    }
    table
}

fn leg_json(leg: &AppendLeg) -> String {
    format!(
        "{{\"leg\": \"{}\", \"total_secs\": {:.9}, \"mean_secs\": {:.9}, \
         \"max_secs\": {:.9}, \"edges_per_sec\": {:.1}, \"rebuilds\": {}}}",
        leg.leg, leg.total_secs, leg.mean_secs, leg.max_secs, leg.edges_per_sec, leg.rebuilds,
    )
}

/// The JSON baseline record (`BENCH_ingest.json`).
pub fn to_json(m: &IngestMeasurement) -> String {
    let mut out = String::from("{\n  \"bench\": \"live_ingest\",\n");
    out.push_str(&format!(
        "  \"dataset\": \"bioaid\",\n  \"base_edges\": {},\n  \"appended_edges\": {},\n  \
         \"n_batches\": {},\n",
        m.base_edges, m.appended_edges, m.n_batches
    ));
    out.push_str(
        "  \"note\": \"same base and batches in both legs; the gap is incremental \
         maintenance vs a full artifact rebuild on every append\",\n",
    );
    out.push_str(&format!("  \"delta\": {},\n", leg_json(&m.delta)));
    out.push_str(&format!("  \"rebuild\": {},\n", leg_json(&m.rebuild)));
    out.push_str(&format!(
        "  \"append_speedup_delta_vs_rebuild\": {:.3},\n",
        m.append_speedup()
    ));
    out.push_str("  \"closure\": [\n");
    for (i, p) in m.closure.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"shape\": \"{}\", \"n_nodes\": {}, \"base_edges\": {}, \
             \"delta_edges\": {}, \"n_batches\": {}, \"delta_mean_secs\": {:.9}, \
             \"full_mean_secs\": {:.9}, \"speedup\": {:.3}}}{}\n",
            p.shape,
            p.n_nodes,
            p.base_edges,
            p.delta_edges,
            p.n_batches,
            p.delta_mean_secs,
            p.full_mean_secs,
            p.speedup(),
            if i + 1 < m.closure.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Write the measurement to `path` and return the rendered table.
pub fn run_and_record(full: bool, path: &str) -> std::io::Result<Table> {
    let m = measure(full);
    std::fs::write(path, to_json(&m))?;
    Ok(table(&m))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_measurement_proves_both_maintenance_paths() {
        let m = measure(false);
        // The strategy knob did its job: the rebuild leg rebuilt on
        // every append, the delta leg never fell back.
        assert_eq!(m.rebuild.rebuilds as usize, m.n_batches);
        assert_eq!(m.delta.rebuilds, 0);
        assert!(m.delta.total_secs > 0.0 && m.rebuild.total_secs > 0.0);
        assert_eq!(m.closure.len(), 3);
        for p in &m.closure {
            assert!(p.delta_mean_secs > 0.0 && p.full_mean_secs > 0.0);
            assert!(p.n_batches > 0 && p.delta_edges > 0);
        }
        let json = to_json(&m);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"append_speedup_delta_vs_rebuild\""));
        assert!(table(&m).render().contains("store delta"));
    }
}
