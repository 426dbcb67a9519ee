//! Batch-executor and run-store measurement: the source of
//! `BENCH_batch.json`.
//!
//! Two sweeps over one corpus of BioAID-like runs held in a
//! [`RunStore`]:
//!
//! * **threads** — `Session::evaluate_batch` wall-clock at 1/2/4/8
//!   worker threads, everything in-memory-warm so the sweep isolates
//!   the fan-out itself. Speedups are relative to the 1-thread leg.
//!   The committed baseline was recorded on however many CPUs the
//!   build container exposes (`available_parallelism` in the JSON);
//!   on a single-CPU host the sweep shows scheduling parity, not
//!   speedup — rerun `repro -- batch` on multicore hardware for the
//!   real curve.
//! * **cold vs warm store** — a cheap index-answered (single-symbol)
//!   batch evaluated (a) against a store with no persisted artifacts
//!   (every index derived from its run, then persisted) and (b)
//!   against a reopened store whose artifacts decode from disk. The
//!   cheap query keeps evaluation out of the wall-clock, so the gap
//!   isolates artifact acquisition — build-and-persist vs decode —
//!   and the reload/rebuild counters prove which path ran.

use crate::timing::{fmt_secs, Table};
use rpq_core::{BatchOptions, QueryRequest, Session, SessionStats};
use rpq_store::{RunStore, StoreStats};
use rpq_workloads::{bioaid_like, runs};
use std::path::PathBuf;
use std::sync::Arc;

/// One thread-sweep point.
#[derive(Debug, Clone)]
pub struct ThreadPoint {
    /// Worker threads used.
    pub threads: usize,
    /// Batch wall-clock seconds.
    pub wall_secs: f64,
    /// Speedup relative to the 1-thread leg.
    pub speedup: f64,
}

/// One store leg (cold or warm).
#[derive(Debug, Clone)]
pub struct StoreLeg {
    /// `"cold"` or `"warm"`.
    pub leg: &'static str,
    /// Batch wall-clock seconds (4 threads).
    pub wall_secs: f64,
    /// Store counter movement during the leg.
    pub store: StoreStats,
    /// Session counter movement during the leg.
    pub session: SessionStats,
}

/// The full measurement.
#[derive(Debug, Clone)]
pub struct BatchMeasurement {
    /// Corpus size (runs).
    pub n_runs: usize,
    /// Smallest target edge count in the corpus (sizes ramp ~1.5×).
    pub target_edges: usize,
    /// The relational query of the thread sweep (entry→exit).
    pub query: String,
    /// The cheap index-answered query of the cold/warm store legs.
    pub store_query: String,
    /// CPUs the host exposed while measuring.
    pub available_parallelism: usize,
    /// Thread sweep (in-memory warm).
    pub threads: Vec<ThreadPoint>,
    /// Cold leg: no persisted artifacts, everything re-derived.
    pub cold: StoreLeg,
    /// Warm leg: reopened store, artifacts decoded from disk.
    pub warm: StoreLeg,
}

impl BatchMeasurement {
    /// Cold wall over warm wall — what a persisted store saves a
    /// restarted process.
    pub fn warm_speedup(&self) -> f64 {
        self.cold.wall_secs / self.warm.wall_secs.max(1e-12)
    }
}

/// A scratch store directory (wiped before use).
fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir()
        .join("rpq_bench_batch")
        .join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run the sweep. `full` widens the corpus; quick mode keeps CI fast.
pub fn measure(full: bool) -> BatchMeasurement {
    let (n_runs, target_edges) = if full { (16, 1500) } else { (8, 400) };
    let real = bioaid_like();
    let spec = Arc::new(real.spec.clone());

    // Thread sweep: an IFQ over the dataset's pool tags, planned as
    // any session plans it.
    // Cold/warm legs: the bare symbol — an index-answered composite
    // leaf whose evaluation is a lookup, leaving artifact acquisition
    // as the legs' dominant cost.
    let query_text = format!("_* {} _*", real.pool_tags[0]);
    let store_query_text = real.pool_tags[0].clone();
    let request = QueryRequest::entry_exit();

    let corpus = runs::corpus(&spec, n_runs, target_edges, 0xBA7C).expect("bioaid derives");

    // ---- store setup: ingest only, artifacts stay unmaterialized ----
    let dir = scratch_dir();
    let store = RunStore::create(&dir, Arc::clone(&spec)).expect("create scratch store");
    for run in &corpus {
        store.ingest(run).expect("ingest corpus run");
    }
    assert_eq!(store.len(), n_runs, "corpus must not self-deduplicate");
    // Reopen before the cold leg: the ingesting instance still holds
    // every run in its in-memory cache, which would hand the cold leg
    // a head start (no run decode) the warm leg doesn't get. Both
    // legs must model a freshly restarted process.
    drop(store);
    let store = RunStore::open(&dir).expect("reopen scratch store");

    // ---- cold leg: every artifact derived from its run -------------
    let cold = {
        let session = Session::new(store.spec_arc());
        let query = session.prepare(&store_query_text).expect("query compiles");
        let store_before = store.stats();
        let outcome = session.evaluate_batch(&query, &store, &request, &BatchOptions::threads(4));
        assert_eq!(outcome.n_err(), 0);
        StoreLeg {
            leg: "cold",
            wall_secs: outcome.wall_secs,
            store: store.stats().since(store_before),
            session: outcome.stats,
        }
    };
    drop(store);

    // ---- warm leg: reopen, artifacts decode from disk --------------
    let store = RunStore::open(&dir).expect("reopen scratch store");
    let warm = {
        let session = Session::new(store.spec_arc());
        let query = session.prepare(&store_query_text).expect("query compiles");
        let store_before = store.stats();
        let outcome = session.evaluate_batch(&query, &store, &request, &BatchOptions::threads(4));
        assert_eq!(outcome.n_err(), 0);
        StoreLeg {
            leg: "warm",
            wall_secs: outcome.wall_secs,
            store: store.stats().since(store_before),
            session: outcome.stats,
        }
    };

    // ---- thread sweep: in-memory warm, fresh session per point -----
    // The store instance keeps its in-memory run/artifact caches
    // across points, so every point measures pure evaluation fan-out.
    let mut points = Vec::new();
    let mut one_thread_secs = 0.0;
    for &threads in &[1usize, 2, 4, 8] {
        let session = Session::new(store.spec_arc());
        let query = session.prepare(&query_text).expect("query compiles");
        let outcome =
            session.evaluate_batch(&query, &store, &request, &BatchOptions::threads(threads));
        assert_eq!(outcome.n_err(), 0);
        if threads == 1 {
            one_thread_secs = outcome.wall_secs;
        }
        points.push(ThreadPoint {
            threads,
            wall_secs: outcome.wall_secs,
            speedup: one_thread_secs / outcome.wall_secs.max(1e-12),
        });
    }

    drop(store);

    let _ = std::fs::remove_dir_all(&dir);
    BatchMeasurement {
        n_runs,
        target_edges,
        query: query_text,
        store_query: store_query_text,
        available_parallelism: std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
        threads: points,
        cold,
        warm,
    }
}

/// Paper-style table of a measurement.
pub fn table(m: &BatchMeasurement) -> Table {
    let mut table = Table::new(
        &format!(
            "batch store: {} runs (≥{} edges), query {:?}, {} CPU(s)",
            m.n_runs, m.target_edges, m.query, m.available_parallelism
        ),
        &["leg", "wall", "speedup", "reloads", "rebuilds"],
    );
    for p in &m.threads {
        table.row(vec![
            format!("{} thread(s)", p.threads),
            fmt_secs(p.wall_secs),
            format!("{:.2}x", p.speedup),
            "-".to_owned(),
            "-".to_owned(),
        ]);
    }
    for leg in [&m.cold, &m.warm] {
        table.row(vec![
            format!("store {}", leg.leg),
            fmt_secs(leg.wall_secs),
            if leg.leg == "warm" {
                format!(
                    "{:.2}x vs cold",
                    m.cold.wall_secs / leg.wall_secs.max(1e-12)
                )
            } else {
                "1.00x".to_owned()
            },
            format!("{}+{}", leg.store.tag_reloads, leg.store.csr_reloads),
            format!("{}+{}", leg.store.tag_rebuilds, leg.store.csr_rebuilds),
        ]);
    }
    table
}

fn leg_json(leg: &StoreLeg) -> String {
    format!(
        "{{\"leg\": \"{}\", \"wall_secs\": {:.9}, \
         \"tag_reloads\": {}, \"csr_reloads\": {}, \
         \"tag_rebuilds\": {}, \"csr_rebuilds\": {}, \
         \"session_index_hits\": {}, \"session_csr_hits\": {}}}",
        leg.leg,
        leg.wall_secs,
        leg.store.tag_reloads,
        leg.store.csr_reloads,
        leg.store.tag_rebuilds,
        leg.store.csr_rebuilds,
        leg.session.index_hits,
        leg.session.csr_hits,
    )
}

/// The JSON baseline record (`BENCH_batch.json`).
pub fn to_json(m: &BatchMeasurement) -> String {
    let mut out = String::from("{\n  \"bench\": \"batch_store\",\n");
    out.push_str(&format!(
        "  \"dataset\": \"bioaid\",\n  \"n_runs\": {},\n  \"target_edges\": {},\n  \
         \"query\": \"{}\",\n  \"store_query\": \"{}\",\n  \
         \"available_parallelism\": {},\n",
        m.n_runs, m.target_edges, m.query, m.store_query, m.available_parallelism
    ));
    out.push_str(
        "  \"note\": \"thread-sweep speedups are bounded by available_parallelism; \
         on a 1-CPU host expect parity, and rerun `repro -- batch` on multicore \
         hardware for the scaling curve\",\n",
    );
    out.push_str("  \"threads\": [\n");
    for (i, p) in m.threads.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"threads\": {}, \"wall_secs\": {:.9}, \"speedup\": {:.3}}}{}\n",
            p.threads,
            p.wall_secs,
            p.speedup,
            if i + 1 < m.threads.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"cold\": {},\n", leg_json(&m.cold)));
    out.push_str(&format!("  \"warm\": {},\n", leg_json(&m.warm)));
    out.push_str(&format!(
        "  \"warm_speedup_vs_cold\": {:.3}\n}}\n",
        m.warm_speedup()
    ));
    out
}

/// Write the sweep to `path` and return the rendered table.
pub fn run_and_record(full: bool, path: &str) -> std::io::Result<Table> {
    let m = measure(full);
    std::fs::write(path, to_json(&m))?;
    Ok(table(&m))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_measurement_proves_cold_and_warm_paths() {
        let m = measure(false);
        assert_eq!(m.threads.len(), 4);
        assert!(m.threads.iter().all(|p| p.wall_secs > 0.0));
        // Cold leg: everything rebuilt, nothing reloaded.
        assert_eq!(m.cold.store.tag_rebuilds as usize, m.n_runs);
        assert_eq!(m.cold.store.csr_rebuilds as usize, m.n_runs);
        assert_eq!(m.cold.store.tag_reloads, 0);
        // Warm leg: everything reloaded, nothing rebuilt.
        assert_eq!(m.warm.store.tag_reloads as usize, m.n_runs);
        assert_eq!(m.warm.store.csr_reloads as usize, m.n_runs);
        assert_eq!(m.warm.store.tag_rebuilds + m.warm.store.csr_rebuilds, 0);
        // The seeded session never built an index itself in either
        // leg, and the warm one consumed seeded artifacts — the tag
        // index under the materialized strategy, the CSR arena under
        // the lazy product search (forced-strategy CI legs included).
        assert_eq!(m.cold.session.index_misses, 0);
        assert_eq!(m.warm.session.index_misses, 0);
        assert!(m.warm.session.index_hits + m.warm.session.csr_hits > 0);

        let json = to_json(&m);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"warm_speedup_vs_cold\""));
        assert!(table(&m).render().contains("store warm"));
    }
}
