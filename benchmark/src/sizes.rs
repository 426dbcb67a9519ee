//! Every size the benchmark uses, frozen. `FULL` was calibrated once
//! against the seed commit so that one pass over a workload's op
//! sequence takes 1–2 s on the 2-vCPU reference host; nothing here is
//! adapted at run time. `SMOKE` is the same shape at toy sizes, for the
//! self-test that keeps the harness from rotting.
//!
//! Where a size is smaller than the issue that defined this benchmark
//! asked for, the reason is the acceptance driver's budget (136 runs in
//! 57 minutes, ≥ 200 latency samples in a 10 s window); README.md lists
//! each such cut.

/// Frozen sizes of one scale.
pub struct Sizes {
    /// Cap on set-ups per run (`Workload::SETUP_REPEATS` asks; `setup_s`
    /// is the fastest).
    pub setup_repeats: usize,
    /// Ops whose answers are compared with the referee, per workload.
    pub check_ops: usize,
    /// Ops whose inputs are replayed layer by layer in a traced run.
    pub replay_ops: usize,

    /// `decode`: edges per run (four runs), ops per pass, list sizes.
    pub decode_edges: usize,
    pub decode_ops: usize,
    pub decode_big_list: usize,
    pub decode_small_list: usize,

    /// `composite`: edges per run, runs per spec, queries per spec,
    /// edges of the frozen calibration run the selection rules use.
    pub composite_edges: usize,
    pub composite_runs_per_spec: usize,
    pub composite_queries_per_spec: usize,
    pub composite_calibration_edges: usize,

    /// `compile`: distinct query texts per specification (three specs),
    /// size of the synthetic grammar.
    pub compile_texts_per_spec: usize,
    pub compile_synthetic_composites: usize,

    /// `serve_*`: corpus, cache, hot set, requests per pass, frozen
    /// query pool per kind.
    pub serve_runs: usize,
    pub serve_edges: usize,
    pub serve_cache: usize,
    pub serve_hot_runs: usize,
    pub serve_ops: usize,
    pub serve_queries_per_kind: usize,

    /// `live_append`: streamed runs per dataset, edges per run, batches
    /// each run is cut into.
    pub live_streams_per_spec: usize,
    pub live_edges: usize,
    pub live_batches: usize,
}

/// The benchmark proper.
pub const FULL: Sizes = Sizes {
    setup_repeats: 25,
    check_ops: 48,
    replay_ops: 24,

    decode_edges: 16_000,
    decode_ops: 64,
    decode_big_list: 512,
    decode_small_list: 128,

    composite_edges: 1_000,
    composite_runs_per_spec: 4,
    composite_queries_per_spec: 40,
    composite_calibration_edges: 500,

    compile_texts_per_spec: 50,
    compile_synthetic_composites: 120,

    serve_runs: 32,
    serve_edges: 2_000,
    serve_cache: 8,
    serve_hot_runs: 4,
    serve_ops: 250,
    serve_queries_per_kind: 8,

    live_streams_per_spec: 2,
    live_edges: 4_000,
    live_batches: 20,
};

/// Toy sizes: all six workloads plus their traced runs in seconds,
/// debug build included.
pub const SMOKE: Sizes = Sizes {
    setup_repeats: 1,
    check_ops: 8,
    replay_ops: 3,

    decode_edges: 600,
    decode_ops: 16,
    decode_big_list: 48,
    decode_small_list: 16,

    composite_edges: 200,
    composite_runs_per_spec: 1,
    composite_queries_per_spec: 4,
    composite_calibration_edges: 200,

    compile_texts_per_spec: 8,
    compile_synthetic_composites: 12,

    serve_runs: 6,
    serve_edges: 200,
    serve_cache: 2,
    serve_hot_runs: 2,
    serve_ops: 40,
    serve_queries_per_kind: 2,

    live_streams_per_spec: 1,
    live_edges: 300,
    live_batches: 6,
};
