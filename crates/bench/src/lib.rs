#![warn(missing_docs)]

//! Benchmark harness regenerating every figure of the paper's
//! evaluation (Section V).
//!
//! Two front ends share this library:
//!
//! * `cargo run -p rpq-bench --release --bin repro [-- FIG]` — full
//!   parameter sweeps printing paper-style tables (the source of
//!   EXPERIMENTS.md);
//! * `cargo bench -p rpq-bench` — Criterion micro-benchmarks, one bench
//!   target per figure, on reduced parameter sets.
//!
//! Method labels follow the paper:
//! **RPL** = pairwise label decoding / nested-loop all-pairs (Option S1);
//! **optRPL** = Algorithm 2 tree merge with reachability filtering
//! (Option S2); **G1/G2/G3** = the baselines of Section IV-B.

pub mod batchbench;
pub mod benchfile;
pub mod datasets;
pub mod experiments;
pub mod ingestbench;
pub mod kernelbench;
pub mod lazybench;
pub mod routerbench;
pub mod servebench;
pub mod timing;

pub use datasets::{unsafe_ifq_rows, Dataset};
pub use timing::{time_avg_secs, Table};
