#![warn(missing_docs)]

//! Hand-rolled observability core for the rpq workspace.
//!
//! Three pieces, all std-only and shim-compatible:
//!
//! * [`registry`] — named atomic [`Counter`]s, [`Gauge`]s, and
//!   fixed-bucket log₂-scale latency [`Histogram`]s behind a
//!   [`Registry`]; recording is lock-free, and [`Registry::snapshot`]
//!   freezes everything into a [`MetricsSnapshot`] that merges
//!   name-wise across processes (the router uses this to aggregate a
//!   fleet) and renders a Prometheus-style text exposition;
//! * [`trace`] — a thread-local span API ([`Trace::begin`] /
//!   [`Trace::span`] / [`Trace::take`]) producing flat per-query
//!   stage breakdowns with self-time accounting, which
//!   `rpq_core::Session::evaluate` lands in `EvalMeta`;
//! * [`slowlog`] — a bounded ring buffer of [`SlowQuery`] captures
//!   (query text, run fingerprint, closure counts, stage
//!   timings) for requests over a `--slow-ms` threshold.
//!
//! The paper's decomposition pipeline makes query cost highly
//! shape-dependent (safe vs. decomposed plans, kernel choice, closure
//! strategy), so "the query was slow" is rarely actionable on its own;
//! the span breakdown and slow-query log say *which stage* ate the
//! time.

pub mod registry;
pub mod slowlog;
pub mod trace;

pub use registry::{
    bucket_bound, bucket_index, global, Counter, Gauge, Histogram, HistogramSnapshot,
    MetricsSnapshot, Registry, BUCKETS,
};
pub use slowlog::{SlowLog, SlowQuery, DEFAULT_CAPACITY};
pub use trace::{enabled, set_enabled, stages_total, Span, Stages, Trace};
