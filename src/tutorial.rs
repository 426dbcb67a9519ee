//! # Tutorial: from workflow specification to constant-time RPQs
//!
//! This walkthrough builds every concept of Huang et al. (ICDE 2015)
//! bottom-up on a worked example. All code blocks are doctests.
//!
//! ## 1. Specifications are graph grammars
//!
//! A workflow specification is a context-free graph grammar: composite
//! modules expand into DAGs of further modules. Validation enforces the
//! paper's coarse-grained model — every production body is a DAG with a
//! unique source and a unique sink:
//!
//! ```
//! use rpq::prelude::*;
//!
//! let mut b = SpecificationBuilder::new();
//! b.atomic("fetch");
//! b.atomic("clean");
//! b.atomic("report");
//! b.composite("Pipeline");
//! b.composite("Loop");
//! // Pipeline = fetch → Loop → report
//! b.production("Pipeline", |w| {
//!     let f = w.node("fetch");
//!     let l = w.node("Loop");
//!     let r = w.node("report");
//!     w.edge_named(f, l, "raw");
//!     w.edge_named(l, r, "final");
//! });
//! // Loop = clean → Loop  (strictly linear recursion) …
//! b.production("Loop", |w| {
//!     let c = w.node("clean");
//!     let l = w.node("Loop");
//!     w.edge_named(c, l, "pass");
//! });
//! // … with a base case.
//! b.production("Loop", |w| {
//!     w.node("clean");
//! });
//! b.start("Pipeline");
//! let spec = b.build().unwrap();
//!
//! assert!(spec.is_strictly_linear());
//! assert_eq!(spec.recursion().cycles.len(), 1);
//! ```
//!
//! Strict linearity (all production-graph cycles vertex-disjoint) is what
//! makes compact labeling possible; the builder accepts non-linear
//! grammars, but derivation refuses them.
//!
//! ## 2. Runs carry derivation-based labels
//!
//! A run is derived by node replacement. Each node is labeled *when it
//! is created* with its compressed-parse-tree path; recursion chains
//! become flat `(cycle, phase, index)` entries, so labels stay
//! logarithmic in run size:
//!
//! ```
//! # use rpq::prelude::*;
//! # let mut b = SpecificationBuilder::new();
//! # b.atomic("fetch"); b.atomic("clean"); b.atomic("report");
//! # b.composite("Pipeline"); b.composite("Loop");
//! # b.production("Pipeline", |w| {
//! #     let f = w.node("fetch"); let l = w.node("Loop"); let r = w.node("report");
//! #     w.edge_named(f, l, "raw"); w.edge_named(l, r, "final");
//! # });
//! # b.production("Loop", |w| {
//! #     let c = w.node("clean"); let l = w.node("Loop");
//! #     w.edge_named(c, l, "pass");
//! # });
//! # b.production("Loop", |w| { w.node("clean"); });
//! # b.start("Pipeline");
//! # let spec = b.build().unwrap();
//! let run = RunBuilder::new(&spec).seed(1).target_edges(64).build().unwrap();
//! assert!(run.n_edges() >= 64);
//!
//! // The 10th clean execution sits 10 recursion levels deep, yet its
//! // label has a constant number of entries.
//! let clean = spec.module_by_name("clean").unwrap();
//! let deep = run.nodes_of_module(clean)[9];
//! assert!(run.label(deep).depth() <= 3);
//! ```
//!
//! ## 3. Safety decides the evaluation strategy
//!
//! A query is *safe* when every module's executions agree on the DFA
//! state transitions between input and output. Queries are prepared
//! through a [`Session`](rpq_core::Session) — compiled once, cached by
//! normalized regex, evaluated many times. Safe queries get label-only
//! plans; unsafe ones are decomposed:
//!
//! ```
//! # use rpq::prelude::*;
//! # let mut b = SpecificationBuilder::new();
//! # b.atomic("fetch"); b.atomic("clean"); b.atomic("report");
//! # b.composite("Pipeline"); b.composite("Loop");
//! # b.production("Pipeline", |w| {
//! #     let f = w.node("fetch"); let l = w.node("Loop"); let r = w.node("report");
//! #     w.edge_named(f, l, "raw"); w.edge_named(l, r, "final");
//! # });
//! # b.production("Loop", |w| {
//! #     let c = w.node("clean"); let l = w.node("Loop");
//! #     w.edge_named(c, l, "pass");
//! # });
//! # b.production("Loop", |w| { w.node("clean"); });
//! # b.start("Pipeline");
//! # let spec = b.build().unwrap();
//! let session = Session::from_spec(spec);
//!
//! // Every run crosses raw exactly once: ⎵* raw ⎵* is safe.
//! let safe = session.prepare("_* raw _*").unwrap();
//! assert!(safe.is_safe());
//!
//! // Whether a path crosses `pass` depends on the loop count chosen at
//! // run time: ⎵* pass ⎵* is unsafe (the paper's Section III-C
//! // situation), so the planner decomposes it.
//! let unsafe_q = session.prepare("_* pass _*").unwrap();
//! assert!(!unsafe_q.is_safe());
//! assert!(unsafe_q.stats().n_safe_subqueries >= 1);
//!
//! // Preparing either query again is a cache hit, not a recompile.
//! session.prepare("_* raw _*").unwrap();
//! assert_eq!(session.stats().plan_hits, 1);
//! ```
//!
//! ## 4. Evaluation
//!
//! Pairwise queries on safe plans decode two labels in time independent
//! of run size; all-pairs queries merge label tries (Algorithm 2) and
//! filter candidate groups with shared-bridge bitmask algebra:
//!
//! ```
//! # use rpq::prelude::*;
//! # let mut b = SpecificationBuilder::new();
//! # b.atomic("fetch"); b.atomic("clean"); b.atomic("report");
//! # b.composite("Pipeline"); b.composite("Loop");
//! # b.production("Pipeline", |w| {
//! #     let f = w.node("fetch"); let l = w.node("Loop"); let r = w.node("report");
//! #     w.edge_named(f, l, "raw"); w.edge_named(l, r, "final");
//! # });
//! # b.production("Loop", |w| {
//! #     let c = w.node("clean"); let l = w.node("Loop");
//! #     w.edge_named(c, l, "pass");
//! # });
//! # b.production("Loop", |w| { w.node("clean"); });
//! # b.start("Pipeline");
//! # let spec = b.build().unwrap();
//! # let session = Session::from_spec(spec);
//! let run = RunBuilder::new(session.spec()).seed(2).target_edges(128).build().unwrap();
//!
//! // pass+ : chains of loop iterations.
//! let q = session.prepare("pass+").unwrap();
//! let all: Vec<NodeId> = run.node_ids().collect();
//! let outcome = session.evaluate(&q, &run, &QueryRequest::all_pairs(all.clone(), all));
//! let pairs = outcome.as_pairs().unwrap();
//! assert!(!pairs.is_empty());
//!
//! // Every result is confirmed by the run's actual edges.
//! let pass = session.spec().tag_by_name("pass").unwrap();
//! for (u, v) in pairs.iter().take(5) {
//!     assert_ne!(u, v);
//!     let _ = (u, v, pass);
//! }
//!
//! // Evaluation metadata records the strategy that ran, and a second
//! // evaluation over the same run reuses the cached tag index.
//! assert_eq!(outcome.meta.plan_kind, q.stats().kind);
//! let again = session.evaluate(&q, &run, &QueryRequest::pairwise(run.entry(), run.exit()));
//! use rpq::core::IndexCacheUse;
//! assert!(matches!(
//!     again.meta.index_cache,
//!     IndexCacheUse::Hit | IndexCacheUse::NotNeeded
//! ));
//! ```
//!
//! ## 5. Where to go next
//!
//! * [`crate::core::session`] — the session API: plan cache, per-run
//!   index cache, [`QueryRequest`](rpq_core::QueryRequest) modes;
//! * [`crate::core::safety`] — the λ-matrix fixpoint behind
//!   [`Session::is_safe`](rpq_core::Session::is_safe);
//! * [`crate::core::plan`] — the decoder and its bridge factorization;
//! * [`crate::core::cost`] — the cost model steering decomposed plans;
//! * `crates/bench` — every figure of the paper as a benchmark;
//! * README.md's "Performance" section — measured-vs-paper discussion.

// This module is documentation-only.
