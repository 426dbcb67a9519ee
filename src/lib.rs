#![warn(missing_docs)]

//! # rpq — Regular Path Queries on Workflow Provenance
//!
//! A from-scratch Rust reproduction of **Huang, Bao, Davidson, Milo, Yuan,
//! "Answering Regular Path Queries on Workflow Provenance" (ICDE 2015)**.
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! * [`automata`] — regexes, NFAs, DFAs, Moore minimization.
//! * [`grammar`] — context-free graph-grammar workflow specifications.
//! * [`labeling`] — runs, derivation, compressed parse trees and the
//!   derivation-based reachability labels of Bao et al. (PVLDB 2012).
//! * [`relalg`] — node-pair relations, joins and Kleene fixpoints.
//! * [`core`] — the paper's contribution: safe-query detection,
//!   query-intersected grammars, constant-time pairwise decoding,
//!   all-pairs tree-merge evaluation and general-query decomposition.
//! * [`baselines`] — the baselines G1, G2, G3 and a brute-force referee.
//! * [`workloads`] — synthetic specifications matching the paper's
//!   datasets, run simulation and query generators.
//! * [`store`] — the persistent multi-run store: run catalog with
//!   fingerprint deduplication, binary-coded runs and warm
//!   tag-index/CSR artifacts, feeding
//!   [`Session::evaluate_batch`](rpq_core::Session::evaluate_batch).
//! * [`serve`] — the network layer: a concurrent TCP query service
//!   over a warm store ([`Server`](rpq_serve::Server)), its binary
//!   protocol, and the [`ServeClient`](rpq_serve::ServeClient) it is
//!   queried with.
//!
//! ## The session API
//!
//! Queries are asked through a [`Session`](rpq_core::Session), the
//! paper's *compile once, evaluate many* economics made explicit:
//! [`Session::prepare`](rpq_core::Session::prepare) compiles a query
//! (safety check, query-intersected grammar, decomposition) into a
//! reusable [`PreparedQuery`](rpq_core::PreparedQuery), and
//! [`Session::evaluate`](rpq_core::Session::evaluate) answers
//! [`QueryRequest`](rpq_core::QueryRequest)s over any number of runs.
//! The session caches compiled plans (by normalized regex) and per-run
//! tag indexes, so neither is ever rebuilt. Every failure mode is the
//! single [`RpqError`](rpq_core::RpqError) enum.
//!
//! ## Quickstart
//!
//! ```
//! use rpq::prelude::*;
//!
//! // The paper's Fig. 2 workflow specification.
//! let spec = rpq::workloads::paper_examples::fig2_spec();
//!
//! // Derive a labeled run (a provenance DAG).
//! let run = RunBuilder::new(&spec).seed(42).target_edges(64).build().unwrap();
//!
//! // Open a session and prepare the paper's query R3 = ⎵* e ⎵*.
//! let session = Session::from_spec(spec);
//! let r3 = session.prepare("_* e _*").unwrap();
//! assert!(r3.is_safe());
//!
//! // Evaluate: all pairs over the whole run.
//! let nodes: Vec<_> = run.node_ids().collect();
//! let outcome = session.evaluate(&r3, &run, &QueryRequest::all_pairs(nodes.clone(), nodes));
//! assert!(!outcome.is_empty());
//!
//! // Pairwise answers decode two labels in constant time.
//! assert!(session.pairwise(&r3, &run, run.entry(), run.exit()));
//! ```

pub mod cli;
pub mod tutorial;

pub use rpq_automata as automata;
pub use rpq_baselines as baselines;
pub use rpq_core as core;
pub use rpq_grammar as grammar;
pub use rpq_labeling as labeling;
pub use rpq_relalg as relalg;
pub use rpq_router as router;
pub use rpq_serve as serve;
pub use rpq_store as store;
pub use rpq_workloads as workloads;

/// Convenience re-exports for the most common entry points.
pub mod prelude {
    pub use rpq_automata::{Regex, Symbol};
    pub use rpq_core::{
        BatchOptions, BatchOutcome, EvalStrategy, PlanKind, PlanStats, PreparedQuery, QueryOutcome,
        QueryPlan, QueryRequest, QueryResult, RpqError, RunSource, SafeQueryPlan, Session,
        SessionStats,
    };
    pub use rpq_grammar::{ModuleId, ProductionId, Specification, SpecificationBuilder, Tag};
    pub use rpq_labeling::{NodeId, Run, RunBuilder};
    pub use rpq_relalg::{NodePairSet, TagIndex};
    pub use rpq_router::{Router, RouterConfig};
    pub use rpq_serve::{ServeClient, ServeConfig, Server};
    pub use rpq_store::{RunId, RunStore, StoreStats};
}
