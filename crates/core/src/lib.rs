#![warn(missing_docs)]

//! The paper's core contribution: answering regular path queries on
//! workflow provenance with derivation-based reachability labels.
//!
//! Pipeline (Huang, Bao, Davidson, Milo, Yuan — ICDE 2015):
//!
//! 1. compile the query to its **minimal DFA** (`rpq-automata`);
//! 2. **check safety** w.r.t. the workflow specification via the λ-matrix
//!    fixpoint ([`safety`], Section III-C) — the verdict first, the
//!    port-graph closures only for a query found safe;
//! 3. for safe queries, build the implicit **query-intersected
//!    specification** `G_R` as per-production port-graph closures
//!    ([`portgraph`], Section III-B) and compile a [`SafeQueryPlan`];
//! 4. answer **pairwise** queries in constant time per pair by decoding
//!    the two nodes' labels ([`plan`], Algorithm 1);
//! 5. answer **all-pairs** queries with a tree-merge structural join over
//!    label tries ([`allpairs`], Algorithm 2 — Options S1/S2);
//! 6. **decompose** unsafe queries into maximal safe subtrees composed
//!    relationally ([`general`], Section IV-B).
//!
//! [`Session`] is the high-level entry point: it owns the
//! specification, caches compiled plans ([`PreparedQuery`]) and per-run
//! tag indexes, and answers [`QueryRequest`]s with [`QueryOutcome`]s.
//! Every failure mode surfaces as the single [`RpqError`] enum.

pub mod allpairs;
pub mod batch;
pub mod cost;
pub mod error;
pub mod general;
pub mod lazy;
pub mod matrix;
pub mod plan;
pub mod portgraph;
pub mod request;
pub mod safety;
pub mod session;

pub use allpairs::{
    all_pairs_filtered, all_pairs_nested, all_pairs_reachability, all_pairs_relation,
};
pub use batch::{BatchItem, BatchOptions, BatchOutcome, RunRef, RunSource};
pub use cost::{ChainOrder, CostModel};
pub use error::RpqError;
pub use general::{
    all_pairs, all_pairs_csr, eval_node, joins_beat_labels, pairwise, pairwise_csr, plan_query,
    relational_node, EvalCtx, PlanNode, QueryPlan,
};
pub use lazy::{lazy_counts, thread_expansions, EvalStrategy, LazyCounts, LazyEval};
pub use matrix::StateMatrix;
pub use plan::{PlanError, SafeQueryPlan};
pub use portgraph::{BodyMatrices, EdgeSteps};
pub use request::{EvalMeta, IndexCacheUse, PlanKind, QueryOutcome, QueryRequest, QueryResult};
pub use safety::{body_matrices, check_safety, lambda_fixpoint, SafetyOutcome};
pub use session::{PlanStats, PreparedQuery, Session, SessionStats};
