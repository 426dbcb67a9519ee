#![warn(missing_docs)]

//! Relational substrate for RPQ evaluation over provenance runs.
//!
//! The baselines (G1's bottom-up parse-tree evaluation in particular) and
//! the composition step of the paper's general-query algorithm all
//! manipulate *node-pair relations*: sets of `(u, v)` pairs meaning
//! "some path whose tag string matches the subexpression leads from `u`
//! to `v`". This crate provides:
//!
//! * [`NodePairSet`] — a sorted, deduplicated pair set, the type
//!   answers are returned in;
//! * [`Relation`] — explicit [`Pairs`] plus a symbolic identity flag, so
//!   `ε` and `e*` never materialize the quadratic identity relation.
//!   The pairs stay in the format of the kernel that produced them — a
//!   sorted list or [`BitRelation`] blocked-bitset rows — until the
//!   final selection lists the answer;
//! * composition ([`compose_in`], [`join_in`]), union, and the Kleene
//!   fixpoint ([`closure_in`], [`closure_csr`]) — joins in **two
//!   kernels** (the original sorted-pair/hash implementation and a
//!   bit-parallel one built from [`CsrRelation`] adjacency arenas and
//!   [`BitRelation`] rows) and transitive closure in **three** (those
//!   two plus the condensation pass of [`scc`]: iterative Tarjan SCC +
//!   one reverse-topological bit sweep), dispatched per operator from
//!   the operand sizes and formats ([`kernel`]) — there is nothing to
//!   configure;
//! * [`TagIndex`] — the per-edge-tag inverted index the paper stores on
//!   disk for baseline G3 ("an index maps an edge tag γ ∈ Γ to a list of
//!   node pairs that are connected by an edge tagged γ"), plus
//!   [`CsrIndex`], its CSR mirror cached per run by `rpq-core` sessions.

pub mod bits;
pub mod csr;
pub mod index;
pub mod join;
pub mod kernel;
pub mod relation;
pub mod rowops;
pub mod scc;

pub use bits::BitRelation;
pub use csr::{CsrIndex, CsrRelation};
pub use index::TagIndex;
pub use join::{
    closure_csr, closure_csr_shared, closure_in, compose_in, compose_pairs_bits, compose_pairs_in,
    compose_pairs_kernel, join_in, select_pairs_bits, select_pairs_in, select_pairs_kernel,
    transitive_closure_bitrel, transitive_closure_bits, transitive_closure_csr,
    transitive_closure_pairs, transitive_closure_scc, transitive_closure_scc_csr,
};
pub use kernel::{
    closure_counts, condensation_counts, thread_closure_counts, thread_condensation_counts,
    ClosureCounts, CondensationCounts, Kernel,
};
pub use relation::{NodePairSet, Pairs, Relation};
pub use scc::{Condensation, CondensationCache};
