//! Compiled safe-query plans and the pairwise label decoder.
//!
//! [`SafeQueryPlan`] packages everything Algorithm 1 needs: the minimal
//! DFA, λ matrices, per-production port-graph closures (the implicit
//! `G_R` of Section III-B) and, per recursion cycle, the step matrices
//! *and their period-product binary powers*, so the decoder jumps over
//! arbitrarily many recursion unfoldings in `O(log n)` bitmask
//! operations. Given the labels of two nodes, [`SafeQueryPlan::pairwise`]
//! answers `u —R→ v` in time independent of the run size, without heap
//! allocation.
//!
//! ## Decoding
//!
//! Write both labels from their divergence point (the lowest common
//! ancestor in the compressed parse tree). Any `u → v` path in the run
//! must exit `u`'s enclosing sub-runs through their unique exit nodes,
//! cross the LCA's production body (or recursion chain), and enter `v`'s
//! enclosing sub-runs through their unique entry nodes; the state
//! matrices compose accordingly:
//!
//! * same-production divergence `(k,i)` vs `(k,j)`:
//!   `exit(u…) · between_k(i, j) · enter(v…)`;
//! * recursion divergence `(s,t,a)` vs `(s,t,b)` with `a < b` (v nested
//!   deeper): `exit(u…) · between_{k_a}(i₁, rec) · desc^{b-a-1} ·
//!   enter(v…)`;
//! * `a > b` (u nested deeper): `exit(u…) · asc^{a-b-1} ·
//!   between_{k_b}(rec, j₁) · enter(v…)`.
//!
//! The pairwise decoder propagates the start-state **row bitmask**
//! through this product left-to-right. The all-pairs evaluator
//! ([`crate::allpairs`]) splits the same product at the divergence
//! point: each `u` carries its exit row, each `v` its enter **column**
//! (the states from which `v`'s entry chain reaches acceptance), the
//! middle factor is applied to rows or columns one entry, one body
//! closure or one run of unfoldings at a time, and a pair matches iff
//! row `AND` column `≠ 0`.

use crate::matrix::StateMatrix;
use crate::portgraph::BodyMatrices;
use crate::safety::{body_matrices, lambda_fixpoint};
use rpq_automata::Dfa;
use rpq_grammar::{ProductionId, Specification};
use rpq_labeling::{Label, LabelEntry, NodeId, Run};
use std::fmt;

/// Why a safe plan could not be produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The minimal DFA exceeds the 64-state matrix cap.
    TooManyStates(usize),
    /// The specification is not strictly linear-recursive.
    NotStrictlyLinear,
    /// The query is not safe w.r.t. the specification (the interesting
    /// case — callers fall back to decomposition, Section IV-B).
    Unsafe {
        /// A production whose executions disagree.
        witness: ProductionId,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::TooManyStates(n) => write!(f, "minimal DFA has {n} states (max 64)"),
            PlanError::NotStrictlyLinear => {
                write!(f, "specification is not strictly linear-recursive")
            }
            PlanError::Unsafe { witness } => {
                write!(f, "query is unsafe (witness production #{})", witness.0)
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Cap on precomputed period-power levels (`2^47` unfoldings — far
/// beyond any materializable run). A table ends earlier at its first
/// idempotent power: every higher power equals it.
const POW_LEVELS: usize = 48;

/// Per-cycle decoding tables.
#[derive(Debug, Clone)]
struct CyclePlan {
    len: usize,
    /// Per phase: the cycle production and its recursive body position.
    production: Vec<ProductionId>,
    rec_pos: Vec<usize>,
    /// Per phase φ: body-input → in(rec position) of the φ-cycle
    /// production (one descent step).
    desc_step: Vec<StateMatrix>,
    /// Per phase φ: out(rec position) → body-output (one ascent step).
    asc_step: Vec<StateMatrix>,
    /// `desc_pows[p][k]` = (product of one descent period starting at
    /// phase `p`)^(2^k), up to the first idempotent level (see
    /// [`power_table`]).
    desc_pows: Vec<Vec<StateMatrix>>,
    /// `asc_pows[p][k]` = (product of one ascent period starting at
    /// phase `p`, phases descending)^(2^k).
    asc_pows: Vec<Vec<StateMatrix>>,
}

impl CyclePlan {
    /// Compute the period-product power tables from the step matrices:
    /// one descent/ascent period per starting phase, then repeated
    /// squarings ([`power_table`]).
    fn rebuild_pows(&mut self, n: usize) {
        let len = self.len;
        self.desc_pows = Vec::with_capacity(len);
        self.asc_pows = Vec::with_capacity(len);
        for p in 0..len {
            let mut dp = StateMatrix::identity(n);
            let mut ap = StateMatrix::identity(n);
            for i in 0..len {
                dp = dp.mul(&self.desc_step[(p + i) % len]);
                ap = ap.mul(&self.asc_step[(p + len - i % len) % len]);
            }
            self.desc_pows.push(power_table(dp));
            self.asc_pows.push(power_table(ap));
        }
    }

    /// Phase of the `c`-th recursion child (1-based) for a chain
    /// starting at phase `t`.
    #[inline]
    fn phase(&self, t: u64, c: u64) -> usize {
        ((t + c - 1) % self.len as u64) as usize
    }

    /// Full matrix of `count` descent steps with phases `p0, p0+1, …`.
    fn desc_range(&self, p0: usize, count: u64) -> StateMatrix {
        let n = self.desc_step[0].dim();
        let l = self.len as u64;
        if count <= 2 * l {
            let mut m = StateMatrix::identity(n);
            for i in 0..count {
                m = m.mul(&self.desc_step[(p0 as u64 + i) as usize % self.len]);
            }
            return m;
        }
        let (q, r) = (count / l, count % l);
        let mut m = pow_from_table(&self.desc_pows[p0], q, n);
        for i in 0..r {
            m = m.mul(&self.desc_step[(p0 as u64 + i) as usize % self.len]);
        }
        m
    }

    /// Full matrix of `count` ascent steps with phases `p0, p0-1, …`.
    fn asc_range(&self, p0: usize, count: u64) -> StateMatrix {
        let n = self.asc_step[0].dim();
        let l = self.len as u64;
        let step = |i: u64| &self.asc_step[((p0 as u64 + l - (i % l)) % l) as usize];
        if count <= 2 * l {
            let mut m = StateMatrix::identity(n);
            for i in 0..count {
                m = m.mul(step(i));
            }
            return m;
        }
        let (q, r) = (count / l, count % l);
        let mut m = pow_from_table(&self.asc_pows[p0], q, n);
        for i in 0..r {
            m = m.mul(step(i));
        }
        m
    }

    /// `row · descⁿ` without allocating.
    fn desc_row(&self, mut row: u64, p0: usize, count: u64) -> u64 {
        let l = self.len as u64;
        let (q, r) = if count > 2 * l {
            (count / l, count % l)
        } else {
            (0, count)
        };
        if q > 0 {
            row = row_pow(&self.desc_pows[p0], q, row);
        }
        for i in 0..r {
            row = self.desc_step[(p0 as u64 + i) as usize % self.len].row_mul(row);
        }
        row
    }

    /// `descⁿ · col` without allocating.
    fn desc_col(&self, mut col: u64, p0: usize, count: u64) -> u64 {
        let l = self.len as u64;
        let (q, r) = if count > 2 * l {
            (count / l, count % l)
        } else {
            (0, count)
        };
        // M = P^q · partial; apply the partial steps to the column
        // first (right to left).
        for i in (0..r).rev() {
            col = self.desc_step[(p0 as u64 + i) as usize % self.len].col_mul(col);
        }
        if q > 0 {
            col = col_pow(&self.desc_pows[p0], q, col);
        }
        col
    }

    /// `ascⁿ · col` without allocating (phases descend from `p0`): the
    /// column mirror of [`CyclePlan::asc_row`].
    fn asc_col(&self, mut col: u64, p0: usize, count: u64) -> u64 {
        let l = self.len as u64;
        let step = |i: u64| &self.asc_step[((p0 as u64 + l - (i % l)) % l) as usize];
        let (q, r) = if count > 2 * l {
            (count / l, count % l)
        } else {
            (0, count)
        };
        for i in (0..r).rev() {
            col = step(i).col_mul(col);
        }
        if q > 0 {
            col = col_pow(&self.asc_pows[p0], q, col);
        }
        col
    }

    /// `row · ascⁿ` without allocating (phases descend).
    fn asc_row(&self, mut row: u64, p0: usize, count: u64) -> u64 {
        let l = self.len as u64;
        let step = |i: u64| &self.asc_step[((p0 as u64 + l - (i % l)) % l) as usize];
        let (q, r) = if count > 2 * l {
            (count / l, count % l)
        } else {
            (0, count)
        };
        if q > 0 {
            row = row_pow(&self.asc_pows[p0], q, row);
        }
        for i in 0..r {
            row = step(i).row_mul(row);
        }
        row
    }
}

/// `[P, P², P⁴, …]` by repeated squaring, ending at the first idempotent
/// power (or at [`POW_LEVELS`]). Boolean matrix powers of a safe query's
/// period product settle within a few squarings, so tables hold a
/// handful of levels instead of 48.
fn power_table(period: StateMatrix) -> Vec<StateMatrix> {
    let mut pows = vec![period];
    while pows.len() < POW_LEVELS {
        let last = pows.last().expect("starts non-empty");
        let square = last.mul(last);
        if square == *last {
            break;
        }
        pows.push(square);
    }
    pows
}

/// The factors of `P^q` in a [`power_table`]: the levels of `q`'s set
/// bits below the last level, and the last level once if any bit at or
/// above it is set — exact for an idempotent last level, and for a full
/// table while `q < 2^POW_LEVELS`. Powers of one matrix commute, so
/// application order is free.
fn pow_factors(pows: &[StateMatrix], q: u64) -> impl Iterator<Item = &StateMatrix> {
    let last = pows.len() - 1;
    debug_assert!(
        last < POW_LEVELS - 1 || q >> POW_LEVELS == 0,
        "period power overflow"
    );
    let saturated = (q >> last != 0).then(|| &pows[last]);
    pows[..last]
        .iter()
        .enumerate()
        .filter(move |(k, _)| q >> k & 1 == 1)
        .map(|(_, p)| p)
        .chain(saturated)
}

/// `P^q` from a binary power table.
fn pow_from_table(pows: &[StateMatrix], q: u64, n: usize) -> StateMatrix {
    pow_factors(pows, q).fold(StateMatrix::identity(n), |m, p| m.mul(p))
}

/// `row · P^q` via the power table.
fn row_pow(pows: &[StateMatrix], q: u64, row: u64) -> u64 {
    pow_factors(pows, q).fold(row, |row, p| p.row_mul(row))
}

/// `P^q · col` via the power table.
fn col_pow(pows: &[StateMatrix], q: u64, col: u64) -> u64 {
    pow_factors(pows, q).fold(col, |col, p| p.col_mul(col))
}

/// A compiled plan for one safe query against one specification.
#[derive(Debug, Clone)]
pub struct SafeQueryPlan {
    dfa: Dfa,
    start_state: usize,
    accepting_mask: u64,
    epsilon: bool,
    lambda: Vec<StateMatrix>,
    bodies: Vec<BodyMatrices>,
    cycles: Vec<CyclePlan>,
}

impl SafeQueryPlan {
    /// Compile a plan from a *minimal* DFA. Checks strict linearity and
    /// safety; on success the plan answers pairwise queries in constant
    /// time w.r.t. run size. An unsafe query is rejected by the λ
    /// fixpoint alone — port-graph closures and cycle tables are built
    /// only once the verdict is in.
    pub fn compile(spec: &Specification, dfa: Dfa) -> Result<SafeQueryPlan, PlanError> {
        let lambda = SafeQueryPlan::check(spec, &dfa)?;
        Ok(SafeQueryPlan::assemble(spec, dfa, lambda))
    }

    /// The checks of [`SafeQueryPlan::compile`] — size, linearity, the λ
    /// fixpoint — without building a plan: λ(M) per module when they
    /// pass.
    pub(crate) fn check(spec: &Specification, dfa: &Dfa) -> Result<Vec<StateMatrix>, PlanError> {
        if dfa.n_states() > crate::matrix::MAX_STATES {
            return Err(PlanError::TooManyStates(dfa.n_states()));
        }
        if !spec.is_strictly_linear() {
            return Err(PlanError::NotStrictlyLinear);
        }
        lambda_fixpoint(spec, dfa).map_err(|witness| PlanError::Unsafe { witness })
    }

    /// Build the plan of a query [`SafeQueryPlan::check`] passed, from
    /// the λ it returned.
    pub(crate) fn assemble(
        spec: &Specification,
        dfa: Dfa,
        lambda: Vec<StateMatrix>,
    ) -> SafeQueryPlan {
        let bodies = body_matrices(spec, &dfa, &lambda);
        let n = dfa.n_states();
        let cycles = spec
            .recursion()
            .cycles
            .iter()
            .map(|cycle| {
                let len = cycle.len();
                let mut production = Vec::with_capacity(len);
                let mut rec_pos = Vec::with_capacity(len);
                let mut desc_step = Vec::with_capacity(len);
                let mut asc_step = Vec::with_capacity(len);
                for e in &cycle.edges {
                    let bm = &bodies[e.production.index()];
                    production.push(e.production);
                    rec_pos.push(e.body_pos as usize);
                    desc_step.push(bm.down(e.body_pos as usize).clone());
                    asc_step.push(bm.up(e.body_pos as usize).clone());
                }
                let mut plan = CyclePlan {
                    len,
                    production,
                    rec_pos,
                    desc_step,
                    asc_step,
                    desc_pows: Vec::new(),
                    asc_pows: Vec::new(),
                };
                plan.rebuild_pows(n);
                plan
            })
            .collect();

        let mut accepting_mask = 0u64;
        for (q, &acc) in dfa.accepting().iter().enumerate() {
            if acc {
                accepting_mask |= 1 << q;
            }
        }
        SafeQueryPlan {
            start_state: dfa.start() as usize,
            accepting_mask,
            epsilon: dfa.accepts_epsilon(),
            lambda,
            bodies,
            cycles,
            dfa,
        }
    }

    /// The minimal DFA the plan was compiled from.
    pub fn dfa(&self) -> &Dfa {
        &self.dfa
    }

    /// Number of DFA states `|Q|`.
    pub fn n_states(&self) -> usize {
        self.dfa.n_states()
    }

    /// Does the query accept the empty path (`u —R→ u` on a DAG)?
    pub fn accepts_epsilon(&self) -> bool {
        self.epsilon
    }

    /// λ matrix of a module (for diagnostics and tests).
    pub fn lambda(&self, module: rpq_grammar::ModuleId) -> &StateMatrix {
        &self.lambda[module.index()]
    }

    /// Is this the trivial reachability plan (`⎵*`)?
    pub fn is_reachability(&self) -> bool {
        self.dfa.n_states() == 1 && self.epsilon
    }

    /// Accepting-state bitmask.
    pub fn accepting_mask(&self) -> u64 {
        self.accepting_mask
    }

    /// The DFA start state.
    pub fn start_state(&self) -> usize {
        self.start_state
    }

    /// Answer the pairwise query `u —R→ v` from labels alone
    /// (Algorithm 1 / Theorem 1). Allocation-free.
    pub fn pairwise(&self, run: &Run, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return self.epsilon;
        }
        self.pairwise_labels(run.label(u), run.label(v))
    }

    /// Pairwise decode from raw labels (distinct leaves of one run).
    pub fn pairwise_labels(&self, lu: &Label, lv: &Label) -> bool {
        let cp = lu.common_prefix_len(lv);
        let eu = &lu.entries()[cp..];
        let ev = &lv.entries()[cp..];
        debug_assert!(
            !eu.is_empty() && !ev.is_empty(),
            "labels of distinct leaves diverge strictly before both ends"
        );
        let q0 = 1u64 << self.start_state;
        let row = match (eu[0], ev[0]) {
            (
                LabelEntry::Prod {
                    production: k1,
                    pos: i,
                },
                LabelEntry::Prod { pos: j, .. },
            ) => {
                let row = self.exit_row(q0, &eu[1..]);
                let row = self.bodies[k1.index()]
                    .between(i as usize, j as usize)
                    .row_mul(row);
                self.enter_row(row, &ev[1..])
            }
            (
                LabelEntry::Rec {
                    cycle,
                    start_phase,
                    idx: a,
                },
                LabelEntry::Rec { idx: b, .. },
            ) => {
                let cpl = &self.cycles[cycle as usize];
                let t = start_phase as u64;
                if a < b {
                    let (ka, i1) = expect_prod(&eu[1]);
                    debug_assert_eq!(ka, cpl.production[cpl.phase(t, a as u64)]);
                    let rp = cpl.rec_pos[cpl.phase(t, a as u64)];
                    let row = self.exit_row(q0, &eu[2..]);
                    let row = self.bodies[ka.index()].between(i1, rp).row_mul(row);
                    let row = cpl.desc_row(row, cpl.phase(t, a as u64 + 1), (b - a - 1) as u64);
                    self.enter_row(row, &ev[1..])
                } else {
                    let (kb, j1) = expect_prod(&ev[1]);
                    debug_assert_eq!(kb, cpl.production[cpl.phase(t, b as u64)]);
                    let rp = cpl.rec_pos[cpl.phase(t, b as u64)];
                    let row = self.exit_row(q0, &eu[1..]);
                    let row = cpl.asc_row(row, cpl.phase(t, a as u64 - 1), (a - b - 1) as u64);
                    let row = self.bodies[kb.index()].between(rp, j1).row_mul(row);
                    self.enter_row(row, &ev[2..])
                }
            }
            _ => unreachable!("siblings are either all production or all recursion children"),
        };
        row & self.accepting_mask != 0
    }

    /// The full state-transition matrix from `out(u)` to `in(v)` (test
    /// and diagnostics API; production paths use bitmask rows instead).
    pub fn decode_matrix(&self, lu: &Label, lv: &Label) -> StateMatrix {
        let cp = lu.common_prefix_len(lv);
        let eu = &lu.entries()[cp..];
        let ev = &lv.entries()[cp..];
        debug_assert!(!eu.is_empty() && !ev.is_empty());
        match (eu[0], ev[0]) {
            (
                LabelEntry::Prod {
                    production: k1,
                    pos: i,
                },
                LabelEntry::Prod { pos: j, .. },
            ) => {
                let bm = &self.bodies[k1.index()];
                self.exit_matrix(&eu[1..])
                    .mul(bm.between(i as usize, j as usize))
                    .mul(&self.enter_matrix(&ev[1..]))
            }
            (
                LabelEntry::Rec {
                    cycle,
                    start_phase,
                    idx: a,
                },
                LabelEntry::Rec { idx: b, .. },
            ) => {
                let cpl = &self.cycles[cycle as usize];
                let t = start_phase as u64;
                if a < b {
                    let (ka, i1) = expect_prod(&eu[1]);
                    let rp = cpl.rec_pos[cpl.phase(t, a as u64)];
                    self.exit_matrix(&eu[2..])
                        .mul(self.bodies[ka.index()].between(i1, rp))
                        .mul(&cpl.desc_range(cpl.phase(t, a as u64 + 1), (b - a - 1) as u64))
                        .mul(&self.enter_matrix(&ev[1..]))
                } else {
                    let (kb, j1) = expect_prod(&ev[1]);
                    let rp = cpl.rec_pos[cpl.phase(t, b as u64)];
                    self.exit_matrix(&eu[1..])
                        .mul(&cpl.asc_range(cpl.phase(t, a as u64 - 1), (a - b - 1) as u64))
                        .mul(self.bodies[kb.index()].between(rp, j1))
                        .mul(&self.enter_matrix(&ev[2..]))
                }
            }
            _ => unreachable!("siblings are either all production or all recursion children"),
        }
    }

    // -- Split decoding (Algorithm 2's output step) ----------------------
    //
    // A source's state set travels as a row, a target's as a column;
    // the helpers below move either one step of the decode product at
    // a time. Every one is linear in the row or column (`row·M`
    // distributes over OR), which is what lets the all-pairs merge
    // test OR-aggregates of whole subtrees exactly.

    /// `out(x_i) → in(x_j)` in production `k`'s body (zero when `x_j`
    /// is unreachable from `x_i`).
    pub(crate) fn between(&self, k: ProductionId, i: usize, j: usize) -> &StateMatrix {
        self.bodies[k.index()].between(i, j)
    }

    /// One label entry of an exit chain applied to a row: from the
    /// output of the entry's node to the output of its parent.
    pub(crate) fn exit_step(&self, row: u64, e: LabelEntry) -> u64 {
        match e {
            LabelEntry::Prod { production, pos } => self.bodies[production.index()]
                .up(pos as usize)
                .row_mul(row),
            LabelEntry::Rec {
                cycle,
                start_phase,
                idx,
            } => {
                if idx > 1 {
                    let cpl = &self.cycles[cycle as usize];
                    cpl.asc_row(
                        row,
                        cpl.phase(start_phase as u64, idx as u64 - 1),
                        idx as u64 - 1,
                    )
                } else {
                    row
                }
            }
        }
    }

    /// One label entry of an enter chain applied to a column: from the
    /// input of the entry's node back to the input of its parent.
    pub(crate) fn enter_step(&self, col: u64, e: LabelEntry) -> u64 {
        match e {
            LabelEntry::Prod { production, pos } => self.bodies[production.index()]
                .down(pos as usize)
                .col_mul(col),
            LabelEntry::Rec {
                cycle,
                start_phase,
                idx,
            } => {
                if idx > 1 {
                    let cpl = &self.cycles[cycle as usize];
                    cpl.desc_col(col, start_phase as usize, idx as u64 - 1)
                } else {
                    col
                }
            }
        }
    }

    /// A row at the input of child `from` of a recursion chain (cycle
    /// `cycle`, starting at phase `start_phase`) carried down to the
    /// input of child `to ≥ from`.
    pub(crate) fn chain_desc_row(
        &self,
        cycle: u16,
        start_phase: u16,
        from: u32,
        to: u32,
        row: u64,
    ) -> u64 {
        if from == to {
            return row;
        }
        let cpl = &self.cycles[cycle as usize];
        cpl.desc_row(
            row,
            cpl.phase(start_phase as u64, from as u64),
            (to - from) as u64,
        )
    }

    /// A column at the output of child `from` of a recursion chain
    /// carried to the output of child `to ≥ from`: the pairs it then
    /// matches are rows at out(`to`) that ascend to out(`from`).
    pub(crate) fn chain_asc_col(
        &self,
        cycle: u16,
        start_phase: u16,
        from: u32,
        to: u32,
        col: u64,
    ) -> u64 {
        if from == to {
            return col;
        }
        let cpl = &self.cycles[cycle as usize];
        cpl.asc_col(
            col,
            cpl.phase(start_phase as u64, to as u64 - 1),
            (to - from) as u64,
        )
    }

    // -- Row/column chain propagation ------------------------------------

    /// `row · exit-chain`: out(u) upward to out(top sub-run); entries
    /// compose deepest-first.
    fn exit_row(&self, row: u64, entries: &[LabelEntry]) -> u64 {
        entries
            .iter()
            .rev()
            .fold(row, |row, &e| self.exit_step(row, e))
    }

    /// `row · enter-chain`: in(top sub-run) downward to in(v).
    fn enter_row(&self, mut row: u64, entries: &[LabelEntry]) -> u64 {
        for e in entries {
            match *e {
                LabelEntry::Prod { production, pos } => {
                    row = self.bodies[production.index()]
                        .down(pos as usize)
                        .row_mul(row);
                }
                LabelEntry::Rec {
                    cycle,
                    start_phase,
                    idx,
                } => {
                    if idx > 1 {
                        let cpl = &self.cycles[cycle as usize];
                        row = cpl.desc_row(row, start_phase as usize, idx as u64 - 1);
                    }
                }
            }
        }
        row
    }

    /// Full exit-chain matrix (diagnostics/tests).
    fn exit_matrix(&self, entries: &[LabelEntry]) -> StateMatrix {
        let mut m = StateMatrix::identity(self.n_states());
        for e in entries.iter().rev() {
            match *e {
                LabelEntry::Prod { production, pos } => {
                    m = m.mul(self.bodies[production.index()].up(pos as usize));
                }
                LabelEntry::Rec {
                    cycle,
                    start_phase,
                    idx,
                } => {
                    if idx > 1 {
                        let cpl = &self.cycles[cycle as usize];
                        m = m.mul(&cpl.asc_range(
                            cpl.phase(start_phase as u64, idx as u64 - 1),
                            idx as u64 - 1,
                        ));
                    }
                }
            }
        }
        m
    }

    /// Full enter-chain matrix (diagnostics/tests).
    fn enter_matrix(&self, entries: &[LabelEntry]) -> StateMatrix {
        let mut m = StateMatrix::identity(self.n_states());
        for e in entries {
            match *e {
                LabelEntry::Prod { production, pos } => {
                    m = m.mul(self.bodies[production.index()].down(pos as usize));
                }
                LabelEntry::Rec {
                    cycle,
                    start_phase,
                    idx,
                } => {
                    if idx > 1 {
                        let cpl = &self.cycles[cycle as usize];
                        m = m.mul(&cpl.desc_range(start_phase as usize, idx as u64 - 1));
                    }
                }
            }
        }
        m
    }
}

fn expect_prod(e: &LabelEntry) -> (ProductionId, usize) {
    match *e {
        LabelEntry::Prod { production, pos } => (production, pos as usize),
        LabelEntry::Rec { .. } => {
            unreachable!("a recursion child's own children carry production entries")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::{compile_minimal_dfa, parse, Symbol};
    use rpq_grammar::SpecificationBuilder;
    use rpq_labeling::{RunBuilder, Scripted};

    fn fig2() -> Specification {
        let mut b = SpecificationBuilder::new();
        for m in ["a", "b", "c", "d", "e"] {
            b.atomic(m);
        }
        for m in ["S", "A", "B"] {
            b.composite(m);
        }
        b.production("S", |w| {
            let c = w.node("c");
            let a = w.node("A");
            let bb = w.node("B");
            let b2 = w.node("b");
            // W1 is a diamond: c feeds both A and B, which both feed b
            // (the only shape consistent with Examples 3.1 and 3.2).
            w.edge(c, a);
            w.edge(c, bb);
            w.edge(a, b2);
            w.edge(bb, b2);
        });
        b.production("A", |w| {
            let a = w.node("a");
            let aa = w.node("A");
            let d = w.node("d");
            // The paper's unsafe example ⎵* a ⎵* needs an `a` tag that
            // only W2 executions cross.
            w.edge_named(a, aa, "a");
            w.edge(aa, d);
        });
        b.production("A", |w| {
            let e1 = w.node("e");
            let e2 = w.node("e");
            w.edge(e1, e2);
        });
        b.production("B", |w| {
            let b1 = w.node("b");
            let b2 = w.node("b");
            w.edge(b1, b2);
        });
        b.start("S");
        b.build().unwrap()
    }

    fn plan(spec: &Specification, text: &str) -> SafeQueryPlan {
        let re = parse(text, &mut |n| spec.tag_by_name(n).map(|t| Symbol(t.0))).unwrap();
        let dfa = compile_minimal_dfa(&re, spec.n_tags());
        SafeQueryPlan::compile(spec, dfa).unwrap()
    }

    fn fig2_run(spec: &Specification) -> rpq_labeling::Run {
        RunBuilder::new(spec)
            .policy(Scripted::new([
                ProductionId(0),
                ProductionId(1),
                ProductionId(1),
                ProductionId(2),
                ProductionId(3),
            ]))
            .build()
            .unwrap()
    }

    #[test]
    fn example_3_2_pairwise_results() {
        // R3 = ⎵* e ⎵* evaluates to true for (c:1, b:1) but false for
        // (c:1, b:3) — Section III-B, Example 3.2.
        let spec = fig2();
        let run = fig2_run(&spec);
        let p = plan(&spec, "_* e _*");
        let n = |s: &str| run.node_by_name(&spec, s).unwrap();
        assert!(p.pairwise(&run, n("c:1"), n("b:1")));
        assert!(!p.pairwise(&run, n("c:1"), n("b:3")));
    }

    #[test]
    fn reachability_plan_matches_bfs() {
        let spec = fig2();
        let run = fig2_run(&spec);
        let p = plan(&spec, "_*");
        assert!(p.is_reachability());
        let reach = |u: NodeId, v: NodeId| {
            let mut seen = vec![false; run.n_nodes()];
            let mut stack = vec![u];
            seen[u.index()] = true;
            while let Some(x) = stack.pop() {
                if x == v {
                    return true;
                }
                for &(to, _) in run.out_edges(x) {
                    if !seen[to.index()] {
                        seen[to.index()] = true;
                        stack.push(to);
                    }
                }
            }
            false
        };
        for u in run.node_ids() {
            for v in run.node_ids() {
                assert_eq!(
                    p.pairwise(&run, u, v),
                    reach(u, v),
                    "reach({}, {})",
                    run.node_name(&spec, u),
                    run.node_name(&spec, v)
                );
            }
        }
    }

    #[test]
    fn unsafe_query_is_rejected_at_compile() {
        let spec = fig2();
        let re = parse("_* a _*", &mut |n| spec.tag_by_name(n).map(|t| Symbol(t.0))).unwrap();
        let dfa = compile_minimal_dfa(&re, spec.n_tags());
        match SafeQueryPlan::compile(&spec, dfa) {
            Err(PlanError::Unsafe { .. }) => {}
            other => panic!("expected Unsafe, got {other:?}"),
        }
    }

    #[test]
    fn epsilon_semantics_on_self_pairs() {
        let spec = fig2();
        let run = fig2_run(&spec);
        let star = plan(&spec, "_*");
        let plus = plan(&spec, "_+");
        let u = run.entry();
        assert!(star.pairwise(&run, u, u));
        assert!(!plus.pairwise(&run, u, u));
    }

    #[test]
    fn deep_recursion_uses_matrix_powers() {
        let spec = fig2();
        let run = RunBuilder::new(&spec)
            .seed(1)
            .target_edges(4000)
            .build()
            .unwrap();
        let p = plan(&spec, "_* e _*");
        let a = spec.module_by_name("a").unwrap();
        let d = spec.module_by_name("d").unwrap();
        let a_nodes = run.nodes_of_module(a);
        let d_nodes = run.nodes_of_module(d);
        assert!(a_nodes.len() > 100, "expected a deep recursion chain");
        let first_a = a_nodes[0];
        for &dn in &d_nodes {
            assert!(p.pairwise(&run, first_a, dn));
        }
        for &dn in d_nodes.iter().take(10) {
            assert!(!p.pairwise(&run, dn, first_a));
        }
    }

    #[test]
    fn pairwise_row_decode_matches_full_matrix_decode() {
        let spec = fig2();
        for seed in [3u64, 4, 5] {
            let run = RunBuilder::new(&spec)
                .seed(seed)
                .target_edges(400)
                .build()
                .unwrap();
            for q in ["_*", "_* e _*", "_* b _*", "d+", "b+"] {
                let p = plan(&spec, q);
                let nodes: Vec<NodeId> = run.node_ids().collect();
                for &u in nodes.iter().step_by(7) {
                    for &v in nodes.iter().step_by(5) {
                        if u == v {
                            continue;
                        }
                        let via_matrix = p
                            .decode_matrix(run.label(u), run.label(v))
                            .row_intersects(p.start_state, p.accepting_mask);
                        assert_eq!(
                            p.pairwise(&run, u, v),
                            via_matrix,
                            "query {q} pair ({u:?}, {v:?}) seed {seed}"
                        );
                    }
                }
            }
        }
    }

    /// The all-pairs merge's split decode of one label pair: the
    /// source's exit row and the target's enter column carried to the
    /// divergence point by the crate-level helpers, then one AND.
    fn split_decode(p: &SafeQueryPlan, lu: &Label, lv: &Label) -> bool {
        let cp = lu.common_prefix_len(lv);
        let (eu, ev) = (&lu.entries()[cp..], &lv.entries()[cp..]);
        let row = |es: &[LabelEntry]| {
            es.iter()
                .rev()
                .fold(1 << p.start_state, |r, &e| p.exit_step(r, e))
        };
        let col = |es: &[LabelEntry]| {
            es.iter()
                .rev()
                .fold(p.accepting_mask, |c, &e| p.enter_step(c, e))
        };
        match (eu[0], ev[0]) {
            (
                LabelEntry::Prod {
                    production: k,
                    pos: i,
                },
                LabelEntry::Prod { pos: j, .. },
            ) => p.between(k, i as usize, j as usize).row_mul(row(&eu[1..])) & col(&ev[1..]) != 0,
            (
                LabelEntry::Rec {
                    cycle,
                    start_phase,
                    idx: a,
                },
                LabelEntry::Rec { idx: b, .. },
            ) => {
                let cpl = &p.cycles[cycle as usize];
                let rec_pos = |c: u32| cpl.rec_pos[cpl.phase(start_phase as u64, c as u64)];
                if a < b {
                    let (ka, i1) = expect_prod(&eu[1]);
                    let r = p.between(ka, i1, rec_pos(a)).row_mul(row(&eu[2..]));
                    p.chain_desc_row(cycle, start_phase, a + 1, b, r) & col(&ev[1..]) != 0
                } else {
                    let (kb, j1) = expect_prod(&ev[1]);
                    let c = p.between(kb, rec_pos(b), j1).col_mul(col(&ev[2..]));
                    row(&eu[1..]) & p.chain_asc_col(cycle, start_phase, b + 1, a, c) != 0
                }
            }
            _ => unreachable!("siblings are either all production or all recursion children"),
        }
    }

    #[test]
    fn split_decode_matches_paper_examples() {
        let spec = fig2();
        let run = fig2_run(&spec);
        let p = plan(&spec, "_* e _*");
        let n = |s: &str| run.label(run.node_by_name(&spec, s).unwrap());
        // a:1 sits under body position 1 (A), b:1 at position 3; the path
        // a:1 → … → e:1 → e:2 → … → b:1 crosses the e edge.
        assert!(split_decode(&p, n("a:1"), n("b:1")));
        // d:2 sits after the e's: same divergence point, no match.
        assert!(!split_decode(&p, n("d:2"), n("b:1")));
        // The B branch never sees an e (Example 3.2).
        assert!(!split_decode(&p, n("c:1"), n("b:3")));
    }

    #[test]
    fn split_decode_matches_full_matrix_decode() {
        // Deep fig2 recursion chains: a:i lives under unfolding i, d:j
        // under unfolding j, so (a, d) and (d, a) pairs diverge at the
        // recursion node with gaps from adjacent (one unfolding apart,
        // zero steps carried) to far past the power-table threshold.
        let spec = fig2();
        for seed in [2u64, 6] {
            let run = RunBuilder::new(&spec)
                .seed(seed)
                .target_edges(800)
                .build()
                .unwrap();
            let a_nodes = run.nodes_of_module(spec.module_by_name("a").unwrap());
            let d_nodes = run.nodes_of_module(spec.module_by_name("d").unwrap());
            assert!(a_nodes.len() > 40, "expected a deep recursion chain");
            let nodes: Vec<NodeId> = run.node_ids().collect();
            let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
            for &u in nodes.iter().step_by(7) {
                pairs.extend(nodes.iter().step_by(5).map(|&v| (u, v)));
            }
            for (i, j) in [(2, 3), (2, 40), (0, 1), (5, 5), (39, 2)] {
                pairs.push((a_nodes[i], d_nodes[j]));
                pairs.push((d_nodes[j], a_nodes[i]));
                pairs.push((d_nodes[i], d_nodes[j]));
            }
            for q in ["_*", "_* e _*", "_* b _*", "d+", "b+"] {
                let p = plan(&spec, q);
                for &(u, v) in &pairs {
                    if u == v {
                        continue;
                    }
                    let (lu, lv) = (run.label(u), run.label(v));
                    let via_matrix = p
                        .decode_matrix(lu, lv)
                        .row_intersects(p.start_state, p.accepting_mask);
                    assert_eq!(
                        split_decode(&p, lu, lv),
                        via_matrix,
                        "query {q} pair ({u:?}, {v:?}) seed {seed}"
                    );
                }
            }
        }
    }
}
