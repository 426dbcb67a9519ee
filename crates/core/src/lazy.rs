//! Lazy product-graph evaluation: on-the-fly DFA × graph composition.
//!
//! Every materialized strategy answers a request by evaluating per-tag
//! relations and closing them — even a `Pairwise(u, v)` that only ever
//! needs one source's reachable frontier pays for full closures over
//! the run. This module is the third strategy: compose the query's
//! minimal DFA with the run's cached [`CsrIndex`] *on the fly*,
//! expanding `(dfa_state, node)` product pairs from a worklist and
//! never touching relations the frontier does not reach (rustfst's lazy
//! `compose` architecture, specialized to a complete DFA over a CSR
//! graph).
//!
//! Core mechanics:
//!
//! * a **worklist search** over product pairs with a visited bitset
//!   sized `|Q| × n` — frontier-bound, not closure-bound;
//! * successors come **straight off the CSR arenas** per tag; when
//!   every live symbol of a DFA state leads to one successor state the
//!   merged wildcard adjacency is walked instead (one scan, not
//!   `|Γ|`);
//! * **dead-state pruning**: product pairs whose DFA component cannot
//!   reach an accepting state are never enqueued;
//! * `Pairwise` **terminates early** at target-in-accepting;
//! * `TargetStar` runs the same search over the *transposed* CSR and
//!   the reversed (now nondeterministic) transition relation.
//!
//! The session picks the engine per request (`Session::evaluate`, see
//! `auto_picks_lazy`); the caller never does. There is no per-request
//! override and no process-wide setting.

use rpq_automata::{Dfa, StateId, Symbol};
use rpq_grammar::Tag;
use rpq_labeling::NodeId;
use rpq_relalg::CsrIndex;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which engine answered an evaluation: the resolved choice recorded
/// in `EvalMeta::strategy`, on the wire and in metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvalStrategy {
    /// The lazy product-graph engine.
    Lazy,
    /// The materialized relational/label pipeline.
    Materialized,
}

impl EvalStrategy {
    /// The name shown on the wire and in metrics.
    pub fn name(self) -> &'static str {
        match self {
            EvalStrategy::Lazy => "lazy",
            EvalStrategy::Materialized => "materialized",
        }
    }
}

/// Process-wide lazy-engine totals (service stats and metrics scrapes);
/// the thread-local view backs exact per-evaluation deltas in
/// `EvalMeta`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LazyCounts {
    /// Product states expanded by the lazy engine.
    pub expansions: u64,
    /// Evaluations answered by the lazy engine.
    pub lazy_evals: u64,
    /// Evaluations answered by the materialized pipeline.
    pub materialized_evals: u64,
}

static EXPANSIONS: AtomicU64 = AtomicU64::new(0);
static LAZY_EVALS: AtomicU64 = AtomicU64::new(0);
static MATERIALIZED_EVALS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_EXPANSIONS: Cell<u64> = const { Cell::new(0) };
}

/// Process-wide lazy-engine totals (monotonic).
pub fn lazy_counts() -> LazyCounts {
    LazyCounts {
        expansions: EXPANSIONS.load(Ordering::Relaxed),
        lazy_evals: LAZY_EVALS.load(Ordering::Relaxed),
        materialized_evals: MATERIALIZED_EVALS.load(Ordering::Relaxed),
    }
}

/// This thread's product-state expansion total (monotonic); snapshot
/// before and after an evaluation for an exact per-evaluation delta.
pub fn thread_expansions() -> u64 {
    THREAD_EXPANSIONS.with(Cell::get)
}

fn record_expansions(n: u64) {
    if n > 0 {
        EXPANSIONS.fetch_add(n, Ordering::Relaxed);
        THREAD_EXPANSIONS.with(|c| c.set(c.get() + n));
    }
}

/// Record which strategy answered one evaluation (called by the
/// session once it has picked the engine).
pub(crate) fn record_strategy(lazy: bool) {
    if lazy {
        LAZY_EVALS.fetch_add(1, Ordering::Relaxed);
    } else {
        MATERIALIZED_EVALS.fetch_add(1, Ordering::Relaxed);
    }
}

/// A lazy product-graph evaluator over one `(DFA, CSR arena)` pair.
///
/// Construction precomputes the per-search-independent pieces — dead
/// DFA states, the uniform-successor fast path, the reversed
/// transition relation — and allocates the `|Q| × n` visited bitset
/// once; each request mode then runs one or more worklist searches over
/// it. One evaluator serves one evaluation (it is cheap: a few `O(|Q| ·
/// |Γ|)` scans plus the bitset allocation).
pub struct LazyEval<'a> {
    dfa: &'a Dfa,
    csr: &'a CsrIndex,
    n_tags: usize,
    n_nodes: usize,
    n_states: usize,
    /// DFA states that cannot reach an accepting state; product pairs
    /// over them are never enqueued.
    dead: Vec<bool>,
    /// `uniform[q] = Some(q2)` when every tag moves `q` to the same
    /// *live* successor `q2`: the expansion walks the merged wildcard
    /// adjacency once instead of `|Γ|` per-tag lists.
    uniform: Vec<Option<StateId>>,
    /// Visited bitset over product pairs, bit `node * |Q| + q`.
    visited: Vec<u64>,
    /// Worklist of product pairs to expand (order does not affect the
    /// reachable set).
    worklist: Vec<(StateId, u32)>,
    /// Product states expanded across this evaluator's searches.
    expanded: u64,
}

impl<'a> LazyEval<'a> {
    /// Set up an evaluator for `dfa` over `csr` (`n_tags` is the
    /// specification's tag count — the symbol alphabet both sides
    /// share).
    pub fn new(dfa: &'a Dfa, csr: &'a CsrIndex, n_tags: usize) -> LazyEval<'a> {
        let n_states = dfa.n_states();
        let n_nodes = csr.n_nodes();
        let dead = dfa.dead_states();
        let uniform = (0..n_states as StateId)
            .map(|q| {
                let mut target: Option<StateId> = None;
                for t in 0..n_tags {
                    let q2 = dfa.next(q, Symbol(t as u32));
                    if dead[q2 as usize] {
                        return None;
                    }
                    match target {
                        None => target = Some(q2),
                        Some(prev) if prev == q2 => {}
                        Some(_) => return None,
                    }
                }
                target
            })
            .collect();
        let words = (n_states * n_nodes).div_ceil(64);
        LazyEval {
            dfa,
            csr,
            n_tags,
            n_nodes,
            n_states,
            dead,
            uniform,
            visited: vec![0u64; words],
            worklist: Vec::new(),
            expanded: 0,
        }
    }

    /// Product states expanded so far (all searches of this evaluator).
    pub fn expanded(&self) -> u64 {
        self.expanded
    }

    #[inline]
    fn try_visit(&mut self, q: StateId, node: u32) -> bool {
        let bit = node as usize * self.n_states + q as usize;
        let (word, mask) = (bit / 64, 1u64 << (bit % 64));
        if self.visited[word] & mask != 0 {
            return false;
        }
        self.visited[word] |= mask;
        true
    }

    #[inline]
    fn is_visited(&self, q: StateId, node: u32) -> bool {
        let bit = node as usize * self.n_states + q as usize;
        self.visited[bit / 64] & (1 << (bit % 64)) != 0
    }

    /// Any accepting DFA state visited at `node`?
    fn accepting_at(&self, node: u32) -> bool {
        self.dfa
            .accepting()
            .iter()
            .enumerate()
            .any(|(q, &acc)| acc && self.is_visited(q as StateId, node))
    }

    fn reset(&mut self) {
        self.visited.fill(0);
        self.worklist.clear();
    }

    /// Forward product search from `source`; stops early when `target`
    /// (paired with an accepting state) is reached. Returns whether
    /// that early stop fired — callers without a target read the
    /// visited bitset instead.
    fn search(&mut self, source: NodeId, target: Option<NodeId>) -> bool {
        self.reset();
        let _span = rpq_obs::Trace::span("lazy_expand");
        // Copy the shared borrows out of `self` so the adjacency scans
        // do not pin it against `try_visit`.
        let (dfa, csr) = (self.dfa, self.csr);
        let start = dfa.start();
        if self.dead[start as usize] {
            return false;
        }
        let src = source.0;
        self.try_visit(start, src);
        self.worklist.push((start, src));
        let mut expanded = 0u64;
        let hit = 'outer: loop {
            let Some((q, x)) = self.worklist.pop() else {
                break false;
            };
            expanded += 1;
            if let Some(q2) = self.uniform[q as usize] {
                // Every live tag moves q to q2: one merged-adjacency
                // scan replaces |Γ| per-tag scans.
                for &y in csr.all().neighbors_raw(x) {
                    if self.try_visit(q2, y) {
                        if accepts(dfa, q2, y, target) {
                            break 'outer true;
                        }
                        self.worklist.push((q2, y));
                    }
                }
                continue;
            }
            for t in 0..self.n_tags {
                let q2 = dfa.next(q, Symbol(t as u32));
                if self.dead[q2 as usize] {
                    continue;
                }
                for &y in csr.csr(Tag(t as u32)).neighbors_raw(x) {
                    if self.try_visit(q2, y) {
                        if accepts(dfa, q2, y, target) {
                            break 'outer true;
                        }
                        self.worklist.push((q2, y));
                    }
                }
            }
        };
        self.expanded += expanded;
        record_expansions(expanded);
        hit
    }

    /// Does a matching path lead from `u` to `v`?
    ///
    /// Matches the relational semantics over any graph (including
    /// cyclic appended runs): `u == v` holds on ε-acceptance *or* a
    /// matching cycle through `u`.
    pub fn pairwise(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v && self.dfa.accepts_epsilon() {
            return true;
        }
        self.search(u, Some(v))
    }

    /// The nodes reachable from `u` along a matching path, sorted —
    /// `Reachable(u)`, and the target column of `SourceStar(u)`.
    pub fn reachable(&mut self, u: NodeId) -> Vec<NodeId> {
        self.search(u, None);
        let mut out = Vec::new();
        let eps = self.dfa.accepts_epsilon();
        for node in 0..self.n_nodes as u32 {
            if (eps && node == u.0) || self.accepting_at(node) {
                out.push(NodeId(node));
            }
        }
        out
    }

    /// All matching pairs of `l1 × l2`, bit-identical to the
    /// materialized `select_pairs` finale: one forward search per
    /// distinct source in `l1`, targets filtered against `l2`.
    pub fn all_pairs(&mut self, l1: &[NodeId], l2: &[NodeId]) -> Vec<(NodeId, NodeId)> {
        let mut in_l2 = vec![false; self.n_nodes];
        for &v in l2 {
            in_l2[v.index()] = true;
        }
        let mut sources: Vec<NodeId> = l1.to_vec();
        sources.sort_unstable_by_key(|n| n.0);
        sources.dedup();
        let mut pairs = Vec::new();
        for u in sources {
            for v in self.reachable(u) {
                if in_l2[v.index()] {
                    pairs.push((u, v));
                }
            }
        }
        pairs
    }

    /// All matching pairs into the fixed target `v` — the transposed
    /// search: start from every accepting state at `v`, walk the
    /// reversed CSR under the reversed (nondeterministic) transition
    /// relation, and report the sources that reach the DFA start state.
    pub fn target_star(&mut self, v: NodeId) -> Vec<(NodeId, NodeId)> {
        self.reset();
        let _span = rpq_obs::Trace::span("lazy_expand");
        let (dfa, csr) = (self.dfa, self.csr);
        // Reversed transitions: `rev[q2 * |Γ| + t]` = the live states
        // `q` with `δ(q, t) = q2`. Dead states are excluded — a forward
        // path through one never accepts, so its reversed image cannot
        // witness a source.
        let mut rev: Vec<Vec<StateId>> = vec![Vec::new(); self.n_states * self.n_tags];
        for q in 0..self.n_states as StateId {
            if self.dead[q as usize] {
                continue;
            }
            for t in 0..self.n_tags {
                let q2 = dfa.next(q, Symbol(t as u32));
                rev[q2 as usize * self.n_tags + t].push(q);
            }
        }
        let start = dfa.start();
        for (q, &acc) in dfa.accepting().iter().enumerate() {
            if acc {
                self.try_visit(q as StateId, v.0);
                self.worklist.push((q as StateId, v.0));
            }
        }
        let mut expanded = 0u64;
        while let Some((q2, y)) = self.worklist.pop() {
            expanded += 1;
            for t in 0..self.n_tags {
                let states = &rev[q2 as usize * self.n_tags + t];
                if states.is_empty() {
                    continue;
                }
                for &x in csr.csr(Tag(t as u32)).predecessors_raw(y) {
                    for &q in states {
                        if self.try_visit(q, x) {
                            self.worklist.push((q, x));
                        }
                    }
                }
            }
        }
        self.expanded += expanded;
        record_expansions(expanded);
        let eps = dfa.accepts_epsilon();
        (0..self.n_nodes as u32)
            .filter(|&node| self.is_visited(start, node) || (eps && node == v.0))
            .map(|node| (NodeId(node), v))
            .collect()
    }
}

#[inline]
fn accepts(dfa: &Dfa, q: StateId, node: u32, target: Option<NodeId>) -> bool {
    match target {
        Some(v) => node == v.0 && dfa.is_accepting(q),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_counters_accumulate() {
        let thread_before = thread_expansions();
        let global_before = lazy_counts();
        record_expansions(3);
        record_expansions(0); // no-op
        record_expansions(2);
        assert_eq!(thread_expansions() - thread_before, 5);
        assert!(lazy_counts().expansions - global_before.expansions >= 5);
        record_strategy(true);
        record_strategy(false);
        let g = lazy_counts();
        assert!(g.lazy_evals > global_before.lazy_evals);
        assert!(g.materialized_evals > global_before.materialized_evals);
    }
}
