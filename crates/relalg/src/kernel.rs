//! Kernel selection: pair-based vs bit-parallel operators.
//!
//! Every dispatching operator in [`crate::join`] picks a kernel per
//! call from the operand sizes it observes — [`choose_closure`],
//! [`choose_compose`] and [`choose_select`] are pure functions of
//! those sizes. Joins and selections also read the operands' format:
//! an operand already in bit rows ([`crate::Pairs::Bits`]) stays on the
//! bit kernel, and the size-based choice is made only between lists.
//! There is no process-wide override: a test or bench
//! that wants one specific kernel calls it directly
//! (`transitive_closure_{pairs,bits,scc}`, `compose_pairs_{kernel,bits}`,
//! `select_pairs_{kernel,bits}`).
//!
//! Every *dispatched* transitive closure also bumps a pair of
//! closure-algorithm counters — process-wide totals for service stats
//! and a thread-local view the session snapshots into `EvalMeta` — so
//! an operator can see which algorithm actually executed.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which kernel family executes a relational operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Sorted `Vec<(NodeId, NodeId)>` + hash joins (the seed kernel).
    Pairs,
    /// CSR adjacency + blocked `u64` bitset rows.
    Bits,
    /// Tarjan condensation + reverse-topological bit pass — closure
    /// operators only (see [`crate::scc`]).
    Scc,
}

/// Universes larger than this never use the bit kernel: three `n × n/64`
/// matrices (seen, delta, base) at `n = 2¹⁶` would already cost 1.5 GiB.
pub const MAX_BITS_NODES: usize = 1 << 14;

/// Modeled cost of one hashed pair operation (insert/probe) relative to
/// one `u64` word operation — hashing, branching and cache misses make
/// a pair touch an order of magnitude dearer than a word OR.
pub const HASH_OP_COST: f64 = 12.0;

/// Modeled cost of touching one `u64` word in the bit kernel.
pub const WORD_OP_COST: f64 = 1.0;

/// Can the bit kernel represent an `n_nodes` universe at all?
#[inline]
pub fn bits_representable(n_nodes: usize) -> bool {
    n_nodes > 0 && n_nodes <= MAX_BITS_NODES
}

/// How many dispatched transitive closures each algorithm executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ClosureCounts {
    /// Closures run by the hashed semi-naive pair fixpoint.
    pub pairs: u64,
    /// Closures run by the blocked-bitset semi-naive fixpoint.
    pub bits: u64,
    /// Closures run by the Tarjan condensation pass.
    pub scc: u64,
}

impl ClosureCounts {
    /// The movement since an `earlier` snapshot.
    pub fn since(self, earlier: ClosureCounts) -> ClosureCounts {
        ClosureCounts {
            pairs: self.pairs - earlier.pairs,
            bits: self.bits - earlier.bits,
            scc: self.scc - earlier.scc,
        }
    }

    /// Total dispatched closures.
    pub fn total(self) -> u64 {
        self.pairs + self.bits + self.scc
    }

    /// Compact `pairs:1 bits:0 scc:2`-style rendering for CLIs and
    /// stats lines.
    pub fn summary(self) -> String {
        format!("pairs:{} bits:{} scc:{}", self.pairs, self.bits, self.scc)
    }
}

// Process-wide closure totals (service stats) and a thread-local view
// (per-evaluation deltas in `EvalMeta` — an evaluation runs on one
// thread, so the thread-local delta is exact even under concurrency).
static CLOSURES_PAIRS: AtomicU64 = AtomicU64::new(0);
static CLOSURES_BITS: AtomicU64 = AtomicU64::new(0);
static CLOSURES_SCC: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_CLOSURES: Cell<ClosureCounts> = const { Cell::new(ClosureCounts {
        pairs: 0,
        bits: 0,
        scc: 0,
    }) };
}

/// Record one dispatched transitive closure (called by the `join`
/// entry points, not by direct kernel calls — referees and benches
/// timing a specific kernel don't pollute the counters).
pub(crate) fn record_closure(kernel: Kernel) {
    match kernel {
        Kernel::Pairs => &CLOSURES_PAIRS,
        Kernel::Bits => &CLOSURES_BITS,
        Kernel::Scc => &CLOSURES_SCC,
    }
    .fetch_add(1, Ordering::Relaxed);
    THREAD_CLOSURES.with(|c| {
        let mut counts = c.get();
        match kernel {
            Kernel::Pairs => counts.pairs += 1,
            Kernel::Bits => counts.bits += 1,
            Kernel::Scc => counts.scc += 1,
        }
        c.set(counts);
    });
}

/// Process-wide closure-algorithm totals (monotonic).
pub fn closure_counts() -> ClosureCounts {
    ClosureCounts {
        pairs: CLOSURES_PAIRS.load(Ordering::Relaxed),
        bits: CLOSURES_BITS.load(Ordering::Relaxed),
        scc: CLOSURES_SCC.load(Ordering::Relaxed),
    }
}

/// This thread's closure-algorithm totals (monotonic); snapshot before
/// and after an evaluation for an exact per-evaluation delta.
pub fn thread_closure_counts() -> ClosureCounts {
    THREAD_CLOSURES.with(Cell::get)
}

/// How many SCC-kernel closures ran a fresh Tarjan walk versus reused
/// an already-computed component DAG (see
/// [`crate::scc::CondensationCache`]) — the ROADMAP's "condense once
/// per evaluation, not once per closure operator" ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CondensationCounts {
    /// Condensations computed by a fresh Tarjan walk.
    pub computed: u64,
    /// Closures that reused a cached condensation instead.
    pub reused: u64,
}

impl CondensationCounts {
    /// The movement since an `earlier` snapshot.
    pub fn since(self, earlier: CondensationCounts) -> CondensationCounts {
        CondensationCounts {
            computed: self.computed - earlier.computed,
            reused: self.reused - earlier.reused,
        }
    }

    /// Total cache interactions (computed + reused).
    pub fn total(self) -> u64 {
        self.computed + self.reused
    }
}

static CONDENSATIONS_COMPUTED: AtomicU64 = AtomicU64::new(0);
static CONDENSATIONS_REUSED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_CONDENSATIONS: Cell<CondensationCounts> = const {
        Cell::new(CondensationCounts {
            computed: 0,
            reused: 0,
        })
    };
}

/// Record one condensation-cache interaction (called by
/// [`crate::scc::CondensationCache`]; direct `Condensation::of` calls —
/// referees, benches timing Tarjan itself — don't pollute the ledger).
pub(crate) fn record_condensation(reused: bool) {
    if reused {
        &CONDENSATIONS_REUSED
    } else {
        &CONDENSATIONS_COMPUTED
    }
    .fetch_add(1, Ordering::Relaxed);
    THREAD_CONDENSATIONS.with(|c| {
        let mut counts = c.get();
        if reused {
            counts.reused += 1;
        } else {
            counts.computed += 1;
        }
        c.set(counts);
    });
}

/// Process-wide condensation-cache totals (monotonic).
pub fn condensation_counts() -> CondensationCounts {
    CondensationCounts {
        computed: CONDENSATIONS_COMPUTED.load(Ordering::Relaxed),
        reused: CONDENSATIONS_REUSED.load(Ordering::Relaxed),
    }
}

/// This thread's condensation-cache totals (monotonic); snapshot before
/// and after an evaluation for an exact per-evaluation delta.
pub fn thread_condensation_counts() -> CondensationCounts {
    THREAD_CONDENSATIONS.with(Cell::get)
}

/// The memory guard: universes the bit kernels cannot represent stay
/// on pairs whatever the density says.
fn guarded(choice: Kernel, n_nodes: usize) -> Kernel {
    if bits_representable(n_nodes) {
        choice
    } else {
        Kernel::Pairs
    }
}

/// Kernel choice for a composition `A ∘ B` over `n_nodes` nodes.
///
/// Bit cost: every pair of `A` ORs one row (`⌈n/64⌉` words) plus the
/// pair↔bit conversions (≈ 3 row-scans). Pair cost: hash-index `B`,
/// probe per pair of `A`, materialize and sort the estimated output
/// `|A|·|B|/n`. The crossover makes tiny sparse joins stay on pairs
/// while anything dense enough to matter runs word-parallel.
pub fn choose_compose(n_nodes: usize, a_len: usize, b_len: usize) -> Kernel {
    let n = n_nodes as f64;
    let wpr = (n_nodes.div_ceil(64)) as f64;
    let est_out = if n_nodes == 0 {
        0.0
    } else {
        (a_len as f64) * (b_len as f64) / n
    };
    let bits_cost = WORD_OP_COST * wpr * (a_len as f64 + 3.0 * n);
    let pairs_cost =
        HASH_OP_COST * (a_len as f64 + b_len as f64 + est_out) + est_out * est_out.max(2.0).log2();
    let choice = if bits_cost < pairs_cost {
        Kernel::Bits
    } else {
        Kernel::Pairs
    };
    guarded(choice, n_nodes)
}

/// Base relations at most this many times denser than their universe
/// (`|R| ≤ factor · n`) take the condensation closure.
///
/// Measured on the kernel sweep that the `relalg_kernel` bench of
/// `crates/bench` runs (layered DAGs, deep chains, cyclic cores; the
/// recorded sweep was last written at commit `3b2ced4`): the
/// condensation pass does `O((E_cond + n) · n/64)` word work versus the
/// semi-naive kernel's `O(|TC| · n/64)`, and since distinct
/// condensation edges never exceed the base (`E_cond ≤ |E| ≤ |TC|`) it
/// won every measured shape — deep chains 2.3–16× over the bit kernel,
/// cyclic cores 2.7–15×, layered DAGs 1.2–2.7×, and still 1.4–2.2× on
/// dense *acyclic* DAGs (fanout 8–32) and ~1.5× on random graphs up to
/// 64 edges/node, where the giant SCC collapses to one row. The cutoff
/// guards only the unmeasured ultra-dense tail (beyond 64 edges/node),
/// where closure ≈ base and Tarjan's pointer-chasing could tip the
/// constant factors back toward the branch-free semi-naive loops.
pub const SCC_DENSITY_FACTOR: usize = 64;

/// Kernel choice for a transitive closure over `n_nodes` nodes.
///
/// Each closure pair costs one hashed insert (plus successor pushes) in
/// the pair kernel versus one `⌈n/64⌉`-word row OR in the bit kernel —
/// but the bit kernel's ORs discover up to 64 pairs at once and never
/// re-sort, so whenever the closure is big enough to amortize the
/// `n × ⌈n/64⌉` matrix allocations the dense kernels win (measured well
/// below 512 nodes on non-trivial bases in the `relalg_kernel` bench's
/// sweep, last recorded at commit `3b2ced4`).
/// The guard below keeps near-empty closures on huge universes — where
/// the pair fixpoint finishes in microseconds — off the dense path.
/// Among the dense kernels, sparse-or-deep bases (at most
/// [`SCC_DENSITY_FACTOR`] edges per node) take the condensation pass,
/// whose word work scales with the *base* rather than the closure.
pub fn choose_closure(n_nodes: usize, base_len: usize) -> Kernel {
    // Closure-size estimate matching `rpq-core`'s cost model: √n
    // expansion, capped at all pairs.
    let n = n_nodes as f64;
    let est_closure = ((base_len as f64) * n.max(1.0).sqrt()).min(n * n);
    let choice = if base_len >= 2 && est_closure * 4.0 >= n {
        if base_len <= SCC_DENSITY_FACTOR * n_nodes {
            Kernel::Scc
        } else {
            Kernel::Bits
        }
    } else {
        // 0/1-pair bases terminate immediately, and closures expected
        // to stay below ~n/4 pairs never amortize the matrix zeroing.
        Kernel::Pairs
    };
    guarded(choice, n_nodes)
}

/// Kernel choice for an endpoint selection `R ↾ l1 × l2` over
/// `n_nodes` nodes.
///
/// Pair cost: one merge over the relation plus a binary-search target
/// probe per source-matched pair. Bit cost: convert the relation to
/// blocked rows (`n·⌈n/64⌉` words zeroed + one set per pair), build the
/// target mask, then AND `⌈n/64⌉` words per selected source. The bit
/// path only amortizes its matrix when the relation is dense and the
/// source list broad — exactly the `all_pairs` finale over a closure.
pub fn choose_select(n_nodes: usize, rel_len: usize, n_sources: usize, n_targets: usize) -> Kernel {
    let n = n_nodes as f64;
    let wpr = (n_nodes.div_ceil(64)) as f64;
    // Source-matched pairs ≈ rel_len · |l1|/n, each paying a log|l2|
    // probe; hashing-free, but branchy and cache-hostile.
    let matched = if n_nodes == 0 {
        0.0
    } else {
        (rel_len as f64) * (n_sources as f64).min(n) / n
    };
    let pairs_cost =
        HASH_OP_COST * 0.5 * (rel_len as f64 + matched * (n_targets.max(2) as f64).log2());
    let bits_cost = WORD_OP_COST * ((n + n_sources as f64) * wpr + rel_len as f64);
    let choice = if bits_cost < pairs_cost {
        Kernel::Bits
    } else {
        Kernel::Pairs
    };
    guarded(choice, n_nodes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_counters_accumulate_per_thread_and_globally() {
        let thread_before = thread_closure_counts();
        let global_before = closure_counts();
        record_closure(Kernel::Scc);
        record_closure(Kernel::Scc);
        record_closure(Kernel::Pairs);
        let t = thread_closure_counts().since(thread_before);
        assert_eq!(
            t,
            ClosureCounts {
                pairs: 1,
                bits: 0,
                scc: 2
            }
        );
        assert_eq!(t.total(), 3);
        assert_eq!(t.summary(), "pairs:1 bits:0 scc:2");
        // Globals move at least as much (other test threads may add).
        let g = closure_counts().since(global_before);
        assert!(g.pairs >= 1 && g.scc >= 2, "{g:?}");
        // A fresh thread starts from zero.
        let spawned = std::thread::spawn(|| {
            let before = thread_closure_counts();
            assert_eq!(before, ClosureCounts::default());
            record_closure(Kernel::Bits);
            thread_closure_counts().since(before)
        })
        .join()
        .expect("thread");
        assert_eq!(spawned.bits, 1);
        // ... without touching this thread's view.
        assert_eq!(thread_closure_counts().since(thread_before), t);
    }

    #[test]
    fn choices_are_pure_functions_of_sizes() {
        // Same sizes ⇒ same kernel, call after call: nothing but the
        // arguments feeds the decision.
        for &(n, len) in &[
            (1024, 5000),
            (1024, 1),
            (10_000, 2),
            (MAX_BITS_NODES + 1, 5000),
        ] {
            assert_eq!(choose_closure(n, len), choose_closure(n, len));
            assert_eq!(choose_compose(n, len, len), choose_compose(n, len, len));
            assert_eq!(choose_select(n, len, n, n), choose_select(n, len, n, n));
        }
        // The memory guard beats density: shapes that go word-parallel
        // inside the guard stay on pairs just past it.
        assert_eq!(choose_closure(MAX_BITS_NODES, 50_000), Kernel::Scc);
        assert_eq!(choose_closure(MAX_BITS_NODES + 1, 50_000), Kernel::Pairs);
        let dense = 40 * MAX_BITS_NODES;
        assert_eq!(choose_compose(MAX_BITS_NODES, dense, dense), Kernel::Bits);
        assert_eq!(
            choose_compose(MAX_BITS_NODES + 1, dense, dense),
            Kernel::Pairs
        );
        let (n, big) = (MAX_BITS_NODES, 100 * MAX_BITS_NODES);
        assert_eq!(choose_select(n, big, n, n), Kernel::Bits);
        assert_eq!(choose_select(n + 1, big, n + 1, n + 1), Kernel::Pairs);

        // Dense-enough closures leave the pair kernel; among the dense
        // strategies, sparse/deep bases condense and only very dense
        // bases stay semi-naive. Trivial bases stay on pairs, as do
        // near-empty closures on huge universes (the matrix allocation
        // would dominate).
        assert_eq!(choose_closure(1024, 5000), Kernel::Scc);
        assert_eq!(
            choose_closure(1024, SCC_DENSITY_FACTOR * 1024 + 1),
            Kernel::Bits
        );
        assert_eq!(choose_closure(1024, 1), Kernel::Pairs);
        assert_eq!(choose_closure(10_000, 2), Kernel::Pairs);
        assert_eq!(choose_closure(10_000, 5000), Kernel::Scc);
        // Tiny sparse joins on big universes stay on pairs; dense ones
        // flip to bits.
        assert_eq!(choose_compose(10_000, 3, 3), Kernel::Pairs);
        assert_eq!(choose_compose(512, 4000, 4000), Kernel::Bits);
        // Selections: a dense closure selected over broad lists goes
        // word-parallel; a sparse relation or narrow lists stay on
        // pairs (the matrix conversion would dominate).
        assert_eq!(choose_select(512, 100_000, 512, 512), Kernel::Bits);
        assert_eq!(choose_select(512, 40, 512, 512), Kernel::Pairs);
        assert_eq!(choose_select(10_000, 500, 2, 2), Kernel::Pairs);
    }
}
