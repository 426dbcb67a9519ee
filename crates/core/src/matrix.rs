//! Boolean DFA-state transition matrices.
//!
//! The safety check and the label decoder both manipulate `|Q| × |Q|`
//! boolean matrices: `M[q, q'] = 1` iff some path (in the relevant scope)
//! transitions the query DFA from `q` to `q'`. The paper's λ(M) matrices
//! (Section III-C) are exactly these. Matrix multiplication is relation
//! composition; powers of cycle-step matrices let the decoder skip over
//! arbitrarily many recursion unfoldings in `O(log n)` multiplications.
//!
//! Rows are `u64` bitmasks, capping `|Q|` at 64 states — ample for the
//! paper's query classes (an IFQ of size k has a (k+1)-state minimal DFA)
//! and checked at plan time.

use rpq_automata::{Dfa, Symbol};

/// Maximum supported DFA size.
pub const MAX_STATES: usize = 64;

/// A dense boolean `n × n` matrix over DFA states.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct StateMatrix {
    n: u8,
    rows: Vec<u64>,
}

impl StateMatrix {
    /// All-zero matrix (the empty relation).
    pub fn zero(n: usize) -> StateMatrix {
        assert!(n <= MAX_STATES, "DFA too large for StateMatrix");
        StateMatrix {
            n: n as u8,
            rows: vec![0; n],
        }
    }

    /// Identity matrix (the ε relation) — λ of an atomic module.
    pub fn identity(n: usize) -> StateMatrix {
        let mut m = StateMatrix::zero(n);
        for i in 0..n {
            m.rows[i] = 1 << i;
        }
        m
    }

    /// The one-symbol transition matrix of a complete DFA:
    /// `E[q, q'] = 1` iff `δ(q, a) = q'` (each row has exactly one bit).
    pub fn from_dfa_symbol(dfa: &Dfa, a: Symbol) -> StateMatrix {
        let n = dfa.n_states();
        let mut m = StateMatrix::zero(n);
        for q in 0..n {
            let to = dfa.next(q as u32, a);
            m.rows[q] = 1 << to;
        }
        m
    }

    /// A matrix from its row bitmasks.
    pub(crate) fn from_rows(rows: &[u64]) -> StateMatrix {
        assert!(rows.len() <= MAX_STATES, "DFA too large for StateMatrix");
        StateMatrix {
            n: rows.len() as u8,
            rows: rows.to_vec(),
        }
    }

    /// Dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n as usize
    }

    /// Entry test.
    #[inline]
    pub fn get(&self, q1: usize, q2: usize) -> bool {
        (self.rows[q1] >> q2) & 1 == 1
    }

    /// Set an entry.
    #[inline]
    pub fn set(&mut self, q1: usize, q2: usize) {
        self.rows[q1] |= 1 << q2;
    }

    /// Raw row bitmask.
    #[inline]
    pub fn row(&self, q: usize) -> u64 {
        self.rows[q]
    }

    /// Boolean matrix product (relation composition): first `self`'s
    /// step, then `other`'s.
    pub fn mul(&self, other: &StateMatrix) -> StateMatrix {
        let mut out = StateMatrix::zero(self.dim());
        self.mul_into(other, &mut out);
        out
    }

    /// `out = self · other`, overwriting `out` without allocating.
    pub fn mul_into(&self, other: &StateMatrix, out: &mut StateMatrix) {
        debug_assert!(self.n == other.n && self.n == out.n);
        for (o, &row) in out.rows.iter_mut().zip(&self.rows) {
            *o = other.row_mul(row);
        }
    }

    /// Element-wise OR (relation union).
    pub fn or(&self, other: &StateMatrix) -> StateMatrix {
        debug_assert_eq!(self.n, other.n);
        let mut out = self.clone();
        for (r, o) in out.rows.iter_mut().zip(other.rows.iter()) {
            *r |= o;
        }
        out
    }

    /// In-place OR.
    pub fn or_assign(&mut self, other: &StateMatrix) {
        debug_assert_eq!(self.n, other.n);
        for (r, o) in self.rows.iter_mut().zip(other.rows.iter()) {
            *r |= o;
        }
    }

    /// `self |= a · b`, without allocating: the accumulate step of the
    /// port-graph closures.
    pub fn or_mul_assign(&mut self, a: &StateMatrix, b: &StateMatrix) {
        debug_assert!(self.n == a.n && a.n == b.n);
        for (out, &row) in self.rows.iter_mut().zip(&a.rows) {
            *out |= b.row_mul(row);
        }
    }

    /// Matrix power by repeated squaring — `O(n³/64 · log e)`.
    pub fn pow(&self, mut e: u64) -> StateMatrix {
        let mut result = StateMatrix::identity(self.dim());
        let mut base = self.clone();
        while e > 0 {
            if e & 1 == 1 {
                result = result.mul(&base);
            }
            e >>= 1;
            if e > 0 {
                base = base.mul(&base);
            }
        }
        result
    }

    /// Is any of `mask`'s states reachable from `q`?
    #[inline]
    pub fn row_intersects(&self, q: usize, mask: u64) -> bool {
        self.rows[q] & mask != 0
    }

    /// Apply the matrix to a row vector (state set) on the left:
    /// `{ q' | ∃ q ∈ row : M[q, q'] }`. The allocation-free primitive
    /// behind pairwise decoding.
    #[inline]
    pub fn row_mul(&self, row: u64) -> u64 {
        let mut bits = row;
        let mut acc = 0u64;
        while bits != 0 {
            let q = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            acc |= self.rows[q];
        }
        acc
    }

    /// Apply the matrix to a column vector (state set) on the right:
    /// `{ q | M.row(q) ∩ col ≠ ∅ }` — backward propagation toward
    /// accepting states.
    #[inline]
    pub fn col_mul(&self, col: u64) -> u64 {
        let mut acc = 0u64;
        for (q, &r) in self.rows.iter().enumerate() {
            if r & col != 0 {
                acc |= 1 << q;
            }
        }
        acc
    }

    /// Is this the all-zero matrix?
    pub fn is_zero(&self) -> bool {
        self.rows.iter().all(|&r| r == 0)
    }
}

impl std::fmt::Debug for StateMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "StateMatrix({}x{})", self.n, self.n)?;
        for i in 0..self.dim() {
            for j in 0..self.dim() {
                write!(f, "{}", u8::from(self.get(i, j)))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::{compile_minimal_dfa, Regex};

    #[test]
    fn identity_is_multiplicative_unit() {
        let mut m = StateMatrix::zero(4);
        m.set(0, 2);
        m.set(3, 1);
        let id = StateMatrix::identity(4);
        assert_eq!(m.mul(&id), m);
        assert_eq!(id.mul(&m), m);
    }

    #[test]
    fn mul_composes_relations() {
        let mut a = StateMatrix::zero(3);
        a.set(0, 1);
        a.set(1, 2);
        let mut b = StateMatrix::zero(3);
        b.set(1, 0);
        b.set(2, 2);
        let c = a.mul(&b);
        assert!(c.get(0, 0)); // 0 -a-> 1 -b-> 0
        assert!(c.get(1, 2)); // 1 -a-> 2 -b-> 2
        assert!(!c.get(0, 2));
    }

    #[test]
    fn pow_matches_iterated_mul() {
        let mut m = StateMatrix::zero(5);
        m.set(0, 1);
        m.set(1, 2);
        m.set(2, 0);
        m.set(2, 3);
        let mut iterated = StateMatrix::identity(5);
        for e in 0..12u64 {
            assert_eq!(m.pow(e), iterated, "exponent {e}");
            iterated = iterated.mul(&m);
        }
    }

    #[test]
    fn pow_zero_is_identity() {
        let m = StateMatrix::zero(3);
        assert_eq!(m.pow(0), StateMatrix::identity(3));
    }

    #[test]
    fn pow_handles_huge_exponents() {
        // A permutation matrix of order 3: m^(3k) = I.
        let mut m = StateMatrix::zero(3);
        m.set(0, 1);
        m.set(1, 2);
        m.set(2, 0);
        assert_eq!(m.pow(3_000_000_000), StateMatrix::identity(3));
        assert_eq!(m.pow(3_000_000_001), m);
    }

    #[test]
    fn from_dfa_symbol_rows_are_functional() {
        // DFA of ⎵* a ⎵* over 2 symbols: 2 states.
        let dfa = compile_minimal_dfa(&Regex::ifq(&[Symbol(0)]), 2);
        let e = StateMatrix::from_dfa_symbol(&dfa, Symbol(0));
        for q in 0..dfa.n_states() {
            assert_eq!(e.row(q).count_ones(), 1);
        }
    }

    #[test]
    fn row_and_col_mul_agree_with_mul() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..200 {
            let n = rng.gen_range(1..=8usize);
            let mut m = StateMatrix::zero(n);
            for q in 0..n {
                for r in 0..n {
                    if rng.gen_bool(0.3) {
                        m.set(q, r);
                    }
                }
            }
            let row: u64 = rng.gen_range(0..(1u64 << n));
            let col: u64 = rng.gen_range(0..(1u64 << n));
            // row ⋅ M via explicit expansion.
            let mut expect_row = 0u64;
            for q in 0..n {
                if row >> q & 1 == 1 {
                    expect_row |= m.row(q);
                }
            }
            assert_eq!(m.row_mul(row), expect_row);
            // M ⋅ col via explicit expansion.
            let mut expect_col = 0u64;
            for q in 0..n {
                if m.row(q) & col != 0 {
                    expect_col |= 1 << q;
                }
            }
            assert_eq!(m.col_mul(col), expect_col);
            // Associativity spot check: (row ⋅ M) ∩ col = row ∩ (M ⋅ col).
            assert_eq!(m.row_mul(row) & col != 0, row & m.col_mul(col) != 0);
        }
    }

    #[test]
    fn or_unions() {
        let mut a = StateMatrix::zero(2);
        a.set(0, 0);
        let mut b = StateMatrix::zero(2);
        b.set(0, 1);
        let u = a.or(&b);
        assert!(u.get(0, 0) && u.get(0, 1));
        assert!(!u.is_zero());
        assert!(StateMatrix::zero(2).is_zero());
    }
}
