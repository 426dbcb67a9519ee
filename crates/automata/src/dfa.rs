//! Complete deterministic finite automata.
//!
//! The safety definitions of the paper (Definition 11–12) are phrased over
//! a *total* transition function `δ : Q × Γ → Q`, so our DFAs are always
//! complete: subset construction introduces an explicit dead state when
//! needed, and minimization keeps the automaton total. A complete DFA also
//! makes the query-intersected grammar construction (Section III-B)
//! uniform — every edge tag transitions every port.

use crate::ast::Symbol;
use crate::nfa::{Label, Nfa};
use std::collections::HashMap;

/// Dense DFA state id.
pub type StateId = u32;

/// Sentinel meaning "this DFA needed no dead state".
pub const DEAD_STATE_NONE: u32 = u32::MAX;

/// A complete DFA over a dense symbol alphabet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dfa {
    n_states: u32,
    n_symbols: u32,
    /// Row-major transition table: `table[state * n_symbols + symbol]`.
    table: Vec<StateId>,
    start: StateId,
    accepting: Vec<bool>,
}

impl Dfa {
    /// Build a complete DFA from raw parts.
    ///
    /// # Panics
    /// Panics if the table shape is inconsistent or a transition target is
    /// out of range.
    pub fn from_parts(
        n_symbols: usize,
        table: Vec<StateId>,
        start: StateId,
        accepting: Vec<bool>,
    ) -> Dfa {
        let n_states = accepting.len();
        assert!(n_states > 0, "DFA must have at least one state");
        assert_eq!(table.len(), n_states * n_symbols, "table shape mismatch");
        assert!((start as usize) < n_states, "start out of range");
        assert!(
            table.iter().all(|&t| (t as usize) < n_states),
            "transition target out of range"
        );
        Dfa {
            n_states: n_states as u32,
            n_symbols: n_symbols as u32,
            table,
            start,
            accepting,
        }
    }

    /// Subset construction from an NFA; the result is complete.
    ///
    /// State sets are bitsets over NFA states and successor sets are
    /// ORs of per-state ε-closures computed once up front. DFA states
    /// are numbered in order of discovery (expanding states in id order,
    /// symbols in alphabet order); the dead state — the empty set — is
    /// interned on first miss like any other.
    pub fn from_nfa(nfa: &Nfa) -> Dfa {
        let n_symbols = nfa.n_symbols();
        let (words, closures) = nfa.eps_closure_bits();
        let closure = |s: u32| &closures[s as usize * words..][..words];
        let mut subsets = Subsets {
            n_symbols,
            accept: nfa.accept() as usize,
            sets: Vec::new(),
            index: HashMap::new(),
            table: Vec::new(),
            accepting: Vec::new(),
        };
        let start = subsets.intern(closure(nfa.start()));
        debug_assert_eq!(start, 0);

        // Successor sets of the state being expanded, one row per
        // symbol; wildcard targets feed every row.
        let mut per_symbol = vec![0u64; n_symbols * words];
        let mut any = vec![0u64; words];
        let mut from = 0usize;
        while from < subsets.accepting.len() {
            per_symbol.fill(0);
            any.fill(0);
            for (w, &word) in subsets.sets[from * words..][..words].iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let s = (w * 64) as u32 + bits.trailing_zeros();
                    bits &= bits - 1;
                    for t in nfa.transitions_from(s) {
                        let row = match t.label {
                            Label::Eps => continue,
                            Label::Sym(sym) => &mut per_symbol[sym.index() * words..][..words],
                            Label::Any => &mut any[..],
                        };
                        for (r, c) in row.iter_mut().zip(closure(t.to)) {
                            *r |= c;
                        }
                    }
                }
            }
            for (sym, row) in per_symbol.chunks_exact_mut(words).enumerate() {
                for (r, a) in row.iter_mut().zip(&any) {
                    *r |= a;
                }
                let to = subsets.intern(row);
                subsets.table[from * n_symbols + sym] = to;
            }
            from += 1;
        }

        Dfa::from_parts(n_symbols, subsets.table, start, subsets.accepting)
    }

    /// Number of states (including any dead state).
    pub fn n_states(&self) -> usize {
        self.n_states as usize
    }

    /// Alphabet size.
    pub fn n_symbols(&self) -> usize {
        self.n_symbols as usize
    }

    /// Start state `q0`.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Is `q` accepting?
    #[inline]
    pub fn is_accepting(&self, q: StateId) -> bool {
        self.accepting[q as usize]
    }

    /// Accepting-state bitmask view.
    pub fn accepting(&self) -> &[bool] {
        &self.accepting
    }

    /// The total transition function `δ(q, a)`.
    #[inline]
    pub fn next(&self, q: StateId, a: Symbol) -> StateId {
        self.table[q as usize * self.n_symbols as usize + a.index()]
    }

    /// Extended transition function `δ*(q, w)`.
    pub fn run_from(&self, q: StateId, word: &[Symbol]) -> StateId {
        word.iter().fold(q, |q, &a| self.next(q, a))
    }

    /// Does the DFA accept `word` from the start state?
    pub fn accepts(&self, word: &[Symbol]) -> bool {
        self.is_accepting(self.run_from(self.start, word))
    }

    /// Is ε in the language?
    pub fn accepts_epsilon(&self) -> bool {
        self.is_accepting(self.start)
    }

    /// States from which no accepting state is reachable ("dead" states).
    pub fn dead_states(&self) -> Vec<bool> {
        // Reverse reachability from accepting states.
        let n = self.n_states();
        let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n];
        for q in 0..n {
            for a in 0..self.n_symbols() {
                let to = self.table[q * self.n_symbols() + a] as usize;
                rev[to].push(q as u32);
            }
        }
        let mut alive = vec![false; n];
        let mut stack: Vec<u32> = (0..n as u32)
            .filter(|&q| self.accepting[q as usize])
            .collect();
        for &q in &stack {
            alive[q as usize] = true;
        }
        while let Some(q) = stack.pop() {
            for &p in &rev[q as usize] {
                if !alive[p as usize] {
                    alive[p as usize] = true;
                    stack.push(p);
                }
            }
        }
        alive.iter().map(|&a| !a).collect()
    }

    /// Is the language empty?
    pub fn is_empty(&self) -> bool {
        self.dead_states()[self.start as usize]
    }

    /// All transitions `(q, a, q')` as an iterator (diagnostics / tests).
    pub fn transitions(&self) -> impl Iterator<Item = (StateId, Symbol, StateId)> + '_ {
        (0..self.n_states()).flat_map(move |q| {
            (0..self.n_symbols()).map(move |a| {
                (
                    q as StateId,
                    Symbol(a as u32),
                    self.table[q * self.n_symbols() + a],
                )
            })
        })
    }

    /// Product automaton accepting `L(self) ∩ L(other)` (test utility).
    ///
    /// # Panics
    /// Panics if alphabets differ.
    pub fn intersect(&self, other: &Dfa) -> Dfa {
        assert_eq!(self.n_symbols, other.n_symbols, "alphabet mismatch");
        let m = self.n_symbols();
        let pair_id = |a: StateId, b: StateId| (a as usize * other.n_states() + b as usize) as u32;
        let n = self.n_states() * other.n_states();
        let mut table = vec![0u32; n * m];
        let mut accepting = vec![false; n];
        for qa in 0..self.n_states() as u32 {
            for qb in 0..other.n_states() as u32 {
                let id = pair_id(qa, qb) as usize;
                accepting[id] = self.is_accepting(qa) && other.is_accepting(qb);
                for a in 0..m {
                    let sym = Symbol(a as u32);
                    table[id * m + a] = pair_id(self.next(qa, sym), other.next(qb, sym));
                }
            }
        }
        Dfa::from_parts(m, table, pair_id(self.start, other.start), accepting)
    }

    /// Complement automaton (complete DFAs make this a flip of accepting).
    pub fn complement(&self) -> Dfa {
        let mut out = self.clone();
        for a in &mut out.accepting {
            *a = !*a;
        }
        out
    }

    /// Language equivalence via symmetric-difference emptiness.
    pub fn equivalent(&self, other: &Dfa) -> bool {
        self.intersect(&other.complement()).is_empty()
            && other.intersect(&self.complement()).is_empty()
    }
}

/// The DFA under subset construction: state id ↔ NFA state set.
struct Subsets {
    n_symbols: usize,
    /// The NFA's accept state.
    accept: usize,
    /// The state sets back to back, in state order.
    sets: Vec<u64>,
    index: HashMap<Vec<u64>, StateId>,
    table: Vec<StateId>,
    accepting: Vec<bool>,
}

impl Subsets {
    fn intern(&mut self, set: &[u64]) -> StateId {
        if let Some(&id) = self.index.get(set) {
            return id;
        }
        let id = self.accepting.len() as StateId;
        self.accepting
            .push(set[self.accept / 64] >> (self.accept % 64) & 1 == 1);
        self.table.extend(std::iter::repeat_n(0, self.n_symbols));
        self.index.insert(set.to_vec(), id);
        self.sets.extend_from_slice(set);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Regex;
    use crate::nfa::Nfa;

    fn sym(i: u32) -> Symbol {
        Symbol(i)
    }

    fn s(i: u32) -> Regex {
        Regex::Sym(sym(i))
    }

    fn dfa_of(re: &Regex, n: usize) -> Dfa {
        Dfa::from_nfa(&Nfa::from_regex(re, n))
    }

    #[test]
    fn dfa_agrees_with_nfa_on_small_words() {
        let res = [
            Regex::ifq(&[sym(0), sym(1)]),
            Regex::star(Regex::alt(vec![s(0), Regex::concat(vec![s(1), s(2)])])),
            Regex::plus(Regex::Wildcard),
            Regex::Empty,
            Regex::Epsilon,
            Regex::optional(Regex::concat(vec![s(0), s(0)])),
        ];
        for re in &res {
            let nfa = Nfa::from_regex(re, 3);
            let dfa = Dfa::from_nfa(&nfa);
            // Exhaustively compare on all words of length ≤ 4 over {0,1,2}.
            let mut words: Vec<Vec<Symbol>> = vec![vec![]];
            for _ in 0..4 {
                let mut next = Vec::new();
                for w in &words {
                    for a in 0..3 {
                        let mut w2 = w.clone();
                        w2.push(sym(a));
                        next.push(w2);
                    }
                }
                for w in next {
                    words.push(w);
                }
            }
            for w in &words {
                assert_eq!(dfa.accepts(w), nfa.accepts(w), "regex {re:?}, word {w:?}");
            }
        }
    }

    #[test]
    fn dfa_is_complete() {
        let dfa = dfa_of(&s(0), 2);
        // Every (state, symbol) has a target — from_parts would have
        // panicked otherwise. Check a dead state really exists.
        let dead = dfa.dead_states();
        assert!(dead.iter().any(|&d| d));
    }

    #[test]
    fn empty_language_detected() {
        assert!(dfa_of(&Regex::Empty, 2).is_empty());
        assert!(!dfa_of(&Regex::Epsilon, 2).is_empty());
        assert!(!dfa_of(&s(0), 2).is_empty());
    }

    #[test]
    fn epsilon_membership() {
        assert!(dfa_of(&Regex::any_star(), 2).accepts_epsilon());
        assert!(!dfa_of(&Regex::plus(Regex::Wildcard), 2).accepts_epsilon());
    }

    #[test]
    fn intersect_and_equivalence() {
        // a* b* ∩ b* a* = a* | b*  … over {a,b} that's words of one letter.
        let l = dfa_of(
            &Regex::concat(vec![Regex::star(s(0)), Regex::star(s(1))]),
            2,
        );
        let r = dfa_of(
            &Regex::concat(vec![Regex::star(s(1)), Regex::star(s(0))]),
            2,
        );
        let both = l.intersect(&r);
        let expect = dfa_of(&Regex::alt(vec![Regex::star(s(0)), Regex::star(s(1))]), 2);
        assert!(both.equivalent(&expect));
        assert!(!l.equivalent(&r));
    }

    #[test]
    fn complement_flips_membership() {
        let dfa = dfa_of(&s(0), 2);
        let comp = dfa.complement();
        assert!(dfa.accepts(&[sym(0)]));
        assert!(!comp.accepts(&[sym(0)]));
        assert!(comp.accepts(&[]));
    }

    #[test]
    fn run_from_composes() {
        let dfa = dfa_of(&Regex::concat(vec![s(0), s(1)]), 2);
        let mid = dfa.run_from(dfa.start(), &[sym(0)]);
        let end = dfa.run_from(mid, &[sym(1)]);
        assert!(dfa.is_accepting(end));
    }
}
