//! Thompson-style NFA construction from a regex AST.
//!
//! Wildcard edges are kept symbolic (`Label::Any`) rather than fanned out
//! over the alphabet, so NFA size stays `O(|R|)` regardless of `|Γ|`;
//! subset construction resolves them against the concrete alphabet.

use crate::ast::{Regex, Symbol};

/// NFA transition label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    /// ε-move.
    Eps,
    /// A concrete symbol.
    Sym(Symbol),
    /// Any single symbol (wildcard).
    Any,
}

/// One transition `from --label--> to`.
#[derive(Debug, Clone, Copy)]
pub struct Transition {
    /// The edge label (ε, a symbol, or the wildcard).
    pub label: Label,
    /// Target state.
    pub to: u32,
}

/// A Thompson NFA with a single start state and a single accept state.
#[derive(Debug, Clone)]
pub struct Nfa {
    /// Outgoing transitions per state.
    transitions: Vec<Vec<Transition>>,
    start: u32,
    accept: u32,
    n_symbols: usize,
}

impl Nfa {
    /// Build an NFA for `regex` over an alphabet of `n_symbols` symbols.
    ///
    /// # Panics
    /// Panics if the regex mentions a symbol outside `0..n_symbols` —
    /// interning guarantees this for well-formed callers.
    pub fn from_regex(regex: &Regex, n_symbols: usize) -> Nfa {
        Nfa::from_regex_renamed(regex, n_symbols, &|s| s)
    }

    /// [`Nfa::from_regex`] with every symbol of the regex passed through
    /// `rename` first; `n_symbols` is the size of the *renamed* alphabet
    /// (how [`crate::compile_minimal_dfa`] builds over symbol classes).
    pub(crate) fn from_regex_renamed(
        regex: &Regex,
        n_symbols: usize,
        rename: &dyn Fn(Symbol) -> Symbol,
    ) -> Nfa {
        let mut b = Builder {
            transitions: Vec::new(),
            n_symbols,
            rename,
        };
        let frag = b.build(regex);
        Nfa {
            transitions: b.transitions,
            start: frag.start,
            accept: frag.accept,
            n_symbols,
        }
    }

    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.transitions.len()
    }

    /// Alphabet size.
    pub fn n_symbols(&self) -> usize {
        self.n_symbols
    }

    /// The unique start state.
    pub fn start(&self) -> u32 {
        self.start
    }

    /// The unique accept state.
    pub fn accept(&self) -> u32 {
        self.accept
    }

    /// Outgoing transitions of `state`.
    pub fn transitions_from(&self, state: u32) -> &[Transition] {
        &self.transitions[state as usize]
    }

    /// ε-closure of a set of states (sorted, deduplicated).
    pub fn eps_closure(&self, states: &[u32]) -> Vec<u32> {
        let mut seen = vec![false; self.n_states()];
        let mut stack: Vec<u32> = Vec::with_capacity(states.len());
        for &s in states {
            if !seen[s as usize] {
                seen[s as usize] = true;
                stack.push(s);
            }
        }
        let mut out = stack.clone();
        while let Some(s) = stack.pop() {
            for t in &self.transitions[s as usize] {
                if t.label == Label::Eps && !seen[t.to as usize] {
                    seen[t.to as usize] = true;
                    stack.push(t.to);
                    out.push(t.to);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// The ε-closure of every state as a bitset over states: `words`
    /// `u64`s per state in one flat vector, returned with `words`.
    /// Subset construction ORs these rows instead of walking ε-edges
    /// per successor set.
    pub(crate) fn eps_closure_bits(&self) -> (usize, Vec<u64>) {
        let n = self.n_states();
        let words = n.div_ceil(64);
        let mut bits = vec![0u64; n * words];
        let mut stack = Vec::new();
        for (s, row) in bits.chunks_exact_mut(words).enumerate() {
            row[s / 64] |= 1 << (s % 64);
            stack.push(s);
            while let Some(x) = stack.pop() {
                for t in &self.transitions[x] {
                    let to = t.to as usize;
                    if t.label == Label::Eps && row[to / 64] >> (to % 64) & 1 == 0 {
                        row[to / 64] |= 1 << (to % 64);
                        stack.push(to);
                    }
                }
            }
        }
        (words, bits)
    }

    /// Direct NFA word acceptance (used by tests as an oracle for the DFA).
    pub fn accepts(&self, word: &[Symbol]) -> bool {
        let mut current = self.eps_closure(&[self.start]);
        for &sym in word {
            let mut next = Vec::new();
            for &s in &current {
                for t in &self.transitions[s as usize] {
                    let matches = match t.label {
                        Label::Eps => false,
                        Label::Sym(ts) => ts == sym,
                        Label::Any => true,
                    };
                    if matches {
                        next.push(t.to);
                    }
                }
            }
            if next.is_empty() {
                return false;
            }
            current = self.eps_closure(&next);
        }
        current.binary_search(&self.accept).is_ok()
    }
}

struct Frag {
    start: u32,
    accept: u32,
}

struct Builder<'a> {
    transitions: Vec<Vec<Transition>>,
    n_symbols: usize,
    rename: &'a dyn Fn(Symbol) -> Symbol,
}

impl Builder<'_> {
    fn new_state(&mut self) -> u32 {
        self.transitions.push(Vec::new());
        (self.transitions.len() - 1) as u32
    }

    fn edge(&mut self, from: u32, label: Label, to: u32) {
        self.transitions[from as usize].push(Transition { label, to });
    }

    fn build(&mut self, re: &Regex) -> Frag {
        match re {
            Regex::Empty => {
                // Two disconnected states: nothing accepted.
                let start = self.new_state();
                let accept = self.new_state();
                Frag { start, accept }
            }
            Regex::Epsilon => {
                let start = self.new_state();
                let accept = self.new_state();
                self.edge(start, Label::Eps, accept);
                Frag { start, accept }
            }
            Regex::Sym(s) => {
                let s = (self.rename)(*s);
                assert!(
                    s.index() < self.n_symbols,
                    "symbol {s:?} outside alphabet of size {}",
                    self.n_symbols
                );
                let start = self.new_state();
                let accept = self.new_state();
                self.edge(start, Label::Sym(s), accept);
                Frag { start, accept }
            }
            Regex::Wildcard => {
                let start = self.new_state();
                let accept = self.new_state();
                self.edge(start, Label::Any, accept);
                Frag { start, accept }
            }
            Regex::Concat(parts) => {
                debug_assert!(!parts.is_empty());
                let mut iter = parts.iter();
                let first = self.build(iter.next().expect("non-empty concat"));
                let mut prev_accept = first.accept;
                for p in iter {
                    let f = self.build(p);
                    self.edge(prev_accept, Label::Eps, f.start);
                    prev_accept = f.accept;
                }
                Frag {
                    start: first.start,
                    accept: prev_accept,
                }
            }
            Regex::Alt(parts) => {
                let start = self.new_state();
                let accept = self.new_state();
                for p in parts {
                    let f = self.build(p);
                    self.edge(start, Label::Eps, f.start);
                    self.edge(f.accept, Label::Eps, accept);
                }
                Frag { start, accept }
            }
            Regex::Star(inner) => {
                let start = self.new_state();
                let accept = self.new_state();
                let f = self.build(inner);
                self.edge(start, Label::Eps, f.start);
                self.edge(start, Label::Eps, accept);
                self.edge(f.accept, Label::Eps, f.start);
                self.edge(f.accept, Label::Eps, accept);
                Frag { start, accept }
            }
            Regex::Plus(inner) => {
                let f = self.build(inner);
                let accept = self.new_state();
                self.edge(f.accept, Label::Eps, f.start);
                self.edge(f.accept, Label::Eps, accept);
                Frag {
                    start: f.start,
                    accept,
                }
            }
            Regex::Optional(inner) => {
                let start = self.new_state();
                let accept = self.new_state();
                let f = self.build(inner);
                self.edge(start, Label::Eps, f.start);
                self.edge(start, Label::Eps, accept);
                self.edge(f.accept, Label::Eps, accept);
                Frag { start, accept }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Regex;

    fn sym(i: u32) -> Symbol {
        Symbol(i)
    }

    fn s(i: u32) -> Regex {
        Regex::Sym(sym(i))
    }

    #[test]
    fn accepts_single_symbol() {
        let nfa = Nfa::from_regex(&s(0), 2);
        assert!(nfa.accepts(&[sym(0)]));
        assert!(!nfa.accepts(&[sym(1)]));
        assert!(!nfa.accepts(&[]));
        assert!(!nfa.accepts(&[sym(0), sym(0)]));
    }

    #[test]
    fn accepts_concat() {
        let nfa = Nfa::from_regex(&Regex::concat(vec![s(0), s(1)]), 2);
        assert!(nfa.accepts(&[sym(0), sym(1)]));
        assert!(!nfa.accepts(&[sym(1), sym(0)]));
    }

    #[test]
    fn accepts_alt() {
        let nfa = Nfa::from_regex(&Regex::alt(vec![s(0), s(1)]), 3);
        assert!(nfa.accepts(&[sym(0)]));
        assert!(nfa.accepts(&[sym(1)]));
        assert!(!nfa.accepts(&[sym(2)]));
    }

    #[test]
    fn accepts_star_including_empty() {
        let nfa = Nfa::from_regex(&Regex::star(s(0)), 1);
        assert!(nfa.accepts(&[]));
        assert!(nfa.accepts(&[sym(0)]));
        assert!(nfa.accepts(&[sym(0), sym(0), sym(0)]));
    }

    #[test]
    fn plus_requires_one() {
        let nfa = Nfa::from_regex(&Regex::plus(s(0)), 1);
        assert!(!nfa.accepts(&[]));
        assert!(nfa.accepts(&[sym(0)]));
        assert!(nfa.accepts(&[sym(0), sym(0)]));
    }

    #[test]
    fn wildcard_matches_anything_once() {
        let nfa = Nfa::from_regex(&Regex::Wildcard, 3);
        for i in 0..3 {
            assert!(nfa.accepts(&[sym(i)]));
        }
        assert!(!nfa.accepts(&[]));
        assert!(!nfa.accepts(&[sym(0), sym(1)]));
    }

    #[test]
    fn empty_language_accepts_nothing() {
        let nfa = Nfa::from_regex(&Regex::Empty, 2);
        assert!(!nfa.accepts(&[]));
        assert!(!nfa.accepts(&[sym(0)]));
    }

    #[test]
    fn ifq_semantics() {
        // _* t0 _* t1 _*
        let re = Regex::ifq(&[sym(0), sym(1)]);
        let nfa = Nfa::from_regex(&re, 3);
        assert!(nfa.accepts(&[sym(0), sym(1)]));
        assert!(nfa.accepts(&[sym(2), sym(0), sym(2), sym(1), sym(2)]));
        assert!(!nfa.accepts(&[sym(1), sym(0)]));
        assert!(!nfa.accepts(&[sym(0)]));
    }

    #[test]
    fn eps_closure_is_sorted_and_transitive() {
        // (a|b)* has a chain of ε states.
        let re = Regex::star(Regex::alt(vec![s(0), s(1)]));
        let nfa = Nfa::from_regex(&re, 2);
        let cl = nfa.eps_closure(&[nfa.start()]);
        assert!(cl.windows(2).all(|w| w[0] < w[1]));
        assert!(cl.contains(&nfa.accept()));
    }
}
