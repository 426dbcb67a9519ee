//! The class alphabet of a regex: the symbols it mentions, plus one
//! class for all the rest.
//!
//! A regex distinguishes only the symbols it names; every other symbol
//! of Γ can be matched by the wildcard alone, so all of them behave
//! alike in the Thompson NFA and in every automaton derived from it.
//! Subset construction and minimization therefore run over
//! `mentioned + 1` columns however large Γ is (a workflow
//! specification has hundreds of edge tags, a query names a handful),
//! and [`SymbolClasses::expand`] widens the result back to Γ.

use crate::ast::{Regex, Symbol};
use crate::dfa::{Dfa, StateId};

/// The partition of an alphabet induced by one regex.
pub(crate) struct SymbolClasses {
    /// Class of each symbol of Γ. Mentioned symbols get classes
    /// `0..k` in symbol order; unmentioned ones share class `k`.
    class_of: Vec<u32>,
    n_classes: usize,
}

impl SymbolClasses {
    /// The classes of `regex` over an alphabet of `n_symbols` symbols.
    /// When every symbol is mentioned the classes are the symbols.
    ///
    /// # Panics
    /// Panics if the regex mentions a symbol outside `0..n_symbols`.
    pub(crate) fn of(regex: &Regex, n_symbols: usize) -> SymbolClasses {
        let mentioned = regex.symbols();
        if let Some(s) = mentioned.last() {
            assert!(
                s.index() < n_symbols,
                "symbol {s:?} outside alphabet of size {n_symbols}"
            );
        }
        let rest = mentioned.len() as u32;
        let mut class_of = vec![rest; n_symbols];
        for (class, s) in mentioned.iter().enumerate() {
            class_of[s.index()] = class as u32;
        }
        SymbolClasses {
            class_of,
            n_classes: mentioned.len() + usize::from(mentioned.len() < n_symbols),
        }
    }

    /// Number of classes (the width of the class alphabet).
    pub(crate) fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The class of `s`, as a symbol of the class alphabet.
    pub(crate) fn class(&self, s: Symbol) -> Symbol {
        Symbol(self.class_of[s.index()])
    }

    /// Widen a *minimal* DFA over the class alphabet to Γ: every
    /// symbol's column is its class's column, and states are renumbered
    /// breadth-first from the start state in Γ's symbol order — the
    /// numbering [`crate::minimize`] gives a DFA built over Γ directly,
    /// so the two are structurally equal.
    pub(crate) fn expand(&self, dfa: &Dfa) -> Dfa {
        debug_assert_eq!(dfa.n_symbols(), self.n_classes);
        let n = dfa.n_states();
        let mut renumber = vec![StateId::MAX; n];
        let mut order: Vec<StateId> = Vec::with_capacity(n);
        let mut table = Vec::with_capacity(n * self.class_of.len());
        renumber[dfa.start() as usize] = 0;
        order.push(dfa.start());
        let mut head = 0;
        while head < order.len() {
            let q = order[head];
            head += 1;
            for &class in &self.class_of {
                let to = dfa.next(q, Symbol(class)) as usize;
                if renumber[to] == StateId::MAX {
                    renumber[to] = order.len() as StateId;
                    order.push(to as StateId);
                }
                table.push(renumber[to]);
            }
        }
        // Minimal DFAs are trim: the walk visits every state.
        debug_assert_eq!(order.len(), n);
        let accepting = order.iter().map(|&q| dfa.is_accepting(q)).collect();
        Dfa::from_parts(self.class_of.len(), table, 0, accepting)
    }
}
