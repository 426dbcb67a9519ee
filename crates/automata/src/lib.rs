#![warn(missing_docs)]

//! Regular-expression and finite-automaton machinery for regular path
//! queries over workflow provenance.
//!
//! The paper (Huang et al., ICDE 2015) relies on the `dk.brics.automaton`
//! Java library to parse regular expressions and minimize DFAs; this crate
//! is the Rust replacement. It provides:
//!
//! * a regex AST over an interned symbol alphabet ([`Regex`]),
//! * a text syntax for queries ([`parse`]), e.g. `"_* e _*"` for the
//!   paper's query `R3` and `"x (a1|a2)+ s _* p"` for the introduction's
//!   example,
//! * Thompson-style NFAs ([`nfa::Nfa`]),
//! * complete (total) DFAs via subset construction ([`dfa::Dfa`]),
//! * Moore partition-refinement minimization ([`minimize::minimize`]),
//! * language analyses used by the query planner and the baselines
//!   ([`analysis`]).
//!
//! Symbols are small integers ([`Symbol`]); callers (the grammar crate)
//! intern edge-tag names to symbols. The *wildcard* `_` matches any single
//! symbol of the alphabet, mirroring the paper's `⎵` tag wildcard.
//!
//! ## The class alphabet
//!
//! [`compile_minimal_dfa`] does not run the pipeline over Γ. A regex
//! tells apart only the symbols it mentions; all others are matched by
//! the wildcard or not at all, so they share one column in every
//! automaton of the pipeline. The compile step partitions Γ into the
//! mentioned symbols plus one "rest" class, runs Thompson → subset
//! construction → Moore over that class alphabet, then copies the
//! class columns out to Γ and renumbers the states breadth-first in
//! Γ's symbol order. Compile time follows the query (a handful of
//! classes), not the specification (hundreds of tags), and the result
//! is structurally equal to `minimize(Dfa::from_nfa(Nfa::from_regex(..)))`
//! over Γ — the building blocks stay public as that referee, and
//! `tests/automata_properties.rs` holds the two to it. There is one
//! path: when every symbol is mentioned the classes are the symbols.

pub mod analysis;
pub mod ast;
mod classes;
pub mod dfa;
pub mod minimize;
pub mod nfa;
pub mod parser;

pub use analysis::{contains_epsilon, is_empty, required_symbols};
pub use ast::{Regex, Symbol};
pub use dfa::{Dfa, StateId, DEAD_STATE_NONE};
pub use minimize::minimize;
pub use nfa::Nfa;
pub use parser::{parse, ParseError};

/// Compile a regex AST straight to a *minimal, complete* DFA over an
/// alphabet of `n_symbols` symbols.
///
/// This is the one-stop entry point used by the query planner: the paper's
/// Lemma 3.2 shows safety checking may (and should) be performed on the
/// minimal DFA.
///
/// The automata are built over the regex's class alphabet (see the
/// crate docs) and widened to `n_symbols` columns at the end.
///
/// # Panics
/// Panics if the regex mentions a symbol outside `0..n_symbols`.
pub fn compile_minimal_dfa(regex: &Regex, n_symbols: usize) -> Dfa {
    let classes = classes::SymbolClasses::of(regex, n_symbols);
    let nfa = Nfa::from_regex_renamed(regex, classes.n_classes(), &|s| classes.class(s));
    classes.expand(&minimize(&Dfa::from_nfa(&nfa)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_compile_ifq() {
        // _* a _* over alphabet {a, b}: minimal DFA has 2 states.
        let re = parse("_* s0 _*", &mut |name| match name {
            "s0" => Some(Symbol(0)),
            _ => None,
        })
        .unwrap();
        let dfa = compile_minimal_dfa(&re, 2);
        assert_eq!(dfa.n_states(), 2);
        assert!(dfa.accepts(&[Symbol(1), Symbol(0), Symbol(1)]));
        assert!(!dfa.accepts(&[Symbol(1), Symbol(1)]));
    }
}
