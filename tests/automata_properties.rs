//! Property tests for the automata substrate.

use proptest::prelude::*;
use rpq_automata::{analysis, compile_minimal_dfa, minimize, parse, Dfa, Nfa, Regex, Symbol};

const N_SYMS: usize = 3;

/// Random regex strategy over a 3-symbol alphabet.
fn regex_strategy() -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![
        (0u32..N_SYMS as u32).prop_map(|i| Regex::Sym(Symbol(i))),
        Just(Regex::Wildcard),
        Just(Regex::Epsilon),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Regex::concat),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Regex::alt),
            inner.clone().prop_map(Regex::star),
            inner.clone().prop_map(Regex::plus),
            inner.prop_map(Regex::optional),
        ]
    })
}

/// Alphabet sizes of the sparse-alphabet strategy: a query names a
/// handful of a specification's tags, or all of a toy one's.
const ALPHABETS: [usize; 5] = [1, 2, 3, 40, 200];

/// A regex mentioning at most four symbols of an alphabet drawn from
/// [`ALPHABETS`] — none of them (`_*`), some (a "rest" class exists) or
/// all (it does not) — with `Empty` and `Epsilon` among the leaves.
fn sparse_regex_strategy() -> impl Strategy<Value = (Regex, usize)> {
    let leaf = prop_oneof![
        (0u32..4).prop_map(|slot| Regex::Sym(Symbol(slot))),
        Just(Regex::Wildcard),
        Just(Regex::any_star()),
        Just(Regex::Epsilon),
        Just(Regex::Empty),
    ];
    // Raw constructors, so ε and ∅ survive inside composites instead
    // of being normalized away.
    let shape = leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Regex::Concat),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Regex::Alt),
            inner.clone().prop_map(|r| Regex::Star(Box::new(r))),
            inner.clone().prop_map(|r| Regex::Plus(Box::new(r))),
            inner.prop_map(|r| Regex::Optional(Box::new(r))),
        ]
    });
    let picks = prop::collection::vec(0u32..200, 4..5);
    (shape, 0usize..ALPHABETS.len(), picks).prop_map(|(shape, alphabet, picks)| {
        let n = ALPHABETS[alphabet];
        (place(&shape, &|slot| Symbol(picks[slot] % n as u32)), n)
    })
}

/// `shape` with symbol slot `i` replaced by `symbol_of(i)`.
fn place(shape: &Regex, symbol_of: &dyn Fn(usize) -> Symbol) -> Regex {
    let all = |parts: &[Regex]| parts.iter().map(|p| place(p, symbol_of)).collect();
    match shape {
        Regex::Sym(slot) => Regex::Sym(symbol_of(slot.index())),
        Regex::Concat(parts) => Regex::Concat(all(parts)),
        Regex::Alt(parts) => Regex::Alt(all(parts)),
        Regex::Star(inner) => Regex::Star(Box::new(place(inner, symbol_of))),
        Regex::Plus(inner) => Regex::Plus(Box::new(place(inner, symbol_of))),
        Regex::Optional(inner) => Regex::Optional(Box::new(place(inner, symbol_of))),
        leaf => leaf.clone(),
    }
}

/// The pipeline over the whole alphabet, from the public building
/// blocks: what `compile_minimal_dfa` must equal state for state.
fn referee_minimal_dfa(re: &Regex, n_symbols: usize) -> Dfa {
    minimize(&Dfa::from_nfa(&Nfa::from_regex(re, n_symbols)))
}

#[test]
fn class_alphabet_corner_cases_equal_the_referee() {
    for n in ALPHABETS {
        let last = Symbol(n as u32 - 1);
        let every_symbol = Regex::alt((0..n as u32).map(|i| Regex::Sym(Symbol(i))).collect());
        for re in [
            Regex::any_star(),
            Regex::Wildcard,
            Regex::Empty,
            Regex::Epsilon,
            Regex::Sym(last),
            Regex::ifq(&[last, Symbol(0)]),
            // No rest class: every symbol is mentioned.
            Regex::star(every_symbol.clone()),
            Regex::concat(vec![every_symbol, Regex::Sym(last)]),
        ] {
            assert_eq!(
                compile_minimal_dfa(&re, n),
                referee_minimal_dfa(&re, n),
                "{re:?} over {n} symbols"
            );
        }
    }
}

fn all_words(max_len: usize) -> Vec<Vec<Symbol>> {
    let mut words: Vec<Vec<Symbol>> = vec![vec![]];
    let mut frontier = vec![Vec::new()];
    for _ in 0..max_len {
        let mut next = Vec::new();
        for w in &frontier {
            for a in 0..N_SYMS as u32 {
                let mut w2 = w.clone();
                w2.push(Symbol(a));
                next.push(w2);
            }
        }
        words.extend(next.iter().cloned());
        frontier = next;
    }
    words
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// NFA, DFA and minimal DFA all accept exactly the same words.
    #[test]
    fn nfa_dfa_minimal_agree(re in regex_strategy()) {
        let nfa = Nfa::from_regex(&re, N_SYMS);
        let dfa = Dfa::from_nfa(&nfa);
        let min = minimize(&dfa);
        for w in all_words(4) {
            let via_nfa = nfa.accepts(&w);
            prop_assert_eq!(dfa.accepts(&w), via_nfa, "DFA vs NFA on {:?}", w);
            prop_assert_eq!(min.accepts(&w), via_nfa, "minimal vs NFA on {:?}", w);
        }
        // Structural invariants.
        prop_assert!(min.n_states() <= dfa.n_states());
        prop_assert_eq!(min.start(), 0);
        prop_assert_eq!(min.accepts_epsilon(), re.nullable());
    }

    /// The class-alphabet compile equals the full-alphabet pipeline on
    /// the dense 3-symbol alphabet of the other properties.
    #[test]
    fn dense_compile_equals_the_referee(re in regex_strategy()) {
        prop_assert_eq!(compile_minimal_dfa(&re, N_SYMS), referee_minimal_dfa(&re, N_SYMS));
    }

    /// Minimization is idempotent and canonical.
    #[test]
    fn minimize_idempotent(re in regex_strategy()) {
        let min = compile_minimal_dfa(&re, N_SYMS);
        prop_assert_eq!(minimize(&min), min.clone());
        prop_assert!(min.equivalent(&min));
    }

    /// Display → parse round-trips the AST.
    #[test]
    fn display_parse_round_trip(re in regex_strategy()) {
        let namer = |s: Symbol| format!("t{}", s.0);
        let rendered = re.display_with(&namer).to_string();
        let reparsed = parse(&rendered, &mut |name| {
            name.strip_prefix('t').and_then(|n| n.parse().ok()).map(Symbol)
        });
        prop_assert!(reparsed.is_ok(), "failed to reparse {rendered:?}");
        prop_assert_eq!(reparsed.unwrap(), re);
    }

    /// Required symbols really are required: removing all transitions on
    /// a required symbol empties the language of non-empty words.
    #[test]
    fn required_symbols_are_required(re in regex_strategy()) {
        let dfa = compile_minimal_dfa(&re, N_SYMS);
        let required = analysis::required_symbols(&dfa);
        for w in all_words(4) {
            if w.is_empty() || !dfa.accepts(&w) {
                continue;
            }
            for &r in &required {
                prop_assert!(
                    w.contains(&r),
                    "accepted word {:?} misses required symbol {:?} of {:?}",
                    w, r, re
                );
            }
        }
    }

    /// Product-intersection semantics on random pairs.
    #[test]
    fn intersection_is_conjunction(a in regex_strategy(), b in regex_strategy()) {
        let da = compile_minimal_dfa(&a, N_SYMS);
        let db = compile_minimal_dfa(&b, N_SYMS);
        let both = da.intersect(&db);
        for w in all_words(3) {
            prop_assert_eq!(
                both.accepts(&w),
                da.accepts(&w) && db.accepts(&w),
                "word {:?}", w
            );
        }
    }

    /// Complement flips membership; double complement is the identity
    /// language (checked via equivalence).
    #[test]
    fn complement_involution(a in regex_strategy()) {
        let da = compile_minimal_dfa(&a, N_SYMS);
        let comp = da.complement();
        for w in all_words(3) {
            prop_assert_eq!(comp.accepts(&w), !da.accepts(&w));
        }
        prop_assert!(da.equivalent(&comp.complement()));
    }

    /// Shortest accepted word length matches brute-force enumeration.
    #[test]
    fn shortest_word_matches_enumeration(re in regex_strategy()) {
        let dfa = compile_minimal_dfa(&re, N_SYMS);
        let brute = all_words(5).into_iter().filter(|w| dfa.accepts(w)).map(|w| w.len()).min();
        match (analysis::shortest_word_len(&dfa), brute) {
            (Some(k), Some(b)) if k <= 5 => prop_assert_eq!(k, b),
            (Some(k), None) => prop_assert!(k > 5, "claimed shortest {k} but nothing ≤ 5"),
            (None, found) => prop_assert_eq!(found, None),
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// The class-alphabet compile is structurally equal — states,
    /// numbering, table, accepting — to the full-alphabet pipeline.
    #[test]
    fn class_alphabet_compile_equals_the_referee(case in sparse_regex_strategy()) {
        let (re, n_symbols) = case;
        prop_assert_eq!(
            compile_minimal_dfa(&re, n_symbols),
            referee_minimal_dfa(&re, n_symbols),
            "{:?} over {} symbols", re, n_symbols
        );
    }
}
