//! Regex abstract syntax over an interned symbol alphabet.
//!
//! Queries in the paper are regular expressions over edge tags `Γ`,
//! built from constants (a tag, the empty string `ε`, or the single-symbol
//! wildcard `⎵`), concatenation, alternation and Kleene star/plus
//! (Section III-A). The AST mirrors that definition exactly, with two
//! additions that make algebraic manipulation convenient: an explicit
//! empty *language* (`Empty`, denoting ∅) and `Optional` (`e?`, sugar for
//! `e | ε`).

use std::fmt;

/// An interned alphabet symbol (an edge tag).
///
/// The grammar crate maps tag names to dense `u32` ids; the automaton
/// layer never sees the names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The symbol's dense index, usable directly as a table column.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A regular path query over edge tags.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Regex {
    /// The empty language ∅ (matches nothing). Not part of the paper's
    /// surface syntax but useful as an algebraic zero.
    Empty,
    /// The empty string ε.
    Epsilon,
    /// A single concrete symbol.
    Sym(Symbol),
    /// The single-symbol wildcard `⎵` — matches any one symbol.
    Wildcard,
    /// Concatenation `e1 e2 … en` (n ≥ 2 after normalization).
    Concat(Vec<Regex>),
    /// Alternation `e1 | e2 | … | en` (n ≥ 2 after normalization).
    Alt(Vec<Regex>),
    /// Kleene star `e*` (zero or more).
    Star(Box<Regex>),
    /// Kleene plus `e+` (one or more).
    Plus(Box<Regex>),
    /// Option `e?` (zero or one).
    Optional(Box<Regex>),
}

impl Regex {
    /// Smart constructor for concatenation: drops ε units, propagates ∅,
    /// and flattens nested concatenations.
    pub fn concat(parts: Vec<Regex>) -> Regex {
        let mut out = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Regex::Epsilon => {}
                Regex::Empty => return Regex::Empty,
                Regex::Concat(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Regex::Epsilon,
            1 => out.pop().expect("len checked"),
            _ => Regex::Concat(out),
        }
    }

    /// Smart constructor for alternation: drops ∅ branches and flattens.
    pub fn alt(parts: Vec<Regex>) -> Regex {
        let mut out = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Regex::Empty => {}
                Regex::Alt(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Regex::Empty,
            1 => out.pop().expect("len checked"),
            _ => Regex::Alt(out),
        }
    }

    /// Smart constructor for star: `∅* = ε* = ε`, `(e*)* = e*`.
    pub fn star(inner: Regex) -> Regex {
        match inner {
            Regex::Empty | Regex::Epsilon => Regex::Epsilon,
            s @ Regex::Star(_) => s,
            Regex::Plus(e) | Regex::Optional(e) => Regex::Star(e),
            other => Regex::Star(Box::new(other)),
        }
    }

    /// Smart constructor for plus: `∅+ = ∅`, `ε+ = ε`, `(e*)+ = e*`.
    pub fn plus(inner: Regex) -> Regex {
        match inner {
            Regex::Empty => Regex::Empty,
            Regex::Epsilon => Regex::Epsilon,
            s @ Regex::Star(_) => s,
            Regex::Optional(e) => Regex::Star(e),
            other => Regex::Plus(Box::new(other)),
        }
    }

    /// Smart constructor for option.
    pub fn optional(inner: Regex) -> Regex {
        match inner {
            Regex::Empty | Regex::Epsilon => Regex::Epsilon,
            s @ (Regex::Star(_) | Regex::Optional(_)) => s,
            Regex::Plus(e) => Regex::Star(e),
            other => Regex::Optional(Box::new(other)),
        }
    }

    /// Single symbol.
    pub fn sym(s: Symbol) -> Regex {
        Regex::Sym(s)
    }

    /// `⎵*` — the unconstrained reachability query (`R = ( )∗` in the
    /// paper, safe w.r.t. every workflow).
    pub fn any_star() -> Regex {
        Regex::Star(Box::new(Regex::Wildcard))
    }

    /// Build an *infrequent-form query* (IFQ, Section V-A):
    /// `⎵* a1 ⎵* a2 … ⎵* ak ⎵*`. With `k = 0` this degrades to plain
    /// reachability, exactly as the paper notes for Fig. 13d.
    pub fn ifq(symbols: &[Symbol]) -> Regex {
        let mut parts = vec![Regex::any_star()];
        for &s in symbols {
            parts.push(Regex::Sym(s));
            parts.push(Regex::any_star());
        }
        Regex::concat(parts)
    }

    /// Does ε belong to the language? (Syntactic check — exact, since the
    /// AST has no complement.)
    pub fn nullable(&self) -> bool {
        match self {
            Regex::Empty | Regex::Sym(_) | Regex::Wildcard => false,
            Regex::Epsilon | Regex::Star(_) | Regex::Optional(_) => true,
            Regex::Concat(parts) => parts.iter().all(Regex::nullable),
            Regex::Alt(parts) => parts.iter().any(Regex::nullable),
            Regex::Plus(inner) => inner.nullable(),
        }
    }

    /// Number of AST nodes; the paper's `|R|` when discussing complexity.
    pub fn size(&self) -> usize {
        match self {
            Regex::Empty | Regex::Epsilon | Regex::Sym(_) | Regex::Wildcard => 1,
            Regex::Concat(parts) | Regex::Alt(parts) => {
                1 + parts.iter().map(Regex::size).sum::<usize>()
            }
            Regex::Star(inner) | Regex::Plus(inner) | Regex::Optional(inner) => 1 + inner.size(),
        }
    }

    /// All concrete symbols mentioned anywhere in the expression.
    pub fn symbols(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        self.collect_symbols(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_symbols(&self, out: &mut Vec<Symbol>) {
        match self {
            Regex::Sym(s) => out.push(*s),
            Regex::Concat(parts) | Regex::Alt(parts) => {
                for p in parts {
                    p.collect_symbols(out);
                }
            }
            Regex::Star(inner) | Regex::Plus(inner) | Regex::Optional(inner) => {
                inner.collect_symbols(out)
            }
            Regex::Empty | Regex::Epsilon | Regex::Wildcard => {}
        }
    }

    /// Render with a caller-supplied symbol namer (inverse of interning).
    pub fn display_with<'a>(
        &'a self,
        namer: &'a dyn Fn(Symbol) -> String,
    ) -> impl fmt::Display + 'a {
        DisplayRegex { re: self, namer }
    }
}

struct DisplayRegex<'a> {
    re: &'a Regex,
    namer: &'a dyn Fn(Symbol) -> String,
}

impl fmt::Display for DisplayRegex<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_regex(self.re, self.namer, f, 0)
    }
}

/// Precedence levels: 0 = alternation, 1 = concatenation, 2 = postfix.
fn fmt_regex(
    re: &Regex,
    namer: &dyn Fn(Symbol) -> String,
    f: &mut fmt::Formatter<'_>,
    prec: u8,
) -> fmt::Result {
    match re {
        Regex::Empty => write!(f, "∅"),
        Regex::Epsilon => write!(f, "~"),
        Regex::Sym(s) => write!(f, "{}", namer(*s)),
        Regex::Wildcard => write!(f, "_"),
        Regex::Concat(parts) => {
            let need_parens = prec > 1;
            if need_parens {
                write!(f, "(")?;
            }
            for (i, p) in parts.iter().enumerate() {
                if i > 0 {
                    write!(f, " ")?;
                }
                fmt_regex(p, namer, f, 2)?;
            }
            if need_parens {
                write!(f, ")")?;
            }
            Ok(())
        }
        Regex::Alt(parts) => {
            let need_parens = prec > 0;
            if need_parens {
                write!(f, "(")?;
            }
            for (i, p) in parts.iter().enumerate() {
                if i > 0 {
                    write!(f, "|")?;
                }
                fmt_regex(p, namer, f, 1)?;
            }
            if need_parens {
                write!(f, ")")?;
            }
            Ok(())
        }
        Regex::Star(inner) => {
            fmt_regex(inner, namer, f, 2)?;
            write!(f, "*")
        }
        Regex::Plus(inner) => {
            fmt_regex(inner, namer, f, 2)?;
            write!(f, "+")
        }
        Regex::Optional(inner) => {
            fmt_regex(inner, namer, f, 2)?;
            write!(f, "?")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> Regex {
        Regex::Sym(Symbol(i))
    }

    #[test]
    fn concat_smart_constructor_flattens_and_drops_epsilon() {
        let r = Regex::concat(vec![
            Regex::Epsilon,
            s(0),
            Regex::Concat(vec![s(1), s(2)]),
            Regex::Epsilon,
        ]);
        assert_eq!(r, Regex::Concat(vec![s(0), s(1), s(2)]));
    }

    #[test]
    fn concat_propagates_empty() {
        assert_eq!(Regex::concat(vec![s(0), Regex::Empty, s(1)]), Regex::Empty);
    }

    #[test]
    fn concat_of_nothing_is_epsilon() {
        assert_eq!(Regex::concat(vec![]), Regex::Epsilon);
        assert_eq!(Regex::concat(vec![Regex::Epsilon]), Regex::Epsilon);
    }

    #[test]
    fn alt_drops_empty_branches() {
        assert_eq!(Regex::alt(vec![Regex::Empty, s(3)]), s(3));
        assert_eq!(Regex::alt(vec![Regex::Empty, Regex::Empty]), Regex::Empty);
    }

    #[test]
    fn star_simplifications() {
        assert_eq!(Regex::star(Regex::Empty), Regex::Epsilon);
        assert_eq!(Regex::star(Regex::star(s(0))), Regex::star(s(0)));
        assert_eq!(Regex::star(Regex::plus(s(0))), Regex::star(s(0)));
    }

    #[test]
    fn plus_simplifications() {
        assert_eq!(Regex::plus(Regex::Empty), Regex::Empty);
        assert_eq!(Regex::plus(Regex::Epsilon), Regex::Epsilon);
        assert_eq!(Regex::plus(Regex::optional(s(0))), Regex::star(s(0)));
    }

    #[test]
    fn nullable_matches_semantics() {
        assert!(Regex::Epsilon.nullable());
        assert!(Regex::any_star().nullable());
        assert!(!s(0).nullable());
        assert!(Regex::concat(vec![Regex::star(s(0)), Regex::star(s(1))]).nullable());
        assert!(!Regex::concat(vec![Regex::star(s(0)), s(1)]).nullable());
        assert!(Regex::alt(vec![s(0), Regex::Epsilon]).nullable());
        assert!(!Regex::Plus(Box::new(s(0))).nullable());
    }

    #[test]
    fn ifq_zero_is_reachability() {
        assert_eq!(Regex::ifq(&[]), Regex::any_star());
    }

    #[test]
    fn ifq_shape() {
        let r = Regex::ifq(&[Symbol(4), Symbol(7)]);
        assert_eq!(
            r,
            Regex::Concat(vec![
                Regex::any_star(),
                s(4),
                Regex::any_star(),
                s(7),
                Regex::any_star(),
            ])
        );
    }

    #[test]
    fn symbols_are_sorted_and_deduped() {
        let r = Regex::concat(vec![s(5), Regex::alt(vec![s(2), s(5)]), Regex::star(s(1))]);
        assert_eq!(r.symbols(), vec![Symbol(1), Symbol(2), Symbol(5)]);
    }

    #[test]
    fn size_counts_nodes() {
        let r = Regex::concat(vec![s(0), Regex::star(s(1))]);
        // Concat + Sym + Star + Sym
        assert_eq!(r.size(), 4);
    }

    #[test]
    fn display_round_trips_visually() {
        let namer = |sym: Symbol| format!("t{}", sym.0);
        let r = Regex::concat(vec![
            Regex::any_star(),
            Regex::alt(vec![s(1), s(2)]),
            Regex::plus(s(3)),
        ]);
        assert_eq!(r.display_with(&namer).to_string(), "_* (t1|t2) t3+");
    }
}
