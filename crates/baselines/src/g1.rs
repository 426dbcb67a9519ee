//! Baseline **G1**: bottom-up parse-tree evaluation with joins
//! (Li & Moon, VLDB 2001 — the paper's Option G1).
//!
//! "This approach treats a regular expression as a (binary/unary) tree,
//! where leaves are single symbols, and internal nodes are union,
//! concatenation, or Kleene star. We then evaluate the tree bottom-up."
//! Every subexpression materializes its full node-pair relation, which is
//! exactly why the approach drowns in intermediate results on lowly
//! selective subqueries and unbounded Kleene fixpoints (Fig. 13g/13h).

use rpq_automata::Regex;
use rpq_grammar::Tag;
use rpq_labeling::{NodeId, Run};
use rpq_relalg::{closure_in, compose_in, NodePairSet, Relation, TagIndex};

/// G1 evaluator bound to one run (through its tag index).
pub struct G1<'a> {
    index: &'a TagIndex,
}

impl<'a> G1<'a> {
    /// Bind to a prebuilt tag index.
    pub fn new(index: &'a TagIndex) -> G1<'a> {
        G1 { index }
    }

    /// Evaluate a regex bottom-up to its full relation. Joins and
    /// fixpoints dispatch through the kernel-aware relalg operators
    /// (the run's node count — stored on the index — bounds the
    /// bitset universe), and intermediates stay in the format of the
    /// kernel that produced them, so G1 benefits from the bit-parallel
    /// kernel exactly as the decomposed evaluator's unsafe remainders
    /// do.
    pub fn eval(&self, regex: &Regex) -> Relation {
        let n_nodes = self.index.n_nodes();
        match regex {
            Regex::Empty => Relation::empty(),
            Regex::Epsilon => Relation::epsilon(),
            Regex::Sym(s) => Relation::from_pairs(self.index.edges(Tag(s.0)).clone()),
            Regex::Wildcard => Relation::from_pairs(self.index.all_edges().clone()),
            Regex::Concat(parts) => {
                let mut rel = self.eval(&parts[0]);
                for p in &parts[1..] {
                    if rel.pairs.is_empty() && !rel.identity {
                        return Relation::empty();
                    }
                    rel = compose_in(&rel, &self.eval(p), n_nodes);
                }
                rel
            }
            Regex::Alt(parts) => {
                // Fold from the first part, as the decomposed
                // evaluator does: a union with an empty list would
                // copy the other side's rows.
                let mut rels = parts.iter().map(|p| self.eval(p));
                let first = rels.next().unwrap_or_default();
                rels.fold(first, |rel, r| rel.union(&r))
            }
            Regex::Star(inner) => {
                let base = self.eval(inner);
                Relation {
                    pairs: closure_in(&base.pairs, n_nodes),
                    identity: true,
                }
            }
            Regex::Plus(inner) => {
                let base = self.eval(inner);
                Relation {
                    pairs: closure_in(&base.pairs, n_nodes),
                    identity: base.identity,
                }
            }
            Regex::Optional(inner) => {
                let base = self.eval(inner);
                Relation {
                    pairs: base.pairs,
                    identity: true,
                }
            }
        }
    }

    /// All-pairs over `l1 × l2`: one merge pass over a sorted relation,
    /// or one masked scan of the selected bit rows
    /// ([`Relation::select_pairs`]), instead of an `|l1|·|l2|`
    /// membership product.
    pub fn all_pairs(&self, regex: &Regex, l1: &[NodeId], l2: &[NodeId]) -> NodePairSet {
        self.eval(regex).select_pairs(l1, l2)
    }

    /// Pairwise query (evaluates the whole relation — G1 has no better
    /// pairwise mode, which the paper exploits).
    pub fn pairwise(&self, regex: &Regex, u: NodeId, v: NodeId) -> bool {
        self.eval(regex).contains(u, v)
    }

    /// The run is only needed by callers for node lists; expose nothing
    /// else to keep the baseline honest (no labels, no grammar).
    pub fn index(&self) -> &TagIndex {
        self.index
    }
}

/// Convenience: build the index and evaluate once (tests).
pub fn eval_once(run: &Run, n_tags: usize, regex: &Regex) -> Relation {
    let index = TagIndex::build(run, n_tags);
    G1::new(&index).eval(regex)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::{compile_minimal_dfa, Symbol};
    use rpq_grammar::SpecificationBuilder;
    use rpq_labeling::RunBuilder;

    fn linear_rec_spec() -> rpq_grammar::Specification {
        let mut b = SpecificationBuilder::new();
        b.atomic("t");
        b.atomic("u");
        b.composite("S");
        b.production("S", |w| {
            let x = w.node("t");
            let s = w.node("S");
            let y = w.node("u");
            w.edge_named(x, s, "fwd");
            w.edge_named(s, y, "bwd");
        });
        b.production("S", |w| {
            let x = w.node("t");
            let y = w.node("u");
            w.edge_named(x, y, "mid");
        });
        b.start("S");
        b.build().unwrap()
    }

    #[test]
    fn g1_matches_referee_on_assorted_queries() {
        let spec = linear_rec_spec();
        let run = RunBuilder::new(&spec)
            .seed(3)
            .target_edges(60)
            .build()
            .unwrap();
        let index = TagIndex::build(&run, spec.n_tags());
        let g1 = G1::new(&index);
        let all: Vec<NodeId> = run.node_ids().collect();

        let sym = |name: &str| Symbol(spec.tag_by_name(name).unwrap().0);
        let queries = vec![
            Regex::any_star(),
            Regex::ifq(&[sym("mid")]),
            Regex::plus(Regex::Sym(sym("fwd"))),
            Regex::concat(vec![
                Regex::star(Regex::Sym(sym("fwd"))),
                Regex::Sym(sym("mid")),
                Regex::star(Regex::Sym(sym("bwd"))),
            ]),
            Regex::alt(vec![Regex::Sym(sym("fwd")), Regex::Sym(sym("bwd"))]),
            Regex::Epsilon,
            Regex::Empty,
        ];
        for q in &queries {
            let dfa = compile_minimal_dfa(q, spec.n_tags());
            let referee = crate::Referee::new(&run, &dfa);
            assert_eq!(
                g1.all_pairs(q, &all, &all),
                referee.all_pairs(&all, &all),
                "query {q:?}"
            );
        }
    }

    #[test]
    fn full_star_is_reachability() {
        let spec = linear_rec_spec();
        let run = RunBuilder::new(&spec)
            .seed(1)
            .target_edges(40)
            .build()
            .unwrap();
        let rel = eval_once(&run, spec.n_tags(), &Regex::any_star());
        assert!(rel.identity);
        // entry reaches exit.
        assert!(rel.contains(run.entry(), run.exit()));
        assert!(!rel.contains(run.exit(), run.entry()));
    }
}
