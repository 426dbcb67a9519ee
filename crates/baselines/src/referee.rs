//! Brute-force ground truth: explicit product-graph search.
//!
//! Section III-B opens with "a simple algorithm": intersect the *run*
//! with the query DFA and test port reachability. That algorithm is
//! linear in run size — too slow to be the paper's answer, but perfect as
//! a referee for property tests: every other evaluator in this workspace
//! must agree with it.

use rpq_automata::{Dfa, Symbol};
use rpq_labeling::{NodeId, Run};
use rpq_relalg::NodePairSet;

/// Product-graph evaluator over one run and one DFA.
pub struct Referee<'a> {
    run: &'a Run,
    dfa: &'a Dfa,
}

impl<'a> Referee<'a> {
    /// Bind to a run and a (complete) DFA.
    pub fn new(run: &'a Run, dfa: &'a Dfa) -> Referee<'a> {
        Referee { run, dfa }
    }

    /// All `(node, state)` product states reachable from `(u, q0)`,
    /// returned as a per-node bitmask of states.
    fn forward_states(&self, u: NodeId) -> Vec<u64> {
        let nq = self.dfa.n_states();
        assert!(nq <= 64, "referee uses u64 state masks");
        let mut masks = vec![0u64; self.run.n_nodes()];
        let mut stack: Vec<(NodeId, u32)> = vec![(u, self.dfa.start())];
        masks[u.index()] |= 1 << self.dfa.start();
        while let Some((x, q)) = stack.pop() {
            for &(y, tag) in self.run.out_edges(x) {
                let q2 = self.dfa.next(q, Symbol(tag.0));
                if masks[y.index()] >> q2 & 1 == 0 {
                    masks[y.index()] |= 1 << q2;
                    stack.push((y, q2));
                }
            }
        }
        masks
    }

    /// Pairwise `u —R→ v`. The diagonal needs no rule of its own:
    /// `(u, u)` holds when the empty path or a cycle through `u` spells
    /// a word of `R`, and the search from `(u, q0)` sees both.
    pub fn pairwise(&self, u: NodeId, v: NodeId) -> bool {
        let masks = self.forward_states(u);
        let mut accepting = 0u64;
        for (q, &acc) in self.dfa.accepting().iter().enumerate() {
            if acc {
                accepting |= 1 << q;
            }
        }
        masks[v.index()] & accepting != 0
    }

    /// All-pairs over `l1 × l2`.
    pub fn all_pairs(&self, l1: &[NodeId], l2: &[NodeId]) -> NodePairSet {
        let mut accepting = 0u64;
        for (q, &acc) in self.dfa.accepting().iter().enumerate() {
            if acc {
                accepting |= 1 << q;
            }
        }
        let mut l2sorted: Vec<NodeId> = l2.to_vec();
        l2sorted.sort_unstable();
        l2sorted.dedup();
        let mut out = Vec::new();
        let mut l1sorted: Vec<NodeId> = l1.to_vec();
        l1sorted.sort_unstable();
        l1sorted.dedup();
        for &u in &l1sorted {
            let masks = self.forward_states(u);
            for &v in &l2sorted {
                if masks[v.index()] & accepting != 0 {
                    out.push((u, v));
                }
            }
        }
        NodePairSet::from_pairs(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::{compile_minimal_dfa, Regex};
    use rpq_grammar::SpecificationBuilder;
    use rpq_labeling::RunBuilder;

    #[test]
    fn referee_on_tiny_chain() {
        let mut b = SpecificationBuilder::new();
        for m in ["x", "y", "z"] {
            b.atomic(m);
        }
        b.composite("S");
        b.production("S", |w| {
            let x = w.node("x");
            let y = w.node("y");
            let z = w.node("z");
            w.edge_named(x, y, "p");
            w.edge_named(y, z, "q");
        });
        b.start("S");
        let spec = b.build().unwrap();
        let run = RunBuilder::new(&spec).build().unwrap();

        let p = Symbol(spec.tag_by_name("p").unwrap().0);
        let q = Symbol(spec.tag_by_name("q").unwrap().0);

        // p q exactly.
        let dfa = compile_minimal_dfa(
            &Regex::concat(vec![Regex::Sym(p), Regex::Sym(q)]),
            spec.n_tags(),
        );
        let referee = Referee::new(&run, &dfa);
        assert!(referee.pairwise(run.entry(), run.exit()));

        // p alone does not take entry to exit.
        let dfa_p = compile_minimal_dfa(&Regex::Sym(p), spec.n_tags());
        let referee_p = Referee::new(&run, &dfa_p);
        assert!(!referee_p.pairwise(run.entry(), run.exit()));

        // ε on self pairs.
        let star = compile_minimal_dfa(&Regex::any_star(), spec.n_tags());
        let referee_s = Referee::new(&run, &star);
        assert!(referee_s.pairwise(run.entry(), run.entry()));
        let plus = compile_minimal_dfa(&Regex::plus(Regex::Wildcard), spec.n_tags());
        let referee_pl = Referee::new(&run, &plus);
        assert!(!referee_pl.pairwise(run.entry(), run.entry()));
    }

    #[test]
    fn a_cycle_through_a_node_puts_it_on_the_diagonal() {
        let mut b = SpecificationBuilder::new();
        b.atomic("x");
        b.composite("S");
        b.production("S", |w| {
            let [a, x, y, z] = ["x"; 4].map(|m| w.node(m));
            w.edge_named(a, x, "q");
            w.edge_named(x, y, "p");
            w.edge_named(y, z, "q");
        });
        b.start("S");
        let spec = b.build().unwrap();
        let dag = RunBuilder::new(&spec).build().unwrap();
        let p = spec.tag_by_name("p").unwrap();
        let [x, y] = [1, 2].map(NodeId);
        // A back edge y -p-> x: x -p-> y -p-> x spells `p p`.
        let cyclic = dag
            .apply_events(&rpq_labeling::EventBatch {
                nodes: Vec::new(),
                edges: vec![rpq_labeling::RunEdge {
                    src: y,
                    dst: x,
                    tag: p,
                }],
            })
            .unwrap();
        let pp = Regex::concat(vec![Regex::Sym(Symbol(p.0)), Regex::Sym(Symbol(p.0))]);
        let dfa = compile_minimal_dfa(&pp, spec.n_tags());
        assert!(!Referee::new(&dag, &dfa).pairwise(x, x));
        let referee = Referee::new(&cyclic, &dfa);
        assert!(referee.pairwise(x, x) && referee.pairwise(y, y));
        assert!(!referee.pairwise(x, y));
        let all: Vec<NodeId> = cyclic.node_ids().collect();
        assert_eq!(
            referee.all_pairs(&all, &all),
            NodePairSet::from_pairs(vec![(x, x), (y, y)])
        );
    }

    #[test]
    fn all_pairs_dedups_inputs() {
        let mut b = SpecificationBuilder::new();
        b.atomic("x");
        b.composite("S");
        b.production("S", |w| {
            let x = w.node("x");
            let y = w.node("x");
            w.edge_named(x, y, "t");
        });
        b.start("S");
        let spec = b.build().unwrap();
        let run = RunBuilder::new(&spec).build().unwrap();
        let dfa = compile_minimal_dfa(&Regex::any_star(), spec.n_tags());
        let referee = Referee::new(&run, &dfa);
        let l: Vec<NodeId> = run.node_ids().chain(run.node_ids()).collect();
        let res = referee.all_pairs(&l, &l);
        assert_eq!(res.len(), 3); // (e,e), (e,x), (x,x)
    }
}
