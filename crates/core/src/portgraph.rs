//! Port-graph closures of production bodies under a query DFA.
//!
//! This module realizes the query-intersected specification `G_R` of
//! Section III-B *implicitly*: instead of materializing modules with
//! `|Q|` input/output ports, it computes — per production body — the
//! state-transition matrices between all port pairs the decoder and the
//! safety check need:
//!
//! * `between[i][j]`: transitions from the **output** of body node `i` to
//!   the **input** of body node `j` (crossing edges and intermediate
//!   modules' λ matrices);
//! * `up[i]`: from the output of node `i` to the body's output (the
//!   sink's output port);
//! * `down[j]`: from the body's input (the source's input port) to the
//!   input of node `j`;
//! * `head`: from body input to body output — the candidate λ of the
//!   production's head module.

use crate::matrix::{StateMatrix, MAX_STATES};
use rpq_automata::{Dfa, StateId, Symbol};
use rpq_grammar::{ModuleId, SimpleWorkflow, Tag};
use std::collections::HashMap;

/// The one-symbol step matrices of a DFA, one per *symbol class*.
///
/// Tags with equal DFA columns step every state alike, and a query DFA
/// has only a few distinct columns (the symbols it mentions, plus one
/// for the rest of Γ), so one safety check builds a handful of
/// matrices however many edges the specification's bodies have.
pub struct EdgeSteps {
    dim: usize,
    class_of: Vec<u32>,
    steps: Vec<StateMatrix>,
}

impl EdgeSteps {
    /// Group the DFA's symbols by column and build one step matrix per
    /// group.
    pub fn new(dfa: &Dfa) -> EdgeSteps {
        let mut classes: HashMap<Vec<StateId>, u32> = HashMap::new();
        let mut steps = Vec::new();
        let mut column = Vec::with_capacity(dfa.n_states());
        let class_of = (0..dfa.n_symbols())
            .map(|a| {
                let a = Symbol(a as u32);
                column.clear();
                column.extend((0..dfa.n_states()).map(|q| dfa.next(q as StateId, a)));
                if let Some(&class) = classes.get(&column) {
                    return class;
                }
                steps.push(StateMatrix::from_dfa_symbol(dfa, a));
                classes.insert(column.clone(), steps.len() as u32 - 1);
                steps.len() as u32 - 1
            })
            .collect();
        EdgeSteps {
            dim: dfa.n_states(),
            class_of,
            steps,
        }
    }

    /// Number of DFA states the matrices range over.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The step matrix of an edge tagged `tag`.
    #[inline]
    pub fn of(&self, tag: Tag) -> &StateMatrix {
        &self.steps[self.class_of[tag.index()] as usize]
    }
}

/// The candidate λ of a production's head — body input → body output —
/// by one forward sweep from the body's source, keeping nothing else.
/// Equals [`BodyMatrices::head`] of the full closure computation.
///
/// `lambda_of` must be defined for every module occurring in `body`.
pub(crate) fn head_candidate<'a>(
    body: &SimpleWorkflow,
    steps: &EdgeSteps,
    lambda_of: impl Fn(ModuleId) -> &'a StateMatrix,
    scratch: &mut Vec<u64>,
) -> StateMatrix {
    let q = steps.dim();
    let n = body.n_nodes();
    // Row-major `through[j]`: body input → out(j). Nodes are
    // topologically ordered, so every edge into j leaves a finished row.
    scratch.clear();
    scratch.resize(n * q, 0);
    for j in 0..n {
        // body input → in(j).
        let mut into = [0u64; MAX_STATES];
        if j == body.source() {
            for (state, row) in into[..q].iter_mut().enumerate() {
                *row = 1 << state;
            }
        } else {
            for e in body.edges_into(j) {
                let step = steps.of(e.tag);
                let through = &scratch[e.src as usize * q..][..q];
                for (row, &t) in into.iter_mut().zip(through) {
                    *row |= step.row_mul(t);
                }
            }
        }
        let lambda = lambda_of(body.node(j));
        for (out, &row) in scratch[j * q..][..q].iter_mut().zip(&into) {
            *out = lambda.row_mul(row);
        }
    }
    StateMatrix::from_rows(&scratch[body.sink() * q..][..q])
}

/// All port-to-port closures of one production body.
#[derive(Debug, Clone)]
pub struct BodyMatrices {
    /// `between[i * n + j]`: out(i) → in(j). Zero matrix when no path.
    between: Vec<StateMatrix>,
    /// `up[i]`: out(i) → body output.
    up: Vec<StateMatrix>,
    /// `down[j]`: body input → in(j).
    down: Vec<StateMatrix>,
    /// body input → body output: the head module's candidate λ.
    head: StateMatrix,
    n: usize,
}

impl BodyMatrices {
    /// Compute closures for `body` under the DFA behind `steps`, given
    /// the λ matrix of every module, indexed by module id (λ must be
    /// final for all modules occurring in `body`).
    pub fn compute(
        body: &SimpleWorkflow,
        steps: &EdgeSteps,
        lambda: &[StateMatrix],
    ) -> BodyMatrices {
        let n = body.n_nodes();
        let q = steps.dim();
        let lambdas: Vec<&StateMatrix> = body.nodes().iter().map(|m| &lambda[m.index()]).collect();

        // between[i][j] over increasing j (nodes are topologically
        // ordered, so all edges go forward). `through[m]` is
        // out(i) → out(m) for the current i: between[i][m] · λ(m).
        let mut between = Vec::with_capacity(n * n);
        let mut through = vec![StateMatrix::zero(q); n];
        for i in 0..n {
            for j in 0..n {
                let mut acc = StateMatrix::zero(q);
                if j > i {
                    for e in body.edges_into(j) {
                        let m = e.src as usize;
                        if m == i {
                            acc.or_assign(steps.of(e.tag));
                        } else if m > i {
                            acc.or_mul_assign(&through[m], steps.of(e.tag));
                        }
                    }
                    acc.mul_into(lambdas[j], &mut through[j]);
                }
                between.push(acc);
            }
        }

        let source = body.source();
        let sink = body.sink();

        let up: Vec<StateMatrix> = (0..n)
            .map(|i| {
                if i == sink {
                    StateMatrix::identity(q)
                } else {
                    between[i * n + sink].mul(lambdas[sink])
                }
            })
            .collect();

        let down: Vec<StateMatrix> = (0..n)
            .map(|j| {
                if j == source {
                    StateMatrix::identity(q)
                } else {
                    lambdas[source].mul(&between[source * n + j])
                }
            })
            .collect();

        let head = if source == sink {
            lambdas[source].clone()
        } else {
            lambdas[source]
                .mul(&between[source * n + sink])
                .mul(lambdas[sink])
        };

        BodyMatrices {
            between,
            up,
            down,
            head,
            n,
        }
    }

    /// out(i) → in(j).
    #[inline]
    pub fn between(&self, i: usize, j: usize) -> &StateMatrix {
        &self.between[i * self.n + j]
    }

    /// out(i) → body output.
    #[inline]
    pub fn up(&self, i: usize) -> &StateMatrix {
        &self.up[i]
    }

    /// body input → in(j).
    #[inline]
    pub fn down(&self, j: usize) -> &StateMatrix {
        &self.down[j]
    }

    /// body input → body output (candidate λ of the head).
    pub fn head(&self) -> &StateMatrix {
        &self.head
    }

    /// Number of body nodes these matrices cover.
    pub fn n_nodes(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::{compile_minimal_dfa, Regex, Symbol};
    use rpq_grammar::{Specification, SpecificationBuilder};

    /// S -> x -e-> y -f-> z, all atomic.
    fn chain_spec() -> Specification {
        let mut b = SpecificationBuilder::new();
        for m in ["x", "y", "z"] {
            b.atomic(m);
        }
        b.composite("S");
        b.production("S", |w| {
            let x = w.node("x");
            let y = w.node("y");
            let z = w.node("z");
            w.edge_named(x, y, "e");
            w.edge_named(y, z, "f");
        });
        b.start("S");
        b.build().unwrap()
    }

    /// Closures of the first production, every module's λ the identity
    /// (all body modules are atomic).
    fn compute_atomic(spec: &Specification, dfa: &Dfa) -> BodyMatrices {
        let lambda = vec![StateMatrix::identity(dfa.n_states()); spec.n_modules()];
        let body = &spec.productions()[0].body;
        let steps = EdgeSteps::new(dfa);
        let bm = BodyMatrices::compute(body, &steps, &lambda);
        // The verdict phase's forward sweep computes the same head.
        let head = head_candidate(body, &steps, |m| &lambda[m.index()], &mut Vec::new());
        assert_eq!(&head, bm.head());
        bm
    }

    #[test]
    fn chain_matrices_track_dfa_states() {
        let spec = chain_spec();
        // Query: ⎵* e ⎵* — 2-state DFA, q0 -e-> qf.
        let e = Symbol(spec.tag_by_name("e").unwrap().0);
        let dfa = compile_minimal_dfa(&Regex::ifq(&[e]), spec.n_tags());
        assert_eq!(dfa.n_states(), 2);
        let id = StateMatrix::identity(2);
        let bm = compute_atomic(&spec, &dfa);

        // out(x) → in(y): one e-edge, so q0 → qf and qf → qf.
        let b01 = bm.between(0, 1);
        assert!(b01.get(0, 1));
        assert!(b01.get(1, 1));
        assert!(!b01.get(0, 0));

        // out(x) → in(z): e then f — still lands in qf from q0.
        let b02 = bm.between(0, 2);
        assert!(b02.get(0, 1));
        assert!(!b02.get(0, 0));

        // out(y) → in(z): only the f-edge, which keeps states.
        let b12 = bm.between(1, 2);
        assert!(b12.get(0, 0));
        assert!(b12.get(1, 1));
        assert!(!b12.get(0, 1));

        // head: in(x) → out(z) passes the e edge.
        assert!(bm.head().get(0, 1));
        assert!(!bm.head().get(0, 0));

        // up(z) is the identity (z is the sink).
        assert_eq!(bm.up(2), &id);
        // down(x) is the identity (x is the source).
        assert_eq!(bm.down(0), &id);
        // down(y) = λ(x) ∘ edge(e): q0 → qf.
        assert!(bm.down(1).get(0, 1));
    }

    #[test]
    fn diamond_unions_paths() {
        // S -> src -> (a | b branches) -> dst; tags differ per branch.
        let mut b = SpecificationBuilder::new();
        for m in ["s", "p", "q", "t"] {
            b.atomic(m);
        }
        b.composite("S");
        b.production("S", |w| {
            let s = w.node("s");
            let p = w.node("p");
            let q = w.node("q");
            let t = w.node("t");
            w.edge_named(s, p, "left");
            w.edge_named(s, q, "right");
            w.edge_named(p, t, "mid");
            w.edge_named(q, t, "mid");
        });
        b.start("S");
        let spec = b.build().unwrap();

        // Query ⎵* left ⎵*: paths via p transition to accept, via q not.
        let left = Symbol(spec.tag_by_name("left").unwrap().0);
        let dfa = compile_minimal_dfa(&Regex::ifq(&[left]), spec.n_tags());
        let bm = compute_atomic(&spec, &dfa);

        // out(s) → in(t): the union of both branches: q0 can reach qf
        // (via left) and also stay in q0 (via right).
        let s_pos = 0;
        let t_pos = 3;
        let m = bm.between(s_pos, t_pos);
        assert!(m.get(0, 1));
        assert!(m.get(0, 0));
    }

    #[test]
    fn no_path_gives_zero_matrix() {
        let spec = chain_spec();
        let dfa = compile_minimal_dfa(&Regex::any_star(), spec.n_tags());
        let bm = compute_atomic(&spec, &dfa);
        // Backwards: out(z) → in(x) has no path.
        assert!(bm.between(2, 0).is_zero());
        // Reachability forward is total for the 1-state DFA.
        assert!(bm.between(0, 2).get(0, 0));
    }
}
