//! Safe-query detection (Section III-C).
//!
//! A DFA is safe w.r.t. a workflow iff for every module, all executions
//! induce the same input→output state-transition matrix λ(M)
//! (Definition 12). The checking algorithm follows the paper: λ of an
//! atomic module is the identity; a production is *verifiable* once λ is
//! defined for every module in its body, at which point the head's
//! candidate matrix is computed from the body's port graph. The DFA is
//! safe iff λ ends up consistently defined for all composite modules —
//! the same worklist structure as the classic CFG emptiness check, so
//! each production is verified a bounded number of times and the overall
//! cost is `O(|Q|² · |G|)` matrix work.
//!
//! Soundness/completeness sketch (induction over recursion depth): if
//! every execution of every body module of depth < d matches λ, a
//! depth-d execution's matrix equals the production's candidate; the
//! final consistency sweep compares every production's candidate against
//! the fixed λ, so any divergent execution is caught at its topmost
//! divergent production.
//!
//! The check runs in two phases. [`lambda_fixpoint`] is the verdict: the
//! fixpoint needs only each production's *head* candidate, which one
//! forward sweep over the body yields without retaining a matrix.
//! [`body_matrices`] then computes the full port-graph closures a plan
//! decodes with — from the final λ, and only for a query found safe. A
//! planner decomposing an unsafe query rejects dozens of candidate
//! segments for every one it keeps, so the verdict is what it pays for
//! most.

use crate::matrix::StateMatrix;
use crate::portgraph::{head_candidate, BodyMatrices, EdgeSteps};
use rpq_automata::Dfa;
use rpq_grammar::{ModuleKind, ProductionId, Specification};

/// Result of checking a (minimal) DFA against a specification.
#[derive(Debug, Clone)]
pub enum SafetyOutcome {
    /// The query is safe; λ matrices and per-production port closures are
    /// returned for reuse by the query plan.
    Safe {
        /// λ(M) per module.
        lambda: Vec<StateMatrix>,
        /// Port-graph closures per production.
        bodies: Vec<BodyMatrices>,
    },
    /// Unsafe: two executions of the head of `witness` disagree.
    Unsafe {
        /// A production whose candidate matrix contradicts λ of its head.
        witness: ProductionId,
    },
}

impl SafetyOutcome {
    /// Is the query safe?
    pub fn is_safe(&self) -> bool {
        matches!(self, SafetyOutcome::Safe { .. })
    }
}

/// Check safety of `dfa` w.r.t. `spec` (Definition 12): the verdict
/// ([`lambda_fixpoint`]), then — only for a safe query — the port-graph
/// closures of every production ([`body_matrices`]).
pub fn check_safety(spec: &Specification, dfa: &Dfa) -> SafetyOutcome {
    match lambda_fixpoint(spec, dfa) {
        Ok(lambda) => SafetyOutcome::Safe {
            bodies: body_matrices(spec, dfa, &lambda),
            lambda,
        },
        Err(witness) => SafetyOutcome::Unsafe { witness },
    }
}

/// Phase 1 of the safety check — the verdict. Runs the λ fixpoint
/// computing only each production's head candidate (one forward sweep
/// over its body, nothing retained) and returns λ(M) per module, or the
/// first production whose candidate contradicts the λ of its head.
///
/// This is all a planner needs to *reject* a candidate, and rejections
/// are most of what decomposing an unsafe query does.
pub fn lambda_fixpoint(spec: &Specification, dfa: &Dfa) -> Result<Vec<StateMatrix>, ProductionId> {
    let q = dfa.n_states();
    let steps = EdgeSteps::new(dfa);
    let mut lambda: Vec<Option<StateMatrix>> = spec
        .modules()
        .iter()
        .map(|m| (m.kind == ModuleKind::Atomic).then(|| StateMatrix::identity(q)))
        .collect();

    let mut verified = vec![false; spec.productions().len()];
    let mut scratch = Vec::new();

    // Worklist fixpoint: try to verify productions whose bodies are fully
    // λ-defined; defining a new λ may unlock more productions. At most
    // |Σ| rounds define something new.
    loop {
        let mut progressed = false;
        for (pi, prod) in spec.productions().iter().enumerate() {
            if verified[pi] {
                continue;
            }
            let ready = prod
                .body
                .nodes()
                .iter()
                .all(|m| lambda[m.index()].is_some());
            if !ready {
                continue;
            }
            let candidate = head_candidate(
                &prod.body,
                &steps,
                |m| lambda[m.index()].as_ref().expect("checked ready"),
                &mut scratch,
            );
            verified[pi] = true;
            progressed = true;
            match &lambda[prod.head.index()] {
                None => lambda[prod.head.index()] = Some(candidate),
                Some(existing) => {
                    if *existing != candidate {
                        return Err(ProductionId(pi as u32));
                    }
                }
            }
        }
        if !progressed {
            break;
        }
    }

    // Productivity (enforced at spec validation) guarantees every module
    // eventually gets a λ and every production gets verified.
    debug_assert!(verified.iter().all(|&v| v), "unverified production");
    Ok(lambda
        .into_iter()
        .map(|l| l.expect("productive specifications define every λ"))
        .collect())
}

/// Phase 2 of the safety check: the port-graph closures of every
/// production, from the final λ of a safe query. A λ never changes once
/// defined, so these are the matrices the fixpoint would have built
/// along the way.
pub fn body_matrices(spec: &Specification, dfa: &Dfa, lambda: &[StateMatrix]) -> Vec<BodyMatrices> {
    let steps = EdgeSteps::new(dfa);
    spec.productions()
        .iter()
        .map(|p| BodyMatrices::compute(&p.body, &steps, lambda))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::{compile_minimal_dfa, parse, Regex, Symbol};
    use rpq_grammar::SpecificationBuilder;

    /// The paper's Fig. 2a specification with example tag conventions.
    fn fig2() -> Specification {
        let mut b = SpecificationBuilder::new();
        for m in ["a", "b", "c", "d", "e"] {
            b.atomic(m);
        }
        for m in ["S", "A", "B"] {
            b.composite(m);
        }
        b.production("S", |w| {
            let c = w.node("c");
            let a = w.node("A");
            let bb = w.node("B");
            let b2 = w.node("b");
            // W1 is a diamond: c feeds both A and B, which both feed b
            // (the only shape consistent with Examples 3.1 and 3.2).
            w.edge(c, a);
            w.edge(c, bb);
            w.edge(a, b2);
            w.edge(bb, b2);
        });
        b.production("A", |w| {
            let a = w.node("a");
            let aa = w.node("A");
            let d = w.node("d");
            // The paper's unsafe example ⎵* a ⎵* needs an `a` tag that
            // only W2 executions cross.
            w.edge_named(a, aa, "a");
            w.edge(aa, d);
        });
        b.production("A", |w| {
            let e1 = w.node("e");
            let e2 = w.node("e");
            w.edge(e1, e2);
        });
        b.production("B", |w| {
            let b1 = w.node("b");
            let b2 = w.node("b");
            w.edge(b1, b2);
        });
        b.start("S");
        b.build().unwrap()
    }

    use rpq_grammar::Specification;

    fn query(spec: &Specification, text: &str) -> rpq_automata::Dfa {
        let re = parse(text, &mut |name| {
            spec.tag_by_name(name).map(|t| Symbol(t.0))
        })
        .unwrap();
        compile_minimal_dfa(&re, spec.n_tags())
    }

    #[test]
    fn r3_is_safe_for_fig2() {
        // R3 = ⎵* e ⎵* (the paper's Example 3.4): safe, because every
        // execution of A eventually runs W3 whose internal edge is
        // tagged e, and no execution of B ever sees an e.
        let spec = fig2();
        let dfa = query(&spec, "_* e _*");
        let outcome = check_safety(&spec, &dfa);
        assert!(outcome.is_safe());
        if let SafetyOutcome::Safe { lambda, .. } = outcome {
            let a = spec.module_by_name("A").unwrap();
            let bmod = spec.module_by_name("B").unwrap();
            // λ(A): q0 → qf (every A execution crosses an e edge) and
            // qf → qf.
            assert!(lambda[a.index()].get(0, 1));
            assert!(!lambda[a.index()].get(0, 0));
            assert!(lambda[a.index()].get(1, 1));
            // λ(B): identity — B's executions never see an e.
            assert!(lambda[bmod.index()].get(0, 0));
            assert!(!lambda[bmod.index()].get(0, 1));
        }
    }

    #[test]
    fn r4_is_unsafe_for_fig2() {
        // R4 = ⎵* a ⎵* (the paper's "( )∗a( )∗" unsafe example): whether
        // an A execution crosses an `a`-tagged edge depends on the number
        // of W2 unfoldings, so (q0, qf) is unsafe for module A.
        let spec = fig2();
        let dfa = query(&spec, "_* a _*");
        let outcome = check_safety(&spec, &dfa);
        assert!(!outcome.is_safe());
    }

    #[test]
    fn plain_reachability_is_always_safe() {
        // "It is also easy to see that the reachability query ( )∗ is
        // safe with respect to any workflow."
        let spec = fig2();
        let dfa = query(&spec, "_*");
        assert_eq!(dfa.n_states(), 1);
        assert!(check_safety(&spec, &dfa).is_safe());
    }

    #[test]
    fn exact_single_symbol_can_be_unsafe() {
        // R4 = e (Fig. 11b): unsafe — an execution of A with one W2
        // unfolding inserts extra symbols before the e.
        let spec = fig2();
        let dfa = query(&spec, "e");
        assert!(!check_safety(&spec, &dfa).is_safe());
    }

    #[test]
    fn safe_by_construction_when_branches_agree() {
        // Both implementations of A produce exactly one `t`-tagged edge,
        // so ⎵* t ⎵* is safe even though implementations differ.
        let mut b = SpecificationBuilder::new();
        for m in ["x", "y"] {
            b.atomic(m);
        }
        b.composite("S");
        b.composite("A");
        b.production("S", |w| {
            let x = w.node("x");
            let a = w.node("A");
            w.edge_named(x, a, "in");
        });
        b.production("A", |w| {
            let x = w.node("x");
            let y = w.node("y");
            w.edge_named(x, y, "t");
        });
        b.production("A", |w| {
            let y = w.node("y");
            let x = w.node("x");
            w.edge_named(y, x, "t");
        });
        b.start("S");
        let spec = b.build().unwrap();
        let dfa = query(&spec, "_* t _*");
        assert!(check_safety(&spec, &dfa).is_safe());

        // But requiring *two* t's is unsafe? No — both still produce
        // exactly one t, so the matrices still agree; the unsafe case
        // needs diverging implementations:
        let dfa2 = query(&spec, "_* t _* t _*");
        assert!(check_safety(&spec, &dfa2).is_safe());
    }

    #[test]
    fn diverging_branch_is_unsafe() {
        let mut b = SpecificationBuilder::new();
        for m in ["x", "y"] {
            b.atomic(m);
        }
        b.composite("S");
        b.composite("A");
        b.production("S", |w| {
            let x = w.node("x");
            let a = w.node("A");
            w.edge_named(x, a, "in");
        });
        b.production("A", |w| {
            let x = w.node("x");
            let y = w.node("y");
            w.edge_named(x, y, "t");
        });
        b.production("A", |w| {
            let x = w.node("x");
            let y = w.node("y");
            w.edge_named(x, y, "u");
        });
        b.start("S");
        let spec = b.build().unwrap();
        assert!(!check_safety(&spec, &query(&spec, "_* t _*")).is_safe());
        // A query that cannot distinguish t from u stays safe.
        assert!(check_safety(&spec, &query(&spec, "_* (t|u) _*")).is_safe());
    }

    #[test]
    fn ifq_over_w1_only_tags_is_safe() {
        // Tags that only occur in S's body (outside any choice or
        // recursion) always induce consistent matrices.
        let spec = fig2();
        assert!(check_safety(&spec, &query(&spec, "_* B _*")).is_safe());
        let _ = Regex::Empty; // silence unused import in some cfgs
    }
}
