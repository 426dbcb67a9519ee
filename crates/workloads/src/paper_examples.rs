//! The paper's worked examples, shared across tests, examples and docs.

use rpq_grammar::{ProductionId, Specification, SpecificationBuilder};
use rpq_labeling::{Run, RunBuilder, Scripted};

/// The Fig. 2a workflow specification.
///
/// * `W1 : S → {c, A, B, b}` — a diamond: `c` feeds both `A` and `B`,
///   which both feed the final `b` (the only shape consistent with
///   Examples 3.1 and 3.2).
/// * `W2 : A → {a, A, d}` — the linear recursion.
/// * `W3 : A → {e, e}` — the base case.
/// * `W4 : B → {b, b}`.
///
/// Tags follow the paper's head-name convention except W2's first edge,
/// which carries the tag `a` that the unsafe example `⎵* a ⎵*` relies on.
pub fn fig2_spec() -> Specification {
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
        w.edge(c, a);
        w.edge(c, bb);
        w.edge(a, b2);
        w.edge(bb, b2);
    });
    b.production("A", |w| {
        let a = w.node("a");
        let aa = w.node("A");
        let d = w.node("d");
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
    b.build().expect("fig2 is well-formed")
}

/// The Fig. 2b run: `S` fires W1, `A` recurses twice then exits with W3,
/// `B` fires W4. Node names and labels match Fig. 7 exactly.
pub fn fig2_run(spec: &Specification) -> Run {
    RunBuilder::new(spec)
        .policy(Scripted::new([
            ProductionId(0),
            ProductionId(1),
            ProductionId(1),
            ProductionId(2),
            ProductionId(3),
        ]))
        .build()
        .expect("fig2 derivation succeeds")
}

/// A specification whose production graph matches Fig. 5: two cycles
/// sharing the vertex `S` — **not** strictly linear-recursive.
pub fn fig5_spec() -> Specification {
    let mut b = SpecificationBuilder::new();
    for m in ["a", "b", "c"] {
        b.atomic(m);
    }
    b.composite("S");
    b.production("S", |w| {
        let x = w.node("a");
        let s = w.node("S");
        let y = w.node("b");
        w.edge(x, s);
        w.edge(s, y);
    });
    b.production("S", |w| {
        let x = w.node("c");
        let s = w.node("S");
        w.edge(x, s);
    });
    b.production("S", |w| {
        w.node("a");
    });
    b.start("S");
    b.build().expect("fig5 builds (it is merely non-SLR)")
}

/// The Fig. 14 fork pattern: `M` repeatedly forks a composite `A` off a
/// distributor chain. Unfolding the recursion `k` times yields a chain
/// of `k` `fork`-tagged edges — the workload for the Kleene-star
/// experiments (`fork*`).
pub fn fork_spec() -> Specification {
    let mut b = SpecificationBuilder::new();
    for m in ["dist", "agg", "work"] {
        b.atomic(m);
    }
    b.composite("M");
    b.composite("A");
    // M → dist feeding a forked A and the recursive M, joined by agg.
    b.production("M", |w| {
        let d = w.node("dist");
        let a = w.node("A");
        let m = w.node("M");
        let g = w.node("agg");
        w.edge_named(d, a, "branch");
        w.edge_named(d, m, "fork");
        w.edge_named(a, g, "join");
        w.edge_named(m, g, "join");
    });
    // Base case: a single distributor handing to the aggregator.
    b.production("M", |w| {
        let d = w.node("dist");
        let g = w.node("agg");
        w.edge_named(d, g, "last");
    });
    // A does some work.
    b.production("A", |w| {
        let x = w.node("work");
        let y = w.node("work");
        w.edge_named(x, y, "step");
    });
    b.start("M");
    b.build().expect("fork spec is well-formed")
}

/// A strictly linear specification with a **two-module cycle**
/// `A → B → A` — exercises multi-phase recursion decoding.
pub fn two_phase_cycle_spec() -> Specification {
    let mut b = SpecificationBuilder::new();
    for m in ["x", "y", "z"] {
        b.atomic(m);
    }
    for m in ["S", "A", "B"] {
        b.composite(m);
    }
    b.production("S", |w| {
        let x = w.node("x");
        let a = w.node("A");
        let y = w.node("y");
        w.edge_named(x, a, "in");
        w.edge_named(a, y, "out");
    });
    // A → x B y (continues the cycle through B).
    b.production("A", |w| {
        let x = w.node("x");
        let bb = w.node("B");
        let y = w.node("y");
        w.edge_named(x, bb, "ab");
        w.edge_named(bb, y, "exit_a");
    });
    // B → x A z (continues the cycle back to A).
    b.production("B", |w| {
        let x = w.node("x");
        let a = w.node("A");
        let z = w.node("z");
        w.edge_named(x, a, "ba");
        w.edge_named(a, z, "exit_b");
    });
    // Base cases.
    b.production("A", |w| {
        let x = w.node("x");
        let z = w.node("z");
        w.edge_named(x, z, "base_a");
    });
    b.production("B", |w| {
        let y = w.node("y");
        let z = w.node("z");
        w.edge_named(y, z, "base_b");
    });
    b.start("S");
    b.build().expect("two-phase cycle spec is well-formed")
}

/// A two-module cycle `A → B → A` whose start production holds both an
/// `A` and a `B`, so every run has one chain starting at phase 0 and one
/// starting at phase 1. Every production of `A` ends on an `ea` edge and
/// every production of `B` on an `eb` edge, so "the last marker seen is
/// `ab` or `ea`" is safe while its descent steps (`ab` vs `ba`) and
/// ascent steps (`ea` vs `eb`) differ per phase and do not commute. The
/// neutral `na`/`nb` edge after the recursive position keeps the
/// ascent steps visible to a target right behind it.
pub fn two_entry_cycle_spec() -> Specification {
    let mut b = SpecificationBuilder::new();
    for m in ["x", "y", "z"] {
        b.atomic(m);
    }
    for m in ["S", "A", "B"] {
        b.composite(m);
    }
    b.production("S", |w| {
        let x = w.node("x");
        let a = w.node("A");
        let y = w.node("y");
        let bb = w.node("B");
        let z = w.node("z");
        w.edge_named(x, a, "in");
        w.edge_named(a, y, "mid");
        w.edge_named(y, bb, "in2");
        w.edge_named(bb, z, "out");
    });
    b.production("A", |w| {
        let x = w.node("x");
        let bb = w.node("B");
        let y = w.node("y");
        let z = w.node("z");
        w.edge_named(x, bb, "ab");
        w.edge_named(bb, y, "na");
        w.edge_named(y, z, "ea");
    });
    b.production("B", |w| {
        let x = w.node("x");
        let a = w.node("A");
        let y = w.node("y");
        let z = w.node("z");
        w.edge_named(x, a, "ba");
        w.edge_named(a, y, "nb");
        w.edge_named(y, z, "eb");
    });
    b.production("A", |w| {
        let x = w.node("x");
        let z = w.node("z");
        w.edge_named(x, z, "ea");
    });
    b.production("B", |w| {
        let y = w.node("y");
        let z = w.node("z");
        w.edge_named(y, z, "eb");
    });
    b.start("S");
    b.build().expect("two-entry cycle spec is well-formed")
}

/// A strictly linear specification with a **three-module cycle**
/// `A → B → C → A` whose bodies are small diamonds.
pub fn three_phase_cycle_spec() -> Specification {
    let mut b = SpecificationBuilder::new();
    for m in ["p", "q"] {
        b.atomic(m);
    }
    for m in ["S", "A", "B", "C"] {
        b.composite(m);
    }
    b.production("S", |w| {
        let x = w.node("p");
        let a = w.node("A");
        w.edge_named(x, a, "start");
    });
    b.production("A", |w| {
        let x = w.node("p");
        let n = w.node("B");
        let y = w.node("q");
        w.edge_named(x, n, "stepA");
        w.edge_named(n, y, "afterA");
    });
    b.production("B", |w| {
        let x = w.node("p");
        let n = w.node("C");
        let y = w.node("q");
        w.edge_named(x, n, "stepB");
        w.edge_named(n, y, "afterB");
    });
    b.production("C", |w| {
        let x = w.node("p");
        let n = w.node("A");
        let y = w.node("q");
        w.edge_named(x, n, "stepC");
        w.edge_named(n, y, "afterC");
    });
    for m in ["A", "B", "C"] {
        b.production(m, |w| {
            let x = w.node("p");
            let y = w.node("q");
            w.edge_named(x, y, "leaf");
        });
    }
    b.start("S");
    b.build().expect("three-phase cycle spec is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_statistics() {
        let spec = fig2_spec();
        assert_eq!(spec.n_modules(), 8);
        assert_eq!(spec.n_composite(), 3);
        assert_eq!(spec.productions().len(), 4);
        assert_eq!(spec.size(), 4 + 11); // 4 productions, 11 body nodes
        assert!(spec.is_strictly_linear());
        assert_eq!(spec.recursion().cycles.len(), 1);
    }

    #[test]
    fn fig2_run_matches_paper() {
        let spec = fig2_spec();
        let run = fig2_run(&spec);
        assert_eq!(run.n_nodes(), 10);
        assert_eq!(run.n_edges(), 10);
        assert!(run.is_acyclic());
    }

    #[test]
    fn fig5_is_not_strictly_linear() {
        assert!(!fig5_spec().is_strictly_linear());
    }

    #[test]
    fn fork_spec_unfolds() {
        let spec = fork_spec();
        assert!(spec.is_strictly_linear());
        let run = RunBuilder::new(&spec)
            .policy(rpq_labeling::ForkFocus::new(0, 30, 1))
            .build()
            .unwrap();
        // 30 unfoldings → 30 fork edges forming a chain.
        let fork = spec.tag_by_name("fork").unwrap();
        let n_fork = run.edges().iter().filter(|e| e.tag == fork).count();
        assert_eq!(n_fork, 30);
    }

    #[test]
    fn multi_phase_cycles_are_strictly_linear() {
        let two = two_phase_cycle_spec();
        assert!(two.is_strictly_linear());
        assert_eq!(two.recursion().cycles.len(), 1);
        assert_eq!(two.recursion().cycles[0].len(), 2);

        let three = three_phase_cycle_spec();
        assert!(three.is_strictly_linear());
        assert_eq!(three.recursion().cycles.len(), 1);
        assert_eq!(three.recursion().cycles[0].len(), 3);
    }

    #[test]
    fn multi_phase_runs_derive() {
        for spec in [two_phase_cycle_spec(), three_phase_cycle_spec()] {
            let run = RunBuilder::new(&spec)
                .seed(1)
                .target_edges(200)
                .build()
                .unwrap();
            assert!(run.n_edges() >= 200);
            assert!(run.is_acyclic());
        }
    }
}
