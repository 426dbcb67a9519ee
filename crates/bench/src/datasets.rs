//! Shared dataset handles for the experiments.

use rpq_automata::Regex;
use rpq_core::{plan_query, Session};
use rpq_grammar::Specification;
use rpq_labeling::Run;
use rpq_relalg::TagIndex;
use rpq_workloads::{
    bioaid_like, qblast_like, runs, synthetic, QueryGen, RealisticSpec, SynthParams,
};

/// A named dataset: specification, a query [`Session`] over it, and
/// run/index helpers.
pub struct Dataset {
    /// The realistic specification bundle.
    pub real: RealisticSpec,
    session: Session,
}

impl Dataset {
    fn new(real: RealisticSpec) -> Dataset {
        Dataset {
            session: Session::from_spec(real.spec.clone()),
            real,
        }
    }

    /// The BioAID-like dataset ("deep").
    pub fn bioaid() -> Dataset {
        Dataset::new(bioaid_like())
    }

    /// The QBLast-like dataset ("branchy").
    pub fn qblast() -> Dataset {
        Dataset::new(qblast_like())
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        self.real.name
    }

    /// The specification.
    pub fn spec(&self) -> &Specification {
        &self.real.spec
    }

    /// The dataset's query session (plan + per-run index caches).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Simulate a run of roughly `edges` edges (random production
    /// firing, seeded).
    pub fn run(&self, edges: usize, seed: u64) -> Run {
        runs::simulate(self.spec(), edges, seed).expect("realistic specs derive")
    }

    /// Simulate a fork-heavy run unfolding the first cycle.
    pub fn fork_run(&self, edges: usize, seed: u64) -> Run {
        runs::simulate_fork(self.spec(), 0, edges, seed).expect("realistic specs derive")
    }

    /// Build the per-run tag index (the paper's stored inverted index).
    pub fn index(&self, run: &Run) -> TagIndex {
        TagIndex::build(run, self.spec().n_tags())
    }

    /// The tag name targeted by the Kleene-star experiments: the chain
    /// tag of the first cycle.
    pub fn star_tag(&self) -> &str {
        &self.real.cycle_tags[0]
    }
}

/// The planner's expensive shape, for the overhead benches: fig13a's
/// largest grammar (120 composites, size ≈ 1200) with one *unsafe* IFQ
/// per k ∈ {3, 6, 10}, drawn over all tags rather than the safe pool —
/// so the segment search of the decomposition runs, which no pool-tag
/// IFQ ever triggers.
pub fn unsafe_ifq_rows() -> (Specification, Vec<(usize, Regex)>) {
    let spec = synthetic::generate(&SynthParams::fig13a(120, 0xF13A)).spec;
    let mut qg = QueryGen::new(&spec, 0x13AB);
    let rows = [3usize, 6, 10]
        .into_iter()
        .map(|k| loop {
            let q = qg.ifq(k);
            if !plan_query(&spec, &q)
                .expect("synthetic specs plan")
                .is_safe()
            {
                break (k, q);
            }
        })
        .collect();
    (spec, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsafe_ifq_rows_decompose() {
        let (spec, rows) = unsafe_ifq_rows();
        assert_eq!(rows.len(), 3);
        for (k, q) in &rows {
            let plan = plan_query(&spec, q).unwrap();
            assert!(!plan.is_safe() && plan.n_safe_subqueries() >= 1, "k = {k}");
        }
    }

    #[test]
    fn datasets_materialize() {
        for d in [Dataset::bioaid(), Dataset::qblast()] {
            let run = d.run(500, 1);
            assert!(run.n_edges() >= 500);
            let fork = d.fork_run(500, 1);
            let tag = d.spec().tag_by_name(d.star_tag()).unwrap();
            let star_edges = fork.edges().iter().filter(|e| e.tag == tag).count();
            assert!(star_edges > 50, "{}: {star_edges} star edges", d.name());
        }
    }
}
