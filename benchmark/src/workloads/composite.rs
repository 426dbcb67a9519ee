//! `composite` — fig15's workload: unsafe queries, decomposed into safe
//! subqueries and composed relationally.
//!
//! In-process `Session::evaluate(AllPairs(all, all))` over runs of both
//! datasets. The queries are a frozen population: `random_query(6..10)`
//! candidates, keeping those that are unsafe, have a minimal DFA of at
//! most 64 states, run at least one closure, and give a non-empty
//! full-universe answer of at most 2 M pairs on a frozen calibration
//! run — selection reads answers, never timings. Under `auto` these
//! evaluate materialized, so time sits in `relalg` (tag index, CSR,
//! closure, compose, select) and `core::general`, with label decoding
//! only inside safe subtrees. Every query meets every run of its
//! dataset once per pass, in seeded order.

use super::{
    frozen_unsafe_queries, micros, referee_pairs, seeded_sizes, EvalTotals, SpecKind,
    DERIVATION_SEED,
};
use crate::gen::{Digest, Manifest, Rng};
use crate::harness::{spread_sample, Check, Workload};
use crate::metrics::Layers;
use crate::sizes::Sizes;
use crate::trace::Tracer;
use rpq::baselines::G1;
use rpq::prelude::*;
use rpq::relalg::{compose_pairs_in, select_pairs_in, transitive_closure_csr, CsrIndex};
use rpq::workloads::{runs, RealisticSpec};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Largest calibration answer a selected query may have.
const MAX_CALIBRATION_ANSWER: usize = 2_000_000;

pub struct Inputs {
    /// Per dataset: target sizes of its runs, drawn by the seed within
    /// ±5 % of the frozen base.
    run_edges: [Vec<usize>; 2],
    /// Per dataset: the frozen query texts.
    queries: [Vec<String>; 2],
    /// `(dataset, run, query)` in issue order.
    ops: Vec<(usize, usize, usize)>,
}

pub struct Composite {
    inputs: Arc<Inputs>,
    specs: Vec<RealisticSpec>,
    sessions: Vec<Session>,
    runs: [Vec<Run>; 2],
    /// Per dataset and run: the full-universe request.
    requests: [Vec<QueryRequest>; 2],
    prepared: [Vec<PreparedQuery>; 2],
    totals: EvalTotals,
}

fn full_universe(run: &Run) -> QueryRequest {
    let all: Vec<NodeId> = run.node_ids().collect();
    QueryRequest::all_pairs(all.clone(), all)
}

impl Workload for Composite {
    type Inputs = Inputs;
    const SETUP_REPEATS: usize = 9;

    fn generate(seed: u64, sizes: &Sizes) -> (Inputs, Manifest) {
        let mut manifest = Manifest::default();
        let mut rng = Rng::new(seed, 2);
        let mut queries: [Vec<String>; 2] = Default::default();
        let mut run_edges: [Vec<usize>; 2] = Default::default();
        for (d, kind) in SpecKind::BOTH.into_iter().enumerate() {
            let real = kind.build();
            let session = Session::from_spec(real.spec.clone());
            let calibration = runs::simulate(
                &real.spec,
                sizes.composite_calibration_edges,
                DERIVATION_SEED,
            )
            .expect("realistic specs derive");
            let request = full_universe(&calibration);
            let kept = frozen_unsafe_queries(
                &session,
                sizes.composite_queries_per_spec,
                &format!("queries.{}", kind.name()),
                &mut manifest,
                |q| {
                    let outcome = session.evaluate(q, &calibration, &request);
                    match outcome.len() {
                        0 => Err("empty_answer"),
                        n if n > MAX_CALIBRATION_ANSWER => Err("answer_too_large"),
                        _ if outcome.meta.closures.total() == 0 => Err("no_closure"),
                        _ => Ok(()),
                    }
                },
            );
            queries[d] = kept.iter().map(|q| q.source().to_owned()).collect();
            run_edges[d] = seeded_sizes(
                &mut rng,
                sizes.composite_edges,
                sizes.composite_runs_per_spec,
                |edges| {
                    runs::simulate(&real.spec, edges, DERIVATION_SEED)
                        .expect("realistic specs derive")
                },
            );
        }
        let mut ops: Vec<(usize, usize, usize)> = (0..2)
            .flat_map(|d| {
                let (n_runs, n_queries) = (run_edges[d].len(), queries[d].len());
                (0..n_runs).flat_map(move |r| (0..n_queries).map(move |q| (d, r, q)))
            })
            .collect();
        rng.shuffle(&mut ops);
        let mut digest = Digest::default();
        for &(d, r, q) in &ops {
            digest.u64(run_edges[d][r] as u64);
            digest.text(&queries[d][q]);
        }
        manifest.count("runs", (run_edges[0].len() + run_edges[1].len()) as u64);
        manifest.count("ops.all_pairs_full", ops.len() as u64);
        manifest.inputs_digest = digest.hex();
        (
            Inputs {
                run_edges,
                queries,
                ops,
            },
            manifest,
        )
    }

    fn setup(inputs: &Arc<Inputs>, _dir: &Path, layers: &mut Layers) -> Result<Composite, String> {
        let specs: Vec<RealisticSpec> = SpecKind::BOTH
            .iter()
            .map(|k| k.build_timed(layers))
            .collect();
        let sessions: Vec<Session> = specs
            .iter()
            .map(|r| Session::from_spec(r.spec.clone()))
            .collect();
        let mut runs: [Vec<Run>; 2] = Default::default();
        let mut requests: [Vec<QueryRequest>; 2] = Default::default();
        let mut prepared: [Vec<PreparedQuery>; 2] = Default::default();
        for d in 0..2 {
            for &edges in &inputs.run_edges[d] {
                let run = super::derive_timed(layers, || {
                    runs::simulate(&specs[d].spec, edges, DERIVATION_SEED)
                })?;
                // Warm the per-run caches: ops measure evaluation, as a
                // long-lived session would see it.
                let t = Instant::now();
                sessions[d].index_for(&run);
                layers.push("relalg.tagindex_build_us", micros(t));
                let t = Instant::now();
                sessions[d].csr_for(&run);
                layers.push("relalg.csr_build_us", micros(t));
                requests[d].push(full_universe(&run));
                runs[d].push(run);
            }
            for text in &inputs.queries[d] {
                let query = sessions[d]
                    .prepare(text)
                    .map_err(|e| format!("cannot prepare {text}: {e}"))?;
                prepared[d].push(query);
            }
        }
        Ok(Composite {
            inputs: Arc::clone(inputs),
            specs,
            sessions,
            runs,
            requests,
            prepared,
            totals: EvalTotals::default(),
        })
    }

    fn n_ops(&self) -> usize {
        self.inputs.ops.len()
    }

    fn op(&mut self, i: usize, tracer: &mut Tracer, layers: &mut Layers) -> Result<u64, String> {
        let (d, r, q) = self.inputs.ops[i];
        let span = tracer.enter("core.evaluate");
        let t = Instant::now();
        let outcome =
            self.sessions[d].evaluate(&self.prepared[d][q], &self.runs[d][r], &self.requests[d][r]);
        let us = micros(t);
        if tracer.is_on() {
            self.totals.note_outcome(layers, &outcome, us);
            layers.push(
                "core.plan.safe_subqueries",
                self.prepared[d][q].stats().n_safe_subqueries as f64,
            );
            layers.push(
                "automata.dfa_states",
                self.prepared[d][q].stats().dfa_states as f64,
            );
            tracer.count("answers", outcome.len() as f64);
            tracer.count("closures", outcome.meta.closures.total() as f64);
        }
        tracer.exit(span);
        Ok(outcome.len() as u64)
    }

    /// The relational kernels alone, on the op's run: the wildcard
    /// closure every `_*` leaf needs, one compose and one select of
    /// its size — and G1, the paper's baseline for unsafe queries.
    fn replay(&mut self, i: usize, layers: &mut Layers) -> Result<(), String> {
        let (d, r, q) = self.inputs.ops[i];
        let (real, run, query) = (&self.specs[d], &self.runs[d][r], &self.prepared[d][q]);
        let n = run.n_nodes();
        let t = Instant::now();
        let index = TagIndex::build(run, real.spec.n_tags());
        layers.push("relalg.tagindex_build_us", micros(t));
        let t = Instant::now();
        let csr = CsrIndex::build(&index);
        layers.push("relalg.csr_build_us", micros(t));
        let t = Instant::now();
        let closure = transitive_closure_csr(csr.all());
        layers.push("relalg.closure_us", micros(t));
        let t = Instant::now();
        std::hint::black_box(compose_pairs_in(index.all_edges(), &closure, n));
        layers.push("relalg.compose_us", micros(t));
        let all: Vec<NodeId> = run.node_ids().collect();
        let (l1, l2) = (&all[..n / 2], &all[n / 2..]);
        let t = Instant::now();
        std::hint::black_box(select_pairs_in(&closure, l1, l2, n));
        layers.push("relalg.select_us", micros(t));

        let t = Instant::now();
        let theirs = G1::new(&index).all_pairs(query.regex(), &all, &all);
        let g1_us = micros(t);
        let t = Instant::now();
        let ours = self.sessions[d].evaluate(query, run, &self.requests[d][r]);
        let ours_us = micros(t);
        if ours.as_pairs() != Some(&theirs) {
            return Err(format!(
                "op {i}: G1 disagrees with the composite plan on {}",
                query.source()
            ));
        }
        layers.push("baselines.g1_allpairs_us", g1_us);
        layers.push("paper.speedup_vs_g1", g1_us / ours_us.max(1e-9));
        Ok(())
    }

    fn finish_trace(&mut self, layers: &mut Layers) -> Result<(), String> {
        self.totals.finish(layers);
        layers.push("core.plan.safe_share", 0.0);
        super::note_session_caches(layers, &self.sessions);
        Ok(())
    }

    fn check(&mut self, answers: &[u64], sizes: &Sizes) -> Check {
        let mut check = Check::default();
        for i in spread_sample(self.inputs.ops.len(), sizes.check_ops) {
            let (d, r, q) = self.inputs.ops[i];
            let (run, query) = (&self.runs[d][r], &self.prepared[d][q]);
            let all: Vec<NodeId> = run.node_ids().collect();
            let Some(expected) = referee_pairs(&self.specs[d].spec, run, query.regex(), &all, &all)
            else {
                continue;
            };
            let ours = self.sessions[d].evaluate(query, run, &self.requests[d][r]);
            check.compare(
                expected.len() as u64 == answers[i] && ours.as_pairs() == Some(&expected),
                || {
                    format!(
                        "op {i}: {} answered {} pairs, referee {}",
                        query.source(),
                        answers[i],
                        expected.len()
                    )
                },
            );
        }
        check
    }
}
