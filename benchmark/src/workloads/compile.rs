//! `compile` — fig13a/b's overhead: what a query costs before any run
//! is touched.
//!
//! In-process cold `Session::prepare` of distinct-after-normalization
//! query texts (IFQs of k = 0..10 symbols, random queries of 4..12
//! leaves, stars) across three specifications — BioAID-like,
//! QBLast-like and a synthetic grammar of fig13a's largest size bucket
//! — with a fresh `Session` per pass so every prepare misses the plan
//! cache: parse → NFA/DFA/minimize (`automata`) → λ-matrix safety and
//! decomposition (`core`, `grammar`). The texts are a frozen
//! population (see `POOL_SEED`); the seed orders them.

use super::{micros, referee_pairs, text_of, SpecKind, MAX_DFA_STATES, POOL_SEED};
use crate::gen::{Digest, Manifest, Rng};
use crate::harness::{Check, Workload};
use crate::metrics::Layers;
use crate::sizes::Sizes;
use crate::trace::Tracer;
use rpq::automata::{compile_minimal_dfa, parse};
use rpq::core::{check_safety, plan_query};
use rpq::prelude::*;
use rpq::workloads::{runs, synthetic, QueryGen, SynthParams};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Nodes per side of the all-pairs request the referee check uses.
const CHECK_LIST: usize = 48;

/// The three specifications, in a fixed order.
fn build_specs(composites: usize, layers: Option<&mut Layers>) -> Vec<Arc<Specification>> {
    let mut layers = layers;
    let mut timed = |build: &dyn Fn() -> Specification| {
        let t = Instant::now();
        let spec = build();
        if let Some(layers) = layers.as_deref_mut() {
            layers.push("grammar.spec_build_us", micros(t));
        }
        Arc::new(spec)
    };
    vec![
        timed(&|| SpecKind::Bioaid.build().spec),
        timed(&|| SpecKind::Qblast.build().spec),
        // fig13a's recipe: bodies average ~6.5 nodes, so 120 composites
        // give a grammar of size ~1200.
        timed(&|| {
            synthetic::generate(&SynthParams {
                n_atomic: composites * 2,
                n_composite: composites,
                n_self_cycles: (composites / 4).max(1),
                n_two_cycles: 0,
                body_nodes: (4, 8),
                extra_edge_prob: 0.2,
                composite_ref_prob: 0.0,
                n_tags: 20,
                alt_production_per_mille: 0,
                seed: POOL_SEED,
            })
            .spec
        }),
    ]
}

pub struct Inputs {
    synthetic_composites: usize,
    /// Per spec: the frozen texts.
    texts: Vec<Vec<String>>,
    /// `(spec, text)` in issue order.
    ops: Vec<(usize, usize)>,
}

pub struct Compile {
    inputs: Arc<Inputs>,
    specs: Vec<Arc<Specification>>,
    sessions: Vec<Session>,
    safe: u64,
    prepared: u64,
}

impl Compile {
    fn fresh_sessions(&mut self) {
        self.sessions = self
            .specs
            .iter()
            .map(|s| Session::new(Arc::clone(s)))
            .collect();
    }
}

impl Workload for Compile {
    type Inputs = Inputs;
    const SETUP_REPEATS: usize = 25;

    fn generate(seed: u64, sizes: &Sizes) -> (Inputs, Manifest) {
        let mut manifest = Manifest::default();
        let specs = build_specs(sizes.compile_synthetic_composites, None);
        let mut texts = Vec::new();
        for (s, spec) in specs.iter().enumerate() {
            let mut gen = QueryGen::new(spec, POOL_SEED + s as u64);
            let mut seen = BTreeSet::new();
            let mut kept = Vec::new();
            let mut i = 0usize;
            while kept.len() < sizes.compile_texts_per_spec {
                i += 1;
                let regex = match i % 3 {
                    0 => gen.ifq(i % 11),
                    1 => gen.random_query(4 + i % 9),
                    _ => Regex::star(gen.random_query(1 + i % 4)),
                };
                // The session's plan-cache key: two spellings with the
                // same normal form would make the second prepare a hit.
                if seen.insert(format!("{regex:?}")) {
                    kept.push(text_of(spec, &regex));
                } else {
                    manifest.count("texts.rejected.duplicate", 1);
                }
            }
            manifest.count("texts.kept", kept.len() as u64);
            texts.push(kept);
        }
        let mut ops: Vec<(usize, usize)> = texts
            .iter()
            .enumerate()
            .flat_map(|(s, list)| (0..list.len()).map(move |t| (s, t)))
            .collect();
        Rng::new(seed, 3).shuffle(&mut ops);
        let mut digest = Digest::default();
        for &(s, t) in &ops {
            digest.u64(s as u64);
            digest.text(&texts[s][t]);
        }
        manifest.count("specs", specs.len() as u64);
        manifest.count("synthetic_spec_size", specs[2].size() as u64);
        manifest.count("ops.prepare", ops.len() as u64);
        manifest.inputs_digest = digest.hex();
        (
            Inputs {
                synthetic_composites: sizes.compile_synthetic_composites,
                texts,
                ops,
            },
            manifest,
        )
    }

    fn setup(inputs: &Arc<Inputs>, _dir: &Path, layers: &mut Layers) -> Result<Compile, String> {
        let mut compile = Compile {
            inputs: Arc::clone(inputs),
            specs: build_specs(inputs.synthetic_composites, Some(layers)),
            sessions: Vec::new(),
            safe: 0,
            prepared: 0,
        };
        compile.fresh_sessions();
        Ok(compile)
    }

    fn n_ops(&self) -> usize {
        self.inputs.ops.len()
    }

    /// A fresh session per pass: every prepare is a plan-cache miss.
    fn begin_pass(&mut self) -> Result<(), String> {
        self.fresh_sessions();
        Ok(())
    }

    fn op(&mut self, i: usize, tracer: &mut Tracer, layers: &mut Layers) -> Result<u64, String> {
        let (s, t) = self.inputs.ops[i];
        let span = tracer.enter("core.prepare");
        let query = self.sessions[s]
            .prepare(&self.inputs.texts[s][t])
            .map_err(|e| e.to_string())?;
        if tracer.is_on() {
            let stats = query.stats();
            layers.push("automata.dfa_states", stats.dfa_states as f64);
            if !query.is_safe() {
                layers.push("core.plan.safe_subqueries", stats.n_safe_subqueries as f64);
            }
            self.prepared += 1;
            self.safe += u64::from(query.is_safe());
            tracer.count("dfa_states", stats.dfa_states as f64);
            tracer.count("safe", f64::from(u8::from(query.is_safe())));
        }
        tracer.exit(span);
        Ok(u64::from(query.is_safe()))
    }

    /// The compile pipeline stage by stage on the op's text, then the
    /// same text again on the now-warm session (a plan-cache hit).
    fn replay(&mut self, i: usize, layers: &mut Layers) -> Result<(), String> {
        let (s, t) = self.inputs.ops[i];
        let (spec, text) = (&self.specs[s], &self.inputs.texts[s][t]);
        let clock = Instant::now();
        let regex = parse(text, &mut |name| {
            spec.tag_by_name(name).map(|tag| Symbol(tag.0))
        })
        .map_err(|e| format!("op {i}: {text} does not parse: {e}"))?;
        layers.push("automata.parse_us", micros(clock));
        let clock = Instant::now();
        let dfa = compile_minimal_dfa(&regex, spec.n_tags());
        layers.push("automata.dfa_us", micros(clock));
        let clock = Instant::now();
        std::hint::black_box(check_safety(spec, &dfa));
        layers.push("core.safety_us", micros(clock));
        let clock = Instant::now();
        std::hint::black_box(plan_query(spec, &regex).map_err(|e| format!("op {i}: {e}"))?);
        layers.push("core.plan_us", micros(clock));
        // On a session of its own, so the measured sessions' counters
        // keep saying what the passes did: all misses.
        let warm = Session::new(Arc::clone(spec));
        warm.prepare(text).map_err(|e| e.to_string())?;
        let clock = Instant::now();
        std::hint::black_box(warm.prepare(text).map_err(|e| e.to_string())?);
        layers.push("core.prepare_hit_us", micros(clock));
        Ok(())
    }

    fn finish_trace(&mut self, layers: &mut Layers) -> Result<(), String> {
        layers.push(
            "core.plan.safe_share",
            self.safe as f64 / (self.prepared as f64).max(1.0),
        );
        super::note_session_caches(layers, &self.sessions);
        Ok(())
    }

    /// Every verdict against the λ-fixpoint safety check on an
    /// independently compiled DFA, and every compiled plan's answers
    /// against the referee on a minimal run of its specification.
    fn check(&mut self, answers: &[u64], _sizes: &Sizes) -> Check {
        let mut check = Check::default();
        let small: Vec<Run> = self
            .specs
            .iter()
            .map(|spec| {
                runs::simulate(spec, 1, POOL_SEED).expect("every spec derives a minimal run")
            })
            .collect();
        for (i, &(s, t)) in self.inputs.ops.iter().enumerate() {
            let (spec, run, text) = (&self.specs[s], &small[s], &self.inputs.texts[s][t]);
            let query = match self.sessions[s].prepare(text) {
                Ok(query) => query,
                Err(e) => {
                    check.compare(false, || format!("op {i}: {text}: {e}"));
                    continue;
                }
            };
            let dfa = compile_minimal_dfa(query.regex(), spec.n_tags());
            let verdict = check_safety(spec, &dfa).is_safe();
            check.compare(
                verdict == query.is_safe() && u64::from(verdict) == answers[i],
                || {
                    format!(
                        "op {i}: {text} prepared safe={} but the safety check says {verdict}",
                        query.is_safe()
                    )
                },
            );
            if dfa.n_states() > MAX_DFA_STATES {
                continue;
            }
            let nodes: Vec<NodeId> = run.node_ids().collect();
            let stride = (nodes.len() / CHECK_LIST).max(1);
            let l1: Vec<NodeId> = nodes.iter().copied().step_by(stride).collect();
            let l2: Vec<NodeId> = nodes
                .iter()
                .copied()
                .skip(stride / 2)
                .step_by(stride)
                .collect();
            let ours = self.sessions[s].evaluate(
                &query,
                run,
                &QueryRequest::all_pairs(l1.clone(), l2.clone()),
            );
            let expected =
                referee_pairs(spec, run, query.regex(), &l1, &l2).expect("DFA size checked above");
            check.compare(ours.as_pairs() == Some(&expected), || {
                format!(
                    "op {i}: the plan compiled for {text} answers {} pairs, referee {}",
                    ours.len(),
                    expected.len()
                )
            });
        }
        check
    }
}
