//! The run shape every workload shares: generate inputs from the seed,
//! set up (timed, several times), one warm-up pass over the workload's
//! fixed op sequence, then measured passes over the *same* sequence
//! until the time budget is spent. Closed loop throughout: the next op
//! is issued when the previous one returns.
//!
//! End-to-end metrics come from untraced passes only. A traced run
//! alternates untraced and traced passes (their difference is the
//! tracing overhead), then replays sampled ops through each layer's
//! public entry points to obtain the per-layer numbers.

use crate::gen::Manifest;
use crate::host;
use crate::json::Json;
use crate::metrics::{Layers, END_TO_END, PER_LAYER};
use crate::sizes::Sizes;
use crate::stats;
use crate::trace::{self, Tracer};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the referee said about a workload's sampled answers.
#[derive(Default)]
pub struct Check {
    /// Ops whose answer was compared.
    pub checked: usize,
    /// One line per disagreement.
    pub mismatches: Vec<String>,
}

impl Check {
    /// Record one comparison.
    pub fn compare(&mut self, agrees: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !agrees {
            self.mismatches.push(what());
        }
    }
}

/// Deterministic sample of `want` op indexes out of `n`, spread evenly.
pub fn spread_sample(n: usize, want: usize) -> Vec<usize> {
    let want = want.min(n);
    (0..want).map(|k| k * n / want).collect()
}

/// One of the six workloads.
pub trait Workload: Sized {
    /// The generated inputs: op sequence plus the recipes set-up
    /// rebuilds the data from.
    type Inputs;

    /// Draw the inputs for `seed`. Pure: no clock, no environment.
    fn generate(seed: u64, sizes: &Sizes) -> (Self::Inputs, Manifest);

    /// Everything before the first op — specs, runs, indexes, stores,
    /// servers — building under `dir`. Timed as `setup_s`; may record
    /// per-layer samples of the set-up steps it times itself.
    fn setup(inputs: &Arc<Self::Inputs>, dir: &Path, layers: &mut Layers) -> Result<Self, String>;

    /// Set-ups per run (`setup_s` is the fastest), before
    /// [`Sizes::setup_repeats`] caps it: many for a millisecond set-up,
    /// which jitters most, few for one that builds stores.
    const SETUP_REPEATS: usize;

    /// Ops per pass.
    fn n_ops(&self) -> usize;

    /// Untimed reset before each pass (fresh session, fresh store).
    fn begin_pass(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Issue op `i` and return its answer count. With the tracer on,
    /// wrap each public call in a span and push what the call returned
    /// into `layers`.
    fn op(&mut self, i: usize, tracer: &mut Tracer, layers: &mut Layers) -> Result<u64, String>;

    /// Which ops [`Workload::replay`] is called on after the traced
    /// passes (a deterministic sample).
    fn replay_sample(&self, sizes: &Sizes) -> Vec<usize> {
        spread_sample(self.n_ops(), sizes.replay_ops)
    }

    /// Replay op `i`'s inputs through each layer's public entry point
    /// alone and record the layer's busy time.
    fn replay(&mut self, i: usize, layers: &mut Layers) -> Result<(), String>;

    /// Counters read once at the end of a traced run (stats replies,
    /// session counters).
    fn finish_trace(&mut self, _layers: &mut Layers) -> Result<(), String> {
        Ok(())
    }

    /// Compare sampled answers with the referee, outside any timed
    /// region. `answers` are the per-op counts the last pass returned.
    fn check(&mut self, answers: &[u64], sizes: &Sizes) -> Check;
}

/// How one worker invocation was asked to run.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: &'static Sizes,
}

/// The result of one worker invocation.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` — end-to-end untraced, per-layer traced.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Everything else worth keeping: digest, manifest, sample counts.
    pub detail: Json,
}

impl Report {
    /// The contract's result line.
    pub fn result_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, value, unit)| {
                    (
                        *name,
                        Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                    )
                })),
            ),
        ])
    }
}

struct Pass {
    /// Wall time of the pass, seconds.
    wall: f64,
    /// Per op: its latency in µs, `None` if it failed.
    latencies: Vec<Option<f64>>,
    answers: Vec<u64>,
    errors: Vec<String>,
}

impl Pass {
    fn completed(&self) -> f64 {
        self.latencies.iter().flatten().count() as f64
    }

    fn ops_per_s(&self) -> f64 {
        self.completed() / self.wall.max(1e-9)
    }

    /// Throughput over op time only — what a traced pass is compared
    /// by, so that bookkeeping between ops does not count as overhead.
    fn ops_per_busy_s(&self) -> f64 {
        self.completed() / (self.latencies.iter().flatten().sum::<f64>() / 1e6).max(1e-9)
    }
}

fn run_pass<W: Workload>(
    w: &mut W,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<Pass, String> {
    w.begin_pass()?;
    let n = w.n_ops();
    let mut pass = Pass {
        wall: 0.0,
        latencies: vec![None; n],
        answers: vec![0; n],
        errors: Vec::new(),
    };
    let started = Instant::now();
    for i in 0..n {
        let span = tracer.enter("op");
        let t = Instant::now();
        let outcome = w.op(i, tracer, layers);
        let us = t.elapsed().as_secs_f64() * 1e6;
        tracer.exit(span);
        match outcome {
            Ok(answers) => {
                pass.latencies[i] = Some(us);
                pass.answers[i] = answers;
            }
            Err(e) => pass.errors.push(format!("op {i}: {e}")),
        }
    }
    pass.wall = started.elapsed().as_secs_f64();
    Ok(pass)
}

/// Failures across passes: errored ops, plus ops whose answer count
/// changed between passes over the same sequence.
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    reference: Option<Vec<u64>>,
}

impl Tally {
    fn absorb(&mut self, pass: &Pass) {
        self.attempted += pass.answers.len() as u64;
        self.failed += pass.errors.len() as u64;
        self.notes.extend(pass.errors.iter().take(3).cloned());
        if !pass.errors.is_empty() {
            return;
        }
        match &self.reference {
            None => self.reference = Some(pass.answers.clone()),
            Some(reference) => {
                let drift = reference
                    .iter()
                    .zip(&pass.answers)
                    .filter(|(a, b)| a != b)
                    .count();
                if drift > 0 {
                    self.failed += drift as u64;
                    self.notes
                        .push(format!("{drift} op(s) answered differently between passes"));
                }
            }
        }
    }
}

/// Run one workload as `cfg` says.
pub fn run<W: Workload>(cfg: &Config) -> Result<Report, String> {
    let scratch =
        host::Scratch::create().map_err(|e| format!("cannot create scratch directory: {e}"))?;
    let (inputs, manifest) = W::generate(cfg.seed, cfg.sizes);
    let inputs = Arc::new(inputs);
    let mut layers = Layers::default();

    let mut setup_s = Vec::new();
    let mut state: Option<W> = None;
    for round in 0..W::SETUP_REPEATS.min(cfg.sizes.setup_repeats) {
        // The previous set-up is torn down before the clock starts.
        drop(state.take());
        let dir = scratch.path().join(format!("setup-{round}"));
        let t = Instant::now();
        let w = W::setup(&inputs, &dir, &mut layers)?;
        setup_s.push(t.elapsed().as_secs_f64());
        state = Some(w);
    }
    let mut w = state.expect("setup_repeats >= 1");

    let mut tracer = Tracer::new(false);
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
        reference: None,
    };
    let warm_up = run_pass(&mut w, &mut tracer, &mut layers)?;
    tally.absorb(&warm_up);
    // The warm-up counts for correctness, not for time.
    let (attempted_warm, budget) = (tally.attempted, Duration::from_secs_f64(cfg.seconds));

    let mut detail = vec![
        ("workload", Json::str(cfg.workload.clone())),
        ("seed", Json::Num(cfg.seed as f64)),
        ("inputs_digest", Json::str(manifest.inputs_digest.clone())),
        ("manifest", manifest.to_json()),
        ("ops_per_pass", Json::Num(w.n_ops() as f64)),
        ("host", host::header(cfg.seed)),
    ];

    let mut metrics = Vec::new();
    let mut last_answers = warm_up.answers.clone();
    if !cfg.trace {
        let started = Instant::now();
        let mut rates = Vec::new();
        let mut fastest = vec![f64::INFINITY; w.n_ops()];
        let mut samples = 0usize;
        while rates.is_empty() || started.elapsed() < budget {
            let pass = run_pass(&mut w, &mut tracer, &mut layers)?;
            tally.absorb(&pass);
            rates.push(pass.ops_per_s());
            for (best, latency) in fastest.iter_mut().zip(&pass.latencies) {
                if let Some(us) = latency {
                    *best = best.min(*us);
                    samples += 1;
                }
            }
            last_answers = pass.answers;
        }
        // Read before the referee runs: its memory is not the program's.
        let rss = host::peak_rss_mb();
        // Every pass issues the same ops, so each op has one latency
        // per pass. Interference on a shared host only ever adds time,
        // so the least contaminated estimate of an op's latency is its
        // minimum over the passes, and of throughput the fastest pass;
        // medians over passes track the neighbours' load instead (on
        // the reference host they spread 3x wider between runs). The
        // percentiles are then taken over the ops. Failed ops have no
        // latency and are not in the pool.
        fastest.retain(|us| us.is_finite());
        let pool = stats::sorted(fastest);
        for e in &END_TO_END {
            let value = match e.name {
                "ops_per_s" => stats::max(&rates),
                "op_p50_us" => stats::percentile(&pool, 0.50),
                "op_p95_us" => stats::percentile(&pool, 0.95),
                "peak_rss_mb" => rss,
                // Best-of, like the rest: millisecond set-ups that
                // create files and threads jitter by 2x between calls.
                "setup_s" => stats::min(&setup_s),
                other => unreachable!("end-to-end metric {other} has no definition"),
            };
            metrics.push((e.name, value, e.unit));
        }
        detail.push(("passes", Json::Num(rates.len() as f64)));
        detail.push(("latency_samples", Json::Num(samples as f64)));
        detail.push((
            "pass_ops_per_s",
            Json::Arr(rates.iter().map(|r| Json::Num(*r)).collect()),
        ));
        detail.push((
            "setup_s_each",
            Json::Arr(setup_s.iter().map(|s| Json::Num(*s)).collect()),
        ));
    } else {
        // Half the budget goes to pairs of an untraced and a traced
        // pass, adjacent in time so both see the same neighbours, the
        // leader alternating so order bias cancels; the overhead is the
        // median of the per-pair deltas. The replays that follow are
        // bounded by count, not by time.
        let started = Instant::now();
        let mut deltas = Vec::new();
        while deltas.is_empty() || started.elapsed() < budget / 2 {
            let mut rate = [0.0; 2];
            for leg in 0..2 {
                let traced = (leg + deltas.len()) % 2 == 1;
                tracer.set_on(traced);
                let pass = run_pass(&mut w, &mut tracer, &mut layers)?;
                tracer.set_on(false);
                tally.absorb(&pass);
                rate[usize::from(traced)] = pass.ops_per_busy_s();
                last_answers = pass.answers;
            }
            deltas.push((rate[0] - rate[1]) / rate[0].max(1e-9) * 100.0);
        }
        layers.push("obs.trace_overhead_pct", stats::median(&deltas));
        for i in w.replay_sample(cfg.sizes) {
            w.replay(i, &mut layers)?;
        }
        w.finish_trace(&mut layers)?;

        let out = host::out_dir();
        let path = out.join(format!("trace-{}.jsonl", cfg.workload));
        std::fs::create_dir_all(&out)
            .and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "trace: {} spans -> {}",
            tracer.spans().len(),
            path.display()
        );
        println!(
            "{:<24} {:>8} {:>14} {:>14}",
            "span", "count", "total_us", "self_us"
        );
        for (name, (count, total, own)) in trace::summarize(tracer.spans()) {
            println!(
                "{name:<24} {count:>8} {:>14.1} {:>14.1}",
                total as f64 / 1e3,
                own as f64 / 1e3
            );
        }
        for p in PER_LAYER {
            metrics.push((p.name, layers.value(p), p.unit));
        }
        detail.push(("spans", Json::Num(tracer.spans().len() as f64)));
    }

    let check = w.check(&last_answers, cfg.sizes);
    drop(w);
    let failed = tally.failed + check.mismatches.len() as u64;
    tally.notes.extend(check.mismatches.iter().take(5).cloned());
    detail.push(("checked_ops", Json::Num(check.checked as f64)));
    detail.push(("warm_up_ops", Json::Num(attempted_warm as f64)));
    detail.push((
        "notes",
        Json::Arr(tally.notes.iter().map(Json::str).collect()),
    ));
    Ok(Report {
        correct: failed == 0,
        attempted: tally.attempted,
        failed,
        metrics,
        detail: Json::obj(detail),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_sample_is_even_and_bounded() {
        assert_eq!(spread_sample(10, 5), vec![0, 2, 4, 6, 8]);
        assert_eq!(spread_sample(3, 8), vec![0, 1, 2]);
        assert!(spread_sample(0, 4).is_empty());
    }
}
