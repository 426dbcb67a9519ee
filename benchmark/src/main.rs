//! `bench` — the benchmark of the rpq stack. See README.md.
//!
//! ```text
//! bench run [--seed S] [--seconds N] [--smoke] [--no-trace | --trace-only] [--out FILE]
//! bench run --workload NAME --seed S --seconds N --trace 0|1      (one worker; the driver's form)
//! bench compare A.json B.json
//! bench repeat N [--seed S] [--seconds N] [--no-trace] [--out FILE]
//! ```

mod compare;
mod gen;
mod harness;
mod host;
mod json;
mod metrics;
mod sizes;
mod stats;
mod trace;
mod workloads;

use harness::{Config, Report};
use json::Json;
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use std::process::ExitCode;

/// The default seed. README.md names the holdout seed a claim must also
/// hold on (choosing-metrics §6.3): never tune against that one.
const DEFAULT_SEED: u64 = 20_150_413;
const DEFAULT_SECONDS: f64 = 10.0;
const SMOKE_SECONDS: f64 = 0.2;

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// `--name value` for the names in `valued`, bare `--name` for the
    /// rest; everything else is positional.
    fn parse(raw: &[String], valued: &[&str]) -> Result<Args, String> {
        let mut args = Args {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) if valued.contains(&name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    args.flags.push((name.to_owned(), Some(value.clone())));
                }
                Some(name) => args.flags.push((name.to_owned(), None)),
                None => args.positional.push(arg.clone()),
            }
        }
        Ok(args)
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(k, _)| k == name)
    }

    fn value<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.flags.iter().find(|(k, _)| k == name) {
            Some((_, Some(v))) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
            _ => Ok(None),
        }
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown flag --{k}")),
            None => Ok(()),
        }
    }
}

fn run_worker(cfg: &Config) -> Result<Report, String> {
    use workloads::{
        compile::Compile, composite::Composite, decode::Decode, live_append::LiveAppend,
        serve::Serve,
    };
    match cfg.workload.as_str() {
        "decode" => harness::run::<Decode>(cfg),
        "composite" => harness::run::<Composite>(cfg),
        "compile" => harness::run::<Compile>(cfg),
        "serve_direct" => harness::run::<Serve<false>>(cfg),
        "serve_routed" => harness::run::<Serve<true>>(cfg),
        "live_append" => harness::run::<LiveAppend>(cfg),
        other => Err(format!(
            "unknown workload {other:?}; the workloads are {}",
            WORKLOADS.map(|(name, _)| name).join(", ")
        )),
    }
}

/// One workload in this process: human-readable lines, then a `detail`
/// line, then — last — the result line of the driver's contract.
fn worker(cfg: &Config) -> ExitCode {
    match run_worker(cfg) {
        Ok(report) => {
            for (name, value, unit) in &report.metrics {
                println!("{name:<40} {value:>16.4} {unit}");
            }
            println!("detail {}", report.detail.render());
            println!("{}", report.result_json().render());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "bench: {}: {} of {} op(s) failed",
                    cfg.workload, report.failed, report.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bench: {}: {e}", cfg.workload);
            ExitCode::FAILURE
        }
    }
}

struct RunOptions {
    seed: u64,
    seconds: f64,
    smoke: bool,
    untraced: bool,
    traced: bool,
}

/// Run one worker as a child process (fresh address space, so
/// `peak_rss_mb` is the workload's own; the environment it inherits was
/// scrubbed in `main`) and read back its two JSON lines.
fn child(workload: &str, opts: &RunOptions, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let mut command = std::process::Command::new(exe);
    command
        .args(["run", "--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if opts.smoke {
        command.arg("--smoke");
    }
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} worker: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let detail = stdout
        .lines()
        .find_map(|line| line.strip_prefix("detail "))
        .ok_or_else(|| {
            format!(
                "the {workload} worker printed no detail line ({})",
                output.status
            )
        })
        .and_then(Json::parse)?;
    let result = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("the {workload} worker printed nothing"))
        .and_then(Json::parse)?;
    Ok((result, detail))
}

fn metric_values(result: &Json) -> Json {
    let pairs = result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
    Json::obj(
        pairs
            .iter()
            .map(|(name, m)| (name.clone(), m.get("value").cloned().unwrap_or(Json::Null))),
    )
}

/// All six workloads, one child process each (two with tracing), into
/// one result document. The second value is whether every op of every
/// workload succeeded and checked out.
fn run_set(opts: &RunOptions) -> Result<(Json, bool), String> {
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for (workload, _) in WORKLOADS {
        let mut entry: Vec<(String, Json)> = Vec::new();
        for trace in [false, true] {
            if !(if trace { opts.traced } else { opts.untraced }) {
                continue;
            }
            eprintln!(
                "bench: {workload}{} …",
                if trace { " (traced)" } else { "" }
            );
            let (result, detail) = child(workload, opts, trace)?;
            all_correct &= result.get("correct") == Some(&Json::Bool(true));
            if entry.is_empty() {
                for key in ["inputs_digest", "manifest"] {
                    entry.push((
                        key.to_owned(),
                        detail.get(key).cloned().unwrap_or(Json::Null),
                    ));
                }
            }
            let prefix = if trace { "traced_" } else { "" };
            for key in ["correct", "attempted", "failed"] {
                entry.push((
                    format!("{prefix}{key}"),
                    result.get(key).cloned().unwrap_or(Json::Null),
                ));
            }
            entry.push((
                (if trace { "per_layer" } else { "end_to_end" }).to_owned(),
                metric_values(&result),
            ));
            entry.push((format!("{prefix}detail"), detail));
        }
        workloads.push((workload, Json::obj(entry)));
    }
    let doc = Json::obj([
        ("host", host::header(opts.seed)),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("smoke", Json::Bool(opts.smoke)),
        ("workloads", Json::obj(workloads)),
    ]);
    Ok((doc, all_correct))
}

fn print_set(doc: &Json) {
    let Some(workloads) = doc.get("workloads").and_then(Json::as_obj) else {
        return;
    };
    for (workload, entry) in workloads {
        let digest = entry
            .get("inputs_digest")
            .and_then(Json::as_str)
            .unwrap_or("?");
        let samples = entry
            .get("detail")
            .and_then(|d| d.get("latency_samples"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        println!(
            "\n== {workload}   inputs_digest {digest}   attempted {}   failed {}   latency samples {samples}",
            entry.get("attempted").and_then(Json::as_f64).unwrap_or(0.0),
            entry.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
        );
        for e in &END_TO_END {
            if let Some(v) = entry
                .get("end_to_end")
                .and_then(|m| m.get(e.name))
                .and_then(Json::as_f64)
            {
                println!(
                    "  {:<38} {v:>16.4} {:<6} ({} is better)",
                    e.name,
                    e.unit,
                    e.better.name()
                );
            }
        }
        for p in PER_LAYER {
            if let Some(v) = entry
                .get("per_layer")
                .and_then(|m| m.get(p.name))
                .and_then(Json::as_f64)
            {
                println!(
                    "  {:<38} {v:>16.4} {:<6} ({} is better; moves {})",
                    p.name,
                    p.unit,
                    p.better.name(),
                    p.moves
                );
            }
        }
    }
}

fn write_doc(path: &std::path::Path, doc: &Json) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, doc.pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("bench: wrote {}", path.display());
    Ok(())
}

fn read_doc(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn options(args: &Args) -> Result<RunOptions, String> {
    let smoke = args.has("smoke");
    if cfg!(debug_assertions) && !smoke {
        return Err(
            "this is a debug build: its timings mean nothing. Build with --release \
                    (only `run --smoke` runs unoptimized)"
                .to_owned(),
        );
    }
    let seconds = args.value("seconds")?.unwrap_or(if smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_owned());
    }
    Ok(RunOptions {
        seed: args.value("seed")?.unwrap_or(DEFAULT_SEED),
        seconds,
        smoke,
        untraced: !args.has("trace-only"),
        traced: !args.has("no-trace"),
    })
}

fn main_inner(raw: &[String]) -> Result<ExitCode, String> {
    const VALUED: [&str; 5] = ["workload", "seed", "seconds", "trace", "out"];
    let args = Args::parse(raw, &VALUED)?;
    match args.positional.first().map(String::as_str) {
        Some("run") if args.has("workload") => {
            args.reject_unknown(&["workload", "seed", "seconds", "trace", "smoke"])?;
            let opts = options(&args)?;
            let trace: u8 = args.value("trace")?.unwrap_or(0);
            Ok(worker(&Config {
                workload: args.value("workload")?.expect("checked above"),
                seed: opts.seed,
                seconds: opts.seconds,
                trace: trace != 0,
                sizes: if opts.smoke {
                    &sizes::SMOKE
                } else {
                    &sizes::FULL
                },
            }))
        }
        Some("run") => {
            args.reject_unknown(&["seed", "seconds", "smoke", "no-trace", "trace-only", "out"])?;
            let opts = options(&args)?;
            let (doc, correct) = run_set(&opts)?;
            print_set(&doc);
            let default = host::out_dir().join(format!("result-seed{}.json", opts.seed));
            write_doc(&args.value("out")?.unwrap_or(default), &doc)?;
            Ok(if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some("repeat") => {
            args.reject_unknown(&["seed", "seconds", "smoke", "no-trace", "out"])?;
            let n: usize = args
                .positional
                .get(1)
                .and_then(|n| n.parse().ok())
                .filter(|&n| n >= 1)
                .ok_or("usage: bench repeat N [--seed S] [--no-trace]")?;
            let base = options(&args)?;
            let mut sets = Vec::new();
            let mut correct = true;
            for i in 0..n {
                // Run i of every repeat uses seed S+i: two repeats of
                // one commit measure identical inputs, run for run.
                let opts = RunOptions {
                    seed: base.seed + i as u64,
                    ..base
                };
                eprintln!("bench: set {} of {n} (seed {})", i + 1, opts.seed);
                let (doc, ok) = run_set(&opts)?;
                correct &= ok;
                sets.push(doc);
            }
            let doc = Json::obj([("sets", Json::Arr(sets))]);
            compare::summarize(&compare::sets_of(&doc));
            let default = host::out_dir().join(format!("repeat-seed{}-n{n}.json", base.seed));
            write_doc(&args.value("out")?.unwrap_or(default), &doc)?;
            Ok(if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some("compare") => {
            let [_, a, b] = args.positional.as_slice() else {
                return Err("usage: bench compare A.json B.json".to_owned());
            };
            let agree = compare::compare(&read_doc(a)?, &read_doc(b)?);
            Ok(if agree {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        _ => Err("usage: bench run|compare|repeat … (see benchmark/README.md)".to_owned()),
    }
}

fn main() -> ExitCode {
    // Before any thread exists: the benchmark measures `auto`.
    let scrubbed = host::scrub_env();
    if !scrubbed.is_empty() {
        eprintln!("bench: ignoring {}", scrubbed.join(", "));
    }
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&raw) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}
