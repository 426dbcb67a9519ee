//! Command-line interface logic (the `rpq` binary is a thin wrapper).
//!
//! Subcommands:
//!
//! * `spec <SPEC>` — show a specification (productions, cycles, size);
//! * `simulate <SPEC> --edges N [--seed S] [--fork CYCLE] [--out FILE]
//!   [--stream B]` — derive a labeled run and optionally persist it as
//!   JSON; `--stream B` splits the derivation into a base prefix plus
//!   `B` event batches (written next to `--out`) for replay through
//!   the live-ingestion path;
//! * `query <SPEC> <QUERY> [--run FILE | --edges N --seed S]
//!   [--from NODE] [--to NODE] [--limit K]` — prepare and
//!   evaluate a regular path query through a [`Session`] (pairwise when
//!   both endpoints are given, source/target star when one is, all-pairs
//!   otherwise);
//! * `stats (--run FILE | <SPEC> --edges N)` — run/label statistics;
//! * `store <SPEC> --dir DIR [--ingest N] [--edges M] [--seed S]
//!   [--add FILE] [--open rID --events FILE]` — create or extend a
//!   persistent [`RunStore`]: ingest simulated runs and/or a JSON run
//!   file, deduplicate by fingerprint, and materialize warm index
//!   artifacts; `--open rID --events FILE` appends an event batch to a
//!   stored run through the live-ingestion path (one segment on the
//!   run's event log, catalog epoch bumped); every invocation ends by
//!   folding event logs into their runs' base files and re-persisting
//!   stale index artifacts;
//! * `batch <QUERY> --store DIR [--threads N] [--cache C]`
//!   — prepare `<QUERY>` once and evaluate it
//!   entry→exit over every stored run on a thread pool, reporting
//!   per-run verdicts plus store/session cache counters;
//! * `serve <SPEC> --store DIR [--addr A] [--workers N] [--queue Q]
//!   [--cache C]` — serve the store over TCP
//!   (`rpq-serve`): one shared warm session, a bounded worker pool,
//!   graceful overload refusals, clean SIGTERM/ctrl-c shutdown;
//! * `router --backend HOST:PORT [--backend ...]` — the fault-tolerant
//!   front tier (`rpq-router`): consistent-hashes run fingerprints
//!   across the backends with R-way replication, health-checks them
//!   (ping probes, ejection, half-open recovery), fails queries over
//!   to the next replica with backoff, keeps replication flowing
//!   backend-to-backend, and degrades to `Unavailable` frames instead
//!   of hangs when a run's whole replica set is down;
//! * `request <VERB> --addr HOST:PORT ...` — the client side: `query`
//!   (every evaluation mode), `append` (grow an open run over the
//!   wire), `stats`, `runs`, `ping`, `shutdown`;
//! * `watch <QUERY> --addr HOST:PORT [--index I | --fp HEX]
//!   [--mode MODE] [--max-deltas N]` — stand a query up over an open
//!   run (protocol-v3 `Subscribe`) and print each pushed delta — only
//!   *newly derived* answers — as appends land on the server; exits
//!   after `--max-deltas N` pushes, on SIGTERM/ctrl-c, or when the
//!   server goes away.
//!
//! `<SPEC>` is `fig2`, `fork`, `bioaid`, `qblast`, or a path to a JSON
//! specification produced by serde. How a query is planned and which
//! engine answers it — labels or joins per safe part, the lazy product
//! search or the materialized plan, kernels and row loops — is chosen
//! by the code from what it observes; there is no flag. An option a
//! subcommand does not know is an error, not silently ignored.
//!
//! Every failure surfaces as [`RpqError`] — the CLI has no error type
//! of its own.

use rpq_core::{BatchOptions, EvalStrategy, QueryRequest, RpqError, Session};
use rpq_grammar::Specification;
use rpq_labeling::{EventBatch, Run, RunBuilder, RunStats};
use rpq_router::{Router, RouterConfig};
use rpq_serve::protocol::{QuerySpec, RunAddr, WireMode, WireResult};
use rpq_serve::{ServeClient, ServeConfig, Server};
use rpq_store::RunStore;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// Entry point: interpret `args` (without the program name) and return
/// the output text.
pub fn run_cli(args: &[String]) -> Result<String, RpqError> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("spec") => cmd_spec(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("store") => cmd_store(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("router") => cmd_router(&args[1..]),
        Some("request") => cmd_request(&args[1..]),
        Some("watch") => cmd_watch(&args[1..]),
        Some("help") | None => Ok(USAGE.to_owned()),
        Some(other) => Err(RpqError::invalid(format!(
            "unknown subcommand {other:?}\n{USAGE}"
        ))),
    }
}

const USAGE: &str = "\
rpq — regular path queries on workflow provenance

USAGE:
  rpq spec <SPEC>
  rpq simulate <SPEC> --edges N [--seed S] [--fork CYCLE] [--out FILE] [--stream B]
  rpq query <SPEC> <QUERY> [--run FILE | --edges N --seed S]
            [--from NODE] [--to NODE] [--limit K]
  rpq stats (--run FILE | <SPEC> --edges N [--seed S])
  rpq store <SPEC> --dir DIR [--ingest N] [--edges M] [--seed S] [--add FILE]
            [--open rID --events FILE] [--remove FP|rID] [--gc]
  rpq batch <QUERY> --store DIR [--threads N] [--cache C]
  rpq serve <SPEC> --store DIR [--addr HOST:PORT] [--workers N] [--queue Q]
            [--cache C] [--idle-timeout SECS] [--deadline SECS] [--chunk ENTRIES]
            [--slow-ms MS] [--metrics-addr HOST:PORT]
  rpq router --backend HOST:PORT [--backend HOST:PORT ...] [--addr HOST:PORT]
            [--replicas R] [--workers N] [--queue Q] [--deadline-ms MS]
            [--probe-ms MS] [--sync-ms MS|off] [--cooldown-ms MS] [--eject-after K]
            [--metrics-addr HOST:PORT]
  rpq request query <QUERY> --addr HOST:PORT [--index I | --fp HEX]
            [--mode MODE] [--from U] [--to V] [--limit K]
  rpq request append --addr HOST:PORT --events FILE [--index I | --fp HEX]
  rpq request metrics --addr HOST:PORT [--text]
  rpq request (stats | runs | ping | shutdown) --addr HOST:PORT
  rpq watch <QUERY> --addr HOST:PORT [--index I | --fp HEX] [--mode MODE]
            [--from U] [--to V] [--limit K] [--max-deltas N]

SPEC:     fig2 | fork | bioaid | qblast | path to a JSON specification
NODE:     module:occurrence, e.g. a:2 (numeric node indexes for `request`)
MODE:     pairwise | entry-exit | all-pairs | source-star | target-star | reachable
";

/// Resolve a spec argument.
pub fn load_spec(arg: &str) -> Result<Specification, RpqError> {
    match arg {
        "fig2" => Ok(rpq_workloads::paper_examples::fig2_spec()),
        "fork" => Ok(rpq_workloads::paper_examples::fork_spec()),
        "bioaid" => Ok(rpq_workloads::bioaid_like().spec),
        "qblast" => Ok(rpq_workloads::qblast_like().spec),
        path => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| RpqError::io(format!("cannot read spec {path:?}"), e))?;
            serde_json::from_str(&text)
                .map_err(|e| RpqError::invalid(format!("cannot parse spec {path:?}: {e}")))
        }
    }
}

fn load_run(path: &str, spec: &Specification) -> Result<Run, RpqError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| RpqError::io(format!("cannot read run {path:?}"), e))?;
    let run: Run = serde_json::from_str(&text)
        .map_err(|e| RpqError::invalid(format!("cannot parse run {path:?}: {e}")))?;
    run.validate_against(spec).map_err(|e| {
        RpqError::invalid(format!(
            "run {path:?} does not match the specification: {e}"
        ))
    })?;
    Ok(run)
}

/// Positional arguments and `--key value` options of one subcommand.
type ParsedArgs<'a> = (Vec<&'a str>, Vec<(&'a str, &'a str)>);

/// Options that are bare flags (no value token follows them).
const BOOL_FLAGS: [&str; 2] = ["gc", "text"];

/// Parse `--key value` options; returns (positional, options). Keys
/// listed in [`BOOL_FLAGS`] consume no value and parse as `"true"`; a
/// key outside `known` (the subcommand's options) is an error.
fn split_args<'a>(args: &'a [String], known: &[&str]) -> Result<ParsedArgs<'a>, RpqError> {
    let mut positional = Vec::new();
    let mut options = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            if !known.contains(&key) {
                return Err(RpqError::invalid(format!(
                    "unknown option --{key}\n{USAGE}"
                )));
            }
            if BOOL_FLAGS.contains(&key) {
                options.push((key, "true"));
                i += 1;
                continue;
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| RpqError::invalid(format!("--{key} needs a value")))?;
            options.push((key, value.as_str()));
            i += 2;
        } else {
            positional.push(args[i].as_str());
            i += 1;
        }
    }
    Ok((positional, options))
}

fn opt<'a>(options: &[(&str, &'a str)], key: &str) -> Option<&'a str> {
    options.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, RpqError> {
    s.parse()
        .map_err(|_| RpqError::invalid(format!("invalid {what}: {s:?}")))
}

/// Open an existing run store for querying (`batch` / `serve`),
/// turning every failure mode — missing directory, missing or corrupt
/// catalog — into one clear [`RpqError::Io`] naming the directory and
/// the remedy, instead of a panic or a bare lower-layer message.
fn open_store(dir: &str) -> Result<RunStore, RpqError> {
    let catalog = std::path::Path::new(dir).join("catalog.json");
    if !catalog.exists() {
        return Err(RpqError::io(
            format!("cannot open run store at {dir}"),
            std::io::Error::new(
                std::io::ErrorKind::NotFound,
                "no catalog.json there — create the store first with \
                 `rpq store <SPEC> --dir DIR --ingest N`",
            ),
        ));
    }
    RunStore::open(dir).map_err(|e| match e {
        io @ RpqError::Io { .. } => io,
        other => RpqError::io(
            format!("cannot open run store at {dir}"),
            std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        ),
    })
}

fn cmd_spec(args: &[String]) -> Result<String, RpqError> {
    let (positional, _) = split_args(args, &[])?;
    let name = positional
        .first()
        .ok_or_else(|| RpqError::invalid("spec: missing <SPEC>"))?;
    let spec = load_spec(name)?;
    Ok(rpq_grammar::display::SpecDisplay(&spec).to_string())
}

fn simulate_run(spec: &Specification, options: &[(&str, &str)]) -> Result<Run, RpqError> {
    let edges: usize = parse_num(opt(options, "edges").unwrap_or("200"), "--edges")?;
    let seed: u64 = parse_num(opt(options, "seed").unwrap_or("0"), "--seed")?;
    let builder = RunBuilder::new(spec).seed(seed).target_edges(edges);
    let builder = if let Some(fork) = opt(options, "fork") {
        let cycle: usize = parse_num(fork, "--fork")?;
        if cycle >= spec.recursion().cycles.len() {
            return Err(RpqError::invalid(format!(
                "--fork {cycle}: specification has {} cycle(s)",
                spec.recursion().cycles.len()
            )));
        }
        let per_unfold: usize = spec.recursion().cycles[cycle]
            .edges
            .iter()
            .map(|e| spec.production(e.production).body.edges().len())
            .sum::<usize>()
            .max(1);
        builder.policy(rpq_labeling::ForkFocus::new(
            cycle,
            (edges / per_unfold).max(1) as u64,
            seed,
        ))
    } else {
        builder
    };
    Ok(builder.build()?)
}

/// The options [`simulate_run`] reads.
const SIMULATE: [&str; 3] = ["edges", "seed", "fork"];

fn cmd_simulate(args: &[String]) -> Result<String, RpqError> {
    let (positional, options) = split_args(args, &[&SIMULATE[..], &["out", "stream"]].concat())?;
    let name = positional
        .first()
        .ok_or_else(|| RpqError::invalid("simulate: missing <SPEC>"))?;
    let spec = load_spec(name)?;
    let run = simulate_run(&spec, &options)?;
    let stats = RunStats::measure(&run);
    let mut out = String::new();
    writeln!(
        out,
        "derived run: {} nodes, {} edges, parse-tree depth {}, avg label {:.1} B",
        stats.n_nodes, stats.n_edges, stats.tree_depth, stats.label_bytes_avg
    )
    .expect("write to string");
    if let Some(b) = opt(&options, "stream") {
        // Split the derivation into a base prefix plus replayable event
        // batches: the base goes to --out, batch k to
        // `<out stem>.events-k.json`, ready for `rpq store --open
        // --events` or `rpq request append`.
        let n_batches: usize = parse_num(b, "--stream")?;
        let path = opt(&options, "out")
            .ok_or_else(|| RpqError::invalid("simulate: --stream needs --out FILE"))?;
        let (base, batches) =
            rpq_workloads::runs::event_stream(&run, n_batches).map_err(RpqError::invalid)?;
        write_json(path, &base)?;
        writeln!(
            out,
            "streamed: base {} node(s)/{} edge(s) saved to {path}",
            base.n_nodes(),
            base.n_edges()
        )
        .expect("write to string");
        for (k, batch) in batches.iter().enumerate() {
            let batch_path = events_path(path, k + 1);
            write_json(&batch_path, batch)?;
            writeln!(
                out,
                "  batch {}: {} node(s), {} edge(s) saved to {batch_path}",
                k + 1,
                batch.nodes.len(),
                batch.edges.len()
            )
            .expect("write to string");
        }
        return Ok(out);
    }
    if let Some(path) = opt(&options, "out") {
        write_json(path, &run)?;
        writeln!(out, "saved to {path}").expect("write to string");
    }
    Ok(out)
}

/// Serialize `value` as JSON to `path`.
fn write_json<T: serde::Serialize>(path: &str, value: &T) -> Result<(), RpqError> {
    let json = serde_json::to_string(value)
        .map_err(|e| RpqError::invalid(format!("serialize failed: {e}")))?;
    std::fs::write(path, json).map_err(|e| RpqError::io(format!("cannot write {path:?}"), e))
}

/// Sibling path for event batch `k` of a streamed simulation:
/// `run.json` → `run.events-k.json`.
fn events_path(out: &str, k: usize) -> String {
    match out.strip_suffix(".json") {
        Some(stem) => format!("{stem}.events-{k}.json"),
        None => format!("{out}.events-{k}"),
    }
}

/// Parse an `EventBatch` JSON file (as written by `simulate --stream`).
fn load_events(path: &str) -> Result<EventBatch, RpqError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| RpqError::io(format!("cannot read events {path:?}"), e))?;
    serde_json::from_str(&text)
        .map_err(|e| RpqError::invalid(format!("cannot parse events {path:?}: {e}")))
}

fn cmd_query(args: &[String]) -> Result<String, RpqError> {
    let known = [&SIMULATE[..], &["run", "from", "to", "limit"]].concat();
    let (positional, options) = split_args(args, &known)?;
    let spec_name = positional
        .first()
        .ok_or_else(|| RpqError::invalid("query: missing <SPEC>"))?;
    let query_text = positional
        .get(1)
        .ok_or_else(|| RpqError::invalid("query: missing <QUERY>"))?;
    let spec = load_spec(spec_name)?;
    let run = match opt(&options, "run") {
        Some(path) => load_run(path, &spec)?,
        None => simulate_run(&spec, &options)?,
    };
    let session = Session::from_spec(spec);
    let query = session.prepare(query_text)?;

    let mut out = String::new();
    writeln!(
        out,
        "query: {query_text}\nsafe: {} (safe subqueries: {}, DFA states: {})",
        query.is_safe(),
        query.stats().n_safe_subqueries,
        query.stats().dfa_states,
    )
    .expect("write to string");

    // Which engine answered, and which closure algorithm(s) ran.
    let eval_note = |out: &mut String, meta: &rpq_core::EvalMeta| {
        writeln!(out, "strategy: {}", meta.strategy.name()).expect("write to string");
        if meta.closures.total() > 0 {
            writeln!(out, "closures: {}", meta.closures.summary()).expect("write to string");
        }
        if meta.condensations.total() > 0 {
            writeln!(
                out,
                "condensations: {} computed, {} reused",
                meta.condensations.computed, meta.condensations.reused
            )
            .expect("write to string");
        }
        if meta.strategy == EvalStrategy::Lazy {
            writeln!(
                out,
                "lazy product search: {} product state(s) expanded",
                meta.product_states
            )
            .expect("write to string");
        }
    };
    let resolve = |name: &str| -> Result<rpq_labeling::NodeId, RpqError> {
        run.node_by_name(session.spec(), name)
            .ok_or_else(|| RpqError::invalid(format!("no node named {name:?} in the run")))
    };
    match (opt(&options, "from"), opt(&options, "to")) {
        (Some(f), Some(t)) => {
            let (u, v) = (resolve(f)?, resolve(t)?);
            let outcome = session.evaluate(&query, &run, &QueryRequest::pairwise(u, v));
            writeln!(
                out,
                "{f} -R-> {t} : {}",
                outcome.as_bool().expect("pairwise")
            )
            .expect("write to string");
            eval_note(&mut out, &outcome.meta);
        }
        (from, to) => {
            let request = match (from, to) {
                (Some(f), None) => QueryRequest::source_star(resolve(f)?),
                (None, Some(t)) => QueryRequest::target_star(resolve(t)?),
                _ => {
                    let all: Vec<rpq_labeling::NodeId> = run.node_ids().collect();
                    QueryRequest::all_pairs(all.clone(), all)
                }
            };
            let limit: usize = parse_num(opt(&options, "limit").unwrap_or("20"), "--limit")?;
            let outcome = session.evaluate(&query, &run, &request);
            let result = outcome.as_pairs().expect("pair-producing request");
            writeln!(out, "matches: {}", result.len()).expect("write to string");
            for (u, v) in result.iter().take(limit) {
                writeln!(
                    out,
                    "  {} -> {}",
                    run.node_name(session.spec(), u),
                    run.node_name(session.spec(), v)
                )
                .expect("write to string");
            }
            if result.len() > limit {
                writeln!(out, "  … {} more (raise --limit)", result.len() - limit)
                    .expect("write to string");
            }
            eval_note(&mut out, &outcome.meta);
        }
    }
    Ok(out)
}

fn cmd_stats(args: &[String]) -> Result<String, RpqError> {
    let (positional, options) = split_args(args, &[&SIMULATE[..], &["run"]].concat())?;
    let run = match (opt(&options, "run"), positional.first()) {
        (Some(path), Some(name)) => load_run(path, &load_spec(name)?)?,
        (Some(path), None) => {
            // No spec to validate against: parse-only load.
            let text = std::fs::read_to_string(path)
                .map_err(|e| RpqError::io(format!("cannot read run {path:?}"), e))?;
            serde_json::from_str(&text)
                .map_err(|e| RpqError::invalid(format!("cannot parse run {path:?}: {e}")))?
        }
        (None, Some(name)) => {
            let spec = load_spec(name)?;
            simulate_run(&spec, &options)?
        }
        (None, None) => {
            return Err(RpqError::invalid(
                "stats: need --run FILE or <SPEC> --edges N",
            ));
        }
    };
    let s = RunStats::measure(&run);
    Ok(format!(
        "nodes: {}\nedges: {}\nparse-tree depth: {}\nlabel bytes: total {} / avg {:.1} / max {}\n",
        s.n_nodes,
        s.n_edges,
        s.tree_depth,
        s.label_bytes_total,
        s.label_bytes_avg,
        s.label_bytes_max
    ))
}

fn cmd_store(args: &[String]) -> Result<String, RpqError> {
    let known = [
        "dir", "ingest", "edges", "seed", "add", "open", "events", "remove", "gc",
    ];
    let (positional, options) = split_args(args, &known)?;
    let spec_name = positional
        .first()
        .ok_or_else(|| RpqError::invalid("store: missing <SPEC>"))?;
    let dir = opt(&options, "dir").ok_or_else(|| RpqError::invalid("store: --dir DIR required"))?;
    let spec = load_spec(spec_name)?;
    // Arc'd because the live-append path (`--open`) hands out shared
    // `OpenRun` handles; every other operation derefs through it.
    let store = Arc::new(RunStore::open_or_create(dir, Arc::new(spec))?);

    let mut out = String::new();
    if let Some(n) = opt(&options, "ingest") {
        let n: usize = parse_num(n, "--ingest")?;
        let edges: usize = parse_num(opt(&options, "edges").unwrap_or("200"), "--edges")?;
        let seed: u64 = parse_num(opt(&options, "seed").unwrap_or("0"), "--seed")?;
        let mut fresh = 0;
        let mut deduped = 0;
        for run in rpq_workloads::runs::corpus(store.spec(), n, edges, seed)? {
            if store.ingest(&run)?.deduplicated {
                deduped += 1;
            } else {
                fresh += 1;
            }
        }
        writeln!(
            out,
            "ingested {fresh} simulated run(s) (~{edges} edges, seed {seed}), {deduped} deduplicated"
        )
        .expect("write to string");
    }
    if let Some(path) = opt(&options, "add") {
        let ingested = store.ingest_json_file(path)?;
        writeln!(
            out,
            "added {path} as {}{}",
            ingested.id,
            if ingested.deduplicated {
                " (deduplicated)"
            } else {
                ""
            }
        )
        .expect("write to string");
    }
    match (opt(&options, "open"), opt(&options, "events")) {
        (Some(target), Some(path)) => {
            let id = target
                .strip_prefix('r')
                .ok_or_else(|| RpqError::invalid(format!("--open {target:?}: expected r<ID>")))?;
            let id: u64 = parse_num(id, "--open run id")?;
            let batch = load_events(path)?;
            let open = store.open_run(rpq_store::RunId(id))?;
            let before = store.stats();
            let receipt = open.append_events(&batch)?;
            writeln!(
                out,
                "appended {path} to {target}: seq {}, epoch {}, +{} node(s)/+{} edge(s) \
                 ({}, {} byte(s) written), now {} node(s)/{} edge(s), fp {:016x}{:016x}",
                receipt.seq,
                receipt.epoch,
                receipt.new_nodes,
                receipt.new_edges,
                if receipt.rebuilt {
                    "full rebuild"
                } else {
                    "delta maintenance"
                },
                store.stats().since(before).append_bytes,
                receipt.n_nodes,
                receipt.n_edges,
                receipt.fingerprint.0,
                receipt.fingerprint.1
            )
            .expect("write to string");
        }
        (None, None) => {}
        _ => {
            return Err(RpqError::invalid(
                "store: --open rID and --events FILE go together",
            ))
        }
    }
    if let Some(target) = opt(&options, "remove") {
        let removed = if let Some(id) = target.strip_prefix('r') {
            let id: u64 = parse_num(id, "--remove run id")?;
            store.remove_run_by_id(rpq_store::RunId(id))?
        } else {
            let fp = parse_fingerprint(target)?;
            store.remove_run(fp)?.is_some()
        };
        writeln!(
            out,
            "{}",
            if removed {
                format!("removed {target}")
            } else {
                format!("no stored run matches {target}")
            }
        )
        .expect("write to string");
    }
    if opt(&options, "gc").is_some() {
        let pruned = store.prune_orphans()?;
        writeln!(out, "gc: pruned {pruned} orphaned file(s)").expect("write to string");
    }
    // Ship the store warm and compact: event logs fold into their base
    // files and every run gets current index artifacts, so the next
    // process (or `rpq batch`) reloads instead of replaying and
    // rebuilding.
    let materialized = store.materialize_artifacts()?;
    if materialized > 0 {
        writeln!(
            out,
            "materialized index artifacts for {materialized} run(s)"
        )
        .expect("write to string");
    }
    writeln!(out, "store {dir}: {} run(s), spec {spec_name}", store.len())
        .expect("write to string");
    Ok(out)
}

fn cmd_batch(args: &[String]) -> Result<String, RpqError> {
    let (positional, options) = split_args(args, &["store", "threads", "cache"])?;
    let query_text = positional
        .first()
        .ok_or_else(|| RpqError::invalid("batch: missing <QUERY>"))?;
    let dir =
        opt(&options, "store").ok_or_else(|| RpqError::invalid("batch: --store DIR required"))?;
    let store = open_store(dir)?;
    if store.is_empty() {
        return Err(RpqError::invalid(format!(
            "store {dir} holds no runs; ingest some with `rpq store ... --ingest N`"
        )));
    }
    let threads: usize = parse_num(opt(&options, "threads").unwrap_or("0"), "--threads")?;
    // The session shares the store's specification, so prepared plans
    // and stored runs always agree. `--cache` bounds both the
    // session's per-run index caches and the store's in-memory
    // run/artifact caches — bounding only one side would leave the
    // other retaining the full corpus.
    let session = Session::new(store.spec_arc());
    let (store, session) = match opt(&options, "cache") {
        Some(c) => {
            let capacity = parse_num(c, "--cache")?;
            (
                store.with_cache_capacity(capacity),
                session.with_cache_capacity(capacity),
            )
        }
        None => (store, session),
    };
    let query = session.prepare(query_text)?;
    let outcome = session.evaluate_batch(
        &query,
        &store,
        &QueryRequest::entry_exit(),
        &BatchOptions::threads(threads),
    );

    let mut out = String::new();
    writeln!(
        out,
        "batch: {query_text} entry→exit over {} run(s) ({} thread(s))",
        outcome.items.len(),
        outcome.threads,
    )
    .expect("write to string");
    let mut matched = 0usize;
    let ids = store.ids();
    for (i, item) in outcome.items.iter().enumerate() {
        let id = ids[i];
        match &item.outcome {
            Ok(o) => {
                let hit = o.as_bool().expect("entry-exit is pairwise");
                matched += usize::from(hit);
                let edges = store.run(id).map(|r| r.n_edges()).unwrap_or(0);
                writeln!(out, "  {id}  ({edges} edges)  {hit}").expect("write to string");
            }
            Err(e) => writeln!(out, "  {id}  error: {e}").expect("write to string"),
        }
    }
    let store_stats = store.stats();
    let batch_stats = outcome.stats;
    writeln!(
        out,
        "matched {matched}/{} in {:.1} ms wall",
        outcome.items.len(),
        outcome.wall_secs * 1e3
    )
    .expect("write to string");
    writeln!(
        out,
        "store: tag reloads {}, csr reloads {}, tag rebuilds {}, csr rebuilds {}",
        store_stats.tag_reloads,
        store_stats.csr_reloads,
        store_stats.tag_rebuilds,
        store_stats.csr_rebuilds
    )
    .expect("write to string");
    writeln!(
        out,
        "session: index hits {}, misses {}; csr hits {}, misses {}; evictions {}",
        batch_stats.index_hits,
        batch_stats.index_misses,
        batch_stats.csr_hits,
        batch_stats.csr_misses,
        batch_stats.index_evictions + batch_stats.csr_evictions
    )
    .expect("write to string");
    Ok(out)
}

/// Parse a 32-hex-digit run fingerprint (`hi` then `lo`, as printed by
/// `rpq request runs`).
fn parse_fingerprint(s: &str) -> Result<(u64, u64), RpqError> {
    if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(RpqError::invalid(format!(
            "invalid fingerprint {s:?}: expected 32 hex digits (or r<ID> for a store id)"
        )));
    }
    let hi = u64::from_str_radix(&s[..16], 16).expect("validated hex");
    let lo = u64::from_str_radix(&s[16..], 16).expect("validated hex");
    Ok((hi, lo))
}

fn cmd_serve(args: &[String]) -> Result<String, RpqError> {
    let known = [
        "store",
        "addr",
        "workers",
        "queue",
        "cache",
        "idle-timeout",
        "deadline",
        "chunk",
        "slow-ms",
        "metrics-addr",
    ];
    let (positional, options) = split_args(args, &known)?;
    let spec_name = positional
        .first()
        .ok_or_else(|| RpqError::invalid("serve: missing <SPEC>"))?;
    let dir =
        opt(&options, "store").ok_or_else(|| RpqError::invalid("serve: --store DIR required"))?;
    let spec = load_spec(spec_name)?;
    let store = open_store(dir)?;
    if *store.spec() != spec {
        return Err(RpqError::invalid(format!(
            "store {dir} was built for a different specification than {spec_name}"
        )));
    }
    if store.is_empty() {
        return Err(RpqError::invalid(format!(
            "store {dir} holds no runs; ingest some with `rpq store ... --ingest N`"
        )));
    }
    let config = ServeConfig {
        addr: opt(&options, "addr").unwrap_or("127.0.0.1:0").to_owned(),
        workers: parse_num(opt(&options, "workers").unwrap_or("0"), "--workers")?,
        queue: parse_num(opt(&options, "queue").unwrap_or("64"), "--queue")?,
        cache: match opt(&options, "cache") {
            Some(c) => Some(parse_num(c, "--cache")?),
            None => None,
        },
        idle_timeout: Duration::from_secs(parse_num(
            opt(&options, "idle-timeout").unwrap_or("60"),
            "--idle-timeout",
        )?),
        deadline: Duration::from_secs(parse_num(
            opt(&options, "deadline").unwrap_or("30"),
            "--deadline",
        )?),
        chunk_entries: parse_num(opt(&options, "chunk").unwrap_or("65536"), "--chunk")?,
        slow_ms: match opt(&options, "slow-ms") {
            Some(ms) => Some(parse_num(ms, "--slow-ms")?),
            None => None,
        },
        metrics_addr: opt(&options, "metrics-addr").map(str::to_owned),
        observe: true,
    };
    let server = Server::bind(store, &config)?;
    let warmed = server.warm()?;
    let addr = server.local_addr()?;
    // Announced immediately (run_cli's return value only prints after
    // shutdown): harnesses scrape this line for the ephemeral port.
    println!(
        "rpq-serve listening on {addr} ({} worker(s), queue {}, {warmed} run(s) warm)",
        server.workers(),
        config.queue,
    );
    if let Some(maddr) = server.metrics_local_addr() {
        println!("metrics listening on {maddr}");
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let report = server.run(Some(rpq_serve::signals::install_termination_flag()));
    Ok(format!(
        "shutdown: served {} request(s) over {} connection(s), {} overloaded, {} error(s), \
         latency p50 {}µs p99 {}µs\n",
        report.requests,
        report.accepted,
        report.overloaded,
        report.request_errors,
        report.p50_us,
        report.p99_us
    ))
}

fn cmd_router(args: &[String]) -> Result<String, RpqError> {
    let known = [
        "backend",
        "addr",
        "replicas",
        "workers",
        "queue",
        "deadline-ms",
        "eject-after",
        "cooldown-ms",
        "probe-ms",
        "sync-ms",
        "metrics-addr",
    ];
    let (_positional, options) = split_args(args, &known)?;
    let backends: Vec<std::net::SocketAddr> = options
        .iter()
        .filter(|(k, _)| *k == "backend")
        .map(|&(_, v)| {
            v.parse().map_err(|_| {
                RpqError::invalid(format!("invalid --backend address {v:?} (want HOST:PORT)"))
            })
        })
        .collect::<Result<_, _>>()?;
    if backends.is_empty() {
        return Err(RpqError::invalid(
            "router: at least one --backend HOST:PORT required",
        ));
    }
    let config = RouterConfig {
        addr: opt(&options, "addr").unwrap_or("127.0.0.1:0").to_owned(),
        replication: parse_num(opt(&options, "replicas").unwrap_or("2"), "--replicas")?,
        workers: parse_num(opt(&options, "workers").unwrap_or("0"), "--workers")?,
        queue: parse_num(opt(&options, "queue").unwrap_or("64"), "--queue")?,
        deadline: Duration::from_millis(parse_num(
            opt(&options, "deadline-ms").unwrap_or("5000"),
            "--deadline-ms",
        )?),
        eject_after: parse_num(opt(&options, "eject-after").unwrap_or("3"), "--eject-after")?,
        cooldown: Duration::from_millis(parse_num(
            opt(&options, "cooldown-ms").unwrap_or("500"),
            "--cooldown-ms",
        )?),
        probe_interval: Duration::from_millis(parse_num(
            opt(&options, "probe-ms").unwrap_or("250"),
            "--probe-ms",
        )?),
        sync_interval: match opt(&options, "sync-ms") {
            Some("off") => None,
            Some(ms) => Some(Duration::from_millis(parse_num(ms, "--sync-ms")?)),
            None => Some(Duration::from_millis(500)),
        },
        metrics_addr: opt(&options, "metrics-addr").map(str::to_owned),
        backends,
        ..RouterConfig::default()
    };
    let router = Router::bind(&config)?;
    let addr = router.local_addr()?;
    // Announced immediately (run_cli's return value only prints after
    // shutdown): harnesses scrape this line for the ephemeral port.
    println!(
        "rpq-router listening on {addr} ({} worker(s), {} backend(s), replication {}, \
         probe {}ms, sync {})",
        router.workers(),
        config.backends.len(),
        config.replication.min(config.backends.len()),
        config.probe_interval.as_millis(),
        match config.sync_interval {
            Some(d) => format!("{}ms", d.as_millis()),
            None => "off".to_owned(),
        },
    );
    if let Some(maddr) = router.metrics_local_addr() {
        println!("metrics listening on {maddr}");
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let report = router.run(Some(rpq_serve::signals::install_termination_flag()));
    Ok(format!(
        "shutdown: routed {} request(s) over {} connection(s), {} overloaded, \
         {} failover(s) ({} retry backoff(s)), {} unavailable, {} run(s) replicated\n",
        report.requests,
        report.accepted,
        report.overloaded,
        report.failovers,
        report.retries,
        report.unavailable,
        report.synced_runs
    ))
}

/// The options [`parse_run_addr`] and [`parse_wire_mode`] read.
const WIRE_QUERY: [&str; 5] = ["fp", "index", "from", "to", "mode"];

fn cmd_request(args: &[String]) -> Result<String, RpqError> {
    let known = [&WIRE_QUERY[..], &["addr", "limit", "events", "text"]].concat();
    let (positional, options) = split_args(args, &known)?;
    let verb = positional.first().ok_or_else(|| {
        RpqError::invalid(
            "request: missing verb (query | append | stats | metrics | runs | ping | shutdown)",
        )
    })?;
    if ![
        "ping", "shutdown", "runs", "stats", "metrics", "query", "append",
    ]
    .contains(verb)
    {
        return Err(RpqError::invalid(format!(
            "unknown request verb {verb:?} \
             (query | append | stats | metrics | runs | ping | shutdown)"
        )));
    }
    let addr = opt(&options, "addr")
        .ok_or_else(|| RpqError::invalid("request: --addr HOST:PORT required"))?;
    let mut client = ServeClient::connect(addr)?;
    match *verb {
        "ping" => {
            client.ping()?;
            Ok(format!("pong from {addr}\n"))
        }
        "shutdown" => {
            client.shutdown_server()?;
            Ok(format!("server at {addr} acknowledged shutdown\n"))
        }
        "runs" => {
            let runs = client.runs()?;
            let mut out = String::new();
            writeln!(out, "{} stored run(s) at {addr}:", runs.len()).expect("write to string");
            for r in runs {
                writeln!(
                    out,
                    "  r{}  fp {:016x}{:016x}  {} node(s), {} edge(s)",
                    r.id, r.fp_hi, r.fp_lo, r.n_nodes, r.n_edges
                )
                .expect("write to string");
            }
            Ok(out)
        }
        "stats" => {
            let s = client.stats()?;
            Ok(format!(
                "server {addr}: {} run(s) stored\n\
                 service: {} connection(s), {} request(s), {} overloaded, {} error(s)\n\
                 session: plan {}h/{}m, index {}h/{}m, csr {}h/{}m, {} eviction(s)\n\
                 store:   tag reloads {}, csr reloads {}, tag rebuilds {}, csr rebuilds {}\n\
                 live:    epoch {}, {} append(s) ({} forced rebuild(s)), {} subscription(s)\n\
                 closures: pairs {}, bits {}, scc {} (condensations: {} computed, {} reused)\n\
                 strategy: lazy {}, materialized {}, {} product state(s) expanded\n\
                 retries: {} reconnect/failover backoff(s)\n",
                s.store_runs,
                s.accepted,
                s.requests,
                s.overloaded,
                s.request_errors,
                s.plan_hits,
                s.plan_misses,
                s.index_hits,
                s.index_misses,
                s.csr_hits,
                s.csr_misses,
                s.session_evictions,
                s.tag_reloads,
                s.csr_reloads,
                s.tag_rebuilds,
                s.csr_rebuilds,
                s.store_epoch,
                s.appends,
                s.append_rebuilds,
                s.subscriptions,
                s.closures_pairs,
                s.closures_bits,
                s.closures_scc,
                s.condensations_computed,
                s.condensations_reused,
                s.strategy_lazy,
                s.strategy_materialized,
                s.lazy_expansions,
                s.retries,
            ))
        }
        "metrics" => {
            let reply = client.metrics()?;
            if opt(&options, "text").is_some() {
                return Ok(reply.to_snapshot().to_text());
            }
            let mut out = String::new();
            writeln!(
                out,
                "metrics @ {addr}: {} counter(s), {} gauge(s), {} histogram(s), {} slow quer(ies)",
                reply.counters.len(),
                reply.gauges.len(),
                reply.histograms.len(),
                reply.slow.len()
            )
            .expect("write to string");
            for (name, value) in &reply.counters {
                writeln!(out, "  {name} {value}").expect("write to string");
            }
            for (name, value) in &reply.gauges {
                writeln!(out, "  {name} {value}").expect("write to string");
            }
            for (name, hist) in &reply.histograms {
                let h = hist.to_snapshot();
                writeln!(
                    out,
                    "  {name} count={} mean={:.0} p50={} p90={} p99={}",
                    h.count,
                    h.mean(),
                    h.p50(),
                    h.p90(),
                    h.p99()
                )
                .expect("write to string");
            }
            for (key, text) in &reply.notes {
                writeln!(out, "  note {key}: {text}").expect("write to string");
            }
            for sq in &reply.slow {
                let stages: Vec<String> = sq
                    .stages
                    .iter()
                    .map(|(name, us)| format!("{name}={us}µs"))
                    .collect();
                writeln!(
                    out,
                    "  slow {}µs fp {} {:?} ({})",
                    sq.total_micros,
                    sq.fingerprint,
                    sq.query,
                    stages.join(" ")
                )
                .expect("write to string");
            }
            Ok(out)
        }
        "query" => {
            let query = positional
                .get(1)
                .ok_or_else(|| RpqError::invalid("request query: missing <QUERY>"))?;
            cmd_request_query(&mut client, addr, query, &options)
        }
        "append" => {
            let path = opt(&options, "events")
                .ok_or_else(|| RpqError::invalid("request append: --events FILE required"))?;
            let batch = load_events(path)?;
            let run = parse_run_addr(&options)?;
            let receipt = client.append(run, batch)?;
            Ok(format!(
                "appended {path} @ {addr}: seq {}, epoch {}, +{} node(s)/+{} edge(s) ({}), \
                 now {} node(s)/{} edge(s), fp {:016x}{:016x}\n",
                receipt.seq,
                receipt.epoch,
                receipt.new_nodes,
                receipt.new_edges,
                if receipt.rebuilt != 0 {
                    "full rebuild"
                } else {
                    "delta maintenance"
                },
                receipt.n_nodes,
                receipt.n_edges,
                receipt.fp_hi,
                receipt.fp_lo
            ))
        }
        _ => unreachable!("verb validated above"),
    }
}

/// Parse `--fp HEX | --index I` into a run address (index 0 default).
fn parse_run_addr(options: &[(&str, &str)]) -> Result<RunAddr, RpqError> {
    match (opt(options, "fp"), opt(options, "index")) {
        (Some(fp), None) => {
            let (hi, lo) = parse_fingerprint(fp)?;
            Ok(RunAddr::Fingerprint(hi, lo))
        }
        (None, index) => Ok(RunAddr::Index(parse_num(index.unwrap_or("0"), "--index")?)),
        (Some(_), Some(_)) => Err(RpqError::invalid("--fp and --index are mutually exclusive")),
    }
}

/// Parse `--mode`/`--from`/`--to` into a wire evaluation mode.
fn parse_wire_mode(options: &[(&str, &str)]) -> Result<WireMode, RpqError> {
    let from = match opt(options, "from") {
        Some(s) => Some(parse_num::<u32>(s, "--from node index")?),
        None => None,
    };
    let to = match opt(options, "to") {
        Some(s) => Some(parse_num::<u32>(s, "--to node index")?),
        None => None,
    };
    let need = |side: Option<u32>, flag: &str, mode: &str| {
        side.ok_or_else(|| RpqError::invalid(format!("--mode {mode} needs {flag}")))
    };
    match opt(options, "mode") {
        // Inferred mode mirrors `rpq query`: both endpoints → pairwise,
        // one → the star selection, none → entry→exit.
        None => Ok(match (from, to) {
            (Some(u), Some(v)) => WireMode::Pairwise(u, v),
            (Some(u), None) => WireMode::SourceStar(u),
            (None, Some(v)) => WireMode::TargetStar(v),
            (None, None) => WireMode::EntryExit,
        }),
        Some("pairwise") => Ok(WireMode::Pairwise(
            need(from, "--from", "pairwise")?,
            need(to, "--to", "pairwise")?,
        )),
        Some("entry-exit") => Ok(WireMode::EntryExit),
        Some("source-star") => Ok(WireMode::SourceStar(need(from, "--from", "source-star")?)),
        Some("target-star") => Ok(WireMode::TargetStar(need(to, "--to", "target-star")?)),
        Some("reachable") => Ok(WireMode::Reachable(need(from, "--from", "reachable")?)),
        // The node universe lives server-side; the symbolic mode ships
        // no id lists and needs no inventory round trip.
        Some("all-pairs") => Ok(WireMode::AllPairsFull),
        Some(other) => Err(RpqError::invalid(format!(
            "invalid --mode {other:?} (pairwise | entry-exit | all-pairs | source-star | \
             target-star | reachable)"
        ))),
    }
}

fn cmd_request_query(
    client: &mut ServeClient,
    addr: &str,
    query: &str,
    options: &[(&str, &str)],
) -> Result<String, RpqError> {
    let outcome = client.query(QuerySpec {
        query: query.to_owned(),
        // The server chooses how to evaluate; these must stay empty.
        policy: String::new(),
        strategy: String::new(),
        run: parse_run_addr(options)?,
        // The CLI is interactive: ask for the per-stage breakdown
        // (bulk clients leave it off — it costs wire bytes per reply).
        stages: true,
        mode: parse_wire_mode(options)?,
    })?;
    let limit: usize = parse_num(opt(options, "limit").unwrap_or("10"), "--limit")?;
    let mut out = String::new();
    writeln!(
        out,
        "query: {query} @ {addr}\nplan: {}, strategy: {}, index cache: {}, \
         {} node(s) touched, {} µs server-side",
        outcome.plan_kind,
        outcome.strategy,
        outcome.index_cache,
        outcome.nodes_touched,
        outcome.micros
    )
    .expect("write to string");
    if outcome.product_states > 0 {
        writeln!(
            out,
            "lazy product search: {} product state(s) expanded",
            outcome.product_states
        )
        .expect("write to string");
    }
    if outcome.closure_pairs + outcome.closure_bits + outcome.closure_scc > 0 {
        writeln!(
            out,
            "closures: pairs:{} bits:{} scc:{}",
            outcome.closure_pairs, outcome.closure_bits, outcome.closure_scc
        )
        .expect("write to string");
    }
    if outcome.condensations_computed + outcome.condensations_reused > 0 {
        writeln!(
            out,
            "condensations: {} computed, {} reused",
            outcome.condensations_computed, outcome.condensations_reused
        )
        .expect("write to string");
    }
    if !outcome.stages.is_empty() {
        let parts: Vec<String> = outcome
            .stages
            .iter()
            .map(|(name, us)| format!("{name}={us}µs"))
            .collect();
        writeln!(out, "stages: {}", parts.join(" ")).expect("write to string");
    }
    match &outcome.result {
        WireResult::Bool(hit) => writeln!(out, "verdict: {hit}").expect("write to string"),
        WireResult::Pairs(pairs) => {
            writeln!(out, "matches: {}", pairs.len()).expect("write to string");
            for (u, v) in pairs.iter().take(limit) {
                writeln!(out, "  {u} -> {v}").expect("write to string");
            }
            if pairs.len() > limit {
                writeln!(out, "  … {} more (raise --limit)", pairs.len() - limit)
                    .expect("write to string");
            }
        }
        WireResult::Nodes(nodes) => {
            writeln!(out, "reachable: {}", nodes.len()).expect("write to string");
            for n in nodes.iter().take(limit) {
                writeln!(out, "  {n}").expect("write to string");
            }
            if nodes.len() > limit {
                writeln!(out, "  … {} more (raise --limit)", nodes.len() - limit)
                    .expect("write to string");
            }
        }
    }
    Ok(out)
}

fn cmd_watch(args: &[String]) -> Result<String, RpqError> {
    let known = [&WIRE_QUERY[..], &["addr", "limit", "max-deltas"]].concat();
    let (positional, options) = split_args(args, &known)?;
    let query = positional
        .first()
        .ok_or_else(|| RpqError::invalid("watch: missing <QUERY>"))?;
    let addr = opt(&options, "addr")
        .ok_or_else(|| RpqError::invalid("watch: --addr HOST:PORT required"))?;
    let limit: usize = parse_num(opt(&options, "limit").unwrap_or("10"), "--limit")?;
    let max_deltas: u64 = match opt(&options, "max-deltas") {
        Some(s) => parse_num(s, "--max-deltas")?,
        None => u64::MAX,
    };
    let mut client = ServeClient::connect(addr)?;
    let (seq, initial) = client.subscribe(QuerySpec {
        query: (*query).to_owned(),
        policy: String::new(),
        strategy: String::new(),
        run: parse_run_addr(&options)?,
        stages: false,
        mode: parse_wire_mode(&options)?,
    })?;
    // Streaming output: each line prints (and flushes) as it happens —
    // run_cli's return value only appears when the watch ends, and
    // harnesses scrape the first line to know the watch is standing.
    println!(
        "watching {query} @ {addr} from seq {seq}; baseline {}",
        summarize_result(&initial)
    );
    flush_stdout();
    let stop = rpq_serve::signals::install_termination_flag();
    let mut received: u64 = 0;
    while received < max_deltas {
        if stop.load(std::sync::atomic::Ordering::Relaxed) {
            break;
        }
        if let Some((seq, added)) = client.next_delta(Duration::from_millis(300))? {
            received += 1;
            println!("delta seq {seq}: {}", render_added(&added, limit));
            flush_stdout();
        }
    }
    client.unsubscribe()?;
    Ok(format!("watch: {received} delta(s) received\n"))
}

fn flush_stdout() {
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
}

/// One-line shape of a full wire result (the subscription baseline).
fn summarize_result(result: &WireResult) -> String {
    match result {
        WireResult::Bool(hit) => format!("verdict {hit}"),
        WireResult::Pairs(pairs) => format!("{} pair(s)", pairs.len()),
        WireResult::Nodes(nodes) => format!("{} node(s)", nodes.len()),
    }
}

/// One-line rendering of a pushed delta (newly derived answers only).
fn render_added(added: &WireResult, limit: usize) -> String {
    let list = |shown: Vec<String>, total: usize| {
        let mut s = shown.join(" ");
        if total > limit {
            write!(s, " … {} more (raise --limit)", total - limit).expect("write to string");
        }
        s
    };
    match added {
        WireResult::Bool(hit) => format!("verdict flipped to {hit}"),
        WireResult::Pairs(pairs) => format!(
            "+{} pair(s): {}",
            pairs.len(),
            list(
                pairs
                    .iter()
                    .take(limit)
                    .map(|(u, v)| format!("{u}->{v}"))
                    .collect(),
                pairs.len()
            )
        ),
        WireResult::Nodes(nodes) => format!(
            "+{} node(s): {}",
            nodes.len(),
            list(
                nodes.iter().take(limit).map(u32::to_string).collect(),
                nodes.len()
            )
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<String, RpqError> {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        run_cli(&owned)
    }

    #[test]
    fn help_and_unknown() {
        assert!(run(&[]).unwrap().contains("USAGE"));
        assert!(run(&["help"]).unwrap().contains("USAGE"));
        assert!(run(&["frobnicate"]).is_err());
    }

    #[test]
    fn spec_command_renders_builtins() {
        for s in ["fig2", "fork", "bioaid", "qblast"] {
            let out = run(&["spec", s]).unwrap();
            assert!(out.contains("productions"), "{s}: {out}");
        }
        assert!(run(&["spec", "/nonexistent.json"]).is_err());
    }

    #[test]
    fn simulate_and_query_round_trip() {
        let dir = std::env::temp_dir().join("rpq_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let run_path = dir.join("run.json");
        let run_path = run_path.to_str().unwrap();

        let out = run(&[
            "simulate", "fig2", "--edges", "80", "--seed", "3", "--out", run_path,
        ])
        .unwrap();
        assert!(out.contains("derived run"));

        // All-pairs over the persisted run.
        let out = run(&["query", "fig2", "_* e _*", "--run", run_path]).unwrap();
        assert!(out.contains("safe: true"));
        assert!(out.contains("matches:"));

        // Pairwise between named nodes.
        let out = run(&[
            "query", "fig2", "_*", "--run", run_path, "--from", "c:1", "--to", "b:1",
        ])
        .unwrap();
        assert!(out.contains("c:1 -R-> b:1 : true"));

        // Source star from a named node.
        let out = run(&["query", "fig2", "_*", "--run", run_path, "--from", "c:1"]).unwrap();
        assert!(out.contains("matches:"));

        // Stats over the same file.
        let out = run(&["stats", "--run", run_path]).unwrap();
        assert!(out.contains("parse-tree depth"));
    }

    #[test]
    fn query_without_run_simulates() {
        let out = run(&["query", "fork", "fork*", "--edges", "60", "--seed", "1"]).unwrap();
        assert!(out.contains("safe: true"));
    }

    #[test]
    fn evaluation_choices_are_not_options() {
        // The code picks how to plan and which engine answers: the
        // former overrides, like any option a subcommand does not
        // know, are errors rather than silently ignored.
        for key in ["policy", "strategy", "frobnicate"] {
            let flag = format!("--{key}");
            for cmd in [
                vec!["query", "fig2", "_*", flag.as_str(), "naive"],
                vec![
                    "batch",
                    "_*",
                    "--store",
                    "/nonexistent-store",
                    flag.as_str(),
                    "naive",
                ],
                vec![
                    "request",
                    "query",
                    "_*",
                    "--addr",
                    "127.0.0.1:1",
                    flag.as_str(),
                    "lazy",
                ],
                vec![
                    "watch",
                    "_*",
                    "--addr",
                    "127.0.0.1:1",
                    flag.as_str(),
                    "lazy",
                ],
            ] {
                let err = run(&cmd).unwrap_err();
                assert!(
                    err.to_string().contains(&format!("unknown option {flag}")),
                    "{cmd:?}: {err}"
                );
            }
        }
    }

    #[test]
    fn default_plan_agrees_with_g1() {
        let out = run(&["query", "fig2", "_* a _*", "--edges", "80", "--seed", "3"]).unwrap();
        let spec = load_spec("fig2").unwrap();
        let run = simulate_run(&spec, &[("edges", "80"), ("seed", "3")]).unwrap();
        let index = rpq_relalg::TagIndex::build(&run, spec.n_tags());
        let regex = Session::from_spec(spec).parse("_* a _*").unwrap();
        let all: Vec<rpq_labeling::NodeId> = run.node_ids().collect();
        let g1 = rpq_baselines::G1::new(&index).all_pairs(&regex, &all, &all);
        assert!(out.contains(&format!("matches: {}\n", g1.len())), "{out}");
    }

    #[test]
    fn executed_closures_are_reported() {
        // `(a _*)+ e` closes a derived relation on the materialized
        // path, so the algorithm the dispatch picked surfaces.
        let out = run(&["query", "fig2", "(a _*)+ e", "--edges", "80", "--seed", "3"]).unwrap();
        assert!(out.contains("strategy: materialized"), "{out}");
        // The line is printed only when some closure ran.
        assert!(out.lines().any(|l| l.starts_with("closures:")), "{out}");
    }

    #[test]
    fn the_engine_that_answered_is_reported() {
        // A source star over a decomposed plan is frontier-bound: the
        // session answers it with the lazy product search and says so,
        // with its product-state accounting.
        let out = run(&[
            "query", "fig2", "_* a _*", "--edges", "80", "--seed", "3", "--from", "c:1",
        ])
        .unwrap();
        assert!(out.contains("strategy: lazy"), "{out}");
        assert!(out.contains("lazy product search:"), "{out}");
    }

    #[test]
    fn store_and_batch_round_trip() {
        let dir = std::env::temp_dir()
            .join("rpq_cli_store")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        let dir = dir.to_str().unwrap().to_owned();

        // Create a store with 4 simulated runs (artifacts materialized).
        let out = run(&[
            "store", "fig2", "--dir", &dir, "--ingest", "4", "--edges", "80", "--seed", "7",
        ])
        .unwrap();
        assert!(out.contains("ingested 4 simulated run(s)"), "{out}");
        assert!(out.contains("materialized index artifacts for 4"), "{out}");
        assert!(out.contains("4 run(s)"), "{out}");

        // Re-running the same ingest deduplicates everything.
        let out = run(&[
            "store", "fig2", "--dir", &dir, "--ingest", "4", "--edges", "80", "--seed", "7",
        ])
        .unwrap();
        assert!(out.contains("ingested 0 simulated run(s)"), "{out}");
        assert!(out.contains("4 deduplicated"), "{out}");

        // Adding a JSON run file ingests it too.
        let run_file = format!("{dir}/extra.json");
        run(&[
            "simulate", "fig2", "--edges", "500", "--seed", "9", "--out", &run_file,
        ])
        .unwrap();
        let out = run(&["store", "fig2", "--dir", &dir, "--add", &run_file]).unwrap();
        assert!(out.contains("added"), "{out}");
        assert!(out.contains("5 run(s)"), "{out}");

        // A safe query decodes labels only: the batch never touches
        // the store's artifacts (no reloads, no rebuilds).
        let out = run(&["batch", "_* e _*", "--store", &dir, "--threads", "2"]).unwrap();
        assert!(out.contains("over 5 run(s)"), "{out}");
        assert!(out.contains("matched"), "{out}");
        assert!(out.contains("tag reloads 0"), "{out}");
        assert!(out.contains("tag rebuilds 0"), "{out}");

        // A composite query (with a bounded cache) consumes the warm
        // store: reload counters move, rebuilds stay at zero.
        let out = run(&[
            "batch",
            "_* a _*",
            "--store",
            &dir,
            "--threads",
            "4",
            "--cache",
            "2",
        ])
        .unwrap();
        assert!(out.contains("tag reloads 5"), "{out}");
        assert!(out.contains("tag rebuilds 0"), "{out}");

        // Usage errors.
        assert!(run(&["batch", "_*"]).is_err());
        assert!(run(&["store", "fig2"]).is_err());
        let err = run(&["batch", "_*", "--store", "/nonexistent-store"]).unwrap_err();
        assert!(matches!(err, RpqError::Io { .. }), "{err:?}");
        // A store built for one spec refuses another.
        let err = run(&["store", "fork", "--dir", &dir]).unwrap_err();
        assert!(err.to_string().contains("different specification"), "{err}");
    }

    #[test]
    fn store_gc_and_remove_flags_work() {
        let dir = std::env::temp_dir()
            .join("rpq_cli_gc")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().unwrap().to_owned();
        run(&[
            "store", "fig2", "--dir", &dir_s, "--ingest", "3", "--edges", "70", "--seed", "2",
        ])
        .unwrap();

        // Remove by store id.
        let out = run(&["store", "fig2", "--dir", &dir_s, "--remove", "r1"]).unwrap();
        assert!(out.contains("removed r1"), "{out}");
        assert!(out.contains("2 run(s)"), "{out}");
        // Removing it again reports the miss without failing.
        let out = run(&["store", "fig2", "--dir", &dir_s, "--remove", "r1"]).unwrap();
        assert!(out.contains("no stored run matches r1"), "{out}");

        // Plant an orphan; --gc prunes it and live artifacts survive.
        std::fs::write(dir.join("index").join("tag-77.bin"), b"junk").unwrap();
        let out = run(&["store", "fig2", "--dir", &dir_s, "--gc"]).unwrap();
        assert!(out.contains("pruned 1 orphaned file(s)"), "{out}");
        let out = run(&["batch", "_* e _*", "--store", &dir_s]).unwrap();
        assert!(out.contains("over 2 run(s)"), "{out}");

        // Bad --remove arguments are clear errors.
        let err = run(&["store", "fig2", "--dir", &dir_s, "--remove", "zz"]).unwrap_err();
        assert!(err.to_string().contains("32 hex digits"), "{err}");
    }

    #[test]
    fn missing_or_corrupt_stores_are_clear_io_errors() {
        // Missing directory: batch and serve both say what to do.
        for args in [
            vec!["batch", "_*", "--store", "/nonexistent-store"],
            vec!["serve", "fig2", "--store", "/nonexistent-store"],
        ] {
            let err = run(&args).unwrap_err();
            assert!(matches!(err, RpqError::Io { .. }), "{err:?}");
            let message = err.to_string();
            assert!(message.contains("cannot open run store"), "{message}");
            assert!(message.contains("rpq store"), "{message}");
        }

        // Corrupt catalog: still RpqError::Io, still naming the store.
        let dir = std::env::temp_dir()
            .join("rpq_cli_corrupt")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("catalog.json"), b"{not json").unwrap();
        std::fs::write(dir.join("spec.json"), b"{}").unwrap();
        let dir_s = dir.to_str().unwrap();
        for args in [
            vec!["batch", "_*", "--store", dir_s],
            vec!["serve", "fig2", "--store", dir_s],
        ] {
            let err = run(&args).unwrap_err();
            assert!(matches!(err, RpqError::Io { .. }), "{err:?}");
            assert!(err.to_string().contains("cannot open run store"), "{err}");
        }
    }

    #[test]
    fn request_verbs_round_trip_against_a_live_server() {
        let dir = std::env::temp_dir()
            .join("rpq_cli_serve")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().unwrap().to_owned();
        run(&[
            "store", "fig2", "--dir", &dir_s, "--ingest", "2", "--edges", "70", "--seed", "5",
        ])
        .unwrap();

        // Bind in-process (the CLI path through `rpq serve` blocks; the
        // smoke test in CI covers the spawned-process flavor).
        let store = RunStore::open(&dir_s).unwrap();
        let server = Server::bind(store, &ServeConfig::default()).unwrap();
        server.warm().unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let serving = std::thread::spawn(move || server.run(None));

        assert!(run(&["request", "ping", "--addr", &addr])
            .unwrap()
            .contains("pong"));

        let runs_out = run(&["request", "runs", "--addr", &addr]).unwrap();
        assert!(runs_out.contains("2 stored run(s)"), "{runs_out}");
        let fp = runs_out
            .lines()
            .find(|l| l.trim_start().starts_with("r0"))
            .and_then(|l| l.split_whitespace().nth(2))
            .expect("fingerprint column")
            .to_owned();
        assert_eq!(fp.len(), 32, "{runs_out}");

        // Every evaluation mode, through the CLI client.
        let out = run(&["request", "query", "_* e _*", "--addr", &addr]).unwrap();
        assert!(out.contains("verdict:"), "{out}");
        let out = run(&[
            "request", "query", "_*", "--addr", &addr, "--from", "0", "--to", "1",
        ])
        .unwrap();
        assert!(out.contains("verdict:"), "{out}");
        let out = run(&["request", "query", "_*", "--addr", &addr, "--from", "0"]).unwrap();
        assert!(out.contains("matches:"), "{out}");
        let out = run(&["request", "query", "_*", "--addr", &addr, "--to", "0"]).unwrap();
        assert!(out.contains("matches:"), "{out}");
        let out = run(&[
            "request",
            "query",
            "_* a _*",
            "--addr",
            &addr,
            "--mode",
            "all-pairs",
            "--fp",
            &fp,
        ])
        .unwrap();
        assert!(out.contains("matches:"), "{out}");
        let out = run(&[
            "request",
            "query",
            "_*",
            "--addr",
            &addr,
            "--mode",
            "reachable",
            "--from",
            "0",
        ])
        .unwrap();
        assert!(out.contains("reachable:"), "{out}");

        // The engine the server picked comes back in the reply.
        let out = run(&[
            "request", "query", "_* a _*", "--addr", &addr, "--from", "0",
        ])
        .unwrap();
        assert!(out.contains("strategy: lazy"), "{out}");

        // Server-side failures surface as errors, not hangs.
        let err = run(&["request", "query", "(((", "--addr", &addr]).unwrap_err();
        assert!(err.to_string().contains("parse"), "{err}");

        let stats = run(&["request", "stats", "--addr", &addr]).unwrap();
        assert!(stats.contains("2 run(s) stored"), "{stats}");
        assert!(stats.contains("request(s)"), "{stats}");

        let out = run(&["request", "shutdown", "--addr", &addr]).unwrap();
        assert!(out.contains("acknowledged shutdown"), "{out}");
        let report = serving.join().unwrap();
        assert!(report.requests >= 10, "{report:?}");

        // Usage errors.
        assert!(run(&["request", "query", "_*"]).is_err()); // no --addr
        let err = run(&["request", "teleport", "--addr", &addr]).unwrap_err();
        assert!(err.to_string().contains("unknown request verb"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn simulate_stream_and_offline_append_round_trip() {
        let dir = std::env::temp_dir()
            .join("rpq_cli_stream")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("run.json");
        let base = base.to_str().unwrap().to_owned();
        let store_dir = dir.join("store");
        let store_dir = store_dir.to_str().unwrap().to_owned();

        // Streamed simulation: base + 3 replayable event batches.
        let out = run(&[
            "simulate", "fig2", "--edges", "90", "--seed", "7", "--out", &base, "--stream", "3",
        ])
        .unwrap();
        assert!(out.contains("streamed: base"), "{out}");
        assert!(out.contains("batch 3:"), "{out}");
        for k in 1..=3 {
            let batch = load_events(&events_path(&base, k)).unwrap();
            assert!(!batch.is_empty(), "batch {k} is empty");
        }

        // Ingest the base, then replay every batch through the
        // live-append path. Each CLI invocation is a fresh process, so
        // the open-handle seq restarts at 1; the persisted catalog
        // epoch keeps climbing across invocations.
        run(&["store", "fig2", "--dir", &store_dir, "--add", &base]).unwrap();
        for k in 1..=3u64 {
            let events = events_path(&base, k as usize);
            let out = run(&[
                "store", "fig2", "--dir", &store_dir, "--open", "r0", "--events", &events,
            ])
            .unwrap();
            assert!(out.contains("appended"), "{out}");
            assert!(out.contains(&format!("seq 1, epoch {}", k + 1)), "{out}");
            assert!(out.contains("byte(s) written)"), "{out}");
            // The verb ends by leaving the store warm: the segment it
            // just logged is folded into the base file.
            assert!(
                out.contains("materialized index artifacts for 1 run(s)"),
                "{out}"
            );
            assert!(!dir.join("store/runs/run-0.log").exists());
        }

        // The grown run answers queries like any stored run.
        let out = run(&["batch", "_* e _*", "--store", &store_dir]).unwrap();
        assert!(out.contains("over 1 run(s)"), "{out}");

        // Usage errors: the flags go together; the id must exist.
        let err = run(&["store", "fig2", "--dir", &store_dir, "--open", "r0"]).unwrap_err();
        assert!(err.to_string().contains("go together"), "{err}");
        let events = events_path(&base, 1);
        assert!(
            run(&["store", "fig2", "--dir", &store_dir, "--open", "r9", "--events", &events,])
                .is_err()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watch_streams_deltas_from_live_appends() {
        let dir = std::env::temp_dir()
            .join("rpq_cli_watch")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("run.json");
        let base = base.to_str().unwrap().to_owned();
        let store_dir = dir.join("store");
        let store_dir = store_dir.to_str().unwrap().to_owned();
        run(&[
            "simulate", "fig2", "--edges", "90", "--seed", "5", "--out", &base, "--stream", "2",
        ])
        .unwrap();
        run(&["store", "fig2", "--dir", &store_dir, "--add", &base]).unwrap();

        // ≥2 workers: a standing subscriber pins one for its duration.
        let store = RunStore::open(&store_dir).unwrap();
        let config = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        let server = Server::bind(store, &config).unwrap();
        server.warm().unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let serving = std::thread::spawn(move || server.run(None));

        // An appender lands both batches while the watch stands.
        let batches: Vec<EventBatch> = (1..=2)
            .map(|k| load_events(&events_path(&base, k)).unwrap())
            .collect();
        let append_addr = addr.clone();
        let appender = std::thread::spawn(move || {
            let mut client =
                ServeClient::connect_with_retry(append_addr.as_str(), Duration::from_secs(5))
                    .unwrap();
            for batch in batches {
                std::thread::sleep(Duration::from_millis(300));
                client.append(RunAddr::Index(0), batch).unwrap();
            }
        });

        // `_*` over all pairs grows on every append (each new node is
        // reachable from itself), so the first delta is guaranteed.
        let out = run(&[
            "watch",
            "_*",
            "--addr",
            &addr,
            "--mode",
            "all-pairs",
            "--max-deltas",
            "1",
        ])
        .unwrap();
        assert!(out.contains("watch: 1 delta(s) received"), "{out}");
        appender.join().unwrap();

        let stats = run(&["request", "stats", "--addr", &addr]).unwrap();
        assert!(stats.contains("2 append(s)"), "{stats}");
        assert!(stats.contains("1 subscription(s)"), "{stats}");

        run(&["request", "shutdown", "--addr", &addr]).unwrap();
        serving.join().unwrap();
        assert!(run(&["watch", "_*"]).is_err()); // no --addr
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_run_and_spec_are_rejected() {
        let dir = std::env::temp_dir().join("rpq_cli_mismatch");
        std::fs::create_dir_all(&dir).unwrap();
        let run_path = dir.join("run.json");
        let run_path = run_path.to_str().unwrap();
        run(&["simulate", "bioaid", "--edges", "60", "--out", run_path]).unwrap();
        let err = run(&["query", "fig2", "_*", "--run", run_path]).unwrap_err();
        assert!(err.to_string().contains("does not match"), "{err}");
    }

    #[test]
    fn bad_inputs_are_reported() {
        assert!(run(&["query", "fig2", "((("]).is_err());
        assert!(
            run(&["query", "fig2", "_*", "--from", "zz:9", "--to", "b:1"])
                .unwrap_err()
                .to_string()
                .contains("no node named")
        );
        assert!(run(&["simulate", "fig2", "--edges", "NaN"]).is_err());
        assert!(run(&["simulate", "fig2", "--fork", "7"])
            .unwrap_err()
            .to_string()
            .contains("cycle"));
    }

    #[test]
    fn error_variants_round_trip_through_display() {
        // Parse errors surface as RpqError::Parse...
        let err = run(&["query", "fig2", "((("]).unwrap_err();
        assert!(matches!(err, RpqError::Parse(_)), "{err:?}");
        // ...I/O errors as RpqError::Io with context...
        let err = run(&["spec", "/definitely/not/here.json"]).unwrap_err();
        assert!(matches!(err, RpqError::Io { .. }), "{err:?}");
        // ...and usage problems as RpqError::Invalid.
        let err = run(&["stats"]).unwrap_err();
        assert!(matches!(err, RpqError::Invalid(_)), "{err:?}");
    }
}
