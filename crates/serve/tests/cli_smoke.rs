//! End-to-end smoke of the `rpq` binary's serve/request surface — the
//! CI-only loopback smoke job, promoted into the test suite so plain
//! `cargo test --workspace` covers it locally:
//!
//! 1. build a store with the CLI,
//! 2. serve it on an ephemeral port,
//! 3. run every request verb against the live server,
//! 4. SIGTERM the server and assert a clean exit-0 drain with the
//!    final report on stdout.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The workspace target directory (this file lives at
/// `crates/serve/tests/`, two levels below the root).
fn target_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("target")
}

/// Locate the built `rpq` binary. `cargo test --workspace` compiles
/// every workspace target (including the facade's bin) before running
/// any test, so the current profile's copy normally exists; running
/// this suite in isolation (`cargo test -p rpq-serve`) falls back to a
/// release build or, as a last resort, builds the binary.
fn rpq_binary() -> PathBuf {
    let target = target_dir();
    let candidates = [target.join("debug/rpq"), target.join("release/rpq")];
    // Prefer the freshest existing build.
    let newest = candidates
        .iter()
        .filter(|p| p.exists())
        .max_by_key(|p| p.metadata().and_then(|m| m.modified()).ok());
    if let Some(path) = newest {
        return path.clone();
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let status = Command::new(cargo)
        .args(["build", "--bin", "rpq"])
        .status()
        .expect("spawn cargo build --bin rpq");
    assert!(status.success(), "cannot build the rpq binary");
    target.join("debug/rpq")
}

fn run_ok(bin: &PathBuf, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin:?} {args:?}: {e}"));
    assert!(
        out.status.success(),
        "rpq {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Kill the child on drop so a failing assertion can't leak a server.
struct ChildGuard(Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Start `rpq serve fig2` on `store` at an ephemeral port; returns the
/// child, its stdout past the banner line, and the address it bound.
fn spawn_server(bin: &PathBuf, store: &str) -> (ChildGuard, BufReader<ChildStdout>, String) {
    let mut server = ChildGuard(
        Command::new(bin)
            .args([
                "serve",
                "fig2",
                "--store",
                store,
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn rpq serve"),
    );
    let stdout = server.0.stdout.take().expect("piped stdout");
    let mut server_out = BufReader::new(stdout);
    let mut line = String::new();
    server_out.read_line(&mut line).expect("read announce line");
    let addr = line
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .expect("address in banner")
        .to_owned();
    (server, server_out, addr)
}

/// The fingerprint an append receipt ends with.
fn receipt_fp(receipt: &str) -> String {
    let fp = receipt
        .trim_end()
        .rsplit("fp ")
        .next()
        .expect("fp in receipt");
    assert_eq!(fp.len(), 32, "{receipt}");
    fp.to_owned()
}

/// `request query`'s answer for the run with fingerprint `fp`, minus
/// the timing lines in front of it.
fn answer(bin: &PathBuf, addr: &str, fp: &str) -> String {
    let out = run_ok(
        bin,
        &[
            "request",
            "query",
            "_* a _*",
            "--addr",
            addr,
            "--fp",
            fp,
            "--mode",
            "all-pairs",
            "--limit",
            "100000",
        ],
    );
    let at = out.find("matches: ").unwrap_or_else(|| panic!("{out}"));
    out[at..].to_owned()
}

/// The live-provenance loop, end to end through the binary: a streamed
/// simulation, an offline CLI append (`rpq store --open`), a served
/// store, a standing `rpq watch` receiving a pushed delta from an
/// over-the-wire `rpq request append`, a SIGTERM drain with another
/// subscriber still active — and then what the appends left on disk:
/// a restarted server answers for the grown run as before, and after
/// a `kill -9` right behind one more append the run that append named
/// is there, with nothing for `--gc` to prune.
#[test]
fn streaming_append_watch_and_sigterm_drain() {
    let bin = rpq_binary();
    let dir = std::env::temp_dir()
        .join("rpq_cli_smoke_live")
        .join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create dir");
    let base = dir.join("run.json");
    let base = base.to_str().expect("utf-8 path");
    let store = dir.join("store");
    let store = store.to_str().expect("utf-8 path");

    // 1. Streamed simulation: base run + three replayable event batches.
    let out = run_ok(
        &bin,
        &[
            "simulate", "fig2", "--edges", "90", "--seed", "11", "--out", base, "--stream", "3",
        ],
    );
    assert!(out.contains("streamed: base"), "{out}");
    let events_1 = base.replace(".json", ".events-1.json");
    let events_2 = base.replace(".json", ".events-2.json");
    let events_3 = base.replace(".json", ".events-3.json");

    // 2. Ingest the base, then append batch 1 offline through the
    // live path (indexes maintained, epoch bumped on disk).
    run_ok(&bin, &["store", "fig2", "--dir", store, "--add", base]);
    let out = run_ok(
        &bin,
        &[
            "store", "fig2", "--dir", store, "--open", "r0", "--events", &events_1,
        ],
    );
    assert!(out.contains("appended"), "{out}");

    // 3. Serve the grown store.
    let (mut server, mut server_out, addr) = spawn_server(&bin, store);
    let a = addr.as_str();

    // 4. Stand a watch up (`_*` over all pairs grows on every append,
    // so one delta is guaranteed), confirmed by its first line.
    let mut watch = ChildGuard(
        Command::new(&bin)
            .args([
                "watch",
                "_*",
                "--addr",
                a,
                "--mode",
                "all-pairs",
                "--max-deltas",
                "1",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn rpq watch"),
    );
    let watch_stdout = watch.0.stdout.take().expect("piped stdout");
    let mut watch_out = BufReader::new(watch_stdout);
    let mut line = String::new();
    watch_out.read_line(&mut line).expect("read watch banner");
    assert!(line.contains("watching"), "unexpected watch banner: {line}");

    // 5. Append batch 2 over the wire; the watch receives the pushed
    // delta and exits cleanly.
    let out = run_ok(
        &bin,
        &[
            "request", "append", "--addr", a, "--events", &events_2, "--index", "0",
        ],
    );
    assert!(out.contains("appended"), "{out}");
    let grown_fp = receipt_fp(&out);
    let grown_answer = answer(&bin, a, &grown_fp);
    let deadline = Instant::now() + Duration::from_secs(30);
    let exit = loop {
        match watch.0.try_wait().expect("try_wait watch") {
            Some(status) => break status,
            None if Instant::now() > deadline => panic!("watch never saw the delta"),
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    assert!(exit.success(), "watch exited {exit:?}");
    let mut rest = String::new();
    watch_out.read_to_string(&mut rest).expect("drain watch");
    assert!(rest.contains("delta seq"), "no delta line: {rest}");
    assert!(rest.contains("1 delta(s) received"), "{rest}");

    // 6. SIGTERM the server while another subscriber is standing: the
    // drain must still complete with exit 0.
    let mut standing = ChildGuard(
        Command::new(&bin)
            .args(["watch", "_*", "--addr", a, "--mode", "all-pairs"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn standing watch"),
    );
    let standing_stdout = standing.0.stdout.take().expect("piped stdout");
    let mut standing_out = BufReader::new(standing_stdout);
    let mut line = String::new();
    standing_out
        .read_line(&mut line)
        .expect("read watch banner");
    assert!(line.contains("watching"), "unexpected watch banner: {line}");

    let pid = server.0.id().to_string();
    let status = Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("spawn kill -TERM");
    assert!(status.success(), "kill -TERM failed");
    let deadline = Instant::now() + Duration::from_secs(30);
    let exit = loop {
        match server.0.try_wait().expect("try_wait server") {
            Some(status) => break status,
            None if Instant::now() > deadline => {
                panic!("server ignored SIGTERM with a subscriber standing")
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    assert!(exit.success(), "server exited {exit:?} on SIGTERM");
    let mut rest = String::new();
    server_out.read_to_string(&mut rest).expect("drain server");
    assert!(rest.contains("shutdown: served"), "missing report: {rest}");

    // 7. The wire append wrote a log segment and a catalog row, no run
    // file and no index artifact. A new server on the same directory
    // resolves the grown fingerprint and answers as the old one did.
    let (mut server, _server_out, addr) = spawn_server(&bin, store);
    let a = addr.as_str();
    assert_eq!(answer(&bin, a, &grown_fp), grown_answer);

    // 8. One more append, and the server is killed outright the moment
    // the receipt is back: no drain, no fold. Whatever the receipt
    // named must be on disk already.
    let out = run_ok(
        &bin,
        &[
            "request", "append", "--addr", a, "--events", &events_3, "--fp", &grown_fp,
        ],
    );
    let final_fp = receipt_fp(&out);
    assert_ne!(final_fp, grown_fp);
    let status = Command::new("kill")
        .args(["-KILL", &server.0.id().to_string()])
        .status()
        .expect("spawn kill -KILL");
    assert!(status.success(), "kill -KILL failed");
    server.0.wait().expect("reap killed server");

    let (server, _server_out, addr) = spawn_server(&bin, store);
    assert!(answer(&bin, &addr, &final_fp).starts_with("matches: "));
    drop(server);
    let out = run_ok(&bin, &["store", "fig2", "--dir", store, "--gc"]);
    assert!(out.contains("gc: pruned 0 orphaned file(s)"), "{out}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_every_verb_and_sigterm_cleanly() {
    let bin = rpq_binary();
    let dir = std::env::temp_dir()
        .join("rpq_cli_smoke")
        .join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create store dir");
    let store = dir.join("store");
    let store = store.to_str().expect("utf-8 path");

    // 1. Build the store (artifacts materialized, warm on open).
    let out = run_ok(
        &bin,
        &[
            "store", "fig2", "--dir", store, "--ingest", "3", "--edges", "80", "--seed", "7",
        ],
    );
    assert!(out.contains("3 run(s)"), "{out}");

    // 2. Serve on an ephemeral port with the full observability plane
    // armed; scrape both announced addresses (query + metrics).
    let mut child = ChildGuard(
        Command::new(&bin)
            .args([
                "serve",
                "fig2",
                "--store",
                store,
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--slow-ms",
                "0",
                "--metrics-addr",
                "127.0.0.1:0",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn rpq serve"),
    );
    let stdout = child.0.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read announce line");
    assert!(line.contains("listening on"), "unexpected banner: {line}");
    let addr = line
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .expect("address in banner")
        .to_owned();
    let mut line = String::new();
    reader.read_line(&mut line).expect("read metrics banner");
    assert!(
        line.contains("metrics listening on"),
        "unexpected metrics banner: {line}"
    );
    let metrics_addr = line
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .expect("metrics address in banner")
        .to_owned();

    // 3. Every request verb against the live server.
    let a = addr.as_str();
    assert!(run_ok(&bin, &["request", "ping", "--addr", a]).contains("pong"));
    let out = run_ok(&bin, &["request", "runs", "--addr", a]);
    assert!(out.contains("3 stored run(s)"), "{out}");

    // Every evaluation mode of the protocol.
    let out = run_ok(&bin, &["request", "query", "_* e _*", "--addr", a]); // entry-exit
    assert!(out.contains("verdict:"), "{out}");
    let out = run_ok(
        &bin,
        &[
            "request", "query", "_*", "--addr", a, "--from", "0", "--to", "1",
        ],
    );
    assert!(out.contains("verdict:"), "{out}");
    let out = run_ok(
        &bin,
        &["request", "query", "_*", "--addr", a, "--from", "0"],
    );
    assert!(out.contains("matches:"), "{out}"); // source-star
    let out = run_ok(&bin, &["request", "query", "_*", "--addr", a, "--to", "0"]);
    assert!(out.contains("matches:"), "{out}"); // target-star
    let out = run_ok(
        &bin,
        &["request", "query", "_*", "--addr", a, "--mode", "all-pairs"],
    );
    assert!(out.contains("matches:"), "{out}");
    let out = run_ok(
        &bin,
        &[
            "request",
            "query",
            "_*",
            "--addr",
            a,
            "--mode",
            "reachable",
            "--from",
            "0",
        ],
    );
    assert!(out.contains("reachable:"), "{out}");

    let out = run_ok(&bin, &["request", "stats", "--addr", a]);
    assert!(out.contains("3 run(s) stored"), "{out}");
    assert!(out.contains("closures:"), "{out}");
    assert!(out.contains("retries:"), "{out}");

    // 3.5. Observability: the Metrics verb (structured + text), the
    // plaintext scrape endpoint, and monotone counters under load.
    let scrape = |metrics_addr: &str| -> String {
        let mut text = String::new();
        std::net::TcpStream::connect(metrics_addr)
            .expect("connect metrics listener")
            .read_to_string(&mut text)
            .expect("read exposition");
        text
    };
    let requests_total = |text: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix("rpq_requests_total "))
            .unwrap_or_else(|| panic!("no rpq_requests_total in scrape:\n{text}"))
            .trim()
            .parse()
            .expect("counter value")
    };
    let out = run_ok(&bin, &["request", "metrics", "--addr", a]);
    assert!(out.contains("rpq_requests_total"), "{out}");
    assert!(out.contains("rpq_request_micros"), "{out}");
    assert!(out.contains("slow "), "slow-ms 0 must log queries: {out}");
    let out = run_ok(&bin, &["request", "metrics", "--addr", a, "--text"]);
    assert!(out.contains("# TYPE rpq_requests_total counter"), "{out}");
    assert!(out.contains("rpq_request_micros_count"), "{out}");
    let before = requests_total(&scrape(&metrics_addr));
    assert!(before > 0, "verbs above must have been counted");
    for _ in 0..3 {
        run_ok(&bin, &["request", "query", "_* e _*", "--addr", a]);
    }
    let after = requests_total(&scrape(&metrics_addr));
    assert!(
        after >= before + 3,
        "counter must be monotone under load ({before} -> {after})"
    );

    // 4. SIGTERM → drain → exit 0 with the final report. std::process
    // has no signal API and the workspace pulls no libc, so use the
    // platform's `kill` utility (this test is unix-gated anyway).
    let pid = child.0.id().to_string();
    let status = Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("spawn kill -TERM");
    assert!(status.success(), "kill -TERM failed");

    let deadline = Instant::now() + Duration::from_secs(30);
    let exit = loop {
        match child.0.try_wait().expect("try_wait") {
            Some(status) => break status,
            None if Instant::now() > deadline => panic!("server ignored SIGTERM for 30s"),
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    assert!(exit.success(), "server exited {exit:?} on SIGTERM");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("drain stdout");
    assert!(rest.contains("shutdown: served"), "missing report: {rest}");
    assert!(
        rest.contains("latency p50") && rest.contains("p99"),
        "report must carry final latency quantiles: {rest}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
