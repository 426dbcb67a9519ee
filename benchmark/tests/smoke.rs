//! `bench run --smoke`: all six workloads plus their traced runs at toy
//! sizes, through the real binary, so the harness cannot rot.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::process::Command;

const WORKLOADS: [&str; 6] = [
    "decode",
    "composite",
    "compile",
    "serve_direct",
    "serve_routed",
    "live_append",
];

#[test]
fn smoke_run_covers_every_workload_and_its_trace() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-result.json");
    let run = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["run", "--smoke", "--seed", "3", "--out"])
        .arg(&out)
        // Scrubbed by the runner: a forced strategy must not leak in.
        .env("RPQ_EVAL_STRATEGY", "lazy")
        .output()
        .expect("bench starts");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "bench run --smoke failed:\n{stderr}");
    assert!(stderr.contains("ignoring RPQ_EVAL_STRATEGY"), "{stderr}");

    let doc =
        Json::parse(&std::fs::read_to_string(&out).expect("result file")).expect("result parses");
    assert_eq!(doc.get("smoke"), Some(&Json::Bool(true)));
    assert!(doc.get("host").and_then(|h| h.get("nproc")).is_some());
    for workload in WORKLOADS {
        let entry = doc
            .get("workloads")
            .and_then(|w| w.get(workload))
            .unwrap_or_else(|| panic!("{workload} missing"));
        assert_eq!(entry.get("correct"), Some(&Json::Bool(true)), "{workload}");
        assert_eq!(
            entry.get("traced_correct"),
            Some(&Json::Bool(true)),
            "{workload}"
        );
        assert_eq!(
            entry.get("failed").and_then(Json::as_f64),
            Some(0.0),
            "{workload}"
        );
        assert_eq!(
            entry
                .get("inputs_digest")
                .and_then(Json::as_str)
                .map(str::len),
            Some(32),
            "{workload}"
        );
        let end_to_end = entry
            .get("end_to_end")
            .and_then(Json::as_obj)
            .expect("end-to-end metrics");
        assert_eq!(end_to_end.len(), 5, "{workload}");
        for (name, value) in end_to_end {
            assert!(
                value.as_f64().is_some_and(|v| v > 0.0),
                "{workload}.{name} = {value:?}"
            );
        }
        let per_layer = entry
            .get("per_layer")
            .and_then(Json::as_obj)
            .expect("per-layer metrics");
        assert!(per_layer
            .iter()
            .any(|(name, _)| name == "obs.trace_overhead_pct"));
        assert!(
            per_layer.iter().all(|(_, v)| v.as_f64().is_some()),
            "{workload}"
        );
        let trace = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/trace-{workload}.jsonl"));
        let spans =
            std::fs::read_to_string(&trace).unwrap_or_else(|e| panic!("{}: {e}", trace.display()));
        assert!(spans.lines().count() >= 2, "{workload}");
        let first = Json::parse(spans.lines().next().unwrap()).expect("span parses");
        assert_eq!(first.get("name").and_then(Json::as_str), Some("op"));
    }

    // The same result compared with itself agrees on everything.
    let compare = Command::new(env!("CARGO_BIN_EXE_bench"))
        .arg("compare")
        .args([&out, &out])
        .output()
        .expect("bench starts");
    assert!(
        compare.status.success(),
        "{}",
        String::from_utf8_lossy(&compare.stdout)
    );
    assert!(String::from_utf8_lossy(&compare.stdout).contains("same"));
}

#[test]
fn a_full_size_run_refuses_a_debug_build() {
    if !cfg!(debug_assertions) {
        return;
    }
    let run = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args([
            "run",
            "--workload",
            "compile",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("bench starts");
    assert!(!run.status.success());
    assert!(String::from_utf8_lossy(&run.stderr).contains("debug build"));
    assert!(
        run.stdout.is_empty(),
        "no result line without a measurement"
    );
}
