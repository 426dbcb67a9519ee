//! Run hygiene: environment scrubbing, peak memory, the host header
//! stamped on every result, and the per-process scratch directory.

use crate::json::Json;
use std::path::{Path, PathBuf};

/// Remove every `RPQ_*` variable: the benchmark measures what the
/// program's `auto` settings do, never a forced kernel/strategy/policy.
/// Call first thing in `main`, before any thread exists. Returns the
/// names removed so the run can say what it ignored.
pub fn scrub_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("RPQ_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

/// CPUs the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Server/router worker threads: half the CPUs (the single closed-loop
/// client and the generator own the other half), at least one.
pub fn workers() -> usize {
    (nproc() / 2).max(1)
}

/// The benchmark's own directory (where `Cargo.toml` sits).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `out/` under the benchmark directory: result files and traces.
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// A per-process scratch directory under `out/`, removed on drop —
/// stores of concurrent benchmark processes never collide and nothing
/// is left behind.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create() -> std::io::Result<Scratch> {
        let dir = out_dir().join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

fn command_line(program: &str, args: &[&str], cwd: &Path) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .current_dir(cwd)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
}

/// What the numbers were taken on: stamped into every result.
pub fn header(seed: u64) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let dir = bench_dir();
    let unknown = || "unknown".to_owned();
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu", Json::str(cpu)),
        (
            "git_sha",
            Json::str(command_line("git", &["rev-parse", "HEAD"], &dir).unwrap_or_else(unknown)),
        ),
        (
            "rustc",
            Json::str(command_line("rustc", &["--version"], &dir).unwrap_or_else(unknown)),
        ),
        ("clients", Json::Num(1.0)),
        ("workers", Json::Num(workers() as f64)),
        ("seed", Json::Num(seed as f64)),
        ("debug_build", Json::Bool(cfg!(debug_assertions))),
    ])
}
