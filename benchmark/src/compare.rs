//! `bench compare A.json B.json`: per workload and end-to-end metric,
//! both medians, the delta, the bound and a verdict.
//!
//! A file is one result of `bench run` or the sets of `bench repeat`.
//! Verdicts follow the choosing-metrics guide (§6–8): `worse` when B's
//! median is worse than A's by more than the metric's bound;
//! `unresolved` — not `same` — when the run-to-run spread (distance
//! between the quartiles, as a share of the median) of either side is
//! wider than the bound, unless every run of one side beats every run
//! of the other; `better` when B's median gains more than A's own
//! spread; `same` otherwise. A gain claim still needs the paired
//! alternating runs of §8 — this tool gates regressions and tells
//! whether two sets of runs of one commit agree.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, WORKLOADS};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse B's median is than A's, as a share of A's median
/// (negative = B is better), and the verdict.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (ma - mb) / ma.abs().max(f64::MIN_POSITIVE),
    };
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let several = a.len() >= 2 && b.len() >= 2;
    let b_dominates = several && b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
    let a_dominates = several && a.iter().all(|&x| b.iter().all(|&y| beats(x, y)));
    let spread = stats::spread(a)
        .unwrap_or(0.0)
        .max(stats::spread(b).unwrap_or(0.0));
    let verdict = if spread > bound {
        if b_dominates {
            Verdict::Better
        } else if a_dominates && worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > stats::spread(a).unwrap_or(bound) {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (worse_by, verdict)
}

/// The results in a file: the `sets` of a `bench repeat` file, or the
/// single result of a `bench run` file.
pub fn sets_of(doc: &Json) -> Vec<&Json> {
    match doc.get("sets").and_then(Json::as_arr) {
        Some(sets) => sets.iter().collect(),
        None => vec![doc],
    }
}

fn values(sets: &[&Json], workload: &str, section: &str, metric: &str) -> Vec<f64> {
    sets.iter()
        .filter_map(|set| {
            set.get("workloads")?
                .get(workload)?
                .get(section)?
                .get(metric)?
                .as_f64()
        })
        .collect()
}

fn digests(sets: &[&Json], workload: &str) -> Vec<String> {
    sets.iter()
        .filter_map(|set| {
            Some(
                set.get("workloads")?
                    .get(workload)?
                    .get("inputs_digest")?
                    .as_str()?
                    .to_owned(),
            )
        })
        .collect()
}

/// Print the comparison; returns whether no metric came out `worse` or
/// `unresolved`.
pub fn compare(a: &Json, b: &Json) -> bool {
    let (a, b) = (sets_of(a), sets_of(b));
    println!("A: {} run(s)   B: {} run(s)", a.len(), b.len());
    println!(
        "{:<13} {:<12} {:>14} {:>14} {:>8} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "delta", "bound", "iqr A", "iqr B"
    );
    let mut agree = true;
    for (workload, _) in WORKLOADS {
        for e in &END_TO_END {
            let (va, vb) = (
                values(&a, workload, "end_to_end", e.name),
                values(&b, workload, "end_to_end", e.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (_, verdict) = judge(&va, &vb, e.better, e.bound);
            // Positive delta = B reads higher, whatever the direction.
            let delta = (stats::median(&vb) - stats::median(&va))
                / stats::median(&va).abs().max(f64::MIN_POSITIVE);
            let pct = |s: Option<f64>| s.map_or("-".to_owned(), |s| format!("{:.1}%", s * 100.0));
            println!(
                "{:<13} {:<12} {:>14.3} {:>14.3} {:>+7.1}% {:>7.0}% {:>7} {:>7}  {}",
                workload,
                e.name,
                stats::median(&va),
                stats::median(&vb),
                delta * 100.0,
                e.bound * 100.0,
                pct(stats::spread(&va)),
                pct(stats::spread(&vb)),
                verdict.name()
            );
            agree &= matches!(verdict, Verdict::Better | Verdict::Same);
        }
        let (da, db) = (digests(&a, workload), digests(&b, workload));
        if !da.is_empty() && da != db {
            println!("{workload:<13} inputs differ between A and B: the rows above compare different inputs");
            agree = false;
        }
    }
    agree
}

/// Print each metric's min / median / max over the sets of a repeat.
pub fn summarize(sets: &[&Json]) {
    println!(
        "{:<13} {:<12} {:>14} {:>14} {:>14} {:>8}",
        "workload", "metric", "min", "median", "max", "iqr"
    );
    for (workload, _) in WORKLOADS {
        for e in &END_TO_END {
            let v = values(sets, workload, "end_to_end", e.name);
            if v.is_empty() {
                continue;
            }
            let s = stats::sorted(v.clone());
            println!(
                "{:<13} {:<12} {:>14.3} {:>14.3} {:>14.3} {:>8}",
                workload,
                e.name,
                s[0],
                stats::median(&v),
                s[s.len() - 1],
                stats::spread(&v).map_or("-".to_owned(), |x| format!("{:.1}%", x * 100.0)),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within the bound, no gain beyond A's spread: same.
        assert_eq!(
            judge(
                &steady,
                &[100.2, 99.9, 100.4, 100.0, 99.7],
                Better::Lower,
                0.10
            )
            .1,
            Verdict::Same
        );
        // Lower-is-better metric up by 20 %: worse.
        let (by, v) = judge(
            &steady,
            &[120.0, 121.0, 119.0, 120.5, 119.5],
            Better::Lower,
            0.10,
        );
        assert!((by - 0.20).abs() < 1e-9);
        assert_eq!(v, Verdict::Worse);
        // Higher-is-better metric up by 20 %: better.
        assert_eq!(
            judge(
                &steady,
                &[120.0, 121.0, 119.0, 120.5, 119.5],
                Better::Higher,
                0.10
            )
            .1,
            Verdict::Better
        );
        // Spread wider than the bound and overlapping runs: unresolved.
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(
            judge(
                &noisy,
                &[95.0, 130.0, 75.0, 118.0, 90.0],
                Better::Lower,
                0.10
            )
            .1,
            Verdict::Unresolved
        );
        // … unless every run of B beats every run of A.
        assert_eq!(
            judge(&noisy, &[50.0, 60.0, 40.0, 65.0, 55.0], Better::Lower, 0.10).1,
            Verdict::Better
        );
        assert_eq!(
            judge(
                &noisy,
                &[250.0, 260.0, 240.0, 265.0, 255.0],
                Better::Lower,
                0.10
            )
            .1,
            Verdict::Worse
        );
        // Single runs: only the bound speaks.
        assert_eq!(
            judge(&[100.0], &[105.0], Better::Lower, 0.10).1,
            Verdict::Same
        );
        assert_eq!(
            judge(&[100.0], &[111.0], Better::Lower, 0.10).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(&[100.0], &[80.0], Better::Lower, 0.10).1,
            Verdict::Better
        );
    }

    #[test]
    fn reads_single_results_and_repeat_files() {
        let result = |v: f64| {
            Json::obj([(
                "workloads",
                Json::obj([(
                    "decode",
                    Json::obj([
                        ("inputs_digest", Json::str("abc")),
                        ("end_to_end", Json::obj([("ops_per_s", Json::Num(v))])),
                    ]),
                )]),
            )])
        };
        let single = result(10.0);
        let repeat = Json::obj([(
            "sets",
            Json::Arr(vec![result(10.0), result(11.0), result(12.0)]),
        )]);
        assert_eq!(
            values(&sets_of(&single), "decode", "end_to_end", "ops_per_s"),
            vec![10.0]
        );
        assert_eq!(
            values(&sets_of(&repeat), "decode", "end_to_end", "ops_per_s"),
            vec![10.0, 11.0, 12.0]
        );
        assert_eq!(digests(&sets_of(&repeat), "decode"), vec!["abc"; 3]);
        assert!(values(&sets_of(&single), "compile", "end_to_end", "ops_per_s").is_empty());
    }
}
