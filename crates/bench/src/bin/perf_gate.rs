//! CI perf gate (DESIGN.md §12).
//!
//! ```text
//! cargo run --release -p astriflash-bench --bin perf_gate -- <results-dir>
//! ```
//!
//! `<results-dir>` holds results of the `benchmark/` package, one file
//! per run named `<workload>.<anything>.json` (as its `compare` reads
//! them), whose last non-empty line is the run's JSON result; a saved
//! stdout works as is. The gate checks them against
//! `results/perf_baseline.json` (relative to the working directory, so
//! run it from the repository root):
//!
//! * every result reports `correct: true` and `failed: 0`;
//! * every `floors.<workload>.<metric>` is reached, and every
//!   `ceilings.<workload>.<metric>` is not exceeded, by each result of
//!   that workload that reports the metric — and at least one must.
//!
//! Exits 0 when every check holds, 1 on any violation, and 2 on
//! malformed input: an unreadable or unparsable file, a pinned metric
//! that no result reports, or a non-finite value. The gate never passes
//! by a parse failure.

use std::path::Path;
use std::process::ExitCode;

use astriflash_analyze::{parse, Value};

const BASELINE: &str = "results/perf_baseline.json";

/// One benchmark result.
struct Run {
    /// File name; its prefix up to the first `.` is the workload.
    name: String,
    correct: bool,
    failed: f64,
    metrics: Vec<(String, f64)>,
}

impl Run {
    fn workload(&self) -> &str {
        self.name.split('.').next().unwrap_or_default()
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }
}

/// A pinned floor (`floor: true`) or ceiling on one workload's metric.
struct Bound {
    workload: String,
    metric: String,
    limit: f64,
    floor: bool,
}

fn number(v: Option<&Value>, what: &str) -> Result<f64, String> {
    let x: f64 = v
        .and_then(Value::as_num)
        .and_then(|n| n.parse().ok())
        .ok_or(format!("{what} is not a number"))?;
    if x.is_finite() {
        Ok(x)
    } else {
        Err(format!("{what} is not finite"))
    }
}

fn parse_run(name: &str, text: &str) -> Result<Run, String> {
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or(format!("{name}: empty result"))?;
    let doc = parse(line).map_err(|e| format!("{name}: {e}"))?;
    let Some(&Value::Bool(correct)) = doc.get("correct") else {
        return Err(format!("{name}: no boolean `correct`"));
    };
    let failed = number(doc.get("failed"), &format!("{name}: failed"))?;
    let Some(Value::Obj(members)) = doc.get("metrics") else {
        return Err(format!("{name}: no `metrics` object"));
    };
    let metrics = members
        .iter()
        .map(|(k, m)| Ok((k.clone(), number(m.get("value"), &format!("{name}: {k}"))?)))
        .collect::<Result<_, String>>()?;
    Ok(Run {
        name: name.to_string(),
        correct,
        failed,
        metrics,
    })
}

fn parse_bounds(baseline: &str) -> Result<Vec<Bound>, String> {
    let doc = parse(baseline).map_err(|e| format!("{BASELINE}: {e}"))?;
    let mut bounds = Vec::new();
    for (section, floor) in [("floors", true), ("ceilings", false)] {
        let Some(Value::Obj(workloads)) = doc.get(section) else {
            return Err(format!("{BASELINE}: no `{section}` object"));
        };
        for (workload, metrics) in workloads {
            let Value::Obj(metrics) = metrics else {
                return Err(format!("{BASELINE}: {section}.{workload} is not an object"));
            };
            for (metric, v) in metrics {
                bounds.push(Bound {
                    workload: workload.clone(),
                    metric: metric.clone(),
                    limit: number(
                        Some(v),
                        &format!("{BASELINE}: {section}.{workload}.{metric}"),
                    )?,
                    floor,
                });
            }
        }
    }
    Ok(bounds)
}

/// Every check as (held, line), or the first malformed input.
fn gate(runs: &[Run], bounds: &[Bound]) -> Result<Vec<(bool, String)>, String> {
    let mut checks: Vec<(bool, String)> = runs
        .iter()
        .map(|r| {
            let ok = r.correct && r.failed == 0.0;
            (
                ok,
                format!("{}: correct {}, failed {}", r.name, r.correct, r.failed),
            )
        })
        .collect();
    for b in bounds {
        let before = checks.len();
        for r in runs.iter().filter(|r| r.workload() == b.workload) {
            if let Some(v) = r.metric(&b.metric) {
                let (ok, rel) = if b.floor {
                    (v >= b.limit, "floor")
                } else {
                    (v <= b.limit, "ceiling")
                };
                let line = format!("{}: {} {v:.1} ({rel} {:.1})", r.name, b.metric, b.limit);
                checks.push((ok, line));
            }
        }
        if checks.len() == before {
            return Err(format!("no {} result reports {}", b.workload, b.metric));
        }
    }
    Ok(checks)
}

fn load_runs(dir: &Path) -> Result<Vec<Run>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    files
        .iter()
        .map(|path| {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            parse_run(name, &text)
        })
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [dir] = args.as_slice() else {
        eprintln!("usage: perf_gate <results-dir>");
        return ExitCode::from(2);
    };
    let checks = std::fs::read_to_string(BASELINE)
        .map_err(|e| format!("{BASELINE}: {e}"))
        .and_then(|baseline| parse_bounds(&baseline))
        .and_then(|bounds| gate(&load_runs(Path::new(dir))?, &bounds));
    let checks = match checks {
        Ok(checks) => checks,
        Err(e) => {
            eprintln!("perf_gate: malformed input: {e}");
            return ExitCode::from(2);
        }
    };
    let failed = checks.iter().filter(|(ok, _)| !ok).count();
    for (ok, line) in &checks {
        println!("{} {line}", if *ok { "ok  " } else { "FAIL" });
    }
    if failed == 0 {
        println!("perf_gate: PASS ({} checks)", checks.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("perf_gate: FAIL ({failed} of {} checks)", checks.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE_FIXTURE: &str = r#"{
        "floors": {"tatp_steady": {"sim_accesses_per_s": 3000000}},
        "ceilings": {"hashtable_flash": {"prof.overhead_pct": 150}}
    }"#;

    fn result(failed: u32, metric: &str, value: &str) -> String {
        format!(
            "  some metric lines\n{{\"correct\": {}, \"attempted\": 16, \"failed\": {failed}, \
             \"metrics\": {{\"{metric}\": {{\"value\": {value}, \"unit\": \"x\"}}}}}}\n",
            failed == 0
        )
    }

    fn check(files: &[(&str, String)]) -> Result<Vec<(bool, String)>, String> {
        let runs = files
            .iter()
            .map(|(name, text)| parse_run(name, text))
            .collect::<Result<Vec<_>, _>>()?;
        gate(&runs, &parse_bounds(BASELINE_FIXTURE)?)
    }

    fn violations(files: &[(&str, String)]) -> usize {
        check(files)
            .expect("well-formed")
            .iter()
            .filter(|(ok, _)| !ok)
            .count()
    }

    fn passing() -> Vec<(&'static str, String)> {
        vec![
            (
                "tatp_steady.s1.json",
                result(0, "sim_accesses_per_s", "5254367.07"),
            ),
            (
                "hashtable_flash.trace.json",
                result(0, "prof.overhead_pct", "81.3"),
            ),
        ]
    }

    #[test]
    fn pass_when_every_bound_holds() {
        let checks = check(&passing()).expect("well-formed");
        assert_eq!(checks.len(), 4, "two results and two bounds: {checks:?}");
        assert!(checks.iter().all(|(ok, _)| *ok), "{checks:?}");
    }

    #[test]
    fn floor_violation_fails() {
        let mut files = passing();
        files[0].1 = result(0, "sim_accesses_per_s", "2999999.9");
        assert_eq!(violations(&files), 1);
    }

    #[test]
    fn ceiling_violation_fails() {
        let mut files = passing();
        files[1].1 = result(0, "prof.overhead_pct", "150.1");
        assert_eq!(violations(&files), 1);
    }

    #[test]
    fn failed_simulated_run_fails() {
        let mut files = passing();
        files.push((
            "hashtable_dram.s1.json",
            result(2, "sim_accesses_per_s", "1.5e7"),
        ));
        assert_eq!(violations(&files), 1);
    }

    #[test]
    fn every_result_of_a_workload_is_checked() {
        let mut files = passing();
        files.push((
            "tatp_steady.s2.json",
            result(0, "sim_accesses_per_s", "1e6"),
        ));
        assert_eq!(violations(&files), 1);
    }

    #[test]
    fn pinned_workload_without_a_result_is_an_error() {
        let files = passing().split_off(1);
        let err = check(&files).expect_err("tatp_steady has no result");
        assert!(err.contains("tatp_steady"), "{err}");
        // A result of the workload that lacks the pinned metric counts
        // as missing too (a `--trace 1` run reports no rate).
        let mut files = passing();
        files[0].1 = result(0, "prof.overhead_pct", "12");
        assert!(check(&files).is_err());
    }

    #[test]
    fn malformed_inputs_are_errors() {
        for bad in [
            String::new(),
            "not json\n".to_string(),
            r#"{"correct": true, "failed": 0}"#.to_string(),
            r#"{"failed": 0, "metrics": {}}"#.to_string(),
            result(0, "sim_accesses_per_s", "\"fast\""),
        ] {
            let mut files = passing();
            files[0].1 = bad.clone();
            assert!(check(&files).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn non_finite_values_are_errors() {
        let mut files = passing();
        files[0].1 = result(0, "sim_accesses_per_s", "1e999");
        assert!(check(&files).is_err());
        let baseline = BASELINE_FIXTURE.replace("150", "-1e999");
        assert!(parse_bounds(&baseline).is_err());
    }
}
