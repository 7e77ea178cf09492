//! `compare <parent-dir> <change-dir>`: judges a change against its
//! parent from per-run results.
//!
//! Each directory holds one file per run, named `<workload>.<anything>.json`,
//! whose last non-empty line is the benchmark's JSON result (a saved
//! stdout works as is). Runs are paired in file-name order. For every
//! workload × end-to-end metric of `BENCHMARK.json` the verdict is:
//!
//! * **improved** — over at least [`MIN_PAIRS`] pairs, the change wins
//!   at least 9 of every 10 (ties count for neither side) and the
//!   medians differ by more than the parent's interquartile range;
//! * **unresolved** — either side's spread (IQR / median) is wider than
//!   the metric's bound, unless every change run beats every parent run;
//! * **regressed** — the change's median is worse than the parent's by
//!   more than the bound;
//! * **within bound** — otherwise.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use astriflash_analyze::Value;

use crate::summary::{median, quartiles, relative_iqr};

/// Pairs a gain needs: on a shared host, a handful of pairs of the same
/// code can all fall one way.
pub const MIN_PAIRS: usize = 10;

/// Which direction of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (rates).
    Higher,
}

impl Better {
    /// Whether `a` is strictly better than `b`.
    fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// An end-to-end metric as declared in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Better direction.
    pub better: Better,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// The verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better beyond noise.
    Improved,
    /// Not worse than the bound allows.
    WithinBound,
    /// Worse than the bound allows.
    Regressed,
    /// Too noisy to judge against the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The comparison of one workload × metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Parent quartiles (q1, median, q3).
    pub parent: [f64; 3],
    /// Change quartiles (q1, median, q3).
    pub change: [f64; 3],
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares the runs of one metric.
///
/// # Panics
///
/// Panics when either side has no runs.
pub fn compare(parent: &[f64], change: &[f64], metric: &Declared) -> Comparison {
    let better = metric.better;
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better.beats(c, p))
        .count();
    let (pq, cq) = (quartiles(parent), quartiles(change));
    let (pm, cm) = (median(parent), median(change));
    let gap = match better {
        Better::Lower => pm - cm,
        Better::Higher => cm - pm,
    };
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| better.beats(c, p)));
    let too_noisy = relative_iqr(parent).max(relative_iqr(change)) > metric.bound;
    let verdict = if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && gap > pq[2] - pq[0] {
        Verdict::Improved
    } else if too_noisy && !all_better {
        Verdict::Unresolved
    } else if -gap > metric.bound * pm.abs() {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    };
    Comparison {
        parent: [pq[0], pm, pq[2]],
        change: [cq[0], cm, cq[2]],
        wins,
        pairs,
        verdict,
    }
}

/// Reads the `end_to_end` section of `BENCHMARK.json`.
pub fn declared_end_to_end(spec: &str) -> Result<Vec<Declared>, String> {
    let doc = astriflash_analyze::parse(spec).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let entries = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let field = |k: &str| e.get(k).ok_or(format!("end_to_end entry without `{k}`"));
            let name = field("name")?.as_str().ok_or("name is not a string")?;
            let better = match field("better")?.as_str() {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(format!("{name}: better must be \"lower\" or \"higher\"")),
            };
            let bound = field("bound")?
                .as_num()
                .and_then(|n| n.parse::<f64>().ok())
                .ok_or(format!("{name}: bound is not a number"))?;
            Ok(Declared {
                name: name.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

/// Metric name → value of one run's result line (the last non-empty
/// line of `text`).
pub fn parse_run(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty result")?;
    let doc = astriflash_analyze::parse(line)?;
    match doc.get("metrics") {
        Some(Value::Obj(members)) => members
            .iter()
            .map(|(name, m)| {
                m.get("value")
                    .and_then(Value::as_num)
                    .and_then(|n| n.parse::<f64>().ok())
                    .map(|v| (name.clone(), v))
                    .ok_or(format!("metric {name} has no numeric value"))
            })
            .collect(),
        _ => Err("result has no metrics object".into()),
    }
}

/// Workload → runs (in file-name order) of one directory.
pub type Runs = BTreeMap<String, Vec<BTreeMap<String, f64>>>;

/// Loads every `<workload>.*.json` run of `dir`.
pub fn load_runs(dir: &Path) -> Result<Runs, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut runs = Runs::new();
    for path in files {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        let workload = name.split('.').next().unwrap_or_default().to_string();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let run = parse_run(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        runs.entry(workload).or_default().push(run);
    }
    Ok(runs)
}

/// Renders the comparison table; the flag is true when any metric
/// regressed.
pub fn render(declared: &[Declared], parent: &Runs, change: &Runs) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<20} {:<19} {:>36} {:>36} {:>7}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for (workload, parent_runs) in parent {
        let Some(change_runs) = change.get(workload) else {
            let _ = writeln!(out, "{workload:<20} (no change runs)");
            continue;
        };
        for metric in declared {
            let values = |runs: &[BTreeMap<String, f64>]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.get(&metric.name).copied())
                    .collect()
            };
            let (p, c) = (values(parent_runs), values(change_runs));
            if p.is_empty() || c.is_empty() {
                let _ = writeln!(out, "{workload:<20} {:<19} (not measured)", metric.name);
                continue;
            }
            let cmp = compare(&p, &c, metric);
            regressed |= cmp.verdict == Verdict::Regressed;
            let q = |x: [f64; 3]| format!("{:.6} [{:.6}, {:.6}]", x[1], x[0], x[2]);
            let _ = writeln!(
                out,
                "{workload:<20} {:<19} {:>36} {:>36} {:>7}  {} (bound {:.0}%)",
                metric.name,
                q(cmp.parent),
                q(cmp.change),
                format!("{}/{}", cmp.wins, cmp.pairs),
                cmp.verdict.label(),
                100.0 * metric.bound
            );
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Declared {
        Declared {
            name: "wall_s".into(),
            better: Better::Lower,
            bound,
        }
    }

    /// Ten runs around `center` with a ±1 % spread.
    fn runs(center: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + 0.002 * (i as f64 - 4.5)))
            .collect()
    }

    #[test]
    fn a_clear_gain_is_improved() {
        let c = compare(&runs(10.0), &runs(9.0), &lower(0.1));
        assert_eq!(c.verdict, Verdict::Improved);
        assert_eq!((c.wins, c.pairs), (10, 10));
    }

    #[test]
    fn fewer_than_ten_pairs_never_claim_a_gain() {
        let c = compare(&runs(10.0)[..5], &runs(9.0)[..5], &lower(0.1));
        assert_eq!((c.wins, c.pairs), (5, 5));
        assert_eq!(c.verdict, Verdict::WithinBound);
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let rate = Declared {
            better: Better::Higher,
            ..lower(0.1)
        };
        assert_eq!(
            compare(&runs(9.0), &runs(10.0), &rate).verdict,
            Verdict::Improved
        );
        assert_eq!(
            compare(&runs(10.0), &runs(8.0), &rate).verdict,
            Verdict::Regressed
        );
    }

    #[test]
    fn identical_runs_are_within_bound_with_no_wins() {
        let c = compare(&runs(10.0), &runs(10.0), &lower(0.1));
        assert_eq!(c.verdict, Verdict::WithinBound);
        // Every pair ties, and ties count for neither side.
        assert_eq!(c.wins, 0);
    }

    #[test]
    fn a_small_loss_is_within_bound_and_a_large_one_regressed() {
        assert_eq!(
            compare(&runs(10.0), &runs(10.5), &lower(0.1)).verdict,
            Verdict::WithinBound
        );
        assert_eq!(
            compare(&runs(10.0), &runs(11.5), &lower(0.1)).verdict,
            Verdict::Regressed
        );
    }

    #[test]
    fn a_gain_inside_the_parent_spread_is_not_improved() {
        let parent = [8.0, 9.0, 10.0, 11.0, 12.0, 8.0, 9.0, 10.0, 11.0, 12.0];
        let change: Vec<f64> = parent.iter().map(|p| p - 0.5).collect();
        let c = compare(&parent, &change, &lower(0.5));
        assert_eq!(c.wins, 10);
        assert_ne!(c.verdict, Verdict::Improved);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let parent = [8.0, 12.0, 8.0, 12.0, 8.0, 12.0, 8.0, 12.0, 8.0, 12.0];
        let change = [12.0, 8.0, 12.0, 8.0, 12.0, 8.0, 12.0, 8.0, 12.0, 8.5];
        assert_eq!(
            compare(&parent, &change, &lower(0.1)).verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn spec_and_runs_parse() {
        let spec = r#"{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
                       {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.07}]}"#;
        let declared = declared_end_to_end(spec).expect("valid spec");
        assert_eq!(declared[0], lower(0.1));
        assert_eq!(declared[1].better, Better::Higher);
        assert!(declared_end_to_end("{}").is_err());

        let stdout = "  wall_s 1.0 s\n{\"correct\": true, \"attempted\": 4, \"failed\": 0, \
                      \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}\n\n";
        let run = parse_run(stdout).expect("valid run");
        assert_eq!(run.get("wall_s"), Some(&1.5));
        assert!(parse_run("").is_err());
    }

    #[test]
    fn table_names_every_workload_and_flags_regressions() {
        let run = |v: f64| BTreeMap::from([("wall_s".to_string(), v)]);
        let parent = Runs::from([(
            "tatp_steady".to_string(),
            (0..10).map(|_| run(1.0)).collect(),
        )]);
        let change = Runs::from([(
            "tatp_steady".to_string(),
            (0..10).map(|_| run(1.5)).collect(),
        )]);
        let (text, regressed) = render(&[lower(0.1)], &parent, &change);
        assert!(regressed);
        assert!(
            text.contains("tatp_steady") && text.contains("regressed"),
            "{text}"
        );
        let (_, regressed) = render(&[lower(0.1)], &parent, &parent);
        assert!(!regressed);
    }
}
