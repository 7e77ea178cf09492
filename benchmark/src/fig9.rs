//! `fig9_sweep`: the 49 cells of Fig. 9 (7 workloads × 7
//! configurations) on a two-thread `Sweep::map`, with `Cell::prepare`
//! and `PreparedRun::run` timed per cell. A change to sweep scheduling
//! shows here only through those three calls.

use std::time::Instant;

use astriflash_core::config::Configuration;
use astriflash_core::experiments::fig9::{self, Fig9Cell};
use astriflash_core::sweep::{Cell, Sweep};
use astriflash_prof::Report as ProfReport;
use astriflash_stats::CsvDoc;
use astriflash_workloads::WorkloadKind;

use crate::calibrate::Calibration;
use crate::check::{self, Checker};
use crate::layers::{report_metric, Layers};
use crate::report::Outcome;
use crate::workloads::{
    base_config, expected_jobs, push_peak_rss, time_build, timed, Opts, Timed, Timings, THREADS,
};

/// Jobs per core of the committed figure (`fig9` at full scale).
const JOBS_PER_CORE: u64 = 400;
const SMOKE_JOBS_PER_CORE: u64 = 20;

/// The paper's geomean throughputs normalized to DRAM-only (§VI-A).
pub const PAPER_ANCHORS: [(Configuration, f64); 4] = [
    (Configuration::AstriFlash, 0.95),
    (Configuration::AstriFlashIdeal, 0.96),
    (Configuration::OsSwap, 0.58),
    (Configuration::FlashSync, 0.27),
];

/// The committed figure, which the sweep reproduces at seed 1.
pub const COMMITTED_CSV: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../results/csv/fig9.csv");

/// The cells `fig9::run_matrix_with` builds, in the same order: per
/// workload, its DRAM-only baseline, then every other configuration.
pub fn cells(opts: &Opts) -> Vec<Cell> {
    let mut base = base_config(opts.smoke);
    let jobs = if opts.smoke {
        base.max_sim_time_ms = 10_000;
        SMOKE_JOBS_PER_CORE
    } else {
        JOBS_PER_CORE
    };
    let mut cells = Vec::new();
    for wl in WorkloadKind::all() {
        let cfg = base.clone().with_workload(wl);
        cells.push(Cell::closed(
            cfg.clone(),
            Configuration::DramOnly,
            opts.seed,
            jobs,
        ));
        for conf in Configuration::all() {
            if conf != Configuration::DramOnly {
                cells.push(Cell::closed(cfg.clone(), conf, opts.seed, jobs));
            }
        }
    }
    cells
}

/// One checked sweep over every cell.
struct Pass {
    wall_s: f64,
    runs: Vec<Timed>,
    prof: Option<ProfReport>,
}

impl Pass {
    fn setup_s(&self) -> f64 {
        self.runs.iter().map(|t| t.prepare_s).sum()
    }

    fn run_s(&self) -> f64 {
        self.runs.iter().map(|t| t.run_s).sum()
    }

    fn sum(&self, metric: &str) -> f64 {
        self.runs
            .iter()
            .map(|t| report_metric(&t.report, metric))
            .sum()
    }
}

/// Runs every cell once on the sweep, profiled when asked, and checks
/// the pass: each cell met its quota, the digest over all cells matches
/// the reference and, when `csv` is set, the figure matches the
/// committed CSV. Any problem fails every cell of the pass.
fn pass(
    cells: &[Cell],
    profile: bool,
    csv: bool,
    label: &str,
    checker: &mut Checker,
) -> Option<Pass> {
    let session = profile.then(astriflash_prof::begin);
    let start = Instant::now();
    let results = Sweep::with_threads(THREADS).map(cells, |_, cell| timed(cell, false));
    let wall_s = start.elapsed().as_secs_f64();
    let prof = session.map(|s| s.finish());

    let mut problems = Vec::new();
    let mut runs = Vec::new();
    for (i, (cell, result)) in cells.iter().zip(results).enumerate() {
        let name = format!(
            "cell {i} ({} on {})",
            cell.cfg.workload.name(),
            cell.configuration.name()
        );
        match result {
            Err(p) => problems.push(format!("{name} panicked: {p}")),
            Ok(t) => {
                for p in check::run_problems(&t.report, expected_jobs(cell)) {
                    problems.push(format!("{name}: {p}"));
                }
                runs.push(t);
            }
        }
    }
    if problems.is_empty() {
        let digest = check::combine(runs.iter().map(|t| check::digest(&t.report)));
        problems.extend(checker.digest_problem(digest));
        if csv {
            problems.extend(csv_problem(&render_csv(&rows(cells, &runs))));
        }
    }
    let ok = problems.is_empty();
    checker.record(label, cells.len() as u64, problems);
    ok.then_some(Pass { wall_s, runs, prof })
}

/// Cold passes until `--seconds` have passed, at least one, each
/// followed by a two-thread calibration sample. `wall_s` is a pass's
/// wall time; `setup_s` and `run_s` are summed over its cells.
/// `peak_rss_mb` is read after the first pass, before any calibration:
/// later passes reuse memory the allocator kept, which would make the
/// process's peak depend on the pass count.
pub fn end_to_end(opts: &Opts, checker: &mut Checker) -> Outcome {
    let cells = cells(opts);
    let csv = opts.seed == 1 && !opts.smoke;
    let mut cal = Calibration::new(THREADS);
    let mut timings = Timings::default();
    let mut o = Outcome::default();
    let start = Instant::now();
    let mut n = 0;
    while n == 0 || start.elapsed().as_secs_f64() < opts.seconds {
        n += 1;
        if let Some(p) = pass(&cells, false, csv, &format!("pass {n}"), checker) {
            timings.add(p.wall_s, p.setup_s(), p.run_s(), p.sum("l1_accesses"));
            if n == 1 {
                o.notes.push(format!(
                    "paper_error_pct {:.4} % (mean |geomean - anchor| / anchor over AstriFlash \
                     0.95, Ideal 0.96, OS-Swap 0.58, Flash-Sync 0.27)",
                    paper_error_pct(&rows(&cells, &p.runs))
                ));
            }
        }
        if n == 1 {
            push_peak_rss(&mut o);
        }
        cal.sample();
    }
    cal.sample();
    timings.push_metrics(&mut o, &cal);
    if csv {
        o.notes
            .push("figure compared with results/csv/fig9.csv (seed 1)".into());
    }
    o
}

/// An untraced pass, one `WorkloadKind::build` per workload kind on
/// the same two threads, then a traced pass.
pub fn per_layer(opts: &Opts, checker: &mut Checker) -> Outcome {
    let cells = cells(opts);
    let csv = opts.seed == 1 && !opts.smoke;
    let untraced = pass(&cells, false, csv, "untraced pass", checker);

    let kinds = WorkloadKind::all();
    let params = base_config(opts.smoke).workload_params;
    let builds =
        Sweep::with_threads(THREADS).map(&kinds, |_, &kind| time_build(kind, &params, opts.seed));
    let build_of = |kind: WorkloadKind| {
        let i = kinds
            .iter()
            .position(|&k| k == kind)
            .expect("every kind is built");
        builds[i]
    };

    let traced = pass(&cells, true, false, "traced pass", checker);

    let mut layers = Layers {
        engine_build_s: builds.iter().sum(),
        ..Layers::default()
    };
    if let Some(p) = &untraced {
        for t in &p.runs {
            layers.counts.add(&t.report);
        }
        layers.run_s = p.run_s();
        layers.prewarm_s =
            p.setup_s() - cells.iter().map(|c| build_of(c.cfg.workload)).sum::<f64>();
        layers.parallel_efficiency = (p.setup_s() + p.run_s()) / (THREADS as f64 * p.wall_s);
    }
    if let Some(p) = &traced {
        layers.traced_run_s = p.run_s();
        let prof = p.prof.as_ref().expect("the traced pass carries a profile");
        layers.prof.add(prof, p.sum("jobs_total"));
    }
    let mut o = Outcome::default();
    layers.push_metrics(&mut o);
    o
}

/// The figure's cells from a pass's reports (in [`cells`] order).
fn rows(cells: &[Cell], runs: &[Timed]) -> Vec<Fig9Cell> {
    let mut dram = f64::NAN;
    cells
        .iter()
        .zip(runs)
        .map(|(cell, t)| {
            let r = &t.report;
            // Each workload's block starts with its DRAM-only baseline.
            if cell.configuration == Configuration::DramOnly {
                dram = r.throughput_jobs_per_sec;
            }
            Fig9Cell {
                workload: cell.cfg.workload.name(),
                configuration: cell.configuration,
                throughput: r.throughput_jobs_per_sec,
                normalized: r.throughput_jobs_per_sec / dram,
                miss_interval_us: r.miss_interval_us,
            }
        })
        .collect()
}

/// The figure as the `fig9` binary writes `results/csv/fig9.csv`.
fn render_csv(rows: &[Fig9Cell]) -> String {
    let mut csv = CsvDoc::new(&[
        "workload",
        "configuration",
        "throughput_jobs_per_sec",
        "normalized",
        "miss_interval_us",
    ]);
    for c in rows {
        csv.row_owned(vec![
            c.workload.to_string(),
            c.configuration.name().to_string(),
            c.throughput.to_string(),
            c.normalized.to_string(),
            c.miss_interval_us.to_string(),
        ]);
    }
    csv.render()
}

fn csv_problem(rendered: &str) -> Option<String> {
    let committed = match std::fs::read_to_string(COMMITTED_CSV) {
        Ok(text) => text,
        Err(e) => return Some(format!("cannot read results/csv/fig9.csv: {e}")),
    };
    if committed == rendered {
        return None;
    }
    let (line, (want, got)) = committed
        .lines()
        .chain(std::iter::repeat(""))
        .zip(rendered.lines().chain(std::iter::repeat("")))
        .enumerate()
        .find(|(_, (a, b))| a != b)
        .unwrap_or((0, ("", "")));
    Some(format!(
        "figure differs from results/csv/fig9.csv at line {}: committed {want:?}, simulated {got:?}",
        line + 1
    ))
}

/// Mean relative distance, in percent, of the simulated geomean
/// normalized throughputs from the paper's anchors.
pub fn paper_error_pct(rows: &[Fig9Cell]) -> f64 {
    let sum: f64 = PAPER_ANCHORS
        .iter()
        .map(|&(conf, anchor)| (fig9::geomean_normalized(rows, conf) - anchor).abs() / anchor)
        .sum();
    100.0 * sum / PAPER_ANCHORS.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed_rows() -> (String, Vec<Fig9Cell>) {
        let text = std::fs::read_to_string(COMMITTED_CSV).expect("committed fig9.csv");
        let find_workload = |name: &str| {
            WorkloadKind::all()
                .into_iter()
                .find(|k| k.name() == name)
                .expect("known workload")
        };
        let find_conf = |name: &str| {
            Configuration::all()
                .into_iter()
                .find(|c| c.name() == name)
                .expect("known configuration")
        };
        let rows = text
            .lines()
            .skip(1)
            .map(|line| {
                let f: Vec<&str> = line.split(',').collect();
                let num = |i: usize| f[i].parse::<f64>().expect("numeric field");
                Fig9Cell {
                    workload: find_workload(f[0]).name(),
                    configuration: find_conf(f[1]),
                    throughput: num(2),
                    normalized: num(3),
                    miss_interval_us: num(4),
                }
            })
            .collect();
        (text, rows)
    }

    #[test]
    fn paper_error_of_the_committed_figure_is_13_percent() {
        let (_, rows) = committed_rows();
        let e = paper_error_pct(&rows);
        assert!((e - 13.0).abs() <= 0.05, "paper_error_pct {e}");
    }

    #[test]
    fn csv_rendering_reproduces_the_committed_file() {
        let (text, rows) = committed_rows();
        assert_eq!(rows.len(), 49);
        assert_eq!(render_csv(&rows), text);
        assert_eq!(csv_problem(&text), None);
        let mut off = rows.clone();
        off[3].throughput += 1.0;
        let problem = csv_problem(&render_csv(&off)).expect("mismatch reported");
        assert!(problem.contains("line 5"), "{problem}");
    }

    #[test]
    fn cells_follow_the_figure_order() {
        let opts = Opts {
            workload: crate::workloads::Workload::Fig9Sweep,
            seed: 1,
            seconds: 0.0,
            trace: false,
            smoke: false,
        };
        let cells = cells(&opts);
        assert_eq!(cells.len(), 49);
        let (_, rows) = committed_rows();
        for (cell, row) in cells.iter().zip(&rows) {
            assert_eq!(cell.cfg.workload.name(), row.workload);
            assert_eq!(cell.configuration, row.configuration);
            assert_eq!(expected_jobs(cell), JOBS_PER_CORE * 16);
        }
    }
}
