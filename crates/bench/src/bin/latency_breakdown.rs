//! Per-phase miss-latency breakdown across the main evaluated
//! configurations (DESIGN.md §11): where a DRAM-cache miss spends its
//! time — BC admission, flash queue/read, PCIe transfer, install, and
//! the scheduler resume delay — at p50/p95/p99/p99.9, per system.
//!
//! Writes two artifacts:
//!
//! * `results/latency_breakdown.txt` — the rendered per-system tables;
//! * `results/latency_breakdown.csv` — the same data in long form
//!   (`configuration,phase,count,p50_ns,p95_ns,p99_ns,p999_ns,share`).
//!
//! ```text
//! cargo run --release -p astriflash-bench --bin latency_breakdown [--quick]
//! ```

use std::process::ExitCode;

use astriflash_bench::HarnessOpts;
use astriflash_core::config::Configuration;
use astriflash_core::experiment::RunReport;
use astriflash_core::sweep::{Cell, Sweep};
use astriflash_stats::{CsvDoc, Phase, TextTable};

/// The configurations whose miss anatomy the paper contrasts: the ideal
/// baseline, the OS path, synchronous flash, and AstriFlash itself.
const SYSTEMS: [Configuration; 4] = [
    Configuration::DramOnly,
    Configuration::OsSwap,
    Configuration::FlashSync,
    Configuration::AstriFlash,
];

fn main() -> ExitCode {
    // Opt-in host-time self-profile (ASTRIFLASH_PROFILE=tree|folded),
    // reported on stderr when the process exits.
    let _prof = astriflash_prof::env_session();
    let opts = HarnessOpts::from_args();
    let base = opts.system_config();
    let cells: Vec<Cell> = SYSTEMS
        .iter()
        .map(|&conf| Cell::closed(base.clone(), conf, opts.seed, opts.jobs_per_core()))
        .collect();
    let reports = Sweep::from_env().run(&cells);

    let mut text = String::new();
    let mut csv = CsvDoc::new(&[
        "configuration",
        "phase",
        "count",
        "p50_ns",
        "p95_ns",
        "p99_ns",
        "p999_ns",
        "share",
    ]);
    for (conf, report) in SYSTEMS.iter().zip(&reports) {
        text.push_str(&render_system(conf, report));
        text.push('\n');
        for phase in Phase::all() {
            let h = report.phases.hist(phase);
            let p = report.phase_percentiles(phase);
            csv.row_owned(vec![
                conf.name().to_string(),
                phase.label().to_string(),
                format!("{}", h.count()),
                format!("{}", p[0]),
                format!("{}", p[1]),
                format!("{}", p[2]),
                format!("{}", p[3]),
                format!("{:.6}", report.phase_share(phase)),
            ]);
        }
    }
    print!("{text}");

    if let Err(e) = std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write("results/latency_breakdown.txt", &text))
    {
        eprintln!("error: writing results/latency_breakdown.txt: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = csv.write_to("results/latency_breakdown.csv") {
        eprintln!("error: writing results/latency_breakdown.csv: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote results/latency_breakdown.txt and results/latency_breakdown.csv");
    ExitCode::SUCCESS
}

fn render_system(conf: &Configuration, report: &RunReport) -> String {
    let mut out = format!(
        "{} — {} completed miss lifecycles:\n",
        conf.name(),
        report.phases.completed_misses()
    );
    if report.phases.is_empty() {
        out.push_str("  (no DRAM-cache misses: nothing to attribute)\n");
        return out;
    }
    let mut t = TextTable::new(&[
        "phase", "count", "p50_ns", "p95_ns", "p99_ns", "p99.9_ns", "share",
    ]);
    for phase in Phase::all() {
        let h = report.phases.hist(phase);
        if h.is_empty() {
            continue;
        }
        let p = report.phase_percentiles(phase);
        t.row_owned(vec![
            phase.label().to_string(),
            format!("{}", h.count()),
            format!("{}", p[0]),
            format!("{}", p[1]),
            format!("{}", p[2]),
            format!("{}", p[3]),
            format!("{:.1}%", report.phase_share(phase) * 100.0),
        ]);
    }
    out.push_str(&t.render());
    out
}
