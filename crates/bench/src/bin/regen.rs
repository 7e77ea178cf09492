//! Writes and checks every committed artifact under `results/`.
//!
//! ```text
//! cargo run --release -p astriflash-bench --bin regen -- [NAME...]
//! cargo run --release -p astriflash-bench --bin regen -- --check [NAME...]
//! ```
//!
//! Run it from the repository root. `regen` writes the named artifacts
//! (all of them by default) under `results/`. `regen --check` builds the
//! same bytes in memory, compares them with `results/`, names every
//! file that differs or is missing and exits 1; it never writes. Both
//! print each artifact's wall time, the datasets it built and, in
//! parentheses, the host seconds those builds took (summed over sweep
//! threads) to stderr, then the total and the process's peak RSS. An
//! unknown flag or artifact name prints the usage and exits 2.
//!
//! [`ARTIFACTS`] is the only list of committed artifacts: each one's
//! scale, seed and files. Every file is byte-identical at any
//! `ASTRIFLASH_THREADS`. A model change re-pins in three steps: run
//! `regen`, commit `results/`, update `benchmark/golden.txt`.

use std::collections::HashSet;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use astriflash_bench::{telemetry, trace_run, write_file, HarnessOpts};
use astriflash_core::config::{Configuration, SystemConfig};
use astriflash_core::experiment::RunReport;
use astriflash_core::experiments::{self, ablations::AblationPoint};
use astriflash_core::sweep::{Cell, Sweep};
use astriflash_cpu::Rob;
use astriflash_sim::SimRng;
use astriflash_stats::{CsvDoc, OnlineStats, Percentile, Phase, TextTable};
use astriflash_workloads::{
    dataset_build_seconds, dataset_builds, JobBuf, WorkloadKind, WorkloadParams, BLOCK_SIZE,
    PAGE_SIZE,
};

/// The seed of every committed artifact.
const SEED: u64 = 1;
const FULL: HarnessOpts = HarnessOpts {
    quick: false,
    seed: SEED,
};
const QUICK: HarnessOpts = HarnessOpts {
    quick: true,
    seed: SEED,
};

/// Builds one artifact: the contents of its files, in order.
type Build = fn(&HarnessOpts) -> Result<Vec<String>, String>;

/// Every committed artifact: name, scale and seed, files under
/// `results/`, builder.
const ARTIFACTS: [(&str, HarnessOpts, &[&str], Build); 15] = [
    ("fig1", FULL, &["fig1.txt", "csv/fig1.csv"], fig1),
    ("fig2", FULL, &["fig2.txt"], fig2),
    ("fig3", FULL, &["fig3.txt", "csv/fig3.csv"], fig3),
    ("fig9", FULL, &["fig9.txt", "csv/fig9.csv"], fig9),
    ("fig10", FULL, &["fig10.txt", "csv/fig10.csv"], fig10),
    ("table1", FULL, &["table1.txt"], table1),
    ("table2", FULL, &["table2.txt", "csv/table2.csv"], table2),
    ("gc_overheads", FULL, &["gc_overheads.txt"], gc_overheads),
    ("ablations", FULL, &["ablations.txt"], ablations),
    ("footprint", FULL, &["footprint.txt"], footprint),
    ("latency_cdf", FULL, &["latency_cdf.txt"], latency_cdf),
    (
        "workload_stats",
        FULL,
        &["workload_stats.txt"],
        workload_stats,
    ),
    (
        "latency_breakdown",
        FULL,
        &["latency_breakdown.txt", "latency_breakdown.csv"],
        latency_breakdown,
    ),
    ("trace_run", QUICK, &trace_run::FILES, |o| {
        trace_run::build(o).map(|out| out.files)
    }),
    ("telemetry_report", QUICK, &telemetry::FILES, |o| {
        telemetry::build(o).map(|out| out.files)
    }),
];

fn usage() -> String {
    let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.0).collect();
    format!(
        "usage: regen [--check] [NAME...]\nartifacts: {}",
        names.join(" ")
    )
}

fn main() -> ExitCode {
    // Opt-in host-time self-profile (ASTRIFLASH_PROFILE=tree|folded),
    // reported on stderr when the process exits.
    let _prof = astriflash_prof::env_session();
    let mut check = false;
    let mut names = HashSet::new();
    for arg in std::env::args().skip(1) {
        if arg == "--check" {
            check = true;
        } else if ARTIFACTS.iter().any(|a| a.0 == arg) {
            names.insert(arg);
        } else {
            eprintln!("error: unknown argument {arg}\n{}", usage());
            return ExitCode::from(2);
        }
    }

    let results = Path::new("results");
    let mut failures = 0;
    let total = Instant::now();
    for (name, opts, files, build) in ARTIFACTS
        .into_iter()
        .filter(|a| names.is_empty() || names.contains(a.0))
    {
        let start = Instant::now();
        let (builds_before, build_secs_before) = (dataset_builds(), dataset_build_seconds());
        let built = build(&opts);
        let secs = start.elapsed().as_secs_f64();
        let builds = dataset_builds() - builds_before;
        let build_secs = dataset_build_seconds() - build_secs_before;
        let timing = format!("{name:<18} {secs:6.1} s {builds:4} builds ({build_secs:.1} s)");
        let contents = match built {
            Ok(contents) => contents,
            Err(e) => {
                eprintln!("{timing}  error: {e}");
                failures += 1;
                continue;
            }
        };
        assert_eq!(contents.len(), files.len(), "{name}: one string per file");
        let mut problems = Vec::new();
        for (file, bytes) in files.iter().zip(&contents) {
            let path = results.join(file);
            let problem = if check {
                match std::fs::read(&path) {
                    Ok(committed) if committed == bytes.as_bytes() => continue,
                    Ok(_) => "differs".to_string(),
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => "missing".to_string(),
                    Err(e) => e.to_string(),
                }
            } else {
                match write_file(&path, bytes) {
                    Ok(()) => continue,
                    Err(e) => format!("not written: {e}"),
                }
            };
            problems.push(format!("{} {problem}", path.display()));
        }
        let status = if problems.is_empty() {
            if check { "ok" } else { "written" }.to_string()
        } else {
            failures += 1;
            problems.join(", ")
        };
        eprintln!("{timing}  {status}");
    }
    eprintln!(
        "{:<18} {:6.1} s {:4} builds ({:.1} s)  peak RSS {}",
        "total",
        total.elapsed().as_secs_f64(),
        dataset_builds(),
        dataset_build_seconds(),
        peak_rss()
    );
    if failures == 0 {
        return ExitCode::SUCCESS;
    }
    let hint = if check {
        "; `regen` then `git diff results/` shows how"
    } else {
        ""
    };
    eprintln!("{failures} artifact(s) failed{hint}");
    ExitCode::FAILURE
}

/// The process's peak resident set (VmHWM), as `/proc/self/status`
/// prints it, or `unknown` where there is no such file.
fn peak_rss() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `println!` into a `String`.
macro_rules! outln {
    ($out:ident) => {
        $out.push('\n')
    };
    ($out:ident, $($arg:tt)*) => {{
        $out.push_str(&format!($($arg)*));
        $out.push('\n');
    }};
}

/// Formats a float with 3 decimals.
fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats nanoseconds as microseconds with 1 decimal.
fn us1(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1000.0)
}

/// Fig. 1: DRAM-cache miss ratio and required flash bandwidth vs DRAM
/// capacity (§II-A).
fn fig1(o: &HarnessOpts) -> Result<Vec<String>, String> {
    let params = WorkloadParams::scaled_down();
    let workloads = [
        WorkloadKind::HashTable,
        WorkloadKind::RbTree,
        WorkloadKind::Tatp,
        WorkloadKind::ArraySwap,
    ];
    let points = experiments::fig1::sweep(
        &params,
        &workloads,
        &experiments::fig1::default_fractions(),
        2_000_000,
        o.seed,
    );

    let mut out = String::new();
    outln!(
        out,
        "Fig. 1: miss rate and flash bandwidth vs. DRAM capacity"
    );
    outln!(
        out,
        "(dataset {} MiB, average over {} workloads, Eq. 1 with 0.5 GB/s DRAM BW per core)\n",
        params.dataset_bytes >> 20,
        workloads.len()
    );
    let mut t = TextTable::new(&[
        "dram_capacity_%",
        "miss_ratio",
        "flash_bw_per_core_GBps",
        "flash_bw_64core_GBps",
    ]);
    let mut csv = CsvDoc::new(&[
        "dram_fraction",
        "miss_ratio",
        "flash_bw_per_core_gbps",
        "flash_bw_64core_gbps",
    ]);
    for p in &points {
        t.row_owned(vec![
            format!("{:.1}", p.dram_fraction * 100.0),
            f3(p.miss_ratio),
            f3(p.flash_bw_per_core_gbps),
            format!("{:.1}", p.flash_bw_64core_gbps),
        ]);
        csv.row_owned(vec![
            format!("{}", p.dram_fraction),
            format!("{}", p.miss_ratio),
            format!("{}", p.flash_bw_per_core_gbps),
            format!("{}", p.flash_bw_64core_gbps),
        ]);
    }
    out.push_str(&t.render());
    outln!(out, "\n(series written to results/csv/fig1.csv)");
    if let Some(p3) = points
        .iter()
        .find(|p| (p.dram_fraction - 0.03).abs() < 1e-9)
    {
        outln!(
            out,
            "\npaper anchor: at 3% capacity the paper reports ~60 GB/s for 64 cores; measured {:.1} GB/s",
            p3.flash_bw_64core_gbps
        );
    }
    Ok(vec![out, csv.render()])
}

/// Fig. 2: asynchronous-flash throughput vs core count — ideal,
/// AstriFlash-style, and traditional paging (§II-C).
fn fig2(_: &HarnessOpts) -> Result<Vec<String>, String> {
    use experiments::fig2;
    let points = fig2::sweep(
        10.0,
        &fig2::default_core_counts(),
        &fig2::traditional_costs(),
    );

    let mut out = String::new();
    outln!(
        out,
        "Fig. 2: asynchronous flash accesses — aggregate throughput (jobs/us)"
    );
    outln!(
        out,
        "(10 us of work per DRAM miss; paging pays per-fault overhead + broadcast shootdowns)\n"
    );
    let mut t = TextTable::new(&[
        "cores",
        "ideal",
        "astriflash",
        "paging",
        "paging_efficiency",
    ]);
    for p in &points {
        t.row_owned(vec![
            p.cores.to_string(),
            f3(p.ideal),
            f3(p.astriflash),
            f3(p.paging),
            f3(p.paging / p.ideal),
        ]);
    }
    out.push_str(&t.render());
    outln!(
        out,
        "\npaper anchor: paging efficiency collapses with core count while AstriFlash tracks ideal"
    );
    Ok(vec![out])
}

/// Fig. 3: analytical p99 latency (normalized to DRAM-only mean service
/// time) vs load for the four systems (§III-A).
fn fig3(_: &HarnessOpts) -> Result<Vec<String>, String> {
    use experiments::fig3;
    let systems = fig3::Fig3Systems::paper_defaults();
    let points = fig3::sweep(&systems, &fig3::default_loads());
    let fmt = |v: Option<f64>| v.map_or("sat".to_string(), |x| format!("{x:.1}"));

    let mut out = String::new();
    outln!(
        out,
        "Fig. 3: analytic p99 latency (x mean DRAM-only service) vs load"
    );
    outln!(
        out,
        "(10 us work, 50 us flash every 10 us; OS-Swap +10 us, AstriFlash +0.2 us per access)\n"
    );
    let mut t = TextTable::new(&["load", "DRAM-only", "AstriFlash", "OS-Swap", "Flash-Sync"]);
    let mut csv = CsvDoc::new(&["load", "dram_only", "astriflash", "os_swap", "flash_sync"]);
    for p in &points {
        t.row_owned(vec![
            format!("{:.2}", p.load),
            fmt(p.dram_only),
            fmt(p.astriflash),
            fmt(p.os_swap),
            fmt(p.flash_sync),
        ]);
        let f = |v: Option<f64>| v.map_or(String::new(), |x| x.to_string());
        csv.row_owned(vec![
            p.load.to_string(),
            f(p.dram_only),
            f(p.astriflash),
            f(p.os_swap),
            f(p.flash_sync),
        ]);
    }
    out.push_str(&t.render());
    outln!(out, "\n(series written to results/csv/fig3.csv)");
    outln!(out, "\nsaturation throughput (normalized to DRAM-only):");
    let base = systems.dram_only.saturation_throughput();
    outln!(
        out,
        "  AstriFlash {:.2}",
        systems.astriflash.saturation_throughput() / base
    );
    outln!(
        out,
        "  OS-Swap    {:.2}",
        systems.os_swap.saturation_throughput() / base
    );
    outln!(
        out,
        "  Flash-Sync {:.2}",
        systems.flash_sync.saturation_throughput() / base
    );
    outln!(
        out,
        "\npaper anchors: Flash-Sync >80% degradation, OS-Swap ~50%, AstriFlash near DRAM-only;"
    );
    outln!(
        out,
        "a 40x-service SLO holds within ~20% of DRAM-only throughput"
    );
    Ok(vec![out, csv.render()])
}

/// Fig. 9: simulated throughput of every configuration normalized to
/// DRAM-only, per workload (§VI-A).
fn fig9(o: &HarnessOpts) -> Result<Vec<String>, String> {
    use experiments::fig9;
    let base = o.system_config();
    let configs = Configuration::all();
    let workloads = WorkloadKind::all();
    let cells = fig9::run_matrix(&base, &workloads, &configs, o.jobs_per_core(), o.seed);
    let cell = |wl: &WorkloadKind, conf: Configuration| {
        cells
            .iter()
            .find(|c| c.workload == wl.name() && c.configuration == conf)
            .expect("matrix cell")
    };

    let mut out = String::new();
    outln!(
        out,
        "Fig. 9: throughput normalized to DRAM-only ({} cores)\n",
        base.cores
    );
    let mut headers: Vec<&str> = vec!["workload"];
    headers.extend(configs.iter().map(|c| c.name()));
    let mut t = TextTable::new(&headers);
    for wl in &workloads {
        let mut row = vec![wl.name().to_string()];
        row.extend(configs.iter().map(|&conf| f3(cell(wl, conf).normalized)));
        t.row_owned(row);
    }
    let mut row = vec!["geomean".to_string()];
    row.extend(
        configs
            .iter()
            .map(|&conf| f3(fig9::geomean_normalized(&cells, conf))),
    );
    t.row_owned(row);
    out.push_str(&t.render());

    let mut csv = CsvDoc::new(&[
        "workload",
        "configuration",
        "throughput_jobs_per_sec",
        "normalized",
        "miss_interval_us",
    ]);
    for c in &cells {
        csv.row_owned(vec![
            c.workload.to_string(),
            c.configuration.name().to_string(),
            c.throughput.to_string(),
            c.normalized.to_string(),
            c.miss_interval_us.to_string(),
        ]);
    }
    outln!(out, "\n(matrix written to results/csv/fig9.csv)");
    outln!(out, "\nobserved DRAM-cache miss intervals (us per core):");
    for wl in &workloads {
        let c = cell(wl, Configuration::AstriFlash);
        outln!(out, "  {:<10} {:>6.1}", wl.name(), c.miss_interval_us);
    }
    outln!(out, "\npaper anchors: AstriFlash ~0.95, AstriFlash-Ideal ~0.96, OS-Swap ~0.58, Flash-Sync ~0.27");
    Ok(vec![out, csv.render()])
}

/// Fig. 10: p99 latency vs load for DRAM-only and AstriFlash under
/// Poisson arrivals, TATP (§VI-C).
fn fig10(o: &HarnessOpts) -> Result<Vec<String>, String> {
    use experiments::fig10;
    let base = o.system_config().with_workload(WorkloadKind::Tatp);
    let curves = fig10::sweep(&base, &fig10::default_loads(), 20_000, o.seed);

    let mut out = String::new();
    outln!(
        out,
        "Fig. 10: p99 latency (x mean DRAM-only service) vs normalized load, TATP"
    );
    outln!(
        out,
        "(DRAM-only saturation: {:.0} jobs/s; mean service {:.1} us)\n",
        curves.saturation,
        curves.base_service_ns / 1000.0
    );
    let columns = [
        "offered_load",
        "dram_achieved",
        "dram_p99_norm",
        "astri_achieved",
        "astri_p99_norm",
    ];
    let mut t = TextTable::new(&columns);
    let mut csv = CsvDoc::new(&columns);
    for (d, a) in curves.dram_only.iter().zip(&curves.astriflash) {
        t.row_owned(vec![
            format!("{:.2}", d.offered_load),
            f3(d.achieved_load),
            format!("{:.1}", d.p99_norm),
            f3(a.achieved_load),
            format!("{:.1}", a.p99_norm),
        ]);
        csv.row_owned(vec![
            d.offered_load.to_string(),
            d.achieved_load.to_string(),
            d.p99_norm.to_string(),
            a.achieved_load.to_string(),
            a.p99_norm.to_string(),
        ]);
    }
    out.push_str(&t.render());
    outln!(out, "\n(series written to results/csv/fig10.csv)");
    outln!(
        out,
        "\npaper anchor: AstriFlash at ~93% load matches DRAM-only's tail at ~96% load;"
    );
    outln!(
        out,
        "at low load AstriFlash sits above DRAM-only because requests include flash accesses"
    );
    Ok(vec![out, csv.render()])
}

/// Table I: system parameters used for simulation, alongside the
/// paper's QFlex parameters and this reproduction's scaled values. The
/// reproduction's column is read from the default configuration and
/// the model's own components.
fn table1(_: &HarnessOpts) -> Result<Vec<String>, String> {
    let cfg = SystemConfig::default();
    let dc = cfg.dram_cache_config();
    let flash = cfg.flash_config();
    let h = &cfg.hierarchy;
    let (msr_sets, msr_ways) = cfg.msr_geometry;

    let mut out = String::new();
    outln!(
        out,
        "Table I: system parameters (paper value -> this reproduction)\n"
    );
    let mut t = TextTable::new(&["parameter", "paper (QFlex)", "this repo"]);
    t.row(&[
        "cores",
        "16x ARM Cortex-A76",
        &format!("{} modeled A76-class", cfg.cores),
    ]);
    t.row(&[
        "ROB / SB",
        "128-entry ROB, 32-entry SB",
        &format!("{}-entry ROB, no SB modeled", Rob::a76().entries()),
    ]);
    t.row(&["L1D", "64 KB", &format!("{} KB", h.l1_bytes >> 10)]);
    t.row(&[
        "L2 (per core)",
        "256 KB",
        &format!("{} KB", h.l2_bytes >> 10),
    ]);
    t.row(&[
        "LLC",
        "1 MB per core",
        &format!("{} MB shared (scaled)", h.llc_bytes >> 20),
    ]);
    t.row(&[
        "dataset",
        "256 GB (scaled from 1 TB)",
        &format!(
            "{} GiB (scaled, see DESIGN.md)",
            cfg.workload_params.dataset_bytes >> 30
        ),
    ]);
    t.row(&[
        "DRAM cache",
        "8 GB (3%)",
        &format!(
            "{} MiB ({:.0}%)",
            dc.capacity_bytes >> 20,
            cfg.dram_cache_fraction * 100.0
        ),
    ]);
    t.row(&["page size", "4 KB", &format!("{} KiB", PAGE_SIZE >> 10)]);
    t.row(&["cache block", "64 B", &format!("{BLOCK_SIZE} B")]);
    t.row(&["DRAM-cache ways", "8 (tag column)", &format!("{}", dc.ways)]);
    t.row(&[
        "flash read",
        "~50 us",
        &format!("{} us unloaded", flash.unloaded_read_ns() / 1000),
    ]);
    t.row(&[
        "flash geometry",
        "PCIe SSDs, 60 GB/s-class",
        &format!(
            "{} ch x {} dies x {} planes",
            flash.channels, flash.dies_per_channel, flash.planes_per_die
        ),
    ]);
    t.row(&[
        "thread switch",
        "100 ns",
        &format!("{} ns", cfg.switch_cost_ns),
    ]);
    t.row(&[
        "threads/core",
        "32-64 (per workload)",
        "32-64 (workload hint)",
    ]);
    t.row(&[
        "FC",
        "FSM, FR-FCFS, 1 cycle/command",
        &format!("{} banks, FCFS per bank, open-row hits", dc.banks),
    ]);
    t.row(&[
        "BC",
        "programmable, 3 cycles/command",
        &format!("programmable model, MSR {msr_sets}x{msr_ways}"),
    ]);
    out.push_str(&t.render());
    Ok(vec![out])
}

/// Table II: 99th-percentile service latency normalized to Flash-Sync
/// (§VI-B).
fn table2(o: &HarnessOpts) -> Result<Vec<String>, String> {
    let base = o.system_config().with_workload(WorkloadKind::Tatp);
    let rows = experiments::table2::run(&base, o.jobs_per_core(), o.seed);

    let mut out = String::new();
    outln!(
        out,
        "Table II: p99 service latency normalized to Flash-Sync (TATP-class jobs)\n"
    );
    let mut t = TextTable::new(&["configuration", "p99_service_us", "normalized"]);
    let mut csv = CsvDoc::new(&["configuration", "p99_service_ns", "normalized"]);
    for r in &rows {
        t.row_owned(vec![
            r.configuration.name().to_string(),
            us1(r.p99_service_ns),
            format!("{:.2}", r.normalized),
        ]);
        csv.row_owned(vec![
            r.configuration.name().to_string(),
            r.p99_service_ns.to_string(),
            r.normalized.to_string(),
        ]);
    }
    out.push_str(&t.render());
    outln!(out, "\n(rows written to results/csv/table2.csv)");
    outln!(
        out,
        "\npaper anchors: AstriFlash ~1.02x, AstriFlash-noPS ~7x, AstriFlash-noDP ~1.7x"
    );
    Ok(vec![out, csv.render()])
}

/// §VI-D: garbage-collection read blocking vs flash capacity ("a 1 TB
/// flash with more chips reduces blocked requests by more than 4x over
/// 256 GB").
fn gc_overheads(o: &HarnessOpts) -> Result<Vec<String>, String> {
    let points = experiments::gc::sweep(&[1, 2, 4, 8], 400_000, 0.25, o.seed);

    let mut out = String::new();
    outln!(
        out,
        "Sec. VI-D: GC read blocking vs flash capacity (same absolute write load)\n"
    );
    let mut t = TextTable::new(&[
        "capacity_multiplier",
        "blocked_read_fraction_%",
        "gc_erases",
    ]);
    for p in &points {
        t.row_owned(vec![
            format!("{}x", p.capacity_multiplier),
            format!("{:.2}", p.blocked_fraction * 100.0),
            p.gc_erases.to_string(),
        ]);
    }
    out.push_str(&t.render());
    outln!(
        out,
        "\npaper anchor: 4% of requests blocked at baseline capacity, >4x fewer at 4x capacity"
    );
    Ok(vec![out])
}

/// The design-choice ablation sweeps (DESIGN.md §5): MSR capacity,
/// thread count, switch cost, aging multiplier, DRAM-cache
/// associativity, flash provisioning and TLB reach.
fn ablations(o: &HarnessOpts) -> Result<Vec<String>, String> {
    use experiments::ablations;
    let base = o.system_config().with_workload(WorkloadKind::Tatp);
    let (jobs, seed) = (o.jobs_per_core(), o.seed);
    let sweeps: [(&str, &str, Vec<AblationPoint>); 7] = [
        (
            "MSR capacity (entries; the paper's in-DRAM table vs SRAM-MSHR-class sizes, §IV-B2):",
            "entries",
            ablations::msr_capacity(
                &base,
                &[(1, 4), (2, 8), (8, 8), (64, 8), (128, 8)],
                jobs,
                seed,
            ),
        ),
        (
            "User-level threads per core (§V-A uses 32-64):",
            "threads",
            ablations::thread_count(&base, &[2, 4, 8, 16, 32, 64], jobs, seed),
        ),
        (
            "Thread-switch cost (100 ns AstriFlash -> ~5 us OS switch, §II-C):",
            "switch_ns",
            ablations::switch_cost(&base, &[0, 100, 500, 1_000, 2_500, 5_000], jobs, seed),
        ),
        (
            "Aging-threshold multiplier (starvation guard, §IV-D2):",
            "multiplier",
            ablations::aging_multiplier(&base, &[1.0, 1.5, 2.0, 4.0, 8.0], jobs, seed),
        ),
        (
            "DRAM-cache associativity (paper: 8-way tag column, §IV-B1):",
            "ways",
            ablations::dram_cache_ways(&base, &[1, 2, 4, 8, 16], jobs, seed),
        ),
        (
            "Flash provisioning (dies per channel; §II-A bandwidth rule):",
            "dies",
            ablations::flash_provisioning(&base, &[1, 2, 4, 8, 16, 32], jobs, seed),
        ),
        (
            "TLB reach (L2 TLB entries; §IV-A translation pressure):",
            "entries",
            ablations::tlb_reach(&base, &[64, 256, 1024, 1536, 4096], jobs, seed),
        ),
    ];

    let mut out = String::new();
    for (title, unit, points) in &sweeps {
        outln!(out, "{title}");
        let mut t = TextTable::new(&[*unit, "throughput_jobs_s", "p99_service_us", "forced_sync"]);
        for p in points {
            t.row_owned(vec![
                if p.value.fract() == 0.0 {
                    format!("{}", p.value as u64)
                } else {
                    format!("{:.1}", p.value)
                },
                format!("{:.0}", p.throughput),
                us1(p.p99_service_ns),
                p.forced_synchronous.to_string(),
            ]);
        }
        out.push_str(&t.render());
        outln!(out);
    }
    Ok(vec![out])
}

/// Footprint-cache extension study (§II-A): flash bandwidth saved per
/// fetch vs sub-miss overhead, per workload.
fn footprint(o: &HarnessOpts) -> Result<Vec<String>, String> {
    let base = o.system_config();
    let workloads = [
        WorkloadKind::Tatp,
        WorkloadKind::HashTable,
        WorkloadKind::Silo,
        WorkloadKind::ArraySwap,
    ];

    let mut out = String::new();
    outln!(
        out,
        "Footprint-cache extension (§II-A): fetch only predicted-hot blocks\n"
    );
    let mut t = TextTable::new(&[
        "workload",
        "bw_saved_per_fetch",
        "extra_fetches",
        "tput_ratio",
    ]);
    for wl in workloads {
        let cmp = experiments::footprint::compare(
            &base.clone().with_workload(wl),
            o.jobs_per_core(),
            o.seed,
        );
        t.row_owned(vec![
            wl.name().to_string(),
            format!("{:.0}%", cmp.bandwidth_saving() * 100.0),
            format!("{:+.1}%", cmp.sub_miss_overhead() * 100.0),
            f3(cmp.footprint_throughput / cmp.base_throughput),
        ]);
    }
    out.push_str(&t.render());
    outln!(
        out,
        "\nBandwidth saved shrinks the Eq. 1 flash-bandwidth requirement; the cost is"
    );
    outln!(
        out,
        "sub-miss refetches when a page's footprint grows between residencies."
    );
    Ok(vec![out])
}

/// Full service-latency distributions (quantile tables) for every
/// configuration — the data behind Table II's single p99 column.
fn latency_cdf(o: &HarnessOpts) -> Result<Vec<String>, String> {
    let base = o.system_config().with_workload(WorkloadKind::Tatp);

    let mut out = String::new();
    outln!(out, "Service-latency quantiles (us), TATP at saturation:\n");
    let mut headers = vec!["configuration", "mean"];
    headers.extend(Percentile::all().iter().map(|p| match p {
        Percentile::P50 => "p50",
        Percentile::P90 => "p90",
        Percentile::P95 => "p95",
        Percentile::P99 => "p99",
        Percentile::P999 => "p99.9",
        Percentile::P9999 => "p99.99",
    }));
    let mut t = TextTable::new(&headers);
    let configs = Configuration::all();
    let cells: Vec<Cell> = configs
        .iter()
        .map(|&conf| Cell::closed(base.clone(), conf, o.seed, o.jobs_per_core()))
        .collect();
    for (conf, r) in configs.iter().zip(Sweep::from_env().run(&cells)) {
        let mut row = vec![
            conf.name().to_string(),
            format!("{:.1}", r.mean_service_ns / 1000.0),
        ];
        row.extend(
            Percentile::all()
                .into_iter()
                .map(|p| us1(r.service_hist.value_at(p))),
        );
        t.row_owned(row);
    }
    out.push_str(&t.render());
    outln!(
        out,
        "\nService time = dequeue to completion, flash waits included (SecV-A)."
    );
    Ok(vec![out])
}

/// Per-engine job shape over a fixed job count.
struct Characterization {
    compute_us: OnlineStats,
    accesses: OnlineStats,
    write_fraction: f64,
    unique_pages_per_kjob: f64,
}

fn characterize(
    kind: WorkloadKind,
    params: &WorkloadParams,
    jobs: usize,
    seed: u64,
) -> Characterization {
    let mut engine = kind.build(params, seed);
    let mut rng = SimRng::new(seed ^ 0x57A7);
    let mut compute_us = OnlineStats::new();
    let mut accesses = OnlineStats::new();
    let mut writes = 0u64;
    let mut total = 0u64;
    let mut pages: HashSet<u64> = HashSet::new();
    let mut job = JobBuf::new();
    for _ in 0..jobs {
        engine.fill_job(&mut job, &mut rng);
        compute_us.push(job.total_compute_ns() as f64 / 1000.0);
        accesses.push(job.total_accesses() as f64);
        writes += job.total_writes() as u64;
        total += job.total_accesses() as u64;
        for a in job.accesses() {
            pages.insert(a.addr / PAGE_SIZE);
        }
    }
    Characterization {
        compute_us,
        accesses,
        write_fraction: writes as f64 / total.max(1) as f64,
        unique_pages_per_kjob: pages.len() as f64 * 1000.0 / jobs as f64,
    }
}

/// Workload characterization: the per-engine numbers behind the §V-A
/// calibration (job shape, write mix, page footprint, reuse).
fn workload_stats(o: &HarnessOpts) -> Result<Vec<String>, String> {
    let params = WorkloadParams::scaled_down();
    let jobs = 20_000;

    let mut out = String::new();
    outln!(
        out,
        "Workload characterization over {jobs} jobs each ({} MiB dataset):\n",
        params.dataset_bytes >> 20
    );
    let mut t = TextTable::new(&[
        "workload",
        "compute_us_mean",
        "compute_cv",
        "accesses_mean",
        "write_frac",
        "uniq_pages_per_1k_jobs",
    ]);
    let kinds = WorkloadKind::all();
    let characterizations =
        Sweep::from_env().map(&kinds, |_, &kind| characterize(kind, &params, jobs, o.seed));
    for (kind, c) in kinds.iter().zip(characterizations) {
        t.row_owned(vec![
            kind.name().to_string(),
            format!("{:.1}", c.compute_us.mean()),
            format!("{:.2}", c.compute_us.coefficient_of_variation()),
            format!("{:.1}", c.accesses.mean()),
            format!("{:.3}", c.write_fraction),
            format!("{:.0}", c.unique_pages_per_kjob),
        ]);
    }
    out.push_str(&t.render());
    outln!(
        out,
        "\npaper calibration targets: 10-100 us jobs (SecIV-D2), limited write\n\
         traffic (SecV-A), and a page footprint whose hot fraction fits a 3%\n\
         DRAM cache (SecII-A)."
    );
    Ok(vec![out])
}

/// Per-phase miss-latency breakdown across the main evaluated
/// configurations (DESIGN.md §11): where a DRAM-cache miss spends its
/// time — BC admission, flash queue/read, PCIe transfer, install, and
/// the scheduler resume delay — at p50/p95/p99/p99.9, per system. The
/// CSV holds the same data in long form.
fn latency_breakdown(o: &HarnessOpts) -> Result<Vec<String>, String> {
    // The ideal baseline, the OS path, synchronous flash, and
    // AstriFlash itself: the configurations whose miss anatomy the
    // paper contrasts.
    let systems = [
        Configuration::DramOnly,
        Configuration::OsSwap,
        Configuration::FlashSync,
        Configuration::AstriFlash,
    ];
    let cells: Vec<Cell> = systems
        .iter()
        .map(|&conf| Cell::closed(o.system_config(), conf, o.seed, o.jobs_per_core()))
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
    for (conf, report) in systems.iter().zip(&reports) {
        text.push_str(&render_phases(conf, report));
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
    Ok(vec![text, csv.render()])
}

fn render_phases(conf: &Configuration, report: &RunReport) -> String {
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
