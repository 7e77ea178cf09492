//! Time-resolved telemetry report (DESIGN.md §13): runs one open-loop
//! cell per system (AstriFlash / OS-Swap / Flash-Sync) at a common
//! offered load with the windowed-telemetry layer attached, and writes:
//!
//! * `results/telemetry.csv` — every per-window metric in long form
//!   (`system,window,t_start_ns,metric,lane,value`) for re-plotting.
//! * `results/telemetry_p99_timeline.{txt,csv}` — "p99 over time": the
//!   per-window p99 response latency of each system side by side, with
//!   an ASCII timeline figure and the SLO line.
//! * `results/telemetry_flash_health.{txt,csv}` — "flash-health
//!   timeline": per-window GC erases, write amplification, and mean
//!   channel utilization per system.
//! * `results/telemetry_trace.json` — the traced AstriFlash cell as
//!   Chrome/Perfetto `trace_event` JSON, with every window exported as
//!   counter-track samples next to the event trace.
//!
//! ```text
//! cargo run --release -p astriflash-bench --bin telemetry_report -- [--quick] [--seed N]
//! ```
//!
//! Every artifact is byte-identical across repeated same-seed runs and
//! across any `ASTRIFLASH_THREADS` setting (cells are independent and
//! reports are merged in input order). The process exits non-zero if
//! any window cap was exceeded (`dropped > 0`) — a truncated timeline
//! must not pass CI silently.

use std::process::ExitCode;

use astriflash_bench::HarnessOpts;
use astriflash_core::config::Configuration;
use astriflash_core::sweep::{Cell, Sweep};
use astriflash_core::telemetry::{TelemetryCfg, TelemetryReport};
use astriflash_stats::{CsvDoc, PHASE_QUANTILES};
use astriflash_trace::{export, json, Tracer};

/// Systems compared, in cell order (cell 0 carries the event trace).
const SYSTEMS: [Configuration; 3] = [
    Configuration::AstriFlash,
    Configuration::OsSwap,
    Configuration::FlashSync,
];

/// Tolerance band for the time-to-steady metric (fraction of the
/// final-quartile reference p99).
const STEADY_TOLERANCE: f64 = 0.15;

/// A window "violates" the SLO when more than this share of its
/// completions miss the deadline (SLO monitors conventionally allow a
/// small miss budget rather than alerting on a single straggler).
const MAX_MISS_SHARE: f64 = 0.01;

/// Width of the ASCII timeline bars.
const BAR_WIDTH: usize = 50;

struct Scale {
    /// Telemetry window length.
    window_ns: u64,
    /// SLO deadline on response latency.
    slo_ns: u64,
    /// Mean Poisson interarrival (offered load = 1e9 / this, jobs/s).
    interarrival_ns: f64,
    /// Jobs per cell.
    jobs: u64,
}

impl Scale {
    fn for_opts(opts: &HarnessOpts) -> Scale {
        if opts.quick {
            Scale {
                window_ns: 250_000,
                slo_ns: 250_000,
                interarrival_ns: 4_000.0,
                jobs: 4_000,
            }
        } else {
            Scale {
                window_ns: 1_000_000,
                slo_ns: 250_000,
                interarrival_ns: 1_000.0,
                jobs: 60_000,
            }
        }
    }
}

fn main() -> ExitCode {
    // Opt-in host-time self-profile (ASTRIFLASH_PROFILE=tree|folded),
    // reported on stderr when the process exits.
    let _prof = astriflash_prof::env_session();
    let opts = HarnessOpts::from_args();
    let scale = Scale::for_opts(&opts);
    let telem = TelemetryCfg::default()
        .with_window_ns(scale.window_ns)
        .with_slo_ns(scale.slo_ns);
    let cfg = opts.system_config().with_telemetry(telem);

    let cells: Vec<Cell> = SYSTEMS
        .iter()
        .map(|&system| {
            Cell::open(
                cfg.clone(),
                system,
                opts.seed,
                scale.interarrival_ns,
                scale.jobs,
            )
        })
        .collect();

    let tracer = Tracer::ring(1 << 20);
    let reports = Sweep::from_env().run_with_cell0_trace(&cells, tracer.clone());
    let trace_dropped = tracer.dropped();
    let events = tracer.finish();

    let telemetry: Vec<(&'static str, &TelemetryReport)> = SYSTEMS
        .iter()
        .zip(&reports)
        .map(|(system, report)| {
            (
                system.name(),
                report
                    .telemetry
                    .as_ref()
                    .expect("telemetry was configured on every cell"),
            )
        })
        .collect();

    println!(
        "Telemetry report: {} jobs/system, offered {:.0} jobs/s, {} us windows, SLO {} us",
        scale.jobs,
        1e9 / scale.interarrival_ns,
        scale.window_ns / 1000,
        scale.slo_ns / 1000,
    );
    println!();
    for (name, t) in &telemetry {
        print_summary(name, t, &scale);
    }

    if let Err(e) = std::fs::create_dir_all("results") {
        eprintln!("error: creating results/: {e}");
        return ExitCode::FAILURE;
    }
    let long = long_form_csv(&telemetry);
    let p99_csv = p99_csv(&telemetry);
    let p99_txt = p99_figure(&telemetry, &scale);
    let health_csv = flash_health_csv(&telemetry);
    let health_txt = flash_health_figure(&telemetry);
    let perfetto = export::perfetto_json(&events, trace_dropped, &[]);
    if let Err(e) = json::parse(&perfetto) {
        eprintln!("error: generated trace JSON failed validation: {e}");
        return ExitCode::FAILURE;
    }

    let writes: [(&str, String); 5] = [
        ("results/telemetry.csv", long.render()),
        ("results/telemetry_p99_timeline.csv", p99_csv.render()),
        ("results/telemetry_p99_timeline.txt", p99_txt),
        ("results/telemetry_flash_health.csv", health_csv.render()),
        ("results/telemetry_flash_health.txt", health_txt),
    ];
    for (path, contents) in &writes {
        if let Err(e) = std::fs::write(path, contents) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path} ({} bytes)", contents.len());
    }
    if let Err(e) = std::fs::write("results/telemetry_trace.json", &perfetto) {
        eprintln!("error: writing results/telemetry_trace.json: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "wrote results/telemetry_trace.json ({} events, {} bytes)",
        events.len(),
        perfetto.len()
    );

    let dropped: u64 = telemetry.iter().map(|(_, t)| t.dropped()).sum();
    if dropped > 0 {
        eprintln!(
            "error: {dropped} telemetry observations dropped past the window cap; \
             the timelines are truncated (raise max_windows or shrink the run)"
        );
        return ExitCode::FAILURE;
    }
    if trace_dropped > 0 {
        eprintln!("error: trace ring dropped {trace_dropped} events; the exported trace is incomplete");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Prints one system's SLO-monitor summary.
fn print_summary(name: &str, t: &TelemetryReport, scale: &Scale) {
    let n = t.num_windows();
    let total: u64 = (0..n).map(|w| t.core.completions.get(w)).sum();
    let good: u64 = (0..n)
        .map(|w| {
            t.core
                .completions
                .get(w)
                .saturating_sub(t.core.deadline_misses.get(w))
        })
        .sum();
    let span_s = t.end_ns as f64 / 1e9;
    println!("{name}:");
    println!(
        "  windows {n}, completions {total}, mean throughput {:.0} jobs/s, goodput {:.0} jobs/s ({:.1}% within SLO)",
        total as f64 / span_s,
        good as f64 / span_s,
        if total > 0 { 100.0 * good as f64 / total as f64 } else { 0.0 },
    );
    match t.time_to_steady_ns(STEADY_TOLERANCE) {
        Some(ns) => {
            let w = t.time_to_steady_window(STEADY_TOLERANCE).unwrap();
            println!(
                "  time-to-steady {:.2} ms (window {w}; p99 within +/-{:.0}% of final-quartile reference {} ns)",
                ns as f64 / 1e6,
                STEADY_TOLERANCE * 100.0,
                t.steady_reference_p99().unwrap_or(0),
            );
        }
        None => println!("  time-to-steady: never entered the steady band"),
    }
    let viols = t.violation_intervals(MAX_MISS_SHARE);
    if viols.is_empty() {
        println!(
            "  SLO ({} us, miss budget {:.0}%): no violation intervals",
            scale.slo_ns / 1000,
            MAX_MISS_SHARE * 100.0
        );
    } else {
        let worst = viols.iter().max_by_key(|v| v.len()).unwrap();
        println!(
            "  SLO ({} us, miss budget {:.0}%): {} violation interval(s), longest windows [{}, {}) = {:.2} ms",
            scale.slo_ns / 1000,
            MAX_MISS_SHARE * 100.0,
            viols.len(),
            worst.start,
            worst.end,
            (worst.len() as u64 * t.cfg.window_ns) as f64 / 1e6,
        );
    }
    println!();
}

/// All per-window metrics of all systems in long form.
fn long_form_csv(telemetry: &[(&'static str, &TelemetryReport)]) -> CsvDoc {
    let mut doc = CsvDoc::new(&["system", "window", "t_start_ns", "metric", "lane", "value"]);
    let quantile_names = ["latency_p50_ns", "latency_p95_ns", "latency_p99_ns", "latency_p999_ns"];
    for (name, t) in telemetry {
        for w in 0..t.num_windows() {
            let start = t.window_start_ns(w);
            let mut push = |metric: &str, lane: u32, value: String| {
                doc.row_owned(vec![
                    name.to_string(),
                    w.to_string(),
                    start.to_string(),
                    metric.to_string(),
                    lane.to_string(),
                    value,
                ]);
            };
            for (i, q) in PHASE_QUANTILES.iter().enumerate() {
                push(quantile_names[i], 0, t.latency_quantile(w, *q).to_string());
            }
            push("completions", 0, t.core.completions.get(w).to_string());
            push("deadline_misses", 0, t.core.deadline_misses.get(w).to_string());
            push("throughput_jobs_per_sec", 0, format!("{:.3}", t.throughput(w)));
            push("goodput_jobs_per_sec", 0, format!("{:.3}", t.goodput_per_sec(w)));
            push("deadline_miss_share", 0, format!("{:.6}", t.deadline_miss_share(w)));
            push("dcache_hit_rate", 0, format!("{:.6}", t.cache.hit_rate(w)));
            push("msr_occ_mean", 0, format!("{:.3}", t.msr.mean_occupancy(w)));
            push("msr_occ_peak", 0, t.msr.occ_peak.get(w).to_string());
            push("flash_reads", 0, t.flash.reads.get(w).to_string());
            push("flash_writes", 0, t.flash.writes.get(w).to_string());
            push("gc_invocations", 0, t.flash.gc_invocations.get(w).to_string());
            push("gc_erases", 0, t.flash.gc_erases.get(w).to_string());
            push("gc_migrated_pages", 0, t.flash.gc_migrated_pages.get(w).to_string());
            push("flash_waf", 0, format!("{:.4}", t.flash.waf(w)));
            for c in 0..t.flash.chan_busy_ns.len() {
                push("chan_util", c as u32, format!("{:.6}", t.flash.chan_util(c, w)));
            }
        }
    }
    doc
}

/// Per-window p99 of every system, wide form.
fn p99_csv(telemetry: &[(&'static str, &TelemetryReport)]) -> CsvDoc {
    let mut header = vec!["window".to_string(), "t_start_ns".to_string()];
    for (name, _) in telemetry {
        header.push(format!("{name}_p99_ns"));
    }
    let refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut doc = CsvDoc::new(&refs);
    let max_w = telemetry.iter().map(|(_, t)| t.num_windows()).max().unwrap_or(0);
    let window_ns = telemetry.first().map_or(0, |(_, t)| t.cfg.window_ns);
    for w in 0..max_w {
        let mut row = vec![w.to_string(), (w as u64 * window_ns).to_string()];
        for (_, t) in telemetry {
            row.push(t.latency_quantile(w, 0.99).to_string());
        }
        doc.row_owned(row);
    }
    doc
}

/// ASCII figure: per-system p99 timeline with the SLO line marked.
fn p99_figure(telemetry: &[(&'static str, &TelemetryReport)], scale: &Scale) -> String {
    let mut out = String::new();
    out.push_str("p99 response latency over time (one row per window)\n");
    out.push_str(&format!(
        "scale: '#' bar over [0, max p99]; '|' marks the {} us SLO; '*' = window in violation (miss share > {:.0}%)\n",
        scale.slo_ns / 1000,
        MAX_MISS_SHARE * 100.0,
    ));
    for (name, t) in telemetry {
        let n = t.num_windows();
        let p99s = t.p99_series();
        let max = p99s.iter().copied().max().unwrap_or(0).max(1);
        let viol: Vec<bool> = (0..n)
            .map(|w| t.deadline_miss_share(w) > MAX_MISS_SHARE)
            .collect();
        out.push_str(&format!(
            "\n{name} (max p99 {:.0} us, steady at {})\n",
            max as f64 / 1000.0,
            match t.time_to_steady_ns(STEADY_TOLERANCE) {
                Some(ns) => format!("{:.2} ms", ns as f64 / 1e6),
                None => "never".to_string(),
            },
        ));
        let slo_col = bar_len(scale.slo_ns.min(max), max);
        for (w, &p99) in p99s.iter().enumerate() {
            let mut bar: Vec<char> = vec![' '; BAR_WIDTH + 1];
            for c in bar.iter_mut().take(bar_len(p99, max)) {
                *c = '#';
            }
            if scale.slo_ns <= max {
                bar[slo_col] = '|';
            }
            out.push_str(&format!(
                "{:>4} {:>9} {} {}\n",
                w,
                p99,
                bar.into_iter().collect::<String>(),
                if viol[w] { "*" } else { "" },
            ));
        }
    }
    out
}

/// Bar length for `v` on a [0, max] axis.
fn bar_len(v: u64, max: u64) -> usize {
    ((v as f64 / max as f64) * BAR_WIDTH as f64).round() as usize
}

/// Per-window flash-health metrics of every system, long-ish wide form.
fn flash_health_csv(telemetry: &[(&'static str, &TelemetryReport)]) -> CsvDoc {
    let mut doc = CsvDoc::new(&[
        "system",
        "window",
        "t_start_ns",
        "flash_reads",
        "flash_writes",
        "gc_invocations",
        "gc_erases",
        "gc_migrated_pages",
        "waf",
        "mean_chan_util",
    ]);
    for (name, t) in telemetry {
        for w in 0..t.num_windows() {
            doc.row_owned(vec![
                name.to_string(),
                w.to_string(),
                t.window_start_ns(w).to_string(),
                t.flash.reads.get(w).to_string(),
                t.flash.writes.get(w).to_string(),
                t.flash.gc_invocations.get(w).to_string(),
                t.flash.gc_erases.get(w).to_string(),
                t.flash.gc_migrated_pages.get(w).to_string(),
                format!("{:.4}", t.flash.waf(w)),
                format!("{:.6}", t.flash.mean_chan_util(w)),
            ]);
        }
    }
    doc
}

/// ASCII figure: flash-health timeline (channel utilization bars with
/// GC activity annotations).
fn flash_health_figure(telemetry: &[(&'static str, &TelemetryReport)]) -> String {
    let mut out = String::new();
    out.push_str("flash-health timeline (one row per window)\n");
    out.push_str("scale: '=' bar is mean channel utilization over [0, 1]; annotations show GC erases and WAF\n");
    for (name, t) in telemetry {
        let n = t.num_windows();
        let total_reads = t.flash.reads.total();
        let total_erases = t.flash.gc_erases.total();
        out.push_str(&format!(
            "\n{name} (total: {total_reads} reads, {} writes, {total_erases} GC erases, {} migrated pages)\n",
            t.flash.writes.total(),
            t.flash.gc_migrated_pages.total(),
        ));
        for w in 0..n {
            let util = t.flash.mean_chan_util(w).clamp(0.0, 1.0);
            let len = (util * BAR_WIDTH as f64).round() as usize;
            let mut bar = "=".repeat(len);
            bar.push_str(&" ".repeat(BAR_WIDTH - len));
            let erases = t.flash.gc_erases.get(w);
            let gc_note = if erases > 0 {
                format!("  gc_erases={erases} waf={:.2}", t.flash.waf(w))
            } else {
                String::new()
            };
            out.push_str(&format!("{w:>4} {:>5.1}% {bar}{gc_note}\n", util * 100.0));
        }
    }
    out
}
