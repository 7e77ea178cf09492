//! Runs one AstriFlash cell with the observability layer enabled and
//! writes three artifacts under `results/`:
//!
//! * `results/trace_run.json` — Chrome/Perfetto `trace_event` JSON
//!   (open at <https://ui.perfetto.dev> or `chrome://tracing`), with
//!   every DRAM-cache miss as an async span threading core → BC →
//!   flash channel → scheduler, plus counter tracks for the gauges.
//! * `results/trace_run_gauges.csv` — the sampled gauges in long form
//!   (`t_ns,gauge,lane,value`) for re-plotting.
//! * `results/trace_run_phases.csv` — the run's in-sim per-phase
//!   miss-latency breakdown (DESIGN.md §11), which `trace_analyze`
//!   cross-validates against an independent reconstruction from the
//!   JSON trace.
//!
//! ```text
//! cargo run --release -p astriflash-bench --bin trace_run -- --quick
//! ```
//!
//! The run's report is bit-identical to the same untraced cell, and the
//! trace itself is byte-identical across repeated same-seed runs. The
//! JSON is parsed back before the process exits 0. If the trace ring
//! shed any events the process exits non-zero: a sheared trace would
//! make the offline cross-validation meaningless.

use std::process::ExitCode;

use astriflash_bench::HarnessOpts;
use astriflash_core::config::Configuration;
use astriflash_core::sweep::Cell;
use astriflash_stats::{CsvDoc, Phase};
use astriflash_trace::{export, json, EventKind, Tracer};

fn main() -> ExitCode {
    // Opt-in host-time self-profile (ASTRIFLASH_PROFILE=tree|folded),
    // reported on stderr when the process exits.
    let _prof = astriflash_prof::env_session();
    let opts = HarnessOpts::from_args();
    let cell = Cell::closed(
        opts.system_config(),
        Configuration::AstriFlash,
        opts.seed,
        opts.jobs_per_core(),
    );
    let tracer = Tracer::ring(1 << 20);
    let report = cell.run_traced(tracer.clone());
    let dropped = tracer.dropped();
    let events = tracer.finish();

    let spans = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::SpanBegin))
        .count();
    let gauges = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Gauge { .. }))
        .count();

    let perfetto = export::perfetto_json(&events, dropped, &[]);
    if let Err(e) = json::parse(&perfetto) {
        eprintln!("error: generated trace JSON failed validation: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write("results/trace_run.json", &perfetto))
    {
        eprintln!("error: writing results/trace_run.json: {e}");
        return ExitCode::FAILURE;
    }
    let csv = export::gauges_csv(&events, dropped);
    if let Err(e) = csv.write_to("results/trace_run_gauges.csv") {
        eprintln!("error: writing results/trace_run_gauges.csv: {e}");
        return ExitCode::FAILURE;
    }
    let phases = phases_csv(&report);
    if let Err(e) = phases.write_to("results/trace_run_phases.csv") {
        eprintln!("error: writing results/trace_run_phases.csv: {e}");
        return ExitCode::FAILURE;
    }

    println!("{}", report.render());
    println!(
        "trace: {} events ({spans} miss spans, {gauges} gauge samples, {dropped} dropped)",
        events.len()
    );
    println!("wrote results/trace_run.json ({} bytes)", perfetto.len());
    println!("wrote results/trace_run_gauges.csv ({} rows)", csv.num_rows());
    println!(
        "wrote results/trace_run_phases.csv ({} completed misses)",
        report.phases.completed_misses()
    );
    if dropped > 0 {
        eprintln!(
            "error: trace ring dropped {dropped} events; the exported trace is \
             incomplete (raise the ring capacity or shrink the run)"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The in-sim phase breakdown as a CSV:
/// `phase,count,sum_ns,p50_ns,p95_ns,p99_ns,p999_ns,share`.
fn phases_csv(report: &astriflash_core::experiment::RunReport) -> CsvDoc {
    let mut doc = CsvDoc::new(&[
        "phase", "count", "sum_ns", "p50_ns", "p95_ns", "p99_ns", "p999_ns", "share",
    ]);
    for phase in Phase::all() {
        let h = report.phases.hist(phase);
        let p = report.phases.percentiles(phase);
        doc.row_owned(vec![
            phase.label().to_string(),
            format!("{}", h.count()),
            format!("{}", h.sum()),
            format!("{}", p[0]),
            format!("{}", p[1]),
            format!("{}", p[2]),
            format!("{}", p[3]),
            format!("{:.6}", report.phases.share(phase)),
        ]);
    }
    doc
}
