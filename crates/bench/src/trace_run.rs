//! One AstriFlash cell with the observability layer enabled, exported
//! as three files:
//!
//! * `trace_run.json` — Chrome/Perfetto `trace_event` JSON (open at
//!   <https://ui.perfetto.dev> or `chrome://tracing`), with every
//!   DRAM-cache miss as an async span threading core → BC → flash
//!   channel → scheduler, plus counter tracks for the gauges: the
//!   backside controller's `msr_occupancy` at every change, and the
//!   run's 10 µs telemetry windows as `win_*` series (DESIGN.md §13).
//! * `trace_run_gauges.csv` — the gauges in long form
//!   (`t_ns,gauge,lane,value`) for re-plotting.
//! * `trace_run_phases.csv` — the run's in-sim per-phase miss-latency
//!   breakdown (DESIGN.md §11), which `trace_analyze` cross-validates
//!   against an independent reconstruction from the JSON trace.
//!
//! The run's report is bit-identical to the same untraced cell, and the
//! trace itself is byte-identical across repeated same-seed runs.

use astriflash_core::config::Configuration;
use astriflash_core::experiment::RunReport;
use astriflash_core::sweep::Cell;
use astriflash_core::telemetry::TelemetryCfg;
use astriflash_stats::{CsvDoc, Phase};
use astriflash_trace::{export, json, EventKind, Tracer};

use crate::{HarnessOpts, Output};

/// The files [`build`] returns, in order, relative to `results/`.
pub const FILES: [&str; 3] = [
    "trace_run.json",
    "trace_run_gauges.csv",
    "trace_run_phases.csv",
];

/// Telemetry window of the traced cell: its counter tracks step every
/// 10 µs.
const WINDOW_NS: u64 = 10_000;

/// Runs the traced cell at `opts`' scale and seed. Fails if the JSON
/// does not parse back (`json::check`), the trace ring dropped events
/// or a telemetry window was dropped: a sheared trace would make the
/// offline cross-validation meaningless.
pub fn build(opts: &HarnessOpts) -> Result<Output, String> {
    let cfg = opts
        .system_config()
        .with_telemetry(TelemetryCfg::default().with_window_ns(WINDOW_NS));
    let cell = Cell::closed(
        cfg,
        Configuration::AstriFlash,
        opts.seed,
        opts.jobs_per_core(),
    );
    let tracer = Tracer::ring(1 << 20);
    let report = cell.run_traced(tracer.clone());
    let dropped = tracer.dropped();
    let events = tracer.finish();

    let telemetry = report.telemetry.as_ref().expect("telemetry was configured");
    if telemetry.dropped() > 0 {
        return Err(format!(
            "{} telemetry observations dropped past the window cap; the \
             counter tracks are truncated (shrink the run)",
            telemetry.dropped()
        ));
    }

    let perfetto = export::perfetto_json(&events, dropped, &[]);
    json::check(&perfetto).map_err(|e| format!("generated trace JSON failed validation: {e}"))?;
    if dropped > 0 {
        return Err(format!(
            "trace ring dropped {dropped} events; the exported trace is \
             incomplete (raise the ring capacity or shrink the run)"
        ));
    }

    let spans = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::SpanBegin))
        .count();
    let gauges = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Gauge { .. }))
        .count();
    let summary = format!(
        "{}\ntrace: {} events ({spans} miss spans, {gauges} gauge samples), {} completed misses\n",
        report.render(),
        events.len(),
        report.phases.completed_misses()
    );
    Ok(Output {
        files: vec![
            perfetto,
            export::gauges_csv(&events, dropped).render(),
            phases_csv(&report).render(),
        ],
        uncommitted: Vec::new(),
        summary,
    })
}

/// The in-sim phase breakdown as a CSV:
/// `phase,count,sum_ns,p50_ns,p95_ns,p99_ns,p999_ns,share`.
fn phases_csv(report: &RunReport) -> CsvDoc {
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
