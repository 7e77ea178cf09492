//! The host-side profiler must never change a `RunReport`, and its call
//! counts must tie exactly to the run's own counts.
//!
//! The profiler reads the host monotonic clock on scope enter/exit; nothing
//! it observes may feed back into simulation decisions. These tests mirror
//! `tracing_does_not_perturb_the_run`: the same experiment with profiling
//! attached must produce byte-identical results — every float compared by
//! bit pattern, the full rendered report compared as a string.

use astriflash_core::config::{Configuration, SystemConfig};
use astriflash_core::experiment::RunReport;
use astriflash_core::sweep::Cell;
use astriflash_prof::Scope;

fn run(config: Configuration) -> RunReport {
    Cell::closed(
        SystemConfig::default().with_cores(2).scaled_for_tests(),
        config,
        7,
        40,
    )
    .run()
}

fn assert_reports_identical(plain: &RunReport, profiled: &RunReport) {
    assert_eq!(plain.jobs_completed, profiled.jobs_completed);
    assert_eq!(plain.events_processed, profiled.events_processed);
    assert_eq!(
        plain.measured_seconds.to_bits(),
        profiled.measured_seconds.to_bits()
    );
    assert_eq!(
        plain.throughput_jobs_per_sec.to_bits(),
        profiled.throughput_jobs_per_sec.to_bits()
    );
    assert_eq!(
        plain.mean_service_ns.to_bits(),
        profiled.mean_service_ns.to_bits()
    );
    assert_eq!(plain.render(), profiled.render());
}

#[test]
fn profiling_does_not_perturb_the_run() {
    for config in [
        Configuration::AstriFlash,
        Configuration::OsSwap,
        Configuration::FlashSync,
    ] {
        let plain = run(config);
        let session = astriflash_prof::begin();
        let profiled = run(config);
        let report = session.finish();
        assert_reports_identical(&plain, &profiled);
        // The profile itself must be non-trivial: the hot scopes fired.
        assert!(report.totals(Scope::EventLoop).calls >= 1);
        assert!(report.totals(Scope::FillJob).calls >= plain.jobs_completed);
        assert!(report.totals(Scope::MissPath).calls > 0, "{config:?}");
        let rerun = run(config);
        assert_reports_identical(&plain, &rerun);
    }
}

#[test]
fn profiling_a_prepared_run_changes_nothing() {
    let cell = Cell::closed(
        SystemConfig::default().with_cores(2).scaled_for_tests(),
        Configuration::AstriFlash,
        11,
        30,
    );
    let plain = cell.prepare().run();
    let prepared = cell.prepare();
    let session = astriflash_prof::begin();
    let profiled = prepared.run();
    let report = session.finish();
    assert_reports_identical(&plain, &profiled);
    // With the session opened after prepare(), the DRAM prewarm's
    // fill_job calls are excluded: every counted call started in the run.
    assert_eq!(
        report.totals(Scope::EvResume).calls
            + report.totals(Scope::EvPageArrived).calls
            + report.totals(Scope::EvArrival).calls,
        profiled.events_processed,
        "per-event scopes must tile the event loop exactly"
    );
    assert_eq!(
        report.totals(Scope::QueueCascade).calls,
        profiled.events_processed,
        "the event queue enters its scope once per popped event"
    );
    let count = |name: &str| profiled.metrics.count(name).unwrap_or(0);
    let misses = count("dram_cache_misses");
    assert!(misses > 0, "the run must exercise the miss path");
    assert_eq!(
        report.totals(Scope::MissPath).calls,
        misses,
        "handle_miss has one call site, entered once per DRAM-cache miss"
    );
    let (fills, jobs) = (report.totals(Scope::FillJob).calls, count("jobs_total"));
    assert!(
        fills >= jobs,
        "every counted job was generated by fill_job ({fills} < {jobs})"
    );
    // The in-flight tail at shutdown is bounded by the closed loop's
    // outstanding window (cores × threads), far under one extra fill
    // per completed job.
    assert!(
        fills <= jobs * 2,
        "fill_job fired {fills} times for {jobs} jobs — more than the \
         in-flight tail can explain"
    );
}
