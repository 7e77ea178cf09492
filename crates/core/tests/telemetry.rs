//! Integration tests for the windowed-telemetry layer (DESIGN.md §13):
//! attaching telemetry never changes the simulated outcome, emitted
//! series are worker-count invariant, and a full-scale golden pins the
//! seed-1 timeline of the `telemetry_report` AstriFlash cell.

use astriflash_core::config::{Configuration, SystemConfig};
use astriflash_core::sweep::{Cell, Sweep};
use astriflash_core::telemetry::TelemetryCfg;

/// A small config that runs in debug-mode test time.
fn small_cfg() -> SystemConfig {
    SystemConfig::default().with_cores(4).scaled_for_tests()
}

fn small_telem() -> TelemetryCfg {
    TelemetryCfg::default()
        .with_window_ns(250_000)
        .with_slo_ns(250_000)
}

/// Attaching telemetry is pure bookkeeping: the rendered report, the
/// processed-event count, and the phase attribution of a run with
/// telemetry are byte-identical to the same run without it. (This is
/// the property that lets goldens stay byte-identical while telemetry
/// ships in the same binary.)
#[test]
fn telemetry_attach_leaves_run_report_identical() {
    for configuration in [
        Configuration::AstriFlash,
        Configuration::OsSwap,
        Configuration::FlashSync,
    ] {
        let plain = Cell::open(small_cfg(), configuration, 7, 4_000.0, 600).run();
        let telem_cfg = small_cfg().with_telemetry(small_telem());
        let traced = Cell::open(telem_cfg, configuration, 7, 4_000.0, 600).run();

        assert!(plain.telemetry.is_none());
        let telemetry = traced
            .telemetry
            .as_ref()
            .expect("telemetry was configured");
        assert!(telemetry.num_windows() > 0);
        assert_eq!(
            plain.render(),
            traced.render(),
            "{configuration:?}: telemetry attach changed the rendered report"
        );
        assert_eq!(plain.events_processed, traced.events_processed);
        assert_eq!(plain.phases, traced.phases);
    }
}

/// The telemetry reports of a sweep are byte-identical at any worker
/// count: cells are independent and results merge in input order.
#[test]
fn telemetry_series_identical_across_worker_counts() {
    let cfg = small_cfg().with_telemetry(small_telem());
    let cells: Vec<Cell> = [
        Configuration::AstriFlash,
        Configuration::OsSwap,
        Configuration::FlashSync,
    ]
    .into_iter()
    .map(|c| Cell::open(cfg.clone(), c, 1, 4_000.0, 500))
    .collect();

    let reference: Vec<_> = Sweep::with_threads(1)
        .run(&cells)
        .into_iter()
        .map(|r| r.telemetry.expect("configured"))
        .collect();
    for threads in [2, 8] {
        let got: Vec<_> = Sweep::with_threads(threads)
            .run(&cells)
            .into_iter()
            .map(|r| r.telemetry.expect("configured"))
            .collect();
        assert_eq!(
            got, reference,
            "telemetry diverged at {threads} worker threads"
        );
    }
}

/// The telemetry windows are the one time-resolved source, so they must
/// add up. For every configuration closed-loop, and one open-loop cell,
/// the per-window completions, flash reads and flash writes sum to the
/// run's totals, nothing is dropped, and every core (each completes
/// jobs in these cells) has non-zero windowed busy time.
#[test]
fn window_counts_sum_to_run_totals() {
    let cfg = SystemConfig::default()
        .with_cores(2)
        .scaled_for_tests()
        .with_telemetry(small_telem());
    let mut cells: Vec<Cell> = Configuration::all()
        .into_iter()
        .map(|c| Cell::closed(cfg.clone(), c, 5, 40))
        .collect();
    cells.push(Cell::open(cfg, Configuration::AstriFlash, 5, 4_000.0, 300));
    for (cell, report) in cells.iter().zip(Sweep::with_threads(2).run(&cells)) {
        let label = format!("{:?} {:?}", cell.configuration, cell.load);
        let t = report.telemetry.as_ref().expect("configured");
        let count = |name: &str| report.metrics.count(name).expect(name);
        assert_eq!(t.dropped(), 0, "{label}");
        assert_eq!(t.core.completions.total(), count("jobs_total"), "{label}");
        assert_eq!(t.flash.reads.total(), count("flash_reads"), "{label}");
        assert_eq!(t.flash.writes.total(), count("flash_writebacks"), "{label}");
        assert_eq!(t.core.busy_ns.len(), 2, "{label}");
        for (core, busy) in t.core.busy_ns.iter().enumerate() {
            assert!(busy.total() > 0, "{label}: core {core} never busy");
        }
    }
}

/// A core's busy time ends where it stopped executing (DESIGN.md §13).
/// A one-core closed-loop run never sits idle unless an MSR stall makes
/// it wait for a retry: a park switches straight to another thread, and
/// a block waits until the page arrives. So without MSR stalls its
/// windowed busy time plus its blocked time is the whole run, to the
/// nanosecond, under every configuration.
#[test]
fn one_core_busy_plus_blocked_time_is_the_whole_run() {
    let cfg = SystemConfig::default()
        .with_cores(1)
        .scaled_for_tests()
        .with_telemetry(small_telem());
    let cells: Vec<Cell> = Configuration::all()
        .into_iter()
        .map(|c| Cell::closed(cfg.clone(), c, 3, 60))
        .collect();
    for (cell, report) in cells.iter().zip(Sweep::with_threads(2).run(&cells)) {
        let label = format!("{:?}", cell.configuration);
        assert_eq!(report.metrics.count("msr_stalls"), Some(0), "{label}");
        let blocked = report
            .metrics
            .float("blocked_total")
            .expect("blocked_total") as u64;
        let t = report.telemetry.as_ref().expect("configured");
        assert_eq!(t.dropped(), 0, "{label}");
        assert_eq!(
            t.core.busy_ns[0].total() + blocked,
            t.end_ns,
            "{label}: busy + blocked time is not the run's length"
        );
    }
}

/// Full-scale golden pinning the seed-1 AstriFlash cell that
/// `telemetry_report` runs (60k jobs at 1M offered jobs/s, 1 ms
/// windows, 250 us SLO): the complete per-window p99 series, the
/// steady-state reference, and the time-to-steady metric.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full-scale golden; run with `cargo test --release`"
)]
fn telemetry_report_astriflash_timeline_golden() {
    let cfg = SystemConfig::default().with_telemetry(
        TelemetryCfg::default()
            .with_window_ns(1_000_000)
            .with_slo_ns(250_000),
    );
    let report = Cell::open(cfg, Configuration::AstriFlash, 1, 1_000.0, 60_000).run();
    let t = report.telemetry.expect("configured");

    assert_eq!(t.dropped(), 0);
    assert_eq!(t.num_windows(), 67);
    assert_eq!(t.steady_reference_p99(), Some(135_167));
    assert_eq!(t.time_to_steady_window(0.15), Some(0));
    assert_eq!(t.time_to_steady_ns(0.15), Some(1_000_000));
    assert!(t.violation_intervals(0.01).is_empty());

    // The full-scale `telemetry_report` AstriFlash p99 series (the
    // committed results/ artifacts are the --quick run), pinned in
    // full.
    let expected_p99: [u64; 67] = [
        151551, 122879, 143359, 135167, 143359, 135167, 139263, 143359, 139263, 131071, 139263,
        147455, 135167, 151551, 135167, 135167, 139263, 116735, 139263, 139263, 139263, 139263,
        143359, 120831, 135167, 131071, 135167, 139263, 124927, 139263, 151551, 126975, 143359,
        139263, 139263, 129023, 126975, 129023, 143359, 143359, 131071, 139263, 143359, 135167,
        135167, 135167, 147455, 131071, 139263, 126975, 139263, 147455, 122879, 131071, 120831,
        135167, 147455, 129023, 118783, 129023, 147455, 116735, 135167, 135167, 126975, 139263,
        124927,
    ];
    assert_eq!(t.p99_series(), expected_p99);
}
