//! A sweep builds each distinct dataset once, at any worker count
//! (DESIGN.md §18). The build counter is process-wide, so this file is
//! a test binary of its own with a single test: tests of one binary run
//! in parallel and would count each other's builds.

use astriflash_core::config::{Configuration, SystemConfig};
use astriflash_core::sweep::{Cell, Sweep};
use astriflash_workloads::{dataset_builds, WorkloadKind};

/// Fig. 9's shape: per workload, a DRAM-only cell and then the other six
/// configurations, all at one seed, so each workload is one dataset.
fn fig9_shaped() -> Vec<Cell> {
    let base = SystemConfig::default()
        .with_cores(2)
        .scaled_for_tests()
        .with_threads_per_core(24);
    let mut cells = Vec::new();
    for kind in WorkloadKind::all() {
        for conf in Configuration::all() {
            cells.push(Cell::closed(base.clone().with_workload(kind), conf, 1, 10));
        }
    }
    cells
}

#[test]
fn a_fig9_shaped_sweep_builds_each_dataset_once() {
    let cells = fig9_shaped();
    let datasets = WorkloadKind::all().len() as u64;
    let mut reports = Vec::new();
    for threads in [1, 4] {
        let before = dataset_builds();
        reports.push(Sweep::with_threads(threads).run(&cells));
        // Every dataset is built at least once, so as many builds as
        // datasets means exactly one each.
        assert_eq!(
            dataset_builds() - before,
            datasets,
            "{threads} worker(s): {} cells over {datasets} datasets",
            cells.len()
        );
    }
    // Grouping reorders the runs, never the results.
    for (one, four) in reports[0].iter().zip(&reports[1]) {
        assert_eq!(one.render(), four.render());
    }
}
