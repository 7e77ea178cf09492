//! A sweep builds each distinct dataset once, at any worker count
//! (DESIGN.md §18). The build counter is process-wide, so this file is
//! a test binary of its own with a single test: tests of one binary run
//! in parallel and would count each other's builds.

use astriflash_core::config::{Configuration, SystemConfig};
use astriflash_core::experiments::{fig1, fig10};
use astriflash_core::sweep::{Cell, Sweep};
use astriflash_workloads::{dataset_builds, WorkloadKind, WorkloadParams};

fn base() -> SystemConfig {
    SystemConfig::default().with_cores(2).scaled_for_tests()
}

/// Fig. 9's shape: per workload, a DRAM-only cell and then the other six
/// configurations, all at one seed, so each workload is one dataset.
fn fig9_shaped() -> Vec<Cell> {
    let base = base().with_threads_per_core(24);
    let mut cells = Vec::new();
    for kind in WorkloadKind::all() {
        for conf in Configuration::all() {
            cells.push(Cell::closed(base.clone().with_workload(kind), conf, 1, 10));
        }
    }
    cells
}

/// The datasets `run` builds.
fn builds<R>(run: impl FnOnce() -> R) -> (u64, R) {
    let before = dataset_builds();
    let result = run();
    (dataset_builds() - before, result)
}

#[test]
fn sweeps_build_each_dataset_once() {
    let cells = fig9_shaped();
    let datasets = WorkloadKind::all().len() as u64;
    let fig1_workloads = [WorkloadKind::HashTable, WorkloadKind::Tatp];
    let mut reports = Vec::new();
    for threads in [1, 4] {
        let sweep = Sweep::with_threads(threads);
        // Every dataset is built at least once, so as many builds as
        // datasets means exactly one each.
        let (built, fig9) = builds(|| sweep.run(&cells));
        assert_eq!(
            built,
            datasets,
            "{threads} worker(s): {} cells over {datasets} datasets",
            cells.len()
        );
        reports.push(fig9);
        // Fig. 10: the saturation run's dataset, then the grid's, which
        // all of its load points share.
        let (built, _) = builds(|| fig10::sweep_with(&sweep, &base(), &[0.3, 0.5, 0.7], 40, 21));
        assert_eq!(built, 2, "Fig. 10 at {threads} worker(s)");
        // Fig. 1: one pass per workload, each over a dataset of its own.
        let (built, _) = builds(|| {
            fig1::sweep_with(
                &sweep,
                &WorkloadParams::tiny_for_tests(),
                &fig1_workloads,
                &[0.01, 0.05],
                2_000,
                3,
            )
        });
        assert_eq!(
            built,
            fig1_workloads.len() as u64,
            "Fig. 1 at {threads} worker(s)"
        );
    }
    // Grouping reorders the runs, never the results.
    for (one, four) in reports[0].iter().zip(&reports[1]) {
        assert_eq!(one.render(), four.render());
    }
}
