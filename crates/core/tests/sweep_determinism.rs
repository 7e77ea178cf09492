//! Determinism contract of the parallel sweep engine: the same cells
//! produce bit-identical reports run-to-run and at any worker count.

use astriflash_core::config::{Configuration, SystemConfig};
use astriflash_core::experiments::{fig1, fig10, fig9, table2};
use astriflash_core::sweep::{Cell, Sweep};
use astriflash_workloads::{WorkloadKind, WorkloadParams};

fn cfg() -> SystemConfig {
    SystemConfig::default()
        .with_cores(2)
        .scaled_for_tests()
        .with_threads_per_core(24)
}

fn grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    for conf in [
        Configuration::DramOnly,
        Configuration::AstriFlash,
        Configuration::OsSwap,
        Configuration::FlashSync,
    ] {
        for seed in [1u64, 2, 3] {
            cells.push(Cell::closed(cfg(), conf, seed, 25));
        }
    }
    cells
}

#[test]
fn same_seed_twice_is_bit_identical() {
    let sweep = Sweep::with_threads(4);
    let a = sweep.run(&grid());
    let b = sweep.run(&grid());
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(
            x.throughput_jobs_per_sec.to_bits(),
            y.throughput_jobs_per_sec.to_bits()
        );
        assert_eq!(x.p99_service_ns, y.p99_service_ns);
        assert_eq!(x.render(), y.render());
    }
}

#[test]
fn one_thread_and_eight_threads_merge_identically() {
    let serial = Sweep::with_threads(1).run(&grid());
    let parallel = Sweep::with_threads(8).run(&grid());
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.configuration, p.configuration);
        assert_eq!(
            s.throughput_jobs_per_sec.to_bits(),
            p.throughput_jobs_per_sec.to_bits()
        );
        assert_eq!(s.jobs_completed, p.jobs_completed);
        assert_eq!(s.p99_service_ns, p.p99_service_ns);
        assert_eq!(s.p99_response_ns, p.p99_response_ns);
        assert_eq!(s.miss_interval_us.to_bits(), p.miss_interval_us.to_bits());
        assert_eq!(s.render(), p.render());
    }
}

/// Every workload under every configuration, at one seed no other test
/// here uses. Cells of one workload share a dataset build while they
/// overlap (DESIGN.md §18), and which ones overlap depends on the worker
/// count.
fn all_kinds_grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    for kind in WorkloadKind::all() {
        for conf in Configuration::all() {
            cells.push(Cell::closed(cfg().with_workload(kind), conf, 11, 25));
        }
    }
    cells
}

#[test]
fn shared_datasets_change_no_report() {
    let cells = all_kinds_grid();
    let serial = Sweep::with_threads(1).run(&cells);
    let parallel = Sweep::with_threads(8).run(&cells);
    for (i, cell) in cells.iter().enumerate() {
        // Run alone: no other cell of its workload is alive.
        let alone = cell.run();
        for (name, other) in [("8 threads", &parallel[i]), ("alone", &alone)] {
            let s = &serial[i];
            let what = format!("{} on {}, {name}", cell.cfg.workload, cell.configuration);
            assert_eq!(
                s.throughput_jobs_per_sec.to_bits(),
                other.throughput_jobs_per_sec.to_bits(),
                "{what}"
            );
            assert_eq!(s.events_processed, other.events_processed, "{what}");
            assert_eq!(s.render(), other.render(), "{what}");
        }
    }
}

#[test]
fn fig1_thread_count_does_not_change_output() {
    let params = WorkloadParams::tiny_for_tests();
    let workloads = [WorkloadKind::HashTable, WorkloadKind::ArraySwap];
    let fractions = [0.01, 0.03, 0.08];
    let run = |threads| {
        fig1::sweep_with(
            &Sweep::with_threads(threads),
            &params,
            &workloads,
            &fractions,
            30_000,
            1,
        )
    };
    let serial = run(1);
    let parallel = run(8);
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.miss_ratio.to_bits(), p.miss_ratio.to_bits());
        assert_eq!(
            s.flash_bw_64core_gbps.to_bits(),
            p.flash_bw_64core_gbps.to_bits()
        );
    }
}

#[test]
fn fig9_thread_count_does_not_change_output() {
    let base = cfg();
    let workloads = [WorkloadKind::HashTable, WorkloadKind::Tatp];
    let configs = [
        Configuration::DramOnly,
        Configuration::AstriFlash,
        Configuration::FlashSync,
    ];
    let run = |threads| {
        fig9::run_matrix_with(
            &Sweep::with_threads(threads),
            &base,
            &workloads,
            &configs,
            25,
            1,
        )
    };
    let serial = run(1);
    let parallel = run(8);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.workload, p.workload);
        assert_eq!(s.configuration, p.configuration);
        assert_eq!(s.throughput.to_bits(), p.throughput.to_bits());
        assert_eq!(s.normalized.to_bits(), p.normalized.to_bits());
    }
}

#[test]
fn fig10_thread_count_does_not_change_output() {
    let base = cfg();
    let run = |threads| {
        fig10::sweep_with(&Sweep::with_threads(threads), &base, &[0.4, 0.8], 120, 7)
    };
    let serial = run(1);
    let parallel = run(8);
    assert_eq!(
        serial.saturation.to_bits(),
        parallel.saturation.to_bits()
    );
    for (s, p) in serial
        .dram_only
        .iter()
        .chain(&serial.astriflash)
        .zip(parallel.dram_only.iter().chain(&parallel.astriflash))
    {
        assert_eq!(s.achieved_load.to_bits(), p.achieved_load.to_bits());
        assert_eq!(s.p99_norm.to_bits(), p.p99_norm.to_bits());
    }
}

#[test]
fn table2_thread_count_does_not_change_output() {
    let base = cfg();
    let serial = table2::run_with(&Sweep::with_threads(1), &base, 40, 3);
    let parallel = table2::run_with(&Sweep::with_threads(8), &base, 40, 3);
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.configuration, p.configuration);
        assert_eq!(s.p99_service_ns, p.p99_service_ns);
        assert_eq!(s.normalized.to_bits(), p.normalized.to_bits());
    }
}
