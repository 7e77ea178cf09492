//! Fig. 9: simulated throughput of every configuration, normalized to
//! DRAM-only, per workload (§VI-A).
//!
//! Paper results: AstriFlash ≈95 %, AstriFlash-Ideal ≈96 %,
//! OS-Swap ≈58 %, Flash-Sync ≈27 % of DRAM-only on average.

use crate::config::{Configuration, SystemConfig};
use crate::sweep::{Cell, Sweep};
use astriflash_workloads::WorkloadKind;

/// Normalized throughput of one (workload, configuration) cell.
#[derive(Debug, Clone)]
pub struct Fig9Cell {
    /// Workload name.
    pub workload: &'static str,
    /// Configuration.
    pub configuration: Configuration,
    /// Raw throughput, jobs/s.
    pub throughput: f64,
    /// Throughput normalized to the same workload's DRAM-only run.
    pub normalized: f64,
    /// Observed per-core DRAM-cache miss interval (µs).
    pub miss_interval_us: f64,
}

/// Runs the Fig. 9 matrix for the given workloads and configurations on
/// the environment-configured sweep pool (`ASTRIFLASH_THREADS`).
pub fn run_matrix(
    base: &SystemConfig,
    workloads: &[WorkloadKind],
    configurations: &[Configuration],
    jobs_per_core: u64,
    seed: u64,
) -> Vec<Fig9Cell> {
    run_matrix_with(
        &Sweep::from_env(),
        base,
        workloads,
        configurations,
        jobs_per_core,
        seed,
    )
}

/// [`run_matrix`] with an explicit worker pool.
///
/// The matrix is flattened into independent simulation cells — one
/// DRAM-only baseline per workload plus one cell per non-DRAM
/// configuration — so every cell packs onto the pool individually
/// (finer-grained than the per-workload threads the harness used
/// before). Results come back in `workloads` × `configurations` order
/// regardless of completion order.
pub fn run_matrix_with(
    sweep: &Sweep,
    base: &SystemConfig,
    workloads: &[WorkloadKind],
    configurations: &[Configuration],
    jobs_per_core: u64,
    seed: u64,
) -> Vec<Fig9Cell> {
    // `None` marks the per-workload DRAM-only baseline cell.
    let mut cells: Vec<Cell> = Vec::new();
    let mut tags: Vec<(usize, Option<Configuration>)> = Vec::new();
    for (wi, &wl) in workloads.iter().enumerate() {
        let cfg = base.clone().with_workload(wl);
        cells.push(Cell::closed(
            cfg.clone(),
            Configuration::DramOnly,
            seed,
            jobs_per_core,
        ));
        tags.push((wi, None));
        for &conf in configurations {
            if conf != Configuration::DramOnly {
                cells.push(Cell::closed(cfg.clone(), conf, seed, jobs_per_core));
                tags.push((wi, Some(conf)));
            }
        }
    }
    let reports = sweep.run(&cells);

    let mut out = Vec::with_capacity(workloads.len() * configurations.len());
    for (wi, &wl) in workloads.iter().enumerate() {
        let report_for = |conf: Option<Configuration>| {
            reports
                .iter()
                .zip(&tags)
                .find(|(_, &(i, c))| i == wi && c == conf)
                .map(|(r, _)| r)
                .expect("matrix cell was scheduled")
        };
        let dram = report_for(None);
        for &conf in configurations {
            let r = if conf == Configuration::DramOnly {
                dram
            } else {
                report_for(Some(conf))
            };
            out.push(Fig9Cell {
                workload: wl.name(),
                configuration: conf,
                throughput: r.throughput_jobs_per_sec,
                normalized: r.throughput_jobs_per_sec / dram.throughput_jobs_per_sec,
                miss_interval_us: r.miss_interval_us,
            });
        }
    }
    out
}

/// Geometric-mean normalized throughput of `configuration` across the
/// matrix. Every cell counts: one that completed nothing (0.0) makes
/// the mean 0 rather than silently dropping out of it.
pub fn geomean_normalized(cells: &[Fig9Cell], configuration: Configuration) -> f64 {
    let vals: Vec<f64> = cells
        .iter()
        .filter(|c| c.configuration == configuration)
        .map(|c| c.normalized)
        .collect();
    if vals.is_empty() {
        return 0.0;
    }
    (vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_paper_on_small_run() {
        let base = SystemConfig::default()
            .with_cores(2)
            .scaled_for_tests()
            // Enough threads that the pending queue is not the binding
            // constraint at the tiny scale's high miss density.
            .with_threads_per_core(32);
        let cells = run_matrix(
            &base,
            &[WorkloadKind::HashTable],
            &[
                Configuration::DramOnly,
                Configuration::AstriFlash,
                Configuration::OsSwap,
                Configuration::FlashSync,
            ],
            60,
            11,
        );
        let get = |c: Configuration| {
            cells
                .iter()
                .find(|x| x.configuration == c)
                .unwrap()
                .normalized
        };
        assert!((get(Configuration::DramOnly) - 1.0).abs() < 1e-9);
        let astri = get(Configuration::AstriFlash);
        let os = get(Configuration::OsSwap);
        let sync = get(Configuration::FlashSync);
        assert!(astri > os, "AstriFlash {astri} should beat OS-Swap {os}");
        assert!(os > sync, "OS-Swap {os} should beat Flash-Sync {sync}");
    }

    fn cell(workload: &'static str, normalized: f64) -> Fig9Cell {
        Fig9Cell {
            workload,
            configuration: Configuration::AstriFlash,
            throughput: normalized * 10.0,
            normalized,
            miss_interval_us: f64::INFINITY,
        }
    }

    #[test]
    fn geomean_of_identity_is_one() {
        let cells = [cell("a", 1.0), cell("b", 1.0)];
        assert!((geomean_normalized(&cells, Configuration::AstriFlash) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_zero_cell_drives_the_geomean_to_zero() {
        let cells = [cell("a", 0.9), cell("b", 0.0), cell("c", 0.8)];
        assert_eq!(geomean_normalized(&cells, Configuration::AstriFlash), 0.0);
    }
}
