//! Fig. 10: 99th-percentile latency vs load for DRAM-only and
//! AstriFlash under Poisson arrivals (§VI-C).
//!
//! TATP, inter-arrival sweep; X = throughput normalized to DRAM-only
//! maximum, Y = p99 latency normalized to DRAM-only mean service time.
//! Paper claim: AstriFlash at 93 % load matches the tail of DRAM-only at
//! 96 % load.

use crate::config::{Configuration, SystemConfig};
use crate::sweep::{Cell, Sweep};

/// One load point of one system's tail-latency curve.
#[derive(Debug, Clone, Copy)]
pub struct Fig10Point {
    /// Offered load (fraction of DRAM-only saturation).
    pub offered_load: f64,
    /// Achieved throughput normalized to DRAM-only saturation.
    pub achieved_load: f64,
    /// p99 response normalized to DRAM-only mean service time.
    pub p99_norm: f64,
}

/// The two curves of Fig. 10.
#[derive(Debug, Clone)]
pub struct Fig10Curves {
    /// DRAM-only mean service time used for normalization (ns).
    pub base_service_ns: f64,
    /// DRAM-only saturation throughput (jobs/s).
    pub saturation: f64,
    /// DRAM-only tail curve.
    pub dram_only: Vec<Fig10Point>,
    /// AstriFlash tail curve.
    pub astriflash: Vec<Fig10Point>,
}

/// Runs the Fig. 10 sweep on the environment-configured pool. `loads`
/// are fractions of the DRAM-only saturation throughput (0 < load < 1).
pub fn sweep(
    base: &SystemConfig,
    loads: &[f64],
    jobs_per_point: u64,
    seed: u64,
) -> Fig10Curves {
    sweep_with(&Sweep::from_env(), base, loads, jobs_per_point, seed)
}

/// [`sweep`] with an explicit worker pool.
pub fn sweep_with(
    sweep: &Sweep,
    base: &SystemConfig,
    loads: &[f64],
    jobs_per_point: u64,
    seed: u64,
) -> Fig10Curves {
    // The saturation calibration run gates everything else, so it runs
    // up front; both curves' load points then run as one grid.
    let sat_report = Cell::closed(
        base.clone(),
        Configuration::DramOnly,
        seed,
        jobs_per_point.max(100) / base.cores.max(1) as u64 + 50,
    )
    .run();
    let saturation = sat_report.throughput_jobs_per_sec;
    let base_service_ns = sat_report.mean_service_ns;

    // The `seed ^ 0xF10` expression is part of the pinned output
    // contract — do not change it.
    let cells: Vec<Cell> = [Configuration::DramOnly, Configuration::AstriFlash]
        .iter()
        .flat_map(|&conf| {
            loads.iter().map(move |&load| {
                let lambda = load * saturation; // jobs/s
                Cell::open(
                    base.clone(),
                    conf,
                    seed ^ 0xF10,
                    1e9 / lambda,
                    jobs_per_point,
                )
            })
        })
        .collect();
    let points: Vec<Fig10Point> = loads
        .iter()
        .cycle()
        .zip(sweep.run(&cells))
        .map(|(&load, r)| Fig10Point {
            offered_load: load,
            achieved_load: r.throughput_jobs_per_sec / saturation,
            p99_norm: r.p99_response_ns as f64 / base_service_ns,
        })
        .collect();

    Fig10Curves {
        base_service_ns,
        saturation,
        dram_only: points[..loads.len()].to_vec(),
        astriflash: points[loads.len()..].to_vec(),
    }
}

/// Default load grid.
pub fn default_loads() -> Vec<f64> {
    vec![
        0.2, 0.4, 0.6, 0.7, 0.8, 0.85, 0.9, 0.93, 0.95, 0.965, 0.98,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tails_grow_with_load_and_astriflash_pays_flash_at_low_load() {
        let base = SystemConfig::default().with_cores(2).scaled_for_tests();
        let curves = sweep(&base, &[0.3, 0.7], 150, 21);
        assert!(curves.saturation > 0.0);
        // Monotone-ish tails.
        assert!(
            curves.dram_only[1].p99_norm >= curves.dram_only[0].p99_norm * 0.8,
            "DRAM tail should not shrink materially with load"
        );
        // At low load AstriFlash's tail includes flash accesses, so it
        // sits above DRAM-only (§VI-C).
        assert!(
            curves.astriflash[0].p99_norm > curves.dram_only[0].p99_norm,
            "AstriFlash {} vs DRAM {}",
            curves.astriflash[0].p99_norm,
            curves.dram_only[0].p99_norm
        );
    }
}
