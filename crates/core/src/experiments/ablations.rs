//! Ablations of AstriFlash design choices beyond the paper's own
//! configurations (DESIGN.md §5): the Miss Status Row capacity, the
//! user-level thread count, the thread-switch cost, the scheduler's
//! aging threshold, and DRAM-cache associativity.

use crate::config::{Configuration, SystemConfig};
use crate::experiment::RunReport;
use crate::sweep::{Cell, Sweep};

/// One point of a single-knob ablation sweep.
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// Knob value (unitless; see the sweep's docs for the unit).
    pub value: f64,
    /// Throughput in jobs/s.
    pub throughput: f64,
    /// p99 service latency (ns).
    pub p99_service_ns: u64,
    /// Observed forced-synchronous completions (aging ablation signal).
    pub forced_synchronous: u64,
}

fn point(value: f64, r: &RunReport) -> AblationPoint {
    AblationPoint {
        value,
        throughput: r.throughput_jobs_per_sec,
        p99_service_ns: r.p99_service_ns,
        forced_synchronous: r.metrics.count("forced_synchronous").unwrap_or(0),
    }
}

/// Shared knob-sweep runner: every `(knob value, config)` pair becomes
/// an AstriFlash cell on the environment-configured pool, and points
/// come back in knob order.
fn run_knob(knobs: Vec<(f64, SystemConfig)>, jobs: u64, seed: u64) -> Vec<AblationPoint> {
    let cells: Vec<Cell> = knobs
        .iter()
        .map(|(_, cfg)| Cell::closed(cfg.clone(), Configuration::AstriFlash, seed, jobs))
        .collect();
    let reports = Sweep::from_env().run(&cells);
    knobs
        .iter()
        .zip(&reports)
        .map(|(&(value, _), r)| point(value, r))
        .collect()
}

/// Sweeps the Miss Status Row capacity (`sets`×8 entries). The paper's
/// point: SRAM-MSHR-sized tracking (tens of entries) cannot sustain the
/// 100s of concurrent misses a µs-latency backing store creates
/// (§IV-B2).
pub fn msr_capacity(
    base: &SystemConfig,
    geometries: &[(usize, usize)],
    jobs: u64,
    seed: u64,
) -> Vec<AblationPoint> {
    run_knob(
        geometries
            .iter()
            .map(|&(sets, ways)| {
                (
                    (sets * ways) as f64,
                    base.clone().with_msr_geometry(sets, ways),
                )
            })
            .collect(),
        jobs,
        seed,
    )
}

/// Sweeps user-level threads per core. Too few threads cannot cover the
/// flash window (the pending queue saturates); the paper uses 32–64
/// (§V-A).
pub fn thread_count(base: &SystemConfig, threads: &[usize], jobs: u64, seed: u64) -> Vec<AblationPoint> {
    run_knob(
        threads
            .iter()
            .map(|&t| (t as f64, base.clone().with_threads_per_core(t)))
            .collect(),
        jobs,
        seed,
    )
}

/// Sweeps the thread-switch cost from AstriFlash's 100 ns toward
/// OS-context-switch territory (~5 µs, §II-C) — bridging Fig. 9's
/// AstriFlash and OS-Swap bars.
pub fn switch_cost(base: &SystemConfig, costs_ns: &[u64], jobs: u64, seed: u64) -> Vec<AblationPoint> {
    run_knob(
        costs_ns
            .iter()
            .map(|&c| (c as f64, base.clone().with_switch_cost_ns(c)))
            .collect(),
        jobs,
        seed,
    )
}

/// Sweeps the aging-threshold multiplier. At 1× the guard fires on
/// ordinary response-time variance and forced synchronous blocks eat
/// the cores; large values approach pure notification-driven
/// scheduling (§IV-D2).
pub fn aging_multiplier(base: &SystemConfig, multipliers: &[f64], jobs: u64, seed: u64) -> Vec<AblationPoint> {
    run_knob(
        multipliers
            .iter()
            .map(|&m| (m, base.clone().with_aging_multiplier(m)))
            .collect(),
        jobs,
        seed,
    )
}

/// Sweeps DRAM-cache associativity (the paper fixes 8 ways — one 64 B
/// tag column, §IV-B1).
pub fn dram_cache_ways(base: &SystemConfig, ways: &[usize], jobs: u64, seed: u64) -> Vec<AblationPoint> {
    run_knob(
        ways.iter()
            .map(|&w| {
                let mut cfg = base.clone();
                // Associativity is set on the derived DramCacheConfig via
                // a dedicated hook: stash it in the config.
                cfg.dram_cache_ways = Some(w);
                (w as f64, cfg)
            })
            .collect(),
        jobs,
        seed,
    )
}

/// Sweeps the second-level TLB reach. With a 2 GiB-scale dataset even
/// 1536 entries cover <2 % of the hot pages, so page-table-walk time is
/// a steady tax; the sweep quantifies how much translation reach buys
/// (§IV-A's motivation for Midgard-class schemes).
pub fn tlb_reach(base: &SystemConfig, entries: &[usize], jobs: u64, seed: u64) -> Vec<AblationPoint> {
    run_knob(
        entries
            .iter()
            .map(|&e| (e as f64, base.clone().with_tlb_geometry(e, 6.min(e))))
            .collect(),
        jobs,
        seed,
    )
}

/// Sweeps flash parallelism (dies per channel): the §II-A provisioning
/// rule made concrete — an under-provisioned device saturates and the
/// whole system becomes flash-bound.
pub fn flash_provisioning(
    base: &SystemConfig,
    dies_per_channel: &[usize],
    jobs: u64,
    seed: u64,
) -> Vec<AblationPoint> {
    run_knob(
        dies_per_channel
            .iter()
            .map(|&dies| {
                let mut cfg = base.clone();
                cfg.flash.dies_per_channel = dies;
                (dies as f64, cfg)
            })
            .collect(),
        jobs,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SystemConfig {
        SystemConfig::default()
            .with_cores(2)
            .scaled_for_tests()
            .with_threads_per_core(24)
    }

    #[test]
    fn starved_msr_loses_throughput() {
        // 3 entries (SRAM-MSHR class) against the default 512: with two
        // cores covering ~7 concurrent flash reads, a 3-entry table must
        // stall admissions and cost throughput.
        let pts = msr_capacity(&base(), &[(1, 3), (64, 8)], 60, 3);
        assert!(
            pts[0].throughput < pts[1].throughput,
            "3-entry MSR should throttle throughput: {} vs {}",
            pts[0].throughput,
            pts[1].throughput
        );
    }

    #[test]
    fn too_few_threads_cannot_cover_flash() {
        let pts = thread_count(&base(), &[2, 24], 60, 3);
        assert!(pts[0].throughput < pts[1].throughput);
    }

    #[test]
    fn os_class_switch_cost_hurts() {
        let pts = switch_cost(&base(), &[0, 5_000], 60, 3);
        assert!(pts[1].throughput < pts[0].throughput);
    }

    #[test]
    fn tight_aging_forces_synchronous_blocks() {
        let pts = aging_multiplier(&base(), &[1.0, 4.0], 60, 3);
        assert!(
            pts[0].forced_synchronous >= pts[1].forced_synchronous,
            "1x aging should force at least as many synchronous waits"
        );
    }

    #[test]
    fn starved_flash_is_the_bottleneck() {
        let pts = flash_provisioning(&base(), &[1, 16], 60, 3);
        assert!(
            pts[0].throughput < pts[1].throughput,
            "1 die/channel must throttle: {} vs {}",
            pts[0].throughput,
            pts[1].throughput
        );
    }

    #[test]
    fn tiny_tlb_costs_walk_time() {
        let pts = tlb_reach(&base(), &[16, 1536], 60, 3);
        assert!(
            pts[0].throughput <= pts[1].throughput * 1.02,
            "a 16-entry TLB cannot be faster: {} vs {}",
            pts[0].throughput,
            pts[1].throughput
        );
    }

    #[test]
    fn associativity_sweep_produces_sane_points() {
        // Conflict-miss effects are pattern-dependent at tiny scale, so
        // assert sanity rather than a direction (the full-scale sweep is
        // is the `ablations` artifact of `regen`).
        let pts = dram_cache_ways(&base(), &[1, 8], 60, 3);
        assert!(pts.iter().all(|p| p.throughput > 0.0));
        assert!(pts.iter().all(|p| p.p99_service_ns > 0));
    }
}
