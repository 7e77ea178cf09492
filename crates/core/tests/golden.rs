//! Golden regression tests for numbers that are not committed
//! artifacts: the analytic Fig. 3 saturation throughputs and the 200-job
//! per-phase breakdown.
//!
//! The figures and tables themselves are pinned by `results/`, which
//! `regen --check` rebuilds byte for byte in CI. The Fig. 3 golden is
//! analytic and always runs; the phase golden is release-only (ignored
//! under `debug_assertions`), and `scripts/ci.sh` runs it via
//! `cargo test --release`.

use astriflash_core::config::{Configuration, SystemConfig};
use astriflash_core::experiments::fig3;
use astriflash_core::sweep::Cell;
use astriflash_stats::Phase;

#[test]
fn fig3_saturation_throughputs_match_experiments_md() {
    let s = fig3::Fig3Systems::paper_defaults();
    let dram = s.dram_only.saturation_throughput();
    let astri = s.astriflash.saturation_throughput() / dram;
    let os = s.os_swap.saturation_throughput() / dram;
    let sync = s.flash_sync.saturation_throughput() / dram;
    // EXPERIMENTS.md: AstriFlash 0.98, OS-Swap 0.50, Flash-Sync 0.17.
    assert!((astri - 0.98).abs() < 5e-3, "AstriFlash saturation {astri}");
    assert!((os - 0.50).abs() < 5e-3, "OS-Swap saturation {os}");
    assert!((sync - 0.17).abs() < 5e-3, "Flash-Sync saturation {sync}");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full-scale golden; run with `cargo test --release`"
)]
fn phase_breakdown_seed1_matches_golden() {
    // The seed-1 AstriFlash TATP cell's per-phase miss-latency
    // breakdown (DESIGN.md §11), pinned exactly: the simulation is
    // deterministic and the histograms are exact counters, so any
    // drift here is a real behavior change in the miss path or the
    // attribution itself.
    let r = Cell::closed(SystemConfig::default(), Configuration::AstriFlash, 1, 200).run();
    assert_eq!(r.phases.completed_misses(), 882);
    let expected: [(Phase, u64, [u64; 4]); 7] = [
        (Phase::AdmitWait, 882, [6, 6, 6, 6]),
        (Phase::CoalescedWait, 114, [27135, 69631, 86015, 89825]),
        (Phase::FlashQueue, 768, [0, 27135, 43007, 68895]),
        (Phase::FlashRead, 768, [44031, 49151, 51199, 59727]),
        (Phase::PcieXfer, 768, [1311, 30207, 43007, 58301]),
        (Phase::Install, 768, [2367, 4095, 5503, 6182]),
        (Phase::ResumeDelay, 882, [4479, 8447, 12287, 49537]),
    ];
    for (phase, count, pcts) in expected {
        assert_eq!(
            r.phases.hist(phase).count(),
            count,
            "{phase}: sample count drifted"
        );
        assert_eq!(
            r.phases.percentiles(phase),
            pcts,
            "{phase}: p50/p95/p99/p99.9 drifted"
        );
    }
}
