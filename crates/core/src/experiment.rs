//! What a run is given and what it returns: the [`Load`] a sweep
//! [`Cell`](crate::sweep::Cell) carries, the [`PreparedRun`] it builds,
//! and the [`RunReport`] every run ends in.

use astriflash_stats::{Histogram, MetricSet, Phase, PhaseSet};

use crate::config::Configuration;
use crate::system::SystemSim;
use crate::telemetry::TelemetryReport;

/// How the system is loaded. Public so sweep cells ([`crate::sweep`])
/// can carry a load point as plain data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Closed loop at saturation, measuring `jobs_per_core` jobs/core.
    Closed {
        /// Jobs measured per core.
        jobs_per_core: u64,
    },
    /// Open loop with Poisson arrivals.
    Open {
        /// System-wide mean inter-arrival time (ns).
        mean_interarrival_ns: f64,
        /// Total measured jobs.
        total_jobs: u64,
    },
}

/// A fully constructed simulation that has not started executing yet:
/// the output of [`Cell::prepare`](crate::sweep::Cell::prepare).
/// Consuming [`PreparedRun::run`] performs only the event-loop work, so
/// wall-clock timing around it excludes setup cost.
pub struct PreparedRun {
    pub(crate) sim: SystemSim,
    pub(crate) load: Load,
}

impl PreparedRun {
    /// Executes the prepared simulation to completion.
    pub fn run(self) -> RunReport {
        self.sim.run(self.load)
    }
}

/// Condensed results of one run.
#[derive(Debug)]
pub struct RunReport {
    /// Configuration simulated.
    pub configuration: Configuration,
    /// Workload name.
    pub workload: &'static str,
    /// Core count.
    pub cores: usize,
    /// Jobs measured (post-warmup).
    pub jobs_completed: u64,
    /// Measured wall-clock (simulated) span in seconds.
    pub measured_seconds: f64,
    /// Aggregate throughput in jobs/second.
    pub throughput_jobs_per_sec: f64,
    /// Mean service time (ns).
    pub mean_service_ns: f64,
    /// p99 service time (ns).
    pub p99_service_ns: u64,
    /// p99 response time (ns) — meaningful for open-loop runs.
    pub p99_response_ns: u64,
    /// Mean interval between DRAM-cache misses per core (µs);
    /// `f64::INFINITY` when no misses occurred.
    pub miss_interval_us: f64,
    /// Full service-time histogram.
    pub service_hist: Histogram,
    /// Full response-time histogram.
    pub response_hist: Histogram,
    /// Discrete events the simulation kernel processed during the run.
    /// Deliberately a plain field (not a [`MetricSet`] entry) so rendered
    /// reports and golden figures are unaffected; the benchmark uses it
    /// to compute events/sec.
    pub events_processed: u64,
    /// Per-phase miss-latency attribution (DESIGN.md §11). Like
    /// [`RunReport::events_processed`], a plain field rather than a
    /// [`MetricSet`] entry so every previously rendered report stays
    /// byte-identical. Empty when the run never missed in the DRAM cache.
    pub phases: PhaseSet,
    /// Time-resolved telemetry (DESIGN.md §13); `Some` iff the run's
    /// `SystemConfig::telemetry` was set. Like
    /// [`RunReport::events_processed`], a plain field rather than a
    /// [`MetricSet`] entry, so rendered reports and committed goldens
    /// are byte-identical whether telemetry is attached or not.
    pub telemetry: Option<TelemetryReport>,
    /// Extra metrics for reports.
    pub metrics: MetricSet,
}

impl RunReport {
    /// Renders the metric set as aligned text.
    pub fn render(&self) -> String {
        self.metrics.render()
    }

    /// Per-phase `[p50, p95, p99, p99.9]` miss-latency percentiles in ns
    /// (the quantiles in [`astriflash_stats::PHASE_QUANTILES`]). All-zero
    /// for a phase with no samples.
    pub fn phase_percentiles(&self, phase: Phase) -> [u64; 4] {
        self.phases.percentiles(phase)
    }

    /// Share of total attributed miss latency spent in `phase`
    /// (the critical-path share; 0.0 when nothing was attributed).
    pub fn phase_share(&self, phase: Phase) -> f64 {
        self.phases.share(phase)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::sweep::Cell;

    fn cfg() -> SystemConfig {
        SystemConfig::default().with_cores(2).scaled_for_tests()
    }

    #[test]
    fn closed_loop_report_is_consistent() {
        let r = Cell::closed(cfg(), Configuration::AstriFlash, 5, 30).run();
        assert_eq!(r.cores, 2);
        assert!(r.jobs_completed >= 60);
        assert!(r.measured_seconds > 0.0);
        assert!(r.throughput_jobs_per_sec > 0.0);
        assert!(r.p99_service_ns as f64 >= r.mean_service_ns);
        assert!(r.render().contains("AstriFlash"));
    }

    #[test]
    fn open_loop_report_has_response_tail() {
        let r = Cell::open(cfg(), Configuration::DramOnly, 5, 40_000.0, 100).run();
        assert!(r.p99_response_ns >= r.p99_service_ns);
    }

    #[test]
    fn prepared_run_matches_direct_run() {
        for cell in [
            Cell::closed(cfg(), Configuration::AstriFlash, 7, 25),
            Cell::open(cfg(), Configuration::AstriFlash, 7, 30_000.0, 100),
        ] {
            let direct = cell.run();
            let prepared = cell.prepare().run();
            assert_eq!(
                direct.throughput_jobs_per_sec.to_bits(),
                prepared.throughput_jobs_per_sec.to_bits()
            );
            assert_eq!(direct.events_processed, prepared.events_processed);
            assert_eq!(direct.render(), prepared.render());
        }
    }

    #[test]
    fn dram_only_beats_flash_sync_throughput() {
        let dram = Cell::closed(cfg(), Configuration::DramOnly, 9, 50).run();
        let sync = Cell::closed(cfg(), Configuration::FlashSync, 9, 50).run();
        assert!(
            dram.throughput_jobs_per_sec > sync.throughput_jobs_per_sec,
            "DRAM-only {} <= Flash-Sync {}",
            dram.throughput_jobs_per_sec,
            sync.throughput_jobs_per_sec
        );
    }
}
