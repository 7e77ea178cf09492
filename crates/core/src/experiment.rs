//! Experiment runner: builds a [`SystemSim`], runs it, and condenses the
//! result into a [`RunReport`].

use astriflash_stats::{Histogram, MetricSet, Percentile, Phase, PhaseSet};
use astriflash_trace::Tracer;

use crate::config::{Configuration, SystemConfig};
use crate::system::{SystemSim, SystemStats};
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

/// A single simulation run, builder-style.
///
/// # Example
///
/// ```
/// use astriflash_core::config::{Configuration, SystemConfig};
/// use astriflash_core::experiment::Experiment;
///
/// let cfg = SystemConfig::default().with_cores(2).scaled_for_tests();
/// let report = Experiment::new(cfg, Configuration::FlashSync)
///     .seed(3)
///     .jobs_per_core(20)
///     .run();
/// assert!(report.throughput_jobs_per_sec > 0.0);
/// ```
#[derive(Debug)]
pub struct Experiment {
    cfg: SystemConfig,
    configuration: Configuration,
    seed: u64,
    mode: Load,
    tracer: Tracer,
}

impl Experiment {
    /// Creates an experiment with a default closed-loop load of 200
    /// jobs/core and seed 1.
    pub fn new(cfg: SystemConfig, configuration: Configuration) -> Self {
        Experiment {
            cfg,
            configuration,
            seed: 1,
            mode: Load::Closed { jobs_per_core: 200 },
            tracer: Tracer::off(),
        }
    }

    /// Attaches an observability tracer (see [`astriflash_trace`]). The
    /// run's [`RunReport`] is bit-identical with tracing on or off.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Sets the deterministic seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Closed-loop saturation run measuring this many jobs per core.
    pub fn jobs_per_core(mut self, jobs: u64) -> Self {
        self.mode = Load::Closed {
            jobs_per_core: jobs,
        };
        self
    }

    /// Open-loop Poisson run: system-wide mean inter-arrival (ns) and
    /// total measured jobs.
    pub fn open_loop(mut self, mean_interarrival_ns: f64, total_jobs: u64) -> Self {
        self.mode = Load::Open {
            mean_interarrival_ns,
            total_jobs,
        };
        self
    }

    /// Sets the load point from plain data (sweep cells).
    pub fn load(mut self, load: Load) -> Self {
        self.mode = load;
        self
    }

    /// Builds the [`SystemSim`] (allocation-heavy: cache arrays, DRAM
    /// prewarm replay) without running it, so callers that time the
    /// simulation — the perf harness above all — can keep construction
    /// cost out of the measured region. [`Experiment::run`] is exactly
    /// `prepare().run()`, so prepared and direct runs are bit-identical.
    ///
    /// The workload's dataset is built only if no other live simulation
    /// of the same workload, parameters and seed holds one; otherwise
    /// this one shares it (DESIGN.md §18).
    pub fn prepare(self) -> PreparedRun {
        let cores = self.cfg.cores;
        let workload = self.cfg.workload;
        let mut sim = SystemSim::new(self.cfg, self.configuration, self.seed);
        if self.tracer.enabled() {
            sim.set_tracer(self.tracer);
        }
        PreparedRun {
            sim,
            mode: self.mode,
            configuration: self.configuration,
            workload: workload.name(),
            cores,
        }
    }

    /// Runs the simulation.
    pub fn run(self) -> RunReport {
        self.prepare().run()
    }
}

/// A fully constructed simulation that has not started executing yet:
/// the output of [`Experiment::prepare`]. Consuming [`PreparedRun::run`]
/// performs only the event-loop work, so wall-clock timing around it
/// excludes setup cost.
pub struct PreparedRun {
    sim: SystemSim,
    mode: Load,
    configuration: Configuration,
    workload: &'static str,
    cores: usize,
}

impl PreparedRun {
    /// Executes the prepared simulation to completion.
    pub fn run(self) -> RunReport {
        let PreparedRun {
            sim,
            mode,
            configuration,
            workload,
            cores,
        } = self;
        let stats = match mode {
            Load::Closed { jobs_per_core } => sim.run_closed_loop(jobs_per_core),
            Load::Open {
                mean_interarrival_ns,
                total_jobs,
            } => sim.run_open_loop(mean_interarrival_ns, total_jobs),
        };
        RunReport::from_stats(configuration, workload, cores, stats)
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
    /// reports and golden figures are unaffected; the perf harness uses
    /// it to compute events/sec.
    pub events_processed: u64,
    /// Per-phase miss-latency attribution (DESIGN.md §11). Like
    /// [`RunReport::events_processed`], a plain field rather than a
    /// [`MetricSet`] entry so every previously rendered report stays
    /// byte-identical. Empty when `phase_attribution` was off or the run
    /// never missed in the DRAM cache.
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
    fn from_stats(
        configuration: Configuration,
        workload: &'static str,
        cores: usize,
        stats: SystemStats,
    ) -> Self {
        let span = stats
            .ended_at
            .saturating_since(stats.measuring_since)
            .as_secs_f64();
        let throughput = if span > 0.0 {
            stats.measured_jobs as f64 / span
        } else {
            0.0
        };
        let busy_ns = stats.ended_at.saturating_since(stats.measuring_since);
        let miss_interval_us = if stats.dram_cache_misses > 0 {
            busy_ns.as_us_f64() * cores as f64 / stats.dram_cache_misses as f64
        } else {
            f64::INFINITY
        };

        let mut metrics = MetricSet::new();
        metrics.set_text("configuration", configuration.name());
        metrics.set_text("workload", workload);
        metrics.set_count("cores", cores as u64);
        metrics.set_count("jobs_measured", stats.measured_jobs);
        metrics.set_count("jobs_total", stats.total_jobs);
        metrics.set_float("throughput_jobs_per_sec", throughput);
        metrics.set_latency_ns("service_mean", stats.service_ns.mean() as u64);
        metrics.set_latency_ns("service_p99", stats.service_ns.value_at(Percentile::P99));
        metrics.set_latency_ns("response_p99", stats.response_ns.value_at(Percentile::P99));
        metrics.set_count("dram_cache_misses", stats.dram_cache_misses);
        metrics.set_count("switches", stats.switches);
        metrics.set_latency_ns("switch_overhead_total", stats.switch_overhead_ns);
        metrics.set_latency_ns("blocked_total", stats.blocked_ns);
        metrics.set_count("forced_synchronous", stats.forced_synchronous);
        metrics.set_count("pt_walk_flash_reads", stats.pt_walk_flash_reads);
        metrics.set_count("msr_stalls", stats.msr_stalls);
        metrics.set_count("msr_max_occupancy", stats.msr_max_occupancy as u64);
        metrics.set_count("flash_reads", stats.flash_reads);
        metrics.set_count("flash_read_bytes", stats.flash_read_bytes);
        metrics.set_count("flash_writebacks", stats.flash_writebacks);
        metrics.set_float("service_cv", stats.service_stats.coefficient_of_variation());
        metrics.set_float("miss_interval_us", miss_interval_us);
        // Per-level on-chip + TLB hit-rate breakdown, with the raw
        // access counts so rates can be re-weighted across runs.
        metrics.set_float("l1_hit_rate", stats.l1_hit_rate());
        metrics.set_float("l2_hit_rate", stats.l2_hit_rate());
        metrics.set_float("llc_hit_rate", stats.llc_hit_rate());
        metrics.set_float("tlb_hit_rate", stats.tlb_hit_rate());
        metrics.set_count(
            "l1_accesses",
            stats.level_totals.l1_hits + stats.level_totals.l1_misses,
        );
        metrics.set_count(
            "llc_accesses",
            stats.level_totals.llc_hits + stats.level_totals.llc_misses,
        );
        metrics.set_count("tlb_accesses", stats.tlb_hits + stats.tlb_misses);

        RunReport {
            configuration,
            workload,
            cores,
            jobs_completed: stats.measured_jobs,
            measured_seconds: span,
            throughput_jobs_per_sec: throughput,
            mean_service_ns: stats.service_ns.mean(),
            p99_service_ns: stats.service_ns.value_at(Percentile::P99),
            p99_response_ns: stats.response_ns.value_at(Percentile::P99),
            miss_interval_us,
            service_hist: stats.service_ns,
            response_hist: stats.response_ns,
            events_processed: stats.events_processed,
            phases: stats.phases,
            telemetry: stats.telemetry,
            metrics,
        }
    }

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

    fn cfg() -> SystemConfig {
        SystemConfig::default().with_cores(2).scaled_for_tests()
    }

    #[test]
    fn closed_loop_report_is_consistent() {
        let r = Experiment::new(cfg(), Configuration::AstriFlash)
            .seed(5)
            .jobs_per_core(30)
            .run();
        assert_eq!(r.cores, 2);
        assert!(r.jobs_completed >= 60);
        assert!(r.measured_seconds > 0.0);
        assert!(r.throughput_jobs_per_sec > 0.0);
        assert!(r.p99_service_ns as f64 >= r.mean_service_ns);
        assert!(r.render().contains("AstriFlash"));
    }

    #[test]
    fn open_loop_report_has_response_tail() {
        let r = Experiment::new(cfg(), Configuration::DramOnly)
            .seed(5)
            .open_loop(40_000.0, 100)
            .run();
        assert!(r.p99_response_ns >= r.p99_service_ns);
    }

    #[test]
    fn prepared_run_matches_direct_run() {
        let direct = Experiment::new(cfg(), Configuration::AstriFlash)
            .seed(7)
            .jobs_per_core(25)
            .run();
        let prepared = Experiment::new(cfg(), Configuration::AstriFlash)
            .seed(7)
            .jobs_per_core(25)
            .prepare()
            .run();
        assert_eq!(
            direct.throughput_jobs_per_sec.to_bits(),
            prepared.throughput_jobs_per_sec.to_bits()
        );
        assert_eq!(direct.events_processed, prepared.events_processed);
        assert_eq!(direct.render(), prepared.render());
    }

    #[test]
    fn dram_only_beats_flash_sync_throughput() {
        let dram = Experiment::new(cfg(), Configuration::DramOnly)
            .seed(9)
            .jobs_per_core(50)
            .run();
        let sync = Experiment::new(cfg(), Configuration::FlashSync)
            .seed(9)
            .jobs_per_core(50)
            .run();
        assert!(
            dram.throughput_jobs_per_sec > sync.throughput_jobs_per_sec,
            "DRAM-only {} <= Flash-Sync {}",
            dram.throughput_jobs_per_sec,
            sync.throughput_jobs_per_sec
        );
    }
}
