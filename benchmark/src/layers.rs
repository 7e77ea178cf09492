//! Per-layer metrics: host time per profiled scope, taken from a traced
//! run, beside the simulated counts of the untraced run. Simulated
//! counts are deterministic for a seed, so they also show that a
//! speed-only change left the model alone.

use astriflash_core::RunReport;
use astriflash_prof::{Report as ProfReport, Scope, SCOPE_COUNT};
use astriflash_stats::{Phase, PhaseSet};

use crate::report::Outcome;

/// Simulated counts summed over one or more untraced runs.
#[derive(Debug, Default)]
pub struct SimCounts {
    jobs: f64,
    events: f64,
    l1_accesses: f64,
    l1_hits: f64,
    l2_accesses: f64,
    l2_hits: f64,
    llc_accesses: f64,
    llc_hits: f64,
    tlb_accesses: f64,
    tlb_hits: f64,
    switches: f64,
    forced_synchronous: f64,
    dram_cache_misses: f64,
    msr_stalls: f64,
    msr_max_occupancy: f64,
    flash_reads: f64,
    writebacks: f64,
    phases: PhaseSet,
}

/// A count or rate the run report always carries.
pub fn report_metric(r: &RunReport, name: &str) -> f64 {
    r.metrics
        .float(name)
        .unwrap_or_else(|| panic!("run report has no `{name}` metric"))
}

impl SimCounts {
    /// Adds one run's counts. Hit rates are re-weighted by accesses, so
    /// sums over cells of a sweep give the sweep's overall rates.
    pub fn add(&mut self, r: &RunReport) {
        let m = |name| report_metric(r, name);
        self.jobs += m("jobs_total");
        self.events += r.events_processed as f64;
        let l1 = m("l1_accesses");
        let l1_hits = l1 * m("l1_hit_rate");
        self.l1_accesses += l1;
        self.l1_hits += l1_hits;
        // Every L1 miss looks up the L2.
        self.l2_accesses += l1 - l1_hits;
        self.l2_hits += (l1 - l1_hits) * m("l2_hit_rate");
        let llc = m("llc_accesses");
        self.llc_accesses += llc;
        self.llc_hits += llc * m("llc_hit_rate");
        let tlb = m("tlb_accesses");
        self.tlb_accesses += tlb;
        self.tlb_hits += tlb * m("tlb_hit_rate");
        self.switches += m("switches");
        self.forced_synchronous += m("forced_synchronous");
        self.dram_cache_misses += m("dram_cache_misses");
        self.msr_stalls += m("msr_stalls");
        self.msr_max_occupancy = self.msr_max_occupancy.max(m("msr_max_occupancy"));
        self.flash_reads += m("flash_reads");
        self.writebacks += m("flash_writebacks");
        self.phases.merge(&r.phases);
    }
}

/// Host time per profiled scope, summed over traced runs.
#[derive(Debug, Default)]
pub struct ProfTotals {
    calls: [u64; SCOPE_COUNT],
    excl_ns: [u64; SCOPE_COUNT],
    total_ns: u64,
    jobs: f64,
}

impl ProfTotals {
    /// Adds one traced session that completed `jobs` jobs.
    pub fn add(&mut self, report: &ProfReport, jobs: f64) {
        for scope in Scope::all() {
            let t = report.totals(scope);
            self.calls[scope as usize] += t.calls;
            self.excl_ns[scope as usize] += t.excl_ns;
        }
        self.total_ns += report.total_ns();
        self.jobs += jobs;
    }

    fn self_share(&self, scope: Scope) -> f64 {
        ratio(self.excl_ns[scope as usize] as f64, self.total_ns as f64)
    }

    fn push_scope(&self, o: &mut Outcome, scope: Scope) {
        let (calls, excl) = (
            self.calls[scope as usize] as f64,
            self.excl_ns[scope as usize] as f64,
        );
        let name = scope.name();
        o.push(
            format!("{name}.calls_per_job"),
            ratio(calls, self.jobs),
            "calls/job",
        );
        o.push(
            format!("{name}.self_ns_per_call"),
            ratio(excl, calls),
            "ns/call",
        );
        o.push(
            format!("{name}.self_share"),
            self.self_share(scope),
            "ratio",
        );
    }
}

/// Everything the per-layer section reports, gathered by a workload's
/// traced protocol.
#[derive(Debug, Default)]
pub struct Layers {
    /// Counts of the untraced run(s).
    pub counts: SimCounts,
    /// Scope totals of the traced run(s).
    pub prof: ProfTotals,
    /// Host seconds the untraced run(s) spent in `PreparedRun::run`.
    pub run_s: f64,
    /// Host seconds of the traced run(s) in `PreparedRun::run`, on the
    /// same work as `run_s`.
    pub traced_run_s: f64,
    /// Setup minus engine construction, in host seconds.
    pub prewarm_s: f64,
    /// Host seconds in `WorkloadKind::build`.
    pub engine_build_s: f64,
    /// Busy share of the worker threads over the measured section.
    pub parallel_efficiency: f64,
    /// Run-time cost of windowed telemetry, in percent (0 when the
    /// workload has no telemetry).
    pub telemetry_overhead_pct: f64,
}

/// Phases on the DRAM-cache miss path, then on the flash path.
const MISS_PHASES: [Phase; 4] = [
    Phase::AdmitWait,
    Phase::CoalescedWait,
    Phase::Install,
    Phase::ResumeDelay,
];
const FLASH_PHASES: [Phase; 3] = [Phase::FlashQueue, Phase::FlashRead, Phase::PcieXfer];

impl Layers {
    /// Appends every per-layer metric, grouped by layer.
    pub fn push_metrics(&self, o: &mut Outcome) {
        let (c, p) = (&self.counts, &self.prof);
        let per_job = |x: f64| ratio(x, c.jobs);

        // sim: event queue.
        p.push_scope(o, Scope::QueueCascade);
        o.push("events_per_job", per_job(c.events), "events/job");
        o.push("events_per_s", ratio(c.events, self.run_s), "events/s");

        // core: event dispatch, job completion, setup, sweep.
        o.push(
            "event_loop.self_share",
            p.self_share(Scope::EventLoop),
            "ratio",
        );
        for s in [
            Scope::EvResume,
            Scope::EvPageArrived,
            Scope::EvArrival,
            Scope::CompleteJob,
        ] {
            p.push_scope(o, s);
        }
        o.push("prewarm_s", self.prewarm_s, "s");
        o.push(
            "sweep.parallel_efficiency",
            self.parallel_efficiency,
            "ratio",
        );

        // uthread: scheduling.
        p.push_scope(o, Scope::SchedulerPick);
        o.push("switches_per_job", per_job(c.switches), "switches/job");
        o.push("forced_synchronous", c.forced_synchronous, "count");

        // workloads: job generation and dataset construction.
        p.push_scope(o, Scope::FillJob);
        o.push("engine_build_s", self.engine_build_s, "s");

        // mem/os hit path.
        for s in [Scope::AccessRun, Scope::DoAccess, Scope::PtWalk] {
            p.push_scope(o, s);
        }
        o.push("accesses_per_job", per_job(c.l1_accesses), "accesses/job");
        o.push("l1_hit_rate", ratio(c.l1_hits, c.l1_accesses), "ratio");
        o.push("l2_hit_rate", ratio(c.l2_hits, c.l2_accesses), "ratio");
        o.push("llc_hit_rate", ratio(c.llc_hits, c.llc_accesses), "ratio");
        o.push("tlb_hit_rate", ratio(c.tlb_hits, c.tlb_accesses), "ratio");

        // mem miss path.
        for s in [
            Scope::MissPath,
            Scope::MsrAdmit,
            Scope::Install,
            Scope::WakeWaiters,
        ] {
            p.push_scope(o, s);
        }
        o.push(
            "dram_cache_misses_per_job",
            per_job(c.dram_cache_misses),
            "misses/job",
        );
        o.push("msr_stalls", c.msr_stalls, "count");
        o.push("msr_max_occupancy", c.msr_max_occupancy, "count");
        push_phases(o, &c.phases, &MISS_PHASES);

        // flash.
        p.push_scope(o, Scope::FlashIssue);
        p.push_scope(o, Scope::FlashGc);
        o.push("reads_per_job", per_job(c.flash_reads), "reads/job");
        o.push(
            "writebacks_per_job",
            per_job(c.writebacks),
            "writebacks/job",
        );
        push_phases(o, &c.phases, &FLASH_PHASES);

        // Observers.
        o.push("telemetry.overhead_pct", self.telemetry_overhead_pct, "%");
        o.push(
            "prof.overhead_pct",
            overhead_pct(self.traced_run_s, self.run_s),
            "%",
        );
    }
}

fn push_phases(o: &mut Outcome, phases: &PhaseSet, which: &[Phase]) {
    for &phase in which {
        let label = phase.label();
        o.push(format!("phase.{label}.share"), phases.share(phase), "ratio");
        o.push(
            format!("phase.{label}.p99_ns"),
            phases.percentiles(phase)[2] as f64,
            "ns",
        );
    }
}

/// `with` against `without`, as a percentage increase (0 when nothing
/// was measured without).
pub fn overhead_pct(with: f64, without: f64) -> f64 {
    if without > 0.0 {
        100.0 * (with / without - 1.0)
    } else {
        0.0
    }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_metrics_divide_by_jobs_calls_and_total() {
        let session = astriflash_prof::begin();
        {
            let _l = astriflash_prof::scope(Scope::EventLoop);
            for _ in 0..4 {
                let _f = astriflash_prof::scope(Scope::FillJob);
            }
        }
        let report = session.finish();
        let mut p = ProfTotals::default();
        p.add(&report, 2.0);
        let mut o = Outcome::default();
        p.push_scope(&mut o, Scope::FillJob);
        let names: Vec<&str> = o.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "fill_job.calls_per_job",
                "fill_job.self_ns_per_call",
                "fill_job.self_share"
            ]
        );
        assert_eq!(o.metrics[0].value, 2.0);
        let share = o.metrics[2].value;
        assert!((0.0..=1.0).contains(&share), "{share}");
    }

    #[test]
    fn empty_denominators_read_zero() {
        let mut o = Outcome::default();
        Layers::default().push_metrics(&mut o);
        assert!(o.metrics.iter().all(|m| m.value == 0.0));
        assert_eq!(overhead_pct(3.0, 2.0), 50.0);
    }
}
