//! The full-system simulator: cores, user-level scheduling, on-chip
//! caches, DRAM cache (FC + BC + MSR), flash, TLBs and page-table walks,
//! composed per configuration (§V-B).
//!
//! # Modeling notes
//!
//! Cores execute synchronously in bounded *slices* (a few µs of
//! lookahead), claiming DRAM-bank and flash time as they go; slices are
//! stitched together by `Resume` events. Cross-core causality error is
//! bounded by the slice length and only affects bank-contention
//! ordering, which is a second-order effect at these timescales.
//!
//! On a DRAM-cache miss the paper *reclaims* the request's resources in
//! the cache hierarchy (§IV-C1); we mirror that by invalidating the
//! just-filled block so the retry after the flash refill re-probes the
//! DRAM cache.
//!
//! DRAM-cache *evictions* do not invalidate on-chip copies of the
//! evicted page: victims are LRU-cold, so live on-chip copies are
//! vanishingly rare, and skipping the 64-block invalidation sweep keeps
//! the hot path cheap (an inclusive implementation would shave at most
//! a handful of optimistic on-chip hits per million accesses).

use std::collections::VecDeque;

use astriflash_cpu::{effective_stall_ns, Rob};
use astriflash_flash::FlashDevice;
use astriflash_mem::{
    BacksideController, BcAdmission, CacheHierarchy, DramBanks, DramCache, DramTimings,
    HierarchyOutcome, ProbeOutcome, Waiter,
};
use astriflash_os::{OsPagingCosts, PageTableWalker, Tlb};
use astriflash_prof::{scope as prof_scope, Scope as ProfScope};
use astriflash_sim::{EventQueue, SimDuration, SimRng, SimTime};
use astriflash_stats::{Histogram, MetricSet, OnlineStats, Percentile, Phase, PhaseSet};
use astriflash_trace::{Track, Tracer};
use astriflash_uthread::{Completion, MissPark, NotificationQueue, Pick, Policy, Scheduler};
use astriflash_workloads::{
    EngineFork, JobArena, JobBuf, MemoryAccess, PoissonArrivals, PAGE_SIZE,
};

use crate::config::{Configuration, SystemConfig};
use crate::experiment::{Load, RunReport};
use crate::hit_run::{self, RunStop};
use crate::telemetry::{CoreWindows, TelemetryReport};

/// Execution-slice lookahead bound.
pub(crate) const SLICE_NS: u64 = 4_000;
/// Retry delay when the MSR rejects an admission (set full).
const MSR_RETRY_NS: u64 = 2_000;
/// Share of a run's job quota completed as warm-up, before statistics
/// start.
const WARMUP_FRACTION: f64 = 0.1;

/// Event payloads stay within one word past the discriminant: core ids
/// are `u32` so the whole enum packs into 16 bytes (pinned by the size
/// regression test; DESIGN.md §14).
#[derive(Debug)]
enum Event {
    /// Continue executing on a core.
    Resume { core: u32 },
    /// A page arrived from flash; install + notify waiters.
    PageArrived { page: u64 },
    /// Open-loop job arrival for a core.
    Arrival { core: u32 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    Running,
    /// Parked in the scheduler's pending queue (switch-on-miss / OS-Swap).
    Parked,
    /// Core is blocked waiting for this thread's page (Flash-Sync,
    /// forward progress, queue-full, page-table walks). The page itself
    /// lives in `Thread::blocked_page` so the state stays a bare tag.
    BlockedOnPage,
}

/// Hot half of a thread slot: everything the per-access execute loop
/// touches, packed into 48 bytes (pinned by the size regression test;
/// DESIGN.md §14). The job body lives in the core's [`JobArena`];
/// miss-only scratch lives in the parallel [`ThreadCold`] array.
#[derive(Debug)]
struct Thread {
    /// Arena slot holding this thread's flat job.
    job_slot: u32,
    op_idx: u32,
    access_idx: u32,
    arrived_at: SimTime,
    started_at: SimTime,
    /// When the thread parked or blocked (for blocked-time accounting).
    parked_at: SimTime,
    /// Page the core is blocked on; valid iff `state` is `BlockedOnPage`.
    blocked_page: u64,
    state: ThreadState,
    /// Whether the current operation's compute has been charged.
    compute_done: bool,
    /// Forward-progress bit: the next miss must complete synchronously.
    forced: bool,
}

/// Cold half of a thread slot: the thread's one in-flight miss, touched
/// only on miss lifecycles, never by the per-access execute loop
/// (DESIGN.md §14). The miss opens in [`ThreadCold::open_miss`] and
/// closes in [`ThreadCold::close_miss`], its trace span and its phase
/// scratch together.
#[derive(Debug, Default)]
struct ThreadCold {
    /// Open trace span for the in-flight miss (0 = none).
    miss_span: u64,
    /// Per-phase scratch for the in-flight miss (latency attribution,
    /// DESIGN.md §11). Lives and dies with the miss span.
    attr: MissAttr,
}

impl ThreadCold {
    /// Opens the miss on `page` detected at `t_ns`, or re-enters the one
    /// still open after an MSR-stall retry. Its span becomes current, so
    /// the BC and flash emissions that follow attribute to it.
    fn open_miss(&mut self, tracer: &Tracer, t_ns: u64, core: u32, page: u64) {
        if tracer.enabled() {
            if self.miss_span == 0 {
                self.miss_span = tracer.begin_span(t_ns, Track::Core(core), "miss", page);
            } else {
                tracer.resume_span(self.miss_span);
            }
        }
        if !self.attr.active {
            self.attr = MissAttr::begin(t_ns);
        }
    }

    /// Stamps the arrival of `page`, installed at `t_ns`, on the open
    /// miss. Only the first arrival counts: a thread can appear twice in
    /// a waiter list after an aged promotion re-missed the same page.
    fn miss_arrived(&mut self, tracer: &Tracer, t_ns: u64, core: u32, page: u64) {
        if self.miss_span != 0 {
            tracer.resume_span(self.miss_span);
            tracer.span_instant(t_ns, Track::Core(core), "page_arrived", page);
        }
        let attr = &mut self.attr;
        if !attr.active || attr.arrived {
            return;
        }
        attr.arrived = true;
        attr.arrived_ns = t_ns;
        match attr.kind {
            MissKind::Issued => attr.install_ns = t_ns.saturating_sub(attr.xfer_done_ns),
            MissKind::Coalesced => attr.coalesced_ns = t_ns.saturating_sub(attr.admit_end_ns),
            MissKind::Unresolved => {}
        }
    }

    /// Closes the open miss at `t_ns`, when its thread runs again or the
    /// run ends: ends the span and, only if the page arrived, records
    /// the phases, the gap since arrival as its resume delay. A miss
    /// whose page never arrived (an aged promotion, a retry that hit, a
    /// read still in flight at the end) records nothing, as the trace
    /// analyzer skips a span with no `page_arrived`.
    fn close_miss(&mut self, tracer: &Tracer, t_ns: u64, core: u32, phases: &mut PhaseSet) {
        if self.miss_span != 0 {
            let span = std::mem::take(&mut self.miss_span);
            tracer.end_span(t_ns, Track::Core(core), "miss", span);
        }
        if self.attr.active {
            let attr = std::mem::take(&mut self.attr);
            if attr.arrived {
                attr.flush(t_ns, phases);
            }
        }
    }
}

/// How the in-flight miss's BC admission resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum MissKind {
    /// Not resolved yet (pre-admission, or stalled on a full MSR set).
    #[default]
    Unresolved,
    /// This miss issued the flash read.
    Issued,
    /// This miss coalesced onto another miss's in-flight read.
    Coalesced,
}

/// Fixed-size per-thread scratch accumulating one miss's phase
/// boundaries (DESIGN.md §11). Written at the same simulation points the
/// trace span records its events, and flushed into the run's
/// [`PhaseSet`] only when the lifecycle *completed* (the page arrived
/// before the span closed) — exactly the lifecycles the offline trace
/// analyzer reconstructs, so the two layers stay comparable. No heap,
/// no timing side effects.
#[derive(Debug, Clone, Copy, Default)]
struct MissAttr {
    /// A miss is in flight (set at first miss detection, cleared when
    /// the span closes).
    active: bool,
    kind: MissKind,
    /// First miss-detection time (survives MSR-stall retries).
    started_ns: u64,
    /// Detection → admission resolution (flash issue / duplicate).
    admit_ns: u64,
    /// When admission resolved as a duplicate (coalesced-wait start).
    admit_end_ns: u64,
    /// Issuing misses: flash-phase durations from the device.
    queue_ns: u64,
    read_ns: u64,
    xfer_ns: u64,
    /// Issuing misses: when the channel transfer completed.
    xfer_done_ns: u64,
    /// Filled at page arrival.
    install_ns: u64,
    coalesced_ns: u64,
    arrived: bool,
    arrived_ns: u64,
}

impl MissAttr {
    fn begin(t_ns: u64) -> Self {
        MissAttr {
            active: true,
            started_ns: t_ns,
            ..MissAttr::default()
        }
    }

    /// Records the completed lifecycle into `phases`. `end_ns` is the
    /// span-close time (thread resumed / run ended); only called when
    /// the page arrived.
    fn flush(&self, end_ns: u64, phases: &mut PhaseSet) {
        match self.kind {
            MissKind::Issued => {
                phases.record(Phase::AdmitWait, self.admit_ns);
                phases.record(Phase::FlashQueue, self.queue_ns);
                phases.record(Phase::FlashRead, self.read_ns);
                phases.record(Phase::PcieXfer, self.xfer_ns);
                phases.record(Phase::Install, self.install_ns);
            }
            MissKind::Coalesced => {
                phases.record(Phase::AdmitWait, self.admit_ns);
                phases.record(Phase::CoalescedWait, self.coalesced_ns);
            }
            // A page can only arrive for an admitted miss.
            MissKind::Unresolved => return,
        }
        phases.record(Phase::ResumeDelay, end_ns.saturating_sub(self.arrived_ns));
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct CoreStats {
    dram_cache_misses: u64,
    thread_switches: u64,
    switch_overhead_ns: u64,
    blocked_ns: u64,
    forced_synchronous: u64,
    pt_walk_flash_reads: u64,
}

struct Core {
    scheduler: Scheduler,
    /// BC → core completion notifications (§IV-D2): produced on page
    /// arrival, drained at every scheduling decision.
    notifications: NotificationQueue,
    tlb: Tlb,
    rob: Rob,
    threads: Vec<Option<Thread>>,
    /// Cold halves of the thread slots, parallel to `threads`.
    cold: Vec<ThreadCold>,
    /// Flat job arena: one recycled buffer per concurrent job, so the
    /// steady state allocates nothing per job (DESIGN.md §14).
    arena: JobArena,
    running: Option<usize>,
    /// Arrival timestamps of queued (not yet started) jobs.
    job_queue: VecDeque<SimTime>,
    /// Interrupt time (shootdown responder cost) to charge on the next
    /// execution slice.
    pending_penalty_ns: u64,
    /// Whether a Resume event is already in flight for this core.
    resume_pending: bool,
    stats: CoreStats,
}

impl Core {
    fn free_slot(&self) -> Option<usize> {
        self.threads.iter().position(Option::is_none)
    }

    fn has_new_work(&self, closed_loop: bool) -> bool {
        (closed_loop || !self.job_queue.is_empty()) && self.free_slot().is_some()
    }
}

/// Hit rate from a (hits, misses) pair; 0 when nothing was accessed.
fn hit_rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// The most events a run can have pending: one `Resume` per core, one
/// `PageArrived` per MSR entry (the MSR bounds in-flight flash reads,
/// §IV-B2) and one `Arrival`. The event queue is sized for it, and the
/// event loop checks it in debug builds.
fn max_pending_events(cfg: &SystemConfig) -> usize {
    let (sets, ways) = cfg.msr_geometry;
    cfg.cores + sets * ways + 1
}

/// The composed full-system simulator: built by
/// [`Cell::prepare`](crate::sweep::Cell::prepare), run once by
/// [`SystemSim::run`].
pub(crate) struct SystemSim {
    cfg: SystemConfig,
    configuration: Configuration,
    queue: EventQueue<Event>,
    rng: SimRng,
    /// This run's fork of its workload's engine: cells alive at the same
    /// time share one build of the dataset (DESIGN.md §18).
    engine: EngineFork,
    hierarchy: CacheHierarchy,
    dram_cache: DramCache,
    main_memory: DramBanks,
    bc: BacksideController,
    flash: FlashDevice,
    walker: PageTableWalker,
    cores: Vec<Core>,
    /// Poisson arrivals of an open-loop run; `None` in a closed loop.
    arrivals: Option<PoissonArrivals>,
    jobs_target: u64,
    warmup_jobs: u64,
    total_jobs: u64,
    measured_jobs: u64,
    measuring_since: SimTime,
    service_ns: Histogram,
    response_ns: Histogram,
    service_stats: OnlineStats,
    stopped: bool,
    max_time: SimTime,
    tracer: Tracer,
    /// Reused waiter buffer for completions (cleared between events).
    waiter_scratch: Vec<Waiter>,
    /// Per-phase histograms of completed miss lifecycles.
    phases: PhaseSet,
    /// Core-layer windowed telemetry (latency/completions/SLO, per-core
    /// busy time and pending-queue peak); `Some` iff `cfg.telemetry` is
    /// set. Component-layer windows live inside the DRAM cache, BC, and
    /// flash device.
    telem_windows: Option<Box<CoreWindows>>,
}

impl SystemSim {
    /// Builds the system for `configuration`, seeding every component
    /// deterministically from `seed`.
    pub(crate) fn new(cfg: SystemConfig, configuration: Configuration, seed: u64) -> Self {
        cfg.validate();
        let rng = SimRng::new(seed);
        let mut engine = cfg.dataset(seed).fork();
        let threads_per_core =
            cfg.effective_threads_per_core(engine.threads_per_core_hint());
        // Pending-queue capacity per core (§IV-D1): the thread count
        // minus one, at least one.
        let pending_cap = threads_per_core.saturating_sub(1).max(1);

        let policy = match configuration {
            Configuration::AstriFlashNoPS => Policy::Fifo,
            _ => Policy::PriorityAging,
        };
        let mut cores = Vec::with_capacity(cfg.cores);
        for _ in 0..cfg.cores {
            cores.push(Core {
                scheduler: Scheduler::new(policy, pending_cap)
                    .with_aging_multiplier(cfg.aging_multiplier),
                notifications: NotificationQueue::new(2 * threads_per_core),
                tlb: Tlb::new(cfg.tlb_geometry.0, cfg.tlb_geometry.1),
                rob: Rob::a76(),
                threads: (0..threads_per_core).map(|_| None).collect(),
                cold: (0..threads_per_core).map(|_| ThreadCold::default()).collect(),
                arena: JobArena::with_capacity(threads_per_core),
                running: None,
                job_queue: VecDeque::with_capacity(2 * threads_per_core),
                pending_penalty_ns: 0,
                resume_pending: false,
                stats: CoreStats::default(),
            });
        }

        let dataset_bytes = cfg.workload_params.dataset_bytes;
        let dram_cache_cfg = cfg.dram_cache_config();
        // Prewarm the DRAM cache: replay the page stream of jobs worth
        // 8 × capacity page touches through an LRU of the same capacity
        // and install the pages it holds at the end (coldest first).
        // The replay touches fewer distinct pages than the cache holds
        // (16–86 % of it at the default scale), so the LRU never evicts
        // and a run starts with the cache partly empty, not at its
        // steady-state content. DRAM-only never probes the cache, so it
        // replays nothing and keeps no tags; its engine still generates
        // the same jobs, so every configuration starts its run from the
        // same engine state.
        let capacity = dram_cache_cfg.capacity_pages() as usize;
        let mut replay = (configuration != Configuration::DramOnly)
            .then(|| (astriflash_mem::PageLru::new(capacity), Vec::new()));
        let mut warm_rng = SimRng::new(seed ^ 0x77A7);
        let mut warm_buf = JobBuf::new();
        let target_touches = capacity * 8;
        let mut touches = 0usize;
        while touches < target_touches {
            engine.fill_job(&mut warm_buf, &mut warm_rng);
            if let Some((lru, recency)) = &mut replay {
                for a in warm_buf.accesses() {
                    let page = a.addr / PAGE_SIZE;
                    if !lru.access(page) {
                        recency.push(page);
                    }
                }
            }
            touches += warm_buf.accesses().len();
        }
        let mut dram_cache = match replay {
            Some((lru, recency)) => {
                let resident: Vec<u64> = recency
                    .iter()
                    .rev()
                    .filter(|p| lru.contains(**p))
                    .take(capacity)
                    .copied()
                    .collect();
                DramCache::prewarmed(dram_cache_cfg, resident.into_iter().rev())
            }
            None => DramCache::tagless(dram_cache_cfg),
        };
        // The FTL tables are the largest buffer a run allocates besides
        // the dataset. Made once the prewarm has freed its temporaries,
        // they take the same place in every run (DESIGN.md §9). Every
        // configuration but DRAM-only writes dirty pages back to flash;
        // DRAM-only never touches the device and makes no tables.
        let mut flash = FlashDevice::new(cfg.flash_config(), seed ^ 0xF1);
        if configuration != Configuration::DramOnly {
            flash.make_ftl_tables();
        }
        let (msr_sets, msr_ways) = cfg.msr_geometry;
        let mut bc = BacksideController::new(msr_sets, msr_ways, 2);
        // Attach windowed telemetry to every layer up front (collection
        // is pure bookkeeping; the simulated outcome is bit-identical
        // either way).
        let telem_windows = cfg.telemetry.map(|t| {
            dram_cache.enable_windows(t.window_ns);
            bc.enable_windows(t.window_ns);
            flash.enable_windows(t.window_ns);
            Box::new(CoreWindows::new(&t, cfg.cores))
        });
        let pt_base = dataset_bytes;
        let walker = PageTableWalker::new(pt_base, cfg.page_table_region_bytes() / 4096);
        let hierarchy = CacheHierarchy::new(cfg.cores, cfg.hierarchy.clone());
        let max_time = SimTime::from_ms(cfg.max_sim_time_ms);

        SystemSim {
            queue: EventQueue::with_capacity(max_pending_events(&cfg)),
            cfg,
            configuration,
            rng,
            engine,
            hierarchy,
            dram_cache,
            main_memory: DramBanks::new(32, DramTimings::default()),
            bc,
            flash,
            walker,
            cores,
            arrivals: None,
            jobs_target: 0,
            warmup_jobs: 0,
            total_jobs: 0,
            measured_jobs: 0,
            measuring_since: SimTime::ZERO,
            service_ns: Histogram::new(),
            response_ns: Histogram::new(),
            service_stats: OnlineStats::new(),
            stopped: false,
            max_time,
            tracer: Tracer::off(),
            waiter_scratch: Vec::new(),
            phases: PhaseSet::new(),
            telem_windows,
        }
    }

    /// Installs the observability handle and propagates it to every
    /// component (BC, flash, per-core schedulers). Enabling tracing
    /// never changes the simulated outcome: every emission is stamped
    /// with sim time and schedules no event.
    pub(crate) fn set_tracer(&mut self, tracer: Tracer) {
        self.bc.set_tracer(tracer.clone());
        self.flash.set_tracer(tracer.clone());
        for (i, core) in self.cores.iter_mut().enumerate() {
            core.scheduler.set_tracer(tracer.clone(), i as u32);
        }
        self.tracer = tracer;
    }

    fn switch_cost_ns(&self) -> u64 {
        match self.configuration {
            Configuration::AstriFlashIdeal => 0,
            Configuration::OsSwap => OsPagingCosts::default().context_switch_ns,
            _ => self.cfg.switch_cost_ns,
        }
    }

    /// Runs the simulation under `load` and condenses it into the run's
    /// report. A closed loop keeps every core's thread slots full from an
    /// infinite job queue; an open loop feeds Poisson arrivals of the
    /// given system-wide mean inter-arrival time. Either way the run
    /// completes `WARMUP_FRACTION` of its measured quota as warm-up first.
    pub(crate) fn run(mut self, load: Load) -> RunReport {
        let measured_target = match load {
            Load::Closed { jobs_per_core } => {
                for core in 0..self.cfg.cores {
                    self.schedule_resume(core, SimTime::ZERO);
                }
                jobs_per_core * self.cfg.cores as u64
            }
            Load::Open {
                mean_interarrival_ns,
                total_jobs,
            } => {
                let mut arrivals = PoissonArrivals::new(mean_interarrival_ns);
                let first = arrivals.next_arrival(&mut self.rng);
                self.arrivals = Some(arrivals);
                // The first job lands on core 0; `on_arrival` spreads
                // the rest over the cores.
                self.queue.schedule(first, Event::Arrival { core: 0 });
                total_jobs
            }
        };
        self.warmup_jobs = ((measured_target as f64 * WARMUP_FRACTION) as u64).max(1);
        self.jobs_target = self.warmup_jobs + measured_target;
        self.event_loop();
        self.finish()
    }

    fn finish(mut self) -> RunReport {
        // Close the misses still open at the end of the run (threads
        // parked or blocked when the job target or the time cap hit), so
        // every trace is well-formed. One whose page arrived counts, its
        // resume delay running to the end of the run.
        let end = self.queue.now().as_ns();
        for (ci, core) in self.cores.iter_mut().enumerate() {
            for cold in &mut core.cold {
                cold.close_miss(&self.tracer, end, ci as u32, &mut self.phases);
            }
        }
        // Assemble the telemetry report from every layer's windows and
        // mirror it onto the tracer as counter tracks.
        let telemetry = self.telem_windows.take().map(|core_w| {
            let report = TelemetryReport {
                cfg: self.cfg.telemetry.expect("windows exist only with a telemetry cfg"),
                end_ns: self.queue.now().as_ns(),
                core: *core_w,
                cache: self
                    .dram_cache
                    .take_windows()
                    .expect("cache windows enabled with telemetry"),
                msr: self
                    .bc
                    .take_windows()
                    .expect("MSR windows enabled with telemetry"),
                flash: self
                    .flash
                    .take_windows()
                    .expect("flash windows enabled with telemetry"),
            };
            report.emit_gauges(&self.tracer);
            report
        });
        let ended_at = self.queue.now();
        let mut sum = CoreStats::default();
        let (mut tlb_hits, mut tlb_misses) = (0, 0);
        for c in &self.cores {
            tlb_hits += c.tlb.hits();
            tlb_misses += c.tlb.misses();
            sum.dram_cache_misses += c.stats.dram_cache_misses;
            sum.thread_switches += c.stats.thread_switches;
            sum.switch_overhead_ns += c.stats.switch_overhead_ns;
            sum.blocked_ns += c.stats.blocked_ns;
            sum.forced_synchronous += c.stats.forced_synchronous;
            sum.pt_walk_flash_reads += c.stats.pt_walk_flash_reads;
        }
        let levels = self.hierarchy.level_totals();
        let cores = self.cfg.cores;
        let measured = ended_at.saturating_since(self.measuring_since);
        let span = measured.as_secs_f64();
        let throughput = if span > 0.0 {
            self.measured_jobs as f64 / span
        } else {
            0.0
        };
        let miss_interval_us = if sum.dram_cache_misses > 0 {
            measured.as_us_f64() * cores as f64 / sum.dram_cache_misses as f64
        } else {
            f64::INFINITY
        };

        let mut metrics = MetricSet::new();
        metrics.set_text("configuration", self.configuration.name());
        metrics.set_text("workload", self.cfg.workload.name());
        metrics.set_count("cores", cores as u64);
        metrics.set_count("jobs_measured", self.measured_jobs);
        metrics.set_count("jobs_total", self.total_jobs);
        metrics.set_float("throughput_jobs_per_sec", throughput);
        metrics.set_latency_ns("service_mean", self.service_ns.mean() as u64);
        metrics.set_latency_ns("service_p99", self.service_ns.value_at(Percentile::P99));
        metrics.set_latency_ns("response_p99", self.response_ns.value_at(Percentile::P99));
        metrics.set_count("dram_cache_misses", sum.dram_cache_misses);
        metrics.set_count("switches", sum.thread_switches);
        metrics.set_latency_ns("switch_overhead_total", sum.switch_overhead_ns);
        metrics.set_latency_ns("blocked_total", sum.blocked_ns);
        metrics.set_count("forced_synchronous", sum.forced_synchronous);
        metrics.set_count("pt_walk_flash_reads", sum.pt_walk_flash_reads);
        metrics.set_count("msr_stalls", self.bc.stats().stalls);
        metrics.set_count("msr_max_occupancy", self.bc.msr().max_occupancy() as u64);
        metrics.set_count("flash_reads", self.flash.stats().reads);
        metrics.set_count("flash_read_bytes", self.flash.stats().read_bytes);
        metrics.set_count("flash_writebacks", self.bc.stats().writebacks);
        metrics.set_float("service_cv", self.service_stats.coefficient_of_variation());
        metrics.set_float("miss_interval_us", miss_interval_us);
        // Per-level on-chip + TLB hit-rate breakdown, with the raw
        // access counts so rates can be re-weighted across runs.
        metrics.set_float("l1_hit_rate", hit_rate(levels.l1_hits, levels.l1_misses));
        metrics.set_float("l2_hit_rate", hit_rate(levels.l2_hits, levels.l2_misses));
        metrics.set_float("llc_hit_rate", hit_rate(levels.llc_hits, levels.llc_misses));
        metrics.set_float("tlb_hit_rate", hit_rate(tlb_hits, tlb_misses));
        metrics.set_count("l1_accesses", levels.l1_hits + levels.l1_misses);
        metrics.set_count("llc_accesses", levels.llc_hits + levels.llc_misses);
        metrics.set_count("tlb_accesses", tlb_hits + tlb_misses);

        RunReport {
            configuration: self.configuration,
            workload: self.cfg.workload.name(),
            cores,
            jobs_completed: self.measured_jobs,
            measured_seconds: span,
            throughput_jobs_per_sec: throughput,
            mean_service_ns: self.service_ns.mean(),
            p99_service_ns: self.service_ns.value_at(Percentile::P99),
            p99_response_ns: self.response_ns.value_at(Percentile::P99),
            miss_interval_us,
            service_hist: self.service_ns,
            response_hist: self.response_ns,
            events_processed: self.queue.popped_total(),
            phases: self.phases,
            telemetry,
            metrics,
        }
    }

    fn event_loop(&mut self) {
        let _prof = prof_scope(ProfScope::EventLoop);
        while !self.stopped {
            debug_assert!(
                self.queue.len() <= max_pending_events(&self.cfg),
                "{} pending events exceed the MSR-derived bound",
                self.queue.len()
            );
            let Some((now, event)) = self.queue.pop() else {
                break;
            };
            if now > self.max_time {
                break;
            }
            match event {
                Event::Resume { core } => {
                    let _prof = prof_scope(ProfScope::EvResume);
                    let core = core as usize;
                    self.cores[core].resume_pending = false;
                    self.run_core(core);
                }
                Event::PageArrived { page } => {
                    let _prof = prof_scope(ProfScope::EvPageArrived);
                    self.on_page_arrived(page);
                }
                Event::Arrival { core } => {
                    let _prof = prof_scope(ProfScope::EvArrival);
                    self.on_arrival(core as usize);
                }
            }
        }
    }

    fn schedule_resume(&mut self, core: usize, at: SimTime) {
        if !self.cores[core].resume_pending {
            self.cores[core].resume_pending = true;
            self.queue
                .schedule(at.max(self.queue.now()), Event::Resume { core: core as u32 });
        }
    }

    fn on_arrival(&mut self, core: usize) {
        let now = self.queue.now();
        self.cores[core].job_queue.push_back(now);
        // Schedule the next arrival on a uniformly random core: thinning
        // a Poisson process keeps each core's arrivals Poisson, which is
        // what the tail-latency model assumes (§VI-C). Round-robin would
        // smooth per-core arrivals into Erlang-k and flatten the tails.
        if let Some(arrivals) = &mut self.arrivals {
            let t = arrivals.next_arrival(&mut self.rng);
            let target = self.rng.gen_range(self.cores.len() as u64) as u32;
            self.queue.schedule(t, Event::Arrival { core: target });
        }
        if self.cores[core].running.is_none() {
            self.schedule_resume(core, now);
        }
    }

    fn on_page_arrived(&mut self, page: u64) {
        let install_prof = prof_scope(ProfScope::Install);
        let now = self.queue.now();
        // Take the scratch buffer so the waiter loop below can borrow
        // `self` mutably; returned (cleared) at the end.
        let mut waiters = std::mem::take(&mut self.waiter_scratch);
        // The install, and the writeback below, attribute to the span of
        // the thread that issued this flash read.
        let (installed_at, dirty_victim) =
            self.bc.complete(now, page, &mut self.dram_cache, &mut waiters);
        if let Some(victim) = dirty_victim {
            // Dirty writeback off the critical path (§IV-B2); flash
            // tracks the program + any GC it triggers.
            self.flash.write(installed_at, victim);
        }
        drop(install_prof);
        let _prof = prof_scope(ProfScope::WakeWaiters);
        for &w in &waiters {
            let core = w.core as usize;
            let thread = w.thread as usize;
            let installed = installed_at;
            let Some((state, blocked_page, since)) = self.cores[core].threads[thread]
                .as_ref()
                .map(|t| (t.state, t.blocked_page, t.parked_at))
            else {
                continue;
            };
            let c = &mut self.cores[core];
            c.cold[thread].miss_arrived(&self.tracer, installed.as_ns(), w.core, page);
            if state == ThreadState::BlockedOnPage && blocked_page == page {
                // A blocked thread resumes at install time: zero resume
                // delay, lifecycle complete.
                c.cold[thread].close_miss(
                    &self.tracer,
                    installed.as_ns(),
                    w.core,
                    &mut self.phases,
                );
                c.threads[thread].as_mut().expect("checked above").state = ThreadState::Running;
                debug_assert_eq!(c.running, Some(thread));
                c.stats.blocked_ns += installed.saturating_since(since).as_ns();
                self.schedule_resume(core, installed);
            } else if state == ThreadState::Parked {
                // Post the completion on the core's queue pair; the
                // scheduler reads it at its next decision point. A
                // doorbell wakes idle cores. Overflowed entries are
                // recovered by the aging guard.
                self.cores[core].notifications.push(Completion {
                    thread: w.thread,
                    page,
                });
                if self.cores[core].running.is_none() {
                    self.schedule_resume(core, installed);
                }
            }
        }
        waiters.clear();
        self.waiter_scratch = waiters;
        self.tracer.clear_span();
    }

    /// Picks the next thread for an idle core and starts executing.
    fn run_core(&mut self, core_id: usize) {
        if self.stopped {
            return;
        }
        let now = self.queue.now();
        if self.cores[core_id].running.is_none() && !self.pick_next(core_id, now, false) {
            return; // idle: woken by PageArrived / Arrival
        }
        self.execute_slice(core_id);
    }

    /// Scheduler invocation; returns whether a thread is now running.
    fn pick_next(&mut self, core_id: usize, now: SimTime, after_miss: bool) -> bool {
        let _prof = prof_scope(ProfScope::SchedulerPick);
        let closed = self.arrivals.is_none();
        let core = &mut self.cores[core_id];
        // Read the queue pair before deciding (§IV-D2): arrived pages
        // make their parked threads ready.
        for c in core.notifications.drain() {
            core.scheduler.page_arrived(now, c.thread);
        }
        let new_available = core.has_new_work(closed);
        match core.scheduler.pick(now, new_available, after_miss) {
            Pick::NewJob => {
                let slot = core.free_slot().expect("has_new_work checked");
                let arrived_at = if closed {
                    now
                } else {
                    core.job_queue.pop_front().expect("queue non-empty")
                };
                // Fill a recycled arena slot in place — no per-job
                // allocation at steady state (DESIGN.md §14).
                let job_slot = core.arena.alloc();
                {
                    let _prof = prof_scope(ProfScope::FillJob);
                    self.engine.fill_job(core.arena.buf_mut(job_slot), &mut self.rng);
                }
                core.threads[slot] = Some(Thread {
                    job_slot,
                    op_idx: 0,
                    access_idx: 0,
                    arrived_at,
                    started_at: now,
                    parked_at: SimTime::ZERO,
                    blocked_page: 0,
                    state: ThreadState::Running,
                    compute_done: false,
                    forced: false,
                });
                core.running = Some(slot);
                true
            }
            Pick::Pending { thread, ready: _ } => {
                let slot = thread as usize;
                let t = core.threads[slot]
                    .as_mut()
                    .expect("pending thread exists");
                t.state = ThreadState::Running;
                // Forward progress: a rescheduled pending thread must
                // retire its access even if the page was evicted again
                // (§IV-C3). The bit also covers not-ready aged threads.
                t.forced = true;
                let cold = &mut core.cold[slot];
                if cold.miss_span != 0 {
                    self.tracer.resume_span(cold.miss_span);
                    self.tracer.span_instant(
                        now.as_ns(),
                        Track::Core(core_id as u32),
                        "resume",
                        thread as u64,
                    );
                }
                cold.close_miss(&self.tracer, now.as_ns(), core_id as u32, &mut self.phases);
                core.running = Some(slot);
                true
            }
            Pick::Idle => false,
        }
    }

    /// Executes the running thread until it finishes, parks, blocks, or
    /// exhausts the slice budget.
    fn execute_slice(&mut self, core_id: usize) {
        let start = self.queue.now();
        let mut t = start;
        // Records the slice `[start, t)` as the core's busy time; invoked
        // immediately before every return. A step that suspends first
        // moves `t` to where the core stopped, so the busy span includes
        // its hit run, tag checks and switch-out.
        macro_rules! account_busy {
            () => {
                if let Some(w) = self.telem_windows.as_deref_mut() {
                    w.busy_ns[core_id].add_span(start.as_ns(), t.as_ns());
                }
            };
        }
        // Apply pending interrupt penalties (shootdown responder cost).
        {
            let core = &mut self.cores[core_id];
            if core.pending_penalty_ns > 0 {
                t += SimDuration::from_ns(core.pending_penalty_ns);
                core.pending_penalty_ns = 0;
            }
        }

        loop {
            if t.saturating_since(start).as_ns() > SLICE_NS {
                // Budget exhausted: stitch with a Resume event.
                account_busy!();
                let core = &mut self.cores[core_id];
                if core.running.is_some() {
                    core.resume_pending = true;
                    self.queue
                        .schedule(t, Event::Resume { core: core_id as u32 });
                }
                return;
            }
            let Some(slot) = self.cores[core_id].running else {
                account_busy!();
                return;
            };

            // Fetch the next step of the job without holding the borrow.
            enum Step {
                Compute(u64),
                /// The op's remaining contiguous slab span, consumed as
                /// a TLB+L1 hit run (DESIGN.md §15).
                AccessRun { start: u32, len: u32 },
                JobDone,
            }
            let step = {
                let core = &mut self.cores[core_id];
                let th = core.threads[slot].as_mut().expect("running thread");
                let buf = core.arena.buf(th.job_slot);
                if th.op_idx >= buf.op_count() {
                    Step::JobDone
                } else {
                    let op = buf.op(th.op_idx);
                    if !th.compute_done {
                        th.compute_done = true;
                        Step::Compute(op.compute_ns)
                    } else if th.access_idx < op.access_len {
                        Step::AccessRun {
                            start: op.access_start + th.access_idx,
                            len: op.access_len - th.access_idx,
                        }
                    } else {
                        th.op_idx += 1;
                        th.access_idx = 0;
                        th.compute_done = false;
                        continue;
                    }
                }
            };

            match step {
                Step::Compute(ns) => {
                    let core = &mut self.cores[core_id];
                    core.rob.advance(ns);
                    t += SimDuration::from_ns(ns);
                }
                Step::AccessRun { start: run_start, len } => {
                    match self.do_access_run(core_id, slot, run_start, len, t, start) {
                        AccessResult::Done(t2) => t = t2,
                        AccessResult::Suspended(stopped) => {
                            t = stopped;
                            account_busy!();
                            return;
                        }
                    }
                }
                Step::JobDone => {
                    self.complete_job(core_id, slot, t);
                    if self.stopped {
                        account_busy!();
                        return;
                    }
                    if !self.pick_next(core_id, t, false) {
                        account_busy!();
                        return;
                    }
                    // Charge the switch to the next job.
                    let cost = self.switch_cost_ns();
                    let core = &mut self.cores[core_id];
                    core.stats.thread_switches += 1;
                    core.stats.switch_overhead_ns += cost;
                    t += SimDuration::from_ns(cost);
                }
            }
        }
    }

    fn complete_job(&mut self, core_id: usize, slot: usize, t: SimTime) {
        let _prof = prof_scope(ProfScope::CompleteJob);
        let th = self.cores[core_id].threads[slot]
            .take()
            .expect("completing thread");
        // Recycle the job's arena slot; its buffers keep their capacity
        // for the next job. A job retires its last access only after
        // its last miss closed, so the slot's cold half is empty.
        self.cores[core_id].arena.release(th.job_slot);
        let cold = &self.cores[core_id].cold[slot];
        debug_assert!(
            cold.miss_span == 0 && !cold.attr.active,
            "a job completed with its miss open"
        );
        self.cores[core_id].running = None;
        self.total_jobs += 1;
        if let Some(w) = self.telem_windows.as_deref_mut() {
            // Warmup completions are included deliberately: the warm-up
            // transient is what the time-resolved view exists to show.
            w.record_completion(t.as_ns(), t.saturating_since(th.arrived_at).as_ns());
        }
        if self.total_jobs == self.warmup_jobs {
            self.measuring_since = t;
        }
        if self.total_jobs > self.warmup_jobs {
            self.measured_jobs += 1;
            let service = t.saturating_since(th.started_at).as_ns();
            self.service_ns.record(service);
            // Streaming Welford update: `OnlineStats` is a fixed-size
            // Copy struct (n/mean/m2/min/max), so per-job memory here is
            // constant no matter how many jobs a run measures — there is
            // deliberately no per-job sample vector. Bounded-memory and
            // two-pass-identical moments are pinned by
            // `crates/core/tests/service_stats.rs`.
            self.service_stats.push(service as f64);
            self.response_ns
                .record(t.saturating_since(th.arrived_at).as_ns());
        }
        if self.total_jobs >= self.jobs_target {
            self.stopped = true;
            // Advance the clock so throughput uses the true end time.
            if t > self.queue.now() {
                self.queue.advance_to(t);
            }
        }
    }

    /// Serves an access whose TLB probe missed ([`RunStop::TlbMiss`]; a
    /// missing probe changes no state): fills the TLB, walks the page
    /// table, then takes the full on-chip walk. The TLB is filled before
    /// the walk, as the hardware installs the walker's result, so a walk
    /// that suspends retries as a TLB hit.
    fn do_access(
        &mut self,
        core_id: usize,
        slot: usize,
        access: MemoryAccess,
        mut t: SimTime,
    ) -> AccessResult {
        let _prof = prof_scope(ProfScope::DoAccess);
        self.cores[core_id].tlb.miss_fill(access.vpn);
        match self.walk_page_table(core_id, slot, access.vpn, t) {
            WalkResult::Done(t2) => t = t2,
            WalkResult::Suspended(stopped) => return AccessResult::Suspended(stopped),
        }
        let outcome = self.hierarchy.access(core_id, access.addr, access.is_write);
        self.finish_access(core_id, slot, access, outcome, t)
    }

    /// Batched hit-run interpreter step (DESIGN.md §15): consumes the
    /// leading TLB-hit+L1-hit run of the running thread's remaining
    /// accesses (`run_len` slab entries starting at `run_start`) with
    /// [`hit_run::scan`], then hands the first non-hit access — if it
    /// falls inside the slice budget — to the miss machinery: a TLB miss
    /// to [`SystemSim::do_access`], an L1 miss to the on-chip walk the
    /// L1 probe started.
    ///
    /// The result equals a per-access loop that probes the TLB, then
    /// the L1, and stops at the first miss, because:
    ///
    /// * the run is capped by [`hit_run::run_cap`] to the accesses the
    ///   slice budget admits, so no probe is issued that a per-access
    ///   loop would not issue;
    /// * [`hit_run::scan`] leaves the TLB and L1 exactly as a per-access
    ///   probe loop does (checked by its unit test);
    /// * every hit charges the same `effective_stall_ns(l1_latency)`,
    ///   so one multiply advances time exactly as N scalar additions;
    /// * a hit retires its access, so a forced-progress thread's bit is
    ///   cleared once the run consumed one, before the stop access is
    ///   served — where the per-access loop clears it at its first hit.
    fn do_access_run(
        &mut self,
        core_id: usize,
        slot: usize,
        run_start: u32,
        run_len: u32,
        t: SimTime,
        slice_start: SimTime,
    ) -> AccessResult {
        let _prof = prof_scope(ProfScope::AccessRun);
        debug_assert!(run_len > 0, "zero-length spans never reach the run step");
        let per = effective_stall_ns(self.hierarchy.config().l1_latency_ns);
        let cap = hit_run::run_cap(t.saturating_since(slice_start).as_ns(), per, run_len);
        let job_slot = self.cores[core_id].threads[slot]
            .as_ref()
            .expect("running thread")
            .job_slot;
        let (consumed, stop, stop_access) = {
            let core = &mut self.cores[core_id];
            let slab = &core.arena.buf(job_slot).accesses()
                [run_start as usize..(run_start + run_len) as usize];
            let (consumed, stop) =
                hit_run::scan(&mut core.tlb, &mut self.hierarchy, core_id, slab, cap);
            (consumed, stop, slab.get(consumed as usize).copied())
        };

        // Retire the hit run: advance the cursor once and charge the
        // accumulated stall once (per-access value × count — identical
        // to N scalar additions of the same rounded per-access stall).
        let t2 = t + SimDuration::from_ns(per * consumed as u64);
        let th = self.cores[core_id].threads[slot]
            .as_mut()
            .expect("running thread");
        th.access_idx += consumed;
        if consumed > 0 {
            th.forced = false;
        }

        // A miss stops the scan within budget by construction
        // (consumed < cap).
        let result = match stop {
            RunStop::Exhausted => return AccessResult::Done(t2),
            RunStop::TlbMiss => {
                let access = stop_access.expect("miss access is inside the span");
                self.do_access(core_id, slot, access, t2)
            }
            RunStop::L1Miss => {
                // Translation already probed (hit); finish the walk the
                // L1 probe started.
                let access = stop_access.expect("miss access is inside the span");
                let outcome = self.hierarchy.miss_walk(core_id, access.addr, access.is_write);
                self.finish_access(core_id, slot, access, outcome, t2)
            }
        };
        if let AccessResult::Done(_) = result {
            self.cores[core_id].threads[slot]
                .as_mut()
                .expect("running thread")
                .access_idx += 1;
        }
        result
    }

    /// Applies an on-chip outcome: charge the latency, then either finish
    /// (hit) or continue off-chip (DRAM-only main memory or DRAM cache).
    fn finish_access(
        &mut self,
        core_id: usize,
        slot: usize,
        access: MemoryAccess,
        outcome: HierarchyOutcome,
        mut t: SimTime,
    ) -> AccessResult {
        match outcome {
            HierarchyOutcome::OnChipHit { latency_ns } => {
                t += SimDuration::from_ns(effective_stall_ns(latency_ns));
                self.clear_forced(core_id, slot);
                AccessResult::Done(t)
            }
            HierarchyOutcome::OffChipMiss { latency_ns } => {
                t += SimDuration::from_ns(effective_stall_ns(latency_ns));
                if self.configuration == Configuration::DramOnly {
                    let row = access.addr / 8192;
                    let done = self.main_memory.access_row(t, row, 1);
                    let lat = done.saturating_since(t).as_ns();
                    t += SimDuration::from_ns(effective_stall_ns(lat));
                    self.clear_forced(core_id, slot);
                    return AccessResult::Done(t);
                }
                self.dram_cache_access(core_id, slot, access, t)
            }
        }
    }

    fn clear_forced(&mut self, core_id: usize, slot: usize) {
        if let Some(th) = self.cores[core_id].threads[slot].as_mut() {
            th.forced = false;
        }
    }

    /// The DRAM-cache probe and the per-configuration miss handling.
    fn dram_cache_access(
        &mut self,
        core_id: usize,
        slot: usize,
        access: MemoryAccess,
        t: SimTime,
    ) -> AccessResult {
        // Page and in-page block were pre-resolved at generation time.
        let page = access.vpn;
        match self.dram_cache.probe(t, page, access.block, access.is_write) {
            ProbeOutcome::Hit { done_at } => {
                let lat = done_at.saturating_since(t).as_ns();
                let t = t + SimDuration::from_ns(effective_stall_ns(lat));
                // An MSR-stalled retry can hit if another thread's fetch
                // installed the page meanwhile: its miss closes without
                // an arrival.
                self.cores[core_id].cold[slot].close_miss(
                    &self.tracer,
                    t.as_ns(),
                    core_id as u32,
                    &mut self.phases,
                );
                self.clear_forced(core_id, slot);
                AccessResult::Done(t)
            }
            ProbeOutcome::Miss { tag_check_done_at }
            | ProbeOutcome::SubMiss { tag_check_done_at } => {
                self.cores[core_id].stats.dram_cache_misses += 1;
                // Resources for this request are reclaimed (§IV-C1): the
                // speculatively filled block must not satisfy the retry.
                self.hierarchy.invalidate_block(core_id, access.addr);
                self.handle_miss(core_id, slot, access, tag_check_done_at)
            }
        }
    }

    fn handle_miss(
        &mut self,
        core_id: usize,
        slot: usize,
        access: MemoryAccess,
        t: SimTime,
    ) -> AccessResult {
        let _prof = prof_scope(ProfScope::MissPath);
        let page = access.vpn;
        // The BC admission below resolves the miss this opens.
        self.cores[core_id].cold[slot].open_miss(
            &self.tracer,
            t.as_ns(),
            core_id as u32,
            page,
        );

        // Admit to the backside controller (dedup via MSR, flash read).
        let waiter = Waiter {
            core: core_id as u32,
            thread: slot as u32,
        };
        let fetch = self.dram_cache.predict_footprint(page, access.block);
        let admission = {
            let _prof = prof_scope(ProfScope::MsrAdmit);
            self.bc.admit(t, page, fetch, waiter, &mut self.dram_cache)
        };
        match admission {
            BcAdmission::Duplicate { resolved_at } => {
                // Read already in flight; the miss coalesces onto it.
                let attr = &mut self.cores[core_id].cold[slot].attr;
                attr.kind = MissKind::Coalesced;
                attr.admit_ns = resolved_at.as_ns().saturating_sub(attr.started_ns);
                attr.admit_end_ns = resolved_at.as_ns();
            }
            BcAdmission::IssueFlashRead { issue_at } => {
                let bytes = u64::from(fetch.count_ones()) * 64;
                let timing = {
                    let _prof = prof_scope(ProfScope::FlashIssue);
                    self.flash.read_bytes_timed(issue_at, page, bytes)
                };
                let done = timing.done;
                let attr = &mut self.cores[core_id].cold[slot].attr;
                attr.kind = MissKind::Issued;
                attr.admit_ns = issue_at.as_ns().saturating_sub(attr.started_ns);
                attr.admit_end_ns = issue_at.as_ns();
                attr.queue_ns = timing.queue_ns;
                attr.read_ns = timing.read_ns;
                attr.xfer_ns = timing.xfer_ns;
                attr.xfer_done_ns = timing.transfer_done.as_ns();
                self.queue.schedule(done, Event::PageArrived { page });
            }
            BcAdmission::Stalled => {
                // MSR set full: FC stalls this request and retries.
                self.tracer.span_instant(
                    t.as_ns(),
                    Track::Core(core_id as u32),
                    "msr_retry",
                    page,
                );
                let retry = t + SimDuration::from_ns(MSR_RETRY_NS);
                let core = &mut self.cores[core_id];
                core.resume_pending = true;
                self.queue
                    .schedule(retry, Event::Resume { core: core_id as u32 });
                return AccessResult::Suspended(t);
            }
        }

        let forced = self.cores[core_id].threads[slot]
            .as_ref()
            .map(|th| th.forced)
            .unwrap_or(false);

        match self.configuration {
            Configuration::FlashSync => self.block_on_page(core_id, slot, page, t),
            Configuration::AstriFlash
            | Configuration::AstriFlashIdeal
            | Configuration::AstriFlashNoPS
            | Configuration::AstriFlashNoDP => {
                if forced {
                    self.cores[core_id].stats.forced_synchronous += 1;
                    return self.block_on_page(core_id, slot, page, t);
                }
                // Switch-on-miss: flush the ROB and switch to the
                // handler (§IV-C2).
                let switch = self.switch_cost_ns();
                let overhead = {
                    let core = &mut self.cores[core_id];
                    let overhead = core.rob.flush() + switch;
                    core.stats.thread_switches += 1;
                    core.stats.switch_overhead_ns += overhead;
                    overhead
                };
                let t = t + SimDuration::from_ns(overhead);
                self.tracer.span_instant(
                    t.as_ns(),
                    Track::Core(core_id as u32),
                    "switch_out",
                    overhead,
                );
                self.park_or_block(core_id, slot, page, t)
            }
            Configuration::OsSwap => {
                // Demand-paging fault: trap + storage stack + switch out.
                let b = OsPagingCosts::default().fault_breakdown(self.cfg.cores);
                // The mapping change shoots down every other core's TLB.
                for (i, other) in self.cores.iter_mut().enumerate() {
                    if i != core_id {
                        other.pending_penalty_ns += b.responder_ns;
                        other.tlb.invalidate(page);
                    }
                }
                let t = t + SimDuration::from_ns(b.before_switch_ns);
                {
                    let core = &mut self.cores[core_id];
                    core.stats.thread_switches += 1;
                    core.stats.switch_overhead_ns += b.faulting_core_total_ns();
                }
                // The resume-side cost lands when the job is picked back
                // up, as a penalty on the core.
                self.cores[core_id].pending_penalty_ns += b.after_completion_ns;
                self.park_or_block(core_id, slot, page, t)
            }
            Configuration::DramOnly => unreachable!("DRAM-only never misses to flash"),
        }
    }

    /// Parks the thread in the pending queue, or blocks the core when
    /// the queue is full (§IV-D1).
    fn park_or_block(
        &mut self,
        core_id: usize,
        slot: usize,
        page: u64,
        t: SimTime,
    ) -> AccessResult {
        match self.cores[core_id]
            .scheduler
            .park_on_miss(t, slot as u32)
        {
            MissPark::Parked => {
                let core = &mut self.cores[core_id];
                if let Some(w) = self.telem_windows.as_deref_mut() {
                    // Parking is the only place the pending queue grows.
                    let len = core.scheduler.pending_len() as u64;
                    w.runq_peak[core_id].record_max(t.as_ns(), len);
                }
                let th = core.threads[slot].as_mut().expect("running");
                th.state = ThreadState::Parked;
                th.parked_at = t;
                core.running = None;
                // Pick the next job inside the handler.
                if self.pick_next(core_id, t, true) {
                    self.schedule_resume(core_id, t);
                }
                AccessResult::Suspended(t)
            }
            MissPark::QueueFullWaitFor(_oldest) => {
                // The scheduler waits for the oldest job's flash
                // response; the core is blocked either way. We block on
                // our own page (same flash-wait magnitude, no extra
                // bookkeeping).
                self.block_on_page(core_id, slot, page, t)
            }
        }
    }

    fn block_on_page(
        &mut self,
        core_id: usize,
        slot: usize,
        page: u64,
        t: SimTime,
    ) -> AccessResult {
        self.tracer
            .span_instant(t.as_ns(), Track::Core(core_id as u32), "block", page);
        let core = &mut self.cores[core_id];
        let th = core.threads[slot].as_mut().expect("running");
        th.state = ThreadState::BlockedOnPage;
        th.blocked_page = page;
        th.parked_at = t;
        // running stays = Some(slot); PageArrived resumes it.
        AccessResult::Suspended(t)
    }

    /// Radix page-table walk: PTE reads through the hierarchy; their
    /// backing store depends on DRAM partitioning (§IV-A).
    fn walk_page_table(
        &mut self,
        core_id: usize,
        slot: usize,
        vpn: u64,
        mut t: SimTime,
    ) -> WalkResult {
        let _prof = prof_scope(ProfScope::PtWalk);
        let no_dp = self.configuration == Configuration::AstriFlashNoDP;
        for pte_addr in self.walker.walk_addresses(vpn) {
            match self.hierarchy.access(core_id, pte_addr, false) {
                HierarchyOutcome::OnChipHit { latency_ns } => {
                    t += SimDuration::from_ns(effective_stall_ns(latency_ns));
                }
                HierarchyOutcome::OffChipMiss { latency_ns } => {
                    t += SimDuration::from_ns(effective_stall_ns(latency_ns));
                    if !no_dp {
                        // Page tables live in the flat DRAM partition —
                        // a plain DRAM access, walks never touch flash.
                        let done = self.main_memory.access_row(t, pte_addr / 8192, 1);
                        t = done; // serialized walk: fully exposed
                    } else {
                        // noDP: the PTE page is flash-backed. Probe the
                        // DRAM cache; a miss is a *synchronous* flash
                        // read in the middle of a serialized walk.
                        let page = pte_addr / PAGE_SIZE;
                        let block = ((pte_addr % PAGE_SIZE) / 64) as u32;
                        match self.dram_cache.probe(t, page, block, false) {
                            ProbeOutcome::Hit { done_at } => t = done_at,
                            ProbeOutcome::Miss { tag_check_done_at }
                            | ProbeOutcome::SubMiss { tag_check_done_at } => {
                                self.cores[core_id].stats.pt_walk_flash_reads += 1;
                                // Walk misses have no thread-level miss
                                // span; don't attribute BC/flash work to
                                // a stale one.
                                self.tracer.clear_span();
                                let waiter = Waiter {
                                    core: core_id as u32,
                                    thread: slot as u32,
                                };
                                match self.bc.admit(
                                    tag_check_done_at,
                                    page,
                                    u64::MAX,
                                    waiter,
                                    &mut self.dram_cache,
                                ) {
                                    BcAdmission::IssueFlashRead { issue_at } => {
                                        let done = self.flash.read(issue_at, page);
                                        self.queue
                                            .schedule(done, Event::PageArrived { page });
                                    }
                                    BcAdmission::Duplicate { .. } => {}
                                    BcAdmission::Stalled => {
                                        let retry = tag_check_done_at
                                            + SimDuration::from_ns(MSR_RETRY_NS);
                                        self.cores[core_id].resume_pending = true;
                                        self.queue.schedule(
                                            retry,
                                            Event::Resume { core: core_id as u32 },
                                        );
                                        return WalkResult::Suspended(tag_check_done_at);
                                    }
                                }
                                self.block_on_page(core_id, slot, page, t);
                                return WalkResult::Suspended(t);
                            }
                        }
                    }
                }
            }
        }
        WalkResult::Done(t)
    }
}

/// How an access step ended: retired at a time, or suspended the core.
enum AccessResult {
    Done(SimTime),
    /// The thread parked, blocked or stalled on a full MSR set. Carries
    /// the time the core stopped executing it: after the switch-out for
    /// a park, the block or stall time otherwise. The slice's busy span
    /// ends there (DESIGN.md §13).
    Suspended(SimTime),
}

/// How a page-table walk ended; `Suspended` as in [`AccessResult`].
enum WalkResult {
    Done(SimTime),
    Suspended(SimTime),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TelemetryCfg;

    const QUICK: Load = Load::Closed { jobs_per_core: 40 };

    fn quick(cfg: Configuration) -> RunReport {
        let config = SystemConfig::default().with_cores(2).scaled_for_tests();
        SystemSim::new(config, cfg, 7).run(QUICK)
    }

    fn count(r: &RunReport, name: &str) -> u64 {
        r.metrics.count(name).expect("every run reports its counts")
    }

    #[test]
    fn dram_only_completes_jobs() {
        let r = quick(Configuration::DramOnly);
        assert!(r.jobs_completed >= 80);
        assert_eq!(count(&r, "dram_cache_misses"), 0);
        assert!(r.mean_service_ns > 0.0);
    }

    #[test]
    fn astriflash_misses_and_switches() {
        let r = quick(Configuration::AstriFlash);
        assert!(r.jobs_completed > 0);
        assert!(count(&r, "dram_cache_misses") > 0, "flash-backed run must miss");
        assert!(count(&r, "switches") > 0);
    }

    #[test]
    fn flash_sync_blocks_instead_of_switching() {
        let r = quick(Configuration::FlashSync);
        let blocked = r.metrics.float("blocked_total").expect("blocked time is reported");
        assert!(blocked > 0.0, "Flash-Sync must block on flash");
    }

    #[test]
    fn deterministic_across_runs() {
        let a = quick(Configuration::AstriFlash);
        let b = quick(Configuration::AstriFlash);
        assert_eq!(a.jobs_completed, b.jobs_completed);
        assert_eq!(count(&a, "dram_cache_misses"), count(&b, "dram_cache_misses"));
        assert_eq!(a.mean_service_ns.to_bits(), b.mean_service_ns.to_bits());
    }

    /// Gauge lanes per name in a traced run of `config`.
    fn traced_gauges(config: SystemConfig) -> (RunReport, Vec<(&'static str, u32)>) {
        use astriflash_trace::EventKind;
        let tracer = Tracer::ring(1 << 16);
        let mut sim = SystemSim::new(config, Configuration::AstriFlash, 7);
        sim.set_tracer(tracer.clone());
        let report = sim.run(QUICK);
        let evs = tracer.finish();
        assert!(evs.iter().any(|e| e.name == "miss"));
        let mut gauges: Vec<(&'static str, u32)> = evs
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Gauge { lane, .. } => Some((e.name, lane)),
                _ => None,
            })
            .collect();
        gauges.sort_unstable();
        gauges.dedup();
        (report, gauges)
    }

    #[test]
    fn tracing_does_not_perturb_the_run() {
        let plain = quick(Configuration::AstriFlash);
        let config = SystemConfig::default()
            .with_cores(2)
            .scaled_for_tests()
            .with_telemetry(TelemetryCfg::default().with_window_ns(10_000));
        let (traced, gauges) = traced_gauges(config);
        assert_eq!(plain.render(), traced.render());
        assert_eq!(plain.jobs_completed, traced.jobs_completed);
        assert_eq!(plain.events_processed, traced.events_processed);
        assert_eq!(
            plain.measured_seconds.to_bits(),
            traced.measured_seconds.to_bits()
        );
        assert_eq!(
            plain.mean_service_ns.to_bits(),
            traced.mean_service_ns.to_bits()
        );
        assert!(gauges.contains(&("msr_occupancy", 0)));
        for core in 0..2 {
            assert!(gauges.contains(&("win_core_util", core)), "core {core}");
            assert!(gauges.contains(&("win_runq_peak", core)), "core {core}");
        }
    }

    #[test]
    fn without_telemetry_the_only_counter_is_msr_occupancy() {
        let config = SystemConfig::default().with_cores(2).scaled_for_tests();
        let (_, gauges) = traced_gauges(config);
        assert_eq!(gauges, vec![("msr_occupancy", 0)]);
    }

    #[test]
    fn events_processed_counts_the_run() {
        let r = quick(Configuration::AstriFlash);
        assert!(
            r.events_processed > r.jobs_completed,
            "every job takes at least one event"
        );
        let again = quick(Configuration::AstriFlash);
        assert_eq!(r.events_processed, again.events_processed);
    }

    #[test]
    fn hot_structs_stay_packed() {
        // Static size regression gates (DESIGN.md §14): the event loop
        // copies `Event`s through the queue and scans `Option<Thread>`
        // slots per pick, so growth here is a silent perf regression.
        // If a change legitimately needs more space, update DESIGN.md
        // §14 and these pins together.
        use std::mem::size_of;
        assert_eq!(size_of::<Event>(), 16, "Event grew — see DESIGN.md §14");
        assert_eq!(
            size_of::<Thread>(),
            48,
            "Thread hot section grew — see DESIGN.md §14"
        );
        assert!(
            size_of::<Option<Thread>>() <= 56,
            "Option<Thread> slot grew — see DESIGN.md §14"
        );
    }

    #[test]
    fn open_loop_measures_response_time() {
        let config = SystemConfig::default().with_cores(2).scaled_for_tests();
        let r = SystemSim::new(config, Configuration::AstriFlash, 9).run(Load::Open {
            mean_interarrival_ns: 30_000.0,
            total_jobs: 100,
        });
        assert!(r.jobs_completed > 0);
        assert!(r.response_hist.mean() >= r.service_hist.mean() * 0.5);
    }
}
