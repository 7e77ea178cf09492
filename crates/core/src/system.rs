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

use astriflash_cpu::{ArchState, OooTiming, Privilege, Rob, StoreBuffer};
use astriflash_flash::FlashDevice;
use astriflash_mem::{
    BacksideController, BcAdmission, CacheHierarchy, DramBanks, DramCache, DramTimings,
    HierarchyOutcome, LevelTotals, ProbeOutcome, Waiter,
};
use astriflash_os::{PageTableWalker, Tlb};
use astriflash_prof::{scope as prof_scope, Scope as ProfScope};
use astriflash_sim::{EventQueue, PageMap, SimDuration, SimRng, SimTime};
use astriflash_stats::{Histogram, OnlineStats, Phase, PhaseSet};
use astriflash_trace::{Track, Tracer};
use astriflash_uthread::{Completion, MissPark, NotificationQueue, Pick, Policy, Scheduler};
use astriflash_workloads::{
    EngineFork, JobArena, JobBuf, MemoryAccess, PoissonArrivals, PAGE_SIZE,
};

use crate::config::{Configuration, SystemConfig};
use crate::telemetry::{CoreWindows, TelemetryReport};

/// Execution-slice lookahead bound.
const SLICE_NS: u64 = 4_000;
/// Retry delay when the MSR rejects an admission (set full).
const MSR_RETRY_NS: u64 = 2_000;
/// Gauge sampling period when tracing is enabled. Sample events only
/// read component state, so they never perturb the simulated outcome.
const GAUGE_INTERVAL_NS: u64 = 10_000;

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
    /// Periodic observability gauge sample (tracing runs only).
    Sample,
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

/// Cold half of a thread slot: touched only on miss lifecycles, never by
/// the per-access execute loop (DESIGN.md §14).
#[derive(Debug, Default)]
struct ThreadCold {
    /// Open trace span for the in-flight miss (0 = none).
    miss_span: u64,
    /// Per-phase scratch for the in-flight miss (latency attribution,
    /// DESIGN.md §11). Lives and dies with the miss span.
    attr: MissAttr,
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
    jobs_done: u64,
    dram_cache_misses: u64,
    thread_switches: u64,
    switch_overhead_ns: u64,
    blocked_ns: u64,
    forced_synchronous: u64,
    pt_walk_flash_reads: u64,
    /// Time the core spent executing slices (ns); read by the
    /// `core_util` gauge.
    busy_ns: u64,
}

struct Core {
    scheduler: Scheduler,
    /// BC → core completion notifications (§IV-D2): produced on page
    /// arrival, drained at every scheduling decision.
    notifications: NotificationQueue,
    tlb: Tlb,
    rob: Rob,
    sb: StoreBuffer,
    arch: ArchState,
    timing: OooTiming,
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

/// Aggregate run statistics exposed to [`crate::experiment`].
#[derive(Debug)]
pub struct SystemStats {
    /// Jobs completed after warmup.
    pub measured_jobs: u64,
    /// All jobs completed (including warmup).
    pub total_jobs: u64,
    /// Service-time distribution (ns): dequeue → completion, flash waits
    /// included, queueing excluded (§V-A).
    pub service_ns: Histogram,
    /// Response-time distribution (ns): arrival → completion.
    pub response_ns: Histogram,
    /// When measurement began.
    pub measuring_since: SimTime,
    /// When the run ended (last completion / cap).
    pub ended_at: SimTime,
    /// DRAM-cache misses observed after warmup.
    pub dram_cache_misses: u64,
    /// Thread/context switches performed.
    pub switches: u64,
    /// Aggregate switch overhead (ns).
    pub switch_overhead_ns: u64,
    /// Core-time lost blocked on synchronous flash (ns).
    pub blocked_ns: u64,
    /// Forward-progress synchronous completions.
    pub forced_synchronous: u64,
    /// Page-table walk reads served from flash (noDP pathology).
    pub pt_walk_flash_reads: u64,
    /// Streaming moments of service time (for CV reporting; §III-A's
    /// queueing model assumes near-memoryless service).
    pub service_stats: OnlineStats,
    /// Backside-controller admissions stalled on a full MSR set.
    pub msr_stalls: u64,
    /// High-water mark of concurrent DRAM-cache misses in the MSR.
    pub msr_max_occupancy: usize,
    /// Flash page reads issued.
    pub flash_reads: u64,
    /// Bytes moved from flash by reads.
    pub flash_read_bytes: u64,
    /// Dirty-page writebacks to flash.
    pub flash_writebacks: u64,
    /// Discrete events popped from the simulation queue over the whole
    /// run — the denominator for kernel-throughput (events/sec) metrics.
    pub events_processed: u64,
    /// Chip-wide per-level on-chip hit/miss totals (private levels
    /// summed over cores), for the hit-rate breakdown in reports.
    pub level_totals: LevelTotals,
    /// TLB hits summed over cores.
    pub tlb_hits: u64,
    /// TLB misses summed over cores.
    pub tlb_misses: u64,
    /// Per-phase latency attribution of completed miss lifecycles
    /// (DESIGN.md §11); empty when the run never missed.
    pub phases: PhaseSet,
    /// Time-resolved telemetry (DESIGN.md §13); `Some` iff the run was
    /// configured with `SystemConfig::telemetry`. Collection never
    /// changes the simulated outcome, so every other field is
    /// bit-identical with telemetry on or off.
    pub telemetry: Option<TelemetryReport>,
}

impl SystemStats {
    /// Hit rate from a (hits, misses) pair; 0 when nothing was accessed.
    fn rate(hits: u64, misses: u64) -> f64 {
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// L1 hit rate across cores.
    pub fn l1_hit_rate(&self) -> f64 {
        Self::rate(self.level_totals.l1_hits, self.level_totals.l1_misses)
    }

    /// L2 hit rate across cores.
    pub fn l2_hit_rate(&self) -> f64 {
        Self::rate(self.level_totals.l2_hits, self.level_totals.l2_misses)
    }

    /// Shared-LLC hit rate.
    pub fn llc_hit_rate(&self) -> f64 {
        Self::rate(self.level_totals.llc_hits, self.level_totals.llc_misses)
    }

    /// TLB hit rate across cores.
    pub fn tlb_hit_rate(&self) -> f64 {
        Self::rate(self.tlb_hits, self.tlb_misses)
    }
}

/// The composed full-system simulator.
pub struct SystemSim {
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
    closed_loop: bool,
    arrivals: Option<PoissonArrivals>,
    next_arrival_core: usize,
    jobs_target: u64,
    warmup_jobs: u64,
    total_jobs: u64,
    measured_jobs: u64,
    measuring_since: SimTime,
    service_ns: Histogram,
    response_ns: Histogram,
    service_stats: OnlineStats,
    /// Footprint bitmap of each in-flight flash read (footprint mode).
    /// Bounded by the MSR capacity, so the map is pre-sized and never
    /// rehashes.
    inflight_footprints: PageMap<u64>,
    stopped: bool,
    max_time: SimTime,
    tracer: Tracer,
    /// Trace span of the thread that *issued* each in-flight flash read
    /// (page → span id); completions re-attribute to it. Bounded by the
    /// MSR capacity like `inflight_footprints`.
    inflight_spans: PageMap<u64>,
    /// Reused waiter buffer for completions (cleared between events).
    waiter_scratch: Vec<Waiter>,
    /// Per-phase histograms of completed miss lifecycles.
    phases: PhaseSet,
    /// Copy of `cfg.batched_hit_runs` (hot-path gate): when set, the
    /// interpreter consumes leading TLB+L1 hit runs in one pass
    /// (DESIGN.md §15); when clear it runs the retained scalar
    /// reference path, one `do_access` per access.
    batch_runs: bool,
    /// Core-layer windowed telemetry (latency/completions/SLO); `Some`
    /// iff `cfg.telemetry` is set. Component-layer windows live inside
    /// the DRAM cache, BC, and flash device.
    telem_windows: Option<Box<CoreWindows>>,
    /// Previous gauge-sample window state (hits, misses, per-core busy,
    /// sample time) for windowed rates.
    gauge_prev: GaugeWindow,
}

#[derive(Debug, Default)]
struct GaugeWindow {
    dc_hits: u64,
    dc_misses: u64,
    /// Previous-sample on-chip per-level totals (for windowed hit rates).
    levels: LevelTotals,
    tlb_hits: u64,
    tlb_misses: u64,
    busy_ns: Vec<u64>,
    at: SimTime,
}

impl SystemSim {
    /// Builds the system for `configuration`, seeding every component
    /// deterministically from `seed`.
    pub fn new(cfg: SystemConfig, configuration: Configuration, seed: u64) -> Self {
        cfg.validate();
        let rng = SimRng::new(seed);
        let mut engine = cfg.workload.fork(&cfg.workload_params, seed ^ 0xE17);
        let threads_per_core =
            cfg.effective_threads_per_core(engine.threads_per_core_hint());
        // Pending-queue capacity per core (§IV-D1): the thread count
        // minus one, at least one.
        let pending_cap = threads_per_core.saturating_sub(1).max(1);

        let policy = match configuration {
            Configuration::AstriFlashNoPS => Policy::Fifo,
            _ => Policy::PriorityAging,
        };
        let timing = if cfg.in_order_timing {
            OooTiming::in_order()
        } else {
            OooTiming::default()
        };
        let mut cores = Vec::with_capacity(cfg.cores);
        for _ in 0..cfg.cores {
            let mut arch = ArchState::new();
            // The runtime installs the scheduler handler via a verifying
            // syscall at startup (§IV-C2).
            arch.set_handler(0xFFFF_8000_0000_0000, Privilege::Kernel)
                .expect("kernel installs the handler");
            cores.push(Core {
                scheduler: Scheduler::new(policy, pending_cap)
                    .with_aging_multiplier(cfg.aging_multiplier),
                notifications: NotificationQueue::new(2 * threads_per_core),
                tlb: Tlb::new(cfg.tlb_geometry.0, cfg.tlb_geometry.1),
                rob: Rob::a76(),
                sb: StoreBuffer::a76_aso(),
                arch,
                timing,
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
        // Prewarm the DRAM cache to its steady-state content: replay the
        // page stream of a batch of jobs through an LRU of the same
        // capacity and install the survivors (coldest first).
        let mut warm_rng = SimRng::new(seed ^ 0x77A7);
        let capacity = dram_cache_cfg.capacity_pages() as usize;
        let mut lru = astriflash_mem::PageLru::new(capacity);
        let mut recency: Vec<u64> = Vec::new();
        let target_touches = capacity * 8;
        let mut touches = 0usize;
        let mut warm_buf = JobBuf::new();
        while touches < target_touches {
            engine.fill_job(&mut warm_buf, &mut warm_rng);
            for a in warm_buf.accesses() {
                let page = a.addr / PAGE_SIZE;
                if !lru.access(page) {
                    recency.push(page);
                }
                touches += 1;
            }
        }
        let resident: Vec<u64> = recency
            .iter()
            .rev()
            .filter(|p| lru.contains(**p))
            .take(capacity)
            .copied()
            .collect();
        let dram_cache =
            DramCache::prewarmed(dram_cache_cfg, resident.into_iter().rev());

        let mut dram_cache = dram_cache;
        let (msr_sets, msr_ways) = cfg.msr_geometry;
        let mut bc = BacksideController::new(msr_sets, msr_ways, 2);
        let mut flash = FlashDevice::new(cfg.flash_config(), seed ^ 0xF1);
        // Attach windowed telemetry to every layer up front (collection
        // is pure bookkeeping; the simulated outcome is bit-identical
        // either way).
        let telem_windows = cfg.telemetry.map(|t| {
            dram_cache.enable_windows(t.window_ns, t.max_windows);
            bc.enable_windows(t.window_ns, t.max_windows);
            flash.enable_windows(t.window_ns, t.max_windows);
            Box::new(CoreWindows::new(&t))
        });
        let pt_base = dataset_bytes;
        let walker = PageTableWalker::new(pt_base, cfg.page_table_region_bytes() / 4096);
        let hierarchy = CacheHierarchy::new(cfg.cores, cfg.hierarchy.clone());
        let max_time = SimTime::from_ms(cfg.max_sim_time_ms);
        let batch_runs = cfg.batched_hit_runs;

        SystemSim {
            cfg,
            configuration,
            queue: EventQueue::new(),
            rng,
            engine,
            hierarchy,
            dram_cache,
            main_memory: DramBanks::new(32, DramTimings::default()),
            bc,
            flash,
            walker,
            cores,
            closed_loop: true,
            arrivals: None,
            next_arrival_core: 0,
            jobs_target: 0,
            warmup_jobs: 0,
            total_jobs: 0,
            measured_jobs: 0,
            measuring_since: SimTime::ZERO,
            service_ns: Histogram::new(),
            response_ns: Histogram::new(),
            service_stats: OnlineStats::new(),
            // In-flight reads are capped by the MSR, so sizing both maps
            // to its capacity makes rehashing impossible at runtime.
            inflight_footprints: PageMap::with_capacity(msr_sets * msr_ways),
            stopped: false,
            max_time,
            tracer: Tracer::off(),
            inflight_spans: PageMap::with_capacity(msr_sets * msr_ways),
            waiter_scratch: Vec::new(),
            phases: PhaseSet::new(),
            batch_runs,
            telem_windows,
            gauge_prev: GaugeWindow::default(),
        }
    }

    /// Installs the observability handle and propagates it to every
    /// component (BC, flash, per-core schedulers). Enabling tracing
    /// never changes the simulated outcome: all emissions are stamped
    /// with sim time and gauge samples only read component state.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.bc.set_tracer(tracer.clone());
        self.flash.set_tracer(tracer.clone());
        for (i, core) in self.cores.iter_mut().enumerate() {
            core.scheduler.set_tracer(tracer.clone(), i as u32);
        }
        self.tracer = tracer;
    }

    /// The configuration being simulated.
    pub fn configuration(&self) -> Configuration {
        self.configuration
    }

    fn switch_cost_ns(&self) -> u64 {
        match self.configuration {
            Configuration::AstriFlashIdeal => 0,
            Configuration::OsSwap => self.cfg.os_costs.context_switch_ns,
            _ => self.cfg.switch_cost_ns,
        }
    }

    /// Runs closed-loop to saturation: every core keeps its thread slots
    /// full from an infinite job queue. Measures `jobs_per_core` jobs per
    /// core after warming up with `warmup_fraction` extra jobs.
    pub fn run_closed_loop(mut self, jobs_per_core: u64) -> SystemStats {
        self.closed_loop = true;
        let measured_target = jobs_per_core * self.cfg.cores as u64;
        self.warmup_jobs = ((measured_target as f64 * self.cfg.warmup_fraction) as u64).max(1);
        self.jobs_target = self.warmup_jobs + measured_target;
        for core in 0..self.cfg.cores {
            self.schedule_resume(core, SimTime::ZERO);
        }
        self.start_sampling();
        self.event_loop();
        self.finish()
    }

    /// Runs open-loop with Poisson arrivals of the given mean
    /// inter-arrival time (system-wide) until `total_jobs` complete.
    pub fn run_open_loop(mut self, mean_interarrival_ns: f64, total_jobs: u64) -> SystemStats {
        self.closed_loop = false;
        self.warmup_jobs = ((total_jobs as f64 * self.cfg.warmup_fraction) as u64).max(1);
        self.jobs_target = self.warmup_jobs + total_jobs;
        let mut arrivals = PoissonArrivals::new(mean_interarrival_ns);
        let first = arrivals.next_arrival(&mut self.rng);
        self.arrivals = Some(arrivals);
        let core = self.next_arrival_core as u32;
        self.queue.schedule(first, Event::Arrival { core });
        self.start_sampling();
        self.event_loop();
        self.finish()
    }

    /// Schedules the first gauge sample. No-op when tracing is off, so
    /// untraced runs see an identical event stream.
    fn start_sampling(&mut self) {
        if self.tracer.enabled() {
            self.gauge_prev.busy_ns = vec![0; self.cores.len()];
            let first = SimTime::ZERO + SimDuration::from_ns(GAUGE_INTERVAL_NS);
            if first <= self.max_time {
                self.queue.schedule(first, Event::Sample);
            }
        }
    }

    fn finish(mut self) -> SystemStats {
        // Close any spans still open at end-of-run (threads parked or
        // blocked when the job target / time cap hit) so every trace is
        // well-formed.
        if self.tracer.enabled() {
            let t = self.queue.now().as_ns();
            for (ci, core) in self.cores.iter_mut().enumerate() {
                for slot in 0..core.threads.len() {
                    if core.threads[slot].is_some() {
                        let span = std::mem::take(&mut core.cold[slot].miss_span);
                        self.tracer.end_span(t, Track::Core(ci as u32), "miss", span);
                    }
                }
            }
        }
        // Mirror the span force-close for phase attribution: lifecycles
        // whose page arrived count (resume delay runs to end-of-run, as
        // in the force-closed span the analyzer sees); the rest — pages
        // still in flight — are discarded on both sides.
        let end = self.queue.now().as_ns();
        for core in &mut self.cores {
            for slot in 0..core.threads.len() {
                if core.threads[slot].is_some() {
                    let attr = std::mem::take(&mut core.cold[slot].attr);
                    if attr.active && attr.arrived {
                        attr.flush(end, &mut self.phases);
                    }
                }
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
        let mut stats = SystemStats {
            measured_jobs: self.measured_jobs,
            total_jobs: self.total_jobs,
            service_ns: self.service_ns,
            response_ns: self.response_ns,
            measuring_since: self.measuring_since,
            ended_at: self.queue.now(),
            dram_cache_misses: 0,
            switches: 0,
            switch_overhead_ns: 0,
            blocked_ns: 0,
            forced_synchronous: 0,
            pt_walk_flash_reads: 0,
            msr_stalls: self.bc.stats().stalls,
            msr_max_occupancy: self.bc.msr().max_occupancy(),
            flash_reads: self.flash.stats().reads,
            flash_read_bytes: self.flash.stats().read_bytes,
            flash_writebacks: self.bc.stats().writebacks,
            events_processed: self.queue.popped_total(),
            service_stats: self.service_stats,
            level_totals: self.hierarchy.level_totals(),
            tlb_hits: 0,
            tlb_misses: 0,
            phases: self.phases,
            telemetry,
        };
        for c in &self.cores {
            stats.tlb_hits += c.tlb.hits();
            stats.tlb_misses += c.tlb.misses();
            stats.dram_cache_misses += c.stats.dram_cache_misses;
            stats.switches += c.stats.thread_switches;
            stats.switch_overhead_ns += c.stats.switch_overhead_ns;
            stats.blocked_ns += c.stats.blocked_ns;
            stats.forced_synchronous += c.stats.forced_synchronous;
            stats.pt_walk_flash_reads += c.stats.pt_walk_flash_reads;
        }
        stats
    }

    /// End-of-run simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    fn event_loop(&mut self) {
        let _prof = prof_scope(ProfScope::EventLoop);
        while !self.stopped {
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
                Event::Sample => {
                    let _prof = prof_scope(ProfScope::EvSample);
                    self.on_sample();
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
            let target = self.rng.gen_range(self.cores.len() as u64) as usize;
            self.next_arrival_core = target;
            self.queue.schedule(t, Event::Arrival { core: target as u32 });
        }
        if self.cores[core].running.is_none() {
            self.schedule_resume(core, now);
        }
    }

    /// Emits the periodic component gauges (MSR occupancy, per-channel
    /// flash backlog, windowed DRAM-cache hit rate, per-core run-queue
    /// length and utilization) and reschedules itself.
    fn on_sample(&mut self) {
        let now = self.queue.now();
        let t = now.as_ns();
        self.tracer
            .gauge(t, "msr_occupancy", 0, self.bc.outstanding() as f64);
        for (i, backlog) in self.flash.channel_backlogs_ns(now).iter().enumerate() {
            self.tracer
                .gauge(t, "flash_chan_backlog_ns", i as u32, *backlog as f64);
        }
        let (hits, misses) = (self.dram_cache.hits(), self.dram_cache.misses());
        let dh = hits - self.gauge_prev.dc_hits;
        let dm = misses - self.gauge_prev.dc_misses;
        if dh + dm > 0 {
            self.tracer
                .gauge(t, "dcache_hit_rate", 0, dh as f64 / (dh + dm) as f64);
        }
        // Windowed per-level on-chip + TLB hit rates (same convention as
        // dcache_hit_rate: no gauge when the window saw no accesses).
        let levels = self.hierarchy.level_totals();
        let prev = self.gauge_prev.levels;
        let level_gauge = |name: &'static str, h: u64, m: u64| {
            if h + m > 0 {
                self.tracer.gauge(t, name, 0, h as f64 / (h + m) as f64);
            }
        };
        level_gauge(
            "l1_hit_rate",
            levels.l1_hits - prev.l1_hits,
            levels.l1_misses - prev.l1_misses,
        );
        level_gauge(
            "l2_hit_rate",
            levels.l2_hits - prev.l2_hits,
            levels.l2_misses - prev.l2_misses,
        );
        level_gauge(
            "llc_hit_rate",
            levels.llc_hits - prev.llc_hits,
            levels.llc_misses - prev.llc_misses,
        );
        let (tlb_h, tlb_m) = self.cores.iter().fold((0u64, 0u64), |(h, m), c| {
            (h + c.tlb.hits(), m + c.tlb.misses())
        });
        level_gauge(
            "tlb_hit_rate",
            tlb_h - self.gauge_prev.tlb_hits,
            tlb_m - self.gauge_prev.tlb_misses,
        );
        let interval = now.saturating_since(self.gauge_prev.at).as_ns();
        for (i, core) in self.cores.iter().enumerate() {
            self.tracer
                .gauge(t, "runq_len", i as u32, core.scheduler.pending_len() as f64);
            if interval > 0 {
                let delta = core.stats.busy_ns - self.gauge_prev.busy_ns[i];
                self.tracer.gauge(
                    t,
                    "core_util",
                    i as u32,
                    (delta as f64 / interval as f64).min(1.0),
                );
            }
        }
        self.tracer.gauge(t, "jobs_done", 0, self.total_jobs as f64);
        self.gauge_prev.dc_hits = hits;
        self.gauge_prev.dc_misses = misses;
        self.gauge_prev.levels = levels;
        self.gauge_prev.tlb_hits = tlb_h;
        self.gauge_prev.tlb_misses = tlb_m;
        for (i, core) in self.cores.iter().enumerate() {
            self.gauge_prev.busy_ns[i] = core.stats.busy_ns;
        }
        self.gauge_prev.at = now;
        let next = now + SimDuration::from_ns(GAUGE_INTERVAL_NS);
        if !self.stopped && next <= self.max_time {
            self.queue.schedule(next, Event::Sample);
        }
    }

    fn on_page_arrived(&mut self, page: u64) {
        let install_prof = prof_scope(ProfScope::Install);
        let now = self.queue.now();
        let bitmap = self.inflight_footprints.remove(page).unwrap_or(u64::MAX);
        if self.tracer.enabled() {
            // Re-attribute the install (and any writeback) to the span
            // of the thread that issued this flash read.
            match self.inflight_spans.remove(page) {
                Some(span) => self.tracer.resume_span(span),
                None => self.tracer.clear_span(),
            }
        }
        // Take the scratch buffer so the waiter loop below can borrow
        // `self` mutably; returned (cleared) at the end.
        let mut waiters = std::mem::take(&mut self.waiter_scratch);
        let (installed_at, dirty_victim) = self.bc.complete_with_footprint_into(
            now,
            page,
            bitmap,
            &mut self.dram_cache,
            &mut waiters,
        );
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
            let blocked_here = state == ThreadState::BlockedOnPage && blocked_page == page;
            if self.tracer.enabled() && self.cores[core].cold[thread].miss_span != 0 {
                self.tracer.resume_span(self.cores[core].cold[thread].miss_span);
                self.tracer.span_instant(
                    installed.as_ns(),
                    Track::Core(w.core),
                    "page_arrived",
                    page,
                );
            }
            // Phase attribution: stamp the arrival (once — a thread can
            // appear twice in the waiter list after an aged promotion
            // re-missed the same page) and close out lifecycles that
            // resume synchronously below.
            let mut done_attr: Option<MissAttr> = None;
            let attr = &mut self.cores[core].cold[thread].attr;
            if attr.active {
                if !attr.arrived {
                    attr.arrived = true;
                    attr.arrived_ns = installed.as_ns();
                    match attr.kind {
                        MissKind::Issued => {
                            attr.install_ns =
                                installed.as_ns().saturating_sub(attr.xfer_done_ns);
                        }
                        MissKind::Coalesced => {
                            attr.coalesced_ns =
                                installed.as_ns().saturating_sub(attr.admit_end_ns);
                        }
                        MissKind::Unresolved => {}
                    }
                }
                // Blocked threads resume at install time: zero resume
                // delay, lifecycle complete.
                if blocked_here {
                    done_attr = Some(std::mem::take(attr));
                }
            }
            if blocked_here {
                let c = &mut self.cores[core];
                c.threads[thread].as_mut().expect("checked above").state =
                    ThreadState::Running;
                let span = std::mem::take(&mut c.cold[thread].miss_span);
                self.tracer
                    .end_span(installed.as_ns(), Track::Core(w.core), "miss", span);
                debug_assert_eq!(self.cores[core].running, Some(thread));
                self.cores[core].stats.blocked_ns +=
                    installed.saturating_since(since).as_ns();
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
            if let Some(attr) = done_attr {
                attr.flush(installed.as_ns(), &mut self.phases);
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
        let closed = self.closed_loop;
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
                let span = std::mem::take(&mut core.cold[slot].miss_span);
                if span != 0 {
                    self.tracer.resume_span(span);
                    self.tracer.span_instant(
                        now.as_ns(),
                        Track::Core(core_id as u32),
                        "resume",
                        thread as u64,
                    );
                    self.tracer
                        .end_span(now.as_ns(), Track::Core(core_id as u32), "miss", span);
                }
                // Phase attribution mirrors the span close above: a
                // lifecycle whose page arrived completes here (the gap
                // since arrival is its resume delay); an aged promotion
                // without arrival is discarded, like its span — the
                // analyzer skips spans with no `page_arrived` too.
                if core.cold[slot].attr.active {
                    let attr = std::mem::take(&mut core.cold[slot].attr);
                    if attr.arrived {
                        attr.flush(now.as_ns(), &mut self.phases);
                    }
                }
                core.arch.force_forward_progress();
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
        // Busy time always accrues from the slice start: the macro is
        // only ever invoked immediately before returning, so no
        // intermediate re-anchoring is needed.
        let busy_from = start;
        macro_rules! account_busy {
            () => {
                self.cores[core_id].stats.busy_ns +=
                    t.saturating_since(busy_from).as_ns();
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
                /// Scalar fallback: one access through `do_access` (the
                /// forced-progress path, and the reference interpreter
                /// when `batch_runs` is off).
                Access(MemoryAccess),
                /// The op's remaining contiguous slab span, consumed as
                /// a TLB+L1 hit run (DESIGN.md §15). Only fetched when
                /// the thread is not in forced-progress state, so the
                /// per-access `clear_forced` check is hoisted out of
                /// the dominant hit path entirely.
                AccessRun { start: u32, len: u32 },
                JobDone,
            }
            let step = {
                let batch_runs = self.batch_runs;
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
                        if th.forced || !batch_runs {
                            Step::Access(buf.access(op.access_start + th.access_idx))
                        } else {
                            Step::AccessRun {
                                start: op.access_start + th.access_idx,
                                len: op.access_len - th.access_idx,
                            }
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
                Step::Access(access) => {
                    match self.do_access(core_id, slot, access, t) {
                        AccessResult::Done(t2) => {
                            t = t2;
                            let th = self.cores[core_id].threads[slot]
                                .as_mut()
                                .expect("running");
                            th.access_idx += 1;
                        }
                        AccessResult::Suspended => {
                            account_busy!();
                            return;
                        }
                    }
                }
                Step::AccessRun { start: run_start, len } => {
                    match self.do_access_run(core_id, slot, run_start, len, t, start) {
                        AccessResult::Done(t2) => t = t2,
                        AccessResult::Suspended => {
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
        // Recycle the job's arena slot and reset the cold scratch; the
        // slot's buffers keep their capacity for the next job.
        self.cores[core_id].arena.release(th.job_slot);
        self.cores[core_id].cold[slot] = ThreadCold::default();
        self.cores[core_id].running = None;
        self.cores[core_id].stats.jobs_done += 1;
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

    /// Issues one memory access; returns the advanced time or suspends
    /// the core (thread parked or blocked).
    ///
    /// The dominant case — TLB hit then L1 hit — is resolved inline with
    /// two masked probes ([`Tlb::probe`], [`CacheHierarchy::l1_probe`])
    /// and no outcome enum; every counter and replacement decision along
    /// that path is identical to the full walk below, which handles the
    /// miss cases in the historical order (TLB fill before the page-table
    /// walk, so a walk that suspends retries as a TLB hit).
    fn do_access(
        &mut self,
        core_id: usize,
        slot: usize,
        access: MemoryAccess,
        mut t: SimTime,
    ) -> AccessResult {
        let _prof = prof_scope(ProfScope::DoAccess);
        let MemoryAccess {
            addr,
            vpn,
            is_write,
            ..
        } = access;
        if self.cores[core_id].tlb.probe(vpn) {
            if self.hierarchy.l1_probe(core_id, addr, is_write) {
                let timing = self.cores[core_id].timing;
                let lat = self.hierarchy.config().l1_latency_ns;
                t += SimDuration::from_ns(timing.effective_stall_ns(lat));
                self.clear_forced(core_id, slot);
                return AccessResult::Done(t);
            }
            // Translation cached but L1 missed: finish the walk the L1
            // probe started.
            let outcome = self.hierarchy.miss_walk(core_id, addr, is_write);
            return self.finish_access(core_id, slot, access, outcome, t);
        }

        // 1. Address translation (the TLB is filled before the walk, as
        //    the hardware installs the walker's result).
        self.cores[core_id].tlb.miss_fill(vpn);
        match self.walk_page_table(core_id, slot, vpn, t) {
            WalkResult::Done(t2) => t = t2,
            WalkResult::Suspended => return AccessResult::Suspended,
        }

        // 2. On-chip hierarchy.
        let outcome = self.hierarchy.access(core_id, addr, is_write);
        self.finish_access(core_id, slot, access, outcome, t)
    }

    /// Batched hit-run interpreter step (DESIGN.md §15): consumes the
    /// leading TLB-hit+L1-hit run of the running thread's remaining
    /// accesses (`run_len` slab entries starting at `run_start`) in one
    /// pass, then hands the first non-hit access — if it falls inside
    /// the slice budget — to the scalar miss machinery.
    ///
    /// Decision-identity with `run_len` scalar [`SystemSim::do_access`]
    /// steps (proven by `crates/core/tests/hit_run_differential.rs`)
    /// rests on four invariants:
    ///
    /// * the run is pre-capped to the number of accesses the slice
    ///   budget admits, so probes the scalar loop would never issue are
    ///   never issued here;
    /// * the TLB and L1 probes of a hit access commute (disjoint
    ///   structures), so probing one page-segment's TLB repeats after
    ///   its L1 scan leaves the same final state as the scalar
    ///   per-access interleave — and segment boundaries keep the *set*
    ///   of probes identical, including the TLB hit the scalar path
    ///   pays on an L1-missing access;
    /// * every hit charges the same `effective_stall_ns(l1_latency)`,
    ///   so one multiply advances time exactly as N scalar additions;
    /// * the caller only fetches a run when the thread is not in
    ///   forced-progress state, where `clear_forced` is a no-op — the
    ///   per-access branch is hoisted, not skipped.
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
        let timing = self.cores[core_id].timing;
        let per = timing.effective_stall_ns(self.hierarchy.config().l1_latency_ns);
        // Cap the run to the slice budget: the scalar loop re-checks the
        // budget before every access, so access `i` (0-based, stalls of
        // `per` each) is only reached while `elapsed + i*per <= SLICE_NS`.
        let elapsed = t.saturating_since(slice_start).as_ns();
        debug_assert!(elapsed <= SLICE_NS, "caller checked the budget");
        let cap = match (SLICE_NS - elapsed).checked_div(per) {
            // per == 0: hits are free, the whole span fits the budget.
            None => run_len,
            Some(q) => ((q + 1).min(run_len as u64)) as u32,
        };

        enum RunStop {
            /// Budget or end-of-span: nothing left to probe.
            Exhausted,
            /// TLB missed the next access; nothing was probed for it.
            TlbMiss,
            /// TLB hit but L1 missed the next access; its TLB probe is
            /// already accounted, the L1 is untouched.
            L1Miss,
        }
        let job_slot = self.cores[core_id].threads[slot]
            .as_ref()
            .expect("running thread")
            .job_slot;
        let mut consumed: u32 = 0;
        let (stop, stop_access) = {
            let hier = &mut self.hierarchy;
            let core = &mut self.cores[core_id];
            let slab = &core.arena.buf(job_slot).accesses()
                [run_start as usize..(run_start + run_len) as usize];
            let tlb = &mut core.tlb;
            let stop = loop {
                if consumed >= cap {
                    break RunStop::Exhausted;
                }
                // Leading same-page segment of the remaining budgeted
                // accesses (read-only scan).
                let vpn = slab[consumed as usize].vpn;
                let mut seg: u32 = 1;
                while consumed + seg < cap && slab[(consumed + seg) as usize].vpn == vpn {
                    seg += 1;
                }
                // One real TLB probe decides the whole segment; a miss
                // touches nothing and falls to the scalar walk.
                if !tlb.probe(vpn) {
                    break RunStop::TlbMiss;
                }
                let l1n = hier.l1_probe_run(
                    core_id,
                    slab[consumed as usize..(consumed + seg) as usize]
                        .iter()
                        .map(|a| (a.addr, a.is_write)),
                ) as u32;
                if l1n < seg {
                    // The scalar loop probes the TLB of the L1-missing
                    // access too (a repeat hit of this segment's page)
                    // before discovering the L1 miss: l1n repeats cover
                    // accesses 1..l1n plus that one.
                    tlb.probe_run(std::iter::repeat_n(vpn, l1n as usize));
                    consumed += l1n;
                    break RunStop::L1Miss;
                }
                // Whole segment hit: one probe done, seg-1 repeats.
                tlb.probe_run(std::iter::repeat_n(vpn, seg as usize - 1));
                consumed += seg;
            };
            (stop, slab.get(consumed as usize).copied())
        };

        // Retire the hit run: advance the cursor once and charge the
        // accumulated stall once (per-access value × count — identical
        // to N scalar additions of the same rounded per-access stall).
        let t2 = t + SimDuration::from_ns(per * consumed as u64);
        self.cores[core_id].threads[slot]
            .as_mut()
            .expect("running thread")
            .access_idx += consumed;

        match stop {
            RunStop::Exhausted => AccessResult::Done(t2),
            RunStop::TlbMiss => {
                // Within budget by construction (consumed < cap). The
                // scalar path re-probes the TLB, which on a miss is
                // stateless, then fills and walks as usual.
                let access = stop_access.expect("miss access is inside the span");
                match self.do_access(core_id, slot, access, t2) {
                    AccessResult::Done(t3) => {
                        self.cores[core_id].threads[slot]
                            .as_mut()
                            .expect("running thread")
                            .access_idx += 1;
                        AccessResult::Done(t3)
                    }
                    AccessResult::Suspended => AccessResult::Suspended,
                }
            }
            RunStop::L1Miss => {
                // Translation already probed (hit); finish the walk the
                // L1 probe started — the same continuation `do_access`
                // takes on its TLB-hit/L1-miss path.
                let access = stop_access.expect("miss access is inside the span");
                let outcome = self.hierarchy.miss_walk(core_id, access.addr, access.is_write);
                match self.finish_access(core_id, slot, access, outcome, t2) {
                    AccessResult::Done(t3) => {
                        self.cores[core_id].threads[slot]
                            .as_mut()
                            .expect("running thread")
                            .access_idx += 1;
                        AccessResult::Done(t3)
                    }
                    AccessResult::Suspended => AccessResult::Suspended,
                }
            }
        }
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
        let timing = self.cores[core_id].timing;
        match outcome {
            HierarchyOutcome::OnChipHit { latency_ns } => {
                t += SimDuration::from_ns(timing.effective_stall_ns(latency_ns));
                self.clear_forced(core_id, slot);
                AccessResult::Done(t)
            }
            HierarchyOutcome::OffChipMiss { latency_ns } => {
                t += SimDuration::from_ns(timing.effective_stall_ns(latency_ns));
                if self.configuration == Configuration::DramOnly {
                    let row = access.addr / 8192;
                    let done = self.main_memory.access_row(t, row, 1);
                    let lat = done.saturating_since(t).as_ns();
                    t += SimDuration::from_ns(timing.effective_stall_ns(lat));
                    self.clear_forced(core_id, slot);
                    return AccessResult::Done(t);
                }
                self.dram_cache_access(core_id, slot, access, t)
            }
        }
    }

    fn clear_forced(&mut self, core_id: usize, slot: usize) {
        let core = &mut self.cores[core_id];
        if let Some(th) = core.threads[slot].as_mut() {
            if th.forced {
                th.forced = false;
                core.arch.clear_forward_progress();
            }
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
        let timing = self.cores[core_id].timing;
        match self.dram_cache.probe(t, page, access.block, access.is_write) {
            ProbeOutcome::Hit { done_at } => {
                let lat = done_at.saturating_since(t).as_ns();
                let t = t + SimDuration::from_ns(timing.effective_stall_ns(lat));
                if self.tracer.enabled() && self.cores[core_id].threads[slot].is_some() {
                    // An MSR-stalled retry can hit if another thread's
                    // fetch installed the page meanwhile: close its span.
                    let span = std::mem::take(&mut self.cores[core_id].cold[slot].miss_span);
                    self.tracer
                        .end_span(t.as_ns(), Track::Core(core_id as u32), "miss", span);
                }
                if self.cores[core_id].threads[slot].is_some() {
                    // The retried miss resolved as a hit: its lifecycle
                    // never saw a page arrival, so discard the scratch
                    // (the analyzer skips such spans as well).
                    let attr = &mut self.cores[core_id].cold[slot].attr;
                    if attr.active {
                        *attr = MissAttr::default();
                    }
                }
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
        let MemoryAccess {
            addr,
            vpn: page,
            is_write,
            ..
        } = access;
        // Open (or re-enter after an MSR-stall retry) this miss's trace
        // span; BC and flash emissions below attribute to it.
        let miss_span = if self.tracer.enabled() {
            debug_assert!(self.cores[core_id].threads[slot].is_some());
            if self.cores[core_id].cold[slot].miss_span == 0 {
                self.cores[core_id].cold[slot].miss_span = self.tracer.begin_span(
                    t.as_ns(),
                    Track::Core(core_id as u32),
                    "miss",
                    page,
                );
            } else {
                self.tracer.resume_span(self.cores[core_id].cold[slot].miss_span);
            }
            self.cores[core_id].cold[slot].miss_span
        } else {
            0
        };
        // Open (or keep, across an MSR-stall retry) this miss's
        // attribution scratch; the BC admission below resolves it.
        let attr = &mut self.cores[core_id].cold[slot].attr;
        if !attr.active {
            *attr = MissAttr::begin(t.as_ns());
        }

        // Admit to the backside controller (dedup via MSR, flash read).
        let waiter = Waiter {
            core: core_id as u32,
            thread: slot as u32,
        };
        let admission = {
            let _prof = prof_scope(ProfScope::MsrAdmit);
            self.bc.admit(t, page, waiter, &mut self.dram_cache)
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
                let bitmap = self.dram_cache.predict_footprint(page, access.block);
                let bytes = bitmap.count_ones() as u64 * 64;
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
                self.inflight_footprints.insert(page, bitmap);
                if miss_span != 0 {
                    self.inflight_spans.insert(page, miss_span);
                }
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
                return AccessResult::Suspended;
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
                // Switch-on-miss: abort a committed store if needed,
                // flush the ROB, save context, invoke the handler.
                let mut overhead = 0;
                {
                    let core = &mut self.cores[core_id];
                    if is_write {
                        if let (_, Some(id)) = core.sb.push(addr) {
                            core.sb.abort(id);
                        }
                    }
                    overhead += core.rob.flush();
                    core.arch.record_miss_pc(addr);
                    overhead += self.cfg.switch_cost_ns * u64::from(
                        self.configuration != Configuration::AstriFlashIdeal,
                    );
                    core.stats.thread_switches += 1;
                    core.stats.switch_overhead_ns += overhead;
                }
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
                let b = self.cfg.os_costs.fault_breakdown(self.cfg.cores);
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
                let th = core.threads[slot].as_mut().expect("running");
                th.state = ThreadState::Parked;
                th.parked_at = t;
                core.running = None;
                // Pick the next job inside the handler.
                if self.pick_next(core_id, t, true) {
                    self.schedule_resume(core_id, t);
                }
                AccessResult::Suspended
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
        AccessResult::Suspended
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
        let timing = self.cores[core_id].timing;
        for pte_addr in self.walker.walk_addresses(vpn) {
            match self.hierarchy.access(core_id, pte_addr, false) {
                HierarchyOutcome::OnChipHit { latency_ns } => {
                    t += SimDuration::from_ns(timing.effective_stall_ns(latency_ns));
                }
                HierarchyOutcome::OffChipMiss { latency_ns } => {
                    t += SimDuration::from_ns(timing.effective_stall_ns(latency_ns));
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
                                    waiter,
                                    &mut self.dram_cache,
                                ) {
                                    BcAdmission::IssueFlashRead { issue_at } => {
                                        self.inflight_footprints.insert(page, u64::MAX);
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
                                        return WalkResult::Suspended;
                                    }
                                }
                                self.block_on_page(core_id, slot, page, t);
                                return WalkResult::Suspended;
                            }
                        }
                    }
                }
            }
        }
        WalkResult::Done(t)
    }
}

enum AccessResult {
    Done(SimTime),
    Suspended,
}

enum WalkResult {
    Done(SimTime),
    Suspended,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(cfg: Configuration) -> SystemStats {
        let config = SystemConfig::default().with_cores(2).scaled_for_tests();
        SystemSim::new(config, cfg, 7).run_closed_loop(40)
    }

    #[test]
    fn dram_only_completes_jobs() {
        let stats = quick(Configuration::DramOnly);
        assert!(stats.measured_jobs >= 80);
        assert_eq!(stats.dram_cache_misses, 0);
        assert!(stats.service_ns.mean() > 0.0);
    }

    #[test]
    fn astriflash_misses_and_switches() {
        let stats = quick(Configuration::AstriFlash);
        assert!(stats.measured_jobs > 0);
        assert!(stats.dram_cache_misses > 0, "flash-backed run must miss");
        assert!(stats.switches > 0);
    }

    #[test]
    fn flash_sync_blocks_instead_of_switching() {
        let stats = quick(Configuration::FlashSync);
        assert!(stats.blocked_ns > 0, "Flash-Sync must block on flash");
    }

    #[test]
    fn deterministic_across_runs() {
        let a = quick(Configuration::AstriFlash);
        let b = quick(Configuration::AstriFlash);
        assert_eq!(a.measured_jobs, b.measured_jobs);
        assert_eq!(a.dram_cache_misses, b.dram_cache_misses);
        assert_eq!(a.service_ns.mean(), b.service_ns.mean());
    }

    #[test]
    fn tracing_does_not_perturb_the_run() {
        let plain = quick(Configuration::AstriFlash);
        let config = SystemConfig::default().with_cores(2).scaled_for_tests();
        let tracer = Tracer::ring(1 << 16);
        let mut sim = SystemSim::new(config, Configuration::AstriFlash, 7);
        sim.set_tracer(tracer.clone());
        let traced = sim.run_closed_loop(40);
        assert_eq!(plain.measured_jobs, traced.measured_jobs);
        assert_eq!(plain.ended_at, traced.ended_at);
        assert_eq!(
            plain.service_ns.mean().to_bits(),
            traced.service_ns.mean().to_bits()
        );
        let evs = tracer.finish();
        assert!(evs.iter().any(|e| e.name == "miss"));
        assert!(evs.iter().any(|e| e.name == "msr_occupancy"));
        assert!(evs.iter().any(|e| e.name == "core_util"));
    }

    #[test]
    fn inflight_maps_presized_past_the_msr_bound() {
        // The MSR caps concurrent misses, so the in-flight maps must be
        // born large enough that no admission pattern can ever trigger a
        // rehash (satellite of the hot-path overhaul: capacity hints on
        // known-bounded maps).
        let config = SystemConfig::default().with_cores(2).scaled_for_tests();
        let (sets, ways) = config.msr_geometry;
        let sim = SystemSim::new(config, Configuration::AstriFlash, 7);
        let cap_before = sim.inflight_footprints.capacity();
        assert!(cap_before * 3 >= sets * ways * 4, "map would rehash under full MSR");
        assert!(sim.inflight_spans.capacity() * 3 >= sets * ways * 4);
    }

    #[test]
    fn events_processed_counts_the_run() {
        let stats = quick(Configuration::AstriFlash);
        assert!(
            stats.events_processed > stats.measured_jobs,
            "every job takes at least one event"
        );
        let again = quick(Configuration::AstriFlash);
        assert_eq!(stats.events_processed, again.events_processed);
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
        let stats =
            SystemSim::new(config, Configuration::AstriFlash, 9).run_open_loop(30_000.0, 100);
        assert!(stats.measured_jobs > 0);
        assert!(stats.response_ns.mean() >= stats.service_ns.mean() * 0.5);
    }
}
