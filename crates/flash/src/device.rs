//! The assembled SSD: planes + FTL + channel links + garbage collection.

use astriflash_sim::{BandwidthLink, SimDuration, SimRng, SimTime};
use astriflash_stats::WindowSeries;
use astriflash_trace::{Track, Tracer};

use crate::config::FlashConfig;
use crate::ftl::Ftl;
use crate::plane::Plane;

/// Aggregate device statistics.
#[derive(Debug, Clone, Default)]
pub struct FlashStats {
    /// Page reads serviced.
    pub reads: u64,
    /// Bytes transferred to the host by reads.
    pub read_bytes: u64,
    /// Page programs serviced.
    pub writes: u64,
    /// GC block erasures performed.
    pub gc_erases: u64,
    /// Valid pages migrated by GC.
    pub gc_migrated_pages: u64,
    /// Reads that arrived while their plane was garbage-collecting.
    pub reads_blocked_by_gc: u64,
}

impl FlashStats {
    /// Fraction of reads that waited behind garbage collection.
    pub fn gc_blocked_fraction(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.reads_blocked_by_gc as f64 / self.reads as f64
        }
    }
}

/// Per-window flash-health telemetry (DESIGN.md §13): the time-resolved
/// view of the same quantities [`FlashStats`] aggregates end-of-run.
///
/// Attached via [`FlashDevice::enable_windows`]; recording is pure
/// bookkeeping and never changes device timing, so a run with windows
/// enabled is bit-identical to one without.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlashWindows {
    /// Page reads issued per window.
    pub reads: WindowSeries,
    /// Page programs issued per window.
    pub writes: WindowSeries,
    /// GC passes that erased at least one block, per window.
    pub gc_invocations: WindowSeries,
    /// Blocks erased by GC per window.
    pub gc_erases: WindowSeries,
    /// Valid pages migrated by GC per window.
    pub gc_migrated_pages: WindowSeries,
    /// Per-channel busy nanoseconds per window (transfer occupancy), one
    /// series per channel — busy / window length is the utilization.
    pub chan_busy_ns: Vec<WindowSeries>,
}

impl FlashWindows {
    fn new(window_ns: u64, channels: usize) -> Self {
        let mk = || WindowSeries::new(window_ns);
        FlashWindows {
            reads: mk(),
            writes: mk(),
            gc_invocations: mk(),
            gc_erases: mk(),
            gc_migrated_pages: mk(),
            chan_busy_ns: (0..channels).map(|_| mk()).collect(),
        }
    }

    /// Write amplification factor in window `w`:
    /// `(host writes + GC migrations) / host writes`, or 0 when the
    /// window saw no host writes.
    pub fn waf(&self, w: usize) -> f64 {
        let host = self.writes.get(w);
        if host == 0 {
            0.0
        } else {
            (host + self.gc_migrated_pages.get(w)) as f64 / host as f64
        }
    }

    /// Channel `c`'s utilization in window `w` (busy fraction, ≤ 1 for
    /// complete windows).
    pub fn chan_util(&self, c: usize, w: usize) -> f64 {
        match self.chan_busy_ns.get(c) {
            Some(s) => s.get(w) as f64 / s.window_ns() as f64,
            None => 0.0,
        }
    }

    /// Mean utilization across channels in window `w`.
    pub fn mean_chan_util(&self, w: usize) -> f64 {
        if self.chan_busy_ns.is_empty() {
            return 0.0;
        }
        let n = self.chan_busy_ns.len();
        (0..n).map(|c| self.chan_util(c, w)).sum::<f64>() / n as f64
    }

    /// Observations dropped past the window cap, across all series.
    pub fn dropped(&self) -> u64 {
        self.reads.dropped()
            + self.writes.dropped()
            + self.gc_invocations.dropped()
            + self.gc_erases.dropped()
            + self.gc_migrated_pages.dropped()
            + self.chan_busy_ns.iter().map(WindowSeries::dropped).sum::<u64>()
    }

    /// Highest touched window index + 1 across all series.
    pub fn num_windows(&self) -> usize {
        self.reads
            .num_windows()
            .max(self.writes.num_windows())
            .max(self.gc_erases.num_windows())
            .max(
                self.chan_busy_ns
                    .iter()
                    .map(WindowSeries::num_windows)
                    .max()
                    .unwrap_or(0),
            )
    }
}

/// Per-phase timing breakdown of one flash read, as returned by
/// [`FlashDevice::read_bytes_timed`]. The phases partition the read's
/// life up to `transfer_done`; the remaining `done - transfer_done` gap
/// is the fixed controller/host overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashReadTiming {
    /// Time spent queued behind the flash plane (0 if it was idle).
    pub queue_ns: u64,
    /// Array read time (tR, with jitter).
    pub read_ns: u64,
    /// Channel/PCIe transfer time for the fetched bytes.
    pub xfer_ns: u64,
    /// When the channel transfer completed.
    pub transfer_done: SimTime,
    /// When the data is available at the host (transfer + controller
    /// overhead) — the value [`FlashDevice::read`] returns.
    pub done: SimTime,
}

/// The SSD model. See the crate docs for the modeling scope.
#[derive(Debug)]
pub struct FlashDevice {
    cfg: FlashConfig,
    planes: Vec<Plane>,
    ftl: Ftl,
    /// The live pages of the GC victim being migrated, reused across
    /// collections.
    gc_live: Vec<u64>,
    channels: Vec<BandwidthLink>,
    stats: FlashStats,
    rng: SimRng,
    tracer: Tracer,
    windows: Option<Box<FlashWindows>>,
}

impl FlashDevice {
    /// Builds the device from a validated config.
    pub fn new(cfg: FlashConfig, seed: u64) -> Self {
        cfg.validate();
        let planes = (0..cfg.num_planes())
            .map(|_| Plane::new(cfg.blocks_per_plane(), cfg.pages_per_block))
            .collect();
        let channels = (0..cfg.channels)
            .map(|_| BandwidthLink::new(cfg.channel_bandwidth_bps))
            .collect();
        FlashDevice {
            ftl: Ftl::new(&cfg),
            cfg,
            planes,
            gc_live: Vec::new(),
            channels,
            stats: FlashStats::default(),
            rng: SimRng::new(seed ^ 0xF1A5_11DE),
            tracer: Tracer::off(),
            windows: None,
        }
    }

    /// Attaches per-window flash-health telemetry (off by default; pure
    /// bookkeeping, never affects timing or RNG draws).
    pub fn enable_windows(&mut self, window_ns: u64) {
        self.windows = Some(Box::new(FlashWindows::new(window_ns, self.cfg.channels)));
    }

    /// The window collector, if enabled.
    pub fn windows(&self) -> Option<&FlashWindows> {
        self.windows.as_deref()
    }

    /// Detaches and returns the window collector.
    pub fn take_windows(&mut self) -> Option<FlashWindows> {
        self.windows.take().map(|b| *b)
    }

    /// Installs the observability handle. Reads emit queue/array/transfer
    /// slices on their channel's [`Track::FlashChannel`], attributed to
    /// the composer's current miss span.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn channel_of(&self, plane: usize) -> usize {
        plane % self.cfg.channels
    }

    /// Small per-operation latency jitter (firmware scheduling, ECC
    /// retries): ±10 % lognormal-ish spread around the nominal latency.
    fn jitter(&mut self, nominal_ns: u64) -> SimDuration {
        let f = 0.95 + 0.1 * self.rng.gen_f64() + 0.05 * self.rng.gen_exp(1.0);
        SimDuration::from_ns_f64(nominal_ns as f64 * f)
    }

    /// Reads a 4 KiB logical page; returns when the data has fully
    /// arrived at the host.
    pub fn read(&mut self, now: SimTime, logical_page: u64) -> SimTime {
        self.read_bytes_timed(now, logical_page, FlashConfig::PAGE_BYTES).done
    }

    /// Partial-page read with a per-phase timing breakdown, for latency
    /// attribution: the array access costs full tR, but only `bytes`
    /// cross the channel (the footprint-cache optimization, §II-A —
    /// bandwidth, not latency, is what footprints save).
    pub fn read_bytes_timed(
        &mut self,
        now: SimTime,
        logical_page: u64,
        bytes: u64,
    ) -> FlashReadTiming {
        let bytes = bytes.clamp(64, FlashConfig::PAGE_BYTES);
        let plane_idx = self.ftl.plane_of(logical_page);
        let channel_idx = self.channel_of(plane_idx);
        self.stats.reads += 1;
        self.stats.read_bytes += bytes;
        if self.planes[plane_idx].blocked_by_gc(now) {
            self.stats.reads_blocked_by_gc += 1;
        }
        let t_r = self.jitter(self.cfg.read_latency_ns);
        let array_done = self.planes[plane_idx].occupy_read(now, t_r);
        let array_start = array_done - t_r;
        let queue_wait = array_start.saturating_since(now).as_ns();
        // Transfer over the channel once the array read finishes, then
        // pay the controller/host overhead.
        let chan_free = self.channels[channel_idx].busy_until();
        let transfer_done = self.channels[channel_idx].transfer(array_done, bytes);
        if let Some(w) = self.windows.as_deref_mut() {
            w.reads.add(now.as_ns(), 1);
            // The transfer occupies the channel from whichever is later of
            // its prior commitment and the array completing.
            let start = chan_free.max(array_done);
            w.chan_busy_ns[channel_idx].add_span(start.as_ns(), transfer_done.as_ns());
        }
        let done = transfer_done + SimDuration::from_ns(self.cfg.controller_overhead_ns);
        if self.tracer.enabled() {
            let track = Track::FlashChannel(channel_idx as u32);
            self.tracer
                .span_instant(now.as_ns(), track, "flash_issue", logical_page);
            if queue_wait > 0 {
                self.tracer
                    .slice(now.as_ns(), queue_wait, track, "flash_queue", logical_page);
            }
            self.tracer
                .slice(array_start.as_ns(), t_r.as_ns(), track, "flash_read", logical_page);
            self.tracer.slice(
                array_done.as_ns(),
                transfer_done.saturating_since(array_done).as_ns(),
                track,
                "flash_xfer",
                bytes,
            );
        }
        FlashReadTiming {
            queue_ns: queue_wait,
            read_ns: t_r.as_ns(),
            xfer_ns: transfer_done.saturating_since(array_done).as_ns(),
            transfer_done,
            done,
        }
    }

    /// Writes (programs) a logical page out-of-place; returns the program
    /// completion time. May trigger garbage collection on the target
    /// plane, whose cost is charged to that plane (local erasure, §VI-D).
    pub fn write(&mut self, now: SimTime, logical_page: u64) -> SimTime {
        let plane_idx = self.ftl.plane_of(logical_page);
        let channel_idx = self.channel_of(plane_idx);
        self.stats.writes += 1;

        self.maybe_gc(now, plane_idx);

        // Host-to-device transfer, then program.
        let chan_free = self.channels[channel_idx].busy_until();
        let transfer_done = self.channels[channel_idx].transfer(now, FlashConfig::PAGE_BYTES);
        if let Some(w) = self.windows.as_deref_mut() {
            w.writes.add(now.as_ns(), 1);
            let start = chan_free.max(now);
            w.chan_busy_ns[channel_idx].add_span(start.as_ns(), transfer_done.as_ns());
        }
        let t_prog = self.jitter(self.cfg.program_latency_ns);
        let done = self.planes[plane_idx].occupy_write(transfer_done, t_prog);

        // FTL bookkeeping: allocate a physical page, invalidate the old
        // one. Allocation can only fail if GC is disabled and the plane
        // is truly full; fall back to rewriting in place (wear modeling
        // degrades but timing stays sane).
        if let Some(new_loc) = self.planes[plane_idx].allocate_page() {
            if let Some(old) = self.ftl.remap(logical_page, plane_idx, new_loc) {
                self.planes[plane_idx].invalidate(old);
            }
        }
        if self.tracer.enabled() {
            self.tracer.slice(
                transfer_done.as_ns(),
                done.saturating_since(transfer_done).as_ns(),
                Track::FlashChannel(channel_idx as u32),
                "flash_write",
                logical_page,
            );
        }
        done
    }

    /// Runs greedy GC on `plane` if its free-block count dropped below
    /// the configured threshold.
    fn maybe_gc(&mut self, now: SimTime, plane_idx: usize) {
        if !self.cfg.gc_enabled {
            return;
        }
        let _prof = astriflash_prof::scope(astriflash_prof::Scope::FlashGc);
        let min_free = ((self.planes[plane_idx].num_blocks() as f64
            * self.cfg.gc_free_block_threshold) as usize)
            .max(1);
        // Bound the loop: each iteration frees one block, so it cannot
        // exceed the plane's block count.
        let mut erased_any = false;
        for _ in 0..self.planes[plane_idx].num_blocks() {
            if self.planes[plane_idx].free_block_count() >= min_free {
                break;
            }
            let Some((victim, valid)) = self.planes[plane_idx].pick_victim() else {
                break;
            };
            // Migration: each valid page is read + programmed within the
            // plane (copy-back), then the block is erased. Live pages
            // move to the active block and the FTL is remapped.
            let migrate = SimDuration::from_ns(
                valid as u64 * (self.cfg.read_latency_ns + self.cfg.program_latency_ns),
            );
            let erase = SimDuration::from_ns(self.cfg.erase_latency_ns);
            self.ftl.drain_block(plane_idx, victim, &mut self.gc_live);
            self.planes[plane_idx].erase_block(now, victim, erase, migrate);
            for &logical in &self.gc_live {
                if let Some(new_loc) = self.planes[plane_idx].allocate_page() {
                    // The old location died with the erase; no invalidate.
                    self.ftl.remap(logical, plane_idx, new_loc);
                }
            }
            self.stats.gc_erases += 1;
            self.stats.gc_migrated_pages += valid as u64;
            erased_any = true;
            if let Some(w) = self.windows.as_deref_mut() {
                w.gc_erases.add(now.as_ns(), 1);
                w.gc_migrated_pages.add(now.as_ns(), valid as u64);
            }
        }
        if erased_any {
            if let Some(w) = self.windows.as_deref_mut() {
                w.gc_invocations.add(now.as_ns(), 1);
            }
        }
    }

    /// Device statistics.
    pub fn stats(&self) -> &FlashStats {
        &self.stats
    }

    /// The configuration in use.
    pub fn config(&self) -> &FlashConfig {
        &self.cfg
    }

    /// Total wear (block erases) across planes.
    pub fn total_erases(&self) -> u64 {
        self.planes.iter().map(|p| p.total_erases()).sum()
    }

    /// Makes the FTL's tables now instead of on the first write, so that
    /// no write allocates (DESIGN.md §14). A device that is never
    /// written skips this and never pays for them.
    pub fn make_ftl_tables(&mut self) {
        self.ftl.make_tables();
    }

    /// The FTL (exposed for inspection in tests).
    pub fn ftl(&self) -> &Ftl {
        &self.ftl
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> FlashDevice {
        FlashDevice::new(FlashConfig::default(), 7)
    }

    #[test]
    fn unloaded_read_is_about_50us() {
        let mut dev = device();
        let done = dev.read(SimTime::ZERO, 0);
        let lat = done.as_ns();
        assert!(
            (40_000..70_000).contains(&lat),
            "unloaded read latency {lat}ns"
        );
        assert_eq!(dev.stats().reads, 1);
    }

    #[test]
    fn reads_to_same_plane_queue() {
        let mut dev = device();
        let planes = dev.config().num_planes() as u64;
        let a = dev.read(SimTime::ZERO, 0);
        let b = dev.read(SimTime::ZERO, planes); // same plane (striding)
        assert!(b > a, "second read must queue behind the first");
        let c = dev.read(SimTime::ZERO, 1); // different plane
        assert!(c < b, "different plane should not queue");
    }

    #[test]
    fn traced_read_emits_channel_slices() {
        let mut dev = device();
        let tracer = Tracer::ring(64);
        dev.set_tracer(tracer.clone());
        let planes = dev.config().num_planes() as u64;
        dev.read(SimTime::ZERO, 0);
        dev.read(SimTime::ZERO, planes); // same plane: must queue
        let evs = tracer.finish();
        let names: Vec<&str> = evs.iter().map(|e| e.name).collect();
        assert!(names.contains(&"flash_issue"));
        assert!(names.contains(&"flash_read"));
        assert!(names.contains(&"flash_xfer"));
        assert!(
            names.contains(&"flash_queue"),
            "second read queued behind the first must emit a queue slice"
        );
        assert!(evs
            .iter()
            .all(|e| matches!(e.track, Track::FlashChannel(_))));
    }

    #[test]
    fn writes_remap_and_invalidate() {
        let mut dev = device();
        dev.write(SimTime::ZERO, 5);
        let first = dev.ftl().lookup(5).unwrap();
        dev.write(SimTime::from_ms(1), 5);
        let second = dev.ftl().lookup(5).unwrap();
        assert_ne!(first, second, "out-of-place write must move the page");
        assert_eq!(dev.stats().writes, 2);
    }

    #[test]
    fn sustained_writes_trigger_gc() {
        let cfg = FlashConfig {
            capacity_bytes: 16 << 20, // tiny device: GC pressure quickly
            channels: 1,
            dies_per_channel: 1,
            planes_per_die: 1,
            pages_per_block: 16,
            ..FlashConfig::default()
        };
        let mut dev = FlashDevice::new(cfg, 1);
        let pages = dev.config().num_logical_pages();
        let mut now = SimTime::ZERO;
        // Overwrite the whole logical space twice.
        for i in 0..pages * 2 {
            now = dev.write(now, i % pages);
        }
        assert!(dev.stats().gc_erases > 0, "GC never ran");
        assert!(dev.total_erases() > 0);
    }

    #[test]
    fn gc_blocks_concurrent_reads() {
        let cfg = FlashConfig {
            capacity_bytes: 16 << 20,
            channels: 1,
            dies_per_channel: 1,
            planes_per_die: 1,
            pages_per_block: 16,
            ..FlashConfig::default()
        };
        let mut dev = FlashDevice::new(cfg, 2);
        let pages = dev.config().num_logical_pages();
        // Open-loop arrivals: requests keep coming while GC is running,
        // so some reads land inside GC windows.
        let mut now = SimTime::ZERO;
        for i in 0..pages * 4 {
            now += SimDuration::from_us(400);
            dev.write(now, i % pages);
            dev.read(now, (i * 7) % pages);
        }
        assert!(
            dev.stats().reads_blocked_by_gc > 0,
            "expected some GC-blocked reads"
        );
        assert!(dev.stats().gc_blocked_fraction() < 0.5);
    }

    #[test]
    fn gc_disabled_never_erases() {
        let cfg = FlashConfig {
            capacity_bytes: 16 << 20,
            pages_per_block: 16,
            ..FlashConfig::default().with_gc_enabled(false)
        };
        let mut dev = FlashDevice::new(cfg, 3);
        let pages = dev.config().num_logical_pages();
        let mut now = SimTime::ZERO;
        for i in 0..pages * 3 {
            now = dev.write(now, i % pages);
        }
        assert_eq!(dev.stats().gc_erases, 0);
    }

    #[test]
    fn bigger_devices_block_less() {
        // §VI-D: a 1 TB flash (more chips) blocks >4x fewer requests than
        // 256 GB. We verify the direction at a smaller scale: quadrupling
        // capacity (and thus planes) under the same absolute write load
        // reduces the blocked fraction.
        let run = |planes_per_die: usize, seed: u64| {
            let cfg = FlashConfig {
                capacity_bytes: 64 << 20,
                channels: 2,
                dies_per_channel: 2,
                planes_per_die,
                pages_per_block: 16,
                ..FlashConfig::default()
            };
            let mut dev = FlashDevice::new(cfg, seed);
            let pages = dev.config().num_logical_pages();
            let mut now = SimTime::ZERO;
            let mut rng = SimRng::new(seed);
            for _ in 0..(pages * 4) {
                now += SimDuration::from_us(400);
                dev.write(now, rng.gen_range(pages));
                dev.read(now, rng.gen_range(pages));
            }
            dev.stats().gc_blocked_fraction()
        };
        let small = run(1, 11);
        let large = run(4, 11);
        assert!(
            large <= small,
            "more planes should reduce GC blocking: {small} -> {large}"
        );
    }
}
