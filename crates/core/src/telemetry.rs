//! Time-resolved run telemetry: windowed tail latency, SLO monitoring,
//! and flash-health timelines (DESIGN.md §13).
//!
//! End-of-run aggregates cannot show *when* things happened — how long
//! the system took to reach steady state, when GC pressure spiked, or
//! how long an SLO violation lasted. Attaching a [`TelemetryCfg`] to a
//! [`crate::SystemConfig`] makes the simulator cut simulated time into
//! fixed windows and collect, per window:
//!
//! * request latency percentiles (p50/p95/p99/p99.9), throughput, and
//!   deadline-miss share against the configured SLO, plus each core's
//!   utilization and pending-queue peak (core layer);
//! * DRAM-cache hit rate and MSR occupancy (mem layer);
//! * GC events, erase counts, write amplification, and per-channel
//!   utilization (flash layer).
//!
//! The result lands in [`TelemetryReport`], carried as a plain optional
//! field of a run's stats — deliberately outside the rendered
//! `MetricSet`, so every previously committed golden stays
//! byte-identical whether telemetry is attached or not. Collection is
//! pure bookkeeping on existing event timestamps: it never schedules
//! events, draws randomness, or changes component decisions, so the
//! simulated outcome is bit-identical with telemetry on or off.
//!
//! Unlike the post-warmup aggregates, the windowed series **include
//! warmup-phase completions**: the warm-up transient is precisely what
//! a time-resolved view exists to show (`time_to_steady`).

use astriflash_flash::FlashWindows;
use astriflash_mem::{CacheWindows, MsrWindows};
use astriflash_stats::{WindowSeries, WindowedHist, PHASE_QUANTILES};
use astriflash_trace::Tracer;

/// Windowed-telemetry parameters. Attach via
/// [`crate::SystemConfig::with_telemetry`]; `None` (the default) keeps
/// every collection hook compiled out of the hot path behind a single
/// `Option` check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryCfg {
    /// Window length in simulated nanoseconds.
    pub window_ns: u64,
    /// Deadline for the SLO monitor: a completion whose response time
    /// (arrival → completion) exceeds this misses its deadline.
    pub slo_ns: u64,
}

impl Default for TelemetryCfg {
    /// 1 ms windows and a 250 µs deadline (≈ 1.4× the full-scale
    /// AstriFlash p99 under high load, DESIGN.md §13).
    fn default() -> Self {
        TelemetryCfg {
            window_ns: 1_000_000,
            slo_ns: 250_000,
        }
    }
}

impl TelemetryCfg {
    /// Builder-style: set the window length.
    pub fn with_window_ns(mut self, window_ns: u64) -> Self {
        self.window_ns = window_ns;
        self
    }

    /// Builder-style: set the SLO deadline.
    pub fn with_slo_ns(mut self, slo_ns: u64) -> Self {
        self.slo_ns = slo_ns;
        self
    }

    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics on a zero window or zero SLO.
    pub fn validate(&self) {
        assert!(self.window_ns > 0, "telemetry window must be positive");
        assert!(self.slo_ns > 0, "SLO deadline must be positive");
    }
}

/// The core-layer window collector: response latency, completions,
/// deadline misses, and per-core busy time and pending-queue peak per
/// window. Lives inside the simulator while it runs;
/// [`TelemetryReport`] is the assembled end product.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreWindows {
    /// Windowed response-latency histogram (arrival → completion).
    pub latency: WindowedHist,
    /// Completions per window (warmup included).
    pub completions: WindowSeries,
    /// Completions whose response time exceeded the SLO, per window.
    pub deadline_misses: WindowSeries,
    /// Per core: nanoseconds spent executing slices, per window.
    pub busy_ns: Vec<WindowSeries>,
    /// Per core: the longest a park grew the pending queue to, per
    /// window (0 in a window without parks).
    pub runq_peak: Vec<WindowSeries>,
    slo_ns: u64,
}

impl CoreWindows {
    /// Creates an empty collector for `cfg` and `cores` cores.
    pub fn new(cfg: &TelemetryCfg, cores: usize) -> Self {
        let mk = || WindowSeries::new(cfg.window_ns);
        CoreWindows {
            latency: WindowedHist::new(cfg.window_ns),
            completions: mk(),
            deadline_misses: mk(),
            busy_ns: (0..cores).map(|_| mk()).collect(),
            runq_peak: (0..cores).map(|_| mk()).collect(),
            slo_ns: cfg.slo_ns,
        }
    }

    /// Records one job completion at `t_ns` with the given response
    /// time.
    pub fn record_completion(&mut self, t_ns: u64, response_ns: u64) {
        self.latency.record(t_ns, response_ns);
        self.completions.add(t_ns, 1);
        if response_ns > self.slo_ns {
            self.deadline_misses.add(t_ns, 1);
        }
    }
}

/// A half-open range of consecutive windows `[start, end)` in which the
/// SLO monitor observed a deadline-miss share above its threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViolationInterval {
    /// First violating window.
    pub start: usize,
    /// One past the last violating window.
    pub end: usize,
}

impl ViolationInterval {
    /// Number of windows in the interval.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the interval is empty (never produced by the monitor).
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }
}

/// The assembled time-resolved telemetry of one run: every windowed
/// series from the core, mem, and flash layers plus the SLO-monitor
/// derivations on top.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    /// The parameters the run collected under.
    pub cfg: TelemetryCfg,
    /// End-of-run simulated time (ns) — the last, possibly partial,
    /// window ends here.
    pub end_ns: u64,
    /// Core layer: latency/completions/deadline misses per window, and
    /// per-core busy time and pending-queue peak.
    pub core: CoreWindows,
    /// Mem layer: DRAM-cache hit/miss counts per window.
    pub cache: CacheWindows,
    /// Mem layer: MSR occupancy (mean + peak) per window.
    pub msr: MsrWindows,
    /// Flash layer: reads/writes/GC/WAF/channel utilization per window.
    pub flash: FlashWindows,
}

impl TelemetryReport {
    /// Number of windows any series touched, counting only windows that
    /// start before the run end: the channel spans of flash reads still
    /// in flight at the end reach past it, and the windows only they
    /// touch are not part of the run.
    pub fn num_windows(&self) -> usize {
        let per_core = self.core.busy_ns.iter().chain(&self.core.runq_peak);
        let touched = self
            .core
            .latency
            .num_windows()
            .max(self.core.completions.num_windows())
            .max(per_core.map(WindowSeries::num_windows).max().unwrap_or(0))
            .max(self.cache.hits.num_windows())
            .max(self.cache.misses.num_windows())
            .max(self.msr.occ_samples.num_windows())
            .max(self.flash.num_windows());
        touched.min(self.end_ns.div_ceil(self.cfg.window_ns) as usize)
    }

    /// Start time of window `w` in ns.
    pub fn window_start_ns(&self, w: usize) -> u64 {
        w as u64 * self.cfg.window_ns
    }

    /// End time of window `w` in ns, clamped to the end of the run (the
    /// final window is usually partial).
    pub fn window_end_ns(&self, w: usize) -> u64 {
        ((w as u64 + 1) * self.cfg.window_ns).min(self.end_ns.max(1))
    }

    /// Effective length of window `w` in seconds (the final window is
    /// clamped to the run end, so rates stay honest).
    fn window_secs(&self, w: usize) -> f64 {
        let span = self.window_end_ns(w).saturating_sub(self.window_start_ns(w));
        span.max(1) as f64 / 1e9
    }

    /// Core `c`'s busy share of window `w`, at most 1 (the span of a
    /// slice can reach past the next slice's start by its lookahead).
    pub fn core_util(&self, c: usize, w: usize) -> f64 {
        let busy = self.core.busy_ns[c].get(w) as f64;
        (busy / 1e9 / self.window_secs(w)).min(1.0)
    }

    /// Completions per second in window `w`.
    pub fn throughput(&self, w: usize) -> f64 {
        self.core.completions.get(w) as f64 / self.window_secs(w)
    }

    /// Share of window-`w` completions that missed the SLO deadline (0
    /// for windows without completions).
    pub fn deadline_miss_share(&self, w: usize) -> f64 {
        let done = self.core.completions.get(w);
        if done == 0 {
            0.0
        } else {
            self.core.deadline_misses.get(w) as f64 / done as f64
        }
    }

    /// Goodput-at-deadline in window `w`: completions that *met* the
    /// SLO, per second.
    pub fn goodput_per_sec(&self, w: usize) -> f64 {
        let good = self
            .core
            .completions
            .get(w)
            .saturating_sub(self.core.deadline_misses.get(w));
        good as f64 / self.window_secs(w)
    }

    /// Response-latency quantile `q` in window `w` (0 for windows with
    /// no completions).
    pub fn latency_quantile(&self, w: usize, q: f64) -> u64 {
        self.core.latency.quantile(w, q)
    }

    /// The per-window p99 response-latency series.
    pub fn p99_series(&self) -> Vec<u64> {
        self.core.latency.quantile_series(0.99)
    }

    /// The steady-state reference: p99 of all completions in the final
    /// quartile of windows merged into one histogram. `None` when the
    /// run has no windows or the final quartile saw no completions.
    pub fn steady_reference_p99(&self) -> Option<u64> {
        let n = self.core.latency.num_windows();
        if n == 0 {
            return None;
        }
        let tail = self.core.latency.merged_hist(n - n.div_ceil(4)..n);
        if tail.is_empty() {
            None
        } else {
            Some(tail.value_at_quantile(0.99))
        }
    }

    /// Time-to-steady: the first window with completions whose p99 lies
    /// within `±tolerance` (a fraction, e.g. `0.15`) of the
    /// final-quartile reference p99 ([`Self::steady_reference_p99`]).
    /// Returns the window index, or `None` when no window qualifies.
    pub fn time_to_steady_window(&self, tolerance: f64) -> Option<usize> {
        let reference = self.steady_reference_p99()? as f64;
        let lo = reference * (1.0 - tolerance);
        let hi = reference * (1.0 + tolerance);
        (0..self.core.latency.num_windows()).find(|&w| {
            self.core.completions.get(w) > 0 && {
                let p99 = self.core.latency.quantile(w, 0.99) as f64;
                p99 >= lo && p99 <= hi
            }
        })
    }

    /// Time-to-steady in nanoseconds: the *end* of the first steady
    /// window (by then the p99 has entered the band). `None` when no
    /// window qualifies.
    pub fn time_to_steady_ns(&self, tolerance: f64) -> Option<u64> {
        self.time_to_steady_window(tolerance)
            .map(|w| self.window_end_ns(w))
    }

    /// Maximal runs of consecutive windows whose deadline-miss share
    /// exceeds `max_share`. Windows without completions never violate.
    pub fn violation_intervals(&self, max_share: f64) -> Vec<ViolationInterval> {
        let n = self.num_windows();
        let mut out = Vec::new();
        let mut start = None;
        for w in 0..n {
            let violating = self.deadline_miss_share(w) > max_share;
            match (violating, start) {
                (true, None) => start = Some(w),
                (false, Some(s)) => {
                    out.push(ViolationInterval { start: s, end: w });
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = start {
            out.push(ViolationInterval { start: s, end: n });
        }
        out
    }

    /// Observations dropped past the window cap across every series.
    /// Non-zero means the run outlived
    /// [`astriflash_stats::DEFAULT_MAX_WINDOWS`] × `window_ns` and the
    /// timeline is truncated — treat as an error in tooling.
    pub fn dropped(&self) -> u64 {
        let per_core = self.core.busy_ns.iter().chain(&self.core.runq_peak);
        self.core.latency.dropped()
            + self.core.completions.dropped()
            + self.core.deadline_misses.dropped()
            + per_core.map(WindowSeries::dropped).sum::<u64>()
            + self.cache.dropped()
            + self.msr.dropped()
            + self.flash.dropped()
    }

    /// Emits every window as Perfetto counter-track gauges (one sample
    /// per window, stamped at the window's end), so the timeline shows
    /// up alongside the event trace in the trace viewer. No-op when the
    /// tracer is off.
    pub fn emit_gauges(&self, tracer: &Tracer) {
        if !tracer.enabled() {
            return;
        }
        for w in 0..self.num_windows() {
            let t = self.window_end_ns(w);
            for (i, q) in PHASE_QUANTILES.iter().enumerate() {
                tracer.gauge(
                    t,
                    WINDOW_QUANTILE_GAUGES[i],
                    0,
                    self.latency_quantile(w, *q) as f64,
                );
            }
            tracer.gauge(t, "win_throughput_jobs_per_sec", 0, self.throughput(w));
            tracer.gauge(t, "win_deadline_miss_share", 0, self.deadline_miss_share(w));
            tracer.gauge(t, "win_goodput_jobs_per_sec", 0, self.goodput_per_sec(w));
            tracer.gauge(t, "win_dcache_hit_rate", 0, self.cache.hit_rate(w));
            tracer.gauge(t, "win_msr_occ_mean", 0, self.msr.mean_occupancy(w));
            tracer.gauge(t, "win_msr_occ_peak", 0, self.msr.occ_peak.get(w) as f64);
            tracer.gauge(t, "win_flash_reads", 0, self.flash.reads.get(w) as f64);
            tracer.gauge(t, "win_flash_writes", 0, self.flash.writes.get(w) as f64);
            tracer.gauge(t, "win_gc_erases", 0, self.flash.gc_erases.get(w) as f64);
            tracer.gauge(t, "win_flash_waf", 0, self.flash.waf(w));
            for c in 0..self.flash.chan_busy_ns.len() {
                tracer.gauge(t, "win_chan_util", c as u32, self.flash.chan_util(c, w));
            }
            for (c, peak) in self.core.runq_peak.iter().enumerate() {
                tracer.gauge(t, "win_core_util", c as u32, self.core_util(c, w));
                tracer.gauge(t, "win_runq_peak", c as u32, peak.get(w) as f64);
            }
        }
    }
}

/// Gauge names for the windowed latency quantiles, index-aligned with
/// [`PHASE_QUANTILES`] (gauge names must be `&'static str`).
const WINDOW_QUANTILE_GAUGES: [&str; 4] = [
    "win_latency_p50_ns",
    "win_latency_p95_ns",
    "win_latency_p99_ns",
    "win_latency_p999_ns",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> TelemetryCfg {
        TelemetryCfg::default()
            .with_window_ns(1_000)
            .with_slo_ns(500)
    }

    fn report_with(completions: &[(u64, u64)]) -> TelemetryReport {
        let cfg = tiny_cfg();
        let mut core = CoreWindows::new(&cfg, 2);
        let mut end = 0;
        for &(t, resp) in completions {
            core.record_completion(t, resp);
            end = end.max(t);
        }
        TelemetryReport {
            cfg,
            end_ns: end,
            core,
            cache: blank_cache(&cfg),
            msr: blank_msr(&cfg),
            flash: blank_flash(&cfg),
        }
    }

    fn blank_cache(cfg: &TelemetryCfg) -> CacheWindows {
        // Build through the public DramCache plumbing.
        let mut dc = astriflash_mem::DramCache::new(astriflash_mem::DramCacheConfig::default());
        dc.enable_windows(cfg.window_ns);
        dc.take_windows().unwrap()
    }

    fn blank_msr(cfg: &TelemetryCfg) -> MsrWindows {
        let mut bc = astriflash_mem::BacksideController::new(64, 8, 2);
        bc.enable_windows(cfg.window_ns);
        bc.take_windows().unwrap()
    }

    fn blank_flash(cfg: &TelemetryCfg) -> FlashWindows {
        let mut dev =
            astriflash_flash::FlashDevice::new(astriflash_flash::FlashConfig::default(), 1);
        dev.enable_windows(cfg.window_ns);
        dev.take_windows().unwrap()
    }

    #[test]
    fn slo_monitor_counts_misses_and_goodput() {
        // Window 0: 3 completions, 1 over the 500 ns SLO.
        let r = report_with(&[(100, 200), (200, 499), (300, 501)]);
        assert_eq!(r.core.completions.get(0), 3);
        assert_eq!(r.core.deadline_misses.get(0), 1);
        assert!((r.deadline_miss_share(0) - 1.0 / 3.0).abs() < 1e-12);
        // Goodput counts the 2 in-deadline completions over the clamped
        // (partial) window span.
        assert!(r.goodput_per_sec(0) > 0.0);
        assert_eq!(r.deadline_miss_share(5), 0.0);
    }

    #[test]
    fn violation_intervals_find_runs() {
        // Windows 0-1 violating (all miss), 2 fine, 3 violating.
        let r = report_with(&[
            (100, 900),
            (1_100, 900),
            (2_100, 100),
            (3_100, 900),
        ]);
        let v = r.violation_intervals(0.5);
        assert_eq!(
            v,
            vec![
                ViolationInterval { start: 0, end: 2 },
                ViolationInterval { start: 3, end: 4 }
            ]
        );
        assert_eq!(v[0].len(), 2);
        // With a 100 % threshold nothing violates (share must exceed).
        assert!(r.violation_intervals(1.0).is_empty());
    }

    #[test]
    fn time_to_steady_finds_the_band_entry() {
        // 8 windows: latencies ramp down 900,800,...,300 then settle at
        // 300. Final quartile (windows 6,7) p99 = 300.
        let lat = [900u64, 800, 700, 600, 500, 300, 300, 300];
        let completions: Vec<(u64, u64)> = lat
            .iter()
            .enumerate()
            .map(|(w, &l)| (w as u64 * 1_000 + 500, l))
            .collect();
        let r = report_with(&completions);
        let reference = r.steady_reference_p99().unwrap();
        assert_eq!(reference, 300);
        let w = r.time_to_steady_window(0.15).unwrap();
        assert_eq!(w, 5, "first window inside ±15 % of 300 is window 5");
        assert_eq!(r.time_to_steady_ns(0.15), Some(6_000));
        // A tolerance wide enough to cover 500 admits window 4.
        assert_eq!(r.time_to_steady_window(0.70), Some(4));
    }

    #[test]
    fn empty_report_has_no_steady_state() {
        let r = report_with(&[]);
        assert_eq!(r.num_windows(), 0);
        assert_eq!(r.steady_reference_p99(), None);
        assert_eq!(r.time_to_steady_ns(0.2), None);
        assert!(r.violation_intervals(0.0).is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn emitted_gauges_cover_every_window() {
        let r = report_with(&[(100, 200), (1_200, 900)]);
        let tracer = Tracer::ring(4096);
        r.emit_gauges(&tracer);
        let events = tracer.finish();
        assert!(!events.is_empty());
        let p99s: Vec<_> = events
            .iter()
            .filter(|e| e.name == "win_latency_p99_ns")
            .collect();
        assert_eq!(p99s.len(), r.num_windows());
        // Gauges are stamped at window ends.
        assert_eq!(p99s[0].t_ns, r.window_end_ns(0));
        // Off tracer: emission is a no-op, not a panic.
        r.emit_gauges(&Tracer::off());
    }

    #[test]
    fn windows_past_the_run_end_are_not_counted() {
        // The run ends at 1.5 µs, inside window 1, but a flash read still
        // in flight keeps channel 0 busy into window 3.
        let mut r = report_with(&[(100, 200), (1_500, 300)]);
        r.flash.chan_busy_ns[0].add_span(1_200, 3_500);
        assert_eq!(r.flash.num_windows(), 4);
        assert_eq!(r.num_windows(), 2);
        // Every emitted window has its own timestamp.
        let tracer = Tracer::ring(4096);
        r.emit_gauges(&tracer);
        let stamps: Vec<u64> = tracer
            .finish()
            .iter()
            .filter(|e| e.name == "win_latency_p99_ns")
            .map(|e| e.t_ns)
            .collect();
        assert_eq!(stamps, [1_000, 1_500]);
    }

    #[test]
    fn per_core_series_render_one_lane_per_core() {
        let mut r = report_with(&[(100, 200), (1_200, 300)]);
        // Core 0: busy over [500, 1500) and again over [1000, 1800), an
        // overlap a slice's lookahead can produce; core 1 never ran.
        r.core.busy_ns[0].add_span(500, 1_500);
        r.core.busy_ns[0].add_span(1_000, 1_800);
        r.core.runq_peak[0].record_max(600, 1);
        r.core.runq_peak[0].record_max(700, 3);
        r.core.runq_peak[0].record_max(800, 2);
        r.end_ns = 2_000;
        assert_eq!(r.num_windows(), 2);
        assert!((r.core_util(0, 0) - 0.5).abs() < 1e-12);
        assert_eq!(r.core_util(0, 1), 1.0, "clamped: 1.3 µs busy in 1 µs");
        assert_eq!(r.core_util(1, 0), 0.0);
        assert_eq!(r.core.runq_peak[0].get(0), 3);
        let tracer = Tracer::ring(4096);
        r.emit_gauges(&tracer);
        let events = tracer.finish();
        for name in ["win_core_util", "win_runq_peak"] {
            let lanes: Vec<u32> = events
                .iter()
                .filter(|e| e.name == name)
                .map(|e| match e.kind {
                    astriflash_trace::EventKind::Gauge { lane, .. } => lane,
                    _ => unreachable!("gauges only"),
                })
                .collect();
            assert_eq!(lanes, [0, 1, 0, 1], "{name}: every core, every window");
        }
    }

    #[test]
    fn default_cfg_is_valid() {
        TelemetryCfg::default().validate();
        assert_eq!(TelemetryCfg::default().window_ns, 1_000_000);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        TelemetryCfg::default().with_window_ns(0).validate();
    }
}
