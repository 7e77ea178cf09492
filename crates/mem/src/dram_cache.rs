//! The hardware-managed DRAM cache and its frontside controller (§IV-B).
//!
//! Each DRAM row is one set of a set-associative page cache holding both
//! tags and data (Fig. 5a): a probe opens the row (RAS), fetches the tag
//! column (CAS), compares, and on a hit fetches the requested 64 B block
//! with a further CAS. Each 8 B tag column entry maps up to 8 ways
//! (§IV-B1). Misses are handed to the backside controller.

use astriflash_sim::SimTime;
use astriflash_stats::WindowSeries;
use astriflash_workloads::PAGE_SIZE;

use crate::dram::{DramBanks, DramTimings};
use crate::footprint::FootprintPredictor;

/// DRAM-cache geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct DramCacheConfig {
    /// Cache capacity in bytes (the paper uses 3 % of the dataset).
    pub capacity_bytes: u64,
    /// Ways per set (8: one 64 B tag column of 8 B tags, §IV-B1).
    pub ways: usize,
    /// Number of DRAM banks behind the frontside controller.
    pub banks: usize,
    /// DRAM command timings.
    pub timings: DramTimings,
    /// Footprint-cache mode (§II-A): fetch only predicted-hot blocks of
    /// a page; touching an unfetched block is a *sub-miss*.
    pub footprint: bool,
}

impl Default for DramCacheConfig {
    fn default() -> Self {
        DramCacheConfig {
            capacity_bytes: 128 << 20,
            ways: 8,
            banks: 16,
            timings: DramTimings::default(),
            footprint: false,
        }
    }
}

impl DramCacheConfig {
    /// Number of sets (DRAM rows used as cache sets).
    pub fn num_sets(&self) -> u64 {
        (self.capacity_bytes / PAGE_SIZE / self.ways as u64).max(1)
    }

    /// Pages the cache can hold.
    pub fn capacity_pages(&self) -> u64 {
        self.num_sets() * self.ways as u64
    }
}

/// Outcome of a frontside-controller probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// Tag matched; data block fetched.
    Hit {
        /// When the 64 B block is available to the LLC.
        done_at: SimTime,
    },
    /// No tag matched; the miss must go to the backside controller.
    Miss {
        /// When the tag check completed (the point the miss request and
        /// miss reply are generated).
        tag_check_done_at: SimTime,
    },
    /// Footprint mode only: the page is resident but the requested block
    /// was not fetched; the remainder must be refetched from flash.
    SubMiss {
        /// When the tag + footprint check completed.
        tag_check_done_at: SimTime,
    },
}

impl ProbeOutcome {
    /// Whether the probe hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, ProbeOutcome::Hit { .. })
    }

    /// The completion/decision time.
    pub fn time(&self) -> SimTime {
        match self {
            ProbeOutcome::Hit { done_at } => *done_at,
            ProbeOutcome::Miss { tag_check_done_at }
            | ProbeOutcome::SubMiss { tag_check_done_at } => *tag_check_done_at,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct TagEntry {
    page: u64,
    dirty: bool,
    lru: u64,
    /// Blocks fetched from flash (all-ones outside footprint mode).
    fetched: u64,
    /// Blocks actually touched while resident (footprint history).
    touched: u64,
}

/// Per-window DRAM-cache probe telemetry (DESIGN.md §13): hit/miss
/// counts resolved over fixed sim-time windows, for time-resolved hit
/// rates. Sub-misses (footprint mode) count as misses. Attached via
/// [`DramCache::enable_windows`]; recording never affects timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheWindows {
    /// Probe hits per window.
    pub hits: WindowSeries,
    /// Probe misses (including footprint sub-misses) per window.
    pub misses: WindowSeries,
}

impl CacheWindows {
    fn new(window_ns: u64) -> Self {
        CacheWindows {
            hits: WindowSeries::new(window_ns),
            misses: WindowSeries::new(window_ns),
        }
    }

    /// Hit rate in window `w` (0 for windows with no probes).
    pub fn hit_rate(&self, w: usize) -> f64 {
        let h = self.hits.get(w);
        let total = h + self.misses.get(w);
        if total == 0 {
            0.0
        } else {
            h as f64 / total as f64
        }
    }

    /// Observations dropped past the window cap, across both series.
    pub fn dropped(&self) -> u64 {
        self.hits.dropped() + self.misses.dropped()
    }
}

/// The DRAM cache: tag state plus frontside-controller timing.
#[derive(Debug)]
pub struct DramCache {
    cfg: DramCacheConfig,
    sets: Vec<Vec<TagEntry>>,
    banks: DramBanks,
    predictor: FootprintPredictor,
    tick: u64,
    windows: Option<Box<CacheWindows>>,
}

impl DramCache {
    /// Builds an empty (cold) cache.
    pub fn new(cfg: DramCacheConfig) -> Self {
        // Built per-set: `vec![Vec::with_capacity(..); n]` clones an
        // *empty* vector, dropping the capacity hint, so every set would
        // reallocate on its first fills.
        let sets = (0..cfg.num_sets())
            .map(|_| Vec::with_capacity(cfg.ways))
            .collect();
        let banks = DramBanks::new(cfg.banks, cfg.timings);
        DramCache {
            cfg,
            sets,
            banks,
            predictor: FootprintPredictor::new(),
            tick: 0,
            windows: None,
        }
    }

    /// Builds a cache that holds no tags, for a system that never probes
    /// it (DRAM-only): its windows and configuration stay readable, and
    /// a probe or install panics.
    pub fn tagless(cfg: DramCacheConfig) -> Self {
        DramCache {
            banks: DramBanks::new(cfg.banks, cfg.timings),
            cfg,
            sets: Vec::new(),
            predictor: FootprintPredictor::new(),
            tick: 0,
            windows: None,
        }
    }

    /// Attaches per-window hit/miss telemetry (off by default; pure
    /// bookkeeping, never affects timing or replacement decisions).
    pub fn enable_windows(&mut self, window_ns: u64) {
        self.windows = Some(Box::new(CacheWindows::new(window_ns)));
    }

    /// The window collector, if enabled.
    pub fn windows(&self) -> Option<&CacheWindows> {
        self.windows.as_deref()
    }

    /// Detaches and returns the window collector.
    pub fn take_windows(&mut self) -> Option<CacheWindows> {
        self.windows.take().map(|b| *b)
    }

    /// Builds the cache pre-warmed with `pages` (most-recent last), as a
    /// long-running system would be after its warmup phase.
    pub fn prewarmed(cfg: DramCacheConfig, pages: impl IntoIterator<Item = u64>) -> Self {
        let mut cache = DramCache::new(cfg);
        for page in pages {
            if !cache.contains(page) {
                cache.install_tag_only(page, u64::MAX);
            }
        }
        cache
    }

    fn set_of(&self, page: u64) -> usize {
        (page % self.cfg.num_sets()) as usize
    }

    /// FC probe at `now`: RAS + CAS(tag) + compare, then CAS(data) on a
    /// hit (§IV-B1). Marks the page dirty on writes. `block` is the 64 B
    /// block index within the page (footprint mode checks it against the
    /// fetched bitmap).
    pub fn probe(&mut self, now: SimTime, page: u64, block: u32, is_write: bool) -> ProbeOutcome {
        self.tick += 1;
        let tick = self.tick;
        let footprint = self.cfg.footprint;
        let set_idx = self.set_of(page);
        let row = set_idx as u64;
        // Tag column fetch: one CAS after (implicit) row activate.
        let tag_done = self.banks.access_row(now, row, 1);
        let set = &mut self.sets[set_idx];
        if let Some(e) = set.iter_mut().find(|e| e.page == page) {
            e.lru = tick;
            let bit = 1u64 << (block & 63);
            if footprint && e.fetched & bit == 0 {
                if let Some(w) = self.windows.as_deref_mut() {
                    w.misses.add(now.as_ns(), 1);
                }
                return ProbeOutcome::SubMiss {
                    tag_check_done_at: tag_done,
                };
            }
            e.dirty |= is_write;
            e.touched |= bit;
            if let Some(w) = self.windows.as_deref_mut() {
                w.hits.add(now.as_ns(), 1);
            }
            // Data block: one further CAS in the (now open) row.
            let done_at = self.banks.access_row(tag_done, row, 1);
            ProbeOutcome::Hit { done_at }
        } else {
            if let Some(w) = self.windows.as_deref_mut() {
                w.misses.add(now.as_ns(), 1);
            }
            ProbeOutcome::Miss {
                tag_check_done_at: tag_done,
            }
        }
    }

    /// Whether `page` is cached (no timing, no LRU update).
    pub fn contains(&self, page: u64) -> bool {
        self.sets[self.set_of(page)].iter().any(|e| e.page == page)
    }

    /// Installs `page` arriving from flash at `now`: streams the 4 KiB of
    /// data plus the tag update into the row. Returns the completion time
    /// and the evicted dirty page, if the victim needs a flash writeback.
    ///
    /// The caller (backside controller) is responsible for having copied
    /// the victim to the evict buffer beforehand.
    pub fn install(&mut self, now: SimTime, page: u64) -> (SimTime, Option<u64>) {
        self.complete_fill(now, page, u64::MAX)
    }

    /// Footprint-aware completion: installs `page` with the given
    /// fetched-block `bitmap`, or — if the page is already resident (a
    /// sub-miss refetch) — merges the bitmap into its fetched set.
    pub fn complete_fill(&mut self, now: SimTime, page: u64, bitmap: u64) -> (SimTime, Option<u64>) {
        let set_idx = self.set_of(page);
        let row = set_idx as u64;
        let bursts = bitmap.count_ones() + 1; // data blocks + tag column
        let done = self.banks.access_row_stream(now, row, bursts);
        if let Some(e) = self.sets[set_idx].iter_mut().find(|e| e.page == page) {
            e.fetched |= bitmap;
            return (done, None);
        }
        (done, self.install_tag_only(page, bitmap))
    }

    /// Predicted footprint for a missing `page` whose `needed_block` is
    /// being requested (all-ones outside footprint mode).
    pub fn predict_footprint(&mut self, page: u64, needed_block: u32) -> u64 {
        if self.cfg.footprint {
            self.predictor.predict(page, needed_block)
        } else {
            u64::MAX
        }
    }

    /// Tag-state-only install (no timing): used by `complete_fill` and
    /// prewarming. Returns the evicted page if it was dirty.
    fn install_tag_only(&mut self, page: u64, fetched: u64) -> Option<u64> {
        self.tick += 1;
        let tick = self.tick;
        let ways = self.cfg.ways;
        let footprint = self.cfg.footprint;
        let set_idx = self.set_of(page);
        let set = &mut self.sets[set_idx];
        debug_assert!(
            !set.iter().any(|e| e.page == page),
            "installing already-present page {page}"
        );
        let mut dirty_victim = None;
        if set.len() >= ways {
            let pos = set
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.lru)
                .map(|(i, _)| i)
                .expect("full set has victim");
            let victim = set.swap_remove(pos);
            if footprint {
                self.predictor.record(victim.page, victim.touched);
            }
            if victim.dirty {
                dirty_victim = Some(victim.page);
            }
        }
        set.push(TagEntry {
            page,
            dirty: false,
            lru: tick,
            fetched,
            touched: 0,
        });
        dirty_victim
    }

    /// Selects (without removing) the LRU victim of `page`'s set, for the
    /// backside controller's evict-buffer copy. Returns `None` if the set
    /// still has free ways.
    pub fn peek_victim(&self, page: u64) -> Option<u64> {
        let set = &self.sets[self.set_of(page)];
        if set.len() < self.cfg.ways {
            None
        } else {
            set.iter().min_by_key(|e| e.lru).map(|e| e.page)
        }
    }

    /// The banks (row-buffer statistics).
    pub fn banks(&self) -> &DramBanks {
        &self.banks
    }

    /// The configuration.
    pub fn config(&self) -> &DramCacheConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DramCache {
        DramCache::new(DramCacheConfig {
            capacity_bytes: 1 << 20, // 256 pages, 32 sets
            ..DramCacheConfig::default()
        })
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.config().num_sets(), 32);
        assert_eq!(c.config().capacity_pages(), 256);
    }

    #[test]
    fn probe_miss_then_hit_after_install() {
        let mut c = small();
        let out = c.probe(SimTime::ZERO, 7, 0, false);
        assert!(!out.is_hit());
        let (done, victim) = c.install(out.time(), 7);
        assert!(victim.is_none());
        let out2 = c.probe(done, 7, 0, false);
        assert!(out2.is_hit());
        assert!(out2.time() > done);
    }

    #[test]
    fn hit_takes_two_cas_miss_one() {
        let mut c = small();
        c.install(SimTime::ZERO, 7);
        let t0 = SimTime::from_us(10);
        let miss = c.probe(t0, 7 + c.config().num_sets(), 0, false);
        let hit = c.probe(miss.time() + astriflash_sim::SimDuration::from_us(1), 7, 0, false);
        // Same row: miss = CAS(tag); hit = CAS(tag) + CAS(data).
        let t = c.config().timings;
        let hit_lat = hit.time().saturating_since(
            miss.time() + astriflash_sim::SimDuration::from_us(1),
        );
        assert_eq!(hit_lat.as_ns(), 2 * (t.t_cas_ns + t.t_burst_ns));
    }

    #[test]
    fn lru_victim_is_oldest() {
        let mut c = small();
        let sets = c.config().num_sets();
        // Fill one set (8 ways) with pages 0, s, 2s, ...
        for i in 0..8u64 {
            c.install(SimTime::ZERO, i * sets);
        }
        // Touch page 0 so it is MRU.
        c.probe(SimTime::from_us(1), 0, 0, false);
        assert_eq!(c.peek_victim(8 * sets), Some(sets));
        // Installing a 9th page evicts the LRU (clean → no writeback).
        let (_, victim) = c.install(SimTime::from_us(2), 8 * sets);
        assert_eq!(victim, None);
        assert!(!c.contains(sets));
        assert!(c.contains(0));
    }

    #[test]
    fn dirty_pages_report_writeback_on_eviction() {
        let mut c = small();
        let sets = c.config().num_sets();
        for i in 0..8u64 {
            c.install(SimTime::ZERO, i * sets);
        }
        // Dirty the LRU page (page 0) via a write probe.
        c.probe(SimTime::from_us(1), 0, 0, true);
        // Make everything else more recent.
        for i in 1..8u64 {
            c.probe(SimTime::from_us(2), i * sets, 0, false);
        }
        let (_, victim) = c.install(SimTime::from_us(3), 8 * sets);
        assert_eq!(victim, Some(0), "dirty LRU page must be written back");
    }

    #[test]
    fn prewarmed_cache_contains_recent_pages() {
        let cfg = DramCacheConfig {
            capacity_bytes: 1 << 20,
            ..DramCacheConfig::default()
        };
        let c = DramCache::prewarmed(cfg, 0..100);
        for p in 0..100 {
            assert!(c.contains(p), "page {p} missing after prewarm");
        }
    }

    #[test]
    fn footprint_sub_miss_and_refetch() {
        let mut c = DramCache::new(DramCacheConfig {
            capacity_bytes: 1 << 20,
            footprint: true,
            ..DramCacheConfig::default()
        });
        // Install page 5 with only blocks 0 and 3 fetched.
        c.complete_fill(SimTime::ZERO, 5, 0b1001);
        assert!(c.probe(SimTime::from_us(1), 5, 0, false).is_hit());
        assert!(c.probe(SimTime::from_us(1), 5, 3, false).is_hit());
        // Block 7 was not fetched: sub-miss.
        let out = c.probe(SimTime::from_us(2), 5, 7, false);
        assert!(matches!(out, ProbeOutcome::SubMiss { .. }));
        // Refetch merges the bitmap; the block now hits.
        c.complete_fill(SimTime::from_us(3), 5, 1 << 7);
        assert!(c.probe(SimTime::from_us(4), 5, 7, false).is_hit());
    }

    #[test]
    fn footprint_history_recorded_on_eviction() {
        let mut c = DramCache::new(DramCacheConfig {
            capacity_bytes: 1 << 20,
            footprint: true,
            ..DramCacheConfig::default()
        });
        let sets = c.config().num_sets();
        // Fill one set; touch two blocks of page 0.
        for i in 0..8u64 {
            c.complete_fill(SimTime::ZERO, i * sets, u64::MAX);
        }
        c.probe(SimTime::from_us(1), 0, 2, false);
        c.probe(SimTime::from_us(1), 0, 9, false);
        // Make the other pages more recent, then install a 9th page so
        // page 0 is the LRU victim.
        for i in 1..8u64 {
            c.probe(SimTime::from_us(2), i * sets, 0, false);
        }
        c.complete_fill(SimTime::from_us(3), 8 * sets, u64::MAX);
        assert!(!c.contains(0));
        // The predictor replays the recorded footprint.
        let predicted = c.predict_footprint(0, 2);
        assert_eq!(predicted, (1 << 2) | (1 << 9));
    }

    #[test]
    fn non_footprint_mode_never_sub_misses() {
        let mut c = small();
        c.install(SimTime::ZERO, 3);
        for block in [0u32, 17, 63] {
            assert!(c.probe(SimTime::from_us(1), 3, block, false).is_hit());
        }
    }

    #[test]
    fn refilling_a_resident_page_installs_nothing() {
        let mut c = small();
        let sets = c.config().num_sets();
        for i in 0..8u64 {
            c.install(SimTime::ZERO, i * sets);
        }
        // Dirty every page; page 0 is the LRU one.
        for i in 0..8u64 {
            c.probe(SimTime::from_us(1), i * sets, 0, true);
        }
        // A refill of a resident page merges into its entry: nothing is
        // evicted or written back.
        let (_, victim) = c.install(SimTime::from_us(2), 3 * sets);
        assert_eq!(victim, None);
        assert!((0..8u64).all(|i| c.contains(i * sets)));
        // A new page does evict the dirty LRU page.
        let (_, victim) = c.install(SimTime::from_us(3), 8 * sets);
        assert_eq!(victim, Some(0));
    }
}
