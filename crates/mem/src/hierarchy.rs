//! The per-core on-chip cache hierarchy (L1D → L2 → shared LLC).
//!
//! On-chip hits are resolved synchronously with fixed latencies; only
//! LLC misses leave the chip toward the DRAM-cache frontside controller.
//! Outstanding misses are bounded off-chip, by the DRAM cache's Miss
//! Status Row; on-chip MSHRs are not modeled.

use crate::sram_cache::SramCache;

/// Hierarchy sizing and latency configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 data cache capacity in bytes.
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L1 hit latency in nanoseconds.
    pub l1_latency_ns: u64,
    /// L2 capacity in bytes.
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_ways: usize,
    /// L2 hit latency in nanoseconds.
    pub l2_latency_ns: u64,
    /// Shared LLC capacity in bytes (whole chip).
    pub llc_bytes: u64,
    /// LLC associativity.
    pub llc_ways: usize,
    /// LLC hit latency in nanoseconds.
    pub llc_latency_ns: u64,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        // Cortex-A76-class (Table I): 64 KB L1, 256 KB/core L2 private,
        // 1 MB/core LLC in the paper; we size the shared LLC for the
        // scaled dataset (see DESIGN.md §2) keeping on-chip:DRAM-cache
        // ratios close to the paper's.
        HierarchyConfig {
            l1_bytes: 64 << 10,
            l1_ways: 4,
            l1_latency_ns: 1,
            l2_bytes: 256 << 10,
            l2_ways: 8,
            l2_latency_ns: 5,
            llc_bytes: 4 << 20,
            llc_ways: 16,
            llc_latency_ns: 20,
        }
    }
}

/// Where an access was satisfied on-chip, or that it must go off-chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HierarchyOutcome {
    /// Hit in L1/L2/LLC after `latency_ns`.
    OnChipHit {
        /// Total on-chip latency.
        latency_ns: u64,
    },
    /// Missed everywhere on-chip; the request must probe the DRAM cache.
    /// `latency_ns` is the on-chip lookup cost already paid.
    OffChipMiss {
        /// On-chip traversal cost before going off-chip.
        latency_ns: u64,
    },
}

impl HierarchyOutcome {
    /// The on-chip latency component.
    pub fn latency_ns(&self) -> u64 {
        match self {
            HierarchyOutcome::OnChipHit { latency_ns }
            | HierarchyOutcome::OffChipMiss { latency_ns } => *latency_ns,
        }
    }

    /// Whether the access was satisfied on-chip.
    pub fn is_hit(&self) -> bool {
        matches!(self, HierarchyOutcome::OnChipHit { .. })
    }
}

/// Chip-wide per-level hit/miss counts (see
/// [`CacheHierarchy::level_totals`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelTotals {
    /// L1 hits summed over cores.
    pub l1_hits: u64,
    /// L1 misses summed over cores.
    pub l1_misses: u64,
    /// L2 hits summed over cores.
    pub l2_hits: u64,
    /// L2 misses summed over cores.
    pub l2_misses: u64,
    /// Shared-LLC hits.
    pub llc_hits: u64,
    /// Shared-LLC misses.
    pub llc_misses: u64,
}

/// Per-core L1/L2 plus a chip-shared LLC.
///
/// One instance models the whole chip: `access(core, …)` routes through
/// that core's private levels into the shared LLC.
#[derive(Debug)]
pub struct CacheHierarchy {
    cfg: HierarchyConfig,
    l1: Vec<SramCache>,
    l2: Vec<SramCache>,
    llc: SramCache,
}

impl CacheHierarchy {
    /// Builds the hierarchy for `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    pub fn new(cores: usize, cfg: HierarchyConfig) -> Self {
        assert!(cores > 0);
        CacheHierarchy {
            l1: (0..cores)
                .map(|_| SramCache::new(cfg.l1_bytes, cfg.l1_ways))
                .collect(),
            l2: (0..cores)
                .map(|_| SramCache::new(cfg.l2_bytes, cfg.l2_ways))
                .collect(),
            llc: SramCache::new(cfg.llc_bytes, cfg.llc_ways),
            cfg,
        }
    }

    /// Runs one access through `core`'s hierarchy.
    ///
    /// The L1-hit common case is resolved inline — one masked index plus
    /// a tag compare in [`SramCache::probe`] — before falling back to
    /// the full [`CacheHierarchy::miss_walk`].
    #[inline]
    pub fn access(&mut self, core: usize, addr: u64, is_write: bool) -> HierarchyOutcome {
        if self.l1[core].probe(addr, is_write) {
            return HierarchyOutcome::OnChipHit {
                latency_ns: self.cfg.l1_latency_ns,
            };
        }
        self.miss_walk(core, addr, is_write)
    }

    /// Scalar L1 hit-path probe, the per-access reference for
    /// [`CacheHierarchy::l1_probe_run`]: returns whether `addr`
    /// hit `core`'s L1 — state and counters update exactly as the hit
    /// arm of [`CacheHierarchy::access`] — without constructing an
    /// outcome. On `false` nothing was touched; the caller must finish
    /// the access with [`CacheHierarchy::miss_walk`].
    #[inline(always)]
    pub fn l1_probe(&mut self, core: usize, addr: u64, is_write: bool) -> bool {
        self.l1[core].probe(addr, is_write)
    }

    /// Batched L1 hit-run probe for the system's fused hit-run
    /// interpreter: probes `(addr, is_write)` pairs against `core`'s L1
    /// in order and returns the length of the leading all-hit run
    /// ([`SramCache::probe_run`]). State and counters after a return of
    /// `n` are exactly those after `n` scalar [`CacheHierarchy::l1_probe`]
    /// calls; the first missing access is untouched and must be finished
    /// with [`CacheHierarchy::miss_walk`].
    #[inline]
    pub fn l1_probe_run(
        &mut self,
        core: usize,
        accesses: impl IntoIterator<Item = (u64, bool)>,
    ) -> usize {
        self.l1[core].probe_run(accesses)
    }

    /// Continues an access whose L1 probe already missed: fills L1 and
    /// walks L2 → LLC. Decision-equivalent to the tail of the historical
    /// monolithic walk (L1 victims are dropped, not written through —
    /// each level's writeback counter still accounts them).
    pub fn miss_walk(&mut self, core: usize, addr: u64, is_write: bool) -> HierarchyOutcome {
        let c = &self.cfg;
        let _ = self.l1[core].miss_fill(addr, is_write);
        if self.l2[core].access(addr, is_write).is_hit() {
            return HierarchyOutcome::OnChipHit {
                latency_ns: c.l1_latency_ns + c.l2_latency_ns,
            };
        }
        if self.llc.access(addr, is_write).is_hit() {
            return HierarchyOutcome::OnChipHit {
                latency_ns: c.l1_latency_ns + c.l2_latency_ns + c.llc_latency_ns,
            };
        }
        HierarchyOutcome::OffChipMiss {
            latency_ns: c.l1_latency_ns + c.l2_latency_ns + c.llc_latency_ns,
        }
    }

    /// Invalidates one block in `core`'s private levels and the shared
    /// LLC — the resource reclamation on an AstriFlash miss signal
    /// (§IV-C1): the speculatively filled block must not satisfy the
    /// post-refill retry.
    pub fn invalidate_block(&mut self, core: usize, addr: u64) {
        self.l1[core].invalidate(addr);
        self.l2[core].invalidate(addr);
        self.llc.invalidate(addr);
    }

    /// The shared LLC (for stats inspection).
    pub fn llc(&self) -> &SramCache {
        &self.llc
    }

    /// A core's L1 (for stats inspection).
    pub fn l1(&self, core: usize) -> &SramCache {
        &self.l1[core]
    }

    /// Chip-wide hit/miss totals per level (private levels summed over
    /// cores) — the observable behind the per-level hit-rate breakdown.
    pub fn level_totals(&self) -> LevelTotals {
        let sum = |caches: &[SramCache]| {
            caches.iter().fold((0u64, 0u64), |(h, m), c| {
                (h + c.hits(), m + c.misses())
            })
        };
        let (l1_hits, l1_misses) = sum(&self.l1);
        let (l2_hits, l2_misses) = sum(&self.l2);
        LevelTotals {
            l1_hits,
            l1_misses,
            l2_hits,
            l2_misses,
            llc_hits: self.llc.hits(),
            llc_misses: self.llc.misses(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip() -> CacheHierarchy {
        CacheHierarchy::new(2, HierarchyConfig::default())
    }

    #[test]
    fn first_access_misses_then_hits_in_l1() {
        let mut h = chip();
        let miss = h.access(0, 0x1000, false);
        assert!(!miss.is_hit());
        let hit = h.access(0, 0x1000, false);
        assert_eq!(
            hit,
            HierarchyOutcome::OnChipHit {
                latency_ns: h.config().l1_latency_ns
            }
        );
    }

    #[test]
    fn other_core_hits_in_shared_llc() {
        let mut h = chip();
        h.access(0, 0x2000, false);
        let out = h.access(1, 0x2000, false);
        // Core 1 misses its private levels but hits the shared LLC.
        let expect = h.config().l1_latency_ns + h.config().l2_latency_ns + h.config().llc_latency_ns;
        assert_eq!(out, HierarchyOutcome::OnChipHit { latency_ns: expect });
    }

    #[test]
    fn off_chip_miss_reports_full_traversal_cost() {
        let mut h = chip();
        let out = h.access(0, 0x0dea_d000, false);
        let cfg = h.config();
        assert_eq!(
            out.latency_ns(),
            cfg.l1_latency_ns + cfg.l2_latency_ns + cfg.llc_latency_ns
        );
    }
}
