//! System configuration (Table I) and the evaluated configurations
//! (§V-B).

use astriflash_flash::FlashConfig;
use astriflash_mem::{DramCacheConfig, HierarchyConfig};
use astriflash_workloads::{Dataset, WorkloadKind, WorkloadParams};

/// The seven evaluated configurations (§V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Configuration {
    /// All data served from DRAM — the ideal baseline.
    DramOnly,
    /// The full AstriFlash proposal.
    AstriFlash,
    /// AstriFlash with zero-cost thread switches.
    AstriFlashIdeal,
    /// AstriFlash with FIFO scheduling instead of priority + aging.
    AstriFlashNoPS,
    /// AstriFlash without DRAM partitioning (flash-based PT walks).
    AstriFlashNoDP,
    /// Traditional OS demand paging over flash.
    OsSwap,
    /// Synchronous flash access on every DRAM-cache miss (FlatFlash).
    FlashSync,
}

impl Configuration {
    /// All configurations in the paper's Fig. 9 order.
    pub fn all() -> [Configuration; 7] {
        [
            Configuration::DramOnly,
            Configuration::AstriFlash,
            Configuration::AstriFlashIdeal,
            Configuration::AstriFlashNoPS,
            Configuration::AstriFlashNoDP,
            Configuration::OsSwap,
            Configuration::FlashSync,
        ]
    }

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Configuration::DramOnly => "DRAM-only",
            Configuration::AstriFlash => "AstriFlash",
            Configuration::AstriFlashIdeal => "AstriFlash-Ideal",
            Configuration::AstriFlashNoPS => "AstriFlash-noPS",
            Configuration::AstriFlashNoDP => "AstriFlash-noDP",
            Configuration::OsSwap => "OS-Swap",
            Configuration::FlashSync => "Flash-Sync",
        }
    }
}

impl std::fmt::Display for Configuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Full-system parameters.
///
/// Defaults reproduce the paper's *ratios* at 1/128 scale (DESIGN.md §2):
/// 16 cores, a 2 GiB dataset standing in for the paper's 256 GB, a DRAM
/// cache at 3 % of it, and a flash device sized to the dataset.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of cores.
    pub cores: usize,
    /// Workload to run.
    pub workload: WorkloadKind,
    /// Workload sizing parameters (dataset bytes, Zipf skew, …).
    pub workload_params: WorkloadParams,
    /// DRAM cache size as a fraction of the dataset (paper: 0.03).
    pub dram_cache_fraction: f64,
    /// Override of the DRAM-cache associativity (default 8, §IV-B1).
    pub dram_cache_ways: Option<usize>,
    /// Footprint-cache mode (§II-A extension): fetch only predicted-hot
    /// blocks of each page from flash.
    pub footprint_cache: bool,
    /// On-chip hierarchy parameters.
    pub hierarchy: HierarchyConfig,
    /// Flash device parameters (capacity is overridden to the dataset).
    pub flash: FlashConfig,
    /// User-level thread switch cost in ns (100 ns, §IV; 0 for Ideal).
    pub switch_cost_ns: u64,
    /// User-level threads per core (32–64 per workload, §V-A); `None`
    /// uses the workload's hint.
    pub threads_per_core: Option<usize>,
    /// DRAM-cache miss-status-row geometry: (sets, ways).
    pub msr_geometry: (usize, usize),
    /// Aging-threshold multiplier for the priority scheduler (the
    /// starvation guard fires at `multiplier x` the average flash
    /// response; §IV-D2, ablation knob).
    pub aging_multiplier: f64,
    /// Second-level TLB geometry: (entries, ways). The paper leans on
    /// large translation reach (§IV-A); this knob quantifies it.
    pub tlb_geometry: (usize, usize),
    /// Time-resolved telemetry (DESIGN.md §13): when set, the run
    /// collects windowed latency/SLO, cache, MSR, and flash-health
    /// series into a `TelemetryReport`. `None` (default) compiles the
    /// collection hooks down to a single skipped `Option` check; either
    /// way the simulated outcome is bit-identical.
    pub telemetry: Option<crate::telemetry::TelemetryCfg>,
    /// Simulated-time cap per run; closed-loop runs end at the job quota
    /// or this cap, whichever comes first.
    pub max_sim_time_ms: u64,
}

impl SystemConfig {
    /// Builder-style: set core count.
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Builder-style: set the workload.
    pub fn with_workload(mut self, workload: WorkloadKind) -> Self {
        self.workload = workload;
        self
    }

    /// Builder-style: set the user-level switch cost.
    pub fn with_switch_cost_ns(mut self, ns: u64) -> Self {
        self.switch_cost_ns = ns;
        self
    }

    /// Builder-style: set threads per core.
    pub fn with_threads_per_core(mut self, threads: usize) -> Self {
        self.threads_per_core = Some(threads);
        self
    }

    /// Builder-style: set the scheduler's aging multiplier.
    pub fn with_aging_multiplier(mut self, multiplier: f64) -> Self {
        self.aging_multiplier = multiplier;
        self
    }

    /// Builder-style: set the MSR geometry (sets, ways).
    pub fn with_msr_geometry(mut self, sets: usize, ways: usize) -> Self {
        self.msr_geometry = (sets, ways);
        self
    }

    /// Builder-style: set the TLB geometry (entries, ways).
    pub fn with_tlb_geometry(mut self, entries: usize, ways: usize) -> Self {
        self.tlb_geometry = (entries, ways);
        self
    }

    /// Shrinks every dimension for fast unit tests: tiny dataset, few
    /// threads, small caches.
    pub fn scaled_for_tests(mut self) -> Self {
        self.workload_params = WorkloadParams::tiny_for_tests();
        self.hierarchy.llc_bytes = 256 << 10;
        self.hierarchy.l2_bytes = 64 << 10;
        self.threads_per_core = Some(16);
        // The tiny dataset needs a larger cache fraction to land in the
        // paper's miss-interval regime (the 8 MiB dataset has only 2048
        // pages; 3 % would be 64 pages).
        self.dram_cache_fraction = 0.25;
        self.max_sim_time_ms = 50;
        self
    }

    /// The DRAM-cache configuration derived from the dataset size.
    pub fn dram_cache_config(&self) -> DramCacheConfig {
        let defaults = DramCacheConfig::default();
        DramCacheConfig {
            capacity_bytes: ((self.workload_params.dataset_bytes as f64
                * self.dram_cache_fraction) as u64)
                .max(4096 * 8 * 8),
            ways: self.dram_cache_ways.unwrap_or(defaults.ways),
            footprint: self.footprint_cache,
            ..defaults
        }
    }

    /// The dataset a run with `seed` drives. The engine's build seed is
    /// derived from the run seed here and nowhere else, so a sweep groups
    /// its cells by the dataset `SystemSim::new` forks (DESIGN.md §18).
    pub fn dataset(&self, seed: u64) -> Dataset {
        Dataset {
            kind: self.workload,
            params: self.workload_params.clone(),
            seed: seed ^ 0xE17,
        }
    }

    /// Builder-style: attach windowed telemetry (DESIGN.md §13).
    pub fn with_telemetry(mut self, telemetry: crate::telemetry::TelemetryCfg) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Builder-style: enable the footprint-cache extension.
    pub fn with_footprint_cache(mut self, enabled: bool) -> Self {
        self.footprint_cache = enabled;
        self
    }

    /// The flash configuration with capacity pinned to the dataset plus
    /// the page-table region.
    pub fn flash_config(&self) -> FlashConfig {
        let mut f = self.flash.clone();
        f.capacity_bytes = self.workload_params.dataset_bytes + self.page_table_region_bytes();
        f
    }

    /// Bytes reserved past the dataset for page tables (≈0.2 % of the
    /// dataset, the size of a 4-level radix tree over it).
    pub fn page_table_region_bytes(&self) -> u64 {
        (self.workload_params.dataset_bytes / 512).max(64 << 10)
    }

    /// Effective threads per core for `workload`.
    pub fn effective_threads_per_core(&self, hint: usize) -> usize {
        self.threads_per_core.unwrap_or(hint)
    }

    /// Validates ratios and sizes.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical parameters.
    pub fn validate(&self) {
        assert!(self.cores > 0, "need at least one core");
        assert!(
            (0.001..=1.0).contains(&self.dram_cache_fraction),
            "DRAM-cache fraction out of range"
        );
        assert!(self.max_sim_time_ms > 0);
        if let Some(t) = &self.telemetry {
            t.validate();
        }
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            cores: 16,
            workload: WorkloadKind::Tatp,
            workload_params: WorkloadParams::scaled_down(),
            dram_cache_fraction: 0.03,
            dram_cache_ways: None,
            footprint_cache: false,
            hierarchy: HierarchyConfig::default(),
            flash: FlashConfig::default(),
            switch_cost_ns: 100,
            threads_per_core: None,
            msr_geometry: (64, 8),
            aging_multiplier: 2.0,
            tlb_geometry: (1536, 6),
            telemetry: None,
            max_sim_time_ms: 200,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        let c = SystemConfig::default();
        c.validate();
        assert_eq!(c.cores, 16);
        assert!((c.dram_cache_fraction - 0.03).abs() < 1e-12);
    }

    #[test]
    fn dram_cache_is_three_percent() {
        let c = SystemConfig::default();
        let cache = c.dram_cache_config();
        let ratio = cache.capacity_bytes as f64 / c.workload_params.dataset_bytes as f64;
        assert!((ratio - 0.03).abs() < 0.005, "ratio {ratio}");
    }

    #[test]
    fn flash_covers_dataset_and_page_tables() {
        let c = SystemConfig::default();
        let f = c.flash_config();
        assert!(f.capacity_bytes > c.workload_params.dataset_bytes);
    }

    #[test]
    fn configuration_properties() {
        assert_eq!(Configuration::all().len(), 7);
        assert_eq!(Configuration::OsSwap.to_string(), "OS-Swap");
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        SystemConfig::default().with_cores(0).validate();
    }
}
