//! Flash device configuration.

use astriflash_workloads::PAGE_SIZE;

/// Geometry and timing of the modeled SSD.
///
/// Defaults follow the paper: ~50 µs end-to-end read latency (§II),
/// 4 KiB pages (Table I), and enough channels that PCIe Gen5-class
/// aggregate bandwidth is reachable (§II-A).
#[derive(Debug, Clone, PartialEq)]
pub struct FlashConfig {
    /// Usable capacity in bytes.
    pub capacity_bytes: u64,
    /// Number of independent channels.
    pub channels: usize,
    /// Dies per channel.
    pub dies_per_channel: usize,
    /// Planes per die (each plane services one operation at a time).
    pub planes_per_die: usize,
    /// Pages per erase block.
    pub pages_per_block: u64,
    /// Array read (tR) latency in nanoseconds.
    pub read_latency_ns: u64,
    /// Page program (tPROG) latency in nanoseconds.
    pub program_latency_ns: u64,
    /// Block erase (tBERS) latency in nanoseconds.
    pub erase_latency_ns: u64,
    /// Controller/firmware overhead added per operation, in nanoseconds.
    pub controller_overhead_ns: u64,
    /// Per-channel transfer bandwidth in bytes/second.
    pub channel_bandwidth_bps: u64,
    /// Fraction of spare (over-provisioned) blocks per plane that must
    /// stay free; dropping below triggers garbage collection.
    pub gc_free_block_threshold: f64,
    /// Whether garbage collection is modeled at all.
    pub gc_enabled: bool,
}

impl FlashConfig {
    /// Flash page size in bytes (fixed at the paper's 4 KiB).
    pub const PAGE_BYTES: u64 = PAGE_SIZE;

    /// Total number of planes (the device's parallelism).
    pub fn num_planes(&self) -> usize {
        self.channels * self.dies_per_channel * self.planes_per_die
    }

    /// Number of logical pages the capacity exposes (over-provisioning is
    /// added on top of this internally).
    pub fn num_logical_pages(&self) -> u64 {
        self.capacity_bytes / Self::PAGE_BYTES
    }

    /// Physical blocks per plane, including ~12.5 % over-provisioning.
    pub fn blocks_per_plane(&self) -> u64 {
        let logical_blocks = self
            .num_logical_pages()
            .div_ceil(self.pages_per_block)
            .max(1);
        let with_op = logical_blocks + logical_blocks.div_ceil(8);
        (with_op.div_ceil(self.num_planes() as u64)).max(4)
    }

    /// Unloaded end-to-end read latency (controller + tR + transfer).
    pub fn unloaded_read_ns(&self) -> u64 {
        self.controller_overhead_ns
            + self.read_latency_ns
            + Self::PAGE_BYTES * 1_000_000_000 / self.channel_bandwidth_bps
    }

    /// Builder-style: enable or disable garbage collection.
    pub fn with_gc_enabled(mut self, enabled: bool) -> Self {
        self.gc_enabled = enabled;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero where that is meaningless.
    pub fn validate(&self) {
        assert!(self.capacity_bytes >= Self::PAGE_BYTES);
        assert!(self.channels > 0 && self.dies_per_channel > 0 && self.planes_per_die > 0);
        assert!(self.pages_per_block > 0);
        assert!(self.channel_bandwidth_bps > 0);
        assert!((0.0..1.0).contains(&self.gc_free_block_threshold));
    }
}

impl Default for FlashConfig {
    fn default() -> Self {
        FlashConfig {
            capacity_bytes: 2 << 30,
            // Provisioned per the paper's rule (§II-A): flash bandwidth
            // must meet the DRAM-cache miss stream ("it is possible to
            // meet the flash bandwidth requirements ... using multiple
            // SSDs"). 256 planes at ~42 µs tR ≈ 6 M page reads/s — ~2x
            // headroom over a 16-core system missing every ~5 µs.
            channels: 8,
            dies_per_channel: 16,
            planes_per_die: 2,
            pages_per_block: 256,
            read_latency_ns: 42_000,
            program_latency_ns: 200_000,
            erase_latency_ns: 2_000_000,
            controller_overhead_ns: 2_000,
            channel_bandwidth_bps: 3_200_000_000,
            gc_free_block_threshold: 0.06,
            gc_enabled: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_50us_class() {
        let cfg = FlashConfig::default();
        cfg.validate();
        let lat = cfg.unloaded_read_ns();
        assert!(
            (45_000..55_000).contains(&lat),
            "unloaded read {lat}ns should be ~50µs"
        );
    }

    #[test]
    fn geometry_math() {
        let cfg = FlashConfig::default();
        assert_eq!(cfg.num_planes(), 256);
        assert_eq!(cfg.num_logical_pages(), (2u64 << 30) / 4096);
        // Over-provisioned physical blocks exceed logical blocks.
        let phys = cfg.blocks_per_plane() * cfg.num_planes() as u64 * cfg.pages_per_block;
        assert!(phys > cfg.num_logical_pages());
    }

    #[test]
    fn builders() {
        let cfg = FlashConfig::default().with_gc_enabled(false);
        assert!(!cfg.gc_enabled);
    }

    #[test]
    #[should_panic]
    fn invalid_config_panics() {
        let cfg = FlashConfig {
            channels: 0,
            ..FlashConfig::default()
        };
        cfg.validate();
    }
}
