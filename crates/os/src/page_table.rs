//! Radix page-table walk model (§IV-A).
//!
//! A 4-level walk touches one page-table entry per level. What matters
//! to the experiments is *where those PTE accesses land*: with DRAM
//! partitioning (the AstriFlash default) page tables live in the flat
//! DRAM partition and every PTE access is a ~100 ns DRAM access; without
//! it (`AstriFlash-noDP`) the PTE pages are flash-backed and a cold walk
//! can take serialized flash reads, wrecking the p99 (Table II).
//!
//! Table pages are laid out deterministically inside a dedicated region
//! using the radix prefix, so repeated walks of the same VPN touch the
//! same PTE addresses and upper levels are shared between neighboring
//! pages — exactly the locality structure of a real radix tree.

use astriflash_sim::rng::splitmix64;

/// Levels in the radix tree.
pub const WALK_LEVELS: usize = 4;
/// Index bits per level (512-entry tables, 8 B PTEs ⇒ 4 KiB table pages).
pub const BITS_PER_LEVEL: u32 = 9;

/// Deterministic page-table layout over a region of the physical space.
#[derive(Debug, Clone, Copy)]
pub struct PageTableWalker {
    region_base: u64,
    region_pages: u64,
}

impl PageTableWalker {
    /// Creates a walker whose table pages live in
    /// `[region_base, region_base + region_pages * 4096)`.
    ///
    /// # Panics
    ///
    /// Panics if the region is empty.
    pub fn new(region_base: u64, region_pages: u64) -> Self {
        assert!(region_pages > 0);
        PageTableWalker {
            region_base,
            region_pages,
        }
    }

    /// The four PTE addresses touched when translating `vpn`, root
    /// first. Two VPNs sharing a radix prefix share the corresponding
    /// upper-level PTE addresses.
    pub fn walk_addresses(&self, vpn: u64) -> [u64; WALK_LEVELS] {
        let mut out = [0u64; WALK_LEVELS];
        for (level, slot) in out.iter_mut().enumerate() {
            // The table *page* is identified by the prefix above this
            // level; the entry within it by this level's index bits.
            let shift = BITS_PER_LEVEL * (WALK_LEVELS - 1 - level) as u32;
            let prefix = vpn >> (shift + BITS_PER_LEVEL);
            let index = (vpn >> shift) & ((1 << BITS_PER_LEVEL) - 1);
            let mut h = prefix
                .wrapping_mul(0x9E37)
                .wrapping_add((level as u64) << 56);
            let table_page = splitmix64(&mut h) % self.region_pages;
            *slot = self.region_base + table_page * 4096 + index * 8;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walks_are_deterministic() {
        let w = PageTableWalker::new(1 << 40, 4096);
        assert_eq!(w.walk_addresses(12345), w.walk_addresses(12345));
    }

    #[test]
    fn addresses_stay_in_region() {
        let base = 1 << 40;
        let w = PageTableWalker::new(base, 256);
        for vpn in [0u64, 1, 511, 512, 1 << 27, u64::MAX >> 12] {
            for addr in w.walk_addresses(vpn) {
                assert!(addr >= base);
                assert!(addr < base + 256 * 4096);
                assert_eq!(addr % 8, 0, "PTEs are 8 B aligned");
            }
        }
    }

    #[test]
    fn neighbors_share_upper_levels() {
        let w = PageTableWalker::new(0, 4096);
        let a = w.walk_addresses(1000);
        let b = w.walk_addresses(1001);
        // Same 512-entry leaf table, adjacent entries; all upper levels
        // identical.
        assert_eq!(a[0], b[0]);
        assert_eq!(a[1], b[1]);
        assert_eq!(a[2], b[2]);
        assert_eq!(b[3], a[3] + 8);
    }

    #[test]
    fn distant_vpns_use_different_tables() {
        let w = PageTableWalker::new(0, 4096);
        let a = w.walk_addresses(0);
        let b = w.walk_addresses(1 << 30);
        assert_ne!(a[2], b[2]);
        assert_ne!(a[3], b[3]);
    }
}
