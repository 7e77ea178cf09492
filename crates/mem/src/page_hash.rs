//! The hasher of the crate's page-keyed maps.
//!
//! `std`'s default SipHash-1-3 resists hash flooding, but the keys here
//! are page numbers the simulation makes itself, and the DRAM-cache
//! prewarm sends over a hundred thousand touches through the page LRU.
//! One multiply by an odd constant mixes each page's bits upwards, and
//! folding the high half onto the low half brings them down to the low
//! bits the table indexes by, so neither a run of pages nor pages a
//! power of two apart crowd a few buckets. Nothing iterates these maps,
//! so their order never reaches a result.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` from page numbers hashed by [`PageHasher`].
pub(crate) type PageHashMap<V> = HashMap<u64, V, BuildHasherDefault<PageHasher>>;

/// FxHash's odd multiplier.
const MULT: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Hashes one `u64` page number with one multiply.
#[derive(Debug, Default)]
pub(crate) struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("page maps hash `u64` keys only");
    }

    fn write_u64(&mut self, page: u64) {
        let h = page.wrapping_mul(MULT);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_strided_pages_spread_over_the_buckets() {
        // The table indexes by the hash's low bits. A hash that leaves
        // them as they are fills 16 of 1 024 buckets at stride 64 and one
        // at stride 4 096; a random one fills about 63 % of them.
        let bucket = |page: u64| {
            let mut h = PageHasher::default();
            h.write_u64(page);
            h.finish() & 1023
        };
        for stride in [1, 64, 1 << 12, 1 << 20] {
            let mut buckets: Vec<u64> = (0..1024).map(|i| bucket(i * stride)).collect();
            buckets.sort_unstable();
            buckets.dedup();
            assert!(buckets.len() > 512, "stride {stride}: {} buckets", buckets.len());
        }
    }
}
