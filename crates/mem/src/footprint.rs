//! Footprint prediction (the paper's §II-A bandwidth optimization:
//! "use optimizations such as Footprint Cache" \[36\]).
//!
//! A footprint cache fetches only the blocks of a page the processor is
//! predicted to touch, instead of the whole 4 KiB, cutting the flash
//! bandwidth Eq. 1 demands. We implement the history-based variant: the
//! blocks a page's last residency actually touched are remembered at
//! eviction and prefetched on the next miss to that page; blocks outside
//! the prediction that do get touched cost a *sub-miss* (a partial
//! refetch).

use astriflash_sim::PageMap;

/// Per-page footprint history.
///
/// Bitmaps are one bit per 64 B block of a 4 KiB page (64 bits exactly).
#[derive(Debug, Default)]
pub struct FootprintPredictor {
    history: PageMap<u64>,
}

impl FootprintPredictor {
    /// Creates an empty predictor.
    pub fn new() -> Self {
        FootprintPredictor::default()
    }

    /// Predicts the blocks worth fetching for `page`, guaranteeing the
    /// immediately needed `needed_block` is included. Unknown pages
    /// fetch everything (cold-start safe).
    pub fn predict(&self, page: u64, needed_block: u32) -> u64 {
        let needed = 1u64 << (needed_block & 63);
        match self.history.get(page) {
            Some(bits) => bits | needed,
            None => u64::MAX,
        }
    }

    /// Records the blocks `page` actually had touched when it was
    /// evicted.
    pub fn record(&mut self, page: u64, touched: u64) {
        // An empty footprint would guarantee a sub-miss next time; keep
        // at least one block.
        self.history.insert(page, if touched == 0 { 1 } else { touched });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_pages_fetch_everything() {
        let p = FootprintPredictor::new();
        assert_eq!(p.predict(7, 3), u64::MAX);
    }

    #[test]
    fn history_replays_with_needed_block_added() {
        let mut p = FootprintPredictor::new();
        p.record(7, 0b1010);
        let f = p.predict(7, 0);
        assert_eq!(f, 0b1011, "needed block 0 must be included");
    }

    #[test]
    fn empty_footprint_clamped_to_one_block() {
        let mut p = FootprintPredictor::new();
        p.record(9, 0);
        assert_eq!(p.predict(9, 5), 1 | (1 << 5));
    }
}
