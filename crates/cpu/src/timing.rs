//! Out-of-order overlap model: how much of a memory latency the core
//! actually stalls for.
//!
//! OoO cores hide most L1/L2 latency under independent work and part of
//! LLC/DRAM latency via memory-level parallelism; µs-scale flash latency
//! is unhidable (§III-B1). The model applies a per-magnitude overlap
//! factor — the standard approximation when instruction-level detail is
//! abstracted away (DESIGN.md §2).

/// Effective-stall model for one core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OooTiming {
    /// Fraction of L1-class (≤2 ns) latency exposed as stall.
    pub l1_exposed: f64,
    /// Fraction of L2/LLC-class (≤50 ns) latency exposed.
    pub on_chip_exposed: f64,
    /// Fraction of DRAM-class (≤500 ns) latency exposed.
    pub dram_exposed: f64,
}

impl Default for OooTiming {
    fn default() -> Self {
        OooTiming {
            l1_exposed: 0.0,   // fully hidden in steady state
            on_chip_exposed: 0.35,
            dram_exposed: 0.85,
        }
    }
}

impl OooTiming {
    /// Effective stall for a memory access of `latency_ns`.
    pub fn effective_stall_ns(&self, latency_ns: u64) -> u64 {
        let f = if latency_ns <= 2 {
            self.l1_exposed
        } else if latency_ns <= 50 {
            self.on_chip_exposed
        } else if latency_ns <= 500 {
            self.dram_exposed
        } else {
            1.0 // µs-scale latencies cannot be hidden (§III-B1)
        };
        (latency_ns as f64 * f).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_hits_are_free_in_steady_state() {
        let t = OooTiming::default();
        assert_eq!(t.effective_stall_ns(1), 0);
    }

    #[test]
    fn exposure_grows_with_latency_class() {
        let t = OooTiming::default();
        let on_chip = t.effective_stall_ns(20) as f64 / 20.0;
        let dram = t.effective_stall_ns(200) as f64 / 200.0;
        let flash = t.effective_stall_ns(50_000) as f64 / 50_000.0;
        assert!(on_chip < dram);
        assert!(dram < flash);
        assert_eq!(flash, 1.0);
    }
}
