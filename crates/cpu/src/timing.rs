//! Out-of-order overlap model: how much of a memory latency the core
//! actually stalls for.
//!
//! OoO cores hide most L1/L2 latency under independent work and part of
//! LLC/DRAM latency via memory-level parallelism; µs-scale flash latency
//! is unhidable (§III-B1). The model applies a per-magnitude overlap
//! factor — the standard approximation when instruction-level detail is
//! abstracted away (DESIGN.md §2).

/// Percent of an on-chip (L2/LLC-class, 3–50 ns) latency exposed as
/// stall.
const ON_CHIP_EXPOSED_PCT: u64 = 35;
/// Percent of a DRAM-class (51–500 ns) latency exposed as stall.
const DRAM_EXPOSED_PCT: u64 = 85;

/// Effective stall for a memory access of `latency_ns`, rounded to the
/// nearest ns (halves up):
///
/// * L1-class latencies (≤ 2 ns) are fully hidden in steady state;
/// * 3–50 ns exposes 35 % (`ON_CHIP_EXPOSED_PCT`);
/// * 51–500 ns exposes 85 % (`DRAM_EXPOSED_PCT`);
/// * µs-scale latencies cannot be hidden (§III-B1).
///
/// Integer arithmetic only: a float `round` is a library call on the
/// baseline x86-64 target, and this runs on every simulated access.
#[inline]
pub fn effective_stall_ns(latency_ns: u64) -> u64 {
    match latency_ns {
        0..=2 => 0,
        3..=50 => (latency_ns * ON_CHIP_EXPOSED_PCT + 50) / 100,
        51..=500 => (latency_ns * DRAM_EXPOSED_PCT + 50) / 100,
        _ => latency_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The model as first written: an `f64` exposure factor per latency
    /// class, rounded.
    fn float_reference(latency_ns: u64) -> u64 {
        let f = if latency_ns <= 2 {
            0.0
        } else if latency_ns <= 50 {
            0.35
        } else if latency_ns <= 500 {
            0.85
        } else {
            1.0
        };
        (latency_ns as f64 * f).round() as u64
    }

    #[test]
    fn integer_model_equals_the_float_model() {
        for latency_ns in 0..=100_000 {
            assert_eq!(
                effective_stall_ns(latency_ns),
                float_reference(latency_ns),
                "latency {latency_ns} ns"
            );
        }
    }

    #[test]
    fn l1_hits_are_free_in_steady_state() {
        assert_eq!(effective_stall_ns(1), 0);
    }

    #[test]
    fn exposure_grows_with_latency_class() {
        let on_chip = effective_stall_ns(20) as f64 / 20.0;
        let dram = effective_stall_ns(200) as f64 / 200.0;
        let flash = effective_stall_ns(50_000) as f64 / 50_000.0;
        assert!(on_chip < dram);
        assert!(dram < flash);
        assert_eq!(flash, 1.0);
    }
}
