//! Reorder-buffer occupancy and flush-penalty model.
//!
//! "As modern processors feature 100s of ROB entries, each flush loses
//! useful work done by the OoO pipeline resulting in throughput
//! degradation" (§VI-A). We track an occupancy estimate that rises as
//! instructions issue and drains as they retire; a flush discards the
//! in-flight window and charges the time the frontend needs to refill it.

/// ROB occupancy and flush penalty for one core.
#[derive(Debug, Clone)]
pub struct Rob {
    entries: u32,
    occupancy: f64,
    /// Sustained dispatch/retire width in instructions per ns.
    dispatch_per_ns: f64,
}

impl Rob {
    /// Creates a ROB of `entries` for a core dispatching
    /// `dispatch_width` instructions per cycle at `freq_ghz`.
    ///
    /// # Panics
    ///
    /// Panics on zero entries or non-positive rates.
    pub fn new(entries: u32, dispatch_width: f64, freq_ghz: f64) -> Self {
        assert!(entries > 0);
        assert!(dispatch_width > 0.0 && freq_ghz > 0.0);
        Rob {
            entries,
            occupancy: 0.0,
            dispatch_per_ns: dispatch_width * freq_ghz,
        }
    }

    /// The Cortex-A76-class default used by Table I: 128-entry ROB,
    /// 4-wide, 2.5 GHz.
    pub fn a76() -> Self {
        Rob::new(128, 4.0, 2.5)
    }

    /// Advances execution: `compute_ns` of steady-state execution fills
    /// the window toward a steady ~3/4 occupancy (long-running OoO cores
    /// keep their window mostly full).
    pub fn advance(&mut self, compute_ns: u64) {
        let target = self.entries as f64 * 0.75;
        let gain = compute_ns as f64 * self.dispatch_per_ns;
        self.occupancy = (self.occupancy + gain).min(target);
    }

    /// Flushes the pipeline (miss signal → redirect to the handler,
    /// §IV-C2). Returns the refill penalty in ns and resets occupancy.
    pub fn flush(&mut self) -> u64 {
        let penalty = (self.occupancy / self.dispatch_per_ns).round() as u64;
        self.occupancy = 0.0;
        penalty
    }

    /// Current occupancy estimate in entries.
    pub fn occupancy(&self) -> f64 {
        self.occupancy
    }

    /// Capacity in entries.
    pub fn entries(&self) -> u32 {
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_rises_then_saturates() {
        let mut rob = Rob::a76();
        rob.advance(2);
        let early = rob.occupancy();
        assert!(early > 0.0);
        rob.advance(1000);
        assert_eq!(rob.occupancy(), 128.0 * 0.75);
    }

    #[test]
    fn flush_penalty_proportional_to_occupancy() {
        let mut rob = Rob::a76();
        rob.advance(1000);
        let full_penalty = {
            let mut r = rob.clone();
            r.flush()
        };
        let mut empty = Rob::a76();
        let empty_penalty = empty.flush();
        assert!(full_penalty > empty_penalty);
        // 96 entries at 10 instr/ns ≈ 10 ns.
        assert!((8..=12).contains(&full_penalty), "penalty {full_penalty}");
        assert_eq!(empty_penalty, 0);
    }

    #[test]
    fn flush_resets_occupancy() {
        let mut rob = Rob::a76();
        rob.advance(1000);
        assert!(rob.flush() > 0);
        assert_eq!(rob.occupancy(), 0.0);
        assert_eq!(rob.flush(), 0, "a second flush finds the window empty");
    }

    #[test]
    #[should_panic]
    fn zero_entries_rejected() {
        Rob::new(0, 4.0, 2.5);
    }
}
