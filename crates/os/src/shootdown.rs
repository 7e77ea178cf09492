//! Broadcast TLB-shootdown cost model (§II-C).
//!
//! "Modern TLB shootdowns are a broadcast operation, thus scaling poorly
//! with the number of cores and incurring over 10 µs in latency." The
//! initiator sends IPIs to every core, each core takes an interrupt,
//! invalidates, and acknowledges; the initiator waits for the last ACK.
//! Because handling is serialized on shared kernel state and interrupt
//! delivery, cost grows with core count.

use astriflash_sim::SimDuration;

/// Shootdown cost parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShootdownModel {
    /// Initiator-side fixed cost (building the cpumask, IPI issue), ns.
    pub initiator_base_ns: u64,
    /// Per-responder cost on the initiator's critical path (IPI
    /// delivery + ACK collection serialize per core), ns.
    pub per_core_ns: u64,
    /// Interrupt handling cost charged to each responder core, ns.
    pub responder_ns: u64,
}

impl Default for ShootdownModel {
    fn default() -> Self {
        // Calibrated so a 16-core shootdown costs ~10 µs end-to-end,
        // matching the >10 µs figure the paper cites for modern servers.
        ShootdownModel {
            initiator_base_ns: 2_000,
            per_core_ns: 500,
            responder_ns: 1_500,
        }
    }
}

impl ShootdownModel {
    /// Latency the *initiating* core pays for a shootdown across
    /// `cores` total cores (itself included).
    pub fn initiator_latency(&self, cores: usize) -> SimDuration {
        let responders = cores.saturating_sub(1) as u64;
        SimDuration::from_ns(self.initiator_base_ns + self.per_core_ns * responders)
    }

    /// Time stolen from each *responder* core.
    pub fn responder_latency(&self) -> SimDuration {
        SimDuration::from_ns(self.responder_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_grows_with_cores() {
        let m = ShootdownModel::default();
        let c4 = m.initiator_latency(4);
        let c16 = m.initiator_latency(16);
        let c64 = m.initiator_latency(64);
        assert!(c4 < c16 && c16 < c64);
    }

    #[test]
    fn single_core_pays_only_base() {
        let m = ShootdownModel::default();
        assert_eq!(m.initiator_latency(1).as_ns(), m.initiator_base_ns);
    }
}
