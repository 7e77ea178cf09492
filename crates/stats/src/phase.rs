//! Per-phase latency attribution for DRAM-cache miss lifecycles.
//!
//! A miss that leaves the on-chip hierarchy spends its life in a fixed
//! sequence of phases — backside-controller admission (including MSR
//! stalls), the flash channel queue, the flash array read, the PCIe
//! transfer, the install into the DRAM cache, and finally the wait for
//! the scheduler to resume the blocked thread. [`Phase`] names those
//! stages, [`PhaseHist`] is a compact log-linear histogram for one of
//! them, and [`PhaseSet`] bundles one histogram per phase.
//!
//! The simulator records into a [`PhaseSet`] on every *completed* miss
//! lifecycle (a miss whose page arrived); the offline trace analyzer
//! (`astriflash-analyze`) reconstructs the same quantities from a
//! Perfetto trace and cross-validates them, so both instrumentation
//! layers keep each other honest.
//!
//! # Example
//!
//! ```
//! use astriflash_stats::{Phase, PhaseSet};
//!
//! let mut p = PhaseSet::new();
//! p.record(Phase::FlashRead, 100_000);
//! p.record(Phase::PcieXfer, 4_000);
//! assert_eq!(p.hist(Phase::FlashRead).count(), 1);
//! assert!(p.share(Phase::FlashRead) > 0.9);
//! ```

use crate::histogram::LogHistogram;

/// The phases of a DRAM-cache miss lifecycle, in wall-clock order.
///
/// Every completed miss records [`Phase::AdmitWait`] and
/// [`Phase::ResumeDelay`]. A miss that *issued* the flash read also
/// records the four flash-path phases (queue / read / transfer /
/// install); a miss that *coalesced* onto an in-flight read records
/// [`Phase::CoalescedWait`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// First miss detection to admission resolution at the backside
    /// controller: tag-check and MSR processing, including every
    /// MSR-full stall/retry round.
    AdmitWait,
    /// Coalesced (duplicate) misses only: admission resolution to page
    /// arrival — the wait on someone else's in-flight flash read.
    CoalescedWait,
    /// Issuing misses only: time the read spent queued behind the flash
    /// plane (0 when the plane was idle).
    FlashQueue,
    /// Issuing misses only: the flash array read itself (tR).
    FlashRead,
    /// Issuing misses only: the PCIe/channel transfer of the fetched
    /// bytes.
    PcieXfer,
    /// Issuing misses only: transfer completion to the page being
    /// installed in the DRAM cache (controller overhead + BC
    /// processing + DRAM fill).
    Install,
    /// Page arrival to the thread actually running again (scheduler
    /// ready-queue wait; 0 for threads blocked synchronously).
    ResumeDelay,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 7;

    /// All phases, in lifecycle order.
    pub fn all() -> [Phase; Phase::COUNT] {
        [
            Phase::AdmitWait,
            Phase::CoalescedWait,
            Phase::FlashQueue,
            Phase::FlashRead,
            Phase::PcieXfer,
            Phase::Install,
            Phase::ResumeDelay,
        ]
    }

    /// Stable machine-readable name (used in CSV artifacts and the
    /// trace cross-validation).
    pub fn label(self) -> &'static str {
        match self {
            Phase::AdmitWait => "admit_msr_wait",
            Phase::CoalescedWait => "coalesced_wait",
            Phase::FlashQueue => "flash_chan_queue",
            Phase::FlashRead => "flash_read",
            Phase::PcieXfer => "pcie_xfer",
            Phase::Install => "bc_install",
            Phase::ResumeDelay => "resume_delay",
        }
    }

    /// Parses a [`Phase::label`] back into a phase.
    pub fn from_label(label: &str) -> Option<Phase> {
        Phase::all().into_iter().find(|p| p.label() == label)
    }

    /// Index into a [`PhaseSet`]'s histogram array.
    pub fn index(self) -> usize {
        match self {
            Phase::AdmitWait => 0,
            Phase::CoalescedWait => 1,
            Phase::FlashQueue => 2,
            Phase::FlashRead => 3,
            Phase::PcieXfer => 4,
            Phase::Install => 5,
            Phase::ResumeDelay => 6,
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The per-phase histogram: the 5-bit [`LogHistogram`] (32 sub-buckets
/// per octave, ~3 % worst-case relative error, ~15 KiB). Half the
/// memory of the 6-bit [`crate::Histogram`] matters because a
/// [`PhaseSet`] carries seven of these and every telemetry window one.
pub type PhaseHist = LogHistogram<5>;

/// The reporting percentiles for phase breakdowns: p50 / p95 / p99 /
/// p99.9 as fractions.
pub const PHASE_QUANTILES: [f64; 4] = [0.50, 0.95, 0.99, 0.999];

/// One [`PhaseHist`] per [`Phase`]: the full per-phase latency
/// breakdown of a run (or of a merged set of sweep shards).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSet {
    hists: [PhaseHist; Phase::COUNT],
}

impl PhaseSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        PhaseSet {
            hists: std::array::from_fn(|_| PhaseHist::new()),
        }
    }

    /// Records one observation for `phase`.
    pub fn record(&mut self, phase: Phase, value_ns: u64) {
        self.hists[phase.index()].record(value_ns);
    }

    /// The histogram for `phase`.
    pub fn hist(&self, phase: Phase) -> &PhaseHist {
        &self.hists[phase.index()]
    }

    /// Whether no phase has any observations.
    pub fn is_empty(&self) -> bool {
        self.hists.iter().all(PhaseHist::is_empty)
    }

    /// Completed miss lifecycles recorded (every completed miss records
    /// exactly one `AdmitWait` observation).
    pub fn completed_misses(&self) -> u64 {
        self.hist(Phase::AdmitWait).count()
    }

    /// Total nanoseconds attributed across all phases.
    pub fn total_ns(&self) -> u128 {
        self.hists.iter().map(PhaseHist::sum).sum()
    }

    /// `phase`'s share of the total attributed time — its fraction of
    /// the summed critical path across all completed misses. 0 when
    /// nothing has been recorded.
    pub fn share(&self, phase: Phase) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            0.0
        } else {
            self.hist(phase).sum() as f64 / total as f64
        }
    }

    /// p50/p95/p99/p99.9 for `phase` (see [`PHASE_QUANTILES`]).
    pub fn percentiles(&self, phase: Phase) -> [u64; 4] {
        let h = self.hist(phase);
        PHASE_QUANTILES.map(|q| h.value_at_quantile(q))
    }

    /// Merges another set into this one phase-by-phase. Order-insensitive
    /// (see [`PhaseHist::merge`]), so sweep shards can be merged in
    /// completion order or slot order with identical results.
    pub fn merge(&mut self, other: &PhaseSet) {
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            a.merge(b);
        }
    }
}

impl Default for PhaseSet {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::percentile::exact_percentile;

    #[test]
    fn bucket_roundtrip_bounds() {
        for value in [0u64, 1, 31, 32, 33, 100, 1000, 1 << 20, u64::MAX / 3, u64::MAX] {
            let idx = PhaseHist::bucket_index(value);
            let ub = PhaseHist::bucket_upper_bound(idx);
            assert!(ub >= value, "value {value} idx {idx} ub {ub}");
            assert_eq!(PhaseHist::bucket_index(ub), idx, "value {value}");
            assert!(idx < PhaseHist::NUM_BUCKETS);
        }
        assert_eq!(
            PhaseHist::bucket_index(u64::MAX),
            PhaseHist::NUM_BUCKETS - 1
        );
    }

    #[test]
    fn percentiles_track_exact_within_resolution() {
        let mut h = PhaseHist::new();
        let mut values: Vec<u64> = (0..5000u64).map(|i| i * i % 700_001 + 50).collect();
        for &v in &values {
            h.record(v);
        }
        for q in PHASE_QUANTILES {
            let exact = exact_percentile(&mut values, q).unwrap();
            let est = h.value_at_quantile(q);
            assert!(est >= exact, "q {q}: est {est} < exact {exact}");
            // 32 sub-buckets per octave -> worst-case ~3.2 % high.
            assert!((est as f64) <= exact as f64 * 1.04 + 1.0, "q {q}: {est} vs {exact}");
        }
    }

    #[test]
    fn zero_and_saturation_edges() {
        let mut h = PhaseHist::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.value_at_quantile(0.0), 0);
        assert_eq!(h.value_at_quantile(1.0), u64::MAX);
    }

    #[test]
    fn phase_labels_roundtrip() {
        for p in Phase::all() {
            assert_eq!(Phase::from_label(p.label()), Some(p));
        }
        assert_eq!(Phase::from_label("nonsense"), None);
    }

    #[test]
    fn set_share_and_counts() {
        let mut s = PhaseSet::new();
        s.record(Phase::AdmitWait, 100);
        s.record(Phase::FlashRead, 900);
        s.record(Phase::ResumeDelay, 0);
        assert_eq!(s.completed_misses(), 1);
        assert_eq!(s.total_ns(), 1000);
        assert!((s.share(Phase::FlashRead) - 0.9).abs() < 1e-12);
        assert!((s.share(Phase::CoalescedWait)).abs() < 1e-12);

        let mut t = PhaseSet::new();
        t.record(Phase::FlashRead, 900);
        s.merge(&t);
        assert_eq!(s.hist(Phase::FlashRead).count(), 2);
    }
}
