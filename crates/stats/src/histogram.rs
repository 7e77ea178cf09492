//! Log-linear histograms for latency distributions.
//!
//! [`LogHistogram<BITS>`] splits every power of two into `2^BITS` linear
//! sub-buckets, so the worst-case relative error is `2^-BITS` while the
//! full `u64` range fits in a fixed bucket array. The workspace uses two
//! instantiations of the one implementation:
//!
//! * [`Histogram`] (`BITS = 6`): 64 sub-buckets per octave, relative
//!   error under 1.6 %, ~30 KiB — run-level service and response times;
//! * [`crate::PhaseHist`] (`BITS = 5`): 32 sub-buckets, ~3 %, ~15 KiB —
//!   the seven per-phase histograms of a [`crate::PhaseSet`] and every
//!   telemetry window, where the halved footprint matters.

use crate::percentile::Percentile;

/// A fixed-memory, mergeable log-linear histogram with `2^BITS` linear
/// sub-buckets per power of two.
///
/// Records `u64` values (nanoseconds by convention) and answers
/// percentile, mean, min and max queries. All storage is allocated at
/// construction; [`LogHistogram::record`] touches one bucket and four
/// scalars and never allocates. `u64::MAX` lands in the last bucket.
///
/// # Example
///
/// ```
/// use astriflash_stats::Histogram;
/// let mut h = Histogram::new();
/// h.record(100);
/// h.record(200);
/// assert_eq!(h.count(), 2);
/// assert!(h.mean() > 100.0 && h.mean() < 210.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram<const BITS: u32> {
    buckets: Box<[u64]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// The run-level latency histogram: 64 sub-buckets per octave.
pub type Histogram = LogHistogram<6>;

impl<const BITS: u32> LogHistogram<BITS> {
    /// Linear sub-buckets per octave.
    pub(crate) const SUB_BUCKETS: usize = 1 << BITS;
    /// `SUB_BUCKETS` exact slots below `2^BITS`, then one row of
    /// `SUB_BUCKETS` per remaining octave.
    pub(crate) const NUM_BUCKETS: usize =
        Self::SUB_BUCKETS + (64 - BITS as usize) * Self::SUB_BUCKETS;

    pub(crate) fn bucket_index(value: u64) -> usize {
        if value < Self::SUB_BUCKETS as u64 {
            return value as usize;
        }
        let octave = 63 - value.leading_zeros(); // >= BITS here
        let shift = octave - BITS;
        let sub = ((value >> shift) as usize) & (Self::SUB_BUCKETS - 1);
        // Octave BITS starts right after the SUB_BUCKETS linear slots.
        Self::SUB_BUCKETS + ((octave - BITS) as usize) * Self::SUB_BUCKETS + sub
    }

    pub(crate) fn bucket_upper_bound(index: usize) -> u64 {
        if index < Self::SUB_BUCKETS {
            return index as u64;
        }
        let rel = index - Self::SUB_BUCKETS;
        let octave = BITS + (rel / Self::SUB_BUCKETS) as u32;
        let sub = (rel % Self::SUB_BUCKETS) as u64;
        let shift = octave - BITS;
        // Highest value that maps to this bucket.
        (((1u64 << BITS) + sub) << shift) + ((1u64 << shift) - 1)
    }

    /// Creates an empty histogram (the only allocation this type does).
    pub fn new() -> Self {
        LogHistogram {
            buckets: vec![0; Self::NUM_BUCKETS].into_boxed_slice(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records `n` identical observations.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_index(value)] += n;
        self.count += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Arithmetic mean of observations (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded value (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at the given percentile (upper bucket bound, so the reported
    /// value is ≥ the true percentile, never below it by more than the
    /// bucket width).
    ///
    /// Returns 0 for an empty histogram.
    pub fn value_at(&self, p: Percentile) -> u64 {
        self.value_at_quantile(p.as_fraction())
    }

    /// Value at an arbitrary quantile `q ∈ [0, 1]`: the bucket's upper
    /// bound clamped to the observed `[min, max]`.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_upper_bound(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Merges another histogram into this one. Bucket-wise addition, so
    /// merging is associative and commutative and the result is
    /// independent of how observations were sharded.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Resets to empty without releasing memory.
    pub fn clear(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

impl<const BITS: u32> Default for LogHistogram<BITS> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_roundtrip_bounds() {
        for value in [0u64, 1, 63, 64, 65, 100, 1000, 1 << 20, u64::MAX / 2] {
            let idx = Histogram::bucket_index(value);
            let ub = Histogram::bucket_upper_bound(idx);
            assert!(ub >= value, "value {value} idx {idx} ub {ub}");
            // Upper bound itself maps to the same bucket.
            assert_eq!(Histogram::bucket_index(ub), idx, "value {value}");
            // Relative error bounded by one sub-bucket width.
            if value >= Histogram::SUB_BUCKETS as u64 {
                assert!(
                    (ub - value) as f64 / value as f64
                        <= 1.0 / Histogram::SUB_BUCKETS as f64 + 1e-12,
                    "value {value} ub {ub}"
                );
            }
        }
    }

    #[test]
    fn exact_for_small_values() {
        let mut h = Histogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.value_at_quantile(0.5), 31);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
    }

    #[test]
    fn percentiles_monotone() {
        let mut h = Histogram::new();
        let mut x = 12345u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(x % 1_000_000);
        }
        let mut last = 0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let v = h.value_at_quantile(q);
            assert!(v >= last, "quantile {q} regressed: {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn p99_close_to_exact() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let p99 = h.value_at(Percentile::P99) as f64;
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.02, "p99 {p99}");
    }

    #[test]
    fn mean_and_count() {
        let mut h = Histogram::new();
        h.record_n(10, 3);
        h.record(20);
        assert_eq!(h.count(), 4);
        assert!((h.mean() - 12.5).abs() < 1e-9);
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 5);
        assert!(a.max() >= 500);
    }

    #[test]
    fn empty_histogram_queries() {
        let h = Histogram::new();
        assert_eq!(h.value_at(Percentile::P99), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert!(h.is_empty());
    }

    #[test]
    fn clear_resets() {
        let mut h = Histogram::new();
        h.record(42);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.value_at_quantile(0.5), 0);
    }

    #[test]
    fn record_n_zero_is_noop() {
        let mut h = Histogram::new();
        h.record_n(10, 0);
        assert!(h.is_empty());
    }

    #[test]
    fn huge_values_do_not_panic() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.value_at_quantile(1.0) >= u64::MAX - 1);
    }
}
