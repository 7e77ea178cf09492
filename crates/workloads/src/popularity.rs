//! Key popularity with temporal reuse.
//!
//! The paper calibrates its workloads so "the benchmarks trigger a
//! DRAM-cache miss every 5–25 µs" (§V-A) — far below what a memoryless
//! Zipf draw produces at a 3 % cache ratio. Real services add *temporal
//! reuse* on top of popularity skew (session affinity, read-your-writes,
//! working sets); [`KeyChooser`] models it: with probability `reuse_p`
//! the next key is re-drawn from a small ring of recently used keys,
//! otherwise a fresh cluster-scrambled Zipf draw is made and remembered.
//!
//! Together with popularity-clustered layout this lands every engine in
//! the paper's miss-interval band while keeping the access *patterns*
//! (chain walks, tree descents) intact.

use astriflash_sim::SimRng;

use crate::zipf::ZipfGenerator;

/// Zipf-with-reuse key source.
///
/// # Example
///
/// ```
/// use astriflash_sim::SimRng;
/// use astriflash_workloads::popularity::KeyChooser;
///
/// let mut chooser = KeyChooser::new(1_000_000, 0.99, 4, 0.8);
/// let mut rng = SimRng::new(1);
/// let key = chooser.next(&mut rng);
/// assert!(key < 1_000_000);
/// ```
#[derive(Debug, Clone)]
pub struct KeyChooser {
    zipf: ZipfGenerator,
    cluster: u64,
    ring: Vec<u64>,
    ring_cap: usize,
    next_slot: usize,
    reuse_p: f64,
    fresh_draws: u64,
    reuse_draws: u64,
}

impl KeyChooser {
    /// Creates a chooser over `n` keys with Zipf skew `theta`,
    /// popularity clusters of `cluster` keys, and reuse probability
    /// `reuse_p`.
    ///
    /// # Panics
    ///
    /// Panics if `reuse_p` is outside `[0, 1)`.
    pub fn new(n: u64, theta: f64, cluster: u64, reuse_p: f64) -> Self {
        assert!((0.0..1.0).contains(&reuse_p), "reuse_p must be in [0,1)");
        KeyChooser {
            zipf: ZipfGenerator::new(n, theta),
            cluster: cluster.max(1),
            ring: Vec::with_capacity(Self::RING_CAP),
            ring_cap: Self::RING_CAP,
            next_slot: 0,
            reuse_p,
            fresh_draws: 0,
            reuse_draws: 0,
        }
    }

    /// Recently-used ring size: a few hundred keys per engine, far
    /// smaller than the DRAM cache, so reuse hits are cache hits.
    const RING_CAP: usize = 256;

    /// Draws the next key.
    pub fn next(&mut self, rng: &mut SimRng) -> u64 {
        if !self.ring.is_empty() && rng.gen_bool(self.reuse_p) {
            self.reuse_draws += 1;
            let idx = rng.gen_range(self.ring.len() as u64) as usize;
            return self.ring[idx];
        }
        self.fresh_draws += 1;
        let key = self.zipf.sample_clustered(rng, self.cluster);
        if self.ring.len() < self.ring_cap {
            self.ring.push(key);
        } else {
            self.ring[self.next_slot] = key;
            self.next_slot = (self.next_slot + 1) % self.ring_cap;
        }
        key
    }

    /// Number of keys in the domain.
    pub fn n(&self) -> u64 {
        self.zipf.n()
    }

    /// Fresh (Zipf) draws made.
    pub fn fresh_draws(&self) -> u64 {
        self.fresh_draws
    }

    /// Reuse (ring) draws made.
    pub fn reuse_draws(&self) -> u64 {
        self.reuse_draws
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_in_domain_and_reuse_ratio_respected() {
        let mut c = KeyChooser::new(10_000, 0.9, 4, 0.8);
        let mut rng = SimRng::new(3);
        for _ in 0..50_000 {
            assert!(c.next(&mut rng) < 10_000);
        }
        let total = (c.fresh_draws() + c.reuse_draws()) as f64;
        let reuse_frac = c.reuse_draws() as f64 / total;
        assert!((reuse_frac - 0.8).abs() < 0.02, "reuse fraction {reuse_frac}");
    }

    #[test]
    fn reuse_concentrates_distinct_keys() {
        let draw_distinct = |reuse_p: f64| {
            let mut c = KeyChooser::new(1_000_000, 0.9, 4, reuse_p);
            let mut rng = SimRng::new(4);
            let keys: std::collections::HashSet<u64> =
                (0..10_000).map(|_| c.next(&mut rng)).collect();
            keys.len()
        };
        let with_reuse = draw_distinct(0.8);
        let without = draw_distinct(0.0);
        assert!(
            (with_reuse as f64) < without as f64 * 0.4,
            "reuse should shrink the touched set: {with_reuse} vs {without}"
        );
    }

    #[test]
    fn first_draw_is_always_fresh() {
        let mut c = KeyChooser::new(100, 0.5, 1, 0.99);
        let mut rng = SimRng::new(5);
        c.next(&mut rng);
        assert_eq!(c.fresh_draws(), 1);
        assert_eq!(c.reuse_draws(), 0);
    }

    #[test]
    #[should_panic(expected = "reuse_p")]
    fn invalid_reuse_p_rejected() {
        KeyChooser::new(10, 0.5, 1, 1.0);
    }
}
