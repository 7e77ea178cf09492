//! Zipfian popularity distribution (the paper models data accesses with an
//! analytical Zipfian, §V-A).
//!
//! We use the standard rejection-inversion-free YCSB construction: ranks
//! are drawn with probability `P(r) ∝ 1/r^theta`, and a *scrambled*
//! variant hashes ranks onto items so that popular items are scattered
//! through the key space rather than clustered at low keys.
//!
//! Every draw takes the exact inverse CDF. A lookup table over the
//! uniform draw pays only where most of its buckets fall inside one
//! rank, and at the default scale (0.1–1.26 M keys, θ = 0.99) only
//! 44–56 % do (DESIGN.md §9).

use std::sync::{Arc, Mutex, OnceLock};

use astriflash_sim::rng::splitmix64;
use astriflash_sim::SimRng;

/// Generator of Zipf-distributed ranks in `[0, n)`.
///
/// Sampling is the standard YCSB inverse CDF, with ζ(n, θ) computed once
/// per process for each key count and skew.
///
/// # Example
///
/// ```
/// use astriflash_sim::SimRng;
/// use astriflash_workloads::ZipfGenerator;
///
/// let zipf = ZipfGenerator::new(1_000_000, 0.99);
/// let mut rng = SimRng::new(1);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 1_000_000);
/// ```
#[derive(Debug, Clone)]
pub struct ZipfGenerator {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    /// `0.5^theta`, hoisted out of the per-draw rank-1 test.
    half_pow_theta: f64,
}

/// The deterministic rank→id mapping behind
/// [`ZipfGenerator::sample_clustered`]: rank clusters of `cluster`
/// consecutive ranks map to contiguous id runs, with the clusters
/// themselves scattered by a hash.
pub fn clustered_id(rank: u64, n: u64, cluster: u64) -> u64 {
    let cluster = cluster.max(1);
    let groups = n.div_ceil(cluster);
    let mut s = (rank / cluster).wrapping_add(0xC1A5_7E2D);
    let group = splitmix64(&mut s) % groups;
    (group * cluster + rank % cluster).min(n - 1)
}

/// Exact generalized harmonic number `H_{n,theta}` for small `n`, switching
/// to an Euler–Maclaurin tail approximation beyond `EXACT_LIMIT` terms.
fn zeta(n: u64, theta: f64) -> f64 {
    const EXACT_LIMIT: u64 = 1_000_000;
    let exact_n = n.min(EXACT_LIMIT);
    let mut sum = 0.0;
    for i in 1..=exact_n {
        sum += 1.0 / (i as f64).powf(theta);
    }
    if n > EXACT_LIMIT {
        // Integral tail: sum_{m+1..n} i^-theta ~ (n^(1-theta) - m^(1-theta)) / (1-theta)
        // plus midpoint correction; error < 1e-7 relative at m = 1e6.
        let m = EXACT_LIMIT as f64;
        let nf = n as f64;
        if (theta - 1.0).abs() < 1e-12 {
            sum += (nf / m).ln();
        } else {
            sum += (nf.powf(1.0 - theta) - m.powf(1.0 - theta)) / (1.0 - theta);
        }
        sum += 0.5 * (nf.powf(-theta) - m.powf(-theta));
    }
    sum
}

/// [`zeta`], computed once per `(n, theta)` for the life of the
/// process. ζ is a constant of the key count and skew (YCSB precomputes
/// it), yet summing its first million terms takes about 20 ms, and every
/// engine build asks for it. A thread that asks while another computes
/// the same key waits for that result.
fn memoized_zeta(n: u64, theta: f64) -> f64 {
    type Memo = Vec<((u64, u64), Arc<OnceLock<f64>>)>;
    /// One entry per distinct `(n, theta bits)`: a process builds a few.
    static MEMO: Mutex<Memo> = Mutex::new(Vec::new());
    let key = (n, theta.to_bits());
    let slot = {
        // A push is the only update, so a panic elsewhere while holding
        // the lock leaves a valid list.
        let mut memo = MEMO.lock().unwrap_or_else(|e| e.into_inner());
        match memo.iter().find(|(k, _)| *k == key) {
            Some((_, slot)) => Arc::clone(slot),
            None => {
                let slot = Arc::new(OnceLock::new());
                memo.push((key, Arc::clone(&slot)));
                slot
            }
        }
    };
    *slot.get_or_init(|| zeta(n, theta))
}

impl ZipfGenerator {
    /// Creates a generator over `n` ranks with skew `theta ∈ [0, 1)`.
    /// `theta = 0` degenerates to uniform; YCSB's default is 0.99.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is outside `[0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipf domain must be non-empty");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        let zetan = memoized_zeta(n, theta);
        let zeta2 = zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        ZipfGenerator {
            n,
            theta,
            alpha,
            zetan,
            eta,
            half_pow_theta: 0.5f64.powf(theta),
        }
    }

    /// Domain size.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Draws a rank in `[0, n)`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        if self.theta == 0.0 {
            return rng.gen_range(self.n);
        }
        self.rank_for(rng.gen_f64())
    }

    /// The inverse CDF: maps a uniform draw `u ∈ [0, 1)` to its rank.
    fn rank_for(&self, u: f64) -> u64 {
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1;
        }
        // The floor can land on n (u → 1 makes the inner power → 1);
        // clamp into the domain.
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// Draws a rank and scrambles it *cluster-preservingly*: ranks are
    /// grouped into clusters of `cluster` consecutive ranks, and whole
    /// clusters are scattered across the id space. Items of similar
    /// popularity therefore stay adjacent (sharing a 4 KiB page when
    /// `cluster = page / record` items fit one page) while hot clusters
    /// spread over the address space — the spatial locality the paper's
    /// page-granularity DRAM cache exploits (§II-A), as produced by
    /// recency-correlated allocation in real stores.
    pub fn sample_clustered(&self, rng: &mut SimRng, cluster: u64) -> u64 {
        clustered_id(self.sample(rng), self.n, cluster)
    }

    /// Analytic probability of drawing rank `r` (0-based).
    pub fn probability(&self, rank: u64) -> f64 {
        assert!(rank < self.n);
        if self.theta == 0.0 {
            return 1.0 / self.n as f64;
        }
        1.0 / ((rank + 1) as f64).powf(self.theta) / self.zetan
    }

    /// Analytic cumulative probability of the `k` most popular ranks.
    pub fn cumulative(&self, k: u64) -> f64 {
        let k = k.min(self.n);
        zeta(k.max(1), self.theta) / self.zetan * if k == 0 { 0.0 } else { 1.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_in_domain() {
        let zipf = ZipfGenerator::new(1000, 0.99);
        let mut rng = SimRng::new(3);
        for _ in 0..10_000 {
            assert!(zipf.sample(&mut rng) < 1000);
        }
    }

    #[test]
    fn skew_concentrates_on_low_ranks() {
        let zipf = ZipfGenerator::new(10_000, 0.99);
        let mut rng = SimRng::new(4);
        let n = 100_000;
        let top100 = (0..n).filter(|_| zipf.sample(&mut rng) < 100).count();
        let frac = top100 as f64 / n as f64;
        // Analytically the top 1% of ranks should absorb ~60% of draws.
        assert!(frac > 0.45, "top-100 fraction was {frac}");
    }

    #[test]
    fn theta_zero_is_uniform() {
        let zipf = ZipfGenerator::new(100, 0.0);
        let mut rng = SimRng::new(5);
        let mut counts = [0u32; 100];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        let min = *counts.iter().min().unwrap() as f64;
        let max = *counts.iter().max().unwrap() as f64;
        assert!(max / min < 1.5, "uniform draw too skewed: {min}..{max}");
    }

    #[test]
    fn empirical_matches_analytic_probability() {
        let zipf = ZipfGenerator::new(1000, 0.8);
        let mut rng = SimRng::new(6);
        let n = 500_000;
        let rank0 = (0..n).filter(|_| zipf.sample(&mut rng) == 0).count();
        let emp = rank0 as f64 / n as f64;
        let ana = zipf.probability(0);
        assert!(
            (emp - ana).abs() / ana < 0.1,
            "empirical {emp} vs analytic {ana}"
        );
    }

    #[test]
    fn clustered_mapping_keeps_rank_neighbors_adjacent() {
        let n = 1_000_000;
        // Ranks within one cluster map to consecutive ids.
        for base in [0u64, 4, 400, 99_996] {
            let first = clustered_id(base, n, 4);
            for off in 1..4 {
                assert_eq!(clustered_id(base + off, n, 4), first + off);
            }
        }
        // Different clusters land in different groups (spot check), and
        // all ids stay in range.
        let g0 = clustered_id(0, n, 4) / 4;
        let g1 = clustered_id(4, n, 4) / 4;
        assert_ne!(g0, g1);
        let mut rng = SimRng::new(9);
        let zipf = ZipfGenerator::new(n, 0.99);
        for _ in 0..2000 {
            assert!(zipf.sample_clustered(&mut rng, 4) < n);
        }
    }

    #[test]
    fn zeta_tail_approximation_is_accurate() {
        // Compare approximated zeta against exact summation at 2e6.
        let theta = 0.99;
        let exact: f64 = (1..=2_000_000u64)
            .map(|i| 1.0 / (i as f64).powf(theta))
            .sum();
        let approx = zeta(2_000_000, theta);
        assert!(
            (exact - approx).abs() / exact < 1e-6,
            "exact {exact} vs approx {approx}"
        );
    }

    #[test]
    fn memoized_zeta_is_the_summed_zeta() {
        // Bit-identical to the plain sum, on the first call and on every
        // later one, across the exact and the tail-approximated range.
        for &(n, theta) in &[(1_000u64, 0.99), (1_258_291, 0.99), (7, 0.5), (10_000, 0.8)] {
            let summed = zeta(n, theta).to_bits();
            for _ in 0..2 {
                let memoized = memoized_zeta(n, theta).to_bits();
                assert_eq!(memoized, summed, "n={n} theta={theta}");
            }
        }
    }

    #[test]
    fn cumulative_is_monotone_to_one() {
        let zipf = ZipfGenerator::new(10_000, 0.9);
        let mut last = 0.0;
        for k in [1u64, 10, 100, 1000, 10_000] {
            let c = zipf.cumulative(k);
            assert!(c >= last);
            last = c;
        }
        assert!((last - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn theta_one_rejected() {
        ZipfGenerator::new(10, 1.0);
    }

    #[test]
    fn rank_for_extreme_draws_stay_in_domain() {
        let zipf = ZipfGenerator::new(1000, 0.99);
        assert_eq!(zipf.rank_for(0.0), 0);
        // u just below 1.0 drives the inverse CDF to (or past) n; the
        // clamp must pin it to the last rank.
        assert_eq!(zipf.rank_for(1.0f64.next_down()), 999);
        // Even an out-of-contract u == 1.0 cannot escape the domain.
        assert!(zipf.rank_for(1.0) < 1000);
        // Tiny domains exercise the clamp hardest.
        let tiny = ZipfGenerator::new(2, 0.9);
        for u in [0.0, 0.25, 0.5, 0.999_999, 1.0f64.next_down()] {
            assert!(tiny.rank_for(u) < 2, "u={u} escaped the domain");
        }
    }

    #[test]
    fn rank_for_is_monotone_in_u() {
        let zipf = ZipfGenerator::new(50_000, 0.9);
        let mut last = 0;
        for i in 0..=4096 {
            let u = i as f64 / 4097.0;
            let r = zipf.rank_for(u);
            assert!(r >= last, "rank regressed at u={u}: {r} < {last}");
            last = r;
        }
    }
}
