//! Zipfian popularity distribution (the paper models data accesses with an
//! analytical Zipfian, §V-A).
//!
//! We use the standard rejection-inversion-free YCSB construction: ranks
//! are drawn with probability `P(r) ∝ 1/r^theta`, and a *scrambled*
//! variant hashes ranks onto items so that popular items are scattered
//! through the key space rather than clustered at low keys.

use std::sync::{Arc, Mutex, OnceLock};

use astriflash_sim::rng::splitmix64;
use astriflash_sim::SimRng;

/// Buckets of the cached inverse-CDF table: a power of two so the
/// `u * BUCKETS` bucket computation is an exact scaling (no rounding),
/// making the bucket ↔ `[b/K, (b+1)/K)` correspondence exact.
const TABLE_BUCKETS: usize = 1 << 14;
/// Sentinel marking a bucket whose draws must take the exact slow path.
/// Entries are u32 (64 KiB total) to keep the table cache-resident;
/// domains too large for u32 ranks simply skip the table.
const SLOW_BUCKET: u32 = u32::MAX;
/// Minimum fast-path fraction for the table to be kept. Below this the
/// table is a net loss — most draws pay the lookup, a mispredicted
/// branch, *and* the full formula — so the generator discards it and
/// every draw takes the plain path. Measured crossover on the churn
/// microbench: ≥0.9 coverage is ~2.9x, ~0.67 is ~1.4x, ≤0.5 is a wash
/// to a slight regression.
const MIN_TABLE_COVERAGE: f64 = 0.6;

/// Generator of Zipf-distributed ranks in `[0, n)`.
///
/// Sampling is the standard YCSB inverse-CDF, accelerated by a
/// 16 Ki-bucket lookup table over the uniform draw: buckets provably
/// contained in a single rank resolve without calling `powf`, and only
/// buckets straddling a rank (or case) boundary fall back to the exact
/// formula. The table is kept only when its fast-path coverage clears
/// `MIN_TABLE_COVERAGE` — below that most draws would pay the lookup
/// *and* the formula. Either way the sampler is **sequence-identical**
/// to the plain formula — see [`ZipfGenerator::without_table`].
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
#[derive(Clone)]
pub struct ZipfGenerator {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
    /// `0.5^theta`, hoisted out of the per-draw rank-1 test.
    half_pow_theta: f64,
    /// Per-bucket precomputed rank, or [`SLOW_BUCKET`]. `None` when the
    /// constants make bucket classification unsound (or `theta == 0`),
    /// or when fast coverage falls below [`MIN_TABLE_COVERAGE`].
    table: Option<Vec<u32>>,
}

impl std::fmt::Debug for ZipfGenerator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ZipfGenerator")
            .field("n", &self.n)
            .field("theta", &self.theta)
            .field("alpha", &self.alpha)
            .field("zetan", &self.zetan)
            .field("eta", &self.eta)
            .field("zeta2", &self.zeta2)
            .field("table_coverage", &self.table_coverage())
            .finish()
    }
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
        let mut zipf = Self::without_table(n, theta);
        zipf.table = zipf.build_table();
        zipf
    }

    /// Like [`ZipfGenerator::new`] but never builds the inverse-CDF
    /// table: every draw takes the exact formula path. The reference
    /// implementation for the differential tests and perf baselines —
    /// [`sample`](ZipfGenerator::sample) draws the same sequence either
    /// way.
    pub fn without_table(n: u64, theta: f64) -> Self {
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
            zeta2,
            half_pow_theta: 0.5f64.powf(theta),
            table: None,
        }
    }

    /// Builds the per-bucket rank table. A bucket gets a concrete rank
    /// only when *every* `u` it covers provably resolves to that rank
    /// under the exact formula; anything uncertain stays a slow bucket.
    fn build_table(&self) -> Option<Vec<u32>> {
        // theta == 0 bypasses the inverse CDF entirely; degenerate
        // constants (n == 2 gives eta == 0) make the monotonicity
        // argument vacuous; ranks past u32 don't fit the table entries.
        // In all those cases skip the table and stay on the exact path.
        if self.theta == 0.0
            || self.n >= u64::from(u32::MAX)
            || !(self.eta.is_finite() && self.eta > 0.0)
            || !(self.zetan.is_finite() && self.zetan > 0.0)
        {
            return None;
        }
        let mut table = vec![SLOW_BUCKET; TABLE_BUCKETS];
        for (b, slot) in table.iter_mut().enumerate() {
            // Dyadic endpoints are exact; `next_down` makes the upper
            // endpoint the largest f64 still inside the bucket.
            let u_lo = b as f64 / TABLE_BUCKETS as f64;
            let u_hi = ((b + 1) as f64 / TABLE_BUCKETS as f64).next_down();
            *slot = self.classify_bucket(u_lo, u_hi);
        }
        // Keep the table only where it pays for itself. Large skewed
        // domains (figure scale: n ≈ 2^20, theta = 0.99) pack many rank
        // boundaries per bucket, leaving only ~45% fast coverage — there
        // the pure formula path is faster, and dropping the table is
        // sequence-neutral by construction.
        let fast = table.iter().filter(|&&r| r != SLOW_BUCKET).count();
        if (fast as f64) < MIN_TABLE_COVERAGE * TABLE_BUCKETS as f64 {
            return None;
        }
        Some(table)
    }

    /// Decides bucket `[u_lo, u_hi]` (inclusive in f64 terms).
    ///
    /// Soundness rests on weak monotonicity of the per-draw arithmetic:
    /// `u * zetan` and `eta * u - eta + 1` are single correctly-rounded
    /// monotone ops, so interior draws are bracketed by the endpoints.
    /// `powf` is not guaranteed monotone, so formula-region buckets are
    /// additionally required to clear a 4-ulp margin from both rank
    /// boundaries before they are trusted.
    fn classify_bucket(&self, u_lo: f64, u_hi: f64) -> u32 {
        let uz_lo = u_lo * self.zetan;
        let uz_hi = u_hi * self.zetan;
        if uz_hi < 1.0 {
            return 0;
        }
        let case1_edge = 1.0 + self.half_pow_theta;
        if uz_lo >= 1.0 && uz_hi < case1_edge {
            return 1;
        }
        if uz_lo < case1_edge {
            return SLOW_BUCKET; // straddles a closed-form case edge
        }
        let v_lo = self.formula_value(u_lo);
        let v_hi = self.formula_value(u_hi);
        if !v_lo.is_finite() || !v_hi.is_finite() {
            return SLOW_BUCKET;
        }
        let r = v_lo as u64;
        if v_hi as u64 != r {
            return SLOW_BUCKET;
        }
        let clamped = r.min(self.n - 1);
        // n < u32::MAX (checked in build_table), so the clamped rank
        // always fits an entry without colliding with the sentinel.
        debug_assert!(clamped < u64::from(SLOW_BUCKET));
        let margin_lo = v_lo - r as f64;
        let margin_hi = (r as f64 + 1.0) - v_hi;
        if margin_lo > 4.0 * f64::EPSILON * v_lo && margin_hi > 4.0 * f64::EPSILON * v_hi {
            clamped as u32
        } else {
            SLOW_BUCKET
        }
    }

    /// The continuous inverse-CDF value whose floor is the formula-path
    /// rank.
    fn formula_value(&self, u: f64) -> f64 {
        self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)
    }

    /// Fraction of uniform-draw space served by the table's fast path
    /// (0.0 when the table is disabled).
    pub fn table_coverage(&self) -> f64 {
        match &self.table {
            None => 0.0,
            Some(t) => {
                t.iter().filter(|&&r| r != SLOW_BUCKET).count() as f64 / TABLE_BUCKETS as f64
            }
        }
    }

    /// Domain size.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draws a rank in `[0, n)`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        if self.theta == 0.0 {
            return rng.gen_range(self.n);
        }
        let u = rng.gen_f64();
        if let Some(table) = &self.table {
            // Exact because TABLE_BUCKETS is a power of two.
            let rank = table[(u * TABLE_BUCKETS as f64) as usize];
            if rank != SLOW_BUCKET {
                return u64::from(rank);
            }
        }
        self.rank_for(u)
    }

    /// The exact inverse CDF: maps a uniform draw `u ∈ [0, 1)` to its
    /// rank. This is the reference the table fast path must agree with;
    /// public for boundary regression tests.
    pub fn rank_for(&self, u: f64) -> u64 {
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

    /// The `zeta(2, theta)` constant (exposed for tests).
    pub fn zeta2(&self) -> f64 {
        self.zeta2
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
    fn table_is_sequence_identical_to_formula() {
        // The tentpole invariant: the accelerated sampler must produce
        // the exact draw sequence of the plain formula, for every rank
        // including the closed-form 0/1 cases and the clamp region.
        for &(n, theta) in &[
            (1_000u64, 0.99),
            (10_000, 0.8),
            (1_000_000, 0.99),
            (7, 0.5),
            (2, 0.5),
            (1, 0.3),
            (100, 0.01),
        ] {
            let fast = ZipfGenerator::new(n, theta);
            let slow = ZipfGenerator::without_table(n, theta);
            let mut rng_a = SimRng::new(0x5EED ^ n ^ theta.to_bits());
            let mut rng_b = SimRng::new(0x5EED ^ n ^ theta.to_bits());
            for i in 0..100_000 {
                let a = fast.sample(&mut rng_a);
                let b = slow.sample(&mut rng_b);
                assert_eq!(a, b, "divergence at draw {i} (n={n}, theta={theta})");
            }
        }
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

    #[test]
    fn table_engages_only_where_it_pays() {
        // Small/hot domains are almost fully covered by single-rank
        // buckets — the table is kept and nearly every draw skips powf.
        let small = ZipfGenerator::new(1_000, 0.99);
        assert!(
            small.table_coverage() > 0.9,
            "coverage {}",
            small.table_coverage()
        );
        // At figure scale (n = 1e6, theta = 0.99) only ~45% of
        // uniform-draw space is single-rank — below MIN_TABLE_COVERAGE —
        // so the table must be discarded and draws take the plain path.
        let large = ZipfGenerator::new(1_000_000, 0.99);
        assert_eq!(large.table_coverage(), 0.0);
        // Degenerate constants (n == 2 → eta == 0) must disable the
        // table rather than risk misclassification.
        assert_eq!(ZipfGenerator::new(2, 0.5).table_coverage(), 0.0);
        assert_eq!(ZipfGenerator::new(100, 0.0).table_coverage(), 0.0);
    }
}
