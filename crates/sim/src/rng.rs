//! Deterministic random-number generation for simulations.
//!
//! Every experiment takes a single `u64` seed; identical seeds must
//! reproduce identical event streams across runs and platforms. We use
//! xoshiro256++ seeded through SplitMix64 — both are tiny, fast, and have
//! well-studied statistical quality — rather than pulling in an external
//! RNG whose stream might change between versions.

/// SplitMix64 step, used for seeding and cheap hashing of identifiers.
///
/// # Example
///
/// ```
/// use astriflash_sim::rng::splitmix64;
/// let mut state = 42;
/// let a = splitmix64(&mut state);
/// let b = splitmix64(&mut state);
/// assert_ne!(a, b);
/// ```
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ generator.
///
/// # Example
///
/// ```
/// use astriflash_sim::SimRng;
/// let mut a = SimRng::new(7);
/// let mut b = SimRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a seed. Any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro256++ requires a non-zero state; splitmix64 output of four
        // consecutive words is never all-zero, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        SimRng { s }
    }

    /// Derives an independent child stream, e.g. one per core or device.
    ///
    /// Children of the same parent with different `stream` values produce
    /// decorrelated sequences.
    pub fn fork(&self, stream: u64) -> SimRng {
        let mut sm = self.s[0] ^ self.s[3] ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        SimRng { s }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Lemire's nearly-divisionless bounded generation.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        // 53 high bits -> [0, 1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `(0, 1]`, safe as input to `ln()`.
    pub fn gen_f64_open(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Exponentially distributed value with the given mean.
    ///
    /// Used for Poisson inter-arrival times and memoryless service draws.
    pub fn gen_exp(&mut self, mean: f64) -> f64 {
        debug_assert!(mean >= 0.0);
        -mean * self.gen_f64_open().ln()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::new(123);
        let mut b = SimRng::new(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn forked_streams_are_decorrelated() {
        let parent = SimRng::new(99);
        let mut c0 = parent.fork(0);
        let mut c1 = parent.fork(1);
        let same = (0..64).filter(|_| c0.next_u64() == c1.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn gen_range_is_in_bounds_and_covers() {
        let mut rng = SimRng::new(7);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            let v = rng.gen_range(8);
            assert!(v < 8);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn gen_range_zero_panics() {
        SimRng::new(0).gen_range(0);
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = SimRng::new(42);
        for _ in 0..10_000 {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v));
            let o = rng.gen_f64_open();
            assert!(o > 0.0 && o <= 1.0);
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::new(5);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| rng.gen_exp(10.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 10.0).abs() < 0.2, "mean was {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::new(11);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle of 100 elements left them sorted");
    }

    #[test]
    fn bernoulli_frequency() {
        let mut rng = SimRng::new(8);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let freq = hits as f64 / 100_000.0;
        assert!((freq - 0.3).abs() < 0.01, "freq was {freq}");
    }
}
