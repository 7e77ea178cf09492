//! Request arrival processes.
//!
//! The paper measures tail latency under a Poisson (bursty) open-loop
//! arrival process, sweeping mean inter-arrival time (§VI-C). Closed-loop
//! saturation (a full job queue) is used for throughput (§V-A).

use astriflash_sim::{SimDuration, SimRng, SimTime};

/// An open-loop Poisson arrival process.
///
/// # Example
///
/// ```
/// use astriflash_sim::{SimRng, SimTime};
/// use astriflash_workloads::PoissonArrivals;
///
/// let mut arrivals = PoissonArrivals::new(10_000.0); // mean 10 us
/// let mut rng = SimRng::new(1);
/// let t1 = arrivals.next_arrival(&mut rng);
/// let t2 = arrivals.next_arrival(&mut rng);
/// assert!(t2 > t1);
/// ```
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    mean_interarrival_ns: f64,
    next_at: SimTime,
    generated: u64,
}

impl PoissonArrivals {
    /// Creates a process with the given mean inter-arrival time in ns.
    ///
    /// # Panics
    ///
    /// Panics if the mean is not positive and finite.
    pub fn new(mean_interarrival_ns: f64) -> Self {
        assert!(
            mean_interarrival_ns > 0.0 && mean_interarrival_ns.is_finite(),
            "mean inter-arrival must be positive"
        );
        PoissonArrivals {
            mean_interarrival_ns,
            next_at: SimTime::ZERO,
            generated: 0,
        }
    }

    /// Mean inter-arrival time in nanoseconds.
    pub fn mean_interarrival_ns(&self) -> f64 {
        self.mean_interarrival_ns
    }

    /// Draws the next arrival instant (strictly non-decreasing).
    pub fn next_arrival(&mut self, rng: &mut SimRng) -> SimTime {
        let gap = rng.gen_exp(self.mean_interarrival_ns);
        self.next_at += SimDuration::from_ns_f64(gap);
        self.generated += 1;
        self.next_at
    }

    /// Number of arrivals generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_monotone() {
        let mut p = PoissonArrivals::new(1000.0);
        let mut rng = SimRng::new(9);
        let mut last = SimTime::ZERO;
        for _ in 0..1000 {
            let t = p.next_arrival(&mut rng);
            assert!(t >= last);
            last = t;
        }
        assert_eq!(p.generated(), 1000);
    }

    #[test]
    fn mean_rate_is_respected() {
        let mut p = PoissonArrivals::new(5_000.0);
        let mut rng = SimRng::new(10);
        let n = 100_000;
        let mut last = SimTime::ZERO;
        for _ in 0..n {
            last = p.next_arrival(&mut rng);
        }
        let mean = last.as_ns() as f64 / n as f64;
        assert!((mean - 5_000.0).abs() / 5_000.0 < 0.02, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mean_rejected() {
        PoissonArrivals::new(0.0);
    }
}
