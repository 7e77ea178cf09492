//! Host-speed calibration of timed end-to-end metrics.
//!
//! On a host whose CPUs are shared with other tenants the speed of the
//! same code drifts by tens of percent over minutes, far more than the
//! bounds a regression check needs. Each run therefore also times a
//! fixed kernel, unrelated to the simulator, between its reps, and
//! reports every timed end-to-end metric in *calibrated seconds*: host
//! seconds × [`NOMINAL_S`] / (median kernel time of the run), i.e. the
//! seconds the run would take on a host where the kernel takes
//! [`NOMINAL_S`]. On a 2-vCPU Xeon VM the kernel's time tracks the
//! simulator's slow-downs closely enough to halve the run-to-run spread;
//! the raw host seconds are printed beside it.

use std::time::Instant;

use crate::summary::median;

/// Kernel time defining a calibrated second: about what the kernel
/// takes on the 2-vCPU Xeon VM the bounds were set on.
pub const NOMINAL_S: f64 = 0.3;

/// Fixed work: fill a 32 MiB permutation table (page faults, streaming
/// writes like a simulator's set-up), chase it (dependent loads), then
/// mix integers (core-bound).
pub fn kernel() -> u64 {
    const N: usize = 1 << 23;
    // A full-period LCG step modulo 2^23 is a permutation of 0..N.
    let next: Vec<u32> = (0..N as u64)
        .map(|i| ((i * 0x5851_F42D + 0x7F4A_7C15) as usize & (N - 1)) as u32)
        .collect();
    let (mut i, mut acc) = (0u32, 0u64);
    for _ in 0..(1 << 21) {
        i = next[i as usize];
        acc = acc.rotate_left(5) ^ u64::from(i);
    }
    for k in 0..(1u64 << 22) {
        acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k) ^ (acc >> 29);
    }
    acc
}

/// Kernel timings of one run.
#[derive(Debug)]
pub struct Calibration {
    threads: usize,
    samples: Vec<f64>,
}

impl Calibration {
    /// Calibrates on `threads` threads at once, as many as the timed work
    /// keeps busy.
    pub fn new(threads: usize) -> Self {
        Calibration {
            threads: threads.max(1),
            samples: Vec::new(),
        }
    }

    /// Times the kernel once on every thread; records the mean.
    pub fn sample(&mut self) {
        let timed = || {
            let t = Instant::now();
            std::hint::black_box(kernel());
            t.elapsed().as_secs_f64()
        };
        let total: f64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.threads).map(|_| s.spawn(timed)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("the calibration kernel does not panic"))
                .sum()
        });
        self.samples.push(total / self.threads as f64);
    }

    /// Factor from host seconds to calibrated seconds.
    ///
    /// # Panics
    ///
    /// Panics before the first [`Calibration::sample`].
    pub fn scale(&self) -> f64 {
        NOMINAL_S / median(&self.samples)
    }

    /// One line for the human-readable output.
    pub fn describe(&self) -> String {
        format!(
            "calibration: kernel median {:.4} s over {} samples on {} thread(s); \
             timed metrics are host seconds x {:.4}",
            median(&self.samples),
            self.samples.len(),
            self.threads,
            self.scale()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn scale_is_nominal_over_median_sample() {
        let mut c = Calibration::new(2);
        c.samples = vec![0.6, 0.2, 0.3];
        assert!((c.scale() - 1.0).abs() < 1e-12);
        c.sample();
        assert_eq!(c.samples.len(), 4);
        assert!(c.describe().contains("4 samples on 2 thread(s)"));
    }
}
