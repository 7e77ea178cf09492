//! Simulated time: nanosecond-resolution instants and durations.
//!
//! All AstriFlash experiments operate between ~1 ns (on-chip events) and
//! ~100 ms (flash garbage collection), so a `u64` nanosecond counter gives
//! ample range (584 years) with no floating-point drift.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time, measured in nanoseconds from simulation
/// start.
///
/// `SimTime` is an absolute point; use [`SimDuration`] for spans.
///
/// # Example
///
/// ```
/// use astriflash_sim::{SimTime, SimDuration};
/// let t = SimTime::from_us(3) + SimDuration::from_ns(500);
/// assert_eq!(t.as_ns(), 3_500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The zero instant (simulation start).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinite" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `ns` nanoseconds from simulation start.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant `us` microseconds from simulation start.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates an instant `ms` milliseconds from simulation start.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates an instant `s` seconds from simulation start.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Microseconds since simulation start (fractional).
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds since simulation start (fractional).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// The span from `earlier` to `self`.
    ///
    /// Returns [`SimDuration::ZERO`] if `earlier` is after `self`, making
    /// it safe for slightly out-of-order bookkeeping.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span of `ns` nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a span of `us` microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a span of `ms` milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a span of `s` seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a span from fractional nanoseconds, rounding to the
    /// nearest nanosecond. Negative inputs clamp to zero.
    pub fn from_ns_f64(ns: f64) -> Self {
        SimDuration(ns.round().max(0.0) as u64)
    }

    /// The span in whole nanoseconds.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// The span in fractional microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The span in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction of spans.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Checked multiplication by an integer factor.
    pub fn checked_mul(self, factor: u64) -> Option<SimDuration> {
        self.0.checked_mul(factor).map(SimDuration)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = self.saturating_sub(rhs);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_scales() {
        assert_eq!(SimTime::from_us(1).as_ns(), 1_000);
        assert_eq!(SimTime::from_ms(1).as_ns(), 1_000_000);
        assert_eq!(SimTime::from_secs(1).as_ns(), 1_000_000_000);
        assert_eq!(SimDuration::from_us(2).as_ns(), 2_000);
        assert_eq!(SimDuration::from_ms(2).as_ns(), 2_000_000);
        assert_eq!(SimDuration::from_secs(2).as_ns(), 2_000_000_000);
    }

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_ns(100);
        let d = SimDuration::from_ns(40);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn subtraction_saturates() {
        let early = SimTime::from_ns(5);
        let late = SimTime::from_ns(10);
        assert_eq!(early - late, SimDuration::ZERO);
        assert_eq!(late.saturating_since(early).as_ns(), 5);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn duration_from_float_rounds_and_clamps() {
        assert_eq!(SimDuration::from_ns_f64(0.6).as_ns(), 1);
        assert_eq!(SimDuration::from_ns_f64(-3.0), SimDuration::ZERO);
    }

    #[test]
    fn display_is_human_scaled() {
        assert_eq!(SimDuration::from_ns(999).to_string(), "999ns");
        assert_eq!(SimDuration::from_us(1).to_string(), "1.000us");
        assert_eq!(SimDuration::from_ms(1).to_string(), "1.000ms");
        assert_eq!(SimDuration::from_secs(1).to_string(), "1.000s");
    }

    #[test]
    fn sum_and_scale() {
        let total: SimDuration = (1..=4).map(SimDuration::from_ns).sum();
        assert_eq!(total.as_ns(), 10);
        assert_eq!((SimDuration::from_ns(10) * 3).as_ns(), 30);
        assert_eq!((SimDuration::from_ns(10) / 4).as_ns(), 2);
    }

    #[test]
    fn add_saturates_at_max() {
        assert_eq!(SimTime::MAX + SimDuration::from_ns(1), SimTime::MAX);
        assert_eq!(SimDuration::MAX + SimDuration::from_ns(1), SimDuration::MAX);
    }
}
