//! Shared-link bandwidth modeling.
//!
//! The PCIe link between the backside controller and flash, and the flash
//! channels themselves, are serial resources: transfers queue behind each
//! other. `BandwidthLink` computes when a transfer of a given size
//! completes given everything already scheduled on the link.

use crate::time::{SimDuration, SimTime};

/// A serial link with fixed bytes-per-second capacity.
///
/// Transfers are serviced in request order; a request issued at time `t`
/// begins at `max(t, busy_until)` and occupies the link for
/// `size / bandwidth`.
///
/// # Example
///
/// ```
/// use astriflash_sim::{BandwidthLink, SimTime};
/// // 1 GB/s link: a 4 KiB transfer takes 4096 ns.
/// let mut link = BandwidthLink::new(1_000_000_000);
/// let done = link.transfer(SimTime::ZERO, 4096);
/// assert_eq!(done.as_ns(), 4096);
/// let done2 = link.transfer(SimTime::ZERO, 4096); // queues behind
/// assert_eq!(done2.as_ns(), 8192);
/// ```
#[derive(Debug, Clone)]
pub struct BandwidthLink {
    bytes_per_sec: u64,
    busy_until: SimTime,
    bytes_moved: u64,
}

impl BandwidthLink {
    /// Creates a link with the given capacity in bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec == 0`.
    pub fn new(bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "link bandwidth must be positive");
        BandwidthLink {
            bytes_per_sec,
            busy_until: SimTime::ZERO,
            bytes_moved: 0,
        }
    }

    /// Duration a transfer of `bytes` occupies the link.
    pub fn service_time(&self, bytes: u64) -> SimDuration {
        // ns = bytes * 1e9 / Bps, computed in u128 to avoid overflow.
        let ns = (bytes as u128 * 1_000_000_000) / self.bytes_per_sec as u128;
        SimDuration::from_ns(ns.max(1) as u64)
    }

    /// Schedules a transfer requested at `now`; returns its completion time.
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = self.busy_until.max(now);
        let dur = self.service_time(bytes);
        self.busy_until = start + dur;
        self.bytes_moved += bytes;
        self.busy_until
    }

    /// Time at which the link next becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Total bytes moved over the link.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_time_scales_with_size() {
        let link = BandwidthLink::new(2_000_000_000); // 2 GB/s
        assert_eq!(link.service_time(4096).as_ns(), 2048);
        assert_eq!(link.service_time(8192).as_ns(), 4096);
    }

    #[test]
    fn transfers_serialize() {
        let mut link = BandwidthLink::new(1_000_000_000);
        let a = link.transfer(SimTime::ZERO, 1000);
        let b = link.transfer(SimTime::ZERO, 1000);
        assert_eq!(a.as_ns(), 1000);
        assert_eq!(b.as_ns(), 2000);
    }

    #[test]
    fn idle_gap_is_not_charged() {
        let mut link = BandwidthLink::new(1_000_000_000);
        link.transfer(SimTime::ZERO, 1000);
        // Request long after the link went idle.
        let done = link.transfer(SimTime::from_us(10), 1000);
        assert_eq!(done.as_ns(), 11_000);
    }

    #[test]
    fn tiny_transfer_takes_at_least_one_ns() {
        let link = BandwidthLink::new(u64::MAX / 2);
        assert_eq!(link.service_time(1).as_ns(), 1);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        BandwidthLink::new(0);
    }
}
