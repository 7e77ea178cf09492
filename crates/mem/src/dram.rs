//! DRAM device timing: banks, open rows, RAS/CAS command latencies.
//!
//! The frontside controller extends a conventional DRAM controller
//! (§IV-B1); this module provides that substrate. Rows map 1:1 to
//! DRAM-cache sets, so opening a row is the first step of every probe.

use astriflash_sim::{SimDuration, SimTime};

/// DDR-class command latencies (DDR4-3200 flavor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTimings {
    /// Row activate (tRCD) in nanoseconds.
    pub t_activate_ns: u64,
    /// Column access (tCAS/tCL) in nanoseconds.
    pub t_cas_ns: u64,
    /// Precharge before activating a different row (tRP), nanoseconds.
    pub t_precharge_ns: u64,
    /// 64 B burst transfer time, nanoseconds.
    pub t_burst_ns: u64,
}

impl Default for DramTimings {
    fn default() -> Self {
        DramTimings {
            t_activate_ns: 14,
            t_cas_ns: 14,
            t_precharge_ns: 14,
            t_burst_ns: 4,
        }
    }
}

/// A group of DRAM banks with open-row tracking and per-bank busy
/// horizons (FR-FCFS approximation: requests to an open row skip the
/// activate).
#[derive(Debug, Clone)]
pub struct DramBanks {
    timings: DramTimings,
    busy_until: Vec<SimTime>,
    open_row: Vec<Option<u64>>,
}

impl DramBanks {
    /// Creates `banks` independent banks.
    ///
    /// # Panics
    ///
    /// Panics if `banks == 0`.
    pub fn new(banks: usize, timings: DramTimings) -> Self {
        assert!(banks > 0);
        DramBanks {
            timings,
            busy_until: vec![SimTime::ZERO; banks],
            open_row: vec![None; banks],
        }
    }

    /// Number of banks.
    fn num_banks(&self) -> usize {
        self.busy_until.len()
    }

    /// The bank servicing `row`.
    fn bank_of(&self, row: u64) -> usize {
        (row % self.num_banks() as u64) as usize
    }

    /// Opens `row` (if needed) and performs `cas_ops` column accesses of
    /// one burst each, starting no earlier than `now`. Returns the
    /// completion time.
    pub fn access_row(&mut self, now: SimTime, row: u64, cas_ops: u32) -> SimTime {
        let t = self.timings;
        self.open_and_occupy(now, row, (t.t_cas_ns + t.t_burst_ns) * cas_ops as u64)
    }

    /// Streaming access: opens `row` (if needed), pays one CAS, then
    /// pipelines `bursts` back-to-back 64 B bursts — the cost model for
    /// reading or writing a whole 4 KiB page within one open row.
    pub fn access_row_stream(&mut self, now: SimTime, row: u64, bursts: u32) -> SimTime {
        let t = self.timings;
        self.open_and_occupy(now, row, t.t_cas_ns + t.t_burst_ns * bursts as u64)
    }

    /// The open-row step both accesses share: starting no earlier than
    /// `now` and the bank's last command, opens `row` (an open row skips
    /// the activate; a different one pays the precharge too), then
    /// holds the bank for `column_ns`. Returns the completion time.
    fn open_and_occupy(&mut self, now: SimTime, row: u64, column_ns: u64) -> SimTime {
        let bank = self.bank_of(row);
        let t = self.timings;
        let open_ns = match self.open_row[bank] {
            Some(open) if open == row => 0,
            Some(_) => t.t_precharge_ns + t.t_activate_ns,
            None => t.t_activate_ns,
        };
        self.open_row[bank] = Some(row);
        let start = self.busy_until[bank].max(now);
        self.busy_until[bank] = start + SimDuration::from_ns(open_ns + column_ns);
        self.busy_until[bank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_access_pays_activate() {
        let mut b = DramBanks::new(4, DramTimings::default());
        let done = b.access_row(SimTime::ZERO, 0, 1);
        // activate + cas + burst = 14 + 14 + 4.
        assert_eq!(done.as_ns(), 32);
    }

    #[test]
    fn open_row_skips_activate() {
        let mut b = DramBanks::new(4, DramTimings::default());
        let first = b.access_row(SimTime::ZERO, 0, 1);
        let second = b.access_row(first, 0, 1);
        assert_eq!((second - first).as_ns(), 18, "cas + burst only");
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut b = DramBanks::new(4, DramTimings::default());
        let first = b.access_row(SimTime::ZERO, 0, 1);
        let banks = b.num_banks() as u64;
        let second = b.access_row(first, banks, 1); // same bank, new row
        assert_eq!((second - first).as_ns(), 14 + 14 + 14 + 4);
    }

    #[test]
    fn banks_are_independent() {
        let mut b = DramBanks::new(2, DramTimings::default());
        let a = b.access_row(SimTime::ZERO, 0, 1);
        let c = b.access_row(SimTime::ZERO, 1, 1); // other bank
        assert_eq!(a, c, "parallel banks should not serialize");
        let d = b.access_row(SimTime::ZERO, 2, 1); // bank 0 again
        assert!(d > a);
    }

    #[test]
    fn multi_cas_scales_linearly() {
        let mut b = DramBanks::new(1, DramTimings::default());
        let done = b.access_row(SimTime::ZERO, 0, 3);
        assert_eq!(done.as_ns(), 14 + 3 * 18);
    }
}
