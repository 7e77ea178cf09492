//! The in-DRAM Miss Status Row (§IV-B2).
//!
//! On-chip MSHRs are CAM-based and top out at tens of entries; with 50 µs
//! flash refills the DRAM cache needs *hundreds* of outstanding misses.
//! AstriFlash stores miss-handling entries in a specialized DRAM row,
//! organized set-associatively so one CAS retrieves a candidate set. The
//! backside controller checks it on every miss to deduplicate in-flight
//! flash reads, and removes the entry when the page arrives. An entry is
//! the one record of its read: the waiters, the blocks fetched and the
//! trace span of the miss that issued it.

/// A core/thread pair waiting on a missing page. The hardware notifies
/// waiters through queue pairs (§IV-D2); the simulator keeps them inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Waiter {
    /// Requesting core.
    pub core: u32,
    /// Requesting user-level thread on that core.
    pub thread: u32,
}

/// Outcome of an MSR admission check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsrAdmission {
    /// A flash read for this page is already in flight; the waiter was
    /// appended, no new read must be issued.
    Duplicate,
    /// A new entry was allocated; the caller must issue the flash read.
    Inserted,
    /// The entry's set is full; the request must wait for completions
    /// (§IV-B2: "BC waits for pending flash requests to finish").
    Full,
}

#[derive(Debug)]
struct Entry {
    page: u64,
    /// Blocks the flash read fetches (`u64::MAX` for the whole page).
    fetch: u64,
    /// Trace span of the miss that issued the read (0 = none).
    span: u64,
    waiters: Vec<Waiter>,
}

/// The Miss Status Row: a set-associative table of outstanding misses.
#[derive(Debug)]
pub struct MissStatusRow {
    sets: Vec<Vec<Entry>>,
    ways: usize,
    occupancy: usize,
    max_occupancy: usize,
    /// Recycled waiter vectors: completed entries return their (cleared)
    /// allocation here so steady-state admission never allocates.
    waiter_pool: Vec<Vec<Waiter>>,
}

impl MissStatusRow {
    /// Creates an MSR with `sets × ways` total entries.
    ///
    /// The paper's MSR is one 8 KiB DRAM row of 8 B entries = 1024
    /// entries; the default composer uses 64 sets × 8 ways = 512.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0);
        MissStatusRow {
            sets: (0..sets).map(|_| Vec::with_capacity(ways)).collect(),
            ways,
            occupancy: 0,
            max_occupancy: 0,
            waiter_pool: Vec::new(),
        }
    }

    fn set_of(&self, page: u64) -> usize {
        (page % self.sets.len() as u64) as usize
    }

    /// Admits a miss for `page` from `waiter`. A new entry records the
    /// `fetch` bitmap of its flash read and the issuing `span`; a
    /// duplicate only joins the waiters of the entry it finds.
    pub fn admit(&mut self, page: u64, waiter: Waiter, fetch: u64, span: u64) -> MsrAdmission {
        let set_idx = self.set_of(page);
        let ways = self.ways;
        let set = &mut self.sets[set_idx];
        if let Some(e) = set.iter_mut().find(|e| e.page == page) {
            e.waiters.push(waiter);
            return MsrAdmission::Duplicate;
        }
        if set.len() >= ways {
            return MsrAdmission::Full;
        }
        let mut waiters = self.waiter_pool.pop().unwrap_or_default();
        waiters.push(waiter);
        set.push(Entry {
            page,
            fetch,
            span,
            waiters,
        });
        self.occupancy += 1;
        self.max_occupancy = self.max_occupancy.max(self.occupancy);
        MsrAdmission::Inserted
    }

    /// Completes the miss for `page` without allocating: appends its
    /// waiters to `out` and recycles the entry's waiter vector for future
    /// admissions. Returns the entry's `(fetch, span)`; a page with no
    /// entry appends nothing and returns `(u64::MAX, 0)`.
    pub fn complete_into(&mut self, page: u64, out: &mut Vec<Waiter>) -> (u64, u64) {
        let set_idx = self.set_of(page);
        let set = &mut self.sets[set_idx];
        let Some(pos) = set.iter().position(|e| e.page == page) else {
            return (u64::MAX, 0);
        };
        self.occupancy -= 1;
        let mut entry = set.swap_remove(pos);
        out.extend_from_slice(&entry.waiters);
        entry.waiters.clear();
        self.waiter_pool.push(entry.waiters);
        (entry.fetch, entry.span)
    }

    /// Outstanding misses.
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// High-water mark of outstanding misses.
    pub fn max_occupancy(&self) -> usize {
        self.max_occupancy
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> usize {
        self.sets.len() * self.ways
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W0: Waiter = Waiter { core: 0, thread: 0 };
    const W1: Waiter = Waiter { core: 1, thread: 5 };
    const ALL: u64 = u64::MAX;

    #[test]
    fn insert_then_duplicate_then_complete() {
        let mut msr = MissStatusRow::new(4, 2);
        assert_eq!(msr.admit(10, W0, ALL, 0), MsrAdmission::Inserted);
        // Page 10 is pending: a second miss to it coalesces.
        assert_eq!(msr.admit(10, W1, ALL, 0), MsrAdmission::Duplicate);
        assert_eq!(msr.occupancy(), 1);
        let mut waiters = Vec::new();
        msr.complete_into(10, &mut waiters);
        assert_eq!(waiters, vec![W0, W1]);
        assert_eq!(msr.occupancy(), 0);
        // Completion ended it: the next miss to page 10 is a new entry.
        assert_eq!(msr.admit(10, W1, ALL, 0), MsrAdmission::Inserted);
    }

    #[test]
    fn set_full_rejects() {
        let mut msr = MissStatusRow::new(2, 1);
        // Pages 0 and 2 map to set 0 (mod 2).
        assert_eq!(msr.admit(0, W0, ALL, 0), MsrAdmission::Inserted);
        assert_eq!(msr.admit(2, W0, ALL, 0), MsrAdmission::Full);
        // Other set unaffected.
        assert_eq!(msr.admit(1, W0, ALL, 0), MsrAdmission::Inserted);
        // Completion frees the way.
        msr.complete_into(0, &mut Vec::new());
        assert_eq!(msr.admit(2, W0, ALL, 0), MsrAdmission::Inserted);
    }

    #[test]
    fn complete_unknown_page_is_empty() {
        let mut msr = MissStatusRow::new(2, 2);
        let mut out = Vec::new();
        assert_eq!(msr.complete_into(99, &mut out), (u64::MAX, 0));
        assert!(out.is_empty());
    }

    #[test]
    fn entry_keeps_the_first_admitters_fetch_and_span() {
        let mut msr = MissStatusRow::new(4, 2);
        assert_eq!(msr.admit(10, W0, 0b1010, 7), MsrAdmission::Inserted);
        // A duplicate joins the waiters and leaves the read's record.
        assert_eq!(msr.admit(10, W1, ALL, 9), MsrAdmission::Duplicate);
        assert_eq!(msr.admit(11, W1, 0b1, 0), MsrAdmission::Inserted);
        let mut out = Vec::new();
        assert_eq!(msr.complete_into(10, &mut out), (0b1010, 7));
        assert_eq!(out, vec![W0, W1]);
        assert_eq!(msr.complete_into(11, &mut out), (0b1, 0));
        // The entry is gone: completing it again finds nothing.
        assert_eq!(msr.complete_into(10, &mut out), (u64::MAX, 0));
    }

    #[test]
    fn complete_into_appends_and_recycles() {
        let mut msr = MissStatusRow::new(4, 2);
        msr.admit(10, W0, ALL, 0);
        msr.admit(10, W1, ALL, 0);
        msr.admit(11, W1, ALL, 0);
        let mut out = vec![W1]; // pre-existing contents must survive
        msr.complete_into(10, &mut out);
        assert_eq!(out, vec![W1, W0, W1]);
        out.clear();
        msr.complete_into(99, &mut out);
        assert!(out.is_empty(), "unknown page appends nothing");
        // The recycled vector serves the next admission without
        // carrying stale waiters.
        assert_eq!(msr.admit(20, W0, ALL, 0), MsrAdmission::Inserted);
        msr.complete_into(20, &mut out);
        assert_eq!(out, vec![W0]);
    }

    #[test]
    fn tracks_hundreds_of_concurrent_misses() {
        // The paper's point: MSR capacity far exceeds SRAM MSHRs.
        let mut msr = MissStatusRow::new(64, 8);
        assert_eq!(msr.capacity(), 512);
        let mut inserted = 0;
        for page in 0..512u64 {
            if msr.admit(page, W0, ALL, 0) == MsrAdmission::Inserted {
                inserted += 1;
            }
        }
        assert_eq!(inserted, 512, "uniform pages fill every set");
        assert_eq!(msr.max_occupancy(), 512);
    }
}
