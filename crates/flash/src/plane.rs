//! A flash plane: the unit of operation-level parallelism.
//!
//! Each plane executes one array operation (read / program / erase) at a
//! time; requests queue behind its `busy_until` horizon. Blocks within
//! the plane track valid-page counts and wear for garbage collection.

use astriflash_sim::{SimDuration, SimTime};

/// Physical location of a page inside a plane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct PhysPage {
    /// Block index within the plane.
    pub block: u32,
    /// Page index within the block.
    pub page: u32,
}

#[derive(Debug, Clone)]
struct Block {
    valid_pages: u32,
    written_pages: u32,
    erase_count: u32,
}

/// One flash plane with its blocks and availability horizons.
///
/// Reads and writes occupy *separate* horizons: modern flash suspends
/// programs for reads, and the paper de-prioritizes writebacks against
/// reads (§IV-B2). Only garbage-collection erase windows block reads
/// (§VI-D) — the `gc_until` horizon.
#[derive(Debug, Clone)]
pub struct Plane {
    blocks: Vec<Block>,
    pages_per_block: u32,
    /// The block currently receiving writes.
    active_block: u32,
    /// Blocks fully invalid and erased, ready for writes.
    free_blocks: Vec<u32>,
    read_busy_until: SimTime,
    write_busy_until: SimTime,
    /// Set while a GC erase occupies the plane; reads arriving inside
    /// the window wait for it.
    gc_until: SimTime,
    erases: u64,
}

impl Plane {
    /// Creates a plane with `num_blocks` erased blocks.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 blocks (GC needs a spare).
    pub fn new(num_blocks: u64, pages_per_block: u64) -> Self {
        assert!(num_blocks >= 2, "a plane needs at least 2 blocks");
        let blocks = vec![
            Block {
                valid_pages: 0,
                written_pages: 0,
                erase_count: 0,
            };
            num_blocks as usize
        ];
        Plane {
            blocks,
            pages_per_block: pages_per_block as u32,
            active_block: 0,
            free_blocks: (1..num_blocks as u32).rev().collect(),
            read_busy_until: SimTime::ZERO,
            write_busy_until: SimTime::ZERO,
            gc_until: SimTime::ZERO,
            erases: 0,
        }
    }

    /// When the plane's read path is next idle (GC included).
    pub fn read_ready_at(&self) -> SimTime {
        self.read_busy_until.max(self.gc_until)
    }

    /// Whether a request arriving at `now` would wait behind an
    /// in-progress garbage collection.
    pub fn blocked_by_gc(&self, now: SimTime) -> bool {
        now < self.gc_until
    }

    /// Occupies the read path for `dur` starting no earlier than `now`
    /// (reads also wait out any active GC erase); returns the completion
    /// time.
    pub fn occupy_read(&mut self, now: SimTime, dur: SimDuration) -> SimTime {
        let start = self.read_ready_at().max(now);
        self.read_busy_until = start + dur;
        self.read_busy_until
    }

    /// Occupies the write path for `dur` starting no earlier than `now`;
    /// returns the completion time. Programs and erases never delay
    /// reads (program suspension / write de-prioritization, §IV-B2).
    pub fn occupy_write(&mut self, now: SimTime, dur: SimDuration) -> SimTime {
        let start = self.write_busy_until.max(now);
        self.write_busy_until = start + dur;
        self.write_busy_until
    }

    /// Allocates the next free page for an out-of-place write. Returns
    /// `None` when the active block is full and no free block remains
    /// (caller must GC first).
    pub fn allocate_page(&mut self) -> Option<PhysPage> {
        if self.blocks[self.active_block as usize].written_pages >= self.pages_per_block {
            let next = self.free_blocks.pop()?;
            self.active_block = next;
        }
        let b = &mut self.blocks[self.active_block as usize];
        let page = b.written_pages;
        b.written_pages += 1;
        b.valid_pages += 1;
        Some(PhysPage {
            block: self.active_block,
            page,
        })
    }

    /// Marks a previously written page invalid (it was overwritten).
    pub fn invalidate(&mut self, loc: PhysPage) {
        let b = &mut self.blocks[loc.block as usize];
        debug_assert!(b.valid_pages > 0, "invalidating page in empty block");
        b.valid_pages = b.valid_pages.saturating_sub(1);
    }

    /// Number of free (erased, unwritten) blocks.
    pub fn free_block_count(&self) -> usize {
        self.free_blocks.len()
    }

    /// Total blocks in the plane.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Erase count across all blocks (wear).
    pub fn total_erases(&self) -> u64 {
        self.erases
    }

    /// Picks the GC victim: the fullest-written block with the fewest
    /// valid pages (greedy policy), excluding the active block. Returns
    /// `(block, valid_pages)` or `None` if nothing is reclaimable.
    pub fn pick_victim(&self) -> Option<(u32, u32)> {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(i, b)| {
                *i as u32 != self.active_block
                    && b.written_pages == self.pages_per_block
            })
            .min_by_key(|(_, b)| b.valid_pages)
            .map(|(i, b)| (i as u32, b.valid_pages))
    }

    /// Erases `block` at `now`, occupying the plane for
    /// `erase_dur + migrate_dur` and marking the window as GC so blocked
    /// reads can be attributed. The block returns to the free list.
    ///
    /// Returns the completion time.
    ///
    /// # Panics
    ///
    /// Panics if `block` is the active block.
    pub fn erase_block(
        &mut self,
        now: SimTime,
        block: u32,
        erase_dur: SimDuration,
        migrate_dur: SimDuration,
    ) -> SimTime {
        assert_ne!(block, self.active_block, "cannot erase the active block");
        let done = self.occupy_write(now, erase_dur + migrate_dur);
        self.gc_until = self.gc_until.max(done);
        let b = &mut self.blocks[block as usize];
        b.valid_pages = 0;
        b.written_pages = 0;
        b.erase_count += 1;
        self.erases += 1;
        self.free_blocks.push(block);
        done
    }

    /// Valid pages currently in `block` (for GC migration cost).
    pub fn valid_pages(&self, block: u32) -> u32 {
        self.blocks[block as usize].valid_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane() -> Plane {
        Plane::new(4, 8)
    }

    #[test]
    fn allocation_fills_blocks_in_order() {
        let mut p = plane();
        for i in 0..8 {
            let loc = p.allocate_page().unwrap();
            assert_eq!(loc, PhysPage { block: 0, page: i });
        }
        // Block 0 full; next allocation moves to a free block.
        let loc = p.allocate_page().unwrap();
        assert_eq!(loc.page, 0);
        assert_ne!(loc.block, 0);
        assert_eq!(p.free_block_count(), 2);
    }

    #[test]
    fn allocation_exhausts_without_gc() {
        let mut p = plane();
        let total = 4 * 8;
        let mut got = 0;
        while p.allocate_page().is_some() {
            got += 1;
        }
        assert_eq!(got, total);
    }

    #[test]
    fn read_occupancy_serializes() {
        let mut p = plane();
        let a = p.occupy_read(SimTime::ZERO, SimDuration::from_us(10));
        let b = p.occupy_read(SimTime::ZERO, SimDuration::from_us(10));
        assert_eq!(a, SimTime::from_us(10));
        assert_eq!(b, SimTime::from_us(20));
    }

    #[test]
    fn writes_do_not_delay_reads() {
        let mut p = plane();
        p.occupy_write(SimTime::ZERO, SimDuration::from_us(200));
        let r = p.occupy_read(SimTime::ZERO, SimDuration::from_us(40));
        assert_eq!(r, SimTime::from_us(40), "program must not block reads");
        // But GC erases do. Fill block 0 and step the active block past
        // it so it becomes a legal victim.
        for _ in 0..9 {
            p.allocate_page().unwrap();
        }
        let done = p.erase_block(
            SimTime::from_us(50),
            0,
            SimDuration::from_ms(2),
            SimDuration::ZERO,
        );
        let r2 = p.occupy_read(SimTime::from_us(60), SimDuration::from_us(40));
        assert!(r2 >= done, "reads wait out the GC window");
    }

    #[test]
    fn victim_is_fewest_valid_full_block() {
        let mut p = plane();
        // Fill blocks 0 and (next active) with pages, invalidate more in
        // the first.
        let mut first_block_pages = Vec::new();
        for _ in 0..8 {
            first_block_pages.push(p.allocate_page().unwrap());
        }
        for _ in 0..8 {
            p.allocate_page().unwrap();
        }
        for loc in &first_block_pages[..6] {
            p.invalidate(*loc);
        }
        let (victim, valid) = p.pick_victim().expect("block 0 is full");
        assert_eq!(victim, 0);
        assert_eq!(valid, 2);
    }

    #[test]
    fn erase_reclaims_and_marks_gc() {
        let mut p = plane();
        for _ in 0..8 {
            p.allocate_page().unwrap();
        }
        for _ in 0..8 {
            p.allocate_page().unwrap();
        }
        let free_before = p.free_block_count();
        let done = p.erase_block(
            SimTime::ZERO,
            0,
            SimDuration::from_ms(2),
            SimDuration::from_us(100),
        );
        assert_eq!(p.free_block_count(), free_before + 1);
        assert!(p.blocked_by_gc(SimTime::from_us(50)));
        assert!(!p.blocked_by_gc(done));
        assert_eq!(p.total_erases(), 1);
        assert_eq!(p.valid_pages(0), 0);
    }

    #[test]
    #[should_panic(expected = "active block")]
    fn erasing_active_block_panics() {
        let mut p = plane();
        p.allocate_page().unwrap();
        p.erase_block(
            SimTime::ZERO,
            0,
            SimDuration::from_ms(2),
            SimDuration::ZERO,
        );
    }
}
