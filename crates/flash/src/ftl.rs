//! Page-level flash translation layer.
//!
//! Logical pages are statically striped across planes (channel-first, as
//! real FTLs do for read parallelism) and dynamically mapped to physical
//! pages within their plane for out-of-place writes. The map is lazy: a
//! logical page gets a physical location the first time it is written.
//! Reads never consult it: striping alone names a page's plane, and a
//! never-written page pays the same array-read cost, matching a device
//! shipped pre-imaged with the dataset.
//!
//! The FTL also maintains the reverse mapping (block → live logical
//! pages) that garbage collection needs to migrate victims' valid data.

use crate::config::FlashConfig;
use crate::plane::PhysPage;

/// The FTL mapping state, in dense tables sized by the device geometry.
///
/// The tables share one zeroed allocation, made by
/// [`Ftl::make_tables`] or the first write, so a DRAM-only run, which
/// never writes to flash, never pays for them. Once made they are
/// resident in full: an allocator that hands out memory it has used
/// before must clear it. One allocation rather than one per table also
/// keeps a process's peak memory the same from run to run (DESIGN.md
/// §9).
#[derive(Debug, Clone)]
pub struct Ftl {
    num_planes: usize,
    blocks_per_plane: usize,
    pages_per_block: usize,
    logical_pages: usize,
    /// Empty until made; then, in order: the forward map, one
    /// entry per logical page (0 = never written, else
    /// `block * pages_per_block + page + 1` within the page's plane);
    /// the reverse index, `pages_per_block` slots per (plane, block), of
    /// which the first `live` hold the block's live logical pages; and
    /// the `live` count of each (plane, block).
    tables: Vec<u32>,
    /// Logical pages written at least once.
    mapped: usize,
}

impl Ftl {
    /// Creates an empty FTL for the geometry of `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has no planes, or more logical or physical
    /// pages per plane than a `u32` can number.
    pub fn new(cfg: &FlashConfig) -> Self {
        let num_planes = cfg.num_planes();
        assert!(num_planes > 0);
        let blocks_per_plane = cfg.blocks_per_plane() as usize;
        let pages_per_block = cfg.pages_per_block as usize;
        assert!(
            cfg.num_logical_pages() < u64::from(u32::MAX)
                && (blocks_per_plane * pages_per_block) < u32::MAX as usize,
            "flash geometry exceeds the FTL's u32 page numbers"
        );
        Ftl {
            num_planes,
            blocks_per_plane,
            pages_per_block,
            logical_pages: cfg.num_logical_pages() as usize,
            tables: Vec::new(),
            mapped: 0,
        }
    }

    /// The plane a logical page lives on (static striping).
    pub fn plane_of(&self, logical_page: u64) -> usize {
        // Stripe by low bits so sequential pages hit different planes —
        // the layout that maximizes sequential-read parallelism.
        (logical_page % self.num_planes as u64) as usize
    }

    /// Current physical location of `logical_page`, if it has been
    /// written since boot.
    ///
    /// # Panics
    ///
    /// Panics if `logical_page` is past the device's logical capacity.
    pub fn lookup(&self, logical_page: u64) -> Option<PhysPage> {
        assert!(
            logical_page < self.logical_pages as u64,
            "logical page {logical_page} past the device's capacity"
        );
        let code = self.tables.get(logical_page as usize)?.checked_sub(1)? as usize;
        Some(PhysPage {
            block: (code / self.pages_per_block) as u32,
            page: (code % self.pages_per_block) as u32,
        })
    }

    /// Makes the tables if they do not exist yet. The first write makes
    /// them anyway; a device that will be written calls this up front,
    /// so that no write allocates.
    pub fn make_tables(&mut self) {
        if self.tables.is_empty() {
            let blocks = self.num_planes * self.blocks_per_plane;
            self.tables = vec![0; self.logical_pages + blocks * (self.pages_per_block + 1)];
        }
    }

    /// Index in `tables` of the live count of `(plane, block)`, and the
    /// slots of its live pages. The tables must exist.
    fn live_slots(&self, plane: usize, block: u32) -> (usize, std::ops::Range<usize>) {
        let b = plane * self.blocks_per_plane + block as usize;
        let blocks = self.num_planes * self.blocks_per_plane;
        let count = self.logical_pages + blocks * self.pages_per_block + b;
        let start = self.logical_pages + b * self.pages_per_block;
        (count, start..start + self.tables[count] as usize)
    }

    /// Installs a new mapping after an out-of-place write; returns the
    /// old location (now invalid) if one existed. Keeps the reverse
    /// (block-contents) index in sync.
    ///
    /// # Panics
    ///
    /// Panics if `logical_page` is past the device's logical capacity,
    /// or `new_loc`'s block already holds `pages_per_block` live pages.
    pub fn remap(
        &mut self,
        logical_page: u64,
        plane: usize,
        new_loc: PhysPage,
    ) -> Option<PhysPage> {
        let old = self.lookup(logical_page);
        self.make_tables();
        let page = logical_page as u32;
        match old {
            Some(old_loc) => {
                // Take the page off its old block's list, if it is still
                // there: the last entry moves into its slot, so drains
                // see `swap_remove` order.
                let (count, slots) = self.live_slots(plane, old_loc.block);
                let live = &mut self.tables[slots];
                if let Some(pos) = live.iter().position(|&p| p == page) {
                    live[pos] = live[live.len() - 1];
                    self.tables[count] -= 1;
                }
            }
            None => self.mapped += 1,
        }
        let code = new_loc.block as usize * self.pages_per_block + new_loc.page as usize + 1;
        self.tables[logical_page as usize] = code as u32;
        let (count, slots) = self.live_slots(plane, new_loc.block);
        assert!(slots.len() < self.pages_per_block, "block over-filled");
        self.tables[slots.end] = page;
        self.tables[count] += 1;
        old
    }

    /// Moves the live logical pages of `(plane, block)` into `out`
    /// (cleared first) and empties the block's list — the pages garbage
    /// collection must migrate before erasing it.
    pub fn drain_block(&mut self, plane: usize, block: u32, out: &mut Vec<u64>) {
        out.clear();
        if self.tables.is_empty() {
            return;
        }
        let (count, slots) = self.live_slots(plane, block);
        out.extend(self.tables[slots].iter().map(|&p| u64::from(p)));
        self.tables[count] = 0;
    }

    /// Number of live logical pages recorded for `(plane, block)`.
    pub fn live_in_block(&self, plane: usize, block: u32) -> usize {
        if self.tables.is_empty() {
            return 0;
        }
        self.live_slots(plane, block).1.len()
    }

    /// Number of mapped (written-at-least-once) logical pages.
    pub fn mapped_pages(&self) -> usize {
        self.mapped
    }

    /// Number of planes.
    pub fn num_planes(&self) -> usize {
        self.num_planes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An FTL over `planes` planes of at least 4 blocks of 16 pages.
    fn ftl(planes: usize) -> Ftl {
        Ftl::new(&FlashConfig {
            capacity_bytes: 16 << 20,
            channels: planes,
            dies_per_channel: 1,
            planes_per_die: 1,
            pages_per_block: 16,
            ..FlashConfig::default()
        })
    }

    #[test]
    fn striping_is_balanced() {
        let ftl = ftl(8);
        let mut counts = [0u32; 8];
        for page in 0..8000u64 {
            counts[ftl.plane_of(page)] += 1;
        }
        assert!(counts.iter().all(|&c| c == 1000));
    }

    #[test]
    fn sequential_pages_spread_over_planes() {
        let ftl = ftl(4);
        let planes: Vec<usize> = (0..4u64).map(|p| ftl.plane_of(p)).collect();
        assert_eq!(planes, vec![0, 1, 2, 3]);
    }

    #[test]
    fn remap_returns_old_location_and_tracks_contents() {
        let mut ftl = ftl(2);
        let a = PhysPage { block: 1, page: 2 };
        let b = PhysPage { block: 3, page: 4 };
        assert_eq!(ftl.remap(7, 1, a), None);
        assert_eq!(ftl.live_in_block(1, 1), 1);
        assert_eq!(ftl.remap(7, 1, b), Some(a));
        assert_eq!(ftl.lookup(7), Some(b));
        assert_eq!(ftl.live_in_block(1, 1), 0, "old block emptied");
        assert_eq!(ftl.live_in_block(1, 3), 1);
        assert_eq!(ftl.mapped_pages(), 1);
    }

    #[test]
    fn drain_block_returns_live_pages_in_swap_remove_order() {
        let mut ftl = ftl(1);
        for i in 0..5u64 {
            ftl.remap(
                i,
                0,
                PhysPage {
                    block: 9,
                    page: i as u32,
                },
            );
        }
        // Overwrite page 1 into another block: page 4 takes its slot.
        ftl.remap(1, 0, PhysPage { block: 10, page: 0 });
        let mut live = vec![99];
        ftl.drain_block(0, 9, &mut live);
        assert_eq!(live, vec![0, 4, 2, 3]);
        assert_eq!(ftl.live_in_block(0, 9), 0);
        // The drained pages keep their (now stale) mappings until GC
        // remaps them.
        assert_eq!(ftl.lookup(0), Some(PhysPage { block: 9, page: 0 }));
    }

    #[test]
    fn unwritten_pages_unmapped_but_planed() {
        let mut ftl = ftl(3);
        assert_eq!(ftl.lookup(99), None);
        assert!(ftl.plane_of(99) < 3);
        assert_eq!(ftl.mapped_pages(), 0);
        // Before the first write the tables do not exist yet.
        assert_eq!(ftl.live_in_block(2, 3), 0);
        let mut live = vec![99];
        ftl.drain_block(2, 3, &mut live);
        assert!(live.is_empty());
    }

    #[test]
    #[should_panic(expected = "past the device's capacity")]
    fn lookup_past_capacity_panics() {
        // 16 MiB of 4 KiB pages: page 4096 is the first past the end.
        ftl(1).lookup(4096);
    }
}
