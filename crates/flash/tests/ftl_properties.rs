//! Property tests of the FTL and garbage collector: no write stream may
//! ever lose a page mapping or double-book a physical page, and the
//! dense FTL behaves exactly like its hash-map reference.

use std::collections::HashMap;

use astriflash_flash::plane::PhysPage;
use astriflash_flash::{FlashConfig, FlashDevice, Ftl, Plane};
use astriflash_sim::{SimDuration, SimTime};
use astriflash_testkit::prop_check;

fn tiny_device(seed: u64) -> FlashDevice {
    FlashDevice::new(
        FlashConfig {
            capacity_bytes: 8 << 20,
            channels: 1,
            dies_per_channel: 2,
            planes_per_die: 1,
            pages_per_block: 8,
            ..FlashConfig::default()
        },
        seed,
    )
}

/// After an arbitrary write stream (with GC churn), every written
/// logical page still has exactly one mapping, and timestamps are
/// monotone per call site.
#[test]
fn mappings_survive_gc() {
    prop_check!(cases: 32, |g| {
        let writes = g.vec(1..600, |g| g.u64_in(0..512));
        let mut dev = tiny_device(7);
        let mut now = SimTime::ZERO;
        let mut written = std::collections::HashSet::new();
        for &page in &writes {
            now += SimDuration::from_us(250);
            let done = dev.write(now, page);
            assert!(done > now);
            written.insert(page);
        }
        for &page in &written {
            assert!(
                dev.ftl().lookup(page).is_some(),
                "page {page} lost its mapping"
            );
        }
        assert_eq!(dev.ftl().mapped_pages(), written.len());
    });
}

/// Reads always complete after their issue time and never disturb the
/// mapping state.
#[test]
fn reads_are_pure() {
    prop_check!(cases: 32, |g| {
        let pages = g.vec(1..200, |g| g.u64_in(0..2048));
        let mut dev = tiny_device(9);
        // Seed some writes.
        let mut now = SimTime::ZERO;
        for p in 0..64u64 {
            now += SimDuration::from_us(300);
            dev.write(now, p);
        }
        let mapped_before = dev.ftl().mapped_pages();
        for &page in &pages {
            now += SimDuration::from_us(60);
            let done = dev.read(now, page);
            assert!(done >= now);
        }
        assert_eq!(dev.ftl().mapped_pages(), mapped_before);
        assert_eq!(dev.stats().reads, pages.len() as u64);
    });
}

/// GC-disabled devices never erase, whatever the write stream.
#[test]
fn disabled_gc_never_erases() {
    prop_check!(cases: 32, |g| {
        let writes = g.vec(1..400, |g| g.u64_in(0..256));
        let mut dev = FlashDevice::new(
            FlashConfig {
                capacity_bytes: 8 << 20,
                channels: 1,
                dies_per_channel: 2,
                planes_per_die: 1,
                pages_per_block: 8,
                ..FlashConfig::default().with_gc_enabled(false)
            },
            11,
        );
        let mut now = SimTime::ZERO;
        for &page in &writes {
            now += SimDuration::from_us(250);
            dev.write(now, page);
        }
        assert_eq!(dev.stats().gc_erases, 0);
        assert_eq!(dev.total_erases(), 0);
    });
}

/// The FTL contract as hash maps: a forward map, and per (plane, block)
/// a list of live logical pages that a remap appends to and removes from
/// with `swap_remove`. GC migrates a victim's pages in that order, so it
/// decides which of them cross into the next active block when a
/// migration fills the current one.
#[derive(Default)]
struct RefFtl {
    map: HashMap<u64, PhysPage>,
    contents: HashMap<(usize, u32), Vec<u64>>,
}

impl RefFtl {
    fn remap(&mut self, logical_page: u64, plane: usize, new_loc: PhysPage) -> Option<PhysPage> {
        let old = self.map.insert(logical_page, new_loc);
        if let Some(old_loc) = old {
            if let Some(list) = self.contents.get_mut(&(plane, old_loc.block)) {
                if let Some(pos) = list.iter().position(|&p| p == logical_page) {
                    list.swap_remove(pos);
                }
            }
        }
        self.contents
            .entry((plane, new_loc.block))
            .or_default()
            .push(logical_page);
        old
    }

    fn drain_block(&mut self, plane: usize, block: u32) -> Vec<u64> {
        self.contents.remove(&(plane, block)).unwrap_or_default()
    }

    fn live_in_block(&self, plane: usize, block: u32) -> usize {
        self.contents.get(&(plane, block)).map_or(0, Vec::len)
    }
}

/// Drains `victim` in both FTLs, checks they agree, erases it and
/// migrates its live pages to freshly allocated pages, as GC does.
fn collect(
    ftl: &mut Ftl,
    reference: &mut RefFtl,
    plane: &mut Plane,
    p: usize,
    victim: u32,
    scratch: &mut Vec<u64>,
) {
    ftl.drain_block(p, victim, scratch);
    assert_eq!(
        *scratch,
        reference.drain_block(p, victim),
        "drain order diverged"
    );
    plane.erase_block(SimTime::ZERO, victim, SimDuration::ZERO, SimDuration::ZERO);
    for &logical in scratch.iter() {
        if let Some(loc) = plane.allocate_page() {
            assert_eq!(ftl.remap(logical, p, loc), reference.remap(logical, p, loc));
        }
    }
}

/// Differential test: the dense [`Ftl`] and [`RefFtl`] see the same
/// random stream of writes and GC collections, with physical pages
/// allocated by real [`Plane`]s. Every drain yields the same pages in
/// the same order, `mapped_pages` agrees throughout, and at the end so
/// do `lookup` of every logical page and `live_in_block` and a final
/// drain of every block.
#[test]
fn dense_ftl_matches_hash_map_reference() {
    let cfg = FlashConfig {
        capacity_bytes: 1 << 20,
        channels: 1,
        dies_per_channel: 2,
        planes_per_die: 1,
        pages_per_block: 8,
        ..FlashConfig::default()
    };
    let logical_pages = cfg.num_logical_pages();
    let blocks = cfg.blocks_per_plane() as u32;
    prop_check!(cases: 64, |g| {
        let mut ftl = Ftl::new(&cfg);
        let mut reference = RefFtl::default();
        let mut planes: Vec<Plane> = (0..cfg.num_planes())
            .map(|_| Plane::new(cfg.blocks_per_plane(), cfg.pages_per_block))
            .collect();
        let mut scratch = Vec::new();
        // Hot pages get rewritten often, so blocks hold a mix of live and
        // dead pages when they are collected.
        let hot = g.u64_in(4..logical_pages);
        for _ in 0..g.usize_in(1..1_500) {
            match g.usize_in(0..10) {
                0..=6 => {
                    let logical = g.u64_in(0..hot);
                    let p = ftl.plane_of(logical);
                    // A full plane collects a victim first, as GC would.
                    let mut loc = planes[p].allocate_page();
                    if loc.is_none() {
                        if let Some((victim, _)) = planes[p].pick_victim() {
                            let plane = &mut planes[p];
                            collect(&mut ftl, &mut reference, plane, p, victim, &mut scratch);
                            loc = plane.allocate_page();
                        }
                    }
                    let Some(loc) = loc else {
                        continue;
                    };
                    let old = ftl.remap(logical, p, loc);
                    assert_eq!(old, reference.remap(logical, p, loc));
                    if let Some(old) = old {
                        planes[p].invalidate(old);
                    }
                }
                _ => {
                    let p = g.usize_in(0..planes.len());
                    if let Some((victim, _)) = planes[p].pick_victim() {
                        let plane = &mut planes[p];
                        collect(&mut ftl, &mut reference, plane, p, victim, &mut scratch);
                    }
                }
            }
            assert_eq!(ftl.mapped_pages(), reference.map.len());
        }
        for logical in 0..logical_pages {
            assert_eq!(ftl.lookup(logical), reference.map.get(&logical).copied());
        }
        for p in 0..planes.len() {
            for block in 0..blocks {
                assert_eq!(ftl.live_in_block(p, block), reference.live_in_block(p, block));
                ftl.drain_block(p, block, &mut scratch);
                assert_eq!(scratch, reference.drain_block(p, block));
            }
        }
    });
}
