//! Differential property tests proving the flat struct-of-arrays
//! [`SramCache`] is decision-identical to a naive `Vec<Vec<Line>>`
//! tick-LRU model ([`RefSramCache`]) — hits, dirty writebacks, and
//! victim addresses all equal over randomized access/eviction/
//! invalidation sequences. This is the contract that keeps every golden
//! figure byte-identical across the memory-path flattening.

use astriflash_mem::{AccessResult, SramCache};
use astriflash_testkit::prop_check;

const BLOCK_SHIFT: u32 = 6; // 64 B blocks

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    dirty: bool,
    lru: u64,
}

/// True LRU over an ever-growing per-access tick, one `Vec` per set:
/// the cache as it was before the flattening (DESIGN.md §10).
struct RefSramCache {
    sets: Vec<Vec<Line>>,
    ways: usize,
    set_mask: u64,
    tick: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl RefSramCache {
    /// The same geometry rule as `SramCache::new`: the largest
    /// power-of-two set count that fits `capacity_bytes`.
    fn new(capacity_bytes: u64, ways: usize) -> Self {
        let blocks = capacity_bytes >> BLOCK_SHIFT;
        let mut num_sets = (blocks / ways as u64).next_power_of_two();
        if num_sets * ways as u64 > blocks {
            num_sets /= 2;
        }
        let num_sets = num_sets.max(1);
        RefSramCache {
            sets: vec![Vec::new(); num_sets as usize],
            ways,
            set_mask: num_sets - 1,
            tick: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    fn index_tag(&self, addr: u64) -> (usize, u64) {
        let block = addr >> BLOCK_SHIFT;
        ((block & self.set_mask) as usize, block)
    }

    fn access(&mut self, addr: u64, is_write: bool) -> AccessResult {
        self.tick += 1;
        let (idx, tag) = self.index_tag(addr);
        let set = &mut self.sets[idx];
        if let Some(line) = set.iter_mut().find(|l| l.tag == tag) {
            line.lru = self.tick;
            line.dirty |= is_write;
            self.hits += 1;
            return AccessResult::Hit;
        }
        self.misses += 1;
        let mut evicted_dirty = None;
        if set.len() >= self.ways {
            let (pos, _) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .expect("full set");
            let victim = set.swap_remove(pos);
            if victim.dirty {
                self.writebacks += 1;
                evicted_dirty = Some(victim.tag << BLOCK_SHIFT);
            }
        }
        set.push(Line {
            tag,
            dirty: is_write,
            lru: self.tick,
        });
        AccessResult::Miss { evicted_dirty }
    }

    fn contains(&self, addr: u64) -> bool {
        let (idx, tag) = self.index_tag(addr);
        self.sets[idx].iter().any(|l| l.tag == tag)
    }

    fn invalidate(&mut self, addr: u64) -> bool {
        let (idx, tag) = self.index_tag(addr);
        let set = &mut self.sets[idx];
        match set.iter().position(|l| l.tag == tag) {
            Some(pos) => set.swap_remove(pos).dirty,
            None => false,
        }
    }
}

#[test]
fn flat_cache_matches_reference_on_random_sequences() {
    prop_check!(cases: 96, |g| {
        // Small geometries keep sets hot so evictions are constant.
        let ways = g.usize_in(1..17);
        let sets_pow = g.u32_in(0..5); // 1..16 sets
        let capacity = (ways as u64) * 64 * (1u64 << sets_pow);
        let mut flat = SramCache::new(capacity, ways);
        let mut reference = RefSramCache::new(capacity, ways);
        assert_eq!(flat.num_sets(), reference.sets.len());

        // Confine addresses to a few times the cache's reach so the mix
        // of hits, cold fills, and capacity evictions is dense.
        let blocks = g.u64_in(1..(flat.num_sets() as u64 * ways as u64 * 4 + 2));
        for _ in 0..g.usize_in(50..400) {
            let addr = g.u64_in(0..blocks) * 64 + g.u64_in(0..64);
            match g.u64_in(0..10) {
                0 => {
                    // Occasional invalidation (miss-signal reclamation).
                    assert_eq!(
                        flat.invalidate(addr),
                        reference.invalidate(addr),
                        "invalidate({addr:#x}) dirtiness diverged"
                    );
                }
                1 => {
                    assert_eq!(
                        flat.contains(addr),
                        reference.contains(addr),
                        "contains({addr:#x}) diverged"
                    );
                }
                n => {
                    let is_write = n >= 7;
                    let a = flat.access(addr, is_write);
                    let b = reference.access(addr, is_write);
                    assert_eq!(a, b, "access({addr:#x}, write={is_write}) diverged");
                }
            }
        }
        assert_eq!(flat.hits(), reference.hits);
        assert_eq!(flat.misses(), reference.misses);
        assert_eq!(flat.writebacks(), reference.writebacks);
    });
}

/// The split probe/miss_fill fast path composes to the same decisions as
/// the monolithic access, against the reference, including victims.
#[test]
fn split_fast_path_matches_reference() {
    prop_check!(cases: 48, |g| {
        let ways = g.usize_in(1..9);
        let capacity = ways as u64 * 64 * 4; // 4 sets
        let mut flat = SramCache::new(capacity, ways);
        let mut reference = RefSramCache::new(capacity, ways);
        let blocks = flat.num_sets() as u64 * ways as u64 * 3;
        for _ in 0..200 {
            let addr = g.u64_in(0..blocks) * 64;
            let is_write = g.any_bool();
            let split = if flat.probe(addr, is_write) {
                AccessResult::Hit
            } else {
                AccessResult::Miss {
                    evicted_dirty: flat.miss_fill(addr, is_write),
                }
            };
            assert_eq!(split, reference.access(addr, is_write));
        }
        assert_eq!(flat.writebacks(), reference.writebacks);
    });
}

/// Single-way (direct-mapped) and 16-way (LLC-shaped) extremes behave.
#[test]
fn geometry_extremes_match_reference() {
    for ways in [1usize, 16] {
        let capacity = ways as u64 * 64 * 2;
        let mut flat = SramCache::new(capacity, ways);
        let mut reference = RefSramCache::new(capacity, ways);
        for i in 0..500u64 {
            let addr = (i * 37 % 64) * 64;
            let w = i % 3 == 0;
            assert_eq!(flat.access(addr, w), reference.access(addr, w), "i={i}");
        }
        assert_eq!(flat.hits(), reference.hits);
        assert_eq!(flat.writebacks(), reference.writebacks);
    }
}

/// [`SramCache::probe_run`] (the batched hit-run primitive, DESIGN.md
/// §15) performs exactly the same probes as a scalar `probe` loop
/// stopping at the first miss: same run length, same counters, and —
/// checked by diffing post-sequence behaviour, including writeback
/// dirtiness — the same recency and dirty state. Runs are biased
/// toward same-block repeats (the memoized path) and write-after-read
/// pairs, and interleave with fills/invalidations between runs.
#[test]
fn probe_run_matches_a_scalar_probe_loop() {
    prop_check!(cases: 96, |g| {
        let ways = g.usize_in(1..9);
        let sets_pow = g.u32_in(0..4); // 1..8 sets
        let capacity = (ways as u64) * 64 * (1u64 << sets_pow);
        let mut batched = SramCache::new(capacity, ways);
        let mut scalar = SramCache::new(capacity, ways);
        let blocks = batched.num_sets() as u64 * ways as u64 * 3 + 1;
        for _ in 0..g.usize_in(20..120) {
            if g.bool_p(0.25) {
                // Identical mutation on both twins between runs.
                let addr = g.u64_in(0..blocks) * 64;
                if g.any_bool() {
                    let is_write = g.any_bool();
                    assert_eq!(
                        batched.access(addr, is_write),
                        scalar.access(addr, is_write)
                    );
                } else {
                    assert_eq!(batched.invalidate(addr), scalar.invalidate(addr));
                }
                continue;
            }
            // Random run with same-block repeats and write-after-read.
            let len = g.usize_in(0..12);
            let mut run: Vec<(u64, bool)> = Vec::with_capacity(len);
            for _ in 0..len {
                let addr = if g.bool_p(0.5) && !run.is_empty() {
                    run.last().expect("nonempty").0
                } else {
                    g.u64_in(0..blocks) * 64 + g.u64_in(0..64)
                };
                run.push((addr, g.bool_p(0.4)));
            }
            // Scalar reference: probe until the first miss.
            let mut expect = 0usize;
            for &(addr, w) in &run {
                if !scalar.probe(addr, w) {
                    break;
                }
                expect += 1;
            }
            assert_eq!(
                batched.probe_run(run.iter().copied()),
                expect,
                "run {run:?} diverged"
            );
            assert_eq!(batched.hits(), scalar.hits(), "hit counters diverged");
            assert_eq!(batched.misses(), scalar.misses(), "miss counters diverged");
        }
        // Final-state identity: replay every block as a clean access on
        // both twins — victim choice and writeback dirtiness expose any
        // recency-word or dirty-bit divergence left by the runs.
        for b in 0..blocks {
            assert_eq!(
                batched.access(b * 64, false),
                scalar.access(b * 64, false),
                "post-sequence access({:#x}) diverged",
                b * 64
            );
        }
        assert_eq!(batched.writebacks(), scalar.writebacks());
    });
}
