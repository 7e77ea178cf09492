//! Set-associative SRAM cache (L1/L2/LLC) with true-LRU replacement and
//! write-back, write-allocate semantics.
//!
//! # Layout (DESIGN.md §10)
//!
//! The cache is a single flat allocation in struct-of-arrays form: one
//! `tags` slab (`num_sets × ways`, empty slots hold `INVALID_TAG`), a
//! per-set dirty bitmask (`u16`, one bit per way), a per-set occupancy
//! count, and a per-set packed *recency-order word* — a `u64` holding up
//! to sixteen 4-bit way ids ordered MRU (low nibble) → LRU (high
//! occupied nibble). A hit is one masked index plus a contiguous tag
//! scan; promotion, victim selection, and eviction are constant-time bit
//! operations on the order word. The order word replaces the previous
//! ever-growing 64-bit per-line LRU tick: both encode the exact same
//! recency *ordering*, so every hit/miss/victim decision is identical
//! (`tests/memory_path_differential.rs` checks it against a tick-LRU
//! model).

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// The block was present.
    Hit,
    /// The block was absent; it has been filled. If the fill evicted a
    /// dirty block, its address is carried for writeback.
    Miss {
        /// Dirty victim that must be written back a level down.
        evicted_dirty: Option<u64>,
    },
}

impl AccessResult {
    /// Whether the access hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessResult::Hit)
    }
}

/// Sentinel for an empty tag slot. Real tags are full block numbers
/// (`addr >> 6` ≤ 2⁵⁸), so the all-ones pattern can never collide.
const INVALID_TAG: u64 = u64::MAX;

pub(crate) const BLOCK_SHIFT: u32 = 6; // 64 B blocks

/// A set-associative cache over 64 B blocks.
///
/// # Example
///
/// ```
/// use astriflash_mem::SramCache;
/// let mut l1 = SramCache::new(32 * 1024, 8);
/// assert!(!l1.access(0x1000, false).is_hit()); // cold miss
/// assert!(l1.access(0x1000, false).is_hit());
/// ```
#[derive(Debug, Clone)]
pub struct SramCache {
    /// Tag slab, `num_sets × ways`; [`INVALID_TAG`] marks empty slots.
    tags: Box<[u64]>,
    /// Packed recency order per set: nibble 0 = MRU way id, nibble
    /// `len-1` = LRU way id; nibbles ≥ `len` are meaningless residue.
    order: Box<[u64]>,
    /// Dirty bit per way, one word per set.
    dirty: Box<[u16]>,
    /// Occupied ways per set.
    len: Box<[u8]>,
    ways: usize,
    set_mask: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

/// Position (0-based nibble index) of the lowest nibble of `word` equal
/// to `nib`. The caller guarantees a match exists among the occupied
/// (lowest) nibbles; residue nibbles above it cannot shadow the first
/// genuine match because the borrow trick finds the *lowest* one.
#[inline(always)]
fn nibble_pos(word: u64, nib: u64) -> u32 {
    const ONES: u64 = 0x1111_1111_1111_1111;
    let x = word ^ ONES.wrapping_mul(nib);
    let zero = x.wrapping_sub(ONES) & !x & (ONES << 3);
    debug_assert!(zero != 0, "way {nib:#x} not present in order {word:#x}");
    zero.trailing_zeros() >> 2
}

/// Removes the nibble at position `pos`, shifting higher nibbles down.
#[inline(always)]
fn nibble_remove(word: u64, pos: u32) -> u64 {
    let shift = pos * 4;
    let below = word & ((1u64 << shift) - 1);
    // Double shifts keep the arithmetic defined at pos = 15.
    ((word >> shift >> 4) << shift) | below
}

impl SramCache {
    /// Creates a cache of `capacity_bytes` with `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two number of sets, if
    /// capacity is smaller than one way of blocks, or if `ways > 16`
    /// (the packed recency-order word holds sixteen 4-bit way ids).
    pub fn new(capacity_bytes: u64, ways: usize) -> Self {
        assert!(ways > 0);
        assert!(ways <= 16, "packed recency order supports at most 16 ways");
        let blocks = capacity_bytes >> BLOCK_SHIFT;
        assert!(blocks >= ways as u64, "capacity below one set");
        let num_sets = (blocks / ways as u64).next_power_of_two();
        let num_sets = if num_sets * (ways as u64) > blocks {
            num_sets / 2
        } else {
            num_sets
        }
        .max(1) as usize;
        SramCache {
            tags: vec![INVALID_TAG; num_sets * ways].into_boxed_slice(),
            order: vec![0u64; num_sets].into_boxed_slice(),
            dirty: vec![0u16; num_sets].into_boxed_slice(),
            len: vec![0u8; num_sets].into_boxed_slice(),
            ways,
            set_mask: num_sets as u64 - 1,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    #[inline(always)]
    fn index_tag(&self, addr: u64) -> (usize, u64) {
        let block = addr >> BLOCK_SHIFT;
        // Store the full block number as the tag: costs a few bits of
        // model memory but makes victim-address reconstruction exact.
        ((block & self.set_mask) as usize, block)
    }

    /// Hit-path probe: one masked index, a contiguous tag compare, and a
    /// constant-time recency promotion. Returns `false` on a miss
    /// *without* touching any state or counter, so the caller can finish
    /// with [`SramCache::miss_fill`] and skip a second tag scan.
    #[inline(always)]
    pub fn probe(&mut self, addr: u64, is_write: bool) -> bool {
        let (idx, tag) = self.index_tag(addr);
        let base = idx * self.ways;
        // Branchless scan: data-dependent early exits mispredict under
        // random hit positions and cost more than the spared compares.
        let row = &self.tags[base..base + self.ways];
        let mut way = usize::MAX;
        for (w, &t) in row.iter().enumerate() {
            if t == tag {
                way = w;
            }
        }
        if way == usize::MAX {
            return false;
        }
        // Promote `way` to MRU: splice its nibble out of the order word
        // and re-insert it at nibble 0 (for an already-MRU hit the
        // splice is the identity, so no special case is needed).
        let word = self.order[idx];
        let pos = nibble_pos(word, way as u64);
        self.order[idx] = (nibble_remove(word, pos) << 4) | way as u64;
        self.dirty[idx] |= (is_write as u16) << way;
        self.hits += 1;
        true
    }

    /// Batched hit-run probe: probes `(addr, is_write)` pairs in order
    /// and returns the length of the leading all-hit run, stopping
    /// *before* the first missing block (which, like a single missing
    /// [`SramCache::probe`], leaves all state and counters untouched so
    /// the caller can finish with [`SramCache::miss_fill`]). State after
    /// a return of `n` is exactly the state after `n` scalar probes —
    /// proven against a scalar-probe loop in
    /// `crates/mem/tests/memory_path_differential.rs`.
    ///
    /// Consecutive accesses to the same block (read-modify-write,
    /// adjacent fields) skip the tag scan: the way is already MRU from
    /// the previous probe, so the promotion splice is the identity and
    /// only the dirty bit and the hit counter move.
    #[inline]
    pub fn probe_run(&mut self, accesses: impl IntoIterator<Item = (u64, bool)>) -> usize {
        let mut n = 0usize;
        // INVALID_TAG cannot equal a real block number, so the first
        // iteration always takes the full scan.
        let mut prev_block = INVALID_TAG;
        let mut prev_idx = 0usize;
        let mut prev_way = 0usize;
        for (addr, is_write) in accesses {
            let (idx, tag) = self.index_tag(addr);
            if tag == prev_block {
                self.dirty[prev_idx] |= (is_write as u16) << prev_way;
                self.hits += 1;
                n += 1;
                continue;
            }
            let base = idx * self.ways;
            let row = &self.tags[base..base + self.ways];
            let mut way = usize::MAX;
            for (w, &t) in row.iter().enumerate() {
                if t == tag {
                    way = w;
                }
            }
            if way == usize::MAX {
                break;
            }
            let word = self.order[idx];
            let pos = nibble_pos(word, way as u64);
            self.order[idx] = (nibble_remove(word, pos) << 4) | way as u64;
            self.dirty[idx] |= (is_write as u16) << way;
            self.hits += 1;
            prev_block = tag;
            prev_idx = idx;
            prev_way = way;
            n += 1;
        }
        n
    }

    /// Miss path: counts the miss and installs `addr`'s block as MRU,
    /// evicting the true-LRU way when the set is full. Must only be
    /// called after [`SramCache::probe`] returned `false` for `addr`.
    /// Returns the dirty victim's address, if any.
    pub fn miss_fill(&mut self, addr: u64, is_write: bool) -> Option<u64> {
        self.misses += 1;
        let (idx, tag) = self.index_tag(addr);
        let base = idx * self.ways;
        let n = self.len[idx] as usize;
        let mut evicted_dirty = None;
        let slot = if n >= self.ways {
            // Victim = LRU = the occupied nibble at position n-1.
            let word = self.order[idx];
            let victim = ((word >> ((n as u32 - 1) * 4)) & 0xF) as usize;
            let vbit = 1u16 << victim;
            if self.dirty[idx] & vbit != 0 {
                self.writebacks += 1;
                evicted_dirty = Some(self.tags[base + victim] << BLOCK_SHIFT);
            }
            // The victim's slot is refilled: shifting the order word up
            // drops the LRU nibble off the occupied region and installs
            // the slot as MRU in one operation.
            self.order[idx] = (word << 4) | victim as u64;
            victim
        } else {
            // Fill the first free slot (any free slot is equivalent:
            // decisions depend only on the recency order, never on
            // physical placement).
            let mut free = usize::MAX;
            for w in (0..self.ways).rev() {
                if self.tags[base + w] == INVALID_TAG {
                    free = w;
                }
            }
            debug_assert!(free != usize::MAX, "len < ways but no free slot");
            self.len[idx] = (n + 1) as u8;
            self.order[idx] = (self.order[idx] << 4) | free as u64;
            free
        };
        self.tags[base + slot] = tag;
        let bit = 1u16 << slot;
        if is_write {
            self.dirty[idx] |= bit;
        } else {
            self.dirty[idx] &= !bit;
        }
        evicted_dirty
    }

    /// Accesses `addr`; on a miss the block is filled (write-allocate).
    #[inline]
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessResult {
        if self.probe(addr, is_write) {
            AccessResult::Hit
        } else {
            AccessResult::Miss {
                evicted_dirty: self.miss_fill(addr, is_write),
            }
        }
    }

    /// Whether `addr`'s block is present (no LRU update).
    pub fn contains(&self, addr: u64) -> bool {
        let (idx, tag) = self.index_tag(addr);
        let base = idx * self.ways;
        self.tags[base..base + self.ways].contains(&tag)
    }

    /// Invalidates `addr`'s block if present; returns whether it was
    /// dirty.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (idx, tag) = self.index_tag(addr);
        let base = idx * self.ways;
        let Some(way) = self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == tag)
        else {
            return false;
        };
        self.tags[base + way] = INVALID_TAG;
        let pos = nibble_pos(self.order[idx], way as u64);
        self.order[idx] = nibble_remove(self.order[idx], pos);
        self.len[idx] -= 1;
        let bit = 1u16 << way;
        let was_dirty = self.dirty[idx] & bit != 0;
        self.dirty[idx] &= !bit;
        was_dirty
    }

    /// Hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Dirty writebacks produced.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.order.len()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_is_power_of_two_sets() {
        let c = SramCache::new(32 * 1024, 8);
        assert_eq!(c.num_sets(), 64);
        assert_eq!(c.ways(), 8);
    }

    #[test]
    fn hit_after_fill() {
        let mut c = SramCache::new(4096, 4);
        assert!(!c.access(0x40, false).is_hit());
        assert!(c.access(0x40, false).is_hit());
        assert!(c.access(0x7f, false).is_hit(), "same block");
        assert!(!c.access(0x80, false).is_hit(), "next block");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 4-way, map everything into one set by stepping by set stride.
        let mut c = SramCache::new(4096, 4);
        let stride = (c.num_sets() as u64) << BLOCK_SHIFT;
        for i in 0..4u64 {
            c.access(i * stride, false);
        }
        // Touch block 0 to refresh it, then add a 5th block: victim must
        // be block 1 (oldest untouched).
        c.access(0, false);
        c.access(4 * stride, false);
        assert!(c.contains(0));
        assert!(!c.contains(stride));
        assert!(c.contains(2 * stride));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = SramCache::new(4096, 2);
        let stride = (c.num_sets() as u64) << BLOCK_SHIFT;
        c.access(0, true); // dirty
        c.access(stride, false);
        let res = c.access(2 * stride, false); // evicts block 0
        match res {
            AccessResult::Miss {
                evicted_dirty: Some(victim),
            } => {
                // Victim must map back to the same set.
                assert_eq!((victim >> BLOCK_SHIFT) & (c.num_sets() as u64 - 1), 0);
            }
            other => panic!("expected dirty eviction, got {other:?}"),
        }
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn invalidate_removes_and_reports_dirty() {
        let mut c = SramCache::new(4096, 2);
        c.access(0x100, true);
        assert!(c.invalidate(0x100));
        assert!(!c.contains(0x100));
        assert!(!c.invalidate(0x100), "second invalidate is a no-op");
    }

    #[test]
    fn distinct_blocks_do_not_alias() {
        let mut c = SramCache::new(1 << 20, 16);
        for i in 0..1000u64 {
            c.access(i * 64, false);
        }
        let miss_then = c.misses();
        for i in 0..1000u64 {
            assert!(c.access(i * 64, false).is_hit(), "block {i} lost");
        }
        assert_eq!(c.misses(), miss_then);
    }

    #[test]
    fn probe_then_miss_fill_equals_access() {
        let mut a = SramCache::new(4096, 4);
        let mut b = SramCache::new(4096, 4);
        let stride = (a.num_sets() as u64) << BLOCK_SHIFT;
        for i in [0u64, 1, 2, 0, 3, 4, 1, 5, 0] {
            let addr = i * stride;
            let via_access = b.access(addr, i % 2 == 0);
            let via_split = if a.probe(addr, i % 2 == 0) {
                AccessResult::Hit
            } else {
                AccessResult::Miss {
                    evicted_dirty: a.miss_fill(addr, i % 2 == 0),
                }
            };
            assert_eq!(via_access, via_split);
        }
        assert_eq!(a.hits(), b.hits());
        assert_eq!(a.misses(), b.misses());
        assert_eq!(a.writebacks(), b.writebacks());
    }

    #[test]
    fn probe_run_stops_before_first_miss_and_matches_scalar_probes() {
        let mut batched = SramCache::new(4096, 4);
        let mut scalar = SramCache::new(4096, 4);
        for c in [&mut batched, &mut scalar] {
            for addr in [0u64, 0x40, 0x80] {
                c.access(addr, false);
            }
        }
        // Same-block repeats (incl. a write after a read), a hop to
        // another resident block, then a missing block.
        let run = [
            (0u64, false),
            (0x08, false),
            (0x10, true),
            (0x40, false),
            (0x1000, false),
            (0x80, false),
        ];
        let n = batched.probe_run(run.iter().copied());
        assert_eq!(n, 4, "stops before the missing block");
        for &(addr, w) in &run[..n] {
            assert!(scalar.probe(addr, w), "addr {addr:#x} must hit");
        }
        assert_eq!(batched.hits(), scalar.hits());
        assert_eq!(batched.misses(), scalar.misses());
        // The write-after-read left block 0 dirty on both sides:
        // invalidating it reports dirty identically.
        assert!(batched.invalidate(0));
        assert!(scalar.invalidate(0));
        // The missing block was untouched: both still miss it.
        assert!(!batched.contains(0x1000));
        assert!(!scalar.contains(0x1000));
    }

    #[test]
    fn probe_run_on_empty_iterator_is_a_no_op() {
        let mut c = SramCache::new(4096, 4);
        c.access(0, false);
        assert_eq!(c.probe_run(std::iter::empty()), 0);
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn refill_after_invalidate_reuses_the_freed_slot() {
        let mut c = SramCache::new(4096, 4);
        let stride = (c.num_sets() as u64) << BLOCK_SHIFT;
        for i in 0..4u64 {
            c.access(i * stride, false);
        }
        c.invalidate(2 * stride);
        // Set has a hole: next fill must not evict anyone.
        let res = c.access(9 * stride, false);
        assert_eq!(res, AccessResult::Miss { evicted_dirty: None });
        for i in [0u64, 1, 3, 9] {
            assert!(c.contains(i * stride), "block {i} lost");
        }
    }

    #[test]
    fn nibble_helpers() {
        // order word 0x3210: MRU way 0, then 1, 2, LRU way 3.
        assert_eq!(nibble_pos(0x3210, 0), 0);
        assert_eq!(nibble_pos(0x3210, 2), 2);
        assert_eq!(nibble_remove(0x3210, 2), 0x310);
        assert_eq!(nibble_remove(0x3210, 0), 0x321);
        // Position 15 (highest nibble) stays defined.
        assert_eq!(nibble_pos(0xF000_0000_0000_0000, 0xF), 15);
        assert_eq!(nibble_remove(0xF000_0000_0000_0000, 15), 0);
    }
}
