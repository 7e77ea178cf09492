//! A set-associative TLB over 4 KiB pages.
//!
//! Flattened like the SRAM caches (DESIGN.md §10): one contiguous `vpns`
//! slab in struct-of-arrays layout, a per-set occupancy count, and a
//! packed per-set recency-order word (4-bit way ids, MRU at nibble 0)
//! replacing the historical per-entry 64-bit LRU tick. The encoding
//! preserves the exact recency ordering, so every hit/miss/victim
//! decision matches a tick-LRU model — proven by the differential
//! property test in `crates/os/tests/tlb_differential.rs`.

/// TLB access outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbResult {
    /// Translation cached.
    Hit,
    /// Translation absent: a page-table walk is required. The entry is
    /// filled (the walker's result is installed).
    Miss,
}

/// Sentinel for an empty entry. Real vpns are `addr / 4096` ≤ 2⁵², so
/// the all-ones pattern can never collide.
const INVALID_VPN: u64 = u64::MAX;

/// Position of the lowest nibble of `word` equal to `nib` (the caller
/// guarantees one exists among the occupied low nibbles).
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
    ((word >> shift >> 4) << shift) | below
}

/// A unified second-level TLB model (the first level is folded into the
/// hit latency, which is ~0 for a pipelined L1 TLB).
///
/// # Example
///
/// ```
/// use astriflash_os::Tlb;
/// let mut tlb = Tlb::new(1536, 6);
/// assert_eq!(tlb.access(5), astriflash_os::tlb::TlbResult::Miss);
/// assert_eq!(tlb.access(5), astriflash_os::tlb::TlbResult::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    /// Entry slab, `num_sets × ways`; [`INVALID_VPN`] marks empty slots.
    vpns: Box<[u64]>,
    /// Packed recency order per set (nibble 0 = MRU way id).
    order: Box<[u64]>,
    /// Occupied ways per set.
    len: Box<[u8]>,
    num_sets: usize,
    /// `num_sets - 1` when the set count is a power of two (masked
    /// index), 0 otherwise (modulo fallback — `num_sets == 1` also
    /// lands here and the mask is correct by accident: `vpn & 0 == 0`).
    set_mask: u64,
    ways: usize,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl Tlb {
    /// Creates a TLB of `entries` total with `ways` associativity
    /// (entries are rounded down to a whole number of sets).
    ///
    /// # Panics
    ///
    /// Panics if `entries < ways`, `ways == 0`, or `ways > 16` (the
    /// packed recency-order word holds sixteen 4-bit way ids).
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(ways > 0 && entries >= ways);
        assert!(ways <= 16, "packed recency order supports at most 16 ways");
        let num_sets = (entries / ways).max(1);
        Tlb {
            vpns: vec![INVALID_VPN; num_sets * ways].into_boxed_slice(),
            order: vec![0u64; num_sets].into_boxed_slice(),
            len: vec![0u8; num_sets].into_boxed_slice(),
            num_sets,
            set_mask: if num_sets.is_power_of_two() {
                num_sets as u64 - 1
            } else {
                0
            },
            ways,
            hits: 0,
            misses: 0,
            invalidations: 0,
        }
    }

    #[inline(always)]
    fn set_of(&self, vpn: u64) -> usize {
        if self.set_mask != 0 {
            (vpn & self.set_mask) as usize
        } else {
            (vpn % self.num_sets as u64) as usize
        }
    }

    /// Hit-path probe: masked set index plus a contiguous vpn compare.
    /// On a hit the entry is promoted to MRU and the hit is counted; on
    /// a miss *nothing* is touched — finish with [`Tlb::miss_fill`].
    #[inline(always)]
    pub fn probe(&mut self, vpn: u64) -> bool {
        let idx = self.set_of(vpn);
        let base = idx * self.ways;
        // Branchless scan (early exits mispredict on random positions).
        let row = &self.vpns[base..base + self.ways];
        let mut way = usize::MAX;
        for (w, &v) in row.iter().enumerate() {
            if v == vpn {
                way = w;
            }
        }
        if way == usize::MAX {
            return false;
        }
        // MRU promotion; for an already-MRU hit the splice is the
        // identity, so no special case is needed.
        let word = self.order[idx];
        let pos = nibble_pos(word, way as u64);
        self.order[idx] = (nibble_remove(word, pos) << 4) | way as u64;
        self.hits += 1;
        true
    }

    /// Batched hit-run probe: probes `vpns` in order and returns the
    /// length of the leading all-hit run, stopping *before* the first
    /// missing vpn (which, like a single missing [`Tlb::probe`], leaves
    /// every counter and order word untouched and can be finished with
    /// [`Tlb::miss_fill`]). State after a return of `n` is exactly the
    /// state after `n` scalar probes — proven against a scalar-probe
    /// loop in `crates/os/tests/tlb_differential.rs`.
    ///
    /// Consecutive equal vpns — the dominant pattern in a job's access
    /// slab, where several accesses land on one page — skip the set scan
    /// entirely: the entry is already MRU from the previous probe, so
    /// the promotion splice is the identity and only the hit counter
    /// moves.
    #[inline]
    pub fn probe_run(&mut self, vpns: impl IntoIterator<Item = u64>) -> usize {
        let mut n = 0usize;
        // INVALID_VPN cannot equal a real vpn, so the first iteration
        // always takes the full probe.
        let mut prev = INVALID_VPN;
        for vpn in vpns {
            if vpn == prev {
                self.hits += 1;
                n += 1;
                continue;
            }
            if !self.probe(vpn) {
                break;
            }
            prev = vpn;
            n += 1;
        }
        n
    }

    /// Miss path: counts the miss and installs `vpn` as MRU, evicting
    /// the set's LRU entry when full. Must only be called after
    /// [`Tlb::probe`] returned `false` for `vpn`.
    pub fn miss_fill(&mut self, vpn: u64) {
        self.misses += 1;
        let idx = self.set_of(vpn);
        let base = idx * self.ways;
        let n = self.len[idx] as usize;
        let slot = if n >= self.ways {
            let word = self.order[idx];
            let victim = ((word >> ((n as u32 - 1) * 4)) & 0xF) as usize;
            self.order[idx] = (word << 4) | victim as u64;
            victim
        } else {
            let mut free = usize::MAX;
            for w in (0..self.ways).rev() {
                if self.vpns[base + w] == INVALID_VPN {
                    free = w;
                }
            }
            debug_assert!(free != usize::MAX, "len < ways but no free slot");
            self.len[idx] = (n + 1) as u8;
            self.order[idx] = (self.order[idx] << 4) | free as u64;
            free
        };
        self.vpns[base + slot] = vpn;
    }

    /// Looks up `vpn`, filling on miss.
    #[inline]
    pub fn access(&mut self, vpn: u64) -> TlbResult {
        if self.probe(vpn) {
            TlbResult::Hit
        } else {
            self.miss_fill(vpn);
            TlbResult::Miss
        }
    }

    /// Invalidates `vpn` (one shootdown target). Returns whether it was
    /// present.
    pub fn invalidate(&mut self, vpn: u64) -> bool {
        let idx = self.set_of(vpn);
        let base = idx * self.ways;
        let Some(way) = self.vpns[base..base + self.ways]
            .iter()
            .position(|&v| v == vpn)
        else {
            return false;
        };
        self.vpns[base + way] = INVALID_VPN;
        let pos = nibble_pos(self.order[idx], way as u64);
        self.order[idx] = nibble_remove(self.order[idx], pos);
        self.len[idx] -= 1;
        self.invalidations += 1;
        true
    }

    /// Hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Invalidations performed.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Miss ratio so far.
    pub fn miss_ratio(&self) -> f64 {
        let t = self.hits + self.misses;
        if t == 0 {
            0.0
        } else {
            self.misses as f64 / t as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_fill_hit() {
        let mut tlb = Tlb::new(16, 4);
        assert_eq!(tlb.access(100), TlbResult::Miss);
        assert_eq!(tlb.access(100), TlbResult::Hit);
        assert_eq!(tlb.hits(), 1);
        assert_eq!(tlb.misses(), 1);
        assert!((tlb.miss_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lru_within_set() {
        let mut tlb = Tlb::new(4, 2); // 2 sets × 2 ways
        // vpns 0,2,4 all map to set 0.
        tlb.access(0);
        tlb.access(2);
        tlb.access(0); // refresh 0
        tlb.access(4); // evicts 2
        assert_eq!(tlb.access(0), TlbResult::Hit);
        assert_eq!(tlb.access(2), TlbResult::Miss);
    }

    #[test]
    fn invalidate_forces_rewalk() {
        let mut tlb = Tlb::new(16, 4);
        tlb.access(7);
        assert!(tlb.invalidate(7));
        assert!(!tlb.invalidate(7));
        assert_eq!(tlb.access(7), TlbResult::Miss);
        assert_eq!(tlb.invalidations(), 1);
    }

    #[test]
    fn probe_then_miss_fill_equals_access() {
        let mut a = Tlb::new(4, 2);
        let mut b = Tlb::new(4, 2);
        for vpn in [0u64, 2, 0, 4, 2, 6, 0, 8] {
            let via_access = b.access(vpn);
            let via_split = if a.probe(vpn) {
                TlbResult::Hit
            } else {
                a.miss_fill(vpn);
                TlbResult::Miss
            };
            assert_eq!(via_access, via_split, "vpn {vpn}");
        }
        assert_eq!(a.hits(), b.hits());
        assert_eq!(a.misses(), b.misses());
    }

    #[test]
    fn non_power_of_two_set_count_uses_modulo() {
        // 18 entries / 6 ways = 3 sets: the modulo path.
        let mut tlb = Tlb::new(18, 6);
        for vpn in 0..9u64 {
            assert_eq!(tlb.access(vpn), TlbResult::Miss);
        }
        for vpn in 0..9u64 {
            assert_eq!(tlb.access(vpn), TlbResult::Hit, "vpn {vpn}");
        }
    }

    #[test]
    fn probe_run_stops_before_first_miss_and_matches_scalar_probes() {
        let mut batched = Tlb::new(16, 4);
        let mut scalar = Tlb::new(16, 4);
        for tlb in [&mut batched, &mut scalar] {
            for vpn in [1u64, 2, 3] {
                tlb.access(vpn);
            }
        }
        // Same-page repeats, a cross-page hop, then a missing vpn.
        let run = [1u64, 1, 1, 2, 2, 99, 3];
        let n = batched.probe_run(run.iter().copied());
        assert_eq!(n, 5, "stops before the missing vpn");
        for &vpn in &run[..n] {
            assert!(scalar.probe(vpn), "vpn {vpn} must hit");
        }
        assert_eq!(batched.hits(), scalar.hits());
        assert_eq!(batched.misses(), scalar.misses());
        // The missing vpn was not touched: both still miss identically.
        assert_eq!(batched.access(99), TlbResult::Miss);
        assert_eq!(scalar.access(99), TlbResult::Miss);
    }

    #[test]
    fn probe_run_on_empty_iterator_is_a_no_op() {
        let mut tlb = Tlb::new(16, 4);
        tlb.access(7);
        assert_eq!(tlb.probe_run(std::iter::empty()), 0);
        assert_eq!(tlb.hits(), 0);
        assert_eq!(tlb.misses(), 1);
    }

    #[test]
    fn refill_after_invalidate_reuses_the_freed_slot() {
        let mut tlb = Tlb::new(8, 4); // 2 sets × 4 ways
        for vpn in [0u64, 2, 4, 6] {
            tlb.access(vpn); // fills set 0
        }
        tlb.invalidate(2);
        tlb.access(8); // must take the hole, evicting nobody
        for vpn in [0u64, 4, 6, 8] {
            assert_eq!(tlb.access(vpn), TlbResult::Hit, "vpn {vpn} lost");
        }
    }
}
