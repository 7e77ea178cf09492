//! A flat page-keyed hash map for the simulator's sparse page sets.
//!
//! The standard library's `HashMap` defaults to SipHash-1-3 behind a
//! per-process random seed. That is the right default for hash-flood
//! resistance, but wrong for a simulator: the keys here are page numbers
//! produced by the simulation itself (never adversarial), SipHash costs
//! tens of cycles per probe, and the random seed makes iteration order
//! differ between runs — a determinism hazard anywhere iteration touches
//! results.
//!
//! [`PageMap`] is a flat open-addressed table specialized for `u64`
//! page-number keys (linear probing, power-of-two capacity,
//! backward-shift deletion). It serves the page sets that are sparse in
//! the page space: page-LRU residency, footprint history and the
//! in-flight miss maps. It is platform-independent: the same inserts
//! produce the same table layout (and thus iteration order) on every
//! machine and every run.

/// Golden-ratio-derived odd multiplier for Fibonacci hashing.
const HASH_MULT: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Key sentinel marking an empty [`PageMap`] slot. Page numbers are
/// derived from dataset sizes (≪ 2^52 pages), so `u64::MAX` can never be
/// a real key.
const EMPTY: u64 = u64::MAX;

/// Minimum table capacity (power of two).
const MIN_CAPACITY: usize = 16;

/// A flat open-addressed map from `u64` page numbers to small copyable
/// values.
///
/// Linear probing over a power-of-two slot array, multiplicative
/// (Fibonacci) hashing taking the *high* bits of `key * K`, and
/// backward-shift deletion so no tombstones accumulate. Load factor is
/// kept below 3/4.
///
/// # Example
///
/// ```
/// use astriflash_sim::hash::PageMap;
/// let mut m = PageMap::new();
/// m.insert(42, 7u32);
/// assert_eq!(m.get(42), Some(7));
/// assert_eq!(m.remove(42), Some(7));
/// assert!(m.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct PageMap<V> {
    /// Parallel arrays: `keys[i] == EMPTY` marks a free slot.
    keys: Vec<u64>,
    vals: Vec<V>,
    len: usize,
    /// `capacity - 1`; capacity is always a power of two.
    mask: usize,
    /// `64 - log2(capacity)`: shift to take the high hash bits.
    shift: u32,
}

impl<V: Copy + Default> PageMap<V> {
    /// An empty map with the minimum capacity.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty map pre-sized to hold `n` entries without rehashing.
    pub fn with_capacity(n: usize) -> Self {
        // Smallest power of two that keeps n entries under 3/4 load.
        let mut cap = MIN_CAPACITY;
        while n.saturating_mul(4) >= cap * 3 {
            cap *= 2;
        }
        PageMap {
            keys: vec![EMPTY; cap],
            vals: vec![V::default(); cap],
            len: 0,
            mask: cap - 1,
            shift: 64 - cap.trailing_zeros(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current slot-array capacity (for pre-size tests).
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        // Fibonacci hashing: the high bits of key*K are well mixed for
        // the sequential-ish page numbers the simulator produces.
        (key.wrapping_mul(HASH_MULT) >> self.shift) as usize
    }

    /// Index holding `key`, if present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        let mut i = self.slot_of(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(i);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Value for `key`, if present.
    #[inline]
    pub fn get(&self, key: u64) -> Option<V> {
        debug_assert_ne!(key, EMPTY);
        self.find(key).map(|i| self.vals[i])
    }

    /// Mutable access to the value for `key`, if present.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        debug_assert_ne!(key, EMPTY);
        self.find(key).map(|i| &mut self.vals[i])
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Inserts `key → val`, returning the previous value if any.
    #[inline]
    pub fn insert(&mut self, key: u64, val: V) -> Option<V> {
        debug_assert_ne!(key, EMPTY);
        if (self.len + 1) * 4 >= self.keys.len() * 3 {
            self.grow();
        }
        let mut i = self.slot_of(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(std::mem::replace(&mut self.vals[i], val));
            }
            if k == EMPTY {
                self.keys[i] = key;
                self.vals[i] = val;
                self.len += 1;
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Removes `key`, returning its value if present. Uses backward-shift
    /// deletion to keep probe chains contiguous without tombstones.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        debug_assert_ne!(key, EMPTY);
        let mut hole = self.find(key)?;
        let removed = self.vals[hole];
        self.len -= 1;
        let mut i = hole;
        loop {
            i = (i + 1) & self.mask;
            let k = self.keys[i];
            if k == EMPTY {
                break;
            }
            // If k's home slot is outside the (cyclic) range (hole, i],
            // it can legally move back into the hole.
            let home = self.slot_of(k);
            let dist_hole = i.wrapping_sub(hole) & self.mask;
            let dist_home = i.wrapping_sub(home) & self.mask;
            if dist_home >= dist_hole {
                self.keys[hole] = k;
                self.vals[hole] = self.vals[i];
                hole = i;
            }
        }
        self.keys[hole] = EMPTY;
        self.vals[hole] = V::default();
        Some(removed)
    }

    /// Removes every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.keys.fill(EMPTY);
        self.vals.fill(V::default());
        self.len = 0;
    }

    /// Iterates over `(key, value)` pairs in slot order — deterministic
    /// for a given insert/remove history, but *not* insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, V)> + '_ {
        self.keys
            .iter()
            .zip(self.vals.iter())
            .filter(|(&k, _)| k != EMPTY)
            .map(|(&k, &v)| (k, v))
    }

    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        let old_vals = std::mem::replace(&mut self.vals, vec![V::default(); new_cap]);
        self.mask = new_cap - 1;
        self.shift = 64 - new_cap.trailing_zeros();
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY {
                self.insert(k, v);
            }
        }
    }
}

impl<V: Copy + Default> Default for PageMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn page_map_insert_get_remove() {
        let mut m = PageMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(5, 50u64), None);
        assert_eq!(m.insert(5, 55), Some(50));
        assert_eq!(m.get(5), Some(55));
        assert!(m.contains_key(5));
        assert_eq!(m.remove(5), Some(55));
        assert_eq!(m.remove(5), None);
        assert!(m.is_empty());
    }

    #[test]
    fn page_map_get_mut_updates_in_place() {
        let mut m = PageMap::new();
        m.insert(9, 1u32);
        *m.get_mut(9).unwrap() += 10;
        assert_eq!(m.get(9), Some(11));
        assert_eq!(m.get_mut(10), None);
    }

    #[test]
    fn page_map_grows_and_keeps_entries() {
        let mut m = PageMap::with_capacity(4);
        for k in 0..10_000u64 {
            m.insert(k * 3, k);
        }
        assert_eq!(m.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(m.get(k * 3), Some(k), "key {}", k * 3);
        }
    }

    #[test]
    fn page_map_with_capacity_avoids_rehash() {
        let mut m = PageMap::with_capacity(1000);
        let cap = m.capacity();
        for k in 0..1000u64 {
            m.insert(k, k);
        }
        assert_eq!(m.capacity(), cap, "pre-sized map must not rehash");
    }

    #[test]
    fn page_map_backward_shift_delete_preserves_chains() {
        // Build clusters, remove from the middle, and verify every
        // surviving key is still reachable.
        let mut m = PageMap::with_capacity(64);
        let keys: Vec<u64> = (0..48u64).map(|k| k * 7 + 1).collect();
        for &k in &keys {
            m.insert(k, k * 10);
        }
        for &k in keys.iter().step_by(3) {
            assert_eq!(m.remove(k), Some(k * 10));
        }
        for (i, &k) in keys.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(m.get(k), None);
            } else {
                assert_eq!(m.get(k), Some(k * 10), "lost key {k}");
            }
        }
    }

    #[test]
    fn page_map_differential_against_hashmap() {
        // Deterministic pseudo-random op stream checked against HashMap.
        let mut m = PageMap::new();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        let mut state = 0x1234_5678_9abc_def0u64;
        for _ in 0..20_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (state >> 32) % 512; // small key space forces collisions
            let op = (state >> 29) & 0x7;
            if op < 5 {
                assert_eq!(m.insert(key, state), reference.insert(key, state));
            } else {
                assert_eq!(m.remove(key), reference.remove(&key));
            }
            assert_eq!(m.len(), reference.len());
        }
        for (&k, &v) in &reference {
            assert_eq!(m.get(k), Some(v));
        }
        let mut collected: Vec<(u64, u64)> = m.iter().collect();
        collected.sort_unstable();
        let mut expected: Vec<(u64, u64)> = reference.iter().map(|(&k, &v)| (k, v)).collect();
        expected.sort_unstable();
        assert_eq!(collected, expected);
    }

    #[test]
    fn page_map_clear_retains_capacity() {
        let mut m = PageMap::with_capacity(100);
        for k in 0..100u64 {
            m.insert(k, k);
        }
        let cap = m.capacity();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.capacity(), cap);
        assert_eq!(m.get(5), None);
        m.insert(5, 7);
        assert_eq!(m.get(5), Some(7));
    }
}
