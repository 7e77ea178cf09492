//! Exact page-granularity LRU. The DRAM-cache prewarm replays a batch
//! of jobs through one to choose the pages it installs, and Fig. 1's
//! one-pass miss ratios are tested against it.
//!
//! Implemented as a hash map plus an intrusive doubly-linked list over a
//! slot arena, so a replay of millions of accesses is O(1) per access.

use crate::page_hash::PageHashMap;

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Slot {
    page: u64,
    prev: u32,
    next: u32,
}

/// An exact LRU cache over page numbers.
///
/// # Example
///
/// ```
/// use astriflash_mem::PageLru;
/// let mut lru = PageLru::new(2);
/// assert!(!lru.access(1));
/// assert!(!lru.access(2));
/// assert!(lru.access(1));       // hit; 1 becomes MRU
/// assert!(!lru.access(3));      // evicts 2
/// assert!(!lru.access(2));
/// ```
#[derive(Debug)]
pub struct PageLru {
    map: PageHashMap<u32>,
    slots: Vec<Slot>,
    head: u32, // MRU
    tail: u32, // LRU
    capacity: usize,
}

impl PageLru {
    /// Creates a cache holding `capacity_pages` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_pages == 0`.
    pub fn new(capacity_pages: usize) -> Self {
        assert!(capacity_pages > 0);
        PageLru {
            map: PageHashMap::with_capacity_and_hasher(
                capacity_pages.min(1 << 22),
                Default::default(),
            ),
            slots: Vec::with_capacity(capacity_pages.min(1 << 22)),
            head: NIL,
            tail: NIL,
            capacity: capacity_pages,
        }
    }

    fn unlink(&mut self, idx: u32) {
        let Slot { prev, next, .. } = self.slots[idx as usize];
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        self.slots[idx as usize].prev = NIL;
        self.slots[idx as usize].next = self.head;
        if self.head != NIL {
            self.slots[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Accesses `page`; returns whether it hit. Misses install the page,
    /// evicting the LRU page if at capacity.
    pub fn access(&mut self, page: u64) -> bool {
        if let Some(&idx) = self.map.get(&page) {
            if self.head != idx {
                self.unlink(idx);
                self.push_front(idx);
            }
            return true;
        }
        let idx = if self.map.len() >= self.capacity {
            // Reuse the LRU slot.
            let idx = self.tail;
            let victim = self.slots[idx as usize].page;
            self.unlink(idx);
            self.map.remove(&victim);
            self.slots[idx as usize].page = page;
            idx
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(Slot {
                page,
                prev: NIL,
                next: NIL,
            });
            idx
        };
        self.map.insert(page, idx);
        self.push_front(idx);
        false
    }

    /// Whether `page` is resident (no LRU update).
    pub fn contains(&self, page: u64) -> bool {
        self.map.contains_key(&page)
    }

    /// Resident page count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_lru_behavior() {
        let mut c = PageLru::new(3);
        assert!(!c.access(1));
        assert!(!c.access(2));
        assert!(!c.access(3));
        assert!(c.access(1)); // order now 1,3,2 (MRU..LRU)
        assert!(!c.access(4)); // evicts 2
        assert!(!c.contains(2));
        assert!(c.contains(1) && c.contains(3) && c.contains(4));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn single_entry_cache() {
        let mut c = PageLru::new(1);
        assert!(!c.access(5));
        assert!(c.access(5));
        assert!(!c.access(6));
        assert!(!c.contains(5));
    }

    #[test]
    fn matches_naive_lru_reference() {
        // Differential test against an O(n) reference implementation.
        let mut fast = PageLru::new(8);
        let mut naive: Vec<u64> = Vec::new(); // MRU at front
        let mut x = 7u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let page = (x >> 33) % 24;
            let fast_hit = fast.access(page);
            let naive_hit = if let Some(pos) = naive.iter().position(|&p| p == page) {
                naive.remove(pos);
                naive.insert(0, page);
                true
            } else {
                naive.insert(0, page);
                naive.truncate(8);
                false
            };
            assert_eq!(fast_hit, naive_hit, "divergence on page {page}");
        }
    }

    #[test]
    fn scan_larger_than_cache_always_misses() {
        let mut c = PageLru::new(4);
        for round in 0..3 {
            for p in 0..8u64 {
                assert!(!c.access(p), "round {round} page {p}");
            }
        }
    }
}
