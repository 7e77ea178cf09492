//! The simulated flat address space workloads allocate from.
//!
//! The paper maps flash into the physical address space through PCIe BARs
//! (§IV-A); workloads see one flat range of bytes. We never materialize
//! data — only addresses matter to a timing simulation — so allocation is
//! a bump pointer with page/block helpers.

/// Cache-block size in bytes (64 B, Table I).
pub const BLOCK_SIZE: u64 = 64;

/// DRAM-cache / flash page size in bytes (4 KiB, Table I).
pub const PAGE_SIZE: u64 = 4096;

/// A flat simulated address space of a fixed size.
///
/// # Example
///
/// ```
/// use astriflash_workloads::AddressSpace;
/// let space = AddressSpace::new(1 << 30); // 1 GiB dataset
/// assert_eq!(space.num_pages(), (1 << 30) / 4096);
/// assert_eq!(space.page_of(8192), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressSpace {
    size_bytes: u64,
}

impl AddressSpace {
    /// Creates a space of `size_bytes` bytes, rounded up to a whole page.
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes == 0`.
    pub fn new(size_bytes: u64) -> Self {
        assert!(size_bytes > 0, "address space must be non-empty");
        let size_bytes = size_bytes.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        AddressSpace { size_bytes }
    }

    /// Total size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Number of 4 KiB pages.
    pub fn num_pages(&self) -> u64 {
        self.size_bytes / PAGE_SIZE
    }

    /// Number of 64 B blocks.
    pub fn num_blocks(&self) -> u64 {
        self.size_bytes / BLOCK_SIZE
    }

    /// Page number containing `addr`.
    pub fn page_of(&self, addr: u64) -> u64 {
        debug_assert!(addr < self.size_bytes);
        addr / PAGE_SIZE
    }

    /// Whether `addr` lies inside the space.
    pub fn contains(&self, addr: u64) -> bool {
        addr < self.size_bytes
    }
}

/// Bump allocator handing out simulated addresses.
///
/// Data structures call [`SimAlloc::alloc`] for every node/record at build
/// time; the returned addresses drive the access trace. A `shuffle_salt`
/// scatters consecutive allocations across the space at page granularity,
/// mimicking a long-lived heap (so tree levels are not artificially
/// contiguous) while keeping each allocation's *own* bytes contiguous for
/// realistic intra-record spatial locality.
#[derive(Debug, Clone)]
pub struct SimAlloc {
    space: AddressSpace,
    next: u64,
    scatter: bool,
    salt: u64,
}

impl SimAlloc {
    /// Creates an allocator over the whole space, allocating sequentially.
    pub fn sequential(space: AddressSpace) -> Self {
        SimAlloc {
            space,
            next: 0,
            scatter: false,
            salt: 0,
        }
    }

    /// Creates an allocator that scatters allocations across pages, as a
    /// fragmented long-lived heap would.
    pub fn scattered(space: AddressSpace, salt: u64) -> Self {
        SimAlloc {
            space,
            next: 0,
            scatter: true,
            salt,
        }
    }

    /// Allocates `size` bytes, aligned so the allocation never straddles a
    /// page boundary when `size <= PAGE_SIZE`.
    ///
    /// # Panics
    ///
    /// Panics if the space is exhausted, or on a multi-page allocation
    /// from a *scattered* allocator: scattering permutes page numbers,
    /// so only allocations within a single page stay contiguous. Lay
    /// out large regions with a sequential allocator instead.
    pub fn alloc(&mut self, size: u64) -> u64 {
        assert!(size > 0, "zero-size allocation");
        assert!(
            !(self.scatter && size > PAGE_SIZE),
            "scattered allocator cannot serve multi-page allocations ({size} B)"
        );
        let size = size.next_multiple_of(BLOCK_SIZE);
        // Keep sub-page allocations within one page.
        if size <= PAGE_SIZE {
            let offset_in_page = self.next % PAGE_SIZE;
            if offset_in_page + size > PAGE_SIZE {
                self.next = self.next.next_multiple_of(PAGE_SIZE);
            }
        } else {
            self.next = self.next.next_multiple_of(PAGE_SIZE);
        }
        let linear = self.next;
        self.next += size;
        assert!(
            self.next <= self.space.size_bytes(),
            "simulated address space exhausted: {} > {}",
            self.next,
            self.space.size_bytes()
        );
        if self.scatter {
            self.scatter_addr(linear)
        } else {
            linear
        }
    }

    /// Permutes the page number of a linear address with a Feistel-style
    /// mix, preserving the offset within the page. The permutation is a
    /// bijection over pages, so distinct allocations never collide.
    fn scatter_addr(&self, linear: u64) -> u64 {
        let pages = self.space.num_pages();
        let page = linear / PAGE_SIZE;
        let offset = linear % PAGE_SIZE;
        let mixed = permute_page(page, pages, self.salt);
        mixed * PAGE_SIZE + offset
    }

    /// Remaining capacity in bytes.
    pub fn remaining_bytes(&self) -> u64 {
        self.space.size_bytes() - self.next
    }

    /// The underlying address space.
    pub fn space(&self) -> AddressSpace {
        self.space
    }
}

/// Bijective permutation of `page` within `[0, num_pages)` using a
/// cycle-walking Feistel network. Deterministic in `(page, salt)`.
pub fn permute_page(page: u64, num_pages: u64, salt: u64) -> u64 {
    debug_assert!(page < num_pages);
    if num_pages <= 2 {
        return page;
    }
    // Round the domain up to a power of four for a balanced Feistel, then
    // cycle-walk until the output lands back in range.
    let bits = (64 - (num_pages - 1).leading_zeros()).next_multiple_of(2);
    let half = bits / 2;
    let mask = (1u64 << half) - 1;
    let mut x = page;
    loop {
        let mut l = x >> half;
        let mut r = x & mask;
        for round in 0..3u64 {
            let f = (r ^ salt.rotate_left(round as u32 * 17))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(round)
                >> (64 - half);
            let new_r = l ^ (f & mask);
            l = r;
            r = new_r;
        }
        x = (l << half) | r;
        if x < num_pages {
            return x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn space_rounds_to_pages() {
        let s = AddressSpace::new(5000);
        assert_eq!(s.size_bytes(), 8192);
        assert_eq!(s.num_pages(), 2);
        assert_eq!(s.num_blocks(), 128);
    }

    #[test]
    fn page_and_block_mapping() {
        let s = AddressSpace::new(1 << 20);
        assert_eq!(s.page_of(0), 0);
        assert_eq!(s.page_of(4095), 0);
        assert_eq!(s.page_of(4096), 1);
        assert!(s.contains(100));
        assert!(!s.contains(1 << 20));
    }

    #[test]
    fn sequential_alloc_is_dense_and_block_aligned() {
        let mut a = SimAlloc::sequential(AddressSpace::new(1 << 20));
        let x = a.alloc(10);
        let y = a.alloc(10);
        assert_eq!(x, 0);
        assert_eq!(y, 64);
        assert_eq!(x % BLOCK_SIZE, 0);
    }

    #[test]
    fn allocations_never_straddle_pages() {
        let mut a = SimAlloc::sequential(AddressSpace::new(1 << 20));
        for _ in 0..1000 {
            let addr = a.alloc(192);
            assert_eq!(addr / PAGE_SIZE, (addr + 191) / PAGE_SIZE);
        }
    }

    #[test]
    fn scattered_allocs_are_unique_blocks() {
        let mut a = SimAlloc::scattered(AddressSpace::new(1 << 22), 99);
        let mut seen = HashSet::new();
        for _ in 0..10_000 {
            let addr = a.alloc(64);
            assert!(a.space().contains(addr));
            assert!(seen.insert(addr), "duplicate address {addr}");
        }
    }

    #[test]
    fn scattered_allocs_spread_across_pages() {
        // Scattering happens at page granularity: page-sized allocations
        // must land on non-consecutive pages.
        let mut a = SimAlloc::scattered(AddressSpace::new(1 << 24), 7);
        let pages: Vec<u64> = (0..64).map(|_| a.alloc(PAGE_SIZE) / PAGE_SIZE).collect();
        let consecutive = pages.windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert!(consecutive < 8, "pages not scattered: {pages:?}");
        let unique: HashSet<u64> = pages.iter().copied().collect();
        assert_eq!(unique.len(), 64);
    }

    #[test]
    fn sub_page_allocations_share_scattered_pages() {
        // 64 B allocations within one linear page stay together on one
        // (permuted) page — slab-like locality is preserved.
        let mut a = SimAlloc::scattered(AddressSpace::new(1 << 24), 7);
        let p0 = a.alloc(64) / PAGE_SIZE;
        let p1 = a.alloc(64) / PAGE_SIZE;
        assert_eq!(p0, p1);
    }

    #[test]
    fn permute_page_is_bijective() {
        let n = 1000;
        let outputs: HashSet<u64> = (0..n).map(|p| permute_page(p, n, 1234)).collect();
        assert_eq!(outputs.len() as u64, n);
        assert!(outputs.iter().all(|&o| o < n));
    }

    #[test]
    #[should_panic(expected = "multi-page")]
    fn scattered_multi_page_alloc_rejected() {
        let mut a = SimAlloc::scattered(AddressSpace::new(1 << 22), 3);
        a.alloc(PAGE_SIZE + 1);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics() {
        let mut a = SimAlloc::sequential(AddressSpace::new(PAGE_SIZE));
        a.alloc(PAGE_SIZE);
        a.alloc(1);
    }
}
