//! Copy-on-write node storage for the indexes a run changes (DESIGN.md
//! §18).

use std::sync::Arc;

/// `chunk_at` mark of a chunk still read from the shared base.
const SHARED: u32 = u32::MAX;

/// A growable array whose clones share storage until they write it.
///
/// Until [`CowVec::freeze`], it is a plain vector: `own` holds every
/// element in order and `chunk_at` is empty, so a build pays one
/// predictable branch per access. Freezing moves `own` into `base`,
/// shared by every clone, without copying it. From there elements sit in
/// chunks of about 4 KiB, each either in `base` or, once written, in
/// `own`, this value's private copies; `chunk_at` says which. A clone
/// copies only that table, and a write copies only the chunk it lands
/// in, once.
#[derive(Debug, Clone)]
pub(crate) struct CowVec<T> {
    base: Arc<Vec<T>>,
    own: Vec<T>,
    /// Per chunk: [`SHARED`], or the index of its first element in `own`.
    /// Empty until frozen.
    chunk_at: Vec<u32>,
    len: usize,
}

impl<T: Copy> CowVec<T> {
    /// Elements per chunk: the largest power of two that fits in 4 KiB
    /// (one at least).
    const CHUNK: usize = {
        let fit = 4096 / std::mem::size_of::<T>();
        if fit <= 1 {
            1
        } else {
            1 << (usize::BITS - 1 - fit.leading_zeros())
        }
    };

    /// An empty array with room for `capacity` elements before any
    /// storage moves.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        CowVec {
            base: Arc::default(),
            own: Vec::with_capacity(capacity.next_multiple_of(Self::CHUNK)),
            chunk_at: Vec::new(),
            len: 0,
        }
    }

    /// `len` copies of `value`.
    pub(crate) fn from_elem(value: T, len: usize) -> Self {
        CowVec {
            base: Arc::default(),
            own: vec![value; len.next_multiple_of(Self::CHUNK)],
            chunk_at: Vec::new(),
            len,
        }
    }

    fn offset(index: usize) -> u32 {
        u32::try_from(index)
            .ok()
            .filter(|&at| at != SHARED)
            .expect("CowVec holds fewer than 2^32 - 1 elements")
    }

    /// Number of elements.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The element at `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> &T {
        debug_assert!(i < self.len, "index {i} out of 0..{}", self.len);
        if self.chunk_at.is_empty() {
            return &self.own[i];
        }
        let at = self.chunk_at[i / Self::CHUNK];
        if at == SHARED {
            &self.base[i]
        } else {
            &self.own[at as usize + i % Self::CHUNK]
        }
    }

    /// The element at `i`, writable; copies its chunk first if it is
    /// still shared.
    #[inline]
    pub(crate) fn get_mut(&mut self, i: usize) -> &mut T {
        debug_assert!(i < self.len, "index {i} out of 0..{}", self.len);
        self.slot_mut(i)
    }

    #[inline]
    fn slot_mut(&mut self, i: usize) -> &mut T {
        if self.chunk_at.is_empty() {
            return &mut self.own[i];
        }
        let c = i / Self::CHUNK;
        if self.chunk_at[c] == SHARED {
            self.chunk_at[c] = Self::offset(self.own.len());
            let start = c * Self::CHUNK;
            self.own
                .extend_from_slice(&self.base[start..start + Self::CHUNK]);
        }
        &mut self.own[self.chunk_at[c] as usize + i % Self::CHUNK]
    }

    /// Appends `value`.
    pub(crate) fn push(&mut self, value: T) {
        if self.len.is_multiple_of(Self::CHUNK) {
            if !self.chunk_at.is_empty() {
                self.chunk_at.push(Self::offset(self.own.len()));
            }
            self.own.resize(self.own.len() + Self::CHUNK, value);
        } else {
            *self.slot_mut(self.len) = value;
        }
        self.len += 1;
    }

    /// Makes every element shared: moves `own` into `base`, so clones
    /// made from here on share it.
    ///
    /// # Panics
    ///
    /// Panics if the array was frozen before.
    pub(crate) fn freeze(&mut self) {
        assert!(self.chunk_at.is_empty(), "a CowVec freezes once");
        self.chunk_at = vec![SHARED; self.own.len() / Self::CHUNK];
        self.base = Arc::new(std::mem::take(&mut self.own));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_are_at_most_a_page() {
        assert_eq!(CowVec::<[u32; 3]>::CHUNK, 256);
        assert_eq!(CowVec::<[u8; 264]>::CHUNK, 8);
        assert_eq!(CowVec::<[u8; 8192]>::CHUNK, 1);
    }

    #[test]
    fn clones_share_until_written() {
        let mut v = CowVec::with_capacity(3000);
        for i in 0..3000u64 {
            v.push(i);
        }
        v.freeze();
        let mut fork = v.clone();
        assert!(Arc::ptr_eq(&v.base, &fork.base));
        *fork.get_mut(1000) = 7;
        fork.push(3000);
        assert_eq!(*fork.get(1000), 7);
        assert_eq!(*v.get(1000), 1000);
        assert_eq!(fork.len(), 3001);
        assert_eq!(v.len(), 3000);
        // One chunk copied by the write, one by the push into the
        // shared last chunk.
        assert_eq!(fork.own.len(), 2 * CowVec::<u64>::CHUNK);
        for i in (0..3000).filter(|&i| i != 1000) {
            assert_eq!(fork.get(i), v.get(i));
        }
    }

    #[test]
    fn freeze_moves_without_copying() {
        let mut v = CowVec::from_elem(1u32, 5000);
        *v.get_mut(4999) = 2;
        let data = v.own.as_ptr();
        v.freeze();
        assert_eq!(v.base.as_ptr(), data);
        assert_eq!(*v.get(4999), 2);
        assert!(v.own.is_empty());
    }

    #[test]
    #[should_panic(expected = "freezes once")]
    fn second_freeze_is_rejected() {
        let mut v = CowVec::from_elem(0u8, 10);
        v.freeze();
        v.freeze();
    }
}
