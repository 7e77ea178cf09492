//! Counting global-allocator wrapper.
//!
//! [`CountingAlloc`] forwards every call to the system allocator and, when
//! a profiling session is active, charges the allocation to the innermost
//! active scope of the allocating thread. `realloc` growth is charged as
//! one event for the grown delta; frees are not tracked (the profiler
//! answers "who allocates on the hot path", not "what is live").
//!
//! Binaries opt in explicitly:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: astriflash_prof::CountingAlloc = astriflash_prof::CountingAlloc;
//! ```
//!
//! Safety against re-entrancy: the attribution path never allocates, uses
//! `LocalKey::try_with` (TLS teardown) and `try_borrow_mut` (skips
//! allocations made by the profiler itself while its thread state is
//! borrowed), so installing the wrapper cannot recurse or deadlock.

use std::alloc::{GlobalAlloc, Layout, System};

/// System-allocator wrapper that attributes allocations to profiler scopes.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            crate::tree::note_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            crate::tree::note_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() && new_size > layout.size() {
            crate::tree::note_alloc((new_size - layout.size()) as u64);
        }
        new_ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}
