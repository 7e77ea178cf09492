//! A dataset build allocates only what its engine keeps. A large
//! temporary freed in the middle of a build leaves a hole in the heap;
//! allocations made while the engine runs settle in it and split it, so
//! the next build of the same engine lands elsewhere and the process's
//! peak memory varies from run to run (DESIGN.md §17).
//!
//! Every kind is held to this: the RBT build shuffles its keys inside
//! the tree's own nodes instead of a 10 MB list, the B+-trees reserve
//! their node storage up front instead of growing it, and freezing an
//! index into the storage that forks share moves it without a copy
//! (DESIGN.md §18).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use astriflash_workloads::{WorkloadKind, WorkloadParams};

/// Blocks at least this large count as dataset-sized.
const LARGE: usize = 1 << 20;

thread_local! {
    /// Whether this thread's large frees are being counted.
    static WATCHING: Cell<bool> = const { Cell::new(false) };
    /// Large blocks this thread gave back while watched: freed, or moved
    /// by a reallocation.
    static LARGE_FREES: Cell<u64> = const { Cell::new(0) };
}

fn note_large_free(size: usize) {
    if size >= LARGE && WATCHING.with(Cell::get) {
        LARGE_FREES.with(|n| n.set(n.get() + 1));
    }
}

struct CountLargeFrees;

unsafe impl GlobalAlloc for CountLargeFrees {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_large_free(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if moved != ptr {
            note_large_free(layout.size());
        }
        moved
    }
}

#[global_allocator]
static ALLOC: CountLargeFrees = CountLargeFrees;

/// Large blocks `kind`'s build gives back at the default scale, not
/// counting the engine's own drop.
fn large_frees_of_build(kind: WorkloadKind) -> u64 {
    let params = WorkloadParams::scaled_down();
    LARGE_FREES.with(|n| n.set(0));
    WATCHING.with(|w| w.set(true));
    let engine = kind.build(&params, 3);
    WATCHING.with(|w| w.set(false));
    drop(engine);
    LARGE_FREES.with(Cell::get)
}

#[test]
fn builds_free_no_large_block() {
    for kind in WorkloadKind::all() {
        let freed = large_frees_of_build(kind);
        assert_eq!(
            freed, 0,
            "the {kind} build gave back {freed} blocks of {LARGE} B or more"
        );
    }
}
