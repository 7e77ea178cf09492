//! Cells alive at the same time share one build of their dataset, and
//! only while they are alive (DESIGN.md §18). A counting allocator tells
//! a build from a fork: a build allocates the index's node storage, a
//! block larger than anything else `Cell::prepare` allocates; a fork
//! copies none of it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell as StdCell;
use std::sync::Barrier;

use astriflash_core::config::{Configuration, SystemConfig};
use astriflash_core::sweep::Cell;
use astriflash_workloads::{WorkloadKind, WorkloadParams};

thread_local! {
    /// Blocks at least this large count as dataset-sized on this
    /// thread; 0 counts nothing.
    static THRESHOLD: StdCell<usize> = const { StdCell::new(0) };
    /// Dataset-sized blocks this thread allocated.
    static DATASET_BLOCKS: StdCell<u64> = const { StdCell::new(0) };
    /// The largest block this thread allocated.
    static LARGEST: StdCell<usize> = const { StdCell::new(0) };
}

fn note_alloc(size: usize) {
    let threshold = THRESHOLD.with(StdCell::get);
    if threshold > 0 && size >= threshold {
        DATASET_BLOCKS.with(|n| n.set(n.get() + 1));
    }
    LARGEST.with(|l| l.set(l.get().max(size)));
}

struct CountDatasetBlocks;

unsafe impl GlobalAlloc for CountDatasetBlocks {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountDatasetBlocks = CountDatasetBlocks;

/// Masstree over a 32 MiB dataset: its node storage (~3.5 MB) is the
/// largest block `Cell::prepare` allocates.
fn cfg() -> SystemConfig {
    let mut cfg = SystemConfig::default()
        .with_cores(2)
        .scaled_for_tests()
        .with_workload(WorkloadKind::Masstree);
    cfg.workload_params = WorkloadParams::tiny_for_tests().with_dataset_bytes(32 << 20);
    cfg
}

/// Runs `f` on this thread and returns what it returned, with the
/// largest block it allocated.
fn largest_block<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.with(|l| l.set(0));
    let r = f();
    (r, LARGEST.with(StdCell::get))
}

/// The size of the largest block a build of the dataset allocates: its
/// node storage.
fn dataset_block(cfg: &SystemConfig) -> usize {
    let (engine, block) = largest_block(|| cfg.workload.build(&cfg.workload_params, 1));
    drop(engine);
    block
}

/// Runs `f` on this thread and returns what it returned, with how many
/// dataset-sized blocks it allocated.
fn dataset_blocks<R>(threshold: usize, f: impl FnOnce() -> R) -> (R, u64) {
    THRESHOLD.with(|t| t.set(threshold));
    DATASET_BLOCKS.with(|n| n.set(0));
    let r = f();
    THRESHOLD.with(|t| t.set(0));
    (r, DATASET_BLOCKS.with(StdCell::get))
}

#[test]
fn a_prepare_forks_while_a_cell_of_its_key_is_alive() {
    let cfg = cfg();
    let threshold = dataset_block(&cfg);
    // A seed no other test in this binary uses.
    let cell = |conf| Cell::closed(cfg.clone(), conf, 41, 20);

    let (first, built) = dataset_blocks(threshold, || cell(Configuration::AstriFlash).prepare());
    assert_eq!(built, 1, "the first prepare builds the dataset");
    let (second, largest) = largest_block(|| cell(Configuration::FlashSync).prepare());
    assert!(
        largest < threshold,
        "a prepare while a fork is alive allocated a {largest} B block \
         (the dataset's is {threshold} B)"
    );

    drop((first, second));
    let (_third, built) = dataset_blocks(threshold, || cell(Configuration::AstriFlash).prepare());
    assert_eq!(
        built, 1,
        "with no fork alive, the next prepare builds again"
    );
}

#[test]
fn concurrent_prepares_of_one_key_build_once() {
    let cfg = cfg();
    let threshold = dataset_block(&cfg);
    let start = Barrier::new(2);
    let builds: u64 = std::thread::scope(|s| {
        let workers = [Configuration::AstriFlash, Configuration::OsSwap].map(|conf| {
            let (cfg, start) = (&cfg, &start);
            s.spawn(move || {
                let cell = Cell::closed(cfg.clone(), conf, 42, 20);
                start.wait();
                let (prepared, blocks) = dataset_blocks(threshold, || cell.prepare());
                // Both stay alive until both have prepared.
                start.wait();
                drop(prepared);
                blocks
            })
        });
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    assert_eq!(
        builds, 1,
        "two concurrent prepares of one key built {builds} times"
    );
}
