//! Pins the zero-steady-state-allocation claim (DESIGN.md §14) with the
//! counting allocator instead of code inspection, for every workload
//! engine: index churn (Masstree's remove + insert, RBT's delete +
//! reinsert) runs inside `fill_job`, so a dataset structure that
//! allocates per insert shows up here (DESIGN.md §17).
//!
//! Differential shape: two closed-loop runs with the same seed and config
//! differ only in their job target, so the longer run's extra work is pure
//! steady state. If the job pipeline, event queue and miss path truly stop
//! allocating once warm, every hot scope's allocation counters must be
//! *exactly* equal across the two runs — any hot-path allocation that
//! sneaks back in makes the longer run allocate more and fails the assert.

#[global_allocator]
static ALLOC: astriflash_prof::CountingAlloc = astriflash_prof::CountingAlloc;

use astriflash_core::config::{Configuration, SystemConfig};
use astriflash_core::sweep::Cell;
use astriflash_prof::Scope;
use astriflash_workloads::WorkloadKind;

/// Scopes where the §14 claim is *strict*: more work must change
/// nothing — not one allocation, not one byte. `scheduler_pick` is in this
/// set because `NotificationQueue::drain` drains the ring in place, and
/// `miss_path` because a switch-on-miss parks the thread without
/// touching the heap. `msr_admit` is strict too, except for the kinds
/// in [`MSR_PEAK_KINDS`]. `install` is strict because the FTL's tables
/// are sized by the flash geometry and made when the system is built,
/// so a dirty writeback never allocates, and `queue_cascade` because an
/// event-queue pop only shrinks the heap (which is born with room for
/// every event a run can have pending, so no schedule grows it either).
const STRICT_SCOPES: [Scope; 9] = [
    Scope::QueueCascade,
    Scope::SchedulerPick,
    Scope::CompleteJob,
    Scope::DoAccess,
    Scope::AccessRun,
    Scope::PtWalk,
    Scope::MissPath,
    Scope::MsrAdmit,
    Scope::Install,
];

/// Scopes whose buffers ratchet to a high-water mark: a job larger than
/// every predecessor grows its recycled arena slot. Growth is
/// amortized-zero (bounded by the high-water mark, never per-op), so the
/// differential check bounds the *extra* allocations instead of
/// demanding equality.
const RATCHET_SCOPES: [(Scope, u64); 1] = [(Scope::FillJob, 16)];

/// Kinds whose longer run drives the MSR to a new peak occupancy (TPCC:
/// 11 -> 13 concurrent misses at the targets below). Each new peak entry
/// takes a fresh waiter list from an empty pool, so for these kinds
/// `msr_admit` is a ratchet scope with [`MSR_PEAK_SLACK`], and the test
/// asserts the peak really rose. Every other kind keeps `msr_admit`
/// strict.
const MSR_PEAK_KINDS: [WorkloadKind; 1] = [WorkloadKind::Tpcc];
const MSR_PEAK_SLACK: u64 = 8;

/// Job targets of the two runs. The short run is long enough for the
/// per-slot buffers of the 32 recycled job slots to reach most of their
/// high-water marks. The long run's extra 200 jobs per core hold about 70
/// Masstree churn inserts, so an allocation per insert overshoots the
/// ratchet slack several times over.
const SHORT_JOBS: u64 = 200;
const LONG_JOBS: u64 = 400;

/// Per-scope allocation totals of one run and the MSR's peak occupancy.
fn hot_allocs(kind: WorkloadKind, jobs_per_core: u64) -> (astriflash_prof::Report, u64) {
    let prepared = Cell::closed(
        SystemConfig::default()
            .with_cores(2)
            .scaled_for_tests()
            .with_workload(kind),
        Configuration::AstriFlash,
        9,
        jobs_per_core,
    )
    .prepare();
    // The session opens after prepare() so construction and DRAM prewarm
    // are excluded: only the run itself is attributed.
    let session = astriflash_prof::begin();
    let report = prepared.run();
    assert!(
        report.jobs_completed >= jobs_per_core,
        "{kind} missed its job target"
    );
    let msr_peak = report
        .metrics
        .count("msr_max_occupancy")
        .expect("run reports its MSR peak");
    (session.finish(), msr_peak)
}

#[test]
fn hot_paths_do_not_allocate_at_steady_state() {
    for kind in WorkloadKind::all() {
        assert_steady_state_allocation_free(kind);
    }
}

fn assert_steady_state_allocation_free(kind: WorkloadKind) {
    let (short, short_peak) = hot_allocs(kind, SHORT_JOBS);
    let (long, long_peak) = hot_allocs(kind, LONG_JOBS);
    let msr_ratchets = MSR_PEAK_KINDS.contains(&kind);
    let mut ratchets = RATCHET_SCOPES.to_vec();
    if msr_ratchets {
        assert!(
            long_peak > short_peak,
            "{kind}: MSR peak occupancy no longer rises ({short_peak} -> {long_peak}); \
             drop it from MSR_PEAK_KINDS so msr_admit is checked strictly"
        );
        ratchets.push((Scope::MsrAdmit, MSR_PEAK_SLACK));
    }
    // Warm-up growth (arena buffers reaching capacity) is identical in
    // both runs — same seed, same config, so the short run is
    // a prefix of the long one. Equality therefore means the extra
    // steady-state portion allocated nothing.
    for scope in STRICT_SCOPES {
        if msr_ratchets && scope == Scope::MsrAdmit {
            continue;
        }
        let (s, l) = (short.totals(scope), long.totals(scope));
        assert_eq!(
            (s.alloc_calls, s.alloc_bytes),
            (l.alloc_calls, l.alloc_bytes),
            "{kind}: steady-state allocation regression in {:?}: raising the \
             job target changed its (alloc_calls, alloc_bytes)",
            scope.name()
        );
    }
    // Ratchet scopes: the longer run may push a buffer to a new
    // high-water mark a handful of times, but never once per job/event —
    // a per-op allocation would add hundreds of calls here, not single
    // digits.
    for (scope, slack) in ratchets {
        let (s, l) = (short.totals(scope), long.totals(scope));
        assert!(
            l.alloc_calls <= s.alloc_calls + slack,
            "{kind}: {:?} allocated per-op, not per-high-water-mark: {} -> {} \
             calls when the job target rose (slack {})",
            scope.name(),
            s.alloc_calls,
            l.alloc_calls,
            slack
        );
    }
    // Sanity: the counting allocator is live — the warm-up portion of the
    // job pipeline must have allocated something (first-use arena growth).
    assert!(
        short.totals(Scope::FillJob).alloc_calls > 0,
        "{kind}: no allocations attributed at all: is the counting allocator installed?"
    );
}
