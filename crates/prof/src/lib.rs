//! Host-side self-profiler for the simulator (DESIGN.md §16).
//!
//! Every other observability layer in this workspace (trace spans, phase
//! attribution, telemetry windows) observes *simulated* time. This crate
//! observes the simulator's own *host* time: where the wall-clock goes while
//! the kernel executes, which scopes allocate, and how the hot paths nest.
//!
//! The contract that makes it always-shippable:
//!
//! * **Deterministic-safe.** The profiler only ever *reads* the monotonic
//!   clock (`Instant::now`) on scope enter/exit; nothing it measures feeds
//!   back into simulation decisions, so attaching it leaves every
//!   `RunReport` byte-identical (integration-tested in `astriflash-core`).
//! * **One branch when off.** [`scope`] loads one relaxed `AtomicBool` and
//!   branches; the disabled path performs no clock read, no TLS access and
//!   no allocation. The enabled overhead is the benchmark's
//!   `prof.overhead_pct`, which `perf_gate` caps (DESIGN.md §12).
//! * **Allocation attribution.** [`CountingAlloc`] wraps the system
//!   allocator and charges each allocation to the innermost active scope of
//!   the allocating thread. Binaries opt in with `#[global_allocator]`;
//!   the profiler's own bookkeeping is excluded by construction (it
//!   allocates only while the thread-local state is borrowed, which the
//!   counter detects and skips).
//!
//! # Example
//!
//! ```
//! use astriflash_prof::{begin, scope, Scope};
//! let session = begin();
//! {
//!     let _outer = scope(Scope::EventLoop);
//!     let _inner = scope(Scope::DoAccess);
//! }
//! let report = session.finish();
//! assert_eq!(report.totals(Scope::DoAccess).calls, 1);
//! println!("{}", report.render_tree());
//! ```

mod alloc;
mod report;
mod tree;

pub use alloc::CountingAlloc;
pub use report::{Report, ReportNode, ScopeTotals};
pub use tree::scope;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Static registry of profiled scopes.
///
/// The set is fixed at compile time so a scope reference is one byte, the
/// per-thread tree nodes stay flat, and exports never need string interning.
/// Names (see [`Scope::name`]) are the stable identifiers used in reports,
/// folded stacks and Perfetto tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Scope {
    /// The whole `event_loop()` run of one simulation.
    EventLoop = 0,
    /// Dispatch of a `Resume` event (core slice execution).
    EvResume = 1,
    /// Dispatch of a `PageArrived` event (flash read completion).
    EvPageArrived = 2,
    /// Dispatch of an `Arrival` event (open-loop job arrival).
    EvArrival = 3,
    /// Event-queue pop: entered once per event popped.
    QueueCascade = 4,
    /// Scheduler decision: next thread / new job / park.
    SchedulerPick = 5,
    /// Job generation into a recycled arena slot (`fill_job`).
    FillJob = 6,
    /// An access whose TLB probe missed: TLB fill, page walk and the
    /// memory path (`do_access`).
    DoAccess = 7,
    /// Batched TLB+L1 hit-run interpreter (`do_access_run`).
    AccessRun = 8,
    /// Page-table walk after a TLB miss.
    PtWalk = 9,
    /// DRAM-cache miss handling (admission through resume scheduling).
    MissPath = 10,
    /// Miss-status-register admission (`BlockCache::admit`).
    MsrAdmit = 11,
    /// Flash channel read issue (`FlashDevice::read_bytes_timed`).
    FlashIssue = 12,
    /// Page install into the DRAM cache on flash completion.
    Install = 13,
    /// Waking the threads parked on a completed miss.
    WakeWaiters = 14,
    /// Job completion bookkeeping (latency histograms, throughput).
    CompleteJob = 15,
    /// Flash garbage collection (`FlashDevice::maybe_gc`).
    FlashGc = 16,
}

/// Number of scopes in the registry.
pub const SCOPE_COUNT: usize = 17;

const SCOPE_NAMES: [&str; SCOPE_COUNT] = [
    "event_loop",
    "ev_resume",
    "ev_page_arrived",
    "ev_arrival",
    "queue_cascade",
    "scheduler_pick",
    "fill_job",
    "do_access",
    "access_run",
    "pt_walk",
    "miss_path",
    "msr_admit",
    "flash_issue",
    "install",
    "wake_waiters",
    "complete_job",
    "flash_gc",
];

impl Scope {
    /// Stable identifier used in every export format.
    pub fn name(self) -> &'static str {
        SCOPE_NAMES[self as usize]
    }

    /// All scopes in registry order.
    pub fn all() -> [Scope; SCOPE_COUNT] {
        use Scope::*;
        [
            EventLoop,
            EvResume,
            EvPageArrived,
            EvArrival,
            QueueCascade,
            SchedulerPick,
            FillJob,
            DoAccess,
            AccessRun,
            PtWalk,
            MissPath,
            MsrAdmit,
            FlashIssue,
            Install,
            WakeWaiters,
            CompleteJob,
            FlashGc,
        ]
    }

    pub(crate) fn from_u8(raw: u8) -> Option<Scope> {
        Scope::all().get(raw as usize).copied()
    }
}

pub(crate) static ENABLED: AtomicBool = AtomicBool::new(false);
pub(crate) static EPOCH: AtomicU64 = AtomicU64::new(0);
static SESSION: Mutex<()> = Mutex::new(());
pub(crate) static MERGED: Mutex<Vec<tree::Node>> = Mutex::new(Vec::new());

pub(crate) fn lock_ignoring_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An exclusive profiling session.
///
/// Holding the session keeps profiling enabled; [`Session::finish`] disables
/// it and returns the merged [`Report`]. Sessions are serialized through a
/// process-wide lock so concurrent tests cannot cross-contaminate counts —
/// `begin()` blocks until the previous session ends. Dropping a session
/// without `finish` disables profiling and discards the data.
pub struct Session {
    _guard: MutexGuard<'static, ()>,
    finished: bool,
}

/// Starts a profiling session, clearing any stale state.
///
/// Bumps the global epoch so thread-local trees left over from previous
/// sessions are invalidated lazily on their next use.
pub fn begin() -> Session {
    let guard = lock_ignoring_poison(&SESSION);
    EPOCH.fetch_add(1, Ordering::SeqCst);
    lock_ignoring_poison(&MERGED).clear();
    ENABLED.store(true, Ordering::SeqCst);
    Session {
        _guard: guard,
        finished: false,
    }
}

impl Session {
    /// Stops profiling and returns the merged report.
    ///
    /// Data from worker threads that already exited is merged from their
    /// thread-local drops; the calling thread's tree is flushed here. Any
    /// thread still inside a scope when `finish` runs self-invalidates on
    /// exit (epoch check) rather than corrupting the report.
    pub fn finish(mut self) -> Report {
        ENABLED.store(false, Ordering::SeqCst);
        self.finished = true;
        tree::flush_current_thread();
        let nodes = std::mem::take(&mut *lock_ignoring_poison(&MERGED));
        Report::from_nodes(&nodes)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if !self.finished {
            ENABLED.store(false, Ordering::SeqCst);
        }
    }
}

/// Output format selected by the `ASTRIFLASH_PROFILE` env knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvFormat {
    /// Indented tree with inclusive/exclusive percents.
    Tree,
    /// Folded stacks for flamegraph tooling.
    Folded,
}

/// Parses an `ASTRIFLASH_PROFILE` value.
///
/// Returns the selected format (or `None` for disabled) plus an optional
/// warning for malformed input. Pure so the warning path is unit-testable,
/// mirroring `ASTRIFLASH_THREADS`.
pub fn parse_profile(raw: Option<&str>) -> (Option<EnvFormat>, Option<String>) {
    let Some(raw) = raw else { return (None, None) };
    let value = raw.trim();
    match value.to_ascii_lowercase().as_str() {
        "" | "0" | "off" | "false" | "no" => (None, None),
        "1" | "on" | "true" | "yes" | "tree" => (Some(EnvFormat::Tree), None),
        "folded" => (Some(EnvFormat::Folded), None),
        _ => (
            None,
            Some(format!(
                "ASTRIFLASH_PROFILE: unrecognized value {value:?} \
                 (expected 1|tree|folded or 0|off); profiling disabled"
            )),
        ),
    }
}

/// A whole-process profiling session driven by `ASTRIFLASH_PROFILE`.
///
/// Created at the top of a binary's `main`; prints the report to stderr on
/// drop so it never mixes with the figure/CSV output on stdout. Binaries
/// that run their own sessions (`profile_report`) must not install
/// this — nested sessions would deadlock on the session
/// lock.
pub struct EnvSession {
    session: Option<Session>,
    format: EnvFormat,
}

/// Starts a session if `ASTRIFLASH_PROFILE` asks for one.
///
/// Malformed values print a warning to stderr and leave profiling off.
pub fn env_session() -> Option<EnvSession> {
    let raw = std::env::var("ASTRIFLASH_PROFILE").ok();
    let (format, warning) = parse_profile(raw.as_deref());
    if let Some(w) = warning {
        eprintln!("{w}");
    }
    let format = format?;
    Some(EnvSession {
        session: Some(begin()),
        format,
    })
}

impl Drop for EnvSession {
    fn drop(&mut self) {
        if let Some(session) = self.session.take() {
            let report = session.finish();
            if report.is_empty() {
                eprintln!("ASTRIFLASH_PROFILE: no profiled scopes were entered");
                return;
            }
            match self.format {
                EnvFormat::Tree => {
                    eprintln!("ASTRIFLASH_PROFILE host-time profile:");
                    eprint!("{}", report.render_tree());
                }
                EnvFormat::Folded => eprint!("{}", report.folded()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_names_are_unique_and_match_registry_order() {
        for (i, s) in Scope::all().iter().enumerate() {
            assert_eq!(*s as usize, i);
            assert_eq!(s.name(), SCOPE_NAMES[i]);
        }
        let mut names: Vec<&str> = SCOPE_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SCOPE_COUNT, "duplicate scope name");
    }

    #[test]
    fn parse_profile_accepts_documented_values() {
        assert_eq!(parse_profile(None), (None, None));
        assert_eq!(parse_profile(Some("")), (None, None));
        assert_eq!(parse_profile(Some("0")), (None, None));
        assert_eq!(parse_profile(Some("off")), (None, None));
        assert_eq!(parse_profile(Some("1")), (Some(EnvFormat::Tree), None));
        assert_eq!(parse_profile(Some("TREE")), (Some(EnvFormat::Tree), None));
        assert_eq!(
            parse_profile(Some(" folded ")),
            (Some(EnvFormat::Folded), None)
        );
    }

    #[test]
    fn parse_profile_warns_on_malformed_value() {
        let (format, warning) = parse_profile(Some("flamegraph"));
        assert_eq!(format, None);
        let warning = warning.expect("malformed value must warn");
        assert!(warning.contains("ASTRIFLASH_PROFILE"));
        assert!(warning.contains("flamegraph"));
    }
}
