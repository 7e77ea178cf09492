//! Measured host profile of one figure cell (DESIGN.md §16), for
//! `profile_report`.

use std::time::Instant;

use astriflash_core::config::{Configuration, SystemConfig};
use astriflash_core::experiment::RunReport;
use astriflash_core::sweep::Cell;
use astriflash_prof::Report;

/// One profiled figure-cell run: its wall clock, the simulation's own
/// report, and the measured scope tree.
pub struct MeasuredProfile {
    /// Host wall-clock nanoseconds of the event loop (setup excluded).
    pub wall_ns: f64,
    /// The run's `RunReport`.
    pub run: RunReport,
    /// The measured scope tree.
    pub profile: Report,
}

/// Runs one closed-loop cell with a profiling session attached around
/// the event loop only: `Cell::prepare` (construction + DRAM prewarm)
/// stays outside both the clock and the session.
///
/// Takes the process-wide profiling session for the duration — callers
/// must not already hold one (e.g. via `astriflash_prof::env_session`).
pub fn profile_cell(
    sys: SystemConfig,
    configuration: Configuration,
    jobs_per_core: u64,
) -> MeasuredProfile {
    let cell = Cell::closed(sys, configuration, 1, jobs_per_core);
    let prepared = cell.prepare();
    let session = astriflash_prof::begin();
    let start = Instant::now();
    let run = prepared.run();
    let wall_ns = start.elapsed().as_nanos() as f64;
    let profile = session.finish();
    MeasuredProfile {
        wall_ns,
        run,
        profile,
    }
}
