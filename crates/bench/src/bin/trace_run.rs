//! Runs one AstriFlash cell with the observability layer enabled and
//! writes `results/trace_run.json`, `results/trace_run_gauges.csv` and
//! `results/trace_run_phases.csv` (see `astriflash_bench::trace_run`).
//!
//! ```text
//! cargo run --release -p astriflash-bench --bin trace_run -- [--quick] [--seed N]
//! ```
//!
//! The committed files are the `--quick` seed-1 run, which
//! `regen trace_run` rewrites. The process exits non-zero, and writes
//! nothing, if the JSON does not parse back or the trace ring dropped
//! events.

use std::process::ExitCode;

use astriflash_bench::{harness_main, trace_run};

fn main() -> ExitCode {
    harness_main(&trace_run::FILES, trace_run::build)
}
