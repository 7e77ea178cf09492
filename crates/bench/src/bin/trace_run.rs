//! Runs one AstriFlash cell with the observability layer enabled and
//! writes `trace_run.json`, `trace_run_gauges.csv` and
//! `trace_run_phases.csv` into `target/harness-out/` (see
//! `astriflash_bench::trace_run`).
//!
//! ```text
//! cargo run --release -p astriflash-bench --bin trace_run -- [--quick] [--seed N]
//! ```
//!
//! The files committed under `results/` are the `--quick` seed-1 run,
//! which only `regen trace_run` writes. The process exits non-zero, and
//! writes nothing, if the JSON does not parse back, the trace ring
//! dropped events or a telemetry window was dropped.

use std::process::ExitCode;

use astriflash_bench::{harness_main, trace_run};

fn main() -> ExitCode {
    harness_main(&trace_run::FILES, trace_run::build)
}
