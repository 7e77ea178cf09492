//! Time-resolved telemetry report (DESIGN.md §13): runs one open-loop
//! cell per system with the windowed-telemetry layer attached and
//! writes the `telemetry*` files into `target/harness-out/` (see
//! `astriflash_bench::telemetry`).
//!
//! ```text
//! cargo run --release -p astriflash-bench --bin telemetry_report -- [--quick] [--seed N]
//! ```
//!
//! The CSV/TXT files committed under `results/` are the `--quick`
//! seed-1 run, which only `regen telemetry_report` writes. The process
//! exits non-zero, and writes nothing, if any window cap was exceeded
//! (`dropped > 0`), the trace ring dropped events or the trace JSON
//! does not parse back: a truncated timeline must not pass CI silently.

use std::process::ExitCode;

use astriflash_bench::{harness_main, telemetry};

fn main() -> ExitCode {
    harness_main(&telemetry::FILES, telemetry::build)
}
