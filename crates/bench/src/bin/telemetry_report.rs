//! Time-resolved telemetry report (DESIGN.md §13): runs one open-loop
//! cell per system with the windowed-telemetry layer attached and
//! writes the `results/telemetry*` files (see
//! `astriflash_bench::telemetry`).
//!
//! ```text
//! cargo run --release -p astriflash-bench --bin telemetry_report -- [--quick] [--seed N]
//! ```
//!
//! The committed CSV/TXT files are the `--quick` seed-1 run, which
//! `regen telemetry_report` rewrites. The process exits non-zero, and
//! writes nothing, if any window cap was exceeded (`dropped > 0`), the
//! trace ring dropped events or the trace JSON does not parse back: a
//! truncated timeline must not pass CI silently.

use std::process::ExitCode;

use astriflash_bench::{harness_main, telemetry};

fn main() -> ExitCode {
    harness_main(&telemetry::FILES, telemetry::build)
}
