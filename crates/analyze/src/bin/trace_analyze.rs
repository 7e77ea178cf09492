//! Offline cross-validation of the latency-attribution pipeline.
//!
//! Reads the two artifacts `trace_run` writes:
//!
//! * `results/trace_run.json` — the Perfetto trace, from which this
//!   tool *independently* reconstructs the per-phase miss-latency
//!   breakdown (no shared code with the simulator's in-line
//!   accounting);
//! * `results/trace_run_phases.csv` — the in-sim breakdown of the same
//!   run.
//!
//! It prints both side by side and exits non-zero if they disagree on
//! any phase's count, sum, or p50/p95/p99/p99.9 — or if the trace ring
//! dropped events (a sheared trace cannot validate anything).
//!
//! ```text
//! cargo run --release -p astriflash-analyze --bin trace_analyze
//! cargo run --release -p astriflash-analyze --bin trace_analyze -- \
//!     my.json my_phases.csv
//! ```

use std::process::ExitCode;

use astriflash_analyze::{parse, reconstruct_json};
use astriflash_stats::{Phase, PhaseSet, TextTable};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let json_path = args
        .next()
        .unwrap_or_else(|| "results/trace_run.json".to_string());
    let csv_path = args
        .next()
        .unwrap_or_else(|| "results/trace_run_phases.csv".to_string());

    let raw = match std::fs::read_to_string(&json_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: reading {json_path}: {e} (run trace_run first)");
            return ExitCode::FAILURE;
        }
    };
    let doc = match parse(&raw) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: parsing {json_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (recon, dropped) = match reconstruct_json(&doc) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: reconstructing lifecycles from {json_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let in_sim = match read_phases_csv(&csv_path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: reading {csv_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut table = TextTable::new(&[
        "phase", "count", "sum_ns", "p50_ns", "p95_ns", "p99_ns", "p999_ns", "trace_p99_ns",
    ]);
    for phase in Phase::all() {
        let (count, sum, pcts) = in_sim.row(phase);
        table.row_owned(vec![
            phase.label().to_string(),
            format!("{count}"),
            format!("{sum}"),
            format!("{}", pcts[0]),
            format!("{}", pcts[1]),
            format!("{}", pcts[2]),
            format!("{}", pcts[3]),
            format!("{}", recon.phases.percentiles(phase)[2]),
        ]);
    }
    print!("{}", table.render());
    println!(
        "trace: {} spans, {} completed lifecycles, {} skipped (no arrival)",
        recon.spans_total, recon.spans_completed, recon.spans_skipped
    );

    if dropped > 0 {
        eprintln!(
            "error: trace marked {dropped} dropped events; cross-validation \
             on a sheared trace is meaningless"
        );
        return ExitCode::FAILURE;
    }
    match cross_validate_csv(&in_sim, &recon.phases) {
        Ok(()) => {
            println!("cross-validation passed: trace and in-sim breakdowns agree exactly");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The in-sim breakdown as read from `trace_run_phases.csv`: per phase,
/// `(count, sum_ns, [p50, p95, p99, p999])`.
struct CsvPhases {
    rows: Vec<(Phase, u64, u128, [u64; 4])>,
}

impl CsvPhases {
    fn row(&self, phase: Phase) -> (u64, u128, [u64; 4]) {
        self.rows
            .iter()
            .find(|(p, ..)| *p == phase)
            .map(|&(_, c, s, pc)| (c, s, pc))
            .unwrap_or((0, 0, [0; 4]))
    }
}

fn read_phases_csv(path: &str) -> Result<CsvPhases, String> {
    let raw = std::fs::read_to_string(path)
        .map_err(|e| format!("{e} (run trace_run first)"))?;
    let mut lines = raw.lines();
    let header = lines.next().ok_or("empty file")?;
    if !header.starts_with("phase,count,sum_ns") {
        return Err(format!("unexpected header {header:?}"));
    }
    let mut rows = Vec::new();
    for (i, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() < 8 {
            return Err(format!("row {i}: expected 8 fields, got {}", fields.len()));
        }
        let phase = Phase::from_label(fields[0])
            .ok_or_else(|| format!("row {i}: unknown phase {:?}", fields[0]))?;
        let parse_u64 = |s: &str, what: &str| {
            s.parse::<u64>()
                .map_err(|_| format!("row {i}: bad {what} {s:?}"))
        };
        let count = parse_u64(fields[1], "count")?;
        let sum = fields[2]
            .parse::<u128>()
            .map_err(|_| format!("row {i}: bad sum_ns {:?}", fields[2]))?;
        let pcts = [
            parse_u64(fields[3], "p50")?,
            parse_u64(fields[4], "p95")?,
            parse_u64(fields[5], "p99")?,
            parse_u64(fields[6], "p999")?,
        ];
        rows.push((phase, count, sum, pcts));
    }
    Ok(CsvPhases { rows })
}

/// Like [`astriflash_analyze::cross_validate`] but with the in-sim side
/// pre-summarised (the CSV carries counts/sums/percentiles, not raw
/// histograms).
fn cross_validate_csv(in_sim: &CsvPhases, recon: &PhaseSet) -> Result<(), String> {
    let mut problems = Vec::new();
    for phase in Phase::all() {
        let (count, sum, pcts) = in_sim.row(phase);
        let h = recon.hist(phase);
        if count != h.count() {
            problems.push(format!(
                "{phase}: count in-sim {count} != trace {}",
                h.count()
            ));
        }
        if sum != h.sum() {
            problems.push(format!("{phase}: sum_ns in-sim {sum} != trace {}", h.sum()));
        }
        let rp = recon.percentiles(phase);
        for (name, (a, b)) in ["p50", "p95", "p99", "p999"]
            .iter()
            .zip(pcts.into_iter().zip(rp))
        {
            if a != b {
                problems.push(format!("{phase}: {name} in-sim {a} != trace {b}"));
            }
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "phase attribution cross-validation failed:\n  {}",
            problems.join("\n  ")
        ))
    }
}
