//! Runs one benchmark workload, or compares two sets of runs.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--smoke]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     compare <parent-dir> <change-dir> [--spec BENCHMARK.json]
//! ```
//!
//! A run prints every metric by name with its unit, then one JSON line
//! with `correct`, `attempted`, `failed` and `metrics`. It exits 1 when
//! any simulated run failed a check and 2 on a usage error.

use std::path::Path;
use std::process::ExitCode;

use astriflash_benchmark::{compare, parse_args, workloads, USAGE};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_main(&args[1..]);
    }
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "astriflash benchmark: workload {} seed {} seconds {} trace {} smoke {} \
         (threads <= {}, available parallelism {})",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.smoke,
        workloads::THREADS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let outcome = workloads::run(&opts);
    print!("{}", outcome.render_text());
    println!("{}", outcome.to_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_main(args: &[String]) -> ExitCode {
    let (dirs, spec_path) = match args {
        [parent, change] => ([parent, change], "BENCHMARK.json"),
        [parent, change, flag, spec] if flag == "--spec" => ([parent, change], spec.as_str()),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let loaded = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("{spec_path}: {e}"))
        .and_then(|spec| compare::declared_end_to_end(&spec))
        .and_then(|declared| {
            let parent = compare::load_runs(Path::new(dirs[0]))?;
            let change = compare::load_runs(Path::new(dirs[1]))?;
            Ok((declared, parent, change))
        });
    match loaded {
        Ok((declared, parent, change)) => {
            let (table, regressed) = compare::render(&declared, &parent, &change);
            print!("{table}");
            if regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}
