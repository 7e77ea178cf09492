//! End-to-end and per-layer benchmark of the AstriFlash simulator.
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! how to compare two commits.

pub mod calibrate;
pub mod check;
pub mod compare;
pub mod fig9;
pub mod layers;
pub mod report;
pub mod summary;
pub mod workloads;

use workloads::{Opts, Workload};

/// Command-line usage.
pub const USAGE: &str = "\
usage: astriflash-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]
       astriflash-benchmark compare <parent-dir> <change-dir> [--spec <BENCHMARK.json>]
workloads: fig9_sweep tatp_steady hashtable_flash hashtable_dram tatp_open_telemetry";

/// Parses the run options (everything after the program name).
pub fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut opts = Opts {
        workload: Workload::TatpSteady,
        seed: 1,
        seconds: 15.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0 && *s <= 600.0)
                    .ok_or(format!("bad --seconds {value:?} (0 to 600)"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_full_command_line() {
        let o = parse_args(&args(
            "--workload hashtable_dram --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(o.workload, Workload::HashtableDram);
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.smoke),
            (7, 10.0, true, false)
        );
    }

    #[test]
    fn defaults_and_smoke() {
        let o = parse_args(&args("--smoke --workload fig9_sweep")).expect("valid");
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.smoke),
            (1, 15.0, false, true)
        );
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "",
            "--workload nope",
            "--workload tatp_steady --seed -1",
            "--workload tatp_steady --trace 2",
            "--workload tatp_steady --seconds NaN",
            "--workload tatp_steady --seconds",
            "--workload tatp_steady --quick 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} accepted");
        }
    }
}
