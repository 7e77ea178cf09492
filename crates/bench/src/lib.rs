//! The harness behind `results/`: the observability artifacts that
//! `regen` commits at `--quick` scale and `trace_run` /
//! `telemetry_report` write at any scale into [`OUT_DIR`], the
//! host-profile helpers of `profile_report`, and their shared argument
//! parser.

#![warn(missing_docs)]

pub mod profile;
pub mod telemetry;
pub mod trace_run;

use std::path::Path;
use std::process::ExitCode;

use astriflash_core::config::SystemConfig;

/// Where `trace_run`, `telemetry_report` and `profile_report` write,
/// relative to the working directory. Only `regen` writes `results/`,
/// so a run at any scale leaves the committed artifacts alone.
pub const OUT_DIR: &str = "target/harness-out";

/// Run scale and seed of a harness run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HarnessOpts {
    /// Reduced-scale run.
    pub quick: bool,
    /// Deterministic seed.
    pub seed: u64,
}

impl HarnessOpts {
    /// Parses `[--quick] [--seed N]` (`args` excludes the program name).
    /// Unknown arguments and seeds that are not a `u64` are errors.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = HarnessOpts {
            quick: false,
            seed: 1,
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => opts.quick = true,
                "--seed" => {
                    let v = args.next().ok_or("--seed needs a value")?;
                    opts.seed = v
                        .parse()
                        .map_err(|_| format!("--seed {v}: not an unsigned integer"))?;
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(opts)
    }

    /// Parses `std::env::args`; on an error prints it with a usage line
    /// and exits with status 2.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        HarnessOpts::parse(&args[1..]).unwrap_or_else(|e| {
            eprintln!("error: {e}\nusage: {} [--quick] [--seed N]", args[0]);
            std::process::exit(2)
        })
    }

    /// The system configuration for this run scale.
    pub fn system_config(&self) -> SystemConfig {
        if self.quick {
            SystemConfig::default().with_cores(4).scaled_for_tests()
        } else {
            SystemConfig::default()
        }
    }

    /// Jobs measured per core for closed-loop runs.
    pub fn jobs_per_core(&self) -> u64 {
        if self.quick {
            80
        } else {
            400
        }
    }
}

/// What one harness run produces.
pub struct Output {
    /// Contents of the harness's `FILES`, in order.
    pub files: Vec<String>,
    /// Files the harness's binary also writes but `regen` does not
    /// commit, as (file name, contents).
    pub uncommitted: Vec<(&'static str, String)>,
    /// Human-readable summary of the run, for stdout.
    pub summary: String,
}

/// Writes `contents` to `path`, creating its parent directories.
pub fn write_file(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, contents)
}

/// The `main` of `trace_run` and `telemetry_report`: parses the
/// arguments, runs `build`, prints its summary and writes its files
/// under [`OUT_DIR`]. Exits 1 if `build` fails one of its checks, and
/// then writes nothing.
pub fn harness_main(files: &[&str], build: fn(&HarnessOpts) -> Result<Output, String>) -> ExitCode {
    // Opt-in host-time self-profile (ASTRIFLASH_PROFILE=tree|folded),
    // reported on stderr when the process exits.
    let _prof = astriflash_prof::env_session();
    let out = match build(&HarnessOpts::from_args()) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", out.summary);
    let committed = files.iter().copied().zip(&out.files);
    let uncommitted = out.uncommitted.iter().map(|(name, c)| (*name, c));
    for (name, contents) in committed.chain(uncommitted) {
        let path = Path::new(OUT_DIR).join(name);
        if let Err(e) = write_file(&path, contents) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {} ({} bytes)", path.display(), contents.len());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<HarnessOpts, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        HarnessOpts::parse(&args)
    }

    #[test]
    fn defaults_are_full_scale_seed_1() {
        let o = parse(&[]).unwrap();
        assert_eq!(
            o,
            HarnessOpts {
                quick: false,
                seed: 1
            }
        );
        assert_eq!(o.system_config().cores, 16);
        assert_eq!(o.jobs_per_core(), 400);
    }

    #[test]
    fn quick_and_seed_parse() {
        let o = parse(&["--seed", "7", "--quick"]).unwrap();
        assert_eq!(
            o,
            HarnessOpts {
                quick: true,
                seed: 7
            }
        );
        assert_eq!(o.system_config().cores, 4);
        assert!(o.jobs_per_core() < 400);
    }

    #[test]
    fn unknown_flags_and_bad_seeds_are_rejected() {
        assert!(parse(&["--quik"]).unwrap_err().contains("--quik"));
        assert!(parse(&["--seed", "x"]).unwrap_err().contains("--seed x"));
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--quick", "extra"]).is_err());
    }
}
