//! The five workloads and the protocol that measures the four steady
//! ones. `fig9_sweep` has its own protocol in [`crate::fig9`].
//!
//! Every workload runs `SystemConfig::default()` (16 cores, 2 GiB
//! dataset, 3 % DRAM cache) and drives the simulator only through
//! `Cell::prepare`, `PreparedRun::run`, `Sweep::map`,
//! `WorkloadKind::build` and `astriflash_prof::begin`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use astriflash_core::config::{Configuration, SystemConfig};
use astriflash_core::sweep::Cell;
use astriflash_core::{Load, RunReport, TelemetryCfg};
use astriflash_prof::Report as ProfReport;
use astriflash_workloads::{WorkloadKind, WorkloadParams};

use crate::calibrate::Calibration;
use crate::check::{self, Checker};
use crate::layers::{overhead_pct, report_metric, Layers};
use crate::report::{Outcome, Stat};
use crate::summary::median;

/// Worker threads: the sweep's pool size. Steady workloads run on the
/// main thread alone.
pub const THREADS: usize = 2;

/// Timed repetitions a steady workload runs even when `--seconds` is
/// already spent.
const MIN_TIMED_REPS: usize = 3;

/// Timed repetitions between two calibration samples (about 3 s).
const CALIBRATE_EVERY: usize = 4;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 49 cells of Fig. 9 on a two-thread sweep: what a user waits
    /// for when regenerating the headline figure; set-up dominates.
    Fig9Sweep,
    /// TATP on AstriFlash, closed loop: dispatch-bound (about three
    /// accesses per event), with writes that drive flash GC.
    TatpSteady,
    /// HashTable on AstriFlash, closed loop: pointer chasing on top of
    /// the densest in-band DRAM-cache miss path.
    HashtableFlash,
    /// The same job stream on DRAM only: the control that never misses.
    HashtableDram,
    /// TATP on AstriFlash, open-loop Poisson arrivals at ~75 % of
    /// saturation, with windowed telemetry on.
    TatpOpenTelemetry,
}

impl Workload {
    /// All workloads, in benchmark order.
    pub fn all() -> [Workload; 5] {
        [
            Workload::Fig9Sweep,
            Workload::TatpSteady,
            Workload::HashtableFlash,
            Workload::HashtableDram,
            Workload::TatpOpenTelemetry,
        ]
    }

    /// Name as used by `--workload` and `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig9Sweep => "fig9_sweep",
            Workload::TatpSteady => "tatp_steady",
            Workload::HashtableFlash => "hashtable_flash",
            Workload::HashtableDram => "hashtable_dram",
            Workload::TatpOpenTelemetry => "tatp_open_telemetry",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::all().into_iter().find(|w| w.name() == name)
    }
}

/// Options of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of every simulated run.
    pub seed: u64,
    /// Host seconds to keep repeating timed runs for.
    pub seconds: f64,
    /// Measure per-layer metrics from a profiled pass instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Run at `scaled_for_tests` scale (seconds, for tests).
    pub smoke: bool,
}

/// Runs one workload under `opts` and returns its metrics and checks.
pub fn run(opts: &Opts) -> Outcome {
    let pinned = if opts.smoke {
        None
    } else {
        check::golden(opts.workload.name(), opts.seed)
    };
    let mut checker = Checker::new(pinned);
    let mut outcome = match (opts.workload, opts.trace) {
        (Workload::Fig9Sweep, false) => crate::fig9::end_to_end(opts, &mut checker),
        (Workload::Fig9Sweep, true) => crate::fig9::per_layer(opts, &mut checker),
        (w, false) => steady_end_to_end(&steady_cell(w, opts), opts, &mut checker),
        (w, true) => steady_per_layer(&steady_cell(w, opts), opts, &mut checker),
    };
    if let Some(d) = checker.reference() {
        outcome.notes.push(format!(
            "digest {d:016x} ({})",
            if checker.pinned() {
                "pinned in golden.txt"
            } else {
                "not pinned for this seed"
            }
        ));
    }
    outcome.attempted = checker.attempted;
    outcome.failed = checker.failed;
    outcome.errors.extend(checker.errors);
    outcome
}

/// The base configuration: full scale, or `scaled_for_tests` on four
/// cores for `--smoke`.
pub fn base_config(smoke: bool) -> SystemConfig {
    if smoke {
        SystemConfig::default().with_cores(4).scaled_for_tests()
    } else {
        SystemConfig::default()
    }
}

fn steady_cell(w: Workload, opts: &Opts) -> Cell {
    let mut base = base_config(opts.smoke);
    // Runs end at their job quota, never at the time cap.
    base.max_sim_time_ms = 10_000;
    let scale = |full: u64, smoke: u64| if opts.smoke { smoke } else { full };
    let (tatp, hashtable) = (
        base.clone().with_workload(WorkloadKind::Tatp),
        base.with_workload(WorkloadKind::HashTable),
    );
    let seed = opts.seed;
    // Each rep is sized to well under a second of host time, so a run
    // takes a dozen or more samples: interference on a shared host
    // comes in episodes of seconds to minutes, and many short reps let
    // a run find the undisturbed ones.
    match w {
        Workload::TatpSteady => {
            Cell::closed(tatp, Configuration::AstriFlash, seed, scale(40_000, 200))
        }
        Workload::HashtableFlash => Cell::closed(
            hashtable,
            Configuration::AstriFlash,
            seed,
            scale(4_000, 100),
        ),
        Workload::HashtableDram => {
            Cell::closed(hashtable, Configuration::DramOnly, seed, scale(4_000, 100))
        }
        // 530 ns between arrivals is ~75 % of TATP's closed-loop
        // saturation throughput on AstriFlash.
        Workload::TatpOpenTelemetry => Cell::open(
            tatp.with_telemetry(TelemetryCfg::default()),
            Configuration::AstriFlash,
            seed,
            530.0,
            scale(500_000, 3_000),
        ),
        Workload::Fig9Sweep => unreachable!("fig9_sweep is not a steady workload"),
    }
}

/// Jobs a run of `cell` must measure to have met its quota.
pub fn expected_jobs(cell: &Cell) -> u64 {
    match cell.load {
        Load::Closed { jobs_per_core } => jobs_per_core * cell.cfg.cores as u64,
        Load::Open { total_jobs, .. } => total_jobs,
    }
}

/// One simulated run, with set-up and run timed apart.
pub struct Timed {
    /// Host seconds in `Cell::prepare`.
    pub prepare_s: f64,
    /// Host seconds in `PreparedRun::run`.
    pub run_s: f64,
    /// The run's report.
    pub report: RunReport,
    /// Scope profile of the run, when profiled.
    pub prof: Option<ProfReport>,
}

/// Prepares and runs `cell`, profiling the run (not the set-up) when
/// asked. A panic becomes an `Err` with its message.
pub fn timed(cell: &Cell, profile: bool) -> Result<Timed, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let t0 = Instant::now();
        let prepared = cell.prepare();
        let prepare_s = t0.elapsed().as_secs_f64();
        let session = profile.then(astriflash_prof::begin);
        let t1 = Instant::now();
        let report = prepared.run();
        let run_s = t1.elapsed().as_secs_f64();
        Timed {
            prepare_s,
            run_s,
            report,
            prof: session.map(|s| s.finish()),
        }
    }))
    .map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into())
    })
}

/// Host seconds `WorkloadKind::build` takes, not counting the engine's
/// drop, which `Cell::prepare` does not pay either.
pub fn time_build(kind: WorkloadKind, params: &WorkloadParams, seed: u64) -> f64 {
    let t = Instant::now();
    let engine = std::hint::black_box(kind.build(params, seed));
    let build_s = t.elapsed().as_secs_f64();
    drop(engine);
    build_s
}

/// Checks one steady run; returns it only if it passed.
fn checked(
    checker: &mut Checker,
    label: &str,
    result: Result<Timed, String>,
    expected: u64,
) -> Option<Timed> {
    let problems = match &result {
        Err(p) => vec![format!("panicked: {p}")],
        Ok(t) => {
            let mut p = check::run_problems(&t.report, expected);
            p.extend(checker.digest_problem(check::digest(&t.report)));
            p
        }
    };
    let ok = problems.is_empty();
    checker.record(label, 1, problems);
    result.ok().filter(|_| ok)
}

/// Samples of the timed end-to-end metrics: one per timed run, or per
/// pass of a sweep.
#[derive(Debug, Default)]
pub struct Timings {
    wall: Vec<f64>,
    setup: Vec<f64>,
    run: Vec<f64>,
    rate: Vec<f64>,
}

impl Timings {
    /// Adds a set-up time only (a warmup run's).
    pub fn add_setup(&mut self, setup_s: f64) {
        self.setup.push(setup_s);
    }

    /// Adds one timed sample; `accesses` are the L1 accesses simulated
    /// in `run_s`.
    pub fn add(&mut self, wall_s: f64, setup_s: f64, run_s: f64, accesses: f64) {
        self.wall.push(wall_s);
        self.setup.push(setup_s);
        self.run.push(run_s);
        self.rate.push(accesses / run_s);
    }

    /// Appends `wall_s`, `setup_s`, `run_s` and `sim_accesses_per_s` in
    /// calibrated seconds. Times are the run's fastest sample and the
    /// rate its highest: interference from other tenants only ever adds
    /// time, and it comes in episodes long enough to cover most of a
    /// run, which a median then reports instead of the code. `setup_s`
    /// is the median of its many short samples.
    pub fn push_metrics(&self, o: &mut Outcome, cal: &Calibration) {
        let k = cal.scale();
        o.push_stat("wall_s", &self.wall, "s", Stat::Min, k);
        o.push_stat("setup_s", &self.setup, "s", Stat::Median, k);
        o.push_stat("run_s", &self.run, "s", Stat::Min, k);
        o.push_stat(
            "sim_accesses_per_s",
            &self.rate,
            "accesses/s",
            Stat::Max,
            1.0 / k,
        );
        o.notes.push(cal.describe());
    }
}

/// One untimed warmup run, then timed runs until `--seconds` have
/// passed (at least [`MIN_TIMED_REPS`]). `setup_s` counts the warmup's
/// set-up too. `peak_rss_mb` is read after the first [`MIN_TIMED_REPS`]
/// runs, before the first calibration sample, so the calibration
/// kernel's table never counts; calibration samples follow every
/// [`CALIBRATE_EVERY`] runs from there, and end the run.
fn steady_end_to_end(cell: &Cell, opts: &Opts, checker: &mut Checker) -> Outcome {
    let expected = expected_jobs(cell);
    let mut o = Outcome::default();
    let mut cal = Calibration::new(1);
    let mut timings = Timings::default();
    if let Some(t) = checked(checker, "warmup", timed(cell, false), expected) {
        timings.add_setup(t.prepare_s);
    }
    let start = Instant::now();
    let mut rep = 0;
    while rep < MIN_TIMED_REPS || start.elapsed().as_secs_f64() < opts.seconds {
        rep += 1;
        if let Some(t) = checked(checker, &format!("rep {rep}"), timed(cell, false), expected) {
            let accesses = report_metric(&t.report, "l1_accesses");
            timings.add(t.prepare_s + t.run_s, t.prepare_s, t.run_s, accesses);
        }
        if rep == MIN_TIMED_REPS {
            push_peak_rss(&mut o);
        }
        if rep >= MIN_TIMED_REPS && (rep - MIN_TIMED_REPS).is_multiple_of(CALIBRATE_EVERY) {
            cal.sample();
        }
    }
    cal.sample();
    timings.push_metrics(&mut o, &cal);
    o
}

/// One untraced warmup run, then cycles of (timed `WorkloadKind::build`,
/// untraced run, traced run[, telemetry-off run]) until `--seconds` have
/// passed, at least two cycles. Set-up and build are compared warm: the
/// first allocation of a process is slower than later ones.
fn steady_per_layer(cell: &Cell, opts: &Opts, checker: &mut Checker) -> Outcome {
    let expected = expected_jobs(cell);
    let mut layers = Layers::default();
    if let Some(t) = checked(checker, "warmup", timed(cell, false), expected) {
        layers.counts.add(&t.report);
    }
    let without_telemetry = cell.cfg.telemetry.is_some().then(|| {
        let mut off = cell.clone();
        off.cfg.telemetry = None;
        off
    });
    let (mut setup, mut build) = (Vec::new(), Vec::new());
    let (mut untraced, mut traced, mut telemetry_off) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut busy_s = 0.0;
    let mut cycle = 0;
    while cycle < 2 || start.elapsed().as_secs_f64() < opts.seconds {
        cycle += 1;
        let build_s = time_build(cell.cfg.workload, &cell.cfg.workload_params, opts.seed);
        build.push(build_s);
        busy_s += build_s;
        if let Some(t) = checked(
            checker,
            &format!("cycle {cycle} untraced"),
            timed(cell, false),
            expected,
        ) {
            busy_s += t.prepare_s + t.run_s;
            setup.push(t.prepare_s);
            untraced.push(t.run_s);
        }
        if let Some(t) = checked(
            checker,
            &format!("cycle {cycle} traced"),
            timed(cell, true),
            expected,
        ) {
            busy_s += t.prepare_s + t.run_s;
            traced.push(t.run_s);
            let prof = t.prof.as_ref().expect("traced runs carry a profile");
            layers
                .prof
                .add(prof, report_metric(&t.report, "jobs_total"));
        }
        if let Some(off) = &without_telemetry {
            let label = format!("cycle {cycle} telemetry off");
            if let Some(t) = checked(checker, &label, timed(off, false), expected) {
                busy_s += t.prepare_s + t.run_s;
                telemetry_off.push(t.run_s);
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    layers.run_s = med(&untraced);
    layers.traced_run_s = med(&traced);
    layers.engine_build_s = med(&build);
    layers.prewarm_s = med(&setup) - layers.engine_build_s;
    layers.parallel_efficiency = busy_s / elapsed;
    if without_telemetry.is_some() {
        layers.telemetry_overhead_pct = overhead_pct(med(&untraced), med(&telemetry_off));
    }
    let mut o = Outcome::default();
    layers.push_metrics(&mut o);
    o
}

/// Appends `peak_rss_mb`: the process's VmHWM. The process runs one
/// workload, so the peak belongs to it.
pub fn push_peak_rss(o: &mut Outcome) {
    match peak_rss_mb() {
        Ok(mb) => o.push("peak_rss_mb", mb, "MB"),
        Err(e) => {
            o.errors.push(format!("peak_rss_mb: {e}"));
            o.push("peak_rss_mb", 0.0, "MB");
        }
    }
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::all() {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("fig9"), None);
    }

    #[test]
    fn steady_runs_end_at_their_quota() {
        for w in &Workload::all()[1..] {
            for smoke in [false, true] {
                let opts = Opts {
                    workload: *w,
                    seed: 1,
                    seconds: 0.0,
                    trace: false,
                    smoke,
                };
                let cell = steady_cell(*w, &opts);
                assert_eq!(cell.cfg.max_sim_time_ms, 10_000);
                assert!(expected_jobs(&cell) > 0);
                assert_eq!(
                    cell.cfg.telemetry.is_some(),
                    *w == Workload::TatpOpenTelemetry
                );
            }
        }
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().expect("linux /proc") > 0.0);
    }
}
