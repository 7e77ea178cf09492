//! Deterministic parallel experiment engine.
//!
//! Every figure/table harness is, at heart, a grid of **independent
//! simulation cells** — a [`SystemConfig`] × [`Configuration`] × seed ×
//! load point. Each cell's simulation is single-threaded and fully
//! deterministic, so cells can run on any worker thread in any order;
//! the engine merges results back **in input order**, which makes the
//! output bit-identical regardless of worker count.
//!
//! Worker count defaults to the machine's available parallelism and can
//! be overridden with the `ASTRIFLASH_THREADS` environment variable (or
//! programmatically via [`Sweep::with_threads`], which tests use to pin
//! 1-thread vs N-thread runs against each other).
//!
//! # Example
//!
//! ```
//! use astriflash_core::config::{Configuration, SystemConfig};
//! use astriflash_core::sweep::{Cell, Sweep};
//!
//! let cfg = SystemConfig::default().with_cores(2).scaled_for_tests();
//! let cells: Vec<Cell> = [1u64, 2, 3]
//!     .iter()
//!     .map(|&seed| Cell::closed(cfg.clone(), Configuration::AstriFlash, seed, 20))
//!     .collect();
//! let reports = Sweep::from_env().run(&cells);
//! assert_eq!(reports.len(), 3);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

use astriflash_sim::rng::derive_seed;
use astriflash_trace::Tracer;

use crate::config::{Configuration, SystemConfig};
use crate::experiment::{Experiment, Load, PreparedRun, RunReport};

/// One independent simulation cell of a sweep grid.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Full system configuration (cores, caches, flash, workload).
    pub cfg: SystemConfig,
    /// Evaluated configuration (DRAM-only, AstriFlash, …).
    pub configuration: Configuration,
    /// Deterministic seed for this cell's RNG streams.
    pub seed: u64,
    /// Load point.
    pub load: Load,
}

impl Cell {
    /// A closed-loop (saturation) cell.
    pub fn closed(
        cfg: SystemConfig,
        configuration: Configuration,
        seed: u64,
        jobs_per_core: u64,
    ) -> Self {
        Cell {
            cfg,
            configuration,
            seed,
            load: Load::Closed { jobs_per_core },
        }
    }

    /// An open-loop (Poisson) cell.
    pub fn open(
        cfg: SystemConfig,
        configuration: Configuration,
        seed: u64,
        mean_interarrival_ns: f64,
        total_jobs: u64,
    ) -> Self {
        Cell {
            cfg,
            configuration,
            seed,
            load: Load::Open {
                mean_interarrival_ns,
                total_jobs,
            },
        }
    }

    /// Replaces this cell's seed with one derived from `(base, stream)`
    /// via [`derive_seed`] — the canonical way to give every cell of a
    /// grid an independent RNG stream from one experiment-level seed.
    pub fn with_derived_seed(mut self, base: u64, stream: u64) -> Self {
        self.seed = derive_seed(base, stream);
        self
    }

    /// Runs this cell synchronously on the calling thread.
    pub fn run(&self) -> RunReport {
        self.prepare().run()
    }

    /// Builds this cell's simulation without running it (see
    /// [`Experiment::prepare`]): the benchmark prepares outside the
    /// timed region and times only [`PreparedRun::run`].
    pub fn prepare(&self) -> PreparedRun {
        Experiment::new(self.cfg.clone(), self.configuration)
            .seed(self.seed)
            .load(self.load)
            .prepare()
    }

    /// Runs this cell with an observability tracer attached. The report
    /// is bit-identical to [`Cell::run`]; only the tracer fills up.
    pub fn run_traced(&self, tracer: Tracer) -> RunReport {
        Experiment::new(self.cfg.clone(), self.configuration)
            .seed(self.seed)
            .load(self.load)
            .tracer(tracer)
            .run()
    }
}

/// Reads the worker-count override from `ASTRIFLASH_THREADS`; falls
/// back to the machine's available parallelism.
pub fn threads_from_env() -> usize {
    if let Ok(v) = std::env::var("ASTRIFLASH_THREADS") {
        match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => return n,
            _ => eprintln!(
                "warning: ignoring ASTRIFLASH_THREADS={v:?} (expected an integer >= 1); \
                 falling back to available parallelism"
            ),
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The parallel sweep runner. Cheap to construct; holds only the worker
/// count.
#[derive(Debug, Clone, Copy)]
pub struct Sweep {
    threads: usize,
}

impl Sweep {
    /// Worker count from `ASTRIFLASH_THREADS` / available parallelism.
    pub fn from_env() -> Self {
        Sweep {
            threads: threads_from_env(),
        }
    }

    /// Fixed worker count (≥ 1); used by determinism tests to compare
    /// single-threaded against many-threaded runs.
    pub fn with_threads(threads: usize) -> Self {
        Sweep {
            threads: threads.max(1),
        }
    }

    /// The worker count this sweep will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every cell and returns reports **in cell order**.
    ///
    /// A cell that panics aborts the sweep with a panic message naming
    /// the offending cell (configuration, workload, seed, load), so a
    /// failure deep inside a 100-cell grid is immediately attributable.
    pub fn run(&self, cells: &[Cell]) -> Vec<RunReport> {
        self.map_described(cells, |_, cell| cell.run(), describe_cell)
    }

    /// Like [`Sweep::run`], but attaches `tracer` to cell 0. Traced and
    /// untraced runs produce bit-identical reports, so the trace
    /// perturbs no cell.
    pub fn run_with_cell0_trace(&self, cells: &[Cell], tracer: Tracer) -> Vec<RunReport> {
        self.map_described(
            cells,
            |i, cell| {
                if i == 0 {
                    cell.run_traced(tracer.clone())
                } else {
                    cell.run()
                }
            },
            describe_cell,
        )
    }

    /// Deterministic parallel map: applies `f(index, &item)` to every
    /// item on a worker pool and returns results in input order.
    ///
    /// `f` must be a pure function of its arguments for the output to be
    /// independent of the worker count — all simulation cells are.
    /// Workers pull the next index from a shared atomic counter, so
    /// imbalanced cells (e.g. DRAM-only vs Flash-Sync runs) still pack
    /// tightly.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_described(items, f, |i, _| format!("item {i}"))
    }

    /// [`Sweep::map`] with a caller-provided item description: when
    /// `f(i, item)` panics, the sweep re-panics with `describe(i, item)`
    /// plus the original message, regardless of which worker ran it.
    /// Worker threads are named `astriflash-sweep-{i}` so native tools
    /// (gdb, perf, /proc) attribute them too.
    pub fn map_described<T, R, F, D>(&self, items: &[T], f: F, describe: D) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
        D: Fn(usize, &T) -> String + Sync,
    {
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            return items
                .iter()
                .enumerate()
                .map(|(i, x)| call_with_context(&f, &describe, i, x))
                .collect();
        }

        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    std::thread::Builder::new()
                        .name(format!("astriflash-sweep-{w}"))
                        .spawn_scoped(scope, || {
                            let mut local: Vec<(usize, R)> = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= items.len() {
                                    break;
                                }
                                local.push((i, call_with_context(&f, &describe, i, &items[i])));
                            }
                            local
                        })
                        .expect("spawn sweep worker")
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(local) => {
                        for (i, r) in local {
                            slots[i] = Some(r);
                        }
                    }
                    // The worker already enriched the payload with the
                    // cell context; re-raise it on the caller's thread.
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every index visited exactly once"))
            .collect()
    }
}

/// One line identifying a sweep cell in panic messages.
fn describe_cell(i: usize, cell: &Cell) -> String {
    format!(
        "cell {i} (configuration={} workload={} cores={} seed={} load={:?})",
        cell.configuration.name(),
        cell.cfg.workload.name(),
        cell.cfg.cores,
        cell.seed,
        cell.load,
    )
}

/// Runs `f(i, item)`, converting any panic into one that leads with
/// `describe(i, item)` so the failing cell is identifiable from the
/// panic message alone.
fn call_with_context<T, R>(
    f: &(impl Fn(usize, &T) -> R + Sync),
    describe: &(impl Fn(usize, &T) -> String + Sync),
    i: usize,
    item: &T,
) -> R {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, item))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .map(str::to_owned)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".to_owned());
            panic!("sweep failed at {}: {msg}", describe(i, item));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SystemConfig {
        SystemConfig::default().with_cores(2).scaled_for_tests()
    }

    #[test]
    fn map_preserves_input_order() {
        let sweep = Sweep::with_threads(8);
        let items: Vec<u64> = (0..100).collect();
        let out = sweep.map(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 3
        });
        assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn map_handles_empty_and_single() {
        let sweep = Sweep::with_threads(4);
        let empty: Vec<u64> = Vec::new();
        assert!(sweep.map(&empty, |_, &x| x).is_empty());
        assert_eq!(sweep.map(&[7u64], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn run_matches_direct_experiment() {
        let cell = Cell::closed(cfg(), Configuration::AstriFlash, 5, 20);
        let direct = Experiment::new(cfg(), Configuration::AstriFlash)
            .seed(5)
            .jobs_per_core(20)
            .run();
        let swept = Sweep::with_threads(2).run(std::slice::from_ref(&cell));
        assert_eq!(swept.len(), 1);
        assert_eq!(
            swept[0].throughput_jobs_per_sec.to_bits(),
            direct.throughput_jobs_per_sec.to_bits()
        );
        assert_eq!(swept[0].p99_service_ns, direct.p99_service_ns);
        assert_eq!(swept[0].render(), direct.render());
    }

    #[test]
    fn derived_seeds_are_stable_per_stream() {
        let a = Cell::closed(cfg(), Configuration::DramOnly, 0, 10).with_derived_seed(1, 0);
        let b = Cell::closed(cfg(), Configuration::DramOnly, 0, 10).with_derived_seed(1, 0);
        let c = Cell::closed(cfg(), Configuration::DramOnly, 0, 10).with_derived_seed(1, 1);
        assert_eq!(a.seed, b.seed);
        assert_ne!(a.seed, c.seed);
    }

    #[test]
    fn with_threads_clamps_to_one() {
        assert_eq!(Sweep::with_threads(0).threads(), 1);
    }

    #[test]
    fn worker_threads_are_named() {
        let items: Vec<u64> = (0..16).collect();
        let names = Sweep::with_threads(4).map(&items, |_, _| {
            std::thread::current().name().map(str::to_owned)
        });
        for name in names {
            let name = name.expect("sweep workers must be named");
            assert!(
                name.starts_with("astriflash-sweep-"),
                "unexpected worker name {name:?}"
            );
        }
    }

    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default()
    }

    #[test]
    fn panics_carry_item_context_across_threads() {
        let items: Vec<u64> = (0..8).collect();
        let result = std::panic::catch_unwind(|| {
            Sweep::with_threads(2).map_described(
                &items,
                |_, &x| {
                    if x == 5 {
                        panic!("boom at {x}");
                    }
                    x
                },
                |i, _| format!("cell {i} seed=42"),
            )
        });
        let msg = panic_message(result.expect_err("sweep must propagate the panic"));
        assert!(msg.contains("cell 5 seed=42"), "missing context: {msg}");
        assert!(msg.contains("boom at 5"), "missing original message: {msg}");
    }

    #[test]
    fn panics_carry_item_context_single_threaded() {
        let result = std::panic::catch_unwind(|| {
            Sweep::with_threads(1).map_described(
                &[1u64],
                |_, _| -> u64 { panic!("solo boom") },
                |i, _| format!("lone cell {i}"),
            )
        });
        let msg = panic_message(result.expect_err("panic must propagate"));
        assert!(msg.contains("lone cell 0"), "missing context: {msg}");
        assert!(msg.contains("solo boom"), "missing original message: {msg}");
    }

    #[test]
    fn cell_description_names_the_configuration_and_seed() {
        let cell = Cell::closed(cfg(), Configuration::AstriFlash, 77, 10);
        let d = describe_cell(3, &cell);
        assert!(d.contains("cell 3"), "{d}");
        assert!(d.contains("AstriFlash"), "{d}");
        assert!(d.contains("seed=77"), "{d}");
        assert!(d.contains("Closed"), "{d}");
    }
}
