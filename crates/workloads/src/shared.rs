//! Datasets shared by engines that are alive at the same time (DESIGN.md
//! §18).
//!
//! A sweep runs several cells of one workload, and every cell builds the
//! same dataset from the same (kind, params, seed), its [`Dataset`]. So
//! the first cell builds a *prototype*, which is never run, and every
//! cell runs a clone of it, a *fork*. Engines keep their large arrays
//! behind `Arc`s and their mutable indexes copy-on-write, so a fork
//! costs little time or memory.
//!
//! The registry holds prototypes weakly: a prototype lives while a fork
//! of it, or a [`DatasetHold`] on its key, does. Once the last of them
//! drops, the next request builds again. `Sweep` holds each dataset
//! from its first cell to its last, so a sweep builds every dataset
//! once. Keeping prototypes longer would turn a benchmark's repeated
//! set-ups into cache hits, and hold datasets no cell needs. Only the
//! Zipf normalizer outlives them: `ZipfGenerator::new` memoizes it per
//! process, so the first build of each key count pays about 20 ms for
//! it and later builds, reps included, do not.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

use crate::engines;
use crate::job::WorkloadEngine;
use crate::kind::{WorkloadKind, WorkloadParams};

/// An engine the registry can fork.
pub(crate) trait Prototype: Send + Sync {
    /// A clone, as a runnable engine.
    fn fork(&self) -> Box<dyn WorkloadEngine>;

    /// The prototype itself, as a runnable engine.
    fn into_engine(self: Box<Self>) -> Box<dyn WorkloadEngine>;
}

impl<E: WorkloadEngine + Clone + Sync + 'static> Prototype for E {
    fn fork(&self) -> Box<dyn WorkloadEngine> {
        Box::new(self.clone())
    }

    fn into_engine(self: Box<Self>) -> Box<dyn WorkloadEngine> {
        self
    }
}

/// Datasets built so far by this process.
static BUILDS: AtomicU64 = AtomicU64::new(0);
/// Host nanoseconds those builds took, summed over the threads that ran
/// them.
static BUILD_NS: AtomicU64 = AtomicU64::new(0);

/// How many datasets this process has built so far, by
/// [`WorkloadKind::build`] and by the registry's prototypes together.
pub fn dataset_builds() -> u64 {
    BUILDS.load(Ordering::Relaxed)
}

/// Host seconds the builds [`dataset_builds`] counts have taken so far,
/// summed over threads: builds that ran side by side both count.
pub fn dataset_build_seconds() -> f64 {
    BUILD_NS.load(Ordering::Relaxed) as f64 * 1e-9
}

/// Builds `kind`'s engine.
pub(crate) fn build(kind: WorkloadKind, params: &WorkloadParams, seed: u64) -> Box<dyn Prototype> {
    BUILDS.fetch_add(1, Ordering::Relaxed);
    let start = Instant::now();
    let engine: Box<dyn Prototype> = match kind {
        WorkloadKind::ArraySwap => Box::new(engines::ArraySwap::new(params, seed)),
        WorkloadKind::HashTable => Box::new(engines::HashTable::new(params, seed)),
        WorkloadKind::RbTree => Box::new(engines::RbTree::new(params, seed)),
        WorkloadKind::Masstree => Box::new(engines::Masstree::new(params, seed)),
        WorkloadKind::Tatp => Box::new(engines::Tatp::new(params, seed)),
        WorkloadKind::Tpcc => Box::new(engines::Tpcc::new(params, seed)),
        WorkloadKind::Silo => Box::new(engines::Silo::new(params, seed)),
    };
    BUILD_NS.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    engine
}

/// What an engine build depends on: two builds of one `Dataset` are the
/// same engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// The workload.
    pub kind: WorkloadKind,
    /// Its sizing and skew.
    pub params: WorkloadParams,
    /// The build seed.
    pub seed: u64,
}

/// A prototype, built by the first fork of its key.
type Slot = OnceLock<Box<dyn Prototype>>;

struct Entry {
    dataset: Dataset,
    slot: Weak<Slot>,
}

/// Every key with a live fork or hold. At most a few entries, so a list.
static REGISTRY: Mutex<Vec<Entry>> = Mutex::new(Vec::new());

impl Dataset {
    /// The slot of this key: the live one, or a new, empty one.
    fn slot(&self) -> Arc<Slot> {
        // Each update below leaves the list valid, so a panic elsewhere
        // while holding the lock leaves nothing to repair.
        let mut entries = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
        entries.retain(|e| e.slot.strong_count() > 0);
        let live = entries
            .iter()
            .filter(|e| e.dataset == *self)
            .find_map(|e| e.slot.upgrade());
        live.unwrap_or_else(|| {
            let slot = Arc::new(Slot::new());
            entries.push(Entry {
                dataset: self.clone(),
                slot: Arc::downgrade(&slot),
            });
            slot
        })
    }

    /// The engine [`WorkloadKind::build`] would return, forked from the
    /// live prototype of this key. It builds the prototype only if the
    /// key has none alive; a thread that asks while another builds waits
    /// for that build.
    pub fn fork(&self) -> EngineFork {
        let prototype = self.slot();
        let engine = prototype
            .get_or_init(|| build(self.kind, &self.params, self.seed))
            .fork();
        EngineFork {
            engine,
            _prototype: prototype,
        }
    }

    /// Keeps this key's prototype alive, once a fork has built it, for
    /// as long as the hold lives. Taking a hold builds nothing.
    pub fn hold(&self) -> DatasetHold {
        DatasetHold {
            _prototype: self.slot(),
        }
    }
}

/// A hold on a dataset's prototype (see [`Dataset::hold`]).
pub struct DatasetHold {
    _prototype: Arc<Slot>,
}

/// A fork of a shared prototype (see [`Dataset::fork`]). It runs as the
/// engine it derefs to and keeps its prototype alive.
pub struct EngineFork {
    engine: Box<dyn WorkloadEngine>,
    _prototype: Arc<Slot>,
}

impl Deref for EngineFork {
    type Target = dyn WorkloadEngine;

    fn deref(&self) -> &Self::Target {
        &*self.engine
    }
}

impl DerefMut for EngineFork {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut *self.engine
    }
}
