//! Datasets shared by engines that are alive at the same time (DESIGN.md
//! §18).
//!
//! A sweep runs several cells of one workload at once, and every cell
//! builds the same dataset from the same (kind, params, seed). So the
//! first cell builds a *prototype*, which is never run, and every cell
//! runs a clone of it, a *fork*. Engines keep their large arrays behind
//! `Arc`s and their mutable indexes copy-on-write, so a fork costs
//! little time or memory.
//!
//! The registry holds prototypes weakly: a prototype lives while a fork
//! of it does. Once the last fork drops, the next request builds again.
//! Keeping prototypes longer would turn a benchmark's repeated
//! set-ups into cache hits, and hold datasets no cell needs.

use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, OnceLock, Weak};

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

/// Builds `kind`'s engine.
pub(crate) fn build(kind: WorkloadKind, params: &WorkloadParams, seed: u64) -> Box<dyn Prototype> {
    match kind {
        WorkloadKind::ArraySwap => Box::new(engines::ArraySwap::new(params, seed)),
        WorkloadKind::HashTable => Box::new(engines::HashTable::new(params, seed)),
        WorkloadKind::RbTree => Box::new(engines::RbTree::new(params, seed)),
        WorkloadKind::Masstree => Box::new(engines::Masstree::new(params, seed)),
        WorkloadKind::Tatp => Box::new(engines::Tatp::new(params, seed)),
        WorkloadKind::Tpcc => Box::new(engines::Tpcc::new(params, seed)),
        WorkloadKind::Silo => Box::new(engines::Silo::new(params, seed)),
    }
}

/// A prototype, built by the first request for its key.
type Slot = OnceLock<Box<dyn Prototype>>;

struct Entry {
    kind: WorkloadKind,
    params: WorkloadParams,
    seed: u64,
    slot: Weak<Slot>,
}

/// Every key with a live fork. At most a few entries, so a list.
static REGISTRY: Mutex<Vec<Entry>> = Mutex::new(Vec::new());

/// The slot of `(kind, params, seed)`: the live one, or a new, empty
/// one.
fn slot(kind: WorkloadKind, params: &WorkloadParams, seed: u64) -> Arc<Slot> {
    // Each update below leaves the list valid, so a panic elsewhere while
    // holding the lock leaves nothing to repair.
    let mut entries = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    entries.retain(|e| e.slot.strong_count() > 0);
    let live = entries
        .iter()
        .filter(|e| e.kind == kind && e.seed == seed && e.params == *params)
        .find_map(|e| e.slot.upgrade());
    live.unwrap_or_else(|| {
        let slot = Arc::new(Slot::new());
        entries.push(Entry {
            kind,
            params: params.clone(),
            seed,
            slot: Arc::downgrade(&slot),
        });
        slot
    })
}

/// A fork of a shared prototype (see [`WorkloadKind::fork`]). It runs
/// as the engine it derefs to and keeps its prototype alive.
pub struct EngineFork {
    engine: Box<dyn WorkloadEngine>,
    _prototype: Arc<Slot>,
}

impl WorkloadKind {
    /// The engine [`WorkloadKind::build`] would return, forked from the
    /// live prototype of `(self, params, seed)`. A prototype is built
    /// only when no fork of that key is alive; a thread that asks while
    /// another builds waits for that build.
    pub fn fork(&self, params: &WorkloadParams, seed: u64) -> EngineFork {
        let prototype = slot(*self, params, seed);
        let engine = prototype.get_or_init(|| build(*self, params, seed)).fork();
        EngineFork {
            engine,
            _prototype: prototype,
        }
    }
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
