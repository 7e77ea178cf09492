//! Workload engines for the AstriFlash reproduction.
//!
//! Following the paper's methodology (§V-A), data accesses are driven by
//! an analytical Zipfian popularity distribution, while *access patterns*
//! come from genuine data-structure traversals: hash-chain walks,
//! red-black-tree descents, B+-tree (Masstree-like) lookups, and the
//! TATP / TPC-C / Silo transaction mixes. Each engine owns its structures
//! inside a simulated address space and fills [`JobBuf`]s — sequences of
//! operations with compute time and block-granular memory accesses — that
//! the core model executes against the memory hierarchy.
//!
//! # Example
//!
//! ```
//! use astriflash_sim::SimRng;
//! use astriflash_workloads::{JobBuf, WorkloadKind, WorkloadParams};
//!
//! let params = WorkloadParams::tiny_for_tests();
//! let mut engine = WorkloadKind::HashTable.build(&params, 42);
//! let mut rng = SimRng::new(7);
//! let mut job = JobBuf::new();
//! engine.fill_job(&mut job, &mut rng);
//! assert!(!job.is_empty());
//! ```

#![warn(missing_docs)]

pub mod address_space;
pub mod arrival;
pub mod engines;
pub mod job;
pub mod kind;
pub mod popularity;
mod shared;
pub mod zipf;

pub use address_space::{AddressSpace, SimAlloc, BLOCK_SIZE, PAGE_SIZE};
pub use arrival::PoissonArrivals;
pub use job::{FlatOp, JobArena, JobBuf, MemoryAccess, WorkloadEngine};
pub use kind::{WorkloadKind, WorkloadParams};
pub use popularity::KeyChooser;
pub use shared::{dataset_build_seconds, dataset_builds, Dataset, DatasetHold, EngineFork};
pub use zipf::ZipfGenerator;
