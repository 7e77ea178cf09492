//! Memory hierarchy for the AstriFlash reproduction.
//!
//! Implements the paper's memory side (§IV-B): conventional on-chip SRAM
//! caches, DRAM bank timing with open-row tracking, the
//! DRAM-cache **frontside controller** (tags held *in* DRAM, probed with
//! serialized RAS/CAS operations, FR-FCFS-style bank scheduling), the
//! **backside controller** with its in-DRAM **Miss Status Row** (MSR)
//! tracking hundreds of concurrent misses, the evict buffer, and dirty
//! writebacks. A page-granularity LRU (`page_cache`) picks the pages the
//! DRAM-cache prewarm installs.
//!
//! All components are passive state machines: they take the current
//! [`astriflash_sim::SimTime`] and return outcomes with completion times
//! for the composer to schedule.

#![warn(missing_docs)]

pub mod backside;
pub mod dram;
pub mod dram_cache;
pub mod footprint;
pub mod hierarchy;
pub mod msr;
pub mod page_cache;
mod page_hash;
pub mod sram_cache;

pub use backside::{BacksideController, BcAdmission, MsrWindows, Waiter};
pub use dram::{DramBanks, DramTimings};
pub use dram_cache::{CacheWindows, DramCache, DramCacheConfig, ProbeOutcome};
pub use footprint::FootprintPredictor;
pub use hierarchy::{CacheHierarchy, HierarchyConfig, HierarchyOutcome, LevelTotals};
pub use msr::MissStatusRow;
pub use page_cache::PageLru;
pub use sram_cache::{AccessResult, SramCache};
