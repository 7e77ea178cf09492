//! AstriFlash full-system composition — the paper's primary contribution
//! assembled from the substrate crates.
//!
//! The simulator's event loop wires cores (ROB flush, OoO
//! overlap, TLB), the on-chip cache hierarchy, the
//! hardware-managed DRAM cache (frontside + backside controllers, Miss
//! Status Row), flash, the user-level thread scheduler, and the OS
//! baseline models into the seven evaluated configurations (§V-B):
//!
//! | Configuration | Meaning |
//! |---|---|
//! | `DramOnly` | all data in DRAM — the ideal |
//! | `AstriFlash` | the proposal: switch-on-miss + priority scheduler |
//! | `AstriFlashIdeal` | free thread switches |
//! | `AstriFlashNoPS` | FIFO scheduling (no priority/aging) |
//! | `AstriFlashNoDP` | no DRAM partitioning: PT walks can hit flash |
//! | `OsSwap` | traditional demand paging |
//! | `FlashSync` | synchronous flash access (FlatFlash-like) |
//!
//! A run is one [`sweep::Cell`]: a system config, a configuration, a
//! seed and a load point. Every run ends in an
//! [`experiment::RunReport`].
//!
//! # Example
//!
//! ```
//! use astriflash_core::config::{Configuration, SystemConfig};
//! use astriflash_core::sweep::Cell;
//!
//! let cfg = SystemConfig::default().with_cores(2).scaled_for_tests();
//! let report = Cell::closed(cfg, Configuration::AstriFlash, 42, 30).run();
//! assert!(report.jobs_completed > 0);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod experiment;
pub mod experiments;
mod hit_run;
pub mod queueing;
pub mod sweep;
mod system;
pub mod telemetry;

pub use config::{Configuration, SystemConfig};
pub use experiment::{Load, PreparedRun, RunReport};
pub use queueing::QueueModel;
pub use sweep::{Cell, Sweep};
pub use telemetry::{TelemetryCfg, TelemetryReport, ViolationInterval};
