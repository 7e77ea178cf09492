//! AstriFlash — a flash-based system for online services (HPCA 2023
//! reproduction).
//!
//! This façade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! ```
//! use astriflash::prelude::*;
//!
//! let config = SystemConfig::default().with_cores(4);
//! let seed = 1;
//! let jobs_per_core = 50;
//! let report = Cell::closed(config, Configuration::AstriFlash, seed, jobs_per_core).run();
//! assert!(report.throughput_jobs_per_sec > 0.0);
//! ```

pub use astriflash_analyze as analyze;
pub use astriflash_core as core;
pub use astriflash_cpu as cpu;
pub use astriflash_flash as flash;
pub use astriflash_mem as mem;
pub use astriflash_os as os;
pub use astriflash_prof as prof;
pub use astriflash_sim as sim;
pub use astriflash_stats as stats;
pub use astriflash_trace as trace;
pub use astriflash_uthread as uthread;
pub use astriflash_workloads as workloads;

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use astriflash_core::config::{Configuration, SystemConfig};
    pub use astriflash_core::experiment::RunReport;
    pub use astriflash_core::sweep::Cell;
    pub use astriflash_core::queueing::{mm1_p99, mmk_p99, QueueModel};
    pub use astriflash_sim::{SimDuration, SimRng, SimTime};
    pub use astriflash_stats::{Histogram, Percentile};
    pub use astriflash_trace::Tracer;
    pub use astriflash_workloads::{WorkloadKind, ZipfGenerator};
}
