//! User-level threading for AstriFlash (§IV-D).
//!
//! The paper runs jobs on cooperative user-level threads: run to
//! completion, except that a DRAM-cache miss triggers the hardware to
//! jump into the scheduler handler, which parks the running thread in a
//! *pending queue* and picks the next job. A priority policy with aging
//! (Fig. 8) keeps the service-latency distribution close to the ideal
//! Flash-Sync system; the `noPS` ablation replaces it with FIFO.
//!
//! The scheduler here is the simulation counterpart of the paper's
//! C/assembly library: it owns the queues, policies, aging state, and
//! statistics; thread *contexts* (saved registers) are represented by
//! thread ids, with the 100 ns switch cost charged by the composer.

#![warn(missing_docs)]

pub mod queue_pair;
pub mod scheduler;

pub use queue_pair::{Completion, NotificationQueue};
pub use scheduler::{MissPark, Pick, Policy, Scheduler, SchedulerStats};
