//! Core-side timing for the AstriFlash reproduction (§IV-C, §VI-A).
//!
//! Models the two core effects that change a simulated time:
//!
//! * [`Rob`] — reorder-buffer occupancy and the pipeline-flush penalty
//!   paid on every switch-on-miss (§VI-A);
//! * [`effective_stall_ns`] — the memory-level-parallelism model
//!   translating cache-hit latencies into effective stall time.
//!
//! The switch-on-miss control flow itself is composed in
//! `astriflash-core`, which also keeps the forward-progress bit. The
//! handler and resume registers (§IV-C2, §IV-C3) and the ASO store
//! buffer (§IV-C4) change no timing here, so they are not simulated.

#![warn(missing_docs)]

pub mod rob;
pub mod timing;

pub use rob::Rob;
pub use timing::effective_stall_ns;
