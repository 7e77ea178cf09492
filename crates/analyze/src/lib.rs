//! Offline trace analysis for the AstriFlash reproduction.
//!
//! The simulator accumulates a per-phase miss-latency breakdown in-line
//! ([`astriflash_stats::PhaseSet`], DESIGN.md §11). This crate rebuilds
//! the *same* breakdown independently, from the exported Perfetto
//! `trace_event` JSON, and cross-validates the two — so the in-sim
//! accounting and the trace layer keep each other honest. The
//! `trace_analyze` binary wires both ends to the `results/` artifacts
//! written by `trace_run`.
//!
//! # Example
//!
//! ```
//! use astriflash_trace::{Track, Tracer};
//! use astriflash_analyze::reconstruct;
//!
//! let t = Tracer::ring(64);
//! let span = t.begin_span(1_000, Track::Core(0), "miss", 42);
//! t.span_instant(1_100, Track::Bc, "bc_duplicate", 42);
//! t.span_instant(50_000, Track::Core(0), "page_arrived", 42);
//! t.end_span(51_000, Track::Core(0), "miss", span);
//! let r = reconstruct(&t.finish());
//! assert_eq!(r.spans_completed, 1);
//! ```

#![warn(missing_docs)]

pub mod reconstruct;

pub use astriflash_trace::json::{parse, Value};
pub use reconstruct::{
    cross_validate, parse_ts_us, reconstruct, reconstruct_json, NormEvent, NormKind, Reconstruction,
};
