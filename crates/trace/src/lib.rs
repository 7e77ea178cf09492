//! Deterministic observability for the AstriFlash simulator.
//!
//! The paper's argument lives in the µs-scale anatomy of a DRAM-cache
//! miss — abort, thread switch, MSR admission, ~50 µs flash fetch,
//! retry. End-of-run aggregates can't show where one tail-latency
//! outlier spent its time; this crate records the per-miss lifecycle and
//! periodic component gauges so a single run can be opened in Perfetto
//! or re-plotted from CSV.
//!
//! Design rules:
//!
//! * **Sim-time only.** Records carry the simulated clock, never a wall
//!   clock, so a trace is byte-identical across repeated same-seed runs
//!   and across sweep worker counts.
//! * **Zero cost when off.** Components share a [`Tracer`] handle whose
//!   disabled state is a `None`; every emit method short-circuits on one
//!   branch, and golden outputs are unchanged whether tracing is on or
//!   off.
//! * **Bounded memory.** [`Tracer::ring`] keeps the most recent N
//!   records and counts what it sheds.
//!
//! # Example
//!
//! ```
//! use astriflash_trace::{export, Track, Tracer};
//!
//! let tracer = Tracer::ring(1024);
//! let span = tracer.begin_span(1_000, Track::Core(0), "miss", 42);
//! tracer.span_instant(1_010, Track::Bc, "bc_admit", 42);
//! tracer.end_span(55_000, Track::Core(0), "miss", span);
//! let events = tracer.finish();
//! let json = export::perfetto_json(&events, tracer.dropped(), &[]);
//! assert!(astriflash_trace::json::parse(&json).is_ok());
//! ```

#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod json;
pub mod tracer;

pub use event::{EventKind, Track, TraceEvent};
pub use tracer::Tracer;
