//! Measurement substrate: histograms, percentiles, windowed series and
//! report tables used by every AstriFlash experiment.
//!
//! The core type is [`LogHistogram`], a log-linear latency histogram
//! (HDR-style) with a fixed relative error across the whole `u64` range.
//! [`Histogram`] (64 sub-buckets per octave, under 1.6 % error) and
//! [`PhaseHist`] (32, ~3 %) are its two instantiations.
//!
//! # Example
//!
//! ```
//! use astriflash_stats::{Histogram, Percentile};
//!
//! let mut h = Histogram::new();
//! for v in 1..=1000u64 {
//!     h.record(v);
//! }
//! let p99 = h.value_at(Percentile::P99);
//! assert!((980..=1010).contains(&p99));
//! ```

#![warn(missing_docs)]

pub mod csv;
pub mod histogram;
pub mod moments;
pub mod percentile;
pub mod phase;
pub mod summary;
pub mod table;
pub mod window;

pub use csv::CsvDoc;
pub use histogram::{Histogram, LogHistogram};
pub use moments::OnlineStats;
pub use percentile::Percentile;
pub use phase::{Phase, PhaseHist, PhaseSet, PHASE_QUANTILES};
pub use summary::MetricSet;
pub use table::TextTable;
pub use window::{window_index, WindowSeries, WindowedHist, DEFAULT_MAX_WINDOWS};
