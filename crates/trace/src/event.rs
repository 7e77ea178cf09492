//! Trace records and the tracks they land on.
//!
//! Every record is stamped with **simulated time only** (`t_ns`); no wall
//! clock ever enters a trace, so a trace is a pure function of the
//! simulation inputs — byte-identical across repeated runs and across
//! sweep worker counts.

/// The timeline a record is drawn on. Tracks map to Perfetto threads in
/// the exported `trace_event` JSON; lifecycle spans additionally carry a
/// span id so a miss's full timeline reconstructs across tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// A CPU core (frontside-controller probes, switches, resumes).
    Core(u32),
    /// A per-core user-level scheduler (park / pick / ready).
    Scheduler(u32),
    /// The backside controller (MSR admission, installs, writebacks).
    Bc,
    /// One flash channel (queueing, array read, transfer).
    FlashChannel(u32),
    /// The synthetic gauge track for counter samples.
    Counters,
}

impl Track {
    /// Stable Perfetto `tid` for this track.
    pub fn tid(self) -> u64 {
        match self {
            Track::Counters => 1,
            Track::Bc => 10,
            Track::Core(i) => 100 + i as u64,
            Track::Scheduler(i) => 200 + i as u64,
            Track::FlashChannel(c) => 300 + c as u64,
        }
    }

    /// Human-readable track label (Perfetto thread name).
    pub fn label(self) -> String {
        match self {
            Track::Counters => "gauges".to_string(),
            Track::Bc => "backside-controller".to_string(),
            Track::Core(i) => format!("core{i}"),
            Track::Scheduler(i) => format!("sched{i}"),
            Track::FlashChannel(c) => format!("flash-ch{c}"),
        }
    }
}

/// What kind of record this is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// Opens a miss-lifecycle span (`span` is the id).
    SpanBegin,
    /// A point inside an open span (admission, flash issue, arrival…).
    SpanInstant,
    /// Closes a span.
    SpanEnd,
    /// A duration slice on a component track (e.g. a flash array read).
    Slice {
        /// Slice length in nanoseconds.
        dur_ns: u64,
    },
    /// A point event with no span affiliation.
    Instant,
    /// A sampled gauge value (`lane` disambiguates per-core/per-channel
    /// instances of the same gauge).
    Gauge {
        /// Instance index (core id, channel id, or 0).
        lane: u32,
        /// Sampled value.
        value: f64,
    },
}

/// A single trace record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Simulated time of the record, nanoseconds since simulation start.
    pub t_ns: u64,
    /// Miss-lifecycle span id (0 = no span).
    pub span: u64,
    /// Timeline this record belongs to.
    pub track: Track,
    /// Event name (static so recording never allocates).
    pub name: &'static str,
    /// Record kind and kind-specific payload.
    pub kind: EventKind,
    /// Free argument (page number, thread id, overhead ns…).
    pub arg: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tids_are_disjoint_across_track_families() {
        let tracks = [
            Track::Counters,
            Track::Bc,
            Track::Core(0),
            Track::Core(31),
            Track::Scheduler(0),
            Track::Scheduler(31),
            Track::FlashChannel(0),
            Track::FlashChannel(31),
        ];
        let mut tids: Vec<u64> = tracks.iter().map(|t| t.tid()).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), tracks.len(), "tids must not collide");
    }

    #[test]
    fn labels_name_the_instance() {
        assert_eq!(Track::Core(3).label(), "core3");
        assert_eq!(Track::FlashChannel(7).label(), "flash-ch7");
        assert_eq!(Track::Bc.label(), "backside-controller");
    }
}
