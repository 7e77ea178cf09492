//! The cheap [`Tracer`] handle the simulator components share, and the
//! bounded ring behind it.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::event::{EventKind, Track, TraceEvent};

#[derive(Debug)]
struct Inner {
    /// The most recent `capacity` records, in emission order: a full
    /// ring sheds its oldest record and counts it in `dropped`, so long
    /// runs trace with fixed memory.
    ring: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    /// Span the next span-affiliated record is attributed to (0 = none).
    current_span: u64,
    next_span: u64,
}

impl Inner {
    fn record(&mut self, ev: TraceEvent) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
    }
}

/// The handle components emit through. Cloning is cheap (an `Arc`); the
/// default [`Tracer::off`] handle is a `None` and every emit method
/// short-circuits on it, so a disabled tracer costs one branch.
///
/// A simulation cell is single-threaded, so the mutex is uncontended; it
/// exists only to keep components `Send` for the parallel sweep engine.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Tracer(off)"),
            Some(_) => write!(f, "Tracer(on)"),
        }
    }
}

impl Tracer {
    /// The disabled tracer: every emission is a no-op.
    pub fn off() -> Self {
        Tracer { inner: None }
    }

    /// A tracer keeping the most recent `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn ring(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Tracer {
            inner: Some(Arc::new(Mutex::new(Inner {
                ring: VecDeque::new(),
                capacity,
                dropped: 0,
                current_span: 0,
                next_span: 1,
            }))),
        }
    }

    /// Whether emissions are recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with_inner<R: Default>(&self, f: impl FnOnce(&mut Inner) -> R) -> R {
        match &self.inner {
            None => R::default(),
            Some(m) => f(&mut m.lock().expect("tracer lock poisoned")),
        }
    }

    /// Opens a new lifecycle span, makes it current, and returns its id
    /// (0 when tracing is off).
    pub fn begin_span(&self, t_ns: u64, track: Track, name: &'static str, arg: u64) -> u64 {
        self.with_inner(|inner| {
            let span = inner.next_span;
            inner.next_span += 1;
            inner.current_span = span;
            inner.record(TraceEvent {
                t_ns,
                span,
                track,
                name,
                kind: EventKind::SpanBegin,
                arg,
            });
            span
        })
    }

    /// Makes `span` current so component emissions attribute to it.
    pub fn resume_span(&self, span: u64) {
        self.with_inner(|inner| inner.current_span = span);
    }

    /// Clears the current span (subsequent span-instants degrade to plain
    /// instants).
    pub fn clear_span(&self) {
        self.resume_span(0);
    }

    /// The current span id (0 when none or tracing off).
    pub fn current_span(&self) -> u64 {
        self.with_inner(|inner| inner.current_span)
    }

    /// A point event attributed to the current span.
    pub fn span_instant(&self, t_ns: u64, track: Track, name: &'static str, arg: u64) {
        self.with_inner(|inner| {
            let span = inner.current_span;
            let kind = if span == 0 {
                EventKind::Instant
            } else {
                EventKind::SpanInstant
            };
            inner.record(TraceEvent {
                t_ns,
                span,
                track,
                name,
                kind,
                arg,
            });
        });
    }

    /// Closes `span`; clears it if it was current.
    pub fn end_span(&self, t_ns: u64, track: Track, name: &'static str, span: u64) {
        if span == 0 {
            return;
        }
        self.with_inner(|inner| {
            if inner.current_span == span {
                inner.current_span = 0;
            }
            inner.record(TraceEvent {
                t_ns,
                span,
                track,
                name,
                kind: EventKind::SpanEnd,
                arg: 0,
            });
        });
    }

    /// A `[t_ns, t_ns + dur_ns]` slice on a component track, tagged with
    /// the current span.
    pub fn slice(&self, t_ns: u64, dur_ns: u64, track: Track, name: &'static str, arg: u64) {
        self.with_inner(|inner| {
            inner.record(TraceEvent {
                t_ns,
                span: inner.current_span,
                track,
                name,
                kind: EventKind::Slice { dur_ns },
                arg,
            });
        });
    }

    /// A point event with no span affiliation.
    pub fn instant(&self, t_ns: u64, track: Track, name: &'static str, arg: u64) {
        self.with_inner(|inner| {
            inner.record(TraceEvent {
                t_ns,
                span: 0,
                track,
                name,
                kind: EventKind::Instant,
                arg,
            });
        });
    }

    /// A sampled gauge value on the counter track.
    pub fn gauge(&self, t_ns: u64, name: &'static str, lane: u32, value: f64) {
        self.with_inner(|inner| {
            inner.record(TraceEvent {
                t_ns,
                span: 0,
                track: Track::Counters,
                name,
                kind: EventKind::Gauge { lane, value },
                arg: 0,
            });
        });
    }

    /// Drains every recorded event, in emission order. Empty when off.
    pub fn finish(&self) -> Vec<TraceEvent> {
        self.with_inner(|inner| inner.ring.drain(..).collect())
    }

    /// Records the ring has shed so far.
    pub fn dropped(&self) -> u64 {
        self.with_inner(|inner| inner.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_emits_nothing_and_allocates_no_spans() {
        let t = Tracer::off();
        assert!(!t.enabled());
        assert_eq!(t.begin_span(1, Track::Core(0), "miss", 7), 0);
        t.span_instant(2, Track::Bc, "bc_admit", 7);
        t.gauge(3, "msr_occupancy", 0, 1.0);
        assert!(t.finish().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn span_ids_are_sequential_and_current_span_tracks() {
        let t = Tracer::ring(16);
        let a = t.begin_span(1, Track::Core(0), "miss", 1);
        let b = t.begin_span(2, Track::Core(1), "miss", 2);
        assert_eq!((a, b), (1, 2));
        assert_eq!(t.current_span(), 2);
        t.resume_span(a);
        t.span_instant(3, Track::Bc, "bc_admit", 1);
        t.end_span(4, Track::Core(0), "miss", a);
        assert_eq!(t.current_span(), 0, "ending the current span clears it");
        let evs = t.finish();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[2].span, a);
        assert_eq!(evs[2].kind, EventKind::SpanInstant);
    }

    #[test]
    fn span_instant_without_span_degrades_to_instant() {
        let t = Tracer::ring(4);
        t.span_instant(1, Track::Bc, "bc_admit", 9);
        let evs = t.finish();
        assert_eq!(evs[0].kind, EventKind::Instant);
        assert_eq!(evs[0].span, 0);
    }

    #[test]
    fn ring_sheds_oldest_and_counts_drops() {
        let t = Tracer::ring(2);
        t.instant(1, Track::Bc, "a", 0);
        t.instant(2, Track::Bc, "b", 0);
        t.instant(3, Track::Bc, "c", 0);
        assert_eq!(t.dropped(), 1);
        let evs = t.finish();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].name, "b");
        assert_eq!(evs[1].name, "c");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_ring_panics() {
        Tracer::ring(0);
    }
}
