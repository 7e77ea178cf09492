//! The event queue at the heart of every simulation.
//!
//! Events are ordered by timestamp; ties are broken by insertion order so
//! a simulation is a deterministic function of its inputs.
//!
//! [`EventQueue`] is a binary heap keyed by `(timestamp, insertion
//! sequence)`. The heap stays small: the backside controller's Miss
//! Status Row bounds outstanding flash reads (§IV-B2), so a system never
//! has more than one `Resume` per core, one `PageArrived` per MSR entry
//! and one `Arrival` pending. `SystemSim` sizes the queue for that bound
//! and checks it in debug builds. At a few hundred pending events the
//! heap is under ten levels deep, and it never reallocates.
//! `tests/kernel_properties.rs` checks the pop stream against a
//! reference model of the contract kept inside the test.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::SimTime;

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// A time-ordered, insertion-stable priority queue of simulation events.
///
/// The payload type `E` is chosen by the composer (typically an enum of
/// every event kind in the system).
///
/// # Example
///
/// ```
/// use astriflash_sim::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_ns(5), "b");
/// q.schedule(SimTime::from_ns(5), "c");
/// q.schedule(SimTime::from_ns(1), "a");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, vec!["a", "b", "c"]);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// Sequence number of the next scheduled event (= events scheduled).
    seq: u64,
    now: SimTime,
    popped_total: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at time zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Like [`EventQueue::new`], with room for `pending` events before
    /// the heap reallocates.
    pub fn with_capacity(pending: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(pending),
            seq: 0,
            now: SimTime::ZERO,
            popped_total: 0,
        }
    }

    /// Current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in the composer; we clamp to
    /// `now` and debug-assert to catch it in tests without poisoning long
    /// experiment runs.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: at={at} now={}",
            self.now
        );
        let at = at.max(self.now);
        self.heap.push(Reverse(Entry {
            at,
            seq: self.seq,
            payload,
        }));
        self.seq += 1;
    }

    /// Schedules `payload` at `now + delay_ns`.
    pub fn schedule_after_ns(&mut self, delay_ns: u64, payload: E) {
        let at = self.now + crate::time::SimDuration::from_ns(delay_ns);
        self.schedule(at, payload);
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.heap.is_empty() {
            return None;
        }
        let _prof = astriflash_prof::scope(astriflash_prof::Scope::QueueCascade);
        let Reverse(entry) = self.heap.pop()?;
        self.popped_total += 1;
        self.now = entry.at;
        Some((entry.at, entry.payload))
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events ever scheduled (for progress reporting / run stats).
    pub fn scheduled_total(&self) -> u64 {
        self.seq
    }

    /// Total events ever popped (for events/sec perf reporting).
    pub fn popped_total(&self) -> u64 {
        self.popped_total
    }

    /// Advances the clock without an event (e.g. to close out statistics
    /// windows at the end of a run).
    ///
    /// # Panics
    ///
    /// Panics if `to` is before the current time.
    pub fn advance_to(&mut self, to: SimTime) {
        assert!(to >= self.now, "cannot advance clock backwards");
        self.now = to;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(30), 3);
        q.schedule(SimTime::from_ns(10), 1);
        q.schedule(SimTime::from_ns(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_ns(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(42), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_ns(42));
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), "first");
        q.pop();
        q.schedule_after_ns(5, "second");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_ns(15));
    }

    #[test]
    fn len_and_empty_track_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_ns(1), ());
        q.schedule(SimTime::from_ns(2), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn advance_to_moves_clock() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(SimTime::from_us(3));
        assert_eq!(q.now(), SimTime::from_us(3));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn advance_backwards_panics() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(SimTime::from_us(3));
        q.advance_to(SimTime::from_us(2));
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), 10u64);
        q.schedule(SimTime::from_ns(50), 50);
        let (t, v) = q.pop().unwrap();
        assert_eq!((t.as_ns(), v), (10, 10));
        // Schedule between now and the pending event.
        q.schedule(SimTime::from_ns(20), 20);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![20, 50]);
    }

    #[test]
    fn peek_time_reports_minimum_without_popping() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_ns(1 << 50), 1u64);
        q.schedule(SimTime::from_ns(300), 2);
        q.schedule(SimTime::from_ns(70_000), 3);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(300)));
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn popped_total_counts_pops() {
        let mut q = EventQueue::new();
        for i in 0..5u64 {
            q.schedule(SimTime::from_ns(i * 100), i);
        }
        q.pop();
        q.pop();
        assert_eq!(q.popped_total(), 2);
        assert_eq!(q.scheduled_total(), 5);
    }
}
