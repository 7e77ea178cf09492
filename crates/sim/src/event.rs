//! The event queue at the heart of every simulation.
//!
//! Events are ordered by timestamp; ties are broken by insertion order so
//! a simulation is a deterministic function of its inputs.
//!
//! [`EventQueue`] is a hierarchical timer wheel with **batched slot
//! dispatch**. Scheduling and popping are O(1) amortized regardless of
//! how many events are pending, which matters because the simulator's
//! inner loop is dominated by queue traffic (every core hop, flash read,
//! and timer is an event). When the pop path reaches a level-0 slot it
//! drains the *whole* slot in one pass into a pooled ready buffer (sorted
//! by sequence number once), so the per-level candidate scan and the FIFO
//! tie-break are amortized over every event sharing that timestamp
//! instead of being paid per pop. `tests/kernel_properties.rs` checks its
//! pop stream against a `BinaryHeap` model of the contract.
//!
//! The wheel has `LEVELS` levels of `SLOTS` slots each; level `L`
//! slots span `64^L` ns, so the wheel covers `64^7 = 2^42` ns (≈ 73
//! simulated minutes) ahead of the cursor. Events beyond that horizon
//! park in an overflow list and are folded back in when the wheel runs
//! dry. Each level keeps a 64-bit occupancy bitmap so finding the next
//! non-empty slot is a `trailing_zeros`, not a scan.
//!
//! FIFO order among same-timestamp events is preserved exactly: every
//! entry carries its insertion sequence number, and a level-0 slot (which
//! holds a single timestamp) pops its minimum-sequence entry first.

use crate::time::SimTime;

/// Bits per wheel level (64 slots).
const SLOT_BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Slot-index mask.
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Number of wheel levels.
const LEVELS: usize = 7;
/// Horizon covered by the wheel, in ns ticks (`64^LEVELS`).
const WHEEL_SPAN: u64 = 1 << (SLOT_BITS * LEVELS as u32);

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

/// A time-ordered, insertion-stable priority queue of simulation events,
/// implemented as a hierarchical timer wheel.
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
    /// `LEVELS * SLOTS` buckets, indexed `level * SLOTS + slot`.
    slots: Box<[Vec<Entry<E>>]>,
    /// Per-level occupancy bitmaps.
    occupied: [u64; LEVELS],
    /// Events farther than [`WHEEL_SPAN`] ahead of the cursor.
    overflow: Vec<Entry<E>>,
    /// Earliest overflow timestamp (`u64::MAX` when overflow is empty),
    /// so the pop loop can tell when overflow is due without scanning.
    overflow_min: u64,
    /// Batched-dispatch buffer: the most recently drained level-0 slot,
    /// sorted by sequence number **descending** so FIFO delivery is a
    /// `Vec::pop` from the back. All entries share one timestamp (a
    /// level-0 slot spans a single tick), which is what makes draining
    /// ahead of delivery safe: nothing scheduled later can come due
    /// before the buffer is empty, and same-tick events scheduled while
    /// the buffer drains carry higher sequence numbers, so they land in
    /// the (now empty) slot and are delivered after it — exactly the
    /// per-pop order. The buffer's allocation is pooled across drains.
    ready: Vec<Entry<E>>,
    /// Pending event count (wheel + overflow).
    pending: usize,
    seq: u64,
    now: SimTime,
    /// Wheel cursor in ns ticks. Invariant: every pending event's
    /// timestamp is `>= elapsed`, and `elapsed <= now` between pops.
    elapsed: u64,
    scheduled_total: u64,
    popped_total: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at time zero.
    pub fn new() -> Self {
        EventQueue {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            ready: Vec::new(),
            pending: 0,
            seq: 0,
            now: SimTime::ZERO,
            elapsed: 0,
            scheduled_total: 0,
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
        let entry = Entry {
            at,
            seq: self.seq,
            payload,
        };
        self.seq += 1;
        self.scheduled_total += 1;
        self.insert(entry);
    }

    /// Schedules `payload` at `now + delay_ns`.
    pub fn schedule_after_ns(&mut self, delay_ns: u64, payload: E) {
        let at = self.now + crate::time::SimDuration::from_ns(delay_ns);
        self.schedule(at, payload);
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    ///
    /// Batched dispatch: the common case is a `Vec::pop` from the ready
    /// buffer filled by `drain_slot`; the candidate scan and any
    /// cascades run only once per level-0 slot, not once per event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = match self.ready.pop() {
            Some(entry) => entry,
            None => {
                if self.pending == 0 {
                    return None;
                }
                self.drain_slot();
                self.ready.pop().expect("drain_slot fills the buffer")
            }
        };
        self.pending -= 1;
        self.popped_total += 1;
        self.now = entry.at;
        Some((entry.at, entry.payload))
    }

    /// Advances the wheel (cascading higher levels, folding overflow back
    /// in) until a level-0 slot is due, then drains that whole slot into
    /// the ready buffer in one pass, sorted for FIFO delivery.
    ///
    /// Caller guarantees `pending > 0` and `ready` is empty.
    fn drain_slot(&mut self) {
        debug_assert!(self.ready.is_empty() && self.pending > 0);
        let _prof = astriflash_prof::scope(astriflash_prof::Scope::QueueCascade);
        loop {
            let candidate = self.next_candidate();
            // An overflow event may have become due before everything in
            // the wheel (the horizon is relative to the cursor at insert
            // time, not now). Fold overflow back in whenever its earliest
            // timestamp is at or before the earliest wheel candidate —
            // `<=` so same-timestamp FIFO is resolved by seq at pop time.
            if self.overflow_min <= candidate.map_or(u64::MAX, |(_, _, start)| start) {
                self.refill_from_overflow();
                continue;
            }
            match candidate {
                Some((0, slot, tick)) => {
                    // Level-0 slots span a single tick, so every entry
                    // shares the timestamp `tick`: take the whole slot in
                    // one pass and order it by sequence number once
                    // (descending, so delivery pops from the back). Both
                    // buffers keep their capacity — the slot's for future
                    // inserts, the ready buffer's for future drains.
                    debug_assert!(self.slots[slot].iter().all(|e| e.at.as_ns() == tick));
                    let ready = &mut self.ready;
                    ready.append(&mut self.slots[slot]);
                    self.occupied[0] &= !(1 << slot);
                    if self.ready.len() > 1 {
                        self.ready
                            .sort_unstable_by_key(|e| std::cmp::Reverse(e.seq));
                    }
                    self.elapsed = tick;
                    return;
                }
                Some((level, slot, slot_start)) => {
                    // Cascade: advance the cursor to the slot's start and
                    // redistribute its entries into lower levels. `drain`
                    // (rather than consuming the Vec) keeps the slot's
                    // allocation for the next events that land in it; a
                    // cascading entry never re-files into the slot it
                    // came from (its delta shrinks below the level span).
                    let idx = level * SLOTS + slot;
                    let mut bucket = std::mem::take(&mut self.slots[idx]);
                    self.occupied[level] &= !(1 << slot);
                    self.elapsed = slot_start;
                    self.pending -= bucket.len();
                    for entry in bucket.drain(..) {
                        self.insert(entry);
                    }
                    self.slots[idx] = bucket;
                }
                None => unreachable!("pending events but empty wheel and overflow"),
            }
        }
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        // Rarely used (nothing on the hot path peeks), so a plain scan of
        // every pending entry — including any drained-but-undelivered
        // ready batch — keeps this trivially correct.
        self.slots
            .iter()
            .flatten()
            .chain(self.overflow.iter())
            .chain(self.ready.iter())
            .map(|e| e.at)
            .min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Total events ever scheduled (for progress reporting / run stats).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
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

    /// Files an entry into the wheel (or overflow) based on its distance
    /// from the cursor. Caller maintains `tick >= self.elapsed`.
    fn insert(&mut self, entry: Entry<E>) {
        let tick = entry.at.as_ns();
        debug_assert!(tick >= self.elapsed);
        let delta = tick - self.elapsed;
        if delta >= WHEEL_SPAN {
            self.overflow_min = self.overflow_min.min(tick);
            self.overflow.push(entry);
        } else {
            let level = if delta < SLOTS as u64 {
                0
            } else {
                ((63 - delta.leading_zeros()) / SLOT_BITS) as usize
            };
            let slot = ((tick >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
            self.slots[level * SLOTS + slot].push(entry);
            self.occupied[level] |= 1 << slot;
        }
        self.pending += 1;
    }

    /// The earliest occupied `(level, slot, slot_start)` across all
    /// levels, or `None` when the whole wheel is empty (pending events,
    /// if any, are in overflow).
    ///
    /// On slot-start ties the **highest** level wins, so a higher-level
    /// slot whose range starts at a ready level-0 timestamp is cascaded
    /// before that timestamp pops — required for FIFO, since the
    /// higher-level slot may hold an older (lower-seq) event at the very
    /// same timestamp.
    fn next_candidate(&self) -> Option<(usize, usize, u64)> {
        let mut best: Option<(usize, usize, u64)> = None;
        for level in 0..LEVELS {
            let occ = self.occupied[level];
            if occ == 0 {
                continue;
            }
            let shift = SLOT_BITS * level as u32;
            let width = 1u64 << shift;
            let range = width << SLOT_BITS;
            let pos = ((self.elapsed >> shift) & SLOT_MASK) as u32;
            let base = self.elapsed & !(range - 1);
            // Slots at or ahead of the cursor position belong to the
            // current rotation — with one exception. When the cursor sits
            // strictly *inside* its slot's range (possible at levels above
            // 0 once lower-level pops advanced it), that slot can only
            // hold next-rotation entries: current-rotation ones would
            // imply the cursor crossed the slot's start without cascading
            // it, which the candidate ordering forbids. When the cursor
            // sits exactly on the slot boundary (as it does right after a
            // cascade of a same-start higher slot), the slot's whole range
            // is still ahead and its entries are current-rotation.
            let aligned = self.elapsed & (width - 1) == 0;
            let ahead = if aligned {
                occ & (u64::MAX << pos)
            } else {
                occ & ((u64::MAX << pos) << 1)
            };
            let (slot, start) = if ahead != 0 {
                let s = ahead.trailing_zeros();
                (s as usize, base + u64::from(s) * width)
            } else {
                let s = occ.trailing_zeros();
                (s as usize, base + range + u64::from(s) * width)
            };
            if best.is_none_or(|(_, _, b)| start <= b) {
                best = Some((level, slot, start));
            }
        }
        best
    }

    /// The earliest overflow event is due: jump the cursor to its
    /// timestamp (safe — every pending event is at or after it) and fold
    /// every overflow event within the wheel's horizon back in.
    fn refill_from_overflow(&mut self) {
        let min_tick = self.overflow_min;
        debug_assert!(min_tick >= self.elapsed && !self.overflow.is_empty());
        self.elapsed = min_tick;
        self.overflow_min = u64::MAX;
        let mut i = 0;
        while i < self.overflow.len() {
            let tick = self.overflow[i].at.as_ns();
            if tick - min_tick < WHEEL_SPAN {
                let entry = self.overflow.swap_remove(i);
                self.pending -= 1; // insert() re-counts it
                self.insert(entry);
            } else {
                self.overflow_min = self.overflow_min.min(tick);
                i += 1;
            }
        }
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
    fn far_future_events_park_in_overflow_and_return() {
        let mut q = EventQueue::new();
        let far = WHEEL_SPAN * 3 + 17;
        q.schedule(SimTime::from_ns(far), "far");
        q.schedule(SimTime::from_ns(5), "near");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().map(|(t, e)| (t.as_ns(), e)), Some((5, "near")));
        assert_eq!(q.pop().map(|(t, e)| (t.as_ns(), e)), Some((far, "far")));
        assert!(q.is_empty());
    }

    #[test]
    fn same_timestamp_split_across_levels_pops_fifo() {
        // seq 0 lands in a high level (scheduled from t=0), then after the
        // cursor advances a same-timestamp event lands in level 0. The
        // cascade-before-pop tie rule must still deliver seq order.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(64), 0u64); // level 1 from elapsed=0
        q.schedule(SimTime::from_ns(10), 99);
        assert_eq!(q.pop().map(|(_, e)| e), Some(99)); // elapsed = 10
        q.schedule(SimTime::from_ns(64), 1); // level 0 (wrapped) from elapsed=10
        assert_eq!(q.pop().map(|(_, e)| e), Some(0));
        assert_eq!(q.pop().map(|(_, e)| e), Some(1));
    }

    #[test]
    fn peek_time_reports_minimum_without_popping() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_ns(WHEEL_SPAN + 9), 1u64);
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

    #[test]
    fn batched_drain_preserves_fifo_within_a_tick() {
        // A burst of same-timestamp events is drained in one pass and
        // must still deliver in insertion order, interleaved with events
        // scheduled at the same tick *while* the batch drains.
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(SimTime::from_ns(5), i);
        }
        // Deliver half the batch, then add two more at the same tick.
        for i in 0..5 {
            assert_eq!(q.pop().map(|(_, e)| e), Some(i));
        }
        q.schedule(SimTime::from_ns(5), 10);
        q.schedule(SimTime::from_ns(5), 11);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![5, 6, 7, 8, 9, 10, 11]);
    }

    #[test]
    fn peek_and_len_see_the_ready_batch() {
        let mut q = EventQueue::new();
        for i in 0..4 {
            q.schedule(SimTime::from_ns(9), i);
        }
        q.schedule(SimTime::from_ns(100), 99);
        assert_eq!(q.pop().map(|(_, e)| e), Some(0)); // drains the tick-9 slot
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(9)));
        assert_eq!(q.popped_total(), 1);
    }
}
