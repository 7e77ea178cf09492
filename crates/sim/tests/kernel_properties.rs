//! Property tests of the simulation kernel primitives.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use astriflash_sim::{
    BandwidthLink, BoundedQueue, EventQueue, PageMap, SimDuration, SimRng, SimTime,
};
use astriflash_testkit::prop_check;

/// The event-queue contract as a `BinaryHeap`: earliest timestamp first,
/// insertion order among equal timestamps, and the clock at the last
/// popped timestamp (or where `advance_to` moved it).
struct HeapModel {
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    seq: u64,
    now: SimTime,
}

impl HeapModel {
    fn new() -> Self {
        HeapModel {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    fn schedule_after_ns(&mut self, delay_ns: u64, payload: u64) {
        let at = self.now + SimDuration::from_ns(delay_ns);
        self.heap.push(Reverse((at, self.seq, payload)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let Reverse((at, _, payload)) = self.heap.pop()?;
        self.now = at;
        Some((at, payload))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    fn advance_to(&mut self, to: SimTime) {
        self.now = to;
    }
}

/// Time arithmetic: (t + d) - t == d and ordering is preserved, for any
/// values that do not overflow.
#[test]
fn time_arithmetic_roundtrips() {
    prop_check!(cases: 128, |g| {
        let t = SimTime::from_ns(g.u64_in(0..u64::MAX / 4));
        let d = SimDuration::from_ns(g.u64_in(0..u64::MAX / 4));
        assert_eq!((t + d) - t, d);
        assert!((t + d) >= t);
    });
}

/// A bandwidth link never completes a transfer before its request and
/// total busy time equals the sum of service times.
#[test]
fn bandwidth_link_is_causal() {
    prop_check!(cases: 128, |g| {
        let sizes = g.vec(1..50, |g| g.u64_in(1..1_000_000));
        let bps = g.u64_in(1_000_000..100_000_000_000);
        let mut link = BandwidthLink::new(bps);
        let mut last_done = SimTime::ZERO;
        let mut expect_busy = SimDuration::ZERO;
        for &bytes in &sizes {
            let done = link.transfer(SimTime::ZERO, bytes);
            assert!(done >= last_done, "completions must be ordered");
            expect_busy += link.service_time(bytes);
            last_done = done;
        }
        // Back-to-back requests at t=0 keep the link busy continuously.
        assert_eq!(link.busy_until() - SimTime::ZERO, expect_busy);
        assert_eq!(link.bytes_moved(), sizes.iter().sum::<u64>());
    });
}

/// Bounded queues preserve FIFO order and never exceed capacity.
#[test]
fn bounded_queue_fifo() {
    prop_check!(cases: 128, |g| {
        let items = g.vec(1..200, |g| g.any_u32());
        let capacity = g.usize_in(1..64);
        let mut q = BoundedQueue::new(capacity);
        let mut accepted = Vec::new();
        for &item in &items {
            if q.push(SimTime::ZERO, item).is_ok() {
                accepted.push(item);
            }
            assert!(q.len() <= capacity);
        }
        let drained: Vec<u32> = std::iter::from_fn(|| q.pop(SimTime::ZERO)).collect();
        assert_eq!(drained, accepted);
    });
}

/// The RNG's bounded generation is uniform enough that every residue
/// class of a small modulus is hit.
#[test]
fn rng_bounded_covers() {
    prop_check!(cases: 128, |g| {
        let seed = g.any_u64();
        let bound = g.u64_in(2..32);
        let mut rng = SimRng::new(seed);
        let mut seen = vec![false; bound as usize];
        for _ in 0..(bound * 200) {
            let v = rng.gen_range(bound);
            assert!(v < bound);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "a residue class was never drawn");
    });
}

/// Differential test: the timer-wheel [`EventQueue`] must deliver the
/// exact same `(timestamp, payload)` stream as the [`HeapModel`] under
/// randomized interleaved schedules and pops —
/// including bursts of same-timestamp events (FIFO tie-breaks) and
/// far-future events that land in the wheel's overflow level.
#[test]
fn event_queue_matches_heap_reference() {
    prop_check!(cases: 64, |g| {
        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut heap = HeapModel::new();
        let rounds = g.usize_in(1..400);
        let mut tag = 0u64;
        for _ in 0..rounds {
            let schedules = g.usize_in(0..8);
            for _ in 0..schedules {
                // Mix of delay regimes: immediate (same-timestamp FIFO
                // bursts at `now`), short, medium, long, and far-future
                // (beyond the 2^42 ns wheel horizon → overflow level).
                let delay = match g.usize_in(0..5) {
                    0 => 0,
                    1 => g.u64_in(0..64),
                    2 => g.u64_in(0..100_000),
                    3 => g.u64_in(0..1 << 30),
                    _ => g.u64_in(1 << 42..1 << 50),
                };
                wheel.schedule_after_ns(delay, tag);
                heap.schedule_after_ns(delay, tag);
                tag += 1;
            }
            let pops = g.usize_in(0..6);
            for _ in 0..pops {
                assert_eq!(wheel.pop(), heap.pop(), "pop stream diverged");
                assert_eq!(wheel.now(), heap.now);
                assert_eq!(wheel.len(), heap.heap.len());
            }
        }
        // Drain both queues completely.
        loop {
            let w = wheel.pop();
            assert_eq!(w, heap.pop(), "drain stream diverged");
            if w.is_none() {
                break;
            }
        }
        assert_eq!(wheel.scheduled_total(), heap.seq);
    });
}

/// Differential test of **batched slot dispatch**: the production
/// [`EventQueue`] (whole-slot drain into a pooled, seq-sorted ready
/// buffer) must deliver the exact same `(timestamp, payload)` stream as
/// the [`HeapModel`], under randomized interleaved push/pop/advance
/// schedules. The delay mix deliberately stresses the
/// batching-specific cases:
///
/// * same-tick ties — bursts of events at one exact timestamp, including
///   events scheduled *at the current tick while its drained batch is
///   still delivering* (they must come after the whole batch, by seq);
/// * far-future rotations — delays beyond the 2^42 ns wheel horizon that
///   park in overflow and fold back in mid-drain.
#[test]
fn batched_drain_matches_heap_model() {
    prop_check!(cases: 64, |g| {
        let mut batched: EventQueue<u64> = EventQueue::new();
        let mut heap = HeapModel::new();
        let rounds = g.usize_in(1..300);
        let mut tag = 0u64;
        for _ in 0..rounds {
            match g.usize_in(0..8) {
                // Burst at a single timestamp (same-tick FIFO ties).
                0..=1 => {
                    let delay = match g.usize_in(0..4) {
                        0 => 0, // at `now`: lands behind any in-flight batch
                        1 => g.u64_in(0..64),
                        2 => g.u64_in(0..100_000),
                        _ => g.u64_in(1 << 42..1 << 50), // overflow rotation
                    };
                    let burst = g.usize_in(1..12);
                    for _ in 0..burst {
                        batched.schedule_after_ns(delay, tag);
                        heap.schedule_after_ns(delay, tag);
                        tag += 1;
                    }
                }
                // Scatter of independent delays.
                2..=4 => {
                    let n = g.usize_in(1..8);
                    for _ in 0..n {
                        let span_bits = g.u32_in(1..44);
                        let delay = g.u64_in(0..1 << span_bits);
                        batched.schedule_after_ns(delay, tag);
                        heap.schedule_after_ns(delay, tag);
                        tag += 1;
                    }
                }
                // Pops, checked in lockstep.
                5..=6 => {
                    let pops = g.usize_in(1..10);
                    for _ in 0..pops {
                        assert_eq!(batched.pop(), heap.pop(), "batched vs heap diverged");
                        assert_eq!(batched.now(), heap.now);
                        assert_eq!(batched.len(), heap.heap.len());
                        assert_eq!(batched.peek_time(), heap.peek_time());
                    }
                }
                // Event-free clock advance (statistics-window close).
                _ => {
                    // Only legal when it does not step over pending
                    // events' delivery times moving `now` past them is
                    // fine for the contract, but keep both in lockstep
                    // regardless.
                    let d = g.u64_in(0..10_000);
                    let to = batched.now() + SimDuration::from_ns(d);
                    batched.advance_to(to);
                    heap.advance_to(to);
                }
            }
        }
        // Drain fully; both must agree to the end.
        loop {
            let b = batched.pop();
            assert_eq!(b, heap.pop(), "drain: batched vs heap diverged");
            if b.is_none() {
                break;
            }
        }
        assert_eq!(batched.scheduled_total(), heap.seq);
        assert_eq!(batched.popped_total(), heap.seq);
    });
}

/// [`PageMap`] agrees with `std::collections::HashMap` under a random
/// op stream over a small (collision-heavy) key space.
#[test]
fn page_map_matches_hashmap_reference() {
    prop_check!(cases: 64, |g| {
        let mut map: PageMap<u64> = PageMap::new();
        let mut reference = std::collections::HashMap::new();
        let ops = g.usize_in(1..2_000);
        for _ in 0..ops {
            let key = g.u64_in(0..256);
            match g.usize_in(0..4) {
                0 | 1 => {
                    let val = g.any_u64();
                    assert_eq!(map.insert(key, val), reference.insert(key, val));
                }
                2 => assert_eq!(map.remove(key), reference.remove(&key)),
                _ => assert_eq!(map.get(key), reference.get(&key).copied()),
            }
            assert_eq!(map.len(), reference.len());
        }
    });
}

/// Exponential samples are nonnegative and the sample mean is within a
/// loose band of the requested mean.
#[test]
fn exponential_mean_band() {
    prop_check!(cases: 128, |g| {
        let seed = g.any_u64();
        let mean = g.f64_in(1.0..100_000.0);
        let mut rng = SimRng::new(seed);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = rng.gen_exp(mean);
            assert!(v >= 0.0);
            sum += v;
        }
        let sample_mean = sum / n as f64;
        assert!(
            (sample_mean - mean).abs() / mean < 0.1,
            "sample mean {sample_mean} vs {mean}"
        );
    });
}
