//! Property tests of the simulation kernel primitives.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use astriflash_sim::{BandwidthLink, EventQueue, SimDuration, SimRng, SimTime};
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

/// Differential test: [`EventQueue`] must deliver the exact same
/// `(timestamp, payload)` stream as the [`HeapModel`], with the same
/// clock, length and peeked time after every pop, under randomized
/// interleaved schedules, pops and event-free clock advances. The delay
/// mix covers:
///
/// * same-timestamp bursts, including bursts at the current time while
///   earlier events at that time are still pending (FIFO tie-breaks);
/// * scattered short, medium and long delays;
/// * far-future events, 2^42 ns and more ahead.
#[test]
fn event_queue_matches_heap_reference() {
    prop_check!(cases: 64, |g| {
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut heap = HeapModel::new();
        let rounds = g.usize_in(1..400);
        let mut tag = 0u64;
        for _ in 0..rounds {
            match g.usize_in(0..8) {
                // Burst at a single timestamp.
                0..=1 => {
                    let delay = match g.usize_in(0..4) {
                        0 => 0,
                        1 => g.u64_in(0..64),
                        2 => g.u64_in(0..100_000),
                        _ => g.u64_in(1 << 42..1 << 50),
                    };
                    for _ in 0..g.usize_in(1..12) {
                        queue.schedule_after_ns(delay, tag);
                        heap.schedule_after_ns(delay, tag);
                        tag += 1;
                    }
                }
                // Scatter of independent delays.
                2..=4 => {
                    for _ in 0..g.usize_in(1..8) {
                        let delay = match g.usize_in(0..4) {
                            0 => 0,
                            1 => {
                                let span_bits = g.u32_in(1..44);
                                g.u64_in(0..1 << span_bits)
                            }
                            2 => g.u64_in(0..1 << 30),
                            _ => g.u64_in(1 << 42..1 << 50),
                        };
                        queue.schedule_after_ns(delay, tag);
                        heap.schedule_after_ns(delay, tag);
                        tag += 1;
                    }
                }
                // Pops, checked in lockstep.
                5..=6 => {
                    for _ in 0..g.usize_in(1..10) {
                        assert_eq!(queue.pop(), heap.pop(), "pop stream diverged");
                        assert_eq!(queue.now(), heap.now);
                        assert_eq!(queue.len(), heap.heap.len());
                        assert_eq!(queue.peek_time(), heap.peek_time());
                    }
                }
                // Event-free clock advance (statistics-window close).
                _ => {
                    let to = queue.now() + SimDuration::from_ns(g.u64_in(0..10_000));
                    queue.advance_to(to);
                    heap.advance_to(to);
                }
            }
        }
        // Drain both queues completely.
        loop {
            let popped = queue.pop();
            assert_eq!(popped, heap.pop(), "drain stream diverged");
            if popped.is_none() {
                break;
            }
        }
        assert_eq!(queue.scheduled_total(), heap.seq);
        assert_eq!(queue.popped_total(), heap.seq);
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
