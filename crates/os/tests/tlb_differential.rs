//! Differential property tests proving the flat struct-of-arrays [`Tlb`]
//! is decision-identical to a naive `Vec<Vec<(vpn, tick)>>` tick-LRU
//! model ([`RefTlb`]): every hit/miss outcome, every invalidation
//! result, and the running counters agree over randomized sequences,
//! across both power-of-two (masked index) and non-power-of-two (modulo)
//! set counts.

use astriflash_os::tlb::TlbResult;
use astriflash_os::Tlb;
use astriflash_testkit::prop_check;

/// True LRU over an ever-growing per-access tick, one `Vec` of
/// `(vpn, last-touched tick)` per set: the TLB as it was before the
/// flattening (DESIGN.md §10).
struct RefTlb {
    sets: Vec<Vec<(u64, u64)>>,
    ways: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl RefTlb {
    fn new(entries: usize, ways: usize) -> Self {
        RefTlb {
            sets: vec![Vec::new(); (entries / ways).max(1)],
            ways,
            tick: 0,
            hits: 0,
            misses: 0,
            invalidations: 0,
        }
    }

    fn set_of(&mut self, vpn: u64) -> &mut Vec<(u64, u64)> {
        let n = self.sets.len() as u64;
        &mut self.sets[(vpn % n) as usize]
    }

    fn access(&mut self, vpn: u64) -> TlbResult {
        self.tick += 1;
        let (tick, ways) = (self.tick, self.ways);
        let set = self.set_of(vpn);
        if let Some(e) = set.iter_mut().find(|e| e.0 == vpn) {
            e.1 = tick;
            self.hits += 1;
            return TlbResult::Hit;
        }
        if set.len() >= ways {
            let (pos, _) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.1)
                .expect("full set");
            set.swap_remove(pos);
        }
        set.push((vpn, tick));
        self.misses += 1;
        TlbResult::Miss
    }

    fn invalidate(&mut self, vpn: u64) -> bool {
        let set = self.set_of(vpn);
        let Some(pos) = set.iter().position(|e| e.0 == vpn) else {
            return false;
        };
        set.swap_remove(pos);
        self.invalidations += 1;
        true
    }
}

#[test]
fn flat_tlb_matches_reference_on_random_sequences() {
    prop_check!(cases: 96, |g| {
        let ways = g.usize_in(1..17);
        // Sets 1..24 — mixes masked and modulo index paths.
        let sets = g.usize_in(1..24);
        let entries = sets * ways;
        let mut flat = Tlb::new(entries, ways);
        let mut reference = RefTlb::new(entries, ways);

        // Confine vpns so sets churn: hits, cold fills, and evictions.
        let vpns = g.u64_in(1..(entries as u64 * 4 + 2));
        for _ in 0..g.usize_in(50..400) {
            let vpn = g.u64_in(0..vpns);
            if g.bool_p(0.1) {
                assert_eq!(
                    flat.invalidate(vpn),
                    reference.invalidate(vpn),
                    "invalidate({vpn}) diverged"
                );
            } else {
                assert_eq!(
                    flat.access(vpn),
                    reference.access(vpn),
                    "access({vpn}) diverged"
                );
            }
        }
        assert_eq!(flat.hits(), reference.hits);
        assert_eq!(flat.misses(), reference.misses);
        assert_eq!(flat.invalidations(), reference.invalidations);
    });
}

/// The split probe/miss_fill fast path composes to the reference's
/// access decisions, with identical counters.
#[test]
fn split_fast_path_matches_reference() {
    prop_check!(cases: 48, |g| {
        let ways = g.usize_in(1..9);
        let sets = g.usize_in(1..6);
        let mut flat = Tlb::new(sets * ways, ways);
        let mut reference = RefTlb::new(sets * ways, ways);
        let vpns = (sets * ways) as u64 * 3;
        for _ in 0..200 {
            let vpn = g.u64_in(0..vpns);
            let split = if flat.probe(vpn) {
                TlbResult::Hit
            } else {
                flat.miss_fill(vpn);
                TlbResult::Miss
            };
            assert_eq!(split, reference.access(vpn), "vpn {vpn} diverged");
        }
        assert_eq!(flat.hits(), reference.hits);
        assert_eq!(flat.misses(), reference.misses);
    });
}

/// The shipped geometry (1536 entries, 6 ways — a 256-set masked index)
/// agrees with the reference under a shootdown-heavy mix.
#[test]
fn shipped_geometry_matches_reference() {
    let mut flat = Tlb::new(1536, 6);
    let mut reference = RefTlb::new(1536, 6);
    for i in 0..20_000u64 {
        let vpn = (i * 2654435761) % 4096;
        if i % 13 == 0 {
            assert_eq!(flat.invalidate(vpn), reference.invalidate(vpn), "i={i}");
        } else {
            assert_eq!(flat.access(vpn), reference.access(vpn), "i={i}");
        }
    }
    assert_eq!(flat.hits(), reference.hits);
    assert_eq!(flat.misses(), reference.misses);
    assert_eq!(flat.invalidations(), reference.invalidations);
    assert!((flat.miss_ratio() - {
        let t = (reference.hits + reference.misses) as f64;
        reference.misses as f64 / t
    })
    .abs()
        < 1e-12);
}

/// [`Tlb::probe_run`] (the batched hit-run primitive, DESIGN.md §15)
/// performs exactly the same probes as a scalar `probe` loop stopping
/// at the first miss: same return length, same counters, and the same
/// final recency state — checked by replaying the identical randomized
/// mix (runs interleaved with invalidations and fills) against a twin
/// driven one probe at a time, then diffing future behaviour.
#[test]
fn probe_run_matches_a_scalar_probe_loop() {
    prop_check!(cases: 96, |g| {
        let ways = g.usize_in(1..9);
        let sets = g.usize_in(1..12);
        let entries = sets * ways;
        let mut batched = Tlb::new(entries, ways);
        let mut scalar = Tlb::new(entries, ways);
        let vpns = entries as u64 * 3 + 1;
        for _ in 0..g.usize_in(20..120) {
            if g.bool_p(0.2) {
                // Mutate both twins identically between runs: fills and
                // shootdowns move entries mid-sequence.
                let vpn = g.u64_in(0..vpns);
                if g.any_bool() {
                    assert_eq!(batched.access(vpn), scalar.access(vpn));
                } else {
                    assert_eq!(batched.invalidate(vpn), scalar.invalidate(vpn));
                }
                continue;
            }
            // Random run, deliberately biased toward same-vpn repeats —
            // the memoized path probe_run takes for page segments.
            let len = g.usize_in(0..12);
            let mut run = Vec::with_capacity(len);
            for _ in 0..len {
                let vpn = if g.bool_p(0.5) && !run.is_empty() {
                    *run.last().expect("nonempty")
                } else {
                    g.u64_in(0..vpns)
                };
                run.push(vpn);
            }
            // Scalar reference: probe until the first miss.
            let mut expect = 0usize;
            for &vpn in &run {
                if !scalar.probe(vpn) {
                    break;
                }
                expect += 1;
            }
            assert_eq!(
                batched.probe_run(run.iter().copied()),
                expect,
                "run {run:?} diverged"
            );
            assert_eq!(batched.hits(), scalar.hits(), "hit counters diverged");
            assert_eq!(batched.misses(), scalar.misses(), "miss counters diverged");
        }
        // Final-state identity: every vpn must land the same way on both
        // twins after the whole interleave (recency words agree).
        for vpn in 0..vpns {
            assert_eq!(
                batched.access(vpn),
                scalar.access(vpn),
                "post-sequence access({vpn}) diverged"
            );
        }
    });
}
