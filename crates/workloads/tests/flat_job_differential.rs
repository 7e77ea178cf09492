//! Job-stream pins for the flat job pipeline (DESIGN.md §14).
//!
//! Every engine's `fill_job` stream is pinned by an FNV-1a digest over
//! each job's ops (compute time, access count) and accesses (address,
//! write bit, vpn, block), for three (engine seed, job seed) pairs of
//! 200 jobs each — including engines with internal state (TPC-C's
//! circular order-line log, Masstree/RBT index churn) where a single
//! divergent draw changes everything after it. The digests were computed
//! when the legacy nested `next_job` path still existed, and both paths
//! produced them. A second suite stress-tests `JobArena` recycling.

use astriflash_sim::SimRng;
use astriflash_testkit::prop_check;
use astriflash_workloads::engines::Tpcc;
use astriflash_workloads::{JobArena, JobBuf, WorkloadEngine, WorkloadKind, WorkloadParams};

/// (engine seed, job seed) pairs; each stream is [`JOBS`] jobs long.
const PAIRS: [(u64, u64); 3] = [(1, 1), (17, 4242), (901, 7)];
const JOBS: usize = 200;

/// Digest of each kind's three streams at `tiny_for_tests`, by name.
const KIND_DIGESTS: [(&str, u64); 7] = [
    ("ArraySwap", 0xfda4_a7a3_9558_ce72),
    ("HashTable", 0x4743_16e0_7121_0fce),
    ("RBT", 0x0d21_358f_8afd_ade4),
    ("TATP", 0xc68e_2e58_8230_36f8),
    ("TPCC", 0xa24a_ecc9_6f22_b5ea),
    ("Silo", 0xc460_506f_4bf7_9092),
    ("Masstree", 0x03b8_a779_322d_9b70),
];

/// Digest of TPC-C's five-transaction mix (64 MiB dataset), which
/// `WorkloadKind` does not reach.
const TPCC_FULL_MIX_DIGEST: u64 = 0x8851_6626_dc2a_8099;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn job(&mut self, buf: &JobBuf) {
        self.word(buf.ops().len() as u64);
        for op in buf.ops() {
            self.word(op.compute_ns);
            self.word(u64::from(op.access_len));
            let start = op.access_start as usize;
            for a in &buf.accesses()[start..start + op.access_len as usize] {
                self.word(a.addr);
                self.word(u64::from(a.is_write));
                self.word(a.vpn);
                self.word(u64::from(a.block));
            }
        }
    }
}

/// Digest of the [`PAIRS`] streams of the engines `build` returns.
fn stream_digest(mut build: impl FnMut(u64) -> Box<dyn WorkloadEngine>) -> u64 {
    let mut h = Fnv::new();
    let mut buf = JobBuf::new();
    for (engine_seed, job_seed) in PAIRS {
        let mut engine = build(engine_seed);
        let mut rng = SimRng::new(job_seed);
        for _ in 0..JOBS {
            engine.fill_job(&mut buf, &mut rng);
            h.job(&buf);
        }
    }
    h.0
}

#[test]
fn job_streams_match_pinned_digests() {
    let params = WorkloadParams::tiny_for_tests();
    for kind in WorkloadKind::all() {
        let (_, want) = KIND_DIGESTS
            .iter()
            .find(|(name, _)| *name == kind.name())
            .expect("every kind is pinned");
        let got = stream_digest(|seed| kind.build(&params, seed));
        assert_eq!(got, *want, "{kind}: job stream digest {got:#018x}");
    }
}

#[test]
fn tpcc_full_mix_matches_pinned_digest() {
    let params = WorkloadParams {
        dataset_bytes: 64 << 20,
        ..WorkloadParams::tiny_for_tests()
    };
    let got = stream_digest(|seed| Box::new(Tpcc::new(&params, seed).with_full_mix()));
    assert_eq!(got, TPCC_FULL_MIX_DIGEST, "job stream digest {got:#018x}");
}

/// Arena recycling under interleaved alloc/complete traffic: no slot is
/// ever handed out twice while live (aliasing), every release is
/// recycled before the pool grows (leaks), and live buffers keep their
/// contents until released.
#[test]
fn arena_recycling_stress() {
    prop_check!(cases: 24, |g| {
        let threads = g.usize_in(1..9);
        let steps = g.usize_in(10..200);
        let seed = g.u64_in(0..1_000);
        let params = WorkloadParams::tiny_for_tests();
        let mut engine = WorkloadKind::HashTable.build(&params, seed);
        let mut rng = SimRng::new(seed ^ 0xA5);
        let mut arena = JobArena::with_capacity(threads);
        let mut live: Vec<(u32, u64, usize)> = Vec::new(); // (slot, compute, accesses)
        let mut high_water = arena.len();
        for step in 0..steps {
            let complete = !live.is_empty() && (g.any_bool() || live.len() >= threads);
            if complete {
                let idx = g.usize_in(0..live.len());
                let (slot, compute, accesses) = live.swap_remove(idx);
                // Contents survived while other slots were refilled.
                let buf = arena.buf(slot);
                assert_eq!(buf.total_compute_ns(), compute, "step {step}: slot {slot} mutated");
                assert_eq!(buf.total_accesses(), accesses, "step {step}: slot {slot} mutated");
                arena.release(slot);
            } else {
                let slot = arena.alloc();
                assert!(
                    live.iter().all(|&(s, _, _)| s != slot),
                    "step {step}: slot {slot} aliased while live"
                );
                engine.fill_job(arena.buf_mut(slot), &mut rng);
                let buf = arena.buf(slot);
                live.push((slot, buf.total_compute_ns(), buf.total_accesses()));
            }
            assert_eq!(arena.live(), live.len(), "step {step}: live accounting");
            assert_eq!(arena.len(), arena.live() + arena.free_len(), "step {step}: leak");
            high_water = high_water.max(arena.len());
        }
        // The pool never grows past the peak concurrency: with at most
        // `threads` jobs in flight, `with_capacity(threads)` slots are
        // recycled rather than leaked.
        assert_eq!(high_water, threads.max(arena.len()));
        assert!(arena.len() <= threads, "pool grew past peak concurrency");
    });
}
