//! The hit-run kernel (DESIGN.md §15): consumes the leading
//! TLB-hit+L1-hit run of a job's access span in one pass, instead of
//! one interpreter step per access.
//!
//! The span is cut into same-page segments. One real TLB probe decides
//! a whole segment and its repeats are counted by [`Tlb::probe_run`];
//! the segment's L1 probes go through [`CacheHierarchy::l1_probe_run`].
//! The TLB and L1 probes of a hit access touch disjoint structures, so
//! probing a segment's TLB repeats after its L1 scan leaves the same
//! state as the per-access interleave. The unit test below checks that
//! against a per-access loop kept in the test.

use astriflash_mem::CacheHierarchy;
use astriflash_os::Tlb;
use astriflash_workloads::MemoryAccess;

use crate::system::SLICE_NS;

/// Why [`scan`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RunStop {
    /// Budget or end of span: nothing left to probe.
    Exhausted,
    /// The TLB missed the next access; nothing was probed for it.
    TlbMiss,
    /// The TLB hit but the L1 missed the next access: its TLB probe is
    /// already counted, its L1 is untouched.
    L1Miss,
}

/// How many accesses of a `len`-long span a slice with `elapsed_ns` of
/// its budget spent admits at `per_ns` per hit. A per-access loop
/// re-checks the budget before every access, so access `i` (0-based)
/// runs only while `elapsed_ns + i * per_ns <= SLICE_NS`.
#[inline]
pub(crate) fn run_cap(elapsed_ns: u64, per_ns: u64, len: u32) -> u32 {
    debug_assert!(elapsed_ns <= SLICE_NS, "the caller checked the budget");
    match (SLICE_NS - elapsed_ns).checked_div(per_ns) {
        // Free hits: the whole span fits the budget.
        None => len,
        Some(q) => (q + 1).min(u64::from(len)) as u32,
    }
}

/// Probes up to `cap` leading accesses of `slab` on `core`'s TLB and L1
/// and returns how many hit both, and why it stopped. TLB, L1 and their
/// counters end exactly as after a per-access loop that probes the TLB,
/// then the L1, and stops at the first miss.
///
/// `cap` must not exceed `slab.len()`.
#[inline]
pub(crate) fn scan(
    tlb: &mut Tlb,
    hier: &mut CacheHierarchy,
    core: usize,
    slab: &[MemoryAccess],
    cap: u32,
) -> (u32, RunStop) {
    let mut consumed: u32 = 0;
    let stop = loop {
        if consumed >= cap {
            break RunStop::Exhausted;
        }
        // Leading same-page segment of the remaining budgeted accesses.
        let vpn = slab[consumed as usize].vpn;
        let mut seg: u32 = 1;
        while consumed + seg < cap && slab[(consumed + seg) as usize].vpn == vpn {
            seg += 1;
        }
        // One real TLB probe decides the whole segment; a miss touches
        // nothing.
        if !tlb.probe(vpn) {
            break RunStop::TlbMiss;
        }
        let l1n = hier.l1_probe_run(
            core,
            slab[consumed as usize..(consumed + seg) as usize]
                .iter()
                .map(|a| (a.addr, a.is_write)),
        ) as u32;
        if l1n < seg {
            // The per-access loop probes the TLB of the L1-missing access
            // too (a repeat hit of this segment's page) before it finds
            // the L1 miss: l1n repeats cover accesses 1..l1n plus that one.
            tlb.probe_run(std::iter::repeat_n(vpn, l1n as usize));
            consumed += l1n;
            break RunStop::L1Miss;
        }
        // Whole segment hit: one probe done, seg-1 repeats.
        tlb.probe_run(std::iter::repeat_n(vpn, seg as usize - 1));
        consumed += seg;
    };
    (consumed, stop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use astriflash_mem::HierarchyConfig;
    use astriflash_sim::SimRng;
    use astriflash_testkit::{prop_check, TestRng};
    use astriflash_workloads::{JobBuf, WorkloadKind, WorkloadParams, PAGE_SIZE};

    /// The reference: the per-access loop [`scan`] replaces. Each access
    /// probes the TLB, then the L1, and the loop stops at the first miss.
    fn scan_per_access(
        tlb: &mut Tlb,
        hier: &mut CacheHierarchy,
        core: usize,
        slab: &[MemoryAccess],
        cap: u32,
    ) -> (u32, RunStop) {
        for (i, a) in slab[..cap as usize].iter().enumerate() {
            if !tlb.probe(a.vpn) {
                return (i as u32, RunStop::TlbMiss);
            }
            if !hier.l1_probe(core, a.addr, a.is_write) {
                return (i as u32, RunStop::L1Miss);
            }
        }
        (cap, RunStop::Exhausted)
    }

    /// The per-access loop's budget test: access `i` runs while the
    /// slice has not gone past `SLICE_NS`.
    fn admitted(elapsed_ns: u64, per_ns: u64, len: u32) -> u32 {
        (0..len)
            .take_while(|&i| elapsed_ns + u64::from(i) * per_ns <= SLICE_NS)
            .count() as u32
    }

    #[test]
    fn run_cap_matches_the_per_access_budget_test() {
        let near_start = 0..=64;
        let near_end = SLICE_NS - 256..=SLICE_NS;
        for elapsed in near_start.chain(near_end) {
            for per in 0..=40 {
                for len in 1..=48 {
                    assert_eq!(
                        run_cap(elapsed, per, len),
                        admitted(elapsed, per, len),
                        "elapsed={elapsed} per={per} len={len}"
                    );
                }
            }
        }
    }

    /// Every access span (op) of 12 jobs of each kind, with length > 0.
    fn real_spans() -> Vec<Vec<MemoryAccess>> {
        let params = WorkloadParams::tiny_for_tests();
        let mut spans = Vec::new();
        let mut buf = JobBuf::new();
        for kind in WorkloadKind::all() {
            let mut engine = kind.build(&params, 11);
            let mut rng = SimRng::new(12);
            for _ in 0..12 {
                engine.fill_job(&mut buf, &mut rng);
                for op in buf.ops() {
                    let start = op.access_start as usize;
                    let span = &buf.accesses()[start..start + op.access_len as usize];
                    if !span.is_empty() {
                        spans.push(span.to_vec());
                    }
                }
            }
        }
        spans
    }

    /// Spans over `pages` pages, four blocks each, with same-page runs.
    fn synthetic_spans(g: &mut TestRng, pages: u64) -> Vec<Vec<MemoryAccess>> {
        (0..g.usize_in(4..24))
            .map(|_| {
                let mut span: Vec<MemoryAccess> = Vec::new();
                for _ in 0..g.usize_in(1..64) {
                    let page = match span.last() {
                        Some(prev) if g.bool_p(0.6) => prev.vpn,
                        _ => g.u64_in(0..pages),
                    };
                    let addr = page * PAGE_SIZE + g.u64_in(0..4) * 64;
                    span.push(if g.bool_p(0.3) {
                        MemoryAccess::write(addr)
                    } else {
                        MemoryAccess::read(addr)
                    });
                }
                span
            })
            .collect()
    }

    #[test]
    fn scan_matches_a_per_access_loop() {
        let real = real_spans();
        prop_check!(cases: 96, |g| {
            let entries = g.usize_in(8..1537);
            let ways = g.usize_in(2..7);
            let hcfg = HierarchyConfig {
                l1_bytes: [4u64 << 10, 16 << 10, 64 << 10][g.usize_in(0..3)],
                ..HierarchyConfig::default()
            };
            let core = g.usize_in(0..2);
            let mut twins = [0, 1].map(|_| {
                (Tlb::new(entries, ways), CacheHierarchy::new(2, hcfg.clone()))
            });
            let spans = if g.any_bool() {
                synthetic_spans(g, (entries as u64 * 2).max(16))
            } else {
                (0..g.usize_in(8..40))
                    .map(|_| real[g.usize_in(0..real.len())].clone())
                    .collect()
            };
            // Prime both twins identically, so runs both hit and miss.
            for a in spans.iter().flatten() {
                if g.bool_p(0.7) {
                    for (tlb, hier) in &mut twins {
                        tlb.access(a.vpn);
                        hier.access(core, a.addr, a.is_write);
                    }
                }
            }
            let [(tlb, hier), (ref_tlb, ref_hier)] = &mut twins;
            for span in &spans {
                let mut pos = 0;
                while pos < span.len() {
                    let rest = &span[pos..];
                    let cap = g.u32_in(1..rest.len() as u32 + 1);
                    let got = scan(tlb, hier, core, rest, cap);
                    let want = scan_per_access(ref_tlb, ref_hier, core, rest, cap);
                    assert_eq!(got, want, "span {rest:?} cap {cap}");
                    assert_eq!(tlb.hits(), ref_tlb.hits(), "TLB hits");
                    assert_eq!(tlb.misses(), ref_tlb.misses(), "TLB misses");
                    assert_eq!(hier.l1(core).hits(), ref_hier.l1(core).hits(), "L1 hits");
                    assert_eq!(hier.l1(core).misses(), ref_hier.l1(core).misses(), "L1 misses");
                    // Finish the stopping access on both, as the
                    // simulator's continuations do.
                    let (n, stop) = got;
                    pos += n as usize;
                    if stop != RunStop::Exhausted {
                        let a = span[pos];
                        for (tlb, hier) in [(&mut *tlb, &mut *hier), (&mut *ref_tlb, &mut *ref_hier)]
                        {
                            if stop == RunStop::TlbMiss {
                                tlb.miss_fill(a.vpn);
                                hier.access(core, a.addr, a.is_write);
                            } else {
                                hier.miss_walk(core, a.addr, a.is_write);
                            }
                        }
                        pos += 1;
                    }
                }
            }
            // Same final recency and dirty state: replay the key space
            // on both twins; a divergence shows as a different outcome
            // or a different writeback count.
            for a in spans.iter().flatten() {
                assert_eq!(tlb.access(a.vpn), ref_tlb.access(a.vpn), "replay vpn {}", a.vpn);
                assert_eq!(
                    hier.access(core, a.addr, false),
                    ref_hier.access(core, a.addr, false),
                    "replay addr {:#x}",
                    a.addr
                );
            }
            assert_eq!(hier.l1(core).writebacks(), ref_hier.l1(core).writebacks());
        });
    }
}
