//! Pinned end-to-end cases for the batched hit-run interpreter
//! (DESIGN.md §15).
//!
//! The kernel that consumes a TLB-hit+L1-hit run is checked against a
//! per-access reference loop by the property test next to it
//! (`crates/core/src/hit_run.rs`). This suite pins what the whole
//! simulator does around it: each case runs one (config,
//! configuration, seed, load) and compares a digest of the report with
//! a constant. The digest covers the rendered metric set (throughput,
//! service percentiles, switches, flash traffic and the TLB/L1/L2/LLC
//! hit-rate breakdown), the kernel's event count, the raw floats
//! bit for bit, the p99s, the measured job count and every phase's
//! count and percentiles. A single extra or missing TLB/L1 probe would
//! perturb recency words and move the digest.
//!
//! The constants were computed where a scalar one-access-per-step
//! interpreter still existed beside the batched one, after asserting
//! that both produced identical reports on every case below. A model
//! change that moves them re-pins them in its own commit; a failing
//! case prints every digest of its test.
//!
//! Cases are drawn from fixed-seed [`TestRng`] streams (not
//! `prop_check!`, whose base seed follows the call site), so each case
//! and its constant stay paired.

use astriflash_core::config::{Configuration, SystemConfig};
use astriflash_core::experiment::{Load, RunReport};
use astriflash_core::sweep::Cell;
use astriflash_stats::Phase;
use astriflash_testkit::TestRng;
use astriflash_workloads::WorkloadKind;

struct Case {
    label: String,
    cell: Cell,
}

/// FNV-1a over everything a probe-set divergence could move.
fn digest(r: &RunReport) -> u64 {
    let mut text = format!(
        "{}\nevents={}\nthroughput={:x}\nmean_service={:x}\nmiss_interval={:x}\n\
         p99_service={}\np99_response={}\njobs={}\n",
        r.render(),
        r.events_processed,
        r.throughput_jobs_per_sec.to_bits(),
        r.mean_service_ns.to_bits(),
        r.miss_interval_us.to_bits(),
        r.p99_service_ns,
        r.p99_response_ns,
        r.jobs_completed,
    );
    for phase in Phase::all() {
        text += &format!(
            "{phase:?} {} {:?}\n",
            r.phases.hist(phase).count(),
            r.phases.percentiles(phase)
        );
    }
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs every case and compares its digest with the pinned constant.
fn check(cases: Vec<Case>, pinned: &[u64]) {
    assert_eq!(cases.len(), pinned.len(), "one pinned digest per case");
    let mut actual = Vec::with_capacity(cases.len());
    for case in &cases {
        let report = case.cell.run();
        assert!(
            report.jobs_completed > 0,
            "{}: vacuous run, nothing was measured",
            case.label
        );
        actual.push(digest(&report));
    }
    let diverged: Vec<&str> = cases
        .iter()
        .zip(actual.iter().zip(pinned))
        .filter(|(_, (a, p))| a != p)
        .map(|(c, _)| c.label.as_str())
        .collect();
    assert!(
        diverged.is_empty(),
        "diverged from the pinned digests: {diverged:?}\nactual: {actual:#018x?}"
    );
}

fn base_cfg() -> SystemConfig {
    SystemConfig::default().with_cores(2).scaled_for_tests()
}

/// `n` AstriFlash closed-loop cases of `jobs_per_core` jobs, with a
/// seed drawn per case and `tweak` shaping the config.
fn astriflash_cases(
    g: &mut TestRng,
    n: usize,
    name: &str,
    jobs_per_core: u64,
    mut tweak: impl FnMut(&mut TestRng, SystemConfig) -> SystemConfig,
) -> Vec<Case> {
    (0..n)
        .map(|_| {
            let seed = g.u64_in(0..1 << 32);
            let cfg = tweak(g, base_cfg());
            Case {
                label: format!("{name} seed={seed}"),
                cell: Cell::closed(cfg, Configuration::AstriFlash, seed, jobs_per_core),
            }
        })
        .collect()
}

/// Random configs over configurations, workloads, TLB geometries,
/// thread counts and load shapes: the broad decision-identity net.
#[test]
fn random_configs_match_pinned_digests() {
    const CONFIGURATIONS: [Configuration; 5] = [
        Configuration::AstriFlash,
        Configuration::FlashSync,
        Configuration::OsSwap,
        Configuration::DramOnly,
        Configuration::AstriFlashNoPS,
    ];
    const WORKLOADS: [WorkloadKind; 4] = [
        WorkloadKind::Tatp,
        WorkloadKind::ArraySwap,
        WorkloadKind::HashTable,
        WorkloadKind::Masstree,
    ];
    let mut g = TestRng::new(0x4849_5452_554e_0001);
    let cases = (0..10)
        .map(|_| {
            let configuration = CONFIGURATIONS[g.usize_in(0..CONFIGURATIONS.len())];
            let workload = WORKLOADS[g.usize_in(0..WORKLOADS.len())];
            // Small TLBs force mid-job evictions; small way counts force
            // recency-order sensitivity.
            let tlb_entries = [8usize, 32, 96, 1536][g.usize_in(0..4)];
            let tlb_ways = [2usize, 4, 6][g.usize_in(0..3)];
            let threads = g.usize_in(4..25);
            let seed = g.u64_in(0..1 << 32);
            let load = if g.bool_p(0.25) {
                Load::Open {
                    mean_interarrival_ns: 1500.0,
                    total_jobs: 60,
                }
            } else {
                Load::Closed {
                    jobs_per_core: g.u64_in(20..60),
                }
            };
            Case {
                label: format!(
                    "{configuration:?}/{workload:?} tlb=({tlb_entries},{tlb_ways}) \
                     thr={threads} seed={seed}"
                ),
                cell: Cell {
                    cfg: base_cfg()
                        .with_workload(workload)
                        .with_tlb_geometry(tlb_entries, tlb_ways)
                        .with_threads_per_core(threads),
                    configuration,
                    seed,
                    load,
                },
            }
        })
        .collect();
    check(
        cases,
        &[
            0xf2633349740c1cac,
            0x1077f57090fcb60a,
            0xb65778b0965716c9,
            0x03b4d28248326777,
            0x1a891b06118f9ad0,
            0x2314459681ac041c,
            0x1ac942d20e42d6bd,
            0x780a37182dbeba5c,
            0xe469c9a25bf6ee05,
            0xe59fb5c9ca96dfc5,
        ],
    );
}

/// A 20 ns L1 costs 7 ns per hit under the default OoO model, so the
/// slice budget cuts long hit runs mid-run. In every shipped config an
/// L1 hit costs 0 ns and the cap never binds; the cap arithmetic itself
/// is checked exhaustively next to the kernel.
#[test]
fn slice_budget_truncation_matches_pinned_digests() {
    let mut g = TestRng::new(0x4849_5452_554e_0002);
    let cases = astriflash_cases(&mut g, 6, "l1=20ns", 40, |g, mut cfg| {
        cfg.hierarchy.l1_latency_ns = 20;
        cfg.with_threads_per_core(g.usize_in(8..25))
    });
    check(
        cases,
        &[
            0x0c4674b5804dc3b9,
            0x9017ac12e442bd2d,
            0xc6fd0c025e3c0e21,
            0x732b527acab615dc,
            0x66b0d84e501293c5,
            0x5aec3e5c8e696a49,
        ],
    );
}

/// A tiny TLB plus a small DRAM cache makes evictions and shootdowns
/// (TLB invalidations landing mid-job, between an op's accesses)
/// routine: the run must re-probe and fall back where a per-access
/// loop would.
#[test]
fn shootdown_and_eviction_heavy_config_matches_pinned_digests() {
    let mut g = TestRng::new(0x4849_5452_554e_0003);
    let cases = astriflash_cases(&mut g, 6, "shootdown-heavy", 40, |g, cfg| {
        let mut cfg = cfg
            .with_tlb_geometry(8, 2)
            .with_threads_per_core(g.usize_in(8..25));
        cfg.dram_cache_fraction = 0.05; // deep misses => reclaim => shootdowns
        cfg
    });
    check(
        cases,
        &[
            0x6c5131634cb2be5c,
            0x8b65004f2911adff,
            0xf7fdad8ced69b073,
            0x4b6c65480e9cbf55,
            0x98d9f12f21f270f4,
            0x4a9de943fbeba61e,
        ],
    );
}

/// ArraySwap issues read-then-write pairs to the same element, so runs
/// contain write-after-read to the same block: the L1 scan must OR the
/// dirty bit on the repeat access as a single probe would.
#[test]
fn write_after_read_within_a_run_matches_pinned_digests() {
    let mut g = TestRng::new(0x4849_5452_554e_0004);
    let cases = astriflash_cases(&mut g, 6, "array-swap", 40, |_, cfg| {
        cfg.with_workload(WorkloadKind::ArraySwap)
    });
    check(
        cases,
        &[
            0x89b4bfd0230edb2d,
            0xf8fc5728a38c28f9,
            0x0b91f1ea39f1f15e,
            0xc7b4fa3ad5981624,
            0x4ea1f098f7e153ed,
            0x955a1f75355a5ea2,
        ],
    );
}

/// TPC-C emits compute-only ops (`access_len == 0`, the commit step)
/// between memory ops, so the interpreter must step over zero-length
/// access spans without ever fetching a run for them.
#[test]
fn zero_length_access_spans_match_pinned_digests() {
    let mut g = TestRng::new(0x4849_5452_554e_0005);
    let cases = astriflash_cases(&mut g, 4, "tpcc", 30, |_, cfg| {
        cfg.with_workload(WorkloadKind::Tpcc)
    });
    check(
        cases,
        &[
            0xc449375ff4d5b303,
            0xaa64f7d8b9e96fde,
            0x831fc5e51b5e5d1d,
            0x46fe8c20f1c2062d,
        ],
    );
}
