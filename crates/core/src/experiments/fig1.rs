//! Fig. 1: DRAM-cache miss ratio and required flash bandwidth vs DRAM
//! capacity (§II-A).
//!
//! A Zipfian page trace over the dataset is measured against an exact
//! page-LRU at every capacity point in one pass per workload: an access
//! hits an LRU of `c` pages exactly when fewer than `c` other pages were
//! touched since its page's previous access (its stack distance; Mattson
//! et al., 1970). The required flash bandwidth per core follows
//! Equation 1:
//!
//! ```text
//! BW_flash = BW_dram / block_size × miss_rate × page_size
//! ```

use astriflash_sim::SimRng;
use astriflash_workloads::{Dataset, JobBuf, WorkloadKind, WorkloadParams, BLOCK_SIZE, PAGE_SIZE};

use crate::sweep::Sweep;

/// One sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig1Point {
    /// DRAM capacity as a fraction of the dataset.
    pub dram_fraction: f64,
    /// Page-granularity miss ratio.
    pub miss_ratio: f64,
    /// Required flash bandwidth per core, GB/s (Eq. 1, 0.5 GB/s DRAM
    /// bandwidth per core).
    pub flash_bw_per_core_gbps: f64,
    /// Aggregate flash bandwidth for a 64-core server, GB/s.
    pub flash_bw_64core_gbps: f64,
}

/// Per-core average DRAM bandwidth assumed by the paper (§II-A).
pub const DRAM_BW_PER_CORE_GBPS: f64 = 0.5;

/// The dataset workload `i` replays. The seed expression is part of the
/// pinned output contract — do not change it.
fn dataset(params: &WorkloadParams, kind: WorkloadKind, i: usize, seed: u64) -> Dataset {
    Dataset {
        kind,
        params: params.clone(),
        seed: seed ^ (i as u64) << 8,
    }
}

/// Each access's LRU stack distance: how many distinct other pages were
/// touched since its page's previous access, or `usize::MAX` for a
/// first access.
struct StackDistances {
    /// Per page, the time of its latest access (times count from 1), or
    /// 0 before its first.
    latest: Vec<u32>,
    /// A Fenwick tree over the times so far, with a 1 at every page's
    /// latest access. `tree[0]` is unused; each access appends a node.
    tree: Vec<u32>,
    /// Distinct pages seen: the number of 1s.
    pages: u32,
}

impl StackDistances {
    /// Sized for `pages` pages and `accesses` accesses; it grows past
    /// either.
    fn new(pages: u64, accesses: usize) -> Self {
        let mut tree = Vec::with_capacity(accesses + 1);
        tree.push(0);
        StackDistances {
            latest: vec![0; pages as usize],
            tree,
            pages: 0,
        }
    }

    fn access(&mut self, page: u64) -> usize {
        let now = self.tree.len();
        // The new node covers the times after `now & (now - 1)`, and
        // every 1 so far lies before `now`.
        self.tree.push(self.pages - self.count_through(now & (now - 1)));
        let page = page as usize;
        if page >= self.latest.len() {
            self.latest.resize(page + 1, 0);
        }
        let stamp = u32::try_from(now).expect("fewer than 2^32 accesses");
        let previous = std::mem::replace(&mut self.latest[page], stamp) as usize;
        let distance = if previous == 0 {
            self.pages += 1;
            usize::MAX
        } else {
            // The 1s after `previous` are the pages touched since.
            let since = self.pages - self.count_through(previous);
            self.add(previous, -1);
            since as usize
        };
        self.add(now, 1);
        distance
    }

    fn add(&mut self, mut t: usize, delta: i32) {
        while t < self.tree.len() {
            self.tree[t] = self.tree[t].wrapping_add_signed(delta);
            t += t & t.wrapping_neg();
        }
    }

    /// The number of 1s at times `1..=t`.
    fn count_through(&self, mut t: usize) -> u32 {
        let mut count = 0;
        while t > 0 {
            count += self.tree[t];
            t &= t - 1;
        }
        count
    }
}

/// Workload `i`'s page-granularity LRU miss ratio at each of
/// `capacities` pages, from one pass over its trace:
/// `accesses_per_point` warm-up accesses, then `accesses_per_point / 2`
/// measured ones, each phase ending at a job boundary. The seed
/// expressions are part of the pinned output contract — do not change
/// them.
fn miss_ratios(
    params: &WorkloadParams,
    kind: WorkloadKind,
    i: usize,
    capacities: &[usize],
    accesses_per_point: usize,
    seed: u64,
) -> Vec<f64> {
    let mut engine = dataset(params, kind, i, seed).fork();
    let mut rng = SimRng::new(seed ^ 0xF1 ^ (i as u64));
    // Each phase ends at a job boundary, at most a few hundred accesses
    // past its target.
    let mut stack = StackDistances::new(
        params.dataset_bytes / PAGE_SIZE,
        accesses_per_point + accesses_per_point / 2 + 1024,
    );
    let mut job = JobBuf::new();
    let mut touched = 0usize;
    while touched < accesses_per_point {
        engine.fill_job(&mut job, &mut rng);
        for a in job.accesses() {
            stack.access(a.addr / PAGE_SIZE);
            touched += 1;
        }
    }
    let mut misses = vec![0u64; capacities.len()];
    let mut measured = 0usize;
    while measured < accesses_per_point / 2 {
        engine.fill_job(&mut job, &mut rng);
        for a in job.accesses() {
            let distance = stack.access(a.addr / PAGE_SIZE);
            for (m, &capacity) in misses.iter_mut().zip(capacities) {
                *m += u64::from(distance >= capacity);
            }
            measured += 1;
        }
    }
    misses
        .iter()
        .map(|&m| m as f64 / measured.max(1) as f64)
        .collect()
}

/// Runs the Fig. 1 sweep: miss ratio averaged over `workloads` at each
/// DRAM fraction. Parallelized over the worker count in
/// `ASTRIFLASH_THREADS`.
pub fn sweep(
    params: &WorkloadParams,
    workloads: &[WorkloadKind],
    fractions: &[f64],
    accesses_per_point: usize,
    seed: u64,
) -> Vec<Fig1Point> {
    sweep_with(
        &Sweep::from_env(),
        params,
        workloads,
        fractions,
        accesses_per_point,
        seed,
    )
}

/// [`sweep`] with an explicit worker pool.
pub fn sweep_with(
    sweep: &Sweep,
    params: &WorkloadParams,
    workloads: &[WorkloadKind],
    fractions: &[f64],
    accesses_per_point: usize,
    seed: u64,
) -> Vec<Fig1Point> {
    let num_pages = (params.dataset_bytes / PAGE_SIZE).max(1);
    let capacities: Vec<usize> = fractions
        .iter()
        .map(|&fraction| ((num_pages as f64 * fraction) as usize).max(1))
        .collect();
    // One pass per workload, each over a dataset of its own.
    let ratios = sweep.map(workloads, |i, &kind| {
        miss_ratios(params, kind, i, &capacities, accesses_per_point, seed)
    });

    // The per-fraction mean sums ratios in workload order.
    fractions
        .iter()
        .enumerate()
        .map(|(fi, &fraction)| {
            let miss_ratio =
                ratios.iter().map(|r| r[fi]).sum::<f64>() / workloads.len().max(1) as f64;
            let per_core = DRAM_BW_PER_CORE_GBPS / BLOCK_SIZE as f64
                * miss_ratio
                * PAGE_SIZE as f64;
            Fig1Point {
                dram_fraction: fraction,
                miss_ratio,
                flash_bw_per_core_gbps: per_core,
                flash_bw_64core_gbps: per_core * 64.0,
            }
        })
        .collect()
}

/// The paper's sweep grid (0.5 %–16 % of the dataset).
pub fn default_fractions() -> Vec<f64> {
    vec![0.005, 0.01, 0.02, 0.03, 0.04, 0.06, 0.08, 0.12, 0.16]
}

#[cfg(test)]
mod tests {
    use super::*;
    use astriflash_mem::PageLru;

    /// The per-capacity replay Fig. 1 ran before its one pass: workload
    /// `i`'s trace through a [`PageLru`] of `capacity` pages. Returns
    /// the miss ratio and the pages resident at the end.
    fn lru_replay(
        params: &WorkloadParams,
        kind: WorkloadKind,
        i: usize,
        capacity: usize,
        accesses_per_point: usize,
        seed: u64,
    ) -> (f64, usize) {
        let mut engine = dataset(params, kind, i, seed).fork();
        let mut rng = SimRng::new(seed ^ 0xF1 ^ (i as u64));
        let mut lru = PageLru::new(capacity);
        let mut job = JobBuf::new();
        let mut touched = 0usize;
        while touched < accesses_per_point {
            engine.fill_job(&mut job, &mut rng);
            for a in job.accesses() {
                lru.access(a.addr / PAGE_SIZE);
                touched += 1;
            }
        }
        let mut misses = 0u64;
        let mut measured = 0usize;
        while measured < accesses_per_point / 2 {
            engine.fill_job(&mut job, &mut rng);
            for a in job.accesses() {
                misses += u64::from(!lru.access(a.addr / PAGE_SIZE));
                measured += 1;
            }
        }
        (misses as f64 / measured as f64, lru.len())
    }

    #[test]
    fn one_pass_matches_an_lru_replay_per_capacity() {
        let params = WorkloadParams::tiny_for_tests();
        let (accesses, seed) = (20_000, 5);
        for (i, kind) in [WorkloadKind::HashTable, WorkloadKind::Tatp]
            .into_iter()
            .enumerate()
        {
            let _shared = dataset(&params, kind, i, seed).hold();
            // An LRU as large as the trace never evicts, so it ends
            // holding every page the trace touched.
            let (_, distinct) = lru_replay(&params, kind, i, 2 * accesses, accesses, seed);
            let capacities = [
                1,
                2,
                distinct / 16,
                distinct / 4,
                distinct / 2,
                distinct - 1,
                distinct,
                distinct + 1,
            ];
            let one_pass = miss_ratios(&params, kind, i, &capacities, accesses, seed);
            for (&capacity, ratio) in capacities.iter().zip(one_pass) {
                let (replayed, _) = lru_replay(&params, kind, i, capacity, accesses, seed);
                assert_eq!(
                    ratio.to_bits(),
                    replayed.to_bits(),
                    "{kind} at {capacity} of {distinct} pages: {ratio} vs {replayed}"
                );
            }
        }
    }

    #[test]
    fn stack_distances_grow_past_their_sizing() {
        // Sized for nothing, so the page table and the tree both grow.
        // The reference is an LRU stack, most recent first: a page's
        // distance is its position.
        let mut stack = StackDistances::new(0, 0);
        let mut naive: Vec<u64> = Vec::new();
        let mut x = 11u64;
        for _ in 0..5_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let page = (x >> 33) % 300;
            let expected = match naive.iter().position(|&p| p == page) {
                Some(position) => {
                    naive.remove(position);
                    position
                }
                None => usize::MAX,
            };
            naive.insert(0, page);
            assert_eq!(stack.access(page), expected, "page {page}");
        }
    }

    #[test]
    fn miss_ratio_decreases_with_capacity() {
        let params = WorkloadParams::tiny_for_tests();
        let pts = sweep(
            &params,
            &[WorkloadKind::HashTable],
            &[0.01, 0.03, 0.10],
            40_000,
            3,
        );
        assert_eq!(pts.len(), 3);
        assert!(pts[0].miss_ratio > pts[1].miss_ratio);
        assert!(pts[1].miss_ratio > pts[2].miss_ratio);
    }

    #[test]
    fn bandwidth_follows_equation_one() {
        let params = WorkloadParams::tiny_for_tests();
        let pts = sweep(&params, &[WorkloadKind::ArraySwap], &[0.03], 20_000, 4);
        let p = pts[0];
        let expect = 0.5 / 64.0 * p.miss_ratio * 4096.0;
        assert!((p.flash_bw_per_core_gbps - expect).abs() < 1e-12);
        assert!((p.flash_bw_64core_gbps - 64.0 * expect).abs() < 1e-9);
    }

    #[test]
    fn curve_flattens_at_high_capacity() {
        // The paper's observation: returns diminish past a few percent.
        let params = WorkloadParams::tiny_for_tests();
        let pts = sweep(
            &params,
            &[WorkloadKind::HashTable],
            &[0.01, 0.03, 0.08, 0.16],
            60_000,
            5,
        );
        let drop_low = pts[0].miss_ratio - pts[1].miss_ratio;
        let drop_high = pts[2].miss_ratio - pts[3].miss_ratio;
        assert!(
            drop_high < drop_low,
            "curve should flatten: {drop_low} vs {drop_high}"
        );
    }
}
