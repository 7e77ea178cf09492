//! Workload selection and shared sizing parameters.

use crate::job::WorkloadEngine;
use crate::shared;

/// Sizing and skew parameters shared by all workload engines.
///
/// The paper runs a 256 GB dataset with an 8 GB (3 %) DRAM cache on
/// 16 cores. We preserve the *ratios* (cache : dataset, record mix, Zipf
/// skew) at a laptop-friendly scale; see DESIGN.md §2 for the
/// substitution argument.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadParams {
    /// Total dataset footprint in bytes.
    pub dataset_bytes: u64,
    /// Data-record size in bytes (block-aligned by the allocator).
    pub record_bytes: u64,
    /// Zipfian skew of record popularity (`[0, 1)`, YCSB-style).
    pub zipf_theta: f64,
    /// Base compute per operation in nanoseconds; engines scale this by
    /// their own intensity (TPC-C is the most compute-heavy, §VI-A).
    pub compute_ns_per_op: u64,
    /// Probability that a key draw reuses a recently touched key
    /// (session/working-set locality; see [`crate::popularity`]).
    pub reuse_probability: f64,
}

impl WorkloadParams {
    /// The default experiment scale: 2 GiB dataset, 1 KiB records,
    /// theta 0.99 — the cache-to-dataset ratio of the paper at 1/128 the
    /// footprint.
    pub fn scaled_down() -> Self {
        WorkloadParams {
            dataset_bytes: 2 << 30,
            record_bytes: 1024,
            zipf_theta: 0.99,
            // Calibrated so mean job service lands in the paper's
            // 10-100 µs band (§IV-D2) and DRAM-cache misses arrive every
            // 5-25 µs per core (§II-A) at the 3 % cache ratio.
            compute_ns_per_op: 2000,
            reuse_probability: 0.8,
        }
    }

    /// A tiny configuration for unit tests (fast to build, small arenas).
    pub fn tiny_for_tests() -> Self {
        WorkloadParams {
            dataset_bytes: 8 << 20,
            record_bytes: 256,
            zipf_theta: 0.9,
            compute_ns_per_op: 2000,
            reuse_probability: 0.7,
        }
    }

    /// Approximate number of data records the dataset holds after
    /// reserving a fraction for indexes and tables.
    pub fn num_records(&self) -> u64 {
        // Reserve ~2/5 of the space for index structures (hash-bucket
        // node slabs, tree nodes, bucket arrays), which dominate when
        // records are small.
        (self.dataset_bytes / self.record_bytes * 3 / 5).max(16)
    }

    /// Per-engine adjustment of the reuse probability: `factor < 1`
    /// shrinks the *fresh-draw* rate (`1 - reuse`) by that factor, which
    /// is how engines with inherently cold-heavy access patterns (deep
    /// tree descents) are individually calibrated into the paper's
    /// 5-25 µs miss-interval band (§V-A tunes each workload separately).
    pub fn effective_reuse(&self, fresh_factor: f64) -> f64 {
        (1.0 - (1.0 - self.reuse_probability) * fresh_factor).clamp(0.0, 0.999)
    }

    /// Builder-style: set dataset size.
    pub fn with_dataset_bytes(mut self, bytes: u64) -> Self {
        self.dataset_bytes = bytes;
        self
    }
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams::scaled_down()
    }
}

/// The workloads evaluated in the paper (§V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// Each operation swaps two Zipf-chosen array elements (reads and
    /// writes).
    ArraySwap,
    /// Open-chaining hash-table lookups with pointer chasing.
    HashTable,
    /// Red-black tree lookups with pointer chasing.
    RbTree,
    /// B+-tree (Masstree-like) point lookups and short scans (Tailbench).
    Masstree,
    /// TATP telecom transaction mix ("update subscriber data", §V-A).
    Tatp,
    /// TPC-C 'neworder'-centric transaction mix (compute-heavy).
    Tpcc,
    /// Silo-style OLTP over a tree index with commit validation
    /// (Tailbench).
    Silo,
}

impl WorkloadKind {
    /// All workloads, in the paper's Fig. 9 order.
    pub fn all() -> [WorkloadKind; 7] {
        [
            WorkloadKind::ArraySwap,
            WorkloadKind::HashTable,
            WorkloadKind::RbTree,
            WorkloadKind::Tatp,
            WorkloadKind::Tpcc,
            WorkloadKind::Silo,
            WorkloadKind::Masstree,
        ]
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::ArraySwap => "ArraySwap",
            WorkloadKind::HashTable => "HashTable",
            WorkloadKind::RbTree => "RBT",
            WorkloadKind::Masstree => "Masstree",
            WorkloadKind::Tatp => "TATP",
            WorkloadKind::Tpcc => "TPCC",
            WorkloadKind::Silo => "Silo",
        }
    }

    /// Builds the engine with its dataset structures populated: always a
    /// fresh build, shared with nothing (see [`crate::Dataset::fork`]).
    pub fn build(&self, params: &WorkloadParams, seed: u64) -> Box<dyn WorkloadEngine> {
        shared::build(*self, params, seed).into_engine()
    }
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobBuf;
    use astriflash_sim::SimRng;

    #[test]
    fn all_engines_build_and_generate() {
        let params = WorkloadParams::tiny_for_tests();
        let mut rng = SimRng::new(1);
        let mut job = JobBuf::new();
        for kind in WorkloadKind::all() {
            let mut engine = kind.build(&params, 7);
            assert_eq!(engine.name(), kind.name());
            for _ in 0..10 {
                engine.fill_job(&mut job, &mut rng);
                assert!(!job.is_empty(), "{kind} produced empty job");
                assert!(job.total_accesses() > 0, "{kind} produced no accesses");
            }
            assert!(engine.threads_per_core_hint() >= 32);
            assert!(engine.threads_per_core_hint() <= 64);
        }
    }

    #[test]
    fn num_records_reserves_index_space() {
        let p = WorkloadParams::tiny_for_tests();
        assert!(p.num_records() * p.record_bytes <= p.dataset_bytes);
    }

    #[test]
    fn builder_setters() {
        let p = WorkloadParams::default().with_dataset_bytes(1 << 20);
        assert_eq!(p.dataset_bytes, 1 << 20);
    }

    #[test]
    fn jobs_are_deterministic_for_same_seeds() {
        let params = WorkloadParams::tiny_for_tests();
        for kind in WorkloadKind::all() {
            let mut e1 = kind.build(&params, 3);
            let mut e2 = kind.build(&params, 3);
            let mut r1 = SimRng::new(5);
            let mut r2 = SimRng::new(5);
            let (mut j1, mut j2) = (JobBuf::new(), JobBuf::new());
            for _ in 0..5 {
                e1.fill_job(&mut j1, &mut r1);
                e2.fill_job(&mut j2, &mut r2);
                assert_eq!(j1, j2, "{kind}");
            }
        }
    }
}
