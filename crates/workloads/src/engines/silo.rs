//! Silo workload from Tailbench (§V-A): OLTP transactions over a
//! Masstree-style index with optimistic concurrency control.
//!
//! Each transaction performs a read set of tree lookups, a small write
//! set, then a commit phase (validation compute + version writes to the
//! touched record headers) — the access shape of Silo's OCC protocol.

use std::sync::Arc;

use astriflash_sim::SimRng;

use crate::address_space::{AddressSpace, SimAlloc, PAGE_SIZE};
use crate::engines::btree_index::DenseBPlusTree;
use crate::engines::touch_record;
use crate::job::{JobBuf, MemoryAccess, WorkloadEngine};
use crate::kind::WorkloadParams;
use crate::popularity::KeyChooser;

const NODE_BYTES: u64 = 256;

/// The Silo workload engine. Runs never write the index, so it is
/// built frozen (DESIGN.md §17) and clones share all of it (§18).
#[derive(Debug, Clone)]
pub struct Silo {
    tree: Arc<DenseBPlusTree>,
    chooser: KeyChooser,
    compute_ns: u64,
    n: u64,
}

impl Silo {
    /// Builds the index over `params.num_records()` keys.
    pub fn new(params: &WorkloadParams, seed: u64) -> Self {
        let n = params.num_records();
        let space = AddressSpace::new(params.dataset_bytes);
        let mut alloc = SimAlloc::scattered(space, seed ^ 0x51_10);
        let record_bytes = params.record_bytes;

        let mut build = DenseBPlusTree::build(n, &mut |_| alloc.alloc(NODE_BYTES));
        for _ in 0..n {
            let record = alloc.alloc(record_bytes);
            build.push(record, &mut |_| alloc.alloc(NODE_BYTES));
        }

        Silo {
            tree: Arc::new(build.finish()),
            chooser: KeyChooser::new(
                n,
                params.zipf_theta,
                (PAGE_SIZE / params.record_bytes).max(1),
                params.effective_reuse(0.75),
            ),
            compute_ns: params.compute_ns_per_op,
            n,
        }
    }

    /// The underlying index (exposed for invariant tests).
    pub fn tree(&self) -> &DenseBPlusTree {
        &self.tree
    }
}

impl WorkloadEngine for Silo {
    fn fill_job(&mut self, buf: &mut JobBuf, rng: &mut SimRng) {
        buf.clear();
        let read_set = 2 + rng.gen_range(5) as usize; // 2..=6 reads
        let write_set = rng.gen_range(3) as usize; // 0..=2 writes
        let mut written_records = [0u64; 2];

        for _ in 0..read_set {
            let key = self.chooser.next(rng) % self.n;
            let start = buf.mark();
            let record = self
                .tree
                .lookup_trace(key, buf.accesses_mut())
                .expect("all keys inserted");
            touch_record(buf.accesses_mut(), record, 2, false);
            buf.finish_op(self.compute_ns, start);
        }
        for written in written_records.iter_mut().take(write_set) {
            let key = self.chooser.next(rng) % self.n;
            let start = buf.mark();
            let record = self
                .tree
                .lookup_trace(key, buf.accesses_mut())
                .expect("all keys inserted");
            // Buffered write: read the record now, install at commit.
            touch_record(buf.accesses_mut(), record, 2, false);
            *written = record;
            buf.finish_op(self.compute_ns, start);
        }

        // Commit: validate the read set (compute), then install writes —
        // one version-word store per written record (Silo's TID write).
        let start = buf.mark();
        for &record in &written_records[..write_set] {
            buf.push(MemoryAccess::write(record));
        }
        buf.finish_op(self.compute_ns * (1 + read_set as u64 / 2), start);
    }

    fn name(&self) -> &'static str {
        "Silo"
    }

    fn threads_per_core_hint(&self) -> usize {
        40
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_valid_after_build() {
        let e = Silo::new(&WorkloadParams::tiny_for_tests(), 51);
        let tree = e.tree();
        assert_eq!(tree.len() as u64, e.n);
        let mut trace = Vec::new();
        for key in 0..=e.n {
            trace.clear();
            let record = tree.lookup_trace(key, &mut trace);
            assert_eq!(record.is_some(), key < e.n, "key {key}");
            assert_eq!(trace.len(), tree.height(), "descent to key {key}");
        }
    }

    #[test]
    fn txns_have_read_and_commit_phases() {
        let mut e = Silo::new(&WorkloadParams::tiny_for_tests(), 52);
        let mut rng = SimRng::new(53);
        let mut job = JobBuf::new();
        e.fill_job(&mut job, &mut rng);
        // At least 2 reads + commit op.
        assert!(job.ops().len() >= 3);
        // Commit op is last and has the validation compute.
        let commit = job.ops().last().unwrap();
        assert!(commit.compute_ns >= e.compute_ns);
    }

    #[test]
    fn writes_only_at_commit() {
        let mut e = Silo::new(&WorkloadParams::tiny_for_tests(), 54);
        let mut rng = SimRng::new(55);
        let mut job = JobBuf::new();
        for _ in 0..50 {
            e.fill_job(&mut job, &mut rng);
            let commit = job.ops().last().unwrap().access_start as usize;
            let (body, commit) = job.accesses().split_at(commit);
            assert!(
                body.iter().all(|a| !a.is_write),
                "writes must be buffered until commit"
            );
            // Commit writes equal the write set size (possibly 0).
            assert!(commit.iter().all(|a| a.is_write));
        }
    }

    #[test]
    fn lookups_traverse_the_tree() {
        let mut e = Silo::new(&WorkloadParams::tiny_for_tests(), 56);
        let height = e.tree().height();
        let mut rng = SimRng::new(57);
        let mut job = JobBuf::new();
        e.fill_job(&mut job, &mut rng);
        assert!(job.op(0).access_len as usize >= height + 2);
    }
}
