//! Silo workload from Tailbench (§V-A): OLTP transactions over a
//! Masstree-style index with optimistic concurrency control.
//!
//! Each transaction performs a read set of tree lookups, a small write
//! set, then a commit phase (validation compute + version writes to the
//! touched record headers) — the access shape of Silo's OCC protocol.

use astriflash_sim::SimRng;

use crate::address_space::{AddressSpace, SimAlloc, PAGE_SIZE};
use crate::engines::btree_index::BPlusTree;
use crate::engines::touch_record;
use crate::job::{JobBuf, JobSpec, MemoryAccess, Operation, WorkloadEngine};
use crate::kind::WorkloadParams;
use crate::popularity::KeyChooser;

const NODE_BYTES: u64 = 256;

/// The Silo workload engine. Runs never write the index, so clones
/// share all of it (DESIGN.md §18).
#[derive(Debug, Clone)]
pub struct Silo {
    tree: BPlusTree,
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

        let mut tree = BPlusTree::with_capacity(n, &mut |_| alloc.alloc(NODE_BYTES));
        for key in 0..n {
            let record = alloc.alloc(record_bytes);
            tree.insert(key, record, &mut |_| alloc.alloc(NODE_BYTES));
        }
        tree.freeze();

        Silo {
            tree,
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
    pub fn tree(&self) -> &BPlusTree {
        &self.tree
    }
}

impl WorkloadEngine for Silo {
    fn next_job(&mut self, rng: &mut SimRng) -> JobSpec {
        let read_set = 2 + rng.gen_range(5) as usize; // 2..=6 reads
        let write_set = rng.gen_range(3) as usize; // 0..=2 writes
        let mut ops = Vec::with_capacity(read_set + write_set + 1);
        let mut written_records = Vec::with_capacity(write_set);

        for _ in 0..read_set {
            let key = self.chooser.next(rng) % self.n;
            let mut accesses = Vec::with_capacity(8);
            let record = self
                .tree
                .lookup_trace(key, &mut accesses)
                .expect("all keys inserted");
            touch_record(&mut accesses, record, 2, false);
            ops.push(Operation::new(self.compute_ns, accesses));
        }
        for _ in 0..write_set {
            let key = self.chooser.next(rng) % self.n;
            let mut accesses = Vec::with_capacity(8);
            let record = self
                .tree
                .lookup_trace(key, &mut accesses)
                .expect("all keys inserted");
            // Buffered write: read the record now, install at commit.
            touch_record(&mut accesses, record, 2, false);
            written_records.push(record);
            ops.push(Operation::new(self.compute_ns, accesses));
        }

        // Commit: validate the read set (compute), then install writes —
        // one version-word store per written record (Silo's TID write).
        let mut commit = Vec::with_capacity(write_set);
        for record in written_records {
            commit.push(MemoryAccess::write(record));
        }
        ops.push(Operation::new(
            self.compute_ns * (1 + read_set as u64 / 2),
            commit,
        ));
        JobSpec::new(ops)
    }

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

        // Commit: validate the read set (compute), then install writes.
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
        assert_eq!(e.tree().validate(), e.tree().len());
    }

    #[test]
    fn txns_have_read_and_commit_phases() {
        let mut e = Silo::new(&WorkloadParams::tiny_for_tests(), 52);
        let mut rng = SimRng::new(53);
        let job = e.next_job(&mut rng);
        // At least 2 reads + commit op.
        assert!(job.ops.len() >= 3);
        // Commit op is last and has the validation compute.
        let commit = job.ops.last().unwrap();
        assert!(commit.compute_ns >= e.compute_ns);
    }

    #[test]
    fn writes_only_at_commit() {
        let mut e = Silo::new(&WorkloadParams::tiny_for_tests(), 54);
        let mut rng = SimRng::new(55);
        for _ in 0..50 {
            let job = e.next_job(&mut rng);
            let (body, commit) = job.ops.split_at(job.ops.len() - 1);
            assert!(
                body.iter().all(|o| o.accesses.iter().all(|a| !a.is_write)),
                "writes must be buffered until commit"
            );
            // Commit writes equal the write set size (possibly 0).
            assert!(commit[0].accesses.iter().all(|a| a.is_write));
        }
    }

    #[test]
    fn lookups_traverse_the_tree() {
        let mut e = Silo::new(&WorkloadParams::tiny_for_tests(), 56);
        let height = e.tree().height();
        let mut rng = SimRng::new(57);
        let job = e.next_job(&mut rng);
        let first_read = &job.ops[0];
        assert!(first_read.accesses.len() >= height + 2);
    }
}
