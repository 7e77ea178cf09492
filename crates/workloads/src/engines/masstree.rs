//! Masstree workload from Tailbench (§V-A): point lookups, short range
//! scans, and occasional updates over a B+-tree index.

use astriflash_sim::SimRng;

use crate::address_space::{AddressSpace, SimAlloc, PAGE_SIZE};
use crate::engines::btree_index::BPlusTree;
use crate::engines::touch_record;
use crate::job::{JobBuf, MemoryAccess, WorkloadEngine};
use crate::kind::WorkloadParams;
use crate::popularity::KeyChooser;

const NODE_BYTES: u64 = 256;

/// The Masstree workload engine. A clone shares the index until its
/// churn writes a node (DESIGN.md §18).
#[derive(Debug, Clone)]
pub struct Masstree {
    tree: BPlusTree,
    chooser: KeyChooser,
    compute_ns: u64,
    ops_per_job: usize,
    /// Node allocator retained for churn-driven splits.
    node_alloc: SimAlloc,
    /// Recycled record buffer for the flat scan path.
    scan_records: Vec<u64>,
    n: u64,
}

impl Masstree {
    /// Builds the index over `params.num_records()` keys.
    pub fn new(params: &WorkloadParams, seed: u64) -> Self {
        let n = params.num_records();
        let space = AddressSpace::new(params.dataset_bytes);
        let mut node_alloc = SimAlloc::scattered(space, seed ^ 0x3AE);
        // Records come from the same scattered allocator, interleaved with
        // nodes exactly as a real allocator would interleave them.
        let record_bytes = params.record_bytes;

        let mut tree = BPlusTree::with_capacity(n, &mut |_| node_alloc.alloc(NODE_BYTES));
        for key in 0..n {
            let record = node_alloc.alloc(record_bytes);
            tree.insert(key, record, &mut |_| node_alloc.alloc(NODE_BYTES));
        }
        tree.freeze();

        Masstree {
            tree,
            chooser: KeyChooser::new(
                n,
                params.zipf_theta,
                (PAGE_SIZE / params.record_bytes).max(1),
                params.effective_reuse(0.5), // scans amplify cold footprints
            ),
            compute_ns: params.compute_ns_per_op,
            ops_per_job: 6,
            node_alloc,
            scan_records: Vec::new(),
            n,
        }
    }

    /// The underlying index (exposed for invariant tests).
    pub fn tree(&self) -> &BPlusTree {
        &self.tree
    }
}

impl WorkloadEngine for Masstree {
    fn fill_job(&mut self, buf: &mut JobBuf, rng: &mut SimRng) {
        buf.clear();
        for _ in 0..self.ops_per_job {
            let key = self.chooser.next(rng) % self.n;
            let start = buf.mark();
            let roll = rng.gen_f64();
            if roll < 0.10 {
                // Short range scan: 4–12 records.
                let count = 4 + rng.gen_range(9) as usize;
                self.scan_records.clear();
                self.tree
                    .scan_trace_into(key, count, buf.accesses_mut(), &mut self.scan_records);
                for i in 0..self.scan_records.len() {
                    touch_record(buf.accesses_mut(), self.scan_records[i], 1, false);
                }
            } else if roll > 0.97 {
                // Index churn: remove + reinsert, exercising leaf
                // borrow/merge and splits. Stores hit the touched leaf.
                let record = self
                    .tree
                    .lookup_trace(key, buf.accesses_mut())
                    .expect("all keys inserted");
                self.tree.remove(key);
                let node_alloc = &mut self.node_alloc;
                self.tree
                    .insert(key, record, &mut |_| node_alloc.alloc(NODE_BYTES));
                // Touched leaf: last access of *this op's* descent —
                // bounded by `start` in the shared slab.
                if let Some(leaf) = buf.accesses()[start as usize..].last().map(|a| a.addr) {
                    buf.push(MemoryAccess::write(leaf));
                }
                buf.push(MemoryAccess::write(record));
            } else {
                let write = roll > 0.95;
                let record = self
                    .tree
                    .lookup_trace(key, buf.accesses_mut())
                    .expect("all keys inserted");
                touch_record(buf.accesses_mut(), record, 2, write);
            }
            buf.finish_op(self.compute_ns, start);
        }
    }

    fn name(&self) -> &'static str {
        "Masstree"
    }

    fn threads_per_core_hint(&self) -> usize {
        48
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_valid_after_build() {
        let e = Masstree::new(&WorkloadParams::tiny_for_tests(), 21);
        assert_eq!(e.tree().validate(), e.tree().len());
        assert!(e.tree().height() >= 3);
    }

    #[test]
    fn jobs_mix_lookups_and_scans() {
        let mut e = Masstree::new(&WorkloadParams::tiny_for_tests(), 22);
        let mut rng = SimRng::new(23);
        let mut scan_seen = false;
        let mut point_seen = false;
        let mut job = JobBuf::new();
        for _ in 0..50 {
            e.fill_job(&mut job, &mut rng);
            for op in job.ops() {
                // Scans touch many more blocks than the tree height + 2.
                if op.access_len as usize > e.tree.height() + 8 {
                    scan_seen = true;
                } else {
                    point_seen = true;
                }
            }
        }
        assert!(scan_seen, "no scans generated");
        assert!(point_seen, "no point lookups generated");
    }

    #[test]
    fn some_jobs_write() {
        let mut e = Masstree::new(&WorkloadParams::tiny_for_tests(), 24);
        let mut rng = SimRng::new(25);
        let mut job = JobBuf::new();
        let writes: usize = (0..100)
            .map(|_| {
                e.fill_job(&mut job, &mut rng);
                job.total_writes()
            })
            .sum();
        assert!(writes > 0, "expected occasional updates");
    }
}
