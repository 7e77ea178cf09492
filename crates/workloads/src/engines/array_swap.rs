//! Array Swap microbenchmark: "each operation swaps two array elements,
//! generating both reads and writes" (§V-A).

use astriflash_sim::SimRng;

use crate::address_space::{AddressSpace, PAGE_SIZE};
use crate::engines::touch_record;
use crate::job::{JobBuf, JobSpec, MemoryAccess, Operation, WorkloadEngine};
use crate::kind::WorkloadParams;
use crate::popularity::KeyChooser;

/// The Array Swap workload engine.
///
/// Records are laid out as one contiguous array; each swap reads both
/// elements and writes both back. Element popularity is Zipfian with
/// scrambling, so hot elements are scattered across the array.
#[derive(Debug, Clone)]
pub struct ArraySwap {
    chooser: KeyChooser,
    record_bytes: u64,
    blocks_per_touch: usize,
    compute_ns: u64,
    swaps_per_job: usize,
}

impl ArraySwap {
    /// Builds the engine over `params.num_records()` elements.
    pub fn new(params: &WorkloadParams, _seed: u64) -> Self {
        let n = params.num_records();
        // The array occupies the front of the address space; no per-record
        // allocation bookkeeping is needed for a dense array.
        let _space = AddressSpace::new(params.dataset_bytes);
        ArraySwap {
            chooser: KeyChooser::new(
                n,
                params.zipf_theta,
                (PAGE_SIZE / params.record_bytes).max(1),
                params.effective_reuse(0.75),
            ),
            record_bytes: params.record_bytes,
            blocks_per_touch: 2,
            compute_ns: params.compute_ns_per_op,
            swaps_per_job: 6,
        }
    }

    fn element_addr(&self, index: u64) -> u64 {
        index * self.record_bytes
    }
}

impl WorkloadEngine for ArraySwap {
    fn next_job(&mut self, rng: &mut SimRng) -> JobSpec {
        let mut ops = Vec::with_capacity(self.swaps_per_job);
        for _ in 0..self.swaps_per_job {
            let i = self.chooser.next(rng);
            let mut j = self.chooser.next(rng);
            if j == i {
                j = (i + 1) % self.chooser.n();
            }
            let mut accesses = Vec::with_capacity(2 * self.blocks_per_touch + 2);
            // Read both elements...
            touch_record(
                &mut accesses,
                self.element_addr(i),
                self.blocks_per_touch,
                false,
            );
            touch_record(
                &mut accesses,
                self.element_addr(j),
                self.blocks_per_touch,
                false,
            );
            // ...then write them back swapped.
            accesses.push(MemoryAccess::write(self.element_addr(i)));
            accesses.push(MemoryAccess::write(self.element_addr(j)));
            ops.push(Operation::new(self.compute_ns, accesses));
        }
        JobSpec::new(ops)
    }

    fn fill_job(&mut self, buf: &mut JobBuf, rng: &mut SimRng) {
        buf.clear();
        for _ in 0..self.swaps_per_job {
            let i = self.chooser.next(rng);
            let mut j = self.chooser.next(rng);
            if j == i {
                j = (i + 1) % self.chooser.n();
            }
            let start = buf.mark();
            // Read both elements...
            touch_record(
                buf.accesses_mut(),
                self.element_addr(i),
                self.blocks_per_touch,
                false,
            );
            touch_record(
                buf.accesses_mut(),
                self.element_addr(j),
                self.blocks_per_touch,
                false,
            );
            // ...then write them back swapped.
            buf.push(MemoryAccess::write(self.element_addr(i)));
            buf.push(MemoryAccess::write(self.element_addr(j)));
            buf.finish_op(self.compute_ns, start);
        }
    }

    fn name(&self) -> &'static str {
        "ArraySwap"
    }

    fn threads_per_core_hint(&self) -> usize {
        64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> ArraySwap {
        ArraySwap::new(&WorkloadParams::tiny_for_tests(), 1)
    }

    #[test]
    fn jobs_have_reads_and_writes() {
        let mut e = engine();
        let mut rng = SimRng::new(2);
        let job = e.next_job(&mut rng);
        assert_eq!(job.ops.len(), 6);
        assert!(job.total_writes() >= 12, "two writes per swap");
        assert!(job.total_accesses() > job.total_writes());
    }

    #[test]
    fn addresses_stay_in_dataset() {
        let params = WorkloadParams::tiny_for_tests();
        let mut e = ArraySwap::new(&params, 1);
        let mut rng = SimRng::new(3);
        for _ in 0..50 {
            let job = e.next_job(&mut rng);
            for a in job.accesses() {
                assert!(a.addr < params.dataset_bytes);
            }
        }
    }

    #[test]
    fn swap_never_pairs_element_with_itself() {
        let mut e = engine();
        let mut rng = SimRng::new(4);
        for _ in 0..100 {
            let job = e.next_job(&mut rng);
            for op in &job.ops {
                let writes: Vec<u64> = op
                    .accesses
                    .iter()
                    .filter(|a| a.is_write)
                    .map(|a| a.addr)
                    .collect();
                assert_eq!(writes.len(), 2);
                assert_ne!(writes[0], writes[1]);
            }
        }
    }
}
