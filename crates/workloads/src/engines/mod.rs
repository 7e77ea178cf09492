//! The seven workload engines evaluated in the paper (§V-A, Fig. 9):
//! Array Swap, Hash Table, Red-Black Tree, TATP and TPC-C from the
//! microbenchmark suite, plus Silo and Masstree from Tailbench.

pub mod array_swap;
pub mod btree_index;
mod cow;
pub mod hash_table;
pub mod masstree;
pub mod rb_tree;
pub mod silo;
pub mod tatp;
pub mod tpcc;

pub use array_swap::ArraySwap;
pub use hash_table::HashTable;
pub use masstree::Masstree;
pub use rb_tree::RbTree;
pub use silo::Silo;
pub use tatp::Tatp;
pub use tpcc::Tpcc;

use crate::address_space::BLOCK_SIZE;
use crate::job::MemoryAccess;

/// Emits accesses to the first `blocks` cache blocks of a record at
/// `base`, reading all and writing the first if `write` is set.
///
/// Records are block-aligned by the allocator, so consecutive blocks of a
/// record share its page — the intra-record spatial locality the paper's
/// 4 KiB DRAM-cache pages exploit.
pub(crate) fn touch_record(out: &mut Vec<MemoryAccess>, base: u64, blocks: usize, write: bool) {
    for i in 0..blocks.max(1) as u64 {
        let addr = base + i * BLOCK_SIZE;
        if write && i == 0 {
            out.push(MemoryAccess::write(addr));
        } else {
            out.push(MemoryAccess::read(addr));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touch_record_reads_then_writes_head() {
        let mut v = Vec::new();
        touch_record(&mut v, 4096, 3, true);
        assert_eq!(v.len(), 3);
        assert!(v[0].is_write);
        assert!(!v[1].is_write && !v[2].is_write);
        assert_eq!(v[2].addr, 4096 + 128);
    }

    #[test]
    fn touch_record_zero_blocks_touches_one() {
        let mut v = Vec::new();
        touch_record(&mut v, 0, 0, false);
        assert_eq!(v.len(), 1);
    }
}
