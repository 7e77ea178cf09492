//! Hash Table microbenchmark: "data structure lookups with pointer
//! chasing behavior" (§V-A).
//!
//! An open-chaining table is built over the whole key population at
//! construction time. A lookup hashes the key, reads the bucket-head slot,
//! walks the chain node by node (each node is a separately allocated 64 B
//! cell, so the walk is genuine pointer chasing across scattered pages),
//! then touches the 1 KiB data record.

use std::sync::Arc;

use astriflash_sim::rng::splitmix64;
use astriflash_sim::SimRng;

use crate::address_space::{AddressSpace, SimAlloc, BLOCK_SIZE, PAGE_SIZE};
use crate::engines::touch_record;
use crate::job::{JobBuf, MemoryAccess, WorkloadEngine};
use crate::kind::WorkloadParams;
use crate::popularity::KeyChooser;

const NODE_BYTES: u64 = 64;
const LOAD_FACTOR: u64 = 4; // mean chain length
/// Node slots reserved per bucket before spilling to the overflow
/// region. Chains are stored in their bucket's slot run — the layout a
/// slab-per-bucket allocator produces — so a chain walk has page
/// locality while remaining a dependent-load chain.
const SLOTS_PER_BUCKET: u64 = 8;

/// The Hash Table workload engine. Runs never write the chains, so
/// clones share them (DESIGN.md §18).
#[derive(Debug, Clone)]
pub struct HashTable {
    chooser: KeyChooser,
    compute_ns: u64,
    lookups_per_job: usize,
    write_fraction: f64,
    bucket_array_base: u64,
    num_buckets: u64,
    /// Address of node slot 0; slot `s` is at `node_base + s * 64`.
    node_base: u64,
    record_base: u64,
    record_bytes: u64,
    /// Bucket `b`'s chain is `chain[offsets[b]..offsets[b + 1]]`.
    offsets: Arc<Vec<u32>>,
    /// Every chain, back to back, each in walk order (head first, which
    /// is ascending key order).
    chain: Arc<Vec<ChainNode>>,
}

/// One chain node, 8 B: the key it holds and the slot of its simulated
/// node, counted from the start of the bucket slabs (the overflow region
/// follows them).
#[derive(Debug, Clone, Copy)]
struct ChainNode {
    key: u32,
    slot: u32,
}

/// Node slot `slot` as a chain entry's `u32`.
fn node_slot(slot: u64) -> u32 {
    u32::try_from(slot).expect("hash-chain node slot beyond u32")
}

/// The bucket `key` hashes to in a table of `num_buckets`.
fn bucket_of(key: u64, num_buckets: u64) -> usize {
    let mut s = key;
    (splitmix64(&mut s) % num_buckets) as usize
}

impl HashTable {
    /// Builds and populates the table with `params.num_records()` keys.
    pub fn new(params: &WorkloadParams, seed: u64) -> Self {
        let n = params.num_records();
        // Round the bucket count *down* to a power of two so the node
        // slabs never overshoot the address-space budget; chains average
        // 4-8 entries.
        let want = (n / LOAD_FACTOR).max(16);
        let num_buckets = if want.is_power_of_two() {
            want
        } else {
            want.next_power_of_two() / 2
        };
        let space = AddressSpace::new(params.dataset_bytes);
        // Regions are indexed by address arithmetic, so they must be
        // contiguous: use the sequential allocator.
        let mut alloc = SimAlloc::sequential(space);
        let _ = seed;

        // Bucket array: 8 B slots, dense.
        let bucket_array_base = alloc.alloc(num_buckets * 8);
        // Per-bucket node slabs + an overflow region for long chains.
        let node_base = alloc.alloc(num_buckets * SLOTS_PER_BUCKET * NODE_BYTES);
        let overflow_base = alloc.alloc(n * NODE_BYTES / 4 + NODE_BYTES);
        // Allocations are block-aligned, so the overflow region starts at
        // a whole slot past `node_base`.
        let overflow_slot = (overflow_base - node_base) / NODE_BYTES;
        // Records are laid out by key so popularity clusters share pages.
        let record_base = alloc.alloc(n * params.record_bytes);

        // Counting sort of the keys by bucket. First the chain lengths,
        // in `offsets[b + 1]`. Then, bucket by bucket, the chains' entries
        // are laid out: one within the bucket's slab gets its slab slot,
        // one past it none yet, and `offsets[b + 1]` becomes the bucket's
        // start, its write cursor. Last, every key goes in ascending key
        // order to its bucket's cursor, which keeps each chain (and the
        // overflow region) in the order keys were inserted; an entry
        // without a slot takes the next overflow node. The cursors end
        // at their chains' ends, which with `offsets[0] = 0` are the
        // final offsets. The build allocates only the two arrays the
        // engine keeps: a temporary freed in between would leave a hole
        // in the heap that later allocations split, and the process's
        // peak memory would then vary from run to run.
        const NO_SLOT: u32 = u32::MAX;
        let mut offsets = vec![0u32; num_buckets as usize + 1];
        for key in 0..n {
            offsets[bucket_of(key, num_buckets) + 1] += 1;
        }
        let mut chain = Vec::with_capacity(n as usize);
        for b in 0..num_buckets {
            let len = offsets[b as usize + 1];
            offsets[b as usize + 1] = chain.len() as u32;
            chain.extend((0..u64::from(len)).map(|pos| ChainNode {
                key: 0,
                slot: if pos < SLOTS_PER_BUCKET {
                    node_slot(b * SLOTS_PER_BUCKET + pos)
                } else {
                    NO_SLOT
                },
            }));
        }
        let mut overflow_used = 0u64;
        for key in 0..n {
            let cursor = &mut offsets[bucket_of(key, num_buckets) + 1];
            let node = &mut chain[*cursor as usize];
            *cursor += 1;
            node.key = key as u32;
            if node.slot == NO_SLOT {
                node.slot = node_slot(overflow_slot + overflow_used);
                overflow_used += 1;
            }
        }

        HashTable {
            chooser: KeyChooser::new(
                n,
                params.zipf_theta,
                (PAGE_SIZE / params.record_bytes).max(1),
                params.effective_reuse(0.75),
            ),
            compute_ns: params.compute_ns_per_op,
            lookups_per_job: 8,
            write_fraction: 0.10,
            bucket_array_base,
            num_buckets,
            node_base,
            record_base,
            record_bytes: params.record_bytes,
            // `Arc::new` moves the vectors' headers, not their contents.
            offsets: Arc::new(offsets),
            chain: Arc::new(chain),
        }
    }

    /// Bucket `bucket`'s chain in walk order.
    fn chain(&self, bucket: usize) -> &[ChainNode] {
        &self.chain[self.offsets[bucket] as usize..self.offsets[bucket + 1] as usize]
    }

    /// Simulated address of a chain entry's node.
    fn node_addr(&self, node: ChainNode) -> u64 {
        self.node_base + u64::from(node.slot) * NODE_BYTES
    }

    /// Simulated address of `key`'s record.
    fn record_addr(&self, key: u64) -> u64 {
        self.record_base + key * self.record_bytes
    }

    /// Emits the access trace of one lookup into `out`.
    fn lookup_trace(&self, key: u64, write: bool, out: &mut Vec<MemoryAccess>) {
        let bucket = bucket_of(key, self.num_buckets);
        // Bucket-head slot (64 B block containing the 8 B pointer).
        let slot_addr = self.bucket_array_base + bucket as u64 * 8;
        out.push(MemoryAccess::read(slot_addr / BLOCK_SIZE * BLOCK_SIZE));
        // Chain walk up to and including this key's node.
        for &node in self.chain(bucket) {
            out.push(MemoryAccess::read(self.node_addr(node)));
            if u64::from(node.key) == key {
                break;
            }
        }
        // Record payload: two blocks read, head block written on updates.
        touch_record(out, self.record_addr(key), 2, write);
    }
}

impl WorkloadEngine for HashTable {
    fn fill_job(&mut self, buf: &mut JobBuf, rng: &mut SimRng) {
        buf.clear();
        for _ in 0..self.lookups_per_job {
            let key = self.chooser.next(rng);
            let write = rng.gen_bool(self.write_fraction);
            let start = buf.mark();
            self.lookup_trace(key, write, buf.accesses_mut());
            buf.finish_op(self.compute_ns, start);
        }
    }

    fn name(&self) -> &'static str {
        "HashTable"
    }

    fn threads_per_core_hint(&self) -> usize {
        48
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> HashTable {
        HashTable::new(&WorkloadParams::tiny_for_tests(), 11)
    }

    /// The access trace of one lookup.
    fn trace(e: &HashTable, key: u64, write: bool) -> Vec<MemoryAccess> {
        let mut accesses = Vec::new();
        e.lookup_trace(key, write, &mut accesses);
        accesses
    }

    /// `key`'s own chain node.
    fn node_of(e: &HashTable, key: u64) -> ChainNode {
        *e.chain(bucket_of(key, e.num_buckets))
            .iter()
            .find(|c| u64::from(c.key) == key)
            .expect("key is in its chain")
    }

    #[test]
    fn chain_entry_is_eight_bytes() {
        // DESIGN.md §17: a key and a node slot, no padding.
        assert_eq!(std::mem::size_of::<ChainNode>(), 8);
    }

    #[test]
    fn lookup_walks_chain_to_target() {
        let e = engine();
        // Pick a key that is not at the head of its chain, if one exists.
        let key = (0..e.chain.len() as u64)
            .find(|&k| {
                let c = e.chain(bucket_of(k, e.num_buckets));
                c.len() > 1 && u64::from(c[0].key) != k
            })
            .expect("some chain has length > 1");
        let accesses = trace(&e, key, false);
        // The trace must include the key's own node.
        let own = e.node_addr(node_of(&e, key));
        assert!(accesses.iter().any(|a| a.addr == own));
        // And at least: bucket slot + 2 nodes + 2 record blocks.
        assert!(accesses.len() >= 5);
    }

    #[test]
    fn chain_positions_are_respected() {
        let e = engine();
        // Head-of-chain keys touch exactly one node.
        let head_key = (0..e.num_buckets as usize)
            .find_map(|b| e.chain(b).first())
            .unwrap()
            .key as u64;
        let node_accesses = trace(&e, head_key, false)
            .iter()
            .filter(|a| e.chain.iter().any(|&c| e.node_addr(c) == a.addr))
            .count();
        assert_eq!(node_accesses, 1);
    }

    #[test]
    fn writes_only_on_update_ops() {
        let e = engine();
        let writes = |write| trace(&e, 3, write).iter().filter(|a| a.is_write).count();
        assert_eq!(writes(false), 0);
        assert_eq!(writes(true), 1);
    }

    #[test]
    fn load_factor_is_sane() {
        let e = engine();
        let m = e.chain.len() as f64 / e.num_buckets as f64;
        assert!(m > 1.0 && m < 10.0, "mean chain length {m}");
    }

    #[test]
    fn every_key_sits_once_in_its_own_ascending_chain() {
        let e = engine();
        let mut seen = vec![false; e.chain.len()];
        for b in 0..e.num_buckets as usize {
            let c = e.chain(b);
            assert!(
                c.windows(2).all(|w| w[0].key < w[1].key),
                "chain {b} out of key order"
            );
            for node in c {
                assert_eq!(bucket_of(u64::from(node.key), e.num_buckets), b);
                assert!(!std::mem::replace(&mut seen[node.key as usize], true));
            }
        }
        assert!(seen.iter().all(|&s| s), "a key is missing from the chains");
    }
}
