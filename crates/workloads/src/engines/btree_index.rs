//! Arena-backed B+-tree index shared by the Masstree and Silo engines.
//!
//! Masstree is a trie of B+-trees; for 8-byte integer keys it degenerates
//! to a single B+-tree layer, which is what we model. Nodes carry
//! simulated addresses; traversals emit one read per visited node block.
//!
//! Nodes are fixed-size values in one array (DESIGN.md §17): keys and
//! values sit in inline arrays, so building or churning the index makes
//! no per-node heap allocation. The array is copy-on-write, so a clone of
//! an engine's tree copies only the nodes it writes (DESIGN.md §18).

use crate::engines::cow::CowVec;
use crate::job::MemoryAccess;

/// Maximum keys per node; split at overflow. 14 keys × (8 B key + 8 B
/// pointer) ≈ 224 B, matching Masstree's cacheline-conscious nodes.
pub const MAX_KEYS: usize = 14;

/// Key slots per node: one spare, so an insert can overflow a node by one
/// key before it splits.
const CAP: usize = MAX_KEYS + 1;

/// Deepest descent `insert` records. Every non-root internal node has at
/// least `MAX_KEYS / 2 + 1` = 8 children, so 16 levels would take more
/// than 8^14 nodes, far more than `u32` slots can number.
const MAX_DEPTH: usize = 16;

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct BNode {
    /// Number of keys in use.
    len: u8,
    leaf: bool,
    next_leaf: u32,
    addr: u64,
    keys: [u64; CAP],
    /// Leaves: the record address of each key (`len` entries). Internal
    /// nodes: the child slot of each gap (`len + 1` entries).
    vals: [u64; CAP + 1],
}

impl BNode {
    /// A node holding `keys` and `vals` (one more val than keys for an
    /// internal node).
    fn new(leaf: bool, addr: u64, keys: &[u64], vals: &[u64]) -> Self {
        let mut node = BNode {
            len: keys.len() as u8,
            leaf,
            next_leaf: NIL,
            addr,
            keys: [0; CAP],
            vals: [0; CAP + 1],
        };
        debug_assert_eq!(vals.len(), node.vals_len());
        node.keys[..keys.len()].copy_from_slice(keys);
        node.vals[..vals.len()].copy_from_slice(vals);
        node
    }

    fn len(&self) -> usize {
        self.len as usize
    }

    fn keys(&self) -> &[u64] {
        &self.keys[..self.len()]
    }

    fn vals_len(&self) -> usize {
        self.len() + usize::from(!self.leaf)
    }

    fn child(&self, slot: usize) -> u32 {
        self.vals[slot] as u32
    }

    /// The child slot a descent toward `key` takes: the number of keys
    /// `<= key`. Keys are sorted, so this is their partition point; a
    /// branch-free count over at most `CAP` keys beats a binary search,
    /// whose branches a descent mispredicts at every level.
    fn slot_for(&self, key: u64) -> usize {
        self.keys().iter().map(|&k| usize::from(k <= key)).sum()
    }

    /// Position of `key` in a leaf: `Ok` where it sits, or `Err` where it
    /// would be inserted (the number of keys `< key`).
    fn find(&self, key: u64) -> Result<usize, usize> {
        let pos: usize = self.keys().iter().map(|&k| usize::from(k < key)).sum();
        if pos < self.len() && self.keys[pos] == key {
            Ok(pos)
        } else {
            Err(pos)
        }
    }

    /// Puts `key` at `kpos` and `val` at `vpos`, shifting both tails right.
    fn insert(&mut self, kpos: usize, key: u64, vpos: usize, val: u64) {
        let (nk, nv) = (self.len(), self.vals_len());
        self.keys.copy_within(kpos..nk, kpos + 1);
        self.keys[kpos] = key;
        self.vals.copy_within(vpos..nv, vpos + 1);
        self.vals[vpos] = val;
        self.len += 1;
    }

    /// Takes the key at `kpos` and the value at `vpos`, shifting both
    /// tails left.
    fn remove(&mut self, kpos: usize, vpos: usize) -> (u64, u64) {
        let (nk, nv) = (self.len(), self.vals_len());
        let taken = (self.keys[kpos], self.vals[vpos]);
        self.keys.copy_within(kpos + 1..nk, kpos);
        self.vals.copy_within(vpos + 1..nv, vpos);
        self.len -= 1;
        taken
    }
}

/// A B+-tree mapping `u64` keys to simulated record addresses.
///
/// # Example
///
/// ```
/// use astriflash_workloads::engines::btree_index::BPlusTree;
/// let mut t = BPlusTree::new(&mut |_| 0x1000);
/// t.insert(5, 500, &mut |i| 0x2000 + i * 256);
/// let mut trace = Vec::new();
/// assert_eq!(t.lookup_trace(5, &mut trace), Some(500));
/// ```
#[derive(Debug, Clone)]
pub struct BPlusTree {
    nodes: CowVec<BNode>,
    root: u32,
    len: usize,
    /// Slots of removed nodes, reused by later splits.
    free: Vec<u32>,
}

impl BPlusTree {
    /// Creates an empty tree. `alloc` assigns a simulated address to the
    /// root node (called with the node's ordinal).
    pub fn new(alloc: &mut dyn FnMut(u64) -> u64) -> Self {
        Self::with_capacity(0, alloc)
    }

    /// [`BPlusTree::new`] with node storage reserved for `keys` keys
    /// inserted in ascending order, the order the engines build in. Such
    /// a build leaves every leaf but the last with `MAX_KEYS / 2` keys and
    /// every internal node but the last of its level with more than
    /// `MAX_KEYS / 2` children, so it needs fewer than `keys / 6 + 16`
    /// nodes and never moves the storage.
    pub fn with_capacity(keys: u64, alloc: &mut dyn FnMut(u64) -> u64) -> Self {
        let mut nodes = CowVec::with_capacity((keys / 6 + 16) as usize);
        nodes.push(BNode::new(true, alloc(0), &[], &[]));
        BPlusTree {
            nodes,
            root: 0,
            len: 0,
            free: Vec::new(),
        }
    }

    /// Moves the nodes into storage that clones share (see
    /// [`CowVec::freeze`]); the build's last step.
    pub(crate) fn freeze(&mut self) {
        self.nodes.freeze();
    }

    fn node(&self, n: u32) -> &BNode {
        self.nodes.get(n as usize)
    }

    fn node_mut(&mut self, n: u32) -> &mut BNode {
        self.nodes.get_mut(n as usize)
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height in node levels (1 for a lone leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut cur = self.root;
        while !self.node(cur).leaf {
            cur = self.node(cur).child(0);
            h += 1;
        }
        h
    }

    /// Stores `node` in a free slot, or a new one, and returns the slot.
    fn new_node(&mut self, node: BNode) -> u32 {
        if let Some(slot) = self.free.pop() {
            *self.node_mut(slot) = node;
            slot
        } else {
            self.nodes.push(node);
            self.nodes.len() as u32 - 1
        }
    }

    /// Minimum keys per non-root node before rebalancing.
    const MIN_KEYS: usize = MAX_KEYS / 2;

    /// Removes `key`, returning its record address if present. Underfull
    /// nodes borrow from a sibling or merge; the root collapses when it
    /// has a single child.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        let removed = self.remove_rec(self.root, key)?;
        self.len -= 1;
        // Shrink the root: an internal root with one child drops a
        // level; an empty leaf root just stays (empty tree).
        let r = self.node(self.root);
        if !r.leaf && r.len == 0 {
            let only_child = r.child(0);
            self.free.push(self.root);
            self.root = only_child;
        }
        Some(removed)
    }

    fn remove_rec(&mut self, node: u32, key: u64) -> Option<u64> {
        // Only the leaf is written here: a clone copies what it writes.
        let n = self.node(node);
        if n.leaf {
            let pos = n.find(key).ok()?;
            return Some(self.node_mut(node).remove(pos, pos).1);
        }
        let slot = n.slot_for(key);
        let child = n.child(slot);
        let removed = self.remove_rec(child, key)?;
        if self.node(child).len() < Self::MIN_KEYS {
            self.fix_underflow(node, slot);
        }
        Some(removed)
    }

    /// Repairs the underfull child at `parent.children[slot]` by
    /// borrowing from a sibling or merging with one.
    fn fix_underflow(&mut self, parent: u32, slot: usize) {
        let p = *self.node(parent);
        let child = p.child(slot);
        // Try the left sibling first, then the right.
        if slot > 0 {
            let left = p.child(slot - 1);
            if self.node(left).len() > Self::MIN_KEYS {
                self.borrow_from_left(parent, slot, left, child);
                return;
            }
        }
        if slot < p.len() {
            let right = p.child(slot + 1);
            if self.node(right).len() > Self::MIN_KEYS {
                self.borrow_from_right(parent, slot, child, right);
                return;
            }
        }
        // Merge with a sibling (prefer left).
        if slot > 0 {
            self.merge(parent, slot - 1, p.child(slot - 1), child);
        } else {
            self.merge(parent, slot, child, p.child(slot + 1));
        }
    }

    fn borrow_from_left(&mut self, parent: u32, slot: usize, left: u32, child: u32) {
        let l = self.node_mut(left);
        let (last_key, last_val) = (l.len() - 1, l.vals_len() - 1);
        let (k, v) = l.remove(last_key, last_val);
        if self.node(child).leaf {
            self.node_mut(child).insert(0, k, 0, v);
        } else {
            // Rotate through the parent separator.
            let sep = self.node(parent).keys[slot - 1];
            self.node_mut(child).insert(0, sep, 0, v);
        }
        self.node_mut(parent).keys[slot - 1] = k;
    }

    fn borrow_from_right(&mut self, parent: u32, slot: usize, child: u32, right: u32) {
        let (k, v) = self.node_mut(right).remove(0, 0);
        let c = self.node(child);
        let (end_key, end_val) = (c.len(), c.vals_len());
        if c.leaf {
            self.node_mut(child).insert(end_key, k, end_val, v);
            self.node_mut(parent).keys[slot] = self.node(right).keys[0];
        } else {
            let sep = self.node(parent).keys[slot];
            self.node_mut(child).insert(end_key, sep, end_val, v);
            self.node_mut(parent).keys[slot] = k;
        }
    }

    /// Merges `right` into `left`; `sep_slot` is the parent key between
    /// them.
    fn merge(&mut self, parent: u32, sep_slot: usize, left: u32, right: u32) {
        let (sep, _) = self.node_mut(parent).remove(sep_slot, sep_slot + 1);
        let r = *self.node(right);
        let l = self.node_mut(left);
        let (mut nk, nv) = (l.len(), l.vals_len());
        if l.leaf {
            l.next_leaf = r.next_leaf;
        } else {
            // The separator comes down between the two key runs.
            l.keys[nk] = sep;
            nk += 1;
        }
        l.keys[nk..nk + r.len()].copy_from_slice(r.keys());
        l.vals[nv..nv + r.vals_len()].copy_from_slice(&r.vals[..r.vals_len()]);
        l.len = (nk + r.len()) as u8;
        self.free.push(right);
    }

    /// Inserts `key → record`; replaces the record if the key exists
    /// (returns `false` in that case). `alloc` provides addresses for any
    /// newly created nodes.
    pub fn insert(
        &mut self,
        key: u64,
        record: u64,
        alloc: &mut dyn FnMut(u64) -> u64,
    ) -> bool {
        // Descend, remembering the path for splits.
        let mut path = [(0u32, 0u8); MAX_DEPTH];
        let mut depth = 0;
        let mut cur = self.root;
        while !self.node(cur).leaf {
            let node = self.node(cur);
            let slot = node.slot_for(key);
            path[depth] = (cur, slot as u8);
            depth += 1;
            cur = node.child(slot);
        }
        let leaf = self.node_mut(cur);
        match leaf.find(key) {
            Ok(pos) => {
                leaf.vals[pos] = record;
                return false;
            }
            Err(pos) => {
                leaf.insert(pos, key, pos, record);
                self.len += 1;
            }
        }
        // Split upward while overflowing.
        let mut child = cur;
        while self.node(child).len() > MAX_KEYS {
            let (sep, right) = self.split(child, alloc);
            if depth > 0 {
                depth -= 1;
                let (parent, slot) = path[depth];
                let slot = usize::from(slot);
                self.node_mut(parent)
                    .insert(slot, sep, slot + 1, u64::from(right));
                child = parent;
            } else {
                // Split the root: grow a level.
                let ordinal = self.nodes.len() as u64;
                let root = BNode::new(
                    false,
                    alloc(ordinal),
                    &[sep],
                    &[u64::from(child), u64::from(right)],
                );
                self.root = self.new_node(root);
                break;
            }
        }
        true
    }

    /// Splits `node` in half; returns `(separator_key, right_index)`.
    fn split(&mut self, node: u32, alloc: &mut dyn FnMut(u64) -> u64) -> (u64, u32) {
        let ordinal = self.nodes.len() as u64;
        let addr = alloc(ordinal);
        let left = self.node_mut(node);
        let (len, mid) = (left.len(), left.len() / 2);
        let sep = left.keys[mid];
        let right = if left.leaf {
            // The separator is copied up and stays in the right leaf.
            let mut right = BNode::new(true, addr, &left.keys[mid..len], &left.vals[mid..len]);
            right.next_leaf = left.next_leaf;
            right
        } else {
            // The separator moves up; its right child leads the new node.
            BNode::new(
                false,
                addr,
                &left.keys[mid + 1..len],
                &left.vals[mid + 1..len + 1],
            )
        };
        left.len = mid as u8;
        let right_index = self.new_node(right);
        let left = self.node_mut(node);
        if left.leaf {
            left.next_leaf = right_index;
        }
        (sep, right_index)
    }

    /// Looks up `key`, pushing one read per visited node. Returns the
    /// record address if present.
    pub fn lookup_trace(&self, key: u64, out: &mut Vec<MemoryAccess>) -> Option<u64> {
        let leaf = self.node(self.descend(key, out));
        leaf.find(key).ok().map(|pos| leaf.vals[pos])
    }

    /// Walks from the root to the leaf whose range holds `key`, pushing
    /// one read per visited node; returns the leaf.
    fn descend(&self, key: u64, out: &mut Vec<MemoryAccess>) -> u32 {
        let mut cur = self.root;
        loop {
            let node = self.node(cur);
            out.push(MemoryAccess::read(node.addr));
            if node.leaf {
                return cur;
            }
            cur = node.child(node.slot_for(key));
        }
    }

    /// Scans up to `count` records starting at the first key ≥ `start`,
    /// pushing reads for every visited node and returning the record
    /// addresses.
    pub fn scan_trace(&self, start: u64, count: usize, out: &mut Vec<MemoryAccess>) -> Vec<u64> {
        let mut records = Vec::with_capacity(count);
        self.scan_trace_into(start, count, out, &mut records);
        records
    }

    /// Allocation-free twin of [`BPlusTree::scan_trace`]: appends up to
    /// `count` record addresses to a caller-owned (recycled) buffer.
    pub fn scan_trace_into(
        &self,
        start: u64,
        count: usize,
        out: &mut Vec<MemoryAccess>,
        records: &mut Vec<u64>,
    ) {
        let base = records.len();
        let mut cur = self.descend(start, out);
        let mut pos = self.node(cur).find(start).unwrap_or_else(|pos| pos);
        while records.len() - base < count && cur != NIL {
            let node = self.node(cur);
            while pos < node.len() && records.len() - base < count {
                records.push(node.vals[pos]);
                pos += 1;
            }
            if records.len() - base < count {
                cur = node.next_leaf;
                pos = 0;
                if cur != NIL {
                    out.push(MemoryAccess::read(self.node(cur).addr));
                }
            }
        }
    }

    /// Validates B+-tree structural invariants; returns the key count
    /// reachable from the leaf chain.
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated invariant.
    pub fn validate(&self) -> usize {
        // All leaves at the same depth, keys sorted, separators correct.
        fn walk(t: &BPlusTree, n: u32, lo: Option<u64>, hi: Option<u64>, depth: usize) -> usize {
            let node = t.node(n);
            let keys = node.keys();
            assert!(keys.len() <= MAX_KEYS, "overfull node");
            assert!(
                keys.windows(2).all(|w| w[0] < w[1]),
                "unsorted keys in node"
            );
            if let (Some(lo), Some(first)) = (lo, keys.first()) {
                assert!(*first >= lo, "key below lower bound");
            }
            if let (Some(hi), Some(last)) = (hi, keys.last()) {
                assert!(*last < hi, "key above upper bound");
            }
            if node.leaf {
                return depth;
            }
            let mut leaf_depth = None;
            for i in 0..=keys.len() {
                let clo = if i == 0 { lo } else { Some(keys[i - 1]) };
                let chi = if i == keys.len() { hi } else { Some(keys[i]) };
                let d = walk(t, node.child(i), clo, chi, depth + 1);
                if let Some(ld) = leaf_depth {
                    assert_eq!(ld, d, "leaves at different depths");
                } else {
                    leaf_depth = Some(d);
                }
            }
            leaf_depth.unwrap()
        }
        walk(self, self.root, None, None, 0);

        // Leaf chain covers all keys in order.
        let mut cur = self.root;
        while !self.node(cur).leaf {
            cur = self.node(cur).child(0);
        }
        let mut count = 0;
        let mut last: Option<u64> = None;
        while cur != NIL {
            for &k in self.node(cur).keys() {
                if let Some(l) = last {
                    assert!(k > l, "leaf chain out of order");
                }
                last = Some(k);
                count += 1;
            }
            cur = self.node(cur).next_leaf;
        }
        assert_eq!(count, self.len, "leaf chain count != len");
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_alloc() -> impl FnMut(u64) -> u64 {
        let mut next = 0x10_0000u64;
        move |_| {
            let a = next;
            next += 256;
            a
        }
    }

    #[test]
    fn nodes_are_inline() {
        // DESIGN.md §17: keys and values live in the node, not behind
        // per-node heap vectors.
        assert_eq!(std::mem::size_of::<BNode>(), 264);
    }

    #[test]
    fn insert_and_lookup_roundtrip() {
        let mut alloc = seq_alloc();
        let mut t = BPlusTree::new(&mut alloc);
        for key in 0..500u64 {
            assert!(t.insert(key * 3, key * 100, &mut alloc));
        }
        t.validate();
        assert_eq!(t.len(), 500);
        let mut trace = Vec::new();
        for key in 0..500u64 {
            trace.clear();
            assert_eq!(t.lookup_trace(key * 3, &mut trace), Some(key * 100));
            assert_eq!(trace.len(), t.height());
        }
        trace.clear();
        assert_eq!(t.lookup_trace(1, &mut trace), None);
    }

    #[test]
    fn duplicate_insert_replaces() {
        let mut alloc = seq_alloc();
        let mut t = BPlusTree::new(&mut alloc);
        assert!(t.insert(7, 70, &mut alloc));
        assert!(!t.insert(7, 71, &mut alloc));
        assert_eq!(t.len(), 1);
        let mut trace = Vec::new();
        assert_eq!(t.lookup_trace(7, &mut trace), Some(71));
    }

    #[test]
    fn random_order_inserts_keep_invariants() {
        let mut alloc = seq_alloc();
        let mut t = BPlusTree::new(&mut alloc);
        // Pseudo-random insertion order.
        let mut x = 1u64;
        let mut keys = Vec::new();
        for _ in 0..3000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            keys.push(x >> 16);
        }
        keys.sort_unstable();
        keys.dedup();
        let mut shuffled = keys.clone();
        // Deterministic shuffle via stride.
        shuffled.rotate_left(keys.len() / 3);
        for (i, &k) in shuffled.iter().enumerate() {
            t.insert(k, i as u64, &mut alloc);
        }
        assert_eq!(t.validate(), keys.len());
        assert!(t.height() >= 3);
    }

    #[test]
    fn remove_leaf_keys_and_rebalance() {
        let mut alloc = seq_alloc();
        let mut t = BPlusTree::new(&mut alloc);
        for key in 0..500u64 {
            t.insert(key, key + 1, &mut alloc);
        }
        // Remove a swath that forces borrows and merges.
        for key in 100..400u64 {
            assert_eq!(t.remove(key), Some(key + 1), "key {key}");
        }
        assert_eq!(t.validate(), 200);
        let mut trace = Vec::new();
        assert_eq!(t.lookup_trace(99, &mut trace), Some(100));
        assert_eq!(t.lookup_trace(250, &mut trace), None);
        assert_eq!(t.remove(250), None, "double remove is a no-op");
    }

    #[test]
    fn remove_everything_collapses_root() {
        let mut alloc = seq_alloc();
        let mut t = BPlusTree::new(&mut alloc);
        for key in 0..300u64 {
            t.insert(key, key, &mut alloc);
        }
        assert!(t.height() >= 2);
        for key in 0..300u64 {
            assert_eq!(t.remove(key), Some(key));
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1, "root must collapse to a lone leaf");
        t.validate();
        // Tree is fully reusable afterwards.
        for key in 0..300u64 {
            assert!(t.insert(key, key * 2, &mut alloc));
        }
        assert_eq!(t.validate(), 300);
    }

    #[test]
    fn interleaved_insert_remove_keeps_invariants() {
        let mut alloc = seq_alloc();
        let mut t = BPlusTree::new(&mut alloc);
        let mut live = std::collections::HashSet::new();
        let mut x = 3u64;
        for round in 0..6_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (x >> 33) % 900;
            if live.contains(&key) {
                assert_eq!(t.remove(key), Some(key));
                live.remove(&key);
            } else {
                assert!(t.insert(key, key, &mut alloc));
                live.insert(key);
            }
            if round % 750 == 0 {
                assert_eq!(t.validate(), live.len());
            }
        }
        assert_eq!(t.validate(), live.len());
    }

    #[test]
    fn scan_returns_ordered_records() {
        let mut alloc = seq_alloc();
        let mut t = BPlusTree::new(&mut alloc);
        for key in 0..200u64 {
            t.insert(key, 1000 + key, &mut alloc);
        }
        let mut trace = Vec::new();
        let recs = t.scan_trace(50, 20, &mut trace);
        assert_eq!(recs.len(), 20);
        assert_eq!(recs[0], 1050);
        assert_eq!(recs[19], 1069);
        // Scan crossing leaves touches more nodes than a point lookup.
        assert!(trace.len() >= t.height());
    }

    #[test]
    fn scan_past_end_truncates() {
        let mut alloc = seq_alloc();
        let mut t = BPlusTree::new(&mut alloc);
        for key in 0..10u64 {
            t.insert(key, key, &mut alloc);
        }
        let mut trace = Vec::new();
        let recs = t.scan_trace(8, 10, &mut trace);
        assert_eq!(recs, vec![8, 9]);
    }

    #[test]
    fn empty_tree_behaves() {
        let mut alloc = seq_alloc();
        let t = BPlusTree::new(&mut alloc);
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        let mut trace = Vec::new();
        assert_eq!(t.lookup_trace(1, &mut trace), None);
        assert_eq!(trace.len(), 1);
        t.validate();
    }
}
