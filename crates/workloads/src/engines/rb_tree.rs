//! Red-Black Tree microbenchmark: "data structure lookups with pointer
//! chasing behavior" (§V-A).
//!
//! A genuine arena-backed red-black tree is built by inserting the whole
//! key population in shuffled order (so the shape matches an
//! insertion-built production tree, not a perfectly balanced one). Each
//! node has a simulated address derived from its key; lookups descend
//! from the root and emit one read per visited node — the worst kind of
//! dependent-load chain for a DRAM cache.

use astriflash_sim::SimRng;

use crate::address_space::{AddressSpace, SimAlloc, PAGE_SIZE};
use crate::engines::cow::CowVec;
use crate::engines::touch_record;
use crate::job::{JobBuf, MemoryAccess, WorkloadEngine};
use crate::kind::WorkloadParams;
use crate::popularity::KeyChooser;

const NODE_BYTES: u64 = 64;
/// The "no node" link. Slots are keys, so every key stays below it.
const NIL: u32 = u32::MAX >> 1;
/// Colour bit, kept in the spare top bit of a node's parent link.
const RED_BIT: u32 = 1 << 31;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Color {
    Red,
    Black,
}

/// One tree node, 12 bytes. Its key is its slot number, so the node
/// stores only links: `parent_red` holds the parent slot in the low 31
/// bits and the colour in the top bit.
#[derive(Debug, Clone, Copy)]
struct Node {
    left: u32,
    right: u32,
    parent_red: u32,
}

const DETACHED: Node = Node {
    left: NIL,
    right: NIL,
    parent_red: NIL,
};

/// Where an [`RbArena`]'s nodes and records sit in the simulated address
/// space. Both regions are key-indexed, so the addresses of key `k` are
/// affine in `k` and never stored per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RbLayout {
    /// Address of key 0's node; key `k`'s node is at `node_base + k*64`.
    pub node_base: u64,
    /// Address of key 0's record.
    pub record_base: u64,
    /// Record stride: key `k`'s record is at `record_base + k*record_bytes`.
    pub record_bytes: u64,
}

impl RbLayout {
    /// Simulated address of `key`'s node.
    pub fn node_addr(&self, key: u64) -> u64 {
        self.node_base + key * NODE_BYTES
    }

    /// Simulated address of `key`'s record.
    pub fn record_addr(&self, key: u64) -> u64 {
        self.record_base + key * self.record_bytes
    }
}

/// A red-black tree over the keys `0..capacity`, stored key-indexed: the
/// node of key `k` lives in slot `k` (DESIGN.md §17).
///
/// Delete and the rotations compare slots only for identity, and insert
/// puts a key where a descent from the root would, so this layout builds
/// exactly the tree shapes an insertion-ordered arena builds from the
/// same operation sequence.
///
/// A clone of an engine's tree shares its nodes: it copies a chunk of
/// them only when it first writes one (DESIGN.md §18).
#[derive(Debug, Clone)]
pub struct RbArena {
    nodes: CowVec<Node>,
    root: u32,
    len: usize,
    layout: RbLayout,
}

impl RbArena {
    /// An empty tree that can hold the keys `0..capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` does not fit in 31 bits.
    pub fn new(capacity: u64, layout: RbLayout) -> Self {
        assert!(
            capacity <= u64::from(NIL),
            "RbArena holds at most {NIL} keys, asked for {capacity}"
        );
        RbArena {
            nodes: CowVec::from_elem(DETACHED, capacity as usize),
            root: NIL,
            len: 0,
            layout,
        }
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn node(&self, n: u32) -> &Node {
        self.nodes.get(n as usize)
    }

    fn node_mut(&mut self, n: u32) -> &mut Node {
        self.nodes.get_mut(n as usize)
    }

    fn left(&self, n: u32) -> u32 {
        self.node(n).left
    }

    fn right(&self, n: u32) -> u32 {
        self.node(n).right
    }

    fn parent(&self, n: u32) -> u32 {
        self.node(n).parent_red & !RED_BIT
    }

    fn set_left(&mut self, n: u32, child: u32) {
        self.node_mut(n).left = child;
    }

    fn set_right(&mut self, n: u32, child: u32) {
        self.node_mut(n).right = child;
    }

    fn set_parent(&mut self, n: u32, parent: u32) {
        let node = self.node_mut(n);
        node.parent_red = (node.parent_red & RED_BIT) | parent;
    }

    fn color(&self, n: u32) -> Color {
        if n != NIL && self.node(n).parent_red & RED_BIT != 0 {
            Color::Red
        } else {
            Color::Black
        }
    }

    fn set_color(&mut self, n: u32, color: Color) {
        let node = self.node_mut(n);
        match color {
            Color::Red => node.parent_red |= RED_BIT,
            Color::Black => node.parent_red &= !RED_BIT,
        }
    }

    fn rotate_left(&mut self, x: u32) {
        let y = self.right(x);
        debug_assert_ne!(y, NIL);
        let y_left = self.left(y);
        self.set_right(x, y_left);
        if y_left != NIL {
            self.set_parent(y_left, x);
        }
        let x_parent = self.parent(x);
        self.set_parent(y, x_parent);
        if x_parent == NIL {
            self.root = y;
        } else if self.left(x_parent) == x {
            self.set_left(x_parent, y);
        } else {
            self.set_right(x_parent, y);
        }
        self.set_left(y, x);
        self.set_parent(x, y);
    }

    fn rotate_right(&mut self, x: u32) {
        let y = self.left(x);
        debug_assert_ne!(y, NIL);
        let y_right = self.right(y);
        self.set_left(x, y_right);
        if y_right != NIL {
            self.set_parent(y_right, x);
        }
        let x_parent = self.parent(x);
        self.set_parent(y, x_parent);
        if x_parent == NIL {
            self.root = y;
        } else if self.right(x_parent) == x {
            self.set_right(x_parent, y);
        } else {
            self.set_left(x_parent, y);
        }
        self.set_right(y, x);
        self.set_parent(x, y);
    }

    /// Whether slot `n`'s key is in the tree. Every inserted node but the
    /// root has a parent, and a node out of the tree has none: `new`
    /// starts every node detached and `delete` detaches what it removes.
    fn contains(&self, n: u32) -> bool {
        n == self.root || self.parent(n) != NIL
    }

    /// Inserts `key`; duplicate keys are rejected (returns `false`).
    ///
    /// # Panics
    ///
    /// Panics if `key` is outside `0..capacity`.
    pub fn insert(&mut self, key: u64) -> bool {
        assert!(
            key < self.nodes.len() as u64,
            "key {key} outside the arena's 0..{}",
            self.nodes.len()
        );
        let idx = key as u32;
        if self.contains(idx) {
            return false;
        }
        self.attach(idx);
        true
    }

    /// Links the key of slot `n`, not in the tree, in as a red leaf where
    /// a descent from the root would end, then rebalances.
    ///
    /// That place is found from `n`'s in-order neighbours among the
    /// inserted keys, by scanning the slots next to `n`, not by a
    /// descent: in any BST one of the two neighbours is the other's
    /// ancestor, so exactly one has the free link toward `n`, and it is
    /// where the descent ends. If the predecessor's right link is free,
    /// `n` goes there (the successor, if any, is its ancestor);
    /// otherwise the successor is the leftmost node of the predecessor's
    /// right subtree, and `n` goes on its free left link. A key with one
    /// neighbour goes under it, and the first key is the root.
    fn attach(&mut self, n: u32) {
        let pred = (0..n).rev().find(|&s| self.contains(s));
        let parent = match pred {
            Some(p) if self.right(p) == NIL => {
                self.set_right(p, n);
                p
            }
            _ => match (n + 1..self.nodes.len() as u32).find(|&s| self.contains(s)) {
                Some(s) => {
                    self.set_left(s, n);
                    s
                }
                None => {
                    debug_assert!(
                        pred.is_none(),
                        "{n}'s predecessor has a right child but {n} no successor"
                    );
                    self.root = n;
                    NIL
                }
            },
        };
        *self.node_mut(n) = Node {
            left: NIL,
            right: NIL,
            parent_red: parent | RED_BIT,
        };
        self.len += 1;
        self.insert_fixup(n);
    }

    /// Inserts every key of `0..capacity` into this empty tree, in the
    /// order [`SimRng::shuffle`] puts `0..capacity` in: the tree is the one
    /// [`RbArena::insert`] builds from that list key by key.
    ///
    /// The shuffled list is never allocated. An uninserted key's node is
    /// out of the tree until its insert overwrites all of it, so the
    /// shuffle runs over the `right` links, position `p` holding the
    /// `p`-th key, and a second pass chains the keys through their own
    /// `left` links: the `left` of the `p`-th key holds the next key. The
    /// loop reads that link just before it inserts the key. Neither pass
    /// writes a parent link, which is what tells an insert whether a slot
    /// is in the tree.
    ///
    /// # Panics
    ///
    /// Panics if the tree is not empty.
    pub fn insert_shuffled(&mut self, rng: &mut SimRng) {
        assert!(self.is_empty(), "insert_shuffled needs an empty tree");
        let n = self.nodes.len() as u32;
        if n == 0 {
            return;
        }
        for p in 0..n {
            self.set_right(p, p);
        }
        for i in (1..n).rev() {
            let j = rng.gen_range(u64::from(i) + 1) as u32;
            let (at_i, at_j) = (self.right(i), self.right(j));
            self.set_right(i, at_j);
            self.set_right(j, at_i);
        }
        for p in 1..n {
            let (key, next) = (self.right(p - 1), self.right(p));
            self.set_left(key, next);
        }
        let mut key = self.right(0);
        for _ in 0..n {
            let next = self.left(key);
            self.attach(key);
            key = next;
        }
        debug_assert_eq!(self.len, n as usize, "a key was inserted twice");
    }

    /// Moves the nodes into storage that clones share (see
    /// [`CowVec::freeze`]); the build's last step.
    pub(crate) fn freeze(&mut self) {
        self.nodes.freeze();
    }

    fn insert_fixup(&mut self, mut z: u32) {
        while self.color(self.parent(z)) == Color::Red {
            let p = self.parent(z);
            let g = self.parent(p);
            debug_assert_ne!(g, NIL, "red root parent implies grandparent");
            if p == self.left(g) {
                let uncle = self.right(g);
                if self.color(uncle) == Color::Red {
                    self.set_color(p, Color::Black);
                    self.set_color(uncle, Color::Black);
                    self.set_color(g, Color::Red);
                    z = g;
                } else {
                    if z == self.right(p) {
                        z = p;
                        self.rotate_left(z);
                    }
                    let p = self.parent(z);
                    let g = self.parent(p);
                    self.set_color(p, Color::Black);
                    self.set_color(g, Color::Red);
                    self.rotate_right(g);
                }
            } else {
                let uncle = self.left(g);
                if self.color(uncle) == Color::Red {
                    self.set_color(p, Color::Black);
                    self.set_color(uncle, Color::Black);
                    self.set_color(g, Color::Red);
                    z = g;
                } else {
                    if z == self.left(p) {
                        z = p;
                        self.rotate_right(z);
                    }
                    let p = self.parent(z);
                    let g = self.parent(p);
                    self.set_color(p, Color::Black);
                    self.set_color(g, Color::Red);
                    self.rotate_left(g);
                }
            }
        }
        let root = self.root;
        self.set_color(root, Color::Black);
    }

    /// Removes `key` from the tree and detaches its node; returns its
    /// record address, or `None` if absent. Classic CLRS deletion with an
    /// explicit-parent adaptation for the arena's `NIL` sentinel.
    pub fn delete(&mut self, key: u64) -> Option<u64> {
        if key >= self.nodes.len() as u64 || !self.contains(key as u32) {
            return None;
        }
        let z = key as u32;

        // y: the node actually spliced out; x: the child that replaces
        // it (may be NIL, with parent tracked explicitly).
        let mut y = z;
        let mut y_original_color = self.color(y);
        let x;
        let x_parent;
        if self.left(z) == NIL {
            x = self.right(z);
            x_parent = self.parent(z);
            self.transplant(z, x);
        } else if self.right(z) == NIL {
            x = self.left(z);
            x_parent = self.parent(z);
            self.transplant(z, x);
        } else {
            // Successor: minimum of z's right subtree.
            y = self.right(z);
            while self.left(y) != NIL {
                y = self.left(y);
            }
            y_original_color = self.color(y);
            x = self.right(y);
            if self.parent(y) == z {
                x_parent = y;
            } else {
                x_parent = self.parent(y);
                self.transplant(y, x);
                let zr = self.right(z);
                self.set_right(y, zr);
                self.set_parent(zr, y);
            }
            self.transplant(z, y);
            let zl = self.left(z);
            self.set_left(y, zl);
            self.set_parent(zl, y);
            let z_color = self.color(z);
            self.set_color(y, z_color);
        }
        if y_original_color == Color::Black {
            self.delete_fixup(x, x_parent);
        }
        *self.node_mut(z) = DETACHED;
        self.len -= 1;
        Some(self.layout.record_addr(key))
    }

    /// Replaces the subtree rooted at `u` with the one rooted at `v`
    /// (`v` may be NIL).
    fn transplant(&mut self, u: u32, v: u32) {
        let p = self.parent(u);
        if p == NIL {
            self.root = v;
        } else if self.left(p) == u {
            self.set_left(p, v);
        } else {
            self.set_right(p, v);
        }
        if v != NIL {
            self.set_parent(v, p);
        }
    }

    /// Restores the red-black invariants after removing a black node;
    /// `x` is the doubly-black node (possibly NIL) and `parent` its
    /// position's parent.
    fn delete_fixup(&mut self, mut x: u32, mut parent: u32) {
        while x != self.root && self.color(x) == Color::Black {
            if parent == NIL {
                break;
            }
            if x == self.left(parent) {
                let mut w = self.right(parent);
                if self.color(w) == Color::Red {
                    self.set_color(w, Color::Black);
                    self.set_color(parent, Color::Red);
                    self.rotate_left(parent);
                    w = self.right(parent);
                }
                if self.color(self.left(w)) == Color::Black
                    && self.color(self.right(w)) == Color::Black
                {
                    self.set_color(w, Color::Red);
                    x = parent;
                    parent = self.parent(x);
                } else {
                    if self.color(self.right(w)) == Color::Black {
                        let wl = self.left(w);
                        if wl != NIL {
                            self.set_color(wl, Color::Black);
                        }
                        self.set_color(w, Color::Red);
                        self.rotate_right(w);
                        w = self.right(parent);
                    }
                    let parent_color = self.color(parent);
                    self.set_color(w, parent_color);
                    self.set_color(parent, Color::Black);
                    let wr = self.right(w);
                    if wr != NIL {
                        self.set_color(wr, Color::Black);
                    }
                    self.rotate_left(parent);
                    x = self.root;
                    break;
                }
            } else {
                let mut w = self.left(parent);
                if self.color(w) == Color::Red {
                    self.set_color(w, Color::Black);
                    self.set_color(parent, Color::Red);
                    self.rotate_right(parent);
                    w = self.left(parent);
                }
                if self.color(self.left(w)) == Color::Black
                    && self.color(self.right(w)) == Color::Black
                {
                    self.set_color(w, Color::Red);
                    x = parent;
                    parent = self.parent(x);
                } else {
                    if self.color(self.left(w)) == Color::Black {
                        let wr = self.right(w);
                        if wr != NIL {
                            self.set_color(wr, Color::Black);
                        }
                        self.set_color(w, Color::Red);
                        self.rotate_left(w);
                        w = self.left(parent);
                    }
                    let parent_color = self.color(parent);
                    self.set_color(w, parent_color);
                    self.set_color(parent, Color::Black);
                    let wl = self.left(w);
                    if wl != NIL {
                        self.set_color(wl, Color::Black);
                    }
                    self.rotate_right(parent);
                    x = self.root;
                    break;
                }
            }
        }
        if x != NIL {
            self.set_color(x, Color::Black);
        }
    }

    /// Descends to `key`, pushing one read per visited node. Returns the
    /// record address if found.
    pub fn lookup_trace(&self, key: u64, out: &mut Vec<MemoryAccess>) -> Option<u64> {
        let mut cur = self.root;
        while cur != NIL {
            let k = u64::from(cur);
            out.push(MemoryAccess::read(self.layout.node_addr(k)));
            if key == k {
                return Some(self.layout.record_addr(k));
            }
            let node = self.node(cur);
            cur = if key < k { node.left } else { node.right };
        }
        None
    }

    /// Tree height (longest root-to-leaf path, in nodes).
    pub fn height(&self) -> usize {
        fn depth(arena: &RbArena, n: u32) -> usize {
            if n == NIL {
                0
            } else {
                1 + depth(arena, arena.left(n)).max(depth(arena, arena.right(n)))
            }
        }
        depth(self, self.root)
    }

    /// Validates the red-black invariants and the parent links; returns
    /// the black height.
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated invariant.
    pub fn validate(&self) -> usize {
        fn walk(arena: &RbArena, n: u32, lo: Option<u64>, hi: Option<u64>) -> usize {
            if n == NIL {
                return 1; // NIL leaves are black
            }
            let key = u64::from(n);
            if let Some(lo) = lo {
                assert!(key > lo, "BST order violated at key {key}");
            }
            if let Some(hi) = hi {
                assert!(key < hi, "BST order violated at key {key}");
            }
            let (left, right) = (arena.left(n), arena.right(n));
            for child in [left, right] {
                if child != NIL {
                    assert_eq!(arena.parent(child), n, "stale parent link under key {key}");
                }
            }
            if arena.color(n) == Color::Red {
                assert_eq!(
                    arena.color(left),
                    Color::Black,
                    "red node {key} has red left child"
                );
                assert_eq!(
                    arena.color(right),
                    Color::Black,
                    "red node {key} has red right child"
                );
            }
            let bl = walk(arena, left, lo, Some(key));
            let br = walk(arena, right, Some(key), hi);
            assert_eq!(bl, br, "black height mismatch under key {key}");
            bl + usize::from(arena.color(n) == Color::Black)
        }
        if self.root == NIL {
            return 1;
        }
        assert_eq!(self.color(self.root), Color::Black, "root must be black");
        assert_eq!(self.parent(self.root), NIL, "root has a parent");
        walk(self, self.root, None, None)
    }
}

/// The Red-Black Tree workload engine. A clone shares the tree until
/// its churn writes a node (DESIGN.md §18).
#[derive(Debug, Clone)]
pub struct RbTree {
    arena: RbArena,
    chooser: KeyChooser,
    compute_ns: u64,
    lookups_per_job: usize,
    write_fraction: f64,
    /// Fraction of operations that delete + reinsert their key,
    /// exercising rebalancing under load.
    churn_fraction: f64,
    n: u64,
}

impl RbTree {
    /// Builds the tree by inserting all keys in shuffled order.
    ///
    /// Nodes and records live in key-indexed regions (node of key `k` at
    /// `node_base + k*64`), the layout a key-partitioned memory pool
    /// produces: in-order-adjacent keys — which share the tail of every
    /// descent path — share pages, giving the index the spatial locality
    /// the paper's page-granularity cache exploits (§II-A).
    pub fn new(params: &WorkloadParams, seed: u64) -> Self {
        let n = params.num_records();
        let space = AddressSpace::new(params.dataset_bytes);
        let mut alloc = SimAlloc::sequential(space);
        let layout = RbLayout {
            node_base: alloc.alloc(n * NODE_BYTES),
            record_base: alloc.alloc(n * params.record_bytes),
            record_bytes: params.record_bytes,
        };
        let mut arena = RbArena::new(n, layout);
        arena.insert_shuffled(&mut SimRng::new(seed));
        arena.freeze();

        RbTree {
            arena,
            chooser: KeyChooser::new(
                n,
                params.zipf_theta,
                (PAGE_SIZE / params.record_bytes).max(1),
                params.effective_reuse(0.5), // deep descents are cold-heavy
            ),
            compute_ns: params.compute_ns_per_op,
            lookups_per_job: 6,
            write_fraction: 0.05,
            churn_fraction: 0.02,
            n,
        }
    }

    /// The underlying tree (exposed for invariant tests).
    pub fn arena(&self) -> &RbArena {
        &self.arena
    }
}

impl WorkloadEngine for RbTree {
    fn fill_job(&mut self, buf: &mut JobBuf, rng: &mut SimRng) {
        buf.clear();
        for _ in 0..self.lookups_per_job {
            let key = self.chooser.next(rng) % self.n;
            let start = buf.mark();
            if rng.gen_bool(self.churn_fraction) {
                // Index churn: delete the key and reinsert it. The tree
                // genuinely rebalances; the trace is the descent (reads)
                // plus stores to the rewritten path tail and the record.
                let record = self
                    .arena
                    .lookup_trace(key, buf.accesses_mut())
                    .expect("all keys resident");
                self.arena.delete(key);
                self.arena.insert(key);
                // Rewritten path tail: the last (up to) three nodes of
                // *this op's* descent — bounded by `start` so the shared
                // slab never bleeds into an earlier op's accesses.
                let descent = &buf.accesses()[start as usize..];
                let m = descent.len().min(3);
                let mut rewritten = [0u64; 3];
                for (dst, a) in rewritten.iter_mut().zip(descent.iter().rev()) {
                    *dst = a.addr;
                }
                for &addr in &rewritten[..m] {
                    buf.push(MemoryAccess::write(addr));
                }
                buf.push(MemoryAccess::write(record));
            } else {
                let write = rng.gen_bool(self.write_fraction);
                let record = self
                    .arena
                    .lookup_trace(key, buf.accesses_mut())
                    .expect("all keys were inserted");
                touch_record(buf.accesses_mut(), record, 2, write);
            }
            buf.finish_op(self.compute_ns, start);
        }
    }

    fn name(&self) -> &'static str {
        "RBT"
    }

    fn threads_per_core_hint(&self) -> usize {
        48
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Node of key `k` at `k*64`, its record at `k*record_bytes`.
    fn arena(capacity: u64, record_bytes: u64) -> RbArena {
        RbArena::new(
            capacity,
            RbLayout {
                node_base: 0,
                record_base: 0,
                record_bytes,
            },
        )
    }

    #[test]
    fn small_tree_maintains_invariants() {
        let mut arena = arena(100, 1024);
        for key in [50u64, 20, 70, 10, 30, 60, 80, 25, 27, 26] {
            assert!(arena.insert(key));
            arena.validate();
        }
        assert_eq!(arena.len(), 10);
        assert!(!arena.insert(50), "duplicate must be rejected");
    }

    #[test]
    fn node_is_twelve_bytes() {
        // DESIGN.md §17: links only; the key is the slot.
        assert_eq!(std::mem::size_of::<Node>(), 12);
    }

    #[test]
    #[should_panic(expected = "outside the arena")]
    fn key_beyond_capacity_is_rejected() {
        arena(8, 1).insert(8);
    }

    #[test]
    fn sequential_insert_stays_balanced() {
        let mut arena = arena(4096, 1024);
        for key in 0..4096u64 {
            arena.insert(key);
        }
        arena.validate();
        let h = arena.height();
        // RB trees guarantee height <= 2*log2(n+1) = 24 for n = 4096.
        assert!(h <= 24, "height {h} too large");
    }

    #[test]
    fn delete_leaf_and_internal_nodes() {
        let mut arena = arena(100, 1024);
        for key in [50u64, 20, 70, 10, 30, 60, 80, 25, 27, 26] {
            arena.insert(key);
        }
        // Leaf delete.
        assert_eq!(arena.delete(10), Some(10 * 1024));
        arena.validate();
        // Two-children delete (internal).
        assert_eq!(arena.delete(50), Some(50 * 1024));
        arena.validate();
        assert_eq!(arena.len(), 8);
        // Deleted keys are gone; the rest survive.
        let mut trace = Vec::new();
        assert_eq!(arena.lookup_trace(50, &mut trace), None);
        assert_eq!(arena.lookup_trace(27, &mut trace), Some(27 * 1024));
        // Double delete is a no-op.
        assert_eq!(arena.delete(50), None);
    }

    #[test]
    fn delete_everything_then_reinsert() {
        let mut arena = arena(512, 1);
        for key in 0..512u64 {
            arena.insert(key);
        }
        for key in (0..512u64).rev() {
            assert_eq!(arena.delete(key), Some(key));
            if key % 64 == 0 {
                arena.validate();
            }
        }
        assert!(arena.is_empty());
        // Every key's slot is its own, so reinsertion needs no free list.
        for key in 0..512u64 {
            assert!(arena.insert(key));
        }
        arena.validate();
        assert_eq!(arena.len(), 512);
    }

    #[test]
    fn interleaved_insert_delete_keeps_invariants() {
        let mut arena = arena(700, 1);
        let mut x = 9u64;
        let mut live = std::collections::HashSet::new();
        for round in 0..4_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (x >> 33) % 700;
            if live.contains(&key) {
                assert_eq!(arena.delete(key), Some(key));
                live.remove(&key);
            } else {
                assert!(arena.insert(key));
                live.insert(key);
            }
            if round % 500 == 0 {
                arena.validate();
            }
        }
        arena.validate();
        assert_eq!(arena.len(), live.len());
        let mut trace = Vec::new();
        for &key in &live {
            trace.clear();
            assert_eq!(arena.lookup_trace(key, &mut trace), Some(key));
        }
    }

    #[test]
    fn lookup_trace_finds_all_keys() {
        let layout = RbLayout {
            node_base: 1 << 20,
            record_base: 2 << 20,
            record_bytes: 256,
        };
        let mut arena = RbArena::new(64, layout);
        for key in [5u64, 3, 8, 1, 4, 7, 9] {
            arena.insert(key);
        }
        for key in [5u64, 3, 8, 1, 4, 7, 9] {
            let mut trace = Vec::new();
            let rec = arena.lookup_trace(key, &mut trace);
            assert_eq!(rec, Some((2 << 20) + key * 256));
            // The descent ends at the key's own node.
            assert_eq!(trace.last().map(|a| a.addr), Some((1 << 20) + key * 64));
            // Path length bounded by height.
            assert!(trace.len() <= arena.height());
        }
        let mut trace = Vec::new();
        assert_eq!(arena.lookup_trace(42, &mut trace), None);
    }

    #[test]
    fn engine_jobs_are_pointer_chases() {
        let mut e = RbTree::new(&WorkloadParams::tiny_for_tests(), 13);
        e.arena().validate();
        let mut rng = SimRng::new(14);
        let mut job = JobBuf::new();
        e.fill_job(&mut job, &mut rng);
        // Each lookup should touch at least a few nodes (tree of ~28k keys
        // has height ~15+) plus the record.
        let per_op = job.total_accesses() / job.ops().len();
        assert!(per_op >= 8, "only {per_op} accesses per lookup");
    }

    #[test]
    fn tree_height_logarithmic_at_scale() {
        let e = RbTree::new(&WorkloadParams::tiny_for_tests(), 15);
        let n = e.arena().len() as f64;
        let h = e.arena().height() as f64;
        assert!(h <= 2.1 * n.log2(), "height {h} vs n {n}");
    }
}
