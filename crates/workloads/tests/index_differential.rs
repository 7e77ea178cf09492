//! Differential suite for the flat dataset indexes (DESIGN.md §17).
//!
//! The red-black tree, the B+-tree and the hash chains were rebuilt as
//! flat arrays: a key-indexed `RbArena`, inline fixed-capacity B+ nodes
//! and CSR hash chains. The simulated result must not change. This file
//! keeps private copies of the structures they replaced as oracles, an
//! insertion-ordered `RbArena`, a `Vec`-per-node `BPlusTree` and
//! `Vec<Vec<u32>>` hash chains, and drives both sides with the same
//! operation streams. Traces, returned records, allocator calls, heights
//! and `validate()` results must agree exactly.

use astriflash_sim::rng::splitmix64;
use astriflash_sim::SimRng;
use astriflash_testkit::{prop_check, TestRng};
use astriflash_workloads::address_space::{AddressSpace, SimAlloc, BLOCK_SIZE, PAGE_SIZE};
use astriflash_workloads::engines::btree_index::{BPlusTree, DenseBPlusTree};
use astriflash_workloads::engines::rb_tree::{RbArena, RbLayout};
use astriflash_workloads::engines::{HashTable, Masstree, RbTree, Silo};
use astriflash_workloads::{JobBuf, KeyChooser, MemoryAccess, WorkloadEngine, WorkloadParams};

/// The insertion-ordered red-black tree the key-indexed `RbArena`
/// replaced: 40 B nodes carrying their key and both addresses, slots
/// handed out in insertion order and recycled through a free list.
mod old_rb {
    use astriflash_workloads::MemoryAccess;

    const NIL: u32 = u32::MAX;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Color {
        Red,
        Black,
    }

    #[derive(Debug, Clone)]
    struct Node {
        key: u64,
        left: u32,
        right: u32,
        parent: u32,
        color: Color,
        addr: u64,
        record_addr: u64,
    }

    #[derive(Debug, Clone)]
    pub struct RbArena {
        nodes: Vec<Node>,
        root: u32,
        free: Vec<u32>,
        len: usize,
    }

    impl RbArena {
        pub fn new() -> Self {
            RbArena {
                nodes: Vec::new(),
                root: NIL,
                free: Vec::new(),
                len: 0,
            }
        }

        pub fn len(&self) -> usize {
            self.len
        }

        fn color(&self, n: u32) -> Color {
            if n == NIL {
                Color::Black
            } else {
                self.nodes[n as usize].color
            }
        }

        fn rotate_left(&mut self, x: u32) {
            let y = self.nodes[x as usize].right;
            debug_assert_ne!(y, NIL);
            let y_left = self.nodes[y as usize].left;
            self.nodes[x as usize].right = y_left;
            if y_left != NIL {
                self.nodes[y_left as usize].parent = x;
            }
            let x_parent = self.nodes[x as usize].parent;
            self.nodes[y as usize].parent = x_parent;
            if x_parent == NIL {
                self.root = y;
            } else if self.nodes[x_parent as usize].left == x {
                self.nodes[x_parent as usize].left = y;
            } else {
                self.nodes[x_parent as usize].right = y;
            }
            self.nodes[y as usize].left = x;
            self.nodes[x as usize].parent = y;
        }

        fn rotate_right(&mut self, x: u32) {
            let y = self.nodes[x as usize].left;
            debug_assert_ne!(y, NIL);
            let y_right = self.nodes[y as usize].right;
            self.nodes[x as usize].left = y_right;
            if y_right != NIL {
                self.nodes[y_right as usize].parent = x;
            }
            let x_parent = self.nodes[x as usize].parent;
            self.nodes[y as usize].parent = x_parent;
            if x_parent == NIL {
                self.root = y;
            } else if self.nodes[x_parent as usize].right == x {
                self.nodes[x_parent as usize].right = y;
            } else {
                self.nodes[x_parent as usize].left = y;
            }
            self.nodes[y as usize].right = x;
            self.nodes[x as usize].parent = y;
        }

        pub fn insert(&mut self, key: u64, addr: u64, record_addr: u64) -> bool {
            // Standard BST descent.
            let mut parent = NIL;
            let mut cur = self.root;
            while cur != NIL {
                parent = cur;
                let ck = self.nodes[cur as usize].key;
                if key == ck {
                    return false;
                }
                cur = if key < ck {
                    self.nodes[cur as usize].left
                } else {
                    self.nodes[cur as usize].right
                };
            }
            let node = Node {
                key,
                left: NIL,
                right: NIL,
                parent,
                color: Color::Red,
                addr,
                record_addr,
            };
            let idx = if let Some(slot) = self.free.pop() {
                self.nodes[slot as usize] = node;
                slot
            } else {
                self.nodes.push(node);
                self.nodes.len() as u32 - 1
            };
            self.len += 1;
            if parent == NIL {
                self.root = idx;
            } else if key < self.nodes[parent as usize].key {
                self.nodes[parent as usize].left = idx;
            } else {
                self.nodes[parent as usize].right = idx;
            }
            self.insert_fixup(idx);
            true
        }

        fn insert_fixup(&mut self, mut z: u32) {
            while self.color(self.nodes[z as usize].parent) == Color::Red {
                let p = self.nodes[z as usize].parent;
                let g = self.nodes[p as usize].parent;
                debug_assert_ne!(g, NIL, "red root parent implies grandparent");
                if p == self.nodes[g as usize].left {
                    let uncle = self.nodes[g as usize].right;
                    if self.color(uncle) == Color::Red {
                        self.nodes[p as usize].color = Color::Black;
                        self.nodes[uncle as usize].color = Color::Black;
                        self.nodes[g as usize].color = Color::Red;
                        z = g;
                    } else {
                        if z == self.nodes[p as usize].right {
                            z = p;
                            self.rotate_left(z);
                        }
                        let p = self.nodes[z as usize].parent;
                        let g = self.nodes[p as usize].parent;
                        self.nodes[p as usize].color = Color::Black;
                        self.nodes[g as usize].color = Color::Red;
                        self.rotate_right(g);
                    }
                } else {
                    let uncle = self.nodes[g as usize].left;
                    if self.color(uncle) == Color::Red {
                        self.nodes[p as usize].color = Color::Black;
                        self.nodes[uncle as usize].color = Color::Black;
                        self.nodes[g as usize].color = Color::Red;
                        z = g;
                    } else {
                        if z == self.nodes[p as usize].left {
                            z = p;
                            self.rotate_right(z);
                        }
                        let p = self.nodes[z as usize].parent;
                        let g = self.nodes[p as usize].parent;
                        self.nodes[p as usize].color = Color::Black;
                        self.nodes[g as usize].color = Color::Red;
                        self.rotate_left(g);
                    }
                }
            }
            let root = self.root;
            self.nodes[root as usize].color = Color::Black;
        }

        pub fn delete(&mut self, key: u64) -> Option<u64> {
            // Find the node.
            let mut z = self.root;
            while z != NIL {
                let k = self.nodes[z as usize].key;
                if key == k {
                    break;
                }
                z = if key < k {
                    self.nodes[z as usize].left
                } else {
                    self.nodes[z as usize].right
                };
            }
            if z == NIL {
                return None;
            }
            let record = self.nodes[z as usize].record_addr;

            // y: the node actually spliced out; x: the child that replaces
            // it (may be NIL, with parent tracked explicitly).
            let mut y = z;
            let mut y_original_color = self.nodes[y as usize].color;
            let x;
            let x_parent;
            if self.nodes[z as usize].left == NIL {
                x = self.nodes[z as usize].right;
                x_parent = self.nodes[z as usize].parent;
                self.transplant(z, x);
            } else if self.nodes[z as usize].right == NIL {
                x = self.nodes[z as usize].left;
                x_parent = self.nodes[z as usize].parent;
                self.transplant(z, x);
            } else {
                // Successor: minimum of z's right subtree.
                y = self.nodes[z as usize].right;
                while self.nodes[y as usize].left != NIL {
                    y = self.nodes[y as usize].left;
                }
                y_original_color = self.nodes[y as usize].color;
                x = self.nodes[y as usize].right;
                if self.nodes[y as usize].parent == z {
                    x_parent = y;
                } else {
                    x_parent = self.nodes[y as usize].parent;
                    self.transplant(y, x);
                    let zr = self.nodes[z as usize].right;
                    self.nodes[y as usize].right = zr;
                    self.nodes[zr as usize].parent = y;
                }
                self.transplant(z, y);
                let zl = self.nodes[z as usize].left;
                self.nodes[y as usize].left = zl;
                self.nodes[zl as usize].parent = y;
                self.nodes[y as usize].color = self.nodes[z as usize].color;
            }
            if y_original_color == Color::Black {
                self.delete_fixup(x, x_parent);
            }
            self.free.push(z);
            self.len -= 1;
            Some(record)
        }

        fn transplant(&mut self, u: u32, v: u32) {
            let p = self.nodes[u as usize].parent;
            if p == NIL {
                self.root = v;
            } else if self.nodes[p as usize].left == u {
                self.nodes[p as usize].left = v;
            } else {
                self.nodes[p as usize].right = v;
            }
            if v != NIL {
                self.nodes[v as usize].parent = p;
            }
        }

        fn delete_fixup(&mut self, mut x: u32, mut parent: u32) {
            while x != self.root && self.color(x) == Color::Black {
                if parent == NIL {
                    break;
                }
                if x == self.nodes[parent as usize].left {
                    let mut w = self.nodes[parent as usize].right;
                    if self.color(w) == Color::Red {
                        self.nodes[w as usize].color = Color::Black;
                        self.nodes[parent as usize].color = Color::Red;
                        self.rotate_left(parent);
                        w = self.nodes[parent as usize].right;
                    }
                    if self.color(self.nodes[w as usize].left) == Color::Black
                        && self.color(self.nodes[w as usize].right) == Color::Black
                    {
                        self.nodes[w as usize].color = Color::Red;
                        x = parent;
                        parent = self.nodes[x as usize].parent;
                    } else {
                        if self.color(self.nodes[w as usize].right) == Color::Black {
                            let wl = self.nodes[w as usize].left;
                            if wl != NIL {
                                self.nodes[wl as usize].color = Color::Black;
                            }
                            self.nodes[w as usize].color = Color::Red;
                            self.rotate_right(w);
                            w = self.nodes[parent as usize].right;
                        }
                        self.nodes[w as usize].color = self.nodes[parent as usize].color;
                        self.nodes[parent as usize].color = Color::Black;
                        let wr = self.nodes[w as usize].right;
                        if wr != NIL {
                            self.nodes[wr as usize].color = Color::Black;
                        }
                        self.rotate_left(parent);
                        x = self.root;
                        break;
                    }
                } else {
                    let mut w = self.nodes[parent as usize].left;
                    if self.color(w) == Color::Red {
                        self.nodes[w as usize].color = Color::Black;
                        self.nodes[parent as usize].color = Color::Red;
                        self.rotate_right(parent);
                        w = self.nodes[parent as usize].left;
                    }
                    if self.color(self.nodes[w as usize].left) == Color::Black
                        && self.color(self.nodes[w as usize].right) == Color::Black
                    {
                        self.nodes[w as usize].color = Color::Red;
                        x = parent;
                        parent = self.nodes[x as usize].parent;
                    } else {
                        if self.color(self.nodes[w as usize].left) == Color::Black {
                            let wr = self.nodes[w as usize].right;
                            if wr != NIL {
                                self.nodes[wr as usize].color = Color::Black;
                            }
                            self.nodes[w as usize].color = Color::Red;
                            self.rotate_left(w);
                            w = self.nodes[parent as usize].left;
                        }
                        self.nodes[w as usize].color = self.nodes[parent as usize].color;
                        self.nodes[parent as usize].color = Color::Black;
                        let wl = self.nodes[w as usize].left;
                        if wl != NIL {
                            self.nodes[wl as usize].color = Color::Black;
                        }
                        self.rotate_right(parent);
                        x = self.root;
                        break;
                    }
                }
            }
            if x != NIL {
                self.nodes[x as usize].color = Color::Black;
            }
        }

        pub fn lookup_trace(&self, key: u64, out: &mut Vec<MemoryAccess>) -> Option<u64> {
            let mut cur = self.root;
            while cur != NIL {
                let node = &self.nodes[cur as usize];
                out.push(MemoryAccess::read(node.addr));
                if key == node.key {
                    return Some(node.record_addr);
                }
                cur = if key < node.key {
                    node.left
                } else {
                    node.right
                };
            }
            None
        }

        pub fn height(&self) -> usize {
            fn depth(arena: &RbArena, n: u32) -> usize {
                if n == NIL {
                    0
                } else {
                    1 + depth(arena, arena.nodes[n as usize].left)
                        .max(depth(arena, arena.nodes[n as usize].right))
                }
            }
            depth(self, self.root)
        }

        pub fn validate(&self) -> usize {
            fn walk(arena: &RbArena, n: u32, lo: Option<u64>, hi: Option<u64>) -> usize {
                if n == NIL {
                    return 1; // NIL leaves are black
                }
                let node = &arena.nodes[n as usize];
                if let Some(lo) = lo {
                    assert!(node.key > lo, "BST order violated at key {}", node.key);
                }
                if let Some(hi) = hi {
                    assert!(node.key < hi, "BST order violated at key {}", node.key);
                }
                if node.color == Color::Red {
                    assert_eq!(
                        arena.color(node.left),
                        Color::Black,
                        "red node {} has red left child",
                        node.key
                    );
                    assert_eq!(
                        arena.color(node.right),
                        Color::Black,
                        "red node {} has red right child",
                        node.key
                    );
                }
                let bl = walk(arena, node.left, lo, Some(node.key));
                let br = walk(arena, node.right, Some(node.key), hi);
                assert_eq!(bl, br, "black height mismatch under key {}", node.key);
                bl + usize::from(node.color == Color::Black)
            }
            if self.root == NIL {
                return 1;
            }
            assert_eq!(self.color(self.root), Color::Black, "root must be black");
            walk(self, self.root, None, None)
        }
    }
}

/// The B+-tree as it was before its nodes went inline: three `Vec`s per
/// node, a heap `path` per insert, and `split_off` splits.
mod old_btree {
    use astriflash_workloads::MemoryAccess;

    pub const MAX_KEYS: usize = 14;

    const NIL: u32 = u32::MAX;

    #[derive(Debug, Clone)]
    struct BNode {
        keys: Vec<u64>,
        children: Vec<u32>,
        records: Vec<u64>,
        next_leaf: u32,
        addr: u64,
    }

    impl BNode {
        fn is_leaf(&self) -> bool {
            self.children.is_empty()
        }
    }

    #[derive(Debug, Clone)]
    pub struct BPlusTree {
        nodes: Vec<BNode>,
        root: u32,
        len: usize,
        free: Vec<u32>,
    }

    impl BPlusTree {
        pub fn new(alloc: &mut dyn FnMut(u64) -> u64) -> Self {
            let root = BNode {
                keys: Vec::new(),
                children: Vec::new(),
                records: Vec::new(),
                next_leaf: NIL,
                addr: alloc(0),
            };
            BPlusTree {
                nodes: vec![root],
                root: 0,
                len: 0,
                free: Vec::new(),
            }
        }

        pub fn len(&self) -> usize {
            self.len
        }

        pub fn height(&self) -> usize {
            let mut h = 1;
            let mut cur = self.root;
            while !self.nodes[cur as usize].is_leaf() {
                cur = self.nodes[cur as usize].children[0];
                h += 1;
            }
            h
        }

        fn new_node(&mut self, addr: u64) -> u32 {
            let node = BNode {
                keys: Vec::new(),
                children: Vec::new(),
                records: Vec::new(),
                next_leaf: NIL,
                addr,
            };
            if let Some(slot) = self.free.pop() {
                self.nodes[slot as usize] = node;
                slot
            } else {
                self.nodes.push(node);
                self.nodes.len() as u32 - 1
            }
        }

        const MIN_KEYS: usize = MAX_KEYS / 2;

        pub fn remove(&mut self, key: u64) -> Option<u64> {
            let removed = self.remove_rec(self.root, key)?;
            self.len -= 1;
            // Shrink the root: an internal root with one child drops a
            // level; an empty leaf root just stays (empty tree).
            let r = self.root;
            if !self.nodes[r as usize].is_leaf() && self.nodes[r as usize].keys.is_empty() {
                let only_child = self.nodes[r as usize].children[0];
                self.free.push(r);
                self.root = only_child;
            }
            Some(removed)
        }

        fn remove_rec(&mut self, node: u32, key: u64) -> Option<u64> {
            if self.nodes[node as usize].is_leaf() {
                let pos = self.nodes[node as usize].keys.binary_search(&key).ok()?;
                let n = &mut self.nodes[node as usize];
                n.keys.remove(pos);
                return Some(n.records.remove(pos));
            }
            let slot = self.nodes[node as usize]
                .keys
                .partition_point(|&k| k <= key);
            let child = self.nodes[node as usize].children[slot];
            let removed = self.remove_rec(child, key)?;
            if self.nodes[child as usize].keys.len() < Self::MIN_KEYS {
                self.fix_underflow(node, slot);
            }
            Some(removed)
        }

        fn fix_underflow(&mut self, parent: u32, slot: usize) {
            let child = self.nodes[parent as usize].children[slot];
            // Try the left sibling first, then the right.
            if slot > 0 {
                let left = self.nodes[parent as usize].children[slot - 1];
                if self.nodes[left as usize].keys.len() > Self::MIN_KEYS {
                    self.borrow_from_left(parent, slot, left, child);
                    return;
                }
            }
            if slot + 1 < self.nodes[parent as usize].children.len() {
                let right = self.nodes[parent as usize].children[slot + 1];
                if self.nodes[right as usize].keys.len() > Self::MIN_KEYS {
                    self.borrow_from_right(parent, slot, child, right);
                    return;
                }
            }
            // Merge with a sibling (prefer left).
            if slot > 0 {
                let left = self.nodes[parent as usize].children[slot - 1];
                self.merge(parent, slot - 1, left, child);
            } else {
                let right = self.nodes[parent as usize].children[slot + 1];
                self.merge(parent, slot, child, right);
            }
        }

        fn borrow_from_left(&mut self, parent: u32, slot: usize, left: u32, child: u32) {
            if self.nodes[child as usize].is_leaf() {
                let k = self.nodes[left as usize]
                    .keys
                    .pop()
                    .expect("donor has spares");
                let r = self.nodes[left as usize].records.pop().expect("parallel");
                self.nodes[child as usize].keys.insert(0, k);
                self.nodes[child as usize].records.insert(0, r);
                self.nodes[parent as usize].keys[slot - 1] = k;
            } else {
                // Rotate through the parent separator.
                let sep = self.nodes[parent as usize].keys[slot - 1];
                let k = self.nodes[left as usize]
                    .keys
                    .pop()
                    .expect("donor has spares");
                let c = self.nodes[left as usize].children.pop().expect("parallel");
                self.nodes[child as usize].keys.insert(0, sep);
                self.nodes[child as usize].children.insert(0, c);
                self.nodes[parent as usize].keys[slot - 1] = k;
            }
        }

        fn borrow_from_right(&mut self, parent: u32, slot: usize, child: u32, right: u32) {
            if self.nodes[child as usize].is_leaf() {
                let k = self.nodes[right as usize].keys.remove(0);
                let r = self.nodes[right as usize].records.remove(0);
                self.nodes[child as usize].keys.push(k);
                self.nodes[child as usize].records.push(r);
                self.nodes[parent as usize].keys[slot] = self.nodes[right as usize].keys[0];
            } else {
                let sep = self.nodes[parent as usize].keys[slot];
                let k = self.nodes[right as usize].keys.remove(0);
                let c = self.nodes[right as usize].children.remove(0);
                self.nodes[child as usize].keys.push(sep);
                self.nodes[child as usize].children.push(c);
                self.nodes[parent as usize].keys[slot] = k;
            }
        }

        fn merge(&mut self, parent: u32, sep_slot: usize, left: u32, right: u32) {
            let sep = self.nodes[parent as usize].keys.remove(sep_slot);
            self.nodes[parent as usize].children.remove(sep_slot + 1);
            if self.nodes[left as usize].is_leaf() {
                let (mut rk, mut rr, rn) = {
                    let r = &mut self.nodes[right as usize];
                    (
                        std::mem::take(&mut r.keys),
                        std::mem::take(&mut r.records),
                        r.next_leaf,
                    )
                };
                let l = &mut self.nodes[left as usize];
                l.keys.append(&mut rk);
                l.records.append(&mut rr);
                l.next_leaf = rn;
            } else {
                let (mut rk, mut rc) = {
                    let r = &mut self.nodes[right as usize];
                    (std::mem::take(&mut r.keys), std::mem::take(&mut r.children))
                };
                let l = &mut self.nodes[left as usize];
                l.keys.push(sep);
                l.keys.append(&mut rk);
                l.children.append(&mut rc);
            }
            self.free.push(right);
        }

        pub fn insert(&mut self, key: u64, record: u64, alloc: &mut dyn FnMut(u64) -> u64) -> bool {
            // Descend, remembering the path for splits.
            let mut path = Vec::new();
            let mut cur = self.root;
            while !self.nodes[cur as usize].is_leaf() {
                let node = &self.nodes[cur as usize];
                let slot = node.keys.partition_point(|&k| k <= key);
                path.push((cur, slot));
                cur = node.children[slot];
            }
            let leaf = &mut self.nodes[cur as usize];
            match leaf.keys.binary_search(&key) {
                Ok(pos) => {
                    leaf.records[pos] = record;
                    return false;
                }
                Err(pos) => {
                    leaf.keys.insert(pos, key);
                    leaf.records.insert(pos, record);
                    self.len += 1;
                }
            }
            // Split upward while overflowing.
            let mut child = cur;
            while self.nodes[child as usize].keys.len() > MAX_KEYS {
                let (sep, right) = self.split(child, alloc);
                if let Some((parent, slot)) = path.pop() {
                    let p = &mut self.nodes[parent as usize];
                    p.keys.insert(slot, sep);
                    p.children.insert(slot + 1, right);
                    child = parent;
                } else {
                    // Split the root: grow a level.
                    let ordinal = self.nodes.len() as u64;
                    let new_root = self.new_node(alloc(ordinal));
                    let n = &mut self.nodes[new_root as usize];
                    n.keys.push(sep);
                    n.children.push(child);
                    n.children.push(right);
                    self.root = new_root;
                    break;
                }
            }
            true
        }

        fn split(&mut self, node: u32, alloc: &mut dyn FnMut(u64) -> u64) -> (u64, u32) {
            let ordinal = self.nodes.len() as u64;
            let right = self.new_node(alloc(ordinal));
            let mid = self.nodes[node as usize].keys.len() / 2;
            if self.nodes[node as usize].is_leaf() {
                let (rk, rr, next);
                {
                    let n = &mut self.nodes[node as usize];
                    rk = n.keys.split_off(mid);
                    rr = n.records.split_off(mid);
                    next = n.next_leaf;
                    n.next_leaf = right;
                }
                let sep = rk[0];
                let r = &mut self.nodes[right as usize];
                r.keys = rk;
                r.records = rr;
                r.next_leaf = next;
                (sep, right)
            } else {
                let (mut rk, rc);
                {
                    let n = &mut self.nodes[node as usize];
                    rk = n.keys.split_off(mid);
                    rc = n.children.split_off(mid + 1);
                }
                let sep = rk.remove(0);
                let r = &mut self.nodes[right as usize];
                r.keys = rk;
                r.children = rc;
                (sep, right)
            }
        }

        pub fn lookup_trace(&self, key: u64, out: &mut Vec<MemoryAccess>) -> Option<u64> {
            let mut cur = self.root;
            loop {
                let node = &self.nodes[cur as usize];
                out.push(MemoryAccess::read(node.addr));
                if node.is_leaf() {
                    return node
                        .keys
                        .binary_search(&key)
                        .ok()
                        .map(|pos| node.records[pos]);
                }
                let slot = node.keys.partition_point(|&k| k <= key);
                cur = node.children[slot];
            }
        }

        pub fn scan_trace_into(
            &self,
            start: u64,
            count: usize,
            out: &mut Vec<MemoryAccess>,
            records: &mut Vec<u64>,
        ) {
            let base = records.len();
            let mut cur = self.root;
            loop {
                let node = &self.nodes[cur as usize];
                out.push(MemoryAccess::read(node.addr));
                if node.is_leaf() {
                    break;
                }
                let slot = node.keys.partition_point(|&k| k <= start);
                cur = node.children[slot];
            }
            let mut pos = self.nodes[cur as usize]
                .keys
                .partition_point(|&k| k < start);
            while records.len() - base < count && cur != NIL {
                let node = &self.nodes[cur as usize];
                while pos < node.keys.len() && records.len() - base < count {
                    records.push(node.records[pos]);
                    pos += 1;
                }
                if records.len() - base < count {
                    cur = node.next_leaf;
                    pos = 0;
                    if cur != NIL {
                        out.push(MemoryAccess::read(self.nodes[cur as usize].addr));
                    }
                }
            }
        }

        pub fn validate(&self) -> usize {
            // All leaves at the same depth, keys sorted, separators correct.
            fn walk(
                t: &BPlusTree,
                n: u32,
                lo: Option<u64>,
                hi: Option<u64>,
                depth: usize,
            ) -> usize {
                let node = &t.nodes[n as usize];
                assert!(
                    node.keys.windows(2).all(|w| w[0] < w[1]),
                    "unsorted keys in node"
                );
                if let (Some(lo), Some(first)) = (lo, node.keys.first()) {
                    assert!(*first >= lo, "key below lower bound");
                }
                if let (Some(hi), Some(last)) = (hi, node.keys.last()) {
                    assert!(*last < hi, "key above upper bound");
                }
                if node.is_leaf() {
                    assert_eq!(node.keys.len(), node.records.len());
                    return depth;
                }
                assert_eq!(node.children.len(), node.keys.len() + 1);
                let mut leaf_depth = None;
                for (i, &c) in node.children.iter().enumerate() {
                    let clo = if i == 0 { lo } else { Some(node.keys[i - 1]) };
                    let chi = if i == node.keys.len() {
                        hi
                    } else {
                        Some(node.keys[i])
                    };
                    let d = walk(t, c, clo, chi, depth + 1);
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
            while !self.nodes[cur as usize].is_leaf() {
                cur = self.nodes[cur as usize].children[0];
            }
            let mut count = 0;
            let mut last: Option<u64> = None;
            while cur != NIL {
                for &k in &self.nodes[cur as usize].keys {
                    if let Some(l) = last {
                        assert!(k > l, "leaf chain out of order");
                    }
                    last = Some(k);
                    count += 1;
                }
                cur = self.nodes[cur as usize].next_leaf;
            }
            assert_eq!(count, self.len, "leaf chain count != len");
            count
        }
    }
}

/// The hash-table engine as it was before its chains went CSR: one
/// `Vec<u32>` per bucket plus a per-key `(bucket, node, record)` table.
struct OldHashTable {
    chooser: KeyChooser,
    compute_ns: u64,
    bucket_array_base: u64,
    key_info: Vec<(u32, u64, u64)>,
    chains: Vec<Vec<u32>>,
}

impl OldHashTable {
    fn new(params: &WorkloadParams) -> Self {
        let n = params.num_records();
        let want = (n / 4).max(16);
        let num_buckets = if want.is_power_of_two() {
            want
        } else {
            want.next_power_of_two() / 2
        };
        let mut alloc = SimAlloc::sequential(AddressSpace::new(params.dataset_bytes));
        let bucket_array_base = alloc.alloc(num_buckets * 8);
        let node_base = alloc.alloc(num_buckets * 8 * 64);
        let overflow_base = alloc.alloc(n * 64 / 4 + 64);
        let record_base = alloc.alloc(n * params.record_bytes);
        let mut key_info = Vec::new();
        let mut chains: Vec<Vec<u32>> = vec![Vec::new(); num_buckets as usize];
        let mut overflow_used = 0u64;
        for key in 0..n {
            let mut s = key;
            let bucket = (splitmix64(&mut s) % num_buckets) as u32;
            let pos = chains[bucket as usize].len() as u64;
            let node_addr = if pos < 8 {
                node_base + (bucket as u64 * 8 + pos) * 64
            } else {
                overflow_used += 1;
                overflow_base + (overflow_used - 1) * 64
            };
            key_info.push((bucket, node_addr, record_base + key * params.record_bytes));
            chains[bucket as usize].push(key as u32);
        }
        OldHashTable {
            chooser: KeyChooser::new(
                n,
                params.zipf_theta,
                (PAGE_SIZE / params.record_bytes).max(1),
                params.effective_reuse(0.75),
            ),
            compute_ns: params.compute_ns_per_op,
            bucket_array_base,
            key_info,
            chains,
        }
    }

    fn fill_job(&mut self, buf: &mut JobBuf, rng: &mut SimRng) {
        buf.clear();
        for _ in 0..8 {
            let key = self.chooser.next(rng);
            let write = rng.gen_bool(0.10);
            let (bucket, _, record) = self.key_info[key as usize];
            let slot_addr = self.bucket_array_base + bucket as u64 * 8;
            let start = buf.mark();
            buf.push(MemoryAccess::read(slot_addr / BLOCK_SIZE * BLOCK_SIZE));
            for &k in &self.chains[bucket as usize] {
                buf.push(MemoryAccess::read(self.key_info[k as usize].1));
                if k as u64 == key {
                    break;
                }
            }
            buf.push(if write {
                MemoryAccess::write(record)
            } else {
                MemoryAccess::read(record)
            });
            buf.push(MemoryAccess::read(record + BLOCK_SIZE));
            buf.finish_op(self.compute_ns, start);
        }
    }
}

/// Node of key `k` at `0x4000 + k*64`, its record at `16 MiB + k*256`.
const LAYOUT: RbLayout = RbLayout {
    node_base: 0x4000,
    record_base: 16 << 20,
    record_bytes: 256,
};

fn old_insert(old: &mut old_rb::RbArena, layout: RbLayout, key: u64) -> bool {
    old.insert(key, layout.node_addr(key), layout.record_addr(key))
}

/// Same size, height, black height, and the same descent and record for
/// every key in `0..capacity`, present or not.
fn assert_same_rb(new: &RbArena, old: &old_rb::RbArena, capacity: u64) {
    assert_eq!(new.len(), old.len(), "len");
    assert_eq!(new.height(), old.height(), "height");
    assert_eq!(new.validate(), old.validate(), "black height");
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for key in 0..capacity {
        a.clear();
        b.clear();
        let (ra, rb) = (new.lookup_trace(key, &mut a), old.lookup_trace(key, &mut b));
        assert_eq!(ra, rb, "record of key {key}");
        assert_eq!(a, b, "descent to key {key}");
    }
}

/// One random insert, delete or churn of a key in `0..capacity`, on both
/// trees; every return value and a random descent must agree.
fn rb_step(
    g: &mut TestRng,
    new: &mut RbArena,
    old: &mut old_rb::RbArena,
    layout: RbLayout,
    capacity: u64,
    step: usize,
) {
    let key = g.u64_in(0..capacity);
    match g.u32_in(0..4) {
        0 | 1 => assert_eq!(
            new.insert(key),
            old_insert(old, layout, key),
            "insert {key} at step {step}"
        ),
        2 => assert_eq!(
            new.delete(key),
            old.delete(key),
            "delete {key} at step {step}"
        ),
        _ => {
            // Churn, as `RbTree::fill_job` does it.
            assert_eq!(
                new.delete(key),
                old.delete(key),
                "churn {key} at step {step}"
            );
            assert!(new.insert(key) && old_insert(old, layout, key));
        }
    }
    let probe = g.u64_in(0..capacity);
    let (mut a, mut b) = (Vec::new(), Vec::new());
    assert_eq!(
        new.lookup_trace(probe, &mut a),
        old.lookup_trace(probe, &mut b)
    );
    assert_eq!(a, b, "descent to {probe} at step {step}");
}

/// A prefix of `0..capacity` in one of three orders: ascending (every
/// key's only neighbour is its predecessor), descending (its successor),
/// or zig-zag from both ends inward, `0, capacity - 1, 1, ...`, where
/// from the third key on the predecessor's right link is often taken.
fn ordered_keys(g: &mut TestRng, capacity: u64) -> Vec<u64> {
    let order = g.u32_in(0..3);
    let take = g.usize_in(0..capacity as usize + 1);
    (0..capacity)
        .map(|i| match order {
            0 => i,
            1 => capacity - 1 - i,
            _ if i % 2 == 0 => i / 2,
            _ => capacity - 1 - i / 2,
        })
        .take(take)
        .collect()
}

/// Insert / delete / churn streams: every return value and every descent
/// agrees with the insertion-ordered oracle, step by step. Half the cases
/// first insert keys in ascending, descending or zig-zag order, which
/// place keys under each kind of neighbour; the random steps then delete
/// and churn in the trees those orders build.
#[test]
fn rb_arena_matches_insertion_ordered_oracle() {
    prop_check!(cases: 48, |g| {
        let capacity = g.u64_in(1..1_500);
        let steps = g.usize_in(1..2_000);
        let mut new = RbArena::new(capacity, LAYOUT);
        let mut old = old_rb::RbArena::new();
        if g.any_bool() {
            for key in ordered_keys(g, capacity) {
                assert_eq!(new.insert(key), old_insert(&mut old, LAYOUT, key), "insert {key}");
            }
            assert_same_rb(&new, &old, capacity);
        }
        for step in 0..steps {
            rb_step(g, &mut new, &mut old, LAYOUT, capacity, step);
        }
        assert_same_rb(&new, &old, capacity);
    });
}

/// `insert_shuffled` inserts `0..capacity` in `SimRng::shuffle` order:
/// the tree equals the oracle's key-by-key build of the shuffled list.
/// The build keeps that list in the uninserted nodes' own links, so this
/// also checks that no scratch link is taken for a tree link. Small
/// capacities reach the empty and one-key trees.
#[test]
fn rb_shuffled_build_matches_key_by_key_oracle() {
    prop_check!(cases: 24, |g| {
        let capacity = if g.any_bool() {
            g.u64_in(0..100)
        } else {
            g.u64_in(100..5_000)
        };
        let seed = g.any_u64();
        let mut new = RbArena::new(capacity, LAYOUT);
        new.insert_shuffled(&mut SimRng::new(seed));
        let mut keys: Vec<u64> = (0..capacity).collect();
        SimRng::new(seed).shuffle(&mut keys);
        let mut old = old_rb::RbArena::new();
        for key in keys {
            assert!(old_insert(&mut old, LAYOUT, key));
        }
        assert_same_rb(&new, &old, capacity);
    });
}

/// The layout `RbTree::new` gives its tree: the node region, then the
/// record region, from a sequential allocator.
fn rb_engine_layout(params: &WorkloadParams) -> RbLayout {
    let n = params.num_records();
    let mut alloc = SimAlloc::sequential(AddressSpace::new(params.dataset_bytes));
    RbLayout {
        node_base: alloc.alloc(n * 64),
        record_base: alloc.alloc(n * params.record_bytes),
        record_bytes: params.record_bytes,
    }
}

/// `RbTree::new`'s build replayed into the oracle: every key, in
/// `SimRng::shuffle` order.
fn oracle_rb_engine_build(params: &WorkloadParams, seed: u64) -> old_rb::RbArena {
    let layout = rb_engine_layout(params);
    let mut keys: Vec<u64> = (0..params.num_records()).collect();
    SimRng::new(seed).shuffle(&mut keys);
    let mut old = old_rb::RbArena::new();
    for key in keys {
        assert!(old_insert(&mut old, layout, key));
    }
    old
}

/// The engine's shuffled build, replayed key by key into the oracle.
#[test]
fn rb_tree_engine_index_matches_oracle_build() {
    let params = WorkloadParams::tiny_for_tests();
    for seed in [1u64, 13, 0xE17] {
        let engine = RbTree::new(&params, seed);
        let old = oracle_rb_engine_build(&params, seed);
        assert_same_rb(engine.arena(), &old, params.num_records());
    }
}

/// The op streams above, on two clones of an engine's tree, as forks
/// take them (DESIGN.md §18): interleaved steps, each clone against its
/// own copy of the oracle build. The clones copy the nodes they write,
/// so the engine's tree must still be the untouched build.
#[test]
fn rb_arena_forks_match_oracle() {
    let params = WorkloadParams::tiny_for_tests();
    let (n, layout) = (params.num_records(), rb_engine_layout(&params));
    let engine = RbTree::new(&params, 21);
    let built = oracle_rb_engine_build(&params, 21);
    prop_check!(cases: 6, |g| {
        let mut forks = [engine.arena().clone(), engine.arena().clone()];
        let mut oracles = [built.clone(), built.clone()];
        for step in 0..g.usize_in(1..3_000) {
            let side = g.usize_in(0..2);
            rb_step(g, &mut forks[side], &mut oracles[side], layout, n, step);
        }
        for (fork, oracle) in forks.iter().zip(&oracles) {
            assert_same_rb(fork, oracle, n);
        }
    });
    assert_same_rb(engine.arena(), &built, n);
}

/// A sequential simulated allocator that logs the ordinals it is called
/// with, so both trees' `alloc` call sequences can be compared.
#[derive(Default)]
struct LoggedAlloc {
    next: u64,
    ordinals: Vec<u64>,
}

impl LoggedAlloc {
    fn alloc(&mut self, ordinal: u64) -> u64 {
        self.ordinals.push(ordinal);
        self.next += 256;
        self.next
    }
}

/// Same size, height, key count, and the same descent and record for
/// every key in `0..key_space`.
fn assert_same_btree(new: &BPlusTree, old: &old_btree::BPlusTree, key_space: u64) {
    assert_eq!(new.len(), old.len(), "len");
    assert_eq!(new.height(), old.height(), "height");
    assert_eq!(new.validate(), old.validate(), "leaf-chain count");
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for key in 0..key_space {
        a.clear();
        b.clear();
        let (ra, rb) = (new.lookup_trace(key, &mut a), old.lookup_trace(key, &mut b));
        assert_eq!(ra, rb, "record of key {key}");
        assert_eq!(a, b, "descent to key {key}");
    }
}

/// Random insert / remove / churn / lookup / scan streams, biased per
/// case from insert-heavy (splits) to remove-heavy (borrows, merges and
/// root collapse): every result, trace and `alloc` call agrees with the
/// `Vec`-node oracle.
/// One B+-tree under test and its oracle, each with its own logged
/// allocator.
struct BTreePair<'a> {
    new: &'a mut BPlusTree,
    old: &'a mut old_btree::BPlusTree,
    new_alloc: &'a mut LoggedAlloc,
    old_alloc: &'a mut LoggedAlloc,
}

impl BTreePair<'_> {
    /// One random insert (`insert_weight` times as likely as each other
    /// op), remove, churn or scan of a key in `0..key_space` on both
    /// trees; every result and trace must agree.
    fn step(&mut self, g: &mut TestRng, key_space: u64, insert_weight: u32, step: usize) {
        let BTreePair {
            new,
            old,
            new_alloc,
            old_alloc,
        } = self;
        let key = g.u64_in(0..key_space);
        let op = g.u32_in(0..insert_weight + 4);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        if op < insert_weight {
            let record = g.any_u64();
            assert_eq!(
                new.insert(key, record, &mut |o| new_alloc.alloc(o)),
                old.insert(key, record, &mut |o| old_alloc.alloc(o)),
                "insert {key} at step {step}"
            );
        } else if op < insert_weight + 2 {
            assert_eq!(
                new.remove(key),
                old.remove(key),
                "remove {key} at step {step}"
            );
        } else if op == insert_weight + 2 {
            // Churn, as `Masstree::fill_job` does it.
            if let Some(record) = new.remove(key) {
                assert_eq!(old.remove(key), Some(record), "churn {key} at step {step}");
                new.insert(key, record, &mut |o| new_alloc.alloc(o));
                old.insert(key, record, &mut |o| old_alloc.alloc(o));
            }
        } else {
            let count = g.usize_in(1..40);
            let (mut recs_a, mut recs_b) = (Vec::new(), Vec::new());
            new.scan_trace_into(key, count, &mut a, &mut recs_a);
            old.scan_trace_into(key, count, &mut b, &mut recs_b);
            assert_eq!(recs_a, recs_b, "scan of {count} from {key} at step {step}");
            assert_eq!(a, b, "scan trace of {count} from {key} at step {step}");
            a.clear();
            b.clear();
        }
        assert_eq!(new.lookup_trace(key, &mut a), old.lookup_trace(key, &mut b));
        assert_eq!(a, b, "descent to {key} at step {step}");
    }
}

#[test]
fn bplus_tree_matches_vec_node_oracle() {
    prop_check!(cases: 48, |g| {
        let key_space = g.u64_in(1..3_000);
        let steps = g.usize_in(1..3_000);
        let insert_weight = g.u32_in(1..8);
        let (mut new_alloc, mut old_alloc) = (LoggedAlloc::default(), LoggedAlloc::default());
        let mut new = BPlusTree::new(&mut |o| new_alloc.alloc(o));
        let mut old = old_btree::BPlusTree::new(&mut |o| old_alloc.alloc(o));
        let mut pair = BTreePair {
            new: &mut new,
            old: &mut old,
            new_alloc: &mut new_alloc,
            old_alloc: &mut old_alloc,
        };
        for step in 0..steps {
            pair.step(g, key_space, insert_weight, step);
        }
        assert_eq!(new_alloc.ordinals, old_alloc.ordinals, "alloc call sequence");
        assert_same_btree(&new, &old, key_space);
    });
}

/// Replays a Masstree/Silo build (records and nodes interleaved on one
/// scattered allocator) into the oracle.
fn oracle_engine_index(params: &WorkloadParams, salt: u64) -> old_btree::BPlusTree {
    let mut alloc = SimAlloc::scattered(AddressSpace::new(params.dataset_bytes), salt);
    let mut tree = old_btree::BPlusTree::new(&mut |_| alloc.alloc(256));
    for key in 0..params.num_records() {
        let record = alloc.alloc(params.record_bytes);
        tree.insert(key, record, &mut |_| alloc.alloc(256));
    }
    tree
}

#[test]
fn masstree_and_silo_indexes_match_oracle_builds() {
    let params = WorkloadParams::tiny_for_tests();
    let n = params.num_records();
    for seed in [2u64, 0xE17] {
        let masstree = Masstree::new(&params, seed);
        assert_same_btree(
            masstree.tree(),
            &oracle_engine_index(&params, seed ^ 0x3AE),
            n,
        );
        let silo = Silo::new(&params, seed);
        assert_same_dense_btree(
            silo.tree(),
            &oracle_engine_index(&params, seed ^ 0x51_10),
            n,
        );
    }
}

/// Silo's frozen index against the oracle's build of the same keys: same
/// height, and the same record and descent for every key and for keys
/// past the end.
fn assert_same_dense_btree(new: &DenseBPlusTree, old: &old_btree::BPlusTree, n: u64) {
    assert_eq!(new.len(), old.len(), "len");
    assert_eq!(new.height(), old.height(), "height");
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for key in 0..n + 3 {
        a.clear();
        b.clear();
        let (ra, rb) = (new.lookup_trace(key, &mut a), old.lookup_trace(key, &mut b));
        assert_eq!(ra, rb, "record of key {key}");
        assert_eq!(a, b, "descent to key {key}");
    }
}

/// The op streams above, on two clones of the Masstree engine's index,
/// as forks take them (DESIGN.md §18): interleaved steps, each clone
/// against its own copy of the oracle build. The clones copy the nodes
/// they write, so the engine's index must still be the untouched build.
#[test]
fn bplus_tree_forks_match_oracle() {
    let params = WorkloadParams::tiny_for_tests();
    let n = params.num_records();
    let engine = Masstree::new(&params, 4);
    let built = oracle_engine_index(&params, 4 ^ 0x3AE);
    prop_check!(cases: 6, |g| {
        let mut forks = [engine.tree().clone(), engine.tree().clone()];
        let mut oracles = [built.clone(), built.clone()];
        let mut allocs: [[LoggedAlloc; 2]; 2] = Default::default();
        let insert_weight = g.u32_in(1..8);
        for step in 0..g.usize_in(1..3_000) {
            let side = g.usize_in(0..2);
            let [new_alloc, old_alloc] = &mut allocs[side];
            BTreePair {
                new: &mut forks[side],
                old: &mut oracles[side],
                new_alloc,
                old_alloc,
            }
            .step(g, n, insert_weight, step);
        }
        for side in 0..2 {
            let [new_alloc, old_alloc] = &allocs[side];
            assert_eq!(new_alloc.ordinals, old_alloc.ordinals, "alloc call sequence");
            assert_same_btree(&forks[side], &oracles[side], n);
        }
    });
    assert_same_btree(engine.tree(), &built, n);
}

/// The engine's job stream equals the oracle engine's. Every lookup walks
/// its chain up to its key, so this covers the chains' order and node
/// addresses.
#[test]
fn hash_table_matches_vec_chain_oracle() {
    for params in [
        WorkloadParams::tiny_for_tests(),
        WorkloadParams::tiny_for_tests().with_dataset_bytes(3 << 20),
    ] {
        let mut old = OldHashTable::new(&params);
        let mut new = HashTable::new(&params, 5);
        let (mut r_old, mut r_new) = (SimRng::new(9), SimRng::new(9));
        let (mut want, mut got) = (JobBuf::new(), JobBuf::new());
        for i in 0..300 {
            old.fill_job(&mut want, &mut r_old);
            new.fill_job(&mut got, &mut r_new);
            assert_eq!(got, want, "job {i}");
        }
    }
}
