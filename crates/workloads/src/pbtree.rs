//! Persistent B-tree workload (Table III: 2-12 stores/tx).
//!
//! A CLRS B-tree (minimum degree 4: up to 7 keys per node) laid out in the
//! simulated home region, with proactive splits on the way down. Key
//! shifting during leaf insertion and node splits issue variable numbers of
//! transactional stores, giving the 2-12 stores/tx spread of Table III.

use engines::system::System;
use simcore::{CoreId, PAddr, SimRng};

use crate::shadow::Shadow;
use crate::spec::WorkloadSpec;
use crate::TxWorkload;

const T: u64 = 4; // minimum degree
const MAX_KEYS: u64 = 2 * T - 1; // 7
const NODE_BYTES: u64 = 192;

// Word offsets inside a node.
const COUNT: u64 = 0;
const LEAF: u64 = 8;
const KEYS: u64 = 16; // 7 words
const VALUES: u64 = 72; // 7 words
const CHILDREN: u64 = 128; // 8 words

/// The persistent B-tree benchmark.
#[derive(Debug)]
pub struct PBTree {
    spec: WorkloadSpec,
    pool: PAddr,
    node_bytes: u64,
    next_node: u64,
    max_nodes: u64,
    root: u64,
    root_meta: PAddr,
    rng: SimRng,
    /// Every committed `(key, value)`, in key order.
    shadow: Shadow,
    version: u64,
}

impl PBTree {
    /// Creates the workload from its spec.
    pub fn new(spec: WorkloadSpec, stream: u64) -> Self {
        PBTree {
            spec,
            pool: PAddr(0),
            node_bytes: NODE_BYTES.max(spec.item_bytes),
            next_node: 0,
            max_nodes: spec.items.max(16),
            root: 0,
            root_meta: PAddr(0),
            rng: SimRng::seed(spec.seed ^ 0xB433).fork(stream),
            shadow: Shadow::default(),
            version: 0,
        }
    }

    fn get(&self, sys: &mut System, core: CoreId, n: u64, off: u64) -> u64 {
        sys.load_u64(core, PAddr(n + off))
    }

    fn set(&self, sys: &mut System, core: CoreId, n: u64, off: u64, v: u64) {
        sys.store_u64(core, PAddr(n + off), v);
    }

    fn key(&self, sys: &mut System, core: CoreId, n: u64, i: u64) -> u64 {
        self.get(sys, core, n, KEYS + i * 8)
    }

    fn child(&self, sys: &mut System, core: CoreId, n: u64, i: u64) -> u64 {
        self.get(sys, core, n, CHILDREN + i * 8)
    }

    fn alloc_node(&mut self, sys: &mut System, core: CoreId, leaf: bool) -> u64 {
        assert!(
            self.next_node < self.max_nodes,
            "B-tree node pool exhausted"
        );
        let n = self.pool.0 + self.next_node * self.node_bytes;
        self.next_node += 1;
        self.set(sys, core, n, COUNT, 0);
        self.set(sys, core, n, LEAF, u64::from(leaf));
        n
    }

    /// Whether another insert could still be served without exhausting the
    /// node pool (worst case: one split per level plus a root split).
    pub fn has_room(&self) -> bool {
        self.next_node + 8 < self.max_nodes
    }

    /// Splits full child `i` of non-full node `x`.
    fn split_child(&mut self, sys: &mut System, core: CoreId, x: u64, i: u64) {
        let y = self.child(sys, core, x, i);
        let y_leaf = self.get(sys, core, y, LEAF) == 1;
        let z = self.alloc_node(sys, core, y_leaf);
        // Move the top T-1 keys/values (and T children) of y into z.
        for k in 0..(T - 1) {
            let kv = self.key(sys, core, y, k + T);
            let vv = self.get(sys, core, y, VALUES + (k + T) * 8);
            self.set(sys, core, z, KEYS + k * 8, kv);
            self.set(sys, core, z, VALUES + k * 8, vv);
        }
        if !y_leaf {
            for k in 0..T {
                let c = self.child(sys, core, y, k + T);
                self.set(sys, core, z, CHILDREN + k * 8, c);
            }
        }
        self.set(sys, core, z, COUNT, T - 1);
        self.set(sys, core, y, COUNT, T - 1);
        // Shift x's children/keys right and hoist y's median.
        let xc = self.get(sys, core, x, COUNT);
        let mut j = xc;
        while j > i {
            let c = self.child(sys, core, x, j);
            self.set(sys, core, x, CHILDREN + (j + 1) * 8, c);
            let kv = self.key(sys, core, x, j - 1);
            let vv = self.get(sys, core, x, VALUES + (j - 1) * 8);
            self.set(sys, core, x, KEYS + j * 8, kv);
            self.set(sys, core, x, VALUES + j * 8, vv);
            j -= 1;
        }
        self.set(sys, core, x, CHILDREN + (i + 1) * 8, z);
        let med_k = self.key(sys, core, y, T - 1);
        let med_v = self.get(sys, core, y, VALUES + (T - 1) * 8);
        self.set(sys, core, x, KEYS + i * 8, med_k);
        self.set(sys, core, x, VALUES + i * 8, med_v);
        self.set(sys, core, x, COUNT, xc + 1);
    }

    fn insert_nonfull(&mut self, sys: &mut System, core: CoreId, mut x: u64, key: u64, value: u64) {
        loop {
            let mut n = self.get(sys, core, x, COUNT);
            // Update in place if the key exists in this node.
            let mut i = 0;
            while i < n && key > self.key(sys, core, x, i) {
                i += 1;
            }
            if i < n && self.key(sys, core, x, i) == key {
                self.set(sys, core, x, VALUES + i * 8, value);
                return;
            }
            if self.get(sys, core, x, LEAF) == 1 {
                // Shift keys right and insert.
                let mut j = n;
                while j > i {
                    let kv = self.key(sys, core, x, j - 1);
                    let vv = self.get(sys, core, x, VALUES + (j - 1) * 8);
                    self.set(sys, core, x, KEYS + j * 8, kv);
                    self.set(sys, core, x, VALUES + j * 8, vv);
                    j -= 1;
                }
                self.set(sys, core, x, KEYS + i * 8, key);
                self.set(sys, core, x, VALUES + i * 8, value);
                self.set(sys, core, x, COUNT, n + 1);
                return;
            }
            let c = self.child(sys, core, x, i);
            if self.get(sys, core, c, COUNT) == MAX_KEYS {
                self.split_child(sys, core, x, i);
                n = self.get(sys, core, x, COUNT);
                let _ = n;
                if key > self.key(sys, core, x, i) {
                    x = self.child(sys, core, x, i + 1);
                } else if key == self.key(sys, core, x, i) {
                    self.set(sys, core, x, VALUES + i * 8, value);
                    return;
                } else {
                    x = self.child(sys, core, x, i);
                }
            } else {
                x = c;
            }
        }
    }

    /// Inserts or updates `key` inside the open transaction.
    fn insert(&mut self, sys: &mut System, core: CoreId, key: u64, value: u64) {
        if self.get(sys, core, self.root, COUNT) == MAX_KEYS {
            let old_root = self.root;
            let new_root = self.alloc_node(sys, core, false);
            self.set(sys, core, new_root, CHILDREN, old_root);
            self.root = new_root;
            sys.store_u64(core, self.root_meta, new_root);
            self.split_child(sys, core, new_root, 0);
        }
        let root = self.root;
        self.insert_nonfull(sys, core, root, key, value);
        self.shadow.upsert(key, value);
    }

    fn collect_inorder(&self, sys: &System, n: u64, out: &mut Vec<(u64, u64)>) {
        let count = sys.peek_u64(PAddr(n + COUNT));
        let leaf = sys.peek_u64(PAddr(n + LEAF)) == 1;
        for i in 0..count {
            if !leaf {
                self.collect_inorder(sys, sys.peek_u64(PAddr(n + CHILDREN + i * 8)), out);
            }
            out.push((
                sys.peek_u64(PAddr(n + KEYS + i * 8)),
                sys.peek_u64(PAddr(n + VALUES + i * 8)),
            ));
        }
        if !leaf {
            self.collect_inorder(sys, sys.peek_u64(PAddr(n + CHILDREN + count * 8)), out);
        }
    }
}

impl TxWorkload for PBTree {
    fn name(&self) -> &'static str {
        "btree"
    }

    fn setup(&mut self, sys: &mut System, core: CoreId) {
        self.root_meta = sys.alloc(64);
        self.pool = sys.alloc(self.max_nodes * self.node_bytes + 64);
        // The empty root must be durably initialized (its COUNT/LEAF words
        // are read by recovery-time traversals), so create it inside a
        // transaction like every other mutation.
        let tx = sys.tx_begin(core);
        let root = self.alloc_node(sys, core, true);
        sys.tx_end(core, tx);
        self.root = root;
        sys.write_initial(self.root_meta, &root.to_le_bytes());
        let n = self.spec.items / 2;
        for i in 0..n {
            let key = i * 2 + 1;
            let tx = sys.tx_begin(core);
            self.insert(sys, core, key, key);
            if !self.has_room() {
                sys.tx_end(core, tx);
                break;
            }
            sys.tx_end(core, tx);
        }
    }

    fn run_tx(&mut self, sys: &mut System, core: CoreId) {
        let tx = sys.tx_begin(core);
        self.version += 1;
        let value = self.version.wrapping_mul(0x2545_F491_4F6C_DD1D);
        if self.has_room() && self.rng.chance(0.4) {
            let key = self.rng.next_u64() | 1;
            self.insert(sys, core, key, value);
        } else {
            let idx = self.rng.below(self.shadow.len() as u64);
            let key = self.shadow.key_at(idx as usize);
            self.insert(sys, core, key, value);
        }
        sys.tx_end(core, tx);
    }

    fn verify(&self, sys: &System) -> usize {
        let mut got = Vec::with_capacity(self.shadow.len());
        self.collect_inorder(sys, self.root, &mut got);
        let sorted = got.windows(2).all(|w| w[0].0 < w[1].0);
        got.iter()
            .zip(self.shadow.iter())
            .filter(|(a, b)| a != b)
            .count()
            + got.len().abs_diff(self.shadow.len())
            + usize::from(!sorted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engines::native::NativeEngine;
    use simcore::SimConfig;

    #[test]
    fn inserts_splits_and_verifies() {
        let cfg = SimConfig::small_for_tests();
        let mut s = System::new(Box::new(NativeEngine::new(&cfg)), &cfg);
        let mut w = PBTree::new(
            WorkloadSpec {
                items: 256,
                ..WorkloadSpec::small(crate::WorkloadKind::BTree)
            },
            5,
        );
        w.setup(&mut s, CoreId(0));
        assert_eq!(w.verify(&s), 0);
        for _ in 0..300 {
            w.run_tx(&mut s, CoreId(0));
        }
        assert_eq!(w.verify(&s), 0);
        assert!(w.next_node > 10, "splits must have happened");
    }

    #[test]
    fn verify_counts_one_corrupt_value() {
        let cfg = SimConfig::small_for_tests();
        let mut s = System::new(Box::new(NativeEngine::new(&cfg)), &cfg);
        let mut w = PBTree::new(
            WorkloadSpec {
                items: 256,
                ..WorkloadSpec::small(crate::WorkloadKind::BTree)
            },
            5,
        );
        w.setup(&mut s, CoreId(0));
        for _ in 0..300 {
            w.run_tx(&mut s, CoreId(0));
        }
        // The root's first value; its key, and so the order, stays intact.
        let addr = PAddr(w.root + VALUES);
        let want = s.peek_u64(addr);
        s.write_initial(addr, &(!want).to_le_bytes());
        assert_eq!(w.verify(&s), 1);
    }
}
