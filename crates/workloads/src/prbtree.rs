//! Persistent red-black tree workload (Table III: 2-10 stores/tx).
//!
//! A CLRS-style red-black tree whose nodes live in the simulated home
//! region; every pointer chase is a timed load and every mutation
//! (including rotations and recoloring during insert fixup) is a timed
//! transactional store, so the stores-per-transaction naturally vary with
//! rebalancing — the 2-10 range Table III lists.

use engines::system::System;
use simcore::{CoreId, PAddr, SimRng};

use crate::shadow::Shadow;
use crate::spec::WorkloadSpec;
use crate::TxWorkload;

const NIL: u64 = 0;
const BLACK: u64 = 0;
const RED: u64 = 1;

// Node word offsets.
const KEY: u64 = 0;
const LEFT: u64 = 8;
const RIGHT: u64 = 16;
const PARENT: u64 = 24;
const COLOR: u64 = 32;
const VALUE: u64 = 40;

/// The persistent red-black-tree benchmark.
#[derive(Debug)]
pub struct PRbTree {
    spec: WorkloadSpec,
    pool: PAddr,
    node_bytes: u64,
    next_node: u64,
    root_meta: PAddr,
    root: u64,
    rng: SimRng,
    /// Every committed `(key, value)`, in key order.
    shadow: Shadow,
    version: u64,
}

impl PRbTree {
    /// Creates the workload from its spec.
    pub fn new(spec: WorkloadSpec, stream: u64) -> Self {
        PRbTree {
            spec,
            pool: PAddr(0),
            node_bytes: spec.item_bytes.max(64),
            next_node: 0,
            root_meta: PAddr(0),
            root: NIL,
            rng: SimRng::seed(spec.seed ^ 0xB7EE).fork(stream),
            shadow: Shadow::default(),
            version: 0,
        }
    }

    fn get(&self, sys: &mut System, core: CoreId, n: u64, field: u64) -> u64 {
        debug_assert_ne!(n, NIL, "field read of NIL");
        sys.load_u64(core, PAddr(n + field))
    }

    fn set(&self, sys: &mut System, core: CoreId, n: u64, field: u64, v: u64) {
        debug_assert_ne!(n, NIL, "field write of NIL");
        sys.store_u64(core, PAddr(n + field), v);
    }

    fn color(&self, sys: &mut System, core: CoreId, n: u64) -> u64 {
        if n == NIL {
            BLACK
        } else {
            self.get(sys, core, n, COLOR)
        }
    }

    fn set_root(&mut self, sys: &mut System, core: CoreId, n: u64) {
        self.root = n;
        sys.store_u64(core, self.root_meta, n);
    }

    fn alloc_node(&mut self) -> Option<u64> {
        if self.next_node >= self.spec.items {
            return None;
        }
        let addr = self.pool.0 + self.next_node * self.node_bytes;
        self.next_node += 1;
        Some(addr)
    }

    fn rotate_left(&mut self, sys: &mut System, core: CoreId, x: u64) {
        let y = self.get(sys, core, x, RIGHT);
        let yl = self.get(sys, core, y, LEFT);
        self.set(sys, core, x, RIGHT, yl);
        if yl != NIL {
            self.set(sys, core, yl, PARENT, x);
        }
        let xp = self.get(sys, core, x, PARENT);
        self.set(sys, core, y, PARENT, xp);
        if xp == NIL {
            self.set_root(sys, core, y);
        } else if self.get(sys, core, xp, LEFT) == x {
            self.set(sys, core, xp, LEFT, y);
        } else {
            self.set(sys, core, xp, RIGHT, y);
        }
        self.set(sys, core, y, LEFT, x);
        self.set(sys, core, x, PARENT, y);
    }

    fn rotate_right(&mut self, sys: &mut System, core: CoreId, x: u64) {
        let y = self.get(sys, core, x, LEFT);
        let yr = self.get(sys, core, y, RIGHT);
        self.set(sys, core, x, LEFT, yr);
        if yr != NIL {
            self.set(sys, core, yr, PARENT, x);
        }
        let xp = self.get(sys, core, x, PARENT);
        self.set(sys, core, y, PARENT, xp);
        if xp == NIL {
            self.set_root(sys, core, y);
        } else if self.get(sys, core, xp, RIGHT) == x {
            self.set(sys, core, xp, RIGHT, y);
        } else {
            self.set(sys, core, xp, LEFT, y);
        }
        self.set(sys, core, y, RIGHT, x);
        self.set(sys, core, x, PARENT, y);
    }

    fn insert_fixup(&mut self, sys: &mut System, core: CoreId, mut z: u64) {
        while z != self.root {
            let zp = self.get(sys, core, z, PARENT);
            if self.color(sys, core, zp) == BLACK {
                break;
            }
            let zpp = self.get(sys, core, zp, PARENT);
            if self.get(sys, core, zpp, LEFT) == zp {
                let y = self.get(sys, core, zpp, RIGHT);
                if self.color(sys, core, y) == RED {
                    self.set(sys, core, zp, COLOR, BLACK);
                    self.set(sys, core, y, COLOR, BLACK);
                    self.set(sys, core, zpp, COLOR, RED);
                    z = zpp;
                } else {
                    if self.get(sys, core, zp, RIGHT) == z {
                        z = zp;
                        self.rotate_left(sys, core, z);
                    }
                    let zp = self.get(sys, core, z, PARENT);
                    let zpp = self.get(sys, core, zp, PARENT);
                    self.set(sys, core, zp, COLOR, BLACK);
                    self.set(sys, core, zpp, COLOR, RED);
                    self.rotate_right(sys, core, zpp);
                }
            } else {
                let y = self.get(sys, core, zpp, LEFT);
                if self.color(sys, core, y) == RED {
                    self.set(sys, core, zp, COLOR, BLACK);
                    self.set(sys, core, y, COLOR, BLACK);
                    self.set(sys, core, zpp, COLOR, RED);
                    z = zpp;
                } else {
                    if self.get(sys, core, zp, LEFT) == z {
                        z = zp;
                        self.rotate_right(sys, core, z);
                    }
                    let zp = self.get(sys, core, z, PARENT);
                    let zpp = self.get(sys, core, zp, PARENT);
                    self.set(sys, core, zp, COLOR, BLACK);
                    self.set(sys, core, zpp, COLOR, RED);
                    self.rotate_left(sys, core, zpp);
                }
            }
        }
        let root = self.root;
        if self.color(sys, core, root) == RED {
            self.set(sys, core, root, COLOR, BLACK);
        }
    }

    /// Inserts (or updates) `key` within the open transaction.
    fn insert(&mut self, sys: &mut System, core: CoreId, key: u64, value: u64) {
        let mut parent = NIL;
        let mut cur = self.root;
        while cur != NIL {
            let k = self.get(sys, core, cur, KEY);
            if k == key {
                self.set(sys, core, cur, VALUE, value);
                self.shadow.upsert(key, value);
                return;
            }
            parent = cur;
            cur = if key < k {
                self.get(sys, core, cur, LEFT)
            } else {
                self.get(sys, core, cur, RIGHT)
            };
        }
        let Some(z) = self.alloc_node() else {
            return; // pool exhausted: treated as a no-op update
        };
        self.set(sys, core, z, KEY, key);
        self.set(sys, core, z, VALUE, value);
        self.set(sys, core, z, LEFT, NIL);
        self.set(sys, core, z, RIGHT, NIL);
        self.set(sys, core, z, PARENT, parent);
        self.set(sys, core, z, COLOR, RED);
        if parent == NIL {
            self.set_root(sys, core, z);
        } else if key < self.get(sys, core, parent, KEY) {
            self.set(sys, core, parent, LEFT, z);
        } else {
            self.set(sys, core, parent, RIGHT, z);
        }
        self.insert_fixup(sys, core, z);
        self.shadow.upsert(key, value);
    }

    /// Checks the red-black invariants via untimed reads; returns the
    /// number of violations.
    pub fn check_invariants(&self, sys: &System) -> usize {
        fn walk(sys: &System, n: u64) -> Result<usize, usize> {
            if n == NIL {
                return Ok(1);
            }
            let color = sys.peek_u64(PAddr(n + COLOR));
            let l = sys.peek_u64(PAddr(n + LEFT));
            let r = sys.peek_u64(PAddr(n + RIGHT));
            if color == RED {
                for c in [l, r] {
                    if c != NIL && sys.peek_u64(PAddr(c + COLOR)) == RED {
                        return Err(1); // red-red violation
                    }
                }
            }
            let bl = walk(sys, l)?;
            let br = walk(sys, r)?;
            if bl != br {
                return Err(1); // black-height violation
            }
            Ok(bl + usize::from(color == BLACK))
        }
        match walk(sys, self.root) {
            Ok(_) => 0,
            Err(n) => n,
        }
    }
}

impl TxWorkload for PRbTree {
    fn name(&self) -> &'static str {
        "rbtree"
    }

    fn setup(&mut self, sys: &mut System, core: CoreId) {
        self.root_meta = sys.alloc(64);
        self.pool = sys.alloc(self.spec.items * self.node_bytes + 64);
        // Node addresses must be nonzero; the +64 alloc pad plus the heap's
        // skipped null page guarantee that.
        sys.write_initial(self.root_meta, &NIL.to_le_bytes());
        // Pre-populate half the keys (as committed transactions, so every
        // engine starts from an identical durable state).
        let n = self.spec.items / 2;
        for i in 0..n {
            let key = i * 2 + 1;
            let tx = sys.tx_begin(core);
            self.insert(sys, core, key, key);
            sys.tx_end(core, tx);
        }
    }

    fn run_tx(&mut self, sys: &mut System, core: CoreId) {
        let tx = sys.tx_begin(core);
        self.version += 1;
        let value = self.version.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        if self.next_node < self.spec.items && self.rng.chance(0.5) {
            let key = self.rng.next_u64() | 1;
            self.insert(sys, core, key, value);
        } else {
            // Update an existing key (uniform over the shadow key space).
            let idx = self.rng.below(self.shadow.len() as u64);
            let key = self.shadow.key_at(idx as usize);
            self.insert(sys, core, key, value);
        }
        sys.tx_end(core, tx);
    }

    fn verify(&self, sys: &System) -> usize {
        // In-order traversal must reproduce the shadow model exactly.
        let mut got = Vec::with_capacity(self.shadow.len());
        let mut stack = Vec::new();
        let mut cur = self.root;
        while cur != NIL || !stack.is_empty() {
            while cur != NIL {
                stack.push(cur);
                cur = sys.peek_u64(PAddr(cur + LEFT));
            }
            let n = stack.pop().expect("nonempty");
            got.push((sys.peek_u64(PAddr(n + KEY)), sys.peek_u64(PAddr(n + VALUE))));
            cur = sys.peek_u64(PAddr(n + RIGHT));
        }
        let mismatches = got
            .iter()
            .zip(self.shadow.iter())
            .filter(|(a, b)| a != b)
            .count()
            + got.len().abs_diff(self.shadow.len());
        mismatches + self.check_invariants(sys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engines::native::NativeEngine;
    use simcore::SimConfig;

    #[test]
    fn inserts_updates_keep_invariants() {
        let cfg = SimConfig::small_for_tests();
        let mut s = System::new(Box::new(NativeEngine::new(&cfg)), &cfg);
        let mut w = PRbTree::new(
            WorkloadSpec {
                items: 128,
                ..WorkloadSpec::small(crate::WorkloadKind::RbTree)
            },
            4,
        );
        w.setup(&mut s, CoreId(0));
        assert_eq!(w.verify(&s), 0);
        for _ in 0..200 {
            w.run_tx(&mut s, CoreId(0));
        }
        assert_eq!(w.verify(&s), 0);
        assert!(w.shadow.len() > 64);
    }
}
