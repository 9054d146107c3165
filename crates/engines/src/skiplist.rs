//! A deterministic skip list.
//!
//! LSNVMM keeps its address-mapping index in a tree searched in `O(log N)`
//! memory accesses per read (§II-B); the paper's authors implement it as a
//! skip list, and so do we. Searches report the number of node visits so the
//! LSM engine can charge a *mechanistic* lookup cost — deeper index, slower
//! reads — instead of a constant.
//!
//! Node heights are derived from a hash of the key, so a given key set
//! always produces the same structure (determinism requirement, DESIGN.md
//! §6).
//!
//! The node layout keeps `key` and the low-level links in the same cache
//! line: every hop of a search reads exactly those two fields of one node,
//! so splitting them into parallel arrays (tried) costs an extra miss per
//! hop rather than saving one.

use simcore::LineMap;

const MAX_LEVEL: usize = 24;
const NIL: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct Node {
    key: u64,
    value: u64,
    next: [u32; MAX_LEVEL],
    height: u8,
}

/// A deterministic skip list mapping `u64` keys to `u64` values.
///
/// Alongside the list itself, a hash index maps every key to its node. The
/// *list* models the hardware the LSM engine charges for — [`get`]
/// (`SkipList::get`) always performs the real walk, up to the visit cap the
/// caller charges, and reports its visit count. The index only
/// short-circuits what is never charged: value updates of existing keys
/// ([`insert`](SkipList::insert)), pure membership tests
/// ([`contains`](SkipList::contains)) and the value `get` returns. None of
/// them changes the list structure a later `get` walks, so charged visit
/// counts are unaffected.
#[derive(Clone, Debug)]
pub struct SkipList {
    head: [u32; MAX_LEVEL],
    nodes: Vec<Node>,
    free: Vec<u32>,
    by_key: LineMap<u32>,
    len: usize,
    level: usize,
}

impl Default for SkipList {
    fn default() -> Self {
        Self::new()
    }
}

fn height_for(key: u64) -> usize {
    // SplitMix64 finalizer; count trailing ones for a geometric height.
    let mut h = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    ((h.trailing_ones() as usize) + 1).min(MAX_LEVEL)
}

impl SkipList {
    /// Creates an empty skip list.
    pub fn new() -> Self {
        SkipList {
            head: [NIL; MAX_LEVEL],
            nodes: Vec::new(),
            free: Vec::new(),
            by_key: LineMap::with_capacity(64, NIL),
            len: 0,
            level: 1,
        }
    }

    /// O(1) membership test via the key index (no walk, no visit count —
    /// for callers that never charge the lookup).
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.by_key.contains(key)
    }

    #[inline]
    fn node(&self, idx: u32) -> &Node {
        &self.nodes[idx as usize]
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Walks toward `key`, filling `preds` with the predecessor at each
    /// level; returns (node index or NIL, nodes visited).
    fn find(&self, key: u64, preds: &mut [u32; MAX_LEVEL]) -> (u32, u64) {
        let mut visits = 0u64;
        let mut cur = NIL; // NIL predecessor means "head"
        for lvl in (0..self.level).rev() {
            let mut next = if cur == NIL {
                self.head[lvl]
            } else {
                self.node(cur).next[lvl]
            };
            while next != NIL && self.node(next).key < key {
                visits += 1;
                cur = next;
                next = self.node(cur).next[lvl];
            }
            visits += 1;
            preds[lvl] = cur;
        }
        let candidate = if cur == NIL {
            self.head[0]
        } else {
            self.node(cur).next[0]
        };
        if candidate != NIL && self.node(candidate).key == key {
            (candidate, visits)
        } else {
            (NIL, visits)
        }
    }

    /// Looks up `key`, returning its value and the number of node visits the
    /// search needed, counted up to `cap`.
    ///
    /// The walk is [`find`]'s, minus the predecessor bookkeeping only
    /// mutation needs, and it stops as soon as it has made `cap` visits.
    /// Visits only grow along a walk, so the count returned is exactly the
    /// full walk's count clamped to `cap`. The value comes from the key
    /// index, since a capped walk may stop before reaching the node.
    pub fn get(&self, key: u64, cap: u64) -> (Option<u64>, u64) {
        let value = self.by_key.get(key).map(|&idx| self.node(idx).value);
        let mut visits = 0u64;
        let mut cur = NIL;
        for lvl in (0..self.level).rev() {
            let mut next = if cur == NIL {
                self.head[lvl]
            } else {
                self.node(cur).next[lvl]
            };
            while next != NIL && self.node(next).key < key {
                visits += 1;
                if visits >= cap {
                    return (value, cap);
                }
                cur = next;
                next = self.node(cur).next[lvl];
            }
            visits += 1;
            if visits >= cap {
                return (value, cap);
            }
        }
        (value, visits)
    }

    /// Inserts or updates `key`, returning the previous value if any.
    pub fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        debug_assert_ne!(key, u64::MAX, "u64::MAX is reserved");
        // Updates of existing keys don't change the list structure, so the
        // predecessor walk is skipped entirely.
        if let Some(&existing) = self.by_key.get(key) {
            let old = self.nodes[existing as usize].value;
            self.nodes[existing as usize].value = value;
            return Some(old);
        }
        let mut preds = [NIL; MAX_LEVEL];
        let (existing, _) = self.find(key, &mut preds);
        debug_assert_eq!(existing, NIL, "key index out of sync");
        let height = height_for(key);
        if height > self.level {
            self.level = height;
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = Node {
                    key,
                    value,
                    next: [NIL; MAX_LEVEL],
                    height: height as u8,
                };
                i
            }
            None => {
                self.nodes.push(Node {
                    key,
                    value,
                    next: [NIL; MAX_LEVEL],
                    height: height as u8,
                });
                (self.nodes.len() - 1) as u32
            }
        };
        for (lvl, &pred) in preds.iter().enumerate().take(height) {
            if pred == NIL {
                self.nodes[idx as usize].next[lvl] = self.head[lvl];
                self.head[lvl] = idx;
            } else {
                let succ = self.node(pred).next[lvl];
                self.nodes[idx as usize].next[lvl] = succ;
                self.nodes[pred as usize].next[lvl] = idx;
            }
        }
        self.by_key.insert(key, idx);
        self.len += 1;
        None
    }

    /// Inserts a batch of `(key, value)` pairs sorted by strictly ascending
    /// key, in one left-to-right sweep.
    ///
    /// Instead of restarting every predecessor walk from the head (B full
    /// `O(log N)` walks for a B-key batch), the walk keeps a finger: each
    /// key resumes from the predecessor frontier the previous key left
    /// behind, costing `O(log d)` for a distance-`d` hop. Commit batches
    /// are sorted and clustered, so this collapses most of the per-insert
    /// walk. The resulting list structure is identical to sequential
    /// [`insert`](SkipList::insert) calls (node heights depend only on the
    /// key), and updates of existing keys short-circuit through the key
    /// index exactly the same way.
    ///
    /// # Panics
    ///
    /// Debug builds assert that keys are strictly ascending.
    pub fn insert_sorted_batch(&mut self, batch: &[(u64, u64)]) {
        let mut preds = [NIL; MAX_LEVEL];
        let mut last_key = None;
        for &(key, value) in batch {
            debug_assert_ne!(key, u64::MAX, "u64::MAX is reserved");
            debug_assert!(last_key.is_none_or(|k| k < key), "batch must ascend");
            last_key = Some(key);
            if let Some(&existing) = self.by_key.get(key) {
                self.nodes[existing as usize].value = value;
                continue;
            }
            // Finger search: refine from the top level down. Each level
            // starts from whichever valid predecessor is further right —
            // the frontier left by the previous key, or the position the
            // level above descended to (a node at level l+1 also links at
            // level l).
            let mut carry = NIL;
            for lvl in (0..self.level).rev() {
                let mut cur = match (preds[lvl], carry) {
                    (NIL, c) => c,
                    (p, NIL) => p,
                    (p, c) => {
                        if self.node(c).key > self.node(p).key {
                            c
                        } else {
                            p
                        }
                    }
                };
                let mut next = if cur == NIL {
                    self.head[lvl]
                } else {
                    self.node(cur).next[lvl]
                };
                while next != NIL && self.node(next).key < key {
                    cur = next;
                    next = self.node(cur).next[lvl];
                }
                preds[lvl] = cur;
                carry = cur;
            }
            let height = height_for(key);
            if height > self.level {
                self.level = height;
            }
            let idx = match self.free.pop() {
                Some(i) => {
                    self.nodes[i as usize] = Node {
                        key,
                        value,
                        next: [NIL; MAX_LEVEL],
                        height: height as u8,
                    };
                    i
                }
                None => {
                    self.nodes.push(Node {
                        key,
                        value,
                        next: [NIL; MAX_LEVEL],
                        height: height as u8,
                    });
                    (self.nodes.len() - 1) as u32
                }
            };
            for (lvl, pred_slot) in preds.iter_mut().enumerate().take(height) {
                let pred = *pred_slot;
                if pred == NIL {
                    self.nodes[idx as usize].next[lvl] = self.head[lvl];
                    self.head[lvl] = idx;
                } else {
                    let succ = self.node(pred).next[lvl];
                    self.nodes[idx as usize].next[lvl] = succ;
                    self.nodes[pred as usize].next[lvl] = idx;
                }
                // The new node is the rightmost key < any later batch key:
                // advance the frontier onto it.
                *pred_slot = idx;
            }
            self.by_key.insert(key, idx);
            self.len += 1;
        }
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        self.by_key.remove(key)?;
        let mut preds = [NIL; MAX_LEVEL];
        let (node, _) = self.find(key, &mut preds);
        if node == NIL {
            return None;
        }
        let height = self.node(node).height as usize;
        for (lvl, &pred) in preds.iter().enumerate().take(height) {
            let succ = self.node(node).next[lvl];
            if pred == NIL {
                if self.head[lvl] == node {
                    self.head[lvl] = succ;
                }
            } else if self.node(pred).next[lvl] == node {
                self.nodes[pred as usize].next[lvl] = succ;
            }
        }
        self.len -= 1;
        self.free.push(node);
        Some(self.node(node).value)
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.head = [NIL; MAX_LEVEL];
        self.nodes.clear();
        self.free.clear();
        self.by_key.clear();
        self.len = 0;
        self.level = 1;
    }

    /// Iterates entries in key order (for recovery verification).
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut cur = self.head[0];
        std::iter::from_fn(move || {
            if cur == NIL {
                None
            } else {
                let n = self.node(cur);
                cur = n.next[0];
                Some((n.key, n.value))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut s = SkipList::new();
        assert_eq!(s.insert(5, 50), None);
        assert_eq!(s.insert(5, 55), Some(50));
        assert_eq!(s.get(5, u64::MAX).0, Some(55));
        assert_eq!(s.remove(5), Some(55));
        assert_eq!(s.get(5, u64::MAX).0, None);
        assert!(s.is_empty());
    }

    #[test]
    fn ordered_iteration() {
        let mut s = SkipList::new();
        for k in [9u64, 1, 7, 3, 5] {
            s.insert(k, k * 10);
        }
        let keys: Vec<u64> = s.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn visits_grow_with_size() {
        let mut small = SkipList::new();
        let mut big = SkipList::new();
        for k in 0..16u64 {
            small.insert(k * 7919, k);
        }
        for k in 0..4096u64 {
            big.insert(k * 7919, k);
        }
        let avg = |s: &SkipList, n: u64| -> f64 {
            let total: u64 = (0..n).map(|k| s.get(k * 7919, u64::MAX).1).sum();
            total as f64 / n as f64
        };
        let a_small = avg(&small, 16);
        let a_big = avg(&big, 4096);
        assert!(
            a_big > a_small * 1.5,
            "expected larger index to cost more: {a_small} vs {a_big}"
        );
        assert!(a_big < 80.0, "search should stay logarithmic: {a_big}");
    }

    #[test]
    fn get_visits_match_find_visits() {
        // A capped walk must count exactly the full walk's visits clamped
        // to the cap, and still return the value; u64::MAX is uncapped.
        let mut preds = [NIL; MAX_LEVEL];
        for size in [0u64, 1, 512, 4096] {
            let mut s = SkipList::new();
            for k in 0..size {
                s.insert(k * 31 + 5, k);
            }
            // Present keys, the gaps between them, and both ends.
            let probes = (0..size * 31 + 40).step_by(7).chain([u64::MAX - 1]);
            for probe in probes {
                let (node, full) = s.find(probe, &mut preds);
                let want = (node != NIL).then(|| (probe - 5) / 31);
                for cap in (1..=40).chain([u64::MAX]) {
                    let (value, visits) = s.get(probe, cap);
                    assert_eq!(visits, full.min(cap), "size {size} probe {probe} cap {cap}");
                    assert_eq!(value, want, "size {size} probe {probe} cap {cap}");
                }
            }
        }
    }

    #[test]
    fn contains_tracks_membership() {
        let mut s = SkipList::new();
        assert!(!s.contains(7));
        s.insert(7, 1);
        assert!(s.contains(7));
        s.insert(7, 2); // update, not re-link
        assert!(s.contains(7));
        s.remove(7);
        assert!(!s.contains(7));
        s.insert(7, 3);
        s.clear();
        assert!(!s.contains(7));
    }

    #[test]
    fn dense_reuse_after_remove() {
        let mut s = SkipList::new();
        for k in 0..100u64 {
            s.insert(k, k);
        }
        for k in 0..100u64 {
            s.remove(k);
        }
        let nodes_before = s.nodes.len();
        for k in 100..200u64 {
            s.insert(k, k);
        }
        assert_eq!(s.nodes.len(), nodes_before, "free list must be reused");
        assert_eq!(s.len(), 100);
    }

    #[test]
    fn agrees_with_btreemap() {
        use std::collections::BTreeMap;
        let mut s = SkipList::new();
        let mut m = BTreeMap::new();
        let mut x = 12345u64;
        for _ in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (x >> 33) % 512;
            match (x >> 1) % 3 {
                0 => {
                    assert_eq!(s.insert(k, x), m.insert(k, x));
                }
                1 => {
                    assert_eq!(s.remove(k), m.remove(&k));
                }
                _ => {
                    assert_eq!(s.get(k, u64::MAX).0, m.get(&k).copied());
                }
            }
        }
        let got: Vec<_> = s.iter().collect();
        let want: Vec<_> = m.into_iter().collect();
        assert_eq!(got, want);
    }
}
