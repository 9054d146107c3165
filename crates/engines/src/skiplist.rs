//! A deterministic skip list, used as a key set.
//!
//! LSNVMM keeps its address-mapping index in a tree searched in `O(log N)`
//! memory accesses per read (§II-B); the paper's authors implement it as a
//! skip list, and so do we. Searches report the number of node visits so the
//! LSM engine can charge a *mechanistic* lookup cost — deeper index, slower
//! reads — instead of a constant.
//!
//! The LSM engine only ever asks which lines the index holds and how long
//! the walk to a line is, so the list stores keys and no values.
//!
//! Node heights are derived from a hash of the key, so a given key set
//! always produces the same structure (determinism requirement, DESIGN.md
//! §6).
//!
//! Every node is a *tower* in one flat `u32` arena, `[key lo, key hi,
//! height, next[0..height]]`, named by its offset. A tower is only as tall
//! as its node (heights are geometric, mean 2), and its key sits next to
//! its low-level links: every hop of a search reads exactly those two
//! fields of one tower, so splitting them into parallel arrays (tried)
//! costs an extra miss per hop rather than saving one. A removed tower goes
//! on the free list for its height and is reused by the next insert of a
//! key of that height.

use simcore::LineMap;

const MAX_LEVEL: usize = 24;
const NIL: u32 = u32::MAX;

/// Tower words before the links: key lo, key hi, height.
const HEADER: usize = 3;

/// log2 of the visit memo's slot count: 4096 slots of 24 bytes, 96 KiB.
const MEMO_BITS: u32 = 12;

/// One memoized walk: the walk to `key` made `visits` visits and stopped
/// at level `stop`, cut short by its cap iff `capped`, when level `stop`'s
/// change counter read `stamp`.
#[derive(Clone, Copy, Debug)]
struct MemoEntry {
    key: u64,
    stamp: u64,
    visits: u32,
    stop: u8,
    capped: bool,
}

/// Change counters start at 1, so this entry never validates.
const MEMO_EMPTY: MemoEntry = MemoEntry {
    key: 0,
    stamp: 0,
    visits: 0,
    stop: 0,
    capped: false,
};

/// A deterministic skip list holding a set of `u64` keys.
///
/// Alongside the list itself, a hash index maps every key to its node. The
/// *list* models the hardware the LSM engine charges for:
/// [`visits`](SkipList::visits) reports the visit count of the real walk,
/// up to the cap the caller charges. The index only short-circuits what is
/// never charged: re-inserts of present keys and pure membership tests
/// ([`contains`](SkipList::contains)). Neither changes the list structure a
/// walk reads.
///
/// # The visit memo
///
/// `visits` remembers recent walks in a direct-mapped memo keyed by the
/// searched key, and answers from it while the walk provably cannot have
/// changed. Every level has a change counter; linking or unlinking a node of
/// height `h` bumps levels `0..h`, and [`clear`](SkipList::clear) bumps all
/// of them. A walk that stopped at level `L` read only links on levels
/// `≥ L` plus `self.level`. Only nodes taller than `L` sit on those levels,
/// and linking or unlinking such a node bumps level `L` too (a node of
/// height `h` is on every level below `h`); so does raising `self.level`,
/// whose new node is taller than every level a walk starts from. So the
/// walk is unchanged exactly while level `L`'s counter is, and an entry is
/// valid while the counter still reads its stamp. Inserting a node no
/// taller than `L` (most of them: heights are geometric) keeps the entry.
/// On every memo hit, debug builds check the entry against a fresh walk.
#[derive(Clone, Debug)]
pub struct SkipList {
    head: [u32; MAX_LEVEL],
    /// The tower arena (see the module documentation).
    towers: Vec<u32>,
    /// Per height `h`, the first free tower of height `h + 1` (NIL for
    /// none); a free tower's `next[0]` links to the next one.
    free: [u32; MAX_LEVEL],
    /// Every key's tower.
    by_key: LineMap<u32>,
    len: usize,
    level: usize,
    /// Per-level change counters (see "The visit memo").
    changes: [u64; MAX_LEVEL],
    memo: Vec<MemoEntry>,
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

#[inline]
fn memo_slot(key: u64) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - MEMO_BITS)) as usize
}

impl SkipList {
    /// Creates an empty skip list.
    pub fn new() -> Self {
        SkipList {
            head: [NIL; MAX_LEVEL],
            towers: Vec::new(),
            free: [NIL; MAX_LEVEL],
            by_key: LineMap::with_capacity(64, NIL),
            len: 0,
            level: 1,
            changes: [1; MAX_LEVEL],
            memo: vec![MEMO_EMPTY; 1 << MEMO_BITS],
        }
    }

    /// O(1) membership test via the key index (no walk, no visit count —
    /// for callers that never charge the lookup).
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.by_key.contains(key)
    }

    #[inline]
    fn key(&self, t: u32) -> u64 {
        let t = t as usize;
        u64::from(self.towers[t]) | u64::from(self.towers[t + 1]) << 32
    }

    #[inline]
    fn height(&self, t: u32) -> usize {
        self.towers[t as usize + 2] as usize
    }

    /// Tower `t`'s link on level `lvl`, which must be below its height.
    #[inline]
    fn next(&self, t: u32, lvl: usize) -> u32 {
        debug_assert!(lvl < self.height(t), "link above the tower");
        self.towers[t as usize + HEADER + lvl]
    }

    #[inline]
    fn set_next(&mut self, t: u32, lvl: usize, to: u32) {
        debug_assert!(lvl < self.height(t), "link above the tower");
        self.towers[t as usize + HEADER + lvl] = to;
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
    /// level; returns (tower or NIL, nodes visited).
    fn find(&self, key: u64, preds: &mut [u32; MAX_LEVEL]) -> (u32, u64) {
        let mut visits = 0u64;
        let mut cur = NIL; // NIL predecessor means "head"
        for lvl in (0..self.level).rev() {
            let mut next = if cur == NIL {
                self.head[lvl]
            } else {
                self.next(cur, lvl)
            };
            while next != NIL && self.key(next) < key {
                visits += 1;
                cur = next;
                next = self.next(cur, lvl);
            }
            visits += 1;
            preds[lvl] = cur;
        }
        let candidate = if cur == NIL {
            self.head[0]
        } else {
            self.next(cur, 0)
        };
        if candidate != NIL && self.key(candidate) == key {
            (candidate, visits)
        } else {
            (NIL, visits)
        }
    }

    /// The search walk toward `key`, stopped as soon as it has made `cap`
    /// visits: returns (visits, the level it stopped on).
    ///
    /// The walk is [`find`]'s, minus the predecessor bookkeeping only
    /// mutation needs. Visits only grow along a walk, so the count is
    /// exactly the full walk's count clamped to `cap`.
    fn walk(&self, key: u64, cap: u64) -> (u64, usize) {
        let mut visits = 0u64;
        let mut cur = NIL;
        for lvl in (0..self.level).rev() {
            let mut next = if cur == NIL {
                self.head[lvl]
            } else {
                self.next(cur, lvl)
            };
            while next != NIL && self.key(next) < key {
                visits += 1;
                if visits >= cap {
                    return (cap, lvl);
                }
                cur = next;
                next = self.next(cur, lvl);
            }
            visits += 1;
            if visits >= cap {
                return (cap, lvl);
            }
        }
        (visits, 0)
    }

    /// The memo's answer for a `cap`-capped walk to `key`, if it has one.
    #[inline]
    fn memo_lookup(&self, key: u64, cap: u64) -> Option<u64> {
        let e = &self.memo[memo_slot(key)];
        let visits = u64::from(e.visits);
        // A capped entry knows the walk only up to its own cap.
        (e.key == key
            && self.changes[usize::from(e.stop)] == e.stamp
            && (!e.capped || cap <= visits))
            .then(|| visits.min(cap))
    }

    /// The number of node visits a search for `key` makes, counted up to
    /// `cap`: exactly the full walk's count clamped to `cap`.
    ///
    /// Answered from the visit memo while the walk cannot have changed
    /// (see the type's documentation); otherwise walks and memoizes.
    pub fn visits(&mut self, key: u64, cap: u64) -> u64 {
        if let Some(visits) = self.memo_lookup(key, cap) {
            debug_assert!(self.memo_entry_is_exact(key), "stale visit memo");
            return visits;
        }
        let (visits, stop) = self.walk(key, cap);
        if let Ok(v) = u32::try_from(visits) {
            self.memo[memo_slot(key)] = MemoEntry {
                key,
                stamp: self.changes[stop],
                visits: v,
                stop: stop as u8,
                capped: visits >= cap,
            };
        }
        visits
    }

    /// Debug oracle: the memo entry in `key`'s slot is what a fresh walk
    /// with the entry's own cap reports now. This implies every answer the
    /// entry gives, whatever the query's cap.
    fn memo_entry_is_exact(&self, key: u64) -> bool {
        let e = &self.memo[memo_slot(key)];
        let cap = if e.capped {
            u64::from(e.visits)
        } else {
            u64::MAX
        };
        self.walk(key, cap) == (u64::from(e.visits), usize::from(e.stop))
    }

    /// Marks levels `0..height` changed, invalidating every memoized walk
    /// that read one of them.
    #[inline]
    fn bump(&mut self, height: usize) {
        for c in &mut self.changes[..height] {
            *c += 1;
        }
    }

    /// Links a new node for `key` after `preds` (the predecessor on each
    /// level, NIL for the head) and returns its index.
    fn link(&mut self, key: u64, preds: &[u32; MAX_LEVEL]) -> u32 {
        let height = height_for(key);
        if height > self.level {
            self.level = height;
        }
        let idx = match self.free[height - 1] {
            NIL => {
                let t = u32::try_from(self.towers.len()).expect("tower arena overflow");
                self.towers
                    .extend([key as u32, (key >> 32) as u32, height as u32]);
                self.towers.resize(t as usize + HEADER + height, NIL);
                t
            }
            t => {
                self.free[height - 1] = self.next(t, 0);
                self.towers[t as usize] = key as u32;
                self.towers[t as usize + 1] = (key >> 32) as u32;
                t
            }
        };
        for (lvl, &pred) in preds.iter().enumerate().take(height) {
            if pred == NIL {
                self.set_next(idx, lvl, self.head[lvl]);
                self.head[lvl] = idx;
            } else {
                self.set_next(idx, lvl, self.next(pred, lvl));
                self.set_next(pred, lvl, idx);
            }
        }
        self.bump(height);
        self.by_key.insert(key, idx);
        self.len += 1;
        idx
    }

    /// Inserts `key`; returns whether it was absent.
    pub fn insert(&mut self, key: u64) -> bool {
        debug_assert_ne!(key, u64::MAX, "u64::MAX is reserved");
        // Re-inserts don't change the list structure, so the predecessor
        // walk is skipped entirely.
        if self.by_key.contains(key) {
            return false;
        }
        let mut preds = [NIL; MAX_LEVEL];
        let (existing, _) = self.find(key, &mut preds);
        debug_assert_eq!(existing, NIL, "key index out of sync");
        self.link(key, &preds);
        true
    }

    /// Inserts a batch of keys sorted strictly ascending, in one
    /// left-to-right sweep.
    ///
    /// Instead of restarting every predecessor walk from the head (B full
    /// `O(log N)` walks for a B-key batch), the walk keeps a finger: each
    /// key resumes from the predecessor frontier the previous key left
    /// behind, costing `O(log d)` for a distance-`d` hop. Commit batches
    /// are sorted and clustered, so this collapses most of the per-insert
    /// walk. The resulting list structure is identical to sequential
    /// [`insert`](SkipList::insert) calls (node heights depend only on the
    /// key), and keys already present short-circuit through the key index
    /// exactly the same way.
    ///
    /// # Panics
    ///
    /// Debug builds assert that keys are strictly ascending.
    pub fn insert_sorted_batch(&mut self, batch: &[u64]) {
        let mut preds = [NIL; MAX_LEVEL];
        let mut last_key = None;
        for &key in batch {
            debug_assert_ne!(key, u64::MAX, "u64::MAX is reserved");
            debug_assert!(last_key.is_none_or(|k| k < key), "batch must ascend");
            last_key = Some(key);
            if self.by_key.contains(key) {
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
                        if self.key(c) > self.key(p) {
                            c
                        } else {
                            p
                        }
                    }
                };
                let mut next = if cur == NIL {
                    self.head[lvl]
                } else {
                    self.next(cur, lvl)
                };
                while next != NIL && self.key(next) < key {
                    cur = next;
                    next = self.next(cur, lvl);
                }
                preds[lvl] = cur;
                carry = cur;
            }
            let idx = self.link(key, &preds);
            // The new node is the rightmost key < any later batch key:
            // advance the frontier onto it.
            let height = self.height(idx);
            preds[..height].fill(idx);
        }
    }

    /// Removes `key`; returns whether it was present.
    pub fn remove(&mut self, key: u64) -> bool {
        if self.by_key.remove(key).is_none() {
            return false;
        }
        let mut preds = [NIL; MAX_LEVEL];
        let (node, _) = self.find(key, &mut preds);
        debug_assert_ne!(node, NIL, "key index out of sync");
        let height = self.height(node);
        for (lvl, &pred) in preds.iter().enumerate().take(height) {
            let succ = self.next(node, lvl);
            if pred == NIL {
                if self.head[lvl] == node {
                    self.head[lvl] = succ;
                }
            } else if self.next(pred, lvl) == node {
                self.set_next(pred, lvl, succ);
            }
        }
        self.bump(height);
        self.len -= 1;
        self.set_next(node, 0, self.free[height - 1]);
        self.free[height - 1] = node;
        true
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.head = [NIL; MAX_LEVEL];
        self.towers.clear();
        self.free = [NIL; MAX_LEVEL];
        self.by_key.clear();
        self.len = 0;
        self.level = 1;
        self.bump(MAX_LEVEL);
    }

    /// Iterates keys in order (for recovery verification).
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let mut cur = self.head[0];
        std::iter::from_fn(move || {
            if cur == NIL {
                None
            } else {
                let key = self.key(cur);
                cur = self.next(cur, 0);
                Some(key)
            }
        })
    }

    /// Whether a `cap`-capped walk to `key` would be answered by the memo.
    #[cfg(test)]
    pub(crate) fn memoized(&self, key: u64, cap: u64) -> bool {
        self.memo_lookup(key, cap).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = SkipList::new();
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.contains(5));
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert!(!s.contains(5));
        assert!(s.is_empty());
    }

    #[test]
    fn ordered_iteration() {
        let mut s = SkipList::new();
        for k in [9u64, 1, 7, 3, 5] {
            s.insert(k);
        }
        let keys: Vec<u64> = s.iter().collect();
        assert_eq!(keys, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn visits_grow_with_size() {
        let mut small = SkipList::new();
        let mut big = SkipList::new();
        for k in 0..16u64 {
            small.insert(k * 7919);
        }
        for k in 0..4096u64 {
            big.insert(k * 7919);
        }
        let avg = |s: &mut SkipList, n: u64| -> f64 {
            let total: u64 = (0..n).map(|k| s.visits(k * 7919, u64::MAX)).sum();
            total as f64 / n as f64
        };
        let a_small = avg(&mut small, 16);
        let a_big = avg(&mut big, 4096);
        assert!(
            a_big > a_small * 1.5,
            "expected larger index to cost more: {a_small} vs {a_big}"
        );
        assert!(a_big < 80.0, "search should stay logarithmic: {a_big}");
    }

    #[test]
    fn get_visits_match_find_visits() {
        // A capped walk must count exactly the full walk's visits clamped
        // to the cap, memoized or not; u64::MAX is uncapped. Every probe is
        // asked twice per cap, so the second answer comes from the memo.
        let mut preds = [NIL; MAX_LEVEL];
        for size in [0u64, 1, 512, 4096] {
            let mut s = SkipList::new();
            for k in 0..size {
                s.insert(k * 31 + 5);
            }
            // Present keys, the gaps between them, and both ends.
            let probes = (0..size * 31 + 40).step_by(7).chain([u64::MAX - 1]);
            for probe in probes {
                let (node, full) = s.find(probe, &mut preds);
                assert_eq!(node != NIL, s.contains(probe), "size {size} probe {probe}");
                for cap in (1..=40).chain([u64::MAX]) {
                    let want = full.min(cap);
                    assert_eq!(s.walk(probe, cap).0, want, "size {size} probe {probe}");
                    for _ in 0..2 {
                        assert_eq!(s.visits(probe, cap), want, "size {size} probe {probe}");
                    }
                    assert!(
                        s.memoized(probe, cap),
                        "size {size} probe {probe} cap {cap}"
                    );
                }
            }
        }
    }

    /// Keys whose node height is exactly `h`, in ascending order.
    fn keys_of_height(h: usize) -> impl Iterator<Item = u64> {
        (0u64..).filter(move |&k| height_for(k) == h)
    }

    /// A list of 4096 keys (multiples of 8) and a probe whose capped walk
    /// stops at level 2 or above, with that level.
    fn list_with_high_stop() -> (SkipList, u64, u64, usize) {
        let mut s = SkipList::new();
        for k in 0..4096u64 {
            s.insert(k * 8);
        }
        let cap = 3;
        let (probe, stop) = (0..4096u64)
            .map(|k| k * 8 + 4)
            .map(|p| (p, s.walk(p, cap).1))
            .find(|&(_, stop)| stop >= 2)
            .expect("some walk stops high");
        (s, probe, cap, stop)
    }

    #[test]
    fn short_insert_below_the_stop_level_keeps_the_entry() {
        let (mut s, probe, cap, stop) = list_with_high_stop();
        let before = s.visits(probe, cap);
        assert!(s.memoized(probe, cap));
        // Odd keys are new; height 1 links on level 0 only, below `stop`.
        let short = keys_of_height(1)
            .find(|k| k % 2 == 1 && *k < 4096 * 8)
            .expect("short key");
        assert!(s.insert(short));
        assert!(
            s.memoized(probe, cap),
            "short insert invalidated a level-{stop} walk"
        );
        assert_eq!(s.visits(probe, cap), before);
        assert_eq!(s.walk(probe, cap).0, before);
    }

    #[test]
    fn tall_insert_invalidates_the_entry() {
        let (mut s, probe, cap, stop) = list_with_high_stop();
        s.visits(probe, cap);
        assert!(s.memoized(probe, cap));
        let tall = keys_of_height(stop + 1)
            .find(|k| k % 2 == 1)
            .expect("tall key");
        assert!(s.insert(tall));
        assert!(
            !s.memoized(probe, cap),
            "a level-{stop} node must invalidate"
        );
        assert_eq!(s.visits(probe, cap), s.walk(probe, cap).0);
        // Removing it invalidates again.
        assert!(s.memoized(probe, cap));
        assert!(s.remove(tall));
        assert!(!s.memoized(probe, cap));
    }

    #[test]
    fn clear_invalidates_every_entry() {
        let (mut s, probe, cap, _) = list_with_high_stop();
        s.visits(probe, cap);
        s.visits(probe + 8, u64::MAX);
        s.clear();
        assert!(!s.memoized(probe, cap));
        assert!(!s.memoized(probe + 8, u64::MAX));
        assert_eq!(s.visits(probe, cap), 1);
    }

    #[test]
    fn capped_entry_answers_only_smaller_caps() {
        let (mut s, probe, cap, _) = list_with_high_stop();
        assert_eq!(s.visits(probe, cap), cap);
        assert!(s.memoized(probe, 1));
        assert!(!s.memoized(probe, cap + 1));
        let full = s.visits(probe, u64::MAX);
        assert!(full > cap);
        // An uncapped entry answers every cap.
        assert!(s.memoized(probe, 1) && s.memoized(probe, full + 7));
    }

    #[test]
    fn dense_reuse_after_remove() {
        let mut s = SkipList::new();
        for k in 0..100u64 {
            s.insert(k);
        }
        for k in 0..100u64 {
            s.remove(k);
        }
        // A tower is reused only at its own height: reinsert fresh keys
        // with the removed keys' heights.
        let mut fresh: Vec<_> = (1..=MAX_LEVEL)
            .map(|h| keys_of_height(h).filter(|&k| k >= 100))
            .collect();
        let words_before = s.towers.len();
        for k in 0..100u64 {
            let key = fresh[height_for(k) - 1].next().expect("key of height");
            assert!(s.insert(key));
        }
        assert_eq!(s.towers.len(), words_before, "free list must be reused");
        assert_eq!(s.len(), 100);
    }

    #[test]
    fn arena_holds_exactly_the_towers() {
        let mut s = SkipList::new();
        let keys: Vec<u64> = (0..3000u64).map(|k| k * 7919 % 10_007).collect();
        for &k in &keys {
            s.insert(k);
        }
        let words: usize = keys.iter().map(|&k| HEADER + height_for(k)).sum();
        assert_eq!(s.towers.len(), words);
        // Re-inserts add nothing.
        s.insert_sorted_batch(&[0, 7919]);
        assert_eq!(s.towers.len(), words);
    }

    #[test]
    fn removed_tower_is_reused_at_its_height() {
        let mut s = SkipList::new();
        for k in 0..64u64 {
            s.insert(k * 2);
        }
        let victim = keys_of_height(3)
            .find(|k| k % 2 == 0 && *k < 128)
            .expect("present key");
        let tower = *s.by_key.get(victim).expect("present");
        assert!(s.remove(victim));
        let words = s.towers.len();
        // A different height cannot use it...
        let other = keys_of_height(1).find(|k| k % 2 == 1).expect("odd key");
        assert!(s.insert(other));
        assert!(s.towers.len() > words);
        assert_ne!(s.by_key.get(other), Some(&tower));
        // ...the next insert of its height does.
        let words = s.towers.len();
        let same = keys_of_height(3).find(|k| k % 2 == 1).expect("odd key");
        assert!(s.insert(same));
        assert_eq!(s.towers.len(), words);
        assert_eq!(s.by_key.get(same), Some(&tower));
        assert_eq!(s.key(tower), same);
        let mut want: std::collections::BTreeSet<u64> = (0..64u64).map(|k| k * 2).collect();
        want.remove(&victim);
        want.extend([other, same]);
        assert!(s.iter().eq(want));
    }

    #[test]
    fn clear_empties_the_arena() {
        let mut s = SkipList::new();
        for k in 0..500u64 {
            s.insert(k);
        }
        s.remove(7);
        s.clear();
        assert!(s.towers.is_empty());
        assert!(s.free.iter().all(|&t| t == NIL));
        assert!(s.is_empty() && s.iter().next().is_none());
        assert!(s.insert(7));
        assert_eq!(s.towers.len(), HEADER + height_for(7));
    }

    #[test]
    fn agrees_with_btreeset() {
        use std::collections::BTreeSet;
        let mut s = SkipList::new();
        let mut m = BTreeSet::new();
        let mut x = 12345u64;
        for _ in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (x >> 33) % 512;
            match (x >> 1) % 3 {
                0 => assert_eq!(s.insert(k), m.insert(k)),
                1 => assert_eq!(s.remove(k), m.remove(&k)),
                _ => assert_eq!(s.contains(k), m.contains(&k)),
            }
        }
        assert!(s.iter().eq(m.into_iter()));
    }

    #[derive(Clone, Debug)]
    enum Op {
        Insert(u64),
        Batch(Vec<u64>),
        Remove(u64),
        Clear,
        Visits(u64, u64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let key = || 0u64..600;
        let cap = prop_oneof![9 => 1u64..=40, 1 => Just(u64::MAX)];
        prop_oneof![
            6 => key().prop_map(Op::Insert),
            2 => prop::collection::vec(key(), 0..12).prop_map(Op::Batch),
            3 => key().prop_map(Op::Remove),
            1 => Just(Op::Clear),
            // Half the queries revisit 16 hot keys, as a B-tree's node
            // lines are, so memo entries live across many updates.
            20 => (prop_oneof![(0u64..16).prop_map(|i| i * 37), key()], cap)
                .prop_map(|(k, c)| Op::Visits(k, c)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Memoized visit counts equal a fresh walk's under any mix of
        /// inserts, sorted batches, removes and clears, and membership and
        /// order agree with a `BTreeSet`.
        #[test]
        fn memoized_visits_match_fresh_walks(ops in prop::collection::vec(op_strategy(), 1..400)) {
            let mut s = SkipList::new();
            let mut m = std::collections::BTreeSet::new();
            for op in &ops {
                match op {
                    Op::Insert(k) => prop_assert_eq!(s.insert(*k), m.insert(*k)),
                    Op::Batch(keys) => {
                        let mut keys = keys.clone();
                        keys.sort_unstable();
                        keys.dedup();
                        s.insert_sorted_batch(&keys);
                        m.extend(keys);
                    }
                    Op::Remove(k) => prop_assert_eq!(s.remove(*k), m.remove(k)),
                    Op::Clear => {
                        s.clear();
                        m.clear();
                    }
                    Op::Visits(k, cap) => {
                        let fresh = s.walk(*k, *cap).0;
                        prop_assert_eq!(s.visits(*k, *cap), fresh, "key {} cap {}", k, cap);
                        prop_assert_eq!(s.contains(*k), m.contains(k));
                    }
                }
                prop_assert_eq!(s.len(), m.len());
            }
            prop_assert!(s.iter().eq(m.iter().copied()));
        }
    }
}
