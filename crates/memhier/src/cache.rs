//! A single set-associative cache level with true-LRU replacement.

use simcore::addr::Line;
use simcore::config::CacheConfig;

/// State of a line pushed out of a cache by an insertion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted line.
    pub line: Line,
    /// Whether the copy was dirty.
    pub dirty: bool,
    /// Whether the copy carried the transactional persistent bit.
    pub persistent: bool,
}

/// Tag value of an invalid slot. Line numbers are physical addresses divided
/// by the line size, so `u64::MAX` can never collide with a real line.
const INVALID: u64 = u64::MAX;

const DIRTY: u64 = 1;
const PERSISTENT: u64 = 2;
const SHARER_SHIFT: u32 = 2;
const SHARERS: u64 = (u16::MAX as u64) << SHARER_SHIFT;
const STAMP_SHIFT: u32 = 18;

/// Width of a slot's sharer mask: the most cores an LLC can track.
pub(crate) const MAX_SHARERS: usize = 16;

/// Memo way value recording "this line is known absent from its set".
const WAY_MISS: u32 = u32::MAX;

/// One way of one set: the line tag plus its LRU stamp, sharer mask and
/// dirty/persistent bits packed into a single word. At sixteen bytes per
/// slot a 4-way set is 64 B (8-way 128 B), but the `Vec<Slot>` holding the
/// sets is only 8-byte aligned, so a 4-way set straddles two host cache
/// lines unless the array happens to start 64-B aligned (the L1 arrays of
/// one HOOP/YCSB run sat at offsets 16 and 48 mod 64). Padding the array so
/// that every set starts on a 64-B line was measured on the inlined hit
/// path and not kept: tree-btree −0.9 % (3 of 4 pairs, inside the noise),
/// read-ycsb −3.1 % in one round and +2.4 % in the next.
#[derive(Clone, Copy, Debug)]
struct Slot {
    tag: u64,
    /// `stamp << 18 | sharers << 2 | persistent << 1 | dirty`. The sharer
    /// mask is only kept in the LLC (a set of cores whose private caches
    /// may hold the line); it never takes part in replacement.
    meta: u64,
}

/// One set-associative cache level.
///
/// Tags are full line numbers; replacement is true LRU via access stamps.
#[derive(Clone, Debug)]
pub struct Cache {
    sets: u64,
    ways: usize,
    slots: Vec<Slot>,
    tick: u64,
    /// Per-set one-entry lookup memo: the last line whose way was resolved
    /// in this set, as `(line, way)` — `way == WAY_MISS` records a known
    /// absence, `line == INVALID` an empty memo. The hierarchy probes the
    /// same line several times per access (touch, then insert or
    /// mark-dirty), and the memo answers the repeats without rescanning the
    /// ways. Pure lookup state: it never influences replacement, so hits,
    /// evictions and simulated traffic are bit-identical with it disabled.
    memo: Vec<(u64, u32)>,
}

impl Cache {
    /// Builds a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not yield a power-of-two, nonzero set
    /// count.
    pub fn new(cfg: &CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(sets > 0, "cache too small for its associativity");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            sets,
            ways: cfg.ways as usize,
            slots: vec![
                Slot {
                    tag: INVALID,
                    meta: 0
                };
                (sets as usize) * cfg.ways as usize
            ],
            tick: 0,
            memo: vec![(INVALID, WAY_MISS); sets as usize],
        }
    }

    /// Index of `line`'s set.
    #[inline]
    fn set_index(&self, line: Line) -> usize {
        (line.0 & (self.sets - 1)) as usize
    }

    /// First slot index of `line`'s set.
    #[inline]
    fn set_base(&self, line: Line) -> usize {
        self.set_index(line) * self.ways
    }

    /// Scans `line`'s set, early-exiting on the first tag match (the
    /// memo-blind ground truth).
    #[inline]
    fn scan(&self, line: Line) -> Option<usize> {
        let base = self.set_base(line);
        self.slots[base..base + self.ways]
            .iter()
            .position(|s| s.tag == line.0)
            .map(|w| base + w)
    }

    /// Looks up `line`, answering from the set's memo when it covers this
    /// line (skipping the way scan entirely) and scanning otherwise.
    #[inline]
    fn find(&self, line: Line) -> Option<usize> {
        let si = self.set_index(line);
        let (mline, way) = self.memo[si];
        if mline == line.0 {
            let hit = (way != WAY_MISS).then(|| si * self.ways + way as usize);
            debug_assert_eq!(hit, self.scan(line), "stale cache memo");
            return hit;
        }
        self.scan(line)
    }

    /// Like [`find`](Cache::find), refreshing the set's memo on a scan so
    /// the next probe of the same line skips it.
    #[inline]
    fn find_update(&mut self, line: Line) -> Option<usize> {
        let si = self.set_index(line);
        let (mline, way) = self.memo[si];
        if mline == line.0 {
            let hit = (way != WAY_MISS).then(|| si * self.ways + way as usize);
            debug_assert_eq!(hit, self.scan(line), "stale cache memo");
            return hit;
        }
        let hit = self.scan(line);
        self.memo[si] = (
            line.0,
            hit.map_or(WAY_MISS, |i| (i - si * self.ways) as u32),
        );
        hit
    }

    /// Returns `true` if `line` is present (does not touch LRU state).
    #[inline]
    pub fn contains(&self, line: Line) -> bool {
        self.find(line).is_some()
    }

    /// Looks up `line`; on a hit, refreshes LRU and optionally marks the
    /// line dirty/persistent. Returns whether it hit.
    ///
    /// Forced inline: it is the whole of an L1 hit, and under fat LTO a
    /// plain hint left it an out-of-line call.
    #[inline(always)]
    pub fn touch(&mut self, line: Line, write: bool, persistent: bool) -> bool {
        self.tick += 1;
        match self.find_update(line) {
            Some(i) => {
                let s = &mut self.slots[i];
                let flags = (s.meta & (DIRTY | PERSISTENT | SHARERS))
                    | if write {
                        DIRTY | if persistent { PERSISTENT } else { 0 }
                    } else {
                        0
                    };
                s.meta = (self.tick << STAMP_SHIFT) | flags;
                true
            }
            None => false,
        }
    }

    /// Inserts `line` (which must not be present), returning the evicted
    /// victim if the set was full.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the line is already present.
    pub fn insert(&mut self, line: Line, dirty: bool, persistent: bool) -> Option<Evicted> {
        self.insert_shared(line, dirty, persistent).map(|(v, _)| v)
    }

    /// [`insert`](Cache::insert) that also hands back the victim's sharer
    /// mask. The new line starts with no sharers.
    pub(crate) fn insert_shared(
        &mut self,
        line: Line,
        dirty: bool,
        persistent: bool,
    ) -> Option<(Evicted, u16)> {
        debug_assert!(!self.contains(line), "insert of present line");
        self.tick += 1;
        let base = self.set_base(line);
        // Prefer an invalid slot; otherwise evict the LRU victim.
        let mut victim = base;
        let mut best = u64::MAX;
        for (w, s) in self.slots[base..base + self.ways].iter().enumerate() {
            if s.tag == INVALID {
                victim = base + w;
                break;
            }
            if (s.meta >> STAMP_SHIFT) < best {
                best = s.meta >> STAMP_SHIFT;
                victim = base + w;
            }
        }
        let old = self.slots[victim];
        self.slots[victim] = Slot {
            tag: line.0,
            meta: (self.tick << STAMP_SHIFT)
                | if dirty { DIRTY } else { 0 }
                | if persistent { PERSISTENT } else { 0 },
        };
        // The memo entry of this set is superseded either way (the evicted
        // victim may be the memoized line): point it at the fresh insertion.
        let si = self.set_index(line);
        self.memo[si] = (line.0, (victim - base) as u32);
        if old.tag != INVALID {
            Some((
                Evicted {
                    line: Line(old.tag),
                    dirty: old.meta & DIRTY != 0,
                    persistent: old.meta & PERSISTENT != 0,
                },
                (old.meta >> SHARER_SHIFT) as u16,
            ))
        } else {
            None
        }
    }

    /// Removes `line` if present, returning its (dirty, persistent) state.
    #[inline]
    pub fn remove(&mut self, line: Line) -> Option<(bool, bool)> {
        let removed = self.find_update(line).map(|i| {
            let s = &mut self.slots[i];
            let meta = s.meta;
            s.tag = INVALID;
            s.meta = 0;
            (meta & DIRTY != 0, meta & PERSISTENT != 0)
        });
        if removed.is_some() {
            let si = self.set_index(line);
            self.memo[si] = (line.0, WAY_MISS);
        }
        removed
    }

    /// Marks `line` clean (data persisted) and clears its persistent bit.
    /// Returns `true` if the line was present and dirty.
    #[inline]
    pub fn clean(&mut self, line: Line) -> bool {
        match self.find_update(line) {
            Some(i) => {
                let s = &mut self.slots[i];
                let was = s.meta & DIRTY != 0;
                s.meta &= !(DIRTY | PERSISTENT);
                was
            }
            None => false,
        }
    }

    /// Marks an already-present line dirty (used when a writeback from an
    /// upper level lands here).
    #[inline]
    pub fn mark_dirty(&mut self, line: Line, persistent: bool) {
        if let Some(i) = self.find_update(line) {
            self.slots[i].meta |= DIRTY | if persistent { PERSISTENT } else { 0 };
        }
    }

    /// The sharer mask of `line`: bit `c` set when core `c`'s private caches
    /// may hold it. 0 when the line is absent.
    #[inline]
    pub(crate) fn sharers(&self, line: Line) -> u16 {
        self.find(line)
            .map_or(0, |i| (self.slots[i].meta >> SHARER_SHIFT) as u16)
    }

    /// Adds `core` to the sharer mask of `line`, if present.
    #[inline]
    pub(crate) fn add_sharer(&mut self, line: Line, core: usize) {
        if let Some(i) = self.find_update(line) {
            self.slots[i].meta |= 1 << (SHARER_SHIFT + core as u32);
        }
    }

    /// Replaces the sharer mask of `line` with `mask`, returning the old
    /// one (0, and nothing stored, when the line is absent).
    #[inline]
    pub(crate) fn replace_sharers(&mut self, line: Line, mask: u16) -> u16 {
        match self.find_update(line) {
            Some(i) => {
                let s = &mut self.slots[i];
                let old = (s.meta >> SHARER_SHIFT) as u16;
                s.meta = (s.meta & !SHARERS) | (u64::from(mask) << SHARER_SHIFT);
                old
            }
            None => 0,
        }
    }

    /// Invalidates every valid line, returning their states (used for
    /// end-of-run draining).
    pub fn drain_valid(&mut self) -> Vec<Evicted> {
        let mut out = Vec::new();
        for s in &mut self.slots {
            if s.tag != INVALID {
                out.push(Evicted {
                    line: Line(s.tag),
                    dirty: s.meta & DIRTY != 0,
                    persistent: s.meta & PERSISTENT != 0,
                });
                s.tag = INVALID;
                s.meta = 0;
            }
        }
        self.memo.fill((INVALID, WAY_MISS));
        out
    }

    /// Invalidates everything (simulated power loss).
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            s.tag = INVALID;
            s.meta = 0;
        }
        self.memo.fill((INVALID, WAY_MISS));
    }

    /// Number of valid lines currently resident.
    pub fn resident(&self) -> usize {
        self.slots.iter().filter(|s| s.tag != INVALID).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways
        Cache::new(&CacheConfig {
            capacity_bytes: 4 * 2 * 64,
            ways: 2,
            latency_cycles: 1,
        })
    }

    #[test]
    fn hit_after_insert() {
        let mut c = tiny();
        assert!(!c.touch(Line(1), false, false));
        c.insert(Line(1), false, false);
        assert!(c.touch(Line(1), false, false));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Lines 0, 4, 8 map to the same set (4 sets).
        c.insert(Line(0), false, false);
        c.insert(Line(4), false, false);
        c.touch(Line(0), false, false); // 0 is now MRU
        let ev = c.insert(Line(8), true, false).expect("must evict");
        assert_eq!(ev.line, Line(4));
        assert!(c.contains(Line(0)));
        assert!(c.contains(Line(8)));
    }

    #[test]
    fn eviction_reports_dirty_and_persistent() {
        let mut c = tiny();
        c.insert(Line(0), false, false);
        c.touch(Line(0), true, true);
        c.insert(Line(4), false, false);
        let ev = c.insert(Line(8), false, false).unwrap();
        assert_eq!(ev.line, Line(0));
        assert!(ev.dirty);
        assert!(ev.persistent);
    }

    #[test]
    fn clean_clears_dirty_and_persistent() {
        let mut c = tiny();
        c.insert(Line(3), true, true);
        assert!(c.clean(Line(3)));
        assert!(!c.clean(Line(3)));
        c.insert(Line(7), false, false);
        c.insert(Line(11), false, false);
        let ev = c.insert(Line(15), false, false).unwrap();
        assert!(!ev.dirty && !ev.persistent);
    }

    #[test]
    fn remove_and_clear() {
        let mut c = tiny();
        c.insert(Line(5), true, false);
        assert_eq!(c.remove(Line(5)), Some((true, false)));
        assert_eq!(c.remove(Line(5)), None);
        c.insert(Line(6), true, true);
        c.clear();
        assert_eq!(c.resident(), 0);
    }

    #[test]
    fn invalid_slot_preferred_over_lru_victim() {
        let mut c = tiny();
        c.insert(Line(0), true, false);
        c.insert(Line(4), false, false);
        c.remove(Line(0));
        // The freed slot must be reused without evicting line 4.
        assert_eq!(c.insert(Line(8), false, false), None);
        assert!(c.contains(Line(4)));
        assert!(c.contains(Line(8)));
    }

    #[test]
    fn memo_matches_full_scan_under_random_ops() {
        let mut c = tiny();
        let mut seed = 0x1234_5678_9abc_def0u64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        for _ in 0..5_000 {
            let line = Line(rng() % 32);
            match rng() % 6 {
                0 => {
                    if !c.touch(line, rng() % 2 == 0, rng() % 2 == 0) {
                        c.insert(line, false, false);
                    }
                }
                1 => {
                    c.remove(line);
                }
                2 => {
                    c.clean(line);
                }
                3 => c.mark_dirty(line, rng() % 2 == 0),
                4 => {
                    let _ = c.contains(line);
                }
                _ => {
                    if !c.contains(line) {
                        c.insert(line, rng() % 2 == 0, false);
                    }
                }
            }
            // The memoized lookup must agree with the memo-blind scan for
            // every possible probe after every operation.
            for probe in 0..32 {
                assert_eq!(c.find(Line(probe)), c.scan(Line(probe)));
            }
        }
        c.drain_valid();
        for probe in 0..32 {
            assert_eq!(c.find(Line(probe)), None);
        }
    }

    #[test]
    fn sharer_masks_never_steer_replacement() {
        #[derive(Debug, PartialEq)]
        enum Step {
            Touch(bool),
            Insert(Option<Evicted>),
            Remove(Option<(bool, bool)>),
            Clean(bool),
        }
        // One op stream, run with random sharer masks written between the
        // ops and with none: every hit, victim and evicted state must agree.
        fn run(with_sharers: bool) -> Vec<Step> {
            let mut c = tiny();
            let mut seed = 0x0bad_5eed_1234_5678u64;
            let mut rng = move || {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                seed >> 33
            };
            let mut steps = Vec::new();
            for _ in 0..5_000 {
                let line = Line(rng() % 32);
                let (op, write, persistent) = (rng() % 5, rng() % 2 == 0, rng() % 2 == 0);
                let (mask, core) = (rng() as u16, (rng() % MAX_SHARERS as u64) as usize);
                match op {
                    0 | 1 => {
                        let hit = c.touch(line, write, persistent);
                        steps.push(Step::Touch(hit));
                        if !hit {
                            steps.push(Step::Insert(c.insert(line, write, persistent)));
                        }
                    }
                    2 => steps.push(Step::Remove(c.remove(line))),
                    3 => steps.push(Step::Clean(c.clean(line))),
                    _ => c.mark_dirty(line, persistent),
                }
                if with_sharers {
                    c.replace_sharers(line, mask);
                    c.add_sharer(Line(rng() % 32), core);
                } else {
                    rng();
                }
            }
            steps.extend(c.drain_valid().into_iter().map(|e| Step::Insert(Some(e))));
            steps
        }
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn sharer_mask_survives_state_changes_and_starts_empty() {
        let mut c = tiny();
        c.insert(Line(1), false, false);
        assert_eq!(c.sharers(Line(1)), 0, "insert starts with no sharers");
        c.add_sharer(Line(1), 3);
        c.add_sharer(Line(1), 15);
        let mask = 1 << 3 | 1 << 15;
        assert_eq!(c.sharers(Line(1)), mask);
        assert!(c.touch(Line(1), true, true));
        assert_eq!(c.sharers(Line(1)), mask, "write touch keeps the mask");
        assert!(c.touch(Line(1), false, false));
        assert_eq!(c.sharers(Line(1)), mask, "read touch keeps the mask");
        c.mark_dirty(Line(1), true);
        assert_eq!(c.sharers(Line(1)), mask, "mark_dirty keeps the mask");
        assert!(c.clean(Line(1)));
        assert_eq!(c.sharers(Line(1)), mask, "clean keeps the mask");
        assert_eq!(c.replace_sharers(Line(1), 1 << 2), mask);
        assert_eq!(c.sharers(Line(1)), 1 << 2);

        // Lines 1, 5 and 9 share a set: 9 evicts 1, the LRU line, which
        // hands back its mask while 9 starts empty.
        c.insert(Line(5), false, false);
        let (victim, sharers) = c.insert_shared(Line(9), false, false).unwrap();
        assert_eq!(victim.line, Line(1));
        assert!(!victim.dirty && !victim.persistent);
        assert_eq!(sharers, 1 << 2);
        assert_eq!(c.sharers(Line(9)), 0);

        // An absent line has no sharers and stores none.
        assert_eq!(c.replace_sharers(Line(1), u16::MAX), 0);
        c.add_sharer(Line(1), 0);
        assert_eq!(c.sharers(Line(1)), 0);
        assert!(!c.contains(Line(1)));
    }

    #[test]
    fn touch_preserves_existing_dirty_state_on_read() {
        let mut c = tiny();
        c.insert(Line(2), true, true);
        assert!(c.touch(Line(2), false, false));
        let _ = c.insert(Line(6), false, false);
        let ev = c.insert(Line(10), false, false).unwrap();
        assert_eq!(ev.line, Line(2));
        assert!(ev.dirty && ev.persistent, "read touch must not clear flags");
    }
}
