//! The three-level inclusive hierarchy.
//!
//! Private L1/L2 per core, shared LLC. Inclusion is maintained: an LLC
//! eviction back-invalidates every private copy and merges their dirty /
//! persistent bits into the reported eviction, which is the event stream the
//! persistence engines consume.
//!
//! Each LLC line carries a sharer mask, a superset of the cores whose L1/L2
//! hold it: filling a core's L2 adds the core, a write steal narrows the
//! mask to the writer, and nothing else removes a core. Back-invalidation,
//! write steals, cleaning and flushing probe only the cores in the mask.
//! Every core left out holds no copy, so its probe would have been a no-op
//! and the simulated results are those of a sweep over all cores.

use simcore::addr::Line;
use simcore::config::SimConfig;
use simcore::stats::Counter;
use simcore::{CoreId, Cycle};

use crate::cache::{Cache, Evicted, MAX_SHARERS};

/// Result of one hierarchy access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Latency of the cache portion of the access (the engine adds memory
    /// latency when `llc_miss`).
    pub latency: Cycle,
    /// Whether the access missed all cache levels.
    pub llc_miss: bool,
    /// A dirty line pushed out of the LLC by this access's fill, if any.
    pub evicted: Option<Evicted>,
}

/// Result of flushing one line out of the hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlushResult {
    /// The line was present and dirty somewhere (so it carries data that
    /// must be written down).
    pub was_dirty: bool,
    /// The dirty copy carried the persistent bit.
    pub was_persistent: bool,
}

/// Hit/miss statistics for the hierarchy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HierStats {
    /// Total accesses.
    pub accesses: Counter,
    /// L1 hits.
    pub l1_hits: Counter,
    /// L2 hits.
    pub l2_hits: Counter,
    /// LLC hits.
    pub llc_hits: Counter,
    /// Misses in all levels.
    pub llc_misses: Counter,
    /// Dirty lines evicted from the LLC.
    pub dirty_evictions: Counter,
}

impl HierStats {
    /// Fraction of accesses that miss the whole hierarchy.
    pub fn llc_miss_ratio(&self) -> f64 {
        let a = self.accesses.get();
        if a == 0 {
            0.0
        } else {
            self.llc_misses.get() as f64 / a as f64
        }
    }
}

/// The modeled cache hierarchy.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    llc: Cache,
    l1_latency: Cycle,
    l2_latency: Cycle,
    llc_latency: Cycle,
    stats: HierStats,
}

impl Hierarchy {
    /// Builds the hierarchy described by `cfg` (one L1/L2 pair per core).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.cores` exceeds the 16 cores an LLC sharer mask holds.
    pub fn new(cfg: &SimConfig) -> Self {
        let cores = cfg.cores as usize;
        assert!(
            cores <= MAX_SHARERS,
            "{cores} cores exceed the {MAX_SHARERS}-core LLC sharer mask"
        );
        Hierarchy {
            l1: (0..cores).map(|_| Cache::new(&cfg.l1)).collect(),
            l2: (0..cores).map(|_| Cache::new(&cfg.l2)).collect(),
            llc: Cache::new(&cfg.llc),
            l1_latency: cfg.l1.latency_cycles,
            l2_latency: cfg.l2.latency_cycles,
            llc_latency: cfg.llc.latency_cycles,
            stats: HierStats::default(),
        }
    }

    /// Accesses `line` from `core`. `write` marks the line dirty; when the
    /// access happens inside a failure-atomic region, `persistent` sets the
    /// per-line persistent bit (§III-G).
    ///
    /// On an LLC miss the line is filled into all levels; the returned
    /// latency covers the cache levels only — the caller adds the memory
    /// read latency supplied by its persistence engine.
    ///
    /// The L1 hit (the common case) is inlined into the caller; every other
    /// outcome goes through [`access_below_l1`](Hierarchy::access_below_l1).
    #[inline(always)]
    pub fn access(
        &mut self,
        core: CoreId,
        line: Line,
        write: bool,
        persistent: bool,
    ) -> AccessResult {
        let c = core.index();
        self.stats.accesses.inc();
        if self.l1[c].touch(line, write, persistent) {
            self.stats.l1_hits.inc();
            return AccessResult {
                latency: self.l1_latency,
                llc_miss: false,
                evicted: None,
            };
        }
        self.access_below_l1(c, line, write, persistent)
    }

    /// The rest of [`access`](Hierarchy::access) after an L1 miss: the L2
    /// and LLC lookups, the fills and the LLC's back-invalidation. Kept out
    /// of line so the inlined L1-hit path stays small; not `#[cold]`, since
    /// on YCSB-1KB about two accesses in three miss L1.
    #[inline(never)]
    fn access_below_l1(
        &mut self,
        c: usize,
        line: Line,
        write: bool,
        persistent: bool,
    ) -> AccessResult {
        let mut latency = self.l1_latency + self.l2_latency;
        if self.l2[c].touch(line, write, persistent) {
            self.stats.l2_hits.inc();
            self.fill_l1(c, line, write, persistent);
            return AccessResult {
                latency,
                llc_miss: false,
                evicted: None,
            };
        }

        latency += self.llc_latency;
        if self.llc.touch(line, write, persistent) {
            self.stats.llc_hits.inc();
            // On a write, steal the line from any other core that has it.
            if write {
                self.invalidate_private_except(c, line);
            }
            self.fill_l2(c, line);
            self.fill_l1(c, line, write, persistent);
            return AccessResult {
                latency,
                llc_miss: false,
                evicted: None,
            };
        }

        // Full miss: fill all levels, possibly evicting from the LLC. By
        // inclusion no other core holds the line, so there is nothing to
        // steal.
        self.stats.llc_misses.inc();
        let evicted = self.fill_llc(line, write, write && persistent);
        self.fill_l2(c, line);
        self.fill_l1(c, line, write, persistent);
        if evicted.is_some() {
            self.stats.dirty_evictions.inc();
        }
        AccessResult {
            latency,
            llc_miss: true,
            evicted,
        }
    }

    /// Inserts into the LLC, handling inclusion: the victim is purged from
    /// its sharers' private caches and their dirty/persistent state is
    /// merged. Returns the victim only if its merged state is dirty.
    fn fill_llc(&mut self, line: Line, dirty: bool, persistent: bool) -> Option<Evicted> {
        let (victim, sharers) = self.llc.insert_shared(line, dirty, persistent)?;
        debug_assert!(
            self.sharers_cover(victim.line, sharers),
            "stale sharer mask"
        );
        let mut merged = victim;
        for c in cores_in(sharers) {
            if let Some((d, p)) = self.l1[c].remove(victim.line) {
                merged.dirty |= d;
                merged.persistent |= p;
            }
            if let Some((d, p)) = self.l2[c].remove(victim.line) {
                merged.dirty |= d;
                merged.persistent |= p;
            }
        }
        merged.dirty.then_some(merged)
    }

    /// Inserts into a core's L2, adding the core to the line's LLC sharers;
    /// a dirty L2 victim is written back into the LLC (which must contain
    /// it, by inclusion).
    fn fill_l2(&mut self, core: usize, line: Line) {
        self.llc.add_sharer(line, core);
        // Callers only reach here after `line` missed this L2, so there is
        // no residency check to repeat.
        if let Some(v) = self.l2[core].insert(line, false, false) {
            // Inclusion: purge from L1 too; merge its state.
            let mut dirty = v.dirty;
            let mut persistent = v.persistent;
            if let Some((d, p)) = self.l1[core].remove(v.line) {
                dirty |= d;
                persistent |= p;
            }
            if dirty {
                self.llc.mark_dirty(v.line, persistent);
            }
        }
    }

    /// Inserts into a core's L1; a dirty L1 victim is written back into L2.
    fn fill_l1(&mut self, core: usize, line: Line, write: bool, persistent: bool) {
        // Callers only reach here after `line` missed this L1, so there is
        // no residency check to repeat.
        if let Some(v) = self.l1[core].insert(line, write, write && persistent) {
            if v.dirty {
                self.l2[core].mark_dirty(v.line, v.persistent);
            }
        }
    }

    /// Write steal: removes `line` from every other sharer's private caches,
    /// merging their dirty state into the LLC, and narrows the sharer mask
    /// to `owner`.
    fn invalidate_private_except(&mut self, owner: usize, line: Line) {
        let own = 1u16 << owner;
        let sharers = self.llc.replace_sharers(line, own);
        debug_assert!(self.sharers_cover(line, sharers), "stale sharer mask");
        for c in cores_in(sharers & !own) {
            if let Some((d, p)) = self.l1[c].remove(line) {
                if d {
                    self.llc.mark_dirty(line, p);
                }
            }
            if let Some((d, p)) = self.l2[c].remove(line) {
                if d {
                    self.llc.mark_dirty(line, p);
                }
            }
        }
    }

    /// Marks `line` clean in every level (its data just became durable).
    /// Returns `true` if any copy was dirty.
    pub fn clean_line(&mut self, line: Line) -> bool {
        let mut was = self.llc.clean(line);
        let sharers = self.llc.sharers(line);
        debug_assert!(self.sharers_cover(line, sharers), "stale sharer mask");
        for c in cores_in(sharers) {
            was |= self.l1[c].clean(line);
            was |= self.l2[c].clean(line);
        }
        was
    }

    /// Flushes `line` out of the entire hierarchy (clflush semantics),
    /// reporting whether a dirty / persistent copy existed.
    pub fn flush_line(&mut self, line: Line) -> FlushResult {
        let mut dirty = false;
        let mut persistent = false;
        let sharers = self.llc.sharers(line);
        debug_assert!(self.sharers_cover(line, sharers), "stale sharer mask");
        for c in cores_in(sharers) {
            if let Some((d, p)) = self.l1[c].remove(line) {
                dirty |= d;
                persistent |= p;
            }
            if let Some((d, p)) = self.l2[c].remove(line) {
                dirty |= d;
                persistent |= p;
            }
        }
        if let Some((d, p)) = self.llc.remove(line) {
            dirty |= d;
            persistent |= p;
        }
        FlushResult {
            was_dirty: dirty,
            was_persistent: persistent,
        }
    }

    /// Returns `true` if `line` is resident anywhere in the hierarchy (by
    /// inclusion, exactly when the LLC holds it).
    pub fn contains(&self, line: Line) -> bool {
        self.llc.contains(line)
    }

    /// Removes and returns every dirty line in the hierarchy (merging
    /// private and shared state), cleaning them in place. Used at the end of
    /// a measured run so write-traffic totals are comparable across engines
    /// regardless of what happened to still be cached.
    pub fn drain_dirty(&mut self) -> Vec<Evicted> {
        // Collect every valid copy, then sort by line and merge equal-line
        // runs in place — no intermediate hash map. The result is the same
        // line-sorted, state-OR-merged list the old map-based merge built.
        let mut all: Vec<Evicted> = Vec::new();
        for c in 0..self.l1.len() {
            all.extend(self.l1[c].drain_valid());
            all.extend(self.l2[c].drain_valid());
        }
        all.extend(self.llc.drain_valid());
        all.sort_by_key(|e| e.line.0);
        let mut out: Vec<Evicted> = Vec::with_capacity(all.len());
        for e in all {
            match out.last_mut() {
                Some(last) if last.line == e.line => {
                    last.dirty |= e.dirty;
                    last.persistent |= e.persistent;
                }
                _ => out.push(e),
            }
        }
        out.retain(|e| e.dirty);
        out
    }

    /// Invalidates everything (simulated power loss).
    pub fn clear(&mut self) {
        for c in &mut self.l1 {
            c.clear();
        }
        for c in &mut self.l2 {
            c.clear();
        }
        self.llc.clear();
    }

    /// Whether `sharers` names every core whose private caches hold `line`
    /// (the invariant that lets the probes skip the other cores).
    fn sharers_cover(&self, line: Line, sharers: u16) -> bool {
        (0..self.l1.len()).all(|c| {
            sharers & (1 << c) != 0 || !(self.l1[c].contains(line) || self.l2[c].contains(line))
        })
    }

    /// Access statistics.
    pub fn stats(&self) -> &HierStats {
        &self.stats
    }

    /// Resets statistics (e.g. after warmup).
    pub fn reset_stats(&mut self) {
        self.stats = HierStats::default();
    }
}

/// The cores named in `mask`, lowest first.
fn cores_in(mut mask: u16) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let c = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            c
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Hierarchy {
        Hierarchy::new(&SimConfig::small_for_tests())
    }

    #[test]
    fn miss_then_hit() {
        let mut h = small();
        let a = h.access(CoreId(0), Line(100), false, false);
        assert!(a.llc_miss);
        let b = h.access(CoreId(0), Line(100), false, false);
        assert!(!b.llc_miss);
        assert_eq!(b.latency, 4);
    }

    #[test]
    fn l2_hit_after_l1_eviction_pressure() {
        let mut h = small();
        // 4 KB 4-way L1 => 16 sets. Touch 5 lines in the same L1 set.
        for i in 0..5 {
            h.access(CoreId(0), Line(16 * i), false, false);
        }
        // Line 0 fell out of L1 but not out of L2.
        let r = h.access(CoreId(0), Line(0), false, false);
        assert!(!r.llc_miss);
        assert_eq!(r.latency, 4 + 12);
    }

    #[test]
    fn dirty_llc_eviction_reported_with_persistent_bit() {
        let mut h = small();
        // 64 KB 16-way LLC => 64 sets. Fill one LLC set with dirty
        // persistent lines, then overflow it.
        for i in 0..16 {
            h.access(CoreId(0), Line(64 * i), true, true);
        }
        let r = h.access(CoreId(0), Line(64 * 16), true, true);
        let ev = r.evicted.expect("overflow must evict dirty line");
        assert!(ev.dirty);
        assert!(ev.persistent);
        assert_eq!(ev.line.0 % 64, 0);
    }

    #[test]
    fn clean_line_prevents_eviction_writeback() {
        let mut h = small();
        for i in 0..16 {
            h.access(CoreId(0), Line(64 * i), true, false);
            h.clean_line(Line(64 * i));
        }
        let r = h.access(CoreId(0), Line(64 * 16), false, false);
        assert!(r.evicted.is_none(), "cleaned lines need no writeback");
    }

    #[test]
    fn flush_reports_dirty_state_and_invalidates() {
        let mut h = small();
        h.access(CoreId(0), Line(9), true, true);
        let f = h.flush_line(Line(9));
        assert!(f.was_dirty && f.was_persistent);
        assert!(!h.contains(Line(9)));
        let again = h.flush_line(Line(9));
        assert!(!again.was_dirty);
    }

    #[test]
    fn write_steals_line_from_other_core() {
        let mut h = small();
        h.access(CoreId(0), Line(5), true, false);
        // Core 1 writes the same line: core 0's private copies must go, and
        // the line must stay coherent (dirty merged into LLC).
        h.access(CoreId(1), Line(5), true, false);
        let r = h.access(CoreId(1), Line(5), false, false);
        assert_eq!(r.latency, 4, "core 1 now owns the line in L1");
    }

    #[test]
    fn back_invalidation_reaches_every_sharer() {
        let mut h = small();
        // Every core reads line 0, then core 5 dirties its L1 copy with a
        // write hit, which leaves the other cores' copies in place.
        for c in 0..16 {
            h.access(CoreId(c), Line(0), false, false);
        }
        assert_eq!(h.access(CoreId(5), Line(0), true, true).latency, 4);
        // Overflow LLC set 0 from core 1: line 0 is its LRU line.
        let evicted: Vec<Evicted> = (1..=16)
            .filter_map(|i| h.access(CoreId(1), Line(64 * i), false, false).evicted)
            .collect();
        assert_eq!(
            evicted,
            [Evicted {
                line: Line(0),
                dirty: true,
                persistent: true
            }],
            "the eviction must merge core 5's private dirty copy"
        );
        for c in 0..16 {
            let r = h.access(CoreId(c), Line(0), false, false);
            assert!(r.llc_miss, "core {c} kept a copy of an evicted line");
            h.flush_line(Line(0));
        }
    }

    #[test]
    fn inclusion_back_invalidates_private_copies() {
        let mut h = small();
        // Fill an LLC set from core 0 while keeping the lines hot in L1.
        for i in 0..17 {
            h.access(CoreId(0), Line(64 * i), false, false);
        }
        // At least one of the first lines was back-invalidated; accessing it
        // again must be an LLC miss, not a private-cache hit.
        let victims: Vec<u64> = (0..17)
            .filter(|&i| !h.contains(Line(64 * i)))
            .map(|i| 64 * i)
            .collect();
        assert!(!victims.is_empty());
        let r = h.access(CoreId(0), Line(victims[0]), false, false);
        assert!(r.llc_miss);
    }

    #[test]
    fn stats_track_miss_ratio() {
        let mut h = small();
        h.access(CoreId(0), Line(1), false, false);
        h.access(CoreId(0), Line(1), false, false);
        assert_eq!(h.stats().accesses.get(), 2);
        assert_eq!(h.stats().llc_misses.get(), 1);
        assert!((h.stats().llc_miss_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "sharer mask")]
    fn more_cores_than_the_sharer_mask_panics() {
        let cfg = SimConfig {
            cores: 17,
            ..SimConfig::small_for_tests()
        };
        let _ = Hierarchy::new(&cfg);
    }

    #[test]
    fn clear_drops_everything() {
        let mut h = small();
        h.access(CoreId(0), Line(1), true, true);
        h.clear();
        assert!(!h.contains(Line(1)));
    }
}
