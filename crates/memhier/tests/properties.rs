//! Property tests for the cache hierarchy: inclusion, dirty-data
//! conservation, flush/clean semantics, and equivalence with a reference
//! hierarchy that sweeps every core, under random access streams.

use simcore::det::DetHashSet;

use memhier::{AccessResult, Cache, Evicted, FlushResult, Hierarchy};
use proptest::prelude::*;
use simcore::addr::Line;
use simcore::{CoreId, Cycle, SimConfig};

#[derive(Clone, Debug)]
enum Op {
    Access {
        core: u8,
        line: u64,
        write: bool,
        persistent: bool,
    },
    Clean {
        line: u64,
    },
    Flush {
        line: u64,
    },
}

/// Cores of `SimConfig::small_for_tests()`: every op stream may touch all
/// of them, so lines get many sharers and back-invalidations hit several
/// cores at once.
const CORES: u8 = 16;

/// Lines 0..256 fit in the test LLC (64 sets of 16 ways), so half the
/// draws pile 32 lines onto each of LLC sets 0..4 instead: those overflow
/// the LLC and back-invalidate their sharers.
fn line_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..256,
        (0u64..32, 0u64..4).prop_map(|(k, set)| 64 * k + set)
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0u8..CORES, line_strategy(), any::<bool>(), any::<bool>()).prop_map(
            |(core, line, write, persistent)| Op::Access { core, line, write, persistent }
        ),
        1 => line_strategy().prop_map(|line| Op::Clean { line }),
        1 => line_strategy().prop_map(|line| Op::Flush { line }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every write is accounted for: at the end of any access stream, each
    /// written-and-not-cleaned line must either still be dirty in the
    /// hierarchy (drained at the end) or have been reported as a dirty
    /// eviction / dirty flush. No silent data loss.
    #[test]
    fn dirty_data_is_conserved(ops in prop::collection::vec(op_strategy(), 1..300)) {
        let cfg = SimConfig::small_for_tests();
        let mut h = Hierarchy::new(&cfg);
        let mut dirty_somewhere: DetHashSet<u64> = DetHashSet::default();

        for op in &ops {
            match op {
                Op::Access { core, line, write, persistent } => {
                    let res = h.access(CoreId(*core), Line(*line), *write, *persistent);
                    if *write {
                        dirty_somewhere.insert(*line);
                    }
                    if let Some(ev) = res.evicted {
                        prop_assert!(ev.dirty, "only dirty evictions are reported");
                        prop_assert!(
                            dirty_somewhere.remove(&ev.line.0),
                            "evicted line {} was never written",
                            ev.line.0
                        );
                    }
                }
                Op::Clean { line } => {
                    h.clean_line(Line(*line));
                    dirty_somewhere.remove(line);
                }
                Op::Flush { line } => {
                    let f = h.flush_line(Line(*line));
                    let was_tracked = dirty_somewhere.remove(line);
                    prop_assert_eq!(
                        f.was_dirty, was_tracked,
                        "flush dirtiness mismatch for line {}", line
                    );
                }
            }
        }

        // Drain: everything still tracked must come out dirty exactly once.
        let drained: DetHashSet<u64> = h.drain_dirty().into_iter().map(|e| e.line.0).collect();
        prop_assert_eq!(&drained, &dirty_somewhere, "drain must return the dirty residue");
    }

    /// Inclusion: immediately after any access, the accessed line is
    /// resident, and re-accessing it is never an LLC miss.
    #[test]
    fn accessed_lines_are_resident(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let cfg = SimConfig::small_for_tests();
        let mut h = Hierarchy::new(&cfg);
        for op in &ops {
            if let Op::Access { core, line, write, persistent } = op {
                h.access(CoreId(*core), Line(*line), *write, *persistent);
                prop_assert!(h.contains(Line(*line)));
                let again = h.access(CoreId(*core), Line(*line), false, false);
                prop_assert!(!again.llc_miss, "back-to-back re-access missed");
            }
        }
    }

    /// Persistent bits travel with dirty lines through writebacks and
    /// evictions: a line only ever reports persistent=true if some write to
    /// it was transactional since its last clean.
    #[test]
    fn persistent_bit_is_never_invented(
        ops in prop::collection::vec(op_strategy(), 1..300)
    ) {
        let cfg = SimConfig::small_for_tests();
        let mut h = Hierarchy::new(&cfg);
        let mut persistent_lines: DetHashSet<u64> = DetHashSet::default();
        for op in &ops {
            match op {
                Op::Access { core, line, write, persistent } => {
                    let res = h.access(CoreId(*core), Line(*line), *write, *persistent);
                    if *write && *persistent {
                        persistent_lines.insert(*line);
                    }
                    if let Some(ev) = res.evicted {
                        if ev.persistent {
                            prop_assert!(
                                persistent_lines.remove(&ev.line.0),
                                "line {} evicted persistent without a transactional write",
                                ev.line.0
                            );
                        } else {
                            persistent_lines.remove(&ev.line.0);
                        }
                    }
                }
                Op::Clean { line } => {
                    h.clean_line(Line(*line));
                    persistent_lines.remove(line);
                }
                Op::Flush { line } => {
                    let f = h.flush_line(Line(*line));
                    if f.was_persistent {
                        prop_assert!(persistent_lines.remove(line));
                    } else {
                        persistent_lines.remove(line);
                    }
                }
            }
        }
    }
}

/// The hierarchy algorithm before LLC lines carried sharer masks: every
/// back-invalidation, write steal, clean, flush and residency check sweeps
/// all cores' private caches. It is built on the public [`Cache`] and is the
/// reference the sharer-mask hierarchy must match result for result.
struct SweepHierarchy {
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    llc: Cache,
    latency: [Cycle; 3],
}

impl SweepHierarchy {
    fn new(cfg: &SimConfig) -> Self {
        let cores = cfg.cores as usize;
        SweepHierarchy {
            l1: (0..cores).map(|_| Cache::new(&cfg.l1)).collect(),
            l2: (0..cores).map(|_| Cache::new(&cfg.l2)).collect(),
            llc: Cache::new(&cfg.llc),
            latency: [
                cfg.l1.latency_cycles,
                cfg.l2.latency_cycles,
                cfg.llc.latency_cycles,
            ],
        }
    }

    fn access(&mut self, c: usize, line: Line, write: bool, persistent: bool) -> AccessResult {
        let hit = |latency| AccessResult {
            latency,
            llc_miss: false,
            evicted: None,
        };
        let mut latency = self.latency[0];
        if self.l1[c].touch(line, write, persistent) {
            return hit(latency);
        }
        latency += self.latency[1];
        if self.l2[c].touch(line, write, persistent) {
            self.fill_l1(c, line, write, persistent);
            return hit(latency);
        }
        latency += self.latency[2];
        if self.llc.touch(line, write, persistent) {
            if write {
                self.invalidate_private_except(c, line);
            }
            self.fill_l2(c, line);
            self.fill_l1(c, line, write, persistent);
            return hit(latency);
        }
        if write {
            self.invalidate_private_except(c, line);
        }
        let evicted = self.fill_llc(line, write, write && persistent);
        self.fill_l2(c, line);
        self.fill_l1(c, line, write, persistent);
        AccessResult {
            latency,
            llc_miss: true,
            evicted,
        }
    }

    fn fill_llc(&mut self, line: Line, dirty: bool, persistent: bool) -> Option<Evicted> {
        let mut merged = self.llc.insert(line, dirty, persistent)?;
        for c in 0..self.l1.len() {
            for cache in [&mut self.l1[c], &mut self.l2[c]] {
                if let Some((d, p)) = cache.remove(merged.line) {
                    merged.dirty |= d;
                    merged.persistent |= p;
                }
            }
        }
        merged.dirty.then_some(merged)
    }

    fn fill_l2(&mut self, c: usize, line: Line) {
        if let Some(v) = self.l2[c].insert(line, false, false) {
            let (mut dirty, mut persistent) = (v.dirty, v.persistent);
            if let Some((d, p)) = self.l1[c].remove(v.line) {
                dirty |= d;
                persistent |= p;
            }
            if dirty {
                self.llc.mark_dirty(v.line, persistent);
            }
        }
    }

    fn fill_l1(&mut self, c: usize, line: Line, write: bool, persistent: bool) {
        if let Some(v) = self.l1[c].insert(line, write, write && persistent) {
            if v.dirty {
                self.l2[c].mark_dirty(v.line, v.persistent);
            }
        }
    }

    fn invalidate_private_except(&mut self, owner: usize, line: Line) {
        for c in (0..self.l1.len()).filter(|&c| c != owner) {
            for cache in [&mut self.l1[c], &mut self.l2[c]] {
                if let Some((true, p)) = cache.remove(line) {
                    self.llc.mark_dirty(line, p);
                }
            }
        }
    }

    fn clean_line(&mut self, line: Line) -> bool {
        let mut was = false;
        for c in 0..self.l1.len() {
            was |= self.l1[c].clean(line);
            was |= self.l2[c].clean(line);
        }
        was | self.llc.clean(line)
    }

    fn flush_line(&mut self, line: Line) -> FlushResult {
        let (mut dirty, mut persistent) = (false, false);
        let privates = self.l1.iter_mut().chain(self.l2.iter_mut());
        for cache in privates.chain(std::iter::once(&mut self.llc)) {
            if let Some((d, p)) = cache.remove(line) {
                dirty |= d;
                persistent |= p;
            }
        }
        FlushResult {
            was_dirty: dirty,
            was_persistent: persistent,
        }
    }

    fn contains(&self, line: Line) -> bool {
        self.llc.contains(line)
            || self.l1.iter().any(|c| c.contains(line))
            || self.l2.iter().any(|c| c.contains(line))
    }

    fn drain_dirty(&mut self) -> Vec<Evicted> {
        let mut all: Vec<Evicted> = Vec::new();
        for cache in self.l1.iter_mut().chain(self.l2.iter_mut()) {
            all.extend(cache.drain_valid());
        }
        all.extend(self.llc.drain_valid());
        all.sort_by_key(|e| e.line.0);
        let mut out: Vec<Evicted> = Vec::new();
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sharer-mask hierarchy is observably the full-sweep algorithm:
    /// one op stream through both gives equal access results, clean and
    /// flush results, residency of each op's line and, at the end, of every
    /// line, and equal drained dirty residue.
    #[test]
    fn sharer_masks_match_the_full_sweep(
        ops in prop::collection::vec(op_strategy(), 1..400)
    ) {
        let cfg = SimConfig::small_for_tests();
        let mut h = Hierarchy::new(&cfg);
        let mut reference = SweepHierarchy::new(&cfg);
        for op in &ops {
            let line = match *op {
                Op::Access { line, .. } | Op::Clean { line } | Op::Flush { line } => line,
            };
            match *op {
                Op::Access { core, line, write, persistent } => {
                    let got = h.access(CoreId(core), Line(line), write, persistent);
                    let want = reference.access(core as usize, Line(line), write, persistent);
                    prop_assert_eq!(got, want, "access of line {} by core {}", line, core);
                }
                Op::Clean { line } => {
                    prop_assert_eq!(h.clean_line(Line(line)), reference.clean_line(Line(line)));
                }
                Op::Flush { line } => {
                    prop_assert_eq!(h.flush_line(Line(line)), reference.flush_line(Line(line)));
                }
            }
            prop_assert_eq!(h.contains(Line(line)), reference.contains(Line(line)));
        }
        for probe in (0..256).chain((256..64 * 32).filter(|l| l % 64 < 4)) {
            prop_assert_eq!(h.contains(Line(probe)), reference.contains(Line(probe)));
        }
        prop_assert_eq!(h.drain_dirty(), reference.drain_dirty());
    }
}
