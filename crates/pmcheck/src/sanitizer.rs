//! The persistency sanitizer.
//!
//! [`PersistencySanitizer`] subscribes to the persist-event stream
//! ([`simcore::persist`]) and, over the shadow state machine of
//! [`crate::shadow`], checks the ordering invariants the paper's correctness
//! argument rests on (§III-G, §IV):
//!
//! * **commit-before-payload** — a transaction's commit record must not
//!   become durable before every store of the transaction is durable;
//! * **unflushed-at-commit** — no line with the persistent bit set may still
//!   be volatile when its transaction's commit record persists;
//! * **gc-uncommitted** — GC must never migrate a version whose transaction
//!   never committed (first-writer-wins coalescing assumes a committed
//!   prefix);
//! * **dangling-mapping** — no mapping-table entry may point into a
//!   reclaimed OOP block;
//! * **recovery-uncommitted** — recovery must replay exactly the committed
//!   prefix;
//! * **redundant flushes** are counted separately as a traffic-accuracy
//!   signal (a flush of an already-clean or already-flushed line) and do not
//!   fail a run.
//!
//! Each violation carries the engine name, the simulated cycle, the line
//! address and the line's recent state-transition trace.

use std::sync::{Arc, Mutex};

use simcore::det::{DetHashMap, DetHashSet};
use simcore::persist::{Event, Probe, Subscriber};
use simcore::{Cycle, Line, TxId};

use crate::shadow::{LineState, ShadowLine};

/// Hard limit on violation records kept in memory (counts keep running).
pub const MAX_STORED_VIOLATIONS: usize = 64;

/// The class of a detected violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// Commit record durable before (part of) its payload.
    CommitBeforePayload,
    /// A persistent-bit line was still volatile at commit.
    UnflushedAtCommit,
    /// GC migrated a version of a transaction that never committed.
    GcUncommittedMigration,
    /// A mapping-table entry pointed into a reclaimed OOP block.
    DanglingMapping,
    /// Recovery replayed a transaction that never committed.
    RecoveryReplayUncommitted,
    /// A flush of a line that was already clean, flushed, or persisted.
    RedundantFlush,
}

impl ViolationKind {
    /// Every kind, in reporting order.
    pub const ALL: [ViolationKind; 6] = [
        ViolationKind::CommitBeforePayload,
        ViolationKind::UnflushedAtCommit,
        ViolationKind::GcUncommittedMigration,
        ViolationKind::DanglingMapping,
        ViolationKind::RecoveryReplayUncommitted,
        ViolationKind::RedundantFlush,
    ];

    /// Stable identifier used in summaries and the JSON export.
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::CommitBeforePayload => "commit_before_payload",
            ViolationKind::UnflushedAtCommit => "unflushed_at_commit",
            ViolationKind::GcUncommittedMigration => "gc_uncommitted_migration",
            ViolationKind::DanglingMapping => "dangling_mapping",
            ViolationKind::RecoveryReplayUncommitted => "recovery_replay_uncommitted",
            ViolationKind::RedundantFlush => "redundant_flush",
        }
    }

    /// Whether this kind fails a sanitized run (`RedundantFlush` is only a
    /// traffic-accuracy signal).
    pub fn is_hard(self) -> bool {
        !matches!(self, ViolationKind::RedundantFlush)
    }

    fn index(self) -> usize {
        ViolationKind::ALL
            .iter()
            .position(|k| *k == self)
            .expect("kind in ALL")
    }
}

/// One detected invariant violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Violation class.
    pub kind: ViolationKind,
    /// Engine under observation.
    pub engine: &'static str,
    /// Simulated cycle of detection.
    pub cycle: Cycle,
    /// Transaction involved (commit id for GC/recovery checks).
    pub tx: Option<u64>,
    /// Home line involved.
    pub line: Option<Line>,
    /// OOP block involved (mapping checks).
    pub block: Option<u32>,
    /// Recent state transitions of `line`, oldest first.
    pub trace: Vec<(Cycle, LineState)>,
    /// Human-readable context.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] engine={} cycle={}",
            self.kind.name(),
            self.engine,
            self.cycle
        )?;
        if let Some(tx) = self.tx {
            write!(f, " tx={tx}")?;
        }
        if let Some(line) = self.line {
            write!(f, " line={:#x}", line.base().0)?;
        }
        if let Some(block) = self.block {
            write!(f, " block={block}")?;
        }
        write!(f, " — {}", self.detail)?;
        if !self.trace.is_empty() {
            let parts: Vec<String> = self
                .trace
                .iter()
                .map(|(c, s)| format!("{c}:{}", s.name()))
                .collect();
            write!(f, " [trace {}]", parts.join(" → "))?;
        }
        Ok(())
    }
}

/// Aggregated result of a sanitized run (exported into the JSON metrics).
#[derive(Clone, Debug, Default)]
pub struct SanitizerSummary {
    /// Engine observed.
    pub engine: String,
    /// Total events observed.
    pub events: u64,
    /// Distinct cachelines tracked.
    pub lines_tracked: u64,
    /// Hard violations (fails the run when nonzero).
    pub violations: u64,
    /// Redundant flushes observed (traffic-accuracy signal, not a failure).
    pub redundant_flushes: u64,
    /// `(class, count)` for every class with a nonzero count, in
    /// [`ViolationKind::ALL`] order.
    pub by_class: Vec<(&'static str, u64)>,
    /// Formatted samples of the first few violations.
    pub samples: Vec<String>,
}

impl SanitizerSummary {
    /// Whether the run was free of hard violations.
    pub fn is_clean(&self) -> bool {
        self.violations == 0
    }
}

/// How far a transaction's store to one line has progressed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Payload {
    /// Stored, not yet flushed/persisted.
    Outstanding,
    /// Flushed, awaiting a fence.
    Pending,
    /// Durable.
    Durable,
}

/// Durability obligations of one open transaction.
#[derive(Debug, Default)]
struct TxObligations {
    /// Per home line (keyed by line index), the payload progress.
    lines: DetHashMap<u64, Payload>,
    /// Whether this transaction's commit record has been persisted.
    committed: bool,
}

/// Shadow-state checker for the persistency event stream.
///
/// Attach with [`PersistencySanitizer::shared`]:
///
/// ```
/// use pmcheck::PersistencySanitizer;
///
/// let (san, probe) = PersistencySanitizer::shared();
/// // system.attach_probe(probe);
/// // ... run ...
/// let summary = san.lock().unwrap().summary();
/// assert!(summary.is_clean());
/// # let _ = probe;
/// ```
#[derive(Debug, Default)]
pub struct PersistencySanitizer {
    engine: &'static str,
    lines: DetHashMap<u64, ShadowLine>,
    /// Lines currently in `FlushedPending` (so a fence is O(pending)).
    pending_fence: DetHashSet<u64>,
    /// Open transactions by full tx id.
    active: DetHashMap<u64, TxObligations>,
    /// Commit ids (truncated, as GC/recovery see them) that committed.
    committed: DetHashSet<u32>,
    /// Full tx ids that committed (late-payload detection).
    committed_full: DetHashSet<u64>,
    /// Mapping-table mirror: home line → newest OOP block.
    mirror: DetHashMap<u64, u32>,
    /// Reverse mirror: OOP block → mapped home lines.
    block_lines: DetHashMap<u32, DetHashSet<u64>>,
    violations: Vec<Violation>,
    counts: [u64; ViolationKind::ALL.len()],
    events: u64,
}

impl PersistencySanitizer {
    /// A fresh sanitizer.
    pub fn new() -> Self {
        PersistencySanitizer::default()
    }

    /// A fresh sanitizer behind a shared handle, plus the probe to attach
    /// to a `System` (and thus every engine the system hosts).
    #[allow(clippy::type_complexity)]
    pub fn shared() -> (Arc<Mutex<PersistencySanitizer>>, Probe) {
        let san = Arc::new(Mutex::new(PersistencySanitizer::new()));
        let probe = Probe::new(san.clone());
        (san, probe)
    }

    /// All stored violation records (capped at [`MAX_STORED_VIOLATIONS`]).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Count of hard violations (including any past the storage cap).
    pub fn hard_violations(&self) -> u64 {
        ViolationKind::ALL
            .iter()
            .filter(|k| k.is_hard())
            .map(|k| self.counts[k.index()])
            .sum()
    }

    /// Aggregates the run into a [`SanitizerSummary`].
    pub fn summary(&self) -> SanitizerSummary {
        let by_class: Vec<(&'static str, u64)> = ViolationKind::ALL
            .iter()
            .filter(|k| self.counts[k.index()] > 0)
            .map(|k| (k.name(), self.counts[k.index()]))
            .collect();
        SanitizerSummary {
            engine: self.engine.to_string(),
            events: self.events,
            lines_tracked: self.lines.len() as u64,
            violations: self.hard_violations(),
            redundant_flushes: self.counts[ViolationKind::RedundantFlush.index()],
            by_class,
            samples: self
                .violations
                .iter()
                .filter(|v| v.kind.is_hard())
                .take(5)
                .map(|v| v.to_string())
                .collect(),
        }
    }

    fn line(&mut self, line: Line) -> &mut ShadowLine {
        self.lines.entry(line.0).or_default()
    }

    fn report(&mut self, mut v: Violation) {
        v.engine = self.engine;
        self.counts[v.kind.index()] += 1;
        if self.violations.len() < MAX_STORED_VIOLATIONS {
            self.violations.push(v);
        }
    }

    fn trace_of(&self, line: Line) -> Vec<(Cycle, LineState)> {
        self.lines
            .get(&line.0)
            .map(|l| l.trace().to_vec())
            .unwrap_or_default()
    }
}

impl Subscriber for PersistencySanitizer {
    fn on(&mut self, ev: &Event<'_>, now: Cycle) -> bool {
        match *ev {
            Event::Engine(name) => self.engine = name,
            Event::TxBegin(_, tx) => self.tx_begin(tx),
            Event::TxStore(tx, line) => self.tx_store(tx, line, now),
            Event::VolatileStore(line) => self.volatile_store(line, now),
            // The eviction itself is not a durability event: the engine
            // decides what happens to the data (write home, buffer, drop)
            // and reports that as its own event.
            Event::EvictDirty(_, _) => self.events += 1,
            Event::TxCommitted(tx) => self.tx_committed(tx),
            Event::Crash => self.crash(),
            Event::PayloadWrite(tx, line) | Event::DataPersisted(tx, line) => {
                self.data_persisted(tx, line, now)
            }
            Event::HomeWrite(line) => self.home_write(line, now),
            Event::CommitRecord(tx) => self.commit_record(tx, now),
            Event::Slice(tx, block, lines, commit) => {
                for &line in lines {
                    self.data_persisted(tx, line, now);
                    self.map_insert(line, block);
                }
                if commit {
                    self.commit_record(tx, now);
                }
            }
            Event::GcMigrate(tx, line) => self.gc_migrate(tx, line, now),
            Event::GcHome(line) => self.map_remove(line),
            Event::RedirectedRead(line, block) => {
                self.redirected_read(line, block, now);
                self.map_remove(line);
            }
            Event::BlockReclaim(block) => self.block_reclaim(block, now),
            Event::MappingCleared => self.mapping_cleared(),
            Event::RegionCleared => self.region_cleared(),
            Event::RecoveryReplay(tx) => self.recovery_replay(tx, now),
            Event::Flush(line) => self.flush(line, now),
            Event::Fence => self.fence(now),
            // Valve-only events carry nothing the shadow tracks.
            Event::Payload
            | Event::Home
            | Event::Gc
            | Event::Reclaim
            | Event::Meta
            | Event::Recovery => {}
        }
        true
    }
}

/// One shadow-state transition per sanitizer-visible event kind; each
/// counts as one observed event.
impl PersistencySanitizer {
    fn tx_begin(&mut self, tx: TxId) {
        self.events += 1;
        self.active.entry(tx.0).or_default();
    }

    fn tx_store(&mut self, tx: TxId, line: Line, now: Cycle) {
        self.events += 1;
        self.pending_fence.remove(&line.0);
        self.line(line).set(now, LineState::DirtyPersistent);
        if let Some(ob) = self.active.get_mut(&tx.0) {
            ob.lines.insert(line.0, Payload::Outstanding);
        }
    }

    fn volatile_store(&mut self, line: Line, now: Cycle) {
        self.events += 1;
        self.pending_fence.remove(&line.0);
        self.line(line).set(now, LineState::DirtyVolatile);
    }

    fn data_persisted(&mut self, tx: TxId, line: Line, now: Cycle) {
        self.events += 1;
        self.pending_fence.remove(&line.0);
        self.line(line).set(now, LineState::Persisted);
        match self.active.get_mut(&tx.0) {
            Some(ob) if !ob.committed => {
                ob.lines.insert(line.0, Payload::Durable);
            }
            Some(_) => {
                let trace = self.trace_of(line);
                self.report(Violation {
                    kind: ViolationKind::CommitBeforePayload,
                    engine: "",
                    cycle: now,
                    tx: Some(tx.0),
                    line: Some(line),
                    block: None,
                    trace,
                    detail: "payload persisted after the commit record was already durable"
                        .to_string(),
                });
            }
            None if self.committed_full.contains(&tx.0) => {
                let trace = self.trace_of(line);
                self.report(Violation {
                    kind: ViolationKind::CommitBeforePayload,
                    engine: "",
                    cycle: now,
                    tx: Some(tx.0),
                    line: Some(line),
                    block: None,
                    trace,
                    detail: "payload persisted after its transaction fully committed".to_string(),
                });
            }
            None => {}
        }
    }

    fn home_write(&mut self, line: Line, now: Cycle) {
        self.events += 1;
        let l = self.line(line);
        match l.state() {
            LineState::DirtyVolatile => l.set(now, LineState::Clean),
            LineState::DirtyPersistent | LineState::FlushedPending => {
                l.set(now, LineState::Persisted)
            }
            LineState::Clean | LineState::Persisted => {}
        }
        self.pending_fence.remove(&line.0);
    }

    fn flush(&mut self, line: Line, now: Cycle) {
        self.events += 1;
        let state = self.line(line).state();
        match state {
            LineState::DirtyVolatile | LineState::DirtyPersistent => {
                self.line(line).set(now, LineState::FlushedPending);
                self.pending_fence.insert(line.0);
                for ob in self.active.values_mut() {
                    if let Some(p) = ob.lines.get_mut(&line.0) {
                        if *p == Payload::Outstanding {
                            *p = Payload::Pending;
                        }
                    }
                }
            }
            LineState::Clean | LineState::FlushedPending | LineState::Persisted => {
                let trace = self.trace_of(line);
                self.report(Violation {
                    kind: ViolationKind::RedundantFlush,
                    engine: "",
                    cycle: now,
                    tx: None,
                    line: Some(line),
                    block: None,
                    trace,
                    detail: format!("flush of a {} line", state.name()),
                });
            }
        }
    }

    fn fence(&mut self, now: Cycle) {
        self.events += 1;
        let pending: Vec<u64> = self.pending_fence.drain().collect();
        for l in pending {
            if let Some(sl) = self.lines.get_mut(&l) {
                if sl.state() == LineState::FlushedPending {
                    sl.set(now, LineState::Persisted);
                }
            }
        }
        for ob in self.active.values_mut() {
            for p in ob.lines.values_mut() {
                if *p == Payload::Pending {
                    *p = Payload::Durable;
                }
            }
        }
    }

    fn commit_record(&mut self, tx: TxId, now: Cycle) {
        self.events += 1;
        let mut offending: Vec<(u64, Payload)> = Vec::new();
        if let Some(ob) = self.active.get_mut(&tx.0) {
            if !ob.committed {
                ob.committed = true;
                offending = ob
                    .lines
                    .iter()
                    .filter(|(_, p)| **p != Payload::Durable)
                    .map(|(l, p)| (*l, *p))
                    .collect();
                offending.sort_unstable_by_key(|(l, _)| *l);
            }
        }
        for (l, p) in offending {
            let line = Line(l);
            let (kind, detail) = match p {
                Payload::Outstanding => (
                    ViolationKind::UnflushedAtCommit,
                    "persistent-bit line still volatile when the commit record persisted",
                ),
                Payload::Pending => (
                    ViolationKind::CommitBeforePayload,
                    "commit record persisted before the flushed payload was fenced",
                ),
                Payload::Durable => unreachable!("filtered above"),
            };
            let trace = self.trace_of(line);
            self.report(Violation {
                kind,
                engine: "",
                cycle: now,
                tx: Some(tx.0),
                line: Some(line),
                block: None,
                trace,
                detail: detail.to_string(),
            });
        }
        self.committed.insert(tx.0 as u32);
        self.committed_full.insert(tx.0);
    }

    fn tx_committed(&mut self, tx: TxId) {
        self.events += 1;
        self.active.remove(&tx.0);
    }

    fn gc_migrate(&mut self, tx: u32, line: Line, now: Cycle) {
        self.events += 1;
        if !self.committed.contains(&tx) {
            let trace = self.trace_of(line);
            self.report(Violation {
                kind: ViolationKind::GcUncommittedMigration,
                engine: "",
                cycle: now,
                tx: Some(u64::from(tx)),
                line: Some(line),
                block: None,
                trace,
                detail: "GC migrated a version whose transaction never committed".to_string(),
            });
        }
    }

    fn map_insert(&mut self, line: Line, block: u32) {
        self.events += 1;
        if let Some(old) = self.mirror.insert(line.0, block) {
            if old != block {
                if let Some(set) = self.block_lines.get_mut(&old) {
                    set.remove(&line.0);
                }
            }
        }
        self.block_lines.entry(block).or_default().insert(line.0);
    }

    fn map_remove(&mut self, line: Line) {
        self.events += 1;
        if let Some(block) = self.mirror.remove(&line.0) {
            if let Some(set) = self.block_lines.get_mut(&block) {
                set.remove(&line.0);
            }
        }
    }

    fn block_reclaim(&mut self, block: u32, now: Cycle) {
        self.events += 1;
        if let Some(set) = self.block_lines.remove(&block) {
            let mut lines: Vec<u64> = set.into_iter().collect();
            lines.sort_unstable();
            for l in lines {
                self.mirror.remove(&l);
                let line = Line(l);
                let trace = self.trace_of(line);
                self.report(Violation {
                    kind: ViolationKind::DanglingMapping,
                    engine: "",
                    cycle: now,
                    tx: None,
                    line: Some(line),
                    block: Some(block),
                    trace,
                    detail: "mapping entry still pointed into the reclaimed OOP block".to_string(),
                });
            }
        }
    }

    fn redirected_read(&mut self, line: Line, block: u32, now: Cycle) {
        self.events += 1;
        if self.mirror.get(&line.0) != Some(&block) {
            let trace = self.trace_of(line);
            self.report(Violation {
                kind: ViolationKind::DanglingMapping,
                engine: "",
                cycle: now,
                tx: None,
                line: Some(line),
                block: Some(block),
                trace,
                detail: "redirected read through a mapping entry the sanitizer believes dead"
                    .to_string(),
            });
        }
    }

    fn mapping_cleared(&mut self) {
        self.events += 1;
        self.mirror.clear();
        self.block_lines.clear();
    }

    fn region_cleared(&mut self) {
        self.events += 1;
        self.block_lines.clear();
    }

    fn recovery_replay(&mut self, tx: u32, now: Cycle) {
        self.events += 1;
        if !self.committed.contains(&tx) {
            self.report(Violation {
                kind: ViolationKind::RecoveryReplayUncommitted,
                engine: "",
                cycle: now,
                tx: Some(u64::from(tx)),
                line: None,
                block: None,
                trace: Vec::new(),
                detail: "recovery replayed a transaction that never committed".to_string(),
            });
        }
    }

    fn crash(&mut self) {
        self.events += 1;
        // Volatile machine state is gone: open transactions abort, cached
        // dirty data vanishes, so the durable home copy is trivially the
        // newest *surviving* value for every line.
        self.active.clear();
        self.pending_fence.clear();
        for sl in self.lines.values_mut() {
            if sl.state() != LineState::Clean {
                sl.set(0, LineState::Clean);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::CoreId;

    fn san() -> PersistencySanitizer {
        let mut s = PersistencySanitizer::new();
        ev(&mut s, Event::Engine("test"), 0);
        s
    }

    /// Feeds one event; the sanitizer never vetoes persistence.
    fn ev(s: &mut PersistencySanitizer, e: Event<'_>, now: Cycle) {
        assert!(s.on(&e, now));
    }

    #[test]
    fn clean_flush_fence_commit_sequence_passes() {
        let mut s = san();
        let tx = TxId(1);
        ev(&mut s, Event::TxBegin(CoreId(0), tx), 0);
        ev(&mut s, Event::TxStore(tx, Line(4)), 10);
        ev(&mut s, Event::Flush(Line(4)), 20);
        ev(&mut s, Event::Fence, 30);
        ev(&mut s, Event::CommitRecord(tx), 40);
        ev(&mut s, Event::TxCommitted(tx), 50);
        assert_eq!(s.hard_violations(), 0, "{:?}", s.violations());
        assert!(s.summary().is_clean());
    }

    #[test]
    fn engine_side_persist_counts_as_durable() {
        let mut s = san();
        let tx = TxId(1);
        ev(&mut s, Event::TxBegin(CoreId(0), tx), 0);
        ev(&mut s, Event::TxStore(tx, Line(4)), 10);
        ev(&mut s, Event::DataPersisted(tx, Line(4)), 20);
        ev(&mut s, Event::CommitRecord(tx), 30);
        ev(&mut s, Event::TxCommitted(tx), 40);
        assert_eq!(s.hard_violations(), 0);
    }

    #[test]
    fn unflushed_line_at_commit_is_flagged() {
        let mut s = san();
        let tx = TxId(7);
        ev(&mut s, Event::TxBegin(CoreId(0), tx), 0);
        ev(&mut s, Event::TxStore(tx, Line(3)), 10);
        ev(&mut s, Event::CommitRecord(tx), 50);
        assert_eq!(s.hard_violations(), 1);
        let v = &s.violations()[0];
        assert_eq!(v.kind, ViolationKind::UnflushedAtCommit);
        assert_eq!(v.engine, "test");
        assert_eq!(v.cycle, 50);
        assert_eq!(v.line, Some(Line(3)));
        assert_eq!(v.tx, Some(7));
        assert!(!v.trace.is_empty());
    }

    #[test]
    fn flushed_but_unfenced_commit_is_commit_before_payload() {
        let mut s = san();
        let tx = TxId(2);
        ev(&mut s, Event::TxBegin(CoreId(0), tx), 0);
        ev(&mut s, Event::TxStore(tx, Line(9)), 5);
        ev(&mut s, Event::Flush(Line(9)), 6);
        ev(&mut s, Event::CommitRecord(tx), 7);
        assert_eq!(s.hard_violations(), 1);
        assert_eq!(s.violations()[0].kind, ViolationKind::CommitBeforePayload);
    }

    #[test]
    fn late_payload_after_commit_is_flagged() {
        let mut s = san();
        let tx = TxId(2);
        ev(&mut s, Event::TxBegin(CoreId(0), tx), 0);
        ev(&mut s, Event::TxStore(tx, Line(1)), 5);
        ev(&mut s, Event::DataPersisted(tx, Line(1)), 6);
        ev(&mut s, Event::CommitRecord(tx), 7);
        ev(&mut s, Event::DataPersisted(tx, Line(2)), 8);
        assert_eq!(s.hard_violations(), 1);
        assert_eq!(s.violations()[0].kind, ViolationKind::CommitBeforePayload);
    }

    #[test]
    fn gc_of_uncommitted_tx_is_flagged() {
        let mut s = san();
        ev(&mut s, Event::CommitRecord(TxId(5)), 10);
        ev(&mut s, Event::GcMigrate(5, Line(1)), 20);
        assert_eq!(s.hard_violations(), 0);
        ev(&mut s, Event::GcMigrate(6, Line(2)), 30);
        assert_eq!(s.hard_violations(), 1);
        assert_eq!(
            s.violations()[0].kind,
            ViolationKind::GcUncommittedMigration
        );
    }

    #[test]
    fn reclaiming_a_mapped_block_is_flagged() {
        let mut s = san();
        ev(
            &mut s,
            Event::Slice(TxId(0), 3, &[Line(1), Line(2)], false),
            0,
        );
        ev(&mut s, Event::GcHome(Line(1)), 2);
        ev(&mut s, Event::BlockReclaim(3), 5);
        assert_eq!(s.hard_violations(), 1);
        let v = &s.violations()[0];
        assert_eq!(v.kind, ViolationKind::DanglingMapping);
        assert_eq!(v.line, Some(Line(2)));
        assert_eq!(v.block, Some(3));
        // The stale entry was dropped, so a later reclaim is quiet.
        ev(&mut s, Event::BlockReclaim(3), 6);
        assert_eq!(s.hard_violations(), 1);
    }

    #[test]
    fn redirected_read_through_dead_entry_is_flagged() {
        let mut s = san();
        ev(&mut s, Event::Slice(TxId(0), 3, &[Line(1)], false), 0);
        ev(&mut s, Event::RedirectedRead(Line(1), 3), 1);
        assert_eq!(s.hard_violations(), 0);
        // The first read consumed the entry.
        ev(&mut s, Event::RedirectedRead(Line(1), 3), 3);
        assert_eq!(s.hard_violations(), 1);
    }

    #[test]
    fn recovery_replay_of_uncommitted_is_flagged() {
        let mut s = san();
        ev(&mut s, Event::CommitRecord(TxId(4)), 0);
        ev(&mut s, Event::RecoveryReplay(4), 10);
        ev(&mut s, Event::RecoveryReplay(9), 11);
        assert_eq!(s.hard_violations(), 1);
        assert_eq!(
            s.violations()[0].kind,
            ViolationKind::RecoveryReplayUncommitted
        );
    }

    #[test]
    fn redundant_flush_is_soft() {
        let mut s = san();
        ev(&mut s, Event::VolatileStore(Line(1)), 0);
        ev(&mut s, Event::Flush(Line(1)), 1);
        ev(&mut s, Event::Flush(Line(1)), 2); // already FlushedPending
        ev(&mut s, Event::Fence, 3);
        ev(&mut s, Event::Flush(Line(1)), 4); // already Persisted
        let sum = s.summary();
        assert_eq!(sum.violations, 0);
        assert_eq!(sum.redundant_flushes, 2);
        assert!(sum.is_clean());
        assert_eq!(sum.by_class, vec![("redundant_flush", 2)]);
    }

    #[test]
    fn crash_resets_obligations() {
        let mut s = san();
        let tx = TxId(1);
        ev(&mut s, Event::TxBegin(CoreId(0), tx), 0);
        ev(&mut s, Event::TxStore(tx, Line(1)), 1);
        ev(&mut s, Event::Crash, 0);
        // The aborted transaction imposes no obligations; a new transaction
        // with a proper protocol is clean.
        let tx2 = TxId(2);
        ev(&mut s, Event::TxBegin(CoreId(0), tx2), 10);
        ev(&mut s, Event::TxStore(tx2, Line(1)), 11);
        ev(&mut s, Event::DataPersisted(tx2, Line(1)), 12);
        ev(&mut s, Event::CommitRecord(tx2), 13);
        assert_eq!(s.hard_violations(), 0);
    }

    #[test]
    fn violation_storage_is_capped_but_counts_run_on() {
        let mut s = san();
        for i in 0..(MAX_STORED_VIOLATIONS as u64 + 10) {
            ev(&mut s, Event::GcMigrate(1000 + i as u32, Line(i)), i);
        }
        assert_eq!(s.violations().len(), MAX_STORED_VIOLATIONS);
        assert_eq!(s.hard_violations(), MAX_STORED_VIOLATIONS as u64 + 10);
    }

    #[test]
    fn summary_reports_engine_and_samples() {
        let mut s = san();
        ev(&mut s, Event::GcMigrate(42, Line(1)), 7);
        let sum = s.summary();
        assert_eq!(sum.engine, "test");
        assert_eq!(sum.violations, 1);
        assert_eq!(sum.samples.len(), 1);
        assert!(sum.samples[0].contains("gc_uncommitted_migration"));
        assert!(sum.samples[0].contains("engine=test"));
    }
}
