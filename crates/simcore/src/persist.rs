//! The persist-event stream: one vocabulary for every durable action.
//!
//! Engines and the `System` describe what they do to durable state as
//! [`Event`]s and emit each one exactly once into a [`Probe`]. Whatever is
//! subscribed behind the probe interprets the stream:
//!
//! * the persistency sanitizer (crate `pmcheck`) shadows every line's
//!   durability state and checks the §III-G ordering invariants;
//! * the crash [`Valve`] counts the events that carry a crash-point
//!   [`Kind`] and, at a pre-armed cutoff, reports the tripping event and
//!   everything after it non-durable.
//!
//! [`Probe::emit`] returns the persist verdict: engines gate the durable
//! mutation an event stands for (a store write, a durable `Vec` push) on
//! it, and the store's kill switch ([`Probe::is_open`]) drops every write
//! once a valve has closed. Together these freeze the byte image NVM would
//! hold had the machine lost power at that event. Only the valve ever says
//! no; the sanitizer always returns `true`.
//!
//! Each variant's doc names the crash-point kind it ticks (if any) and what
//! the sanitizer does with it. Variants marked *valve-only* carry no
//! information the sanitizer shadows; they exist so that durable actions
//! with no sanitizer meaning still cut the crash schedule at the right
//! place.
//!
//! Determinism contract: a detached probe (the default everywhere) is a
//! single predicted `None` branch per event with no allocation, lock or
//! call, and subscribers only observe — an attached probe changes *which
//! writes survive*, never *when anything happens*. Engines emit on the
//! host-state paths that mirror durability, never on the timing paths
//! (`device.access`, `write_burst`).

use std::sync::{Arc, Mutex};

use crate::addr::Line;
use crate::ids::{CoreId, TxId};
use crate::time::Cycle;

/// The taxonomy of crash points: the durable actions a crash can land
/// between.
///
/// The harness crashes *before* the ticking event whose index equals the
/// armed cutoff (the tripping event itself does not persist).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// Transaction payload reaching a durable log/slice/shadow location.
    Payload = 0,
    /// A commit record (or equivalent durable commit point) landing.
    Commit = 1,
    /// An in-place home-region write (eviction write-back, steal, native).
    Home = 2,
    /// One GC/checkpoint migration step (home write of a migrated line).
    Gc = 3,
    /// Block/log reclamation (header reset, log truncation marker).
    Reclaim = 4,
    /// Metadata updates: address-slice appends, tombstones, tail-bit clears.
    Meta = 5,
    /// A write performed by recovery itself (for nested-crash testing).
    Recovery = 6,
}

impl Kind {
    /// Every kind, in `repr` order (indexes the per-kind counters).
    pub const ALL: [Kind; 7] = [
        Kind::Payload,
        Kind::Commit,
        Kind::Home,
        Kind::Gc,
        Kind::Reclaim,
        Kind::Meta,
        Kind::Recovery,
    ];

    /// Stable identifier used in reports and reproducer JSON.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Payload => "payload",
            Kind::Commit => "commit",
            Kind::Home => "home",
            Kind::Gc => "gc",
            Kind::Reclaim => "reclaim",
            Kind::Meta => "meta",
            Kind::Recovery => "recovery",
        }
    }
}

/// One persist-stream event.
///
/// Events up to [`Crash`](Event::Crash) come from the `System` (the
/// architectural stream); the rest come from engines. Each doc names the
/// fields in order.
#[derive(Clone, Copy, Debug)]
pub enum Event<'a> {
    /// `(engine)`: the observed engine identifies itself (once, at attach
    /// time). No tick. Sanitizer: names the engine in violations; not
    /// counted as an event.
    Engine(&'static str),
    /// `(core, tx)`: a failure-atomic region opened. No tick. Sanitizer:
    /// opens the transaction's obligations.
    TxBegin(CoreId, TxId),
    /// `(tx, line)`: a transactional store dirtied `line` (persistent bit
    /// set). No tick. Sanitizer: the line becomes dirty-persistent, an
    /// obligation of `tx`.
    TxStore(TxId, Line),
    /// `(line)`: a non-transactional store dirtied `line`. No tick.
    /// Sanitizer: the line becomes dirty-volatile.
    VolatileStore(Line),
    /// `(line, persistent)`: a dirty line left the LLC toward the engine.
    /// No tick. Sanitizer: counted only — the engine reports what the
    /// eviction persisted.
    EvictDirty(Line, bool),
    /// `(tx)`: the system-level end of the failure-atomic region. No tick.
    /// Sanitizer: retires the transaction's obligations.
    TxCommitted(TxId),
    /// Simulated power loss. No tick. Sanitizer: open transactions abort
    /// and every tracked line is clean again.
    Crash,
    /// `(tx, line)`: the engine wrote `tx`'s newest data for `line` to a
    /// durable location (redo/LSM log record, OSP shadow copy, undo's
    /// ordered home write). Ticks **payload**. Sanitizer: the line's
    /// payload is durable.
    PayloadWrite(TxId, Line),
    /// `(tx, line)`: `tx`'s data for `line` is durable by an action ticked
    /// elsewhere (an earlier steal write-back, LAD's accepted burst,
    /// HOOP-MC's acknowledged prepares). No tick. Sanitizer: as
    /// [`PayloadWrite`](Event::PayloadWrite).
    DataPersisted(TxId, Line),
    /// `(line)`: a line image written to its home location. Ticks
    /// **home**. Sanitizer: dirty lines become clean or persisted.
    HomeWrite(Line),
    /// `(tx)`: `tx`'s commit record became durable — the commit point.
    /// Ticks **commit** (the valve records `tx` as committed). Sanitizer:
    /// every store of `tx` must already be durable.
    CommitRecord(TxId),
    /// `(tx, block, lines, commit)`: one HOOP data slice of `tx` persisted
    /// into OOP block `block`; `lines` holds the home line of every word,
    /// in slice order (repeats kept). Ticks **commit** for a tail slice
    /// (`commit`, whose CRC seals payload and commit flag together), else
    /// **payload**. Sanitizer: per word, the payload is durable and the
    /// mapping table redirects the line to `block`; then, for a tail
    /// slice, the commit record.
    Slice(TxId, u32, &'a [Line], bool),
    /// `(tx, line)`: GC is about to migrate a version of commit id `tx`
    /// (as GC reads it from media) for `line`. No tick. Sanitizer: `tx`
    /// must have committed.
    GcMigrate(u32, Line),
    /// `(line)`: HOOP GC wrote the migrated image of `line` home and
    /// dropped its mapping entry. Ticks **gc**. Sanitizer: the mapping
    /// entry is gone.
    GcHome(Line),
    /// `(line, block)`: an LLC miss for `line` was served through the
    /// mapping table from OOP block `block`, consuming the entry. No tick.
    /// Sanitizer: the entry must be live; it is then dropped.
    RedirectedRead(Line, u32),
    /// `(block)`: OOP block `block` was reclaimed. Ticks **reclaim**.
    /// Sanitizer: no mapping entry may still point into it.
    BlockReclaim(u32),
    /// The mapping table was cleared wholesale (crash or recovery). No
    /// tick. Sanitizer: its mapping mirror is cleared.
    MappingCleared,
    /// The OOP region was reclaimed wholesale (recovery). Ticks
    /// **reclaim**. Sanitizer: every block's line set is dropped.
    RegionCleared,
    /// `(tx)`: recovery replays the slices of commit id `tx`. No tick.
    /// Sanitizer: `tx` must have committed.
    RecoveryReplay(u32),
    /// `(line)`: an explicit cacheline flush (durable at the next fence).
    /// No tick. Sanitizer: the line is pending; a flush of a clean,
    /// pending or persisted line counts as redundant.
    Flush(Line),
    /// An ordering fence completed. No tick. Sanitizer: every pending line
    /// is durable.
    Fence,
    /// *Valve-only.* Ticks **payload**: payload bytes (an undo before-image,
    /// an OSP eager shadow copy, a HOOP-MC slice) whose durability the
    /// sanitizer learns about from a later event, if at all.
    Payload,
    /// *Valve-only.* Ticks **home**: a home write of an engine the
    /// sanitizer does not shadow (Ideal's eviction write-back).
    Home,
    /// *Valve-only.* Ticks **gc**: one checkpoint or log-GC line migrated
    /// home (redo, LSM, HOOP-MC).
    Gc,
    /// *Valve-only.* Ticks **reclaim**: a log truncation or region cleanup.
    Reclaim,
    /// *Valve-only.* Ticks **meta**: address-slice appends, tombstones,
    /// tail-bit clears, HOOP-MC prepare records.
    Meta,
    /// *Valve-only.* Ticks **recovery**: one write performed by recovery.
    Recovery,
}

impl Event<'_> {
    /// The crash-point kind this event ticks, if any.
    pub fn kind(&self) -> Option<Kind> {
        match self {
            Event::PayloadWrite(..) | Event::Slice(.., false) | Event::Payload => {
                Some(Kind::Payload)
            }
            Event::CommitRecord(_) | Event::Slice(.., true) => Some(Kind::Commit),
            Event::HomeWrite(_) | Event::Home => Some(Kind::Home),
            Event::GcHome(_) | Event::Gc => Some(Kind::Gc),
            Event::BlockReclaim(_) | Event::RegionCleared | Event::Reclaim => Some(Kind::Reclaim),
            Event::Meta => Some(Kind::Meta),
            Event::Recovery => Some(Kind::Recovery),
            _ => None,
        }
    }
}

/// A consumer of the persist-event stream.
///
/// Implementations must be [`Send`]: the experiment runner moves each
/// cell's system (and whatever is subscribed to it) to a worker thread.
pub trait Subscriber: Send {
    /// Observes one event at simulated cycle `now`; returns whether the
    /// durable action it describes persists.
    fn on(&mut self, ev: &Event<'_>, now: Cycle) -> bool;

    /// Whether durable writes still land at all (the store's kill switch).
    /// Only a tripped [`Valve`] says no.
    fn is_open(&self) -> bool {
        true
    }
}

/// Shared, cloneable handle to an optional subscriber; `Default` is
/// detached.
///
/// `System`, every engine and every durable store hold clones, so events
/// reach the one subscriber from the machine layer and engine internals
/// alike.
#[derive(Clone, Default)]
pub struct Probe(Option<Arc<Mutex<dyn Subscriber>>>);

impl std::fmt::Debug for Probe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Probe")
            .field(&self.0.as_ref().map(|_| "attached"))
            .finish()
    }
}

impl Probe {
    /// Wraps a subscriber in an attached probe.
    pub fn new(sub: Arc<Mutex<dyn Subscriber>>) -> Self {
        Probe(Some(sub))
    }

    /// A detached probe (every event persists, nothing observes).
    pub fn detached() -> Self {
        Probe(None)
    }

    /// Whether a subscriber is attached. Engines use this to skip loops
    /// that exist only to emit notifications.
    #[inline(always)]
    pub fn is_attached(&self) -> bool {
        self.0.is_some()
    }

    /// Emits `ev` at cycle `now`; returns whether its durable action
    /// persists (always `true` when detached).
    ///
    /// The guard inlines into the caller as one `None` check; the locked
    /// dispatch stays out of line, so detached runs pay a single branch
    /// per durable action.
    #[inline(always)]
    pub fn emit(&self, ev: Event<'_>, now: Cycle) -> bool {
        #[cold]
        #[inline(never)]
        fn dispatch(s: &Mutex<dyn Subscriber>, ev: &Event<'_>, now: Cycle) -> bool {
            s.lock().expect("probe subscriber poisoned").on(ev, now)
        }
        match &self.0 {
            None => true,
            Some(s) => dispatch(s, &ev, now),
        }
    }

    /// Whether durable writes still land (detached probes are open).
    #[inline(always)]
    pub fn is_open(&self) -> bool {
        #[cold]
        #[inline(never)]
        fn dispatch(s: &Mutex<dyn Subscriber>) -> bool {
            s.lock().expect("probe subscriber poisoned").is_open()
        }
        match &self.0 {
            None => true,
            Some(s) => dispatch(s),
        }
    }
}

/// The crash-point scheduler: counts ticking events and closes at an armed
/// cutoff.
///
/// It also records which transactions' commit records became durable
/// before the cut, giving the crash-test oracle the ground-truth committed
/// prefix without trusting the engine under test.
#[derive(Debug)]
pub struct Valve {
    /// Next event index to hand out.
    counter: u64,
    /// First event index that does NOT persist.
    cutoff: u64,
    /// Kind of the event that reached the cutoff; while set, the valve is
    /// closed and kills all later durability.
    trip_kind: Option<Kind>,
    /// Per-kind event counts (taxonomy statistics for reports).
    kind_counts: [u64; 7],
    /// `(tx, event index)` of every durable commit record, in event order.
    commits: Vec<(u64, u64)>,
}

impl Valve {
    /// A valve that closes at event index `cutoff` (events `0..cutoff`
    /// persist; the event at `cutoff` and everything later do not). Use
    /// `u64::MAX` for a counting dry run that never trips.
    pub fn armed(cutoff: u64) -> Self {
        Valve {
            counter: 0,
            cutoff,
            trip_kind: None,
            kind_counts: [0; 7],
            commits: Vec::new(),
        }
    }

    /// An armed valve behind a shared handle, plus the probe to attach.
    #[allow(clippy::type_complexity)]
    pub fn shared(cutoff: u64) -> (Arc<Mutex<Valve>>, Probe) {
        let valve = Arc::new(Mutex::new(Valve::armed(cutoff)));
        let probe = Probe::new(valve.clone());
        (valve, probe)
    }

    /// Whether the valve has reached its cutoff.
    pub fn tripped(&self) -> bool {
        self.trip_kind.is_some()
    }

    /// Total ticking events so far.
    pub fn total(&self) -> u64 {
        self.counter
    }

    /// Per-kind event counts in [`Kind::ALL`] order.
    pub fn kind_counts(&self) -> [u64; 7] {
        self.kind_counts
    }

    /// The kind of the event that tripped the valve, if any.
    pub fn trip_kind(&self) -> Option<Kind> {
        self.trip_kind
    }

    /// `(tx, event index)` of every commit record durable before the cut.
    pub fn committed(&self) -> &[(u64, u64)] {
        &self.commits
    }

    /// Re-opens a tripped valve with `extra` more durable events (nested
    /// crashes: let recovery run partway, then cut again).
    pub fn rearm(&mut self, extra: u64) {
        self.cutoff = self.counter.saturating_add(extra);
        self.trip_kind = None;
    }

    /// Re-opens the valve permanently (recovery after the final crash runs
    /// with full durability).
    pub fn open_fully(&mut self) {
        self.rearm(u64::MAX);
    }
}

impl Subscriber for Valve {
    fn on(&mut self, ev: &Event<'_>, _now: Cycle) -> bool {
        let Some(kind) = ev.kind() else {
            return true;
        };
        let idx = self.counter;
        self.counter += 1;
        self.kind_counts[kind as usize] += 1;
        if self.tripped() {
            return false;
        }
        if idx >= self.cutoff {
            self.trip_kind = Some(kind);
            return false;
        }
        if let Event::CommitRecord(tx) | Event::Slice(tx, .., true) = *ev {
            self.commits.push((tx.0, idx));
        }
        true
    }

    fn is_open(&self) -> bool {
        !self.tripped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(p: &Probe, ev: Event<'_>) -> bool {
        p.emit(ev, 0)
    }

    #[test]
    fn detached_probe_is_transparent() {
        let p = Probe::detached();
        assert!(!p.is_attached());
        assert!(tick(&p, Event::Payload));
        assert!(tick(&p, Event::CommitRecord(TxId(1))));
        assert!(p.is_open());
    }

    #[test]
    fn trips_exactly_at_cutoff() {
        let (v, p) = Valve::shared(2);
        assert!(tick(&p, Event::Payload));
        assert!(tick(&p, Event::Payload));
        assert!(!v.lock().unwrap().tripped());
        assert!(!tick(&p, Event::CommitRecord(TxId(1))));
        assert!(v.lock().unwrap().tripped());
        assert!(!p.is_open());
        assert_eq!(v.lock().unwrap().trip_kind(), Some(Kind::Commit));
        // Everything after the trip is dropped too.
        assert!(!tick(&p, Event::Payload));
        assert!(v.lock().unwrap().committed().is_empty());
    }

    #[test]
    fn records_durable_commits_only() {
        let (v, p) = Valve::shared(3);
        assert!(tick(&p, Event::Payload));
        assert!(tick(&p, Event::CommitRecord(TxId(7))));
        assert!(tick(&p, Event::Payload));
        let lines = [Line(1), Line(1)];
        assert!(!tick(&p, Event::Slice(TxId(8), 0, &lines, true)));
        assert_eq!(v.lock().unwrap().committed(), &[(7, 1)]);
    }

    #[test]
    fn unticked_events_pass_without_counting() {
        let (v, p) = Valve::shared(0);
        assert!(tick(&p, Event::TxStore(TxId(1), Line(3))));
        assert!(tick(&p, Event::DataPersisted(TxId(1), Line(3))));
        assert!(tick(&p, Event::Fence));
        assert_eq!(v.lock().unwrap().total(), 0);
        assert!(p.is_open());
    }

    #[test]
    fn dry_run_counts_without_tripping() {
        let (v, p) = Valve::shared(u64::MAX);
        for _ in 0..100 {
            assert!(tick(&p, Event::Gc));
        }
        let v = v.lock().unwrap();
        assert_eq!(v.total(), 100);
        assert!(!v.tripped());
        assert_eq!(v.kind_counts()[Kind::Gc as usize], 100);
    }

    #[test]
    fn rearm_reopens_for_nested_crashes() {
        let (v, p) = Valve::shared(1);
        assert!(tick(&p, Event::Payload));
        assert!(!tick(&p, Event::Recovery));
        assert!(v.lock().unwrap().tripped());
        v.lock().unwrap().rearm(2);
        assert!(p.is_open());
        assert!(tick(&p, Event::Recovery));
        assert!(tick(&p, Event::Recovery));
        assert!(!tick(&p, Event::Recovery));
        assert!(v.lock().unwrap().tripped());
        v.lock().unwrap().open_fully();
        assert!(tick(&p, Event::Recovery));
        assert!(!v.lock().unwrap().tripped());
    }

    #[test]
    fn clones_share_the_subscriber() {
        let (v, p) = Valve::shared(1);
        let peer = p.clone();
        assert!(tick(&peer, Event::Payload));
        assert!(!tick(&peer, Event::Payload));
        assert!(!p.is_open());
        assert_eq!(v.lock().unwrap().total(), 2);
    }
}
