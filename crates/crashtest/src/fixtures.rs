//! Deliberately broken engines that the harness must convict.
//!
//! These are negative controls for the whole pipeline: if the valve, the
//! oracle, or the shrinker ever regress into vacuous passes, these fixtures
//! catch it. Each engine contains exactly one classic crash-consistency bug
//! and is otherwise correct, so the conviction must come with the right
//! attribution:
//!
//! * [`CommitFirstEngine`] persists the commit record *before* the payload
//!   log records — a crash between them recovers a committed transaction
//!   with no effects ([`MissingCommittedEffect`]).
//! * [`EagerGcEngine`] migrates data home at store time, before commit — a
//!   crash after the migration but before the commit record leaves
//!   uncommitted data visible ([`UncommittedEffectVisible`]).
//! * [`MediaBlindEngine`] ignores the media verdict on recovery reads — an
//!   uncorrectable log line replays deterministic garbage into the home
//!   image, which the oracle attributes as [`UeDataLoss`].
//!
//! All are crash-free-correct (and `MediaBlindEngine` additionally
//! fault-free-correct): with no fault injected, recovery rebuilds exactly
//! the committed image, so only the crash/media harness can tell them from
//! a sound engine.
//!
//! [`MissingCommittedEffect`]: crate::oracle::ViolationKind::MissingCommittedEffect
//! [`UncommittedEffectVisible`]: crate::oracle::ViolationKind::UncommittedEffectVisible
//! [`UeDataLoss`]: crate::oracle::ViolationKind::UeDataLoss

use engines::system::System;
use engines::traits::{
    CommitOutcome, EngineProperties, EngineStats, Level, MissFill, PersistenceEngine,
    RecoveryReport,
};
use nvm::{MediaModel, NvmDevice, Op, PersistentStore, TrafficClass};
use simcore::addr::CACHE_LINE_BYTES;
use simcore::config::MediaConfig;
use simcore::persist::{Event, Probe};
use simcore::{CoreId, Cycle, DetHashMap, DetHashSet, Line, PAddr, SimConfig, TxId};

use crate::harness::Harness;
use crate::oracle::OracleMode;

/// One durable log record: `(tx, addr, bytes)`.
type LogRecord = (u64, u64, Vec<u8>);

/// Shared scaffolding of the two fixtures: a redo-style engine whose only
/// difference is *when* things reach durability.
struct FixtureBase {
    device: NvmDevice,
    store: PersistentStore,
    stats: EngineStats,
    probe: Probe,
    next_tx: u64,
    /// Volatile write buffer of open transactions (lost on crash).
    active: DetHashMap<u64, Vec<(u64, Vec<u8>)>>,
    /// Durable redo log (every push is valve-gated).
    log: Vec<LogRecord>,
    /// Durable commit records (every push is valve-gated).
    committed: Vec<u64>,
}

impl FixtureBase {
    fn new(cfg: &SimConfig) -> Self {
        FixtureBase {
            device: NvmDevice::new(cfg.nvm, cfg.energy),
            store: PersistentStore::new(),
            stats: EngineStats::default(),
            probe: Probe::detached(),
            next_tx: 1,
            active: DetHashMap::default(),
            log: Vec::new(),
            committed: Vec::new(),
        }
    }

    fn tx_begin(&mut self) -> TxId {
        let id = TxId(self.next_tx);
        self.next_tx += 1;
        self.active.insert(id.0, Vec::new());
        id
    }

    fn buffer_store(&mut self, tx: TxId, addr: PAddr, data: &[u8]) {
        self.active
            .get_mut(&tx.0)
            .expect("store outside open transaction")
            .push((addr.0, data.to_vec()));
    }

    fn miss(&mut self, line: Line, now: Cycle) -> MissFill {
        let out = self.device.access(
            now,
            line.base(),
            CACHE_LINE_BYTES,
            Op::Read,
            TrafficClass::Data,
        );
        let latency = out.latency(now);
        self.stats.misses_served.inc();
        self.stats.miss_memory_loads.inc();
        self.stats.miss_service_cycles.add(latency);
        MissFill { latency }
    }

    /// Evictions of transactional (persistent-bit) lines are swallowed —
    /// both fixtures keep transactional data out-of-place until replay.
    /// Ordinary volatile dirt writes back in place, like the native engine.
    fn evict(&mut self, line: Line, persistent: bool, line_data: &[u8], now: Cycle) {
        if persistent {
            return;
        }
        self.device.access(
            now,
            line.base(),
            CACHE_LINE_BYTES,
            Op::Write,
            TrafficClass::Data,
        );
        if self.probe.emit(Event::Home, now) {
            self.store.write_bytes(line.base(), line_data);
        }
    }

    fn crash(&mut self) {
        self.active.clear();
    }

    /// Redo recovery: replay every log record of a committed transaction,
    /// in log order. Idempotent — the log is never truncated here, so a
    /// nested crash mid-replay just replays again.
    fn recover(&mut self, threads: usize) -> RecoveryReport {
        let committed: DetHashSet<u64> = self.committed.iter().copied().collect();
        let mut replayed: DetHashSet<u64> = DetHashSet::default();
        let mut written = 0u64;
        for (tx, addr, data) in &self.log {
            if !committed.contains(tx) {
                continue;
            }
            replayed.insert(*tx);
            written += data.len() as u64;
            if self.probe.emit(Event::Recovery, 0) {
                self.store.write_bytes(PAddr(*addr), data);
            }
        }
        RecoveryReport {
            modeled_ms: 0.0,
            bytes_scanned: self.log.iter().map(|(_, _, d)| 16 + d.len() as u64).sum(),
            bytes_written: written,
            txs_replayed: replayed.len() as u64,
            threads,
        }
    }

    fn attach_probe(&mut self, probe: Probe) {
        self.store.attach_valve(probe.clone());
        self.probe = probe;
    }
}

macro_rules! delegate_fixture_common {
    () => {
        fn properties(&self) -> EngineProperties {
            EngineProperties {
                read_latency: Level::Low,
                on_critical_path: true,
                requires_flush_fence: false,
                write_traffic: Level::Medium,
            }
        }

        fn init_home(&mut self, addr: PAddr, data: &[u8]) {
            self.base.store.write_bytes(addr, data);
        }

        fn tx_begin(&mut self, _core: CoreId, _now: Cycle) -> TxId {
            self.base.tx_begin()
        }

        fn on_llc_miss(&mut self, _core: CoreId, line: Line, now: Cycle) -> MissFill {
            self.base.miss(line, now)
        }

        fn on_evict_dirty(&mut self, line: Line, persistent: bool, line_data: &[u8], now: Cycle) {
            self.base.evict(line, persistent, line_data, now);
        }

        fn tick(&mut self, _now: Cycle) -> Cycle {
            0
        }

        fn drain(&mut self, _now: Cycle) {}

        fn crash(&mut self) {
            self.base.crash();
        }

        fn recover(&mut self, threads: usize) -> RecoveryReport {
            self.base.recover(threads)
        }

        fn durable(&self) -> &PersistentStore {
            &self.base.store
        }

        fn device(&self) -> &NvmDevice {
            &self.base.device
        }

        fn stats(&self) -> &EngineStats {
            &self.base.stats
        }

        fn attach_probe(&mut self, probe: Probe) {
            self.base.attach_probe(probe);
        }

        fn reset_counters(&mut self) {
            self.base.stats = EngineStats::default();
            self.base.device.reset_counters();
        }
    };
}

/// Broken fixture: the commit record persists before the payload.
pub struct CommitFirstEngine {
    base: FixtureBase,
}

impl CommitFirstEngine {
    /// Creates the fixture for `cfg`.
    pub fn new(cfg: &SimConfig) -> Self {
        CommitFirstEngine {
            base: FixtureBase::new(cfg),
        }
    }

    /// A harness over this fixture (no golden check — a broken engine is
    /// not its own reference).
    pub fn harness() -> Harness {
        Harness::custom(
            "CommitFirst",
            OracleMode::Atomic,
            Box::new(|cfg| System::new(Box::new(CommitFirstEngine::new(cfg)), cfg)),
        )
    }
}

impl PersistenceEngine for CommitFirstEngine {
    fn name(&self) -> &'static str {
        "CommitFirst"
    }

    fn on_store(
        &mut self,
        _core: CoreId,
        tx: TxId,
        addr: PAddr,
        data: &[u8],
        _now: Cycle,
    ) -> Cycle {
        self.base.buffer_store(tx, addr, data);
        0
    }

    fn tx_end(&mut self, _core: CoreId, tx: TxId, now: Cycle) -> CommitOutcome {
        let writes = self.base.active.remove(&tx.0).unwrap_or_default();
        // THE BUG: the commit record is persisted first; the payload log
        // records follow. A crash between the two durabilizes a commit
        // whose effects are gone.
        if self.base.probe.emit(Event::CommitRecord(tx), now) {
            self.base.committed.push(tx.0);
        }
        for (addr, data) in writes {
            if self.base.probe.emit(Event::Payload, now) {
                self.base.log.push((tx.0, addr, data));
            }
        }
        self.base.stats.committed_txs.inc();
        CommitOutcome::default()
    }

    delegate_fixture_common!();
}

/// Broken fixture: "GC" migrates data home at store time, before commit.
pub struct EagerGcEngine {
    base: FixtureBase,
}

impl EagerGcEngine {
    /// Creates the fixture for `cfg`.
    pub fn new(cfg: &SimConfig) -> Self {
        EagerGcEngine {
            base: FixtureBase::new(cfg),
        }
    }

    /// A harness over this fixture.
    pub fn harness() -> Harness {
        Harness::custom(
            "EagerGc",
            OracleMode::Atomic,
            Box::new(|cfg| System::new(Box::new(EagerGcEngine::new(cfg)), cfg)),
        )
    }
}

impl PersistenceEngine for EagerGcEngine {
    fn name(&self) -> &'static str {
        "EagerGc"
    }

    fn on_store(&mut self, _core: CoreId, tx: TxId, addr: PAddr, data: &[u8], now: Cycle) -> Cycle {
        self.base.buffer_store(tx, addr, data);
        // THE BUG: an over-eager garbage collector migrates the still-
        // uncommitted value straight to its home address. A crash before
        // this transaction's commit record leaves the value visible with no
        // way to roll it back.
        if self.base.probe.emit(Event::Gc, now) {
            self.base.store.write_bytes(addr, data);
        }
        0
    }

    fn tx_end(&mut self, _core: CoreId, tx: TxId, now: Cycle) -> CommitOutcome {
        let writes = self.base.active.remove(&tx.0).unwrap_or_default();
        // Payload-before-commit ordering is correct here; only the eager
        // home migration above is wrong.
        for (addr, data) in writes {
            if self.base.probe.emit(Event::Payload, now) {
                self.base.log.push((tx.0, addr, data));
            }
        }
        if self.base.probe.emit(Event::CommitRecord(tx), now) {
            self.base.committed.push(tx.0);
        }
        self.base.stats.committed_txs.inc();
        CommitOutcome::default()
    }

    delegate_fixture_common!();
}

/// Base of the blind fixture's durable log region — far above any footprint
/// the harness allocates, one 64-byte line per record.
const BLIND_LOG_BASE: u64 = 1 << 30;

/// One durable log record of the blind fixture: ECC-hardened metadata
/// `(tx, home address, log line address, payload length)` plus the
/// controller's volatile payload copy (used by checkpointing only — after a
/// crash the payload exists solely on media).
struct BlindRecord {
    tx: u64,
    home: u64,
    log_addr: u64,
    data: Vec<u8>,
}

/// Broken fixture: recovery reads its log through the media model but
/// ignores the ECC verdict.
///
/// Protocol-wise this is a *correct* checkpointing redo engine: payload log
/// records persist before the commit record, `drain` migrates committed
/// payloads home and truncates the log only after every home write
/// persisted, and crash recovery replays the committed log suffix. THE BUG
/// is one level down: the recovery replay consumes whatever bytes
/// [`MediaModel::read_span_checked`] returns without checking the verdict,
/// so an uncorrectable log line replays deterministic garbage into the home
/// image instead of being declared a classified loss. Fault-free it is
/// indistinguishable from a sound engine; under a wear-faulted media
/// schedule the oracle convicts it with `ue_data_loss` attribution.
pub struct MediaBlindEngine {
    base: FixtureBase,
    media: MediaModel,
    /// Durable, ECC-hardened log metadata (survives crashes; every push is
    /// gated together with its payload line).
    records: Vec<BlindRecord>,
    next_log: u64,
}

impl MediaBlindEngine {
    /// Creates the fixture for `cfg` (the media model comes from
    /// `cfg.media`, so a disabled config yields a sound engine).
    pub fn new(cfg: &SimConfig) -> Self {
        let mut base = FixtureBase::new(cfg);
        let media = MediaModel::new(cfg.media);
        if media.is_attached() {
            base.device.enable_endurance_tracking();
        }
        MediaBlindEngine {
            base,
            media,
            records: Vec::new(),
            next_log: 0,
        }
    }

    /// A harness over this fixture with the given fault schedule (no golden
    /// check — a broken engine is not its own reference).
    pub fn harness(media: MediaConfig) -> Harness {
        let mut cfg = SimConfig::small_for_tests();
        cfg.media = media;
        Harness::custom(
            "MediaBlind",
            OracleMode::Atomic,
            Box::new(|cfg| System::new(Box::new(MediaBlindEngine::new(cfg)), cfg)),
        )
        .with_config(cfg)
    }
}

impl PersistenceEngine for MediaBlindEngine {
    fn name(&self) -> &'static str {
        "MediaBlind"
    }

    fn on_store(
        &mut self,
        _core: CoreId,
        tx: TxId,
        addr: PAddr,
        data: &[u8],
        _now: Cycle,
    ) -> Cycle {
        self.base.buffer_store(tx, addr, data);
        0
    }

    fn tx_end(&mut self, _core: CoreId, tx: TxId, now: Cycle) -> CommitOutcome {
        let writes = self.base.active.remove(&tx.0).unwrap_or_default();
        // Correct ordering: payload lines persist before the commit record.
        for (addr, data) in writes {
            let log_addr = BLIND_LOG_BASE + self.next_log * CACHE_LINE_BYTES;
            self.next_log += 1;
            if self.base.probe.emit(Event::Payload, now) {
                self.base.store.write_bytes(PAddr(log_addr), &data);
                self.base.device.access(
                    now,
                    PAddr(log_addr),
                    CACHE_LINE_BYTES,
                    Op::Write,
                    TrafficClass::Log,
                );
                self.records.push(BlindRecord {
                    tx: tx.0,
                    home: addr,
                    log_addr,
                    data,
                });
            }
        }
        if self.base.probe.emit(Event::CommitRecord(tx), now) {
            self.base.committed.push(tx.0);
        }
        self.base.stats.committed_txs.inc();
        CommitOutcome::default()
    }

    fn drain(&mut self, now: Cycle) {
        // Checkpoint: migrate committed payloads home from the volatile
        // copy, then truncate the log — but only once every home write of
        // this pass actually persisted, so a crash mid-drain leaves the
        // log intact for recovery.
        let committed: DetHashSet<u64> = self.base.committed.iter().copied().collect();
        let mut all_home = true;
        for r in &self.records {
            if !committed.contains(&r.tx) {
                continue;
            }
            if self.base.probe.emit(Event::Home, now) {
                self.base.store.write_bytes(PAddr(r.home), &r.data);
            } else {
                all_home = false;
            }
        }
        if all_home && self.base.probe.emit(Event::Reclaim, now) {
            self.records.retain(|r| !committed.contains(&r.tx));
        }
    }

    fn recover(&mut self, threads: usize) -> RecoveryReport {
        let committed: DetHashSet<u64> = self.base.committed.iter().copied().collect();
        let mut replayed: DetHashSet<u64> = DetHashSet::default();
        let mut scanned = 0u64;
        let mut written = 0u64;
        for r in &self.records {
            if !committed.contains(&r.tx) {
                continue;
            }
            let mut buf = vec![0u8; r.data.len()];
            // THE BUG: the media verdict is discarded. On an uncorrectable
            // log line `buf` now holds deterministic garbage, and it
            // replays home anyway — a sound engine would declare a
            // classified loss (`note_loss`) or re-derive the data.
            let _ = self.media.read_span_checked(
                &self.base.store,
                PAddr(r.log_addr),
                &mut buf,
                self.base.device.endurance(),
            );
            replayed.insert(r.tx);
            scanned += CACHE_LINE_BYTES;
            written += buf.len() as u64;
            if self.base.probe.emit(Event::Recovery, 0) {
                self.base.store.write_bytes(PAddr(r.home), &buf);
            }
        }
        RecoveryReport {
            modeled_ms: 0.0,
            bytes_scanned: scanned,
            bytes_written: written,
            txs_replayed: replayed.len() as u64,
            threads,
        }
    }

    fn media(&self) -> MediaModel {
        self.media.clone()
    }

    fn properties(&self) -> EngineProperties {
        EngineProperties {
            read_latency: Level::Low,
            on_critical_path: true,
            requires_flush_fence: false,
            write_traffic: Level::Medium,
        }
    }

    fn init_home(&mut self, addr: PAddr, data: &[u8]) {
        self.base.store.write_bytes(addr, data);
    }

    fn tx_begin(&mut self, _core: CoreId, _now: Cycle) -> TxId {
        self.base.tx_begin()
    }

    fn on_llc_miss(&mut self, _core: CoreId, line: Line, now: Cycle) -> MissFill {
        self.base.miss(line, now)
    }

    fn on_evict_dirty(&mut self, line: Line, persistent: bool, line_data: &[u8], now: Cycle) {
        self.base.evict(line, persistent, line_data, now);
    }

    fn tick(&mut self, _now: Cycle) -> Cycle {
        0
    }

    fn crash(&mut self) {
        self.base.crash();
    }

    fn durable(&self) -> &PersistentStore {
        &self.base.store
    }

    fn device(&self) -> &NvmDevice {
        &self.base.device
    }

    fn stats(&self) -> &EngineStats {
        &self.base.stats
    }

    fn attach_probe(&mut self, probe: Probe) {
        self.base.attach_probe(probe);
    }

    fn reset_counters(&mut self) {
        self.base.stats = EngineStats::default();
        self.base.device.reset_counters();
    }
}
