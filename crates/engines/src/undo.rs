//! Opt-Undo: hardware undo logging in the ATOM style (Joshi et al.,
//! HPCA'17; §IV-A of the HOOP paper).
//!
//! On the first transactional store to a cache line, the controller logs the
//! line's *old* durable contents. The log→data persist ordering is enforced
//! in the memory controller (not by software fences), but it still sits on
//! the commit path: a transaction is durable only after (1) all undo log
//! entries and (2) all of its data writes reach NVM. Recovery rolls back
//! uncommitted transactions by re-applying old images in reverse order.

use simcore::det::DetHashMap;

use nvm::{NvmDevice, PersistentStore, TrafficClass};
use simcore::addr::{lines_covering, Line, CACHE_LINE_BYTES};
use simcore::config::SimConfig;
use simcore::det::DetHashSet;
use simcore::persist::Event;
use simcore::{CoreId, Cycle, PAddr, TxId};

use crate::common::{read_line_image, to_line_image, ControllerBase, LineImage};
use crate::costs;
use crate::layout;
use crate::traits::{
    CommitOutcome, EngineProperties, EngineStats, Level, MissFill, PersistenceEngine,
    RecoveryReport,
};

/// Bytes of one undo log record on media: the 64-byte old image plus ATOM's
/// packed per-entry metadata (home address + TxID amortized over a metadata
/// line shared by eight entries).
const UNDO_RECORD_BYTES: u64 = CACHE_LINE_BYTES + 8;

/// Commit-marker metadata bytes (log truncation pointer update).
const COMMIT_MARKER_BYTES: u64 = 8;

#[derive(Clone, Debug)]
struct UndoRecord {
    tx: TxId,
    line: Line,
    old: LineImage,
}

#[derive(Clone, Debug)]
struct TouchedLine {
    image: LineImage,
    evicted: bool,
}

#[derive(Clone, Debug, Default)]
struct ActiveTx {
    lines: DetHashMap<u64, TouchedLine>,
    /// Completion cycle of the last undo-log write.
    log_done: Cycle,
}

/// The ATOM-style hardware undo logging engine.
#[derive(Debug)]
pub struct OptUndoEngine {
    base: ControllerBase,
    log_region: PAddr,
    log_head: u64,
    /// Durable: undo records of not-yet-committed transactions.
    log: Vec<UndoRecord>,
    /// Volatile controller state.
    active: DetHashMap<TxId, ActiveTx>,
}

impl OptUndoEngine {
    /// Creates the engine for the machine described by `cfg`.
    pub fn new(cfg: &SimConfig) -> Self {
        let mut regions = layout::engine_region_allocator();
        let log_region = regions.reserve(1 << 32, 4096);
        OptUndoEngine {
            base: ControllerBase::new(cfg),
            log_region,
            log_head: 0,
            log: Vec::new(),
            active: DetHashMap::default(),
        }
    }

    fn log_slot(&mut self) -> PAddr {
        let a = self.log_region.offset(self.log_head);
        self.log_head = (self.log_head + UNDO_RECORD_BYTES) % (1 << 32);
        a
    }
}

impl PersistenceEngine for OptUndoEngine {
    fn name(&self) -> &'static str {
        "Opt-Undo"
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
        let tx = self.base.alloc_tx();
        self.active.insert(tx, ActiveTx::default());
        tx
    }

    fn on_store(&mut self, _core: CoreId, tx: TxId, addr: PAddr, data: &[u8], now: Cycle) -> Cycle {
        let mut overhead = 0;
        let mut pending: Vec<UndoRecord> = Vec::new();
        {
            let store = &self.base.store;
            let entry = self.active.get_mut(&tx).expect("store outside tx");
            for line in lines_covering(addr, data.len() as u64) {
                entry.lines.entry(line.0).or_insert_with(|| {
                    let old = read_line_image(store, line);
                    pending.push(UndoRecord { tx, line, old });
                    overhead += costs::HW_LOG_FORMATION;
                    TouchedLine {
                        image: old,
                        evicted: false,
                    }
                });
            }
        }
        // Persist the undo entries asynchronously; the transaction only has
        // to wait for them at commit (controller-enforced ordering).
        for rec in pending {
            let slot = self.log_slot();
            let done = self
                .base
                .write_burst(slot, UNDO_RECORD_BYTES, now, TrafficClass::Log);
            if self.base.probe.emit(Event::Payload, now) {
                self.log.push(rec);
            }
            let entry = self.active.get_mut(&tx).expect("store outside tx");
            entry.log_done = entry.log_done.max(done);
        }
        // Apply the new bytes to the tracked images.
        let entry = self.active.get_mut(&tx).expect("store outside tx");
        let mut off = 0usize;
        for line in lines_covering(addr, data.len() as u64) {
            let start = (addr.0 + off as u64).max(line.base().0);
            let end = (addr.0 + data.len() as u64).min(line.base().0 + 64);
            let touched = entry.lines.get_mut(&line.0).expect("just inserted");
            let lo = (start - line.base().0) as usize;
            let hi = (end - line.base().0) as usize;
            touched.image[lo..hi].copy_from_slice(&data[off..off + (hi - lo)]);
            off += hi - lo;
        }
        self.base.stats.store_overhead_cycles.add(overhead);
        overhead
    }

    fn on_llc_miss(&mut self, _core: CoreId, line: Line, now: Cycle) -> MissFill {
        self.base.serve_miss_from_home(line, now)
    }

    fn on_evict_dirty(&mut self, line: Line, persistent: bool, line_data: &[u8], now: Cycle) {
        if persistent {
            // Steal: the in-place update may reach home before commit; the
            // undo log makes it safe.
            // lint:order-frozen: independent per-entry refresh — no
            // cross-entry state, so visit order cannot leak into results.
            for entry in self.active.values_mut() {
                if let Some(t) = entry.lines.get_mut(&line.0) {
                    t.image = to_line_image(line_data);
                    t.evicted = true;
                }
            }
        }
        self.base
            .write_home_line(line, line_data, now, TrafficClass::Data);
    }

    fn tx_end(&mut self, _core: CoreId, tx: TxId, now: Cycle) -> CommitOutcome {
        let entry = self.active.remove(&tx).expect("commit of unknown tx");
        // Ordering: data writes may start only after the undo log is durable.
        let start = now.max(entry.log_done);
        let mut to_write = 0u64;
        let mut clean_lines = Vec::with_capacity(entry.lines.len());
        for (l, t) in &entry.lines {
            clean_lines.push(Line(*l));
            if !t.evicted {
                to_write += CACHE_LINE_BYTES;
            }
        }
        let first = entry
            .lines
            // lint:order-frozen: representative burst start address only;
            // deterministic under the frozen DetHashMap order.
            .keys()
            .next()
            .map(|l| Line(*l).base())
            .unwrap_or(PAddr(0));
        let done = self
            .base
            .write_burst(first, to_write, start, TrafficClass::Data);
        // All write-set data (ordered burst now, or an earlier steal
        // write-back) is durably home by `done`.
        for (l, t) in entry.lines {
            let line = Line(l);
            if t.evicted {
                self.base.probe.emit(Event::DataPersisted(tx, line), done);
            } else {
                self.base.probe.emit(Event::PayloadWrite(tx, line), done);
                self.base.store.write_bytes(line.base(), &t.image);
            }
        }
        let marker_done = self.base.write_burst(
            self.log_region,
            COMMIT_MARKER_BYTES,
            done,
            TrafficClass::Metadata,
        );
        // The truncation marker is the durable commit point: it follows the
        // log and the ordered data writes. Truncate this transaction's
        // records only if the marker became durable — otherwise recovery
        // must still roll the transaction back (ATOM's log management runs
        // in the controller off the critical path).
        if self.base.probe.emit(Event::CommitRecord(tx), marker_done) {
            self.log.retain(|r| r.tx != tx);
        }
        let latency = done.saturating_sub(now);
        self.base.stats.commit_stall_cycles.add(latency);
        self.base.stats.committed_txs.inc();
        CommitOutcome {
            latency,
            clean_lines,
        }
    }

    fn tick(&mut self, now: Cycle) -> Cycle {
        self.base.media_tick(now);
        0
    }

    fn drain(&mut self, _now: Cycle) {}

    fn crash(&mut self) {
        self.active.clear();
    }

    fn recover(&mut self, threads: usize) -> RecoveryReport {
        let bytes_scanned = self.log.len() as u64 * UNDO_RECORD_BYTES;
        let mut bytes_written = 0;
        let mut rolled_back: DetHashSet<u64> = DetHashSet::default();
        // Roll back uncommitted transactions in reverse append order. The
        // log is replayed without draining: a crash injected mid-recovery
        // must leave the records in place so the next recovery pass can
        // redo the (idempotent) rollback.
        for (i, rec) in self.log.iter().enumerate().rev() {
            self.base.probe.emit(Event::Recovery, 0);
            // An uncorrectable undo record cannot roll its line back: the
            // home line keeps the in-flight new bytes. Declare the
            // classified loss instead of writing a garbage "old" image.
            let rec_addr = self.log_region.offset(i as u64 * UNDO_RECORD_BYTES);
            if self
                .base
                .media_read_span(rec_addr, UNDO_RECORD_BYTES)
                .is_err()
            {
                self.base.media.note_loss(rec.line);
                continue;
            }
            self.base.store.write_bytes(rec.line.base(), &rec.old);
            bytes_written += CACHE_LINE_BYTES;
            rolled_back.insert(rec.tx.0);
        }
        if self.base.probe.emit(Event::Reclaim, 0) {
            self.log.clear();
        }
        let bw = self.base.device.timing().bandwidth_gbps;
        let modeled_ms =
            (bytes_scanned + bytes_written) as f64 / (bw * 1.0e6) / threads.max(1) as f64;
        RecoveryReport {
            modeled_ms,
            bytes_scanned,
            bytes_written,
            txs_replayed: rolled_back.len() as u64,
            threads,
        }
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

    fn enable_endurance_tracking(&mut self) {
        self.base.device.enable_endurance_tracking();
    }

    fn media(&self) -> nvm::media::MediaModel {
        self.base.media.clone()
    }

    fn attach_probe(&mut self, probe: simcore::persist::Probe) {
        self.base.attach_probe(probe);
    }

    fn reset_counters(&mut self) {
        self.base.reset_counters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> OptUndoEngine {
        OptUndoEngine::new(&SimConfig::small_for_tests())
    }

    #[test]
    fn committed_tx_is_durable() {
        let mut e = engine();
        e.init_home(PAddr(0), &[1u8; 64]);
        let tx = e.tx_begin(CoreId(0), 0);
        e.on_store(CoreId(0), tx, PAddr(0), &42u64.to_le_bytes(), 10);
        let out = e.tx_end(CoreId(0), tx, 100);
        assert!(out.latency > 0);
        e.crash();
        e.recover(1);
        assert_eq!(e.durable().read_u64(PAddr(0)), 42);
    }

    #[test]
    fn uncommitted_tx_rolls_back_even_after_steal() {
        let mut e = engine();
        e.init_home(PAddr(0), &7u64.to_le_bytes());
        let tx = e.tx_begin(CoreId(0), 0);
        e.on_store(CoreId(0), tx, PAddr(0), &99u64.to_le_bytes(), 10);
        // Steal: the dirty line is evicted and written home pre-commit.
        let mut img = [0u8; 64];
        img[..8].copy_from_slice(&99u64.to_le_bytes());
        e.on_evict_dirty(Line(0), true, &img, 50);
        assert_eq!(e.durable().read_u64(PAddr(0)), 99, "stolen write landed");
        e.crash();
        e.recover(1);
        assert_eq!(e.durable().read_u64(PAddr(0)), 7, "rolled back");
    }

    #[test]
    fn log_and_data_are_both_counted() {
        let mut e = engine();
        let tx = e.tx_begin(CoreId(0), 0);
        e.on_store(CoreId(0), tx, PAddr(0), &1u64.to_le_bytes(), 0);
        e.tx_end(CoreId(0), tx, 10);
        let t = e.device().traffic();
        assert_eq!(t.written(TrafficClass::Log), UNDO_RECORD_BYTES);
        assert_eq!(t.written(TrafficClass::Data), 64);
    }

    #[test]
    fn commit_waits_for_log_then_data() {
        let mut e = engine();
        let tx = e.tx_begin(CoreId(0), 0);
        e.on_store(CoreId(0), tx, PAddr(0), &1u64.to_le_bytes(), 0);
        let out = e.tx_end(CoreId(0), tx, 0);
        // Log write then ordered data write: at least two write latencies.
        assert!(out.latency >= 2 * 375, "latency {}", out.latency);
    }

    #[test]
    fn second_store_to_same_line_logs_once() {
        let mut e = engine();
        let tx = e.tx_begin(CoreId(0), 0);
        e.on_store(CoreId(0), tx, PAddr(0), &1u64.to_le_bytes(), 0);
        e.on_store(CoreId(0), tx, PAddr(8), &2u64.to_le_bytes(), 0);
        assert_eq!(
            e.device().traffic().written(TrafficClass::Log),
            UNDO_RECORD_BYTES
        );
        e.tx_end(CoreId(0), tx, 10);
        e.crash();
        e.recover(1);
        assert_eq!(e.durable().read_u64(PAddr(0)), 1);
        assert_eq!(e.durable().read_u64(PAddr(8)), 2);
    }
}
