//! Opt-Redo: hardware redo logging in the WrAP style (Doshi et al.,
//! HPCA'16; §IV-A of the HOOP paper).
//!
//! New values are buffered in the controller during the transaction and
//! persisted to a redo log at commit — "both the data and metadata for a
//! single update using two cache lines" (§IV-B). Data reaches its home
//! location later through asynchronous checkpointing, after which the log is
//! truncated. Reads of lines whose newest value is still only in the log
//! must consult the log (Table I: high read latency).

use simcore::det::DetHashMap;

use nvm::{NvmDevice, Op, PersistentStore, TrafficClass};
use simcore::addr::{lines_covering, Line, CACHE_LINE_BYTES};
use simcore::config::SimConfig;
use simcore::det::DetHashSet;
use simcore::persist::Event;
use simcore::time::ms_to_cycles;
use simcore::{CoreId, Cycle, PAddr, TxId};

use crate::common::{read_line_image, ControllerBase, LineImage};
use crate::layout;
use crate::traits::{
    CommitOutcome, EngineProperties, EngineStats, Level, MissFill, PersistenceEngine,
    RecoveryReport,
};

/// On-media bytes per logged line: one data line + one metadata line
/// (§IV-B).
const REDO_RECORD_BYTES: u64 = 2 * CACHE_LINE_BYTES;

/// Cycles to merge a log copy with the home line on a redirected read.
const LOG_MERGE_CYCLES: Cycle = 6;

/// Asynchronous checkpoint period (log truncation cadence); matches the GC
/// cadence used for HOOP so background traffic is comparable.
const CHECKPOINT_PERIOD_MS: f64 = 10.0;

#[derive(Clone, Debug)]
struct RedoRecord {
    tx: TxId,
    line: Line,
    image: LineImage,
}

/// The WrAP-style hardware redo logging engine.
#[derive(Debug)]
pub struct OptRedoEngine {
    base: ControllerBase,
    log_region: PAddr,
    log_head: u64,
    /// Durable: committed, not-yet-checkpointed records in commit order.
    log: Vec<RedoRecord>,
    /// Records below this index belong to transactions whose commit point
    /// (the completed data+metadata burst) is durable; anything beyond is a
    /// torn append a crash may leave behind, and recovery discards it.
    committed_len: usize,
    /// Volatile: write sets of open transactions.
    active: DetHashMap<TxId, DetHashMap<u64, LineImage>>,
    /// Volatile: newest committed image per line awaiting checkpoint.
    pending: DetHashMap<u64, LineImage>,
    next_checkpoint: Cycle,
    checkpoint_period: Cycle,
}

impl OptRedoEngine {
    /// Creates the engine for the machine described by `cfg`.
    pub fn new(cfg: &SimConfig) -> Self {
        let mut regions = layout::engine_region_allocator();
        let log_region = regions.reserve(1 << 32, 4096);
        let period = ms_to_cycles(CHECKPOINT_PERIOD_MS);
        OptRedoEngine {
            base: ControllerBase::new(cfg),
            log_region,
            log_head: 0,
            log: Vec::new(),
            committed_len: 0,
            active: DetHashMap::default(),
            pending: DetHashMap::default(),
            next_checkpoint: period,
            checkpoint_period: period,
        }
    }

    fn checkpoint(&mut self, now: Cycle) {
        if self.pending.is_empty() {
            if !self.log.is_empty() && self.base.probe.emit(Event::Reclaim, now) {
                self.log.clear();
                self.committed_len = 0;
            }
            return;
        }
        let lines = std::mem::take(&mut self.pending);
        let bytes = lines.len() as u64 * CACHE_LINE_BYTES;
        let first = Line(*lines.keys().next().expect("nonempty")).base();
        // Checkpointing is asynchronous background work: stagger it.
        self.base.burst_spread(
            first,
            bytes,
            now,
            self.checkpoint_period / 2,
            Op::Write,
            TrafficClass::Checkpoint,
        );
        for (l, img) in lines {
            self.base.probe.emit(Event::Gc, now);
            self.base.store.write_bytes(Line(l).base(), &img);
        }
        // Truncate the log: everything checkpointed is now home. The
        // truncation is one durable pointer update, ordered strictly after
        // the checkpoint writes — a crash in between leaves the log intact
        // and recovery simply replays it (idempotent re-writes).
        if self.base.probe.emit(Event::Reclaim, now) {
            self.log.clear();
            self.committed_len = 0;
        }
        self.base.stats.gc_runs.inc();
    }
}

impl PersistenceEngine for OptRedoEngine {
    fn name(&self) -> &'static str {
        "Opt-Redo"
    }

    fn properties(&self) -> EngineProperties {
        EngineProperties {
            read_latency: Level::High,
            on_critical_path: true,
            requires_flush_fence: false,
            write_traffic: Level::High,
        }
    }

    fn init_home(&mut self, addr: PAddr, data: &[u8]) {
        self.base.store.write_bytes(addr, data);
    }

    fn tx_begin(&mut self, _core: CoreId, _now: Cycle) -> TxId {
        let tx = self.base.alloc_tx();
        self.active.insert(tx, DetHashMap::default());
        tx
    }

    fn on_store(
        &mut self,
        _core: CoreId,
        tx: TxId,
        addr: PAddr,
        data: &[u8],
        _now: Cycle,
    ) -> Cycle {
        // Split borrows: the write set is mutated while the newest-image
        // sources (pending log images, home store) are only read.
        let OptRedoEngine {
            active,
            pending,
            base,
            ..
        } = self;
        let entry = active.get_mut(&tx).expect("store outside tx");
        let mut off = 0usize;
        for line in lines_covering(addr, data.len() as u64) {
            let img = entry
                .entry(line.0)
                .or_insert_with(|| match pending.get(&line.0) {
                    Some(img) => *img,
                    None => read_line_image(&base.store, line),
                });
            let start = (addr.0 + off as u64).max(line.base().0);
            let end = (addr.0 + data.len() as u64).min(line.base().0 + 64);
            let lo = (start - line.base().0) as usize;
            let hi = (end - line.base().0) as usize;
            img[lo..hi].copy_from_slice(&data[off..off + (hi - lo)]);
            off += hi - lo;
        }
        0
    }

    fn on_llc_miss(&mut self, _core: CoreId, line: Line, now: Cycle) -> MissFill {
        if self.pending.contains_key(&line.0) {
            // Newest value only in the log: redirected read.
            let out = self.base.device.access(
                now,
                self.log_region,
                CACHE_LINE_BYTES,
                Op::Read,
                TrafficClass::Log,
            );
            let latency = out.latency(now) + LOG_MERGE_CYCLES;
            self.base.stats.misses_served.inc();
            self.base.stats.miss_memory_loads.inc();
            self.base.stats.miss_service_cycles.add(latency);
            MissFill { latency }
        } else {
            self.base.serve_miss_from_home(line, now)
        }
    }

    fn on_evict_dirty(&mut self, line: Line, persistent: bool, line_data: &[u8], now: Cycle) {
        if persistent {
            // No steal: transactional lines reach home only via checkpoint.
            return;
        }
        self.base
            .write_home_line(line, line_data, now, TrafficClass::Data);
    }

    fn tx_end(&mut self, _core: CoreId, tx: TxId, now: Cycle) -> CommitOutcome {
        let lines = self.active.remove(&tx).expect("commit of unknown tx");
        let bytes = lines.len() as u64 * REDO_RECORD_BYTES;
        let slot = self.log_region.offset(self.log_head);
        self.log_head = (self.log_head + bytes) % (1 << 32);
        let done = self.base.write_burst(slot, bytes, now, TrafficClass::Log);
        let mut clean_lines = Vec::with_capacity(lines.len());
        for (l, img) in lines {
            clean_lines.push(Line(l));
            if self.base.probe.emit(Event::PayloadWrite(tx, Line(l)), now) {
                self.log.push(RedoRecord {
                    tx,
                    line: Line(l),
                    image: img,
                });
            }
            self.pending.insert(l, img);
        }
        // The burst carries data + metadata; its completion is the durable
        // commit point (redo data is persistent strictly before then).
        if self.base.probe.emit(Event::CommitRecord(tx), done) {
            self.committed_len = self.log.len();
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
        if now >= self.next_checkpoint {
            self.checkpoint(now);
            self.next_checkpoint = now + self.checkpoint_period;
        }
        0
    }

    fn drain(&mut self, now: Cycle) {
        self.checkpoint(now);
    }

    fn crash(&mut self) {
        self.active.clear();
        self.pending.clear();
    }

    fn recover(&mut self, threads: usize) -> RecoveryReport {
        let committed = self.committed_len.min(self.log.len());
        let bytes_scanned = self.log.len() as u64 * REDO_RECORD_BYTES;
        let mut bytes_written = 0;
        let mut txs: DetHashSet<u64> = DetHashSet::default();
        for (i, rec) in self.log[..committed].iter().enumerate() {
            self.base.probe.emit(Event::Recovery, 0);
            // The media may have lost the durable log copy of this record.
            // A redo record is the only source of the committed image, so an
            // uncorrectable record cannot be re-derived: skip the replay and
            // declare a classified loss for the home line instead of writing
            // garbage there.
            let rec_addr = self.log_region.offset(i as u64 * REDO_RECORD_BYTES);
            if self
                .base
                .media_read_span(rec_addr, REDO_RECORD_BYTES)
                .is_err()
            {
                self.base.media.note_loss(rec.line);
                continue;
            }
            self.base.store.write_bytes(rec.line.base(), &rec.image);
            bytes_written += CACHE_LINE_BYTES;
            txs.insert(rec.tx.0);
        }
        let txs = txs.len() as u64;
        // Truncate the replayed log (and drop any torn suffix beyond the
        // committed watermark). Ordered after the replay writes: a nested
        // crash in between keeps the log for the next recovery pass.
        if self.base.probe.emit(Event::Reclaim, 0) {
            self.log.clear();
            self.committed_len = 0;
        }
        let bw = self.base.device.timing().bandwidth_gbps;
        let modeled_ms =
            (bytes_scanned + bytes_written) as f64 / (bw * 1.0e6) / threads.max(1) as f64;
        RecoveryReport {
            modeled_ms,
            bytes_scanned,
            bytes_written,
            txs_replayed: txs,
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

    fn engine() -> OptRedoEngine {
        OptRedoEngine::new(&SimConfig::small_for_tests())
    }

    #[test]
    fn committed_survives_crash_before_checkpoint() {
        let mut e = engine();
        let tx = e.tx_begin(CoreId(0), 0);
        e.on_store(CoreId(0), tx, PAddr(0), &11u64.to_le_bytes(), 0);
        e.tx_end(CoreId(0), tx, 10);
        e.crash();
        let rep = e.recover(2);
        assert_eq!(e.durable().read_u64(PAddr(0)), 11);
        assert_eq!(rep.txs_replayed, 1);
    }

    #[test]
    fn uncommitted_vanishes() {
        let mut e = engine();
        e.init_home(PAddr(0), &5u64.to_le_bytes());
        let tx = e.tx_begin(CoreId(0), 0);
        e.on_store(CoreId(0), tx, PAddr(0), &99u64.to_le_bytes(), 0);
        // Persistent eviction must NOT reach home (no steal).
        let mut img = [0u8; 64];
        img[..8].copy_from_slice(&99u64.to_le_bytes());
        e.on_evict_dirty(Line(0), true, &img, 5);
        e.crash();
        e.recover(1);
        assert_eq!(e.durable().read_u64(PAddr(0)), 5);
    }

    #[test]
    fn checkpoint_moves_data_home_and_truncates() {
        let mut e = engine();
        let tx = e.tx_begin(CoreId(0), 0);
        e.on_store(CoreId(0), tx, PAddr(128), &3u64.to_le_bytes(), 0);
        e.tx_end(CoreId(0), tx, 10);
        e.drain(1000);
        assert_eq!(e.durable().read_u64(PAddr(128)), 3);
        assert!(e.log.is_empty());
        assert!(e.device().traffic().written(TrafficClass::Checkpoint) >= 64);
    }

    #[test]
    fn double_write_traffic() {
        let mut e = engine();
        let tx = e.tx_begin(CoreId(0), 0);
        e.on_store(CoreId(0), tx, PAddr(0), &1u64.to_le_bytes(), 0);
        e.tx_end(CoreId(0), tx, 10);
        e.drain(1000);
        let t = e.device().traffic();
        // 128 B log + 64 B checkpoint for one dirty line.
        assert_eq!(t.written(TrafficClass::Log), 128);
        assert_eq!(t.written(TrafficClass::Checkpoint), 64);
    }

    #[test]
    fn reads_of_unchecked_lines_go_to_log() {
        let mut e = engine();
        let tx = e.tx_begin(CoreId(0), 0);
        e.on_store(CoreId(0), tx, PAddr(0), &1u64.to_le_bytes(), 0);
        e.tx_end(CoreId(0), tx, 10);
        let before = e.device().traffic().read(TrafficClass::Log);
        e.on_llc_miss(CoreId(0), Line(0), 20);
        assert_eq!(e.device().traffic().read(TrafficClass::Log), before + 64);
        e.drain(1000);
        let before_home = e.device().traffic().read(TrafficClass::Data);
        e.on_llc_miss(CoreId(0), Line(0), 30);
        assert_eq!(
            e.device().traffic().read(TrafficClass::Data),
            before_home + 64
        );
    }

    #[test]
    fn commit_latency_is_single_ordered_burst() {
        let mut e = engine();
        let tx = e.tx_begin(CoreId(0), 0);
        e.on_store(CoreId(0), tx, PAddr(0), &1u64.to_le_bytes(), 0);
        let out = e.tx_end(CoreId(0), tx, 0);
        assert!(out.latency >= 375 && out.latency < 750, "{}", out.latency);
    }
}
