//! The "Ideal" baseline: a native system without persistence support.
//!
//! Data reaches NVM only through ordinary dirty write-backs; nothing is
//! logged, ordered, or flushed. It provides no crash guarantee — the paper
//! uses it as the upper bound for throughput/latency (Fig. 7) and the lower
//! bound for write traffic (Fig. 8).

use nvm::media::{MediaModel, ReadHealth};
use nvm::{NvmDevice, Op, PersistentStore, TrafficClass};
use simcore::addr::{Line, CACHE_LINE_BYTES};
use simcore::config::SimConfig;
use simcore::persist::{Event, Probe};
use simcore::{CoreId, Cycle, PAddr, TxId};

use crate::common::MEDIA_RETRY_CYCLES;
use crate::traits::{
    CommitOutcome, EngineProperties, EngineStats, Level, MissFill, PersistenceEngine,
    RecoveryReport,
};

/// The no-persistence baseline engine.
#[derive(Debug)]
pub struct NativeEngine {
    device: NvmDevice,
    store: PersistentStore,
    stats: EngineStats,
    probe: Probe,
    media: MediaModel,
    next_tx: u64,
}

impl NativeEngine {
    /// Creates the engine for the machine described by `cfg`.
    pub fn new(cfg: &SimConfig) -> Self {
        let mut device = NvmDevice::new(cfg.nvm, cfg.energy);
        let media = MediaModel::new(cfg.media);
        if media.is_attached() {
            device.enable_endurance_tracking();
        }
        NativeEngine {
            device,
            store: PersistentStore::new(),
            stats: EngineStats::default(),
            probe: Probe::detached(),
            media,
            next_tx: 1,
        }
    }
}

impl PersistenceEngine for NativeEngine {
    fn name(&self) -> &'static str {
        "Ideal"
    }

    fn properties(&self) -> EngineProperties {
        EngineProperties {
            read_latency: Level::Low,
            on_critical_path: false,
            requires_flush_fence: false,
            write_traffic: Level::Low,
        }
    }

    fn init_home(&mut self, addr: PAddr, data: &[u8]) {
        self.store.write_bytes(addr, data);
    }

    fn tx_begin(&mut self, _core: CoreId, _now: Cycle) -> TxId {
        let id = TxId(self.next_tx);
        self.next_tx += 1;
        id
    }

    fn on_store(
        &mut self,
        _core: CoreId,
        _tx: TxId,
        _addr: PAddr,
        _data: &[u8],
        _now: Cycle,
    ) -> Cycle {
        0
    }

    fn on_llc_miss(&mut self, _core: CoreId, line: Line, now: Cycle) -> MissFill {
        let out = self.device.access(
            now,
            line.base(),
            CACHE_LINE_BYTES,
            Op::Read,
            TrafficClass::Data,
        );
        let mut latency = out.latency(now);
        if self.media.is_attached() {
            let wear = self.device.endurance().map(|e| e.writes(line)).unwrap_or(0);
            if let ReadHealth::Corrected { retries, .. } = self.media.read_line(line, wear) {
                latency += Cycle::from(retries) * MEDIA_RETRY_CYCLES;
            }
        }
        self.stats.misses_served.inc();
        self.stats.miss_memory_loads.inc();
        self.stats.miss_service_cycles.add(latency);
        MissFill { latency }
    }

    fn on_evict_dirty(&mut self, line: Line, _persistent: bool, line_data: &[u8], now: Cycle) {
        self.device.access(
            now,
            line.base(),
            CACHE_LINE_BYTES,
            Op::Write,
            TrafficClass::Data,
        );
        // Valve-only: the sanitizer does not shadow Ideal, which offers no
        // crash guarantee to check.
        self.probe.emit(Event::Home, now);
        self.store.write_bytes(line.base(), line_data);
    }

    fn tx_end(&mut self, _core: CoreId, _tx: TxId, _now: Cycle) -> CommitOutcome {
        self.stats.committed_txs.inc();
        CommitOutcome::default()
    }

    fn tick(&mut self, _now: Cycle) -> Cycle {
        0
    }

    fn drain(&mut self, _now: Cycle) {}

    fn crash(&mut self) {
        // Nothing volatile to drop in the controller; whatever write-backs
        // happened are all the durability this engine ever offers.
    }

    fn recover(&mut self, threads: usize) -> RecoveryReport {
        RecoveryReport {
            threads,
            ..RecoveryReport::default()
        }
    }

    fn durable(&self) -> &PersistentStore {
        &self.store
    }

    fn device(&self) -> &NvmDevice {
        &self.device
    }

    fn stats(&self) -> &EngineStats {
        &self.stats
    }

    fn enable_endurance_tracking(&mut self) {
        self.device.enable_endurance_tracking();
    }

    fn media(&self) -> MediaModel {
        self.media.clone()
    }

    fn attach_probe(&mut self, probe: Probe) {
        self.store.attach_valve(probe.clone());
        self.probe = probe;
    }

    fn reset_counters(&mut self) {
        self.stats = EngineStats::default();
        self.device.reset_counters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evictions_write_home() {
        let cfg = SimConfig::small_for_tests();
        let mut e = NativeEngine::new(&cfg);
        let data = [7u8; 64];
        e.on_evict_dirty(Line(2), false, &data, 0);
        assert_eq!(e.durable().read_u8(PAddr(128)), 7);
        assert_eq!(e.device().traffic().total_written(), 64);
    }

    #[test]
    fn misses_read_from_device() {
        let cfg = SimConfig::small_for_tests();
        let mut e = NativeEngine::new(&cfg);
        let fill = e.on_llc_miss(CoreId(0), Line(1), 0);
        assert!(fill.latency >= 125);
        assert_eq!(e.stats().loads_per_miss(), 1.0);
    }

    #[test]
    fn tx_ids_are_unique() {
        let cfg = SimConfig::small_for_tests();
        let mut e = NativeEngine::new(&cfg);
        let a = e.tx_begin(CoreId(0), 0);
        let b = e.tx_begin(CoreId(1), 0);
        assert_ne!(a, b);
    }
}
