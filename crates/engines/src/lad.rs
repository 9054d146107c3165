//! LAD: logless atomic durability (Gupta et al., MICRO'19; §IV-A of the
//! HOOP paper).
//!
//! The memory controller queues a transaction's updates until commit, then
//! writes them to their home locations at cache-line granularity — no log at
//! all. Because nothing transactional leaves the controller before commit,
//! atomicity is free; durability costs one ordered burst of line writes per
//! commit. HOOP beats it by persisting at *word* granularity with packing
//! (§IV-B: "LAD ... persists updated data at cache-line granularity").

use simcore::det::{DetHashMap, DetHashSet};

use nvm::{NvmDevice, PersistentStore, TrafficClass};
use simcore::addr::{lines_covering, Line, CACHE_LINE_BYTES};
use simcore::config::SimConfig;
use simcore::persist::Event;
use simcore::{CoreId, Cycle, PAddr, TxId};

use crate::common::{to_line_image, ControllerBase, LineImage};
use crate::costs;
use crate::traits::{
    CommitOutcome, EngineProperties, EngineStats, Level, MissFill, PersistenceEngine,
    RecoveryReport,
};

/// Commit handshake overhead (the two-phase interplay between cache
/// controller and memory controller, §III-I of the HOOP paper describes the
/// same protocol for multi-controller HOOP).
const COMMIT_PROTOCOL_CYCLES: Cycle = 40;

/// Depth (in cache lines) of the controller's ADR-domain commit queue:
/// accepted updates sit in the battery-backed queue until their home writes
/// retire, so power loss never tears an accepted transaction.
const LAD_QUEUE_DEPTH: usize = 64;

/// One accepted line waiting in (or recently drained from) the ADR queue.
#[derive(Clone, Debug)]
struct QueuedLine {
    tx: u64,
    line: u64,
    image: LineImage,
}

/// The logless atomic durability engine.
#[derive(Debug)]
pub struct LadEngine {
    base: ControllerBase,
    /// Volatile controller queues: per-transaction line images.
    active: DetHashMap<TxId, DetHashMap<u64, LineImage>>,
    /// Durable (ADR/battery domain): accepted lines, oldest first, capped
    /// at [`LAD_QUEUE_DEPTH`].
    queue: Vec<QueuedLine>,
}

impl LadEngine {
    /// Creates the engine for the machine described by `cfg`.
    pub fn new(cfg: &SimConfig) -> Self {
        LadEngine {
            base: ControllerBase::new(cfg),
            active: DetHashMap::default(),
            queue: Vec::new(),
        }
    }
}

impl PersistenceEngine for LadEngine {
    fn name(&self) -> &'static str {
        "LAD"
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
        // Split borrows: the queue is mutated while the home store is only
        // read for base images.
        let LadEngine { base, active, .. } = self;
        let entry = active.get_mut(&tx).expect("store outside tx");
        let mut off = 0usize;
        for line in lines_covering(addr, data.len() as u64) {
            let img = entry
                .entry(line.0)
                .or_insert_with(|| base.store.read_line(line.base()));
            let start = (addr.0 + off as u64).max(line.base().0);
            let end = (addr.0 + data.len() as u64).min(line.base().0 + 64);
            let lo = (start - line.base().0) as usize;
            let hi = (end - line.base().0) as usize;
            img[lo..hi].copy_from_slice(&data[off..off + (hi - lo)]);
            off += hi - lo;
        }
        self.base
            .stats
            .store_overhead_cycles
            .add(costs::LAD_QUEUE_APPEND);
        costs::LAD_QUEUE_APPEND
    }

    fn on_llc_miss(&mut self, _core: CoreId, line: Line, now: Cycle) -> MissFill {
        self.base.serve_miss_from_home(line, now)
    }

    fn on_evict_dirty(&mut self, line: Line, persistent: bool, line_data: &[u8], now: Cycle) {
        if persistent {
            // The controller queue already holds (or will hold at commit)
            // the authoritative image; refresh it and swallow the eviction.
            // lint:order-frozen: each entry is refreshed independently —
            // no cross-entry state, so visit order cannot leak into results.
            for entry in self.active.values_mut() {
                if let Some(img) = entry.get_mut(&line.0) {
                    *img = to_line_image(line_data);
                }
            }
            return;
        }
        self.base
            .write_home_line(line, line_data, now, TrafficClass::Data);
    }

    fn tx_end(&mut self, _core: CoreId, tx: TxId, now: Cycle) -> CommitOutcome {
        let lines = self.active.remove(&tx).expect("commit of unknown tx");
        let bytes = lines.len() as u64 * CACHE_LINE_BYTES;
        let first = lines
            // lint:order-frozen: the first key is the commit burst's start
            // address; deterministic under the frozen DetHashMap order.
            .keys()
            .next()
            .map(|l| Line(*l).base())
            .unwrap_or(PAddr(0));
        let done = self.base.write_burst(first, bytes, now, TrafficClass::Data);
        if self.base.probe.is_attached() {
            // lint:order-frozen: sets the crash-point order of the
            // `DataPersisted` events.
            for l in lines.keys() {
                // The ordered home burst makes every queued line durable.
                self.base
                    .probe
                    .emit(Event::DataPersisted(tx, Line(*l)), done);
            }
        }
        // Commit completes when the controller handshake acknowledges the
        // burst — the transaction's durable point. Acceptance moves the
        // write set into the ADR-domain queue; the home writes below drain
        // that queue in the same protected step, so no persist event
        // separates them from the acceptance.
        let accepted = self
            .base
            .probe
            .emit(Event::CommitRecord(tx), done + COMMIT_PROTOCOL_CYCLES);
        let mut clean_lines = Vec::with_capacity(lines.len());
        if accepted {
            // lint:order-frozen: sets the ADR queue's entry order, which
            // recovery replays oldest-first.
            for (l, img) in &lines {
                self.queue.push(QueuedLine {
                    tx: tx.0,
                    line: *l,
                    image: *img,
                });
            }
            let excess = self.queue.len().saturating_sub(LAD_QUEUE_DEPTH);
            if excess > 0 {
                // Oldest entries have long retired to home; drop them.
                self.queue.drain(..excess);
            }
        }
        // lint:order-frozen: sets the home-write order and the order of the
        // clean lines handed back to the system.
        for (l, img) in lines {
            clean_lines.push(Line(l));
            self.base.store.write_line(Line(l).base(), img);
        }
        let latency = done.saturating_sub(now) + COMMIT_PROTOCOL_CYCLES;
        self.base.stats.commit_stall_cycles.add(latency);
        self.base.stats.committed_txs.inc();
        CommitOutcome {
            latency,
            clean_lines,
        }
    }

    fn tick(&mut self, now: Cycle) -> Cycle {
        // LAD's queue lives in the battery-backed ADR domain, not on the
        // NVM media, so recovery replay reads are never media-classified —
        // only the patrol scrub and demand-path reads are.
        self.base.media_tick(now);
        0
    }

    fn drain(&mut self, _now: Cycle) {}

    fn crash(&mut self) {
        self.active.clear();
    }

    fn recover(&mut self, threads: usize) -> RecoveryReport {
        // Accepted transactions drain to home synchronously, but the ADR
        // queue is the durability witness for writes in flight at power
        // loss: recovery re-applies the surviving queue (idempotent — every
        // entry is an accepted image, replayed oldest-first). Replayed
        // without draining so a crash injected mid-recovery leaves the
        // queue for the next pass.
        let bytes_scanned = self.queue.len() as u64 * (CACHE_LINE_BYTES + 8);
        let mut bytes_written = 0;
        let mut txs: DetHashSet<u64> = DetHashSet::default();
        for q in &self.queue {
            self.base.probe.emit(Event::Recovery, 0);
            self.base.store.write_line(Line(q.line).base(), q.image);
            bytes_written += CACHE_LINE_BYTES;
            txs.insert(q.tx);
        }
        let txs_replayed = txs.len() as u64;
        if self.base.probe.emit(Event::Reclaim, 0) {
            self.queue.clear();
        }
        let bw = self.base.device.timing().bandwidth_gbps;
        let modeled_ms =
            (bytes_scanned + bytes_written) as f64 / (bw * 1.0e6) / threads.max(1) as f64;
        RecoveryReport {
            modeled_ms,
            bytes_scanned,
            bytes_written,
            txs_replayed,
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

    fn engine() -> LadEngine {
        LadEngine::new(&SimConfig::small_for_tests())
    }

    #[test]
    fn commit_writes_home_once_per_line() {
        let mut e = engine();
        let tx = e.tx_begin(CoreId(0), 0);
        e.on_store(CoreId(0), tx, PAddr(0), &1u64.to_le_bytes(), 0);
        e.on_store(CoreId(0), tx, PAddr(8), &2u64.to_le_bytes(), 0);
        e.tx_end(CoreId(0), tx, 10);
        assert_eq!(e.device().traffic().written(TrafficClass::Data), 64);
        assert_eq!(e.durable().read_u64(PAddr(0)), 1);
        assert_eq!(e.durable().read_u64(PAddr(8)), 2);
    }

    #[test]
    fn uncommitted_never_reaches_home() {
        let mut e = engine();
        e.init_home(PAddr(0), &7u64.to_le_bytes());
        let tx = e.tx_begin(CoreId(0), 0);
        e.on_store(CoreId(0), tx, PAddr(0), &9u64.to_le_bytes(), 0);
        let mut img = [0u8; 64];
        img[..8].copy_from_slice(&9u64.to_le_bytes());
        e.on_evict_dirty(Line(0), true, &img, 5);
        e.crash();
        e.recover(1);
        assert_eq!(e.durable().read_u64(PAddr(0)), 7);
        assert_eq!(e.device().traffic().written(TrafficClass::Data), 0);
    }

    #[test]
    fn commit_latency_includes_protocol() {
        let mut e = engine();
        let tx = e.tx_begin(CoreId(0), 0);
        let out = e.tx_end(CoreId(0), tx, 0);
        assert_eq!(out.latency, COMMIT_PROTOCOL_CYCLES);
    }
}
