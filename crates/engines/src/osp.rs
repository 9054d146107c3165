//! OSP: optimized shadow paging at cache-line granularity, in the SSP style
//! (Ni et al., HotStorage'18 / MICRO'19; §IV-A of the HOOP paper).
//!
//! Every virtual cache line is backed by two physical lines; transactional
//! stores go to the non-committed copy, which is persisted *eagerly* during
//! execution. Commit atomically flips the committed-copy bits — but flipping
//! mappings means TLB shootdowns on a multicore, and periodic page
//! consolidation copies data to keep pages dense (§IV-B lists both as OSP's
//! costs).

use simcore::det::{DetHashMap, DetHashSet};

use nvm::{NvmDevice, PersistentStore, TrafficClass};
use simcore::addr::{lines_covering, Line, CACHE_LINE_BYTES};
use simcore::config::SimConfig;
use simcore::persist::Event;
use simcore::{CoreId, Cycle, PAddr, TxId};

use crate::common::{read_line_image, to_line_image, ControllerBase, LineImage};
use crate::costs;
use crate::layout;
use crate::traits::{
    CommitOutcome, EngineProperties, EngineStats, Level, MissFill, PersistenceEngine,
    RecoveryReport,
};

/// Fraction of a full TLB shootdown charged per commit (invalidations for
/// several commits batch into one IPI round on average).
const SHOOTDOWN_FRACTION: f64 = 0.15;

/// One page consolidation is charged every this many committed lines; it
/// copies a page's worth of shadow lines.
const CONSOLIDATION_EVERY_LINES: u64 = 256;

/// Committed-bit metadata bytes persisted per committed line (bitmap word,
/// amortized).
const COMMIT_META_BYTES: u64 = 8;

#[derive(Clone, Debug)]
struct TxLine {
    image: LineImage,
    /// Completion cycle of the eager shadow persist.
    persisted_at: Cycle,
}

/// Durable image of one shadow line (what a post-crash scan of the shadow
/// region plus its per-line ownership metadata would reconstruct).
#[derive(Clone, Debug)]
struct ShadowRecord {
    tx: u64,
    line: u64,
    image: LineImage,
}

/// The SSP-style cache-line shadow paging engine.
#[derive(Debug)]
pub struct OspEngine {
    base: ControllerBase,
    shadow_region: PAddr,
    /// Volatile: open transactions' shadow lines.
    active: DetHashMap<TxId, DetHashMap<u64, TxLine>>,
    /// Durable: shadow-region line contents, in persist order. Pruned of
    /// committed entries at consolidation time.
    shadow_log: Vec<ShadowRecord>,
    /// Durable: transactions whose committed-bit flip persisted, in commit
    /// order. Cleared together with the pruned shadow records.
    commit_log: Vec<u64>,
    lines_since_consolidation: u64,
}

impl OspEngine {
    /// Creates the engine for the machine described by `cfg`.
    pub fn new(cfg: &SimConfig) -> Self {
        let mut regions = layout::engine_region_allocator();
        let shadow_region = regions.reserve(1 << 36, 4096);
        OspEngine {
            base: ControllerBase::new(cfg),
            shadow_region,
            active: DetHashMap::default(),
            shadow_log: Vec::new(),
            commit_log: Vec::new(),
            lines_since_consolidation: 0,
        }
    }

    fn shadow_addr(&self, line: Line) -> PAddr {
        self.shadow_region
            .offset((line.0 * CACHE_LINE_BYTES) & ((1 << 36) - 1))
    }
}

impl PersistenceEngine for OspEngine {
    fn name(&self) -> &'static str {
        "OSP"
    }

    fn properties(&self) -> EngineProperties {
        EngineProperties {
            read_latency: Level::Low,
            on_critical_path: true,
            requires_flush_fence: true,
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

    fn on_store(&mut self, _core: CoreId, tx: TxId, addr: PAddr, data: &[u8], now: Cycle) -> Cycle {
        let mut eager: Vec<u64> = Vec::new();
        {
            // Split borrows: the write set is mutated while the home store is
            // only read for base images.
            let OspEngine { base, active, .. } = self;
            let entry = active.get_mut(&tx).expect("store outside tx");
            let mut off = 0usize;
            for line in lines_covering(addr, data.len() as u64) {
                let fresh = !entry.contains_key(&line.0);
                let t = entry.entry(line.0).or_insert_with(|| TxLine {
                    image: read_line_image(&base.store, line),
                    persisted_at: 0,
                });
                let start = (addr.0 + off as u64).max(line.base().0);
                let end = (addr.0 + data.len() as u64).min(line.base().0 + 64);
                let lo = (start - line.base().0) as usize;
                let hi = (end - line.base().0) as usize;
                t.image[lo..hi].copy_from_slice(&data[off..off + (hi - lo)]);
                off += hi - lo;
                if fresh {
                    eager.push(line.0);
                }
            }
        }
        // Eager persistence of newly-touched shadow lines (asynchronous —
        // commit waits for them).
        for l in eager {
            let shadow = self.shadow_addr(Line(l));
            let done = self
                .base
                .write_burst(shadow, CACHE_LINE_BYTES, now, TrafficClass::Data);
            let entry = self.active.get_mut(&tx).expect("store outside tx");
            let t = entry.get_mut(&l).expect("just inserted");
            t.persisted_at = done;
            let image = t.image;
            if self.base.probe.emit(Event::Payload, now) {
                self.shadow_log.push(ShadowRecord {
                    tx: tx.0,
                    line: l,
                    image,
                });
            }
        }
        0
    }

    fn on_llc_miss(&mut self, _core: CoreId, line: Line, now: Cycle) -> MissFill {
        // The committed copy is found through the (already translated) TLB
        // mapping: a plain read.
        self.base.serve_miss_from_home(line, now)
    }

    fn on_evict_dirty(&mut self, line: Line, persistent: bool, line_data: &[u8], now: Cycle) {
        if persistent {
            // The eager shadow persist already covers transactional lines;
            // refresh the tracked image with the authoritative data and
            // re-persist the delta.
            let shadow = self.shadow_addr(line);
            let mut refreshed_txs: Vec<u64> = Vec::new();
            // lint:order-frozen: independent per-entry image refresh —
            // visit order cannot leak into simulated state.
            for (id, entry) in self.active.iter_mut() {
                if let Some(t) = entry.get_mut(&line.0) {
                    t.image = to_line_image(line_data);
                    refreshed_txs.push(id.0);
                }
            }
            if !refreshed_txs.is_empty() {
                let done = self
                    .base
                    .write_burst(shadow, CACHE_LINE_BYTES, now, TrafficClass::Data);
                // One shadow-region re-persist covers every tracking tx.
                if self.base.probe.emit(Event::Payload, now) {
                    for rec in self.shadow_log.iter_mut() {
                        if rec.line == line.0 && refreshed_txs.contains(&rec.tx) {
                            rec.image = to_line_image(line_data);
                        }
                    }
                }
                // lint:order-frozen: max() over one shared `done` per entry,
                // order-independent.
                for entry in self.active.values_mut() {
                    if let Some(t) = entry.get_mut(&line.0) {
                        t.persisted_at = t.persisted_at.max(done);
                    }
                }
            }
            return;
        }
        self.base
            .write_home_line(line, line_data, now, TrafficClass::Data);
    }

    fn tx_end(&mut self, _core: CoreId, tx: TxId, now: Cycle) -> CommitOutcome {
        let lines = self.active.remove(&tx).expect("commit of unknown tx");
        let n = lines.len() as u64;
        // Wait for all eager shadow persists, then persist the committed-bit
        // metadata, then pay the (batched) TLB shootdown.
        let mut done = now;
        for t in lines.values() {
            done = done.max(t.persisted_at);
        }
        // The commit waits above model the final shadow flushes: refresh
        // this transaction's durable shadow records to the flushed images
        // (one persist-ordering event per write-set line). Every shadow line
        // is durable once the waits resolve — strictly before the
        // committed-bit flip below.
        for (l, t) in &lines {
            if self
                .base
                .probe
                .emit(Event::PayloadWrite(tx, Line(*l)), done)
            {
                self.shadow_log.retain(|r| !(r.tx == tx.0 && r.line == *l));
                self.shadow_log.push(ShadowRecord {
                    tx: tx.0,
                    line: *l,
                    image: t.image,
                });
            }
        }
        done = self.base.write_burst(
            self.shadow_region,
            n * COMMIT_META_BYTES,
            done,
            TrafficClass::Metadata,
        );
        // The committed-bit metadata write is the durable commit point. The
        // home-view flip below is the same mutation seen through the home
        // addresses, so no persist event separates them.
        if self.base.probe.emit(Event::CommitRecord(tx), done) {
            self.commit_log.push(tx.0);
        }
        // lint:allow(sim-state-float): fractional scaling of one constant
        // cost — exact in f64, identical on every host.
        let shootdown = (costs::TLB_SHOOTDOWN as f64 * SHOOTDOWN_FRACTION) as Cycle;
        let mut latency = done.saturating_sub(now) + shootdown;

        // Flipping the committed copy makes the shadow data the new home
        // image.
        let mut clean_lines = Vec::with_capacity(lines.len());
        for (l, t) in lines {
            clean_lines.push(Line(l));
            self.base.store.write_bytes(Line(l).base(), &t.image);
        }

        // Periodic page consolidation copies shadow lines to keep pages
        // dense; it also retires the shadow copies of committed
        // transactions (their home images are authoritative), keeping the
        // durable shadow log bounded.
        self.lines_since_consolidation += n;
        if self.lines_since_consolidation >= CONSOLIDATION_EVERY_LINES {
            self.lines_since_consolidation = 0;
            self.base.write_burst(
                self.shadow_region,
                CONSOLIDATION_EVERY_LINES / 4 * CACHE_LINE_BYTES,
                done,
                TrafficClass::Gc,
            );
            if self.base.probe.emit(Event::Reclaim, now) {
                let committed: DetHashSet<u64> = self.commit_log.iter().copied().collect();
                self.shadow_log.retain(|r| !committed.contains(&r.tx));
                self.commit_log.clear();
            }
            latency += costs::OSP_CONSOLIDATION_OVERHEAD;
        }

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
        // Uncommitted shadow copies are unreachable after a crash (their
        // committed bits never flipped); dropping the volatile tracking is
        // all that is needed.
        self.active.clear();
    }

    fn recover(&mut self, threads: usize) -> RecoveryReport {
        let committed: DetHashSet<u64> = self.commit_log.iter().copied().collect();
        let bytes_scanned = self.shadow_log.len() as u64 * (CACHE_LINE_BYTES + COMMIT_META_BYTES);
        let mut bytes_written = 0;
        // Re-apply committed shadow copies whose home flip may not have
        // reached every address (idempotent: replay order is persist order,
        // so the newest committed image wins). Replayed without draining so
        // a crash injected mid-recovery leaves the log for the next pass.
        for (i, rec) in self.shadow_log.iter().enumerate() {
            if committed.contains(&rec.tx) {
                self.base.probe.emit(Event::Recovery, 0);
                // The shadow copy is the only durable source of this
                // committed image; if the media lost it, home keeps the
                // pre-transaction bytes — a classified loss, not garbage.
                let slot = self
                    .shadow_region
                    .offset(i as u64 * (CACHE_LINE_BYTES + COMMIT_META_BYTES));
                if self
                    .base
                    .media_read_span(slot, CACHE_LINE_BYTES + COMMIT_META_BYTES)
                    .is_err()
                {
                    self.base.media.note_loss(Line(rec.line));
                    continue;
                }
                self.base
                    .store
                    .write_bytes(Line(rec.line).base(), &rec.image);
                bytes_written += CACHE_LINE_BYTES;
            }
        }
        let txs_replayed = committed.len() as u64;
        if self.base.probe.emit(Event::Reclaim, 0) {
            self.shadow_log.clear();
            self.commit_log.clear();
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

    fn engine() -> OspEngine {
        OspEngine::new(&SimConfig::small_for_tests())
    }

    #[test]
    fn commit_flips_to_shadow_data() {
        let mut e = engine();
        e.init_home(PAddr(0), &1u64.to_le_bytes());
        let tx = e.tx_begin(CoreId(0), 0);
        e.on_store(CoreId(0), tx, PAddr(0), &2u64.to_le_bytes(), 0);
        e.tx_end(CoreId(0), tx, 10);
        e.crash();
        e.recover(1);
        assert_eq!(e.durable().read_u64(PAddr(0)), 2);
    }

    #[test]
    fn uncommitted_is_invisible() {
        let mut e = engine();
        e.init_home(PAddr(0), &1u64.to_le_bytes());
        let tx = e.tx_begin(CoreId(0), 0);
        e.on_store(CoreId(0), tx, PAddr(0), &2u64.to_le_bytes(), 0);
        e.crash();
        e.recover(1);
        assert_eq!(e.durable().read_u64(PAddr(0)), 1);
    }

    #[test]
    fn eager_persist_happens_at_store_time() {
        let mut e = engine();
        let tx = e.tx_begin(CoreId(0), 0);
        e.on_store(CoreId(0), tx, PAddr(0), &2u64.to_le_bytes(), 0);
        assert_eq!(e.device().traffic().written(TrafficClass::Data), 64);
    }

    #[test]
    fn commit_pays_shootdown() {
        let mut e = engine();
        let tx = e.tx_begin(CoreId(0), 0);
        e.on_store(CoreId(0), tx, PAddr(0), &2u64.to_le_bytes(), 0);
        let out = e.tx_end(CoreId(0), tx, 500);
        // lint:allow(sim-state-float): mirrors the engine's constant scaling.
        assert!(out.latency >= (costs::TLB_SHOOTDOWN as f64 * SHOOTDOWN_FRACTION) as u64);
    }

    #[test]
    fn no_amplification_beyond_line_plus_meta() {
        let mut e = engine();
        let tx = e.tx_begin(CoreId(0), 0);
        e.on_store(CoreId(0), tx, PAddr(0), &2u64.to_le_bytes(), 0);
        e.on_store(CoreId(0), tx, PAddr(8), &3u64.to_le_bytes(), 0);
        e.tx_end(CoreId(0), tx, 10);
        let t = e.device().traffic();
        assert_eq!(t.written(TrafficClass::Data), 64);
        assert_eq!(t.written(TrafficClass::Metadata), COMMIT_META_BYTES);
    }
}
