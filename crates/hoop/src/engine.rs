//! The HOOP memory-controller engine (§III-B/C/G, Fig. 2 and Fig. 6).
//!
//! Implements `engines::PersistenceEngine`: transactional stores stream
//! word-granularity updates through the per-core [OOP data
//! buffer](crate::oop_buffer) into 128-byte [memory slices](crate::slice)
//! appended to the log-structured [OOP region](crate::region); `Tx_end`
//! flushes the open slice and persists a commit record into the current
//! address slice. LLC misses consult the [mapping table](crate::mapping)
//! (redirected reads fetch the OOP slice and, when the slice coverage is
//! partial, the home line in parallel), then the [eviction
//! buffer](crate::evict_buffer), then home. Background [GC](crate::gc) and
//! parallel [recovery](crate::recovery) live in their own modules.

use simcore::det::DetHashSet;

use engines::common::ControllerBase;
use engines::costs;
use engines::layout;
use engines::traits::{
    CommitOutcome, EngineProperties, EngineStats, Level, MissFill, PersistenceEngine,
    RecoveryReport,
};
use nvm::{NvmDevice, Op, PersistentStore, TrafficClass};
use simcore::addr::{Line, CACHE_LINE_BYTES, WORD_BYTES};
use simcore::config::{HoopConfig, SimConfig};
use simcore::crashpoint::PersistEvent;
use simcore::{CoreId, Cycle, PAddr, TxId};

use crate::evict_buffer::EvictionBuffer;
use crate::mapping::MappingTable;
use crate::oop_buffer::SliceBuilder;
use crate::region::OopRegion;
use crate::slice::{
    encode_records, set_commit_tail, CommitRecord, DataSlice, SliceFlag, WordUpdate,
    ADDR_ENTRIES_PER_SLICE, NO_LINK, SLICE_BYTES,
};

/// Commit-record append bytes (one 8-byte entry plus the count word).
const COMMIT_APPEND_BYTES: u64 = 16;

/// Per-core transaction state in the controller (volatile).
#[derive(Clone, Debug)]
pub(crate) struct CoreTx {
    tx: Option<TxId>,
    builder: SliceBuilder,
    prev_slot: u32,
    first: bool,
    outstanding: Cycle,
    slots: Vec<u32>,
    touched_lines: DetHashSet<u64>,
}

impl CoreTx {
    fn new() -> Self {
        CoreTx {
            tx: None,
            builder: SliceBuilder::new(),
            prev_slot: NO_LINK,
            first: true,
            outstanding: 0,
            slots: Vec::new(),
            touched_lines: DetHashSet::default(),
        }
    }

    fn reset(&mut self) {
        // Clear in place — keeps the builder/slots/set allocations warm
        // across the thousands of transactions a measured run commits.
        self.tx = None;
        self.builder.clear();
        self.prev_slot = NO_LINK;
        self.first = true;
        self.outstanding = 0;
        self.slots.clear();
        self.touched_lines.clear();
    }
}

/// The hardware-assisted out-of-place update engine.
#[derive(Debug)]
pub struct HoopEngine {
    pub(crate) base: ControllerBase,
    pub(crate) hoop: HoopConfig,
    pub(crate) region: OopRegion,
    pub(crate) mapping: MappingTable,
    pub(crate) evict_buf: EvictionBuffer,
    cores: Vec<CoreTx>,
    /// Entries of the open address slice (mirrored durably on every append).
    addr_entries: Vec<CommitRecord>,
    addr_slot: Option<u32>,
    next_gc: Cycle,
    gc_period: Cycle,
    /// Critical-path debt from background-GC channel interference,
    /// amortized over subsequent commits (§IV-F: eager GC "consumes NVM
    /// bandwidth", slowing transactions).
    bg_interference: Cycle,
    /// Until this cycle, slice allocation is blocked behind an on-demand GC
    /// (§IV-F: past ~11 ms the reserve runs out and GC lands on the
    /// critical path).
    region_blocked_until: Cycle,
    /// Ablation switch: pack up to 8 words per slice (on) or flush one word
    /// per slice (off).
    packing: bool,
    /// Ablation switch: coalesce GC migrations per line (on) or write every
    /// scanned line-touch home individually (off).
    pub(crate) coalescing: bool,
}

impl HoopEngine {
    /// Creates the engine for the machine described by `cfg`.
    pub fn new(cfg: &SimConfig) -> Self {
        let mut regions = layout::engine_region_allocator();
        let region_base = regions.reserve(cfg.hoop.oop_region_bytes, cfg.hoop.oop_block_bytes);
        let region = OopRegion::new(
            region_base,
            cfg.hoop.oop_region_bytes,
            cfg.hoop.oop_block_bytes,
        );
        HoopEngine {
            base: ControllerBase::new(cfg),
            hoop: cfg.hoop,
            region,
            mapping: MappingTable::new(cfg.hoop.mapping_table_entries()),
            evict_buf: EvictionBuffer::new(cfg.hoop.eviction_buffer_entries()),
            cores: (0..cfg.cores as usize).map(|_| CoreTx::new()).collect(),
            addr_entries: Vec::new(),
            addr_slot: None,
            next_gc: cfg.hoop.gc_period_cycles(),
            gc_period: cfg.hoop.gc_period_cycles(),
            bg_interference: 0,
            region_blocked_until: 0,
            packing: true,
            coalescing: true,
        }
    }

    /// Disables/enables data packing (ablation: `packing_ablation` bench).
    pub fn set_packing(&mut self, enabled: bool) {
        self.packing = enabled;
    }

    /// Disables/enables GC data coalescing (ablation: `gc_ablation` bench).
    pub fn set_coalescing(&mut self, enabled: bool) {
        self.coalescing = enabled;
    }

    /// The OOP region (inspection; used by benches and tests).
    pub fn oop_region(&self) -> &OopRegion {
        &self.region
    }

    /// The mapping table (inspection).
    pub fn mapping_table(&self) -> &MappingTable {
        &self.mapping
    }

    /// Scans the durable OOP region for commit-tail data slices, returning
    /// (slot, txid) pairs — the durable commit points currently on media
    /// (inspection/fault-injection helper).
    pub fn commit_tail_slots(&self) -> Vec<(u32, u32)> {
        let region = &self.region;
        let mut out = Vec::new();
        for b in 0..region.block_count() {
            for local in 0..region.block(b).allocated() {
                let slot = b as u32 * region.slices_per_block() + local;
                let raw = crate::gc::read_slice_raw(&self.base.store, region, slot);
                if let Some(d) = DataSlice::decode(&raw) {
                    if d.commit {
                        out.push((slot, d.tx));
                    }
                }
            }
        }
        out
    }

    /// Fault injection: tears the persist of slice `slot`, keeping only the
    /// first `keep_bytes` (rounded down to the 8-byte atomic-persist unit)
    /// on media — as if power failed mid-flush. The slice checksum then
    /// fails and GC/recovery treat the slice as never written. Used by the
    /// torn-write crash tests.
    pub fn tear_slot(&mut self, slot: u32, keep_bytes: usize) {
        let addr = self.region.slot_addr(slot);
        let mut raw = [0u8; SLICE_BYTES as usize];
        self.base.store.read_bytes(addr, &mut raw);
        self.base.store.zero_range(addr, SLICE_BYTES);
        self.base.store.write_bytes_torn(addr, &raw, keep_bytes);
    }

    /// Forgets the open address slice after GC tombstoned it on media.
    pub(crate) fn clear_open_addr_slice(&mut self) {
        self.addr_entries.clear();
        self.addr_slot = None;
    }

    /// Allocates a slice slot, running on-demand GC if the region is full.
    /// Returns (slot, stall cycles charged to the critical path).
    fn alloc_slot(&mut self, now: Cycle) -> (u32, Cycle) {
        // A still-running on-demand GC blocks allocation for every core.
        let mut stall = self.region_blocked_until.saturating_sub(now);
        if let Some(s) = self.region.alloc_slice() {
            if stall > 0 {
                self.base.stats.ondemand_gc_stall_cycles.add(stall);
            }
            return (s.slot, stall);
        }
        let done = self.run_gc(now + stall);
        self.region_blocked_until = done;
        stall += done.saturating_sub(now + stall);
        self.base.stats.ondemand_gc_stall_cycles.add(stall);
        match self.region.alloc_slice() {
            Some(s) => (s.slot, stall),
            None => panic!(
                "OOP region exhausted even after GC: {} blocks busy with uncommitted data",
                self.region.block_count()
            ),
        }
    }

    /// Flushes a batch of packed words as one memory slice (§III-C
    /// "Persistence Ordering", first scenario) and returns stall cycles.
    /// `commit` marks the transaction's tail slice — the durable commit
    /// point.
    fn flush_slice(
        &mut self,
        core: usize,
        batch: Vec<WordUpdate>,
        now: Cycle,
        commit: bool,
    ) -> Cycle {
        debug_assert!(!batch.is_empty());
        let (slot, mut stall) = self.alloc_slot(now);
        let txid = self.cores[core].tx.expect("flush outside tx");
        let tx = txid.as_u32();
        let slice = DataSlice {
            words: batch,
            link: self.cores[core].prev_slot,
            tx,
            start: self.cores[core].first,
            commit,
        };
        let addr = self.region.slot_addr(slot);
        // With packing ablated, every update carries its own unshared
        // 64-byte metadata block (Fig. 3's point is amortizing it 8 ways).
        let flush = if self.packing {
            crate::slice::flush_bytes(slice.words.len())
        } else {
            (8 * slice.words.len() as u64 + 64 + 15) & !15
        };
        // One slice persist = one crash point. A tail slice atomically
        // carries payload and commit flag (its CRC seals both), so it ticks
        // as a commit event; crashing *at* it drops the whole slice.
        if commit {
            self.base.crash.event(PersistEvent::Commit, Some(txid));
        } else {
            self.base.crash.event(PersistEvent::Payload, None);
        }
        self.base.store.write_bytes(addr, &slice.encode());
        let done = self
            .base
            .write_burst(addr, flush, now + stall, TrafficClass::Log);
        let block = self.region.slot_block(slot);
        for w in &slice.words {
            self.mapping
                .insert(w.home.line(), slot, 1 << w.home.word_in_line());
            if self.base.san.is_active() {
                // The slice burst completing is when these words' newest
                // versions are durable out of place.
                self.base.san.data_persisted(txid, w.home.line(), done);
                self.base.san.map_insert(w.home.line(), block as u32, done);
            }
        }
        if commit {
            // The tail slice's commit flag is the durable commit point
            // (§III-C); it must be announced before any GC the mapping-table
            // pressure check below may trigger.
            self.base.san.commit_record(txid, done);
        }
        self.region.block_mut(block).add_uncommitted(1);
        let c = &mut self.cores[core];
        c.builder.recycle(slice.words);
        c.outstanding = c.outstanding.max(done);
        c.slots.push(slot);
        c.prev_slot = slot;
        c.first = false;
        // A full mapping table forces GC onto the critical path (§IV-H).
        if self.mapping.fill_fraction() >= 1.0 {
            let done = self.run_gc(now + stall);
            let gc_stall = done.saturating_sub(now + stall);
            self.base.stats.ondemand_gc_stall_cycles.add(gc_stall);
            stall += gc_stall;
        }
        stall
    }

    /// Persists one commit record into the open address slice; returns the
    /// cycle at which the record is durable.
    fn append_commit_record(&mut self, rec: CommitRecord, issue: Cycle) -> Cycle {
        let mut stall = 0;
        if self.addr_slot.is_none() {
            let (slot, s) = self.alloc_slot(issue);
            self.addr_slot = Some(slot);
            stall = s;
        }
        self.addr_entries.push(rec);
        let slot = self.addr_slot.expect("just ensured");
        let addr = self.region.slot_addr(slot);
        let encoded = encode_records(&self.addr_entries, SliceFlag::Addr);
        // Asynchronous index append — an accelerator for GC/recovery scans,
        // not the commit point (that is the tail slice's flag).
        self.base.crash.event(PersistEvent::Meta, None);
        self.base.store.write_bytes(addr, &encoded);
        let done = self.base.write_burst(
            addr,
            COMMIT_APPEND_BYTES,
            issue + stall,
            TrafficClass::Metadata,
        );
        if self.addr_entries.len() == ADDR_ENTRIES_PER_SLICE {
            self.addr_entries.clear();
            self.addr_slot = None;
        }
        done
    }
}

impl PersistenceEngine for HoopEngine {
    fn name(&self) -> &'static str {
        "HOOP"
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

    fn tx_begin(&mut self, core: CoreId, _now: Cycle) -> TxId {
        let tx = self.base.alloc_tx();
        let c = &mut self.cores[core.index()];
        assert!(
            c.tx.is_none(),
            "controller already has an open tx on {core}"
        );
        c.reset();
        c.tx = Some(tx);
        tx
    }

    fn on_store(&mut self, core: CoreId, tx: TxId, addr: PAddr, data: &[u8], now: Cycle) -> Cycle {
        assert!(
            addr.is_word_aligned() && data.len().is_multiple_of(WORD_BYTES as usize),
            "HOOP tracks updates at word granularity (§III-C): store must be 8-byte aligned"
        );
        let ci = core.index();
        debug_assert_eq!(self.cores[ci].tx, Some(tx), "store for wrong tx");
        let mut cost = 0;
        for (k, chunk) in data.chunks_exact(8).enumerate() {
            let home = addr.offset(k as u64 * WORD_BYTES);
            let value = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            cost += costs::OOP_BUFFER_APPEND;
            self.cores[ci].touched_lines.insert(home.line().0);
            let full = self.cores[ci].builder.push(home, value);
            let batch = match full {
                Some(b) => Some(b),
                None if !self.packing => Some(self.cores[ci].builder.take()),
                None => None,
            };
            if let Some(batch) = batch {
                cost += self.flush_slice(ci, batch, now + cost, false);
            }
        }
        self.base.stats.store_overhead_cycles.add(cost);
        cost
    }

    fn on_llc_miss(&mut self, _core: CoreId, line: Line, now: Cycle) -> MissFill {
        let mut latency = costs::MAPPING_TABLE_LOOKUP;
        if let Some(entry) = self.mapping.remove(line) {
            self.base.stats.misses_served.inc();
            if self.base.san.is_active() {
                let block = self.region.slot_block(entry.slot) as u32;
                self.base.san.redirected_read(line, block, now);
                self.base.san.map_remove(line, now);
            }
            // Redirected read: fetch the newest slice; when the cumulative
            // word coverage is partial, the home line is read in parallel to
            // reconstruct the full line (§III-G, step 4/5).
            let slice_addr = self.region.slot_addr(entry.slot);
            let issue = now + latency;
            let oop = self.base.device.access(
                issue,
                slice_addr,
                SLICE_BYTES,
                Op::Read,
                TrafficClass::Log,
            );
            self.base.stats.miss_memory_loads.inc();
            let mut complete = oop.complete;
            if entry.word_mask != 0xFF {
                let home = self.base.device.access(
                    issue,
                    line.base(),
                    CACHE_LINE_BYTES,
                    Op::Read,
                    TrafficClass::Data,
                );
                self.base.stats.miss_memory_loads.inc();
                self.base.stats.parallel_reads.inc();
                complete = complete.max(home.complete);
            }
            latency += complete.saturating_sub(issue) + costs::SLICE_UNPACK;
            self.base.stats.miss_service_cycles.add(latency);
            return MissFill { latency };
        }
        latency += costs::EVICTION_BUFFER_LOOKUP;
        if self.evict_buf.contains(line) {
            // Served from controller SRAM.
            self.base.stats.misses_served.inc();
            self.base.stats.miss_service_cycles.add(latency);
            return MissFill { latency };
        }
        let fill = self.base.serve_miss_from_home(line, now + latency);
        MissFill {
            latency: latency + fill.latency,
        }
    }

    fn on_evict_dirty(&mut self, line: Line, persistent: bool, line_data: &[u8], now: Cycle) {
        if persistent {
            // Out-of-place semantics: the transactional words of this line
            // are already (or will be, at Tx_end) durable in the OOP region;
            // the eviction itself carries no durability obligation.
            return;
        }
        self.base
            .write_home_line(line, line_data, now, TrafficClass::Data);
    }

    fn tx_end(&mut self, core: CoreId, tx: TxId, now: Cycle) -> CommitOutcome {
        let ci = core.index();
        assert_eq!(self.cores[ci].tx, Some(tx), "commit of wrong tx");
        let mut stall = 0;
        let remainder = self.cores[ci].builder.take();
        let mut done = now;
        if !remainder.is_empty() {
            // The tail slice carries the commit flag; the channel's FIFO
            // ordering guarantees every earlier slice of the transaction is
            // durable before it.
            stall += self.flush_slice(ci, remainder, now, true);
            done = self.cores[ci].outstanding.max(now + stall);
        } else if self.cores[ci].prev_slot != NO_LINK {
            // All words already flushed: set the commit bit on the tail
            // slice with a small metadata write, ordered after it.
            let slot = self.cores[ci].prev_slot;
            let addr = self.region.slot_addr(slot);
            let mut raw = [0u8; SLICE_BYTES as usize];
            self.base.store.read_bytes(addr, &mut raw);
            set_commit_tail(&mut raw, true);
            // The tail-flag metadata write is the durable commit point for
            // this path.
            self.base.crash.event(PersistEvent::Commit, Some(tx));
            self.base.store.write_bytes(addr, &raw);
            let issue = self.cores[ci].outstanding.max(now);
            done = self
                .base
                .write_burst(addr, COMMIT_APPEND_BYTES, issue, TrafficClass::Metadata);
            // Setting the tail flag on the already-durable slice is the
            // commit point for this path.
            self.base.san.commit_record(tx, done);
        }
        let last_slot = self.cores[ci].prev_slot;
        if last_slot != NO_LINK {
            // The address-slice record is an asynchronous index append
            // (§III-D: it lets GC and recovery *quickly* locate committed
            // transactions; the commit point itself is the tail flag). The
            // transaction does not wait for it.
            let _ = self.append_commit_record(
                CommitRecord {
                    last_slot,
                    tx: tx.as_u32(),
                },
                done,
            );
            // The transaction's slices are now committed.
            let slots = std::mem::take(&mut self.cores[ci].slots);
            for slot in slots {
                let b = self.region.slot_block(slot);
                self.region.block_mut(b).add_uncommitted(-1);
            }
        }
        self.base
            .stats
            .gc_bytes_in
            .add(self.cores[ci].touched_lines.len() as u64 * CACHE_LINE_BYTES);
        self.cores[ci].reset();
        let latency = done.saturating_sub(now);
        self.base.stats.commit_stall_cycles.add(latency);
        self.base.stats.committed_txs.inc();
        CommitOutcome {
            latency,
            // HOOP never flushes or cleans cache lines at commit.
            clean_lines: Vec::new(),
        }
    }

    fn tick(&mut self, now: Cycle) -> Cycle {
        self.base.media_tick(now);
        let mut stall = 0;
        // Pay down background-interference debt a slice at a time.
        if self.bg_interference > 0 {
            let pay = self.bg_interference.min(400);
            self.bg_interference -= pay;
            stall += pay;
        }
        let pressure = self.mapping.fill_fraction() >= self.hoop.mapping_table_gc_watermark
            || self.region.fill_fraction() >= 0.90;
        if now >= self.next_gc {
            // Periodic background GC: its device traffic is staggered over
            // half the period so demand accesses interleave. The bandwidth
            // it consumes still interferes with demand traffic; half of the
            // GC's channel-service time is charged back to the commit
            // stream as amortized interference (§IV-F: eager GC "consumes
            // NVM bandwidth", raising cycles per transaction).
            let before_r = self.base.device.traffic().total_read();
            let before_w = self.base.device.traffic().total_written();
            let _ = self.run_gc_spread(now, self.gc_period / 2);
            let dr = self.base.device.traffic().total_read() - before_r;
            let dw = self.base.device.traffic().total_written() - before_w;
            let t = self.base.device.timing();
            let service = (dr as f64 * simcore::CLOCK_GHZ / t.bandwidth_gbps
                + dw as f64 * simcore::CLOCK_GHZ / t.write_bandwidth_gbps)
                as Cycle; // lint:allow(sim-state-float): config-constant bandwidth math, host-identical.
            self.bg_interference += service / 2;
            self.next_gc = now + self.gc_period;
        } else if pressure {
            // On-demand GC runs on the critical path (§IV-F/§IV-H).
            let done = self.run_gc(now);
            stall = done.saturating_sub(now);
            self.base.stats.ondemand_gc_stall_cycles.add(stall);
            self.next_gc = now + self.gc_period;
        }
        stall
    }

    fn drain(&mut self, now: Cycle) {
        let done = self.run_gc(now);
        let _ = done;
    }

    fn crash(&mut self) {
        // Power loss: every SRAM structure in the controller vanishes. The
        // OOP region contents and block headers are NVM-resident and stay.
        self.base.san.mapping_cleared(0);
        self.mapping.clear();
        self.evict_buf.clear();
        for c in &mut self.cores {
            c.reset();
        }
        self.addr_entries.clear();
        self.addr_slot = None;
        self.bg_interference = 0;
        self.region_blocked_until = 0;
        for i in 0..self.region.block_count() {
            let b = self.region.block_mut(i);
            let u = b.uncommitted();
            if u > 0 {
                b.add_uncommitted(-(i64::from(u)));
            }
        }
    }

    fn recover(&mut self, threads: usize) -> RecoveryReport {
        self.run_recovery(threads)
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

    fn extra_metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("mapping_entries", self.mapping.len() as f64),
            ("mapping_fill", self.mapping.fill_fraction()),
            ("oop_region_fill", self.region.fill_fraction()),
            ("eviction_buffer_entries", self.evict_buf.len() as f64),
        ]
    }

    fn enable_endurance_tracking(&mut self) {
        self.base.device.enable_endurance_tracking();
    }

    fn media(&self) -> nvm::media::MediaModel {
        self.base.media.clone()
    }

    fn attach_sanitizer(&mut self, handle: simcore::sanitize::SanitizerHandle) {
        self.base.san = handle;
    }

    fn attach_crash_valve(&mut self, valve: simcore::crashpoint::CrashValve) {
        self.base.attach_crash_valve(valve);
    }

    fn reset_counters(&mut self) {
        self.base.reset_counters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> HoopEngine {
        HoopEngine::new(&SimConfig::small_for_tests())
    }

    #[test]
    fn committed_tx_survives_crash() {
        let mut e = engine();
        e.init_home(PAddr(0), &[5u8; 64]);
        let tx = e.tx_begin(CoreId(0), 0);
        e.on_store(CoreId(0), tx, PAddr(8), &1234u64.to_le_bytes(), 0);
        e.tx_end(CoreId(0), tx, 100);
        e.crash();
        let rep = e.recover(2);
        assert_eq!(rep.txs_replayed, 1);
        assert_eq!(e.durable().read_u64(PAddr(8)), 1234);
        // Neighboring bytes keep the home content.
        assert_eq!(e.durable().read_u8(PAddr(0)), 5);
    }

    #[test]
    fn uncommitted_tx_vanishes() {
        let mut e = engine();
        e.init_home(PAddr(0), &7u64.to_le_bytes());
        let tx = e.tx_begin(CoreId(0), 0);
        // Write enough words to force slice flushes to media.
        for i in 0..32u64 {
            e.on_store(CoreId(0), tx, PAddr(i * 8), &99u64.to_le_bytes(), 0);
        }
        e.crash();
        e.recover(1);
        assert_eq!(e.durable().read_u64(PAddr(0)), 7);
    }

    #[test]
    fn packing_puts_eight_words_in_one_slice() {
        let mut e = engine();
        let tx = e.tx_begin(CoreId(0), 0);
        let data: Vec<u8> = (0..64).collect();
        e.on_store(CoreId(0), tx, PAddr(0), &data, 0);
        // The open slice stays in the OOP data buffer until commit.
        assert_eq!(e.device().traffic().written(TrafficClass::Log), 0);
        e.tx_end(CoreId(0), tx, 10);
        // 8 words = exactly one (commit-tail) slice, plus the asynchronous
        // address-slice append.
        assert_eq!(e.device().traffic().written(TrafficClass::Log), SLICE_BYTES);
        assert_eq!(
            e.device().traffic().written(TrafficClass::Metadata),
            COMMIT_APPEND_BYTES
        );
    }

    #[test]
    fn packing_ablation_doubles_slice_count() {
        let mut packed = engine();
        let mut unpacked = engine();
        unpacked.set_packing(false);
        for e in [&mut packed, &mut unpacked] {
            let tx = e.tx_begin(CoreId(0), 0);
            let data: Vec<u8> = (0..64).collect();
            e.on_store(CoreId(0), tx, PAddr(0), &data, 0);
            e.tx_end(CoreId(0), tx, 10);
        }
        assert!(
            unpacked.device().traffic().written(TrafficClass::Log)
                >= 4 * packed.device().traffic().written(TrafficClass::Log)
        );
    }

    #[test]
    fn redirected_read_hits_oop_region() {
        let mut e = engine();
        let tx = e.tx_begin(CoreId(0), 0);
        e.on_store(CoreId(0), tx, PAddr(0), &[1u8; 64], 0);
        e.tx_end(CoreId(0), tx, 10);
        let before = e.device().traffic().read(TrafficClass::Log);
        let fill = e.on_llc_miss(CoreId(0), Line(0), 1000);
        assert!(fill.latency > 0);
        assert_eq!(
            e.device().traffic().read(TrafficClass::Log),
            before + SLICE_BYTES
        );
        // Full-line coverage: no parallel home read.
        assert_eq!(e.stats().parallel_reads.get(), 0);
        // The mapping entry was consumed by the read (§III-C).
        assert!(e.mapping_table().lookup(Line(0)).is_none());
    }

    #[test]
    fn partial_coverage_triggers_parallel_read() {
        let mut e = engine();
        let tx = e.tx_begin(CoreId(0), 0);
        e.on_store(CoreId(0), tx, PAddr(0), &1u64.to_le_bytes(), 0);
        // Force the single word out to media.
        for i in 1..8u64 {
            e.on_store(CoreId(0), tx, PAddr(4096 + i * 8), &i.to_le_bytes(), 0);
        }
        e.tx_end(CoreId(0), tx, 10);
        e.on_llc_miss(CoreId(0), Line(0), 1000);
        assert_eq!(e.stats().parallel_reads.get(), 1);
    }

    #[test]
    fn commit_latency_close_to_one_write() {
        let mut e = engine();
        let tx = e.tx_begin(CoreId(0), 0);
        e.on_store(CoreId(0), tx, PAddr(0), &1u64.to_le_bytes(), 0);
        let out = e.tx_end(CoreId(0), tx, 0);
        // One slice write + commit record, pipelined: well under the two
        // serialized writes undo logging needs.
        assert!(out.latency < 2 * 375 + 100, "latency {}", out.latency);
        assert!(out.clean_lines.is_empty());
    }

    #[test]
    fn persistent_evictions_are_free() {
        let mut e = engine();
        let tx = e.tx_begin(CoreId(0), 0);
        e.on_store(CoreId(0), tx, PAddr(0), &1u64.to_le_bytes(), 0);
        let before = e.device().traffic().total_written();
        e.on_evict_dirty(Line(0), true, &[0u8; 64], 50);
        assert_eq!(e.device().traffic().total_written(), before);
        e.tx_end(CoreId(0), tx, 100);
    }

    #[test]
    fn multi_slice_tx_chains_and_recovers() {
        let mut e = engine();
        let tx = e.tx_begin(CoreId(0), 0);
        // 24 words = 3 slices, chained via link fields.
        for i in 0..24u64 {
            e.on_store(CoreId(0), tx, PAddr(i * 8), &(i + 100).to_le_bytes(), 0);
        }
        e.tx_end(CoreId(0), tx, 10);
        e.crash();
        e.recover(4);
        for i in 0..24u64 {
            assert_eq!(e.durable().read_u64(PAddr(i * 8)), i + 100);
        }
    }

    #[test]
    fn newest_committed_version_wins_after_crash() {
        let mut e = engine();
        for round in 0..5u64 {
            let tx = e.tx_begin(CoreId(0), round * 1000);
            e.on_store(CoreId(0), tx, PAddr(64), &round.to_le_bytes(), round * 1000);
            e.tx_end(CoreId(0), tx, round * 1000 + 10);
        }
        e.crash();
        e.recover(2);
        assert_eq!(e.durable().read_u64(PAddr(64)), 4);
    }
}
