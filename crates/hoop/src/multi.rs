//! Multi-controller HOOP with two-phase commit (§III-I).
//!
//! The paper sketches HOOP "extended to support multiple memory controllers
//! with the two-phase commit protocol": in the *Prepare* phase the cache
//! controller flushes a transaction's modified data to the OOP data buffers
//! of every participating memory controller and waits for the flush
//! acknowledgments; in the *Commit* phase a commit message is persisted and
//! acknowledged. This module implements that design:
//!
//! * The home space is line-interleaved across `n` controllers, each with
//!   its own OOP region, mapping table and slice chains.
//! * `Tx_end` runs 2PC: every participant persists its remaining data
//!   slices plus a durable **prepare record** (a [`SliceFlag::Prepare`]
//!   record slice); once all participants acknowledge, the *coordinator*
//!   (the first participating controller) persists the **commit record** —
//!   the transaction's single durable commit point.
//! * Recovery reaches consensus exactly as the paper describes: a
//!   transaction is replayed iff a coordinator commit record exists; its
//!   prepared chains on every controller are then applied, newest commit id
//!   winning per word. A transaction that crashed between Prepare and
//!   Commit vanishes atomically on all controllers.

use simcore::det::{DetHashMap, DetHashSet};

use engines::common::ControllerBase;
use engines::costs;
use engines::layout;
use engines::traits::{
    CommitOutcome, EngineProperties, EngineStats, Level, MissFill, PersistenceEngine,
    RecoveryReport,
};
use nvm::{NvmDevice, Op, PersistentStore, TrafficClass};
use simcore::addr::{Line, CACHE_LINE_BYTES, WORD_BYTES};
use simcore::config::SimConfig;
use simcore::persist::Event;
use simcore::{CoreId, Cycle, PAddr, TxId};

use crate::gc::{read_slice_raw, walk_chain};
use crate::mapping::MappingTable;
use crate::oop_buffer::SliceBuilder;
use crate::recovery::model_recovery_ms;
use crate::region::OopRegion;
use crate::slice::{
    AddrSlice, CommitRecord, DataSlice, SliceFlag, WordUpdate, ADDR_ENTRIES_PER_SLICE, NO_LINK,
    SLICE_BYTES,
};

/// Cycles for one prepare/commit message round between the cache controller
/// and a memory controller (on-chip interconnect hop, both directions).
pub const TWO_PHASE_MSG: Cycle = 30;

/// One memory controller's persistent-side state.
#[derive(Debug)]
struct Ctrl {
    region: OopRegion,
    mapping: MappingTable,
    prepare_entries: Vec<CommitRecord>,
    prepare_slot: Option<u32>,
    commit_entries: Vec<CommitRecord>,
    commit_slot: Option<u32>,
}

/// Per-(core, controller) transaction chain state.
#[derive(Debug, Clone)]
struct Chain {
    builder: SliceBuilder,
    prev_slot: u32,
    first: bool,
    slots: Vec<u32>,
    outstanding: Cycle,
}

impl Chain {
    fn new() -> Self {
        Chain {
            builder: SliceBuilder::new(),
            prev_slot: NO_LINK,
            first: true,
            slots: Vec::new(),
            outstanding: 0,
        }
    }
}

#[derive(Debug)]
struct CoreTx {
    tx: Option<TxId>,
    chains: Vec<Chain>,
    touched_lines: DetHashSet<u64>,
}

/// The multi-controller HOOP engine (§III-I).
#[derive(Debug)]
pub struct MultiHoopEngine {
    base: ControllerBase,
    ctrls: Vec<Ctrl>,
    cores: Vec<CoreTx>,
}

impl MultiHoopEngine {
    /// Creates an engine with `controllers` memory controllers, splitting
    /// the configured OOP region budget between them.
    ///
    /// # Panics
    ///
    /// Panics if `controllers` is 0.
    pub fn new(cfg: &SimConfig, controllers: usize) -> Self {
        assert!(controllers > 0, "need at least one controller");
        let mut regions = layout::engine_region_allocator();
        let per_region =
            (cfg.hoop.oop_region_bytes / controllers as u64).max(2 * cfg.hoop.oop_block_bytes);
        let per_mapping = (cfg.hoop.mapping_table_entries() / controllers).max(16);
        let ctrls = (0..controllers)
            .map(|_| {
                let base = regions.reserve(per_region, cfg.hoop.oop_block_bytes);
                Ctrl {
                    region: OopRegion::new(base, per_region, cfg.hoop.oop_block_bytes),
                    mapping: MappingTable::new(per_mapping),
                    prepare_entries: Vec::new(),
                    prepare_slot: None,
                    commit_entries: Vec::new(),
                    commit_slot: None,
                }
            })
            .collect();
        MultiHoopEngine {
            base: ControllerBase::new(cfg),
            ctrls,
            cores: (0..cfg.cores as usize)
                .map(|_| CoreTx {
                    tx: None,
                    chains: (0..controllers).map(|_| Chain::new()).collect(),
                    touched_lines: DetHashSet::default(),
                })
                .collect(),
        }
    }

    /// Number of memory controllers.
    pub fn controllers(&self) -> usize {
        self.ctrls.len()
    }

    /// Which controller owns a home line (line interleaving).
    pub fn controller_of(&self, line: Line) -> usize {
        (line.0 % self.ctrls.len() as u64) as usize
    }

    fn flush_chain_slice(
        &mut self,
        core: usize,
        ctrl: usize,
        batch: Vec<WordUpdate>,
        commit: bool,
        now: Cycle,
    ) -> Cycle {
        let tx = self.cores[core].tx.expect("flush outside tx").as_u32();
        let slot = self.ctrls[ctrl].region.alloc_slice().unwrap_or_else(|| {
            // On-demand space reclamation on this controller.
            self.gc_controller(ctrl);
            self.ctrls[ctrl]
                .region
                .alloc_slice()
                .expect("multi-controller OOP region exhausted")
        });
        let chain = &self.cores[core].chains[ctrl];
        let slice = DataSlice {
            words: batch,
            link: chain.prev_slot,
            tx,
            start: chain.first,
            commit,
        };
        let addr = self.ctrls[ctrl].region.slot_addr(slot.slot);
        let flush = crate::slice::flush_bytes(slice.words.len());
        self.base.probe.emit(Event::Payload, now);
        self.base.store.write_bytes(addr, &slice.encode());
        let done = self.base.write_burst(addr, flush, now, TrafficClass::Log);
        for w in &slice.words {
            self.ctrls[ctrl]
                .mapping
                .insert(w.home.line(), slot.slot, 1 << w.home.word_in_line());
        }
        let b = self.ctrls[ctrl].region.slot_block(slot.slot);
        self.ctrls[ctrl].region.block_mut(b).add_uncommitted(1);
        let chain = &mut self.cores[core].chains[ctrl];
        chain.outstanding = chain.outstanding.max(done);
        chain.slots.push(slot.slot);
        chain.prev_slot = slot.slot;
        chain.first = false;
        done
    }

    fn append_record(
        &mut self,
        ctrl: usize,
        kind: SliceFlag,
        rec: CommitRecord,
        issue: Cycle,
    ) -> Cycle {
        let is_prepare = matches!(kind, SliceFlag::Prepare);
        let (snapshot, rotate, existing) = {
            let c = &mut self.ctrls[ctrl];
            let (entries, slot_field) = if is_prepare {
                (&mut c.prepare_entries, &mut c.prepare_slot)
            } else {
                (&mut c.commit_entries, &mut c.commit_slot)
            };
            entries.push(rec);
            let snapshot = entries.clone();
            let rotate = entries.len() == ADDR_ENTRIES_PER_SLICE;
            let existing = *slot_field;
            if rotate {
                entries.clear();
                *slot_field = None;
            }
            (snapshot, rotate, existing)
        };
        let slot = match existing {
            Some(s) => s,
            None => {
                let s = self.ctrls[ctrl]
                    .region
                    .alloc_slice()
                    .expect("record slice allocation failed")
                    .slot;
                if !rotate {
                    let c = &mut self.ctrls[ctrl];
                    if is_prepare {
                        c.prepare_slot = Some(s);
                    } else {
                        c.commit_slot = Some(s);
                    }
                }
                s
            }
        };
        let addr = self.ctrls[ctrl].region.slot_addr(slot);
        let encoded = AddrSlice { entries: snapshot }.encode_with_flag(kind);
        let done = self
            .base
            .write_burst(addr, 16, issue, TrafficClass::Metadata);
        // A prepare record is ordering metadata; only the coordinator's Addr
        // record is a transaction's durable commit point, acknowledged one
        // message after its burst (§III-I).
        let ev = if is_prepare {
            Event::Meta
        } else {
            Event::CommitRecord(TxId(u64::from(rec.tx)))
        };
        self.base.probe.emit(ev, done + TWO_PHASE_MSG);
        self.base.store.write_bytes(addr, &encoded);
        done
    }

    /// Scans every controller: (committed txids, per-controller prepared
    /// records, record-slice slots for tombstoning, slices scanned), in
    /// controller order.
    #[allow(clippy::type_complexity)]
    fn scan_all(&self) -> (DetHashSet<u32>, Vec<Vec<CommitRecord>>, Vec<Vec<u32>>, u64) {
        let mut committed = DetHashSet::default();
        let mut prepared: Vec<Vec<CommitRecord>> = Vec::with_capacity(self.ctrls.len());
        let mut record_slots: Vec<Vec<u32>> = Vec::with_capacity(self.ctrls.len());
        let mut scanned = 0u64;
        for ctrl in &self.ctrls {
            let mut prepared_ci: Vec<CommitRecord> = Vec::new();
            let mut slots_ci: Vec<u32> = Vec::new();
            for b in 0..ctrl.region.block_count() {
                for local in 0..ctrl.region.block(b).allocated() {
                    let slot = b as u32 * ctrl.region.slices_per_block() + local;
                    let raw = read_slice_raw(&self.base.store, &ctrl.region, slot);
                    scanned += 1;
                    if let Some(s) = AddrSlice::decode_with_flag(&raw, SliceFlag::Addr) {
                        slots_ci.push(slot);
                        for rec in s.entries {
                            committed.insert(rec.tx);
                        }
                    } else if let Some(s) = AddrSlice::decode_with_flag(&raw, SliceFlag::Prepare) {
                        slots_ci.push(slot);
                        prepared_ci.extend(s.entries);
                    }
                }
            }
            prepared.push(prepared_ci);
            record_slots.push(slots_ci);
        }
        (committed, prepared, record_slots, scanned)
    }

    fn gc_controller(&mut self, _ctrl: usize) {
        // Controller-local pressure falls back to a global pass: consensus
        // on committed transactions needs every controller's records anyway.
        self.migrate_committed_home();
    }

    /// Migrates every committed transaction home and reclaims clean blocks
    /// (the multi-controller GC / drain path).
    pub fn migrate_committed_home(&mut self) {
        let (committed, prepared, record_slots, scanned) = self.scan_all();
        // Walk each controller's committed chains newest commit first and
        // keep the newest committed value of every word.
        let mut coalesced: DetHashMap<u64, (u32, u64)> = DetHashMap::default();
        for (ci, records) in prepared.iter().enumerate() {
            let mut recs = records.clone();
            recs.sort_by_key(|r| std::cmp::Reverse(r.tx));
            for rec in recs.iter().filter(|r| committed.contains(&r.tx)) {
                let chain = walk_chain(
                    &self.base.store,
                    &self.ctrls[ci].region,
                    rec.last_slot,
                    rec.tx,
                    &self.base.media,
                    self.base.device.endurance(),
                );
                for slice in chain {
                    for w in &slice.words {
                        let e = coalesced.entry(w.home.0).or_insert((rec.tx, w.value));
                        if rec.tx > e.0 {
                            *e = (rec.tx, w.value);
                        }
                    }
                }
            }
        }
        self.base
            .device
            .account_untimed(scanned * SLICE_BYTES, Op::Read, TrafficClass::Gc);

        let mut lines: DetHashMap<u64, [u8; 64]> = DetHashMap::default();
        for (word, (_, value)) in &coalesced {
            let line = Line(word / CACHE_LINE_BYTES);
            let img = lines.entry(line.0).or_insert_with(|| {
                let mut buf = [0u8; 64];
                self.base.store.read_bytes(line.base(), &mut buf);
                buf
            });
            let off = (word % CACHE_LINE_BYTES) as usize;
            img[off..off + 8].copy_from_slice(&value.to_le_bytes());
        }
        for (l, img) in &lines {
            self.base.probe.emit(Event::Gc, 0);
            self.base.store.write_bytes(Line(*l).base(), img);
            let ci = self.controller_of(Line(*l));
            self.ctrls[ci].mapping.remove(Line(*l));
        }
        self.base.device.account_untimed(
            lines.len() as u64 * CACHE_LINE_BYTES,
            Op::Write,
            TrafficClass::Gc,
        );
        self.base
            .stats
            .gc_bytes_out
            .add(lines.len() as u64 * CACHE_LINE_BYTES);

        // Tombstone consumed records, then reclaim clean blocks. A single
        // reclaim event guards the whole cleanup: if an injected crash
        // drops it the records (and prepared chains) stay on media, and the
        // next pass migrates them again — idempotent because migration
        // rewrites the same newest-wins images.
        if self.base.probe.emit(Event::Reclaim, 0) {
            for (ci, slots) in record_slots.iter().enumerate() {
                for slot in slots {
                    let empty = AddrSlice {
                        entries: Vec::new(),
                    }
                    .encode();
                    let addr = self.ctrls[ci].region.slot_addr(*slot);
                    self.base.store.write_bytes(addr, &empty);
                }
                self.ctrls[ci].prepare_entries.clear();
                self.ctrls[ci].prepare_slot = None;
                self.ctrls[ci].commit_entries.clear();
                self.ctrls[ci].commit_slot = None;
                for b in 0..self.ctrls[ci].region.block_count() {
                    let block = self.ctrls[ci].region.block(b);
                    if block.allocated() > 0 && block.uncommitted() == 0 {
                        self.ctrls[ci].region.reclaim_block(b);
                    }
                }
            }
        }
        self.base.stats.gc_runs.inc();
    }

    /// Fault injection: erases every durable *commit* record on every
    /// controller while keeping prepare records and data slices — the state
    /// after a crash between the Prepare and Commit phases.
    pub fn drop_commit_records_for_tests(&mut self) {
        for ci in 0..self.ctrls.len() {
            for b in 0..self.ctrls[ci].region.block_count() {
                let block = self.ctrls[ci].region.block(b);
                for local in 0..block.allocated() {
                    let slot = b as u32 * self.ctrls[ci].region.slices_per_block() + local;
                    let raw = read_slice_raw(&self.base.store, &self.ctrls[ci].region, slot);
                    if AddrSlice::decode_with_flag(&raw, SliceFlag::Addr).is_some() {
                        let empty = AddrSlice {
                            entries: Vec::new(),
                        }
                        .encode();
                        let addr = self.ctrls[ci].region.slot_addr(slot);
                        self.base.store.write_bytes(addr, &empty);
                    }
                }
            }
        }
    }
}

impl PersistenceEngine for MultiHoopEngine {
    fn name(&self) -> &'static str {
        "HOOP-MC"
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
        let n = self.ctrls.len();
        let c = &mut self.cores[core.index()];
        assert!(
            c.tx.is_none(),
            "controller already has an open tx on {core}"
        );
        c.tx = Some(tx);
        c.chains = (0..n).map(|_| Chain::new()).collect();
        c.touched_lines.clear();
        tx
    }

    fn on_store(&mut self, core: CoreId, tx: TxId, addr: PAddr, data: &[u8], now: Cycle) -> Cycle {
        assert!(
            addr.is_word_aligned() && data.len().is_multiple_of(WORD_BYTES as usize),
            "HOOP tracks updates at word granularity"
        );
        let ci = core.index();
        debug_assert_eq!(self.cores[ci].tx, Some(tx));
        let mut cost = 0;
        for (k, chunk) in data.chunks_exact(8).enumerate() {
            let home = addr.offset(k as u64 * WORD_BYTES);
            let value = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
            let ctrl = self.controller_of(home.line());
            cost += costs::OOP_BUFFER_APPEND;
            self.cores[ci].touched_lines.insert(home.line().0);
            if let Some(batch) = self.cores[ci].chains[ctrl].builder.push(home, value) {
                self.flush_chain_slice(ci, ctrl, batch, false, now + cost);
            }
        }
        self.base.stats.store_overhead_cycles.add(cost);
        cost
    }

    fn on_llc_miss(&mut self, _core: CoreId, line: Line, now: Cycle) -> MissFill {
        let ctrl = self.controller_of(line);
        let mut latency = costs::MAPPING_TABLE_LOOKUP;
        if let Some(entry) = self.ctrls[ctrl].mapping.remove(line) {
            self.base.stats.misses_served.inc();
            let slice_addr = self.ctrls[ctrl].region.slot_addr(entry.slot);
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
        let fill = self.base.serve_miss_from_home(line, now + latency);
        MissFill {
            latency: latency + fill.latency,
        }
    }

    fn on_evict_dirty(&mut self, line: Line, persistent: bool, line_data: &[u8], now: Cycle) {
        if persistent {
            return;
        }
        self.base
            .write_home_line(line, line_data, now, TrafficClass::Data);
    }

    fn tx_end(&mut self, core: CoreId, tx: TxId, now: Cycle) -> CommitOutcome {
        let ci = core.index();
        assert_eq!(self.cores[ci].tx, Some(tx));
        let n = self.ctrls.len();

        // Phase 1 — Prepare: every participant flushes its tail slice and
        // persists a prepare record; the cache controller waits for all
        // acknowledgments.
        let mut participants = Vec::new();
        let mut prepare_done = now;
        for ctrl in 0..n {
            let remainder = self.cores[ci].chains[ctrl].builder.take();
            if !remainder.is_empty() {
                self.flush_chain_slice(ci, ctrl, remainder, false, now + TWO_PHASE_MSG);
            }
            let last = self.cores[ci].chains[ctrl].prev_slot;
            if last != NO_LINK {
                let issue = self.cores[ci].chains[ctrl]
                    .outstanding
                    .max(now + TWO_PHASE_MSG);
                let done = self.append_record(
                    ctrl,
                    SliceFlag::Prepare,
                    CommitRecord {
                        last_slot: last,
                        tx: tx.as_u32(),
                    },
                    issue,
                );
                prepare_done = prepare_done.max(done + TWO_PHASE_MSG);
                participants.push(ctrl);
            }
        }

        // Phase 2 — Commit: the coordinator persists the commit record.
        let mut done = prepare_done;
        if let Some(&coordinator) = participants.first() {
            if self.base.probe.is_attached() {
                // Every participant's slices were durable when its prepare
                // record was acknowledged.
                // lint:order-frozen: all notifications carry the same
                // timestamp; delivery order is immaterial.
                for l in self.cores[ci].touched_lines.iter() {
                    self.base
                        .probe
                        .emit(Event::DataPersisted(tx, Line(*l)), prepare_done);
                }
            }
            done = self.append_record(
                coordinator,
                SliceFlag::Addr,
                CommitRecord {
                    last_slot: self.cores[ci].chains[coordinator].prev_slot,
                    tx: tx.as_u32(),
                },
                prepare_done + TWO_PHASE_MSG,
            ) + TWO_PHASE_MSG;
            for ctrl in &participants {
                let slots = std::mem::take(&mut self.cores[ci].chains[*ctrl].slots);
                for slot in slots {
                    let b = self.ctrls[*ctrl].region.slot_block(slot);
                    self.ctrls[*ctrl].region.block_mut(b).add_uncommitted(-1);
                }
            }
        }
        self.base
            .stats
            .gc_bytes_in
            .add(self.cores[ci].touched_lines.len() as u64 * CACHE_LINE_BYTES);
        self.cores[ci].tx = None;
        let latency = done.saturating_sub(now);
        self.base.stats.commit_stall_cycles.add(latency);
        self.base.stats.committed_txs.inc();
        CommitOutcome {
            latency,
            clean_lines: Vec::new(),
        }
    }

    fn tick(&mut self, now: Cycle) -> Cycle {
        self.base.media_tick(now);
        0
    }

    fn drain(&mut self, _now: Cycle) {
        self.migrate_committed_home();
    }

    fn crash(&mut self) {
        self.base.probe.emit(Event::MappingCleared, 0);
        for c in &mut self.cores {
            c.tx = None;
            for chain in &mut c.chains {
                *chain = Chain::new();
            }
        }
        for ctrl in &mut self.ctrls {
            ctrl.mapping.clear();
            ctrl.prepare_entries.clear();
            ctrl.prepare_slot = None;
            ctrl.commit_entries.clear();
            ctrl.commit_slot = None;
            for b in 0..ctrl.region.block_count() {
                let block = ctrl.region.block_mut(b);
                let u = block.uncommitted();
                if u > 0 {
                    block.add_uncommitted(-(i64::from(u)));
                }
            }
        }
    }

    fn recover(&mut self, threads: usize) -> RecoveryReport {
        let (committed, prepared, _, scanned) = self.scan_all();
        let txs_replayed = committed.len() as u64;
        if self.base.probe.is_attached() {
            let mut txs: Vec<u32> = committed.iter().copied().collect();
            txs.sort_unstable();
            for tx in txs {
                self.base.probe.emit(Event::RecoveryReplay(tx), 0);
            }
        }
        self.migrate_committed_home();
        let scan_bytes = scanned * SLICE_BYTES;
        let prepared_total: usize = prepared.iter().map(Vec::len).sum();
        let _ = prepared_total;
        self.base.probe.emit(Event::MappingCleared, 0);
        for ctrl in &mut self.ctrls {
            ctrl.mapping.clear();
        }
        // Gated like the single-controller path: dropping the final
        // reclamation leaves the records for the next recovery pass.
        if self.base.probe.emit(Event::RegionCleared, 0) {
            for ctrl in &mut self.ctrls {
                ctrl.region.reclaim_all();
            }
        }
        RecoveryReport {
            modeled_ms: model_recovery_ms(
                scan_bytes,
                scan_bytes / 4,
                threads,
                self.base.device.timing().bandwidth_gbps,
            ),
            bytes_scanned: scan_bytes,
            bytes_written: self.base.stats.gc_bytes_out.get(),
            txs_replayed,
            threads: threads.max(1),
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

    fn extra_metrics(&self) -> Vec<(&'static str, f64)> {
        vec![("controllers", self.ctrls.len() as f64)]
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

    fn engine(controllers: usize) -> MultiHoopEngine {
        MultiHoopEngine::new(&SimConfig::small_for_tests(), controllers)
    }

    /// Lines 0 and 1 live on different controllers when n >= 2.
    #[test]
    fn lines_interleave_across_controllers() {
        let e = engine(4);
        let owners: Vec<usize> = (0..8).map(|l| e.controller_of(Line(l))).collect();
        assert_eq!(owners, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn cross_controller_tx_commits_atomically() {
        let mut e = engine(2);
        e.init_home(PAddr(0), &1u64.to_le_bytes());
        e.init_home(PAddr(64), &1u64.to_le_bytes());
        let tx = e.tx_begin(CoreId(0), 0);
        e.on_store(CoreId(0), tx, PAddr(0), &10u64.to_le_bytes(), 0); // ctrl 0
        e.on_store(CoreId(0), tx, PAddr(64), &20u64.to_le_bytes(), 0); // ctrl 1
        let out = e.tx_end(CoreId(0), tx, 100);
        assert!(out.latency > 2 * TWO_PHASE_MSG, "2PC must cost messages");
        e.crash();
        let rep = e.recover(2);
        assert_eq!(rep.txs_replayed, 1);
        assert_eq!(e.durable().read_u64(PAddr(0)), 10);
        assert_eq!(e.durable().read_u64(PAddr(64)), 20);
    }

    #[test]
    fn crash_between_prepare_and_commit_aborts_everywhere() {
        let mut e = engine(2);
        e.init_home(PAddr(0), &1u64.to_le_bytes());
        e.init_home(PAddr(64), &2u64.to_le_bytes());
        let tx = e.tx_begin(CoreId(0), 0);
        e.on_store(CoreId(0), tx, PAddr(0), &10u64.to_le_bytes(), 0);
        e.on_store(CoreId(0), tx, PAddr(64), &20u64.to_le_bytes(), 0);
        e.tx_end(CoreId(0), tx, 100);
        // Simulate the crash window: prepare records persisted, commit
        // record lost.
        e.drop_commit_records_for_tests();
        e.crash();
        let rep = e.recover(1);
        assert_eq!(rep.txs_replayed, 0);
        assert_eq!(
            e.durable().read_u64(PAddr(0)),
            1,
            "ctrl 0 rolled forward nothing"
        );
        assert_eq!(e.durable().read_u64(PAddr(64)), 2, "ctrl 1 agrees");
    }

    #[test]
    fn uncommitted_tx_vanishes() {
        let mut e = engine(3);
        let tx = e.tx_begin(CoreId(0), 0);
        for i in 0..24u64 {
            e.on_store(CoreId(0), tx, PAddr(i * 64), &9u64.to_le_bytes(), 0);
        }
        e.crash();
        e.recover(1);
        for i in 0..24u64 {
            assert_eq!(e.durable().read_u64(PAddr(i * 64)), 0);
        }
    }

    #[test]
    fn newest_version_wins_across_controllers() {
        let mut e = engine(2);
        for round in 0..6u64 {
            let tx = e.tx_begin(CoreId(0), round * 1000);
            e.on_store(CoreId(0), tx, PAddr(0), &round.to_le_bytes(), round * 1000);
            e.on_store(
                CoreId(0),
                tx,
                PAddr(64),
                &(round * 10).to_le_bytes(),
                round * 1000,
            );
            e.tx_end(CoreId(0), tx, round * 1000 + 50);
        }
        e.crash();
        e.recover(4);
        assert_eq!(e.durable().read_u64(PAddr(0)), 5);
        assert_eq!(e.durable().read_u64(PAddr(64)), 50);
    }

    #[test]
    fn redirected_reads_work_per_controller() {
        let mut e = engine(2);
        let tx = e.tx_begin(CoreId(0), 0);
        e.on_store(CoreId(0), tx, PAddr(0), &[7u8; 64], 0);
        e.tx_end(CoreId(0), tx, 10);
        let before = e.device().traffic().read(TrafficClass::Log);
        e.on_llc_miss(CoreId(0), Line(0), 1000);
        assert_eq!(
            e.device().traffic().read(TrafficClass::Log),
            before + SLICE_BYTES
        );
    }

    #[test]
    fn migrate_reclaims_all_controllers() {
        let mut e = engine(2);
        for i in 0..60u64 {
            let tx = e.tx_begin(CoreId(0), i * 100);
            e.on_store(CoreId(0), tx, PAddr(i % 16 * 64), &i.to_le_bytes(), i * 100);
            e.tx_end(CoreId(0), tx, i * 100 + 20);
        }
        e.migrate_committed_home();
        for ci in 0..2 {
            assert_eq!(e.ctrls[ci].region.fill_fraction(), 0.0, "controller {ci}");
        }
        for i in 0..16u64 {
            let want = (0..60).rfind(|j| j % 16 == i).expect("written");
            assert_eq!(e.durable().read_u64(PAddr(i * 64)), want);
        }
    }
}
