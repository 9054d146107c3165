//! LSM: software log-structured NVM in the LSNVMM style (Hu et al., USENIX
//! ATC'17; §IV-A of the HOOP paper).
//!
//! All transactional writes are appended to a durable log at word
//! granularity; a DRAM-resident skip-list index maps home lines to their
//! newest log location. Writes are cheap appends, but *every read* pays a
//! software address translation that walks the index (§II-B), and a
//! background GC migrates log data to home locations to bound log growth.
//!
//! The model keeps the index as a key set of home lines: what a read is
//! charged depends only on which lines the index holds (the walk length),
//! and a miss only asks whether its line is in the log. Where in the log a
//! line's newest record sits is never read by any simulated path.

use simcore::det::{DetHashMap, LineImages};

use nvm::{NvmDevice, Op, PersistentStore, TrafficClass};
use simcore::addr::{Line, CACHE_LINE_BYTES, WORD_BYTES};
use simcore::config::SimConfig;
use simcore::persist::Event;
use simcore::time::ms_to_cycles;
use simcore::{CoreId, Cycle, PAddr, TxId};

use crate::common::ControllerBase;
use crate::costs;
use crate::layout;
use crate::skiplist::SkipList;
use crate::traits::{
    CommitOutcome, EngineProperties, EngineStats, Level, MissFill, PersistenceEngine,
    RecoveryReport,
};

/// Per-line log-entry header bytes. LSNVMM appends objects with allocator
/// metadata (home address, length, TxID, allocation header) — noticeably
/// heavier than HOOP's packed 5-byte-per-word reverse mappings.
const ENTRY_HEADER_BYTES: u64 = 24;

/// Per-transaction commit marker appended to the log.
const TX_MARKER_BYTES: u64 = 16;

/// GC cadence — matched to HOOP's default for a fair comparison (§IV-A:
/// "we conduct GC operations in LSNVMM at the same frequency as HOOP").
const GC_PERIOD_MS: f64 = 10.0;

#[derive(Clone, Debug)]
struct LogRecord {
    line: Line,
    /// (word index in line, value) pairs, newest-last, allocated to their
    /// exact count.
    words: Box<[(u8, u64)]>,
}

/// The LSNVMM-style software log-structured engine.
#[derive(Debug)]
pub struct LsmEngine {
    base: ControllerBase,
    log_region: PAddr,
    log_head: u64,
    /// Durable: committed log records awaiting GC.
    log: Vec<LogRecord>,
    /// Records below this index belong to transactions whose log-tail
    /// commit marker is durable; anything beyond is a torn append a crash
    /// may leave behind, and recovery discards it.
    committed_len: usize,
    /// Committed transactions currently represented in `log`.
    committed_txs_in_log: u64,
    /// Volatile DRAM index: the home lines with a record in the log.
    index: SkipList,
    /// Volatile: newest committed value per word address.
    newest: DetHashMap<u64, u64>,
    /// Volatile: open transactions' word updates.
    active: DetHashMap<TxId, DetHashMap<u64, u64>>,
    /// `tx_end` scratch, reused across commits: one `(count, words)`
    /// group per line of the committing transaction.
    groups: Vec<(usize, [(u8, u64); 8])>,
    /// `tx_end` scratch, reused across commits: the lines logged, sorted
    /// for the index.
    batch: Vec<u64>,
    /// Line-touch bytes committed since the last GC (for the reduction
    /// ratio).
    bytes_since_gc: u64,
    next_gc: Cycle,
    gc_period: Cycle,
}

impl LsmEngine {
    /// Creates the engine for the machine described by `cfg`.
    pub fn new(cfg: &SimConfig) -> Self {
        let mut regions = layout::engine_region_allocator();
        let log_region = regions.reserve(1 << 34, 4096);
        let gc_period = ms_to_cycles(GC_PERIOD_MS);
        LsmEngine {
            base: ControllerBase::new(cfg),
            log_region,
            log_head: 0,
            log: Vec::new(),
            committed_len: 0,
            committed_txs_in_log: 0,
            index: SkipList::new(),
            newest: DetHashMap::default(),
            active: DetHashMap::default(),
            groups: Vec::new(),
            batch: Vec::new(),
            bytes_since_gc: 0,
            next_gc: gc_period,
            gc_period,
        }
    }

    fn gc(&mut self, now: Cycle) {
        if self.newest.is_empty() {
            if !self.log.is_empty() && self.base.probe.emit(Event::Reclaim, now) {
                self.log.clear();
                self.committed_len = 0;
                self.committed_txs_in_log = 0;
            }
            return;
        }
        // Scan the log once, then write each touched line home exactly once
        // (line-granularity coalescing of word entries).
        let log_bytes: u64 = self
            .log
            .iter()
            .map(|r| ENTRY_HEADER_BYTES + r.words.len() as u64 * WORD_BYTES)
            .sum();
        let mut t = self.base.burst_spread(
            self.log_region,
            log_bytes,
            now,
            self.gc_period / 4,
            Op::Read,
            TrafficClass::Gc,
        );
        let mut lines: LineImages = LineImages::default();
        // lint:order-frozen: DetHashMap's iteration order is fixed-seed
        // deterministic (DESIGN §8), and last-writer-wins per word means the
        // merged images are order-independent anyway.
        for (word, value) in self.newest.drain() {
            let line = Line(word / CACHE_LINE_BYTES);
            let img = lines.get_or_insert_with(line.0, || self.base.store.read_line(line.base()));
            let off = (word % CACHE_LINE_BYTES) as usize;
            img[off..off + 8].copy_from_slice(&value.to_le_bytes());
        }
        let out_bytes = lines.len() as u64 * CACHE_LINE_BYTES;
        t = self.base.burst_spread(
            // lint:order-frozen: representative burst start address only;
            // deterministic under the frozen DetHashMap order.
            Line(lines.first_line().expect("nonempty")).base(),
            out_bytes,
            t,
            self.gc_period / 4,
            Op::Write,
            TrafficClass::Gc,
        );
        let _ = t;
        // lint:order-frozen: the home-write order sets the crash-point
        // order of the migration's `Gc` events.
        for (l, img) in lines {
            self.base.probe.emit(Event::Gc, now);
            self.base.store.write_line(Line(l).base(), img);
        }
        // Log truncation is one durable pointer update, ordered strictly
        // after the migration writes — a crash in between leaves the log
        // intact and recovery simply replays it (idempotent re-writes).
        if self.base.probe.emit(Event::Reclaim, now) {
            self.log.clear();
            self.committed_len = 0;
            self.committed_txs_in_log = 0;
        }
        self.index.clear();
        self.base.stats.gc_runs.inc();
        self.base.stats.gc_bytes_in.add(self.bytes_since_gc);
        self.base.stats.gc_bytes_out.add(out_bytes);
        self.bytes_since_gc = 0;
    }
}

impl PersistenceEngine for LsmEngine {
    fn name(&self) -> &'static str {
        "LSM"
    }

    fn properties(&self) -> EngineProperties {
        EngineProperties {
            read_latency: Level::High,
            on_critical_path: false,
            requires_flush_fence: false,
            write_traffic: Level::Medium,
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
        // Split the store into word updates (read-merge at the edges).
        let entry = self.active.get_mut(&tx).expect("store outside tx");
        let mut pos = addr.0;
        let mut off = 0usize;
        while off < data.len() {
            let word = pos & !(WORD_BYTES - 1);
            let in_word = (pos - word) as usize;
            let take = (data.len() - off).min(8 - in_word);
            let value = if take == 8 {
                // Fully covered word: no read-merge needed.
                u64::from_le_bytes(data[off..off + 8].try_into().expect("8-byte slice"))
            } else {
                let mut bytes = match entry.get(&word) {
                    Some(v) => *v,
                    None => match self.newest.get(&word) {
                        Some(v) => *v,
                        None => self.base.store.read_u64(PAddr(word)),
                    },
                }
                .to_le_bytes();
                bytes[in_word..in_word + take].copy_from_slice(&data[off..off + take]);
                u64::from_le_bytes(bytes)
            };
            entry.insert(word, value);
            pos += take as u64;
            off += take;
        }
        self.base
            .stats
            .store_overhead_cycles
            .add(costs::LSM_APPEND_BOOKKEEPING);
        costs::LSM_APPEND_BOOKKEEPING
    }

    fn on_load(&mut self, _core: CoreId, addr: PAddr, _len: u64, _now: Cycle) -> Cycle {
        // Software address translation on every read (§II-B): walk the real
        // skip list and charge per node visited, up to the expected height
        // of a DRAM-cached index (upper levels stay hot in the CPU caches).
        // The list's visit memo answers repeat translations of a line whose
        // walk no insert or GC has changed since.
        self.index.visits(addr.line().0, costs::LSM_INDEX_VISIT_CAP) * costs::LSM_INDEX_VISIT
    }

    fn on_llc_miss(&mut self, _core: CoreId, line: Line, now: Cycle) -> MissFill {
        // Membership only — the translation walk is charged in `on_load`,
        // not here, so the O(1) index suffices.
        if self.index.contains(line.0) {
            self.base.stats.misses_served.inc();
            // Newest data lives in the log.
            let out = self.base.device.access(
                now,
                self.log_region,
                CACHE_LINE_BYTES,
                Op::Read,
                TrafficClass::Log,
            );
            self.base.stats.miss_memory_loads.inc();
            // Words the log does not cover come from home.
            let covered = (0..8u64)
                .filter(|w| self.newest.contains_key(&(line.base().0 + w * 8)))
                .count();
            let mut latency = out.latency(now);
            if covered < 8 {
                let home = self.base.device.access(
                    out.complete,
                    line.base(),
                    CACHE_LINE_BYTES,
                    Op::Read,
                    TrafficClass::Data,
                );
                self.base.stats.miss_memory_loads.inc();
                latency = home.complete.saturating_sub(now);
            }
            self.base.stats.miss_service_cycles.add(latency);
            MissFill { latency }
        } else {
            self.base.serve_miss_from_home(line, now)
        }
    }

    fn on_evict_dirty(&mut self, line: Line, persistent: bool, line_data: &[u8], now: Cycle) {
        if persistent {
            // Transactional data persists through the log; evictions of such
            // lines carry no durability obligation.
            return;
        }
        self.base
            .write_home_line(line, line_data, now, TrafficClass::Data);
    }

    fn tx_end(&mut self, _core: CoreId, tx: TxId, now: Cycle) -> CommitOutcome {
        let words = self.active.remove(&tx).expect("commit of unknown tx");
        // Group words by line into log records: `per_line` maps each line
        // to its slot in the reused `groups` scratch, so each record is
        // allocated once, at its final length.
        let mut per_line: DetHashMap<u64, usize> = DetHashMap::default();
        let groups = &mut self.groups;
        groups.clear();
        // lint:order-frozen: sets `per_line`'s insertion order, hence its
        // layout, and the word order inside each log record.
        for (w, v) in &words {
            let slot = *per_line.entry(*w / CACHE_LINE_BYTES).or_insert_with(|| {
                groups.push((0, [(0, 0); 8]));
                groups.len() - 1
            });
            let (n, ws) = &mut groups[slot];
            ws[*n] = (((*w % CACHE_LINE_BYTES) / 8) as u8, *v);
            *n += 1;
        }
        let bytes = per_line.len() as u64 * ENTRY_HEADER_BYTES
            + words.len() as u64 * WORD_BYTES
            + TX_MARKER_BYTES;
        let slot = self.log_region.offset(self.log_head);
        self.log_head = (self.log_head + bytes) % (1 << 34);
        let done = self.base.write_burst(slot, bytes, now, TrafficClass::Log);
        let mut clean_lines = Vec::with_capacity(per_line.len());
        self.batch.clear();
        // lint:order-frozen: sets the log's record order and the order of
        // the payload (crash-point) events (DESIGN.md §8).
        for (l, slot) in per_line {
            clean_lines.push(Line(l));
            // The log append carries every word update durably; the burst
            // completing is when each line's payload is persistent.
            if self.base.probe.emit(Event::PayloadWrite(tx, Line(l)), done) {
                self.batch.push(l);
                let (n, ws) = &self.groups[slot];
                self.log.push(LogRecord {
                    line: Line(l),
                    words: ws[..*n].into(),
                });
            }
        }
        // One sorted sweep instead of per-line index walks; lines already
        // in the index cost one membership test.
        self.batch.sort_unstable();
        self.index.insert_sorted_batch(&self.batch);
        // The same burst ends with the transaction marker — the durable
        // commit point (strictly after every payload record of the burst).
        if self.base.probe.emit(Event::CommitRecord(tx), done) {
            self.committed_len = self.log.len();
            self.committed_txs_in_log += 1;
        }
        // lint:order-frozen: sets `newest`'s insertion order, hence the
        // layout its GC drain walks.
        for (w, v) in words {
            self.newest.insert(w, v);
        }
        // Table IV accounting at line-touch granularity (matching HOOP's
        // definition so reduction ratios are comparable).
        self.bytes_since_gc += clean_lines.len() as u64 * CACHE_LINE_BYTES;
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
        if now >= self.next_gc {
            self.gc(now);
            self.next_gc = now + self.gc_period;
        }
        0
    }

    fn drain(&mut self, now: Cycle) {
        self.gc(now);
    }

    fn crash(&mut self) {
        self.active.clear();
        self.newest.clear();
        self.index.clear();
    }

    fn recover(&mut self, threads: usize) -> RecoveryReport {
        let committed = self.committed_len.min(self.log.len());
        let bytes_scanned: u64 = self
            .log
            .iter()
            .map(|r| ENTRY_HEADER_BYTES + r.words.len() as u64 * WORD_BYTES)
            .sum();
        let mut bytes_written = 0u64;
        // Replay the committed prefix (any torn suffix beyond the commit
        // watermark is discarded). The log is replayed without draining so
        // a crash injected mid-recovery leaves it for the next pass.
        let mut log_off = 0u64;
        for rec in &self.log[..committed] {
            self.base.probe.emit(Event::Recovery, 0);
            let rec_bytes = ENTRY_HEADER_BYTES + rec.words.len() as u64 * WORD_BYTES;
            let rec_addr = self.log_region.offset(log_off);
            log_off += rec_bytes;
            // A log entry lost to the media cannot be replayed; its words
            // keep their pre-crash home bytes — a classified loss.
            if self.base.media_read_span(rec_addr, rec_bytes).is_err() {
                self.base.media.note_loss(rec.line);
                continue;
            }
            for (w, v) in &rec.words {
                self.base
                    .store
                    .write_u64(rec.line.base().offset(u64::from(*w) * 8), *v);
                bytes_written += WORD_BYTES;
            }
        }
        let txs_replayed = self.committed_txs_in_log;
        if self.base.probe.emit(Event::Reclaim, 0) {
            self.log.clear();
            self.committed_len = 0;
            self.committed_txs_in_log = 0;
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

    fn extra_metrics(&self) -> Vec<(&'static str, f64)> {
        vec![("index_entries", self.index.len() as f64)]
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

    fn engine() -> LsmEngine {
        LsmEngine::new(&SimConfig::small_for_tests())
    }

    #[test]
    fn committed_words_survive_crash() {
        let mut e = engine();
        e.init_home(PAddr(0), &[9u8; 64]);
        let tx = e.tx_begin(CoreId(0), 0);
        e.on_store(CoreId(0), tx, PAddr(8), &77u64.to_le_bytes(), 0);
        e.tx_end(CoreId(0), tx, 10);
        e.crash();
        e.recover(1);
        assert_eq!(e.durable().read_u64(PAddr(8)), 77);
        // Untouched words keep their initial content.
        assert_eq!(e.durable().read_u8(PAddr(16)), 9);
    }

    #[test]
    fn a_commit_logs_one_record_per_line_in_word_map_order() {
        let mut e = engine();
        let tx = e.tx_begin(CoreId(0), 0);
        // Three lines: 3, 1 and 2 words, stored out of address order.
        for (addr, v) in [
            (136u64, 1u64),
            (8, 2),
            (64 * 9 + 56, 3),
            (0, 4),
            (128, 5),
            (56, 6),
        ] {
            e.on_store(CoreId(0), tx, PAddr(addr), &v.to_le_bytes(), 0);
        }
        // The grouping the records must follow: lines in the order a map
        // keyed by line reaches them, and each line's words in the
        // transaction's word-map order.
        let mut want: DetHashMap<u64, Vec<(u8, u64)>> = DetHashMap::default();
        for (w, v) in &e.active[&tx] {
            let word = ((w % CACHE_LINE_BYTES) / 8) as u8;
            want.entry(w / CACHE_LINE_BYTES)
                .or_default()
                .push((word, *v));
        }
        e.tx_end(CoreId(0), tx, 10);
        let got: Vec<(u64, Vec<(u8, u64)>)> =
            e.log.iter().map(|r| (r.line.0, r.words.to_vec())).collect();
        assert_eq!(got.len(), 3);
        assert_eq!(got, want.into_iter().collect::<Vec<_>>());
        assert_eq!(e.committed_len, 3);
    }

    #[test]
    fn uncommitted_words_vanish() {
        let mut e = engine();
        let tx = e.tx_begin(CoreId(0), 0);
        e.on_store(CoreId(0), tx, PAddr(8), &77u64.to_le_bytes(), 0);
        e.crash();
        e.recover(1);
        assert_eq!(e.durable().read_u64(PAddr(8)), 0);
    }

    #[test]
    fn load_translation_cost_grows_with_index() {
        let mut e = engine();
        let empty_cost = e.on_load(CoreId(0), PAddr(0), 8, 0);
        for i in 0..2000u64 {
            let tx = e.tx_begin(CoreId(0), 0);
            e.on_store(CoreId(0), tx, PAddr(i * 64), &1u64.to_le_bytes(), 0);
            e.tx_end(CoreId(0), tx, 0);
        }
        let full_cost = e.on_load(CoreId(0), PAddr(999 * 64), 8, 0);
        assert!(
            full_cost > empty_cost + 3 * costs::LSM_INDEX_VISIT,
            "{empty_cost} -> {full_cost}"
        );
    }

    #[test]
    fn crash_invalidates_memoized_translations() {
        let mut e = engine();
        for i in 0..64u64 {
            let tx = e.tx_begin(CoreId(0), 0);
            e.on_store(CoreId(0), tx, PAddr(i * 64), &1u64.to_le_bytes(), 0);
            e.tx_end(CoreId(0), tx, 0);
        }
        let cap = costs::LSM_INDEX_VISIT_CAP;
        let warm = e.on_load(CoreId(0), PAddr(40 * 64), 8, 0);
        assert!(e.index.memoized(40, cap));
        assert_eq!(e.on_load(CoreId(0), PAddr(40 * 64), 8, 0), warm);
        e.crash();
        assert!(!e.index.memoized(40, cap));
        // The rebuilt (empty) index charges a single visit.
        assert_eq!(
            e.on_load(CoreId(0), PAddr(40 * 64), 8, 0),
            costs::LSM_INDEX_VISIT
        );
    }

    #[test]
    fn gc_coalesces_and_clears_index() {
        let mut e = engine();
        for _ in 0..10 {
            let tx = e.tx_begin(CoreId(0), 0);
            e.on_store(CoreId(0), tx, PAddr(0), &1u64.to_le_bytes(), 0);
            e.tx_end(CoreId(0), tx, 0);
        }
        e.drain(100_000);
        // Ten 8-byte updates to the same word coalesce into one 64-byte
        // line write.
        assert_eq!(e.stats().gc_bytes_out.get(), 64);
        assert!(e.stats().gc_reduction_ratio() > 0.7);
        assert_eq!(e.index.len(), 0);
        assert_eq!(e.durable().read_u64(PAddr(0)), 1);
    }

    #[test]
    fn log_append_is_word_granularity() {
        let mut e = engine();
        let tx = e.tx_begin(CoreId(0), 0);
        e.on_store(CoreId(0), tx, PAddr(0), &1u64.to_le_bytes(), 0);
        e.tx_end(CoreId(0), tx, 0);
        assert_eq!(
            e.device().traffic().written(TrafficClass::Log),
            ENTRY_HEADER_BYTES + 8 + TX_MARKER_BYTES
        );
    }

    #[test]
    fn torn_last_transaction_recovers_the_committed_prefix() {
        use simcore::persist::{Kind, Valve};
        // (line, words stored) per transaction; the last one is torn.
        let txs: [&[(u64, u64)]; 3] = [&[(0, 2), (1, 1)], &[(2, 2)], &[(3, 2), (4, 2)]];
        let value = |line: u64, w: u64| 0x100 * line + w + 1;
        let run = |e: &mut LsmEngine| {
            for &touched in &txs {
                let tx = e.tx_begin(CoreId(0), 0);
                for &(line, words) in touched {
                    for w in 0..words {
                        let bytes = value(line, w).to_le_bytes();
                        e.on_store(CoreId(0), tx, PAddr(line * 64 + w * 8), &bytes, 0);
                    }
                }
                e.tx_end(CoreId(0), tx, 0);
            }
        };
        // Each transaction ticks one payload event per line, then its
        // commit: close the valve after the last transaction's first
        // payload record.
        let cutoff = 3 + 2 + 1;
        let mut e = engine();
        for line in 0..5 {
            e.init_home(Line(line).base(), &[0xEE; 64]);
        }
        let (valve, probe) = Valve::shared(cutoff);
        e.attach_probe(probe);
        run(&mut e);
        assert_eq!(valve.lock().unwrap().trip_kind(), Some(Kind::Payload));
        assert_eq!((e.log.len(), e.committed_len), (4, 3));
        e.crash();
        valve.lock().unwrap().open_fully();
        let report = e.recover(1);

        // Every record in the log is scanned, the torn one included.
        let scanned = [2, 1, 2, 2]
            .map(|w| ENTRY_HEADER_BYTES + 8 * w)
            .iter()
            .sum();
        assert_eq!(report.bytes_scanned, scanned);
        assert_eq!(report.bytes_written, 5 * WORD_BYTES);
        assert_eq!(report.txs_replayed, 2);
        let counts = valve.lock().unwrap().kind_counts();
        assert_eq!(
            counts[Kind::Recovery as usize],
            3,
            "one per committed record"
        );
        for (i, &touched) in txs.iter().enumerate() {
            for &(line, words) in touched {
                for w in 0..8 {
                    let got = e.durable().read_u64(PAddr(line * 64 + w * 8));
                    let want = if i < 2 && w < words {
                        value(line, w)
                    } else {
                        0xEEEE_EEEE_EEEE_EEEE
                    };
                    assert_eq!(got, want, "line {line} word {w}");
                }
            }
        }
        assert!(e.log.is_empty());
    }

    #[test]
    fn misaligned_store_merges_correctly() {
        let mut e = engine();
        e.init_home(PAddr(0), &0x1111_1111_1111_1111u64.to_le_bytes());
        let tx = e.tx_begin(CoreId(0), 0);
        e.on_store(CoreId(0), tx, PAddr(3), &[0xAA, 0xBB], 0);
        e.tx_end(CoreId(0), tx, 0);
        e.crash();
        e.recover(1);
        let v = e.durable().read_u64(PAddr(0)).to_le_bytes();
        assert_eq!(v[3], 0xAA);
        assert_eq!(v[4], 0xBB);
        assert_eq!(v[0], 0x11);
    }
}
