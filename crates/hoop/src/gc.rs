//! Garbage collection with data coalescing (§III-E, Algorithm 1).
//!
//! GC reads the address slices to find committed transactions, walks each
//! transaction's slice chain in reverse time order (newest first), and
//! coalesces every home word into a hash map where the *first* writer wins —
//! i.e. only the newest committed value of each word survives. The
//! coalesced words are then written to their home locations in line-sized
//! bursts, migrated lines enter the eviction buffer, their mapping-table
//! entries are removed (Algorithm 1, lines 20–27), consumed commit records
//! are tombstoned, and fully-committed blocks are reclaimed with their
//! headers set back to `BLK_UNUSED` (lines 28–29).

use simcore::det::{DetHashMap, DetHashSet};

use nvm::media::MediaModel;
use nvm::{EnduranceMap, PersistentStore, TrafficClass};
use simcore::addr::{Line, CACHE_LINE_BYTES};
use simcore::persist::Event;
use simcore::Cycle;

use crate::engine::HoopEngine;
use crate::region::OopRegion;
use crate::slice::{
    AddrSlice, CommitRecord, DataSlice, SliceFlag, COMMIT_TAIL_BIT, NO_LINK, SLICE_BYTES,
};

/// Reads the raw 128 bytes of a slice slot from NVM.
pub(crate) fn read_slice_raw(
    store: &PersistentStore,
    region: &OopRegion,
    slot: u32,
) -> [u8; SLICE_BYTES as usize] {
    let mut buf = [0u8; SLICE_BYTES as usize];
    store.read_bytes(region.slot_addr(slot), &mut buf);
    buf
}

/// Walks a committed transaction's slice chain backward from its last slot,
/// yielding decoded data slices (newest slice first). Stops at the start
/// slice, a broken link, or after visiting more slices than the region
/// holds (corruption guard).
///
/// Every data-slice read is classified against the media-fault model
/// (commit *metadata* — address slices, block headers — is modeled as
/// ECC-hardened and never fails). An uncorrectable data slice cannot be
/// consumed: its payload is dropped from the returned chain and the loss is
/// declared per affected home line via [`MediaModel::note_loss`] — the
/// commit metadata still identifies which home words the chain covered, so
/// the engine reports a classified loss instead of replaying garbage. The
/// walk itself continues: the region scan can locate the chain's remaining
/// slices by transaction id without the lost link field.
pub(crate) fn walk_chain(
    store: &PersistentStore,
    region: &OopRegion,
    last_slot: u32,
    expect_tx: u32,
    media: &MediaModel,
    endurance: Option<&EnduranceMap>,
) -> Vec<DataSlice> {
    let mut out = Vec::new();
    let mut slot = last_slot;
    let cap = region.block_count() as u32 * region.slices_per_block();
    for _ in 0..cap {
        let raw = read_slice_raw(store, region, slot);
        let Some(slice) = DataSlice::decode(&raw) else {
            break;
        };
        if slice.tx != expect_tx {
            break;
        }
        let start = slice.start;
        let link = slice.link;
        if media
            .classify_span(region.slot_addr(slot), SLICE_BYTES, endurance)
            .is_err()
        {
            let mut lost: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
            for w in &slice.words {
                if lost.insert(w.home.line().0) {
                    media.note_loss(w.home.line());
                }
            }
        } else {
            out.push(slice);
        }
        if start || link == NO_LINK {
            break;
        }
        slot = link;
    }
    out
}

/// The committed transactions currently on media.
#[derive(Clone, Debug, Default)]
pub(crate) struct CommitScan {
    /// Deduplicated commit records (from address slices and from tail
    /// slices whose asynchronous index append had not landed yet).
    pub records: Vec<CommitRecord>,
    /// Slots of the address slices scanned (tombstoned by GC).
    pub addr_slots: Vec<u32>,
    /// Slices scanned in total (for read-traffic accounting).
    pub scanned_slices: u64,
}

/// Scans the region for committed transactions: address-slice records plus
/// commit-tail data slices (the durable commit points). Blocks and slots are
/// visited in (block, slot) order and each `(tx, last_slot)` record is kept
/// at its first sighting, so a transaction whose commit tail and address
/// record are both on media appears exactly once.
pub(crate) fn scan_commit_records(store: &PersistentStore, region: &OopRegion) -> CommitScan {
    let mut scan = CommitScan::default();
    let mut seen: DetHashSet<(u32, u32)> = DetHashSet::default();
    for b in 0..region.block_count() {
        for local in 0..region.block(b).allocated() {
            let slot = b as u32 * region.slices_per_block() + local;
            let raw = read_slice_raw(store, region, slot);
            scan.scanned_slices += 1;
            let flag = crate::slice::flag_of(&raw);
            if flag == SliceFlag::Addr as u8 {
                if let Some(s) = AddrSlice::decode(&raw) {
                    scan.addr_slots.push(slot);
                    for rec in s.entries {
                        if seen.insert((rec.tx, rec.last_slot)) {
                            scan.records.push(rec);
                        }
                    }
                }
            } else if flag & 0x03 == SliceFlag::Data as u8 && flag & COMMIT_TAIL_BIT != 0 {
                if let Some(d) = DataSlice::decode(&raw) {
                    if seen.insert((d.tx, slot)) {
                        scan.records.push(CommitRecord {
                            last_slot: slot,
                            tx: d.tx,
                        });
                    }
                }
            }
        }
    }
    scan
}

impl HoopEngine {
    /// Runs one garbage-collection pass (Algorithm 1). Device traffic is
    /// accounted and the channel is occupied; the returned cycle is when the
    /// pass completes (callers decide whether that stalls the critical
    /// path — background GC does not).
    pub fn run_gc(&mut self, now: Cycle) -> Cycle {
        self.run_gc_spread(now, 0)
    }

    /// Like [`run_gc`](HoopEngine::run_gc), but staggers the device traffic
    /// across `window` cycles (background mode; §III-E "HOOP performs GC in
    /// background").
    pub fn run_gc_spread(&mut self, now: Cycle, window: Cycle) -> Cycle {
        let scan = scan_commit_records(&self.base.store, &self.region);
        let mut records = scan.records;
        if records.is_empty() {
            self.reclaim_clean_blocks(now);
            return now;
        }
        // Reverse time order: newest commit first, so first-writer-wins
        // coalescing keeps only the latest version (Algorithm 1, line 7).
        records.sort_by_key(|r| std::cmp::Reverse(r.tx));

        let mut coalesced: DetHashMap<u64, u64> = DetHashMap::default();
        let mut scanned_slices = 0u64;
        let mut touches = 0u64;
        for rec in &records {
            let chain = walk_chain(
                &self.base.store,
                &self.region,
                rec.last_slot,
                rec.tx,
                &self.base.media,
                self.base.device.endurance(),
            );
            scanned_slices += chain.len() as u64;
            let mut tx_lines: DetHashSet<u64> = DetHashSet::default();
            for slice in chain {
                for w in &slice.words {
                    if tx_lines.insert(w.home.line().0) {
                        // GC may only migrate versions of the committed
                        // prefix; announce each migrated (tx, line) pair.
                        let migrate = Event::GcMigrate(rec.tx, w.home.line());
                        self.base.probe.emit(migrate, now);
                    }
                    coalesced.entry(w.home.0).or_insert(w.value);
                }
            }
            touches += tx_lines.len() as u64;
        }

        // Device reads for the scan (every allocated slice is inspected;
        // chains are then walked from their tails).
        let scan_bytes = scan.scanned_slices * SLICE_BYTES;
        let _ = scanned_slices;
        let mut t = self.base.burst_spread(
            self.region.base(),
            scan_bytes,
            now,
            window / 2,
            nvm::Op::Read,
            TrafficClass::Gc,
        );

        // Build migrated line images from home + coalesced words.
        let mut lines: DetHashMap<u64, [u8; 64]> = DetHashMap::default();
        for (word, value) in &coalesced {
            let line = Line(word / CACHE_LINE_BYTES);
            let img = lines.entry(line.0).or_insert_with(|| {
                let mut buf = [0u8; 64];
                self.base.store.read_bytes(line.base(), &mut buf);
                buf
            });
            let off = (word % CACHE_LINE_BYTES) as usize;
            img[off..off + 8].copy_from_slice(&value.to_le_bytes());
        }

        // Write the newest versions home, once per line (data coalescing);
        // with coalescing ablated, every transaction's line touch is written
        // individually.
        let out_bytes = if self.coalescing {
            lines.len() as u64 * CACHE_LINE_BYTES
        } else {
            touches * CACHE_LINE_BYTES
        };
        // lint:order-frozen: representative burst start address only;
        // deterministic under the frozen DetHashMap order.
        if let Some(first) = lines.keys().next() {
            t = self.base.burst_spread(
                Line(*first).base(),
                out_bytes,
                t,
                window / 2,
                nvm::Op::Write,
                TrafficClass::Gc,
            );
        }
        for (l, img) in &lines {
            let line = Line(*l);
            // Algorithm 1, lines 22-23: the home write drops the mapping
            // entry.
            self.base.probe.emit(Event::GcHome(line), t);
            self.base.store.write_bytes(line.base(), img);
            // Migrated lines enter the eviction buffer so racing LLC misses
            // never read a stale home copy (§III-C).
            self.evict_buf.insert(line, *img);
            self.mapping.remove(line);
        }
        self.base.stats.gc_bytes_out.add(out_bytes);

        // Tombstone consumed commit records so a later pass (or recovery)
        // never walks reclaimed slots: blank the address slices and clear
        // the commit-tail bits of migrated chains.
        for slot in &scan.addr_slots {
            let empty = AddrSlice {
                entries: Vec::new(),
            }
            .encode();
            self.base.probe.emit(Event::Meta, now);
            self.base
                .store
                .write_bytes(self.region.slot_addr(*slot), &empty);
            t = self
                .base
                .write_burst(self.region.slot_addr(*slot), 16, t, TrafficClass::Metadata);
        }
        // Clear the commit-tail bits of migrated chains. The durable clears
        // run in *ascending* tx order: a crash part-way through then leaves
        // exactly the newest commit records on media, and replaying those
        // reproduces the already-migrated home image (clearing newest-first
        // would instead leave stale old-tx evidence that recovery would
        // replay over newer home values). The timed bursts below keep the
        // original record order so detached traffic is identical; the flag
        // checks are order-independent because records never share a tail
        // slot.
        let mut ascending: Vec<&CommitRecord> = records.iter().collect();
        ascending.sort_by_key(|r| r.tx);
        let mut had_bit: DetHashSet<u32> = DetHashSet::default();
        for rec in ascending {
            let addr = self.region.slot_addr(rec.last_slot);
            let mut raw = read_slice_raw(&self.base.store, &self.region, rec.last_slot);
            if crate::slice::flag_of(&raw) & COMMIT_TAIL_BIT != 0 {
                had_bit.insert(rec.last_slot);
                crate::slice::set_commit_tail(&mut raw, false);
                self.base.probe.emit(Event::Meta, now);
                self.base.store.write_bytes(addr, &raw);
            }
        }
        for rec in &records {
            if had_bit.contains(&rec.last_slot) {
                let addr = self.region.slot_addr(rec.last_slot);
                t = self.base.write_burst(addr, 16, t, TrafficClass::Metadata);
            }
        }
        // The open address slice (if any) was tombstoned with the rest.
        self.clear_open_addr_slice();

        let t = self.reclaim_clean_blocks(t);
        self.base.stats.gc_runs.inc();
        t
    }

    /// Reclaims every block that holds data but no uncommitted slices,
    /// persisting the updated headers (Algorithm 1, lines 28-29).
    fn reclaim_clean_blocks(&mut self, now: Cycle) -> Cycle {
        let mut t = now;
        for i in 0..self.region.block_count() {
            let b = self.region.block(i);
            if b.allocated() > 0 && b.uncommitted() == 0 {
                // The header write is the reclaim's durable point; if it is
                // dropped by an injected crash the block simply stays
                // allocated (its slices are already tombstoned) and the
                // next pass reclaims it.
                // Every mapping entry into this block must be gone by now.
                if self.base.probe.emit(Event::BlockReclaim(i as u32), t) {
                    self.region.reclaim_block(i);
                    let header = self.region.header_word(i);
                    self.base
                        .store
                        .write_u64(self.region.block(i).base(), header);
                }
                t = self.base.write_burst(
                    self.region.block(i).base(),
                    8,
                    t,
                    TrafficClass::Metadata,
                );
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engines::traits::PersistenceEngine;
    use simcore::{CoreId, PAddr, SimConfig};

    fn engine() -> HoopEngine {
        HoopEngine::new(&SimConfig::small_for_tests())
    }

    fn commit_tx(e: &mut HoopEngine, words: &[(u64, u64)], now: Cycle) {
        let tx = e.tx_begin(CoreId(0), now);
        for (addr, val) in words {
            e.on_store(CoreId(0), tx, PAddr(*addr), &val.to_le_bytes(), now);
        }
        e.tx_end(CoreId(0), tx, now + 10);
    }

    #[test]
    fn commit_scan_reports_each_transaction_once_at_its_first_sighting() {
        let mut e = engine();
        commit_tx(&mut e, &[(0, 1)], 0);
        commit_tx(&mut e, &[(64, 2)], 100);
        // Layout: tx 1's commit tail at slot 0, the address slice indexing
        // both transactions at slot 1, tx 2's commit tail at slot 2.
        let tails = e.commit_tail_slots();
        assert_eq!(tails.iter().map(|t| t.0).collect::<Vec<_>>(), [0, 2]);
        let scan = scan_commit_records(&e.base.store, &e.region);
        assert_eq!(scan.addr_slots, [1]);
        assert_eq!(scan.scanned_slices, 3);
        // tx 1 is first seen by its tail, tx 2 by the address slice; each
        // comes back exactly once, in (block, slot) order of first sighting.
        let records: Vec<CommitRecord> = tails
            .iter()
            .map(|&(last_slot, tx)| CommitRecord { last_slot, tx })
            .collect();
        assert_eq!(scan.records, records);
    }

    #[test]
    fn gc_migrates_newest_version_home() {
        let mut e = engine();
        commit_tx(&mut e, &[(0, 1)], 0);
        commit_tx(&mut e, &[(0, 2)], 100);
        assert_eq!(e.durable().read_u64(PAddr(0)), 0, "not yet migrated");
        e.run_gc(1000);
        assert_eq!(e.durable().read_u64(PAddr(0)), 2);
    }

    #[test]
    fn gc_coalesces_repeated_updates() {
        let mut e = engine();
        for i in 0..20u64 {
            commit_tx(&mut e, &[(0, i)], i * 100);
        }
        e.run_gc(10_000);
        // 20 line-touches coalesced into one 64-byte home write.
        assert_eq!(e.stats().gc_bytes_out.get(), 64);
        assert!(e.stats().gc_reduction_ratio() > 0.9);
        assert_eq!(e.durable().read_u64(PAddr(0)), 19);
    }

    #[test]
    fn gc_without_coalescing_writes_every_touch() {
        let mut e = engine();
        e.set_coalescing(false);
        for i in 0..10u64 {
            commit_tx(&mut e, &[(0, i)], i * 100);
        }
        e.run_gc(10_000);
        assert_eq!(e.stats().gc_bytes_out.get(), 10 * 64);
        assert_eq!(e.durable().read_u64(PAddr(0)), 9);
    }

    #[test]
    fn gc_reclaims_blocks_and_clears_mapping() {
        let mut e = engine();
        for i in 0..50u64 {
            commit_tx(&mut e, &[(i * 64, i)], i * 100);
        }
        assert!(e.oop_region().fill_fraction() > 0.0);
        assert!(!e.mapping_table().is_empty());
        e.run_gc(100_000);
        assert_eq!(e.oop_region().fill_fraction(), 0.0);
        assert_eq!(e.mapping_table().len(), 0);
        for i in 0..50u64 {
            assert_eq!(e.durable().read_u64(PAddr(i * 64)), i);
        }
    }

    #[test]
    fn gc_keeps_blocks_with_uncommitted_slices() {
        let mut e = engine();
        commit_tx(&mut e, &[(0, 1)], 0);
        // Open transaction with flushed-but-uncommitted slices.
        let tx = e.tx_begin(CoreId(1), 500);
        for i in 0..8u64 {
            e.on_store(CoreId(1), tx, PAddr(4096 + i * 8), &7u64.to_le_bytes(), 500);
        }
        e.run_gc(1000);
        // The committed data migrated...
        assert_eq!(e.durable().read_u64(PAddr(0)), 1);
        // ...but the open tx's block was not reclaimed and the tx can still
        // commit and recover.
        e.tx_end(CoreId(1), tx, 2000);
        e.crash();
        e.recover(1);
        assert_eq!(e.durable().read_u64(PAddr(4096)), 7);
    }

    #[test]
    fn double_gc_is_idempotent() {
        let mut e = engine();
        commit_tx(&mut e, &[(0, 42)], 0);
        e.run_gc(1000);
        let out_after_first = e.stats().gc_bytes_out.get();
        e.run_gc(2000);
        assert_eq!(e.stats().gc_bytes_out.get(), out_after_first);
        assert_eq!(e.durable().read_u64(PAddr(0)), 42);
    }

    #[test]
    fn migrated_lines_enter_eviction_buffer() {
        let mut e = engine();
        commit_tx(&mut e, &[(128, 9)], 0);
        e.run_gc(1000);
        assert!(e.evict_buf.contains(Line(2)));
        // A subsequent miss is served from the buffer, not the device.
        let before = e.device().traffic().total_read();
        let fill = e.on_llc_miss(CoreId(0), Line(2), 2000);
        assert_eq!(e.device().traffic().total_read(), before);
        assert!(fill.latency < 20);
    }
}
