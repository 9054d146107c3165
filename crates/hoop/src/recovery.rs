//! Parallel crash recovery (§III-F).
//!
//! Recovery reads the block index table to locate OOP blocks, collects all
//! committed address memory slices, sorts the commit records, and
//! distributes them round-robin to recovery threads. Each thread walks its
//! transactions' slice chains in reverse order, keeping only the value with
//! the largest commit id in a local hash set; a master merge keeps the
//! global newest version per home word, and the result is written back to
//! the home region. Finally the mapping table, eviction buffer and OOP
//! region are cleared.
//!
//! The scan genuinely runs on `threads` OS threads over the durable image
//! (functional parallelism); the *reported time* comes from the NVM
//! bandwidth model so results stay deterministic — see
//! [`model_recovery_ms`].

use simcore::det::DetHashMap;

use engines::traits::RecoveryReport;
use nvm::{Op, TrafficClass};
use simcore::addr::{Line, CACHE_LINE_BYTES};
use simcore::persist::Event;

use crate::engine::HoopEngine;
use crate::gc::{home_line_images, scan_commit_records, walk_chain};
use crate::slice::{CommitRecord, SLICE_BYTES};

/// Per-thread scan result: newest `(tx, value)` seen per home word, plus
/// the number of durable bytes the thread read.
type ScanLocal = (DetHashMap<u64, (u32, u64)>, u64);

/// Sustained per-thread scan rate in GB/s (decode + hash-insert bound; the
/// memory controller becomes the bottleneck once `threads × this` exceeds
/// the NVM bandwidth — the saturation visible in Fig. 11).
pub const PER_THREAD_SCAN_GBPS: f64 = 3.5;

/// Fixed recovery overhead in milliseconds (OS thread spawn, `kmap` of the
/// OOP blocks, final merge bookkeeping).
pub const RECOVERY_FIXED_MS: f64 = 6.0;

/// Models the recovery wall-clock time in milliseconds for scanning
/// `scan_bytes` + writing `write_bytes` with `threads` threads on a device
/// sustaining `bandwidth_gbps`.
///
/// # Example
///
/// ```
/// // 1 GB OOP region, 8 threads, 25 GB/s: the paper reports ~47 ms.
/// let ms = hoop::recovery::model_recovery_ms(1 << 30, 64 << 20, 8, 25.0);
/// assert!(ms > 35.0 && ms < 60.0, "modeled {ms} ms");
/// ```
pub fn model_recovery_ms(
    scan_bytes: u64,
    write_bytes: u64,
    threads: usize,
    bandwidth_gbps: f64,
) -> f64 {
    let threads = threads.max(1) as f64;
    let effective = (threads * PER_THREAD_SCAN_GBPS).min(bandwidth_gbps);
    let scan_ms = scan_bytes as f64 / (effective * 1.0e6);
    let write_ms = write_bytes as f64 / (bandwidth_gbps * 1.0e6);
    RECOVERY_FIXED_MS + scan_ms + write_ms
}

impl HoopEngine {
    /// Replays every committed transaction left in the OOP region onto the
    /// home region using `threads` parallel recovery threads, then clears
    /// the controller structures and the region.
    pub fn run_recovery(&mut self, threads: usize) -> RecoveryReport {
        let threads = threads.max(1);
        let scan = scan_commit_records(&self.base.store, &self.region);
        let mut records: Vec<CommitRecord> = scan.records;
        // Sort in commit order so round-robin distribution balances load the
        // way §III-F describes.
        records.sort_by_key(|r| r.tx);
        let txs_replayed = records.len() as u64;
        for rec in &records {
            // Recovery must replay exactly the committed prefix.
            self.base.probe.emit(Event::RecoveryReplay(rec.tx), 0);
        }

        // Phase 1: parallel scan. Each thread walks its share of the
        // committed transactions and keeps the largest-TxID value per word.
        // The media model and endurance map are shared read-only: chain
        // classification is a pure function of (seed, line, wear), so the
        // thread split never changes a verdict.
        let store = &self.base.store;
        let region = &self.region;
        let media = &self.base.media;
        let endurance = self.base.device.endurance();
        let locals: Vec<ScanLocal> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for t in 0..threads {
                let my_records: Vec<CommitRecord> =
                    records.iter().skip(t).step_by(threads).copied().collect();
                handles.push(scope.spawn(move || {
                    let mut local: DetHashMap<u64, (u32, u64)> = DetHashMap::default();
                    let mut slices = 0u64;
                    for rec in my_records.iter().rev() {
                        let chain =
                            walk_chain(store, region, rec.last_slot, rec.tx, media, endurance);
                        slices += chain.len() as u64;
                        for slice in &chain {
                            for w in &slice.words {
                                // Chains are walked newest-slice-first, so
                                // within one transaction the first-seen
                                // value is the newest: only a strictly
                                // larger commit id may overwrite.
                                let e = local.entry(w.home.0).or_insert((rec.tx, w.value));
                                if rec.tx > e.0 {
                                    *e = (rec.tx, w.value);
                                }
                            }
                        }
                    }
                    (local, slices)
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("recovery thread panicked"))
                .collect()
        });

        // Phase 2: master merge, newest commit id wins.
        let mut global: DetHashMap<u64, (u32, u64)> = DetHashMap::default();
        let mut scanned_slices = 0u64;
        for (local, slices) in locals {
            scanned_slices += slices;
            // lint:order-frozen: the newest version wins whatever the order,
            // but the insertion order fixes `global`'s iteration order.
            for (word, (tx, value)) in local {
                let e = global.entry(word).or_insert((tx, value));
                if tx > e.0 {
                    *e = (tx, value);
                }
            }
        }

        // Phase 3: write the recovered versions home (line-grouped bursts).
        let lines = home_line_images(
            &self.base.store,
            // lint:order-frozen: one image per line, whatever the order;
            // the frozen DetHashMap order only fixes the write order.
            global.iter().map(|(&word, &(_, value))| (word, value)),
        );
        // lint:order-frozen: the home-write order sets the crash-point order
        // of the `Recovery` events.
        for (l, img) in lines.iter() {
            self.base.probe.emit(Event::Recovery, 0);
            self.base.store.write_line(Line(l).base(), *img);
        }

        let scan_bytes = (scanned_slices + scan.addr_slots.len() as u64) * SLICE_BYTES;
        let write_bytes = lines.len() as u64 * CACHE_LINE_BYTES;
        self.base
            .device
            .account_untimed(scan_bytes, Op::Read, TrafficClass::Recovery);
        self.base
            .device
            .account_untimed(write_bytes, Op::Write, TrafficClass::Recovery);

        // Phase 4: clear the controller structures and the OOP region
        // (§III-F: "the mapping table, eviction buffer, and OOP region are
        // cleared").
        self.base.probe.emit(Event::MappingCleared, 0);
        self.mapping.clear();
        self.evict_buf.clear();
        self.clear_open_addr_slice();
        // Region reclamation is the durable point of cleanup; if an injected
        // crash drops it, the commit records stay on media and the next
        // recovery pass replays them again (idempotently).
        if self.base.probe.emit(Event::RegionCleared, 0) {
            self.region.reclaim_all();
        }

        let modeled_ms = model_recovery_ms(
            scan_bytes,
            write_bytes,
            threads,
            self.base.device.timing().bandwidth_gbps,
        );
        RecoveryReport {
            modeled_ms,
            bytes_scanned: scan_bytes,
            bytes_written: write_bytes,
            txs_replayed,
            threads,
        }
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

    #[test]
    fn recovery_is_thread_count_invariant() {
        let mut images = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            let mut e = engine();
            for i in 0..40u64 {
                let tx = e.tx_begin(CoreId((i % 2) as u8), i * 50);
                e.on_store(
                    CoreId((i % 2) as u8),
                    tx,
                    PAddr((i % 10) * 64),
                    &(i + 1).to_le_bytes(),
                    i * 50,
                );
                e.tx_end(CoreId((i % 2) as u8), tx, i * 50 + 10);
            }
            e.crash();
            let rep = e.recover(threads);
            assert_eq!(rep.threads, threads);
            let img: Vec<u64> = (0..10)
                .map(|k| e.durable().read_u64(PAddr(k * 64)))
                .collect();
            images.push(img);
        }
        assert!(images.windows(2).all(|w| w[0] == w[1]));
        // Newest version per slot wins: slot k holds the last tx writing it.
        assert_eq!(images[0][9], 40);
    }

    #[test]
    fn model_matches_paper_shape() {
        // 47 ms at >=25 GB/s for 1 GB (paper §IV-G)...
        let fast = model_recovery_ms(1 << 30, 64 << 20, 8, 25.0);
        // ...and roughly 2.3x slower at 10 GB/s.
        let slow = model_recovery_ms(1 << 30, 64 << 20, 8, 10.0);
        assert!(fast > 35.0 && fast < 60.0, "{fast}");
        assert!(slow / fast > 1.8 && slow / fast < 2.8, "{}", slow / fast);
        // Single-thread recovery is scan-rate bound, not bandwidth bound.
        let one = model_recovery_ms(1 << 30, 64 << 20, 1, 25.0);
        assert!(one > 2.0 * fast);
    }

    #[test]
    fn recovery_clears_region_and_mapping() {
        let mut e = engine();
        let tx = e.tx_begin(CoreId(0), 0);
        e.on_store(CoreId(0), tx, PAddr(0), &[9u8; 64], 0);
        e.tx_end(CoreId(0), tx, 10);
        e.crash();
        e.recover(2);
        assert_eq!(e.oop_region().fill_fraction(), 0.0);
        assert_eq!(e.mapping_table().len(), 0);
        // And the system keeps working after recovery.
        let tx = e.tx_begin(CoreId(0), 1000);
        e.on_store(CoreId(0), tx, PAddr(64), &1u64.to_le_bytes(), 1000);
        e.tx_end(CoreId(0), tx, 1010);
        e.crash();
        e.recover(1);
        assert_eq!(e.durable().read_u64(PAddr(64)), 1);
        assert_eq!(e.durable().read_u64(PAddr(8)), 0x0909_0909_0909_0909);
    }

    #[test]
    fn repeated_crash_recover_is_stable() {
        let mut e = engine();
        let tx = e.tx_begin(CoreId(0), 0);
        e.on_store(CoreId(0), tx, PAddr(0), &5u64.to_le_bytes(), 0);
        e.tx_end(CoreId(0), tx, 10);
        e.crash();
        e.recover(2);
        e.crash();
        e.recover(4);
        assert_eq!(e.durable().read_u64(PAddr(0)), 5);
    }
}
