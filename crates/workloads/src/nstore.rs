//! A minimal N-store-like relational row store (§IV-A: "We use an N-store
//! database as the back-end store, where each thread executes transactions
//! against its database tables").
//!
//! Tables are fixed-width row heaps in the home region with a persistent
//! linear-probing hash index (key word + row-pointer word per bucket). All
//! index probes and row accesses are timed through the simulated machine;
//! YCSB and TPC-C New-Order run on top of this store.

use engines::system::System;
use simcore::{CoreId, PAddr};

/// Index-bucket tag marking a deleted entry (tombstone). Probes skip it;
/// inserts may reuse it.
const TOMB: u64 = u64::MAX;

/// A fixed-width table with a persistent hash primary index.
#[derive(Debug)]
pub struct Table {
    name: &'static str,
    row_bytes: u64,
    capacity: u64,
    rows_base: PAddr,
    index_base: PAddr,
    buckets: u64,
    next_row: u64,
    /// Key stored in each row slot (0 = free), so recycling a slot can
    /// tombstone the stale index entry.
    slot_keys: Vec<u64>,
}

impl Table {
    /// Creates (allocates) a table of `capacity` rows of `row_bytes` each.
    ///
    /// # Panics
    ///
    /// Panics if `row_bytes` is not a multiple of 8 or capacity is 0.
    pub fn create(sys: &mut System, name: &'static str, capacity: u64, row_bytes: u64) -> Self {
        assert!(
            row_bytes.is_multiple_of(8) && row_bytes > 0,
            "rows are word-granular"
        );
        assert!(capacity > 0, "empty table");
        let buckets = (capacity * 2).next_power_of_two();
        Table {
            name,
            row_bytes,
            capacity,
            rows_base: sys.alloc(capacity * row_bytes),
            index_base: sys.alloc(buckets * 16),
            buckets,
            next_row: 0,
            slot_keys: vec![0; capacity as usize],
        }
    }

    /// Table name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Row width in bytes.
    pub fn row_bytes(&self) -> u64 {
        self.row_bytes
    }

    /// Number of rows inserted.
    pub fn len(&self) -> u64 {
        self.next_row
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.next_row == 0
    }

    fn bucket_addr(&self, b: u64) -> PAddr {
        self.index_base.offset(b * 16)
    }

    fn hash(&self, key: u64) -> u64 {
        (key ^ key >> 33).wrapping_mul(0xFF51_AFD7_ED55_8CCD) & (self.buckets - 1)
    }

    /// The address of row slot `row` (regardless of index state).
    pub fn row_addr(&self, row: u64) -> PAddr {
        self.rows_base
            .offset((row % self.capacity) * self.row_bytes)
    }

    /// Inserts a row during setup (untimed), bypassing the measured path.
    ///
    /// # Panics
    ///
    /// Panics if the table is full or `row` exceeds the row width.
    pub fn insert_initial(&mut self, sys: &mut System, key: u64, row: &[u8]) -> PAddr {
        assert!(self.next_row < self.capacity, "table {} full", self.name);
        assert!(row.len() as u64 <= self.row_bytes);
        let slot = self.next_row;
        self.next_row += 1;
        let addr = self.row_addr(slot);
        sys.write_initial(addr, row);
        let mut b = self.hash(key);
        // Untimed probe against the durable image.
        while sys.peek_u64(self.bucket_addr(b)) != 0 {
            b = (b + 1) & (self.buckets - 1);
        }
        // The bucket as one record: the tag, then the row address.
        let mut bucket = [0u8; 16];
        bucket[..8].copy_from_slice(&(key | 1 << 63).to_le_bytes());
        bucket[8..].copy_from_slice(&addr.0.to_le_bytes());
        sys.write_initial(self.bucket_addr(b), &bucket);
        self.slot_keys[(slot % self.capacity) as usize] = key;
        addr
    }

    /// Tombstones `key`'s index entry (timed), if present.
    fn delete_index(&mut self, sys: &mut System, core: CoreId, key: u64) {
        let mut b = self.hash(key);
        for _ in 0..self.buckets {
            let tag = sys.load_u64(core, self.bucket_addr(b));
            if tag == key | 1 << 63 {
                sys.store_u64(core, self.bucket_addr(b), TOMB);
                return;
            }
            if tag == 0 {
                return;
            }
            b = (b + 1) & (self.buckets - 1);
        }
    }

    /// Inserts a row inside the open transaction (timed); wraps around and
    /// overwrites the oldest slot when the heap is full (bounded history,
    /// like a recycled order table).
    pub fn insert(&mut self, sys: &mut System, core: CoreId, key: u64, row: &[u8]) -> PAddr {
        let slot = self.next_row;
        self.next_row += 1;
        // Recycling an old slot evicts its previous key from the index
        // (bounded history, like a recycled order table).
        let recycled = self.slot_keys[(slot % self.capacity) as usize];
        if recycled != 0 && recycled != key {
            self.delete_index(sys, core, recycled);
        }
        self.slot_keys[(slot % self.capacity) as usize] = key;
        let addr = self.row_addr(slot);
        sys.store_bytes(core, addr, row);
        let mut b = self.hash(key);
        let mut reuse: Option<u64> = None;
        for _ in 0..self.buckets {
            let tag = sys.load_u64(core, self.bucket_addr(b));
            if tag == key | 1 << 63 {
                reuse = Some(b);
                break;
            }
            if tag == TOMB {
                reuse.get_or_insert(b);
            } else if tag == 0 {
                reuse.get_or_insert(b);
                break;
            }
            b = (b + 1) & (self.buckets - 1);
        }
        let b = reuse.unwrap_or_else(|| panic!("index of table {} full", self.name));
        sys.store_u64(core, self.bucket_addr(b), key | 1 << 63);
        sys.store_u64(core, self.bucket_addr(b).offset(8), addr.0);
        addr
    }

    /// Looks up `key` through the persistent index (timed loads).
    pub fn lookup(&self, sys: &mut System, core: CoreId, key: u64) -> Option<PAddr> {
        let mut b = self.hash(key);
        for _ in 0..self.buckets {
            let tag = sys.load_u64(core, self.bucket_addr(b));
            if tag == key | 1 << 63 {
                return Some(PAddr(sys.load_u64(core, self.bucket_addr(b).offset(8))));
            }
            if tag == 0 {
                return None;
            }
            // Tombstones are skipped; the probe continues.
            b = (b + 1) & (self.buckets - 1);
        }
        None
    }

    /// Reads the whole row at `addr` into `row` (timed), which must be
    /// exactly one row long.
    pub fn read_row(&self, sys: &mut System, core: CoreId, addr: PAddr, row: &mut [u8]) {
        debug_assert_eq!(
            row.len() as u64,
            self.row_bytes,
            "row buffer of {}",
            self.name
        );
        sys.load_bytes(core, addr, row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engines::native::NativeEngine;
    use simcore::SimConfig;

    fn sys() -> System {
        let cfg = SimConfig::small_for_tests();
        System::new(Box::new(NativeEngine::new(&cfg)), &cfg)
    }

    #[test]
    fn initial_insert_and_lookup() {
        let mut s = sys();
        let mut t = Table::create(&mut s, "t", 16, 64);
        let addr = t.insert_initial(&mut s, 7, &[1u8; 64]);
        assert_eq!(t.lookup(&mut s, CoreId(0), 7), Some(addr));
        assert_eq!(t.lookup(&mut s, CoreId(0), 8), None);
        let mut row = [0u8; 64];
        t.read_row(&mut s, CoreId(0), addr, &mut row);
        assert_eq!(row, [1u8; 64]);
    }

    #[test]
    fn transactional_insert_updates_index() {
        let mut s = sys();
        let mut t = Table::create(&mut s, "t", 16, 64);
        let tx = s.tx_begin(CoreId(0));
        let addr = t.insert(&mut s, CoreId(0), 5, &[9u8; 64]);
        s.tx_end(CoreId(0), tx);
        assert_eq!(t.lookup(&mut s, CoreId(0), 5), Some(addr));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn wraps_when_full() {
        let mut s = sys();
        let mut t = Table::create(&mut s, "t", 4, 64);
        let tx = s.tx_begin(CoreId(0));
        for k in 0..6u64 {
            t.insert(&mut s, CoreId(0), k + 1, &[k as u8; 64]);
        }
        s.tx_end(CoreId(0), tx);
        // Row slots recycle; the index still resolves the newest keys...
        let a5 = t.lookup(&mut s, CoreId(0), 5).expect("key 5");
        assert_eq!(s.peek_u64(a5) & 0xFF, 4);
        // ...and the recycled keys were tombstoned out of the index.
        assert!(t.lookup(&mut s, CoreId(0), 1).is_none());
        assert!(t.lookup(&mut s, CoreId(0), 2).is_none());
    }

    #[test]
    fn index_never_fills_under_sustained_recycling() {
        // Regression: before tombstoning, stale entries of recycled rows
        // accumulated until the index overflowed.
        let mut s = sys();
        let mut t = Table::create(&mut s, "t", 8, 64);
        let tx = s.tx_begin(CoreId(0));
        for k in 0..200u64 {
            t.insert(&mut s, CoreId(0), k + 1, &[1u8; 64]);
        }
        s.tx_end(CoreId(0), tx);
        assert!(t.lookup(&mut s, CoreId(0), 200).is_some());
        assert!(t.lookup(&mut s, CoreId(0), 100).is_none());
    }

    #[test]
    #[should_panic]
    fn misaligned_rows_panic() {
        let mut s = sys();
        let _ = Table::create(&mut s, "t", 4, 60);
    }
}
