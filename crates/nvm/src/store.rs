//! Durable contents of the NVM.
//!
//! [`PersistentStore`] is the byte image that survives a simulated crash.
//! Engines write to it only at the moment data actually becomes durable
//! under their protocol (log persist, slice flush, checkpoint, ...), so a
//! crash test simply stops calling the engine and inspects the store.
//!
//! The store persists at 8-byte granularity — the atomic unit commodity
//! 64-bit hardware guarantees (§II-A of the paper). Multi-word writes can be
//! torn: [`PersistentStore::write_bytes_torn`] persists only a prefix, which
//! the property tests use to model crashes in the middle of a persist.
//!
//! Internally pages live in a slab (`Vec` of boxed 4 KiB arrays) addressed
//! through a [`LineMap`] page index, with a one-entry last-page cache so the
//! sequential access runs that dominate slice/log traffic skip the hash
//! probe entirely. The cache is a single relaxed atomic (a packed page
//! number and slab index) because the read path takes `&self` and recovery
//! shares the store across threads; slab indices are stable for the life of
//! the store, so a cached index can never dangle, and the cache only ever
//! affects which probe path a read takes — never the bytes returned.

use std::sync::atomic::{AtomicU64, Ordering};

use simcore::linemap::LineMap;
use simcore::persist::Probe;
use simcore::PAddr;

const PAGE_BYTES: u64 = 4096;
const PAGE_SIZE: usize = PAGE_BYTES as usize;

/// Sentinel meaning "last-page cache empty".
const NO_CACHE: u64 = u64::MAX;

/// Bits of the packed cache word holding the slab index; the remaining high
/// bits hold the page number. Pages or indices too large to pack simply
/// skip the cache (correctness never depends on it).
const IDX_BITS: u32 = 24;

/// A sparse durable byte image, initialized to zero.
#[derive(Debug)]
pub struct PersistentStore {
    /// Page frames. Slots are never popped — freed frames are zeroed and
    /// recycled through `free` — so indices held by `last` stay valid.
    slabs: Vec<Box<[u8; PAGE_SIZE]>>,
    /// Page number → slab index.
    index: LineMap<u32>,
    /// Recyclable (already zeroed) slab indices.
    free: Vec<u32>,
    /// Last (page number << IDX_BITS | slab index) touched, to
    /// short-circuit the probe.
    last: AtomicU64,
    /// Crash-point kill-switch: once a valve subscribed to this probe
    /// closes, every write is dropped, freezing the byte image at the
    /// injected crash point. Detached (the default) it is a single
    /// always-open branch.
    valve: Probe,
}

impl Default for PersistentStore {
    fn default() -> Self {
        PersistentStore {
            slabs: Vec::new(),
            index: LineMap::with_capacity(64, 0),
            free: Vec::new(),
            last: AtomicU64::new(NO_CACHE),
            valve: Probe::detached(),
        }
    }
}

impl Clone for PersistentStore {
    fn clone(&self) -> Self {
        PersistentStore {
            slabs: self.slabs.clone(),
            index: self.index.clone(),
            free: self.free.clone(),
            last: AtomicU64::new(self.last.load(Ordering::Relaxed)),
            // Clones are snapshots (e.g. the volatile image rebuilt from the
            // durable one after recovery) — they must stay writable even
            // while the durable original is frozen at a crash point.
            valve: Probe::detached(),
        }
    }
}

impl PersistentStore {
    /// Creates an empty (all-zero) store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches the engine's persist probe as the kill switch: while a valve
    /// behind it is closed, writes are dropped.
    pub fn attach_valve(&mut self, probe: Probe) {
        self.valve = probe;
    }

    /// Reads the cached (page, slab index) pair, if any.
    #[inline]
    fn cache_get(&self) -> Option<(u64, u32)> {
        let v = self.last.load(Ordering::Relaxed);
        if v == NO_CACHE {
            None
        } else {
            Some((v >> IDX_BITS, (v & ((1 << IDX_BITS) - 1)) as u32))
        }
    }

    /// Caches a (page, slab index) pair when it fits the packed word.
    #[inline]
    fn cache_set(&self, page: u64, idx: u32) {
        if page < (1 << (64 - IDX_BITS)) && idx < (1 << IDX_BITS) {
            let packed = (page << IDX_BITS) | u64::from(idx);
            if packed != NO_CACHE {
                self.last.store(packed, Ordering::Relaxed);
            }
        }
    }

    /// Resolves `page` to its slab index, if resident.
    #[inline]
    fn lookup(&self, page: u64) -> Option<u32> {
        if let Some((lp, li)) = self.cache_get() {
            if lp == page {
                return Some(li);
            }
        }
        let idx = *self.index.get(page)?;
        self.cache_set(page, idx);
        Some(idx)
    }

    /// Resolves `page` to its slab index, allocating a zeroed frame on first
    /// touch.
    #[inline]
    fn lookup_or_alloc(&mut self, page: u64) -> u32 {
        if let Some((lp, li)) = self.cache_get() {
            if lp == page {
                return li;
            }
        }
        let idx = match self.index.get(page) {
            Some(&i) => i,
            None => {
                let i = match self.free.pop() {
                    Some(i) => i,
                    None => {
                        self.slabs.push(Box::new([0; PAGE_SIZE]));
                        (self.slabs.len() - 1) as u32
                    }
                };
                self.index.insert(page, i);
                i
            }
        };
        self.cache_set(page, idx);
        idx
    }

    /// Releases `page`'s frame back to the free pool, zeroed for reuse.
    fn release_page(&mut self, page: u64) {
        if let Some(idx) = self.index.remove(page) {
            self.slabs[idx as usize].fill(0);
            self.free.push(idx);
            if matches!(self.cache_get(), Some((p, _)) if p == page) {
                self.last.store(NO_CACHE, Ordering::Relaxed);
            }
        }
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: PAddr) -> u8 {
        match self.lookup(addr.0 / PAGE_BYTES) {
            Some(i) => self.slabs[i as usize][(addr.0 % PAGE_BYTES) as usize],
            None => 0,
        }
    }

    /// Writes one byte. Prefer the word/byte-slice APIs; this exists for
    /// codec internals.
    pub fn write_u8(&mut self, addr: PAddr, value: u8) {
        if !self.valve.is_open() {
            return;
        }
        let i = self.lookup_or_alloc(addr.0 / PAGE_BYTES);
        self.slabs[i as usize][(addr.0 % PAGE_BYTES) as usize] = value;
    }

    /// Reads a little-endian u64 at `addr` (need not be aligned, though all
    /// simulator callers use word-aligned addresses).
    #[inline]
    pub fn read_u64(&self, addr: PAddr) -> u64 {
        let in_page = (addr.0 % PAGE_BYTES) as usize;
        if in_page <= PAGE_SIZE - 8 {
            return match self.lookup(addr.0 / PAGE_BYTES) {
                Some(i) => {
                    let p = &self.slabs[i as usize];
                    u64::from_le_bytes(p[in_page..in_page + 8].try_into().unwrap())
                }
                None => 0,
            };
        }
        let mut buf = [0u8; 8];
        self.read_bytes(addr, &mut buf);
        u64::from_le_bytes(buf)
    }

    /// Durably writes a little-endian u64 at `addr` — the hardware-atomic
    /// persist unit.
    #[inline]
    pub fn write_u64(&mut self, addr: PAddr, value: u64) {
        if !self.valve.is_open() {
            return;
        }
        let in_page = (addr.0 % PAGE_BYTES) as usize;
        if in_page <= PAGE_SIZE - 8 {
            let i = self.lookup_or_alloc(addr.0 / PAGE_BYTES);
            self.slabs[i as usize][in_page..in_page + 8].copy_from_slice(&value.to_le_bytes());
            return;
        }
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: PAddr, buf: &mut [u8]) {
        let in_page = (addr.0 % PAGE_BYTES) as usize;
        if in_page + buf.len() <= PAGE_SIZE {
            // Entirely within one page — the overwhelmingly common case
            // (lines, words, and 128-byte slices are page-aligned units).
            match self.lookup(addr.0 / PAGE_BYTES) {
                Some(i) => {
                    buf.copy_from_slice(&self.slabs[i as usize][in_page..in_page + buf.len()])
                }
                None => buf.fill(0),
            }
            return;
        }
        let mut pos = addr.0;
        let mut off = 0usize;
        while off < buf.len() {
            let in_page = (pos % PAGE_BYTES) as usize;
            let take = (buf.len() - off).min(PAGE_SIZE - in_page);
            match self.lookup(pos / PAGE_BYTES) {
                Some(i) => buf[off..off + take]
                    .copy_from_slice(&self.slabs[i as usize][in_page..in_page + take]),
                None => buf[off..off + take].fill(0),
            }
            off += take;
            pos += take as u64;
        }
    }

    /// Reads `len` bytes into a fresh vector.
    pub fn read_vec(&self, addr: PAddr, len: usize) -> Vec<u8> {
        let mut v = vec![0; len];
        self.read_bytes(addr, &mut v);
        v
    }

    /// Durably writes `data` starting at `addr`.
    pub fn write_bytes(&mut self, addr: PAddr, data: &[u8]) {
        if data.is_empty() || !self.valve.is_open() {
            return;
        }
        let in_page = (addr.0 % PAGE_BYTES) as usize;
        if in_page + data.len() <= PAGE_SIZE {
            let i = self.lookup_or_alloc(addr.0 / PAGE_BYTES);
            self.slabs[i as usize][in_page..in_page + data.len()].copy_from_slice(data);
            return;
        }
        let mut pos = addr.0;
        let mut off = 0usize;
        while off < data.len() {
            let in_page = (pos % PAGE_BYTES) as usize;
            let take = (data.len() - off).min(PAGE_SIZE - in_page);
            let i = self.lookup_or_alloc(pos / PAGE_BYTES);
            self.slabs[i as usize][in_page..in_page + take].copy_from_slice(&data[off..off + take]);
            off += take;
            pos += take as u64;
        }
    }

    /// Writes `data` but persists only the first `persisted` bytes, rounded
    /// down to the 8-byte atomic-persist unit — modeling a crash that tears
    /// a multi-word persist.
    ///
    /// Returns the number of bytes actually persisted.
    pub fn write_bytes_torn(&mut self, addr: PAddr, data: &[u8], persisted: usize) -> usize {
        let keep = persisted.min(data.len()) & !7usize;
        self.write_bytes(addr, &data[..keep]);
        keep
    }

    /// Fills `[addr, addr+len)` with zeros (used when reclaiming regions).
    pub fn zero_range(&mut self, addr: PAddr, len: u64) {
        if !self.valve.is_open() {
            return;
        }
        // Drop whole pages when possible; zero partial edges.
        let mut pos = addr.0;
        let end = addr.0 + len;
        while pos < end {
            let page = pos / PAGE_BYTES;
            let in_page = pos % PAGE_BYTES;
            let take = (end - pos).min(PAGE_BYTES - in_page);
            if in_page == 0 && take == PAGE_BYTES {
                self.release_page(page);
            } else if let Some(&i) = self.index.get(page) {
                self.slabs[i as usize][in_page as usize..(in_page + take) as usize].fill(0);
            }
            pos += take;
        }
    }

    /// Number of resident (non-zero-candidate) pages, for memory diagnostics.
    pub fn resident_pages(&self) -> usize {
        self.index.len()
    }

    /// FNV-1a digest of the byte *contents*, independent of allocation
    /// history: a resident-but-all-zero page hashes identically to an
    /// absent one, and pages are folded in ascending address order. Two
    /// stores holding the same bytes always digest equal — the comparison
    /// primitive of the crash-test thread-invariance checks.
    pub fn content_digest(&self) -> u64 {
        let mut pages: Vec<(u64, u32)> = self.index.iter().map(|(p, &i)| (p, i)).collect();
        pages.sort_unstable_by_key(|&(p, _)| p);
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        for (page, idx) in pages {
            let slab = &self.slabs[idx as usize];
            if slab.iter().all(|&b| b == 0) {
                continue;
            }
            for b in page.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            }
            for &b in slab.iter() {
                h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let s = PersistentStore::new();
        assert_eq!(s.read_u64(PAddr(0)), 0);
        assert_eq!(s.read_u64(PAddr(123_456_789)), 0);
    }

    #[test]
    fn word_roundtrip() {
        let mut s = PersistentStore::new();
        s.write_u64(PAddr(64), 0xDEAD_BEEF_F00D_CAFE);
        assert_eq!(s.read_u64(PAddr(64)), 0xDEAD_BEEF_F00D_CAFE);
    }

    #[test]
    fn cross_page_bytes() {
        let mut s = PersistentStore::new();
        let addr = PAddr(PAGE_BYTES - 3);
        let data = [1u8, 2, 3, 4, 5, 6, 7];
        s.write_bytes(addr, &data);
        assert_eq!(s.read_vec(addr, 7), data);
        assert_eq!(s.resident_pages(), 2);
    }

    #[test]
    fn cross_page_word() {
        let mut s = PersistentStore::new();
        let addr = PAddr(PAGE_BYTES - 4);
        s.write_u64(addr, 0x0102_0304_0506_0708);
        assert_eq!(s.read_u64(addr), 0x0102_0304_0506_0708);
        assert_eq!(s.resident_pages(), 2);
    }

    #[test]
    fn torn_write_keeps_word_prefix() {
        let mut s = PersistentStore::new();
        let data: Vec<u8> = (0..32).collect();
        let kept = s.write_bytes_torn(PAddr(0), &data, 20);
        assert_eq!(kept, 16); // rounded down to 8-byte units
        assert_eq!(s.read_vec(PAddr(0), 16), data[..16]);
        assert_eq!(s.read_u64(PAddr(16)), 0);
    }

    #[test]
    fn zero_range_reclaims() {
        let mut s = PersistentStore::new();
        s.write_bytes(PAddr(0), &[0xAA; 2 * PAGE_SIZE]);
        assert_eq!(s.resident_pages(), 2);
        s.zero_range(PAddr(0), PAGE_BYTES);
        assert_eq!(s.resident_pages(), 1);
        assert_eq!(s.read_u8(PAddr(10)), 0);
        assert_eq!(s.read_u8(PAddr(PAGE_BYTES)), 0xAA);
        s.zero_range(PAddr(PAGE_BYTES + 8), 8);
        assert_eq!(s.read_u8(PAddr(PAGE_BYTES + 8)), 0);
        assert_eq!(s.read_u8(PAddr(PAGE_BYTES + 16)), 0xAA);
    }

    #[test]
    fn content_digest_ignores_allocation_history() {
        let mut a = PersistentStore::new();
        let mut b = PersistentStore::new();
        a.write_u64(PAddr(8), 7);
        // b touches an extra page that ends up all-zero again.
        b.write_u64(PAddr(5 * PAGE_BYTES), 1);
        b.zero_range(PAddr(5 * PAGE_BYTES), 8);
        b.write_u64(PAddr(8), 7);
        assert_eq!(a.content_digest(), b.content_digest());
        b.write_u64(PAddr(16), 9);
        assert_ne!(a.content_digest(), b.content_digest());
        assert_eq!(PersistentStore::new().content_digest(), {
            let mut c = PersistentStore::new();
            c.write_u8(PAddr(0), 0);
            c.content_digest()
        });
    }

    #[test]
    fn freed_frames_are_recycled_zeroed() {
        let mut s = PersistentStore::new();
        s.write_bytes(PAddr(0), &[0xFF; PAGE_SIZE]);
        s.zero_range(PAddr(0), PAGE_BYTES);
        // A new page elsewhere should reuse the freed frame and read as zero.
        s.write_u8(PAddr(7 * PAGE_BYTES), 1);
        assert_eq!(s.read_u8(PAddr(7 * PAGE_BYTES)), 1);
        assert_eq!(s.read_u8(PAddr(7 * PAGE_BYTES + 1)), 0);
        assert_eq!(s.read_u64(PAddr(7 * PAGE_BYTES + 64)), 0);
    }

    #[test]
    fn closed_valve_drops_writes_and_clone_reopens() {
        use simcore::persist::{Event, Valve};
        let mut s = PersistentStore::new();
        s.write_u64(PAddr(0), 1);
        let (valve, probe) = Valve::shared(0);
        s.attach_valve(probe.clone());
        assert!(!probe.emit(Event::Payload, 0));
        s.write_u64(PAddr(0), 2);
        s.write_bytes(PAddr(64), &[0xFF; 64]);
        s.write_u8(PAddr(8), 1);
        s.zero_range(PAddr(0), 8);
        assert_eq!(s.read_u64(PAddr(0)), 1, "writes after the cut dropped");
        assert_eq!(s.read_u8(PAddr(64)), 0);
        // Snapshots strip the valve: the recovered volatile image writes.
        let mut snap = s.clone();
        snap.write_u64(PAddr(0), 3);
        assert_eq!(snap.read_u64(PAddr(0)), 3);
        assert_eq!(s.read_u64(PAddr(0)), 1);
        // Re-opening restores durability on the original.
        valve.lock().unwrap().open_fully();
        s.write_u64(PAddr(0), 4);
        assert_eq!(s.read_u64(PAddr(0)), 4);
    }

    #[test]
    fn last_page_cache_survives_removal() {
        let mut s = PersistentStore::new();
        s.write_u8(PAddr(5), 9);
        assert_eq!(s.read_u8(PAddr(5)), 9); // primes the cache on page 0
        s.zero_range(PAddr(0), PAGE_BYTES); // removes the cached page
        assert_eq!(s.read_u8(PAddr(5)), 0);
        s.write_u8(PAddr(5), 3);
        assert_eq!(s.read_u8(PAddr(5)), 3);
    }
}
