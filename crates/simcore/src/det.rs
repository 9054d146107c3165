//! Deterministic hash containers.
//!
//! `std`'s default `HashMap`/`HashSet` hasher (`RandomState`) is seeded per
//! instance, so *iteration order differs on every run*. Several simulator
//! components iterate hash containers in ways that feed back into simulated
//! behavior (GC coalescing order, write-back order, wear-leveling victim
//! choice), which would make two runs of the same seed diverge — breaking the
//! crate's bit-for-bit reproducibility contract and the parallel experiment
//! runner's serial-equals-parallel guarantee.
//!
//! [`DetHashMap`]/[`DetHashSet`] are the same `std` containers with a
//! fixed-key multiply-rotate hasher (FxHash-style), so iteration order is a
//! pure function of the insertion sequence. All simulation crates use these
//! instead of the `std` defaults; the root `clippy.toml` rejects the `std`
//! types everywhere else, so these three lines are the only place allowed
//! to name them.

#[allow(clippy::disallowed_types)]
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// `HashMap` with a deterministic, fixed-seed hasher.
#[allow(clippy::disallowed_types)]
pub type DetHashMap<K, V> = HashMap<K, V, DetState>;

/// `HashSet` with a deterministic, fixed-seed hasher.
#[allow(clippy::disallowed_types)]
pub type DetHashSet<T> = HashSet<T, DetState>;

/// Builds a [`DetHashMap`] with space for `capacity` entries.
pub fn map_with_capacity<K, V>(capacity: usize) -> DetHashMap<K, V> {
    DetHashMap::with_capacity_and_hasher(capacity, DetState)
}

/// Zero-sized [`BuildHasher`] producing [`DetHasher`]s — every container
/// built from it hashes identically, on every run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DetState;

impl BuildHasher for DetState {
    type Hasher = DetHasher;

    fn build_hasher(&self) -> DetHasher {
        DetHasher { hash: 0 }
    }
}

/// Multiply-rotate hasher with a fixed odd multiplier (the FxHash scheme
/// used by rustc itself). Not DoS-resistant — irrelevant here, since every
/// key is simulator-internal.
#[derive(Clone, Copy, Debug, Default)]
pub struct DetHasher {
    hash: u64,
}

const K: u64 = 0x517c_c1b7_2722_0a95;

impl DetHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for DetHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_order_is_stable_for_same_insertions() {
        let build = || {
            let mut m: DetHashMap<u64, u64> = DetHashMap::default();
            for i in 0..1000u64 {
                m.insert(i.wrapping_mul(0x9e37_79b9), i);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn hasher_spreads_sequential_keys() {
        let mut hashes: DetHashSet<u64> = DetHashSet::default();
        for i in 0..1024u64 {
            let mut h = DetState.build_hasher();
            h.write_u64(i);
            hashes.insert(h.finish());
        }
        assert_eq!(hashes.len(), 1024);
    }

    #[test]
    fn with_capacity_helper_allocates() {
        let m: DetHashMap<u64, u64> = map_with_capacity(64);
        assert!(m.capacity() >= 64);
    }
}
