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
//!
//! [`LineImages`] stages 64-B line images (GC and checkpoint home writes)
//! behind a `DetHashMap` of 4-B slot numbers, so its iteration order is the
//! order a `DetHashMap<u64, [u8; 64]>` built by the same calls would have.

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

/// One 64-B line image.
pub type Image = [u8; 64];

/// A map from line number to a 64-B image: a [`DetHashMap`] from line to
/// slot, plus one arena holding the images in first-insert order.
///
/// A `DetHashMap<u64, [u8; 64]>` bucket is 73 B, and a resize holds the old
/// and the new table at once; here a bucket is 17 B, and the images sit in
/// one `Vec`. For these key and value types hashbrown's layout depends on
/// the keys and the sequence of table calls, not on the value type, so
/// every method below makes the table calls the `[u8; 64]` map would: [`iter`](LineImages::iter),
/// [`into_iter`](LineImages::into_iter) and
/// [`first_line`](LineImages::first_line) give the same line order.
///
/// # Example
///
/// ```
/// use simcore::det::LineImages;
/// let mut lines = LineImages::default();
/// lines.get_or_insert_with(7, || [0; 64])[0] = 1;
/// lines.insert(3, [2; 64]);
/// assert_eq!(lines.get(7).map(|img| img[0]), Some(1));
/// assert_eq!(lines.len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct LineImages {
    slots: DetHashMap<u64, u32>,
    images: Vec<Image>,
}

impl LineImages {
    /// The image of `line`, first set to `init()` if `line` is absent (the
    /// map's `entry(line).or_insert_with(init)`).
    pub fn get_or_insert_with(&mut self, line: u64, init: impl FnOnce() -> Image) -> &mut Image {
        let images = &mut self.images;
        let slot = *self.slots.entry(line).or_insert_with(|| {
            images.push(init());
            slot_of(images.len() - 1)
        });
        &mut images[slot as usize]
    }

    /// Sets the image of `line` (the map's `insert(line, image)`).
    pub fn insert(&mut self, line: u64, image: Image) {
        // `HashMap::insert` reserves room for one more entry before it
        // looks the key up, so even an overwrite can grow a full table;
        // `entry` reserves only for a new key. Reserve first to match.
        self.slots.reserve(1);
        *self.get_or_insert_with(line, || image) = image;
    }

    /// The image of `line`, if present.
    #[inline]
    pub fn get(&self, line: u64) -> Option<&Image> {
        self.slots.get(&line).map(|&s| &self.images[s as usize])
    }

    /// Whether `line` has an image.
    #[inline]
    pub fn contains(&self, line: u64) -> bool {
        self.slots.contains_key(&line)
    }

    /// Number of lines.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether no line has an image.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// The first line in iteration order.
    pub fn first_line(&self) -> Option<u64> {
        // lint:order-frozen: hands the map's order to the caller, whose
        // site carries its own marker.
        self.slots.keys().next().copied()
    }

    /// `(line, image)` pairs in the map's iteration order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Image)> {
        let images = &self.images;
        // lint:order-frozen: hands the map's order to the caller, whose
        // site carries its own marker.
        let slots = self.slots.iter();
        slots.map(move |(&line, &s)| (line, &images[s as usize]))
    }

    /// Removes every line, keeping the table's capacity (and so the layout
    /// later inserts get) as `HashMap::clear` does.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.images.clear();
    }
}

impl IntoIterator for LineImages {
    type Item = (u64, Image);
    type IntoIter = IntoImages;

    /// `(line, image)` pairs in the map's iteration order.
    fn into_iter(self) -> IntoImages {
        IntoImages {
            slots: self.slots.into_iter(),
            images: self.images,
        }
    }
}

/// The owning iterator of [`LineImages`].
#[derive(Debug)]
pub struct IntoImages {
    slots: std::collections::hash_map::IntoIter<u64, u32>,
    images: Vec<Image>,
}

impl Iterator for IntoImages {
    type Item = (u64, Image);

    fn next(&mut self) -> Option<(u64, Image)> {
        let (line, s) = self.slots.next()?;
        Some((line, self.images[s as usize]))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.slots.size_hint()
    }
}

/// An arena index as a slot number.
fn slot_of(index: usize) -> u32 {
    u32::try_from(index).expect("more than 2^32 line images")
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
