//! The tree workloads' in-memory shadow model.
//!
//! The B-tree and red-black-tree workloads keep every committed
//! `(key, value)` pair in a [`Shadow`]. Besides checking the persistent
//! structure in `verify`, the shadow picks the key each update transaction
//! rewrites: the `idx`-th smallest key, [`Shadow::key_at`].
//!
//! A [`Shadow`] is an order-statistic sequence: sorted chunks of at most
//! [`CHUNK`] pairs plus each chunk's first key and starting rank. An upsert
//! binary-searches the first keys, then the one chunk, and shifts at most
//! that chunk rather than half of all pairs; a rank query binary-searches
//! the starting ranks, where an ordered map needs an `O(n)` walk. The first
//! keys and starting ranks sit in arrays of their own so that both outer
//! searches stay in a few host cache lines.

/// Most pairs a chunk holds; a chunk that reaches it splits in half.
const CHUNK: usize = 256;

/// Committed `(key, value)` pairs in key order, with rank queries.
#[derive(Debug, Default)]
pub(crate) struct Shadow {
    /// Non-empty sorted runs; every key of a chunk is below every key of
    /// the next one.
    chunks: Vec<Vec<(u64, u64)>>,
    /// `firsts[c]`: the smallest key of `chunks[c]`.
    firsts: Vec<u64>,
    /// `starts[c]`: the number of pairs in `chunks[..c]`.
    starts: Vec<usize>,
    len: usize,
}

impl Shadow {
    /// Number of pairs.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Inserts `key` with `value`, or overwrites the value if `key` is
    /// already present.
    pub(crate) fn upsert(&mut self, key: u64, value: u64) {
        // The last chunk starting at or below `key` (or the first chunk).
        let c = self.firsts.partition_point(|&k| k <= key).saturating_sub(1);
        let Some(chunk) = self.chunks.get_mut(c) else {
            self.chunks.push(vec![(key, value)]);
            self.firsts.push(key);
            self.starts.push(0);
            self.len = 1;
            return;
        };
        let i = match chunk.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => {
                chunk[i].1 = value;
                return;
            }
            Err(i) => i,
        };
        chunk.insert(i, (key, value));
        self.firsts[c] = chunk[0].0;
        self.len += 1;
        for start in &mut self.starts[c + 1..] {
            *start += 1;
        }
        if chunk.len() == CHUNK {
            let tail = chunk.split_off(CHUNK / 2);
            self.firsts.insert(c + 1, tail[0].0);
            self.chunks.insert(c + 1, tail);
            self.starts.insert(c + 1, self.starts[c] + CHUNK / 2);
        }
    }

    /// The key of rank `idx` (0 is the smallest).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    pub(crate) fn key_at(&self, idx: usize) -> u64 {
        assert!(idx < self.len, "rank {idx} of {} pairs", self.len);
        let c = self.starts.partition_point(|&s| s <= idx) - 1;
        self.chunks[c][idx - self.starts[c]].0
    }

    /// The pairs in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &(u64, u64)> {
        self.chunks.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::{Shadow, CHUNK};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The chunked shadow must answer every rank query and in-order
        /// walk exactly as a `BTreeMap`: rank `idx` is the `idx`-th smallest
        /// key, the pick the tree workloads' recorded traces depend on.
        /// Keys come from a range twice the longest operation count, so
        /// updates of existing keys are frequent, and enough operations run
        /// to split several chunks. Ranks at every chunk boundary are
        /// checked.
        #[test]
        fn chunked_shadow_matches_btreemap(
            ops in prop::collection::vec((0u64..4000, any::<u64>()), 0..2000)
        ) {
            let mut shadow = Shadow::default();
            let mut reference = BTreeMap::new();
            for &(key, value) in &ops {
                shadow.upsert(key, value);
                reference.insert(key, value);
                prop_assert_eq!(shadow.len(), reference.len());
            }
            let want: Vec<(u64, u64)> = reference.into_iter().collect();
            for (idx, &(key, _)) in want.iter().enumerate() {
                prop_assert_eq!(shadow.key_at(idx), key);
            }
            for (c, &start) in shadow.starts.iter().enumerate() {
                let chunk = &shadow.chunks[c];
                prop_assert!(!chunk.is_empty() && chunk.len() < CHUNK);
                prop_assert_eq!(shadow.firsts[c], chunk[0].0);
                prop_assert_eq!(shadow.key_at(start), chunk[0].0);
                prop_assert_eq!(shadow.key_at(start + chunk.len() - 1), chunk[chunk.len() - 1].0);
                if start > 0 {
                    prop_assert_eq!(shadow.key_at(start - 1), want[start - 1].0);
                }
            }
            if ops.len() > 1500 {
                prop_assert!(shadow.chunks.len() >= 4, "{} chunks", shadow.chunks.len());
            }
            let got: Vec<(u64, u64)> = shadow.iter().copied().collect();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn ascending_inserts_split_and_keep_ranks() {
        let mut shadow = Shadow::default();
        for k in 0..5 * CHUNK as u64 {
            shadow.upsert(2 * k + 1, k);
        }
        assert!(shadow.chunks.len() >= 5);
        for idx in 0..shadow.len() {
            assert_eq!(shadow.key_at(idx), 2 * idx as u64 + 1);
        }
        // Into the gap just before a chunk's first key.
        let second = shadow.chunks[1][0].0;
        shadow.upsert(second - 1, 0);
        assert_eq!(shadow.key_at(shadow.starts[1] - 1), second - 1);
        assert_eq!(shadow.key_at(shadow.starts[1]), second);
    }
}
