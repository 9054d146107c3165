//! The tree workloads' in-memory shadow model.
//!
//! The B-tree and red-black-tree workloads keep every committed
//! `(key, value)` pair in a `Vec` sorted by key. Besides checking the
//! persistent structure in `verify`, the shadow picks the key each update
//! transaction rewrites: the `idx`-th smallest key, `shadow[idx].0`, in
//! constant time, where an ordered map needs an `O(n)` walk for the same
//! rank query.

/// Inserts `key` with `value` into the sorted `shadow`, or overwrites the
/// value if `key` is already present.
pub(crate) fn upsert(shadow: &mut Vec<(u64, u64)>, key: u64, value: u64) {
    match shadow.binary_search_by_key(&key, |&(k, _)| k) {
        Ok(i) => shadow[i].1 = value,
        Err(i) => shadow.insert(i, (key, value)),
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::upsert;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The sorted Vec must answer every rank query and in-order walk
        /// exactly as the `BTreeMap` it replaced. Keys come from a small
        /// range so updates of existing keys are frequent.
        #[test]
        fn sorted_vec_matches_btreemap(
            ops in prop::collection::vec((0u64..300, any::<u64>()), 0..400)
        ) {
            let mut shadow = Vec::new();
            let mut reference = BTreeMap::new();
            for &(key, value) in &ops {
                upsert(&mut shadow, key, value);
                reference.insert(key, value);
                prop_assert_eq!(shadow.len(), reference.len());
            }
            for (idx, (key, _)) in shadow.iter().enumerate() {
                prop_assert_eq!(Some(key), reference.keys().nth(idx));
            }
            let want: Vec<(u64, u64)> = reference.into_iter().collect();
            prop_assert_eq!(shadow, want);
        }
    }
}
