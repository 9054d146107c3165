//! `LineImages` against the map it replaces: a `DetHashMap<u64, [u8; 64]>`
//! driven by the same calls must hold the same images and iterate its
//! lines in the same order, since GC and checkpoint home writes (and their
//! crash points) follow that order.

use proptest::prelude::*;
use simcore::det::{DetHashMap, Image, LineImages};

#[derive(Clone, Debug)]
enum Op {
    /// `get_or_insert_with`, then set byte `at` of the image to `byte`.
    Patch {
        line: u64,
        at: u8,
        byte: u8,
    },
    /// `insert` of an image filled with `byte`.
    Insert {
        line: u64,
        byte: u8,
    },
    /// `std::mem::take` of the whole container.
    Take,
    Clear,
}

fn op() -> impl Strategy<Value = Op> {
    // A small line universe makes overwrites of a full table common; a
    // wide one grows the table through several resizes.
    prop_oneof![
        4 => (0u64..48, 0u8..64, any::<u8>())
            .prop_map(|(line, at, byte)| Op::Patch { line, at, byte }),
        4 => (0u64..1 << 40, 0u8..64, any::<u8>())
            .prop_map(|(line, at, byte)| Op::Patch { line, at, byte }),
        4 => (0u64..48, any::<u8>()).prop_map(|(line, byte)| Op::Insert { line, byte }),
        1 => Just(Op::Take),
        1 => Just(Op::Clear),
    ]
}

/// Asserts that `got` holds `want`'s lines in `want`'s iteration order,
/// through `iter`, `first_line`, `get` and `into_iter`.
fn same(got: &LineImages, want: &DetHashMap<u64, Image>) -> Result<(), TestCaseError> {
    let want: Vec<(u64, Image)> = want.iter().map(|(&l, &img)| (l, img)).collect();
    let seen: Vec<(u64, Image)> = got.iter().map(|(l, &img)| (l, img)).collect();
    prop_assert_eq!(&seen, &want);
    prop_assert_eq!(got.len(), want.len());
    prop_assert_eq!(got.first_line(), want.first().map(|&(l, _)| l));
    for (l, img) in &want {
        prop_assert!(got.contains(*l));
        prop_assert_eq!(got.get(*l), Some(img));
    }
    let owned: Vec<(u64, Image)> = got.clone().into_iter().collect();
    prop_assert_eq!(&owned, &want);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn line_images_match_a_map_of_images(ops in prop::collection::vec(op(), 1..400)) {
        let mut got = LineImages::default();
        let mut want: DetHashMap<u64, Image> = DetHashMap::default();
        for op in &ops {
            match *op {
                Op::Patch { line, at, byte } => {
                    let init = [line as u8; 64];
                    got.get_or_insert_with(line, || init)[at as usize] = byte;
                    want.entry(line).or_insert_with(|| init)[at as usize] = byte;
                }
                Op::Insert { line, byte } => {
                    got.insert(line, [byte; 64]);
                    want.insert(line, [byte; 64]);
                }
                Op::Take => {
                    let taken = std::mem::take(&mut got);
                    same(&taken, &std::mem::take(&mut want))?;
                }
                Op::Clear => {
                    got.clear();
                    want.clear();
                }
            }
            prop_assert_eq!(got.len(), want.len());
        }
        same(&got, &want)?;
    }
}

#[test]
fn overwriting_a_full_table_grows_it_like_a_map_insert() {
    // Three lines fill the smallest table; `HashMap::insert` of a present
    // key then still grows it, which moves the lines to new buckets.
    for first in 0..32u64 {
        let mut got = LineImages::default();
        let mut want: DetHashMap<u64, Image> = DetHashMap::default();
        for line in first..first + 3 {
            got.insert(line, [1; 64]);
            want.insert(line, [1; 64]);
        }
        assert_eq!(want.capacity(), 3);
        got.insert(first + 1, [2; 64]);
        want.insert(first + 1, [2; 64]);
        assert_eq!(want.capacity(), 7);
        let order: Vec<u64> = got.iter().map(|(l, _)| l).collect();
        assert_eq!(
            order,
            want.keys().copied().collect::<Vec<_>>(),
            "lines {first}.."
        );
    }
}
