//! YCSB workload over the N-store row store (§IV-A).
//!
//! Each worker owns a private key-value table. Operations follow the
//! paper's mix — 80 % updates / 20 % reads with Zipfian key popularity —
//! and records are 512 B or 1 KB. Updates rewrite one ~10 % field of the
//! record (the standard YCSB `writeField` behavior), reads fetch the whole
//! value; together with the index stores this gives the 8-32 stores/tx of
//! Table III.

use engines::system::System;
use simcore::zipf::Zipfian;
use simcore::{CoreId, SimRng};

use crate::nstore::Table;
use crate::spec::WorkloadSpec;
use crate::TxWorkload;

/// The paper's default update fraction (20:80 read:update); override via
/// `WorkloadSpec::update_fraction` for mix sweeps.
pub const UPDATE_FRACTION: f64 = 0.8;

/// `Ycsb::slot` entry of a row no update has written.
const UNTOUCHED: u32 = u32::MAX;

/// Word `w` of row `row` as `setup` writes it.
fn initial_word(row: u64, w: u64) -> u64 {
    (row + 1).wrapping_mul(w + 1)
}

/// The YCSB benchmark.
#[derive(Debug)]
pub struct Ycsb {
    spec: WorkloadSpec,
    table: Option<Table>,
    rng: SimRng,
    zipf: Zipfian,
    /// Shadow index: per row, its index in `touched` in whole rows, or
    /// [`UNTOUCHED`] while the row still holds its [`initial_word`]s.
    slot: Vec<u32>,
    /// Shadow arena: the expected words of every row an update wrote, one
    /// whole row each, in order of first update.
    touched: Vec<u64>,
    /// Read transactions load their row here.
    row: Vec<u8>,
    version: u64,
    field_words: u64,
}

impl Ycsb {
    /// Creates the workload from its spec.
    pub fn new(spec: WorkloadSpec, stream: u64) -> Self {
        Self::with_zipf(spec, stream, Zipfian::new(spec.items, spec.zipf_theta))
    }

    /// [`new`](Ycsb::new) with the spec's key-popularity generator already
    /// built.
    pub fn with_zipf(spec: WorkloadSpec, stream: u64, zipf: Zipfian) -> Self {
        // One YCSB field is ~1/10 of the record, rounded to whole words.
        let field_words = (spec.item_bytes / 10 / 8).max(1);
        Ycsb {
            spec,
            table: None,
            rng: SimRng::seed(spec.seed ^ 0x9C5B).fork(stream),
            zipf,
            slot: Vec::new(),
            touched: Vec::new(),
            row: vec![0; spec.item_bytes as usize],
            version: 0,
            field_words,
        }
    }

    fn words_per_record(&self) -> u64 {
        self.spec.item_bytes / 8
    }

    /// The expected value of word `w` of row `row`.
    fn expected(&self, row: u64, w: u64) -> u64 {
        match self.slot[row as usize] {
            UNTOUCHED => initial_word(row, w),
            i => self.touched[(u64::from(i) * self.words_per_record() + w) as usize],
        }
    }

    /// The offset of `row`'s expected words in `touched`, copying the row
    /// into the arena on its first update.
    fn touch(&mut self, row: u64) -> usize {
        let words = self.words_per_record();
        let mut i = self.slot[row as usize];
        if i == UNTOUCHED {
            i = (self.touched.len() as u64 / words) as u32;
            self.slot[row as usize] = i;
            self.touched
                .extend((0..words).map(|w| initial_word(row, w)));
        }
        (u64::from(i) * words) as usize
    }
}

impl TxWorkload for Ycsb {
    fn name(&self) -> &'static str {
        "ycsb"
    }

    fn setup(&mut self, sys: &mut System, _core: CoreId) {
        assert!(
            self.spec.items < u64::from(UNTOUCHED),
            "row index fits a slot"
        );
        let mut table = Table::create(sys, "usertable", self.spec.items, self.spec.item_bytes);
        let words = self.words_per_record();
        let mut row = Vec::with_capacity(self.spec.item_bytes as usize);
        for key in 0..self.spec.items {
            row.clear();
            for w in 0..words {
                row.extend_from_slice(&initial_word(key, w).to_le_bytes());
            }
            table.insert_initial(sys, key + 1, &row);
        }
        self.slot = vec![UNTOUCHED; self.spec.items as usize];
        self.table = Some(table);
    }

    fn run_tx(&mut self, sys: &mut System, core: CoreId) {
        let key_idx = self.zipf.next_scrambled(&mut self.rng);
        let key = key_idx + 1;
        let update = self.rng.chance(self.spec.update_fraction);
        let tx = sys.tx_begin(core);
        let table = self.table.as_ref().expect("setup ran");
        let addr = table.lookup(sys, core, key).expect("pre-populated key");
        if update {
            // WHISPER-style update: 8-32 small stores scattered over the
            // record (field deltas, version stamps, index metadata) rather
            // than one contiguous memcpy — Table III's "8-32 stores/tx".
            let words = self.words_per_record();
            let shadow = self.touch(key_idx);
            self.version += 1;
            // A version stamp at the record head...
            let vstamp = self.version.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            sys.store_u64(core, addr, vstamp);
            self.touched[shadow] = vstamp;
            // ...plus short runs at several scattered field offsets.
            let runs = 3 + self.field_words / 4;
            for r in 0..runs {
                let run = (self.field_words / runs).clamp(1, 3);
                let start = self.rng.below(words - run) + 1;
                for w in 0..run {
                    let v = vstamp ^ (r << 8 | w);
                    sys.store_u64(core, addr.offset((start + w) * 8), v);
                    self.touched[shadow + (start + w) as usize] = v;
                }
            }
        } else {
            table.read_row(sys, core, addr, &mut self.row);
            // Sanity: the record must match the shadow.
            debug_assert_eq!(
                u64::from_le_bytes(self.row[..8].try_into().expect("8 bytes")),
                self.expected(key_idx, 0)
            );
        }
        sys.tx_end(core, tx);
    }

    fn verify(&self, sys: &System) -> usize {
        let table = self.table.as_ref().expect("setup ran");
        let words = self.words_per_record();
        let mut bad = 0;
        for row in 0..self.slot.len() as u64 {
            let addr = table.row_addr(row);
            for w in 0..words {
                if sys.peek_u64(addr.offset(w * 8)) != self.expected(row, w) {
                    bad += 1;
                }
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engines::native::NativeEngine;
    use simcore::SimConfig;

    #[test]
    fn mixed_ops_keep_shadow_in_sync() {
        let cfg = SimConfig::small_for_tests();
        let mut s = System::new(Box::new(NativeEngine::new(&cfg)), &cfg);
        let mut w = Ycsb::new(
            WorkloadSpec {
                items: 64,
                item_bytes: 512,
                ..WorkloadSpec::small(crate::WorkloadKind::Ycsb)
            },
            0,
        );
        w.setup(&mut s, CoreId(0));
        assert_eq!(w.verify(&s), 0);
        for _ in 0..100 {
            w.run_tx(&mut s, CoreId(0));
        }
        assert_eq!(w.verify(&s), 0);
    }

    #[test]
    fn verify_counts_one_corrupt_word_in_a_touched_or_untouched_row() {
        let cfg = SimConfig::small_for_tests();
        let mut s = System::new(Box::new(NativeEngine::new(&cfg)), &cfg);
        let mut w = Ycsb::new(
            WorkloadSpec {
                items: 64,
                item_bytes: 512,
                ..WorkloadSpec::small(crate::WorkloadKind::Ycsb)
            },
            0,
        );
        w.setup(&mut s, CoreId(0));
        for _ in 0..100 {
            w.run_tx(&mut s, CoreId(0));
        }
        let untouched = w.slot.iter().position(|&i| i == UNTOUCHED);
        let touched = w.slot.iter().position(|&i| i != UNTOUCHED);
        for row in [untouched, touched] {
            let row = row.expect("100 Zipfian txs leave rows of both kinds") as u64;
            let word = w.words_per_record() - 1;
            let addr = w
                .table
                .as_ref()
                .expect("setup ran")
                .row_addr(row)
                .offset(word * 8);
            let want = w.expected(row, word);
            s.write_initial(addr, &(!want).to_le_bytes());
            assert_eq!(w.verify(&s), 1, "row {row}");
            s.write_initial(addr, &want.to_le_bytes());
            assert_eq!(w.verify(&s), 0);
        }
    }

    #[test]
    fn field_size_is_a_tenth_of_the_record() {
        let w = Ycsb::new(
            WorkloadSpec {
                item_bytes: 1024,
                ..WorkloadSpec::small(crate::WorkloadKind::Ycsb)
            },
            0,
        );
        assert_eq!(w.field_words, 12); // 1 KB / 10 = 102 B -> 12 words
    }
}
