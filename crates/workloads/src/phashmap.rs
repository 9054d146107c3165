//! Persistent hashmap workload (Table III: 8 stores/tx, 100 % writes).
//!
//! Open-addressing hash table in the home region: each bucket holds a key
//! word followed by the item payload. Transactions either insert a new
//! entry (dense: key + payload words) or update *fields of several
//! Zipfian-popular entries* (sparse word-granularity writes — the paper's
//! §III-C fine-grained update pattern), issuing eight 8-byte stores either
//! way.

use engines::system::System;
use simcore::zipf::Zipfian;
use simcore::{CoreId, PAddr, SimRng};

use crate::spec::WorkloadSpec;
use crate::TxWorkload;

const EMPTY: u64 = 0;

/// `PHashmap::slot` entry of an empty bucket.
const NO_ROW: u32 = u32::MAX;

/// The persistent-hashmap benchmark.
#[derive(Debug)]
pub struct PHashmap {
    spec: WorkloadSpec,
    base: PAddr,
    buckets: u64,
    bucket_bytes: u64,
    rng: SimRng,
    zipf: Zipfian,
    /// Shadow index: per bucket, its entry's row in `rows`, or [`NO_ROW`]
    /// while the bucket is empty.
    slot: Vec<u32>,
    /// Shadow arena: per entry, in insertion order, its expected key word
    /// followed by its payload words.
    rows: Vec<u64>,
    /// Buckets of inserted keys, in insertion order (Zipfian rank space):
    /// entry `i` is row `i` of `rows`.
    inserted: Vec<u64>,
    version: u64,
}

impl PHashmap {
    /// Creates the workload from its spec.
    pub fn new(spec: WorkloadSpec, stream: u64) -> Self {
        Self::with_zipf(spec, stream, Zipfian::new(spec.items, spec.zipf_theta))
    }

    /// [`new`](PHashmap::new) with the spec's entry-popularity generator
    /// already built.
    pub fn with_zipf(spec: WorkloadSpec, stream: u64, zipf: Zipfian) -> Self {
        let buckets = (spec.items * 2).next_power_of_two();
        assert!(buckets <= u64::from(NO_ROW), "row index fits a slot");
        PHashmap {
            spec,
            base: PAddr(0),
            buckets,
            bucket_bytes: 8 + spec.item_bytes,
            rng: SimRng::seed(spec.seed ^ 0xA5A5).fork(stream),
            zipf,
            slot: vec![NO_ROW; buckets as usize],
            rows: Vec::new(),
            inserted: Vec::new(),
            version: 0,
        }
    }

    fn payload_words(&self) -> u64 {
        self.spec.item_bytes / 8
    }

    /// Shadow words per entry: the key, then the payload.
    fn row_words(&self) -> usize {
        1 + self.payload_words() as usize
    }

    fn bucket_addr(&self, b: u64) -> PAddr {
        self.base.offset(b * self.bucket_bytes)
    }

    fn hash(&self, key: u64) -> u64 {
        key.wrapping_mul(0xFF51_AFD7_ED55_8CCD) & (self.buckets - 1)
    }

    /// Probes for `key` (timed loads); returns (bucket, present).
    ///
    /// # Panics
    ///
    /// Panics if the table is full of *other* keys (the workload bounds its
    /// load factor at 50 %, so this indicates a bug).
    fn probe(&self, sys: &mut System, core: CoreId, key: u64) -> (u64, bool) {
        let mut b = self.hash(key);
        for _ in 0..self.buckets {
            let k = sys.load_u64(core, self.bucket_addr(b));
            if k == key {
                return (b, true);
            }
            if k == EMPTY {
                return (b, false);
            }
            b = (b + 1) & (self.buckets - 1);
        }
        panic!("hashmap table full during probe");
    }

    fn can_insert(&self) -> bool {
        // Keep the load factor at or below 50 % so probes stay short.
        (self.inserted.len() as u64) < self.buckets / 2
    }

    /// Appends a shadow row for a new entry of `key` in `bucket`, with the
    /// payload words `payload` yields; returns its row.
    fn push_row(&mut self, bucket: u64, key: u64, payload: impl Iterator<Item = u64>) -> usize {
        let row = self.inserted.len();
        self.slot[bucket as usize] = row as u32;
        self.inserted.push(bucket);
        self.rows.push(key);
        self.rows.extend(payload);
        row
    }

    fn write_word(&mut self, sys: &mut System, core: CoreId, row: usize, field: u64) {
        self.version += 1;
        let v = self.version.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let bucket = self.inserted[row];
        sys.store_u64(core, self.bucket_addr(bucket).offset(8 + field * 8), v);
        let word = row * self.row_words() + 1 + field as usize;
        self.rows[word] = v;
    }

    /// Rewrites fields `f` and `f + 1` (clamped to the payload) of the
    /// entry of Zipfian rank `rank`, after locating it by a timed probe.
    fn update_entry(&mut self, sys: &mut System, core: CoreId, rank: usize, f: u64) {
        // Locate the entry through a (timed) probe, like a real
        // lookup-then-update would.
        let key = self.rows[rank * self.row_words()];
        let (probed, present) = self.probe(sys, core, key);
        debug_assert!(present && probed == self.inserted[rank]);
        let fields = self.payload_words();
        self.write_word(sys, core, rank, f);
        self.write_word(sys, core, rank, (f + 1).min(fields - 1));
    }

    /// Stores `key` in its bucket, then rewrites up to seven payload words.
    fn insert_entry(&mut self, sys: &mut System, core: CoreId, key: u64) {
        let (b, present) = self.probe(sys, core, key);
        sys.store_u64(core, self.bucket_addr(b), key);
        let row = if present {
            self.slot[b as usize] as usize
        } else {
            let payload = self.payload_words() as usize;
            self.push_row(b, key, std::iter::repeat_n(0, payload))
        };
        for field in 0..self.payload_words().min(7) {
            self.write_word(sys, core, row, field);
        }
    }
}

impl TxWorkload for PHashmap {
    fn name(&self) -> &'static str {
        "hashmap"
    }

    fn setup(&mut self, sys: &mut System, _core: CoreId) {
        self.base = sys.alloc(self.buckets * self.bucket_bytes);
        let entries = self.spec.items / 2;
        self.rows.reserve(entries as usize * self.row_words());
        let mut bytes = Vec::with_capacity(self.bucket_bytes as usize);
        for i in 0..entries {
            let key = i * 2 + 1; // nonzero keys
            let mut b = self.hash(key);
            while self.slot[b as usize] != NO_ROW {
                b = (b + 1) & (self.buckets - 1);
            }
            let payload = (0..self.payload_words()).map(|field| key.wrapping_mul(field + 1));
            let row = self.push_row(b, key, payload);
            // The bucket as one record: the key, then the payload.
            bytes.clear();
            bytes.extend(
                self.rows[row * self.row_words()..]
                    .iter()
                    .flat_map(|v| v.to_le_bytes()),
            );
            sys.write_initial(self.bucket_addr(b), &bytes);
        }
    }

    fn run_tx(&mut self, sys: &mut System, core: CoreId) {
        let tx = sys.tx_begin(core);
        let update = !self.inserted.is_empty() && (self.rng.chance(0.75) || !self.can_insert());
        if update {
            // Eight stores spread as 2-word field writes across four
            // Zipfian-popular entries.
            for _ in 0..4 {
                let rank = self.zipf.next(&mut self.rng) % self.inserted.len() as u64;
                let fields = self.payload_words();
                let f = self.rng.below(fields.saturating_sub(1).max(1));
                self.update_entry(sys, core, rank as usize, f);
            }
        } else {
            // Insert: key word + up to seven payload words.
            let key = self.rng.next_u64() | 1;
            self.insert_entry(sys, core, key);
        }
        sys.tx_end(core, tx);
    }

    fn verify(&self, sys: &System) -> usize {
        let mut bad = 0;
        for (&b, row) in self
            .inserted
            .iter()
            .zip(self.rows.chunks_exact(self.row_words()))
        {
            let addr = self.bucket_addr(b);
            if sys.peek_u64(addr) != row[0] {
                bad += 1;
                continue;
            }
            for (field, want) in row[1..].iter().enumerate() {
                if sys.peek_u64(addr.offset(8 + field as u64 * 8)) != *want {
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
    use proptest::prelude::*;
    use simcore::SimConfig;
    use std::collections::BTreeMap;

    #[test]
    fn insert_update_verify() {
        let cfg = SimConfig::small_for_tests();
        let mut s = System::new(Box::new(NativeEngine::new(&cfg)), &cfg);
        let mut w = PHashmap::new(
            WorkloadSpec {
                items: 64,
                ..WorkloadSpec::small(crate::WorkloadKind::Hashmap)
            },
            1,
        );
        w.setup(&mut s, CoreId(0));
        assert_eq!(w.verify(&s), 0);
        for _ in 0..100 {
            w.run_tx(&mut s, CoreId(0));
        }
        assert_eq!(w.verify(&s), 0);
        assert!(w.inserted.len() >= 32);
    }

    /// A small table (128 buckets, 32 set-up entries) on a native engine.
    fn small() -> (System, PHashmap) {
        let cfg = SimConfig::small_for_tests();
        let mut s = System::new(Box::new(NativeEngine::new(&cfg)), &cfg);
        let mut w = PHashmap::new(
            WorkloadSpec {
                items: 64,
                ..WorkloadSpec::small(crate::WorkloadKind::Hashmap)
            },
            1,
        );
        w.setup(&mut s, CoreId(0));
        (s, w)
    }

    #[test]
    fn verify_counts_one_corrupt_word() {
        let (mut s, mut w) = small();
        let setup_rows = w.inserted.len();
        // Few enough transactions that some set-up entry stays untouched.
        for _ in 0..30 {
            w.run_tx(&mut s, CoreId(0));
        }
        assert!(w.inserted.len() > setup_rows, "some transaction inserted");
        let rw = w.row_words();
        let row = |r: usize| &w.rows[r * rw..(r + 1) * rw];
        let untouched = |r: usize| {
            let key = row(r)[0];
            (0..rw - 1).all(|f| row(r)[1 + f] == key.wrapping_mul(f as u64 + 1))
        };
        // (row, word within the row): an untouched set-up entry's first
        // payload word, an updated set-up entry's updated word, and an
        // inserted entry's key word.
        let setup = (0..setup_rows).find(|&r| untouched(r)).expect("untouched");
        let updated = (0..setup_rows).find(|&r| !untouched(r)).expect("updated");
        let field = (1..rw)
            .find(|&f| row(updated)[f] != row(updated)[0].wrapping_mul(f as u64))
            .expect("an updated word");
        let cases = [(setup, 1), (updated, field), (setup_rows, 0)];
        for (r, word) in cases {
            let addr = w.bucket_addr(w.inserted[r]).offset(word as u64 * 8);
            let want = row(r)[word];
            s.write_initial(addr, &(!want).to_le_bytes());
            assert_eq!(w.verify(&s), 1, "row {r} word {word}");
            s.write_initial(addr, &want.to_le_bytes());
            assert_eq!(w.verify(&s), 0);
        }
    }

    /// One transaction of the differential test: an update of the entry
    /// of rank `rank % entries` at field `field` (reduced as `run_tx`
    /// draws it), or an insert of `key | 1`.
    #[derive(Clone, Debug)]
    enum Op {
        Update { rank: u64, field: u64 },
        Insert(u64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => (any::<u64>(), any::<u64>()).prop_map(|(rank, field)| Op::Update { rank, field }),
            // Small keys collide with the set-up keys (the odd numbers
            // below 64), so inserts also hit present entries.
            1 => prop_oneof![0u64..160, any::<u64>()].prop_map(Op::Insert),
        ]
    }

    /// The reference model: the table as `bucket -> (key, payload)`, with
    /// the same linear probing and version stamps as the workload.
    struct Model {
        map: BTreeMap<u64, (u64, Vec<u64>)>,
        order: Vec<u64>,
        version: u64,
    }

    impl Model {
        fn new(w: &PHashmap) -> Self {
            let mut m = Model {
                map: BTreeMap::new(),
                order: Vec::new(),
                version: 0,
            };
            for i in 0..w.spec.items / 2 {
                let key = i * 2 + 1;
                let (b, _) = m.probe(w, key);
                let payload = (0..w.payload_words()).map(|f| key.wrapping_mul(f + 1));
                m.map.insert(b, (key, payload.collect()));
                m.order.push(b);
            }
            m
        }

        fn probe(&self, w: &PHashmap, key: u64) -> (u64, bool) {
            let mut b = w.hash(key);
            loop {
                match self.map.get(&b) {
                    None => return (b, false),
                    Some((k, _)) if *k == key => return (b, true),
                    Some(_) => b = (b + 1) % w.buckets,
                }
            }
        }

        fn write(&mut self, bucket: u64, field: u64) {
            self.version += 1;
            let v = self.version.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            self.map.get_mut(&bucket).expect("occupied").1[field as usize] = v;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Under any sequence of updates and inserts, the shadow holds
        /// exactly the reference model's entries, the durable image
        /// matches the model, and `verify` counts one corrupt word.
        #[test]
        fn shadow_matches_a_reference_model(
            ops in prop::collection::vec(op_strategy(), 1..120),
            corrupt in (any::<u64>(), any::<u64>()),
        ) {
            let (mut s, mut w) = small();
            let mut m = Model::new(&w);
            let core = CoreId(0);
            let fields = w.payload_words();
            for op in &ops {
                let tx = s.tx_begin(core);
                match *op {
                    Op::Update { rank, field } => {
                        let rank = rank % w.inserted.len() as u64;
                        let f = field % fields.saturating_sub(1).max(1);
                        w.update_entry(&mut s, core, rank as usize, f);
                        let b = m.order[rank as usize];
                        m.write(b, f);
                        m.write(b, (f + 1).min(fields - 1));
                    }
                    Op::Insert(key) if w.can_insert() => {
                        let key = key | 1;
                        w.insert_entry(&mut s, core, key);
                        let (b, present) = m.probe(&w, key);
                        if !present {
                            m.map.insert(b, (key, vec![0; fields as usize]));
                            m.order.push(b);
                        }
                        for f in 0..fields.min(7) {
                            m.write(b, f);
                        }
                    }
                    Op::Insert(_) => {}
                }
                s.tx_end(core, tx);
            }
            prop_assert_eq!(&w.inserted, &m.order);
            prop_assert_eq!(w.slot.iter().filter(|&&r| r != NO_ROW).count(), m.map.len());
            for (&b, (key, payload)) in &m.map {
                let r = w.slot[b as usize] as usize;
                prop_assert!(r != NO_ROW as usize, "bucket {} empty", b);
                let row = &w.rows[r * w.row_words()..(r + 1) * w.row_words()];
                prop_assert_eq!(row[0], *key);
                prop_assert_eq!(&row[1..], &payload[..]);
                let addr = w.bucket_addr(b);
                prop_assert_eq!(s.peek_u64(addr), *key);
                for (f, v) in payload.iter().enumerate() {
                    prop_assert_eq!(s.peek_u64(addr.offset(8 + f as u64 * 8)), *v);
                }
            }
            prop_assert_eq!(w.verify(&s), 0);
            // Corrupt one word of one entry.
            let (entry, word) = corrupt;
            let b = m.order[(entry % m.order.len() as u64) as usize];
            let word = word % (1 + fields);
            let addr = w.bucket_addr(b).offset(word * 8);
            let v = s.peek_u64(addr);
            s.write_initial(addr, &(!v).to_le_bytes());
            prop_assert_eq!(w.verify(&s), 1);
        }
    }

    #[test]
    fn updates_are_sparse() {
        // An update transaction touches four distinct entries with two
        // adjacent words each (the fine-granularity pattern of §III-C).
        let cfg = SimConfig::small_for_tests();
        let mut s = System::new(Box::new(NativeEngine::new(&cfg)), &cfg);
        let mut w = PHashmap::new(
            WorkloadSpec {
                items: 64,
                ..WorkloadSpec::small(crate::WorkloadKind::Hashmap)
            },
            1,
        );
        w.setup(&mut s, CoreId(0));
        let v0 = w.version;
        // Force updates by disabling inserts statistically: run several txs
        // and check the version counter moved by 8 per update tx.
        for _ in 0..8 {
            w.run_tx(&mut s, CoreId(0));
        }
        assert!(w.version > v0);
        assert_eq!(w.verify(&s), 0);
    }
}
