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

#[derive(Clone, Debug)]
struct ShadowBucket {
    key: u64,
    words: Vec<u64>,
}

/// The persistent-hashmap benchmark.
#[derive(Debug)]
pub struct PHashmap {
    spec: WorkloadSpec,
    base: PAddr,
    buckets: u64,
    bucket_bytes: u64,
    rng: SimRng,
    zipf: Zipfian,
    /// Shadow: key + payload words per bucket (`None` = empty).
    shadow: Vec<Option<ShadowBucket>>,
    /// Buckets of inserted keys, in insertion order (Zipfian rank space).
    inserted: Vec<u64>,
    version: u64,
}

impl PHashmap {
    /// Creates the workload from its spec.
    pub fn new(spec: WorkloadSpec, stream: u64) -> Self {
        let buckets = (spec.items * 2).next_power_of_two();
        PHashmap {
            spec,
            base: PAddr(0),
            buckets,
            bucket_bytes: 8 + spec.item_bytes,
            rng: SimRng::seed(spec.seed ^ 0xA5A5).fork(stream),
            zipf: Zipfian::new(spec.items, spec.zipf_theta),
            shadow: vec![None; buckets as usize],
            inserted: Vec::new(),
            version: 0,
        }
    }

    fn payload_words(&self) -> u64 {
        self.spec.item_bytes / 8
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

    fn write_word(&mut self, sys: &mut System, core: CoreId, bucket: u64, field: u64) {
        self.version += 1;
        let v = self.version.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        sys.store_u64(core, self.bucket_addr(bucket).offset(8 + field * 8), v);
        self.shadow[bucket as usize]
            .as_mut()
            .expect("bucket occupied")
            .words[field as usize] = v;
    }
}

impl TxWorkload for PHashmap {
    fn name(&self) -> &'static str {
        "hashmap"
    }

    fn setup(&mut self, sys: &mut System, _core: CoreId) {
        self.base = sys.alloc(self.buckets * self.bucket_bytes);
        for i in 0..self.spec.items / 2 {
            let key = i * 2 + 1; // nonzero keys
            let mut b = self.hash(key);
            while self.shadow[b as usize].is_some() {
                b = (b + 1) & (self.buckets - 1);
            }
            sys.write_initial(self.bucket_addr(b), &key.to_le_bytes());
            let mut words = Vec::with_capacity(self.payload_words() as usize);
            for field in 0..self.payload_words() {
                let v = key.wrapping_mul(field + 1);
                sys.write_initial(self.bucket_addr(b).offset(8 + field * 8), &v.to_le_bytes());
                words.push(v);
            }
            self.shadow[b as usize] = Some(ShadowBucket { key, words });
            self.inserted.push(b);
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
                let bucket = self.inserted[rank as usize];
                // Locate the entry through a (timed) probe, like a real
                // lookup-then-update would.
                let key = self.shadow[bucket as usize].as_ref().expect("occupied").key;
                let (probed, present) = self.probe(sys, core, key);
                debug_assert!(present && probed == bucket);
                let fields = self.payload_words();
                let f = self.rng.below(fields.saturating_sub(1).max(1));
                self.write_word(sys, core, bucket, f);
                self.write_word(sys, core, bucket, (f + 1).min(fields - 1));
            }
        } else {
            // Insert: key word + up to seven payload words.
            let key = self.rng.next_u64() | 1;
            let (b, present) = self.probe(sys, core, key);
            sys.store_u64(core, self.bucket_addr(b), key);
            if !present {
                self.shadow[b as usize] = Some(ShadowBucket {
                    key,
                    words: vec![0; self.payload_words() as usize],
                });
                self.inserted.push(b);
            } else {
                self.shadow[b as usize].as_mut().expect("present").key = key;
            }
            for field in 0..self.payload_words().min(7) {
                self.write_word(sys, core, b, field);
            }
        }
        sys.tx_end(core, tx);
    }

    fn verify(&self, sys: &System) -> usize {
        let mut bad = 0;
        for (b, entry) in self.shadow.iter().enumerate() {
            let Some(entry) = entry else { continue };
            let addr = self.bucket_addr(b as u64);
            if sys.peek_u64(addr) != entry.key {
                bad += 1;
                continue;
            }
            for (field, want) in entry.words.iter().enumerate() {
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
    use simcore::SimConfig;

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

    #[test]
    fn verify_counts_one_corrupt_word() {
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
        for _ in 0..100 {
            w.run_tx(&mut s, CoreId(0));
        }
        let bucket = w.inserted[0];
        let want = w.shadow[bucket as usize].as_ref().expect("occupied").words[0];
        s.write_initial(w.bucket_addr(bucket).offset(8), &(!want).to_le_bytes());
        assert_eq!(w.verify(&s), 1);
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
