//! Persistent vector workload (Table III: 8 stores/tx, 100 % writes).
//!
//! A fixed-capacity array of items in the home region. Each transaction
//! either appends a new item or updates Zipfian-chosen fields of existing
//! items, issuing exactly eight 8-byte stores — the paper's
//! fine-granularity update pattern (§III-C) that HOOP's word packing is
//! built for.

use engines::system::System;
use simcore::zipf::Zipfian;
use simcore::{CoreId, PAddr, SimRng};

use crate::spec::WorkloadSpec;
use crate::TxWorkload;

/// Number of 8-byte stores per transaction (Table III).
pub const STORES_PER_TX: usize = 8;

/// The persistent-vector benchmark.
#[derive(Debug)]
pub struct PVector {
    spec: WorkloadSpec,
    base: PAddr,
    len: u64,
    rng: SimRng,
    zipf: Zipfian,
    /// Shadow model: expected value of every word of every item.
    shadow: Vec<u64>,
    version: u64,
}

impl PVector {
    /// Creates the workload from its spec (call
    /// [`setup`](TxWorkload::setup) before running transactions).
    pub fn new(spec: WorkloadSpec, stream: u64) -> Self {
        Self::with_zipf(spec, stream, Zipfian::new(spec.items, spec.zipf_theta))
    }

    /// [`new`](PVector::new) with the spec's item-popularity generator
    /// already built.
    pub fn with_zipf(spec: WorkloadSpec, stream: u64, zipf: Zipfian) -> Self {
        let fields = spec.item_bytes / 8;
        PVector {
            spec,
            base: PAddr(0),
            len: 0,
            rng: SimRng::seed(spec.seed).fork(stream),
            zipf,
            shadow: vec![0; (spec.items * fields) as usize],
            version: 1,
        }
    }

    fn fields(&self) -> u64 {
        self.spec.item_bytes / 8
    }

    fn word_addr(&self, item: u64, field: u64) -> PAddr {
        self.base.offset(item * self.spec.item_bytes + field * 8)
    }

    fn next_value(&mut self) -> u64 {
        self.version += 1;
        self.version.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Writes one field inside the current transaction and mirrors it in
    /// the shadow.
    fn store_field(&mut self, sys: &mut System, core: CoreId, item: u64, field: u64) {
        let v = self.next_value();
        let idx = (item * self.fields() + field) as usize;
        sys.store_u64(core, self.word_addr(item, field), v);
        self.shadow[idx] = v;
    }
}

impl TxWorkload for PVector {
    fn name(&self) -> &'static str {
        "vector"
    }

    fn setup(&mut self, sys: &mut System, _core: CoreId) {
        self.base = sys.alloc(self.spec.items * self.spec.item_bytes);
        // Pre-populate half the capacity, like the paper's benchmarks:
        // word `i` of the prefix holds `i + 1`, seeded one item at a time.
        self.len = self.spec.items / 2;
        let fields = self.fields() as usize;
        let mut bytes = Vec::with_capacity(self.spec.item_bytes as usize);
        let prefix = self.shadow.chunks_exact_mut(fields).take(self.len as usize);
        for (item, words) in prefix.enumerate() {
            bytes.clear();
            for (field, v) in words.iter_mut().enumerate() {
                *v = (item * fields + field) as u64 + 1;
                bytes.extend_from_slice(&v.to_le_bytes());
            }
            let addr = self.base.offset(item as u64 * self.spec.item_bytes);
            sys.write_initial(addr, &bytes);
        }
    }

    fn run_tx(&mut self, sys: &mut System, core: CoreId) {
        let tx = sys.tx_begin(core);
        if self.len < self.spec.items && self.rng.chance(0.25) {
            // Insert: initialize the first 8 fields of a fresh item.
            let item = self.len;
            self.len += 1;
            for field in 0..(STORES_PER_TX as u64).min(self.fields()) {
                self.store_field(sys, core, item, field);
            }
        } else {
            // Update: Zipfian item, short contiguous field runs until eight
            // stores are issued (2-4 words per run gives the partial-line
            // update density the paper's traffic analysis assumes).
            let mut left = STORES_PER_TX as u64;
            while left > 0 {
                // Rank-based draw: the Zipfian rank indexes the live items
                // directly, preserving skew over the occupied prefix.
                let item = self.zipf.next(&mut self.rng) % self.len.max(1);
                let run = self.rng.range_inclusive(1, 3).min(left).min(self.fields());
                let start = self.rng.below(self.fields() - run + 1);
                for k in 0..run {
                    self.store_field(sys, core, item, start + k);
                }
                left -= run;
            }
        }
        sys.tx_end(core, tx);
    }

    fn verify(&self, sys: &System) -> usize {
        let fields = self.fields();
        let mut bad = 0;
        for item in 0..self.len {
            for field in 0..fields {
                let want = self.shadow[(item * fields + field) as usize];
                if sys.peek_u64(self.word_addr(item, field)) != want {
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

    fn sys() -> System {
        let cfg = SimConfig::small_for_tests();
        System::new(Box::new(NativeEngine::new(&cfg)), &cfg)
    }

    #[test]
    fn runs_and_verifies() {
        let mut s = sys();
        let mut w = PVector::new(
            WorkloadSpec {
                items: 64,
                ..WorkloadSpec::small(crate::WorkloadKind::Vector)
            },
            0,
        );
        w.setup(&mut s, CoreId(0));
        assert_eq!(w.verify(&s), 0);
        for _ in 0..50 {
            w.run_tx(&mut s, CoreId(0));
        }
        assert_eq!(w.verify(&s), 0);
        assert!(s.engine().stats().committed_txs.get() >= 50);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut s1 = sys();
        let mut s2 = sys();
        let spec = WorkloadSpec {
            items: 32,
            ..WorkloadSpec::small(crate::WorkloadKind::Vector)
        };
        let mut w1 = PVector::new(spec, 3);
        let mut w2 = PVector::new(spec, 3);
        w1.setup(&mut s1, CoreId(0));
        w2.setup(&mut s2, CoreId(0));
        for _ in 0..20 {
            w1.run_tx(&mut s1, CoreId(0));
            w2.run_tx(&mut s2, CoreId(0));
        }
        assert_eq!(s1.global_time(), s2.global_time());
        assert_eq!(w1.shadow, w2.shadow);
    }
}
