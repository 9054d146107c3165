//! Micro-benchmarks of the simulator's hot paths — the host-side cost of
//! the controller data structures (slice codec and its CRC, mapping table,
//! skip list, eviction buffer, Zipfian generator) plus the per-access
//! substrate every engine shares (persistent store reads/writes,
//! cache-hierarchy access).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use engines::skiplist::SkipList;
use hoop::evict_buffer::EvictionBuffer;
use hoop::mapping::MappingTable;
use hoop::slice::{DataSlice, WordUpdate};
use memhier::Hierarchy;
use nvm::PersistentStore;
use simcore::addr::Line;
use simcore::config::SimConfig;
use simcore::zipf::Zipfian;
use simcore::{CoreId, PAddr, SimRng};

fn slice_codec(c: &mut Criterion) {
    let slice = DataSlice {
        words: (0..8)
            .map(|i| WordUpdate {
                home: PAddr(i * 8 + 0x10_0000),
                value: i * 0x1234_5678,
            })
            .collect(),
        link: 77,
        tx: 42,
        start: true,
        commit: true,
    };
    let encoded = slice.encode();
    c.bench_function("slice_encode", |b| b.iter(|| black_box(&slice).encode()));
    c.bench_function("slice_decode", |b| {
        b.iter(|| DataSlice::decode(black_box(&encoded)).expect("valid"))
    });
}

fn mapping_table(c: &mut Criterion) {
    let mut table = MappingTable::new(1 << 17);
    for i in 0..100_000u64 {
        table.insert(Line(i), (i % 1000) as u32, 0xFF);
    }
    c.bench_function("mapping_lookup_hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % 100_000;
            black_box(table.lookup(Line(i)))
        })
    });
    c.bench_function("mapping_insert_remove", |b| {
        let mut i = 200_000u64;
        b.iter(|| {
            i += 1;
            table.insert(Line(i), 5, 0x01);
            table.remove(Line(i))
        })
    });
}

fn skiplist(c: &mut Criterion) {
    let mut list = SkipList::new();
    for i in 0..100_000u64 {
        list.insert(i * 7919 % 1_000_003);
    }
    // Uncapped walks over 100k distinct keys: the memo almost never holds
    // the key, so this is the walk plus a memo fill.
    c.bench_function("skiplist_visits_100k", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 13) % 100_000;
            black_box(list.visits(i * 7919 % 1_000_003, u64::MAX))
        })
    });
    // The same walks over 256 keys, all memoized up front on an unchanged
    // list: every query is a memo hit.
    for i in 0..256u64 {
        list.visits(i * 7919 % 1_000_003, u64::MAX);
    }
    c.bench_function("skiplist_visits_100k_memo_hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 13) % 256;
            black_box(list.visits(i * 7919 % 1_000_003, u64::MAX))
        })
    });
}

fn skiplist_commits(c: &mut Criterion) {
    // LSM's commit path: one GC period of sorted 8-line commit batches
    // filling the index to about 130k lines (the largest index of the
    // write-hashmap LSM cell), after the previous period's clear.
    let mut rng = SimRng::seed(7);
    let batches: Vec<Vec<u64>> = (0..130_000 / 8)
        .map(|_| {
            let mut batch: Vec<u64> = (0..8).map(|_| rng.below(1 << 22)).collect();
            batch.sort_unstable();
            batch.dedup();
            batch
        })
        .collect();
    let mut list = SkipList::new();
    c.bench_function("skiplist_insert_sorted_batch_130k", |b| {
        b.iter(|| {
            list.clear();
            for batch in &batches {
                list.insert_sorted_batch(batch);
            }
            black_box(list.len())
        })
    });
}

fn crc(c: &mut Criterion) {
    // Every slice seal and verify hashes the first 112 bytes of a slice.
    let buf: Vec<u8> = (0..112u32).map(|i| (i * 37 + 11) as u8).collect();
    c.bench_function("crc32c_112", |b| {
        b.iter(|| simcore::crc::crc32c(black_box(&buf)))
    });
}

fn eviction_buffer(c: &mut Criterion) {
    let mut buf = EvictionBuffer::new(1820);
    c.bench_function("evict_buffer_insert_get", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            buf.insert(Line(i), [0xAB; 64]);
            black_box(buf.get(Line(i.saturating_sub(100))).copied())
        })
    });
}

fn zipfian(c: &mut Criterion) {
    let z = Zipfian::ycsb(1 << 20);
    let mut rng = SimRng::seed(1);
    c.bench_function("zipfian_draw", |b| {
        b.iter(|| black_box(z.next_scrambled(&mut rng)))
    });
}

fn persistent_store(c: &mut Criterion) {
    let mut store = PersistentStore::new();
    // A few MB of populated pages so reads hit real data paths.
    for i in 0..(1u64 << 16) {
        store.write_u64(PAddr(0x10_0000 + i * 8), i);
    }
    c.bench_function("store_read_u64_sequential", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 8) & 0x7_FFF8;
            black_box(store.read_u64(PAddr(0x10_0000 + i)))
        })
    });
    c.bench_function("store_read_line_strided", |b| {
        let mut buf = [0u8; 64];
        let mut i = 0u64;
        b.iter(|| {
            // Stride past the last-page cache to exercise the page probe.
            i = (i + 4096 + 64) & 0x7_FFC0;
            store.read_bytes(PAddr(0x10_0000 + i), &mut buf);
            black_box(buf[0])
        })
    });
    c.bench_function("store_write_line", |b| {
        let buf = [0xCDu8; 64];
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 64) & 0x7_FFC0;
            store.write_bytes(PAddr(0x10_0000 + i), &buf)
        })
    });
}

fn cache_hierarchy(c: &mut Criterion) {
    let cfg = SimConfig::default();
    let mut hier = Hierarchy::new(&cfg);
    // Touch a window larger than L1 so the bench mixes L1 hits with lower
    // levels, like the simulated access stream does.
    for i in 0..4096u64 {
        let _ = hier.access(CoreId(0), Line(i), false, false);
    }
    c.bench_function("hierarchy_access_l1_hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) & 0x3F;
            black_box(hier.access(CoreId(0), Line(4096 + i), false, false).latency)
        })
    });
    c.bench_function("hierarchy_access_working_set", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 587) & 0xFFF;
            black_box(
                hier.access(CoreId(0), Line(i), i.is_multiple_of(4), false)
                    .latency,
            )
        })
    });
    // Eight cores stream over 4 MiB, twice the LLC: every access misses,
    // evicts an LLC line another core filled, and back-invalidates it.
    let mut hier = Hierarchy::new(&cfg);
    let stream = |hier: &mut Hierarchy, i: u64| {
        let line = Line(i & 0xFFFF);
        hier.access(CoreId((i % 8) as u8), line, i.is_multiple_of(4), false)
    };
    for i in 0..0x1_0000u64 {
        let _ = stream(&mut hier, i);
    }
    c.bench_function("hierarchy_access_llc_miss_8core", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(stream(&mut hier, i).evicted)
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = slice_codec,
    mapping_table,
    skiplist,
    skiplist_commits,
    crc,
    eviction_buffer,
    zipfian,
    persistent_store,
    cache_hierarchy
);
criterion_main!(benches);
