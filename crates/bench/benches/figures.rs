//! Figure-path benchmarks: every paper experiment exercised at reduced
//! scale under Criterion, so `cargo bench` touches the code that
//! regenerates each table and figure (the full-scale harnesses are the
//! `fig*`/`table*` binaries).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use engines::PersistenceEngine as _;
use hoop::engine::HoopEngine;
use hoop::recovery::model_recovery_ms;
use hoop_bench::experiments::{spec_for, Scale, WorkloadConfig, MATRIX, TPCC};
use hoop_bench::runner::{run_cell, Cell, Observers};
use simcore::config::SimConfig;
use simcore::{CoreId, PAddr};
use workloads::driver::{build_system, Driver};

/// Runs one live quick-scale cell of `engine` × `wcfg` on `sim`.
fn quick_cell(engine: &'static str, wcfg: WorkloadConfig, sim: SimConfig) -> f64 {
    let cell = Cell::new(engine, wcfg, sim, Scale::Quick);
    run_cell(&cell, &Observers::default(), None)
        .report
        .throughput_tx_per_ms
}

/// Fig. 7/8/9 path: one engine × workload cell at quick scale.
fn fig7_cells(c: &mut Criterion) {
    let sim = SimConfig::default();
    let mut group = c.benchmark_group("fig7_cell");
    group.sample_size(10);
    for engine in ["HOOP", "Opt-Redo", "LAD"] {
        group.bench_function(engine, |b| {
            b.iter(|| black_box(quick_cell(engine, MATRIX[2], sim)))
        });
    }
    group.finish();
}

/// Table IV path: GC reduction measurement.
fn table4_path(c: &mut Criterion) {
    let sim = SimConfig::default();
    c.bench_function("table4_gc_reduction", |b| {
        b.iter(|| {
            let mut spec = spec_for(MATRIX[0], Scale::Quick);
            spec.items = 256;
            let mut sys = build_system("HOOP", &sim);
            let mut driver = Driver::new(spec, &sim);
            driver.setup(&mut sys);
            black_box(driver.run(&mut sys, 0, 100).gc_reduction)
        })
    });
}

/// Fig. 10 path: one GC pass over a populated region.
fn fig10_gc_pass(c: &mut Criterion) {
    c.bench_function("fig10_gc_pass", |b| {
        b.iter_batched(
            || {
                let cfg = SimConfig::small_for_tests();
                let mut e = HoopEngine::new(&cfg);
                for i in 0..500u64 {
                    let tx = e.tx_begin(CoreId(0), i * 50);
                    e.on_store(CoreId(0), tx, PAddr(i % 64 * 64), &i.to_le_bytes(), i * 50);
                    e.tx_end(CoreId(0), tx, i * 50 + 10);
                }
                e
            },
            |mut e| black_box(e.run_gc(1_000_000)),
            criterion::BatchSize::SmallInput,
        )
    });
}

/// Fig. 11 path: crash recovery (functional parallel scan + model).
fn fig11_recovery(c: &mut Criterion) {
    c.bench_function("fig11_recovery_4threads", |b| {
        b.iter_batched(
            || {
                let cfg = SimConfig::small_for_tests();
                let mut e = HoopEngine::new(&cfg);
                for i in 0..400u64 {
                    let tx = e.tx_begin(CoreId(0), i * 50);
                    e.on_store(CoreId(0), tx, PAddr(i % 32 * 64), &i.to_le_bytes(), i * 50);
                    e.tx_end(CoreId(0), tx, i * 50 + 10);
                }
                e.crash();
                e
            },
            |mut e| black_box(e.recover(4)),
            criterion::BatchSize::SmallInput,
        )
    });
    c.bench_function("fig11_model", |b| {
        b.iter(|| black_box(model_recovery_ms(1 << 30, 64 << 20, 8, 25.0)))
    });
}

/// Fig. 12/13 paths: latency / mapping-table sweeps at quick scale.
fn fig12_fig13_sweeps(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweeps");
    group.sample_size(10);
    group.bench_function("fig12_read_latency_point", |b| {
        let mut cfg = SimConfig::default();
        cfg.nvm.read_ns = 150.0;
        b.iter(|| black_box(quick_cell("HOOP", MATRIX[10], cfg)))
    });
    group.bench_function("fig13_small_mapping_point", |b| {
        let mut cfg = SimConfig::default();
        cfg.hoop.mapping_table_bytes = 128 * 1024;
        b.iter(|| black_box(quick_cell("HOOP", MATRIX[10], cfg)))
    });
    group.bench_function("tpcc_cell", |b| {
        let cfg = SimConfig::default();
        b.iter(|| black_box(quick_cell("HOOP", TPCC, cfg)))
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = fig7_cells, table4_path, fig10_gc_pass, fig11_recovery, fig12_fig13_sweeps
);
criterion_main!(benches);
