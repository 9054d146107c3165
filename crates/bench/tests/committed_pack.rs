//! Tests against the committed quick-scale trace pack (`traces/quick/`).
//!
//! The pack is a first-class artifact: every workload row of the quick grid
//! has a committed trace, and replaying one must reproduce a live run
//! bit-for-bit on **every** engine. CI additionally proves the full-grid
//! equality (`--replay` vs live `cmp` of fig7/table4 JSON) and pack
//! currency (`xtask trace` + `git diff`); these tests keep the contract
//! under plain `cargo test` with a small window so they stay debug-fast.

use std::path::PathBuf;

use hoop_bench::experiments::{spec_for, Scale, MATRIX, TPCC};
use hoop_bench::runner::{derive_workload_seed, trace_path};
use hoop_bench::tracepack::{table4_label, QUICK_PACK_DIR, TABLE4_CONFIGS};
use simcore::config::SimConfig;
use trace::{replay_cell, ReplayWindow, TraceReader};
use workloads::driver::{build_system, Driver, ENGINES};

fn pack_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(QUICK_PACK_DIR)
}

#[test]
fn committed_pack_is_complete() {
    let dir = pack_dir();
    for wcfg in MATRIX.into_iter().chain([TPCC]) {
        let path = trace_path(&dir, wcfg.label);
        assert!(
            path.is_file(),
            "missing {} — regenerate with `cargo run -p xtask -- trace`",
            path.display()
        );
    }
    for wcfg in TABLE4_CONFIGS {
        let path = trace_path(&dir, &table4_label(wcfg));
        assert!(
            path.is_file(),
            "missing {} — regenerate with `cargo run -p xtask -- trace`",
            path.display()
        );
    }
}

/// Replaying the committed trace must yield the same per-engine stats
/// digest as live generation, for every engine of the row. Uses a short
/// window (the committed streams are deeper) so the cross-engine sweep
/// stays fast in debug builds.
#[test]
fn committed_trace_replays_identically_on_every_engine() {
    let wcfg = MATRIX[0]; // vector-64B: the smallest committed trace
    let dir = pack_dir();
    let tf = TraceReader::read(&trace_path(&dir, wcfg.label))
        .expect("committed trace reads (regenerate with `cargo run -p xtask -- trace`)");

    let mut spec = spec_for(wcfg, Scale::Quick);
    spec.seed = derive_workload_seed(wcfg.label);
    assert_eq!(
        tf.header.spec, spec,
        "committed trace is stale — regenerate with `cargo run -p xtask -- trace`"
    );

    let sim = SimConfig::default();
    let (warmup, measured) = (10, 60);
    for engine in ENGINES {
        let mut sys = build_system(engine, &sim);
        let mut driver = Driver::new(spec, &sim);
        driver.setup(&mut sys);
        let live = driver.run_until(&mut sys, warmup, measured, 0);

        let (replayed, _) = replay_cell(
            &tf,
            engine,
            &sim,
            ReplayWindow {
                warmup,
                measured,
                min_cycles: 0,
            },
            false,
        );

        assert_eq!(live.txs, replayed.txs, "{engine}: txs");
        assert_eq!(live.cycles, replayed.cycles, "{engine}: cycles");
        assert_eq!(
            live.avg_tx_latency, replayed.avg_tx_latency,
            "{engine}: latency"
        );
        assert_eq!(
            live.write_bytes_per_tx, replayed.write_bytes_per_tx,
            "{engine}: write bytes"
        );
        assert_eq!(
            live.engine_stats.committed_txs.get(),
            replayed.engine_stats.committed_txs.get(),
            "{engine}: committed"
        );
        assert_eq!(
            live.engine_stats.gc_bytes_in.get(),
            replayed.engine_stats.gc_bytes_in.get(),
            "{engine}: gc bytes"
        );
        assert_eq!(
            live.hier_stats.accesses.get(),
            replayed.hier_stats.accesses.get(),
            "{engine}: hierarchy accesses"
        );
    }
}

/// The encoder is canonical over the committed pack: every file decodes and
/// re-encodes to exactly its bytes.
#[test]
fn committed_pack_reencodes_byte_identically() {
    let mut files: Vec<PathBuf> = std::fs::read_dir(pack_dir())
        .expect("committed pack directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "trace"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no traces in the committed pack");
    for path in files {
        let bytes = std::fs::read(&path).expect("committed trace reads");
        let tf = TraceReader::decode(&bytes).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            tf.encode() == bytes,
            "{} does not re-encode to its own bytes",
            path.display()
        );
    }
}
