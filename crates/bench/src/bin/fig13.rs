//! Figure 13: YCSB throughput under HOOP as the mapping-table size sweeps.
//!
//! Paper shape (§IV-H): small tables force frequent on-demand GC (no space
//! to index out-of-place updates), throughput rises with table size and
//! plateaus around 2 MB, where the periodic 10 ms GC becomes the limiter.
//!
//! The sweep uses a keyspace scaled so a GC window's distinct lines press
//! on the smaller table sizes, mirroring how the paper's full-size run
//! presses on 512 KB-2 MB tables (see EXPERIMENTS.md).
//!
//! Runs the sweep on worker threads (`--jobs N`) and exports
//! `results/fig13.json` alongside the CSV.

use hoop_bench::experiments::{write_csv, Scale, MATRIX};
use hoop_bench::runner::{Cell, ExperimentPlan};
use hoop_bench::RunnerOptions;
use simcore::config::SimConfig;

fn main() {
    let opts = RunnerOptions::from_args();
    let scale = opts.scale;
    let ycsb = MATRIX[11]; // ycsb-1KB
    let sizes_kb: &[u64] = match scale {
        Scale::Quick => &[64, 256, 2048],
        Scale::Full => &[128, 256, 512, 1024, 2048, 4096, 8192],
    };

    let cells = sizes_kb
        .iter()
        .map(|&kb| {
            let mut cfg = SimConfig::default();
            cfg.hoop.mapping_table_bytes = kb * 1024;
            Cell::new("HOOP", ycsb, cfg, scale).with_param("mapping_kb", kb as f64)
        })
        .collect();
    let plan = ExperimentPlan::from_cells("fig13", cells, scale);
    let results = plan.run(&opts);
    plan.write_json(&results);

    println!("== Fig 13: YCSB-1KB throughput vs mapping-table size ==");
    let mut rows = Vec::new();
    for (kb, cell) in sizes_kb.iter().zip(&results) {
        let r = &cell.report;
        println!(
            "  {kb:>5} KB: {:>9.1} tx/ms  (on-demand GC stalls: {} kcycles)",
            r.throughput_tx_per_ms,
            r.ondemand_gc_stall_cycles / 1000
        );
        rows.push(format!(
            "{kb},{:.3},{}",
            r.throughput_tx_per_ms, r.ondemand_gc_stall_cycles
        ));
    }
    write_csv(
        "fig13_mapping_table",
        "mapping_kb,tx_per_ms,ondemand_stall_cycles",
        &rows,
    );
}
