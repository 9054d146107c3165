//! Figure 10: GC efficiency — transaction throughput of the five synthetic
//! benchmarks as the GC trigger period sweeps from 2 to 14 ms.
//!
//! Paper shape (§IV-F): short periods GC too eagerly (little coalescing,
//! 6.8-17.8 % more cycles per tx when doubling GC frequency); throughput
//! peaks around 8-10 ms; beyond ~11 ms the reserved OOP region runs out and
//! on-demand GC lands on the critical path.
//!
//! The reserved OOP region is sized so that it holds roughly 11 ms of slice
//! production at the simulated scale — the same proportionality the paper's
//! reserve (10 % of NVM) has to its workload footprint; see EXPERIMENTS.md.
//!
//! Runs the (period × workload) grid on worker threads (`--jobs N`) and
//! exports `results/fig10.json` alongside the CSV.

use hoop_bench::experiments::{spec_for, write_csv, Scale, MATRIX};
use hoop_bench::runner::{run_cell, run_parallel, Cell, ExperimentPlan, Observers};
use hoop_bench::RunnerOptions;
use nvm::TrafficClass;
use simcore::config::SimConfig;

/// The cell that probes `wcfg`'s slice production rate at the default
/// configuration, to size the reserve: HOOP with an unbounded OOP region
/// (pure demand) over the measured cells' window. It runs `spec_for`'s
/// fixed seed, not the row's label-derived one.
fn probe_cell(wcfg: hoop_bench::WorkloadConfig, sim: &SimConfig, scale: Scale) -> Cell {
    let mut cfg = *sim;
    cfg.hoop.oop_region_bytes = 1 << 30; // unbounded: measure pure demand
    cfg.hoop.mapping_table_bytes = 8 * 1024 * 1024;
    Cell {
        spec: spec_for(wcfg, scale),
        ..Cell::new("HOOP", wcfg, cfg, scale)
    }
}

fn main() {
    let opts = RunnerOptions::from_args();
    let sim = SimConfig::default();
    let scale = opts.scale;
    let configs = [MATRIX[0], MATRIX[2], MATRIX[4], MATRIX[6], MATRIX[8]];
    let periods: &[f64] = match scale {
        Scale::Quick => &[2.0, 6.0, 10.0, 14.0],
        Scale::Full => &[2.0, 4.0, 6.0, 8.0, 10.0, 11.0, 12.0, 14.0],
    };

    // Size the reserve per workload for ~11 ms of slice production.
    let budget_ms = 11.5;
    let probes = configs.map(|w| probe_cell(w, &sim, scale));
    // Slice production in bytes per cycle: log-class bytes written over the
    // probe's measured window.
    let rates = run_parallel(&probes, opts.jobs, |cell| {
        let report = run_cell(cell, &Observers::default(), None).report;
        report.traffic.written(TrafficClass::Log) as f64 / report.cycles.max(1) as f64
    });
    let mut cells = Vec::new();
    for &period in periods {
        for (wcfg, rate) in configs.into_iter().zip(&rates) {
            let mut cfg = sim;
            cfg.hoop.gc_period_ms = period;
            let reserve = (rate * simcore::time::ms_to_cycles(budget_ms) as f64) as u64;
            // Block-align (do NOT round to a power of two: that would halve
            // or double the effective budget and scatter the cliff).
            let block = cfg.hoop.oop_block_bytes;
            cfg.hoop.oop_region_bytes = reserve.div_ceil(block).max(8) * block;
            // The mapping table must not be the trigger in this sweep.
            cfg.hoop.mapping_table_bytes = 8 * 1024 * 1024;
            cells.push(Cell::new("HOOP", wcfg, cfg, scale).with_param("gc_period_ms", period));
        }
    }
    let plan = ExperimentPlan::from_cells("fig10", cells, scale);
    let results = plan.run(&opts);
    plan.write_json(&results);

    println!("== Fig 10: throughput (tx/ms) vs GC period ==");
    print!("{:<10}", "period_ms");
    for c in configs {
        print!("{:>13}", c.label);
    }
    println!();
    let mut rows = Vec::new();
    for (&period, row_cells) in periods.iter().zip(results.chunks(configs.len())) {
        print!("{period:<10}");
        let mut row = format!("{period}");
        for r in row_cells {
            print!("{:>13.1}", r.report.throughput_tx_per_ms);
            row += &format!(",{:.3}", r.report.throughput_tx_per_ms);
        }
        println!();
        rows.push(row);
    }
    let head = format!("period_ms,{}", configs.map(|c| c.label).join(","));
    write_csv("fig10_gc_period", &head, &rows);
}
