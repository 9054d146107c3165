//! Table IV: average data reduction in the GC of HOOP as the number of
//! transactions grows (10^1 .. 10^4).
//!
//! Paper values: ~25 % at 10 txs, ~50 % at 100, ~72 % at 1000, ~83 % at
//! 10^4 — repeated Zipfian updates to the same lines coalesce into a single
//! home write per GC window.
//!
//! Runs the (workload × transaction-count) grid on worker threads
//! (`--jobs N`) and exports `results/table4.json` alongside the CSV.

use hoop_bench::experiments::write_csv;
use hoop_bench::json::Json;
use hoop_bench::runner::{write_results_json, RunnerOptions};
use hoop_bench::tracepack::{table4_counts, table4_plan, TABLE4_CONFIGS};
use simcore::config::SimConfig;

fn main() {
    let opts = RunnerOptions::from_args();
    let scale = opts.scale;
    let configs = TABLE4_CONFIGS;
    let counts = table4_counts(scale);
    let paper = [0.25, 0.51, 0.73, 0.83];

    // Every (txs, workload) measurement is an independent cell, laid out
    // count-major: read the grid back row by row.
    let results = table4_plan(SimConfig::default(), scale).run(&opts);
    let reductions: Vec<f64> = results.iter().map(|r| r.report.gc_reduction).collect();

    println!("== Table IV: GC data-reduction ratio ==");
    print!("{:<9}", "txs");
    for c in configs {
        print!("{:>13}", c.label);
    }
    println!("{:>10}", "paper~");
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for (i, &n) in counts.iter().enumerate() {
        print!("{n:<9}");
        let mut row = n.to_string();
        for (j, c) in configs.iter().enumerate() {
            let red = reductions[i * configs.len() + j];
            print!("{:>12.1}%", red * 100.0);
            row += &format!(",{red:.4}");
            json_rows.push(Json::obj([
                ("txs", Json::UInt(n)),
                ("workload", Json::Str(c.label.to_string())),
                ("gc_reduction", Json::Num(red)),
            ]));
        }
        println!("{:>9.0}%", paper[i.min(3)] * 100.0);
        rows.push(row);
    }
    let head = format!("txs,{}", configs.map(|c| c.label).join(","));
    write_csv("table4_gc_reduction", &head, &rows);

    write_results_json("table4", scale, [("cells", Json::Arr(json_rows))]);
}
