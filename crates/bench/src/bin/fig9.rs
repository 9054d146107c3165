//! Figure 9: NVM energy consumption per transaction, normalized to the
//! native Ideal system (lower is better).
//!
//! Paper headline numbers (§IV-E): HOOP reduces energy by 37.6 %, 29.6 %
//! and 10.8 % versus OSP, LSM and LAD (and far more versus the logging
//! schemes), even though parallel reads and GC add read operations —
//! because PCM array writes (16.82 pJ/bit) dwarf reads (2.47 pJ/bit).
//!
//! Runs the engine × workload grid on worker threads (`--jobs N`) and
//! exports `results/fig9.json` alongside the CSV.

use hoop_bench::experiments::{geomean_ratio, print_normalized, write_csv};
use hoop_bench::runner::ExperimentPlan;
use hoop_bench::RunnerOptions;
use simcore::config::SimConfig;
use workloads::driver::ENGINES;

fn main() {
    let opts = RunnerOptions::from_args();
    let plan = ExperimentPlan::matrix("fig9", SimConfig::default(), opts.scale);
    let cells = plan.run(&opts);
    plan.write_json(&cells);
    let reports: Vec<_> = cells.into_iter().map(|c| c.report).collect();

    let head = format!("workload,{}", ENGINES.join(","));
    let rows = print_normalized(
        "Fig 9: NVM energy per transaction",
        &reports,
        "Ideal",
        |r| r.energy_pj_per_tx,
        false,
    );
    write_csv("fig9_energy", &head, &rows);

    println!("\n== energy vs HOOP (geomean) vs paper ==");
    let paper = [("OSP", 1.603), ("LSM", 1.420), ("LAD", 1.121)];
    for (engine, target) in paper {
        let got = geomean_ratio(&reports, engine, "HOOP", |r| r.energy_pj_per_tx);
        println!("  {engine:<9} measured x{got:.2}   paper x{target:.2}");
    }
}
