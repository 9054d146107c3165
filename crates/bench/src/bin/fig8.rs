//! Figure 8: write traffic to NVM per transaction, normalized to the
//! native Ideal system (lower is better).
//!
//! Paper headline numbers (§IV-D): Opt-Redo and Opt-Undo write 2.1x and
//! 1.9x more than HOOP; OSP, LSM and LAD write 21.2 %, 12.5 % and 11.6 %
//! more on average.
//!
//! Runs the engine × workload grid on worker threads (`--jobs N`) and
//! exports `results/fig8.json` alongside the CSV.

use hoop_bench::experiments::{geomean_ratio, print_normalized, write_csv};
use hoop_bench::runner::ExperimentPlan;
use hoop_bench::RunnerOptions;
use simcore::config::SimConfig;
use workloads::driver::ENGINES;

fn main() {
    let opts = RunnerOptions::from_args();
    let plan = ExperimentPlan::matrix("fig8", SimConfig::default(), opts.scale);
    let cells = plan.run(&opts);
    plan.write_json(&cells);
    let reports: Vec<_> = cells.into_iter().map(|c| c.report).collect();

    let head = format!("workload,{}", ENGINES.join(","));
    let rows = print_normalized(
        "Fig 8: write traffic per transaction",
        &reports,
        "Ideal",
        |r| r.write_bytes_per_tx,
        false,
    );
    write_csv("fig8_write_traffic", &head, &rows);

    println!("\n== write traffic vs HOOP (geomean) vs paper ==");
    let paper = [
        ("Opt-Redo", 2.1),
        ("Opt-Undo", 1.9),
        ("OSP", 1.212),
        ("LSM", 1.125),
        ("LAD", 1.116),
    ];
    for (engine, target) in paper {
        let got = geomean_ratio(&reports, engine, "HOOP", |r| r.write_bytes_per_tx);
        println!("  {engine:<9} measured x{got:.2}   paper x{target:.2}");
    }
}
