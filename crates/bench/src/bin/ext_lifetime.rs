//! Extension experiment: NVM lifetime under each crash-consistency scheme.
//!
//! The paper motivates write-traffic reduction with NVM endurance (§I:
//! extra writes "hurt NVM lifetime"; its refs \[43],\[44]). This harness
//! tracks per-line write counts on the device, runs the same workload under
//! every engine, and reports total line writes, wear skew (hottest line vs
//! mean), and the relative lifetime — `endurance / hottest-line writes` —
//! normalized to HOOP. It also reports the Start-Gap leveling overhead that
//! would be needed to flatten each engine's skew.
//!
//! Always runs with `--endurance` on; runs the engines on worker threads
//! (`--jobs N`) and exports `results/ext_lifetime.json` alongside the CSV.

use hoop_bench::experiments::{spec_for, write_csv, Scale, MATRIX};
use hoop_bench::runner::{Cell, ExperimentPlan};
use hoop_bench::RunnerOptions;
use nvm::wearlevel::GAP_MOVE_RATE;
use simcore::config::SimConfig;
use workloads::driver::{Window, ENGINES};

fn main() {
    let mut opts = RunnerOptions::from_args();
    opts.endurance = true;
    let sim = SimConfig::default();
    let scale = opts.scale;
    let wcfg = MATRIX[2]; // hashmap-64B: the paper's canonical fine-grained updater
    let txs = match scale {
        Scale::Quick => 2_000,
        Scale::Full => 40_000,
    };

    let cells = ENGINES
        .map(|engine| Cell {
            spec: spec_for(wcfg, scale),
            window: Window::new(200, txs),
            trace: format!("ext_lifetime-{}", wcfg.label),
            ..Cell::new(engine, wcfg, sim, scale)
        })
        .to_vec();
    let plan = ExperimentPlan::from_cells("ext_lifetime", cells, scale);
    let results = plan.run(&opts);
    plan.write_json(&results);
    let wear: Vec<_> = results
        .iter()
        .map(|r| (r.engine, r.endurance.as_ref().expect("endurance tracked")))
        .collect();

    println!(
        "== Extension: NVM lifetime ({} / {} txs) ==",
        wcfg.label, txs
    );
    println!(
        "{:<10}{:>14}{:>12}{:>10}{:>16}",
        "engine", "line writes", "hottest", "skew", "lifetime vs HOOP"
    );
    let hoop_max = wear
        .iter()
        .find(|(n, _)| *n == "HOOP")
        .expect("HOOP ran")
        .1
        .max_line_writes as f64;
    let mut rows = Vec::new();
    for (engine, e) in &wear {
        let lifetime = hoop_max / e.max_line_writes.max(1) as f64;
        println!(
            "{:<10}{:>14}{:>12}{:>10.2}{:>16.2}",
            engine, e.total_line_writes, e.max_line_writes, e.skew, lifetime
        );
        rows.push(format!(
            "{engine},{},{},{:.4},{:.4}",
            e.total_line_writes, e.max_line_writes, e.skew, lifetime
        ));
    }
    write_csv(
        "ext_lifetime",
        "engine,total_line_writes,hottest_line,skew,lifetime_vs_hoop",
        &rows,
    );
    println!(
        "\nStart-Gap leveling would flatten each skew at ~{:.1} % extra writes",
        100.0 / GAP_MOVE_RATE as f64
    );
    println!("(nvm::wearlevel implements it; see its unit tests for the rotation proof).");
}
