//! Extension experiment (§III-I): multi-controller HOOP scaling.
//!
//! Compares single-controller HOOP against 2- and 4-controller HOOP with
//! two-phase commit on every workload: 2PC adds commit-path messages, while
//! extra controllers spread slice traffic. The paper sketches the protocol
//! but does not evaluate it — this harness fills that gap.
//!
//! Runs the (workload × engine) grid on worker threads (`--jobs N`) and
//! exports `results/ext_multi.json` alongside the CSV.

use hoop_bench::experiments::{write_csv, MATRIX, TPCC};
use hoop_bench::runner::{Cell, ExperimentPlan};
use hoop_bench::RunnerOptions;
use simcore::config::SimConfig;

fn main() {
    let opts = RunnerOptions::from_args();
    let sim = SimConfig::default();
    let engines = ["HOOP", "HOOP-MC2", "HOOP-MC4"];
    let configs = [MATRIX[0], MATRIX[2], MATRIX[10], TPCC];

    let cells = configs
        .into_iter()
        .flat_map(|wcfg| engines.map(|engine| Cell::new(engine, wcfg, sim, opts.scale)))
        .collect();
    let plan = ExperimentPlan::from_cells("ext_multi", cells, opts.scale);
    let results = plan.run(&opts);
    plan.write_json(&results);

    println!("== Extension: multi-controller HOOP (2PC) ==");
    print!("{:<12}", "workload");
    for e in engines {
        print!("{e:>14}{:>12}", "lat");
    }
    println!("   (tx/ms, cycles)");
    let mut rows = Vec::new();
    for (wcfg, row_cells) in configs.iter().zip(results.chunks(engines.len())) {
        print!("{:<12}", wcfg.label);
        let mut row = wcfg.label.to_string();
        for cell in row_cells {
            let r = &cell.report;
            print!("{:>14.1}{:>12.0}", r.throughput_tx_per_ms, r.avg_tx_latency);
            row += &format!(",{:.3},{:.1}", r.throughput_tx_per_ms, r.avg_tx_latency);
        }
        println!();
        rows.push(row);
    }
    write_csv(
        "ext_multi_controller",
        "workload,hoop_tx_ms,hoop_lat,mc2_tx_ms,mc2_lat,mc4_tx_ms,mc4_lat",
        &rows,
    );
    println!("\n2PC costs two interconnect rounds plus a prepare record per");
    println!("participant; single-controller HOOP commits with one flush. The");
    println!("gap between the columns is the price of distributed durability.");
}
