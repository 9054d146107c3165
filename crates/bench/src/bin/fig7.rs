//! Figure 7: transaction throughput (7a, higher is better, normalized to
//! Opt-Redo) and critical-path latency (7b, lower is better, normalized to
//! the native Ideal system) for the full workload matrix.
//!
//! Paper headline numbers (§IV-B/C): HOOP improves throughput by 74.3 %,
//! 45.1 %, 33.8 %, 27.9 % and 24.3 % over Opt-Redo, Opt-Undo, OSP, LSM and
//! LAD, delivers 20.6 % less throughput than Ideal, and its critical-path
//! latency is 24.1 % above native while 45.1/52.8/44.3/60.5/21.6 % below
//! the baselines.
//!
//! Runs the engine × workload grid on worker threads (`--jobs N`) and
//! exports `results/fig7.json` alongside the CSVs.

use hoop_bench::experiments::{geomean_ratio, print_normalized, write_csv};
use hoop_bench::runner::ExperimentPlan;
use hoop_bench::RunnerOptions;
use simcore::config::SimConfig;
use workloads::driver::ENGINES;

fn main() {
    let opts = RunnerOptions::from_args();
    let plan = ExperimentPlan::matrix("fig7", SimConfig::default(), opts.scale);
    let cells = plan.run(&opts);
    plan.write_json(&cells);
    let reports: Vec<_> = cells.into_iter().map(|c| c.report).collect();

    let head = format!("workload,{}", ENGINES.join(","));
    let rows = print_normalized(
        "Fig 7a: transaction throughput",
        &reports,
        "Opt-Redo",
        |r| r.throughput_tx_per_ms,
        false,
    );
    write_csv("fig7a_throughput", &head, &rows);

    let rows = print_normalized(
        "Fig 7b: critical-path latency",
        &reports,
        "Ideal",
        |r| r.avg_tx_latency,
        false,
    );
    write_csv("fig7b_latency", &head, &rows);

    println!("\n== HOOP throughput improvement (geomean) vs paper ==");
    let paper = [
        ("Opt-Redo", 1.743),
        ("Opt-Undo", 1.451),
        ("OSP", 1.338),
        ("LSM", 1.279),
        ("LAD", 1.243),
        ("Ideal", 0.794),
    ];
    for (engine, target) in paper {
        let got = geomean_ratio(&reports, "HOOP", engine, |r| r.throughput_tx_per_ms);
        println!("  vs {engine:<9} measured x{got:.2}   paper x{target:.2}");
    }

    println!("\n== HOOP latency reduction (geomean) vs paper ==");
    let paper = [
        ("Opt-Redo", 0.549),
        ("Opt-Undo", 0.472),
        ("OSP", 0.557),
        ("LSM", 0.395),
        ("LAD", 0.784),
        ("Ideal", 1.241),
    ];
    for (engine, target) in paper {
        let got = geomean_ratio(&reports, "HOOP", engine, |r| r.avg_tx_latency);
        println!("  vs {engine:<9} measured x{got:.2}   paper x{target:.2}");
    }

    // §IV-C profile: loads per LLC miss and parallel-read probability.
    let hoop: Vec<_> = reports.iter().filter(|r| r.engine == "HOOP").collect();
    let lpm: f64 = hoop.iter().map(|r| r.loads_per_miss).sum::<f64>() / hoop.len() as f64;
    let prf: f64 = hoop.iter().map(|r| r.parallel_read_fraction).sum::<f64>() / hoop.len() as f64;
    let mr: f64 = hoop.iter().map(|r| r.llc_miss_ratio).sum::<f64>() / hoop.len() as f64;
    println!("\n== §IV-C HOOP read-path profile ==");
    println!("  loads per LLC miss     measured {lpm:.2}   paper 1.28");
    println!("  parallel-read fraction measured {prf:.3}   paper 0.034 (of misses: 0.283)");
    println!("  LLC miss ratio         measured {mr:.3}   paper 0.121");
}
