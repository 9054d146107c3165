//! Figures 7–9 from one run of the engine × workload matrix:
//!
//! - Fig. 7a: transaction throughput (higher is better), normalized to
//!   Opt-Redo;
//! - Fig. 7b: critical-path latency (lower is better), normalized to the
//!   native Ideal system;
//! - Fig. 8: NVM write traffic per transaction, normalized to Ideal;
//! - Fig. 9: NVM energy per transaction, normalized to Ideal.
//!
//! Paper headline numbers:
//!
//! - §IV-B/C: HOOP improves throughput by 74.3 %, 45.1 %, 33.8 %, 27.9 %
//!   and 24.3 % over Opt-Redo, Opt-Undo, OSP, LSM and LAD, delivers 20.6 %
//!   less throughput than Ideal, and its critical-path latency is 24.1 %
//!   above native while 45.1/52.8/44.3/60.5/21.6 % below the baselines.
//! - §IV-D: Opt-Redo and Opt-Undo write 2.1x and 1.9x more than HOOP; OSP,
//!   LSM and LAD write 21.2 %, 12.5 % and 11.6 % more on average.
//! - §IV-E: HOOP reduces energy by 37.6 %, 29.6 % and 10.8 % versus OSP,
//!   LSM and LAD (and far more versus the logging schemes), even though
//!   parallel reads and GC add read operations — because PCM array writes
//!   (16.82 pJ/bit) dwarf reads (2.47 pJ/bit).
//!
//! Runs the matrix on worker threads (`--jobs N`) and exports
//! `results/fig7.json` alongside the four CSVs.

use hoop_bench::experiments::{geomean_ratio, print_normalized, write_csv};
use hoop_bench::runner::ExperimentPlan;
use hoop_bench::RunnerOptions;
use simcore::config::SimConfig;
use workloads::driver::{RunReport, ENGINES};

/// Prints each engine's measured geomean `ratio` next to the paper's.
fn vs_paper(title: &str, paper: &[(&str, f64)], ratio: impl Fn(&str) -> f64) {
    println!("\n== {title} (geomean) vs paper ==");
    for &(engine, target) in paper {
        let got = ratio(engine);
        println!("  {engine:<9} measured x{got:.2}   paper x{target:.2}");
    }
}

fn main() {
    let opts = RunnerOptions::from_args();
    let plan = ExperimentPlan::matrix("fig7", SimConfig::default(), opts.scale);
    let cells = plan.run(&opts);
    plan.write_json(&cells);
    let reports: Vec<_> = cells.into_iter().map(|c| c.report).collect();

    let table = |title, baseline, csv, f: fn(&RunReport) -> f64| {
        let head = format!("workload,{}", ENGINES.join(","));
        write_csv(csv, &head, &print_normalized(title, &reports, baseline, f));
    };
    table(
        "Fig 7a: transaction throughput",
        "Opt-Redo",
        "fig7a_throughput",
        |r| r.throughput_tx_per_ms,
    );
    table(
        "Fig 7b: critical-path latency",
        "Ideal",
        "fig7b_latency",
        |r| r.avg_tx_latency,
    );
    table(
        "Fig 8: write traffic per transaction",
        "Ideal",
        "fig8_write_traffic",
        |r| r.write_bytes_per_tx,
    );
    table(
        "Fig 9: NVM energy per transaction",
        "Ideal",
        "fig9_energy",
        |r| r.energy_pj_per_tx,
    );

    vs_paper(
        "HOOP throughput over each engine",
        &[
            ("Opt-Redo", 1.743),
            ("Opt-Undo", 1.451),
            ("OSP", 1.338),
            ("LSM", 1.279),
            ("LAD", 1.243),
            ("Ideal", 0.794),
        ],
        |e| geomean_ratio(&reports, "HOOP", e, |r| r.throughput_tx_per_ms),
    );
    vs_paper(
        "HOOP latency over each engine",
        &[
            ("Opt-Redo", 0.549),
            ("Opt-Undo", 0.472),
            ("OSP", 0.557),
            ("LSM", 0.395),
            ("LAD", 0.784),
            ("Ideal", 1.241),
        ],
        |e| geomean_ratio(&reports, "HOOP", e, |r| r.avg_tx_latency),
    );
    vs_paper(
        "Write traffic of each engine over HOOP",
        &[
            ("Opt-Redo", 2.1),
            ("Opt-Undo", 1.9),
            ("OSP", 1.212),
            ("LSM", 1.125),
            ("LAD", 1.116),
        ],
        |e| geomean_ratio(&reports, e, "HOOP", |r| r.write_bytes_per_tx),
    );
    vs_paper(
        "Energy of each engine over HOOP",
        &[("OSP", 1.603), ("LSM", 1.420), ("LAD", 1.121)],
        |e| geomean_ratio(&reports, e, "HOOP", |r| r.energy_pj_per_tx),
    );

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
