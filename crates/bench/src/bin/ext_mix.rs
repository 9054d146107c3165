//! Extension experiment: read/update mix sweep (crossover analysis).
//!
//! HOOP's advantage comes from cheap durable writes; its cost is the
//! redirected-read path. Sweeping YCSB's update fraction from read-only to
//! write-only shows where each engine's regime begins — the crossovers the
//! shape-reproduction cares about.
//!
//! Runs the (fraction × engine) grid on worker threads (`--jobs N`) and
//! exports `results/ext_mix.json` alongside the CSV.

use hoop_bench::experiments::{spec_for, write_csv, Scale, MATRIX};
use hoop_bench::runner::{Cell, ExperimentPlan};
use hoop_bench::RunnerOptions;
use simcore::config::SimConfig;
use workloads::driver::{Window, ENGINES};

fn main() {
    let opts = RunnerOptions::from_args();
    let sim = SimConfig::default();
    let scale = opts.scale;
    let ycsb = MATRIX[10]; // ycsb-512B
    let fractions: &[f64] = match scale {
        Scale::Quick => &[0.2, 0.8],
        Scale::Full => &[0.0, 0.2, 0.5, 0.8, 0.95],
    };
    let txs = match scale {
        Scale::Quick => 2_000,
        Scale::Full => 30_000,
    };

    let cells = fractions
        .iter()
        .flat_map(|&f| {
            let mut spec = spec_for(ycsb, scale);
            spec.update_fraction = f;
            ENGINES.map(|engine| {
                Cell {
                    spec,
                    window: Window::new(txs / 10, txs),
                    // One trace row per mix: the rows differ in their spec.
                    trace: format!("ext_mix-{}-{f}", ycsb.label),
                    ..Cell::new(engine, ycsb, sim, scale)
                }
                .with_param("update_fraction", f)
            })
        })
        .collect();
    let plan = ExperimentPlan::from_cells("ext_mix", cells, scale);
    let results = plan.run(&opts);
    plan.write_json(&results);

    println!("== Extension: YCSB update-fraction sweep (tx/ms) ==");
    print!("{:<10}", "upd_frac");
    for e in ENGINES {
        print!("{e:>11}");
    }
    println!();
    let mut rows = Vec::new();
    for (f, row_cells) in fractions.iter().zip(results.chunks(ENGINES.len())) {
        print!("{f:<10}");
        let mut row = format!("{f}");
        for cell in row_cells {
            let tput = cell.report.throughput_tx_per_ms;
            print!("{tput:>11.1}");
            row += &format!(",{tput:.3}");
        }
        println!();
        rows.push(row);
    }
    write_csv(
        "ext_mix_sweep",
        &format!("update_fraction,{}", ENGINES.join(",")),
        &rows,
    );
    println!("\nAt low update fractions every persistence engine converges on");
    println!("Ideal (reads dominate, except LSM's software translation); as");
    println!("writes grow, commit cost and write traffic pull them apart.");
}
