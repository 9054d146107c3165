//! Shared experiment machinery: the workload matrix of §IV-A, engine
//! sweeps, normalization helpers and CSV output.

use std::fmt::Write as _;
use std::path::Path;

use simcore::config::SimConfig;
use workloads::driver::{RunReport, ENGINES};
use workloads::{WorkloadKind, WorkloadSpec};

/// How big to run an experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// CI-sized: seconds per figure.
    Quick,
    /// Paper-sized shape reproduction (default for the binaries).
    Full,
}

impl Scale {
    /// Parses `--quick` / `--full` style argv.
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// Measured transactions per run.
    pub fn measured(self) -> u64 {
        match self {
            Scale::Quick => 300,
            Scale::Full => 2000,
        }
    }

    /// Warmup transactions per run.
    pub fn warmup(self) -> u64 {
        match self {
            Scale::Quick => 50,
            Scale::Full => 400,
        }
    }

    /// Items per worker structure. Sized so the aggregate working set
    /// exceeds the 2 MB LLC several times over — the paper's footprints do
    /// not fit in cache either (its LLC miss ratio is 12.1 %, §IV-C).
    pub fn items(self) -> u64 {
        match self {
            Scale::Quick => 512,
            Scale::Full => 32 * 1024,
        }
    }
}

/// One column of Fig. 7/8/9: a workload plus dataset size.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadConfig {
    /// Display label ("vector-64B", "ycsb-1KB", ...).
    pub label: &'static str,
    /// Which benchmark.
    pub kind: WorkloadKind,
    /// Item/value bytes.
    pub item_bytes: u64,
}

/// The §IV-A workload matrix: five synthetic structures with 64 B and 1 KB
/// items, YCSB with 512 B and 1 KB values, and TPC-C New-Order.
pub const MATRIX: [WorkloadConfig; 12] = [
    WorkloadConfig {
        label: "vector-64B",
        kind: WorkloadKind::Vector,
        item_bytes: 64,
    },
    WorkloadConfig {
        label: "vector-1KB",
        kind: WorkloadKind::Vector,
        item_bytes: 1024,
    },
    WorkloadConfig {
        label: "hashmap-64B",
        kind: WorkloadKind::Hashmap,
        item_bytes: 64,
    },
    WorkloadConfig {
        label: "hashmap-1KB",
        kind: WorkloadKind::Hashmap,
        item_bytes: 1024,
    },
    WorkloadConfig {
        label: "queue-64B",
        kind: WorkloadKind::Queue,
        item_bytes: 64,
    },
    WorkloadConfig {
        label: "queue-1KB",
        kind: WorkloadKind::Queue,
        item_bytes: 1024,
    },
    WorkloadConfig {
        label: "rbtree-64B",
        kind: WorkloadKind::RbTree,
        item_bytes: 64,
    },
    WorkloadConfig {
        label: "rbtree-1KB",
        kind: WorkloadKind::RbTree,
        item_bytes: 1024,
    },
    WorkloadConfig {
        label: "btree-64B",
        kind: WorkloadKind::BTree,
        item_bytes: 64,
    },
    WorkloadConfig {
        label: "btree-1KB",
        kind: WorkloadKind::BTree,
        item_bytes: 1024,
    },
    WorkloadConfig {
        label: "ycsb-512B",
        kind: WorkloadKind::Ycsb,
        item_bytes: 512,
    },
    WorkloadConfig {
        label: "ycsb-1KB",
        kind: WorkloadKind::Ycsb,
        item_bytes: 1024,
    },
];

/// TPC-C appears once (row width is fixed by the schema).
pub const TPCC: WorkloadConfig = WorkloadConfig {
    label: "tpcc",
    kind: WorkloadKind::Tpcc,
    item_bytes: 64,
};

/// Builds the spec for a matrix entry at a scale.
pub fn spec_for(cfg: WorkloadConfig, scale: Scale) -> WorkloadSpec {
    let mut items = scale.items();
    if cfg.item_bytes >= 1024 {
        items /= 4; // keep footprints comparable across dataset sizes
    }
    if matches!(cfg.kind, WorkloadKind::RbTree | WorkloadKind::BTree) {
        // Tree nodes scatter writes across the whole pool; keep the pool
        // within the mapping table's reach (the paper's 2 MB table is sized
        // for its footprints the same way, §IV-H).
        items /= 4;
    }
    WorkloadSpec {
        kind: cfg.kind,
        item_bytes: cfg.item_bytes,
        items,
        zipf_theta: 0.99,
        update_fraction: 0.8,
        seed: 42,
    }
}

/// Runs one (engine, workload) cell and returns its report, using the
/// workload row's label-derived, engine-blind seed (see
/// [`derive_workload_seed`](crate::runner::derive_workload_seed)). At
/// [`Scale::Full`] the measured window is extended until it spans several
/// background GC/checkpoint periods, so steady-state traffic (not just
/// end-of-run drains) is captured.
pub fn run_cell(engine: &str, wcfg: WorkloadConfig, sim: &SimConfig, scale: Scale) -> RunReport {
    let seed = crate::runner::derive_workload_seed(wcfg.label);
    crate::runner::run_cell_seeded(engine, wcfg, sim, scale, seed)
}

/// Finds the report of `engine` for `workload` in a matrix result.
pub fn find<'a>(reports: &'a [RunReport], engine: &str, workload: &str) -> &'a RunReport {
    reports
        .iter()
        .find(|r| r.engine == engine && r.workload == workload)
        .unwrap_or_else(|| panic!("missing cell {engine}/{workload}"))
}

/// Geometric mean of per-workload ratios of `f(hoop_cell)` over
/// `f(other_cell)` — the "X % better on average" aggregation the paper
/// uses.
pub fn geomean_ratio(
    reports: &[RunReport],
    num_engine: &str,
    den_engine: &str,
    f: impl Fn(&RunReport) -> f64,
) -> f64 {
    let labels: Vec<String> = reports
        .iter()
        .filter(|r| r.engine == num_engine)
        .map(|r| r.workload.clone())
        .collect();
    let mut log_sum = 0.0;
    for l in &labels {
        let n = f(find(reports, num_engine, l));
        let d = f(find(reports, den_engine, l));
        log_sum += (n / d).ln();
    }
    (log_sum / labels.len() as f64).exp()
}

/// Writes rows as CSV under `results/<name>.csv` (best effort; failures to
/// create the directory only print a warning so harnesses keep working in
/// read-only checkouts).
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let dir = Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        eprintln!("warning: cannot create results/, skipping CSV for {name}");
        return;
    }
    let mut body = String::new();
    let _ = writeln!(body, "{header}");
    for r in rows {
        let _ = writeln!(body, "{r}");
    }
    let path = dir.join(format!("{name}.csv"));
    if std::fs::write(&path, body).is_ok() {
        eprintln!("wrote {}", path.display());
    }
}

/// Pretty-prints a normalized table: rows = workloads, columns = engines.
pub fn print_normalized(
    title: &str,
    reports: &[RunReport],
    baseline: &str,
    f: impl Fn(&RunReport) -> f64,
    invert: bool,
) -> Vec<String> {
    println!("\n== {title} (normalized to {baseline}) ==");
    print!("{:<13}", "workload");
    for e in ENGINES {
        print!("{e:>10}");
    }
    println!();
    let labels: Vec<String> = reports
        .iter()
        .filter(|r| r.engine == baseline)
        .map(|r| r.workload.clone())
        .collect();
    let mut csv = Vec::new();
    for l in &labels {
        let base = f(find(reports, baseline, l));
        print!("{l:<13}");
        let mut row = l.clone();
        for e in ENGINES {
            let v = f(find(reports, e, l));
            let norm = if invert { base / v } else { v / base };
            print!("{norm:>10.3}");
            let _ = write!(row, ",{norm:.4}");
        }
        println!();
        csv.push(row);
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_cell_runs_clean() {
        let sim = SimConfig::small_for_tests();
        let r = run_cell("HOOP", MATRIX[0], &sim, Scale::Quick);
        assert_eq!(r.verify_errors, 0);
        assert!(r.txs > 0);
    }

    #[test]
    fn geomean_of_identity_is_one() {
        let sim = SimConfig::small_for_tests();
        let a = run_cell("Ideal", MATRIX[0], &sim, Scale::Quick);
        let reports = vec![a.clone(), a];
        let g = geomean_ratio(&reports, "Ideal", "Ideal", |r| r.write_bytes_per_tx);
        assert!((g - 1.0).abs() < 1e-9);
    }
}
