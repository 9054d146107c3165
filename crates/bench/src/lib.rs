//! Experiment harness regenerating every table and figure of the HOOP
//! paper's evaluation (§IV).
//!
//! Each `fig*`/`table*` binary in `src/bin/` prints the rows/series the
//! paper reports, writes a CSV under `results/`, and (for the ported
//! figures) a schema-versioned `results/*.json` metrics document. The
//! shared machinery — workload matrix, engine sweep, normalization — lives
//! in [`experiments`]; parallel cell execution and structured export live
//! in [`runner`] and [`json`]. Host time is measured by the separate
//! `perfbench` package; the `perf_gate` binary A/Bs it against a base
//! revision as CI's regression gate. Criterion micro/ablation benches are
//! under `benches/`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod json;
pub mod runner;
pub mod tracepack;

pub use experiments::{Scale, WorkloadConfig};
pub use runner::{CellResult, ExperimentPlan, RunnerOptions};
