//! Host-time benchmark harness: how fast the *simulator itself* runs.
//!
//! Every other metric in `results/` is simulated (cycles, bytes, picojoules)
//! and must stay byte-identical across refactors. Host time is the opposite:
//! it is the one number performance work is allowed to move, and this module
//! makes it a tracked, regression-guarded artifact instead of an anecdote.
//!
//! The harness runs one fixed full-scale cell (the hashmap workload — the
//! densest mix of stores, misses, and GC among the matrix columns) once per
//! engine, times each run on the host clock, and exports a schema-versioned
//! document to `results/bench_host.json` (`results/bench_host_quick.json` at
//! `--quick` scale). To make the numbers comparable across machines, each
//! run is also reported *calibrated*: divided by the time of a fixed
//! arithmetic spin measured in the same process. CI re-measures at quick
//! scale and fails when any engine's calibrated time regresses by more than
//! [`REGRESSION_THRESHOLD`] against the committed baseline.
//!
//! Wall-clock reads in this module are the point, not an accident — they
//! measure the simulator, never feed simulated state, and are annotated for
//! the determinism lint accordingly.

use std::path::Path;

use simcore::config::SimConfig;
use trace::{record_workload, replay_cell, RecordOptions, ReplayWindow};
use workloads::driver::{build_system, Driver, ENGINES};

use crate::experiments::{spec_for, Scale, WorkloadConfig, MATRIX};
use crate::json::Json;

/// Version of the `results/bench_host*.json` document layout. Bump when
/// renaming or removing fields (adding fields is backward compatible).
pub const HOSTBENCH_SCHEMA_VERSION: u64 = 1;

/// Allowed calibrated slowdown per engine before `--check` fails.
pub const REGRESSION_THRESHOLD: f64 = 0.25;

/// The fixed cell the harness times: hashmap/64B, the matrix column with the
/// densest mix of stores, misses, and GC pressure.
pub const BENCH_CELL: usize = 2;

/// Host timing of one engine over the benchmark cell.
#[derive(Clone, Debug)]
pub struct EngineTiming {
    /// Engine name (one of `ENGINES`).
    pub engine: &'static str,
    /// Wall-clock seconds for setup + run + drain + verify.
    pub host_seconds: f64,
    /// `host_seconds` divided by the calibration spin time.
    pub calibrated: f64,
    /// Committed transactions (sanity anchor: must match across builds).
    pub txs: u64,
}

/// Host cost of workload generation, measured by timing one live HOOP run
/// of the benchmark cell against a replay of its just-recorded trace (the
/// recording itself is untimed — a pack is recorded once and replayed per
/// engine).
#[derive(Clone, Debug)]
pub struct DriverOverhead {
    /// Wall-clock seconds of the live run (setup + generation + simulation).
    pub live_seconds: f64,
    /// Wall-clock seconds of the replayed run (setup + simulation only).
    pub replay_seconds: f64,
}

impl DriverOverhead {
    /// Fraction of live host time eliminated by replaying
    /// (`1 - replay/live`; positive = replay is cheaper).
    pub fn reduction(&self) -> f64 {
        1.0 - self.replay_seconds / self.live_seconds.max(f64::MIN_POSITIVE)
    }
}

/// One full harness run: calibration plus per-engine timings.
#[derive(Clone, Debug)]
pub struct HostBenchRun {
    /// Scale the cell ran at.
    pub scale: Scale,
    /// Workload label of the benchmark cell.
    pub workload: &'static str,
    /// Seconds of the fixed calibration spin on this machine.
    pub calibration_seconds: f64,
    /// Timings, in `ENGINES` order (filtered if a subset was requested).
    pub engines: Vec<EngineTiming>,
    /// Live-vs-replay timing of the benchmark cell (absent in synthetic
    /// documents; the `--check` gate ignores it).
    pub driver_overhead: Option<DriverOverhead>,
}

/// Times a fixed arithmetic spin (SplitMix64 chain) to normalize host
/// timings across machines. The spin is deterministic work; only its
/// duration varies with the host.
pub fn calibrate() -> f64 {
    let start = std::time::Instant::now(); // lint:allow(wall-clock)
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..200_000_000u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64()
}

/// Runs and times the benchmark cell for one engine.
///
/// At quick scale the measured window is stretched 4x beyond the figure
/// runners' quick window: a cell over in 60 ms is inside host scheduler
/// noise, and the regression gate needs the measurement to dominate it.
pub fn time_engine(engine: &'static str, cfg: WorkloadConfig, scale: Scale) -> EngineTiming {
    let sim = SimConfig::default();
    let measured = match scale {
        Scale::Quick => 4 * scale.measured(),
        Scale::Full => scale.measured(),
    };
    let start = std::time::Instant::now(); // lint:allow(wall-clock)
    let spec = spec_for(cfg, scale);
    let mut sys = build_system(engine, &sim);
    let mut driver = Driver::new(spec, &sim);
    driver.setup(&mut sys);
    let _ = driver.run_until(
        &mut sys,
        scale.warmup(),
        measured,
        3 * sim.hoop.gc_period_cycles(),
    );
    let host_seconds = start.elapsed().as_secs_f64();
    EngineTiming {
        engine,
        host_seconds,
        calibrated: 0.0, // filled in by `run` once calibration is known
        txs: sys.engine().stats().committed_txs.get(),
    }
}

/// Times the benchmark cell live vs replayed on HOOP. The live run's
/// per-core issue counts size the recorded stream exactly, so the replay
/// covers the same (possibly `min_cycles`-extended) window.
pub fn measure_driver_overhead(scale: Scale) -> DriverOverhead {
    let sim = SimConfig::default();
    let cfg = MATRIX[BENCH_CELL];
    let spec = spec_for(cfg, scale);
    let measured = match scale {
        Scale::Quick => 4 * scale.measured(),
        Scale::Full => scale.measured(),
    };
    let min_cycles = 3 * sim.hoop.gc_period_cycles();

    let start = std::time::Instant::now(); // lint:allow(wall-clock)
    let mut sys = build_system("HOOP", &sim);
    let mut driver = Driver::new(spec, &sim);
    driver.setup(&mut sys);
    let _ = driver.run_until(&mut sys, scale.warmup(), measured, min_cycles);
    let live_seconds = start.elapsed().as_secs_f64();

    let depth = driver
        .issued_per_core()
        .iter()
        .copied()
        .max()
        .unwrap_or(0)
        .max(1) as u32;
    let tf = record_workload(
        cfg.label,
        spec,
        &sim,
        RecordOptions {
            txs_per_core: depth,
            values: false,
        },
    )
    .expect("benchmark cell records cleanly");

    let start = std::time::Instant::now(); // lint:allow(wall-clock)
    let _ = replay_cell(
        &tf,
        "HOOP",
        &sim,
        ReplayWindow {
            warmup: scale.warmup(),
            measured,
            min_cycles,
        },
        false,
    );
    let replay_seconds = start.elapsed().as_secs_f64();
    DriverOverhead {
        live_seconds,
        replay_seconds,
    }
}

/// Runs the full harness: calibration spin, then the benchmark cell for
/// every engine in `filter` (all of `ENGINES` when empty), then the
/// driver-overhead measurement.
///
/// Quick-scale cells finish in tens of milliseconds, where scheduler noise
/// alone can exceed the regression threshold — so at quick scale each engine
/// runs three times and the fastest repetition is kept (the minimum is the
/// standard noise-robust estimator for "how fast can this code go").
pub fn run(scale: Scale, filter: &[String]) -> HostBenchRun {
    let cfg = MATRIX[BENCH_CELL];
    let repeats = match scale {
        Scale::Quick => 3,
        Scale::Full => 1,
    };
    let calibration_seconds = calibrate();
    let mut engines = Vec::new();
    for e in ENGINES {
        if !filter.is_empty() && !filter.iter().any(|f| f.eq_ignore_ascii_case(e)) {
            continue;
        }
        let mut t = time_engine(e, cfg, scale);
        for _ in 1..repeats {
            let rep = time_engine(e, cfg, scale);
            debug_assert_eq!(rep.txs, t.txs, "simulation must be deterministic");
            t.host_seconds = t.host_seconds.min(rep.host_seconds);
        }
        t.calibrated = t.host_seconds / calibration_seconds;
        eprintln!(
            "engine={} host_seconds={:.3} calibrated={:.3} txs={}",
            t.engine, t.host_seconds, t.calibrated, t.txs
        );
        engines.push(t);
    }
    let driver_overhead = measure_driver_overhead(scale);
    eprintln!(
        "driver_overhead live={:.3}s replay={:.3}s reduction={:.1}%",
        driver_overhead.live_seconds,
        driver_overhead.replay_seconds,
        driver_overhead.reduction() * 100.0
    );
    HostBenchRun {
        scale,
        workload: cfg.label,
        calibration_seconds,
        engines,
        driver_overhead: Some(driver_overhead),
    }
}

impl HostBenchRun {
    /// Geometric mean of the per-engine host seconds (the headline number a
    /// speedup claim quotes).
    pub fn geomean_host_seconds(&self) -> f64 {
        geomean(self.engines.iter().map(|t| t.host_seconds))
    }

    /// Builds the schema-versioned JSON document.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema_version", Json::UInt(HOSTBENCH_SCHEMA_VERSION)),
            ("kind", Json::Str("bench_host".into())),
            (
                "scale",
                Json::Str(
                    match self.scale {
                        Scale::Quick => "quick",
                        Scale::Full => "full",
                    }
                    .into(),
                ),
            ),
            ("workload", Json::Str(self.workload.into())),
            ("calibration_seconds", Json::Num(self.calibration_seconds)),
            (
                "geomean_host_seconds",
                Json::Num(self.geomean_host_seconds()),
            ),
            (
                "geomean_calibrated",
                Json::Num(geomean(self.engines.iter().map(|t| t.calibrated))),
            ),
            (
                "engines",
                Json::Arr(
                    self.engines
                        .iter()
                        .map(|t| {
                            Json::obj([
                                ("engine", Json::Str(t.engine.into())),
                                ("host_seconds", Json::Num(t.host_seconds)),
                                ("calibrated", Json::Num(t.calibrated)),
                                ("txs", Json::UInt(t.txs)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(d) = &self.driver_overhead {
            fields.push((
                "driver_overhead",
                Json::obj([
                    ("live_seconds", Json::Num(d.live_seconds)),
                    ("replay_seconds", Json::Num(d.replay_seconds)),
                    ("reduction", Json::Num(d.reduction())),
                ]),
            ));
        }
        Json::obj(fields)
    }
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0f64, 0u32);
    for v in values {
        log_sum += v.max(f64::MIN_POSITIVE).ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// One engine's verdict from a baseline comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckLine {
    /// Engine name.
    pub engine: String,
    /// Calibrated time in the committed baseline.
    pub baseline: f64,
    /// Calibrated time measured now.
    pub current: f64,
    /// `current / baseline - 1` (positive = slower).
    pub delta: f64,
    /// Whether this engine alone trips the gate (its delta exceeds *twice*
    /// [`REGRESSION_THRESHOLD`] — a single-engine catastrophe).
    pub regressed: bool,
}

/// Full verdict of a baseline comparison.
///
/// The gate is the **geomean** over engines: single-engine measurements of
/// tens of milliseconds see scheduler noise near the threshold, but noise is
/// uncorrelated across the seven per-engine runs, so their geomean is stable
/// enough to gate at [`REGRESSION_THRESHOLD`]. A lone engine still fails the
/// check if it regresses past twice the threshold.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Per-engine comparison lines.
    pub lines: Vec<CheckLine>,
    /// Geomean of the baseline calibrated times (over compared engines).
    pub geomean_baseline: f64,
    /// Geomean of the freshly measured calibrated times.
    pub geomean_current: f64,
    /// `geomean_current / geomean_baseline - 1`.
    pub geomean_delta: f64,
}

impl CheckReport {
    /// Whether the gate fails.
    pub fn failed(&self) -> bool {
        self.geomean_delta > REGRESSION_THRESHOLD || self.lines.iter().any(|l| l.regressed)
    }
}

/// Compares a fresh run against a committed baseline document. Compares one
/// line per engine present in both; engines only on one side are ignored
/// (adding an engine must not trip the gate).
pub fn check_against(run: &HostBenchRun, baseline: &Json) -> Result<CheckReport, String> {
    let schema = baseline
        .get("schema_version")
        .and_then(Json::as_f64)
        .ok_or("baseline missing schema_version")?;
    if schema as u64 != HOSTBENCH_SCHEMA_VERSION {
        return Err(format!(
            "baseline schema_version {schema} != {HOSTBENCH_SCHEMA_VERSION}"
        ));
    }
    let engines = baseline
        .get("engines")
        .and_then(Json::as_arr)
        .ok_or("baseline missing engines array")?;
    let mut lines = Vec::new();
    for t in &run.engines {
        let base = engines.iter().find_map(|e| {
            (e.get("engine").and_then(Json::as_str) == Some(t.engine))
                .then(|| e.get("calibrated").and_then(Json::as_f64))
                .flatten()
        });
        let Some(baseline) = base else { continue };
        let delta = t.calibrated / baseline - 1.0;
        lines.push(CheckLine {
            engine: t.engine.to_string(),
            baseline,
            current: t.calibrated,
            delta,
            regressed: delta > 2.0 * REGRESSION_THRESHOLD,
        });
    }
    if lines.is_empty() {
        return Err("no engine overlaps with the baseline".into());
    }
    let geomean_baseline = geomean(lines.iter().map(|l| l.baseline));
    let geomean_current = geomean(lines.iter().map(|l| l.current));
    Ok(CheckReport {
        geomean_baseline,
        geomean_current,
        geomean_delta: geomean_current / geomean_baseline - 1.0,
        lines,
    })
}

/// Loads a baseline document from disk.
pub fn load_baseline(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_run(calibrated: &[(&'static str, f64)]) -> HostBenchRun {
        HostBenchRun {
            scale: Scale::Quick,
            workload: "hashmap",
            calibration_seconds: 1.0,
            engines: calibrated
                .iter()
                .map(|&(engine, c)| EngineTiming {
                    engine,
                    host_seconds: c,
                    calibrated: c,
                    txs: 1000,
                })
                .collect(),
            driver_overhead: None,
        }
    }

    #[test]
    fn driver_overhead_reduction_is_replay_savings() {
        let d = DriverOverhead {
            live_seconds: 2.0,
            replay_seconds: 1.5,
        };
        assert!((d.reduction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn check_ignores_rows_it_does_not_gate() {
        // Committed baselines may carry rows from older harness versions;
        // the gate reads only `schema_version` and `engines[].calibrated`.
        let Json::Obj(mut fields) = fake_run(&[("HOOP", 1.0)]).to_json() else {
            panic!("document is an object");
        };
        fields.push((
            "retired_row".into(),
            Json::obj([("speedup", Json::Num(4.0))]),
        ));
        let baseline = Json::Obj(fields);
        let run = fake_run(&[("HOOP", 1.0)]);
        assert!(!check_against(&run, &baseline).expect("comparable").failed());
    }

    #[test]
    fn check_gates_on_geomean() {
        let baseline = fake_run(&[("HOOP", 1.0), ("LSM", 2.0)]).to_json();
        // One engine 10% slower, the other 10% faster: geomean flat, pass.
        let wash = fake_run(&[("HOOP", 1.1), ("LSM", 1.8)]);
        assert!(!check_against(&wash, &baseline)
            .expect("comparable")
            .failed());
        // Both 30% slower: geomean past the 25% threshold, fail.
        let slow = fake_run(&[("HOOP", 1.3), ("LSM", 2.6)]);
        let report = check_against(&slow, &baseline).expect("comparable");
        assert!(report.geomean_delta > REGRESSION_THRESHOLD);
        assert!(report.failed());
    }

    #[test]
    fn check_trips_on_single_engine_catastrophe() {
        let baseline = fake_run(&[("HOOP", 1.0), ("LSM", 2.0), ("LAD", 1.0)]).to_json();
        // One engine 60% slower (past 2x threshold) while the rest improve
        // enough to keep the geomean flat: still a failure.
        let current = fake_run(&[("HOOP", 1.6), ("LSM", 1.6), ("LAD", 0.78)]);
        let report = check_against(&current, &baseline).expect("comparable");
        assert!(report.geomean_delta < REGRESSION_THRESHOLD);
        assert!(report.lines[0].regressed);
        assert!(report.failed());
    }

    #[test]
    fn check_ignores_engines_missing_from_baseline() {
        let baseline = fake_run(&[("HOOP", 1.0)]).to_json();
        let current = fake_run(&[("HOOP", 1.0), ("NewEngine", 9.0)]);
        let report = check_against(&current, &baseline).expect("comparable");
        assert_eq!(report.lines.len(), 1);
        assert_eq!(report.lines[0].engine, "HOOP");
        assert!(!report.failed());
    }

    #[test]
    fn check_rejects_schema_mismatch() {
        let mut doc = fake_run(&[("HOOP", 1.0)]).to_json();
        if let Json::Obj(pairs) = &mut doc {
            pairs[0].1 = Json::UInt(HOSTBENCH_SCHEMA_VERSION + 1);
        }
        assert!(check_against(&fake_run(&[("HOOP", 1.0)]), &doc).is_err());
    }

    #[test]
    fn document_round_trips_through_parser() {
        let run = fake_run(&[("HOOP", 1.5), ("Ideal", 0.75)]);
        let doc = run.to_json();
        // Whole-number floats serialize without a fraction and parse back as
        // integers, so compare the stable serialized form, not the enum.
        let parsed = Json::parse(&doc.pretty()).expect("valid");
        assert_eq!(parsed.pretty(), doc.pretty());
        assert_eq!(
            parsed.get("schema_version").and_then(Json::as_f64),
            Some(HOSTBENCH_SCHEMA_VERSION as f64)
        );
        // And a check against the parsed baseline must see no regression.
        let report = check_against(&run, &parsed).expect("comparable");
        assert!(!report.failed());
        assert!(report.geomean_delta.abs() < 1e-9);
    }
}
