//! Parallel experiment runner.
//!
//! Every figure/table of the paper sweeps the same kind of grid: an engine ×
//! workload (× swept parameter) matrix where each cell owns a private
//! [`System`](engines::system::System) and
//! [`Driver`](workloads::driver::Driver) — cells share nothing, so they are
//! embarrassingly parallel. This module runs a plan's cells across worker
//! threads (`--jobs N`) while keeping results **bit-identical to a serial
//! run**:
//!
//! - each cell's workload seed is derived from its `(engine, workload)`
//!   identity — never from execution order, thread id, or time;
//! - results are collected by cell index, so output order is the plan order
//!   regardless of which thread finished first.
//!
//! [`CellResult`]s carry the full [`RunReport`] including the raw
//! [`EngineStats`](engines::EngineStats) and
//! [`HierStats`](memhier::HierStats) counter snapshots, and serialize to a
//! schema-versioned JSON document (see [`write_json`]) that CI uploads as an
//! artifact and trajectory tooling can diff across commits.
//!
//! Every figure binary also supports trace modes (`--record DIR` /
//! `--replay DIR`): recording captures each workload row once into a binary
//! trace (`hoop-trace`), replaying feeds the recorded streams into every
//! engine of the row. Replay is byte-identical to a live run — CI proves it
//! by `cmp`-ing live and replayed JSON documents.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use nvm::wearlevel::{EnduranceMap, GAP_MOVE_RATE};
use pmcheck::{PersistencySanitizer, SanitizerSummary};
use simcore::config::SimConfig;
use trace::{
    default_txs_per_core, record_workload, replay_cell, RecordOptions, ReplayWindow, TraceReader,
};
use workloads::driver::{build_system, Driver, RunReport, ENGINES};

use crate::experiments::{spec_for, Scale, WorkloadConfig, MATRIX, TPCC};
use crate::json::Json;

/// Version of the `results/*.json` document layout. Bump when renaming or
/// removing fields (adding fields is backward compatible).
pub const RESULT_SCHEMA_VERSION: u64 = 1;

/// How a figure binary obtains its workload streams.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum RunMode {
    /// Generate workloads live (the default).
    #[default]
    Live,
    /// Record each workload row into `DIR/<label>.trace`, then produce the
    /// results by replaying the fresh traces (so a record run still emits
    /// the same JSON a live run would).
    Record(PathBuf),
    /// Replay previously recorded traces from `DIR/<label>.trace`.
    Replay(PathBuf),
}

/// Command-line options shared by every figure/table binary:
/// `--quick`/`--full` selects the [`Scale`], `--jobs N` the worker count,
/// `--sanitize` attaches the persistency sanitizer to every cell,
/// `--endurance` tracks per-line wear and exports an `endurance` summary
/// per cell, `--record DIR` / `--replay DIR` select the trace [`RunMode`],
/// and `--depth N` overrides the recorded per-core stream depth.
#[derive(Clone, Debug)]
pub struct RunnerOptions {
    /// Experiment scale.
    pub scale: Scale,
    /// Worker threads for cell execution.
    pub jobs: usize,
    /// Attach the persistency sanitizer (`pmcheck`) to every cell. Off by
    /// default so unsanitized runs stay byte-identical to older builds.
    pub sanitize: bool,
    /// Track per-line wear ([`EnduranceMap`]) in every cell and serialize
    /// an `endurance` summary per cell. Off by default so plain runs stay
    /// byte-identical to older builds. Live mode only.
    pub endurance: bool,
    /// Live / record / replay.
    pub mode: RunMode,
    /// Per-core transactions to record (record mode only). `None` sizes the
    /// depth automatically; see [`plan_depth`].
    pub depth: Option<u32>,
}

impl RunnerOptions {
    /// Parses `--quick` / `--full` / `--jobs N` (or `--jobs=N`) /
    /// `--sanitize` / `--endurance` / `--record DIR` / `--replay DIR` /
    /// `--depth N` from argv. Defaults: full scale, all available cores,
    /// sanitizer and endurance tracking off, live mode.
    pub fn from_args() -> RunnerOptions {
        let args: Vec<String> = std::env::args().collect();
        RunnerOptions {
            scale: Scale::from_args(),
            jobs: parse_jobs(&args).unwrap_or_else(default_jobs),
            sanitize: args.iter().any(|a| a == "--sanitize"),
            endurance: args.iter().any(|a| a == "--endurance"),
            mode: parse_mode(&args),
            depth: parse_value(&args, "--depth")
                .map(|v| v.parse().expect("--depth needs a positive integer")),
        }
    }

    /// Options for a plain live run at `scale` (harness/test entry point).
    pub fn live(scale: Scale, jobs: usize) -> RunnerOptions {
        RunnerOptions {
            scale,
            jobs,
            sanitize: false,
            endurance: false,
            mode: RunMode::Live,
            depth: None,
        }
    }
}

/// Extracts the value of `--flag VALUE` or `--flag=VALUE` from argv.
fn parse_value(args: &[String], flag: &str) -> Option<String> {
    let prefix = format!("{flag}=");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            return Some(
                it.next()
                    .unwrap_or_else(|| panic!("{flag} needs a value"))
                    .clone(),
            );
        }
        if let Some(v) = a.strip_prefix(&prefix) {
            return Some(v.to_string());
        }
    }
    None
}

fn parse_mode(args: &[String]) -> RunMode {
    let record = parse_value(args, "--record");
    let replay = parse_value(args, "--replay");
    match (record, replay) {
        (Some(_), Some(_)) => panic!("--record and --replay are mutually exclusive"),
        (Some(dir), None) => RunMode::Record(PathBuf::from(dir)),
        (None, Some(dir)) => RunMode::Replay(PathBuf::from(dir)),
        (None, None) => RunMode::Live,
    }
}

fn parse_jobs(args: &[String]) -> Option<usize> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--jobs" {
            let n = it.next().and_then(|v| v.parse().ok());
            return Some(
                n.filter(|&n| n > 0)
                    .unwrap_or_else(|| panic!("--jobs needs a positive integer")),
            );
        }
        if let Some(v) = a.strip_prefix("--jobs=") {
            let n: Option<usize> = v.parse().ok();
            return Some(
                n.filter(|&n| n > 0)
                    .unwrap_or_else(|| panic!("--jobs needs a positive integer")),
            );
        }
    }
    None
}

fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Deterministic workload seed, derived purely from the workload's label
/// (FNV-1a) so every row draws an independent random stream and parallel
/// execution cannot perturb it. The seed is intentionally **engine-blind**:
/// all engines of a row run the identical workload stream, which is both
/// the fairest comparison (the paper runs the same benchmark binary against
/// each scheme) and what lets one recorded trace serve the whole row. The
/// per-worker `stream` split happens inside the workloads
/// (`SimRng::seed(seed).fork(stream)`).
pub fn derive_workload_seed(label: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in label.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// One cell of an experiment grid.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Engine name (must be known to `build_system`).
    pub engine: &'static str,
    /// Workload column.
    pub workload: WorkloadConfig,
}

/// Per-cell wear accounting derived from the device's [`EnduranceMap`]
/// (`Some` only on `--endurance` runs).
#[derive(Clone, Debug, PartialEq)]
pub struct EnduranceSummary {
    /// Total line writes the device recorded.
    pub total_line_writes: u64,
    /// The hottest line's write count.
    pub max_line_writes: u64,
    /// Mean writes per touched line.
    pub mean_line_writes: f64,
    /// Distinct lines ever written.
    pub lines_touched: u64,
    /// Wear skew: hottest line relative to the mean (1.0 = perfectly even).
    pub skew: f64,
    /// Extra line writes Start-Gap leveling would add to flatten the skew
    /// (one gap-move copy per [`GAP_MOVE_RATE`] writes).
    pub leveling_overhead_writes: u64,
}

impl EnduranceSummary {
    /// Summarizes a device's endurance map.
    pub fn from_map(e: &EnduranceMap) -> EnduranceSummary {
        EnduranceSummary {
            total_line_writes: e.total_writes(),
            max_line_writes: e.max_writes(),
            mean_line_writes: e.mean_writes(),
            lines_touched: e.lines_touched() as u64,
            skew: e.skew(),
            leveling_overhead_writes: e.total_writes() / GAP_MOVE_RATE,
        }
    }

    /// Serializes the summary as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("total_line_writes", Json::UInt(self.total_line_writes)),
            ("max_line_writes", Json::UInt(self.max_line_writes)),
            ("mean_line_writes", Json::Num(self.mean_line_writes)),
            ("lines_touched", Json::UInt(self.lines_touched)),
            ("skew", Json::Num(self.skew)),
            (
                "leveling_overhead_writes",
                Json::UInt(self.leveling_overhead_writes),
            ),
        ])
    }
}

/// Result of one executed cell.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Engine name.
    pub engine: &'static str,
    /// Workload label.
    pub workload: &'static str,
    /// The seed the cell's workloads drew from.
    pub seed: u64,
    /// The full measurement report (metrics + raw counter snapshots).
    pub report: RunReport,
    /// Persistency-sanitizer summary (`Some` only on `--sanitize` runs; the
    /// JSON document is unchanged when absent).
    pub sanitizer: Option<SanitizerSummary>,
    /// Per-line wear summary (`Some` only on `--endurance` runs; the JSON
    /// document is unchanged when absent).
    pub endurance: Option<EnduranceSummary>,
}

impl CellResult {
    /// Serializes the cell (metrics, engine counters, hierarchy counters,
    /// engine-specific extras) as a JSON object.
    pub fn to_json(&self) -> Json {
        let r = &self.report;
        let es = &r.engine_stats;
        let hs = &r.hier_stats;
        let mut fields = vec![
            ("engine", Json::Str(self.engine.to_string())),
            ("workload", Json::Str(self.workload.to_string())),
            ("seed", Json::UInt(self.seed)),
            (
                "metrics",
                Json::obj([
                    ("txs", Json::UInt(r.txs)),
                    ("cycles", Json::UInt(r.cycles)),
                    ("throughput_tx_per_ms", Json::Num(r.throughput_tx_per_ms)),
                    ("avg_tx_latency_cycles", Json::Num(r.avg_tx_latency)),
                    ("write_bytes_per_tx", Json::Num(r.write_bytes_per_tx)),
                    ("read_bytes_per_tx", Json::Num(r.read_bytes_per_tx)),
                    ("energy_pj_per_tx", Json::Num(r.energy_pj_per_tx)),
                    ("llc_miss_ratio", Json::Num(r.llc_miss_ratio)),
                    ("loads_per_miss", Json::Num(r.loads_per_miss)),
                    (
                        "parallel_read_fraction",
                        Json::Num(r.parallel_read_fraction),
                    ),
                    ("gc_reduction", Json::Num(r.gc_reduction)),
                    (
                        "ondemand_gc_stall_cycles",
                        Json::UInt(r.ondemand_gc_stall_cycles),
                    ),
                    ("verify_errors", Json::UInt(r.verify_errors as u64)),
                ]),
            ),
            (
                "engine_stats",
                Json::obj([
                    ("committed_txs", Json::UInt(es.committed_txs.get())),
                    (
                        "commit_stall_cycles",
                        Json::UInt(es.commit_stall_cycles.get()),
                    ),
                    (
                        "store_overhead_cycles",
                        Json::UInt(es.store_overhead_cycles.get()),
                    ),
                    (
                        "miss_service_cycles",
                        Json::UInt(es.miss_service_cycles.get()),
                    ),
                    ("misses_served", Json::UInt(es.misses_served.get())),
                    ("parallel_reads", Json::UInt(es.parallel_reads.get())),
                    ("miss_memory_loads", Json::UInt(es.miss_memory_loads.get())),
                    ("gc_runs", Json::UInt(es.gc_runs.get())),
                    ("gc_bytes_in", Json::UInt(es.gc_bytes_in.get())),
                    ("gc_bytes_out", Json::UInt(es.gc_bytes_out.get())),
                    (
                        "ondemand_gc_stall_cycles",
                        Json::UInt(es.ondemand_gc_stall_cycles.get()),
                    ),
                ]),
            ),
            (
                "hier_stats",
                Json::obj([
                    ("accesses", Json::UInt(hs.accesses.get())),
                    ("l1_hits", Json::UInt(hs.l1_hits.get())),
                    ("l2_hits", Json::UInt(hs.l2_hits.get())),
                    ("llc_hits", Json::UInt(hs.llc_hits.get())),
                    ("llc_misses", Json::UInt(hs.llc_misses.get())),
                    ("dirty_evictions", Json::UInt(hs.dirty_evictions.get())),
                ]),
            ),
            (
                "extra_metrics",
                Json::Obj(
                    r.extra_metrics
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ];
        if let Some(s) = &self.sanitizer {
            fields.push(("sanitizer", sanitizer_json(s)));
        }
        if let Some(e) = &self.endurance {
            fields.push(("endurance", e.to_json()));
        }
        Json::obj(fields)
    }
}

/// Serializes a [`SanitizerSummary`] (per-class counts plus formatted
/// samples of the first hard violations).
pub fn sanitizer_json(s: &SanitizerSummary) -> Json {
    Json::obj([
        ("engine", Json::Str(s.engine.clone())),
        ("events", Json::UInt(s.events)),
        ("lines_tracked", Json::UInt(s.lines_tracked)),
        ("violations", Json::UInt(s.violations)),
        ("redundant_flushes", Json::UInt(s.redundant_flushes)),
        (
            "by_class",
            Json::Obj(
                s.by_class
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::UInt(*v)))
                    .collect(),
            ),
        ),
        (
            "samples",
            Json::Arr(s.samples.iter().map(|v| Json::Str(v.clone())).collect()),
        ),
    ])
}

/// A named grid of cells to execute at one scale.
#[derive(Clone, Debug)]
pub struct ExperimentPlan {
    /// Experiment name (`fig7`, `table4`, ...) — also the JSON file stem.
    pub name: &'static str,
    /// The cells, in output order.
    pub cells: Vec<Cell>,
    /// Machine configuration shared by all cells.
    pub sim: SimConfig,
    /// Scale of every cell.
    pub scale: Scale,
}

impl ExperimentPlan {
    /// The §IV-A grid shared by Fig. 7/8/9: the full workload matrix
    /// (including TPC-C) × every engine.
    pub fn matrix(name: &'static str, sim: SimConfig, scale: Scale) -> ExperimentPlan {
        let mut cells = Vec::new();
        for wcfg in MATRIX.into_iter().chain([TPCC]) {
            for engine in ENGINES {
                cells.push(Cell {
                    engine,
                    workload: wcfg,
                });
            }
        }
        ExperimentPlan {
            name,
            cells,
            sim,
            scale,
        }
    }

    /// A plan over an explicit cell list.
    pub fn from_cells(
        name: &'static str,
        cells: Vec<Cell>,
        sim: SimConfig,
        scale: Scale,
    ) -> ExperimentPlan {
        ExperimentPlan {
            name,
            cells,
            sim,
            scale,
        }
    }

    /// Executes every cell on `jobs` worker threads and returns results in
    /// plan order. Panics (after joining workers) if any cell failed
    /// verification — a corrupted cell must never silently enter results.
    pub fn run(&self, jobs: usize) -> Vec<CellResult> {
        self.run_sanitized(jobs, false)
    }

    /// Like [`run`](ExperimentPlan::run), optionally attaching the
    /// persistency sanitizer to every cell. Panics if any sanitized cell
    /// reports a hard ordering violation (samples are printed first).
    pub fn run_sanitized(&self, jobs: usize, sanitize: bool) -> Vec<CellResult> {
        self.run_instrumented(jobs, sanitize, false)
    }

    /// Like [`run_sanitized`](ExperimentPlan::run_sanitized), optionally
    /// also tracking per-line wear in every cell (`--endurance`): each
    /// result then carries an [`EnduranceSummary`].
    pub fn run_instrumented(
        &self,
        jobs: usize,
        sanitize: bool,
        endurance: bool,
    ) -> Vec<CellResult> {
        let results = run_parallel(&self.cells, jobs, |cell| {
            let seed = derive_workload_seed(cell.workload.label);
            let (report, sanitizer, endurance) = run_cell_seeded_instrumented(
                cell.engine,
                cell.workload,
                &self.sim,
                self.scale,
                seed,
                sanitize,
                endurance,
            );
            eprintln!("  {}", report.summary());
            CellResult {
                engine: cell.engine,
                workload: cell.workload.label,
                seed,
                report,
                sanitizer,
                endurance,
            }
        });
        check_results(&results);
        results
    }

    /// The distinct workload columns of this plan, in first-seen order.
    pub fn workloads(&self) -> Vec<WorkloadConfig> {
        let mut seen: Vec<WorkloadConfig> = Vec::new();
        for cell in &self.cells {
            if !seen.iter().any(|w| w.label == cell.workload.label) {
                seen.push(cell.workload);
            }
        }
        seen
    }

    /// Records every workload row of the plan into `dir/<label>.trace`
    /// (engine-blind: one trace per row serves all engines). `depth`
    /// overrides the per-core stream depth; `None` uses [`plan_depth`].
    pub fn record_traces(&self, dir: &Path, jobs: usize, depth: Option<u32>) {
        let workloads = self.workloads();
        let depth = depth.unwrap_or_else(|| plan_depth(self.scale, &self.sim));
        run_parallel(&workloads, jobs, |wcfg| {
            let mut spec = spec_for(*wcfg, self.scale);
            spec.seed = derive_workload_seed(wcfg.label);
            let tf = record_workload(
                wcfg.label,
                spec,
                &self.sim,
                RecordOptions {
                    txs_per_core: depth,
                    values: false,
                },
            )
            .unwrap_or_else(|e| panic!("recording {}: {e}", wcfg.label));
            let path = trace_path(dir, wcfg.label);
            tf.write_to(&path)
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            eprintln!(
                "  recorded {} ({} events)",
                path.display(),
                tf.event_count()
            );
        });
    }

    /// Runs every cell by replaying `dir/<label>.trace` instead of
    /// generating workloads live. Panics with a regeneration hint if a
    /// trace is missing, unreadable, or stale (its recorded workload
    /// identity no longer matches the plan's).
    pub fn run_replayed(&self, jobs: usize, sanitize: bool, dir: &Path) -> Vec<CellResult> {
        let results = run_parallel(&self.cells, jobs, |cell| {
            let seed = derive_workload_seed(cell.workload.label);
            let (report, sanitizer) = run_cell_replayed(
                cell.engine,
                cell.workload,
                &self.sim,
                self.scale,
                seed,
                sanitize,
                dir,
            );
            eprintln!("  {}", report.summary());
            CellResult {
                engine: cell.engine,
                workload: cell.workload.label,
                seed,
                report,
                sanitizer,
                endurance: None,
            }
        });
        check_results(&results);
        results
    }

    /// Runs the plan with the full option set (`--jobs`, `--sanitize`,
    /// `--record`/`--replay`, `--depth`) and writes `results/<name>.json`;
    /// returns the results.
    pub fn run_and_export_opts(&self, opts: &RunnerOptions) -> Vec<CellResult> {
        assert!(
            !opts.endurance || opts.mode == RunMode::Live,
            "--endurance requires a live run (drop --record/--replay)"
        );
        let results = match &opts.mode {
            RunMode::Live => self.run_instrumented(opts.jobs, opts.sanitize, opts.endurance),
            RunMode::Record(dir) => {
                self.record_traces(dir, opts.jobs, opts.depth);
                self.run_replayed(opts.jobs, opts.sanitize, dir)
            }
            RunMode::Replay(dir) => self.run_replayed(opts.jobs, opts.sanitize, dir),
        };
        write_json(self.name, self.scale, &results);
        results
    }
}

/// Shared post-run validation: a corrupted or persistency-violating cell
/// must never silently enter results.
fn check_results(results: &[CellResult]) {
    for r in results {
        assert_eq!(
            r.report.verify_errors, 0,
            "{}/{} corrupted data",
            r.engine, r.workload
        );
        if let Some(s) = &r.sanitizer {
            for sample in &s.samples {
                eprintln!("  sanitizer: {sample}");
            }
            assert!(
                s.is_clean(),
                "{}/{}: {} persistency violation(s)",
                r.engine,
                r.workload,
                s.violations
            );
        }
    }
}

/// The trace file for a workload row inside a pack directory.
pub fn trace_path(dir: &Path, label: &str) -> PathBuf {
    dir.join(format!("{label}.trace"))
}

/// The measured-window floor in simulated cycles: quick runs take the
/// transaction counts at face value; full runs extend until several
/// background GC/checkpoint periods elapsed (steady-state traffic).
pub fn min_cycles_for(scale: Scale, sim: &SimConfig) -> u64 {
    match scale {
        Scale::Quick => 0,
        Scale::Full => 3 * sim.hoop.gc_period_cycles(),
    }
}

/// Default recorded stream depth for a plan at `scale`: twice the balanced
/// per-core share of the driver-issued transactions. Exact for quick runs
/// (their windows never extend); full-scale runs can extend up to 64× past
/// `measured` to satisfy [`min_cycles_for`], so full-scale recording takes
/// a 4× margin and relies on replay's loud run-dry panic (plus `--depth`)
/// when a workload extends further.
pub fn plan_depth(scale: Scale, sim: &SimConfig) -> u32 {
    let total = scale.warmup() + scale.measured();
    let base = default_txs_per_core(total, u64::from(sim.worker_threads));
    match scale {
        Scale::Quick => base,
        Scale::Full => base * 4,
    }
}

/// Replays one (engine, workload) cell from `dir/<label>.trace`, verifying
/// the trace's recorded identity against the cell's spec.
#[allow(clippy::too_many_arguments)]
pub fn run_cell_replayed(
    engine: &str,
    wcfg: WorkloadConfig,
    sim: &SimConfig,
    scale: Scale,
    seed: u64,
    sanitize: bool,
    dir: &Path,
) -> (RunReport, Option<SanitizerSummary>) {
    let path = trace_path(dir, wcfg.label);
    let tf = TraceReader::read(&path).unwrap_or_else(|e| {
        panic!(
            "{e}\n(replaying {}; regenerate the pack with `cargo run -p xtask -- trace`)",
            path.display()
        )
    });
    let mut spec = spec_for(wcfg, scale);
    spec.seed = seed;
    assert_eq!(
        tf.header.spec,
        spec,
        "{} is stale: recorded workload identity {:?} != expected {:?}; \
         regenerate with `cargo run -p xtask -- trace`",
        path.display(),
        tf.header.spec,
        spec
    );
    let window = ReplayWindow {
        warmup: scale.warmup(),
        measured: scale.measured(),
        min_cycles: min_cycles_for(scale, sim),
    };
    let (mut report, summary) = replay_cell(&tf, engine, sim, window, sanitize);
    report.workload = wcfg.label.to_string();
    (report, summary)
}

/// Runs one (engine, workload) cell with an explicit workload seed.
pub fn run_cell_seeded(
    engine: &str,
    wcfg: WorkloadConfig,
    sim: &SimConfig,
    scale: Scale,
    seed: u64,
) -> RunReport {
    run_cell_seeded_sanitized(engine, wcfg, sim, scale, seed, false).0
}

/// Like [`run_cell_seeded`], optionally auditing the whole cell (setup,
/// warmup and measurement) with an attached [`PersistencySanitizer`].
pub fn run_cell_seeded_sanitized(
    engine: &str,
    wcfg: WorkloadConfig,
    sim: &SimConfig,
    scale: Scale,
    seed: u64,
    sanitize: bool,
) -> (RunReport, Option<SanitizerSummary>) {
    let (report, summary, _) =
        run_cell_seeded_instrumented(engine, wcfg, sim, scale, seed, sanitize, false);
    (report, summary)
}

/// Like [`run_cell_seeded_sanitized`], optionally also tracking per-line
/// wear on the cell's device and summarizing it after the run.
#[allow(clippy::too_many_arguments)]
pub fn run_cell_seeded_instrumented(
    engine: &str,
    wcfg: WorkloadConfig,
    sim: &SimConfig,
    scale: Scale,
    seed: u64,
    sanitize: bool,
    endurance: bool,
) -> (
    RunReport,
    Option<SanitizerSummary>,
    Option<EnduranceSummary>,
) {
    let mut spec = spec_for(wcfg, scale);
    spec.seed = seed;
    let mut sys = build_system(engine, sim);
    if endurance {
        sys.enable_endurance_tracking();
    }
    let san = sanitize.then(|| {
        let (san, probe) = PersistencySanitizer::shared();
        sys.attach_probe(probe);
        san
    });
    let mut driver = Driver::new(spec, sim);
    driver.setup(&mut sys);
    let min_cycles = min_cycles_for(scale, sim);
    let mut report = driver.run_until(&mut sys, scale.warmup(), scale.measured(), min_cycles);
    report.workload = wcfg.label.to_string();
    let summary = san.map(|s| s.lock().expect("sanitizer poisoned").summary());
    let wear = endurance.then(|| {
        EnduranceSummary::from_map(
            sys.engine()
                .device()
                .endurance()
                .expect("endurance tracking enabled"),
        )
    });
    (report, summary, wear)
}

/// Maps `f` over `items` on `jobs` worker threads, returning results in
/// input order. Workers pull the next unclaimed index from a shared atomic
/// cursor, so scheduling is dynamic but the output is order-stable — calling
/// with `jobs = 1` and `jobs = N` yields identical vectors whenever `f` is
/// deterministic per item.
pub fn run_parallel<I, T, F>(items: &[I], jobs: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    assert!(jobs > 0, "need at least one worker");
    let jobs = jobs.min(items.len()).max(1);
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                if idx >= items.len() {
                    break;
                }
                let result = f(&items[idx]);
                slots.lock().expect("runner mutex poisoned")[idx] = Some(result);
            });
        }
    });
    slots
        .into_inner()
        .expect("runner mutex poisoned")
        .into_iter()
        .map(|slot| slot.expect("worker skipped a cell"))
        .collect()
}

/// Serializes experiment results as the schema-versioned document written to
/// `results/<name>.json`.
pub fn results_json(name: &str, scale: Scale, results: &[CellResult]) -> Json {
    Json::obj([
        ("schema_version", Json::UInt(RESULT_SCHEMA_VERSION)),
        ("experiment", Json::Str(name.to_string())),
        (
            "scale",
            Json::Str(
                match scale {
                    Scale::Quick => "quick",
                    Scale::Full => "full",
                }
                .to_string(),
            ),
        ),
        (
            "cells",
            Json::Arr(results.iter().map(CellResult::to_json).collect()),
        ),
    ])
}

/// Writes `results/<name>.json` (best effort, like
/// [`write_csv`](crate::experiments::write_csv): read-only checkouts only
/// get a warning).
pub fn write_json(name: &str, scale: Scale, results: &[CellResult]) {
    let doc = results_json(name, scale, results).pretty();
    let dir = Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        eprintln!("warning: cannot create results/, skipping JSON for {name}");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if std::fs::write(&path, doc).is_ok() {
        eprintln!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The determinism contract: a 2×2 Quick sub-matrix must produce
    /// byte-identical JSON under serial and parallel execution.
    #[test]
    fn jobs1_and_jobs4_produce_identical_json() {
        let sim = SimConfig::small_for_tests();
        let cells: Vec<Cell> = ["HOOP", "Opt-Redo"]
            .into_iter()
            .flat_map(|engine| {
                [MATRIX[0], MATRIX[2]]
                    .into_iter()
                    .map(move |workload| Cell { engine, workload })
            })
            .collect();
        let plan = ExperimentPlan::from_cells("determinism", cells, sim, Scale::Quick);
        let serial = results_json("determinism", Scale::Quick, &plan.run(1)).pretty();
        let parallel = results_json("determinism", Scale::Quick, &plan.run(4)).pretty();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn run_parallel_preserves_input_order() {
        let items: Vec<u64> = (0..64).collect();
        let doubled = run_parallel(&items, 8, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn workload_seeds_are_label_derived_and_engine_blind() {
        let a = derive_workload_seed("vector-64B");
        assert_eq!(a, derive_workload_seed("vector-64B"));
        assert_ne!(a, derive_workload_seed("vector-1KB"));
        assert_ne!(derive_workload_seed("ycsb"), derive_workload_seed("btree"));
    }

    #[test]
    fn mode_flag_parses_both_forms_and_defaults_live() {
        let to_args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_mode(&to_args(&["bin", "--quick"])), RunMode::Live);
        assert_eq!(
            parse_mode(&to_args(&["bin", "--record", "traces"])),
            RunMode::Record(PathBuf::from("traces"))
        );
        assert_eq!(
            parse_mode(&to_args(&["bin", "--replay=traces/quick"])),
            RunMode::Replay(PathBuf::from("traces/quick"))
        );
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn record_and_replay_conflict() {
        let args: Vec<String> = ["bin", "--record", "a", "--replay", "b"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let _ = parse_mode(&args);
    }

    /// The tentpole contract at the runner level: a record run and a
    /// subsequent replay run of the same plan produce JSON byte-identical to
    /// a live run.
    #[test]
    fn record_replay_json_matches_live_json() {
        let sim = SimConfig::small_for_tests();
        let cells: Vec<Cell> = ["HOOP", "LAD", "Ideal"]
            .into_iter()
            .map(|engine| Cell {
                engine,
                workload: MATRIX[0],
            })
            .collect();
        let plan = ExperimentPlan::from_cells("trace-ab", cells, sim, Scale::Quick);
        let live = results_json("trace-ab", Scale::Quick, &plan.run(2)).pretty();
        let dir = std::env::temp_dir().join("hoop-trace-ab-test");
        std::fs::create_dir_all(&dir).expect("temp trace dir");
        plan.record_traces(&dir, 2, None);
        let replayed =
            results_json("trace-ab", Scale::Quick, &plan.run_replayed(2, false, &dir)).pretty();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(live, replayed);
    }

    #[test]
    #[should_panic(expected = "regenerate")]
    fn replaying_a_missing_pack_names_the_fix() {
        let sim = SimConfig::small_for_tests();
        let _ = run_cell_replayed(
            "HOOP",
            MATRIX[0],
            &sim,
            Scale::Quick,
            7,
            false,
            Path::new("/nonexistent-trace-pack"),
        );
    }

    #[test]
    fn jobs_flag_parses_both_forms() {
        let to_args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_jobs(&to_args(&["bin", "--jobs", "4"])), Some(4));
        assert_eq!(
            parse_jobs(&to_args(&["bin", "--jobs=2", "--quick"])),
            Some(2)
        );
        assert_eq!(parse_jobs(&to_args(&["bin", "--quick"])), None);
    }

    /// `--endurance` adds a wear summary per cell; without it the document
    /// is byte-identical to older builds (no `endurance` key at all).
    #[test]
    fn endurance_flag_gates_the_wear_summary() {
        let sim = SimConfig::small_for_tests();
        let plan = ExperimentPlan::from_cells(
            "wear",
            vec![Cell {
                engine: "HOOP",
                workload: MATRIX[2],
            }],
            sim,
            Scale::Quick,
        );
        let plain = plan.run_instrumented(1, false, false);
        assert!(plain[0].endurance.is_none());
        assert!(!results_json("wear", Scale::Quick, &plain)
            .pretty()
            .contains("\"endurance\""));
        let tracked = plan.run_instrumented(1, false, true);
        let e = tracked[0].endurance.as_ref().expect("summary present");
        assert!(e.total_line_writes > 0);
        assert!(e.max_line_writes > 0);
        assert!(e.skew >= 1.0);
        assert_eq!(
            e.leveling_overhead_writes,
            e.total_line_writes / GAP_MOVE_RATE
        );
        // Wear tracking is an observer: the measured report is unchanged.
        assert_eq!(plain[0].report.cycles, tracked[0].report.cycles);
        let doc = results_json("wear", Scale::Quick, &tracked).pretty();
        for key in ["\"endurance\"", "\"max_line_writes\"", "\"skew\""] {
            assert!(doc.contains(key), "missing {key}");
        }
    }

    #[test]
    fn cell_result_json_is_schema_versioned() {
        let sim = SimConfig::small_for_tests();
        let plan = ExperimentPlan::from_cells(
            "schema",
            vec![Cell {
                engine: "Ideal",
                workload: MATRIX[0],
            }],
            sim,
            Scale::Quick,
        );
        let doc = results_json("schema", Scale::Quick, &plan.run(1)).pretty();
        assert!(doc.starts_with("{\n  \"schema_version\": 1,"));
        for key in [
            "\"metrics\"",
            "\"engine_stats\"",
            "\"hier_stats\"",
            "\"seed\"",
        ] {
            assert!(doc.contains(key), "missing {key} in {doc}");
        }
    }
}
