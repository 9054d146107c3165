//! Parallel experiment runner.
//!
//! Every figure/table of the paper sweeps the same kind of grid: an engine ×
//! workload (× swept parameter) matrix where each [`Cell`] names everything
//! that identifies a run — engine, workload spec, machine configuration,
//! measurement [`Window`] and trace row — and owns a private
//! [`System`](engines::system::System) when it runs. Cells share nothing,
//! so they are embarrassingly parallel. [`run_cell`] is the one way to run
//! a cell; [`ExperimentPlan::run`] runs a plan's cells across worker threads
//! (`--jobs N`) while keeping results **bit-identical to a serial run**:
//!
//! - each cell's workload seed is part of the cell (by default derived from
//!   its workload label) — never from execution order, thread id, or time;
//! - results are collected by cell index, so output order is the plan order
//!   regardless of which thread finished first.
//!
//! [`CellResult`]s carry the full [`RunReport`] including the raw
//! [`EngineStats`](engines::EngineStats),
//! [`HierStats`](memhier::HierStats), device-traffic and media-fault
//! counter snapshots, and serialize to a schema-versioned JSON document
//! (see [`write_results_json`]) that CI uploads as an artifact and
//! trajectory tooling can diff across commits.
//!
//! Every runner binary also supports trace modes (`--record DIR` /
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
use trace::{default_txs_per_core, record_workload, RecordOptions, TraceFile, TraceReader};
use workloads::driver::{build_system, Driver, RunReport, Window, ENGINES};
use workloads::WorkloadSpec;

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
    /// byte-identical to older builds.
    pub endurance: bool,
    /// Live / record / replay.
    pub mode: RunMode,
    /// Per-core transactions to record (record mode only). `None` sizes the
    /// depth per trace row; see [`ExperimentPlan::record_traces`].
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

/// One cell of an experiment grid: everything that identifies a run.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Engine name (must be known to `build_system`).
    pub engine: &'static str,
    /// Workload column; its label names the cell in reports and JSON.
    pub workload: WorkloadConfig,
    /// The workload instance, seed included.
    pub spec: WorkloadSpec,
    /// Machine configuration.
    pub sim: SimConfig,
    /// The measurement window.
    pub window: Window,
    /// The trace row the cell replays from (`<trace>.trace` in a pack
    /// directory); every cell of a row must share its `spec`.
    pub trace: String,
    /// The swept parameter's `(name, value)`, exported as the cell's
    /// `param` key; `None` on grids that sweep only engines and workloads.
    pub param: Option<(&'static str, f64)>,
}

impl Cell {
    /// The standard figure cell of `engine` × `workload` at `scale`: the
    /// matrix spec with the row's label-derived seed, the scale's window
    /// with [`min_cycles_for`]'s floor on `sim`, and the row's own trace.
    pub fn new(
        engine: &'static str,
        workload: WorkloadConfig,
        sim: SimConfig,
        scale: Scale,
    ) -> Cell {
        let mut spec = spec_for(workload, scale);
        spec.seed = derive_workload_seed(workload.label);
        Cell {
            engine,
            workload,
            spec,
            sim,
            window: Window {
                warmup: scale.warmup(),
                measured: scale.measured(),
                min_cycles: min_cycles_for(scale, &sim),
            },
            trace: workload.label.to_string(),
            param: None,
        }
    }

    /// The same cell, tagged with the value of the parameter its grid
    /// sweeps.
    pub fn with_param(self, name: &'static str, value: f64) -> Cell {
        Cell {
            param: Some((name, value)),
            ..self
        }
    }
}

/// What a cell attaches besides the measurement itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct Observers {
    /// Audit the whole cell (setup, warmup and measurement) with a
    /// [`PersistencySanitizer`].
    pub sanitize: bool,
    /// Track per-line wear on the cell's device and summarize it.
    pub endurance: bool,
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
    /// engine-specific extras) as a JSON object. The report's traffic and
    /// media snapshots are not serialized.
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

/// A named grid of cells.
#[derive(Clone, Debug)]
pub struct ExperimentPlan {
    /// Experiment name (`fig7`, `table4`, ...) — also the JSON file stem.
    pub name: &'static str,
    /// The cells, in output order.
    pub cells: Vec<Cell>,
    /// The scale the cells were built at (recorded in the JSON document).
    pub scale: Scale,
}

impl ExperimentPlan {
    /// The §IV-A grid of Figs. 7–9: the full workload matrix (including
    /// TPC-C) × every engine.
    pub fn matrix(name: &'static str, sim: SimConfig, scale: Scale) -> ExperimentPlan {
        let cells = MATRIX
            .into_iter()
            .chain([TPCC])
            .flat_map(|wcfg| ENGINES.map(|engine| Cell::new(engine, wcfg, sim, scale)))
            .collect();
        ExperimentPlan::from_cells(name, cells, scale)
    }

    /// A plan over an explicit cell list.
    pub fn from_cells(name: &'static str, cells: Vec<Cell>, scale: Scale) -> ExperimentPlan {
        ExperimentPlan { name, cells, scale }
    }

    /// Executes every cell with `opts` (`--jobs`, `--sanitize`,
    /// `--endurance`, `--record`/`--replay`, `--depth`) and returns results
    /// in plan order. A record run records every trace row first and then
    /// replays it, so it yields what a live run would. Panics (after
    /// joining workers) if any cell failed verification or reported a hard
    /// persistency violation — a corrupted cell must never silently enter
    /// results.
    pub fn run(&self, opts: &RunnerOptions) -> Vec<CellResult> {
        let replay_from = match &opts.mode {
            RunMode::Live => None,
            RunMode::Record(dir) => {
                self.record_traces(dir, opts.jobs, opts.depth);
                Some(dir.as_path())
            }
            RunMode::Replay(dir) => Some(dir.as_path()),
        };
        let observers = Observers {
            sanitize: opts.sanitize,
            endurance: opts.endurance,
        };
        let results = run_parallel(&self.cells, opts.jobs, |cell| {
            let result = run_cell(cell, &observers, replay_from);
            eprintln!("  {}", result.report.summary());
            result
        });
        check_results(&results);
        results
    }

    /// The plan's trace rows, in first-seen order, each with its cells.
    fn trace_rows(&self) -> Vec<Vec<&Cell>> {
        let mut rows: Vec<Vec<&Cell>> = Vec::new();
        for cell in &self.cells {
            match rows.iter_mut().find(|r| r[0].trace == cell.trace) {
                Some(row) => row.push(cell),
                None => rows.push(vec![cell]),
            }
        }
        rows
    }

    /// Records every trace row of the plan into `dir/<trace>.trace`
    /// (engine-blind: one trace per row serves all its cells). `depth`
    /// overrides the per-core stream depth; `None` takes twice the per-core
    /// share of the row's longest window, ×4 when a window extends to a
    /// `min_cycles` floor.
    pub fn record_traces(&self, dir: &Path, jobs: usize, depth: Option<u32>) {
        run_parallel(&self.trace_rows(), jobs, |row| {
            let first = row[0];
            assert!(
                row.iter().all(|c| c.spec == first.spec),
                "trace row {} mixes workload specs",
                first.trace
            );
            let tf = record_workload(
                &first.trace,
                first.spec,
                &first.sim,
                RecordOptions {
                    txs_per_core: depth.unwrap_or_else(|| row_depth(row)),
                    values: false,
                },
            )
            .unwrap_or_else(|e| panic!("recording {}: {e}", first.trace));
            let path = trace_path(dir, &first.trace);
            tf.write_to(&path)
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            eprintln!(
                "  recorded {} ({} events)",
                path.display(),
                tf.event_count()
            );
        });
    }

    /// Serializes `results` (this plan's, in plan order) as the
    /// schema-versioned document written to `results/<name>.json`. A cell
    /// with a swept parameter gets a `param` key right after its `seed`.
    pub fn results_json(&self, results: &[CellResult]) -> Json {
        results_document(self.name, self.scale, [("cells", self.cells_json(results))])
    }

    /// The `cells` array of [`results_json`](ExperimentPlan::results_json).
    fn cells_json(&self, results: &[CellResult]) -> Json {
        let cells = self
            .cells
            .iter()
            .zip(results)
            .map(|(cell, result)| {
                let mut json = result.to_json();
                if let (Some((name, value)), Json::Obj(fields)) = (cell.param, &mut json) {
                    // engine, workload, seed, then the swept value.
                    fields.insert(
                        3,
                        ("param".to_string(), Json::obj([(name, Json::Num(value))])),
                    );
                }
                json
            })
            .collect();
        Json::Arr(cells)
    }

    /// Writes [`results_json`](ExperimentPlan::results_json) to
    /// `results/<name>.json` through [`write_results_json`].
    pub fn write_json(&self, results: &[CellResult]) {
        write_results_json(self.name, self.scale, [("cells", self.cells_json(results))]);
    }
}

/// A schema-versioned results document: the `schema_version`, `experiment`
/// and `scale` envelope, followed by `fields`.
fn results_document(
    experiment: &str,
    scale: Scale,
    fields: impl IntoIterator<Item = (&'static str, Json)>,
) -> Json {
    Json::obj(
        [
            ("schema_version", Json::UInt(RESULT_SCHEMA_VERSION)),
            ("experiment", Json::Str(experiment.to_string())),
            ("scale", Json::Str(scale.name().to_string())),
        ]
        .into_iter()
        .chain(fields),
    )
}

/// Writes [`results_document`]`(experiment, scale, fields)` to
/// `results/<experiment>.json` — the one writer of every results document.
/// Best effort, like [`write_csv`](crate::experiments::write_csv):
/// read-only checkouts only get a warning.
pub fn write_results_json(
    experiment: &str,
    scale: Scale,
    fields: impl IntoIterator<Item = (&'static str, Json)>,
) {
    let doc = results_document(experiment, scale, fields).pretty();
    let dir = Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        eprintln!("warning: cannot create results/, skipping JSON for {experiment}");
        return;
    }
    let path = dir.join(format!("{experiment}.json"));
    if std::fs::write(&path, doc).is_ok() {
        eprintln!("wrote {}", path.display());
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

/// Recorded per-core stream depth of a trace row: twice the balanced
/// per-core share of the longest window among the row's cells. That is exact
/// when no window extends; a window with a `min_cycles` floor can run up to
/// 64× past `measured`, so such a row takes a 4× margin and relies on
/// replay's loud run-dry panic (plus `--depth`) when a workload extends
/// further.
fn row_depth(row: &[&Cell]) -> u32 {
    let total = row
        .iter()
        .map(|c| c.window.warmup + c.window.measured)
        .max()
        .expect("a trace row has cells");
    let base = default_txs_per_core(total, u64::from(row[0].sim.worker_threads));
    if row.iter().any(|c| c.window.min_cycles > 0) {
        base * 4
    } else {
        base
    }
}

/// Runs one cell: builds its machine, attaches `observers`, sets up and
/// measures its window, and summarizes. `replay_from: None` generates the
/// workload live; `Some(dir)` replays `dir/<trace>.trace` instead, after
/// checking the recorded workload identity against the cell's spec. Both
/// produce the same bytes.
pub fn run_cell(cell: &Cell, observers: &Observers, replay_from: Option<&Path>) -> CellResult {
    let trace = replay_from.map(|dir| read_trace(dir, cell));
    let mut sys = build_system(cell.engine, &cell.sim);
    if observers.endurance {
        sys.enable_endurance_tracking();
    }
    let san = observers.sanitize.then(|| {
        let (san, probe) = PersistencySanitizer::shared();
        sys.attach_probe(probe);
        san
    });
    let mut report = match &trace {
        None => {
            let mut driver = Driver::new(cell.spec, &cell.sim);
            driver.setup(&mut sys);
            driver.measure(&mut sys, cell.window)
        }
        Some(tf) => trace::replay(&mut sys, tf, cell.window),
    };
    report.workload = cell.workload.label.to_string();
    let endurance = observers.endurance.then(|| {
        EnduranceSummary::from_map(
            sys.engine()
                .device()
                .endurance()
                .expect("endurance tracking enabled"),
        )
    });
    CellResult {
        engine: cell.engine,
        workload: cell.workload.label,
        seed: cell.spec.seed,
        report,
        sanitizer: san.map(|s| s.lock().expect("sanitizer poisoned").summary()),
        endurance,
    }
}

/// Reads the cell's trace row from `dir`, panicking with a regeneration
/// hint if it is missing, unreadable, or stale.
fn read_trace(dir: &Path, cell: &Cell) -> TraceFile {
    let path = trace_path(dir, &cell.trace);
    let tf = TraceReader::read(&path).unwrap_or_else(|e| {
        panic!(
            "{e}\n(replaying {}; regenerate the pack with `cargo run -p xtask -- trace`)",
            path.display()
        )
    });
    assert_eq!(
        tf.header.spec,
        cell.spec,
        "{} is stale: recorded workload identity {:?} != expected {:?}; \
         regenerate with `cargo run -p xtask -- trace`",
        path.display(),
        tf.header.spec,
        cell.spec
    );
    tf
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

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cell(engine: &'static str, workload: WorkloadConfig) -> Cell {
        Cell::new(engine, workload, SimConfig::small_for_tests(), Scale::Quick)
    }

    fn quick_plan(name: &'static str, cells: Vec<Cell>) -> ExperimentPlan {
        ExperimentPlan::from_cells(name, cells, Scale::Quick)
    }

    fn live(jobs: usize) -> RunnerOptions {
        RunnerOptions::live(Scale::Quick, jobs)
    }

    /// The determinism contract: a 2×2 Quick sub-matrix must produce
    /// byte-identical JSON under serial and parallel execution.
    #[test]
    fn jobs1_and_jobs4_produce_identical_json() {
        let cells: Vec<Cell> = ["HOOP", "Opt-Redo"]
            .into_iter()
            .flat_map(|engine| {
                [MATRIX[0], MATRIX[2]]
                    .into_iter()
                    .map(move |workload| quick_cell(engine, workload))
            })
            .collect();
        let plan = quick_plan("determinism", cells);
        let serial = plan.results_json(&plan.run(&live(1))).pretty();
        let parallel = plan.results_json(&plan.run(&live(4))).pretty();
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
        assert_eq!(quick_cell("HOOP", MATRIX[0]).spec.seed, a);
        assert_eq!(quick_cell("LAD", MATRIX[0]).spec.seed, a);
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
    /// a live run — with and without `--endurance`, so replayed wear
    /// summaries equal live ones too.
    #[test]
    fn record_replay_json_matches_live_json() {
        let cells: Vec<Cell> = ["HOOP", "LAD", "Ideal"]
            .into_iter()
            .map(|engine| quick_cell(engine, MATRIX[0]))
            .collect();
        let plan = quick_plan("trace-ab", cells);
        let dir = std::env::temp_dir().join("hoop-trace-ab-test");
        std::fs::create_dir_all(&dir).expect("temp trace dir");
        for endurance in [false, true] {
            let mut opts = live(2);
            opts.endurance = endurance;
            let live_doc = plan.results_json(&plan.run(&opts)).pretty();
            assert_eq!(live_doc.contains("\"endurance\""), endurance);
            opts.mode = RunMode::Record(dir.clone());
            let recorded = plan.results_json(&plan.run(&opts)).pretty();
            opts.mode = RunMode::Replay(dir.clone());
            let replayed = plan.results_json(&plan.run(&opts)).pretty();
            assert_eq!(live_doc, recorded, "endurance={endurance}");
            assert_eq!(live_doc, replayed, "endurance={endurance}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "regenerate")]
    fn replaying_a_missing_pack_names_the_fix() {
        let _ = run_cell(
            &quick_cell("HOOP", MATRIX[0]),
            &Observers::default(),
            Some(Path::new("/nonexistent-trace-pack")),
        );
    }

    /// The per-row recording depth reproduces both grids' historical
    /// depths: twice the balanced share of warmup + measured, ×4 at full
    /// scale (whose windows extend), and Table IV's largest count.
    #[test]
    fn row_depth_covers_the_longest_window() {
        let sim = SimConfig::default();
        let workers = u64::from(sim.worker_threads);
        for scale in [Scale::Quick, Scale::Full] {
            let cell = Cell::new("HOOP", MATRIX[0], sim, scale);
            let base = default_txs_per_core(scale.warmup() + scale.measured(), workers);
            let want = if scale == Scale::Full { base * 4 } else { base };
            assert_eq!(row_depth(&[&cell]), want, "{scale:?}");
        }
        let fixed = |measured| Cell {
            window: Window::new(0, measured),
            ..Cell::new("HOOP", MATRIX[0], sim, Scale::Quick)
        };
        let (short, long) = (fixed(10), fixed(1000));
        assert_eq!(
            row_depth(&[&short, &long]),
            default_txs_per_core(1000, workers)
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
        let plan = quick_plan("wear", vec![quick_cell("HOOP", MATRIX[2])]);
        let plain = plan.run(&live(1));
        assert!(plain[0].endurance.is_none());
        assert!(!plan.results_json(&plain).pretty().contains("\"endurance\""));
        let mut opts = live(1);
        opts.endurance = true;
        let tracked = plan.run(&opts);
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
        let doc = plan.results_json(&tracked).pretty();
        for key in ["\"endurance\"", "\"max_line_writes\"", "\"skew\""] {
            assert!(doc.contains(key), "missing {key}");
        }
    }

    #[test]
    fn cell_result_json_is_schema_versioned() {
        let plan = quick_plan("schema", vec![quick_cell("Ideal", MATRIX[0])]);
        let doc = plan.results_json(&plan.run(&live(1))).pretty();
        assert!(doc.starts_with("{\n  \"schema_version\": 1,"));
        for key in [
            "\"metrics\"",
            "\"engine_stats\"",
            "\"hier_stats\"",
            "\"seed\"",
        ] {
            assert!(doc.contains(key), "missing {key} in {doc}");
        }
        assert!(!doc.contains("\"param\""), "no swept parameter, no key");
    }

    /// A swept cell exports its parameter right after its seed; the rest of
    /// the cell's object is unchanged.
    #[test]
    fn swept_cells_export_their_param() {
        let plain = quick_plan("sweep", vec![quick_cell("Ideal", MATRIX[0])]);
        let swept = quick_plan(
            "sweep",
            vec![quick_cell("Ideal", MATRIX[0]).with_param("read_ns", 150.0)],
        );
        let results = plain.run(&live(1));
        let before = plain.results_json(&results).pretty();
        let after = swept.results_json(&results).pretty();
        let seed = format!("\"seed\": {},\n", results[0].seed);
        let param = "      \"param\": {\n        \"read_ns\": 150\n      },\n";
        assert!(after.contains(&format!("{seed}{param}")), "{after}");
        assert_eq!(after.replacen(param, "", 1), before);
    }
}
