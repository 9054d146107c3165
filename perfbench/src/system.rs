//! The `System` workloads, each over all seven engines: write-hashmap,
//! read-ycsb and tree-btree generate their transactions live;
//! replay-hashmap replays write-hashmap's cells from a trace recorded at
//! the start of the run.

use std::sync::Arc;

use engines::system::System;
use hoop_bench::experiments::{spec_for, Scale};
use hoop_bench::json::Json;
use hoop_bench::runner::{min_cycles_for, CellResult};
use simcore::CoreId;
use trace::{record_workload, replay_cell, RecordOptions, ReplayWindow, TraceFile, TraceReader};
use workloads::driver::{build_system, Driver, RunReport, ENGINES};
use workloads::WorkloadSpec;

use crate::host::{digest, geomean, median, median_build, timed, Checks, Reference, SETUP_REPS};
use crate::layers::{costs, trace_stream};
use crate::observer::{build_engine, Method, Phase, Probe, TimedEngine, TraceLog};
use crate::workloads::{
    round_robin, DeviceView, EndToEnd, Layers, Medians, Outcome, Run, Sample, Workload,
    LAYER_METHODS,
};

/// The figure harness's full-scale Fig. 7 cells. At the default seeds the
/// write-hashmap, tree-btree and replay-hashmap cells must equal them.
const FIG7: &str = include_str!("../../results/fig7.json");

fn spec(run: &Run) -> WorkloadSpec {
    let column = run.workload.column();
    let mut spec = spec_for(column, run.size.scale);
    spec.seed = run.seed();
    if run.workload == Workload::ReadYcsb {
        spec.update_fraction = 0.2;
    }
    spec
}

fn label(run: &Run) -> &'static str {
    run.workload.column().label
}

fn window(run: &Run) -> ReplayWindow {
    let scale = run.size.scale;
    ReplayWindow {
        warmup: scale.warmup(),
        measured: scale.measured(),
        min_cycles: min_cycles_for(scale, &run.size.sim),
    }
}

/// Per-core depth of replay-hashmap's trace: the balanced share of the
/// longest window `run_until` can issue (its `min_cycles` extension stops at
/// 64× `measured`), plus a quarter for scheduling skew. A trace that runs
/// dry panics, which fails the cell.
fn replay_depth(run: &Run) -> u32 {
    let w = window(run);
    let measured = if w.min_cycles > 0 {
        w.measured * 64
    } else {
        w.measured
    };
    let per_core = (w.warmup + measured).div_ceil(u64::from(run.size.sim.worker_threads));
    (per_core + per_core / 4 + 1) as u32
}

fn cell_json(run: &Run, report: &RunReport) -> Json {
    CellResult {
        engine: report.engine,
        workload: label(run),
        seed: run.seed(),
        report: report.clone(),
        sanitizer: None,
        endurance: None,
    }
    .to_json()
}

fn report_digest(run: &Run, report: &RunReport) -> u64 {
    digest(cell_json(run, report).pretty().as_bytes())
}

/// One executed cell.
struct Cell {
    sample: Sample,
    report: RunReport,
    issued: Vec<u64>,
    device: DeviceView,
    /// Nanoseconds inside engine calls during the timed phases (traced).
    engine_ns: u64,
}

fn machine(engine: &str, run: &Run, probe: Option<&Arc<Probe>>) -> System {
    match probe {
        None => build_system(engine, &run.size.sim),
        Some(p) => System::new(
            Box::new(TimedEngine::new(
                build_engine(engine, &run.size.sim),
                p.clone(),
            )),
            &run.size.sim,
        ),
    }
}

/// A live cell: `build_system` + `Driver::setup` is set-up (timed
/// [`SETUP_REPS`] times, once behind the observer), `run_until` (warmup,
/// drain, measured window, drain, verify) is the timed phase, between two
/// measurements of `reference`.
fn live_cell(
    engine: &str,
    run: &Run,
    probe: Option<&Arc<Probe>>,
    reference: &mut Reference,
) -> Cell {
    let reps = if probe.is_some() { 1 } else { SETUP_REPS };
    let ((mut sys, mut driver), setup_s) = median_build(reps, || {
        let mut sys = machine(engine, run, probe);
        let mut driver = Driver::new(spec(run), &run.size.sim);
        driver.setup(&mut sys);
        (sys, driver)
    });
    if let Some(p) = probe {
        p.set_phase(Phase::Warmup);
    }
    let before = probe.map_or(0, |p| p.total_nanos());
    let w = window(run);
    let (report, sample) = Sample::time(reference, setup_s, || {
        driver.run_until(&mut sys, w.warmup, w.measured, w.min_cycles)
    });
    Cell {
        sample,
        report,
        issued: driver.issued_per_core().to_vec(),
        device: DeviceView::of(sys.engine()),
        engine_ns: probe.map_or(0, |p| p.total_nanos() - before),
    }
}

/// A recorded, encoded and decoded trace with the time each step took.
struct Prep {
    tf: TraceFile,
    record_s: f64,
    encode_s: f64,
    decode_s: f64,
    bytes: usize,
    /// record + encode + decode seconds of every repetition.
    setup_s: Vec<f64>,
    /// The same at the reference speed, scaled by the reference
    /// measurement just before the repetition.
    setup_nominal_s: Vec<f64>,
}

fn prepare(run: &Run, depth: u32, reps: usize, reference: &mut Reference) -> Prep {
    let (mut setup_s, mut setup_nominal_s) = (Vec::new(), Vec::new());
    let mut last: Option<Prep> = None;
    for _ in 0..reps {
        drop(last.take());
        let ref_s = reference.time();
        let opts = RecordOptions {
            txs_per_core: depth,
            values: false,
        };
        let (tf, record_s) = timed(|| {
            record_workload(label(run), spec(run), &run.size.sim, opts).expect("workload records")
        });
        let (bytes, encode_s) = timed(|| tf.encode());
        drop(tf);
        let (tf, decode_s) = timed(|| TraceReader::decode(&bytes).expect("trace decodes"));
        setup_s.push(record_s + encode_s + decode_s);
        setup_nominal_s.push(Reference::at_nominal_speed(
            record_s + encode_s + decode_s,
            ref_s,
        ));
        last = Some(Prep {
            tf,
            record_s,
            encode_s,
            decode_s,
            bytes: bytes.len(),
            setup_s: Vec::new(),
            setup_nominal_s: Vec::new(),
        });
    }
    let mut prep = last.expect("at least one repetition");
    prep.setup_s = setup_s;
    prep.setup_nominal_s = setup_nominal_s;
    prep
}

/// Host seconds of generating `per_core[c]` transactions on each core with
/// a capture-only machine (no hierarchy, engine or timing).
fn generation_s(run: &Run, per_core: &[u64]) -> f64 {
    let mut sys = System::new_capture(&run.size.sim);
    let mut driver = Driver::new(spec(run), &run.size.sim);
    driver.setup(&mut sys);
    let ((), s) = timed(|| {
        for (c, &n) in per_core.iter().enumerate() {
            for _ in 0..n {
                driver.run_one(&mut sys, CoreId(c as u8));
            }
        }
    });
    s
}

type Samples = Vec<(Sample, Cell)>;

/// Runs a `System` workload, timing `reference` around every cell's timed
/// phase.
pub fn run(run: &Run, reference: &mut Reference) -> Outcome {
    let mut out = Outcome::default();
    let checks = &mut out.checks;
    // Replay must equal live: one engine per run, rotating with the seed,
    // also runs live. It runs before the trace exists, so the two never
    // share the peak memory.
    let live_reference = (run.workload == Workload::ReplayHashmap).then(|| {
        let i = (run.seed() % ENGINES.len() as u64) as usize;
        (
            i,
            checks.guard("live reference cell", || {
                live_cell(ENGINES[i], run, None, reference)
            }),
        )
    });
    let prep = if run.workload == Workload::ReplayHashmap {
        match checks.guard("record the trace", || {
            prepare(run, replay_depth(run), SETUP_REPS, reference)
        }) {
            Some(p) => Some(p),
            None => return out,
        }
    } else {
        None
    };

    let (cells, rss_mib): (Vec<Samples>, f64) =
        round_robin(ENGINES.len(), run.seconds, reference, |i, r| {
            let engine = ENGINES[i];
            let cell = checks.guard(engine, || match &prep {
                None => live_cell(engine, run, None, r),
                Some(p) => {
                    let ((report, _), sample) = Sample::time(r, 0.0, || {
                        replay_cell(&p.tf, engine, &run.size.sim, window(run), false)
                    });
                    Cell {
                        sample,
                        report,
                        issued: Vec::new(),
                        device: DeviceView::default(),
                        engine_ns: 0,
                    }
                }
            })?;
            Some((cell.sample, cell))
        });

    let first: Vec<Option<&RunReport>> = cells
        .iter()
        .map(|c| c.first().map(|(_, cell)| &cell.report))
        .collect();
    for (engine, samples) in ENGINES.iter().zip(&cells) {
        // Only a live cell runs the workload's `verify()`; a replayed one
        // is checked against live below and against Fig. 7.
        for (_, cell) in samples.iter().filter(|_| prep.is_none()) {
            let errors = cell.report.verify_errors;
            checks.check(errors == 0, || format!("{engine}: {errors} verify errors"));
        }
        for (_, cell) in samples.iter().skip(1) {
            checks.check(
                report_digest(run, &cell.report) == report_digest(run, &samples[0].1.report),
                || format!("{engine}: a repeated cell reported differently"),
            );
        }
    }
    if let Some((i, Some(live))) = &live_reference {
        checks.check(
            first[*i].is_some_and(|r| report_digest(run, r) == report_digest(run, &live.report)),
            || format!("{}: replay differs from live", ENGINES[*i]),
        );
    }
    let fig7_workload = matches!(
        run.workload,
        Workload::WriteHashmap | Workload::TreeBtree | Workload::ReplayHashmap
    );
    // The Fig. 7 cells are full scale at the default seeds.
    if run.size.scale == Scale::Full && run.seed.is_none() && fig7_workload {
        check_fig7(run, &first, checks);
    }

    let med: Vec<Medians> = cells.iter().map(|c| Medians::of(c)).collect();
    let reports: Vec<&RunReport> = first.iter().flatten().copied().collect();
    let hoop = first[engine_index("HOOP")];
    let redo = first[engine_index("Opt-Redo")];
    let wall_s: f64 = med.iter().map(|m| m.run_s).sum();
    out.end_to_end = EndToEnd {
        wall_s,
        host_s: med.iter().map(|m| m.host_s).sum(),
        setup_s: match &prep {
            Some(p) => median(&p.setup_nominal_s),
            None => med.iter().map(|m| m.setup_s).sum(),
        },
        peak_rss_mib: rss_mib - Reference::MIB,
        sim_events: reports
            .iter()
            .map(|r| r.hier_stats.accesses.get() as f64)
            .sum(),
        sim_tx_per_ms: geomean(reports.iter().map(|r| r.throughput_tx_per_ms)),
        sim_tx_latency_cycles: geomean(reports.iter().map(|r| r.avg_tx_latency)),
        sim_write_bytes_per_tx: geomean(reports.iter().map(|r| r.write_bytes_per_tx)),
        hoop_tx_per_ms: hoop.map_or(0.0, |r| r.throughput_tx_per_ms),
        hoop_write_bytes_per_tx: hoop.map_or(0.0, |r| r.write_bytes_per_tx),
        hoop_gc_reduction: hoop.map_or(0.0, |r| r.gc_reduction),
    };
    let mut all_cells = String::new();
    for r in &reports {
        all_cells.push_str(&cell_json(run, r).pretty());
    }
    let run_digest = digest(all_cells.as_bytes());
    out.detail.push(("report_digest", Json::UInt(run_digest)));
    out.detail.push((
        "cells",
        Json::Arr(
            ENGINES
                .iter()
                .zip(&cells)
                .map(|(engine, samples)| {
                    Json::obj([
                        ("engine", Json::Str(engine.to_string())),
                        (
                            "samples",
                            Json::Arr(
                                samples
                                    .iter()
                                    .map(|(s, _)| {
                                        Json::obj([
                                            ("setup_s", Json::Num(s.setup_s)),
                                            ("run_s", Json::Num(s.run_s)),
                                            ("ref_s", Json::Num(s.ref_s)),
                                            ("ref_after_s", Json::Num(s.ref_after_s)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                        (
                            "report",
                            samples
                                .first()
                                .map_or(Json::Null, |(_, c)| cell_json(run, &c.report)),
                        ),
                    ])
                })
                .collect(),
        ),
    ));
    if let Some(p) = &prep {
        out.detail.push((
            "trace_setup_s",
            Json::Arr(p.setup_s.iter().map(|s| Json::Num(*s)).collect()),
        ));
    }

    if run.trace {
        let mut layers = Layers {
            report_digest: run_digest as f64,
            ..Layers::default()
        };
        simulated_layers(&first, &mut layers);
        if let (Some(h), Some(r)) = (hoop, redo) {
            layers.paper_hoop_over_redo_tx_per_ms = h.throughput_tx_per_ms / r.throughput_tx_per_ms;
            layers.paper_redo_over_hoop_write_bytes = r.write_bytes_per_tx / h.write_bytes_per_tx;
        }
        for (i, m) in med.iter().enumerate() {
            layers.engine_host_frac[i] = m.run_s / wall_s;
        }
        let mut log = TraceLog::new();
        if let Some(traced) = traced_pass(
            run,
            &cells,
            prep.as_ref(),
            reference,
            &mut layers,
            &mut log,
            checks,
        ) {
            layers.tracing_overhead_frac = traced / wall_s - 1.0;
        }
        out.detail.push(("trace", log.to_json()));
        out.layers = Some(layers);
    }
    out
}

fn engine_index(name: &str) -> usize {
    ENGINES
        .iter()
        .position(|e| *e == name)
        .expect("a known engine")
}

fn check_fig7(run: &Run, first: &[Option<&RunReport>], checks: &mut Checks) {
    let doc = Json::parse(FIG7).unwrap_or(Json::Null);
    let cells = doc.get("cells").and_then(Json::as_arr).unwrap_or(&[]);
    for report in first.iter().flatten() {
        let reference = cells.iter().find(|c| {
            c.get("engine").and_then(Json::as_str) == Some(report.engine)
                && c.get("workload").and_then(Json::as_str) == Some(label(run))
        });
        checks.check(
            reference.map(Json::pretty) == Some(cell_json(run, report).pretty()),
            || format!("{}: differs from results/fig7.json", report.engine),
        );
    }
}

/// Simulated per-layer counters from the untraced cells' reports.
fn simulated_layers(first: &[Option<&RunReport>], l: &mut Layers) {
    for r in first.iter().flatten() {
        let h = &r.hier_stats;
        let counts = [
            h.accesses,
            h.l1_hits,
            h.l2_hits,
            h.llc_hits,
            h.llc_misses,
            h.dirty_evictions,
        ];
        for (sum, c) in l.memhier.iter_mut().zip(counts) {
            *sum += c.get() as f64;
        }
    }
    if let Some(h) = first[engine_index("HOOP")] {
        let s = &h.engine_stats;
        l.hoop_commit_stall_cycles = s.commit_stall_cycles.get() as f64;
        l.hoop_store_overhead_cycles = s.store_overhead_cycles.get() as f64;
        l.hoop_gc_runs = s.gc_runs.get() as f64;
        l.hoop_parallel_read_fraction = h.parallel_read_fraction;
        l.hoop_loads_per_miss = h.loads_per_miss;
        l.nvm_hoop_energy_pj_per_tx = h.energy_pj_per_tx;
    }
}

/// Reruns every live cell once behind the observer. Fills the
/// engine-boundary layers and returns the traced timed-phase seconds summed
/// over engines.
fn traced_cells(
    run: &Run,
    untraced: &[Samples],
    reference: &mut Reference,
    l: &mut Layers,
    log: &mut TraceLog,
    root: usize,
    checks: &mut Checks,
) -> f64 {
    let (mut traced_s, mut engine_s) = (0.0, 0.0);
    let mut nanos = [0u64; LAYER_METHODS.len()];
    for (i, engine) in ENGINES.iter().enumerate() {
        let start = log.now_ns();
        let probe = Probe::new(log.origin());
        let cell = checks.guard(&format!("traced {engine}"), || {
            live_cell(engine, run, Some(&probe), reference)
        });
        let end = log.now_ns();
        let Some(cell) = cell else { continue };
        let last = log.push_cell(&format!("cell {engine}"), Some(root), &probe, start, end);
        // `run_until` verifies after its final drain.
        let verify_from = probe
            .spans()
            .iter()
            .rev()
            .find(|c| c.method == Method::Drain)
            .map_or(end, |c| c.end_ns);
        log.push("verify", Some(last), verify_from, end);
        let reference = untraced[i]
            .first()
            .map(|(_, c)| report_digest(run, &c.report));
        checks.check(reference == Some(report_digest(run, &cell.report)), || {
            format!("traced {engine}: report differs from the untraced cell")
        });
        let timed_phases = [Phase::Warmup, Phase::Measured];
        for (k, m) in LAYER_METHODS.iter().enumerate() {
            for phase in timed_phases {
                l.method_calls[k] += probe.calls(phase, *m) as f64;
                nanos[k] += probe.nanos(phase, *m);
            }
        }
        let cell_engine_s = cell.engine_ns as f64 / 1e9;
        l.engine_self_frac[i] = cell_engine_s / cell.sample.run_s;
        traced_s += cell.sample.run_s;
        engine_s += cell_engine_s;
        if *engine == "HOOP" {
            let gc_ns: u64 = timed_phases
                .iter()
                .map(|&p| probe.nanos(p, Method::Tick) + probe.nanos(p, Method::Drain))
                .sum();
            l.hoop_gc_host_s = gc_ns as f64 / 1e9;
            l.nvm_hoop_written = cell.device.written.map(|b| b as f64);
            l.nvm_hoop_read_bytes = cell.device.read as f64;
            l.nvm_hoop_row_hit_ratio = cell.device.row_hit_ratio;
            l.nvm_hoop_utilization = cell.device.utilization;
        }
    }
    l.engine_host_s = engine_s;
    l.system_self_host_s = traced_s - engine_s;
    for (k, ns) in nanos.iter().enumerate() {
        l.method_frac[k] = *ns as f64 / 1e9 / traced_s;
    }
    traced_s
}

/// The traced run: the live cells behind the observer, then generation,
/// recording and the standalone layer replays. Returns the traced
/// timed-phase seconds, or `None` on replay-hashmap: `replay_cell` builds
/// its own machine, so a replayed engine cannot sit behind the observer.
/// Replay equals live, so write-hashmap's traced run gives the same engine
/// work's breakdown; here the engine-boundary metrics stay 0.
fn traced_pass(
    run: &Run,
    untraced: &[Samples],
    prep: Option<&Prep>,
    reference: &mut Reference,
    l: &mut Layers,
    log: &mut TraceLog,
    checks: &mut Checks,
) -> Option<f64> {
    let root = log.push("traced", None, log.now_ns(), 0);
    let traced_s = prep
        .is_none()
        .then(|| traced_cells(run, untraced, reference, l, log, root, checks));

    // Generation alone, for the per-core counts the untraced cells issued
    // (replay-hashmap: the depth it recorded).
    let workers = run.size.sim.worker_threads as usize;
    let per_core: Vec<u64> = match prep {
        Some(_) => vec![u64::from(replay_depth(run)); workers],
        None => (0..workers)
            .map(|c| {
                untraced
                    .iter()
                    .filter_map(|s| s.first().and_then(|(_, cell)| cell.issued.get(c).copied()))
                    .max()
                    .unwrap_or(0)
            })
            .collect(),
    };
    let start = log.now_ns();
    l.gen_host_s = generation_s(run, &per_core);
    log.push("generate", Some(root), start, log.now_ns());

    // The trace the layer replays read: replay-hashmap's own, else a
    // recording of each core's first `stream_txs` transactions.
    let start = log.now_ns();
    let small;
    let p = match prep {
        Some(p) => p,
        None => {
            let depth = run
                .size
                .stream_txs
                .min(per_core.iter().copied().max().unwrap_or(0) as usize);
            small = prepare(run, depth as u32, 1, reference);
            &small
        }
    };
    log.push("record+encode+decode", Some(root), start, log.now_ns());
    let events = p.tf.event_count() as f64;
    l.trace_events = events;
    l.trace_bytes = p.bytes as f64;
    l.trace_record_events_per_s = events / p.record_s;
    l.trace_encode_mb_per_s = p.bytes as f64 / 1e6 / p.encode_s;
    l.trace_decode_mb_per_s = p.bytes as f64 / 1e6 / p.decode_s;

    let start = log.now_ns();
    let stream = trace_stream(&p.tf, run.size.stream_txs);
    [
        l.memhier_replay_ns_per_access,
        l.nvm_device_replay_ns_per_access,
        l.nvm_store_replay_ns_per_byte,
    ] = costs(&stream, &run.size.sim);
    log.push("layer replays", Some(root), start, log.now_ns());
    log.end(root, log.now_ns());
    traced_s
}
