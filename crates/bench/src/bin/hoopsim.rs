//! `hoopsim` — command-line front end for the HOOP simulator.
//!
//! ```text
//! hoopsim run      --engine HOOP --workload ycsb --txs 20000 [--item-bytes 1024] [--sanitize]
//! hoopsim compare  --workload hashmap [--txs 10000]
//! hoopsim recover  [--threads 8] [--bandwidth 25]
//! hoopsim trace    --workload vector --txs 2000 --out vector.trace
//! hoopsim replay   --engine LAD --in vector.trace --txs 2000
//! hoopsim area
//! hoopsim list
//! ```
//!
//! `trace` records the workload `run` would generate into a binary trace
//! file holding twice each core's balanced share of `--txs` plus warmup;
//! `replay` runs that window from the file (the header carries the workload
//! spec) and prints the same lines `run` prints for the same engine,
//! workload and `--txs`. A run whose scheduling skews further than that
//! (the trees at a few hundred txs) runs the trace dry and panics; record
//! with a larger `--txs` and replay the smaller one.

use std::path::Path;

use hoop::area::{area_overhead, ReferencePackage};
use hoop::recovery::model_recovery_ms;
use hoop_bench::runner::{run_cell, Cell, ExperimentPlan, Observers, RunnerOptions};
use hoop_bench::{Scale, WorkloadConfig};
use simcore::config::SimConfig;
use simcore::det::DetHashMap;
use trace::{
    default_txs_per_core, record_workload, replay_cell, RecordOptions, ReplayWindow, TraceError,
    TraceReader,
};
use workloads::driver::{RunReport, Window, ENGINES};
use workloads::{WorkloadKind, WorkloadSpec};

fn parse_args() -> (String, DetHashMap<String, String>) {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_else(|| "help".into());
    let mut opts = DetHashMap::default();
    let mut key: Option<String> = None;
    for a in args {
        if let Some(k) = a.strip_prefix("--") {
            if let Some(prev) = key.take() {
                opts.insert(prev, "true".into());
            }
            key = Some(k.to_string());
        } else if let Some(k) = key.take() {
            opts.insert(k, a);
        }
    }
    if let Some(prev) = key.take() {
        opts.insert(prev, "true".into());
    }
    (cmd, opts)
}

fn kind_of(name: &str) -> WorkloadKind {
    match name {
        "vector" => WorkloadKind::Vector,
        "hashmap" => WorkloadKind::Hashmap,
        "queue" => WorkloadKind::Queue,
        "rbtree" => WorkloadKind::RbTree,
        "btree" => WorkloadKind::BTree,
        "ycsb" => WorkloadKind::Ycsb,
        "tpcc" => WorkloadKind::Tpcc,
        other => {
            eprintln!("unknown workload '{other}' (see `hoopsim list`)");
            std::process::exit(2);
        }
    }
}

fn spec_from(opts: &DetHashMap<String, String>) -> WorkloadSpec {
    let kind = kind_of(
        opts.get("workload")
            .map(String::as_str)
            .unwrap_or("hashmap"),
    );
    let mut spec = WorkloadSpec::small(kind);
    if let Some(v) = opts.get("item-bytes") {
        spec.item_bytes = v.parse().expect("--item-bytes takes a number");
    }
    if let Some(v) = opts.get("items") {
        spec.items = v.parse().expect("--items takes a number");
    } else {
        spec.items = 4096;
    }
    if let Some(v) = opts.get("seed") {
        spec.seed = v.parse().expect("--seed takes a number");
    }
    spec
}

fn u64_opt(opts: &DetHashMap<String, String>, key: &str, default: u64) -> u64 {
    opts.get(key)
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("--{key} takes a number"))
        })
        .unwrap_or(default)
}

fn engine_of(name: &str) -> &'static str {
    ENGINES
        .into_iter()
        .chain(["HOOP-MC2", "HOOP-MC4"])
        .find(|e| *e == name)
        .unwrap_or_else(|| {
            eprintln!("unknown engine '{name}' (see `hoopsim list`)");
            std::process::exit(2);
        })
}

/// The cell `run` and `compare` measure: `spec` on the default machine,
/// warming up with a tenth of `txs` before measuring `txs`.
fn cell(engine: &'static str, spec: WorkloadSpec, txs: u64) -> Cell {
    let label = spec.kind.name();
    Cell {
        engine,
        workload: WorkloadConfig {
            label,
            kind: spec.kind,
            item_bytes: spec.item_bytes,
        },
        spec,
        sim: SimConfig::default(),
        window: Window::new(txs / 10, txs),
        trace: label.to_string(),
        param: None,
    }
}

/// Default `--txs` of `run`, `compare`, `trace` and `replay`.
const DEFAULT_TXS: u64 = 10_000;

fn exit_on_trace_error(path: &str, e: TraceError) -> ! {
    eprintln!("{path}: {e}");
    std::process::exit(1);
}

fn print_report(r: &RunReport) {
    println!("{}", r.summary());
    println!(
        "  miss_ratio={:.3}  loads/miss={:.2}  gc_reduction={:.3}  verify_errors={}",
        r.llc_miss_ratio, r.loads_per_miss, r.gc_reduction, r.verify_errors
    );
}

fn main() {
    let (cmd, opts) = parse_args();
    match cmd.as_str() {
        "run" => {
            let engine = engine_of(opts.get("engine").map(String::as_str).unwrap_or("HOOP"));
            let spec = spec_from(&opts);
            let txs = u64_opt(&opts, "txs", DEFAULT_TXS);
            let observers = Observers {
                sanitize: opts.contains_key("sanitize"),
                endurance: false,
            };
            let result = run_cell(&cell(engine, spec, txs), &observers, None);
            print_report(&result.report);
            if let Some(s) = result.sanitizer {
                println!(
                    "  sanitizer: {} events, {} lines, {} violation(s), {} redundant flush(es)",
                    s.events, s.lines_tracked, s.violations, s.redundant_flushes
                );
                for sample in &s.samples {
                    println!("    {sample}");
                }
                if !s.is_clean() {
                    std::process::exit(1);
                }
            }
        }
        "compare" => {
            let spec = spec_from(&opts);
            let txs = u64_opt(&opts, "txs", DEFAULT_TXS);
            let cells = ENGINES.map(|engine| cell(engine, spec, txs)).to_vec();
            let plan = ExperimentPlan::from_cells("compare", cells, Scale::Quick);
            let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
            for result in plan.run(&RunnerOptions::live(Scale::Quick, jobs)) {
                println!("{}", result.report.summary());
            }
        }
        "recover" => {
            let threads = u64_opt(&opts, "threads", 8) as usize;
            let bw = opts
                .get("bandwidth")
                .map(|v| v.parse().expect("--bandwidth takes GB/s"))
                .unwrap_or(25.0);
            println!(
                "modeled recovery of 1 GB OOP region: {:.1} ms ({threads} threads, {bw} GB/s)",
                model_recovery_ms(1 << 30, 64 << 20, threads, bw)
            );
        }
        "trace" => {
            let spec = spec_from(&opts);
            let txs = u64_opt(&opts, "txs", DEFAULT_TXS);
            let out = opts
                .get("out")
                .cloned()
                .unwrap_or_else(|| "hoopsim.trace".into());
            let cfg = SimConfig::default();
            let record_opts = RecordOptions {
                txs_per_core: default_txs_per_core(txs + txs / 10, u64::from(cfg.worker_threads)),
                values: false,
            };
            let tf = record_workload(&spec.kind.to_string(), spec, &cfg, record_opts)
                .unwrap_or_else(|e| exit_on_trace_error(&out, e));
            if let Err(e) = tf.write_to(Path::new(&out)) {
                exit_on_trace_error(&out, e);
            }
            println!(
                "recorded {} events ({} txs on each of {} cores) -> {out}",
                tf.event_count(),
                tf.header.txs_per_core,
                tf.header.workers
            );
        }
        "replay" => {
            let engine = opts.get("engine").map(String::as_str).unwrap_or("HOOP");
            let input = opts
                .get("in")
                .cloned()
                .unwrap_or_else(|| "hoopsim.trace".into());
            let txs = u64_opt(&opts, "txs", DEFAULT_TXS);
            let tf = TraceReader::read(Path::new(&input))
                .unwrap_or_else(|e| exit_on_trace_error(&input, e));
            let window = ReplayWindow {
                warmup: txs / 10,
                measured: txs,
                min_cycles: 0,
            };
            let (r, _) = replay_cell(&tf, engine, &SimConfig::default(), window, false);
            print_report(&r);
        }
        "area" => {
            let rep = area_overhead(&SimConfig::default(), &ReferencePackage::default());
            println!(
                "mapping {} KB + evict {} KB + buffers {} KB + pbits {} KB -> {:.2} % overhead (paper 4.25 %)",
                rep.mapping_table_bytes / 1024,
                rep.eviction_buffer_bytes / 1024,
                rep.oop_buffer_bytes / 1024,
                rep.persistent_bit_bytes / 1024,
                rep.overhead_percent
            );
        }
        "list" => {
            println!("engines:   {}", ENGINES.join(", "));
            println!("           HOOP-MC2, HOOP-MC4 (multi-controller, §III-I)");
            println!("workloads: vector, hashmap, queue, rbtree, btree, ycsb, tpcc");
        }
        _ => {
            println!("hoopsim — HOOP NVM simulator CLI");
            println!("commands: run, compare, recover, trace, replay, area, list");
            println!("see the module docs of crates/bench/src/bin/hoopsim.rs for flags");
        }
    }
}
