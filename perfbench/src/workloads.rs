//! The benchmark's workloads, its measurement loop, and the metric sets
//! every workload reports.
//!
//! Every workload is a closed loop: one client thread runs cells back to
//! back. A cell is one engine's complete run (set-up, warmup, drain,
//! measured window, drain, verify), so host caches start cold for each
//! cell. The loop runs one full pass over its cells, then further cells
//! while each is predicted to finish inside the run's `--seconds`.

use std::time::Instant;

use engines::PersistenceEngine;
use hoop_bench::experiments::{Scale, WorkloadConfig, MATRIX};
use hoop_bench::json::Json;
use hoop_bench::runner::derive_workload_seed;
use nvm::TrafficClass;
use simcore::config::SimConfig;

use crate::host::{median, peak_rss_mib, timed, Checks, Fingerprint, Metrics, Reference};
use crate::observer::{Method, METHODS};

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Live hashmap-64B, all engines: the densest store and GC mix.
    WriteHashmap,
    /// Live ycsb-1KB at a 20 % update fraction: the LLC-miss path.
    ReadYcsb,
    /// Live btree-64B: cache hits and workload logic.
    TreeBtree,
    /// write-hashmap's cells replayed from a trace recorded in the run.
    ReplayHashmap,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::WriteHashmap,
        Workload::ReadYcsb,
        Workload::TreeBtree,
        Workload::ReplayHashmap,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WriteHashmap => "write-hashmap",
            Workload::ReadYcsb => "read-ycsb",
            Workload::TreeBtree => "tree-btree",
            Workload::ReplayHashmap => "replay-hashmap",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The §IV-A matrix column the workload runs.
    pub fn column(self) -> WorkloadConfig {
        let label = match self {
            Workload::WriteHashmap | Workload::ReplayHashmap => "hashmap-64B",
            Workload::ReadYcsb => "ycsb-1KB",
            Workload::TreeBtree => "btree-64B",
        };
        MATRIX
            .into_iter()
            .find(|c| c.label == label)
            .expect("a matrix column")
    }

    /// The seed without `--seed`: the figure harness's label-derived seed,
    /// so the live cells can be held against `results/fig7.json`.
    pub fn default_seed(self) -> u64 {
        derive_workload_seed(self.column().label)
    }
}

/// How big the workloads run.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Transaction counts and dataset size.
    pub scale: Scale,
    /// Machine configuration.
    pub sim: SimConfig,
    /// Transactions per worker core in the traced run's replay stream.
    pub stream_txs: usize,
}

impl Size {
    /// The benchmark's size: the figures' full scale.
    pub fn full() -> Size {
        Size {
            scale: Scale::Full,
            sim: SimConfig::default(),
            stream_txs: 4000,
        }
    }

    /// A tiny size for the in-tree smoke test.
    #[cfg(test)]
    pub fn smoke() -> Size {
        Size {
            scale: Scale::Quick,
            sim: SimConfig::small_for_tests(),
            stream_txs: 16,
        }
    }
}

/// One benchmark run's settings.
#[derive(Clone, Copy, Debug)]
pub struct Run {
    /// The workload.
    pub workload: Workload,
    /// Its size.
    pub size: Size,
    /// `--seed`, if given.
    pub seed: Option<u64>,
    /// `--seconds`: how long the untraced loop measures.
    pub seconds: f64,
    /// `--trace 1`: also run the traced pass and the layer replays.
    pub trace: bool,
}

impl Run {
    /// The workload seed.
    pub fn seed(&self) -> u64 {
        self.seed.unwrap_or_else(|| self.workload.default_seed())
    }
}

/// Host time of one cell repetition.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sample {
    /// Set-up seconds.
    pub setup_s: f64,
    /// Seconds of the timed phases.
    pub run_s: f64,
    /// Seconds of the reference measurement timed just before the timed
    /// phases (after set-up).
    pub ref_s: f64,
    /// Seconds of the reference measurement timed just after the timed
    /// phases.
    pub ref_after_s: f64,
}

impl Sample {
    /// Times `phases`, a cell's timed phases, between two measurements of
    /// `reference`: one just before them and one just after. Host speed
    /// drifts within a second, so the reference is timed next to the
    /// phases, with nothing else (set-up, teardown) in between.
    pub fn time<T>(
        reference: &mut Reference,
        setup_s: f64,
        phases: impl FnOnce() -> T,
    ) -> (T, Sample) {
        let ref_s = reference.time();
        let (out, run_s) = timed(phases);
        let ref_after_s = reference.time();
        let sample = Sample {
            setup_s,
            run_s,
            ref_s,
            ref_after_s,
        };
        (out, sample)
    }

    /// The reference's time around the timed phases: the geometric mean of
    /// the measurements before and after them.
    pub fn ref_around_s(&self) -> f64 {
        (self.ref_s * self.ref_after_s).sqrt()
    }
}

/// Full passes every run makes, however short its `--seconds`, so that
/// every cell is measured.
pub const MIN_PASSES: usize = 1;

/// Runs cells `0..n` round-robin, handing each the `reference` to time
/// around its timed phases: one warm-up run of cell 0 that is not kept (a
/// process's first cell pays for growing the heap, which later cells
/// reuse), [`MIN_PASSES`] full passes, then further cells while the next
/// one, predicted from its previous repetition, ends within `seconds` of
/// the start. A cell that fails (`None`) is not retried. Also returns the
/// process's peak resident memory (MiB) after the first pass: later passes
/// only add heap fragmentation, which varies from run to run.
pub fn round_robin<T>(
    n: usize,
    seconds: f64,
    reference: &mut Reference,
    mut cell: impl FnMut(usize, &mut Reference) -> Option<(Sample, T)>,
) -> (Vec<Vec<(Sample, T)>>, f64) {
    let start = Instant::now(); // lint:allow(wall-clock)
    let mut out: Vec<Vec<(Sample, T)>> = (0..n).map(|_| Vec::new()).collect();
    if n > 0 {
        drop(cell(0, reference));
    }
    let mut failed = vec![false; n];
    let mut rss_mib = 0.0;
    'passes: for pass in 0.. {
        if pass == 1 {
            rss_mib = peak_rss_mib();
        }
        for i in 0..n {
            if failed[i] {
                continue;
            }
            if pass >= MIN_PASSES {
                let last = out[i]
                    .last()
                    .map_or(0.0, |(s, _)| s.setup_s + s.ref_s + s.run_s + s.ref_after_s);
                if start.elapsed().as_secs_f64() + last > seconds {
                    break 'passes;
                }
            }
            match cell(i, reference) {
                Some(sample) => out[i].push(sample),
                None => failed[i] = true,
            }
        }
        if failed.iter().all(|&f| f) {
            break;
        }
    }
    if rss_mib == 0.0 {
        rss_mib = peak_rss_mib();
    }
    (out, rss_mib)
}

/// Medians over one cell's repetitions.
#[derive(Clone, Copy, Debug, Default)]
pub struct Medians {
    /// Set-up seconds at the reference speed, scaled by the reference
    /// measurement just after set-up.
    pub setup_s: f64,
    /// Wall seconds of the timed phases.
    pub run_s: f64,
    /// Seconds of the timed phases at the reference speed, scaled by the
    /// reference measurements around them.
    pub host_s: f64,
}

impl Medians {
    /// The medians of `samples`.
    pub fn of<T>(samples: &[(Sample, T)]) -> Medians {
        let pick =
            |f: fn(&Sample) -> f64| median(&samples.iter().map(|(s, _)| f(s)).collect::<Vec<_>>());
        Medians {
            setup_s: pick(|s| Reference::at_nominal_speed(s.setup_s, s.ref_s)),
            run_s: pick(|s| s.run_s),
            host_s: pick(|s| Reference::at_nominal_speed(s.run_s, s.ref_around_s())),
        }
    }
}

/// What the HOOP engine's device looked like after its measured window.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeviceView {
    /// Bytes written per traffic class, in `TrafficClass::ALL` order.
    pub written: [u64; 6],
    /// Bytes read.
    pub read: u64,
    /// Row-buffer hit ratio.
    pub row_hit_ratio: f64,
    /// Channel utilization estimate.
    pub utilization: f64,
}

impl DeviceView {
    /// Snapshots `engine`'s device.
    pub fn of(engine: &dyn PersistenceEngine) -> DeviceView {
        let dev = engine.device();
        let traffic = dev.traffic();
        DeviceView {
            written: TrafficClass::ALL.map(|c| traffic.written(c)),
            read: traffic.total_read(),
            row_hit_ratio: dev.row_hit_ratio(),
            utilization: dev.utilization(),
        }
    }
}

/// The end-to-end metrics, measured with tracing off.
#[derive(Clone, Debug, Default)]
pub struct EndToEnd {
    /// Wall seconds of the timed phases of one pass (per-cell medians),
    /// reported per layer as `host.wall_s`.
    pub wall_s: f64,
    /// Seconds of the timed phases of one pass at the reference speed
    /// (per-cell medians).
    pub host_s: f64,
    /// Set-up seconds of one pass at the reference speed (medians).
    pub setup_s: f64,
    /// Peak resident memory after the first pass, less the reference's
    /// tables (MiB).
    pub peak_rss_mib: f64,
    /// Simulated events of one pass: hierarchy accesses.
    pub sim_events: f64,
    /// Geomean over engines of simulated throughput (tx/ms).
    pub sim_tx_per_ms: f64,
    /// Geomean over engines of mean transaction latency (cycles).
    pub sim_tx_latency_cycles: f64,
    /// Geomean over engines of NVM bytes written per transaction.
    pub sim_write_bytes_per_tx: f64,
    /// HOOP's simulated throughput.
    pub hoop_tx_per_ms: f64,
    /// HOOP's NVM bytes written per transaction.
    pub hoop_write_bytes_per_tx: f64,
    /// HOOP's GC coalescing ratio.
    pub hoop_gc_reduction: f64,
}

impl EndToEnd {
    /// The `end_to_end` metrics of `BENCHMARK.json`.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.push("host_s", self.host_s, "s");
        m.push("setup_s", self.setup_s, "s");
        m.push("peak_rss_mib", self.peak_rss_mib, "MiB");
        m.push("sim_tx_per_ms", self.sim_tx_per_ms, "tx/ms");
        m.push(
            "sim_tx_latency_cycles",
            self.sim_tx_latency_cycles,
            "cycles",
        );
        m.push("sim_write_bytes_per_tx", self.sim_write_bytes_per_tx, "B");
        m.push("hoop_tx_per_ms", self.hoop_tx_per_ms, "tx/ms");
        m.push("hoop_write_bytes_per_tx", self.hoop_write_bytes_per_tx, "B");
        m.push("hoop_gc_reduction", self.hoop_gc_reduction, "ratio");
        m
    }
}

/// Engine methods reported per layer (the set-up-only `init_home`, the
/// bookkeeping `reset_counters`, and `crash` and `recover`, which no
/// workload calls, are left out).
pub const LAYER_METHODS: [Method; 8] = [
    Method::TxBegin,
    Method::OnStore,
    Method::OnLoad,
    Method::OnLlcMiss,
    Method::OnEvictDirty,
    Method::TxEnd,
    Method::Tick,
    Method::Drain,
];

/// The per-layer metrics, from the traced pass, the layer replays and the
/// untraced cells' simulated counters. Host times in seconds or
/// nanoseconds are measured on every workload; a layer a workload does not
/// exercise shows as a zero count, share or rate.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// Wall seconds of the timed phases of one pass (`host_s` before
    /// scaling to the reference speed).
    pub host_wall_s: f64,
    /// Simulated events of one pass per host second.
    pub sim_events_per_host_s: f64,
    /// Host seconds to generate the workload's transaction stream alone.
    pub gen_host_s: f64,
    /// Events and encoded bytes of the recorded trace.
    pub trace_events: f64,
    /// Encoded trace bytes.
    pub trace_bytes: f64,
    /// Recording rate (events per second).
    pub trace_record_events_per_s: f64,
    /// Encoding rate (MB/s).
    pub trace_encode_mb_per_s: f64,
    /// Decoding rate (MB/s).
    pub trace_decode_mb_per_s: f64,
    /// Traced timed-phase seconds outside the engine.
    pub system_self_host_s: f64,
    /// Traced seconds inside engine calls.
    pub engine_host_s: f64,
    /// Calls per [`LAYER_METHODS`] entry.
    pub method_calls: [f64; 8],
    /// Share of traced timed-phase time per [`LAYER_METHODS`] entry.
    pub method_frac: [f64; 8],
    /// Share of `host_s` per engine (`ENGINES` order).
    pub engine_host_frac: [f64; 7],
    /// Share of each engine's traced cell time spent inside the engine.
    pub engine_self_frac: [f64; 7],
    /// Hierarchy counters summed over engines: accesses, L1/L2/LLC hits,
    /// LLC misses, dirty evictions.
    pub memhier: [f64; 6],
    /// Host ns per access of the hierarchy-only replay.
    pub memhier_replay_ns_per_access: f64,
    /// HOOP commit-stall cycles in the measured window.
    pub hoop_commit_stall_cycles: f64,
    /// HOOP store-overhead cycles.
    pub hoop_store_overhead_cycles: f64,
    /// HOOP GC runs.
    pub hoop_gc_runs: f64,
    /// HOOP misses needing a parallel OOP + home read.
    pub hoop_parallel_read_fraction: f64,
    /// HOOP memory loads per LLC miss.
    pub hoop_loads_per_miss: f64,
    /// Traced seconds in HOOP's `tick` and `drain` (its GC).
    pub hoop_gc_host_s: f64,
    /// HOOP device bytes written per traffic class.
    pub nvm_hoop_written: [f64; 6],
    /// HOOP device bytes read.
    pub nvm_hoop_read_bytes: f64,
    /// HOOP device row-buffer hit ratio.
    pub nvm_hoop_row_hit_ratio: f64,
    /// HOOP device channel utilization.
    pub nvm_hoop_utilization: f64,
    /// HOOP energy per transaction (pJ).
    pub nvm_hoop_energy_pj_per_tx: f64,
    /// Host ns per access of the device-only replay.
    pub nvm_device_replay_ns_per_access: f64,
    /// Host ns per byte of the store-only replay.
    pub nvm_store_replay_ns_per_byte: f64,
    /// `available_parallelism`.
    pub available_parallelism: f64,
    /// Measured two-thread efficiency.
    pub parallel_efficiency: f64,
    /// Traced over untraced timed-phase seconds, minus one.
    pub tracing_overhead_frac: f64,
    /// Digest of every simulated report of the run.
    pub report_digest: f64,
    /// HOOP over Opt-Redo throughput (paper: 1.74 matrix geomean).
    pub paper_hoop_over_redo_tx_per_ms: f64,
    /// Opt-Redo over HOOP write bytes per tx (paper: 2.10 matrix geomean).
    pub paper_redo_over_hoop_write_bytes: f64,
}

impl Layers {
    /// The `per_layer` metrics of `BENCHMARK.json`.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.push("host.wall_s", self.host_wall_s, "s");
        m.push("sim.events_per_host_s", self.sim_events_per_host_s, "1/s");
        m.push("workloads.gen_host_s", self.gen_host_s, "s");
        m.push("trace.events", self.trace_events, "count");
        m.push("trace.bytes", self.trace_bytes, "B");
        m.push(
            "trace.record_events_per_s",
            self.trace_record_events_per_s,
            "1/s",
        );
        m.push("trace.encode_mb_per_s", self.trace_encode_mb_per_s, "MB/s");
        m.push("trace.decode_mb_per_s", self.trace_decode_mb_per_s, "MB/s");
        m.push("system.self_host_s", self.system_self_host_s, "s");
        m.push("engine.host_s", self.engine_host_s, "s");
        for (i, method) in LAYER_METHODS.iter().enumerate() {
            let name = METHODS[*method as usize];
            m.push(
                format!("engine.{name}.calls"),
                self.method_calls[i],
                "count",
            );
            m.push(format!("engine.{name}.frac"), self.method_frac[i], "ratio");
        }
        for (i, e) in workloads::driver::ENGINES.iter().enumerate() {
            m.push(
                format!("engine.{e}.host_frac"),
                self.engine_host_frac[i],
                "ratio",
            );
            m.push(
                format!("engine.{e}.self_frac"),
                self.engine_self_frac[i],
                "ratio",
            );
        }
        let hier = [
            "accesses",
            "l1_hits",
            "l2_hits",
            "llc_hits",
            "llc_misses",
            "dirty_evictions",
        ];
        for (name, v) in hier.iter().zip(self.memhier) {
            m.push(format!("memhier.{name}"), v, "count");
        }
        m.push(
            "memhier.replay_ns_per_access",
            self.memhier_replay_ns_per_access,
            "ns",
        );
        m.push(
            "hoop.commit_stall_cycles",
            self.hoop_commit_stall_cycles,
            "cycles",
        );
        m.push(
            "hoop.store_overhead_cycles",
            self.hoop_store_overhead_cycles,
            "cycles",
        );
        m.push("hoop.gc_runs", self.hoop_gc_runs, "count");
        m.push(
            "hoop.parallel_read_fraction",
            self.hoop_parallel_read_fraction,
            "ratio",
        );
        m.push("hoop.loads_per_miss", self.hoop_loads_per_miss, "ratio");
        m.push("hoop.gc_host_s", self.hoop_gc_host_s, "s");
        for (class, v) in TrafficClass::ALL.iter().zip(self.nvm_hoop_written) {
            m.push(format!("nvm.hoop.written.{class}"), v, "B");
        }
        m.push("nvm.hoop.read_bytes", self.nvm_hoop_read_bytes, "B");
        m.push(
            "nvm.hoop.row_hit_ratio",
            self.nvm_hoop_row_hit_ratio,
            "ratio",
        );
        m.push("nvm.hoop.utilization", self.nvm_hoop_utilization, "ratio");
        m.push(
            "nvm.hoop.energy_pj_per_tx",
            self.nvm_hoop_energy_pj_per_tx,
            "pJ",
        );
        m.push(
            "nvm.device.replay_ns_per_access",
            self.nvm_device_replay_ns_per_access,
            "ns",
        );
        m.push(
            "nvm.store.replay_ns_per_byte",
            self.nvm_store_replay_ns_per_byte,
            "ns/B",
        );
        m.push(
            "host.available_parallelism",
            self.available_parallelism,
            "count",
        );
        m.push(
            "host.parallel_efficiency",
            self.parallel_efficiency,
            "ratio",
        );
        m.push("tracing.overhead_frac", self.tracing_overhead_frac, "ratio");
        m.push("sim.report_digest", self.report_digest, "hash");
        m.push(
            "paper.hoop_over_redo_tx_per_ms",
            self.paper_hoop_over_redo_tx_per_ms,
            "ratio",
        );
        m.push(
            "paper.redo_over_hoop_write_bytes",
            self.paper_redo_over_hoop_write_bytes,
            "ratio",
        );
        m
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (tracing off).
    pub end_to_end: EndToEnd,
    /// Per-layer metrics (`Some` on traced runs).
    pub layers: Option<Layers>,
    /// Correctness checks.
    pub checks: Checks,
    /// Detail for the `--json` document: cells, spans, aggregates.
    pub detail: Vec<(&'static str, Json)>,
}

/// Runs one workload. The reference's tables are built first, so they are
/// resident for the whole run and `peak_rss_mib` can leave them out.
pub fn run(run: &Run, host: &Fingerprint) -> Outcome {
    let mut reference = Reference::new();
    let mut out = crate::system::run(run, &mut reference);
    let e = &out.end_to_end;
    let (wall_s, events_per_s) = (e.wall_s, e.sim_events / e.wall_s);
    if let Some(l) = out.layers.as_mut() {
        l.host_wall_s = wall_s;
        l.sim_events_per_host_s = events_per_s;
        l.available_parallelism = host.available_parallelism as f64;
        l.parallel_efficiency = host.parallel_efficiency();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_runs_the_minimum_passes_then_stops_at_the_deadline() {
        let mut order = Vec::new();
        let mut reference = Reference::new();
        let (out, rss_mib) = round_robin(3, 0.0, &mut reference, |i, r| {
            order.push(i);
            let (x, sample) = Sample::time(r, 0.0, || i);
            Some((sample, x))
        });
        assert_eq!(order, [0, 0, 1, 2], "a warm-up run of cell 0, then a pass");
        assert!(out.iter().all(|c| c.len() == MIN_PASSES));
        assert!(rss_mib > Reference::MIB);
        // Every sample has a reference before and after its timed phases.
        assert!(out
            .iter()
            .flatten()
            .all(|(s, _)| s.ref_s > 0.0 && s.ref_after_s > 0.0));
        // A failing cell is dropped, the others keep their samples.
        let (out, _) = round_robin(2, 0.0, &mut reference, |i, _| {
            (i == 0).then_some((Sample::default(), ()))
        });
        assert_eq!(out[0].len(), MIN_PASSES);
        assert!(out[1].is_empty());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
        assert_eq!(
            Workload::WriteHashmap.default_seed(),
            derive_workload_seed("hashmap-64B")
        );
    }
}
