//! Workload driver and measurement harness.
//!
//! Builds one private workload instance per worker core (the paper runs
//! eight threads, each against its own data — §IV-A), interleaves their
//! transactions over the simulated machine by always advancing the core
//! with the smallest local clock, and reports the metrics every figure of
//! the paper is built from.

use engines::system::System;
use engines::{EngineStats, PersistenceEngine};
use memhier::HierStats;
use nvm::device::TrafficBytes;
use nvm::media::MediaSummary;
use simcore::config::SimConfig;
use simcore::time::cycles_to_ms;
use simcore::zipf::Zipfian;
use simcore::{CoreId, Cycle};

use crate::pbtree::PBTree;
use crate::phashmap::PHashmap;
use crate::pqueue::PQueue;
use crate::prbtree::PRbTree;
use crate::pvector::PVector;
use crate::spec::{WorkloadKind, WorkloadSpec};
use crate::tpcc::TpccNewOrder;
use crate::ycsb::Ycsb;
use crate::TxWorkload;

/// Builds one workload instance (deterministic per `stream`).
pub fn build_workload(spec: WorkloadSpec, stream: u64) -> Box<dyn TxWorkload> {
    build_with(spec, stream, &mut None)
}

/// [`build_workload`], taking the spec's Zipfian from `zipf` and building
/// it there on first use, so that workers built from one spec normalise it
/// once.
fn build_with(spec: WorkloadSpec, stream: u64, zipf: &mut Option<Zipfian>) -> Box<dyn TxWorkload> {
    let mut zipf = || {
        zipf.get_or_insert_with(|| Zipfian::new(spec.items, spec.zipf_theta))
            .clone()
    };
    match spec.kind {
        WorkloadKind::Vector => Box::new(PVector::with_zipf(spec, stream, zipf())),
        WorkloadKind::Hashmap => Box::new(PHashmap::with_zipf(spec, stream, zipf())),
        WorkloadKind::Queue => Box::new(PQueue::new(spec, stream)),
        WorkloadKind::RbTree => Box::new(PRbTree::new(spec, stream)),
        WorkloadKind::BTree => Box::new(PBTree::new(spec, stream)),
        WorkloadKind::Ycsb => Box::new(Ycsb::with_zipf(spec, stream, zipf())),
        WorkloadKind::Tpcc => Box::new(TpccNewOrder::new(spec, stream)),
    }
}

/// Measured results of one workload run on one engine.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Engine name.
    pub engine: &'static str,
    /// Workload name.
    pub workload: String,
    /// Committed transactions in the measured window.
    pub txs: u64,
    /// Simulated cycles elapsed in the measured window.
    pub cycles: Cycle,
    /// Transactions per simulated millisecond.
    pub throughput_tx_per_ms: f64,
    /// Mean critical-path latency per transaction (cycles).
    pub avg_tx_latency: f64,
    /// NVM bytes written per transaction (all traffic classes).
    pub write_bytes_per_tx: f64,
    /// NVM bytes read per transaction.
    pub read_bytes_per_tx: f64,
    /// NVM energy per transaction (pJ).
    pub energy_pj_per_tx: f64,
    /// LLC miss ratio of the run.
    pub llc_miss_ratio: f64,
    /// Memory loads per LLC miss (paper §IV-C profiles 1.28 for HOOP).
    pub loads_per_miss: f64,
    /// Fraction of served misses that needed parallel OOP+home reads.
    pub parallel_read_fraction: f64,
    /// GC data-reduction ratio (Table IV).
    pub gc_reduction: f64,
    /// Critical-path cycles lost to on-demand GC (Fig. 10/13 mechanism).
    pub ondemand_gc_stall_cycles: u64,
    /// Post-run verification mismatches (0 = functionally correct).
    pub verify_errors: usize,
    /// Snapshot of the engine's raw counters at the end of the run.
    pub engine_stats: EngineStats,
    /// Snapshot of the cache-hierarchy counters at the end of the run.
    pub hier_stats: HierStats,
    /// Snapshot of the device's per-class traffic counters at the end of
    /// the run (the measured window's bytes).
    pub traffic: TrafficBytes,
    /// Snapshot of the media-fault counters at the end of the run (all zero
    /// with faults detached; not reset between warmup and measurement).
    pub media: MediaSummary,
    /// Engine-specific `(name, value)` metrics.
    pub extra_metrics: Vec<(&'static str, f64)>,
}

impl RunReport {
    /// Formats a compact single-line summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<9} {:<12} txs={:<7} thr={:>9.1} tx/ms lat={:>8.0} cyc wr/tx={:>7.1}B rd/tx={:>8.1}B pj/tx={:>9.0}",
            self.engine,
            self.workload,
            self.txs,
            self.throughput_tx_per_ms,
            self.avg_tx_latency,
            self.write_bytes_per_tx,
            self.read_bytes_per_tx,
            self.energy_pj_per_tx
        )
    }
}

/// Assembles a [`RunReport`] from the machine's post-drain state. Shared by
/// the live driver and trace replay (`hoop-trace`) so both build reports
/// through a single code path — byte-identical replay results are part of
/// the determinism contract (DESIGN.md §11).
pub fn report_from(
    sys: &System,
    workload: String,
    cycles: Cycle,
    verify_errors: usize,
) -> RunReport {
    let engine = sys.engine();
    let stats = engine.stats();
    let traffic = engine.device().traffic();
    let txs = stats.committed_txs.get().max(1);
    let misses = stats.misses_served.get().max(1);
    RunReport {
        engine: engine.name(),
        workload,
        txs: stats.committed_txs.get(),
        cycles,
        throughput_tx_per_ms: stats.committed_txs.get() as f64 / cycles_to_ms(cycles.max(1)),
        avg_tx_latency: sys.tx_latency().mean(),
        write_bytes_per_tx: traffic.total_written() as f64 / txs as f64,
        read_bytes_per_tx: traffic.total_read() as f64 / txs as f64,
        energy_pj_per_tx: engine.device().energy_pj() / txs as f64,
        llc_miss_ratio: sys.hier_stats().llc_miss_ratio(),
        loads_per_miss: stats.loads_per_miss(),
        parallel_read_fraction: stats.parallel_reads.get() as f64 / misses as f64,
        gc_reduction: stats.gc_reduction_ratio(),
        ondemand_gc_stall_cycles: stats.ondemand_gc_stall_cycles.get(),
        verify_errors,
        engine_stats: stats.clone(),
        hier_stats: *sys.hier_stats(),
        traffic,
        media: sys.media().summary(),
        extra_metrics: engine.extra_metrics(),
    }
}

/// The measurement window every figure is built from: `warmup`
/// transactions, a drain and counter reset, `measured` transactions (kept
/// going, up to 64× `measured`, until `min_cycles` of simulated time
/// elapse), and a final drain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Window {
    /// Warmup transactions before the measured window.
    pub warmup: u64,
    /// Transactions in the measured window.
    pub measured: u64,
    /// Keep issuing (up to 64× `measured`) until this much simulated time
    /// elapses; 0 takes `measured` at face value.
    pub min_cycles: Cycle,
}

impl Window {
    /// A window of fixed length (`min_cycles = 0`).
    pub fn new(warmup: u64, measured: u64) -> Window {
        Window {
            warmup,
            measured,
            min_cycles: 0,
        }
    }
}

/// A source of transactions: the live per-core workloads ([`Driver`]) or a
/// recorded trace's per-core streams (`hoop-trace`).
pub trait TxSource {
    /// Runs `core`'s next transaction on `sys`.
    fn run_tx(&mut self, sys: &mut System, core: CoreId);
}

/// Runs `window` on `sys`, always advancing the core with the smallest
/// local clock, and returns the simulated cycles of the measured window.
/// This is the only place counters are reset between warmup and
/// measurement, so live and replayed cells cannot drift apart.
pub fn run_window(sys: &mut System, src: &mut impl TxSource, window: Window) -> Cycle {
    for _ in 0..window.warmup {
        let core = sys.next_core();
        src.run_tx(sys, core);
    }
    // Settle warmup state (flush caches, run GC/checkpoints) so the
    // measured window starts from a steady durable state and background
    // traffic attribution is not skewed by warmup leftovers.
    sys.drain();
    sys.reset_counters();
    let t0 = sys.global_time();
    let cap = window.measured.saturating_mul(64);
    let mut issued = 0u64;
    while issued < window.measured || (sys.global_time() - t0 < window.min_cycles && issued < cap) {
        let core = sys.next_core();
        src.run_tx(sys, core);
        issued += 1;
    }
    sys.drain();
    sys.global_time() - t0
}

/// Drives per-core workload instances over a `System`.
pub struct Driver {
    workloads: Vec<Box<dyn TxWorkload>>,
    workers: usize,
    issued: Vec<u64>,
}

impl std::fmt::Debug for Driver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Driver")
            .field("workers", &self.workers)
            .finish()
    }
}

impl Driver {
    /// Builds one workload instance per worker core of `cfg`; the workers
    /// share one normalisation of the spec's Zipfian.
    pub fn new(spec: WorkloadSpec, cfg: &SimConfig) -> Self {
        let workers = cfg.worker_threads as usize;
        let mut zipf = None;
        Driver {
            workloads: (0..workers)
                .map(|w| build_with(spec, w as u64, &mut zipf))
                .collect(),
            workers,
            issued: vec![0; workers],
        }
    }

    /// Sets up every worker's private data on the machine.
    pub fn setup(&mut self, sys: &mut System) {
        for (w, wl) in self.workloads.iter_mut().enumerate() {
            wl.setup(sys, CoreId(w as u8));
        }
    }

    /// Runs `warmup` then `measured` transactions (interleaved across
    /// workers), drains, and reports.
    pub fn run(&mut self, sys: &mut System, warmup: u64, measured: u64) -> RunReport {
        self.measure(sys, Window::new(warmup, measured))
    }

    /// Like [`run`](Driver::run), but keeps issuing transactions (beyond
    /// `measured`, up to 64x) until at least `min_cycles` of simulated time
    /// elapse — so a measured window spans several background GC/checkpoint
    /// periods and captures steady-state traffic.
    pub fn run_until(
        &mut self,
        sys: &mut System,
        warmup: u64,
        measured: u64,
        min_cycles: Cycle,
    ) -> RunReport {
        self.measure(
            sys,
            Window {
                warmup,
                measured,
                min_cycles,
            },
        )
    }

    /// Runs `window` through [`run_window`], verifies every worker's
    /// structure, and reports.
    pub fn measure(&mut self, sys: &mut System, window: Window) -> RunReport {
        let cycles = run_window(sys, self, window);
        let verify_errors = self.verify(sys);
        report_from(
            sys,
            self.workloads[0].name().to_string(),
            cycles,
            verify_errors,
        )
    }

    /// Runs a single transaction on `core` (profiling/driver internals).
    pub fn run_one(&mut self, sys: &mut System, core: CoreId) {
        self.issued[core.index()] += 1;
        self.workloads[core.index()].run_tx(sys, core);
    }

    /// Transactions issued so far on each worker core (warmup + measured).
    /// Trace recording uses the maximum to size per-core stream depth for
    /// runs whose length is timing-dependent (`min_cycles > 0`).
    pub fn issued_per_core(&self) -> &[u64] {
        &self.issued
    }

    /// Verifies every worker's structure; returns total mismatches.
    pub fn verify(&self, sys: &System) -> usize {
        self.workloads.iter().map(|w| w.verify(sys)).sum()
    }

    /// Number of worker instances.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

impl TxSource for Driver {
    fn run_tx(&mut self, sys: &mut System, core: CoreId) {
        self.run_one(sys, core);
    }
}

/// Convenience: build a system for `engine_name` over `cfg`. Lives here so
/// harnesses and tests share one registry of engines.
pub fn build_system(engine_name: &str, cfg: &SimConfig) -> System {
    let engine: Box<dyn PersistenceEngine> = match engine_name {
        "Ideal" => Box::new(engines::native::NativeEngine::new(cfg)),
        "Opt-Redo" => Box::new(engines::redo::OptRedoEngine::new(cfg)),
        "Opt-Undo" => Box::new(engines::undo::OptUndoEngine::new(cfg)),
        "OSP" => Box::new(engines::osp::OspEngine::new(cfg)),
        "LSM" => Box::new(engines::lsm::LsmEngine::new(cfg)),
        "LAD" => Box::new(engines::lad::LadEngine::new(cfg)),
        "HOOP" => Box::new(hoop::engine::HoopEngine::new(cfg)),
        "HOOP-MC2" => Box::new(hoop::multi::MultiHoopEngine::new(cfg, 2)),
        "HOOP-MC4" => Box::new(hoop::multi::MultiHoopEngine::new(cfg, 4)),
        other => panic!("unknown engine {other}"),
    };
    System::new(engine, cfg)
}

/// Engine names in the paper's presentation order.
pub const ENGINES: [&str; 7] = ["Opt-Redo", "Opt-Undo", "OSP", "LSM", "LAD", "HOOP", "Ideal"];

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::config::MediaConfig;

    #[test]
    fn driver_runs_every_workload_on_native() {
        let cfg = SimConfig::small_for_tests();
        for kind in WorkloadKind::ALL {
            let mut spec = WorkloadSpec::small(kind);
            spec.items = 128;
            let mut sys = build_system("Ideal", &cfg);
            let mut driver = Driver::new(spec, &cfg);
            driver.setup(&mut sys);
            let report = driver.run(&mut sys, 10, 60);
            assert_eq!(report.verify_errors, 0, "{kind} failed verification");
            assert_eq!(report.txs, 60, "{kind} tx count");
            assert!(report.throughput_tx_per_ms > 0.0);
        }
    }

    /// A source that commits one empty transaction per call and records
    /// the committed count it saw before each one.
    #[derive(Default)]
    struct Counting {
        seen: Vec<u64>,
    }

    impl TxSource for Counting {
        fn run_tx(&mut self, sys: &mut System, core: CoreId) {
            self.seen.push(sys.engine().stats().committed_txs.get());
            let tx = sys.tx_begin(core);
            sys.tx_end(core, tx);
        }
    }

    /// `run_window`'s contract: exactly `warmup + measured` transactions at
    /// `min_cycles = 0`, with one counter reset between the warmup and the
    /// measured window (the committed count restarts at 0 exactly once and
    /// ends at `measured`).
    #[test]
    fn run_window_issues_warmup_plus_measured_and_resets_once() {
        let cfg = SimConfig::small_for_tests();
        let mut sys = build_system("Ideal", &cfg);
        let mut src = Counting::default();
        let cycles = run_window(&mut sys, &mut src, Window::new(7, 20));
        let expected: Vec<u64> = (0..7).chain(0..20).collect();
        assert_eq!(src.seen, expected);
        assert_eq!(sys.engine().stats().committed_txs.get(), 20);
        assert!(cycles > 0);
    }

    /// An unreachable `min_cycles` extends the measured window to exactly
    /// 64× `measured`, never further.
    #[test]
    fn run_window_stops_at_64x_measured() {
        let cfg = SimConfig::small_for_tests();
        let mut sys = build_system("Ideal", &cfg);
        let mut src = Counting::default();
        let window = Window {
            warmup: 3,
            measured: 5,
            min_cycles: Cycle::MAX,
        };
        run_window(&mut sys, &mut src, window);
        assert_eq!(src.seen.len(), 3 + 5 * 64);
        assert_eq!(sys.engine().stats().committed_txs.get(), 5 * 64);
    }

    /// `report_from`'s snapshots: with faults detached the media counters
    /// stay zero, with faults armed the model classifies reads, and the
    /// traffic snapshot is the measured window's (it reproduces
    /// `write_bytes_per_tx` exactly).
    #[test]
    fn report_snapshots_traffic_and_media() {
        let mut spec = WorkloadSpec::small(WorkloadKind::Hashmap);
        spec.items = 128;
        for armed in [false, true] {
            let cfg = SimConfig {
                media: if armed {
                    MediaConfig::enabled(7)
                } else {
                    MediaConfig::default()
                },
                ..SimConfig::small_for_tests()
            };
            for name in ENGINES {
                let mut sys = build_system(name, &cfg);
                let mut driver = Driver::new(spec, &cfg);
                driver.setup(&mut sys);
                let r = driver.run(&mut sys, 10, 60);
                assert_eq!(r.verify_errors, 0, "{name}");
                if armed {
                    assert!(r.media.reads > 0, "{name}: no classified reads");
                } else {
                    assert_eq!(r.media, MediaSummary::default(), "{name}");
                }
                assert!(r.traffic.total_written() > 0, "{name}");
                assert_eq!(
                    r.traffic.total_written() as f64 / r.txs as f64,
                    r.write_bytes_per_tx,
                    "{name}"
                );
            }
        }
    }

    /// The Zipfian-driven workloads at the quick specs' 128 items, with
    /// 64-B and 1-KB items.
    fn seeded_specs() -> impl Iterator<Item = WorkloadSpec> {
        [
            WorkloadKind::Vector,
            WorkloadKind::Hashmap,
            WorkloadKind::Ycsb,
        ]
        .into_iter()
        .flat_map(|kind| [WorkloadSpec::small(kind), WorkloadSpec::large(kind)])
        .map(|spec| WorkloadSpec { items: 128, ..spec })
    }

    /// Straight after set-up every worker verifies, and the durable image
    /// equals the volatile one over the whole seeded region, on every
    /// engine.
    #[test]
    fn seeding_verifies_and_is_durable_on_every_engine() {
        let cfg = SimConfig::small_for_tests();
        for spec in seeded_specs() {
            for name in ENGINES {
                let mut sys = build_system(name, &cfg);
                let start = sys.alloc(64);
                let mut driver = Driver::new(spec, &cfg);
                driver.setup(&mut sys);
                let len = (sys.alloc(64).0 - start.0) as usize;
                let what = format!("{name} {}-{}B", spec.kind, spec.item_bytes);
                assert_eq!(driver.verify(&sys), 0, "{what}");
                let volatile = sys.peek_vec(start, len);
                assert!(volatile.iter().any(|&b| b != 0), "{what}: nothing seeded");
                assert!(
                    volatile == sys.engine().durable().read_vec(start, len),
                    "{what}: durable image differs from the volatile one"
                );
            }
        }
    }

    /// The workers of one `Driver` share a Zipfian; they seed and issue
    /// exactly what separately built workers do.
    #[test]
    fn seeding_and_draws_match_separately_built_workers() {
        let cfg = SimConfig::small_for_tests();
        let workers = cfg.worker_threads;
        for spec in seeded_specs() {
            let mut shared = System::new_capture(&cfg);
            shared.start_recording(true);
            let mut driver = Driver::new(spec, &cfg);
            driver.setup(&mut shared);
            let mut alone = System::new_capture(&cfg);
            alone.start_recording(true);
            let mut built: Vec<_> = (0..workers)
                .map(|w| build_workload(spec, u64::from(w)))
                .collect();
            for (w, wl) in (0..workers).zip(&mut built) {
                wl.setup(&mut alone, CoreId(w));
            }
            for (c, wl) in (0..workers).zip(&mut built) {
                for _ in 0..50 {
                    driver.run_one(&mut shared, CoreId(c));
                    wl.run_tx(&mut alone, CoreId(c));
                }
            }
            assert!(
                shared.take_trace() == alone.take_trace(),
                "{}-{}B",
                spec.kind,
                spec.item_bytes
            );
        }
    }

    #[test]
    fn every_engine_builds() {
        let cfg = SimConfig::small_for_tests();
        for name in ENGINES {
            let sys = build_system(name, &cfg);
            assert_eq!(sys.engine().name(), name);
        }
    }

    #[test]
    #[should_panic]
    fn unknown_engine_panics() {
        let _ = build_system("nope", &SimConfig::small_for_tests());
    }
}
