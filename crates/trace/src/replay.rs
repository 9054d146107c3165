//! Trace replay: feed a recorded workload into any engine.
//!
//! Replay rebuilds the live run exactly. The setup section is applied in
//! recorded order (live setup is single-threaded, so order *is* the
//! schedule). The measured window is the live one — the same
//! [`run_window`] the driver uses — except that each "transaction" is
//! pulled from the recorded per-core streams instead of being generated.
//! The scheduler itself is re-run live: whichever core `System::next_core`
//! picks consumes its own next recorded transaction, so each engine's
//! timing produces its own interleaving, exactly as in a live run. Since
//! simulated time is deterministic, replay is byte-identical to live
//! generation.

use engines::system::System;
use pmcheck::{PersistencySanitizer, SanitizerSummary};
use simcore::config::SimConfig;
use simcore::{CoreId, PAddr, TxId};
use workloads::driver::{build_system, report_from, run_window, RunReport, TxSource, Window};

use crate::format::{Event, TraceFile};

/// The measurement window to replay: the driver's [`Window`].
pub use workloads::driver::Window as ReplayWindow;

/// Per-core replay cursors over a trace's measured streams.
struct Cursors<'a> {
    trace: &'a TraceFile,
    next: Vec<usize>,
    /// Open transaction per core (replay mirrors the workloads' flat
    /// `tx_begin`/`tx_end` discipline).
    open: Vec<Option<TxId>>,
    /// Scratch for elided payloads and load destinations.
    scratch: Vec<u8>,
}

impl<'a> Cursors<'a> {
    fn new(trace: &'a TraceFile) -> Self {
        let workers = trace.header.workers as usize;
        Cursors {
            trace,
            next: vec![0; workers],
            open: vec![None; workers],
            scratch: Vec::new(),
        }
    }

    fn zeros(&mut self, len: usize) -> &[u8] {
        if self.scratch.len() < len {
            self.scratch.resize(len, 0);
        }
        &self.scratch[..len]
    }

    /// Applies one recorded event to the machine.
    fn apply(&mut self, sys: &mut System, ev: &Event) {
        match ev {
            Event::Init { addr, len, data } => {
                if data.is_empty() {
                    sys.write_initial(PAddr(*addr), self.zeros(*len as usize));
                } else {
                    sys.write_initial(PAddr(*addr), data);
                }
            }
            Event::TxBegin { core } => {
                let tx = sys.tx_begin(CoreId(*core));
                self.open[*core as usize] = Some(tx);
            }
            Event::TxEnd { core } => {
                let tx = self.open[*core as usize]
                    .take()
                    .expect("recorded TxEnd without an open transaction");
                sys.tx_end(CoreId(*core), tx);
            }
            Event::Store { core, addr, data } => {
                sys.store_bytes(CoreId(*core), PAddr(*addr), data);
            }
            Event::StoreShape { core, addr, len } => {
                sys.store_bytes(CoreId(*core), PAddr(*addr), self.zeros(*len as usize));
            }
            Event::Load { core, addr, len } => {
                let len = *len as usize;
                if self.scratch.len() < len {
                    self.scratch.resize(len, 0);
                }
                sys.load_bytes(CoreId(*core), PAddr(*addr), &mut self.scratch[..len]);
            }
        }
    }
}

impl TxSource for Cursors<'_> {
    /// Replays `core`'s next recorded transaction.
    ///
    /// # Panics
    ///
    /// Panics with a regeneration hint if the stream runs dry — a trace
    /// recorded with too shallow a depth must fail loudly, never silently
    /// shorten the run.
    fn run_tx(&mut self, sys: &mut System, core: CoreId) {
        let c = core.index();
        let t = self.next[c];
        let trace = self.trace;
        let Some(tx) = trace.per_core[c].get(t) else {
            panic!(
                "trace '{}' ran dry: core {c} needs transaction {t} but only {} were \
                 recorded per core; record a deeper stream (a larger \
                 `hoopsim trace --txs`, or `cargo run -p xtask -- trace` for the pack)",
                trace.header.label, trace.header.txs_per_core
            );
        };
        self.next[c] = t + 1;
        for ev in tx {
            self.apply(sys, ev);
        }
    }
}

/// Replays `trace` into `engine` on a fresh machine, optionally audited
/// by an attached [`PersistencySanitizer`]; see [`replay`].
///
/// # Panics
///
/// Panics if the engine name is unknown, or as [`replay`] does.
pub fn replay_cell(
    trace: &TraceFile,
    engine: &str,
    cfg: &SimConfig,
    window: ReplayWindow,
    sanitize: bool,
) -> (RunReport, Option<SanitizerSummary>) {
    let mut sys = build_system(engine, cfg);
    let san = sanitize.then(|| {
        let (san, probe) = PersistencySanitizer::shared();
        sys.attach_probe(probe);
        san
    });
    let report = replay(&mut sys, trace, window);
    let summary = san.map(|s| s.lock().expect("sanitizer poisoned").summary());
    (report, summary)
}

/// Replays `trace` on `sys`: its setup section in recorded (sequential)
/// order, then `window` through [`run_window`], and reports exactly as a
/// live run would. `verify_errors` is reported as 0: replay does not re-run
/// workload logic, and the runner only ever exports cells that verified
/// clean live.
///
/// # Panics
///
/// Panics if the machine's worker count differs from the recorded one, or
/// if a per-core stream runs dry (a trace recorded too shallow).
pub fn replay(sys: &mut System, trace: &TraceFile, window: Window) -> RunReport {
    let workers = sys.config().worker_threads;
    assert_eq!(
        trace.header.workers, workers,
        "trace '{}' was recorded with {} workers but the machine runs {}",
        trace.header.label, trace.header.workers, workers
    );
    let mut cur = Cursors::new(trace);
    for ev in &trace.setup {
        cur.apply(sys, ev);
    }
    let cycles = run_window(sys, &mut cur, window);
    report_from(sys, trace.header.spec.kind.to_string(), cycles, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{default_txs_per_core, record_workload, RecordOptions};
    use workloads::driver::{Driver, ENGINES};
    use workloads::spec::{WorkloadKind, WorkloadSpec};

    fn quick_spec(kind: WorkloadKind) -> WorkloadSpec {
        let mut spec = WorkloadSpec::small(kind);
        spec.items = 128;
        spec
    }

    /// The tentpole property: replay must be byte-identical to live. Run a
    /// small live cell and a replayed one for every engine and compare the
    /// full reports (throughput, latency, traffic, raw counters).
    #[test]
    fn replay_matches_live_for_every_engine() {
        let cfg = SimConfig::small_for_tests();
        let (warmup, measured) = (10, 40);
        for kind in [
            WorkloadKind::Vector,
            WorkloadKind::Ycsb,
            WorkloadKind::BTree,
        ] {
            let spec = quick_spec(kind);
            let trace = record_workload(
                &kind.to_string(),
                spec,
                &cfg,
                RecordOptions {
                    txs_per_core: default_txs_per_core(warmup + measured, 2),
                    values: false,
                },
            )
            .expect("record");
            for engine in ENGINES {
                let mut sys = build_system(engine, &cfg);
                let mut driver = Driver::new(spec, &cfg);
                driver.setup(&mut sys);
                let live = driver.run_until(&mut sys, warmup, measured, 0);

                let (replayed, _) = replay_cell(
                    &trace,
                    engine,
                    &cfg,
                    ReplayWindow {
                        warmup,
                        measured,
                        min_cycles: 0,
                    },
                    false,
                );

                assert_eq!(live.txs, replayed.txs, "{engine}/{kind}: txs");
                assert_eq!(live.cycles, replayed.cycles, "{engine}/{kind}: cycles");
                assert_eq!(
                    live.avg_tx_latency, replayed.avg_tx_latency,
                    "{engine}/{kind}: latency"
                );
                assert_eq!(
                    live.write_bytes_per_tx, replayed.write_bytes_per_tx,
                    "{engine}/{kind}: write bytes"
                );
                assert_eq!(
                    live.read_bytes_per_tx, replayed.read_bytes_per_tx,
                    "{engine}/{kind}: read bytes"
                );
                assert_eq!(
                    live.energy_pj_per_tx, replayed.energy_pj_per_tx,
                    "{engine}/{kind}: energy"
                );
                assert_eq!(
                    live.hier_stats.accesses.get(),
                    replayed.hier_stats.accesses.get(),
                    "{engine}/{kind}: hierarchy accesses"
                );
                assert_eq!(
                    live.engine_stats.committed_txs.get(),
                    replayed.engine_stats.committed_txs.get(),
                    "{engine}/{kind}: committed"
                );
                assert_eq!(
                    live.engine_stats.gc_bytes_in.get(),
                    replayed.engine_stats.gc_bytes_in.get(),
                    "{engine}/{kind}: gc bytes"
                );
            }
        }
    }

    /// `min_cycles > 0` extends the replayed window through the same loop
    /// condition as the live driver.
    #[test]
    fn replay_matches_live_with_min_cycles_extension() {
        let cfg = SimConfig::small_for_tests();
        let spec = quick_spec(WorkloadKind::Queue);
        let (warmup, measured, min_cycles) = (5u64, 10u64, 200_000u64);
        let trace = record_workload(
            "queue",
            spec,
            &cfg,
            RecordOptions {
                // Deep enough for the 64× extension cap.
                txs_per_core: default_txs_per_core(warmup + measured * 64, 2),
                values: false,
            },
        )
        .expect("record");
        let mut sys = build_system("HOOP", &cfg);
        let mut driver = Driver::new(spec, &cfg);
        driver.setup(&mut sys);
        let live = driver.run_until(&mut sys, warmup, measured, min_cycles);
        let (replayed, _) = replay_cell(
            &trace,
            "HOOP",
            &cfg,
            ReplayWindow {
                warmup,
                measured,
                min_cycles,
            },
            false,
        );
        assert_eq!(live.txs, replayed.txs);
        assert_eq!(live.cycles, replayed.cycles);
    }

    #[test]
    fn sanitized_replay_is_clean_and_reports() {
        let cfg = SimConfig::small_for_tests();
        let spec = quick_spec(WorkloadKind::Vector);
        let trace = record_workload(
            "v",
            spec,
            &cfg,
            RecordOptions {
                txs_per_core: 20,
                values: false,
            },
        )
        .expect("record");
        let (_, summary) = replay_cell(
            &trace,
            "HOOP",
            &cfg,
            ReplayWindow {
                warmup: 4,
                measured: 12,
                min_cycles: 0,
            },
            true,
        );
        let summary = summary.expect("sanitizer attached");
        assert!(summary.is_clean(), "{} violations", summary.violations);
        assert!(summary.events > 0);
    }

    #[test]
    #[should_panic(expected = "ran dry")]
    fn shallow_trace_fails_loudly() {
        let cfg = SimConfig::small_for_tests();
        let spec = quick_spec(WorkloadKind::Vector);
        let trace = record_workload(
            "v",
            spec,
            &cfg,
            RecordOptions {
                txs_per_core: 2,
                values: false,
            },
        )
        .expect("record");
        let _ = replay_cell(
            &trace,
            "Ideal",
            &cfg,
            ReplayWindow {
                warmup: 0,
                measured: 100,
                min_cycles: 0,
            },
            false,
        );
    }
}
