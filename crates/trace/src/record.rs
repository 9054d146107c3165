//! Trace recording: run a workload once on a capture-only machine and
//! persist its event streams.
//!
//! Recording never touches the cache hierarchy or a persistence engine
//! ([`System::new_capture`]), so its cost is pure workload generation —
//! the exact cost replay later avoids paying per engine. The recorder
//! captures two things:
//!
//! 1. the **setup section**: every event `Driver::setup` issues, in order
//!    (`write_initial` seeding interleaved with any setup-time
//!    transactions), and
//! 2. one **measured stream per worker core**: `txs_per_core` transactions
//!    generated by that core's private workload instance.
//!
//! Per-core streams are recorded sequentially (core 0's whole stream, then
//! core 1's, ...). That is safe because each instance owns private data and
//! a private RNG fork — its transaction sequence cannot observe other
//! cores' progress, so the sequential capture equals what the core would
//! generate under any live interleaving.

use engines::system::System;
use simcore::config::SimConfig;
use simcore::CoreId;
use workloads::driver::Driver;
use workloads::spec::WorkloadSpec;

use crate::format::{Event, TraceError, TraceFile, TraceHeader};

/// Recording knobs.
#[derive(Clone, Copy, Debug)]
pub struct RecordOptions {
    /// Measured transactions to record per worker core.
    pub txs_per_core: u32,
    /// Record store payload bytes instead of eliding them. Needed only by
    /// harnesses that inspect memory images; figure replay uses shapes.
    pub values: bool,
}

/// Default per-core stream depth for a run of `total` driver-issued
/// transactions (warmup + measured) across `workers` cores: twice the
/// balanced share, so scheduling skew between cores cannot run a stream
/// dry.
pub fn default_txs_per_core(total: u64, workers: u64) -> u32 {
    let per_core = total.div_ceil(workers.max(1));
    (2 * per_core).max(1) as u32
}

/// Records `label`'s workload (exactly as `Driver::new(spec, cfg)` would
/// generate it) into a [`TraceFile`].
///
/// # Errors
///
/// Returns [`TraceError::Corrupt`] if a core's measured stream is not a
/// sequence of whole transactions on that core.
///
/// # Panics
///
/// Panics if the workload crashes or recovers the machine while recording
/// (`System::crash`): the format cannot represent power failure.
pub fn record_workload(
    label: &str,
    spec: WorkloadSpec,
    cfg: &SimConfig,
    opts: RecordOptions,
) -> Result<TraceFile, TraceError> {
    let workers = cfg.worker_threads;
    let mut sys = System::new_capture(cfg);
    let mut driver = Driver::new(spec, cfg);

    sys.start_recording(opts.values);
    driver.setup(&mut sys);
    let setup = coalesce_inits(sys.take_trace());

    let mut per_core = Vec::with_capacity(workers as usize);
    for c in 0..workers {
        sys.start_recording(opts.values);
        for _ in 0..opts.txs_per_core {
            driver.run_one(&mut sys, CoreId(c));
        }
        per_core.push(split_transactions(sys.take_trace(), c)?);
    }

    Ok(TraceFile {
        header: TraceHeader {
            label: label.to_string(),
            spec,
            workers,
            txs_per_core: opts.txs_per_core,
        },
        setup,
        per_core,
    })
}

/// Coalesces `write_initial` runs over contiguous addresses into single
/// `Init` records (setup seeds whole structures word by word — one record
/// per region keeps the committed pack small).
fn coalesce_inits(raw: Vec<Event>) -> Vec<Event> {
    let mut out: Vec<Event> = Vec::with_capacity(raw.len());
    for ev in raw {
        if let (
            Some(Event::Init {
                addr: pa,
                len: pl,
                data: pd,
            }),
            Event::Init { addr, len, data },
        ) = (out.last_mut(), &ev)
        {
            let contiguous = *pa + u64::from(*pl) == *addr;
            let same_mode = pd.is_empty() == data.is_empty();
            if contiguous && same_mode && u64::from(*pl) + u64::from(*len) <= u32::MAX as u64 {
                *pl += *len;
                pd.extend_from_slice(data);
                continue;
            }
        }
        out.push(ev);
    }
    out
}

/// Splits a single core's flat event stream into whole transactions,
/// validating transaction discipline and core ownership.
fn split_transactions(events: Vec<Event>, core: u8) -> Result<Vec<Vec<Event>>, TraceError> {
    let mut txs = Vec::new();
    let mut open: Option<Vec<Event>> = None;
    for ev in events {
        if ev.core() != Some(core) {
            return Err(TraceError::Corrupt(format!(
                "core {core}'s measured stream captured {ev:?}"
            )));
        }
        match (&mut open, &ev) {
            (None, Event::TxBegin { .. }) => open = Some(vec![ev]),
            (None, _) => {
                return Err(TraceError::Corrupt(format!(
                    "core {core}: measured operation outside a transaction"
                )))
            }
            (Some(_), Event::TxBegin { .. }) => {
                return Err(TraceError::Corrupt(format!("core {core}: nested TxBegin")))
            }
            (Some(tx), Event::TxEnd { .. }) => {
                tx.push(ev);
                txs.push(open.take().expect("open transaction"));
            }
            (Some(tx), _) => tx.push(ev),
        }
    }
    if open.is_some() {
        return Err(TraceError::Corrupt(format!(
            "core {core}: recording stopped mid-transaction"
        )));
    }
    Ok(txs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::spec::WorkloadKind;

    fn quick_spec(kind: WorkloadKind) -> WorkloadSpec {
        let mut spec = WorkloadSpec::small(kind);
        spec.items = 128;
        spec
    }

    #[test]
    fn records_every_workload_kind() {
        let cfg = SimConfig::small_for_tests();
        for kind in WorkloadKind::ALL {
            let spec = quick_spec(kind);
            let t = record_workload(
                &kind.to_string(),
                spec,
                &cfg,
                RecordOptions {
                    txs_per_core: 5,
                    values: false,
                },
            )
            .expect("recording succeeds");
            assert_eq!(t.header.workers as u32, cfg.worker_threads as u32);
            assert_eq!(t.header.txs_per_core, 5);
            assert!(!t.setup.is_empty(), "{kind}: empty setup section");
            for (c, txs) in t.per_core.iter().enumerate() {
                assert_eq!(txs.len(), 5, "{kind} core {c}");
                for tx in txs {
                    assert!(matches!(tx.first(), Some(Event::TxBegin { .. })));
                    assert!(matches!(tx.last(), Some(Event::TxEnd { .. })));
                }
            }
        }
    }

    #[test]
    fn recording_is_deterministic() {
        let cfg = SimConfig::small_for_tests();
        let spec = quick_spec(WorkloadKind::Ycsb);
        let opts = RecordOptions {
            txs_per_core: 8,
            values: false,
        };
        let a = record_workload("ycsb", spec, &cfg, opts).expect("record");
        let b = record_workload("ycsb", spec, &cfg, opts).expect("record");
        assert_eq!(a.encode(), b.encode());
    }

    #[test]
    fn values_mode_keeps_payloads_and_shape_mode_elides_them() {
        let cfg = SimConfig::small_for_tests();
        let spec = quick_spec(WorkloadKind::Vector);
        let shape = record_workload(
            "v",
            spec,
            &cfg,
            RecordOptions {
                txs_per_core: 3,
                values: false,
            },
        )
        .expect("record");
        let vals = record_workload(
            "v",
            spec,
            &cfg,
            RecordOptions {
                txs_per_core: 3,
                values: true,
            },
        )
        .expect("record");
        let has = |t: &TraceFile, f: &dyn Fn(&Event) -> bool| {
            t.per_core.iter().flatten().flatten().any(f)
        };
        assert!(has(&shape, &|e| matches!(e, Event::StoreShape { .. })));
        assert!(!has(&shape, &|e| matches!(e, Event::Store { .. })));
        assert!(has(&vals, &|e| matches!(e, Event::Store { .. })));
        assert!(vals.encode().len() > shape.encode().len());
    }

    #[test]
    fn init_runs_are_coalesced() {
        let cfg = SimConfig::small_for_tests();
        // The vector seeds a contiguous region word-by-word; coalescing must
        // collapse each core's seeding to a handful of records.
        let t = record_workload(
            "v",
            quick_spec(WorkloadKind::Vector),
            &cfg,
            RecordOptions {
                txs_per_core: 1,
                values: false,
            },
        )
        .expect("record");
        let inits = t
            .setup
            .iter()
            .filter(|e| matches!(e, Event::Init { .. }))
            .count();
        // 128 items / 2 pre-populated × 8 words × N cores without
        // coalescing; with it, one record per core region.
        assert!(inits <= 2 * cfg.worker_threads as usize, "{inits} records");
    }

    #[test]
    fn default_depth_covers_unbalanced_scheduling() {
        assert_eq!(default_txs_per_core(350, 8), 88);
        assert_eq!(default_txs_per_core(1, 8), 2);
        assert_eq!(default_txs_per_core(0, 8), 1);
        assert_eq!(default_txs_per_core(8, 0), 16);
    }
}
