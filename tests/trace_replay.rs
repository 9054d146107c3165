//! Trace record/replay: a hashmap workload recorded once (with payloads)
//! and sent through the binary trace format replays into every engine; after
//! a crash each engine recovers the image of its own live run, and every
//! crash-consistent engine recovers the same image.

use hoop_repro::engines::trace::Event;
use hoop_repro::prelude::*;
use trace::{record_workload, RecordOptions, TraceFile, TraceReader};

const TXS_PER_CORE: u32 = 40;

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        items: 64,
        ..WorkloadSpec::small(WorkloadKind::Hashmap)
    }
}

/// The lines the trace touches, as `(first, end)` addresses.
fn touched_span(trace: &TraceFile) -> (u64, u64) {
    let events = trace
        .setup
        .iter()
        .chain(trace.per_core.iter().flatten().flatten());
    events
        .filter_map(|ev| match ev {
            Event::Init { addr, len, .. } => Some((*addr, *len as u64)),
            Event::Store { addr, data, .. } => Some((*addr, data.len() as u64)),
            _ => None,
        })
        .fold((u64::MAX, 0), |(lo, hi), (a, n)| (lo.min(a), hi.max(a + n)))
}

/// The CPU-visible bytes of `span` after a crash and a two-thread recovery.
fn recovered_image(sys: &mut System, (lo, hi): (u64, u64)) -> Vec<u8> {
    sys.crash_and_recover(2);
    sys.peek_vec(PAddr(lo), (hi - lo) as usize)
}

/// The recovered image of the live run a recording stands for, with the
/// cores' transactions issued in the same per-core order as [`replay_on`].
fn live_image(engine: &str, cfg: &SimConfig, span: (u64, u64)) -> Vec<u8> {
    let mut sys = build_system(engine, cfg);
    let mut driver = Driver::new(spec(), cfg);
    driver.setup(&mut sys);
    for c in 0..cfg.worker_threads {
        for _ in 0..TXS_PER_CORE {
            driver.run_one(&mut sys, CoreId(c));
        }
    }
    recovered_image(&mut sys, span)
}

/// Applies a recorded setup stream, then every core's transactions, core
/// by core in recorded order.
fn replay_on(engine: &str, trace: &TraceFile, cfg: &SimConfig) -> System {
    let mut sys = build_system(engine, cfg);
    let mut open = None;
    let txs = trace.per_core.iter().flatten().flatten();
    for ev in trace.setup.iter().chain(txs) {
        match ev {
            Event::Init { addr, data, .. } => sys.write_initial(PAddr(*addr), data),
            Event::TxBegin { core } => open = Some(sys.tx_begin(CoreId(*core))),
            Event::TxEnd { core } => sys.tx_end(CoreId(*core), open.take().expect("open tx")),
            Event::Store { core, addr, data } => sys.store_bytes(CoreId(*core), PAddr(*addr), data),
            Event::Load { core, addr, len } => {
                let mut buf = vec![0; *len as usize];
                sys.load_bytes(CoreId(*core), PAddr(*addr), &mut buf);
            }
            Event::StoreShape { .. } => panic!("a values-mode trace holds no StoreShape"),
        }
    }
    sys
}

#[test]
fn trace_replays_identically_on_all_engines() {
    let cfg = SimConfig::small_for_tests();
    let recorded = record_workload(
        "hashmap",
        spec(),
        &cfg,
        RecordOptions {
            txs_per_core: TXS_PER_CORE,
            values: true,
        },
    )
    .expect("record");
    let trace = TraceReader::decode(&recorded.encode()).expect("decode");
    assert_eq!(
        trace, recorded,
        "binary format must round-trip a real trace"
    );
    let stores = trace
        .per_core
        .iter()
        .flatten()
        .flatten()
        .filter(|ev| matches!(ev, Event::Store { .. }))
        .count();
    assert!(stores > 100, "trace too small: {stores} stores");

    let span = touched_span(&trace);
    let reference = live_image("HOOP", &cfg, span);
    assert!(
        reference.iter().any(|&b| b != 0),
        "reference image is blank"
    );
    for engine in ENGINES {
        let replayed = recovered_image(&mut replay_on(engine, &trace, &cfg), span);
        assert_eq!(
            replayed,
            live_image(engine, &cfg, span),
            "{engine}: recovered image after replay differs from the live run"
        );
        // Ideal guarantees no persistence, so only its own live run binds it.
        if engine != "Ideal" {
            assert_eq!(
                replayed, reference,
                "{engine}: recovered image differs from HOOP's"
            );
        }
    }
}
