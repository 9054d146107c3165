//! One persist-event stream feeds both subscribers: a subscriber that
//! forwards every event to a dry-run crash valve and records it must see
//! exactly the commits and per-kind ticks the valve counted, for every
//! engine — so nothing the valve acts on bypasses the stream an observer
//! sees.

use std::sync::{Arc, Mutex};

use crashtest::harness::drive;
use crashtest::workload::{CrashSpec, CrashWorkload};
use simcore::persist::{Event, Probe, Subscriber, Valve};
use simcore::{Cycle, SimConfig};
use workloads::driver::{build_system, ENGINES};

/// Records each event's crash kind and, as the sanitizer reads them, the
/// commit records it carries; then hands the event to the valve.
struct Tee {
    valve: Valve,
    commits: Vec<u64>,
    kind_counts: [u64; 7],
}

impl Subscriber for Tee {
    fn on(&mut self, ev: &Event<'_>, now: Cycle) -> bool {
        if let Some(kind) = ev.kind() {
            self.kind_counts[kind as usize] += 1;
        }
        match *ev {
            Event::CommitRecord(tx) | Event::Slice(tx, _, _, true) => self.commits.push(tx.0),
            _ => {}
        }
        self.valve.on(ev, now)
    }

    fn is_open(&self) -> bool {
        self.valve.is_open()
    }
}

#[test]
fn commits_reach_both_subscribers_from_one_emit() {
    for engine in ENGINES.iter().copied().chain(["HOOP-MC2"]) {
        let cfg = SimConfig::small_for_tests();
        let wl = CrashWorkload::generate(CrashSpec::quick(1), cfg.worker_threads as usize);
        let mut sys = build_system(engine, &cfg);
        let tee = Arc::new(Mutex::new(Tee {
            valve: Valve::armed(u64::MAX),
            commits: Vec::new(),
            kind_counts: [0; 7],
        }));
        sys.attach_probe(Probe::new(tee.clone()));
        drive(&mut sys, &wl, || false);

        let tee = tee.lock().expect("tee poisoned");
        assert!(!tee.valve.tripped(), "{engine}: dry run tripped");
        let valve_commits: Vec<u64> = tee.valve.committed().iter().map(|(tx, _)| *tx).collect();
        if engine != "Ideal" {
            assert!(
                !valve_commits.is_empty(),
                "{engine}: no commit reached the valve"
            );
        }
        assert_eq!(
            tee.commits, valve_commits,
            "{engine}: commit streams differ"
        );
        assert_eq!(
            tee.kind_counts,
            tee.valve.kind_counts(),
            "{engine}: per-kind ticks differ"
        );
    }
}
