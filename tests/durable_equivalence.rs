//! Cross-engine durable equivalence: after the same committed workload and
//! a drain, every engine must hold the same durable home image, and must
//! recover that image after a crash — different persistence mechanisms,
//! identical semantics.

use hoop_repro::prelude::*;
use hoop_repro::workloads::driver::build_workload;

const ALL: [&str; 8] = [
    "Ideal", "Opt-Redo", "Opt-Undo", "OSP", "LSM", "LAD", "HOOP", "HOOP-MC2",
];

/// The home region as `read` sees it, one line at a time.
fn home_image(read: impl Fn(simcore::PAddr) -> Vec<u8>) -> Vec<u8> {
    (0..(1u64 << 12))
        .flat_map(|i| read(simcore::PAddr(4096 + i * 64)))
        .collect()
}

/// The durable home image after a drain, and the CPU-visible image after a
/// crash and a two-thread recovery from that drained state.
fn durable_images(engine: &str, kind: WorkloadKind, txs: u64) -> (Vec<u8>, Vec<u8>) {
    let cfg = SimConfig::small_for_tests();
    let mut sys = build_system(engine, &cfg);
    let mut w = build_workload(
        WorkloadSpec {
            items: 96,
            ..WorkloadSpec::small(kind)
        },
        13,
    );
    w.setup(&mut sys, CoreId(0));
    for _ in 0..txs {
        w.run_tx(&mut sys, CoreId(0));
    }
    sys.drain();
    assert_eq!(w.verify(&sys), 0, "{engine}/{kind} volatile diverged");
    // After drain every engine has pushed all committed data home.
    let drained = home_image(|a| sys.engine().durable().read_vec(a, 64));
    sys.crash_and_recover(2);
    (drained, home_image(|a| sys.peek_vec(a, 64)))
}

#[test]
fn all_engines_drain_to_the_same_home_image() {
    for kind in [
        WorkloadKind::Vector,
        WorkloadKind::Hashmap,
        WorkloadKind::Queue,
        WorkloadKind::Ycsb,
    ] {
        let (drained, recovered) = durable_images("Ideal", kind, 80);
        for engine in ALL {
            let (img, rec) = durable_images(engine, kind, 80);
            assert_eq!(
                img, drained,
                "{engine}/{kind}: durable home image differs from Ideal's"
            );
            assert_eq!(
                rec, recovered,
                "{engine}/{kind}: recovered image differs from Ideal's"
            );
        }
    }
}

#[test]
fn run_until_extends_past_the_minimum_window() {
    let cfg = SimConfig::small_for_tests();
    let mut sys = build_system("HOOP", &cfg);
    let mut driver = Driver::new(
        WorkloadSpec {
            items: 128,
            ..WorkloadSpec::small(WorkloadKind::Vector)
        },
        &cfg,
    );
    driver.setup(&mut sys);
    // Demand a window far longer than 50 txs would produce.
    let report = driver.run_until(&mut sys, 10, 50, 200_000);
    assert!(
        report.txs > 50,
        "run_until must keep issuing: {}",
        report.txs
    );
    assert!(
        report.cycles >= 200_000 || report.txs == 50 * 64,
        "window too short: {} cycles",
        report.cycles
    );
}

#[test]
fn warmup_is_excluded_from_measurement() {
    let cfg = SimConfig::small_for_tests();
    let mut sys = build_system("LAD", &cfg);
    let mut driver = Driver::new(
        WorkloadSpec {
            items: 64,
            ..WorkloadSpec::small(WorkloadKind::Queue)
        },
        &cfg,
    );
    driver.setup(&mut sys);
    let report = driver.run(&mut sys, 500, 100);
    assert_eq!(report.txs, 100, "only measured txs counted");
}
