//! Drives one workload to a chosen crash point and checks the recovery.
//!
//! A [`Harness`] owns an engine factory and a configuration; each
//! [`Harness::run`] builds a fresh system, subscribes an armed [`Valve`] to
//! its persist-event stream, replays the workload until the valve trips (or to
//! completion for dry runs), crashes, optionally injects a *nested* crash
//! partway through recovery, recovers fully, and hands the recovered
//! durable image to the [oracle](crate::oracle). The golden cross-check
//! additionally re-executes exactly the committed prefix serially on a
//! second pristine machine and demands byte-equal footprints.

use engines::system::System;
use engines::traits::RecoveryReport;
use nvm::MediaSummary;
use simcore::config::MediaConfig;
use simcore::persist::{Kind, Valve};
use simcore::{DetHashMap, PAddr, SimConfig};
use workloads::driver::build_system;

use crate::oracle::{attribute_media, check_image, OracleMode, Violation, ViolationKind};
use crate::workload::CrashWorkload;

/// A second power failure injected `extra` durable events into recovery.
#[derive(Clone, Copy, Debug)]
pub struct NestedCrash {
    /// Recovery events allowed to persist before the second cut.
    pub extra: u64,
}

/// Everything observed from one crash-and-recover experiment.
#[derive(Clone, Debug)]
pub struct CrashOutcome {
    /// Engine under test.
    pub engine: String,
    /// Armed cutoff (`u64::MAX` = dry run).
    pub cutoff: u64,
    /// Events ticked when the workload stopped (= total workload events on
    /// a dry run).
    pub events_at_crash: u64,
    /// Events ticked over the whole experiment, recovery included.
    pub total_events: u64,
    /// Whether the valve actually closed.
    pub tripped: bool,
    /// Kind of the event the crash landed on.
    pub trip_kind: Option<Kind>,
    /// Per-kind event counts in [`Kind::ALL`] order.
    pub kind_counts: [u64; 7],
    /// Plan indices whose commit records were durable, in commit order.
    pub committed: Vec<usize>,
    /// Oracle violations (empty = the crash point is survivable).
    pub violations: Vec<Violation>,
    /// Report from the final recovery.
    pub report: RecoveryReport,
    /// Content digest of the recovered durable image.
    pub image_digest: u64,
    /// Media-fault counters from the crashed run (all zero when the fault
    /// model is detached).
    pub media: MediaSummary,
}

impl CrashOutcome {
    /// Whether the experiment satisfied the durability oracle.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The image is correct even though the media degraded under it (CEs,
    /// retries, scrub rewrites or retirements occurred, all absorbed).
    pub fn degraded_but_correct(&self) -> bool {
        self.violations.is_empty() && self.media.degraded()
    }

    /// One-word verdict for reports: `pass`, `degraded_but_correct`,
    /// `ue_data_loss` (a violation attributable to an uncorrectable media
    /// error) or `fail`.
    pub fn verdict(&self) -> &'static str {
        if self
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::UeDataLoss)
        {
            "ue_data_loss"
        } else if !self.violations.is_empty() {
            "fail"
        } else if self.media.degraded() {
            "degraded_but_correct"
        } else {
            "pass"
        }
    }
}

/// Lays out `wl`'s words on `sys`, then drives its plans (draining every
/// `drain_every` transactions and at the end) until `tripped` reports the
/// crash. Returns the words' base address and the issue-order `TxId` of each
/// plan that began, for mapping durable commit records back to plans.
pub fn drive(
    sys: &mut System,
    wl: &CrashWorkload,
    tripped: impl Fn() -> bool,
) -> (PAddr, Vec<Option<u64>>) {
    let base = sys.alloc(wl.total_words * 8);
    for w in 0..wl.total_words {
        sys.write_initial(
            base.offset(w * 8),
            &CrashWorkload::initial_value(w).to_le_bytes(),
        );
    }
    let mut tx_of_plan: Vec<Option<u64>> = vec![None; wl.plans.len()];
    'drive: for (i, plan) in wl.plans.iter().enumerate() {
        // Once the valve trips nothing further persists; stop driving
        // exactly as a real machine would stop at power loss. This also
        // keeps engines from exhausting out-of-place space they can no
        // longer reclaim (reclamation is a gated durable event).
        if tripped() {
            break;
        }
        let tx = sys.tx_begin(plan.core);
        tx_of_plan[i] = Some(tx.0);
        for &(w, v) in &plan.writes {
            if tripped() {
                break 'drive;
            }
            sys.store_u64(plan.core, base.offset(w * 8), v);
        }
        if tripped() {
            break;
        }
        sys.tx_end(plan.core, tx);
        if !tripped() && (i + 1) % wl.spec.drain_every == 0 {
            sys.drain();
        }
    }
    if !tripped() {
        sys.drain();
    }
    (base, tx_of_plan)
}

/// Factory + policy for crash experiments against one engine.
pub struct Harness {
    cfg: SimConfig,
    name: String,
    mode: OracleMode,
    golden: bool,
    make: Box<dyn Fn(&SimConfig) -> System>,
}

impl Harness {
    /// Harness for a registry engine (see `workloads::driver::ENGINES`),
    /// with the oracle mode its durability contract calls for.
    pub fn named(name: &str) -> Self {
        let n = name.to_string();
        Harness {
            cfg: SimConfig::small_for_tests(),
            name: name.to_string(),
            mode: OracleMode::for_engine(name),
            golden: true,
            make: Box::new(move |cfg| build_system(&n, cfg)),
        }
    }

    /// Harness over an arbitrary system factory (used by the deliberately
    /// broken fixture engines). No golden cross-check: a broken engine's
    /// serial re-execution is not a trustworthy reference.
    pub fn custom(name: &str, mode: OracleMode, make: Box<dyn Fn(&SimConfig) -> System>) -> Self {
        Harness {
            cfg: SimConfig::small_for_tests(),
            name: name.to_string(),
            mode,
            golden: false,
            make,
        }
    }

    /// Replaces the simulator configuration.
    pub fn with_config(mut self, cfg: SimConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Enables the media-fault model for every experiment this harness
    /// runs (combined crash + media drives).
    pub fn with_media(mut self, media: MediaConfig) -> Self {
        self.cfg.media = media;
        self
    }

    /// Disables the golden serial re-execution cross-check.
    pub fn without_golden(mut self) -> Self {
        self.golden = false;
        self
    }

    /// The configuration experiments run under.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Engine name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Counting dry run: replays the whole workload with a valve that never
    /// trips, so `events_at_crash` is the total number of crash points and
    /// the run doubles as a no-crash sanity check of the engine.
    pub fn count_events(&self, wl: &CrashWorkload) -> CrashOutcome {
        self.run(wl, u64::MAX, None, 1)
    }

    /// Runs one experiment: crash at durable-event index `cutoff`, then
    /// (optionally) again `nested.extra` events into recovery, then recover
    /// with `threads` and check the image.
    pub fn run(
        &self,
        wl: &CrashWorkload,
        cutoff: u64,
        nested: Option<NestedCrash>,
        threads: usize,
    ) -> CrashOutcome {
        let mut sys = (self.make)(&self.cfg);
        let (shared, probe) = Valve::shared(cutoff);
        sys.attach_probe(probe);
        let valve = || shared.lock().expect("valve poisoned");

        let (base, tx_of_plan) = drive(&mut sys, wl, || valve().tripped());

        let events_at_crash = valve().total();
        // `rearm`/`open_fully` reset trip state; capture it first.
        let tripped = valve().tripped();
        let trip_kind = valve().trip_kind();
        sys.crash();
        if let Some(n) = nested {
            // Let recovery persist `extra` more events, then pull the plug
            // again. The final recovery below must still converge.
            valve().rearm(n.extra);
            let _ = sys.recover(1);
            sys.crash();
        }
        valve().open_fully();
        let report = sys.recover(threads);

        // The valve records (tx, event index) pairs in durable order; map
        // them to plan indices, keeping first occurrence (an engine may
        // re-persist a commit record, e.g. across drains).
        let tx_to_plan: DetHashMap<u64, usize> = tx_of_plan
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.map(|t| (t, i)))
            .collect();
        let mut committed = Vec::new();
        for (t, _) in valve().committed() {
            let i = *tx_to_plan
                .get(t)
                .expect("valve recorded a commit for an unknown transaction");
            if !committed.contains(&i) {
                committed.push(i);
            }
        }

        let media = sys.media();
        let durable = sys.engine().durable();
        let mut violations = check_image(wl, base, durable, &committed, self.mode);
        attribute_media(&mut violations, base, &media);
        // The golden serial re-execution is only a valid byte-equality
        // reference on pristine media: under fault injection its wear
        // history (and therefore its fault schedule) differs from the
        // crashed run's, so only the atomic oracle judges those runs.
        if self.golden && self.mode == OracleMode::Atomic && !media.is_attached() {
            violations.extend(self.golden_check(wl, base, durable, &committed));
        }

        let (total_events, kind_counts) = {
            let v = valve();
            (v.total(), v.kind_counts())
        };
        CrashOutcome {
            engine: self.name.clone(),
            cutoff,
            events_at_crash,
            total_events,
            tripped,
            trip_kind,
            kind_counts,
            committed,
            violations,
            report,
            image_digest: durable.content_digest(),
            media: media.summary(),
        }
    }

    /// Golden cross-check: re-executes exactly the committed prefix,
    /// serially and crash-free, on a pristine machine of the same engine,
    /// then demands the two recovered footprints be byte-equal. The fresh
    /// system's allocator is deterministic, so the footprint lands at the
    /// same address.
    fn golden_check(
        &self,
        wl: &CrashWorkload,
        base: PAddr,
        durable: &nvm::PersistentStore,
        committed: &[usize],
    ) -> Vec<Violation> {
        let mut gold = (self.make)(&self.cfg);
        let gbase = gold.alloc(wl.total_words * 8);
        assert_eq!(
            gbase, base,
            "golden re-execution allocated a different footprint base"
        );
        for w in 0..wl.total_words {
            gold.write_initial(
                gbase.offset(w * 8),
                &CrashWorkload::initial_value(w).to_le_bytes(),
            );
        }
        for &i in committed {
            let plan = &wl.plans[i];
            let tx = gold.tx_begin(plan.core);
            for &(w, v) in &plan.writes {
                gold.store_u64(plan.core, gbase.offset(w * 8), v);
            }
            gold.tx_end(plan.core, tx);
        }
        gold.drain();
        gold.crash();
        let _ = gold.recover(1);

        let gdur = gold.engine().durable();
        let mut out = Vec::new();
        for w in 0..wl.total_words {
            let want = gdur.read_u64(gbase.offset(w * 8));
            let got = durable.read_u64(base.offset(w * 8));
            if got != want {
                out.push(Violation {
                    kind: ViolationKind::Mismatch,
                    word: w,
                    expected: want,
                    got,
                    detail: "differs from golden serial re-execution".to_string(),
                });
            }
        }
        out
    }
}
