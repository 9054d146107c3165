//! The three crash-exploration modes and their JSON report.
//!
//! * [`run_exhaustive`] — crash at *every* durable-event index of a small
//!   workload. Complete coverage; CI's required crash matrix.
//! * [`run_sampled`] — seeded-random crash indices at full workload scale,
//!   where exhausting the (much larger) event space is impractical.
//! * [`run_nested`] — crash during recovery itself, restart, recover again;
//!   exhaustive over the recovery events of a set of primary crash points.
//!
//! Any failure is shrunk by binary search to the smallest failing crash
//! index and exported as a self-contained [`Reproducer`] (engine, seed,
//! cutoff, nested offset) in `results/crashtest.json`.

use hoop_bench::json::Json;
use simcore::persist::Kind;
use simcore::SimRng;

use crate::harness::{CrashOutcome, Harness, NestedCrash};
use crate::workload::CrashWorkload;

/// Cap on recorded reproducers per engine — a systematically broken engine
/// fails at most crash points, and one shrunk witness per region is enough.
const MAX_FAILURES: usize = 5;

/// Everything needed to replay one failing experiment exactly.
#[derive(Clone, Debug)]
pub struct Reproducer {
    /// Engine under test.
    pub engine: String,
    /// Workload seed.
    pub seed: u64,
    /// Failing durable-event cutoff.
    pub cutoff: u64,
    /// Nested-crash offset into recovery, if the failure is nested.
    pub nested_extra: Option<u64>,
    /// Whether `cutoff` is the shrunk minimum (vs. the raw first hit).
    pub shrunk: bool,
    /// Kind of the event the crash landed on.
    pub trip_kind: Option<Kind>,
    /// First oracle violation, rendered.
    pub violation: String,
    /// Total violations at this crash point.
    pub violation_count: usize,
}

impl Reproducer {
    fn from_outcome(o: &CrashOutcome, seed: u64, nested: Option<u64>, shrunk: bool) -> Self {
        Reproducer {
            engine: o.engine.clone(),
            seed,
            cutoff: o.cutoff,
            nested_extra: nested,
            shrunk,
            trip_kind: o.trip_kind,
            violation: o
                .violations
                .first()
                .map(|v| v.to_string())
                .unwrap_or_default(),
            violation_count: o.violations.len(),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("engine", Json::Str(self.engine.clone())),
            ("seed", Json::UInt(self.seed)),
            ("cutoff", Json::UInt(self.cutoff)),
            (
                "nested_extra",
                self.nested_extra.map_or(Json::Null, Json::UInt),
            ),
            ("shrunk", Json::Bool(self.shrunk)),
            (
                "trip_kind",
                self.trip_kind
                    .map_or(Json::Null, |k| Json::Str(k.name().to_string())),
            ),
            ("violations", Json::UInt(self.violation_count as u64)),
            ("first_violation", Json::Str(self.violation.clone())),
        ])
    }
}

/// Media-fault statistics folded over every experiment of one drive
/// (present only when the harness ran with the fault model attached, so
/// fault-free reports stay byte-identical).
#[derive(Clone, Debug, Default)]
pub struct MediaAggregate {
    /// Line reads classified across all experiments.
    pub reads: u64,
    /// ECC-corrected reads (CE).
    pub corrected: u64,
    /// Uncorrectable reads (UE).
    pub uncorrectable: u64,
    /// Re-read attempts spent.
    pub retries: u64,
    /// Patrol-scrub rewrites.
    pub scrub_rewrites: u64,
    /// Lines retired to spares.
    pub retired: u64,
    /// Retirements dropped for lack of spares.
    pub spare_exhausted: u64,
    /// Classified data-loss declarations.
    pub data_loss: u64,
    /// Crash points whose verdict was `ue_data_loss`.
    pub ue_data_loss_points: u64,
    /// Crash points that recovered correctly despite media degradation.
    pub degraded_but_correct_points: u64,
}

impl MediaAggregate {
    fn absorb(&mut self, o: &CrashOutcome) {
        let s = &o.media;
        self.reads += s.reads;
        self.corrected += s.corrected;
        self.uncorrectable += s.uncorrectable;
        self.retries += s.retries;
        self.scrub_rewrites += s.scrub_rewrites;
        self.retired += s.retired;
        self.spare_exhausted += s.spare_exhausted;
        self.data_loss += s.data_loss;
        if o.verdict() == "ue_data_loss" {
            self.ue_data_loss_points += 1;
        }
        if o.degraded_but_correct() {
            self.degraded_but_correct_points += 1;
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("reads", Json::UInt(self.reads)),
            ("corrected", Json::UInt(self.corrected)),
            ("uncorrectable", Json::UInt(self.uncorrectable)),
            ("retries", Json::UInt(self.retries)),
            ("scrub_rewrites", Json::UInt(self.scrub_rewrites)),
            ("retired", Json::UInt(self.retired)),
            ("spare_exhausted", Json::UInt(self.spare_exhausted)),
            ("data_loss", Json::UInt(self.data_loss)),
            ("ue_data_loss_points", Json::UInt(self.ue_data_loss_points)),
            (
                "degraded_but_correct_points",
                Json::UInt(self.degraded_but_correct_points),
            ),
        ])
    }
}

/// Aggregate result of one mode over one engine.
#[derive(Clone, Debug)]
pub struct EngineSummary {
    /// Engine under test.
    pub engine: String,
    /// Exploration mode ("exhaustive" / "sampled" / "nested").
    pub mode: &'static str,
    /// Durable events the crash-free workload produces.
    pub workload_events: u64,
    /// Per-kind event counts from the dry run.
    pub kind_counts: [u64; 7],
    /// Crash experiments run.
    pub crash_points: u64,
    /// Shrunk failing reproducers (empty = engine survived everything).
    pub failures: Vec<Reproducer>,
    /// Media-fault statistics (combined crash + media drives only).
    pub media: Option<MediaAggregate>,
}

impl EngineSummary {
    /// Whether every explored crash point was survivable.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// JSON form for `results/crashtest.json`.
    pub fn to_json(&self) -> Json {
        let kinds = Json::Obj(
            Kind::ALL
                .iter()
                .map(|k| {
                    (
                        k.name().to_string(),
                        Json::UInt(self.kind_counts[*k as usize]),
                    )
                })
                .collect(),
        );
        let mut pairs = vec![
            ("engine", Json::Str(self.engine.clone())),
            ("mode", Json::Str(self.mode.to_string())),
            ("workload_events", Json::UInt(self.workload_events)),
            ("event_kinds", kinds),
            ("crash_points", Json::UInt(self.crash_points)),
            ("passed", Json::Bool(self.passed())),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Reproducer::to_json).collect()),
            ),
        ];
        // Present only on combined crash + media drives, so the fault-free
        // report (the committed `results/crashtest.json`) keeps its bytes.
        if let Some(m) = &self.media {
            pairs.push(("media", m.to_json()));
        }
        Json::obj(pairs)
    }
}

/// Binary-searches the smallest failing cutoff in `0..=known_bad`, assuming
/// failure is monotone in the cutoff (true for the common
/// commit-before-payload shapes; for non-monotone failures this still
/// returns *a* failing cutoff no larger than the witness).
fn shrink(
    harness: &Harness,
    wl: &CrashWorkload,
    known_bad: u64,
    nested: Option<NestedCrash>,
) -> u64 {
    let fails = |k: u64| !harness.run(wl, k, nested, 1).passed();
    let (mut lo, mut hi) = (0u64, known_bad);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if fails(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

fn record_failure(
    failures: &mut Vec<Reproducer>,
    harness: &Harness,
    wl: &CrashWorkload,
    outcome: &CrashOutcome,
    nested: Option<NestedCrash>,
) {
    if failures.len() >= MAX_FAILURES {
        return;
    }
    // Shrink only the first witness — one minimal reproducer per engine is
    // what a human debugs from; later hits are recorded raw.
    if failures.is_empty() {
        let min = shrink(harness, wl, outcome.cutoff, nested);
        let shrunk = harness.run(wl, min, nested, 1);
        failures.push(Reproducer::from_outcome(
            &shrunk,
            wl.spec.seed,
            nested.map(|n| n.extra),
            true,
        ));
    } else {
        failures.push(Reproducer::from_outcome(
            outcome,
            wl.spec.seed,
            nested.map(|n| n.extra),
            false,
        ));
    }
}

/// The media aggregate for a drive under `harness` — `Some` only when the
/// fault model is enabled, seeded with the dry run's counters.
fn media_aggregate(harness: &Harness, dry: &CrashOutcome) -> Option<MediaAggregate> {
    harness.config().media.enabled.then(|| {
        let mut m = MediaAggregate::default();
        m.absorb(dry);
        m
    })
}

/// Crashes at every durable-event index of the workload.
pub fn run_exhaustive(harness: &Harness, wl: &CrashWorkload) -> EngineSummary {
    let dry = harness.count_events(wl);
    let mut media = media_aggregate(harness, &dry);
    let mut failures = Vec::new();
    if !dry.passed() {
        // The crash-free run must already satisfy the oracle; a violation
        // here is an engine bug independent of fault injection.
        failures.push(Reproducer::from_outcome(&dry, wl.spec.seed, None, false));
    }
    let n = dry.events_at_crash;
    let mut tested = 0u64;
    for k in 0..n {
        let o = harness.run(wl, k, None, 1);
        tested += 1;
        if let Some(m) = media.as_mut() {
            m.absorb(&o);
        }
        if !o.passed() {
            record_failure(&mut failures, harness, wl, &o, None);
        }
    }
    EngineSummary {
        engine: harness.name().to_string(),
        mode: "exhaustive",
        workload_events: n,
        kind_counts: dry.kind_counts,
        crash_points: tested,
        failures,
        media,
    }
}

/// Crashes at `samples` seeded-random event indices (full-scale workloads).
pub fn run_sampled(
    harness: &Harness,
    wl: &CrashWorkload,
    samples: u64,
    seed: u64,
) -> EngineSummary {
    let dry = harness.count_events(wl);
    let mut media = media_aggregate(harness, &dry);
    let mut failures = Vec::new();
    if !dry.passed() {
        failures.push(Reproducer::from_outcome(&dry, wl.spec.seed, None, false));
    }
    let n = dry.events_at_crash.max(1);
    // Fold the engine name into the stream so engines sample different
    // indices under the same top-level seed.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in harness.name().bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut rng = SimRng::seed(seed ^ h);
    for _ in 0..samples {
        let k = rng.below(n);
        let o = harness.run(wl, k, None, 1);
        if let Some(m) = media.as_mut() {
            m.absorb(&o);
        }
        if !o.passed() {
            record_failure(&mut failures, harness, wl, &o, None);
        }
    }
    EngineSummary {
        engine: harness.name().to_string(),
        mode: "sampled",
        workload_events: dry.events_at_crash,
        kind_counts: dry.kind_counts,
        crash_points: samples,
        failures,
        media,
    }
}

/// Crashes during recovery: for each of `primaries` evenly spaced primary
/// crash points, exhausts every nested cut through that point's recovery.
pub fn run_nested(harness: &Harness, wl: &CrashWorkload, primaries: u64) -> EngineSummary {
    let dry = harness.count_events(wl);
    let mut media = media_aggregate(harness, &dry);
    let mut failures = Vec::new();
    let n = dry.events_at_crash;
    let mut tested = 0u64;
    for j in 1..=primaries {
        let k = (n * j) / (primaries + 1);
        // A plain run at this primary cut tells us how many durable events
        // its recovery performs — that is the nested search space.
        let plain = harness.run(wl, k, None, 1);
        let recovery_events = plain.total_events.saturating_sub(plain.events_at_crash);
        for r in 0..recovery_events {
            let nested = Some(NestedCrash { extra: r });
            let o = harness.run(wl, k, nested, 1);
            tested += 1;
            if let Some(m) = media.as_mut() {
                m.absorb(&o);
            }
            if !o.passed() {
                record_failure(&mut failures, harness, wl, &o, nested);
            }
        }
    }
    EngineSummary {
        engine: harness.name().to_string(),
        mode: "nested",
        workload_events: n,
        kind_counts: dry.kind_counts,
        crash_points: tested,
        failures,
        media,
    }
}

/// Assembles the full `results/crashtest.json` document.
pub fn report_json(spec_label: &str, wl: &CrashWorkload, summaries: &[EngineSummary]) -> Json {
    let failures: Vec<Json> = summaries
        .iter()
        .flat_map(|s| s.failures.iter().map(Reproducer::to_json))
        .collect();
    Json::obj([
        ("schema_version", Json::UInt(1)),
        ("workload", Json::Str(spec_label.to_string())),
        (
            "spec",
            Json::obj([
                ("seed", Json::UInt(wl.spec.seed)),
                ("txs", Json::UInt(wl.spec.txs as u64)),
                (
                    "max_writes_per_tx",
                    Json::UInt(wl.spec.max_writes_per_tx as u64),
                ),
                ("words_per_core", Json::UInt(wl.spec.words_per_core)),
                ("drain_every", Json::UInt(wl.spec.drain_every as u64)),
                ("workers", Json::UInt(wl.workers as u64)),
            ]),
        ),
        (
            "engines",
            Json::Arr(summaries.iter().map(EngineSummary::to_json).collect()),
        ),
        ("failures", Json::Arr(failures)),
        (
            "passed",
            Json::Bool(summaries.iter().all(EngineSummary::passed)),
        ),
    ])
}
