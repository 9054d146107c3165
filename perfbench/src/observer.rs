//! Engine-boundary tracing: a delegating [`PersistenceEngine`] that times
//! every protocol call into per-(phase, method) aggregates, and the engine
//! registry the traced run builds from.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use engines::{
    CommitOutcome, EngineProperties, EngineStats, MissFill, PersistenceEngine, RecoveryReport,
};
use hoop_bench::json::Json;
use nvm::media::MediaModel;
use nvm::{NvmDevice, PersistentStore};
use simcore::addr::Line;
use simcore::config::SimConfig;
use simcore::crashpoint::CrashValve;
use simcore::sanitize::SanitizerHandle;
use simcore::{CoreId, Cycle, PAddr, TxId};

/// The timed protocol methods, in [`Method`] order.
pub const METHODS: [&str; 12] = [
    "init_home",
    "tx_begin",
    "on_store",
    "on_load",
    "on_llc_miss",
    "on_evict_dirty",
    "tx_end",
    "tick",
    "drain",
    "crash",
    "recover",
    "reset_counters",
];

/// A timed protocol method (index into [`METHODS`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// `init_home`.
    InitHome,
    /// `tx_begin`.
    TxBegin,
    /// `on_store`.
    OnStore,
    /// `on_load`.
    OnLoad,
    /// `on_llc_miss`.
    OnLlcMiss,
    /// `on_evict_dirty`.
    OnEvictDirty,
    /// `tx_end`.
    TxEnd,
    /// `tick`.
    Tick,
    /// `drain`.
    Drain,
    /// `crash`.
    Crash,
    /// `recover`.
    Recover,
    /// `reset_counters`.
    ResetCounters,
}

impl Method {
    /// Methods that run a handful of times per cell; each call is also kept
    /// as a span.
    fn is_rare(self) -> bool {
        matches!(
            self,
            Method::Drain | Method::Crash | Method::Recover | Method::ResetCounters
        )
    }
}

/// Harness phases the aggregates are split by (index into [`PHASES`]).
pub const PHASES: [&str; 3] = ["setup", "warmup", "measured"];

/// A harness phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Workload or engine set-up (seeding the home image).
    Setup,
    /// Warmup transactions and the drain after them.
    Warmup,
    /// The measured window, its final drain and verification.
    Measured,
}

const BUCKETS: usize = 48;
const M: usize = METHODS.len();
const P: usize = PHASES.len();

/// One call of a rare method, in nanoseconds since the probe was created.
#[derive(Clone, Copy, Debug)]
pub struct CallSpan {
    /// The method.
    pub method: Method,
    /// The phase the call ran in.
    pub phase: Phase,
    /// Call start.
    pub start_ns: u64,
    /// Call end.
    pub end_ns: u64,
}

/// Shared counters of one traced cell: call count, total nanoseconds and a
/// log2 duration histogram per (phase, method), plus spans of the rare
/// calls. Atomics because the engine behind the observer must be `Send`;
/// every counter has a single writer (the thread driving the engine), so
/// plain relaxed load/store pairs lose no update.
pub struct Probe {
    origin: Instant,
    phase: AtomicUsize,
    calls: [[AtomicU64; M]; P],
    nanos: [[AtomicU64; M]; P],
    hist: [[[AtomicU64; BUCKETS]; M]; P],
    spans: Mutex<Vec<CallSpan>>,
    marks: Mutex<Vec<(Phase, u64)>>,
}

fn add(counter: &AtomicU64, n: u64) {
    counter.store(counter.load(Relaxed) + n, Relaxed);
}

impl Probe {
    /// A probe in the [`Phase::Setup`] phase whose span timestamps count
    /// from `origin`.
    pub fn new(origin: Instant) -> Arc<Probe> {
        let probe = Arc::new(Probe {
            origin,
            phase: AtomicUsize::new(Phase::Setup as usize),
            calls: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            nanos: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            hist: std::array::from_fn(|_| {
                std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0)))
            }),
            spans: Mutex::new(Vec::new()),
            marks: Mutex::new(Vec::new()),
        });
        probe.set_phase(Phase::Setup);
        probe
    }

    /// Switches the phase later calls are charged to.
    pub fn set_phase(&self, phase: Phase) {
        self.phase.store(phase as usize, Relaxed);
        let at = self.origin.elapsed().as_nanos() as u64;
        self.marks
            .lock()
            .expect("probe phase log poisoned")
            .push((phase, at));
    }

    /// Every phase switch so far, with its time.
    pub fn marks(&self) -> Vec<(Phase, u64)> {
        self.marks.lock().expect("probe phase log poisoned").clone()
    }

    fn phase(&self) -> Phase {
        const ALL: [Phase; P] = [Phase::Setup, Phase::Warmup, Phase::Measured];
        ALL[self.phase.load(Relaxed)]
    }

    fn record(&self, method: Method, start: Instant) {
        let end = Instant::now(); // lint:allow(wall-clock)
        let ns = end.duration_since(start).as_nanos() as u64;
        let phase = self.phase();
        let (p, m) = (phase as usize, method as usize);
        add(&self.calls[p][m], 1);
        add(&self.nanos[p][m], ns);
        let bucket = (64 - ns.leading_zeros() as usize).min(BUCKETS - 1);
        add(&self.hist[p][m][bucket], 1);
        if method.is_rare() {
            let end_ns = end.duration_since(self.origin).as_nanos() as u64;
            self.spans
                .lock()
                .expect("probe span log poisoned")
                .push(CallSpan {
                    method,
                    phase,
                    start_ns: end_ns - ns,
                    end_ns,
                });
        }
        // `Driver::run_until` resets counters exactly once, between its
        // warmup and its measured window.
        if method == Method::ResetCounters && phase == Phase::Warmup {
            self.set_phase(Phase::Measured);
        }
    }

    /// Calls of `method` in `phase`.
    pub fn calls(&self, phase: Phase, method: Method) -> u64 {
        self.calls[phase as usize][method as usize].load(Relaxed)
    }

    /// Nanoseconds spent in `method` during `phase`.
    pub fn nanos(&self, phase: Phase, method: Method) -> u64 {
        self.nanos[phase as usize][method as usize].load(Relaxed)
    }

    /// Nanoseconds spent in every method and phase so far.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().flatten().map(|n| n.load(Relaxed)).sum()
    }

    /// The non-empty (phase, method) aggregates as JSON. Histogram bucket
    /// `i` counts calls that took `[2^(i-1), 2^i)` ns.
    pub fn to_json(&self) -> Json {
        let mut rows = Vec::new();
        for (p, phase) in PHASES.iter().enumerate() {
            for (m, method) in METHODS.iter().enumerate() {
                let calls = self.calls[p][m].load(Relaxed);
                if calls == 0 {
                    continue;
                }
                let mut hist: Vec<u64> = self.hist[p][m].iter().map(|b| b.load(Relaxed)).collect();
                while hist.last() == Some(&0) {
                    hist.pop();
                }
                rows.push(Json::obj([
                    ("phase", Json::Str(phase.to_string())),
                    ("method", Json::Str(method.to_string())),
                    ("calls", Json::UInt(calls)),
                    ("ns", Json::UInt(self.nanos[p][m].load(Relaxed))),
                    (
                        "log2_ns_histogram",
                        Json::Arr(hist.into_iter().map(Json::UInt).collect()),
                    ),
                ]));
            }
        }
        Json::Arr(rows)
    }

    /// The rare calls seen so far, in call order.
    pub fn spans(&self) -> Vec<CallSpan> {
        self.spans.lock().expect("probe span log poisoned").clone()
    }
}

/// A span of the traced run: harness phases around the calls into each
/// layer, linked to the span that contains them.
#[derive(Clone, Debug)]
pub struct Span {
    /// Phase or call name.
    pub name: String,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the run began.
    pub start_ns: u64,
    /// End, in nanoseconds since the run began.
    pub end_ns: u64,
}

/// The traced run's spans and each traced cell's per-(phase, method)
/// aggregates, kept in memory and written out at the end.
pub struct TraceLog {
    origin: Instant,
    list: Vec<Span>,
    aggregates: Vec<(String, Json)>,
}

impl TraceLog {
    /// An empty log whose clock starts now.
    pub fn new() -> TraceLog {
        TraceLog {
            origin: Instant::now(), // lint:allow(wall-clock)
            list: Vec::new(),
            aggregates: Vec::new(),
        }
    }

    /// The instant span timestamps count from (pass it to [`Probe::new`]).
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the log was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn push(&mut self, name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> usize {
        self.list.push(Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns,
        });
        self.list.len() - 1
    }

    /// Sets the end of span `id` (for a span opened before its children).
    pub fn end(&mut self, id: usize, end_ns: u64) {
        self.list[id].end_ns = end_ns;
    }

    /// Records a traced cell that ran from `start_ns` to `end_ns`: the cell
    /// span, one span per phase `probe` switched through, the rare engine
    /// calls (drain, crash, recover, reset) under their phase, and the
    /// probe's aggregates. Returns the index of the last phase span.
    pub fn push_cell(
        &mut self,
        name: &str,
        parent: Option<usize>,
        probe: &Probe,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let cell = self.push(name, parent, start_ns, end_ns);
        self.aggregates.push((name.to_string(), probe.to_json()));
        let marks = probe.marks();
        let mut phase_spans = Vec::new();
        for (k, &(phase, at)) in marks.iter().enumerate() {
            let until = marks.get(k + 1).map_or(end_ns, |m| m.1);
            let id = self.push(PHASES[phase as usize], Some(cell), at, until);
            phase_spans.push((phase, at, id));
        }
        for c in probe.spans() {
            let parent = phase_spans
                .iter()
                .rev()
                .find(|(phase, at, _)| *phase == c.phase && *at <= c.start_ns)
                .map_or(cell, |s| s.2);
            self.push(
                METHODS[c.method as usize],
                Some(parent),
                c.start_ns,
                c.end_ns,
            );
        }
        phase_spans.last().map_or(cell, |s| s.2)
    }

    /// The log as JSON: `spans` (`parent` indexes into it) and the
    /// `aggregates` of every traced cell.
    pub fn to_json(&self) -> Json {
        let spans = self
            .list
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(s.name.clone())),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                    ),
                    ("start_ns", Json::UInt(s.start_ns)),
                    ("end_ns", Json::UInt(s.end_ns)),
                ])
            })
            .collect();
        Json::obj([
            ("spans", Json::Arr(spans)),
            ("aggregates", Json::Obj(self.aggregates.clone())),
        ])
    }
}

/// Forwards every [`PersistenceEngine`] method to the wrapped engine and
/// times the protocol calls into a [`Probe`]. Defaulted trait methods are
/// forwarded too: a missed forward would silently drop that method's cost
/// (LSM's `on_load`) or behaviour (`media`, `attach_*`).
pub struct TimedEngine<E: PersistenceEngine + ?Sized> {
    inner: Box<E>,
    probe: Arc<Probe>,
}

impl<E: PersistenceEngine + ?Sized> TimedEngine<E> {
    /// Wraps `inner`, charging its calls to `probe`.
    pub fn new(inner: Box<E>, probe: Arc<Probe>) -> Self {
        TimedEngine { inner, probe }
    }

    fn timed<T>(&mut self, method: Method, f: impl FnOnce(&mut E) -> T) -> T {
        let start = Instant::now(); // lint:allow(wall-clock)
        let out = f(&mut self.inner);
        self.probe.record(method, start);
        out
    }
}

impl<E: PersistenceEngine + ?Sized> PersistenceEngine for TimedEngine<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn properties(&self) -> EngineProperties {
        self.inner.properties()
    }

    fn init_home(&mut self, addr: PAddr, data: &[u8]) {
        self.timed(Method::InitHome, |e| e.init_home(addr, data));
    }

    fn tx_begin(&mut self, core: CoreId, now: Cycle) -> TxId {
        self.timed(Method::TxBegin, |e| e.tx_begin(core, now))
    }

    fn on_store(&mut self, core: CoreId, tx: TxId, addr: PAddr, data: &[u8], now: Cycle) -> Cycle {
        self.timed(Method::OnStore, |e| e.on_store(core, tx, addr, data, now))
    }

    fn on_load(&mut self, core: CoreId, addr: PAddr, len: u64, now: Cycle) -> Cycle {
        self.timed(Method::OnLoad, |e| e.on_load(core, addr, len, now))
    }

    fn on_llc_miss(&mut self, core: CoreId, line: Line, now: Cycle) -> MissFill {
        self.timed(Method::OnLlcMiss, |e| e.on_llc_miss(core, line, now))
    }

    fn on_evict_dirty(&mut self, line: Line, persistent: bool, line_data: &[u8], now: Cycle) {
        self.timed(Method::OnEvictDirty, |e| {
            e.on_evict_dirty(line, persistent, line_data, now)
        });
    }

    fn tx_end(&mut self, core: CoreId, tx: TxId, now: Cycle) -> CommitOutcome {
        self.timed(Method::TxEnd, |e| e.tx_end(core, tx, now))
    }

    fn tick(&mut self, now: Cycle) -> Cycle {
        self.timed(Method::Tick, |e| e.tick(now))
    }

    fn drain(&mut self, now: Cycle) {
        self.timed(Method::Drain, |e| e.drain(now));
    }

    fn crash(&mut self) {
        self.timed(Method::Crash, |e| e.crash());
    }

    fn recover(&mut self, threads: usize) -> RecoveryReport {
        self.timed(Method::Recover, |e| e.recover(threads))
    }

    fn durable(&self) -> &PersistentStore {
        self.inner.durable()
    }

    fn device(&self) -> &NvmDevice {
        self.inner.device()
    }

    fn stats(&self) -> &EngineStats {
        self.inner.stats()
    }

    fn extra_metrics(&self) -> Vec<(&'static str, f64)> {
        self.inner.extra_metrics()
    }

    fn enable_endurance_tracking(&mut self) {
        self.inner.enable_endurance_tracking();
    }

    fn media(&self) -> MediaModel {
        self.inner.media()
    }

    fn attach_sanitizer(&mut self, handle: SanitizerHandle) {
        self.inner.attach_sanitizer(handle);
    }

    fn attach_crash_valve(&mut self, valve: CrashValve) {
        self.inner.attach_crash_valve(valve);
    }

    fn reset_counters(&mut self) {
        self.timed(Method::ResetCounters, |e| e.reset_counters());
    }
}

/// Builds the engine `workloads::driver::build_system` would put behind a
/// `System` for `name`. `build_system` does not expose the engine, so the
/// registry is repeated here; a test pins it to `build_system`.
///
/// # Panics
///
/// Panics on a name outside `workloads::driver::ENGINES`.
pub fn build_engine(name: &str, cfg: &SimConfig) -> Box<dyn PersistenceEngine> {
    match name {
        "Ideal" => Box::new(engines::native::NativeEngine::new(cfg)),
        "Opt-Redo" => Box::new(engines::redo::OptRedoEngine::new(cfg)),
        "Opt-Undo" => Box::new(engines::undo::OptUndoEngine::new(cfg)),
        "OSP" => Box::new(engines::osp::OspEngine::new(cfg)),
        "LSM" => Box::new(engines::lsm::LsmEngine::new(cfg)),
        "LAD" => Box::new(engines::lad::LadEngine::new(cfg)),
        "HOOP" => Box::new(hoop::engine::HoopEngine::new(cfg)),
        other => panic!("unknown engine {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engines::system::System;
    use hoop_bench::runner::CellResult;
    use workloads::driver::{build_system, Driver, RunReport, ENGINES};
    use workloads::{WorkloadKind, WorkloadSpec};

    #[test]
    fn registry_matches_build_system_name_for_name() {
        let cfg = SimConfig::small_for_tests();
        for name in ENGINES {
            assert_eq!(build_engine(name, &cfg).name(), name);
            assert_eq!(build_system(name, &cfg).engine().name(), name);
        }
    }

    fn cell_json(report: RunReport) -> String {
        CellResult {
            engine: report.engine,
            workload: "small",
            seed: 7,
            report,
            sanitizer: None,
            endurance: None,
        }
        .to_json()
        .pretty()
    }

    #[test]
    fn traced_reports_are_field_identical_to_untraced() {
        let cfg = SimConfig::small_for_tests();
        let spec = WorkloadSpec {
            items: 128,
            ..WorkloadSpec::small(WorkloadKind::Hashmap)
        };
        for name in ENGINES {
            let run = |mut sys: System, probe: Option<&Probe>| {
                let mut driver = Driver::new(spec, &cfg);
                driver.setup(&mut sys);
                if let Some(p) = probe {
                    p.set_phase(Phase::Warmup);
                }
                driver.run_until(&mut sys, 20, 80, 0)
            };
            let untraced = run(build_system(name, &cfg), None);
            let probe = Probe::new(Instant::now()); // lint:allow(wall-clock)
            let timed = TimedEngine::new(build_engine(name, &cfg), probe.clone());
            let traced = run(System::new(Box::new(timed), &cfg), Some(&probe));
            assert_eq!(cell_json(untraced), cell_json(traced), "{name}");
            // The observer saw the whole protocol, phase by phase.
            assert!(probe.calls(Phase::Setup, Method::InitHome) > 0, "{name}");
            assert_eq!(probe.calls(Phase::Warmup, Method::TxBegin), 20, "{name}");
            assert_eq!(probe.calls(Phase::Measured, Method::TxEnd), 80, "{name}");
            assert!(probe.calls(Phase::Measured, Method::OnLoad) > 0, "{name}");
            assert_eq!(probe.calls(Phase::Warmup, Method::ResetCounters), 1);
            let drains: Vec<Phase> = probe
                .spans()
                .iter()
                .filter(|s| s.method == Method::Drain)
                .map(|s| s.phase)
                .collect();
            assert_eq!(drains, [Phase::Warmup, Phase::Measured], "{name}");
        }
    }
}
