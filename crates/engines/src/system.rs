//! The simulated machine: cores + cache hierarchy + persistence engine.
//!
//! [`System`] is what workloads program against. It keeps the functional
//! memory contents in a volatile byte image (the CPU-visible view), routes
//! every load/store through the modeled cache hierarchy, forwards the
//! resulting event stream to the [`PersistenceEngine`], and accounts
//! per-core simulated time.
//!
//! # Example
//!
//! ```
//! use engines::native::NativeEngine;
//! use engines::system::System;
//! use simcore::{CoreId, SimConfig};
//!
//! let cfg = SimConfig::small_for_tests();
//! let mut sys = System::new(Box::new(NativeEngine::new(&cfg)), &cfg);
//! let a = sys.alloc(64);
//! let tx = sys.tx_begin(CoreId(0));
//! sys.store_u64(CoreId(0), a, 42);
//! sys.tx_end(CoreId(0), tx);
//! assert_eq!(sys.load_u64(CoreId(0), a), 42);
//! ```

use memhier::{Evicted, Hierarchy};
use nvm::PersistentStore;
use simcore::addr::{lines_covering, Line, CACHE_LINE_BYTES};
use simcore::alloc::BumpAllocator;
use simcore::persist::{self, Probe};
use simcore::stats::Histogram;
use simcore::{CoreId, Cycle, PAddr, SimConfig, TxId};

use crate::costs;
use crate::layout;
use crate::trace::Event;
use crate::traits::{PersistenceEngine, RecoveryReport};

/// The simulated machine.
pub struct System {
    cfg: SimConfig,
    hier: Hierarchy,
    /// CPU-visible memory contents (lost on crash).
    volatile: PersistentStore,
    engine: Box<dyn PersistenceEngine>,
    clocks: Vec<Cycle>,
    active_tx: Vec<Option<TxId>>,
    tx_start: Vec<Cycle>,
    heap: BumpAllocator,
    tx_latency: Histogram,
    /// The events captured since [`start_recording`](System::start_recording).
    recording: Option<Vec<Event>>,
    /// Whether the recording keeps store and `write_initial` payloads.
    record_values: bool,
    /// Capture-only machines skip the cache hierarchy, the engine, and all
    /// timing: loads and stores only touch the functional byte image (and
    /// the recording, if one is attached). Used by trace recording, where
    /// workload *generation* is wanted without paying for simulation.
    capture_only: bool,
    next_capture_tx: u64,
    probe: Probe,
    /// Routes every access through the line-by-line reference walk.
    #[cfg(test)]
    by_line_reference: bool,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("engine", &self.engine.name())
            .field("cores", &self.clocks.len())
            .field("time", &self.global_time())
            .finish()
    }
}

impl System {
    /// Builds a machine around `engine`.
    pub fn new(engine: Box<dyn PersistenceEngine>, cfg: &SimConfig) -> Self {
        let cores = cfg.cores as usize;
        let mut heap = layout::home_region_allocator();
        // Skip the null page so PAddr(0) never aliases real data.
        let _ = heap.reserve(4096, 4096);
        let heap = BumpAllocator::new(heap.reserve(1 << 36, 4096), 1 << 36);
        System {
            cfg: *cfg,
            hier: Hierarchy::new(cfg),
            volatile: PersistentStore::new(),
            engine,
            clocks: vec![0; cores],
            active_tx: vec![None; cores],
            tx_start: vec![0; cores],
            heap,
            tx_latency: Histogram::new(),
            recording: None,
            record_values: false,
            capture_only: false,
            next_capture_tx: 1,
            probe: Probe::detached(),
            #[cfg(test)]
            by_line_reference: false,
        }
    }

    /// Builds a capture-only machine: same allocator, functional memory and
    /// [`start_recording`](System::start_recording) capture as a real one,
    /// but loads/stores/transactions skip the cache hierarchy, the
    /// persistence engine, and all timing. Workloads run against it orders
    /// of magnitude faster than against a simulated machine, which is
    /// exactly what trace recording (`trace::record_workload`) needs — the
    /// recorded stream depends only on workload logic, never on simulated
    /// timing.
    pub fn new_capture(cfg: &SimConfig) -> Self {
        let mut sys = System::new(Box::new(crate::native::NativeEngine::new(cfg)), cfg);
        sys.capture_only = true;
        sys
    }

    /// Attaches a persist-event probe (a sanitizer or a crash valve) to
    /// the machine *and* its engine: the system emits the architectural
    /// events (transactional stores, evictions, transaction boundaries,
    /// crashes) while the engine emits its durable actions. Only the engine
    /// (and its durable store) are gated by a valve — the volatile CPU view
    /// keeps tracking program execution, exactly as DRAM contents would
    /// until the power actually fails. Detached by default — runs without a
    /// probe are byte-identical to builds without the events.
    pub fn attach_probe(&mut self, probe: Probe) {
        probe.emit(persist::Event::Engine(self.engine.name()), 0);
        self.probe = probe.clone();
        self.engine.attach_probe(probe);
    }

    /// Starts capturing the transactional event stream as trace
    /// [`Event`]s. With `values` a store is captured as [`Event::Store`] and
    /// a `write_initial` with its bytes; without, a store is captured as
    /// [`Event::StoreShape`] and an `Init` with empty `data`, and no payload
    /// is copied. Any previous recording is discarded.
    pub fn start_recording(&mut self, values: bool) {
        self.recording = Some(Vec::new());
        self.record_values = values;
    }

    /// Stops recording and returns the captured events (empty if recording
    /// was never started).
    pub fn take_trace(&mut self) -> Vec<Event> {
        self.recording.take().unwrap_or_default()
    }

    /// Moves out the events captured since recording started or since the
    /// last drain, and keeps recording into the same buffer (empty if
    /// recording was never started). Draining after every transaction
    /// keeps the buffer one transaction long.
    pub fn drain_trace(&mut self) -> impl Iterator<Item = Event> + '_ {
        self.recording.iter_mut().flat_map(|t| t.drain(..))
    }

    fn record(&mut self, ev: Event) {
        if let Some(t) = &mut self.recording {
            t.push(ev);
        }
    }

    fn assert_not_recording(&self, op: &str) {
        assert!(
            self.recording.is_none(),
            "System::{op}() while recording: a trace cannot represent power \
             failure, so crashtest is live-only"
        );
    }

    /// The machine configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Allocates `bytes` of line-aligned home-region memory.
    pub fn alloc(&mut self, bytes: u64) -> PAddr {
        self.heap.alloc_lines(bytes.max(1))
    }

    /// Seeds memory during setup: writes both the volatile view and the
    /// durable home image, bypassing caches and timing.
    pub fn write_initial(&mut self, addr: PAddr, data: &[u8]) {
        if self.recording.is_some() {
            self.record(Event::Init {
                addr: addr.0,
                len: data.len() as u32,
                data: if self.record_values {
                    data.into()
                } else {
                    Box::default()
                },
            });
        }
        self.volatile.write_bytes(addr, data);
        if !self.capture_only {
            self.engine.init_home(addr, data);
        }
    }

    /// Reads memory without timing (for tests and verification).
    pub fn peek_u64(&self, addr: PAddr) -> u64 {
        self.volatile.read_u64(addr)
    }

    /// Reads a byte range without timing.
    pub fn peek_vec(&self, addr: PAddr, len: usize) -> Vec<u8> {
        self.volatile.read_vec(addr, len)
    }

    /// Current simulated cycle of `core`.
    pub fn clock(&self, core: CoreId) -> Cycle {
        self.clocks[core.index()]
    }

    /// Global simulated time (the furthest core).
    pub fn global_time(&self) -> Cycle {
        *self.clocks.iter().max().expect("at least one core")
    }

    /// The worker core with the smallest local clock — schedule the next
    /// transaction there to interleave cores fairly.
    pub fn next_core(&self) -> CoreId {
        let workers = self.cfg.worker_threads as usize;
        let (idx, _) = self.clocks[..workers]
            .iter()
            .enumerate()
            .min_by_key(|&(_, c)| *c)
            .expect("at least one worker");
        CoreId(idx as u8)
    }

    /// Begins a failure-atomic region on `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` already has an open transaction (the paper's
    /// interface is flat `Tx_begin`/`Tx_end`).
    pub fn tx_begin(&mut self, core: CoreId) -> TxId {
        let c = core.index();
        assert!(self.active_tx[c].is_none(), "nested transaction on {core}");
        self.record(Event::TxBegin { core: core.0 });
        if self.capture_only {
            let tx = TxId(self.next_capture_tx);
            self.next_capture_tx += 1;
            self.active_tx[c] = Some(tx);
            return tx;
        }
        self.clocks[c] += costs::TX_BEGIN_OVERHEAD;
        let tx = self.engine.tx_begin(core, self.clocks[c]);
        self.probe
            .emit(persist::Event::TxBegin(core, tx), self.clocks[c]);
        self.active_tx[c] = Some(tx);
        self.tx_start[c] = self.clocks[c];
        tx
    }

    /// Ends the failure-atomic region `tx` on `core`, waiting until the
    /// engine reports it durable.
    ///
    /// # Panics
    ///
    /// Panics if `tx` is not the open transaction of `core`.
    pub fn tx_end(&mut self, core: CoreId, tx: TxId) {
        let c = core.index();
        assert_eq!(self.active_tx[c], Some(tx), "mismatched tx_end on {core}");
        self.record(Event::TxEnd { core: core.0 });
        if self.capture_only {
            self.active_tx[c] = None;
            return;
        }
        self.clocks[c] += costs::TX_END_OVERHEAD;
        let outcome = self.engine.tx_end(core, tx, self.clocks[c]);
        self.clocks[c] += outcome.latency;
        for line in outcome.clean_lines {
            self.hier.clean_line(line);
        }
        self.probe
            .emit(persist::Event::TxCommitted(tx), self.clocks[c]);
        self.active_tx[c] = None;
        self.tx_latency.record(self.clocks[c] - self.tx_start[c]);
        // Give background machinery (GC, checkpointing) a chance to run; any
        // on-demand work stalls this core.
        self.clocks[c] += self.engine.tick(self.clocks[c]);
    }

    /// Runs an access of `len` bytes at `addr` through the hierarchy, line
    /// by line, and returns its latency. An access inside one line (every
    /// word and aligned line access) skips the line iterator; either way an
    /// L1 hit stays inline and everything after an LLC miss goes through
    /// [`finish_llc_miss`](System::finish_llc_miss).
    #[inline(always)]
    fn access_lines(&mut self, core: CoreId, addr: PAddr, len: u64, write: bool) -> Cycle {
        #[cfg(test)]
        if self.by_line_reference {
            return self.access_lines_reference(core, addr, len, write);
        }
        let persistent = write && self.active_tx[core.index()].is_some();
        if addr.0 % CACHE_LINE_BYTES + len <= CACHE_LINE_BYTES {
            return self.access_line(core, addr.line(), write, persistent, 0);
        }
        let mut latency = 0;
        for line in lines_covering(addr, len) {
            latency += self.access_line(core, line, write, persistent, latency);
        }
        latency
    }

    /// One line of [`access_lines`](System::access_lines), `before` cycles
    /// into the access: the hierarchy's latency, plus the engine's on a
    /// miss.
    #[inline(always)]
    fn access_line(
        &mut self,
        core: CoreId,
        line: Line,
        write: bool,
        persistent: bool,
        before: Cycle,
    ) -> Cycle {
        let res = self.hier.access(core, line, write, persistent);
        // Only a fill evicts, so a hit never carries an eviction.
        debug_assert!(res.llc_miss || res.evicted.is_none());
        if !res.llc_miss {
            return res.latency;
        }
        let at = self.clocks[core.index()] + before + res.latency;
        res.latency + self.finish_llc_miss(core, line, res.evicted, at)
    }

    /// The engine's side of an LLC miss on `line` at cycle `at`: it serves
    /// the fill, then receives the dirty line the fill pushed out of the
    /// LLC, if any (the probe sees the eviction first). Returns the fill
    /// latency. Out of line: only misses pay for the call.
    #[inline(never)]
    fn finish_llc_miss(
        &mut self,
        core: CoreId,
        line: Line,
        evicted: Option<Evicted>,
        at: Cycle,
    ) -> Cycle {
        let fill = self.engine.on_llc_miss(core, line, at).latency;
        if let Some(ev) = evicted {
            let data = self.volatile.read_line(ev.line.base());
            self.probe.emit(
                persist::Event::EvictDirty(ev.line, ev.persistent),
                at + fill,
            );
            self.engine
                .on_evict_dirty(ev.line, ev.persistent, &data, at + fill);
        }
        fill
    }

    /// The line-by-line walk `access_lines` replaces, kept as the reference
    /// its differential test compares against.
    #[cfg(test)]
    fn access_lines_reference(
        &mut self,
        core: CoreId,
        addr: PAddr,
        len: u64,
        write: bool,
    ) -> Cycle {
        let c = core.index();
        let in_tx = self.active_tx[c].is_some();
        let mut latency = 0;
        for line in lines_covering(addr, len) {
            let res = self.hier.access(core, line, write, write && in_tx);
            latency += res.latency;
            if res.llc_miss {
                let fill = self
                    .engine
                    .on_llc_miss(core, line, self.clocks[c] + latency);
                latency += fill.latency;
            }
            if let Some(ev) = res.evicted {
                let data = self.volatile.read_line(ev.line.base());
                self.probe.emit(
                    persist::Event::EvictDirty(ev.line, ev.persistent),
                    self.clocks[c] + latency,
                );
                self.engine
                    .on_evict_dirty(ev.line, ev.persistent, &data, self.clocks[c] + latency);
            }
        }
        latency
    }

    /// Records a load of `len` bytes at `addr` and charges its simulated
    /// time; then `read` fetches the bytes from the functional image. The
    /// one timing step behind every load accessor.
    #[inline]
    fn load_with<R>(
        &mut self,
        core: CoreId,
        addr: PAddr,
        len: usize,
        read: impl FnOnce(&PersistentStore) -> R,
    ) -> R {
        self.record(Event::Load {
            core: core.0,
            addr: addr.0,
            len: len as u32,
        });
        if !self.capture_only {
            let c = core.index();
            self.clocks[c] += costs::OP_BASE;
            self.clocks[c] += self.engine.on_load(core, addr, len as u64, self.clocks[c]);
            let lat = self.access_lines(core, addr, len as u64, false);
            self.clocks[c] += lat;
        }
        read(&self.volatile)
    }

    /// Loads `buf.len()` bytes from `addr` on `core`, charging simulated
    /// time.
    pub fn load_bytes(&mut self, core: CoreId, addr: PAddr, buf: &mut [u8]) {
        self.load_with(core, addr, buf.len(), |v| v.read_bytes(addr, buf));
    }

    /// Loads a u64 from `addr`.
    pub fn load_u64(&mut self, core: CoreId, addr: PAddr) -> u64 {
        self.load_with(core, addr, 8, |v| v.read_u64(addr))
    }

    /// Records a store of `data` at `addr` and charges its simulated time
    /// around `write`, which puts the bytes into the functional image: the
    /// one timing step behind every store accessor. Inside a transaction
    /// the store is part of the failure-atomic region; outside it is
    /// ordinary volatile data that persists only via write-back.
    #[inline]
    fn store_with(
        &mut self,
        core: CoreId,
        addr: PAddr,
        data: &[u8],
        write: impl FnOnce(&mut PersistentStore),
    ) {
        let c = core.index();
        // Only build the event when a trace is actually being captured, and
        // clone the payload only in values mode.
        if self.recording.is_some() {
            let (core, addr) = (core.0, addr.0);
            self.record(if self.record_values {
                Event::Store {
                    core,
                    addr,
                    data: data.into(),
                }
            } else {
                Event::StoreShape {
                    core,
                    addr,
                    len: data.len() as u32,
                }
            });
        }
        if self.capture_only {
            write(&mut self.volatile);
            return;
        }
        self.clocks[c] += costs::OP_BASE;
        let lat = self.access_lines(core, addr, data.len() as u64, true);
        self.clocks[c] += lat;
        write(&mut self.volatile);
        if self.probe.is_attached() {
            let tx = self.active_tx[c];
            for line in lines_covering(addr, data.len() as u64) {
                let ev = match tx {
                    Some(tx) => persist::Event::TxStore(tx, line),
                    None => persist::Event::VolatileStore(line),
                };
                self.probe.emit(ev, self.clocks[c]);
            }
        }
        if let Some(tx) = self.active_tx[c] {
            let extra = self.engine.on_store(core, tx, addr, data, self.clocks[c]);
            self.clocks[c] += extra;
        }
    }

    /// Stores `data` at `addr` on `core`, charging simulated time.
    pub fn store_bytes(&mut self, core: CoreId, addr: PAddr, data: &[u8]) {
        self.store_with(core, addr, data, |v| v.write_bytes(addr, data));
    }

    /// Stores a u64 at `addr`.
    pub fn store_u64(&mut self, core: CoreId, addr: PAddr, value: u64) {
        self.store_with(core, addr, &value.to_le_bytes(), |v| {
            v.write_u64(addr, value)
        });
    }

    /// Flushes everything still dirty in the caches to the engine and
    /// completes background work, making end-of-run traffic totals
    /// comparable across engines.
    pub fn drain(&mut self) {
        let now = self.global_time();
        for ev in self.hier.drain_dirty() {
            let data = self.volatile.read_line(ev.line.base());
            self.probe
                .emit(persist::Event::EvictDirty(ev.line, ev.persistent), now);
            self.engine
                .on_evict_dirty(ev.line, ev.persistent, &data, now);
        }
        self.engine.drain(now);
    }

    /// Simulated power loss: caches and the volatile image vanish; the
    /// engine drops its volatile controller state. Open transactions are
    /// implicitly aborted.
    ///
    /// # Panics
    ///
    /// Panics while a recording is active: a trace cannot represent power
    /// failure.
    pub fn crash(&mut self) {
        self.assert_not_recording("crash");
        self.hier.clear();
        self.volatile = PersistentStore::new();
        for t in &mut self.active_tx {
            *t = None;
        }
        self.probe.emit(persist::Event::Crash, 0);
        self.engine.crash();
    }

    /// Runs crash recovery with `threads` parallel recovery threads and
    /// reloads the CPU-visible view from the recovered durable image.
    ///
    /// # Panics
    ///
    /// Panics while a recording is active, like [`crash`](System::crash).
    pub fn recover(&mut self, threads: usize) -> RecoveryReport {
        self.assert_not_recording("recover");
        let report = self.engine.recover(threads);
        self.volatile = self.engine.durable().clone();
        report
    }

    /// [`crash`](System::crash) followed by [`recover`](System::recover).
    pub fn crash_and_recover(&mut self, threads: usize) -> RecoveryReport {
        self.crash();
        self.recover(threads)
    }

    /// The persistence engine (counters, device, properties).
    pub fn engine(&self) -> &dyn PersistenceEngine {
        self.engine.as_ref()
    }

    /// The cache hierarchy statistics.
    pub fn hier_stats(&self) -> &memhier::HierStats {
        self.hier.stats()
    }

    /// Distribution of transaction critical-path latencies.
    pub fn tx_latency(&self) -> &Histogram {
        &self.tx_latency
    }

    /// Enables per-line endurance tracking on the NVM device (lifetime
    /// studies).
    pub fn enable_endurance_tracking(&mut self) {
        self.engine.enable_endurance_tracking();
    }

    /// The engine's media-fault model handle (detached unless the
    /// configuration enabled faults).
    pub fn media(&self) -> nvm::media::MediaModel {
        self.engine.media()
    }

    /// Resets all measurement state after warmup (clocks keep running).
    pub fn reset_counters(&mut self) {
        self.engine.reset_counters();
        self.hier.reset_stats();
        self.tx_latency = Histogram::new();
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use proptest::prelude::*;
    use simcore::persist::Subscriber;

    use super::*;
    use crate::native::NativeEngine;

    fn sys() -> System {
        let cfg = SimConfig::small_for_tests();
        System::new(Box::new(NativeEngine::new(&cfg)), &cfg)
    }

    type Build = fn(&SimConfig) -> Box<dyn PersistenceEngine>;

    /// Every engine of this crate.
    const ENGINES: [Build; 6] = [
        |c| Box::new(NativeEngine::new(c)),
        |c| Box::new(crate::redo::OptRedoEngine::new(c)),
        |c| Box::new(crate::undo::OptUndoEngine::new(c)),
        |c| Box::new(crate::osp::OspEngine::new(c)),
        |c| Box::new(crate::lsm::LsmEngine::new(c)),
        |c| Box::new(crate::lad::LadEngine::new(c)),
    ];

    /// One access of a differential stream: `core` loads or stores `len`
    /// bytes at byte `offset` of line `line` of the test region, inside a
    /// transaction when `tx` (opening or closing one on `core` as needed).
    #[derive(Clone, Copy, Debug)]
    struct Access {
        core: u8,
        store: bool,
        tx: bool,
        line: u64,
        offset: u64,
        len: u64,
    }

    /// Lines of the differential test region: three times what the
    /// differential configuration's LLC holds, so streams of a few dozen
    /// accesses already force fills and dirty evictions.
    const REGION_LINES: u64 = 192;

    /// [`SimConfig::small_for_tests`] with 4-set caches (1 KiB L1, 2 KiB L2,
    /// 4 KiB LLC).
    fn differential_config() -> SimConfig {
        let mut cfg = SimConfig::small_for_tests();
        cfg.l1.capacity_bytes = 1024;
        cfg.l2.capacity_bytes = 2048;
        cfg.llc.capacity_bytes = 4096;
        cfg
    }

    fn access_strategy() -> impl Strategy<Value = Access> {
        // Word-aligned, unaligned, and line-straddling (starting up to 7
        // bytes before a line boundary) offsets.
        let offset = prop_oneof![
            (0..8u64).prop_map(|w| w * 8),
            0..64u64,
            (1..8u64).prop_map(|b| 64 - b),
        ];
        (
            (0..2u8, any::<bool>(), any::<bool>()),
            (0..REGION_LINES, offset, 1..=200u64),
        )
            .prop_map(|((core, store, tx), (line, offset, len))| Access {
                core,
                store,
                tx,
                line,
                offset,
                len,
            })
    }

    /// Logs every probe event with its cycle.
    #[derive(Default)]
    struct EventLog(Vec<String>);

    impl Subscriber for EventLog {
        fn on(&mut self, ev: &persist::Event<'_>, now: Cycle) -> bool {
            self.0.push(format!("{ev:?}@{now}"));
            true
        }
    }

    /// What a run of `accesses` leaves observable: the values loaded, every
    /// core's clock, the hierarchy and engine statistics, the probe events,
    /// and the durable region after a final drain.
    #[derive(Debug, PartialEq)]
    struct Observed {
        loaded: Vec<Vec<u8>>,
        clocks: Vec<Cycle>,
        hier: memhier::HierStats,
        engine: String,
        events: Vec<String>,
        durable: Vec<u8>,
    }

    fn observe(build: Build, accesses: &[Access], by_line_reference: bool) -> Observed {
        let cfg = differential_config();
        let mut s = System::new(build(&cfg), &cfg);
        s.by_line_reference = by_line_reference;
        let log = Arc::new(Mutex::new(EventLog::default()));
        s.attach_probe(Probe::new(log.clone()));
        let bytes = (REGION_LINES * 64 + 256) as usize;
        let region = s.alloc(bytes as u64);
        let mut open: [Option<TxId>; 2] = [None; 2];
        let mut loaded = Vec::new();
        for (i, a) in accesses.iter().enumerate() {
            let core = CoreId(a.core);
            let slot = &mut open[a.core as usize];
            match (a.tx, *slot) {
                (true, None) => *slot = Some(s.tx_begin(core)),
                (false, Some(tx)) => {
                    s.tx_end(core, tx);
                    *slot = None;
                }
                _ => {}
            }
            let addr = region.offset(a.line * 64 + a.offset);
            if a.store {
                let data: Vec<u8> = (0..a.len).map(|b| (i as u64 + b) as u8).collect();
                s.store_bytes(core, addr, &data);
            } else {
                let mut buf = vec![0; a.len as usize];
                s.load_bytes(core, addr, &mut buf);
                loaded.push(buf);
            }
        }
        for (c, tx) in open.iter().enumerate() {
            if let Some(tx) = *tx {
                s.tx_end(CoreId(c as u8), tx);
            }
        }
        s.drain();
        let events = std::mem::take(&mut log.lock().expect("event log").0);
        Observed {
            loaded,
            clocks: s.clocks.clone(),
            hier: *s.hier_stats(),
            engine: format!("{:?} {:?}", s.engine().stats(), s.engine().extra_metrics()),
            events,
            durable: s.engine().durable().read_vec(region, bytes),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `access_lines`' one-line shortcut and its out-of-line miss tail
        /// leave loads, clocks, hierarchy and engine statistics, probe
        /// events and the durable image exactly as the line-by-line
        /// reference walk does, on every engine of this crate.
        #[test]
        fn access_path_matches_line_by_line_reference(
            accesses in prop::collection::vec(access_strategy(), 1..64)
        ) {
            for build in ENGINES {
                let fast = observe(build, &accesses, false);
                let reference = observe(build, &accesses, true);
                prop_assert_eq!(fast, reference);
            }
        }
    }

    #[test]
    fn store_then_load_roundtrips() {
        let mut s = sys();
        let a = s.alloc(128);
        let tx = s.tx_begin(CoreId(0));
        s.store_u64(CoreId(0), a, 0xABCD);
        s.store_bytes(CoreId(0), a.offset(64), &[9u8; 64]);
        s.tx_end(CoreId(0), tx);
        assert_eq!(s.load_u64(CoreId(0), a), 0xABCD);
        let mut row = [0u8; 64];
        s.load_bytes(CoreId(0), a.offset(64), &mut row);
        assert_eq!(row, [9u8; 64]);
    }

    /// The word accessors are the byte accessors on 8 bytes: same clocks,
    /// same hierarchy statistics, same recorded events, same contents —
    /// on a live machine and on a capture-only one.
    #[test]
    fn word_accessors_match_byte_accessors() {
        let cfg = SimConfig::small_for_tests();
        for live in [true, false] {
            let build = || {
                let mut s = if live {
                    sys()
                } else {
                    System::new_capture(&cfg)
                };
                s.start_recording(true);
                s
            };
            let (mut words, mut bytes) = (build(), build());
            let a = words.alloc(1 << 16);
            assert_eq!(bytes.alloc(1 << 16), a);
            // Line-interior, line-straddling (offset 60) and far-apart
            // addresses, so fills and dirty evictions happen too.
            let addrs: Vec<PAddr> = (0..64u64)
                .map(|i| a.offset(((i * 1037) % (1 << 16)) & !3))
                .chain([a.offset(60)])
                .collect();
            for (i, &addr) in addrs.iter().enumerate() {
                let core = CoreId((i % 2) as u8);
                let v = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let tx = (i % 3 != 0).then(|| (words.tx_begin(core), bytes.tx_begin(core)));
                words.store_u64(core, addr, v);
                bytes.store_bytes(core, addr, &v.to_le_bytes());
                let got = words.load_u64(core, addr);
                let mut buf = [0u8; 8];
                bytes.load_bytes(core, addr, &mut buf);
                assert_eq!(got, v);
                assert_eq!(buf, v.to_le_bytes());
                if let Some((tw, tb)) = tx {
                    words.tx_end(core, tw);
                    bytes.tx_end(core, tb);
                }
            }
            for core in [CoreId(0), CoreId(1)] {
                assert_eq!(words.clock(core), bytes.clock(core), "live={live}");
            }
            assert_eq!(words.hier_stats(), bytes.hier_stats(), "live={live}");
            assert_eq!(words.take_trace(), bytes.take_trace(), "live={live}");
            words.drain();
            bytes.drain();
            let durable = |s: &System| s.engine().durable().read_vec(a, 1 << 16);
            assert_eq!(durable(&words), durable(&bytes), "live={live}");
            assert_eq!(words.hier_stats().llc_misses.get() > 0, live);
        }
    }

    #[test]
    fn time_advances_and_misses_cost_more() {
        let mut s = sys();
        let a = s.alloc(64);
        let t0 = s.clock(CoreId(0));
        let _ = s.load_u64(CoreId(0), a); // cold miss
        let t1 = s.clock(CoreId(0));
        let _ = s.load_u64(CoreId(0), a); // hit
        let t2 = s.clock(CoreId(0));
        assert!(t1 - t0 > 100, "cold miss should pay NVM latency");
        assert!(t2 - t1 < 20, "hit should be cheap");
    }

    #[test]
    fn write_initial_is_visible_and_durable() {
        let mut s = sys();
        let a = s.alloc(64);
        s.write_initial(a, &7u64.to_le_bytes());
        assert_eq!(s.peek_u64(a), 7);
        assert_eq!(s.engine().durable().read_u64(a), 7);
    }

    /// Seeding granularity is invisible: one 72-byte `write_initial` that
    /// straddles a page boundary leaves the same volatile image, durable
    /// image and coalesced `Init` records as its nine 8-byte words, on every
    /// engine of this crate.
    #[test]
    fn one_seed_record_equals_its_words() {
        let cfg = SimConfig::small_for_tests();
        let data: Vec<u8> = (1..=72).collect();
        for build in ENGINES {
            let seed = |words: bool| {
                let mut s = System::new(build(&cfg), &cfg);
                let region = s.alloc(3 * 4096);
                let at = PAddr((region.0 / 4096 + 2) * 4096 - 32);
                s.start_recording(true);
                if words {
                    for (i, w) in data.chunks(8).enumerate() {
                        s.write_initial(at.offset(i as u64 * 8), w);
                    }
                } else {
                    s.write_initial(at, &data);
                }
                let inits = crate::trace::coalesce_inits(s.take_trace());
                let volatile = s.peek_vec(region, 3 * 4096);
                let durable = s.engine().durable().read_vec(region, 3 * 4096);
                (at.0 % 4096, inits, volatile, durable)
            };
            let (offset, inits, volatile, durable) = seed(false);
            assert_eq!(offset, 4064);
            assert_eq!(inits.len(), 1);
            assert_eq!(volatile, durable);
            assert_eq!(seed(true), (offset, inits, volatile, durable));
        }
    }

    #[test]
    fn next_core_balances() {
        let mut s = sys();
        let a = s.alloc(64);
        assert_eq!(s.next_core(), CoreId(0));
        let tx = s.tx_begin(CoreId(0));
        s.store_u64(CoreId(0), a, 1);
        s.tx_end(CoreId(0), tx);
        assert_eq!(s.next_core(), CoreId(1));
    }

    #[test]
    #[should_panic]
    fn nested_tx_panics() {
        let mut s = sys();
        let _a = s.tx_begin(CoreId(0));
        let _b = s.tx_begin(CoreId(0));
    }

    #[test]
    fn drain_pushes_dirty_lines_to_engine() {
        let mut s = sys();
        let a = s.alloc(64);
        let tx = s.tx_begin(CoreId(0));
        s.store_u64(CoreId(0), a, 99);
        s.tx_end(CoreId(0), tx);
        s.drain();
        assert_eq!(s.engine().durable().read_u64(a), 99);
    }

    #[test]
    fn crash_loses_unevicted_data_under_native() {
        let mut s = sys();
        let a = s.alloc(64);
        let tx = s.tx_begin(CoreId(0));
        s.store_u64(CoreId(0), a, 1234);
        s.tx_end(CoreId(0), tx);
        s.crash_and_recover(1);
        // The native engine gives no durability guarantee: the line was
        // never evicted, so its data is gone.
        assert_eq!(s.peek_u64(a), 0);
    }

    #[test]
    #[should_panic(expected = "crashtest is live-only")]
    fn crash_while_recording_panics() {
        let mut s = sys();
        s.start_recording(false);
        s.crash();
    }

    #[test]
    fn tx_latency_histogram_records() {
        let mut s = sys();
        let a = s.alloc(64);
        let tx = s.tx_begin(CoreId(0));
        s.store_u64(CoreId(0), a, 1);
        s.tx_end(CoreId(0), tx);
        assert_eq!(s.tx_latency().count(), 1);
    }
}
