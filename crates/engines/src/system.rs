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

use memhier::Hierarchy;
use nvm::PersistentStore;
use simcore::addr::{lines_covering, CACHE_LINE_BYTES};
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
                    data.to_vec()
                } else {
                    Vec::new()
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

    fn access_lines(&mut self, core: CoreId, addr: PAddr, len: u64, write: bool) -> Cycle {
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
                let mut data = [0u8; CACHE_LINE_BYTES as usize];
                self.volatile.read_bytes(ev.line.base(), &mut data);
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

    /// Loads `buf.len()` bytes from `addr` on `core`, charging simulated
    /// time.
    pub fn load_bytes(&mut self, core: CoreId, addr: PAddr, buf: &mut [u8]) {
        let c = core.index();
        self.record(Event::Load {
            core: core.0,
            addr: addr.0,
            len: buf.len() as u32,
        });
        if self.capture_only {
            self.volatile.read_bytes(addr, buf);
            return;
        }
        self.clocks[c] += costs::OP_BASE;
        self.clocks[c] += self
            .engine
            .on_load(core, addr, buf.len() as u64, self.clocks[c]);
        let lat = self.access_lines(core, addr, buf.len() as u64, false);
        self.clocks[c] += lat;
        self.volatile.read_bytes(addr, buf);
    }

    /// Loads a u64 from `addr`.
    pub fn load_u64(&mut self, core: CoreId, addr: PAddr) -> u64 {
        let mut buf = [0u8; 8];
        self.load_bytes(core, addr, &mut buf);
        u64::from_le_bytes(buf)
    }

    /// Loads `len` bytes into a fresh vector.
    pub fn load_vec(&mut self, core: CoreId, addr: PAddr, len: usize) -> Vec<u8> {
        let mut v = vec![0; len];
        self.load_bytes(core, addr, &mut v);
        v
    }

    /// Stores `data` at `addr` on `core`. Inside a transaction the store is
    /// part of the failure-atomic region; outside it is ordinary volatile
    /// data that persists only via write-back.
    pub fn store_bytes(&mut self, core: CoreId, addr: PAddr, data: &[u8]) {
        let c = core.index();
        // Only build the event when a trace is actually being captured, and
        // clone the payload only in values mode.
        if self.recording.is_some() {
            let (core, addr) = (core.0, addr.0);
            self.record(if self.record_values {
                Event::Store {
                    core,
                    addr,
                    data: data.to_vec(),
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
            self.volatile.write_bytes(addr, data);
            return;
        }
        self.clocks[c] += costs::OP_BASE;
        let lat = self.access_lines(core, addr, data.len() as u64, true);
        self.clocks[c] += lat;
        self.volatile.write_bytes(addr, data);
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

    /// Stores a u64 at `addr`.
    pub fn store_u64(&mut self, core: CoreId, addr: PAddr, value: u64) {
        self.store_bytes(core, addr, &value.to_le_bytes());
    }

    /// Flushes everything still dirty in the caches to the engine and
    /// completes background work, making end-of-run traffic totals
    /// comparable across engines.
    pub fn drain(&mut self) {
        let now = self.global_time();
        for ev in self.hier.drain_dirty() {
            let mut data = [0u8; CACHE_LINE_BYTES as usize];
            self.volatile.read_bytes(ev.line.base(), &mut data);
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
    use super::*;
    use crate::native::NativeEngine;

    fn sys() -> System {
        let cfg = SimConfig::small_for_tests();
        System::new(Box::new(NativeEngine::new(&cfg)), &cfg)
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
        assert_eq!(s.load_vec(CoreId(0), a.offset(64), 64), vec![9u8; 64]);
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
