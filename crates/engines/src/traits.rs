//! The [`PersistenceEngine`] contract.
//!
//! A persistence engine plays the role of the memory controller's
//! crash-consistency mechanism. The simulated [`System`](crate::system)
//! forwards four event streams to it — transactional stores, LLC misses,
//! dirty LLC evictions, and transaction boundaries — and the engine answers
//! with critical-path latencies while maintaining the durable byte image its
//! protocol would produce on real hardware.

use nvm::media::MediaModel;
use nvm::{NvmDevice, PersistentStore};
use simcore::addr::Line;
use simcore::persist::Probe;
use simcore::stats::Counter;
use simcore::{CoreId, Cycle, PAddr, TxId};

/// Qualitative level used in the Table I comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    /// Low cost.
    Low,
    /// Medium cost.
    Medium,
    /// High cost.
    High,
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Level::Low => "Low",
            Level::Medium => "Medium",
            Level::High => "High",
        })
    }
}

/// An engine's row of the paper's Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineProperties {
    /// Read latency class.
    pub read_latency: Level,
    /// Whether persistence work sits on the critical path of execution.
    pub on_critical_path: bool,
    /// Whether the scheme needs explicit cache flushes + fences in software.
    pub requires_flush_fence: bool,
    /// Write-traffic class.
    pub write_traffic: Level,
}

/// What the engine did about an LLC miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MissFill {
    /// Memory-side latency of serving the miss (added to cache latency).
    pub latency: Cycle,
}

/// Result of committing a transaction.
#[derive(Clone, Debug, Default)]
pub struct CommitOutcome {
    /// Critical-path cycles spent waiting for the commit to become durable.
    pub latency: Cycle,
    /// Lines whose data became durable at home during commit; the system
    /// marks them clean in the hierarchy so they are not written twice.
    pub clean_lines: Vec<Line>,
}

/// Outcome of crash recovery.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RecoveryReport {
    /// Modeled wall-clock recovery time in milliseconds (from the NVM
    /// bandwidth model, not host time).
    pub modeled_ms: f64,
    /// Bytes scanned from the durable log/OOP structures.
    pub bytes_scanned: u64,
    /// Bytes written back to home locations.
    pub bytes_written: u64,
    /// Committed transactions replayed.
    pub txs_replayed: u64,
    /// Recovery threads used.
    pub threads: usize,
}

/// Counters every engine maintains (engine-specific extras are exposed via
/// [`PersistenceEngine::extra_metrics`]).
#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    /// Transactions committed.
    pub committed_txs: Counter,
    /// Critical-path cycles spent waiting in `tx_end`.
    pub commit_stall_cycles: Counter,
    /// Critical-path cycles added to stores.
    pub store_overhead_cycles: Counter,
    /// Memory-side cycles spent serving LLC misses.
    pub miss_service_cycles: Counter,
    /// LLC misses served.
    pub misses_served: Counter,
    /// Misses that required reading OOP + home in parallel (HOOP, §IV-C).
    pub parallel_reads: Counter,
    /// Memory loads issued to serve misses (the paper profiles 1.28 loads
    /// per LLC miss for HOOP).
    pub miss_memory_loads: Counter,
    /// Background GC / checkpoint runs.
    pub gc_runs: Counter,
    /// Bytes of transactional data handed to GC / checkpointing.
    pub gc_bytes_in: Counter,
    /// Bytes GC actually wrote to home (after coalescing).
    pub gc_bytes_out: Counter,
    /// Cycles of on-demand GC stalls imposed on the critical path.
    pub ondemand_gc_stall_cycles: Counter,
}

impl EngineStats {
    /// GC data-reduction ratio (Table IV): the fraction of bytes modified by
    /// transactions that were *not* written back home thanks to coalescing.
    pub fn gc_reduction_ratio(&self) -> f64 {
        let inb = self.gc_bytes_in.get();
        if inb == 0 {
            return 0.0;
        }
        1.0 - self.gc_bytes_out.get() as f64 / inb as f64
    }

    /// Average memory loads per served LLC miss.
    pub fn loads_per_miss(&self) -> f64 {
        let m = self.misses_served.get();
        if m == 0 {
            0.0
        } else {
            self.miss_memory_loads.get() as f64 / m as f64
        }
    }
}

/// The memory controller's crash-consistency mechanism.
///
/// Implementations must be functional: after any prefix of events followed
/// by [`crash`](PersistenceEngine::crash) and
/// [`recover`](PersistenceEngine::recover), the
/// [`durable`](PersistenceEngine::durable) image must contain the effects of exactly
/// the committed transactions (plus any non-transactional write-backs).
///
/// Engines must be [`Send`]: the experiment runner executes one engine per
/// worker thread (each cell owns a private [`System`](crate::system::System),
/// so no synchronization is needed — only the ability to move the engine to
/// the thread that runs it).
pub trait PersistenceEngine: Send {
    /// Engine name as used in the paper's figures ("HOOP", "Opt-Redo", ...).
    fn name(&self) -> &'static str;

    /// The engine's Table I row.
    fn properties(&self) -> EngineProperties;

    /// Seeds the durable home image during workload setup, without timing or
    /// traffic accounting (the paper's benchmarks pre-populate their data
    /// structures before measurement).
    fn init_home(&mut self, addr: PAddr, data: &[u8]);

    /// Starts a failure-atomic region on `core`; returns the controller-
    /// assigned transaction id.
    fn tx_begin(&mut self, core: CoreId, now: Cycle) -> TxId;

    /// A transactional store of `data` at `addr` reached the L1 (§III-G).
    /// Returns extra critical-path cycles beyond the cache access.
    fn on_store(&mut self, core: CoreId, tx: TxId, addr: PAddr, data: &[u8], now: Cycle) -> Cycle;

    /// A load operation is about to execute. Hardware engines return 0;
    /// software schemes (LSNVMM) charge their address-translation cost here
    /// (§II-B: "multiple memory accesses to identify the data location for
    /// each read").
    fn on_load(&mut self, _core: CoreId, _addr: PAddr, _len: u64, _now: Cycle) -> Cycle {
        0
    }

    /// An LLC miss for `line` must be served from memory.
    fn on_llc_miss(&mut self, core: CoreId, line: Line, now: Cycle) -> MissFill;

    /// A dirty line was evicted from the LLC. `persistent` carries the
    /// per-line persistent bit; `line_data` is the current 64-byte content.
    fn on_evict_dirty(&mut self, line: Line, persistent: bool, line_data: &[u8], now: Cycle);

    /// Ends the failure-atomic region: make the transaction durable.
    fn tx_end(&mut self, core: CoreId, tx: TxId, now: Cycle) -> CommitOutcome;

    /// Gives the engine a chance to run background work (GC, checkpointing).
    /// Returns stall cycles to impose on the calling core (nonzero only when
    /// background work must run on demand, e.g. a full mapping table).
    fn tick(&mut self, now: Cycle) -> Cycle;

    /// Completes all outstanding background work (end-of-run accounting).
    fn drain(&mut self, now: Cycle);

    /// Simulated power loss: drop all volatile controller state.
    fn crash(&mut self);

    /// Rebuilds a consistent durable image from the crash-surviving
    /// structures, using `threads` parallel recovery threads.
    fn recover(&mut self, threads: usize) -> RecoveryReport;

    /// The durable byte image. After [`recover`](PersistenceEngine::recover)
    /// home addresses read their committed values.
    fn durable(&self) -> &PersistentStore;

    /// The engine's NVM device (traffic and energy counters).
    fn device(&self) -> &NvmDevice;

    /// Common counters.
    fn stats(&self) -> &EngineStats;

    /// Engine-specific metrics for reports, as (name, value) pairs.
    fn extra_metrics(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Enables per-line endurance tracking on the engine's NVM device
    /// (lifetime studies; off by default).
    fn enable_endurance_tracking(&mut self) {}

    /// The engine's media-fault model handle (shared state — clones alias).
    /// Engines built on `ControllerBase` return its model; the default is a
    /// detached handle, meaning the engine models a perfect medium.
    fn media(&self) -> MediaModel {
        MediaModel::detached()
    }

    /// Attaches the persist-event probe (a sanitizer or a crash valve).
    /// Engines that report durability store it (usually in their
    /// `ControllerBase`, which also hands it to the durable store as the
    /// crash kill switch) and emit every durable action through it once;
    /// the default drops the probe, so subscribers see no engine events.
    fn attach_probe(&mut self, probe: Probe) {
        let _ = probe;
    }

    /// Former name of [`attach_probe`](PersistenceEngine::attach_probe),
    /// kept because the separate `perfbench` package's forwarding engine
    /// implements it.
    #[doc(hidden)]
    fn attach_sanitizer(&mut self, probe: Probe) {
        self.attach_probe(probe);
    }

    /// Former name of [`attach_probe`](PersistenceEngine::attach_probe),
    /// kept for the same reason as
    /// [`attach_sanitizer`](PersistenceEngine::attach_sanitizer).
    #[doc(hidden)]
    fn attach_crash_valve(&mut self, probe: Probe) {
        self.attach_probe(probe);
    }

    /// Resets statistics and device counters (e.g. after warmup).
    fn reset_counters(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_displays() {
        assert_eq!(Level::Low.to_string(), "Low");
        assert_eq!(Level::High.to_string(), "High");
    }

    #[test]
    fn gc_reduction_ratio() {
        let mut s = EngineStats::default();
        assert_eq!(s.gc_reduction_ratio(), 0.0);
        s.gc_bytes_in.add(1000);
        s.gc_bytes_out.add(250);
        assert!((s.gc_reduction_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn loads_per_miss() {
        let mut s = EngineStats::default();
        s.misses_served.add(100);
        s.miss_memory_loads.add(128);
        assert!((s.loads_per_miss() - 1.28).abs() < 1e-12);
    }
}
