//! NVM timing, energy and bandwidth model.
//!
//! The device is a banked array behind one channel. Each bank keeps one open
//! row (row buffer); an access to the open row completes with the fast
//! row-hit latency and the row-buffer energy, anything else pays the array
//! latency/energy (Table II). The channel has finite bandwidth: transfers
//! serialize, which is how write amplification turns into throughput loss
//! under multi-core load (§IV-B of the paper).

use simcore::config::{NvmEnergyConfig, NvmTimingConfig};
use simcore::time::ns_to_cycles;
use simcore::{Cycle, PAddr};

use crate::traffic::TrafficClass;

/// Direction of an NVM access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Read from the array / row buffer.
    Read,
    /// Write (persist) to the array / row buffer.
    Write,
}

/// The outcome of one device access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Cycle at which the access started service (after channel queueing).
    pub start: Cycle,
    /// Cycle at which the access completed.
    pub complete: Cycle,
    /// Whether the access hit in an open row buffer.
    pub row_hit: bool,
}

impl AccessOutcome {
    /// Total latency observed by the issuer (queueing + service).
    pub fn latency(&self, issued: Cycle) -> Cycle {
        self.complete.saturating_sub(issued)
    }
}

/// Per-class byte counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrafficBytes {
    read: [u64; 6],
    written: [u64; 6],
}

impl TrafficBytes {
    /// Bytes read for `class`.
    pub fn read(&self, class: TrafficClass) -> u64 {
        self.read[class.index()]
    }

    /// Bytes written for `class`.
    pub fn written(&self, class: TrafficClass) -> u64 {
        self.written[class.index()]
    }

    /// Total bytes read across classes.
    pub fn total_read(&self) -> u64 {
        self.read.iter().sum()
    }

    /// Total bytes written across classes.
    pub fn total_written(&self) -> u64 {
        self.written.iter().sum()
    }
}

/// The banked NVM device model.
#[derive(Clone, Debug)]
pub struct NvmDevice {
    timing: NvmTimingConfig,
    energy: NvmEnergyConfig,
    read_latency: Cycle,
    write_latency: Cycle,
    row_hit_latency: Cycle,
    /// Channel service cost in cycles per byte for reads (fixed-point:
    /// cycles × 1024).
    read_cycles_per_kb_byte: u64,
    /// Bank-limited service cost per byte for writes (fixed-point).
    write_cycles_per_kb_byte: u64,
    /// Cumulative channel service cycles since the last counter reset.
    busy_accum: u64,
    /// Time origin / horizon for utilization accounting.
    t_origin: Cycle,
    t_max: Cycle,
    /// Open row per bank (row buffer).
    open_rows: Vec<Option<u64>>,
    row_hits: u64,
    row_misses: u64,
    traffic: TrafficBytes,
    energy_pj: f64,
    /// Optional per-line endurance tracking (enabled by lifetime studies).
    endurance: Option<crate::wearlevel::EnduranceMap>,
}

impl NvmDevice {
    /// Creates a device from timing and energy configuration.
    pub fn new(timing: NvmTimingConfig, energy: NvmEnergyConfig) -> Self {
        // lint:allow(sim-state-float): one-time fixed-point conversion of
        // bandwidth config; .round() makes it exact across hosts.
        let read_fp = (simcore::CLOCK_GHZ / timing.bandwidth_gbps * 1024.0).round() as u64;
        // lint:allow(sim-state-float): as above.
        let write_fp = (simcore::CLOCK_GHZ / timing.write_bandwidth_gbps * 1024.0).round() as u64;
        NvmDevice {
            timing,
            energy,
            read_latency: ns_to_cycles(timing.read_ns),
            write_latency: ns_to_cycles(timing.write_ns),
            row_hit_latency: ns_to_cycles(timing.row_hit_ns),
            read_cycles_per_kb_byte: read_fp.max(1),
            write_cycles_per_kb_byte: write_fp.max(1),
            busy_accum: 0,
            t_origin: 0,
            t_max: 0,
            open_rows: vec![None; timing.banks as usize],
            row_hits: 0,
            row_misses: 0,
            traffic: TrafficBytes::default(),
            energy_pj: 0.0,
            endurance: None,
        }
    }

    /// Enables per-line endurance tracking (adds a hash update per write;
    /// off by default).
    pub fn enable_endurance_tracking(&mut self) {
        self.endurance = Some(crate::wearlevel::EnduranceMap::new());
    }

    /// The endurance map, if tracking is enabled.
    pub fn endurance(&self) -> Option<&crate::wearlevel::EnduranceMap> {
        self.endurance.as_ref()
    }

    /// The configured timing parameters.
    pub fn timing(&self) -> &NvmTimingConfig {
        &self.timing
    }

    fn bank_and_row(&self, addr: PAddr) -> (usize, u64) {
        let row = addr.0 / self.timing.row_bytes;
        let bank = (row % u64::from(self.timing.banks)) as usize;
        (bank, row)
    }

    fn channel_service(&self, bytes: u64, op: Op) -> Cycle {
        let per_byte = match op {
            Op::Read => self.read_cycles_per_kb_byte,
            Op::Write => self.write_cycles_per_kb_byte,
        };
        (bytes * per_byte).div_ceil(1024)
    }

    /// Performs a timed access of `bytes` at `addr`, issued at cycle `now`.
    ///
    /// Returns when the access starts and completes after channel queueing.
    /// Counters for traffic (by `class`) and energy are updated.
    pub fn access(
        &mut self,
        now: Cycle,
        addr: PAddr,
        bytes: u64,
        op: Op,
        class: TrafficClass,
    ) -> AccessOutcome {
        let (bank, row) = self.bank_and_row(addr);
        let row_hit = self.open_rows[bank] == Some(row);
        if row_hit {
            self.row_hits += 1;
        } else {
            self.row_misses += 1;
            self.open_rows[bank] = Some(row);
        }

        let device_latency = match (op, row_hit) {
            (Op::Read, true) | (Op::Write, true) => self.row_hit_latency,
            (Op::Read, false) => self.read_latency,
            (Op::Write, false) => self.write_latency,
        };
        let service = self.channel_service(bytes, op);
        // Deterministic utilization-based queueing: the channel and banks
        // serve an aggregate demand; each access waits in proportion to how
        // loaded the device is (the M/M/1 mean wait rho/(1-rho) * S). This keeps
        // per-core clocks independent while write amplification still turns
        // into queueing delay for everyone.
        self.t_max = self.t_max.max(now);
        // Utilization over the observed horizon, with a grace window so a
        // cold device (unit tests, the first accesses of a run) is not
        // treated as saturated.
        const MIN_WINDOW: Cycle = 10_000;
        let elapsed = (self.t_max - self.t_origin).max(MIN_WINDOW);
        let rho = (self.busy_accum as f64 / elapsed as f64).min(0.95);
        self.busy_accum += service;
        // Queueing wait models time behind *other* requests; for very large
        // transfers the base is capped at one scheduling quantum (4 KB of
        // service), otherwise a multi-megabyte GC scan would wait on itself.
        let quantum = self.channel_service(4096, op);
        // lint:allow(sim-state-float): the M/M/1 queueing estimate is a
        // deliberate float model over integer inputs — deterministic per
        // IEEE-754, identical on every host.
        let queue = (service.min(quantum) as f64 * rho / (1.0 - rho)) as Cycle;
        let start = now + queue;
        let complete = start + service + device_latency;

        let bits = bytes as f64 * 8.0;
        let pj = match (op, row_hit) {
            (Op::Read, true) => bits * self.energy.row_read_pj_per_bit,
            (Op::Write, true) => bits * self.energy.row_write_pj_per_bit,
            (Op::Read, false) => bits * self.energy.array_read_pj_per_bit,
            (Op::Write, false) => bits * self.energy.array_write_pj_per_bit,
        };
        self.energy_pj += pj;
        match op {
            Op::Read => self.traffic.read[class.index()] += bytes,
            Op::Write => self.traffic.written[class.index()] += bytes,
        }
        if let (Op::Write, Some(e)) = (op, self.endurance.as_mut()) {
            for l in simcore::addr::lines_covering(addr, bytes) {
                e.record(l, 1);
            }
        }

        AccessOutcome {
            start,
            complete,
            row_hit,
        }
    }

    /// Accounts for traffic without timing (used by the analytic recovery
    /// model, which computes its own time from bandwidth).
    pub fn account_untimed(&mut self, bytes: u64, op: Op, class: TrafficClass) {
        let bits = bytes as f64 * 8.0;
        match op {
            Op::Read => {
                self.traffic.read[class.index()] += bytes;
                self.energy_pj += bits * self.energy.array_read_pj_per_bit;
            }
            Op::Write => {
                self.traffic.written[class.index()] += bytes;
                self.energy_pj += bits * self.energy.array_write_pj_per_bit;
            }
        }
    }

    /// Current utilization estimate of the device (0..=0.95).
    pub fn utilization(&self) -> f64 {
        let elapsed = (self.t_max - self.t_origin).max(self.busy_accum).max(1);
        (self.busy_accum as f64 / elapsed as f64).min(0.95)
    }

    /// Byte counters by traffic class.
    pub fn traffic(&self) -> TrafficBytes {
        self.traffic
    }

    /// Total consumed energy in picojoules.
    pub fn energy_pj(&self) -> f64 {
        self.energy_pj
    }

    /// Row-buffer hit fraction observed so far (0 if no accesses).
    pub fn row_hit_ratio(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Resets traffic/energy counters (e.g. after warmup), keeping timing
    /// state (open rows stay open — a warmup boundary does not close row
    /// buffers).
    pub fn reset_counters(&mut self) {
        self.traffic = TrafficBytes::default();
        self.row_hits = 0;
        self.row_misses = 0;
        self.energy_pj = 0.0;
        self.busy_accum = 0;
        self.t_origin = self.t_max;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::config::SimConfig;

    fn device() -> NvmDevice {
        let cfg = SimConfig::default();
        NvmDevice::new(cfg.nvm, cfg.energy)
    }

    #[test]
    fn cold_read_pays_array_latency() {
        let mut d = device();
        let out = d.access(0, PAddr(0), 64, Op::Read, TrafficClass::Data);
        assert!(!out.row_hit);
        // 125 cycles array latency + channel service.
        assert!(out.latency(0) >= 125);
        assert!(out.latency(0) < 200);
    }

    #[test]
    fn row_hit_is_fast() {
        let mut d = device();
        let first = d.access(0, PAddr(0), 64, Op::Read, TrafficClass::Data);
        let second = d.access(first.complete, PAddr(64), 64, Op::Read, TrafficClass::Data);
        assert!(second.row_hit);
        assert!(second.latency(first.complete) < first.latency(0));
    }

    #[test]
    fn writes_slower_than_reads() {
        let mut d = device();
        let r = d.access(0, PAddr(0), 64, Op::Read, TrafficClass::Data);
        let mut d2 = device();
        let w = d2.access(0, PAddr(0), 64, Op::Write, TrafficClass::Data);
        assert!(w.latency(0) > r.latency(0));
    }

    #[test]
    fn load_builds_queueing_delay() {
        let mut d = device();
        // Saturating the device (many writes in a short simulated window)
        // must inflate observed latency via queueing.
        let light = d
            .access(0, PAddr(0), 64, Op::Write, TrafficClass::Log)
            .latency(0);
        for i in 0..200u64 {
            d.access(i, PAddr(i * 4096), 4096, Op::Write, TrafficClass::Log);
        }
        let heavy = d
            .access(200, PAddr(1 << 20), 64, Op::Write, TrafficClass::Log)
            .latency(200);
        assert!(
            heavy > light,
            "queueing must appear under load: {light} vs {heavy}"
        );
        assert!(d.utilization() > 0.9);
    }

    #[test]
    fn traffic_attribution() {
        let mut d = device();
        d.access(0, PAddr(0), 64, Op::Write, TrafficClass::Log);
        d.access(0, PAddr(64), 128, Op::Write, TrafficClass::Gc);
        d.access(0, PAddr(0), 64, Op::Read, TrafficClass::Data);
        assert_eq!(d.traffic().written(TrafficClass::Log), 64);
        assert_eq!(d.traffic().written(TrafficClass::Gc), 128);
        assert_eq!(d.traffic().total_written(), 192);
        assert_eq!(d.traffic().total_read(), 64);
    }

    #[test]
    fn energy_accumulates_and_writes_cost_more() {
        let mut d = device();
        d.access(0, PAddr(0), 64, Op::Read, TrafficClass::Data);
        let after_read = d.energy_pj();
        // Use a distant address so the write misses the row buffer too.
        d.access(0, PAddr(1 << 30), 64, Op::Write, TrafficClass::Data);
        let write_pj = d.energy_pj() - after_read;
        // Array write is 16.82 pJ/b vs array read 2.47 pJ/b.
        assert!(write_pj > after_read * 5.0);
    }

    #[test]
    fn bandwidth_sweep_changes_service_time() {
        let cfg = SimConfig::default();
        let mut slow_cfg = cfg.nvm;
        slow_cfg.write_bandwidth_gbps = 0.5;
        let mut slow = NvmDevice::new(slow_cfg, cfg.energy);
        let mut fast = NvmDevice::new(cfg.nvm, cfg.energy);
        let s = slow.access(0, PAddr(0), 4096, Op::Write, TrafficClass::Data);
        let f = fast.access(0, PAddr(0), 4096, Op::Write, TrafficClass::Data);
        assert!(s.latency(0) > f.latency(0) * 4);
    }

    #[test]
    fn reset_counters_clears_traffic_only() {
        let mut d = device();
        d.access(0, PAddr(0), 64, Op::Write, TrafficClass::Data);
        d.reset_counters();
        assert_eq!(d.traffic().total_written(), 0);
        assert_eq!(d.energy_pj(), 0.0);
    }

    #[test]
    fn row_hit_ratio_tracks() {
        let mut d = device();
        assert_eq!(d.row_hit_ratio(), 0.0);
        d.access(0, PAddr(0), 64, Op::Read, TrafficClass::Data);
        d.access(0, PAddr(8), 64, Op::Read, TrafficClass::Data);
        assert!((d.row_hit_ratio() - 0.5).abs() < 1e-9);
    }
}
