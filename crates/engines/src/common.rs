//! Shared controller plumbing for persistence engines.
//!
//! Every engine owns an NVM device (timing/traffic/energy), a durable byte
//! image, the common counter block, and a transaction-id allocator.
//! [`ControllerBase`] bundles those and provides the handful of device
//! idioms the engines share: serving a miss from the home region, writing a
//! line home, and issuing a pipelined burst (a commit-time flush of N lines
//! occupies the channel once and pays the device write latency once — the
//! "two consecutive memory bursts" flavor of §III-D).

use nvm::media::{MediaError, MediaModel, ReadHealth};
use nvm::{NvmDevice, Op, PersistentStore, TrafficClass};
use simcore::addr::{Line, CACHE_LINE_BYTES};
use simcore::config::SimConfig;
use simcore::persist::{Event, Probe};
use simcore::time::ms_to_cycles;
use simcore::{Cycle, PAddr, TxId};

use crate::traits::{EngineStats, MissFill};

/// Cycles charged per media re-read attempt (one extra array read, §Table II
/// read latency territory).
pub const MEDIA_RETRY_CYCLES: Cycle = 250;

/// Common state and device idioms for engine implementations.
#[derive(Debug)]
pub struct ControllerBase {
    /// The NVM device model.
    pub device: NvmDevice,
    /// The durable byte image (home region + engine-private regions).
    pub store: PersistentStore,
    /// Common counters.
    pub stats: EngineStats,
    /// Persist-event probe (detached by default). Engines emit each
    /// durable action once, immediately before the durable mutation it
    /// stands for, and gate that mutation on the returned verdict; a
    /// tripped crash valve also closes the store, so the byte image freezes
    /// at the injected crash point.
    pub probe: Probe,
    /// Media-fault model (detached by default — a single branch per read,
    /// like the probe). Attached models classify every demand and
    /// recovery read against the wear-coupled error schedule.
    pub media: MediaModel,
    /// Patrol-scrub period in cycles (0 = scrubbing off).
    scrub_period: Cycle,
    /// Next patrol-scrub deadline.
    next_scrub: Cycle,
    next_tx: u64,
}

impl ControllerBase {
    /// Creates the base from the machine configuration.
    pub fn new(cfg: &SimConfig) -> Self {
        let mut device = NvmDevice::new(cfg.nvm, cfg.energy);
        let media = MediaModel::new(cfg.media);
        if media.is_attached() {
            // The error schedule scales with per-line wear, so enabling
            // faults implies endurance tracking.
            device.enable_endurance_tracking();
        }
        let scrub_period = if media.is_attached() && cfg.media.scrub_period_ms > 0 {
            ms_to_cycles(cfg.media.scrub_period_ms as f64).max(1)
        } else {
            0
        };
        ControllerBase {
            device,
            store: PersistentStore::new(),
            stats: EngineStats::default(),
            probe: Probe::detached(),
            media,
            scrub_period,
            next_scrub: scrub_period,
            next_tx: 1,
        }
    }

    /// Attaches the persist-event probe to the controller and, as the
    /// crash kill switch, to its durable store.
    pub fn attach_probe(&mut self, probe: Probe) {
        self.store.attach_valve(probe.clone());
        self.probe = probe;
    }

    /// Allocates the next transaction id.
    pub fn alloc_tx(&mut self) -> TxId {
        let id = TxId(self.next_tx);
        self.next_tx += 1;
        id
    }

    /// Serves an LLC miss with a single home-region read.
    pub fn serve_miss_from_home(&mut self, line: Line, now: Cycle) -> MissFill {
        let out = self.device.access(
            now,
            line.base(),
            CACHE_LINE_BYTES,
            Op::Read,
            TrafficClass::Data,
        );
        let latency = out.latency(now) + self.media_demand_read(line);
        self.stats.misses_served.inc();
        self.stats.miss_memory_loads.inc();
        self.stats.miss_service_cycles.add(latency);
        MissFill { latency }
    }

    /// Classifies a demand line read against the media model, returning the
    /// extra critical-path cycles of the ECC retry ladder. An uncorrectable
    /// demand read charges the full ladder and leaves the line pending
    /// retirement (the model records it); the returned data is the store's
    /// true bytes — demand-path integrity is audited at recovery time by the
    /// crashtest oracle, which attributes any UE-tainted divergence.
    pub fn media_demand_read(&self, line: Line) -> Cycle {
        if !self.media.is_attached() {
            return 0;
        }
        let wear = self.device.endurance().map(|e| e.writes(line)).unwrap_or(0);
        match self.media.read_line(line, wear) {
            ReadHealth::Clean => 0,
            ReadHealth::Corrected { retries, .. } => Cycle::from(retries) * MEDIA_RETRY_CYCLES,
            ReadHealth::Uncorrectable => {
                let max = self
                    .media
                    .config()
                    .map(|c| u64::from(c.max_retries))
                    .unwrap_or(0);
                max * MEDIA_RETRY_CYCLES
            }
        }
    }

    /// Classifies a recovery/GC span read against the media model (no
    /// timing — recovery paths account their own traffic). Errors carry the
    /// first uncorrectable line.
    pub fn media_read_span(&self, addr: PAddr, bytes: u64) -> Result<ReadHealth, MediaError> {
        self.media
            .classify_span(addr, bytes, self.device.endurance())
    }

    /// Checked media read into `buf`: the span's bytes from the durable
    /// store, deterministically corrupted if the media classifies the read
    /// uncorrectable (see [`MediaModel::read_span_checked`]).
    pub fn media_read_into(&self, addr: PAddr, buf: &mut [u8]) -> Result<ReadHealth, MediaError> {
        self.media
            .read_span_checked(&self.store, addr, buf, self.device.endurance())
    }

    /// Periodic patrol scrub: retires pending UE lines and rewrites
    /// correctable lines before they decay into UEs, accounting one
    /// GC-class line write per rewrite. Call once per engine `tick`; a
    /// detached model (or `scrub_period_ms == 0`) makes this a single
    /// branch.
    pub fn media_tick(&mut self, now: Cycle) {
        if self.scrub_period == 0 || now < self.next_scrub {
            return;
        }
        while self.next_scrub <= now {
            self.next_scrub += self.scrub_period;
        }
        let Some(endurance) = self.device.endurance() else {
            return;
        };
        let pass = self.media.scrub(endurance);
        for line in &pass.rewritten {
            self.device.access(
                now,
                line.base(),
                CACHE_LINE_BYTES,
                Op::Write,
                TrafficClass::Gc,
            );
        }
    }

    /// Writes a 64-byte line image to its home location (timed + durable).
    pub fn write_home_line(&mut self, line: Line, data: &[u8], now: Cycle, class: TrafficClass) {
        debug_assert_eq!(data.len(), CACHE_LINE_BYTES as usize);
        self.device
            .access(now, line.base(), CACHE_LINE_BYTES, Op::Write, class);
        self.probe.emit(Event::HomeWrite(line), now);
        self.store.write_bytes(line.base(), data);
    }

    /// Issues a pipelined write burst of `bytes` at `base` and returns the
    /// completion cycle (channel occupancy plus one device write latency).
    pub fn write_burst(
        &mut self,
        base: PAddr,
        bytes: u64,
        now: Cycle,
        class: TrafficClass,
    ) -> Cycle {
        if bytes == 0 {
            return now;
        }
        self.device
            .access(now, base, bytes, Op::Write, class)
            .complete
    }

    /// Issues a pipelined read burst and returns the completion cycle.
    pub fn read_burst(
        &mut self,
        base: PAddr,
        bytes: u64,
        now: Cycle,
        class: TrafficClass,
    ) -> Cycle {
        if bytes == 0 {
            return now;
        }
        self.device
            .access(now, base, bytes, Op::Read, class)
            .complete
    }

    /// Issues a large background transfer as 4 KB chunks staggered across
    /// `window` cycles, so background GC / checkpoint traffic interleaves
    /// with demand accesses instead of monopolizing the channel (real
    /// controllers schedule background work at low priority). With
    /// `window == 0` the burst is compact (on-demand work on the critical
    /// path). Returns the completion cycle of the last chunk.
    pub fn burst_spread(
        &mut self,
        base: PAddr,
        bytes: u64,
        start: Cycle,
        window: Cycle,
        op: Op,
        class: TrafficClass,
    ) -> Cycle {
        if bytes == 0 {
            return start;
        }
        if window == 0 {
            return self.device.access(start, base, bytes, op, class).complete;
        }
        const CHUNK: u64 = 4096;
        let chunks = bytes.div_ceil(CHUNK);
        let step = (window / chunks.max(1)).max(1);
        let mut done = start;
        let mut remaining = bytes;
        for i in 0..chunks {
            let take = remaining.min(CHUNK);
            remaining -= take;
            let at = start + i * step;
            done = self
                .device
                .access(at, base.offset(i * CHUNK), take, op, class)
                .complete;
        }
        done
    }

    /// Resets counters after warmup.
    pub fn reset_counters(&mut self) {
        self.stats = EngineStats::default();
        self.device.reset_counters();
    }
}

/// A 64-byte line image (the unit evictions and flushes move around).
pub type LineImage = [u8; CACHE_LINE_BYTES as usize];

/// Copies a byte slice into a [`LineImage`].
///
/// # Panics
///
/// Panics if `data` is not exactly 64 bytes.
pub fn to_line_image(data: &[u8]) -> LineImage {
    let mut img = [0u8; CACHE_LINE_BYTES as usize];
    img.copy_from_slice(data);
    img
}

/// Reads one cache line from `store` into a stack image. This sits on every
/// engine's store path, so it avoids the heap round-trip of
/// [`PersistentStore::read_vec`].
#[inline]
pub fn read_line_image(store: &PersistentStore, line: Line) -> LineImage {
    let mut img = [0u8; CACHE_LINE_BYTES as usize];
    store.read_bytes(line.base(), &mut img);
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::CoreId;

    #[test]
    fn tx_ids_monotonic() {
        let mut b = ControllerBase::new(&SimConfig::small_for_tests());
        let a = b.alloc_tx();
        let c = b.alloc_tx();
        assert!(c.0 > a.0);
        let _ = CoreId(0);
    }

    #[test]
    fn burst_is_cheaper_than_serial_writes() {
        let cfg = SimConfig::small_for_tests();
        let mut burst = ControllerBase::new(&cfg);
        let mut serial = ControllerBase::new(&cfg);
        let done_burst = burst.write_burst(PAddr(0), 8 * 64, 0, TrafficClass::Log);
        let mut t = 0;
        for i in 0..8u64 {
            t = serial
                .device
                .access(t, PAddr(i * 64), 64, Op::Write, TrafficClass::Log)
                .complete;
        }
        assert!(done_burst < t, "{done_burst} vs {t}");
    }

    #[test]
    fn write_home_line_is_durable() {
        let mut b = ControllerBase::new(&SimConfig::small_for_tests());
        b.write_home_line(Line(1), &[3u8; 64], 0, TrafficClass::Gc);
        assert_eq!(b.store.read_u8(PAddr(64)), 3);
        assert_eq!(b.device.traffic().written(TrafficClass::Gc), 64);
    }

    #[test]
    #[should_panic]
    fn bad_line_image_panics() {
        let _ = to_line_image(&[0u8; 63]);
    }
}
