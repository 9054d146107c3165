//! Standalone layer replays for the traced run: one recorded access stream
//! run against the cache hierarchy alone, the NVM device alone and the
//! persistent byte store alone, so each layer's host cost is measured
//! without the layers `System` stacks around it.

use std::time::Instant;

use memhier::{HierStats, Hierarchy};
use nvm::{NvmDevice, Op, PersistentStore, TrafficClass};
use simcore::addr::{lines_covering, Line, CACHE_LINE_BYTES};
use simcore::config::SimConfig;
use simcore::{CoreId, Cycle, PAddr};
use trace::{Event, TraceFile};

/// One CPU-side access of a replay stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// Issuing core.
    pub core: u8,
    /// First byte.
    pub addr: u64,
    /// Length in bytes.
    pub len: u32,
    /// Store (inside a transaction) or load.
    pub write: bool,
}

/// The loads and stores of the first `txs_per_core` transactions of every
/// worker core, interleaved round-robin one transaction at a time. Setup
/// seeding is skipped: it bypasses the caches.
pub fn trace_stream(tf: &TraceFile, txs_per_core: usize) -> Vec<Access> {
    let mut out = Vec::new();
    let depth = tf.per_core.iter().map(Vec::len).max().unwrap_or(0);
    for t in 0..txs_per_core.min(depth) {
        for core in &tf.per_core {
            for ev in core.get(t).into_iter().flatten() {
                match ev {
                    Event::Load { core, addr, len } => out.push(Access {
                        core: *core,
                        addr: *addr,
                        len: *len,
                        write: false,
                    }),
                    Event::StoreShape { core, addr, len } => out.push(Access {
                        core: *core,
                        addr: *addr,
                        len: *len,
                        write: true,
                    }),
                    Event::Store { core, addr, data } => out.push(Access {
                        core: *core,
                        addr: *addr,
                        len: data.len() as u32,
                        write: true,
                    }),
                    Event::TxBegin { .. } | Event::TxEnd { .. } | Event::Init { .. } => {}
                }
            }
        }
    }
    out
}

/// What the hierarchy-only replay produced.
#[derive(Clone, Debug)]
pub struct HierReplay {
    /// Hierarchy counters after the replay.
    pub stats: HierStats,
    /// The memory-side stream: LLC-miss fills (reads) and dirty LLC
    /// evictions (writes), in order — the input of the device replay.
    pub memory: Vec<(Line, Op)>,
    /// Host seconds of the replay loop.
    pub seconds: f64,
}

/// Replays `stream` through a standalone cache hierarchy. Stores carry the
/// persistent bit, as transactional stores do in `System`.
pub fn replay_hierarchy(stream: &[Access], sim: &SimConfig) -> HierReplay {
    let mut hier = Hierarchy::new(sim);
    let mut memory = Vec::new();
    let start = Instant::now(); // lint:allow(wall-clock)
    for a in stream {
        for line in lines_covering(PAddr(a.addr), u64::from(a.len)) {
            let r = hier.access(CoreId(a.core), line, a.write, a.write);
            if r.llc_miss {
                memory.push((line, Op::Read));
            }
            if let Some(ev) = r.evicted {
                memory.push((ev.line, Op::Write));
            }
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    HierReplay {
        stats: *hier.stats(),
        memory,
        seconds,
    }
}

/// What the device-only replay produced.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceReplay {
    /// Bytes read.
    pub read: u64,
    /// Bytes written.
    pub written: u64,
    /// Row-buffer hit ratio.
    pub row_hit_ratio: f64,
    /// Completion cycle of the last access.
    pub last_complete: Cycle,
    /// Host seconds of the replay loop.
    pub seconds: f64,
}

/// Issue spacing of the device replay: a fixed 100 cycles per line, so the
/// channel's queueing model sees the same steady load on every run.
const DEVICE_ISSUE_GAP: Cycle = 100;

/// Replays a memory-side line stream against a standalone NVM device.
pub fn replay_device(memory: &[(Line, Op)], sim: &SimConfig) -> DeviceReplay {
    let mut dev = NvmDevice::new(sim.nvm, sim.energy);
    let mut now = 0;
    let mut last_complete = 0;
    let start = Instant::now(); // lint:allow(wall-clock)
    for &(line, op) in memory {
        let out = dev.access(now, line.base(), CACHE_LINE_BYTES, op, TrafficClass::Data);
        last_complete = last_complete.max(out.complete);
        now += DEVICE_ISSUE_GAP;
    }
    let seconds = start.elapsed().as_secs_f64();
    let traffic = dev.traffic();
    DeviceReplay {
        read: traffic.total_read(),
        written: traffic.total_written(),
        row_hit_ratio: dev.row_hit_ratio(),
        last_complete,
        seconds,
    }
}

/// What the store-only replay produced.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StoreReplay {
    /// Bytes read plus bytes written.
    pub bytes: u64,
    /// Content digest of the store after the replay.
    pub digest: u64,
    /// Host seconds of the replay loop.
    pub seconds: f64,
}

/// Replays `stream` against a standalone persistent byte store: stores
/// write a per-access byte pattern, loads read back.
pub fn replay_store(stream: &[Access]) -> StoreReplay {
    let mut store = PersistentStore::new();
    let max_len = stream.iter().map(|a| a.len as usize).max().unwrap_or(0);
    let mut buf = vec![0u8; max_len];
    let mut bytes = 0u64;
    let start = Instant::now(); // lint:allow(wall-clock)
    for (i, a) in stream.iter().enumerate() {
        let data = &mut buf[..a.len as usize];
        if a.write {
            data.fill(i as u8);
            store.write_bytes(PAddr(a.addr), data);
        } else {
            store.read_bytes(PAddr(a.addr), data);
        }
        bytes += u64::from(a.len);
    }
    let seconds = start.elapsed().as_secs_f64();
    StoreReplay {
        bytes,
        digest: store.content_digest(),
        seconds,
    }
}

/// Host cost of each layer alone over `stream`: ns per hierarchy access,
/// ns per device access (over the hierarchy's miss and eviction stream),
/// and ns per store byte.
pub fn costs(stream: &[Access], sim: &SimConfig) -> [f64; 3] {
    let per = |seconds: f64, n: u64| seconds * 1e9 / n.max(1) as f64;
    let h = replay_hierarchy(stream, sim);
    let d = replay_device(&h.memory, sim);
    let s = replay_store(stream);
    [
        per(h.seconds, h.stats.accesses.get()),
        per(d.seconds, h.memory.len() as u64),
        per(s.seconds, s.bytes),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::{record_workload, RecordOptions};
    use workloads::{WorkloadKind, WorkloadSpec};

    fn small_trace() -> (TraceFile, SimConfig) {
        let cfg = SimConfig::small_for_tests();
        let spec = WorkloadSpec {
            items: 128,
            ..WorkloadSpec::small(WorkloadKind::Ycsb)
        };
        let opts = RecordOptions {
            txs_per_core: 40,
            values: false,
        };
        (
            record_workload("ycsb", spec, &cfg, opts).expect("records"),
            cfg,
        )
    }

    #[test]
    fn stream_takes_whole_transactions_round_robin() {
        let (tf, _) = small_trace();
        let all = trace_stream(&tf, usize::MAX >> 1);
        let first = trace_stream(&tf, 1);
        let ops = |core: usize, t: usize| {
            tf.per_core[core][t]
                .iter()
                .filter(|e| matches!(e, Event::Load { .. } | Event::StoreShape { .. }))
                .count()
        };
        assert_eq!(first.len(), ops(0, 0) + ops(1, 0));
        assert!(first[..ops(0, 0)].iter().all(|a| a.core == 0));
        let total: usize = (0..2)
            .map(|c| (0..40).map(|t| ops(c, t)).sum::<usize>())
            .sum();
        assert_eq!(all.len(), total);
    }

    #[test]
    fn hierarchy_replay_accesses_every_line_the_trace_covers() {
        let (tf, cfg) = small_trace();
        let stream = trace_stream(&tf, 40);
        let lines: u64 = stream
            .iter()
            .map(|a| lines_covering(PAddr(a.addr), u64::from(a.len)).count() as u64)
            .sum();
        let r = replay_hierarchy(&stream, &cfg);
        assert!(lines > 0);
        assert_eq!(r.stats.accesses.get(), lines);
        let misses = r.memory.iter().filter(|(_, op)| *op == Op::Read).count();
        assert_eq!(misses as u64, r.stats.llc_misses.get());
    }

    #[test]
    fn layer_replays_are_deterministic() {
        let (tf, cfg) = small_trace();
        let stream = trace_stream(&tf, 40);
        let (a, b) = (
            replay_hierarchy(&stream, &cfg),
            replay_hierarchy(&stream, &cfg),
        );
        assert_eq!(a.memory, b.memory);
        for (x, y) in [
            (a.stats.accesses, b.stats.accesses),
            (a.stats.l1_hits, b.stats.l1_hits),
            (a.stats.l2_hits, b.stats.l2_hits),
            (a.stats.llc_hits, b.stats.llc_hits),
            (a.stats.llc_misses, b.stats.llc_misses),
            (a.stats.dirty_evictions, b.stats.dirty_evictions),
        ] {
            assert_eq!(x.get(), y.get());
        }
        let (c, d) = (
            replay_device(&a.memory, &cfg),
            replay_device(&a.memory, &cfg),
        );
        assert!(c.read > 0);
        assert_eq!(
            (c.read, c.written, c.last_complete),
            (d.read, d.written, d.last_complete)
        );
        assert_eq!(c.row_hit_ratio.to_bits(), d.row_hit_ratio.to_bits());
        let (e, f) = (replay_store(&stream), replay_store(&stream));
        assert!(e.bytes > 0);
        assert_eq!((e.bytes, e.digest), (f.bytes, f.digest));
    }
}
