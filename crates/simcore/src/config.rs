//! System configuration (Table II of the paper, plus HOOP's §III-H
//! structural parameters).
//!
//! A [`SimConfig`] fully describes the simulated machine. All experiment
//! harnesses start from [`SimConfig::default`] — which reproduces Table II —
//! and override only the parameter being swept (NVM latency for Fig. 12,
//! mapping-table size for Fig. 13, GC period for Fig. 10, ...).

use crate::time::{ms_to_cycles, Cycle};

/// Geometry and latency of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (number of ways per set).
    pub ways: u32,
    /// Access latency in cycles (tag + data).
    pub latency_cycles: Cycle,
}

impl CacheConfig {
    /// Number of sets implied by capacity, ways and the 64-B line size.
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / crate::addr::CACHE_LINE_BYTES / u64::from(self.ways)
    }
}

/// NVM device timing parameters (Table II).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NvmTimingConfig {
    /// Array read latency in nanoseconds (default 50 ns).
    pub read_ns: f64,
    /// Array write latency in nanoseconds (default 150 ns).
    pub write_ns: f64,
    /// Row-buffer hit latency in nanoseconds (DRAM-like fast path; Table II's
    /// tRCD+tCL style timings, ~20 ns).
    pub row_hit_ns: f64,
    /// Peak sustainable device *read* bandwidth in GB/s (shared by all
    /// cores; swept in Fig. 11).
    pub bandwidth_gbps: f64,
    /// Peak sustainable *write* bandwidth in GB/s. PCM-class cells program
    /// slowly, so aggregate write bandwidth is bank-limited well below the
    /// channel rate (a few tens of banks programming 64 B in 150 ns); this is what
    /// turns write amplification into throughput loss (§IV-B).
    pub write_bandwidth_gbps: f64,
    /// Number of independent banks.
    pub banks: u32,
    /// Row (buffer) size in bytes per bank.
    pub row_bytes: u64,
}

impl Default for NvmTimingConfig {
    fn default() -> Self {
        NvmTimingConfig {
            read_ns: 50.0,
            write_ns: 150.0,
            row_hit_ns: 20.0,
            bandwidth_gbps: 16.0,
            write_bandwidth_gbps: 10.0,
            banks: 16,
            row_bytes: 4096,
        }
    }
}

/// NVM energy parameters in picojoules per bit (Table II, from the PCM
/// models of Lee et al. \[28] and Ogleari et al. \[40]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NvmEnergyConfig {
    /// Row-buffer read energy (pJ/bit).
    pub row_read_pj_per_bit: f64,
    /// Row-buffer write energy (pJ/bit).
    pub row_write_pj_per_bit: f64,
    /// Array read energy (pJ/bit).
    pub array_read_pj_per_bit: f64,
    /// Array write energy (pJ/bit).
    pub array_write_pj_per_bit: f64,
}

impl Default for NvmEnergyConfig {
    fn default() -> Self {
        NvmEnergyConfig {
            row_read_pj_per_bit: 0.93,
            row_write_pj_per_bit: 1.02,
            array_read_pj_per_bit: 2.47,
            array_write_pj_per_bit: 16.82,
        }
    }
}

/// HOOP's structural parameters (§III-C/D/H of the paper).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HoopConfig {
    /// OOP data buffer per core, in bytes (default 1 KB per core).
    pub oop_buffer_bytes_per_core: u64,
    /// Total mapping-table capacity in bytes (default 2 MB = 256 KB/core on
    /// an 8-worker machine; swept in Fig. 13).
    pub mapping_table_bytes: u64,
    /// Eviction buffer capacity in bytes (default 128 KB).
    pub eviction_buffer_bytes: u64,
    /// OOP block size in bytes (default 2 MB).
    pub oop_block_bytes: u64,
    /// Reserved OOP region capacity in bytes. The paper reserves 10 % of a
    /// 512 GB NVM; we scale the reserve to the simulated footprint (see
    /// DESIGN.md) — the default suits the µbenchmark scale.
    pub oop_region_bytes: u64,
    /// Background GC trigger period in milliseconds (default 10 ms, swept
    /// 2–14 ms in Fig. 10).
    pub gc_period_ms: f64,
    /// When the mapping table reaches this fill fraction, on-demand GC runs
    /// on the critical path (§IV-H).
    pub mapping_table_gc_watermark: f64,
}

impl Default for HoopConfig {
    fn default() -> Self {
        HoopConfig {
            oop_buffer_bytes_per_core: 1024,
            mapping_table_bytes: 2 * 1024 * 1024,
            eviction_buffer_bytes: 128 * 1024,
            oop_block_bytes: 2 * 1024 * 1024,
            oop_region_bytes: 256 * 1024 * 1024,
            gc_period_ms: 10.0,
            mapping_table_gc_watermark: 0.9,
        }
    }
}

impl HoopConfig {
    /// GC period in cycles.
    pub fn gc_period_cycles(&self) -> Cycle {
        ms_to_cycles(self.gc_period_ms)
    }

    /// Mapping-table entry capacity. Each entry maps a home-region line to an
    /// OOP-region location: 8 B home tag + 8 B OOP address = 16 B/entry.
    pub fn mapping_table_entries(&self) -> usize {
        (self.mapping_table_bytes / 16) as usize
    }

    /// Eviction-buffer entry capacity (64-B line + 8-B home address).
    pub fn eviction_buffer_entries(&self) -> usize {
        (self.eviction_buffer_bytes / 72) as usize
    }
}

/// Deterministic media-fault model knobs (consumed by `nvm::media`).
///
/// Disabled by default: a default run never instantiates the model, so its
/// observable behavior — timing, traffic, every `results/*.json` byte — is
/// identical to a build without the subsystem (the same valve discipline as
/// [`crate::crashpoint`]). All probabilities are integer thresholds out of
/// 2³² so the fault schedule is float-free and bit-reproducible; every draw
/// is a pure hash of `(seed, line, wear, attempt)`, which makes the schedule
/// identity-seeded and independent of the order lines are read in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MediaConfig {
    /// Master switch; `false` keeps the model fully detached.
    pub enabled: bool,
    /// Fault-schedule seed. The same seed yields the identical schedule in
    /// every run, whatever `--jobs` runs the cells concurrently.
    pub seed: u64,
    /// Per-bit-draw probability (out of 2³²) of a wear-coupled retention /
    /// drift error when a line's effective wear equals [`wear_scale`]
    /// writes; scales linearly with accumulated wear below and above.
    ///
    /// [`wear_scale`]: MediaConfig::wear_scale
    pub wear_flip_p32: u32,
    /// Line-write count at which the drift probability reaches
    /// `wear_flip_p32` (the slope denominator; must be > 0).
    pub wear_scale: u64,
    /// Per-bit-draw probability (out of 2³²) of a transient read error.
    /// Transient draws are salted by the retry attempt, so a retry takes a
    /// fresh draw while wear/stuck components repeat.
    pub transient_p32: u32,
    /// ECC strength: bit flips per line read the code can correct.
    pub ecc_t: u32,
    /// Bounded read-retry budget for uncorrectable first reads.
    pub max_retries: u32,
    /// Mean per-line endurance cutoff in writes; cells past their
    /// (hash-varied) cutoff stick and no longer respond to retry.
    pub endurance_cutoff: u64,
    /// Spare lines available for retiring uncorrectable lines. Once
    /// exhausted, further UE lines stay faulty (graceful-degradation edge).
    pub spare_lines: u64,
    /// Patrol-scrub period in milliseconds of simulated time (0 disables
    /// scrubbing; retirement of surfaced UE lines then only happens when a
    /// read path reports them).
    pub scrub_period_ms: u64,
    /// Lines examined per patrol-scrub pass.
    pub scrub_batch: u64,
}

impl Default for MediaConfig {
    fn default() -> Self {
        MediaConfig::mild(0)
    }
}

impl MediaConfig {
    /// The quick-matrix default schedule: visible correctable activity
    /// (CEs, occasional retries) at quick-scale wear, but an endurance
    /// cutoff far beyond any quick run — real engines must see zero
    /// uncorrectable errors under it. `enabled` stays `false`; callers opt
    /// in explicitly.
    pub fn mild(seed: u64) -> Self {
        MediaConfig {
            enabled: false,
            seed,
            // ~0.5 % per bit-draw at 1000 line writes (8 draws/line read).
            wear_flip_p32: 21_474_836,
            wear_scale: 1000,
            // ~0.1 % per transient draw (2 draws/read attempt).
            transient_p32: 4_294_967,
            ecc_t: 2,
            max_retries: 3,
            endurance_cutoff: 10_000_000,
            spare_lines: 1024,
            scrub_period_ms: 1,
            scrub_batch: 256,
        }
    }

    /// A deliberately hostile schedule for negative controls: ECC disabled
    /// and an endurance cutoff of one write, so every written line reads
    /// back uncorrectable. Used by the UE-blind crashtest fixture.
    pub fn harsh(seed: u64) -> Self {
        MediaConfig {
            enabled: true,
            seed,
            wear_flip_p32: 0,
            wear_scale: 1000,
            transient_p32: 0,
            ecc_t: 0,
            max_retries: 0,
            endurance_cutoff: 1,
            spare_lines: 0,
            scrub_period_ms: 0,
            scrub_batch: 0,
        }
    }

    /// `mild(seed)` with the master switch on.
    pub fn enabled(seed: u64) -> Self {
        MediaConfig {
            enabled: true,
            ..MediaConfig::mild(seed)
        }
    }
}

/// Full system configuration (Table II plus HOOP parameters).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimConfig {
    /// Number of cores in the machine (Table II: 16).
    pub cores: u8,
    /// Number of worker threads/cores the workloads use (§IV-A: 8).
    pub worker_threads: u8,
    /// L1 data cache (32 KB, 4-way).
    pub l1: CacheConfig,
    /// L2 cache (256 KB, 8-way, inclusive).
    pub l2: CacheConfig,
    /// Shared LLC (2 MB, 16-way, inclusive).
    pub llc: CacheConfig,
    /// NVM timing.
    pub nvm: NvmTimingConfig,
    /// NVM energy model.
    pub energy: NvmEnergyConfig,
    /// HOOP structural parameters.
    pub hoop: HoopConfig,
    /// Media-fault model (disabled by default; see `nvm::media`).
    pub media: MediaConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cores: 16,
            worker_threads: 8,
            l1: CacheConfig {
                capacity_bytes: 32 * 1024,
                ways: 4,
                latency_cycles: 4,
            },
            l2: CacheConfig {
                capacity_bytes: 256 * 1024,
                ways: 8,
                latency_cycles: 12,
            },
            llc: CacheConfig {
                capacity_bytes: 2 * 1024 * 1024,
                ways: 16,
                latency_cycles: 40,
            },
            nvm: NvmTimingConfig::default(),
            energy: NvmEnergyConfig::default(),
            hoop: HoopConfig::default(),
            media: MediaConfig::default(),
        }
    }
}

impl SimConfig {
    /// A configuration scaled down for fast unit tests: tiny caches and a
    /// small OOP region so that evictions and GC trigger quickly.
    pub fn small_for_tests() -> Self {
        let mut cfg = SimConfig {
            worker_threads: 2,
            ..SimConfig::default()
        };
        cfg.l1.capacity_bytes = 4 * 1024;
        cfg.l2.capacity_bytes = 16 * 1024;
        cfg.llc.capacity_bytes = 64 * 1024;
        cfg.hoop.mapping_table_bytes = 64 * 1024;
        cfg.hoop.eviction_buffer_bytes = 8 * 1024;
        cfg.hoop.oop_block_bytes = 64 * 1024;
        cfg.hoop.oop_region_bytes = 1024 * 1024;
        cfg.hoop.gc_period_ms = 0.05;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_ii() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.cores, 16);
        assert_eq!(cfg.l1.capacity_bytes, 32 * 1024);
        assert_eq!(cfg.l1.ways, 4);
        assert_eq!(cfg.l2.capacity_bytes, 256 * 1024);
        assert_eq!(cfg.l2.ways, 8);
        assert_eq!(cfg.llc.capacity_bytes, 2 * 1024 * 1024);
        assert_eq!(cfg.llc.ways, 16);
        assert_eq!(cfg.nvm.read_ns, 50.0);
        assert_eq!(cfg.nvm.write_ns, 150.0);
        assert_eq!(cfg.energy.array_write_pj_per_bit, 16.82);
    }

    #[test]
    fn cache_geometry() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.l1.sets(), 128); // 32 KB / 64 B / 4
        assert_eq!(cfg.llc.sets(), 2048); // 2 MB / 64 B / 16
    }

    #[test]
    fn hoop_defaults_match_section_iii_h() {
        let h = HoopConfig::default();
        assert_eq!(h.oop_buffer_bytes_per_core, 1024);
        assert_eq!(h.mapping_table_bytes, 2 * 1024 * 1024);
        assert_eq!(h.eviction_buffer_bytes, 128 * 1024);
        assert_eq!(h.oop_block_bytes, 2 * 1024 * 1024);
        assert_eq!(h.gc_period_cycles(), 25_000_000);
        assert_eq!(h.mapping_table_entries(), 131072);
    }

    #[test]
    fn media_faults_default_off() {
        assert!(!SimConfig::default().media.enabled);
        assert!(!SimConfig::small_for_tests().media.enabled);
        assert!(!MediaConfig::mild(7).enabled);
        assert!(MediaConfig::enabled(7).enabled);
        assert!(MediaConfig::harsh(7).enabled);
        assert_eq!(MediaConfig::harsh(7).ecc_t, 0);
    }

    #[test]
    fn config_debug_is_nonempty() {
        let repr = format!("{:?}", SimConfig::default());
        assert!(repr.contains("SimConfig"));
    }
}
