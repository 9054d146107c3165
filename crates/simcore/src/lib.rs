//! Simulation kernel for the HOOP reproduction.
//!
//! This crate provides the shared vocabulary of the simulator: simulated
//! [`time`](mod@time) in processor cycles, typed [`addresses`](mod@addr) and
//! [identifiers](mod@ids), the full [system configuration](mod@config)
//! (Table II of the paper), a deterministic splittable [RNG](mod@rng) with a
//! [Zipfian generator](mod@zipf), simple [allocators](mod@alloc) for the
//! simulated physical address space, and [statistics](mod@stats) counters.
//!
//! Everything downstream (the NVM device model, the cache hierarchy, the
//! persistence engines, and HOOP itself) is built in terms of these types, so
//! that an experiment is fully described by a [`config::SimConfig`] plus a
//! random seed and is reproducible bit-for-bit.
//!
//! The [persist-event stream](mod@persist) is the one instrumentation
//! channel: engines emit every durable action once into a
//! [`persist::Probe`], and its subscribers (the persistency sanitizer, the
//! crash valve) interpret it.
//!
//! # Example
//!
//! ```
//! use simcore::config::SimConfig;
//! use simcore::time::ns_to_cycles;
//!
//! let cfg = SimConfig::default();
//! // 50 ns NVM read latency at 2.5 GHz is 125 cycles.
//! assert_eq!(ns_to_cycles(cfg.nvm.read_ns), 125);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod addr;
pub mod alloc;
pub mod config;
pub mod crc;
pub mod det;
pub mod ids;
pub mod linemap;
pub mod persist;
pub mod rng;
pub mod stats;
pub mod time;
pub mod zipf;

pub use addr::{Line, PAddr, CACHE_LINE_BYTES, WORD_BYTES};
pub use config::SimConfig;
pub use det::{DetHashMap, DetHashSet};
pub use ids::{CoreId, TxId};
pub use linemap::LineMap;
pub use rng::SimRng;
pub use time::{ns_to_cycles, Cycle, CLOCK_GHZ};

/// Former name of the probe handed to `attach_sanitizer`; kept as a path
/// because the separate `perfbench` package's forwarding engine names it.
#[doc(hidden)]
pub mod sanitize {
    pub use crate::persist::Probe as SanitizerHandle;
}

/// Former name of the probe handed to `attach_crash_valve`; kept as a path
/// because the separate `perfbench` package's forwarding engine names it.
#[doc(hidden)]
pub mod crashpoint {
    pub use crate::persist::Probe as CrashValve;
}
