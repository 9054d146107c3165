//! Three-level inclusive cache hierarchy model.
//!
//! Reproduces the Table II hierarchy: per-core L1 (32 KB, 4-way) and L2
//! (256 KB, 8-way, inclusive), plus one shared inclusive LLC (2 MB,
//! 16-way). The model is a *timing and event* model: it tracks which lines
//! are cached, dirty, and marked with HOOP's per-line **persistent bit**
//! (§III-G), and it reports dirty LLC evictions so the persistence engine
//! can decide where evicted data goes (home region, log, or OOP region).
//! Each LLC line also carries a sharer mask, a superset of the cores whose
//! private caches hold it, so inclusion's back-invalidations, write steals,
//! cleans and flushes probe only those cores (hence at most 16 cores).
//! Functional data lives in the system's volatile memory image, not in the
//! cache model.
//!
//! # Example
//!
//! ```
//! use memhier::Hierarchy;
//! use simcore::{CoreId, SimConfig};
//! use simcore::addr::Line;
//!
//! let cfg = SimConfig::default();
//! let mut h = Hierarchy::new(&cfg);
//! let miss = h.access(CoreId(0), Line(7), false, false);
//! assert!(miss.llc_miss);
//! let hit = h.access(CoreId(0), Line(7), false, false);
//! assert!(!hit.llc_miss);
//! assert!(hit.latency < miss.latency);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
pub mod hierarchy;

pub use cache::{Cache, Evicted};
pub use hierarchy::{AccessResult, FlushResult, HierStats, Hierarchy};
