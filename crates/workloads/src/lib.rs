//! Benchmark workloads (Table III of the paper).
//!
//! Five persistent data structures driven by synthetic insert/update
//! transactions — [vector](pvector), [hashmap](phashmap), [queue](pqueue),
//! [red-black tree](prbtree), [B-tree](pbtree) — plus the two real-world
//! workloads: [YCSB](ycsb) and [TPC-C New-Order](tpcc) running on an
//! N-store-like [row store](nstore).
//!
//! All of them implement [`TxWorkload`] and are executed by the
//! [`driver::Driver`], which interleaves per-core workload instances over
//! the simulated machine, measures throughput / critical-path latency /
//! write traffic / energy, and can verify the structures against an
//! in-memory shadow model after crashes.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod driver;
pub mod nstore;
pub mod pbtree;
pub mod phashmap;
pub mod pqueue;
pub mod prbtree;
pub mod pvector;
mod shadow;
pub mod spec;
pub mod tpcc;
pub mod ycsb;

pub use driver::{Driver, RunReport};
pub use spec::{WorkloadKind, WorkloadSpec};

use engines::system::System;
use simcore::CoreId;

/// A transactional benchmark workload bound to one core's private data.
///
/// Workloads must be [`Send`] so the experiment runner can move each
/// (engine × workload) cell onto its worker thread.
pub trait TxWorkload: Send {
    /// Workload name (Table III row).
    fn name(&self) -> &'static str;

    /// Allocates and populates the structure (pre-measurement, untimed
    /// initial data via `System::write_initial`).
    fn setup(&mut self, sys: &mut System, core: CoreId);

    /// Executes one transaction (its own `tx_begin`/`tx_end`) on `core`.
    fn run_tx(&mut self, sys: &mut System, core: CoreId);

    /// Checks the persistent structure against the shadow model using
    /// untimed reads. Returns the number of mismatching items (0 = OK).
    fn verify(&self, sys: &System) -> usize;
}
