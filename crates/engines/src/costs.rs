//! Modeled controller/software cost constants shared by the engines.
//!
//! Each constant models a mechanism the paper describes qualitatively; the
//! NVM device itself (array latency, bandwidth, energy) is modeled in the
//! `hoop-nvm` crate from Table II numbers. These constants cover the parts
//! *around* the device: SRAM lookups in the controller, software index
//! walks, and OS-level costs. Values are chosen at the scale the respective
//! papers report (a TLB shootdown is microseconds-ish; an SRAM hash probe is
//! a few cycles) — EXPERIMENTS.md records how sensitive the reproduced
//! figures are to them.

use simcore::Cycle;

/// SRAM hash probe of HOOP's mapping table in the memory controller
/// (§III-C: "trivial address translation overhead").
pub const MAPPING_TABLE_LOOKUP: Cycle = 4;

/// SRAM probe of HOOP's eviction buffer.
pub const EVICTION_BUFFER_LOOKUP: Cycle = 2;

/// Unpacking a memory slice on a read hit in the OOP region (§III-G: "a few
/// cycles" traversing the metadata cache line).
pub const SLICE_UNPACK: Cycle = 4;

/// Appending one word + metadata to the per-core OOP data buffer.
pub const OOP_BUFFER_APPEND: Cycle = 2;

/// One node visit of LSNVMM's DRAM-cached skip-list address index
/// (§II-B: "O(log N) memory accesses for each data read"). The hot upper
/// levels live in caches, the cold tail in DRAM, so the average visit costs
/// a few cycles of pointer chasing; the *number* of visits is measured
/// mechanistically from the real skip list.
pub const LSM_INDEX_VISIT: Cycle = 3;

/// Most index visits charged for one read translation: the expected
/// height of a DRAM-cached index, whose upper levels stay hot in the CPU
/// caches. The LSM engine's walk stops once it reaches this many visits
/// (`SkipList::visits`), so deeper walks cost no host time either.
pub const LSM_INDEX_VISIT_CAP: u64 = 16;

/// Software bookkeeping LSNVMM performs per logged store (allocation,
/// index update).
pub const LSM_APPEND_BOOKKEEPING: Cycle = 12;

/// One TLB shootdown on the modeled 16-core machine (OSP must remap
/// virtual cache lines; §IV-B blames its "expensive TLB shootdown").
/// Interrupt + IPI round-trip costs of a few microseconds are typical; we
/// charge a conservative 1.4 µs.
pub const TLB_SHOOTDOWN: Cycle = 3500;

/// OSP page-consolidation copy cost per consolidated page, on top of the
/// device writes it issues.
pub const OSP_CONSOLIDATION_OVERHEAD: Cycle = 300;

/// Controller-side bookkeeping LAD performs per queued update.
pub const LAD_QUEUE_APPEND: Cycle = 2;

/// Hardware log-entry formation in the controller (ATOM/WrAP style).
pub const HW_LOG_FORMATION: Cycle = 3;

/// Fixed overhead of `Tx_begin`: setting the transaction state bit plus
/// the application-level work every transaction in the paper's benchmarks
/// performs before touching data (lock acquisition — §III-G "we use the
/// locking mechanism for simplicity" — allocator and bookkeeping).
pub const TX_BEGIN_OVERHEAD: Cycle = 150;

/// Fixed overhead of `Tx_end` before any persist waits (lock release,
/// bookkeeping).
pub const TX_END_OVERHEAD: Cycle = 50;

/// Base cost of executing one load/store instruction (address generation,
/// issue) — latency of the cache levels is added on top by the hierarchy.
pub const OP_BASE: Cycle = 1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sram_costs_are_small() {
        // Controller SRAM structures must stay an order of magnitude below
        // the NVM array latency (125 cycles), or HOOP's "trivial overhead"
        // claim would be violated by construction.
        for c in [
            MAPPING_TABLE_LOOKUP,
            EVICTION_BUFFER_LOOKUP,
            SLICE_UNPACK,
            OOP_BUFFER_APPEND,
        ] {
            assert!(c < 12);
        }
    }

    #[test]
    fn shootdown_dominates_sram() {
        const { assert!(TLB_SHOOTDOWN > 100 * MAPPING_TABLE_LOOKUP) }
    }
}
