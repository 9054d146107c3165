//! The trace vocabulary: one [`Event`] per transactional operation a
//! workload issues.
//!
//! [`System`](crate::system::System) captures these events while a
//! recording is active; the `hoop-trace` crate encodes them into its binary
//! format and replays them into any engine. Crash and recovery have no
//! event: a benchmark trace cannot represent power failure.

/// One recorded event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// `Tx_begin` on `core`.
    TxBegin {
        /// Issuing core.
        core: u8,
    },
    /// `Tx_end` on `core`.
    TxEnd {
        /// Issuing core.
        core: u8,
    },
    /// A store with its payload bytes.
    Store {
        /// Issuing core.
        core: u8,
        /// Target address.
        addr: u64,
        /// Stored bytes.
        data: Vec<u8>,
    },
    /// A store with its payload elided (length only). Simulated metrics
    /// depend on the access shape, never on payload bytes — replay writes
    /// zeros of the recorded length.
    StoreShape {
        /// Issuing core.
        core: u8,
        /// Target address.
        addr: u64,
        /// Logical store length in bytes.
        len: u32,
    },
    /// A load of `len` bytes.
    Load {
        /// Issuing core.
        core: u8,
        /// Source address.
        addr: u64,
        /// Load length in bytes.
        len: u32,
    },
    /// An untimed setup write (`System::write_initial`), possibly coalesced
    /// from several adjacent writes. `data` is empty when the payload was
    /// elided; `len` always holds the logical length.
    Init {
        /// Target address.
        addr: u64,
        /// Logical length in bytes.
        len: u32,
        /// Initial bytes (empty when elided).
        data: Vec<u8>,
    },
}

impl Event {
    /// The issuing core (`None` for `Init`, which no core issues).
    pub fn core(&self) -> Option<u8> {
        match self {
            Event::TxBegin { core }
            | Event::TxEnd { core }
            | Event::Store { core, .. }
            | Event::StoreShape { core, .. }
            | Event::Load { core, .. } => Some(*core),
            Event::Init { .. } => None,
        }
    }
}
