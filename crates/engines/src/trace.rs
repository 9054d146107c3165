//! The trace vocabulary: one [`Event`] per transactional operation a
//! workload issues.
//!
//! [`System`](crate::system::System) captures these events while a
//! recording is active; the `hoop-trace` crate encodes them into its binary
//! format and replays them into any engine. Crash and recovery have no
//! event: a benchmark trace cannot represent power failure.

/// One recorded event. Payloads are boxed slices, not `Vec`s: a trace
/// holds millions of events and never grows a payload in place, so the
/// 16-byte box keeps every event at 32 bytes.
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
        data: Box<[u8]>,
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
        data: Box<[u8]>,
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

/// Coalesces runs of [`Event::Init`] over contiguous addresses into single
/// records. A run has one payload mode (all elided or all carried) and fits
/// a `u32` length. Seeding a region in one `write_initial` or in any split
/// of it into contiguous pieces therefore coalesces to the same records,
/// which keeps recorded set-up sections independent of seeding granularity.
pub fn coalesce_inits(raw: Vec<Event>) -> Vec<Event> {
    let mut out: Vec<Event> = Vec::with_capacity(raw.len());
    // The open run: start address, length and payload (empty when elided).
    let mut run: Option<(u64, u32, Vec<u8>)> = None;
    let close = |run: &mut Option<(u64, u32, Vec<u8>)>, out: &mut Vec<Event>| {
        if let Some((addr, len, data)) = run.take() {
            out.push(Event::Init {
                addr,
                len,
                data: data.into_boxed_slice(),
            });
        }
    };
    for ev in raw {
        let Event::Init { addr, len, data } = ev else {
            close(&mut run, &mut out);
            out.push(ev);
            continue;
        };
        if let Some((ra, rl, rd)) = &mut run {
            let contiguous = *ra + u64::from(*rl) == addr;
            let same_mode = rd.is_empty() == data.is_empty();
            if contiguous && same_mode && u64::from(*rl) + u64::from(len) <= u32::MAX as u64 {
                *rl += len;
                rd.extend_from_slice(&data);
                continue;
            }
        }
        close(&mut run, &mut out);
        run = Some((addr, len, data.into_vec()));
    }
    close(&mut run, &mut out);
    out.shrink_to_fit();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_inits_of_one_mode_coalesce() {
        let init = |addr: u64, data: &[u8]| Event::Init {
            addr,
            len: 2,
            data: data.into(),
        };
        let raw = vec![
            init(0, &[1, 2]),
            init(2, &[3, 4]),
            init(4, &[]),
            init(6, &[]),
            Event::TxBegin { core: 0 },
            init(8, &[5, 6]),
            init(12, &[7, 8]),
        ];
        let out = coalesce_inits(raw);
        assert_eq!(
            out,
            vec![
                Event::Init {
                    addr: 0,
                    len: 4,
                    data: vec![1, 2, 3, 4].into(),
                },
                Event::Init {
                    addr: 4,
                    len: 4,
                    data: Box::default(),
                },
                Event::TxBegin { core: 0 },
                init(8, &[5, 6]),
                init(12, &[7, 8]),
            ]
        );
    }
}
