//! The binary trace format (version 2).
//!
//! A trace file is a little-endian byte stream:
//!
//! ```text
//! magic      8 B   "HOOPTRC\n"
//! version    u32   format version (this module reads exactly one)
//! reserved   u32   zero (a non-zero value is rejected)
//! checksum   u64   xxHash64 (seed 0) over every byte that follows
//! kind       u8    workload kind code (see `kind_code`)
//! workers    u8    worker cores recorded
//! reserved   u16   zero (a non-zero value is rejected)
//! item_bytes u64 · items u64 · seed u64        workload identity
//! zipf_theta f64 · update_fraction f64          (stored as raw LE bits)
//! txs_per_core u32                              measured depth per core
//! label_len  u32 + label bytes                  workload display label
//! setup_count u32 + setup events                ordered setup replay
//! per core: event_count u32 + event records     the core's tx stream
//! ```
//!
//! The *setup section* is an ordered flat stream: it interleaves
//! [`Event::Init`] records (untimed `write_initial` seeding) with ordinary
//! transactional events, because some workloads (the trees) pre-populate
//! their structures with real committed transactions during setup. Live
//! setup is single-threaded and sequential, so replaying the section in
//! order reproduces it exactly. The *per-core sections* hold each core's
//! measured transaction stream, split into transactions (`TxBegin` ..
//! `TxEnd`); replay pulls whole transactions from them under the live
//! scheduler.
//!
//! Every event record has a fixed-width 14-byte header
//! `[kind u8][core u8][len u32][addr u64]`, followed by exactly `len`
//! payload bytes for the value-carrying kinds (`Store`, value-mode `Init`)
//! and nothing for the rest (`StoreShape`, `Load` and shape-mode `Init`
//! carry their logical length in `len` but no payload). Versioning rule:
//! **adding** event kinds or trailing header fields requires a version bump
//! and a reader that rejects newer versions (this one does); readers never
//! skip unknown kinds.
//!
//! Version 2 has version 1's layout with a word-parallel [`checksum`] in
//! place of bytewise FNV-1a, and enforces the reserved fields. There is
//! one reader: a version 1 file fails with
//! [`TraceError::UnsupportedVersion`], which names the command that
//! regenerates the pack.

use std::fmt;
use std::path::Path;

pub use engines::trace::Event;
use workloads::spec::{WorkloadKind, WorkloadSpec};

/// Version of the binary layout. Bump on any change to the header or to
/// event encoding; readers reject every version except their own.
pub const TRACE_FORMAT_VERSION: u32 = 2;

/// Leading magic bytes of every trace file.
pub const TRACE_MAGIC: [u8; 8] = *b"HOOPTRC\n";

const EV_TX_BEGIN: u8 = 0;
const EV_TX_END: u8 = 1;
const EV_STORE: u8 = 2;
const EV_STORE_SHAPE: u8 = 3;
const EV_LOAD: u8 = 4;
const EV_INIT: u8 = 5;
const EV_INIT_SHAPE: u8 = 6;

/// The pseudo-core carried by `Init` records on disk (setup seeding is not
/// issued by any worker core).
const INIT_CORE: u8 = 0xFF;

/// The trace header: format identity plus the workload identity the trace
/// was recorded from. Replay validates the workload identity against the
/// cell it is asked to reproduce, so a stale or mismatched trace fails
/// loudly instead of silently diverging.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceHeader {
    /// Workload display label (`vector-64B`, `tpcc`, ...).
    pub label: String,
    /// The exact spec the recorded workload was built from.
    pub spec: WorkloadSpec,
    /// Worker cores recorded (one stream each).
    pub workers: u8,
    /// Measured transactions recorded per core (setup transactions live in
    /// the setup section and are not counted here).
    pub txs_per_core: u32,
}

/// A fully decoded trace: header, ordered setup stream, and one measured
/// transaction stream per core (`per_core[c][t]` = the events of core `c`'s
/// `t`-th transaction, starting with `TxBegin` and ending with `TxEnd`).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceFile {
    /// Format + workload identity.
    pub header: TraceHeader,
    /// Setup events in issue order (`Init` seeding interleaved with any
    /// setup-time transactions).
    pub setup: Vec<Event>,
    /// Per-core measured transaction streams.
    pub per_core: Vec<Vec<Vec<Event>>>,
}

/// Errors reading or decoding a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// Filesystem error (path + message).
    Io(String),
    /// The file does not start with the trace magic.
    BadMagic,
    /// The file's format version is not the one this reader understands.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// Version this reader supports.
        supported: u32,
    },
    /// The file ended before a complete record (truncated download/write).
    Truncated {
        /// What was being read when the bytes ran out.
        reading: &'static str,
    },
    /// The body bytes do not match the header checksum, a reserved field
    /// is not zero, or a record is internally inconsistent.
    Corrupt(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(m) => write!(f, "trace io error: {m}"),
            TraceError::BadMagic => write!(f, "not a HOOP trace (bad magic)"),
            TraceError::UnsupportedVersion { found, supported } => write!(
                f,
                "trace format version {found} is not supported (this build reads \
                 version {supported}); regenerate with `cargo run -p xtask -- trace`"
            ),
            TraceError::Truncated { reading } => {
                write!(f, "trace truncated while reading {reading}")
            }
            TraceError::Corrupt(m) => write!(f, "trace corrupt: {m}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Maps a workload kind to its on-disk code. Codes are part of the format:
/// never renumber, only append.
fn kind_code(kind: WorkloadKind) -> u8 {
    match kind {
        WorkloadKind::Vector => 0,
        WorkloadKind::Hashmap => 1,
        WorkloadKind::Queue => 2,
        WorkloadKind::RbTree => 3,
        WorkloadKind::BTree => 4,
        WorkloadKind::Ycsb => 5,
        WorkloadKind::Tpcc => 6,
    }
}

fn kind_from_code(code: u8) -> Result<WorkloadKind, TraceError> {
    Ok(match code {
        0 => WorkloadKind::Vector,
        1 => WorkloadKind::Hashmap,
        2 => WorkloadKind::Queue,
        3 => WorkloadKind::RbTree,
        4 => WorkloadKind::BTree,
        5 => WorkloadKind::Ycsb,
        6 => WorkloadKind::Tpcc,
        other => {
            return Err(TraceError::Corrupt(format!(
                "unknown workload kind {other}"
            )))
        }
    })
}

// xxHash64's five 64-bit primes.
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// One lane step: a bijection of `w` for any `acc`, and of `acc` for any
/// `w` (odd multipliers and a rotate), so a change confined to one word
/// always changes its lane. The rotate carries high-bit differences down
/// into the low bits.
fn round(acc: u64, w: u64) -> u64 {
    acc.wrapping_add(w.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8 bytes"))
}

/// The body checksum: xxHash64 with seed 0. Four independent lanes take
/// the little-endian 8-byte words of each 32-byte stripe; the lanes are
/// merged, the length and the tail bytes folded in, and the result
/// avalanched.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in &mut stripes {
            for (lane, w) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = round(*lane, le_u64(w));
            }
        }
        let mut h = lanes[0]
            .rotate_left(1)
            .wrapping_add(lanes[1].rotate_left(7))
            .wrapping_add(lanes[2].rotate_left(12))
            .wrapping_add(lanes[3].rotate_left(18));
        for lane in lanes {
            h = (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
        }
        h
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        h = (h ^ round(0, le_u64(w)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let mut rest = words.remainder();
    if rest.len() >= 4 {
        let w = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
        h = (h ^ u64::from(w).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Length of every event record's fixed header
/// `[kind u8][core u8][len u32][addr u64]`.
const EVENT_HEADER: usize = 14;

/// Length of the file header before the checksummed body: magic, version,
/// reserved word and checksum.
const FILE_HEADER: usize = 24;

/// Length of the body's fixed fields, from `kind` through `label_len`.
const BODY_FIXED: usize = 52;

/// A count or length as the format's `u32`.
///
/// # Panics
///
/// Panics if it does not fit: the format cannot represent it.
fn u32_len(n: usize, what: &str) -> u32 {
    u32::try_from(n).unwrap_or_else(|_| {
        panic!("{what} of {n} does not fit format v{TRACE_FORMAT_VERSION}'s u32")
    })
}

/// On-disk size of one event record (header plus payload).
fn event_bytes(ev: &Event) -> usize {
    EVENT_HEADER
        + match ev {
            Event::Store { data, .. } | Event::Init { data, .. } => data.len(),
            _ => 0,
        }
}

fn encode_event(buf: &mut Vec<u8>, ev: &Event) {
    match ev {
        Event::TxBegin { core } => push_record(buf, EV_TX_BEGIN, *core, 0, 0, &[]),
        Event::TxEnd { core } => push_record(buf, EV_TX_END, *core, 0, 0, &[]),
        Event::Store { core, addr, data } => {
            push_record(buf, EV_STORE, *core, data.len() as u32, *addr, data);
        }
        Event::StoreShape { core, addr, len } => {
            push_record(buf, EV_STORE_SHAPE, *core, *len, *addr, &[]);
        }
        Event::Load { core, addr, len } => push_record(buf, EV_LOAD, *core, *len, *addr, &[]),
        Event::Init { addr, len, data } => {
            if data.is_empty() {
                push_record(buf, EV_INIT_SHAPE, INIT_CORE, *len, *addr, &[]);
            } else {
                debug_assert_eq!(data.len(), *len as usize);
                push_record(buf, EV_INIT, INIT_CORE, *len, *addr, data);
            }
        }
    }
}

fn push_record(buf: &mut Vec<u8>, kind: u8, core: u8, len: u32, addr: u64, payload: &[u8]) {
    let mut head = [0u8; EVENT_HEADER];
    head[0] = kind;
    head[1] = core;
    head[2..6].copy_from_slice(&len.to_le_bytes());
    head[6..].copy_from_slice(&addr.to_le_bytes());
    buf.extend_from_slice(&head);
    buf.extend_from_slice(payload);
}

/// Groups one core's event stream into whole transactions, each at its
/// exact length, checking core ownership and transaction discipline. The
/// decoder and the recorder share it.
pub(crate) struct TxSplitter {
    core: u8,
    txs: Vec<Vec<Event>>,
    /// The open transaction. It leaves at its exact length at its `TxEnd`;
    /// only this buffer ever grows.
    open: Vec<Event>,
}

impl TxSplitter {
    /// A splitter for `core`'s stream; `depth`, the expected transaction
    /// count, is used only as a capacity.
    pub(crate) fn new(core: u8, depth: usize) -> Self {
        TxSplitter {
            core,
            txs: Vec::with_capacity(depth),
            open: Vec::new(),
        }
    }

    fn corrupt(&self, what: &str) -> Result<(), TraceError> {
        Err(TraceError::Corrupt(format!("core {}: {what}", self.core)))
    }

    /// Appends the stream's next event.
    pub(crate) fn push(&mut self, ev: Event) -> Result<(), TraceError> {
        if ev.core() != Some(self.core) {
            return self.corrupt(&format!("stream holds {ev:?}"));
        }
        match (self.open.is_empty(), &ev) {
            (true, Event::TxBegin { .. }) => self.open.push(ev),
            (true, _) => return self.corrupt("event outside a transaction"),
            (false, Event::TxBegin { .. }) => return self.corrupt("nested TxBegin"),
            (false, Event::TxEnd { .. }) => {
                self.open.push(ev);
                self.txs.push(self.open.drain(..).collect());
            }
            (false, _) => self.open.push(ev),
        }
        Ok(())
    }

    /// The stream's transactions, or an error if it ends inside one.
    pub(crate) fn finish(self) -> Result<Vec<Vec<Event>>, TraceError> {
        if !self.open.is_empty() {
            self.corrupt("stream ends inside a transaction")?;
        }
        Ok(self.txs)
    }
}

/// Decoder for the binary format: validates magic, version, reserved
/// fields and checksum, then yields the fully structured [`TraceFile`].
#[derive(Debug)]
pub struct TraceReader;

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, reading: &'static str) -> Result<&'a [u8], TraceError> {
        if self.pos + n > self.bytes.len() {
            return Err(TraceError::Truncated { reading });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self, reading: &'static str) -> Result<[u8; N], TraceError> {
        Ok(self
            .take(N, reading)?
            .try_into()
            .expect("take returns N bytes"))
    }

    /// An upper bound on the records still to come, each at least
    /// `min_bytes` long: caps a capacity read from the file, so a bad count
    /// cannot reserve more memory than the bytes could ever hold.
    fn fit(&self, count: u32, min_bytes: usize) -> usize {
        (count as usize).min((self.bytes.len() - self.pos) / min_bytes)
    }

    fn u8(&mut self, reading: &'static str) -> Result<u8, TraceError> {
        Ok(self.take(1, reading)?[0])
    }

    fn u16(&mut self, reading: &'static str) -> Result<u16, TraceError> {
        Ok(u16::from_le_bytes(self.array(reading)?))
    }

    fn u32(&mut self, reading: &'static str) -> Result<u32, TraceError> {
        Ok(u32::from_le_bytes(self.array(reading)?))
    }

    fn u64(&mut self, reading: &'static str) -> Result<u64, TraceError> {
        Ok(u64::from_le_bytes(self.array(reading)?))
    }
}

impl TraceReader {
    /// Decodes a trace from raw file bytes.
    pub fn decode(bytes: &[u8]) -> Result<TraceFile, TraceError> {
        let mut c = Cursor { bytes, pos: 0 };
        if c.take(8, "magic")? != TRACE_MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = c.u32("version")?;
        if version != TRACE_FORMAT_VERSION {
            return Err(TraceError::UnsupportedVersion {
                found: version,
                supported: TRACE_FORMAT_VERSION,
            });
        }
        if c.u32("reserved")? != 0 {
            return Err(TraceError::Corrupt("non-zero header reserved word".into()));
        }
        let sum = c.u64("checksum")?;
        if checksum(&bytes[c.pos..]) != sum {
            return Err(TraceError::Corrupt("body checksum mismatch".into()));
        }

        let kind = kind_from_code(c.u8("workload kind")?)?;
        let workers = c.u8("workers")?;
        if workers == 0 || workers == INIT_CORE {
            return Err(TraceError::Corrupt(format!(
                "invalid worker count {workers}"
            )));
        }
        if c.u16("reserved")? != 0 {
            return Err(TraceError::Corrupt("non-zero body reserved field".into()));
        }
        let item_bytes = c.u64("item_bytes")?;
        let items = c.u64("items")?;
        let seed = c.u64("seed")?;
        let zipf_theta = f64::from_bits(c.u64("zipf_theta")?);
        let update_fraction = f64::from_bits(c.u64("update_fraction")?);
        let txs_per_core = c.u32("txs_per_core")?;
        let label_len = c.u32("label length")? as usize;
        let label = String::from_utf8(c.take(label_len, "label")?.to_vec())
            .map_err(|_| TraceError::Corrupt("label is not UTF-8".into()))?;

        let setup_count = c.u32("setup count")?;
        let mut setup = Vec::with_capacity(c.fit(setup_count, EVENT_HEADER));
        for _ in 0..setup_count {
            setup.push(Self::event(&mut c, workers)?);
        }

        let mut per_core = Vec::with_capacity(workers as usize);
        for want_core in 0..workers {
            let count = c.u32("event count")?;
            let mut split = TxSplitter::new(want_core, c.fit(txs_per_core, 2 * EVENT_HEADER));
            for _ in 0..count {
                split.push(Self::event(&mut c, workers)?)?;
            }
            let txs = split.finish()?;
            if txs.len() as u32 != txs_per_core {
                return Err(TraceError::Corrupt(format!(
                    "core {want_core}: {} transactions, header says {txs_per_core}",
                    txs.len()
                )));
            }
            per_core.push(txs);
        }
        if c.pos != bytes.len() {
            return Err(TraceError::Corrupt(format!(
                "{} trailing bytes after the last stream",
                bytes.len() - c.pos
            )));
        }

        Ok(TraceFile {
            header: TraceHeader {
                label,
                spec: WorkloadSpec {
                    kind,
                    item_bytes,
                    items,
                    zipf_theta,
                    update_fraction,
                    seed,
                },
                workers,
                txs_per_core,
            },
            setup,
            per_core,
        })
    }

    /// Reads and decodes a trace file from disk.
    pub fn read(path: &Path) -> Result<TraceFile, TraceError> {
        let bytes =
            std::fs::read(path).map_err(|e| TraceError::Io(format!("{}: {e}", path.display())))?;
        Self::decode(&bytes)
    }

    fn event(c: &mut Cursor<'_>, workers: u8) -> Result<Event, TraceError> {
        let head: [u8; EVENT_HEADER] = c.array("event header")?;
        let (kind, core) = (head[0], head[1]);
        let len = u32::from_le_bytes(head[2..6].try_into().expect("4 bytes"));
        let addr = u64::from_le_bytes(head[6..].try_into().expect("8 bytes"));
        let payload = if kind == EV_STORE || kind == EV_INIT {
            c.take(len as usize, "event payload")?
        } else {
            &[]
        };
        if kind == EV_INIT || kind == EV_INIT_SHAPE {
            if core != INIT_CORE {
                return Err(TraceError::Corrupt(format!(
                    "init record carries core {core}"
                )));
            }
        } else if core >= workers {
            return Err(TraceError::Corrupt(format!(
                "event core {core} out of range (workers = {workers})"
            )));
        }
        Ok(match kind {
            EV_TX_BEGIN => Event::TxBegin { core },
            EV_TX_END => Event::TxEnd { core },
            EV_STORE => Event::Store {
                core,
                addr,
                data: payload.into(),
            },
            EV_STORE_SHAPE => Event::StoreShape { core, addr, len },
            EV_LOAD => Event::Load { core, addr, len },
            EV_INIT => Event::Init {
                addr,
                len,
                data: payload.into(),
            },
            EV_INIT_SHAPE => Event::Init {
                addr,
                len,
                data: Box::default(),
            },
            other => return Err(TraceError::Corrupt(format!("unknown event kind {other}"))),
        })
    }
}

impl TraceFile {
    /// Encodes this trace to file bytes. The body is written once, into a
    /// buffer sized up front, and its checksum is then patched into the
    /// header.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not well formed: a stream count other than
    /// `workers`, a stream whose transaction count differs from
    /// `txs_per_core`, a measured event not issued by its stream's core
    /// (an `Init` included), or a count the format's `u32` cannot hold. The
    /// recorder must deliver exactly the advertised shape.
    pub fn encode(&self) -> Vec<u8> {
        let h = &self.header;
        assert_eq!(
            self.per_core.len(),
            h.workers as usize,
            "{} streams, header says {} workers",
            self.per_core.len(),
            h.workers
        );
        let events = |evs: &[Event]| evs.iter().map(event_bytes).sum::<usize>();
        let size = FILE_HEADER
            + BODY_FIXED
            + h.label.len()
            + 4
            + events(&self.setup)
            + self
                .per_core
                .iter()
                .map(|txs| 4 + txs.iter().map(|tx| events(tx)).sum::<usize>())
                .sum::<usize>();

        let mut out = Vec::with_capacity(size);
        out.extend_from_slice(&TRACE_MAGIC);
        out.extend_from_slice(&TRACE_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes()); // checksum, patched below
        out.push(kind_code(h.spec.kind));
        out.push(h.workers);
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&h.spec.item_bytes.to_le_bytes());
        out.extend_from_slice(&h.spec.items.to_le_bytes());
        out.extend_from_slice(&h.spec.seed.to_le_bytes());
        out.extend_from_slice(&h.spec.zipf_theta.to_bits().to_le_bytes());
        out.extend_from_slice(&h.spec.update_fraction.to_bits().to_le_bytes());
        out.extend_from_slice(&h.txs_per_core.to_le_bytes());
        out.extend_from_slice(&u32_len(h.label.len(), "label").to_le_bytes());
        out.extend_from_slice(h.label.as_bytes());
        out.extend_from_slice(&u32_len(self.setup.len(), "setup section").to_le_bytes());
        for ev in &self.setup {
            encode_event(&mut out, ev);
        }
        for (c, txs) in self.per_core.iter().enumerate() {
            assert_eq!(
                txs.len(),
                h.txs_per_core as usize,
                "core {c} recorded {} transactions, header says {}",
                txs.len(),
                h.txs_per_core
            );
            let count: usize = txs.iter().map(Vec::len).sum();
            out.extend_from_slice(&u32_len(count, "core stream").to_le_bytes());
            for ev in txs.iter().flatten() {
                assert_eq!(ev.core(), Some(c as u8), "core {c}'s stream holds {ev:?}");
                encode_event(&mut out, ev);
            }
        }
        debug_assert_eq!(out.len(), size);
        let sum = checksum(&out[FILE_HEADER..]);
        out[16..FILE_HEADER].copy_from_slice(&sum.to_le_bytes());
        out
    }

    /// Encodes and writes this trace to `path`, creating parent
    /// directories as needed.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] if the directory or file cannot be
    /// written.
    pub fn write_to(&self, path: &Path) -> Result<(), TraceError> {
        let bytes = self.encode();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| TraceError::Io(format!("{}: {e}", dir.display())))?;
            }
        }
        std::fs::write(path, bytes).map_err(|e| TraceError::Io(format!("{}: {e}", path.display())))
    }

    /// Total recorded events (setup plus all measured streams).
    pub fn event_count(&self) -> u64 {
        self.setup.len() as u64
            + self
                .per_core
                .iter()
                .flat_map(|txs| txs.iter())
                .map(|tx| tx.len() as u64)
                .sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceFile {
        let spec = WorkloadSpec::small(WorkloadKind::Vector);
        let tx = |core: u8| {
            vec![
                Event::TxBegin { core },
                Event::StoreShape {
                    core,
                    addr: 0x1000 + u64::from(core) * 64,
                    len: 8,
                },
                Event::Load {
                    core,
                    addr: 0x1000,
                    len: 8,
                },
                Event::TxEnd { core },
            ]
        };
        TraceFile {
            header: TraceHeader {
                label: "vector-64B".into(),
                spec,
                workers: 2,
                txs_per_core: 2,
            },
            setup: vec![
                Event::Init {
                    addr: 0x1000,
                    len: 128,
                    data: Box::default(),
                },
                Event::Init {
                    addr: 0x2000,
                    len: 3,
                    data: vec![1, 2, 3].into(),
                },
                // Setup-time transaction (the trees pre-populate like this).
                Event::TxBegin { core: 0 },
                Event::Store {
                    core: 0,
                    addr: 0x3000,
                    data: vec![7; 8].into(),
                },
                Event::TxEnd { core: 0 },
            ],
            per_core: vec![vec![tx(0), tx(0)], vec![tx(1), tx(1)]],
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let t = sample();
        let decoded = TraceReader::decode(&t.encode()).expect("valid trace");
        assert_eq!(decoded, t);
    }

    #[test]
    fn future_version_is_rejected_with_clear_error() {
        let mut bytes = sample().encode();
        bytes[8..12].copy_from_slice(&(TRACE_FORMAT_VERSION + 1).to_le_bytes());
        let err = TraceReader::decode(&bytes).expect_err("must reject");
        assert_eq!(
            err,
            TraceError::UnsupportedVersion {
                found: TRACE_FORMAT_VERSION + 1,
                supported: TRACE_FORMAT_VERSION,
            }
        );
        assert!(err.to_string().contains("xtask -- trace"));
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            let err = TraceReader::decode(&bytes[..cut]).expect_err("truncated");
            assert!(
                matches!(
                    err,
                    TraceError::Truncated { .. } | TraceError::BadMagic | TraceError::Corrupt(_)
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn corruption_fails_the_checksum() {
        let mut bytes = sample().encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(
            TraceReader::decode(&bytes),
            Err(TraceError::Corrupt(_))
        ));
    }

    #[test]
    fn reserved_fields_must_be_zero() {
        let mut bytes = sample().encode();
        bytes[12] = 1;
        assert_eq!(
            TraceReader::decode(&bytes),
            Err(TraceError::Corrupt("non-zero header reserved word".into()))
        );
        // The body's reserved u16 is checksummed too: re-sum so the check
        // under test is the field's own.
        let mut bytes = sample().encode();
        bytes[FILE_HEADER + 3] = 0x80;
        let sum = checksum(&bytes[FILE_HEADER..]);
        bytes[16..FILE_HEADER].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            TraceReader::decode(&bytes),
            Err(TraceError::Corrupt("non-zero body reserved field".into()))
        );
    }

    #[test]
    fn stream_structure_is_checked() {
        let split = |evs: Vec<Event>| {
            let mut split = TxSplitter::new(1, 0);
            for ev in evs {
                split.push(ev)?;
            }
            split.finish()
        };
        let (begin, end) = (Event::TxBegin { core: 1 }, Event::TxEnd { core: 1 });
        let load = Event::Load {
            core: 1,
            addr: 0,
            len: 8,
        };
        let init = Event::Init {
            addr: 0,
            len: 8,
            data: Box::default(),
        };
        let txs = split(vec![
            begin.clone(),
            load.clone(),
            end.clone(),
            begin.clone(),
            end.clone(),
        ])
        .expect("well formed");
        assert_eq!(txs.iter().map(Vec::len).collect::<Vec<_>>(), [3, 2]);
        for bad in [
            vec![load.clone()],
            vec![begin.clone(), begin.clone(), end.clone()],
            vec![begin.clone(), load],
            vec![begin.clone(), Event::TxEnd { core: 0 }],
            vec![begin, init, end],
        ] {
            assert!(matches!(split(bad), Err(TraceError::Corrupt(_))));
        }
    }

    #[test]
    fn bad_magic_is_not_a_panic() {
        assert_eq!(
            TraceReader::decode(b"not a trace file"),
            Err(TraceError::BadMagic)
        );
        assert!(TraceReader::decode(&[]).is_err());
    }
}
