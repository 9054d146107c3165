//! The binary trace format (version 1).
//!
//! A trace file is a little-endian byte stream:
//!
//! ```text
//! magic      8 B   "HOOPTRC\n"
//! version    u32   format version (this module reads exactly one)
//! reserved   u32   zero
//! checksum   u64   FNV-1a over every byte that follows
//! kind       u8    workload kind code (see `kind_code`)
//! workers    u8    worker cores recorded
//! reserved   u16   zero
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

use std::fmt;
use std::path::Path;

pub use engines::trace::Event;
use workloads::spec::{WorkloadKind, WorkloadSpec};

/// Version of the binary layout. Bump on any change to the header or to
/// event encoding; readers reject every version except their own.
pub const TRACE_FORMAT_VERSION: u32 = 1;

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
    /// The body bytes do not match the header checksum, or a record is
    /// internally inconsistent.
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

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
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

/// Incremental trace encoder. Feed setup events, then each core's measured
/// events; [`TraceWriter::finish`] computes the checksum and returns the
/// file bytes.
#[derive(Debug)]
pub struct TraceWriter {
    header: TraceHeader,
    setup: Vec<u8>,
    setup_count: u32,
    cores: Vec<Vec<u8>>,
    core_counts: Vec<u32>,
    tx_counts: Vec<u32>,
}

impl TraceWriter {
    /// Starts a trace for `header`.
    pub fn new(header: TraceHeader) -> Self {
        let workers = header.workers as usize;
        TraceWriter {
            header,
            setup: Vec::new(),
            setup_count: 0,
            cores: vec![Vec::new(); workers],
            core_counts: vec![0; workers],
            tx_counts: vec![0; workers],
        }
    }

    /// Appends one event to the ordered setup section.
    pub fn push_setup(&mut self, ev: &Event) {
        encode_event(&mut self.setup, ev);
        self.setup_count += 1;
    }

    /// Appends one measured event to its core's stream.
    ///
    /// # Panics
    ///
    /// Panics on an [`Event::Init`] (setup-only) or a core outside the
    /// header's worker range.
    pub fn push_event(&mut self, ev: &Event) {
        let core = ev.core().expect("Init events belong to the setup section");
        let buf = &mut self.cores[core as usize];
        encode_event(buf, ev);
        self.core_counts[core as usize] += 1;
        if matches!(ev, Event::TxEnd { .. }) {
            self.tx_counts[core as usize] += 1;
        }
    }

    /// Finalizes the trace and returns the complete file bytes.
    ///
    /// # Panics
    ///
    /// Panics if any core's completed-transaction count differs from the
    /// header's `txs_per_core` — the recorder must deliver exactly the
    /// advertised depth.
    pub fn finish(self) -> Vec<u8> {
        for (c, &n) in self.tx_counts.iter().enumerate() {
            assert_eq!(
                n, self.header.txs_per_core,
                "core {c} recorded {n} transactions, header says {}",
                self.header.txs_per_core
            );
        }
        let h = &self.header;
        let mut body = Vec::new();
        body.push(kind_code(h.spec.kind));
        body.push(h.workers);
        body.extend_from_slice(&0u16.to_le_bytes());
        body.extend_from_slice(&h.spec.item_bytes.to_le_bytes());
        body.extend_from_slice(&h.spec.items.to_le_bytes());
        body.extend_from_slice(&h.spec.seed.to_le_bytes());
        body.extend_from_slice(&h.spec.zipf_theta.to_bits().to_le_bytes());
        body.extend_from_slice(&h.spec.update_fraction.to_bits().to_le_bytes());
        body.extend_from_slice(&h.txs_per_core.to_le_bytes());
        body.extend_from_slice(&(h.label.len() as u32).to_le_bytes());
        body.extend_from_slice(h.label.as_bytes());
        body.extend_from_slice(&self.setup_count.to_le_bytes());
        body.extend_from_slice(&self.setup);
        for (core, count) in self.cores.iter().zip(&self.core_counts) {
            body.extend_from_slice(&count.to_le_bytes());
            body.extend_from_slice(core);
        }
        let mut out = Vec::with_capacity(body.len() + 24);
        out.extend_from_slice(&TRACE_MAGIC);
        out.extend_from_slice(&TRACE_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&fnv1a(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// [`finish`](TraceWriter::finish) and write the bytes to `path`.
    pub fn write_to(self, path: &Path) -> Result<(), TraceError> {
        let bytes = self.finish();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| TraceError::Io(format!("{}: {e}", dir.display())))?;
            }
        }
        std::fs::write(path, bytes).map_err(|e| TraceError::Io(format!("{}: {e}", path.display())))
    }
}

fn push_record(buf: &mut Vec<u8>, kind: u8, core: u8, len: u32, addr: u64, payload: &[u8]) {
    buf.push(kind);
    buf.push(core);
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(&addr.to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Decoder for the binary format: validates magic, version, and checksum,
/// then yields the fully structured [`TraceFile`].
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

    fn u8(&mut self, reading: &'static str) -> Result<u8, TraceError> {
        Ok(self.take(1, reading)?[0])
    }

    fn u16(&mut self, reading: &'static str) -> Result<u16, TraceError> {
        Ok(u16::from_le_bytes(
            self.take(2, reading)?.try_into().unwrap(),
        ))
    }

    fn u32(&mut self, reading: &'static str) -> Result<u32, TraceError> {
        Ok(u32::from_le_bytes(
            self.take(4, reading)?.try_into().unwrap(),
        ))
    }

    fn u64(&mut self, reading: &'static str) -> Result<u64, TraceError> {
        Ok(u64::from_le_bytes(
            self.take(8, reading)?.try_into().unwrap(),
        ))
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
        let _reserved = c.u32("reserved")?;
        let checksum = c.u64("checksum")?;
        let body = &bytes[c.pos..];
        if fnv1a(body) != checksum {
            return Err(TraceError::Corrupt("body checksum mismatch".into()));
        }

        let kind = kind_from_code(c.u8("workload kind")?)?;
        let workers = c.u8("workers")?;
        if workers == 0 || workers == INIT_CORE {
            return Err(TraceError::Corrupt(format!(
                "invalid worker count {workers}"
            )));
        }
        let _pad = c.u16("reserved")?;
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
        let mut setup = Vec::new();
        for _ in 0..setup_count {
            setup.push(Self::event(&mut c, workers)?);
        }

        let mut per_core = Vec::with_capacity(workers as usize);
        for want_core in 0..workers {
            let count = c.u32("event count")?;
            let mut txs: Vec<Vec<Event>> = Vec::with_capacity(txs_per_core as usize);
            let mut open: Option<Vec<Event>> = None;
            for _ in 0..count {
                let ev = Self::event(&mut c, workers)?;
                match ev.core() {
                    Some(core) if core == want_core => {}
                    Some(core) => {
                        return Err(TraceError::Corrupt(format!(
                            "event for core {core} inside core {want_core}'s stream"
                        )))
                    }
                    None => {
                        return Err(TraceError::Corrupt(format!(
                            "init record inside core {want_core}'s stream"
                        )))
                    }
                }
                match (&mut open, &ev) {
                    (None, Event::TxBegin { .. }) => open = Some(vec![ev]),
                    (None, _) => {
                        return Err(TraceError::Corrupt(format!(
                            "core {want_core}: event outside a transaction"
                        )))
                    }
                    (Some(_), Event::TxBegin { .. }) => {
                        return Err(TraceError::Corrupt(format!(
                            "core {want_core}: nested TxBegin"
                        )))
                    }
                    (Some(tx), Event::TxEnd { .. }) => {
                        tx.push(ev);
                        txs.push(open.take().expect("open transaction"));
                    }
                    (Some(tx), _) => tx.push(ev),
                }
            }
            if open.is_some() {
                return Err(TraceError::Corrupt(format!(
                    "core {want_core}: trailing unterminated transaction"
                )));
            }
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
        let kind = c.u8("event kind")?;
        let core = c.u8("event core")?;
        let len = c.u32("event length")?;
        let addr = c.u64("event address")?;
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
                data: payload.to_vec(),
            },
            EV_STORE_SHAPE => Event::StoreShape { core, addr, len },
            EV_LOAD => Event::Load { core, addr, len },
            EV_INIT => Event::Init {
                addr,
                len,
                data: payload.to_vec(),
            },
            EV_INIT_SHAPE => Event::Init {
                addr,
                len,
                data: Vec::new(),
            },
            other => return Err(TraceError::Corrupt(format!("unknown event kind {other}"))),
        })
    }
}

impl TraceFile {
    /// Encodes this trace back to file bytes (the writer round-trip).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = TraceWriter::new(self.header.clone());
        for ev in &self.setup {
            w.push_setup(ev);
        }
        for txs in &self.per_core {
            for tx in txs {
                for ev in tx {
                    w.push_event(ev);
                }
            }
        }
        w.finish()
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
                    data: vec![],
                },
                Event::Init {
                    addr: 0x2000,
                    len: 3,
                    data: vec![1, 2, 3],
                },
                // Setup-time transaction (the trees pre-populate like this).
                Event::TxBegin { core: 0 },
                Event::Store {
                    core: 0,
                    addr: 0x3000,
                    data: vec![7; 8],
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
    fn bad_magic_is_not_a_panic() {
        assert_eq!(
            TraceReader::decode(b"not a trace file"),
            Err(TraceError::BadMagic)
        );
        assert!(TraceReader::decode(&[]).is_err());
    }
}
