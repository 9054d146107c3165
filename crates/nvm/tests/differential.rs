//! Differential property test: the optimized [`PersistentStore`] (page
//! slab + last-page cache + direct slice copies) must be observationally
//! identical to a naive byte-map reference model under arbitrary operation
//! sequences — including torn writes, the word and line accessors,
//! reads/writes that straddle page boundaries (the cases the fast paths
//! special-case), and writes issued while a crash valve is closed.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use nvm::PersistentStore;
use proptest::prelude::*;
use simcore::persist::{Event, Valve};
use simcore::PAddr;

const LINE: usize = 64;

/// The reference model: one map entry per byte ever written; absent bytes
/// read as zero (the store's documented fresh-memory semantics). While
/// `frozen` (the crash valve is closed) writes are dropped.
#[derive(Default)]
struct NaiveStore {
    bytes: BTreeMap<u64, u8>,
    frozen: bool,
}

impl NaiveStore {
    fn read(&self, addr: u64) -> u8 {
        self.bytes.get(&addr).copied().unwrap_or(0)
    }

    fn write(&mut self, addr: u64, value: u8) {
        if !self.frozen {
            self.bytes.insert(addr, value);
        }
    }
}

#[derive(Clone, Debug)]
enum Op {
    WriteBytes {
        addr: u64,
        data: Vec<u8>,
    },
    WriteU64 {
        addr: u64,
        value: u64,
    },
    WriteTorn {
        addr: u64,
        data: Vec<u8>,
        persisted: usize,
    },
    ReadBytes {
        addr: u64,
        len: usize,
    },
    ReadU64 {
        addr: u64,
    },
    WriteLine {
        addr: u64,
        data: [u8; LINE],
    },
    ReadLine {
        addr: u64,
    },
    ZeroRange {
        addr: u64,
        len: u64,
    },
    /// Trips the crash valve: later writes are dropped until `OpenValve`.
    CloseValve,
    OpenValve,
}

/// Addresses hug page boundaries (4096) so splits and the last-page cache
/// both get exercised: a small base region plus an offset near a boundary.
fn addr_strategy() -> impl Strategy<Value = u64> {
    (0u64..4, 4050u64..4150).prop_map(|(page, off)| 0x10_0000 + page * 4096 + off - 4050)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (addr_strategy(), prop::collection::vec(any::<u8>(), 1..150))
            .prop_map(|(addr, data)| Op::WriteBytes { addr, data }),
        2 => (addr_strategy(), any::<u64>()).prop_map(|(addr, value)| Op::WriteU64 { addr, value }),
        2 => (addr_strategy(), prop::collection::vec(any::<u8>(), 1..100), 0usize..120)
            .prop_map(|(addr, data, persisted)| Op::WriteTorn { addr, data, persisted }),
        4 => (addr_strategy(), 1usize..150).prop_map(|(addr, len)| Op::ReadBytes { addr, len }),
        2 => addr_strategy().prop_map(|addr| Op::ReadU64 { addr }),
        2 => (addr_strategy(), prop::collection::vec(any::<u8>(), LINE)).prop_map(|(addr, data)| {
            Op::WriteLine { addr, data: data.try_into().expect("one line") }
        }),
        2 => addr_strategy().prop_map(|addr| Op::ReadLine { addr }),
        1 => (addr_strategy(), 1u64..5000).prop_map(|(addr, len)| Op::ZeroRange { addr, len }),
        1 => Just(Op::CloseValve),
        1 => Just(Op::OpenValve),
    ]
}

/// A store with a crash valve attached, open until [`close`] trips it.
fn store_with_valve() -> (PersistentStore, Arc<Mutex<Valve>>, simcore::persist::Probe) {
    let mut store = PersistentStore::new();
    let (valve, probe) = Valve::shared(u64::MAX);
    store.attach_valve(probe.clone());
    (store, valve, probe)
}

/// Trips the valve at the next persist event.
fn close(valve: &Mutex<Valve>, probe: &simcore::persist::Probe) {
    valve.lock().unwrap().rearm(0);
    assert!(!probe.emit(Event::Payload, 0));
    assert!(!probe.is_open());
}

#[test]
fn unwritten_page_reads_zero_through_every_accessor() {
    let (mut store, _, _) = store_with_valve();
    store.write_u64(PAddr(0x10_0000), u64::MAX);
    let fresh = PAddr(0x10_0000 + 7 * 4096);
    assert_eq!(store.read_u64(fresh), 0);
    assert_eq!(store.read_line(fresh), [0; LINE]);
    assert_eq!(store.read_vec(fresh, 100), vec![0; 100]);
    assert_eq!(store.resident_pages(), 1, "reads allocate nothing");
}

#[test]
fn word_at_offset_4092_straddles_two_pages() {
    let (mut store, _, _) = store_with_valve();
    let addr = PAddr(0x10_0000 + 4092);
    store.write_u64(addr, 0x0807_0605_0403_0201);
    assert_eq!(store.resident_pages(), 2);
    assert_eq!(store.read_vec(addr, 8), [1, 2, 3, 4, 5, 6, 7, 8]);
    assert_eq!(store.read_u8(PAddr(0x10_0000 + 4095)), 4);
    assert_eq!(store.read_u8(PAddr(0x10_0000 + 4096)), 5);
    assert_eq!(store.read_u64(addr), 0x0807_0605_0403_0201);
    // A line at the same offset straddles the boundary too.
    let line: [u8; LINE] = std::array::from_fn(|i| i as u8 + 1);
    store.write_line(addr, line);
    assert_eq!(store.read_line(addr), line);
    assert_eq!(store.read_vec(addr, LINE), line);
}

#[test]
fn closed_valve_drops_word_and_line_writes() {
    let (mut store, valve, probe) = store_with_valve();
    store.write_u64(PAddr(0x10_0000), 1);
    close(&valve, &probe);
    store.write_u64(PAddr(0x10_0000), 2);
    store.write_u64(PAddr(0x10_0000 + 4092), 3);
    store.write_line(PAddr(0x10_0000 + 64), [0xFF; LINE]);
    assert_eq!(store.read_u64(PAddr(0x10_0000)), 1);
    assert_eq!(store.read_u64(PAddr(0x10_0000 + 4092)), 0);
    assert_eq!(store.read_line(PAddr(0x10_0000 + 64)), [0; LINE]);
    assert_eq!(store.resident_pages(), 1, "dropped writes allocate nothing");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn store_matches_naive_reference(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let (mut store, valve, probe) = store_with_valve();
        let mut model = NaiveStore::default();

        for op in &ops {
            match op {
                Op::WriteBytes { addr, data } => {
                    store.write_bytes(PAddr(*addr), data);
                    for (i, b) in data.iter().enumerate() {
                        model.write(addr + i as u64, *b);
                    }
                }
                Op::WriteU64 { addr, value } => {
                    store.write_u64(PAddr(*addr), *value);
                    for (i, b) in value.to_le_bytes().iter().enumerate() {
                        model.write(addr + i as u64, *b);
                    }
                }
                Op::WriteTorn { addr, data, persisted } => {
                    let kept = store.write_bytes_torn(PAddr(*addr), data, *persisted);
                    // The documented contract: a word-aligned prefix lands.
                    prop_assert_eq!(kept, (*persisted).min(data.len()) & !7usize);
                    for (i, b) in data[..kept].iter().enumerate() {
                        model.write(addr + i as u64, *b);
                    }
                }
                Op::ReadBytes { addr, len } => {
                    let got = store.read_vec(PAddr(*addr), *len);
                    let want: Vec<u8> = (0..*len as u64).map(|i| model.read(addr + i)).collect();
                    prop_assert_eq!(got, want);
                }
                Op::ReadU64 { addr } => {
                    let got = store.read_u64(PAddr(*addr));
                    let want = u64::from_le_bytes(std::array::from_fn(|i| {
                        model.read(addr + i as u64)
                    }));
                    prop_assert_eq!(got, want);
                }
                Op::WriteLine { addr, data } => {
                    store.write_line(PAddr(*addr), *data);
                    for (i, b) in data.iter().enumerate() {
                        model.write(addr + i as u64, *b);
                    }
                }
                Op::ReadLine { addr } => {
                    let got = store.read_line(PAddr(*addr));
                    let want: [u8; LINE] = std::array::from_fn(|i| model.read(addr + i as u64));
                    prop_assert_eq!(got, want);
                }
                Op::ZeroRange { addr, len } => {
                    store.zero_range(PAddr(*addr), *len);
                    for a in *addr..addr + len {
                        model.write(a, 0);
                    }
                }
                Op::CloseValve => {
                    if probe.is_open() {
                        close(&valve, &probe);
                    }
                    model.frozen = true;
                }
                Op::OpenValve => {
                    valve.lock().unwrap().open_fully();
                    model.frozen = false;
                }
            }
        }

        // Final sweep: every byte the model knows about, plus the
        // surrounding untouched region, must agree.
        let lo = 0x10_0000u64;
        let hi = lo + 5 * 4096;
        let mut buf = vec![0u8; (hi - lo) as usize];
        store.read_bytes(PAddr(lo), &mut buf);
        for (i, got) in buf.iter().enumerate() {
            prop_assert_eq!(*got, model.read(lo + i as u64), "byte {} diverged", lo + i as u64);
        }
    }
}
