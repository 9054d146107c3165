//! Property tests for the binary trace format.
//!
//! Three properties over arbitrary well-formed traces, and three of the
//! checksum alone:
//!
//! 1. **Lossless round-trip**: encode → decode reproduces the `TraceFile`
//!    exactly, with every transaction at its exact length (and re-encoding
//!    is byte-stable — the encoder is canonical).
//! 2. **Truncation safety**: cutting the byte stream at *any* length yields
//!    a `TraceError`, never a panic — a half-written pack must fail loudly.
//! 3. **Corruption safety**: flipping any single byte, header included, is
//!    caught by the magic, version, reserved-field or checksum check (or by
//!    record validation), again as an error, never a panic.
//! 4. **The checksum sees every byte**: on bodies of 0–4 KiB, and on every
//!    length from 0 to 70 (each tail length around the 32-byte stripe),
//!    flipping any one byte changes [`checksum`] itself, whatever the
//!    parser would make of the bytes.
//! 5. **Known answers** pin the function, so a silent change to it fails.
//!
//! The strategies are written against the workspace's in-tree proptest shim
//! (integer ranges, tuples, `vec`, `prop_map`, `prop_oneof` — no flat-map),
//! so shapes are generated at a fixed maximum and cut down in a final map.

use proptest::prelude::*;
use trace::format::checksum;
use trace::{Event, TraceFile, TraceHeader, TraceReader};
use workloads::spec::{WorkloadKind, WorkloadSpec};

const MAX_WORKERS: usize = 4;
const MAX_TXS: usize = 3;

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (
        0usize..WorkloadKind::ALL.len(),
        1u64..=4096,
        1u64..=1 << 20,
        any::<u64>(),
        (0u32..=1000, 0u32..=1000),
    )
        .prop_map(
            |(kind, item_bytes, items, seed, (zipf, update))| WorkloadSpec {
                kind: WorkloadKind::ALL[kind],
                item_bytes,
                items,
                seed,
                zipf_theta: f64::from(zipf) / 1000.0,
                update_fraction: f64::from(update) / 1000.0,
            },
        )
}

/// A transaction body event (core is rewritten to the owning stream later).
fn arb_body_event() -> impl Strategy<Value = Event> {
    prop_oneof![
        (any::<u64>(), prop::collection::vec(any::<u8>(), 1..64)).prop_map(|(addr, data)| {
            Event::Store {
                core: 0,
                addr,
                data: data.into(),
            }
        }),
        (any::<u64>(), 1u32..4096).prop_map(|(addr, len)| Event::StoreShape { core: 0, addr, len }),
        (any::<u64>(), 1u32..4096).prop_map(|(addr, len)| Event::Load { core: 0, addr, len }),
    ]
}

/// A complete transaction: `TxBegin`, a few body events, `TxEnd`.
fn arb_tx() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec(arb_body_event(), 0..6).prop_map(|body| {
        let mut tx = vec![Event::TxBegin { core: 0 }];
        tx.extend(body);
        tx.push(Event::TxEnd { core: 0 });
        tx
    })
}

/// A setup section: `Init` seeding (value-carrying or elided) interleaved
/// with complete setup-time transactions, flattened in issue order.
fn arb_setup() -> impl Strategy<Value = Vec<Event>> {
    let init = (any::<u64>(), 1u32..128, any::<bool>()).prop_map(|(addr, len, values)| {
        vec![Event::Init {
            addr,
            len,
            data: if values {
                vec![0xAB; len as usize].into()
            } else {
                Box::default()
            },
        }]
    });
    prop::collection::vec(prop_oneof![init.boxed(), arb_tx().boxed()], 0..8)
        .prop_map(|chunks| chunks.into_iter().flatten().collect())
}

fn set_core(ev: &mut Event, c: u8) {
    match ev {
        Event::TxBegin { core }
        | Event::TxEnd { core }
        | Event::Store { core, .. }
        | Event::StoreShape { core, .. }
        | Event::Load { core, .. } => *core = c,
        Event::Init { .. } => {}
    }
}

fn arb_trace() -> impl Strategy<Value = TraceFile> {
    (
        1usize..=MAX_WORKERS,
        0usize..=MAX_TXS,
        arb_spec(),
        prop::collection::vec(0u8..26, 1..16),
        arb_setup(),
        prop::collection::vec(
            prop::collection::vec(arb_tx(), MAX_TXS..=MAX_TXS),
            MAX_WORKERS..=MAX_WORKERS,
        ),
    )
        .prop_map(|(workers, txs_per_core, spec, label, setup, streams)| {
            let per_core: Vec<Vec<Vec<Event>>> = streams
                .into_iter()
                .take(workers)
                .enumerate()
                .map(|(c, txs)| {
                    txs.into_iter()
                        .take(txs_per_core)
                        .map(|mut tx| {
                            for ev in &mut tx {
                                set_core(ev, c as u8);
                            }
                            tx
                        })
                        .collect()
                })
                .collect();
            TraceFile {
                header: TraceHeader {
                    label: label.iter().map(|b| char::from(b'a' + b)).collect(),
                    spec,
                    workers: workers as u8,
                    txs_per_core: txs_per_core as u32,
                },
                setup,
                per_core,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encode_decode_roundtrips(trace in arb_trace()) {
        let bytes = trace.encode();
        let decoded = TraceReader::decode(&bytes).expect("well-formed trace decodes");
        prop_assert_eq!(&decoded, &trace);
        // Every decoded transaction is held at its exact length.
        for tx in decoded.per_core.iter().flatten() {
            prop_assert_eq!(tx.capacity(), tx.len());
        }
        // Re-encoding is byte-stable (the encoder is canonical).
        prop_assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn truncation_at_any_length_errors_cleanly(trace in arb_trace(), cut_pick in any::<u64>()) {
        let bytes = trace.encode();
        let cut = (cut_pick % bytes.len() as u64) as usize;
        // Must return an error — never panic, never succeed on a prefix.
        prop_assert!(TraceReader::decode(&bytes[..cut]).is_err());
    }

    #[test]
    fn single_byte_corruption_errors_cleanly(
        trace in arb_trace(),
        pos_pick in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = trace.encode();
        let pos = (pos_pick % bytes.len() as u64) as usize;
        bytes[pos] ^= flip;
        prop_assert!(TraceReader::decode(&bytes).is_err(), "flip at byte {} decoded", pos);
    }

    #[test]
    fn checksum_changes_on_any_byte_flip(
        body in prop::collection::vec(any::<u8>(), 1..=4096),
        pos_pick in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let pos = (pos_pick % body.len() as u64) as usize;
        let mut flipped = body.clone();
        flipped[pos] ^= flip;
        prop_assert!(checksum(&body) != checksum(&flipped), "flip at byte {}", pos);
    }

    #[test]
    fn checksum_changes_at_every_tail_length(
        body in prop::collection::vec(any::<u8>(), 70..=70),
        pos_pick in any::<u64>(),
        flip in 1u8..=255,
    ) {
        for len in 1..=body.len() {
            let pos = (pos_pick % len as u64) as usize;
            let mut flipped = body[..len].to_vec();
            flipped[pos] ^= flip;
            prop_assert!(checksum(&body[..len]) != checksum(&flipped), "length {}", len);
        }
    }
}

/// The empty body has a checksum too, distinct from every one-byte body.
#[test]
fn checksum_of_empty_and_one_byte_bodies_differ() {
    let empty = checksum(&[]);
    for b in 0..=255u8 {
        assert_ne!(checksum(&[b]), empty, "byte {b:#04x}");
    }
}

/// Published xxHash64 (seed 0) answers, one per code path: the empty
/// input, a short input (tail bytes only) and a 39-byte input (one
/// 32-byte stripe, then a 4-byte word and 3 tail bytes). A 136-byte
/// pattern covers four stripes and an 8-byte tail word; its answer is
/// this implementation's own, pinned.
#[test]
fn checksum_known_answers() {
    assert_eq!(checksum(b""), 0xef46_db37_51d8_e999);
    assert_eq!(checksum(b"abc"), 0x44bc_2cf5_ad77_0999);
    assert_eq!(
        checksum(b"Nobody inspects the spammish repetition"),
        0xfbce_a83c_8a37_8bf1
    );
    let pattern: Vec<u8> = (0..=135u8).map(|i| i.wrapping_mul(37)).collect();
    assert_eq!(checksum(&pattern), 0x85d4_ea78_1cca_0d57);
}
