//! Workload trace record/replay: split generation from simulation.
//!
//! Workload generation (transaction synthesis, Zipfian draws, shadow-model
//! bookkeeping) costs host time that every figure binary pays once per
//! *cell* — seven times per grid row, once per engine — even though the
//! generated stream is identical for every engine in the row. This crate
//! records a workload **once** into a compact, schema-versioned binary
//! [`format`] and replays it into any engine, amortizing generation 7x and
//! turning traces into cacheable CI artifacts (the committed quick-scale
//! pack under `traces/`).
//!
//! The determinism contract (DESIGN.md §11) is byte-identity: replaying a
//! trace into an engine produces the same `results/*.json` bytes as live
//! generation with the same identity-derived seed. Two properties make that
//! work:
//!
//! 1. **Per-core streams are engine-independent.** Each worker core's
//!    workload instance owns private data and a private RNG fork, so the
//!    sequence of transactions *on that core* never depends on how cores
//!    interleave — and interleaving is the only thing engine timing moves.
//!    [`record`] therefore captures one stream per core, on a capture-only
//!    machine that skips simulation entirely.
//! 2. **Replay re-runs the scheduler, not the recorded order.** The live
//!    driver always advances the core with the smallest simulated clock;
//!    [`replay`] does exactly the same, pulling the next recorded
//!    transaction of whichever core the clocks select. Since simulated time
//!    is deterministic, the replayed interleaving reproduces the live one
//!    for every engine, bit for bit.
//!
//! The event vocabulary is [`Event`], defined next to the machine that
//! captures it (`engines::trace`) and re-exported here. Store payloads are
//! elided by default ([`Event::StoreShape`]): simulated metrics depend on
//! addresses and lengths, never on payload bytes, and eliding them keeps
//! the committed pack small. Recording with values (`values = true`) keeps
//! the bytes for a harness that needs real memory images, such as the
//! cross-engine recovered-image check in `tests/trace_replay.rs`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod format;
pub mod record;
pub mod replay;

pub use format::{Event, TraceError, TraceFile, TraceHeader, TraceReader, TRACE_FORMAT_VERSION};
pub use record::{default_txs_per_core, record_workload, RecordOptions};
pub use replay::{replay, replay_cell, ReplayWindow};
