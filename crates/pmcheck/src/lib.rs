//! Analysis layer for the HOOP reproduction: the runtime **persistency
//! sanitizer**.
//!
//! The sanitizer ([`PersistencySanitizer`]) is a
//! [`Subscriber`](simcore::persist::Subscriber) of the persist-event
//! stream: attached to a `System` through a
//! [`Probe`](simcore::persist::Probe), it sees every event the machine and
//! its engine emit and checks the paper's crash-consistency ordering
//! invariants (§III-G) against a shadow per-cacheline state machine while a
//! workload runs — commit records may not persist before their payload, GC
//! may not migrate uncommitted versions, mapping entries may not dangle into
//! reclaimed OOP blocks, recovery may replay only the committed prefix. The
//! crash valve is the stream's other subscriber; the sanitizer never vetoes
//! a persist.
//!
//! Its static complement, the determinism and persist-order lint, is the
//! `lintpass` crate; run it via `cargo run -p xtask -- lint`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod sanitizer;
pub mod shadow;

pub use sanitizer::{
    PersistencySanitizer, SanitizerSummary, Violation, ViolationKind, MAX_STORED_VIOLATIONS,
};
pub use shadow::{LineState, ShadowLine};
