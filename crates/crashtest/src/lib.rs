//! Deterministic crash-point fault injection with an atomic-durability
//! oracle.
//!
//! The simulator's engines emit every durable action once into a
//! persist-event [`Probe`](simcore::persist::Probe). This crate subscribes
//! an armed crash [`Valve`](simcore::persist::Valve) to that stream (the
//! sanitizer is the stream's other subscriber): it drives a fully known
//! [workload](workload) to a chosen index among the events that carry a
//! crash-point kind, truncates durability there, runs the engine's
//! recovery, and checks the recovered
//! image against an [oracle](oracle) that knows exactly which transactions'
//! commit records survived — so *every* crash point of *every* engine can
//! be proven survivable (or shrunk to a minimal failing reproducer).
//!
//! Three exploration modes (see [`drivers`]): exhaustive over every event
//! index of a small workload, seeded-random sampling at full scale, and
//! nested crashes that interrupt recovery itself. [`fixtures`] holds two
//! deliberately broken engines the pipeline must convict — the negative
//! controls that keep the harness honest.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod drivers;
pub mod fixtures;
pub mod harness;
pub mod oracle;
pub mod workload;
