//! Benchmark of record for the PRA simulator.
//!
//! `--trace 0` measures what a user of the simulator sees: host seconds per
//! repetition of a workload, set-up time split out, timed-phase simulated
//! memory cycles per host second, peak memory, and the simulated answer.
//! `--trace 1` runs the traced per-layer ledger (see [`ledger`]). Every run
//! is checked against the recorded `state_digest`s.

#![forbid(unsafe_code)]

pub mod gate;
pub mod ledger;
pub mod metrics;
pub mod reference;
pub mod stats;
pub mod workload;
