//! # tsrbench
//!
//! The TSR benchmark: builds a store-backed `TsrService` on a loopback
//! port, drives one workload through the public `/v1` API, checks every
//! response, and reports end-to-end metrics — or, in the traced run,
//! per-layer metrics from spans recorded around calls into each crate.
//!
//! Run `cargo run --release --manifest-path tsrbench/Cargo.toml -- --help`
//! from the repository root for usage.

pub mod args;
pub mod check;
pub mod fleet;
pub mod layers;
pub mod operator;
pub mod plan;
pub mod run;
pub mod stats;
pub mod trace;
pub mod world;
