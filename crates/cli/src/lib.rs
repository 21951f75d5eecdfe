//! Implementation of the `hybridmem` command-line interface.
//!
//! Subcommands (see [`run`]):
//!
//! * `list` — available workloads and policies;
//! * `generate` — write a PARSEC-calibrated (or custom-seeded) trace file;
//! * `characterize` — Table III-style statistics of a trace file;
//! * `simulate` — run a policy over a trace file and print/emit the report;
//! * `compare` — run several policies over the same trace side by side.
//!
//! The logic lives in this library crate so it is unit-testable; `main.rs`
//! is a thin shim.

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::panic,
        clippy::wildcard_enum_match_arm
    )
)]
#![warn(missing_docs)]

mod args;
mod commands;

pub use args::Args;
pub use commands::{run, USAGE};
