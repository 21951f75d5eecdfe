//! Synthetic, PARSEC-calibrated memory-trace generation for the hybrid
//! DRAM–NVM simulator.
//!
//! The DATE 2016 paper drives its evaluation with PARSEC-3.0 memory traces
//! collected via the COTSon full-system simulator — neither of which can be
//! shipped with this repository. This crate substitutes a **deterministic
//! synthetic generator** calibrated to everything the paper documents about
//! those traces (see `DESIGN.md`, "Substitutions"):
//!
//! * [`WorkloadSpec`] / [`LocalityParams`] / [`PhaseParams`] — the
//!   statistical shape of a workload (footprint, volume, read/write mix,
//!   reuse, streaming, burst phases, per-page write affinity);
//! * [`parsec`] — the 12 Table III workload profiles;
//! * [`TraceGenerator`] — the seeded generator (an [`Iterator`] over
//!   [`Access`](hybridmem_types::Access)es);
//! * [`TraceStats`] — measurements used to regenerate Table III;
//! * [`io`] — text and binary trace formats for interoperability;
//! * [`binfmt`] — the fixed-record page-trace format the trace cache
//!   spills to for zero-copy cached replay.
//!
//! The reuse-distance analysis that calibrates the profiles is
//! `hybridmem_policy::ReuseProfile`: it runs on the policies' own LRU
//! queue.
//!
//! # Examples
//!
//! ```
//! use hybridmem_trace::{parsec, TraceGenerator, TraceStats};
//!
//! // A scaled-down canneal trace, deterministic in the seed.
//! let spec = parsec::spec("canneal")?.capped(20_000);
//! let stats: TraceStats = TraceGenerator::new(spec.clone(), 42).collect();
//! assert_eq!(stats.total(), spec.total_accesses());
//! assert!(stats.read_ratio() > 0.9, "canneal is read-dominant");
//! # Ok::<(), hybridmem_types::Error>(())
//! ```

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

pub mod binfmt;
mod generator;
pub mod io;
pub mod parsec;
mod stats;
mod workload;

pub use generator::TraceGenerator;
pub use stats::TraceStats;
pub use workload::{LocalityParams, PhaseParams, WorkloadSpec, WorkloadSpecBuilder};
