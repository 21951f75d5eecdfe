//! # hybridmem
//!
//! A complete, from-scratch reproduction of *"An Operating System Level
//! Data Migration Scheme in Hybrid DRAM-NVM Memory Architecture"*
//! (Salkhordeh & Asadi, DATE 2016): an OS-level page-migration policy for
//! hybrid DRAM+NVM main memories, the CLOCK-DWF baseline it is compared
//! against, the analytical performance/power/endurance models, and every
//! substrate needed to regenerate the paper's figures — a PARSEC-calibrated
//! trace generator, a multi-core cache-hierarchy simulator, and
//! DRAM/PCM/disk device models.
//!
//! This crate is a facade: it re-exports the workspace crates under stable
//! names. Depend on it to get everything, or on the individual
//! `hybridmem-*` crates for narrower builds.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`types`] | `hybridmem-types` | ids, access/memory vocabulary, quantities |
//! | [`trace`] | `hybridmem-trace` | workload specs, PARSEC profiles, generator, trace I/O |
//! | [`cachesim`] | `hybridmem-cachesim` | Table II cache hierarchy (COTSon substitute) |
//! | [`device`] | `hybridmem-device` | Table IV DRAM/PCM models, DMA, endurance |
//! | [`policy`] | `hybridmem-policy` | two-LRU scheme, CLOCK-DWF, baselines, adaptive extension |
//! | [`sim`] | `hybridmem-core` | simulator, Eq. 1–3 models, experiment runners |
//! | [`metrics`] | `hybridmem-metrics` | deterministic counters/gauges/histograms for telemetry |
//!
//! # Quickstart
//!
//! ```
//! use hybridmem::sim::{ExperimentConfig, PolicyKind};
//! use hybridmem::trace::parsec;
//!
//! // Evaluate the proposed scheme against CLOCK-DWF on a scaled-down
//! // PARSEC bodytrack trace, exactly per the paper's methodology.
//! let spec = parsec::spec("bodytrack")?.capped(10_000);
//! let config = ExperimentConfig::default();
//! let reports = config.compare(&spec, &[PolicyKind::TwoLru, PolicyKind::ClockDwf])?;
//! assert_eq!(reports[0].policy, "two-lru");
//! assert!(reports.iter().all(|r| r.amat().value() > 0.0));
//! # Ok::<(), hybridmem::types::Error>(())
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

pub use hybridmem_cachesim as cachesim;
pub use hybridmem_core as sim;
pub use hybridmem_device as device;
pub use hybridmem_metrics as metrics;
pub use hybridmem_policy as policy;
pub use hybridmem_trace as trace;
pub use hybridmem_types as types;
