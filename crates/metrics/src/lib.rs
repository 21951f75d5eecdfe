//! Deterministic metrics primitives for the hybridmem observability layer.
//!
//! Every instrumented subsystem — the simulator's windowed event collector,
//! the [`TraceCache`](../hybridmem_core/struct.TraceCache.html), the
//! parallel matrix scheduler, and the two-LRU policy's counter windows —
//! reports through the same three primitives, keyed by `&'static str`
//! names:
//!
//! * **counters** — monotone `u64` event tallies (`sim.faults`,
//!   `trace_cache.hits`, …);
//! * **gauges** — point-in-time `f64` levels (`sim.dram_occupancy`, …);
//! * **histograms** — log2-bucketed `u64` distributions
//!   ([`Histogram`]; `scheduler.cell_micros`, …).
//!
//! The crate's only dependency is the workspace's own JSON writer, and it is fully
//! deterministic: all storage is `BTreeMap`-backed, so iteration and
//! serialization order depend only on the metric names, never on insertion
//! history or hasher state (`clippy.toml` bans the randomly keyed std
//! hash collections workspace-wide). There is no global
//! registry, no wall-clock, and no interior mutability: a
//! [`MetricsRegistry`] is a plain value owned by whoever is measuring, and
//! a [`MetricsSnapshot`] is its serializable export.
//!
//! The one deliberate exception is the [`span`] module — a wall-clock
//! [`SpanProfiler`] for harness phases (scheduling, trace
//! materialization, warmup) with Chrome trace-event export for Perfetto.
//! Its output sits outside the determinism boundary: it never feeds back
//! into simulation results, and every `Instant::now` call site carries its
//! own reasoned `#[expect(clippy::disallowed_methods)]`.
//! The [`process`] module (peak-RSS introspection for perfbench) sits
//! outside that boundary for the same reason.
//!
//! # Examples
//!
//! ```
//! use hybridmem_metrics::MetricsRegistry;
//!
//! let mut registry = MetricsRegistry::new();
//! registry.add("sim.faults", 3);
//! registry.inc("sim.faults");
//! registry.set_gauge("sim.dram_occupancy", 12.0);
//! registry.observe("sim.window.faults", 3);
//!
//! assert_eq!(registry.counter("sim.faults"), 4);
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counters["sim.faults"], 4);
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
#![cfg_attr(
    not(test),
    warn(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap,
        clippy::cast_lossless,
        clippy::float_cmp
    )
)]
#![warn(missing_docs)]

mod histogram;
pub mod process;
mod registry;
pub mod span;

pub use histogram::{BucketCount, Histogram, HistogramSnapshot};
pub use process::peak_rss_bytes;
pub use registry::{MetricsRegistry, MetricsSnapshot};
pub use span::{SpanGuard, SpanProfiler, SpanRecord};
