//! Trace-driven multi-core cache hierarchy simulator — the COTSon
//! substitute of this reproduction.
//!
//! The paper obtains its main-memory traces by running PARSEC inside the
//! COTSon full-system simulator "since the multi-level caches in CPU affect
//! the distribution of accesses dispatched to the main memory". This crate
//! plays exactly that role for synthetic CPU traces:
//!
//! * [`CacheGeometry`] / [`CotsonConfig`] — cache configuration, with the
//!   Table II quad-core setup as [`CotsonConfig::date2016`];
//! * [`SetAssociativeCache`] — one write-back/write-allocate LRU cache;
//! * [`CacheHierarchy`] — per-core L1 data caches over a shared LLC with
//!   write-invalidate coherence;
//! * [`filter_to_memory_trace`] — the one-call pipeline from a CPU access
//!   stream to the page-granular main-memory trace consumed by
//!   `hybridmem-policy` / `hybridmem-core`.
//!
//! # Examples
//!
//! ```
//! use hybridmem_cachesim::{filter_to_memory_trace, CotsonConfig};
//! use hybridmem_trace::{parsec, TraceGenerator};
//!
//! let spec = parsec::spec("ferret")?.capped(5_000);
//! let (memory_trace, stats) = filter_to_memory_trace(
//!     TraceGenerator::new(spec, 7),
//!     CotsonConfig::date2016(),
//! )?;
//! assert!(stats.l1.hit_ratio() > 0.0);
//! assert!(memory_trace.len() < 5_000);
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

mod cache;
mod config;
mod hierarchy;

pub use cache::{CacheAccessResult, CacheStats, EvictedLine, SetAssociativeCache};
pub use config::{CacheGeometry, CotsonConfig};
pub use hierarchy::{filter_to_memory_trace, CacheHierarchy, HierarchyStats, MemoryEvent};
