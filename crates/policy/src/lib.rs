//! Page-placement and migration policies for hybrid DRAM–NVM main memory.
//!
//! This crate implements every policy evaluated in *"An Operating System
//! Level Data Migration Scheme in Hybrid DRAM-NVM Memory Architecture"*
//! (Salkhordeh & Asadi, DATE 2016):
//!
//! * [`TwoLruPolicy`] — **the paper's contribution**: two unmodified LRU
//!   queues with threshold-gated, windowed promotion counters (Algorithm 1);
//! * [`ClockDwfPolicy`] — the CLOCK-DWF state-of-the-art baseline;
//! * [`ClockProPolicy`] — a hybrid adaptation of CLOCK-Pro, the prior
//!   baseline CLOCK-DWF was shown to beat;
//! * [`DramCachePolicy`] — the DRAM-as-a-cache organization of the other
//!   branch of related work the paper surveys;
//! * [`SingleTierPolicy`] — DRAM-only and NVM-only LRU baselines used for
//!   normalization ([`SingleTierClockPolicy`] is the CLOCK-managed
//!   equivalent);
//! * [`AdaptiveTwoLruPolicy`] — the adaptive-threshold extension the paper
//!   lists as future work;
//!
//! plus the data structures they are built on:
//!
//! * [`RankedLru`] — an LRU queue with O(log n) recency-rank queries and
//!   per-entry metadata (two-LRU's counters, dram-cache's dirty bits);
//! * [`LinkedLru`] — an O(1) intrusive-list LRU queue for rank-free tiers;
//! * [`ClockRing`] — a CLOCK (second-chance) ring with per-frame metadata.
//!
//! Each of them finds a page through a [`PageTable`](hybridmem_types::PageTable):
//! an array index for the dense page ids of synthetic traces, a hash
//! lookup for the sparse ids of imported ones.
//!
//! Policies are pure bookkeeping: they decide *what happens* to pages and
//! report it as [`PolicyAction`]s; charging latency, energy, and wear
//! against device models is `hybridmem-core`'s job. All policies implement
//! the object-safe [`HybridPolicy`] trait.
//!
//! # Examples
//!
//! ```
//! use hybridmem_policy::{HybridPolicy, TwoLruConfig, TwoLruPolicy};
//! use hybridmem_types::{PageAccess, PageCount, PageId};
//!
//! let config = TwoLruConfig::new(PageCount::new(10), PageCount::new(90))?;
//! let mut policy = TwoLruPolicy::new(config);
//! let outcome = policy.on_access(PageAccess::write(PageId::new(42)));
//! assert!(outcome.fault, "first touch faults in from disk");
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

mod adaptive;
mod clock;
mod clock_dwf;
mod clock_pro;
mod dram_cache;
mod lru;
mod single;
mod single_clock;
mod traits;
mod two_lru;

pub use adaptive::{AdaptiveConfig, AdaptiveStats, AdaptiveTwoLruPolicy};
pub use clock::ClockRing;
pub use clock_dwf::ClockDwfPolicy;
pub use clock_pro::ClockProPolicy;
pub use dram_cache::DramCachePolicy;
pub use lru::{LinkedLru, RankedLru};
pub use single::SingleTierPolicy;
pub use single_clock::SingleTierClockPolicy;
pub use traits::{
    AccessOutcome, ActionList, BatchOutcomes, BatchStep, CounterKind, HybridPolicy,
    NvmCounterProbe, PolicyAction, MAX_ACTIONS_PER_ACCESS,
};
pub use two_lru::{TwoLruConfig, TwoLruPolicy, TwoLruStats};
