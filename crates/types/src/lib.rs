//! Core vocabulary types shared by every `hybridmem` crate.
//!
//! This crate defines the small, dependency-light building blocks of the
//! hybrid DRAM–NVM memory simulator that reproduces *"An Operating System
//! Level Data Migration Scheme in Hybrid DRAM-NVM Memory Architecture"*
//! (Salkhordeh & Asadi, DATE 2016):
//!
//! * identifier newtypes — [`Address`], [`PageId`], [`CoreId`] — that keep
//!   byte addresses, page numbers, and CPU cores statically distinct;
//! * the memory-access vocabulary — [`AccessKind`], [`Access`],
//!   [`PageAccess`] — used by trace generators, the cache simulator, and the
//!   page-migration policies;
//! * the memory-tier vocabulary — [`MemoryKind`], [`Residency`] — naming the
//!   DRAM and NVM modules and where a page currently lives;
//! * physical-quantity newtypes — [`Nanoseconds`], [`Nanojoules`] — so
//!   latency and energy cannot be accidentally mixed;
//! * geometry constants and helpers — [`PAGE_SIZE`], [`page_of`] — for the
//!   4 KB pages the paper assumes;
//! * the seeded generator [`StdRng`] behind every synthetic trace;
//! * [`PageTable`], the page-indexed map behind every policy queue;
//! * the shared [`Error`] type returned by fallible constructors.
//!
//! # Examples
//!
//! ```
//! use hybridmem_types::{Access, AccessKind, Address, CoreId, page_of, PAGE_SIZE};
//!
//! let access = Access::new(
//!     Address::new(2 * PAGE_SIZE as u64 + 16),
//!     AccessKind::Write,
//!     CoreId::new(0),
//! );
//! assert_eq!(page_of(access.address).value(), 2);
//! assert!(access.kind.is_write());
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

mod access;
mod error;
mod hash;
mod ids;
mod memory;
mod page_table;
mod quantity;
mod rng;
mod sizes;

pub use access::{Access, AccessKind, PageAccess};
pub use error::{Error, Result};
pub use hash::{fx_hash_one, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{Address, CoreId, PageId};
pub use memory::{MemoryKind, Residency};
pub use page_table::PageTable;
pub use quantity::{Nanojoules, Nanoseconds};
pub use rng::{for_each_case, StdRng};
pub use sizes::{page_of, PageCount, ACCESS_GRANULARITY, PAGE_FACTOR, PAGE_SIZE};
