//! Device models for the hybrid DRAM–NVM main memory.
//!
//! This crate models the *hardware substrate* of the DATE 2016 paper's
//! evaluation:
//!
//! * [`MemoryCharacteristics`] — per-technology latency, dynamic energy, and
//!   static power, with the exact Table IV constants used by both this paper
//!   and CLOCK-DWF ([`MemoryCharacteristics::dram_date2016`],
//!   [`MemoryCharacteristics::pcm_date2016`]);
//! * [`DiskCharacteristics`] — the 5 ms HDD of Table II;
//! * [`MemoryModule`] — a DRAM or NVM module that accounts every access
//!   (latency, energy, and *why* the access happened: demand request, page
//!   fault fill, or migration traffic);
//! * [`MigrationEngine`] — the DMA page-move cost model: moving a 4 KB page
//!   costs [`PAGE_FACTOR`](hybridmem_types::PAGE_FACTOR) reads of the source
//!   plus as many writes of the destination (Eqs. 1–2, last two terms);
//! * [`WearTracker`] — per-page NVM write counters for the endurance
//!   analysis (Fig. 2c / Fig. 4b) and lifetime estimation;
//! * [`StartGapLeveler`] — optional Start-Gap wear leveling under the NVM
//!   module, for the `ext_wear_leveling` extension experiment.
//!
//! # Examples
//!
//! ```
//! use hybridmem_device::{AccessSource, MemoryCharacteristics, MemoryModule};
//! use hybridmem_types::{AccessKind, MemoryKind, PageCount};
//!
//! let mut nvm = MemoryModule::new(
//!     MemoryKind::Nvm,
//!     PageCount::new(1024),
//!     MemoryCharacteristics::pcm_date2016(),
//! );
//! let cost = nvm.record_access(AccessKind::Write, AccessSource::Request);
//! assert_eq!(cost.latency.value(), 350.0); // Table IV: PCM write = 350 ns
//! assert_eq!(cost.energy.value(), 32.0);   // Table IV: PCM write = 32 nJ
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

mod characteristics;
mod dma;
mod endurance;
mod module;
mod wear_leveling;

pub use characteristics::{DiskCharacteristics, MemoryCharacteristics};
pub use dma::{MigrationEngine, PageMoveCost};
pub use endurance::{LifetimeEstimate, WearHistogram, WearTracker, DEFAULT_PCM_CELL_ENDURANCE};
pub use module::{AccessCost, AccessSource, MemoryModule, ModuleStats, SourceStats};
pub use wear_leveling::StartGapLeveler;
