//! Device constants for the hybrid DRAM–NVM main memory.
//!
//! This crate holds the *hardware substrate* of the DATE 2016 paper's
//! evaluation as data, not as bookkeeping:
//!
//! * [`MemoryCharacteristics`] — per-technology latency, dynamic energy, and
//!   static power, with the exact Table IV constants used by both this paper
//!   and CLOCK-DWF ([`MemoryCharacteristics::dram_date2016`],
//!   [`MemoryCharacteristics::pcm_date2016`]);
//! * [`DiskCharacteristics`] — the 5 ms HDD of Table II;
//! * [`WearTracker`] — per-page NVM write counters for the endurance
//!   analysis (Fig. 2c / Fig. 4b);
//! * [`StartGapLeveler`] — optional Start-Gap wear leveling under the NVM
//!   module, for the `ext_wear_leveling` extension experiment.
//!
//! The simulator in `hybridmem-core` counts events and prices the counts
//! once, through these constants and
//! [`PAGE_FACTOR`](hybridmem_types::PAGE_FACTOR), in `core::model`.
//!
//! # Examples
//!
//! ```
//! use hybridmem_device::MemoryCharacteristics;
//! use hybridmem_types::PAGE_FACTOR;
//!
//! let pcm = MemoryCharacteristics::pcm_date2016();
//! assert_eq!(pcm.write_latency.value(), 350.0); // Table IV: PCM write = 350 ns
//! assert_eq!(pcm.write_energy.value(), 32.0); // Table IV: PCM write = 32 nJ
//! // Filling a 4 KB page writes PAGE_FACTOR accesses' worth of PCM.
//! let fill = pcm.write_energy * PAGE_FACTOR as f64;
//! assert_eq!(fill.value(), 16_384.0);
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
mod endurance;
mod wear_leveling;

pub use characteristics::{DiskCharacteristics, MemoryCharacteristics};
pub use endurance::{WearTracker, DEFAULT_PCM_CELL_ENDURANCE};
pub use wear_leveling::StartGapLeveler;
