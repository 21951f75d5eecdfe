//! Start-Gap wear leveling (Qureshi et al., MICRO 2009) — the standard
//! low-overhead PCM wear-leveling technique, provided as an optional layer
//! under the NVM module.
//!
//! The paper's endurance analysis assumes no wear leveling (lifetime is
//! bounded by the hottest page); this module quantifies how much of the
//! proposed scheme's lifetime advantage survives once the device levels
//! wear on its own — an extension experiment (`ext_wear_leveling`).
//!
//! # Algorithm
//!
//! `N` logical pages are stored in `N + 1` physical frames; one frame is a
//! *gap*. Every `gap_interval` writes, the page adjacent to the gap moves
//! into it, rotating the gap one slot; after `N + 1` gap moves every page
//! has shifted by one frame (`start` advances). The logical→physical map is
//! a pure function of `(start, gap)`, so the remap table is two counters.
//!
//! # Examples
//!
//! ```
//! use hybridmem_device::StartGapLeveler;
//! use hybridmem_types::PageId;
//!
//! let mut leveler = StartGapLeveler::new(8, 4)?;
//! let before = leveler.physical_frame(PageId::new(3));
//! // Drive enough writes for several gap movements.
//! for _ in 0..64 {
//!     leveler.record_write();
//! }
//! assert!(leveler.gap_moves() > 0);
//! let after = leveler.physical_frame(PageId::new(3));
//! assert_ne!(before, after, "the mapping rotates over time");
//! # Ok::<(), hybridmem_types::Error>(())
//! ```

use hybridmem_types::{Error, PageId, Result};

/// A Start-Gap address-rotation wear leveler over `pages` logical pages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StartGapLeveler {
    pages: u64,
    /// Number of completed full rotations of the gap (each advances the
    /// effective start position by one frame).
    start: u64,
    /// Physical frame currently serving as the gap, in `0..=pages`.
    gap: u64,
    /// Writes observed since the last gap movement.
    writes_since_move: u64,
    /// Gap moves per this many writes.
    gap_interval: u64,
    gap_moves: u64,
    total_writes: u64,
}

impl StartGapLeveler {
    /// Creates a leveler for `pages` logical pages that rotates the gap
    /// every `gap_interval` writes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `pages` or `gap_interval` is
    /// zero.
    pub fn new(pages: u64, gap_interval: u64) -> Result<Self> {
        if pages == 0 {
            return Err(Error::invalid_config(
                "wear leveling needs at least one page",
            ));
        }
        if gap_interval == 0 {
            return Err(Error::invalid_config("gap interval must be positive"));
        }
        Ok(Self {
            pages,
            start: 0,
            gap: pages, // the spare frame starts as the gap
            writes_since_move: 0,
            gap_interval,
            gap_moves: 0,
            total_writes: 0,
        })
    }

    /// Number of logical pages managed.
    #[must_use]
    pub const fn pages(&self) -> u64 {
        self.pages
    }

    /// Total gap movements so far (each costs one physical page copy).
    #[must_use]
    pub const fn gap_moves(&self) -> u64 {
        self.gap_moves
    }

    /// Total writes observed.
    #[must_use]
    pub const fn total_writes(&self) -> u64 {
        self.total_writes
    }

    /// The physical frame (in `0..=pages`) currently holding `page`.
    ///
    /// # Panics
    ///
    /// Panics when `page` is outside the managed range.
    #[must_use]
    pub fn physical_frame(&self, page: PageId) -> u64 {
        assert!(
            page.value() < self.pages,
            "page {page} outside the {} managed pages",
            self.pages
        );
        // Start-Gap (Qureshi et al.): base = (LA + Start) mod N lands in
        // [0, N-1]; frames at or past the gap shift up by one, so the image
        // is [0, N] minus the gap frame — injective by construction.
        let base = (page.value() + self.start) % self.pages;
        if base >= self.gap {
            base + 1
        } else {
            base
        }
    }

    /// Records one physical write; every `gap_interval` writes the gap
    /// rotates. Returns the number of extra page copies performed (0 or 1)
    /// so callers can charge the remapping traffic.
    pub fn record_write(&mut self) -> u64 {
        self.total_writes += 1;
        self.writes_since_move += 1;
        if self.writes_since_move < self.gap_interval {
            return 0;
        }
        self.writes_since_move = 0;
        self.gap_moves += 1;
        // Move the gap down one frame (the page above it copies into it).
        if self.gap == 0 {
            self.gap = self.pages;
            // A full rotation completed: every page has shifted by one.
            self.start = (self.start + 1) % self.pages;
        } else {
            self.gap -= 1;
        }
        1
    }

    /// Write amplification introduced by the gap movements:
    /// `(writes + moves × PageFactor_equivalent) / writes`, expressed with
    /// moves as single page copies. Returns 1.0 before any writes.
    #[must_use]
    pub fn write_amplification(&self) -> f64 {
        if self.total_writes == 0 {
            return 1.0;
        }
        (self.total_writes + self.gap_moves) as f64 / self.total_writes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn rejects_degenerate_configs() {
        assert!(StartGapLeveler::new(0, 4).is_err());
        assert!(StartGapLeveler::new(4, 0).is_err());
    }

    #[test]
    fn mapping_is_injective_at_all_times() {
        let mut leveler = StartGapLeveler::new(16, 1).unwrap();
        for _ in 0..200 {
            let frames: BTreeSet<u64> = (0..16)
                .map(|p| leveler.physical_frame(PageId::new(p)))
                .collect();
            assert_eq!(frames.len(), 16, "mapping must stay injective");
            assert!(frames.iter().all(|&f| f <= 16));
            assert!(
                !frames.contains(&leveler.gap),
                "no page may map onto the gap frame"
            );
            leveler.record_write();
        }
    }

    #[test]
    fn gap_rotates_every_interval() {
        let mut leveler = StartGapLeveler::new(8, 4).unwrap();
        for i in 1..=16u64 {
            let moved = leveler.record_write();
            assert_eq!(moved, u64::from(i % 4 == 0));
        }
        assert_eq!(leveler.gap_moves(), 4);
        assert_eq!(leveler.total_writes(), 16);
    }

    #[test]
    fn full_rotation_advances_start() {
        // pages=3 → 4 frames; 4 gap moves complete a rotation.
        let mut leveler = StartGapLeveler::new(3, 1).unwrap();
        let initial: Vec<u64> = (0..3)
            .map(|p| leveler.physical_frame(PageId::new(p)))
            .collect();
        for _ in 0..4 {
            leveler.record_write();
        }
        let rotated: Vec<u64> = (0..3)
            .map(|p| leveler.physical_frame(PageId::new(p)))
            .collect();
        assert_ne!(initial, rotated, "a full rotation shifts every page");
    }

    #[test]
    fn rotation_spreads_a_hot_page_over_all_frames() {
        // Hammer one logical page; over enough writes its physical frame
        // must visit every slot — the whole point of wear leveling.
        let mut leveler = StartGapLeveler::new(8, 1).unwrap();
        let mut visited = BTreeSet::new();
        for _ in 0..200 {
            visited.insert(leveler.physical_frame(PageId::new(0)));
            leveler.record_write();
        }
        assert_eq!(visited.len() as u64, 9, "hot page visits all 9 frames");
    }

    #[test]
    fn write_amplification_matches_interval() {
        let mut leveler = StartGapLeveler::new(64, 100).unwrap();
        assert_eq!(leveler.write_amplification(), 1.0);
        for _ in 0..10_000 {
            leveler.record_write();
        }
        // One move per 100 writes → amplification ≈ 1.01.
        assert!((leveler.write_amplification() - 1.01).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_page_panics() {
        let leveler = StartGapLeveler::new(4, 1).unwrap();
        let _ = leveler.physical_frame(PageId::new(4));
    }
}
