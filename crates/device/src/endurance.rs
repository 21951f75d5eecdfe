//! NVM endurance tracking: per-page write wear.
//!
//! NVM cells sustain a limited number of writes ("NVMs have very limited
//! write cycles compared to DRAM"). The paper's endurance analysis
//! (Section III-C, Fig. 2c, Fig. 4b) counts the physical writes reaching the
//! NVM module and attributes them to their sources; this module adds the
//! per-page view needed to estimate device lifetime, since lifetime is
//! bounded by the *most*-written page absent wear leveling.

use hybridmem_types::{PageId, PageTable};

/// Conventional PCM cell endurance used for lifetime estimates:
/// 10⁸ writes per cell (mid-range of published PCM figures).
pub const DEFAULT_PCM_CELL_ENDURANCE: u64 = 100_000_000;

/// Tracks per-page write counts on the NVM module.
///
/// # Examples
///
/// ```
/// use hybridmem_device::WearTracker;
/// use hybridmem_types::PageId;
///
/// let mut wear = WearTracker::new();
/// wear.record_page_write(PageId::new(1), 512);
/// wear.record_page_write(PageId::new(1), 512);
/// wear.record_page_write(PageId::new(2), 1);
/// assert_eq!(wear.total_writes(), 1025);
/// assert_eq!(wear.max_wear(), 1024);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WearTracker {
    /// Each written page's index into `wear`. Dense ids are found by
    /// array index, sparse ones by the table's hash fallback.
    slots: PageTable,
    /// Writes per page, in the order pages were first written. The
    /// summaries below are order-independent folds over it.
    wear: Vec<u64>,
    total: u64,
}

impl WearTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `count` physical writes to `page`.
    ///
    /// # Panics
    ///
    /// Panics on a new page once `u32::MAX` distinct pages are tracked:
    /// a [`PageTable`] value cannot index more.
    #[inline]
    pub fn record_page_write(&mut self, page: PageId, count: u64) {
        match self
            .slots
            .get(page)
            .and_then(|slot| self.wear.get_mut(slot as usize))
        {
            Some(wear) => *wear += count,
            None => {
                self.slots.insert(page, self.wear.len() as u32);
                self.wear.push(count);
            }
        }
        self.total += count;
    }

    /// Total physical writes recorded across all pages.
    #[must_use]
    pub const fn total_writes(&self) -> u64 {
        self.total
    }

    /// The wear of the most-written page (0 when nothing was written).
    #[must_use]
    pub fn max_wear(&self) -> u64 {
        self.wear.iter().copied().max().unwrap_or(0)
    }

    /// Mean writes per touched page (0.0 when nothing was written).
    #[must_use]
    pub fn mean_wear(&self) -> f64 {
        if self.wear.is_empty() {
            return 0.0;
        }
        self.total as f64 / self.wear.len() as f64
    }

    /// Wear imbalance: max wear / mean wear. 1.0 means perfectly even wear;
    /// large values indicate hot pages that would benefit from wear
    /// leveling. Returns 0.0 when nothing was written.
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean_wear();
        if mean == 0.0 {
            return 0.0;
        }
        self.max_wear() as f64 / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tracker_reports_zeroes() {
        let wear = WearTracker::new();
        assert_eq!(wear.total_writes(), 0);
        assert_eq!(wear.max_wear(), 0);
        assert_eq!(wear.mean_wear(), 0.0);
        assert_eq!(wear.imbalance(), 0.0);
    }

    #[test]
    fn wear_accumulates_per_page() {
        let mut wear = WearTracker::new();
        wear.record_page_write(PageId::new(7), 10);
        wear.record_page_write(PageId::new(7), 5);
        wear.record_page_write(PageId::new(8), 1);
        assert_eq!(wear.max_wear(), 15);
        assert_eq!(wear.total_writes(), 16);
        assert_eq!(wear.mean_wear(), 8.0);
        assert!((wear.imbalance() - 15.0 / 8.0).abs() < 1e-12);
    }
}
