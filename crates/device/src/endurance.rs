//! NVM endurance tracking: per-page write wear and lifetime estimation.
//!
//! NVM cells sustain a limited number of writes ("NVMs have very limited
//! write cycles compared to DRAM"). The paper's endurance analysis
//! (Section III-C, Fig. 2c, Fig. 4b) counts the physical writes reaching the
//! NVM module and attributes them to their sources; this module adds the
//! per-page view needed to estimate device lifetime, since lifetime is
//! bounded by the *most*-written page absent wear leveling.

use std::collections::BTreeMap;

use hybridmem_types::PageId;

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
/// assert_eq!(wear.pages_touched(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WearTracker {
    /// A `BTreeMap` so the tracker iterates pages in sorted order
    /// (hash-map order would depend on insertion history).
    writes: BTreeMap<PageId, u64>,
    total: u64,
}

impl WearTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `count` physical writes to `page`.
    pub fn record_page_write(&mut self, page: PageId, count: u64) {
        *self.writes.entry(page).or_insert(0) += count;
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
        self.writes.values().copied().max().unwrap_or(0)
    }

    /// Number of distinct pages that received at least one write.
    #[must_use]
    pub fn pages_touched(&self) -> usize {
        self.writes.len()
    }

    /// The wear recorded for one page.
    #[must_use]
    pub fn wear_of(&self, page: PageId) -> u64 {
        self.writes.get(&page).copied().unwrap_or(0)
    }

    /// Mean writes per touched page (0.0 when nothing was written).
    #[must_use]
    pub fn mean_wear(&self) -> f64 {
        if self.writes.is_empty() {
            return 0.0;
        }
        self.total as f64 / self.writes.len() as f64
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

    /// Builds a histogram of page wear with `buckets` equal-width bins
    /// spanning `[0, max_wear]`.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero.
    #[must_use]
    pub fn histogram(&self, buckets: usize) -> WearHistogram {
        assert!(buckets > 0, "histogram needs at least one bucket");
        let max = self.max_wear();
        let mut counts = vec![0u64; buckets];
        #[expect(clippy::indexing_slicing, reason = "clamped below counts.len()")]
        for &wear in self.writes.values() {
            // Bucket index in [0, buckets-1]; the max value lands in the
            // last bucket. (`max` is non-zero here: `writes` has entries.)
            let idx = (wear.saturating_sub(1) * buckets as u64)
                .checked_div(max)
                .unwrap_or(0) as usize;
            counts[idx.min(buckets - 1)] += 1;
        }
        WearHistogram {
            max_wear: max,
            counts,
        }
    }

    /// Estimates device lifetime given a per-cell endurance budget and the
    /// observed write rate.
    ///
    /// `writes_per_second` is the rate at which the observed workload issues
    /// physical NVM writes. The device fails when its hottest page exhausts
    /// `cell_endurance`, so estimated lifetime (seconds) is
    /// `cell_endurance / (max_wear_rate)` where the hottest page's share of
    /// traffic is assumed stationary.
    ///
    /// Returns `None` when no writes were recorded or the rate is not
    /// positive (the device never wears out under this workload).
    #[must_use]
    pub fn lifetime(
        &self,
        cell_endurance: u64,
        writes_per_second: f64,
    ) -> Option<LifetimeEstimate> {
        let max = self.max_wear();
        if max == 0 || writes_per_second <= 0.0 || writes_per_second.is_nan() {
            return None;
        }
        let hottest_share = max as f64 / self.total as f64;
        let hottest_rate = writes_per_second * hottest_share;
        let seconds = cell_endurance as f64 / hottest_rate;
        Some(LifetimeEstimate {
            seconds,
            limiting_page_wear: max,
            hottest_share,
        })
    }
}

/// Histogram of per-page wear.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WearHistogram {
    /// Wear of the most-written page (upper edge of the last bucket).
    pub max_wear: u64,
    /// Page counts per equal-width bucket over `[0, max_wear]`.
    pub counts: Vec<u64>,
}

impl WearHistogram {
    /// Total pages represented by the histogram.
    #[must_use]
    pub fn total_pages(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Result of [`WearTracker::lifetime`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimeEstimate {
    /// Estimated seconds until the hottest page exhausts its endurance.
    pub seconds: f64,
    /// Observed wear of the limiting (hottest) page.
    pub limiting_page_wear: u64,
    /// The hottest page's share of total write traffic, in `(0, 1]`.
    pub hottest_share: f64,
}

impl LifetimeEstimate {
    /// Lifetime expressed in years.
    #[must_use]
    pub fn years(&self) -> f64 {
        self.seconds / (365.25 * 24.0 * 3600.0)
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
        assert_eq!(wear.pages_touched(), 0);
        assert_eq!(wear.mean_wear(), 0.0);
        assert_eq!(wear.imbalance(), 0.0);
        assert!(wear.lifetime(DEFAULT_PCM_CELL_ENDURANCE, 1e6).is_none());
    }

    #[test]
    fn wear_accumulates_per_page() {
        let mut wear = WearTracker::new();
        wear.record_page_write(PageId::new(7), 10);
        wear.record_page_write(PageId::new(7), 5);
        wear.record_page_write(PageId::new(8), 1);
        assert_eq!(wear.wear_of(PageId::new(7)), 15);
        assert_eq!(wear.wear_of(PageId::new(8)), 1);
        assert_eq!(wear.wear_of(PageId::new(9)), 0);
        assert_eq!(wear.total_writes(), 16);
        assert_eq!(wear.mean_wear(), 8.0);
        assert!((wear.imbalance() - 15.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_partitions_pages() {
        let mut wear = WearTracker::new();
        for i in 1..=100u64 {
            wear.record_page_write(PageId::new(i), i);
        }
        let h = wear.histogram(10);
        assert_eq!(h.total_pages(), 100);
        assert_eq!(h.max_wear, 100);
        // Equal-width buckets over 1..=100 hold 10 pages each.
        assert!(h.counts.iter().all(|&c| c == 10), "{:?}", h.counts);
    }

    #[test]
    fn histogram_single_value() {
        let mut wear = WearTracker::new();
        wear.record_page_write(PageId::new(1), 512);
        let h = wear.histogram(4);
        assert_eq!(h.counts, vec![0, 0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn histogram_rejects_zero_buckets() {
        let _ = WearTracker::new().histogram(0);
    }

    #[test]
    fn lifetime_is_inverse_to_write_rate() {
        let mut wear = WearTracker::new();
        wear.record_page_write(PageId::new(1), 100);
        wear.record_page_write(PageId::new(2), 100);
        let slow = wear.lifetime(1_000_000, 1000.0).unwrap();
        let fast = wear.lifetime(1_000_000, 2000.0).unwrap();
        assert!((slow.seconds / fast.seconds - 2.0).abs() < 1e-9);
        assert_eq!(slow.limiting_page_wear, 100);
        assert!((slow.hottest_share - 0.5).abs() < 1e-12);
        // endurance 1e6 cells / (1000 w/s * 0.5 share) = 2000 s.
        assert!((slow.seconds - 2000.0).abs() < 1e-9);
        assert!(slow.years() > 0.0);
    }

    #[test]
    fn uneven_wear_shortens_lifetime() {
        let mut even = WearTracker::new();
        even.record_page_write(PageId::new(1), 50);
        even.record_page_write(PageId::new(2), 50);
        let mut skewed = WearTracker::new();
        skewed.record_page_write(PageId::new(1), 99);
        skewed.record_page_write(PageId::new(2), 1);
        let l_even = even.lifetime(1_000_000, 1000.0).unwrap();
        let l_skewed = skewed.lifetime(1_000_000, 1000.0).unwrap();
        assert!(l_skewed.seconds < l_even.seconds);
    }
}
