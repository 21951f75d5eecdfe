//! LRU reuse-distance (stack-distance) analysis of access streams.
//!
//! The reuse-distance histogram is the canonical locality fingerprint: the
//! hit ratio of *any* LRU memory of capacity `c` equals the fraction of
//! accesses with reuse distance `< c`. An access's reuse distance is the
//! recency rank its page holds just before the access, so this module
//! reads it from the policies' own [`RankedLru`]: one
//! [`touch_ranked`](RankedLru::touch_ranked) per access, O(log n), and a
//! first touch inserts the page as a cold miss. The miss-ratio curves
//! derived from it are the tool used to calibrate the PARSEC profiles
//! against the paper's near-zero steady-state fault rates.
//!
//! # Examples
//!
//! ```
//! use hybridmem_policy::ReuseProfile;
//! use hybridmem_types::PageId;
//!
//! // Four pages cycled ten times: every re-reference has distance 3.
//! let profile = ReuseProfile::from_pages((0..40).map(|i| PageId::new(i % 4)));
//! assert_eq!(profile.cold_misses(), 4);
//! assert_eq!(profile.histogram(), &[0, 0, 0, 36]);
//! // An LRU memory of four pages misses only the first touches; one of
//! // three pages misses every access.
//! assert_eq!(profile.miss_ratio(4), 0.1);
//! assert_eq!(profile.miss_ratio(3), 1.0);
//! ```

use hybridmem_types::PageId;

use crate::RankedLru;

/// Exact page-granular reuse-distance profile of one access stream.
#[derive(Debug, Clone, Default)]
pub struct ReuseProfile {
    /// `histogram[d]` = number of accesses whose reuse distance is `d`
    /// (number of distinct pages touched since the previous access to the
    /// same page). First touches are counted separately as cold misses.
    histogram: Vec<u64>,
    cold_misses: u64,
    total: u64,
}

impl ReuseProfile {
    /// Computes the profile of a page stream.
    #[must_use]
    pub fn from_pages<I: IntoIterator<Item = PageId>>(pages: I) -> Self {
        let mut profile = Self::default();
        let mut stack = RankedLru::<()>::new();
        for page in pages {
            profile.total += 1;
            #[expect(clippy::indexing_slicing, reason = "resized to cover distance above")]
            match stack.touch_ranked(page) {
                None => {
                    profile.cold_misses += 1;
                    stack.insert(page, ());
                }
                Some((distance, _)) => {
                    if profile.histogram.len() <= distance {
                        profile.histogram.resize(distance + 1, 0);
                    }
                    profile.histogram[distance] += 1;
                }
            }
        }
        profile
    }

    /// Total accesses profiled.
    #[must_use]
    pub const fn total_accesses(&self) -> u64 {
        self.total
    }

    /// First-touch (cold/compulsory) accesses.
    #[must_use]
    pub const fn cold_misses(&self) -> u64 {
        self.cold_misses
    }

    /// Number of distinct pages in the stream.
    #[must_use]
    pub fn distinct_pages(&self) -> u64 {
        self.cold_misses
    }

    /// The raw reuse-distance histogram (index = distance).
    #[must_use]
    pub fn histogram(&self) -> &[u64] {
        &self.histogram
    }

    /// Miss ratio of an LRU memory with `capacity` pages over this stream
    /// (cold misses included). 1.0 for an empty stream.
    #[must_use]
    pub fn miss_ratio(&self, capacity: u64) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        let hits: u64 = self.histogram.iter().take(capacity as usize).sum();
        (self.total - hits) as f64 / self.total as f64
    }

    /// The smallest LRU capacity whose miss ratio does not exceed `target`
    /// (ignoring cold misses, which no finite memory avoids), or `None`
    /// when even holding every page cannot reach it.
    #[must_use]
    pub fn capacity_for_miss_ratio(&self, target: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let mut hits = 0u64;
        let warm = (self.total - self.cold_misses) as f64;
        if warm == 0.0 {
            return None;
        }
        for (distance, &count) in self.histogram.iter().enumerate() {
            hits += count;
            let warm_miss = (warm - hits as f64) / warm;
            if warm_miss <= target {
                return Some(distance as u64 + 1);
            }
        }
        None
    }

    /// Mean finite reuse distance (over re-references only); `None` when
    /// the stream has no re-references.
    #[must_use]
    pub fn mean_distance(&self) -> Option<f64> {
        let reuses: u64 = self.histogram.iter().sum();
        if reuses == 0 {
            return None;
        }
        let weighted: u64 = self
            .histogram
            .iter()
            .enumerate()
            .map(|(d, &c)| d as u64 * c)
            .sum();
        Some(weighted as f64 / reuses as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridmem_types::PageTable;

    fn pages(ids: &[u64]) -> Vec<PageId> {
        ids.iter().map(|&i| PageId::new(i)).collect()
    }

    /// O(n²) reference implementation.
    fn naive_profile(ids: &[u64]) -> (u64, Vec<u64>) {
        let mut cold = 0u64;
        let mut histogram: Vec<u64> = Vec::new();
        let mut stack: Vec<u64> = Vec::new(); // MRU at the back
        for &page in ids {
            match stack.iter().rev().position(|&p| p == page) {
                None => cold += 1,
                Some(distance) => {
                    if histogram.len() <= distance {
                        histogram.resize(distance + 1, 0);
                    }
                    histogram[distance] += 1;
                    let pos = stack.len() - 1 - distance;
                    stack.remove(pos);
                }
            }
            stack.push(page);
        }
        (cold, histogram)
    }

    #[test]
    fn textbook_example() {
        // Stream: a b c a  — distance of the second `a` is 2 (b, c).
        let profile = ReuseProfile::from_pages(pages(&[1, 2, 3, 1]));
        assert_eq!(profile.cold_misses(), 3);
        assert_eq!(profile.histogram(), &[0, 0, 1]);
        assert_eq!(profile.total_accesses(), 4);
    }

    #[test]
    fn immediate_rereference_has_distance_zero() {
        let profile = ReuseProfile::from_pages(pages(&[5, 5, 5]));
        assert_eq!(profile.cold_misses(), 1);
        assert_eq!(profile.histogram(), &[2]);
        assert_eq!(profile.mean_distance(), Some(0.0));
    }

    #[test]
    fn miss_ratio_matches_lru_semantics() {
        // a b a b cycled: distance is always 1 after warmup.
        let stream: Vec<u64> = (0..100).map(|i| i % 2).collect();
        let profile = ReuseProfile::from_pages(pages(&stream));
        assert_eq!(profile.miss_ratio(2), 2.0 / 100.0, "only cold misses");
        assert_eq!(profile.miss_ratio(1), 1.0, "capacity 1 always misses");
    }

    #[test]
    fn cyclic_scan_pathology() {
        // 0..4 cycled: LRU of capacity 4 misses every access (distance 4).
        let stream: Vec<u64> = (0..50).map(|i| i % 5).collect();
        let profile = ReuseProfile::from_pages(pages(&stream));
        assert_eq!(profile.miss_ratio(4), 1.0);
        assert_eq!(profile.miss_ratio(5), 5.0 / 50.0);
    }

    #[test]
    fn capacity_for_miss_ratio_is_minimal() {
        let stream: Vec<u64> = (0..60).map(|i| i % 3).collect();
        let profile = ReuseProfile::from_pages(pages(&stream));
        assert_eq!(profile.capacity_for_miss_ratio(0.0), Some(3));
        let read_only = ReuseProfile::from_pages(pages(&[1, 2, 3]));
        assert_eq!(read_only.capacity_for_miss_ratio(0.0), None);
    }

    #[test]
    fn matches_naive_reference_on_random_streams() {
        // Unshifted ids are found by array index; ids shifted past the
        // dense bound take the page table's hash fallback.
        let mut rng = hybridmem_types::StdRng::seed_from_u64(99);
        for _ in 0..20 {
            let stream: Vec<u64> = (0..400).map(|_| rng.gen_range(0..40)).collect();
            let (cold, histogram) = naive_profile(&stream);
            for shift in [0, PageTable::DENSE_BOUND as u64] {
                let fast = ReuseProfile::from_pages(stream.iter().map(|&i| PageId::new(i + shift)));
                assert_eq!(fast.cold_misses(), cold, "shift {shift}");
                assert_eq!(fast.histogram(), &histogram[..], "shift {shift}");
            }
        }
    }

    #[test]
    fn compaction_preserves_distances() {
        // Long stream over few pages forces many compactions.
        let stream: Vec<u64> = (0..5_000).map(|i| (i * 7) % 11).collect();
        let fast = ReuseProfile::from_pages(pages(&stream));
        let (cold, histogram) = naive_profile(&stream);
        assert_eq!(fast.cold_misses(), cold);
        assert_eq!(fast.histogram(), &histogram[..]);
    }

    #[test]
    fn empty_stream() {
        let profile = ReuseProfile::from_pages(Vec::new());
        assert_eq!(profile.total_accesses(), 0);
        assert_eq!(profile.miss_ratio(10), 1.0);
        assert_eq!(profile.mean_distance(), None);
        assert_eq!(profile.capacity_for_miss_ratio(0.5), None);
    }
}
