//! A fixed-footprint, deterministic histogram over `u64` samples.

use hybridmem_json::impl_json;

/// Number of buckets: one for zero plus one per power of two (`2^0..2^63`).
const BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples.
///
/// Bucket 0 holds exact zeros; bucket `k` (for `k ≥ 1`) holds samples in
/// `[2^(k-1), 2^k)`. The layout is fixed, so observing samples in any
/// order produces the same histogram — there is no rebalancing and no
/// allocation after construction, which keeps [`Histogram::observe`]
/// cheap enough for simulation hot paths.
///
/// # Examples
///
/// ```
/// use hybridmem_metrics::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [0, 1, 5, 5, 900] {
///     h.observe(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.sum(), 911);
/// assert_eq!(h.min(), Some(0));
/// assert_eq!(h.max(), Some(900));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }

    /// Bucket index of a sample: 0 for zero, `floor(log2(value)) + 1`
    /// otherwise (always < `BUCKETS`).
    fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros()) as usize
        }
    }

    /// Records one sample. Counts and sums saturate at `u64::MAX`.
    pub fn observe(&mut self, value: u64) {
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        #[expect(clippy::indexing_slicing, reason = "bucket_index(v) <= 64 < BUCKETS")]
        let bucket = &mut self.buckets[Self::bucket_index(value)];
        *bucket = bucket.saturating_add(1);
    }

    /// Number of samples observed.
    #[must_use]
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    #[must_use]
    pub const fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or `None` when empty.
    #[must_use]
    pub const fn min(&self) -> Option<u64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest sample, or `None` when empty.
    #[must_use]
    pub const fn max(&self) -> Option<u64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Arithmetic mean of the samples; 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Merges another histogram into this one, bucket by bucket. Counts
    /// and sums saturate at `u64::MAX`.
    pub fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
    }

    /// Deterministic percentile estimate, exact within bucket bounds.
    ///
    /// Returns the inclusive upper bound of the bucket holding the
    /// rank-`⌈count·pct/100⌉` sample, clamped to the exact observed
    /// `[min, max]` range — so `percentile(100)` is the exact maximum
    /// and a single-bucket histogram reports its exact extremes. Pure
    /// integer arithmetic over the fixed bucket layout: the same
    /// samples produce the same estimate in any observation or merge
    /// order. `pct` is clamped to `1..=100`; `None` when empty.
    #[must_use]
    pub fn percentile(&self, pct: u64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let pct = pct.clamp(1, 100);
        let rank = (u128::from(self.count) * u128::from(pct)).div_ceil(100);
        let rank = u64::try_from(rank).unwrap_or(u64::MAX).max(1);
        let mut seen: u64 = 0;
        for (index, &count) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(count);
            if seen >= rank {
                return Some(Self::bucket_upper(index).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// A serializable export: summary statistics, deterministic
    /// p50/p95/p99 estimates, plus the non-empty buckets in ascending
    /// upper-bound order.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(index, &count)| BucketCount {
                upper: Self::bucket_upper(index),
                count,
            })
            .collect();
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: self.min().unwrap_or(0),
            max: self.max().unwrap_or(0),
            p50: self.percentile(50).unwrap_or(0),
            p95: self.percentile(95).unwrap_or(0),
            p99: self.percentile(99).unwrap_or(0),
            buckets,
        }
    }

    /// Inclusive upper bound of a bucket: 0 for the zero bucket,
    /// `2^index - 1` otherwise (saturating at `u64::MAX`).
    fn bucket_upper(index: usize) -> u64 {
        match index {
            0 => 0,
            64 => u64::MAX,
            _ => (1u64 << index) - 1,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// One non-empty bucket of a [`HistogramSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketCount {
    /// Inclusive upper bound of the bucket's value range.
    pub upper: u64,
    /// Samples that fell in the bucket.
    pub count: u64,
}

impl_json!(ToJson for BucketCount { upper, count });

/// Serializable export of a [`Histogram`]: kept as an ordered bucket list
/// (not a map) so serialization is layout-stable and compact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples (saturating).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Deterministic median estimate ([`Histogram::percentile`]; 0 when
    /// empty).
    pub p50: u64,
    /// Deterministic 95th-percentile estimate (0 when empty).
    pub p95: u64,
    /// Deterministic 99th-percentile estimate (0 when empty).
    pub p99: u64,
    /// Non-empty buckets, ascending by `upper`.
    pub buckets: Vec<BucketCount>,
}

impl_json!(ToJson for HistogramSnapshot { count, sum, min, max, p50, p95, p99, buckets });

impl HistogramSnapshot {
    /// Rebuilds a mergeable [`Histogram`] from the snapshot.
    #[must_use]
    pub fn to_histogram(&self) -> Histogram {
        let mut histogram = Histogram {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { u64::MAX } else { self.min },
            max: self.max,
            buckets: [0; BUCKETS],
        };
        #[expect(clippy::indexing_slicing, reason = "bucket_index(v) <= 64 < BUCKETS")]
        for bucket in &self.buckets {
            histogram.buckets[Histogram::bucket_index(bucket.upper)] += bucket.count;
        }
        histogram
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert!((h.mean() - 0.0).abs() < f64::EPSILON);
        assert!(h.snapshot().buckets.is_empty());
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_upper(0), 0);
        assert_eq!(Histogram::bucket_upper(2), 3);
        assert_eq!(Histogram::bucket_upper(64), u64::MAX);
    }

    #[test]
    fn observe_tracks_summary_statistics() {
        let mut h = Histogram::new();
        for v in [7, 0, 100, 3] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 110);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(100));
        assert!((h.mean() - 27.5).abs() < 1e-12);
    }

    #[test]
    fn snapshot_roundtrips_through_buckets() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 900, 900] {
            h.observe(v);
        }
        let snapshot = h.snapshot();
        assert_eq!(snapshot.count, 6);
        // Buckets: zero, [1,1], [2,3]×2, [512,1023]×2.
        assert_eq!(snapshot.buckets.len(), 4);
        assert_eq!(snapshot.buckets[2], BucketCount { upper: 3, count: 2 });
        let rebuilt = snapshot.to_histogram();
        assert_eq!(rebuilt.count(), 6);
        assert_eq!(rebuilt.snapshot().buckets.len(), 4);
    }

    #[test]
    fn merge_is_observation_order_independent() {
        let mut all = Histogram::new();
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for (i, v) in [5u64, 0, 19, 3, 3, 77, 1024].iter().enumerate() {
            all.observe(*v);
            if i % 2 == 0 {
                left.observe(*v);
            } else {
                right.observe(*v);
            }
        }
        let mut merged = right.clone();
        merged.merge(&left);
        assert_eq!(merged, all);
        merged.merge(&Histogram::new());
        assert_eq!(merged, all, "merging an empty histogram is a no-op");
    }

    #[test]
    fn percentiles_are_exact_within_bucket_bounds() {
        let mut h = Histogram::new();
        // 100 samples: 50× value 3 (bucket [2,3]), 45× value 10
        // (bucket [8,15]), 5× value 1000 (bucket [512,1023]).
        for _ in 0..50 {
            h.observe(3);
        }
        for _ in 0..45 {
            h.observe(10);
        }
        for _ in 0..5 {
            h.observe(1000);
        }
        assert_eq!(h.percentile(50), Some(3), "rank 50 lands in [2,3]");
        assert_eq!(h.percentile(95), Some(15), "rank 95 lands in [8,15]");
        assert_eq!(
            h.percentile(99),
            Some(1000),
            "rank 99 lands in [512,1023], clamped to the exact max"
        );
        assert_eq!(h.percentile(100), Some(1000), "p100 is the exact max");
        assert_eq!(h.percentile(1), Some(3), "low ranks clamp to the exact min");
        assert_eq!(Histogram::new().percentile(50), None);

        let snapshot = h.snapshot();
        assert_eq!((snapshot.p50, snapshot.p95, snapshot.p99), (3, 15, 1000));
        let rebuilt = snapshot.to_histogram().snapshot();
        assert_eq!(
            (rebuilt.p50, rebuilt.p95, rebuilt.p99),
            (3, 15, 1000),
            "quantiles survive the snapshot round-trip"
        );
    }

    #[test]
    fn percentiles_are_merge_order_independent() {
        let samples = [5u64, 0, 19, 3, 3, 77, 1024, 77, 12];
        let mut all = Histogram::new();
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for (i, v) in samples.iter().enumerate() {
            all.observe(*v);
            if i % 2 == 0 {
                left.observe(*v);
            } else {
                right.observe(*v);
            }
        }
        let mut merged = right.clone();
        merged.merge(&left);
        for pct in [1, 25, 50, 75, 95, 99, 100] {
            assert_eq!(merged.percentile(pct), all.percentile(pct), "p{pct}");
        }
    }

    #[test]
    fn snapshot_serializes_deterministically() {
        let mut h = Histogram::new();
        h.observe(4);
        h.observe(9);
        let a = hybridmem_json::to_string(&h.snapshot());
        let mut again = Histogram::new();
        again.observe(4);
        again.observe(9);
        assert_eq!(a, hybridmem_json::to_string(&again.snapshot()));
        assert_eq!(
            a,
            r#"{"count":2,"sum":13,"min":4,"max":9,"p50":7,"p95":9,"p99":9,"buckets":[{"upper":7,"count":1},{"upper":15,"count":1}]}"#
        );
    }
}
