//! Property-based tests for the device crate's bookkeeping: per-page NVM
//! wear.

use std::collections::BTreeMap;

use hybridmem_device::WearTracker;
use hybridmem_types::{for_each_case, PageId, PageTable};

/// Cases per property.
const CASES: u64 = 256;

/// Wear bookkeeping matches a sorted-map model of the same writes, for
/// page ids the tracker finds by array index and for ids above
/// [`PageTable::DENSE_BOUND`] that it finds by hash; the total equals the
/// sum over pages, and the maximum bounds the mean.
#[test]
fn wear_tracker_is_consistent() {
    let bound = u64::try_from(PageTable::DENSE_BOUND).unwrap();
    for_each_case(CASES, |rng| {
        let writes: Vec<(PageId, u64)> = (0..rng.gen_range(1..150))
            .map(|_| {
                // Half dense ids, a quarter just past the bound, a quarter
                // anywhere in the 52-bit page-number space.
                let page = match rng.gen_range(0..4) {
                    0 | 1 => rng.gen_range(0..64),
                    2 => bound + rng.gen_range(0..64),
                    _ => rng.gen_range(0..1 << 52),
                };
                (PageId::new(page), rng.gen_range(1..1_000))
            })
            .collect();
        let mut wear = WearTracker::new();
        let mut model: BTreeMap<PageId, u64> = BTreeMap::new();
        for &(page, count) in &writes {
            wear.record_page_write(page, count);
            *model.entry(page).or_insert(0) += count;
        }
        let total: u64 = model.values().sum();
        let max = model.values().copied().max().unwrap_or(0);
        let mean = total as f64 / model.len() as f64;
        assert_eq!(wear.total_writes(), total);
        assert_eq!(wear.max_wear(), max);
        assert_eq!(wear.mean_wear().to_bits(), mean.to_bits());
        assert_eq!(wear.imbalance().to_bits(), (max as f64 / mean).to_bits());
        assert!(wear.max_wear() as f64 >= wear.mean_wear());
        assert!(wear.imbalance() >= 1.0);
    });
}
