//! A page-indexed table: a page's `u32` value found by array index, not by
//! hash.
//!
//! Synthetic traces number their pages densely (`0..wss`), so the policy
//! queues can find a page's slab entry by indexing a `Vec` with its id.
//! [`PageTable`] does that for every id below [`PageTable::DENSE_BOUND`]
//! and keeps larger ids in an [`FxHashMap`]: imported traces number pages
//! by `address / 4096`, which can take any 52-bit value.
//!
//! # Examples
//!
//! ```
//! use hybridmem_types::{PageId, PageTable};
//!
//! let mut table = PageTable::with_capacity(4);
//! assert_eq!(table.insert(PageId::new(3), 7), None);
//! assert_eq!(table.insert(PageId::new(1 << 40), 8), None); // a sparse id
//! assert_eq!(table.get(PageId::new(3)), Some(7));
//! assert_eq!(table.remove(PageId::new(1 << 40)), Some(8));
//! assert_eq!(table.len(), 1);
//! ```

use crate::{FxHashMap, PageId};

/// Marks an absent page in the dense part.
const ABSENT: u32 = u32::MAX;

/// A map from [`PageId`] to a `u32` value (a slab index, in the policy
/// queues) that finds dense ids by array index.
///
/// Ids below [`DENSE_BOUND`](Self::DENSE_BOUND) live in a `Vec<u32>`
/// indexed by id, where `u32::MAX` means absent, so `u32::MAX` cannot be
/// stored. Larger ids fall back to an [`FxHashMap`] behind one branch. The
/// dense part is sized once from the capacity hint (twice the capacity,
/// rounded up to a power of two; a default table starts empty) and
/// doubles only when a larger id arrives, up to `DENSE_BOUND` entries:
/// 16 MiB.
///
/// The table cannot iterate; callers that need their pages in some order
/// keep them in their own slab.
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    dense: Vec<u32>,
    sparse: FxHashMap<PageId, u32>,
    len: usize,
}

impl PageTable {
    /// Ids below this bound are found by array index; the rest by hash. It
    /// keeps every synthetic trace dense at full scale (dedup's 128,115
    /// pages are the largest working set) and caps a table at 16 MiB.
    pub const DENSE_BOUND: usize = 1 << 22;

    /// Creates an empty table whose dense part covers ids below twice
    /// `capacity`, rounded up to a power of two.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let len = capacity
            .saturating_mul(2)
            .min(Self::DENSE_BOUND)
            .next_power_of_two();
        Self {
            dense: vec![ABSENT; len],
            ..Self::default()
        }
    }

    /// Number of pages in the table.
    #[must_use]
    pub const fn len(&self) -> usize {
        self.len
    }

    /// True when the table holds no pages.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value stored for `page`, if any.
    #[inline]
    #[must_use]
    pub fn get(&self, page: PageId) -> Option<u32> {
        match Self::dense_index(page) {
            Some(index) => self.dense.get(index).copied().filter(|&v| v != ABSENT),
            None => self.sparse.get(&page).copied(),
        }
    }

    /// True when `page` is in the table.
    #[inline]
    #[must_use]
    pub fn contains(&self, page: PageId) -> bool {
        self.get(page).is_some()
    }

    /// Stores `value` for `page`, returning the value it replaced.
    ///
    /// # Panics
    ///
    /// Panics if `value` is `u32::MAX`, which marks absent pages.
    #[inline]
    pub fn insert(&mut self, page: PageId, value: u32) -> Option<u32> {
        assert_ne!(value, ABSENT, "u32::MAX marks absent pages");
        let previous = match Self::dense_index(page) {
            Some(index) => {
                if index >= self.dense.len() {
                    self.grow(index);
                }
                self.dense
                    .get_mut(index)
                    .map(|entry| std::mem::replace(entry, value))
                    .filter(|&v| v != ABSENT)
            }
            None => self.sparse.insert(page, value),
        };
        if previous.is_none() {
            self.len += 1;
        }
        previous
    }

    /// Removes `page`, returning its value.
    #[inline]
    pub fn remove(&mut self, page: PageId) -> Option<u32> {
        let previous = match Self::dense_index(page) {
            Some(index) => self
                .dense
                .get_mut(index)
                .map(|entry| std::mem::replace(entry, ABSENT))
                .filter(|&v| v != ABSENT),
            None => self.sparse.remove(&page),
        };
        if previous.is_some() {
            self.len -= 1;
        }
        previous
    }

    /// Removes every page, keeping the dense part's size.
    pub fn clear(&mut self) {
        self.dense.fill(ABSENT);
        self.sparse.clear();
        self.len = 0;
    }

    /// Position of `page` in the dense part, or `None` for a sparse id.
    #[inline]
    fn dense_index(page: PageId) -> Option<usize> {
        usize::try_from(page.value())
            .ok()
            .filter(|&index| index < Self::DENSE_BOUND)
    }

    /// Grows the dense part to cover `index`: at least doubling it, to a
    /// power of two no larger than `DENSE_BOUND`.
    #[cold]
    fn grow(&mut self, index: usize) {
        let len = (index + 1)
            .max(2 * self.dense.len())
            .next_power_of_two()
            .min(Self::DENSE_BOUND);
        self.dense.resize(len, ABSENT);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::for_each_case;

    fn page(n: u64) -> PageId {
        PageId::new(n)
    }

    fn bound() -> u64 {
        u64::try_from(PageTable::DENSE_BOUND).unwrap()
    }

    #[test]
    fn presizes_from_the_hint_and_doubles_for_larger_ids() {
        let mut table = PageTable::with_capacity(100);
        assert_eq!(table.dense.len(), 256, "2 × 100, rounded up");
        table.insert(page(255), 1);
        assert_eq!(table.dense.len(), 256);
        table.insert(page(256), 2);
        assert_eq!(table.dense.len(), 512, "doubled");
        table.insert(page(3000), 3);
        assert_eq!(table.dense.len(), 4096, "covers the new id");
        table.insert(page(bound()), 4);
        assert_eq!(table.dense.len(), 4096, "a sparse id leaves it alone");
        table.insert(page(bound() - 1), 5);
        assert_eq!(table.dense.len(), PageTable::DENSE_BOUND, "capped");
        assert_eq!(table.len(), 5);
        assert_eq!(PageTable::with_capacity(usize::MAX).dense.len(), 1 << 22);
        assert_eq!(PageTable::default().dense.len(), 0);
    }

    #[test]
    fn clear_keeps_the_dense_size() {
        let mut table = PageTable::with_capacity(8);
        table.insert(page(40), 1);
        table.insert(page(1 << 40), 2);
        table.clear();
        assert!(table.is_empty());
        assert_eq!(table.get(page(40)), None);
        assert_eq!(table.get(page(1 << 40)), None);
        assert_eq!(table.dense.len(), 64);
    }

    #[test]
    #[should_panic(expected = "marks absent")]
    fn the_absent_marker_cannot_be_stored() {
        PageTable::default().insert(page(1), u32::MAX);
    }

    /// Random insert, get, remove and clear, checked against an
    /// `FxHashMap` after every step: dense ids past the pre-size, ids on
    /// both sides of the bound, and ids far above it.
    #[test]
    fn matches_a_hash_map_model() {
        for_each_case(32, |rng| {
            let capacity = rng.gen_range(1..48);
            let mut table = PageTable::with_capacity(usize::try_from(capacity).unwrap());
            let mut model: FxHashMap<PageId, u32> = FxHashMap::default();
            let mut seen: Vec<PageId> = Vec::new();
            for step in 0..300 {
                let id = match rng.gen_range(0..10) {
                    0..=5 => rng.gen_range(0..4 * capacity),
                    6 => bound() - 1 + rng.gen_range(0..3),
                    _ => (1 << 40) + rng.gen_range(0..4 * capacity),
                };
                let p = page(id);
                if !seen.contains(&p) {
                    seen.push(p);
                }
                match rng.gen_range(0..256) {
                    0 => {
                        table.clear();
                        model.clear();
                    }
                    1..=120 => {
                        let value = u32::try_from(rng.gen_range(0..u64::from(u32::MAX))).unwrap();
                        assert_eq!(
                            table.insert(p, value),
                            model.insert(p, value),
                            "step {step}"
                        );
                    }
                    121..=180 => assert_eq!(table.remove(p), model.remove(&p), "step {step}"),
                    _ => assert_eq!(table.get(p), model.get(&p).copied(), "step {step}"),
                }
                assert_eq!(table.len(), model.len(), "step {step}");
                for q in &seen {
                    assert_eq!(table.get(*q), model.get(q).copied(), "step {step}: {q}");
                    assert_eq!(table.contains(*q), model.contains_key(q));
                }
            }
        });
    }
}
