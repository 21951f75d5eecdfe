//! Geometry constants and page-math helpers.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

use hybridmem_json::impl_json;

use crate::{Address, PageId};

/// Size of a data page in bytes.
///
/// The paper assumes 4 KB pages (Section II-A): "The granularity of the
/// moves between disk and memory modules and between two memories is a data
/// page which is typically 4KB or 8KB. In this paper, we assume 4KB".
pub const PAGE_SIZE: usize = 4096;

/// Granularity of a single CPU access to memory, in bytes.
///
/// The paper states CPU-visible accesses are "typically 4 up to 16B";
/// we use 8 B (one 64-bit bus word), the midpoint.
pub const ACCESS_GRANULARITY: usize = 8;

/// `PageFactor` from Table I: the number of memory accesses needed to move
/// one data page, i.e. [`PAGE_SIZE`] / [`ACCESS_GRANULARITY`] = 512.
///
/// Both the performance model (Eq. 1) and the power model (Eq. 2) multiply
/// migration probabilities by this coefficient, which is what makes page
/// migrations roughly three orders of magnitude more expensive than single
/// requests — the central observation of the paper.
pub const PAGE_FACTOR: u64 = (PAGE_SIZE / ACCESS_GRANULARITY) as u64;

/// Returns the page containing a byte address.
///
/// # Examples
///
/// ```
/// use hybridmem_types::{page_of, Address, PageId, PAGE_SIZE};
///
/// assert_eq!(page_of(Address::new(0)), PageId::new(0));
/// assert_eq!(page_of(Address::new(PAGE_SIZE as u64 - 1)), PageId::new(0));
/// assert_eq!(page_of(Address::new(PAGE_SIZE as u64)), PageId::new(1));
/// ```
#[must_use]
pub const fn page_of(address: Address) -> PageId {
    PageId::new(address.value() / PAGE_SIZE as u64)
}

/// A count of 4 KB pages, used for memory capacities and working-set sizes.
///
/// # Examples
///
/// ```
/// use hybridmem_types::PageCount;
///
/// let dram = PageCount::new(100);
/// let nvm = PageCount::new(900);
/// assert_eq!((dram + nvm).value(), 1000);
/// assert_eq!(dram.bytes(), 100 * 4096);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageCount(u64);

impl_json!(ToJson, FromJson for PageCount(u64));

impl PageCount {
    /// Creates a page count.
    #[must_use]
    pub const fn new(pages: u64) -> Self {
        Self(pages)
    }

    /// Creates the page count covering `bytes`, rounding up to whole pages.
    ///
    /// # Examples
    ///
    /// ```
    /// use hybridmem_types::PageCount;
    ///
    /// assert_eq!(PageCount::from_bytes(1), PageCount::new(1));
    /// assert_eq!(PageCount::from_bytes(4096), PageCount::new(1));
    /// assert_eq!(PageCount::from_bytes(4097), PageCount::new(2));
    /// ```
    #[must_use]
    pub const fn from_bytes(bytes: u64) -> Self {
        Self(bytes.div_ceil(PAGE_SIZE as u64))
    }

    /// Returns the number of pages.
    #[must_use]
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Returns the capacity in bytes.
    #[must_use]
    pub const fn bytes(self) -> u64 {
        self.0 * PAGE_SIZE as u64
    }

    /// Returns true when the count is zero pages.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns `fraction` of this count, rounded to nearest, but at least
    /// one page when `self` is non-empty and `fraction > 0`.
    ///
    /// This mirrors the paper's sizing rule (memory = 75 % of footprint,
    /// DRAM = 10 % of memory) where a zero-page DRAM would be meaningless.
    ///
    /// # Examples
    ///
    /// ```
    /// use hybridmem_types::PageCount;
    ///
    /// assert_eq!(PageCount::new(1000).scaled(0.10), PageCount::new(100));
    /// assert_eq!(PageCount::new(3).scaled(0.10), PageCount::new(1));
    /// assert_eq!(PageCount::new(0).scaled(0.5), PageCount::new(0));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is negative or not finite.
    #[must_use]
    pub fn scaled(self, fraction: f64) -> Self {
        assert!(
            fraction.is_finite() && fraction >= 0.0,
            "fraction must be finite and non-negative, got {fraction}"
        );
        if self.0 == 0 || fraction == 0.0 {
            return Self(0);
        }
        let scaled = (self.0 as f64 * fraction).round() as u64;
        Self(scaled.max(1))
    }
}

impl fmt::Display for PageCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} pages", self.0)
    }
}

impl Add for PageCount {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for PageCount {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for PageCount {
    type Output = Self;

    fn sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }
}

impl Sum for PageCount {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        Self(iter.map(|c| c.0).sum())
    }
}

impl From<u64> for PageCount {
    fn from(value: u64) -> Self {
        Self(value)
    }
}

impl From<PageCount> for u64 {
    fn from(value: PageCount) -> Self {
        value.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_factor_matches_geometry() {
        assert_eq!(PAGE_FACTOR, 512);
        assert_eq!(PAGE_FACTOR, (PAGE_SIZE / ACCESS_GRANULARITY) as u64);
    }

    #[test]
    fn page_of_boundaries() {
        assert_eq!(page_of(Address::new(0)).value(), 0);
        assert_eq!(page_of(Address::new(4095)).value(), 0);
        assert_eq!(page_of(Address::new(4096)).value(), 1);
        assert_eq!(page_of(Address::new(8191)).value(), 1);
    }

    #[test]
    fn from_bytes_rounds_up() {
        assert_eq!(PageCount::from_bytes(0), PageCount::new(0));
        assert_eq!(PageCount::from_bytes(4096 * 3), PageCount::new(3));
        assert_eq!(PageCount::from_bytes(4096 * 3 + 1), PageCount::new(4));
    }

    #[test]
    fn arithmetic_behaves() {
        let a = PageCount::new(10);
        let b = PageCount::new(3);
        assert_eq!(a + b, PageCount::new(13));
        assert_eq!(a - b, PageCount::new(7));
        assert_eq!(b - a, PageCount::new(0), "subtraction saturates");
        let mut c = a;
        c += b;
        assert_eq!(c, PageCount::new(13));
        let total: PageCount = [a, b, c].into_iter().sum();
        assert_eq!(total, PageCount::new(26));
    }

    #[test]
    fn scaled_clamps_to_one_page_minimum() {
        assert_eq!(PageCount::new(5).scaled(0.01), PageCount::new(1));
        assert_eq!(PageCount::new(0).scaled(0.9), PageCount::new(0));
        assert_eq!(PageCount::new(100).scaled(0.0), PageCount::new(0));
        assert_eq!(PageCount::new(200).scaled(0.75), PageCount::new(150));
    }

    #[test]
    #[should_panic(expected = "fraction must be finite")]
    fn scaled_rejects_negative() {
        let _ = PageCount::new(10).scaled(-0.5);
    }
}
