//! Identifier newtypes: byte addresses, page numbers, and CPU cores.

use std::fmt;

/// A byte address in the simulated physical address space.
///
/// Addresses are what trace generators emit and trace files store;
/// page-level components work with [`PageId`] instead (see
/// [`crate::page_of`]).
///
/// # Examples
///
/// ```
/// use hybridmem_types::Address;
///
/// let a = Address::new(0x1000);
/// assert_eq!(a.value(), 0x1000);
/// assert_eq!(format!("{a}"), "0x1000");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(u64);

impl Address {
    /// Creates an address from a raw byte offset.
    #[must_use]
    pub const fn new(value: u64) -> Self {
        Self(value)
    }

    /// Returns the raw byte offset.
    #[must_use]
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Returns the address advanced by `bytes`, saturating at `u64::MAX`.
    ///
    /// # Examples
    ///
    /// ```
    /// use hybridmem_types::Address;
    ///
    /// assert_eq!(Address::new(8).offset(8), Address::new(16));
    /// ```
    #[must_use]
    pub const fn offset(self, bytes: u64) -> Self {
        Self(self.0.saturating_add(bytes))
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl From<u64> for Address {
    fn from(value: u64) -> Self {
        Self(value)
    }
}

impl From<Address> for u64 {
    fn from(value: Address) -> Self {
        value.0
    }
}

/// A virtual page number: a byte address divided by [`crate::PAGE_SIZE`].
///
/// The OS-level migration policies in this project manage memory at page
/// granularity, so `PageId` is the key used by LRU queues, clock rings,
/// page tables, and endurance counters.
///
/// The id is byte-aligned: `packed` drops its alignment to 1, so a
/// [`PageAccess`](crate::PageAccess) takes 9 bytes instead of 16 and a
/// materialized trace carries no padding. Every derived trait reads the
/// field by copy, so values, hashes, ordering and `Debug` output are those
/// of the `u64`.
///
/// # Examples
///
/// ```
/// use hybridmem_types::{page_of, Address, PageId, PAGE_SIZE};
///
/// assert_eq!(page_of(Address::new(3 * PAGE_SIZE as u64)), PageId::new(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(C, packed)]
pub struct PageId(u64);

const _: () = assert!(std::mem::size_of::<PageId>() == 8);
const _: () = assert!(std::mem::align_of::<PageId>() == 1);

impl PageId {
    /// Creates a page id from a raw page number.
    #[must_use]
    pub const fn new(value: u64) -> Self {
        Self(value)
    }

    /// Returns the raw page number.
    #[must_use]
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Returns the byte address of the first byte of this page.
    ///
    /// # Examples
    ///
    /// ```
    /// use hybridmem_types::{Address, PageId, PAGE_SIZE};
    ///
    /// assert_eq!(PageId::new(2).base_address(), Address::new(2 * PAGE_SIZE as u64));
    /// ```
    #[must_use]
    pub const fn base_address(self) -> Address {
        Address::new(self.0 * crate::PAGE_SIZE as u64)
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // A packed field cannot be borrowed, and `write!` borrows.
        let value = self.0;
        write!(f, "page#{value}")
    }
}

impl From<u64> for PageId {
    fn from(value: u64) -> Self {
        Self(value)
    }
}

impl From<PageId> for u64 {
    fn from(value: PageId) -> Self {
        value.0
    }
}

/// A CPU core identifier in the simulated multi-core system.
///
/// The DATE 2016 evaluation uses a quad-core configuration (Table II); the
/// generator gives each page a stable core, which only trace files record.
///
/// # Examples
///
/// ```
/// use hybridmem_types::CoreId;
///
/// let core = CoreId::new(3);
/// assert_eq!(core.index(), 3);
/// assert_eq!(format!("{core}"), "core3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(u16);

impl CoreId {
    /// Creates a core id.
    #[must_use]
    pub const fn new(index: u16) -> Self {
        Self(index)
    }

    /// Returns the zero-based core index.
    #[must_use]
    pub const fn index(self) -> u16 {
        self.0
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

impl From<u16> for CoreId {
    fn from(value: u16) -> Self {
        Self(value)
    }
}

impl From<CoreId> for u16 {
    fn from(value: CoreId) -> Self {
        value.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_roundtrip_and_formatting() {
        let a = Address::new(4096);
        assert_eq!(u64::from(a), 4096);
        assert_eq!(Address::from(4096u64), a);
        assert_eq!(format!("{a:x}"), "1000");
        assert_eq!(format!("{a:X}"), "1000");
        assert_eq!(format!("{a}"), "0x1000");
    }

    #[test]
    fn address_offset_saturates() {
        assert_eq!(Address::new(u64::MAX).offset(10), Address::new(u64::MAX));
        assert_eq!(Address::new(16).offset(48), Address::new(64));
    }

    #[test]
    fn page_id_base_address_is_page_aligned() {
        let p = PageId::new(7);
        assert_eq!(p.base_address().value() % crate::PAGE_SIZE as u64, 0);
        assert_eq!(p.base_address().value(), 7 * crate::PAGE_SIZE as u64);
    }

    #[test]
    fn page_id_ordering_follows_value() {
        assert!(PageId::new(1) < PageId::new(2));
        assert_eq!(PageId::new(5).value(), 5);
    }

    #[test]
    fn byte_aligned_page_id_hashes_orders_and_prints_as_its_u64() {
        let values = [0, 1, (1 << 32) - 1, 1 << 32, (1 << 52) + 7, u64::MAX];
        for a in values {
            let page = PageId::new(a);
            assert_eq!(crate::fx_hash_one(&page), crate::fx_hash_one(&a), "{a}");
            assert_eq!(format!("{page:?}"), format!("PageId({a:?})"));
            assert_eq!(format!("{page}"), format!("page#{a}"));
            for b in values {
                assert_eq!(page.cmp(&PageId::new(b)), a.cmp(&b), "{a} vs {b}");
                assert_eq!(page == PageId::new(b), a == b, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn core_id_display_and_index() {
        assert_eq!(CoreId::new(0).index(), 0);
        assert_eq!(format!("{}", CoreId::new(2)), "core2");
        assert_eq!(u16::from(CoreId::from(9u16)), 9);
    }
}
