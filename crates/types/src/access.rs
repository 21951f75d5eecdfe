//! Memory-access vocabulary: request kinds and trace records.

use std::fmt;

use crate::{page_of, Address, CoreId, PageId};

/// The direction of a memory request.
///
/// NVM technologies are strongly asymmetric between reads and writes in both
/// latency and energy (Table IV: PCM reads 100 ns / 6.4 nJ, writes
/// 350 ns / 32 nJ), so every layer of the simulator carries the request kind.
///
/// # Examples
///
/// ```
/// use hybridmem_types::AccessKind;
///
/// assert!(AccessKind::Write.is_write());
/// assert_eq!(AccessKind::Read.flipped(), AccessKind::Write);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessKind {
    /// A load from memory.
    Read,
    /// A store to memory.
    Write,
}

impl AccessKind {
    /// Returns true for [`AccessKind::Read`].
    #[must_use]
    pub const fn is_read(self) -> bool {
        matches!(self, Self::Read)
    }

    /// Returns true for [`AccessKind::Write`].
    #[must_use]
    pub const fn is_write(self) -> bool {
        matches!(self, Self::Write)
    }

    /// Returns the opposite kind.
    #[must_use]
    pub const fn flipped(self) -> Self {
        match self {
            Self::Read => Self::Write,
            Self::Write => Self::Read,
        }
    }

    /// All kinds, in a stable order (reads first).
    #[must_use]
    pub const fn all() -> [Self; 2] {
        [Self::Read, Self::Write]
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Read => f.write_str("read"),
            Self::Write => f.write_str("write"),
        }
    }
}

/// One byte-addressed memory access, as produced by the trace generator
/// and stored in trace files; the simulator replays its [`PageAccess`].
///
/// # Examples
///
/// ```
/// use hybridmem_types::{Access, AccessKind, Address, CoreId};
///
/// let a = Access::new(Address::new(64), AccessKind::Read, CoreId::new(1));
/// assert_eq!(a.page().value(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Access {
    /// Byte address touched by the request.
    pub address: Address,
    /// Load or store.
    pub kind: AccessKind,
    /// Core issuing the request. Trace files record it; no model reads it.
    pub core: CoreId,
}

impl Access {
    /// Creates an access record.
    #[must_use]
    pub const fn new(address: Address, kind: AccessKind, core: CoreId) -> Self {
        Self {
            address,
            kind,
            core,
        }
    }

    /// Convenience constructor for a read.
    #[must_use]
    pub const fn read(address: Address, core: CoreId) -> Self {
        Self::new(address, AccessKind::Read, core)
    }

    /// Convenience constructor for a write.
    #[must_use]
    pub const fn write(address: Address, core: CoreId) -> Self {
        Self::new(address, AccessKind::Write, core)
    }

    /// Returns the page this access falls in.
    #[must_use]
    pub const fn page(self) -> PageId {
        page_of(self.address)
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} @{}", self.core, self.kind, self.address)
    }
}

/// One page-granular main-memory access, as seen by the OS-level migration
/// policies after cache filtering.
///
/// This is the unit Algorithm 1 of the paper operates on: "in case of
/// arriving a request", where the request names a page and a direction.
/// A materialized trace is a slice of these, 9 bytes each: [`PageId`] is
/// byte-aligned, so the kind's byte follows the id with no padding.
///
/// # Examples
///
/// ```
/// use hybridmem_types::{AccessKind, PageAccess, PageId};
///
/// let pa = PageAccess::write(PageId::new(9));
/// assert!(pa.kind.is_write());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
// Page first, as declared: a 9-byte access is passed to a non-inlined
// `on_access` through a stack copy made as one 8-byte and one 1-byte
// store, and with the kind first the callee's 8-byte load of the page
// would straddle both stores and miss store-to-load forwarding.
#[repr(C)]
pub struct PageAccess {
    /// Page being requested.
    pub page: PageId,
    /// Load or store.
    pub kind: AccessKind,
}

const _: () = assert!(std::mem::size_of::<PageAccess>() == 9);
const _: () = assert!(std::mem::offset_of!(PageAccess, page) == 0);

impl PageAccess {
    /// Creates a page access record.
    #[must_use]
    pub const fn new(page: PageId, kind: AccessKind) -> Self {
        Self { page, kind }
    }

    /// Convenience constructor for a page read.
    #[must_use]
    pub const fn read(page: PageId) -> Self {
        Self::new(page, AccessKind::Read)
    }

    /// Convenience constructor for a page write.
    #[must_use]
    pub const fn write(page: PageId) -> Self {
        Self::new(page, AccessKind::Write)
    }
}

impl From<Access> for PageAccess {
    fn from(access: Access) -> Self {
        Self::new(access.page(), access.kind)
    }
}

impl fmt::Display for PageAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.kind, self.page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAGE_SIZE;

    #[test]
    fn kind_predicates_are_exclusive() {
        for kind in AccessKind::all() {
            assert_ne!(kind.is_read(), kind.is_write());
            assert_eq!(kind.flipped().flipped(), kind);
        }
    }

    #[test]
    fn access_page_math() {
        let a = Access::read(Address::new(5 * PAGE_SIZE as u64 + 7), CoreId::new(0));
        assert_eq!(a.page(), PageId::new(5));
        let pa = PageAccess::from(a);
        assert_eq!(pa.page, PageId::new(5));
        assert!(pa.kind.is_read());
    }

    #[test]
    fn constructors_set_kind() {
        assert!(Access::write(Address::new(0), CoreId::new(0))
            .kind
            .is_write());
        assert!(Access::read(Address::new(0), CoreId::new(0)).kind.is_read());
        assert!(PageAccess::write(PageId::new(1)).kind.is_write());
        assert!(PageAccess::read(PageId::new(1)).kind.is_read());
    }

    #[test]
    fn display_is_nonempty_and_informative() {
        let a = Access::write(Address::new(4096), CoreId::new(2));
        let s = format!("{a}");
        assert!(s.contains("core2") && s.contains("write") && s.contains("0x1000"));
        assert_eq!(
            format!("{}", PageAccess::read(PageId::new(3))),
            "read page#3"
        );
    }
}
