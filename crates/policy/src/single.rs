//! Single-technology baselines: DRAM-only and NVM-only main memory with LRU.
//!
//! The paper normalizes its power results to a "DRAM-only main memory with
//! LRU algorithm as the eviction policy" (Fig. 1, Fig. 2a, Fig. 4a) and its
//! endurance results to an NVM-only memory (Fig. 2c, Fig. 4b). Both are the
//! same policy over a different module, so one type covers them.
//!
//! # Examples
//!
//! ```
//! use hybridmem_policy::{HybridPolicy, SingleTierPolicy};
//! use hybridmem_types::{MemoryKind, PageAccess, PageCount, PageId};
//!
//! let mut dram_only = SingleTierPolicy::dram_only(PageCount::new(100))?;
//! let out = dram_only.on_access(PageAccess::read(PageId::new(1)));
//! assert!(out.fault);
//! assert_eq!(dram_only.occupancy(MemoryKind::Dram), 1);
//! assert_eq!(dram_only.capacity(MemoryKind::Nvm), PageCount::new(0));
//! # Ok::<(), hybridmem_types::Error>(())
//! ```

use hybridmem_types::{Error, MemoryKind, PageAccess, PageCount, PageId, Residency, Result};

use crate::traits::miss_actions;
use crate::{AccessOutcome, HybridPolicy, LruQueue, PolicyAction};

/// An LRU-managed main memory made of a single technology.
#[derive(Debug, Clone)]
pub struct SingleTierPolicy {
    kind: MemoryKind,
    capacity: PageCount,
    // Plain LRU needs no rank queries, so the queue keeps no rank index.
    lru: LruQueue,
}

impl SingleTierPolicy {
    /// Creates a single-tier memory of `kind` with the given capacity.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the capacity is zero.
    pub fn new(kind: MemoryKind, capacity: PageCount) -> Result<Self> {
        if capacity.is_zero() {
            return Err(Error::invalid_config(
                "single-tier capacity must be at least one page",
            ));
        }
        Ok(Self {
            kind,
            capacity,
            lru: LruQueue::with_capacity(capacity.value() as usize),
        })
    }

    /// Convenience constructor for the DRAM-only baseline.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the capacity is zero.
    pub fn dram_only(capacity: PageCount) -> Result<Self> {
        Self::new(MemoryKind::Dram, capacity)
    }

    /// Convenience constructor for the NVM-only baseline.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the capacity is zero.
    pub fn nvm_only(capacity: PageCount) -> Result<Self> {
        Self::new(MemoryKind::Nvm, capacity)
    }

    /// The single technology this memory is built from.
    #[must_use]
    pub const fn kind(&self) -> MemoryKind {
        self.kind
    }

    /// Handles a page fault: fills `page`, evicting the LRU page to disk
    /// when the memory is full, and returns the evicted page.
    #[inline(never)]
    fn on_fault(&mut self, page: PageId) -> Option<PageId> {
        let evicted = if self.lru.len() as u64 >= self.capacity.value() {
            self.lru.evict_lru().map(|(victim, ())| victim)
        } else {
            None
        };
        self.lru.insert(page, ());
        evicted
    }
}

impl HybridPolicy for SingleTierPolicy {
    /// A hit, the common case in a warm memory, is inlined; the default
    /// batch loop records it as a one-byte step. The fault runs out of
    /// line and returns only the evicted page.
    #[inline]
    fn on_access(&mut self, access: PageAccess) -> AccessOutcome {
        let page = access.page;
        if self.lru.touch(page).is_some() {
            return AccessOutcome::hit(self.kind);
        }
        let from = self.kind;
        let evicted = self.on_fault(page);
        AccessOutcome::fault_with(miss_actions(
            evicted.map(|page| PolicyAction::EvictToDisk { page, from }),
            None,
            PolicyAction::FillFromDisk { page, into: from },
        ))
    }

    fn residency(&self, page: PageId) -> Residency {
        if self.lru.contains(page) {
            Residency::InMemory(self.kind)
        } else {
            Residency::OnDisk
        }
    }

    fn occupancy(&self, kind: MemoryKind) -> u64 {
        if kind == self.kind {
            self.lru.len() as u64
        } else {
            0
        }
    }

    fn capacity(&self, kind: MemoryKind) -> PageCount {
        if kind == self.kind {
            self.capacity
        } else {
            PageCount::new(0)
        }
    }

    fn name(&self) -> &'static str {
        match self.kind {
            MemoryKind::Dram => "dram-only",
            MemoryKind::Nvm => "nvm-only",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(n: u64) -> PageId {
        PageId::new(n)
    }

    #[test]
    fn zero_capacity_rejected() {
        assert!(SingleTierPolicy::dram_only(PageCount::new(0)).is_err());
    }

    #[test]
    fn hits_after_fill() {
        let mut p = SingleTierPolicy::nvm_only(PageCount::new(2)).unwrap();
        assert!(p.on_access(PageAccess::read(page(1))).fault);
        let out = p.on_access(PageAccess::write(page(1)));
        assert_eq!(out, AccessOutcome::hit(MemoryKind::Nvm));
    }

    #[test]
    fn eviction_is_lru_order() {
        let mut p = SingleTierPolicy::dram_only(PageCount::new(2)).unwrap();
        p.on_access(PageAccess::read(page(1)));
        p.on_access(PageAccess::read(page(2)));
        p.on_access(PageAccess::read(page(1))); // 1 becomes MRU
        let out = p.on_access(PageAccess::read(page(3)));
        assert_eq!(
            out.actions[0],
            PolicyAction::EvictToDisk {
                page: page(2),
                from: MemoryKind::Dram
            }
        );
        assert_eq!(p.residency(page(2)), Residency::OnDisk);
        assert_eq!(p.residency(page(1)), Residency::InMemory(MemoryKind::Dram));
    }

    #[test]
    fn other_tier_reports_empty() {
        let p = SingleTierPolicy::dram_only(PageCount::new(4)).unwrap();
        assert_eq!(p.occupancy(MemoryKind::Nvm), 0);
        assert_eq!(p.capacity(MemoryKind::Nvm), PageCount::new(0));
        assert_eq!(p.kind(), MemoryKind::Dram);
    }

    #[test]
    fn names_differ_by_kind() {
        assert_eq!(
            SingleTierPolicy::dram_only(PageCount::new(1))
                .unwrap()
                .name(),
            "dram-only"
        );
        assert_eq!(
            SingleTierPolicy::nvm_only(PageCount::new(1))
                .unwrap()
                .name(),
            "nvm-only"
        );
    }

    #[test]
    fn never_migrates() {
        let mut p = SingleTierPolicy::nvm_only(PageCount::new(3)).unwrap();
        for i in 0..100u64 {
            let out = p.on_access(PageAccess::write(page(i % 7)));
            assert_eq!(out.migrations(), 0);
        }
    }
}
