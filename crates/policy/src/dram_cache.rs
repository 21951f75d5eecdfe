//! DRAM-as-a-cache architecture — the *other* hybrid organization the
//! paper's related work surveys ("A group of previous studies tried to use
//! DRAM as a caching layer for NVM memory" — Section III, citing Qureshi's
//! ISCA'09 design among others).
//!
//! All resident pages live in NVM; the DRAM module holds *copies* of the
//! hottest pages (inclusive cache, LRU, allocate-on-access, write-back).
//! The paper's criticism — "if the locality of the requests drops below a
//! threshold, the performance of the cache will be decreased" — falls out
//! directly: every NVM hit triggers a page copy into DRAM, so low-locality
//! traffic pays CLOCK-DWF-like migration volume without CLOCK-DWF's
//! write-filtering benefit.
//!
//! Cost mapping: copying a page into the cache reads NVM and writes DRAM —
//! identical to an NVM→DRAM migration, so it is reported as
//! [`PolicyAction::Migrate`]; evicting a *dirty* copy writes the page back
//! (a DRAM→NVM migration), while clean copies are dropped for free.
//!
//! # Examples
//!
//! ```
//! use hybridmem_policy::{DramCachePolicy, HybridPolicy};
//! use hybridmem_types::{MemoryKind, PageAccess, PageCount, PageId, Residency};
//!
//! let mut policy = DramCachePolicy::new(PageCount::new(2), PageCount::new(8))?;
//! policy.on_access(PageAccess::read(PageId::new(1)));  // fault → NVM + cached
//! assert_eq!(policy.residency(PageId::new(1)), Residency::InMemory(MemoryKind::Dram));
//! assert!(!policy.on_access(PageAccess::read(PageId::new(1))).fault);
//! # Ok::<(), hybridmem_types::Error>(())
//! ```

use hybridmem_types::{Error, MemoryKind, PageAccess, PageCount, PageId, Residency, Result};

use crate::{AccessOutcome, ActionList, HybridPolicy, LruQueue, PolicyAction};

/// DRAM-cache-over-NVM policy. See the module documentation (in the
/// source) for the architecture and cost mapping.
#[derive(Debug, Clone)]
pub struct DramCachePolicy {
    /// All resident pages (backing store), LRU-managed.
    nvm: LruQueue,
    /// Cached subset, each copy with its dirty bit; invariant: `cache ⊆ nvm`.
    cache: LruQueue<bool>,
    dram_capacity: PageCount,
    nvm_capacity: PageCount,
}

impl DramCachePolicy {
    /// Creates the policy: a DRAM cache of `dram_capacity` pages over an
    /// NVM backing store of `nvm_capacity` pages.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when either capacity is zero.
    pub fn new(dram_capacity: PageCount, nvm_capacity: PageCount) -> Result<Self> {
        if dram_capacity.is_zero() || nvm_capacity.is_zero() {
            return Err(Error::invalid_config(
                "DRAM and NVM capacities must both be at least one page",
            ));
        }
        Ok(Self {
            nvm: LruQueue::with_capacity(nvm_capacity.value() as usize),
            cache: LruQueue::with_capacity(dram_capacity.value() as usize),
            dram_capacity,
            nvm_capacity,
        })
    }

    /// Drops the cache's LRU copy, writing it back first when dirty.
    fn evict_cache_copy(&mut self, actions: &mut ActionList) {
        #[expect(clippy::expect_used, reason = "a full cache has a victim")]
        let (victim, dirty) = self.cache.evict_lru().expect("a full cache has a victim");
        if dirty {
            actions.push(PolicyAction::Migrate {
                page: victim,
                from: MemoryKind::Dram,
                to: MemoryKind::Nvm,
            });
        }
        // Clean copies vanish for free: the NVM master copy is current.
    }

    /// Admits `page` (already NVM-resident) into the DRAM cache.
    fn admit(&mut self, page: PageId, dirty: bool, actions: &mut ActionList) {
        if self.cache.len() as u64 >= self.dram_capacity.value() {
            self.evict_cache_copy(actions);
        }
        self.cache.insert(page, dirty);
        actions.push(PolicyAction::Migrate {
            page,
            from: MemoryKind::Nvm,
            to: MemoryKind::Dram,
        });
    }
}

impl HybridPolicy for DramCachePolicy {
    fn on_access(&mut self, access: PageAccess) -> AccessOutcome {
        let page = access.page;
        if let Some(dirty) = self.cache.touch(page) {
            *dirty |= access.kind.is_write();
            self.nvm.touch(page);
            return AccessOutcome::hit(MemoryKind::Dram);
        }
        if self.nvm.touch(page).is_some() {
            // Allocate-on-access: the miss in the cache costs a page copy.
            let mut actions = ActionList::new();
            self.admit(page, access.kind.is_write(), &mut actions);
            return AccessOutcome::hit_with(MemoryKind::Nvm, actions);
        }

        // Page fault: fill the NVM backing store, then cache the page.
        let mut actions = ActionList::new();
        if self.nvm.len() as u64 >= self.nvm_capacity.value() {
            #[expect(clippy::expect_used, reason = "a full NVM has a victim")]
            let (out, ()) = self.nvm.evict_lru().expect("a full NVM has a victim");
            // The evicted page's cache copy (if any) dies with it; any
            // dirty data goes to disk with the page, which the model does
            // not charge (DMA overlapped, as for all disk evictions).
            self.cache.remove(out);
            actions.push(PolicyAction::EvictToDisk {
                page: out,
                from: MemoryKind::Nvm,
            });
        }
        self.nvm.insert(page, ());
        actions.push(PolicyAction::FillFromDisk {
            page,
            into: MemoryKind::Nvm,
        });
        self.admit(page, access.kind.is_write(), &mut actions);
        AccessOutcome::fault_with(actions)
    }

    fn residency(&self, page: PageId) -> Residency {
        if self.cache.contains(page) {
            Residency::InMemory(MemoryKind::Dram)
        } else if self.nvm.contains(page) {
            Residency::InMemory(MemoryKind::Nvm)
        } else {
            Residency::OnDisk
        }
    }

    fn occupancy(&self, kind: MemoryKind) -> u64 {
        match kind {
            MemoryKind::Dram => self.cache.len() as u64,
            MemoryKind::Nvm => self.nvm.len() as u64,
        }
    }

    fn capacity(&self, kind: MemoryKind) -> PageCount {
        match kind {
            MemoryKind::Dram => self.dram_capacity,
            MemoryKind::Nvm => self.nvm_capacity,
        }
    }

    fn name(&self) -> &'static str {
        "dram-cache"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(n: u64) -> PageId {
        PageId::new(n)
    }

    fn policy(dram: u64, nvm: u64) -> DramCachePolicy {
        DramCachePolicy::new(PageCount::new(dram), PageCount::new(nvm)).unwrap()
    }

    #[test]
    fn zero_capacity_rejected() {
        assert!(DramCachePolicy::new(PageCount::new(0), PageCount::new(1)).is_err());
        assert!(DramCachePolicy::new(PageCount::new(1), PageCount::new(0)).is_err());
    }

    #[test]
    fn fault_fills_nvm_and_caches() {
        let mut p = policy(2, 4);
        let out = p.on_access(PageAccess::read(page(1)));
        assert!(out.fault);
        assert_eq!(
            out.actions,
            vec![
                PolicyAction::FillFromDisk {
                    page: page(1),
                    into: MemoryKind::Nvm
                },
                PolicyAction::Migrate {
                    page: page(1),
                    from: MemoryKind::Nvm,
                    to: MemoryKind::Dram
                },
            ]
        );
        assert_eq!(p.occupancy(MemoryKind::Dram), 1);
        assert_eq!(p.occupancy(MemoryKind::Nvm), 1, "NVM keeps the master copy");
    }

    #[test]
    fn cached_hits_are_free_dram_hits() {
        let mut p = policy(2, 4);
        p.on_access(PageAccess::read(page(1)));
        let out = p.on_access(PageAccess::write(page(1)));
        assert_eq!(out, AccessOutcome::hit(MemoryKind::Dram));
    }

    #[test]
    fn nvm_hit_admits_with_a_copy() {
        let mut p = policy(1, 4);
        p.on_access(PageAccess::read(page(1))); // cached
        p.on_access(PageAccess::read(page(2))); // evicts clean copy of 1
                                                // Page 1 is now NVM-only; touching it re-admits (copy cost).
        let out = p.on_access(PageAccess::read(page(1)));
        assert!(!out.fault);
        assert_eq!(out.served_from, Some(MemoryKind::Nvm));
        assert_eq!(out.migrations(), 1);
    }

    #[test]
    fn dirty_copies_write_back_on_eviction() {
        let mut p = policy(1, 4);
        p.on_access(PageAccess::write(page(1))); // cached dirty
        let out = p.on_access(PageAccess::read(page(2)));
        assert!(
            out.actions.contains(&PolicyAction::Migrate {
                page: page(1),
                from: MemoryKind::Dram,
                to: MemoryKind::Nvm
            }),
            "dirty eviction writes back: {:?}",
            out.actions
        );
        // Page 1 is still resident (in NVM).
        assert_eq!(p.residency(page(1)), Residency::InMemory(MemoryKind::Nvm));
    }

    #[test]
    fn clean_copies_drop_for_free() {
        let mut p = policy(1, 4);
        p.on_access(PageAccess::read(page(1))); // cached clean
        let out = p.on_access(PageAccess::read(page(2)));
        let write_backs = out
            .actions
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    PolicyAction::Migrate {
                        from: MemoryKind::Dram,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(write_backs, 0, "{:?}", out.actions);
    }

    #[test]
    fn cache_subset_invariant_and_bounds() {
        let mut p = policy(2, 3);
        for i in 0..120u64 {
            let access = if i % 3 == 0 {
                PageAccess::write(page(i % 7))
            } else {
                PageAccess::read(page(i % 7))
            };
            p.on_access(access);
            assert!(p.occupancy(MemoryKind::Dram) <= 2);
            assert!(p.occupancy(MemoryKind::Nvm) <= 3);
            // Every cached page has a master copy in NVM.
            for q in 0..7u64 {
                if p.cache.contains(page(q)) {
                    assert!(p.nvm.contains(page(q)), "cache ⊆ nvm violated for {q}");
                }
            }
        }
    }

    #[test]
    fn backing_eviction_drops_the_cache_copy() {
        let mut p = policy(3, 2);
        p.on_access(PageAccess::write(page(1)));
        p.on_access(PageAccess::write(page(2)));
        let out = p.on_access(PageAccess::read(page(3)));
        // NVM (cap 2) evicted page 1; its dirty cache copy must be gone too.
        assert!(out.actions.contains(&PolicyAction::EvictToDisk {
            page: page(1),
            from: MemoryKind::Nvm
        }));
        assert_eq!(p.residency(page(1)), Residency::OnDisk);
        assert!(p.occupancy(MemoryKind::Dram) <= 3);
    }

    #[test]
    fn name_and_capacity() {
        let p = policy(2, 4);
        assert_eq!(p.name(), "dram-cache");
        assert_eq!(p.capacity(MemoryKind::Dram), PageCount::new(2));
        assert_eq!(p.capacity(MemoryKind::Nvm), PageCount::new(4));
    }
}
