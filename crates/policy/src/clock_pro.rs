//! CLOCK-Pro-lite — a hybrid-memory adaptation of CLOCK-Pro (Jiang, Chen &
//! Zhang, USENIX ATC 2005), the strongest pre-CLOCK-DWF baseline the paper
//! cites ("[CLOCK-DWF] outperforms previous work such as CLOCK-PRO and
//! CAR").
//!
//! CLOCK-Pro distinguishes *hot* and *cold* pages and promotes a cold page
//! that proves its reuse during a *test period*. The natural hybrid-memory
//! mapping — used here — is:
//!
//! * hot pages live in **DRAM** (one clock over the DRAM frames),
//! * cold pages live in **NVM** (one clock, with per-frame test state),
//! * a bounded ghost list remembers recently evicted pages, so a quick
//!   re-fault is recognized as reuse and admitted directly as hot.
//!
//! Promotions and demotions between the rings are physical page migrations,
//! costed exactly like every other policy's. This is deliberately a *lite*
//! variant: the adaptive hot/cold target sizing and the third (test) hand
//! of full CLOCK-Pro are folded into the two-ring structure — cold-page
//! test periods end when the cold clock's scan passes the frame.
//!
//! # Examples
//!
//! ```
//! use hybridmem_policy::{ClockProPolicy, HybridPolicy};
//! use hybridmem_types::{MemoryKind, PageAccess, PageCount, PageId, Residency};
//!
//! let mut policy = ClockProPolicy::new(PageCount::new(2), PageCount::new(8))?;
//! policy.on_access(PageAccess::read(PageId::new(1)));
//! assert_eq!(policy.residency(PageId::new(1)), Residency::InMemory(MemoryKind::Nvm));
//! // The next hit starts the page's test period; the one after that
//! // proves reuse and promotes the page to DRAM.
//! policy.on_access(PageAccess::read(PageId::new(1)));
//! policy.on_access(PageAccess::read(PageId::new(1)));
//! assert_eq!(policy.residency(PageId::new(1)), Residency::InMemory(MemoryKind::Dram));
//! # Ok::<(), hybridmem_types::Error>(())
//! ```

use hybridmem_types::{Error, MemoryKind, PageAccess, PageCount, PageId, Residency, Result};

use crate::{AccessOutcome, ActionList, ClockRing, HybridPolicy, LruQueue, PolicyAction};

/// Per-frame state of a cold (NVM-resident) page.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ColdMeta {
    /// True once the page has been re-referenced and is in its test period;
    /// the next reference promotes it to hot.
    in_test: bool,
}

/// The CLOCK-Pro-lite hybrid policy. See the module docs (in the source).
#[derive(Debug, Clone)]
pub struct ClockProPolicy {
    hot: ClockRing<()>,
    cold: ClockRing<ColdMeta>,
    /// Recently evicted pages ("non-resident cold pages" in CLOCK-Pro), at
    /// most as many as NVM holds. Ghosts are never touched, so the queue's
    /// LRU end is the page evicted longest ago, and it leaves first.
    ghosts: LruQueue,
    dram_capacity: PageCount,
    nvm_capacity: PageCount,
}

impl ClockProPolicy {
    /// Creates the policy with the given module capacities. The ghost list
    /// is sized to the NVM capacity, as in CLOCK-Pro (non-resident pages
    /// tracked up to the memory size).
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
            hot: ClockRing::new(dram_capacity.value() as usize),
            cold: ClockRing::new(nvm_capacity.value() as usize),
            ghosts: LruQueue::new(),
            dram_capacity,
            nvm_capacity,
        })
    }

    /// Remembers `page`, just evicted, dropping the oldest ghost past
    /// capacity. A resident page is never a ghost: a ghost's refault
    /// forgets it.
    fn remember_ghost(&mut self, page: PageId) {
        self.ghosts.insert(page, ());
        if self.ghosts.len() as u64 > self.nvm_capacity.value() {
            self.ghosts.evict_lru();
        }
    }

    /// Evicts one cold page to disk; its test period ends unrewarded, so it
    /// becomes a ghost (CLOCK-Pro's non-resident cold page).
    fn evict_cold(&mut self, actions: &mut ActionList) {
        let (victim, _meta) = self.cold.evict_with(|meta| {
            // The scan ends test periods instead of granting extra chances.
            meta.in_test = false;
            false
        });
        self.remember_ghost(victim);
        actions.push(PolicyAction::EvictToDisk {
            page: victim,
            from: MemoryKind::Nvm,
        });
    }

    /// Makes room in the hot ring by demoting its scan victim to cold
    /// (a DRAM→NVM migration), evicting a cold page first when needed.
    fn demote_hot_victim(&mut self, actions: &mut ActionList) {
        debug_assert!(self.hot.is_full());
        if self.cold.is_full() {
            self.evict_cold(actions);
        }
        let (victim, ()) = self.hot.evict_with(|()| false);
        self.cold.insert(victim, ColdMeta::default());
        actions.push(PolicyAction::Migrate {
            page: victim,
            from: MemoryKind::Dram,
            to: MemoryKind::Nvm,
        });
    }

    /// Promotes `page` from the cold to the hot ring (NVM→DRAM migration).
    fn promote(&mut self, page: PageId, actions: &mut ActionList) {
        self.cold.remove(page);
        if self.hot.is_full() {
            // The promotion freed a cold slot, so the demotion fits.
            let (victim, ()) = self.hot.evict_with(|()| false);
            self.cold.insert(victim, ColdMeta::default());
            actions.push(PolicyAction::Migrate {
                page: victim,
                from: MemoryKind::Dram,
                to: MemoryKind::Nvm,
            });
        }
        self.hot.insert(page, ());
        actions.push(PolicyAction::Migrate {
            page,
            from: MemoryKind::Nvm,
            to: MemoryKind::Dram,
        });
    }
}

impl HybridPolicy for ClockProPolicy {
    fn on_access(&mut self, access: PageAccess) -> AccessOutcome {
        let page = access.page;
        if self.hot.touch(page).is_some() {
            return AccessOutcome::hit(MemoryKind::Dram);
        }
        if let Some(meta) = self.cold.touch(page) {
            if !meta.in_test {
                meta.in_test = true;
                return AccessOutcome::hit(MemoryKind::Nvm);
            }
            // Re-reference within the test period: the page is hot.
            let mut actions = ActionList::new();
            self.promote(page, &mut actions);
            return AccessOutcome::hit_with(MemoryKind::Nvm, actions);
        }

        // Page fault. A ghost hit proves reuse across eviction: admit hot.
        let mut actions = ActionList::new();
        if self.ghosts.remove(page).is_some() {
            if self.hot.is_full() {
                self.demote_hot_victim(&mut actions);
            }
            self.hot.insert(page, ());
            actions.push(PolicyAction::FillFromDisk {
                page,
                into: MemoryKind::Dram,
            });
        } else {
            if self.cold.is_full() {
                self.evict_cold(&mut actions);
            }
            self.cold.insert(page, ColdMeta::default());
            actions.push(PolicyAction::FillFromDisk {
                page,
                into: MemoryKind::Nvm,
            });
        }
        AccessOutcome::fault_with(actions)
    }

    fn residency(&self, page: PageId) -> Residency {
        if self.hot.contains(page) {
            Residency::InMemory(MemoryKind::Dram)
        } else if self.cold.contains(page) {
            Residency::InMemory(MemoryKind::Nvm)
        } else {
            Residency::OnDisk
        }
    }

    fn occupancy(&self, kind: MemoryKind) -> u64 {
        match kind {
            MemoryKind::Dram => self.hot.len() as u64,
            MemoryKind::Nvm => self.cold.len() as u64,
        }
    }

    fn capacity(&self, kind: MemoryKind) -> PageCount {
        match kind {
            MemoryKind::Dram => self.dram_capacity,
            MemoryKind::Nvm => self.nvm_capacity,
        }
    }

    fn name(&self) -> &'static str {
        "clock-pro"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(n: u64) -> PageId {
        PageId::new(n)
    }

    fn policy(dram: u64, nvm: u64) -> ClockProPolicy {
        ClockProPolicy::new(PageCount::new(dram), PageCount::new(nvm)).unwrap()
    }

    #[test]
    fn zero_capacity_rejected() {
        assert!(ClockProPolicy::new(PageCount::new(0), PageCount::new(1)).is_err());
        assert!(ClockProPolicy::new(PageCount::new(1), PageCount::new(0)).is_err());
    }

    #[test]
    fn first_fault_fills_cold_nvm() {
        let mut p = policy(2, 4);
        let out = p.on_access(PageAccess::read(page(1)));
        assert!(out.fault);
        assert_eq!(
            out.actions,
            vec![PolicyAction::FillFromDisk {
                page: page(1),
                into: MemoryKind::Nvm
            }]
        );
    }

    #[test]
    fn second_and_third_references_promote() {
        let mut p = policy(2, 4);
        p.on_access(PageAccess::read(page(1))); // fault → cold
        let second = p.on_access(PageAccess::read(page(1))); // starts test
        assert_eq!(second, AccessOutcome::hit(MemoryKind::Nvm));
        let third = p.on_access(PageAccess::read(page(1))); // promotes
        assert_eq!(third.migrations(), 1);
        assert_eq!(p.residency(page(1)), Residency::InMemory(MemoryKind::Dram));
    }

    #[test]
    fn promotion_with_full_dram_swaps() {
        let mut p = policy(1, 4);
        for n in [1u64, 2] {
            p.on_access(PageAccess::read(page(n)));
            p.on_access(PageAccess::read(page(n)));
            p.on_access(PageAccess::read(page(n)));
        }
        // Page 1 was promoted first; promoting page 2 demotes page 1.
        assert_eq!(p.residency(page(2)), Residency::InMemory(MemoryKind::Dram));
        assert_eq!(p.residency(page(1)), Residency::InMemory(MemoryKind::Nvm));
        assert_eq!(p.occupancy(MemoryKind::Dram), 1);
    }

    #[test]
    fn ghost_refault_is_admitted_hot() {
        let mut p = policy(2, 2);
        p.on_access(PageAccess::read(page(1))); // cold
        p.on_access(PageAccess::read(page(2))); // cold (full)
        p.on_access(PageAccess::read(page(3))); // evicts a cold page → ghost
                                                // One of pages 1/2 is now a ghost; find it and re-fault it.
        let ghost = if p.residency(page(1)) == Residency::OnDisk {
            page(1)
        } else {
            page(2)
        };
        let out = p.on_access(PageAccess::read(ghost));
        assert!(out.fault);
        assert!(
            out.actions.contains(&PolicyAction::FillFromDisk {
                page: ghost,
                into: MemoryKind::Dram
            }),
            "ghost hits are admitted directly into DRAM: {:?}",
            out.actions
        );
    }

    #[test]
    fn ghost_list_is_bounded() {
        let mut p = policy(1, 2);
        for n in 0..100u64 {
            p.on_access(PageAccess::read(page(n)));
        }
        assert!(p.ghosts.len() <= 2);
    }

    #[test]
    fn ghosts_leave_oldest_first() {
        let mut p = policy(1, 2);
        let mut evicted = Vec::new();
        for n in 0..6u64 {
            let out = p.on_access(PageAccess::read(page(n)));
            for action in &out.actions {
                if let PolicyAction::EvictToDisk { page, .. } = *action {
                    evicted.push(page);
                }
            }
        }
        // Six cold fills into two NVM frames evict four pages; the two
        // ghost slots keep the last two, newest first.
        assert_eq!(evicted.len(), 4);
        let kept: Vec<PageId> = evicted.iter().rev().take(2).copied().collect();
        assert_eq!(p.ghosts.pages_by_recency(), kept);
        // A retained ghost refaults hot; one dropped past capacity cold.
        let out = p.on_access(PageAccess::read(kept[1]));
        assert!(out.actions.contains(&PolicyAction::FillFromDisk {
            page: kept[1],
            into: MemoryKind::Dram
        }));
        let out = p.on_access(PageAccess::read(evicted[0]));
        assert!(out.actions.contains(&PolicyAction::FillFromDisk {
            page: evicted[0],
            into: MemoryKind::Nvm
        }));
    }

    #[test]
    fn occupancy_respects_capacities() {
        let mut p = policy(2, 3);
        for i in 0..200u64 {
            let access = if i % 4 == 0 {
                PageAccess::write(page(i % 9))
            } else {
                PageAccess::read(page(i % 9))
            };
            p.on_access(access);
            assert!(p.occupancy(MemoryKind::Dram) <= 2);
            assert!(p.occupancy(MemoryKind::Nvm) <= 3);
        }
    }

    #[test]
    fn name_and_capacity() {
        let p = policy(2, 4);
        assert_eq!(p.name(), "clock-pro");
        assert_eq!(p.capacity(MemoryKind::Dram), PageCount::new(2));
        assert_eq!(p.capacity(MemoryKind::Nvm), PageCount::new(4));
    }
}
