//! CLOCK-DWF (Lee, Bahn & Noh, IEEE TC 2013) — the state-of-the-art
//! baseline the paper compares against.
//!
//! CLOCK-DWF ("CLOCK with Dirty bits and Write Frequency") manages a hybrid
//! PCM+DRAM memory with two clock rings:
//!
//! * **NVM ring** — a traditional CLOCK, with one twist: *no write is ever
//!   served by NVM*. A write hit on an NVM-resident page immediately
//!   migrates the page to DRAM (evicting a DRAM page to NVM when DRAM is
//!   full). This protects PCM cells from demand writes but — as the paper's
//!   motivation section shows — floods the system with page migrations,
//!   each costing `PageFactor` memory accesses.
//! * **DRAM ring** — a write-history-aware CLOCK that tries to keep
//!   write-dominant pages in DRAM and demote read-dominant pages to NVM:
//!   frames carry a write-frequency counter that earns extra scan chances
//!   and decays each time it is spent.
//!
//! On a page fault, a write fills into DRAM and a read fills into NVM —
//! except that reads also fill into DRAM while DRAM has free frames (the
//! paper notes this for `blackscholes`: "when DRAM is empty, the data page
//! will be moved to DRAM regardless of the type of the request").
//!
//! # Examples
//!
//! ```
//! use hybridmem_policy::{ClockDwfPolicy, HybridPolicy};
//! use hybridmem_types::{MemoryKind, PageAccess, PageCount, PageId, Residency};
//!
//! let mut policy = ClockDwfPolicy::new(PageCount::new(2), PageCount::new(8))?;
//! // A read fault with free DRAM fills DRAM...
//! policy.on_access(PageAccess::read(PageId::new(1)));
//! assert_eq!(policy.residency(PageId::new(1)), Residency::InMemory(MemoryKind::Dram));
//! # Ok::<(), hybridmem_types::Error>(())
//! ```

use hybridmem_types::{
    AccessKind, Error, MemoryKind, PageAccess, PageCount, PageId, Residency, Result,
};

use crate::{AccessOutcome, ActionList, ClockRing, HybridPolicy, PolicyAction};

/// Per-frame metadata of the DRAM ring: the page's write history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct WriteHistory {
    /// Decaying count of write hits while resident in DRAM.
    writes: u32,
}

/// The CLOCK-DWF hybrid-memory policy.
///
/// See the module documentation (in the source) for the algorithm.
#[derive(Debug, Clone)]
pub struct ClockDwfPolicy {
    dram: ClockRing<WriteHistory>,
    nvm: ClockRing<()>,
    dram_capacity: PageCount,
    nvm_capacity: PageCount,
}

impl ClockDwfPolicy {
    /// Creates the policy with the given module capacities.
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
            dram: ClockRing::new(dram_capacity.value() as usize),
            nvm: ClockRing::new(nvm_capacity.value() as usize),
            dram_capacity,
            nvm_capacity,
        })
    }

    /// The write-history scan predicate: a frame with remaining write
    /// history is spared and its history decays (halves), so pages written
    /// often in DRAM survive several scans before demotion.
    fn spare_write_dominant(history: &mut WriteHistory) -> bool {
        if history.writes > 0 {
            history.writes /= 2;
            true
        } else {
            false
        }
    }

    /// Frees one DRAM frame by demoting the scan victim to NVM, evicting an
    /// NVM page to disk first when NVM is also full. Returns the actions in
    /// execution order.
    fn make_dram_room(&mut self, actions: &mut ActionList) {
        debug_assert!(self.dram.is_full());
        if self.nvm.is_full() {
            let (out, ()) = self.nvm.evict_with(|()| false);
            actions.push(PolicyAction::EvictToDisk {
                page: out,
                from: MemoryKind::Nvm,
            });
        }
        let (victim, _history) = self.dram.evict_with(Self::spare_write_dominant);
        self.nvm.insert(victim, ());
        actions.push(PolicyAction::Migrate {
            page: victim,
            from: MemoryKind::Dram,
            to: MemoryKind::Nvm,
        });
    }

    /// Handles a write hit on an NVM page: unconditional migration to DRAM.
    fn on_nvm_write_hit(&mut self, page: PageId) -> AccessOutcome {
        let mut actions = ActionList::new();
        self.nvm.remove(page);
        if self.dram.is_full() {
            // The promotion frees an NVM slot, so the demoted DRAM victim
            // always fits without a disk eviction.
            let (victim, _history) = self.dram.evict_with(Self::spare_write_dominant);
            self.nvm.insert(victim, ());
            actions.push(PolicyAction::Migrate {
                page: victim,
                from: MemoryKind::Dram,
                to: MemoryKind::Nvm,
            });
        }
        self.dram.insert(page, WriteHistory { writes: 1 });
        actions.push(PolicyAction::Migrate {
            page,
            from: MemoryKind::Nvm,
            to: MemoryKind::Dram,
        });
        // The write is ultimately serviced by DRAM — CLOCK-DWF never lets a
        // demand write reach NVM.
        AccessOutcome::hit_with(MemoryKind::Dram, actions)
    }

    /// Handles a page fault: writes fill DRAM; reads fill NVM unless DRAM
    /// still has free frames.
    fn on_fault(&mut self, page: PageId, kind: AccessKind) -> AccessOutcome {
        let mut actions = ActionList::new();
        let into = match kind {
            AccessKind::Write => MemoryKind::Dram,
            AccessKind::Read => {
                if self.dram.is_full() {
                    MemoryKind::Nvm
                } else {
                    MemoryKind::Dram
                }
            }
        };
        match into {
            MemoryKind::Dram => {
                if self.dram.is_full() {
                    self.make_dram_room(&mut actions);
                }
                let writes = u32::from(kind.is_write());
                self.dram.insert(page, WriteHistory { writes });
            }
            MemoryKind::Nvm => {
                if self.nvm.is_full() {
                    let (out, ()) = self.nvm.evict_with(|()| false);
                    actions.push(PolicyAction::EvictToDisk {
                        page: out,
                        from: MemoryKind::Nvm,
                    });
                }
                self.nvm.insert(page, ());
            }
        }
        actions.push(PolicyAction::FillFromDisk { page, into });
        AccessOutcome::fault_with(actions)
    }
}

impl HybridPolicy for ClockDwfPolicy {
    fn on_access(&mut self, access: PageAccess) -> AccessOutcome {
        // One ring lookup per hit: `touch` both finds and references.
        if let Some(history) = self.dram.touch(access.page) {
            if access.kind.is_write() {
                history.writes = history.writes.saturating_add(1);
            }
            return AccessOutcome::hit(MemoryKind::Dram);
        }
        match access.kind {
            AccessKind::Read if self.nvm.touch(access.page).is_some() => {
                AccessOutcome::hit(MemoryKind::Nvm)
            }
            AccessKind::Write if self.nvm.contains(access.page) => {
                self.on_nvm_write_hit(access.page)
            }
            AccessKind::Read | AccessKind::Write => self.on_fault(access.page, access.kind),
        }
    }

    fn residency(&self, page: PageId) -> Residency {
        if self.dram.contains(page) {
            Residency::InMemory(MemoryKind::Dram)
        } else if self.nvm.contains(page) {
            Residency::InMemory(MemoryKind::Nvm)
        } else {
            Residency::OnDisk
        }
    }

    fn occupancy(&self, kind: MemoryKind) -> u64 {
        match kind {
            MemoryKind::Dram => self.dram.len() as u64,
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
        "clock-dwf"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(n: u64) -> PageId {
        PageId::new(n)
    }

    fn policy(dram: u64, nvm: u64) -> ClockDwfPolicy {
        ClockDwfPolicy::new(PageCount::new(dram), PageCount::new(nvm)).unwrap()
    }

    #[test]
    fn zero_capacity_rejected() {
        assert!(ClockDwfPolicy::new(PageCount::new(0), PageCount::new(1)).is_err());
        assert!(ClockDwfPolicy::new(PageCount::new(1), PageCount::new(0)).is_err());
    }

    #[test]
    fn write_fault_fills_dram() {
        let mut p = policy(2, 4);
        let out = p.on_access(PageAccess::write(page(1)));
        assert!(out.fault);
        assert_eq!(
            out.actions,
            vec![PolicyAction::FillFromDisk {
                page: page(1),
                into: MemoryKind::Dram
            }]
        );
    }

    #[test]
    fn read_fault_fills_nvm_once_dram_is_full() {
        let mut p = policy(1, 4);
        p.on_access(PageAccess::read(page(1))); // free DRAM → DRAM
        assert_eq!(p.residency(page(1)), Residency::InMemory(MemoryKind::Dram));
        let out = p.on_access(PageAccess::read(page(2)));
        assert_eq!(
            out.actions,
            vec![PolicyAction::FillFromDisk {
                page: page(2),
                into: MemoryKind::Nvm
            }]
        );
        assert_eq!(p.residency(page(2)), Residency::InMemory(MemoryKind::Nvm));
    }

    #[test]
    fn nvm_read_hit_stays_in_nvm() {
        let mut p = policy(1, 4);
        p.on_access(PageAccess::read(page(1)));
        p.on_access(PageAccess::read(page(2))); // → NVM
        let out = p.on_access(PageAccess::read(page(2)));
        assert_eq!(out, AccessOutcome::hit(MemoryKind::Nvm));
    }

    #[test]
    fn nvm_write_hit_always_migrates() {
        let mut p = policy(1, 4);
        p.on_access(PageAccess::read(page(1))); // DRAM
        p.on_access(PageAccess::read(page(2))); // NVM
        let out = p.on_access(PageAccess::write(page(2)));
        assert!(!out.fault);
        assert_eq!(out.served_from, Some(MemoryKind::Dram));
        assert_eq!(
            out.actions,
            vec![
                PolicyAction::Migrate {
                    page: page(1),
                    from: MemoryKind::Dram,
                    to: MemoryKind::Nvm
                },
                PolicyAction::Migrate {
                    page: page(2),
                    from: MemoryKind::Nvm,
                    to: MemoryKind::Dram
                },
            ]
        );
        assert_eq!(p.residency(page(2)), Residency::InMemory(MemoryKind::Dram));
        assert_eq!(p.residency(page(1)), Residency::InMemory(MemoryKind::Nvm));
    }

    #[test]
    fn no_demand_write_is_ever_served_by_nvm() {
        let mut p = policy(2, 4);
        let mut writes_served_by_nvm = 0;
        for i in 0..200u64 {
            let acc = if i % 3 == 0 {
                PageAccess::write(page(i % 10))
            } else {
                PageAccess::read(page(i % 10))
            };
            let out = p.on_access(acc);
            if acc.kind.is_write() && out.served_from == Some(MemoryKind::Nvm) {
                writes_served_by_nvm += 1;
            }
        }
        assert_eq!(writes_served_by_nvm, 0);
    }

    #[test]
    fn write_fault_with_full_memory_cascades() {
        let mut p = policy(1, 1);
        p.on_access(PageAccess::write(page(1))); // DRAM
        p.on_access(PageAccess::read(page(2))); // NVM (DRAM full)
        let out = p.on_access(PageAccess::write(page(3)));
        assert_eq!(
            out.actions,
            vec![
                PolicyAction::EvictToDisk {
                    page: page(2),
                    from: MemoryKind::Nvm
                },
                PolicyAction::Migrate {
                    page: page(1),
                    from: MemoryKind::Dram,
                    to: MemoryKind::Nvm
                },
                PolicyAction::FillFromDisk {
                    page: page(3),
                    into: MemoryKind::Dram
                },
            ]
        );
    }

    #[test]
    fn occupancy_respects_capacity() {
        let mut p = policy(2, 3);
        for i in 0..100u64 {
            let acc = if i % 4 == 0 {
                PageAccess::write(page(i % 9))
            } else {
                PageAccess::read(page(i % 9))
            };
            p.on_access(acc);
            assert!(p.occupancy(MemoryKind::Dram) <= 2);
            assert!(p.occupancy(MemoryKind::Nvm) <= 3);
        }
    }

    #[test]
    fn write_history_protects_dram_pages() {
        // DRAM cap 2. Page 1 is written often; page 2 only read. When room
        // must be made, the read-only page should be demoted.
        let mut p = policy(2, 4);
        p.on_access(PageAccess::write(page(1)));
        p.on_access(PageAccess::read(page(2))); // DRAM had room
        for _ in 0..4 {
            p.on_access(PageAccess::write(page(1)));
        }
        // Fault a write → must demote one DRAM page.
        p.on_access(PageAccess::write(page(3)));
        assert_eq!(p.residency(page(1)), Residency::InMemory(MemoryKind::Dram));
        assert_eq!(p.residency(page(2)), Residency::InMemory(MemoryKind::Nvm));
    }

    #[test]
    fn name_and_capacity() {
        let p = policy(2, 4);
        assert_eq!(p.name(), "clock-dwf");
        assert_eq!(p.capacity(MemoryKind::Dram), PageCount::new(2));
        assert_eq!(p.capacity(MemoryKind::Nvm), PageCount::new(4));
    }
}
