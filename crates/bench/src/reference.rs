//! Frozen pre-optimization two-LRU implementation, kept as the measured
//! baseline for the `stress` throughput harness.
//!
//! [`ReferenceTwoLru`] reproduces the proposed scheme exactly as it was
//! implemented before the raw-speed campaign (binary trace replay +
//! batched dispatch), so `BENCH_*.json` speedups compare against a real,
//! checked-in algorithm rather than a remembered number:
//!
//! * **Both** queues are [`RankedLru`] (rank-indexed vectors); the
//!   optimized policy keeps DRAM in an intrusive `LinkedLru` because DRAM
//!   hits never need a rank.
//! * The DRAM hit path is a separate `contains` probe followed by a
//!   `touch` (two map lookups); the optimized path fuses them.
//! * The NVM hit path queries `rank(page)` and then calls `touch(page)`
//!   (two more lookups); the optimized path fuses them in `touch_ranked`.
//! * There is no `on_access_batch` override, so the simulator's batched
//!   driver degrades to per-access virtual dispatch.
//!
//! The decision logic — lazy window resets, thresholds, promotion swaps,
//! fault fills — is byte-for-byte the same scheme, so a replay under this
//! policy produces the same `SimulationReport` as `TwoLruPolicy`; the
//! `stress` binary asserts that before trusting the timing.

use hybridmem_policy::{
    AccessOutcome, ActionList, HybridPolicy, PolicyAction, RankedLru, TwoLruConfig,
};
use hybridmem_types::{
    AccessKind, FxHashMap, MemoryKind, PageAccess, PageCount, PageId, Residency,
};

/// Per-page read/write counters, as in the reference implementation.
#[derive(Debug, Clone, Copy, Default)]
struct PageCounters {
    reads: u32,
    writes: u32,
}

/// The pre-campaign two-LRU policy (see the module docs for exactly what
/// it preserves and why it exists).
#[derive(Debug, Clone)]
pub struct ReferenceTwoLru {
    config: TwoLruConfig,
    dram: RankedLru<()>,
    nvm: RankedLru<()>,
    counters: FxHashMap<PageId, PageCounters>,
}

impl ReferenceTwoLru {
    /// Creates the baseline policy for the given configuration.
    #[must_use]
    pub fn new(config: TwoLruConfig) -> Self {
        #[allow(clippy::cast_possible_truncation)]
        Self {
            config,
            dram: RankedLru::with_capacity(config.dram_capacity.value() as usize),
            nvm: RankedLru::with_capacity(config.nvm_capacity.value() as usize),
            counters: FxHashMap::default(),
        }
    }

    /// Algorithm 1 lines 6–25, with the historical rank-then-touch pair.
    fn on_nvm_hit(&mut self, page: PageId, kind: AccessKind) -> AccessOutcome {
        let rank = self
            .nvm
            .rank(page)
            .expect("page is in the NVM queue by precondition");
        self.nvm.touch(page);

        let counters = self.counters.entry(page).or_default();
        if rank >= self.config.read_window_pages() {
            counters.reads = 0;
        }
        if rank >= self.config.write_window_pages() {
            counters.writes = 0;
        }
        let hot = match kind {
            AccessKind::Read => {
                counters.reads += 1;
                counters.reads > self.config.read_threshold
            }
            AccessKind::Write => {
                counters.writes += 1;
                counters.writes > self.config.write_threshold
            }
        };
        if !hot {
            return AccessOutcome::hit(MemoryKind::Nvm);
        }

        let mut actions = ActionList::new();
        self.nvm.remove(page);
        self.counters.remove(&page);
        if self.dram.len() as u64 >= self.config.dram_capacity.value() {
            let (victim, ()) = self
                .dram
                .evict_lru()
                .expect("a full DRAM queue has a victim");
            self.nvm.insert(victim, ());
            actions.push(PolicyAction::Migrate {
                page: victim,
                from: MemoryKind::Dram,
                to: MemoryKind::Nvm,
            });
        }
        self.dram.insert(page, ());
        actions.push(PolicyAction::Migrate {
            page,
            from: MemoryKind::Nvm,
            to: MemoryKind::Dram,
        });
        AccessOutcome::hit_with(MemoryKind::Nvm, actions)
    }

    /// Algorithm 1 lines 27–28.
    fn on_fault(&mut self, page: PageId) -> AccessOutcome {
        let mut actions = ActionList::new();
        if self.dram.len() as u64 >= self.config.dram_capacity.value() {
            if self.nvm.len() as u64 >= self.config.nvm_capacity.value() {
                let (out, ()) = self.nvm.evict_lru().expect("a full NVM queue has a victim");
                self.counters.remove(&out);
                actions.push(PolicyAction::EvictToDisk {
                    page: out,
                    from: MemoryKind::Nvm,
                });
            }
            let (victim, ()) = self
                .dram
                .evict_lru()
                .expect("a full DRAM queue has a victim");
            self.nvm.insert(victim, ());
            actions.push(PolicyAction::Migrate {
                page: victim,
                from: MemoryKind::Dram,
                to: MemoryKind::Nvm,
            });
        }
        self.dram.insert(page, ());
        actions.push(PolicyAction::FillFromDisk {
            page,
            into: MemoryKind::Dram,
        });
        AccessOutcome::fault_with(actions)
    }
}

impl HybridPolicy for ReferenceTwoLru {
    fn on_access(&mut self, access: PageAccess) -> AccessOutcome {
        // Historical shape: separate membership probe and recency touch.
        if self.dram.contains(access.page) {
            self.dram.touch(access.page);
            AccessOutcome::hit(MemoryKind::Dram)
        } else if self.nvm.contains(access.page) {
            self.on_nvm_hit(access.page, access.kind)
        } else {
            self.on_fault(access.page)
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
            MemoryKind::Dram => self.config.dram_capacity,
            MemoryKind::Nvm => self.config.nvm_capacity,
        }
    }

    fn name(&self) -> &'static str {
        "two-lru-reference"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridmem_policy::TwoLruPolicy;

    /// A deterministic hot/warm/cold access mix with writes.
    fn mixed_trace() -> Vec<PageAccess> {
        let mut trace = Vec::new();
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for i in 0..6_000_u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let page = PageId::new(match state % 10 {
                0..=4 => state % 8,        // hot set
                5..=7 => 100 + state % 64, // warm set
                _ => 1_000 + i,            // cold stream
            });
            trace.push(if state & 0x10 == 0 {
                PageAccess::write(page)
            } else {
                PageAccess::read(page)
            });
        }
        trace
    }

    /// The baseline must make the *same decisions* as the optimized
    /// policy — only its per-access cost profile differs. Residencies,
    /// occupancies, and every outcome's visible fields must match.
    #[test]
    fn reference_matches_optimized_two_lru_decisions() {
        let config = TwoLruConfig::new(PageCount::new(8), PageCount::new(48)).unwrap();
        let mut reference = ReferenceTwoLru::new(config);
        let mut optimized = TwoLruPolicy::new(config);
        for access in mixed_trace() {
            let r = reference.on_access(access);
            let o = optimized.on_access(access);
            assert_eq!(r.served_from, o.served_from, "at {access:?}");
            assert_eq!(r.fault, o.fault, "at {access:?}");
            assert_eq!(r.actions.as_slice(), o.actions.as_slice(), "at {access:?}");
        }
        for kind in [MemoryKind::Dram, MemoryKind::Nvm] {
            assert_eq!(reference.occupancy(kind), optimized.occupancy(kind));
        }
    }
}
