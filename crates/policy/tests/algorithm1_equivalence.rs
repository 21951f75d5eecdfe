//! Differential test of the window-reset equivalence claim.
//!
//! `TwoLruPolicy` resets promotion counters *lazily* (at a page's next hit,
//! by rank comparison) and documents that this is observationally identical
//! to Algorithm 1's *eager* resets (counters cleared the moment a page
//! slides past the `readperc`/`writeperc` boundary). This test implements
//! Algorithm 1 literally — O(n) Vec-based LRU queues with eager boundary
//! zeroing after every queue movement — and checks both policies produce
//! byte-identical [`AccessOutcome`]s on arbitrary access streams.

use std::collections::BTreeMap;

use hybridmem_policy::{AccessOutcome, HybridPolicy, PolicyAction, TwoLruConfig, TwoLruPolicy};
use hybridmem_types::{for_each_case, AccessKind, MemoryKind, PageAccess, PageCount, PageId};

/// Literal, eager-reset implementation of Algorithm 1. MRU at the front.
struct NaiveTwoLru {
    config: TwoLruConfig,
    dram: Vec<PageId>,
    nvm: Vec<PageId>,
    counters: BTreeMap<PageId, (u32, u32)>,
}

impl NaiveTwoLru {
    fn new(config: TwoLruConfig) -> Self {
        Self {
            config,
            dram: Vec::new(),
            nvm: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Eager boundary zeroing: clear the read counter of every NVM page at
    /// or past the read window, and likewise for writes (lines 8–9 of
    /// Algorithm 1, applied exhaustively).
    fn eager_reset(&mut self) {
        let read_window = self.config.read_window_pages();
        let write_window = self.config.write_window_pages();
        for (position, page) in self.nvm.iter().enumerate() {
            let entry = self.counters.entry(*page).or_insert((0, 0));
            if position >= read_window {
                entry.0 = 0;
            }
            if position >= write_window {
                entry.1 = 0;
            }
        }
    }

    fn on_access(&mut self, access: PageAccess) -> AccessOutcome {
        let page = access.page;
        if let Some(pos) = self.dram.iter().position(|&p| p == page) {
            self.dram.remove(pos);
            self.dram.insert(0, page);
            return AccessOutcome::hit(MemoryKind::Dram);
        }
        if let Some(pos) = self.nvm.iter().position(|&p| p == page) {
            self.nvm.remove(pos);
            self.nvm.insert(0, page);
            self.eager_reset();
            let entry = self.counters.entry(page).or_insert((0, 0));
            let hot = match access.kind {
                AccessKind::Read => {
                    entry.0 += 1;
                    entry.0 > self.config.read_threshold
                }
                AccessKind::Write => {
                    entry.1 += 1;
                    entry.1 > self.config.write_threshold
                }
            };
            if !hot {
                return AccessOutcome::hit(MemoryKind::Nvm);
            }
            // Promote; swap with the DRAM LRU victim when DRAM is full.
            let mut actions = Vec::new();
            self.nvm.retain(|&p| p != page);
            self.counters.remove(&page);
            if self.dram.len() as u64 >= self.config.dram_capacity.value() {
                let victim = self.dram.pop().expect("full DRAM has a victim");
                self.nvm.insert(0, victim);
                actions.push(PolicyAction::Migrate {
                    page: victim,
                    from: MemoryKind::Dram,
                    to: MemoryKind::Nvm,
                });
            }
            self.dram.insert(0, page);
            actions.push(PolicyAction::Migrate {
                page,
                from: MemoryKind::Nvm,
                to: MemoryKind::Dram,
            });
            self.eager_reset();
            return AccessOutcome::hit_with(MemoryKind::Nvm, actions);
        }

        // Page fault: fill DRAM, demote the DRAM victim, evict NVM's LRU.
        let mut actions = Vec::new();
        if self.dram.len() as u64 >= self.config.dram_capacity.value() {
            if self.nvm.len() as u64 >= self.config.nvm_capacity.value() {
                let out = self.nvm.pop().expect("full NVM has a victim");
                self.counters.remove(&out);
                actions.push(PolicyAction::EvictToDisk {
                    page: out,
                    from: MemoryKind::Nvm,
                });
            }
            let victim = self.dram.pop().expect("full DRAM has a victim");
            self.nvm.insert(0, victim);
            actions.push(PolicyAction::Migrate {
                page: victim,
                from: MemoryKind::Dram,
                to: MemoryKind::Nvm,
            });
        }
        self.dram.insert(0, page);
        actions.push(PolicyAction::FillFromDisk {
            page,
            into: MemoryKind::Dram,
        });
        self.eager_reset();
        AccessOutcome::fault_with(actions)
    }
}

/// The optimized lazy-reset policy and the literal eager-reset
/// Algorithm 1 produce identical outcomes on arbitrary streams,
/// capacities, thresholds, and windows.
#[test]
fn lazy_and_eager_resets_are_observationally_identical() {
    for_each_case(128, |rng| {
        let dram_cap = rng.gen_range(1..6);
        let nvm_cap = rng.gen_range(1..16);
        let read_threshold = u32::try_from(rng.gen_range(0..5)).unwrap();
        let write_threshold = read_threshold + u32::try_from(rng.gen_range(0..5)).unwrap();
        let read_window = 0.05 + 0.85 * rng.next_f64();
        let write_window = (read_window + 0.05 + 0.45 * rng.next_f64()).min(1.0);
        let accesses: Vec<(u64, bool)> = (0..rng.gen_range(1..500))
            .map(|_| (rng.gen_range(0..24), rng.gen_range(0..2) == 1))
            .collect();
        let config = TwoLruConfig::with_thresholds(
            PageCount::new(dram_cap),
            PageCount::new(nvm_cap),
            read_threshold,
            write_threshold,
            read_window,
            write_window,
        )
        .expect("valid config");

        let mut optimized = TwoLruPolicy::new(config);
        let mut reference = NaiveTwoLru::new(config);

        for (i, &(page, is_write)) in accesses.iter().enumerate() {
            let kind = if is_write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let access = PageAccess::new(PageId::new(page), kind);
            // The counter probe is provenance the literal version does
            // not produce; the decisions must agree.
            let fast = AccessOutcome {
                probe: None,
                ..optimized.on_access(access)
            };
            let slow = reference.on_access(access);
            assert_eq!(fast, slow, "divergence at access #{i} ({access:?})");
        }

        // Final states agree too: same residency for every page.
        for page in 0..24u64 {
            let page = PageId::new(page);
            let in_dram = reference.dram.contains(&page);
            let in_nvm = reference.nvm.contains(&page);
            let residency = optimized.residency(page);
            assert_eq!(residency.memory() == Some(MemoryKind::Dram), in_dram);
            assert_eq!(residency.memory() == Some(MemoryKind::Nvm), in_nvm);
        }
    });
}
