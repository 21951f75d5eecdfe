//! Property-based tests for the policy crate's data structures and
//! policies, checking the invariants called out in `DESIGN.md`.

use std::collections::HashSet;

use hybridmem_policy::{
    AccessOutcome, AdaptiveConfig, AdaptiveTwoLruPolicy, ClockDwfPolicy, ClockProPolicy, ClockRing,
    DramCachePolicy, HybridPolicy, PolicyAction, RankedLru, SingleTierClockPolicy,
    SingleTierPolicy, TwoLruConfig, TwoLruPolicy,
};
use hybridmem_types::{
    for_each_case, AccessKind, MemoryKind, PageAccess, PageCount, PageId, Residency, StdRng,
};

/// Cases per property.
const CASES: u64 = 256;

/// Operations applied to both `RankedLru` and a naive Vec-backed model.
/// Inserts carry a metadata value; touches add to it.
#[derive(Debug, Clone)]
enum LruOp {
    Touch(u64, u64),
    TouchRanked(u64, u64),
    Insert(u64, u64),
    EvictLru,
    Remove(u64),
}

fn arb_lru_op(rng: &mut StdRng, page_universe: u64) -> LruOp {
    let page = rng.gen_range(0..page_universe);
    let value = rng.gen_range(0..1000);
    match rng.gen_range(0..5) {
        0 => LruOp::Touch(page, value),
        1 => LruOp::TouchRanked(page, value),
        2 => LruOp::Insert(page, value),
        3 => LruOp::EvictLru,
        _ => LruOp::Remove(page),
    }
}

/// `len` random `(page, is_write)` accesses over `pages` pages.
fn arb_stream(rng: &mut StdRng, pages: u64, len: std::ops::Range<u64>) -> Vec<(u64, bool)> {
    (0..rng.gen_range(len))
        .map(|_| (rng.gen_range(0..pages), rng.gen_range(0..2) == 1))
        .collect()
}

fn kind_of(is_write: bool) -> AccessKind {
    if is_write {
        AccessKind::Write
    } else {
        AccessKind::Read
    }
}

/// Naive LRU model: Vec of `(page, metadata)` with MRU at the back.
#[derive(Default)]
struct NaiveLru(Vec<(u64, u64)>);

impl NaiveLru {
    fn touch(&mut self, p: u64) -> Option<&mut u64> {
        let pos = self.0.iter().position(|&(x, _)| x == p)?;
        let entry = self.0.remove(pos);
        self.0.push(entry);
        self.0.last_mut().map(|(_, meta)| meta)
    }

    fn contains(&self, p: u64) -> bool {
        self.0.iter().any(|&(x, _)| x == p)
    }

    fn insert(&mut self, p: u64, meta: u64) {
        self.0.push((p, meta));
    }

    fn evict(&mut self) -> Option<(u64, u64)> {
        if self.0.is_empty() {
            None
        } else {
            Some(self.0.remove(0))
        }
    }

    fn remove(&mut self, p: u64) -> Option<u64> {
        let pos = self.0.iter().position(|&(x, _)| x == p)?;
        Some(self.0.remove(pos).1)
    }

    fn rank(&self, p: u64) -> Option<usize> {
        self.0.iter().rev().position(|&(x, _)| x == p)
    }

    fn by_recency(&self) -> Vec<u64> {
        self.0.iter().rev().map(|&(x, _)| x).collect()
    }
}

/// `RankedLru` is observationally identical to the naive model under
/// arbitrary operation sequences, including rank queries, and each
/// page's metadata follows it across touches, compactions and slab
/// reuse.
#[test]
fn ranked_lru_matches_naive_model() {
    for_each_case(CASES, |rng| {
        let ops: Vec<LruOp> = (0..rng.gen_range(1..300))
            .map(|_| arb_lru_op(rng, 16))
            .collect();
        let mut lru = RankedLru::new();
        let mut model = NaiveLru::default();
        for op in ops {
            match op {
                LruOp::Touch(p, add) => {
                    let got = lru.touch(PageId::new(p)).map(|meta| {
                        *meta += add;
                        *meta
                    });
                    let want = model.touch(p).map(|meta| {
                        *meta += add;
                        *meta
                    });
                    assert_eq!(got, want);
                }
                LruOp::TouchRanked(p, add) => {
                    let rank = model.rank(p);
                    let got = lru.touch_ranked(PageId::new(p)).map(|(rank, meta)| {
                        *meta += add;
                        (rank, *meta)
                    });
                    let want = model.touch(p).map(|meta| {
                        *meta += add;
                        (rank.unwrap(), *meta)
                    });
                    assert_eq!(got, want);
                }
                LruOp::Insert(p, meta) => {
                    if !model.contains(p) {
                        lru.insert(PageId::new(p), meta);
                        model.insert(p, meta);
                    }
                }
                LruOp::EvictLru => {
                    let got = lru.evict_lru().map(|(p, meta)| (p.value(), meta));
                    assert_eq!(got, model.evict());
                }
                LruOp::Remove(p) => {
                    assert_eq!(lru.remove(PageId::new(p)), model.remove(p));
                }
            }
            assert_eq!(lru.len(), model.0.len());
            for &(p, meta) in &model.0 {
                assert_eq!(lru.rank(PageId::new(p)), model.rank(p));
                assert_eq!(lru.meta(PageId::new(p)), Some(&meta));
            }
            let got: Vec<u64> = lru.pages_by_recency().iter().map(|p| p.value()).collect();
            assert_eq!(got, model.by_recency());
        }
    });
}

/// `SingleTierPolicy` produces exactly the hit/miss/eviction sequence of
/// a plain LRU of the same capacity.
#[test]
fn single_tier_is_plain_lru() {
    for_each_case(CASES, |rng| {
        let capacity = rng.gen_range(1..12);
        let pages: Vec<u64> = (0..rng.gen_range(1..250))
            .map(|_| rng.gen_range(0..24))
            .collect();
        let mut policy = SingleTierPolicy::dram_only(PageCount::new(capacity)).unwrap();
        let mut model = NaiveLru::default();
        for p in pages {
            let out = policy.on_access(PageAccess::read(PageId::new(p)));
            let model_hit = model.touch(p).is_some();
            assert_eq!(!out.fault, model_hit);
            if !model_hit {
                if model.0.len() as u64 >= capacity {
                    model.evict();
                }
                model.insert(p, 0);
            }
            assert_eq!(policy.occupancy(MemoryKind::Dram), model.0.len() as u64);
        }
    });
}

/// Hybrid-policy safety invariants hold for the proposed scheme under
/// arbitrary access streams:
/// occupancies never exceed capacities; the accessed page is resident
/// afterwards; an access faults iff the page was not resident before;
/// NVM only ever holds pages once DRAM is full.
#[test]
fn two_lru_invariants() {
    for_each_case(CASES, |rng| {
        let dram_cap = rng.gen_range(1..6);
        let nvm_cap = rng.gen_range(1..12);
        let accesses = arb_stream(rng, 32, 1..400);
        let config = TwoLruConfig::new(PageCount::new(dram_cap), PageCount::new(nvm_cap)).unwrap();
        let mut policy = TwoLruPolicy::new(config);
        let mut resident: HashSet<u64> = HashSet::new();
        for (p, is_write) in accesses {
            let page = PageId::new(p);
            let was_resident = resident.contains(&p);
            let out = policy.on_access(PageAccess::new(page, kind_of(is_write)));

            assert_eq!(out.fault, !was_resident);
            assert!(policy.residency(page).is_resident());
            assert!(policy.occupancy(MemoryKind::Dram) <= dram_cap);
            assert!(policy.occupancy(MemoryKind::Nvm) <= nvm_cap);
            if policy.occupancy(MemoryKind::Nvm) > 0 {
                assert_eq!(
                    policy.occupancy(MemoryKind::Dram),
                    dram_cap,
                    "NVM population implies a full DRAM"
                );
            }

            // Maintain the external residency model from the outcome.
            resident.insert(p);
            for action in &out.actions {
                if let hybridmem_policy::PolicyAction::EvictToDisk { page, .. } = action {
                    resident.remove(&page.value());
                }
            }
            assert_eq!(
                resident.len() as u64,
                policy.occupancy(MemoryKind::Dram) + policy.occupancy(MemoryKind::Nvm)
            );
        }
    });
}

/// The same safety invariants for CLOCK-DWF, plus its defining property:
/// no demand write is ever serviced by NVM.
#[test]
fn clock_dwf_invariants() {
    for_each_case(CASES, |rng| {
        let dram_cap = rng.gen_range(1..6);
        let nvm_cap = rng.gen_range(1..12);
        let accesses = arb_stream(rng, 32, 1..400);
        let mut policy =
            ClockDwfPolicy::new(PageCount::new(dram_cap), PageCount::new(nvm_cap)).unwrap();
        let mut resident: HashSet<u64> = HashSet::new();
        for (p, is_write) in accesses {
            let page = PageId::new(p);
            let kind = kind_of(is_write);
            let was_resident = resident.contains(&p);
            let out = policy.on_access(PageAccess::new(page, kind));

            assert_eq!(out.fault, !was_resident);
            if kind.is_write() {
                assert_ne!(out.served_from, Some(MemoryKind::Nvm));
                // After a write the page always sits in DRAM.
                assert_eq!(
                    policy.residency(page),
                    Residency::InMemory(MemoryKind::Dram)
                );
            }
            assert!(policy.occupancy(MemoryKind::Dram) <= dram_cap);
            assert!(policy.occupancy(MemoryKind::Nvm) <= nvm_cap);

            resident.insert(p);
            for action in &out.actions {
                if let hybridmem_policy::PolicyAction::EvictToDisk { page, .. } = action {
                    resident.remove(&page.value());
                }
            }
            assert_eq!(
                resident.len() as u64,
                policy.occupancy(MemoryKind::Dram) + policy.occupancy(MemoryKind::Nvm)
            );
        }
    });
}

/// The clock ring never exceeds capacity, evicts only resident pages,
/// and forgets evicted pages.
#[test]
fn clock_ring_invariants() {
    for_each_case(CASES, |rng| {
        let capacity = usize::try_from(rng.gen_range(1..8)).unwrap();
        let ops = arb_stream(rng, 16, 1..200);
        let mut ring: ClockRing<u32> = ClockRing::new(capacity);
        for (p, evict_first) in ops {
            let page = PageId::new(p);
            if ring.contains(page) {
                ring.touch(page);
                continue;
            }
            if ring.is_full() || (evict_first && !ring.is_empty()) {
                let (victim, _) = ring.evict_with(|m| {
                    if *m > 0 {
                        *m -= 1;
                        true
                    } else {
                        false
                    }
                });
                assert!(!ring.contains(victim));
            }
            if !ring.is_full() {
                ring.insert(page, 2);
            }
            assert!(ring.len() <= ring.capacity());
            assert!(ring.hand() < ring.capacity());
        }
    });
}

/// The proposed scheme only stores promotion counters for NVM-resident
/// pages (the "housekeeping information" of Fig. 3 lives in the NVM
/// queue alone), and `tracked_pages` counts exactly the pages that have
/// them.
#[test]
fn counters_only_exist_for_nvm_pages() {
    for_each_case(CASES, |rng| {
        let accesses = arb_stream(rng, 16, 1..300);
        let config = TwoLruConfig::new(PageCount::new(2), PageCount::new(6)).unwrap();
        let mut policy = TwoLruPolicy::new(config);
        for (p, is_write) in accesses {
            policy.on_access(PageAccess::new(PageId::new(p), kind_of(is_write)));
            let mut with_counters = 0;
            for q in 0..16u64 {
                let page = PageId::new(q);
                if policy.counters_of(page).is_some() {
                    with_counters += 1;
                    assert_eq!(
                        policy.residency(page),
                        Residency::InMemory(MemoryKind::Nvm),
                        "page {q} has counters but is not NVM-resident"
                    );
                }
            }
            assert_eq!(policy.tracked_pages(), with_counters);
        }
    });
}

/// Page ids from `2^40` up are beyond every policy table's dense bound.
const SHIFT: u64 = 1 << 40;

/// Every policy, at the given DRAM and NVM capacities.
fn every_policy(dram: u64, nvm: u64) -> Vec<Box<dyn HybridPolicy>> {
    let (d, n) = (PageCount::new(dram), PageCount::new(nvm));
    let total = PageCount::new(dram + nvm);
    let config = TwoLruConfig::new(d, n).unwrap();
    let adaptive = AdaptiveConfig {
        adjust_interval: 4,
        ..AdaptiveConfig::default()
    };
    vec![
        Box::new(TwoLruPolicy::new(config)),
        Box::new(AdaptiveTwoLruPolicy::new(config, adaptive)),
        Box::new(ClockDwfPolicy::new(d, n).unwrap()),
        Box::new(ClockProPolicy::new(d, n).unwrap()),
        Box::new(DramCachePolicy::new(d, n).unwrap()),
        Box::new(SingleTierPolicy::dram_only(total).unwrap()),
        Box::new(SingleTierPolicy::nvm_only(total).unwrap()),
        Box::new(SingleTierClockPolicy::new(MemoryKind::Dram, total).unwrap()),
    ]
}

/// Replays `stream` with each page `p` renamed to `rename(p)`, and names
/// the pages in each outcome's actions back.
fn replay_renamed(
    policy: &mut dyn HybridPolicy,
    stream: &[(u64, bool)],
    rename: fn(u64) -> u64,
) -> Vec<AccessOutcome> {
    let name_back = |page: PageId| PageId::new(page.value() % SHIFT);
    stream
        .iter()
        .map(|&(p, is_write)| {
            let out = policy.on_access(PageAccess::new(PageId::new(rename(p)), kind_of(is_write)));
            let actions = out.actions.iter().map(|&action| match action {
                PolicyAction::EvictToDisk { page, from } => PolicyAction::EvictToDisk {
                    page: name_back(page),
                    from,
                },
                PolicyAction::Migrate { page, from, to } => PolicyAction::Migrate {
                    page: name_back(page),
                    from,
                    to,
                },
                PolicyAction::FillFromDisk { page, into } => PolicyAction::FillFromDisk {
                    page: name_back(page),
                    into,
                },
            });
            AccessOutcome {
                actions: actions.collect(),
                ..out
            }
        })
        .collect()
}

/// Sparse page ids, which the policy tables keep by hash, replay exactly
/// like dense ones under every policy: all ids shifted past the dense
/// bound, and a mixed stream with half its ids dense and half sparse.
#[test]
fn sparse_page_ids_replay_like_dense_ones() {
    let renames: [fn(u64) -> u64; 2] = [|p| p + SHIFT, |p| if p % 2 == 0 { p } else { p + SHIFT }];
    for_each_case(64, |rng| {
        let dram_cap = rng.gen_range(1..6);
        let nvm_cap = rng.gen_range(1..12);
        let stream = arb_stream(rng, 32, 1..400);
        for rename in renames {
            let dense = every_policy(dram_cap, nvm_cap);
            for (mut want, mut got) in dense.into_iter().zip(every_policy(dram_cap, nvm_cap)) {
                let want_outcomes = replay_renamed(want.as_mut(), &stream, |p| p);
                let got_outcomes = replay_renamed(got.as_mut(), &stream, rename);
                assert_eq!(got_outcomes, want_outcomes, "{}", want.name());
                for kind in [MemoryKind::Dram, MemoryKind::Nvm] {
                    assert_eq!(got.occupancy(kind), want.occupancy(kind));
                }
            }
        }
    });
}

/// Shared safety invariants every hybrid policy must uphold: bounded
/// occupancy, fault-iff-not-resident, and the accessed page resident
/// afterwards.
fn check_policy_invariants(
    policy: &mut dyn HybridPolicy,
    dram_cap: u64,
    nvm_cap: u64,
    accesses: &[(u64, bool)],
) {
    let mut resident: HashSet<u64> = HashSet::new();
    for &(p, is_write) in accesses {
        let page = PageId::new(p);
        let was_resident = resident.contains(&p);
        let out = policy.on_access(PageAccess::new(page, kind_of(is_write)));
        assert_eq!(out.fault, !was_resident, "page {p}");
        assert!(policy.residency(page).is_resident());
        assert!(policy.occupancy(MemoryKind::Dram) <= dram_cap);
        assert!(policy.occupancy(MemoryKind::Nvm) <= nvm_cap);
        resident.insert(p);
        for action in &out.actions {
            if let hybridmem_policy::PolicyAction::EvictToDisk { page, .. } = action {
                resident.remove(&page.value());
            }
        }
    }
}

/// CLOCK-Pro-lite upholds the shared safety invariants.
#[test]
fn clock_pro_invariants() {
    for_each_case(CASES, |rng| {
        let dram_cap = rng.gen_range(1..6);
        let nvm_cap = rng.gen_range(1..12);
        let accesses = arb_stream(rng, 32, 1..400);
        let mut policy =
            ClockProPolicy::new(PageCount::new(dram_cap), PageCount::new(nvm_cap)).unwrap();
        check_policy_invariants(&mut policy, dram_cap, nvm_cap, &accesses);
    });
}

/// The DRAM-cache architecture upholds the shared safety invariants;
/// note its DRAM holds *copies*, so the resident set is tracked by the
/// NVM backing store alone.
#[test]
fn dram_cache_invariants() {
    for_each_case(CASES, |rng| {
        let dram_cap = rng.gen_range(1..6);
        let nvm_cap = rng.gen_range(1..12);
        let accesses = arb_stream(rng, 32, 1..400);
        let mut policy =
            DramCachePolicy::new(PageCount::new(dram_cap), PageCount::new(nvm_cap)).unwrap();
        check_policy_invariants(&mut policy, dram_cap, nvm_cap, &accesses);
    });
}

/// The adaptive extension upholds the shared safety invariants and its
/// thresholds stay within the configured cap.
#[test]
fn adaptive_two_lru_invariants() {
    for_each_case(CASES, |rng| {
        let dram_cap = rng.gen_range(1..6);
        let nvm_cap = rng.gen_range(1..12);
        let accesses = arb_stream(rng, 32, 1..400);
        let config = TwoLruConfig::new(PageCount::new(dram_cap), PageCount::new(nvm_cap)).unwrap();
        let adaptive = AdaptiveConfig {
            adjust_interval: 4,
            ..AdaptiveConfig::default()
        };
        let mut policy = AdaptiveTwoLruPolicy::new(config, adaptive);
        check_policy_invariants(&mut policy, dram_cap, nvm_cap, &accesses);
        let (read, write) = policy.thresholds();
        assert!(read >= 1 && read <= adaptive.max_threshold);
        assert!(write >= 1 && write <= adaptive.max_threshold);
        let stats = policy.stats();
        assert!(
            stats.raises + stats.lowers <= stats.beneficial_promotions + stats.wasted_promotions
        );
    });
}
