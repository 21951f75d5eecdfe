//! Property-based tests for the policy crate's data structures and
//! policies, checking the invariants called out in `DESIGN.md`.

use std::collections::BTreeSet;

use hybridmem_policy::{
    AccessOutcome, AdaptiveConfig, AdaptiveTwoLruPolicy, ClockDwfPolicy, ClockProPolicy, ClockRing,
    DramCachePolicy, HybridPolicy, LruQueue, PolicyAction, RankedLru, SingleTierPolicy,
    TwoLruConfig, TwoLruPolicy,
};
use hybridmem_types::{
    for_each_case, AccessKind, MemoryKind, PageAccess, PageCount, PageId, Residency, StdRng,
};

/// Cases per property.
const CASES: u64 = 256;

/// Operations applied to the LRU queues and a naive Vec-backed model.
/// Inserts carry a metadata value; touches add to it.
#[derive(Debug, Clone)]
enum LruOp {
    Touch(u64, u64),
    TouchRanked(u64, u64),
    Insert(u64, u64),
    EvictLru,
    /// Removes the `n` least recently used pages one by one, then evicts:
    /// the victim search must skip the slots the removals freed.
    EvictAfterRemovingOldest(usize),
    Remove(u64),
}

/// A random operation; inserts are as likely as all removals together,
/// so the queue fills about half of `page_universe`.
fn arb_lru_op(rng: &mut StdRng, page_universe: u64) -> LruOp {
    let page = rng.gen_range(0..page_universe);
    let value = rng.gen_range(0..1000);
    match rng.gen_range(0..10) {
        0 | 1 => LruOp::Touch(page, value),
        2 | 3 => LruOp::TouchRanked(page, value),
        4..=7 => LruOp::Insert(page, value),
        8 if rng.gen_range(0..4) == 0 => {
            LruOp::EvictAfterRemovingOldest(rng.gen_range(1..4) as usize)
        }
        8 => LruOp::EvictLru,
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

    /// The `n` least recently used pages, LRU first.
    fn oldest(&self, n: usize) -> Vec<u64> {
        self.0.iter().take(n).map(|&(x, _)| x).collect()
    }
}

/// A random operation over only the `hot` lowest pages: inserts and
/// touches, and one eviction in ten, so about two thirds of them stay
/// queued and about half the ops take a slot.
fn arb_hot_op(rng: &mut StdRng, hot: u64) -> LruOp {
    let page = rng.gen_range(0..hot);
    let value = rng.gen_range(0..1000);
    match rng.gen_range(0..10) {
        0..=2 => LruOp::Insert(page, value),
        3..=5 => LruOp::Touch(page, value),
        6..=8 => LruOp::TouchRanked(page, value),
        _ => LruOp::EvictLru,
    }
}

/// What [`replay_lru_ops`] saw of the queue's shape.
struct LruRun {
    /// Most pages the queue held.
    peak: usize,
    /// The slot spaces, in the order they appeared.
    slot_spaces: Vec<usize>,
}

/// Applies `ops` to a ranked queue, a rank-free queue and the naive model,
/// checking each op's results, and every page's rank and metadata and the
/// recency order after every `check_every`-th op and after the last.
fn replay_lru_ops(ops: Vec<LruOp>, check_every: usize) -> LruRun {
    let mut ranked = RankedLru::new();
    let mut plain = LruQueue::<u64>::new();
    let mut model = NaiveLru::default();
    let mut run = LruRun {
        peak: 0,
        slot_spaces: vec![ranked.slot_space()],
    };
    let count = ops.len();
    for (step, op) in ops.into_iter().enumerate() {
        apply_lru_op(op, &mut ranked, &mut plain, &mut model);
        run.peak = run.peak.max(model.0.len());
        if run.slot_spaces.last() != Some(&ranked.slot_space()) {
            run.slot_spaces.push(ranked.slot_space());
        }
        assert_eq!(ranked.len(), model.0.len());
        assert_eq!(plain.len(), model.0.len());
        if (step + 1) % check_every != 0 && step + 1 != count {
            continue;
        }
        for (rank, &(p, meta)) in model.0.iter().rev().enumerate() {
            let page = PageId::new(p);
            assert_eq!(ranked.rank(page), Some(rank), "step {step}");
            assert_eq!(ranked.meta(page), Some(&meta));
            assert_eq!(plain.meta(page), Some(&meta));
        }
        let want = model.by_recency();
        let got: Vec<u64> = ranked
            .pages_by_recency()
            .iter()
            .map(|p| p.value())
            .collect();
        assert_eq!(got, want);
        let got: Vec<u64> = plain.pages_by_recency().iter().map(|p| p.value()).collect();
        assert_eq!(got, want);
    }
    run
}

/// `RankedLru` and the rank-free `LruQueue` are observationally
/// identical to the naive model under arbitrary operation sequences (the
/// rank-free queue skips the rank queries), and each page's metadata
/// follows it across touches, compactions and slab reuse.
///
/// Three universes:
/// - 16 pages, whose slot space stays within one 64-slot word;
/// - 300 pages over thousands of operations, whose live slots span many
///   words and pass through many compactions;
/// - 8,000 pages, whose queue grows to thousands of pages, so the slot
///   space spans at least 8 levels of the rank index and its word count
///   is not a power of two, and then empties and refills with a few
///   hundred pages until a compaction shrinks the slot space. Its ranks
///   are checked every 250 operations.
#[test]
fn ranked_lru_matches_naive_model() {
    for (cases, universe, op_count) in [(CASES, 16, 1..300), (8, 300, 3000..5000)] {
        for_each_case(cases, |rng| {
            let ops: Vec<LruOp> = (0..rng.gen_range(op_count.clone()))
                .map(|_| arb_lru_op(rng, universe))
                .collect();
            let run = replay_lru_ops(ops, 1);
            if universe > 64 {
                assert!(run.peak >= 100, "the queue peaked at {} pages", run.peak);
            }
        });
    }
    for_each_case(2, |rng| {
        // Grow to thousands of pages, evict them all, then take slots
        // with a few hundred pages until the slot space runs out.
        let mut ops: Vec<LruOp> = (0..36_000).map(|_| arb_lru_op(rng, 8_000)).collect();
        ops.extend((0..8_000).map(|_| LruOp::EvictLru));
        ops.extend((0..25_000).map(|_| arb_hot_op(rng, 200)));
        let run = replay_lru_ops(ops, 250);
        let widest = run.slot_spaces.iter().copied().max().unwrap();
        let words = widest.div_ceil(64);
        // Levels run while a block of 2^k words is smaller than the space.
        let levels = words.next_power_of_two().trailing_zeros();
        assert!(levels >= 8, "{words} words span {levels} levels");
        assert!(!words.is_power_of_two(), "{words} words");
        let shrank = run.slot_spaces.windows(2).any(|pair| pair[1] < pair[0]);
        assert!(shrank, "slot spaces {:?}", run.slot_spaces);
    });
}

/// Applies `op` to both queues and the model, checking what each returns.
fn apply_lru_op(
    op: LruOp,
    ranked: &mut RankedLru<u64>,
    plain: &mut LruQueue<u64>,
    model: &mut NaiveLru,
) {
    let bump = |meta: &mut u64, add: u64| {
        *meta += add;
        *meta
    };
    match op {
        LruOp::Touch(p, add) => {
            let want = model.touch(p).map(|meta| bump(meta, add));
            assert_eq!(ranked.touch(PageId::new(p)).map(|m| bump(m, add)), want);
            assert_eq!(plain.touch(PageId::new(p)).map(|m| bump(m, add)), want);
        }
        LruOp::TouchRanked(p, add) => {
            let rank = model.rank(p);
            let want = model.touch(p).map(|meta| bump(meta, add));
            let got = ranked
                .touch_ranked(PageId::new(p))
                .map(|(rank, meta)| (rank, bump(meta, add)));
            assert_eq!(got, want.map(|meta| (rank.unwrap(), meta)));
            assert_eq!(plain.touch(PageId::new(p)).map(|m| bump(m, add)), want);
        }
        LruOp::Insert(p, meta) => {
            if !model.contains(p) {
                ranked.insert(PageId::new(p), meta);
                plain.insert(PageId::new(p), meta);
                model.insert(p, meta);
            }
        }
        LruOp::EvictAfterRemovingOldest(n) => {
            for p in model.oldest(n) {
                let want = model.remove(p);
                assert_eq!(ranked.remove(PageId::new(p)), want);
                assert_eq!(plain.remove(PageId::new(p)), want);
            }
            apply_lru_op(LruOp::EvictLru, ranked, plain, model);
        }
        LruOp::EvictLru => {
            let want = model.evict();
            assert_eq!(ranked.evict_lru().map(|(p, m)| (p.value(), m)), want);
            assert_eq!(plain.evict_lru().map(|(p, m)| (p.value(), m)), want);
        }
        LruOp::Remove(p) => {
            let want = model.remove(p);
            assert_eq!(ranked.remove(PageId::new(p)), want);
            assert_eq!(plain.remove(PageId::new(p)), want);
        }
    }
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
        let mut resident: BTreeSet<u64> = BTreeSet::new();
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
        let mut resident: BTreeSet<u64> = BTreeSet::new();
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
    let mut resident: BTreeSet<u64> = BTreeSet::new();
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
