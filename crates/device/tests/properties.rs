//! Property-based tests for the device models: accounting linearity,
//! attribution exhaustiveness, and wear bookkeeping.

use hybridmem_device::{
    AccessSource, MemoryCharacteristics, MemoryModule, MigrationEngine, WearTracker,
};
use hybridmem_types::{
    for_each_case, AccessKind, MemoryKind, Nanojoules, Nanoseconds, PageCount, PageId,
};

/// Cases per property.
const CASES: u64 = 256;

/// Module accounting is linear: the stats equal the sum of every cost
/// the module returned, and attribution buckets partition the totals.
#[test]
fn module_accounting_is_linear() {
    for_each_case(CASES, |rng| {
        let mut module = MemoryModule::new(
            MemoryKind::Nvm,
            PageCount::new(64),
            MemoryCharacteristics::pcm_date2016(),
        );
        let mut energy = Nanojoules::ZERO;
        let mut busy = Nanoseconds::ZERO;
        let mut reads = 0u64;
        let mut writes = 0u64;
        for _ in 0..rng.gen_range(1..200) {
            let is_write = rng.gen_range(0..2) == 1;
            let source = AccessSource::all()[usize::try_from(rng.gen_range(0..3)).unwrap()];
            let count = rng.gen_range(1..600);
            let kind = if is_write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let cost = module.record_accesses(kind, source, count);
            energy += cost.energy;
            busy += cost.latency;
            if is_write {
                writes += count;
            } else {
                reads += count;
            }
        }
        let stats = module.stats();
        assert_eq!(stats.total_reads(), reads);
        assert_eq!(stats.total_writes(), writes);
        assert!((stats.total_energy().value() - energy.value()).abs() < 1e-6);
        assert!((stats.total_busy_time().value() - busy.value()).abs() < 1e-6);
        // Buckets partition the totals.
        let bucket_sum: u64 = AccessSource::all()
            .iter()
            .map(|&s| stats.source(s).accesses())
            .sum();
        assert_eq!(bucket_sum, reads + writes);
    });
}

/// Migration costs are symmetric sums of per-direction access costs and
/// scale exactly with the page factor.
#[test]
fn migration_costs_scale_with_page_factor() {
    for_each_case(CASES, |rng| {
        let page_factor = rng.gen_range(1..2_048);
        let mut dram = MemoryModule::new(
            MemoryKind::Dram,
            PageCount::new(4),
            MemoryCharacteristics::dram_date2016(),
        );
        let mut nvm = MemoryModule::new(
            MemoryKind::Nvm,
            PageCount::new(4),
            MemoryCharacteristics::pcm_date2016(),
        );
        let engine = MigrationEngine::with_page_factor(page_factor);
        let cost = engine.migrate_page(&mut nvm, &mut dram);
        let pf = page_factor as f64;
        assert!((cost.latency.value() - pf * 150.0).abs() < 1e-6);
        assert!((cost.energy.value() - pf * 9.6).abs() < 1e-6);
        assert_eq!(cost.source_accesses, page_factor);
        assert_eq!(cost.destination_accesses, page_factor);

        let fill = engine.fill_from_disk(&mut nvm);
        assert!(fill.latency.is_zero(), "fill latency is disk-overlapped");
        assert!((fill.energy.value() - pf * 32.0).abs() < 1e-6);
    });
}

/// Wear bookkeeping: the total equals the sum over pages, and the maximum
/// bounds the mean.
#[test]
fn wear_tracker_is_consistent() {
    for_each_case(CASES, |rng| {
        let writes: Vec<(u64, u64)> = (0..rng.gen_range(1..150))
            .map(|_| (rng.gen_range(0..64), rng.gen_range(1..1_000)))
            .collect();
        let mut wear = WearTracker::new();
        let mut expected_total = 0u64;
        for &(page, count) in &writes {
            wear.record_page_write(PageId::new(page), count);
            expected_total += count;
        }
        assert_eq!(wear.total_writes(), expected_total);
        assert!(wear.max_wear() as f64 >= wear.mean_wear());
        assert!(wear.imbalance() >= 1.0);
    });
}
