//! A single memory module with full access accounting.

use hybridmem_json::impl_json;
use hybridmem_types::{AccessKind, MemoryKind, Nanojoules, Nanoseconds, PageCount};

use crate::MemoryCharacteristics;

/// Why a memory access happened.
///
/// The paper's analyses break every metric down by cause (Figs. 1, 2, 4):
/// demand requests, page-fault fills from disk, and migration traffic
/// between the two modules. Attributing each device access to its source is
/// what lets the models report those breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessSource {
    /// A demand read/write issued by the CPU (after cache filtering).
    Request,
    /// A write performed to fill a page from disk after a page fault.
    PageFault,
    /// A read or write performed while migrating a page between DRAM and NVM.
    Migration,
}

impl AccessSource {
    /// All sources in reporting order.
    #[must_use]
    pub const fn all() -> [Self; 3] {
        [Self::Request, Self::PageFault, Self::Migration]
    }
}

/// The latency and energy of one device access.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AccessCost {
    /// Time the device was busy with the access.
    pub latency: Nanoseconds,
    /// Dynamic energy drawn by the access.
    pub energy: Nanojoules,
}

impl AccessCost {
    /// Creates an access cost.
    #[must_use]
    pub const fn new(latency: Nanoseconds, energy: Nanojoules) -> Self {
        Self { latency, energy }
    }
}

/// Counters for one access source within one module.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SourceStats {
    /// Number of read accesses.
    pub reads: u64,
    /// Number of write accesses.
    pub writes: u64,
    /// Total dynamic energy of these accesses.
    pub energy: Nanojoules,
    /// Total device busy time of these accesses.
    pub busy_time: Nanoseconds,
}

impl_json!(ToJson, FromJson for SourceStats { reads, writes, energy, busy_time });

impl SourceStats {
    /// Total accesses (reads + writes).
    #[must_use]
    pub const fn accesses(&self) -> u64 {
        self.reads + self.writes
    }
}

/// Aggregate statistics of one module, broken down by [`AccessSource`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ModuleStats {
    /// Demand-request accesses.
    pub request: SourceStats,
    /// Page-fault fill accesses.
    pub page_fault: SourceStats,
    /// Migration traffic accesses.
    pub migration: SourceStats,
}

impl_json!(ToJson, FromJson for ModuleStats { request, page_fault, migration });

impl ModuleStats {
    /// Returns the stats bucket for a source.
    #[must_use]
    pub const fn source(&self, source: AccessSource) -> &SourceStats {
        match source {
            AccessSource::Request => &self.request,
            AccessSource::PageFault => &self.page_fault,
            AccessSource::Migration => &self.migration,
        }
    }

    fn source_mut(&mut self, source: AccessSource) -> &mut SourceStats {
        match source {
            AccessSource::Request => &mut self.request,
            AccessSource::PageFault => &mut self.page_fault,
            AccessSource::Migration => &mut self.migration,
        }
    }

    /// Total writes across all sources.
    #[must_use]
    pub const fn total_writes(&self) -> u64 {
        self.request.writes + self.page_fault.writes + self.migration.writes
    }

    /// Total reads across all sources.
    #[must_use]
    pub const fn total_reads(&self) -> u64 {
        self.request.reads + self.page_fault.reads + self.migration.reads
    }

    /// Total accesses across all sources.
    #[must_use]
    pub const fn total_accesses(&self) -> u64 {
        self.total_reads() + self.total_writes()
    }

    /// Total dynamic energy across all sources.
    #[must_use]
    pub fn total_energy(&self) -> Nanojoules {
        self.request.energy + self.page_fault.energy + self.migration.energy
    }

    /// Total busy time across all sources.
    #[must_use]
    pub fn total_busy_time(&self) -> Nanoseconds {
        self.request.busy_time + self.page_fault.busy_time + self.migration.busy_time
    }
}

/// One DRAM or NVM module: capacity, characteristics, and accounting.
///
/// The module does not know *which* pages it holds — placement is the
/// policy's job (`hybridmem-policy`); the module only prices and counts the
/// accesses routed to it.
///
/// # Examples
///
/// ```
/// use hybridmem_device::{AccessSource, MemoryCharacteristics, MemoryModule};
/// use hybridmem_types::{AccessKind, MemoryKind, PageCount};
///
/// let mut dram = MemoryModule::new(
///     MemoryKind::Dram,
///     PageCount::new(64),
///     MemoryCharacteristics::dram_date2016(),
/// );
/// dram.record_access(AccessKind::Read, AccessSource::Request);
/// dram.record_access(AccessKind::Write, AccessSource::Migration);
/// assert_eq!(dram.stats().request.reads, 1);
/// assert_eq!(dram.stats().migration.writes, 1);
/// assert_eq!(dram.stats().total_accesses(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryModule {
    kind: MemoryKind,
    capacity: PageCount,
    characteristics: MemoryCharacteristics,
    stats: ModuleStats,
}

impl MemoryModule {
    /// Creates a module of the given kind and capacity.
    #[must_use]
    pub const fn new(
        kind: MemoryKind,
        capacity: PageCount,
        characteristics: MemoryCharacteristics,
    ) -> Self {
        Self {
            kind,
            capacity,
            characteristics,
            stats: ModuleStats {
                request: SourceStats {
                    reads: 0,
                    writes: 0,
                    energy: Nanojoules::ZERO,
                    busy_time: Nanoseconds::ZERO,
                },
                page_fault: SourceStats {
                    reads: 0,
                    writes: 0,
                    energy: Nanojoules::ZERO,
                    busy_time: Nanoseconds::ZERO,
                },
                migration: SourceStats {
                    reads: 0,
                    writes: 0,
                    energy: Nanojoules::ZERO,
                    busy_time: Nanoseconds::ZERO,
                },
            },
        }
    }

    /// Which module this is.
    #[must_use]
    pub const fn kind(&self) -> MemoryKind {
        self.kind
    }

    /// Capacity in pages.
    #[must_use]
    pub const fn capacity(&self) -> PageCount {
        self.capacity
    }

    /// The technology characteristics of this module.
    #[must_use]
    pub const fn characteristics(&self) -> &MemoryCharacteristics {
        &self.characteristics
    }

    /// Accumulated statistics.
    #[must_use]
    pub const fn stats(&self) -> &ModuleStats {
        &self.stats
    }

    /// Static power of the whole module in nanojoules per second.
    ///
    /// Static power is drawn by every provisioned page regardless of
    /// traffic — this is the term hybrid memories attack, since PCM static
    /// power is 10× lower than DRAM (Table IV).
    #[must_use]
    pub fn static_power_nj_s(&self) -> f64 {
        let pages = self.capacity.value() as f64;
        pages * self.characteristics.static_power_per_page_nj_s()
    }

    /// Records one access of `kind` attributed to `source`, returning its
    /// cost and accumulating it into [`MemoryModule::stats`].
    pub fn record_access(&mut self, kind: AccessKind, source: AccessSource) -> AccessCost {
        self.record_accesses(kind, source, 1)
    }

    /// Records `count` identical accesses at once (used for page moves,
    /// which are `PageFactor` back-to-back accesses), returning the *total*
    /// cost of the batch.
    pub fn record_accesses(
        &mut self,
        kind: AccessKind,
        source: AccessSource,
        count: u64,
    ) -> AccessCost {
        let n = count as f64;
        let cost = AccessCost::new(
            self.characteristics.latency(kind) * n,
            self.characteristics.energy(kind) * n,
        );
        let bucket = self.stats.source_mut(source);
        match kind {
            AccessKind::Read => bucket.reads += count,
            AccessKind::Write => bucket.writes += count,
        }
        bucket.energy += cost.energy;
        bucket.busy_time += cost.latency;
        cost
    }

    /// Resets all counters while keeping capacity and characteristics.
    pub fn reset_stats(&mut self) {
        self.stats = ModuleStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nvm() -> MemoryModule {
        MemoryModule::new(
            MemoryKind::Nvm,
            PageCount::new(100),
            MemoryCharacteristics::pcm_date2016(),
        )
    }

    #[test]
    fn record_access_prices_by_kind() {
        let mut m = nvm();
        let r = m.record_access(AccessKind::Read, AccessSource::Request);
        assert_eq!(r.latency.value(), 100.0);
        assert_eq!(r.energy.value(), 6.4);
        let w = m.record_access(AccessKind::Write, AccessSource::Request);
        assert_eq!(w.latency.value(), 350.0);
        assert_eq!(w.energy.value(), 32.0);
    }

    #[test]
    fn batched_accesses_scale_linearly() {
        let mut m = nvm();
        let c = m.record_accesses(AccessKind::Write, AccessSource::Migration, 512);
        assert_eq!(c.latency.value(), 512.0 * 350.0);
        assert_eq!(c.energy.value(), 512.0 * 32.0);
        assert_eq!(m.stats().migration.writes, 512);
        assert_eq!(m.stats().migration.reads, 0);
    }

    #[test]
    fn sources_are_attributed_separately() {
        let mut m = nvm();
        m.record_access(AccessKind::Read, AccessSource::Request);
        m.record_accesses(AccessKind::Write, AccessSource::PageFault, 512);
        m.record_accesses(AccessKind::Read, AccessSource::Migration, 512);
        assert_eq!(m.stats().request.accesses(), 1);
        assert_eq!(m.stats().page_fault.writes, 512);
        assert_eq!(m.stats().migration.reads, 512);
        assert_eq!(m.stats().total_accesses(), 1025);
        assert_eq!(m.stats().total_writes(), 512);
        assert_eq!(m.stats().total_reads(), 513);
    }

    #[test]
    fn total_energy_and_busy_time_sum_sources() {
        let mut m = nvm();
        m.record_access(AccessKind::Read, AccessSource::Request);
        m.record_access(AccessKind::Write, AccessSource::Migration);
        let total = m.stats().total_energy();
        assert!((total.value() - (6.4 + 32.0)).abs() < 1e-9);
        assert!((m.stats().total_busy_time().value() - 450.0).abs() < 1e-9);
    }

    #[test]
    fn static_power_scales_with_capacity() {
        let small = MemoryModule::new(
            MemoryKind::Dram,
            PageCount::new(10),
            MemoryCharacteristics::dram_date2016(),
        );
        let large = MemoryModule::new(
            MemoryKind::Dram,
            PageCount::new(1000),
            MemoryCharacteristics::dram_date2016(),
        );
        assert!((large.static_power_nj_s() / small.static_power_nj_s() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_counters_only() {
        let mut m = nvm();
        m.record_access(AccessKind::Write, AccessSource::Request);
        m.reset_stats();
        assert_eq!(m.stats().total_accesses(), 0);
        assert_eq!(m.capacity(), PageCount::new(100));
        assert_eq!(m.kind(), MemoryKind::Nvm);
    }

    #[test]
    fn access_source_all_is_exhaustive_and_ordered() {
        assert_eq!(
            AccessSource::all(),
            [
                AccessSource::Request,
                AccessSource::PageFault,
                AccessSource::Migration
            ]
        );
    }
}
