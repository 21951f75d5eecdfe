//! Trace statistics: the measurements behind the regenerated Table III.

use std::collections::BTreeMap;

use hybridmem_types::{Access, PageCount, PageId, PAGE_SIZE};

/// Aggregate statistics of an access stream.
///
/// # Examples
///
/// ```
/// use hybridmem_trace::{parsec, TraceGenerator, TraceStats};
///
/// let spec = parsec::spec("bodytrack")?.capped(5_000);
/// let stats = TraceStats::from_accesses(TraceGenerator::new(spec.clone(), 1));
/// assert_eq!(stats.total(), spec.total_accesses());
/// assert!(stats.footprint().value() <= spec.working_set.value());
/// # Ok::<(), hybridmem_types::Error>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStats {
    /// Number of read requests observed.
    pub reads: u64,
    /// Number of write requests observed.
    pub writes: u64,
    /// Per-page access counts `(reads, writes)`.
    ///
    /// A `BTreeMap` so statistics list pages in a stable, sorted order
    /// (hash-map iteration order would leak the hasher state into
    /// anything derived from it).
    pub per_page: BTreeMap<PageId, (u64, u64)>,
}

impl TraceStats {
    /// Computes statistics over an access stream.
    #[must_use]
    pub fn from_accesses<I: IntoIterator<Item = Access>>(accesses: I) -> Self {
        let mut stats = Self::default();
        for access in accesses {
            stats.record(access);
        }
        stats
    }

    /// Folds one access into the statistics.
    pub fn record(&mut self, access: Access) {
        let entry = self.per_page.entry(access.page()).or_insert((0, 0));
        if access.kind.is_write() {
            self.writes += 1;
            entry.1 += 1;
        } else {
            self.reads += 1;
            entry.0 += 1;
        }
    }

    /// Total accesses observed.
    #[must_use]
    pub const fn total(&self) -> u64 {
        self.reads + self.writes
    }

    /// Distinct pages touched (the measured working-set size).
    #[must_use]
    pub fn footprint(&self) -> PageCount {
        PageCount::new(self.per_page.len() as u64)
    }

    /// Measured working-set size in KB (for Table III comparison).
    #[must_use]
    pub fn working_set_kb(&self) -> u64 {
        self.footprint().value() * (PAGE_SIZE as u64 / 1024)
    }

    /// Fraction of accesses that are reads, in `[0, 1]`; 0 for an empty
    /// trace.
    #[must_use]
    pub fn read_ratio(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.reads as f64 / self.total() as f64
    }

    /// Mean accesses per touched page; 0 for an empty trace.
    #[must_use]
    pub fn accesses_per_page(&self) -> f64 {
        if self.per_page.is_empty() {
            return 0.0;
        }
        self.total() as f64 / self.per_page.len() as f64
    }

    /// Fraction of touched pages that are write-dominant (more writes than
    /// reads) — the page population the migration policies compete over.
    #[must_use]
    pub fn write_dominant_page_ratio(&self) -> f64 {
        if self.per_page.is_empty() {
            return 0.0;
        }
        let dominant = self
            .per_page
            .values()
            .filter(|(reads, writes)| writes > reads)
            .count();
        dominant as f64 / self.per_page.len() as f64
    }
}

impl Extend<Access> for TraceStats {
    fn extend<I: IntoIterator<Item = Access>>(&mut self, iter: I) {
        for access in iter {
            self.record(access);
        }
    }
}

impl FromIterator<Access> for TraceStats {
    fn from_iter<I: IntoIterator<Item = Access>>(iter: I) -> Self {
        Self::from_accesses(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridmem_types::CoreId;

    fn read(page: u64) -> Access {
        Access::read(PageId::new(page).base_address(), CoreId::new(0))
    }

    fn write(page: u64) -> Access {
        Access::write(PageId::new(page).base_address(), CoreId::new(0))
    }

    #[test]
    fn counts_and_footprint() {
        let stats = TraceStats::from_accesses([read(0), read(0), write(1), read(2)]);
        assert_eq!(stats.reads, 3);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.total(), 4);
        assert_eq!(stats.footprint(), PageCount::new(3));
        assert_eq!(stats.working_set_kb(), 12);
        assert!((stats.read_ratio() - 0.75).abs() < 1e-12);
        assert!((stats.accesses_per_page() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_safe() {
        let stats = TraceStats::default();
        assert_eq!(stats.total(), 0);
        assert_eq!(stats.read_ratio(), 0.0);
        assert_eq!(stats.accesses_per_page(), 0.0);
        assert_eq!(stats.write_dominant_page_ratio(), 0.0);
    }

    #[test]
    fn write_dominance_is_per_page() {
        let stats = TraceStats::from_accesses([
            write(0),
            write(0),
            read(0), // page 0: write-dominant
            read(1),
            write(1), // page 1: tied → not dominant
            read(2),  // page 2: read-only
        ]);
        assert!((stats.write_dominant_page_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn extend_and_collect() {
        let mut stats: TraceStats = [read(0)].into_iter().collect();
        stats.extend([write(1)]);
        assert_eq!(stats.total(), 2);
        assert_eq!(stats.per_page[&PageId::new(1)], (0, 1));
    }
}
