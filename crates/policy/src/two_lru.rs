//! The paper's proposed data-migration scheme: two unmodified LRU queues
//! plus threshold-gated NVM→DRAM promotion (Algorithm 1).
//!
//! # Scheme summary
//!
//! * One LRU queue per module; both run *unmodified* LRU so the hit ratio
//!   matches a conventional memory.
//! * Page faults always fill into **DRAM** ("the proposed scheme moves all
//!   pages from disk to DRAM"); the DRAM victim is demoted to NVM
//!   (a DRAM→NVM migration), and NVM's victim — when NVM is full — is
//!   evicted to disk.
//! * Per-page read/write counters are kept **only** while a page sits in the
//!   top `readperc` / `writeperc` fraction of the NVM queue; a page that
//!   slides past the window boundary has the corresponding counter reset.
//!   The counters live in the page's NVM queue entry (the "additional
//!   information" of Fig. 3), from its first NVM hit until it leaves NVM,
//!   so an NVM hit finds the page's rank and counters in one lookup.
//! * A hit that pushes a counter past `read_threshold` / `write_threshold`
//!   promotes the page to DRAM. When DRAM is full the promotion is a *swap*:
//!   DRAM's LRU victim is demoted into the NVM slot freed by the promotion.
//!
//! # Window-reset equivalence
//!
//! Algorithm 1 resets counters *eagerly* when a page crosses the window
//! boundary (lines 8–9). This implementation resets *lazily*, at the page's
//! next hit: between two consecutive hits of a page, its recency rank only
//! increases (other pages' touches can only push it towards the LRU end),
//! so "crossed the boundary since the last hit" is exactly "current rank ≥
//! window size". Both counters are checked against their own windows at
//! every hit, which makes the lazy scheme observationally identical to the
//! eager one while avoiding any boundary scans.
//!
//! # Examples
//!
//! ```
//! use hybridmem_policy::{HybridPolicy, TwoLruConfig, TwoLruPolicy};
//! use hybridmem_types::{MemoryKind, PageAccess, PageCount, PageId};
//!
//! let config = TwoLruConfig::new(PageCount::new(2), PageCount::new(8))?;
//! let mut policy = TwoLruPolicy::new(config);
//!
//! // First touch faults into DRAM.
//! let out = policy.on_access(PageAccess::read(PageId::new(7)));
//! assert!(out.fault);
//! assert_eq!(policy.occupancy(MemoryKind::Dram), 1);
//! # Ok::<(), hybridmem_types::Error>(())
//! ```

use hybridmem_metrics::MetricsRegistry;
use hybridmem_types::{
    AccessKind, Error, MemoryKind, PageAccess, PageCount, PageId, Residency, Result,
};

use crate::{
    AccessOutcome, ActionList, BatchOutcomes, CounterKind, HybridPolicy, LinkedLru,
    NvmCounterProbe, PolicyAction, RankedLru,
};

/// Configuration of the proposed two-LRU migration scheme.
///
/// The paper prescribes `writeperc > readperc` and
/// `write_threshold > read_threshold` (Section IV): write-dominant pages
/// are tracked over a wider window because they cost more to leave in NVM,
/// but each write counts toward a higher bar because a wrong promotion is
/// also more expensive. The defaults below are this crate's calibration of
/// values the paper leaves unspecified.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoLruConfig {
    /// DRAM queue capacity in pages (≥ 1).
    pub dram_capacity: PageCount,
    /// NVM queue capacity in pages (≥ 1).
    pub nvm_capacity: PageCount,
    /// Reads (within the read window) needed before promotion; ≥ 1.
    pub read_threshold: u32,
    /// Writes (within the write window) needed before promotion; ≥ 1.
    pub write_threshold: u32,
    /// `readperc`: fraction of the NVM queue (from the MRU end) in which
    /// read counters are maintained; in `(0, 1]`.
    pub read_window: f64,
    /// `writeperc`: fraction of the NVM queue in which write counters are
    /// maintained; in `(0, 1]`.
    pub write_window: f64,
}

impl TwoLruConfig {
    /// Default thresholds used throughout the evaluation (see `DESIGN.md`):
    /// `read_threshold = 6`, `write_threshold = 12`, `readperc = 0.05`,
    /// `writeperc = 0.15`. The paper leaves the values unspecified beyond
    /// `writeperc > readperc` and `write_threshold > read_threshold`; these
    /// are calibrated so promotion is sticky enough to suppress the
    /// promote/demote thrash the thresholds exist to prevent.
    pub const DEFAULT_READ_THRESHOLD: u32 = 6;
    /// See [`TwoLruConfig::DEFAULT_READ_THRESHOLD`].
    pub const DEFAULT_WRITE_THRESHOLD: u32 = 12;
    /// See [`TwoLruConfig::DEFAULT_READ_THRESHOLD`].
    pub const DEFAULT_READ_WINDOW: f64 = 0.05;
    /// See [`TwoLruConfig::DEFAULT_READ_THRESHOLD`].
    pub const DEFAULT_WRITE_WINDOW: f64 = 0.15;

    /// Creates a configuration with the paper-calibrated default thresholds
    /// and windows.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when either capacity is zero.
    pub fn new(dram_capacity: PageCount, nvm_capacity: PageCount) -> Result<Self> {
        Self::with_thresholds(
            dram_capacity,
            nvm_capacity,
            Self::DEFAULT_READ_THRESHOLD,
            Self::DEFAULT_WRITE_THRESHOLD,
            Self::DEFAULT_READ_WINDOW,
            Self::DEFAULT_WRITE_WINDOW,
        )
    }

    /// Creates a fully explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when a capacity is zero, a threshold
    /// is zero, or a window fraction is outside `(0, 1]`.
    pub fn with_thresholds(
        dram_capacity: PageCount,
        nvm_capacity: PageCount,
        read_threshold: u32,
        write_threshold: u32,
        read_window: f64,
        write_window: f64,
    ) -> Result<Self> {
        if dram_capacity.is_zero() || nvm_capacity.is_zero() {
            return Err(Error::invalid_config(
                "DRAM and NVM capacities must both be at least one page",
            ));
        }
        if read_threshold == 0 || write_threshold == 0 {
            return Err(Error::invalid_config(
                "read and write thresholds must be at least 1",
            ));
        }
        for (name, w) in [("read_window", read_window), ("write_window", write_window)] {
            if !(w > 0.0 && w <= 1.0) {
                return Err(Error::invalid_config(format!(
                    "{name} must be in (0, 1], got {w}"
                )));
            }
        }
        Ok(Self {
            dram_capacity,
            nvm_capacity,
            read_threshold,
            write_threshold,
            read_window,
            write_window,
        })
    }

    /// Read-counter window size in pages (at least 1).
    #[must_use]
    pub fn read_window_pages(&self) -> usize {
        Self::window_pages(self.nvm_capacity, self.read_window)
    }

    /// Write-counter window size in pages (at least 1).
    #[must_use]
    pub fn write_window_pages(&self) -> usize {
        Self::window_pages(self.nvm_capacity, self.write_window)
    }

    fn window_pages(capacity: PageCount, fraction: f64) -> usize {
        let pages = (capacity.value() as f64 * fraction).ceil() as usize;
        pages.max(1)
    }
}

/// Per-page read/write counters ("Additional Information" in Fig. 3),
/// kept in the page's NVM queue entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PageCounters {
    reads: u32,
    writes: u32,
}

/// Counter-window statistics of the two-LRU scheme, for observability.
///
/// Window *resets* count only resets that discarded progress: a lazy
/// boundary reset that zeroes an already-zero counter is invisible to the
/// algorithm and is not counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TwoLruStats {
    /// Read counters zeroed (from a nonzero value) because the page slid
    /// past the read-window boundary.
    pub read_window_resets: u64,
    /// Write counters zeroed (from a nonzero value) because the page slid
    /// past the write-window boundary.
    pub write_window_resets: u64,
    /// NVM→DRAM promotions triggered by a read crossing `read_threshold`.
    pub read_promotions: u64,
    /// NVM→DRAM promotions triggered by a write crossing `write_threshold`.
    pub write_promotions: u64,
}

/// The proposed two-LRU migration policy (Algorithm 1).
///
/// See the module documentation (in the source) for the scheme and the lazy-reset
/// equivalence argument.
#[derive(Debug, Clone)]
pub struct TwoLruPolicy {
    config: TwoLruConfig,
    // DRAM hits need no recency rank, only a move-to-front, so the DRAM
    // queue is the O(1) [`LinkedLru`]; NVM stays on the Fenwick-backed
    // [`RankedLru`] because the counter windows are rank queries. Each
    // NVM entry carries the page's counters: `None` until its first NVM
    // hit, so they live exactly as long as the page stays in NVM.
    dram: LinkedLru,
    nvm: RankedLru<Option<PageCounters>>,
    stats: TwoLruStats,
}

impl TwoLruPolicy {
    /// Creates the policy for the given configuration.
    #[must_use]
    pub fn new(config: TwoLruConfig) -> Self {
        Self {
            config,
            dram: LinkedLru::with_capacity(config.dram_capacity.value() as usize),
            nvm: RankedLru::with_capacity(config.nvm_capacity.value() as usize),
            stats: TwoLruStats::default(),
        }
    }

    /// The active configuration.
    #[must_use]
    pub const fn config(&self) -> &TwoLruConfig {
        &self.config
    }

    /// Replaces the promotion thresholds at runtime.
    ///
    /// Used by the adaptive-threshold extension
    /// ([`AdaptiveTwoLruPolicy`](crate::AdaptiveTwoLruPolicy)); counters
    /// already accumulated are kept and compared against the new values.
    ///
    /// # Panics
    ///
    /// Panics if either threshold is zero.
    pub fn set_thresholds(&mut self, read_threshold: u32, write_threshold: u32) {
        assert!(
            read_threshold > 0 && write_threshold > 0,
            "thresholds must be at least 1"
        );
        self.config.read_threshold = read_threshold;
        self.config.write_threshold = write_threshold;
    }

    /// The read/write counters currently stored for an NVM-resident page
    /// (`(reads, writes)`), or `None` when the page has none: a page has
    /// counters from its first NVM hit until it leaves NVM.
    ///
    /// Exposed for inspection and tests; the simulator does not need it.
    #[must_use]
    pub fn counters_of(&self, page: PageId) -> Option<(u32, u32)> {
        let counters = (*self.nvm.meta(page)?)?;
        Some((counters.reads, counters.writes))
    }

    /// Counter-window statistics accumulated so far.
    #[must_use]
    pub const fn stats(&self) -> &TwoLruStats {
        &self.stats
    }

    /// Pages currently inside the read-counter window (bounded by the NVM
    /// queue's occupancy while it is still filling).
    #[must_use]
    pub fn read_window_occupancy(&self) -> usize {
        self.config.read_window_pages().min(self.nvm.len())
    }

    /// Pages currently inside the write-counter window.
    #[must_use]
    pub fn write_window_occupancy(&self) -> usize {
        self.config.write_window_pages().min(self.nvm.len())
    }

    /// NVM-resident pages that currently carry read/write counters. O(n):
    /// walks the NVM queue.
    #[must_use]
    pub fn tracked_pages(&self) -> usize {
        self.nvm
            .pages_by_recency()
            .into_iter()
            .filter(|&page| self.counters_of(page).is_some())
            .count()
    }

    /// Exports the counter-window statistics into `registry` under the
    /// `two_lru.*` namespace: counters `read_window_resets`,
    /// `write_window_resets`, `read_promotions`, `write_promotions`; gauges
    /// `read_window_occupancy`, `write_window_occupancy`, `tracked_pages`.
    pub fn export_metrics(&self, registry: &mut MetricsRegistry) {
        registry.add("two_lru.read_window_resets", self.stats.read_window_resets);
        registry.add(
            "two_lru.write_window_resets",
            self.stats.write_window_resets,
        );
        registry.add("two_lru.read_promotions", self.stats.read_promotions);
        registry.add("two_lru.write_promotions", self.stats.write_promotions);
        registry.set_gauge(
            "two_lru.read_window_occupancy",
            self.read_window_occupancy() as f64,
        );
        registry.set_gauge(
            "two_lru.write_window_occupancy",
            self.write_window_occupancy() as f64,
        );
        registry.set_gauge("two_lru.tracked_pages", self.tracked_pages() as f64);
    }

    /// Handles a hit in the NVM queue (Algorithm 1, lines 6–25); `None`
    /// when `page` is not in NVM. One NVM lookup finds the page's rank and
    /// its counters.
    #[expect(clippy::expect_used, reason = "a full DRAM queue has a victim")]
    fn on_nvm_hit(&mut self, page: PageId, kind: AccessKind) -> Option<AccessOutcome> {
        let (rank, entry) = self.nvm.touch_ranked(page)?;
        let counters = entry.get_or_insert_with(PageCounters::default);
        // Lazy boundary reset (see module docs): a rank at or past a window
        // means the page crossed that window's boundary since its last hit.
        // Only resets that discard accumulated progress count as resets.
        let mut read_lost = 0;
        let mut write_lost = 0;
        if rank >= self.config.read_window_pages() {
            if counters.reads != 0 {
                self.stats.read_window_resets += 1;
                read_lost = counters.reads;
            }
            counters.reads = 0;
        }
        if rank >= self.config.write_window_pages() {
            if counters.writes != 0 {
                self.stats.write_window_resets += 1;
                write_lost = counters.writes;
            }
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
        let probe = NvmCounterProbe {
            rank: rank as u64,
            reads: counters.reads,
            writes: counters.writes,
            read_lost,
            write_lost,
            read_threshold: self.config.read_threshold,
            write_threshold: self.config.write_threshold,
            fired: hot.then_some(match kind {
                AccessKind::Read => CounterKind::Read,
                AccessKind::Write => CounterKind::Write,
            }),
        };

        if !hot {
            return Some(AccessOutcome::hit(MemoryKind::Nvm).with_counter_probe(probe));
        }
        match kind {
            AccessKind::Read => self.stats.read_promotions += 1,
            AccessKind::Write => self.stats.write_promotions += 1,
        }

        // Promote to DRAM; when DRAM is full this is a swap with DRAM's LRU
        // victim, which lands in the NVM slot the promotion frees.
        let mut actions = ActionList::new();
        self.nvm.remove(page);
        if self.dram.len() as u64 >= self.config.dram_capacity.value() {
            let victim = self
                .dram
                .evict_lru()
                .expect("a full DRAM queue has a victim");
            self.nvm.insert(victim, None);
            actions.push(PolicyAction::Migrate {
                page: victim,
                from: MemoryKind::Dram,
                to: MemoryKind::Nvm,
            });
        }
        self.dram.insert(page);
        actions.push(PolicyAction::Migrate {
            page,
            from: MemoryKind::Nvm,
            to: MemoryKind::Dram,
        });
        Some(AccessOutcome::hit_with(MemoryKind::Nvm, actions).with_counter_probe(probe))
    }

    /// Handles a page fault (Algorithm 1, lines 27–28): fill into DRAM,
    /// demoting DRAM's victim to NVM and evicting NVM's victim to disk as
    /// needed.
    #[expect(clippy::expect_used, reason = "a full queue has a victim")]
    fn on_fault(&mut self, page: PageId) -> AccessOutcome {
        let mut actions = ActionList::new();
        if self.dram.len() as u64 >= self.config.dram_capacity.value() {
            if self.nvm.len() as u64 >= self.config.nvm_capacity.value() {
                let (out, _) = self.nvm.evict_lru().expect("a full NVM queue has a victim");
                actions.push(PolicyAction::EvictToDisk {
                    page: out,
                    from: MemoryKind::Nvm,
                });
            }
            let victim = self
                .dram
                .evict_lru()
                .expect("a full DRAM queue has a victim");
            self.nvm.insert(victim, None);
            actions.push(PolicyAction::Migrate {
                page: victim,
                from: MemoryKind::Dram,
                to: MemoryKind::Nvm,
            });
        }
        self.dram.insert(page);
        actions.push(PolicyAction::FillFromDisk {
            page,
            into: MemoryKind::Dram,
        });
        AccessOutcome::fault_with(actions)
    }
}

impl HybridPolicy for TwoLruPolicy {
    fn on_access(&mut self, access: PageAccess) -> AccessOutcome {
        // Algorithm 1: search DRAM first ("DRAM contains the most hot data
        // pages"), then NVM, else fault. Each touch doubles as the
        // membership probe, so a hit costs one lookup per queue searched.
        if self.dram.touch(access.page) {
            AccessOutcome::hit(MemoryKind::Dram)
        } else if let Some(outcome) = self.on_nvm_hit(access.page, access.kind) {
            outcome
        } else {
            self.on_fault(access.page)
        }
    }

    fn on_access_batch(&mut self, batch: &[PageAccess], out: &mut BatchOutcomes) {
        // Same decision tree as `on_access`, amortising the virtual dispatch
        // over the batch. DRAM hits — the overwhelmingly common case once
        // the queues are warm — compress to a one-byte step.
        for access in batch {
            if self.dram.touch(access.page) {
                out.push_dram_hit();
            } else if let Some(outcome) = self.on_nvm_hit(access.page, access.kind) {
                out.push_outcome(outcome);
            } else {
                let outcome = self.on_fault(access.page);
                out.push_detailed(outcome);
            }
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
        "two-lru"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(n: u64) -> PageId {
        PageId::new(n)
    }

    /// Test policy with explicit (legacy) thresholds: read 2 / write 4,
    /// windows 0.10 / 0.30 — the unit tests below are written against
    /// these, independent of the crate defaults.
    fn policy(dram: u64, nvm: u64) -> TwoLruPolicy {
        TwoLruPolicy::new(
            TwoLruConfig::with_thresholds(
                PageCount::new(dram),
                PageCount::new(nvm),
                2,
                4,
                0.10,
                0.30,
            )
            .unwrap(),
        )
    }

    /// Faults `n` distinct pages (ids `base..base+n`).
    fn fill(policy: &mut TwoLruPolicy, base: u64, n: u64) {
        for i in base..base + n {
            policy.on_access(PageAccess::read(page(i)));
        }
    }

    #[test]
    fn config_validation() {
        assert!(TwoLruConfig::new(PageCount::new(0), PageCount::new(1)).is_err());
        assert!(TwoLruConfig::new(PageCount::new(1), PageCount::new(0)).is_err());
        assert!(TwoLruConfig::with_thresholds(
            PageCount::new(1),
            PageCount::new(1),
            0,
            1,
            0.5,
            0.5
        )
        .is_err());
        assert!(TwoLruConfig::with_thresholds(
            PageCount::new(1),
            PageCount::new(1),
            1,
            1,
            0.0,
            0.5
        )
        .is_err());
        assert!(TwoLruConfig::with_thresholds(
            PageCount::new(1),
            PageCount::new(1),
            1,
            1,
            0.5,
            1.5
        )
        .is_err());
    }

    #[test]
    fn window_pages_round_up_with_floor_of_one() {
        let c = TwoLruConfig::new(PageCount::new(1), PageCount::new(30)).unwrap();
        assert_eq!(c.read_window_pages(), 2); // ceil(30 * 0.05)
        assert_eq!(c.write_window_pages(), 5); // ceil(30 * 0.15)
        let tiny =
            TwoLruConfig::with_thresholds(PageCount::new(1), PageCount::new(2), 1, 1, 0.01, 0.01)
                .unwrap();
        assert_eq!(tiny.read_window_pages(), 1);
    }

    #[test]
    fn faults_fill_dram_first() {
        let mut p = policy(2, 4);
        let out = p.on_access(PageAccess::read(page(1)));
        assert!(out.fault);
        assert_eq!(
            out.actions,
            vec![PolicyAction::FillFromDisk {
                page: page(1),
                into: MemoryKind::Dram
            }]
        );
        assert_eq!(p.residency(page(1)), Residency::InMemory(MemoryKind::Dram));
    }

    #[test]
    fn fault_with_full_dram_demotes_victim_to_nvm() {
        let mut p = policy(2, 4);
        fill(&mut p, 0, 2);
        let out = p.on_access(PageAccess::read(page(2)));
        assert!(out.fault);
        assert_eq!(
            out.actions,
            vec![
                PolicyAction::Migrate {
                    page: page(0),
                    from: MemoryKind::Dram,
                    to: MemoryKind::Nvm
                },
                PolicyAction::FillFromDisk {
                    page: page(2),
                    into: MemoryKind::Dram
                },
            ]
        );
        assert_eq!(p.residency(page(0)), Residency::InMemory(MemoryKind::Nvm));
        assert_eq!(p.occupancy(MemoryKind::Dram), 2);
    }

    #[test]
    fn fault_with_both_full_evicts_nvm_victim_to_disk() {
        let mut p = policy(1, 1);
        fill(&mut p, 0, 2); // page 0 demoted to NVM, page 1 in DRAM
        let out = p.on_access(PageAccess::read(page(2)));
        assert_eq!(
            out.actions,
            vec![
                PolicyAction::EvictToDisk {
                    page: page(0),
                    from: MemoryKind::Nvm
                },
                PolicyAction::Migrate {
                    page: page(1),
                    from: MemoryKind::Dram,
                    to: MemoryKind::Nvm
                },
                PolicyAction::FillFromDisk {
                    page: page(2),
                    into: MemoryKind::Dram
                },
            ]
        );
        assert_eq!(p.residency(page(0)), Residency::OnDisk);
    }

    #[test]
    fn dram_hit_is_plain_lru() {
        let mut p = policy(2, 4);
        fill(&mut p, 0, 2);
        let out = p.on_access(PageAccess::write(page(0)));
        assert_eq!(out, AccessOutcome::hit(MemoryKind::Dram));
    }

    #[test]
    fn nvm_write_hits_promote_after_threshold() {
        // DRAM=1, NVM=10; write_threshold=4, write window = ceil(10*0.3)=3.
        let mut p = policy(1, 10);
        fill(&mut p, 0, 11); // pages 0..=9 demoted to NVM over time, page 10 in DRAM
        let victim = page(0); // oldest — actually demoted in order; pick a resident NVM page
        assert_eq!(p.residency(victim), Residency::InMemory(MemoryKind::Nvm));

        // Repeated writes to the same NVM page keep it at the window head.
        let mut outcomes = Vec::new();
        for _ in 0..5 {
            outcomes.push(p.on_access(PageAccess::write(victim)));
        }
        // Writes 1..=4 stay below/at the threshold, the 5th exceeds it.
        assert!(outcomes[..4].iter().all(|o| o.migrations() == 0));
        assert_eq!(
            outcomes[4].migrations(),
            2,
            "promotion swaps with DRAM victim"
        );
        assert_eq!(p.residency(victim), Residency::InMemory(MemoryKind::Dram));
    }

    #[test]
    fn nvm_read_hits_promote_after_read_threshold() {
        let mut p = policy(1, 10);
        fill(&mut p, 0, 11);
        let target = page(5);
        assert_eq!(p.residency(target), Residency::InMemory(MemoryKind::Nvm));
        let o1 = p.on_access(PageAccess::read(target));
        let o2 = p.on_access(PageAccess::read(target));
        let o3 = p.on_access(PageAccess::read(target));
        assert_eq!(o1.migrations() + o2.migrations(), 0);
        assert_eq!(
            o3.migrations(),
            2,
            "third read in window exceeds threshold 2"
        );
    }

    #[test]
    fn counter_resets_when_page_crosses_window() {
        // NVM capacity 10 → read window 1 page, write window 3 pages.
        let mut p = policy(1, 10);
        fill(&mut p, 0, 11);
        let target = page(5);
        // Two reads: counter reaches 2 (= threshold, not above).
        p.on_access(PageAccess::read(target));
        p.on_access(PageAccess::read(target));
        assert_eq!(p.counters_of(target), Some((2, 0)));
        // Push `target` out of the 1-page read window with other NVM hits.
        p.on_access(PageAccess::read(page(6)));
        p.on_access(PageAccess::read(page(7)));
        // Next read of target: rank ≥ window ⇒ counter restarts at 1.
        let out = p.on_access(PageAccess::read(target));
        assert_eq!(out.migrations(), 0);
        assert_eq!(p.counters_of(target), Some((1, 0)));
    }

    #[test]
    fn write_window_is_wider_than_read_window() {
        // NVM=10: read window 1, write window 3. A page at rank 1..2 keeps
        // its write counter but loses its read counter.
        let mut p = policy(1, 10);
        fill(&mut p, 0, 11);
        let target = page(5);
        p.on_access(PageAccess::write(target));
        p.on_access(PageAccess::read(target));
        assert_eq!(p.counters_of(target), Some((1, 1)));
        // One other page hit: target slides to rank 1 (inside write window,
        // outside read window).
        p.on_access(PageAccess::read(page(6)));
        p.on_access(PageAccess::write(target));
        assert_eq!(
            p.counters_of(target),
            Some((0, 2)),
            "rank 1 ≥ read window ⇒ read counter reset; write counter grew"
        );
        p.on_access(PageAccess::read(page(6)));
        let out = p.on_access(PageAccess::read(target));
        assert_eq!(out.migrations(), 0);
        assert_eq!(
            p.counters_of(target),
            Some((1, 2)),
            "rank 2 < write window ⇒ write counter survives the excursion"
        );
    }

    #[test]
    fn promotion_swaps_when_dram_full() {
        let mut p = policy(4, 10);
        // Fill DRAM partially, then force pages into NVM via capacity:
        fill(&mut p, 0, 4);
        // Manually promote by writing an NVM page enough times. First get a
        // page into NVM: fault a 5th page, demoting page 0.
        p.on_access(PageAccess::read(page(4)));
        assert_eq!(p.residency(page(0)), Residency::InMemory(MemoryKind::Nvm));
        // DRAM is full (pages 1,2,3,4) — promotion must swap.
        for _ in 0..5 {
            p.on_access(PageAccess::write(page(0)));
        }
        assert_eq!(p.residency(page(0)), Residency::InMemory(MemoryKind::Dram));
        assert_eq!(p.occupancy(MemoryKind::Dram), 4);
        assert_eq!(p.occupancy(MemoryKind::Nvm), 1);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut p = policy(2, 3);
        for i in 0..50u64 {
            let kind = if i % 3 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            p.on_access(PageAccess::new(page(i % 8), kind));
            assert!(p.occupancy(MemoryKind::Dram) <= 2);
            assert!(p.occupancy(MemoryKind::Nvm) <= 3);
        }
    }

    #[test]
    fn set_thresholds_updates_config() {
        let mut p = policy(1, 10);
        p.set_thresholds(7, 9);
        assert_eq!(p.config().read_threshold, 7);
        assert_eq!(p.config().write_threshold, 9);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn set_thresholds_rejects_zero() {
        policy(1, 1).set_thresholds(0, 1);
    }

    #[test]
    fn name_and_capacity() {
        let p = policy(2, 4);
        assert_eq!(p.name(), "two-lru");
        assert_eq!(p.capacity(MemoryKind::Dram), PageCount::new(2));
        assert_eq!(p.capacity(MemoryKind::Nvm), PageCount::new(4));
    }

    #[test]
    fn stats_count_promotions_by_triggering_kind() {
        let mut p = policy(1, 10);
        fill(&mut p, 0, 11);
        // Three reads of one NVM page promote it (threshold 2).
        for _ in 0..3 {
            p.on_access(PageAccess::read(page(5)));
        }
        assert_eq!(p.stats().read_promotions, 1);
        assert_eq!(p.stats().write_promotions, 0);
        // Five writes of another NVM page promote it (threshold 4).
        for _ in 0..5 {
            p.on_access(PageAccess::write(page(6)));
        }
        assert_eq!(p.stats().write_promotions, 1);
    }

    #[test]
    fn stats_count_only_lossy_window_resets() {
        // NVM capacity 10 → read window 1 page.
        let mut p = policy(1, 10);
        fill(&mut p, 0, 11);
        let target = page(5);
        p.on_access(PageAccess::read(target));
        let after_first = p.stats().read_window_resets;
        p.on_access(PageAccess::read(target));
        // Push target out of the read window, then hit it again: the reset
        // discards two accumulated reads, so it counts.
        p.on_access(PageAccess::read(page(6)));
        p.on_access(PageAccess::read(target));
        assert_eq!(p.stats().read_window_resets, after_first + 1);
    }

    #[test]
    fn window_occupancy_is_bounded_by_nvm_occupancy() {
        let mut p = policy(1, 10); // write window = 3 pages
        assert_eq!(p.write_window_occupancy(), 0, "empty NVM queue");
        fill(&mut p, 0, 3); // 1 DRAM page + 2 NVM pages
        assert_eq!(p.write_window_occupancy(), 2);
        fill(&mut p, 3, 8);
        assert_eq!(p.write_window_occupancy(), 3);
        assert_eq!(p.read_window_occupancy(), 1);
        assert!(p.tracked_pages() <= p.occupancy(MemoryKind::Nvm) as usize);
    }

    #[test]
    fn export_metrics_uses_two_lru_namespace() {
        let mut p = policy(1, 10);
        fill(&mut p, 0, 11);
        for _ in 0..3 {
            p.on_access(PageAccess::read(page(5)));
        }
        let mut registry = MetricsRegistry::new();
        p.export_metrics(&mut registry);
        assert_eq!(registry.counter("two_lru.read_promotions"), 1);
        assert_eq!(registry.counter("two_lru.write_promotions"), 0);
        assert!(registry.gauge("two_lru.tracked_pages") >= 0.0);
        assert!(registry.gauge("two_lru.read_window_occupancy") >= 1.0);
    }

    #[test]
    fn as_any_downcasts_to_concrete_policy() {
        let p = policy(2, 4);
        let dynamic: &dyn HybridPolicy = &p;
        let any = dynamic.as_any().expect("two-LRU exposes itself");
        assert!(any.downcast_ref::<TwoLruPolicy>().is_some());
    }
}
