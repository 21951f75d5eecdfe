//! Adaptive threshold prediction — the paper's stated future work.
//!
//! "It is worthy to note that using adaptive threshold prediction can
//! further improve the efficiency of the proposed scheme. This is part of
//! our ongoing research." — Section V-B.
//!
//! This extension wraps [`TwoLruPolicy`] with a feedback controller:
//!
//! 1. Every NVM→DRAM promotion is remembered.
//! 2. When a promoted page later leaves DRAM (demotion or eviction), the
//!    number of DRAM hits it collected is compared against
//!    [`AdaptiveConfig::benefit_floor`] — the hit count at which a promotion
//!    pays for its `2 × PageFactor` migration accesses.
//! 3. Every [`AdaptiveConfig::adjust_interval`] completed promotions, the
//!    controller doubles both thresholds when most promotions were
//!    non-beneficial, and decays them toward the configured baseline when
//!    most promotions paid off.
//!
//! The controller observes only [`AccessOutcome`]s, so it composes with the
//! inner policy without reaching into its queues.
//!
//! # Examples
//!
//! ```
//! use hybridmem_policy::{AdaptiveConfig, AdaptiveTwoLruPolicy, HybridPolicy, TwoLruConfig};
//! use hybridmem_types::{PageAccess, PageCount, PageId};
//!
//! let inner = TwoLruConfig::new(PageCount::new(4), PageCount::new(32))?;
//! let mut policy = AdaptiveTwoLruPolicy::new(inner, AdaptiveConfig::default());
//! policy.on_access(PageAccess::read(PageId::new(1)));
//! assert_eq!(policy.name(), "two-lru-adaptive");
//! # Ok::<(), hybridmem_types::Error>(())
//! ```

use hybridmem_json::impl_json;
use hybridmem_types::{
    Error, FxHashMap, MemoryKind, PageAccess, PageCount, PageId, Residency, Result,
};

use crate::{AccessOutcome, HybridPolicy, PolicyAction, TwoLruConfig, TwoLruPolicy};

/// Tuning knobs of the adaptive-threshold controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// DRAM hits a promoted page must collect before leaving DRAM for the
    /// promotion to count as beneficial.
    pub benefit_floor: u64,
    /// Number of completed promotions between controller adjustments.
    pub adjust_interval: u32,
    /// Fraction of non-beneficial promotions above which thresholds double.
    pub raise_above: f64,
    /// Fraction of non-beneficial promotions below which thresholds decay
    /// toward the baseline.
    pub lower_below: f64,
    /// Upper bound on either threshold, bounding controller excursions.
    pub max_threshold: u32,
}

impl_json!(ToJson for AdaptiveConfig {
    benefit_floor,
    adjust_interval,
    raise_above,
    lower_below,
    max_threshold,
});

impl AdaptiveConfig {
    /// Defaults: `benefit_floor = 16`, `adjust_interval = 32`,
    /// `raise_above = 0.5`, `lower_below = 0.2`, `max_threshold = 64`.
    #[must_use]
    pub fn new() -> Self {
        Self {
            benefit_floor: 16,
            adjust_interval: 32,
            raise_above: 0.5,
            lower_below: 0.2,
            max_threshold: 64,
        }
    }

    /// Checks the knobs the controller divides by and clamps to.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] naming the field when
    /// `adjust_interval` is zero (the wasted fraction would be `0/0`),
    /// `max_threshold` is zero (a raise would set a zero threshold, which
    /// [`TwoLruPolicy::set_thresholds`] refuses), or `raise_above` or
    /// `lower_below` is not in `[0, 1]`.
    pub fn validate(&self) -> Result<()> {
        for (field, value) in [
            ("adjust_interval", self.adjust_interval),
            ("max_threshold", self.max_threshold),
        ] {
            if value == 0 {
                return Err(Error::invalid_config(format!(
                    "adaptive.{field} must be at least 1, got 0"
                )));
            }
        }
        for (field, value) in [
            ("raise_above", self.raise_above),
            ("lower_below", self.lower_below),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(Error::invalid_config(format!(
                    "adaptive.{field} must be in [0, 1], got {value}"
                )));
            }
        }
        Ok(())
    }
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Aggregate statistics of the adaptive controller, for reports and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptiveStats {
    /// Promotions whose pages earned at least `benefit_floor` DRAM hits.
    pub beneficial_promotions: u64,
    /// Promotions whose pages left DRAM before earning their keep.
    pub wasted_promotions: u64,
    /// Times the controller raised the thresholds.
    pub raises: u64,
    /// Times the controller lowered the thresholds.
    pub lowers: u64,
}

/// [`TwoLruPolicy`] with run-time threshold adaptation.
///
/// See the module documentation (in the source) for the control loop.
#[derive(Debug, Clone)]
pub struct AdaptiveTwoLruPolicy {
    inner: TwoLruPolicy,
    adaptive: AdaptiveConfig,
    baseline_read: u32,
    baseline_write: u32,
    /// DRAM hit counts of pages promoted from NVM and still in DRAM.
    promoted: FxHashMap<PageId, u64>,
    /// Outcomes (beneficial?) of promotions completed since last adjustment.
    window_beneficial: u32,
    window_wasted: u32,
    stats: AdaptiveStats,
}

impl AdaptiveTwoLruPolicy {
    /// Creates the adaptive policy around a fresh [`TwoLruPolicy`].
    ///
    /// # Panics
    ///
    /// A config that [`AdaptiveConfig::validate`] rejects may panic when
    /// the controller adjusts the thresholds.
    #[must_use]
    pub fn new(config: TwoLruConfig, adaptive: AdaptiveConfig) -> Self {
        Self {
            baseline_read: config.read_threshold,
            baseline_write: config.write_threshold,
            inner: TwoLruPolicy::new(config),
            adaptive,
            promoted: FxHashMap::default(),
            window_beneficial: 0,
            window_wasted: 0,
            stats: AdaptiveStats::default(),
        }
    }

    /// Controller statistics so far.
    #[must_use]
    pub const fn stats(&self) -> &AdaptiveStats {
        &self.stats
    }

    /// The wrapped [`TwoLruPolicy`], for reading its counter-window
    /// statistics ([`TwoLruPolicy::stats`], [`TwoLruPolicy::export_metrics`]).
    #[must_use]
    pub const fn two_lru(&self) -> &TwoLruPolicy {
        &self.inner
    }

    /// The currently active `(read_threshold, write_threshold)`.
    #[must_use]
    pub fn thresholds(&self) -> (u32, u32) {
        let c = self.inner.config();
        (c.read_threshold, c.write_threshold)
    }

    /// Processes the side effects of one outcome: promotion tracking and
    /// benefit scoring.
    fn observe(&mut self, access: PageAccess, outcome: &AccessOutcome) {
        // A DRAM hit on a tracked page earns it credit.
        if outcome.served_from == Some(MemoryKind::Dram) && !outcome.fault {
            if let Some(hits) = self.promoted.get_mut(&access.page) {
                *hits += 1;
            }
        }
        for action in &outcome.actions {
            match *action {
                PolicyAction::Migrate {
                    page,
                    from: MemoryKind::Nvm,
                    to: MemoryKind::Dram,
                } => {
                    self.promoted.insert(page, 0);
                }
                PolicyAction::Migrate {
                    page,
                    from: MemoryKind::Dram,
                    to: MemoryKind::Nvm,
                }
                | PolicyAction::EvictToDisk {
                    page,
                    from: MemoryKind::Dram,
                } => {
                    if let Some(hits) = self.promoted.remove(&page) {
                        self.score_promotion(hits);
                    }
                }
                // Fills and NVM-side evictions never concern a promoted
                // page (promotion moves it to DRAM); same-module
                // migrations are never emitted by any policy.
                PolicyAction::FillFromDisk { .. }
                | PolicyAction::EvictToDisk {
                    from: MemoryKind::Nvm,
                    ..
                }
                | PolicyAction::Migrate {
                    from: MemoryKind::Dram,
                    to: MemoryKind::Dram,
                    ..
                }
                | PolicyAction::Migrate {
                    from: MemoryKind::Nvm,
                    to: MemoryKind::Nvm,
                    ..
                } => {}
            }
        }
        let completed = self.window_beneficial + self.window_wasted;
        if completed >= self.adaptive.adjust_interval {
            self.adjust();
        }
    }

    fn score_promotion(&mut self, hits: u64) {
        if hits >= self.adaptive.benefit_floor {
            self.window_beneficial += 1;
            self.stats.beneficial_promotions += 1;
        } else {
            self.window_wasted += 1;
            self.stats.wasted_promotions += 1;
        }
    }

    fn adjust(&mut self) {
        let total = f64::from(self.window_beneficial + self.window_wasted);
        let wasted_frac = f64::from(self.window_wasted) / total;
        let (read, write) = self.thresholds();
        if wasted_frac > self.adaptive.raise_above {
            // A zero baseline (promote on the first NVM hit) rises to 1.
            let read = (read * 2).max(1).min(self.adaptive.max_threshold);
            let write = (write * 2).max(1).min(self.adaptive.max_threshold);
            self.inner.set_thresholds(read, write);
            self.stats.raises += 1;
        } else if wasted_frac < self.adaptive.lower_below {
            // Decay halfway back toward the configured baseline.
            let read = self.baseline_read.max(read / 2).max(1);
            let write = self.baseline_write.max(write / 2).max(1);
            self.inner.set_thresholds(read, write);
            self.stats.lowers += 1;
        }
        self.window_beneficial = 0;
        self.window_wasted = 0;
    }
}

impl HybridPolicy for AdaptiveTwoLruPolicy {
    fn on_access(&mut self, access: PageAccess) -> AccessOutcome {
        let outcome = self.inner.on_access(access);
        self.observe(access, &outcome);
        outcome
    }

    fn residency(&self, page: PageId) -> Residency {
        self.inner.residency(page)
    }

    fn occupancy(&self, kind: MemoryKind) -> u64 {
        self.inner.occupancy(kind)
    }

    fn capacity(&self, kind: MemoryKind) -> PageCount {
        self.inner.capacity(kind)
    }

    fn name(&self) -> &'static str {
        "two-lru-adaptive"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridmem_types::PageAccess;

    fn page(n: u64) -> PageId {
        PageId::new(n)
    }

    fn policy(dram: u64, nvm: u64, adaptive: AdaptiveConfig) -> AdaptiveTwoLruPolicy {
        AdaptiveTwoLruPolicy::new(
            TwoLruConfig::new(PageCount::new(dram), PageCount::new(nvm)).unwrap(),
            adaptive,
        )
    }

    /// Drives one page through promotion: enough NVM write hits to cross the
    /// default write threshold.
    fn promote(p: &mut AdaptiveTwoLruPolicy, target: PageId) {
        let (_, write_threshold) = p.thresholds();
        for _ in 0..=write_threshold {
            p.on_access(PageAccess::write(target));
        }
    }

    #[test]
    fn behaves_like_inner_policy_for_basic_flow() {
        let mut p = policy(2, 8, AdaptiveConfig::default());
        let out = p.on_access(PageAccess::read(page(1)));
        assert!(out.fault);
        assert_eq!(p.occupancy(MemoryKind::Dram), 1);
        assert_eq!(p.capacity(MemoryKind::Nvm), PageCount::new(8));
        assert_eq!(p.residency(page(1)), Residency::InMemory(MemoryKind::Dram));
    }

    #[test]
    fn wasted_promotions_raise_thresholds() {
        let adaptive = AdaptiveConfig {
            benefit_floor: 100, // nothing will ever look beneficial
            adjust_interval: 2,
            ..AdaptiveConfig::default()
        };
        let mut p = policy(1, 16, adaptive);
        let (read0, write0) = p.thresholds();

        // Fill memory: 1 DRAM page + several NVM pages.
        for i in 0..10 {
            p.on_access(PageAccess::read(page(i)));
        }
        // Promote NVM pages repeatedly; each promotion demotes the previous
        // DRAM occupant (completing its promotion with ~0 hits).
        for i in 0..8 {
            promote(&mut p, page(i));
        }
        let (read1, write1) = p.thresholds();
        assert!(p.stats().wasted_promotions > 0);
        assert!(p.stats().raises > 0);
        assert!(read1 > read0 && write1 > write0, "{read1} {write1}");
    }

    #[test]
    fn zero_thresholds_rise_to_one() {
        let adaptive = AdaptiveConfig {
            benefit_floor: 100,
            adjust_interval: 2,
            ..AdaptiveConfig::default()
        };
        let config =
            TwoLruConfig::with_thresholds(PageCount::new(1), PageCount::new(16), 0, 0, 0.05, 0.15)
                .unwrap();
        let mut p = AdaptiveTwoLruPolicy::new(config, adaptive);
        for i in 0..10 {
            p.on_access(PageAccess::read(page(i)));
        }
        // Each NVM hit promotes and demotes the previous promotion unused:
        // the third completes two wasted promotions.
        for i in 0..3 {
            p.on_access(PageAccess::read(page(i)));
        }
        assert_eq!(p.stats().raises, 1);
        assert_eq!(p.thresholds(), (1, 1));
    }

    #[test]
    fn beneficial_promotions_lower_thresholds_back() {
        let adaptive = AdaptiveConfig {
            benefit_floor: 1, // everything beneficial
            adjust_interval: 1,
            ..AdaptiveConfig::default()
        };
        let mut p = policy(1, 16, adaptive);
        for i in 0..10 {
            p.on_access(PageAccess::read(page(i)));
        }
        promote(&mut p, page(0));
        // Earn the promoted page a DRAM hit so its eventual demotion scores
        // as beneficial.
        p.on_access(PageAccess::write(page(0)));
        promote(&mut p, page(1)); // demotes page 0, completing its score
        assert!(p.stats().beneficial_promotions > 0);
        assert!(p.stats().lowers > 0);
        let c = p.thresholds();
        assert!(c.0 >= 1 && c.1 >= 1);
    }

    #[test]
    fn thresholds_never_exceed_cap() {
        let adaptive = AdaptiveConfig {
            benefit_floor: u64::MAX,
            adjust_interval: 1,
            max_threshold: 8,
            ..AdaptiveConfig::default()
        };
        let mut p = policy(1, 16, adaptive);
        for i in 0..10 {
            p.on_access(PageAccess::read(page(i)));
        }
        for round in 0..6 {
            for i in 0..8 {
                promote(&mut p, page((round * 8 + i) % 10));
            }
        }
        let (read, write) = p.thresholds();
        assert!(read <= 8 && write <= 8);
    }

    #[test]
    fn stats_default_is_zeroed() {
        let p = policy(1, 4, AdaptiveConfig::default());
        assert_eq!(*p.stats(), AdaptiveStats::default());
        assert_eq!(p.name(), "two-lru-adaptive");
    }

    #[test]
    fn exposes_inner_two_lru_and_its_stats() {
        let mut p = policy(1, 16, AdaptiveConfig::default());
        for i in 0..10 {
            p.on_access(PageAccess::read(page(i)));
        }
        promote(&mut p, page(0));
        assert_eq!(p.two_lru().stats().write_promotions, 1);
        let dynamic: &dyn HybridPolicy = &p;
        let any = dynamic.as_any().expect("adaptive exposes itself");
        assert!(any.downcast_ref::<AdaptiveTwoLruPolicy>().is_some());
    }
}
