//! Simulation reports: everything the paper's figures are assembled from.

#![cfg_attr(
    not(test),
    warn(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap,
        clippy::cast_lossless,
        clippy::float_cmp
    )
)]

use hybridmem_device::ModuleStats;
use hybridmem_json::impl_json;
use hybridmem_types::{Nanojoules, Nanoseconds};

/// Event counters of one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Total demand requests driven through the policy.
    pub requests: u64,
    /// Demand reads.
    pub reads: u64,
    /// Demand writes.
    pub writes: u64,
    /// Read hits served by DRAM.
    pub dram_read_hits: u64,
    /// Write hits served by DRAM.
    pub dram_write_hits: u64,
    /// Read hits served by NVM.
    pub nvm_read_hits: u64,
    /// Write hits served by NVM.
    pub nvm_write_hits: u64,
    /// Page faults (misses in both memories).
    pub faults: u64,
    /// NVM→DRAM page migrations.
    pub migrations_to_dram: u64,
    /// DRAM→NVM page migrations.
    pub migrations_to_nvm: u64,
    /// Page-fault fills into DRAM.
    pub fills_to_dram: u64,
    /// Page-fault fills into NVM.
    pub fills_to_nvm: u64,
    /// Pages evicted from memory to disk.
    pub evictions_to_disk: u64,
}

impl_json!(ToJson, FromJson for Counts {
    requests,
    reads,
    writes,
    dram_read_hits,
    dram_write_hits,
    nvm_read_hits,
    nvm_write_hits,
    faults,
    migrations_to_dram,
    migrations_to_nvm,
    fills_to_dram,
    fills_to_nvm,
    evictions_to_disk,
});

impl Counts {
    /// Total hits in either memory.
    #[must_use]
    pub const fn hits(&self) -> u64 {
        self.dram_read_hits + self.dram_write_hits + self.nvm_read_hits + self.nvm_write_hits
    }

    /// Overall hit ratio in `[0, 1]`; 0 when no requests ran.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.hits() as f64 / self.requests as f64
    }

    /// Total migrations in both directions.
    #[must_use]
    pub const fn migrations(&self) -> u64 {
        self.migrations_to_dram + self.migrations_to_nvm
    }
}

/// Total request-visible latency, split by the paper's Fig. 2b/4c legend.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyBreakdown {
    /// Demand read/write service time in the memories.
    pub requests: Nanoseconds,
    /// Page-fault (disk) time.
    pub faults: Nanoseconds,
    /// Page-migration time (both directions).
    pub migrations: Nanoseconds,
}

impl_json!(ToJson, FromJson for LatencyBreakdown { requests, faults, migrations });

impl LatencyBreakdown {
    /// Total latency across all components.
    #[must_use]
    pub fn total(&self) -> Nanoseconds {
        self.requests + self.faults + self.migrations
    }
}

/// Total energy, split by the paper's Fig. 1/2a/4a legend.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Prorated static energy (Eq. 3) over the run.
    pub static_energy: Nanojoules,
    /// Dynamic energy of demand requests.
    pub dynamic: Nanojoules,
    /// Dynamic energy of page-fault fills.
    pub page_faults: Nanojoules,
    /// Dynamic energy of migrations.
    pub migrations: Nanojoules,
}

impl_json!(ToJson, FromJson for EnergyBreakdown {
    static_energy,
    dynamic,
    page_faults,
    migrations,
});

impl EnergyBreakdown {
    /// Total energy across all components.
    #[must_use]
    pub fn total(&self) -> Nanojoules {
        self.static_energy + self.dynamic + self.page_faults + self.migrations
    }
}

/// Physical writes arriving at the NVM module, split by the paper's
/// Fig. 2c/4b legend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NvmWriteBreakdown {
    /// Demand write requests served by NVM.
    pub requests: u64,
    /// Writes from page-fault fills (`PageFactor` per fill).
    pub page_faults: u64,
    /// Writes from migrations into NVM (`PageFactor` per migration).
    pub migrations: u64,
}

impl_json!(ToJson, FromJson for NvmWriteBreakdown { requests, page_faults, migrations });

impl NvmWriteBreakdown {
    /// Total physical NVM writes.
    #[must_use]
    pub const fn total(&self) -> u64 {
        self.requests + self.page_faults + self.migrations
    }
}

/// NVM wear summary extracted from the
/// [`WearTracker`](hybridmem_device::WearTracker).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WearSummary {
    /// Wear of the most-written NVM page.
    pub max_page_wear: u64,
    /// Mean writes per touched NVM page.
    pub mean_page_wear: f64,
    /// Max/mean wear imbalance (1.0 = perfectly even).
    pub imbalance: f64,
}

impl_json!(ToJson, FromJson for WearSummary { max_page_wear, mean_page_wear, imbalance });

/// The complete result of one simulation run.
///
/// # Examples
///
/// ```
/// use hybridmem_core::{ExperimentConfig, PolicyKind};
/// use hybridmem_trace::parsec;
///
/// let spec = parsec::spec("bodytrack")?.capped(5_000);
/// let config = ExperimentConfig::default();
/// let report = config.run(&spec, PolicyKind::DramOnly)?;
/// // 30% of the trace is warmup; the report covers the steady state.
/// let warmup = (spec.total_accesses() as f64 * config.warmup_fraction) as u64;
/// assert_eq!(report.counts.requests, spec.total_accesses() - warmup);
/// assert!(report.amat().value() > 0.0);
/// # Ok::<(), hybridmem_types::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationReport {
    /// Policy display name.
    pub policy: String,
    /// Workload name.
    pub workload: String,
    /// DRAM capacity used, in pages.
    pub dram_pages: u64,
    /// NVM capacity used, in pages.
    pub nvm_pages: u64,
    /// Workload footprint (distinct pages), in pages.
    pub footprint_pages: u64,
    /// Event counters.
    pub counts: Counts,
    /// Latency totals.
    pub latency: LatencyBreakdown,
    /// Energy totals.
    pub energy: EnergyBreakdown,
    /// Physical NVM write totals.
    pub nvm_writes: NvmWriteBreakdown,
    /// NVM wear summary.
    pub wear: WearSummary,
    /// DRAM module accounting.
    pub dram_stats: ModuleStats,
    /// NVM module accounting.
    pub nvm_stats: ModuleStats,
    /// Estimated workload duration (ns) used for static proration.
    pub duration_ns: f64,
}

impl_json!(ToJson, FromJson for SimulationReport {
    policy,
    workload,
    dram_pages,
    nvm_pages,
    footprint_pages,
    counts,
    latency,
    energy,
    nvm_writes,
    wear,
    dram_stats,
    nvm_stats,
    duration_ns,
});

impl SimulationReport {
    /// Average memory access time: total latency per request (Eq. 1,
    /// measured rather than closed-form).
    #[must_use]
    pub fn amat(&self) -> Nanoseconds {
        if self.counts.requests == 0 {
            return Nanoseconds::ZERO;
        }
        self.latency.total() / self.counts.requests as f64
    }

    /// Average power (energy) per request including the static share
    /// (Eq. 2 + Eq. 3, measured).
    #[must_use]
    pub fn appr(&self) -> Nanojoules {
        if self.counts.requests == 0 {
            return Nanojoules::ZERO;
        }
        self.energy.total() / self.counts.requests as f64
    }

    /// Total energy ratio of `self` to `baseline` — the y-axis of
    /// Figs. 1, 2a, and 4a.
    #[must_use]
    pub fn energy_normalized_to(&self, baseline: &Self) -> f64 {
        self.energy.total().ratio_to(baseline.energy.total())
    }

    /// Total AMAT ratio of `self` to `baseline` — the y-axis of Figs. 2b
    /// and 4c.
    #[must_use]
    pub fn amat_normalized_to(&self, baseline: &Self) -> f64 {
        self.amat().ratio_to(baseline.amat())
    }

    /// NVM-write ratio of `self` to `baseline` — the y-axis of Figs. 2c
    /// and 4b.
    #[must_use]
    pub fn nvm_writes_normalized_to(&self, baseline: &Self) -> f64 {
        self.nvm_writes.total() as f64 / baseline.nvm_writes.total() as f64
    }

    /// A multi-line human-readable summary of the run (the format used by
    /// the CLI and the examples).
    ///
    /// # Examples
    ///
    /// ```
    /// use hybridmem_core::{ExperimentConfig, PolicyKind};
    /// use hybridmem_trace::parsec;
    ///
    /// let spec = parsec::spec("bodytrack")?.capped(5_000);
    /// let report = ExperimentConfig::default().run(&spec, PolicyKind::TwoLru)?;
    /// let text = report.text_summary();
    /// assert!(text.contains("two-lru") && text.contains("AMAT"));
    /// # Ok::<(), hybridmem_types::Error>(())
    /// ```
    #[must_use]
    pub fn text_summary(&self) -> String {
        let n = self.counts.requests.max(1) as f64;
        format!(
            "policy {} over {}:\n\
             \x20 memory            {} DRAM + {} NVM pages\n\
             \x20 requests          {} ({:.2}% hit, {} faults)\n\
             \x20 migrations        {} to DRAM, {} to NVM\n\
             \x20 AMAT              {:.1} ns ({:.1}% from migrations)\n\
             \x20 energy/request    {:.2} nJ ({:.1}% static)\n\
             \x20 NVM writes        {} (max page wear {})",
            self.policy,
            self.workload,
            self.dram_pages,
            self.nvm_pages,
            self.counts.requests,
            self.counts.hit_ratio() * 100.0,
            self.counts.faults,
            self.counts.migrations_to_dram,
            self.counts.migrations_to_nvm,
            self.amat().value(),
            self.latency.migrations.value() / self.latency.total().value().max(1e-12) * 100.0,
            self.energy.total().value() / n,
            self.energy.static_energy.value() / self.energy.total().value().max(1e-12) * 100.0,
            self.nvm_writes.total(),
            self.wear.max_page_wear,
        )
    }
}

/// Geometric mean of a non-empty slice (the paper's headline average:
/// "Average numbers reported throughout the paper are geometric means").
///
/// # Panics
///
/// Panics when `values` is empty or contains a non-positive value.
///
/// # Examples
///
/// ```
/// let g = hybridmem_core::geo_mean(&[1.0, 4.0]);
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
#[must_use]
pub fn geo_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of an empty slice");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geometric mean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean of a non-empty slice (the "A-Mean" bars).
///
/// # Panics
///
/// Panics when `values` is empty.
#[must_use]
pub fn arith_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "arithmetic mean of an empty slice");
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(requests: u64, latency_total: f64, energy_total: f64) -> SimulationReport {
        SimulationReport {
            policy: "test".into(),
            workload: "w".into(),
            dram_pages: 10,
            nvm_pages: 90,
            footprint_pages: 130,
            counts: Counts {
                requests,
                ..Counts::default()
            },
            latency: LatencyBreakdown {
                requests: Nanoseconds::new(latency_total),
                ..LatencyBreakdown::default()
            },
            energy: EnergyBreakdown {
                dynamic: Nanojoules::new(energy_total),
                ..EnergyBreakdown::default()
            },
            nvm_writes: NvmWriteBreakdown {
                requests: 10,
                page_faults: 20,
                migrations: 30,
            },
            wear: WearSummary::default(),
            dram_stats: ModuleStats::default(),
            nvm_stats: ModuleStats::default(),
            duration_ns: 1e6,
        }
    }

    #[test]
    fn amat_and_appr_divide_by_requests() {
        let r = report(100, 5_000.0, 320.0);
        assert!((r.amat().value() - 50.0).abs() < 1e-12);
        assert!((r.appr().value() - 3.2).abs() < 1e-12);
        let empty = report(0, 0.0, 0.0);
        assert_eq!(empty.amat(), Nanoseconds::ZERO);
        assert_eq!(empty.appr(), Nanojoules::ZERO);
    }

    #[test]
    fn normalization_ratios() {
        let a = report(100, 4_000.0, 100.0);
        let b = report(100, 8_000.0, 400.0);
        assert!((a.amat_normalized_to(&b) - 0.5).abs() < 1e-12);
        assert!((a.energy_normalized_to(&b) - 0.25).abs() < 1e-12);
        assert!((a.nvm_writes_normalized_to(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn counts_helpers() {
        let c = Counts {
            requests: 10,
            dram_read_hits: 2,
            dram_write_hits: 1,
            nvm_read_hits: 3,
            nvm_write_hits: 0,
            faults: 4,
            migrations_to_dram: 5,
            migrations_to_nvm: 7,
            ..Counts::default()
        };
        assert_eq!(c.hits(), 6);
        assert!((c.hit_ratio() - 0.6).abs() < 1e-12);
        assert_eq!(c.migrations(), 12);
        assert_eq!(Counts::default().hit_ratio(), 0.0);
    }

    #[test]
    fn breakdown_totals() {
        let l = LatencyBreakdown {
            requests: Nanoseconds::new(1.0),
            faults: Nanoseconds::new(2.0),
            migrations: Nanoseconds::new(3.0),
        };
        assert_eq!(l.total().value(), 6.0);
        let e = EnergyBreakdown {
            static_energy: Nanojoules::new(1.0),
            dynamic: Nanojoules::new(2.0),
            page_faults: Nanojoules::new(3.0),
            migrations: Nanojoules::new(4.0),
        };
        assert_eq!(e.total().value(), 10.0);
        let w = NvmWriteBreakdown {
            requests: 1,
            page_faults: 2,
            migrations: 3,
        };
        assert_eq!(w.total(), 6);
    }

    #[test]
    fn means() {
        assert!((geo_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((arith_mean(&[2.0, 8.0]) - 5.0).abs() < 1e-12);
        assert!((geo_mean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive values")]
    fn geo_mean_rejects_zero() {
        let _ = geo_mean(&[1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn means_reject_empty() {
        let _ = arith_mean(&[]);
    }

    #[test]
    fn text_summary_is_complete() {
        let r = report(100, 5_000.0, 320.0);
        let text = r.text_summary();
        for needle in ["policy test", "AMAT", "NVM writes", "migrations", "static"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = report(10, 100.0, 10.0);
        let json = hybridmem_json::to_string(&r);
        let back: SimulationReport = hybridmem_json::from_str(&json).unwrap();
        assert_eq!(r, back);
        assert_eq!(hybridmem_json::to_string(&back), json);
    }
}
