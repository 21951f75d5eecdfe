//! Parameter-sweep helpers: programmatic access to the ablation studies
//! (`abl_thresholds`, `abl_window`, `abl_dram_ratio` build on these).
//!
//! Sweep points vary only the policy configuration, never the trace, so
//! every point replays the one trace materialized in the process-wide
//! [`TraceCache`] instead of regenerating it per point.

use hybridmem_trace::WorkloadSpec;
use hybridmem_types::Result;

use crate::{ExperimentConfig, PolicyKind, SimulationReport, TraceCache};

/// One point of a sweep: the varied configuration plus the paired
/// `(proposed, baseline)` reports it produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Human-readable description of the varied parameter, e.g.
    /// `"thresholds=(4,8)"`.
    pub parameter: String,
    /// Report of the policy under study.
    pub subject: SimulationReport,
    /// Report of the normalization baseline on the same trace.
    pub baseline: SimulationReport,
}

impl SweepPoint {
    /// Total-energy ratio `subject / baseline`.
    #[must_use]
    pub fn power_ratio(&self) -> f64 {
        self.subject.energy_normalized_to(&self.baseline)
    }

    /// AMAT ratio `subject / baseline`.
    #[must_use]
    pub fn amat_ratio(&self) -> f64 {
        self.subject.amat_normalized_to(&self.baseline)
    }

    /// Migrations per thousand requests of the subject policy.
    #[must_use]
    pub fn migrations_per_kreq(&self) -> f64 {
        self.subject.counts.migrations() as f64 / self.subject.counts.requests.max(1) as f64
            * 1000.0
    }
}

/// Sweeps the proposed scheme's promotion thresholds over one workload,
/// normalizing against DRAM-only (Ablation A1).
///
/// # Errors
///
/// Propagates the first failing simulation.
///
/// # Examples
///
/// ```
/// use hybridmem_core::{sweep_thresholds, ExperimentConfig};
/// use hybridmem_trace::parsec;
///
/// let spec = parsec::spec("bodytrack")?.capped(20_000);
/// let points = sweep_thresholds(
///     &spec,
///     &[(1, 2), (8, 16)],
///     &ExperimentConfig::default(),
/// )?;
/// assert_eq!(points.len(), 2);
/// // Eager promotion (1,2) migrates more than conservative (8,16).
/// assert!(points[0].migrations_per_kreq() >= points[1].migrations_per_kreq());
/// # Ok::<(), hybridmem_types::Error>(())
/// ```
pub fn sweep_thresholds(
    spec: &WorkloadSpec,
    thresholds: &[(u32, u32)],
    base: &ExperimentConfig,
) -> Result<Vec<SweepPoint>> {
    thresholds
        .iter()
        .map(|&(read_threshold, write_threshold)| {
            let config = ExperimentConfig {
                read_threshold,
                write_threshold,
                ..*base
            };
            let subject = config.run_cached(spec, PolicyKind::TwoLru, TraceCache::global())?;
            let baseline = config.run_cached(spec, PolicyKind::DramOnly, TraceCache::global())?;
            Ok(SweepPoint {
                parameter: format!("thresholds=({read_threshold},{write_threshold})"),
                subject,
                baseline,
            })
        })
        .collect()
}

/// Sweeps the counter-window fractions (`readperc`, `writeperc`) over one
/// workload (Ablation A2).
///
/// # Errors
///
/// Propagates the first failing simulation.
pub fn sweep_windows(
    spec: &WorkloadSpec,
    windows: &[(f64, f64)],
    base: &ExperimentConfig,
) -> Result<Vec<SweepPoint>> {
    windows
        .iter()
        .map(|&(read_window, write_window)| {
            let config = ExperimentConfig {
                read_window,
                write_window,
                ..*base
            };
            let subject = config.run_cached(spec, PolicyKind::TwoLru, TraceCache::global())?;
            let baseline = config.run_cached(spec, PolicyKind::DramOnly, TraceCache::global())?;
            Ok(SweepPoint {
                parameter: format!("windows=({read_window:.2},{write_window:.2})"),
                subject,
                baseline,
            })
        })
        .collect()
}

/// Sweeps the DRAM share of the hybrid memory (Ablation A3).
///
/// # Errors
///
/// Propagates the first failing simulation.
pub fn sweep_dram_fractions(
    spec: &WorkloadSpec,
    fractions: &[f64],
    base: &ExperimentConfig,
) -> Result<Vec<SweepPoint>> {
    fractions
        .iter()
        .map(|&dram_fraction| {
            let config = ExperimentConfig {
                dram_fraction,
                ..*base
            };
            let subject = config.run_cached(spec, PolicyKind::TwoLru, TraceCache::global())?;
            let baseline = config.run_cached(spec, PolicyKind::DramOnly, TraceCache::global())?;
            Ok(SweepPoint {
                parameter: format!("dram_fraction={dram_fraction:.2}"),
                subject,
                baseline,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridmem_trace::parsec;

    fn spec() -> WorkloadSpec {
        parsec::spec("bodytrack").unwrap().capped(15_000)
    }

    #[test]
    fn threshold_sweep_orders_migrations() {
        let points = sweep_thresholds(
            &spec(),
            &[(1, 1), (2, 4), (16, 32)],
            &ExperimentConfig::default(),
        )
        .unwrap();
        assert_eq!(points.len(), 3);
        assert!(points[0].parameter.contains("(1,1)"));
        // Migration volume is monotone non-increasing in the thresholds.
        assert!(points[0].migrations_per_kreq() >= points[1].migrations_per_kreq());
        assert!(points[1].migrations_per_kreq() >= points[2].migrations_per_kreq());
    }

    #[test]
    fn dram_fraction_sweep_scales_static_power() {
        let points =
            sweep_dram_fractions(&spec(), &[0.05, 0.5], &ExperimentConfig::default()).unwrap();
        // More DRAM ⇒ more static energy for the hybrid subject.
        assert!(points[1].subject.energy.static_energy > points[0].subject.energy.static_energy);
        // The DRAM-only baseline is unaffected by the split.
        assert_eq!(
            points[0].baseline.energy.static_energy,
            points[1].baseline.energy.static_energy
        );
    }

    #[test]
    fn window_sweep_runs_and_labels() {
        let points = sweep_windows(&spec(), &[(0.05, 0.15)], &ExperimentConfig::default()).unwrap();
        assert_eq!(points.len(), 1);
        assert!(points[0].parameter.contains("0.05"));
        assert!(points[0].power_ratio() > 0.0);
        assert!(points[0].amat_ratio() > 0.0);
    }
}
