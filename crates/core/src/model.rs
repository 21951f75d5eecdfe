//! The paper's analytical performance and power models (Section II).
//!
//! [`ModelParams`] mirrors Table I: per-technology latencies and energies,
//! hit/miss/migration probabilities, and `PageFactor`. [`ModelParams::amat`]
//! implements Eq. 1 and [`ModelParams::appr`] implements Eq. 2 verbatim;
//! [`TimeModel`] supplies the workload duration that Eq. 3's prorated
//! static power needs.
//!
//! The simulator (`crate::HybridSimulator`) measures the same quantities by
//! direct accounting; these closed forms exist to (a) document the model,
//! (b) unit-test the algebra on hand-computed fixtures, and (c)
//! cross-validate the simulator — a property test feeds measured
//! probabilities back through Eq. 1/Eq. 2 and checks they reproduce the
//! measured AMAT/APPR.

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

use hybridmem_device::{DiskCharacteristics, MemoryCharacteristics};
use hybridmem_json::impl_json;
use hybridmem_types::{Error, Nanojoules, Nanoseconds, Result, PAGE_FACTOR};

/// Probability inputs of Eq. 1 / Eq. 2, per Table I.
///
/// All probabilities are per memory request. `hit_dram + hit_nvm + miss`
/// must equal 1; the read/write splits are conditional probabilities within
/// each hit class and must each sum to 1 (when the class has any mass).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probabilities {
    /// `PHitDRAM` — probability a request hits DRAM.
    pub hit_dram: f64,
    /// `PHitNVM` — probability a request hits NVM.
    pub hit_nvm: f64,
    /// `PMiss` — probability a request misses main memory.
    pub miss: f64,
    /// `PRDRAM` — probability a DRAM hit is a read.
    pub read_given_dram: f64,
    /// `PRNVM` — probability an NVM hit is a read.
    pub read_given_nvm: f64,
    /// `PMigD` — NVM→DRAM migrations per request.
    pub migrate_to_dram: f64,
    /// `PMigN` — DRAM→NVM migrations per request.
    pub migrate_to_nvm: f64,
    /// `PDiskToD` — fraction of misses filled into DRAM.
    pub disk_to_dram: f64,
    /// `PDiskToN` — fraction of misses filled into NVM.
    pub disk_to_nvm: f64,
}

impl Probabilities {
    /// Validates the probability simplex constraints.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when a value is outside `[0, 1]`
    /// (migration rates may exceed 1 and are only required non-negative),
    /// when `hit_dram + hit_nvm + miss` differs from 1 by more than 1e-9,
    /// or when `disk_to_dram + disk_to_nvm` does (given any miss mass).
    pub fn validate(&self) -> Result<()> {
        for (name, v) in [
            ("hit_dram", self.hit_dram),
            ("hit_nvm", self.hit_nvm),
            ("miss", self.miss),
            ("read_given_dram", self.read_given_dram),
            ("read_given_nvm", self.read_given_nvm),
            ("disk_to_dram", self.disk_to_dram),
            ("disk_to_nvm", self.disk_to_nvm),
        ] {
            if !(0.0..=1.0).contains(&v) || !v.is_finite() {
                return Err(Error::invalid_config(format!(
                    "{name} must be a probability in [0, 1], got {v}"
                )));
            }
        }
        for (name, v) in [
            ("migrate_to_dram", self.migrate_to_dram),
            ("migrate_to_nvm", self.migrate_to_nvm),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(Error::invalid_config(format!(
                    "{name} must be non-negative, got {v}"
                )));
            }
        }
        let total = self.hit_dram + self.hit_nvm + self.miss;
        if (total - 1.0).abs() > 1e-9 {
            return Err(Error::invalid_config(format!(
                "hit_dram + hit_nvm + miss must be 1, got {total}"
            )));
        }
        if self.miss > 0.0 {
            let fill = self.disk_to_dram + self.disk_to_nvm;
            if (fill - 1.0).abs() > 1e-9 {
                return Err(Error::invalid_config(format!(
                    "disk_to_dram + disk_to_nvm must be 1, got {fill}"
                )));
            }
        }
        Ok(())
    }
}

/// The full Table I parameter set: probabilities plus device constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelParams {
    /// Request-mix and migration probabilities.
    pub probabilities: Probabilities,
    /// DRAM technology constants (Table IV row 1).
    pub dram: MemoryCharacteristics,
    /// NVM technology constants (Table IV row 2).
    pub nvm: MemoryCharacteristics,
    /// Disk model (Table II).
    pub disk: DiskCharacteristics,
    /// `PageFactor` — memory accesses per page move.
    pub page_factor: u64,
}

impl ModelParams {
    /// Creates a parameter set with the paper's device constants
    /// (Table IV, Table II) and `PageFactor` = 512.
    #[must_use]
    pub fn date2016(probabilities: Probabilities) -> Self {
        Self {
            probabilities,
            dram: MemoryCharacteristics::dram_date2016(),
            nvm: MemoryCharacteristics::pcm_date2016(),
            disk: DiskCharacteristics::hdd_date2016(),
            page_factor: PAGE_FACTOR,
        }
    }

    /// Average Memory Access Time — Eq. 1 of the paper, term by term.
    ///
    /// ```text
    /// AMAT = PHitDRAM · (PRDRAM·TRDRAM + PWDRAM·TWDRAM)
    ///      + PHitNVM  · (PRNVM·TRNVM  + PWNVM·TWNVM)
    ///      + PMiss · TDisk
    ///      + PMigD · PageFactor · (TRNVM + TWDRAM)
    ///      + PMigN · PageFactor · (TRDRAM + TWNVM)
    /// ```
    #[must_use]
    pub fn amat(&self) -> Nanoseconds {
        let p = &self.probabilities;
        let pf = self.page_factor as f64;
        let dram_hit = p.hit_dram
            * (p.read_given_dram * self.dram.read_latency.value()
                + (1.0 - p.read_given_dram) * self.dram.write_latency.value());
        let nvm_hit = p.hit_nvm
            * (p.read_given_nvm * self.nvm.read_latency.value()
                + (1.0 - p.read_given_nvm) * self.nvm.write_latency.value());
        let miss = p.miss * self.disk.access_latency.value();
        let mig_d = p.migrate_to_dram
            * pf
            * (self.nvm.read_latency.value() + self.dram.write_latency.value());
        let mig_n = p.migrate_to_nvm
            * pf
            * (self.dram.read_latency.value() + self.nvm.write_latency.value());
        Nanoseconds::new(dram_hit + nvm_hit + miss + mig_d + mig_n)
    }

    /// Average (dynamic) Power Per Request — Eq. 2 of the paper.
    ///
    /// ```text
    /// APPR = PHitDRAM · (PRDRAM·PoRDRAM + PWDRAM·PoWDRAM)
    ///      + PHitNVM  · (PRNVM·PoRNVM  + PWNVM·PoWNVM)
    ///      + PMiss · PDiskToD · PageFactor · PoWDRAM
    ///      + PMiss · PDiskToN · PageFactor · PoWNVM
    ///      + PMigD · PageFactor · (PoRNVM + PoWDRAM)
    ///      + PMigN · PageFactor · (PoRDRAM + PoWNVM)
    /// ```
    ///
    /// Add the Eq. 3 static share via [`TimeModel::static_energy_per_request`]
    /// for the full power picture.
    #[must_use]
    pub fn appr(&self) -> Nanojoules {
        let p = &self.probabilities;
        let pf = self.page_factor as f64;
        let dram_hit = p.hit_dram
            * (p.read_given_dram * self.dram.read_energy.value()
                + (1.0 - p.read_given_dram) * self.dram.write_energy.value());
        let nvm_hit = p.hit_nvm
            * (p.read_given_nvm * self.nvm.read_energy.value()
                + (1.0 - p.read_given_nvm) * self.nvm.write_energy.value());
        let fill_d = p.miss * p.disk_to_dram * pf * self.dram.write_energy.value();
        let fill_n = p.miss * p.disk_to_nvm * pf * self.nvm.write_energy.value();
        let mig_d = p.migrate_to_dram
            * pf
            * (self.nvm.read_energy.value() + self.dram.write_energy.value());
        let mig_n =
            p.migrate_to_nvm * pf * (self.dram.read_energy.value() + self.nvm.write_energy.value());
        Nanojoules::new(dram_hit + nvm_hit + fill_d + fill_n + mig_d + mig_n)
    }

    /// Eq. 1, term by term. The terms sum to [`ModelParams::amat`].
    #[must_use]
    pub fn amat_components(&self) -> AmatComponents {
        let p = &self.probabilities;
        let pf = self.page_factor as f64;
        AmatComponents {
            dram_hits: p.hit_dram
                * (p.read_given_dram * self.dram.read_latency.value()
                    + (1.0 - p.read_given_dram) * self.dram.write_latency.value()),
            nvm_hits: p.hit_nvm
                * (p.read_given_nvm * self.nvm.read_latency.value()
                    + (1.0 - p.read_given_nvm) * self.nvm.write_latency.value()),
            faults: p.miss * self.disk.access_latency.value(),
            migrations_to_dram: p.migrate_to_dram
                * pf
                * (self.nvm.read_latency.value() + self.dram.write_latency.value()),
            migrations_to_nvm: p.migrate_to_nvm
                * pf
                * (self.dram.read_latency.value() + self.nvm.write_latency.value()),
        }
    }

    /// Eq. 2, term by term. The terms sum to [`ModelParams::appr`].
    #[must_use]
    pub fn appr_components(&self) -> ApprComponents {
        let p = &self.probabilities;
        let pf = self.page_factor as f64;
        ApprComponents {
            dram_hits: p.hit_dram
                * (p.read_given_dram * self.dram.read_energy.value()
                    + (1.0 - p.read_given_dram) * self.dram.write_energy.value()),
            nvm_hits: p.hit_nvm
                * (p.read_given_nvm * self.nvm.read_energy.value()
                    + (1.0 - p.read_given_nvm) * self.nvm.write_energy.value()),
            fills_to_dram: p.miss * p.disk_to_dram * pf * self.dram.write_energy.value(),
            fills_to_nvm: p.miss * p.disk_to_nvm * pf * self.nvm.write_energy.value(),
            migrations_to_dram: p.migrate_to_dram
                * pf
                * (self.nvm.read_energy.value() + self.dram.write_energy.value()),
            migrations_to_nvm: p.migrate_to_nvm
                * pf
                * (self.dram.read_energy.value() + self.nvm.write_energy.value()),
        }
    }

    /// The break-even NVM→DRAM migration rate: the `PMigD` (with a matching
    /// `PMigN` for the swap-back) at which moving a page to DRAM stops
    /// paying for itself, given how many future hits the page will receive
    /// in DRAM instead of NVM.
    ///
    /// A page promoted from NVM saves `(T_NVM − T_DRAM)` per subsequent
    /// read hit; a swap costs `PageFactor · (TR_NVM + TW_DRAM + TR_DRAM +
    /// TW_NVM)` of latency. The returned value is the number of *future
    /// read hits* a promoted page must collect before the swap breaks even
    /// — the quantitative justification for the paper's promotion
    /// thresholds.
    ///
    /// # Examples
    ///
    /// ```
    /// use hybridmem_core::{ModelParams, Probabilities};
    ///
    /// let model = ModelParams::date2016(Probabilities {
    ///     hit_dram: 1.0, hit_nvm: 0.0, miss: 0.0,
    ///     read_given_dram: 1.0, read_given_nvm: 1.0,
    ///     migrate_to_dram: 0.0, migrate_to_nvm: 0.0,
    ///     disk_to_dram: 1.0, disk_to_nvm: 0.0,
    /// });
    /// // With Table IV constants a swap costs 512·550 ns and each read hit
    /// // saves 50 ns, so >5,632 hits are needed to amortize one swap.
    /// assert_eq!(model.breakeven_hits_per_promotion().ceil() as u64, 5_632);
    /// ```
    #[must_use]
    pub fn breakeven_hits_per_promotion(&self) -> f64 {
        let pf = self.page_factor as f64;
        let swap_cost = pf
            * (self.nvm.read_latency.value()
                + self.dram.write_latency.value()
                + self.dram.read_latency.value()
                + self.nvm.write_latency.value());
        let per_hit_saving = self.nvm.read_latency.value() - self.dram.read_latency.value();
        swap_cost / per_hit_saving
    }
}

/// Per-term breakdown of Eq. 1 (all values in nanoseconds per request).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmatComponents {
    /// `PHitDRAM · (PRDRAM·TRDRAM + PWDRAM·TWDRAM)`.
    pub dram_hits: f64,
    /// `PHitNVM · (PRNVM·TRNVM + PWNVM·TWNVM)`.
    pub nvm_hits: f64,
    /// `PMiss · TDisk`.
    pub faults: f64,
    /// `PMigD · PageFactor · (TRNVM + TWDRAM)`.
    pub migrations_to_dram: f64,
    /// `PMigN · PageFactor · (TRDRAM + TWNVM)`.
    pub migrations_to_nvm: f64,
}

impl AmatComponents {
    /// Sum of all terms — equals [`ModelParams::amat`].
    #[must_use]
    pub fn total(&self) -> f64 {
        self.dram_hits
            + self.nvm_hits
            + self.faults
            + self.migrations_to_dram
            + self.migrations_to_nvm
    }

    /// Fraction of the total contributed by migrations (both directions);
    /// 0 when the total is 0.
    #[must_use]
    pub fn migration_share(&self) -> f64 {
        let total = self.total();
        if total > 0.0 {
            (self.migrations_to_dram + self.migrations_to_nvm) / total
        } else {
            0.0
        }
    }
}

/// Per-term breakdown of Eq. 2 (all values in nanojoules per request).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApprComponents {
    /// Demand-hit energy in DRAM.
    pub dram_hits: f64,
    /// Demand-hit energy in NVM.
    pub nvm_hits: f64,
    /// Page-fault fill energy into DRAM.
    pub fills_to_dram: f64,
    /// Page-fault fill energy into NVM.
    pub fills_to_nvm: f64,
    /// NVM→DRAM migration energy.
    pub migrations_to_dram: f64,
    /// DRAM→NVM migration energy.
    pub migrations_to_nvm: f64,
}

impl ApprComponents {
    /// Sum of all terms — equals [`ModelParams::appr`].
    #[must_use]
    pub fn total(&self) -> f64 {
        self.dram_hits
            + self.nvm_hits
            + self.fills_to_dram
            + self.fills_to_nvm
            + self.migrations_to_dram
            + self.migrations_to_nvm
    }

    /// Fraction of the total contributed by migrations; 0 when total is 0.
    #[must_use]
    pub fn migration_share(&self) -> f64 {
        let total = self.total();
        if total > 0.0 {
            (self.migrations_to_dram + self.migrations_to_nvm) / total
        } else {
            0.0
        }
    }
}

/// Workload-duration model feeding Eq. 3's prorated static power.
///
/// The paper prorates static power over the requests of "a given time
/// interval" measured on COTSon; with only the trace available, we estimate
/// the interval from two components (see `DESIGN.md`):
///
/// * a compute term proportional to the data footprint (CPU work per page
///   of data — dominant for compute-bound workloads like `blackscholes`),
/// * a service term proportional to the memory request count (dominant for
///   memory-bound workloads like `streamcluster`).
///
/// This reproduces the paper's observation that workloads with a high LLC
/// hit ratio (few memory requests per unit time) pay a *larger* static
/// share per request, and that `streamcluster`'s burst of accesses over a
/// small footprint makes dynamic power dominate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeModel {
    /// CPU time spent per footprint page, in nanoseconds.
    pub compute_ns_per_page: f64,
    /// Mean service/gap time per memory request, in nanoseconds.
    pub service_ns_per_request: f64,
}

impl_json!(ToJson for TimeModel { compute_ns_per_page, service_ns_per_request });

impl TimeModel {
    /// The calibration used throughout the evaluation: 250 µs of CPU work
    /// per data page plus 50 ns per memory request. Chosen so the DRAM-only
    /// static share lands in the 60–80 % band of Fig. 1 for mid-size
    /// footprints while `streamcluster`'s burst stays dynamic-dominated.
    #[must_use]
    pub fn date2016() -> Self {
        Self {
            compute_ns_per_page: 250_000.0,
            service_ns_per_request: 50.0,
        }
    }

    /// Estimated workload duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self, footprint_pages: u64, requests: u64) -> f64 {
        footprint_pages as f64 * self.compute_ns_per_page
            + requests as f64 * self.service_ns_per_request
    }

    /// Eq. 3: static energy prorated per request.
    ///
    /// `static_power_nj_s` is the *total* static power of all provisioned
    /// memory (DRAM + NVM). Returns zero for an empty trace.
    #[must_use]
    pub fn static_energy_per_request(
        &self,
        static_power_nj_s: f64,
        footprint_pages: u64,
        requests: u64,
    ) -> Nanojoules {
        if requests == 0 {
            return Nanojoules::ZERO;
        }
        let duration_s = self.duration_ns(footprint_pages, requests) * 1e-9;
        Nanojoules::new(static_power_nj_s * duration_s / requests as f64)
    }
}

impl Default for TimeModel {
    fn default() -> Self {
        Self::date2016()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-checkable probability set.
    fn probs() -> Probabilities {
        Probabilities {
            hit_dram: 0.6,
            hit_nvm: 0.3,
            miss: 0.1,
            read_given_dram: 0.5,
            read_given_nvm: 1.0,
            migrate_to_dram: 0.01,
            migrate_to_nvm: 0.02,
            disk_to_dram: 1.0,
            disk_to_nvm: 0.0,
        }
    }

    #[test]
    fn validate_accepts_good_and_rejects_bad() {
        assert!(probs().validate().is_ok());

        let mut p = probs();
        p.miss = 0.5; // breaks the simplex
        assert!(p.validate().is_err());

        let mut p = probs();
        p.hit_dram = -0.1;
        assert!(p.validate().is_err());

        let mut p = probs();
        p.disk_to_dram = 0.5; // fills no longer sum to 1
        assert!(p.validate().is_err());

        let mut p = probs();
        p.migrate_to_dram = -1.0;
        assert!(p.validate().is_err());

        // Migration rates above 1 are legal (they are rates, not probs).
        let mut p = probs();
        p.migrate_to_dram = 1.5;
        assert!(p.validate().is_ok());
    }

    #[test]
    fn amat_matches_hand_computation() {
        let m = ModelParams::date2016(probs());
        // DRAM hits: 0.6 * (0.5*50 + 0.5*50)                  = 30
        // NVM hits:  0.3 * (1.0*100 + 0.0*350)                = 30
        // Miss:      0.1 * 5e6                                = 500_000
        // MigD:      0.01 * 512 * (100 + 50)                  = 768
        // MigN:      0.02 * 512 * (50 + 350)                  = 4096
        let expected = 30.0 + 30.0 + 500_000.0 + 768.0 + 4096.0;
        assert!((m.amat().value() - expected).abs() < 1e-9, "{}", m.amat());
    }

    #[test]
    fn appr_matches_hand_computation() {
        let m = ModelParams::date2016(probs());
        // DRAM hits: 0.6 * (0.5*3.2 + 0.5*3.2)                = 1.92
        // NVM hits:  0.3 * (1.0*6.4)                          = 1.92
        // Fill DRAM: 0.1 * 1.0 * 512 * 3.2                    = 163.84
        // Fill NVM:  0                                        = 0
        // MigD:      0.01 * 512 * (6.4 + 3.2)                 = 49.152
        // MigN:      0.02 * 512 * (3.2 + 32)                  = 360.448
        let expected = 1.92 + 1.92 + 163.84 + 49.152 + 360.448;
        assert!((m.appr().value() - expected).abs() < 1e-9, "{}", m.appr());
    }

    #[test]
    fn migration_free_workload_has_no_migration_terms() {
        let mut p = probs();
        p.migrate_to_dram = 0.0;
        p.migrate_to_nvm = 0.0;
        let m = ModelParams::date2016(p);
        assert!((m.amat().value() - 500_060.0).abs() < 1e-9);
    }

    #[test]
    fn more_migrations_never_improve_amat_or_appr() {
        let base = ModelParams::date2016(probs());
        let mut heavier = probs();
        heavier.migrate_to_dram += 0.05;
        let heavier = ModelParams::date2016(heavier);
        assert!(heavier.amat() > base.amat());
        assert!(heavier.appr() > base.appr());
    }

    #[test]
    fn components_sum_to_the_closed_forms() {
        let m = ModelParams::date2016(probs());
        let amat = m.amat_components();
        assert!((amat.total() - m.amat().value()).abs() < 1e-9);
        let appr = m.appr_components();
        assert!((appr.total() - m.appr().value()).abs() < 1e-9);
        assert!(amat.migration_share() > 0.0 && amat.migration_share() < 1.0);
        assert!(appr.migration_share() > 0.0 && appr.migration_share() < 1.0);
    }

    #[test]
    fn migration_share_is_zero_without_migrations() {
        let mut p = probs();
        p.migrate_to_dram = 0.0;
        p.migrate_to_nvm = 0.0;
        let m = ModelParams::date2016(p);
        assert_eq!(m.amat_components().migration_share(), 0.0);
        assert_eq!(m.appr_components().migration_share(), 0.0);
    }

    #[test]
    fn breakeven_quantifies_the_threshold_rationale() {
        let m = ModelParams::date2016(probs());
        // Table IV: swap = 512·(100+50+50+350) = 281,600 ns; per-read-hit
        // saving = 50 ns → 5,632 hits.
        assert!((m.breakeven_hits_per_promotion() - 5632.0).abs() < 1e-9);
    }

    #[test]
    fn duration_combines_compute_and_service() {
        let t = TimeModel::date2016();
        let d = t.duration_ns(100, 1_000);
        assert!((d - (100.0 * 250_000.0 + 1_000.0 * 50.0)).abs() < 1e-9);
    }

    #[test]
    fn static_energy_per_request_follows_eq3() {
        let t = TimeModel {
            compute_ns_per_page: 0.0,
            service_ns_per_request: 100.0,
        };
        // Duration = 1000 req * 100 ns = 1e5 ns = 1e-4 s.
        // Static power 1e6 nJ/s → 100 nJ total → 0.1 nJ/request.
        let e = t.static_energy_per_request(1e6, 50, 1_000);
        assert!((e.value() - 0.1).abs() < 1e-12, "{e}");
        assert_eq!(t.static_energy_per_request(1e6, 50, 0), Nanojoules::ZERO);
    }

    #[test]
    fn compute_bound_workloads_pay_more_static_per_request() {
        let t = TimeModel::date2016();
        let sparse = t.static_energy_per_request(1e6, 1_000, 10_000);
        let dense = t.static_energy_per_request(1e6, 1_000, 10_000_000);
        assert!(
            sparse > dense,
            "fewer requests over the same footprint ⇒ higher static share"
        );
    }
}
