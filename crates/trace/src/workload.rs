//! Workload specifications: the statistical shape of a memory trace.

use hybridmem_json::impl_json;
use hybridmem_types::{Error, PageCount, Result};

/// Temporal/spatial locality parameters of a synthetic workload.
///
/// The generator draws each access in three steps: *where* (which page,
/// via an LRU-stack-distance reuse model with optional sequential runs and
/// phase behaviour), *how* (read or write, via per-page write affinity),
/// and *which byte* within the page. These parameters control all three.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalityParams {
    /// Probability that an access reuses a recently touched page (drawn
    /// from the LRU stack) instead of touching a fresh/uniform page.
    pub reuse_probability: f64,
    /// Shape of the stack-distance distribution: the reuse stack position
    /// is drawn with probability ∝ `1/(rank+1)^theta`. Larger `theta`
    /// concentrates reuse on the hottest pages.
    pub stack_theta: f64,
    /// Maximum LRU-stack depth sampled for reuse, as a fraction of the
    /// working set (caps the model's memory).
    pub stack_depth_fraction: f64,
    /// Probability that a non-reuse access continues a sequential page walk
    /// instead of jumping by popularity (streaming behaviour).
    pub sequential_probability: f64,
    /// Skew of the static page-popularity distribution used for non-reuse,
    /// non-sequential draws: a page rank is drawn as `⌊wss · u^skew⌋` for
    /// uniform `u`, so mass concentrates on a hot subset as the skew grows.
    /// `1.0` is uniform. Real workloads are heavily skewed — with a 75 %
    /// memory this is what keeps page-fault rates in the per-mille range
    /// the paper's Fig. 1 implies.
    pub popularity_skew: f64,
    /// Fraction of the working set covered by the popularity distribution,
    /// in `(0, 1]`. Fresh draws never exceed rank `span · wss`; pages
    /// beyond the span are reached only by sequential sweeps and phase
    /// rotations. A span below the memory fraction (0.75) makes capacity
    /// misses a deliberate, per-workload choice rather than an artefact of
    /// the popularity tail (a pure power law pins the beyond-memory mass
    /// at ≈ 11 % of the beyond-DRAM mass, far above what the paper's
    /// near-zero fault rates allow).
    pub popularity_span: f64,
    /// Optional phase behaviour: the workload periodically restricts itself
    /// to a small sub-footprint and hammers it (burstiness).
    pub phase: Option<PhaseParams>,
    /// Multiplier applied to the write probability of *deep* accesses —
    /// sequential sweeps, deep-stack reuse, and cold popularity draws — in
    /// `[0, 50]`. Values below 1 damp cold writes; values above 1 *boost*
    /// them, modelling workloads whose writes deliberately land on
    /// otherwise-cold pages (the paper's `canneal` pathology). Real workloads mutate their hot structures and mostly
    /// *read* old or streamed-in data; this is what keeps demand writes off
    /// NVM-resident pages (the regime the paper's numbers imply). The
    /// global read/write budget is preserved by the generator's deficit
    /// controller, which shifts the displaced writes onto hot pages.
    pub cold_write_damping: f64,
    /// Fraction of pages that are write-hot. The paper's scheme keys on
    /// per-page write dominance, so the mix must be heterogeneous rather
    /// than i.i.d. per access.
    pub write_hot_fraction: f64,
    /// Multiplier applied to the base write probability on write-hot pages
    /// (cold pages are scaled down to preserve the aggregate write ratio).
    pub write_hot_multiplier: f64,
}

impl_json!(ToJson, FromJson for LocalityParams {
    reuse_probability,
    stack_theta,
    stack_depth_fraction,
    sequential_probability,
    popularity_skew,
    popularity_span,
    phase,
    cold_write_damping,
    write_hot_fraction,
    write_hot_multiplier,
});

impl LocalityParams {
    /// A balanced default: moderate reuse, light sequential component,
    /// no phases, mild write skew.
    #[must_use]
    pub fn balanced() -> Self {
        Self {
            reuse_probability: 0.8,
            stack_theta: 1.1,
            stack_depth_fraction: 0.15,
            sequential_probability: 0.05,
            popularity_skew: 32.0,
            popularity_span: 0.55,
            cold_write_damping: 0.15,
            phase: None,
            write_hot_fraction: 0.2,
            write_hot_multiplier: 3.0,
        }
    }

    /// Validates all fields are in-domain.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] naming the first out-of-domain
    /// field.
    pub fn validate(&self) -> Result<()> {
        for (name, v, lo, hi) in [
            ("reuse_probability", self.reuse_probability, 0.0, 1.0),
            ("stack_theta", self.stack_theta, 0.0, 8.0),
            ("stack_depth_fraction", self.stack_depth_fraction, 0.0, 1.0),
            (
                "sequential_probability",
                self.sequential_probability,
                0.0,
                1.0,
            ),
            ("popularity_skew", self.popularity_skew, 1.0, 2048.0),
            ("popularity_span", self.popularity_span, 1e-6, 1.0),
            ("cold_write_damping", self.cold_write_damping, 0.0, 50.0),
            ("write_hot_fraction", self.write_hot_fraction, 0.0, 1.0),
            (
                "write_hot_multiplier",
                self.write_hot_multiplier,
                1.0,
                1000.0,
            ),
        ] {
            if !v.is_finite() || v < lo || v > hi {
                return Err(Error::invalid_config(format!(
                    "{name} must be in [{lo}, {hi}], got {v}"
                )));
            }
        }
        if let Some(phase) = &self.phase {
            phase.validate()?;
        }
        Ok(())
    }
}

impl Default for LocalityParams {
    fn default() -> Self {
        Self::balanced()
    }
}

/// Phase/burst behaviour: periods during which accesses concentrate on a
/// small slice of the footprint (e.g. `streamcluster`'s "large burst of
/// accesses and a small memory footprint").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseParams {
    /// Length of one phase in accesses.
    pub length: u64,
    /// Fraction of the working set active within a phase.
    pub footprint_fraction: f64,
    /// Probability that an access stays inside the phase footprint.
    pub intensity: f64,
}

impl_json!(ToJson, FromJson for PhaseParams { length, footprint_fraction, intensity });

impl PhaseParams {
    /// Validates the phase parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the length is zero or a
    /// fraction is out of `(0, 1]`.
    pub fn validate(&self) -> Result<()> {
        if self.length == 0 {
            return Err(Error::invalid_config("phase length must be positive"));
        }
        for (name, v) in [
            ("footprint_fraction", self.footprint_fraction),
            ("intensity", self.intensity),
        ] {
            if !(v > 0.0 && v <= 1.0) {
                return Err(Error::invalid_config(format!(
                    "{name} must be in (0, 1], got {v}"
                )));
            }
        }
        Ok(())
    }
}

/// Complete specification of one synthetic workload.
///
/// # Examples
///
/// ```
/// use hybridmem_trace::{LocalityParams, WorkloadSpec};
///
/// let spec = WorkloadSpec::new("toy", 256, 10_000, 2_000, LocalityParams::balanced())?;
/// assert_eq!(spec.total_accesses(), 12_000);
/// assert!((spec.write_ratio() - 2.0 / 12.0).abs() < 1e-12);
/// # Ok::<(), hybridmem_types::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Workload name (e.g. the PARSEC benchmark name).
    pub name: String,
    /// Working-set size in pages.
    pub working_set: PageCount,
    /// The *unscaled* working-set size. [`WorkloadSpec::scaled`] shrinks
    /// `working_set` but leaves this untouched, so consumers that model
    /// full-size effects (static power of the provisioned memory) can undo
    /// the scaling. Equal to `working_set` for an unscaled spec.
    pub nominal_working_set: PageCount,
    /// The *unscaled* total access count, preserved by scaling like
    /// [`WorkloadSpec::nominal_working_set`]. Together they give the
    /// workload's true footprint-per-access density, which the duration
    /// model needs even when a scaled run distorts the measured density
    /// (e.g. via the footprint floor in [`WorkloadSpec::capped`]).
    pub nominal_accesses: u64,
    /// Number of read requests to generate.
    pub reads: u64,
    /// Number of write requests to generate.
    pub writes: u64,
    /// Locality model.
    pub locality: LocalityParams,
    /// Number of CPU cores the trace is attributed to (Table II: 4).
    pub cores: u16,
}

impl_json!(ToJson, FromJson for WorkloadSpec {
    name,
    working_set,
    nominal_working_set,
    nominal_accesses,
    reads,
    writes,
    locality,
    cores,
});

impl WorkloadSpec {
    /// Creates and validates a specification.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the working set is empty, the
    /// trace has no accesses, or the locality parameters are out of domain.
    pub fn new(
        name: impl Into<String>,
        working_set_pages: u64,
        reads: u64,
        writes: u64,
        locality: LocalityParams,
    ) -> Result<Self> {
        let spec = Self {
            name: name.into(),
            working_set: PageCount::new(working_set_pages),
            nominal_working_set: PageCount::new(working_set_pages),
            nominal_accesses: reads + writes,
            reads,
            writes,
            locality,
            cores: 4,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Starts a [`WorkloadSpecBuilder`] with `working_set_pages` pages,
    /// 10 000 reads, no writes, and [`LocalityParams::balanced`].
    #[must_use]
    pub fn builder(name: impl Into<String>, working_set_pages: u64) -> WorkloadSpecBuilder {
        WorkloadSpecBuilder {
            name: name.into(),
            working_set_pages,
            reads: 10_000,
            writes: 0,
            locality: LocalityParams::balanced(),
            cores: 4,
        }
    }

    /// The workload's true pages-touched-per-access density,
    /// `nominal_working_set / nominal_accesses` — scale-invariant by
    /// construction.
    #[must_use]
    pub fn nominal_density(&self) -> f64 {
        self.nominal_working_set.value() as f64 / self.nominal_accesses.max(1) as f64
    }

    /// The scale applied so far: `working_set / nominal_working_set`, 1.0
    /// for an unscaled spec.
    #[must_use]
    pub fn scale_factor(&self) -> f64 {
        self.working_set.value() as f64 / self.nominal_working_set.value() as f64
    }

    /// Validates the specification.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] on an empty working set, an empty
    /// trace, zero cores, or invalid locality parameters.
    pub fn validate(&self) -> Result<()> {
        if self.working_set.is_zero() {
            return Err(Error::invalid_config(
                "working set must be at least one page",
            ));
        }
        if self.reads + self.writes == 0 {
            return Err(Error::invalid_config(
                "workload must have at least one access",
            ));
        }
        if self.cores == 0 {
            return Err(Error::invalid_config("workload needs at least one core"));
        }
        self.locality.validate()
    }

    /// Total accesses (reads + writes).
    #[must_use]
    pub const fn total_accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Fraction of accesses that are writes, in `[0, 1]`.
    #[must_use]
    pub fn write_ratio(&self) -> f64 {
        self.writes as f64 / self.total_accesses() as f64
    }

    /// Returns a proportionally scaled copy: both the access counts and the
    /// working set shrink by `factor`, preserving the accesses-per-page
    /// density that drives hit ratios and migration dynamics.
    ///
    /// Counts are floored at 1 page / 1 access (when the original count was
    /// non-zero). `factor` of 1.0 returns an identical spec.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, 1]`.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "scale factor must be in (0, 1], got {factor}"
        );
        let scale = |v: u64| -> u64 {
            if v == 0 {
                0
            } else {
                ((v as f64 * factor).round() as u64).max(1)
            }
        };
        let mut locality = self.locality;
        if let Some(phase) = &mut locality.phase {
            // Keep the phases-per-trace count stable under scaling.
            phase.length = scale(phase.length);
        }
        Self {
            name: self.name.clone(),
            working_set: PageCount::new(scale(self.working_set.value())),
            nominal_working_set: self.nominal_working_set,
            nominal_accesses: self.nominal_accesses,
            reads: scale(self.reads),
            writes: scale(self.writes),
            locality,
            cores: self.cores,
        }
    }

    /// Minimum scaled working set kept by [`WorkloadSpec::capped`]:
    /// below roughly this many pages, the policies' window/threshold
    /// machinery degenerates to a handful of pages and scaling artefacts
    /// (promotion thrash between a few frames) dominate the measurement.
    pub const MIN_CAPPED_FOOTPRINT: u64 = 1500;

    /// Scales the workload so its total access count does not exceed
    /// `max_accesses` (no-op when already under the cap).
    ///
    /// Access counts shrink proportionally; the working set shrinks by the
    /// same factor but is floored at
    /// [`WorkloadSpec::MIN_CAPPED_FOOTPRINT`] pages (or the original size
    /// if smaller), so extremely dense workloads such as `streamcluster`
    /// keep a realistic page population. [`WorkloadSpec::scale_factor`]
    /// reflects the working-set scale, which is what static-power
    /// un-scaling needs.
    #[must_use]
    pub fn capped(&self, max_accesses: u64) -> Self {
        let total = self.total_accesses();
        if total <= max_accesses {
            return self.clone();
        }
        let factor = max_accesses as f64 / total as f64;
        let mut scaled = self.scaled(factor);
        let floor = Self::MIN_CAPPED_FOOTPRINT.min(self.working_set.value());
        if scaled.working_set.value() < floor {
            scaled.working_set = PageCount::new(floor);
        }
        scaled
    }
}

/// Builder for [`WorkloadSpec`] — ergonomic construction when only a few
/// locality knobs deviate from the defaults.
///
/// # Examples
///
/// ```
/// use hybridmem_trace::WorkloadSpec;
///
/// let spec = WorkloadSpec::builder("kv-store", 4_096)
///     .reads(90_000)
///     .writes(10_000)
///     .reuse(0.9)
///     .popularity(16.0, 0.5)
///     .write_hot(0.1, 6.0)
///     .build()?;
/// assert_eq!(spec.total_accesses(), 100_000);
/// assert_eq!(spec.locality.popularity_skew, 16.0);
/// # Ok::<(), hybridmem_types::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadSpecBuilder {
    name: String,
    working_set_pages: u64,
    reads: u64,
    writes: u64,
    locality: LocalityParams,
    cores: u16,
}

impl WorkloadSpecBuilder {
    /// Sets the number of read requests (default 10 000).
    #[must_use]
    pub fn reads(mut self, reads: u64) -> Self {
        self.reads = reads;
        self
    }

    /// Sets the number of write requests (default 0).
    #[must_use]
    pub fn writes(mut self, writes: u64) -> Self {
        self.writes = writes;
        self
    }

    /// Sets the recency-reuse probability.
    #[must_use]
    pub fn reuse(mut self, probability: f64) -> Self {
        self.locality.reuse_probability = probability;
        self
    }

    /// Sets the sequential-walk probability.
    #[must_use]
    pub fn sequential(mut self, probability: f64) -> Self {
        self.locality.sequential_probability = probability;
        self
    }

    /// Sets the popularity skew and span.
    #[must_use]
    pub fn popularity(mut self, skew: f64, span: f64) -> Self {
        self.locality.popularity_skew = skew;
        self.locality.popularity_span = span;
        self
    }

    /// Sets the write-hot page fraction and multiplier.
    #[must_use]
    pub fn write_hot(mut self, fraction: f64, multiplier: f64) -> Self {
        self.locality.write_hot_fraction = fraction;
        self.locality.write_hot_multiplier = multiplier;
        self
    }

    /// Sets the cold-write damping (or boost, above 1).
    #[must_use]
    pub fn cold_write_damping(mut self, damping: f64) -> Self {
        self.locality.cold_write_damping = damping;
        self
    }

    /// Adds phase/burst behaviour.
    #[must_use]
    pub fn phases(mut self, length: u64, footprint_fraction: f64, intensity: f64) -> Self {
        self.locality.phase = Some(PhaseParams {
            length,
            footprint_fraction,
            intensity,
        });
        self
    }

    /// Replaces the whole locality parameter set.
    #[must_use]
    pub fn locality(mut self, locality: LocalityParams) -> Self {
        self.locality = locality;
        self
    }

    /// Sets the core count (default 4, per Table II).
    #[must_use]
    pub fn cores(mut self, cores: u16) -> Self {
        self.cores = cores;
        self
    }

    /// Validates and builds the specification.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] under the same conditions as
    /// [`WorkloadSpec::new`].
    pub fn build(self) -> Result<WorkloadSpec> {
        let mut spec = WorkloadSpec::new(
            self.name,
            self.working_set_pages,
            self.reads,
            self.writes,
            self.locality,
        )?;
        spec.cores = self.cores;
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec::new("w", 1000, 80_000, 20_000, LocalityParams::balanced()).unwrap()
    }

    #[test]
    fn totals_and_ratio() {
        let s = spec();
        assert_eq!(s.total_accesses(), 100_000);
        assert!((s.write_ratio() - 0.2).abs() < 1e-12);
        assert_eq!(s.cores, 4);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        assert!(WorkloadSpec::new("w", 0, 1, 1, LocalityParams::balanced()).is_err());
        assert!(WorkloadSpec::new("w", 1, 0, 0, LocalityParams::balanced()).is_err());
        let mut bad = LocalityParams::balanced();
        bad.reuse_probability = 1.5;
        assert!(WorkloadSpec::new("w", 1, 1, 0, bad).is_err());
        let mut bad = LocalityParams::balanced();
        bad.write_hot_multiplier = 0.5;
        assert!(WorkloadSpec::new("w", 1, 1, 0, bad).is_err());
    }

    #[test]
    fn phase_validation() {
        let ok = PhaseParams {
            length: 100,
            footprint_fraction: 0.1,
            intensity: 0.9,
        };
        assert!(ok.validate().is_ok());
        assert!(PhaseParams { length: 0, ..ok }.validate().is_err());
        assert!(PhaseParams {
            footprint_fraction: 0.0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(PhaseParams {
            intensity: 1.2,
            ..ok
        }
        .validate()
        .is_err());
    }

    #[test]
    fn scaled_preserves_density_and_ratio() {
        let s = spec();
        let half = s.scaled(0.5);
        assert_eq!(half.working_set, PageCount::new(500));
        assert_eq!(half.reads, 40_000);
        assert_eq!(half.writes, 10_000);
        assert!((half.write_ratio() - s.write_ratio()).abs() < 1e-9);
        // Density (accesses per page) is preserved.
        let density = |w: &WorkloadSpec| w.total_accesses() as f64 / w.working_set.value() as f64;
        assert!((density(&half) - density(&s)).abs() < 1e-9);
    }

    #[test]
    fn scaled_floors_at_one() {
        let tiny = WorkloadSpec::new("w", 10, 5, 3, LocalityParams::balanced())
            .unwrap()
            .scaled(0.001);
        assert_eq!(tiny.working_set, PageCount::new(1));
        assert_eq!(tiny.reads, 1);
        assert_eq!(tiny.writes, 1);
        // Zero stays zero.
        let ro = WorkloadSpec::new("w", 10, 5, 0, LocalityParams::balanced())
            .unwrap()
            .scaled(0.001);
        assert_eq!(ro.writes, 0);
    }

    #[test]
    fn capped_only_shrinks() {
        let s = spec();
        assert_eq!(s.capped(1_000_000), s);
        let capped = s.capped(10_000);
        assert!(
            capped.total_accesses() <= 10_100,
            "{}",
            capped.total_accesses()
        );
        assert!((capped.write_ratio() - 0.2).abs() < 0.01);
    }

    #[test]
    fn builder_constructs_and_validates() {
        let spec = WorkloadSpec::builder("b", 64)
            .reads(500)
            .writes(100)
            .reuse(0.5)
            .sequential(0.01)
            .popularity(8.0, 0.4)
            .write_hot(0.2, 2.0)
            .cold_write_damping(0.3)
            .phases(100, 0.2, 0.8)
            .cores(2)
            .build()
            .unwrap();
        assert_eq!(spec.total_accesses(), 600);
        assert_eq!(spec.cores, 2);
        assert_eq!(spec.locality.popularity_span, 0.4);
        assert!(spec.locality.phase.is_some());

        let invalid = WorkloadSpec::builder("b", 0).build();
        assert!(invalid.is_err());
        let invalid = WorkloadSpec::builder("b", 64).reuse(2.0).build();
        assert!(invalid.is_err());
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn scaled_rejects_zero() {
        let _ = spec().scaled(0.0);
    }
}
