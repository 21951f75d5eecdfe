//! Cache hierarchy configuration, defaulting to Table II of the paper.

use hybridmem_types::{Error, Result};

/// Geometry of one set-associative cache.
///
/// # Examples
///
/// ```
/// use hybridmem_cachesim::CacheGeometry;
///
/// let l1 = CacheGeometry::new(32 * 1024, 4, 64)?;
/// assert_eq!(l1.sets(), 128);
/// assert_eq!(l1.lines(), 512);
/// # Ok::<(), hybridmem_types::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Ways per set.
    pub associativity: u32,
    /// Line size in bytes (a power of two).
    pub line_size: u32,
}

impl CacheGeometry {
    /// Creates and validates a geometry.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when any field is zero, the line
    /// size is not a power of two, or the capacity is not an exact multiple
    /// of `associativity × line_size`.
    pub fn new(size_bytes: u64, associativity: u32, line_size: u32) -> Result<Self> {
        if size_bytes == 0 || associativity == 0 || line_size == 0 {
            return Err(Error::invalid_config(
                "cache size, associativity, and line size must be non-zero",
            ));
        }
        if !line_size.is_power_of_two() {
            return Err(Error::invalid_config(format!(
                "line size must be a power of two, got {line_size}"
            )));
        }
        let way_bytes = u64::from(associativity) * u64::from(line_size);
        if !size_bytes.is_multiple_of(way_bytes) {
            return Err(Error::invalid_config(format!(
                "cache size {size_bytes} is not a multiple of associativity×line ({way_bytes})"
            )));
        }
        Ok(Self {
            size_bytes,
            associativity,
            line_size,
        })
    }

    /// Number of sets.
    #[must_use]
    pub const fn sets(&self) -> u64 {
        self.size_bytes / (self.associativity as u64 * self.line_size as u64)
    }

    /// Total number of lines.
    #[must_use]
    pub const fn lines(&self) -> u64 {
        self.size_bytes / self.line_size as u64
    }
}

/// The simulated-platform configuration (Table II of the paper).
///
/// COTSon simulated a quad-core with split 32 KB 4-way L1 caches, a shared
/// 2 MB 16-way LLC, 64 B lines everywhere, and a 5 ms HDD. The L1
/// instruction cache is carried for fidelity but unused: synthetic traces
/// contain data accesses only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CotsonConfig {
    /// Number of CPU cores (each with private L1s).
    pub cores: u16,
    /// Per-core L1 data cache.
    pub l1d: CacheGeometry,
    /// Per-core L1 instruction cache (configured, unused by data traces).
    pub l1i: CacheGeometry,
    /// Shared last-level cache.
    pub llc: CacheGeometry,
}

impl CotsonConfig {
    /// The exact Table II configuration.
    ///
    /// # Examples
    ///
    /// ```
    /// let c = hybridmem_cachesim::CotsonConfig::date2016();
    /// assert_eq!(c.cores, 4);
    /// assert_eq!(c.llc.size_bytes, 2 * 1024 * 1024);
    /// assert_eq!(c.llc.associativity, 16);
    /// ```
    #[must_use]
    #[expect(clippy::expect_used, reason = "Table II's geometries are valid")]
    pub fn date2016() -> Self {
        let l1 = CacheGeometry::new(32 * 1024, 4, 64).expect("Table II L1 geometry is valid");
        let llc =
            CacheGeometry::new(2 * 1024 * 1024, 16, 64).expect("Table II LLC geometry is valid");
        Self {
            cores: 4,
            l1d: l1,
            l1i: l1,
            llc,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when there are no cores or the L1
    /// and LLC line sizes differ (the hierarchy moves whole lines between
    /// levels).
    pub fn validate(&self) -> Result<()> {
        if self.cores == 0 {
            return Err(Error::invalid_config("at least one core is required"));
        }
        if self.l1d.line_size != self.llc.line_size {
            return Err(Error::invalid_config(format!(
                "L1 and LLC line sizes must match ({} vs {})",
                self.l1d.line_size, self.llc.line_size
            )));
        }
        Ok(())
    }
}

impl Default for CotsonConfig {
    /// Defaults to [`CotsonConfig::date2016`].
    fn default() -> Self {
        Self::date2016()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_geometry() {
        let c = CotsonConfig::date2016();
        assert_eq!(c.l1d.size_bytes, 32 * 1024);
        assert_eq!(c.l1d.associativity, 4);
        assert_eq!(c.l1d.line_size, 64);
        assert_eq!(c.l1d.sets(), 128);
        assert_eq!(c.llc.sets(), 2048);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn geometry_validation() {
        assert!(CacheGeometry::new(0, 4, 64).is_err());
        assert!(CacheGeometry::new(1024, 0, 64).is_err());
        assert!(CacheGeometry::new(1024, 4, 0).is_err());
        assert!(CacheGeometry::new(1024, 4, 48).is_err(), "non power of two");
        assert!(CacheGeometry::new(1000, 4, 64).is_err(), "not a multiple");
    }

    #[test]
    fn config_validation() {
        let mut c = CotsonConfig::date2016();
        c.cores = 0;
        assert!(c.validate().is_err());
        let mut c = CotsonConfig::date2016();
        c.llc = CacheGeometry::new(2 * 1024 * 1024, 16, 128).unwrap();
        assert!(c.validate().is_err(), "mismatched line sizes");
    }
}
