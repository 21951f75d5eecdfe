//! Per-technology latency, energy, and static-power characteristics.

use hybridmem_types::{Error, Nanojoules, Nanoseconds, Result, PAGE_SIZE};

/// Bytes per gibibyte, used to convert Table IV's J/(GB·s) static power into
/// a per-page figure.
const BYTES_PER_GIB: f64 = (1u64 << 30) as f64;

/// Latency, dynamic energy, and static power of one memory technology.
///
/// The defaults mirror Table IV of the paper, which itself takes them from
/// the CLOCK-DWF study "in order to have a fair comparison":
///
/// | Memory | Latency r/w (ns) | Energy r/w (nJ) | Static power (J/GB·s) |
/// |--------|------------------|-----------------|-----------------------|
/// | DRAM   | 50 / 50          | 3.2 / 3.2       | 1.0                   |
/// | NVM (PCM) | 100 / 350     | 6.4 / 32        | 0.1                   |
///
/// # Examples
///
/// ```
/// use hybridmem_device::MemoryCharacteristics;
///
/// let pcm = MemoryCharacteristics::pcm_date2016();
/// assert_eq!(pcm.read_latency.value(), 100.0);
/// assert_eq!(pcm.write_energy.value(), 32.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryCharacteristics {
    /// Latency of a read access.
    pub read_latency: Nanoseconds,
    /// Latency of a write access.
    pub write_latency: Nanoseconds,
    /// Dynamic energy of a read access.
    pub read_energy: Nanojoules,
    /// Dynamic energy of a write access.
    pub write_energy: Nanojoules,
    /// Static (leakage/refresh) power in joules per gigabyte per second.
    pub static_power_j_per_gib_s: f64,
}

impl MemoryCharacteristics {
    /// Creates a characteristics record, validating that all values are
    /// finite and non-negative.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when any latency or energy is
    /// negative, or the static power is negative or non-finite.
    pub fn new(
        read_latency: Nanoseconds,
        write_latency: Nanoseconds,
        read_energy: Nanojoules,
        write_energy: Nanojoules,
        static_power_j_per_gib_s: f64,
    ) -> Result<Self> {
        for (name, v) in [
            ("read_latency", read_latency.value()),
            ("write_latency", write_latency.value()),
            ("read_energy", read_energy.value()),
            ("write_energy", write_energy.value()),
            ("static_power_j_per_gib_s", static_power_j_per_gib_s),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(Error::invalid_config(format!(
                    "{name} must be finite and non-negative, got {v}"
                )));
            }
        }
        Ok(Self {
            read_latency,
            write_latency,
            read_energy,
            write_energy,
            static_power_j_per_gib_s,
        })
    }

    /// The DRAM row of Table IV: 50 ns / 3.2 nJ symmetric, 1 J/(GB·s) static.
    #[must_use]
    pub fn dram_date2016() -> Self {
        Self {
            read_latency: Nanoseconds::new(50.0),
            write_latency: Nanoseconds::new(50.0),
            read_energy: Nanojoules::new(3.2),
            write_energy: Nanojoules::new(3.2),
            static_power_j_per_gib_s: 1.0,
        }
    }

    /// The NVM (PCM) row of Table IV: 100/350 ns, 6.4/32 nJ, 0.1 J/(GB·s).
    #[must_use]
    pub fn pcm_date2016() -> Self {
        Self {
            read_latency: Nanoseconds::new(100.0),
            write_latency: Nanoseconds::new(350.0),
            read_energy: Nanojoules::new(6.4),
            write_energy: Nanojoules::new(32.0),
            static_power_j_per_gib_s: 0.1,
        }
    }

    /// Static power of a single 4 KB page in nanojoules per second —
    /// `StperPage` of Table I / Eq. 3.
    ///
    /// # Examples
    ///
    /// ```
    /// use hybridmem_device::MemoryCharacteristics;
    ///
    /// // 1 J/(GB·s) over a 4 KB page = 4096/2^30 J/s ≈ 3814.7 nJ/s.
    /// let per_page = MemoryCharacteristics::dram_date2016().static_power_per_page_nj_s();
    /// assert!((per_page - 3814.697265625).abs() < 1e-9);
    /// ```
    #[must_use]
    pub fn static_power_per_page_nj_s(&self) -> f64 {
        self.static_power_j_per_gib_s * (PAGE_SIZE as f64 / BYTES_PER_GIB) * 1e9
    }
}

impl Default for MemoryCharacteristics {
    /// Defaults to the DRAM row of Table IV.
    fn default() -> Self {
        Self::dram_date2016()
    }
}

/// Latency of the secondary storage servicing page faults.
///
/// The paper models the disk as a constant 5 ms response HDD (Table II) and
/// charges only this latency per miss: "Since transferring a data page from
/// a disk to the memory will be done with DMA ... OS only sees the disk
/// delay" (Section II-A).
///
/// # Examples
///
/// ```
/// use hybridmem_device::DiskCharacteristics;
///
/// let hdd = DiskCharacteristics::hdd_date2016();
/// assert_eq!(hdd.access_latency.value(), 5_000_000.0); // 5 ms in ns
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskCharacteristics {
    /// End-to-end latency of one page fault serviced from disk.
    pub access_latency: Nanoseconds,
}

impl DiskCharacteristics {
    /// Creates a disk model with the given access latency.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the latency is negative.
    pub fn new(access_latency: Nanoseconds) -> Result<Self> {
        if access_latency.value() < 0.0 {
            return Err(Error::invalid_config(format!(
                "disk access latency must be non-negative, got {access_latency}"
            )));
        }
        Ok(Self { access_latency })
    }

    /// The Table II HDD: 5 milliseconds response time.
    #[must_use]
    pub fn hdd_date2016() -> Self {
        Self {
            access_latency: Nanoseconds::new(5_000_000.0),
        }
    }
}

impl Default for DiskCharacteristics {
    /// Defaults to the Table II HDD.
    fn default() -> Self {
        Self::hdd_date2016()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iv_dram_constants() {
        let d = MemoryCharacteristics::dram_date2016();
        assert_eq!(d.read_latency.value(), 50.0);
        assert_eq!(d.write_latency.value(), 50.0);
        assert_eq!(d.read_energy.value(), 3.2);
        assert_eq!(d.write_energy.value(), 3.2);
        assert_eq!(d.static_power_j_per_gib_s, 1.0);
    }

    #[test]
    fn table_iv_pcm_constants() {
        let p = MemoryCharacteristics::pcm_date2016();
        assert_eq!(p.read_latency.value(), 100.0);
        assert_eq!(p.write_latency.value(), 350.0);
        assert_eq!(p.read_energy.value(), 6.4);
        assert_eq!(p.write_energy.value(), 32.0);
        assert_eq!(p.static_power_j_per_gib_s, 0.1);
    }

    #[test]
    fn pcm_is_write_asymmetric() {
        let p = MemoryCharacteristics::pcm_date2016();
        assert!(p.write_latency > p.read_latency);
        assert!(p.write_energy > p.read_energy);
    }

    #[test]
    fn static_power_scales_with_technology() {
        let dram = MemoryCharacteristics::dram_date2016().static_power_per_page_nj_s();
        let pcm = MemoryCharacteristics::pcm_date2016().static_power_per_page_nj_s();
        assert!((dram / pcm - 10.0).abs() < 1e-9, "DRAM static is 10x PCM");
    }

    #[test]
    fn new_rejects_negative_values() {
        let err = MemoryCharacteristics::new(
            Nanoseconds::new(-1.0),
            Nanoseconds::new(1.0),
            Nanojoules::new(1.0),
            Nanojoules::new(1.0),
            0.5,
        )
        .unwrap_err();
        assert!(err.to_string().contains("read_latency"));

        assert!(MemoryCharacteristics::new(
            Nanoseconds::new(1.0),
            Nanoseconds::new(1.0),
            Nanojoules::new(1.0),
            Nanojoules::new(1.0),
            f64::INFINITY,
        )
        .is_err());
    }

    #[test]
    fn disk_default_is_5ms() {
        assert_eq!(DiskCharacteristics::default().access_latency.value(), 5e6);
        assert!(DiskCharacteristics::new(Nanoseconds::new(-5.0)).is_err());
        assert!(DiskCharacteristics::new(Nanoseconds::new(0.0)).is_ok());
    }
}
