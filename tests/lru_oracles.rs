//! Exact reuse-distance oracles for the LRU tiers, on all 12 PARSEC
//! profiles with the runner's warmup.
//!
//! An LRU memory of `c` pages hits exactly the accesses whose reuse
//! distance is below `c`, so one [`ReuseProfile`] pass predicts the
//! single-tier baselines' faults to the access. Two-LRU with thresholds
//! (0, 0) promotes on every NVM hit: every touched page enters DRAM at
//! the MRU end and DRAM's victim enters NVM at the MRU end, so DRAM ∪ NVM
//! is one LRU stack split at the DRAM capacity, and its DRAM hits, NVM
//! hits and faults are exact too. At the default thresholds the paper
//! claims "almost the same hit ratio as an unmodified LRU": its faults
//! stay within 1 % of LRU's.

use std::sync::OnceLock;

use hybridmem::policy::ReuseProfile;
use hybridmem::sim::{ExperimentConfig, PolicyKind, SimulationReport};
use hybridmem::trace::{parsec, TraceGenerator, WorkloadSpec};
use hybridmem::types::PageId;

/// Reduced volume under debug builds so `cargo test` stays fast; CI's
/// release run checks the committed results' cap.
const CAP: u64 = if cfg!(debug_assertions) {
    100_000
} else {
    1_000_000
};

/// Memory sizes the exact oracles check, as fractions of the footprint.
/// The paper's 75 % faults little beyond its cold misses, so few reuse
/// distances land near its capacity; at 10 % capacity misses dominate,
/// and a tier holding one page too many or too few shows.
const MEMORY_FRACTIONS: [f64; 2] = [0.75, 0.10];

/// The reuse distances of one workload's post-warmup accesses.
struct Window {
    spec: WorkloadSpec,
    /// First touches after the warmup.
    cold: u64,
    /// `histogram[d]`: post-warmup accesses with reuse distance `d`.
    histogram: Vec<u64>,
}

impl Window {
    /// The whole trace's profile minus its warmup prefix's: a prefix
    /// access has the same reuse distance in both.
    fn new(config: &ExperimentConfig, spec: WorkloadSpec) -> Self {
        let pages: Vec<PageId> = TraceGenerator::new(spec.clone(), config.seed)
            .map(|access| access.page())
            .collect();
        let warmup = (spec.total_accesses() as f64 * config.warmup_fraction) as usize;
        let whole = ReuseProfile::from_pages(pages.iter().copied());
        let prefix = ReuseProfile::from_pages(pages[..warmup].iter().copied());
        let mut histogram = whole.histogram().to_vec();
        for (count, before) in histogram.iter_mut().zip(prefix.histogram()) {
            *count -= before;
        }
        let window = Self {
            cold: whole.cold_misses() - prefix.cold_misses(),
            histogram,
            spec,
        };
        assert_eq!(
            window.cold + window.reuses(0, u64::MAX),
            (pages.len() - warmup) as u64,
            "{}: every post-warmup access is cold or a reuse",
            window.spec.name
        );
        window
    }

    /// Post-warmup accesses with reuse distance in `[from, to)`.
    fn reuses(&self, from: u64, to: u64) -> u64 {
        let (from, to) = (from as usize, to as usize);
        self.histogram.iter().take(to).skip(from).sum()
    }

    /// Post-warmup faults of an LRU memory of `capacity` pages.
    fn lru_faults(&self, capacity: u64) -> u64 {
        self.cold + self.reuses(capacity, u64::MAX)
    }
}

/// Every profile's window at [`CAP`], computed once per test binary.
fn windows() -> &'static [Window] {
    static WINDOWS: OnceLock<Vec<Window>> = OnceLock::new();
    WINDOWS.get_or_init(|| {
        let config = ExperimentConfig::default();
        parsec::NAMES
            .iter()
            .map(|name| Window::new(&config, parsec::spec(name).unwrap().capped(CAP)))
            .collect()
    })
}

fn run(config: &ExperimentConfig, spec: &WorkloadSpec, kind: PolicyKind) -> SimulationReport {
    config.compare(spec, &[kind]).unwrap().remove(0)
}

#[test]
fn single_tier_faults_equal_the_lru_prediction() {
    for memory_fraction in MEMORY_FRACTIONS {
        let config = ExperimentConfig {
            memory_fraction,
            ..ExperimentConfig::default()
        };
        for window in windows() {
            let (_, _, total) = config.memory_sizes(&window.spec);
            let predicted = window.lru_faults(total.value());
            for kind in [PolicyKind::DramOnly, PolicyKind::NvmOnly] {
                let report = run(&config, &window.spec, kind);
                assert_eq!(
                    report.counts.faults,
                    predicted,
                    "{}/{}: LRU({total}) faults",
                    window.spec.name,
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn eager_two_lru_is_one_lru_stack_split_at_dram() {
    for memory_fraction in MEMORY_FRACTIONS {
        let config = ExperimentConfig {
            memory_fraction,
            read_threshold: 0,
            write_threshold: 0,
            ..ExperimentConfig::default()
        };
        for window in windows() {
            let (dram, nvm, _) = config.memory_sizes(&window.spec);
            let (d, n) = (dram.value(), nvm.value());
            let counts = run(&config, &window.spec, PolicyKind::TwoLru).counts;
            let name = &window.spec.name;
            assert_eq!(
                counts.dram_read_hits + counts.dram_write_hits,
                window.reuses(0, d),
                "{name}: DRAM hits are the reuses below {d}"
            );
            assert_eq!(
                counts.nvm_read_hits + counts.nvm_write_hits,
                window.reuses(d, d + n),
                "{name}: NVM hits are the reuses in [{d}, {})",
                d + n
            );
            assert_eq!(counts.faults, window.lru_faults(d + n), "{name}: faults");
        }
    }
}

#[test]
fn two_lru_faults_stay_within_one_percent_of_lru() {
    let config = ExperimentConfig::default();
    for window in windows() {
        let (dram, nvm, _) = config.memory_sizes(&window.spec);
        let predicted = window.lru_faults(dram.value() + nvm.value());
        let faults = run(&config, &window.spec, PolicyKind::TwoLru).counts.faults;
        assert!(
            faults.abs_diff(predicted) as f64 <= 0.01 * predicted as f64,
            "{}: {faults} faults against LRU's {predicted}",
            window.spec.name
        );
    }
}
