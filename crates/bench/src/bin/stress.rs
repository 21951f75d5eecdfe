//! Standing throughput harness: replays a fixed workload set through the
//! trace cache and every replay driver, writing a `BENCH_*.json`
//! trajectory point (schema in `DESIGN.md` §13).
//!
//! ```text
//! cargo run --release -p hybridmem-bench --bin stress -- [flags]
//!
//! --quick       CI-sized caps (fast, noisier numbers)
//! --cap N       override accesses per workload
//! --seed N      trace generator seed (default 42)
//! --out FILE    output path (default: next free BENCH_<n>.json in the
//!               current directory, one past the highest committed index)
//! --flight-out FILE
//!               ride a black-box flight recorder on one extra *untimed*
//!               batched two-LRU replay per workload (so the measured
//!               phases stay unperturbed) and write the
//!               hybridmem-flight-v1 dump
//! --flight-events N
//!               events retained per cell's flight ring (default 256)
//! ```
//!
//! Every run measures every workload in one process: a trajectory point
//! never stitches together timings from two runs.
//!
//! Five phases per workload, all single-threaded so the numbers isolate
//! per-access cost rather than scheduling:
//!
//! 1. `generate` — cold trace synthesis plus the binary spill write;
//! 2. `reference` — serial replay under [`ReferenceTwoLru`], the frozen
//!    pre-campaign implementation (the measured baseline);
//! 3. `replay_serial` — serial cached replay of the optimized two-LRU,
//!    one policy call per access ([`HybridSimulator::run_slice`]);
//! 4. `replay_batched` — batched cached replay (the runner's driver);
//! 5. `replay_spill` — batched replay streamed from the binary spill file
//!    through a deliberately undersized cache (the zero-rematerialization
//!    path oversize traces take).
//!
//! The headline `speedup_batched_vs_reference` compares phases 4 and 2;
//! `speedup_spill_vs_reference` compares 5 and 2. Before timing is
//! trusted, the baseline's report is checked against the optimized serial
//! run — a baseline that made different decisions would be comparing two
//! different simulations.

use std::path::PathBuf;
use std::time::Instant;

use hybridmem_bench::ReferenceTwoLru;
use hybridmem_core::{
    parse_flag, positive_flag, write_flight_json, ExperimentConfig, FlightMatrixReport,
    HybridSimulator, Instrumentation, MatrixRun, PolicyKind, SimulationReport, TraceCache,
};
use hybridmem_json::{impl_json, Json, ToJson};
use hybridmem_metrics::peak_rss_bytes;
use hybridmem_policy::{HybridPolicy, TwoLruConfig};
use hybridmem_trace::{parsec, WorkloadSpec};
use hybridmem_types::{Error, Result};

/// Workloads the harness replays: a locality-heavy, a scan-heavy, and two
/// mixed profiles, so the trajectory is not tuned to one access pattern.
const WORKLOADS: [&str; 4] = ["bodytrack", "canneal", "dedup", "x264"];

/// Accesses per workload in the default (full) run.
const FULL_CAP: u64 = 1_000_000;

/// Accesses per workload under `--quick` (CI smoke).
const QUICK_CAP: u64 = 60_000;

/// Policies measured on the batched cached-replay path.
const REPLAY_POLICIES: [PolicyKind; 4] = [
    PolicyKind::TwoLru,
    PolicyKind::ClockDwf,
    PolicyKind::DramOnly,
    PolicyKind::NvmOnly,
];

/// The next free `BENCH_<n>.json` in `dir`: one past the highest index
/// already present, so successive runs extend the committed trajectory
/// instead of overwriting its newest point.
fn next_bench_path(dir: &std::path::Path) -> PathBuf {
    let highest = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name();
            let name = name.to_str()?;
            name.strip_prefix("BENCH_")?
                .strip_suffix(".json")?
                .parse::<u64>()
                .ok()
        })
        .max()
        .unwrap_or(0);
    dir.join(format!("BENCH_{}.json", highest + 1))
}

#[derive(Debug)]
struct Options {
    quick: bool,
    cap: Option<u64>,
    seed: u64,
    out: PathBuf,
    flight_out: Option<PathBuf>,
    flight_events: usize,
}

impl Options {
    /// Parses the harness flags.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] naming the flag for an unknown
    /// flag, a missing or malformed value, or `--flight-events 0`.
    fn parse(raw: impl IntoIterator<Item = String>) -> Result<Self> {
        let mut options = Self {
            quick: false,
            cap: None,
            seed: 42,
            out: next_bench_path(std::path::Path::new(".")),
            flight_out: None,
            flight_events: 256,
        };
        let mut raw = raw.into_iter();
        while let Some(flag) = raw.next() {
            let mut value = || {
                raw.next()
                    .ok_or_else(|| Error::invalid_input(format!("flag {flag} requires a value")))
            };
            match flag.as_str() {
                "--quick" => options.quick = true,
                "--cap" => options.cap = Some(parse_flag("cap", Some(&value()?), 0)?),
                "--seed" => options.seed = parse_flag("seed", Some(&value()?), 42)?,
                "--out" => options.out = PathBuf::from(value()?),
                "--flight-out" => options.flight_out = Some(PathBuf::from(value()?)),
                "--flight-events" => {
                    let events = value()?;
                    options.flight_events = positive_flag(
                        "flight-events",
                        Some(&events),
                        256,
                        "retain at least 1 event",
                    )?;
                }
                other => {
                    return Err(Error::invalid_input(format!(
                        "unknown flag {other}; expected \
                         --quick/--cap/--seed/--out/--flight-out/--flight-events"
                    )));
                }
            }
        }
        Ok(options)
    }

    fn cap(&self) -> u64 {
        self.cap
            .unwrap_or(if self.quick { QUICK_CAP } else { FULL_CAP })
    }
}

/// One timed measurement: how many accesses, how long.
#[derive(Debug, Clone)]
struct Measurement {
    seconds: f64,
    accesses: u64,
    accesses_per_second: f64,
}

impl_json!(ToJson for Measurement { seconds, accesses, accesses_per_second });

impl Measurement {
    #[allow(clippy::cast_precision_loss)]
    fn new(accesses: u64, seconds: f64) -> Self {
        Self {
            seconds,
            accesses,
            accesses_per_second: if seconds > 0.0 {
                accesses as f64 / seconds
            } else {
                0.0
            },
        }
    }

    fn absorb(&mut self, other: &Self) {
        self.seconds += other.seconds;
        self.accesses += other.accesses;
        #[allow(clippy::cast_precision_loss)]
        {
            self.accesses_per_second = if self.seconds > 0.0 {
                self.accesses as f64 / self.seconds
            } else {
                0.0
            };
        }
    }
}

/// A named measurement (one phase or one policy).
#[derive(Debug, Clone)]
struct NamedMeasurement {
    name: String,
    measurement: Measurement,
}

impl ToJson for NamedMeasurement {
    /// The name, then the measurement's fields inline.
    fn to_json(&self) -> Json {
        let mut fields = vec![("name".to_owned(), self.name.to_json())];
        if let Json::Object(measured) = self.measurement.to_json() {
            fields.extend(measured);
        }
        Json::Object(fields)
    }
}

/// Per-workload results.
#[derive(Debug)]
struct WorkloadResult {
    workload: String,
    accesses: u64,
    /// The five harness phases, in execution order.
    phases: Vec<NamedMeasurement>,
    /// Batched cached replay, one entry per measured policy.
    policies: Vec<NamedMeasurement>,
}

impl_json!(ToJson for WorkloadResult { workload, accesses, phases, policies });

/// The `BENCH_*.json` trajectory point (schema in `DESIGN.md` §13).
#[derive(Debug)]
struct BenchReport {
    schema: &'static str,
    quick: bool,
    seed: u64,
    cap: u64,
    /// Worker threads driving cells (the harness is deliberately serial).
    threads: usize,
    wall_seconds: f64,
    peak_rss_bytes: Option<u64>,
    workloads: Vec<WorkloadResult>,
    /// Phase totals across all workloads.
    phases: Vec<NamedMeasurement>,
    /// Batched-replay totals across all workloads, per policy.
    policies: Vec<NamedMeasurement>,
    /// `replay_batched` vs `reference` accesses/sec (two-LRU cells only).
    speedup_batched_vs_reference: f64,
    /// `replay_spill` vs `reference` accesses/sec (two-LRU cells only).
    speedup_spill_vs_reference: f64,
    /// Spill-aware cache counters at the end of the run.
    trace_cache: hybridmem_core::TraceCacheStats,
}

impl_json!(ToJson for BenchReport {
    schema,
    quick,
    seed,
    cap,
    threads,
    wall_seconds,
    peak_rss_bytes,
    workloads,
    phases,
    policies,
    speedup_batched_vs_reference,
    speedup_spill_vs_reference,
    trace_cache,
});

/// Times `f` and wraps the result with the access count it processed.
fn timed<T>(accesses: u64, f: impl FnOnce() -> T) -> (Measurement, T) {
    let start = Instant::now();
    let value = f();
    (
        Measurement::new(accesses, start.elapsed().as_secs_f64()),
        value,
    )
}

/// Serial replay of the cached trace under `policy` — one policy call per
/// access — mirroring the runner's warmup handling and nominal pricing.
fn replay_serial(
    config: &ExperimentConfig,
    spec: &WorkloadSpec,
    cache: &TraceCache,
    policy: Box<dyn HybridPolicy>,
) -> SimulationReport {
    let trace = cache
        .try_get(spec, config.seed)
        .expect("the generate phase materialized this trace");
    let mut simulator = HybridSimulator::with_date2016_devices(policy);
    simulator.set_static_scale(1.0 / spec.scale_factor());
    simulator.set_density_hint(spec.nominal_density());
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let warmup =
        ((spec.total_accesses() as f64 * config.warmup_fraction) as usize).min(trace.len());
    simulator.run_slice(&trace[..warmup]);
    simulator.reset_accounting();
    simulator.run_slice(&trace[warmup..]);
    simulator.into_report(spec.name.clone())
}

/// The frozen baseline policy, sized and tuned like the optimized two-LRU.
fn reference_policy(config: &ExperimentConfig, spec: &WorkloadSpec) -> Box<dyn HybridPolicy> {
    let (dram, nvm, _total) = config.memory_sizes(spec);
    let two_lru = TwoLruConfig::with_thresholds(
        dram,
        nvm,
        config.read_threshold,
        config.write_threshold,
        config.read_window,
        config.write_window,
    )
    .expect("the date2016 thresholds are valid");
    Box::new(ReferenceTwoLru::new(two_lru))
}

/// The baseline must reproduce the optimized serial run's decisions;
/// otherwise the speedup compares two different simulations.
fn assert_same_simulation(reference: &SimulationReport, serial: &SimulationReport) {
    assert_eq!(
        reference.counts, serial.counts,
        "{}: reference baseline diverged from two-lru (counts)",
        serial.workload
    );
    assert_eq!(
        reference.nvm_writes, serial.nvm_writes,
        "{}: reference baseline diverged from two-lru (nvm writes)",
        serial.workload
    );
}

fn main() -> Result<()> {
    let options = Options::parse(std::env::args().skip(1))?;
    let cap = options.cap();
    let spill_dir = std::env::temp_dir().join(format!("hybridmem-stress-{}", std::process::id()));
    // Plenty for the harness caps; the spill-replay phase uses its own
    // deliberately undersized cache over the same directory.
    let cache = TraceCache::with_spill_dir(1 << 30, &spill_dir);
    let spill_only = TraceCache::with_spill_dir(1, &spill_dir);
    let config = ExperimentConfig {
        seed: options.seed,
        ..ExperimentConfig::date2016()
    };

    let run_start = Instant::now();
    let mut workloads = Vec::new();
    let mut flights = Vec::new();
    for name in WORKLOADS {
        let spec = parsec::spec(name)
            .expect("WORKLOADS only lists known profiles")
            .capped(cap);
        let accesses = spec.total_accesses();
        println!("[{name}] {accesses} accesses");

        let (generate, _) = timed(accesses, || {
            cache
                .try_get(&spec, options.seed)
                .expect("harness caps fit the cache budget")
        });
        let (reference, reference_report) = timed(accesses, || {
            replay_serial(&config, &spec, &cache, reference_policy(&config, &spec))
        });
        let (serial, serial_report) = timed(accesses, || {
            let policy = config
                .build_policy(PolicyKind::TwoLru, &spec)
                .expect("cell inputs are valid");
            replay_serial(&config, &spec, &cache, policy)
        });
        assert_same_simulation(&reference_report, &serial_report);
        let (batched, _) = timed(accesses, || {
            config
                .run_cached(&spec, PolicyKind::TwoLru, &cache)
                .expect("cell inputs are valid")
        });
        let (spill, _) = timed(accesses, || {
            config
                .run_cached(&spec, PolicyKind::TwoLru, &spill_only)
                .expect("cell inputs are valid")
        });

        let mut policies = Vec::new();
        for kind in REPLAY_POLICIES {
            let (m, _) = timed(accesses, || {
                config
                    .run_cached(&spec, kind, &cache)
                    .expect("cell inputs are valid")
            });
            policies.push(NamedMeasurement {
                name: kind.name().to_owned(),
                measurement: m,
            });
        }

        let phases = [
            ("generate", generate),
            ("reference", reference),
            ("replay_serial", serial),
            ("replay_batched", batched),
            ("replay_spill", spill),
        ]
        .into_iter()
        .map(|(name, measurement)| NamedMeasurement {
            name: name.to_owned(),
            measurement,
        })
        .collect();
        workloads.push(WorkloadResult {
            workload: spec.name.clone(),
            accesses,
            phases,
            policies,
        });

        // One extra *untimed* replay carries the black box, so the
        // measured phases above stay unperturbed by the recorder.
        if options.flight_out.is_some() {
            let run = MatrixRun {
                instrumentation: Instrumentation::default().with_flight(options.flight_events),
                ..MatrixRun::new(config)?
            };
            let trace = cache
                .try_get(&spec, options.seed)
                .expect("harness caps fit the cache budget");
            let outcome = run.run_trace(&spec, &trace, &[PolicyKind::TwoLru])?;
            flights.extend(outcome.flights());
        }
    }

    let write_err =
        |path: &std::path::Path, e| Error::invalid_input(format!("write {}: {e}", path.display()));
    if let Some(path) = &options.flight_out {
        let matrix = FlightMatrixReport::new(flights);
        let mut writer =
            std::io::BufWriter::new(std::fs::File::create(path).map_err(|e| write_err(path, e))?);
        write_flight_json(&mut writer, &matrix)
            .and_then(|()| std::io::Write::flush(&mut writer))
            .map_err(|e| write_err(path, e))?;
        println!("wrote flight recorder dump to {}", path.display());
    }

    let mut phase_totals: Vec<NamedMeasurement> = Vec::new();
    let mut policy_totals: Vec<NamedMeasurement> = Vec::new();
    for workload in &workloads {
        for (totals, entries) in [
            (&mut phase_totals, &workload.phases),
            (&mut policy_totals, &workload.policies),
        ] {
            for entry in entries {
                match totals.iter_mut().find(|t| t.name == entry.name) {
                    Some(total) => total.measurement.absorb(&entry.measurement),
                    None => totals.push(entry.clone()),
                }
            }
        }
    }
    let phase_rate = |name: &str| {
        phase_totals
            .iter()
            .find(|t| t.name == name)
            .map_or(0.0, |t| t.measurement.accesses_per_second)
    };
    let reference_rate = phase_rate("reference");
    let speedup = |rate: f64| {
        if reference_rate > 0.0 {
            rate / reference_rate
        } else {
            0.0
        }
    };

    let report = BenchReport {
        schema: "hybridmem-stress-v1",
        quick: options.quick,
        seed: options.seed,
        cap,
        threads: 1,
        wall_seconds: run_start.elapsed().as_secs_f64(),
        peak_rss_bytes: peak_rss_bytes(),
        speedup_batched_vs_reference: speedup(phase_rate("replay_batched")),
        speedup_spill_vs_reference: speedup(phase_rate("replay_spill")),
        workloads,
        phases: phase_totals,
        policies: policy_totals,
        trace_cache: cache.stats(),
    };

    std::fs::write(&options.out, hybridmem_json::to_string_pretty(&report))
        .map_err(|e| write_err(&options.out, e))?;
    let _ = std::fs::remove_dir_all(&spill_dir);

    for phase in &report.phases {
        println!(
            "{:<16} {:>12.0} accesses/sec",
            phase.name, phase.measurement.accesses_per_second
        );
    }
    println!(
        "speedup: batched {:.2}x, spill {:.2}x vs reference (wrote {})",
        report.speedup_batched_vs_reference,
        report.speedup_spill_vs_reference,
        options.out.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{next_bench_path, Options};

    fn parse(tokens: &[&str]) -> hybridmem_types::Result<Options> {
        Options::parse(tokens.iter().map(|t| (*t).to_owned()))
    }

    #[test]
    fn bad_flags_are_typed_errors_naming_the_flag() {
        for (tokens, message) in [
            (["--cap", "abc"].as_slice(), "--cap expects a number"),
            (&["--seed", "-1"], "--seed expects a number"),
            (&["--bogus"], "unknown flag --bogus"),
            (
                &["--flight-events", "0"],
                "--flight-events must retain at least 1",
            ),
            (&["--out"], "flag --out requires a value"),
        ] {
            let err = parse(tokens).expect_err(&format!("{tokens:?} must fail"));
            assert!(err.to_string().contains(message), "{tokens:?}: {err}");
        }
        let options = parse(&["--quick", "--cap", "500", "--flight-events", "8"]).unwrap();
        assert!(options.quick);
        assert_eq!((options.cap(), options.seed), (500, 42));
        assert_eq!(options.flight_events, 8);
    }

    #[test]
    fn next_bench_path_extends_the_highest_index() {
        let dir = std::env::temp_dir().join("hybridmem-stress-bench-index");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(
            next_bench_path(&dir),
            dir.join("BENCH_1.json"),
            "an empty directory starts the trajectory"
        );
        for name in [
            "BENCH_3.json",
            "BENCH_10.json",
            "BENCH_x.json",
            "other.json",
        ] {
            std::fs::write(dir.join(name), "{}").unwrap();
        }
        assert_eq!(
            next_bench_path(&dir),
            dir.join("BENCH_11.json"),
            "only well-formed BENCH_<n>.json names count"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
