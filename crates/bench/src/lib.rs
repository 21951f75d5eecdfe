//! Shared harness for the figure/table regenerators.
//!
//! Every exhibit of the paper has a binary in `src/bin/` (see `DESIGN.md`
//! §4 for the index). All of them but `exp_tables` (`--table N` only) and
//! the closed-form `model_explorer` accept the same flags:
//!
//! ```text
//! --cap N             max accesses per workload (default 1_000_000; 0 = full scale)
//! --seed N            trace generator seed (default 42)
//! --out DIR           also write machine-readable JSON results into DIR
//! ```
//!
//! Those that run the evaluation matrix through
//! [`SuiteOptions::run_matrix`] also accept the matrix flags they share
//! with `hybridmem compare`, parsed by [`MatrixRun::from_flags`]; the
//! others (the `abl_*` sweeps, `exp_table3`, `ext_wear_leveling`) refuse
//! them rather than ignore them:
//!
//! ```text
//! --threads N         worker threads for the evaluation matrix (default 0 = auto)
//! --metrics-out FILE  write per-window interval records as JSONL
//! --metrics-window N  accesses per metrics window (default 10_000; at least 1)
//! --ledger-out FILE   write per-page journey ledgers as JSONL (one report per cell)
//! --ledger-top N      detailed pages retained per ledger (default 64)
//! --profile-out FILE  write a Chrome trace-event span profile (Perfetto-loadable)
//! --audit-out FILE    attach the run-health audit to every cell and write its
//!                     hybridmem-audit-v1 report (non-zero exit on violations)
//! --flight-out FILE   ride a black-box flight recorder on every cell and
//!                     write the hybridmem-flight-v1 dump (byte-identical at
//!                     any --threads count)
//! --flight-events N   events retained per cell's flight ring (default 256)
//! --resume FILE       journal completed cells to FILE (fsynced, checksummed)
//!                     and skip cells already journaled, so a killed run
//!                     resumes byte-identically; incompatible with the
//!                     streaming instrumentation outputs, but --flight-out is
//!                     allowed (journaled cells replay without a black box)
//! ```
//!
//! `HYBRIDMEM_FAULT_PLAN` injects scripted faults into every matrix; a
//! failed cell fails the run after every artifact is written.
//!
//! Tables are printed in the same row/series layout the paper uses, with
//! `G-Mean` and `A-Mean` columns matching the figures' summary bars.

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::panic,
        clippy::wildcard_enum_match_arm
    )
)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use hybridmem_core::{
    arith_mean, geo_mean, parse_flag, ExperimentConfig, MatrixRun, MatrixTiming, PolicyKind,
    SimulationReport, TraceCache, TraceCacheStats,
};
use hybridmem_json::{impl_json, ToJson};
use hybridmem_metrics::{MetricsRegistry, MetricsSnapshot};
use hybridmem_trace::{parsec, WorkloadSpec};
use hybridmem_types::{Error, Result};

/// Command-line options shared by every regenerator binary.
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    /// Maximum accesses per workload (`0` disables capping).
    pub cap: u64,
    /// Directory for machine-readable JSON results (and
    /// `throughput.json`), when given.
    pub out_dir: Option<PathBuf>,
    /// The evaluation matrix: the configuration (`--seed` included), the
    /// worker pool, the sinks, the journal, the fault plan and the
    /// artifact paths.
    pub matrix: MatrixRun,
}

impl SuiteOptions {
    /// Default cap used by the regenerators: large enough for stable
    /// steady-state statistics, small enough to run the full suite in
    /// minutes.
    pub const DEFAULT_CAP: u64 = 1_000_000;

    /// Parses the command line of a regenerator that runs the evaluation
    /// matrix: `--cap`, `--seed`, `--out` and the matrix flags (see
    /// [`SuiteOptions::parse`]).
    ///
    /// # Errors
    ///
    /// As [`SuiteOptions::parse`].
    pub fn from_args() -> Result<Self> {
        Self::parse(std::env::args().skip(1), &MatrixRun::FLAGS)
    }

    /// Parses the command line of a regenerator that runs no evaluation
    /// matrix: `--cap`, `--seed` and `--out` only, so a matrix flag it
    /// could not honour is an error instead of a silent no-op.
    ///
    /// # Errors
    ///
    /// As [`SuiteOptions::parse`].
    pub fn from_args_without_matrix() -> Result<Self> {
        Self::parse(std::env::args().skip(1), &[])
    }

    /// Parses `--cap`, `--seed`, `--out` and the `matrix_flags` (a subset
    /// of [`MatrixRun::FLAGS`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] naming the flag for a flag outside
    /// that set, a missing value, or a value [`MatrixRun::from_flags`]
    /// rejects.
    pub fn parse(raw: impl IntoIterator<Item = String>, matrix_flags: &[&str]) -> Result<Self> {
        let accepted: Vec<&str> = ["cap", "seed", "out"]
            .into_iter()
            .chain(matrix_flags.iter().copied())
            .collect();
        let mut flags = BTreeMap::new();
        let mut raw = raw.into_iter();
        while let Some(flag) = raw.next() {
            let name = flag
                .strip_prefix("--")
                .filter(|name| accepted.contains(name))
                .ok_or_else(|| {
                    Error::invalid_input(format!(
                        "unknown flag {flag}; expected --{}",
                        accepted.join(", --")
                    ))
                })?;
            let value = raw
                .next()
                .ok_or_else(|| Error::invalid_input(format!("flag {flag} requires a value")))?;
            flags.insert(name.to_owned(), value);
        }
        let flag = |name: &str| flags.get(name).map(String::as_str);
        let config = ExperimentConfig {
            seed: parse_flag("seed", flag("seed"), 42)?,
            ..ExperimentConfig::date2016()
        };
        Ok(Self {
            cap: parse_flag("cap", flag("cap"), Self::DEFAULT_CAP)?,
            out_dir: flag("out").map(PathBuf::from),
            matrix: MatrixRun::from_flags(config, flag)?,
        })
    }

    /// The trace generator seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.matrix.config.seed
    }

    /// The experiment configuration for these options.
    #[must_use]
    pub fn config(&self) -> ExperimentConfig {
        self.matrix.config
    }

    /// All 12 PARSEC specs, capped per the options.
    #[must_use]
    pub fn specs(&self) -> Vec<WorkloadSpec> {
        parsec::all_specs()
            .into_iter()
            .map(|spec| {
                if self.cap == 0 {
                    spec
                } else {
                    spec.capped(self.cap)
                }
            })
            .collect()
    }

    /// Runs `kinds` over all 12 workloads, writes every artifact the
    /// matrix flags asked for, then records the run's throughput into
    /// `throughput.json` (see [`ThroughputSummary`]).
    ///
    /// # Errors
    ///
    /// An unopenable journal, an unwritable artifact or an unclean audit;
    /// then, after every artifact is written, the first failed cell.
    pub fn run_matrix(
        &self,
        kinds: &[PolicyKind],
    ) -> Result<Vec<(WorkloadSpec, Vec<SimulationReport>)>> {
        let specs = self.specs();
        let outcome = self.matrix.run(&specs, kinds)?;
        self.matrix
            .write_artifacts(&outcome, &mut std::io::stdout().lock())?;
        let cell_metrics = self.matrix.instrumentation.window.map(|_| {
            let mut merged = MetricsSnapshot::default();
            outcome
                .completed()
                .for_each(|run| merged.absorb(&run.metrics));
            merged
        });
        let mut summary = ThroughputSummary::from_matrix(&specs, kinds, &outcome.timing);
        summary.trace_cache = TraceCache::global().stats();
        summary.metrics = Self::aggregate_metrics(&outcome.timing, cell_metrics);
        self.write_throughput(&summary);
        if let (Some(journal), failed @ 1..) = (&self.matrix.resume, outcome.health.failed_cells) {
            return Err(Error::invalid_input(format!(
                "{failed} of {} cells failed; completed cells are journaled in {} — rerun \
                 with --resume to recompute only the failures",
                outcome.health.total_cells,
                journal.display()
            )));
        }
        Ok(specs.into_iter().zip(outcome.reports()?).collect())
    }

    /// Merges scheduler telemetry, trace-cache counters, and (when the
    /// observed path ran) the per-cell collector metrics into one snapshot.
    fn aggregate_metrics(
        timing: &MatrixTiming,
        cell_metrics: Option<MetricsSnapshot>,
    ) -> MetricsSnapshot {
        let mut registry = MetricsRegistry::new();
        registry.add(
            "scheduler.cells",
            timing.cells_per_worker.iter().sum::<u64>(),
        );
        registry.set_gauge("scheduler.workers", timing.workers as f64);
        registry.set_gauge("scheduler.peak_in_flight", timing.peak_in_flight as f64);
        registry.set_gauge("scheduler.wall_seconds", timing.wall_seconds);
        for &count in &timing.cells_per_worker {
            registry.observe("scheduler.cells_per_worker", count);
        }
        for seconds in timing.cell_seconds.iter().flatten() {
            registry.observe("scheduler.cell_micros", (seconds * 1e6).max(0.0) as u64);
        }
        TraceCache::global().export_into(&mut registry);
        let mut snapshot = registry.snapshot();
        if let Some(cells) = cell_metrics {
            snapshot.absorb(&cells);
        }
        snapshot
    }

    /// Writes the throughput summary to `<out_dir or "results">/throughput.json`.
    ///
    /// Best-effort: a read-only working directory must not fail an exhibit
    /// regeneration, so failures are reported on stderr and swallowed.
    fn write_throughput(&self, summary: &ThroughputSummary) {
        let dir = self
            .out_dir
            .clone()
            .unwrap_or_else(|| PathBuf::from("results"));
        let path = dir.join("throughput.json");
        let result = fs::create_dir_all(&dir)
            .map_err(|e| format!("mkdir {dir:?}: {e}"))
            .and_then(|()| {
                fs::write(&path, hybridmem_json::to_string_pretty(summary))
                    .map_err(|e| format!("write {path:?}: {e}"))
            });
        match result {
            Ok(()) => println!(
                "throughput: {:.0} accesses/sec on {} threads (wrote {})",
                summary.accesses_per_second,
                summary.workers,
                path.display()
            ),
            Err(e) => eprintln!("warning: could not record throughput: {e}"),
        }
    }

    /// Writes `value` as pretty JSON into `out_dir/name.json` when an
    /// output directory was requested. Returns the path written, if any.
    ///
    /// # Errors
    ///
    /// Returns [`hybridmem_types::Error::InvalidInput`] on I/O failures.
    pub fn write_json<T: ToJson + ?Sized>(&self, name: &str, value: &T) -> Result<Option<PathBuf>> {
        let Some(dir) = &self.out_dir else {
            return Ok(None);
        };
        fs::create_dir_all(dir)
            .map_err(|e| hybridmem_types::Error::invalid_input(format!("mkdir {dir:?}: {e}")))?;
        let path = dir.join(format!("{name}.json"));
        fs::write(&path, hybridmem_json::to_string_pretty(value))
            .map_err(|e| hybridmem_types::Error::invalid_input(format!("write {path:?}: {e}")))?;
        Ok(Some(path))
    }
}

/// Throughput of one policy across the whole matrix run.
#[derive(Debug, Clone)]
pub struct PolicyThroughput {
    /// Policy name (stable, as in reports).
    pub policy: String,
    /// Total trace accesses simulated under this policy (warmup included).
    pub accesses: u64,
    /// Worker-seconds spent in this policy's cells.
    pub seconds: f64,
    /// `accesses / seconds`.
    pub accesses_per_second: f64,
}

impl_json!(ToJson for PolicyThroughput { policy, accesses, seconds, accesses_per_second });

/// One matrix run's throughput record, written to `throughput.json` by
/// [`SuiteOptions::run_matrix`]. It records wall time, so it is the one
/// output that differs between identical runs; perfbench
/// (`BENCHMARK.json`) is the benchmark of record.
#[derive(Debug, Clone)]
pub struct ThroughputSummary {
    /// Worker threads the cell pool used.
    pub workers: usize,
    /// End-to-end wall-clock of the matrix, seconds.
    pub wall_seconds: f64,
    /// Total trace accesses simulated across every cell.
    pub total_accesses: u64,
    /// `total_accesses / wall_seconds` — the headline number.
    pub accesses_per_second: f64,
    /// Per-policy breakdown (worker-seconds, not wall-clock).
    pub per_policy: Vec<PolicyThroughput>,
    /// Shared trace-cache statistics at the end of the run
    /// ([`TraceCache::stats`]).
    pub trace_cache: TraceCacheStats,
    /// Aggregated metrics: scheduler telemetry, trace-cache counters, and
    /// — when `--metrics-out` ran the observed path — the merged per-cell
    /// collector metrics.
    pub metrics: MetricsSnapshot,
}

impl_json!(ToJson for ThroughputSummary {
    workers,
    wall_seconds,
    total_accesses,
    accesses_per_second,
    per_policy,
    trace_cache,
    metrics,
});

impl ThroughputSummary {
    /// Derives the summary from a timed matrix run.
    #[must_use]
    pub fn from_matrix(
        specs: &[WorkloadSpec],
        kinds: &[PolicyKind],
        timing: &MatrixTiming,
    ) -> Self {
        let per_policy: Vec<PolicyThroughput> = kinds
            .iter()
            .enumerate()
            .map(|(kind_index, kind)| {
                let accesses: u64 = specs.iter().map(WorkloadSpec::total_accesses).sum();
                #[expect(clippy::indexing_slicing, reason = "a timing row has a cell per kind")]
                let seconds: f64 = timing.cell_seconds.iter().map(|row| row[kind_index]).sum();
                PolicyThroughput {
                    policy: kind.name().to_owned(),
                    accesses,
                    seconds,
                    accesses_per_second: if seconds > 0.0 {
                        accesses as f64 / seconds
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        let total_accesses: u64 = per_policy.iter().map(|p| p.accesses).sum();
        let accesses_per_second = if timing.wall_seconds > 0.0 {
            total_accesses as f64 / timing.wall_seconds
        } else {
            0.0
        };
        Self {
            workers: timing.workers,
            wall_seconds: timing.wall_seconds,
            total_accesses,
            accesses_per_second,
            per_policy,
            trace_cache: TraceCacheStats::default(),
            metrics: MetricsSnapshot::default(),
        }
    }
}

/// One stacked bar of a figure: a workload's component values.
#[derive(Debug, Clone)]
pub struct StackedBar {
    /// Workload (x-axis label).
    pub workload: String,
    /// `(component name, value)` pairs, in legend order.
    pub components: Vec<(String, f64)>,
}

impl_json!(ToJson for StackedBar { workload, components });

impl StackedBar {
    /// Total height of the bar.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.components.iter().map(|(_, v)| v).sum()
    }
}

/// Prints a figure as a table: one row per workload, one column per
/// component, plus a total column and G-Mean / A-Mean rows over totals —
/// the same summary bars the paper appends to each figure.
pub fn print_stacked_figure(title: &str, bars: &[StackedBar]) {
    println!("\n=== {title} ===");
    let components: Vec<&str> = bars.first().map_or_else(Vec::new, |b| {
        b.components.iter().map(|(n, _)| n.as_str()).collect()
    });
    print!("{:<16}", "workload");
    for name in &components {
        print!(" {name:>12}");
    }
    println!(" {:>12}", "total");
    for bar in bars {
        print!("{:<16}", bar.workload);
        for (_, value) in &bar.components {
            print!(" {value:>12.4}");
        }
        println!(" {:>12.4}", bar.total());
    }
    let totals: Vec<f64> = bars.iter().map(StackedBar::total).collect();
    if totals.iter().all(|&t| t > 0.0) && !totals.is_empty() {
        let pad = components.len() * 13;
        println!("{:<16}{:pad$} {:>12.4}", "G-Mean", "", geo_mean(&totals));
        println!("{:<16}{:pad$} {:>12.4}", "A-Mean", "", arith_mean(&totals));
    }
}

/// Prints a grouped figure (left/right bars per workload, like Fig. 4):
/// each group is a labelled set of stacked bars over the same workloads.
pub fn print_grouped_figure(title: &str, groups: &[(&str, Vec<StackedBar>)]) {
    println!("\n=== {title} ===");
    for (label, bars) in groups {
        print_stacked_figure(&format!("{title} — {label}"), bars);
    }
}

/// Re-exported so the binaries can keep their imports terse.
pub use hybridmem_core as core_api;

/// Convenience: indexes a report row by policy name.
///
/// # Panics
///
/// Panics when the policy is missing from the row — regenerator binaries
/// always request the policies they index.
#[must_use]
#[expect(clippy::panic, reason = "figures only ask for policies they ran")]
pub fn report<'a>(row: &'a [SimulationReport], policy: &str) -> &'a SimulationReport {
    row.iter()
        .find(|r| r.policy == policy)
        .unwrap_or_else(|| panic!("policy {policy} missing from report row"))
}

/// Marks `path` (if any) on stdout so users can find the JSON artefacts.
pub fn announce_json(path: Option<&Path>) {
    if let Some(path) = path {
        println!("\nwrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<SuiteOptions> {
        SuiteOptions::parse(tokens.iter().map(|t| (*t).to_owned()), &MatrixRun::FLAGS)
    }

    #[test]
    fn default_options() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.cap, SuiteOptions::DEFAULT_CAP);
        assert_eq!(o.seed(), 42);
        assert!(o.out_dir.is_none());
        assert_eq!(o.matrix.threads, 0, "auto thread count by default");
        assert!(
            o.matrix.instrumentation.is_empty(),
            "no flags must mean no sinks"
        );
        assert_eq!(o.matrix.outputs, hybridmem_core::MatrixOutputs::default());
        assert!(o.matrix.resume.is_none(), "the resume journal is opt-in");
        assert_eq!(o.config(), ExperimentConfig::date2016());
    }

    #[test]
    fn flags_reach_the_options_and_the_matrix() {
        let o = parse(&[
            "--cap",
            "5000",
            "--seed",
            "7",
            "--out",
            "dir",
            "--threads",
            "3",
            "--metrics-out",
            "m.jsonl",
            "--metrics-window",
            "500",
            "--ledger-out",
            "l.jsonl",
            "--ledger-top",
            "8",
        ])
        .unwrap();
        assert_eq!((o.cap, o.seed()), (5_000, 7));
        assert_eq!(o.out_dir, Some(PathBuf::from("dir")));
        assert_eq!(o.matrix.threads, 3);
        assert_eq!(o.matrix.instrumentation.window, Some(500));
        assert_eq!(o.matrix.instrumentation.ledger.map(|l| l.top_k), Some(8));
    }

    #[test]
    fn bad_flags_are_typed_errors_naming_the_flag() {
        for (tokens, message) in [
            (
                &["--metrics-window", "0"][..],
                "--metrics-window must be at least 1",
            ),
            (
                &["--ledger-top", "0"][..],
                "--ledger-top must retain at least 1",
            ),
            (&["--cap", "abc"][..], "flag --cap expects a number"),
            (&["--seed", "-1"][..], "flag --seed expects a number"),
            (&["--cap"][..], "flag --cap requires a value"),
            (&["--frobnicate", "1"][..], "unknown flag --frobnicate"),
        ] {
            let err = parse(tokens).unwrap_err().to_string();
            assert!(err.contains(message), "{tokens:?}: {err}");
        }
    }

    #[test]
    fn regenerators_without_a_matrix_refuse_the_matrix_flags() {
        let plain =
            |tokens: &[&str]| SuiteOptions::parse(tokens.iter().map(|t| (*t).to_owned()), &[]);
        let o = plain(&["--cap", "400000", "--seed", "7", "--out", "dir"]).unwrap();
        assert_eq!((o.cap, o.seed()), (400_000, 7));
        for flag in MatrixRun::FLAGS {
            let err = plain(&[&format!("--{flag}"), "1"]).unwrap_err().to_string();
            assert!(err.contains(&format!("unknown flag --{flag}")), "{err}");
            assert!(err.contains("expected --cap, --seed, --out"), "{err}");
        }
    }

    #[test]
    fn throughput_summary_math() {
        let specs = vec![
            parsec::spec("bodytrack").unwrap().capped(1_000),
            parsec::spec("raytrace").unwrap().capped(1_000),
        ];
        let kinds = [PolicyKind::TwoLru, PolicyKind::DramOnly];
        let timing = MatrixTiming {
            wall_seconds: 2.0,
            workers: 4,
            cell_seconds: vec![vec![0.5, 0.25], vec![0.5, 0.25]],
            cells_per_worker: vec![1, 1, 1, 1],
            peak_in_flight: 3,
        };
        let summary = ThroughputSummary::from_matrix(&specs, &kinds, &timing);
        let per_policy_accesses: u64 = specs.iter().map(WorkloadSpec::total_accesses).sum();
        assert_eq!(summary.workers, 4);
        assert_eq!(summary.total_accesses, per_policy_accesses * 2);
        assert_eq!(summary.per_policy.len(), 2);
        assert_eq!(summary.per_policy[0].policy, "two-lru");
        assert!((summary.per_policy[0].seconds - 1.0).abs() < 1e-12);
        assert!((summary.per_policy[1].seconds - 0.5).abs() < 1e-12);
        let expected = per_policy_accesses as f64 / 1.0;
        assert!((summary.per_policy[0].accesses_per_second - expected).abs() < 1e-6);
        let headline = (per_policy_accesses * 2) as f64 / 2.0;
        assert!((summary.accesses_per_second - headline).abs() < 1e-6);
    }

    #[test]
    fn aggregate_metrics_carries_scheduler_telemetry() {
        let timing = MatrixTiming {
            wall_seconds: 2.0,
            workers: 4,
            cell_seconds: vec![vec![0.5, 0.25], vec![0.5, 0.25]],
            cells_per_worker: vec![2, 1, 1, 0],
            peak_in_flight: 3,
        };
        let snapshot = SuiteOptions::aggregate_metrics(&timing, None);
        assert_eq!(snapshot.counters["scheduler.cells"], 4);
        assert!((snapshot.gauges["scheduler.workers"] - 4.0).abs() < f64::EPSILON);
        assert!((snapshot.gauges["scheduler.peak_in_flight"] - 3.0).abs() < f64::EPSILON);
        let per_worker = &snapshot.histograms["scheduler.cells_per_worker"];
        assert_eq!(per_worker.count, 4);
        assert_eq!(per_worker.sum, 4);
        let micros = &snapshot.histograms["scheduler.cell_micros"];
        assert_eq!(micros.count, 4);
        assert_eq!(micros.sum, 1_500_000);

        // Cell metrics absorb on top of the scheduler's.
        let mut registry = MetricsRegistry::new();
        registry.add("sim.accesses", 10);
        let merged = SuiteOptions::aggregate_metrics(&timing, Some(registry.snapshot()));
        assert_eq!(merged.counters["sim.accesses"], 10);
        assert_eq!(merged.counters["scheduler.cells"], 4);
    }

    #[test]
    fn resume_journal_replays_the_matrix_byte_identically() {
        let dir = std::env::temp_dir().join("hybridmem-bench-resume");
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("run.hmjournal");
        let _ = fs::remove_file(&journal);
        let flight_path = dir.join("flight.json");
        let flight = flight_path.to_str().unwrap();
        let resume = [
            "--cap",
            "2000",
            "--threads",
            "2",
            "--resume",
            journal.to_str().unwrap(),
        ];
        let options = |extra: &[&str]| {
            let mut tokens = resume.to_vec();
            tokens.extend(["--out", dir.to_str().unwrap()]);
            tokens.extend(extra);
            parse(&tokens).unwrap()
        };
        // A fresh journal simulates every cell, so every cell dumps its
        // black box.
        let first = options(&["--flight-out", flight])
            .run_matrix(&[PolicyKind::TwoLru])
            .unwrap();
        let dump = fs::read_to_string(&flight_path).unwrap();
        assert!(dump.contains("\"dumped_cells\": 12"), "{dump}");
        assert!(dump.contains("\"triggered_cells\": 0"), "{dump}");

        // Every cell is journaled now; the second run replays them all,
        // so its flight dump is empty (but valid).
        let second = options(&["--flight-out", flight])
            .run_matrix(&[PolicyKind::TwoLru])
            .unwrap();
        let rows = |matrix: &[(WorkloadSpec, Vec<SimulationReport>)]| {
            hybridmem_json::to_string(&matrix.iter().map(|(_, row)| row).collect::<Vec<_>>())
        };
        assert_eq!(
            rows(&first),
            rows(&second),
            "journal replay is byte-identical"
        );
        let dump = fs::read_to_string(&flight_path).unwrap();
        assert!(dump.contains("hybridmem-flight-v1"), "{dump}");
        assert!(dump.contains("\"dumped_cells\": 0"), "{dump}");

        let mut incompatible = resume.to_vec();
        incompatible.extend(["--metrics-out", "m.jsonl"]);
        let err = parse(&incompatible).unwrap_err();
        assert!(
            err.to_string().contains("--resume cannot be combined"),
            "{err}"
        );
        let _ = fs::remove_file(journal);
        let _ = fs::remove_file(flight_path);
    }

    #[test]
    fn specs_are_capped() {
        let o = SuiteOptions {
            cap: 10_000,
            ..parse(&[]).unwrap()
        };
        for spec in o.specs() {
            assert!(spec.total_accesses() <= 10_100, "{}", spec.name);
        }
        let full = SuiteOptions {
            cap: 0,
            ..parse(&[]).unwrap()
        };
        assert_eq!(full.specs()[9].total_accesses(), 169_115_076); // streamcluster
    }

    #[test]
    fn stacked_bar_total() {
        let bar = StackedBar {
            workload: "w".into(),
            components: vec![("a".into(), 0.25), ("b".into(), 0.5)],
        };
        assert!((bar.total() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn write_json_respects_missing_out_dir() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.write_json("x", &42_u64).unwrap(), None);
    }

    #[test]
    fn write_json_writes_to_dir() {
        let dir = std::env::temp_dir().join("hybridmem-bench-test");
        let o = SuiteOptions {
            out_dir: Some(dir.clone()),
            ..parse(&[]).unwrap()
        };
        let path = o.write_json("sample", &vec![1_u64, 2, 3]).unwrap().unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains('1'));
        let _ = fs::remove_file(path);
    }
}
