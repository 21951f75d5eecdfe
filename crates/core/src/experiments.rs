//! Experiment runners: the paper's evaluation methodology in one place.
//!
//! The paper's setup (Section V-A): "the total memory size is set to 75% of
//! the total pages and the DRAM size is set to 10% of the total memory
//! size". [`ExperimentConfig`] captures those ratios (and every other knob)
//! and [`ExperimentConfig::run`] executes one `(workload, policy)` cell of
//! the evaluation matrix; [`MatrixRun`](crate::MatrixRun) runs the whole
//! matrix. Every path drives the same cell driver.

use std::panic::AssertUnwindSafe;

use hybridmem_json::impl_json;
use hybridmem_metrics::{MetricsSnapshot, SpanProfiler};
use hybridmem_policy::{
    AdaptiveConfig, AdaptiveTwoLruPolicy, ClockDwfPolicy, ClockProPolicy, DramCachePolicy,
    HybridPolicy, SingleTierPolicy, TwoLruConfig, TwoLruPolicy,
};
use hybridmem_trace::binfmt::BinTraceStream;
use hybridmem_trace::{TraceGenerator, WorkloadSpec};
use hybridmem_types::{Error, PageAccess, PageCount, Result};

use crate::health::{panic_message, CellFailure, CellPanic};
use crate::{
    AuditReport, CellContext, CellSink, FlightRecord, HybridSimulator, IntervalRecord,
    LedgerOptions, LedgerReport, SimulationReport, TimeModel, TraceCache,
};

/// Which policy to evaluate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// The paper's proposed two-LRU migration scheme (Algorithm 1).
    TwoLru,
    /// The CLOCK-DWF baseline.
    ClockDwf,
    /// DRAM-only LRU memory of the full (DRAM+NVM) capacity.
    DramOnly,
    /// NVM-only LRU memory of the full capacity.
    NvmOnly,
    /// The adaptive-threshold extension over the proposed scheme.
    AdaptiveTwoLru,
    /// CLOCK-Pro-lite: the pre-CLOCK-DWF baseline, adapted to hybrid memory.
    ClockPro,
    /// DRAM-as-a-cache over NVM — the other related-work organization.
    DramCache,
}

impl_json!(ToJson for PolicyKind {
    TwoLru = "two_lru",
    ClockDwf = "clock_dwf",
    DramOnly = "dram_only",
    NvmOnly = "nvm_only",
    AdaptiveTwoLru = "adaptive_two_lru",
    ClockPro = "clock_pro",
    DramCache = "dram_cache",
});

impl PolicyKind {
    /// All kinds, in reporting order.
    #[must_use]
    pub const fn all() -> [Self; 7] {
        [
            Self::TwoLru,
            Self::ClockDwf,
            Self::ClockPro,
            Self::DramCache,
            Self::DramOnly,
            Self::NvmOnly,
            Self::AdaptiveTwoLru,
        ]
    }

    /// Stable display name (matches [`HybridPolicy::name`]).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::TwoLru => "two-lru",
            Self::ClockDwf => "clock-dwf",
            Self::DramOnly => "dram-only",
            Self::NvmOnly => "nvm-only",
            Self::AdaptiveTwoLru => "two-lru-adaptive",
            Self::ClockPro => "clock-pro",
            Self::DramCache => "dram-cache",
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Full configuration of one experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Main memory capacity as a fraction of the workload footprint
    /// (paper: 0.75).
    pub memory_fraction: f64,
    /// DRAM share of the main memory (paper: 0.10).
    pub dram_fraction: f64,
    /// Promotion thresholds/windows of the proposed scheme.
    pub read_threshold: u32,
    /// See [`ExperimentConfig::read_threshold`].
    pub write_threshold: u32,
    /// `readperc` window fraction.
    pub read_window: f64,
    /// `writeperc` window fraction.
    pub write_window: f64,
    /// Adaptive-extension controller configuration.
    pub adaptive: AdaptiveConfig,
    /// Trace generator seed.
    pub seed: u64,
    /// Duration model for static-power proration.
    pub time_model: TimeModel,
    /// Fraction of the trace driven as warmup before accounting starts, in
    /// `[0, 1)`. The paper minimizes cold-start effects by using the
    /// largest PARSEC inputs; we do it by measuring the steady state only.
    pub warmup_fraction: f64,
}

impl_json!(ToJson for ExperimentConfig {
    memory_fraction,
    dram_fraction,
    read_threshold,
    write_threshold,
    read_window,
    write_window,
    adaptive,
    seed,
    time_model,
    warmup_fraction,
});

/// Where a cell's trace comes from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TraceSource<'a> {
    /// Streamed straight out of the generator, never materialized.
    Generate,
    /// Shared through a cache (spilled or streamed when oversize).
    Cache(&'a TraceCache),
    /// A caller's recorded trace: not a function of `(spec, seed)`, so it
    /// never enters a cache, and its report prices the measured footprint
    /// rather than the spec's nominal scale.
    Recorded(&'a [PageAccess]),
}

impl ExperimentConfig {
    /// The paper's setup: 75% memory, 10% DRAM, default thresholds.
    #[must_use]
    pub fn date2016() -> Self {
        Self {
            memory_fraction: 0.75,
            dram_fraction: 0.10,
            read_threshold: TwoLruConfig::DEFAULT_READ_THRESHOLD,
            write_threshold: TwoLruConfig::DEFAULT_WRITE_THRESHOLD,
            read_window: TwoLruConfig::DEFAULT_READ_WINDOW,
            write_window: TwoLruConfig::DEFAULT_WRITE_WINDOW,
            adaptive: AdaptiveConfig::new(),
            seed: 42,
            time_model: TimeModel::date2016(),
            warmup_fraction: 0.3,
        }
    }

    /// Memory sizes for a workload: `(dram_pages, nvm_pages, total_pages)`.
    ///
    /// Total memory is `memory_fraction` of the footprint; DRAM is
    /// `dram_fraction` of that; NVM is the remainder. Every size is at
    /// least one page.
    #[must_use]
    pub fn memory_sizes(&self, spec: &WorkloadSpec) -> (PageCount, PageCount, PageCount) {
        let total = spec.working_set.scaled(self.memory_fraction);
        let total = PageCount::new(total.value().max(2));
        let dram = total.scaled(self.dram_fraction);
        let nvm = PageCount::new((total.value() - dram.value()).max(1));
        (dram, nvm, total)
    }

    /// Builds the policy instance for one workload.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the derived sizes or the
    /// configured thresholds are invalid.
    pub fn build_policy(
        &self,
        kind: PolicyKind,
        spec: &WorkloadSpec,
    ) -> Result<Box<dyn HybridPolicy>> {
        let (dram, nvm, total) = self.memory_sizes(spec);
        let two_lru_config = TwoLruConfig::with_thresholds(
            dram,
            nvm,
            self.read_threshold,
            self.write_threshold,
            self.read_window,
            self.write_window,
        );
        Ok(match kind {
            PolicyKind::TwoLru => Box::new(TwoLruPolicy::new(two_lru_config?)),
            PolicyKind::ClockDwf => Box::new(ClockDwfPolicy::new(dram, nvm)?),
            PolicyKind::DramOnly => Box::new(SingleTierPolicy::dram_only(total)?),
            PolicyKind::NvmOnly => Box::new(SingleTierPolicy::nvm_only(total)?),
            PolicyKind::AdaptiveTwoLru => {
                Box::new(AdaptiveTwoLruPolicy::new(two_lru_config?, self.adaptive))
            }
            PolicyKind::ClockPro => Box::new(ClockProPolicy::new(dram, nvm)?),
            PolicyKind::DramCache => Box::new(DramCachePolicy::new(dram, nvm)?),
        })
    }

    /// Validates the inputs of one cell.
    fn validate_cell(&self, spec: &WorkloadSpec) -> Result<()> {
        spec.validate()?;
        if !(0.0..1.0).contains(&self.warmup_fraction) {
            return Err(Error::invalid_config(format!(
                "warmup_fraction must be in [0, 1), got {}",
                self.warmup_fraction
            )));
        }
        Ok(())
    }

    /// Builds the configured simulator for one cell. `nominal` prices a
    /// generated trace at its workload's nominal size.
    fn build_simulator(
        &self,
        kind: PolicyKind,
        spec: &WorkloadSpec,
        nominal: bool,
    ) -> Result<HybridSimulator> {
        let policy = self.build_policy(kind, spec)?;
        let mut simulator = HybridSimulator::new(
            policy,
            hybridmem_device::MemoryCharacteristics::dram_date2016(),
            hybridmem_device::MemoryCharacteristics::pcm_date2016(),
            hybridmem_device::DiskCharacteristics::hdd_date2016(),
            hybridmem_device::MigrationEngine::new(),
            self.time_model,
        );
        if nominal {
            // A scaled-down trace runs against a proportionally scaled
            // memory; report static power as if at nominal size, over the
            // workload's true duration density (see DESIGN.md).
            simulator.set_static_scale(1.0 / spec.scale_factor());
            simulator.set_density_hint(spec.nominal_density());
        }
        Ok(simulator)
    }

    /// Number of leading trace accesses driven as warmup.
    fn warmup_len(&self, spec: &WorkloadSpec) -> usize {
        (spec.total_accesses() as f64 * self.warmup_fraction) as usize
    }

    /// Drives one chunk of an incrementally produced trace, resetting the
    /// simulator's accounting exactly at the warmup boundary — the chunked
    /// equivalent of `run(warmup); reset; run(rest)`.
    #[expect(clippy::indexing_slicing, reason = "take <= slice.len() by the min")]
    fn drive_chunk(
        simulator: &mut HybridSimulator,
        warmup: usize,
        position: &mut usize,
        chunk: &[PageAccess],
    ) {
        let mut slice = chunk;
        if *position < warmup {
            let take = (warmup - *position).min(slice.len());
            simulator.run_slice_batched(&slice[..take]);
            *position += take;
            slice = &slice[take..];
            if *position == warmup {
                simulator.reset_accounting();
            }
        }
        if !slice.is_empty() {
            simulator.run_slice_batched(slice);
            *position += slice.len();
        }
    }

    /// Replays the cell's trace straight out of the generator in
    /// [`HybridSimulator::BATCH_RECORDS`]-access chunks, never holding more
    /// than one chunk resident.
    fn replay_generator(&self, simulator: &mut HybridSimulator, spec: &WorkloadSpec) {
        let warmup = self.warmup_len(spec);
        let mut position = 0usize;
        let mut source = TraceGenerator::new(spec.clone(), self.seed).map(PageAccess::from);
        let mut buf: Vec<PageAccess> = Vec::with_capacity(HybridSimulator::BATCH_RECORDS);
        loop {
            buf.clear();
            buf.extend(source.by_ref().take(HybridSimulator::BATCH_RECORDS));
            if buf.is_empty() {
                break;
            }
            Self::drive_chunk(simulator, warmup, &mut position, &buf);
        }
    }

    /// Replays an oversize trace from a verified binary spill stream in
    /// fixed-size chunks (see [`TraceCache::open_stream`]).
    ///
    /// # Errors
    ///
    /// Propagates a truncated or corrupted spill body as
    /// [`Error::ParseTrace`] — the file's header was verified at open, so
    /// mid-stream damage means the file changed underneath us.
    fn replay_stream<R: std::io::Read>(
        &self,
        simulator: &mut HybridSimulator,
        spec: &WorkloadSpec,
        mut stream: BinTraceStream<R>,
    ) -> Result<()> {
        let warmup = self.warmup_len(spec);
        let mut position = 0usize;
        let mut buf: Vec<PageAccess> = Vec::new();
        while let Some(chunk) = stream.next_chunk()? {
            buf.clear();
            buf.extend(chunk.iter().map(|record| record.access()));
            Self::drive_chunk(simulator, warmup, &mut position, &buf);
        }
        Ok(())
    }

    /// Runs one `(workload, policy)` cell: generates the trace, simulates,
    /// and returns the report.
    ///
    /// Streams the trace straight out of the generator without
    /// materializing it; see [`ExperimentConfig::run_cached`] for the
    /// shared-trace variant.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the workload or derived
    /// configuration is invalid.
    pub fn run(&self, spec: &WorkloadSpec, kind: PolicyKind) -> Result<SimulationReport> {
        let cell = Instrumentation::default();
        self.run_cell_driver(spec, kind, TraceSource::Generate, cell, None, 0, None)
            .map(|run| run.report)
            .map_err(|failure| failure.error)
    }

    /// Runs one cell against a trace shared through `cache`, so sibling
    /// cells (other policies on the same workload, other sweep points on
    /// the same trace) replay the identical buffer instead of regenerating
    /// it.
    ///
    /// Produces a report byte-identical to [`ExperimentConfig::run`]: the
    /// generator is deterministic, so materializing the trace first changes
    /// only where the accesses come from, not what they are. Falls back to
    /// the streaming path when the trace alone would exceed the cache
    /// budget (full-scale uncapped workloads).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the workload or derived
    /// configuration is invalid.
    pub fn run_cached(
        &self,
        spec: &WorkloadSpec,
        kind: PolicyKind,
        cache: &TraceCache,
    ) -> Result<SimulationReport> {
        let cell = Instrumentation::default();
        self.run_cell_driver(spec, kind, TraceSource::Cache(cache), cell, None, 0, None)
            .map(|run| run.report)
            .map_err(|failure| failure.error)
    }

    /// The cell driver behind every runner: replays the cell's trace from
    /// `source` under one [`CellSink`] running the requested analyses,
    /// optionally reporting spans to `profiler` on lane `lane`, with an
    /// optional armed panic tripwire (`cell-panic-at` fault injection).
    ///
    /// The sink is installed *before* warmup so occupancy tracks the true
    /// resident set; window, ledger and audit boundaries are trace
    /// positions, so a cell's outputs never depend on how the matrix
    /// around it is scheduled. Empty instrumentation without a tripwire
    /// installs no sink at all — instrumentation that is not requested
    /// costs nothing.
    ///
    /// The replay runs under `catch_unwind` while this driver still owns
    /// the simulator and its sink, so a failing cell's black box survives:
    /// a panic is re-raised with it in a [`CellPanic`] payload (or as it
    /// was, when no flight recorder rides the cell), an error returns it
    /// in the [`CellFailure`].
    #[expect(
        clippy::too_many_arguments,
        reason = "every argument is a per-cell input that its callers set independently"
    )]
    pub(crate) fn run_cell_driver(
        &self,
        spec: &WorkloadSpec,
        kind: PolicyKind,
        source: TraceSource<'_>,
        instrumentation: Instrumentation,
        profiler: Option<&SpanProfiler>,
        lane: u64,
        panic_at: Option<u64>,
    ) -> std::result::Result<InstrumentedRun, CellFailure> {
        self.validate_cell(spec)?;
        let span = |cat: &'static str, name: String| profiler.map(|p| p.span(cat, name, lane));
        let cached = match source {
            TraceSource::Cache(cache) => {
                let _span = span("trace", format!("materialize {}", spec.name));
                cache.try_get(spec, self.seed)
            }
            TraceSource::Generate | TraceSource::Recorded(_) => None,
        };
        let trace = match source {
            TraceSource::Recorded(trace) => Some(trace),
            TraceSource::Generate | TraceSource::Cache(_) => cached.as_deref(),
        };
        let nominal = !matches!(source, TraceSource::Recorded(_));
        let mut simulator = self.build_simulator(kind, spec, nominal)?;
        let warmup = self.warmup_len(spec);
        if !instrumentation.is_empty() || panic_at.is_some() {
            let context = CellContext {
                panic_at,
                ..CellContext::new(spec.name.clone(), kind, &simulator, warmup as u64)
            };
            simulator.set_event_sink(Box::new(CellSink::new(instrumentation, context)));
        }
        let cell = format!("{}/{}", spec.name, kind.name());
        let replay = std::panic::catch_unwind(AssertUnwindSafe(|| -> Result<()> {
            match trace {
                Some(trace) => {
                    let warmup = warmup.min(trace.len());
                    {
                        let _span = span("simulate", format!("warmup {cell}"));
                        #[expect(
                            clippy::indexing_slicing,
                            reason = "warmup <= trace.len() by the min"
                        )]
                        simulator.run_slice_batched(&trace[..warmup]);
                    }
                    simulator.reset_accounting();
                    let _span = span("simulate", format!("measure {cell}"));
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "warmup <= trace.len() by the min"
                    )]
                    simulator.run_slice_batched(&trace[warmup..]);
                }
                None => {
                    // Oversize or uncached trace: prefer the cache's binary
                    // spill stream; warmup and measurement interleave inside
                    // one chunked pass, so a single span covers both.
                    let stream = match source {
                        TraceSource::Cache(cache) => {
                            let _span = span("trace", format!("spill {}", spec.name));
                            cache.open_stream(spec, self.seed)
                        }
                        TraceSource::Generate | TraceSource::Recorded(_) => None,
                    };
                    let _span = span("simulate", format!("measure {cell}"));
                    match stream {
                        Some(stream) => self.replay_stream(&mut simulator, spec, stream)?,
                        None => self.replay_generator(&mut simulator, spec),
                    }
                }
            }
            Ok(())
        }));
        let mut black_box = |trigger: &str, error: String| {
            let cell = simulator.event_sink_mut().and_then(CellSink::of)?;
            cell.black_box(trigger, Some(error)).map(Box::new)
        };
        match replay {
            Ok(Ok(())) => {}
            Ok(Err(error)) => {
                let flight = black_box("error", error.to_string());
                return Err(CellFailure { error, flight });
            }
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                let Some(flight) = black_box("panic", message.clone()) else {
                    std::panic::resume_unwind(payload);
                };
                std::panic::resume_unwind(Box::new(CellPanic { message, flight }));
            }
        }
        let _span = span("finish", format!("finish {cell}"));
        if instrumentation.is_empty() {
            return Ok(InstrumentedRun::bare(
                simulator.into_report(spec.name.clone()),
            ));
        }
        let lost = || Error::invalid_input("instrumented run lost its cell sink");
        let mut sink = simulator.take_event_sink().ok_or_else(lost)?;
        Ok(CellSink::of(sink.as_mut())
            .ok_or_else(lost)?
            .finish(simulator))
    }

    /// Runs several policies over the *same* trace (same seed), returning
    /// reports in the order given. The trace is materialized once in the
    /// process-wide [`TraceCache`] and shared across the policies (and any
    /// later run touching the same `(spec, seed)`).
    ///
    /// # Errors
    ///
    /// Propagates the first failing run.
    pub fn compare(
        &self,
        spec: &WorkloadSpec,
        kinds: &[PolicyKind],
    ) -> Result<Vec<SimulationReport>> {
        let cache = TraceCache::global();
        kinds
            .iter()
            .map(|&kind| self.run_cached(spec, kind, cache))
            .collect()
    }
}

impl Default for ExperimentConfig {
    /// Defaults to [`ExperimentConfig::date2016`].
    fn default() -> Self {
        Self::date2016()
    }
}

/// Which analyses a cell's [`CellSink`] runs. The default runs none —
/// and an empty instrumentation installs no sink at all, so the
/// simulator hot path is untouched when telemetry is not requested.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Instrumentation {
    /// Interval metrics with this window width in demand accesses (0 =
    /// one whole-run window). `None` = no interval metrics.
    pub window: Option<u64>,
    /// A page ledger with these retention options. `None` = no ledger.
    pub ledger: Option<LedgerOptions>,
    /// The run-health audit. Its capacities, warmup and residency mode
    /// come from the cell.
    pub audit: bool,
    /// A black-box flight recorder retaining this many events (0 is
    /// clamped to 1). `None` = no flight recording.
    pub flight: Option<usize>,
}

impl Instrumentation {
    /// Interval metrics only, one record every `window` accesses.
    #[must_use]
    pub fn windowed(window: u64) -> Self {
        Self {
            window: Some(window),
            ..Self::default()
        }
    }

    /// Adds a page ledger with the given retention options.
    #[must_use]
    pub fn with_ledger(mut self, options: LedgerOptions) -> Self {
        self.ledger = Some(options);
        self
    }

    /// Adds the run-health audit.
    #[must_use]
    pub fn with_audit(mut self) -> Self {
        self.audit = true;
        self
    }

    /// Adds a black-box flight recorder retaining the last `events`
    /// events.
    #[must_use]
    pub fn with_flight(mut self, events: usize) -> Self {
        self.flight = Some(events);
        self
    }

    /// True when nothing is attached (no sink will be allocated).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.window.is_none() && self.ledger.is_none() && !self.audit && self.flight.is_none()
    }
}

/// One cell's outputs under [`Instrumentation`]: always the report;
/// interval records and metrics when a window was requested (empty
/// otherwise); a ledger report when a ledger was requested.
#[derive(Debug, Clone, PartialEq)]
pub struct InstrumentedRun {
    /// The deterministic simulation report.
    pub report: SimulationReport,
    /// Per-window interval records (empty without a window).
    pub records: Vec<IntervalRecord>,
    /// The cell's metrics snapshot (empty without a window).
    pub metrics: MetricsSnapshot,
    /// The page ledger's report, when one was attached.
    pub ledger: Option<LedgerReport>,
    /// The run-health audit's report, when an audit was attached.
    pub audit: Option<AuditReport>,
    /// The black-box flight dump, when a recorder was attached. Trigger
    /// `"completed"` for a clean run, `"audit-violation"` when an
    /// attached audit found the run unclean.
    pub flight: Option<FlightRecord>,
}

impl InstrumentedRun {
    /// A run that carries only its report: no sink rode the cell, or the
    /// report was replayed from a resume journal.
    pub(crate) fn bare(report: SimulationReport) -> Self {
        Self {
            report,
            records: Vec::new(),
            metrics: MetricsSnapshot::default(),
            ledger: None,
            audit: None,
            flight: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridmem_trace::LocalityParams;

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec::new("test", 200, 20_000, 5_000, LocalityParams::balanced()).unwrap()
    }

    /// Runs one cell over `cache` with `instrumentation` attached.
    fn instrumented(
        config: &ExperimentConfig,
        spec: &WorkloadSpec,
        kind: PolicyKind,
        cache: &TraceCache,
        instrumentation: Instrumentation,
    ) -> InstrumentedRun {
        config
            .run_cell_driver(
                spec,
                kind,
                TraceSource::Cache(cache),
                instrumentation,
                None,
                0,
                None,
            )
            .unwrap()
    }

    #[test]
    fn memory_sizes_follow_the_paper_ratios() {
        let config = ExperimentConfig::date2016();
        let spec = small_spec();
        let (dram, nvm, total) = config.memory_sizes(&spec);
        assert_eq!(total, PageCount::new(150)); // 75% of 200
        assert_eq!(dram, PageCount::new(15)); // 10% of 150
        assert_eq!(nvm, PageCount::new(135));
        assert_eq!(dram + nvm, total);
    }

    #[test]
    fn tiny_workloads_get_at_least_one_page_each() {
        let config = ExperimentConfig::date2016();
        let spec = WorkloadSpec::new("tiny", 2, 10, 0, LocalityParams::balanced()).unwrap();
        let (dram, nvm, _) = config.memory_sizes(&spec);
        assert!(dram.value() >= 1);
        assert!(nvm.value() >= 1);
    }

    #[test]
    fn run_produces_consistent_reports_for_all_policies() {
        let config = ExperimentConfig::date2016();
        let spec = small_spec();
        let warmup = (spec.total_accesses() as f64 * config.warmup_fraction) as u64;
        for kind in PolicyKind::all() {
            let report = config.run(&spec, kind).unwrap();
            assert_eq!(report.policy, kind.name(), "{kind}");
            assert_eq!(report.counts.requests, spec.total_accesses() - warmup);
            assert_eq!(
                report.counts.hits() + report.counts.faults,
                report.counts.requests
            );
            assert!(report.amat().value() > 0.0);
            assert!(report.appr().value() > 0.0);
        }
    }

    #[test]
    fn same_seed_same_report() {
        let config = ExperimentConfig::date2016();
        let spec = small_spec();
        let a = config.run(&spec, PolicyKind::TwoLru).unwrap();
        let b = config.run(&spec, PolicyKind::TwoLru).unwrap();
        assert_eq!(a, b);
        let different = ExperimentConfig { seed: 43, ..config }
            .run(&spec, PolicyKind::TwoLru)
            .unwrap();
        assert_ne!(a, different);
    }

    #[test]
    fn dram_only_has_no_nvm_and_no_migrations() {
        let report = ExperimentConfig::date2016()
            .run(&small_spec(), PolicyKind::DramOnly)
            .unwrap();
        assert_eq!(report.nvm_pages, 0);
        assert_eq!(report.counts.migrations(), 0);
        assert_eq!(report.nvm_writes.total(), 0);
    }

    #[test]
    fn compare_runs_in_order() {
        let config = ExperimentConfig::date2016();
        let reports = config
            .compare(&small_spec(), &[PolicyKind::ClockDwf, PolicyKind::TwoLru])
            .unwrap();
        assert_eq!(reports[0].policy, "clock-dwf");
        assert_eq!(reports[1].policy, "two-lru");
    }

    #[test]
    fn cached_run_matches_streaming_run() {
        let config = ExperimentConfig::date2016();
        let spec = small_spec();
        let cache = TraceCache::new(64 << 20);
        for kind in PolicyKind::all() {
            let streamed = config.run(&spec, kind).unwrap();
            let cached = config.run_cached(&spec, kind, &cache).unwrap();
            assert_eq!(streamed, cached, "{kind}");
        }
        assert_eq!(cache.len(), 1, "seven policies shared one trace");
    }

    #[test]
    fn sparse_page_ids_give_the_same_report_for_every_policy() {
        // Imported traces number pages by `address / 4096`, far past the
        // policy tables' and the footprint set's dense bound. Shifted
        // there, a trace must report exactly what the dense original does.
        let config = ExperimentConfig::date2016();
        let spec = hybridmem_trace::parsec::spec("canneal")
            .unwrap()
            .capped(12_000);
        let dense: Vec<PageAccess> = TraceGenerator::new(spec.clone(), config.seed)
            .map(PageAccess::from)
            .collect();
        let sparse: Vec<PageAccess> = dense
            .iter()
            .map(|a| {
                PageAccess::new(
                    hybridmem_types::PageId::new(a.page.value() + (1 << 40)),
                    a.kind,
                )
            })
            .collect();
        let warmup = config.warmup_len(&spec);
        for kind in PolicyKind::all() {
            let [want, got] = [&dense, &sparse].map(|trace| {
                let policy = config.build_policy(kind, &spec).unwrap();
                let mut sim = HybridSimulator::with_date2016_devices(policy);
                sim.run_slice_batched(&trace[..warmup]);
                sim.reset_accounting();
                sim.run_slice_batched(&trace[warmup..]);
                hybridmem_json::to_string(&sim.into_report(spec.name.clone()))
            });
            assert_eq!(got, want, "{kind}");
        }
    }

    #[test]
    fn batched_cells_equal_a_serial_replay_for_every_policy() {
        // The cell driver replays through `run_slice_batched`; each
        // policy's report must match a per-access `run_slice` replay of the
        // same trace, with the same warmup, static scale and density hint.
        let config = ExperimentConfig::date2016();
        let spec = WorkloadSpec::new("scaled", 4_000, 20_000, 5_000, LocalityParams::balanced())
            .unwrap()
            .capped(12_000);
        assert!(spec.scale_factor() < 1.0, "the static scale is exercised");
        let cache = TraceCache::new(64 << 20);
        let trace: Vec<PageAccess> = TraceGenerator::new(spec.clone(), config.seed)
            .map(PageAccess::from)
            .collect();
        let warmup = config.warmup_len(&spec);
        for kind in PolicyKind::all() {
            let policy = config.build_policy(kind, &spec).unwrap();
            let mut serial = HybridSimulator::with_date2016_devices(policy);
            serial.set_static_scale(1.0 / spec.scale_factor());
            serial.set_density_hint(spec.nominal_density());
            serial.run_slice(&trace[..warmup]);
            serial.reset_accounting();
            serial.run_slice(&trace[warmup..]);
            assert_eq!(
                config.run_cached(&spec, kind, &cache).unwrap(),
                serial.into_report(spec.name.clone()),
                "{kind}"
            );
        }
    }

    #[test]
    fn oversized_trace_falls_back_to_streaming() {
        let config = ExperimentConfig::date2016();
        let spec = small_spec();
        let tiny_cache = TraceCache::new(16);
        let report = config
            .run_cached(&spec, PolicyKind::TwoLru, &tiny_cache)
            .unwrap();
        assert!(tiny_cache.is_empty());
        assert_eq!(report, config.run(&spec, PolicyKind::TwoLru).unwrap());
    }

    #[test]
    fn oversized_cell_replays_from_a_spill_stream() {
        let dir =
            std::env::temp_dir().join(format!("hybridmem-exp-spill-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A 16-byte budget makes every trace oversize, forcing the
        // spill-stream path on each run.
        let cache = TraceCache::with_spill_dir(16, &dir);
        let config = ExperimentConfig::date2016();
        let spec = small_spec();
        let first = config
            .run_cached(&spec, PolicyKind::TwoLru, &cache)
            .unwrap();
        assert_eq!(first, config.run(&spec, PolicyKind::TwoLru).unwrap());
        assert_eq!(cache.stats().spill_misses, 1, "first run wrote the spill");
        let second = config
            .run_cached(&spec, PolicyKind::TwoLru, &cache)
            .unwrap();
        assert_eq!(first, second);
        assert!(cache.is_empty(), "streaming never materializes");
        assert_eq!(cache.stats().spill_hits, 1, "second run replayed the file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn policy_kind_names_are_stable() {
        assert_eq!(PolicyKind::TwoLru.to_string(), "two-lru");
        assert_eq!(PolicyKind::all().len(), 7);
    }

    #[test]
    fn windowed_run_report_matches_plain_run() {
        let config = ExperimentConfig::date2016();
        let spec = small_spec();
        let cache = TraceCache::new(64 << 20);
        let observed = instrumented(
            &config,
            &spec,
            PolicyKind::TwoLru,
            &cache,
            Instrumentation::windowed(1_000),
        );
        let plain = config.run(&spec, PolicyKind::TwoLru).unwrap();
        assert_eq!(observed.report, plain, "observation must not perturb");
        let windowed_accesses: u64 = observed.records.iter().map(|r| r.accesses).sum();
        assert_eq!(windowed_accesses, plain.counts.requests);
        assert_eq!(
            observed.metrics.counters["sim.accesses"],
            plain.counts.requests
        );
        assert!(
            observed
                .metrics
                .counters
                .contains_key("two_lru.read_promotions")
                && observed
                    .metrics
                    .gauges
                    .contains_key("two_lru.tracked_pages"),
            "two-LRU window stats are folded into the cell metrics"
        );
    }

    #[test]
    fn windowed_cells_do_not_depend_on_the_trace_source() {
        let config = ExperimentConfig::date2016();
        let spec = small_spec();
        let window = Instrumentation::windowed(500);
        let run = |source| {
            let kind = PolicyKind::ClockDwf;
            let cell = config.run_cell_driver(&spec, kind, source, window, None, 0, None);
            cell.unwrap()
        };
        let streamed = run(TraceSource::Generate);
        assert!(!streamed.records.is_empty());
        let cache = TraceCache::new(64 << 20);
        assert_eq!(run(TraceSource::Cache(&cache)), streamed);
        // A 16-byte budget refuses the trace: the cell streams instead.
        assert_eq!(run(TraceSource::Cache(&TraceCache::new(16))), streamed);
    }

    #[test]
    fn recorded_trace_prices_its_measured_footprint() {
        // A one-page trace described by a two-page spec (every memory
        // needs at least two pages): the nominal density hint would price
        // two pages of duration, the recording prices the one it touched.
        let spec = WorkloadSpec::new("one-page", 2, 3, 0, LocalityParams::balanced()).unwrap();
        let config = ExperimentConfig {
            warmup_fraction: 0.0,
            ..ExperimentConfig::date2016()
        };
        let page = PageAccess::read(hybridmem_types::PageId::new(7));
        let trace = [page, page, page];
        let recorded = config
            .run_cell_driver(
                &spec,
                PolicyKind::TwoLru,
                TraceSource::Recorded(&trace),
                Instrumentation::default(),
                None,
                0,
                None,
            )
            .unwrap()
            .report;
        let policy = config.build_policy(PolicyKind::TwoLru, &spec).unwrap();
        let mut oracle = HybridSimulator::with_date2016_devices(policy);
        oracle.run_slice(&trace);
        assert_eq!(recorded, oracle.into_report("one-page"));
    }

    #[test]
    fn empty_instrumentation_matches_plain_run_and_carries_nothing() {
        let config = ExperimentConfig::date2016();
        let spec = small_spec();
        let cache = TraceCache::new(64 << 20);
        let run = instrumented(
            &config,
            &spec,
            PolicyKind::TwoLru,
            &cache,
            Instrumentation::default(),
        );
        let plain = config
            .run_cached(&spec, PolicyKind::TwoLru, &cache)
            .unwrap();
        assert_eq!(run, InstrumentedRun::bare(plain));
    }

    #[test]
    fn flight_instrumentation_does_not_perturb_and_captures_the_black_box() {
        let config = ExperimentConfig::date2016();
        let spec = small_spec();
        let cache = TraceCache::new(64 << 20);
        let instrumentation = Instrumentation::default().with_flight(64);
        let run = instrumented(&config, &spec, PolicyKind::TwoLru, &cache, instrumentation);
        let plain = config
            .run_cached(&spec, PolicyKind::TwoLru, &cache)
            .unwrap();
        assert_eq!(run.report, plain, "the recorder must not perturb results");
        let flight = run.flight.expect("a flight record was requested");
        assert_eq!(flight.trigger, "completed");
        assert_eq!(flight.workload, spec.name);
        assert_eq!(flight.policy, "two-lru");
        assert_eq!(
            flight.accesses,
            spec.total_accesses(),
            "warmup demand accesses are recorded too"
        );
        assert_eq!(flight.final_access, spec.total_accesses() - 1);
        assert_eq!(flight.events.len(), 64, "the ring is full on a long run");
        assert!(flight.events_dropped > 0);
        assert!(
            flight.two_lru_read_window_pages.is_some(),
            "counter-window policies report their window size"
        );
        // The recorder's own occupancy reconstruction must agree with
        // the engine's accounting at the end of the run.
        assert!(flight.dram_resident <= flight.dram_capacity);
        assert!(flight.nvm_resident <= flight.nvm_capacity);
    }

    #[test]
    fn ledger_instrumentation_does_not_perturb_and_attributes_promotions() {
        let config = ExperimentConfig::date2016();
        let spec = small_spec();
        let cache = TraceCache::new(64 << 20);
        let instrumentation =
            Instrumentation::default().with_ledger(crate::LedgerOptions::default());
        let run = instrumented(&config, &spec, PolicyKind::TwoLru, &cache, instrumentation);
        let plain = config.run(&spec, PolicyKind::TwoLru).unwrap();
        assert_eq!(run.report, plain, "the ledger must not perturb results");
        let ledger = run.ledger.expect("a ledger report was requested");
        assert_eq!(ledger.workload, spec.name);
        assert_eq!(ledger.policy, "two-lru");
        assert_eq!(ledger.accesses, spec.total_accesses());
        // Every two-LRU promotion is probe-attributed — none slip through
        // as unattributed.
        assert_eq!(ledger.summary.promotions_unattributed, 0);
        assert!(
            ledger.summary.promotions_read + ledger.summary.promotions_write
                >= plain.counts.migrations_to_dram,
            "ledger sees warmup promotions too"
        );
    }

    #[test]
    fn full_instrumentation_combines_collector_and_ledger() {
        let config = ExperimentConfig::date2016();
        let spec = small_spec();
        let cache = TraceCache::new(64 << 20);
        let run = |instrumentation| {
            instrumented(&config, &spec, PolicyKind::TwoLru, &cache, instrumentation)
        };
        let ledger = crate::LedgerOptions::default();
        let both = run(Instrumentation::windowed(1_000).with_ledger(ledger));
        let observed = run(Instrumentation::windowed(1_000));
        assert_eq!(both.report, observed.report);
        assert_eq!(both.records, observed.records);
        assert_eq!(both.metrics, observed.metrics);
        let ledger_only = run(Instrumentation::default().with_ledger(ledger));
        assert_eq!(
            both.ledger, ledger_only.ledger,
            "the ledger is independent of the collector riding along"
        );
    }

    #[test]
    fn audit_instrumentation_does_not_perturb_reports() {
        // No warmup, so the audit (which sees every access) and the
        // report (which starts after warmup) count the same faults.
        let config = ExperimentConfig {
            warmup_fraction: 0.0,
            ..ExperimentConfig::date2016()
        };
        let spec = small_spec();
        let cache = TraceCache::new(64 << 20);
        let audited = instrumented(
            &config,
            &spec,
            PolicyKind::TwoLru,
            &cache,
            Instrumentation::default().with_audit(),
        );
        let plain = config
            .run_cached(&spec, PolicyKind::TwoLru, &cache)
            .unwrap();
        assert_eq!(audited.report, plain, "the audit must not perturb results");
        assert!(audited.records.is_empty(), "no window was requested");
        assert!(audited.ledger.is_none(), "no ledger was requested");
        let report = audited.audit.expect("an audit report was requested");
        assert!(report.clean, "{:?}", report.violations);
        assert_eq!(report.faults, plain.counts.faults);
    }
}
