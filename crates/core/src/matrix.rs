//! The one runner for the evaluation matrix.
//!
//! The paper's evaluation is one matrix: every workload under every
//! policy (Section V, Figs. 1–4). [`MatrixRun`] executes it for every
//! front end — `hybridmem compare` and `simulate` over a decoded trace
//! file, `ledger` and `trace-page` over one generated cell, and the figure
//! regenerators over all twelve PARSEC profiles. Every cell runs the same
//! cell driver under the same isolation wrapper, so a fault plan, a resume
//! journal, a flight recorder or a flag error behaves the same whichever
//! front end asked for it.
//!
//! Front ends parse the flags they share with [`MatrixRun::from_flags`]
//! (or start from [`MatrixRun::new`]) and write what those flags ask for
//! with [`MatrixRun::write_artifacts`]. Both constructors read the fault
//! plan in `HYBRIDMEM_FAULT_PLAN`, so no matrix can miss it.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use hybridmem_json::FromJson;
use hybridmem_metrics::SpanProfiler;
use hybridmem_trace::WorkloadSpec;
use hybridmem_types::{fx_hash_one, Error, PageAccess, Result};

use crate::experiments::TraceSource;
use crate::health::run_isolated;
use crate::{
    write_audit_json, write_flight_json, write_jsonl, write_ledger_jsonl, write_matrix_health_json,
    AuditMatrixReport, CellFailure, CellOutcome, CellStatus, ExperimentConfig, FaultPlan,
    FlightMatrixReport, FlightRecord, Instrumentation, InstrumentedRun, LedgerOptions,
    MatrixHealthReport, PolicyKind, RunJournal, SimulationReport, TraceCache,
};

/// Where [`MatrixRun::write_artifacts`] writes each artifact; `None`
/// skips it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MatrixOutputs {
    /// Interval records as JSON Lines (`--metrics-out`).
    pub metrics: Option<PathBuf>,
    /// Page-ledger reports as JSON Lines (`--ledger-out`).
    pub ledger: Option<PathBuf>,
    /// Chrome trace-event span profile (`--profile-out`); also makes the
    /// run record one.
    pub profile: Option<PathBuf>,
    /// The `hybridmem-audit-v1` report (`--audit-out`).
    pub audit: Option<PathBuf>,
    /// The `hybridmem-flight-v1` dump (`--flight-out`).
    pub flight: Option<PathBuf>,
    /// The `hybridmem-matrix-health-v1` report (`hybridmem compare
    /// --health-out`).
    pub health: Option<PathBuf>,
}

/// One evaluation matrix, ready to run: the configuration every cell
/// shares, the worker pool, the analyses each cell's sink runs, the resume
/// journal, the fault plan and the artifact paths.
///
/// Every cell runs isolated: a panicking cell is retried, then
/// quarantined as a [`CellOutcome::Failed`] while every other cell
/// completes. The cell outcomes and the health report carry no
/// wall-clock fields, so they are byte-identical at any thread count;
/// only [`MatrixTiming`] and the span profile vary.
///
/// # Examples
///
/// ```
/// use hybridmem_core::{ExperimentConfig, MatrixRun, PolicyKind};
/// use hybridmem_trace::parsec;
///
/// let specs: Vec<_> = ["bodytrack", "raytrace"]
///     .iter()
///     .map(|n| parsec::spec(n).map(|s| s.capped(2_000)))
///     .collect::<Result<_, _>>()?;
/// let rows = MatrixRun::new(ExperimentConfig::date2016())?
///     .run(&specs, &[PolicyKind::TwoLru, PolicyKind::DramOnly])?
///     .reports()?;
/// assert_eq!(rows.len(), 2);
/// assert_eq!(rows[0].len(), 2);
/// # Ok::<(), hybridmem_types::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct MatrixRun {
    /// The configuration every cell runs under.
    pub config: ExperimentConfig,
    /// Worker threads; `0` selects `available_parallelism()`. Never more
    /// workers than cells are spawned.
    pub threads: usize,
    /// The analyses every freshly simulated cell's [`CellSink`](crate::CellSink) runs.
    pub instrumentation: Instrumentation,
    /// Journal completed cells here (fsynced, checksummed) and replay the
    /// cells it already holds instead of re-running them. Replayed cells
    /// carry their report only — no records, ledger, audit or black box.
    pub resume: Option<PathBuf>,
    /// Scripted faults: `cell-panic` kills whole attempts, `cell-panic-at`
    /// arms a tripwire so the cell dies at an exact demand access, with
    /// any flight ring stopping strictly before it.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Where [`MatrixRun::write_artifacts`] writes.
    pub outputs: MatrixOutputs,
}

impl MatrixRun {
    /// The flags [`MatrixRun::from_flags`] reads, without their `--`.
    pub const FLAGS: [&'static str; 10] = [
        "threads",
        "metrics-out",
        "metrics-window",
        "ledger-out",
        "ledger-top",
        "profile-out",
        "audit-out",
        "flight-out",
        "flight-events",
        "resume",
    ];

    /// A plain run of `config` under the fault plan in
    /// `HYBRIDMEM_FAULT_PLAN`, if one is set: automatic thread count, no
    /// instrumentation, no journal, no artifacts.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] for a malformed fault plan.
    pub fn new(config: ExperimentConfig) -> Result<Self> {
        Ok(Self {
            config,
            threads: 0,
            instrumentation: Instrumentation::default(),
            resume: None,
            fault_plan: FaultPlan::from_env()?.map(Arc::new),
            outputs: MatrixOutputs::default(),
        })
    }

    /// Builds a run of `config` from the matrix flags every front end
    /// shares ([`MatrixRun::FLAGS`]); `flag(name)` returns the value given
    /// for `--name`. Each output flag turns its analysis on: `--metrics-out`
    /// a collector of `--metrics-window` accesses per window (default
    /// 10 000), `--ledger-out` a ledger keeping the top `--ledger-top`
    /// pages (default 64), `--audit-out` the run-health audit,
    /// `--flight-out` a recorder of `--flight-events` events (default
    /// 256). The fault plan comes from `HYBRIDMEM_FAULT_PLAN`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] naming the flag for a malformed or
    /// zero-valued number, for `--resume` combined with a streaming
    /// output, and for a malformed fault plan.
    pub fn from_flags<'a>(
        config: ExperimentConfig,
        flag: impl Fn(&str) -> Option<&'a str>,
    ) -> Result<Self> {
        let path = |name: &str| flag(name).map(PathBuf::from);
        let outputs = MatrixOutputs {
            metrics: path("metrics-out"),
            ledger: path("ledger-out"),
            profile: path("profile-out"),
            audit: path("audit-out"),
            flight: path("flight-out"),
            health: None,
        };
        let window: u64 = positive_flag(
            "metrics-window",
            flag("metrics-window"),
            10_000,
            "be at least 1 access per window",
        )?;
        let top_k = positive_flag(
            "ledger-top",
            flag("ledger-top"),
            64,
            "retain at least 1 page",
        )?;
        let events = positive_flag(
            "flight-events",
            flag("flight-events"),
            256,
            "retain at least 1 event",
        )?;
        let resume = path("resume");
        // --flight-out is exempt: journaled cells simply carry no black
        // box, and CI's chaos job combines the two to dump the cells that
        // still fail.
        let streams = [
            ("metrics-out", &outputs.metrics),
            ("ledger-out", &outputs.ledger),
            ("profile-out", &outputs.profile),
            ("audit-out", &outputs.audit),
        ];
        if let (Some(_), Some((name, _))) = (&resume, streams.iter().find(|(_, p)| p.is_some())) {
            return Err(Error::invalid_input(format!(
                "--resume cannot be combined with --{name}: journaled cells replay their \
                 reports without re-running, so instrumentation streams would be incomplete"
            )));
        }
        let instrumentation = Instrumentation {
            window: outputs.metrics.as_ref().map(|_| window),
            ledger: outputs.ledger.as_ref().map(|_| LedgerOptions {
                top_k,
                ..LedgerOptions::default()
            }),
            audit: outputs.audit.is_some(),
            flight: outputs.flight.as_ref().map(|_| events),
        };
        Ok(Self {
            threads: parse_flag("threads", flag("threads"), 0)?,
            instrumentation,
            resume,
            outputs,
            ..Self::new(config)?
        })
    }

    /// Runs every `kinds` policy over every workload in `specs`, sharing
    /// each trace through the process-wide [`TraceCache`].
    ///
    /// # Errors
    ///
    /// Returns the journal's error when `resume` cannot be opened (I/O,
    /// or a journal written for a different matrix). Cell failures never
    /// fail the run; they are quarantined into the outcome.
    pub fn run(&self, specs: &[WorkloadSpec], kinds: &[PolicyKind]) -> Result<MatrixOutcome> {
        self.run_source(specs, kinds, TraceSource::Cache(TraceCache::global()))
    }

    /// Runs every cell straight out of the trace generator: no trace is
    /// materialized, cached or spilled, so memory stays flat however long
    /// the trace. For matrices that replay each trace once, where sharing
    /// through the cache would only cost memory and disk.
    ///
    /// # Errors
    ///
    /// As [`MatrixRun::run`].
    pub fn run_streamed(
        &self,
        specs: &[WorkloadSpec],
        kinds: &[PolicyKind],
    ) -> Result<MatrixOutcome> {
        self.run_source(specs, kinds, TraceSource::Generate)
    }

    /// Runs `kinds` over a caller's recorded `trace`, described by `spec`
    /// (which names the cells and sizes their memory). A recording is not
    /// a function of `(spec, seed)`, so it never enters a cache, and each
    /// report prices the trace's measured footprint.
    ///
    /// # Errors
    ///
    /// As [`MatrixRun::run`].
    pub fn run_trace(
        &self,
        spec: &WorkloadSpec,
        trace: &[PageAccess],
        kinds: &[PolicyKind],
    ) -> Result<MatrixOutcome> {
        self.run_source(
            std::slice::from_ref(spec),
            kinds,
            TraceSource::Recorded(trace),
        )
    }

    fn run_source(
        &self,
        specs: &[WorkloadSpec],
        kinds: &[PolicyKind],
        source: TraceSource<'_>,
    ) -> Result<MatrixOutcome> {
        let journal = self
            .resume
            .as_ref()
            .map(|path| RunJournal::open(path, matrix_fingerprint(specs, kinds, &self.config)))
            .transpose()?;
        let plan = self.fault_plan.as_deref();
        let profiler = self.outputs.profile.as_ref().map(|_| SpanProfiler::new());
        let (cells, timing) = {
            let _span = profiler.as_ref().map(|p| {
                let name = format!("matrix {}x{}", specs.len(), kinds.len());
                p.span("scheduler", name, 0)
            });
            run_cells(specs, kinds, self.threads, |spec, kind, worker| {
                let (workload, policy) = (spec.name.as_str(), kind.name());
                let lane = worker as u64 + 1;
                let _span = profiler
                    .as_ref()
                    .map(|p| p.span("scheduler", format!("cell {workload}/{policy}"), lane));
                if let Some(plan) = plan {
                    plan.fire_cell_panic(workload, policy);
                }
                let journaled = journal
                    .as_ref()
                    .and_then(|j| j.completed_report(workload, policy));
                if let Some(report) = journaled {
                    let report = SimulationReport::from_json(&report).map_err(|e| {
                        Error::invalid_input(format!(
                            "journaled report for {workload}/{policy} does not deserialize: {e}"
                        ))
                    })?;
                    return Ok(InstrumentedRun::bare(report));
                }
                let panic_at = plan.and_then(|plan| plan.cell_panic_access(workload, policy));
                let run = self.config.run_cell_driver(
                    spec,
                    kind,
                    source,
                    self.instrumentation,
                    profiler.as_ref(),
                    lane,
                    panic_at,
                )?;
                if let Some(journal) = &journal {
                    journal.record(workload, policy, &run.report);
                }
                Ok(run)
            })
        };
        let health = specs.iter().zip(&cells).flat_map(|(spec, row)| {
            (kinds.iter().zip(row)).map(|(kind, cell)| cell.health(&spec.name, kind.name()))
        });
        Ok(MatrixOutcome {
            health: MatrixHealthReport::new(health.collect()),
            cells,
            timing,
            profile: profiler,
            torn_journal_bytes: journal.map_or(0, |j| j.torn_tail_bytes()),
        })
    }

    /// Writes every artifact [`MatrixRun::outputs`] names, in a fixed
    /// order — metrics JSONL, ledger JSONL, span profile, flight dump,
    /// then the audit report and its verdict, then health (failed cells
    /// listed on `out`, then the report) — announcing each file on `out`.
    /// The streams cover completed cells in matrix order; the flight dump
    /// also carries every quarantined cell's black box, and lands before
    /// any verdict so a failing run still leaves it behind.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] for an unwritable artifact, or when
    /// the audit found invariant violations (after writing its report).
    pub fn write_artifacts<W: Write>(&self, outcome: &MatrixOutcome, out: &mut W) -> Result<()> {
        let outputs = &self.outputs;
        let io_err = |e: std::io::Error| Error::invalid_input(format!("I/O error: {e}"));
        if outcome.torn_journal_bytes > 0 {
            writeln!(
                out,
                "warning: resume journal had {} byte(s) of torn or corrupt tail truncated; \
                 the cells recorded there will be recomputed",
                outcome.torn_journal_bytes
            )
            .map_err(io_err)?;
        }
        if let Some(path) = &outputs.metrics {
            write_artifact(path, "interval metrics", out, |w| {
                outcome
                    .completed()
                    .try_for_each(|run| write_jsonl(w, &run.records))
            })?;
        }
        if let Some(path) = &outputs.ledger {
            write_artifact(path, "page ledger", out, |w| {
                let mut ledgers = outcome.completed().filter_map(|run| run.ledger.as_ref());
                ledgers.try_for_each(|ledger| write_ledger_jsonl(w, ledger))
            })?;
        }
        if let (Some(path), Some(profiler)) = (&outputs.profile, &outcome.profile) {
            write_artifact(path, "span profile", out, |w| {
                profiler.write_chrome_trace(w)
            })?;
        }
        if let Some(path) = &outputs.flight {
            let dump = FlightMatrixReport::new(outcome.flights());
            write_artifact(path, "flight recorder dump", out, |w| {
                write_flight_json(w, &dump)
            })?;
        }
        if let Some(path) = &outputs.audit {
            let cells = outcome.completed().filter_map(|run| run.audit.clone());
            let audit = AuditMatrixReport::new(cells.collect());
            write_artifact(path, "audit report", out, |w| write_audit_json(w, &audit))?;
            if !audit.clean {
                return Err(Error::invalid_input(format!(
                    "run-health audit found {} invariant violation(s); see {}",
                    audit.total_violations,
                    path.display()
                )));
            }
        }
        let health = &outcome.health;
        for cell in health
            .cells
            .iter()
            .filter(|c| c.status == CellStatus::Failed)
        {
            writeln!(
                out,
                "cell {}/{} failed after {} retries: {}",
                cell.workload,
                cell.policy,
                cell.retries,
                cell.error.as_deref().unwrap_or("unknown error")
            )
            .map_err(io_err)?;
        }
        if let Some(path) = &outputs.health {
            write_artifact(path, "matrix health", out, |w| {
                write_matrix_health_json(w, health)
            })?;
        }
        Ok(())
    }
}

/// Parses the value of `--name`, or returns `default` when absent.
///
/// # Errors
///
/// Returns [`Error::InvalidInput`] naming the flag when the value does
/// not parse.
pub fn parse_flag<T: std::str::FromStr>(name: &str, value: Option<&str>, default: T) -> Result<T> {
    value.map_or(Ok(default), |text| {
        text.parse().map_err(|_| {
            Error::invalid_input(format!("flag --{name} expects a number, got {text:?}"))
        })
    })
}

/// [`parse_flag`] for a retention knob: zero would write a degenerate
/// artifact, so it is rejected with `--name must <rule>`.
///
/// # Errors
///
/// Returns [`Error::InvalidInput`] naming the flag when the value does
/// not parse or is zero.
pub fn positive_flag<T>(name: &str, value: Option<&str>, default: T, rule: &str) -> Result<T>
where
    T: std::str::FromStr + PartialEq + From<u8>,
{
    let parsed = parse_flag(name, value, default)?;
    if parsed == T::from(0) {
        return Err(Error::invalid_input(format!("--{name} must {rule}")));
    }
    Ok(parsed)
}

/// Creates `path`, writes it through `write`, and announces it on `out`.
fn write_artifact<W: Write>(
    path: &Path,
    what: &str,
    out: &mut W,
    write: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> std::io::Result<()>,
) -> Result<()> {
    let file = std::fs::File::create(path)
        .map_err(|e| Error::invalid_input(format!("cannot create {}: {e}", path.display())))?;
    let mut writer = std::io::BufWriter::new(file);
    write(&mut writer)
        .and_then(|()| writer.flush())
        .and_then(|()| writeln!(out, "wrote {what} to {}", path.display()))
        .map_err(|e| Error::invalid_input(format!("write {}: {e}", path.display())))
}

/// What one [`MatrixRun`] produced.
#[derive(Debug)]
pub struct MatrixOutcome {
    /// `cells[spec][kind]`, in the order the run was given.
    pub cells: Vec<Vec<CellOutcome<InstrumentedRun>>>,
    /// Which cells were quarantined or retried
    /// (`hybridmem-matrix-health-v1`).
    pub health: MatrixHealthReport,
    /// Wall-clock scheduler measurements.
    pub timing: MatrixTiming,
    /// The harness span profile, when [`MatrixOutputs::profile`] asked
    /// for one. Wall-clock: never compare it for determinism.
    pub profile: Option<SpanProfiler>,
    /// Bytes of torn or corrupt tail truncated from the resume journal.
    pub torn_journal_bytes: u64,
}

impl MatrixOutcome {
    /// The completed cells' runs, in matrix order.
    pub fn completed(&self) -> impl Iterator<Item = &InstrumentedRun> {
        self.cells.iter().flatten().filter_map(CellOutcome::ok)
    }

    /// Every black box in matrix order: completed cells carry theirs in
    /// the run, quarantined cells in the outcome.
    #[must_use]
    pub fn flights(&self) -> Vec<FlightRecord> {
        let flight = |cell: &CellOutcome<InstrumentedRun>| match cell {
            CellOutcome::Ok { value, .. } => value.flight.clone(),
            CellOutcome::Failed { flight, .. } => flight.as_deref().cloned(),
        };
        self.cells.iter().flatten().filter_map(flight).collect()
    }

    /// Every cell's run, failing fast.
    ///
    /// # Errors
    ///
    /// Returns the error of the first failed cell in matrix order — the
    /// error a serial loop over the cells would hit first.
    pub fn runs(self) -> Result<Vec<Vec<InstrumentedRun>>> {
        let row = |row: Vec<CellOutcome<InstrumentedRun>>| {
            row.into_iter().map(CellOutcome::into_result).collect()
        };
        self.cells.into_iter().map(row).collect()
    }

    /// [`MatrixOutcome::runs`], narrowed to the reports.
    ///
    /// # Errors
    ///
    /// As [`MatrixOutcome::runs`].
    pub fn reports(self) -> Result<Vec<Vec<SimulationReport>>> {
        let row = |row: Vec<InstrumentedRun>| row.into_iter().map(|run| run.report).collect();
        Ok(self.runs()?.into_iter().map(row).collect())
    }
}

/// Wall-clock and per-cell timings of one matrix run, so harnesses can
/// derive throughput (accesses/second) per policy.
///
/// Timings are measurement artefacts: they vary run to run and are *not*
/// part of the deterministic [`SimulationReport`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixTiming {
    /// End-to-end wall-clock of the whole matrix, in seconds.
    pub wall_seconds: f64,
    /// Number of worker threads the pool actually used.
    pub workers: usize,
    /// `cell_seconds[spec_index][kind_index]`: time one worker spent on
    /// that cell (including any wait for the shared trace to materialize).
    pub cell_seconds: Vec<Vec<f64>>,
    /// `cells_per_worker[worker]`: cells each worker claimed off the
    /// shared queue — the work-stealing balance (sums to the cell count).
    pub cells_per_worker: Vec<u64>,
    /// Most cells that were ever simulating simultaneously (≤ `workers`).
    pub peak_in_flight: usize,
}

/// One matrix cell's result slot: the outcome and its wall seconds, filled
/// by whichever worker claimed the cell.
type CellSlot<T> = Mutex<Option<(CellOutcome<T>, f64)>>;

/// The work-stealing scheduler: runs `run` on every `(spec, kind)` cell
/// across a worker pool and assembles the outcomes by cell index, so
/// output order never depends on scheduling. Each worker pulls the next
/// unclaimed cell off a shared atomic index — no static partitioning, so
/// one slow workload cannot strand the rest of the pool. Every cell
/// executes inside [`run_isolated`]; the scheduler itself never fails.
/// Also measures per-cell wall time, how many cells each worker claimed,
/// and the peak number of cells in flight.
fn run_cells<T, F>(
    specs: &[WorkloadSpec],
    kinds: &[PolicyKind],
    threads: usize,
    run: F,
) -> (Vec<Vec<CellOutcome<T>>>, MatrixTiming)
where
    T: Send,
    F: Fn(&WorkloadSpec, PolicyKind, usize) -> std::result::Result<T, CellFailure> + Sync,
{
    #[expect(clippy::disallowed_methods, reason = "reported wall time only")]
    let started = Instant::now();
    let cells = specs.len() * kinds.len();
    let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let workers = if cells == 0 {
        0
    } else {
        if threads == 0 { available } else { threads }.clamp(1, cells)
    };

    let next_cell = AtomicUsize::new(0);
    let in_flight = AtomicUsize::new(0);
    let peak_in_flight = AtomicUsize::new(0);
    #[expect(clippy::disallowed_methods, reason = "one lock per cell, used once")]
    let slots: Vec<CellSlot<T>> = (0..cells).map(|_| Mutex::new(None)).collect();

    let cells_per_worker = std::thread::scope(|scope| {
        #[expect(
            clippy::disallowed_methods,
            reason = "each cell's slot lock is taken once, when the cell finishes"
        )]
        let worker = |id: usize| {
            let mut claimed = 0u64;
            loop {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the read-modify-write alone makes each claim unique"
                )]
                let index = next_cell.fetch_add(1, Ordering::Relaxed);
                let (Some(spec), Some(&kind), Some(slot)) = (
                    specs.get(index / kinds.len()),
                    kinds.get(index % kinds.len()),
                    slots.get(index),
                ) else {
                    break claimed;
                };
                claimed += 1;
                #[expect(clippy::disallowed_methods, reason = "telemetry: guards no data")]
                let depth = in_flight.fetch_add(1, Ordering::Relaxed) + 1;
                #[expect(clippy::disallowed_methods, reason = "telemetry: guards no data")]
                peak_in_flight.fetch_max(depth, Ordering::Relaxed);
                // Isolation boundary: a panic inside the cell is caught,
                // retried, and at worst quarantined — the worker (and
                // every other cell it will claim) survives.
                #[expect(clippy::disallowed_methods, reason = "reported wall time only")]
                let cell_started = Instant::now();
                let outcome = run_isolated(&spec.name, kind.name(), || run(spec, kind, id));
                let elapsed = cell_started.elapsed().as_secs_f64();
                *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some((outcome, elapsed));
                #[expect(clippy::disallowed_methods, reason = "telemetry: guards no data")]
                in_flight.fetch_sub(1, Ordering::Relaxed);
            }
        };
        let handles: Vec<_> = (0..workers)
            .map(|id| scope.spawn(move || worker(id)))
            .collect();
        // Worker bodies cannot panic (cells are caught above), so a join
        // error would mean the scheduler itself is broken; its unfilled
        // slots are quarantined below either way.
        let joined = handles.into_iter().map(|handle| handle.join().unwrap_or(0));
        joined.collect::<Vec<u64>>()
    });

    // Assemble by cell index: output order (and the first-error choice)
    // never depends on which worker finished when.
    let mut slots = slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner));
    let mut rows = Vec::with_capacity(specs.len());
    let mut cell_seconds = Vec::with_capacity(specs.len());
    for spec in specs {
        let (row, times) = kinds
            .iter()
            .map(|kind| {
                slots.next().flatten().unwrap_or_else(|| {
                    let failed = CellOutcome::Failed {
                        error: Error::invalid_input(format!(
                            "cell {}/{} was never completed: its worker thread died",
                            spec.name,
                            kind.name()
                        )),
                        retries: 0,
                        panicked: true,
                        flight: None,
                    };
                    (failed, 0.0)
                })
            })
            .unzip();
        rows.push(row);
        cell_seconds.push(times);
    }
    let timing = MatrixTiming {
        wall_seconds: started.elapsed().as_secs_f64(),
        workers,
        cell_seconds,
        cells_per_worker,
        peak_in_flight: peak_in_flight.into_inner(),
    };
    (rows, timing)
}

/// Stable fingerprint of one exact matrix: the workloads, the policy
/// kinds, and the full experiment configuration, hashed over their
/// canonical JSON. A [`RunJournal`] is bound to this value so a journal
/// written for one campaign can never be resumed into a different one.
fn matrix_fingerprint(
    specs: &[WorkloadSpec],
    kinds: &[PolicyKind],
    config: &ExperimentConfig,
) -> u64 {
    let canonical = hybridmem_json::to_string(&(specs, kinds, config));
    fx_hash_one(&canonical)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LedgerOptions;
    use hybridmem_trace::{parsec, LocalityParams};

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec::new("test", 200, 20_000, 5_000, LocalityParams::balanced()).unwrap()
    }

    fn threaded(threads: usize) -> MatrixRun {
        MatrixRun {
            threads,
            fault_plan: None,
            ..MatrixRun::new(ExperimentConfig::date2016()).unwrap()
        }
    }

    fn faulted(threads: usize, plan: &str) -> MatrixRun {
        MatrixRun {
            fault_plan: Some(Arc::new(FaultPlan::parse(plan).unwrap())),
            ..threaded(threads)
        }
    }

    fn reports(
        run: &MatrixRun,
        specs: &[WorkloadSpec],
        kinds: &[PolicyKind],
    ) -> Vec<Vec<SimulationReport>> {
        run.run(specs, kinds).unwrap().reports().unwrap()
    }

    #[test]
    fn matrix_matches_serial_compare_at_any_thread_count() {
        // The determinism guarantee: a multi-threaded matrix serializes
        // to exactly the bytes the serial per-workload loop produces.
        let config = ExperimentConfig::date2016();
        let specs = vec![
            small_spec(),
            parsec::spec("bodytrack").unwrap().capped(3_000),
            parsec::spec("raytrace").unwrap().capped(2_500),
        ];
        let kinds = PolicyKind::all();
        let serial: Vec<Vec<SimulationReport>> = specs
            .iter()
            .map(|spec| config.compare(spec, &kinds).unwrap())
            .collect();
        let serial = hybridmem_json::to_string(&serial);
        for threads in [0, 1, 3, 8, 64] {
            let matrix = reports(&threaded(threads), &specs, &kinds);
            assert_eq!(
                serial,
                hybridmem_json::to_string(&matrix),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn streamed_matrix_matches_the_cached_one() {
        // Where the trace comes from never changes what the cells report.
        let specs = [small_spec(), parsec::spec("vips").unwrap().capped(3_000)];
        let kinds = [PolicyKind::TwoLru, PolicyKind::ClockDwf];
        let run = threaded(2);
        let streamed = run.run_streamed(&specs, &kinds).unwrap().reports();
        assert_eq!(streamed.unwrap(), reports(&run, &specs, &kinds));
    }

    #[test]
    fn timing_reports_sane_scheduler_telemetry() {
        let kinds = [PolicyKind::TwoLru, PolicyKind::DramOnly];
        let outcome = threaded(2).run(&[small_spec()], &kinds).unwrap();
        let timing = &outcome.timing;
        assert_eq!(timing.cell_seconds, vec![timing.cell_seconds[0].clone()]);
        assert_eq!(timing.cell_seconds[0].len(), 2);
        assert!(timing.workers >= 1 && timing.workers <= 2);
        assert!(timing.wall_seconds >= 0.0);
        assert!(timing.cell_seconds[0].iter().all(|&s| s >= 0.0));
        assert_eq!(timing.cells_per_worker.len(), timing.workers);
        assert_eq!(
            timing.cells_per_worker.iter().sum::<u64>(),
            2,
            "every cell is claimed exactly once"
        );
        assert!(timing.peak_in_flight >= 1 && timing.peak_in_flight <= timing.workers);
        assert!(outcome.health.clean);
    }

    #[test]
    fn empty_matrix_is_well_formed() {
        let run = threaded(4);
        assert_eq!(reports(&run, &[small_spec()], &[]), vec![Vec::new()]);
        assert!(reports(&run, &[], &PolicyKind::all()).is_empty());
    }

    #[test]
    fn reports_fail_fast_with_the_first_error_in_matrix_order() {
        let config = ExperimentConfig {
            warmup_fraction: 2.0, // invalid: every cell fails
            ..ExperimentConfig::date2016()
        };
        let specs = vec![
            small_spec(),
            parsec::spec("bodytrack").unwrap().capped(1_000),
        ];
        let kinds = [PolicyKind::TwoLru, PolicyKind::DramOnly];
        let run = MatrixRun {
            config,
            ..threaded(4)
        };
        let outcome = run.run(&specs, &kinds).unwrap();
        assert_eq!(
            outcome.health.failed_cells, 4,
            "failures never abort the matrix"
        );
        let err = outcome.reports().unwrap_err();
        let serial_err = config.run(&specs[0], kinds[0]).unwrap_err();
        assert_eq!(err.to_string(), serial_err.to_string());
    }

    #[test]
    fn a_panicking_cell_is_quarantined_and_the_rest_complete() {
        let specs = vec![
            small_spec(),
            parsec::spec("bodytrack").unwrap().capped(1_000),
        ];
        let kinds = [PolicyKind::TwoLru, PolicyKind::DramOnly];
        // K far past the retry budget: the cell must be quarantined.
        let outcome = faulted(4, "cell-panic@test/two-lru:100")
            .run(&specs, &kinds)
            .unwrap();
        let clean = reports(&threaded(1), &specs, &kinds);
        match &outcome.cells[0][0] {
            CellOutcome::Failed {
                error,
                retries,
                panicked,
                ..
            } => {
                assert!(error.to_string().contains("injected fault"), "{error}");
                assert_eq!(*retries, crate::health::MAX_CELL_RETRIES);
                assert!(panicked);
            }
            CellOutcome::Ok { .. } => panic!("scripted cell must be quarantined"),
        }
        // Every other cell completed with exactly the clean-run report.
        let report = |row: usize, col: usize| outcome.cells[row][col].ok().map(|run| &run.report);
        assert_eq!(report(0, 1), Some(&clean[0][1]));
        assert_eq!(report(1, 0), Some(&clean[1][0]));
        assert_eq!(report(1, 1), Some(&clean[1][1]));

        let health = &outcome.health;
        assert_eq!(health.schema, crate::health::MATRIX_HEALTH_SCHEMA);
        assert_eq!(health.total_cells, 4);
        assert_eq!(health.failed_cells, 1);
        assert!(!health.clean);
        assert_eq!(health.cells[0].workload, "test");
        assert_eq!(health.cells[0].policy, "two-lru");
        assert!(health.cells[0]
            .error
            .as_deref()
            .is_some_and(|e| e.contains("injected fault")));
    }

    #[test]
    fn scripted_panics_within_the_retry_budget_recover() {
        let specs = vec![small_spec()];
        let kinds = [PolicyKind::TwoLru, PolicyKind::DramOnly];
        let plan = format!(
            "cell-panic@test/two-lru:{}",
            crate::health::MAX_CELL_RETRIES
        );
        let outcome = faulted(2, &plan).run(&specs, &kinds).unwrap();
        let clean = reports(&threaded(1), &specs, &kinds);
        match &outcome.cells[0][0] {
            CellOutcome::Ok { value, retries } => {
                assert_eq!(
                    value.report, clean[0][0],
                    "recovered cell is byte-identical"
                );
                assert_eq!(*retries, crate::health::MAX_CELL_RETRIES);
            }
            CellOutcome::Failed { error, .. } => panic!("cell must recover: {error}"),
        }
        assert_eq!(outcome.health.failed_cells, 0);
        assert_eq!(outcome.health.retried_cells, 1);
        assert!(!outcome.health.clean, "retries are visible in the report");
    }

    #[test]
    fn interrupted_then_resumed_matrix_is_byte_identical_to_uninterrupted() {
        let specs = vec![
            small_spec(),
            parsec::spec("bodytrack").unwrap().capped(1_000),
        ];
        let kinds = [PolicyKind::TwoLru, PolicyKind::DramOnly];
        let journal = std::env::temp_dir().join(format!(
            "hybridmem-resume-test-{}.hmjournal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&journal);
        let clean = hybridmem_json::to_string(&reports(&threaded(2), &specs, &kinds));

        // The "killed" run: one cell dies past its retry budget, the
        // other three complete and land in the journal.
        let killed = MatrixRun {
            resume: Some(journal.clone()),
            ..faulted(2, "cell-panic@test/two-lru:100")
        };
        let outcome = killed.run(&specs, &kinds).unwrap();
        assert_eq!(outcome.health.failed_cells, 1);
        let reopened =
            RunJournal::open(&journal, matrix_fingerprint(&specs, &kinds, &killed.config));
        assert_eq!(reopened.unwrap().len(), 3, "completed cells were journaled");

        // The resumed run: no faults, the journal replays the three
        // completed cells, only the quarantined one is recomputed.
        let resumed = MatrixRun {
            resume: Some(journal.clone()),
            ..threaded(2)
        };
        let outcome = resumed.run(&specs, &kinds).unwrap();
        assert_eq!(outcome.health.failed_cells, 0);
        assert_eq!(
            outcome
                .completed()
                .filter(|run| run.flight.is_some())
                .count(),
            0
        );
        let resumed = hybridmem_json::to_string(&outcome.reports().unwrap());
        assert_eq!(resumed, clean, "resumed ≡ uninterrupted");

        // A journal written for one matrix refuses any other.
        let other = MatrixRun {
            resume: Some(journal.clone()),
            ..threaded(1)
        };
        let err = other.run(&specs, &kinds[..1]).unwrap_err();
        assert!(err.to_string().contains("fingerprint"), "{err}");
        let _ = std::fs::remove_file(&journal);
    }

    #[test]
    fn matrix_fingerprint_pins_specs_kinds_and_config() {
        let config = ExperimentConfig::date2016();
        let specs = vec![small_spec()];
        let kinds = [PolicyKind::TwoLru];
        let base = matrix_fingerprint(&specs, &kinds, &config);
        assert_eq!(
            base,
            matrix_fingerprint(&specs, &kinds, &config),
            "stable across calls"
        );
        assert_ne!(
            base,
            matrix_fingerprint(&specs, &[PolicyKind::DramOnly], &config)
        );
        let other = ExperimentConfig { seed: 7, ..config };
        assert_ne!(base, matrix_fingerprint(&specs, &kinds, &other));
    }

    #[test]
    fn instrumented_matrix_is_thread_count_invariant_and_profiled() {
        let specs = vec![small_spec()];
        let kinds = [PolicyKind::TwoLru, PolicyKind::ClockDwf];
        let instrumentation =
            Instrumentation::windowed(2_000).with_ledger(LedgerOptions::default());
        let run = |threads| MatrixRun {
            instrumentation,
            ..threaded(threads)
        };
        let serial = run(1).run(&specs, &kinds).unwrap();
        let profiled = MatrixRun {
            outputs: MatrixOutputs {
                profile: Some(PathBuf::from("unused.json")),
                ..MatrixOutputs::default()
            },
            ..run(4)
        };
        let parallel = profiled.run(&specs, &kinds).unwrap();
        let records = parallel.profile.as_ref().unwrap().records();
        assert!(
            records.iter().any(|r| r.cat == "scheduler"),
            "matrix and cell spans recorded"
        );
        assert!(records.iter().any(|r| r.cat == "simulate"));
        let plain = reports(&threaded(2), &specs, &kinds);
        let serial = serial.runs().unwrap();
        assert_eq!(serial, parallel.runs().unwrap());
        for (run, report) in serial.iter().flatten().zip(plain.iter().flatten()) {
            assert_eq!(&run.report, report, "instrumentation must not perturb");
            assert!(!run.records.is_empty() && run.ledger.is_some());
        }
    }

    #[test]
    fn audited_paper_matrix_is_clean_at_any_thread_count() {
        // Every cell of the paper matrix passes the run-health audit with
        // zero violations, whether the matrix ran serial or parallel.
        let specs = vec![
            small_spec(),
            parsec::spec("bodytrack").unwrap().capped(3_000),
            parsec::spec("canneal").unwrap().capped(2_500),
        ];
        let kinds = PolicyKind::all();
        for threads in [1, 4] {
            let run = MatrixRun {
                instrumentation: Instrumentation::default().with_audit(),
                ..threaded(threads)
            };
            let rows = run.run(&specs, &kinds).unwrap().runs().unwrap();
            for (spec, row) in specs.iter().zip(&rows) {
                for (kind, cell) in kinds.iter().zip(row) {
                    let audit = cell
                        .audit
                        .as_ref()
                        .expect("an audit report was requested for every cell");
                    assert_eq!(audit.workload, spec.name, "threads={threads}");
                    assert_eq!(audit.policy, kind.name(), "threads={threads}");
                    assert_eq!(audit.accesses, spec.total_accesses(), "threads={threads}");
                    assert!(
                        audit.clean && audit.violations.is_empty(),
                        "threads={threads} {spec_name}/{kind}: {violations:?}",
                        spec_name = spec.name,
                        violations = audit.violations
                    );
                }
            }
        }
    }

    #[test]
    fn cell_panic_at_fails_the_cell_and_dumps_a_ring_ending_before_the_panic() {
        let specs = vec![small_spec()];
        let kinds = [PolicyKind::TwoLru, PolicyKind::DramOnly];
        let dump_of = |threads: usize| {
            let run = MatrixRun {
                instrumentation: Instrumentation::default().with_flight(32),
                ..faulted(threads, "cell-panic-at@test/two-lru:500")
            };
            let outcome = run.run(&specs, &kinds).unwrap();
            assert_eq!(outcome.health.failed_cells, 1);
            let dump = FlightMatrixReport::new(outcome.flights());
            let err = outcome.reports().unwrap_err();
            assert!(err.to_string().contains("panicked at access 500"), "{err}");
            dump
        };

        let dump = dump_of(2);
        assert_eq!(
            dump.dumped_cells, 2,
            "the completed cell dumps its black box too"
        );
        assert_eq!(dump.triggered_cells, 1);
        let flight = &dump.cells[0];
        assert_eq!(flight.trigger, "panic");
        assert_eq!(
            flight.accesses, 500,
            "demand accesses 0..=499 were recorded"
        );
        assert_eq!(
            flight.final_access, 499,
            "the last recorded event strictly precedes the panic site"
        );
        assert!(flight.events.iter().all(|event| event.access < 500));
        assert_eq!(flight.retries, crate::health::MAX_CELL_RETRIES);
        assert_eq!(
            hybridmem_json::to_string(&dump_of(1)),
            hybridmem_json::to_string(&dump),
            "flight dumps are byte-identical across thread counts"
        );
    }

    #[test]
    fn from_flags_attaches_a_sink_per_output_and_rejects_bad_values() {
        let parse = |pairs: &[(&str, &str)]| {
            let flag = |name: &str| pairs.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
            MatrixRun::from_flags(ExperimentConfig::date2016(), flag)
        };
        let run = parse(&[
            ("threads", "3"),
            ("metrics-out", "m.jsonl"),
            ("metrics-window", "500"),
            ("ledger-out", "l.jsonl"),
            ("ledger-top", "8"),
            ("audit-out", "a.json"),
            ("flight-out", "f.json"),
            ("flight-events", "32"),
        ])
        .unwrap();
        assert_eq!(run.threads, 3);
        assert_eq!(run.instrumentation.window, Some(500));
        assert_eq!(run.instrumentation.ledger.map(|l| l.top_k), Some(8));
        assert!(run.instrumentation.audit);
        assert_eq!(run.instrumentation.flight, Some(32));
        assert_eq!(run.outputs.metrics, Some(PathBuf::from("m.jsonl")));
        assert!(
            parse(&[]).unwrap().instrumentation.is_empty(),
            "no flags, no sinks"
        );

        for (name, value, message) in [
            ("metrics-window", "0", "--metrics-window must be at least 1"),
            ("ledger-top", "0", "--ledger-top must retain at least 1"),
            (
                "flight-events",
                "0",
                "--flight-events must retain at least 1",
            ),
            ("threads", "many", "flag --threads expects a number"),
        ] {
            let err = parse(&[(name, value)]).unwrap_err().to_string();
            assert!(err.contains(message), "{name} {value}: {err}");
        }
        let err = parse(&[("resume", "j"), ("audit-out", "a.json")]).unwrap_err();
        assert!(err
            .to_string()
            .contains("--resume cannot be combined with --audit-out"));
        assert!(parse(&[("resume", "j"), ("flight-out", "f.json")]).is_ok());
    }
}
