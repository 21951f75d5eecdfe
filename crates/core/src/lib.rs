//! The hybrid DRAM–NVM memory simulator: the paper's models, the
//! accounting engine, and the experiment methodology.
//!
//! This crate ties the substrates together into the system evaluated in
//! *"An Operating System Level Data Migration Scheme in Hybrid DRAM-NVM
//! Memory Architecture"* (Salkhordeh & Asadi, DATE 2016):
//!
//! * [`model`] — the cost model: a run's event counts priced through
//!   Table IV/II and `PageFactor`, and Table I parameters with Eq. 1
//!   (AMAT), Eq. 2 (APPR), and Eq. 3 (prorated static power) in closed
//!   form;
//! * [`HybridSimulator`] — replays page-granular traces through any
//!   [`HybridPolicy`](hybridmem_policy::HybridPolicy) and counts every
//!   hit, fault, fill, and migration, and the NVM wear they cause;
//! * [`SimulationReport`] — the measured breakdowns behind every figure
//!   (power: static/dynamic/page-fault/migration; AMAT: requests vs
//!   migrations; NVM writes: requests/page-fault/migration);
//! * [`ExperimentConfig`] / [`MatrixRun`] — the paper's evaluation
//!   methodology (75 % memory, 10 % DRAM) over the PARSEC profiles, and
//!   the one runner every front end executes the matrix with;
//! * [`CellSink`] — the one event sink an instrumented cell carries: it
//!   keeps one access cursor (access index, warmup, per-tier residency,
//!   event counts) and folds the event stream into the analyses below;
//! * [`observe`] — windowed telemetry: slices runs into per-N-accesses
//!   [`IntervalRecord`]s (tier hits, migrations, occupancy, interval
//!   AMAT/APPR) serialized as deterministic JSONL;
//! * [`ledger`] — drill-down telemetry: reconstructs per-page journeys
//!   (fills, promotions with Algorithm 1 provenance, demotions with
//!   cause, lossy resets) under deterministic top-K retention;
//! * [`audit`] — run-health auditing: checks the conservation laws behind
//!   Eq. 1/Eq. 2 online (fills ≡ faults, occupancy ≤ capacity, demotion
//!   pairing, probe consistency, priced vs. closed-form AMAT) and reports
//!   structured [`AuditViolation`]s;
//! * [`faultinject`] / [`health`] / [`journal`] — the robustness layer:
//!   a scripted, deterministic [`FaultPlan`] exercises every
//!   degradation path; [`MatrixRun`] quarantines failing cells into a
//!   [`MatrixHealthReport`] instead of aborting the matrix; a
//!   [`RunJournal`] makes long campaigns crash-safe and resumable with
//!   byte-identical output;
//! * [`flightrec`] — the black box: a bounded flight recorder rides any
//!   instrumented cell, retaining the last N events plus periodic state
//!   snapshots, and dumps a deterministic
//!   `hybridmem-flight-v1` [`FlightRecord`] when a cell panics, errors
//!   out, or trips an audit violation — the raw material for
//!   `hybridmem postmortem` cross-stream correlation.
//!
//! # Examples
//!
//! ```
//! use hybridmem_core::{ExperimentConfig, PolicyKind};
//! use hybridmem_trace::parsec;
//!
//! let spec = parsec::spec("bodytrack")?.capped(10_000);
//! let config = ExperimentConfig::default();
//! let proposed = config.run(&spec, PolicyKind::TwoLru)?;
//! let clock_dwf = config.run(&spec, PolicyKind::ClockDwf)?;
//! assert_eq!(proposed.policy, "two-lru");
//! assert_eq!(clock_dwf.policy, "clock-dwf");
//! assert!(proposed.appr().value() > 0.0);
//! # Ok::<(), hybridmem_types::Error>(())
//! ```

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

pub mod audit;
mod cell;
mod events;
mod experiments;
pub mod faultinject;
pub mod flightrec;
pub mod health;
pub mod journal;
pub mod ledger;
mod matrix;
pub mod model;
pub mod observe;
mod report;
mod simulator;
mod trace_cache;

pub use audit::{write_audit_json, AuditMatrixReport, AuditReport, AuditViolation, AUDIT_SCHEMA};
pub use cell::{CellContext, CellSink};
pub use events::{EventSink, RecordingSink, Ring, SimEvent};
pub use experiments::{ExperimentConfig, Instrumentation, InstrumentedRun, PolicyKind};
pub use faultinject::FaultPlan;
pub use flightrec::{
    write_flight_json, FlightEvent, FlightEventKind, FlightMatrixReport, FlightRecord,
    FlightSnapshot, FLIGHT_SCHEMA,
};
pub use health::{
    write_matrix_health_json, CellFailure, CellHealth, CellOutcome, CellStatus, MatrixHealthReport,
    MATRIX_HEALTH_SCHEMA, MAX_CELL_RETRIES,
};
pub use journal::{JournalEntry, RunJournal, JOURNAL_MAGIC, JOURNAL_VERSION};
pub use ledger::{
    write_ledger_jsonl, DemotionCause, LedgerOptions, LedgerReport, LedgerSummary, PageEvent,
    PageRecord, PageSummary, PromotionProvenance,
};
pub use matrix::{
    parse_flag, positive_flag, MatrixOutcome, MatrixOutputs, MatrixRun, MatrixTiming,
};
pub use model::{AmatComponents, ApprComponents, ModelParams, Probabilities, TimeModel};
pub use observe::{write_jsonl, IntervalRecord};
pub use report::{
    arith_mean, geo_mean, Counts, EnergyBreakdown, LatencyBreakdown, ModuleStats,
    NvmWriteBreakdown, SimulationReport, SourceStats, WearSummary,
};
pub use simulator::HybridSimulator;
pub use trace_cache::{SpillSource, TraceCache, TraceCacheStats, DEFAULT_BUDGET_BYTES};
