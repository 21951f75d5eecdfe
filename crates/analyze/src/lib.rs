//! Cross-run analytics for the hybrid-memory simulator's telemetry.
//!
//! The engine emits three machine-readable surfaces this crate reads:
//! windowed metrics JSONL, page-ledger JSONL, and metrics snapshots. It
//! ingests any of them ([`ingest`]), rolls per-cell profiles and A-vs-B
//! deltas ([`mod@diff`]), correlates black-box flight dumps with every
//! other stream into per-cell failure timelines ([`postmortem`]), and
//! renders the results both as aligned text tables ([`table`]) and as the
//! stable `hybridmem-analyze-v1` JSON ([`report`]).
//! Throughput is not judged here: perfbench (`BENCHMARK.json`) is the
//! benchmark of record.
//!
//! The crate needs no registry: it reads and writes JSON
//! through the workspace's own `hybridmem-json` crate (re-exported as
//! [`json`]), whose number lexemes survive a parse → emit round trip
//! byte-for-byte, which is what makes the `analyze check`
//! self-verification exact.

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

pub mod diff;
pub mod ingest;
pub mod postmortem;
pub mod report;
pub mod table;

pub use diff::{
    diff, profile_intervals, profile_ledgers, CellDelta, CellProfile, DiffReport, MetricDelta,
    Worse,
};
pub use hybridmem_json as json;
pub use ingest::{load, HistogramStat, Input, IntervalStat, LedgerStat, Loaded, MetricsStat};
pub use json::{parse, Json};
pub use postmortem::{
    correlate, postmortem_report, CellTimeline, PostmortemInputs, PostmortemReport, Signal,
    POSTMORTEM_SCHEMA,
};
pub use report::{diff_report, render, round_trips, ANALYZE_SCHEMA};
pub use table::{diff_table, metrics_table, postmortem_table};
