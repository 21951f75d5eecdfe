//! Cross-stream post-mortem correlation for `hybridmem postmortem`.
//!
//! A quarantined cell leaves evidence scattered across up to six
//! artifacts: the black-box flight dump (`hybridmem-flight-v1`), the
//! matrix health report, the run-health audit report, the windowed
//! metrics JSONL, the page-ledger JSONL, and the binary resume
//! journal. Each one is self-consistent but none tells the whole
//! story. This module joins them on `(workload, policy)` cell keys and
//! 0-based demand-access indices into one timeline per flight-dumped
//! cell, so triage starts from "what happened around access N in cell
//! W/P" instead of six files open in six panes.
//!
//! Like the rest of the crate the module is zero-dependency: every
//! JSON input goes through [`crate::json::parse`], and the resume
//! journal's binary framing (documented in `hybridmem-core::journal`)
//! is decoded by hand. Inputs written by other tool versions degrade
//! to warnings, never panics — a post-mortem tool that dies on the
//! evidence defeats its purpose.
//!
//! The output is rendered both as a human table
//! ([`crate::table::postmortem_table`]) and as the stable
//! `hybridmem-postmortem-v1` JSON ([`postmortem_report`]). Everything
//! is derived from the inputs, so the report is byte-deterministic.

use crate::json::{parse, Json};

/// Schema identifier of the postmortem JSON report.
pub const POSTMORTEM_SCHEMA: &str = "hybridmem-postmortem-v1";

/// Schema identifier the flight dump input must carry.
const FLIGHT_SCHEMA: &str = "hybridmem-flight-v1";

/// The raw artifact contents to correlate. Only the flight dump is
/// required; every other stream enriches the timeline when present.
#[derive(Debug, Default)]
pub struct PostmortemInputs<'a> {
    /// The `hybridmem-flight-v1` dump (required).
    pub flight: &'a str,
    /// The `hybridmem-matrix-health-v1` report.
    pub health: Option<&'a str>,
    /// The `hybridmem-audit-v1` report.
    pub audit: Option<&'a str>,
    /// Windowed interval metrics JSONL.
    pub metrics: Option<&'a str>,
    /// Page-ledger JSONL.
    pub ledger: Option<&'a str>,
    /// The binary resume journal, verbatim.
    pub journal: Option<&'a [u8]>,
}

/// One correlated observation on a cell's timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signal {
    /// Which stream produced it: `flight`, `health`, `audit`,
    /// `metrics`, `ledger`, or `journal`.
    pub source: String,
    /// 0-based demand-access index the observation is anchored to,
    /// when the stream carries one.
    pub access: Option<u64>,
    /// Human-readable description.
    pub detail: String,
}

/// One flight-dumped cell with every signal the other streams
/// contributed, in timeline order (anchored signals by ascending
/// access, then the un-anchored context).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellTimeline {
    /// Workload name of the cell.
    pub workload: String,
    /// Policy name of the cell.
    pub policy: String,
    /// Why the black box was dumped (`completed`, `panic`, `error`,
    /// `audit-violation`, ...).
    pub trigger: String,
    /// The failure message, when the trigger carried one.
    pub error: Option<String>,
    /// Panicking attempts that preceded the capture.
    pub retries: u64,
    /// Demand accesses the recorder saw before the capture.
    pub accesses: u64,
    /// 0-based index of the last demand access recorded.
    pub final_access: u64,
    /// Events evicted from the bounded ring before the capture.
    pub events_dropped: u64,
    /// The correlated timeline.
    pub signals: Vec<Signal>,
    /// Signals contributed by streams other than the flight dump.
    pub correlated_signals: u64,
}

/// The full correlation result over every flight-dumped cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostmortemReport {
    /// Streams that were provided, in canonical order.
    pub sources: Vec<String>,
    /// Cells whose dump trigger was not `completed`.
    pub triggered_cells: u64,
    /// Per-cell timelines, in flight-dump (matrix) order.
    pub cells: Vec<CellTimeline>,
    /// Ingest degradations: malformed JSONL lines, foreign schemas in
    /// optional inputs, failed cells with no flight record.
    pub warnings: Vec<String>,
}

/// A parsed health row.
struct HealthRow {
    workload: String,
    policy: String,
    status: String,
    retries: u64,
    panicked: bool,
    error: Option<String>,
}

/// A parsed audit cell with its retained violations.
struct AuditCell {
    workload: String,
    policy: String,
    clean: bool,
    total_violations: u64,
    violations: Vec<AuditViolation>,
}

struct AuditViolation {
    invariant: String,
    access_index: u64,
    page: Option<u64>,
    observed: String,
    expected: String,
}

/// One windowed-metrics interval row.
struct MetricsWindow {
    workload: String,
    policy: String,
    interval: u64,
    start_access: u64,
    end_access: u64,
    faults: u64,
    hit_ratio: Option<String>,
}

/// One cell's ledger roll-up plus its hottest retained page.
struct LedgerCell {
    workload: String,
    policy: String,
    ping_pongs: u64,
    ping_pong_pages: u64,
    top_page: Option<(u64, u64, u64)>, // (page, migrations, ping_pongs)
}

/// One journaled completion.
struct JournalCell {
    workload: String,
    policy: String,
}

fn field_str(doc: &Json, key: &str) -> Option<String> {
    doc.get(key).and_then(Json::as_str).map(str::to_owned)
}

fn field_u64(doc: &Json, key: &str) -> Option<u64> {
    doc.get(key).and_then(Json::as_u64)
}

/// Correlates the provided streams into per-cell timelines.
///
/// # Errors
///
/// Returns a one-line message when the flight dump itself is
/// unreadable or carries a foreign schema, or when a provided health
/// or audit report does not parse at all. Damaged *lines* inside
/// JSONL streams and shape mismatches degrade to warnings instead.
pub fn correlate(inputs: &PostmortemInputs<'_>) -> Result<PostmortemReport, String> {
    let flight = parse(inputs.flight).map_err(|e| format!("flight dump: {e}"))?;
    let schema = flight.get("schema").and_then(Json::as_str);
    if schema != Some(FLIGHT_SCHEMA) {
        return Err(format!(
            "flight dump schema is {schema:?}, expected {FLIGHT_SCHEMA:?}"
        ));
    }
    let mut warnings = Vec::new();
    let health = match inputs.health {
        Some(text) => parse_health(text)?,
        None => Vec::new(),
    };
    let audit = match inputs.audit {
        Some(text) => parse_audit(text)?,
        None => Vec::new(),
    };
    let metrics = match inputs.metrics {
        Some(text) => parse_metrics(text, &mut warnings),
        None => Vec::new(),
    };
    let ledger = match inputs.ledger {
        Some(text) => parse_ledger(text, &mut warnings),
        None => Vec::new(),
    };
    let journal = match inputs.journal {
        Some(bytes) => parse_journal(bytes, &mut warnings)?,
        None => Vec::new(),
    };

    let flight_cells = flight.get("cells").and_then(Json::as_array).unwrap_or(&[]);
    let mut cells = Vec::with_capacity(flight_cells.len());
    for cell in flight_cells {
        cells.push(correlate_cell(
            cell, &health, &audit, &metrics, &ledger, &journal,
        ));
    }

    // A failed cell with no flight record means the black box never
    // armed (e.g. the fault fired before the simulation started) —
    // worth knowing when the timeline someone expected is missing.
    for row in &health {
        if row.status == "failed"
            && !cells
                .iter()
                .any(|c: &CellTimeline| c.workload == row.workload && c.policy == row.policy)
        {
            warnings.push(format!(
                "health reports cell {}/{} as failed but the flight dump has no record for it \
                 (the cell died before its recorder armed)",
                row.workload, row.policy
            ));
        }
    }

    let mut sources = vec!["flight".to_owned()];
    for (name, present) in [
        ("health", inputs.health.is_some()),
        ("audit", inputs.audit.is_some()),
        ("metrics", inputs.metrics.is_some()),
        ("ledger", inputs.ledger.is_some()),
        ("journal", inputs.journal.is_some()),
    ] {
        if present {
            sources.push(name.to_owned());
        }
    }
    let triggered_cells = cells.iter().filter(|c| c.trigger != "completed").count() as u64;
    Ok(PostmortemReport {
        sources,
        triggered_cells,
        cells,
        warnings,
    })
}

/// Builds one cell's timeline from its flight record plus whatever the
/// side streams know about the same `(workload, policy)` key.
fn correlate_cell(
    cell: &Json,
    health: &[HealthRow],
    audit: &[AuditCell],
    metrics: &[MetricsWindow],
    ledger: &[LedgerCell],
    journal: &[JournalCell],
) -> CellTimeline {
    let workload = field_str(cell, "workload").unwrap_or_default();
    let policy = field_str(cell, "policy").unwrap_or_default();
    let trigger = field_str(cell, "trigger").unwrap_or_else(|| "unknown".to_owned());
    let final_access = field_u64(cell, "final_access").unwrap_or(0);
    let mut signals = Vec::new();

    // The flight dump's own contribution: the last state snapshot and
    // the last event the ring retained before the capture.
    if let Some(snapshot) = cell
        .get("snapshots")
        .and_then(Json::as_array)
        .and_then(<[Json]>::last)
    {
        signals.push(Signal {
            source: "flight".to_owned(),
            access: field_u64(snapshot, "access"),
            detail: format!(
                "last state snapshot: {} DRAM / {} NVM pages resident, {} served, {} faults, \
                 {} migrations",
                field_u64(snapshot, "dram_resident").unwrap_or(0),
                field_u64(snapshot, "nvm_resident").unwrap_or(0),
                field_u64(snapshot, "served").unwrap_or(0),
                field_u64(snapshot, "faults").unwrap_or(0),
                field_u64(snapshot, "migrations").unwrap_or(0),
            ),
        });
    }
    if let Some(event) = cell
        .get("events")
        .and_then(Json::as_array)
        .and_then(<[Json]>::last)
    {
        signals.push(Signal {
            source: "flight".to_owned(),
            access: field_u64(event, "access"),
            detail: format!(
                "last recorded event: {}",
                event.get("event").map_or_else(
                    || "unreadable".to_owned(),
                    |e| describe_flight_event(e, final_access)
                )
            ),
        });
    }

    if let Some(row) = health
        .iter()
        .find(|r| r.workload == workload && r.policy == policy)
    {
        let detail = if row.status == "failed" {
            format!(
                "quarantined after {} retr{} ({}): {}",
                row.retries,
                if row.retries == 1 { "y" } else { "ies" },
                if row.panicked { "panic" } else { "typed error" },
                row.error.as_deref().unwrap_or("no error recorded"),
            )
        } else {
            format!("completed with {} retried attempt(s)", row.retries)
        };
        signals.push(Signal {
            source: "health".to_owned(),
            access: None,
            detail,
        });
    }

    if let Some(report) = audit
        .iter()
        .find(|r| r.workload == workload && r.policy == policy)
    {
        if report.clean {
            signals.push(Signal {
                source: "audit".to_owned(),
                access: None,
                detail: "audit clean: no invariant violations".to_owned(),
            });
        }
        for violation in &report.violations {
            let lead = if violation.access_index <= final_access {
                format!(
                    "{} accesses before the final access",
                    final_access - violation.access_index
                )
            } else {
                "after the final recorded access".to_owned()
            };
            let page = violation
                .page
                .map_or(String::new(), |p| format!(" (page {p})"));
            signals.push(Signal {
                source: "audit".to_owned(),
                access: Some(violation.access_index),
                detail: format!(
                    "invariant {} violated{page}: observed {}, expected {} — {lead}",
                    violation.invariant, violation.observed, violation.expected,
                ),
            });
        }
        if report.total_violations > report.violations.len() as u64 {
            signals.push(Signal {
                source: "audit".to_owned(),
                access: None,
                detail: format!(
                    "{} further violation(s) beyond the retention cap",
                    report.total_violations - report.violations.len() as u64
                ),
            });
        }
    }

    // The interval window that contains the final access: the cell's
    // last known-good aggregate before things went wrong.
    if let Some(window) = metrics.iter().find(|w| {
        w.workload == workload
            && w.policy == policy
            && w.start_access <= final_access
            && final_access < w.end_access
    }) {
        let ratio = window
            .hit_ratio
            .as_deref()
            .map_or(String::new(), |r| format!(", hit ratio {r}"));
        signals.push(Signal {
            source: "metrics".to_owned(),
            access: Some(window.start_access),
            detail: format!(
                "interval {} (accesses {}..{}) contains the final access: {} faults{ratio}",
                window.interval, window.start_access, window.end_access, window.faults,
            ),
        });
    }

    if let Some(cell) = ledger
        .iter()
        .find(|l| l.workload == workload && l.policy == policy)
    {
        let top = cell
            .top_page
            .map_or(String::new(), |(page, migrations, pp)| {
                format!("; hottest page {page}: {migrations} migrations, {pp} ping-pongs")
            });
        signals.push(Signal {
            source: "ledger".to_owned(),
            access: None,
            detail: format!(
                "{} ping-pong round trips across {} pages{top}",
                cell.ping_pongs, cell.ping_pong_pages,
            ),
        });
    }

    if journal
        .iter()
        .any(|j| j.workload == workload && j.policy == policy)
    {
        signals.push(Signal {
            source: "journal".to_owned(),
            access: None,
            detail: "journaled as completed — a resume will replay this cell, not rerun it"
                .to_owned(),
        });
    } else if !journal.is_empty() {
        signals.push(Signal {
            source: "journal".to_owned(),
            access: None,
            detail: "absent from the resume journal — a resume will recompute this cell".to_owned(),
        });
    }

    // Timeline order: anchored signals by ascending access (stable on
    // source then detail), un-anchored context after them.
    signals.sort_by(|a, b| {
        let key = |s: &Signal| (s.access.unwrap_or(u64::MAX), s.source.clone());
        key(a).cmp(&key(b)).then_with(|| a.detail.cmp(&b.detail))
    });
    let correlated_signals = signals.iter().filter(|s| s.source != "flight").count() as u64;
    CellTimeline {
        workload,
        policy,
        trigger,
        error: field_str(cell, "error"),
        retries: field_u64(cell, "retries").unwrap_or(0),
        accesses: field_u64(cell, "accesses").unwrap_or(0),
        final_access,
        events_dropped: field_u64(cell, "events_dropped").unwrap_or(0),
        signals,
        correlated_signals,
    }
}

/// One line for a flight event object (`{"kind": ..., ...}`).
fn describe_flight_event(event: &Json, final_access: u64) -> String {
    let page = field_u64(event, "page").unwrap_or(0);
    let rw = |key: &str| {
        if event.get(key).and_then(Json::as_bool) == Some(true) {
            "write"
        } else {
            "read"
        }
    };
    let place = |key: &str| field_str(event, key).unwrap_or_else(|| "?".to_owned());
    match event.get("kind").and_then(Json::as_str) {
        Some("served") => format!("page {page} {} served from {}", rw("write"), place("from")),
        Some("fault") => format!("page {page} {} faulted", rw("write")),
        Some("migrate") => format!("page {page} migrated {} -> {}", place("from"), place("to")),
        Some("fill") => format!("page {page} filled from disk into {}", place("into")),
        Some("evict") => format!("page {page} evicted from {}", place("from")),
        Some("probe") => format!(
            "page {page} counter probe: {} reads / {} writes{}",
            field_u64(event, "reads").unwrap_or(0),
            field_u64(event, "writes").unwrap_or(0),
            if event.get("fired").and_then(Json::as_bool) == Some(true) {
                ", threshold fired"
            } else {
                ""
            },
        ),
        _ => format!("unrecognized event kind at access {final_access}"),
    }
}

/// Parses a `hybridmem-matrix-health-v1` report into rows.
fn parse_health(text: &str) -> Result<Vec<HealthRow>, String> {
    let doc = parse(text).map_err(|e| format!("health report: {e}"))?;
    let schema = doc.get("schema").and_then(Json::as_str);
    if schema != Some("hybridmem-matrix-health-v1") {
        return Err(format!(
            "health report schema is {schema:?}, expected \"hybridmem-matrix-health-v1\""
        ));
    }
    Ok(doc
        .get("cells")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|cell| HealthRow {
            workload: field_str(cell, "workload").unwrap_or_default(),
            policy: field_str(cell, "policy").unwrap_or_default(),
            status: field_str(cell, "status").unwrap_or_default(),
            retries: field_u64(cell, "retries").unwrap_or(0),
            panicked: cell
                .get("panicked")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            error: field_str(cell, "error"),
        })
        .collect())
}

/// Parses a `hybridmem-audit-v1` report into cells.
fn parse_audit(text: &str) -> Result<Vec<AuditCell>, String> {
    let doc = parse(text).map_err(|e| format!("audit report: {e}"))?;
    let schema = doc.get("schema").and_then(Json::as_str);
    if schema != Some("hybridmem-audit-v1") {
        return Err(format!(
            "audit report schema is {schema:?}, expected \"hybridmem-audit-v1\""
        ));
    }
    Ok(doc
        .get("cells")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|cell| AuditCell {
            workload: field_str(cell, "workload").unwrap_or_default(),
            policy: field_str(cell, "policy").unwrap_or_default(),
            clean: cell.get("clean").and_then(Json::as_bool).unwrap_or(true),
            total_violations: field_u64(cell, "total_violations").unwrap_or(0),
            violations: cell
                .get("violations")
                .and_then(Json::as_array)
                .unwrap_or(&[])
                .iter()
                .map(|v| AuditViolation {
                    invariant: field_str(v, "invariant").unwrap_or_default(),
                    access_index: field_u64(v, "access_index").unwrap_or(0),
                    page: field_u64(v, "page"),
                    observed: field_str(v, "observed").unwrap_or_default(),
                    expected: field_str(v, "expected").unwrap_or_default(),
                })
                .collect(),
        })
        .collect())
}

/// Parses windowed-metrics JSONL; damaged lines become warnings.
fn parse_metrics(text: &str, warnings: &mut Vec<String>) -> Vec<MetricsWindow> {
    let mut windows = Vec::new();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(doc) = parse(line) else {
            warnings.push(format!("metrics line {}: unparseable", number + 1));
            continue;
        };
        let (Some(workload), Some(policy)) =
            (field_str(&doc, "workload"), field_str(&doc, "policy"))
        else {
            warnings.push(format!(
                "metrics line {}: not an interval record",
                number + 1
            ));
            continue;
        };
        windows.push(MetricsWindow {
            workload,
            policy,
            interval: field_u64(&doc, "interval").unwrap_or(0),
            start_access: field_u64(&doc, "start_access").unwrap_or(0),
            end_access: field_u64(&doc, "end_access").unwrap_or(0),
            faults: field_u64(&doc, "faults").unwrap_or(0),
            #[expect(clippy::wildcard_enum_match_arm, reason = "a non-number has no ratio")]
            hit_ratio: doc.get("hit_ratio").and_then(|j| match j {
                Json::Number(lexeme) => Some(lexeme.clone()),
                _ => None,
            }),
        });
    }
    windows
}

/// Parses page-ledger JSONL (a header line per cell followed by its
/// page records); damaged lines become warnings.
fn parse_ledger(text: &str, warnings: &mut Vec<String>) -> Vec<LedgerCell> {
    let mut cells: Vec<LedgerCell> = Vec::new();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(doc) = parse(line) else {
            warnings.push(format!("ledger line {}: unparseable", number + 1));
            continue;
        };
        if let (Some(workload), Some(policy)) =
            (field_str(&doc, "workload"), field_str(&doc, "policy"))
        {
            let summary = doc.get("summary");
            cells.push(LedgerCell {
                workload,
                policy,
                ping_pongs: summary
                    .and_then(|s| field_u64(s, "ping_pongs"))
                    .unwrap_or(0),
                ping_pong_pages: summary
                    .and_then(|s| field_u64(s, "ping_pong_pages"))
                    .unwrap_or(0),
                top_page: None,
            });
        } else if let Some(page) = field_u64(&doc, "page") {
            // Page records bind to the most recent header; the first
            // one is the retention order's hottest page.
            let Some(cell) = cells.last_mut() else {
                warnings.push(format!(
                    "ledger line {}: page record before any header",
                    number + 1
                ));
                continue;
            };
            if cell.top_page.is_none() {
                let summary = doc.get("summary");
                let sum = |key: &str| summary.and_then(|s| field_u64(s, key)).unwrap_or(0);
                let migrations = sum("promotions_read")
                    + sum("promotions_write")
                    + sum("promotions_unattributed")
                    + sum("demotions_fault")
                    + sum("demotions_swap");
                cell.top_page = Some((page, migrations, sum("ping_pongs")));
            }
        } else {
            warnings.push(format!("ledger line {}: not a ledger record", number + 1));
        }
    }
    cells
}

/// FNV-1a 64 over `bytes` (the journal's record checksum).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Decodes the binary resume journal (see `hybridmem-core::journal`
/// for the format). A torn or corrupt tail becomes a warning, exactly
/// as the journal's own open path treats it.
fn parse_journal(bytes: &[u8], warnings: &mut Vec<String>) -> Result<Vec<JournalCell>, String> {
    const HEADER_BYTES: usize = 20;
    const FRAME_BYTES: usize = 12;
    let magic = bytes.get(..8);
    if magic != Some(b"HMJRNL1\0") {
        return Err("journal: not a run journal (bad magic)".to_owned());
    }
    let le_u32 = |slice: Option<&[u8]>| {
        slice
            .and_then(|s| <[u8; 4]>::try_from(s).ok())
            .map(u32::from_le_bytes)
    };
    let le_u64 = |slice: Option<&[u8]>| {
        slice
            .and_then(|s| <[u8; 8]>::try_from(s).ok())
            .map(u64::from_le_bytes)
    };
    let version = le_u32(bytes.get(8..12));
    if version != Some(1) {
        return Err(format!("journal: unsupported version {version:?}"));
    }
    let mut cells = Vec::new();
    let mut offset = HEADER_BYTES;
    while bytes.len().saturating_sub(offset) >= FRAME_BYTES {
        let Some(len) = le_u32(bytes.get(offset..offset + 4)) else {
            break;
        };
        let crc = le_u64(bytes.get(offset + 4..offset + 12));
        let Some(end) = offset.checked_add(FRAME_BYTES + len as usize) else {
            break;
        };
        let Some(payload) = bytes.get(offset + FRAME_BYTES..end) else {
            break; // torn final record
        };
        if Some(fnv1a64(payload)) != crc {
            break;
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            break;
        };
        let Ok(entry) = parse(text) else {
            break;
        };
        if let (Some(workload), Some(policy)) =
            (field_str(&entry, "workload"), field_str(&entry, "policy"))
        {
            cells.push(JournalCell { workload, policy });
        }
        offset = end;
    }
    let tail = bytes.len().saturating_sub(offset);
    if tail > 0 {
        warnings.push(format!(
            "journal: {tail} trailing byte(s) of torn or corrupt tail ignored"
        ));
    }
    Ok(cells)
}

/// Renders the correlation as the stable `hybridmem-postmortem-v1`
/// JSON document.
#[must_use]
pub fn postmortem_report(report: &PostmortemReport) -> Json {
    let cells = report
        .cells
        .iter()
        .map(|cell| {
            let signals = cell
                .signals
                .iter()
                .map(|s| {
                    Json::Object(vec![
                        ("source".to_owned(), Json::str(&s.source)),
                        ("access".to_owned(), s.access.map_or(Json::Null, Json::u64)),
                        ("detail".to_owned(), Json::str(&s.detail)),
                    ])
                })
                .collect();
            Json::Object(vec![
                ("workload".to_owned(), Json::str(&cell.workload)),
                ("policy".to_owned(), Json::str(&cell.policy)),
                ("trigger".to_owned(), Json::str(&cell.trigger)),
                (
                    "error".to_owned(),
                    cell.error.as_deref().map_or(Json::Null, Json::str),
                ),
                ("retries".to_owned(), Json::u64(cell.retries)),
                ("accesses".to_owned(), Json::u64(cell.accesses)),
                ("final_access".to_owned(), Json::u64(cell.final_access)),
                ("events_dropped".to_owned(), Json::u64(cell.events_dropped)),
                (
                    "correlated_signals".to_owned(),
                    Json::u64(cell.correlated_signals),
                ),
                ("signals".to_owned(), Json::Array(signals)),
            ])
        })
        .collect();
    Json::Object(vec![
        ("schema".to_owned(), Json::str(POSTMORTEM_SCHEMA)),
        (
            "sources".to_owned(),
            Json::Array(report.sources.iter().map(Json::str).collect()),
        ),
        (
            "flight_cells".to_owned(),
            Json::u64(report.cells.len() as u64),
        ),
        (
            "triggered_cells".to_owned(),
            Json::u64(report.triggered_cells),
        ),
        ("cells".to_owned(), Json::Array(cells)),
        (
            "warnings".to_owned(),
            Json::Array(report.warnings.iter().map(Json::str).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal but structurally faithful flight dump with one
    /// panicked cell and one completed cell.
    fn flight_dump() -> String {
        r#"{
  "schema": "hybridmem-flight-v1",
  "cells": [
    {
      "workload": "w.trace", "policy": "two-lru", "trigger": "panic",
      "error": "injected fault: cell w.trace/two-lru panicked at access 500",
      "retries": 2, "warmup_accesses": 0, "dram_capacity": 12, "nvm_capacity": 110,
      "accesses": 500, "final_access": 499, "dram_resident": 12, "nvm_resident": 90,
      "served": 420, "faults": 80, "migrations": 7, "fills": 80, "evictions": 60,
      "probes": 0, "ring_capacity": 64, "events_dropped": 436,
      "snapshot_every": 256, "snapshot_capacity": 64, "snapshots_dropped": 0,
      "snapshots": [
        {"access": 256, "dram_resident": 10, "nvm_resident": 70, "served": 200,
         "faults": 56, "migrations": 3, "fills": 56, "evictions": 40, "probes": 0}
      ],
      "events": [
        {"access": 498, "event": {"kind": "fault", "page": 17, "write": false}},
        {"access": 499, "event": {"kind": "served", "page": 9, "write": true, "from": "dram"}}
      ]
    },
    {
      "workload": "w.trace", "policy": "dram-only", "trigger": "completed",
      "retries": 0, "warmup_accesses": 0, "dram_capacity": 122, "nvm_capacity": 0,
      "accesses": 1000, "final_access": 999, "dram_resident": 100, "nvm_resident": 0,
      "served": 900, "faults": 100, "migrations": 0, "fills": 100, "evictions": 10,
      "probes": 0, "ring_capacity": 64, "events_dropped": 1936,
      "snapshot_every": 256, "snapshot_capacity": 64, "snapshots_dropped": 0,
      "snapshots": [],
      "events": [
        {"access": 999, "event": {"kind": "served", "page": 3, "write": false, "from": "dram"}}
      ]
    }
  ],
  "dumped_cells": 2,
  "triggered_cells": 1
}"#
        .to_owned()
    }

    fn health_report() -> String {
        r#"{
  "schema": "hybridmem-matrix-health-v1",
  "cells": [
    {"workload": "w.trace", "policy": "two-lru", "status": "failed", "retries": 2,
     "panicked": true, "error": "injected fault: cell w.trace/two-lru panicked at access 500"},
    {"workload": "w.trace", "policy": "dram-only", "status": "ok", "retries": 0,
     "panicked": false, "error": null}
  ],
  "total_cells": 2, "failed_cells": 1, "retried_cells": 1, "clean": false
}"#
        .to_owned()
    }

    fn audit_report() -> String {
        r#"{
  "schema": "hybridmem-audit-v1",
  "cells": [
    {"workload": "w.trace", "policy": "two-lru", "accesses": 500, "faults": 80,
     "fills": 80, "violations": [
       {"invariant": "fill-fault", "access_index": 471, "page": 17,
        "observed": "a fill without a fault", "expected": "fills follow faults"}
     ],
     "dropped_violations": 0, "total_violations": 1, "clean": false}
  ],
  "total_violations": 1, "dropped_violations": 0, "clean": false
}"#
        .to_owned()
    }

    #[test]
    fn correlates_flight_health_and_audit_into_a_timeline() {
        let flight = flight_dump();
        let health = health_report();
        let audit = audit_report();
        let report = correlate(&PostmortemInputs {
            flight: &flight,
            health: Some(&health),
            audit: Some(&audit),
            ..PostmortemInputs::default()
        })
        .expect("correlates");

        assert_eq!(report.triggered_cells, 1);
        assert_eq!(report.sources, ["flight", "health", "audit"]);
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);

        let failed = report
            .cells
            .iter()
            .find(|c| c.policy == "two-lru")
            .expect("failing cell present");
        assert_eq!(failed.workload, "w.trace");
        assert_eq!(failed.trigger, "panic");
        assert_eq!(failed.final_access, 499);
        assert!(failed.correlated_signals >= 2, "{failed:?}");
        // The audit violation is anchored 28 accesses before the
        // failure and sorts before the flight ring's last event.
        let audit_signal = failed
            .signals
            .iter()
            .find(|s| s.source == "audit")
            .expect("audit signal");
        assert_eq!(audit_signal.access, Some(471));
        assert!(
            audit_signal.detail.contains("28 accesses before"),
            "{}",
            audit_signal.detail
        );
        let anchored: Vec<Option<u64>> = failed
            .signals
            .iter()
            .filter_map(|s| s.access.map(Some))
            .collect();
        let mut sorted = anchored.clone();
        sorted.sort_unstable();
        assert_eq!(anchored, sorted, "anchored signals ascend");
        let health_signal = failed
            .signals
            .iter()
            .find(|s| s.source == "health")
            .expect("health signal");
        assert!(
            health_signal.detail.contains("quarantined after 2"),
            "{}",
            health_signal.detail
        );

        let completed = report
            .cells
            .iter()
            .find(|c| c.policy == "dram-only")
            .expect("completed cell present");
        assert_eq!(completed.trigger, "completed");
        assert!(completed
            .signals
            .iter()
            .any(|s| s.source == "health" && s.detail.contains("completed")));
    }

    #[test]
    fn metrics_and_ledger_streams_enrich_the_timeline() {
        let flight = flight_dump();
        let metrics = concat!(
            r#"{"workload":"w.trace","policy":"two-lru","interval":0,"start_access":0,"end_access":1000,"accesses":1000,"faults":80,"hit_ratio":0.915,"amat_ns":100.0}"#,
            "\n",
            "not json\n",
        );
        let ledger = concat!(
            r#"{"workload":"w.trace","policy":"two-lru","accesses":500,"warmup_accesses":0,"summary":{"pages":120,"faults":80,"ping_pongs":9,"ping_pong_pages":4}}"#,
            "\n",
            r#"{"page":17,"summary":{"accesses":40,"promotions_read":3,"promotions_write":1,"promotions_unattributed":0,"demotions_fault":2,"demotions_swap":1,"ping_pongs":3},"events":[],"dropped_events":0}"#,
            "\n",
        );
        let report = correlate(&PostmortemInputs {
            flight: &flight,
            metrics: Some(metrics),
            ledger: Some(ledger),
            ..PostmortemInputs::default()
        })
        .expect("correlates");
        assert_eq!(report.warnings.len(), 1, "{:?}", report.warnings);

        let failed = report
            .cells
            .iter()
            .find(|c| c.policy == "two-lru")
            .expect("failing cell");
        let metrics_signal = failed
            .signals
            .iter()
            .find(|s| s.source == "metrics")
            .expect("metrics signal");
        assert!(
            metrics_signal.detail.contains("interval 0"),
            "{}",
            metrics_signal.detail
        );
        assert!(
            metrics_signal.detail.contains("hit ratio 0.915"),
            "lexeme preserved: {}",
            metrics_signal.detail
        );
        let ledger_signal = failed
            .signals
            .iter()
            .find(|s| s.source == "ledger")
            .expect("ledger signal");
        assert!(
            ledger_signal
                .detail
                .contains("hottest page 17: 7 migrations"),
            "{}",
            ledger_signal.detail
        );
    }

    #[test]
    fn journal_stream_marks_completed_and_missing_cells() {
        // Build a faithful journal by hand: header + one record.
        let payload = br#"{"workload":"w.trace","policy":"dram-only","report":{}}"#;
        let mut journal = Vec::new();
        journal.extend_from_slice(b"HMJRNL1\0");
        journal.extend_from_slice(&1u32.to_le_bytes());
        journal.extend_from_slice(&0xABCDu64.to_le_bytes());
        journal.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        journal.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        journal.extend_from_slice(payload);
        // A torn tail: a frame header with no payload behind it.
        journal.extend_from_slice(&64u32.to_le_bytes());
        journal.extend_from_slice(&0u64.to_le_bytes());
        journal.extend_from_slice(b"{\"wo");

        let flight = flight_dump();
        let report = correlate(&PostmortemInputs {
            flight: &flight,
            journal: Some(&journal),
            ..PostmortemInputs::default()
        })
        .expect("correlates");
        assert!(
            report.warnings.iter().any(|w| w.contains("torn")),
            "{:?}",
            report.warnings
        );
        let completed = report
            .cells
            .iter()
            .find(|c| c.policy == "dram-only")
            .expect("cell");
        assert!(completed
            .signals
            .iter()
            .any(|s| s.source == "journal" && s.detail.contains("journaled as completed")));
        let failed = report
            .cells
            .iter()
            .find(|c| c.policy == "two-lru")
            .expect("cell");
        assert!(failed
            .signals
            .iter()
            .any(|s| s.source == "journal" && s.detail.contains("absent")));
    }

    #[test]
    fn failed_cells_missing_from_the_flight_dump_become_warnings() {
        let flight = r#"{"schema": "hybridmem-flight-v1", "cells": [],
                         "dumped_cells": 0, "triggered_cells": 0}"#;
        let health = health_report();
        let report = correlate(&PostmortemInputs {
            flight,
            health: Some(&health),
            ..PostmortemInputs::default()
        })
        .expect("correlates");
        assert!(report.cells.is_empty());
        assert!(
            report
                .warnings
                .iter()
                .any(|w| w.contains("w.trace/two-lru") && w.contains("no record")),
            "{:?}",
            report.warnings
        );
    }

    #[test]
    fn rejects_foreign_or_unreadable_required_inputs() {
        let err = correlate(&PostmortemInputs {
            flight: "{\"schema\": \"other\"}",
            ..PostmortemInputs::default()
        })
        .unwrap_err();
        assert!(err.contains("hybridmem-flight-v1"), "{err}");
        assert!(correlate(&PostmortemInputs {
            flight: "not json",
            ..PostmortemInputs::default()
        })
        .is_err());
        let flight = flight_dump();
        let err = correlate(&PostmortemInputs {
            flight: &flight,
            health: Some("{\"schema\": \"other\"}"),
            ..PostmortemInputs::default()
        })
        .unwrap_err();
        assert!(err.contains("matrix-health"), "{err}");
    }

    #[test]
    fn report_json_round_trips_and_names_the_failing_cell() {
        let flight = flight_dump();
        let health = health_report();
        let audit = audit_report();
        let report = correlate(&PostmortemInputs {
            flight: &flight,
            health: Some(&health),
            audit: Some(&audit),
            ..PostmortemInputs::default()
        })
        .expect("correlates");
        let json = postmortem_report(&report);
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some(POSTMORTEM_SCHEMA)
        );
        assert_eq!(json.get("triggered_cells").and_then(Json::as_u64), Some(1));
        let text = json.emit_pretty();
        let reparsed = parse(&text).expect("own output parses");
        assert_eq!(reparsed.emit_pretty(), text, "byte round-trip");
        assert!(text.contains("\"two-lru\""));
        assert!(text.contains("\"final_access\": 499"));
    }
}
