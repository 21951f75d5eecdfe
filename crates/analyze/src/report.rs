//! The stable `hybridmem-analyze-v1` report.
//!
//! `analyze diff --json` writes it, in an envelope a script can gate on:
//!
//! ```json
//! {
//!   "schema": "hybridmem-analyze-v1",
//!   "mode": "diff",
//!   "regressions": 0,
//!   "clean": true,
//!   ...the diff body...
//! }
//! ```
//!
//! The emission is canonical ([`render`]: 2-space pretty, insertion-ordered
//! keys, shortest-round-trip floats, a trailing newline), so emit → parse
//! → emit is the byte identity — [`round_trips`] checks exactly that, and
//! `hybridmem analyze check` runs it on a report file.

use crate::diff::DiffReport;
use crate::json::{parse, Json};

/// The report schema identifier.
pub const ANALYZE_SCHEMA: &str = "hybridmem-analyze-v1";

/// The canonical file form of a report: the workspace's pretty JSON plus
/// a trailing newline.
#[must_use]
pub fn render(json: &Json) -> String {
    let mut text = json.emit_pretty();
    text.push('\n');
    text
}

/// Renders a diff comparison as `hybridmem-analyze-v1`.
///
/// `ingest_warnings` counts the JSONL lines skipped while loading both
/// inputs (see [`crate::ingest::Loaded`]); it is carried in the report
/// so a gate passing on degraded telemetry is visible after the fact.
#[must_use]
pub fn diff_report(
    a_label: &str,
    b_label: &str,
    report: &DiffReport,
    ingest_warnings: u64,
) -> Json {
    let cells = report
        .cells
        .iter()
        .map(|cell| {
            let metrics = cell
                .metrics
                .iter()
                .map(|m| {
                    Json::Object(vec![
                        ("metric".to_owned(), Json::str(&m.metric)),
                        ("a".to_owned(), Json::f64(m.a)),
                        ("b".to_owned(), Json::f64(m.b)),
                        ("delta".to_owned(), Json::f64(m.delta)),
                        ("relative".to_owned(), Json::f64(m.relative)),
                        ("regressed".to_owned(), Json::Bool(m.regressed)),
                    ])
                })
                .collect();
            Json::Object(vec![
                ("workload".to_owned(), Json::str(&cell.workload)),
                ("policy".to_owned(), Json::str(&cell.policy)),
                ("metrics".to_owned(), Json::Array(metrics)),
            ])
        })
        .collect();
    let labels = |items: &[String]| Json::Array(items.iter().map(Json::str).collect());
    Json::Object(vec![
        ("schema".to_owned(), Json::str(ANALYZE_SCHEMA)),
        ("mode".to_owned(), Json::str("diff")),
        ("regressions".to_owned(), Json::u64(report.regressions)),
        ("clean".to_owned(), Json::Bool(report.regressions == 0)),
        ("a".to_owned(), Json::str(a_label)),
        ("b".to_owned(), Json::str(b_label)),
        ("threshold".to_owned(), Json::f64(report.threshold)),
        ("cells".to_owned(), Json::Array(cells)),
        ("only_a".to_owned(), labels(&report.only_a)),
        ("only_b".to_owned(), labels(&report.only_b)),
        ("ingest_warnings".to_owned(), Json::u64(ingest_warnings)),
    ])
}

/// Verifies that `text` is a `hybridmem-analyze-v1` report whose
/// canonical re-emission reproduces it byte-for-byte.
///
/// # Errors
///
/// Returns a message describing the first divergence: unparseable text,
/// a different schema, or a byte-level mismatch (with its offset).
pub fn round_trips(text: &str) -> Result<(), String> {
    let doc = parse(text)?;
    let schema = doc.get("schema").and_then(Json::as_str);
    if schema != Some(ANALYZE_SCHEMA) {
        return Err(format!("schema is {schema:?}, expected {ANALYZE_SCHEMA:?}"));
    }
    let reemitted = render(&doc);
    if reemitted == text {
        return Ok(());
    }
    let offset = reemitted
        .bytes()
        .zip(text.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| reemitted.len().min(text.len()));
    Err(format!(
        "re-emission diverges from the input at byte {offset}: the file \
         was not written by this analyzer version"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{diff, profile_intervals};
    use crate::ingest::IntervalStat;

    fn interval(amat: f64) -> IntervalStat {
        IntervalStat {
            workload: "w".to_owned(),
            policy: "two-lru".to_owned(),
            interval: 0,
            accesses: 1000,
            faults: 10,
            dram_hits: 500,
            nvm_hits: 400,
            migrations_to_dram: 3,
            migrations_to_nvm: 1,
            fills: 10,
            evictions: 8,
            dram_occupancy: 5,
            nvm_occupancy: 50,
            hit_ratio: 0.9,
            amat_ns: amat,
            appr_nj: 1.0,
        }
    }

    #[test]
    fn diff_reports_round_trip() {
        let a = profile_intervals(&[interval(100.0)]);
        let b = profile_intervals(&[interval(173.0)]);
        let json = diff_report("a.jsonl", "b.jsonl", &diff(&a, &b, 0.05), 2);
        assert_eq!(json.get("mode").and_then(Json::as_str), Some("diff"));
        assert_eq!(json.get("clean"), Some(&Json::Bool(false)));
        assert_eq!(json.get("ingest_warnings").and_then(Json::as_u64), Some(2));
        round_trips(&render(&json)).expect("byte round-trip");
    }

    #[test]
    fn round_trip_rejects_foreign_documents() {
        assert!(round_trips("{\"schema\": \"other\"}\n").is_err());
        assert!(round_trips("nonsense").is_err());
        // Same data, different formatting: parses, but is not canonical.
        let a = profile_intervals(&[interval(1.0)]);
        let json = diff_report("a.jsonl", "a.jsonl", &diff(&a, &a, 0.05), 0);
        let compact = render(&json).replace('\n', "");
        assert!(round_trips(&compact).unwrap_err().contains("byte"));
    }
}
