//! Aligned plain-text tables for the human-facing `analyze` output.
//!
//! Every renderer feeds one shared aligner: label columns flush left,
//! value columns flush right, two spaces between columns, a dash rule
//! under the header. Values print as integers when they are whole,
//! with three decimals otherwise, so counter-dominated tables stay
//! narrow.

use crate::diff::DiffReport;
use crate::ingest::MetricsStat;
use crate::postmortem::PostmortemReport;

/// Formats a value: whole numbers without a fraction, others with three
/// decimals.
#[must_use]
pub fn value(v: f64) -> String {
    if (v - v.round()).abs() < 1e-9 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

fn percent(relative: f64) -> String {
    format!("{:+.1}%", relative * 100.0)
}

/// Renders rows under a header; the first `labels` columns align left,
/// the rest right.
fn render(header: &[&str], labels: usize, rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        #[expect(clippy::indexing_slicing, reason = "widths was grown to cover i above")]
        for (i, cell) in row.iter().enumerate() {
            if i >= widths.len() {
                widths.push(0);
            }
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let mut line = |cells: &[String]| {
        let rendered: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                let width = widths.get(i).copied().unwrap_or(0);
                if i < labels {
                    format!("{cell:<width$}")
                } else {
                    format!("{cell:>width$}")
                }
            })
            .collect();
        out.push_str(rendered.join("  ").trim_end());
        out.push('\n');
    };
    line(&header.iter().map(|h| (*h).to_owned()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
    out
}

/// Renders an A-vs-B diff, one row per (cell, metric).
#[must_use]
pub fn diff_table(report: &DiffReport) -> String {
    let mut rows = Vec::new();
    for cell in &report.cells {
        for m in &cell.metrics {
            rows.push(vec![
                cell.workload.clone(),
                cell.policy.clone(),
                m.metric.clone(),
                value(m.a),
                value(m.b),
                percent(m.relative),
                if m.regressed { "REGRESSED" } else { "" }.to_owned(),
            ]);
        }
    }
    let mut out = render(
        &["workload", "policy", "metric", "a", "b", "rel", "verdict"],
        3,
        &rows,
    );
    for label in &report.only_a {
        out.push_str(&format!("only in A: {label}\n"));
    }
    for label in &report.only_b {
        out.push_str(&format!("only in B: {label}\n"));
    }
    out.push_str(&format!(
        "{} regressed metric(s) at threshold {}\n",
        report.regressions,
        percent(report.threshold)
    ));
    out
}

/// Renders a metrics snapshot: histogram quantiles first, then counters
/// and gauges.
#[must_use]
pub fn metrics_table(stat: &MetricsStat) -> String {
    let histogram_rows: Vec<Vec<String>> = stat
        .histograms
        .iter()
        .map(|h| {
            vec![
                h.name.clone(),
                h.count.to_string(),
                h.min.to_string(),
                h.p50.to_string(),
                h.p95.to_string(),
                h.p99.to_string(),
                h.max.to_string(),
            ]
        })
        .collect();
    let mut out = render(
        &["histogram", "count", "min", "p50", "p95", "p99", "max"],
        1,
        &histogram_rows,
    );
    let scalar_rows: Vec<Vec<String>> = stat
        .counters
        .iter()
        .map(|(name, v)| vec![name.clone(), v.to_string()])
        .chain(
            stat.gauges
                .iter()
                .map(|(name, v)| vec![name.clone(), value(*v)]),
        )
        .collect();
    if !scalar_rows.is_empty() {
        out.push('\n');
        out.push_str(&render(&["scalar", "value"], 1, &scalar_rows));
    }
    out
}

/// Renders a postmortem correlation: one block per flight-dumped cell
/// (a preamble line, then its signal timeline), followed by warnings.
#[must_use]
pub fn postmortem_table(report: &PostmortemReport) -> String {
    let mut out = String::new();
    for cell in &report.cells {
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(&format!(
            "cell {}/{} — trigger {}, final access {}, {} accesses, {} retried attempt(s)\n",
            cell.workload,
            cell.policy,
            cell.trigger,
            cell.final_access,
            cell.accesses,
            cell.retries,
        ));
        if let Some(error) = &cell.error {
            out.push_str(&format!("  error: {error}\n"));
        }
        let rows: Vec<Vec<String>> = cell
            .signals
            .iter()
            .map(|s| {
                vec![
                    s.source.clone(),
                    s.access.map_or_else(|| "-".to_owned(), |a| a.to_string()),
                    s.detail.clone(),
                ]
            })
            .collect();
        out.push_str(&render(&["source", "access", "detail"], 3, &rows));
    }
    for warning in &report.warnings {
        out.push_str(&format!("warning: {warning}\n"));
    }
    out.push_str(&format!(
        "{} flight cell(s), {} triggered; sources: {}\n",
        report.cells.len(),
        report.triggered_cells,
        report.sources.join(", ")
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{diff, profile_intervals};
    use crate::ingest::{HistogramStat, IntervalStat};

    #[test]
    fn values_print_whole_or_three_decimals() {
        assert_eq!(value(4.0), "4");
        assert_eq!(value(0.915), "0.915");
        assert_eq!(value(312.5), "312.500");
        assert_eq!(value(-3.0), "-3");
    }

    #[test]
    fn columns_align_and_trailing_space_is_trimmed() {
        let out = render(
            &["name", "v"],
            1,
            &[
                vec!["a".to_owned(), "1".to_owned()],
                vec!["longer".to_owned(), "22".to_owned()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "name     v");
        assert_eq!(lines[1], "------  --");
        assert_eq!(lines[2], "a        1");
        assert_eq!(lines[3], "longer  22");
        assert!(out.lines().all(|l| l == l.trim_end()));
    }

    #[test]
    fn diff_table_marks_regressions_and_strays() {
        fn interval(policy: &str, amat: f64) -> IntervalStat {
            IntervalStat {
                workload: "w".to_owned(),
                policy: policy.to_owned(),
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
        let a = profile_intervals(&[interval("two-lru", 100.0), interval("clock-dwf", 100.0)]);
        let b = profile_intervals(&[interval("two-lru", 150.0)]);
        let out = diff_table(&diff(&a, &b, 0.05));
        assert!(out.contains("REGRESSED"));
        assert!(out.contains("+50.0%"));
        assert!(out.contains("only in A: w/clock-dwf"));
        assert!(out.contains("1 regressed metric(s)"));
    }

    #[test]
    fn postmortem_table_shows_cells_signals_and_warnings() {
        let report = PostmortemReport {
            sources: vec!["flight".to_owned(), "health".to_owned()],
            triggered_cells: 1,
            cells: vec![crate::postmortem::CellTimeline {
                workload: "w.trace".to_owned(),
                policy: "two-lru".to_owned(),
                trigger: "panic".to_owned(),
                error: Some("injected fault".to_owned()),
                retries: 2,
                accesses: 500,
                final_access: 499,
                events_dropped: 436,
                signals: vec![
                    crate::postmortem::Signal {
                        source: "flight".to_owned(),
                        access: Some(499),
                        detail: "last recorded event: page 9 write served from dram".to_owned(),
                    },
                    crate::postmortem::Signal {
                        source: "health".to_owned(),
                        access: None,
                        detail: "quarantined after 2 retries (panic): injected fault".to_owned(),
                    },
                ],
                correlated_signals: 1,
            }],
            warnings: vec!["metrics line 2: unparseable".to_owned()],
        };
        let out = postmortem_table(&report);
        assert!(out.contains("cell w.trace/two-lru — trigger panic, final access 499"));
        assert!(out.contains("error: injected fault"));
        assert!(out.contains("quarantined after 2 retries"));
        assert!(out.contains("warning: metrics line 2"));
        assert!(out.contains("1 flight cell(s), 1 triggered; sources: flight, health"));
        assert!(out.lines().all(|l| l == l.trim_end()));
    }

    #[test]
    fn metrics_table_shows_quantiles_and_scalars() {
        let stat = MetricsStat {
            counters: vec![("sim.accesses".to_owned(), 100)],
            gauges: vec![("load".to_owned(), 0.5)],
            histograms: vec![HistogramStat {
                name: "latency".to_owned(),
                count: 3,
                sum: 30,
                min: 5,
                max: 20,
                p50: 10,
                p95: 20,
                p99: 20,
            }],
        };
        let out = metrics_table(&stat);
        assert!(out.contains("p95"));
        assert!(out.contains("latency"));
        assert!(out.contains("sim.accesses"));
        assert!(out.contains("0.5"));
    }
}
