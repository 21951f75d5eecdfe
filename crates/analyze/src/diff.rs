//! Per-cell deltas between two runs of the same matrix.
//!
//! Windowed records are first rolled up per `(workload, policy)` cell
//! into a named metric list ([`CellProfile`]); ledger roll-ups reduce to
//! the same shape. [`diff`] then matches cells across the two runs and
//! reports absolute and relative deltas per metric, flagging the ones
//! where the *worse* direction moved beyond the threshold.

use crate::ingest::{IntervalStat, LedgerStat};

/// Which direction of change is a regression for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Worse {
    /// Growth is bad (latency, faults, energy).
    Higher,
    /// Shrinkage is bad (hit ratio).
    Lower,
    /// Neither direction is inherently bad (occupancy, window count).
    Neither,
}

/// One cell's roll-up: named metric values in a stable order.
#[derive(Debug, Clone, PartialEq)]
pub struct CellProfile {
    /// Workload name.
    pub workload: String,
    /// Policy name.
    pub policy: String,
    /// `(metric, value, worse-direction)` rows, in presentation order.
    pub metrics: Vec<(String, f64, Worse)>,
}

fn count(value: u64) -> f64 {
    value as f64
}

/// Rolls windowed records up per cell, in first-seen order (the JSONL
/// is written spec-major in kinds order, which the tables keep).
/// Ratios and per-request figures are access-weighted means.
#[must_use]
pub fn profile_intervals(records: &[IntervalStat]) -> Vec<CellProfile> {
    struct Tally {
        workload: String,
        policy: String,
        windows: u64,
        accesses: u64,
        faults: u64,
        dram_hits: u64,
        nvm_hits: u64,
        migrations: u64,
        fills: u64,
        evictions: u64,
        amat_weighted: f64,
        appr_weighted: f64,
        final_dram: u64,
        final_nvm: u64,
    }
    let mut tallies: Vec<Tally> = Vec::new();
    for record in records {
        let position = tallies
            .iter()
            .position(|t| t.workload == record.workload && t.policy == record.policy);
        #[expect(
            clippy::indexing_slicing,
            clippy::expect_used,
            reason = "position indexes tallies, and the other arm just pushed"
        )]
        let tally = match position {
            Some(index) => &mut tallies[index],
            None => {
                tallies.push(Tally {
                    workload: record.workload.clone(),
                    policy: record.policy.clone(),
                    windows: 0,
                    accesses: 0,
                    faults: 0,
                    dram_hits: 0,
                    nvm_hits: 0,
                    migrations: 0,
                    fills: 0,
                    evictions: 0,
                    amat_weighted: 0.0,
                    appr_weighted: 0.0,
                    final_dram: 0,
                    final_nvm: 0,
                });
                tallies.last_mut().expect("just pushed")
            }
        };
        tally.windows += 1;
        tally.accesses += record.accesses;
        tally.faults += record.faults;
        tally.dram_hits += record.dram_hits;
        tally.nvm_hits += record.nvm_hits;
        tally.migrations += record.migrations_to_dram + record.migrations_to_nvm;
        tally.fills += record.fills;
        tally.evictions += record.evictions;
        tally.amat_weighted += record.amat_ns * count(record.accesses);
        tally.appr_weighted += record.appr_nj * count(record.accesses);
        tally.final_dram = record.dram_occupancy;
        tally.final_nvm = record.nvm_occupancy;
    }
    tallies
        .into_iter()
        .map(|t| {
            let per_access = |weighted: f64| {
                if t.accesses > 0 {
                    weighted / count(t.accesses)
                } else {
                    0.0
                }
            };
            let hit_ratio = per_access(count(t.dram_hits + t.nvm_hits));
            CellProfile {
                workload: t.workload,
                policy: t.policy,
                metrics: vec![
                    ("windows".to_owned(), count(t.windows), Worse::Neither),
                    ("accesses".to_owned(), count(t.accesses), Worse::Neither),
                    ("hit_ratio".to_owned(), hit_ratio, Worse::Lower),
                    (
                        "amat_ns".to_owned(),
                        per_access(t.amat_weighted),
                        Worse::Higher,
                    ),
                    (
                        "appr_nj".to_owned(),
                        per_access(t.appr_weighted),
                        Worse::Higher,
                    ),
                    ("faults".to_owned(), count(t.faults), Worse::Higher),
                    ("migrations".to_owned(), count(t.migrations), Worse::Neither),
                    ("fills".to_owned(), count(t.fills), Worse::Neither),
                    ("evictions".to_owned(), count(t.evictions), Worse::Neither),
                    (
                        "dram_occupancy".to_owned(),
                        count(t.final_dram),
                        Worse::Neither,
                    ),
                    (
                        "nvm_occupancy".to_owned(),
                        count(t.final_nvm),
                        Worse::Neither,
                    ),
                ],
            }
        })
        .collect()
}

/// Reduces ledger roll-ups to the shared cell-profile shape.
#[must_use]
pub fn profile_ledgers(stats: &[LedgerStat]) -> Vec<CellProfile> {
    stats
        .iter()
        .map(|s| CellProfile {
            workload: s.workload.clone(),
            policy: s.policy.clone(),
            metrics: vec![
                ("accesses".to_owned(), count(s.accesses), Worse::Neither),
                ("pages".to_owned(), count(s.pages), Worse::Neither),
                ("faults".to_owned(), count(s.faults), Worse::Higher),
                ("promotions".to_owned(), count(s.promotions), Worse::Neither),
                ("demotions".to_owned(), count(s.demotions), Worse::Neither),
                ("evictions".to_owned(), count(s.evictions), Worse::Neither),
                ("ping_pongs".to_owned(), count(s.ping_pongs), Worse::Higher),
            ],
        })
        .collect()
}

/// One metric's movement between run A and run B.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Metric name.
    pub metric: String,
    /// Run A's value.
    pub a: f64,
    /// Run B's value.
    pub b: f64,
    /// `b - a`.
    pub delta: f64,
    /// `(b - a) / |a|`, or 0 when A is 0.
    pub relative: f64,
    /// True when the worse direction moved beyond the threshold.
    pub regressed: bool,
}

/// One cell's deltas.
#[derive(Debug, Clone, PartialEq)]
pub struct CellDelta {
    /// Workload name.
    pub workload: String,
    /// Policy name.
    pub policy: String,
    /// Per-metric deltas, in profile order.
    pub metrics: Vec<MetricDelta>,
}

/// The full A-vs-B comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Cells present in both runs, in run A's order.
    pub cells: Vec<CellDelta>,
    /// `workload/policy` labels only run A has.
    pub only_a: Vec<String>,
    /// `workload/policy` labels only run B has.
    pub only_b: Vec<String>,
    /// The relative threshold regressions were judged against.
    pub threshold: f64,
    /// Total regressed metrics across all cells.
    pub regressions: u64,
}

/// Compares two profiled runs. `threshold` is the relative movement in
/// a metric's worse direction that counts as a regression (e.g. `0.05`
/// = 5 % worse).
#[must_use]
pub fn diff(a: &[CellProfile], b: &[CellProfile], threshold: f64) -> DiffReport {
    let mut cells = Vec::new();
    let mut only_a = Vec::new();
    let mut regressions = 0;
    for cell_a in a {
        let Some(cell_b) = b
            .iter()
            .find(|c| c.workload == cell_a.workload && c.policy == cell_a.policy)
        else {
            only_a.push(format!("{}/{}", cell_a.workload, cell_a.policy));
            continue;
        };
        let mut metrics = Vec::new();
        for (metric, value_a, worse) in &cell_a.metrics {
            let Some((_, value_b, _)) = cell_b.metrics.iter().find(|(name, _, _)| name == metric)
            else {
                continue;
            };
            let delta = value_b - value_a;
            let relative = if value_a.abs() > 0.0 {
                delta / value_a.abs()
            } else {
                0.0
            };
            let regressed = match worse {
                Worse::Higher => relative > threshold,
                Worse::Lower => relative < -threshold,
                Worse::Neither => false,
            };
            if regressed {
                regressions += 1;
            }
            metrics.push(MetricDelta {
                metric: metric.clone(),
                a: *value_a,
                b: *value_b,
                delta,
                relative,
                regressed,
            });
        }
        cells.push(CellDelta {
            workload: cell_a.workload.clone(),
            policy: cell_a.policy.clone(),
            metrics,
        });
    }
    let only_b = b
        .iter()
        .filter(|cell_b| {
            !a.iter()
                .any(|c| c.workload == cell_b.workload && c.policy == cell_b.policy)
        })
        .map(|c| format!("{}/{}", c.workload, c.policy))
        .collect();
    DiffReport {
        cells,
        only_a,
        only_b,
        threshold,
        regressions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interval(policy: &str, interval: u64, accesses: u64, amat: f64) -> IntervalStat {
        IntervalStat {
            workload: "w".to_owned(),
            policy: policy.to_owned(),
            interval,
            accesses,
            faults: 10,
            dram_hits: accesses / 2,
            nvm_hits: accesses / 4,
            migrations_to_dram: 3,
            migrations_to_nvm: 1,
            fills: 10,
            evictions: 8,
            dram_occupancy: 5,
            nvm_occupancy: 50,
            hit_ratio: 0.75,
            amat_ns: amat,
            appr_nj: 1.0,
        }
    }

    #[test]
    fn interval_rollup_weights_by_accesses() {
        let records = [
            interval("two-lru", 0, 1000, 100.0),
            interval("two-lru", 1, 3000, 200.0),
            interval("clock-dwf", 0, 1000, 400.0),
        ];
        let profiles = profile_intervals(&records);
        assert_eq!(profiles.len(), 2);
        let two_lru = &profiles[0];
        assert_eq!(two_lru.policy, "two-lru");
        let amat = two_lru
            .metrics
            .iter()
            .find(|(name, _, _)| name == "amat_ns")
            .map(|(_, value, _)| *value)
            .expect("amat present");
        // (1000*100 + 3000*200) / 4000 = 175.
        assert!((amat - 175.0).abs() < 1e-9, "{amat}");
        let windows = two_lru.metrics[0].1;
        assert!((windows - 2.0).abs() < 1e-12);
    }

    #[test]
    fn diff_flags_only_worse_direction_moves() {
        let records_a = [interval("two-lru", 0, 1000, 100.0)];
        let records_b = [interval("two-lru", 0, 1000, 120.0)];
        let report = diff(
            &profile_intervals(&records_a),
            &profile_intervals(&records_b),
            0.05,
        );
        assert_eq!(report.cells.len(), 1);
        let amat = report.cells[0]
            .metrics
            .iter()
            .find(|m| m.metric == "amat_ns")
            .expect("amat present");
        assert!(amat.regressed, "20% worse AMAT beats the 5% threshold");
        assert!((amat.relative - 0.2).abs() < 1e-9);
        assert_eq!(report.regressions, 1);

        // The improvement direction never regresses.
        let improved = diff(
            &profile_intervals(&records_b),
            &profile_intervals(&records_a),
            0.05,
        );
        assert_eq!(improved.regressions, 0);
    }

    #[test]
    fn diff_reports_unmatched_cells() {
        let a = profile_intervals(&[interval("two-lru", 0, 100, 1.0)]);
        let b = profile_intervals(&[interval("clock-dwf", 0, 100, 1.0)]);
        let report = diff(&a, &b, 0.05);
        assert!(report.cells.is_empty());
        assert_eq!(report.only_a, vec!["w/two-lru"]);
        assert_eq!(report.only_b, vec!["w/clock-dwf"]);
    }

    #[test]
    fn ledger_profiles_reduce_summary_counts() {
        let stats = [LedgerStat {
            workload: "w".to_owned(),
            policy: "two-lru".to_owned(),
            accesses: 1000,
            pages: 64,
            faults: 100,
            promotions: 11,
            demotions: 10,
            evictions: 90,
            ping_pongs: 3,
        }];
        let profiles = profile_ledgers(&stats);
        assert_eq!(profiles[0].metrics.len(), 7);
        assert!((profiles[0].metrics[3].1 - 11.0).abs() < 1e-12);
    }
}
