//! The bench-trajectory ratchet: noise-aware regression detection over
//! the committed `BENCH_*.json` history.
//!
//! Wall-clock throughput is noisy, so the detector compares the newest
//! point against the *median* of the prior comparable points per series
//! (each `hybridmem-stress-v1` phase and policy), with a relative
//! threshold: a series regresses only when the newest rate falls more
//! than `threshold` below that median. Points are comparable when their
//! workload shape matches (same `quick`, `cap`, `seed`); mixing full and
//! quick runs would gate noise, not regressions.
//!
//! The gate stays advisory until the history holds at least
//! [`TrajectoryOptions::min_points`] comparable points — a median of one
//! prior run is just that run's noise.

use crate::ingest::BenchPoint;

/// Detector knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryOptions {
    /// Relative drop below the prior median that counts as a regression
    /// (0.25 = 25 % slower).
    pub threshold: f64,
    /// Comparable points (newest included) required before the gate
    /// enforces; below this the verdicts are advisory.
    pub min_points: usize,
}

impl Default for TrajectoryOptions {
    fn default() -> Self {
        Self {
            threshold: 0.25,
            min_points: 3,
        }
    }
}

/// One series' verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesVerdict {
    /// Series name (`phase/...` or `policy/...`).
    pub series: String,
    /// The newest point's rate, accesses/second.
    pub latest: f64,
    /// Median rate of the prior comparable points (0 when none carried
    /// this series).
    pub median_prior: f64,
    /// `latest / median_prior` (1.0 when no priors).
    pub ratio: f64,
    /// Latest fell more than the threshold below the prior median.
    pub regressed: bool,
    /// Latest rose more than the threshold above the prior median.
    pub improved: bool,
}

/// The rolled trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryReport {
    /// All points, sorted by trajectory index then name.
    pub points: Vec<BenchPoint>,
    /// Points comparable with the newest (newest included).
    pub comparable: usize,
    /// Whether the history is deep enough for the gate to enforce.
    pub enforceable: bool,
    /// The threshold used.
    pub threshold: f64,
    /// Per-series verdicts for the newest point, in its series order.
    pub verdicts: Vec<SeriesVerdict>,
    /// Regressed series count.
    pub regressions: u64,
}

/// Median of an unsorted sample (mean of the middle two when even).
#[expect(clippy::indexing_slicing, reason = "values is non-empty here")]
fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        f64::midpoint(values[mid - 1], values[mid])
    }
}

/// Rolls the history and judges the newest point.
///
/// Points are sorted by `BENCH_<n>` index (then name) first, so callers
/// can pass files in any order; "newest" is the highest-indexed point.
#[must_use]
pub fn roll(mut points: Vec<BenchPoint>, options: TrajectoryOptions) -> TrajectoryReport {
    points.sort_by(|a, b| (a.index, &a.name).cmp(&(b.index, &b.name)));
    let Some(latest) = points.last().cloned() else {
        return TrajectoryReport {
            points,
            comparable: 0,
            enforceable: false,
            threshold: options.threshold,
            verdicts: Vec::new(),
            regressions: 0,
        };
    };
    #[expect(clippy::indexing_slicing, reason = "points holds latest: non-empty")]
    let priors: Vec<&BenchPoint> = points[..points.len() - 1]
        .iter()
        .filter(|p| p.comparable(&latest))
        .collect();
    let comparable = priors.len() + 1;
    let enforceable = comparable >= options.min_points.max(1);
    let mut verdicts = Vec::new();
    let mut regressions = 0;
    for (series, rate) in latest.series() {
        let mut sample: Vec<f64> = priors
            .iter()
            .flat_map(|p| p.series())
            .filter(|(name, _)| *name == series)
            .map(|(_, rate)| rate)
            .collect();
        let median_prior = median(&mut sample);
        let (ratio, regressed, improved) = if median_prior > 0.0 {
            let ratio = rate / median_prior;
            (
                ratio,
                ratio < 1.0 - options.threshold,
                ratio > 1.0 + options.threshold,
            )
        } else {
            (1.0, false, false)
        };
        if regressed {
            regressions += 1;
        }
        verdicts.push(SeriesVerdict {
            series,
            latest: rate,
            median_prior,
            ratio,
            regressed,
            improved,
        });
    }
    TrajectoryReport {
        points,
        comparable,
        enforceable,
        threshold: options.threshold,
        verdicts,
        regressions,
    }
}

impl TrajectoryReport {
    /// True when the gate should fail the build: enough history *and* at
    /// least one regressed series.
    #[must_use]
    pub fn gate_fails(&self) -> bool {
        self.enforceable && self.regressions > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(index: u64, batched: f64) -> BenchPoint {
        BenchPoint {
            name: format!("BENCH_{index}.json"),
            index: Some(index),
            quick: true,
            seed: 42,
            cap: 60_000,
            wall_seconds: 4.0,
            phases: vec![
                ("reference".to_owned(), 200_000.0),
                ("replay_batched".to_owned(), batched),
            ],
            policies: vec![("two-lru".to_owned(), batched)],
        }
    }

    #[test]
    fn median_of_priors_absorbs_one_noisy_run() {
        // Priors 400k, 90k (noise spike), 410k -> median 400k. The
        // newest 350k is within 25% of the median even though it is far
        // from the noisy minimum.
        let report = roll(
            vec![
                point(1, 400_000.0),
                point(2, 90_000.0),
                point(3, 410_000.0),
                point(4, 350_000.0),
            ],
            TrajectoryOptions::default(),
        );
        assert_eq!(report.comparable, 4);
        assert!(report.enforceable);
        let verdict = report
            .verdicts
            .iter()
            .find(|v| v.series == "phase/replay_batched")
            .expect("series present");
        assert!(!verdict.regressed, "{verdict:?}");
        assert!((verdict.median_prior - 400_000.0).abs() < 1e-9);
        assert!(!report.gate_fails());
    }

    #[test]
    fn a_real_drop_regresses_and_fails_the_gate() {
        let report = roll(
            vec![
                point(1, 400_000.0),
                point(2, 420_000.0),
                point(3, 410_000.0),
                point(4, 200_000.0),
            ],
            TrajectoryOptions::default(),
        );
        // replay_batched and the two-lru policy series both halved.
        assert_eq!(report.regressions, 2);
        assert!(report.gate_fails());
    }

    #[test]
    fn short_history_is_advisory() {
        let report = roll(
            vec![point(1, 400_000.0), point(2, 100_000.0)],
            TrajectoryOptions::default(),
        );
        assert_eq!(report.comparable, 2);
        assert!(!report.enforceable, "2 points < min_points");
        assert!(report.regressions > 0, "still reported");
        assert!(!report.gate_fails(), "but not enforced");
    }

    #[test]
    fn incomparable_points_are_excluded_from_the_sample() {
        let mut full_run = point(2, 50_000.0);
        full_run.quick = false;
        full_run.cap = 1_000_000;
        let report = roll(
            vec![point(1, 400_000.0), full_run, point(3, 390_000.0)],
            TrajectoryOptions::default(),
        );
        assert_eq!(report.comparable, 2, "the full run does not count");
        let verdict = &report.verdicts[1];
        assert!((verdict.median_prior - 400_000.0).abs() < 1e-9);
    }

    #[test]
    fn points_sort_by_index_not_argument_order() {
        let report = roll(
            vec![
                point(9, 100_000.0),
                point(2, 400_000.0),
                point(5, 410_000.0),
            ],
            TrajectoryOptions::default(),
        );
        assert_eq!(report.points[0].index, Some(2));
        assert_eq!(report.points[2].index, Some(9), "BENCH_9 is newest");
        assert!(report.gate_fails(), "the newest point halved");
    }

    #[test]
    fn improvements_are_marked_not_gated() {
        let report = roll(
            vec![
                point(1, 100_000.0),
                point(2, 100_000.0),
                point(3, 400_000.0),
            ],
            TrajectoryOptions::default(),
        );
        assert!(report.verdicts[1].improved);
        assert_eq!(report.regressions, 0);
    }

    #[test]
    fn empty_history_is_a_no_op() {
        let report = roll(Vec::new(), TrajectoryOptions::default());
        assert!(report.verdicts.is_empty());
        assert!(!report.gate_fails());
    }

    #[test]
    fn median_handles_even_samples() {
        let mut values = vec![4.0, 1.0, 3.0, 2.0];
        assert!((median(&mut values) - 2.5).abs() < 1e-12);
    }
}
