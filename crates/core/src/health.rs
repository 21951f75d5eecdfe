//! Per-cell failure isolation for the experiment matrix.
//!
//! Before this module, one panicking worker aborted the whole
//! `(workload × policy)` matrix and discarded every completed cell.
//! [`run_isolated`] wraps one cell in `catch_unwind`, retries a
//! panicking cell a bounded number of times (immediately and
//! sequentially, so the retry order is deterministic), and turns
//! whatever remains into a typed [`CellOutcome`] — the matrix
//! scheduler keeps going, quarantines the failure, and reports it
//! through the [`MatrixHealthReport`] (`hybridmem-matrix-health-v1`)
//! instead of throwing the run away.
//!
//! Typed [`Error`]s are **not** retried: a deterministic engine fails
//! the same way every time, so retrying an invalid configuration only
//! burns time. Panics are retried because the isolation layer cannot
//! know whether they are deterministic (an injected
//! [`FaultPlan`](crate::FaultPlan) `cell-panic` with `K` no larger
//! than [`MAX_CELL_RETRIES`] recovers exactly as a transient fault
//! would).
//!
//! A failing cell's black box travels with its failure: the cell driver
//! returns it beside a typed error ([`CellFailure`]) or re-raises a panic
//! with it in the payload, and the wrapper stamps the retries on the
//! record of the attempt that finally failed.
//!
//! Like every other report in this workspace, the health report
//! carries no wall-clock fields: the same matrix with the same fault
//! plan produces a byte-identical report at any thread count.

use std::io::Write;
use std::panic::AssertUnwindSafe;

use hybridmem_json::impl_json;
use hybridmem_types::Error;

use crate::FlightRecord;

/// Schema identifier of the matrix health JSON report.
pub const MATRIX_HEALTH_SCHEMA: &str = "hybridmem-matrix-health-v1";

/// Times a panicking cell is re-run before being quarantined (so a
/// cell gets `MAX_CELL_RETRIES + 1` attempts in total).
pub const MAX_CELL_RETRIES: u64 = 2;

/// What became of one isolated matrix cell.
#[derive(Debug)]
pub enum CellOutcome<T> {
    /// The cell completed, possibly after retried panics.
    Ok {
        /// The cell's result.
        value: T,
        /// Panicking attempts that preceded the success.
        retries: u64,
    },
    /// The cell was quarantined: a typed error, or a panic that
    /// survived the whole retry budget.
    Failed {
        /// The typed error, or the panic message wrapped as one.
        error: Error,
        /// Panicking attempts that were retried before giving up.
        retries: u64,
        /// True when the final failure was a panic rather than a
        /// typed error.
        panicked: bool,
        /// The black-box flight dump of the failing attempt, when a
        /// flight recorder was riding the cell (see [`crate::flightrec`]).
        flight: Option<Box<FlightRecord>>,
    },
}

impl<T> CellOutcome<T> {
    /// The success value, if the cell completed.
    pub fn ok(&self) -> Option<&T> {
        match self {
            Self::Ok { value, .. } => Some(value),
            Self::Failed { .. } => None,
        }
    }

    /// Converts into a plain `Result`, discarding retry bookkeeping.
    ///
    /// # Errors
    ///
    /// Returns the quarantined cell's typed error.
    pub fn into_result(self) -> Result<T, Error> {
        match self {
            Self::Ok { value, .. } => Ok(value),
            Self::Failed { error, .. } => Err(error),
        }
    }

    /// The health-report row for this outcome.
    #[must_use]
    pub fn health(&self, workload: &str, policy: &str) -> CellHealth {
        match self {
            Self::Ok { retries, .. } => CellHealth {
                workload: workload.to_owned(),
                policy: policy.to_owned(),
                status: CellStatus::Ok,
                retries: *retries,
                panicked: false,
                error: None,
            },
            Self::Failed {
                error,
                retries,
                panicked,
                ..
            } => CellHealth {
                workload: workload.to_owned(),
                policy: policy.to_owned(),
                status: CellStatus::Failed,
                retries: *retries,
                panicked: *panicked,
                error: Some(error.to_string()),
            },
        }
    }
}

/// Terminal state of one cell in the health report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// The cell produced its report.
    Ok,
    /// The cell was quarantined.
    Failed,
}

impl_json!(ToJson for CellStatus { Ok = "ok", Failed = "failed" });

/// One cell's row in the `hybridmem-matrix-health-v1` report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellHealth {
    /// Workload name of the cell.
    pub workload: String,
    /// Policy name of the cell.
    pub policy: String,
    /// Whether the cell completed or was quarantined.
    pub status: CellStatus,
    /// Panicking attempts that were retried.
    pub retries: u64,
    /// True when the cell's final failure was a panic.
    pub panicked: bool,
    /// The failure message, for quarantined cells.
    pub error: Option<String>,
}

impl_json!(ToJson for CellHealth {
    workload,
    policy,
    status,
    retries,
    panicked,
    error if Option::is_some,
});

/// The matrix-level health roll-up written by `--health-out`: every
/// cell's [`CellHealth`] under the `hybridmem-matrix-health-v1`
/// schema, plus totals CI can gate on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixHealthReport {
    /// Always [`MATRIX_HEALTH_SCHEMA`].
    pub schema: String,
    /// Per-cell health in matrix order (workload-major, policy-minor).
    pub cells: Vec<CellHealth>,
    /// Total cells in the matrix.
    pub total_cells: u64,
    /// Cells that were quarantined.
    pub failed_cells: u64,
    /// Cells that needed at least one retry (completed or not).
    pub retried_cells: u64,
    /// True when every cell completed without a single retry.
    pub clean: bool,
}

impl_json!(ToJson for MatrixHealthReport {
    schema,
    cells,
    total_cells,
    failed_cells,
    retried_cells,
    clean,
});

impl MatrixHealthReport {
    /// Rolls cell rows into the gateable aggregate.
    #[must_use]
    pub fn new(cells: Vec<CellHealth>) -> Self {
        let total_cells = cells.len() as u64;
        let failed_cells = cells
            .iter()
            .filter(|c| c.status == CellStatus::Failed)
            .count() as u64;
        let retried_cells = cells.iter().filter(|c| c.retries > 0).count() as u64;
        Self {
            schema: MATRIX_HEALTH_SCHEMA.to_owned(),
            cells,
            total_cells,
            failed_cells,
            retried_cells,
            clean: failed_cells == 0 && retried_cells == 0,
        }
    }
}

/// Writes the matrix health report as pretty-printed JSON plus a
/// trailing newline — the `--health-out` artifact CI parses.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_matrix_health_json<W: Write>(
    writer: &mut W,
    report: &MatrixHealthReport,
) -> std::io::Result<()> {
    let text = hybridmem_json::to_string_pretty(report);
    writer.write_all(text.as_bytes())?;
    writer.write_all(b"\n")
}

/// A cell's typed failure, with the black box its sink held when the
/// cell failed.
#[derive(Debug)]
pub struct CellFailure {
    /// What went wrong.
    pub error: Error,
    /// The flight dump, when a flight recorder was riding the cell.
    pub flight: Option<Box<FlightRecord>>,
}

impl From<Error> for CellFailure {
    fn from(error: Error) -> Self {
        Self {
            error,
            flight: None,
        }
    }
}

/// The payload the cell driver re-raises a caught panic with when a
/// flight recorder rides the cell: the panic's message and the black box
/// as it stood when the panic fired.
pub(crate) struct CellPanic {
    pub(crate) message: String,
    pub(crate) flight: Box<FlightRecord>,
}

/// Extracts a printable message from a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(panic) = payload.downcast_ref::<CellPanic>() {
        panic.message.clone()
    } else if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_owned()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs one matrix cell inside `catch_unwind`, retrying panics up to
/// [`MAX_CELL_RETRIES`] times (immediately and on the same worker, so
/// retry ordering is deterministic) and quarantining whatever still
/// fails. Typed errors are returned on the first attempt — the engine
/// is deterministic, so they would fail identically every time.
pub fn run_isolated<T, E, F>(workload: &str, policy: &str, run: F) -> CellOutcome<T>
where
    E: Into<CellFailure>,
    F: Fn() -> Result<T, E>,
{
    let mut retries = 0u64;
    let stamp = |flight: Option<Box<FlightRecord>>, retries: u64| {
        flight.map(|mut flight| {
            flight.retries = retries;
            flight
        })
    };
    loop {
        match std::panic::catch_unwind(AssertUnwindSafe(&run)) {
            Ok(Ok(value)) => return CellOutcome::Ok { value, retries },
            Ok(Err(failure)) => {
                let CellFailure { error, flight } = failure.into();
                return CellOutcome::Failed {
                    error,
                    retries,
                    panicked: false,
                    flight: stamp(flight, retries),
                };
            }
            Err(payload) => {
                if retries < MAX_CELL_RETRIES {
                    retries += 1;
                    continue;
                }
                let message = panic_message(payload.as_ref());
                let flight = payload
                    .downcast::<CellPanic>()
                    .ok()
                    .map(|panic| panic.flight);
                return CellOutcome::Failed {
                    error: Error::invalid_input(format!(
                        "cell {workload}/{policy} panicked: {message}"
                    )),
                    retries,
                    panicked: true,
                    flight: stamp(flight, retries),
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn clean_cells_complete_without_retries() {
        let outcome = run_isolated("w", "p", || Ok::<_, Error>(7));
        match outcome {
            CellOutcome::Ok { value, retries } => {
                assert_eq!(value, 7);
                assert_eq!(retries, 0);
            }
            CellOutcome::Failed { .. } => panic!("clean cell must not fail"),
        }
    }

    #[test]
    fn typed_errors_are_not_retried() {
        let attempts = AtomicU64::new(0);
        let outcome = run_isolated("w", "p", || {
            attempts.fetch_add(1, Ordering::Relaxed);
            Err::<(), _>(Error::invalid_input("bad config"))
        });
        assert_eq!(attempts.load(Ordering::Relaxed), 1);
        match outcome {
            CellOutcome::Failed {
                error,
                retries,
                panicked,
                flight,
            } => {
                assert!(error.to_string().contains("bad config"));
                assert_eq!(retries, 0);
                assert!(!panicked);
                assert!(flight.is_none(), "no recorder was riding this cell");
            }
            CellOutcome::Ok { .. } => panic!("typed error must fail the cell"),
        }
    }

    #[test]
    fn transient_panics_recover_within_the_budget() {
        let attempts = AtomicU64::new(0);
        let outcome = run_isolated("w", "p", || {
            if attempts.fetch_add(1, Ordering::Relaxed) < MAX_CELL_RETRIES {
                panic!("transient");
            }
            Ok::<_, Error>("done")
        });
        match outcome {
            CellOutcome::Ok { value, retries } => {
                assert_eq!(value, "done");
                assert_eq!(retries, MAX_CELL_RETRIES);
            }
            CellOutcome::Failed { .. } => panic!("cell recovers inside the budget"),
        }
    }

    #[test]
    fn persistent_panics_are_quarantined_with_the_message() {
        let attempts = AtomicU64::new(0);
        let outcome = run_isolated("bodytrack", "two-lru", || -> Result<(), Error> {
            attempts.fetch_add(1, Ordering::Relaxed);
            panic!("injected fault: scripted");
        });
        assert_eq!(
            attempts.load(Ordering::Relaxed),
            MAX_CELL_RETRIES + 1,
            "budget exhausted"
        );
        match outcome {
            CellOutcome::Failed {
                error,
                retries,
                panicked,
                ..
            } => {
                let text = error.to_string();
                assert!(text.contains("bodytrack/two-lru"), "{text}");
                assert!(text.contains("injected fault: scripted"), "{text}");
                assert_eq!(retries, MAX_CELL_RETRIES);
                assert!(panicked);
            }
            CellOutcome::Ok { .. } => panic!("persistent panic must quarantine"),
        }
    }

    /// A black box of three faults, as a cell's sink would hold it.
    fn black_box(trigger: &str, error: &str) -> Option<Box<FlightRecord>> {
        use crate::cell::fixture;
        use crate::{Instrumentation, SimEvent};
        use hybridmem_types::{PageAccess, PageId};

        let faults: Vec<SimEvent> = (0..3)
            .map(|page| SimEvent::Fault {
                access: PageAccess::read(PageId::new(page)),
            })
            .collect();
        let context = fixture::context("canneal", "two-lru");
        let sink = fixture::sink(Instrumentation::default().with_flight(8), context, &faults);
        sink.black_box(trigger, Some(error.to_owned()))
            .map(Box::new)
    }

    #[test]
    fn a_panicking_cells_black_box_is_stamped_with_its_retries() {
        let outcome = run_isolated("canneal", "two-lru", || -> Result<(), Error> {
            // What the cell driver does with a panic it caught.
            let message = "injected fault: mid-run".to_owned();
            let flight = black_box("panic", &message).expect("a recorder rides the cell");
            std::panic::resume_unwind(Box::new(CellPanic { message, flight }));
        });
        match outcome {
            CellOutcome::Failed {
                error,
                panicked,
                flight,
                ..
            } => {
                assert!(panicked);
                assert!(error.to_string().contains("injected fault: mid-run"));
                let flight = flight.expect("the payload's black box must be kept");
                assert_eq!(flight.trigger, "panic");
                assert_eq!(flight.retries, MAX_CELL_RETRIES);
                assert_eq!(flight.accesses, 3, "the last attempt's recording");
                assert_eq!(flight.final_access, 2);
                assert!(flight
                    .error
                    .as_deref()
                    .is_some_and(|e| e.contains("injected fault: mid-run")));
            }
            CellOutcome::Ok { .. } => panic!("cell must be quarantined"),
        }
    }

    #[test]
    fn a_typed_error_keeps_the_black_box_beside_it() {
        let outcome = run_isolated("canneal", "two-lru", || {
            Err::<(), _>(CellFailure {
                error: Error::invalid_input("spill stream truncated"),
                flight: black_box("error", "spill stream truncated"),
            })
        });
        match outcome {
            CellOutcome::Failed {
                panicked, flight, ..
            } => {
                assert!(!panicked);
                let flight = flight.expect("the failure's black box must be kept");
                assert_eq!(flight.trigger, "error");
                assert_eq!(flight.retries, 0, "typed errors are not retried");
            }
            CellOutcome::Ok { .. } => panic!("cell must be quarantined"),
        }
    }

    #[test]
    fn health_report_rolls_up_and_roundtrips() {
        let ok = run_isolated("w1", "p", || Ok::<_, Error>(()));
        let failed = run_isolated("w2", "p", || Err::<(), _>(Error::invalid_input("scripted")));
        let report = MatrixHealthReport::new(vec![ok.health("w1", "p"), failed.health("w2", "p")]);
        assert_eq!(report.schema, MATRIX_HEALTH_SCHEMA);
        assert_eq!(report.total_cells, 2);
        assert_eq!(report.failed_cells, 1);
        assert_eq!(report.retried_cells, 0);
        assert!(!report.clean);
        assert_eq!(
            report.cells[1].error.as_deref(),
            Some("invalid input: scripted")
        );

        let mut bytes = Vec::new();
        write_matrix_health_json(&mut bytes, &report).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let parsed = hybridmem_json::parse(&text).unwrap();
        assert_eq!(parsed["failed_cells"], 1);
        assert_eq!(parsed["cells"][1]["status"], "failed");
        assert_eq!(parsed["cells"][1]["error"], "invalid input: scripted");
        assert_eq!(parsed["cells"][0]["error"], hybridmem_json::Json::Null);
        assert_eq!(format!("{}\n", parsed.emit_pretty()), text);
    }

    #[test]
    fn recovered_cells_keep_the_report_unclean_but_unfailed() {
        let attempts = AtomicU64::new(0);
        let recovered = run_isolated("w", "p", || {
            if attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("once");
            }
            Ok::<_, Error>(())
        });
        let report = MatrixHealthReport::new(vec![recovered.health("w", "p")]);
        assert_eq!(report.failed_cells, 0);
        assert_eq!(report.retried_cells, 1);
        assert!(
            !report.clean,
            "a retry is visible even when the cell recovered"
        );
        assert_eq!(report.cells[0].status, CellStatus::Ok);
    }
}
