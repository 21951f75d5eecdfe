//! Seeded, deterministic fault injection for the experiment engine.
//!
//! Long campaigns meet real faults: a spill file goes unreadable, a
//! disk flips a bit, a write fails mid-rename, a worker panics. Hoping
//! those paths are correct is not the same as exercising them, so this
//! module gives tests (and the CI `chaos` job) a scripted way to make
//! each one happen **on schedule** — the same plan string always fires
//! the same faults at the same attempt numbers, so a chaos run is as
//! reproducible as a clean one.
//!
//! A [`FaultPlan`] is parsed from a compact spec (flag `--fault-plan`,
//! or the `HYBRIDMEM_FAULT_PLAN` environment variable for the global
//! trace cache) of `;`-separated clauses:
//!
//! ```text
//! spill-read-error@N          Nth spill read attempt fails outright
//! spill-write-error@N         Nth spill write attempt fails
//! bit-flip@N:OFFSET           Nth spill read sees byte OFFSET (mod len) flipped
//! truncate@N:KEEP             Nth spill read sees only the first KEEP bytes
//! cell-panic@WORKLOAD/POLICY:K   first K attempts of that matrix cell panic
//! cell-panic-at@WORKLOAD/POLICY:ACCESS   that cell panics mid-simulation,
//!                                at 0-based demand access ACCESS (every attempt)
//! ```
//!
//! Attempt numbers are 1-based and counted per plan instance. The
//! spill clauses are consumed by [`TraceCache`](crate::TraceCache)
//! (every corrupted read must degrade to a counted miss plus
//! regeneration, every failed write to a counted
//! `spill_write_errors`); the `cell-panic` clause is consumed by the
//! matrix scheduler's isolation wrapper
//! ([`run_isolated`](crate::health::run_isolated)), which catches the
//! panic, retries the cell a bounded number of times, and quarantines
//! it in the `hybridmem-matrix-health-v1` report if it keeps dying.
//! With `K` no larger than the retry budget the cell *recovers*; with a
//! larger `K` it fails without taking the rest of the matrix down.
//!
//! `cell-panic` fires **before** the cell starts simulating, so its
//! flight recording is empty. `cell-panic-at` instead arms a tripwire in
//! the cell's [`CellSink`](crate::CellSink) that kills the cell
//! *mid-simulation* at an exact demand access, before anything records
//! it — the clause the chaos job uses to prove a flight dump's last
//! event precedes the panic site. It fires on every attempt, so the cell
//! is always quarantined (a mid-run panic is never transient).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use hybridmem_types::{Error, FxHashMap};

/// A fault scheduled against one spill read attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpillReadFault {
    /// The read fails outright, as if the file were unreadable.
    Error,
    /// One byte of the file image is bit-flipped before decoding.
    BitFlip {
        /// Byte offset of the flip, taken modulo the file length.
        offset: u64,
    },
    /// The file image is cut to its first `keep` bytes.
    Truncate {
        /// Bytes surviving the truncation.
        keep: u64,
    },
}

/// A deterministic schedule of injected faults. See the module docs
/// for the spec grammar. Cheap to share behind an `Arc`; all state is
/// interior and thread-safe.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// `(attempt, fault)` pairs for spill reads, 1-based.
    read_faults: Vec<(u64, SpillReadFault)>,
    /// 1-based spill write attempts that must fail.
    write_errors: Vec<u64>,
    /// `(workload, policy) → K`: panic the first K attempts of a cell.
    cell_panics: FxHashMap<(String, String), u64>,
    /// `(workload, policy) → ACCESS`: panic that cell mid-simulation at
    /// the 0-based demand access, on every attempt.
    cell_panic_ats: FxHashMap<(String, String), u64>,
    /// Spill read attempts made so far.
    read_attempts: AtomicU64,
    /// Spill write attempts made so far.
    write_attempts: AtomicU64,
    /// Attempts made so far per cell, for the `cell-panic` schedule.
    cell_attempts: Mutex<FxHashMap<(String, String), u64>>,
}

impl FaultPlan {
    /// Parses a plan from the `;`-separated clause grammar in the
    /// module docs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] naming the malformed clause.
    pub fn parse(spec: &str) -> Result<Self, Error> {
        let mut plan = Self::default();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (name, rest) = clause.split_once('@').ok_or_else(|| {
                Error::invalid_input(format!("fault clause {clause:?}: expected NAME@ARGS"))
            })?;
            let number = |text: &str, what: &str| {
                text.parse::<u64>().map_err(|_| {
                    Error::invalid_input(format!("fault clause {clause:?}: bad {what} {text:?}"))
                })
            };
            match name {
                "spill-read-error" => plan
                    .read_faults
                    .push((number(rest, "attempt")?, SpillReadFault::Error)),
                "spill-write-error" => plan.write_errors.push(number(rest, "attempt")?),
                "bit-flip" | "truncate" => {
                    let (attempt, arg) = rest.split_once(':').ok_or_else(|| {
                        Error::invalid_input(format!("fault clause {clause:?}: expected @N:ARG"))
                    })?;
                    let attempt = number(attempt, "attempt")?;
                    let fault = if name == "bit-flip" {
                        SpillReadFault::BitFlip {
                            offset: number(arg, "offset")?,
                        }
                    } else {
                        SpillReadFault::Truncate {
                            keep: number(arg, "length")?,
                        }
                    };
                    plan.read_faults.push((attempt, fault));
                }
                "cell-panic" | "cell-panic-at" => {
                    let (cell, arg) = rest.rsplit_once(':').ok_or_else(|| {
                        Error::invalid_input(format!(
                            "fault clause {clause:?}: expected @WORKLOAD/POLICY:ARG"
                        ))
                    })?;
                    // Policy names never contain '/', but a workload may
                    // be a whole trace path — split at the last one.
                    let (workload, policy) = cell.rsplit_once('/').ok_or_else(|| {
                        Error::invalid_input(format!(
                            "fault clause {clause:?}: expected WORKLOAD/POLICY"
                        ))
                    })?;
                    let key = (workload.to_owned(), policy.to_owned());
                    if name == "cell-panic" {
                        plan.cell_panics.insert(key, number(arg, "panic count")?);
                    } else {
                        plan.cell_panic_ats.insert(key, number(arg, "access")?);
                    }
                }
                other => {
                    return Err(Error::invalid_input(format!(
                        "unknown fault clause {other:?} (expected spill-read-error, \
                         spill-write-error, bit-flip, truncate, cell-panic, or \
                         cell-panic-at)"
                    )));
                }
            }
        }
        Ok(plan)
    }

    /// The plan named by `HYBRIDMEM_FAULT_PLAN`, if the variable is set
    /// and non-empty. A malformed plan is an error (silently ignoring
    /// it would un-inject the faults a chaos run asked for).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] for a malformed plan string.
    pub fn from_env() -> Result<Option<Self>, Error> {
        match std::env::var("HYBRIDMEM_FAULT_PLAN") {
            Ok(spec) if !spec.trim().is_empty() => Self::parse(&spec).map(Some),
            _ => Ok(None),
        }
    }

    /// True when the plan schedules no faults at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.read_faults.is_empty()
            && self.write_errors.is_empty()
            && self.cell_panics.is_empty()
            && self.cell_panic_ats.is_empty()
    }

    /// The 0-based demand access at which the plan kills cell
    /// `(workload, policy)` mid-simulation, if a `cell-panic-at` clause
    /// scheduled one. The cell driver arms the cell's
    /// [`CellSink`](crate::CellSink) tripwire with it.
    #[must_use]
    pub fn cell_panic_access(&self, workload: &str, policy: &str) -> Option<u64> {
        self.cell_panic_ats
            .get(&(workload.to_owned(), policy.to_owned()))
            .copied()
    }

    /// Books one spill read attempt and applies whatever fault the plan
    /// scheduled for it to the in-memory file image.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] for a scheduled
    /// `spill-read-error` — the caller treats it exactly like a real
    /// I/O failure (a counted spill miss).
    ///
    /// # Panics
    ///
    /// Panics if the plan's cell-attempt mutex was poisoned.
    pub fn corrupt_spill_read(&self, bytes: &mut Vec<u8>) -> Result<(), Error> {
        #[expect(clippy::disallowed_methods, reason = "attempts need only be unique")]
        let attempt = self.read_attempts.fetch_add(1, Ordering::Relaxed) + 1;
        #[expect(clippy::indexing_slicing, reason = "index is taken modulo bytes.len()")]
        for &(at, fault) in &self.read_faults {
            if at != attempt {
                continue;
            }
            match fault {
                SpillReadFault::Error => {
                    return Err(Error::invalid_input(format!(
                        "injected fault: spill read attempt {attempt} failed"
                    )));
                }
                SpillReadFault::BitFlip { offset } => {
                    if !bytes.is_empty() {
                        let index = usize::try_from(offset % bytes.len() as u64).unwrap_or(0);
                        bytes[index] ^= 0x01;
                    }
                }
                SpillReadFault::Truncate { keep } => {
                    bytes.truncate(usize::try_from(keep).unwrap_or(usize::MAX));
                }
            }
        }
        Ok(())
    }

    /// Books one spill write attempt; true when the plan scheduled it
    /// to fail (the caller counts a `spill_write_errors` and skips the
    /// write).
    pub fn fail_spill_write(&self) -> bool {
        #[expect(clippy::disallowed_methods, reason = "attempts need only be unique")]
        let attempt = self.write_attempts.fetch_add(1, Ordering::Relaxed) + 1;
        self.write_errors.contains(&attempt)
    }

    /// Books one attempt of matrix cell `(workload, policy)` and panics
    /// if the plan scheduled this attempt to die. Called inside the
    /// scheduler's `catch_unwind` isolation wrapper, never on a bare
    /// thread.
    ///
    /// # Panics
    ///
    /// Panics deliberately for a scheduled `cell-panic` attempt (that
    /// is the injected fault), and if the cell-attempt mutex was
    /// poisoned.
    #[expect(clippy::panic, reason = "the scheduled cell-panic fault")]
    pub fn fire_cell_panic(&self, workload: &str, policy: &str) {
        let key = (workload.to_owned(), policy.to_owned());
        let Some(&scheduled) = self.cell_panics.get(&key) else {
            return;
        };
        let attempt = {
            #[expect(
                clippy::disallowed_methods,
                clippy::expect_used,
                reason = "once per cell attempt, released before any panic"
            )]
            let mut attempts = self.cell_attempts.lock().expect("fault plan poisoned");
            let entry = attempts.entry(key).or_insert(0);
            *entry += 1;
            *entry
        };
        if attempt <= scheduled {
            panic!(
                "injected fault: cell {workload}/{policy} panicked \
                 (attempt {attempt} of {scheduled} scheduled)"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_clause_kind() {
        let plan = FaultPlan::parse(
            "spill-read-error@1; spill-write-error@2; bit-flip@3:17; \
             truncate@4:100; cell-panic@bodytrack/two-lru:2; \
             cell-panic-at@canneal/clock-dwf:500;",
        )
        .unwrap();
        assert_eq!(plan.read_faults.len(), 3);
        assert_eq!(plan.write_errors, vec![2]);
        assert_eq!(
            plan.cell_panics
                .get(&("bodytrack".to_owned(), "two-lru".to_owned())),
            Some(&2)
        );
        assert_eq!(plan.cell_panic_access("canneal", "clock-dwf"), Some(500));
        assert_eq!(plan.cell_panic_access("canneal", "two-lru"), None);
        assert!(!plan.is_empty());
        assert!(
            !FaultPlan::parse("cell-panic-at@w/p:0").unwrap().is_empty(),
            "a lone cell-panic-at clause makes the plan non-empty"
        );
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn rejects_malformed_clauses() {
        for bad in [
            "nonsense",
            "frobnicate@1",
            "spill-read-error@x",
            "bit-flip@1",
            "truncate@1:x",
            "cell-panic@bodytrack:1",
            "cell-panic-at@bodytrack:1",
            "cell-panic-at@bodytrack/two-lru:x",
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(err.to_string().contains("fault clause") || err.to_string().contains("clause"));
        }
    }

    #[test]
    fn read_faults_fire_on_their_scheduled_attempt_only() {
        let plan = FaultPlan::parse("spill-read-error@2; bit-flip@3:0; truncate@4:2").unwrap();
        let image = vec![0xAAu8, 0xBB, 0xCC, 0xDD];

        let mut bytes = image.clone();
        plan.corrupt_spill_read(&mut bytes).unwrap();
        assert_eq!(bytes, image, "attempt 1 is clean");

        let mut bytes = image.clone();
        let err = plan.corrupt_spill_read(&mut bytes).unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");

        let mut bytes = image.clone();
        plan.corrupt_spill_read(&mut bytes).unwrap();
        assert_eq!(bytes[0], 0xAB, "attempt 3 flips byte 0");

        let mut bytes = image.clone();
        plan.corrupt_spill_read(&mut bytes).unwrap();
        assert_eq!(bytes, image[..2], "attempt 4 truncates to 2 bytes");

        let mut bytes = image.clone();
        plan.corrupt_spill_read(&mut bytes).unwrap();
        assert_eq!(bytes, image, "attempt 5 is clean again");
    }

    #[test]
    fn bit_flip_offset_wraps_and_empty_images_survive() {
        let plan = FaultPlan::parse("bit-flip@1:5; bit-flip@2:0").unwrap();
        let mut bytes = vec![0u8, 0, 0];
        plan.corrupt_spill_read(&mut bytes).unwrap();
        assert_eq!(bytes, [0, 0, 1], "offset 5 mod 3 = 2");
        let mut empty = Vec::new();
        plan.corrupt_spill_read(&mut empty).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn write_errors_fire_once_each() {
        let plan = FaultPlan::parse("spill-write-error@1; spill-write-error@3").unwrap();
        assert!(plan.fail_spill_write());
        assert!(!plan.fail_spill_write());
        assert!(plan.fail_spill_write());
        assert!(!plan.fail_spill_write());
    }

    #[test]
    fn cell_panics_stop_after_the_scheduled_count() {
        let plan = FaultPlan::parse("cell-panic@w/p:2").unwrap();
        for attempt in 1..=2 {
            let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                plan.fire_cell_panic("w", "p");
            }));
            assert!(died.is_err(), "attempt {attempt} panics");
        }
        plan.fire_cell_panic("w", "p"); // attempt 3 survives
        plan.fire_cell_panic("other", "p"); // unscheduled cells never die
    }

    #[test]
    fn env_plan_is_optional_and_validated() {
        // Read-only check against the ambient environment: the variable
        // is unset in test runs, so `from_env` reports no plan.
        if std::env::var("HYBRIDMEM_FAULT_PLAN").is_err() {
            assert!(FaultPlan::from_env().unwrap().is_none());
        }
        assert!(FaultPlan::parse("bogus@@").is_err());
    }
}
