//! Black-box flight recorder: the last moments of a cell, bounded and
//! cheap enough to ride every instrumented run.
//!
//! A panicking cell is retried and quarantined instead of killing the
//! matrix, but the `hybridmem-matrix-health-v1` report records only the
//! *outcome*. The flight recorder is the fold of the
//! [`CellSink`](crate::CellSink) that says what the engine was doing when
//! it went down: a ring of the last N [`SimEvent`]s and a ring of
//! periodic state snapshots (per-tier occupancy, two-LRU window position,
//! cumulative event counts, access index), dumped as a versioned
//! [`FlightRecord`]. Request it with
//! [`Instrumentation::with_flight`](crate::Instrumentation::with_flight).
//!
//! # Surviving the panic
//!
//! The cell driver replays the trace under `catch_unwind` while it still
//! owns the simulator, and with it the sink. When the replay panics or
//! returns an error, the driver captures the record from the sink and
//! hands it up with the failure: a panic is re-raised with the record in
//! its payload, where the isolation wrapper
//! ([`run_isolated`](crate::health::run_isolated)) finds it, retries the
//! cell, and stamps the retries on the attempt that finally failed; an
//! error returns the record beside it.
//!
//! # Determinism
//!
//! Everything in a [`FlightRecord`] is access-index-based: event
//! indices, snapshot cadence, occupancy. No wall-clock, no thread ids,
//! and no global [`TraceCache`](crate::TraceCache) statistics (those
//! are scheduling-dependent — which cell materialized a shared trace
//! first varies with the thread count, so they are deliberately
//! excluded). The same failure therefore dumps byte-identical
//! artifacts at any `--threads N`, which CI pins.
//!
//! # The tripwire
//!
//! The chaos harness needs a panic that fires *mid-simulation* at an
//! exact access — `cell-panic@…` fires before the cell starts, so its
//! flight ring would be empty. The `cell-panic-at@…` fault clause arms a
//! check inside the [`CellSink`](crate::CellSink) that panics when the
//! demand event that would become the scheduled 0-based index arrives,
//! before anything records it — so the flight ring's newest event always
//! precedes the panic site.

use std::io::Write;

use hybridmem_json::impl_json;
use hybridmem_policy::PolicyAction;
use hybridmem_types::MemoryKind;

use crate::cell::{CellContext, Cursor};
use crate::{Ring, SimEvent};

/// Demand accesses between state snapshots.
const SNAPSHOT_EVERY: u64 = 4096;

/// Snapshots retained in their ring.
const SNAPSHOTS: usize = 64;

/// Schema identifier of the flight-recorder JSON artifact.
pub const FLIGHT_SCHEMA: &str = "hybridmem-flight-v1";

/// One retained simulation event, tagged with the 0-based demand-access
/// index it belongs to (actions and probes trail their demand event and
/// carry its index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// 0-based demand-access index the event is attributed to.
    pub access: u64,
    /// What happened.
    pub event: FlightEventKind,
}

impl_json!(ToJson for FlightEvent { access, event });

/// The observable event classes a flight ring retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightEventKind {
    /// A demand request was served by a memory module.
    Served {
        /// Page requested.
        page: u64,
        /// True for a store.
        write: bool,
        /// Module that serviced it.
        from: MemoryKind,
    },
    /// A demand request missed main memory.
    Fault {
        /// Page requested.
        page: u64,
        /// True for a store.
        write: bool,
    },
    /// A cross- or same-tier migration.
    Migrate {
        /// Page moved.
        page: u64,
        /// Source tier.
        from: MemoryKind,
        /// Destination tier.
        to: MemoryKind,
    },
    /// A disk fill answering a fault.
    Fill {
        /// Page filled.
        page: u64,
        /// Destination tier.
        into: MemoryKind,
    },
    /// A capacity eviction to disk.
    Evict {
        /// Page evicted.
        page: u64,
        /// Source tier.
        from: MemoryKind,
    },
    /// An NVM counter probe (Algorithm 1 provenance).
    Probe {
        /// Page probed.
        page: u64,
        /// Read counter after the hit.
        reads: u32,
        /// Write counter after the hit.
        writes: u32,
        /// True when a threshold fired (a promotion follows).
        fired: bool,
    },
}

impl_json!(ToJson for FlightEventKind tagged "kind" {
    Served { page, write, from } = "served",
    Fault { page, write } = "fault",
    Migrate { page, from, to } = "migrate",
    Fill { page, into } = "fill",
    Evict { page, from } = "evict",
    Probe { page, reads, writes, fired } = "probe",
});

/// One periodic state snapshot: where the engine stood as of the start
/// of demand access `access`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightSnapshot {
    /// Demand accesses completed when the snapshot was taken (the next
    /// access processed is index `access`).
    pub access: u64,
    /// Resident DRAM pages.
    pub dram_resident: u64,
    /// Resident NVM pages.
    pub nvm_resident: u64,
    /// Cumulative served demand requests.
    pub served: u64,
    /// Cumulative demand faults.
    pub faults: u64,
    /// Cumulative migrations (both directions, same-tier included).
    pub migrations: u64,
    /// Cumulative disk fills.
    pub fills: u64,
    /// Cumulative disk evictions.
    pub evictions: u64,
    /// Cumulative NVM counter probes.
    pub probes: u64,
    /// Two-LRU read-window position (`read_window_pages` bounded by the
    /// NVM resident set), for counter-window policies only.
    pub two_lru_window: Option<u64>,
}

impl_json!(ToJson for FlightSnapshot {
    access,
    dram_resident,
    nvm_resident,
    served,
    faults,
    migrations,
    fills,
    evictions,
    probes,
    two_lru_window if Option::is_some,
});

/// The versioned per-cell dump: everything the recorder retained at the
/// moment the cell completed or failed.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// Workload name of the cell.
    pub workload: String,
    /// Policy name of the cell.
    pub policy: String,
    /// Why the dump exists: `"panic"`, `"error"`, `"audit-violation"`,
    /// or `"completed"`.
    pub trigger: String,
    /// The failure message, for `panic`/`error` triggers.
    pub error: Option<String>,
    /// Panicking attempts that preceded the capture.
    pub retries: u64,
    /// Warmup prefix of the cell's trace, in accesses.
    pub warmup_accesses: u64,
    /// DRAM capacity in pages.
    pub dram_capacity: u64,
    /// NVM capacity in pages.
    pub nvm_capacity: u64,
    /// Demand accesses observed before the capture.
    pub accesses: u64,
    /// 0-based index of the last observed demand access (0 when none
    /// was observed at all — check `accesses`).
    pub final_access: u64,
    /// Resident DRAM pages at capture.
    pub dram_resident: u64,
    /// Resident NVM pages at capture.
    pub nvm_resident: u64,
    /// Cumulative served demand requests.
    pub served: u64,
    /// Cumulative demand faults.
    pub faults: u64,
    /// Cumulative migrations.
    pub migrations: u64,
    /// Cumulative disk fills.
    pub fills: u64,
    /// Cumulative disk evictions.
    pub evictions: u64,
    /// Cumulative NVM counter probes.
    pub probes: u64,
    /// Event-ring capacity.
    pub ring_capacity: u64,
    /// Events evicted from the ring (total seen = retained + dropped).
    pub events_dropped: u64,
    /// Snapshot cadence in demand accesses.
    pub snapshot_every: u64,
    /// Snapshot-ring capacity.
    pub snapshot_capacity: u64,
    /// Snapshots evicted from their ring.
    pub snapshots_dropped: u64,
    /// Two-LRU read-window size in pages, for counter-window policies.
    pub two_lru_read_window_pages: Option<u64>,
    /// Retained snapshots, oldest first.
    pub snapshots: Vec<FlightSnapshot>,
    /// Retained events, oldest first.
    pub events: Vec<FlightEvent>,
}

impl_json!(ToJson for FlightRecord {
    workload,
    policy,
    trigger,
    error if Option::is_some,
    retries,
    warmup_accesses,
    dram_capacity,
    nvm_capacity,
    accesses,
    final_access,
    dram_resident,
    nvm_resident,
    served,
    faults,
    migrations,
    fills,
    evictions,
    probes,
    ring_capacity,
    events_dropped,
    snapshot_every,
    snapshot_capacity,
    snapshots_dropped,
    two_lru_read_window_pages if Option::is_some,
    snapshots,
    events,
});

/// The matrix-level artifact written by `--flight-out`: the dumped
/// cells' [`FlightRecord`]s under the `hybridmem-flight-v1` schema, in
/// matrix order (workload-major, policy-minor — never completion
/// order, so the bytes are thread-count invariant).
#[derive(Debug, Clone, PartialEq)]
pub struct FlightMatrixReport {
    /// Always [`FLIGHT_SCHEMA`].
    pub schema: String,
    /// Dumped cells in matrix order.
    pub cells: Vec<FlightRecord>,
    /// Number of dumped cells.
    pub dumped_cells: u64,
    /// Dumped cells whose trigger is a failure (`trigger` other than
    /// `"completed"`).
    pub triggered_cells: u64,
}

impl_json!(ToJson for FlightMatrixReport { schema, cells, dumped_cells, triggered_cells });

impl FlightMatrixReport {
    /// Rolls cell records into the artifact.
    #[must_use]
    pub fn new(cells: Vec<FlightRecord>) -> Self {
        let dumped_cells = cells.len() as u64;
        let triggered_cells = cells.iter().filter(|c| c.trigger != "completed").count() as u64;
        Self {
            schema: FLIGHT_SCHEMA.to_owned(),
            cells,
            dumped_cells,
            triggered_cells,
        }
    }
}

/// Writes the flight artifact as pretty-printed JSON plus a trailing
/// newline — the `--flight-out` artifact CI byte-compares.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_flight_json<W: Write>(
    writer: &mut W,
    report: &FlightMatrixReport,
) -> std::io::Result<()> {
    let text = hybridmem_json::to_string_pretty(report);
    writer.write_all(text.as_bytes())?;
    writer.write_all(b"\n")
}

/// The flight-recorder fold of a [`CellSink`](crate::CellSink): the two
/// rings. Everything else in a [`FlightRecord`] comes from the sink's
/// cursor and the cell's context.
#[derive(Debug)]
pub(crate) struct FlightRecorder {
    events: Ring<FlightEvent>,
    snapshots: Ring<FlightSnapshot>,
}

impl FlightRecorder {
    /// A recorder retaining the last `events` events (0 is clamped to 1).
    pub(crate) fn new(events: usize) -> Self {
        Self {
            events: Ring::bounded(events),
            snapshots: Ring::bounded(SNAPSHOTS),
        }
    }

    /// Snapshots the engine every [`SNAPSHOT_EVERY`] demand accesses, as
    /// of the boundary before the next one.
    pub(crate) fn close_access(&mut self, cursor: &Cursor, context: &CellContext) {
        if !cursor.accesses.is_multiple_of(SNAPSHOT_EVERY) {
            return;
        }
        self.snapshots.push(FlightSnapshot {
            access: cursor.accesses,
            dram_resident: cursor.dram_resident,
            nvm_resident: cursor.nvm_resident,
            served: cursor.served,
            faults: cursor.faults,
            migrations: cursor.migrations,
            fills: cursor.fills,
            evictions: cursor.evictions,
            probes: cursor.probes,
            two_lru_window: context
                .read_window_pages
                .map(|pages| pages.min(cursor.nvm_resident)),
        });
    }

    pub(crate) fn record(&mut self, event: SimEvent, cursor: &Cursor) {
        let event = match event {
            SimEvent::Served { access, from } => FlightEventKind::Served {
                page: access.page.value(),
                write: access.kind.is_write(),
                from,
            },
            SimEvent::Fault { access } => FlightEventKind::Fault {
                page: access.page.value(),
                write: access.kind.is_write(),
            },
            SimEvent::Action { action } => match action {
                PolicyAction::Migrate { page, from, to } => FlightEventKind::Migrate {
                    page: page.value(),
                    from,
                    to,
                },
                PolicyAction::FillFromDisk { page, into } => FlightEventKind::Fill {
                    page: page.value(),
                    into,
                },
                PolicyAction::EvictToDisk { page, from } => FlightEventKind::Evict {
                    page: page.value(),
                    from,
                },
            },
            SimEvent::CounterProbe { access, probe } => FlightEventKind::Probe {
                page: access.page.value(),
                reads: probe.reads,
                writes: probe.writes,
                fired: probe.fired.is_some(),
            },
        };
        self.events.push(FlightEvent {
            access: cursor.index(),
            event,
        });
    }

    /// The dump as of now. `trigger` names why (`"panic"`, `"error"`,
    /// `"audit-violation"`, `"completed"`); `error` carries the failure
    /// message when there is one. Retries are the isolation wrapper's to
    /// stamp.
    pub(crate) fn capture(
        &self,
        cursor: &Cursor,
        context: &CellContext,
        trigger: &str,
        error: Option<String>,
    ) -> FlightRecord {
        let capacity = |ring: Option<usize>| ring.unwrap_or_default() as u64;
        FlightRecord {
            workload: context.workload.clone(),
            policy: context.policy.clone(),
            trigger: trigger.to_owned(),
            error,
            retries: 0,
            warmup_accesses: context.warmup,
            dram_capacity: context.dram_capacity,
            nvm_capacity: context.nvm_capacity,
            accesses: cursor.accesses,
            final_access: cursor.index(),
            dram_resident: cursor.dram_resident,
            nvm_resident: cursor.nvm_resident,
            served: cursor.served,
            faults: cursor.faults,
            migrations: cursor.migrations,
            fills: cursor.fills,
            evictions: cursor.evictions,
            probes: cursor.probes,
            ring_capacity: capacity(self.events.capacity()),
            events_dropped: self.events.dropped(),
            snapshot_every: SNAPSHOT_EVERY,
            snapshot_capacity: capacity(self.snapshots.capacity()),
            snapshots_dropped: self.snapshots.dropped(),
            two_lru_read_window_pages: context.read_window_pages,
            snapshots: self.snapshots.iter().copied().collect(),
            events: self.events.iter().copied().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::fixture;
    use crate::{CellSink, EventSink, Instrumentation};
    use hybridmem_types::{PageAccess, PageId};

    fn served(page: u64, from: MemoryKind) -> SimEvent {
        SimEvent::Served {
            access: PageAccess::read(PageId::new(page)),
            from,
        }
    }

    fn fault(page: u64) -> SimEvent {
        SimEvent::Fault {
            access: PageAccess::read(PageId::new(page)),
        }
    }

    fn fill(page: u64, into: MemoryKind) -> SimEvent {
        SimEvent::Action {
            action: PolicyAction::FillFromDisk {
                page: PageId::new(page),
                into,
            },
        }
    }

    /// A sink carrying only a flight recorder of `events` events.
    fn recorder(events: usize, context: CellContext, stream: &[SimEvent]) -> CellSink {
        fixture::sink(
            Instrumentation::default().with_flight(events),
            context,
            stream,
        )
    }

    fn completed(sink: &CellSink) -> FlightRecord {
        sink.black_box("completed", None)
            .expect("a recorder rides the sink")
    }

    #[test]
    fn ring_keeps_the_newest_events_and_counts_drops() {
        let stream: Vec<SimEvent> = (0..5)
            .flat_map(|page| [fault(page), fill(page, MemoryKind::Dram)])
            .collect();
        let record = completed(&recorder(3, fixture::context("w", "p"), &stream));
        assert_eq!(record.accesses, 5);
        assert_eq!(record.final_access, 4);
        assert_eq!(record.events.len(), 3, "ring bounded");
        assert_eq!(record.events_dropped, 7, "10 events through a 3-ring");
        // Oldest-first within the retained window; actions carry their
        // demand access's index.
        let accesses: Vec<u64> = record.events.iter().map(|e| e.access).collect();
        assert_eq!(accesses, vec![3, 4, 4]);
        assert!(matches!(
            record.events.last().map(|e| e.event),
            Some(FlightEventKind::Fill { page: 4, .. })
        ));
        assert_eq!(record.faults, 5);
        assert_eq!(record.fills, 5);
        assert_eq!(record.dram_resident, 5);
    }

    #[test]
    fn snapshots_fire_on_cadence_and_track_occupancy() {
        // One access past 65 snapshot boundaries: the 64-snapshot ring
        // drops the first.
        let boundaries = SNAPSHOTS as u64 + 1;
        let stream: Vec<SimEvent> = (0..=boundaries * SNAPSHOT_EVERY)
            .flat_map(|page| [fault(page), fill(page, MemoryKind::Nvm)])
            .collect();
        let context = CellContext {
            read_window_pages: Some(3),
            ..fixture::context("w", "p")
        };
        let record = completed(&recorder(8, context, &stream));
        assert_eq!(record.snapshot_every, SNAPSHOT_EVERY);
        assert_eq!(record.snapshot_capacity, SNAPSHOTS as u64);
        assert_eq!(record.snapshots_dropped, 1);
        let at: Vec<u64> = record.snapshots.iter().map(|s| s.access).collect();
        let expected: Vec<u64> = (2..=boundaries).map(|k| k * SNAPSHOT_EVERY).collect();
        assert_eq!(at, expected);
        let last = record.snapshots.last().copied().expect("64 snapshots");
        assert_eq!(last.nvm_resident, last.access, "state as of the boundary");
        assert_eq!(last.fills, last.access);
        assert_eq!(last.two_lru_window, Some(3), "window bounded by residency");
        assert_eq!(record.two_lru_read_window_pages, Some(3));
    }

    #[test]
    fn capture_carries_the_cell_context() {
        let context = CellContext {
            dram_capacity: 10,
            nvm_capacity: 90,
            warmup: 7,
            ..fixture::context("canneal", "two-lru")
        };
        let sink = recorder(256, context, &[served(1, MemoryKind::Dram)]);
        let record = sink
            .black_box("panic", Some("injected".to_owned()))
            .expect("a recorder rides the sink");
        assert_eq!(record.workload, "canneal");
        assert_eq!(record.trigger, "panic");
        assert_eq!(record.error.as_deref(), Some("injected"));
        assert_eq!(record.retries, 0, "the isolation wrapper stamps retries");
        assert_eq!((record.dram_capacity, record.nvm_capacity), (10, 90));
        assert_eq!(record.warmup_accesses, 7);
        assert_eq!(record.served, 1);
    }

    #[test]
    fn tripwire_leaves_the_flight_ring_short_of_the_panic() {
        // The acceptance property: the flight ring's newest event
        // precedes the panic site.
        let context = CellContext {
            panic_at: Some(3),
            ..fixture::context("w", "p")
        };
        let mut sink = recorder(256, context, &[]);
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for page in 0..10 {
                sink.record(served(page, MemoryKind::Dram));
            }
        }));
        assert!(died.is_err());
        let record = sink
            .black_box("panic", None)
            .expect("a recorder rides the sink");
        assert_eq!(record.accesses, 3, "accesses 0..=2 were recorded");
        assert_eq!(record.final_access, 2, "strictly before the panic at 3");
    }

    #[test]
    fn record_and_matrix_report_roundtrip_as_json() {
        let sink = recorder(
            4,
            fixture::context("w", "p"),
            &[
                fault(1),
                fill(1, MemoryKind::Dram),
                served(1, MemoryKind::Dram),
            ],
        );
        let completed = completed(&sink);
        let failed = sink
            .black_box("panic", Some("boom".to_owned()))
            .expect("a recorder rides the sink");
        let matrix = FlightMatrixReport::new(vec![completed, failed]);
        assert_eq!(matrix.schema, FLIGHT_SCHEMA);
        assert_eq!(matrix.dumped_cells, 2);
        assert_eq!(matrix.triggered_cells, 1);

        let mut bytes = Vec::new();
        write_flight_json(&mut bytes, &matrix).expect("in-memory write");
        let text = String::from_utf8(bytes).unwrap();
        let parsed = hybridmem_json::parse(&text).expect("valid JSON");
        assert_eq!(parsed["schema"], FLIGHT_SCHEMA);
        assert_eq!(parsed["triggered_cells"], 1);
        assert_eq!(parsed["cells"][1]["error"], "boom");
        assert_eq!(parsed["cells"][0]["error"], hybridmem_json::Json::Null);
        assert_eq!(format!("{}\n", parsed.emit_pretty()), text);
    }

    #[test]
    fn zero_event_capacity_is_clamped_to_one() {
        let stream = [served(1, MemoryKind::Dram), served(2, MemoryKind::Dram)];
        let record = completed(&recorder(0, fixture::context("w", "p"), &stream));
        assert_eq!(record.ring_capacity, 1);
        assert_eq!(record.events.len(), 1);
        assert_eq!(record.events_dropped, 1);
    }
}
