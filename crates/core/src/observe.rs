//! Windowed observability: aggregates the simulator's event stream into
//! per-interval records and a [`MetricsRegistry`].
//!
//! The paper's claims are dynamic — hit ratio holds while migrations
//! trade AMAT (Eq. 1) against APPR (Eq. 2) — but a
//! [`SimulationReport`](crate::SimulationReport) only shows end-of-run aggregates. The
//! [`WindowedCollector`] is an [`EventSink`] that slices the run into
//! fixed windows of N demand accesses and emits one [`IntervalRecord`]
//! per window: per-tier hit counts, faults, migrations in both
//! directions, fills, evictions, DRAM/NVM occupancy, and the interval's
//! AMAT/APPR computed by feeding the interval's measured probabilities
//! through the analytical model ([`ModelParams`]).
//!
//! All interval boundaries are **access-index-based** (never wall-clock),
//! so the records — and their JSONL serialization via [`write_jsonl`] —
//! are byte-identical regardless of thread count or machine load.

use std::io::Write;

use hybridmem_json::impl_json;
use hybridmem_metrics::{MetricsRegistry, MetricsSnapshot};
use hybridmem_policy::PolicyAction;
use hybridmem_types::{AccessKind, MemoryKind};

use crate::{EventSink, ModelParams, Probabilities, SimEvent};

/// Telemetry for one window of demand accesses.
///
/// `start_access`/`end_access` are 0-based indices into the *whole*
/// trace (warmup included), with `end_access` exclusive, so
/// consecutive records tile the steady-state portion of the run
/// exactly. `amat_ns` follows Eq. 1 and `appr_nj` Eq. 2 (dynamic
/// energy only — the Eq. 3 static share is a whole-run quantity),
/// both evaluated on this interval's measured probabilities with the
/// paper's Table IV / Table II device constants.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalRecord {
    /// Workload name the run was labeled with.
    pub workload: String,
    /// Policy name the run was labeled with.
    pub policy: String,
    /// 0-based ordinal of this window within the run.
    pub interval: u64,
    /// Trace index of the window's first demand access.
    pub start_access: u64,
    /// Trace index one past the window's last demand access.
    pub end_access: u64,
    /// Demand accesses in the window (`end_access - start_access`).
    pub accesses: u64,
    /// DRAM read hits.
    pub dram_read_hits: u64,
    /// DRAM write hits.
    pub dram_write_hits: u64,
    /// NVM read hits.
    pub nvm_read_hits: u64,
    /// NVM write hits.
    pub nvm_write_hits: u64,
    /// Page faults (main-memory misses).
    pub faults: u64,
    /// NVM→DRAM migrations.
    pub migrations_to_dram: u64,
    /// DRAM→NVM migrations.
    pub migrations_to_nvm: u64,
    /// Disk fills into DRAM.
    pub fills_to_dram: u64,
    /// Disk fills into NVM.
    pub fills_to_nvm: u64,
    /// Pages evicted to disk.
    pub evictions_to_disk: u64,
    /// Resident DRAM pages at the end of the window.
    pub dram_occupancy: u64,
    /// Resident NVM pages at the end of the window.
    pub nvm_occupancy: u64,
    /// Main-memory hit ratio of the window.
    pub hit_ratio: f64,
    /// Eq. 1 AMAT of the window, nanoseconds per request.
    pub amat_ns: f64,
    /// Eq. 2 dynamic APPR of the window, nanojoules per request.
    pub appr_nj: f64,
}

impl_json!(ToJson for IntervalRecord {
    workload,
    policy,
    interval,
    start_access,
    end_access,
    accesses,
    dram_read_hits,
    dram_write_hits,
    nvm_read_hits,
    nvm_write_hits,
    faults,
    migrations_to_dram,
    migrations_to_nvm,
    fills_to_dram,
    fills_to_nvm,
    evictions_to_disk,
    dram_occupancy,
    nvm_occupancy,
    hit_ratio,
    amat_ns,
    appr_nj,
});

/// Running tallies for the window being filled.
#[derive(Debug, Clone, Copy, Default)]
struct WindowCounters {
    dram_read_hits: u64,
    dram_write_hits: u64,
    nvm_read_hits: u64,
    nvm_write_hits: u64,
    faults: u64,
    migrations_to_dram: u64,
    migrations_to_nvm: u64,
    fills_to_dram: u64,
    fills_to_nvm: u64,
    evictions_to_disk: u64,
}

impl WindowCounters {
    fn hits(&self) -> u64 {
        self.dram_read_hits + self.dram_write_hits + self.nvm_read_hits + self.nvm_write_hits
    }
}

/// An [`EventSink`] that aggregates events into per-window
/// [`IntervalRecord`]s plus a cumulative [`MetricsRegistry`].
///
/// Windows count **demand accesses** (`Served` + `Fault` events); the
/// policy actions a fault triggers are attributed to the window of the
/// faulting access even though they arrive as later events, so a
/// window's `fills` always balance its `faults`. Accesses during the
/// declared warmup prefix update occupancy but produce no records —
/// interval 0 starts at the first steady-state access. A `window` of 0
/// disables slicing: the whole steady state becomes one record at
/// [`WindowedCollector::finish`].
///
/// # Examples
///
/// ```
/// use hybridmem_core::{EventSink, HybridSimulator, WindowedCollector};
/// use hybridmem_policy::{TwoLruConfig, TwoLruPolicy};
/// use hybridmem_types::{PageAccess, PageCount, PageId};
///
/// let config = TwoLruConfig::new(PageCount::new(8), PageCount::new(32))?;
/// let mut sim = HybridSimulator::with_date2016_devices(Box::new(TwoLruPolicy::new(config)));
/// sim.set_event_sink(Box::new(WindowedCollector::new("demo", "two-lru", 16, 0)));
/// for i in 0..64u64 {
///     sim.step(PageAccess::read(PageId::new(i % 24)));
/// }
/// let mut sink = sim.take_event_sink().expect("sink was installed");
/// let collector = sink
///     .as_any_mut()
///     .downcast_mut::<WindowedCollector>()
///     .expect("the installed sink is a WindowedCollector");
/// collector.finish();
/// let records = collector.drain();
/// assert_eq!(records.len(), 4);
/// assert_eq!(records[0].accesses, 16);
/// # Ok::<(), hybridmem_types::Error>(())
/// ```
#[derive(Debug)]
pub struct WindowedCollector {
    workload: String,
    policy: String,
    window: u64,
    warmup: u64,
    /// Demand accesses seen so far (warmup included).
    access_index: u64,
    /// Demand accesses in the window currently being filled.
    in_window: u64,
    /// Trace index of the current window's first access.
    window_start: u64,
    interval: u64,
    dram_occupancy: u64,
    nvm_occupancy: u64,
    current: WindowCounters,
    registry: MetricsRegistry,
    completed: Vec<IntervalRecord>,
}

impl WindowedCollector {
    /// Creates a collector slicing the run into `window`-access
    /// intervals after skipping `warmup` accesses (0 = no warmup). A
    /// `window` of 0 yields a single whole-run interval.
    #[must_use]
    pub fn new(
        workload: impl Into<String>,
        policy: impl Into<String>,
        window: u64,
        warmup: u64,
    ) -> Self {
        Self {
            workload: workload.into(),
            policy: policy.into(),
            window,
            warmup,
            access_index: 0,
            in_window: 0,
            window_start: 0,
            interval: 0,
            dram_occupancy: 0,
            nvm_occupancy: 0,
            current: WindowCounters::default(),
            registry: MetricsRegistry::new(),
            completed: Vec::new(),
        }
    }

    /// True once the warmup prefix has fully passed (actions trail
    /// their demand access, so the comparison is strict).
    fn in_steady_state(&self) -> bool {
        self.access_index > self.warmup
    }

    /// Closes the current window and pushes its record.
    fn flush(&mut self) {
        debug_assert!(self.in_window > 0);
        let c = self.current;
        let accesses = self.in_window;
        #[allow(clippy::cast_precision_loss)]
        let n = accesses as f64;
        #[allow(clippy::cast_precision_loss)]
        let ratio = |count: u64| count as f64 / n;
        let dram_hits = c.dram_read_hits + c.dram_write_hits;
        let nvm_hits = c.nvm_read_hits + c.nvm_write_hits;
        #[allow(clippy::cast_precision_loss)]
        let conditional = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                part as f64 / whole as f64
            }
        };
        let model = ModelParams::date2016(Probabilities {
            hit_dram: ratio(dram_hits),
            hit_nvm: ratio(nvm_hits),
            miss: ratio(c.faults),
            read_given_dram: conditional(c.dram_read_hits, dram_hits),
            read_given_nvm: conditional(c.nvm_read_hits, nvm_hits),
            migrate_to_dram: ratio(c.migrations_to_dram),
            migrate_to_nvm: ratio(c.migrations_to_nvm),
            disk_to_dram: conditional(c.fills_to_dram, c.faults),
            disk_to_nvm: conditional(c.fills_to_nvm, c.faults),
        });

        self.completed.push(IntervalRecord {
            workload: self.workload.clone(),
            policy: self.policy.clone(),
            interval: self.interval,
            start_access: self.window_start,
            end_access: self.window_start + accesses,
            accesses,
            dram_read_hits: c.dram_read_hits,
            dram_write_hits: c.dram_write_hits,
            nvm_read_hits: c.nvm_read_hits,
            nvm_write_hits: c.nvm_write_hits,
            faults: c.faults,
            migrations_to_dram: c.migrations_to_dram,
            migrations_to_nvm: c.migrations_to_nvm,
            fills_to_dram: c.fills_to_dram,
            fills_to_nvm: c.fills_to_nvm,
            evictions_to_disk: c.evictions_to_disk,
            dram_occupancy: self.dram_occupancy,
            nvm_occupancy: self.nvm_occupancy,
            hit_ratio: ratio(c.hits()),
            amat_ns: model.amat().value(),
            appr_nj: model.appr().value(),
        });

        self.registry.inc("sim.intervals");
        self.registry.add("sim.accesses", accesses);
        self.registry.add("sim.dram_read_hits", c.dram_read_hits);
        self.registry.add("sim.dram_write_hits", c.dram_write_hits);
        self.registry.add("sim.nvm_read_hits", c.nvm_read_hits);
        self.registry.add("sim.nvm_write_hits", c.nvm_write_hits);
        self.registry.add("sim.faults", c.faults);
        self.registry
            .add("sim.migrations_to_dram", c.migrations_to_dram);
        self.registry
            .add("sim.migrations_to_nvm", c.migrations_to_nvm);
        self.registry.add("sim.fills_to_dram", c.fills_to_dram);
        self.registry.add("sim.fills_to_nvm", c.fills_to_nvm);
        self.registry
            .add("sim.evictions_to_disk", c.evictions_to_disk);
        #[allow(clippy::cast_precision_loss)]
        {
            self.registry
                .set_gauge("sim.dram_occupancy", self.dram_occupancy as f64);
            self.registry
                .set_gauge("sim.nvm_occupancy", self.nvm_occupancy as f64);
        }
        self.registry.observe("sim.window.faults", c.faults);
        self.registry.observe(
            "sim.window.migrations",
            c.migrations_to_dram + c.migrations_to_nvm,
        );

        self.interval += 1;
        self.in_window = 0;
        self.current = WindowCounters::default();
    }

    /// Closes the partially filled final window, if any. Call exactly
    /// once after the run (idempotent when nothing new arrived).
    pub fn finish(&mut self) {
        if self.in_window > 0 {
            self.flush();
        }
    }

    /// Completed interval records so far, oldest first.
    #[must_use]
    pub fn records(&self) -> &[IntervalRecord] {
        &self.completed
    }

    /// Takes the completed records, leaving the collector running —
    /// the streaming path (`hybridmem observe`) drains between steps.
    pub fn drain(&mut self) -> Vec<IntervalRecord> {
        std::mem::take(&mut self.completed)
    }

    /// The cumulative metrics registry (updated at each window close).
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Mutable registry access, so callers can fold in metrics from
    /// adjacent subsystems (e.g. the policy's window statistics) before
    /// taking the final snapshot.
    pub fn registry_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.registry
    }

    /// Snapshot of the cumulative metrics.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    fn on_action(&mut self, action: PolicyAction) {
        // Occupancy moves during warmup too — the steady-state windows
        // must start from the true resident-set level.
        match action {
            PolicyAction::FillFromDisk { into, .. } => match into {
                MemoryKind::Dram => self.dram_occupancy += 1,
                MemoryKind::Nvm => self.nvm_occupancy += 1,
            },
            PolicyAction::Migrate { from, to, .. } => {
                match from {
                    MemoryKind::Dram => self.dram_occupancy = self.dram_occupancy.saturating_sub(1),
                    MemoryKind::Nvm => self.nvm_occupancy = self.nvm_occupancy.saturating_sub(1),
                }
                match to {
                    MemoryKind::Dram => self.dram_occupancy += 1,
                    MemoryKind::Nvm => self.nvm_occupancy += 1,
                }
            }
            PolicyAction::EvictToDisk { from, .. } => match from {
                MemoryKind::Dram => self.dram_occupancy = self.dram_occupancy.saturating_sub(1),
                MemoryKind::Nvm => self.nvm_occupancy = self.nvm_occupancy.saturating_sub(1),
            },
        }
        if !self.in_steady_state() {
            return;
        }
        match action {
            PolicyAction::FillFromDisk { into, .. } => match into {
                MemoryKind::Dram => self.current.fills_to_dram += 1,
                MemoryKind::Nvm => self.current.fills_to_nvm += 1,
            },
            PolicyAction::Migrate { to, .. } => match to {
                MemoryKind::Dram => self.current.migrations_to_dram += 1,
                MemoryKind::Nvm => self.current.migrations_to_nvm += 1,
            },
            PolicyAction::EvictToDisk { .. } => self.current.evictions_to_disk += 1,
        }
    }

    /// Handles one demand access (`Served` or `Fault`).
    fn on_demand(&mut self, count: impl FnOnce(&mut WindowCounters)) {
        // Deferred flush: close the previous window only when the next
        // demand access arrives, so a window-closing fault's fill and
        // eviction actions still land in *its* window.
        if self.window > 0 && self.in_window == self.window {
            self.flush();
        }
        let index = self.access_index;
        self.access_index += 1;
        if index < self.warmup {
            return;
        }
        if self.in_window == 0 {
            self.window_start = index;
        }
        self.in_window += 1;
        count(&mut self.current);
    }
}

impl EventSink for WindowedCollector {
    fn record(&mut self, event: SimEvent) {
        match event {
            SimEvent::Served { access, from } => {
                self.on_demand(|c| match (from, access.kind) {
                    (MemoryKind::Dram, AccessKind::Read) => c.dram_read_hits += 1,
                    (MemoryKind::Dram, AccessKind::Write) => c.dram_write_hits += 1,
                    (MemoryKind::Nvm, AccessKind::Read) => c.nvm_read_hits += 1,
                    (MemoryKind::Nvm, AccessKind::Write) => c.nvm_write_hits += 1,
                });
            }
            SimEvent::Fault { .. } => self.on_demand(|c| c.faults += 1),
            SimEvent::Action { action } => self.on_action(action),
            // Provenance probes are the page ledger's concern; interval
            // aggregates already count the hit via its Served event.
            SimEvent::CounterProbe { .. } => {}
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Serializes records as JSON Lines: one [`IntervalRecord`] per line,
/// in slice order. Field order is the struct's declaration order, so
/// identical records always produce identical bytes.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_jsonl<W: Write>(writer: &mut W, records: &[IntervalRecord]) -> std::io::Result<()> {
    for record in records {
        writeln!(writer, "{}", hybridmem_json::to_string(record))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridmem_types::{PageAccess, PageId};

    fn served(page: u64, kind: MemoryKind) -> SimEvent {
        SimEvent::Served {
            access: PageAccess::read(PageId::new(page)),
            from: kind,
        }
    }

    fn fault_with_fill(page: u64, into: MemoryKind) -> [SimEvent; 2] {
        [
            SimEvent::Fault {
                access: PageAccess::read(PageId::new(page)),
            },
            SimEvent::Action {
                action: PolicyAction::FillFromDisk {
                    page: PageId::new(page),
                    into,
                },
            },
        ]
    }

    #[test]
    fn windows_tile_the_run_and_attribute_fills_to_the_faulting_window() {
        let mut collector = WindowedCollector::new("w", "p", 2, 0);
        // Access 0: fault (fills into DRAM), access 1: hit — window 0
        // closes exactly at the boundary with the fill inside it.
        for event in fault_with_fill(1, MemoryKind::Dram) {
            collector.record(event);
        }
        collector.record(served(1, MemoryKind::Dram));
        // Access 2: another fault. Its fill must land in window 1 even
        // though window 0 was already full when the fault arrived.
        for event in fault_with_fill(2, MemoryKind::Nvm) {
            collector.record(event);
        }
        collector.finish();

        let records = collector.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].accesses, 2);
        assert_eq!(records[0].faults, 1);
        assert_eq!(records[0].fills_to_dram, 1);
        assert_eq!((records[0].start_access, records[0].end_access), (0, 2));
        assert_eq!(records[1].accesses, 1, "partial trailing window");
        assert_eq!(records[1].fills_to_nvm, 1);
        assert_eq!((records[1].start_access, records[1].end_access), (2, 3));
    }

    #[test]
    fn warmup_accesses_produce_no_records_but_move_occupancy() {
        let mut collector = WindowedCollector::new("w", "p", 10, 2);
        for event in fault_with_fill(1, MemoryKind::Dram) {
            collector.record(event);
        }
        for event in fault_with_fill(2, MemoryKind::Nvm) {
            collector.record(event);
        }
        collector.record(served(1, MemoryKind::Dram));
        collector.finish();

        let records = collector.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].start_access, 2, "interval 0 starts after warmup");
        assert_eq!(records[0].accesses, 1);
        assert_eq!(records[0].faults, 0, "warmup faults are not counted");
        assert_eq!(records[0].dram_occupancy, 1, "warmup fills still resident");
        assert_eq!(records[0].nvm_occupancy, 1);
    }

    #[test]
    fn window_zero_yields_one_whole_run_record() {
        let mut collector = WindowedCollector::new("w", "p", 0, 0);
        for page in 0..5 {
            collector.record(served(page, MemoryKind::Dram));
        }
        collector.finish();
        assert_eq!(collector.records().len(), 1);
        assert_eq!(collector.records()[0].accesses, 5);
        assert!((collector.records()[0].hit_ratio - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn interval_amat_matches_the_closed_form() {
        let mut collector = WindowedCollector::new("w", "p", 4, 0);
        collector.record(served(1, MemoryKind::Dram));
        collector.record(served(2, MemoryKind::Nvm));
        for event in fault_with_fill(3, MemoryKind::Dram) {
            collector.record(event);
        }
        collector.record(served(1, MemoryKind::Dram));
        collector.finish();

        let record = &collector.records()[0];
        let model = ModelParams::date2016(Probabilities {
            hit_dram: 0.5,
            hit_nvm: 0.25,
            miss: 0.25,
            read_given_dram: 1.0,
            read_given_nvm: 1.0,
            migrate_to_dram: 0.0,
            migrate_to_nvm: 0.0,
            disk_to_dram: 1.0,
            disk_to_nvm: 0.0,
        });
        assert!((record.amat_ns - model.amat().value()).abs() < 1e-9);
        assert!((record.appr_nj - model.appr().value()).abs() < 1e-9);
        assert!((record.hit_ratio - 0.75).abs() < 1e-12);
    }

    #[test]
    fn registry_accumulates_across_windows() {
        let mut collector = WindowedCollector::new("w", "p", 2, 0);
        for page in 0..6 {
            collector.record(served(page, MemoryKind::Dram));
        }
        collector.finish();
        let registry = collector.registry();
        assert_eq!(registry.counter("sim.intervals"), 3);
        assert_eq!(registry.counter("sim.accesses"), 6);
        assert_eq!(registry.counter("sim.dram_read_hits"), 6);
        let windows = registry.histogram("sim.window.faults").unwrap();
        assert_eq!(windows.count(), 3);
    }

    #[test]
    fn drain_takes_records_and_keeps_collecting() {
        let mut collector = WindowedCollector::new("w", "p", 1, 0);
        collector.record(served(1, MemoryKind::Dram));
        collector.record(served(2, MemoryKind::Dram));
        let first = collector.drain();
        assert_eq!(first.len(), 1, "only the closed window is drained");
        collector.record(served(3, MemoryKind::Dram));
        collector.finish();
        let rest = collector.drain();
        assert_eq!(rest.len(), 2);
        assert_eq!(rest[0].interval, 1);
        assert_eq!(rest[1].interval, 2);
        assert!(collector.records().is_empty());
    }

    #[test]
    fn jsonl_is_one_line_per_record_and_roundtrips() {
        let mut collector = WindowedCollector::new("w", "p", 2, 0);
        for page in 0..4 {
            collector.record(served(page, MemoryKind::Dram));
        }
        collector.finish();
        let mut bytes = Vec::new();
        write_jsonl(&mut bytes, collector.records()).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], hybridmem_json::to_string(&collector.records()[0]));
        let parsed = hybridmem_json::parse(lines[0]).unwrap();
        assert_eq!(parsed["accesses"], collector.records()[0].accesses);
        assert!(lines[0].starts_with("{\"workload\":\"w\""));
    }

    #[test]
    fn finish_is_idempotent() {
        let mut collector = WindowedCollector::new("w", "p", 4, 0);
        collector.record(served(1, MemoryKind::Dram));
        collector.finish();
        collector.finish();
        assert_eq!(collector.records().len(), 1);
    }

    #[test]
    fn final_partial_window_flushes_when_run_length_is_not_a_multiple() {
        // 10 accesses through a window of 4: two full windows plus a
        // 2-access remainder that only `finish` can close.
        let mut collector = WindowedCollector::new("w", "p", 4, 0);
        for page in 0..10 {
            collector.record(served(page, MemoryKind::Dram));
        }
        assert_eq!(
            collector.records().len(),
            2,
            "the remainder stays open until finish"
        );
        collector.finish();
        let records = collector.records();
        assert_eq!(records.len(), 3);
        assert_eq!(records[2].accesses, 2);
        assert_eq!((records[2].start_access, records[2].end_access), (8, 10));
        // The windows tile the run exactly: no access lost or duplicated.
        assert_eq!(records.iter().map(|r| r.accesses).sum::<u64>(), 10);
        for pair in records.windows(2) {
            assert_eq!(pair[0].end_access, pair[1].start_access);
        }
        assert_eq!(collector.registry().counter("sim.accesses"), 10);
    }

    #[test]
    fn zero_demand_run_emits_no_empty_records() {
        let mut collector = WindowedCollector::new("w", "p", 4, 0);
        collector.finish();
        assert!(collector.records().is_empty());
        assert_eq!(collector.registry().counter("sim.intervals"), 0);

        // Even action-only streams (no demand access ever served) must
        // not fabricate an interval.
        let mut action_only = WindowedCollector::new("w", "p", 4, 0);
        action_only.record(SimEvent::Action {
            action: PolicyAction::FillFromDisk {
                page: PageId::new(1),
                into: MemoryKind::Dram,
            },
        });
        action_only.finish();
        assert!(action_only.records().is_empty());
        let mut bytes = Vec::new();
        write_jsonl(&mut bytes, action_only.records()).unwrap();
        assert!(bytes.is_empty(), "no records means no JSONL lines");
    }
}
