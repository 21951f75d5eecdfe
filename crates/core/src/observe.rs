//! Windowed observability: aggregates the simulator's event stream into
//! per-interval records and a [`MetricsRegistry`].
//!
//! The paper's claims are dynamic — hit ratio holds while migrations
//! trade AMAT (Eq. 1) against APPR (Eq. 2) — but a
//! [`SimulationReport`](crate::SimulationReport) only shows end-of-run aggregates. The
//! windowed collector is a fold of the [`CellSink`](crate::CellSink)
//! that slices the run into fixed windows of N demand accesses and emits
//! one [`IntervalRecord`] per window: per-tier hit counts, faults,
//! migrations in both directions, fills, evictions, DRAM/NVM occupancy,
//! and the interval's AMAT/APPR computed by feeding the interval's
//! measured probabilities through the analytical model ([`ModelParams`]).
//! Request it with [`Instrumentation::windowed`](crate::Instrumentation::windowed).
//!
//! All interval boundaries are **access-index-based** (never wall-clock),
//! so the records — and their JSONL serialization via [`write_jsonl`] —
//! are byte-identical regardless of thread count or machine load.

use std::io::Write;

use hybridmem_json::impl_json;
use hybridmem_metrics::{MetricsRegistry, MetricsSnapshot};
use hybridmem_policy::{AdaptiveTwoLruPolicy, HybridPolicy, PolicyAction, TwoLruPolicy};
use hybridmem_types::{AccessKind, MemoryKind};

use crate::cell::{CellContext, Cursor};
use crate::{ModelParams, Probabilities, SimEvent};

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

/// Demand-access and action tallies of one window: what Eq. 1 and Eq. 2
/// are evaluated on. The interval metrics and the audit's `amat-window`
/// law share it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WindowTally {
    pub(crate) dram_read_hits: u64,
    pub(crate) dram_write_hits: u64,
    pub(crate) nvm_read_hits: u64,
    pub(crate) nvm_write_hits: u64,
    pub(crate) faults: u64,
    /// Migrations into DRAM, counted by destination, same-tier included
    /// (what the closed form prices).
    pub(crate) migrations_to_dram: u64,
    /// Migrations into NVM, counted like `migrations_to_dram`.
    pub(crate) migrations_to_nvm: u64,
    /// NVM→DRAM moves only (what the simulator charges).
    pub(crate) crossings_to_dram: u64,
    /// DRAM→NVM moves only.
    pub(crate) crossings_to_nvm: u64,
    pub(crate) fills_to_dram: u64,
    pub(crate) fills_to_nvm: u64,
    pub(crate) evictions_to_disk: u64,
}

impl WindowTally {
    /// The measured probabilities of a window of `accesses` demand
    /// accesses, as Eq. 1 and Eq. 2 take them.
    pub(crate) fn probabilities(&self, accesses: u64) -> Probabilities {
        #[allow(clippy::cast_precision_loss)]
        let ratio = |count: u64| count as f64 / accesses as f64;
        #[allow(clippy::cast_precision_loss)]
        let conditional = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                part as f64 / whole as f64
            }
        };
        let dram_hits = self.dram_read_hits + self.dram_write_hits;
        let nvm_hits = self.nvm_read_hits + self.nvm_write_hits;
        Probabilities {
            hit_dram: ratio(dram_hits),
            hit_nvm: ratio(nvm_hits),
            miss: ratio(self.faults),
            read_given_dram: conditional(self.dram_read_hits, dram_hits),
            read_given_nvm: conditional(self.nvm_read_hits, nvm_hits),
            migrate_to_dram: ratio(self.migrations_to_dram),
            migrate_to_nvm: ratio(self.migrations_to_nvm),
            disk_to_dram: conditional(self.fills_to_dram, self.faults),
            disk_to_nvm: conditional(self.fills_to_nvm, self.faults),
        }
    }
}

/// The window being filled: `width` steady-state demand accesses (0 = the
/// whole run), with the actions they trigger.
///
/// A window opens at the first steady-state demand access and closes only
/// when the next demand access arrives ([`Window::take_full`] at each
/// access boundary), so a window-closing fault's fill and eviction still
/// land in *its* window.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Window {
    width: u64,
    /// Trace index of the window's first demand access.
    pub(crate) start: u64,
    /// Demand accesses in the window.
    pub(crate) accesses: u64,
    pub(crate) tally: WindowTally,
}

impl Window {
    pub(crate) fn new(width: u64) -> Self {
        Self {
            width,
            ..Self::default()
        }
    }

    /// Counts `event`, which the cursor has already advanced over.
    pub(crate) fn record(&mut self, event: SimEvent, cursor: &Cursor) {
        if !cursor.steady() {
            return;
        }
        let tally = &mut self.tally;
        match event {
            SimEvent::Served { access, from } => {
                match (from, access.kind) {
                    (MemoryKind::Dram, AccessKind::Read) => tally.dram_read_hits += 1,
                    (MemoryKind::Dram, AccessKind::Write) => tally.dram_write_hits += 1,
                    (MemoryKind::Nvm, AccessKind::Read) => tally.nvm_read_hits += 1,
                    (MemoryKind::Nvm, AccessKind::Write) => tally.nvm_write_hits += 1,
                }
                self.open(cursor);
            }
            SimEvent::Fault { .. } => {
                tally.faults += 1;
                self.open(cursor);
            }
            SimEvent::Action { action } => match action {
                PolicyAction::FillFromDisk { into, .. } => match into {
                    MemoryKind::Dram => tally.fills_to_dram += 1,
                    MemoryKind::Nvm => tally.fills_to_nvm += 1,
                },
                PolicyAction::Migrate { from, to, .. } => match (from, to) {
                    (MemoryKind::Nvm, MemoryKind::Dram) => {
                        tally.migrations_to_dram += 1;
                        tally.crossings_to_dram += 1;
                    }
                    (MemoryKind::Dram, MemoryKind::Nvm) => {
                        tally.migrations_to_nvm += 1;
                        tally.crossings_to_nvm += 1;
                    }
                    (MemoryKind::Dram, MemoryKind::Dram) => tally.migrations_to_dram += 1,
                    (MemoryKind::Nvm, MemoryKind::Nvm) => tally.migrations_to_nvm += 1,
                },
                PolicyAction::EvictToDisk { .. } => tally.evictions_to_disk += 1,
            },
            // Probes explain hits the Served event already counted.
            SimEvent::CounterProbe { .. } => {}
        }
    }

    fn open(&mut self, cursor: &Cursor) {
        if self.accesses == 0 {
            self.start = cursor.index();
        }
        self.accesses += 1;
    }

    /// The window, closed, when it holds `width` accesses; the next one
    /// starts empty.
    pub(crate) fn take_full(&mut self) -> Option<Self> {
        if self.width > 0 && self.accesses == self.width {
            self.take()
        } else {
            None
        }
    }

    /// Whatever the window holds, closed (the end of the run), or `None`
    /// when it holds no access.
    pub(crate) fn take(&mut self) -> Option<Self> {
        (self.accesses > 0).then(|| std::mem::replace(self, Self::new(self.width)))
    }
}

/// The interval-metrics fold of a [`CellSink`](crate::CellSink): slices
/// the steady state into [`Window`]s and turns each into an
/// [`IntervalRecord`], plus a cumulative [`MetricsRegistry`].
///
/// Warmup accesses produce no records (interval 0 starts at the first
/// steady-state access), but their fills still count toward occupancy. A
/// width of 0 yields one whole-run record at the end.
#[derive(Debug)]
pub(crate) struct WindowedCollector {
    window: Window,
    interval: u64,
    registry: MetricsRegistry,
    completed: Vec<IntervalRecord>,
}

impl WindowedCollector {
    /// A collector of `width`-access windows (0 = one whole-run window).
    pub(crate) fn new(width: u64) -> Self {
        Self {
            window: Window::new(width),
            interval: 0,
            registry: MetricsRegistry::new(),
            completed: Vec::new(),
        }
    }

    pub(crate) fn record(&mut self, event: SimEvent, cursor: &Cursor) {
        self.window.record(event, cursor);
    }

    /// The deferred flush: a full window closes when the next demand
    /// access arrives.
    pub(crate) fn close_access(&mut self, cursor: &Cursor, context: &CellContext) {
        if let Some(window) = self.window.take_full() {
            self.flush(window, cursor, context);
        }
    }

    /// Takes the completed records, leaving the collector running.
    pub(crate) fn drain(&mut self) -> Vec<IntervalRecord> {
        std::mem::take(&mut self.completed)
    }

    /// Closes the partial final window and returns every record not yet
    /// drained, with the metrics snapshot. A counter-window `policy` adds
    /// its own window statistics to the metrics.
    pub(crate) fn finish(
        mut self,
        cursor: &Cursor,
        context: &CellContext,
        policy: &dyn HybridPolicy,
    ) -> (Vec<IntervalRecord>, MetricsSnapshot) {
        if let Some(window) = self.window.take() {
            self.flush(window, cursor, context);
        }
        if let Some(any) = policy.as_any() {
            if let Some(two_lru) = any.downcast_ref::<TwoLruPolicy>() {
                two_lru.export_metrics(&mut self.registry);
            } else if let Some(adaptive) = any.downcast_ref::<AdaptiveTwoLruPolicy>() {
                adaptive.two_lru().export_metrics(&mut self.registry);
            }
        }
        (self.completed, self.registry.snapshot())
    }

    /// Turns a closed window into its record, with the tiers' occupancy as
    /// of the window's end.
    fn flush(&mut self, window: Window, cursor: &Cursor, context: &CellContext) {
        let c = window.tally;
        let accesses = window.accesses;
        let model = ModelParams::date2016(c.probabilities(accesses));
        let hits = c.dram_read_hits + c.dram_write_hits + c.nvm_read_hits + c.nvm_write_hits;
        #[allow(clippy::cast_precision_loss)]
        let hit_ratio = hits as f64 / accesses as f64;
        self.completed.push(IntervalRecord {
            workload: context.workload.clone(),
            policy: context.policy.clone(),
            interval: self.interval,
            start_access: window.start,
            end_access: window.start + accesses,
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
            dram_occupancy: cursor.dram_resident,
            nvm_occupancy: cursor.nvm_resident,
            hit_ratio,
            amat_ns: model.amat().value(),
            appr_nj: model.appr().value(),
        });

        let registry = &mut self.registry;
        registry.inc("sim.intervals");
        registry.add("sim.accesses", accesses);
        registry.add("sim.dram_read_hits", c.dram_read_hits);
        registry.add("sim.dram_write_hits", c.dram_write_hits);
        registry.add("sim.nvm_read_hits", c.nvm_read_hits);
        registry.add("sim.nvm_write_hits", c.nvm_write_hits);
        registry.add("sim.faults", c.faults);
        registry.add("sim.migrations_to_dram", c.migrations_to_dram);
        registry.add("sim.migrations_to_nvm", c.migrations_to_nvm);
        registry.add("sim.fills_to_dram", c.fills_to_dram);
        registry.add("sim.fills_to_nvm", c.fills_to_nvm);
        registry.add("sim.evictions_to_disk", c.evictions_to_disk);
        #[allow(clippy::cast_precision_loss)]
        {
            registry.set_gauge("sim.dram_occupancy", cursor.dram_resident as f64);
            registry.set_gauge("sim.nvm_occupancy", cursor.nvm_resident as f64);
        }
        registry.observe("sim.window.faults", c.faults);
        registry.observe(
            "sim.window.migrations",
            c.migrations_to_dram + c.migrations_to_nvm,
        );
        self.interval += 1;
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
    use crate::cell::fixture;
    use crate::{EventSink, Instrumentation, InstrumentedRun};
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

    /// A sink slicing `width`-access windows after `warmup` accesses.
    fn collector(width: u64, warmup: u64, events: &[SimEvent]) -> crate::CellSink {
        let context = CellContext {
            warmup,
            ..fixture::context("w", "p")
        };
        fixture::sink(Instrumentation::windowed(width), context, events)
    }

    fn collect(width: u64, warmup: u64, events: &[SimEvent]) -> InstrumentedRun {
        fixture::finish(collector(width, warmup, events))
    }

    #[test]
    fn windows_tile_the_run_and_attribute_fills_to_the_faulting_window() {
        // Access 0: fault (fills into DRAM), access 1: hit — window 0
        // closes exactly at the boundary with the fill inside it. Access
        // 2: another fault. Its fill must land in window 1 even though
        // window 0 was already full when the fault arrived.
        let mut events = fault_with_fill(1, MemoryKind::Dram).to_vec();
        events.push(served(1, MemoryKind::Dram));
        events.extend(fault_with_fill(2, MemoryKind::Nvm));
        let records = collect(2, 0, &events).records;
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
        let mut events = fault_with_fill(1, MemoryKind::Dram).to_vec();
        events.extend(fault_with_fill(2, MemoryKind::Nvm));
        events.push(served(1, MemoryKind::Dram));
        let records = collect(10, 2, &events).records;
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].start_access, 2, "interval 0 starts after warmup");
        assert_eq!(records[0].accesses, 1);
        assert_eq!(records[0].faults, 0, "warmup faults are not counted");
        assert_eq!(records[0].dram_occupancy, 1, "warmup fills still resident");
        assert_eq!(records[0].nvm_occupancy, 1);
    }

    #[test]
    fn window_zero_yields_one_whole_run_record() {
        let events: Vec<SimEvent> = (0..5).map(|page| served(page, MemoryKind::Dram)).collect();
        let records = collect(0, 0, &events).records;
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].accesses, 5);
        assert!((records[0].hit_ratio - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn interval_amat_matches_the_closed_form() {
        let mut events = vec![served(1, MemoryKind::Dram), served(2, MemoryKind::Nvm)];
        events.extend(fault_with_fill(3, MemoryKind::Dram));
        events.push(served(1, MemoryKind::Dram));
        let record = &collect(4, 0, &events).records[0];
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
        let events: Vec<SimEvent> = (0..6).map(|page| served(page, MemoryKind::Dram)).collect();
        let metrics = collect(2, 0, &events).metrics;
        assert_eq!(metrics.counters["sim.intervals"], 3);
        assert_eq!(metrics.counters["sim.accesses"], 6);
        assert_eq!(metrics.counters["sim.dram_read_hits"], 6);
        assert_eq!(metrics.histograms["sim.window.faults"].count, 3);
    }

    #[test]
    fn drain_takes_records_and_keeps_collecting() {
        let mut sink = collector(
            1,
            0,
            &[served(1, MemoryKind::Dram), served(2, MemoryKind::Dram)],
        );
        let first = sink.drain_records();
        assert_eq!(first.len(), 1, "only the closed window is drained");
        sink.record(served(3, MemoryKind::Dram));
        let rest = fixture::finish(sink).records;
        assert_eq!(rest.len(), 2);
        assert_eq!(rest[0].interval, 1);
        assert_eq!(rest[1].interval, 2);
    }

    #[test]
    fn jsonl_is_one_line_per_record_and_roundtrips() {
        let events: Vec<SimEvent> = (0..4).map(|page| served(page, MemoryKind::Dram)).collect();
        let records = collect(2, 0, &events).records;
        let mut bytes = Vec::new();
        write_jsonl(&mut bytes, &records).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], hybridmem_json::to_string(&records[0]));
        let parsed = hybridmem_json::parse(lines[0]).unwrap();
        assert_eq!(parsed["accesses"], records[0].accesses);
        assert!(lines[0].starts_with("{\"workload\":\"w\""));
    }

    #[test]
    fn final_partial_window_flushes_when_run_length_is_not_a_multiple() {
        // 10 accesses through a window of 4: two full windows plus a
        // 2-access remainder that only the end of the run can close.
        let events: Vec<SimEvent> = (0..10).map(|page| served(page, MemoryKind::Dram)).collect();
        let mut sink = collector(4, 0, &events);
        let mut records = sink.drain_records();
        assert_eq!(records.len(), 2, "the remainder stays open until finish");
        let run = fixture::finish(sink);
        records.extend(run.records);
        assert_eq!(records.len(), 3);
        assert_eq!(records[2].accesses, 2);
        assert_eq!((records[2].start_access, records[2].end_access), (8, 10));
        // The windows tile the run exactly: no access lost or duplicated.
        assert_eq!(records.iter().map(|r| r.accesses).sum::<u64>(), 10);
        for pair in records.windows(2) {
            assert_eq!(pair[0].end_access, pair[1].start_access);
        }
        assert_eq!(run.metrics.counters["sim.accesses"], 10);
    }

    #[test]
    fn zero_demand_run_emits_no_empty_records() {
        let empty = collect(4, 0, &[]);
        assert!(empty.records.is_empty());
        assert!(!empty.metrics.counters.contains_key("sim.intervals"));

        // Even action-only streams (no demand access ever served) must
        // not fabricate an interval.
        let action_only = collect(
            4,
            0,
            &[SimEvent::Action {
                action: PolicyAction::FillFromDisk {
                    page: PageId::new(1),
                    into: MemoryKind::Dram,
                },
            }],
        );
        assert!(action_only.records.is_empty());
        let mut bytes = Vec::new();
        write_jsonl(&mut bytes, &action_only.records).unwrap();
        assert!(bytes.is_empty(), "no records means no JSONL lines");
    }
}
