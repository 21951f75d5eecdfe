//! The one sink an instrumented cell carries.
//!
//! The paper's case is an accounting argument: every hit, fault and page
//! move is counted and priced (Eq. 1–3). The windowed metrics, the page
//! ledger, the audit and the flight recorder all derive their accounts
//! from the same [`SimEvent`] stream, and they all need the same facts
//! about it: which demand access an event belongs to, whether warmup has
//! passed, how many pages each tier holds. A [`CellSink`] keeps those
//! facts once, in one [`Cursor`], and folds each event into the analyses
//! the cell's [`Instrumentation`] asked for. A fold keeps only what is its
//! own: window tallies and records, page journeys, invariant state, rings.

use hybridmem_policy::{AdaptiveTwoLruPolicy, PolicyAction, TwoLruPolicy};
use hybridmem_types::MemoryKind;

use crate::audit::AuditSink;
use crate::flightrec::FlightRecorder;
use crate::ledger::PageLedger;
use crate::observe::WindowedCollector;
use crate::{
    EventSink, FlightRecord, HybridSimulator, Instrumentation, InstrumentedRun, IntervalRecord,
    PolicyKind, SimEvent,
};

/// Where a cell's event stream stands. Kept once per cell by its
/// [`CellSink`] and lent to every fold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Cursor {
    /// Demand accesses seen (`Served` + `Fault`), warmup included.
    pub(crate) accesses: u64,
    /// Leading demand accesses that are warmup.
    pub(crate) warmup: u64,
    /// Resident DRAM pages, saturating at zero.
    pub(crate) dram_resident: u64,
    /// Resident NVM pages, saturating at zero.
    pub(crate) nvm_resident: u64,
    /// For an action that moved a page out of a tier: the pages that tier
    /// held just before (0 = it was already empty and stays at zero).
    pub(crate) before_departure: Option<u64>,
    /// Served demand requests.
    pub(crate) served: u64,
    /// Demand faults.
    pub(crate) faults: u64,
    /// Migrations, both directions, same-tier included.
    pub(crate) migrations: u64,
    /// Disk fills.
    pub(crate) fills: u64,
    /// Disk evictions.
    pub(crate) evictions: u64,
    /// NVM counter probes.
    pub(crate) probes: u64,
}

impl Cursor {
    /// The demand access the latest event belongs to: actions and probes
    /// trail their demand access and carry its index (0 before any).
    pub(crate) fn index(&self) -> u64 {
        self.accesses.saturating_sub(1)
    }

    /// True once warmup has passed. Actions trail their demand access, so
    /// the comparison is strict: an action counts once `accesses > warmup`,
    /// and a demand access counts when its own index reaches `warmup`.
    pub(crate) fn steady(&self) -> bool {
        self.accesses > self.warmup
    }

    fn resident_mut(&mut self, tier: MemoryKind) -> &mut u64 {
        match tier {
            MemoryKind::Dram => &mut self.dram_resident,
            MemoryKind::Nvm => &mut self.nvm_resident,
        }
    }

    fn depart(&mut self, tier: MemoryKind) {
        let resident = self.resident_mut(tier);
        let before = *resident;
        *resident = before.saturating_sub(1);
        self.before_departure = Some(before);
    }

    fn advance(&mut self, event: SimEvent) {
        self.before_departure = None;
        match event {
            SimEvent::Served { .. } => {
                self.accesses += 1;
                self.served += 1;
            }
            SimEvent::Fault { .. } => {
                self.accesses += 1;
                self.faults += 1;
            }
            SimEvent::CounterProbe { .. } => self.probes += 1,
            SimEvent::Action { action } => match action {
                PolicyAction::FillFromDisk { into, .. } => {
                    self.fills += 1;
                    *self.resident_mut(into) += 1;
                }
                PolicyAction::Migrate { from, to, .. } => {
                    self.migrations += 1;
                    self.depart(from);
                    *self.resident_mut(to) += 1;
                }
                PolicyAction::EvictToDisk { from, .. } => {
                    self.evictions += 1;
                    self.depart(from);
                }
            },
        }
    }
}

/// What a [`CellSink`] knows about the cell it rides, besides which
/// analyses to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellContext {
    /// Workload name the outputs are labeled with.
    pub(crate) workload: String,
    /// Policy name the outputs are labeled with.
    pub(crate) policy: String,
    /// Leading demand accesses that are warmup.
    pub(crate) warmup: u64,
    /// DRAM capacity in pages.
    pub(crate) dram_capacity: u64,
    /// NVM capacity in pages.
    pub(crate) nvm_capacity: u64,
    /// False when the policy reports cost-equivalent actions rather than a
    /// residency journal (dram-cache), so the audit's occupancy laws do
    /// not apply.
    pub(crate) journals_residency: bool,
    /// The two-LRU read-window size in pages, for counter-window policies.
    pub(crate) read_window_pages: Option<u64>,
    /// The 0-based demand access an armed `cell-panic-at` tripwire kills.
    pub(crate) panic_at: Option<u64>,
}

impl CellContext {
    /// The context of policy `kind` driving `simulator` over `workload`,
    /// whose first `warmup` demand accesses are warmup, with no tripwire.
    /// Capacities come from the built simulator, so single-tier policies
    /// and the paper's split are both described by the sizes the policy
    /// declared.
    #[must_use]
    pub fn new(
        workload: impl Into<String>,
        kind: PolicyKind,
        simulator: &HybridSimulator,
        warmup: u64,
    ) -> Self {
        let any = simulator.policy().as_any();
        let two_lru = any.and_then(|any| {
            any.downcast_ref::<TwoLruPolicy>().or_else(|| {
                any.downcast_ref::<AdaptiveTwoLruPolicy>()
                    .map(AdaptiveTwoLruPolicy::two_lru)
            })
        });
        Self {
            workload: workload.into(),
            policy: kind.name().to_owned(),
            warmup,
            dram_capacity: simulator.dram_capacity().value(),
            nvm_capacity: simulator.nvm_capacity().value(),
            journals_residency: kind != PolicyKind::DramCache,
            read_window_pages: two_lru.map(|policy| policy.config().read_window_pages() as u64),
            panic_at: None,
        }
    }
}

/// The sink every instrumented cell carries: one access cursor, and one
/// fold per analysis its [`Instrumentation`] asked for — windowed metrics,
/// page ledger, audit, flight recorder.
///
/// For each event the sink fires an armed `cell-panic-at` tripwire before
/// anything records the dying access, closes the previous access when a
/// new demand access arrives (the deferred window flush, the audit's
/// group checks, the flight snapshots), advances the cursor, and then
/// hands the event and the cursor to each fold.
///
/// # Examples
///
/// ```
/// use hybridmem_core::{CellContext, CellSink, HybridSimulator, Instrumentation, PolicyKind};
/// use hybridmem_policy::{TwoLruConfig, TwoLruPolicy};
/// use hybridmem_types::{PageAccess, PageCount, PageId};
///
/// let config = TwoLruConfig::new(PageCount::new(8), PageCount::new(32))?;
/// let mut sim = HybridSimulator::with_date2016_devices(Box::new(TwoLruPolicy::new(config)));
/// let context = CellContext::new("demo", PolicyKind::TwoLru, &sim, 0);
/// let instrumentation = Instrumentation::windowed(16).with_flight(32);
/// sim.set_event_sink(Box::new(CellSink::new(instrumentation, context)));
/// for i in 0..64u64 {
///     sim.step(PageAccess::read(PageId::new(i % 24)));
/// }
/// let mut sink = sim.take_event_sink().expect("sink was installed");
/// let cell = CellSink::of(sink.as_mut()).expect("the installed sink is a CellSink");
/// let run = cell.finish(sim);
/// assert_eq!(run.records.len(), 4);
/// assert_eq!(run.flight.map(|flight| flight.accesses), Some(64));
/// # Ok::<(), hybridmem_types::Error>(())
/// ```
#[derive(Debug)]
pub struct CellSink {
    context: CellContext,
    cursor: Cursor,
    metrics: Option<WindowedCollector>,
    ledger: Option<PageLedger>,
    audit: Option<AuditSink>,
    flight: Option<FlightRecorder>,
}

impl CellSink {
    /// A sink running the folds `instrumentation` asks for over the cell
    /// `context` describes.
    #[must_use]
    pub fn new(instrumentation: Instrumentation, context: CellContext) -> Self {
        Self {
            cursor: Cursor {
                warmup: context.warmup,
                ..Cursor::default()
            },
            context,
            metrics: instrumentation.window.map(WindowedCollector::new),
            ledger: instrumentation.ledger.map(PageLedger::new),
            audit: instrumentation.audit.then(AuditSink::default),
            flight: instrumentation.flight.map(FlightRecorder::new),
        }
    }

    /// `sink` as a [`CellSink`], when that is what it is.
    pub fn of<'a>(sink: &'a mut (dyn EventSink + 'static)) -> Option<&'a mut Self> {
        sink.as_any_mut().downcast_mut()
    }

    /// Takes the interval records closed so far, leaving the sink running:
    /// `hybridmem observe` drains them between batches.
    pub fn drain_records(&mut self) -> Vec<IntervalRecord> {
        self.metrics
            .as_mut()
            .map(WindowedCollector::drain)
            .unwrap_or_default()
    }

    /// The black box as it stands, when a flight recorder rides the cell:
    /// `trigger` names why (`"panic"`, `"error"`), `error` carries the
    /// failure message. The isolation wrapper stamps the retries.
    pub(crate) fn black_box(&self, trigger: &str, error: Option<String>) -> Option<FlightRecord> {
        let flight = self.flight.as_ref()?;
        Some(flight.capture(&self.cursor, &self.context, trigger, error))
    }

    /// Closes the cell's last access and window and gathers every fold's
    /// output beside the report of `simulator`, the simulator this sink
    /// rode (already taken out of it). Counter-window policies add their
    /// own window statistics to the metrics. The flight dump's trigger is
    /// `"completed"`, or `"audit-violation"` when the audit found the run
    /// unclean.
    #[must_use]
    pub fn finish(&mut self, simulator: HybridSimulator) -> InstrumentedRun {
        let (cursor, context) = (&self.cursor, &self.context);
        let (records, metrics) = self
            .metrics
            .take()
            .map(|metrics| metrics.finish(cursor, context, simulator.policy()))
            .unwrap_or_default();
        let ledger = self
            .ledger
            .take()
            .map(|ledger| ledger.finish(cursor, context));
        let audit = self.audit.take().map(|audit| audit.finish(cursor, context));
        let trigger = match &audit {
            Some(report) if !report.clean => "audit-violation",
            _ => "completed",
        };
        let flight = self.flight.take();
        let flight = flight.map(|flight| flight.capture(cursor, context, trigger, None));
        InstrumentedRun {
            report: simulator.into_report(self.context.workload.clone()),
            records,
            metrics,
            ledger,
            audit,
            flight,
        }
    }
}

impl EventSink for CellSink {
    fn record(&mut self, event: SimEvent) {
        if matches!(event, SimEvent::Served { .. } | SimEvent::Fault { .. }) {
            if self.context.panic_at == Some(self.cursor.accesses) {
                panic!(
                    "injected fault: cell {}/{} panicked at access {}",
                    self.context.workload, self.context.policy, self.cursor.accesses
                );
            }
            // A demand access closes the one before it, whose trailing
            // actions have all arrived.
            if self.cursor.accesses > 0 {
                let (cursor, context) = (&self.cursor, &self.context);
                if let Some(metrics) = &mut self.metrics {
                    metrics.close_access(cursor, context);
                }
                if let Some(audit) = &mut self.audit {
                    audit.close_access(cursor, context);
                }
                if let Some(flight) = &mut self.flight {
                    flight.close_access(cursor, context);
                }
            }
        }
        self.cursor.advance(event);
        let (cursor, context) = (&self.cursor, &self.context);
        if let Some(metrics) = &mut self.metrics {
            metrics.record(event, cursor);
        }
        if let Some(ledger) = &mut self.ledger {
            ledger.record(event, cursor);
        }
        if let Some(audit) = &mut self.audit {
            audit.record(event, cursor, context);
        }
        if let Some(flight) = &mut self.flight {
            flight.record(event, cursor);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Fixture helpers for the folds' unit tests.
#[cfg(test)]
pub(crate) mod fixture {
    use hybridmem_policy::SingleTierPolicy;
    use hybridmem_types::PageCount;

    use super::{CellContext, CellSink};
    use crate::{EventSink, HybridSimulator, Instrumentation, InstrumentedRun, SimEvent};

    /// A context with no warmup, unconstrained capacities, a residency
    /// journal, no read window and no tripwire.
    pub(crate) fn context(workload: &str, policy: &str) -> CellContext {
        CellContext {
            workload: workload.to_owned(),
            policy: policy.to_owned(),
            warmup: 0,
            dram_capacity: u64::MAX,
            nvm_capacity: u64::MAX,
            journals_residency: true,
            read_window_pages: None,
            panic_at: None,
        }
    }

    /// A sink for `context` that has recorded `events`.
    pub(crate) fn sink(
        instrumentation: Instrumentation,
        context: CellContext,
        events: &[SimEvent],
    ) -> CellSink {
        let mut sink = CellSink::new(instrumentation, context);
        for &event in events {
            sink.record(event);
        }
        sink
    }

    /// Finishes `sink` against an idle simulator, whose report the folds
    /// never see.
    pub(crate) fn finish(mut sink: CellSink) -> InstrumentedRun {
        let policy = SingleTierPolicy::dram_only(PageCount::new(1)).expect("one page is valid");
        sink.finish(HybridSimulator::with_date2016_devices(Box::new(policy)))
    }

    /// Feeds `events` through a sink for `context` and finishes it.
    pub(crate) fn run(
        instrumentation: Instrumentation,
        context: CellContext,
        events: &[SimEvent],
    ) -> InstrumentedRun {
        finish(sink(instrumentation, context, events))
    }
}

#[cfg(test)]
mod tests {
    use super::fixture::{context, sink};
    use super::*;
    use hybridmem_types::{PageAccess, PageId};

    fn served(page: u64, from: MemoryKind) -> SimEvent {
        SimEvent::Served {
            access: PageAccess::read(PageId::new(page)),
            from,
        }
    }

    fn fault(page: u64) -> SimEvent {
        SimEvent::Fault {
            access: PageAccess::write(PageId::new(page)),
        }
    }

    fn action(action: PolicyAction) -> SimEvent {
        SimEvent::Action { action }
    }

    #[test]
    fn cursor_counts_by_class_and_tracks_residency() {
        let probe = hybridmem_policy::NvmCounterProbe {
            rank: 0,
            reads: 1,
            writes: 0,
            read_lost: 0,
            write_lost: 0,
            read_threshold: 6,
            write_threshold: 12,
            fired: None,
        };
        let page = PageId::new(2);
        let mut cursor = Cursor::default();
        for event in [
            fault(2),
            action(PolicyAction::FillFromDisk {
                page,
                into: MemoryKind::Nvm,
            }),
            served(2, MemoryKind::Nvm),
            SimEvent::CounterProbe {
                access: PageAccess::read(page),
                probe,
            },
            action(PolicyAction::Migrate {
                page,
                from: MemoryKind::Nvm,
                to: MemoryKind::Dram,
            }),
        ] {
            cursor.advance(event);
        }
        assert_eq!(cursor.before_departure, Some(1), "NVM held the page");
        cursor.advance(action(PolicyAction::EvictToDisk {
            page,
            from: MemoryKind::Nvm,
        }));
        assert_eq!(cursor.before_departure, Some(0), "NVM was already empty");
        let counts = (cursor.served, cursor.faults, cursor.probes);
        assert_eq!(counts, (1, 1, 1));
        let actions = (cursor.fills, cursor.migrations, cursor.evictions);
        assert_eq!(actions, (1, 1, 1));
        assert_eq!((cursor.dram_resident, cursor.nvm_resident), (1, 0));
        assert_eq!((cursor.accesses, cursor.index()), (2, 1));
    }

    #[test]
    fn steady_state_starts_with_the_first_access_past_warmup() {
        let mut cursor = Cursor {
            warmup: 2,
            ..Cursor::default()
        };
        cursor.advance(served(1, MemoryKind::Dram));
        cursor.advance(served(1, MemoryKind::Dram));
        assert!(!cursor.steady(), "accesses 0 and 1 are warmup");
        cursor.advance(served(1, MemoryKind::Dram));
        assert!(cursor.steady(), "access 2 is the first steady one");
    }

    #[test]
    fn tripwire_panics_at_the_scheduled_demand_index_only() {
        let mut cell = sink(
            Instrumentation::default(),
            CellContext {
                panic_at: Some(2),
                ..context("w", "p")
            },
            &[
                fault(0),
                action(PolicyAction::FillFromDisk {
                    page: PageId::new(0),
                    into: MemoryKind::Dram,
                }),
                served(0, MemoryKind::Dram),
            ],
        );
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cell.record(served(0, MemoryKind::Dram));
        }));
        let message = died.expect_err("demand index 2 must panic");
        let text = message
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(text.contains("injected fault"), "{text}");
        assert!(text.contains("w/p panicked at access 2"), "{text}");
        assert_eq!(cell.cursor.accesses, 2, "the dying access was not counted");
    }

    #[test]
    fn an_unclean_audit_promotes_the_flight_trigger() {
        let fill = action(PolicyAction::FillFromDisk {
            page: PageId::new(1),
            into: MemoryKind::Dram,
        });
        let audited = Instrumentation::default().with_audit().with_flight(8);
        let trigger = |events: &[SimEvent]| {
            let run = super::fixture::run(audited, context("w", "p"), events);
            run.flight.expect("a recorder rode the cell").trigger
        };
        assert_eq!(
            trigger(&[fault(1), fill, served(1, MemoryKind::Dram)]),
            "completed"
        );
        // The fault is never answered by a fill: fill-fault breaks.
        assert_eq!(
            trigger(&[fault(1), served(1, MemoryKind::Dram)]),
            "audit-violation"
        );
    }

    #[test]
    fn empty_instrumentation_runs_no_fold() {
        let cell = sink(
            Instrumentation::default(),
            context("w", "p"),
            &[served(1, MemoryKind::Dram)],
        );
        assert!(cell.metrics.is_none() && cell.ledger.is_none());
        assert!(cell.audit.is_none() && cell.flight.is_none());
        assert!(cell.black_box("panic", None).is_none());
    }
}
