//! Online run-health auditing: conservation laws checked as events stream.
//!
//! The simulator's accounting (Eq. 1 / Eq. 2) rests on invariants that
//! the rest of the telemetry stack merely *assumes*: every demand fault
//! is answered by exactly one disk fill, pages move between tiers
//! without being duplicated or lost, demotions are explained by the
//! promotion or fault that displaced them, and the event-priced access
//! cost agrees with the closed-form [`ModelParams::date2016`]
//! prediction. The audit is a fold of the
//! [`CellSink`](crate::CellSink) that checks those laws online — any
//! instrumented run can carry it via
//! [`Instrumentation::with_audit`](crate::Instrumentation::with_audit)
//! — and reports each breach as a structured [`AuditViolation`]. It reads
//! access indices, fills, faults and per-tier occupancy from the sink's
//! shared cursor, and prices the whole steady state in one window.
//!
//! # Invariant catalog
//!
//! | id | law |
//! |----|-----|
//! | `fill-fault` | disk fills ≡ demand faults at every access boundary |
//! | `occupancy-capacity` | per-tier occupancy ≤ capacity at every access boundary |
//! | `occupancy-delta` | fill − evict − migration deltas never drive a tier negative |
//! | `demotion-pairing` | a DRAM→NVM demotion outside a fault is paired with an NVM→DRAM promotion in the same access ([`DemotionCause`](crate::DemotionCause) semantics) |
//! | `monotone-access` | actions and probes attach to a monotone demand-access sequence |
//! | `two-lru-window` | a fired NVM counter probe is followed by that page's promotion, an unfired one is not |
//! | `amat-window` | the steady state's event-priced AMAT within 100 ppm of the Eq. 1 closed form |
//!
//! The occupancy laws apply only to policies whose actions journal
//! residency: the `dram-cache` policy reports *cost-equivalent*
//! migrations (a clean cache drop emits no action at all), so its action
//! stream is not an exclusive-residency journal and only the remaining
//! invariants apply.
//!
//! An action or probe before the first demand access breaks
//! `monotone-access` and is otherwise ignored: the audit keeps it out of
//! its fill and occupancy books, which every other fold applies it to.
//!
//! Violations are deduplicated by **resynchronization**: once an
//! imbalance is reported the sink adopts it as the new baseline, so a
//! single seeded fault yields a single violation instead of one per
//! subsequent access — the property the fixture tests pin down.
//!
//! Everything is access-index-based (never wall-clock): a clean run is
//! clean at any thread count, and the same tampered stream produces the
//! same violations byte for byte.

use std::io::Write;

use hybridmem_json::impl_json;
use hybridmem_policy::{NvmCounterProbe, PolicyAction};
use hybridmem_types::{MemoryKind, PageAccess, PageId};

use crate::cell::{CellContext, Cursor};
use crate::observe::Window;
use crate::{ModelParams, SimEvent};

/// Schema identifier of the audit JSON report.
pub const AUDIT_SCHEMA: &str = "hybridmem-audit-v1";

/// One invariant breach: where it happened and what was expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// Invariant id from the catalog (e.g. `"fill-fault"`).
    pub invariant: String,
    /// Demand-access index the breach is attributed to.
    pub access_index: u64,
    /// Page involved, when the breach concerns one.
    pub page: Option<u64>,
    /// What the event stream actually showed.
    pub observed: String,
    /// What the invariant required.
    pub expected: String,
}

impl_json!(ToJson for AuditViolation { invariant, access_index, page, observed, expected });

/// One cell's audit outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// Workload name the run was labeled with.
    pub workload: String,
    /// Policy name the run was labeled with.
    pub policy: String,
    /// Demand accesses audited (warmup included).
    pub accesses: u64,
    /// Demand faults observed.
    pub faults: u64,
    /// Disk fills observed.
    pub fills: u64,
    /// Retained violations, in event order.
    pub violations: Vec<AuditViolation>,
    /// Violations beyond the 256 a report retains.
    pub dropped_violations: u64,
    /// All violations, retained plus dropped.
    pub total_violations: u64,
    /// True when no invariant was breached.
    pub clean: bool,
}

impl_json!(ToJson for AuditReport {
    workload,
    policy,
    accesses,
    faults,
    fills,
    violations,
    dropped_violations,
    total_violations,
    clean,
});

/// The matrix-level roll-up written by `--audit-out`: every cell's
/// [`AuditReport`] under the `hybridmem-audit-v1` schema, plus totals CI
/// can gate on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditMatrixReport {
    /// Always [`AUDIT_SCHEMA`].
    pub schema: String,
    /// Per-cell reports in matrix order.
    pub cells: Vec<AuditReport>,
    /// Sum of the cells' `total_violations`.
    pub total_violations: u64,
    /// Sum of the cells' `dropped_violations`.
    pub dropped_violations: u64,
    /// True when every cell is clean.
    pub clean: bool,
}

impl_json!(ToJson for AuditMatrixReport {
    schema,
    cells,
    total_violations,
    dropped_violations,
    clean,
});

impl AuditMatrixReport {
    /// Rolls cell reports into the gateable aggregate.
    #[must_use]
    pub fn new(cells: Vec<AuditReport>) -> Self {
        let total_violations = cells.iter().map(|c| c.total_violations).sum();
        let dropped_violations = cells.iter().map(|c| c.dropped_violations).sum();
        let clean = cells.iter().all(|c| c.clean);
        Self {
            schema: AUDIT_SCHEMA.to_owned(),
            cells,
            total_violations,
            dropped_violations,
            clean,
        }
    }
}

/// Writes the aggregate audit report as pretty-printed JSON plus a
/// trailing newline — the `--audit-out` artifact CI parses.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_audit_json<W: Write>(
    writer: &mut W,
    report: &AuditMatrixReport,
) -> std::io::Result<()> {
    let text = hybridmem_json::to_string_pretty(report);
    writer.write_all(text.as_bytes())?;
    writer.write_all(b"\n")
}

/// Relative tolerance of the `amat-window` check, in parts per million of
/// the closed-form prediction. The priced and predicted sides are the
/// same arithmetic regrouped, so 100 ppm is orders of magnitude above
/// floating-point noise while still catching any real accounting drift.
const AMAT_TOLERANCE_PPM: u32 = 100;

/// Violations retained in a report; the excess is counted in
/// [`AuditReport::dropped_violations`].
const MAX_VIOLATIONS: usize = 256;

/// State of the access group currently being assembled: one demand
/// event plus the probe and actions that trail it. Group-scoped
/// invariants (`demotion-pairing`, `two-lru-window`) and the boundary
/// conservation checks run when the *next* demand access arrives (or at
/// the end of the run), because a fault's fill legitimately follows its
/// fault event.
#[derive(Debug, Clone, Copy, Default)]
struct AccessGroup {
    /// Demand-access index this group belongs to.
    index: u64,
    /// The accessed page.
    page: Option<PageId>,
    /// Whether the demand event was a fault.
    is_fault: bool,
    /// DRAM→NVM demotions seen in the group.
    demotions: u64,
    /// NVM→DRAM promotions seen in the group.
    promotions: u64,
    /// Whether the demand page itself was promoted NVM→DRAM.
    promoted_demand_page: bool,
    /// The access's NVM counter probe, if one arrived.
    probe: Option<NvmCounterProbe>,
}

/// What the actions the audit refused before the first demand access left
/// in the cursor: residency and fills the audit's own books exclude. Zero
/// in every stream the simulator emits.
#[derive(Debug, Clone, Copy, Default)]
struct Stray {
    dram: u64,
    nvm: u64,
    fills: u64,
}

impl Stray {
    fn resident_mut(&mut self, tier: MemoryKind) -> &mut u64 {
        match tier {
            MemoryKind::Dram => &mut self.dram,
            MemoryKind::Nvm => &mut self.nvm,
        }
    }
}

/// The run-health audit fold of a [`CellSink`](crate::CellSink). See the
/// module docs for the invariant catalog and the resynchronization rules.
#[derive(Debug, Default)]
pub(crate) struct AuditSink {
    stray: Stray,
    /// Last reported `fills − faults` imbalance (resync baseline).
    reported_imbalance: i128,
    /// Highest occupancy already reported per tier (resync baseline).
    reported_dram_level: u64,
    reported_nvm_level: u64,
    group: AccessGroup,
    /// The whole run's steady state, for the `amat-window` law.
    window: Window,
    violations: Vec<AuditViolation>,
    dropped_violations: u64,
}

impl AuditSink {
    /// Closes the final access group and the AMAT window, and reports.
    pub(crate) fn finish(mut self, cursor: &Cursor, context: &CellContext) -> AuditReport {
        if cursor.accesses > 0 {
            self.close_access(cursor, context);
        }
        if let Some(window) = self.window.take() {
            self.check_amat(window);
        }
        let retained = self.violations.len() as u64;
        let total = retained + self.dropped_violations;
        AuditReport {
            workload: context.workload.clone(),
            policy: context.policy.clone(),
            accesses: cursor.accesses,
            faults: cursor.faults,
            fills: self.fills(cursor),
            violations: self.violations,
            dropped_violations: self.dropped_violations,
            total_violations: total,
            clean: total == 0,
        }
    }

    /// Disk fills in the audit's books.
    fn fills(&self, cursor: &Cursor) -> u64 {
        cursor.fills - self.stray.fills
    }

    /// Resident pages of `tier` in the audit's books.
    fn occupancy(&self, cursor: &Cursor, tier: MemoryKind) -> u64 {
        match tier {
            MemoryKind::Dram => cursor.dram_resident.saturating_sub(self.stray.dram),
            MemoryKind::Nvm => cursor.nvm_resident.saturating_sub(self.stray.nvm),
        }
    }

    fn push_violation(
        &mut self,
        invariant: &str,
        access_index: u64,
        page: Option<PageId>,
        observed: String,
        expected: String,
    ) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(AuditViolation {
                invariant: invariant.to_owned(),
                access_index,
                page: page.map(|p| p.value()),
                observed,
                expected,
            });
        } else {
            self.dropped_violations += 1;
        }
    }

    /// A page left `tier`. When the audit's books hold no page there, the
    /// departure is an underflow (reported under exclusive-residency
    /// semantics) and drains stray residency first.
    fn depart(&mut self, tier: MemoryKind, page: PageId, cursor: &Cursor, context: &CellContext) {
        let stray = self.stray.resident_mut(tier);
        if cursor.before_departure != Some(*stray) {
            return;
        }
        *stray = stray.saturating_sub(1);
        if context.journals_residency {
            let index = self.group.index;
            self.push_violation(
                "occupancy-delta",
                index,
                Some(page),
                format!("page leaving an empty {tier:?} tier"),
                "fill − evict − migration deltas keep occupancy non-negative".to_owned(),
            );
        }
    }

    /// Group-scoped and boundary checks, run when the group is complete:
    /// the next demand access arrived, or the run ended.
    pub(crate) fn close_access(&mut self, cursor: &Cursor, context: &CellContext) {
        let group = self.group;
        // demotion-pairing: outside a fault, each DRAM→NVM demotion is a
        // PromotionSwap and needs an NVM→DRAM promotion in the same
        // group; during a fault any demotion is a FaultFill (the fill's
        // displacement), matching the ledger's DemotionCause rules.
        if !group.is_fault && group.demotions > group.promotions {
            self.push_violation(
                "demotion-pairing",
                group.index,
                group.page,
                format!(
                    "{} DRAM→NVM demotion(s) vs {} NVM→DRAM promotion(s) in a non-fault access",
                    group.demotions, group.promotions
                ),
                "every PromotionSwap demotion pairs with a promotion in its access".to_owned(),
            );
        }
        // two-lru-window: a fired counter probe promises the probed
        // page's promotion in the same access, an unfired one forbids it.
        if let Some(probe) = group.probe {
            match probe.fired {
                Some(kind) => {
                    if !group.promoted_demand_page {
                        self.push_violation(
                            "two-lru-window",
                            group.index,
                            group.page,
                            format!("{kind:?} counter fired but no NVM→DRAM promotion followed"),
                            "a fired counter is followed by the page's promotion".to_owned(),
                        );
                    }
                }
                None => {
                    if group.promoted_demand_page {
                        self.push_violation(
                            "two-lru-window",
                            group.index,
                            group.page,
                            "page promoted without a fired counter".to_owned(),
                            "promotions only follow a fired counter probe".to_owned(),
                        );
                    }
                }
            }
        }
        // fill-fault: all faults answered once the group's actions are in.
        let fills = self.fills(cursor);
        let imbalance = i128::from(fills) - i128::from(cursor.faults);
        if imbalance != self.reported_imbalance {
            self.push_violation(
                "fill-fault",
                group.index,
                group.page,
                format!("{fills} disk fill(s) for {} demand fault(s)", cursor.faults),
                "every demand fault is answered by exactly one disk fill".to_owned(),
            );
            self.reported_imbalance = imbalance;
        }
        // occupancy-capacity: the resident set fits the tiers once the
        // group's displacements have all been applied.
        if context.journals_residency {
            let dram = self.occupancy(cursor, MemoryKind::Dram);
            if dram > context.dram_capacity && dram > self.reported_dram_level {
                self.reported_dram_level = dram;
                self.push_violation(
                    "occupancy-capacity",
                    group.index,
                    group.page,
                    format!(
                        "{dram} resident DRAM pages in a {}-page tier",
                        context.dram_capacity
                    ),
                    "per-tier occupancy never exceeds capacity".to_owned(),
                );
            }
            let nvm = self.occupancy(cursor, MemoryKind::Nvm);
            if nvm > context.nvm_capacity && nvm > self.reported_nvm_level {
                self.reported_nvm_level = nvm;
                self.push_violation(
                    "occupancy-capacity",
                    group.index,
                    group.page,
                    format!(
                        "{nvm} resident NVM pages in a {}-page tier",
                        context.nvm_capacity
                    ),
                    "per-tier occupancy never exceeds capacity".to_owned(),
                );
            }
        }
        self.group = AccessGroup::default();
    }

    /// The `amat-window` law over a closed window: the event-priced mean
    /// access time must agree with the Eq. 1 closed form evaluated on the
    /// window's measured probabilities.
    fn check_amat(&mut self, window: Window) {
        let w = window.tally;
        let accesses = window.accesses;
        // The prediction side: the same construction the windowed
        // collector feeds into IntervalRecord::amat_ns, with migrations
        // counted by destination tier.
        let model = ModelParams::date2016(w.probabilities(accesses));
        let expected = model.amat().value();
        // The priced side: every event category charged exactly what
        // the simulator charges it (fills and evictions are overlapped
        // and free; only cross-tier migrations move data).
        let dram_read = model.dram.read_latency.value();
        let dram_write = model.dram.write_latency.value();
        let nvm_read = model.nvm.read_latency.value();
        let nvm_write = model.nvm.write_latency.value();
        let disk = model.disk.access_latency.value();
        let page_factor = model.page_factor as f64;
        let priced = |count: u64, unit: f64| count as f64 * unit;
        let observed = (priced(w.dram_read_hits, dram_read)
            + priced(w.dram_write_hits, dram_write)
            + priced(w.nvm_read_hits, nvm_read)
            + priced(w.nvm_write_hits, nvm_write)
            + priced(w.faults, disk)
            + priced(w.crossings_to_dram, page_factor * (nvm_read + dram_write))
            + priced(w.crossings_to_nvm, page_factor * (dram_read + nvm_write)))
            / accesses as f64;
        let tolerance = expected.abs().max(1.0) * (f64::from(AMAT_TOLERANCE_PPM) / 1e6);
        if (observed - expected).abs() > tolerance {
            let last_access = window.start + accesses - 1;
            self.push_violation(
                "amat-window",
                last_access,
                None,
                format!(
                    "event-priced AMAT {observed:.3} ns over accesses {}..={last_access}",
                    window.start
                ),
                format!("Eq. 1 closed form {expected:.3} ns (±{tolerance:.3})"),
            );
        }
    }

    pub(crate) fn record(&mut self, event: SimEvent, cursor: &Cursor, context: &CellContext) {
        match event {
            SimEvent::Served { access, .. } => self.on_demand(access.page, false, cursor),
            SimEvent::Fault { access } => self.on_demand(access.page, true, cursor),
            SimEvent::Action { action } => self.on_action(action, cursor, context),
            SimEvent::CounterProbe { access, probe } => self.on_probe(access, probe, cursor),
        }
        self.window.record(event, cursor);
    }

    fn on_demand(&mut self, page: PageId, is_fault: bool, cursor: &Cursor) {
        self.group = AccessGroup {
            index: cursor.index(),
            page: Some(page),
            is_fault,
            ..AccessGroup::default()
        };
    }

    fn on_action(&mut self, action: PolicyAction, cursor: &Cursor, context: &CellContext) {
        if cursor.accesses == 0 {
            let (page, description) = match action {
                PolicyAction::FillFromDisk { page, .. } => (page, "disk fill"),
                PolicyAction::Migrate { page, .. } => (page, "migration"),
                PolicyAction::EvictToDisk { page, .. } => (page, "disk eviction"),
            };
            self.push_violation(
                "monotone-access",
                0,
                Some(page),
                format!("{description} before the first demand access"),
                "every action trails the demand access that caused it".to_owned(),
            );
            // The cursor applied the action; keep it out of the books.
            self.stray = Stray {
                dram: cursor.dram_resident,
                nvm: cursor.nvm_resident,
                fills: cursor.fills,
            };
            return;
        }
        match action {
            PolicyAction::FillFromDisk { .. } => {}
            PolicyAction::Migrate { page, from, to } => {
                self.depart(from, page, cursor, context);
                match (from, to) {
                    (MemoryKind::Dram, MemoryKind::Nvm) => self.group.demotions += 1,
                    (MemoryKind::Nvm, MemoryKind::Dram) => {
                        self.group.promotions += 1;
                        if self.group.page == Some(page) {
                            self.group.promoted_demand_page = true;
                        }
                    }
                    (MemoryKind::Dram, MemoryKind::Dram) | (MemoryKind::Nvm, MemoryKind::Nvm) => {}
                }
            }
            PolicyAction::EvictToDisk { page, from } => self.depart(from, page, cursor, context),
        }
    }

    fn on_probe(&mut self, access: PageAccess, probe: NvmCounterProbe, cursor: &Cursor) {
        if cursor.accesses == 0 {
            self.push_violation(
                "monotone-access",
                0,
                Some(access.page),
                "counter probe before the first demand access".to_owned(),
                "every probe trails the demand access that sampled it".to_owned(),
            );
            return;
        }
        let index = self.group.index;
        if self.group.probe.is_some() {
            self.push_violation(
                "monotone-access",
                index,
                Some(access.page),
                "second counter probe within one demand access".to_owned(),
                "at most one NVM counter probe per access".to_owned(),
            );
            return;
        }
        if self.group.page != Some(access.page) {
            self.push_violation(
                "monotone-access",
                index,
                Some(access.page),
                "counter probe for a page other than the demand page".to_owned(),
                "probes attach to the access that sampled them".to_owned(),
            );
            return;
        }
        if self.group.is_fault {
            self.push_violation(
                "monotone-access",
                index,
                Some(access.page),
                "counter probe on a faulting access".to_owned(),
                "NVM counters are only sampled on NVM hits".to_owned(),
            );
            return;
        }
        self.group.probe = Some(probe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::fixture;
    use crate::Instrumentation;
    use hybridmem_policy::CounterKind;

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

    fn migrate(page: u64, from: MemoryKind, to: MemoryKind) -> SimEvent {
        SimEvent::Action {
            action: PolicyAction::Migrate {
                page: PageId::new(page),
                from,
                to,
            },
        }
    }

    fn evict(page: u64, from: MemoryKind) -> SimEvent {
        SimEvent::Action {
            action: PolicyAction::EvictToDisk {
                page: PageId::new(page),
                from,
            },
        }
    }

    fn probe(page: u64, fired: Option<CounterKind>) -> SimEvent {
        SimEvent::CounterProbe {
            access: PageAccess::read(PageId::new(page)),
            probe: NvmCounterProbe {
                rank: 0,
                reads: 1,
                writes: 0,
                read_lost: 0,
                write_lost: 0,
                read_threshold: 1,
                write_threshold: 1,
                fired,
            },
        }
    }

    fn audit(events: &[SimEvent]) -> AuditReport {
        audit_with(fixture::context("w", "p"), events)
    }

    fn audit_with(context: CellContext, events: &[SimEvent]) -> AuditReport {
        let run = fixture::run(Instrumentation::default().with_audit(), context, events);
        run.audit.expect("an audit was requested")
    }

    /// A context whose tiers hold `dram` and `nvm` pages.
    fn sized(dram: u64, nvm: u64) -> CellContext {
        CellContext {
            dram_capacity: dram,
            nvm_capacity: nvm,
            ..fixture::context("w", "p")
        }
    }

    fn warmed(warmup: u64) -> CellContext {
        CellContext {
            warmup,
            ..fixture::context("w", "p")
        }
    }

    fn invariants(report: &AuditReport) -> Vec<&str> {
        report
            .violations
            .iter()
            .map(|v| v.invariant.as_str())
            .collect()
    }

    #[test]
    fn clean_stream_reports_zero_violations() {
        // Fault fill, a promotion swap with a fired probe, plain hits,
        // and a capacity-bound eviction: every law holds.
        let report = audit_with(
            sized(1, 2),
            &[
                fault(1),
                fill(1, MemoryKind::Nvm),
                fault(2),
                fill(2, MemoryKind::Nvm),
                served(1, MemoryKind::Nvm),
                probe(1, Some(CounterKind::Read)),
                migrate(1, MemoryKind::Nvm, MemoryKind::Dram),
                served(1, MemoryKind::Dram),
                fault(3),
                evict(2, MemoryKind::Nvm),
                fill(3, MemoryKind::Nvm),
                served(3, MemoryKind::Nvm),
                probe(3, None),
            ],
        );
        assert!(report.clean, "violations: {:?}", report.violations);
        assert_eq!(report.accesses, 6);
        assert_eq!(report.faults, 3);
        assert_eq!(report.fills, 3);
    }

    #[test]
    fn tampered_fill_fires_fill_fault_exactly_once() {
        // The fault at access 0 is never answered; every later boundary
        // sees the same imbalance, which resynchronization reports once.
        let report = audit(&[
            fault(1),
            served(1, MemoryKind::Nvm),
            served(1, MemoryKind::Nvm),
        ]);
        assert_eq!(invariants(&report), ["fill-fault"]);
        assert_eq!(report.violations[0].access_index, 0);
        assert_eq!(report.total_violations, 1);
    }

    #[test]
    fn spurious_fill_fires_fill_fault_exactly_once() {
        let report = audit(&[
            served(1, MemoryKind::Dram),
            fill(9, MemoryKind::Dram),
            served(1, MemoryKind::Dram),
        ]);
        assert_eq!(invariants(&report), ["fill-fault"]);
    }

    #[test]
    fn occupancy_overflow_fires_capacity_exactly_once() {
        let report = audit_with(
            sized(1, 1),
            &[
                fault(1),
                fill(1, MemoryKind::Dram),
                fault(2),
                fill(2, MemoryKind::Dram),
                served(1, MemoryKind::Dram),
                served(2, MemoryKind::Dram),
            ],
        );
        assert_eq!(invariants(&report), ["occupancy-capacity"]);
        assert_eq!(
            report.violations[0].access_index, 1,
            "the overflowing fill's access"
        );
        assert_eq!(report.total_violations, 1);
    }

    #[test]
    fn underflow_fires_occupancy_delta() {
        let report = audit(&[served(1, MemoryKind::Dram), evict(1, MemoryKind::Dram)]);
        assert_eq!(invariants(&report), ["occupancy-delta"]);
        assert_eq!(report.violations[0].page, Some(1));
    }

    #[test]
    fn unpaired_demotion_fires_demotion_pairing() {
        let report = audit(&[
            fault(1),
            fill(1, MemoryKind::Dram),
            fault(2),
            fill(2, MemoryKind::Nvm),
            served(2, MemoryKind::Nvm),
            migrate(1, MemoryKind::Dram, MemoryKind::Nvm),
        ]);
        assert_eq!(invariants(&report), ["demotion-pairing"]);
        assert_eq!(report.violations[0].access_index, 2);
    }

    #[test]
    fn demotion_during_fault_is_a_fault_fill_not_a_violation() {
        let report = audit(&[
            fault(1),
            fill(1, MemoryKind::Dram),
            fault(2),
            migrate(1, MemoryKind::Dram, MemoryKind::Nvm),
            fill(2, MemoryKind::Dram),
        ]);
        assert!(report.clean, "violations: {:?}", report.violations);
    }

    #[test]
    fn fired_probe_without_promotion_fires_two_lru_window() {
        let report = audit(&[
            fault(1),
            fill(1, MemoryKind::Nvm),
            served(1, MemoryKind::Nvm),
            probe(1, Some(CounterKind::Read)),
        ]);
        assert_eq!(invariants(&report), ["two-lru-window"]);
        assert_eq!(report.violations[0].access_index, 1);
    }

    #[test]
    fn promotion_without_fired_probe_fires_two_lru_window() {
        let report = audit(&[
            fault(1),
            fill(1, MemoryKind::Nvm),
            served(1, MemoryKind::Nvm),
            probe(1, None),
            migrate(1, MemoryKind::Nvm, MemoryKind::Dram),
        ]);
        assert_eq!(invariants(&report), ["two-lru-window"]);
    }

    #[test]
    fn action_before_first_access_fires_monotone_access_and_is_dropped() {
        // The stray fill is reported once and ignored: it must not
        // poison the fill or occupancy books of the real run after it.
        let report = audit(&[
            fill(9, MemoryKind::Dram),
            fault(1),
            fill(1, MemoryKind::Dram),
            served(1, MemoryKind::Dram),
        ]);
        assert_eq!(invariants(&report), ["monotone-access"]);
        assert_eq!(report.fills, 1, "the stray fill is not booked");
    }

    #[test]
    fn probe_on_wrong_page_fires_monotone_access() {
        let report = audit(&[
            fault(1),
            fill(1, MemoryKind::Nvm),
            served(1, MemoryKind::Nvm),
            probe(2, None),
        ]);
        assert_eq!(invariants(&report), ["monotone-access"]);
    }

    #[test]
    fn same_module_migration_fires_amat_window() {
        // The closed form prices a migration the simulator charges
        // nothing for: the two sides of the AMAT law diverge by
        // PageFactor-scaled latencies, far past any tolerance.
        let report = audit(&[
            fault(1),
            fill(1, MemoryKind::Dram),
            served(1, MemoryKind::Dram),
            migrate(1, MemoryKind::Dram, MemoryKind::Dram),
        ]);
        assert_eq!(invariants(&report), ["amat-window"]);
        assert_eq!(report.violations[0].access_index, 1);
    }

    #[test]
    fn warmup_accesses_are_excluded_from_amat_but_not_conservation() {
        // A warmup-time same-module migration is invisible to the AMAT
        // law (no window is open), but a warmup-time unanswered fault
        // still breaks conservation.
        let clean_amat = audit_with(
            warmed(2),
            &[
                fault(1),
                fill(1, MemoryKind::Dram),
                served(1, MemoryKind::Dram),
                migrate(1, MemoryKind::Dram, MemoryKind::Dram),
                served(1, MemoryKind::Dram),
            ],
        );
        assert!(clean_amat.clean, "violations: {:?}", clean_amat.violations);

        let broken = audit_with(
            warmed(2),
            &[
                fault(1),
                served(1, MemoryKind::Nvm),
                served(1, MemoryKind::Nvm),
            ],
        );
        assert_eq!(invariants(&broken), ["fill-fault"]);
    }

    #[test]
    fn non_exclusive_residency_disables_the_occupancy_laws() {
        let context = CellContext {
            journals_residency: false,
            ..sized(1, 1)
        };
        // Cost-equivalent stream: a second cache-in of the same page
        // decrements NVM twice without a second fill — legal for
        // dram-cache, underflow anywhere else.
        let report = audit_with(
            context,
            &[
                fault(1),
                fill(1, MemoryKind::Nvm),
                served(1, MemoryKind::Nvm),
                migrate(1, MemoryKind::Nvm, MemoryKind::Dram),
                served(1, MemoryKind::Nvm),
                migrate(1, MemoryKind::Nvm, MemoryKind::Dram),
            ],
        );
        assert!(report.clean, "violations: {:?}", report.violations);
    }

    #[test]
    fn violation_cap_counts_the_overflow() {
        // Every eviction from the empty DRAM tier breaks occupancy-delta:
        // one more than the report retains.
        let mut events = vec![served(1, MemoryKind::Dram)];
        events.extend((0..=MAX_VIOLATIONS as u64).map(|page| evict(page, MemoryKind::Dram)));
        let report = audit(&events);
        assert_eq!(report.violations.len(), MAX_VIOLATIONS);
        assert_eq!(report.dropped_violations, 1);
        assert_eq!(report.total_violations, MAX_VIOLATIONS as u64 + 1);
        assert!(!report.clean);
    }

    #[test]
    fn stray_actions_stay_out_of_the_occupancy_books() {
        // A fill before the first access is refused: it neither counts
        // toward the one-page DRAM tier nor covers a later departure.
        let report = audit_with(
            sized(1, 1),
            &[
                fill(9, MemoryKind::Dram),
                fault(1),
                fill(1, MemoryKind::Dram),
                served(1, MemoryKind::Dram),
                evict(1, MemoryKind::Dram),
                evict(9, MemoryKind::Dram),
            ],
        );
        assert_eq!(invariants(&report), ["monotone-access", "occupancy-delta"]);
        assert_eq!(report.violations[1].page, Some(9));
    }

    #[test]
    fn matrix_report_rolls_up_and_roundtrips() {
        let clean = audit(&[fault(1), fill(1, MemoryKind::Dram)]);
        let dirty = audit(&[served(1, MemoryKind::Dram), evict(1, MemoryKind::Dram)]);
        let matrix = AuditMatrixReport::new(vec![clean, dirty]);
        assert_eq!(matrix.schema, AUDIT_SCHEMA);
        assert_eq!(matrix.total_violations, 1);
        assert!(!matrix.clean);

        let mut bytes = Vec::new();
        write_audit_json(&mut bytes, &matrix).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let parsed = hybridmem_json::parse(&text).unwrap();
        assert_eq!(parsed["schema"], AUDIT_SCHEMA);
        assert_eq!(parsed["total_violations"], 1);
        assert_eq!(parsed["cells"][1]["violations"][0]["page"], 1);
        assert_eq!(format!("{}\n", parsed.emit_pretty()), text);
    }
}
