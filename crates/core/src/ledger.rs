//! The page-lifecycle ledger: per-page journey reconstruction with
//! migration provenance.
//!
//! The windowed collector ([`crate::observe`]) answers *"how is the run
//! going?"* in aggregate; the page ledger answers *"why did this page
//! move?"*. It is a fold of the [`CellSink`](crate::CellSink) that
//! replays the simulator's event stream into per-page journeys (request
//! it with [`Instrumentation::with_ledger`](crate::Instrumentation::with_ledger)):
//! the fill that brought a page in, every
//! promotion with its Algorithm 1 provenance (the triggering access
//! index, which counter fired, its value vs. threshold, the page's NVM
//! queue rank), every demotion with its cause, lossy counter-window
//! resets, and the final disposition.
//!
//! # Bounded memory: deterministic top-K retention
//!
//! Full journeys for every page of a full-scale run would not fit in
//! memory, so the ledger keeps two tiers of state:
//!
//! * an **all-pages summary** — one small fixed-size [`PageSummary`] per
//!   touched page (the same order of state the policy itself holds), from
//!   which the ping-pong count and the migration-cause histogram in
//!   [`LedgerSummary`] are computed; and
//! * **detailed journeys** — bounded per-page event lists, retained only
//!   for the top-K pages. Whenever more than `2 × top_k` pages carry
//!   detail, the ledger prunes down to `top_k` using a deterministic
//!   ordering: **most migrations first, then most accesses, then the
//!   smallest page id** (the tie-break makes retention reproducible for
//!   pages with identical activity). A pruned page never regains detail —
//!   its summary keeps accumulating — so the retained set is a pure
//!   function of the event stream, never of timing. The focus page of
//!   [`LedgerOptions::focus`], if any, is exempt from pruning.
//!
//! Each detailed journey keeps the **first** [`LedgerOptions::max_events`]
//! events (the fill and early migrations are the informative part; the
//! final disposition lives in the summary) and counts the overflow in
//! [`PageRecord::dropped_events`].
//!
//! Every boundary in the ledger is access-index-based — wall-clock never
//! appears — so the JSONL export is byte-identical at any thread count,
//! exactly like the interval metrics stream (CI enforces both).

use std::io::Write;

use hybridmem_json::{impl_json, Json, ToJson};
use hybridmem_policy::{CounterKind, NvmCounterProbe, PolicyAction};
use hybridmem_types::{AccessKind, FxHashMap, FxHashSet, MemoryKind, PageId};

use crate::cell::{CellContext, Cursor};
use crate::SimEvent;

/// Configuration of the page ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerOptions {
    /// Number of pages to retain detailed journeys for (floor 1).
    pub top_k: usize,
    /// Maximum journey events kept per detailed page; later events are
    /// counted in [`PageRecord::dropped_events`].
    pub max_events: usize,
    /// A page exempt from top-K pruning — `hybridmem trace-page`'s target.
    pub focus: Option<PageId>,
}

impl Default for LedgerOptions {
    fn default() -> Self {
        Self {
            top_k: 64,
            max_events: 32,
            focus: None,
        }
    }
}

/// Why a page was demoted DRAM→NVM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemotionCause {
    /// Displaced by a page fault filling into DRAM.
    FaultFill,
    /// Swapped out by a threshold-gated NVM→DRAM promotion.
    PromotionSwap,
}

impl_json!(ToJson for DemotionCause { FaultFill = "fault_fill", PromotionSwap = "promotion_swap" });

/// Algorithm 1 provenance attached to a promotion: what the policy knew
/// at the access that fired the migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromotionProvenance {
    /// Which counter crossed its threshold.
    pub counter: CounterKind,
    /// The counter's value after the triggering access's update.
    pub value: u32,
    /// The threshold the value exceeded.
    pub threshold: u32,
    /// The page's NVM queue rank (0 = MRU) before the triggering access.
    pub rank: u64,
}

impl_json!(ToJson for PromotionProvenance { counter, value, threshold, rank });

/// One step of a page's journey, in event order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageEvent {
    /// Filled from disk after a fault.
    Fill {
        /// Index of the faulting demand access.
        access: u64,
        /// Tier the page landed in.
        into: MemoryKind,
    },
    /// Promoted NVM→DRAM.
    Promote {
        /// Index of the demand access that triggered the promotion.
        access: u64,
        /// Counter provenance; `None` for policies that do not report
        /// counter state (e.g. CLOCK-DWF's write-triggered migrations).
        provenance: Option<PromotionProvenance>,
    },
    /// Demoted DRAM→NVM.
    Demote {
        /// Index of the demand access whose handling displaced the page.
        access: u64,
        /// What displaced it.
        cause: DemotionCause,
    },
    /// Evicted to disk.
    Evict {
        /// Index of the demand access whose handling evicted the page.
        access: u64,
        /// Tier the page left.
        from: MemoryKind,
    },
    /// A lossy counter-window reset: the page slid past a
    /// `readperc`/`writeperc` boundary and a nonzero counter was zeroed.
    Reset {
        /// Index of the NVM hit at which the lazy reset applied.
        access: u64,
        /// Which counter lost progress.
        counter: CounterKind,
        /// The discarded counter value.
        lost: u32,
    },
}

impl_json!(ToJson for PageEvent tagged "event" {
    Fill { access, into } = "fill",
    Promote { access, provenance } = "promote",
    Demote { access, cause } = "demote",
    Evict { access, from } = "evict",
    Reset { access, counter, lost } = "reset",
});

/// Fixed-size per-page accumulator, kept for **every** touched page.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageSummary {
    /// Demand accesses to the page (hits + faults).
    pub accesses: u64,
    /// Demand reads.
    pub reads: u64,
    /// Demand writes.
    pub writes: u64,
    /// Fills from disk.
    pub fills: u64,
    /// Evictions to disk.
    pub evictions: u64,
    /// Promotions fired by the read counter.
    pub promotions_read: u64,
    /// Promotions fired by the write counter.
    pub promotions_write: u64,
    /// Promotions without counter provenance (non-probe policies).
    pub promotions_unattributed: u64,
    /// Demotions caused by fault fills.
    pub demotions_fault: u64,
    /// Demotions caused by promotion swaps.
    pub demotions_swap: u64,
    /// Lossy counter-window resets.
    pub resets: u64,
    /// Demotions of this page after it had already been promoted at
    /// least once — round trips between the tiers.
    pub ping_pongs: u64,
    /// Index of the page's first demand access.
    pub first_access: u64,
    /// Index of the page's most recent demand access.
    pub last_access: u64,
    /// Where the page ended the run; `None` = on disk (or never filled).
    pub final_tier: Option<MemoryKind>,
}

impl_json!(ToJson for PageSummary {
    accesses,
    reads,
    writes,
    fills,
    evictions,
    promotions_read,
    promotions_write,
    promotions_unattributed,
    demotions_fault,
    demotions_swap,
    resets,
    ping_pongs,
    first_access,
    last_access,
    final_tier,
});

impl PageSummary {
    /// Total tier-to-tier migrations (promotions + demotions) — the
    /// primary top-K retention key.
    #[must_use]
    pub fn migrations(&self) -> u64 {
        self.promotions_read
            + self.promotions_write
            + self.promotions_unattributed
            + self.demotions_fault
            + self.demotions_swap
    }
}

/// One detailed page in a [`LedgerReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageRecord {
    /// The page.
    pub page: u64,
    /// The all-run accumulator.
    pub summary: PageSummary,
    /// The journey's first [`LedgerOptions::max_events`] events.
    pub events: Vec<PageEvent>,
    /// Journey events beyond the per-page cap, counted not stored.
    pub dropped_events: u64,
}

impl_json!(ToJson for PageRecord { page, summary, events, dropped_events });

/// Whole-run roll-up over **all** pages: the migration-cause histogram
/// and the ping-pong count the ISSUE's drill-down asks for.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LedgerSummary {
    /// Distinct pages touched.
    pub pages: u64,
    /// Page faults (warmup included; the ledger sees the whole run).
    pub faults: u64,
    /// Promotions fired by the read counter.
    pub promotions_read: u64,
    /// Promotions fired by the write counter.
    pub promotions_write: u64,
    /// Promotions without counter provenance.
    pub promotions_unattributed: u64,
    /// Demotions caused by fault fills.
    pub demotions_fault: u64,
    /// Demotions caused by promotion swaps.
    pub demotions_swap: u64,
    /// Evictions to disk.
    pub evictions: u64,
    /// Lossy read-counter window resets.
    pub resets_read: u64,
    /// Lossy write-counter window resets.
    pub resets_write: u64,
    /// Pages that ping-ponged (were demoted after a promotion) at least
    /// once.
    pub ping_pong_pages: u64,
    /// Total ping-pong round trips across all pages.
    pub ping_pongs: u64,
    /// Pages whose detailed journey survived top-K retention.
    pub detailed_pages: u64,
    /// Pages whose detail was pruned (summaries kept).
    pub pruned_pages: u64,
}

impl_json!(ToJson for LedgerSummary {
    pages,
    faults,
    promotions_read,
    promotions_write,
    promotions_unattributed,
    demotions_fault,
    demotions_swap,
    evictions,
    resets_read,
    resets_write,
    ping_pong_pages,
    ping_pongs,
    detailed_pages,
    pruned_pages,
});

/// The ledger's end-of-run export for one (workload, policy) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerReport {
    /// Workload name.
    pub workload: String,
    /// Policy name.
    pub policy: String,
    /// Total demand accesses observed (warmup included).
    pub accesses: u64,
    /// Length of the warmup prefix, for consumers that want to split it.
    pub warmup_accesses: u64,
    /// All-pages roll-up.
    pub summary: LedgerSummary,
    /// Detailed journeys, in retention order (most migrations, then most
    /// accesses, then smallest page id). The focus page, when set, is
    /// appended at the end if it did not place on its own.
    pub pages: Vec<PageRecord>,
}

/// Per-page detail state while the run is live.
#[derive(Debug, Default)]
struct PageDetail {
    events: Vec<PageEvent>,
    dropped: u64,
}

/// The page-ledger fold of a [`CellSink`](crate::CellSink). See the
/// [module docs](self) for the retention scheme.
#[derive(Debug)]
pub(crate) struct PageLedger {
    options: LedgerOptions,
    /// True while handling a fault's actions (classifies demotions).
    in_fault: bool,
    summaries: FxHashMap<PageId, PageSummary>,
    details: FxHashMap<PageId, PageDetail>,
    /// Pages whose detail was pruned; they never regain it.
    pruned: FxHashSet<PageId>,
    /// `(page, access index)` of a threshold-firing probe in the current
    /// event group, so the matching Migrate action is not double-counted.
    probe_fired: Option<(PageId, u64)>,
    /// All-pages lossy reset totals by counter kind (independent of
    /// detail retention, unlike the per-page journey events).
    resets_read: u64,
    resets_write: u64,
}

impl PageLedger {
    /// A ledger retaining what `options` asks for (top-K floor 1). It
    /// observes the whole run, warmup included, so journeys are complete.
    pub(crate) fn new(options: LedgerOptions) -> Self {
        Self {
            options: LedgerOptions {
                top_k: options.top_k.max(1),
                ..options
            },
            in_fault: false,
            summaries: FxHashMap::default(),
            details: FxHashMap::default(),
            pruned: FxHashSet::default(),
            probe_fired: None,
            resets_read: 0,
            resets_write: 0,
        }
    }

    pub(crate) fn record(&mut self, event: SimEvent, cursor: &Cursor) {
        let index = cursor.index();
        match event {
            SimEvent::Served { access, .. } => {
                self.in_fault = false;
                self.probe_fired = None;
                self.on_demand(access.page, access.kind == AccessKind::Write, index);
            }
            SimEvent::Fault { access } => {
                self.in_fault = true;
                self.probe_fired = None;
                self.on_demand(access.page, access.kind == AccessKind::Write, index);
            }
            SimEvent::CounterProbe { access, probe } => {
                if probe.fired.is_some() {
                    self.probe_fired = Some((access.page, index));
                }
                self.on_probe(access.page, probe, index);
            }
            SimEvent::Action { action } => self.on_action(action, index),
        }
    }

    fn summary_mut(&mut self, page: PageId) -> &mut PageSummary {
        self.summaries.entry(page).or_default()
    }

    /// Notes demand access `index` to `page`.
    fn on_demand(&mut self, page: PageId, write: bool, index: u64) {
        let summary = self.summary_mut(page);
        if summary.accesses == 0 {
            summary.first_access = index;
        }
        summary.accesses += 1;
        summary.last_access = index;
        if write {
            summary.writes += 1;
        } else {
            summary.reads += 1;
        }
    }

    /// Appends a journey event to `page`'s detail, honouring the pruned
    /// set and the per-page cap, then rebalances retention.
    fn push_event(&mut self, page: PageId, event: PageEvent) {
        if self.pruned.contains(&page) {
            return;
        }
        let max_events = self.options.max_events;
        let detail = self.details.entry(page).or_default();
        if detail.events.len() < max_events {
            detail.events.push(event);
        } else {
            detail.dropped += 1;
        }
        if self.details.len() > self.options.top_k.saturating_mul(2) {
            self.prune();
        }
    }

    /// Deterministically shrinks the detailed set back to `top_k` pages:
    /// most migrations, then most accesses, then smallest page id win.
    fn prune(&mut self) {
        #[expect(clippy::disallowed_methods, reason = "sorted by retention order next")]
        let mut ranked: Vec<PageId> = self.details.keys().copied().collect();
        let summaries = &self.summaries;
        ranked.sort_by(|a, b| Self::retention_order(summaries, *a, *b));
        for page in ranked.into_iter().skip(self.options.top_k) {
            if Some(page) == self.options.focus {
                continue;
            }
            self.details.remove(&page);
            self.pruned.insert(page);
        }
    }

    /// The documented retention order: migrations desc, accesses desc,
    /// page id asc.
    fn retention_order(
        summaries: &FxHashMap<PageId, PageSummary>,
        a: PageId,
        b: PageId,
    ) -> std::cmp::Ordering {
        let key = |page: PageId| {
            summaries
                .get(&page)
                .map_or((0, 0), |s| (s.migrations(), s.accesses))
        };
        let (am, aa) = key(a);
        let (bm, ba) = key(b);
        bm.cmp(&am)
            .then(ba.cmp(&aa))
            .then(a.value().cmp(&b.value()))
    }

    /// Finalizes the run into a [`LedgerReport`].
    pub(crate) fn finish(self, cursor: &Cursor, context: &CellContext) -> LedgerReport {
        // Roll the all-pages summary up.
        let mut summary = LedgerSummary {
            pages: self.summaries.len() as u64,
            faults: cursor.faults,
            pruned_pages: self.pruned.len() as u64,
            ..LedgerSummary::default()
        };
        #[expect(
            clippy::iter_over_hash_type,
            clippy::disallowed_methods,
            reason = "sums, which any order gives alike"
        )]
        for s in self.summaries.values() {
            summary.promotions_read += s.promotions_read;
            summary.promotions_write += s.promotions_write;
            summary.promotions_unattributed += s.promotions_unattributed;
            summary.demotions_fault += s.demotions_fault;
            summary.demotions_swap += s.demotions_swap;
            summary.evictions += s.evictions;
            summary.ping_pongs += s.ping_pongs;
            if s.ping_pongs > 0 {
                summary.ping_pong_pages += 1;
            }
        }
        summary.resets_read = self.resets_read;
        summary.resets_write = self.resets_write;

        // Final top-K selection over the detailed pages, retention order.
        #[expect(clippy::disallowed_methods, reason = "sorted by retention order next")]
        let mut ranked: Vec<PageId> = self.details.keys().copied().collect();
        let summaries = &self.summaries;
        ranked.sort_by(|a, b| Self::retention_order(summaries, *a, *b));
        ranked.truncate(self.options.top_k);
        if let Some(focus) = self.options.focus {
            if !ranked.contains(&focus) {
                ranked.push(focus);
            }
        }
        let pages: Vec<PageRecord> = ranked
            .into_iter()
            .map(|page| {
                let detail = self.details.get(&page);
                PageRecord {
                    page: page.value(),
                    summary: self.summaries.get(&page).copied().unwrap_or_default(),
                    events: detail.map(|d| d.events.clone()).unwrap_or_default(),
                    dropped_events: detail.map_or(0, |d| d.dropped),
                }
            })
            .collect();
        summary.detailed_pages = pages.len() as u64;

        LedgerReport {
            workload: context.workload.clone(),
            policy: context.policy.clone(),
            accesses: cursor.accesses,
            warmup_accesses: context.warmup,
            summary,
            pages,
        }
    }

    fn on_probe(&mut self, page: PageId, probe: NvmCounterProbe, index: u64) {
        if probe.read_lost > 0 {
            self.resets_read += 1;
            self.summary_mut(page).resets += 1;
            self.push_event(
                page,
                PageEvent::Reset {
                    access: index,
                    counter: CounterKind::Read,
                    lost: probe.read_lost,
                },
            );
        }
        if probe.write_lost > 0 {
            self.resets_write += 1;
            self.summary_mut(page).resets += 1;
            self.push_event(
                page,
                PageEvent::Reset {
                    access: index,
                    counter: CounterKind::Write,
                    lost: probe.write_lost,
                },
            );
        }
        if let Some(counter) = probe.fired {
            // The promotion's Migrate action follows this probe; record
            // the promotion here, where the provenance is, and let the
            // action handler skip the probed page's NVM→DRAM migrate.
            let (value, threshold) = match counter {
                CounterKind::Read => (probe.reads, probe.read_threshold),
                CounterKind::Write => (probe.writes, probe.write_threshold),
            };
            match counter {
                CounterKind::Read => self.summary_mut(page).promotions_read += 1,
                CounterKind::Write => self.summary_mut(page).promotions_write += 1,
            }
            self.push_event(
                page,
                PageEvent::Promote {
                    access: index,
                    provenance: Some(PromotionProvenance {
                        counter,
                        value,
                        threshold,
                        rank: probe.rank,
                    }),
                },
            );
        }
    }

    fn on_action(&mut self, action: PolicyAction, index: u64) {
        match action {
            PolicyAction::FillFromDisk { page, into } => {
                let summary = self.summary_mut(page);
                summary.fills += 1;
                summary.final_tier = Some(into);
                self.push_event(
                    page,
                    PageEvent::Fill {
                        access: index,
                        into,
                    },
                );
            }
            PolicyAction::EvictToDisk { page, from } => {
                let summary = self.summary_mut(page);
                summary.evictions += 1;
                summary.final_tier = None;
                self.push_event(
                    page,
                    PageEvent::Evict {
                        access: index,
                        from,
                    },
                );
            }
            PolicyAction::Migrate { page, from, to } => {
                match (from, to) {
                    (MemoryKind::Nvm, MemoryKind::Dram) => {
                        let summary = self.summary_mut(page);
                        summary.final_tier = Some(MemoryKind::Dram);
                        // A probed promotion was already recorded (with
                        // provenance) by `on_probe`; only unprobed
                        // promotions are recorded here.
                        if self.probe_fired != Some((page, index)) {
                            self.summary_mut(page).promotions_unattributed += 1;
                            self.push_event(
                                page,
                                PageEvent::Promote {
                                    access: index,
                                    provenance: None,
                                },
                            );
                        }
                    }
                    (MemoryKind::Dram, MemoryKind::Nvm) => {
                        let cause = if self.in_fault {
                            DemotionCause::FaultFill
                        } else {
                            DemotionCause::PromotionSwap
                        };
                        let summary = self.summary_mut(page);
                        summary.final_tier = Some(MemoryKind::Nvm);
                        match cause {
                            DemotionCause::FaultFill => summary.demotions_fault += 1,
                            DemotionCause::PromotionSwap => summary.demotions_swap += 1,
                        }
                        let promoted_before = summary.promotions_read
                            + summary.promotions_write
                            + summary.promotions_unattributed
                            > 0;
                        if promoted_before {
                            self.summary_mut(page).ping_pongs += 1;
                        }
                        self.push_event(
                            page,
                            PageEvent::Demote {
                                access: index,
                                cause,
                            },
                        );
                    }
                    // Same-tier "migrations" do not occur; record nothing.
                    _ => {}
                }
            }
        }
    }
}

/// Writes one cell's ledger as JSON Lines: a header line (workload,
/// policy, totals, the all-pages [`LedgerSummary`]) followed by one line
/// per retained [`PageRecord`]. Deterministic byte-for-byte for a given
/// spec + seed, at any thread count.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_ledger_jsonl<W: Write>(writer: &mut W, report: &LedgerReport) -> std::io::Result<()> {
    let header = Json::object([
        ("workload", report.workload.to_json()),
        ("policy", report.policy.to_json()),
        ("accesses", report.accesses.to_json()),
        ("warmup_accesses", report.warmup_accesses.to_json()),
        ("summary", report.summary.to_json()),
    ]);
    writeln!(writer, "{}", header.emit())?;
    for page in &report.pages {
        writeln!(writer, "{}", hybridmem_json::to_string(page))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::fixture;
    use crate::Instrumentation;
    use hybridmem_types::PageAccess;

    /// The ledger of `events` under `options`, for the cell `context`
    /// describes.
    fn ledger_in(
        context: CellContext,
        options: LedgerOptions,
        events: &[SimEvent],
    ) -> LedgerReport {
        let run = fixture::run(
            Instrumentation::default().with_ledger(options),
            context,
            events,
        );
        run.ledger.expect("a ledger was requested")
    }

    fn ledger_of(options: LedgerOptions, events: &[SimEvent]) -> LedgerReport {
        ledger_in(fixture::context("w", "p"), options, events)
    }

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

    fn action(action: PolicyAction) -> SimEvent {
        SimEvent::Action { action }
    }

    fn probe_event(page: u64, probe: NvmCounterProbe) -> SimEvent {
        SimEvent::CounterProbe {
            access: PageAccess::read(PageId::new(page)),
            probe,
        }
    }

    fn firing_probe(kind: CounterKind, value: u32, threshold: u32, rank: u64) -> NvmCounterProbe {
        NvmCounterProbe {
            rank,
            reads: if kind == CounterKind::Read { value } else { 0 },
            writes: if kind == CounterKind::Write { value } else { 0 },
            read_lost: 0,
            write_lost: 0,
            read_threshold: threshold,
            write_threshold: threshold,
            fired: Some(kind),
        }
    }

    fn migrate(page: u64, from: MemoryKind, to: MemoryKind) -> PolicyAction {
        PolicyAction::Migrate {
            page: PageId::new(page),
            from,
            to,
        }
    }

    #[test]
    fn probed_promotion_is_recorded_once_with_provenance() {
        let events = vec![
            // NVM hit fires the read counter; the simulator emits
            // Served → CounterProbe → Migrate(victim ↓) → Migrate(page ↑).
            served(7, MemoryKind::Nvm),
            probe_event(7, firing_probe(CounterKind::Read, 7, 6, 2)),
            action(migrate(3, MemoryKind::Dram, MemoryKind::Nvm)),
            action(migrate(7, MemoryKind::Nvm, MemoryKind::Dram)),
        ];
        let report = ledger_of(LedgerOptions::default(), &events);
        assert_eq!(report.summary.promotions_read, 1);
        assert_eq!(report.summary.promotions_unattributed, 0);
        assert_eq!(report.summary.demotions_swap, 1);
        assert_eq!(report.summary.demotions_fault, 0);

        let hot = report.pages.iter().find(|r| r.page == 7).unwrap();
        assert_eq!(hot.summary.final_tier, Some(MemoryKind::Dram));
        let promote = hot
            .events
            .iter()
            .find_map(|e| match e {
                PageEvent::Promote { access, provenance } => Some((*access, *provenance)),
                _ => None,
            })
            .expect("a promote event");
        assert_eq!(promote.0, 0, "triggered by the first demand access");
        let provenance = promote.1.expect("probed promotions carry provenance");
        assert_eq!(provenance.counter, CounterKind::Read);
        assert_eq!(provenance.value, 7);
        assert_eq!(provenance.threshold, 6);
        assert_eq!(provenance.rank, 2);
    }

    #[test]
    fn unprobed_promotions_and_fault_demotions_are_classified() {
        let events = vec![
            // CLOCK-DWF-style promotion: Served then a bare Migrate.
            served(1, MemoryKind::Nvm),
            action(migrate(1, MemoryKind::Nvm, MemoryKind::Dram)),
            // A fault displaces page 1 back to NVM: ping-pong.
            fault(2),
            action(migrate(1, MemoryKind::Dram, MemoryKind::Nvm)),
            action(PolicyAction::FillFromDisk {
                page: PageId::new(2),
                into: MemoryKind::Dram,
            }),
        ];
        let report = ledger_of(LedgerOptions::default(), &events);
        assert_eq!(report.summary.promotions_unattributed, 1);
        assert_eq!(report.summary.demotions_fault, 1);
        assert_eq!(report.summary.ping_pongs, 1);
        assert_eq!(report.summary.ping_pong_pages, 1);
        assert_eq!(report.summary.faults, 1);
        let p1 = report.pages.iter().find(|r| r.page == 1).unwrap();
        assert!(matches!(
            p1.events.as_slice(),
            [
                PageEvent::Promote {
                    access: 0,
                    provenance: None
                },
                PageEvent::Demote {
                    access: 1,
                    cause: DemotionCause::FaultFill
                }
            ]
        ));
        let p2 = report.pages.iter().find(|r| r.page == 2).unwrap();
        assert_eq!(p2.summary.fills, 1);
        assert_eq!(p2.summary.final_tier, Some(MemoryKind::Dram));
    }

    #[test]
    fn lossy_resets_are_counted_globally_and_per_page() {
        let events = vec![
            served(5, MemoryKind::Nvm),
            probe_event(
                5,
                NvmCounterProbe {
                    rank: 9,
                    reads: 1,
                    writes: 0,
                    read_lost: 4,
                    write_lost: 2,
                    read_threshold: 6,
                    write_threshold: 12,
                    fired: None,
                },
            ),
        ];
        let report = ledger_of(LedgerOptions::default(), &events);
        assert_eq!(report.summary.resets_read, 1);
        assert_eq!(report.summary.resets_write, 1);
        let page = report.pages.iter().find(|r| r.page == 5).unwrap();
        assert_eq!(page.summary.resets, 2);
        assert!(matches!(
            page.events[0],
            PageEvent::Reset {
                counter: CounterKind::Read,
                lost: 4,
                ..
            }
        ));
    }

    #[test]
    fn top_k_retention_is_deterministic_with_documented_tie_breaks() {
        let options = LedgerOptions {
            top_k: 2,
            max_events: 8,
            focus: None,
        };
        let mut events = Vec::new();
        // Page 30 collects the most migrations, pages 10 and 20 tie on
        // migrations but 20 sees more accesses; then two cold fills push
        // the detailed set past 2 × top_k and force a prune.
        for page in [30u64, 20, 10] {
            events.push(fault(page));
            events.push(action(PolicyAction::FillFromDisk {
                page: PageId::new(page),
                into: MemoryKind::Dram,
            }));
        }
        for _ in 0..3 {
            events.push(served(30, MemoryKind::Nvm));
            events.push(action(migrate(30, MemoryKind::Nvm, MemoryKind::Dram)));
            events.push(served(30, MemoryKind::Dram));
            events.push(action(migrate(30, MemoryKind::Dram, MemoryKind::Nvm)));
        }
        events.push(served(20, MemoryKind::Nvm));
        events.push(action(migrate(20, MemoryKind::Nvm, MemoryKind::Dram)));
        events.push(served(20, MemoryKind::Dram));
        events.push(served(10, MemoryKind::Nvm));
        events.push(action(migrate(10, MemoryKind::Nvm, MemoryKind::Dram)));
        for page in [40u64, 50] {
            events.push(fault(page));
            events.push(action(PolicyAction::FillFromDisk {
                page: PageId::new(page),
                into: MemoryKind::Dram,
            }));
        }
        let report = ledger_of(options, &events);
        let retained: Vec<u64> = report.pages.iter().map(|r| r.page).collect();
        assert_eq!(
            retained,
            vec![30, 20],
            "most migrations first, then accesses break the tie"
        );
        assert_eq!(report.summary.detailed_pages, 2);
        assert_eq!(report.summary.pruned_pages, 3);
        // Pruned pages keep their summaries in the roll-up.
        assert_eq!(report.summary.pages, 5);
    }

    #[test]
    fn focus_page_survives_pruning_and_event_caps_count_drops() {
        let options = LedgerOptions {
            top_k: 1,
            max_events: 2,
            focus: Some(PageId::new(99)),
        };
        let mut events = vec![
            fault(99),
            action(PolicyAction::FillFromDisk {
                page: PageId::new(99),
                into: MemoryKind::Dram,
            }),
        ];
        // Busy unrelated pages would normally push 99 out of the top-K.
        for page in 1..=6u64 {
            events.push(served(page, MemoryKind::Nvm));
            events.push(action(migrate(page, MemoryKind::Nvm, MemoryKind::Dram)));
            events.push(served(page, MemoryKind::Dram));
            events.push(action(migrate(page, MemoryKind::Dram, MemoryKind::Nvm)));
        }
        // Three more journey events for 99: only one fits under the cap.
        events.push(served(99, MemoryKind::Dram));
        events.push(action(migrate(99, MemoryKind::Dram, MemoryKind::Nvm)));
        events.push(served(99, MemoryKind::Nvm));
        events.push(action(migrate(99, MemoryKind::Nvm, MemoryKind::Dram)));
        events.push(served(99, MemoryKind::Nvm));
        events.push(action(migrate(99, MemoryKind::Nvm, MemoryKind::Dram)));
        let report = ledger_of(options, &events);
        let focus = report
            .pages
            .iter()
            .find(|r| r.page == 99)
            .expect("focus page always reported");
        assert_eq!(focus.events.len(), 2, "per-page cap");
        assert!(focus.dropped_events >= 1, "overflow is counted");
    }

    #[test]
    fn jsonl_export_has_a_header_line_then_one_line_per_page() {
        let context = CellContext {
            warmup: 100,
            ..fixture::context("bodytrack", "two-lru")
        };
        let events = [
            fault(1),
            action(PolicyAction::FillFromDisk {
                page: PageId::new(1),
                into: MemoryKind::Dram,
            }),
        ];
        let report = ledger_in(context, LedgerOptions::default(), &events);
        let mut bytes = Vec::new();
        write_ledger_jsonl(&mut bytes, &report).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + report.pages.len());
        let header = hybridmem_json::parse(lines[0]).unwrap();
        assert_eq!(header["workload"], "bodytrack");
        assert_eq!(header["policy"], "two-lru");
        assert_eq!(header["warmup_accesses"], 100);
        let page = hybridmem_json::parse(lines[1]).unwrap();
        assert_eq!(page["page"], 1);
        assert_eq!(page["summary"]["fills"], 1);
        assert_eq!(page["events"][0]["event"], "fill");
    }
}
