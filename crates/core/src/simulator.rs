//! The hybrid-memory simulator: replays a page-granular trace through a
//! policy and counts every consequence.

use hybridmem_device::WearTracker;
use hybridmem_policy::{AccessOutcome, BatchOutcomes, BatchStep, HybridPolicy, PolicyAction};
use hybridmem_types::{AccessKind, MemoryKind, PageAccess, PageCount, PageTable, PAGE_FACTOR};

use crate::{model, Counts, EventSink, SimEvent, SimulationReport, TimeModel, WearSummary};

/// Trace-driven simulator for one policy over one hybrid memory.
///
/// The simulator is the *accountant*: the policy decides placement and
/// migration; the simulator counts each decision's consequences in
/// [`Counts`] and tracks NVM wear. [`into_report`](Self::into_report)
/// prices the counts once, through the one cost model in
/// [`model`](crate::model): latency follows Eq. 1's structure (hit service
/// time, disk time on faults, `PageFactor` accesses per migration) and
/// energy follows Eq. 2 + Eq. 3.
///
/// # Examples
///
/// ```
/// use hybridmem_core::HybridSimulator;
/// use hybridmem_policy::{SingleTierPolicy};
/// use hybridmem_types::{PageAccess, PageCount, PageId};
///
/// let policy = SingleTierPolicy::dram_only(PageCount::new(8))?;
/// let mut sim = HybridSimulator::with_date2016_devices(Box::new(policy));
/// sim.step(PageAccess::read(PageId::new(1)));
/// sim.step(PageAccess::read(PageId::new(1)));
/// let report = sim.into_report("quickstart");
/// assert_eq!(report.counts.requests, 2);
/// assert_eq!(report.counts.faults, 1);
/// # Ok::<(), hybridmem_types::Error>(())
/// ```
pub struct HybridSimulator {
    policy: Box<dyn HybridPolicy>,
    wear: WearTracker,
    time_model: TimeModel,
    counts: Counts,
    /// Distinct pages accessed since the last reset: a set, every value 0.
    footprint: PageTable,
    static_scale: f64,
    density_hint: Option<f64>,
    event_sink: Option<Box<dyn EventSink>>,
}

impl HybridSimulator {
    /// Creates a simulator for `policy`, whose
    /// [`HybridPolicy::capacity`] sizes the memory, with `time_model`
    /// supplying Eq. 3's workload duration.
    #[must_use]
    pub fn new(policy: Box<dyn HybridPolicy>, time_model: TimeModel) -> Self {
        let frames =
            policy.capacity(MemoryKind::Dram).value() + policy.capacity(MemoryKind::Nvm).value();
        Self {
            policy,
            wear: WearTracker::new(),
            time_model,
            counts: Counts::default(),
            footprint: PageTable::with_capacity(usize::try_from(frames).unwrap_or(usize::MAX)),
            static_scale: 1.0,
            density_hint: None,
            event_sink: None,
        }
    }

    /// Installs an [`EventSink`] observing every simulation event. Replaces
    /// any previously installed sink.
    pub fn set_event_sink(&mut self, sink: Box<dyn EventSink>) {
        self.event_sink = Some(sink);
    }

    /// Removes and returns the installed event sink, if any — downcast it
    /// via [`EventSink::as_any`] to read the collected data.
    pub fn take_event_sink(&mut self) -> Option<Box<dyn EventSink>> {
        self.event_sink.take()
    }

    /// Mutable access to the installed sink without removing it —
    /// downcast via [`EventSink::as_any_mut`] to drain a collector
    /// incrementally while the run continues (the `observe` streaming
    /// path).
    pub fn event_sink_mut(&mut self) -> Option<&mut (dyn EventSink + 'static)> {
        self.event_sink.as_deref_mut()
    }

    #[inline]
    fn emit(&mut self, event: SimEvent) {
        if let Some(sink) = &mut self.event_sink {
            sink.record(event);
        }
    }

    /// Supplies the workload's true pages-per-access density for the
    /// duration model, overriding the measured `footprint / requests` ratio
    /// (which a scaled run with a footprint floor distorts).
    ///
    /// # Panics
    ///
    /// Panics when `density` is not finite-positive.
    pub fn set_density_hint(&mut self, density: f64) {
        assert!(
            density.is_finite() && density > 0.0,
            "density must be positive, got {density}"
        );
        self.density_hint = Some(density);
    }

    /// Declares that the simulated memory stands in for one `scale` times
    /// larger (used when a workload was scaled down for tractability):
    /// static power is multiplied by this factor so the static/dynamic
    /// balance matches the full-size system. Defaults to 1.0.
    ///
    /// # Panics
    ///
    /// Panics when `scale` is not finite-positive.
    pub fn set_static_scale(&mut self, scale: f64) {
        assert!(
            scale.is_finite() && scale > 0.0,
            "static scale must be positive, got {scale}"
        );
        self.static_scale = scale;
    }

    /// Resets all accounting (counters, wear, and the observed footprint)
    /// while keeping the policy and memory state. Call after driving
    /// warmup traffic so reports reflect the steady state — mirroring the
    /// paper's use of "the largest dataset available in order to minimize
    /// the effect of starting from cold memory".
    pub fn reset_accounting(&mut self) {
        self.counts = Counts::default();
        self.wear = WearTracker::new();
        self.footprint.clear();
    }

    /// Creates a simulator with the default [`TimeModel`]. Every
    /// simulator prices its counts with the paper's Table IV / Table II
    /// device constants.
    #[must_use]
    pub fn with_date2016_devices(policy: Box<dyn HybridPolicy>) -> Self {
        Self::new(policy, TimeModel::date2016())
    }

    /// The policy under simulation.
    #[must_use]
    pub fn policy(&self) -> &dyn HybridPolicy {
        self.policy.as_ref()
    }

    /// Drives one demand access through the policy and accounts for it.
    pub fn step(&mut self, access: PageAccess) {
        let outcome = self.policy.on_access(access);
        self.account(access, &outcome);
    }

    /// Counts one decided access. Shared by the serial
    /// ([`step`](Self::step)) and batched
    /// ([`run_slice_batched`](Self::run_slice_batched)) drivers so both
    /// perform the identical per-access accounting — same counts, same
    /// wear, same event-emission order — and stay byte-identical in every
    /// output.
    fn account(&mut self, access: PageAccess, outcome: &AccessOutcome) {
        self.counts.requests += 1;
        match access.kind {
            AccessKind::Read => self.counts.reads += 1,
            AccessKind::Write => self.counts.writes += 1,
        }
        self.footprint.insert(access.page, 0);

        // Demand service (Eq. 1/2, hit terms).
        match outcome.served_from {
            Some(kind) => {
                self.emit(SimEvent::Served { access, from: kind });
                match (kind, access.kind) {
                    (MemoryKind::Dram, AccessKind::Read) => self.counts.dram_read_hits += 1,
                    (MemoryKind::Dram, AccessKind::Write) => self.counts.dram_write_hits += 1,
                    (MemoryKind::Nvm, AccessKind::Read) => self.counts.nvm_read_hits += 1,
                    (MemoryKind::Nvm, AccessKind::Write) => {
                        self.counts.nvm_write_hits += 1;
                        self.wear.record_page_write(access.page, 1);
                    }
                }
            }
            None => {
                // Page fault: the OS sees only the disk latency (Eq. 1,
                // term 3), which `price` charges per fault.
                debug_assert!(outcome.fault);
                self.emit(SimEvent::Fault { access });
            }
        }
        if outcome.fault {
            self.counts.faults += 1;
        }
        // Provenance: the policy's counter-state snapshot for this NVM
        // hit precedes the promotion actions it explains.
        if let Some(probe) = outcome.probe {
            self.emit(SimEvent::CounterProbe { access, probe });
        }

        // Physical consequences. A page moved or filled into NVM writes
        // `PageFactor` accesses' worth of it.
        for action in &outcome.actions {
            self.emit(SimEvent::Action { action: *action });
            match *action {
                PolicyAction::Migrate { page, from, to } => match (from, to) {
                    (MemoryKind::Nvm, MemoryKind::Dram) => self.counts.migrations_to_dram += 1,
                    (MemoryKind::Dram, MemoryKind::Nvm) => {
                        self.counts.migrations_to_nvm += 1;
                        self.wear.record_page_write(page, PAGE_FACTOR);
                    }
                    // Same-module "migrations" are policy bugs; count
                    // nothing but keep the run alive in release builds.
                    _ => debug_assert!(false, "migration within one module: {action:?}"),
                },
                PolicyAction::FillFromDisk { page, into } => match into {
                    MemoryKind::Dram => self.counts.fills_to_dram += 1,
                    MemoryKind::Nvm => {
                        self.counts.fills_to_nvm += 1;
                        self.wear.record_page_write(page, PAGE_FACTOR);
                    }
                },
                PolicyAction::EvictToDisk { .. } => {
                    // Page-out via DMA overlapped with the disk write; the
                    // paper charges no memory-side cost for it.
                    self.counts.evictions_to_disk += 1;
                }
            }
        }
    }

    /// Runs a whole trace.
    pub fn run<I: IntoIterator<Item = PageAccess>>(&mut self, trace: I) {
        for access in trace {
            self.step(access);
        }
    }

    /// Replays a materialized trace slice without cloning or re-generating
    /// it — the replay path for traces shared through
    /// [`TraceCache`](crate::TraceCache).
    pub fn run_slice(&mut self, trace: &[PageAccess]) {
        for &access in trace {
            self.step(access);
        }
    }

    /// Accesses handed to the policy per [`HybridPolicy::on_access_batch`]
    /// call by [`run_slice_batched`](Self::run_slice_batched). Large enough
    /// to amortize the virtual dispatch, small enough that the reused
    /// [`BatchOutcomes`] stays cache-resident.
    pub const BATCH_RECORDS: usize = 1024;

    /// Replays a trace slice through the policy's batch entry point.
    ///
    /// Produces output **byte-identical** to [`run_slice`](Self::run_slice):
    /// every access still flows through the same per-access accounting
    /// (`account`), in trace order, so counters, wear, and event emission
    /// are exactly those of the serial driver — only the policy dispatch
    /// is amortized. The serial path remains the determinism oracle;
    /// `tests/policy_comparison.rs` asserts equality over the paper matrix.
    pub fn run_slice_batched(&mut self, trace: &[PageAccess]) {
        let mut out = BatchOutcomes::with_capacity(Self::BATCH_RECORDS);
        for chunk in trace.chunks(Self::BATCH_RECORDS) {
            out.clear();
            self.policy.on_access_batch(chunk, &mut out);
            debug_assert_eq!(
                out.len(),
                chunk.len(),
                "policy {} returned {} outcomes for a batch of {}",
                self.policy.name(),
                out.len(),
                chunk.len()
            );
            let mut detailed = out.detailed().iter();
            for (&access, step) in chunk.iter().zip(out.steps()) {
                match step {
                    BatchStep::DramHit => {
                        self.account(access, &AccessOutcome::hit(MemoryKind::Dram));
                    }
                    BatchStep::NvmHit => {
                        self.account(access, &AccessOutcome::hit(MemoryKind::Nvm));
                    }
                    BatchStep::Detailed => {
                        #[expect(clippy::expect_used, reason = "one table entry per Detailed step")]
                        let outcome = detailed
                            .next()
                            .expect("BatchOutcomes tape and table agree by construction");
                        self.account(access, outcome);
                    }
                }
            }
        }
    }

    /// Finishes the run and produces the report, pricing its counts once
    /// through Table IV/II and `PageFactor`.
    #[must_use]
    pub fn into_report(self, workload: impl Into<String>) -> SimulationReport {
        let dram_pages = self.dram_capacity().value();
        let nvm_pages = self.nvm_capacity().value();
        let footprint_pages = self.footprint.len() as u64;
        let duration_pages = match self.density_hint {
            Some(density) => (density * self.counts.requests as f64).round() as u64,
            None => footprint_pages,
        };
        let duration_ns = self
            .time_model
            .duration_ns(duration_pages, self.counts.requests);
        let static_power_nj_s = model::static_power_nj_s(dram_pages, nvm_pages) * self.static_scale;
        let static_energy = self.time_model.static_energy_per_request(
            static_power_nj_s,
            duration_pages,
            self.counts.requests,
        ) * self.counts.requests as f64;
        let priced = model::price(&self.counts, static_energy);

        let wear = WearSummary {
            max_page_wear: self.wear.max_wear(),
            mean_page_wear: self.wear.mean_wear(),
            imbalance: self.wear.imbalance(),
        };

        SimulationReport {
            policy: self.policy.name().to_owned(),
            workload: workload.into(),
            dram_pages,
            nvm_pages,
            footprint_pages,
            counts: self.counts,
            latency: priced.latency,
            energy: priced.energy,
            nvm_writes: priced.nvm_writes,
            wear,
            dram_stats: priced.dram_stats,
            nvm_stats: priced.nvm_stats,
            duration_ns,
        }
    }

    /// DRAM capacity (pages) of the simulated memory.
    #[must_use]
    pub fn dram_capacity(&self) -> PageCount {
        self.policy.capacity(MemoryKind::Dram)
    }

    /// NVM capacity (pages) of the simulated memory.
    #[must_use]
    pub fn nvm_capacity(&self) -> PageCount {
        self.policy.capacity(MemoryKind::Nvm)
    }
}

impl std::fmt::Debug for HybridSimulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HybridSimulator")
            .field("policy", &self.policy.name())
            .field("dram_pages", &self.dram_capacity().value())
            .field("nvm_pages", &self.nvm_capacity().value())
            .field("requests", &self.counts.requests)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridmem_policy::{ClockDwfPolicy, SingleTierPolicy, TwoLruConfig, TwoLruPolicy};
    use hybridmem_types::{PageId, PAGE_FACTOR};

    fn two_lru(dram: u64, nvm: u64) -> HybridSimulator {
        let config = TwoLruConfig::new(PageCount::new(dram), PageCount::new(nvm)).unwrap();
        HybridSimulator::with_date2016_devices(Box::new(TwoLruPolicy::new(config)))
    }

    #[test]
    fn fault_charges_disk_latency_and_fill_energy() {
        let mut sim = two_lru(2, 4);
        sim.step(PageAccess::read(PageId::new(1)));
        let report = sim.into_report("t");
        assert_eq!(report.counts.faults, 1);
        assert_eq!(report.counts.fills_to_dram, 1);
        // Latency: only the 5 ms disk access.
        assert!((report.latency.faults.value() - 5e6).abs() < 1e-6);
        assert!(report.latency.requests.is_zero());
        // Energy: PageFactor DRAM writes for the fill.
        let expected = PAGE_FACTOR as f64 * 3.2;
        assert!((report.energy.page_faults.value() - expected).abs() < 1e-6);
    }

    #[test]
    fn dram_hit_charges_dram_latency() {
        let mut sim = two_lru(2, 4);
        sim.step(PageAccess::read(PageId::new(1)));
        sim.step(PageAccess::write(PageId::new(1)));
        let report = sim.into_report("t");
        assert_eq!(report.counts.dram_write_hits, 1);
        assert!((report.latency.requests.value() - 50.0).abs() < 1e-9);
        assert!((report.energy.dynamic.value() - 3.2).abs() < 1e-9);
    }

    #[test]
    fn migration_costs_match_eq1_terms() {
        // DRAM=1 so the second fault demotes the first page (D→N).
        let mut sim = two_lru(1, 4);
        sim.step(PageAccess::read(PageId::new(1)));
        sim.step(PageAccess::read(PageId::new(2)));
        let report = sim.into_report("t");
        assert_eq!(report.counts.migrations_to_nvm, 1);
        let pf = PAGE_FACTOR as f64;
        // Eq. 1 term 5: PageFactor * (TR_DRAM + TW_NVM) = 512 * 400.
        assert!((report.latency.migrations.value() - pf * 400.0).abs() < 1e-6);
        // Eq. 2 term 6: PageFactor * (PoR_DRAM + PoW_NVM) = 512 * 35.2.
        assert!((report.energy.migrations.value() - pf * 35.2).abs() < 1e-6);
        // The demotion wrote a page into NVM.
        assert_eq!(report.nvm_writes.migrations, PAGE_FACTOR);
        assert_eq!(report.wear.max_page_wear, PAGE_FACTOR);
    }

    #[test]
    fn nvm_demand_write_counts_one_physical_write() {
        let mut sim = two_lru(1, 4);
        sim.step(PageAccess::read(PageId::new(1)));
        sim.step(PageAccess::read(PageId::new(2))); // page 1 demoted to NVM
        sim.step(PageAccess::write(PageId::new(1))); // NVM write hit
        let report = sim.into_report("t");
        assert_eq!(report.counts.nvm_write_hits, 1);
        assert_eq!(report.nvm_writes.requests, 1);
        // NVM write latency charged on the request path.
        assert!((report.latency.requests.value() - 350.0).abs() < 1e-9);
    }

    #[test]
    fn clock_dwf_nvm_write_hit_migrates_not_serves() {
        let policy = ClockDwfPolicy::new(PageCount::new(1), PageCount::new(4)).unwrap();
        let mut sim = HybridSimulator::with_date2016_devices(Box::new(policy));
        sim.step(PageAccess::read(PageId::new(1))); // fills DRAM
        sim.step(PageAccess::read(PageId::new(2))); // fills NVM
        sim.step(PageAccess::write(PageId::new(2))); // write hit in NVM → swap
        let report = sim.into_report("t");
        assert_eq!(report.counts.migrations_to_dram, 1);
        assert_eq!(report.counts.migrations_to_nvm, 1);
        assert_eq!(
            report.counts.nvm_write_hits, 0,
            "served by DRAM after migration"
        );
        assert_eq!(report.nvm_writes.requests, 0);
        assert_eq!(report.nvm_writes.migrations, PAGE_FACTOR);
    }

    #[test]
    fn static_energy_scales_with_memory_size() {
        let small = {
            let mut sim = two_lru(1, 4);
            sim.step(PageAccess::read(PageId::new(1)));
            sim.into_report("t")
        };
        let large = {
            let mut sim = two_lru(10, 400);
            sim.step(PageAccess::read(PageId::new(1)));
            sim.into_report("t")
        };
        assert!(large.energy.static_energy > small.energy.static_energy);
    }

    #[test]
    fn dram_only_never_touches_nvm() {
        let policy = SingleTierPolicy::dram_only(PageCount::new(4)).unwrap();
        let mut sim = HybridSimulator::with_date2016_devices(Box::new(policy));
        for i in 0..20u64 {
            sim.step(PageAccess::write(PageId::new(i % 6)));
        }
        let report = sim.into_report("t");
        assert_eq!(report.nvm_writes.total(), 0);
        assert_eq!(report.nvm_stats.total_accesses(), 0);
        assert_eq!(report.counts.migrations(), 0);
        assert_eq!(report.nvm_pages, 0);
    }

    #[test]
    fn nvm_only_counts_demand_and_fill_writes() {
        let policy = SingleTierPolicy::nvm_only(PageCount::new(4)).unwrap();
        let mut sim = HybridSimulator::with_date2016_devices(Box::new(policy));
        sim.step(PageAccess::write(PageId::new(1))); // fault + fill
        sim.step(PageAccess::write(PageId::new(1))); // demand write
        let report = sim.into_report("t");
        assert_eq!(report.nvm_writes.page_faults, PAGE_FACTOR);
        assert_eq!(report.nvm_writes.requests, 1);
        assert_eq!(report.nvm_writes.total(), PAGE_FACTOR + 1);
    }

    #[test]
    fn run_consumes_an_iterator_and_counts_everything() {
        let mut sim = two_lru(2, 8);
        sim.run((0..50u64).map(|i| PageAccess::read(PageId::new(i % 12))));
        let report = sim.into_report("t");
        assert_eq!(report.counts.requests, 50);
        assert_eq!(report.counts.reads, 50);
        assert_eq!(report.footprint_pages, 12);
        assert_eq!(
            report.counts.hits() + report.counts.faults,
            report.counts.requests
        );
    }

    #[test]
    fn debug_format_is_informative() {
        let sim = two_lru(2, 8);
        let text = format!("{sim:?}");
        assert!(text.contains("two-lru") && text.contains("requests"));
    }

    /// A small mixed trace exercising hits in both tiers, faults,
    /// promotions, and demotions: pages cycle with reuse skew so the two-LRU
    /// counters fire.
    fn mixed_trace() -> Vec<PageAccess> {
        (0..4_000u64)
            .map(|i| {
                let page = PageId::new(match i % 7 {
                    0..=1 => i % 3,      // hot pages, quickly DRAM-resident
                    2..=4 => 10 + i % 9, // warm set straddling NVM
                    _ => 100 + i % 400,  // cold tail faulting from disk
                });
                if i % 5 == 0 {
                    PageAccess::write(page)
                } else {
                    PageAccess::read(page)
                }
            })
            .collect()
    }

    fn policies() -> Vec<Box<dyn HybridPolicy>> {
        vec![
            Box::new(TwoLruPolicy::new(
                TwoLruConfig::new(PageCount::new(4), PageCount::new(16)).unwrap(),
            )),
            Box::new(ClockDwfPolicy::new(PageCount::new(4), PageCount::new(16)).unwrap()),
            Box::new(SingleTierPolicy::dram_only(PageCount::new(12)).unwrap()),
            Box::new(SingleTierPolicy::nvm_only(PageCount::new(12)).unwrap()),
        ]
    }

    #[test]
    fn batched_replay_equals_serial_replay() {
        let trace = mixed_trace();
        for (serial_policy, batched_policy) in policies().into_iter().zip(policies()) {
            let name = serial_policy.name();
            let mut serial = HybridSimulator::with_date2016_devices(serial_policy);
            serial.run_slice(&trace);
            let mut batched = HybridSimulator::with_date2016_devices(batched_policy);
            batched.run_slice_batched(&trace);
            assert_eq!(
                serial.into_report("t"),
                batched.into_report("t"),
                "batched replay diverged from the serial oracle for {name}"
            );
        }
    }

    #[test]
    fn batched_replay_emits_identical_events() {
        use crate::RecordingSink;
        let trace = mixed_trace();
        let record = |batched: bool| {
            let config = TwoLruConfig::new(PageCount::new(4), PageCount::new(16)).unwrap();
            let mut sim =
                HybridSimulator::with_date2016_devices(Box::new(TwoLruPolicy::new(config)));
            sim.set_event_sink(Box::new(RecordingSink::new()));
            if batched {
                sim.run_slice_batched(&trace);
            } else {
                sim.run_slice(&trace);
            }
            let sink = sim.take_event_sink().unwrap();
            format!(
                "{:?}",
                sink.as_any()
                    .downcast_ref::<RecordingSink>()
                    .unwrap()
                    .events()
            )
        };
        assert_eq!(
            record(false),
            record(true),
            "event stream must be order-identical between drivers"
        );
    }
}
