//! Integration tests of the event-observation hook: the emitted stream
//! must agree exactly with the report's counters.

use hybridmem_core::{ExperimentConfig, HybridSimulator, PolicyKind, RecordingSink, SimEvent};
use hybridmem_policy::PolicyAction;
use hybridmem_trace::{parsec, TraceGenerator};
use hybridmem_types::{MemoryKind, PageAccess};

/// Runs one policy over a capped workload with a recording sink and
/// returns the recorded event stream.
fn record_events(workload: &str, cap: u64, kind: PolicyKind) -> Vec<SimEvent> {
    let spec = parsec::spec(workload).unwrap().capped(cap);
    let config = ExperimentConfig::default();
    let policy = config.build_policy(kind, &spec).unwrap();
    let mut sim = HybridSimulator::with_date2016_devices(policy);
    sim.set_event_sink(Box::new(RecordingSink::new()));
    sim.run(TraceGenerator::new(spec, config.seed).map(PageAccess::from));
    sim.take_event_sink()
        .expect("sink installed")
        .as_any()
        .downcast_ref::<RecordingSink>()
        .expect("recording sink")
        .events()
        .to_vec()
}

#[test]
fn event_stream_matches_report_counters() {
    let spec = parsec::spec("bodytrack").unwrap().capped(10_000);
    let config = ExperimentConfig::default();
    let policy = config.build_policy(PolicyKind::TwoLru, &spec).unwrap();
    let mut sim = HybridSimulator::with_date2016_devices(policy);
    sim.set_event_sink(Box::new(RecordingSink::new()));
    sim.run(TraceGenerator::new(spec.clone(), config.seed).map(PageAccess::from));

    let sink = sim.take_event_sink().expect("sink installed");
    let events = sink
        .as_any()
        .downcast_ref::<RecordingSink>()
        .expect("recording sink")
        .events()
        .to_vec();
    let report = sim.into_report("bodytrack");

    let served = events
        .iter()
        .filter(|e| matches!(e, SimEvent::Served { .. }))
        .count() as u64;
    let faults = events
        .iter()
        .filter(|e| matches!(e, SimEvent::Fault { .. }))
        .count() as u64;
    assert_eq!(served, report.counts.hits());
    assert_eq!(faults, report.counts.faults);
    assert_eq!(served + faults, report.counts.requests);

    // Action events agree with the action counters.
    let migrations = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                SimEvent::Action {
                    action: hybridmem_policy::PolicyAction::Migrate { .. }
                }
            )
        })
        .count() as u64;
    assert_eq!(migrations, report.counts.migrations());

    // Served events name the module that the per-module stats credit.
    let nvm_served = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                SimEvent::Served {
                    from: MemoryKind::Nvm,
                    ..
                }
            )
        })
        .count() as u64;
    assert_eq!(
        nvm_served,
        report.counts.nvm_read_hits + report.counts.nvm_write_hits
    );
}

#[test]
fn every_fault_group_ends_with_its_own_fill() {
    // SimEvent ordering contract: a Fault is emitted before the actions
    // that resolve it, and the group of actions between the Fault and the
    // next demand event contains exactly one FillFromDisk — for the
    // faulting page, as the group's last action (evictions and demotions
    // must free the slot before the fill lands in it).
    for kind in [PolicyKind::TwoLru, PolicyKind::ClockDwf] {
        let events = record_events("bodytrack", 5_000, kind);
        let mut faults = 0u64;
        let mut index = 0;
        while index < events.len() {
            let SimEvent::Fault { access } = events[index] else {
                index += 1;
                continue;
            };
            faults += 1;
            let group: Vec<PolicyAction> = events[index + 1..]
                .iter()
                .map_while(|event| match event {
                    SimEvent::Action { action } => Some(*action),
                    _ => None,
                })
                .collect();
            let fills: Vec<&PolicyAction> = group
                .iter()
                .filter(|a| matches!(a, PolicyAction::FillFromDisk { .. }))
                .collect();
            assert_eq!(fills.len(), 1, "{kind}: one fill per fault");
            assert!(
                matches!(
                    group.last(),
                    Some(PolicyAction::FillFromDisk { page, .. }) if *page == access.page
                ),
                "{kind}: the fill is the group's last action and names the faulting page"
            );
            index += 1 + group.len();
        }
        assert!(faults > 0, "{kind}: the capped run must fault");
    }
}

#[test]
fn served_events_carry_the_servicing_tier() {
    // Under a single-tier policy every hit must be served from that tier —
    // a Served event naming the other module would be a simulator bug.
    for (kind, tier) in [
        (PolicyKind::DramOnly, MemoryKind::Dram),
        (PolicyKind::NvmOnly, MemoryKind::Nvm),
    ] {
        let events = record_events("raytrace", 4_000, kind);
        let mut served = 0u64;
        for event in &events {
            if let SimEvent::Served { from, .. } = event {
                assert_eq!(*from, tier, "{kind}");
                served += 1;
            }
        }
        assert!(served > 0, "{kind}: the capped run must hit");
    }
}

#[test]
fn bounded_recording_sink_keeps_the_newest_events() {
    let spec = parsec::spec("bodytrack").unwrap().capped(5_000);
    let config = ExperimentConfig::default();

    let run = |sink: RecordingSink| {
        let policy = config.build_policy(PolicyKind::TwoLru, &spec).unwrap();
        let mut sim = HybridSimulator::with_date2016_devices(policy);
        sim.set_event_sink(Box::new(sink));
        sim.run(TraceGenerator::new(spec.clone(), config.seed).map(PageAccess::from));
        let mut sink = sim.take_event_sink().expect("sink installed");
        sink.as_any_mut()
            .downcast_mut::<RecordingSink>()
            .expect("recording sink")
            .take_events()
    };

    let full = run(RecordingSink::new());
    let capacity = 256;
    let bounded = run(RecordingSink::bounded(capacity));
    assert_eq!(bounded.len(), capacity);
    assert_eq!(
        bounded.as_slice(),
        &full[full.len() - capacity..],
        "the ring holds exactly the newest events, in order"
    );
}

/// Served, fault and action counts of a recorded stream.
fn class_counts(sim: &mut HybridSimulator) -> (u64, u64, u64) {
    let sink = sim.take_event_sink().expect("sink installed");
    let events = sink
        .as_any()
        .downcast_ref::<RecordingSink>()
        .expect("recording sink")
        .events();
    let count = |class: fn(&SimEvent) -> bool| events.iter().filter(|e| class(e)).count() as u64;
    (
        count(|e| matches!(e, SimEvent::Served { .. })),
        count(|e| matches!(e, SimEvent::Fault { .. })),
        count(|e| matches!(e, SimEvent::Action { .. })),
    )
}

#[test]
fn event_class_counts_are_consistent() {
    let spec = parsec::spec("ferret").unwrap().capped(20_000);
    let config = ExperimentConfig::default();
    let policy = config.build_policy(PolicyKind::ClockDwf, &spec).unwrap();
    let mut sim = HybridSimulator::with_date2016_devices(policy);
    sim.set_event_sink(Box::new(RecordingSink::new()));
    sim.run(TraceGenerator::new(spec, config.seed).map(PageAccess::from));

    let (served, faults, actions) = class_counts(&mut sim);
    let report = sim.into_report("ferret");
    assert_eq!(served, report.counts.hits());
    assert_eq!(faults, report.counts.faults);
    assert!(actions >= report.counts.migrations());
}

#[test]
fn sink_survives_accounting_reset() {
    // Warmup resets accounting but the sink keeps observing — the stream is
    // the raw history, the report is the steady state.
    let spec = parsec::spec("x264").unwrap().capped(8_000);
    let config = ExperimentConfig::default();
    let policy = config.build_policy(PolicyKind::TwoLru, &spec).unwrap();
    let mut sim = HybridSimulator::with_date2016_devices(policy);
    sim.set_event_sink(Box::new(RecordingSink::new()));

    let mut trace = TraceGenerator::new(spec.clone(), config.seed).map(PageAccess::from);
    for access in trace.by_ref().take(2_000) {
        sim.step(access);
    }
    sim.reset_accounting();
    sim.run(trace);

    let (served, faults, _) = class_counts(&mut sim);
    let report = sim.into_report("x264");
    assert_eq!(
        served + faults,
        spec.total_accesses(),
        "sink saw the whole run"
    );
    assert_eq!(
        report.counts.requests,
        spec.total_accesses() - 2_000,
        "report covers only the post-reset steady state"
    );
}
