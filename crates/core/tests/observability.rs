//! Integration tests of the windowed observability pipeline and the
//! page-lifecycle ledger: interval records must tile the steady state
//! exactly, sum back to the report's counters, and serialize to
//! byte-identical JSONL at any thread count; promotion records must carry
//! Algorithm 1 provenance matching the policy's configured thresholds.

use hybridmem_core::{
    write_jsonl, write_ledger_jsonl, CellContext, CellSink, DemotionCause, ExperimentConfig,
    HybridSimulator, Instrumentation, InstrumentedRun, IntervalRecord, LedgerOptions, MatrixRun,
    PageEvent, PolicyKind,
};
use hybridmem_policy::CounterKind;
use hybridmem_trace::{parsec, LocalityParams, WorkloadSpec};
use hybridmem_types::{MemoryKind, PageAccess, PageId};

/// Runs `kinds` over `specs` with `instrumentation` on `threads` workers.
fn matrix(
    specs: &[WorkloadSpec],
    kinds: &[PolicyKind],
    threads: usize,
    instrumentation: Instrumentation,
) -> Vec<Vec<InstrumentedRun>> {
    let run = MatrixRun {
        threads,
        instrumentation,
        fault_plan: None,
        ..MatrixRun::new(ExperimentConfig::date2016()).unwrap()
    };
    run.run(specs, kinds).unwrap().runs().unwrap()
}

/// One windowed two-LRU cell.
fn observed(spec: WorkloadSpec, window: u64) -> InstrumentedRun {
    let mut rows = matrix(
        &[spec],
        &[PolicyKind::TwoLru],
        1,
        Instrumentation::windowed(window),
    );
    rows.remove(0).remove(0)
}

#[test]
fn windows_tile_the_steady_state_and_sum_to_the_report() {
    let spec = parsec::spec("bodytrack").unwrap().capped(10_000);
    let window = 1_000u64;
    let observed = observed(spec.clone(), window);
    let report = &observed.report;
    let records = &observed.records;
    let requests = report.counts.requests;
    assert!(
        requests > window,
        "the capped run must span several windows"
    );

    // One record per full window plus one for the remainder.
    assert_eq!(records.len() as u64, requests.div_ceil(window));

    // Interval 0 starts exactly where the steady state does, the records
    // are contiguous, and the last one ends at the end of the trace.
    let warmup = spec.total_accesses() - requests;
    assert_eq!(records[0].start_access, warmup);
    for pair in records.windows(2) {
        assert_eq!(pair[0].end_access, pair[1].start_access);
    }
    let last = records.last().unwrap();
    assert_eq!(last.end_access, spec.total_accesses());
    for record in &records[..records.len() - 1] {
        assert_eq!(record.accesses, window);
    }
    let remainder = requests % window;
    let expected_tail = if remainder == 0 { window } else { remainder };
    assert_eq!(last.accesses, expected_tail);

    // Summing any per-window counter reproduces the end-of-run report.
    let sum = |field: fn(&IntervalRecord) -> u64| records.iter().map(field).sum::<u64>();
    assert_eq!(sum(|r| r.accesses), requests);
    assert_eq!(sum(|r| r.faults), report.counts.faults);
    assert_eq!(sum(|r| r.dram_read_hits), report.counts.dram_read_hits);
    assert_eq!(sum(|r| r.dram_write_hits), report.counts.dram_write_hits);
    assert_eq!(sum(|r| r.nvm_read_hits), report.counts.nvm_read_hits);
    assert_eq!(sum(|r| r.nvm_write_hits), report.counts.nvm_write_hits);
    assert_eq!(
        sum(|r| r.migrations_to_dram),
        report.counts.migrations_to_dram
    );
    assert_eq!(
        sum(|r| r.migrations_to_nvm),
        report.counts.migrations_to_nvm
    );
    assert_eq!(sum(|r| r.fills_to_dram), report.counts.fills_to_dram);
    assert_eq!(sum(|r| r.fills_to_nvm), report.counts.fills_to_nvm);
    assert_eq!(
        sum(|r| r.evictions_to_disk),
        report.counts.evictions_to_disk
    );

    // Every window balances: faults are resolved by fills in-window.
    for record in records {
        assert_eq!(
            record.faults,
            record.fills_to_dram + record.fills_to_nvm,
            "interval {}: fills must balance faults",
            record.interval
        );
    }

    // The cumulative metrics snapshot agrees with the records.
    let counter = |name: &str| observed.metrics.counters.get(name).copied().unwrap_or(0);
    assert_eq!(counter("sim.intervals"), records.len() as u64);
    assert_eq!(counter("sim.accesses"), requests);
    assert_eq!(counter("sim.faults"), report.counts.faults);
}

#[test]
fn window_zero_gives_one_whole_run_record_matching_the_report() {
    let observed = observed(parsec::spec("canneal").unwrap().capped(8_000), 0);
    let report = &observed.report;
    assert_eq!(observed.records.len(), 1);
    let record = &observed.records[0];
    assert_eq!(record.accesses, report.counts.requests);
    assert_eq!(record.faults, report.counts.faults);
    assert!((record.hit_ratio - report.counts.hit_ratio()).abs() < 1e-12);

    // With the whole steady state as one interval, the closed-form Eq. 1
    // evaluated on the measured probabilities must agree with the
    // simulator's accumulated latency per request.
    let amat = report.amat().value();
    assert!(
        (record.amat_ns - amat).abs() <= 1e-6 * amat,
        "interval AMAT {} vs report AMAT {amat}",
        record.amat_ns
    );
    // `appr_nj` is deliberately dynamic-only (Eq. 2), while the report's
    // APPR folds in the Eq. 3 static share — it must be strictly smaller.
    assert!(record.appr_nj < report.appr().value());
}

#[test]
fn interval_jsonl_is_byte_identical_across_thread_counts() {
    let specs = vec![
        parsec::spec("bodytrack").unwrap().capped(4_000),
        parsec::spec("ferret").unwrap().capped(4_000),
    ];
    let kinds = [PolicyKind::TwoLru, PolicyKind::ClockDwf];

    let serialize = |threads: usize| {
        let cells = matrix(&specs, &kinds, threads, Instrumentation::windowed(500));
        let mut bytes = Vec::new();
        for row in &cells {
            for cell in row {
                write_jsonl(&mut bytes, &cell.records).unwrap();
            }
        }
        bytes
    };

    let serial = serialize(1);
    let parallel = serialize(4);
    assert!(!serial.is_empty());
    assert_eq!(
        serial, parallel,
        "interval JSONL must not depend on thread count"
    );
}

/// Drives a synthetic hot page through Algorithm 1 and checks the
/// ledger's promotion provenance against what the policy must have seen:
/// fill into DRAM, demotion by later fault fills, then exactly
/// `read_threshold + 1` NVM read hits firing the promotion.
#[test]
fn ledger_provenance_matches_algorithm_1_on_a_synthetic_hot_page() {
    // 40-page working set => 30 memory pages (75%), 3 in DRAM (10%).
    let spec = WorkloadSpec::new("synthetic", 40, 17, 0, LocalityParams::balanced()).unwrap();
    let config = ExperimentConfig::default();
    let hot = PageId::new(0);

    // Fault-fill pages 0..10 (page 0 lands in DRAM first and is demoted
    // to NVM once DRAM overflows), then hammer page 0 with reads until
    // the read counter crosses the default threshold of 6.
    let mut accesses: Vec<PageAccess> = (0..10).map(|p| PageAccess::read(PageId::new(p))).collect();
    let hammer_reads = u64::from(config.read_threshold) + 1;
    accesses.extend((0..hammer_reads).map(|_| PageAccess::read(hot)));

    let policy = config.build_policy(PolicyKind::TwoLru, &spec).unwrap();
    let mut simulator = HybridSimulator::with_date2016_devices(policy);
    let context = CellContext::new("synthetic", PolicyKind::TwoLru, &simulator, 0);
    let ledger = Instrumentation::default().with_ledger(LedgerOptions::default());
    simulator.set_event_sink(Box::new(CellSink::new(ledger, context)));
    simulator.run_slice(&accesses);
    let mut sink = simulator.take_event_sink().expect("sink installed");
    let report = CellSink::of(sink.as_mut())
        .expect("cell sink")
        .finish(simulator)
        .ledger
        .expect("a ledger was requested");

    let record = report
        .pages
        .iter()
        .find(|record| record.page == hot.value())
        .expect("the hot page must survive top-K retention");
    assert_eq!(record.summary.accesses, 1 + hammer_reads);
    assert_eq!(record.summary.promotions_read, 1);
    assert_eq!(record.summary.promotions_unattributed, 0);
    assert_eq!(record.summary.demotions_fault, 1);
    assert_eq!(record.summary.final_tier, Some(MemoryKind::Dram));
    assert_eq!(
        record.summary.ping_pongs, 0,
        "the demotion preceded the promotion — no round trip yet"
    );

    // Fills go to DRAM (Algorithm 1 lines 27-28), at the page's first
    // access; the demotion is a fault-fill displacement.
    assert_eq!(
        record.events.first(),
        Some(&PageEvent::Fill {
            access: 0,
            into: MemoryKind::Dram
        })
    );
    assert!(record.events.iter().any(|event| matches!(
        event,
        PageEvent::Demote {
            cause: DemotionCause::FaultFill,
            ..
        }
    )));

    // The promotion fired on the last access of the plan — the
    // (threshold + 1)-th NVM read hit — with the counter state Algorithm 1
    // gates on: value just above the configured threshold, at NVM rank 0
    // (every earlier hammer hit moved the page back to the queue's MRU).
    let provenance = record
        .events
        .iter()
        .find_map(|event| match event {
            PageEvent::Promote { access, provenance } => Some((*access, *provenance)),
            _ => None,
        })
        .expect("the hot page was promoted");
    let (access, provenance) = provenance;
    assert_eq!(access, accesses.len() as u64 - 1);
    let provenance = provenance.expect("two-lru promotions carry provenance");
    assert_eq!(provenance.counter, CounterKind::Read);
    assert_eq!(provenance.threshold, config.read_threshold);
    assert_eq!(provenance.value, config.read_threshold + 1);
    assert_eq!(provenance.rank, 0);

    // The all-pages roll-up agrees with the single journey.
    assert_eq!(report.summary.promotions_read, 1);
    assert_eq!(report.summary.promotions_unattributed, 0);
    assert_eq!(report.accesses, accesses.len() as u64);
}

#[test]
fn ledger_jsonl_is_byte_identical_across_thread_counts() {
    let specs = vec![
        parsec::spec("bodytrack").unwrap().capped(4_000),
        parsec::spec("ferret").unwrap().capped(4_000),
    ];
    let kinds = [PolicyKind::TwoLru, PolicyKind::ClockDwf];
    // Wide enough that no promoted page is pruned: at this cap the top
    // pages by migrations are fault-fill demotions, not promotions.
    let instrumentation = Instrumentation::default().with_ledger(LedgerOptions {
        top_k: 1024,
        ..LedgerOptions::default()
    });

    let serialize = |threads: usize| {
        let cells = matrix(&specs, &kinds, threads, instrumentation);
        let mut bytes = Vec::new();
        for row in &cells {
            for cell in row {
                let ledger = cell.ledger.as_ref().expect("ledger requested");
                write_ledger_jsonl(&mut bytes, ledger).unwrap();
            }
        }
        bytes
    };

    let serial = serialize(1);
    let parallel = serialize(4);
    assert!(!serial.is_empty());
    assert_eq!(
        serial, parallel,
        "ledger JSONL must not depend on thread count"
    );

    // Every provenance-tagged promotion in the matrix is internally
    // consistent with Algorithm 1's gate: value strictly above threshold.
    let cells = matrix(&specs, &kinds, 2, instrumentation);
    let mut tagged = 0u64;
    for cell in cells.iter().flatten() {
        let ledger = cell.ledger.as_ref().expect("ledger requested");
        for record in &ledger.pages {
            for event in &record.events {
                if let PageEvent::Promote {
                    provenance: Some(provenance),
                    ..
                } = event
                {
                    tagged += 1;
                    assert!(
                        provenance.value > provenance.threshold,
                        "promotion fired below its threshold: {provenance:?}"
                    );
                }
            }
        }
    }
    assert!(tagged > 0, "the matrix must contain tagged promotions");
}
