//! End-to-end integration tests: trace generation → policy → simulator →
//! report.

use hybridmem::policy::{AdaptiveConfig, HybridPolicy, TwoLruConfig, TwoLruPolicy};
use hybridmem::sim::{ExperimentConfig, MatrixRun, PolicyKind};
use hybridmem::trace::{parsec, LocalityParams, TraceGenerator, TraceStats, WorkloadSpec};
use hybridmem::types::{Error, MemoryKind, PageAccess, PageCount};

#[test]
fn experiment_runner_is_deterministic_across_calls() {
    let spec = parsec::spec("bodytrack").unwrap().capped(20_000);
    let config = ExperimentConfig::default();
    for kind in [
        PolicyKind::TwoLru,
        PolicyKind::ClockDwf,
        PolicyKind::AdaptiveTwoLru,
    ] {
        let a = config.run(&spec, kind).unwrap();
        let b = config.run(&spec, kind).unwrap();
        assert_eq!(a, b, "{kind}: same seed must give identical reports");
    }
}

#[test]
fn warmup_excludes_initialization_faults() {
    // With warmup, the initialization sweep's compulsory faults are not
    // measured; without it they dominate.
    let spec = parsec::spec("bodytrack").unwrap().capped(50_000);
    let with_warmup = ExperimentConfig::default()
        .run(&spec, PolicyKind::DramOnly)
        .unwrap();
    let cold = ExperimentConfig {
        warmup_fraction: 0.0,
        ..ExperimentConfig::default()
    }
    .run(&spec, PolicyKind::DramOnly)
    .unwrap();
    assert!(
        cold.counts.faults > 10 * with_warmup.counts.faults.max(1),
        "cold-start faults ({}) should dwarf steady-state faults ({})",
        cold.counts.faults,
        with_warmup.counts.faults
    );
}

#[test]
fn trace_stats_match_spec_budgets_exactly() {
    for name in parsec::NAMES {
        let spec = parsec::spec(name).unwrap().capped(15_000);
        let stats: TraceStats = TraceGenerator::new(spec.clone(), 5).collect();
        assert_eq!(stats.reads, spec.reads, "{name}: read budget is exact");
        assert_eq!(stats.writes, spec.writes, "{name}: write budget is exact");
        assert!(
            stats.footprint().value() <= spec.working_set.value(),
            "{name}: footprint bounded by the working set"
        );
    }
}

#[test]
fn two_lru_occupancy_stays_within_capacity_on_a_generated_trace() {
    let spec = WorkloadSpec::new("mixed", 600, 40_000, 12_000, LocalityParams::balanced()).unwrap();
    let dram = PageCount::new(45);
    let nvm = PageCount::new(405);

    let mut policy = TwoLruPolicy::new(TwoLruConfig::new(dram, nvm).unwrap());
    for access in TraceGenerator::new(spec, 3) {
        policy.on_access(PageAccess::from(access));
        assert!(policy.occupancy(MemoryKind::Dram) <= dram.value());
        assert!(policy.occupancy(MemoryKind::Nvm) <= nvm.value());
    }
}

/// Asserts that `config` fails with an `InvalidConfig` naming `field`
/// when building every policy kind, and before any cell of a matrix runs.
fn assert_rejected(config: ExperimentConfig, spec: &WorkloadSpec, field: &str) {
    let rejected =
        |err: Error| matches!(&err, Error::InvalidConfig { reason } if reason.contains(field));
    for kind in PolicyKind::all() {
        let err = config.build_policy(kind, spec).err();
        assert!(err.is_some_and(rejected), "{field}: build_policy({kind})");
    }
    let matrix = MatrixRun::new(config)
        .unwrap()
        .run(std::slice::from_ref(spec), &PolicyKind::all());
    assert!(matrix.err().is_some_and(rejected), "{field}: MatrixRun");
}

#[test]
fn out_of_range_fractions_are_rejected_before_any_cell_runs() {
    let spec = parsec::spec("bodytrack").unwrap().capped(5_000);
    let base = ExperimentConfig::default();
    let memory = |memory_fraction| ExperimentConfig {
        memory_fraction,
        ..base
    };
    let dram = |dram_fraction| ExperimentConfig {
        dram_fraction,
        ..base
    };
    for (config, field) in [
        (memory(-0.5), "memory_fraction"),
        (memory(0.0), "memory_fraction"),
        (memory(f64::NAN), "memory_fraction"),
        (memory(f64::INFINITY), "memory_fraction"),
        (memory(1e300), "memory_fraction"),
        (dram(-0.1), "dram_fraction"),
        (dram(1.5), "dram_fraction"),
        (dram(f64::NAN), "dram_fraction"),
    ] {
        assert_rejected(config, &spec, field);
    }

    // An all-DRAM split keeps one NVM page, and every policy builds on it.
    let all_dram = dram(1.0);
    let (dram, nvm, total) = all_dram.memory_sizes(&spec);
    assert_eq!((dram, nvm), (total, PageCount::new(1)));
    for kind in PolicyKind::all() {
        assert!(all_dram.build_policy(kind, &spec).is_ok(), "{kind}");
    }
}

#[test]
fn invalid_adaptive_knobs_are_rejected_before_any_cell_runs() {
    // Unchecked, a zero `max_threshold` panics at the first raise and a
    // zero `adjust_interval` divides 0 by 0 at every access.
    let spec = parsec::spec("bodytrack").unwrap().capped(5_000);
    let base = ExperimentConfig::default();
    let adaptive = |edit: fn(&mut AdaptiveConfig)| {
        let mut config = base;
        edit(&mut config.adaptive);
        config
    };
    for (config, field) in [
        (adaptive(|a| a.max_threshold = 0), "max_threshold"),
        (adaptive(|a| a.adjust_interval = 0), "adjust_interval"),
        (adaptive(|a| a.raise_above = f64::NAN), "raise_above"),
        (adaptive(|a| a.raise_above = 1.5), "raise_above"),
        (adaptive(|a| a.lower_below = -0.1), "lower_below"),
        (adaptive(|a| a.lower_below = f64::INFINITY), "lower_below"),
    ] {
        assert_rejected(config, &spec, field);
    }

    // The bounds themselves are valid.
    let edges = adaptive(|a| {
        a.max_threshold = 1;
        a.adjust_interval = 1;
        a.raise_above = 0.0;
        a.lower_below = 1.0;
    });
    assert!(edges.run(&spec, PolicyKind::AdaptiveTwoLru).is_ok());
}

#[test]
fn scaled_workloads_report_nominal_static_power() {
    // The same workload capped at two different volumes must report
    // comparable per-request static energy (the nominal-size un-scaling).
    let small = parsec::spec("canneal").unwrap().capped(40_000);
    let large = parsec::spec("canneal").unwrap().capped(160_000);
    let config = ExperimentConfig::default();
    let report_small = config.run(&small, PolicyKind::DramOnly).unwrap();
    let report_large = config.run(&large, PolicyKind::DramOnly).unwrap();
    let static_per_req = |r: &hybridmem::sim::SimulationReport| {
        r.energy.static_energy.value() / r.counts.requests as f64
    };
    let a = static_per_req(&report_small);
    let b = static_per_req(&report_large);
    assert!(
        (a / b - 1.0).abs() < 0.35,
        "static/request should be scale-stable: {a:.2} vs {b:.2}"
    );
}
