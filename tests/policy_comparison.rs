//! Cross-policy integration tests: the qualitative orderings the paper's
//! evaluation rests on, checked on reduced-volume PARSEC traces.

use hybridmem::sim::{geo_mean, ExperimentConfig, HybridSimulator, PolicyKind, SimulationReport};
use hybridmem::trace::{parsec, TraceGenerator, WorkloadSpec};
use hybridmem::types::PageAccess;

/// Reduced volume under debug builds so `cargo test` stays fast;
/// release runs use the full volume.
const CAP: u64 = if cfg!(debug_assertions) {
    40_000
} else {
    150_000
};

fn run_all(name: &str) -> [SimulationReport; 4] {
    let spec = parsec::spec(name).unwrap().capped(CAP);
    let config = ExperimentConfig::default();
    let reports = config
        .compare(
            &spec,
            &[
                PolicyKind::TwoLru,
                PolicyKind::ClockDwf,
                PolicyKind::DramOnly,
                PolicyKind::NvmOnly,
            ],
        )
        .unwrap();
    reports.try_into().expect("four policies requested")
}

/// The runner's cell, rebuilt from public per-access calls: one policy
/// call per access over the generated trace, with the runner's warmup
/// and nominal-size pricing.
fn serial_replay(
    config: &ExperimentConfig,
    spec: &WorkloadSpec,
    kind: PolicyKind,
) -> SimulationReport {
    let trace: Vec<PageAccess> = TraceGenerator::new(spec.clone(), config.seed)
        .map(PageAccess::from)
        .collect();
    let policy = config.build_policy(kind, spec).unwrap();
    let mut simulator = HybridSimulator::with_date2016_devices(policy);
    simulator.set_static_scale(1.0 / spec.scale_factor());
    simulator.set_density_hint(spec.nominal_density());
    let warmup = (spec.total_accesses() as f64 * config.warmup_fraction) as usize;
    simulator.run_slice(&trace[..warmup]);
    simulator.reset_accounting();
    simulator.run_slice(&trace[warmup..]);
    simulator.into_report(spec.name.clone())
}

#[test]
#[cfg_attr(debug_assertions, ignore = "volume-sensitive; run with --release")]
fn batched_replay_equals_serial_replay_for_every_policy() {
    // The runner's batched driver is a pure dispatch optimization: every
    // policy's full report must match a serial per-access replay exactly,
    // across the whole paper matrix.
    let config = ExperimentConfig::default();
    for name in parsec::NAMES {
        let spec = parsec::spec(name).unwrap().capped(CAP);
        for kind in PolicyKind::all() {
            assert_eq!(
                config.run(&spec, kind).unwrap(),
                serial_replay(&config, &spec, kind),
                "{name}/{}: batched replay diverged from serial",
                kind.name()
            );
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "volume-sensitive; run with --release")]
fn clock_dwf_never_serves_demand_writes_from_nvm() {
    for name in parsec::NAMES {
        let [_, dwf, _, _] = run_all(name);
        assert_eq!(
            dwf.counts.nvm_write_hits, 0,
            "{name}: CLOCK-DWF must migrate on NVM write hits"
        );
        assert_eq!(dwf.nvm_writes.requests, 0, "{name}");
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "volume-sensitive; run with --release")]
fn single_tier_baselines_have_no_migrations() {
    for name in ["bodytrack", "streamcluster"] {
        let [_, _, dram, nvm] = run_all(name);
        assert_eq!(dram.counts.migrations(), 0, "{name}");
        assert_eq!(nvm.counts.migrations(), 0, "{name}");
        assert_eq!(
            dram.nvm_writes.total(),
            0,
            "{name}: DRAM-only never writes NVM"
        );
        assert!(
            nvm.nvm_writes.total() > 0,
            "{name}: NVM-only writes go to NVM"
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "volume-sensitive; run with --release")]
fn hybrid_policies_match_single_tier_hit_ratio_closely() {
    // "the proposed scheme will have almost the same hit ratio as an
    // unmodified LRU" — and the memory capacities are identical, so all
    // four policies should agree on hit ratio to within a small margin.
    for name in ["bodytrack", "canneal", "ferret", "x264"] {
        let [proposed, dwf, dram, _] = run_all(name);
        let baseline = dram.counts.hit_ratio();
        for report in [&proposed, &dwf] {
            let delta = (report.counts.hit_ratio() - baseline).abs();
            assert!(
                delta < 0.02,
                "{name}/{}: hit ratio {:.4} vs LRU {:.4}",
                report.policy,
                report.counts.hit_ratio(),
                baseline
            );
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "volume-sensitive; run with --release")]
fn proposed_scheme_beats_clock_dwf_on_power_in_aggregate() {
    // Fig. 4a: up to 48% (14% G-Mean) less power than CLOCK-DWF.
    let mut ratios = Vec::new();
    for name in parsec::NAMES {
        let [proposed, dwf, _, _] = run_all(name);
        ratios.push(proposed.energy.total().value() / dwf.energy.total().value());
    }
    let gmean = geo_mean(&ratios);
    assert!(
        gmean < 0.95,
        "proposed/CLOCK-DWF power G-Mean should be well below 1, got {gmean:.3}"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "volume-sensitive; run with --release")]
fn proposed_scheme_reduces_nvm_writes_versus_clock_dwf() {
    // Fig. 4b: up to 93% (64% G-Mean) fewer NVM writes than CLOCK-DWF.
    let mut ratios = Vec::new();
    for name in parsec::NAMES {
        let [proposed, dwf, _, _] = run_all(name);
        ratios
            .push(proposed.nvm_writes.total().max(1) as f64 / dwf.nvm_writes.total().max(1) as f64);
    }
    let gmean = geo_mean(&ratios);
    assert!(
        gmean < 0.75,
        "proposed/CLOCK-DWF NVM-write G-Mean should be well below 1, got {gmean:.3}"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "volume-sensitive; run with --release")]
fn proposed_scheme_improves_amat_versus_clock_dwf_in_aggregate() {
    // Fig. 4c: up to 70% (48% G-Mean) AMAT improvement.
    let mut ratios = Vec::new();
    for name in parsec::NAMES {
        let [proposed, dwf, _, _] = run_all(name);
        ratios.push(proposed.amat().value() / dwf.amat().value());
    }
    let gmean = geo_mean(&ratios);
    assert!(
        gmean < 1.0,
        "proposed/CLOCK-DWF AMAT G-Mean should be below 1, got {gmean:.3}"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "volume-sensitive; run with --release")]
fn hybrid_memory_saves_power_versus_dram_only_on_well_behaved_workloads() {
    // Fig. 4a right bars: most workloads below 1.0; the paper calls out
    // canneal/fluidanimate/streamcluster as unsuitable (excluded here), and
    // vips/raytrace sit near the break-even line, so only the clearly
    // well-behaved workloads are asserted.
    for name in ["bodytrack", "facesim", "freqmine", "x264", "dedup"] {
        let [proposed, _, dram, _] = run_all(name);
        let ratio = proposed.energy.total().value() / dram.energy.total().value();
        assert!(
            ratio < 1.05,
            "{name}: proposed/DRAM-only power should be < 1, got {ratio:.3}"
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "volume-sensitive; run with --release")]
fn streamcluster_remains_hybrid_hostile() {
    // The paper: streamcluster's burst of accesses over a small footprint
    // makes it "not suitable for using hybrid memories".
    let [proposed, _, dram, _] = run_all("streamcluster");
    let ratio = proposed.energy.total().value() / dram.energy.total().value();
    assert!(
        ratio > 1.0,
        "streamcluster should not benefit, got {ratio:.3}"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "volume-sensitive; run with --release")]
fn static_power_is_identical_across_hybrid_policies() {
    // "The static power consumption is the same for both methods since they
    // are evaluated using the same DRAM and NVM size."
    for name in ["bodytrack", "raytrace"] {
        let [proposed, dwf, _, _] = run_all(name);
        let a = proposed.energy.static_energy.value();
        let b = dwf.energy.static_energy.value();
        assert!(((a - b) / b).abs() < 1e-9, "{name}: {a} vs {b}");
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "volume-sensitive; run with --release")]
fn nvm_wear_tracks_write_totals() {
    for name in ["vips", "fluidanimate"] {
        let [proposed, dwf, _, _] = run_all(name);
        for report in [&proposed, &dwf] {
            if report.nvm_writes.total() > 0 {
                assert!(report.wear.max_page_wear > 0, "{name}/{}", report.policy);
                assert!(report.wear.imbalance >= 1.0, "{name}/{}", report.policy);
            }
        }
    }
}
