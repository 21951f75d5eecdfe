//! Cross-validation of the report's pricing against the paper's
//! closed-form models: feeding a run's *measured* probabilities back
//! through Eq. 1 and Eq. 2 must reproduce the report's AMAT and dynamic
//! APPR.
//!
//! Both sides price the same counts with the same Table IV/II constants:
//! the report as run totals (`model::price`), the closed forms as
//! probability-weighted means per request. They group the floating-point
//! terms differently, so they agree to 1e-12 relative rather than
//! exactly. The audit's `amat-window` law prices the event stream on its
//! own and stays the independent check.

use hybridmem::sim::{ExperimentConfig, ModelParams, PolicyKind, Probabilities, SimulationReport};
use hybridmem::trace::parsec;
use hybridmem::types::for_each_case;

/// Extracts Table I probabilities from a measured report.
fn probabilities_of(report: &SimulationReport) -> Probabilities {
    let n = report.counts.requests as f64;
    let dram_hits = (report.counts.dram_read_hits + report.counts.dram_write_hits) as f64;
    let nvm_hits = (report.counts.nvm_read_hits + report.counts.nvm_write_hits) as f64;
    let faults = report.counts.faults as f64;
    Probabilities {
        hit_dram: dram_hits / n,
        hit_nvm: nvm_hits / n,
        miss: faults / n,
        read_given_dram: if dram_hits > 0.0 {
            report.counts.dram_read_hits as f64 / dram_hits
        } else {
            1.0
        },
        read_given_nvm: if nvm_hits > 0.0 {
            report.counts.nvm_read_hits as f64 / nvm_hits
        } else {
            1.0
        },
        migrate_to_dram: report.counts.migrations_to_dram as f64 / n,
        migrate_to_nvm: report.counts.migrations_to_nvm as f64 / n,
        disk_to_dram: if faults > 0.0 {
            report.counts.fills_to_dram as f64 / faults
        } else {
            1.0
        },
        disk_to_nvm: if faults > 0.0 {
            report.counts.fills_to_nvm as f64 / faults
        } else {
            0.0
        },
    }
}

/// Largest relative difference allowed between a closed form and the
/// report: a few roundings of the operands' magnitudes.
const TOLERANCE: f64 = 1e-12;

fn check_against_closed_form(report: &SimulationReport) {
    let probabilities = probabilities_of(report);
    // The simplex may be off by float rounding only.
    probabilities
        .validate()
        .expect("measured probabilities are valid");
    let model = ModelParams::date2016(probabilities);

    // Eq. 1: measured AMAT must equal the closed form on measured inputs.
    let predicted_amat = model.amat().value();
    let measured_amat = report.amat().value();
    assert!(
        (predicted_amat - measured_amat).abs() / measured_amat < TOLERANCE,
        "{}: Eq. 1 gives {predicted_amat}, simulator measured {measured_amat}",
        report.policy
    );

    // Eq. 2: the closed form covers the *dynamic* components (demand,
    // fills, migrations); static (Eq. 3) is added separately.
    let predicted_appr = model.appr().value();
    let n = report.counts.requests as f64;
    let measured_dynamic =
        (report.energy.dynamic + report.energy.page_faults + report.energy.migrations).value() / n;
    assert!(
        (predicted_appr - measured_dynamic).abs() / measured_dynamic.max(1e-12) < TOLERANCE,
        "{}: Eq. 2 gives {predicted_appr}, simulator measured {measured_dynamic}",
        report.policy
    );
}

#[test]
fn simulator_matches_eq1_and_eq2_on_parsec_workloads() {
    let config = ExperimentConfig::default();
    for name in ["bodytrack", "canneal", "vips", "streamcluster"] {
        let spec = parsec::spec(name).unwrap().capped(60_000);
        for kind in PolicyKind::all() {
            let report = config.run(&spec, kind).unwrap();
            check_against_closed_form(&report);
        }
    }
}

/// The Eq. 1/Eq. 2 agreement holds across random seeds, thresholds, and
/// memory splits. Any drift beyond float grouping means the counts and
/// the closed forms disagree on what an event costs.
#[test]
fn simulator_matches_closed_form_under_random_configs() {
    for_each_case(16, |rng| {
        let seed = rng.gen_range(0..1_000);
        let dram_fraction = 0.05 + 0.45 * rng.next_f64();
        let read_threshold = u32::try_from(rng.gen_range(1..8)).unwrap();
        let name = parsec::NAMES[usize::try_from(rng.gen_range(0..12)).unwrap()];
        let spec = parsec::spec(name).unwrap().capped(20_000);
        let config = ExperimentConfig {
            seed,
            dram_fraction,
            read_threshold,
            write_threshold: read_threshold * 2,
            ..ExperimentConfig::date2016()
        };
        for kind in [PolicyKind::TwoLru, PolicyKind::ClockDwf] {
            let report = config.run(&spec, kind).unwrap();
            check_against_closed_form(&report);
        }
    });
}
