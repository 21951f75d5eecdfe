//! Ablation A1 — sweep the promotion thresholds of the proposed scheme.
//!
//! The paper: "The values of read_threshold and write_threshold determine
//! how aggressive we plan to prevent the migrations with low probability of
//! being useful" and notes that raytrace's optimal values differ from the
//! other workloads. This sweep quantifies that trade-off: low thresholds
//! promote eagerly (more migrations, better NVM hit latency), high
//! thresholds suppress migrations at the cost of serving more requests
//! from NVM.

use hybridmem_bench::{announce_json, SuiteOptions};
use hybridmem_core::{geo_mean, ExperimentConfig, PolicyKind};
use hybridmem_json::impl_json;
use hybridmem_trace::parsec;
use hybridmem_types::Result;

/// `(read_threshold, write_threshold)` pairs swept, preserving the paper's
/// `write_threshold > read_threshold` rule.
const SWEEP: [(u32, u32); 6] = [(1, 2), (2, 4), (4, 8), (6, 12), (12, 24), (24, 48)];

/// Workloads shown: two typical, the one the paper singles out (raytrace),
/// and a hybrid-hostile one.
const WORKLOADS: [&str; 4] = ["bodytrack", "freqmine", "raytrace", "fluidanimate"];

#[derive(Debug)]
struct Point {
    read_threshold: u32,
    write_threshold: u32,
    workload: String,
    migrations_per_kreq: f64,
    power_vs_dram: f64,
    amat_vs_dwf: f64,
    nvm_writes_vs_nvm_only: f64,
}

impl_json!(ToJson for Point {
    read_threshold,
    write_threshold,
    workload,
    migrations_per_kreq,
    power_vs_dram,
    amat_vs_dwf,
    nvm_writes_vs_nvm_only,
});

fn main() -> Result<()> {
    let options = SuiteOptions::from_args_without_matrix()?;
    let mut points = Vec::new();

    println!("=== Ablation A1: promotion-threshold sweep ===");
    println!(
        "{:<10} {:<14} {:>10} {:>12} {:>12} {:>12}",
        "(rt,wt)", "workload", "mig/kreq", "P vs DRAM", "AMAT vs dwf", "W vs NVM"
    );
    for (read_threshold, write_threshold) in SWEEP {
        let config = ExperimentConfig {
            read_threshold,
            write_threshold,
            seed: options.seed(),
            ..ExperimentConfig::date2016()
        };
        let mut ratios = Vec::new();
        for name in WORKLOADS {
            let spec = parsec::spec(name)?.capped(options.cap.max(1));
            let reports = config.compare(
                &spec,
                &[
                    PolicyKind::TwoLru,
                    PolicyKind::ClockDwf,
                    PolicyKind::DramOnly,
                    PolicyKind::NvmOnly,
                ],
            )?;
            let [proposed, dwf, dram, nvm] = &reports[..] else {
                unreachable!("four policies requested")
            };
            let point = Point {
                read_threshold,
                write_threshold,
                workload: name.to_owned(),
                migrations_per_kreq: proposed.counts.migrations() as f64
                    / proposed.counts.requests as f64
                    * 1000.0,
                power_vs_dram: proposed.energy_normalized_to(dram),
                amat_vs_dwf: proposed.amat_normalized_to(dwf),
                nvm_writes_vs_nvm_only: proposed.nvm_writes_normalized_to(nvm),
            };
            println!(
                "({:>2},{:>2})   {:<14} {:>10.3} {:>12.3} {:>12.3} {:>12.3}",
                read_threshold,
                write_threshold,
                point.workload,
                point.migrations_per_kreq,
                point.power_vs_dram,
                point.amat_vs_dwf,
                point.nvm_writes_vs_nvm_only,
            );
            ratios.push(point.power_vs_dram);
            points.push(point);
        }
        println!(
            "({read_threshold:>2},{write_threshold:>2})   {:<14} {:>10} {:>12.3}",
            "G-Mean",
            "",
            geo_mean(&ratios)
        );
    }
    println!(
        "\nExpected shape: migrations fall monotonically with the \
         thresholds; power\nbottoms out at moderate values (too-eager \
         promotion pays migration cost,\ntoo-shy promotion leaves hot pages \
         in slow NVM)."
    );
    announce_json(options.write_json("abl_thresholds", &points)?.as_deref());
    Ok(())
}
