//! Ablation A2 — sweep the counter windows (`readperc` / `writeperc`).
//!
//! The windows bound how long a page can accumulate promotion credit
//! before falling out of the tracked fraction of the NVM LRU queue. The
//! paper keeps `writeperc > readperc`; the sweep holds that ratio at 3x.

use hybridmem_bench::{announce_json, SuiteOptions};
use hybridmem_core::{ExperimentConfig, PolicyKind};
use hybridmem_json::impl_json;
use hybridmem_trace::parsec;
use hybridmem_types::Result;

/// `readperc` values swept; `writeperc = 3 × readperc` (capped at 1.0).
const READ_WINDOWS: [f64; 5] = [0.01, 0.05, 0.10, 0.20, 0.33];

const WORKLOADS: [&str; 3] = ["bodytrack", "canneal", "vips"];

#[derive(Debug)]
struct Point {
    read_window: f64,
    write_window: f64,
    workload: String,
    migrations_per_kreq: f64,
    power_vs_dram: f64,
    amat_vs_dwf: f64,
}

impl_json!(ToJson for Point {
    read_window,
    write_window,
    workload,
    migrations_per_kreq,
    power_vs_dram,
    amat_vs_dwf,
});

fn main() -> Result<()> {
    let options = SuiteOptions::from_args_without_matrix()?;
    let mut points = Vec::new();

    println!("=== Ablation A2: counter-window sweep (writeperc = 3x readperc) ===");
    println!(
        "{:<14} {:<12} {:>10} {:>12} {:>12}",
        "(rp,wp)", "workload", "mig/kreq", "P vs DRAM", "AMAT vs dwf"
    );
    for read_window in READ_WINDOWS {
        let write_window = (read_window * 3.0).min(1.0);
        let config = ExperimentConfig {
            read_window,
            write_window,
            seed: options.seed(),
            ..ExperimentConfig::date2016()
        };
        for name in WORKLOADS {
            let spec = parsec::spec(name)?.capped(options.cap.max(1));
            let reports = config.compare(
                &spec,
                &[
                    PolicyKind::TwoLru,
                    PolicyKind::ClockDwf,
                    PolicyKind::DramOnly,
                ],
            )?;
            let [proposed, dwf, dram] = &reports[..] else {
                unreachable!("three policies requested")
            };
            let point = Point {
                read_window,
                write_window,
                workload: name.to_owned(),
                migrations_per_kreq: proposed.counts.migrations() as f64
                    / proposed.counts.requests as f64
                    * 1000.0,
                power_vs_dram: proposed.energy_normalized_to(dram),
                amat_vs_dwf: proposed.amat_normalized_to(dwf),
            };
            println!(
                "({:.2},{:.2})   {:<12} {:>10.3} {:>12.3} {:>12.3}",
                point.read_window,
                point.write_window,
                point.workload,
                point.migrations_per_kreq,
                point.power_vs_dram,
                point.amat_vs_dwf,
            );
            points.push(point);
        }
    }
    println!(
        "\nExpected shape: wider windows admit more promotions (counters \
         survive\nlonger), mirroring a threshold decrease; the default \
         (0.05/0.15) sits at\nthe flat part of the power curve."
    );
    announce_json(options.write_json("abl_window", &points)?.as_deref());
    Ok(())
}
