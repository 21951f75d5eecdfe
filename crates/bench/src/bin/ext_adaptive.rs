//! Extension E1 — adaptive threshold prediction, the paper's stated future
//! work ("using adaptive threshold prediction can further improve the
//! efficiency of the proposed scheme. This is part of our ongoing
//! research").
//!
//! Compares the static-threshold proposed scheme against
//! [`AdaptiveTwoLruPolicy`](hybridmem_policy::AdaptiveTwoLruPolicy), which
//! scores every promotion by the DRAM hits it earns and doubles/decays the
//! thresholds accordingly.

use hybridmem_bench::{announce_json, report, SuiteOptions};
use hybridmem_core::{geo_mean, PolicyKind};
use hybridmem_json::impl_json;
use hybridmem_types::Result;

#[derive(Debug)]
struct Row {
    workload: String,
    static_migrations: u64,
    adaptive_migrations: u64,
    static_power_vs_dram: f64,
    adaptive_power_vs_dram: f64,
    static_amat_ns: f64,
    adaptive_amat_ns: f64,
}

impl_json!(ToJson for Row {
    workload,
    static_migrations,
    adaptive_migrations,
    static_power_vs_dram,
    adaptive_power_vs_dram,
    static_amat_ns,
    adaptive_amat_ns,
});

fn main() -> Result<()> {
    let options = SuiteOptions::from_args()?;
    let matrix = options.run_matrix(&[
        PolicyKind::TwoLru,
        PolicyKind::AdaptiveTwoLru,
        PolicyKind::DramOnly,
    ])?;

    println!("=== Extension E1: adaptive vs static thresholds ===");
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "workload", "mig stat", "mig adpt", "P stat", "P adpt", "AMAT stat", "AMAT adpt"
    );
    let mut rows = Vec::new();
    let mut static_power = Vec::new();
    let mut adaptive_power = Vec::new();
    for (spec, reports) in &matrix {
        let fixed = report(reports, "two-lru");
        let adaptive = report(reports, "two-lru-adaptive");
        let dram = report(reports, "dram-only");
        let row = Row {
            workload: spec.name.clone(),
            static_migrations: fixed.counts.migrations(),
            adaptive_migrations: adaptive.counts.migrations(),
            static_power_vs_dram: fixed.energy_normalized_to(dram),
            adaptive_power_vs_dram: adaptive.energy_normalized_to(dram),
            static_amat_ns: fixed.amat().value(),
            adaptive_amat_ns: adaptive.amat().value(),
        };
        println!(
            "{:<14} {:>10} {:>10} {:>10.3} {:>10.3} {:>10.1} {:>10.1}",
            row.workload,
            row.static_migrations,
            row.adaptive_migrations,
            row.static_power_vs_dram,
            row.adaptive_power_vs_dram,
            row.static_amat_ns,
            row.adaptive_amat_ns,
        );
        static_power.push(row.static_power_vs_dram);
        adaptive_power.push(row.adaptive_power_vs_dram);
        rows.push(row);
    }
    println!(
        "{:<14} {:>10} {:>10} {:>10.3} {:>10.3}",
        "G-Mean",
        "",
        "",
        geo_mean(&static_power),
        geo_mean(&adaptive_power),
    );
    println!(
        "\nExpected shape: on workloads with non-beneficial migration churn \
         (canneal,\nraytrace, vips, streamcluster) the controller raises the \
         thresholds and cuts\nmigrations; on well-behaved workloads it stays \
         near the static defaults."
    );
    announce_json(options.write_json("ext_adaptive", &rows)?.as_deref());
    Ok(())
}
