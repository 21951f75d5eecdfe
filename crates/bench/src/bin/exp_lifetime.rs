//! Lifetime headline — "which will prolong its lifetime up to 4x"
//! (Section V-B): the proposed scheme's NVM lifetime relative to an
//! NVM-only memory and to CLOCK-DWF, per workload.
//!
//! Lifetime here follows the paper's simple model: with a fixed per-cell
//! endurance and no device wear leveling, the module dies when its hottest
//! page exhausts its budget, so relative lifetime is the inverse ratio of
//! hottest-page write *rates* (same trace, same duration).

use hybridmem_bench::{announce_json, report, SuiteOptions};
use hybridmem_core::{geo_mean, PolicyKind, SimulationReport};
use hybridmem_json::impl_json;
use hybridmem_types::Result;

#[derive(Debug)]
struct Row {
    workload: String,
    lifetime_vs_nvm_only: f64,
    lifetime_vs_clock_dwf: f64,
}

impl_json!(ToJson for Row { workload, lifetime_vs_nvm_only, lifetime_vs_clock_dwf });

/// Hottest-page write count per request — the quantity whose inverse is
/// proportional to lifetime on a shared trace.
fn wear_rate(report: &SimulationReport) -> f64 {
    report.wear.max_page_wear as f64 / report.counts.requests.max(1) as f64
}

fn main() -> Result<()> {
    let options = SuiteOptions::from_args()?;
    let matrix = options.run_matrix(&[
        PolicyKind::TwoLru,
        PolicyKind::ClockDwf,
        PolicyKind::NvmOnly,
    ])?;

    println!("=== NVM lifetime of the proposed scheme (higher is better) ===");
    println!(
        "{:<14} {:>16} {:>18}",
        "workload", "vs NVM-only", "vs CLOCK-DWF"
    );
    let mut rows = Vec::new();
    let mut vs_nvm = Vec::new();
    let mut vs_dwf = Vec::new();
    for (spec, reports) in &matrix {
        let proposed = wear_rate(report(reports, "two-lru"));
        let dwf = wear_rate(report(reports, "clock-dwf"));
        let nvm_only = wear_rate(report(reports, "nvm-only"));
        if proposed == 0.0 {
            println!("{:<14} {:>16} {:>18}", spec.name, "unbounded", "unbounded");
            continue;
        }
        let row = Row {
            workload: spec.name.clone(),
            lifetime_vs_nvm_only: nvm_only / proposed,
            lifetime_vs_clock_dwf: dwf / proposed,
        };
        println!(
            "{:<14} {:>15.2}x {:>17.2}x",
            row.workload, row.lifetime_vs_nvm_only, row.lifetime_vs_clock_dwf
        );
        vs_nvm.push(row.lifetime_vs_nvm_only);
        vs_dwf.push(row.lifetime_vs_clock_dwf);
        rows.push(row);
    }
    if !vs_nvm.is_empty() {
        println!(
            "{:<14} {:>15.2}x {:>17.2}x",
            "G-Mean",
            geo_mean(&vs_nvm),
            geo_mean(&vs_dwf)
        );
    }
    println!(
        "\npaper: \"the proposed scheme can reduce the number of writes in \
         NVM up to 75%\n(49% on average) compared to a NVM-only main memory \
         which will prolong its\nlifetime up to 4x\"; endurance improves up \
         to 93% (64% on average) vs CLOCK-DWF."
    );
    announce_json(options.write_json("lifetime", &rows)?.as_deref());
    Ok(())
}
