//! Baseline ladder — every policy in the repository on every workload.
//!
//! Reproduces the paper's framing that CLOCK-DWF "outperforms previous work
//! such as CLOCK-PRO" while the proposed scheme outperforms CLOCK-DWF, and
//! shows where the adaptive extension lands.

use hybridmem_bench::{announce_json, report, SuiteOptions};
use hybridmem_core::{geo_mean, PolicyKind};
use hybridmem_json::impl_json;
use hybridmem_types::Result;

const POLICIES: [&str; 5] = [
    "dram-cache",
    "clock-pro",
    "clock-dwf",
    "two-lru",
    "two-lru-adaptive",
];

#[derive(Debug)]
struct Row {
    workload: String,
    /// `policy -> (power vs DRAM-only, AMAT ns, NVM writes vs NVM-only)`.
    cells: Vec<(String, f64, f64, f64)>,
}

impl_json!(ToJson for Row { workload, cells });

fn main() -> Result<()> {
    let options = SuiteOptions::from_args()?;
    let matrix = options.run_matrix(&[
        PolicyKind::DramCache,
        PolicyKind::ClockPro,
        PolicyKind::ClockDwf,
        PolicyKind::TwoLru,
        PolicyKind::AdaptiveTwoLru,
        PolicyKind::DramOnly,
        PolicyKind::NvmOnly,
    ])?;

    println!("=== Baseline ladder: power vs DRAM-only (lower is better) ===");
    print!("{:<16}", "workload");
    for policy in POLICIES {
        print!(" {policy:>17}");
    }
    println!();

    let mut rows = Vec::new();
    let mut per_policy: Vec<Vec<f64>> = vec![Vec::new(); POLICIES.len()];
    for (spec, reports) in &matrix {
        let dram = report(reports, "dram-only");
        let nvm = report(reports, "nvm-only");
        let mut cells = Vec::new();
        print!("{:<16}", spec.name);
        for (i, policy) in POLICIES.iter().enumerate() {
            let r = report(reports, policy);
            let power = r.energy_normalized_to(dram);
            let writes = if nvm.nvm_writes.total() > 0 {
                r.nvm_writes_normalized_to(nvm)
            } else {
                0.0
            };
            print!(" {power:>17.3}");
            per_policy[i].push(power);
            cells.push((policy.to_string(), power, r.amat().value(), writes));
        }
        println!();
        rows.push(Row {
            workload: spec.name.clone(),
            cells,
        });
    }
    print!("{:<16}", "G-Mean");
    for ratios in &per_policy {
        print!(" {:>17.3}", geo_mean(ratios));
    }
    println!();
    println!(
        "\nExpected ladder (G-Mean): dram-cache and clock-pro ≥ clock-dwf ≥ \
         two-lru, with\nthe adaptive extension at or below two-lru — each \
         generation prunes more\nnon-beneficial page copies. Per-policy \
         AMAT and NVM writes are in the JSON."
    );
    announce_json(options.write_json("baselines", &rows)?.as_deref());
    Ok(())
}
