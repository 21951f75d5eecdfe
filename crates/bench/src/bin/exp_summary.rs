//! Headline-claims summary — the numbers the paper's abstract and
//! conclusion quote, computed from the full evaluation matrix:
//!
//! * power vs DRAM-only: "up to 79% (43% on average)" reduction;
//! * power vs CLOCK-DWF: "up to 48% (14% on average)" reduction;
//! * AMAT vs CLOCK-DWF: "up to 70% (48% on average)" improvement;
//! * NVM writes (endurance) vs CLOCK-DWF: "up to 93% (64% on average)";
//! * NVM writes vs NVM-only: "up to 75% (49% on average)" reduction.

use hybridmem_bench::{announce_json, report, SuiteOptions};
use hybridmem_core::{geo_mean, PolicyKind};
use hybridmem_json::impl_json;
use hybridmem_types::Result;

#[derive(Debug)]
struct Claim {
    name: &'static str,
    paper_best_pct: f64,
    paper_mean_pct: f64,
    measured_best_pct: f64,
    measured_mean_pct: f64,
}

impl_json!(ToJson for Claim {
    name,
    paper_best_pct,
    paper_mean_pct,
    measured_best_pct,
    measured_mean_pct,
});

fn reduction_stats(ratios: &[f64]) -> (f64, f64) {
    let best = ratios.iter().copied().fold(f64::INFINITY, f64::min);
    ((1.0 - best) * 100.0, (1.0 - geo_mean(ratios)) * 100.0)
}

fn main() -> Result<()> {
    let options = SuiteOptions::from_args()?;
    let matrix = options.run_matrix(&[
        PolicyKind::TwoLru,
        PolicyKind::ClockDwf,
        PolicyKind::DramOnly,
        PolicyKind::NvmOnly,
    ])?;

    let mut power_vs_dram = Vec::new();
    let mut power_vs_dwf = Vec::new();
    let mut amat_vs_dwf = Vec::new();
    let mut writes_vs_dwf = Vec::new();
    let mut writes_vs_nvm = Vec::new();
    for (_, row) in &matrix {
        let proposed = report(row, "two-lru");
        let dwf = report(row, "clock-dwf");
        let dram = report(row, "dram-only");
        let nvm = report(row, "nvm-only");
        power_vs_dram.push(proposed.energy_normalized_to(dram));
        power_vs_dwf.push(proposed.energy_normalized_to(dwf));
        amat_vs_dwf.push(proposed.amat_normalized_to(dwf));
        writes_vs_dwf.push(proposed.nvm_writes_normalized_to(dwf));
        writes_vs_nvm.push(proposed.nvm_writes_normalized_to(nvm));
    }

    let claims: Vec<Claim> = [
        ("power vs DRAM-only", 79.0, 43.0, &power_vs_dram),
        ("power vs CLOCK-DWF", 48.0, 14.0, &power_vs_dwf),
        ("AMAT vs CLOCK-DWF", 70.0, 48.0, &amat_vs_dwf),
        ("NVM writes vs CLOCK-DWF", 93.0, 64.0, &writes_vs_dwf),
        ("NVM writes vs NVM-only", 75.0, 49.0, &writes_vs_nvm),
    ]
    .into_iter()
    .map(|(name, paper_best, paper_mean, ratios)| {
        let (best, mean) = reduction_stats(ratios);
        Claim {
            name,
            paper_best_pct: paper_best,
            paper_mean_pct: paper_mean,
            measured_best_pct: best,
            measured_mean_pct: mean,
        }
    })
    .collect();

    println!("=== Headline claims: proposed scheme reductions ===");
    println!(
        "{:<26} {:>12} {:>12} {:>14} {:>14}",
        "claim", "paper best", "paper mean", "measured best", "measured mean"
    );
    for claim in &claims {
        println!(
            "{:<26} {:>11.0}% {:>11.0}% {:>13.1}% {:>13.1}%",
            claim.name,
            claim.paper_best_pct,
            claim.paper_mean_pct,
            claim.measured_best_pct,
            claim.measured_mean_pct,
        );
    }
    println!(
        "\nNegative values mean the proposed scheme was worse on that axis \
         for every\nworkload's best case (averages are geometric means, as \
         in the paper)."
    );
    announce_json(options.write_json("summary", &claims)?.as_deref());
    Ok(())
}
