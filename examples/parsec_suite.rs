//! Run the full PARSEC-calibrated evaluation matrix — every Table III
//! workload under the proposed scheme, CLOCK-DWF, and both single-tier
//! baselines — and print the per-workload rates behind the paper's figures.
//!
//! ```text
//! cargo run --release --example parsec_suite [max_accesses_per_workload]
//! ```

use hybridmem::sim::{geo_mean, ExperimentConfig, MatrixRun, PolicyKind};
use hybridmem::trace::parsec;
use hybridmem::types::Error;

fn main() -> Result<(), Error> {
    let cap: u64 = std::env::args().nth(1).map_or(1_000_000, |s| {
        s.parse().expect("max_accesses must be an integer")
    });

    let specs: Vec<_> = parsec::all_specs()
        .into_iter()
        .map(|spec| spec.capped(cap))
        .collect();
    let kinds = [
        PolicyKind::DramOnly,
        PolicyKind::NvmOnly,
        PolicyKind::ClockDwf,
        PolicyKind::TwoLru,
    ];
    let rows = MatrixRun::new(ExperimentConfig::date2016())?
        .run(&specs, &kinds)?
        .reports()?;

    println!(
        "{:<14} {:>8} {:>7} {:>7} {:>7} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "workload",
        "miss%",
        "nvmR%",
        "nvmW%",
        "dwfMig%",
        "2lruMig%",
        "dwf P/D",
        "2lru P/D",
        "dwf W/N",
        "2lru W/N",
        "2lruA/dwf"
    );

    let mut power_dwf = Vec::new();
    let mut power_2lru = Vec::new();
    let mut writes_dwf = Vec::new();
    let mut writes_2lru = Vec::new();
    let mut amat_ratio = Vec::new();

    for (spec, row) in specs.iter().zip(&rows) {
        let [dram_only, nvm_only, clock_dwf, two_lru] = &row[..] else {
            unreachable!("four policies requested");
        };
        let requests = dram_only.counts.requests as f64;
        let p_dwf = clock_dwf.energy_normalized_to(dram_only);
        let p_2lru = two_lru.energy_normalized_to(dram_only);
        let w_dwf = clock_dwf.nvm_writes_normalized_to(nvm_only);
        let w_2lru = two_lru.nvm_writes_normalized_to(nvm_only);
        let a_ratio = two_lru.amat_normalized_to(clock_dwf);
        println!(
            "{:<14} {:>7.3}% {:>6.3}% {:>6.3}% {:>6.3}% {:>7.3}% {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            spec.name,
            dram_only.counts.faults as f64 / requests * 100.0,
            two_lru.counts.nvm_read_hits as f64 / requests * 100.0,
            two_lru.counts.nvm_write_hits as f64 / requests * 100.0,
            clock_dwf.counts.migrations() as f64 / requests * 100.0,
            two_lru.counts.migrations() as f64 / requests * 100.0,
            p_dwf,
            p_2lru,
            w_dwf,
            w_2lru,
            a_ratio,
        );
        power_dwf.push(p_dwf);
        power_2lru.push(p_2lru);
        writes_dwf.push(w_dwf);
        writes_2lru.push(w_2lru);
        amat_ratio.push(a_ratio);
    }

    println!(
        "{:<14} {:>8} {:>7} {:>7} {:>7} {:>8} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
        "G-Mean",
        "",
        "",
        "",
        "",
        "",
        geo_mean(&power_dwf),
        geo_mean(&power_2lru),
        geo_mean(&writes_dwf),
        geo_mean(&writes_2lru),
        geo_mean(&amat_ratio),
    );
    println!(
        "\npaper targets: 2lru power ≈ 0.57x DRAM (G-Mean), ≤ 0.86x of CLOCK-DWF;\n\
         2lru NVM writes ≈ 0.51x NVM-only; 2lru AMAT ≈ 0.52x CLOCK-DWF (G-Mean)."
    );
    Ok(())
}
