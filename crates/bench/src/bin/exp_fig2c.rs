//! Fig. 2c — physical writes reaching NVM under CLOCK-DWF (Page Fault vs
//! Migration), normalized to an NVM-only memory's total writes.
//!
//! CLOCK-DWF never serves a demand write from NVM, so its "requests"
//! component is structurally zero — the paper's legend therefore only shows
//! Page Fault and Migration.

use hybridmem_bench::{announce_json, print_stacked_figure, report, StackedBar, SuiteOptions};
use hybridmem_core::PolicyKind;
use hybridmem_types::Result;

fn main() -> Result<()> {
    let options = SuiteOptions::from_args()?;
    let matrix = options.run_matrix(&[PolicyKind::ClockDwf, PolicyKind::NvmOnly])?;

    let bars: Vec<StackedBar> = matrix
        .iter()
        .map(|(spec, row)| {
            let dwf = report(row, "clock-dwf");
            let baseline = report(row, "nvm-only").nvm_writes.total().max(1) as f64;
            StackedBar {
                workload: spec.name.clone(),
                components: vec![
                    (
                        "page_fault".into(),
                        dwf.nvm_writes.page_faults as f64 / baseline,
                    ),
                    (
                        "migration".into(),
                        dwf.nvm_writes.migrations as f64 / baseline,
                    ),
                    ("requests".into(), dwf.nvm_writes.requests as f64 / baseline),
                ],
            }
        })
        .collect();

    print_stacked_figure(
        "Fig. 2c: CLOCK-DWF NVM writes normalized to NVM-only",
        &bars,
    );
    println!(
        "\npaper: migration writes contribute >50% of NVM writes in most \
         workloads,\npushing several past the NVM-only baseline (up to \
         3.74x) — CLOCK-DWF\n*increases* wear despite serving no demand \
         writes from NVM."
    );
    announce_json(options.write_json("fig2c", &bars)?.as_deref());
    Ok(())
}
