//! Fig. 2b — CLOCK-DWF AMAT (Read/Write Requests vs Migrations) normalized
//! to the AMAT of a DRAM-only memory.
//!
//! Page-fault (disk) time is folded into the "requests" component, matching
//! the two-part legend of the paper's figure.

use hybridmem_bench::{announce_json, print_stacked_figure, report, StackedBar, SuiteOptions};
use hybridmem_core::PolicyKind;
use hybridmem_types::Result;

fn main() -> Result<()> {
    let options = SuiteOptions::from_args()?;
    let matrix = options.run_matrix(&[PolicyKind::ClockDwf, PolicyKind::DramOnly])?;

    let bars: Vec<StackedBar> = matrix
        .iter()
        .map(|(spec, row)| {
            let dwf = report(row, "clock-dwf");
            let baseline = report(row, "dram-only").latency.total().value();
            StackedBar {
                workload: spec.name.clone(),
                components: vec![
                    (
                        "requests".into(),
                        (dwf.latency.requests + dwf.latency.faults).value() / baseline,
                    ),
                    (
                        "migrations".into(),
                        dwf.latency.migrations.value() / baseline,
                    ),
                ],
            }
        })
        .collect();

    print_stacked_figure("Fig. 2b: CLOCK-DWF AMAT normalized to DRAM-only", &bars);
    println!(
        "\npaper: migrations contribute more than 60% of CLOCK-DWF's AMAT; \
         several\nworkloads exceed the 7.0 axis (10.86 / 12.48 / 29.64 / \
         12.56 / 12.43)."
    );
    announce_json(options.write_json("fig2b", &bars)?.as_deref());
    Ok(())
}
