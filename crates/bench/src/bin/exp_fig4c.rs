//! Fig. 4c — AMAT of the proposed scheme (Read/Write Requests vs
//! Migrations) normalized to the AMAT of CLOCK-DWF on the same trace.

use hybridmem_bench::{announce_json, print_stacked_figure, report, StackedBar, SuiteOptions};
use hybridmem_core::PolicyKind;
use hybridmem_types::Result;

fn main() -> Result<()> {
    let options = SuiteOptions::from_args()?;
    let matrix = options.run_matrix(&[PolicyKind::TwoLru, PolicyKind::ClockDwf])?;

    let bars: Vec<StackedBar> = matrix
        .iter()
        .map(|(spec, row)| {
            let proposed = report(row, "two-lru");
            let baseline = report(row, "clock-dwf").latency.total().value();
            StackedBar {
                workload: spec.name.clone(),
                components: vec![
                    (
                        "requests".into(),
                        (proposed.latency.requests + proposed.latency.faults).value() / baseline,
                    ),
                    (
                        "migrations".into(),
                        proposed.latency.migrations.value() / baseline,
                    ),
                ],
            }
        })
        .collect();

    print_stacked_figure(
        "Fig. 4c: proposed-scheme AMAT normalized to CLOCK-DWF",
        &bars,
    );
    println!(
        "\npaper: limiting non-beneficial migrations improves AMAT up to \
         70% (48%\nG-Mean); migrations contribute <50% of the proposed \
         scheme's AMAT in most\nworkloads. raytrace and vips are the \
         exceptions where CLOCK-DWF is better\n(blackscholes prints 1.02)."
    );
    announce_json(options.write_json("fig4c", &bars)?.as_deref());
    Ok(())
}
