//! Fig. 2a — CLOCK-DWF power breakdown (Static / Dynamic / Migration)
//! normalized to the DRAM-only power consumption of the same workload.
//!
//! Page-fault fill energy is folded into the "dynamic" component, matching
//! the three-part legend of the paper's figure.

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
            let baseline = report(row, "dram-only").energy.total().value();
            StackedBar {
                workload: spec.name.clone(),
                components: vec![
                    ("static".into(), dwf.energy.static_energy.value() / baseline),
                    (
                        "dynamic".into(),
                        (dwf.energy.dynamic + dwf.energy.page_faults).value() / baseline,
                    ),
                    ("migration".into(), dwf.energy.migrations.value() / baseline),
                ],
            }
        })
        .collect();

    print_stacked_figure("Fig. 2a: CLOCK-DWF power normalized to DRAM-only", &bars);
    println!(
        "\npaper: static drops ~80% in every workload; canneal and \
         fluidanimate\nblow past 1.0 (3.05 / 6.54) because migrations \
         contribute >40% of power."
    );
    announce_json(options.write_json("fig2a", &bars)?.as_deref());
    Ok(())
}
