//! Fig. 4b — physical NVM writes of CLOCK-DWF (left bars) and the proposed
//! scheme (right bars), split Migration / Page Fault / Read-Write Requests
//! and normalized to an NVM-only memory.

use hybridmem_bench::{announce_json, print_grouped_figure, report, StackedBar, SuiteOptions};
use hybridmem_core::PolicyKind;
use hybridmem_types::Result;

fn writes_bar(r: &hybridmem_core::SimulationReport, workload: &str, baseline: f64) -> StackedBar {
    StackedBar {
        workload: workload.to_owned(),
        components: vec![
            (
                "migration".into(),
                r.nvm_writes.migrations as f64 / baseline,
            ),
            (
                "page_fault".into(),
                r.nvm_writes.page_faults as f64 / baseline,
            ),
            ("requests".into(), r.nvm_writes.requests as f64 / baseline),
        ],
    }
}

fn main() -> Result<()> {
    let options = SuiteOptions::from_args()?;
    let matrix = options.run_matrix(&[
        PolicyKind::ClockDwf,
        PolicyKind::TwoLru,
        PolicyKind::NvmOnly,
    ])?;

    let mut dwf_bars = Vec::new();
    let mut proposed_bars = Vec::new();
    for (spec, row) in &matrix {
        let baseline = report(row, "nvm-only").nvm_writes.total().max(1) as f64;
        dwf_bars.push(writes_bar(report(row, "clock-dwf"), &spec.name, baseline));
        proposed_bars.push(writes_bar(report(row, "two-lru"), &spec.name, baseline));
    }

    print_grouped_figure(
        "Fig. 4b: NVM writes normalized to NVM-only",
        &[
            ("CLOCK-DWF (left bars)", dwf_bars.clone()),
            ("proposed two-LRU (right bars)", proposed_bars.clone()),
        ],
    );
    println!(
        "\npaper: the proposed scheme favours serving writes in NVM over \
         migrating the\npage, cutting NVM writes up to 93% vs CLOCK-DWF and \
         up to 75% (49% G-Mean)\nvs NVM-only (lifetime up to 4x). CLOCK-DWF \
         exceeds NVM-only by up to 3.74x.\nstreamcluster and vips: CLOCK-DWF \
         slightly better (near-threshold bursts)."
    );
    announce_json(
        options
            .write_json(
                "fig4b",
                &vec![("clock-dwf", dwf_bars), ("two-lru", proposed_bars)],
            )?
            .as_deref(),
    );
    Ok(())
}
