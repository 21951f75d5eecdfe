//! Table III — workload characterization: regenerates the traces and
//! prints the measured working-set size and read/write counts next to the
//! paper's values.
//!
//! When run with `--cap 0` the generator emits the full Table III volumes
//! and the counts match the paper exactly (the generator's budget
//! controller is exact); with a cap, counts scale proportionally.

use hybridmem_bench::{announce_json, SuiteOptions};
use hybridmem_json::impl_json;
use hybridmem_trace::{parsec, TraceGenerator, TraceStats};
use hybridmem_types::Result;

#[derive(Debug)]
struct Row {
    workload: String,
    paper_wss_kb: u64,
    measured_wss_kb: u64,
    target_reads: u64,
    measured_reads: u64,
    target_writes: u64,
    measured_writes: u64,
    read_pct: f64,
}

impl_json!(ToJson for Row {
    workload,
    paper_wss_kb,
    measured_wss_kb,
    target_reads,
    measured_reads,
    target_writes,
    measured_writes,
    read_pct,
});

fn main() -> Result<()> {
    let options = SuiteOptions::from_args_without_matrix()?;
    println!(
        "=== Table III: workload characterization (cap {} accesses) ===",
        options.cap
    );
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>7}",
        "workload", "WSS KB", "meas KB", "reads", "meas reads", "writes", "meas writes", "read%"
    );

    let mut rows = Vec::new();
    for (paper, spec) in parsec::TABLE_III.iter().zip(options.specs()) {
        let stats: TraceStats = TraceGenerator::new(spec.clone(), options.seed()).collect();
        let row = Row {
            workload: spec.name.clone(),
            paper_wss_kb: paper.working_set_kb,
            measured_wss_kb: stats.working_set_kb(),
            target_reads: spec.reads,
            measured_reads: stats.reads,
            target_writes: spec.writes,
            measured_writes: stats.writes,
            read_pct: stats.read_ratio() * 100.0,
        };
        println!(
            "{:<14} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>6.1}%",
            row.workload,
            row.paper_wss_kb,
            row.measured_wss_kb,
            row.target_reads,
            row.measured_reads,
            row.target_writes,
            row.measured_writes,
            row.read_pct,
        );
        rows.push(row);
    }
    println!(
        "\nWSS KB column is the paper's full-scale footprint; 'meas KB' is \
         the footprint\nof the (possibly capped) regenerated trace. Run with \
         --cap 0 for full scale."
    );
    announce_json(options.write_json("table3", &rows)?.as_deref());
    Ok(())
}
