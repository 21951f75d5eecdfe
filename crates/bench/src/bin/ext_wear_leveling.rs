//! Extension E3 — Start-Gap wear leveling under the NVM module.
//!
//! The paper's lifetime claim ("prolong its lifetime up to 4x") assumes the
//! device does no leveling, so lifetime is bounded by the hottest page.
//! This experiment replays each policy's NVM write traffic through a
//! `StartGapLeveler` and compares the
//! *physical* wear distribution with and without leveling: how much of the
//! policy-level endurance advantage survives once the device levels wear on
//! its own, and what write amplification the gap movements add.

use hybridmem_bench::{announce_json, SuiteOptions};
use hybridmem_core::PolicyKind;
use hybridmem_device::{StartGapLeveler, WearTracker};
use hybridmem_json::impl_json;
use hybridmem_policy::PolicyAction;
use hybridmem_trace::TraceGenerator;
use hybridmem_types::{MemoryKind, PageAccess, PageId, Result, PAGE_FACTOR};

/// Gap movement every this many physical writes. Qureshi et al. use 100;
/// the default here is more aggressive so capped traces complete several
/// rotations (a full rotation needs `pages x interval` writes).
const GAP_INTERVAL: u64 = 10;

#[derive(Debug)]
struct Row {
    workload: String,
    policy: String,
    logical_imbalance: f64,
    physical_imbalance: f64,
    write_amplification: f64,
    lifetime_gain: f64,
}

impl_json!(ToJson for Row {
    workload,
    policy,
    logical_imbalance,
    physical_imbalance,
    write_amplification,
    lifetime_gain,
});

fn main() -> Result<()> {
    let options = SuiteOptions::from_args_without_matrix()?;
    let config = options.config();

    println!("=== Extension E3: Start-Gap wear leveling (gap interval {GAP_INTERVAL}) ===");
    println!(
        "{:<14} {:<10} {:>12} {:>12} {:>10} {:>12}",
        "workload", "policy", "logical imb", "physical imb", "amplif.", "lifetime x"
    );

    let mut rows = Vec::new();
    for spec in options.specs() {
        for kind in [PolicyKind::ClockDwf, PolicyKind::TwoLru] {
            let mut policy = config.build_policy(kind, &spec)?;
            let nvm_pages = policy.capacity(MemoryKind::Nvm).value();
            let mut leveler = StartGapLeveler::new(nvm_pages, GAP_INTERVAL)?;
            let mut logical = WearTracker::new();
            let mut physical = WearTracker::new();

            // Replay the trace, feeding every physical NVM write through
            // the leveler. NVM pages are identified by their *slot* in the
            // leveler's logical space via a simple modulo of the page id
            // (the leveler only needs a stable logical index).
            let write_burst = |page: PageId,
                               count: u64,
                               leveler: &mut StartGapLeveler,
                               logical: &mut WearTracker,
                               physical: &mut WearTracker| {
                let slot = PageId::new(page.value() % nvm_pages);
                logical.record_page_write(slot, count);
                // Map once per burst; gap movements inside a burst are
                // charged to the same frame (bursts are one page move).
                let frame = leveler.physical_frame(slot);
                physical.record_page_write(PageId::new(frame), count);
                for _ in 0..count {
                    leveler.record_write();
                }
            };

            for access in TraceGenerator::new(spec.clone(), options.seed()) {
                let access = PageAccess::from(access);
                let outcome = policy.on_access(access);
                if outcome.served_from == Some(MemoryKind::Nvm) && access.kind.is_write() {
                    write_burst(access.page, 1, &mut leveler, &mut logical, &mut physical);
                }
                for action in &outcome.actions {
                    match *action {
                        PolicyAction::Migrate {
                            page,
                            to: MemoryKind::Nvm,
                            ..
                        }
                        | PolicyAction::FillFromDisk {
                            page,
                            into: MemoryKind::Nvm,
                        } => {
                            write_burst(
                                page,
                                PAGE_FACTOR,
                                &mut leveler,
                                &mut logical,
                                &mut physical,
                            );
                        }
                        // DRAM-bound fills/migrations and disk
                        // evictions write no NVM cells.
                        PolicyAction::Migrate {
                            to: MemoryKind::Dram,
                            ..
                        }
                        | PolicyAction::FillFromDisk {
                            into: MemoryKind::Dram,
                            ..
                        }
                        | PolicyAction::EvictToDisk { .. } => {}
                    }
                }
            }

            if logical.total_writes() == 0 {
                continue;
            }
            // Lifetime gain = hottest-page share without leveling divided
            // by with leveling (same write volume, same endurance budget).
            let lifetime_gain = (logical.max_wear() as f64 / logical.total_writes() as f64)
                / (physical.max_wear() as f64 / physical.total_writes().max(1) as f64);
            let row = Row {
                workload: spec.name.clone(),
                policy: kind.name().to_owned(),
                logical_imbalance: logical.imbalance(),
                physical_imbalance: physical.imbalance(),
                write_amplification: leveler.write_amplification(),
                lifetime_gain,
            };
            println!(
                "{:<14} {:<10} {:>12.2} {:>12.2} {:>10.4} {:>12.2}",
                row.workload,
                row.policy,
                row.logical_imbalance,
                row.physical_imbalance,
                row.write_amplification,
                row.lifetime_gain,
            );
            rows.push(row);
        }
    }
    println!(
        "\nReading: both policies already spread wear fairly evenly (logical \
         imbalance\n~2-4) because page-granular migrations dominate NVM \
         writes, so Start-Gap's\nheadroom is modest at this scale — its \
         gains grow with trace volume (a full\nrotation needs pages x \
         interval writes). CLOCK-DWF still wears the device\nfaster in \
         absolute terms: it writes several times more data (Fig. 4b), \
         which\nno leveler can undo."
    );
    announce_json(options.write_json("ext_wear_leveling", &rows)?.as_deref());
    Ok(())
}
