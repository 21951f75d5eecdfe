//! Reuse-distance analysis of the PARSEC-calibrated traces — the
//! calibration instrument behind DESIGN.md §5.
//!
//! For each workload, prints the miss-ratio curve an LRU memory would see
//! at several capacities, confirming that the paper's 75 %-of-footprint
//! memory operates in the near-zero-fault regime its figures imply (with
//! `dedup`'s streaming sweeps as the designed exception).
//!
//! ```text
//! cargo run --release --example reuse_analysis [max_accesses]
//! ```

use hybridmem::policy::ReuseProfile;
use hybridmem::trace::{parsec, TraceGenerator};
use hybridmem::types::Error;

fn main() -> Result<(), Error> {
    let cap: u64 = std::env::args().nth(1).map_or(300_000, |s| {
        s.parse().expect("max_accesses must be an integer")
    });

    println!(
        "{:<14} {:>9} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "workload", "pages", "mean dist", "miss@10%", "miss@50%", "miss@75%", "miss@100%"
    );
    for name in parsec::NAMES {
        let spec = parsec::spec(name)?.capped(cap);
        // Skip the warmup prefix like the experiments do, so the curve
        // reflects the measured steady state.
        let warmup = (spec.total_accesses() as f64 * 0.3) as usize;
        let profile =
            ReuseProfile::from_pages(TraceGenerator::new(spec, 42).skip(warmup).map(|a| a.page()));
        let pages = profile.distinct_pages();
        let miss_at = |fraction: f64| {
            let capacity = ((pages as f64 * fraction).ceil() as u64).max(1);
            profile.miss_ratio(capacity) * 100.0
        };
        println!(
            "{:<14} {:>9} {:>10} {:>11.4}% {:>11.4}% {:>11.4}% {:>11.4}%",
            name,
            pages,
            profile
                .mean_distance()
                .map_or_else(|| "-".to_owned(), |d| format!("{d:.0}")),
            miss_at(0.10),
            miss_at(0.50),
            miss_at(0.75),
            miss_at(1.00),
        );
    }
    println!(
        "\nCapacities are fractions of the *steady-state* footprint (post-warmup\n\
         distinct pages) — smaller than the full footprint the experiments size\n\
         memory against, so the simulator's actual fault rates are lower still.\n\
         The miss@100% column is the floor set by the window's own cold touches;\n\
         the flat curves from 50% on show the hot set is far smaller than memory,\n\
         the near-zero-fault regime of DESIGN.md \u{00a7}5."
    );
    Ok(())
}
