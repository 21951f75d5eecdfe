//! Closed-form what-if analysis over the paper's Eq. 1 / Eq. 2 — no
//! simulation, just the Table I algebra. Answers the motivating question of
//! Section III analytically: *at what migration rate does a hybrid memory
//! stop paying off?*
//!
//! ```text
//! cargo run --release -p hybridmem-bench --bin model_explorer
//! ```
//!
//! It takes no flags: any argument is an error.

use hybridmem_core::{ModelParams, Probabilities};
use hybridmem_types::{Error, Result};

/// A representative request mix: 95 % DRAM hits, 5 % NVM hits, no faults,
/// 70 % reads everywhere, symmetric swap migrations.
fn mix(migration_rate: f64) -> Probabilities {
    Probabilities {
        hit_dram: 0.95,
        hit_nvm: 0.05,
        miss: 0.0,
        read_given_dram: 0.7,
        read_given_nvm: 0.7,
        migrate_to_dram: migration_rate,
        migrate_to_nvm: migration_rate,
        disk_to_dram: 1.0,
        disk_to_nvm: 0.0,
    }
}

/// Accepts an empty argument list only.
///
/// # Errors
///
/// Returns [`Error::InvalidInput`] naming the first argument, if any.
fn no_arguments(mut raw: impl Iterator<Item = String>) -> Result<()> {
    match raw.next() {
        None => Ok(()),
        Some(arg) => Err(Error::invalid_input(format!(
            "unexpected argument {arg}; model_explorer takes no flags"
        ))),
    }
}

fn main() -> Result<()> {
    no_arguments(std::env::args().skip(1))?;
    println!("=== Eq. 1 / Eq. 2 sensitivity to the migration rate ===");
    println!("(95% DRAM / 5% NVM hits, no faults, 70% reads, swap migrations)\n");
    println!(
        "{:>14} {:>12} {:>12} {:>12} {:>12}",
        "PMig (pairs)", "AMAT (ns)", "mig % AMAT", "APPR (nJ)", "mig % APPR"
    );
    for &rate in &[0.0, 1e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2] {
        let model = ModelParams::date2016(mix(rate));
        model.probabilities.validate()?;
        let amat = model.amat_components();
        let appr = model.appr_components();
        println!(
            "{rate:>14.0e} {:>12.1} {:>11.1}% {:>12.2} {:>11.1}%",
            amat.total(),
            amat.migration_share() * 100.0,
            appr.total(),
            appr.migration_share() * 100.0,
        );
    }

    let model = ModelParams::date2016(mix(0.0));
    println!(
        "\nbreak-even: one NVM→DRAM promotion (plus its swap-back) costs as much \
         latency\nas {} future DRAM read hits save — the reason Algorithm 1 \
         gates promotion\nbehind thresholds instead of migrating on first \
         contact like CLOCK-DWF.",
        model.breakeven_hits_per_promotion().ceil()
    );

    println!("\n=== Fault-rate sensitivity (no migrations) ===");
    println!(
        "{:>14} {:>12} {:>14}",
        "PMiss", "AMAT (ns)", "fills (nJ/req)"
    );
    for &miss in &[0.0, 1e-6, 1e-5, 1e-4, 1e-3] {
        let mut probabilities = mix(0.0);
        probabilities.hit_dram -= miss;
        probabilities.miss = miss;
        let model = ModelParams::date2016(probabilities);
        let amat = model.amat_components();
        let appr = model.appr_components();
        println!(
            "{miss:>14.0e} {:>12.1} {:>14.3}",
            amat.total(),
            appr.fills_to_dram + appr.fills_to_nvm,
        );
    }
    println!(
        "\nNote how a fault rate of just 1e-4 already dominates AMAT (the 5 ms \
         disk);\nthe paper's figures only make sense in a near-zero-fault \
         steady state —\nsee DESIGN.md §5."
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::no_arguments;

    fn check(tokens: &[&str]) -> hybridmem_types::Result<()> {
        no_arguments(tokens.iter().map(|t| (*t).to_owned()))
    }

    #[test]
    fn every_argument_is_rejected_by_name() {
        assert!(check(&[]).is_ok());
        for (tokens, named) in [
            (["--bogus", "1"].as_slice(), "--bogus"),
            (&["--out", "/tmp/x"], "--out"),
            (&["--threads", "2"], "--threads"),
            (&["x"], "x"),
        ] {
            let err = check(tokens).expect_err(&format!("{tokens:?} must fail"));
            assert!(
                matches!(err, hybridmem_types::Error::InvalidInput { .. }),
                "{tokens:?}: {err:?}"
            );
            let message = err.to_string();
            assert!(
                message.contains(&format!("unexpected argument {named};")),
                "{tokens:?}: {message}"
            );
        }
    }
}
