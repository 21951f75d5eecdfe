//! Tables I, II, and IV — the static configuration tables of the paper.
//! Tables I and IV print the constants this implementation uses, so any
//! drift between documentation and code is visible. Table II prints the
//! paper's COTSon host from literals: its caches sit in front of the
//! memory traces the paper measured, and the trace generator is
//! calibrated to those memory-level counts (Table III), so only the disk
//! is modelled here.
//!
//! ```text
//! --table N   print only table N (1, 2 or 4; exp_table3 regenerates 3)
//! ```

use hybridmem_core::parse_flag;
use hybridmem_device::{DiskCharacteristics, MemoryCharacteristics};
use hybridmem_types::{Error, Result, PAGE_FACTOR, PAGE_SIZE};

fn table_i() {
    println!("=== Table I: model parameters (see hybridmem_core::model) ===");
    for (name, description) in [
        (
            "PHitDRAM/PHitNVM",
            "memory hit probabilities (measured per run)",
        ),
        (
            "PRDRAM/PRNVM, PW*",
            "read/write splits within each hit class",
        ),
        ("PMiss", "main-memory miss probability"),
        ("PMigD/PMigN", "NVM→DRAM / DRAM→NVM migrations per request"),
        ("PDiskToD/PDiskToN", "page-fault fill target probabilities"),
        ("TR*/TW* (ns)", "read/write latencies (Table IV)"),
        ("PoR*/PoW* (nJ)", "read/write dynamic energies (Table IV)"),
        ("TDisk", "disk access latency (Table II)"),
        ("PageFactor", "memory accesses per 4 KB page move"),
        ("AvgStaticPower", "Eq. 3: static power prorated per request"),
        ("StperPage", "static power of one page (nJ/s)"),
        ("AccessperPage", "accesses per page per second (1/s)"),
    ] {
        println!("  {name:<22} {description}");
    }
    println!(
        "  PageFactor = {PAGE_FACTOR} ({} B page / 8 B access)\n",
        PAGE_SIZE
    );
}

/// Table II's cache line size, the same at every level.
const LINE_BYTES: u64 = 64;

/// Table II's caches: name, capacity in KB and associativity.
const CACHES: [(&str, u64, u64); 3] = [
    ("L1 data cache", 32, 4),
    ("L1 instr cache", 32, 4),
    ("Last-level cache", 2048, 16),
];

fn table_ii() {
    let disk = DiskCharacteristics::hdd_date2016();
    println!("=== Table II: COTSon configuration (paper; only the disk is modelled) ===");
    println!("  CPU                4 cores (write-invalidate coherence)");
    for (name, kb, ways) in CACHES {
        let sets = kb * 1024 / (ways * LINE_BYTES);
        println!("  {name:<18} {kb} KB, {ways}-way, {LINE_BYTES} B lines ({sets} sets)");
    }
    println!("  Main memory        2x 2GB DDR2 (modelled per Table IV)");
    println!(
        "  Secondary storage  HDD, {} ms response time\n",
        disk.access_latency.value() / 1e6
    );
}

fn table_iv() {
    println!("=== Table IV: memory characteristics (hybridmem_device) ===");
    println!(
        "  {:<10} {:>16} {:>16} {:>22}",
        "memory", "latency r/w (ns)", "energy r/w (nJ)", "static (J/GB.s)"
    );
    for (name, c) in [
        ("DRAM", MemoryCharacteristics::dram_date2016()),
        ("NVM (PCM)", MemoryCharacteristics::pcm_date2016()),
    ] {
        println!(
            "  {:<10} {:>7}/{:<8} {:>7}/{:<8} {:>22}",
            name,
            c.read_latency.value(),
            c.write_latency.value(),
            c.read_energy.value(),
            c.write_energy.value(),
            c.static_power_j_per_gib_s,
        );
    }
}

/// Parses the only flag, `--table N`: `None` (no flag) prints every
/// table.
///
/// # Errors
///
/// Returns [`Error::InvalidInput`] for any other flag, a missing or
/// non-numeric value, or a table this binary does not print.
fn parse_table(raw: impl IntoIterator<Item = String>) -> Result<Option<u32>> {
    let mut table = None;
    let mut raw = raw.into_iter();
    while let Some(flag) = raw.next() {
        if flag != "--table" {
            return Err(Error::invalid_input(format!(
                "unknown flag {flag}; expected --table"
            )));
        }
        let value = raw
            .next()
            .ok_or_else(|| Error::invalid_input("flag --table requires a value"))?;
        table = Some(parse_flag("table", Some(&value), 0)?);
    }
    match table {
        None | Some(1 | 2 | 4) => Ok(table),
        Some(3) => Err(Error::invalid_input(
            "table 3 is regenerated by exp_table3; --table expects 1, 2 or 4",
        )),
        Some(other) => Err(Error::invalid_input(format!(
            "no table {other}; --table expects 1, 2 or 4"
        ))),
    }
}

fn main() -> Result<()> {
    let table = parse_table(std::env::args().skip(1))?;
    if matches!(table, None | Some(1)) {
        table_i();
    }
    if matches!(table, None | Some(2)) {
        table_ii();
    }
    if matches!(table, None | Some(4)) {
        table_iv();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::parse_table;

    fn parse(tokens: &[&str]) -> hybridmem_types::Result<Option<u32>> {
        parse_table(tokens.iter().map(|t| (*t).to_owned()))
    }

    #[test]
    fn only_tables_one_two_and_four_are_accepted() {
        assert_eq!(parse(&[]).unwrap(), None);
        for n in [1, 2, 4] {
            assert_eq!(parse(&["--table", &n.to_string()]).unwrap(), Some(n));
        }
        for (tokens, message) in [
            (
                ["--out", "d"].as_slice(),
                "unknown flag --out; expected --table",
            ),
            (&["--threads", "2"], "unknown flag --threads"),
            (&["1"], "unknown flag 1"),
            (&["--table"], "flag --table requires a value"),
            (&["--table", "x"], "flag --table expects a number"),
            (&["--table", "9"], "no table 9"),
            (&["--table", "3"], "exp_table3"),
        ] {
            let err = parse(tokens).expect_err(&format!("{tokens:?} must fail"));
            assert!(err.to_string().contains(message), "{tokens:?}: {err}");
        }
    }
}
