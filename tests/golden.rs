//! Golden-file regression tests: the full `SimulationReport` of a fixed
//! `(workload, policy, seed)` cell is pinned byte-for-byte. Any behavioral
//! change to the trace generator, the policies, the accounting, or the
//! JSON writer shows up here as a diff — in a reproduction repository,
//! silent drift is a bug even when all invariants still hold. The
//! generator's raw output for all twelve PARSEC profiles is pinned too,
//! as one digest, so a change that keeps bodytrack's counts but moves
//! any access of any profile still fails.
//!
//! To intentionally re-baseline after a deliberate change, regenerate the
//! files (see the commented recipe at the bottom) and explain the change in
//! `CHANGELOG.md`.

use hybridmem::sim::{ExperimentConfig, PolicyKind};
use hybridmem::trace::binfmt::{fnv1a64_update, FNV1A64_SEED};
use hybridmem::trace::{parsec, TraceGenerator};

fn check_against_golden(kind: PolicyKind, file: &str) {
    let spec = parsec::spec("bodytrack").unwrap().capped(20_000);
    let fresh = ExperimentConfig::default().run(&spec, kind).unwrap();
    let golden = std::fs::read_to_string(format!("tests/data/{file}"))
        .expect("golden file exists; regenerate per the module docs if missing");
    let emitted = hybridmem_json::to_string_pretty(&fresh);
    if emitted != golden {
        let offset = emitted
            .bytes()
            .zip(golden.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| emitted.len().min(golden.len()));
        panic!(
            "behavior drifted from the golden baseline in {file} at byte {offset}; if the \
             change is intentional, regenerate the golden files and document it\n\
             emitted:\n{emitted}"
        );
    }
}

#[test]
fn two_lru_matches_golden_baseline() {
    check_against_golden(PolicyKind::TwoLru, "golden_bodytrack_two_lru.json");
}

#[test]
fn clock_dwf_matches_golden_baseline() {
    check_against_golden(PolicyKind::ClockDwf, "golden_bodytrack_clock_dwf.json");
}

/// Folds every access's address, kind and core into an FNV-1a 64 digest,
/// spec by spec, at seed 42; returns the digest and the access count.
fn generator_digest(specs: impl IntoIterator<Item = hybridmem::trace::WorkloadSpec>) -> (u64, u64) {
    let mut digest = FNV1A64_SEED;
    let mut accesses = 0u64;
    for spec in specs {
        for access in TraceGenerator::new(spec, 42) {
            digest = fnv1a64_update(digest, &access.address.value().to_le_bytes());
            digest = fnv1a64_update(digest, &[u8::from(access.kind.is_write())]);
            digest = fnv1a64_update(digest, &access.core.index().to_le_bytes());
            accesses += 1;
        }
    }
    (digest, accesses)
}

#[test]
fn generator_output_matches_golden_digest() {
    // Profile by profile in `parsec::NAMES` order, at a 20 000-access cap.
    let specs = parsec::NAMES.map(|name| parsec::spec(name).unwrap().capped(20_000));
    let (digest, accesses) = generator_digest(specs);
    assert_eq!(accesses, 12 * 20_000);
    assert_eq!(
        digest, 0x4af9_1298_0111_d8bb,
        "generator output drifted (new digest {digest:#018x}); if the change is \
         intentional, pin the new digest and document it in `CHANGELOG.md`"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "~50M accesses: a determinism pin for release builds (`cargo test --release --test golden`)"
)]
fn generator_output_matches_golden_digest_at_suite_volume() {
    // The volumes the suite runs: every profile at the default 1M cap,
    // then the two profiles whose full-scale recency depth reaches the
    // 8192 cap, uncapped. At the 20 000 cap above, 11 of 12 profiles sit
    // on the 1500-page floor and the depth stays at or below 225.
    let capped = parsec::NAMES.map(|name| parsec::spec(name).unwrap().capped(1_000_000));
    let full = ["dedup", "fluidanimate"].map(|name| parsec::spec(name).unwrap());
    let (digest, accesses) = generator_digest(capped.into_iter().chain(full));
    assert_eq!(accesses, 49_655_663);
    assert_eq!(
        digest, 0x9b74_3c47_cab7_7a20,
        "generator output drifted at suite volume (new digest {digest:#018x}); if the \
         change is intentional, pin the new digest and document it in `CHANGELOG.md`"
    );
}

/// Runs bodytrack and canneal at a 20 000-access cap, seed 42, under five
/// policies with the metrics, ledger, audit and flight outputs all on,
/// writes them through `MatrixRun::write_artifacts`, and returns the
/// FNV-1a 64 digest of each file in that order.
fn artifact_digests(tag: &str, fault_plan: Option<&str>) -> [u64; 4] {
    use hybridmem::sim::{FaultPlan, MatrixRun};

    let dir = std::env::temp_dir().join(format!(
        "hybridmem-golden-artifacts-{}-{tag}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let files = ["metrics.jsonl", "ledger.jsonl", "audit.json", "flight.json"].map(|f| dir.join(f));
    let flags = ["metrics-out", "ledger-out", "audit-out", "flight-out"];
    let flag = |name: &str| {
        let index = flags.iter().position(|f| *f == name)?;
        files[index].to_str()
    };
    let mut run = MatrixRun::from_flags(ExperimentConfig::date2016(), flag).unwrap();
    run.threads = 2;
    run.fault_plan = fault_plan.map(|plan| std::sync::Arc::new(FaultPlan::parse(plan).unwrap()));
    let specs = ["bodytrack", "canneal"].map(|name| parsec::spec(name).unwrap().capped(20_000));
    let kinds = [
        PolicyKind::TwoLru,
        PolicyKind::AdaptiveTwoLru,
        PolicyKind::ClockDwf,
        PolicyKind::DramCache,
        PolicyKind::NvmOnly,
    ];
    let outcome = run.run(&specs, &kinds).unwrap();
    run.write_artifacts(&outcome, &mut Vec::new()).unwrap();
    let digests = files.map(|path| fnv1a64_update(FNV1A64_SEED, &std::fs::read(path).unwrap()));
    let _ = std::fs::remove_dir_all(&dir);
    digests
}

#[test]
fn matrix_artifacts_match_golden_digests() {
    // The four instrumentation artifacts `compare` and the regenerators
    // write, pinned whole: a sink refactor must keep every byte.
    let [metrics, ledger, audit, flight] = artifact_digests("clean", None);
    let pinned = [
        ("metrics JSONL", metrics, 0xbf70_7e68_0a2a_d627),
        ("ledger JSONL", ledger, 0x87ed_c1c9_eba7_26f8),
        ("audit JSON", audit, 0x4729_9e40_8c6b_03ec),
        ("flight JSON", flight, 0x84ff_ea24_286c_e47d),
    ];
    for (what, digest, golden) in pinned {
        assert_eq!(
            digest, golden,
            "{what} drifted (new digest {digest:#018x}); if the change is intentional, \
             pin the new digest and document it in `CHANGELOG.md`"
        );
    }
    // A mid-simulation tripwire quarantines bodytrack/two-lru; its black
    // box lands in the flight dump next to the nine completed cells.
    let [_, _, _, tripped] =
        artifact_digests("tripped", Some("cell-panic-at@bodytrack/two-lru:2000"));
    assert_eq!(
        tripped, 0x7f81_9161_6542_64e9,
        "tripwired flight JSON drifted (new digest {tripped:#018x})"
    );
}

// Regeneration recipe (from the repository root):
//
// ```rust,ignore
// let spec = parsec::spec("bodytrack")?.capped(20_000);
// let config = ExperimentConfig::default();
// for (kind, name) in [(PolicyKind::TwoLru, "two_lru"), (PolicyKind::ClockDwf, "clock_dwf")] {
//     let report = config.run(&spec, kind)?;
//     std::fs::write(
//         format!("tests/data/golden_bodytrack_{name}.json"),
//         hybridmem_json::to_string_pretty(&report),
//     )?;
// }
// ```
