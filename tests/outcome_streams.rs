//! Every policy's outcome stream, pinned access by access.
//!
//! All seven `PolicyKind`s replay bodytrack and canneal at a 20 000-access
//! cap (seed 42, the paper's memory sizing). For each cell two things
//! must hold:
//!
//! * `on_access_batch`, fed 1024-access chunks and expanded, returns
//!   exactly the outcomes of calling `on_access` access by access;
//! * an FNV-1a 64 digest of the serial stream (served tier, fault flag,
//!   every action in order, every probe field) equals its pinned value.
//!
//! The golden reports pin only counts, and the ledger digests only five
//! of the kinds, so this is the test that sees a change in the *order*
//! or the pages of any policy's actions. To re-pin after a deliberate
//! behaviour change, copy the table the failure message prints into
//! `PINS` and document the change in `CHANGELOG.md`.

use hybridmem::policy::{AccessOutcome, BatchOutcomes, CounterKind, PolicyAction};
use hybridmem::sim::{ExperimentConfig, PolicyKind};
use hybridmem::trace::binfmt::{fnv1a64_update, FNV1A64_SEED};
use hybridmem::trace::{parsec, TraceGenerator};
use hybridmem::types::{MemoryKind, PageAccess};

/// Accesses per `on_access_batch` call, as the simulator's batched replay.
const BATCH: usize = 1024;

/// Pinned digests: per workload, one per kind in `PolicyKind::all()` order.
const PINS: [(&str, [u64; 7]); 2] = [
    (
        "bodytrack",
        [
            0xdb0d_d38d_7289_c2ee,
            0x9671_2be4_496b_a851,
            0x1f4f_1fe0_d35d_241a,
            0x4122_fb63_fd99_f443,
            0x9f92_b9b0_3336_91b3,
            0xed4c_aa4f_c8c9_5d9f,
            0xdb0d_d38d_7289_c2ee,
        ],
    ),
    (
        "canneal",
        [
            0xccb9_6768_a1b6_cae0,
            0xd69d_2d10_99f0_4c37,
            0x55c0_a23b_b7d9_ce3b,
            0x1d24_677e_37a3_991a,
            0x1fd9_5456_42f9_5aac,
            0x651f_ad9f_2a65_7e13,
            0xd070_a9b7_3bc6_3b58,
        ],
    ),
];

fn tier(kind: Option<MemoryKind>) -> u8 {
    match kind {
        None => 0,
        Some(MemoryKind::Dram) => 1,
        Some(MemoryKind::Nvm) => 2,
    }
}

/// Folds every field of `outcome` into an FNV-1a 64 digest.
fn fold(hash: u64, outcome: &AccessOutcome) -> u64 {
    let mut hash = fnv1a64_update(
        hash,
        &[
            tier(outcome.served_from),
            u8::from(outcome.fault),
            outcome.actions.len() as u8,
        ],
    );
    for action in &outcome.actions {
        let (code, page, from, to) = match *action {
            PolicyAction::EvictToDisk { page, from } => (1, page, Some(from), None),
            PolicyAction::Migrate { page, from, to } => (2, page, Some(from), Some(to)),
            PolicyAction::FillFromDisk { page, into } => (3, page, None, Some(into)),
        };
        hash = fnv1a64_update(hash, &[code, tier(from), tier(to)]);
        hash = fnv1a64_update(hash, &page.value().to_le_bytes());
    }
    let Some(probe) = outcome.probe else {
        return fnv1a64_update(hash, &[0]);
    };
    let fired = match probe.fired {
        None => 0,
        Some(CounterKind::Read) => 1,
        Some(CounterKind::Write) => 2,
    };
    hash = fnv1a64_update(hash, &[1, fired]);
    hash = fnv1a64_update(hash, &probe.rank.to_le_bytes());
    for value in [
        probe.reads,
        probe.writes,
        probe.read_lost,
        probe.write_lost,
        probe.read_threshold,
        probe.write_threshold,
    ] {
        hash = fnv1a64_update(hash, &value.to_le_bytes());
    }
    hash
}

#[test]
fn every_policy_outcome_stream_is_pinned_and_batches_like_serial() {
    let config = ExperimentConfig::date2016();
    let mut digests = Vec::new();
    for (workload, _) in PINS {
        let spec = parsec::spec(workload).unwrap().capped(20_000);
        let trace: Vec<PageAccess> = TraceGenerator::new(spec.clone(), 42)
            .map(PageAccess::from)
            .collect();
        let mut row = [0; 7];
        for (kind, digest) in PolicyKind::all().into_iter().zip(&mut row) {
            let mut serial = config.build_policy(kind, &spec).unwrap();
            let outcomes: Vec<AccessOutcome> = trace
                .iter()
                .map(|&access| serial.on_access(access))
                .collect();

            let mut batched = config.build_policy(kind, &spec).unwrap();
            let mut out = BatchOutcomes::with_capacity(BATCH);
            let mut expanded = Vec::with_capacity(trace.len());
            for chunk in trace.chunks(BATCH) {
                out.clear();
                batched.on_access_batch(chunk, &mut out);
                expanded.extend(out.expand());
            }
            assert!(
                expanded == outcomes,
                "{workload}/{kind}: on_access_batch and on_access outcomes differ"
            );
            *digest = outcomes.iter().fold(FNV1A64_SEED, fold);
        }
        digests.push((workload, row));
    }
    assert!(
        digests == PINS,
        "outcome streams drifted; the new digests are\n{}",
        digests
            .iter()
            .map(|(workload, row)| format!(
                "    (\"{workload}\", [{}]),",
                row.map(|d| format!("{d:#018x}")).join(", ")
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
