//! Crash-safe resume journal for long experiment campaigns.
//!
//! A matrix run that dies at cell 40 of 48 — a crash, a kill, an
//! exhausted fault-retry budget under `--strict` — should not cost the
//! 39 completed cells. [`RunJournal`] is an append-only per-cell
//! completion log in the `binfmt` spirit: fixed magic, a fingerprint
//! binding the journal to one exact matrix, and length-prefixed,
//! FNV-1a-checksummed records that are `fsync`ed as they land. A rerun
//! with `--resume <journal>` replays completed cells straight out of
//! the journal (their serialized reports round-trip exactly — the JSON
//! writer's floats are shortest round-trip, so a resumed run's output is
//! byte-identical to an uninterrupted one) and computes only the cells
//! that are missing.
//!
//! # On-disk format
//!
//! ```text
//! offset 0   8 bytes  magic "HMJRNL1\0"
//! offset 8   4 bytes  format version (LE u32, currently 1)
//! offset 12  8 bytes  matrix fingerprint (LE u64)
//! offset 20  records  [len: LE u32][fnv1a64(payload): LE u64][payload]
//! ```
//!
//! The payload is the JSON of one [`JournalEntry`]. A torn final
//! record — the crash happened mid-append — fails its length or
//! checksum check and is truncated away on open; every record before
//! it survives. A journal whose fingerprint does not match the matrix
//! being run is a typed error, never silently reused: resuming cell
//! reports into a *different* matrix would corrupt results.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use hybridmem_json::{impl_json, Json, ToJson};
use hybridmem_trace::binfmt::{fnv1a64_update, FNV1A64_SEED};
use hybridmem_types::{Error, FxHashMap};

/// Journal file magic, 8 bytes at offset 0.
pub const JOURNAL_MAGIC: [u8; 8] = *b"HMJRNL1\0";

/// Current journal format version.
pub const JOURNAL_VERSION: u32 = 1;

/// Header length: magic + version + fingerprint.
const HEADER_BYTES: usize = 20;

/// Per-record framing ahead of the payload: length + checksum.
const FRAME_BYTES: usize = 12;

/// One completed cell as journaled: its coordinates plus the full
/// serialized report, kept as raw JSON so the journal layer never
/// needs to know the report type.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Workload name of the completed cell.
    pub workload: String,
    /// Policy name of the completed cell.
    pub policy: String,
    /// The cell's report, verbatim.
    pub report: Json,
}

impl_json!(ToJson, FromJson for JournalEntry { workload, policy, report });

struct Inner {
    file: File,
    completed: FxHashMap<(String, String), Json>,
}

/// An append-only, fsynced, checksummed per-cell completion log. See
/// the module docs for the format and crash-safety rules.
pub struct RunJournal {
    path: PathBuf,
    fingerprint: u64,
    inner: Mutex<Inner>,
    /// Appends whose write or fsync failed. The journal is an
    /// availability feature, so append failures degrade the resume —
    /// they never abort the run — but they must not be invisible.
    append_errors: AtomicU64,
    /// Bytes of torn or corrupt tail truncated away on open. The loss
    /// is recoverable (the interrupted cell just reruns), but callers
    /// surface it so a crash that tore a record is never silent.
    torn_tail_bytes: u64,
}

impl RunJournal {
    /// Opens (or creates) the journal at `path` for a matrix with the
    /// given `fingerprint`. An existing journal is scanned record by
    /// record: a torn or corrupt tail is truncated away, and every
    /// intact record becomes a completed cell visible through
    /// [`Self::completed_report`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when the file exists but is not
    /// a journal, has an unsupported version, or — the important case —
    /// was written for a *different* matrix fingerprint.
    pub fn open(path: impl Into<PathBuf>, fingerprint: u64) -> Result<Self, Error> {
        let path = path.into();
        let io_err =
            |e: std::io::Error| Error::invalid_input(format!("journal {}: {e}", path.display()));
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(io_err)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(io_err)?;

        let mut completed = FxHashMap::default();
        let valid_end = if bytes.is_empty() {
            let mut header = Vec::with_capacity(HEADER_BYTES);
            header.extend_from_slice(&JOURNAL_MAGIC);
            header.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
            header.extend_from_slice(&fingerprint.to_le_bytes());
            file.write_all(&header).map_err(io_err)?;
            file.sync_data().map_err(io_err)?;
            HEADER_BYTES as u64
        } else {
            Self::scan(&path, &bytes, fingerprint, &mut completed)?
        };
        let torn_tail_bytes = (bytes.len() as u64).saturating_sub(valid_end);
        // Drop any torn tail so appends extend the valid prefix.
        file.set_len(valid_end).map_err(io_err)?;
        file.seek(SeekFrom::End(0)).map_err(io_err)?;
        Ok(Self {
            path,
            fingerprint,
            #[expect(clippy::disallowed_methods, reason = "once per completed cell")]
            inner: Mutex::new(Inner { file, completed }),
            append_errors: AtomicU64::new(0),
            torn_tail_bytes,
        })
    }

    /// Validates the header and scans the record sequence, filling
    /// `completed` and returning the byte offset of the valid prefix's
    /// end. Corruption *after* a valid header is tolerated (that is
    /// the crash being recovered from); a bad header or foreign
    /// fingerprint is an error.
    #[expect(clippy::indexing_slicing, reason = "each range is checked first")]
    fn scan(
        path: &Path,
        bytes: &[u8],
        fingerprint: u64,
        completed: &mut FxHashMap<(String, String), Json>,
    ) -> Result<u64, Error> {
        let bad =
            |reason: String| Error::invalid_input(format!("journal {}: {reason}", path.display()));
        if bytes.len() < HEADER_BYTES || bytes[..8] != JOURNAL_MAGIC {
            return Err(bad("not a run journal (bad magic)".to_owned()));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap_or_default());
        if version != JOURNAL_VERSION {
            return Err(bad(format!(
                "unsupported journal version {version} (expected {JOURNAL_VERSION})"
            )));
        }
        let stored = u64::from_le_bytes(bytes[12..20].try_into().unwrap_or_default());
        if stored != fingerprint {
            return Err(bad(format!(
                "matrix fingerprint mismatch: journal has {stored:#018x}, this run is {fingerprint:#018x} \
                 (resuming into a different matrix would corrupt results)"
            )));
        }
        let mut offset = HEADER_BYTES;
        while bytes.len() - offset >= FRAME_BYTES {
            let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap_or_default())
                as usize;
            let crc = u64::from_le_bytes(
                bytes[offset + 4..offset + 12]
                    .try_into()
                    .unwrap_or_default(),
            );
            let Some(end) = offset.checked_add(FRAME_BYTES + len) else {
                break;
            };
            if end > bytes.len() {
                break; // torn final record
            }
            let payload = &bytes[offset + FRAME_BYTES..end];
            if fnv1a64_update(FNV1A64_SEED, payload) != crc {
                break; // corrupt record: keep the prefix, drop the rest
            }
            let Some(entry) = std::str::from_utf8(payload)
                .ok()
                .and_then(|text| hybridmem_json::from_str::<JournalEntry>(text).ok())
            else {
                break;
            };
            completed.insert((entry.workload, entry.policy), entry.report);
            offset = end;
        }
        Ok(offset as u64)
    }

    /// The matrix fingerprint this journal is bound to.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The journal's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Completed cells currently in the journal.
    ///
    /// # Panics
    ///
    /// Panics if the journal mutex was poisoned.
    #[must_use]
    #[expect(
        clippy::disallowed_methods,
        clippy::expect_used,
        reason = "a diagnostics accessor; no holder panics"
    )]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("journal poisoned").completed.len()
    }

    /// True when no cells have completed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The journaled report of `(workload, policy)`, if that cell
    /// already completed in a previous (or this) run.
    ///
    /// # Panics
    ///
    /// Panics if the journal mutex was poisoned.
    #[must_use]
    #[expect(
        clippy::disallowed_methods,
        clippy::expect_used,
        reason = "taken once per matrix cell; no holder panics"
    )]
    pub fn completed_report(&self, workload: &str, policy: &str) -> Option<Json> {
        self.inner
            .lock()
            .expect("journal poisoned")
            .completed
            .get(&(workload.to_owned(), policy.to_owned()))
            .cloned()
    }

    /// Appends one completed cell, checksummed and fsynced, and makes
    /// it visible to [`Self::completed_report`]. Best-effort: an
    /// append that cannot be written is counted in
    /// [`Self::append_errors`] and the run continues (the journal is
    /// an availability feature, not a correctness dependency).
    ///
    /// # Panics
    ///
    /// Panics if the journal mutex was poisoned.
    pub fn record<T: ToJson>(&self, workload: &str, policy: &str, report: &T) {
        let entry = JournalEntry {
            workload: workload.to_owned(),
            policy: policy.to_owned(),
            report: report.to_json(),
        };
        let payload = hybridmem_json::to_string(&entry).into_bytes();
        let mut frame = Vec::with_capacity(FRAME_BYTES + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a64_update(FNV1A64_SEED, &payload).to_le_bytes());
        frame.extend_from_slice(&payload);

        #[expect(
            clippy::disallowed_methods,
            clippy::expect_used,
            reason = "taken once per completed matrix cell; no holder panics"
        )]
        let mut inner = self.inner.lock().expect("journal poisoned");
        let written = inner
            .file
            .write_all(&frame)
            .and_then(|()| inner.file.sync_data());
        if written.is_err() {
            #[expect(clippy::disallowed_methods, reason = "error counter: guards no data")]
            self.append_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        inner
            .completed
            .insert((entry.workload, entry.policy), entry.report);
    }

    /// Appends that failed and were dropped (never fatal, never
    /// silent).
    #[must_use]
    #[expect(clippy::disallowed_methods, reason = "error counter: guards no data")]
    pub fn append_errors(&self) -> u64 {
        self.append_errors.load(Ordering::Relaxed)
    }

    /// Bytes of torn or corrupt tail that [`Self::open`] truncated away
    /// — a record was mid-append when the previous run died. Every
    /// complete record before the tear was replayed; callers should
    /// surface the count as a warning so the data loss is visible.
    #[must_use]
    pub fn torn_tail_bytes(&self) -> u64 {
        self.torn_tail_bytes
    }
}

impl std::fmt::Debug for RunJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunJournal")
            .field("path", &self.path)
            .field("fingerprint", &self.fingerprint)
            .field("completed", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridmem_json::FromJson;

    /// A unique journal path per test, removed on drop.
    struct TmpJournal(PathBuf);

    impl TmpJournal {
        fn new(tag: &str) -> Self {
            let path = std::env::temp_dir().join(format!(
                "hybridmem-journal-test-{}-{tag}.hmjournal",
                std::process::id()
            ));
            let _ = std::fs::remove_file(&path);
            Self(path)
        }
    }

    impl Drop for TmpJournal {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[derive(Debug, PartialEq)]
    struct FakeReport {
        hits: u64,
        amat: f64,
    }

    impl_json!(ToJson, FromJson for FakeReport { hits, amat });

    #[test]
    fn records_round_trip_across_reopen() {
        let tmp = TmpJournal::new("roundtrip");
        let journal = RunJournal::open(&tmp.0, 0xABCD).unwrap();
        assert!(journal.is_empty());
        journal.record(
            "bodytrack",
            "two-lru",
            &FakeReport {
                hits: 9,
                amat: 0.1 + 0.2,
            },
        );
        journal.record("canneal", "nvm-only", &FakeReport { hits: 3, amat: 7.5 });
        assert_eq!(journal.len(), 2);
        assert_eq!(journal.append_errors(), 0);
        drop(journal);

        let reopened = RunJournal::open(&tmp.0, 0xABCD).unwrap();
        assert_eq!(reopened.len(), 2);
        let report =
            FakeReport::from_json(&reopened.completed_report("bodytrack", "two-lru").unwrap())
                .unwrap();
        assert_eq!(
            report,
            FakeReport {
                hits: 9,
                amat: 0.1 + 0.2
            },
            "floats exact"
        );
        assert!(reopened
            .completed_report("bodytrack", "dram-only")
            .is_none());
    }

    #[test]
    fn torn_tail_is_truncated_and_earlier_records_survive() {
        let tmp = TmpJournal::new("torn");
        let journal = RunJournal::open(&tmp.0, 7).unwrap();
        journal.record("w1", "p", &FakeReport { hits: 1, amat: 1.0 });
        journal.record("w2", "p", &FakeReport { hits: 2, amat: 2.0 });
        drop(journal);

        // Tear the final record mid-payload, as a crash would.
        let bytes = std::fs::read(&tmp.0).unwrap();
        std::fs::write(&tmp.0, &bytes[..bytes.len() - 5]).unwrap();

        let recovered = RunJournal::open(&tmp.0, 7).unwrap();
        assert_eq!(recovered.len(), 1, "torn record dropped, first kept");
        assert!(recovered.completed_report("w1", "p").is_some());
        assert!(recovered.completed_report("w2", "p").is_none());
        assert!(
            recovered.torn_tail_bytes() > 0,
            "the dropped tail is reported, not silent"
        );

        // The truncation happened on disk: appends extend a valid log.
        recovered.record("w3", "p", &FakeReport { hits: 3, amat: 3.0 });
        drop(recovered);
        let reopened = RunJournal::open(&tmp.0, 7).unwrap();
        assert_eq!(reopened.len(), 2);
        assert!(reopened.completed_report("w3", "p").is_some());
    }

    #[test]
    fn a_partial_frame_tail_replays_complete_records_and_reports_the_loss() {
        let tmp = TmpJournal::new("partialframe");
        let journal = RunJournal::open(&tmp.0, 7).unwrap();
        journal.record("w1", "p", &FakeReport { hits: 1, amat: 1.0 });
        journal.record("w2", "p", &FakeReport { hits: 2, amat: 2.0 });
        assert_eq!(journal.torn_tail_bytes(), 0, "clean open reports zero");
        drop(journal);

        // A crash mid-append can leave a complete 12-byte frame header
        // plus the first few payload bytes: the frame claims a payload
        // that is not there. All 16 bytes must be dropped — and every
        // complete record before them replayed — without failing.
        let mut bytes = std::fs::read(&tmp.0).unwrap();
        let mut tail = Vec::new();
        tail.extend_from_slice(&64u32.to_le_bytes()); // claims 64 payload bytes
        tail.extend_from_slice(&0u64.to_le_bytes()); // checksum of the lost payload
        tail.extend_from_slice(b"{\"wo"); // 4 bytes of payload made it to disk
        assert_eq!(tail.len(), 16);
        bytes.extend_from_slice(&tail);
        std::fs::write(&tmp.0, &bytes).unwrap();

        let recovered = RunJournal::open(&tmp.0, 7).unwrap();
        assert_eq!(recovered.len(), 2, "every complete record replays");
        assert!(recovered.completed_report("w1", "p").is_some());
        assert!(recovered.completed_report("w2", "p").is_some());
        assert_eq!(recovered.torn_tail_bytes(), 16);

        // The truncation happened on disk: a clean reopen sees no tear.
        drop(recovered);
        let reopened = RunJournal::open(&tmp.0, 7).unwrap();
        assert_eq!(reopened.torn_tail_bytes(), 0);
        assert_eq!(reopened.len(), 2);
    }

    #[test]
    fn corrupt_record_checksum_drops_the_suffix() {
        let tmp = TmpJournal::new("corrupt");
        let journal = RunJournal::open(&tmp.0, 7).unwrap();
        journal.record("w1", "p", &FakeReport { hits: 1, amat: 1.0 });
        journal.record("w2", "p", &FakeReport { hits: 2, amat: 2.0 });
        drop(journal);

        // Flip a byte inside the *first* record's payload: both records
        // sit after it, and the scan keeps only the prefix before the
        // corruption.
        let mut bytes = std::fs::read(&tmp.0).unwrap();
        bytes[HEADER_BYTES + FRAME_BYTES + 4] ^= 0x01;
        std::fs::write(&tmp.0, &bytes).unwrap();

        let recovered = RunJournal::open(&tmp.0, 7).unwrap();
        assert_eq!(recovered.len(), 0, "corruption invalidates the suffix");
    }

    #[test]
    fn foreign_fingerprint_is_rejected() {
        let tmp = TmpJournal::new("fingerprint");
        RunJournal::open(&tmp.0, 1).unwrap();
        let err = RunJournal::open(&tmp.0, 2).unwrap_err();
        assert!(err.to_string().contains("fingerprint mismatch"), "{err}");
    }

    #[test]
    fn non_journal_files_are_rejected() {
        let tmp = TmpJournal::new("notajournal");
        std::fs::write(&tmp.0, b"definitely not a journal").unwrap();
        let err = RunJournal::open(&tmp.0, 1).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn rerecording_a_cell_overwrites_its_visible_report() {
        let tmp = TmpJournal::new("rerecord");
        let journal = RunJournal::open(&tmp.0, 7).unwrap();
        journal.record("w", "p", &FakeReport { hits: 1, amat: 1.0 });
        journal.record("w", "p", &FakeReport { hits: 2, amat: 2.0 });
        assert_eq!(journal.len(), 1);
        drop(journal);
        let reopened = RunJournal::open(&tmp.0, 7).unwrap();
        let report = FakeReport::from_json(&reopened.completed_report("w", "p").unwrap()).unwrap();
        assert_eq!(report.hits, 2, "last append wins on replay too");
    }
}
