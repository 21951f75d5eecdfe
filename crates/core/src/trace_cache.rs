//! A process-wide cache of materialized traces, shared across experiment
//! cells.
//!
//! The evaluation matrix runs many `(workload, policy)` cells, and every
//! cell of one workload replays the *same* deterministic trace:
//! [`TraceGenerator`] is a pure function of `(spec, seed)`. Without a
//! cache, `ExperimentConfig::compare` regenerates each workload's trace
//! once per policy (7× for the full matrix) and every ablation sweep
//! regenerates it once per sweep point. [`TraceCache`] materializes each
//! trace once into an `Arc<[PageAccess]>` and hands the same immutable
//! buffer to every cell, including cells running concurrently on the
//! worker pool (see [`MatrixRun`](crate::MatrixRun)).
//!
//! # Keying
//!
//! Entries are keyed by a stable fingerprint: the FxHash of the spec's
//! canonical JSON serialization plus the generator seed. The full
//! `(spec, seed)` pair is stored alongside each entry and verified on
//! lookup, so a fingerprint collision degrades to a cache miss rather
//! than silently replaying the wrong workload.
//!
//! # Memory bounds
//!
//! The cache holds at most `budget_bytes` of trace data (the byte cost of
//! a trace is known up front: `total_accesses × size_of::<PageAccess>()`).
//! Inserting past the budget evicts least-recently-used entries first. A
//! single trace larger than the whole budget is never materialized —
//! [`TraceCache::try_get`] returns `None` and callers fall back to
//! streaming generation, so full-scale (uncapped) runs cannot exhaust
//! memory through the cache.
//!
//! Trace *generation* happens outside the cache lock: concurrent workers
//! asking for the same workload block on a per-entry [`OnceLock`] (one
//! generates, the rest wait), while workers asking for different
//! workloads generate in parallel.
//!
//! # Binary spill
//!
//! When a spill directory is configured (the global cache reads
//! `HYBRIDMEM_TRACE_SPILL_DIR`, defaulting to a per-user directory under
//! the system temp dir; set the variable to the empty string to disable),
//! each materialized trace is also written once as a
//! [`binfmt`](hybridmem_trace::binfmt) file named
//! `{fingerprint:016x}.hmtrace`. Later processes — repeated CLI runs, the
//! bench harness, CI — load the spill instead of re-generating, and
//! *oversize* traces that can never be materialized replay straight from
//! the file in fixed-size chunks via [`TraceCache::open_stream`]. Spill
//! files carry the full spec JSON and seed in their header and are
//! verified on load, so a stale or colliding file degrades to regeneration
//! rather than replaying the wrong workload.

use std::fs::File;
use std::io::{BufReader, Cursor, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use hybridmem_json::impl_json;
use hybridmem_metrics::MetricsRegistry;
use hybridmem_trace::binfmt::{self, BinTraceReader, BinTraceStream};
use hybridmem_trace::{TraceGenerator, WorkloadSpec};
use hybridmem_types::{fx_hash_one, FxHashMap, PageAccess};

use crate::faultinject::FaultPlan;

/// Default byte budget of the global cache: enough for the full default
/// 1M-access × 12-workload suite (~192 MB) with headroom for sweeps.
pub const DEFAULT_BUDGET_BYTES: usize = 1 << 30;

/// Spill writes started by this process; each numbers its temp file, so
/// two writers of one trace never share one.
static SPILL_WRITES: AtomicU64 = AtomicU64::new(0);

/// Byte source behind a spill replay stream. Production replays stream
/// from the file; with a [`FaultPlan`] installed the file is pre-read so
/// the scripted read faults can corrupt the in-memory image before the
/// format layer sees it (exactly how `TraceCache::try_load_spill`
/// injects faults on the materialization path).
pub enum SpillSource {
    /// Buffered read straight from the spill file (no fault plan).
    File(BufReader<File>),
    /// Pre-read (and possibly fault-corrupted) image of the file.
    Memory(Cursor<Vec<u8>>),
}

impl Read for SpillSource {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Self::File(reader) => reader.read(buf),
            Self::Memory(cursor) => cursor.read(buf),
        }
    }
}

/// One cached trace: generated lazily, at most once, by whichever worker
/// gets there first.
struct TraceSlot {
    spec: WorkloadSpec,
    seed: u64,
    trace: OnceLock<Arc<[PageAccess]>>,
}

/// Cross-process spill effectiveness, counted outside the cache lock
/// (materialization and streaming both happen without it).
#[derive(Default)]
struct SpillCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    write_errors: AtomicU64,
}

struct Entry {
    slot: Arc<TraceSlot>,
    bytes: usize,
    last_used: u64,
}

struct Inner {
    entries: FxHashMap<u64, Entry>,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Per spill fingerprint, the lock [`TraceCache::open_stream`] holds
    /// while it generates that trace to disk, around the number of its
    /// writes that landed.
    spill_writers: FxHashMap<u64, Arc<Mutex<u64>>>,
}

/// Point-in-time effectiveness counters of a [`TraceCache`], exposed by
/// [`TraceCache::stats`] and surfaced in `results/throughput.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCacheStats {
    /// Lookups served from a resident entry.
    pub hits: u64,
    /// Lookups that had to generate (or re-generate) the trace.
    pub misses: u64,
    /// Entries evicted by the LRU budget loop.
    pub evictions: u64,
    /// Lookups refused because one trace alone exceeds the budget
    /// (callers fall back to streaming generation).
    pub oversize_rejections: u64,
    /// Traces currently resident.
    pub resident_traces: u64,
    /// Bytes currently accounted against the budget.
    pub resident_bytes: u64,
    /// Materializations and streams served from a binary spill file
    /// instead of the generator.
    pub spill_hits: u64,
    /// Materializations and streams that found no usable spill file and
    /// had to generate.
    pub spill_misses: u64,
    /// Bytes of spilled trace data loaded into memory (the safe stand-in
    /// for "bytes mmapped": the binary file is read and decoded in bulk).
    pub spill_bytes_read: u64,
    /// Bytes of trace data written to spill files by this process.
    pub spill_bytes_written: u64,
    /// Spill writes that failed (directory creation, file write, or
    /// rename) — previously swallowed silently, now counted so a
    /// campaign that quietly lost its spill acceleration is visible in
    /// `results/throughput.json`.
    pub spill_write_errors: u64,
}

impl_json!(ToJson for TraceCacheStats {
    hits,
    misses,
    evictions,
    oversize_rejections,
    resident_traces,
    resident_bytes,
    spill_hits,
    spill_misses,
    spill_bytes_read,
    spill_bytes_written,
    spill_write_errors,
});

/// A byte-budgeted, LRU-evicting cache of materialized traces.
///
/// # Examples
///
/// ```
/// use hybridmem_core::TraceCache;
/// use hybridmem_trace::parsec;
///
/// let cache = TraceCache::new(64 << 20);
/// let spec = parsec::spec("bodytrack")?.capped(5_000);
/// let first = cache.try_get(&spec, 42).expect("fits the budget");
/// let second = cache.try_get(&spec, 42).expect("cached");
/// assert!(std::sync::Arc::ptr_eq(&first, &second), "same buffer, not a copy");
/// assert_eq!(first.len() as u64, spec.total_accesses());
/// # Ok::<(), hybridmem_types::Error>(())
/// ```
pub struct TraceCache {
    inner: Mutex<Inner>,
    budget_bytes: usize,
    /// Counted outside the mutex — the oversize check rejects before
    /// locking, so this must not require the lock either.
    oversize_rejections: AtomicU64,
    /// Directory of `{fingerprint:016x}.hmtrace` spill files; `None`
    /// disables the spill entirely (in-memory cache only).
    spill_dir: Option<PathBuf>,
    spill: SpillCounters,
    /// Injected-fault schedule applied to spill reads and writes; the
    /// global cache picks it up from `HYBRIDMEM_FAULT_PLAN`.
    fault_plan: Option<Arc<FaultPlan>>,
}

impl TraceCache {
    /// Creates a cache bounded to `budget_bytes` of trace data, with the
    /// binary spill disabled.
    #[must_use]
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            #[expect(clippy::disallowed_methods, reason = "once per trace request")]
            inner: Mutex::new(Inner {
                entries: FxHashMap::default(),
                bytes: 0,
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                spill_writers: FxHashMap::default(),
            }),
            budget_bytes,
            oversize_rejections: AtomicU64::new(0),
            spill_dir: None,
            spill: SpillCounters::default(),
            fault_plan: None,
        }
    }

    /// Creates a cache that additionally spills each generated trace to a
    /// binary file under `dir` and replays from such files when present.
    #[must_use]
    pub fn with_spill_dir(budget_bytes: usize, dir: impl Into<PathBuf>) -> Self {
        Self {
            spill_dir: Some(dir.into()),
            ..Self::new(budget_bytes)
        }
    }

    /// Installs an injected-fault schedule: spill reads and writes
    /// consult `plan` before touching disk, so tests (and the CI chaos
    /// job) can script I/O errors, bit-flips, and truncations against
    /// this cache deterministically.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The spill directory from the environment: the value of
    /// `HYBRIDMEM_TRACE_SPILL_DIR` (empty string = spill disabled), or a
    /// fixed directory under the system temp dir.
    fn default_spill_dir() -> Option<PathBuf> {
        match std::env::var_os("HYBRIDMEM_TRACE_SPILL_DIR") {
            Some(dir) if dir.is_empty() => None,
            Some(dir) => Some(PathBuf::from(dir)),
            None => Some(std::env::temp_dir().join("hybridmem-trace-cache")),
        }
    }

    /// The process-wide cache used by
    /// [`ExperimentConfig::compare`](crate::ExperimentConfig::compare), the
    /// parallel matrix runner, and the sweep helpers, with
    /// [`DEFAULT_BUDGET_BYTES`] of capacity and the environment-selected
    /// spill directory (see `default_spill_dir` in the source).
    #[must_use]
    pub fn global() -> &'static Self {
        static GLOBAL: OnceLock<TraceCache> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let fault_plan = match FaultPlan::from_env() {
                Ok(plan) => plan.map(Arc::new),
                Err(e) => {
                    eprintln!("warning: ignoring malformed HYBRIDMEM_FAULT_PLAN: {e}");
                    None
                }
            };
            Self {
                spill_dir: Self::default_spill_dir(),
                fault_plan,
                ..Self::new(DEFAULT_BUDGET_BYTES)
            }
        })
    }

    /// The cache state.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned by a panicking generator.
    #[expect(
        clippy::disallowed_methods,
        clippy::expect_used,
        reason = "taken once per trace request; generators run outside it"
    )]
    fn state(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("trace cache poisoned")
    }

    /// Stable fingerprint of a `(spec, seed)` cell.
    fn fingerprint(spec: &WorkloadSpec, seed: u64) -> u64 {
        // JSON is the spec's canonical form (field order is declaration
        // order, stable across runs and platforms); hashing it sidesteps
        // WorkloadSpec's lack of `Hash` (it holds f64 fields).
        let canonical = hybridmem_json::to_string(spec);
        fx_hash_one(&(canonical, seed))
    }

    /// Byte cost of materializing `spec`'s trace, known before generating.
    fn cost_bytes(spec: &WorkloadSpec) -> usize {
        usize::try_from(spec.total_accesses())
            .unwrap_or(usize::MAX)
            .saturating_mul(std::mem::size_of::<PageAccess>())
    }

    /// The materialized trace for `(spec, seed)`, generating and caching
    /// it on first use, or `None` when the trace alone would exceed the
    /// cache budget (callers then stream the generator instead).
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned by a panicking generator.
    #[must_use]
    pub fn try_get(&self, spec: &WorkloadSpec, seed: u64) -> Option<Arc<[PageAccess]>> {
        let cost = Self::cost_bytes(spec);
        if cost > self.budget_bytes {
            #[expect(clippy::disallowed_methods, reason = "a stats counter: guards no data")]
            self.oversize_rejections.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let key = Self::fingerprint(spec, seed);
        let slot = {
            let mut guard = self.state();
            let inner = &mut *guard;
            inner.tick += 1;
            let tick = inner.tick;
            // Fingerprint collisions verify the full key; a mismatch is
            // treated as a miss and replaces the stale entry.
            let hit = match inner.entries.get_mut(&key) {
                Some(entry) if entry.slot.spec == *spec && entry.slot.seed == seed => {
                    entry.last_used = tick;
                    Some(Arc::clone(&entry.slot))
                }
                _ => None,
            };
            match hit {
                Some(slot) => {
                    inner.hits += 1;
                    slot
                }
                None => {
                    inner.misses += 1;
                    if let Some(stale) = inner.entries.remove(&key) {
                        inner.bytes -= stale.bytes;
                    }
                    while inner.bytes + cost > self.budget_bytes {
                        #[expect(
                            clippy::disallowed_methods,
                            clippy::expect_used,
                            reason = "over budget implies an entry; unique ticks fix the minimum"
                        )]
                        let victim = inner
                            .entries
                            .iter()
                            .min_by_key(|(_, entry)| entry.last_used)
                            .map(|(&k, _)| k)
                            .expect("over budget implies a resident entry");
                        #[expect(
                            clippy::expect_used,
                            reason = "the victim was just found resident"
                        )]
                        let evicted = inner.entries.remove(&victim).expect("victim resident");
                        inner.bytes -= evicted.bytes;
                        inner.evictions += 1;
                    }
                    let slot = Arc::new(TraceSlot {
                        spec: spec.clone(),
                        seed,
                        trace: OnceLock::new(),
                    });
                    inner.bytes += cost;
                    inner.entries.insert(
                        key,
                        Entry {
                            slot: Arc::clone(&slot),
                            bytes: cost,
                            last_used: tick,
                        },
                    );
                    slot
                }
            }
        };
        // Generate outside the lock: same-trace callers serialize on the
        // slot's OnceLock; different traces generate concurrently.
        Some(self.materialize(key, &slot))
    }

    /// The slot's trace, loading it from a spill file or generating (and
    /// spilling) it on first call. Concurrent callers block until the
    /// winning materializer finishes.
    fn materialize(&self, key: u64, slot: &TraceSlot) -> Arc<[PageAccess]> {
        Arc::clone(slot.trace.get_or_init(|| {
            let spec_json = Self::spec_json(&slot.spec);
            if let Some(trace) = self.try_load_spill(key, &spec_json, slot.seed) {
                return trace;
            }
            let trace: Arc<[PageAccess]> = TraceGenerator::new(slot.spec.clone(), slot.seed)
                .map(PageAccess::from)
                .collect();
            self.try_write_spill(key, &spec_json, slot.seed, trace.iter().copied());
            trace
        }))
    }

    /// Canonical spec serialization shared by the fingerprint and the
    /// spill-file header, so a spill written for one `(spec, seed)` can
    /// never verify against another.
    fn spec_json(spec: &WorkloadSpec) -> String {
        hybridmem_json::to_string(spec)
    }

    /// Path of the spill file for fingerprint `key`, when spilling is on.
    fn spill_path(&self, key: u64) -> Option<PathBuf> {
        self.spill_dir
            .as_deref()
            .map(|dir| dir.join(format!("{key:016x}.hmtrace")))
    }

    /// Reads the spill file at `path` into memory, applying any
    /// injected read faults to the image first. `None` means the file
    /// is unreadable — really or by script; the caller cannot tell the
    /// difference, which is the point.
    fn read_spill_image(&self, path: &Path) -> Option<Vec<u8>> {
        let mut bytes = std::fs::read(path).ok()?;
        if let Some(plan) = &self.fault_plan {
            plan.corrupt_spill_read(&mut bytes).ok()?;
        }
        Some(bytes)
    }

    /// Loads and verifies the spill file for `key`, counting a spill hit
    /// or miss. Any failure — absent file, truncation, bit-flip (caught
    /// by the checksum trailer), a file in an older format version, or a
    /// header naming a different `(spec, seed)` — is a miss, never an
    /// error: the caller falls back to the generator, whose spill write
    /// replaces the file.
    #[expect(clippy::disallowed_methods, reason = "a stats counter: guards no data")]
    fn try_load_spill(&self, key: u64, spec_json: &str, seed: u64) -> Option<Arc<[PageAccess]>> {
        let path = self.spill_path(key)?;
        let loaded = self
            .read_spill_image(&path)
            .and_then(|bytes| BinTraceReader::from_reader(bytes.as_slice()).ok())
            .filter(|reader| reader.header().matches(spec_json, seed));
        let Some(reader) = loaded else {
            self.spill.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        self.spill.hits.fetch_add(1, Ordering::Relaxed);
        self.spill.bytes_read.fetch_add(
            (reader.records().len() * binfmt::RECORD_BYTES) as u64,
            Ordering::Relaxed,
        );
        Some(
            reader
                .records()
                .iter()
                .map(|record| record.access())
                .collect(),
        )
    }

    /// Books one failed spill write in the stats.
    fn count_spill_write_error(&self) {
        #[expect(clippy::disallowed_methods, reason = "a stats counter: guards no data")]
        self.spill.write_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Best-effort spill write: the trace lands under a temporary name and
    /// is renamed into place so concurrent processes never observe a
    /// half-written file. The temporary name is unique per writer (process
    /// id plus a process-wide count), so concurrent writers of one trace,
    /// in one process or several, never share a file. I/O failures never
    /// propagate — the spill is an optimization, not a correctness
    /// dependency — but every failure is counted in
    /// [`TraceCacheStats::spill_write_errors`] so a campaign that quietly
    /// lost its spill acceleration is visible. Returns whether the file
    /// landed.
    fn try_write_spill<I>(&self, key: u64, spec_json: &str, seed: u64, accesses: I) -> bool
    where
        I: IntoIterator<Item = PageAccess>,
    {
        let Some(path) = self.spill_path(key) else {
            return false;
        };
        let Some(dir) = path.parent() else {
            return false;
        };
        if std::fs::create_dir_all(dir).is_err() {
            self.count_spill_write_error();
            return false;
        }
        if self
            .fault_plan
            .as_ref()
            .is_some_and(|plan| plan.fail_spill_write())
        {
            self.count_spill_write_error();
            return false;
        }
        #[expect(clippy::disallowed_methods, reason = "the count only has to be unique")]
        let writer = SPILL_WRITES.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!(
            "{key:016x}.hmtrace.tmp.{}.{writer}",
            std::process::id()
        ));
        match binfmt::write_trace_file(&tmp, spec_json, seed, key, accesses) {
            Ok(count) => {
                if std::fs::rename(&tmp, &path).is_ok() {
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "a stats counter: guards no data"
                    )]
                    self.spill.bytes_written.fetch_add(
                        count.saturating_mul(binfmt::RECORD_BYTES as u64),
                        Ordering::Relaxed,
                    );
                    return true;
                }
                self.count_spill_write_error();
                let _ = std::fs::remove_file(&tmp);
            }
            Err(_) => {
                self.count_spill_write_error();
                let _ = std::fs::remove_file(&tmp);
            }
        }
        false
    }

    /// Opens a verified spill stream at `path`. Without a fault plan
    /// this streams straight from the file; with one installed the
    /// whole file is pre-read so the scripted read faults can apply to
    /// the image, mirroring [`Self::read_spill_image`].
    fn open_spill_stream(
        &self,
        path: &Path,
        spec_json: &str,
        seed: u64,
    ) -> Option<BinTraceStream<SpillSource>> {
        let source = if self.fault_plan.is_some() {
            SpillSource::Memory(Cursor::new(self.read_spill_image(path)?))
        } else {
            SpillSource::File(BufReader::new(File::open(path).ok()?))
        };
        BinTraceStream::from_reader(source, binfmt::STREAM_CHUNK_RECORDS)
            .ok()
            .filter(|stream| stream.header().matches(spec_json, seed))
    }

    /// Opens a chunked binary replay stream for `(spec, seed)` — the path
    /// for *oversize* traces that [`try_get`](Self::try_get) refuses to
    /// materialize. An existing verified spill file is replayed directly;
    /// otherwise the trace is generated **once**, streamed to disk without
    /// ever being resident, and replayed from the file — this run and
    /// every later one. Concurrent callers that miss on one trace do not
    /// all generate it: one writes while the others wait for its rename,
    /// as [`try_get`](Self::try_get)'s callers wait on one materializer.
    /// Returns `None` when spilling is disabled or the file cannot be
    /// written (callers stream the generator instead).
    #[must_use]
    pub fn open_stream(
        &self,
        spec: &WorkloadSpec,
        seed: u64,
    ) -> Option<BinTraceStream<SpillSource>> {
        let key = Self::fingerprint(spec, seed);
        let path = self.spill_path(key)?;
        let spec_json = Self::spec_json(spec);
        let writer = self.spill_writer(key);
        // Read before looking for the file: if the count has moved by the
        // time this caller holds the lock, another caller spilled the trace
        // after this one missed it. The count is valid at every step, so a
        // lock poisoned by a panicking writer is taken over, not fatal.
        #[expect(clippy::disallowed_methods, reason = "once per stream open")]
        let landed = *writer.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(stream) = self.open_spill_stream(&path, &spec_json, seed) {
            #[expect(clippy::disallowed_methods, reason = "a stats counter: guards no data")]
            self.spill.hits.fetch_add(1, Ordering::Relaxed);
            return Some(self.count_stream_read(stream));
        }
        #[expect(clippy::disallowed_methods, reason = "a stats counter: guards no data")]
        self.spill.misses.fetch_add(1, Ordering::Relaxed);
        {
            // The first caller generates while the others block here. A
            // waiter that finds the count moved replays the new file; if
            // the write failed, the count has not moved and each waiter
            // generates in turn, as every miss did before.
            #[expect(
                clippy::disallowed_methods,
                reason = "held while one trace spills, so other openers wait, not regenerate"
            )]
            let mut writes = writer.lock().unwrap_or_else(PoisonError::into_inner);
            if *writes == landed
                && self.try_write_spill(
                    key,
                    &spec_json,
                    seed,
                    TraceGenerator::new(spec.clone(), seed).map(PageAccess::from),
                )
            {
                *writes += 1;
            }
        }
        let stream = self.open_spill_stream(&path, &spec_json, seed)?;
        Some(self.count_stream_read(stream))
    }

    /// The spill-write lock of fingerprint `key` (see `Inner::spill_writers`).
    fn spill_writer(&self, key: u64) -> Arc<Mutex<u64>> {
        let mut inner = self.state();
        #[expect(clippy::disallowed_methods, reason = "one lock per spilled trace")]
        let writer = inner
            .spill_writers
            .entry(key)
            .or_insert_with(|| Arc::new(Mutex::new(0)));
        Arc::clone(writer)
    }

    /// Books the records `stream` will replay as spill bytes read.
    fn count_stream_read(
        &self,
        stream: BinTraceStream<SpillSource>,
    ) -> BinTraceStream<SpillSource> {
        #[expect(clippy::disallowed_methods, reason = "a stats counter: guards no data")]
        self.spill.bytes_read.fetch_add(
            stream
                .remaining()
                .saturating_mul(binfmt::RECORD_BYTES as u64),
            Ordering::Relaxed,
        );
        stream
    }

    /// Number of resident traces (diagnostics).
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state().entries.len()
    }

    /// True when no traces are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of trace data currently accounted against the budget.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.state().bytes
    }

    /// Snapshot of the cache's effectiveness counters.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned.
    #[must_use]
    #[expect(clippy::disallowed_methods, reason = "stats counters: guard no data")]
    pub fn stats(&self) -> TraceCacheStats {
        let inner = self.state();
        TraceCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            oversize_rejections: self.oversize_rejections.load(Ordering::Relaxed),
            resident_traces: inner.entries.len() as u64,
            resident_bytes: inner.bytes as u64,
            spill_hits: self.spill.hits.load(Ordering::Relaxed),
            spill_misses: self.spill.misses.load(Ordering::Relaxed),
            spill_bytes_read: self.spill.bytes_read.load(Ordering::Relaxed),
            spill_bytes_written: self.spill.bytes_written.load(Ordering::Relaxed),
            spill_write_errors: self.spill.write_errors.load(Ordering::Relaxed),
        }
    }

    /// Exports the current [`TraceCacheStats`] into `registry` under
    /// `trace_cache.*` names.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned.
    pub fn export_into(&self, registry: &mut MetricsRegistry) {
        let stats = self.stats();
        registry.add("trace_cache.hits", stats.hits);
        registry.add("trace_cache.misses", stats.misses);
        registry.add("trace_cache.evictions", stats.evictions);
        registry.add("trace_cache.oversize_rejections", stats.oversize_rejections);
        registry.add("trace_cache.spill_hits", stats.spill_hits);
        registry.add("trace_cache.spill_misses", stats.spill_misses);
        registry.add("trace_cache.spill_bytes_read", stats.spill_bytes_read);
        registry.add("trace_cache.spill_bytes_written", stats.spill_bytes_written);
        registry.add("trace_cache.spill_write_errors", stats.spill_write_errors);
        registry.set_gauge("trace_cache.resident_traces", stats.resident_traces as f64);
        registry.set_gauge("trace_cache.resident_bytes", stats.resident_bytes as f64);
    }
}

impl std::fmt::Debug for TraceCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCache")
            .field("budget_bytes", &self.budget_bytes)
            .field("resident_bytes", &self.resident_bytes())
            .field("traces", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridmem_trace::parsec;

    fn spec(cap: u64) -> WorkloadSpec {
        parsec::spec("bodytrack").unwrap().capped(cap)
    }

    #[test]
    fn caches_and_shares_one_buffer() {
        let cache = TraceCache::new(64 << 20);
        let s = spec(4_000);
        let a = cache.try_get(&s, 42).unwrap();
        let b = cache.try_get(&s, 42).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.resident_bytes(), TraceCache::cost_bytes(&s));
    }

    #[test]
    fn matches_streaming_generation_exactly() {
        let s = spec(3_000);
        let cached = TraceCache::new(64 << 20).try_get(&s, 7).unwrap();
        let streamed: Vec<PageAccess> = TraceGenerator::new(s.clone(), 7)
            .map(PageAccess::from)
            .collect();
        assert_eq!(&cached[..], &streamed[..]);
    }

    #[test]
    fn different_seeds_are_distinct_entries() {
        let cache = TraceCache::new(64 << 20);
        let s = spec(2_000);
        let a = cache.try_get(&s, 1).unwrap();
        let b = cache.try_get(&s, 2).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(&a[..], &b[..]);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn oversized_trace_is_refused_not_materialized() {
        let cache = TraceCache::new(1024);
        assert!(cache.try_get(&spec(10_000), 42).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn evicts_least_recently_used_under_pressure() {
        let s1 = spec(2_000);
        let s2 = parsec::spec("raytrace").unwrap().capped(2_000);
        let s3 = parsec::spec("canneal").unwrap().capped(2_000);
        let per_trace = TraceCache::cost_bytes(&s1);
        // Budget fits exactly two traces of this size.
        let cache = TraceCache::new(per_trace * 2 + per_trace / 2);
        cache.try_get(&s1, 42).unwrap();
        cache.try_get(&s2, 42).unwrap();
        cache.try_get(&s1, 42).unwrap(); // refresh s1 → s2 is now LRU
        cache.try_get(&s3, 42).unwrap(); // evicts s2
        assert_eq!(cache.len(), 2);
        let s1_again = cache.try_get(&s1, 42).unwrap();
        let s1_expected: Vec<PageAccess> = TraceGenerator::new(s1.clone(), 42)
            .map(PageAccess::from)
            .collect();
        assert_eq!(&s1_again[..], &s1_expected[..], "s1 survived the eviction");
    }

    #[test]
    fn stats_track_hits_misses_evictions_and_oversize() {
        let s1 = spec(2_000);
        let s2 = parsec::spec("raytrace").unwrap().capped(2_000);
        let per_trace = TraceCache::cost_bytes(&s1);
        let cache = TraceCache::new(per_trace + per_trace / 2);
        assert_eq!(cache.stats(), TraceCacheStats::default());

        cache.try_get(&s1, 42).unwrap(); // miss
        cache.try_get(&s1, 42).unwrap(); // hit
        cache.try_get(&s2, 42).unwrap(); // miss + evicts s1
        assert!(cache.try_get(&spec(1_000_000), 42).is_none()); // oversize

        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.oversize_rejections, 1);
        assert_eq!(stats.resident_traces, 1);
        assert_eq!(stats.resident_bytes, per_trace as u64);
    }

    #[test]
    fn stats_export_under_trace_cache_names() {
        let cache = TraceCache::new(64 << 20);
        cache.try_get(&spec(1_500), 42).unwrap();
        cache.try_get(&spec(1_500), 42).unwrap();
        let mut registry = MetricsRegistry::new();
        cache.export_into(&mut registry);
        assert_eq!(registry.counter("trace_cache.hits"), 1);
        assert_eq!(registry.counter("trace_cache.misses"), 1);
        assert!((registry.gauge("trace_cache.resident_traces") - 1.0).abs() < f64::EPSILON);
    }

    /// A unique spill directory per test, removed on drop.
    struct SpillDir(PathBuf);

    impl SpillDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("hybridmem-spill-test-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            Self(dir)
        }
    }

    impl Drop for SpillDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn spill_round_trips_across_cache_instances() {
        let dir = SpillDir::new("roundtrip");
        let s = spec(3_000);

        let first = TraceCache::with_spill_dir(64 << 20, &dir.0);
        let generated = first.try_get(&s, 42).unwrap();
        let stats = first.stats();
        assert_eq!(stats.spill_hits, 0);
        assert_eq!(stats.spill_misses, 1);
        assert!(stats.spill_bytes_written > 0, "trace was spilled");

        // A fresh cache (≈ a fresh process) replays the spill file.
        let second = TraceCache::with_spill_dir(64 << 20, &dir.0);
        let replayed = second.try_get(&s, 42).unwrap();
        assert_eq!(&generated[..], &replayed[..]);
        let stats = second.stats();
        assert_eq!(stats.spill_hits, 1);
        assert_eq!(stats.spill_misses, 0);
        assert_eq!(stats.spill_bytes_read, 3_000 * 16);
    }

    #[test]
    fn corrupt_or_mismatched_spill_degrades_to_generation() {
        let dir = SpillDir::new("corrupt");
        let s = spec(2_000);
        let cache = TraceCache::with_spill_dir(64 << 20, &dir.0);
        cache.try_get(&s, 42).unwrap();

        // Truncate the spill file; a fresh cache must fall back cleanly.
        let file = std::fs::read_dir(&dir.0)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "hmtrace"))
            .expect("one spill file");
        let bytes = std::fs::read(&file).unwrap();
        std::fs::write(&file, &bytes[..bytes.len() / 2]).unwrap();

        let fresh = TraceCache::with_spill_dir(64 << 20, &dir.0);
        let replayed = fresh.try_get(&s, 42).unwrap();
        let expected: Vec<PageAccess> = TraceGenerator::new(s.clone(), 42)
            .map(PageAccess::from)
            .collect();
        assert_eq!(&replayed[..], &expected[..]);
        assert_eq!(fresh.stats().spill_misses, 1);

        // A different seed never verifies against the repaired file.
        let other = TraceCache::with_spill_dir(64 << 20, &dir.0);
        other.try_get(&s, 7).unwrap();
        assert_eq!(other.stats().spill_hits, 0);
    }

    #[test]
    fn open_stream_replays_exactly_without_materializing() {
        let dir = SpillDir::new("stream");
        let s = spec(4_000);
        let cache = TraceCache::with_spill_dir(64 << 20, &dir.0);

        // First open generates straight to disk; second replays the file.
        for round in 0..2 {
            let mut stream = cache.open_stream(&s, 42).expect("spill dir configured");
            assert_eq!(stream.remaining(), 4_000);
            let mut streamed = Vec::new();
            while let Some(chunk) = stream.next_chunk().unwrap() {
                streamed.extend(chunk.iter().map(|r| r.access()));
            }
            let expected: Vec<PageAccess> = TraceGenerator::new(s.clone(), 42)
                .map(PageAccess::from)
                .collect();
            assert_eq!(streamed, expected, "round {round}");
        }
        let stats = cache.stats();
        assert_eq!((stats.spill_hits, stats.spill_misses), (1, 1));
        assert!(cache.is_empty(), "streaming never materializes");
    }

    #[test]
    fn spill_disabled_cache_reports_no_stream() {
        let cache = TraceCache::new(64 << 20);
        assert!(cache.open_stream(&spec(1_000), 42).is_none());
        let stats = cache.stats();
        assert_eq!(stats.spill_hits + stats.spill_misses, 0);
    }

    #[test]
    fn concurrent_access_yields_one_shared_buffer() {
        let cache = TraceCache::new(64 << 20);
        let s = spec(5_000);
        let traces: Vec<Arc<[PageAccess]>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| cache.try_get(&s, 42).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for trace in &traces[1..] {
            assert!(Arc::ptr_eq(&traces[0], trace));
        }
        assert_eq!(cache.len(), 1, "one entry despite 8 concurrent callers");
    }

    #[test]
    fn every_spill_corruption_falls_back_to_generation() {
        let s = spec(2_500);
        let expected: Vec<PageAccess> = TraceGenerator::new(s.clone(), 42)
            .map(PageAccess::from)
            .collect();
        type Corrupt = Box<dyn Fn(&Path)>;
        let corruptions: Vec<(&str, Corrupt)> = vec![
            (
                "truncated",
                Box::new(|path| {
                    let bytes = std::fs::read(path).unwrap();
                    std::fs::write(path, &bytes[..bytes.len() / 3]).unwrap();
                }),
            ),
            (
                "bit-flipped",
                Box::new(|path| {
                    let mut bytes = std::fs::read(path).unwrap();
                    let mid = bytes.len() / 2;
                    bytes[mid] ^= 0x40;
                    std::fs::write(path, &bytes).unwrap();
                }),
            ),
            (
                "wrong-fingerprint",
                Box::new(|path| {
                    // A valid file for a *different* workload at this
                    // path: the header never verifies, exactly like a
                    // fingerprint collision.
                    let other = parsec::spec("canneal").unwrap().capped(100);
                    let other_json = hybridmem_json::to_string(&other);
                    binfmt::write_trace_file(
                        path,
                        &other_json,
                        9,
                        TraceCache::fingerprint(&other, 9),
                        TraceGenerator::new(other, 9).map(PageAccess::from),
                    )
                    .unwrap();
                }),
            ),
            (
                "zero-length",
                Box::new(|path| std::fs::write(path, []).unwrap()),
            ),
        ];
        for (tag, corrupt) in corruptions {
            let dir = SpillDir::new(&format!("fallback-{tag}"));
            let writer = TraceCache::with_spill_dir(64 << 20, &dir.0);
            writer.try_get(&s, 42).unwrap();
            let path = writer.spill_path(TraceCache::fingerprint(&s, 42)).unwrap();
            assert!(path.exists(), "{tag}: spill file was written");
            corrupt(&path);

            let fresh = TraceCache::with_spill_dir(64 << 20, &dir.0);
            let replayed = fresh.try_get(&s, 42).unwrap();
            assert_eq!(&replayed[..], &expected[..], "{tag}: byte-identical");
            let stats = fresh.stats();
            assert_eq!(
                (stats.spill_hits, stats.spill_misses),
                (0, 1),
                "{tag}: counted miss, no hit"
            );
        }
    }

    #[test]
    fn stale_version2_spill_is_regenerated_as_version3() {
        let dir = SpillDir::new("stale-v2");
        let s = spec(2_000);
        let key = TraceCache::fingerprint(&s, 42);
        let expected: Vec<PageAccess> = TraceGenerator::new(s.clone(), 42)
            .map(PageAccess::from)
            .collect();
        let cache = TraceCache::with_spill_dir(64 << 20, &dir.0);
        let path = cache.spill_path(key).unwrap();

        // A version-2 file at the fingerprint path: the same layout with
        // version 2 in the header and a byte-wise FNV-1a 64 trailer.
        std::fs::create_dir_all(&dir.0).unwrap();
        binfmt::write_trace_file(
            &path,
            &TraceCache::spec_json(&s),
            42,
            key,
            expected.iter().copied(),
        )
        .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        let trailer = bytes.len() - binfmt::TRAILER_BYTES;
        let body = trailer - expected.len() * binfmt::RECORD_BYTES;
        let bytewise = binfmt::fnv1a64_update(binfmt::FNV1A64_SEED, &bytes[body..trailer]);
        bytes[trailer..].copy_from_slice(&bytewise.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let replayed = cache.try_get(&s, 42).unwrap();
        assert_eq!(&replayed[..], &expected[..], "byte-identical trace");
        let stats = cache.stats();
        assert_eq!((stats.spill_hits, stats.spill_misses), (0, 1));
        let healed = std::fs::read(&path).unwrap();
        assert_eq!(healed[8..12], binfmt::VERSION.to_le_bytes());

        let fresh = TraceCache::with_spill_dir(64 << 20, &dir.0);
        assert_eq!(&fresh.try_get(&s, 42).unwrap()[..], &expected[..]);
        let stats = fresh.stats();
        assert_eq!((stats.spill_hits, stats.spill_misses), (1, 0));
    }

    #[test]
    fn injected_read_faults_degrade_to_counted_misses() {
        let dir = SpillDir::new("fault-read");
        let s = spec(2_000);
        let expected: Vec<PageAccess> = TraceGenerator::new(s.clone(), 42)
            .map(PageAccess::from)
            .collect();
        // Write a clean spill first.
        TraceCache::with_spill_dir(64 << 20, &dir.0)
            .try_get(&s, 42)
            .unwrap();

        // Attempts: 1 = outright read error, 2 = bit-flip (caught by the
        // checksum trailer), 3 = truncation, 4 = clean hit.
        let plan = Arc::new(
            FaultPlan::parse("spill-read-error@1; bit-flip@2:100; truncate@3:48").unwrap(),
        );
        for (round, fault_expected) in [(1, true), (2, true), (3, true), (4, false)] {
            let cache =
                TraceCache::with_spill_dir(64 << 20, &dir.0).with_fault_plan(Arc::clone(&plan));
            let replayed = cache.try_get(&s, 42).unwrap();
            assert_eq!(
                &replayed[..],
                &expected[..],
                "round {round}: byte-identical"
            );
            let stats = cache.stats();
            if fault_expected {
                assert_eq!(
                    (stats.spill_hits, stats.spill_misses),
                    (0, 1),
                    "round {round}: fault degrades to a miss"
                );
            } else {
                assert_eq!(
                    (stats.spill_hits, stats.spill_misses),
                    (1, 0),
                    "round {round}: schedule exhausted, clean hit"
                );
            }
        }
    }

    #[test]
    fn injected_write_faults_are_counted_and_leave_no_file() {
        let dir = SpillDir::new("fault-write");
        let s = spec(1_500);
        let plan = Arc::new(FaultPlan::parse("spill-write-error@1").unwrap());
        let cache = TraceCache::with_spill_dir(64 << 20, &dir.0).with_fault_plan(Arc::clone(&plan));
        let generated = cache.try_get(&s, 42).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.spill_write_errors, 1);
        assert_eq!(stats.spill_bytes_written, 0);
        let path = cache.spill_path(TraceCache::fingerprint(&s, 42)).unwrap();
        assert!(!path.exists(), "failed write leaves no spill file");

        // The second write attempt (fresh cache, same plan) succeeds.
        let retry = TraceCache::with_spill_dir(64 << 20, &dir.0).with_fault_plan(Arc::clone(&plan));
        let replayed = retry.try_get(&s, 42).unwrap();
        assert_eq!(&generated[..], &replayed[..]);
        assert!(path.exists(), "second attempt spills normally");
        assert_eq!(retry.stats().spill_write_errors, 0);
    }

    #[test]
    fn open_stream_applies_injected_read_faults() {
        let dir = SpillDir::new("fault-stream");
        let s = spec(3_000);
        // Write a clean spill via a plain streaming open.
        TraceCache::with_spill_dir(64 << 20, &dir.0)
            .open_stream(&s, 42)
            .expect("spill dir configured");

        // Attempt 1 truncates the image mid-record: the open fails, the
        // cache regenerates the file, and attempt 2 replays it cleanly.
        let plan = Arc::new(FaultPlan::parse("truncate@1:100").unwrap());
        let cache = TraceCache::with_spill_dir(64 << 20, &dir.0).with_fault_plan(Arc::clone(&plan));
        let mut stream = cache.open_stream(&s, 42).expect("regenerated after fault");
        let mut streamed = Vec::new();
        while let Some(chunk) = stream.next_chunk().unwrap() {
            streamed.extend(chunk.iter().map(|r| r.access()));
        }
        let expected: Vec<PageAccess> = TraceGenerator::new(s.clone(), 42)
            .map(PageAccess::from)
            .collect();
        assert_eq!(streamed, expected);
        let stats = cache.stats();
        assert_eq!((stats.spill_hits, stats.spill_misses), (0, 1));
    }

    #[test]
    fn spill_write_errors_export_under_trace_cache_names() {
        let dir = SpillDir::new("fault-export");
        let plan = Arc::new(FaultPlan::parse("spill-write-error@1").unwrap());
        let cache = TraceCache::with_spill_dir(64 << 20, &dir.0).with_fault_plan(plan);
        cache.try_get(&spec(1_000), 42).unwrap();
        let mut registry = MetricsRegistry::new();
        cache.export_into(&mut registry);
        assert_eq!(registry.counter("trace_cache.spill_write_errors"), 1);
    }

    #[test]
    fn concurrent_spill_writers_of_one_trace_use_their_own_temp_files() {
        // Both writers stop at a barrier halfway through the trace, so both
        // temp files are open and half written at once. Writers that shared
        // one temp name would both rename it, and the second rename fails.
        let dir = SpillDir::new("two-writers");
        let s = spec(4_000);
        let key = TraceCache::fingerprint(&s, 42);
        let spec_json = TraceCache::spec_json(&s);
        let expected: Vec<PageAccess> = TraceGenerator::new(s.clone(), 42)
            .map(PageAccess::from)
            .collect();
        let cache = TraceCache::with_spill_dir(64 << 20, &dir.0);
        let halfway = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let accesses = expected.iter().enumerate().map(|(i, &access)| {
                        if i == expected.len() / 2 {
                            halfway.wait();
                        }
                        access
                    });
                    cache.try_write_spill(key, &spec_json, 42, accesses);
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.spill_write_errors, 0);
        assert_eq!(stats.spill_bytes_written, 2 * 4_000 * 16);
        let mut stream = cache.open_stream(&s, 42).expect("spill file landed");
        let mut streamed = Vec::new();
        while let Some(chunk) = stream.next_chunk().unwrap() {
            streamed.extend(chunk.iter().map(|r| r.access()));
        }
        assert_eq!(streamed, expected);
        let leftovers: Vec<_> = std::fs::read_dir(&dir.0)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|name| name.to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
    }

    #[test]
    fn concurrent_stream_opens_generate_an_oversize_trace_once() {
        let dir = SpillDir::new("eight-openers");
        let s = spec(20_000);
        let expected: Vec<PageAccess> = TraceGenerator::new(s.clone(), 42)
            .map(PageAccess::from)
            .collect();
        // A budget below one trace: the trace is oversize, so it can only
        // be streamed from its spill.
        let cache = TraceCache::with_spill_dir(1024, &dir.0);
        let start = std::sync::Barrier::new(8);
        let streams: Vec<Vec<PageAccess>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let mut stream = cache.open_stream(&s, 42).expect("spill dir configured");
                        let mut streamed = Vec::new();
                        while let Some(chunk) = stream.next_chunk().unwrap() {
                            streamed.extend(chunk.iter().map(|r| r.access()));
                        }
                        streamed
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for streamed in &streams {
            assert_eq!(streamed, &expected);
        }
        let stats = cache.stats();
        assert_eq!(
            stats.spill_bytes_written,
            20_000 * 16,
            "one writer generated"
        );
        assert_eq!(stats.spill_write_errors, 0);
        assert_eq!(stats.spill_hits + stats.spill_misses, 8);
        assert!(cache.is_empty(), "streaming never materializes");
    }
}
