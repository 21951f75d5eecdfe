//! A zero-dependency span profiler with Chrome trace-event export.
//!
//! The rest of this crate is wall-clock-free by design; this module is
//! the **one deliberate exception**, and it sits strictly outside the
//! determinism boundary: span timings never feed back into simulation
//! results, metrics JSONL, or the page ledger — they only describe how
//! long the *harness* (matrix scheduling, trace materialization, warmup,
//! measured runs, window flushes) took on this particular machine. Every
//! `Instant::now` call site below carries its own reasoned
//! `#[expect(clippy::disallowed_methods)]`, so clippy keeps rejecting
//! wall-clock reads anywhere else.
//!
//! Spans accumulate in a mutex-guarded vector (cheap enough for the
//! coarse, per-phase granularity used here — this is not a sampling
//! profiler) and serialize with [`SpanProfiler::write_chrome_trace`] to the Chrome
//! trace-event JSON format, which loads directly in
//! [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`.
//!
//! # Examples
//!
//! ```
//! use hybridmem_metrics::SpanProfiler;
//!
//! let profiler = SpanProfiler::new();
//! {
//!     let _span = profiler.span("scheduler", "cell bodytrack/two-lru", 1);
//!     // ... timed work ...
//! }
//! let mut json = Vec::new();
//! profiler.write_chrome_trace(&mut json).unwrap();
//! assert!(String::from_utf8(json).unwrap().contains("\"traceEvents\""));
//! ```

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

use hybridmem_json::Json;

/// One completed span, in microseconds since the profiler's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name as shown on the timeline (e.g. `cell bodytrack/two-lru`).
    pub name: String,
    /// Category for Perfetto filtering (e.g. `scheduler`, `simulate`).
    pub cat: &'static str,
    /// Logical thread lane: 0 = coordinator, `n` = worker *n*.
    pub tid: u64,
    /// Start, µs since the profiler was created.
    pub ts_micros: u64,
    /// Duration in µs.
    pub dur_micros: u64,
}

/// A wall-clock span collector for harness phases.
///
/// Shared by reference across worker threads; [`SpanProfiler::span`]
/// returns an RAII guard that records on drop. When no profiler is
/// requested (`--profile-out` absent) none of this exists — call sites
/// hold an `Option<&SpanProfiler>` and skip the lock entirely.
#[derive(Debug)]
pub struct SpanProfiler {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
}

impl SpanProfiler {
    /// Creates a profiler whose epoch (trace time zero) is *now*.
    #[must_use]
    pub fn new() -> Self {
        Self {
            #[expect(clippy::disallowed_methods, reason = "no simulated result reads it")]
            epoch: Instant::now(),
            #[expect(clippy::disallowed_methods, reason = "once per closed span or export")]
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Starts a span on logical lane `tid`; it records itself when the
    /// returned guard drops.
    #[must_use]
    pub fn span(&self, cat: &'static str, name: impl Into<String>, tid: u64) -> SpanGuard<'_> {
        SpanGuard {
            profiler: self,
            cat,
            name: name.into(),
            tid,
            #[expect(clippy::disallowed_methods, reason = "no simulated result reads it")]
            start: Instant::now(),
        }
    }

    /// Records an already-measured span directly.
    pub fn record(&self, record: SpanRecord) {
        self.lock().push(record);
    }

    /// Completed spans so far, in recording order.
    #[must_use]
    pub fn records(&self) -> Vec<SpanRecord> {
        self.lock().clone()
    }

    /// Serializes every span recorded so far as Chrome trace-event JSON
    /// (`{"displayTimeUnit":"ms","traceEvents":[...]}`): one complete
    /// (`"ph":"X"`) event per span plus one thread-name metadata
    /// (`"ph":"M"`) event per lane. The output loads in Perfetto and
    /// `chrome://tracing`; it reflects wall-clock and is **never**
    /// compared for determinism.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `writer`.
    pub fn write_chrome_trace<W: Write>(&self, writer: &mut W) -> std::io::Result<()> {
        let spans = self.records();
        let mut lanes: Vec<u64> = spans.iter().map(|s| s.tid).collect();
        lanes.sort_unstable();
        lanes.dedup();
        let complete = spans.iter().map(|span| {
            Json::object([
                ("name", Json::str(span.name.as_str())),
                ("cat", Json::str(span.cat)),
                ("ph", Json::str("X")),
                ("ts", Json::u64(span.ts_micros)),
                ("dur", Json::u64(span.dur_micros)),
                ("pid", Json::u64(1)),
                ("tid", Json::u64(span.tid)),
            ])
        });
        let metadata = lanes.into_iter().map(|tid| {
            let lane = if tid == 0 {
                "coordinator".to_owned()
            } else {
                format!("worker-{tid}")
            };
            Json::object([
                ("name", Json::str("thread_name")),
                ("ph", Json::str("M")),
                ("pid", Json::u64(1)),
                ("tid", Json::u64(tid)),
                ("args", Json::object([("name", Json::str(lane))])),
            ])
        });
        let trace = Json::object([
            ("displayTimeUnit", Json::str("ms")),
            (
                "traceEvents",
                Json::Array(complete.chain(metadata).collect()),
            ),
        ]);
        writer.write_all(trace.emit().as_bytes())
    }

    /// The span vector, recovered even if a panicking thread poisoned
    /// the mutex — profiling must never abort an experiment.
    #[expect(clippy::disallowed_methods, reason = "once per closed span or export")]
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<SpanRecord>> {
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl Default for SpanProfiler {
    fn default() -> Self {
        Self::new()
    }
}

/// RAII guard returned by [`SpanProfiler::span`]; records the span when
/// dropped.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    profiler: &'a SpanProfiler,
    cat: &'static str,
    name: String,
    tid: u64,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        #[expect(clippy::disallowed_methods, reason = "no simulated result reads it")]
        let end = Instant::now();
        #[expect(clippy::cast_possible_truncation, reason = "clamped to u64::MAX first")]
        let ts = self
            .start
            .duration_since(self.profiler.epoch)
            .as_micros()
            .min(u128::from(u64::MAX)) as u64;
        #[expect(clippy::cast_possible_truncation, reason = "clamped to u64::MAX first")]
        let dur = end
            .duration_since(self.start)
            .as_micros()
            .min(u128::from(u64::MAX)) as u64;
        self.profiler.record(SpanRecord {
            name: std::mem::take(&mut self.name),
            cat: self.cat,
            tid: self.tid,
            ts_micros: ts,
            dur_micros: dur,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridmem_json::parse;

    #[test]
    fn spans_record_on_drop_in_order() {
        let profiler = SpanProfiler::new();
        {
            let _outer = profiler.span("phase", "outer", 0);
            let _inner = profiler.span("phase", "inner", 1);
        }
        let records = profiler.records();
        assert_eq!(records.len(), 2);
        // Guards drop in reverse declaration order.
        assert_eq!(records[0].name, "inner");
        assert_eq!(records[1].name, "outer");
        assert_eq!(records[0].tid, 1);
        assert!(records[1].dur_micros >= records[0].dur_micros);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_complete_and_metadata_events() {
        let profiler = SpanProfiler::new();
        drop(profiler.span("scheduler", "cell \"a\"/two-lru", 2));
        profiler.record(SpanRecord {
            name: "warmup".to_owned(),
            cat: "simulate",
            tid: 0,
            ts_micros: 10,
            dur_micros: 25,
        });
        let mut bytes = Vec::new();
        profiler.write_chrome_trace(&mut bytes).unwrap();
        let parsed = parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert_eq!(parsed["displayTimeUnit"], "ms");
        let events = parsed["traceEvents"].as_array().unwrap();
        // 2 spans + 2 thread-name metadata events (lanes 0 and 2).
        assert_eq!(events.len(), 4);
        let complete: Vec<&Json> = events.iter().filter(|e| e["ph"] == "X").collect();
        assert_eq!(complete.len(), 2);
        for event in &complete {
            assert!(event["ts"].as_u64().is_some());
            assert!(event["dur"].as_u64().is_some());
            assert_eq!(event["pid"], 1);
        }
        assert!(complete.iter().any(|e| e["name"] == "cell \"a\"/two-lru"));
        let meta: Vec<&Json> = events.iter().filter(|e| e["ph"] == "M").collect();
        assert_eq!(meta.len(), 2);
        assert!(meta
            .iter()
            .any(|e| e["args"]["name"] == "coordinator" && e["tid"] == 0));
        assert!(meta
            .iter()
            .any(|e| e["args"]["name"] == "worker-2" && e["tid"] == 2));
    }

    #[test]
    fn empty_profiler_writes_an_empty_event_array() {
        let profiler = SpanProfiler::new();
        let mut bytes = Vec::new();
        profiler.write_chrome_trace(&mut bytes).unwrap();
        assert_eq!(bytes, br#"{"displayTimeUnit":"ms","traceEvents":[]}"#);
    }
}
