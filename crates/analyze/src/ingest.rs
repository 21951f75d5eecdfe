//! Input loading: format sniffing over the telemetry the engine emits.
//!
//! Three producers feed the analyzer, each recognizable without a flag:
//!
//! * windowed-metrics JSONL — one `IntervalRecord` object per line,
//!   marked by the `interval` field;
//! * ledger JSONL — one `LedgerReport` object per line, marked by the
//!   `summary` field (detail pages are ignored; only the roll-up counts
//!   feed the diff);
//! * `throughput.json` / a bare `MetricsSnapshot` — histogram quantiles
//!   for the `analyze metrics` table.
//!
//! `IntervalRecord` is `hybridmem_core::IntervalRecord`'s JSON shape;
//! the analyzer reads it structurally so it stays zero-dependency.

use crate::json::{parse, Json};
use crate::report::ANALYZE_SCHEMA;

/// One windowed-metrics record (the fields the analyzer consumes).
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalStat {
    /// Workload name.
    pub workload: String,
    /// Policy name.
    pub policy: String,
    /// Window ordinal.
    pub interval: u64,
    /// Demand accesses in the window.
    pub accesses: u64,
    /// Page faults in the window.
    pub faults: u64,
    /// DRAM hits (reads + writes).
    pub dram_hits: u64,
    /// NVM hits (reads + writes).
    pub nvm_hits: u64,
    /// NVM→DRAM migrations.
    pub migrations_to_dram: u64,
    /// DRAM→NVM migrations.
    pub migrations_to_nvm: u64,
    /// Disk fills (both tiers).
    pub fills: u64,
    /// Evictions to disk.
    pub evictions: u64,
    /// End-of-window DRAM occupancy, pages.
    pub dram_occupancy: u64,
    /// End-of-window NVM occupancy, pages.
    pub nvm_occupancy: u64,
    /// Window hit ratio.
    pub hit_ratio: f64,
    /// Window Eq. 1 AMAT, ns/request.
    pub amat_ns: f64,
    /// Window Eq. 2 dynamic APPR, nJ/request.
    pub appr_nj: f64,
}

/// One ledger roll-up (the summary counts; detail pages are ignored).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerStat {
    /// Workload name.
    pub workload: String,
    /// Policy name.
    pub policy: String,
    /// Demand accesses observed (warmup included).
    pub accesses: u64,
    /// Distinct pages touched.
    pub pages: u64,
    /// Page faults.
    pub faults: u64,
    /// Promotions (read + write + unattributed).
    pub promotions: u64,
    /// Demotions (fault-fill + promotion-swap).
    pub demotions: u64,
    /// Evictions to disk.
    pub evictions: u64,
    /// Ping-pong round trips.
    pub ping_pongs: u64,
}

/// One histogram row of a metrics snapshot, quantiles included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramStat {
    /// Metric name.
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Exact-within-bucket-bounds quantiles (0 when absent: snapshots
    /// written before the quantile export).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// A metrics snapshot reduced to what the tables show.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsStat {
    /// Counters, in the snapshot's (sorted) order.
    pub counters: Vec<(String, u64)>,
    /// Gauges, in the snapshot's (sorted) order.
    pub gauges: Vec<(String, f64)>,
    /// Histograms with quantiles.
    pub histograms: Vec<HistogramStat>,
}

/// One successfully sniffed input.
#[derive(Debug, Clone, PartialEq)]
pub enum Input {
    /// Windowed-metrics JSONL.
    Intervals(Vec<IntervalStat>),
    /// Ledger JSONL (roll-ups only).
    Ledgers(Vec<LedgerStat>),
    /// A metrics snapshot (bare, or inside `throughput.json`).
    Metrics(MetricsStat),
    /// A `hybridmem-analyze-v1` report (for round-trip checking).
    Report(Json),
}

/// A loaded input plus the ingest warnings gathered on the way: JSONL
/// lines that were malformed or partial are skipped and reported here
/// (one message each, in file order) instead of failing the whole
/// ingest — a long campaign's telemetry with a torn tail line still
/// analyzes.
#[derive(Debug, Clone, PartialEq)]
pub struct Loaded {
    /// The sniffed input.
    pub input: Input,
    /// One message per skipped JSONL line.
    pub warnings: Vec<String>,
}

/// Sniffs and loads one input file's text.
///
/// # Errors
///
/// Returns a message naming `label` when the text is neither valid JSON
/// nor JSONL, parses but matches no known producer, or (for JSONL)
/// contains no usable line at all. Individually malformed JSONL lines
/// degrade to [`Loaded::warnings`] instead.
pub fn load(label: &str, text: &str) -> Result<Loaded, String> {
    if let Ok(doc) = parse(text) {
        let input = classify_document(label, &doc)
            .ok_or_else(|| format!("{label}: JSON parses but matches no known schema"))??;
        return Ok(Loaded {
            input,
            warnings: Vec::new(),
        });
    }
    load_jsonl(label, text)
}

/// Classifies a single parsed document. `None` = unrecognized;
/// `Some(Err)` = recognized but malformed.
fn classify_document(label: &str, doc: &Json) -> Option<Result<Input, String>> {
    if doc.get("schema").and_then(Json::as_str) == Some(ANALYZE_SCHEMA) {
        return Some(Ok(Input::Report(doc.clone())));
    }
    if doc.get("histograms").is_some() {
        return Some(metrics_stat(label, doc).map(Input::Metrics));
    }
    if let Some(snapshot) = doc.get("metrics").filter(|m| m.get("histograms").is_some()) {
        return Some(metrics_stat(label, snapshot).map(Input::Metrics));
    }
    if doc.get("interval").is_some() {
        return Some(interval_stat(label, doc).map(|stat| Input::Intervals(vec![stat])));
    }
    if doc.get("summary").is_some() {
        return Some(ledger_stat(label, doc).map(|stat| Input::Ledgers(vec![stat])));
    }
    None
}

/// Loads JSONL: every non-empty line an object, classified per line.
/// Malformed, partial, and unrecognized lines are skipped with a
/// warning; the ingest only fails when no line is usable or the usable
/// lines mix interval and ledger records.
fn load_jsonl(label: &str, text: &str) -> Result<Loaded, String> {
    let mut intervals = Vec::new();
    let mut ledgers = Vec::new();
    let mut warnings = Vec::new();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = match parse(line) {
            Ok(doc) => doc,
            Err(e) => {
                warnings.push(format!("{label}:{}: {e}", number + 1));
                continue;
            }
        };
        if doc.get("interval").is_some() {
            match interval_stat(label, &doc) {
                Ok(stat) => intervals.push(stat),
                Err(e) => warnings.push(format!("{e} (line {})", number + 1)),
            }
        } else if doc.get("summary").is_some() {
            match ledger_stat(label, &doc) {
                Ok(stat) => ledgers.push(stat),
                Err(e) => warnings.push(format!("{e} (line {})", number + 1)),
            }
        } else {
            warnings.push(format!(
                "{label}:{}: line matches no known JSONL schema",
                number + 1
            ));
        }
    }
    let input = match (intervals.is_empty(), ledgers.is_empty()) {
        (false, true) => Input::Intervals(intervals),
        (true, false) => Input::Ledgers(ledgers),
        (false, false) => {
            return Err(format!(
                "{label}: mixes interval and ledger lines; pass them separately"
            ))
        }
        (true, true) => {
            return Err(match warnings.first() {
                Some(first) => format!("{label}: no usable JSON lines ({first})"),
                None => format!("{label}: no JSON lines found"),
            })
        }
    };
    Ok(Loaded { input, warnings })
}

fn str_field(label: &str, doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("{label}: missing string field {key:?}"))
}

fn u64_field(label: &str, doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{label}: missing integer field {key:?}"))
}

fn f64_field(label: &str, doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{label}: missing number field {key:?}"))
}

fn interval_stat(label: &str, doc: &Json) -> Result<IntervalStat, String> {
    let u = |key| u64_field(label, doc, key);
    let f = |key| f64_field(label, doc, key);
    Ok(IntervalStat {
        workload: str_field(label, doc, "workload")?,
        policy: str_field(label, doc, "policy")?,
        interval: u("interval")?,
        accesses: u("accesses")?,
        faults: u("faults")?,
        dram_hits: u("dram_read_hits")?.saturating_add(u("dram_write_hits")?),
        nvm_hits: u("nvm_read_hits")?.saturating_add(u("nvm_write_hits")?),
        migrations_to_dram: u("migrations_to_dram")?,
        migrations_to_nvm: u("migrations_to_nvm")?,
        fills: u("fills_to_dram")?.saturating_add(u("fills_to_nvm")?),
        evictions: u("evictions_to_disk")?,
        dram_occupancy: u("dram_occupancy")?,
        nvm_occupancy: u("nvm_occupancy")?,
        hit_ratio: f("hit_ratio")?,
        amat_ns: f("amat_ns")?,
        appr_nj: f("appr_nj")?,
    })
}

fn ledger_stat(label: &str, doc: &Json) -> Result<LedgerStat, String> {
    let summary = doc
        .get("summary")
        .ok_or_else(|| format!("{label}: missing ledger summary"))?;
    let s = |key| u64_field(label, summary, key);
    Ok(LedgerStat {
        workload: str_field(label, doc, "workload")?,
        policy: str_field(label, doc, "policy")?,
        accesses: u64_field(label, doc, "accesses")?,
        pages: s("pages")?,
        faults: s("faults")?,
        promotions: s("promotions_read")?
            .saturating_add(s("promotions_write")?)
            .saturating_add(s("promotions_unattributed")?),
        demotions: s("demotions_fault")?.saturating_add(s("demotions_swap")?),
        evictions: s("evictions")?,
        ping_pongs: s("ping_pongs")?,
    })
}

fn metrics_stat(label: &str, doc: &Json) -> Result<MetricsStat, String> {
    let object = |key: &str| -> Result<&[(String, Json)], String> {
        doc.get(key)
            .and_then(Json::as_object)
            .ok_or_else(|| format!("{label}: missing object field {key:?}"))
    };
    let counters = object("counters")?
        .iter()
        .map(|(name, value)| {
            value
                .as_u64()
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("{label}: counter {name:?} is not an integer"))
        })
        .collect::<Result<_, _>>()?;
    let gauges = object("gauges")?
        .iter()
        .map(|(name, value)| {
            value
                .as_f64()
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("{label}: gauge {name:?} is not a number"))
        })
        .collect::<Result<_, _>>()?;
    let histograms = object("histograms")?
        .iter()
        .map(|(name, value)| {
            let u = |key: &str| u64_field(label, value, key);
            // p50/p95/p99 default to 0, so snapshots written before the
            // quantile export still load.
            let q = |key: &str| value.get(key).and_then(Json::as_u64).unwrap_or(0);
            Ok(HistogramStat {
                name: name.clone(),
                count: u("count")?,
                sum: u("sum")?,
                min: u("min")?,
                max: u("max")?,
                p50: q("p50"),
                p95: q("p95"),
                p99: q("p99"),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(MetricsStat {
        counters,
        gauges,
        histograms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const INTERVAL_LINE: &str = r#"{"workload":"bodytrack","policy":"two-lru","interval":0,"start_access":0,"end_access":1000,"accesses":1000,"dram_read_hits":10,"dram_write_hits":5,"nvm_read_hits":700,"nvm_write_hits":200,"faults":85,"migrations_to_dram":3,"migrations_to_nvm":2,"fills_to_dram":0,"fills_to_nvm":85,"evictions_to_disk":80,"dram_occupancy":12,"nvm_occupancy":110,"hit_ratio":0.915,"amat_ns":312.5,"appr_nj":1.25}"#;

    const LEDGER_LINE: &str = r#"{"workload":"bodytrack","policy":"two-lru","accesses":3000,"warmup_accesses":0,"summary":{"pages":128,"faults":200,"promotions_read":4,"promotions_write":6,"promotions_unattributed":1,"demotions_fault":3,"demotions_swap":7,"evictions":150,"resets_read":2,"resets_write":1,"ping_pong_pages":2,"ping_pongs":3,"detailed_pages":64,"pruned_pages":64},"pages":[]}"#;

    #[test]
    fn sniffs_interval_jsonl() {
        let text = format!("{INTERVAL_LINE}\n{INTERVAL_LINE}\n");
        let Input::Intervals(stats) = load("m.jsonl", &text).expect("loads").input else {
            panic!("expected intervals");
        };
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].workload, "bodytrack");
        assert_eq!(stats[0].dram_hits, 15);
        assert_eq!(stats[0].nvm_hits, 900);
        assert_eq!(stats[0].fills, 85);
        assert!((stats[0].amat_ns - 312.5).abs() < 1e-12);
    }

    #[test]
    fn sniffs_ledger_jsonl() {
        let Input::Ledgers(stats) = load("l.jsonl", LEDGER_LINE).expect("loads").input else {
            panic!("expected ledgers");
        };
        assert_eq!(stats[0].promotions, 11);
        assert_eq!(stats[0].demotions, 10);
        assert_eq!(stats[0].pages, 128);
    }

    #[test]
    fn sniffs_metrics_snapshots_with_and_without_quantiles() {
        let bare = r#"{"counters":{"sim.accesses":100},"gauges":{"load":0.5},
            "histograms":{"lat":{"count":3,"sum":30,"min":5,"max":20,"p50":10,"p95":20,"p99":20,"buckets":[]}}}"#;
        let Input::Metrics(stat) = load("m.json", bare).expect("loads").input else {
            panic!("expected metrics");
        };
        assert_eq!(stat.counters, vec![("sim.accesses".to_owned(), 100)]);
        assert_eq!(stat.histograms[0].p95, 20);

        // Pre-quantile snapshot inside a throughput.json wrapper.
        let wrapped = r#"{"workers":2,"metrics":{"counters":{},"gauges":{},
            "histograms":{"lat":{"count":1,"sum":7,"min":7,"max":7,"buckets":[7]}}}}"#;
        let Input::Metrics(stat) = load("throughput.json", wrapped).expect("loads").input else {
            panic!("expected metrics");
        };
        assert_eq!(stat.histograms[0].p50, 0, "absent quantiles default to 0");
    }

    #[test]
    fn rejects_unknown_and_mixed_inputs() {
        assert!(load("x", "{\"a\":1}").is_err());
        assert!(load("x", "not json at all").is_err());
        let mixed = format!("{INTERVAL_LINE}\n{LEDGER_LINE}\n");
        assert!(load("x", &mixed).unwrap_err().contains("mixes"));
    }

    #[test]
    fn jsonl_degrades_bad_lines_to_warnings() {
        // A torn tail, an unrecognized record, and a partial record are
        // each skipped with a warning; the good lines still load.
        let text = format!(
            "{INTERVAL_LINE}\n{{\"interval\":0}}\n{{\"other\":true}}\nnot json\n{INTERVAL_LINE}\n"
        );
        let loaded = load("m.jsonl", &text).expect("loads");
        let Input::Intervals(stats) = loaded.input else {
            panic!("expected intervals");
        };
        assert_eq!(stats.len(), 2);
        assert_eq!(loaded.warnings.len(), 3);
        assert!(
            loaded.warnings[0].contains("(line 2)"),
            "{:?}",
            loaded.warnings
        );
        assert!(loaded.warnings[1].contains("no known JSONL schema"));
        assert!(loaded.warnings[2].contains("m.jsonl:4"));

        // When nothing is usable the ingest still fails, carrying the
        // first warning for context.
        let err = load("m.jsonl", "not json\n").unwrap_err();
        assert!(err.contains("no usable JSON lines"), "{err}");
    }
}
