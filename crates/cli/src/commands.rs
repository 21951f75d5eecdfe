//! The CLI subcommands.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::PathBuf;
use std::sync::Arc;

use hybridmem_analyze::{CellProfile, Input, PostmortemInputs};
use hybridmem_core::{
    positive_flag, write_flight_json, write_jsonl, write_ledger_jsonl, CellContext, CellSink,
    ExperimentConfig, FaultPlan, FlightMatrixReport, HybridSimulator, Instrumentation,
    InstrumentedRun, LedgerOptions, LedgerReport, MatrixOutcome, MatrixRun, PageEvent, PageRecord,
    PolicyKind, SimulationReport,
};
use hybridmem_policy::ReuseProfile;
use hybridmem_trace::{io as trace_io, parsec, TraceGenerator, TraceStats, WorkloadSpec};
use hybridmem_types::{Access, Error, PageAccess, PageId, Result};

use crate::Args;

/// The top-level usage text.
pub const USAGE: &str = "\
hybridmem — hybrid DRAM-NVM memory simulator (DATE 2016 reproduction)

USAGE:
    hybridmem <COMMAND> [FLAGS]

COMMANDS:
    list                               available workloads and policies
    generate --workload W --output P   write a trace file
             [--cap N] [--seed N] [--format text|binary]
             (--workload may also be a path to a WorkloadSpec JSON file)
    characterize <trace>               Table III-style statistics of a trace
             [--format text|binary] [--deep true]   (reuse-distance analysis)
    simulate <trace> --policy P        run one policy over a trace file
             [--memory-fraction F] [--dram-fraction F] [--json true]
    compare <trace>                    run all policies over a trace file
             [--memory-fraction F] [--dram-fraction F] [--threads N]
             [--metrics-out FILE] [--metrics-window N]
             [--ledger-out FILE] [--ledger-top N] [--profile-out FILE]
             [--audit-out FILE] [--fault-plan SPEC] [--resume FILE]
             [--health-out FILE] [--strict true] [--flight-out FILE]
             [--flight-events N]
             (--threads 0, the default, uses all available cores;
              --metrics-out writes per-window interval records as JSONL,
              one window every N accesses, default 10000;
              --ledger-out writes per-page journey ledgers as JSONL,
              keeping the top N pages per policy, default 64;
              --profile-out writes a Chrome trace-event JSON span profile,
              loadable at https://ui.perfetto.dev;
              --audit-out attaches the run-health audit to every cell and
              writes its hybridmem-audit-v1 report, exiting non-zero on
              any invariant violation;
              every cell runs isolated: a panicking cell is retried, then
              quarantined while the other cells complete, and a failed
              cell fails the run unless --fault-plan, --resume or
              --health-out asked it to degrade;
              --fault-plan injects scripted faults (grammar documented in
              hybridmem-core::faultinject; HYBRIDMEM_FAULT_PLAN is the
              env equivalent);
              --resume FILE journals completed cells to FILE (fsynced,
              checksummed) and skips cells already journaled, so a
              killed run resumes byte-identically; incompatible with the
              instrumentation outputs;
              --health-out writes the hybridmem-matrix-health-v1 report;
              --strict true exits non-zero when any cell failed;
              --flight-out rides a bounded black-box flight recorder on
              every cell — last N events plus periodic state snapshots —
              and writes the hybridmem-flight-v1 dump; a panicking or
              erroring cell's last moments survive into the dump, which
              is byte-identical at any --threads count;
              --flight-events sizes the per-cell event ring, default 256)
    observe <workload>                 stream windowed interval records (JSONL)
             [--policy P] [--cap N] [--seed N] [--window N]
             [--memory-fraction F] [--dram-fraction F] [--warmup F]
             [--flight-out FILE] [--flight-events N]
             (--window 0 emits one whole-run record at the end;
              --workload accepts a PARSEC name or a WorkloadSpec JSON path)
    postmortem --flight FILE           correlate a flight dump with every
             [--health FILE] [--audit FILE]     other telemetry stream
             [--metrics FILE] [--ledger FILE] [--journal FILE]
             [--json FILE]
             (joins the hybridmem-flight-v1 dump with the health report,
              audit report, windowed-metrics JSONL, page-ledger JSONL,
              and the binary resume journal on (workload, policy) cells
              and access indices; prints a per-cell failure timeline and
              --json writes the stable hybridmem-postmortem-v1 report)
    ledger <workload>                  per-page journey ledger (top-K pages)
             [--policy P] [--cap N] [--seed N] [--top K] [--max-events N]
             [--memory-fraction F] [--dram-fraction F] [--json true]
    trace-page <workload> <page>       one page's full journey
             [--policy P] [--cap N] [--seed N] [--max-events N]
             [--memory-fraction F] [--dram-fraction F] [--json true]
    analyze diff <A> <B>               per-cell deltas between two runs
             [--threshold F] [--json FILE] [--gate true]
             (A and B are windowed-metrics or ledger JSONL files from
              matching compare/observe runs; --gate true exits non-zero
              when a metric moved beyond F in its worse direction)
    analyze metrics <FILE>             histogram quantile table (p50/p95/p99)
    analyze check <FILE>               verify a hybridmem-analyze-v1 report
                                       re-emits byte-for-byte

Trace files use the formats documented in hybridmem-trace: text
(`R 0x1000 0` per line) or binary (11-byte records). `--format` defaults
to guessing from the file extension (`.trace`/`.bin` = binary).
";

/// Runs the CLI with pre-split arguments, writing to `out`. Returns the
/// intended process exit code.
///
/// # Errors
///
/// Returns an [`Error`] for invalid arguments, unreadable traces, or
/// simulation failures; `main` prints it and exits non-zero.
pub fn run<W: std::io::Write>(raw: Vec<String>, out: &mut W) -> Result<()> {
    // `--help` is the one flag that takes no value.
    if raw.first().is_some_and(|arg| arg == "--help") {
        write_usage(out);
        return Ok(());
    }
    let args = Args::parse(raw)?;
    let Some(command) = args.positional(0) else {
        write_usage(out);
        return Ok(());
    };
    match command {
        "list" => list(out),
        "generate" => generate(&args, out),
        "characterize" => characterize(&args, out),
        "simulate" => simulate(&args, out),
        "compare" => compare(&args, out),
        "observe" => observe(&args, out),
        "postmortem" => postmortem(&args, out),
        "ledger" => ledger(&args, out),
        "trace-page" => trace_page(&args, out),
        "analyze" => analyze_command(&args, out),
        "help" | "-h" => {
            write_usage(out);
            Ok(())
        }
        other => Err(Error::invalid_input(format!(
            "unknown command {other:?}; run `hybridmem help`"
        ))),
    }
}

fn write_usage<W: std::io::Write>(out: &mut W) {
    let _ = out.write_all(USAGE.as_bytes());
}

fn list<W: std::io::Write>(out: &mut W) -> Result<()> {
    writeln!(out, "workloads (PARSEC, Table III):").map_err(io_err)?;
    for row in &parsec::TABLE_III {
        writeln!(
            out,
            "  {:<14} {:>9} KB working set, {:>11} accesses",
            row.name,
            row.working_set_kb,
            row.reads + row.writes
        )
        .map_err(io_err)?;
    }
    writeln!(out, "\npolicies:").map_err(io_err)?;
    for kind in PolicyKind::all() {
        writeln!(out, "  {}", kind.name()).map_err(io_err)?;
    }
    Ok(())
}

fn generate<W: std::io::Write>(args: &Args, out: &mut W) -> Result<()> {
    args.reject_unknown(&["workload", "output", "cap", "seed", "format"])?;
    let workload = args.require("workload")?;
    let output = args.require("output")?;
    let cap: u64 = args.get_parsed_or("cap", 1_000_000)?;
    let seed: u64 = args.get_parsed_or("seed", 42)?;
    let spec = load_spec(workload)?;
    let spec = if cap == 0 { spec } else { spec.capped(cap) };

    let file = File::create(output)
        .map_err(|e| Error::invalid_input(format!("cannot create {output}: {e}")))?;
    let writer = BufWriter::new(file);
    let generator = TraceGenerator::new(spec.clone(), seed);
    match detect_format(args, output)? {
        Format::Text => trace_io::write_text(generator, writer).map_err(io_err)?,
        Format::Binary => trace_io::write_binary(generator, writer).map_err(io_err)?,
    }
    writeln!(
        out,
        "wrote {} accesses ({} pages working set) to {output}",
        spec.total_accesses(),
        spec.working_set.value()
    )
    .map_err(io_err)?;
    Ok(())
}

fn characterize<W: std::io::Write>(args: &Args, out: &mut W) -> Result<()> {
    args.reject_unknown(&["format", "deep"])?;
    let deep = args.get_bool("deep")?;
    let (path, trace) = load_trace(args)?;
    let stats = TraceStats::from_accesses(trace.iter().copied());
    writeln!(out, "trace {path}:").map_err(io_err)?;
    writeln!(out, "  accesses          {}", stats.total()).map_err(io_err)?;
    writeln!(
        out,
        "  reads / writes    {} / {} ({:.1}% reads)",
        stats.reads,
        stats.writes,
        stats.read_ratio() * 100.0
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "  working set       {} pages ({} KB)",
        stats.footprint().value(),
        stats.working_set_kb()
    )
    .map_err(io_err)?;
    writeln!(out, "  accesses per page {:.2}", stats.accesses_per_page()).map_err(io_err)?;
    writeln!(
        out,
        "  write-dominant    {:.1}% of pages",
        stats.write_dominant_page_ratio() * 100.0
    )
    .map_err(io_err)?;
    if deep {
        let profile = ReuseProfile::from_pages(trace.iter().map(|a| a.page()));
        writeln!(out, "  reuse analysis:").map_err(io_err)?;
        if let Some(mean) = profile.mean_distance() {
            writeln!(out, "    mean reuse distance   {mean:.1} pages").map_err(io_err)?;
        }
        for fraction in [0.10f64, 0.50, 0.75, 1.00] {
            let capacity = ((profile.distinct_pages() as f64 * fraction).ceil() as u64).max(1);
            writeln!(
                out,
                "    LRU {:>3.0}% of footprint ({capacity} pages): {:.4}% miss",
                fraction * 100.0,
                profile.miss_ratio(capacity) * 100.0
            )
            .map_err(io_err)?;
        }
        if let Some(capacity) = profile.capacity_for_miss_ratio(0.001) {
            writeln!(
                out,
                "    capacity for 0.1% warm-miss ratio: {capacity} pages"
            )
            .map_err(io_err)?;
        }
    }
    Ok(())
}

fn simulate<W: std::io::Write>(args: &Args, out: &mut W) -> Result<()> {
    args.reject_unknown(&[
        "policy",
        "memory-fraction",
        "dram-fraction",
        "json",
        "format",
    ])?;
    let json = args.get_bool("json")?;
    let kind = parse_policy(args.require("policy")?)?;
    let run = MatrixRun::new(memory_config(args)?)?;
    let (spec, pages) = load_recorded(args)?;
    let report = only_run(run.run_trace(&spec, &pages, &[kind])?)?.report;
    if json {
        writeln!(out, "{}", hybridmem_json::to_string_pretty(&report)).map_err(io_err)?;
    } else {
        write_report(out, &report)?;
    }
    Ok(())
}

fn compare<W: std::io::Write>(args: &Args, out: &mut W) -> Result<()> {
    let mut flags = vec![
        "memory-fraction",
        "dram-fraction",
        "format",
        "fault-plan",
        "health-out",
        "strict",
    ];
    flags.extend(MatrixRun::FLAGS);
    args.reject_unknown(&flags)?;
    let mut run = MatrixRun::from_flags(memory_config(args)?, |flag| args.get(flag))?;
    if let Some(spec) = args.get("fault-plan") {
        run.fault_plan = Some(Arc::new(FaultPlan::parse(spec)?));
    }
    run.outputs.health = args.get("health-out").map(PathBuf::from);
    // A run set up to degrade (a fault plan, a journal or a health
    // report) completes around its failed cells unless --strict; a plain
    // run fails on them.
    let strict = args.get_bool("strict")?;
    let degrade = run.fault_plan.is_some() || run.resume.is_some() || run.outputs.health.is_some();
    let (spec, pages) = load_recorded(args)?;
    let outcome = run.run_trace(&spec, &pages, &PolicyKind::all())?;
    write_compare_table(out, outcome.completed().map(|cell| &cell.report))?;
    run.write_artifacts(&outcome, out)?;
    let health = &outcome.health;
    if health.failed_cells > 0 && (strict || !degrade) {
        return Err(Error::invalid_input(format!(
            "{} of {} cells failed; see the health report, or rerun with --resume \
             to recompute only the failures",
            health.failed_cells, health.total_cells
        )));
    }
    Ok(())
}

fn create_out(path: &str) -> Result<BufWriter<File>> {
    let file = File::create(path)
        .map_err(|e| Error::invalid_input(format!("cannot create {path}: {e}")))?;
    Ok(BufWriter::new(file))
}

fn write_compare_table<'a, W: std::io::Write>(
    out: &mut W,
    reports: impl Iterator<Item = &'a SimulationReport>,
) -> Result<()> {
    writeln!(
        out,
        "{:<18} {:>8} {:>12} {:>12} {:>14} {:>12}",
        "policy", "hit%", "migrations", "AMAT(ns)", "energy/req nJ", "NVM writes"
    )
    .map_err(io_err)?;
    for report in reports {
        writeln!(
            out,
            "{:<18} {:>7.2}% {:>12} {:>12.0} {:>14.2} {:>12}",
            report.policy,
            report.counts.hit_ratio() * 100.0,
            report.counts.migrations(),
            report.amat().value(),
            report.appr().value(),
            report.nvm_writes.total(),
        )
        .map_err(io_err)?;
    }
    Ok(())
}

/// Streams windowed interval records to `out` as JSON Lines while a
/// generated workload runs: completed windows are drained and written as
/// soon as they close, so long runs produce output incrementally.
fn observe<W: std::io::Write>(args: &Args, out: &mut W) -> Result<()> {
    args.reject_unknown(&[
        "policy",
        "cap",
        "seed",
        "window",
        "memory-fraction",
        "dram-fraction",
        "warmup",
        "flight-out",
        "flight-events",
    ])?;
    let workload = args
        .positional(1)
        .ok_or_else(|| Error::invalid_input("expected a workload name or spec path"))?;
    let spec = load_spec(workload)?;
    let cap: u64 = args.get_parsed_or("cap", 1_000_000)?;
    let spec = if cap == 0 { spec } else { spec.capped(cap) };
    let kind = parse_policy(args.get_or("policy", "two-lru"))?;
    let seed: u64 = args.get_parsed_or("seed", 42)?;
    let window: u64 = args.get_parsed_or("window", 10_000)?;
    let flight_events = positive_flag(
        "flight-events",
        args.get("flight-events"),
        256,
        "retain at least 1 event",
    )?;
    let warmup: f64 = args.get_parsed_or("warmup", 0.0)?;
    if !(0.0..1.0).contains(&warmup) {
        return Err(Error::invalid_input(format!(
            "--warmup must be in [0, 1), got {warmup}"
        )));
    }
    let config = ExperimentConfig {
        seed,
        warmup_fraction: warmup,
        ..memory_config(args)?
    };
    let policy = config.build_policy(kind, &spec)?;
    let mut simulator = HybridSimulator::with_date2016_devices(policy);
    let warmup_len = (spec.total_accesses() as f64 * warmup) as u64;
    let instrumentation = Instrumentation {
        window: Some(window),
        flight: args.get("flight-out").map(|_| flight_events),
        ..Instrumentation::default()
    };
    let context = CellContext::new(spec.name.clone(), kind, &simulator, warmup_len);
    simulator.set_event_sink(Box::new(CellSink::new(instrumentation, context)));
    let lost = || Error::invalid_input("observe lost its cell sink");
    // Drive in batch-sized chunks, writing the windows each one closes.
    let mut buffer = Vec::with_capacity(HybridSimulator::BATCH_RECORDS);
    for access in TraceGenerator::new(spec.clone(), seed).map(PageAccess::from) {
        buffer.push(access);
        if buffer.len() == HybridSimulator::BATCH_RECORDS {
            simulator.run_slice_batched(&buffer);
            buffer.clear();
            let cell = simulator.event_sink_mut().and_then(CellSink::of);
            let records = cell.ok_or_else(lost)?.drain_records();
            write_jsonl(out, &records).map_err(io_err)?;
        }
    }
    simulator.run_slice_batched(&buffer);
    let mut sink = simulator.take_event_sink().ok_or_else(lost)?;
    let run = CellSink::of(sink.as_mut())
        .ok_or_else(lost)?
        .finish(simulator);
    write_jsonl(out, &run.records).map_err(io_err)?;
    if let Some(flight_path) = args.get("flight-out") {
        let matrix = FlightMatrixReport::new(run.flight.into_iter().collect());
        let mut writer = create_out(flight_path)?;
        write_flight_json(&mut writer, &matrix).map_err(io_err)?;
        std::io::Write::flush(&mut writer).map_err(io_err)?;
        writeln!(out, "wrote flight recorder dump to {flight_path}").map_err(io_err)?;
    }
    Ok(())
}

/// Correlates a `hybridmem-flight-v1` dump with whatever other
/// telemetry streams were provided — health report, audit report,
/// windowed-metrics JSONL, page-ledger JSONL, resume journal — into a
/// per-cell failure timeline, printed as a table and optionally written
/// as the stable `hybridmem-postmortem-v1` JSON.
fn postmortem<W: std::io::Write>(args: &Args, out: &mut W) -> Result<()> {
    args.reject_unknown(&[
        "flight", "health", "audit", "metrics", "ledger", "journal", "json",
    ])?;
    let read_text = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| Error::invalid_input(format!("cannot read {path}: {e}")))
    };
    let read_opt = |flag: &str| args.get(flag).map(read_text).transpose();
    let flight = read_text(args.require("flight")?)?;
    let health = read_opt("health")?;
    let audit = read_opt("audit")?;
    let metrics = read_opt("metrics")?;
    let ledger = read_opt("ledger")?;
    let journal = args
        .get("journal")
        .map(|path| {
            std::fs::read(path)
                .map_err(|e| Error::invalid_input(format!("cannot read {path}: {e}")))
        })
        .transpose()?;
    let inputs = PostmortemInputs {
        flight: &flight,
        health: health.as_deref(),
        audit: audit.as_deref(),
        metrics: metrics.as_deref(),
        ledger: ledger.as_deref(),
        journal: journal.as_deref(),
    };
    let report = hybridmem_analyze::correlate(&inputs).map_err(Error::invalid_input)?;
    write!(out, "{}", hybridmem_analyze::postmortem_table(&report)).map_err(io_err)?;
    if let Some(json_path) = args.get("json") {
        let json = hybridmem_analyze::postmortem_report(&report);
        std::fs::write(json_path, hybridmem_analyze::render(&json))
            .map_err(|e| Error::invalid_input(format!("cannot write {json_path}: {e}")))?;
        writeln!(out, "wrote postmortem report to {json_path}").map_err(io_err)?;
    }
    Ok(())
}

/// Prints the whole-run page-lifecycle roll-up and the retained top-K
/// page journeys for one policy over a generated workload.
fn ledger<W: std::io::Write>(args: &Args, out: &mut W) -> Result<()> {
    args.reject_unknown(&[
        "policy",
        "cap",
        "seed",
        "top",
        "max-events",
        "memory-fraction",
        "dram-fraction",
        "json",
    ])?;
    let json = args.get_bool("json")?;
    let report = run_ledger_report(args, None, 32)?;
    if json {
        write_ledger_jsonl(out, &report).map_err(io_err)?;
        return Ok(());
    }
    write_ledger_summary(out, &report)?;
    writeln!(out, "\ntop pages by migrations:").map_err(io_err)?;
    writeln!(
        out,
        "{:>12} {:>10} {:>10} {:>10} {:>10} {:>6}",
        "page", "accesses", "migrations", "ping-pongs", "resets", "tier"
    )
    .map_err(io_err)?;
    for record in &report.pages {
        writeln!(
            out,
            "{:>12} {:>10} {:>10} {:>10} {:>10} {:>6}",
            record.page,
            record.summary.accesses,
            record.summary.migrations(),
            record.summary.ping_pongs,
            record.summary.resets,
            record
                .summary
                .final_tier
                .map_or("disk".to_owned(), |tier| tier.to_string()),
        )
        .map_err(io_err)?;
    }
    Ok(())
}

/// Prints one page's full journey: every fill, promotion (with Algorithm 1
/// counter provenance), demotion, eviction, and lossy counter reset.
fn trace_page<W: std::io::Write>(args: &Args, out: &mut W) -> Result<()> {
    args.reject_unknown(&[
        "policy",
        "cap",
        "seed",
        "max-events",
        "memory-fraction",
        "dram-fraction",
        "json",
    ])?;
    let json = args.get_bool("json")?;
    let page_arg = args
        .positional(2)
        .ok_or_else(|| Error::invalid_input("usage: trace-page <workload> <page>"))?;
    let page: u64 = page_arg
        .parse()
        .map_err(|e| Error::invalid_input(format!("invalid page id {page_arg:?}: {e}")))?;
    let report = run_ledger_report(args, Some(PageId::new(page)), 1024)?;
    // The ledger always reports its focus page, touched or not.
    let touched = |record: &&PageRecord| record.page == page && record.summary.accesses > 0;
    let Some(record) = report.pages.iter().find(touched) else {
        writeln!(
            out,
            "page {page} was never touched by {} over {} accesses of {}",
            report.policy, report.accesses, report.workload
        )
        .map_err(io_err)?;
        return Ok(());
    };
    if json {
        writeln!(out, "{}", hybridmem_json::to_string(record)).map_err(io_err)?;
        return Ok(());
    }
    let summary = &record.summary;
    writeln!(
        out,
        "page {page} under {} over {} accesses of {}:",
        report.policy, report.accesses, report.workload
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "  {} accesses ({} reads / {} writes), {} migrations, {} ping-pongs, final tier {}",
        summary.accesses,
        summary.reads,
        summary.writes,
        summary.migrations(),
        summary.ping_pongs,
        summary
            .final_tier
            .map_or("disk".to_owned(), |tier| tier.to_string()),
    )
    .map_err(io_err)?;
    for event in &record.events {
        writeln!(out, "  {}", format_page_event(event)).map_err(io_err)?;
    }
    if record.dropped_events > 0 {
        writeln!(
            out,
            "  … {} later events dropped (raise --max-events)",
            record.dropped_events
        )
        .map_err(io_err)?;
    }
    Ok(())
}

/// The `analyze` subcommand family: cross-run analytics over the
/// telemetry the other commands (and the bench suite) emit.
fn analyze_command<W: std::io::Write>(args: &Args, out: &mut W) -> Result<()> {
    const USAGE: &str = "usage: analyze <diff|metrics|check> ...";
    match args.positional(1) {
        Some("diff") => analyze_diff(args, out),
        Some("metrics") => analyze_metrics(args, out),
        Some("check") => analyze_check(args, out),
        Some(other) => Err(Error::invalid_input(format!(
            "unknown analyze mode {other:?}; {USAGE}"
        ))),
        None => Err(Error::invalid_input(USAGE)),
    }
}

/// Reads and format-sniffs one analyzer input file. The returned
/// [`hybridmem_analyze::Loaded`] carries per-line ingest warnings for
/// JSONL inputs with malformed or partial lines.
fn read_analyze_input(path: &str) -> Result<hybridmem_analyze::Loaded> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| Error::invalid_input(format!("cannot read {path}: {e}")))?;
    hybridmem_analyze::load(path, &text).map_err(Error::invalid_input)
}

/// Rolls one diffable input (windowed metrics or ledgers) into cell
/// profiles.
#[expect(clippy::wildcard_enum_match_arm, reason = "the rest are not diffable")]
fn profile_analyze_input(path: &str, input: Input) -> Result<Vec<CellProfile>> {
    match input {
        Input::Intervals(stats) => Ok(hybridmem_analyze::profile_intervals(&stats)),
        Input::Ledgers(stats) => Ok(hybridmem_analyze::profile_ledgers(&stats)),
        _ => Err(Error::invalid_input(format!(
            "{path}: analyze diff expects windowed-metrics or ledger JSONL"
        ))),
    }
}

/// Writes a `hybridmem-analyze-v1` document when `--json` asked for one.
fn write_analyze_json<W: std::io::Write>(
    args: &Args,
    out: &mut W,
    json: &hybridmem_analyze::Json,
) -> Result<()> {
    if let Some(json_path) = args.get("json") {
        std::fs::write(json_path, hybridmem_analyze::render(json))
            .map_err(|e| Error::invalid_input(format!("cannot write {json_path}: {e}")))?;
        writeln!(out, "wrote analyze report to {json_path}").map_err(io_err)?;
    }
    Ok(())
}

fn analyze_diff<W: std::io::Write>(args: &Args, out: &mut W) -> Result<()> {
    args.reject_unknown(&["threshold", "json", "gate"])?;
    let (Some(path_a), Some(path_b)) = (args.positional(2), args.positional(3)) else {
        return Err(Error::invalid_input(
            "usage: analyze diff <A> <B> [--threshold F] [--json FILE] [--gate true]",
        ));
    };
    let threshold: f64 = args.get_parsed_or("threshold", 0.05)?;
    let gate = args.get_bool("gate")?;
    let loaded_a = read_analyze_input(path_a)?;
    let loaded_b = read_analyze_input(path_b)?;
    let ingest_warnings = (loaded_a.warnings.len() + loaded_b.warnings.len()) as u64;
    for warning in loaded_a.warnings.iter().chain(&loaded_b.warnings) {
        writeln!(out, "warning: skipped {warning}").map_err(io_err)?;
    }
    let a = profile_analyze_input(path_a, loaded_a.input)?;
    let b = profile_analyze_input(path_b, loaded_b.input)?;
    let report = hybridmem_analyze::diff(&a, &b, threshold);
    write!(out, "{}", hybridmem_analyze::diff_table(&report)).map_err(io_err)?;
    write_analyze_json(
        args,
        out,
        &hybridmem_analyze::diff_report(path_a, path_b, &report, ingest_warnings),
    )?;
    if gate && report.regressions > 0 {
        return Err(Error::invalid_input(format!(
            "analyze diff gate: {} metric(s) regressed beyond {threshold}",
            report.regressions
        )));
    }
    Ok(())
}

fn analyze_metrics<W: std::io::Write>(args: &Args, out: &mut W) -> Result<()> {
    args.reject_unknown(&[])?;
    let Some(path) = args.positional(2) else {
        return Err(Error::invalid_input(
            "usage: analyze metrics <snapshot.json>",
        ));
    };
    let Input::Metrics(stat) = read_analyze_input(path)?.input else {
        return Err(Error::invalid_input(format!(
            "{path}: not a metrics snapshot"
        )));
    };
    write!(out, "{}", hybridmem_analyze::metrics_table(&stat)).map_err(io_err)
}

fn analyze_check<W: std::io::Write>(args: &Args, out: &mut W) -> Result<()> {
    args.reject_unknown(&[])?;
    let Some(path) = args.positional(2) else {
        return Err(Error::invalid_input("usage: analyze check <report.json>"));
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| Error::invalid_input(format!("cannot read {path}: {e}")))?;
    hybridmem_analyze::round_trips(&text)
        .map_err(|e| Error::invalid_input(format!("{path}: {e}")))?;
    writeln!(
        out,
        "{path}: canonical hybridmem-analyze-v1, re-emits byte-for-byte"
    )
    .map_err(io_err)
}

/// Runs one policy over a generated workload with a page ledger attached
/// and returns its end-of-run report. The trace streams out of the
/// generator, so even a full-scale workload runs in constant memory.
fn run_ledger_report(
    args: &Args,
    focus: Option<PageId>,
    default_max_events: usize,
) -> Result<LedgerReport> {
    let workload = args
        .positional(1)
        .ok_or_else(|| Error::invalid_input("expected a workload name or spec path"))?;
    let spec = load_spec(workload)?;
    let cap: u64 = args.get_parsed_or("cap", 1_000_000)?;
    let spec = if cap == 0 { spec } else { spec.capped(cap) };
    let kind = parse_policy(args.get_or("policy", "two-lru"))?;
    let options = LedgerOptions {
        top_k: positive_flag("top", args.get("top"), 64, "retain at least 1 page")?,
        max_events: positive_flag(
            "max-events",
            args.get("max-events"),
            default_max_events,
            "retain at least 1 event",
        )?,
        focus,
    };
    // The journey covers the whole trace: no warmup prefix.
    let config = ExperimentConfig {
        seed: args.get_parsed_or("seed", 42)?,
        ..memory_config(args)?
    };
    let run = MatrixRun {
        instrumentation: Instrumentation::default().with_ledger(options),
        ..MatrixRun::new(config)?
    };
    only_run(run.run_streamed(&[spec], &[kind])?)?
        .ledger
        .ok_or_else(|| Error::invalid_input("ledger run lost its page ledger"))
}

/// The single cell of a 1×1 matrix, or its error.
fn only_run(outcome: MatrixOutcome) -> Result<InstrumentedRun> {
    outcome
        .runs()?
        .into_iter()
        .flatten()
        .next()
        .ok_or_else(|| Error::invalid_input("the matrix ran no cell"))
}

fn write_ledger_summary<W: std::io::Write>(out: &mut W, report: &LedgerReport) -> Result<()> {
    let summary = &report.summary;
    writeln!(
        out,
        "workload {}, policy {}, {} accesses",
        report.workload, report.policy, report.accesses
    )
    .map_err(io_err)?;
    writeln!(out, "  pages touched     {}", summary.pages).map_err(io_err)?;
    writeln!(out, "  faults            {}", summary.faults).map_err(io_err)?;
    writeln!(
        out,
        "  promotions        {} read / {} write / {} unattributed",
        summary.promotions_read, summary.promotions_write, summary.promotions_unattributed
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "  demotions         {} fault-fill / {} promotion-swap",
        summary.demotions_fault, summary.demotions_swap
    )
    .map_err(io_err)?;
    writeln!(out, "  evictions         {}", summary.evictions).map_err(io_err)?;
    writeln!(
        out,
        "  lossy resets      {} read / {} write",
        summary.resets_read, summary.resets_write
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "  ping-pongs        {} round trips across {} pages",
        summary.ping_pongs, summary.ping_pong_pages
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "  detail retained   {} pages ({} pruned)",
        summary.detailed_pages, summary.pruned_pages
    )
    .map_err(io_err)?;
    Ok(())
}

/// One human-readable line per [`PageEvent`].
fn format_page_event(event: &PageEvent) -> String {
    match event {
        PageEvent::Fill { access, into } => {
            format!("access {access:>8}  fill into {into}")
        }
        PageEvent::Promote { access, provenance } => match provenance {
            Some(provenance) => format!(
                "access {access:>8}  promote NVM->DRAM ({} counter {} >= {}, rank {})",
                provenance.counter.name(),
                provenance.value,
                provenance.threshold,
                provenance.rank,
            ),
            None => format!("access {access:>8}  promote NVM->DRAM"),
        },
        PageEvent::Demote { access, cause } => {
            let cause = match cause {
                hybridmem_core::DemotionCause::FaultFill => "displaced by a fault fill",
                hybridmem_core::DemotionCause::PromotionSwap => "swapped out by a promotion",
            };
            format!("access {access:>8}  demote DRAM->NVM ({cause})")
        }
        PageEvent::Evict { access, from } => {
            format!("access {access:>8}  evict from {from}")
        }
        PageEvent::Reset {
            access,
            counter,
            lost,
        } => {
            format!(
                "access {access:>8}  lossy reset: {} counter lost {lost}",
                counter.name()
            )
        }
    }
}

/// The paper-style configuration under the `--memory-fraction` and
/// `--dram-fraction` flags, with every access measured: a recorded trace
/// has no warmup prefix.
fn memory_config(args: &Args) -> Result<ExperimentConfig> {
    Ok(ExperimentConfig {
        memory_fraction: args.get_parsed_or("memory-fraction", 0.75)?,
        dram_fraction: args.get_parsed_or("dram-fraction", 0.10)?,
        warmup_fraction: 0.0,
        ..ExperimentConfig::date2016()
    })
}

/// Loads the trace file and decodes it once, so every policy replays the
/// same immutable buffer; the trace is described as a `WorkloadSpec`
/// whose working set is the measured footprint (locality fields are
/// unused because the recorded accesses are fed directly).
fn load_recorded(args: &Args) -> Result<(WorkloadSpec, Vec<PageAccess>)> {
    let (path, trace) = load_trace(args)?;
    let stats = TraceStats::from_accesses(trace.iter().copied());
    if stats.total() == 0 {
        return Err(Error::invalid_input(format!("trace {path} is empty")));
    }
    let spec = WorkloadSpec::new(
        path,
        stats.footprint().value().max(2),
        stats.reads.max(1),
        stats.writes,
        hybridmem_trace::LocalityParams::balanced(),
    )?;
    Ok((spec, trace.into_iter().map(PageAccess::from).collect()))
}

fn write_report<W: std::io::Write>(out: &mut W, report: &SimulationReport) -> Result<()> {
    writeln!(out, "{}", report.text_summary()).map_err(io_err)
}

/// Resolves `--workload`: a built-in PARSEC name, or a path to a
/// `WorkloadSpec` JSON file for custom workloads.
fn load_spec(name_or_path: &str) -> Result<WorkloadSpec> {
    if parsec::NAMES.contains(&name_or_path) {
        return parsec::spec(name_or_path);
    }
    let text = std::fs::read_to_string(name_or_path).map_err(|e| {
        Error::invalid_input(format!(
            "{name_or_path:?} is neither a PARSEC workload ({}) nor a readable spec file: {e}",
            parsec::NAMES.join(", ")
        ))
    })?;
    let spec: WorkloadSpec = hybridmem_json::from_str(&text)
        .map_err(|e| Error::invalid_input(format!("invalid WorkloadSpec JSON: {e}")))?;
    spec.validate()?;
    Ok(spec)
}

enum Format {
    Text,
    Binary,
}

fn detect_format(args: &Args, path: &str) -> Result<Format> {
    match args.get("format") {
        Some("text") => Ok(Format::Text),
        Some("binary") => Ok(Format::Binary),
        Some(other) => Err(Error::invalid_input(format!(
            "unknown format {other:?}; expected text or binary"
        ))),
        None => {
            if path.ends_with(".txt") || path.ends_with(".text") {
                Ok(Format::Text)
            } else {
                Ok(Format::Binary)
            }
        }
    }
}

fn load_trace(args: &Args) -> Result<(String, Vec<Access>)> {
    let path = args
        .positional(1)
        .ok_or_else(|| Error::invalid_input("expected a trace file path"))?
        .to_owned();
    let file =
        File::open(&path).map_err(|e| Error::invalid_input(format!("cannot open {path}: {e}")))?;
    let reader = BufReader::new(file);
    let trace = match detect_format(args, &path)? {
        Format::Text => trace_io::read_text(reader)?,
        Format::Binary => trace_io::read_binary(reader)?,
    };
    Ok((path, trace))
}

fn parse_policy(name: &str) -> Result<PolicyKind> {
    PolicyKind::all()
        .into_iter()
        .find(|kind| kind.name() == name)
        .ok_or_else(|| {
            Error::invalid_input(format!(
                "unknown policy {name:?}; expected one of: {}",
                PolicyKind::all()
                    .iter()
                    .map(|k| k.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })
}

fn io_err(e: std::io::Error) -> Error {
    Error::invalid_input(format!("I/O error: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridmem_json::{parse, Json};

    fn run_capture(tokens: &[&str]) -> (Result<()>, String) {
        let mut out = Vec::new();
        let result = run(tokens.iter().map(|s| (*s).to_owned()).collect(), &mut out);
        (result, String::from_utf8(out).expect("utf8 output"))
    }

    #[test]
    fn no_command_prints_usage() {
        let (result, text) = run_capture(&[]);
        assert!(result.is_ok());
        assert!(text.contains("USAGE"));
    }

    #[test]
    fn help_flag_prints_usage() {
        for flag in ["--help", "help", "-h"] {
            let (result, text) = run_capture(&[flag]);
            assert!(result.is_ok(), "{flag}");
            assert_eq!(text, USAGE, "{flag}");
        }
    }

    #[test]
    fn boolean_flags_reject_anything_but_true_and_false() {
        for (tokens, flag) in [
            (
                &[
                    "simulate", "t.trace", "--policy", "two-lru", "--json", "yes",
                ][..],
                "--json",
            ),
            (&["characterize", "t.trace", "--deep", "1"], "--deep"),
            (&["compare", "t.trace", "--strict", "on"], "--strict"),
            (&["ledger", "bodytrack", "--json", "yes"], "--json"),
            (
                &["trace-page", "bodytrack", "7", "--json", "TRUE"],
                "--json",
            ),
            (&["analyze", "diff", "a", "b", "--gate", "1"], "--gate"),
        ] {
            let err = run_capture(tokens).0.unwrap_err().to_string();
            assert!(err.contains(flag), "{tokens:?}: {err}");
        }
        // A bare `--json` before another flag takes that flag as its value.
        let err = run_capture(&["simulate", "t.trace", "--json", "--policy", "two-lru"])
            .0
            .unwrap_err()
            .to_string();
        assert!(err.contains("--json"), "{err}");
        let err = run_capture(&["simulate", "t.trace", "--json"])
            .0
            .unwrap_err()
            .to_string();
        assert!(err.contains("--json"), "{err}");
    }

    #[test]
    fn unknown_command_errors() {
        let (result, _) = run_capture(&["frobnicate"]);
        assert!(result.unwrap_err().to_string().contains("frobnicate"));
    }

    #[test]
    fn list_shows_workloads_and_policies() {
        let (result, text) = run_capture(&["list"]);
        assert!(result.is_ok());
        assert!(text.contains("blackscholes"));
        assert!(text.contains("two-lru"));
        assert!(text.contains("clock-dwf"));
    }

    #[test]
    fn generate_characterize_simulate_roundtrip() {
        let dir = std::env::temp_dir().join("hybridmem-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        let path = path.to_str().unwrap();

        let (result, text) = run_capture(&[
            "generate",
            "--workload",
            "bodytrack",
            "--output",
            path,
            "--cap",
            "5000",
        ]);
        assert!(result.is_ok(), "{result:?}");
        assert!(text.contains("wrote"));

        let (result, text) = run_capture(&["characterize", path]);
        assert!(result.is_ok());
        assert!(text.contains("accesses"), "{text}");
        assert!(text.contains("working set"));

        let (result, text) = run_capture(&["characterize", path, "--deep", "true"]);
        assert!(result.is_ok());
        assert!(text.contains("reuse analysis"), "{text}");
        assert!(text.contains("miss"));

        let (result, text) = run_capture(&["simulate", path, "--policy", "two-lru"]);
        assert!(result.is_ok(), "{result:?}");
        assert!(text.contains("AMAT"));
        assert!(text.contains("two-lru"));

        let (result, text) =
            run_capture(&["simulate", path, "--policy", "two-lru", "--json", "true"]);
        assert!(result.is_ok());
        assert!(text.contains("\"policy\""));

        let (result, text) = run_capture(&["compare", path]);
        assert!(result.is_ok(), "{result:?}");
        assert!(text.contains("clock-pro"));

        let (result, threaded) = run_capture(&["compare", path, "--threads", "2"]);
        assert!(result.is_ok(), "{result:?}");
        assert_eq!(threaded, text, "worker pool must not change the table");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn compare_metrics_out_writes_deterministic_jsonl() {
        let dir = std::env::temp_dir().join("hybridmem-cli-metrics");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("m.trace");
        let trace_path = trace_path.to_str().unwrap();
        run_capture(&[
            "generate",
            "--workload",
            "bodytrack",
            "--output",
            trace_path,
            "--cap",
            "4000",
        ])
        .0
        .unwrap();

        let jsonl_1 = dir.join("metrics-1.jsonl");
        let (result, _) = run_capture(&[
            "compare",
            trace_path,
            "--metrics-out",
            jsonl_1.to_str().unwrap(),
            "--metrics-window",
            "1000",
            "--threads",
            "1",
        ]);
        assert!(result.is_ok(), "{result:?}");
        let text = std::fs::read_to_string(&jsonl_1).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // 4000 accesses / 1000-access windows = 4 records per policy.
        assert_eq!(lines.len(), 4 * PolicyKind::all().len());
        let first = parse(lines[0]).unwrap();
        assert_eq!(first["policy"], "two-lru", "records follow kinds order");
        assert_eq!(first["accesses"], 1000);

        let jsonl_4 = dir.join("metrics-4.jsonl");
        let (result, _) = run_capture(&[
            "compare",
            trace_path,
            "--metrics-out",
            jsonl_4.to_str().unwrap(),
            "--metrics-window",
            "1000",
            "--threads",
            "4",
        ]);
        assert!(result.is_ok(), "{result:?}");
        assert_eq!(
            text,
            std::fs::read_to_string(&jsonl_4).unwrap(),
            "metrics JSONL must be byte-identical at any thread count"
        );
        for p in [jsonl_1, jsonl_4] {
            let _ = std::fs::remove_file(p);
        }
        let _ = std::fs::remove_file(trace_path);
    }

    #[test]
    fn compare_ledger_out_is_byte_identical_across_thread_counts() {
        let dir = std::env::temp_dir().join("hybridmem-cli-ledger");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("l.trace");
        let trace_path = trace_path.to_str().unwrap();
        run_capture(&[
            "generate",
            "--workload",
            "bodytrack",
            "--output",
            trace_path,
            "--cap",
            "4000",
        ])
        .0
        .unwrap();

        let jsonl_1 = dir.join("ledger-1.jsonl");
        let (result, text) = run_capture(&[
            "compare",
            trace_path,
            "--ledger-out",
            jsonl_1.to_str().unwrap(),
            "--ledger-top",
            "8",
            "--threads",
            "1",
        ]);
        assert!(result.is_ok(), "{result:?}");
        assert!(text.contains("wrote page ledger"), "{text}");
        let serial = std::fs::read_to_string(&jsonl_1).unwrap();
        let lines: Vec<&str> = serial.lines().collect();
        // One header per policy plus at most 8 page records each.
        assert!(lines.len() > PolicyKind::all().len());
        assert!(lines[0].contains("\"workload\""), "{}", lines[0]);
        assert!(
            lines[0].contains("\"two-lru\""),
            "records follow kinds order"
        );
        for line in &lines {
            parse(line).unwrap();
        }

        let jsonl_4 = dir.join("ledger-4.jsonl");
        let (result, _) = run_capture(&[
            "compare",
            trace_path,
            "--ledger-out",
            jsonl_4.to_str().unwrap(),
            "--ledger-top",
            "8",
            "--threads",
            "4",
        ]);
        assert!(result.is_ok(), "{result:?}");
        assert_eq!(
            serial,
            std::fs::read_to_string(&jsonl_4).unwrap(),
            "ledger JSONL must be byte-identical at any thread count"
        );
        for p in [jsonl_1, jsonl_4] {
            let _ = std::fs::remove_file(p);
        }
        let _ = std::fs::remove_file(trace_path);
    }

    #[test]
    fn compare_profile_out_writes_chrome_trace_json() {
        let dir = std::env::temp_dir().join("hybridmem-cli-profile");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("p.trace");
        let trace_path = trace_path.to_str().unwrap();
        run_capture(&[
            "generate",
            "--workload",
            "bodytrack",
            "--output",
            trace_path,
            "--cap",
            "2000",
        ])
        .0
        .unwrap();

        let profile = dir.join("profile.json");
        let (result, text) = run_capture(&[
            "compare",
            trace_path,
            "--profile-out",
            profile.to_str().unwrap(),
            "--threads",
            "2",
        ]);
        assert!(result.is_ok(), "{result:?}");
        assert!(text.contains("wrote span profile"), "{text}");
        let parsed: Json = parse(&std::fs::read_to_string(&profile).unwrap()).unwrap();
        assert_eq!(parsed["displayTimeUnit"], "ms");
        let events = parsed["traceEvents"].as_array().unwrap();
        // One "cell" span per policy plus thread_name metadata events.
        assert!(events.len() > PolicyKind::all().len());
        assert!(events
            .iter()
            .any(|event| event["cat"] == "scheduler" && event["ph"] == "X"));
        let _ = std::fs::remove_file(profile);
        let _ = std::fs::remove_file(trace_path);
    }

    #[test]
    fn compare_audit_out_is_clean_at_any_thread_count() {
        let dir = std::env::temp_dir().join("hybridmem-cli-audit");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("a.trace");
        let trace_path = trace_path.to_str().unwrap();
        run_capture(&[
            "generate",
            "--workload",
            "bodytrack",
            "--output",
            trace_path,
            "--cap",
            "4000",
        ])
        .0
        .unwrap();

        for threads in ["1", "4"] {
            let audit = dir.join(format!("audit-{threads}.json"));
            let (result, text) = run_capture(&[
                "compare",
                trace_path,
                "--audit-out",
                audit.to_str().unwrap(),
                "--threads",
                threads,
            ]);
            assert!(result.is_ok(), "{result:?}");
            assert!(text.contains("wrote audit report"), "{text}");
            let parsed: Json = parse(&std::fs::read_to_string(&audit).unwrap()).unwrap();
            assert_eq!(parsed["schema"], "hybridmem-audit-v1");
            assert_eq!(parsed["clean"], true, "audit must be clean: {parsed}");
            assert_eq!(parsed["total_violations"], 0);
            assert_eq!(
                parsed["cells"].as_array().unwrap().len(),
                PolicyKind::all().len()
            );
            let _ = std::fs::remove_file(audit);
        }
        let _ = std::fs::remove_file(trace_path);
    }

    #[test]
    fn compare_quarantines_a_scripted_panic_and_gates_with_strict() {
        let dir = std::env::temp_dir().join("hybridmem-cli-chaos");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("a.trace");
        let trace_path = trace_path.to_str().unwrap();
        run_capture(&[
            "generate",
            "--workload",
            "bodytrack",
            "--output",
            trace_path,
            "--cap",
            "2000",
        ])
        .0
        .unwrap();
        // The cell name in the fault plan is the trace path itself.
        let plan = format!("cell-panic@{trace_path}/two-lru:100");
        let health = dir.join("health.json");

        // Without --strict: the matrix completes, the failure is
        // reported, and the exit stays clean.
        let (result, text) = run_capture(&[
            "compare",
            trace_path,
            "--threads",
            "2",
            "--fault-plan",
            &plan,
            "--health-out",
            health.to_str().unwrap(),
        ]);
        assert!(result.is_ok(), "non-strict run stays clean: {result:?}");
        assert!(text.contains("injected fault"), "{text}");
        assert!(text.contains("wrote matrix health"), "{text}");
        assert!(text.contains("clock-dwf"), "other cells complete: {text}");
        let parsed: Json = parse(&std::fs::read_to_string(&health).unwrap()).unwrap();
        assert_eq!(parsed["schema"], "hybridmem-matrix-health-v1");
        assert_eq!(parsed["failed_cells"], 1, "{parsed}");
        assert_eq!(
            parsed["cells"].as_array().unwrap().len(),
            PolicyKind::all().len()
        );
        let failed: Vec<&str> = parsed["cells"]
            .as_array()
            .unwrap()
            .iter()
            .filter(|c| c["status"] == "failed")
            .map(|c| c["policy"].as_str().unwrap())
            .collect();
        assert_eq!(failed, ["two-lru"], "{parsed}");

        // With --strict the same run exits non-zero, after writing the
        // artifact.
        let (result, _) = run_capture(&[
            "compare",
            trace_path,
            "--threads",
            "2",
            "--fault-plan",
            &plan,
            "--health-out",
            health.to_str().unwrap(),
            "--strict",
            "true",
        ]);
        let err = result.unwrap_err().to_string();
        assert!(err.contains("cells failed"), "{err}");
        assert!(health.exists(), "health artifact written before the exit");
        let _ = std::fs::remove_file(health);
        let _ = std::fs::remove_file(trace_path);
    }

    #[test]
    fn compare_rejects_zero_valued_instrumentation_knobs() {
        for (flag, message) in [
            ("--metrics-window", "--metrics-window"),
            ("--ledger-top", "--ledger-top"),
            ("--flight-events", "--flight-events"),
        ] {
            let (result, _) = run_capture(&["compare", "unused.trace", flag, "0"]);
            let err = result.unwrap_err().to_string();
            assert!(err.contains(message), "{flag}: {err}");
            assert!(err.contains("at least 1"), "{flag}: {err}");
        }
        let (result, _) = run_capture(&["observe", "bodytrack", "--flight-events", "0"]);
        assert!(result
            .unwrap_err()
            .to_string()
            .contains("--flight-events must retain at least 1"));
    }

    #[test]
    fn ledger_and_trace_page_reject_zero_retention() {
        for (command, flag, message) in [
            (
                ["ledger", "bodytrack"].as_slice(),
                "--top",
                "--top must retain at least 1 page",
            ),
            (
                &["ledger", "bodytrack"],
                "--max-events",
                "--max-events must retain at least 1",
            ),
            (
                &["trace-page", "bodytrack", "17"],
                "--max-events",
                "--max-events must retain",
            ),
        ] {
            let mut tokens = command.to_vec();
            tokens.extend(["--cap", "2000", flag, "0"]);
            let (result, text) = run_capture(&tokens);
            let err = result.expect_err(&format!("{tokens:?} must fail: {text}"));
            assert!(err.to_string().contains(message), "{tokens:?}: {err}");
        }
    }

    #[test]
    fn compare_flight_out_survives_a_mid_sim_panic_and_postmortem_correlates_it() {
        let dir = std::env::temp_dir().join("hybridmem-cli-flight");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("f.trace");
        let trace_path = trace_path.to_str().unwrap();
        run_capture(&[
            "generate",
            "--workload",
            "bodytrack",
            "--output",
            trace_path,
            "--cap",
            "2000",
        ])
        .0
        .unwrap();
        // A mid-simulation panic: the tripwire fires at access 100, on
        // every retry, so the cell ends quarantined with a black box.
        let plan = format!("cell-panic-at@{trace_path}/two-lru:100");
        let health = dir.join("health.json");

        let mut dumps = Vec::new();
        for threads in ["1", "4"] {
            let flight = dir.join(format!("flight-{threads}.json"));
            let (result, text) = run_capture(&[
                "compare",
                trace_path,
                "--threads",
                threads,
                "--fault-plan",
                &plan,
                "--health-out",
                health.to_str().unwrap(),
                "--flight-out",
                flight.to_str().unwrap(),
            ]);
            assert!(result.is_ok(), "non-strict run stays clean: {result:?}");
            assert!(text.contains("wrote flight recorder dump"), "{text}");
            dumps.push(std::fs::read_to_string(&flight).unwrap());
            let _ = std::fs::remove_file(flight);
        }
        assert_eq!(
            dumps[0], dumps[1],
            "flight dump must be byte-identical at any thread count"
        );

        let parsed: Json = parse(&dumps[0]).unwrap();
        assert_eq!(parsed["schema"], "hybridmem-flight-v1");
        assert_eq!(parsed["triggered_cells"], 1, "{parsed}");
        assert_eq!(
            parsed["cells"].as_array().unwrap().len(),
            PolicyKind::all().len(),
            "completed cells dump their black box too"
        );
        let failed = parsed["cells"]
            .as_array()
            .unwrap()
            .iter()
            .find(|c| c["trigger"] == "panic")
            .expect("the panicking cell is in the dump");
        assert_eq!(failed["policy"], "two-lru");
        assert_eq!(failed["retries"], 2, "bounded retries exhausted");
        assert!(
            failed["error"]
                .as_str()
                .unwrap()
                .contains("panicked at access 100"),
            "{failed}"
        );
        // The tripwire rides before the recorder, so the ring stops
        // strictly before the dying access.
        let final_access = failed["final_access"].as_u64().unwrap();
        assert!(
            final_access < 100,
            "final access {final_access} < panic site"
        );
        let last_event = failed["events"].as_array().unwrap().last().unwrap();
        assert!(last_event["access"].as_u64().unwrap() < 100, "{last_event}");

        // Postmortem joins the dump with the health report into a
        // timeline that names the cell and correlates a prior signal.
        let flight_path = dir.join("flight.json");
        std::fs::write(&flight_path, &dumps[0]).unwrap();
        let report_path = dir.join("postmortem.json");
        let (result, text) = run_capture(&[
            "postmortem",
            "--flight",
            flight_path.to_str().unwrap(),
            "--health",
            health.to_str().unwrap(),
            "--json",
            report_path.to_str().unwrap(),
        ]);
        assert!(result.is_ok(), "{result:?}");
        assert!(
            text.contains(&format!("cell {trace_path}/two-lru — trigger panic")),
            "{text}"
        );
        assert!(text.contains("quarantined after 2"), "{text}");
        let report: Json = parse(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
        assert_eq!(report["schema"], "hybridmem-postmortem-v1");
        assert_eq!(report["triggered_cells"], 1, "{report}");
        let cell = report["cells"]
            .as_array()
            .unwrap()
            .iter()
            .find(|c| c["trigger"] == "panic")
            .expect("the failing cell is in the report");
        assert_eq!(cell["policy"], "two-lru");
        assert_eq!(cell["final_access"].as_u64().unwrap(), final_access);
        assert!(
            cell["correlated_signals"].as_u64().unwrap() >= 1,
            "at least one non-flight signal correlates: {cell}"
        );

        for p in [flight_path, report_path, health] {
            let _ = std::fs::remove_file(p);
        }
        let _ = std::fs::remove_file(trace_path);
    }

    #[test]
    fn observe_flight_out_dumps_a_completed_black_box() {
        let dir = std::env::temp_dir().join("hybridmem-cli-observe-flight");
        std::fs::create_dir_all(&dir).unwrap();
        let flight = dir.join("flight.json");
        let (result, text) = run_capture(&[
            "observe",
            "bodytrack",
            "--cap",
            "3000",
            "--window",
            "1000",
            "--flight-out",
            flight.to_str().unwrap(),
        ]);
        assert!(result.is_ok(), "{result:?}");
        assert!(text.contains("wrote flight recorder dump"), "{text}");
        // The interval stream is unchanged by the riding recorder.
        let records: Vec<&str> = text.lines().filter(|l| l.starts_with('{')).collect();
        assert_eq!(records.len(), 3);
        let parsed: Json = parse(&std::fs::read_to_string(&flight).unwrap()).unwrap();
        assert_eq!(parsed["schema"], "hybridmem-flight-v1");
        assert_eq!(parsed["triggered_cells"], 0);
        let cell = &parsed["cells"].as_array().unwrap()[0];
        assert_eq!(cell["trigger"], "completed");
        assert_eq!(cell["workload"], "bodytrack");
        assert_eq!(cell["accesses"], 3000, "{cell}");
        let _ = std::fs::remove_file(flight);
    }

    #[test]
    fn postmortem_requires_a_flight_dump() {
        let (result, _) = run_capture(&["postmortem"]);
        assert!(result.unwrap_err().to_string().contains("--flight"));
        let (result, _) = run_capture(&["postmortem", "--flight", "/no/such/file"]);
        assert!(result.unwrap_err().to_string().contains("cannot read"));
    }

    #[test]
    fn compare_resume_replays_journaled_cells_byte_identically() {
        let dir = std::env::temp_dir().join("hybridmem-cli-resume");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("a.trace");
        let trace_path = trace_path.to_str().unwrap();
        run_capture(&[
            "generate",
            "--workload",
            "bodytrack",
            "--output",
            trace_path,
            "--cap",
            "2000",
        ])
        .0
        .unwrap();
        let journal = dir.join("run.hmjournal");
        let _ = std::fs::remove_file(&journal);

        let (baseline, baseline_text) = run_capture(&["compare", trace_path, "--threads", "2"]);
        baseline.unwrap();

        // An interrupted run: one cell keeps panicking, the others
        // complete and land in the journal.
        let plan = format!("cell-panic@{trace_path}/two-lru:100");
        let (result, _) = run_capture(&[
            "compare",
            trace_path,
            "--threads",
            "2",
            "--fault-plan",
            &plan,
            "--resume",
            journal.to_str().unwrap(),
        ]);
        assert!(result.is_ok(), "{result:?}");

        // Resuming without the fault recomputes only the quarantined
        // cell; the output matches the uninterrupted run byte for byte.
        let (result, resumed_text) = run_capture(&[
            "compare",
            trace_path,
            "--threads",
            "2",
            "--resume",
            journal.to_str().unwrap(),
        ]);
        assert!(result.is_ok(), "{result:?}");
        assert_eq!(resumed_text, baseline_text, "resumed ≡ uninterrupted");

        // A second resume replays everything from the journal.
        let (result, replayed_text) = run_capture(&[
            "compare",
            trace_path,
            "--threads",
            "1",
            "--resume",
            journal.to_str().unwrap(),
        ]);
        assert!(result.is_ok(), "{result:?}");
        assert_eq!(replayed_text, baseline_text);

        // The journal cannot be combined with instrumentation streams.
        let (result, _) = run_capture(&[
            "compare",
            trace_path,
            "--resume",
            journal.to_str().unwrap(),
            "--metrics-out",
            dir.join("m.jsonl").to_str().unwrap(),
        ]);
        let err = result.unwrap_err().to_string();
        assert!(err.contains("--resume cannot be combined"), "{err}");

        // --flight-out stays allowed with --resume: journaled cells
        // simply have no flight record, so a fully replayed run dumps
        // an empty matrix (CI's chaos job relies on this combination).
        let flight = dir.join("flight.json");
        let (result, _) = run_capture(&[
            "compare",
            trace_path,
            "--resume",
            journal.to_str().unwrap(),
            "--flight-out",
            flight.to_str().unwrap(),
        ]);
        assert!(result.is_ok(), "{result:?}");
        let parsed: Json = parse(&std::fs::read_to_string(&flight).unwrap()).unwrap();
        assert_eq!(parsed["schema"], "hybridmem-flight-v1");
        assert_eq!(parsed["dumped_cells"], 0, "all cells replayed: {parsed}");
        let _ = std::fs::remove_file(flight);
        let _ = std::fs::remove_file(journal);
        let _ = std::fs::remove_file(trace_path);
    }

    #[test]
    fn analyze_diff_tables_and_gates() {
        let dir = std::env::temp_dir().join("hybridmem-cli-analyze-diff");
        std::fs::create_dir_all(&dir).unwrap();
        let line = |amat: f64| {
            format!(
                r#"{{"workload":"w","policy":"two-lru","interval":0,"start_access":0,"end_access":1000,"accesses":1000,"dram_read_hits":10,"dram_write_hits":5,"nvm_read_hits":700,"nvm_write_hits":200,"faults":85,"migrations_to_dram":3,"migrations_to_nvm":2,"fills_to_dram":0,"fills_to_nvm":85,"evictions_to_disk":80,"dram_occupancy":12,"nvm_occupancy":110,"hit_ratio":0.915,"amat_ns":{amat},"appr_nj":1.25}}"#
            )
        };
        let a = dir.join("a.jsonl");
        let b = dir.join("b.jsonl");
        std::fs::write(&a, format!("{}\n", line(100.0))).unwrap();
        std::fs::write(&b, format!("{}\n", line(150.0))).unwrap();

        let report = dir.join("diff.json");
        let (result, text) = run_capture(&[
            "analyze",
            "diff",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "--json",
            report.to_str().unwrap(),
        ]);
        assert!(result.is_ok(), "{result:?}");
        assert!(text.contains("REGRESSED"), "{text}");
        assert!(text.contains("amat_ns"), "{text}");

        // The emitted report passes its own round-trip check.
        let (result, text) = run_capture(&["analyze", "check", report.to_str().unwrap()]);
        assert!(result.is_ok(), "{result:?}");
        assert!(text.contains("byte-for-byte"), "{text}");

        // Gating on the same pair fails; the clean direction passes.
        let (result, _) = run_capture(&[
            "analyze",
            "diff",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "--gate",
            "true",
        ]);
        assert!(result.unwrap_err().to_string().contains("gate"));
        let (result, _) = run_capture(&[
            "analyze",
            "diff",
            a.to_str().unwrap(),
            a.to_str().unwrap(),
            "--gate",
            "true",
        ]);
        assert!(result.is_ok(), "{result:?}");
        for p in [a, b, report] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn analyze_diff_degrades_bad_jsonl_lines_to_warnings() {
        let dir = std::env::temp_dir().join("hybridmem-cli-analyze-warn");
        std::fs::create_dir_all(&dir).unwrap();
        let good = r#"{"workload":"w","policy":"two-lru","interval":0,"start_access":0,"end_access":1000,"accesses":1000,"dram_read_hits":10,"dram_write_hits":5,"nvm_read_hits":700,"nvm_write_hits":200,"faults":85,"migrations_to_dram":3,"migrations_to_nvm":2,"fills_to_dram":0,"fills_to_nvm":85,"evictions_to_disk":80,"dram_occupancy":12,"nvm_occupancy":110,"hit_ratio":0.915,"amat_ns":100.0,"appr_nj":1.25}"#;
        let a = dir.join("a.jsonl");
        // A good line, a torn tail, and a partial record: the ingest
        // keeps the good line and reports the other two.
        std::fs::write(&a, format!("{good}\n{{\"interval\":1}}\n{{\"torn")).unwrap();

        let report = dir.join("diff.json");
        let (result, text) = run_capture(&[
            "analyze",
            "diff",
            a.to_str().unwrap(),
            a.to_str().unwrap(),
            "--json",
            report.to_str().unwrap(),
            "--gate",
            "true",
        ]);
        assert!(result.is_ok(), "{result:?}");
        assert!(text.contains("warning: skipped"), "{text}");
        let json = std::fs::read_to_string(&report).unwrap();
        // Both sides load the same degraded file: 2 warnings each.
        assert!(json.contains("\"ingest_warnings\": 4"), "{json}");
        let (result, _) = run_capture(&["analyze", "check", report.to_str().unwrap()]);
        assert!(result.is_ok(), "{result:?}");
        for p in [a, report] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn analyze_metrics_prints_quantiles() {
        let dir = std::env::temp_dir().join("hybridmem-cli-analyze-metrics");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.json");
        std::fs::write(
            &path,
            r#"{"counters":{"sim.accesses":100},"gauges":{},
               "histograms":{"latency":{"count":3,"sum":30,"min":5,"max":20,"p50":10,"p95":20,"p99":20,"buckets":[]}}}"#,
        )
        .unwrap();
        let (result, text) = run_capture(&["analyze", "metrics", path.to_str().unwrap()]);
        assert!(result.is_ok(), "{result:?}");
        assert!(text.contains("p95"), "{text}");
        assert!(text.contains("latency"), "{text}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn analyze_rejects_unknown_modes_and_wrong_inputs() {
        let (result, _) = run_capture(&["analyze"]);
        assert!(result.unwrap_err().to_string().contains("usage"));
        let (result, _) = run_capture(&["analyze", "frobnicate"]);
        assert!(result.unwrap_err().to_string().contains("frobnicate"));
        let (result, _) = run_capture(&["analyze", "trajectory", "x.json"]);
        let err = result.unwrap_err().to_string();
        assert!(err.contains("unknown analyze mode \"trajectory\""), "{err}");
        let (result, _) = run_capture(&["analyze", "check", "/no/such/file"]);
        assert!(result.unwrap_err().to_string().contains("cannot read"));
    }

    #[test]
    fn ledger_command_prints_summary_and_jsonl() {
        let (result, text) = run_capture(&["ledger", "bodytrack", "--cap", "3000", "--top", "4"]);
        assert!(result.is_ok(), "{result:?}");
        assert!(text.contains("pages touched"), "{text}");
        assert!(text.contains("promotions"), "{text}");
        assert!(text.contains("top pages by migrations"), "{text}");

        let (result, json) = run_capture(&[
            "ledger",
            "bodytrack",
            "--cap",
            "3000",
            "--top",
            "4",
            "--json",
            "true",
        ]);
        assert!(result.is_ok(), "{result:?}");
        let lines: Vec<&str> = json.lines().collect();
        assert!(lines.len() >= 2, "header plus at least one page: {json}");
        assert!(
            lines[0].contains("\"workload\":\"bodytrack\""),
            "{}",
            lines[0]
        );
        for line in &lines {
            parse(line).unwrap();
        }
    }

    #[test]
    fn trace_page_prints_a_journey_and_reports_untouched_pages() {
        // Find a real page from the ledger's JSONL, then trace it.
        let (result, json) = run_capture(&[
            "ledger",
            "bodytrack",
            "--cap",
            "3000",
            "--top",
            "1",
            "--json",
            "true",
        ]);
        assert!(result.is_ok(), "{result:?}");
        let record: Json = parse(json.lines().nth(1).unwrap()).unwrap();
        let page = record["page"].as_u64().unwrap().to_string();

        let (result, text) = run_capture(&["trace-page", "bodytrack", &page, "--cap", "3000"]);
        assert!(result.is_ok(), "{result:?}");
        assert!(
            text.contains(&format!("page {page} under two-lru")),
            "{text}"
        );
        assert!(text.contains("fill into"), "{text}");

        let (result, json_line) = run_capture(&[
            "trace-page",
            "bodytrack",
            &page,
            "--cap",
            "3000",
            "--json",
            "true",
        ]);
        assert!(result.is_ok(), "{result:?}");
        let parsed: Json = parse(json_line.trim()).unwrap();
        assert_eq!(parsed["page"].as_u64().unwrap().to_string(), page);
        assert!(parsed["events"].as_array().is_some_and(|e| !e.is_empty()));

        let (result, text) = run_capture(&["trace-page", "bodytrack", "99999999", "--cap", "1000"]);
        assert!(result.is_ok(), "{result:?}");
        assert!(text.contains("never touched"), "{text}");

        let (result, _) = run_capture(&["trace-page", "bodytrack"]);
        assert!(result.unwrap_err().to_string().contains("trace-page"));
    }

    #[test]
    fn observe_streams_one_record_per_window() {
        let (result, text) =
            run_capture(&["observe", "bodytrack", "--cap", "3000", "--window", "1000"]);
        assert!(result.is_ok(), "{result:?}");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for (interval, line) in lines.iter().enumerate() {
            let record = parse(line).unwrap();
            assert_eq!(record["interval"], interval as u64);
            assert_eq!(record["accesses"], 1000);
            assert_eq!(record["policy"], "two-lru");
            assert_eq!(record["workload"], "bodytrack");
        }

        // Window 0: one whole-run record; a warmup prefix shrinks it.
        let (result, text) = run_capture(&[
            "observe",
            "bodytrack",
            "--cap",
            "3000",
            "--window",
            "0",
            "--warmup",
            "0.5",
        ]);
        assert!(result.is_ok(), "{result:?}");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1);
        let record = parse(lines[0]).unwrap();
        assert_eq!(record["accesses"], 1500);
        assert_eq!(record["start_access"], 1500);
    }

    #[test]
    fn compare_prices_a_one_page_trace_on_its_measured_footprint() {
        // Every memory needs two pages, so the trace's spec describes two;
        // the reports must still price the one page the trace touched.
        let dir = std::env::temp_dir().join("hybridmem-cli-one-page");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("one.txt");
        std::fs::write(&path, "R 0x1000 0\nW 0x1000 0\nR 0x1000 0\n").unwrap();
        let (result, text) = run_capture(&["compare", path.to_str().unwrap()]);
        assert!(result.is_ok(), "{result:?}");
        assert_eq!(
            text,
            "\
policy                 hit%   migrations     AMAT(ns)  energy/req nJ   NVM writes
two-lru              66.67%            0      1666700         548.62            0
clock-dwf            66.67%            0      1666700         548.62            0
clock-pro            66.67%            1      1692417        7112.88          513
dram-cache           66.67%            1      1692300        7102.22          512
dram-only            66.67%            0      1666700         548.90            0
nvm-only             66.67%            0      1666817        5474.20          513
two-lru-adaptive     66.67%            0      1666700         548.62            0
"
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn observe_rejects_bad_warmup_and_unknown_policy() {
        let (result, _) = run_capture(&["observe", "bodytrack", "--warmup", "1.5"]);
        assert!(result.unwrap_err().to_string().contains("--warmup"));
        let (result, _) = run_capture(&["observe", "bodytrack", "--policy", "nope"]);
        assert!(result.unwrap_err().to_string().contains("nope"));
        let (result, _) = run_capture(&["observe"]);
        assert!(result.unwrap_err().to_string().contains("workload"));
    }

    #[test]
    fn out_of_range_fractions_fail_before_any_cell_runs() {
        let dir = std::env::temp_dir().join("hybridmem-cli-fractions");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        let path = path.to_str().unwrap();
        let (result, _) = run_capture(&[
            "generate",
            "--workload",
            "bodytrack",
            "--output",
            path,
            "--cap",
            "5000",
        ]);
        assert!(result.is_ok(), "{result:?}");
        let commands: [&[&str]; 4] = [
            &["simulate", path, "--policy", "two-lru"],
            &["compare", path],
            &["observe", "bodytrack", "--cap", "5000"],
            &["ledger", "bodytrack", "--cap", "5000"],
        ];
        for command in commands {
            for (flag, value, field) in [
                ("--dram-fraction", "1.5", "dram_fraction"),
                ("--dram-fraction", "-0.1", "dram_fraction"),
                ("--memory-fraction", "-0.5", "memory_fraction"),
                ("--memory-fraction", "nan", "memory_fraction"),
                ("--memory-fraction", "1e300", "memory_fraction"),
            ] {
                let tokens = [command, &[flag, value]].concat();
                let (result, text) = run_capture(&tokens);
                let err = result.unwrap_err().to_string();
                assert!(err.contains(field), "{tokens:?}: {err}");
                assert!(!err.contains("cells failed"), "{tokens:?}: {err}");
                assert!(text.is_empty(), "{tokens:?}: {text}");
            }
            let tokens = [command, &["--dram-fraction", "1.0"]].concat();
            let (result, _) = run_capture(&tokens);
            assert!(result.is_ok(), "{tokens:?}: {result:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generate_requires_flags() {
        let (result, _) = run_capture(&["generate", "--workload", "bodytrack"]);
        assert!(result.unwrap_err().to_string().contains("--output"));
        let (result, _) = run_capture(&["generate", "--output", "/tmp/x"]);
        assert!(result.unwrap_err().to_string().contains("--workload"));
    }

    #[test]
    fn bad_policy_lists_alternatives() {
        let dir = std::env::temp_dir().join("hybridmem-cli-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.trace");
        let path = path.to_str().unwrap();
        run_capture(&[
            "generate",
            "--workload",
            "bodytrack",
            "--output",
            path,
            "--cap",
            "1000",
        ])
        .0
        .unwrap();
        let (result, _) = run_capture(&["simulate", path, "--policy", "nope"]);
        let message = result.unwrap_err().to_string();
        assert!(message.contains("two-lru") && message.contains("nope"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn generate_accepts_custom_spec_json() {
        let dir = std::env::temp_dir().join("hybridmem-cli-test3");
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("spec.json");
        let spec = WorkloadSpec::new(
            "custom",
            128,
            4_000,
            1_000,
            hybridmem_trace::LocalityParams::balanced(),
        )
        .unwrap();
        std::fs::write(&spec_path, hybridmem_json::to_string(&spec)).unwrap();
        let trace_path = dir.join("custom.trace");

        let (result, text) = run_capture(&[
            "generate",
            "--workload",
            spec_path.to_str().unwrap(),
            "--output",
            trace_path.to_str().unwrap(),
            "--cap",
            "0",
        ]);
        assert!(result.is_ok(), "{result:?}");
        assert!(text.contains("5000 accesses"), "{text}");

        // An invalid spec path reports both interpretations.
        let (result, _) = run_capture(&[
            "generate",
            "--workload",
            "no-such-thing",
            "--output",
            "/tmp/x",
        ]);
        let message = result.unwrap_err().to_string();
        assert!(message.contains("blackscholes"), "{message}");
        let _ = std::fs::remove_file(trace_path);
        let _ = std::fs::remove_file(spec_path);
    }

    #[test]
    fn format_detection() {
        let args = Args::parse(Vec::new()).unwrap();
        assert!(matches!(
            detect_format(&args, "a.txt").unwrap(),
            Format::Text
        ));
        assert!(matches!(
            detect_format(&args, "a.trace").unwrap(),
            Format::Binary
        ));
        let args = Args::parse(vec!["--format".into(), "nope".into()]).unwrap();
        assert!(detect_format(&args, "a").is_err());
    }
}
