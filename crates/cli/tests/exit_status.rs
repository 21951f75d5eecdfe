//! The `hybridmem` binary's failure path: a rejected configuration exits 1
//! with one `error:` line on stderr and no panic report; and a memory far
//! larger than the trace's footprint, which is valid, runs in bounded
//! memory.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs the built `hybridmem` binary with `args`.
fn hybridmem(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hybridmem"))
        .args(args)
        .output()
        .expect("the hybridmem binary starts")
}

/// Generates a 5 000-access bodytrack trace in a fresh directory named by
/// `tag` and returns the directory and the trace's path.
fn bodytrack_trace(tag: &str) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(format!(
        "hybridmem-exit-status-{tag}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.trace").to_str().unwrap().to_owned();
    let generated = hybridmem(&[
        "generate",
        "--workload",
        "bodytrack",
        "--output",
        &trace,
        "--cap",
        "5000",
    ]);
    assert!(generated.status.success(), "{generated:?}");
    (dir, trace)
}

#[test]
fn an_unindexable_memory_is_one_error_line_not_a_panic() {
    let (dir, trace) = bodytrack_trace("unindexable");
    let trace = trace.as_str();

    for args in [
        &["simulate", trace, "--policy", "two-lru"][..],
        &["compare", trace],
    ] {
        let args = [args, &["--memory-fraction", "1e300"]].concat();
        let out = hybridmem(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(lines.len(), 1, "{args:?}: {stderr}");
        assert!(lines[0].starts_with("error:"), "{args:?}: {stderr}");
        assert!(lines[0].contains("memory_fraction"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A memory fraction of 1e5 sizes the tiers at 1.5e8 pages, far beyond
/// the pages a 5 000-access trace brings. The policy queues pre-size for
/// a bounded number of pages and grow as pages arrive, so every policy
/// runs under a 1.5 GB address-space limit; pre-sizing for the tiers
/// asked for gigabytes and aborted, which per-cell isolation cannot
/// catch.
#[test]
fn a_huge_memory_runs_in_bounded_memory_for_every_policy() {
    let (dir, trace) = bodytrack_trace("huge-memory");
    for policy in [
        "two-lru",
        "clock-dwf",
        "clock-pro",
        "dram-cache",
        "dram-only",
        "nvm-only",
        "two-lru-adaptive",
    ] {
        let out = Command::new("sh")
            .args([
                "-c",
                "ulimit -v 1500000; exec \"$0\" simulate \"$1\" --policy \"$2\" --memory-fraction 1e5",
                env!("CARGO_BIN_EXE_hybridmem"),
                &trace,
                policy,
            ])
            .output()
            .expect("sh starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{policy}: {:?} {stderr}", out.status);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let requests = stdout.lines().find(|line| line.contains("requests"));
        assert!(
            requests.is_some_and(|line| line.contains(" 5000 (")),
            "{policy}: {stdout}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
