//! The `hybridmem` binary's failure path: a rejected configuration exits 1
//! with one `error:` line on stderr and no panic report.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs the built `hybridmem` binary with `args`.
fn hybridmem(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hybridmem"))
        .args(args)
        .output()
        .expect("the hybridmem binary starts")
}

#[test]
fn an_unindexable_memory_is_one_error_line_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("hybridmem-exit-status-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace: PathBuf = dir.join("t.trace");
    let trace = trace.to_str().unwrap();
    let generated = hybridmem(&[
        "generate",
        "--workload",
        "bodytrack",
        "--output",
        trace,
        "--cap",
        "5000",
    ]);
    assert!(generated.status.success(), "{generated:?}");

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
