//! Process-level resource introspection for perfbench, the repository's
//! benchmark (`BENCHMARK.json`), which reports the peak as `peak_rss_mb`.
//! No workspace crate calls it.
//!
//! Like the [`span`](crate::span) profiler, everything here is a
//! measurement artefact: values vary run to run and machine to machine,
//! never feed back into simulation results, and must not be compared for
//! determinism.

/// Peak resident-set size of the current process in bytes, or `None` when
/// the platform does not expose it.
///
/// On Linux this is `VmHWM` ("high-water mark") from `/proc/self/status`,
/// the kernel's running maximum of the process's resident set. Other
/// platforms return `None`, so a caller records the value as absent
/// rather than guessing.
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        parse_vm_hwm(&status)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Extracts `VmHWM` (reported by the kernel in kibibytes) from the
/// contents of `/proc/self/status`.
#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line
        .strip_prefix("VmHWM:")?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib.saturating_mul(1024))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_realistic_status_excerpt() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  123456 kB\nVmHWM:\t   98304 kB\nVmRSS:\t   65536 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(98_304 * 1024));
    }

    #[test]
    fn missing_or_malformed_field_is_none() {
        assert_eq!(parse_vm_hwm(""), None);
        assert_eq!(parse_vm_hwm("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tnot-a-number kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn reports_a_positive_peak_on_linux() {
        let peak = peak_rss_bytes().expect("/proc/self/status has VmHWM");
        assert!(peak > 0);
    }
}
