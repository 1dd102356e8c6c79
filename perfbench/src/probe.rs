//! Host resource probes read from `/proc/self/{status,stat}`.
//!
//! The parsers take the file text and return a typed error on truncated or
//! garbage input; they never panic. A probe that cannot read `/proc` yields
//! `None` at the call site, so the metric is omitted rather than reported
//! as zero.

use std::fmt;

/// Why a `/proc` probe produced no value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeError {
    /// The file could not be read (no `/proc`, permissions, ...).
    Unreadable(String),
    /// A required field is absent.
    MissingField(&'static str),
    /// A field is present but its value does not parse.
    BadValue(&'static str),
}

impl fmt::Display for ProbeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProbeError::Unreadable(e) => write!(f, "cannot read /proc: {e}"),
            ProbeError::MissingField(k) => write!(f, "field {k} missing"),
            ProbeError::BadValue(k) => write!(f, "field {k} does not parse"),
        }
    }
}

/// The `/proc/self/status` fields the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Peak resident set size (`VmHWM`), in bytes.
    pub vm_hwm_bytes: u64,
    /// Involuntary context switches so far.
    pub nonvoluntary_ctxt_switches: u64,
}

/// Parse the text of `/proc/self/status`.
pub fn parse_status(text: &str) -> Result<Status, ProbeError> {
    fn field<'t>(text: &'t str, key: &'static str) -> Result<&'t str, ProbeError> {
        text.lines()
            .find_map(|l| l.strip_prefix(key).and_then(|rest| rest.strip_prefix(':')))
            .map(str::trim)
            .ok_or(ProbeError::MissingField(key))
    }
    let hwm = field(text, "VmHWM")?;
    let kb = hwm
        .strip_suffix("kB")
        .map(str::trim)
        .and_then(|v| v.parse::<u64>().ok())
        .and_then(|v| v.checked_mul(1024))
        .ok_or(ProbeError::BadValue("VmHWM"))?;
    let nv = field(text, "nonvoluntary_ctxt_switches")?
        .parse::<u64>()
        .map_err(|_| ProbeError::BadValue("nonvoluntary_ctxt_switches"))?;
    Ok(Status { vm_hwm_bytes: kb, nonvoluntary_ctxt_switches: nv })
}

/// User plus system CPU time from `/proc/self/stat`, in clock ticks.
///
/// The command name (field 2) is parenthesised and may itself contain
/// spaces or parentheses, so fields are counted after the *last* `)`.
pub fn parse_stat_cpu_ticks(text: &str) -> Result<u64, ProbeError> {
    let close = text.rfind(')').ok_or(ProbeError::MissingField("comm"))?;
    // After the command: field 3 (state) is index 0, so utime (field 14)
    // is index 11 and stime (field 15) is index 12.
    let mut rest = text[close + 1..].split_whitespace().skip(11);
    let mut next = |name: &'static str| -> Result<u64, ProbeError> {
        rest.next()
            .ok_or(ProbeError::MissingField(name))?
            .parse::<u64>()
            .map_err(|_| ProbeError::BadValue(name))
    };
    let utime = next("utime")?;
    let stime = next("stime")?;
    utime.checked_add(stime).ok_or(ProbeError::BadValue("stime"))
}

/// Clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`). The kernel
/// fixes this at 100 in its user-visible ABI on every mainstream
/// architecture.
pub const USER_HZ: f64 = 100.0;

fn read(path: &str) -> Result<String, ProbeError> {
    std::fs::read_to_string(path).map_err(|e| ProbeError::Unreadable(e.to_string()))
}

/// Read and parse `/proc/self/status`.
pub fn status() -> Result<Status, ProbeError> {
    parse_status(&read("/proc/self/status")?)
}

/// Read `/proc/self/stat` and return user + system CPU seconds.
pub fn cpu_seconds() -> Result<f64, ProbeError> {
    Ok(parse_stat_cpu_ticks(&read("/proc/self/stat")?)? as f64 / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tmgpu-perfbench\nState:\tR (running)\nVmPeak:\t  123456 kB\n\
        VmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\nThreads:\t3\n\
        voluntary_ctxt_switches:\t17\nnonvoluntary_ctxt_switches:\t42\n";

    #[test]
    fn status_fields_parse() {
        let s = parse_status(STATUS).unwrap();
        assert_eq!(s.vm_hwm_bytes, 51200 * 1024);
        assert_eq!(s.nonvoluntary_ctxt_switches, 42);
    }

    #[test]
    fn status_rejects_truncated_and_garbage_input() {
        // Cut inside the VmHWM value: unit missing.
        let cut = &STATUS[..STATUS.find("51200").unwrap() + 3];
        assert_eq!(parse_status(cut), Err(ProbeError::BadValue("VmHWM")));
        // Cut before the context-switch line.
        let cut = &STATUS[..STATUS.find("voluntary").unwrap()];
        assert_eq!(parse_status(cut), Err(ProbeError::MissingField("nonvoluntary_ctxt_switches")));
        assert_eq!(parse_status(""), Err(ProbeError::MissingField("VmHWM")));
        assert_eq!(parse_status("VmHWM:\tlots kB\n"), Err(ProbeError::BadValue("VmHWM")));
        assert_eq!(
            parse_status("VmHWM:\t99999999999999999999 kB\n"),
            Err(ProbeError::BadValue("VmHWM"))
        );
        let bad_nv = "VmHWM:\t1 kB\nnonvoluntary_ctxt_switches:\t-3\n";
        assert_eq!(parse_status(bad_nv), Err(ProbeError::BadValue("nonvoluntary_ctxt_switches")));
        // Arbitrary bytes never panic.
        for junk in ["\u{0}\u{1}:", "VmHWM", "VmHWM:", ":::::", "VmHWM: kB"] {
            assert!(parse_status(junk).is_err(), "{junk:?}");
        }
    }

    #[test]
    fn stat_cpu_ticks_parse_past_a_hostile_command_name() {
        let stat = "4242 (my) (prog) R 1 4242 4242 0 -1 4194304 100 0 0 0 250 31 0 0 20 0 3 0 \
                    12345 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Ok(281));
    }

    #[test]
    fn stat_rejects_truncated_and_garbage_input() {
        assert_eq!(parse_stat_cpu_ticks(""), Err(ProbeError::MissingField("comm")));
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2 3"), Err(ProbeError::MissingField("utime")));
        assert_eq!(
            parse_stat_cpu_ticks("1 (x) R 1 1 1 0 -1 0 0 0 0 0 250"),
            Err(ProbeError::MissingField("stime"))
        );
        assert_eq!(
            parse_stat_cpu_ticks("1 (x) R 1 1 1 0 -1 0 0 0 0 0 ab 3"),
            Err(ProbeError::BadValue("utime"))
        );
        assert_eq!(
            parse_stat_cpu_ticks("1 (x) R 1 1 1 0 -1 0 0 0 0 0 1 18446744073709551615"),
            Err(ProbeError::BadValue("stime"))
        );
    }

    #[test]
    fn live_probes_read_this_process() {
        // Only meaningful where /proc exists; elsewhere the typed error is
        // the expected outcome.
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(status().unwrap().vm_hwm_bytes > 0);
            assert!(cpu_seconds().unwrap() >= 0.0);
        } else {
            assert!(matches!(status(), Err(ProbeError::Unreadable(_))));
        }
    }
}
