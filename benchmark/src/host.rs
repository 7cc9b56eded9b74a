//! What the host charges the process: CPU seconds and peak resident
//! memory from `/proc`, plus the thread budget.

use std::num::NonZeroUsize;

/// `USER_HZ`: the unit of the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. It is a kernel ABI constant (100) on Linux, not
/// the scheduler tick, so no `sysconf` call is needed.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds out of one `/proc/<pid>/stat` line (fields
/// 14 and 15). The command name (field 2) may itself contain spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are 11 and 12
    // fields further on.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / CLOCK_TICKS_PER_S)
}

/// Peak resident set (`VmHWM`) in MB out of `/proc/<pid>/status`.
pub fn parse_status_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_ascii_whitespace();
    let kb: f64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kb / 1024.0)
}

/// CPU seconds (user + system, every thread, joined ones included) this
/// process has used so far.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu_s(&stat).expect("utime and stime in /proc/self/stat")
}

/// Peak resident set of this process so far, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_hwm_mb(&status).expect("VmHWM in /proc/self/status")
}

/// Cores the host offers this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// `T`: load-generating threads of the runtime workloads. Capped at 4 so
/// the number stays comparable between a laptop and a build server.
pub fn load_threads() -> usize {
    nproc().min(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_a_hostile_command_name() {
        let stat = "4242 (led) ger (x)) S 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                    250 50 7 3 20 0 3 0 123456 1000000 300 18446744073709551615";
        assert_eq!(parse_stat_cpu_s(stat), Some(3.0));
        assert_eq!(parse_stat_cpu_s("no paren here"), None);
        assert_eq!(parse_stat_cpu_s("1 (x) S 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_mb() {
        let status = "Name:\tledger\nVmPeak:\t  999999 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_status_hwm_mb(status), Some(5.0));
        assert_eq!(parse_status_hwm_mb("Name:\tledger\n"), None);
        assert_eq!(parse_status_hwm_mb("VmHWM:\t12 pages\n"), None);
    }
}
