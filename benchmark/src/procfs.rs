//! What `/proc/<pid>` says about a process: the benchmark's own memory
//! in-process, the daemon's memory, CPU time and threads when serving.

/// Clock ticks per second of the `utime`/`stime` fields. Linux has
/// reported 100 to user space on every architecture since 2.6.
const USER_HZ: f64 = 100.0;

fn read(pid: &str, file: &str) -> String {
    std::fs::read_to_string(format!("/proc/{pid}/{file}")).unwrap_or_default()
}

fn peak_rss_kb(status: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// in MB; 0 when `/proc` does not say.
pub fn peak_rss_mb(pid: &str) -> f64 {
    peak_rss_kb(&read(pid, "status")).unwrap_or(0.0) / 1024.0
}

/// CPU milliseconds (user + system) and thread count out of a
/// `/proc/<pid>/stat` line.
fn cpu_ms_and_threads(stat: &str) -> Option<(f64, f64)> {
    // The command name may hold spaces; fields are counted after its ')'.
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    // After the ')' come state (field 3), …; utime is field 14, stime 15,
    // num_threads 20.
    let field = |n: usize| fields.get(n - 3)?.parse::<f64>().ok();
    Some(((field(14)? + field(15)?) * 1e3 / USER_HZ, field(20)?))
}

/// CPU milliseconds used so far and current thread count of process `pid`.
pub fn cpu_ms_and_thread_count(pid: &str) -> (f64, f64) {
    cpu_ms_and_threads(&read(pid, "stat")).unwrap_or((0.0, 0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_peak_rss_from_a_status_file() {
        let status =
            "Name:\tbeamdyn-daemon\nVmPeak:\t  300000 kB\nVmHWM:\t   48128 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(peak_rss_kb(status), Some(48128.0));
        assert_eq!(peak_rss_kb("Name:\tx\n"), None);
        assert!(peak_rss_mb("self") > 0.0);
    }

    #[test]
    fn reads_cpu_time_and_threads_from_a_stat_line() {
        let stat = "4242 (beam dyn) daemon) S 1 4242 4242 0 -1 4194560 900 0 0 0 \
                    250 50 0 0 20 0 9 0 12345 1000000 2000 18446744073709551615";
        assert_eq!(cpu_ms_and_threads(stat), Some((3000.0, 9.0)));
        assert_eq!(cpu_ms_and_threads("garbage"), None);
        assert!(cpu_ms_and_thread_count("self").1 >= 1.0);
    }
}
