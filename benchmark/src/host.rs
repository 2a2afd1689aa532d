//! Host gauges read from `/proc`: peak resident set, hypervisor steal
//! and run-queue wait. They tell a disturbed run from a slow program;
//! none of them is a benchmark metric except `peak_rss_mb`.

use std::fs;

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Steal ticks summed over all CPUs (`/proc/stat`, eighth field of the
/// aggregate `cpu` line): time the hypervisor ran someone else.
pub fn steal_ticks() -> u64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// `(on-CPU ns, run-queue wait ns)` of the calling thread, from
/// `/proc/thread-self/schedstat`.
pub fn thread_schedstat() -> (u64, u64) {
    let s = fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut it = s.split_whitespace().map(|v| v.parse::<u64>().unwrap_or(0));
    (it.next().unwrap_or(0), it.next().unwrap_or(0))
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
