//! Process resource readings from `/proc` (Linux).

/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU times
/// (`USER_HZ`, 100 on every mainstream Linux architecture).
const TICKS_PER_SECOND: f64 = 100.0;

fn proc_dir(pid: Option<u32>) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}"),
        None => "/proc/self".to_owned(),
    }
}

/// Peak resident set size (`VmHWM`) of a process in MB; `None` (the
/// default) reads this process.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let status = std::fs::read_to_string(format!("{}/status", proc_dir(pid))).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU seconds a process (all its threads, live and
/// exited) has consumed.
pub fn cpu_seconds(pid: Option<u32>) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("{}/stat", proc_dir(pid))).ok()?;
    // The command name may contain spaces; the fields after it are
    // positional, starting with the state (field 3).
    let after = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SECOND)
}

/// Resets a process's peak resident set size to its current size
/// (`/proc/<pid>/clear_refs`, Linux 4.0+); false where not permitted.
pub fn reset_peak_rss(pid: Option<u32>) -> bool {
    std::fs::write(format!("{}/clear_refs", proc_dir(pid)), "5").is_ok()
}
