//! What the kernel says about this process: peak memory, its threads by
//! name, and per-thread CPU and run-queue time. Read from outside the
//! program's own counters.

use std::collections::BTreeMap;

/// Peak resident set size (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The kernel's id of this process's thread named `name`.
pub fn thread_id(name: &str) -> Option<i32> {
    std::fs::read_dir("/proc/self/task")
        .ok()?
        .flatten()
        .find(|task| {
            std::fs::read_to_string(task.path().join("comm")).is_ok_and(|comm| comm.trim() == name)
        })
        .and_then(|task| task.file_name().to_str()?.parse().ok())
}

/// `(on-CPU ns, runnable-but-waiting ns)` of every live thread, by name,
/// from `/proc/self/task/*/schedstat`. Threads sharing a name are summed.
pub fn thread_times() -> BTreeMap<String, (u64, u64)> {
    let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let dir = task.path();
        let (Ok(comm), Ok(stat)) = (
            std::fs::read_to_string(dir.join("comm")),
            std::fs::read_to_string(dir.join("schedstat")),
        ) else {
            continue;
        };
        let mut fields = stat
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        let (run, wait) = (fields.next().unwrap_or(0), fields.next().unwrap_or(0));
        let e = out.entry(comm.trim().to_string()).or_default();
        e.0 += run;
        e.1 += wait;
    }
    out
}
