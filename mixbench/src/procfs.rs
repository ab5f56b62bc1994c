//! What Linux says about this process; 0 where `/proc` is absent.

fn status_field(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

/// Live OS threads.
pub fn threads() -> u64 {
    status_field("Threads:")
}

/// Peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:") as f64 / 1024.0
}

/// CPU seconds (user + system) of the whole process, from
/// `/proc/self/stat` at the usual 100 ticks per second.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and
            // stime are the 12th and 13th of those.
            let rest = s.rsplit_once(')')?.1.to_string();
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some((f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?) as f64 / 100.0)
        })
        .unwrap_or(0.0)
}
