//! What the host looked like while the benchmark ran, so that a noisy box
//! is visible next to the numbers.

use std::fs;

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn cpu_model() -> String {
    proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into())
}

/// The 1-minute load average.
pub fn load_1m() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

pub fn describe() -> String {
    format!(
        "host: nproc={} cpu=\"{}\" load_1m={:.2}",
        nproc(),
        cpu_model(),
        load_1m()
    )
}
