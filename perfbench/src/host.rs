//! Host fingerprint and process memory: what every run records about
//! the machine it ran on.

use std::path::Path;
use std::process::Command;

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// The host and source a run measured, as one JSON object.
pub fn provenance_json(workload: &str, seed: u64, seconds: f64, traced: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let s = levee_core::json_str;
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \
         \"traced\": {traced}, \"nproc\": {nproc}, \"cpu_model\": {}, \"kernel_release\": {}, \
         \"git_commit\": {}}}}}",
        s(workload),
        s(&cpu),
        s(&kernel),
        s(&git_commit()),
    )
}

/// The commit of the checkout the benchmark runs from, if the working
/// directory is a git checkout's root ("unknown" otherwise: the command
/// never looks above its own directory).
fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}
