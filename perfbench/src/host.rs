//! Facts about the machine a result was measured on, and the process's
//! own peak memory.

use matc::json::Json;
use std::process::Command;

/// CPUs the host offers the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The first line a command prints, or `"unknown"` when it cannot run.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(crate::corpus::repo_root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(|l| l.trim().to_string())
        })
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The stamp every result file carries: core count, toolchain and C
/// compiler versions, the commit measured (`unknown` outside a git
/// checkout) and the seed.
pub fn stamp(seed: u64) -> Json {
    Json::Obj(vec![
        ("nproc".into(), Json::num(nproc() as u64)),
        (
            "rustc".into(),
            Json::str(first_line("rustc", &["--version"])),
        ),
        ("cc".into(), Json::str(first_line("cc", &["--version"]))),
        (
            "git_commit".into(),
            Json::str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed".into(), Json::num(seed)),
    ])
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands the heap's free pages back to the operating system, as the
/// exit of a process would. The serve workloads call it between
/// servers. Without it glibc keeps much of a stopped server's freed
/// memory resident in fragmented thread arenas, and the peak RSS grew
/// with the number of servers a run happened to start (115 MB after one
/// `serve-edit` server, 183 MB after four) rather than with what one
/// server holds.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` only releases memory the allocator holds
    // free; it touches no live allocation.
    unsafe {
        malloc_trim(0);
    }
}

/// This process's peak resident set (`VmHWM`), in MiB. Workloads read
/// it when their timed window has ended, so it covers set-up and every
/// slice.
///
/// # Errors
///
/// Fails where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
