//! Host fingerprint written into every result file, and the thread guard.

use crate::util::Res;
use serde_json::{json, Value};
use std::path::Path;

/// The engine's page size in bytes.
pub const PAGE: u64 = 8192;

/// CPUs this process could use when it first asked — before
/// [`pin_to_one_cpu`] narrowed it down.
pub fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Refuses a workload that needs more busy threads than the host has
/// cores: it would measure the scheduler.
pub fn require_threads(threads: usize) -> Res<()> {
    if threads > nproc() {
        return Err(format!(
            "sizing guard: workload needs {threads} busy threads, host has {} cores",
            nproc()
        )
        .into());
    }
    Ok(())
}

/// Pins this process (and every thread it starts later) to one of the CPUs
/// it is allowed on, through `taskset` from util-linux; returns the CPU, or
/// `None` when that did not work and the run goes on unpinned.
///
/// The workloads that call this have one thread busy at a time: a single
/// caller, or a client and a server session that strictly alternate. Left
/// to the scheduler, the sandbox's two virtual CPUs add a migration or a
/// cross-CPU wake-up of a halted CPU to an operation at random — 35 to over
/// 100 µs per wire round trip depending on what else the host is doing,
/// against 15 µs for the code path — and one build's median latency came
/// out at 15, 50, 70 or 130 µs from run to run.
pub fn pin_to_one_cpu() -> Option<usize> {
    nproc();
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim();
    // The last allowed CPU: the first one tends to take the interrupts.
    let cpu: usize = list.rsplit([',', '-']).next()?.parse().ok()?;
    let done = std::process::Command::new("taskset")
        .args([
            "-a",
            "-p",
            "-c",
            &cpu.to_string(),
            &std::process::id().to_string(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .ok()?;
    if !done.success() {
        eprintln!("benchmark: taskset failed; running unpinned, expect a wider spread");
        return None;
    }
    Some(cpu)
}

/// File system type of the mount holding `dir` (longest mount-point prefix
/// in `/proc/mounts`), or `"unknown"`.
pub fn filesystem(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_owned());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

pub fn fingerprint(dir: &Path) -> Value {
    json!({
        "nproc": nproc(),
        "filesystem": filesystem(dir),
        "os": std::env::consts::OS,
        "arch": std::env::consts::ARCH
    })
}
