//! Host facts recorded in every result file, and the `/proc` readers behind
//! `cpu_s_per_mitem` and `peak_rss_mb`.

use ms_core::json::Json;
use std::fs;
use std::path::Path;
use std::sync::OnceLock;

/// `utime + stime` of a process in seconds. `/proc/<pid>/stat` counts in
/// `USER_HZ` ticks, which Linux fixes at 100 for user space.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split(' ');
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// Peak resident set (`VmHWM`) of a process in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Cores this process could run on when it first asked — that is, before
/// `pin` narrowed the calling thread's mask, which is what
/// `available_parallelism` reads.
pub fn nproc() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Restrict the calling thread — and with it every thread and process it
/// starts afterwards, the servers included — to the last core.
///
/// One core for both sides, on purpose. On the virtualized two-core host
/// this benchmark runs on, a wake-up that crosses cores goes through the
/// hypervisor, and its cost was both the largest and the least stable part
/// of a round trip: with the generator on one core and the servers on the
/// other, `cluster-3node` drifted from 4.6 M to 3.3 M items/s within an hour
/// while `ingest-mem` held still; sharing one core it read 5.4 M both
/// times, with less server CPU per item. The generator's cycles are then
/// part of `ingest_items_per_s`; `cpu_s_per_mitem` counts the servers alone.
pub fn pin_to_one_core() {
    let core = nproc().min(64) - 1;
    let mask = 1u64 << core;
    extern "C" {
        // int sched_setaffinity(pid_t pid, size_t cpusetsize, const cpu_set_t *mask);
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `mask` is an initialized 8-byte buffer and its size is passed
    // with it; pid 0 names the calling thread. A refusal (a cpuset that
    // excludes the core) leaves the thread where it was, which only costs
    // steadiness.
    let _ = unsafe { sched_setaffinity(0, 8, &mask) };
}

/// Let this thread's sleeps end when asked rather than up to 50 µs later
/// (the default timer slack), so an open-loop sender is on time without
/// spinning on the core it shares with the servers.
pub fn exact_sleeps() {
    const PR_SET_TIMERSLACK: i32 = 29;
    extern "C" {
        // int prctl(int option, unsigned long arg2, ...);
        fn prctl(option: i32, arg2: u64, ...) -> i32;
    }
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument (nanoseconds)
    // and touches only the calling thread's timer slack.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1u64) };
}

/// The checked-out commit, read from `.git` directly so a checkout that is
/// not a repository (the benchmark driver's) is never searched upward.
fn git_commit(root: &Path) -> String {
    let head = match fs::read_to_string(root.join(".git/HEAD")) {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(hash) = fs::read_to_string(root.join(".git").join(reference)) {
        return hash.trim().to_string();
    }
    fs::read_to_string(root.join(".git/packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn facts(root: &Path) -> Json {
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    Json::obj([
        ("nproc", Json::U64(nproc() as u64)),
        ("kernel", Json::Str(kernel)),
        ("git_commit", Json::Str(git_commit(root))),
        ("generator_threads", Json::U64(2)),
        (
            "placement",
            Json::Str(format!(
                "servers and generator share core {}",
                nproc().min(64) - 1
            )),
        ),
        (
            "shard_scaling",
            Json::Str(format!(
                "unmeasured: {} core(s), every node runs --shards {}",
                nproc(),
                crate::spec::SHARDS
            )),
        ),
    ])
}
