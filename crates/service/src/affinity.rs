//! Core-affinity runtime for shard workers and the compactor.
//!
//! Shard count alone does not translate into throughput when workers
//! migrate between cores, dragging their delta summaries and pool
//! buffers across caches. Pinning each worker to its own core (and the
//! compactor to the next one) keeps the per-shard working set hot.
//!
//! The binding is a raw `extern "C"` declaration of Linux's
//! `sched_setaffinity(2)` — the workspace stays dependency-free, no
//! `libc` crate. The plan degrades to a logged no-op instead of failing:
//!
//! - on non-Linux targets (no portable affinity syscall),
//! - when `host_cpus < shards` (pinning would stack several workers on
//!   one core and *serialize* them — worse than letting the scheduler
//!   balance),
//! - when the operator did not pass `--pin-cores` (the default).
//!
//! The reason for skipping is recorded in [`AffinityStatus`] so the
//! telemetry snapshot and the bench harness can report exactly why
//! pinning did or did not happen.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Bits in the fixed-size CPU mask handed to the kernel: 1024 CPUs, the
/// same size glibc's `cpu_set_t` defaults to.
#[allow(dead_code)] // only the Linux syscall shim consumes it
const CPU_SET_WORDS: usize = 1024 / 64;

#[cfg(target_os = "linux")]
mod sys {
    use super::CPU_SET_WORDS;

    extern "C" {
        // int sched_setaffinity(pid_t pid, size_t cpusetsize, const cpu_set_t *mask);
        // pid 0 targets the calling thread.
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// Pin the calling thread to `cpu`. Returns false if the kernel
    /// rejected the mask (e.g. the CPU is offline or outside the cgroup).
    pub fn pin_current_thread(cpu: usize) -> bool {
        if cpu >= CPU_SET_WORDS * 64 {
            return false;
        }
        let mut mask = [0u64; CPU_SET_WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        // Safety: the mask is a valid, initialized buffer of the size we
        // report, and pid 0 is the calling thread.
        unsafe { sched_setaffinity(0, CPU_SET_WORDS * 8, mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    /// Non-Linux targets have no `sched_setaffinity`; the plan has
    /// already recorded the skip reason, this is just the terminal no-op.
    pub fn pin_current_thread(_cpu: usize) -> bool {
        false
    }
}

/// Snapshot of what the affinity runtime did, for telemetry and benches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffinityStatus {
    /// Whether the operator asked for pinning (`--pin-cores`).
    pub requested: bool,
    /// Whether the plan decided pinning applies on this host.
    pub enabled: bool,
    /// Threads successfully pinned so far.
    pub pinned: usize,
    /// Why pinning is a no-op, when it is.
    pub skip_reason: Option<String>,
}

impl AffinityStatus {
    /// One-line human-readable form for logs and bench output.
    pub fn describe(&self) -> String {
        if self.enabled {
            format!("affinity on ({} threads pinned)", self.pinned)
        } else {
            format!(
                "affinity off ({})",
                self.skip_reason.as_deref().unwrap_or("not requested")
            )
        }
    }
}

/// Decides which core each engine thread gets and applies the pin.
#[derive(Debug)]
pub struct AffinityPlan {
    requested: bool,
    shards: usize,
    host_cpus: usize,
    skip_reason: Option<String>,
    pinned: AtomicUsize,
}

impl AffinityPlan {
    /// Build a plan for `shards` workers on a host with `host_cpus`
    /// logical CPUs. The no-op rules live here so they are decided once,
    /// up front, with a recorded reason.
    pub fn new(requested: bool, shards: usize, host_cpus: usize) -> AffinityPlan {
        let skip_reason = if !requested {
            Some("pin_cores disabled".to_string())
        } else if !cfg!(target_os = "linux") {
            Some("non-Linux target: no sched_setaffinity".to_string())
        } else if host_cpus < shards {
            Some(format!(
                "host_cpus {host_cpus} < shards {shards}: pinning would stack workers"
            ))
        } else {
            None
        };
        AffinityPlan {
            requested,
            shards,
            host_cpus,
            skip_reason,
            pinned: AtomicUsize::new(0),
        }
    }

    /// True when the plan will actually pin threads.
    pub fn enabled(&self) -> bool {
        self.skip_reason.is_none()
    }

    /// Core for worker `shard`: one core per shard, in order.
    fn worker_cpu(&self, shard: usize) -> Option<usize> {
        if self.enabled() {
            Some(shard)
        } else {
            None
        }
    }

    /// Core for the compactor: the first core after the workers when the
    /// host has one spare, otherwise unpinned so it can float between the
    /// workers' cores instead of serializing behind shard 0.
    fn compactor_cpu(&self) -> Option<usize> {
        if self.enabled() && self.host_cpus > self.shards {
            Some(self.shards)
        } else {
            None
        }
    }

    /// Pin the calling worker thread for `shard`. Returns the core it was
    /// pinned to, or `None` if the plan (or the kernel) declined.
    pub fn pin_worker(&self, shard: usize) -> Option<usize> {
        self.pin_to(self.worker_cpu(shard)?)
    }

    /// Pin the calling compactor thread per the plan.
    pub fn pin_compactor(&self) -> Option<usize> {
        self.pin_to(self.compactor_cpu()?)
    }

    fn pin_to(&self, cpu: usize) -> Option<usize> {
        if sys::pin_current_thread(cpu) {
            self.pinned.fetch_add(1, Ordering::Relaxed);
            Some(cpu)
        } else {
            None
        }
    }

    /// Current status snapshot.
    pub fn status(&self) -> AffinityStatus {
        AffinityStatus {
            requested: self.requested,
            enabled: self.enabled(),
            pinned: self.pinned.load(Ordering::Relaxed),
            skip_reason: self.skip_reason.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_is_a_recorded_noop() {
        let plan = AffinityPlan::new(false, 4, 64);
        assert!(!plan.enabled());
        assert_eq!(plan.pin_worker(0), None);
        assert_eq!(plan.pin_compactor(), None);
        let status = plan.status();
        assert!(!status.requested);
        assert_eq!(status.pinned, 0);
        assert_eq!(status.skip_reason.as_deref(), Some("pin_cores disabled"));
        assert!(status.describe().contains("affinity off"));
    }

    #[test]
    fn undersized_host_skips_with_logged_reason() {
        let plan = AffinityPlan::new(true, 8, 2);
        assert!(!plan.enabled());
        assert_eq!(plan.pin_worker(3), None);
        let reason = plan.status().skip_reason.unwrap();
        assert!(reason.contains("host_cpus 2 < shards 8"), "{reason}");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pinning_to_cpu0_succeeds_on_linux() {
        // Every Linux host has CPU 0 online; host_cpus == shards leaves
        // the compactor unpinned by design.
        let plan = AffinityPlan::new(true, 1, 1);
        assert!(plan.enabled());
        assert_eq!(plan.pin_worker(0), Some(0));
        assert_eq!(plan.pin_compactor(), None);
        assert_eq!(plan.status().pinned, 1);
        assert!(plan.status().describe().contains("affinity on"));
    }

    #[test]
    fn spare_core_hosts_pin_the_compactor_after_the_workers() {
        let plan = AffinityPlan::new(true, 2, 8);
        assert!(plan.enabled());
        assert_eq!(plan.worker_cpu(0), Some(0));
        assert_eq!(plan.worker_cpu(1), Some(1));
        assert_eq!(plan.compactor_cpu(), Some(2));
    }

    #[test]
    fn out_of_range_cpu_is_rejected_not_undefined() {
        assert!(!sys::pin_current_thread(CPU_SET_WORDS * 64 + 1));
    }
}
