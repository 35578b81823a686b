//! Host readings taken beside every run, so a slower host can be told
//! from a slower commit: a fixed calibration kernel, run-queue wait from
//! `schedstat`, and hypervisor steal from `/proc/stat`. Peak RSS comes
//! from `VmHWM`. All of them only read under `/proc`.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the calibration kernel per timing.
const CALIB_ITERS: u64 = 20_000_000;

/// Times a fixed integer and floating-point kernel; returns iterations
/// per second.
fn calib_rate() -> f64 {
    let start = Instant::now();
    let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
    let mut acc = 0.0f64;
    for _ in 0..black_box(CALIB_ITERS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += (x >> 11) as f64 * 1.0e-16;
    }
    black_box((x, acc));
    CALIB_ITERS as f64 / start.elapsed().as_secs_f64()
}

/// `VmHWM` (peak resident set) of `pid` (`None` = this process) in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Run time and run-queue wait (ns) of this process's main thread.
fn schedstat() -> (u64, u64) {
    let read = || -> Option<(u64, u64)> {
        let s = std::fs::read_to_string("/proc/self/schedstat").ok()?;
        let mut f = s.split_whitespace();
        Some((f.next()?.parse().ok()?, f.next()?.parse().ok()?))
    };
    read().unwrap_or((0, 0))
}

/// Times the calibration kernel; returns its rate and the main thread's
/// run time and run-queue wait (ns) while it ran.
fn calibrate() -> (f64, (u64, u64)) {
    let s0 = schedstat();
    let rate = calib_rate();
    let s1 = schedstat();
    (rate, (s1.0.saturating_sub(s0.0), s1.1.saturating_sub(s0.1)))
}

/// Steal and total jiffies of the machine's aggregate `cpu` line.
fn cpu_jiffies() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    let total: u64 = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Host readings bracketing one timed phase: the calibration kernel
/// before and after it, the run-queue wait the kernel met (a single
/// thread that always wants a CPU, so its wait is other load on the
/// host), and hypervisor steal over the whole phase.
pub struct HostProbe {
    calib_before: (f64, (u64, u64)),
    cpu0: (u64, u64),
}

/// What a [`HostProbe`] saw.
pub struct HostReadings {
    pub calib_rate: f64,
    pub runqueue_wait_share: f64,
    pub steal_share: f64,
}

impl HostProbe {
    pub fn start() -> HostProbe {
        HostProbe {
            calib_before: calibrate(),
            cpu0: cpu_jiffies(),
        }
    }

    pub fn finish(self) -> HostReadings {
        let cpu1 = cpu_jiffies();
        let (rate_after, sched_after) = calibrate();
        let (rate_before, sched_before) = self.calib_before;
        let run = (sched_before.0 + sched_after.0) as f64;
        let wait = (sched_before.1 + sched_after.1) as f64;
        let steal = cpu1.0.saturating_sub(self.cpu0.0) as f64;
        let total = cpu1.1.saturating_sub(self.cpu0.1) as f64;
        HostReadings {
            calib_rate: (rate_before + rate_after) / 2.0,
            runqueue_wait_share: if run + wait > 0.0 {
                wait / (run + wait)
            } else {
                0.0
            },
            steal_share: if total > 0.0 { steal / total } else { 0.0 },
        }
    }
}
