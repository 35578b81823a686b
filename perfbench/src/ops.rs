//! The timed phase shared by every workload: whole operations, each
//! timed on its own, until the run length is used up.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::stats;

/// What one timed phase did.
#[derive(Default)]
pub struct OpLog {
    /// Latency of every operation that completed, in ms.
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Trials (realizations) completed by the operations.
    pub trials: u64,
    /// Wall seconds of the timed phase.
    pub elapsed_s: f64,
}

impl OpLog {
    pub fn trials_per_s(&self) -> f64 {
        self.trials as f64 / self.elapsed_s
    }

    pub fn ops_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.elapsed_s
    }

    /// Adds the end-to-end metrics every workload reports.
    pub fn report(&self, report: &mut crate::Report, setup_s: f64, peak_rss_mb: f64) {
        report.metric("trials_per_s", self.trials_per_s(), "1/s");
        report.metric("req_per_s", self.ops_per_s(), "1/s");
        report.metric(
            "miss_p50_ms",
            stats::quantile(&self.latencies_ms, 0.5),
            "ms",
        );
        report.metric("peak_rss_mb", peak_rss_mb, "MiB");
        report.metric("setup_s", setup_s, "s");
    }

    /// The p90 latency of the timed phase. Reported per layer, without a
    /// bound: host contention moved it by up to 25 % between two sets of
    /// runs of identical code.
    pub fn tail_p90_ms(&self) -> f64 {
        stats::quantile(&self.latencies_ms, 0.9)
    }
}

/// Runs `op(0), op(1), …` until `seconds` have passed (checked between
/// operations, at least one operation). `op` returns the trials it
/// completed; a panic counts the operation as failed.
pub fn timed_loop(seconds: f64, mut op: impl FnMut(u64) -> u64) -> OpLog {
    let mut log = OpLog::default();
    let start = Instant::now();
    while log.attempted == 0 || start.elapsed().as_secs_f64() < seconds {
        let index = log.attempted;
        log.attempted += 1;
        let t = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| op(index))) {
            Ok(trials) => {
                log.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                log.trials += trials;
            }
            Err(_) => {
                eprintln!("perfbench: operation {index} panicked");
                log.failed += 1;
            }
        }
    }
    log.elapsed_s = start.elapsed().as_secs_f64();
    log
}

/// Runs `setup` `times` times and returns the median wall seconds with
/// the last run's result.
pub fn median_setup<T>(
    times: usize,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for i in 0..times {
        let t = Instant::now();
        let out = setup(i)?;
        secs.push(t.elapsed().as_secs_f64());
        last = Some(out);
    }
    Ok((stats::median(&secs), last.expect("times > 0")))
}
