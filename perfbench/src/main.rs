//! The onion-dtn benchmark: end-to-end and per-layer measurements.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --daemon <path to onion-dtn> --workdir <dir>
//! ```
//!
//! Runs one workload and prints, as the last line of standard output,
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! nothing traced; with `--trace 1` they are the per-layer ones, taken
//! by recomposing a fixed subset of the workload's trials from the
//! crates' public functions and timing each call (see `recompose`).
//! `perfbench/run.sh` builds everything and supplies `--daemon` and
//! `--workdir`.

mod alloc;
mod dense;
mod host;
mod ops;
mod recompose;
mod reference;
mod report;
mod serve_wl;
mod sparse;
mod stats;
mod trace_wl;

use std::path::PathBuf;
use std::process::ExitCode;

pub use report::{Checks, Report};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Command-line arguments shared by every workload.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `onion-dtn` binary the serve workload launches.
    pub daemon: PathBuf,
    /// Scratch directory for generated traces and daemon stores.
    pub workdir: PathBuf,
}

const WORKLOADS: [&str; 4] = [
    "dense_fig04",
    "trace_wire_coded",
    "sparse_scale",
    "serve_sweep",
];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut daemon = None;
    let mut workdir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            "--daemon" => daemon = Some(PathBuf::from(value)),
            "--workdir" => workdir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        daemon: daemon.ok_or("--daemon is required")?,
        workdir: workdir.ok_or("--workdir is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.workdir) {
        eprintln!("perfbench: create {}: {e}", args.workdir.display());
        return ExitCode::from(3);
    }
    let result = match args.workload.as_str() {
        "dense_fig04" => dense::run(&args),
        "trace_wire_coded" => trace_wl::run(&args),
        "sparse_scale" => sparse::run(&args),
        "serve_sweep" => serve_wl::run(&args),
        _ => unreachable!("workload validated in parse_args"),
    };
    match result {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}
