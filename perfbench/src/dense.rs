//! `dense_fig04`: the Fig. 4 deadline sweep on Table II random graphs.
//!
//! Each operation is one `SweepSpec::random_graph(..).over_deadlines`
//! call of [`REALIZATIONS`] realizations on its own seed, at
//! `available_parallelism` runner threads. World build
//! (`ContactSchedule::sample`) dominates a trial; crypto and codec do no
//! work.

use std::time::Instant;

use contact_graph::TimeDelta;
use onion_routing::{
    run_random_graph_point, DeliverySweepRow, ExperimentOptions, ProtocolConfig, SweepSpec,
};

use crate::host::{self, HostProbe};
use crate::ops::{self, median_setup};
use crate::recompose::{self, Layers, Scoring};
use crate::stats::{self, mix};
use crate::{Args, Checks, Report};

const DEADLINES: [f64; 7] = [60.0, 180.0, 360.0, 540.0, 720.0, 900.0, 1080.0];
const MESSAGES: usize = 5;
const REALIZATIONS: usize = 4;
/// Trials the traced run recomposes.
const TRACED_TRIALS: usize = 4;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 5;
/// Declared bias of the Eq. 4 model against the simulation: the model
/// aggregates a group's contact rates into one exponential hop, which
/// the simulated per-pair contacts only approximate.
const MODEL_BIAS: f64 = 0.06;

fn config() -> ProtocolConfig {
    // Table II: n = 100, g = 5, K = 3, L = 1, c = 10.
    ProtocolConfig::table2_defaults()
}

fn options(seed: u64, realizations: usize, threads: usize) -> ExperimentOptions {
    ExperimentOptions::builder()
        .messages(MESSAGES)
        .realizations(realizations)
        .seed(seed)
        .threads(threads)
        .build()
}

fn sweep(opts: &ExperimentOptions) -> Vec<DeliverySweepRow> {
    SweepSpec::random_graph(config())
        .over_deadlines(&DEADLINES)
        .run(opts)
        .into_delivery()
        .expect("deadline axis yields delivery rows")
}

/// Properties every sweep result must have, whatever the seed: whole
/// deliveries out of `realizations × MESSAGES` injected, and curves that
/// never fall as the deadline grows.
fn check_rows(checks: &mut Checks, rows: &[DeliverySweepRow], realizations: usize) {
    let injected = (realizations * MESSAGES) as f64;
    checks.check(rows.len() == DEADLINES.len(), || {
        format!("{} rows", rows.len())
    });
    for (row, &t) in rows.iter().zip(&DEADLINES) {
        let delivered = row.sim * injected;
        checks.check(
            row.deadline == t
                && (delivered - delivered.round()).abs() < 1e-6
                && (0.0..=injected).contains(&delivered.round()),
            || {
                format!(
                    "row at T={t}: sim {} is not a whole count out of {injected}",
                    row.sim
                )
            },
        );
        checks.check((0.0..=1.0).contains(&row.analysis), || {
            format!("row at T={t}: analysis {} outside [0, 1]", row.analysis)
        });
    }
    for pair in rows.windows(2) {
        checks.check(
            pair[1].sim >= pair[0].sim && pair[1].analysis >= pair[0].analysis - 1e-12,
            || {
                format!(
                    "delivery falls between T={} and T={}",
                    pair[0].deadline, pair[1].deadline
                )
            },
        );
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut checks = Checks::default();

    // Set-up: the inputs plus one untimed warm-up realization, so the
    // timed phase starts with the allocator and caches warm.
    let (setup_s, ()) = median_setup(SETUPS, |i| {
        let rows = sweep(&options(mix(args.seed, 1 << 40 | i as u64), 1, threads));
        check_rows(&mut checks, &rows, 1);
        Ok(())
    })?;

    let probe = args.trace.then(HostProbe::start);
    let mut all_rows = Vec::new();
    let log = ops::timed_loop(args.seconds, |i| {
        let rows = sweep(&options(mix(args.seed, i), REALIZATIONS, threads));
        all_rows.push(rows);
        REALIZATIONS as u64
    });
    let host = probe.map(HostProbe::finish);
    let peak_rss = host::peak_rss_mb(None).unwrap_or(0.0);

    for rows in &all_rows {
        check_rows(&mut checks, rows, REALIZATIONS);
    }
    check_sim_against_model(&mut checks, &all_rows);

    let traced = match args.trace {
        true => Some(traced_layers(args.seed, threads, &mut checks)),
        false => None,
    };
    eprintln!(
        "perfbench: dense_fig04: {} sweeps, {} trials in {:.2} s; {}",
        log.attempted,
        log.trials,
        log.elapsed_s,
        checks.summary()
    );
    let mut report = Report::new(&checks, log.attempted, log.failed);
    match (traced, host) {
        (Some(mut layers), Some(host)) => {
            layers.set_host(&host);
            layers.set("tail.miss_p90_ms", log.tail_p90_ms());
            layers.report(&mut report);
        }
        _ => log.report(&mut report, setup_s, peak_rss),
    }
    Ok(report)
}

/// Simulated delivery must lie within the run's own sampling error of
/// the model, plus the declared model bias, at every deadline. The
/// sampling error is taken from the spread of the per-sweep differences.
fn check_sim_against_model(checks: &mut Checks, all_rows: &[Vec<DeliverySweepRow>]) {
    for (i, &t) in DEADLINES.iter().enumerate() {
        let diffs: Vec<f64> = all_rows.iter().map(|r| r[i].sim - r[i].analysis).collect();
        let mean = stats::mean(&diffs);
        let se = (stats::variance(&diffs) / diffs.len() as f64).sqrt();
        checks.check(mean.abs() <= 4.0 * se + MODEL_BIAS, || {
            format!("T={t}: sim − model = {mean:.4} exceeds 4·SE ({se:.4}) + bias {MODEL_BIAS}")
        });
    }
}

/// Recomposes the first sweep's first [`TRACED_TRIALS`] trials and
/// times them against the program on the same trials.
fn traced_layers(seed: u64, threads: usize, checks: &mut Checks) -> Layers {
    let seed = mix(seed, 0);
    let trials = TRACED_TRIALS;
    let one = options(seed, trials, 1);

    let t = Instant::now();
    let (rows, bytes, calls) = crate::alloc::counted(|| sweep(&one));
    let program_t1 = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::hint::black_box(sweep(&options(seed, trials, threads)));
    let program_tn = t.elapsed().as_secs_f64();

    let horizon_cfg = ProtocolConfig {
        deadline: TimeDelta::new(DEADLINES[DEADLINES.len() - 1]),
        ..config()
    };
    let point = run_random_graph_point(&horizon_cfg, &one);
    let (out, spans) = recompose::random_graph(
        &horizon_cfg,
        &one,
        trials as u64,
        &Scoring::Sweep(&DEADLINES),
    );

    recompose::check_against_program(
        checks,
        "dense_fig04",
        &out,
        &spans,
        &point.sim_counters,
        point.delivered,
    );
    for (i, row) in rows.iter().enumerate() {
        let hits = (row.sim * out.injected as f64).round() as usize;
        checks.check(hits == out.hits[i], || {
            format!(
                "T={}: recomposed {} deliveries, program {hits}",
                row.deadline, out.hits[i]
            )
        });
        let analysis = out.analysis_sum[i] / out.analysis_count as f64;
        checks.check((analysis - row.analysis).abs() < 1e-12, || {
            format!(
                "T={}: recomposed model {analysis}, program {}",
                row.deadline, row.analysis
            )
        });
    }

    let mut layers = Layers::default();
    recompose::set_span_layers(&mut layers, &spans, &out, trials as u64);
    let recomposed = spans.trial_wall.as_secs_f64();
    layers.set(
        "onion-routing.runner_overhead_ms",
        (program_tn * threads as f64 - recomposed) * 1e3 / trials as f64,
    );
    layers.set(
        "obs.trace_overhead_share",
        (recomposed - program_t1) / program_t1,
    );
    layers.set("alloc.bytes_per_trial", bytes as f64 / trials as f64);
    layers.set("alloc.calls_per_trial", calls as f64 / trials as f64);
    layers
}
