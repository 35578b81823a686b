//! `sparse_scale`: the README's scale scenario at n = 10⁴.
//!
//! Each operation is one `run_sparse_point` realization (CSR Poisson
//! proximity world of mean degree 10, calendar event queue,
//! `run_stream`) at one thread. Millions of contacts per trial, nearly
//! all of them no-ops; the largest resident set of the simulation
//! workloads.

use std::time::Instant;

use contact_graph::{SparseContacts, TimeDelta};
use onion_routing::{
    run_sparse_point, trial_rng_attempt, ExperimentOptions, PointSummary, ProtocolConfig,
    RouteSelection, SeedDomain, SparseScenario,
};

use crate::host::{self, HostProbe};
use crate::ops::{self, median_setup};
use crate::recompose::{self, Layers};
use crate::reference::{expected_contacts, within_poisson};
use crate::stats::mix;
use crate::{Args, Checks, Report};

const NODES: usize = 10_000;
const AVG_DEGREE: f64 = 10.0;
const DEADLINE: f64 = 720.0;
const MESSAGES: usize = 5;
/// Operations whose contact count is checked against `Σ λ·T`.
const CONTACT_CHECKS: usize = 2;
/// Realizations of the untimed threads-1-against-threads-2 check.
const THREAD_CHECK_REALIZATIONS: usize = 2;

fn config() -> ProtocolConfig {
    ProtocolConfig {
        nodes: NODES,
        group_size: 5,
        onions: 3,
        copies: 1,
        deadline: TimeDelta::new(DEADLINE),
        compromised: NODES / 10,
        selection: RouteSelection::Uniform,
    }
}

fn options(seed: u64, realizations: usize, threads: usize) -> ExperimentOptions {
    ExperimentOptions::builder()
        .messages(MESSAGES)
        .realizations(realizations)
        .seed(seed)
        .threads(threads)
        .build()
}

fn point(opts: &ExperimentOptions) -> PointSummary {
    run_sparse_point(
        &config(),
        &SparseScenario {
            avg_degree: AVG_DEGREE,
        },
        opts,
    )
}

fn check_point(checks: &mut Checks, summary: &PointSummary, realizations: usize) {
    let injected = realizations * MESSAGES;
    checks.check(
        summary.injected == injected
            && summary.delivered <= injected
            && (0.0..=1.0).contains(&summary.sim_delivery)
            && summary.sim_counters.injected == injected as u64,
        || {
            format!(
                "point injected {} delivered {} of {injected}",
                summary.injected, summary.delivered
            )
        },
    );
}

/// The contact count of trial 0 must be a Poisson draw around `Σ λ·T`
/// of its world, regenerated here from the same seed.
fn check_contacts(checks: &mut Checks, seed: u64, contacts: u64) {
    let opts = options(seed, 1, 1);
    let mut rng = trial_rng_attempt(seed, SeedDomain::SparseRealization, 0, 0);
    let world = SparseContacts::poisson_proximity(
        NODES,
        AVG_DEGREE,
        (
            TimeDelta::new(opts.intercontact_range.0),
            TimeDelta::new(opts.intercontact_range.1),
        ),
        &mut rng,
    );
    let mean = expected_contacts(world.iter_pairs().map(|(_, _, r)| r.as_f64()), DEADLINE);
    checks.check(within_poisson(contacts as f64, mean, 5.0), || {
        format!("{contacts} contacts, expected Σλ·T = {mean:.1}")
    });
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut checks = Checks::default();
    // Set-up: one untimed warm-up realization.
    let (setup_s, ()) = median_setup(3, |i| {
        let summary = point(&options(mix(args.seed, 1 << 40 | i as u64), 1, 1));
        check_point(&mut checks, &summary, 1);
        Ok(())
    })?;

    let probe = args.trace.then(HostProbe::start);
    let mut summaries = Vec::new();
    let log = ops::timed_loop(args.seconds, |i| {
        summaries.push(point(&options(mix(args.seed, i), 1, 1)));
        1
    });
    let host = probe.map(HostProbe::finish);
    let peak_rss = host::peak_rss_mb(None).unwrap_or(0.0);

    for summary in &summaries {
        check_point(&mut checks, summary, 1);
    }
    for (i, summary) in summaries.iter().enumerate().take(CONTACT_CHECKS) {
        check_contacts(
            &mut checks,
            mix(args.seed, i as u64),
            summary.sim_counters.contacts,
        );
    }
    let seed0 = mix(args.seed, 0);
    let one = point(&options(seed0, THREAD_CHECK_REALIZATIONS, 1));
    let two = point(&options(seed0, THREAD_CHECK_REALIZATIONS, 2));
    checks.check(one == two, || {
        "summary differs between threads 1 and 2".to_string()
    });

    let traced = args.trace.then(|| traced_layers(seed0, &mut checks));
    eprintln!(
        "perfbench: sparse_scale: {} trials in {:.2} s, {} delivered; {}",
        log.trials,
        log.elapsed_s,
        summaries.iter().map(|s| s.delivered).sum::<usize>(),
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

fn traced_layers(seed: u64, checks: &mut Checks) -> Layers {
    let opts = options(seed, 1, 1);
    let t = Instant::now();
    let (program, bytes, calls) = crate::alloc::counted(|| point(&opts));
    let program_s = t.elapsed().as_secs_f64();
    let (out, spans) = recompose::sparse_point(&config(), AVG_DEGREE, &opts, 1);
    recompose::check_against_program(
        checks,
        "sparse_scale",
        &out,
        &spans,
        &program.sim_counters,
        program.delivered,
    );
    let mut layers = Layers::default();
    recompose::set_span_layers(&mut layers, &spans, &out, 1);
    let recomposed = spans.trial_wall.as_secs_f64();
    layers.set(
        "onion-routing.runner_overhead_ms",
        (program_s - recomposed) * 1e3,
    );
    layers.set(
        "obs.trace_overhead_share",
        (recomposed - program_s) / program_s,
    );
    layers.set("alloc.bytes_per_trial", bytes as f64);
    layers.set("alloc.calls_per_trial", calls as f64);
    layers
}
