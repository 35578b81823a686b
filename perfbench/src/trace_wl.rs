//! `trace_wire_coded`: wire crypto and Reed-Solomon coding on a fixed
//! trace.
//!
//! Set-up writes an Infocom'05-like synthetic trace (41 nodes, 3 days)
//! from the workload seed as a Haggle file and parses it back, as
//! `onion-dtn trace <file>` does. Each operation is one
//! `run_schedule_point` of [`REALIZATIONS`] realizations with wire mode
//! on and a (2, 3) code, at one thread. The schedule is fixed, so world
//! build does no work per trial; crypto and codec dominate.

use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use contact_graph::{ContactSchedule, NodeId, TimeDelta};
use dtn_sim::SimCounters;
use onion_codec::RsCodec;
use onion_crypto::{WirePacket, WIRE_PACKET_LEN};
use onion_routing::{
    run_schedule_point, ExperimentOptions, OnionCryptoContext, OnionGroups, PointSummary,
    ProtocolConfig, RouteSelection, CODED_PAYLOAD_LEN,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use traces::{HaggleParser, SyntheticTraceBuilder};

use crate::host::{self, HostProbe};
use crate::ops::{self, median_setup};
use crate::recompose::{self, Layers, Modes};
use crate::reference::WIRE_PACKET_BYTES;
use crate::stats::mix;
use crate::{Args, Checks, Report};

const MESSAGES: usize = 25;
const REALIZATIONS: usize = 10;
const DEADLINE_S: f64 = 6.0 * 3600.0;
const CODE: (u32, u32) = (2, 3);
/// Operations rerun with wire mode off after the timed phase.
const WIRE_OFF_CHECKS: usize = 2;
const TRACED_TRIALS: u64 = 10;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 5;
/// Calls per micro-timing of the crypto and codec primitives.
const MICRO_CALLS: u32 = 2000;

fn config(nodes: usize) -> ProtocolConfig {
    // Table II group size and hops (g = 5, K = 3, L = 1) with the
    // `onion-dtn trace` adversary c = n/10.
    ProtocolConfig {
        nodes,
        group_size: 5,
        onions: 3,
        copies: 1,
        deadline: TimeDelta::new(DEADLINE_S),
        compromised: (nodes / 10).max(1),
        selection: RouteSelection::Uniform,
    }
}

fn options(seed: u64, realizations: usize, wire: bool) -> ExperimentOptions {
    ExperimentOptions::builder()
        .messages(MESSAGES)
        .realizations(realizations)
        .seed(seed)
        .threads(1)
        .wire(wire)
        .code(Some(CODE))
        .build()
}

/// Generates the trace, writes it as a Haggle file and parses it back.
/// Returns the parsed schedule, the generated contact count and the
/// parse time in seconds.
fn make_trace(seed: u64, path: &Path) -> Result<(ContactSchedule, usize, f64), String> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let generated = SyntheticTraceBuilder::infocom05_like().build(&mut rng);
    {
        let file = std::fs::File::create(path).map_err(|e| format!("create trace: {e}"))?;
        let mut w = BufWriter::new(file);
        writeln!(w, "% synthetic Infocom'05-like trace, seed {seed}").map_err(|e| e.to_string())?;
        for e in generated.events() {
            let t = e.time.as_f64();
            writeln!(w, "{} {} {} {}", e.a.0 + 1, e.b.0 + 1, t, t + 60.0)
                .map_err(|e| format!("write trace: {e}"))?;
        }
        w.flush().map_err(|e| format!("write trace: {e}"))?;
    }
    let t = Instant::now();
    let file = std::fs::File::open(path).map_err(|e| format!("open trace: {e}"))?;
    let parsed = HaggleParser::new()
        .parse_reader(BufReader::new(file))
        .map_err(|e| format!("parse trace: {e}"))?;
    let parse_s = t.elapsed().as_secs_f64();
    Ok((parsed.schedule, generated.len(), parse_s))
}

/// The point's abstract results: everything but the wire tallies.
fn abstract_part(summary: &PointSummary) -> PointSummary {
    let mut s = summary.clone();
    s.sim_counters = SimCounters {
        wire_packets_built: 0,
        wire_packets_peeled: 0,
        wire_bytes_sent: 0,
        wire_aead_seals: 0,
        wire_aead_opens: 0,
        ..s.sim_counters
    };
    s
}

fn check_point(checks: &mut Checks, summary: &PointSummary, realizations: usize) {
    let c = &summary.sim_counters;
    checks.check(summary.injected == realizations * MESSAGES, || {
        format!(
            "injected {} != {}",
            summary.injected,
            realizations * MESSAGES
        )
    });
    checks.check(
        c.decode_successes == summary.delivered as u64 && c.decode_failures == 0,
        || {
            format!(
                "decode successes {} / failures {} against {} delivered",
                c.decode_successes, c.decode_failures, summary.delivered
            )
        },
    );
    checks.check(
        c.wire_bytes_sent == c.forwards_handoff * WIRE_PACKET_BYTES,
        || {
            format!(
                "wire bytes {} != {} handoffs × {WIRE_PACKET_BYTES}",
                c.wire_bytes_sent, c.forwards_handoff
            )
        },
    );
    checks.check(c.wire_aead_opens == c.wire_packets_peeled, || {
        format!(
            "AEAD opens {} != packets peeled {}",
            c.wire_aead_opens, c.wire_packets_peeled
        )
    });
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut checks = Checks::default();
    checks.check(WIRE_PACKET_LEN as u64 == WIRE_PACKET_BYTES, || {
        format!("WIRE_PACKET_LEN {WIRE_PACKET_LEN} != {WIRE_PACKET_BYTES}")
    });
    let path = args.workdir.join(format!("trace-{}.txt", args.seed));
    let mut parse_times = Vec::new();
    // Set-up: the trace written and parsed, plus one untimed warm-up
    // realization on it.
    let (setup_s, schedule) = median_setup(SETUPS, |i| {
        let (schedule, generated, parse_s) = make_trace(args.seed, &path)?;
        parse_times.push(parse_s);
        checks.check(
            schedule.len() == generated && schedule.node_count() <= 41,
            || {
                format!(
                    "parsed {} contacts over {} nodes from {generated} written",
                    schedule.len(),
                    schedule.node_count()
                )
            },
        );
        let warm = options(mix(args.seed, 1 << 40 | i as u64), 1, true);
        check_point(
            &mut checks,
            &run_schedule_point(&schedule, &config(schedule.node_count()), &warm),
            1,
        );
        Ok(schedule)
    })?;
    std::fs::remove_file(&path).map_err(|e| format!("remove trace: {e}"))?;
    let cfg = config(schedule.node_count());

    let probe = args.trace.then(HostProbe::start);
    let mut summaries = Vec::new();
    let log = ops::timed_loop(args.seconds, |i| {
        let summary = run_schedule_point(
            &schedule,
            &cfg,
            &options(mix(args.seed, i), REALIZATIONS, true),
        );
        summaries.push(summary);
        REALIZATIONS as u64
    });
    let host = probe.map(HostProbe::finish);
    let peak_rss = host::peak_rss_mb(None).unwrap_or(0.0);

    for summary in &summaries {
        check_point(&mut checks, summary, REALIZATIONS);
    }
    for (i, with_wire) in summaries.iter().enumerate().take(WIRE_OFF_CHECKS) {
        let without = run_schedule_point(
            &schedule,
            &cfg,
            &options(mix(args.seed, i as u64), REALIZATIONS, false),
        );
        checks.check(abstract_part(with_wire) == without, || {
            format!("operation {i}: the point differs with wire mode off")
        });
    }

    let traced = args
        .trace
        .then(|| traced_layers(args.seed, &schedule, &cfg, &mut checks));
    eprintln!(
        "perfbench: trace_wire_coded: {} contacts, {} nodes; {} points, {} trials in {:.2} s; {}",
        schedule.len(),
        schedule.node_count(),
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
            layers.set("traces.parse_ms", crate::stats::median(&parse_times) * 1e3);
            layers.set("traces.contacts", schedule.len() as f64);
            layers.report(&mut report);
        }
        _ => log.report(&mut report, setup_s, peak_rss),
    }
    Ok(report)
}

fn traced_layers(
    seed: u64,
    schedule: &ContactSchedule,
    cfg: &ProtocolConfig,
    checks: &mut Checks,
) -> Layers {
    let opts = options(mix(seed, 0), TRACED_TRIALS as usize, true);
    let t = Instant::now();
    let (program, bytes, calls) =
        crate::alloc::counted(|| run_schedule_point(schedule, cfg, &opts));
    let program_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let estimated = schedule.estimate_rates();
    let estimate_s = t.elapsed().as_secs_f64();
    let full = Modes::of(&opts);
    let (out, spans) =
        recompose::schedule_point(schedule, &estimated, cfg, &opts, TRACED_TRIALS, full);
    recompose::check_against_program(
        checks,
        "trace_wire_coded",
        &out,
        &spans,
        &program.sim_counters,
        program.delivered,
    );
    // The same trials without crypto, then without crypto or coding
    // byte work: identical routing, so the engine-time differences are
    // the time spent in each.
    let no_wire = Modes {
        wire: false,
        ..full
    };
    let (out_nw, spans_nw) =
        recompose::schedule_point(schedule, &estimated, cfg, &opts, TRACED_TRIALS, no_wire);
    let bare = Modes {
        code_work: false,
        ..no_wire
    };
    let (out_bare, spans_bare) =
        recompose::schedule_point(schedule, &estimated, cfg, &opts, TRACED_TRIALS, bare);
    for (label, o) in [("wire off", &out_nw), ("wire and code work off", &out_bare)] {
        checks.check(
            o.delivered == out.delivered
                && o.counters.contacts == out.counters.contacts
                && o.counters.total_forwards() == out.counters.total_forwards(),
            || format!("{label}: the recomposed trials route differently"),
        );
    }

    let trials = TRACED_TRIALS as f64;
    let mut layers = Layers::default();
    recompose::set_span_layers(&mut layers, &spans, &out, TRACED_TRIALS);
    layers.set("traces.estimate_rates_ms", estimate_s * 1e3);
    let engine_ms = |s: &recompose::Spans| s.engine.as_secs_f64() * 1e3 / trials;
    layers.set(
        "onion-crypto.wire_ms",
        engine_ms(&spans) - engine_ms(&spans_nw),
    );
    layers.set(
        "onion-codec.code_ms",
        engine_ms(&spans_nw) - engine_ms(&spans_bare),
    );
    let recomposed = spans.trial_wall.as_secs_f64() + estimate_s;
    layers.set(
        "onion-routing.runner_overhead_ms",
        (program_s - recomposed) * 1e3 / trials,
    );
    layers.set(
        "obs.trace_overhead_share",
        (recomposed - program_s) / program_s,
    );
    layers.set("alloc.bytes_per_trial", bytes as f64 / trials);
    layers.set("alloc.calls_per_trial", calls as f64 / trials);
    micro_crypto_codec(&mut layers, cfg, seed, checks);
    layers
}

/// Times the wire primitives and the codec alone, per call.
fn micro_crypto_codec(layers: &mut Layers, cfg: &ProtocolConfig, seed: u64, checks: &mut Checks) {
    let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, 1 << 41));
    let groups = OnionGroups::random_partition(cfg.nodes, cfg.group_size, &mut rng);
    let route = groups
        .select_route(cfg.onions, &mut rng)
        .expect("K groups exist");
    let relay = groups.members(route[0])[0];
    let ctx = OnionCryptoContext::new([7u8; 32], groups);
    let payload = 42u64.to_le_bytes();
    let mut packet = WirePacket::zeroed();
    let t = Instant::now();
    for _ in 0..MICRO_CALLS {
        ctx.build_wire_into(&mut packet, &route, NodeId(0), &payload, &mut rng)
            .expect("an 8-byte payload fits");
    }
    layers.set(
        "onion-crypto.build_us",
        t.elapsed().as_secs_f64() * 1e6 / MICRO_CALLS as f64,
    );
    checks.check(packet.as_bytes().len() as u64 == WIRE_PACKET_BYTES, || {
        format!("built packet is {} bytes", packet.as_bytes().len())
    });
    let built = packet;
    let mut packet = WirePacket::zeroed();
    let mut peel = std::time::Duration::ZERO;
    for _ in 0..MICRO_CALLS {
        packet.copy_from(&built);
        let t = Instant::now();
        let peeled = ctx.peel_wire_as(&mut packet, relay, &mut rng);
        peel += t.elapsed();
        checks.check(peeled.is_ok(), || {
            "first-hop relay failed to peel".to_string()
        });
    }
    layers.set(
        "onion-crypto.peel_us",
        peel.as_secs_f64() * 1e6 / MICRO_CALLS as f64,
    );

    let (k, m) = CODE;
    let codec = RsCodec::new(k as usize, m as usize).expect("valid code");
    let data: Vec<u8> = (0..CODED_PAYLOAD_LEN as u32)
        .map(|i| (i * 37 + 11) as u8)
        .collect();
    let t = Instant::now();
    let mut fragments = Vec::new();
    for _ in 0..MICRO_CALLS {
        fragments = codec.encode(std::hint::black_box(&data));
    }
    layers.set(
        "onion-codec.encode_us",
        t.elapsed().as_secs_f64() * 1e6 / MICRO_CALLS as f64,
    );
    let subset: Vec<(usize, &[u8])> = vec![(0, &fragments[0]), (2, &fragments[2])];
    let t = Instant::now();
    for _ in 0..MICRO_CALLS {
        let decoded = codec.decode(std::hint::black_box(&subset), data.len());
        checks.check(decoded.as_deref() == Ok(&data[..]), || {
            "decode mismatch".to_string()
        });
    }
    layers.set(
        "onion-codec.decode_us",
        t.elapsed().as_secs_f64() * 1e6 / MICRO_CALLS as f64,
    );
}
