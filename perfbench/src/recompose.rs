//! Traced recomposition of the program's trials from public functions.
//!
//! A traced run rebuilds a fixed subset of a workload's trials call by
//! call — the same seeds, the same draw order as `onion_routing`'s own
//! trial closures — and times each call into a layer. Nothing inside the
//! program is instrumented: the spans are recorded here, around the
//! calls. The recomposed trials must reproduce the program's
//! `SimCounters` and delivered counts exactly, which proves the draw
//! order matches; the sum of the named spans must cover ≥ 95 % of each
//! recomposed trial's wall time.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use contact_graph::{
    ContactGraph, ContactModel, ContactSchedule, NodeId, SparseContacts, Time, TimeDelta,
    UniformGraphBuilder,
};
use dtn_sim::{
    fragment_id, run_stream, run_with_faults, CalendarQueue, CopyMode, FaultPlan, Message,
    MessageId, SimConfig, SimCounters, SimReport,
};
use onion_routing::{
    metrics, trial_rng_attempt, Adversary, ExperimentOptions, ForwardingMode, GroupId, OnionGroups,
    OnionRouting, ProtocolConfig, SeedDomain,
};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Every per-layer metric, in print order, with its unit. A layer a
/// workload never calls reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("contact-graph.graph_build_ms", "ms"),
    ("contact-graph.schedule_sample_ms", "ms"),
    ("contact-graph.events_per_trial", "1/trial"),
    ("contact-graph.sparse_world_ms", "ms"),
    ("contact-graph.sparse_pairs", "count"),
    ("contact-graph.sparse_world_mb", "MiB"),
    ("traces.parse_ms", "ms"),
    ("traces.contacts", "count"),
    ("traces.estimate_rates_ms", "ms"),
    ("dtn-sim.engine_ms", "ms"),
    ("dtn-sim.contacts_per_trial", "1/trial"),
    ("dtn-sim.ns_per_contact", "ns"),
    ("dtn-sim.useful_contact_ratio", "ratio"),
    ("dtn-sim.calendar_build_ms", "ms"),
    ("dtn-sim.calendar_mb", "MiB"),
    ("onion-routing.trial_setup_ms", "ms"),
    ("onion-routing.score_ms", "ms"),
    ("onion-routing.runner_overhead_ms", "ms"),
    ("analysis.model_ms", "ms"),
    ("onion-crypto.build_us", "us"),
    ("onion-crypto.peel_us", "us"),
    ("onion-crypto.packets_built", "1/trial"),
    ("onion-crypto.layers_peeled", "1/trial"),
    ("onion-crypto.bytes_sent", "B/trial"),
    ("onion-crypto.wire_ms", "ms"),
    ("onion-codec.encode_us", "us"),
    ("onion-codec.decode_us", "us"),
    ("onion-codec.decodes", "1/trial"),
    ("onion-codec.code_ms", "ms"),
    ("serve.connect_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.store_hit_p50_ms", "ms"),
    ("serve.model_p50_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.handler_hit_us", "us"),
    ("serve.handler_miss_ms", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.store_hits", "count"),
    ("serve.computes", "count"),
    ("serve.store_recovery_ms", "ms"),
    ("tail.miss_p90_ms", "ms"),
    ("obs.trace_overhead_share", "share"),
    ("obs.layer_coverage", "share"),
    ("host.calib_rate", "1/s"),
    ("host.runqueue_wait_share", "share"),
    ("host.steal_share", "share"),
    ("alloc.bytes_per_trial", "B/trial"),
    ("alloc.calls_per_trial", "1/trial"),
];

/// Per-layer values gathered by one traced run.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn set_host(&mut self, host: &crate::host::HostReadings) {
        self.set("host.calib_rate", host.calib_rate);
        self.set("host.runqueue_wait_share", host.runqueue_wait_share);
        self.set("host.steal_share", host.steal_share);
    }

    pub fn report(&self, report: &mut crate::Report) {
        for (name, unit) in PER_LAYER {
            report.metric(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

/// Named spans of one or more recomposed trials.
#[derive(Default, Clone)]
pub struct Spans {
    pub rng: Duration,
    pub graph_build: Duration,
    pub schedule_sample: Duration,
    pub sparse_world: Duration,
    pub calendar_build: Duration,
    /// Messages, message starts, groups and protocol construction.
    pub trial_setup: Duration,
    pub engine: Duration,
    /// Eq. 4 rates and the Eq. 6/7 (or k-of-m) model values.
    pub model: Duration,
    /// Simulation tallies, adversary draw and security metrics.
    pub score: Duration,
    /// Wall time of the whole trials, spans included.
    pub trial_wall: Duration,
}

impl Spans {
    pub fn add(&mut self, other: &Spans) {
        self.rng += other.rng;
        self.graph_build += other.graph_build;
        self.schedule_sample += other.schedule_sample;
        self.sparse_world += other.sparse_world;
        self.calendar_build += other.calendar_build;
        self.trial_setup += other.trial_setup;
        self.engine += other.engine;
        self.model += other.model;
        self.score += other.score;
        self.trial_wall += other.trial_wall;
    }

    fn named(&self) -> Duration {
        self.rng
            + self.graph_build
            + self.schedule_sample
            + self.sparse_world
            + self.calendar_build
            + self.trial_setup
            + self.engine
            + self.model
            + self.score
    }

    /// Share of recomposed trial time the named spans account for.
    pub fn coverage(&self) -> f64 {
        self.named().as_secs_f64() / self.trial_wall.as_secs_f64()
    }
}

/// What the recomposed trials produced, for comparison with the program.
#[derive(Default)]
pub struct Outcome {
    pub counters: SimCounters,
    pub delivered: usize,
    pub injected: usize,
    /// Per-deadline deliveries (sweep scoring only).
    pub hits: Vec<usize>,
    /// Per-deadline sums of model values (sweep scoring only).
    pub analysis_sum: Vec<f64>,
    pub analysis_count: usize,
    pub events: u64,
    pub sparse_pairs: u64,
    pub sparse_world_bytes: u64,
    pub calendar_bytes: u64,
    /// Point scoring's Eq. 6/7 inputs and answers — (per-hop rates × L,
    /// deadline, `delivery_rate_multicopy`) — checked against the
    /// independent hypoexponential after the timed trials.
    pub model_values: Vec<(Vec<f64>, f64, f64)>,
}

impl Outcome {
    /// Folds in the outcome of further point-scored trials.
    pub fn add(&mut self, other: &Outcome) {
        self.counters.merge(&other.counters);
        self.delivered += other.delivered;
        self.injected += other.injected;
        self.events += other.events;
        self.sparse_pairs += other.sparse_pairs;
        self.sparse_world_bytes += other.sparse_world_bytes;
        self.calendar_bytes += other.calendar_bytes;
        self.model_values.extend_from_slice(&other.model_values);
    }
}

fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *slot += t.elapsed();
    out
}

/// Same draws as `onion_routing`'s workload generator: uniform source,
/// uniform distinct destination, per message in id order.
fn random_messages(
    cfg: &ProtocolConfig,
    count: usize,
    mut start_time: impl FnMut(NodeId) -> Time,
    rng: &mut ChaCha8Rng,
) -> Vec<Message> {
    (0..count as u64)
        .map(|i| {
            let source = NodeId(rng.gen_range(0..cfg.nodes as u32));
            let mut destination = NodeId(rng.gen_range(0..cfg.nodes as u32));
            while destination == source {
                destination = NodeId(rng.gen_range(0..cfg.nodes as u32));
            }
            Message {
                id: MessageId(i),
                source,
                destination,
                created: start_time(source),
                deadline: cfg.deadline,
                copies: cfg.copies,
            }
        })
        .collect()
}

/// How a trial's protocol is decorated. `code_work` off keeps the coded
/// copy mode (same routing, same abstract results) but skips the
/// Reed-Solomon byte work; `wire` off likewise skips the crypto.
#[derive(Clone, Copy)]
pub struct Modes {
    pub wire: bool,
    pub code: Option<(u32, u32)>,
    pub code_work: bool,
}

impl Modes {
    pub fn of(opts: &ExperimentOptions) -> Modes {
        Modes {
            wire: opts.wire,
            code: opts.code,
            code_work: opts.code.is_some(),
        }
    }
}

fn protocol_for(
    cfg: &ProtocolConfig,
    groups: OnionGroups,
    modes: Modes,
    seed: u64,
    trial: u64,
) -> (OnionRouting, SimConfig) {
    let mode = if modes.code.is_some() || cfg.copies == 1 {
        ForwardingMode::SingleCopy
    } else {
        ForwardingMode::MultiCopy
    };
    let mut protocol = OnionRouting::new(groups, cfg.onions, mode).with_selection(cfg.selection);
    if modes.wire {
        protocol = protocol.with_wire(trial_rng_attempt(seed, SeedDomain::Wire, trial, 0));
    }
    if let (Some((k, m)), true) = (modes.code, modes.code_work) {
        protocol = protocol.with_code(k, m, trial_rng_attempt(seed, SeedDomain::Codec, trial, 0));
    }
    let config = SimConfig::builder()
        .wire_mode(modes.wire)
        .copy_mode(match modes.code {
            Some((k, m)) => CopyMode::Coded { k, m },
            None => CopyMode::default(),
        })
        .build();
    (protocol, config)
}

/// Memo of Eq. 4 rate vectors per (route, source, destination) within a
/// trial, as the program keeps one. `None` marks a degenerate path.
#[derive(Default)]
struct RateMemo(Vec<RateEntry>);

type RateEntry = (Vec<GroupId>, NodeId, NodeId, Option<Vec<f64>>);

impl RateMemo {
    fn rates_for<M: ContactModel + ?Sized>(
        &mut self,
        graph: &M,
        groups: &OnionGroups,
        route: &[GroupId],
        source: NodeId,
        destination: NodeId,
    ) -> Option<&[f64]> {
        if let Some(pos) = self
            .0
            .iter()
            .position(|(r, s, d, _)| r.as_slice() == route && *s == source && *d == destination)
        {
            return self.0[pos].3.as_deref();
        }
        let members: Vec<Vec<NodeId>> = groups
            .route_members(route)
            .into_iter()
            .map(|g| {
                g.into_iter()
                    .filter(|&v| v != source && v != destination)
                    .collect()
            })
            .collect();
        let rates = if members.iter().any(|g: &Vec<NodeId>| g.is_empty()) {
            None
        } else {
            match analysis::onion_path_rates(graph, source, &members, destination) {
                Ok(r) if r.iter().all(|&x| x > 0.0) => Some(r),
                _ => None,
            }
        };
        self.0.push((route.to_vec(), source, destination, rates));
        self.0.last().expect("just pushed").3.as_deref()
    }
}

/// How a finished trial is scored.
pub enum Scoring<'a> {
    /// Delivery sweep: per-deadline hits and hypoexponential model values;
    /// no adversary draw.
    Sweep(&'a [f64]),
    /// Point summary: model value at the deadline, then one adversary
    /// draw and the security metrics.
    Point,
}

#[allow(clippy::too_many_arguments)]
fn score<M: ContactModel + ?Sized>(
    cfg: &ProtocolConfig,
    rate_graph: &M,
    messages: &[Message],
    modes: Modes,
    protocol: &OnionRouting,
    report: &SimReport,
    rng: &mut ChaCha8Rng,
    scoring: &Scoring<'_>,
    spans: &mut Spans,
    out: &mut Outcome,
) {
    let mut memo = RateMemo::default();
    let mut model = Duration::ZERO;
    let mut trial_sum = vec![0.0; out.analysis_sum.len()];
    let deadline = cfg.deadline.as_f64();
    for msg in messages {
        let start = Instant::now();
        let mut point_value = None;
        match (modes.code, scoring) {
            (None, Scoring::Sweep(deadlines)) => {
                if let Some(route) = protocol.route_of(msg.id) {
                    out.analysis_count += 1;
                    if let Some(rates) = memo.rates_for(
                        rate_graph,
                        protocol.groups(),
                        route,
                        msg.source,
                        msg.destination,
                    ) {
                        let boosted: Vec<f64> =
                            rates.iter().map(|&r| r * cfg.copies as f64).collect();
                        if let Ok(h) = analysis::HypoExp::new(boosted) {
                            for (i, &t) in deadlines.iter().enumerate() {
                                trial_sum[i] += h.cdf(t);
                            }
                        }
                    }
                }
            }
            (None, Scoring::Point) => {
                if let Some(route) = protocol.route_of(msg.id) {
                    if let Some(rates) = memo.rates_for(
                        rate_graph,
                        protocol.groups(),
                        route,
                        msg.source,
                        msg.destination,
                    ) {
                        let p = analysis::delivery_rate_multicopy(rates, cfg.copies, deadline)
                            .unwrap_or(0.0);
                        point_value = Some((rates.to_vec(), p));
                    }
                }
            }
            (Some((k, m)), _) => {
                for idx in 0..m {
                    if let Some(route) = protocol.route_of(fragment_id(msg.id, idx)) {
                        if let Some(rates) = memo.rates_for(
                            rate_graph,
                            protocol.groups(),
                            route,
                            msg.source,
                            msg.destination,
                        ) {
                            std::hint::black_box(
                                analysis::coded_delivery_rate(rates, k, m, deadline).unwrap_or(0.0),
                            );
                        }
                    }
                }
            }
        }
        model += start.elapsed();
        if let Some((rates, p)) = point_value {
            let boosted = rates.iter().map(|r| r * cfg.copies as f64).collect();
            out.model_values.push((boosted, deadline, p));
        }
    }
    spans.model += model;
    for (acc, v) in out.analysis_sum.iter_mut().zip(&trial_sum) {
        *acc += v;
    }

    let score_start = Instant::now();
    if let Some(c) = report.counters() {
        out.counters.merge(c);
    }
    out.injected += report.injected_count();
    out.delivered += report.delivered_count();
    match scoring {
        Scoring::Sweep(deadlines) => {
            for msg in messages {
                if let Some(delay) = report.delivery_delay(msg.id) {
                    for (i, &t) in deadlines.iter().enumerate() {
                        if delay.as_f64() <= t {
                            out.hits[i] += 1;
                        }
                    }
                }
            }
        }
        Scoring::Point => {
            let adversary = Adversary::random(cfg.nodes, cfg.compromised, rng);
            std::hint::black_box(metrics::mean_traceable_rate(report, &adversary));
            std::hint::black_box(metrics::mean_path_anonymity(
                report,
                &adversary,
                cfg.nodes,
                cfg.group_size,
                cfg.eta(),
            ));
        }
    }
    spans.score += score_start.elapsed();
}

fn new_outcome(scoring: &Scoring<'_>) -> Outcome {
    let points = match scoring {
        Scoring::Sweep(d) => d.len(),
        Scoring::Point => 0,
    };
    Outcome {
        hits: vec![0; points],
        analysis_sum: vec![0.0; points],
        ..Outcome::default()
    }
}

/// Recomposes trials `0..trials` of a random-graph point or sweep: the
/// draw order of `run_random_graph_point` and of the random-graph
/// delivery sweep (`cfg.deadline` is the horizon, the sweep's largest
/// deadline).
pub fn random_graph(
    cfg: &ProtocolConfig,
    opts: &ExperimentOptions,
    trials: u64,
    scoring: &Scoring<'_>,
) -> (Outcome, Spans) {
    let mut spans = Spans::default();
    let mut out = new_outcome(scoring);
    let modes = Modes::of(opts);
    for trial in 0..trials {
        let wall = Instant::now();
        let (mut rng, mut fault_rng) = timed(&mut spans.rng, || {
            (
                trial_rng_attempt(opts.seed, SeedDomain::GraphRealization, trial, 0),
                trial_rng_attempt(opts.seed, SeedDomain::Faults, trial, 0),
            )
        });
        let graph: ContactGraph = timed(&mut spans.graph_build, || {
            UniformGraphBuilder::new(cfg.nodes)
                .mean_intercontact_range(
                    TimeDelta::new(opts.intercontact_range.0),
                    TimeDelta::new(opts.intercontact_range.1),
                )
                .build(&mut rng)
        });
        let schedule = timed(&mut spans.schedule_sample, || {
            ContactSchedule::sample(&graph, Time::ZERO + cfg.deadline, &mut rng)
        });
        out.events += schedule.len() as u64;
        let (messages, mut protocol, sim_config) = timed(&mut spans.trial_setup, || {
            let messages = random_messages(cfg, opts.messages, |_| Time::ZERO, &mut rng);
            let groups = OnionGroups::random_partition(cfg.nodes, cfg.group_size, &mut rng);
            let (protocol, sim_config) = protocol_for(cfg, groups, modes, opts.seed, trial);
            (messages, protocol, sim_config)
        });
        let report = timed(&mut spans.engine, || {
            run_with_faults(
                &schedule,
                &mut protocol,
                messages.clone(),
                &sim_config,
                &FaultPlan::default(),
                &mut fault_rng,
                &mut rng,
            )
            .expect("generated messages fit the schedule")
        });
        score(
            cfg, &graph, &messages, modes, &protocol, &report, &mut rng, scoring, &mut spans,
            &mut out,
        );
        drop((schedule, report, protocol, graph));
        spans.trial_wall += wall.elapsed();
    }
    (out, spans)
}

/// Recomposes trials `0..trials` of `run_schedule_point` over a fixed
/// schedule, with `modes` deciding the wire and codec work.
pub fn schedule_point(
    schedule: &ContactSchedule,
    estimated: &ContactGraph,
    cfg: &ProtocolConfig,
    opts: &ExperimentOptions,
    trials: u64,
    modes: Modes,
) -> (Outcome, Spans) {
    let mut spans = Spans::default();
    let mut out = new_outcome(&Scoring::Point);
    for trial in 0..trials {
        let wall = Instant::now();
        let (mut rng, mut start_rng, mut fault_rng) = timed(&mut spans.rng, || {
            (
                trial_rng_attempt(opts.seed, SeedDomain::ScheduleRealization, trial, 0),
                trial_rng_attempt(opts.seed, SeedDomain::ScheduleStarts, trial, 0),
                trial_rng_attempt(opts.seed, SeedDomain::Faults, trial, 0),
            )
        });
        let (messages, mut protocol, sim_config) = timed(&mut spans.trial_setup, || {
            let events = schedule.events();
            let messages = random_messages(
                cfg,
                opts.messages,
                |source| {
                    let candidates: Vec<Time> = events
                        .iter()
                        .filter(|e| e.involves(source))
                        .map(|e| e.time)
                        .collect();
                    if candidates.is_empty() {
                        Time::ZERO
                    } else {
                        candidates[start_rng.gen_range(0..candidates.len())]
                    }
                },
                &mut rng,
            );
            let groups = OnionGroups::random_partition(cfg.nodes, cfg.group_size, &mut rng);
            let (protocol, sim_config) = protocol_for(cfg, groups, modes, opts.seed, trial);
            (messages, protocol, sim_config)
        });
        let report = timed(&mut spans.engine, || {
            run_with_faults(
                schedule,
                &mut protocol,
                messages.clone(),
                &sim_config,
                &FaultPlan::default(),
                &mut fault_rng,
                &mut rng,
            )
            .expect("generated messages fit the schedule")
        });
        score(
            cfg,
            estimated,
            &messages,
            modes,
            &protocol,
            &report,
            &mut rng,
            &Scoring::Point,
            &mut spans,
            &mut out,
        );
        drop((report, protocol));
        spans.trial_wall += wall.elapsed();
    }
    (out, spans)
}

/// Recomposes trials `0..trials` of `run_sparse_point`.
pub fn sparse_point(
    cfg: &ProtocolConfig,
    avg_degree: f64,
    opts: &ExperimentOptions,
    trials: u64,
) -> (Outcome, Spans) {
    let mut spans = Spans::default();
    let mut out = new_outcome(&Scoring::Point);
    let modes = Modes::of(opts);
    for trial in 0..trials {
        let wall = Instant::now();
        let (mut rng, mut fault_rng, calendar_rng) = timed(&mut spans.rng, || {
            (
                trial_rng_attempt(opts.seed, SeedDomain::SparseRealization, trial, 0),
                trial_rng_attempt(opts.seed, SeedDomain::Faults, trial, 0),
                trial_rng_attempt(opts.seed, SeedDomain::SparseContacts, trial, 0),
            )
        });
        let world = timed(&mut spans.sparse_world, || {
            SparseContacts::poisson_proximity(
                cfg.nodes,
                avg_degree,
                (
                    TimeDelta::new(opts.intercontact_range.0),
                    TimeDelta::new(opts.intercontact_range.1),
                ),
                &mut rng,
            )
        });
        out.sparse_pairs += world.pair_count() as u64;
        out.sparse_world_bytes += world.approx_bytes() as u64;
        let horizon = Time::ZERO + cfg.deadline;
        let (messages, mut protocol, sim_config) = timed(&mut spans.trial_setup, || {
            let messages = random_messages(cfg, opts.messages, |_| Time::ZERO, &mut rng);
            let groups = OnionGroups::random_partition(cfg.nodes, cfg.group_size, &mut rng);
            let (protocol, sim_config) = protocol_for(cfg, groups, modes, opts.seed, trial);
            (messages, protocol, sim_config)
        });
        let queue = timed(&mut spans.calendar_build, || {
            CalendarQueue::from_sparse(&world, horizon, calendar_rng)
        });
        out.calendar_bytes += queue.approx_bytes() as u64;
        let report = timed(&mut spans.engine, || {
            run_stream(
                cfg.nodes,
                horizon,
                queue,
                &mut protocol,
                messages.clone(),
                &sim_config,
                &FaultPlan::default(),
                &mut fault_rng,
                &mut rng,
            )
            .expect("generated messages fit the sparse world")
        });
        score(
            cfg,
            &world,
            &messages,
            modes,
            &protocol,
            &report,
            &mut rng,
            &Scoring::Point,
            &mut spans,
            &mut out,
        );
        drop((world, report, protocol));
        spans.trial_wall += wall.elapsed();
    }
    (out, spans)
}

/// Writes the span-derived per-layer values, per trial.
pub fn set_span_layers(layers: &mut Layers, spans: &Spans, out: &Outcome, trials: u64) {
    let per = |d: Duration| d.as_secs_f64() * 1e3 / trials as f64;
    layers.set("contact-graph.graph_build_ms", per(spans.graph_build));
    layers.set(
        "contact-graph.schedule_sample_ms",
        per(spans.schedule_sample),
    );
    layers.set(
        "contact-graph.events_per_trial",
        out.events as f64 / trials as f64,
    );
    layers.set("contact-graph.sparse_world_ms", per(spans.sparse_world));
    layers.set(
        "contact-graph.sparse_pairs",
        out.sparse_pairs as f64 / trials as f64,
    );
    layers.set(
        "contact-graph.sparse_world_mb",
        out.sparse_world_bytes as f64 / trials as f64 / (1 << 20) as f64,
    );
    layers.set("dtn-sim.engine_ms", per(spans.engine));
    let contacts = out.counters.contacts as f64;
    layers.set("dtn-sim.contacts_per_trial", contacts / trials as f64);
    layers.set(
        "dtn-sim.ns_per_contact",
        if contacts > 0.0 {
            spans.engine.as_secs_f64() * 1e9 / contacts
        } else {
            0.0
        },
    );
    layers.set(
        "dtn-sim.useful_contact_ratio",
        if contacts > 0.0 {
            out.counters.total_forwards() as f64 / contacts
        } else {
            0.0
        },
    );
    layers.set("dtn-sim.calendar_build_ms", per(spans.calendar_build));
    layers.set(
        "dtn-sim.calendar_mb",
        out.calendar_bytes as f64 / trials as f64 / (1 << 20) as f64,
    );
    layers.set(
        "onion-routing.trial_setup_ms",
        per(spans.trial_setup + spans.rng),
    );
    layers.set("onion-routing.score_ms", per(spans.score));
    layers.set("analysis.model_ms", per(spans.model));
    layers.set("obs.layer_coverage", spans.coverage());
    let c = &out.counters;
    let t = trials as f64;
    layers.set(
        "onion-crypto.packets_built",
        c.wire_packets_built as f64 / t,
    );
    layers.set(
        "onion-crypto.layers_peeled",
        c.wire_packets_peeled as f64 / t,
    );
    layers.set("onion-crypto.bytes_sent", c.wire_bytes_sent as f64 / t);
    layers.set(
        "onion-codec.decodes",
        (c.decode_successes + c.decode_failures) as f64 / t,
    );
}

/// Checks shared by every traced simulation workload: the recomposed
/// trials reproduce the program's counters and deliveries exactly, and
/// the named spans cover the trial.
pub fn check_against_program(
    checks: &mut crate::Checks,
    label: &str,
    out: &Outcome,
    spans: &Spans,
    program_counters: &SimCounters,
    program_delivered: usize,
) {
    checks.check(&out.counters == program_counters, || {
        format!(
            "{label}: recomposed SimCounters {:?} != program {:?}",
            out.counters, program_counters
        )
    });
    checks.check(out.delivered == program_delivered, || {
        format!(
            "{label}: recomposed delivered {} != program {program_delivered}",
            out.delivered
        )
    });
    checks.check(spans.coverage() >= 0.95, || {
        format!(
            "{label}: named layers cover only {:.3} of recomposed trial time",
            spans.coverage()
        )
    });
    for (rates, t, p) in &out.model_values {
        let reference = crate::reference::hypoexp_cdf_uniformized(rates, *t);
        checks.check((p - reference).abs() < 1e-9, || {
            format!("{label}: delivery_rate_multicopy {p} at T={t}, uniformized hypoexponential {reference}")
        });
    }
}
