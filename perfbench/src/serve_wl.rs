//! `serve_sweep`: a release `onion-dtn serve` daemon under one
//! closed-loop client.
//!
//! The daemon runs with 1 worker, 1 sweep thread, a 4-entry LRU in one
//! shard and a fresh `--store`. The client sends whole rounds of a
//! sequence built from the seed: distinct `/v1/sweep/point` requests
//! (computed), repeats of a key just computed (cache hits), a repeat of
//! a key from the previous round (evicted from the LRU, so a store hit)
//! and `/v1/model/*` queries. A client-side model of the LRU predicts
//! which tier answers each repeat; `/metricsz` must agree.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use onion_routing::{run_random_graph_point, ExperimentOptions, ProtocolConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Value;
use serve::http::{read_request, read_response, write_request};
use serve::{Api, ApiLimits, Request, ResponseStore, ServeStats};

use crate::host::{self, HostProbe};
use crate::ops::OpLog;
use crate::recompose::{self, Layers, Scoring};
use crate::reference::{hypoexp_cdf_uniformized, traceable_rate_enumerated};
use crate::stats::{median, mix};
use crate::{Args, Checks, Report};

const CACHE_ENTRIES: usize = 4;
const REALIZATIONS: usize = 2;
const MESSAGES: usize = 5;
/// Distinct (computed) point requests per round.
const NEW_PER_ROUND: u64 = 4;
/// Computed requests a run carries at least, so that ten of them lie
/// beyond p90.
const MIN_COMPUTES: u64 = 100;
const STORE_BUDGET: u64 = 256 << 20;
/// Calls per in-process timing of the request parser and a cache hit.
const MICRO_CALLS: u32 = 2000;
/// Daemon start-ups per run; the median is reported.
const SETUPS: usize = 5;

/// One client request of the sequence.
#[derive(Clone)]
enum Op {
    /// A point request for key index `k` (its seed is `mix(seed, k)`).
    Point(u64),
    Delivery {
        lambda: f64,
        g: usize,
        k: usize,
        l: u32,
        t: f64,
    },
    Traceable {
        n: usize,
        c: usize,
        k: usize,
    },
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Class {
    Computed,
    CacheHit,
    StoreHit,
    Model,
}

fn point_config() -> ProtocolConfig {
    ProtocolConfig::table2_defaults()
}

fn point_options(seed: u64) -> ExperimentOptions {
    ExperimentOptions::builder()
        .messages(MESSAGES)
        .realizations(REALIZATIONS)
        .seed(seed)
        .threads(1)
        .build()
}

fn point_body(seed: u64) -> String {
    format!(
        "{{\"config\": {}, \"opts\": {}}}",
        serde_json::to_string(&point_config()).expect("config serializes"),
        serde_json::to_string(&point_options(seed)).expect("options serialize"),
    )
}

fn request_of(op: &Op, seed: u64) -> (&'static str, String) {
    match *op {
        Op::Point(k) => ("/v1/sweep/point", point_body(mix(seed, k))),
        Op::Delivery { lambda, g, k, l, t } => (
            "/v1/model/delivery",
            format!(
                "{{\"lambda\": {lambda:?}, \"group_size\": {g}, \"onions\": {k}, \"copies\": {l}, \"deadline\": {t:?}}}"
            ),
        ),
        Op::Traceable { n, c, k } => (
            "/v1/model/traceable",
            format!("{{\"nodes\": {n}, \"compromised\": {c}, \"onions\": {k}}}"),
        ),
    }
}

/// Round `r` of the sequence.
fn round(r: u64, rng: &mut ChaCha8Rng) -> Vec<Op> {
    let base = r * NEW_PER_ROUND;
    let delivery = Op::Delivery {
        lambda: rng.gen_range(0.01..0.2),
        g: rng.gen_range(1..=10),
        k: rng.gen_range(1..=5),
        l: rng.gen_range(1..=3),
        t: rng.gen_range(10.0..600.0),
    };
    let n = rng.gen_range(20..=500);
    let traceable = Op::Traceable {
        n,
        c: rng.gen_range(0..=n / 2),
        k: rng.gen_range(1..=6),
    };
    let old = if r == 0 {
        traceable.clone()
    } else {
        Op::Point(base - NEW_PER_ROUND)
    };
    vec![
        Op::Point(base),
        Op::Point(base + 1),
        Op::Point(base),
        delivery,
        Op::Point(base + 2),
        Op::Point(base + 3),
        Op::Point(base + 2),
        old,
        traceable,
    ]
}

/// Client-side model of the daemon's exact LRU (one shard) over its
/// write-through store.
struct TierModel {
    lru: HashMap<u64, u64>,
    stored: std::collections::HashSet<u64>,
    clock: u64,
}

impl TierModel {
    fn new() -> TierModel {
        TierModel {
            lru: HashMap::new(),
            stored: Default::default(),
            clock: 0,
        }
    }

    fn insert(&mut self, key: u64) {
        self.clock += 1;
        if self.lru.len() >= CACHE_ENTRIES && !self.lru.contains_key(&key) {
            let oldest = *self
                .lru
                .iter()
                .min_by_key(|(_, &stamp)| stamp)
                .expect("full cache")
                .0;
            self.lru.remove(&oldest);
        }
        self.lru.insert(key, self.clock);
    }

    fn classify(&mut self, key: u64) -> Class {
        self.clock += 1;
        if let Some(stamp) = self.lru.get_mut(&key) {
            *stamp = self.clock;
            return Class::CacheHit;
        }
        let class = if self.stored.contains(&key) {
            Class::StoreHit
        } else {
            self.stored.insert(key);
            Class::Computed
        };
        self.insert(key);
        class
    }
}

struct Daemon {
    child: Child,
    addr: String,
    _stdout: BufReader<std::process::ChildStdout>,
}

impl Daemon {
    /// Starts the daemon and waits for its first healthy `/healthz`.
    fn start(binary: &Path, store: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(store);
        let mut child = Command::new(binary)
            .args([
                "serve",
                "--port",
                "0",
                "--workers",
                "1",
                "--sweep-threads",
                "1",
            ])
            .args([
                "--cache",
                &CACHE_ENTRIES.to_string(),
                "--shards",
                "1",
                "--quiet",
            ])
            .arg("--store")
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => line
                .split("http://")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .map(str::to_string),
            _ => None,
        };
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            _stdout: stdout,
        };
        let Some(addr) = addr else {
            daemon.kill();
            return Err(format!("daemon did not announce its address: {line:?}"));
        };
        daemon.addr = addr;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(resp) = daemon.call("GET", "/healthz", "") {
                if resp.0 == 200 {
                    return Ok(daemon);
                }
            }
            if Instant::now() > deadline {
                daemon.kill();
                return Err("daemon never became healthy".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One request: returns status, body, connect time and round trip
    /// (first byte sent to last byte received).
    fn call(
        &self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(u16, String, f64, f64), String> {
        let t = Instant::now();
        let mut stream = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        let connect_ms = t.elapsed().as_secs_f64() * 1e3;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let t = Instant::now();
        write_request(&mut stream, method, path, body).map_err(|e| format!("send: {e}"))?;
        let resp = read_response(&mut stream).map_err(|e| format!("receive: {e:?}"))?;
        let rtt_ms = t.elapsed().as_secs_f64() * 1e3;
        Ok((resp.status, resp.body, connect_ms, rtt_ms))
    }

    /// Drains the daemon through its admin endpoint and waits for it.
    fn shutdown(mut self) -> Result<(), String> {
        let resp = self.call("POST", "/v1/admin/shutdown", "");
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        match resp {
            Ok((200, ..)) if status.success() => Ok(()),
            other => Err(format!("shutdown: {:?}, exit {status}", other.map(|r| r.0))),
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    /// A daemon left running by an early return is killed and reaped.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}

fn num(v: &Value, key: &str) -> Option<f64> {
    match v.get(key)? {
        Value::Float(x) => Some(*x),
        Value::UInt(x) => Some(*x as f64),
        Value::Int(x) => Some(*x as f64),
        _ => None,
    }
}

/// Checks a model answer against the independent closed forms.
fn check_model(checks: &mut Checks, op: &Op, body: &str) {
    let Ok(v) = serde_json::parse_value(body) else {
        checks.check(false, || format!("model body is not JSON: {body}"));
        return;
    };
    match *op {
        Op::Delivery { lambda, g, k, l, t } => {
            let mut rates = vec![g as f64 * lambda; k];
            rates.push(lambda);
            let served: Option<Vec<f64>> = match v.get("rates") {
                Some(Value::Array(a)) => a
                    .iter()
                    .map(|x| match x {
                        Value::Float(f) => Some(*f),
                        _ => None,
                    })
                    .collect(),
                _ => None,
            };
            checks.check(
                served.as_ref().is_some_and(|s| {
                    s.len() == rates.len()
                        && s.iter()
                            .zip(&rates)
                            .all(|(a, b)| (a - b).abs() <= 1e-12 * b)
                }),
                || format!("delivery rates {served:?}, expected {rates:?}"),
            );
            let boosted: Vec<f64> = rates.iter().map(|r| r * l as f64).collect();
            let expected = hypoexp_cdf_uniformized(&boosted, t);
            let got = num(&v, "delivery_rate").unwrap_or(f64::NAN);
            checks.check((got - expected).abs() < 1e-9, || {
                format!("delivery_rate {got}, uniformized hypoexponential {expected} ({body})")
            });
        }
        Op::Traceable { n, c, k } => {
            let expected = traceable_rate_enumerated(k + 1, c as f64 / n as f64);
            let got = num(&v, "traceable_rate").unwrap_or(f64::NAN);
            checks.check((got - expected).abs() < 1e-12, || {
                format!("traceable_rate {got}, enumerated {expected} ({body})")
            });
        }
        Op::Point(_) => unreachable!("point answers are checked by key"),
    }
}

/// Everything the timed phase observed.
#[derive(Default)]
struct Traffic {
    attempted: u64,
    failed: u64,
    elapsed_s: f64,
    /// Round trips of the requests answered 200, by the class the
    /// client-side tier model predicted.
    latency: HashMap<Class, Vec<f64>>,
    connect_ms: Vec<f64>,
    /// First body answered for each key.
    bodies: HashMap<u64, String>,
    repeats: u64,
}

impl Traffic {
    fn count(&self, class: Class) -> i64 {
        self.latency.get(&class).map_or(0, Vec::len) as i64
    }
}

fn drive(daemon: &Daemon, args: &Args, checks: &mut Checks) -> Traffic {
    let mut rng = ChaCha8Rng::seed_from_u64(mix(args.seed, 1 << 42));
    let mut tiers = TierModel::new();
    let mut t = Traffic::default();
    let start = Instant::now();
    let mut r = 0;
    while start.elapsed().as_secs_f64() < args.seconds || tiers.stored.len() < MIN_COMPUTES as usize
    {
        for op in round(r, &mut rng) {
            let class = match op {
                Op::Point(k) => tiers.classify(k),
                _ => Class::Model,
            };
            let (path, body) = request_of(&op, args.seed);
            t.attempted += 1;
            match daemon.call("POST", path, &body) {
                Ok((200, resp, connect_ms, rtt_ms)) => {
                    t.connect_ms.push(connect_ms);
                    t.latency.entry(class).or_default().push(rtt_ms);
                    match op {
                        Op::Point(k) => match t.bodies.get(&k) {
                            Some(first) => {
                                t.repeats += 1;
                                checks.check(*first == resp, || {
                                    format!("repeat of key {k} differs from its first answer")
                                });
                            }
                            None => {
                                t.bodies.insert(k, resp);
                            }
                        },
                        _ => check_model(checks, &op, &resp),
                    }
                }
                Ok((status, resp, ..)) => {
                    t.failed += 1;
                    checks.check(false, || format!("{path} answered {status}: {resp}"));
                }
                Err(e) => {
                    t.failed += 1;
                    checks.check(false, || format!("{path}: {e}"));
                }
            }
        }
        r += 1;
    }
    t.elapsed_s = start.elapsed().as_secs_f64();
    t
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut checks = Checks::default();
    let store = args.workdir.join(format!("store-{}", args.seed));
    // Set-up: daemon start to its first healthy `/healthz`, [`SETUPS`] times
    // on a fresh store; the last daemon serves the run.
    let mut setups = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUPS {
        if let Some(previous) = daemon.take() {
            Daemon::shutdown(previous)?;
        }
        let t = Instant::now();
        daemon = Some(Daemon::start(&args.daemon, &store)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let setup_s = median(&setups);
    let daemon = daemon.expect("set-ups ran");

    let probe = args.trace.then(HostProbe::start);
    let traffic = drive(&daemon, args, &mut checks);
    let host = probe.map(HostProbe::finish);
    let peak_rss = host::peak_rss_mb(Some(daemon.pid())).unwrap_or(0.0);

    let counters = daemon
        .call("GET", "/metricsz", "")
        .ok()
        .and_then(|(_, body, ..)| serde_json::parse_value(&body).ok())
        .and_then(|v| v.get("counters").cloned());
    let counter = |name: &str| counters.as_ref().and_then(|c| num(c, name)).unwrap_or(-1.0) as i64;

    let (computes, cache_hits, store_hits) = (
        counter("sweep_computes"),
        counter("cache_hits"),
        counter("store_hits"),
    );
    checks.check(computes == traffic.bodies.len() as i64, || {
        format!(
            "daemon computed {computes}, distinct keys {}",
            traffic.bodies.len()
        )
    });
    checks.check(cache_hits + store_hits == traffic.repeats as i64, || {
        format!(
            "cache hits {cache_hits} + store hits {store_hits} != {} repeats",
            traffic.repeats
        )
    });
    checks.check(
        cache_hits == traffic.count(Class::CacheHit)
            && store_hits == traffic.count(Class::StoreHit),
        || {
            format!(
                "tiers: daemon {cache_hits} cache / {store_hits} store hits, model {} / {}",
                traffic.count(Class::CacheHit),
                traffic.count(Class::StoreHit)
            )
        },
    );
    daemon.shutdown()?;

    // Sampled computed answers against the library run in this process.
    let mut keys: Vec<u64> = traffic.bodies.keys().copied().collect();
    keys.sort_unstable();
    for &k in [keys.first(), keys.last()].into_iter().flatten() {
        let summary = run_random_graph_point(&point_config(), &point_options(mix(args.seed, k)));
        let local = serde_json::to_string(&summary).expect("summary serializes");
        checks.check(Some(&local) == traffic.bodies.get(&k), || {
            format!("key {k}: served body differs from run_random_graph_point")
        });
    }

    let traced = match args.trace {
        true => Some(traced_layers(args, &traffic, &store, &mut checks)?),
        false => None,
    };
    std::fs::remove_dir_all(&store).map_err(|e| format!("remove store: {e}"))?;

    let computed = traffic
        .latency
        .get(&Class::Computed)
        .cloned()
        .unwrap_or_default();
    eprintln!(
        "perfbench: serve_sweep: {} requests ({} computed, {} cache / {} store hits) in {:.2} s; {}",
        traffic.attempted,
        computed.len(),
        cache_hits,
        store_hits,
        traffic.elapsed_s,
        checks.summary()
    );
    let log = OpLog {
        trials: (computed.len() * REALIZATIONS) as u64,
        latencies_ms: computed,
        attempted: traffic.attempted,
        failed: traffic.failed,
        elapsed_s: traffic.elapsed_s,
    };
    let mut report = Report::new(&checks, log.attempted, log.failed);
    match (traced, host) {
        (Some(mut layers), Some(host)) => {
            layers.set_host(&host);
            layers.set("tail.miss_p90_ms", log.tail_p90_ms());
            layers.set("serve.cache_hits", cache_hits as f64);
            layers.set("serve.store_hits", store_hits as f64);
            layers.set("serve.computes", computes as f64);
            layers.report(&mut report);
        }
        _ => log.report(&mut report, setup_s, peak_rss),
    }
    Ok(report)
}

fn traced_layers(
    args: &Args,
    traffic: &Traffic,
    store: &Path,
    checks: &mut Checks,
) -> Result<Layers, String> {
    let mut layers = Layers::default();
    let p50 = |class: Class| traffic.latency.get(&class).map_or(0.0, |v| median(v));
    layers.set("serve.connect_ms", median(&traffic.connect_ms));
    layers.set("serve.hit_p50_ms", p50(Class::CacheHit));
    layers.set("serve.store_hit_p50_ms", p50(Class::StoreHit));
    layers.set("serve.model_p50_ms", p50(Class::Model));

    let t = Instant::now();
    let reopened =
        ResponseStore::open(store, STORE_BUDGET).map_err(|e| format!("reopen store: {e}"))?;
    layers.set("serve.store_recovery_ms", t.elapsed().as_secs_f64() * 1e3);
    checks.check(
        reopened.status().records as usize == traffic.bodies.len(),
        || {
            format!(
                "store holds {} records for {} keys",
                reopened.status().records,
                traffic.bodies.len()
            )
        },
    );
    drop(reopened);

    // The request parser on captured request bytes.
    let body = point_body(mix(args.seed, 0));
    let mut captured = Vec::new();
    write_request(&mut captured, "POST", "/v1/sweep/point", &body).map_err(|e| e.to_string())?;
    let t = Instant::now();
    for _ in 0..MICRO_CALLS {
        let req =
            read_request(&mut std::hint::black_box(&captured[..])).map_err(|e| format!("{e:?}"))?;
        std::hint::black_box(req);
    }
    layers.set(
        "serve.parse_us",
        t.elapsed().as_secs_f64() * 1e6 / MICRO_CALLS as f64,
    );

    // The handler in process: two computed requests, then cache hits.
    let api = Api::new(
        CACHE_ENTRIES,
        1,
        None,
        Arc::new(ServeStats::new()),
        ApiLimits {
            sweep_threads: 1,
            max_realizations: 64,
            max_messages: 200,
        },
    );
    let request = |k: u64| Request {
        method: "POST".to_string(),
        path: "/v1/sweep/point".to_string(),
        body: point_body(mix(args.seed, k)),
    };
    let mut miss_ms = Vec::new();
    let mut alloc = (0, 0);
    for k in 0..2 {
        let req = request(k);
        let t = Instant::now();
        let (resp, bytes, calls) = crate::alloc::counted(|| api.handle(&req));
        miss_ms.push(t.elapsed().as_secs_f64() * 1e3);
        alloc = (alloc.0 + bytes, alloc.1 + calls);
        checks.check(Some(&resp.body) == traffic.bodies.get(&k), || {
            format!("in-process handler answer for key {k} differs from the daemon's")
        });
    }
    layers.set("serve.handler_miss_ms", median(&miss_ms));
    let trials = (2 * REALIZATIONS) as f64;
    layers.set("alloc.bytes_per_trial", alloc.0 as f64 / trials);
    layers.set("alloc.calls_per_trial", alloc.1 as f64 / trials);
    let hit = request(0);
    let t = Instant::now();
    for _ in 0..MICRO_CALLS {
        std::hint::black_box(api.handle(&hit));
    }
    layers.set(
        "serve.handler_hit_us",
        t.elapsed().as_secs_f64() * 1e6 / MICRO_CALLS as f64,
    );

    // The computed requests' trials, recomposed.
    let mut program_s = 0.0;
    let mut spans_all = recompose::Spans::default();
    let mut out_all = recompose::Outcome::default();
    for k in 0..2 {
        let opts = point_options(mix(args.seed, k));
        let t = Instant::now();
        let program = run_random_graph_point(&point_config(), &opts);
        program_s += t.elapsed().as_secs_f64();
        let (out, spans) =
            recompose::random_graph(&point_config(), &opts, REALIZATIONS as u64, &Scoring::Point);
        recompose::check_against_program(
            checks,
            "serve_sweep",
            &out,
            &spans,
            &program.sim_counters,
            program.delivered,
        );
        spans_all.add(&spans);
        out_all.add(&out);
    }
    recompose::set_span_layers(&mut layers, &spans_all, &out_all, trials as u64);
    let recomposed = spans_all.trial_wall.as_secs_f64();
    layers.set(
        "onion-routing.runner_overhead_ms",
        (program_s - recomposed) * 1e3 / trials,
    );
    layers.set(
        "obs.trace_overhead_share",
        (recomposed - program_s) / program_s,
    );
    Ok(layers)
}
