//! `serve-query` and `serve-mixed`: closed-loop clients of a `unicon serve`
//! daemon on a Unix socket. Every answer is checked against an in-process
//! `ReachEngine` oracle computed before timing starts. The last
//! [`PAIR_SHARE`] of the measured phase sends the workload's queries in
//! pairs, at one worker thread and at two, for `parallel_ratio`.
//!
//! The traffic mixes below are assumptions, not observed traffic: the
//! repository holds no record of how the daemon is used. Only t = 100 is a
//! documented time bound (the paper's Table 1).

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use unicon_core::PreparedModel;
use unicon_ctmdp::par::{ReachEngine, CHECKSUM_BLOCK};
use unicon_ctmdp::reachability::Objective;
use unicon_ftwc::{generator, FtwcParams};
use unicon_numeric::rng::{Rng, XorShift64};
use unicon_numeric::{chunked_stable_sum, WeightCache};
use unicon_obs::json::Value;

use crate::metrics::{ratio, sweep_layers, Pass};
use crate::stats::{median, percentile};
use crate::trace::{KernelSamples, SpanId};
use crate::Env;

const EPSILON: f64 = 1e-6;
/// Daemon spawns per pass; `setup_s` is the median time from spawn until
/// the first register is answered.
const SETUPS: usize = 9;
/// In-process replays of each distinct query in the traced pass.
const REPLAYS: usize = 3;
/// How long a client waits for the daemon before giving up.
const IO_TIMEOUT: Duration = Duration::from_secs(60);
/// Share of the measured phase spent on thread-count pairs.
const PAIR_SHARE: f64 = 0.2;

/// `serve-query`: one model, short queries with these time bounds, in
/// these proportions (out of 20); three in four maximize.
const QUERY_N: usize = 16;
const QUERY_T: [(f64, usize); 5] = [(1.0, 6), (10.0, 6), (50.0, 4), (100.0, 3), (250.0, 1)];

/// `serve-mixed`: each step registers a model of one of these sizes, in
/// these proportions (out of 20, skewed towards small ones), then queries
/// it one to three times at these time bounds.
const MIXED_N: [(usize, usize); 5] = [(8, 7), (12, 5), (16, 4), (20, 2), (24, 2)];
const MIXED_QUERIES: [(usize, usize); 3] = [(1, 1), (2, 1), (3, 1)];
const MIXED_T: [(f64, usize); 2] = [(10.0, 1), (50.0, 1)];
/// Smaller than the five models together, so registration evicts and
/// rebuilds.
const MIXED_BUDGET: &str = "6000000";

/// Endless draws in which every block of `Σ count` draws holds each value
/// exactly `count` times, in an order the seed shuffles. Every seed thus
/// sends the same mix, and the spread between seeded runs is the
/// system's, not the sampling's.
struct Deck<T> {
    rng: XorShift64,
    cards: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    fn new(seed: u64, counts: &[(T, usize)]) -> Self {
        let cards: Vec<T> = counts
            .iter()
            .flat_map(|&(x, c)| std::iter::repeat_n(x, c))
            .collect();
        Self {
            rng: XorShift64::seed_from_u64(seed),
            next: cards.len(),
            cards,
        }
    }

    fn draw(&mut self) -> T {
        if self.next == self.cards.len() {
            for i in (1..self.cards.len()).rev() {
                let j = self.rng.random_range(i + 1);
                self.cards.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// Time bounds in the given proportions, each sent three times as a
/// maximizing and once as a minimizing query.
fn query_deck(seed: u64, bounds: &[(f64, usize)]) -> Deck<(f64, Objective)> {
    let counts: Vec<((f64, Objective), usize)> = bounds
        .iter()
        .flat_map(|&(t, c)| {
            [
                ((t, Objective::Maximize), 3 * c),
                ((t, Objective::Minimize), c),
            ]
        })
        .collect();
    Deck::new(seed, &counts)
}

/// Query sequence `stream` of `serve-query` (one per client, then one for
/// the thread-count pairs): a function of the seed alone.
pub fn query_stream(seed: u64, stream: u64) -> impl Iterator<Item = (f64, Objective)> {
    let mut deck = query_deck(seed ^ (stream << 48), &QUERY_T);
    std::iter::repeat_with(move || deck.draw())
}

/// The steps of `serve-mixed`: a model size to register and the queries to
/// send on it.
pub fn mixed_steps(seed: u64) -> impl Iterator<Item = (usize, Vec<(f64, Objective)>)> {
    let mut sizes = Deck::new(seed, &MIXED_N);
    let mut counts = Deck::new(seed ^ (1 << 48), &MIXED_QUERIES);
    let mut queries = query_deck(seed ^ (2 << 48), &MIXED_T);
    std::iter::repeat_with(move || {
        let n = sizes.draw();
        let k = counts.draw();
        (n, (0..k).map(|_| queries.draw()).collect())
    })
}

/// A query's identity: model size, time bound, objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    n: usize,
    t_bits: u64,
    maximize: bool,
}

fn key(n: usize, t: f64, o: Objective) -> Key {
    Key {
        n,
        t_bits: t.to_bits(),
        maximize: o == Objective::Maximize,
    }
}

impl Key {
    fn t(self) -> f64 {
        f64::from_bits(self.t_bits)
    }

    fn objective(self) -> Objective {
        if self.maximize {
            Objective::Maximize
        } else {
            Objective::Minimize
        }
    }
}

/// One model built in process: the daemon's answers must match it.
struct Model {
    n: usize,
    fingerprint: String,
    states: usize,
    prepared: PreparedModel,
    engine: ReachEngine,
}

impl Model {
    fn build(env: &mut Env, n: usize) -> Result<Model, String> {
        let span = env.tracer.begin("generate", SpanId::ROOT, None);
        let model = generator::build_uimc(&FtwcParams::new(n));
        env.tracer.end(span);
        let span = env.tracer.begin("transform", SpanId::ROOT, None);
        let prepared = PreparedModel::new(&model.uniform, &model.premium_down)
            .map_err(|e| format!("FTWC N={n} does not transform: {e}"))?;
        env.tracer.end(span);
        let span = env.tracer.begin("precompute", SpanId::ROOT, None);
        let engine = ReachEngine::new(&prepared.ctmdp, &prepared.goal)
            .map_err(|e| format!("engine construction failed: {e}"))?;
        env.tracer.end(span);
        Ok(Model {
            n,
            fingerprint: format!("{:016x}", prepared.ctmdp.fingerprint()),
            states: prepared.ctmdp.num_states(),
            prepared,
            engine,
        })
    }

    /// The checksum the daemon must answer for `k`, rendered as it
    /// renders it.
    fn checksum(&self, k: Key) -> Result<String, String> {
        let r = self
            .engine
            .query(&self.prepared.ctmdp, k.t(), k.objective(), EPSILON, 1)
            .map_err(|e| format!("oracle query failed: {e}"))?;
        Ok(format!(
            "{:016x}",
            chunked_stable_sum(&r.values, CHECKSUM_BLOCK).to_bits()
        ))
    }

    fn register_line(&self) -> String {
        format!("{{\"register\":{{\"ftwc\":{}}}}}\n", self.n)
    }

    /// A query on this model, at the daemon's default worker threads or at
    /// `threads`.
    fn query_line(&self, k: Key, threads: Option<usize>) -> String {
        let threads = threads.map_or(String::new(), |n| format!(",\"threads\":{n}"));
        format!(
            "{{\"query\":{{\"model\":\"{}\",\"t\":{},\"objective\":\"{}\"{threads}}}}}\n",
            self.fingerprint,
            k.t(),
            if k.maximize { "max" } else { "min" }
        )
    }

    /// Does `v` answer this model's register correctly?
    fn registered(&self, v: &Value) -> bool {
        v.get("ok").and_then(Value::as_str) == Some("register")
            && v.get("model").and_then(Value::as_str) == Some(self.fingerprint.as_str())
            && v.get("states").and_then(Value::as_f64) == Some(self.states as f64)
    }
}

/// Expected checksums of every distinct query, computed before timing.
struct Oracle {
    models: Vec<Model>,
    checksums: BTreeMap<Key, String>,
}

impl Oracle {
    fn new(env: &mut Env, sizes: &[usize], bounds: &[f64]) -> Result<Oracle, String> {
        let mut oracle = Oracle {
            models: Vec::new(),
            checksums: BTreeMap::new(),
        };
        for &n in sizes {
            let model = Model::build(env, n)?;
            for &t in bounds {
                for o in [Objective::Maximize, Objective::Minimize] {
                    let k = key(n, t, o);
                    oracle.checksums.insert(k, model.checksum(k)?);
                }
            }
            oracle.models.push(model);
        }
        Ok(oracle)
    }

    fn model(&self, n: usize) -> &Model {
        self.models
            .iter()
            .find(|m| m.n == n)
            .expect("the oracle covers every size the workload uses")
    }

    /// Does `v` answer query `k` with the oracle's checksum?
    fn answered(&self, k: &Key, v: &Value) -> bool {
        v.get("ok").and_then(Value::as_str) == Some("query")
            && v.get("checksum").and_then(Value::as_str)
                == self.checksums.get(k).map(String::as_str)
    }

    /// Median in-process time of each distinct query through the engine
    /// (a fresh weight computation plus the iteration, at the daemon's
    /// automatic thread count), with spans for both layers. Traced pass only.
    fn replay(&self, env: &mut Env, kernel: &mut KernelSamples) -> BTreeMap<Key, ReplayTime> {
        let mut out = BTreeMap::new();
        for &k in self.checksums.keys() {
            let model = self.model(k.n);
            let mut total_ms = Vec::new();
            let mut iterate_ms = Vec::new();
            let mut sweeps = 0;
            for _ in 0..REPLAYS {
                let start = Instant::now();
                let root = env.tracer.begin("engine.query", SpanId::ROOT, None);
                let span = env.tracer.begin("weights", root, None);
                let weights = WeightCache::new()
                    .get(model.engine.uniform_rate(), k.t(), EPSILON)
                    .clone();
                env.tracer.end(span);
                let t0 = Instant::now();
                let span = env.tracer.begin("iterate", root, None);
                let r = model.engine.query_with_weights(
                    &model.prepared.ctmdp,
                    k.t(),
                    k.objective(),
                    EPSILON,
                    &weights,
                    0,
                );
                env.tracer.end(span);
                env.tracer.end(root);
                iterate_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                total_ms.push(start.elapsed().as_secs_f64() * 1e3);
                sweeps = r.map_or(0, |r| r.iterations);
            }
            // One more run with the program's telemetry on yields its
            // per-class kernel timing, which would slow the timed runs. The
            // capture is thread-local, so the probe sweeps on this thread.
            let (_, events) = env.tracer.collect(|| {
                model
                    .engine
                    .query(&model.prepared.ctmdp, k.t(), k.objective(), EPSILON, 1)
            });
            kernel.add(&events);
            out.insert(
                k,
                ReplayTime {
                    total_ms: median(&total_ms),
                    sweep: sweep_layers(
                        model.engine.memory_bytes(),
                        model.states,
                        sweeps as f64,
                        median(&iterate_ms),
                    ),
                },
            );
        }
        out
    }
}

struct ReplayTime {
    total_ms: f64,
    sweep: [(&'static str, f64); 3],
}

/// A `unicon serve --socket` child process. Dropping it kills the daemon
/// if it still runs and waits for it to end.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn spawn(env: &Env, extra: &[&str]) -> Result<Daemon, String> {
        let socket = env.work.join(format!("serve-{}.sock", std::process::id()));
        // A socket file left by a killed run would accept no connection.
        let _ = std::fs::remove_file(&socket);
        let child = Command::new(&env.unicon)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .args(extra)
            .args(["--log-level", "quiet"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", env.unicon.display()))?;
        Ok(Daemon { child, socket })
    }

    /// Connects once the daemon listens.
    fn connect(&mut self) -> Result<Client, String> {
        let deadline = Instant::now() + IO_TIMEOUT;
        loop {
            match UnixStream::connect(&self.socket) {
                Ok(stream) => return Client::new(stream),
                Err(e) => {
                    if let Ok(Some(status)) = self.child.try_wait() {
                        return Err(format!("serve exited before listening: {status}"));
                    }
                    if Instant::now() >= deadline {
                        return Err(format!("serve never listened: {e}"));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }

    /// Asks the daemon to shut down over its last open session and waits
    /// for it to exit.
    fn shutdown(mut self, mut client: Client) -> Result<(), String> {
        let v = client.call("{\"shutdown\":{}}\n")?;
        drop(client);
        if v.get("ok").and_then(Value::as_str) != Some("shutdown") {
            return Err("serve did not acknowledge shutdown".into());
        }
        let deadline = Instant::now() + IO_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(None) => return Err("serve did not exit after shutdown".into()),
                Err(e) => return Err(format!("cannot wait for serve: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One JSONL session.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

impl Client {
    fn new(stream: UnixStream) -> Result<Client, String> {
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| format!("cannot set a read timeout: {e}"))?;
        let reader = stream
            .try_clone()
            .map_err(|e| format!("cannot clone the socket: {e}"))?;
        Ok(Client {
            reader: BufReader::new(reader),
            writer: stream,
            line: String::new(),
        })
    }

    /// Sends one request line (newline included) and parses the response.
    fn call(&mut self, request: &str) -> Result<Value, String> {
        self.writer
            .write_all(request.as_bytes())
            .map_err(|e| format!("cannot send to serve: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("serve closed the session".into()),
            Ok(_) => Value::parse(self.line.trim_end())
                .map_err(|e| format!("serve sent a malformed line: {e}")),
            Err(e) => Err(format!("cannot read from serve: {e}")),
        }
    }
}

/// Spawns the daemon [`SETUPS`] times, timing spawn until `first` is
/// registered; keeps the last daemon and its session.
fn set_up(
    env: &mut Env,
    pass: &mut Pass,
    extra: &[&str],
    first: &Model,
) -> Result<(Daemon, Client, Value), String> {
    let mut kept = None;
    for i in 0..SETUPS {
        let start = Instant::now();
        let mut daemon = Daemon::spawn(env, extra)?;
        let mut client = daemon.connect()?;
        let s = timed(&mut client, None, &first.register_line())?;
        pass.setup_s.push((s.end - start).as_secs_f64());
        pass.check(first.registered(&s.response));
        let root = env
            .tracer
            .record("serve.spawn", start, s.end, SpanId::ROOT, None);
        let span = env
            .tracer
            .record("serve.register", s.start, s.end, root, None);
        env.tracer.attr(span, "build_ms", s.field("build_ms"));
        let v = s.response;
        if i + 1 < SETUPS {
            daemon.shutdown(client)?;
        } else {
            kept = Some((daemon, client, v));
        }
    }
    Ok(kept.expect("at least one set-up"))
}

/// One answered request, as a client saw it.
struct Sample {
    key: Option<Key>,
    start: Instant,
    end: Instant,
    response: Value,
}

impl Sample {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }

    fn field(&self, name: &str) -> f64 {
        self.response
            .get(name)
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    }
}

fn timed(client: &mut Client, key: Option<Key>, line: &str) -> Result<Sample, String> {
    let start = Instant::now();
    let response = client.call(line)?;
    Ok(Sample {
        key,
        start,
        end: Instant::now(),
        response,
    })
}

/// One `parallel_ratio` pair: query `k` sent twice back to back on one
/// session, at one worker thread and at two, one first when `one_first`.
/// Checks both answers; returns the two-thread over the one-thread
/// latency, and the threads the two-thread query actually used.
fn pair(
    client: &mut Client,
    oracle: &Oracle,
    k: Key,
    one_first: bool,
    pass: &mut Pass,
) -> Result<(f64, f64), String> {
    let model = oracle.model(k.n);
    let mut ms = [0.0; 2];
    let mut effective = 0.0;
    for threads in if one_first { [1, 2] } else { [2, 1] } {
        let s = timed(client, Some(k), &model.query_line(k, Some(threads)))?;
        pass.check(oracle.answered(&k, &s.response));
        ms[threads - 1] = s.ms();
        if threads == 2 {
            effective = s.field("threads_effective");
        }
    }
    Ok((ratio(ms[1], ms[0]), effective))
}

/// Notes when a two-thread query of a pair ran on fewer threads.
fn note_effective(pass: &mut Pass, effective: f64) {
    if effective < 2.0 {
        pass.notes.push(format!(
            "2 threads requested but {effective} effective: parallel_ratio is not a parallel result (unresolved)"
        ));
    }
}

/// The daemon's p99 queue wait in milliseconds, from a `metrics` scrape.
fn queue_wait_p99_ms(client: &mut Client) -> Result<f64, String> {
    let v = client.call("{\"metrics\":{}}\n")?;
    let text = v.get("exposition").and_then(Value::as_str).unwrap_or("");
    let ns = text
        .lines()
        .find_map(|l| l.strip_prefix("unicon_serve_queue_wait_ns_p99 "))
        .and_then(|x| x.trim().parse::<f64>().ok())
        .ok_or("the metrics scrape lacks the queue-wait p99")?;
    Ok(ns / 1e6)
}

/// Records spans for the measured samples and derives the per-layer values
/// both serve workloads share. In the traced pass the oracle's queries are
/// replayed in process to time the engine alone.
fn query_layers(
    env: &mut Env,
    oracle: &Oracle,
    samples: &[Sample],
    queue_wait_ms: f64,
    pass: &mut Pass,
) {
    for (i, s) in samples.iter().enumerate() {
        let name = if s.key.is_some() {
            "serve.query"
        } else {
            "serve.register"
        };
        let span = env
            .tracer
            .record(name, s.start, s.end, SpanId::ROOT, Some(i as u64));
        env.tracer.attr(span, "wall_ms", s.field("wall_ms"));
    }
    if !env.tracer.on() {
        return;
    }
    let mut kernel = KernelSamples::default();
    let replays = oracle.replay(env, &mut kernel);
    let queries: Vec<(&Sample, &ReplayTime)> = samples
        .iter()
        .filter_map(|s| s.key.as_ref().map(|k| (s, &replays[k])))
        .collect();
    let over = |f: &dyn Fn(&Sample, &ReplayTime) -> f64| -> f64 {
        median(&queries.iter().map(|(s, r)| f(s, r)).collect::<Vec<_>>())
    };
    let latencies: Vec<f64> = queries.iter().map(|(s, _)| s.ms()).collect();
    let cached = queries
        .iter()
        .filter(|(s, _)| s.response.get("weights_cached") == Some(&Value::Bool(true)))
        .count();
    pass.layers.extend([
        ("serve.run_ms", over(&|s, _| s.field("wall_ms"))),
        (
            "serve.overhead_ms",
            over(&|s, _| s.ms() - s.field("wall_ms")),
        ),
        ("engine.query_ms", over(&|_, r| r.total_ms)),
        (
            "serve.engine_ratio",
            over(&|s, r| ratio(s.ms(), r.total_ms)),
        ),
        ("serve.query_ms_p99", percentile(&latencies, 0.99)),
        (
            "serve.query_ms_max",
            latencies.iter().copied().fold(0.0, f64::max),
        ),
        (
            "weights.cache_hit_ratio",
            ratio(cached as f64, queries.len() as f64),
        ),
        ("iterate.sweeps", over(&|s, _| s.field("iterations"))),
        (
            "iterate.threads_effective",
            over(&|s, _| s.field("threads_effective")),
        ),
        ("serve.queue_wait_ms_p99", queue_wait_ms),
        (
            "precompute.bytes",
            oracle
                .models
                .iter()
                .map(|m| m.engine.memory_bytes() as f64)
                .fold(0.0, f64::max),
        ),
        (
            "build.states",
            oracle
                .models
                .iter()
                .map(|m| m.states as f64)
                .fold(0.0, f64::max),
        ),
    ]);
    if let Some((_, first)) = queries.first() {
        for (i, &(name, _)) in first.sweep.iter().enumerate() {
            pass.layers.push((name, over(&|_, r| r.sweep[i].1)));
        }
    }
    pass.layers.extend(kernel.layers());
}

/// `serve-query`: one model, two closed-loop clients (one on a single
/// CPU) on connections of their own, the daemon's default threads.
pub fn query(env: &mut Env) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let bounds: Vec<f64> = QUERY_T.iter().map(|&(t, _)| t).collect();
    let oracle = Oracle::new(env, &[QUERY_N], &bounds)?;
    let model = oracle.model(QUERY_N);
    let (mut daemon, first, registered) = set_up(env, &mut pass, &[], model)?;
    let mut clients = vec![first];
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    while clients.len() < parallelism.min(2) {
        clients.push(daemon.connect()?);
    }
    // Warm-up: every distinct query once, so the weight cache is filled.
    for &k in oracle.checksums.keys() {
        let s = timed(&mut clients[0], Some(k), &model.query_line(k, None))?;
        pass.check(oracle.answered(&k, &s.response));
    }

    let (deadline, end) = env.split_deadline(PAIR_SHARE);
    let seed = env.seed;
    let start = Instant::now();
    let logs: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(0..)
            .map(|(client, c)| {
                scope.spawn(move || {
                    let mut log = Vec::new();
                    for (t, o) in query_stream(seed, c) {
                        let k = key(QUERY_N, t, o);
                        log.push(timed(client, Some(k), &model.query_line(k, None))?);
                        if Instant::now() >= deadline {
                            break;
                        }
                    }
                    Ok(log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let mut samples = Vec::new();
    for log in logs {
        samples.extend(log?);
    }
    samples.sort_by_key(|s| s.start);
    pass.elapsed_s = samples
        .iter()
        .map(|s| s.end)
        .max()
        .map_or(0.0, |end| (end - start).as_secs_f64());
    for s in &samples {
        pass.check(s.key.is_some_and(|k| oracle.answered(&k, &s.response)));
        pass.latency_ms.push(s.ms());
    }

    // Thread-count pairs, on one session while the other is idle.
    let mut effective = f64::INFINITY;
    for (i, (t, o)) in query_stream(seed, clients.len() as u64).enumerate() {
        let k = key(QUERY_N, t, o);
        let (r, e) = pair(&mut clients[0], &oracle, k, i % 2 == 0, &mut pass)?;
        pass.parallel_ratio.push(r);
        effective = effective.min(e);
        if Instant::now() >= end {
            break;
        }
    }
    note_effective(&mut pass, effective);

    let queue_wait = queue_wait_p99_ms(&mut clients[0])?;
    let main = clients.swap_remove(0);
    drop(clients);
    daemon.shutdown(main)?;

    query_layers(env, &oracle, &samples, queue_wait, &mut pass);
    pass.layers.extend([
        (
            "serve.register_ms",
            median(&env.tracer.durations_ms("serve.register")),
        ),
        (
            "serve.build_ms",
            median(&env.tracer.attrs("serve.register", "build_ms")),
        ),
        (
            "registry.resident_bytes_max",
            registered
                .get("resident_bytes")
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
        ),
    ]);
    Ok(pass)
}

/// Bytes resident in the daemon's registry after a register answer,
/// tracked from the answers alone: the registered model's charge comes
/// in, every model it evicted goes out.
fn track_resident(resident: &mut BTreeMap<String, f64>, v: &Value) -> f64 {
    if let Some(Value::Arr(evicted)) = v.get("evicted") {
        for fp in evicted.iter().filter_map(Value::as_str) {
            resident.remove(fp);
        }
    }
    if let (Some(fp), Some(bytes)) = (
        v.get("model").and_then(Value::as_str),
        v.get("resident_bytes").and_then(Value::as_f64),
    ) {
        resident.insert(fp.to_string(), bytes);
    }
    resident.values().sum()
}

/// `serve-mixed`: one closed-loop client under a cache budget; every
/// request — register or query — is a sample.
pub fn mixed(env: &mut Env) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let sizes: Vec<usize> = MIXED_N.iter().map(|&(n, _)| n).collect();
    let bounds: Vec<f64> = MIXED_T.iter().map(|&(t, _)| t).collect();
    let oracle = Oracle::new(env, &sizes, &bounds)?;
    let (daemon, mut client, registered) = set_up(
        env,
        &mut pass,
        &["--cache-budget", MIXED_BUDGET],
        oracle.model(sizes[0]),
    )?;
    let mut resident = BTreeMap::new();
    let mut resident_max = track_resident(&mut resident, &registered);

    let mut samples = Vec::new();
    let mut steps = mixed_steps(env.seed);
    let (deadline, end) = env.split_deadline(PAIR_SHARE);
    let start = Instant::now();
    for (n, queries) in steps.by_ref() {
        let model = oracle.model(n);
        let s = timed(&mut client, None, &model.register_line())?;
        pass.check(model.registered(&s.response));
        resident_max = resident_max.max(track_resident(&mut resident, &s.response));
        samples.push(s);
        for (t, o) in queries {
            let k = key(n, t, o);
            let s = timed(&mut client, Some(k), &model.query_line(k, None))?;
            pass.check(oracle.answered(&k, &s.response));
            samples.push(s);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    pass.elapsed_s = start.elapsed().as_secs_f64();
    pass.latency_ms = samples.iter().map(Sample::ms).collect();

    // Thread-count pairs on the steps that follow: each step's register is
    // checked but not timed, each of its queries becomes a pair.
    let mut effective = f64::INFINITY;
    let mut i = 0;
    for (n, queries) in steps {
        let model = oracle.model(n);
        let v = client.call(&model.register_line())?;
        pass.check(model.registered(&v));
        for (t, o) in queries {
            let (r, e) = pair(&mut client, &oracle, key(n, t, o), i % 2 == 0, &mut pass)?;
            pass.parallel_ratio.push(r);
            effective = effective.min(e);
            i += 1;
        }
        if Instant::now() >= end {
            break;
        }
    }
    note_effective(&mut pass, effective);
    let queue_wait = queue_wait_p99_ms(&mut client)?;
    daemon.shutdown(client)?;

    query_layers(env, &oracle, &samples, queue_wait, &mut pass);
    let registers: Vec<&Sample> = samples.iter().filter(|s| s.key.is_none()).collect();
    let flag = |s: &Sample, name| s.response.get(name) == Some(&Value::Bool(true));
    let count = |name| registers.iter().filter(|s| flag(s, name)).count() as f64;
    let evictions: usize = registers
        .iter()
        .map(|s| match s.response.get("evicted") {
            Some(Value::Arr(fps)) => fps.len(),
            _ => 0,
        })
        .sum();
    let builds: Vec<f64> = registers
        .iter()
        .filter(|s| !flag(s, "cached"))
        .map(|s| s.field("build_ms"))
        .collect();
    pass.layers.extend([
        (
            "serve.register_ms",
            median(&registers.iter().map(|s| s.ms()).collect::<Vec<_>>()),
        ),
        ("serve.build_ms", median(&builds)),
        (
            "registry.hit_ratio",
            ratio(count("cached"), registers.len() as f64),
        ),
        ("registry.evictions", evictions as f64),
        ("registry.rebuilds", count("rebuilt")),
        ("registry.resident_bytes_max", resident_max),
    ]);
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_sequence_is_a_function_of_the_seed() {
        let a: Vec<_> = query_stream(7, 0).take(500).collect();
        assert_eq!(a, query_stream(7, 0).take(500).collect::<Vec<_>>());
        assert_ne!(a, query_stream(8, 0).take(500).collect::<Vec<_>>());
        assert_ne!(a, query_stream(7, 1).take(500).collect::<Vec<_>>());
        // Every block of 80 queries holds the same mix, in a seeded order.
        for block in a.chunks_exact(80) {
            for (t, count) in QUERY_T {
                let of = |o| block.iter().filter(|&&q| q == (t, o)).count();
                assert_eq!(of(Objective::Maximize), 3 * count);
                assert_eq!(of(Objective::Minimize), count);
            }
        }
    }

    #[test]
    fn mixed_steps_are_a_function_of_the_seed() {
        let a: Vec<_> = mixed_steps(7).take(200).collect();
        assert_eq!(a, mixed_steps(7).take(200).collect::<Vec<_>>());
        assert_ne!(a, mixed_steps(8).take(200).collect::<Vec<_>>());
        for (n, queries) in &a {
            assert!(MIXED_N.iter().any(|&(m, _)| m == *n));
            assert!((1..=3).contains(&queries.len()));
        }
        // Every block of 20 steps holds the same mix of sizes.
        for block in a.chunks(20) {
            for (n, count) in MIXED_N {
                assert_eq!(block.iter().filter(|(m, _)| *m == n).count(), count);
            }
        }
    }

    #[test]
    fn resident_bytes_follow_registrations_and_evictions() {
        let mut resident = BTreeMap::new();
        let reg = |fp: &str, bytes: f64, evicted: &[&str]| {
            Value::Obj(vec![
                ("model".into(), Value::Str(fp.into())),
                ("resident_bytes".into(), Value::Num(bytes)),
                (
                    "evicted".into(),
                    Value::Arr(evicted.iter().map(|e| Value::Str((*e).into())).collect()),
                ),
            ])
        };
        assert_eq!(track_resident(&mut resident, &reg("a", 10.0, &[])), 10.0);
        assert_eq!(track_resident(&mut resident, &reg("b", 5.0, &[])), 15.0);
        assert_eq!(track_resident(&mut resident, &reg("c", 7.0, &["a"])), 12.0);
        assert_eq!(track_resident(&mut resident, &reg("b", 5.0, &[])), 12.0);
    }
}
