//! `unicon serve` — a long-running, fault-tolerant timed-reachability
//! service.
//!
//! The daemon composes the pieces the batch CLI already has into the
//! amortization shape the paper argues for: the expensive part
//! (compose / minimize / transform / precompute) happens **once** per
//! model, after which every `(t, objective, ε)` query touches only
//! immutable shared state.
//!
//! * Models are built on `register` and cached in a registry keyed by
//!   their FNV-1a content fingerprint ([`unicon::ctmdp::Ctmdp::fingerprint`]);
//!   re-registering is a cache hit and never rebuilds.
//! * Each registered model owns a re-entrant
//!   [`ReachEngine`] whose shared state layout answers queries from
//!   any number of sessions concurrently without locking.
//! * Fox–Glynn weight vectors live in one process-wide
//!   [`WeightCache`] shared across sessions; responses carry cache-hit
//!   provenance (`weights_cached`).
//! * Per-request budgets (`budget.max_iters`, `budget.timeout_ms`) run
//!   through the guarded engine and answer with a partial-result
//!   record — the service analogue of the CLI's exit code 3.
//! * The [`unicon::obs::Registry`] aggregates per-request counters and
//!   gauges; `{"metrics": {}}` returns the Prometheus text exposition.
//!
//! # Failure semantics
//!
//! Every failure the service can absorb is a *typed* outcome, never a
//! dead session or a wedged daemon (the guards live in [`guard`]):
//!
//! * **Admission control** — `--max-sessions` bounds concurrent
//!   connections and `--max-inflight` bounds concurrent queries; excess
//!   load is shed immediately with an `overloaded` error (code 4,
//!   `retriable: true`) instead of queuing unboundedly.
//! * **Deadlines** — `budget.timeout_ms` (or `--default-timeout`)
//!   routes into the guarded engine's [`RunBudget`]; an expired query
//!   answers a partial record with certified lower/upper brackets.
//!   `--idle-timeout` releases session threads whose clients stall.
//! * **Cache budget** — `--cache-budget` caps resident model bytes;
//!   registers that overflow it evict least-recently-used models (never
//!   one pinned by an in-flight query) and report `evicted`/`rebuilt`
//!   provenance.
//! * **Build isolation** — `register` builds run under `catch_unwind`;
//!   a panicking build answers a `build_failed` error, quarantines that
//!   cluster size and leaves the registry serving everyone else.
//! * **Graceful drain** — `shutdown` or SIGTERM stops accepting, lets
//!   in-flight queries finish or hit the drain deadline, flushes
//!   metrics and exits 0.
//!
//! # Determinism contract
//!
//! Query results are **bitwise identical** whether a query is issued
//! serially, interleaved with other sessions, through a budget, under
//! chaos (evictions, rejected neighbors, quarantined models) or at any
//! thread count, and identical to one-shot `unicon reach` on the same
//! model: every execution path funnels into the same per-state kernel
//! over the same shared state layout, and the chunked-Neumaier
//! checksum rides along to prove it. The only nondeterministic response
//! fields are the wall-clock `*_ms` measurements.
//!
//! Sessions run over stdin/stdout (one session, ends at EOF) or a Unix
//! socket (`--socket <path>`, one thread per connection). Responses
//! within a session arrive in request order.

mod guard;
mod proto;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use unicon::core::PreparedModel;
use unicon::ctmdp::guard::{GuardOptions, RunBudget};
use unicon::ctmdp::par::{resolve_threads, ReachEngine, CHECKSUM_BLOCK};
use unicon::ftwc::{experiment, FtwcParams};
use unicon::numeric::{chunked_stable_sum, WeightCache};
use unicon::obs;

use crate::{parse_usize, runtime, CliError};
use guard::{lock, read_bounded_line, Drain, Gate, LineOutcome};
use proto::{ProtoError, QueryRequest, Request};

/// One registered model: the prepared CTMDP plus the long-lived query
/// engine built over it. Immutable after construction, so sessions
/// share entries by `Arc` and query them concurrently; the mutable
/// atoms on the side only steer cache policy, never results.
struct ModelEntry {
    /// Cluster size the entry was built from.
    n: usize,
    /// The transformed uniform CTMDP and its goal vector.
    prepared: PreparedModel,
    /// Re-entrant engine holding the shared state layout.
    engine: ReachEngine,
    /// Wall-clock build time, echoed on cached registers.
    build_ms: f64,
    /// Heap bytes charged against `--cache-budget` (model + engine).
    resident_bytes: usize,
    /// In-flight queries currently reading the entry; eviction skips
    /// any entry with a nonzero pin count.
    pins: AtomicI64,
    /// LRU stamp from [`ServeState::lru_seq`]; smallest evicts first.
    last_used: AtomicU64,
}

/// RAII pin: holds an entry out of eviction's reach for the lifetime of
/// one query. Taken under the registry lock, so eviction (which also
/// holds it) can never observe a half-taken pin.
struct PinGuard {
    entry: Arc<ModelEntry>,
}

impl PinGuard {
    fn new(entry: Arc<ModelEntry>) -> Self {
        entry.pins.fetch_add(1, Ordering::SeqCst);
        Self { entry }
    }
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        self.entry.pins.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Daemon configuration, parsed once from the CLI.
struct ServeConfig {
    /// Worker threads for queries that do not request their own.
    default_threads: usize,
    /// Concurrent session cap (0 = unlimited); excess connections get
    /// one `overloaded` line and are closed.
    max_sessions: usize,
    /// Concurrent query cap (0 = unlimited); excess queries answer
    /// `overloaded` with `retriable: true`.
    max_inflight: usize,
    /// Deadline for queries that do not carry `budget.timeout_ms`.
    default_timeout: Option<Duration>,
    /// Socket read timeout; a stalled client releases its thread.
    idle_timeout: Option<Duration>,
    /// Resident model-cache byte budget (0 = unlimited).
    cache_budget: usize,
    /// Longest accepted request line in bytes.
    max_line_bytes: usize,
    /// Deadline imposed on queries still running once drain begins.
    drain_grace: Duration,
    /// Seeded chaos plan (compiled out of normal builds).
    #[cfg(feature = "fault-inject")]
    faults: guard::ServeFaults,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            default_threads: 0,
            max_sessions: 64,
            max_inflight: 32,
            default_timeout: None,
            idle_timeout: Some(Duration::from_secs(300)),
            cache_budget: 0,
            max_line_bytes: 1 << 20,
            drain_grace: Duration::from_secs(5),
            #[cfg(feature = "fault-inject")]
            faults: guard::ServeFaults::default(),
        }
    }
}

/// Shared daemon state: the fingerprint-keyed model registry, the
/// cross-session weight cache, admission gates, live gauges and the
/// metrics registry.
struct ServeState {
    cfg: ServeConfig,
    /// fingerprint → model. `BTreeMap` keeps iteration deterministic.
    registry: Mutex<BTreeMap<u64, Arc<ModelEntry>>>,
    /// cluster size → fingerprint. The lock is held across a build, so
    /// concurrent registers of the same size build exactly once — also
    /// after an eviction (the rebuild happens under the same lock).
    built: Mutex<BTreeMap<usize, u64>>,
    /// cluster size → panic message. A build that panicked is never
    /// retried; registers answer `build_failed` from here.
    quarantine: Mutex<BTreeMap<usize, String>>,
    /// Fox–Glynn weights shared by every session; locked only for the
    /// lookup-and-clone, never while iterating.
    weights: Mutex<WeightCache>,
    /// Session admission gate (`--max-sessions`).
    sessions: Arc<Gate>,
    /// Query admission gate (`--max-inflight`).
    inflight: Arc<Gate>,
    /// Monotone LRU clock for [`ModelEntry::last_used`].
    lru_seq: AtomicU64,
    /// Queries currently executing (gauge source).
    active_queries: AtomicI64,
    /// Sessions currently connected (gauge source).
    active_sessions: AtomicI64,
    /// Requests read but not yet answered (gauge source).
    queue_depth: AtomicI64,
    /// The shutdown state machine (`shutdown` verb or SIGTERM).
    drain: Drain,
    /// Aggregates the event stream for `{"metrics": {}}`.
    metrics: Arc<obs::Registry>,
    /// Monotone request-id source. Ids are assigned in handling order
    /// (deterministic for a single-session run, which is what the golden
    /// transcript pins); every response line echoes its id and every
    /// telemetry event emitted while the request runs is stamped with it,
    /// so a JSONL trace can be filtered to one request end-to-end.
    next_request_id: AtomicU64,
}

impl ServeState {
    fn new(cfg: ServeConfig, metrics: Arc<obs::Registry>) -> Self {
        let sessions = Gate::new(cfg.max_sessions);
        let inflight = Gate::new(cfg.max_inflight);
        Self {
            cfg,
            registry: Mutex::new(BTreeMap::new()),
            built: Mutex::new(BTreeMap::new()),
            quarantine: Mutex::new(BTreeMap::new()),
            weights: Mutex::new(WeightCache::new()),
            sessions,
            inflight,
            lru_seq: AtomicU64::new(0),
            active_queries: AtomicI64::new(0),
            active_sessions: AtomicI64::new(0),
            queue_depth: AtomicI64::new(0),
            drain: Drain::new(),
            metrics,
            next_request_id: AtomicU64::new(0),
        }
    }

    /// Emits every serve series once at startup, so counters that have
    /// not fired yet still appear (as zero, with help text) in each
    /// metrics exposition — scrapers never have to special-case absent
    /// series, and the ci format check can assert on all of them.
    fn init_metrics(&self) {
        for name in [
            "serve_requests",
            "serve_errors",
            "serve_partials",
            "serve_registry_hits",
            "serve_registry_misses",
            "serve_sessions_rejected",
            "serve_queries_shed",
            "serve_cache_evictions",
            "serve_build_failures",
            "serve_idle_timeouts",
            "serve_lines_too_long",
        ] {
            self.count(name, 0);
        }
        for name in [
            "serve_active_queries",
            "serve_active_sessions",
            "serve_queue_depth",
            "serve_cache_resident_bytes",
            "serve_drain_seconds",
            // Owned by the reach batch engine, not serve itself, but
            // zero-seeded here so the gauge is scrapable before the
            // first query warms it.
            "reach_kernel_ns_per_state",
        ] {
            self.set_gauge(name, 0.0);
        }
        // Latency histograms are seeded directly (an empty histogram, not
        // a phantom zero sample — a seeded zero would corrupt the
        // percentiles), so p50/p90/p99/max render 0 and the full series
        // is scrapeable before the first request lands.
        for name in [
            "unicon_serve_query_latency_ns",
            "unicon_serve_queue_wait_ns",
            "unicon_serve_request_run_ns",
            "unicon_serve_build_ns",
            "unicon_reach_query_ns",
            "unicon_kernel_fixed_ps_per_state",
            "unicon_kernel_empty_ps_per_state",
            "unicon_kernel_single_ps_per_state",
            "unicon_kernel_multi_ps_per_state",
        ] {
            self.metrics.seed_histogram(name);
        }
    }

    fn count(&self, name: &'static str, value: u64) {
        obs::emit(obs::Class::Metric, || obs::Event::Counter { name, value });
    }

    /// Emits a gauge at an absolute level (registry gauges replace).
    fn set_gauge(&self, name: &'static str, value: f64) {
        obs::emit(obs::Class::Metric, || obs::Event::Gauge { name, value });
    }

    /// Moves an atomic gauge by `delta` and emits the new level.
    fn gauge(&self, counter: &AtomicI64, name: &'static str, delta: i64) {
        let now = counter.fetch_add(delta, Ordering::SeqCst) + delta;
        obs::emit(obs::Class::Metric, || obs::Event::Gauge {
            name,
            value: now as f64,
        });
    }

    /// Stamps an entry most-recently-used.
    fn touch(&self, entry: &ModelEntry) {
        entry.last_used.store(
            self.lru_seq.fetch_add(1, Ordering::SeqCst) + 1,
            Ordering::SeqCst,
        );
    }

    /// Handles `register`: a registry hit answers from the cache, a
    /// miss builds the model while holding the `built` lock, so every
    /// distinct cluster size is built exactly once per daemon lifetime —
    /// including rebuilds of evicted models, which are flagged
    /// `rebuilt` and are bitwise-identical by construction (same
    /// deterministic pipeline, same fingerprint).
    fn register(&self, n: usize) -> Result<String, ProtoError> {
        if let Some(why) = lock(&self.quarantine).get(&n) {
            return Err(ProtoError::build_failed(format!(
                "ftwc n={n} is quarantined after a build panic: {why}"
            )));
        }
        let mut built = lock(&self.built);
        let rebuilt = if let Some(&fp) = built.get(&n) {
            if let Some(entry) = lock(&self.registry).get(&fp).cloned() {
                self.count("serve_registry_hits", 1);
                self.touch(&entry);
                return Ok(self.render_register(fp, &entry, true, false, &[]));
            }
            // Known size, no entry: evicted under the cache budget.
            true
        } else {
            false
        };
        let start = Instant::now(); // det-lint: allow(clock): runtime telemetry only.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(feature = "fault-inject")]
            self.cfg.faults.maybe_panic_build(n);
            let (prepared, _, fp) = experiment::prepare_registered(&FtwcParams::new(n));
            let engine = ReachEngine::new(&prepared.ctmdp, &prepared.goal)
                .map_err(|e| ProtoError::runtime(format!("engine construction failed: {e}")))?;
            Ok::<_, ProtoError>((prepared, engine, fp))
        }));
        let (prepared, engine, fp) = match outcome {
            Err(payload) => {
                let why = panic_message(payload.as_ref());
                lock(&self.quarantine).insert(n, why.clone());
                self.count("serve_build_failures", 1);
                return Err(ProtoError::build_failed(format!(
                    "model build for ftwc n={n} panicked ({why}); size quarantined, \
                     registry unaffected"
                )));
            }
            Ok(Err(e)) => return Err(e),
            Ok(Ok(parts)) => parts,
        };
        let resident_bytes = prepared.ctmdp.memory_bytes()
            + prepared.goal.len() * std::mem::size_of::<bool>()
            + engine.memory_bytes();
        let entry = Arc::new(ModelEntry {
            n,
            prepared,
            engine,
            build_ms: start.elapsed().as_secs_f64() * 1e3,
            resident_bytes,
            pins: AtomicI64::new(0),
            last_used: AtomicU64::new(0),
        });
        self.touch(&entry);
        obs::observe(
            "serve_build_ns",
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );
        lock(&self.registry).insert(fp, Arc::clone(&entry));
        built.insert(n, fp);
        self.count("serve_registry_misses", 1);
        drop(built);
        #[cfg(feature = "fault-inject")]
        self.cfg.faults.maybe_stall_eviction();
        let evicted = self.enforce_cache_budget(fp);
        Ok(self.render_register(fp, &entry, false, rebuilt, &evicted))
    }

    /// Evicts least-recently-used models until resident bytes fit the
    /// budget. Never evicts `keep` (the entry the caller just
    /// registered) or any pinned entry, so a register that itself
    /// overflows the budget stays resident and usable. Returns the
    /// evicted fingerprints and refreshes the resident-bytes gauge.
    fn enforce_cache_budget(&self, keep: u64) -> Vec<u64> {
        let mut evicted = Vec::new();
        let mut reg = lock(&self.registry);
        if self.cfg.cache_budget != 0 {
            loop {
                let total: usize = reg.values().map(|e| e.resident_bytes).sum();
                if total <= self.cfg.cache_budget {
                    break;
                }
                let victim = reg
                    .iter()
                    .filter(|(fp, e)| **fp != keep && e.pins.load(Ordering::SeqCst) == 0)
                    .min_by_key(|(fp, e)| (e.last_used.load(Ordering::SeqCst), **fp))
                    .map(|(fp, _)| *fp);
                let Some(fp) = victim else {
                    // Everything else is pinned (or `keep`): over budget
                    // but nothing evictable — back off until pins drop.
                    break;
                };
                reg.remove(&fp);
                evicted.push(fp);
                self.count("serve_cache_evictions", 1);
            }
        }
        let total: usize = reg.values().map(|e| e.resident_bytes).sum();
        self.set_gauge("serve_cache_resident_bytes", total as f64);
        if !evicted.is_empty() {
            obs::info(|| {
                let fps: Vec<String> = evicted.iter().map(|fp| format!("{fp:016x}")).collect();
                format!(
                    "serve: cache budget evicted {} model(s): {} ({} bytes resident)",
                    evicted.len(),
                    fps.join(", "),
                    total
                )
            });
        }
        evicted
    }

    fn render_register(
        &self,
        fp: u64,
        entry: &ModelEntry,
        cached: bool,
        rebuilt: bool,
        evicted: &[u64],
    ) -> String {
        proto::render_register(
            fp,
            entry.n,
            entry.prepared.ctmdp.num_states(),
            entry.prepared.ctmdp.initial(),
            entry.engine.uniform_rate(),
            cached,
            rebuilt,
            entry.resident_bytes,
            evicted,
            entry.build_ms,
        )
    }

    /// Handles `query`: admission first (shed with a retriable
    /// `overloaded` when `--max-inflight` is reached), then the entry is
    /// pinned for the duration of the run so eviction can never pull
    /// the state layout out from under an in-flight query.
    fn query(&self, q: &QueryRequest) -> Result<String, ProtoError> {
        let Some(_permit) = self.inflight.try_acquire() else {
            self.count("serve_queries_shed", 1);
            return Err(ProtoError::overloaded(format!(
                "query shed: {} queries in flight (--max-inflight {})",
                self.inflight.active(),
                self.inflight.limit()
            )));
        };
        let pin = lock(&self.registry)
            .get(&q.model)
            .cloned()
            .map(PinGuard::new)
            .ok_or_else(|| ProtoError::unknown_model(q.model))?;
        self.touch(&pin.entry);
        let threads_requested = q.threads.unwrap_or(self.cfg.default_threads);
        let threads_effective = resolve_threads(threads_requested);
        let start = Instant::now(); // det-lint: allow(clock): runtime telemetry only.
        self.gauge(&self.active_queries, "serve_active_queries", 1);
        let out = self.run_query(q, &pin.entry, threads_requested, threads_effective, start);
        self.gauge(&self.active_queries, "serve_active_queries", -1);
        out
    }

    /// The effective wall-clock deadline of one query: the request's
    /// `timeout_ms` (or the daemon default), tightened by the drain
    /// deadline once shutdown has begun. A timeout that ends past what an
    /// [`Instant`] holds sets no deadline.
    fn query_deadline(&self, q: &QueryRequest, start: Instant) -> Option<Instant> {
        let from_timeout = q
            .timeout
            .or(self.cfg.default_timeout)
            .and_then(|timeout| start.checked_add(timeout));
        match (from_timeout, self.drain.deadline()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Runs one admitted query. Plain queries share the weight cache
    /// and the model's engine; budgeted queries (`max_iters`, a
    /// deadline, or an ongoing drain) run the guarded engine over the
    /// same shared state layout (the guard computes its own weights,
    /// so those bypass the cache — `weights_cached` reports `false`).
    fn run_query(
        &self,
        q: &QueryRequest,
        entry: &ModelEntry,
        threads_requested: usize,
        threads_effective: usize,
        start: Instant,
    ) -> Result<String, ProtoError> {
        let ctmdp = &entry.prepared.ctmdp;
        let initial = ctmdp.initial() as usize;
        let ms = |s: Instant| s.elapsed().as_secs_f64() * 1e3;
        let deadline = self.query_deadline(q, start);

        if q.max_iters.is_some() || deadline.is_some() {
            let batch = entry
                .prepared
                .reach_batch()
                .with_epsilon(q.epsilon)
                .with_threads(threads_requested)
                .query_with(q.t, q.objective);
            let mut budget = RunBudget::default();
            if let Some(max_iters) = q.max_iters {
                budget = budget.with_max_iterations(max_iters);
            }
            if let Some(d) = deadline {
                budget = budget.with_deadline(d);
            }
            let opts = GuardOptions::default().with_budget(budget);
            let run = batch
                .run_guarded_with_engine(&opts, &entry.engine)
                .map_err(|e| ProtoError::runtime(e.to_string()))?;
            return match run.stopped {
                None => {
                    let r = &run.results[0];
                    Ok(proto::render_query(
                        q,
                        r.from_state(initial as u32),
                        chunked_stable_sum(&r.values, CHECKSUM_BLOCK).to_bits(),
                        r.iterations,
                        false,
                        threads_requested,
                        threads_effective,
                        ms(start),
                    ))
                }
                Some((reason, partial)) => {
                    self.count("serve_partials", 1);
                    let p = partial.ok_or_else(|| {
                        ProtoError::runtime("budget stop without an in-flight query")
                    })?;
                    Ok(proto::render_partial(
                        q,
                        reason.as_str(),
                        p.completed_steps,
                        p.total_steps,
                        p.lower[initial],
                        p.upper[initial],
                        threads_requested,
                        threads_effective,
                        ms(start),
                    ))
                }
            };
        }

        let rate = entry.engine.uniform_rate();
        let r;
        let weights_cached;
        if q.t == 0.0 || rate == 0.0 {
            // Indicator regime: no weights exist to cache.
            weights_cached = false;
            r = entry
                .engine
                .query(ctmdp, q.t, q.objective, q.epsilon, threads_requested)
                .map_err(|e| ProtoError::runtime(e.to_string()))?;
        } else {
            let weights = {
                let mut cache = lock(&self.weights);
                let hits_before = cache.hits();
                let w = cache
                    .try_get(rate, q.t, q.epsilon)
                    .map_err(ProtoError::runtime)?
                    .clone();
                weights_cached = cache.hits() > hits_before;
                w
            };
            self.count(
                if weights_cached {
                    "weight_cache_hits"
                } else {
                    "weight_cache_misses"
                },
                1,
            );
            r = entry
                .engine
                .query_with_weights(
                    ctmdp,
                    q.t,
                    q.objective,
                    q.epsilon,
                    &weights,
                    threads_requested,
                )
                .map_err(|e| ProtoError::runtime(e.to_string()))?;
        }
        Ok(proto::render_query(
            q,
            r.from_state(initial as u32),
            chunked_stable_sum(&r.values, CHECKSUM_BLOCK).to_bits(),
            r.iterations,
            weights_cached,
            threads_requested,
            threads_effective,
            ms(start),
        ))
    }

    /// Enters drain mode (idempotent); records who asked, for the logs.
    fn begin_drain(&self, source: &str) {
        if self.drain.begin(self.cfg.drain_grace) {
            obs::info(|| format!("serve: {source} received, draining"));
        }
    }
}

/// Best-effort panic payload extraction for quarantine records.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Answers one request line; the boolean asks the session to end after
/// writing the response (a `shutdown` acknowledgement). Convenience
/// entry for callers without a read timestamp (queue time reads as 0).
#[cfg(test)]
fn handle_line(state: &ServeState, line: &str) -> (String, bool) {
    // det-lint: allow(clock): queue-time telemetry only.
    handle_request(state, line, Instant::now())
}

/// Answers one request line read at `received`. Assigns the request id,
/// runs the whole handler inside the id's [`obs::request_scope`] (so
/// every event any layer emits on this thread — spans, iteration
/// records, kernel observations — carries the id in the JSONL trace),
/// measures queue time (read-to-handling) and run time separately, and
/// echoes the id as `request_id` on the response line.
fn handle_request(state: &ServeState, line: &str, received: Instant) -> (String, bool) {
    let rid = state.next_request_id.fetch_add(1, Ordering::SeqCst) + 1;
    let _scope = obs::request_scope(rid);
    state.count("serve_requests", 1);
    let queue_ns = u64::try_from(received.elapsed().as_nanos()).unwrap_or(u64::MAX);
    // det-lint: allow(clock): request run-time telemetry only.
    let run_start = Instant::now();
    let parsed = proto::parse_request(line);
    let verb = match &parsed {
        Err(_) => "invalid",
        Ok(Request::Shutdown) => "shutdown",
        Ok(Request::Metrics) => "metrics",
        Ok(Request::Register { .. }) => "register",
        Ok(Request::Query(_)) => "query",
    };
    let (mut response, stop, ok) = match parsed {
        Err(e) => (e.to_json(), false, false),
        Ok(Request::Shutdown) => (proto::SHUTDOWN_RESPONSE.to_string(), true, true),
        Ok(Request::Metrics) => (
            proto::render_metrics(&state.metrics.exposition()),
            false,
            true,
        ),
        Ok(Request::Register { ftwc }) => match state.register(ftwc) {
            Ok(r) => (r, false, true),
            Err(e) => (e.to_json(), false, false),
        },
        Ok(Request::Query(q)) => match state.query(&q) {
            Ok(r) => (r, false, true),
            Err(e) => (e.to_json(), false, false),
        },
    };
    if !ok {
        state.count("serve_errors", 1);
    }
    let run_ns = u64::try_from(run_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    if ok && verb == "query" {
        obs::observe("serve_query_latency_ns", run_ns);
    }
    obs::emit(obs::Class::Metric, || obs::Event::Request {
        id: rid,
        verb,
        queue_ns,
        run_ns,
    });
    // Every renderer produces one `{...}` object; the id is spliced in
    // uniformly rather than threading it through each signature.
    debug_assert!(response.ends_with('}'));
    response.truncate(response.len() - 1);
    response.push_str(",\"request_id\":");
    response.push_str(&rid.to_string());
    response.push('}');
    (response, stop)
}

/// Drives one JSONL session to EOF (or `shutdown`), answering every
/// request line in order. Returns whether the session asked the daemon
/// to shut down. The session gauge is balanced on *every* exit path —
/// including I/O errors from vanished clients — so chaos cannot leak
/// phantom sessions into the metrics.
fn run_session(
    state: &ServeState,
    mut reader: impl BufRead,
    mut writer: impl Write,
) -> std::io::Result<bool> {
    state.gauge(&state.active_sessions, "serve_active_sessions", 1);
    let out = session_loop(state, &mut reader, &mut writer);
    state.gauge(&state.active_sessions, "serve_active_sessions", -1);
    out
}

fn session_loop(
    state: &ServeState,
    reader: &mut impl BufRead,
    writer: &mut impl Write,
) -> std::io::Result<bool> {
    loop {
        match read_bounded_line(reader, state.cfg.max_line_bytes)? {
            LineOutcome::Eof => return Ok(false),
            LineOutcome::IdleTimeout => {
                state.count("serve_idle_timeouts", 1);
                obs::info(|| "serve: session idle timeout, releasing thread".to_string());
                return Ok(false);
            }
            LineOutcome::TooLong => {
                // The rest of the oversized line cannot be skipped in
                // bounded memory, so the session ends after the error.
                state.count("serve_requests", 1);
                state.count("serve_errors", 1);
                state.count("serve_lines_too_long", 1);
                let e = ProtoError::line_too_long(state.cfg.max_line_bytes);
                writer.write_all(e.to_json().as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()?;
                return Ok(false);
            }
            LineOutcome::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                // det-lint: allow(clock): queue-time telemetry only.
                let received = Instant::now();
                state.gauge(&state.queue_depth, "serve_queue_depth", 1);
                let (response, stop) = handle_request(state, &line, received);
                state.gauge(&state.queue_depth, "serve_queue_depth", -1);
                writer.write_all(response.as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()?;
                if stop {
                    return Ok(true);
                }
            }
        }
    }
}

/// Accepts connections until a session (or SIGTERM) begins a drain; one
/// thread per connection, all sharing the state. The listener polls
/// non-blocking so drain signals are observed within one tick even when
/// no client ever connects again.
fn serve_socket(state: &Arc<ServeState>, path: &str) -> Result<(), CliError> {
    // A stale socket file from a previous run would fail the bind.
    if std::fs::metadata(path).is_ok() {
        std::fs::remove_file(path)
            .map_err(|e| runtime(format!("cannot remove stale socket {path}: {e}")))?;
    }
    let listener =
        UnixListener::bind(path).map_err(|e| runtime(format!("cannot bind {path}: {e}")))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| runtime(format!("cannot poll {path}: {e}")))?;
    guard::install_sigterm_handler();
    obs::info(|| format!("serve: listening on {path}"));
    std::thread::scope(|scope| -> Result<(), CliError> {
        let mut handles: Vec<std::thread::ScopedJoinHandle<'_, ()>> = Vec::new();
        loop {
            if guard::sigterm_received() {
                state.begin_drain("SIGTERM");
            }
            if state.drain.draining() {
                break;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let Some(permit) = state.sessions.try_acquire() else {
                        // Shed at the door: one typed line, then close.
                        state.count("serve_sessions_rejected", 1);
                        let e = ProtoError::overloaded(format!(
                            "session rejected: {} sessions connected (--max-sessions {})",
                            state.sessions.active(),
                            state.sessions.limit()
                        ));
                        let mut w = &stream;
                        let _ = w.write_all(e.to_json().as_bytes());
                        let _ = w.write_all(b"\n");
                        continue;
                    };
                    let _ = stream.set_nonblocking(false);
                    if let Some(idle) = state.cfg.idle_timeout {
                        let _ = stream.set_read_timeout(Some(idle));
                    }
                    let st = Arc::clone(state);
                    handles.push(scope.spawn(move || {
                        let _permit = permit;
                        let reader = match stream.try_clone() {
                            Ok(s) => BufReader::new(s),
                            Err(e) => {
                                obs::error(|| format!("serve: cannot clone stream: {e}"));
                                return;
                            }
                        };
                        match run_session(&st, reader, &stream) {
                            Ok(true) => st.begin_drain("shutdown"),
                            Ok(false) => {}
                            Err(e) => obs::error(|| format!("serve: session failed: {e}")),
                        }
                    }));
                    // Reap finished sessions so the handle list stays
                    // bounded over a long daemon lifetime.
                    handles.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(runtime(format!("accept failed: {e}"))),
            }
        }
        // Drain: stop accepting immediately, then let every in-flight
        // session run to EOF, its idle timeout, or the drain deadline.
        drop(listener);
        let open = handles.len();
        obs::info(|| format!("serve: draining, waiting for {open} open session(s)"));
        for h in handles {
            let _ = h.join();
        }
        Ok(())
    })?;
    if let Some(secs) = state.drain.elapsed_seconds() {
        state.set_gauge("serve_drain_seconds", secs);
    }
    let _ = std::fs::remove_file(path);
    obs::info(|| "serve: drained, shut down".to_string());
    Ok(())
}

/// `unicon serve [--socket <path>] [--threads <n>] [--max-sessions <n>]
/// [--max-inflight <n>] [--default-timeout <secs>] [--idle-timeout <secs>]
/// [--cache-budget <bytes>] [--max-line-bytes <n>] [--drain-grace <secs>]`
/// — see the module docs for the protocol and failure semantics.
pub fn run(args: &[String]) -> Result<ExitCode, CliError> {
    #[allow(unused_mut)] // extended only under the fault-inject feature
    let mut value_flags = vec![
        "--socket",
        "--threads",
        "--max-sessions",
        "--max-inflight",
        "--default-timeout",
        "--idle-timeout",
        "--cache-budget",
        "--max-line-bytes",
        "--drain-grace",
    ];
    #[cfg(feature = "fault-inject")]
    value_flags.extend_from_slice(&["--fault-build-panic", "--fault-evict-stall"]);
    let cli = crate::parse_cli(args, &value_flags, &[])?;
    if let Some(extra) = cli.positional.first() {
        return Err(CliError::Usage(format!(
            "serve: unexpected argument '{extra}'"
        )));
    }
    // `None` for 0 seconds: no timeout, or no drain grace.
    let seconds = |flag: &'static str, default: f64| -> Result<Option<Duration>, CliError> {
        let secs = cli
            .value(flag)
            .map_or(Ok(default), |s| crate::parse_time(flag, s))?;
        (secs > 0.0).then(|| crate::span(flag, secs)).transpose()
    };
    let max_line_bytes = cli
        .value("--max-line-bytes")
        .map_or(Ok(1 << 20), |s| parse_usize("--max-line-bytes", s))?;
    if max_line_bytes == 0 {
        return Err(CliError::Usage(
            "--max-line-bytes: must be at least 1".to_string(),
        ));
    }
    #[cfg(feature = "fault-inject")]
    let faults = guard::ServeFaults {
        build_panic_n: cli
            .value("--fault-build-panic")
            .map(|s| parse_usize("--fault-build-panic", s))
            .transpose()?,
        evict_stall_ms: cli
            .value("--fault-evict-stall")
            .map(|s| parse_usize("--fault-evict-stall", s))
            .transpose()?
            .map(|ms| ms as u64),
    };
    let cfg = ServeConfig {
        default_threads: cli
            .value("--threads")
            .map_or(Ok(0), |s| parse_usize("--threads", s))?,
        max_sessions: cli
            .value("--max-sessions")
            .map_or(Ok(64), |s| parse_usize("--max-sessions", s))?,
        max_inflight: cli
            .value("--max-inflight")
            .map_or(Ok(32), |s| parse_usize("--max-inflight", s))?,
        default_timeout: seconds("--default-timeout", 0.0)?,
        idle_timeout: seconds("--idle-timeout", 300.0)?,
        cache_budget: cli
            .value("--cache-budget")
            .map_or(Ok(0), |s| parse_usize("--cache-budget", s))?,
        max_line_bytes,
        drain_grace: seconds("--drain-grace", 5.0)?.unwrap_or_default(),
        #[cfg(feature = "fault-inject")]
        faults,
    };
    let metrics = Arc::new(obs::Registry::new());
    obs::install(metrics.clone());
    let state = Arc::new(ServeState::new(cfg, metrics));
    state.init_metrics();
    match cli.value("--socket") {
        Some(path) => serve_socket(&state, path)?,
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let shutdown = run_session(&state, stdin.lock(), stdout.lock())
                .map_err(|e| runtime(format!("stdin session failed: {e}")))?;
            if shutdown {
                state.begin_drain("shutdown");
                if let Some(secs) = state.drain.elapsed_seconds() {
                    state.set_gauge("serve_drain_seconds", secs);
                }
            }
        }
    }
    obs::flush();
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicon::obs::json::Value;

    fn state() -> ServeState {
        state_with(ServeConfig {
            default_threads: 1,
            ..ServeConfig::default()
        })
    }

    fn state_with(cfg: ServeConfig) -> ServeState {
        ServeState::new(cfg, Arc::new(obs::Registry::new()))
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.get(key).unwrap_or_else(|| panic!("missing field {key}"))
    }

    fn register_fp(st: &ServeState, n: usize) -> String {
        let (r, _) = handle_line(st, &format!(r#"{{"register": {{"ftwc": {n}}}}}"#));
        Value::parse(&r)
            .ok()
            .and_then(|v| v.get("model").and_then(Value::as_str).map(String::from))
            .unwrap_or_else(|| panic!("register n={n} failed: {r}"))
    }

    /// One in-process session: register twice (hit the second time),
    /// query, and check the cached register echoes the same model.
    #[test]
    fn register_twice_builds_once_and_queries_answer() {
        let st = state();
        let (r1, _) = handle_line(&st, r#"{"register": {"ftwc": 1}}"#);
        let v1 = Value::parse(&r1).expect("register response parses");
        assert_eq!(field(&v1, "cached"), &Value::Bool(false));
        assert_eq!(field(&v1, "rebuilt"), &Value::Bool(false));
        assert!(field(&v1, "resident_bytes").as_f64().expect("bytes") > 0.0);
        let fp = field(&v1, "model")
            .as_str()
            .expect("fingerprint")
            .to_string();

        let (r2, _) = handle_line(&st, r#"{"register": {"ftwc": 1}}"#);
        let v2 = Value::parse(&r2).expect("cached register parses");
        assert_eq!(field(&v2, "cached"), &Value::Bool(true));
        assert_eq!(field(&v2, "model").as_str(), Some(fp.as_str()));
        assert_eq!(lock(&st.registry).len(), 1);

        let (q1, _) = handle_line(
            &st,
            &format!(r#"{{"query": {{"model": "{fp}", "t": 10}}}}"#),
        );
        let vq = Value::parse(&q1).expect("query response parses");
        assert_eq!(field(&vq, "ok").as_str(), Some("query"));
        assert_eq!(field(&vq, "weights_cached"), &Value::Bool(false));
        let value = field(&vq, "value").as_f64().expect("value");
        assert!(value > 0.0 && value < 1.0);

        // Same query again: the shared weight cache answers, the value
        // bits do not move.
        let (q2, _) = handle_line(
            &st,
            &format!(r#"{{"query": {{"model": "{fp}", "t": 10}}}}"#),
        );
        let vq2 = Value::parse(&q2).expect("second query parses");
        assert_eq!(field(&vq2, "weights_cached"), &Value::Bool(true));
        assert_eq!(
            field(&vq2, "value").as_f64().map(f64::to_bits),
            Some(value.to_bits())
        );
        assert_eq!(
            field(&vq2, "checksum").as_str(),
            field(&vq, "checksum").as_str()
        );

        // The charge covers the value planes the engine keeps after a
        // query, not only the model and its precomputation.
        let reg = lock(&st.registry);
        let entry = reg.values().next().expect("one entry");
        let states = entry.prepared.ctmdp.num_states();
        assert_eq!(
            field(&v1, "resident_bytes").as_f64(),
            Some(entry.resident_bytes as f64)
        );
        assert!(
            entry.resident_bytes
                >= entry.prepared.ctmdp.memory_bytes() + 2 * states * std::mem::size_of::<f64>()
        );
    }

    /// Malformed lines and unknown models get typed errors; the session
    /// survives them all and still answers good requests.
    #[test]
    fn errors_are_answered_inline_without_killing_the_session() {
        let st = state();
        for bad in [
            "garbage",
            r#"{"query": {"model": "0000000000000000", "t": 1}}"#,
            r#"{"register": {"ftwc": 0}}"#,
        ] {
            let (resp, stop) = handle_line(&st, bad);
            let v = Value::parse(&resp).expect("error record parses");
            let code = v
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_f64)
                .expect("nonzero code");
            assert!(code != 0.0);
            assert!(!stop);
        }
        let (resp, stop) = handle_line(&st, r#"{"shutdown": {}}"#);
        let v = Value::parse(&resp).expect("shutdown ack parses");
        assert_eq!(field(&v, "ok").as_str(), Some("shutdown"));
        // ids are monotone in handling order: three errors then this
        assert_eq!(field(&v, "request_id").as_f64(), Some(4.0));
        assert!(stop);
    }

    /// A budget too small to finish yields a partial record bracketing
    /// the true value; a generous one completes with identical bits to
    /// the unbudgeted path.
    #[test]
    fn budgeted_queries_answer_partial_then_complete() {
        let st = state();
        let fp = register_fp(&st, 1);

        let (p, _) = handle_line(
            &st,
            &format!(r#"{{"query": {{"model": "{fp}", "t": 10, "budget": {{"max_iters": 3}}}}}}"#),
        );
        let vp = Value::parse(&p).expect("partial parses");
        assert_eq!(field(&vp, "ok").as_str(), Some("partial"));
        assert_eq!(field(&vp, "stopped").as_str(), Some("max-iterations"));
        assert_eq!(field(&vp, "completed_steps").as_f64(), Some(3.0));
        let lower = field(&vp, "lower").as_f64().expect("lower");
        let upper = field(&vp, "upper").as_f64().expect("upper");

        let (full, _) = handle_line(
            &st,
            &format!(r#"{{"query": {{"model": "{fp}", "t": 10}}}}"#),
        );
        let vf = Value::parse(&full).expect("full query parses");
        let value = field(&vf, "value").as_f64().expect("value");
        assert!(
            lower <= value && value <= upper,
            "[{lower}, {upper}] ∌ {value}"
        );

        let (g, _) = handle_line(
            &st,
            &format!(
                r#"{{"query": {{"model": "{fp}", "t": 10, "budget": {{"max_iters": 100000}}}}}}"#
            ),
        );
        let vg = Value::parse(&g).expect("generous budget parses");
        assert_eq!(field(&vg, "ok").as_str(), Some("query"));
        assert_eq!(
            field(&vg, "value").as_f64().map(f64::to_bits),
            Some(value.to_bits())
        );
        assert_eq!(
            field(&vg, "checksum").as_str(),
            field(&vf, "checksum").as_str()
        );
    }

    /// An effectively-already-expired wall-clock budget answers a
    /// deadline partial with certified brackets; the values are
    /// deterministic (the guard checks the clock before each step).
    #[test]
    fn timeout_budget_answers_deadline_partial() {
        let st = state();
        let fp = register_fp(&st, 1);
        let (p, _) = handle_line(
            &st,
            &format!(
                r#"{{"query": {{"model": "{fp}", "t": 10, "budget": {{"timeout_ms": 1e-9}}}}}}"#
            ),
        );
        let vp = Value::parse(&p).expect("deadline partial parses");
        assert_eq!(field(&vp, "ok").as_str(), Some("partial"));
        assert_eq!(field(&vp, "stopped").as_str(), Some("deadline"));
        let lower = field(&vp, "lower").as_f64().expect("lower");
        let upper = field(&vp, "upper").as_f64().expect("upper");
        assert!((0.0..=1.0).contains(&lower));
        assert!(lower <= upper && upper <= 1.0);
    }

    /// The in-flight gate sheds queries over the cap with a retriable
    /// `overloaded` record and recovers as soon as a slot frees up.
    #[test]
    fn inflight_gate_sheds_with_retriable_overloaded() {
        let st = state_with(ServeConfig {
            default_threads: 1,
            max_inflight: 1,
            ..ServeConfig::default()
        });
        let fp = register_fp(&st, 1);
        let held = st.inflight.try_acquire().expect("hold the only slot");
        let (resp, _) = handle_line(
            &st,
            &format!(r#"{{"query": {{"model": "{fp}", "t": 10}}}}"#),
        );
        let v = Value::parse(&resp).expect("overloaded parses");
        let err = v.get("error").expect("error record");
        assert_eq!(err.get("kind").and_then(Value::as_str), Some("overloaded"));
        assert_eq!(err.get("code").and_then(Value::as_f64), Some(4.0));
        assert_eq!(err.get("retriable"), Some(&Value::Bool(true)));
        drop(held);
        let (resp, _) = handle_line(
            &st,
            &format!(r#"{{"query": {{"model": "{fp}", "t": 10}}}}"#),
        );
        let v = Value::parse(&resp).expect("recovered query parses");
        assert_eq!(field(&v, "ok").as_str(), Some("query"));
    }

    /// Satellite regression: a registry poisoned by a panicking session
    /// still answers `metrics` and `register` — poison recovery means
    /// one crash cannot wedge every other client.
    #[test]
    fn poisoned_registry_still_answers_metrics_and_register() {
        let st = Arc::new(state());
        let fp = register_fp(&st, 1);
        let st2 = Arc::clone(&st);
        let _ = std::thread::spawn(move || {
            let _guard = st2.registry.lock().expect("clean lock");
            panic!("poison the registry mid-request");
        })
        .join();
        assert!(st.registry.lock().is_err(), "registry must be poisoned");

        let (m, _) = handle_line(&st, r#"{"metrics": {}}"#);
        let vm = Value::parse(&m).expect("metrics parses after poison");
        assert_eq!(field(&vm, "ok").as_str(), Some("metrics"));

        let (r, _) = handle_line(&st, r#"{"register": {"ftwc": 1}}"#);
        let vr = Value::parse(&r).expect("register parses after poison");
        assert_eq!(field(&vr, "cached"), &Value::Bool(true));

        let (q, _) = handle_line(
            &st,
            &format!(r#"{{"query": {{"model": "{fp}", "t": 10}}}}"#),
        );
        let vq = Value::parse(&q).expect("query parses after poison");
        assert_eq!(field(&vq, "ok").as_str(), Some("query"));
    }

    /// Cache-budget eviction: LRU victims leave (with provenance),
    /// pinned entries never do, evicted models answer `unknown-model`
    /// until re-registered, and the rebuild is bitwise identical.
    #[test]
    fn cache_budget_evicts_lru_but_never_pinned() {
        // A 1-byte budget means every register overflows: only `keep`
        // and pinned entries survive each enforcement pass.
        let st = state_with(ServeConfig {
            default_threads: 1,
            cache_budget: 1,
            ..ServeConfig::default()
        });
        let fp1 = register_fp(&st, 1);
        let (q1, _) = handle_line(
            &st,
            &format!(r#"{{"query": {{"model": "{fp1}", "t": 10}}}}"#),
        );
        let before = Value::parse(&q1).expect("query parses");
        let checksum_before = field(&before, "checksum")
            .as_str()
            .expect("sum")
            .to_string();

        // Pin n=1 and register n=2: the pinned entry must survive.
        let pin = {
            let reg = lock(&st.registry);
            let fp = u64::from_str_radix(&fp1, 16).expect("hex fp");
            PinGuard::new(Arc::clone(reg.get(&fp).expect("resident")))
        };
        let (r2, _) = handle_line(&st, r#"{"register": {"ftwc": 2}}"#);
        let v2 = Value::parse(&r2).expect("register n=2 parses");
        match field(&v2, "evicted") {
            Value::Arr(fps) => assert!(fps.is_empty(), "pinned entry was evicted: {r2}"),
            other => panic!("evicted must be an array, got {other:?}"),
        }
        assert_eq!(lock(&st.registry).len(), 2, "both models resident");

        // Unpin and register n=3: now both older entries are fair game.
        drop(pin);
        let (r3, _) = handle_line(&st, r#"{"register": {"ftwc": 3}}"#);
        let v3 = Value::parse(&r3).expect("register n=3 parses");
        match field(&v3, "evicted") {
            Value::Arr(fps) => assert_eq!(fps.len(), 2, "LRU evicts both unpinned: {r3}"),
            other => panic!("evicted must be an array, got {other:?}"),
        }
        assert_eq!(lock(&st.registry).len(), 1);

        // The evicted model is typed `unknown-model` until re-register.
        let (gone, _) = handle_line(
            &st,
            &format!(r#"{{"query": {{"model": "{fp1}", "t": 10}}}}"#),
        );
        let vg = Value::parse(&gone).expect("evicted query parses");
        assert_eq!(
            vg.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Value::as_str),
            Some("unknown-model")
        );

        // Re-register: flagged `rebuilt`, same fingerprint, and the
        // rebuilt model answers with bitwise-identical checksums.
        let (r1b, _) = handle_line(&st, r#"{"register": {"ftwc": 1}}"#);
        let v1b = Value::parse(&r1b).expect("re-register parses");
        assert_eq!(field(&v1b, "model").as_str(), Some(fp1.as_str()));
        assert_eq!(field(&v1b, "cached"), &Value::Bool(false));
        assert_eq!(field(&v1b, "rebuilt"), &Value::Bool(true));
        let (q2, _) = handle_line(
            &st,
            &format!(r#"{{"query": {{"model": "{fp1}", "t": 10}}}}"#),
        );
        let after = Value::parse(&q2).expect("rebuilt query parses");
        assert_eq!(
            field(&after, "checksum").as_str(),
            Some(checksum_before.as_str()),
            "evict + rebuild must be bitwise identical"
        );
    }

    /// End-to-end trace reconstruction: with a JSONL sink installed,
    /// filtering the trace to one query's `request` stamp yields that
    /// query's full lifecycle — the Fox–Glynn window announcement, every
    /// value-iteration record, the kernel speed observations and the
    /// closing request summary with separate queue/run times — and
    /// nothing from neighboring requests.
    #[test]
    fn trace_filtered_by_request_id_reconstructs_one_query() {
        let dir = std::env::temp_dir().join("unicon-serve-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("trace-e2e-{}.jsonl", std::process::id()));
        let sink = Arc::new(obs::JsonlSink::create(&path).expect("create trace file"));
        obs::install(sink.clone());

        let st = state();
        // A distinctive id base keeps this test's stamps disjoint from
        // any other test thread that might also be tracing right now.
        st.next_request_id.store(770_000, Ordering::SeqCst);
        let fp = register_fp(&st, 1); // request 770001
        let (q, _) = handle_line(
            &st,
            &format!(r#"{{"query": {{"model": "{fp}", "t": 10}}}}"#),
        ); // request 770002
        let vq = Value::parse(&q).expect("query response parses");
        assert_eq!(field(&vq, "request_id").as_f64(), Some(770_002.0));
        let iterations = field(&vq, "iterations").as_f64().expect("iterations");
        obs::flush();

        let text = std::fs::read_to_string(&path).expect("read trace back");
        let mine: Vec<Value> = text
            .lines()
            .filter_map(|l| Value::parse(l).ok())
            .filter(|v| v.get("request").and_then(Value::as_f64) == Some(770_002.0))
            .collect();
        let of_type = |ty: &str| -> Vec<&Value> {
            mine.iter()
                .filter(|v| v.get("type").and_then(Value::as_str) == Some(ty))
                .collect()
        };
        // The Fox–Glynn window is announced once, before iteration.
        assert_eq!(of_type("query_start").len(), 1);
        // Every value-iteration step of the query is present.
        assert_eq!(of_type("reach_iteration").len(), iterations as usize);
        // Kernel speed and latency observations carry the same stamp.
        let observed: Vec<&str> = of_type("observe")
            .iter()
            .filter_map(|v| v.get("name").and_then(Value::as_str))
            .collect();
        assert!(observed.contains(&"reach_query_ns"), "{observed:?}");
        assert!(observed.contains(&"serve_query_latency_ns"), "{observed:?}");
        // The closing summary separates queue wait from run time.
        let summaries = of_type("request");
        assert_eq!(summaries.len(), 1);
        let s = summaries[0];
        assert_eq!(s.get("verb").and_then(Value::as_str), Some("query"));
        assert_eq!(s.get("id").and_then(Value::as_f64), Some(770_002.0));
        assert!(s.get("queue_ns").and_then(Value::as_f64).is_some());
        assert!(s.get("run_ns").and_then(Value::as_f64).is_some());
        // Nothing from the neighboring register request leaked in.
        assert!(of_type("request")
            .iter()
            .all(|v| v.get("verb").and_then(Value::as_str) != Some("register")));
        std::fs::remove_file(&path).ok();
    }

    /// The startup zero-init makes every serve series visible (with its
    /// type header) in the very first exposition.
    #[test]
    fn init_metrics_exposes_all_serve_series() {
        use unicon::obs::Sink as _;
        let metrics = Arc::new(obs::Registry::new());
        let st = ServeState::new(ServeConfig::default(), Arc::clone(&metrics));
        let ((), events) = obs::collect(|| st.init_metrics());
        for e in events {
            metrics.record(&e);
        }
        let exposition = metrics.exposition();
        for needle in [
            "unicon_serve_sessions_rejected_total 0",
            "unicon_serve_queries_shed_total 0",
            "unicon_serve_cache_evictions_total 0",
            "unicon_serve_cache_resident_bytes 0e0",
            "unicon_serve_drain_seconds 0e0",
            "unicon_reach_kernel_ns_per_state 0e0",
            "# TYPE unicon_reach_kernel_ns_per_state gauge",
        ] {
            assert!(
                exposition.contains(needle),
                "missing {needle:?} in:\n{exposition}"
            );
        }
    }
}
