//! Parallel and batched timed reachability.
//!
//! This module scales Algorithm 1 along two axes:
//!
//! * **across states** — every backward value-iteration step is split over
//!   a persistent pool of `std::thread` workers, each owning a contiguous
//!   range of the state space ([`ReachBatch::with_threads`]);
//! * **across queries** — a [`ReachBatch`] answers many `(time bound,
//!   objective)` queries in one pass, compiling the layout it sweeps once
//!   and caching Fox–Glynn weight vectors keyed by `(rate, t, epsilon)`.
//!
//! Every engine — sequential, parallel, batched, served and guarded —
//! runs its steps through the one driver here, `drive`: the sequential
//! case is the 1-worker pool. Every query that sweeps the states on a
//! lane of its own — all but a laned batch's — is set up by one builder,
//! `StateRun::run`.
//!
//! # Determinism contract
//!
//! Parallel results are **bitwise identical** to the sequential engine's
//! for every thread count:
//!
//! * each state's update runs the one shared sweep
//!   ([`reachability` internals]), reading the previous iterate's plane
//!   and writing its own slot of the next — no cross-state arithmetic
//!   exists that could reassociate;
//! * the per-query value checksum reported in [`QueryStats`] is a chunked
//!   Neumaier reduction over **fixed-size** blocks
//!   ([`unicon_numeric::chunked_stable_sum`]), so its grouping never
//!   depends on the worker count.
//!
//! The differential test suite (`tests/par_differential.rs`) pins this
//! contract for 1, 2 and 8 workers on randomly generated uniform CTMDPs.
//!
//! [`reachability` internals]: crate::reachability::timed_reachability

use std::any::Any;
use std::cmp::Reverse;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use unicon_numeric::{chunked_stable_sum, CachedWeights, FoxGlynn, WeightCache};
use unicon_sparse::{assign_blocks, plane, ClassTiming, FusedGroups, Plane, LANES};

use crate::guard::{check_health, GuardError, NumericHealthError};
use crate::model::Ctmdp;
use crate::reachability::{
    check_decisions, check_query, emit_iteration, finalize_values, fuse, no_jump, objective_lane,
    observe_classes, observe_wall, uniform_rate, Folded, Kernel, Layout, Objective, ReachError,
    ReachOptions, ReachResult, Scratch, Sweep,
};

/// Fixed block size of the deterministic checksum reduction — a property
/// of the *algorithm*, never derived from the thread count.
pub const CHECKSUM_BLOCK: usize = 1024;

/// Resolves a `threads` request: `0` means "one worker per available
/// hardware thread", and explicit requests are clamped to the hardware —
/// oversubscribing workers onto fewer cores only adds scheduling noise
/// (results are thread-count invariant either way, so the clamp is
/// observable only in [`BatchStats::threads_effective`] and wall time).
pub fn resolve_threads(threads: usize) -> usize {
    let avail = std::thread::available_parallelism().map_or(1, usize::from);
    if threads == 0 {
        avail
    } else {
        threads.min(avail)
    }
}

/// Computes `opt_D Pr_D(s ⤳≤t B)` with the state-space loop of every
/// value-iteration step split over exactly `workers` workers (at most one
/// per state), never clamped to the hardware — so tests exercise the
/// multi-worker step loop even on single-core machines. Results — values,
/// iteration count and recorded decisions — are bitwise identical to
/// [`crate::reachability::timed_reachability`] for every worker count.
///
/// # Errors
///
/// See [`crate::reachability::timed_reachability`] — invalid `t`, epsilon
/// or goal length are typed errors, not panics.
#[doc(hidden)]
pub fn timed_reachability_workers(
    ctmdp: &Ctmdp,
    goal: &[bool],
    t: f64,
    opts: &ReachOptions,
    workers: usize,
) -> Result<ReachResult, ReachError> {
    let rate = uniform_rate(ctmdp, goal)?;
    check_query(rate, t, opts.epsilon)?;
    if opts.record_decisions {
        check_decisions(ctmdp)?;
    }
    if let Some(answer) = no_jump(goal, rate, t) {
        return Ok(answer);
    }
    let weights = FoxGlynn::try_weights(rate * t, opts.epsilon)?;
    let mut slot = None;
    let run = StateRun {
        layout: Layout::states(opts.kernel, ctmdp, goal, &mut slot),
        goal,
        rate,
        query: ReachQuery {
            t,
            objective: opts.objective,
        },
        epsilon: opts.epsilon,
        weights: &weights,
        qi: 0,
    };
    Ok(run.plain(opts.record_decisions, workers, &mut Planes::default()))
}

/// One query over the n states on a lane of its own: the run of every
/// query but a laned batch's — of `timed_reachability_workers`, a
/// [`ReachEngine`], a batch that runs its queries one by one, and the
/// guarded engine.
pub(crate) struct StateRun<'a> {
    /// The model itself or the state layout: never the folded one.
    pub(crate) layout: Layout<'a>,
    pub(crate) goal: &'a [bool],
    pub(crate) rate: f64,
    pub(crate) query: ReachQuery,
    pub(crate) epsilon: f64,
    /// The query's Poisson weights and step count `k`.
    pub(crate) weights: &'a CachedWeights,
    /// The query's index in its batch, for telemetry.
    pub(crate) qi: usize,
}

impl StateRun<'_> {
    /// The query's lane.
    pub(crate) fn lane(&self) -> Lane<'_> {
        Lane {
            fg: &self.weights.fg,
            k: self.weights.truncation,
            qi: self.qi,
        }
    }

    /// Runs the query unguarded on `workers` workers from
    /// `q_{k+1} = 0`, recording decisions when asked: the plain engines'
    /// run. `planes` carries the value planes across the queries of a
    /// batch (or, pooled, of an engine), so repeated same-model queries
    /// run allocation-free.
    pub(crate) fn plain(&self, record: bool, workers: usize, planes: &mut Planes) -> ReachResult {
        let checks = Checks {
            record,
            ..Checks::default()
        };
        let timed = unicon_obs::live(unicon_obs::Class::Metric);
        self.run(None, checks, timed, workers, planes, &mut Plain)
            .expect("an unguarded run has no hook that fails")
            .expect("an unguarded run takes every step")
    }

    /// Emits the query's start record and runs its steps on `workers`
    /// workers: from `resume`'s `(from, q_{from + 1})`, or from step `k`
    /// and `q_{k+1} = 0`, with `checks` in every worker and `sup` on
    /// worker 0 — the one place that sets up a one-lane state run. A
    /// `timed` run times its kernel per state class and observes that and
    /// its wall time. Returns the answer, or `None` when `sup` stopped the
    /// run early.
    pub(crate) fn run(
        &self,
        resume: Option<(usize, &[f64])>,
        checks: Checks,
        timed: bool,
        workers: usize,
        planes: &mut Planes,
        sup: &mut dyn Supervisor,
    ) -> Result<Option<ReachResult>, GuardError> {
        let lane = self.lane();
        lane.announce(self.query.t, self.epsilon);
        let start = Instant::now(); // det-lint: allow(clock): runtime telemetry only.
        let from = resume.map_or(lane.k, |(from, _)| from);
        planes.prepare(self.goal.len(), from, resume.map(|(_, q)| q));
        let sweep = Sweep {
            layout: self.layout,
            maximize: objective_lane(self.query.objective),
            timed,
        };
        let steps = Steps {
            lanes: &[lane],
            from,
            checks,
        };
        let done = drive(&sweep, &steps, workers, planes.pair(), sup)?;
        if done.stopped {
            return Ok(None);
        }
        let answer = ReachResult {
            values: finalize_values(self.goal, plane::values(planes.q(1))),
            iterations: lane.k,
            uniform_rate: self.rate,
            runtime: start.elapsed(),
            decisions: done.decisions,
        };
        if timed {
            observe_classes(&done.timing);
            observe_wall(answer.runtime);
        }
        Ok(Some(answer))
    }
}

/// The driver's two value planes, kept across the queries of a batch (and,
/// pooled, across an engine's queries). Step `i` writes plane `i % 2` and
/// reads plane `(i + 1) % 2`, so `q_i` always lives in plane `i % 2`.
#[derive(Debug, Default)]
pub(crate) struct Planes {
    planes: [Vec<AtomicU64>; 2],
    /// Number of times a plane had to grow — the probe the buffer-reuse
    /// tests assert on.
    pub(crate) allocs: usize,
}

impl Planes {
    /// Sizes both planes to `len` entries, counting each allocation.
    fn size(&mut self, len: usize) {
        for p in &mut self.planes {
            if p.len() != len {
                if p.capacity() < len {
                    self.allocs += 1;
                }
                p.clear();
                p.resize_with(len, AtomicU64::default);
            }
        }
    }

    /// Sizes both planes to `n` states and stores `q_{from + 1}` — `init`,
    /// or zeros — in the plane step `from` reads.
    pub(crate) fn prepare(&mut self, n: usize, from: usize, init: Option<&[f64]>) {
        self.size(n);
        let read = self.q(from + 1);
        match init {
            Some(values) => plane::fill(read, values),
            None => read.iter().for_each(|a| a.store(0, Ordering::Relaxed)),
        }
    }

    /// Sizes both planes to hold `lens` back to back, and returns one
    /// disjoint pair per length — one allocation for every part of a
    /// laned batch.
    fn split(&mut self, lens: &[usize]) -> Vec<Pair<'_>> {
        // det-lint: allow(float-sum): plane lengths, integers.
        self.size(lens.iter().sum());
        let mut rest = self.pair();
        lens.iter()
            .map(|&len| {
                let [a, b] = rest.0.map(|p| p.split_at(len));
                rest = Pair([a.1, b.1]);
                Pair([a.0, b.0])
            })
            .collect()
    }

    /// The plane holding `q_i`.
    pub(crate) fn q(&self, i: usize) -> &Plane {
        &self.planes[i % 2]
    }

    /// Both planes, for a run.
    pub(crate) fn pair(&self) -> Pair<'_> {
        Pair([&self.planes[0], &self.planes[1]])
    }
}

/// The two value planes one run steps over: plane `i % 2` holds `q_i`.
#[derive(Clone, Copy)]
pub(crate) struct Pair<'a>([&'a Plane; 2]);

impl<'a> Pair<'a> {
    /// The plane holding `q_i`.
    fn q(self, i: usize) -> &'a Plane {
        self.0[i % 2]
    }

    /// The first `len` entries of both planes, zeroed: a lane that joins
    /// a laned run late reads `q_{k+1} = 0` from whichever plane its first
    /// step reads, since no step writes a lane before it joins.
    fn zeroed(self, len: usize) -> Self {
        let pair = Pair(self.0.map(|p| &p[..len]));
        for p in pair.0 {
            p.iter().for_each(|a| a.store(0, Ordering::Relaxed));
        }
        pair
    }
}

/// One query a run advances: its Poisson weights, its step count `k` and
/// its index in its batch, for telemetry.
#[derive(Clone, Copy)]
pub(crate) struct Lane<'a> {
    pub(crate) fg: &'a FoxGlynn,
    pub(crate) k: usize,
    pub(crate) qi: usize,
}

impl Lane<'_> {
    /// Emits the query's start record: its time bound, `λ`, and the
    /// truncation points at `epsilon`.
    fn announce(&self, t: f64, epsilon: f64) {
        unicon_obs::emit(unicon_obs::Class::Metric, || {
            unicon_obs::Event::QueryStart {
                query: self.qi,
                t,
                lambda: self.fg.lambda(),
                left: self.fg.left_truncation(epsilon),
                right: self.k,
            }
        });
    }
}

/// A run's step schedule — steps `from` down to 1, each lane weighted by
/// its own Poisson weights — and the checks every worker runs on its own
/// range each step.
pub(crate) struct Steps<'a> {
    /// The queries, `k` descending, in plane-lane order. Lane `l` joins
    /// at step `lanes[l].k`, so the lanes a step advances are a prefix.
    /// One lane unless the sweep is laned.
    pub(crate) lanes: &'a [Lane<'a>],
    /// The first step to run; `q_{from + 1}` must be in its plane.
    pub(crate) from: usize,
    pub(crate) checks: Checks,
}

/// What every worker does besides its sweep, on its own range each step.
/// The plain engines record decisions on request; a guarded run scans
/// the values' health and injects its planned faults.
#[derive(Clone, Copy, Default)]
pub(crate) struct Checks {
    pub(crate) record: bool,
    /// Scan each worker's fresh range for NaN, infinities and drift.
    pub(crate) health: bool,
    /// `(step, worker)`: that worker panics at that step.
    pub(crate) panic_at: Option<(usize, usize)>,
    /// `(step, state)`: the state's value turns NaN right after that step.
    pub(crate) nan_at: Option<(usize, usize)>,
}

impl Steps<'_> {
    /// The lanes step `i` advances.
    fn active(&self, i: usize) -> &[Lane<'_>] {
        &self.lanes[..self.lanes.partition_point(|l| l.k >= i)]
    }
}

/// Worker 0's hooks between steps. The defaults are the unguarded run's:
/// never stop early, and re-raise a worker's panic.
pub(crate) trait Supervisor {
    /// Runs after step `i` — and once before the first step, with `i` one
    /// past it — while `q` holds `q_i` and no worker writes it. `Ok(false)`
    /// ends the run before step `i - 1`.
    fn proceed(&mut self, _i: usize, _q: &Plane) -> Result<bool, GuardError> {
        Ok(true)
    }

    /// Worker `worker` panicked in step `i`: the error that ends the run.
    /// A sweep is deterministic, so a replay would panic again.
    fn panicked(&mut self, _i: usize, _worker: usize, payload: Box<dyn Any + Send>) -> GuardError {
        std::panic::resume_unwind(payload)
    }
}

struct Plain;

impl Supervisor for Plain {}

/// Why a worker's share of a step failed.
enum Failure {
    Panic(Box<dyn Any + Send>),
    Health(NumericHealthError),
}

/// Locks a mutex whose data stays valid at every step, so a poisoned lock
/// is still usable.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a run of [`drive`], or one worker's pass of it, did.
#[derive(Default)]
pub(crate) struct Done {
    /// A hook stopped the run before its last step.
    pub(crate) stopped: bool,
    /// When recording: a run's `decisions[i - 1]` for each step `i`; a
    /// worker's rows of its own range, in step order.
    pub(crate) decisions: Vec<Vec<u16>>,
    /// The kernel time per state class of timed sweeps.
    pub(crate) timing: ClassTiming,
}

/// The state the workers of one [`drive`] share. The barrier publishes
/// the planes and the `Relaxed` flags: `Barrier::wait` takes a mutex, so
/// every write before a wait happens before every read after it.
struct Pool<'a> {
    sweep: &'a Sweep<'a>,
    steps: &'a Steps<'a>,
    planes: Pair<'a>,
    /// Waiters block at once. A barrier that first spun 256 times was no
    /// faster over 10 alternating benchmark rounds on a 2-vCPU Xeon VM:
    /// `reach-batch` 2-thread/1-thread ratio 0.82 against 0.83 here,
    /// `serve-query` mean latency 24.4 ms against 22.5 ms here.
    barrier: Barrier,
    /// The step in which a worker's share failed (0: none). Flags name
    /// their step: a worker may read one late, when others already run
    /// the next step.
    failed_at: AtomicUsize,
    /// The failing worker with the lowest index, and its failure.
    failure: Mutex<Option<(usize, Failure)>>,
    /// The step after whose barrier workers `1..` stop (0: none).
    stop_after: AtomicUsize,
    /// Lane steps worker 0 has passed to iteration telemetry.
    lane_steps: AtomicUsize,
}

impl Pool<'_> {
    /// Worker `w`'s share of step `i` over `range`, swept with the
    /// worker's `scratch`, then the guard hooks: a planned panic, a
    /// planned NaN, the health scan.
    fn share(
        &self,
        i: usize,
        w: usize,
        range: Range<usize>,
        decisions: &mut [u16],
        scratch: &mut Scratch,
    ) -> Option<Failure> {
        let steps = self.steps;
        let out = self.planes.q(i);
        let stride = self.sweep.stride();
        let active = steps.active(i);
        let mut psi = [0.0; LANES];
        for (p, lane) in psi.iter_mut().zip(active) {
            *p = lane.fg.psi(i);
        }
        // AssertUnwindSafe: a failed share's range is abandoned with the
        // run, never read as a result.
        let swept = catch_unwind(AssertUnwindSafe(|| {
            if steps.checks.panic_at == Some((i, w)) {
                panic!("injected worker fault (step {i}, worker {w})");
            }
            self.sweep.run(
                range.clone(),
                &psi[..active.len()],
                self.planes.q(i + 1),
                &out[range.start * stride..range.end * stride],
                decisions,
                scratch,
            );
        }));
        if let Err(payload) = swept {
            return Some(Failure::Panic(payload));
        }
        // The guard hooks below index states: guarded runs sweep states.
        if let Some((step, state)) = steps.checks.nan_at {
            if step == i && range.contains(&state) {
                plane::set(out, state, f64::NAN);
            }
        }
        if steps.checks.health {
            return check_health(out, range, i).err().map(Failure::Health);
        }
        None
    }

    /// Records worker `w`'s failure in step `i` for worker 0's verdict,
    /// which is the lowest failing worker's: it holds the lowest states,
    /// so the verdict is the one a single worker reaches.
    fn fail(&self, i: usize, w: usize, failure: Failure) {
        let mut slot = lock(&self.failure);
        if slot.as_ref().is_none_or(|(v, _)| w < *v) {
            *slot = Some((w, failure));
        }
        self.failed_at.store(i, Ordering::Relaxed);
    }

    /// A decision row for `len` states, empty when not recording.
    fn row(&self, len: usize) -> Vec<u16> {
        vec![0; if self.steps.checks.record { len } else { 0 }]
    }

    /// Worker `w`'s pass over the steps — the driver's one step loop.
    /// Every worker sweeps its share and meets the others at the barrier.
    /// Worker 0, which alone holds `sup`, then runs the failure verdict,
    /// telemetry and the hooks, reading only the plane just written while
    /// the others already sweep the next step into the other plane; the
    /// others stop at the barrier of a failed step or of worker 0's stop.
    fn work(
        &self,
        w: usize,
        ranges: &[Range<usize>],
        mut sup: Option<&mut dyn Supervisor>,
    ) -> Result<Done, GuardError> {
        let mut done = Done::default();
        let range = ranges[w].clone();
        let shared = ranges.len() > 1;
        // A folded run has one worker, so its row buffer grows in the
        // first sweep only.
        let mut scratch = Scratch::default();
        for i in (1..=self.steps.from).rev() {
            let mut row = self.row(range.len());
            if let Some(f) = self.share(i, w, range.clone(), &mut row, &mut scratch) {
                self.fail(i, w, f);
            }
            done.decisions.push(row);
            if shared {
                self.barrier.wait();
            }
            let failed = self.failed_at.load(Ordering::Relaxed) == i;
            let Some(sup) = sup.as_deref_mut() else {
                if failed || self.stop_after.load(Ordering::Relaxed) == i {
                    break;
                }
                continue;
            };
            // Every other worker stopped at this barrier.
            if let Some((w, failure)) = failed.then(|| lock(&self.failure).take()).flatten() {
                return Err(match failure {
                    Failure::Health(e) => e.into(),
                    Failure::Panic(payload) => sup.panicked(i, w, payload),
                });
            }
            let q = self.planes.q(i);
            let active = self.steps.active(i);
            for (l, lane) in active.iter().enumerate() {
                emit_iteration(lane.qi, i, lane.fg, lane.k, || self.sweep.checksum(q, l));
            }
            self.lane_steps.fetch_add(active.len(), Ordering::Relaxed);
            let go = sup.proceed(i, q);
            if !matches!(go, Ok(true)) {
                if shared && i > 1 {
                    // The others are sweeping step i - 1: stop them at its
                    // barrier.
                    self.stop_after.store(i - 1, Ordering::Relaxed);
                    self.barrier.wait();
                }
                done.stopped = true;
                done.timing = scratch.timing;
                return go.map(|_| done);
            }
        }
        done.timing = scratch.timing;
        Ok(done)
    }
}

/// The value-iteration step loop — the only one. Returns what the run
/// did: whether a hook stopped it, when recording `decisions[i - 1]` for
/// each step `i`, and the kernel time per class its workers' timed
/// sweeps summed. Runs `steps` on `workers` workers (at most one per
/// group) over the shared `planes`;
/// the calling thread is worker 0 and workers `1..` live in one scope for
/// the whole run. Each step, every worker sweeps its own group range —
/// every active lane of it — into plane `i % 2`, reading plane
/// `(i + 1) % 2`, and then all meet at one barrier. One is enough: the
/// next step writes the plane this step read, which no worker reads again
/// once all have passed this barrier. With one worker the same loop runs
/// with no barrier.
pub(crate) fn drive(
    sweep: &Sweep<'_>,
    steps: &Steps<'_>,
    workers: usize,
    planes: Pair<'_>,
    sup: &mut dyn Supervisor,
) -> Result<Done, GuardError> {
    let workers = workers.clamp(1, sweep.groups().max(1));
    if !sup.proceed(steps.from + 1, planes.q(steps.from + 1))? {
        return Ok(Done {
            stopped: true,
            ..Done::default()
        });
    }
    let ranges = assign_blocks(sweep.groups(), workers);
    let pool = Pool {
        sweep,
        steps,
        planes,
        barrier: Barrier::new(workers),
        failed_at: AtomicUsize::new(0),
        failure: Mutex::new(None),
        stop_after: AtomicUsize::new(0),
        lane_steps: AtomicUsize::new(0),
    };
    let (lead, followers) = std::thread::scope(|scope| {
        let (pool, ranges) = (&pool, &ranges);
        let followers: Vec<_> = (1..workers)
            .map(|w| scope.spawn(move || pool.work(w, ranges, None)))
            .collect();
        let lead = pool.work(0, ranges, Some(sup));
        let followers: Vec<Done> = followers
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("sweep workers catch their own panics")
                    .expect("only worker 0 runs the hooks that fail")
            })
            .collect();
        (lead, followers)
    });
    // One count per run, so that a metrics registry needs no iteration
    // records: it counts steps without the checksum each record carries.
    let lane_steps = pool.lane_steps.load(Ordering::Relaxed);
    if lane_steps > 0 {
        unicon_obs::emit(unicon_obs::Class::Metric, || unicon_obs::Event::Counter {
            name: "reach_iterations",
            value: lane_steps as u64,
        });
    }
    let mut done = lead?;
    for follower in &followers {
        done.timing.add(&follower.timing);
    }
    done.decisions = if steps.checks.record {
        let rows = followers.into_iter().map(|f| f.decisions);
        stitch(steps.from, std::iter::once(done.decisions).chain(rows))
    } else {
        Vec::new()
    };
    Ok(done)
}

/// Joins each step's per-worker decision rows, in worker order, into
/// `decisions[i - 1]`.
fn stitch(from: usize, workers: impl Iterator<Item = Vec<Vec<u16>>>) -> Vec<Vec<u16>> {
    let mut rows: Vec<_> = workers.map(Vec::into_iter).collect();
    let mut out = vec![Vec::new(); from];
    // Rows come in step order, `from` down to 1.
    for joined in out.iter_mut().rev() {
        for worker in &mut rows {
            joined.extend(worker.next().expect("every worker recorded every step"));
        }
    }
    out
}

/// One query of a [`ReachBatch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReachQuery {
    /// The time bound.
    pub t: f64,
    /// Maximize or minimize over schedulers.
    pub objective: Objective,
}

/// Per-query measurements of a batch run.
#[derive(Debug, Clone)]
pub struct QueryStats {
    /// The time bound analyzed.
    pub t: f64,
    /// The optimization direction.
    pub objective: Objective,
    /// Value-iteration step count `k(ε, E, t)`.
    pub iterations: usize,
    /// Wall-clock time of this query's iteration: of its whole lane
    /// group when the batch ran its queries as lanes, so every lane of a
    /// group reports the same wall.
    pub wall: Duration,
    /// Deterministic chunked-Neumaier checksum of the value vector
    /// (fixed [`CHECKSUM_BLOCK`]-state blocks) — bitwise reproducible for
    /// every thread count, the quantity the CI divergence gate compares.
    pub checksum: f64,
}

/// Aggregate measurements of a batch run, for the BENCH trajectory.
#[derive(Debug, Clone)]
pub struct BatchStats {
    /// Worker threads as requested by the caller (`0` = auto). Reported
    /// separately from [`BatchStats::threads_effective`] so a clamp on
    /// small hardware is visible instead of silently rewriting the
    /// request in benchmark records.
    pub threads_requested: usize,
    /// The resolved worker count: the request after resolving `0` = auto
    /// and clamping to `available_parallelism`. A laned batch uses at
    /// most one worker per lane, and a state run at most one per state.
    pub threads_effective: usize,
    /// Time spent checking uniformity and compiling the fused layout:
    /// the state layout, or for a laned batch its goal-folded layout.
    pub precompute_time: Duration,
    /// Time spent computing (or fetching) Fox–Glynn weight vectors.
    pub weights_time: Duration,
    /// Total wall-clock time of all value iterations: of the laned
    /// passes, when the batch ran its queries as lanes.
    pub iterate_time: Duration,
    /// Weight-cache hits across the batch.
    pub cache_hits: usize,
    /// Weight-cache misses across the batch.
    pub cache_misses: usize,
    /// Sum of all queries' iteration counts.
    pub total_iterations: usize,
    /// Passes over the model the batch made, on all workers together:
    /// `total_iterations` when each query iterates alone; when the
    /// queries ran as lanes, the largest iteration count of each lane
    /// group, summed over the groups.
    pub sweeps: usize,
    /// The value-iteration kernel the batch ran on.
    pub kernel: Kernel,
    /// Average wall nanoseconds per state per query step:
    /// `iterate_time / (total_iterations × num_states)` — the
    /// size-normalized batch speed the BENCH trajectory tracks (0 when
    /// the batch performed no iterations). When each query iterates
    /// alone that is the kernel's time per state per sweep. When the
    /// queries ran as lanes it is the laned wall time spread over every
    /// query's steps, so it stays comparable as batch throughput but is
    /// not the cost of one sweep (see [`BatchStats::sweeps`]).
    pub kernel_ns_per_state: f64,
    /// How many times a value plane had to allocate across the whole
    /// batch. After the first query sizes the planes, further same-model
    /// queries add zero.
    pub buffer_allocs: usize,
    /// Per-query detail, in query order.
    pub queries: Vec<QueryStats>,
}

/// The answers of a batch run.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// One [`ReachResult`] per query, in query order — each bitwise equal
    /// to the corresponding single-query call.
    pub results: Vec<ReachResult>,
    /// Phase timings and cache counters.
    pub stats: BatchStats,
}

/// A batched timed-reachability request: many `(time bound, objective)`
/// queries against one `(model, goal)` pair, sharing one fused layout and
/// a Fox–Glynn weight cache across queries.
///
/// # Examples
///
/// ```
/// use unicon_ctmdp::{CtmdpBuilder, par::ReachBatch};
///
/// let mut b = CtmdpBuilder::new(3, 0);
/// b.transition(0, "a", &[(1, 1.0), (0, 1.0)]);
/// b.transition(1, "a", &[(2, 2.0)]);
/// b.transition(2, "a", &[(2, 2.0)]);
/// let m = b.build();
/// let goal = [false, false, true];
///
/// let batch = ReachBatch::new(&m, &goal)
///     .with_epsilon(1e-9)
///     .query(1.0)
///     .query(4.0);
/// let out = batch.run().expect("uniform model");
/// assert_eq!(out.results.len(), 2);
/// assert!(out.results[0].values[0] < out.results[1].values[0]);
/// ```
#[derive(Debug, Clone)]
pub struct ReachBatch<'a> {
    // pub(crate): the guard module wraps batches without re-borrowing
    // through accessors.
    pub(crate) ctmdp: &'a Ctmdp,
    pub(crate) goal: Vec<bool>,
    pub(crate) epsilon: f64,
    pub(crate) threads: usize,
    /// `threads` is an exact worker count, not clamped to the hardware.
    pub(crate) exact: bool,
    pub(crate) kernel: Kernel,
    pub(crate) queries: Vec<ReachQuery>,
}

impl<'a> ReachBatch<'a> {
    /// Starts an empty batch against `(ctmdp, goal)` with the default
    /// precision `1e-6` and one thread.
    ///
    /// # Panics
    ///
    /// Panics if `goal.len()` mismatches the state count.
    pub fn new(ctmdp: &'a Ctmdp, goal: &[bool]) -> Self {
        assert_eq!(
            goal.len(),
            ctmdp.num_states(),
            "goal vector length mismatch"
        );
        Self {
            ctmdp,
            goal: goal.to_vec(),
            epsilon: ReachOptions::default().epsilon,
            threads: 1,
            exact: false,
            kernel: Kernel::default(),
            queries: Vec::new(),
        }
    }

    /// Sets the truncation precision shared by all queries (validated at
    /// [`ReachBatch::run`] time).
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the worker-thread count (`0` = one per hardware thread).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self.exact = false;
        self
    }

    /// Runs on exactly `workers` workers (at least one, at most one per
    /// state), never clamped to the hardware — so tests exercise the
    /// multi-worker driver even on single-core machines.
    #[doc(hidden)]
    pub fn with_exact_workers(mut self, workers: usize) -> Self {
        self.threads = workers.max(1);
        self.exact = true;
        self
    }

    /// The worker count the batch runs on.
    pub(crate) fn workers(&self) -> usize {
        if self.exact {
            self.threads
        } else {
            resolve_threads(self.threads)
        }
    }

    /// Selects the value-iteration kernel ([`Kernel::Fused`] by default;
    /// [`Kernel::Reference`] is the retained oracle for differential
    /// benchmarking — both produce bitwise-identical results).
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Adds a maximizing (worst-case) query for time bound `t`.
    pub fn query(self, t: f64) -> Self {
        self.query_with(t, Objective::Maximize)
    }

    /// Adds a query with an explicit objective.
    ///
    /// The time bound is validated at [`ReachBatch::run`] time (like the
    /// epsilon), so building a batch from untrusted input never panics —
    /// a bad bound surfaces as [`ReachError::InvalidTimeBound`].
    pub fn query_with(mut self, t: f64, objective: Objective) -> Self {
        self.queries.push(ReachQuery { t, objective });
        self
    }

    /// The queries accumulated so far.
    pub fn queries(&self) -> &[ReachQuery] {
        &self.queries
    }

    /// Runs all queries, sharing the layout and weight vectors.
    ///
    /// Every returned [`ReachResult`]'s values are bitwise equal to those
    /// of the sequential engine on that query alone.
    ///
    /// On the fused kernel, two or more queries with `t > 0` run as lanes
    /// of one step loop over a goal-folded copy of the model, at most
    /// [`LANES`] at a time: the model is streamed once per step for every
    /// active query, and goal states cost one slot. Each lane performs
    /// its query's scalar arithmetic, so no bit changes.
    ///
    /// # Errors
    ///
    /// See [`crate::reachability::timed_reachability`].
    pub fn run(&self) -> Result<BatchResult, ReachError> {
        let pre_start = Instant::now(); // det-lint: allow(clock): runtime telemetry only.
        let pre_span = unicon_obs::span("precompute");
        let rate = uniform_rate(self.ctmdp, &self.goal)?;
        let mut slot = None;
        let plan = self.plan(rate, &mut slot);
        drop(pre_span);
        let precompute_time = pre_start.elapsed();
        self.run_inner(rate, plan, &mut WeightCache::new(), precompute_time)
    }

    /// Runs all queries against an externally owned [`ReachEngine`] and
    /// weight cache: the engine's state layout is reused (not rebuilt),
    /// and the cache persists across calls — the amortization path of a
    /// long-running query service, where one model answers many batches.
    ///
    /// Results are bitwise identical to [`ReachBatch::run`].
    ///
    /// # Errors
    ///
    /// Everything [`ReachBatch::run`] returns, plus
    /// [`ReachError::GoalLengthMismatch`] when the engine was built for a
    /// different state count or goal than this batch's.
    pub fn run_with_engine(
        &self,
        engine: &ReachEngine,
        cache: &mut WeightCache,
    ) -> Result<BatchResult, ReachError> {
        engine.check_compatible(self.ctmdp, &self.goal)?;
        let plan = if self.laned(engine.rate) {
            Plan::Lanes
        } else {
            Plan::Each(engine.layout(self.kernel, self.ctmdp))
        };
        self.run_inner(engine.rate, plan, cache, Duration::ZERO)
    }

    /// How [`ReachBatch::run`] sweeps the queries. Only a fused batch
    /// that runs them one by one compiles the state layout, into `slot`:
    /// a laned batch folds its own layout, and the reference kernel reads
    /// the model.
    fn plan<'s>(&'s self, rate: f64, slot: &'s mut Option<FusedGroups>) -> Plan<'s> {
        if self.laned(rate) {
            Plan::Lanes
        } else {
            Plan::Each(Layout::states(self.kernel, self.ctmdp, &self.goal, slot))
        }
    }

    /// Whether the queries run as lanes: two or more with `t > 0`, on
    /// the fused kernel, at a nonzero rate (at rate 0 every answer is the
    /// indicator and nothing is swept).
    fn laned(&self, rate: f64) -> bool {
        rate != 0.0
            && self.kernel == Kernel::Fused
            && self.queries.iter().filter(|q| q.t != 0.0).count() >= 2
    }

    /// Checks every query before the first sweep, so that a bad one fails
    /// the batch before any work, whichever path would have run it.
    pub(crate) fn check(&self, rate: f64) -> Result<(), ReachError> {
        self.queries
            .iter()
            .try_for_each(|q| check_query(rate, q.t, self.epsilon))
    }

    /// The shared driver behind [`ReachBatch::run`] and
    /// [`ReachBatch::run_with_engine`]: the layout `plan` sweeps may be
    /// freshly built or a long-lived engine's, `cache` a per-run or
    /// cross-run weight table — neither choice affects any result bit.
    fn run_inner(
        &self,
        rate: f64,
        plan: Plan<'_>,
        cache: &mut WeightCache,
        precompute_time: Duration,
    ) -> Result<BatchResult, ReachError> {
        self.check(rate)?;
        let threads = self.workers();
        // The cache may be shared across many runs (a serve session);
        // stats and counter events report this run's contribution only.
        let (hits0, misses0) = (cache.hits(), cache.misses());
        // One pair of planes for the whole batch: the first query or lane
        // group sizes it, every later one runs allocation-free.
        let mut planes = Planes::default();
        let pass = match plan {
            Plan::Lanes => self.run_lanes(rate, cache, threads, &mut planes)?,
            Plan::Each(layout) => self.run_each(layout, rate, cache, threads, &mut planes)?,
        };

        let query_stats: Vec<QueryStats> = self
            .queries
            .iter()
            .zip(&pass.results)
            .map(|(q, r)| QueryStats {
                t: q.t,
                objective: q.objective,
                iterations: r.iterations,
                wall: r.runtime,
                checksum: chunked_stable_sum(&r.values, CHECKSUM_BLOCK),
            })
            .collect();
        // det-lint: allow(float-sum): step counts, integers.
        let total_iterations = pass.results.iter().map(|r| r.iterations).sum();

        unicon_obs::emit(unicon_obs::Class::Metric, || unicon_obs::Event::Counter {
            name: "weight_cache_hits",
            value: (cache.hits() - hits0) as u64,
        });
        unicon_obs::emit(unicon_obs::Class::Metric, || unicon_obs::Event::Counter {
            name: "weight_cache_misses",
            value: (cache.misses() - misses0) as u64,
        });

        let n = self.ctmdp.num_states();
        let kernel_ns_per_state = if total_iterations == 0 || n == 0 {
            0.0
        } else {
            pass.iterate_time.as_nanos() as f64 / (total_iterations as f64 * n as f64)
        };
        unicon_obs::emit(unicon_obs::Class::Metric, || unicon_obs::Event::Gauge {
            name: "reach_kernel_ns_per_state",
            value: kernel_ns_per_state,
        });

        Ok(BatchResult {
            results: pass.results,
            stats: BatchStats {
                threads_requested: self.threads,
                threads_effective: threads,
                precompute_time: precompute_time + pass.fold_time,
                weights_time: pass.weights_time,
                iterate_time: pass.iterate_time,
                cache_hits: cache.hits() - hits0,
                cache_misses: cache.misses() - misses0,
                total_iterations,
                sweeps: pass.sweeps,
                kernel: self.kernel,
                kernel_ns_per_state,
                buffer_allocs: planes.allocs,
                queries: query_stats,
            },
        })
    }

    /// Runs the queries one after another, each over the n states of
    /// `layout`.
    fn run_each(
        &self,
        layout: Layout<'_>,
        rate: f64,
        cache: &mut WeightCache,
        threads: usize,
        planes: &mut Planes,
    ) -> Result<Pass, ReachError> {
        let mut pass = Pass::default();
        for (qi, &query) in self.queries.iter().enumerate() {
            let answer = match no_jump(&self.goal, rate, query.t) {
                Some(answer) => answer,
                None => {
                    let _query_span = unicon_obs::span("query");
                    let w_start = Instant::now(); // det-lint: allow(clock): runtime telemetry only.
                    let weights_span = unicon_obs::span("weights");
                    let weights = cache.try_get(rate, query.t, self.epsilon)?;
                    drop(weights_span);
                    pass.weights_time += w_start.elapsed();
                    let run = StateRun {
                        layout,
                        goal: &self.goal,
                        rate,
                        query,
                        epsilon: self.epsilon,
                        weights,
                        qi,
                    };
                    run.plain(false, threads, planes)
                }
            };
            pass.iterate_time += answer.runtime;
            pass.sweeps += answer.iterations;
            pass.results.push(answer);
        }
        Ok(pass)
    }

    /// Runs the queries with `t > 0` as lanes of one step loop over the
    /// goal-folded layout, at most [`LANES`] per pass. Lanes are sorted
    /// by iteration count, descending, ties in batch order, so a lane
    /// joins at its own first step and the lanes a step advances are a
    /// prefix; until it joins, a lane is never written and reads the
    /// zeros its planes start with, the scalar engine's `q_{k+1} = 0`.
    /// Queries with `t = 0` get the indicator and no lane.
    ///
    /// Several workers split the lanes, one worker per part: see
    /// [`lane_parts`].
    fn run_lanes(
        &self,
        rate: f64,
        cache: &mut WeightCache,
        workers: usize,
        planes: &mut Planes,
    ) -> Result<Pass, ReachError> {
        let _query_span = unicon_obs::span("query");
        let mut pass = Pass::default();
        let fold_start = Instant::now(); // det-lint: allow(clock): runtime telemetry only.
        let fold_span = unicon_obs::span("fold");
        let folded = Folded::new(self.ctmdp, &self.goal);
        drop(fold_span);
        pass.fold_time = fold_start.elapsed();

        let mut results: Vec<Option<ReachResult>> = self
            .queries
            .iter()
            .map(|q| no_jump(&self.goal, rate, q.t))
            .collect();
        let w_start = Instant::now(); // det-lint: allow(clock): runtime telemetry only.
        let weights_span = unicon_obs::span("weights");
        let weights: Vec<(usize, CachedWeights)> = results
            .iter()
            .zip(&self.queries)
            .enumerate()
            .filter(|(_, (answer, _))| answer.is_none())
            .map(|(qi, (_, q))| -> Result<_, ReachError> {
                Ok((qi, cache.try_get(rate, q.t, self.epsilon)?.clone()))
            })
            .collect::<Result<_, _>>()?;
        drop(weights_span);
        pass.weights_time = w_start.elapsed();
        let mut lanes: Vec<Lane<'_>> = weights
            .iter()
            .map(|(qi, w)| {
                let lane = Lane {
                    fg: &w.fg,
                    k: w.truncation,
                    qi: *qi,
                };
                lane.announce(self.queries[*qi].t, self.epsilon);
                lane
            })
            .collect();
        lanes.sort_by_key(|l| Reverse(l.k));

        let parts = lane_parts(&lanes, workers);
        let slots = folded.groups.num_groups();
        let lens: Vec<usize> = parts
            .iter()
            .map(|lanes| slots * lanes.len().min(LANES))
            .collect();
        let pairs = planes.split(&lens);
        let part = Part {
            batch: self,
            rate,
            folded: &folded,
        };
        // Telemetry collection and request ids are thread-local: while
        // iteration telemetry is live, the parts run on this thread.
        let side_by_side = parts.len() > 1 && !unicon_obs::live(unicon_obs::Class::Iter);
        let mut runs = parts.iter().zip(pairs);
        let start = Instant::now(); // det-lint: allow(clock): runtime telemetry only.
        let answers: Vec<Answers> = if side_by_side {
            std::thread::scope(|scope| {
                let part = &part;
                let (lanes, pair) = runs.next().expect("at least one part");
                let others: Vec<_> = runs
                    .map(|(lanes, pair)| scope.spawn(move || part.run(lanes, pair)))
                    .collect();
                let mut answers = vec![part.run(lanes, pair)];
                for h in others {
                    answers.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
                }
                answers
            })
        } else {
            runs.map(|(lanes, pair)| part.run(lanes, pair)).collect()
        };
        pass.iterate_time = start.elapsed();

        // One run of the model per lane group, so one wall each. Folded
        // sweeps are not timed per state class.
        let timed = unicon_obs::live(unicon_obs::Class::Metric);
        for answers in answers {
            pass.sweeps += answers.sweeps;
            if timed {
                answers.walls.into_iter().for_each(observe_wall);
            }
            for (qi, r) in answers.results {
                results[qi] = Some(r);
            }
        }
        pass.results = results
            .into_iter()
            .map(|r| r.expect("every query with t > 0 ran as a lane"))
            .collect();
        Ok(pass)
    }
}

/// Splits the lanes of a laned batch, `k` descending, into at most
/// `workers` parts, each part's lanes still `k` descending. Each part runs
/// on one worker, so a batch uses at most one worker per lane.
///
/// Lanes share no data, so parts run side by side with no barrier and no
/// shared plane between them. That scales where splitting a step's slots
/// does not: the folded planes are so small that two workers sweeping
/// halves of one spend most of a step on the barrier and on reading
/// slots the other just wrote. A part costs `max k + Σ k` — a sweep of
/// the layout per step plus a lane's work per step — and each lane goes
/// to the part it raises least.
fn lane_parts<'a>(lanes: &[Lane<'a>], workers: usize) -> Vec<Vec<Lane<'a>>> {
    let cost = |lanes: &[Lane<'_>], k: usize| {
        // det-lint: allow(float-sum): step counts, integers.
        lanes.first().map_or(k, |l| l.k) + lanes.iter().map(|l| l.k).sum::<usize>() + k
    };
    let mut parts: Vec<Vec<Lane<'a>>> = vec![Vec::new(); workers.clamp(1, lanes.len().max(1))];
    for &lane in lanes {
        let best = (0..parts.len())
            .min_by_key(|&p| cost(&parts[p], lane.k))
            .expect("at least one part");
        parts[best].push(lane);
    }
    parts
}

/// What every part of a laned batch shares.
struct Part<'a, 'b> {
    batch: &'a ReachBatch<'b>,
    rate: f64,
    folded: &'a Folded,
}

/// One part's answers, sweep count and wall time per lane group.
struct Answers {
    results: Vec<(usize, ReachResult)>,
    sweeps: usize,
    walls: Vec<Duration>,
}

impl Part<'_, '_> {
    /// Runs `lanes` on one worker over `pair`, [`LANES`] at a time.
    fn run(&self, lanes: &[Lane<'_>], pair: Pair<'_>) -> Answers {
        let batch = self.batch;
        let mut answers = Answers {
            results: Vec::with_capacity(lanes.len()),
            sweeps: 0,
            walls: Vec::new(),
        };
        for group in lanes.chunks(LANES) {
            let start = Instant::now(); // det-lint: allow(clock): runtime telemetry only.
            let maximize: Vec<bool> = group
                .iter()
                .map(|l| batch.queries[l.qi].objective == Objective::Maximize)
                .collect();
            let sweep = Sweep {
                layout: Layout::Folded(self.folded),
                maximize: &maximize,
                timed: false,
            };
            let steps = Steps {
                lanes: group,
                from: group[0].k,
                checks: Checks::default(),
            };
            let pair = pair.zeroed(self.folded.groups.num_groups() * group.len());
            drive(&sweep, &steps, 1, pair, &mut Plain)
                .expect("an unguarded run has no hook that fails");
            let runtime = start.elapsed();
            answers.sweeps += steps.from;
            answers.walls.push(runtime);
            for (l, lane) in group.iter().enumerate() {
                let q1 = self.folded.expand(pair.q(1), group.len(), l);
                answers.results.push((
                    lane.qi,
                    ReachResult {
                        values: finalize_values(&batch.goal, q1),
                        iterations: lane.k,
                        uniform_rate: self.rate,
                        runtime,
                        decisions: Vec::new(),
                    },
                ));
            }
        }
        answers
    }
}

/// What a batch's iteration produced, however its queries ran.
#[derive(Default)]
struct Pass {
    /// One answer per query, in query order.
    results: Vec<ReachResult>,
    fold_time: Duration,
    weights_time: Duration,
    iterate_time: Duration,
    sweeps: usize,
}

/// How a batch sweeps its queries.
enum Plan<'a> {
    /// As lanes of the goal-folded layout, which the batch folds itself.
    Lanes,
    /// One by one, over the states of this layout.
    Each(Layout<'a>),
}

/// A re-entrant query engine over one `(model, goal)` pair.
///
/// The uniform rate and the fused state layout every query sweeps are
/// built **once** at construction and only ever read afterwards, so a
/// `&ReachEngine` can answer queries from many threads concurrently
/// without locking.
/// This is the amortization core of a long-running reachability service:
/// the model is prepared one time, after which every `(t, objective,
/// epsilon)` query touches only immutable shared state plus its own
/// iterate buffers.
///
/// # Determinism contract
///
/// Every query's arithmetic is confined to that query (snapshot reads,
/// disjoint writes, fixed-block checksums), so the same query returns
/// bitwise-identical values whether issued serially, interleaved with
/// other queries, or at any worker-thread count: the sequential engine's.
///
/// The engine does not borrow the model; calls pass `&Ctmdp` so the
/// engine can live next to an owned model inside a registry entry. It is
/// a contract violation to pass a different model than the one the
/// engine was built from; the cheap structural guards ([`ReachError`]s)
/// catch size mismatches, not content swaps.
#[derive(Debug, Clone)]
pub struct ReachEngine {
    goal: Vec<bool>,
    num_states: usize,
    num_transitions: usize,
    /// The uniform exit rate `E`.
    rate: f64,
    /// The state layout: one group per state, one row per emanating
    /// transition referencing its rate function's interned row, the goal
    /// mass as the row bias, and each state's class precomputed.
    states: FusedGroups,
    planes: PlanePool,
}

/// The value planes an engine keeps between queries: one pair, so a warm
/// query allocates none and the engine's resident size stays fixed. A
/// query that finds the pair taken by a concurrent one uses fresh planes
/// and drops them afterwards.
#[derive(Debug, Default)]
struct PlanePool {
    spare: Mutex<Option<Planes>>,
    /// Plane allocations of every query the engine ran.
    allocs: AtomicUsize,
}

impl Clone for PlanePool {
    /// A cloned engine starts with no planes: they are scratch, not model
    /// state.
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl ReachEngine {
    /// Checks the model and compiles the state layout of `(ctmdp, goal)`.
    ///
    /// # Errors
    ///
    /// [`ReachError::GoalLengthMismatch`] or [`ReachError::NotUniform`]
    /// under the conditions of
    /// [`crate::reachability::timed_reachability`].
    pub fn new(ctmdp: &Ctmdp, goal: &[bool]) -> Result<Self, ReachError> {
        let rate = uniform_rate(ctmdp, goal)?;
        Ok(Self {
            goal: goal.to_vec(),
            num_states: ctmdp.num_states(),
            num_transitions: ctmdp.num_transitions(),
            rate,
            states: fuse(ctmdp, goal, None),
            planes: PlanePool::default(),
        })
    }

    /// The layout a one-lane run of `kernel` sweeps: the engine's state
    /// layout, or the model itself.
    pub(crate) fn layout<'a>(&'a self, kernel: Kernel, ctmdp: &'a Ctmdp) -> Layout<'a> {
        match kernel {
            Kernel::Reference => Layout::Reference(ctmdp, &self.goal),
            Kernel::Fused => Layout::States(&self.states),
        }
    }

    /// Runs `f` on the engine's spare pair of planes, or on a fresh pair
    /// when a concurrent query holds it, and keeps one pair afterwards.
    pub(crate) fn with_planes<T>(&self, f: impl FnOnce(&mut Planes) -> T) -> T {
        let mut planes = lock(&self.planes.spare).take().unwrap_or_default();
        let allocs = planes.allocs;
        let out = f(&mut planes);
        self.planes
            .allocs
            .fetch_add(planes.allocs - allocs, Ordering::Relaxed);
        lock(&self.planes.spare).get_or_insert(planes);
        out
    }

    /// How many times the engine's queries had to allocate a value plane:
    /// none for a warm query, two for one that ran beside another.
    #[must_use]
    pub fn buffer_allocs(&self) -> usize {
        self.planes.allocs.load(Ordering::Relaxed)
    }

    /// The uniform exit rate `E` of the model the engine was built from.
    #[must_use]
    pub fn uniform_rate(&self) -> f64 {
        self.rate
    }

    /// The goal vector the engine answers queries against.
    #[must_use]
    pub fn goal(&self) -> &[bool] {
        &self.goal
    }

    /// Heap bytes the engine keeps resident between queries: the goal
    /// vector, the fused state layout (the rows of the rate functions
    /// that non-goal states use, each stored once) and the spare pair of
    /// value planes, counted from construction on. The model itself is
    /// not counted: the engine reads it but does not hold it. Model
    /// caches charge this against their budget.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.goal.len() * std::mem::size_of::<bool>()
            + self.states.memory_bytes()
            + 2 * self.num_states * std::mem::size_of::<AtomicU64>()
    }

    /// Structural guard: the model and goal a caller supplies must match
    /// the ones the engine was built from.
    pub(crate) fn check_compatible(&self, ctmdp: &Ctmdp, goal: &[bool]) -> Result<(), ReachError> {
        if ctmdp.num_states() != self.num_states
            || ctmdp.num_transitions() != self.num_transitions
            || goal != self.goal
        {
            return Err(ReachError::GoalLengthMismatch {
                goal_len: goal.len(),
                num_states: self.num_states,
            });
        }
        Ok(())
    }

    /// Answers one query, computing the Fox–Glynn weights in place (no
    /// cache). Bitwise identical to the sequential engine.
    ///
    /// # Errors
    ///
    /// [`ReachError::InvalidTimeBound`], [`ReachError::InvalidEpsilon`] or
    /// [`ReachError::FoxGlynn`] on bad parameters (ε below the floor
    /// [`FoxGlynn::min_certifiable_epsilon`] included),
    /// [`ReachError::GoalLengthMismatch`] when `ctmdp` is not the model
    /// the engine was built from.
    pub fn query(
        &self,
        ctmdp: &Ctmdp,
        t: f64,
        objective: Objective,
        epsilon: f64,
        threads: usize,
    ) -> Result<ReachResult, ReachError> {
        self.answer(ctmdp, ReachQuery { t, objective }, epsilon, None, threads)
    }

    /// Answers one query from pre-fetched Fox–Glynn weights — the
    /// cache-warm fast path of a query service, where `weights` comes
    /// from a [`WeightCache`] shared across sessions. A cache hit is
    /// bitwise indistinguishable from recomputation, so this returns the
    /// exact bits [`ReachEngine::query`] returns.
    ///
    /// # Errors
    ///
    /// See [`ReachEngine::query`]. The caller must have fetched
    /// `weights` for `(self.uniform_rate(), t, epsilon)`; the cheap
    /// guards here cannot detect a wrong-key vector.
    pub fn query_with_weights(
        &self,
        ctmdp: &Ctmdp,
        t: f64,
        objective: Objective,
        epsilon: f64,
        weights: &CachedWeights,
        threads: usize,
    ) -> Result<ReachResult, ReachError> {
        let query = ReachQuery { t, objective };
        self.answer(ctmdp, query, epsilon, Some(weights), threads)
    }

    /// Checks one query against the engine and answers it: at once when
    /// no jump can happen, else by a sweep of the state layout with
    /// `weights`, or with weights computed here.
    fn answer(
        &self,
        ctmdp: &Ctmdp,
        query: ReachQuery,
        epsilon: f64,
        weights: Option<&CachedWeights>,
        threads: usize,
    ) -> Result<ReachResult, ReachError> {
        check_query(self.rate, query.t, epsilon)?;
        self.check_compatible(ctmdp, &self.goal)?;
        if let Some(answer) = no_jump(&self.goal, self.rate, query.t) {
            return Ok(answer);
        }
        let computed;
        let weights = match weights {
            Some(weights) => weights,
            None => {
                computed = FoxGlynn::try_weights(self.rate * query.t, epsilon)?;
                &computed
            }
        };
        let run = StateRun {
            layout: Layout::States(&self.states),
            goal: &self.goal,
            rate: self.rate,
            query,
            epsilon,
            weights,
            qi: 0,
        };
        Ok(self.with_planes(|planes| run.plain(false, resolve_threads(threads), planes)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CtmdpBuilder;
    use crate::reachability::timed_reachability;

    fn chain() -> Ctmdp {
        let mut b = CtmdpBuilder::new(3, 0);
        b.transition(0, "a", &[(1, 1.0), (0, 1.0)]);
        b.transition(1, "a", &[(2, 2.0)]);
        b.transition(2, "a", &[(2, 2.0)]);
        b.build()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn parallel_matches_sequential_bitwise_on_chain() {
        let m = chain();
        let goal = [false, false, true];
        let opts = ReachOptions::default().with_epsilon(1e-10);
        let seq = timed_reachability(&m, &goal, 2.5, &opts).unwrap();
        for threads in [1, 2, 3, 8] {
            let par = timed_reachability_workers(&m, &goal, 2.5, &opts, threads).unwrap();
            assert_eq!(bits(&par.values), bits(&seq.values), "threads {threads}");
            assert_eq!(par.iterations, seq.iterations);
        }
    }

    #[test]
    fn parallel_records_identical_decisions() {
        let mut b = CtmdpBuilder::new(3, 0);
        b.transition(0, "to_goal", &[(1, 2.0)]);
        b.transition(0, "away", &[(2, 2.0)]);
        b.transition(1, "s", &[(1, 2.0)]);
        b.transition(2, "s", &[(2, 2.0)]);
        let m = b.build();
        let goal = [false, true, false];
        let opts = ReachOptions::default().recording_decisions();
        let seq = timed_reachability(&m, &goal, 1.0, &opts).unwrap();
        let par = timed_reachability_workers(&m, &goal, 1.0, &opts, 2).unwrap();
        assert_eq!(seq.decisions, par.decisions);
        assert_eq!(bits(&seq.values), bits(&par.values));
    }

    #[test]
    fn zero_time_and_zero_rate_shortcuts() {
        let m = chain();
        let goal = [false, false, true];
        let r = timed_reachability_workers(&m, &goal, 0.0, &ReachOptions::default(), 4).unwrap();
        assert_eq!(r.values, vec![0.0, 0.0, 1.0]);
        let empty = CtmdpBuilder::new(2, 0).build();
        let r =
            timed_reachability_workers(&empty, &[false, true], 3.0, &ReachOptions::default(), 4)
                .unwrap();
        assert_eq!(r.values, vec![0.0, 1.0]);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn parallel_rejects_bad_epsilon_and_non_uniform() {
        let m = chain();
        let goal = [false, false, true];
        assert!(matches!(
            timed_reachability_workers(
                &m,
                &goal,
                1.0,
                &ReachOptions::default().with_epsilon(0.0),
                2
            ),
            Err(ReachError::InvalidEpsilon { .. })
        ));
        let mut b = CtmdpBuilder::new(2, 0);
        b.transition(0, "a", &[(1, 1.0)]);
        b.transition(1, "a", &[(0, 3.0)]);
        assert!(matches!(
            timed_reachability_workers(
                &b.build(),
                &[false, true],
                1.0,
                &ReachOptions::default(),
                2
            ),
            Err(ReachError::NotUniform(_))
        ));
    }

    #[test]
    fn batch_equals_single_queries_and_counts_cache() {
        let m = chain();
        let goal = [false, false, true];
        let eps = 1e-8;
        let batch = ReachBatch::new(&m, &goal)
            .with_epsilon(eps)
            .query(0.5)
            .query(2.0)
            .query_with(2.0, Objective::Minimize) // same t: cache hit
            .query(0.0);
        let out = batch.run().unwrap();
        assert_eq!(out.results.len(), 4);
        let opts = ReachOptions::default().with_epsilon(eps);
        for (i, q) in [
            (0, (0.5, Objective::Maximize)),
            (1, (2.0, Objective::Maximize)),
            (2, (2.0, Objective::Minimize)),
            (3, (0.0, Objective::Maximize)),
        ] {
            let single = timed_reachability(&m, &goal, q.0, &opts.with_objective(q.1)).unwrap();
            assert_eq!(
                bits(&out.results[i].values),
                bits(&single.values),
                "query {i}"
            );
            assert_eq!(out.results[i].iterations, single.iterations);
        }
        // 0.5 and 2.0 miss; the repeated 2.0 hits; t = 0 bypasses weights.
        assert_eq!(out.stats.cache_misses, 2);
        assert_eq!(out.stats.cache_hits, 1);
        assert_eq!(out.stats.queries.len(), 4);
        assert_eq!(
            out.stats.total_iterations,
            out.results.iter().map(|r| r.iterations).sum::<usize>()
        );
    }

    #[test]
    fn batch_checksums_are_thread_invariant() {
        let m = chain();
        let goal = [false, false, true];
        let run = |threads| {
            ReachBatch::new(&m, &goal)
                .with_epsilon(1e-9)
                .with_threads(threads)
                .query(1.0)
                .query(3.0)
                .run()
                .unwrap()
        };
        let a = run(1);
        let b = run(2);
        let c = run(8);
        for i in 0..2 {
            assert_eq!(
                a.stats.queries[i].checksum.to_bits(),
                b.stats.queries[i].checksum.to_bits()
            );
            assert_eq!(
                a.stats.queries[i].checksum.to_bits(),
                c.stats.queries[i].checksum.to_bits()
            );
        }
        assert_eq!(b.stats.threads_effective, resolve_threads(2));
    }

    /// The PR-6 clamp made `BatchStats` silently record the *effective*
    /// thread count under the requested one's name (BENCH_reach.json's
    /// `threads4` block said `"threads":1` on 1-CPU hardware). Both
    /// numbers are now first-class: the request verbatim, the resolution
    /// separately.
    #[test]
    fn batch_reports_requested_and_effective_threads() {
        let m = chain();
        let goal = [false, false, true];
        let out = ReachBatch::new(&m, &goal)
            .with_threads(4)
            .query(1.0)
            .run()
            .unwrap();
        assert_eq!(out.stats.threads_requested, 4);
        assert_eq!(out.stats.threads_effective, resolve_threads(4));
        // auto (0) stays visible as the literal request
        let auto = ReachBatch::new(&m, &goal)
            .with_threads(0)
            .query(1.0)
            .run()
            .unwrap();
        assert_eq!(auto.stats.threads_requested, 0);
        assert_eq!(auto.stats.threads_effective, resolve_threads(0));
        // an oversubscribed request is never silently rewritten
        let big = ReachBatch::new(&m, &goal)
            .with_threads(9999)
            .query(1.0)
            .run()
            .unwrap();
        assert_eq!(big.stats.threads_requested, 9999);
        assert!(big.stats.threads_effective <= 9999);
    }

    #[test]
    fn engine_queries_match_batch_bitwise() {
        let m = chain();
        let goal = [false, false, true];
        let eps = 1e-9;
        let engine = ReachEngine::new(&m, &goal).unwrap();
        let opts = ReachOptions::default().with_epsilon(eps);
        for t in [0.0, 0.5, 2.0, 7.0] {
            let single = timed_reachability(&m, &goal, t, &opts).unwrap();
            for threads in [1, 2, 8] {
                let r = engine
                    .query(&m, t, Objective::Maximize, eps, threads)
                    .unwrap();
                assert_eq!(bits(&r.values), bits(&single.values), "t {t}");
                assert_eq!(r.iterations, single.iterations);
            }
        }
    }

    #[test]
    fn engine_weights_path_matches_uncached_path() {
        let m = chain();
        let goal = [false, false, true];
        let eps = 1e-8;
        let engine = ReachEngine::new(&m, &goal).unwrap();
        let mut cache = WeightCache::new();
        for t in [1.0, 3.0, 1.0] {
            let w = cache.get(engine.uniform_rate(), t, eps).clone();
            let warm = engine
                .query_with_weights(&m, t, Objective::Minimize, eps, &w, 2)
                .unwrap();
            let cold = engine.query(&m, t, Objective::Minimize, eps, 2).unwrap();
            assert_eq!(bits(&warm.values), bits(&cold.values), "t {t}");
        }
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    /// `&ReachEngine` is shared across threads: concurrent queries read
    /// the one state layout and still return the serial bits.
    #[test]
    fn engine_is_reentrant_across_threads() {
        let m = chain();
        let goal = [false, false, true];
        let eps = 1e-9;
        let engine = ReachEngine::new(&m, &goal).unwrap();
        let serial: Vec<Vec<u64>> = (1..=6)
            .map(|i| {
                let r = engine
                    .query(&m, f64::from(i) * 0.5, Objective::Maximize, eps, 1)
                    .unwrap();
                bits(&r.values)
            })
            .collect();
        let concurrent: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (1..=6)
                .map(|i| {
                    let (engine, m) = (&engine, &m);
                    scope.spawn(move || {
                        let r = engine
                            .query(m, f64::from(i) * 0.5, Objective::Maximize, eps, 2)
                            .unwrap();
                        bits(&r.values)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(serial, concurrent);
    }

    #[test]
    fn run_with_engine_shares_cache_and_matches_run() {
        let m = chain();
        let goal = [false, false, true];
        let engine = ReachEngine::new(&m, &goal).unwrap();
        let mut cache = WeightCache::new();
        let batch = ReachBatch::new(&m, &goal)
            .with_epsilon(1e-8)
            .query(1.0)
            .query(2.0);
        let plain = batch.run().unwrap();
        let first = batch.run_with_engine(&engine, &mut cache).unwrap();
        let second = batch.run_with_engine(&engine, &mut cache).unwrap();
        for (a, b) in plain.results.iter().zip(&first.results) {
            assert_eq!(bits(&a.values), bits(&b.values));
        }
        for (a, b) in first.results.iter().zip(&second.results) {
            assert_eq!(bits(&a.values), bits(&b.values));
        }
        // the cache persisted: the second run answers both bounds warm,
        // and per-run stats report deltas, not lifetime totals
        assert_eq!((first.stats.cache_hits, first.stats.cache_misses), (0, 2));
        assert_eq!((second.stats.cache_hits, second.stats.cache_misses), (2, 0));
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
    }

    #[test]
    fn engine_rejects_mismatched_model_or_goal() {
        let m = chain();
        let goal = [false, false, true];
        let engine = ReachEngine::new(&m, &goal).unwrap();
        let mut other = CtmdpBuilder::new(2, 0);
        other.transition(0, "a", &[(1, 1.0)]);
        other.transition(1, "a", &[(1, 1.0)]);
        let other = other.build();
        assert!(matches!(
            engine.query(&other, 1.0, Objective::Maximize, 1e-6, 1),
            Err(ReachError::GoalLengthMismatch { .. })
        ));
        let batch = ReachBatch::new(&m, &[true, false, true]).query(1.0);
        let mut cache = WeightCache::new();
        assert!(matches!(
            batch.run_with_engine(&engine, &mut cache),
            Err(ReachError::GoalLengthMismatch { .. })
        ));
    }

    #[test]
    fn batch_validates_epsilon_before_running() {
        let m = chain();
        let goal = [false, false, true];
        let err = ReachBatch::new(&m, &goal)
            .with_epsilon(-0.5)
            .query(1.0)
            .run()
            .unwrap_err();
        assert!(matches!(err, ReachError::InvalidEpsilon { epsilon } if epsilon == -0.5));
    }

    #[test]
    fn batch_validates_time_bounds_at_run_time() {
        let m = chain();
        let goal = [false, false, true];
        // building with a bad bound must not panic...
        let batch = ReachBatch::new(&m, &goal).query(f64::NAN).query(1.0);
        // ...the error surfaces from run()
        let err = batch.run().unwrap_err();
        assert!(matches!(err, ReachError::InvalidTimeBound { t } if t.is_nan()));
        let err = ReachBatch::new(&m, &goal).query(-2.0).run().unwrap_err();
        assert!(matches!(err, ReachError::InvalidTimeBound { t } if t == -2.0));
    }

    /// A time bound past the weight cap fails the batch before its first
    /// sweep, one query after another on the reference kernel and the
    /// guarded engine as in the lanes of the fused kernel: no query
    /// starts.
    #[test]
    fn batch_checks_every_weight_cap_before_the_first_sweep() {
        use crate::guard::{GuardError, GuardOptions};
        use unicon_numeric::FoxGlynnError::InvalidLambda;

        let m = chain();
        let goal = [false, false, true];
        let no_query_starts = |events: &[unicon_obs::Event]| {
            !events
                .iter()
                .any(|e| matches!(e, unicon_obs::Event::QueryStart { .. }))
        };
        for kernel in [Kernel::Reference, Kernel::Fused] {
            let batch = ReachBatch::new(&m, &goal)
                .with_kernel(kernel)
                .query(10.0)
                .query(1e308);
            let (res, events) = unicon_obs::collect(|| batch.run());
            assert!(
                matches!(res, Err(ReachError::FoxGlynn(InvalidLambda { .. }))),
                "{kernel:?}: {res:?}"
            );
            assert!(no_query_starts(&events), "{kernel:?}");
            let (res, events) = unicon_obs::collect(|| batch.run_guarded(&GuardOptions::default()));
            assert!(
                matches!(res, Err(GuardError::FoxGlynn(InvalidLambda { .. }))),
                "guarded {kernel:?}: {res:?}"
            );
            assert!(no_query_starts(&events), "guarded {kernel:?}");
        }
    }

    /// A run compiles only the layout it sweeps: a laned batch folds its
    /// own and the reference kernel reads the model, so neither builds
    /// the state layout; a fused batch of one bound does.
    #[test]
    fn a_batch_compiles_only_the_layout_it_sweeps() {
        let m = chain();
        let goal = [false, false, true];
        let two = ReachBatch::new(&m, &goal).query(1.0).query(2.0);
        for (batch, states) in [
            (two.clone(), false),
            (two.with_kernel(Kernel::Reference), false),
            (ReachBatch::new(&m, &goal).query(1.0), true),
        ] {
            let mut slot = None;
            let plan = batch.plan(2.0, &mut slot);
            let laned = matches!(plan, Plan::Lanes);
            assert_eq!(
                laned,
                batch.queries.len() == 2 && batch.kernel == Kernel::Fused
            );
            assert_eq!(slot.is_some(), states, "{:?}", batch.kernel);
        }
        // At rate 0 every answer is the indicator: no lanes.
        assert!(!ReachBatch::new(&m, &goal).query(1.0).query(2.0).laned(0.0));
    }

    #[test]
    fn lane_parts_balance_cost_and_keep_k_order() {
        let fg = FoxGlynn::new(1.0);
        let lanes = [(2352, 2), (1223, 1), (286, 0)].map(|(k, qi)| Lane { fg: &fg, k, qi });
        let shape = |workers| {
            lane_parts(&lanes, workers)
                .into_iter()
                .map(|lanes| lanes.iter().map(|l| l.qi).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        };
        assert_eq!(shape(1), vec![vec![2, 1, 0]]);
        // The longest lane alone costs more than the other two together.
        assert_eq!(shape(2), vec![vec![2], vec![1, 0]]);
        // One part per lane, and no spare worker joins a part.
        assert_eq!(shape(4), vec![vec![2], vec![1], vec![0]]);
    }

    #[test]
    fn resolve_threads_auto_is_positive_and_clamped() {
        let avail = std::thread::available_parallelism().map_or(1, usize::from);
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(0), avail);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(3), 3.min(avail));
        // An absurd request never exceeds the hardware.
        assert_eq!(resolve_threads(usize::MAX), avail);
    }
}
