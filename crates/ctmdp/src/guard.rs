//! Guarded execution layer for the timed-reachability engines.
//!
//! [`ReachBatch::run_guarded`] wraps the sequential and parallel value
//! iteration with four robustness facilities that the plain engines
//! deliberately do not carry:
//!
//! * **numeric health monitoring** — after every value-iteration step the
//!   fresh iterate is scanned for NaN, infinities and out-of-`[0, 1]`
//!   drift (beyond [`HEALTH_SLACK`]); a violation surfaces as a
//!   structured [`NumericHealthError`] naming the step and state;
//! * **budgets** — a [`RunBudget`] bounds the iteration count and the
//!   wall clock; exhaustion is not an abort: the run returns a
//!   [`GuardedRun`] whose [`PartialQuery`] brackets the in-flight query's
//!   true values with lower/upper bounds derived from the unprocessed
//!   Poisson mass;
//! * **checkpoint/resume** — a versioned binary checkpoint of the raw
//!   iterate, the step index and all completed answers is written
//!   atomically every K steps (and on budget stops), and
//!   [`ReachBatch::resume`] continues **bitwise identically**: the
//!   checkpoint stores exact `f64` bits and the Fox–Glynn weights are
//!   recomputed deterministically from the stored `(rate, t, ε)` regime.
//!   A checksum trailer (FNV-1a 64) makes truncation and bit rot a typed
//!   [`GuardError::CheckpointCorrupt`], never undefined behaviour;
//! * **panic containment** — every worker sweeps its share of a step
//!   under [`std::panic::catch_unwind`], and a panicking worker fails the
//!   run with a typed [`GuardError::WorkerPanicked`]. A sweep is
//!   deterministic, so replaying the step would panic again.
//!
//! Under the `fault-inject` cargo feature a deterministic, seeded
//! `FaultPlan` can flip a value to NaN at a chosen step, panic a chosen
//! worker, or truncate every checkpoint it writes — the CI gate drives
//! all three and asserts the typed outcomes above.
//!
//! # Determinism
//!
//! A guarded run's values are bitwise identical to the plain
//! [`ReachBatch::run`] for every thread count: both run the one driver,
//! [`crate::par`]'s `drive`, and the guard facilities are its hooks. The
//! budget, checkpoints and telemetry run on worker 0 between steps; the
//! panic catch, planned faults and the health scan run in every worker
//! on its own range before the step's barrier, and the lowest failing
//! worker's verdict wins — the verdict one worker scanning all states
//! would reach, so errors are the same for any worker count.

use std::any::Any;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use unicon_numeric::fnv::fnv1a64;
use unicon_numeric::{FoxGlynn, FoxGlynnError};
use unicon_sparse::{plane, Plane};

#[cfg(feature = "fault-inject")]
use unicon_numeric::rng::{Rng, XorShift64};

use crate::par::{Checks, Lane, Planes, ReachBatch, ReachEngine, StateRun, Supervisor};
use crate::reachability::{
    finalize_values, no_jump, uniform_rate, Layout, Objective, ReachError, ReachResult,
};

/// Tolerance of the out-of-range health check: iterates may drift this
/// far outside `[0, 1]` from benign rounding before the run is failed.
pub const HEALTH_SLACK: f64 = 1e-9;

/// What kind of numeric corruption the health monitor observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HealthKind {
    /// The value is NaN.
    NotANumber,
    /// The value is `+inf` or `-inf`.
    Infinite,
    /// The value lies outside `[0, 1]` by more than [`HEALTH_SLACK`].
    OutOfRange {
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for HealthKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthKind::NotANumber => write!(f, "value is NaN"),
            HealthKind::Infinite => write!(f, "value is infinite"),
            HealthKind::OutOfRange { value } => {
                write!(f, "value {value:e} lies outside [0, 1] beyond tolerance")
            }
        }
    }
}

/// A numeric-health violation detected during a guarded run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NumericHealthError {
    /// The 1-based value-iteration step at which the violation appeared.
    pub step: usize,
    /// The state whose value is corrupt.
    pub state: usize,
    /// What was wrong with it.
    pub kind: HealthKind,
}

impl std::fmt::Display for NumericHealthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "numeric health violation at step {}, state {}: {}",
            self.step, self.state, self.kind
        )
    }
}

impl std::error::Error for NumericHealthError {}

/// Why a guarded run stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// [`RunBudget::max_iterations`] was reached.
    MaxIterations,
    /// [`RunBudget::wall_deadline`] passed.
    DeadlineExpired,
}

impl StopReason {
    /// A short stable identifier (used by the CLI's JSON output).
    pub fn as_str(self) -> &'static str {
        match self {
            StopReason::MaxIterations => "max-iterations",
            StopReason::DeadlineExpired => "deadline",
        }
    }
}

/// Resource limits of a guarded run. All limits are optional; the
/// default budget is unlimited.
///
/// Budgets are per *run*: a resumed run starts its iteration count and
/// deadline afresh.
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    /// Stop after this many value-iteration steps (summed over queries).
    pub max_iterations: Option<usize>,
    /// Stop once the wall clock reaches this instant.
    pub wall_deadline: Option<Instant>,
}

impl RunBudget {
    /// Caps the total number of value-iteration steps.
    pub fn with_max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = Some(n);
        self
    }

    /// Sets an absolute wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.wall_deadline = Some(deadline);
        self
    }

    /// Sets a deadline `timeout` from now, or none when that instant lies
    /// past what an [`Instant`] can hold.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        // det-lint: allow(clock): deadlines are the budget feature's job.
        self.wall_deadline = Instant::now().checked_add(timeout);
        self
    }

    /// Checks the budget before a step; `Some` means "stop now".
    ///
    /// The iteration cap wins over the deadline, so concurrent exhaustion
    /// reports deterministically.
    pub fn exceeded(&self, iterations_done: usize) -> Option<StopReason> {
        if let Some(max) = self.max_iterations {
            if iterations_done >= max {
                return Some(StopReason::MaxIterations);
            }
        }
        if let Some(deadline) = self.wall_deadline {
            // det-lint: allow(clock): deadlines are the budget feature's job.
            if Instant::now() >= deadline {
                return Some(StopReason::DeadlineExpired);
            }
        }
        None
    }
}

/// Where and how often to write checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// The checkpoint file (written atomically: temp file + rename).
    pub path: PathBuf,
    /// Write every this many value-iteration steps (`0` is treated
    /// as `1`). A checkpoint is also written on budget stops and after
    /// each completed query.
    pub every: usize,
}

impl CheckpointConfig {
    /// A checkpoint at `path` every `every` steps.
    pub fn new(path: impl Into<PathBuf>, every: usize) -> Self {
        Self {
            path: path.into(),
            every,
        }
    }
}

/// A deterministic, seeded fault plan — only available with the
/// `fault-inject` cargo feature, so release builds carry no injection
/// sites with live triggers.
#[cfg(feature = "fault-inject")]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Overwrite `q[state]` with NaN right after step `step` computes.
    pub nan_at: Option<(usize, usize)>,
    /// Panic worker `worker` at the start of step `step`.
    pub panic_worker_at: Option<(usize, usize)>,
    /// Truncate this many bytes off the end of every checkpoint written.
    pub truncate_checkpoint_bytes: Option<u64>,
}

#[cfg(feature = "fault-inject")]
impl FaultPlan {
    /// Plans a NaN flip at a seed-chosen `(step, state)` with step in
    /// `1..=k` and state in `0..n`.
    pub fn nan(seed: u64, k: usize, n: usize) -> Self {
        let mut rng = XorShift64::seed_from_u64(seed);
        Self {
            nan_at: Some((1 + rng.random_range(k.max(1)), rng.random_range(n.max(1)))),
            ..Self::default()
        }
    }

    /// Plans a worker panic at a seed-chosen `(step, worker)` with step
    /// in `1..=k` and worker in `0..workers`.
    pub fn worker_panic(seed: u64, k: usize, workers: usize) -> Self {
        let mut rng = XorShift64::seed_from_u64(seed);
        Self {
            panic_worker_at: Some((
                1 + rng.random_range(k.max(1)),
                rng.random_range(workers.max(1)),
            )),
            ..Self::default()
        }
    }

    /// Plans checkpoint truncation by `bytes` trailing bytes.
    pub fn truncate(bytes: u64) -> Self {
        Self {
            truncate_checkpoint_bytes: Some(bytes),
            ..Self::default()
        }
    }
}

/// Options of a guarded run. The default is "no guards": unlimited
/// budget, no checkpointing.
#[derive(Debug, Clone, Default)]
pub struct GuardOptions {
    /// Iteration and wall-clock limits.
    pub budget: RunBudget,
    /// Periodic checkpointing, when configured.
    pub checkpoint: Option<CheckpointConfig>,
    /// Deterministic fault injection (testing only).
    #[cfg(feature = "fault-inject")]
    pub fault_plan: Option<FaultPlan>,
}

impl GuardOptions {
    /// Sets the budget.
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Enables checkpointing.
    pub fn with_checkpoint(mut self, config: CheckpointConfig) -> Self {
        self.checkpoint = Some(config);
        self
    }

    /// Arms a fault plan.
    #[cfg(feature = "fault-inject")]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

/// A noteworthy occurrence during a guarded run, in chronological order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuardEvent {
    /// A checkpoint was persisted (`step == 0` marks the end-of-query
    /// checkpoint, which has no in-progress iterate).
    CheckpointWritten {
        /// Query index covered by the checkpoint.
        query: usize,
        /// 1-based step the stored iterate corresponds to, 0 if none.
        step: usize,
    },
    /// The run was restored from a checkpoint.
    Resumed {
        /// Query index the run continues at.
        query: usize,
        /// 1-based step of the restored iterate, 0 when the checkpoint
        /// holds only completed queries.
        step: usize,
    },
}

impl std::fmt::Display for GuardEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuardEvent::CheckpointWritten { query, step } => {
                write!(f, "checkpoint written (query {query}, step {step})")
            }
            GuardEvent::Resumed { query, step } => {
                write!(f, "resumed from checkpoint (query {query}, step {step})")
            }
        }
    }
}

/// Structured error of the guarded engine.
#[derive(Debug)]
pub enum GuardError {
    /// A model/parameter error from the underlying engine.
    Reach(ReachError),
    /// The health monitor detected numeric corruption.
    Health(NumericHealthError),
    /// The Fox–Glynn weights cannot certify the requested precision
    /// (underflow) or the regime is invalid.
    FoxGlynn(FoxGlynnError),
    /// A worker panicked while sweeping its share of a step.
    WorkerPanicked {
        /// Query index being iterated.
        query: usize,
        /// 1-based step at which the panic happened.
        step: usize,
        /// Index of the panicking worker: the lowest, when several
        /// panicked in that step.
        worker: usize,
    },
    /// The checkpoint file failed structural or checksum validation.
    CheckpointCorrupt {
        /// The offending file.
        path: PathBuf,
        /// What exactly failed.
        reason: String,
    },
    /// The checkpoint is intact but belongs to a different batch
    /// (model size, precision, rate or query list differ).
    CheckpointMismatch {
        /// Which field disagreed.
        reason: String,
    },
    /// Reading or writing a checkpoint failed at the filesystem level.
    Io {
        /// The path being accessed.
        path: PathBuf,
        /// The OS error message.
        message: String,
    },
}

impl std::fmt::Display for GuardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuardError::Reach(e) => e.fmt(f),
            GuardError::Health(e) => e.fmt(f),
            GuardError::FoxGlynn(e) => e.fmt(f),
            GuardError::WorkerPanicked {
                query,
                step,
                worker,
            } => write!(
                f,
                "worker {worker} panicked at step {step} of query {query}"
            ),
            GuardError::CheckpointCorrupt { path, reason } => {
                write!(f, "checkpoint {} is corrupt: {reason}", path.display())
            }
            GuardError::CheckpointMismatch { reason } => {
                write!(f, "checkpoint does not match this batch: {reason}")
            }
            GuardError::Io { path, message } => {
                write!(f, "i/o error on {}: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for GuardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GuardError::Reach(e) => Some(e),
            GuardError::Health(e) => Some(e),
            GuardError::FoxGlynn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ReachError> for GuardError {
    /// A Fox–Glynn failure is a [`GuardError::FoxGlynn`], whichever check
    /// found it.
    fn from(e: ReachError) -> Self {
        match e {
            ReachError::FoxGlynn(e) => GuardError::FoxGlynn(e),
            e => GuardError::Reach(e),
        }
    }
}

impl From<NumericHealthError> for GuardError {
    fn from(e: NumericHealthError) -> Self {
        GuardError::Health(e)
    }
}

impl From<FoxGlynnError> for GuardError {
    fn from(e: FoxGlynnError) -> Self {
        GuardError::FoxGlynn(e)
    }
}

/// Bounds on the query that was in flight when the budget ran out.
///
/// `lower` is the value of the truncated iteration — a lower bound on
/// the true values up to the truncation precision ε and rounding (the
/// truncated iterate only counts hit events that still fit the executed
/// suffix of Poisson weights). `upper` adds the maximal Poisson mass of
/// any window as long as the unprocessed step range, plus ε, clamped to
/// 1, so `lower[s] <= value[s] <= upper[s]` brackets the answer the
/// completed run would have produced.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialQuery {
    /// Index of the interrupted query.
    pub query: usize,
    /// Its time bound.
    pub t: f64,
    /// Value-iteration steps already executed (including steps executed
    /// by earlier runs when resuming from a checkpoint).
    pub completed_steps: usize,
    /// Total steps `k(ε, E, t)` the query needs.
    pub total_steps: usize,
    /// Per-state lower bounds.
    pub lower: Vec<f64>,
    /// Per-state upper bounds.
    pub upper: Vec<f64>,
}

/// The outcome of a guarded run.
#[derive(Debug, Clone)]
pub struct GuardedRun {
    /// Completed answers, in query order — each bitwise equal to the
    /// plain [`ReachBatch::run`] result for that query.
    pub results: Vec<ReachResult>,
    /// `Some` when a budget stopped the run: the reason, plus bounds on
    /// the interrupted query (`None` only if no query was in flight).
    pub stopped: Option<(StopReason, Option<PartialQuery>)>,
    /// Checkpoints and resumes, in order.
    pub events: Vec<GuardEvent>,
    /// Number of per-step health checks performed.
    pub health_checks: usize,
}

impl GuardedRun {
    /// `true` when every query completed (no budget stop).
    pub fn is_complete(&self) -> bool {
        self.stopped.is_none()
    }
}

// ---------------------------------------------------------------------
// Health monitoring
// ---------------------------------------------------------------------

/// Scans the states `range` of a fresh iterate for numeric corruption,
/// reporting the first bad state. Every value then lies in
/// `[-slack, 1 + slack]`, which also bounds every checksum of the plane.
pub(crate) fn check_health(
    q: &Plane,
    range: Range<usize>,
    step: usize,
) -> Result<(), NumericHealthError> {
    for state in range {
        let v = plane::get(q, state);
        let kind = if v.is_nan() {
            HealthKind::NotANumber
        } else if v.is_infinite() {
            HealthKind::Infinite
        } else if !(-HEALTH_SLACK..=1.0 + HEALTH_SLACK).contains(&v) {
            HealthKind::OutOfRange { value: v }
        } else {
            continue;
        };
        return Err(NumericHealthError { step, state, kind });
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Checkpoint format (version 1)
//
// All integers little-endian, all f64 stored as raw bits (bitwise-exact
// resume is the whole point):
//
//   magic[8] | version u32 | n u64 | epsilon bits u64 | rate bits u64
//   | nqueries u64 | nqueries x (t bits u64, objective u8)
//   | ncompleted u64 | ncompleted x (iterations u64, n x value bits u64)
//   | has_in_progress u8
//   | [query u64 | k u64 | current_i u64 | n x q bits u64]   (if 1)
//   | fnv1a-64 of everything above, u64
//
// The stored iterate is q_{current_i} (the vector after step current_i
// completed); resuming executes steps current_i - 1 down to 1.
// ---------------------------------------------------------------------

/// File magic of version-1 checkpoints.
const CK_MAGIC: [u8; 8] = *b"UNICKPT\0";
/// Current checkpoint format version.
const CK_VERSION: u32 = 1;

fn objective_byte(objective: Objective) -> u8 {
    match objective {
        Objective::Maximize => 0,
        Objective::Minimize => 1,
    }
}

/// A completed query's answer as stored in a checkpoint.
#[derive(Debug, Clone, PartialEq)]
struct CompletedQuery {
    iterations: usize,
    values: Vec<f64>,
}

/// The interrupted query's raw state as stored in a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct InProgress {
    /// Index of the interrupted query (always `completed.len()`).
    query: usize,
    /// Its total step count `k(ε, E, t)`.
    k: usize,
    /// The stored iterate is `q_{current_i}`; in `1..=k + 1`.
    current_i: usize,
    /// Raw (unclamped) iterate bits.
    q: Vec<f64>,
}

/// The full decoded content of a checkpoint file.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CheckpointData {
    n: usize,
    epsilon_bits: u64,
    rate_bits: u64,
    /// `(t bits, objective byte)` per query, in batch order.
    queries: Vec<(u64, u8)>,
    completed: Vec<CompletedQuery>,
    in_progress: Option<InProgress>,
}

/// Bounds-checked little-endian cursor over a checkpoint body.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| format!("file ends {} bytes short", len))?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn len64(&mut self, what: &str) -> Result<usize, String> {
        usize::try_from(self.u64()?).map_err(|_| format!("{what} does not fit in usize"))
    }

    /// Reads `n` f64 bit patterns; bounds are checked before allocating.
    fn f64_vec(&mut self, n: usize) -> Result<Vec<f64>, String> {
        let raw = self.take(n.checked_mul(8).ok_or("value vector length overflows")?)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
            .collect())
    }
}

fn io_error(path: &Path, e: std::io::Error) -> GuardError {
    GuardError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

impl CheckpointData {
    fn push_u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&CK_MAGIC);
        out.extend_from_slice(&CK_VERSION.to_le_bytes());
        Self::push_u64(&mut out, self.n as u64);
        Self::push_u64(&mut out, self.epsilon_bits);
        Self::push_u64(&mut out, self.rate_bits);
        Self::push_u64(&mut out, self.queries.len() as u64);
        for &(t_bits, objective) in &self.queries {
            Self::push_u64(&mut out, t_bits);
            out.push(objective);
        }
        Self::push_u64(&mut out, self.completed.len() as u64);
        for done in &self.completed {
            Self::push_u64(&mut out, done.iterations as u64);
            for v in &done.values {
                Self::push_u64(&mut out, v.to_bits());
            }
        }
        match &self.in_progress {
            None => out.push(0),
            Some(ip) => {
                out.push(1);
                Self::push_u64(&mut out, ip.query as u64);
                Self::push_u64(&mut out, ip.k as u64);
                Self::push_u64(&mut out, ip.current_i as u64);
                for v in &ip.q {
                    Self::push_u64(&mut out, v.to_bits());
                }
            }
        }
        let trailer = fnv1a64(&out);
        out.extend_from_slice(&trailer.to_le_bytes());
        out
    }

    /// Decodes and fully validates a checkpoint image; the `Err` string
    /// is the corruption reason.
    fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let min = CK_MAGIC.len() + 4 + 8; // header + trailer
        if bytes.len() < min {
            return Err(format!(
                "file is {} bytes, shorter than the {min}-byte minimum (truncated?)",
                bytes.len()
            ));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().unwrap());
        let actual = fnv1a64(body);
        if stored != actual {
            return Err(format!(
                "checksum trailer mismatch: stored {stored:#018x}, computed {actual:#018x} \
                 (truncated or bit-rotted file)"
            ));
        }
        let mut r = Reader {
            bytes: body,
            pos: 0,
        };
        if r.take(CK_MAGIC.len())? != CK_MAGIC {
            return Err("bad magic: not a unicon checkpoint".into());
        }
        let version = r.u32()?;
        if version != CK_VERSION {
            return Err(format!(
                "unsupported checkpoint version {version} (this build reads {CK_VERSION})"
            ));
        }
        let n = r.len64("state count")?;
        let epsilon_bits = r.u64()?;
        let rate_bits = r.u64()?;
        let nqueries = r.len64("query count")?;
        // every query costs 9 bytes; reject absurd counts before allocating
        if nqueries.checked_mul(9).is_none_or(|b| b > body.len()) {
            return Err(format!("query count {nqueries} exceeds the file size"));
        }
        let mut queries = Vec::with_capacity(nqueries);
        for _ in 0..nqueries {
            let t_bits = r.u64()?;
            let objective = r.u8()?;
            if objective > 1 {
                return Err(format!("objective byte {objective} is neither 0 nor 1"));
            }
            queries.push((t_bits, objective));
        }
        let ncompleted = r.len64("completed count")?;
        if ncompleted > nqueries {
            return Err(format!(
                "{ncompleted} completed queries recorded but only {nqueries} queries exist"
            ));
        }
        let mut completed = Vec::with_capacity(ncompleted);
        for _ in 0..ncompleted {
            let iterations = r.len64("iteration count")?;
            let values = r.f64_vec(n)?;
            completed.push(CompletedQuery { iterations, values });
        }
        let in_progress = match r.u8()? {
            0 => None,
            1 => {
                let query = r.len64("in-progress query index")?;
                let k = r.len64("in-progress step total")?;
                let current_i = r.len64("in-progress step index")?;
                let q = r.f64_vec(n)?;
                if query != completed.len() {
                    return Err(format!(
                        "in-progress query index {query} does not follow the \
                         {} completed queries",
                        completed.len()
                    ));
                }
                if query >= nqueries {
                    return Err(format!(
                        "in-progress query index {query} out of range for {nqueries} queries"
                    ));
                }
                // `k` comes from the file: `k + 1` may overflow.
                if current_i == 0 || current_i - 1 > k {
                    return Err(format!(
                        "in-progress step index {current_i} outside 1..={}",
                        k as u128 + 1
                    ));
                }
                Some(InProgress {
                    query,
                    k,
                    current_i,
                    q,
                })
            }
            other => {
                return Err(format!(
                    "in-progress marker byte {other} is neither 0 nor 1"
                ))
            }
        };
        if r.pos != body.len() {
            return Err(format!(
                "{} trailing bytes after the in-progress section",
                body.len() - r.pos
            ));
        }
        Ok(Self {
            n,
            epsilon_bits,
            rate_bits,
            queries,
            completed,
            in_progress,
        })
    }

    /// Writes atomically: temp file in the same directory, then rename.
    fn write_atomic(&self, path: &Path) -> Result<(), GuardError> {
        let bytes = self.to_bytes();
        let mut tmp_name = path.as_os_str().to_owned();
        tmp_name.push(".tmp");
        let tmp = PathBuf::from(tmp_name);
        std::fs::write(&tmp, &bytes).map_err(|e| io_error(&tmp, e))?;
        std::fs::rename(&tmp, path).map_err(|e| io_error(path, e))?;
        Ok(())
    }

    fn read(path: &Path) -> Result<Self, GuardError> {
        let bytes = std::fs::read(path).map_err(|e| io_error(path, e))?;
        Self::from_bytes(&bytes).map_err(|reason| GuardError::CheckpointCorrupt {
            path: path.to_path_buf(),
            reason,
        })
    }

    /// Rejects checkpoints taken from a different batch. Comparisons are
    /// bitwise: resuming under a perturbed epsilon, rate or query list
    /// would silently break the determinism contract.
    fn validate_against(&self, batch: &ReachBatch<'_>, rate: f64) -> Result<(), GuardError> {
        let mismatch = |reason: String| Err(GuardError::CheckpointMismatch { reason });
        if self.n != batch.ctmdp.num_states() {
            return mismatch(format!(
                "checkpoint covers {} states, the batch model has {}",
                self.n,
                batch.ctmdp.num_states()
            ));
        }
        if self.epsilon_bits != batch.epsilon.to_bits() {
            return mismatch(format!(
                "checkpoint epsilon {:e} differs from batch epsilon {:e}",
                f64::from_bits(self.epsilon_bits),
                batch.epsilon
            ));
        }
        if self.rate_bits != rate.to_bits() {
            return mismatch(format!(
                "checkpoint uniform rate {:e} differs from the model's {:e}",
                f64::from_bits(self.rate_bits),
                rate
            ));
        }
        if self.queries.len() != batch.queries.len() {
            return mismatch(format!(
                "checkpoint lists {} queries, the batch has {}",
                self.queries.len(),
                batch.queries.len()
            ));
        }
        for (i, (&(t_bits, objective), q)) in self.queries.iter().zip(&batch.queries).enumerate() {
            if t_bits != q.t.to_bits() || objective != objective_byte(q.objective) {
                return mismatch(format!(
                    "query {i} differs: checkpoint (t = {:e}, objective byte {objective}), \
                     batch (t = {:e}, objective byte {})",
                    f64::from_bits(t_bits),
                    q.t,
                    objective_byte(q.objective)
                ));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The guarded engine
// ---------------------------------------------------------------------

/// Brackets the interrupted query `lane` of `batch` when stopping before
/// step `next_i` with `q_next` holding `q_{next_i + 1}`.
fn make_partial(
    batch: &ReachBatch<'_>,
    lane: Lane<'_>,
    next_i: usize,
    q_next: &Plane,
) -> PartialQuery {
    let Lane { fg, k, qi: query } = lane;
    let lower = finalize_values(&batch.goal, plane::values(q_next));
    // Soundness of the bracket: the truncated iterate counts exactly the
    // first-hit events "hit at the r-th jump AND at least next_i + r
    // Poisson jumps happen within t", so it undercounts the true value
    // (lower bound), and each event's deficit is the Poisson mass of the
    // length-next_i window starting at its jump index. First-hit events
    // are disjoint (their probabilities sum to <= 1), so the worst such
    // window (plus the truncation error ε) bounds the gap from above.
    let remaining = worst_window(fg, k, next_i).max(0.0) + batch.epsilon;
    let upper = lower.iter().map(|&v| (v + remaining).min(1.0)).collect();
    PartialQuery {
        query,
        t: batch.queries[query].t,
        completed_steps: k - next_i,
        total_steps: k,
        lower,
        upper,
    }
}

/// `max` over `r in 1..=k` of the Poisson mass `tail(r) − tail(r + len)`
/// of the length-`len` window starting at jump `r`, or 0, bit for bit,
/// in `O(√λ)` steps where `k` exceeds `λ`. `tail` reads exactly 1 up to
/// the first stored weight and exactly 0 past the last, so only windows
/// with an end among the weights are scanned. Any other window has mass
/// `+0.0`, or exactly 1 when it spans all the weights, and then so has
/// the scanned window starting at the first weight (`k` is never below
/// it).
fn worst_window(fg: &FoxGlynn, k: usize, len: usize) -> f64 {
    let (start, end) = (fg.window_start(), fg.window_end());
    let starts = |lo: usize, hi: usize| lo.max(1)..=hi.min(k);
    let ends_among_weights =
        starts(start, end).chain(starts(start.saturating_sub(len), end.saturating_sub(len)));
    let mut window = 0.0f64;
    for r in ends_among_weights {
        window = window.max(fg.tail_from(r) - fg.tail_from(r + len));
    }
    window
}

/// A guarded run in progress: its options, and the completed answers,
/// events and counters a checkpoint or the outcome reports.
struct Guarded<'a, 'b> {
    batch: &'a ReachBatch<'b>,
    rate: f64,
    guard: &'a GuardOptions,
    every: usize,
    results: Vec<ReachResult>,
    events: Vec<GuardEvent>,
    iterations_done: usize,
    steps_since_ck: usize,
    stopped: Option<(StopReason, PartialQuery)>,
}

impl Guarded<'_, '_> {
    /// Writes a checkpoint of the completed answers plus `in_progress`,
    /// records the event and (under `fault-inject`) applies the planned
    /// truncation.
    fn checkpoint(
        &mut self,
        in_progress: Option<InProgress>,
        query: usize,
        step: usize,
    ) -> Result<(), GuardError> {
        let Some(cfg) = &self.guard.checkpoint else {
            return Ok(());
        };
        let batch = self.batch;
        let data = CheckpointData {
            n: batch.ctmdp.num_states(),
            epsilon_bits: batch.epsilon.to_bits(),
            rate_bits: self.rate.to_bits(),
            queries: batch
                .queries
                .iter()
                .map(|q| (q.t.to_bits(), objective_byte(q.objective)))
                .collect(),
            completed: self
                .results
                .iter()
                .map(|r| CompletedQuery {
                    iterations: r.iterations,
                    values: r.values.clone(),
                })
                .collect(),
            in_progress,
        };
        data.write_atomic(&cfg.path)?;
        self.events
            .push(GuardEvent::CheckpointWritten { query, step });
        unicon_obs::emit(unicon_obs::Class::Guard, || unicon_obs::Event::Guard {
            kind: "checkpoint",
            query,
            step,
            detail: cfg.path.display().to_string(),
        });
        #[cfg(feature = "fault-inject")]
        apply_truncate_fault(self.guard, &cfg.path)?;
        Ok(())
    }

    fn finish(self) -> GuardedRun {
        GuardedRun {
            results: self.results,
            stopped: self
                .stopped
                .map(|(reason, partial)| (reason, Some(partial))),
            events: self.events,
            health_checks: self.iterations_done,
        }
    }
}

/// Applies the planned checkpoint truncation, if armed.
#[cfg(feature = "fault-inject")]
fn apply_truncate_fault(guard: &GuardOptions, path: &Path) -> Result<(), GuardError> {
    if let Some(bytes) = guard
        .fault_plan
        .as_ref()
        .and_then(|p| p.truncate_checkpoint_bytes)
    {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_error(path, e))?;
        let len = file.metadata().map_err(|e| io_error(path, e))?.len();
        file.set_len(len.saturating_sub(bytes))
            .map_err(|e| io_error(path, e))?;
    }
    Ok(())
}

/// Worker 0's hooks for the query in flight, `lane`, whose run starts at
/// step `from`: step counting and periodic checkpoints after each step,
/// the budget before the next, and the typed error of a worker panic.
struct InFlight<'r, 'a, 'b> {
    run: &'r mut Guarded<'a, 'b>,
    lane: Lane<'r>,
    from: usize,
}

impl InFlight<'_, '_, '_> {
    fn checkpoint(&mut self, i: usize, q: &Plane) -> Result<(), GuardError> {
        let lane = self.lane;
        let in_progress = InProgress {
            query: lane.qi,
            k: lane.k,
            current_i: i,
            q: plane::to_vec(q),
        };
        self.run.checkpoint(Some(in_progress), lane.qi, i)
    }
}

impl Supervisor for InFlight<'_, '_, '_> {
    fn proceed(&mut self, i: usize, q: &Plane) -> Result<bool, GuardError> {
        let guard = self.run.guard;
        if i <= self.from {
            self.run.iterations_done += 1;
            self.run.steps_since_ck += 1;
            if guard.checkpoint.is_some() && self.run.steps_since_ck >= self.run.every {
                self.run.steps_since_ck = 0;
                self.checkpoint(i, q)?;
            }
        }
        if i == 1 {
            return Ok(true);
        }
        let Some(reason) = guard.budget.exceeded(self.run.iterations_done) else {
            return Ok(true);
        };
        unicon_obs::emit(unicon_obs::Class::Guard, || unicon_obs::Event::Guard {
            kind: "budget-exhausted",
            query: self.lane.qi,
            step: i - 1,
            detail: reason.as_str().to_string(),
        });
        self.run.stopped = Some((reason, make_partial(self.run.batch, self.lane, i - 1, q)));
        if guard.checkpoint.is_some() {
            self.checkpoint(i, q)?;
        }
        Ok(false)
    }

    fn panicked(&mut self, i: usize, worker: usize, _: Box<dyn Any + Send>) -> GuardError {
        GuardError::WorkerPanicked {
            query: self.lane.qi,
            step: i,
            worker,
        }
    }
}

/// The shared driver behind [`ReachBatch::run_guarded`],
/// [`ReachBatch::run_guarded_with_engine`] and [`ReachBatch::resume`]:
/// runs the queries of `batch` after those `resume` completed, each over
/// the states of `layout` — a fresh one or a long-lived engine's, which
/// affects no result bit.
fn run_guarded_inner(
    batch: &ReachBatch<'_>,
    guard: &GuardOptions,
    resume: Option<CheckpointData>,
    rate: f64,
    layout: Layout<'_>,
    planes: &mut Planes,
) -> Result<GuardedRun, GuardError> {
    batch.check(rate)?;
    let n = batch.ctmdp.num_states();
    let workers = batch.workers();
    let mut run = Guarded {
        batch,
        rate,
        guard,
        every: guard.checkpoint.as_ref().map_or(1, |c| c.every.max(1)),
        results: Vec::new(),
        events: Vec::new(),
        iterations_done: 0,
        steps_since_ck: 0,
        stopped: None,
    };
    let mut in_progress: Option<InProgress> = None;
    if let Some(ck) = resume {
        ck.validate_against(batch, rate)?;
        for done in ck.completed {
            run.results.push(ReachResult {
                values: done.values,
                iterations: done.iterations,
                uniform_rate: rate,
                runtime: Duration::ZERO,
                decisions: Vec::new(),
            });
        }
        in_progress = ck.in_progress;
        let (query, step) = match &in_progress {
            Some(ip) => (ip.query, ip.current_i),
            None => (run.results.len(), 0),
        };
        run.events.push(GuardEvent::Resumed { query, step });
        unicon_obs::emit(unicon_obs::Class::Guard, || unicon_obs::Event::Guard {
            kind: "resumed",
            query,
            step,
            detail: String::new(),
        });
    }
    // The fault plan's (panic_at, nan_at).
    #[cfg(feature = "fault-inject")]
    let (panic_at, nan_at) = guard
        .fault_plan
        .map_or((None, None), |p| (p.panic_worker_at, p.nan_at));
    #[cfg(not(feature = "fault-inject"))]
    let (panic_at, nan_at) = (None, None);
    let checks = Checks {
        record: false,
        health: true,
        panic_at,
        nan_at,
    };

    for qi in run.results.len()..batch.queries.len() {
        let query = batch.queries[qi];
        if let Some(answer) = no_jump(&batch.goal, rate, query.t) {
            run.results.push(answer);
            run.checkpoint(None, qi, 0)?;
            continue;
        }
        let weights = FoxGlynn::try_weights(rate * query.t, batch.epsilon)?;
        let k = weights.truncation;
        // q_{k+1} = 0, or the checkpoint's q_{current_i}, exact bits.
        let resumed = match in_progress.take() {
            None => None,
            Some(ip) if ip.k != k => {
                return Err(GuardError::CheckpointMismatch {
                    reason: format!(
                        "query {qi} needs {k} steps but the checkpoint recorded {} — \
                         the checkpoint was written by a different build",
                        ip.k
                    ),
                });
            }
            Some(ip) if ip.q.len() != n => {
                return Err(GuardError::CheckpointMismatch {
                    reason: format!("stored iterate has {} entries, expected {n}", ip.q.len()),
                });
            }
            Some(ip) => Some((ip.current_i - 1, ip.q)),
        };
        let query_run = StateRun {
            layout,
            goal: &batch.goal,
            rate,
            query,
            epsilon: batch.epsilon,
            weights: &weights,
            qi,
        };
        let resume = resumed.as_ref().map(|(from, q)| (*from, q.as_slice()));
        let mut sup = InFlight {
            run: &mut run,
            lane: query_run.lane(),
            from: resume.map_or(k, |(from, _)| from),
        };
        let answer = query_run.run(resume, checks, false, workers, planes, &mut sup)?;
        let Some(answer) = answer else {
            return Ok(run.finish());
        };
        run.results.push(answer);
        run.steps_since_ck = 0;
        run.checkpoint(None, qi, 0)?;
    }
    Ok(run.finish())
}

impl ReachBatch<'_> {
    /// Runs the batch under the guarded execution layer: numeric health
    /// checks after every step, budget checks before every step, optional
    /// periodic checkpoints and typed worker-panic errors.
    ///
    /// Completed results are bitwise identical to [`ReachBatch::run`]
    /// for every thread count.
    ///
    /// # Errors
    ///
    /// [`GuardError::Reach`] for invalid parameters or a non-uniform
    /// model, [`GuardError::FoxGlynn`] when ε is below the certifiable
    /// floor for `rate·t` or `rate·t` exceeds [`FoxGlynn::MAX_LAMBDA`],
    /// [`GuardError::Health`] on numeric corruption,
    /// [`GuardError::WorkerPanicked`] when a worker panics, and
    /// [`GuardError::Io`] if a checkpoint cannot be written. Budget
    /// exhaustion is **not** an error — see [`GuardedRun::stopped`].
    ///
    /// # Examples
    ///
    /// ```
    /// use unicon_ctmdp::guard::{GuardOptions, RunBudget};
    /// use unicon_ctmdp::{par::ReachBatch, CtmdpBuilder};
    ///
    /// let mut b = CtmdpBuilder::new(3, 0);
    /// b.transition(0, "a", &[(1, 1.0), (0, 1.0)]);
    /// b.transition(1, "a", &[(2, 2.0)]);
    /// b.transition(2, "a", &[(2, 2.0)]);
    /// let m = b.build();
    /// let batch = ReachBatch::new(&m, &[false, false, true]).query(2.0);
    ///
    /// let run = batch.run_guarded(&GuardOptions::default()).unwrap();
    /// assert!(run.is_complete());
    ///
    /// let tight = GuardOptions::default().with_budget(RunBudget::default().with_max_iterations(1));
    /// let partial = batch.run_guarded(&tight).unwrap();
    /// assert!(!partial.is_complete());
    /// ```
    pub fn run_guarded(&self, guard: &GuardOptions) -> Result<GuardedRun, GuardError> {
        self.guarded(guard, None)
    }

    /// Runs the batch under guard options while reusing the state layout
    /// held by a long-lived [`ReachEngine`] — the serve path, where one
    /// engine answers many budgeted requests without compiling the layout
    /// per request.
    ///
    /// The result is bitwise identical to [`ReachBatch::run_guarded`];
    /// sharing the layout affects no result bit.
    ///
    /// # Errors
    ///
    /// [`GuardError::Reach`] when the engine was built for a different
    /// model or goal set than this batch, plus every error
    /// [`ReachBatch::run_guarded`] can return.
    pub fn run_guarded_with_engine(
        &self,
        guard: &GuardOptions,
        engine: &ReachEngine,
    ) -> Result<GuardedRun, GuardError> {
        engine.check_compatible(self.ctmdp, &self.goal)?;
        let (rate, layout) = (
            engine.uniform_rate(),
            engine.layout(self.kernel, self.ctmdp),
        );
        engine.with_planes(|planes| run_guarded_inner(self, guard, None, rate, layout, planes))
    }

    /// Resumes a guarded run from a checkpoint written by an earlier
    /// [`ReachBatch::run_guarded`] against the **same** batch.
    ///
    /// The continuation is bitwise identical to an uninterrupted run:
    /// the checkpoint stores the exact iterate bits and the Poisson
    /// weights are recomputed deterministically from the stored regime.
    ///
    /// # Errors
    ///
    /// [`GuardError::CheckpointCorrupt`] when the file fails structural
    /// or checksum validation (including truncation),
    /// [`GuardError::CheckpointMismatch`] when it was taken from a
    /// different batch, plus every error [`ReachBatch::run_guarded`]
    /// can return.
    pub fn resume(
        &self,
        path: impl AsRef<Path>,
        guard: &GuardOptions,
    ) -> Result<GuardedRun, GuardError> {
        let data = CheckpointData::read(path.as_ref())?;
        self.guarded(guard, Some(data))
    }

    /// A guarded run on a layout of its own: the state layout, compiled
    /// only for the fused kernel.
    fn guarded(
        &self,
        guard: &GuardOptions,
        resume: Option<CheckpointData>,
    ) -> Result<GuardedRun, GuardError> {
        let rate = uniform_rate(self.ctmdp, &self.goal)?;
        let mut slot = None;
        let layout = Layout::states(self.kernel, self.ctmdp, &self.goal, &mut slot);
        run_guarded_inner(self, guard, resume, rate, layout, &mut Planes::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Ctmdp, CtmdpBuilder};

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

    fn temp_ck(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("unicon_guard_{}_{name}.ck", std::process::id()))
    }

    /// The scan of the windows with an end among the weights is the
    /// full scan of `1..=k`, bit for bit, for every window length.
    #[test]
    fn worst_window_scans_only_the_weights_and_matches_the_full_scan() {
        for (lambda, eps) in [(0.3, 1e-6), (7.5, 1e-9), (480.0, 1e-6), (9_000.0, 1e-12)] {
            let fg = FoxGlynn::new(lambda);
            let k = fg.right_truncation(eps);
            for len in [0, 1, 2, 7, k / 3, k.saturating_sub(1), k, k + 5] {
                let mut full = 0.0f64;
                for r in 1..=k {
                    full = full.max(fg.tail_from(r) - fg.tail_from(r + len));
                }
                assert_eq!(
                    worst_window(&fg, k, len).to_bits(),
                    full.to_bits(),
                    "lambda {lambda} k {k} len {len}"
                );
            }
        }
    }

    #[test]
    fn guarded_run_matches_plain_batch_bitwise() {
        let m = chain();
        let goal = [false, false, true];
        for threads in [1, 3] {
            let batch = ReachBatch::new(&m, &goal)
                .with_epsilon(1e-9)
                .with_threads(threads)
                .query(0.5)
                .query(2.5)
                .query_with(2.5, Objective::Minimize)
                .query(0.0);
            let plain = batch.run().unwrap();
            let guarded = batch.run_guarded(&GuardOptions::default()).unwrap();
            assert!(guarded.is_complete());
            assert_eq!(guarded.results.len(), plain.results.len());
            for (g, p) in guarded.results.iter().zip(&plain.results) {
                assert_eq!(bits(&g.values), bits(&p.values), "threads {threads}");
                assert_eq!(g.iterations, p.iterations);
            }
            assert!(guarded.events.is_empty());
            let steps: usize = plain.results.iter().map(|r| r.iterations).sum();
            assert_eq!(guarded.health_checks, steps);
        }
    }

    #[test]
    fn guarded_run_with_engine_matches_run_guarded_bitwise() {
        use crate::par::ReachEngine;

        let m = chain();
        let goal = [false, false, true];
        let engine = ReachEngine::new(&m, &goal).unwrap();
        let batch = ReachBatch::new(&m, &goal)
            .with_epsilon(1e-9)
            .query(0.5)
            .query(2.5)
            .query_with(2.5, Objective::Minimize);
        let fresh = batch.run_guarded(&GuardOptions::default()).unwrap();
        let shared = batch
            .run_guarded_with_engine(&GuardOptions::default(), &engine)
            .unwrap();
        assert!(shared.is_complete());
        assert_eq!(shared.results.len(), fresh.results.len());
        for (s, f) in shared.results.iter().zip(&fresh.results) {
            assert_eq!(bits(&s.values), bits(&f.values));
            assert_eq!(s.iterations, f.iterations);
        }

        // Budget exhaustion over a shared engine still yields the
        // partial-result shape (the serve admission-control path).
        let tight =
            GuardOptions::default().with_budget(RunBudget::default().with_max_iterations(1));
        let partial = batch.run_guarded_with_engine(&tight, &engine).unwrap();
        let (reason, pq) = partial.stopped.expect("budget must stop the run");
        assert_eq!(reason, StopReason::MaxIterations);
        assert_eq!(pq.unwrap().completed_steps, 1);

        // A mismatched engine is a typed error, not a wrong answer.
        let other_goal = [true, false, false];
        let other = ReachEngine::new(&m, &other_goal).unwrap();
        let err = batch
            .run_guarded_with_engine(&GuardOptions::default(), &other)
            .unwrap_err();
        assert!(matches!(err, GuardError::Reach(_)), "got {err:?}");
    }

    #[test]
    fn budget_stop_yields_partial_bracketing_the_true_values() {
        let m = chain();
        let goal = [false, false, true];
        let batch = ReachBatch::new(&m, &goal).with_epsilon(1e-9).query(2.5);
        let full = batch.run().unwrap();
        let k = full.results[0].iterations;
        assert!(k > 4, "need a multi-step query, got k = {k}");
        for max in [0, 1, k / 2, k - 1] {
            let guard =
                GuardOptions::default().with_budget(RunBudget::default().with_max_iterations(max));
            let run = batch.run_guarded(&guard).unwrap();
            let (reason, partial) = run.stopped.expect("budget must stop the run");
            assert_eq!(reason, StopReason::MaxIterations);
            let partial = partial.expect("a query was in flight");
            assert_eq!(partial.query, 0);
            assert_eq!(partial.completed_steps, max);
            assert_eq!(run.health_checks, max);
            assert_eq!(partial.total_steps, k);
            for s in 0..3 {
                let v = full.results[0].values[s];
                assert!(
                    partial.lower[s] <= v + 1e-9,
                    "max {max} state {s}: lower {} vs {v}",
                    partial.lower[s]
                );
                assert!(
                    partial.upper[s] >= v - 1e-9,
                    "max {max} state {s}: upper {} vs {v}",
                    partial.upper[s]
                );
                assert!((0.0..=1.0).contains(&partial.lower[s]));
                assert!((0.0..=1.0).contains(&partial.upper[s]));
            }
            assert!(run.results.is_empty());
        }
    }

    #[test]
    fn expired_deadline_stops_the_run() {
        let m = chain();
        let goal = [false, false, true];
        let guard =
            GuardOptions::default().with_budget(RunBudget::default().with_deadline(Instant::now()));
        let run = ReachBatch::new(&m, &goal)
            .query(2.5)
            .run_guarded(&guard)
            .unwrap();
        assert_eq!(run.stopped.unwrap().0, StopReason::DeadlineExpired);
    }

    #[test]
    fn checkpoint_resume_is_bitwise_identical() {
        let m = chain();
        let goal = [false, false, true];
        for threads in [1, 3] {
            let path = temp_ck(&format!("resume_t{threads}"));
            let batch = ReachBatch::new(&m, &goal)
                .with_epsilon(1e-9)
                .with_threads(threads)
                .query(1.0)
                .query(2.5);
            let reference = batch.run().unwrap();

            // Stop after 1 step, then after 4 more, then run to the end:
            // two resume hops across a query boundary-free region plus a
            // final unbounded hop.
            let ck = CheckpointConfig::new(&path, 2);
            let guard_stop1 = GuardOptions::default()
                .with_checkpoint(ck.clone())
                .with_budget(RunBudget::default().with_max_iterations(1));
            let first = batch.run_guarded(&guard_stop1).unwrap();
            assert!(!first.is_complete());

            let guard_stop2 = GuardOptions::default()
                .with_checkpoint(ck.clone())
                .with_budget(RunBudget::default().with_max_iterations(4));
            let second = batch.resume(&path, &guard_stop2).unwrap();
            assert!(!second.is_complete());
            assert!(matches!(
                second.events.first(),
                Some(GuardEvent::Resumed { .. })
            ));

            let final_run = batch
                .resume(&path, &GuardOptions::default().with_checkpoint(ck))
                .unwrap();
            assert!(final_run.is_complete(), "threads {threads}");
            assert_eq!(final_run.results.len(), reference.results.len());
            for (g, p) in final_run.results.iter().zip(&reference.results) {
                assert_eq!(bits(&g.values), bits(&p.values), "threads {threads}");
                assert_eq!(g.iterations, p.iterations);
            }
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn resume_of_a_completed_checkpoint_returns_the_results() {
        let m = chain();
        let goal = [false, false, true];
        let path = temp_ck("completed");
        let batch = ReachBatch::new(&m, &goal).query(1.0);
        let guard = GuardOptions::default().with_checkpoint(CheckpointConfig::new(&path, 8));
        let run = batch.run_guarded(&guard).unwrap();
        assert!(run.is_complete());
        let resumed = batch.resume(&path, &GuardOptions::default()).unwrap();
        assert!(resumed.is_complete());
        assert_eq!(
            bits(&resumed.results[0].values),
            bits(&run.results[0].values)
        );
        assert!(matches!(
            resumed.events.first(),
            Some(GuardEvent::Resumed { query: 1, step: 0 })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_checkpoint_reports_corrupt_not_ub() {
        let m = chain();
        let goal = [false, false, true];
        let path = temp_ck("truncated");
        let batch = ReachBatch::new(&m, &goal).query(2.5);
        let guard = GuardOptions::default()
            .with_checkpoint(CheckpointConfig::new(&path, 1))
            .with_budget(RunBudget::default().with_max_iterations(3));
        batch.run_guarded(&guard).unwrap();

        // chop bytes off the tail: the trailer no longer matches
        let full = std::fs::read(&path).unwrap();
        for cut in [1, 7, full.len() / 2] {
            std::fs::write(&path, &full[..full.len() - cut]).unwrap();
            let err = batch.resume(&path, &GuardOptions::default()).unwrap_err();
            assert!(
                matches!(err, GuardError::CheckpointCorrupt { .. }),
                "cut {cut}: {err}"
            );
        }
        // flip a byte in the middle: same detection
        let mut flipped = full.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            batch.resume(&path, &GuardOptions::default()),
            Err(GuardError::CheckpointCorrupt { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_from_a_different_batch_is_a_mismatch() {
        let m = chain();
        let goal = [false, false, true];
        let path = temp_ck("mismatch");
        let batch = ReachBatch::new(&m, &goal).with_epsilon(1e-6).query(2.5);
        let guard = GuardOptions::default()
            .with_checkpoint(CheckpointConfig::new(&path, 1))
            .with_budget(RunBudget::default().with_max_iterations(2));
        batch.run_guarded(&guard).unwrap();

        let other_eps = ReachBatch::new(&m, &goal).with_epsilon(1e-8).query(2.5);
        let err = other_eps
            .resume(&path, &GuardOptions::default())
            .unwrap_err();
        assert!(
            matches!(err, GuardError::CheckpointMismatch { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("epsilon"));

        let other_queries = ReachBatch::new(&m, &goal).with_epsilon(1e-6).query(3.0);
        let err = other_queries
            .resume(&path, &GuardOptions::default())
            .unwrap_err();
        assert!(
            matches!(err, GuardError::CheckpointMismatch { .. }),
            "{err}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_roundtrip_preserves_every_bit() {
        let data = CheckpointData {
            n: 3,
            epsilon_bits: 1e-9f64.to_bits(),
            rate_bits: 2.0f64.to_bits(),
            queries: vec![(1.0f64.to_bits(), 0), (2.5f64.to_bits(), 1)],
            completed: vec![CompletedQuery {
                iterations: 17,
                values: vec![0.25, 0.5, 1.0],
            }],
            in_progress: Some(InProgress {
                query: 1,
                k: 23,
                current_i: 9,
                q: vec![0.1, 0.2, 0.3],
            }),
        };
        let decoded = CheckpointData::from_bytes(&data.to_bytes()).unwrap();
        assert_eq!(decoded, data);
    }

    /// A step total of `u64::MAX` behind a valid trailer is decoded
    /// without overflow: the bound in the error is `k + 1` itself.
    #[test]
    fn checkpoint_with_the_largest_step_total_decodes_without_overflow() {
        let mut data = CheckpointData {
            n: 1,
            epsilon_bits: 1e-6f64.to_bits(),
            rate_bits: 2.0f64.to_bits(),
            queries: vec![(1.0f64.to_bits(), 0)],
            completed: Vec::new(),
            in_progress: Some(InProgress {
                query: 0,
                k: usize::MAX,
                current_i: 0,
                q: vec![0.5],
            }),
        };
        let err = CheckpointData::from_bytes(&data.to_bytes()).unwrap_err();
        assert_eq!(
            err,
            "in-progress step index 0 outside 1..=18446744073709551616"
        );
        if let Some(ip) = &mut data.in_progress {
            ip.current_i = usize::MAX;
        }
        let decoded = CheckpointData::from_bytes(&data.to_bytes()).unwrap();
        assert_eq!(decoded, data);
    }

    #[test]
    fn health_check_flags_each_corruption_kind() {
        let check_health = |q: &[f64], step| check_health(&plane::from_slice(q), 0..q.len(), step);
        assert!(check_health(&[0.0, 0.5, 1.0], 7).is_ok());
        // tolerated drift
        assert!(check_health(&[1.0 + HEALTH_SLACK / 2.0, -HEALTH_SLACK / 2.0], 7).is_ok());
        let err = check_health(&[0.0, f64::NAN, 1.0], 7).unwrap_err();
        assert_eq!(err.step, 7);
        assert_eq!(err.state, 1);
        assert_eq!(err.kind, HealthKind::NotANumber);
        let err = check_health(&[f64::INFINITY], 3).unwrap_err();
        assert_eq!(err.kind, HealthKind::Infinite);
        let err = check_health(&[0.0, 1.5], 2).unwrap_err();
        assert_eq!(err.state, 1);
        assert!(matches!(err.kind, HealthKind::OutOfRange { value } if value == 1.5));
        let err = check_health(&[-1e-3], 1).unwrap_err();
        assert!(matches!(err.kind, HealthKind::OutOfRange { .. }));
        assert!(err.to_string().contains("step 1"));
    }

    #[test]
    fn budget_precedence_is_iterations_then_deadline() {
        let budget = RunBudget::default()
            .with_max_iterations(0)
            .with_deadline(Instant::now());
        assert_eq!(budget.exceeded(0), Some(StopReason::MaxIterations));
        let budget = RunBudget::default().with_deadline(Instant::now());
        assert_eq!(budget.exceeded(0), Some(StopReason::DeadlineExpired));
        assert_eq!(RunBudget::default().exceeded(usize::MAX), None);
    }

    /// A timeout past what an `Instant` holds sets no deadline, rather
    /// than overflowing.
    #[test]
    fn a_timeout_past_the_clock_sets_no_deadline() {
        let budget = RunBudget::default().with_timeout(Duration::MAX);
        assert_eq!(budget.wall_deadline, None);
        assert_eq!(budget.exceeded(0), None);
        let soon = RunBudget::default().with_timeout(Duration::from_secs(60));
        assert!(soon.wall_deadline.is_some());
    }
}
