//! Algorithm 1: timed reachability in uniform CTMDPs
//! (Baier, Haverkort, Hermanns & Katoen, TCS 345, 2005).
//!
//! For a uniform CTMDP with rate `E`, the maximal probability to reach the
//! goal set `B` within `t` time units over all randomized time-abstract
//! history-dependent schedulers is computed by `k = k(ε, E, t)` backward
//! value-iteration steps — `k` is the Fox–Glynn right truncation point of
//! the Poisson(`E·t`) distribution, the iteration counts reported in the
//! paper's Table 1.
//!
//! Following the paper's variant, the maximization at each state ranges
//! over all emanating *transitions* (not merely all actions), because a
//! state may carry several transitions with the same label.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use unicon_numeric::sum::combine_chunk_sums;
use unicon_numeric::{stable_sum, FoxGlynn};
use unicon_sparse::{plane, ClassTiming, CsrMatrix, FusedBuilder, FusedGroups, Plane};

use crate::model::{Ctmdp, NotUniformError};

/// Structured error of the timed-reachability engines.
#[derive(Debug, Clone, PartialEq)]
pub enum ReachError {
    /// The CTMDP's exit rates differ — Algorithm 1 requires uniformity.
    NotUniform(NotUniformError),
    /// The requested truncation precision is outside `(0, 1)`.
    InvalidEpsilon {
        /// The offending value (may be non-finite).
        epsilon: f64,
    },
    /// The time bound is negative, NaN or infinite.
    InvalidTimeBound {
        /// The offending value.
        t: f64,
    },
    /// The goal vector's length disagrees with the model's state count.
    GoalLengthMismatch {
        /// Entries in the supplied goal vector.
        goal_len: usize,
        /// States of the analyzed CTMDP.
        num_states: usize,
    },
}

impl std::fmt::Display for ReachError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReachError::NotUniform(e) => e.fmt(f),
            ReachError::InvalidEpsilon { epsilon } => write!(
                f,
                "truncation precision epsilon must lie in (0, 1), got {epsilon}"
            ),
            ReachError::InvalidTimeBound { t } => {
                write!(f, "time bound must be finite and >= 0, got {t}")
            }
            ReachError::GoalLengthMismatch {
                goal_len,
                num_states,
            } => write!(
                f,
                "goal vector has {goal_len} entries but the CTMDP has {num_states} states"
            ),
        }
    }
}

impl std::error::Error for ReachError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReachError::NotUniform(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NotUniformError> for ReachError {
    fn from(e: NotUniformError) -> Self {
        ReachError::NotUniform(e)
    }
}

/// Validates a truncation precision, mirroring the Fox–Glynn contract.
pub(crate) fn validate_epsilon(epsilon: f64) -> Result<(), ReachError> {
    if epsilon > 0.0 && epsilon < 1.0 {
        Ok(())
    } else {
        Err(ReachError::InvalidEpsilon { epsilon })
    }
}

/// Validates a time bound: finite and nonnegative (NaN fails both tests).
pub(crate) fn validate_time(t: f64) -> Result<(), ReachError> {
    if t.is_finite() && t >= 0.0 {
        Ok(())
    } else {
        Err(ReachError::InvalidTimeBound { t })
    }
}

/// Validates that a goal vector covers the state space exactly.
pub(crate) fn validate_goal(goal: &[bool], ctmdp: &Ctmdp) -> Result<(), ReachError> {
    if goal.len() == ctmdp.num_states() {
        Ok(())
    } else {
        Err(ReachError::GoalLengthMismatch {
            goal_len: goal.len(),
            num_states: ctmdp.num_states(),
        })
    }
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// `sup_D Pr_D` — the worst case for safety goals.
    #[default]
    Maximize,
    /// `inf_D Pr_D`.
    Minimize,
}

/// Which implementation executes the per-state value-iteration sweep.
///
/// Both kernels compute **bitwise identical** results — the fused kernel
/// replays the reference kernel's exact f64 operation order over a
/// flattened layout — so this choice affects wall-clock time only. The
/// reference kernel is retained as the differential oracle (the same
/// pattern that keeps the worklist refiner honest against the reference
/// refiner), pinned by the `tests/kernel_differential.rs` suite and the
/// ci.sh `--kernel reference` vs `--kernel fused` cmp gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// The original two-level traversal: `transitions_from(s)` →
    /// `rate_fn` → shared CSR row in rate-function-pool order.
    Reference,
    /// The fused state-major structure-of-arrays layout compiled by
    /// [`Precompute`]: duplicated rows in sweep order, split
    /// target/weight arrays, inlined goal coefficients, precomputed
    /// state classes, cache-blocked sweep.
    #[default]
    Fused,
}

impl Kernel {
    /// The CLI/JSON spelling of the kernel name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Kernel::Reference => "reference",
            Kernel::Fused => "fused",
        }
    }
}

/// Options for [`timed_reachability`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReachOptions {
    /// Truncation precision ε (the paper uses 1e-6).
    pub epsilon: f64,
    /// Maximize or minimize over schedulers.
    pub objective: Objective,
    /// Record the optimizing decision of every step, enabling
    /// scheduler extraction. Memory is `O(k · |S|)` — keep an eye on it for
    /// long horizons.
    pub record_decisions: bool,
    /// Which sweep kernel to run (bitwise-identical results either way).
    pub kernel: Kernel,
}

impl Default for ReachOptions {
    fn default() -> Self {
        Self {
            epsilon: 1e-6,
            objective: Objective::Maximize,
            record_decisions: false,
            kernel: Kernel::default(),
        }
    }
}

impl ReachOptions {
    /// Sets the precision.
    ///
    /// The value is validated by the analyses, not here: running any
    /// engine with an epsilon outside `(0, 1)` (including NaN) returns
    /// [`ReachError::InvalidEpsilon`] instead of panicking, so option
    /// construction stays infallible and chainable.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the objective.
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Enables decision recording.
    pub fn recording_decisions(mut self) -> Self {
        self.record_decisions = true;
        self
    }

    /// Selects the sweep kernel.
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }
}

/// Result of Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
pub struct ReachResult {
    /// `values[s] = opt_D Pr_D(s ⤳≤t B)`.
    pub values: Vec<f64>,
    /// Number of value-iteration steps `k(ε, E, t)`.
    pub iterations: usize,
    /// The uniform rate `E`.
    pub uniform_rate: f64,
    /// Wall-clock time of the iteration itself. For a query of a laned
    /// [`crate::par::ReachBatch`] that is the wall time of its whole lane
    /// group, the same for every lane of the group.
    pub runtime: std::time::Duration,
    /// When requested: `decisions[i][s]` is the index (into
    /// `transitions_from(s)`) chosen at step `i+1` (1-based step `i+1`,
    /// i.e. `decisions[0]` is used for the first jump). Empty otherwise.
    pub decisions: Vec<Vec<u16>>,
}

impl ReachResult {
    /// The value from the model's initial state.
    pub fn from_state(&self, s: u32) -> f64 {
        self.values[s as usize]
    }
}

/// The query-independent precomputation shared by every engine: the
/// uniform rate, the branching probabilities of every rate function as a
/// CSR matrix (rate functions × states) and the one-step probability into
/// the goal set.
#[derive(Debug, Clone)]
pub(crate) struct Precompute {
    /// The uniform exit rate `E`.
    pub(crate) rate: f64,
    /// `probs[rf][s'] = R(s') / E_R`, rows in target order.
    pub(crate) probs: CsrMatrix,
    /// `prob_goal[rf] = R(B) / E_R`.
    pub(crate) prob_goal: Vec<f64>,
    /// The fused state-major kernel layout ([`Kernel::Fused`]): one group
    /// per state, one row per emanating transition referencing its rate
    /// function's interned probability row, the goal coefficient inlined
    /// as the row bias, and the goal/absorbing/single/multi class
    /// precomputed per state. The row values are copied bit-exactly from
    /// `probs`, in row order, so the fused kernel reproduces the
    /// reference kernel's sums bitwise. `None` in a precomputation built
    /// for a laned batch, which sweeps a [`Folded`] layout instead.
    pub(crate) fused: Option<FusedGroups>,
    /// Cross-thread per-[`unicon_sparse::GroupClass`] time attribution,
    /// filled by the fused kernel only while metric telemetry is live.
    /// Purely observational — no value-iteration bit depends on it.
    pub(crate) timing: KernelTiming,
}

/// Atomic per-class kernel-time accumulator shared by all sweep workers
/// of a precomputation. Workers *accumulate* here (they never emit
/// telemetry themselves); the calling thread snapshots deltas per query
/// and emits the derived histograms.
#[derive(Debug, Default)]
pub(crate) struct KernelTiming {
    ns: [AtomicU64; 4],
    groups: [AtomicU64; 4],
}

impl Clone for KernelTiming {
    /// A cloned precomputation starts a fresh ledger: the counters are
    /// observability state, not model state.
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl KernelTiming {
    /// Folds one sweep's timing into the shared ledger.
    pub(crate) fn add(&self, t: &ClassTiming) {
        for i in 0..4 {
            self.ns[i].fetch_add(t.ns[i], Ordering::Relaxed);
            self.groups[i].fetch_add(t.groups[i], Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the ledger.
    pub(crate) fn snapshot(&self) -> ClassTiming {
        let mut out = ClassTiming::default();
        for i in 0..4 {
            out.ns[i] = self.ns[i].load(Ordering::Relaxed);
            out.groups[i] = self.groups[i].load(Ordering::Relaxed);
        }
        out
    }
}

/// Metric names of the per-class kernel speed histograms, indexed by
/// `GroupClass as usize` (the `unicon_` exposition prefix is added by
/// the registry). Picoseconds per state: the fixed/empty classes sweep
/// well under a nanosecond per state, so nanosecond-resolution
/// histograms would collapse them into the first bucket.
pub(crate) const CLASS_PS_NAMES: [&str; 4] = [
    "kernel_fixed_ps_per_state",
    "kernel_empty_ps_per_state",
    "kernel_single_ps_per_state",
    "kernel_multi_ps_per_state",
];

/// Emits one `Observe` per group class the query actually swept, with
/// the class's picoseconds-per-state average since `before`. Called on
/// the query's calling thread after all workers have joined.
pub(crate) fn emit_kernel_timing(pre: &Precompute, before: &ClassTiming) {
    let now = pre.timing.snapshot();
    for (i, name) in CLASS_PS_NAMES.iter().enumerate() {
        let groups = now.groups[i].saturating_sub(before.groups[i]);
        if groups == 0 {
            continue;
        }
        let ns = now.ns[i].saturating_sub(before.ns[i]);
        unicon_obs::observe(name, ns.saturating_mul(1000) / groups);
    }
}

impl Precompute {
    /// Verifies uniformity and builds the shared traversal structures —
    /// including the fused kernel layout, compiled once per model.
    pub(crate) fn new(ctmdp: &Ctmdp, goal: &[bool]) -> Result<Self, ReachError> {
        let mut pre = Self::csr_only(ctmdp, goal)?;
        pre.fused = Some(pre.state_layout(ctmdp, goal));
        Ok(pre)
    }

    /// [`Precompute::new`] without the fused state layout: all a laned
    /// batch reads before it folds the goal states.
    pub(crate) fn csr_only(ctmdp: &Ctmdp, goal: &[bool]) -> Result<Self, ReachError> {
        validate_goal(goal, ctmdp)?;
        let rate = ctmdp.uniform_rate()?;
        let n = ctmdp.num_states();
        let probs = CsrMatrix::from_triplets(
            ctmdp.num_rate_functions(),
            n,
            ctmdp
                .rate_functions()
                .enumerate()
                .flat_map(|(i, rf)| rf.probs().map(move |(tgt, p)| (i, tgt as usize, p))),
        );
        let prob_goal: Vec<f64> = ctmdp
            .rate_functions()
            .map(|rf| rf.rate_into(goal) / rf.total())
            .collect();
        Ok(Self {
            rate,
            probs,
            prob_goal,
            fused: None,
            timing: KernelTiming::default(),
        })
    }

    /// Compiles the fused layout with one group per state.
    fn state_layout(&self, ctmdp: &Ctmdp, goal: &[bool]) -> FusedGroups {
        // Intern each rate-function row once — transitions sharing a rate
        // function reference the same pooled entries, keeping the hot
        // entry pool as small as the CSR the reference kernel reads (and
        // therefore just as cache-resident). Entries are copied bit-exactly
        // from the same CSR rows the reference kernel iterates, so the two
        // kernels see identical coefficients in identical order.
        let n = ctmdp.num_states();
        let mut fb = FusedBuilder::with_capacity(n, n, ctmdp.num_transitions(), self.probs.nnz());
        let pool_rows: Vec<_> = (0..self.prob_goal.len())
            .map(|rf| {
                fb.intern(
                    self.prob_goal[rf],
                    self.probs.row(rf).map(|(tgt, p)| (tgt as u32, p)),
                )
            })
            .collect();
        for s in 0..n as u32 {
            if goal[s as usize] {
                fb.fixed_group();
                continue;
            }
            fb.begin_group();
            for tr in ctmdp.transitions_from(s) {
                fb.push_row(pool_rows[tr.rate_fn as usize]);
            }
            fb.end_group();
        }
        fb.build()
    }

    /// Heap bytes held by the shared traversal structures (CSR rows, the
    /// per-rate-function goal mass vector and the fused kernel layout).
    pub(crate) fn memory_bytes(&self) -> usize {
        self.probs.memory_bytes()
            + self.prob_goal.len() * std::mem::size_of::<f64>()
            + self.fused.as_ref().map_or(0, FusedGroups::memory_bytes)
    }
}

/// The goal-folded layout a laned batch sweeps: the non-goal states
/// renumbered `0..m` in state order, then one shared slot for every goal
/// state (when there is one). A row entry into a goal state reads the
/// slot instead, and the slot is the layout's one fixed group, written
/// `ψ(i) + slot` per step.
///
/// Folding changes no bit. Every goal state starts at `q_{k+1} = +0.0`
/// and receives the same update `ψ(i) + q_{i+1}(g)`, so all goal states
/// hold the same value at every step — the slot's. A row therefore reads
/// the same operands in the same order from the slot as from the states,
/// and every non-goal state's update is the state layout's.
#[derive(Debug)]
pub(crate) struct Folded {
    pub(crate) groups: FusedGroups,
    /// The slot of each state.
    slot: Vec<u32>,
}

impl Folded {
    /// Folds the goal states of `pre`'s CSR rows; only the rate
    /// functions non-goal states use are interned.
    pub(crate) fn new(ctmdp: &Ctmdp, pre: &Precompute, goal: &[bool]) -> Self {
        let mut slot = vec![0u32; goal.len()];
        let mut m = 0u32;
        for (s, _) in goal.iter().enumerate().filter(|(_, &g)| !g) {
            slot[s] = m;
            m += 1;
        }
        for (s, _) in goal.iter().enumerate().filter(|(_, &g)| g) {
            slot[s] = m;
        }
        let slots = m as usize + usize::from(goal.contains(&true));
        let mut fb = FusedBuilder::with_capacity(slots, slots, 0, 0);
        let mut pool_rows = vec![None; pre.prob_goal.len()];
        for s in (0..goal.len()).filter(|&s| !goal[s]) {
            fb.begin_group();
            for tr in ctmdp.transitions_from(s as u32) {
                let rf = tr.rate_fn as usize;
                let row = *pool_rows[rf].get_or_insert_with(|| {
                    fb.intern(
                        pre.prob_goal[rf],
                        pre.probs.row(rf).map(|(tgt, p)| (slot[tgt], p)),
                    )
                });
                fb.push_row(row);
            }
            fb.end_group();
        }
        if slots > m as usize {
            fb.fixed_group();
        }
        Self {
            // Plain weights: the value tables' lookup per entry cost the
            // folded FTWC N=32 sweep 8–15 % on one worker and 18–22 % on
            // two. Folds that keep most states read 4× the weight bytes;
            // DESIGN.md records what laned batches on such models took.
            groups: fb.build_direct(),
            slot,
        }
    }

    /// Lane `lane` of the interleaved plane `q` (`stride` lanes per slot)
    /// as the n-state vector it stands for: each goal state reads the
    /// goal slot.
    pub(crate) fn expand<'a>(
        &'a self,
        q: &'a Plane,
        stride: usize,
        lane: usize,
    ) -> impl Iterator<Item = f64> + 'a {
        self.slot
            .iter()
            .map(move |&s| plane::get(q, s as usize * stride + lane))
    }
}

/// One backward value-iteration update of a single state — the
/// reference kernel, kept as the oracle the fused kernel is tested
/// against.
///
/// Returns the new value `q_i(s)` and the index of the optimizing
/// transition (0 for goal and absorbing states).
#[inline]
pub(crate) fn step_state(
    ctmdp: &Ctmdp,
    pre: &Precompute,
    goal: &[bool],
    s: usize,
    psi: f64,
    q_next: &Plane,
    maximize: bool,
) -> (f64, u16) {
    if goal[s] {
        return (psi + plane::get(q_next, s), 0);
    }
    let trans = ctmdp.transitions_from(s as u32);
    if trans.is_empty() {
        return (0.0, 0);
    }
    let mut best = if maximize { -1.0f64 } else { f64::INFINITY };
    let mut best_idx = 0u16;
    for (idx, tr) in trans.iter().enumerate() {
        let rf = tr.rate_fn as usize;
        let mut v = psi * pre.prob_goal[rf];
        for (tgt, p) in pre.probs.row(rf) {
            v += p * plane::get(q_next, tgt);
        }
        let better = if maximize { v > best } else { v < best };
        if better {
            best = v;
            best_idx = idx as u16;
        }
    }
    (best, best_idx)
}

/// What every sweep of one run reads besides the value planes. All
/// workers of the driver share one `Sweep`, so every group runs the same
/// operations whichever worker computes it.
///
/// A run sweeps either the n states, one query on `kernel`, or — with
/// `folded` — up to [`unicon_sparse::LANES`] queries as lanes of the
/// goal-folded layout on the fused kernel, its planes interleaved as
/// `[slot][lane]`.
#[derive(Clone, Copy)]
pub(crate) struct Sweep<'a> {
    pub(crate) kernel: Kernel,
    pub(crate) ctmdp: &'a Ctmdp,
    pub(crate) pre: &'a Precompute,
    pub(crate) goal: &'a [bool],
    /// The laned run's layout; `None` sweeps the states.
    pub(crate) folded: Option<&'a Folded>,
    /// Each lane's objective, lane 0 first: one unless `folded`. Its
    /// length is the planes' stride.
    pub(crate) maximize: &'a [bool],
    /// Attribute kernel time per state class into `pre.timing`; decided
    /// once per run, while metric telemetry is live.
    pub(crate) timed: bool,
}

/// The one-lane objective slices.
pub(crate) fn objective_lane(objective: Objective) -> &'static [bool] {
    match objective {
        Objective::Maximize => &[true],
        Objective::Minimize => &[false],
    }
}

impl Sweep<'_> {
    /// The groups a step sweeps: the states, or the folded slots.
    pub(crate) fn groups(&self) -> usize {
        self.folded
            .map_or(self.goal.len(), |f| f.groups.num_groups())
    }

    /// Plane entries per group.
    pub(crate) fn stride(&self) -> usize {
        self.maximize.len()
    }

    /// The chunked checksum of lane `lane` of `q`, read in place as the
    /// n-state vector it stands for: the bits
    /// [`unicon_numeric::chunked_stable_sum`] returns for that vector.
    pub(crate) fn checksum(&self, q: &Plane, lane: usize) -> f64 {
        let block = crate::par::CHECKSUM_BLOCK;
        match self.folded {
            None => plane::chunked_sum(q, block),
            Some(f) => {
                let stride = self.stride();
                combine_chunk_sums(f.slot.chunks(block).map(|c| {
                    stable_sum(c.iter().map(|&s| plane::get(q, s as usize * stride + lane)))
                }))
            }
        }
    }

    /// One value-iteration sweep over the groups `range`, reading
    /// `q_next` and writing `out` (the slice of the output plane for
    /// `range`, indexed from `range.start`). `psi` holds the active
    /// lanes' Poisson weights, lane 0 first. `decisions` must either be
    /// empty (recording off) or exactly `range.len()`; laned runs never
    /// record.
    ///
    /// The fused arms delegate the whole range to
    /// [`FusedGroups::sweep_best`] or [`FusedGroups::sweep_lanes`], whose
    /// per-group semantics mirror [`step_state`] operation for operation:
    /// `Fixed` is the goal branch (`psi + q_next[s]`), `Empty` the
    /// absorbing branch (`0.0`), and active groups evaluate each
    /// transition's interned row with the same bias-then-entries order,
    /// the same strict `>`/`<` compares, and the same `-1.0`/`+∞`
    /// sentinels — so NaN rows keep the sentinel and ties keep the first
    /// transition in every kernel, and the outputs are bitwise identical.
    pub(crate) fn run(
        &self,
        range: Range<usize>,
        psi: &[f64],
        q_next: &Plane,
        out: &Plane,
        decisions: &mut [u16],
    ) {
        debug_assert_eq!(out.len(), range.len() * self.stride());
        debug_assert!(decisions.is_empty() || decisions.len() == range.len());
        // The timed walks write bitwise what the plain sweeps write (see
        // `sweep_best_timed`), so the values never depend on which path
        // ran — the bit-invisibility contract the CI trace-on/trace-off
        // cmp gate pins.
        let mut t = ClassTiming::default();
        let (psi0, maximize0) = (psi[0], self.maximize[0]);
        match (self.folded, self.kernel) {
            (Some(folded), _) if self.stride() > 1 => {
                let (groups, stride) = (&folded.groups, self.stride());
                let maximize = &self.maximize[..psi.len()];
                if self.timed {
                    groups.sweep_lanes_timed(range, psi, maximize, q_next, stride, out, &mut t);
                } else {
                    groups.sweep_lanes(range, psi, maximize, q_next, stride, out);
                }
            }
            (None, Kernel::Reference) => {
                let record = !decisions.is_empty();
                for (i, s) in range.enumerate() {
                    let (v, idx) =
                        step_state(self.ctmdp, self.pre, self.goal, s, psi0, q_next, maximize0);
                    plane::set(out, i, v);
                    if record {
                        decisions[i] = idx;
                    }
                }
            }
            (folded, _) => {
                // One lane: the scalar fused sweep, of the folded layout
                // (a lane group of one) or of the states.
                let groups = match folded {
                    Some(f) => &f.groups,
                    None => self
                        .pre
                        .fused
                        .as_ref()
                        .expect("a state sweep runs on a full precomputation"),
                };
                let decisions = (!decisions.is_empty()).then_some(decisions);
                if self.timed {
                    groups.sweep_best_timed(range, psi0, q_next, maximize0, out, decisions, &mut t);
                } else {
                    groups.sweep_best(range, psi0, q_next, maximize0, out, decisions);
                }
            }
        }
        if self.timed {
            self.pre.timing.add(&t);
        }
    }
}

/// The trivial result when no Markov jump can happen (`t = 0` or `E = 0`):
/// the indicator of the goal set.
pub(crate) fn indicator_result(goal: &[bool], rate: f64) -> ReachResult {
    ReachResult {
        values: goal.iter().map(|&g| f64::from(u8::from(g))).collect(),
        iterations: 0,
        uniform_rate: rate,
        runtime: std::time::Duration::ZERO,
        decisions: Vec::new(),
    }
}

/// Clamps the iterated vector `q1`, one value per state, into
/// probabilities and pins goal states to 1 — the common epilogue of every
/// engine.
pub(crate) fn finalize_values(goal: &[bool], q1: impl IntoIterator<Item = f64>) -> Vec<f64> {
    goal.iter()
        .zip(q1)
        .map(|(&g, v)| if g { 1.0 } else { v.clamp(0.0, 1.0) })
        .collect()
}

/// Computes `opt_D Pr_D(s ⤳≤t B)` for every state `s` of a **uniform**
/// CTMDP (Algorithm 1).
///
/// `goal[s]` marks the states of `B`. States without outgoing transitions
/// are allowed (treated as unable to make further progress).
///
/// # Errors
///
/// Returns [`ReachError::NotUniform`] if the transitions' exit rates
/// differ, [`ReachError::InvalidEpsilon`] if `opts.epsilon` lies outside
/// `(0, 1)`, [`ReachError::InvalidTimeBound`] if `t` is negative or not
/// finite, and [`ReachError::GoalLengthMismatch`] if `goal.len()`
/// disagrees with the state count — all reachable from untrusted input,
/// so none of them panic.
pub fn timed_reachability(
    ctmdp: &Ctmdp,
    goal: &[bool],
    t: f64,
    opts: &ReachOptions,
) -> Result<ReachResult, ReachError> {
    crate::par::timed_reachability_workers(ctmdp, goal, t, opts, 1)
}

/// Emits the per-iteration convergence record when iteration telemetry is
/// live. `new` (the freshly computed `q_i`) is read-only here, so
/// telemetry can never perturb the numeric state — bit-invisibility by
/// construction.
///
/// The reported residual is the *unprocessed Poisson mass*
/// `Σ_{n < i} ψ(n) + Σ_{n > k} ψ(n)`: an upper bound on how much the
/// remaining steps (plus the truncated tail) can still add to any
/// accumulated goal probability. It is non-increasing along the
/// backward iteration by construction of the suffix sums, and ends at
/// the right-truncation remainder `≤ ε` — the paper's a-priori error
/// bound, observed live. (The raw iterate difference `‖q_i − q_{i+1}‖`
/// is *not* a convergence certificate here: goal states carry a
/// constant offset below the Fox–Glynn window, so it plateaus.)
///
/// `sum` computes the chunked checksum of the fresh iterate, only while
/// iteration telemetry is live.
pub(crate) fn emit_iteration(
    qi: usize,
    step: usize,
    fg: &FoxGlynn,
    k: usize,
    sum: impl FnOnce() -> f64,
) {
    if !unicon_obs::live(unicon_obs::Class::Iter) {
        return;
    }
    let residual = (1.0 - fg.tail_from(step)) + fg.tail_from(k + 1);
    let checksum = sum().to_bits();
    unicon_obs::emit(unicon_obs::Class::Iter, || {
        unicon_obs::Event::ReachIteration {
            query: qi,
            step,
            psi: fg.psi(step),
            residual,
            checksum,
        }
    });
}

/// Step-bounded reachability: the optimal probability to reach `B` within
/// at most `k` Markov jumps, ignoring time.
///
/// This is the DTMDP core that Algorithm 1 weights with Poisson
/// probabilities; unlike the timed analysis it does **not** require
/// uniformity (jump counting is oblivious to exit rates).
///
/// # Panics
///
/// Panics if `goal.len()` mismatches the state count.
///
/// # Examples
///
/// ```
/// use unicon_ctmdp::CtmdpBuilder;
/// use unicon_ctmdp::reachability::{step_bounded_reachability, Objective};
///
/// let mut b = CtmdpBuilder::new(3, 0);
/// b.transition(0, "a", &[(1, 1.0), (2, 1.0)]);
/// b.transition(1, "a", &[(2, 2.0)]);
/// b.transition(2, "a", &[(2, 2.0)]);
/// let m = b.build();
/// let goal = [false, false, true];
/// let one = step_bounded_reachability(&m, &goal, 1, Objective::Maximize);
/// assert_eq!(one[0], 0.5); // one jump: the 50/50 branch
/// let two = step_bounded_reachability(&m, &goal, 2, Objective::Maximize);
/// assert_eq!(two[0], 1.0); // two jumps always suffice
/// ```
pub fn step_bounded_reachability(
    ctmdp: &Ctmdp,
    goal: &[bool],
    k: usize,
    objective: Objective,
) -> Vec<f64> {
    // Infallible return type: a mismatched goal is a caller bug here (the
    // CLI paths all build the goal from the model they pass), so this is a
    // documented panic rather than a ReachError.
    assert_eq!(
        goal.len(),
        ctmdp.num_states(),
        "goal vector length mismatch"
    );
    let n = ctmdp.num_states();
    let maximize = objective == Objective::Maximize;
    let mut p: Vec<f64> = goal.iter().map(|&g| f64::from(u8::from(g))).collect();
    let mut next = vec![0.0f64; n];
    for _ in 0..k {
        for s in 0..n {
            if goal[s] {
                next[s] = 1.0;
                continue;
            }
            let trans = ctmdp.transitions_from(s as u32);
            if trans.is_empty() {
                next[s] = 0.0;
                continue;
            }
            let mut best = if maximize { -1.0f64 } else { f64::INFINITY };
            for tr in trans {
                let rf = ctmdp.rate_function(tr.rate_fn);
                let mut v = 0.0;
                for (tgt, prob) in rf.probs() {
                    v += prob * p[tgt as usize];
                }
                best = if maximize { best.max(v) } else { best.min(v) };
            }
            next[s] = best;
        }
        std::mem::swap(&mut p, &mut next);
    }
    p
}

/// Convenience wrapper returning only the value from the initial state.
///
/// # Errors
///
/// See [`timed_reachability`].
pub fn timed_reachability_from_initial(
    ctmdp: &Ctmdp,
    goal: &[bool],
    t: f64,
    opts: &ReachOptions,
) -> Result<f64, ReachError> {
    Ok(timed_reachability(ctmdp, goal, t, opts)?.from_state(ctmdp.initial()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CtmdpBuilder;
    use unicon_ctmc::transient::{self, TransientOptions};
    use unicon_ctmc::Ctmc;
    use unicon_numeric::assert_close;
    use unicon_numeric::special::exponential_cdf;
    use unicon_sparse::GroupClass;

    /// A CTMDP with exactly one transition per state, mirroring a CTMC.
    fn chain_as_ctmdp() -> (Ctmdp, Ctmc) {
        // uniform rate 2: 0 -> {1: 1.0, 0: 1.0}; 1 -> {2: 2.0}; 2 -> {2: 2.0}
        let mut b = CtmdpBuilder::new(3, 0);
        b.transition(0, "a", &[(1, 1.0), (0, 1.0)]);
        b.transition(1, "a", &[(2, 2.0)]);
        b.transition(2, "a", &[(2, 2.0)]);
        let ctmc = Ctmc::from_rates(3, 0, [(0, 1, 1.0), (0, 0, 1.0), (1, 2, 2.0), (2, 2, 2.0)]);
        (b.build(), ctmc)
    }

    /// Non-goal states keep their order; every goal state maps to the one
    /// fixed slot after them, and rows read it in their place.
    #[test]
    fn folding_keeps_non_goal_states_and_one_goal_slot() {
        let (m, _) = chain_as_ctmdp();
        let goal = [false, true, true];
        let pre = Precompute::csr_only(&m, &goal).unwrap();
        assert!(pre.fused.is_none());
        let folded = Folded::new(&m, &pre, &goal);
        let g = &folded.groups;
        assert_eq!(g.num_groups(), 2);
        assert_eq!(g.classes(), &[GroupClass::Single, GroupClass::Fixed]);
        // State 0's row: half back to itself, half into the goal slot.
        let row = g.pool_rows(0)[0] as usize;
        assert_eq!(
            g.pool_entries(row).collect::<Vec<_>>(),
            vec![(0, 0.5), (1, 0.5)]
        );
        assert_eq!(g.pool_bias(row), 0.5);
        let q = plane::from_slice(&[0.25, 0.75]);
        assert_eq!(
            folded.expand(&q, 1, 0).collect::<Vec<_>>(),
            vec![0.25, 0.75, 0.75]
        );
        let no_goal = Folded::new(&m, &pre, &[false; 3]);
        assert!(no_goal
            .groups
            .classes()
            .iter()
            .all(|&c| c != GroupClass::Fixed));
    }

    #[test]
    fn zero_time_is_indicator() {
        let (m, _) = chain_as_ctmdp();
        let r =
            timed_reachability(&m, &[false, false, true], 0.0, &ReachOptions::default()).unwrap();
        assert_eq!(r.values, vec![0.0, 0.0, 1.0]);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn singleton_transitions_match_ctmc_oracle() {
        let (m, c) = chain_as_ctmdp();
        let goal = [false, false, true];
        let copts = TransientOptions::default().with_epsilon(1e-12);
        for t in [0.3, 1.0, 4.0] {
            let mdp =
                timed_reachability(&m, &goal, t, &ReachOptions::default().with_epsilon(1e-12))
                    .unwrap();
            let oracle = transient::reachability(&c, &goal, t, &copts);
            for s in 0..3 {
                assert_close!(mdp.values[s], oracle.values[s], 1e-9);
            }
        }
    }

    #[test]
    fn max_picks_the_better_transition() {
        // From state 0: action into goal at rate 2, or detour at rate 2.
        let mut b = CtmdpBuilder::new(3, 0);
        b.transition(0, "direct", &[(1, 2.0)]);
        b.transition(0, "detour", &[(2, 2.0)]);
        b.transition(1, "stay", &[(1, 2.0)]);
        b.transition(2, "stay", &[(2, 2.0)]);
        let m = b.build();
        let goal = [false, true, false];
        let t = 1.0;
        let r =
            timed_reachability(&m, &goal, t, &ReachOptions::default().with_epsilon(1e-10)).unwrap();
        // Max scheduler takes "direct": hit B iff a jump occurs by t.
        assert_close!(r.values[0], exponential_cdf(2.0, t), 1e-8);
        // Min scheduler never reaches B.
        let rmin = timed_reachability(
            &m,
            &goal,
            t,
            &ReachOptions::default()
                .with_epsilon(1e-10)
                .with_objective(Objective::Minimize),
        )
        .unwrap();
        assert_close!(rmin.values[0], 0.0, 1e-9);
    }

    #[test]
    fn max_dominates_min() {
        let mut b = CtmdpBuilder::new(4, 0);
        b.transition(0, "x", &[(1, 1.0), (2, 1.0)]);
        b.transition(0, "y", &[(2, 1.5), (3, 0.5)]);
        b.transition(1, "x", &[(3, 2.0)]);
        b.transition(2, "x", &[(0, 2.0)]);
        b.transition(3, "x", &[(3, 2.0)]);
        let m = b.build();
        let goal = [false, false, false, true];
        for t in [0.5, 2.0, 8.0] {
            let mx = timed_reachability(&m, &goal, t, &ReachOptions::default()).unwrap();
            let mn = timed_reachability(
                &m,
                &goal,
                t,
                &ReachOptions::default().with_objective(Objective::Minimize),
            )
            .unwrap();
            for s in 0..4 {
                assert!(mx.values[s] >= mn.values[s] - 1e-12);
            }
        }
    }

    #[test]
    fn values_monotone_in_time_and_bounded() {
        let (m, _) = chain_as_ctmdp();
        let goal = [false, false, true];
        let mut prev = 0.0;
        for i in 1..8 {
            let t = 0.5 * i as f64;
            let v = timed_reachability(&m, &goal, t, &ReachOptions::default())
                .unwrap()
                .from_state(0);
            assert!((0.0..=1.0).contains(&v));
            assert!(v >= prev - 1e-9);
            prev = v;
        }
    }

    #[test]
    fn iteration_count_matches_foxglynn() {
        let (m, _) = chain_as_ctmdp();
        let r =
            timed_reachability(&m, &[false, false, true], 50.0, &ReachOptions::default()).unwrap();
        let fg = FoxGlynn::new(2.0 * 50.0);
        assert_eq!(r.iterations, fg.right_truncation(1e-6));
        assert_close!(r.uniform_rate, 2.0, 1e-12);
    }

    #[test]
    fn rejects_non_uniform() {
        let mut b = CtmdpBuilder::new(2, 0);
        b.transition(0, "a", &[(1, 1.0)]);
        b.transition(1, "a", &[(0, 3.0)]);
        let m = b.build();
        let err =
            timed_reachability(&m, &[false, true], 1.0, &ReachOptions::default()).unwrap_err();
        assert!(matches!(err, ReachError::NotUniform(_)));
        assert!(err.to_string().contains("not uniform"));
    }

    #[test]
    fn rejects_non_positive_epsilon() {
        let (m, _) = chain_as_ctmdp();
        let goal = [false, false, true];
        for eps in [0.0, -1e-9, -3.0, 1.0, 2.5, f64::NAN, f64::INFINITY] {
            let err =
                timed_reachability(&m, &goal, 1.0, &ReachOptions::default().with_epsilon(eps))
                    .unwrap_err();
            assert!(
                matches!(err, ReachError::InvalidEpsilon { epsilon } if epsilon.to_bits() == eps.to_bits()),
                "eps {eps} gave {err:?}"
            );
            assert!(err.to_string().contains("epsilon"));
        }
        // even the t = 0 shortcut validates first
        assert!(matches!(
            timed_reachability(&m, &goal, 0.0, &ReachOptions::default().with_epsilon(-1.0)),
            Err(ReachError::InvalidEpsilon { .. })
        ));
    }

    #[test]
    fn rejects_bad_time_bounds_and_goal_length() {
        let (m, _) = chain_as_ctmdp();
        let goal = [false, false, true];
        for t in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = timed_reachability(&m, &goal, t, &ReachOptions::default()).unwrap_err();
            assert!(
                matches!(err, ReachError::InvalidTimeBound { t: bad } if bad.to_bits() == t.to_bits()),
                "t {t} gave {err:?}"
            );
            assert!(err.to_string().contains("time bound"));
        }
        let err =
            timed_reachability(&m, &[false, true], 1.0, &ReachOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            ReachError::GoalLengthMismatch {
                goal_len: 2,
                num_states: 3
            }
        ));
        assert!(err.to_string().contains("goal vector"));
    }

    #[test]
    fn absorbing_non_goal_state_has_value_zero() {
        let mut b = CtmdpBuilder::new(3, 0);
        b.transition(0, "a", &[(1, 1.0), (2, 1.0)]);
        b.transition(1, "a", &[(1, 2.0)]);
        // state 2 has no transitions
        let m = b.build();
        let r =
            timed_reachability(&m, &[false, true, false], 3.0, &ReachOptions::default()).unwrap();
        assert_eq!(r.values[2], 0.0);
        assert!(r.values[0] > 0.0);
    }

    #[test]
    fn decisions_are_recorded_when_asked() {
        let mut b = CtmdpBuilder::new(3, 0);
        b.transition(0, "to_goal", &[(1, 2.0)]);
        b.transition(0, "away", &[(2, 2.0)]);
        b.transition(1, "s", &[(1, 2.0)]);
        b.transition(2, "s", &[(2, 2.0)]);
        let m = b.build();
        let r = timed_reachability(
            &m,
            &[false, true, false],
            1.0,
            &ReachOptions::default().recording_decisions(),
        )
        .unwrap();
        assert_eq!(r.decisions.len(), r.iterations);
        // at every step the maximizer picks transition 0 ("to_goal")
        for step in &r.decisions {
            assert_eq!(step[0], 0);
        }
    }

    #[test]
    fn step_bounded_is_monotone_and_bounds_timed() {
        let (m, _) = chain_as_ctmdp();
        let goal = [false, false, true];
        let mut prev = 0.0;
        for k in 0..8 {
            let p = step_bounded_reachability(&m, &goal, k, Objective::Maximize)[0];
            assert!((0.0..=1.0).contains(&p));
            assert!(p >= prev - 1e-12);
            prev = p;
        }
        // the timed value at precision ε is below the step-bounded value at
        // the truncation point, plus ε
        let t = 1.5;
        let eps = 1e-9;
        let timed =
            timed_reachability(&m, &goal, t, &ReachOptions::default().with_epsilon(eps)).unwrap();
        let stepped = step_bounded_reachability(&m, &goal, timed.iterations, Objective::Maximize);
        assert!(timed.values[0] <= stepped[0] + eps);
    }

    #[test]
    fn step_bounded_works_on_non_uniform_models() {
        // non-uniform: exit rates 1 and 3 — jump counting does not care
        let mut b = CtmdpBuilder::new(3, 0);
        b.transition(0, "a", &[(1, 0.5), (2, 0.5)]);
        b.transition(1, "a", &[(2, 3.0)]);
        b.transition(2, "a", &[(2, 3.0)]);
        let m = b.build();
        assert!(m.uniform_rate().is_err());
        let goal = [false, false, true];
        let p1 = step_bounded_reachability(&m, &goal, 1, Objective::Maximize);
        assert_close!(p1[0], 0.5, 1e-12);
        let p2 = step_bounded_reachability(&m, &goal, 2, Objective::Maximize);
        assert_close!(p2[0], 1.0, 1e-12);
    }

    #[test]
    fn step_bounded_min_vs_max() {
        let mut b = CtmdpBuilder::new(3, 0);
        b.transition(0, "good", &[(1, 1.0)]);
        b.transition(0, "bad", &[(2, 1.0)]);
        b.transition(1, "s", &[(1, 1.0)]);
        b.transition(2, "s", &[(2, 1.0)]);
        let m = b.build();
        let goal = [false, true, false];
        let mx = step_bounded_reachability(&m, &goal, 3, Objective::Maximize);
        let mn = step_bounded_reachability(&m, &goal, 3, Objective::Minimize);
        assert_eq!(mx[0], 1.0);
        assert_eq!(mn[0], 0.0);
    }

    #[test]
    fn goal_state_value_is_exactly_one() {
        let (m, _) = chain_as_ctmdp();
        let r =
            timed_reachability(&m, &[true, false, false], 2.0, &ReachOptions::default()).unwrap();
        assert_eq!(r.values[0], 1.0);
    }
}
