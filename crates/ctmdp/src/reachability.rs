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
use std::time::Duration;

use unicon_numeric::sum::combine_chunk_sums;
use unicon_numeric::{stable_sum, FoxGlynn, FoxGlynnError};
use unicon_sparse::{plane, ClassTiming, FusedBuilder, FusedGroups, Plane, RowBuffer};

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
    /// No Poisson weights exist for `λ = E·t`: a time bound so large that
    /// `λ` exceeds [`FoxGlynn::MAX_LAMBDA`] for the model's rate.
    FoxGlynn(FoxGlynnError),
    /// A run that records decisions met a state with more transitions
    /// than a recorded decision, a `u16` index, can name.
    TooManyTransitions {
        /// The first such state.
        state: u32,
        /// Its transition count, above 65,536.
        transitions: usize,
    },
}

impl std::fmt::Display for ReachError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReachError::NotUniform(e) => e.fmt(f),
            ReachError::InvalidEpsilon { epsilon } => write!(
                f,
                "truncation precision epsilon must lie in (0, 1), got {epsilon:e}"
            ),
            ReachError::InvalidTimeBound { t } => {
                write!(f, "time bound must be finite and >= 0, got {t:e}")
            }
            ReachError::GoalLengthMismatch {
                goal_len,
                num_states,
            } => write!(
                f,
                "goal vector has {goal_len} entries but the CTMDP has {num_states} states"
            ),
            ReachError::FoxGlynn(e) => e.fmt(f),
            ReachError::TooManyTransitions { state, transitions } => write!(
                f,
                "state {state} has {transitions} transitions; recorded decisions index at most {}",
                DECISION_INDICES
            ),
        }
    }
}

impl std::error::Error for ReachError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReachError::NotUniform(e) => Some(e),
            ReachError::FoxGlynn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NotUniformError> for ReachError {
    fn from(e: NotUniformError) -> Self {
        ReachError::NotUniform(e)
    }
}

impl From<FoxGlynnError> for ReachError {
    fn from(e: FoxGlynnError) -> Self {
        ReachError::FoxGlynn(e)
    }
}

/// Checks that `goal` covers the states of `ctmdp` and that the model is
/// uniform, and returns its uniform rate `E`: what every engine checks
/// once per model.
pub(crate) fn uniform_rate(ctmdp: &Ctmdp, goal: &[bool]) -> Result<f64, ReachError> {
    if goal.len() != ctmdp.num_states() {
        return Err(ReachError::GoalLengthMismatch {
            goal_len: goal.len(),
            num_states: ctmdp.num_states(),
        });
    }
    Ok(ctmdp.uniform_rate()?)
}

/// How many transitions a recorded decision (a `u16`) can index.
const DECISION_INDICES: usize = u16::MAX as usize + 1;

/// Checks that a recorded decision can name every transition of every
/// state: what a run that records decisions checks before its first
/// sweep, since the kernels store the winning index as a `u16`.
pub(crate) fn check_decisions(ctmdp: &Ctmdp) -> Result<(), ReachError> {
    let too_many = (0..ctmdp.num_states() as u32)
        .map(|s| (s, ctmdp.transitions_from(s).len()))
        .find(|&(_, len)| len > DECISION_INDICES);
    match too_many {
        Some((state, transitions)) => Err(ReachError::TooManyTransitions { state, transitions }),
        None => Ok(()),
    }
}

/// Checks one query before any weight is computed: the precision ε in
/// `(0, 1)`, the time bound `t` finite and nonnegative (NaN fails both),
/// and `λ = rate·t` at most [`FoxGlynn::MAX_LAMBDA`]. Every engine checks
/// every query here, the `t = 0` ones included.
pub(crate) fn check_query(rate: f64, t: f64, epsilon: f64) -> Result<(), ReachError> {
    if !(epsilon > 0.0 && epsilon < 1.0) {
        return Err(ReachError::InvalidEpsilon { epsilon });
    }
    if !(t.is_finite() && t >= 0.0) {
        return Err(ReachError::InvalidTimeBound { t });
    }
    Ok(FoxGlynn::check_lambda(rate * t)?)
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
    /// The two-level traversal of the model itself: `transitions_from(s)`
    /// → `rate_fn` → the rate function's entries in the model's pool,
    /// each probability and goal mass computed where it is read.
    Reference,
    /// A compiled [`FusedGroups`] layout: one group per state (in a laned
    /// batch, per non-goal state plus one goal slot), the rate functions
    /// non-goal states use interned once as rows of plain `f64`
    /// probabilities with the goal mass as the row bias, split
    /// column/weight arrays and run-length encoded group classes.
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
    /// long horizons. A decision is a `u16` transition index, so a run
    /// that records refuses a state with more than 65,536 transitions.
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

/// Metric names of the per-class kernel speed histograms, indexed by
/// `GroupClass as usize` (the `unicon_` exposition prefix is added by
/// the registry). Picoseconds per state: the fixed/empty classes sweep
/// well under a nanosecond per state, so nanosecond-resolution
/// histograms would collapse them into the first bucket.
const CLASS_PS_NAMES: [&str; 4] = [
    "kernel_fixed_ps_per_state",
    "kernel_empty_ps_per_state",
    "kernel_single_ps_per_state",
    "kernel_multi_ps_per_state",
];

/// Observes the picoseconds per state of each class a timed state run's
/// sweeps timed, on the run's calling thread after its workers joined.
pub(crate) fn observe_classes(timing: &ClassTiming) {
    for (i, name) in CLASS_PS_NAMES.iter().enumerate() {
        if let Some(ps) = timing.ns[i]
            .saturating_mul(1000)
            .checked_div(timing.groups[i])
        {
            unicon_obs::observe(name, ps);
        }
    }
}

/// Observes the wall time of one timed run: of a one-lane run, or of one
/// lane group of a laned batch.
pub(crate) fn observe_wall(wall: Duration) {
    unicon_obs::observe(
        "reach_query_ns",
        u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
    );
}

/// Row `rf` of the step the value iteration takes, as every kernel reads
/// it: the one-step probability into the goal set, `R(B) / E_R`, and the
/// branching probabilities `R(s') / E_R` in target order. A probability
/// that rounds to exactly zero is dropped, so no kernel adds a `0 · x`
/// term. Every kernel evaluates `ψ · bias` first and then adds the
/// entries in this order, so all of them sum the same operands in the
/// same order.
pub(crate) fn row<'a>(
    ctmdp: &'a Ctmdp,
    goal: &[bool],
    rf: u32,
) -> (f64, impl Iterator<Item = (u32, f64)> + 'a) {
    let rf = ctmdp.rate_function(rf);
    let entries = rf.probs().filter(|&(_, p)| p != 0.0);
    (rf.rate_into(goal) / rf.total(), entries)
}

/// Compiles a fused layout of `(ctmdp, goal)`: the state layout when
/// `slot` is `None`, the goal-folded layout of [`Folded`] otherwise.
///
/// Both walk the states in order. A non-goal state becomes a group with
/// one row per emanating transition; a goal state becomes a fixed group
/// in the state layout and nothing in the folded one, which ends with a
/// single fixed group for the goal slot when there are goal states. A
/// rate function is interned the first time a non-goal state uses it, so
/// rate functions only goal states use are never copied. Columns are the
/// states themselves or, folded, their slots.
pub(crate) fn fuse(ctmdp: &Ctmdp, goal: &[bool], slot: Option<&[u32]>) -> FusedGroups {
    // Each layout has one column per group: a state, or a slot.
    let cols = match slot {
        None => ctmdp.num_states(),
        Some(_) => goal.iter().filter(|&&g| !g).count() + usize::from(goal.contains(&true)),
    };
    let mut fb = FusedBuilder::new(cols);
    let mut pool_rows = vec![None; ctmdp.num_rate_functions()];
    for s in 0..ctmdp.num_states() {
        if goal[s] {
            if slot.is_none() {
                fb.fixed_group();
            }
            continue;
        }
        fb.begin_group();
        for tr in ctmdp.transitions_from(s as u32) {
            let pooled = *pool_rows[tr.rate_fn as usize].get_or_insert_with(|| {
                let (bias, entries) = row(ctmdp, goal, tr.rate_fn);
                fb.intern(
                    bias,
                    entries.map(|(t, p)| (slot.map_or(t, |slot| slot[t as usize]), p)),
                )
            });
            fb.push_row(pooled);
        }
        fb.end_group();
    }
    if slot.is_some() && goal.contains(&true) {
        fb.fixed_group();
    }
    fb.build()
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
    /// Numbers the slots and compiles the folded layout with [`fuse`].
    pub(crate) fn new(ctmdp: &Ctmdp, goal: &[bool]) -> Self {
        let mut slot = vec![0u32; goal.len()];
        let mut m = 0u32;
        for (s, _) in goal.iter().enumerate().filter(|(_, &g)| !g) {
            slot[s] = m;
            m += 1;
        }
        for (s, _) in goal.iter().enumerate().filter(|(_, &g)| g) {
            slot[s] = m;
        }
        Self {
            groups: fuse(ctmdp, goal, Some(&slot)),
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
        let (bias, entries) = row(ctmdp, goal, tr.rate_fn);
        let mut v = psi * bias;
        for (tgt, p) in entries {
            v += p * plane::get(q_next, tgt as usize);
        }
        let better = if maximize { v > best } else { v < best };
        if better {
            best = v;
            best_idx = idx as u16;
        }
    }
    (best, best_idx)
}

/// The layout a run sweeps, which also names its kernel.
#[derive(Clone, Copy)]
pub(crate) enum Layout<'a> {
    /// [`Kernel::Reference`]: the model itself, one [`step_state`] per
    /// state.
    Reference(&'a Ctmdp, &'a [bool]),
    /// [`Kernel::Fused`] over the state layout [`fuse`] compiles: one
    /// group per state.
    States(&'a FusedGroups),
    /// [`Kernel::Fused`] over the goal-folded layout: one to
    /// [`unicon_sparse::LANES`] queries as lanes, the planes interleaved
    /// as `[slot][lane]`.
    Folded(&'a Folded),
}

impl<'a> Layout<'a> {
    /// The layout a one-lane run of `kernel` sweeps over the states of
    /// `(ctmdp, goal)`: the model itself, or the state layout compiled
    /// into `slot`. Only the fused kernel compiles it.
    pub(crate) fn states(
        kernel: Kernel,
        ctmdp: &'a Ctmdp,
        goal: &'a [bool],
        slot: &'a mut Option<FusedGroups>,
    ) -> Self {
        match kernel {
            Kernel::Reference => Layout::Reference(ctmdp, goal),
            Kernel::Fused => Layout::States(slot.insert(fuse(ctmdp, goal, None))),
        }
    }
}

/// What every sweep of one run reads besides the value planes. All
/// workers of the driver share one `Sweep`, so every group runs the same
/// operations whichever worker computes it.
#[derive(Clone, Copy)]
pub(crate) struct Sweep<'a> {
    pub(crate) layout: Layout<'a>,
    /// Each lane's objective, lane 0 first: one unless the layout is
    /// folded. Its length is the planes' stride.
    pub(crate) maximize: &'a [bool],
    /// Time the fused sweeps of the state layout per state class; decided
    /// once per run, while metric telemetry is live. Folded sweeps are
    /// never timed per class.
    pub(crate) timed: bool,
}

/// What one worker keeps across the sweeps of a run: the kernel time per
/// state class of its timed state-layout sweeps, and the row buffer of
/// its folded ones.
#[derive(Default)]
pub(crate) struct Scratch {
    pub(crate) timing: ClassTiming,
    pub(crate) rows: RowBuffer,
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
        match self.layout {
            Layout::Reference(_, goal) => goal.len(),
            Layout::States(groups) => groups.num_groups(),
            Layout::Folded(f) => f.groups.num_groups(),
        }
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
        match self.layout {
            Layout::Folded(f) => {
                let stride = self.stride();
                combine_chunk_sums(f.slot.chunks(block).map(|c| {
                    stable_sum(c.iter().map(|&s| plane::get(q, s as usize * stride + lane)))
                }))
            }
            Layout::Reference(..) | Layout::States(_) => plane::chunked_sum(q, block),
        }
    }

    /// One value-iteration sweep over the groups `range`, reading
    /// `q_next` and writing `out` (the slice of the output plane for
    /// `range`, indexed from `range.start`). `psi` holds the active
    /// lanes' Poisson weights, lane 0 first. `decisions` must either be
    /// empty (recording off) or exactly `range.len()`; laned runs never
    /// record. `scratch` is the calling worker's, kept for the whole run:
    /// a timed sweep of the state layout adds its kernel time per state
    /// class to its `timing`, and a folded sweep buffers its row values
    /// in its `rows`.
    ///
    /// The fused arms delegate the whole range to
    /// [`FusedGroups::sweep_best`] (the state layout) or
    /// [`FusedGroups::sweep_lanes`] (the folded one, at every stride; one
    /// worker sweeps it, so its range is every group), whose per-group
    /// semantics mirror [`step_state`] operation for
    /// operation: `Fixed` is the goal branch (`psi + q_next[s]`), `Empty`
    /// the absorbing branch (`0.0`), and active groups evaluate each
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
        scratch: &mut Scratch,
    ) {
        debug_assert_eq!(out.len(), range.len() * self.stride());
        debug_assert!(decisions.is_empty() || decisions.len() == range.len());
        // The timed walk writes bitwise what the plain sweep writes (see
        // `sweep_best_timed`), so the values never depend on which path
        // ran — the bit-invisibility contract the CI trace-on/trace-off
        // cmp gate pins.
        let (psi0, maximize0) = (psi[0], self.maximize[0]);
        let mut decisions = (!decisions.is_empty()).then_some(decisions);
        match self.layout {
            Layout::Reference(ctmdp, goal) => {
                for (i, s) in range.enumerate() {
                    let (v, idx) = step_state(ctmdp, goal, s, psi0, q_next, maximize0);
                    plane::set(out, i, v);
                    if let Some(d) = decisions.as_deref_mut() {
                        d[i] = idx;
                    }
                }
            }
            Layout::Folded(f) => {
                debug_assert_eq!(range, 0..self.groups(), "one worker sweeps a folded layout");
                let maximize = &self.maximize[..psi.len()];
                let rows = &mut scratch.rows;
                f.groups
                    .sweep_lanes(psi, maximize, q_next, self.stride(), out, rows);
            }
            Layout::States(groups) => {
                if self.timed {
                    let timing = &mut scratch.timing;
                    groups.sweep_best_timed(range, psi0, q_next, maximize0, out, decisions, timing);
                } else {
                    groups.sweep_best(range, psi0, q_next, maximize0, out, decisions);
                }
            }
        }
    }
}

/// The answer when no Markov jump can happen (`t = 0` or `E = 0`): the
/// indicator of the goal set. `None` when the query needs a run.
pub(crate) fn no_jump(goal: &[bool], rate: f64, t: f64) -> Option<ReachResult> {
    (t == 0.0 || rate == 0.0).then(|| ReachResult {
        values: goal.iter().map(|&g| f64::from(u8::from(g))).collect(),
        iterations: 0,
        uniform_rate: rate,
        runtime: Duration::ZERO,
        decisions: Vec::new(),
    })
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
/// finite, [`ReachError::FoxGlynn`] if `E·t` exceeds
/// [`FoxGlynn::MAX_LAMBDA`], [`ReachError::GoalLengthMismatch`] if
/// `goal.len()` disagrees with the state count, and
/// [`ReachError::TooManyTransitions`] if `opts.record_decisions` is set
/// and a state has more than 65,536 transitions — all reachable from
/// untrusted input, so none of them panic.
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
        let folded = Folded::new(&m, &goal);
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
        let no_goal = Folded::new(&m, &[false; 3]);
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

    /// State 0 has `stays` transitions to the absorbing non-goal state 2,
    /// then one to the goal state 1: its only way to the goal, and the
    /// last of its transitions.
    fn fan(stays: usize) -> Ctmdp {
        let mut actions = unicon_lts::ActionTable::new();
        let a = actions.intern("a");
        let to = |rate_fn| crate::model::TransitionRef { action: a, rate_fn };
        let mut transitions = vec![to(0); stays];
        transitions.extend([to(1), to(1), to(0)]);
        Ctmdp::from_parts(
            actions,
            3,
            0,
            vec![(2, 1.0), (1, 1.0)],
            vec![0, 1, 2],
            transitions,
            vec![0, stays + 1, stays + 2, stays + 3],
        )
    }

    /// A recorded decision is a `u16` index: a state with 65,536
    /// transitions records its last one, one with 65,537 fails the
    /// recording run before any sweep, and a run that records nothing
    /// still answers.
    #[test]
    fn recording_refuses_more_transitions_than_a_decision_indexes() {
        let goal = [false, true, false];
        let record = ReachOptions::default().recording_decisions();
        let r = timed_reachability(&fan(u16::MAX as usize), &goal, 1.0, &record).unwrap();
        assert_eq!(r.decisions.len(), r.iterations);
        assert!(r.decisions.iter().all(|step| step[0] == u16::MAX));
        let m = fan(u16::MAX as usize + 1);
        for kernel in [Kernel::Fused, Kernel::Reference] {
            let err = timed_reachability(&m, &goal, 1.0, &record.with_kernel(kernel)).unwrap_err();
            assert_eq!(
                err,
                ReachError::TooManyTransitions {
                    state: 0,
                    transitions: 65_537
                }
            );
            assert!(err.to_string().contains("65537 transitions"), "{err}");
        }
        let r = timed_reachability(&m, &goal, 1.0, &ReachOptions::default()).unwrap();
        assert_close!(r.values[0], exponential_cdf(1.0, 1.0), 1e-6);
    }

    #[test]
    fn goal_state_value_is_exactly_one() {
        let (m, _) = chain_as_ctmdp();
        let r =
            timed_reachability(&m, &[true, false, false], 2.0, &ReachOptions::default()).unwrap();
        assert_eq!(r.values[0], 1.0);
    }
}
