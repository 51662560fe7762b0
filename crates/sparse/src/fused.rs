//! Fused structure-of-arrays layout for optimize-over-rows kernels.
//!
//! The reachability engine's hot loop evaluates, for every state, a small
//! set of candidate rows (one per emanating transition) and keeps the
//! best result. Stored naively that walk is two levels of indirection —
//! state → transition record → shared row in a rate-function pool, with
//! a separate per-pool-row coefficient gather — and it re-derives, per
//! state and per sweep, classification branches whose outcome never
//! changes (is this a goal state? does it have any transitions?).
//! [`FusedGroups`] flattens the model once, at precompute time, into a
//! shape built around what sweeps actually stream:
//!
//! * every group carries a precomputed [`GroupClass`] byte, and the
//!   class sequence is **run-length encoded** at build time. Realistic
//!   goal sets are long contiguous id ranges (in the fault-tolerant
//!   workstation-cluster model, the overwhelming majority of states are
//!   goal states), so a sweep handles each fixed run as one tight
//!   element-wise loop instead of taking a data-dependent branch per
//!   state;
//! * entry storage is **pooled**: one copy per interned row no matter
//!   how many groups reference it, biases and weights as plain `f64`s.
//!   Columns narrow to `u16` when the column space allows it and stay
//!   `u32` otherwise, chosen per layout at build time;
//! * [`FusedGroups::sweep_best`] is one pass in group order,
//!   monomorphized per column width, so the per-entry loop carries no
//!   representation branches; it evaluates a shared row once for every
//!   group that references it, and can record each group's best row;
//! * [`FusedGroups::sweep_lanes`] advances up to [`LANES`] independent
//!   problems at once over planes interleaved as `[group][lane]`, in two
//!   phases: it first evaluates each pool row the swept groups
//!   reference, once, into a caller-owned [`RowBuffer`], then takes each
//!   group's best over its rows' buffered values. Each entry is streamed
//!   once per sweep for every active lane, and each lane performs exactly
//!   the single-lane operations in exactly their order.
//!
//! The evaluation order inside a row — bias term first, then the
//! entries in storage order — is part of the layout's contract: callers
//! that intern rows from an existing matrix get **bitwise identical**
//! sums from both sweeps and from a hand-written loop over that matrix's
//! rows. [`FusedGroups::eval_pool_row`] evaluates a single pool row in
//! exactly that order and serves as the in-crate oracle the sweeps are
//! tested against. Buffering a row's value changes none of its bits, so
//! evaluating a shared row once (as [`FusedGroups::sweep_lanes`] does) or
//! once per referencing group (as [`FusedGroups::sweep_best`] does) gives
//! every group the same operands to compare.

use std::ops::Range;
use std::sync::atomic::Ordering;
use std::time::Instant;

use crate::plane::{self, Plane};

/// The most lanes one [`FusedGroups::sweep_lanes`] call advances — the
/// widest interleaved plane stride.
pub const LANES: usize = 4;

/// Precomputed class of one group — the byte the kernel dispatches on
/// instead of re-deriving per-sweep branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum GroupClass {
    /// The group's value is fixed by the caller (a goal state in the
    /// reachability engine); it carries no rows.
    Fixed = 0,
    /// No candidate rows (an absorbing non-goal state).
    Empty = 1,
    /// Exactly one candidate row — evaluate it, skip the compare loop.
    Single = 2,
    /// Two or more candidate rows — optimize over them.
    Multi = 3,
}

/// Per-[`GroupClass`] time attribution for one or more timed sweeps:
/// nanoseconds spent in, and groups processed under, each class
/// (indexed by `GroupClass as usize`). Filled by
/// [`FusedGroups::sweep_best_timed`]; purely additive so per-sweep
/// results aggregate by element-wise summation. Lane sweeps are not
/// timed per class: their first phase evaluates rows, which belong to
/// no class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassTiming {
    /// Wall-clock nanoseconds attributed to each class.
    pub ns: [u64; 4],
    /// Groups swept under each class.
    pub groups: [u64; 4],
}

impl ClassTiming {
    /// Element-wise accumulation of another timing into this one.
    pub fn add(&mut self, other: &ClassTiming) {
        for i in 0..4 {
            self.ns[i] += other.ns[i];
            self.groups[i] += other.groups[i];
        }
    }
}

/// Identifies an interned pool row inside a [`FusedBuilder`] /
/// [`FusedGroups`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolRow(u32);

impl PoolRow {
    /// The row's index into the pool.
    #[must_use]
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

/// Column stream: narrow (`u16`) when the column space fits, wide
/// (`u32`) otherwise. Chosen once at build time; the narrow form halves
/// the bytes the hot sweep streams per column. The wide form is the only
/// one for more than 65,536 columns.
#[derive(Debug, Clone)]
enum ColData {
    Narrow(Vec<u16>),
    Wide(Vec<u32>),
}

impl ColData {
    fn len(&self) -> usize {
        match self {
            ColData::Narrow(v) => v.len(),
            ColData::Wide(v) => v.len(),
        }
    }

    #[inline]
    fn at(&self, i: usize) -> usize {
        match self {
            ColData::Narrow(v) => usize::from(v[i]),
            ColData::Wide(v) => v[i] as usize,
        }
    }

    fn memory_bytes(&self) -> usize {
        match self {
            ColData::Narrow(v) => v.len() * std::mem::size_of::<u16>(),
            ColData::Wide(v) => v.len() * std::mem::size_of::<u32>(),
        }
    }
}

/// A fused, read-only group/row/entry structure: `group → pool-row ids →
/// pooled (bias, col, weight)` with every level in contiguous arrays and
/// the class sequence run-length encoded. Built once via
/// [`FusedBuilder`], then only ever read — sharing a `&FusedGroups`
/// across worker threads is free.
#[derive(Debug, Clone)]
pub struct FusedGroups {
    cols: usize,
    class: Vec<GroupClass>,
    /// Run-length encoding of `class`: `(end, class)` per run, ends
    /// strictly increasing, last end equal to `class.len()`. Sweeps
    /// dispatch once per run, and a timed sweep reads the clock once per
    /// run, attributing the time to the run's [`GroupClass`].
    class_runs: Vec<(u32, GroupClass)>,
    /// `group_ptr[g]..group_ptr[g+1]` is group `g`'s range in `row_pool`.
    group_ptr: Vec<u32>,
    /// State-major candidate lists: the pool-row id of each row.
    row_pool: Vec<u32>,
    /// `pool_ptr[p]..pool_ptr[p+1]` is pool row `p`'s range in
    /// `col`/`weight`.
    pool_ptr: Vec<u32>,
    /// Pool row biases, indexed like `pool_ptr`.
    bias: Vec<f64>,
    col: ColData,
    weight: Vec<f64>,
}

impl FusedGroups {
    /// Number of groups.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.class.len()
    }

    /// Total candidate rows across all groups (references, not pool rows).
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.row_pool.len()
    }

    /// Number of distinct interned pool rows.
    #[must_use]
    pub fn num_pool_rows(&self) -> usize {
        self.pool_ptr.len() - 1
    }

    /// Total `(col, weight)` entries in the shared pool.
    #[must_use]
    pub fn num_entries(&self) -> usize {
        self.col.len()
    }

    /// Width of the column space rows index into.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The precomputed class of group `g`.
    #[inline]
    #[must_use]
    pub fn class(&self, g: usize) -> GroupClass {
        self.class[g]
    }

    /// The per-group class bytes, indexed by group.
    #[inline]
    #[must_use]
    pub fn classes(&self) -> &[GroupClass] {
        &self.class
    }

    /// The row index range of group `g` (into the state-major row array).
    #[inline]
    #[must_use]
    pub fn rows(&self, g: usize) -> Range<usize> {
        self.group_ptr[g] as usize..self.group_ptr[g + 1] as usize
    }

    /// The pool-row ids of group `g`'s candidates, in push order.
    #[inline]
    #[must_use]
    pub fn pool_rows(&self, g: usize) -> &[u32] {
        &self.row_pool[self.rows(g)]
    }

    /// The `(col, weight)` entries of pool row `p`, in storage order.
    pub fn pool_entries(&self, p: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let (lo, hi) = (self.pool_ptr[p] as usize, self.pool_ptr[p + 1] as usize);
        (lo..hi).map(|i| (self.col.at(i) as u32, self.weight[i]))
    }

    /// The bias coefficient of pool row `p`.
    #[inline]
    #[must_use]
    pub fn pool_bias(&self, p: usize) -> f64 {
        self.bias[p]
    }

    /// Evaluates pool row `p` against `x`:
    /// `scale * bias + Σ weightᵢ * x[colᵢ]`, accumulated **in storage
    /// order** — the fixed operation order downstream bitwise-determinism
    /// contracts rely on. This is the oracle [`FusedGroups::sweep_best`]
    /// is tested against; the sweep performs exactly these operations in
    /// exactly this order per row.
    #[inline]
    #[must_use]
    pub fn eval_pool_row(&self, p: usize, scale: f64, x: &[f64]) -> f64 {
        let (lo, hi) = (self.pool_ptr[p] as usize, self.pool_ptr[p + 1] as usize);
        let mut v = scale * self.bias[p];
        for i in lo..hi {
            v += self.weight[i] * x[self.col.at(i)];
        }
        v
    }

    /// One optimize-over-rows sweep over the groups in `groups`, reading
    /// the [`Plane`] `x` and writing each group's best value into the
    /// plane slice `out` (indexed from `groups.start`) and, when
    /// `decisions` is provided, the best row's position within its group.
    /// Planes let a persistent worker pool share one output plane, each
    /// worker writing its own group range.
    ///
    /// Per-group semantics:
    ///
    /// * [`GroupClass::Fixed`]: value is `scale + x[g]`, decision `0`;
    /// * [`GroupClass::Empty`]: value is `0.0`, decision `0`;
    /// * [`GroupClass::Single`] / [`GroupClass::Multi`]: each candidate
    ///   row evaluates as [`FusedGroups::eval_pool_row`] (same operations,
    ///   same order); the best row wins by strict `>` against an initial
    ///   `-1.0` when `maximize`, strict `<` against `+∞` otherwise. Strict
    ///   compares keep the **first** best row on ties, and rows that
    ///   evaluate to NaN never displace the sentinel (both compares are
    ///   false for NaN) — matching a sequential first-wins reference loop.
    ///
    /// The sweep walks the precomputed class runs: fixed and empty runs
    /// become element-wise loops over the run's span, active runs
    /// evaluate per group. A shared-row value is recomputed for every
    /// referencing group, exactly as a per-state reference kernel would —
    /// identical operations in identical order, so the output is bitwise
    /// reproducible at any `groups` partition.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is out of range, `out` is shorter than
    /// `groups`, or a provided `decisions` is shorter than `groups`.
    pub fn sweep_best(
        &self,
        groups: Range<usize>,
        scale: f64,
        x: &Plane,
        maximize: bool,
        out: &Plane,
        decisions: Option<&mut [u16]>,
    ) {
        assert!(groups.end <= self.num_groups(), "group range out of bounds");
        // One dispatch per sweep; each column width gets its own
        // `inline(never)` instantiation so the per-entry loop carries no
        // representation branches (and the optimizer cannot tail-merge
        // the arms back into one branchy body).
        match &self.col {
            ColData::Narrow(c) => {
                sweep_best_generic(self, c, groups, scale, x, maximize, out, decisions);
            }
            ColData::Wide(c) => {
                sweep_best_generic(self, c, groups, scale, x, maximize, out, decisions);
            }
        }
    }

    /// The run-length encoding of the class sequence: `(end, class)` per
    /// run, ends strictly increasing, last end equal to
    /// [`FusedGroups::num_groups`].
    #[inline]
    #[must_use]
    pub fn class_runs(&self) -> &[(u32, GroupClass)] {
        &self.class_runs
    }

    /// [`FusedGroups::sweep_best`] with per-[`GroupClass`] time
    /// attribution accumulated into `timing`.
    ///
    /// The walk splits `groups` at the precomputed class run
    /// boundaries and sweeps each subrange through the ordinary
    /// [`FusedGroups::sweep_best`] — which produces bitwise identical
    /// output at any range partition (see
    /// `sweep_best_subranges_agree_with_full_sweep`), so timing is
    /// observation without perturbation: `out`/`decisions` are byte-for-
    /// byte what the untimed sweep writes. The clock is read once per
    /// class run (not per group), keeping overhead proportional to the
    /// model's class fragmentation, not its size.
    ///
    /// # Panics
    ///
    /// As [`FusedGroups::sweep_best`].
    #[allow(clippy::too_many_arguments)] // sweep_best's signature plus the timing accumulator
    pub fn sweep_best_timed(
        &self,
        groups: Range<usize>,
        scale: f64,
        x: &Plane,
        maximize: bool,
        out: &Plane,
        mut decisions: Option<&mut [u16]>,
        timing: &mut ClassTiming,
    ) {
        assert!(groups.end <= self.num_groups(), "group range out of bounds");
        let base = groups.start;
        let mut ri = self
            .class_runs
            .partition_point(|&(end, _)| (end as usize) <= groups.start);
        let mut g = groups.start;
        while g < groups.end {
            let (run_end, class) = self.class_runs[ri];
            let end = (run_end as usize).min(groups.end);
            // det-lint: allow(clock): timing attribution only — the swept
            // values are produced by the deterministic sweep between the
            // two clock reads and never depend on them.
            let t0 = Instant::now();
            self.sweep_best(
                g..end,
                scale,
                x,
                maximize,
                &out[g - base..end - base],
                decisions
                    .as_deref_mut()
                    .map(|d| &mut d[g - base..end - base]),
            );
            let dt = t0.elapsed();
            let ci = class as usize;
            timing.ns[ci] += u64::try_from(dt.as_nanos()).unwrap_or(u64::MAX);
            timing.groups[ci] += (end - g) as u64;
            g = end;
            ri += 1;
        }
    }

    /// [`FusedGroups::sweep_best`] for `psi.len()` independent lanes at
    /// once. Planes are interleaved as `[group][lane]` with `stride`
    /// entries per group: lane `l` of group `g` is entry `g * stride + l`
    /// of `x`, and entry `(g - groups.start) * stride + l` of `out`.
    /// Lane `l` is swept with scale `psi[l]` and objective
    /// `maximize[l]`; lanes `psi.len()..stride` are neither read nor
    /// written. No decisions are recorded.
    ///
    /// The sweep runs in two phases. Phase 1 evaluates, in pool order,
    /// each distinct pool row the groups reference, once, into `rows`,
    /// each lane as [`FusedGroups::eval_pool_row`] does: `psi[l] · bias`
    /// first, then the entries in storage order. Phase 2 walks the class
    /// runs and takes each group's best over its rows' buffered values,
    /// with strict `>`/`<` compares against the same `-1.0`/`+∞`
    /// sentinels as [`FusedGroups::sweep_best`]. A row's value is the
    /// same bits whether it is buffered or recomputed per group, so lane
    /// `l`'s output is bitwise what `sweep_best` writes for that lane's
    /// plane alone, at any `groups` partition; a row that several groups
    /// reference is evaluated once instead of once per group, and a row
    /// none of them reads is not evaluated. The lanes share the stream of
    /// the layout: every entry is read once and updates every lane.
    ///
    /// `rows` keeps the distinct row ids of the last `groups` it was
    /// swept with and collects them again only when `groups` changes. Its
    /// values are indexed from the lowest of those rows to the highest,
    /// `stride` per row; it grows to that and then allocates no more. One
    /// buffer serves one layout.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is out of range, `psi` and `maximize` differ in
    /// length, more lanes are active than `stride` holds, `stride`
    /// exceeds [`LANES`], or a plane is too short.
    #[allow(clippy::too_many_arguments)] // the planes' layout, the lanes' arguments and the buffer
    pub fn sweep_lanes(
        &self,
        groups: Range<usize>,
        psi: &[f64],
        maximize: &[bool],
        x: &Plane,
        stride: usize,
        out: &Plane,
        rows: &mut RowBuffer,
    ) {
        assert!(groups.end <= self.num_groups(), "group range out of bounds");
        assert_eq!(psi.len(), maximize.len(), "one objective per lane");
        assert!(
            psi.len() <= stride && stride <= LANES,
            "{} lanes do not fit a stride of {stride} (at most {LANES})",
            psi.len()
        );
        let lanes = LaneArgs {
            groups,
            x,
            stride,
            out,
        };
        match psi.len() {
            0 => {}
            1 => self.lanes_by_storage::<1>(lanes, psi, maximize, rows),
            2 => self.lanes_by_storage::<2>(lanes, psi, maximize, rows),
            3 => self.lanes_by_storage::<3>(lanes, psi, maximize, rows),
            _ => self.lanes_by_storage::<4>(lanes, psi, maximize, rows),
        }
    }

    /// One dispatch per call on the column width, as in
    /// [`FusedGroups::sweep_best`], for `A` active lanes.
    fn lanes_by_storage<const A: usize>(
        &self,
        lanes: LaneArgs<'_>,
        psi: &[f64],
        maximize: &[bool],
        rows: &mut RowBuffer,
    ) {
        let psi: [f64; A] = psi.try_into().expect("one scale per active lane");
        let maximize: [bool; A] = maximize.try_into().expect("one objective per active lane");
        let (ids, values) = rows.prepare(self, &lanes.groups, lanes.stride);
        match &self.col {
            ColData::Narrow(c) => sweep_lanes_generic(self, c, lanes, psi, maximize, ids, values),
            ColData::Wide(c) => sweep_lanes_generic(self, c, lanes, psi, maximize, ids, values),
        }
    }

    /// Heap bytes held by the fused arrays.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.class.len() * std::mem::size_of::<GroupClass>()
            + self.class_runs.len() * std::mem::size_of::<(u32, GroupClass)>()
            + self.group_ptr.len() * std::mem::size_of::<u32>()
            + self.row_pool.len() * std::mem::size_of::<u32>()
            + self.pool_ptr.len() * std::mem::size_of::<u32>()
            + self.bias.len() * std::mem::size_of::<f64>()
            + self.col.memory_bytes()
            + self.weight.len() * std::mem::size_of::<f64>()
    }
}

/// The sweep body, monomorphized per column element `C` (`u16`/`u32`).
/// `inline(never)` keeps the two instantiations as separate clean
/// bodies. Entry loops zip subslices so the hot path carries no
/// per-entry index checks beyond the unavoidable `x` gathers.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn sweep_best_generic<C: Copy + Into<u32>>(
    f: &FusedGroups,
    col: &[C],
    groups: Range<usize>,
    scale: f64,
    x: &Plane,
    maximize: bool,
    out: &Plane,
    mut decisions: Option<&mut [u16]>,
) {
    let base = groups.start;
    // First run overlapping the range start.
    let mut ri = f
        .class_runs
        .partition_point(|&(end, _)| (end as usize) <= groups.start);
    let mut g = groups.start;
    while g < groups.end {
        let (run_end, class) = f.class_runs[ri];
        let end = (run_end as usize).min(groups.end);
        match class {
            GroupClass::Fixed => {
                // Element-wise: each output is exactly `scale + x[g]`,
                // independent of its neighbors.
                for (o, xi) in out[g - base..end - base].iter().zip(&x[g..end]) {
                    let xi = f64::from_bits(xi.load(Ordering::Relaxed));
                    o.store((scale + xi).to_bits(), Ordering::Relaxed);
                }
                if let Some(d) = decisions.as_deref_mut() {
                    d[g - base..end - base].fill(0);
                }
            }
            GroupClass::Empty => {
                for o in &out[g - base..end - base] {
                    o.store(0.0f64.to_bits(), Ordering::Relaxed);
                }
                if let Some(d) = decisions.as_deref_mut() {
                    d[g - base..end - base].fill(0);
                }
            }
            GroupClass::Single | GroupClass::Multi => {
                for s in g..end {
                    let rlo = f.group_ptr[s] as usize;
                    let rhi = f.group_ptr[s + 1] as usize;
                    let mut best = if maximize { -1.0f64 } else { f64::INFINITY };
                    let mut best_idx = 0u16;
                    for (k, &p) in f.row_pool[rlo..rhi].iter().enumerate() {
                        let p = p as usize;
                        let (lo, hi) = (f.pool_ptr[p] as usize, f.pool_ptr[p + 1] as usize);
                        let mut v = scale * f.bias[p];
                        for (&c, &w) in col[lo..hi].iter().zip(&f.weight[lo..hi]) {
                            v += w * plane::get(x, c.into() as usize);
                        }
                        let better = if maximize { v > best } else { v < best };
                        if better {
                            best = v;
                            best_idx = k as u16;
                        }
                    }
                    plane::set(out, s - base, best);
                    if let Some(d) = decisions.as_deref_mut() {
                        d[s - base] = best_idx;
                    }
                }
            }
        }
        g = end;
        ri += 1;
    }
}

/// The group range and interleaved planes of one lane sweep.
struct LaneArgs<'a> {
    groups: Range<usize>,
    x: &'a Plane,
    stride: usize,
    out: &'a Plane,
}

/// A worker's buffer of pool-row values for
/// [`FusedGroups::sweep_lanes`], kept across the sweeps of a run so that
/// no sweep allocates. It remembers the group range it was last swept
/// with and the distinct pool rows that range references, so the range's
/// row ids are scanned again only when the range changes. One buffer
/// serves one layout.
#[derive(Debug, Default)]
pub struct RowBuffer {
    /// The group range `rows` belongs to.
    groups: Range<usize>,
    /// The distinct pool row ids `groups` references, ascending.
    rows: Vec<u32>,
    /// Row `rows[0] + r`, lane `l` at `r * A + l` for `A` active lanes;
    /// only the entries of `rows` are written and read.
    values: Vec<f64>,
}

impl RowBuffer {
    /// The distinct pool rows `groups` references in `f`, ascending, and
    /// room for `stride` values of each row from the first to the last.
    fn prepare(
        &mut self,
        f: &FusedGroups,
        groups: &Range<usize>,
        stride: usize,
    ) -> (&[u32], &mut [f64]) {
        if self.groups != *groups {
            let refs =
                &f.row_pool[f.group_ptr[groups.start] as usize..f.group_ptr[groups.end] as usize];
            self.rows.clear();
            self.rows.extend_from_slice(refs);
            self.rows.sort_unstable();
            self.rows.dedup();
            self.groups = groups.clone();
        }
        let span = match (self.rows.first(), self.rows.last()) {
            (Some(&lo), Some(&hi)) => (hi - lo) as usize + 1,
            _ => 0,
        };
        let len = span * stride;
        if self.values.len() < len {
            self.values.resize(len, 0.0);
        }
        (&self.rows, &mut self.values[..len])
    }
}

/// The two-phase lane sweep body, monomorphized per column element (as
/// [`sweep_best_generic`]) and per active lane count `A`, so the
/// per-lane loops have a fixed trip count. Phase 1 evaluates the pool
/// rows `rows` (distinct, ascending) into `values` as `[row][lane]`, `A`
/// values per row from `rows[0]` on; phase 2 is `sweep_best_generic`'s
/// walk without decisions, reading each row's value from `values` and
/// selecting per lane instead of per sweep.
#[inline(never)]
fn sweep_lanes_generic<const A: usize, C: Copy + Into<u32>>(
    f: &FusedGroups,
    col: &[C],
    lanes: LaneArgs<'_>,
    psi: [f64; A],
    maximize: [bool; A],
    rows: &[u32],
    values: &mut [f64],
) {
    let LaneArgs {
        groups,
        x,
        stride,
        out,
    } = lanes;
    // Phase 1: each referenced row, once, in pool order.
    let first = rows.first().map_or(0, |&p| p as usize);
    for &p in rows {
        let p = p as usize;
        let (lo, hi) = (f.pool_ptr[p] as usize, f.pool_ptr[p + 1] as usize);
        let mut acc: [f64; A] = std::array::from_fn(|l| psi[l] * f.bias[p]);
        for (&c, &w) in col[lo..hi].iter().zip(&f.weight[lo..hi]) {
            let xs = &x[c.into() as usize * stride..][..A];
            for (a, xl) in acc.iter_mut().zip(xs) {
                *a += w * f64::from_bits(xl.load(Ordering::Relaxed));
            }
        }
        values[(p - first) * A..][..A].copy_from_slice(&acc);
    }

    // Phase 2: each group's best over its rows' values.
    let base = groups.start;
    let sentinel: [f64; A] =
        std::array::from_fn(|l| if maximize[l] { -1.0 } else { f64::INFINITY });
    let lane_out = |s: usize| &out[(s - base) * stride..][..A];
    let mut ri = f
        .class_runs
        .partition_point(|&(end, _)| (end as usize) <= groups.start);
    let mut g = groups.start;
    while g < groups.end {
        let (run_end, class) = f.class_runs[ri];
        let end = (run_end as usize).min(groups.end);
        match class {
            GroupClass::Fixed => {
                for s in g..end {
                    let xs = &x[s * stride..][..A];
                    for ((o, xi), p) in lane_out(s).iter().zip(xs).zip(psi) {
                        let xi = f64::from_bits(xi.load(Ordering::Relaxed));
                        o.store((p + xi).to_bits(), Ordering::Relaxed);
                    }
                }
            }
            GroupClass::Empty => {
                for s in g..end {
                    for o in lane_out(s) {
                        o.store(0.0f64.to_bits(), Ordering::Relaxed);
                    }
                }
            }
            GroupClass::Single | GroupClass::Multi => {
                for s in g..end {
                    let rlo = f.group_ptr[s] as usize;
                    let rhi = f.group_ptr[s + 1] as usize;
                    let mut best = sentinel;
                    for &p in &f.row_pool[rlo..rhi] {
                        let v = &values[(p as usize - first) * A..][..A];
                        for l in 0..A {
                            let better = if maximize[l] {
                                v[l] > best[l]
                            } else {
                                v[l] < best[l]
                            };
                            if better {
                                best[l] = v[l];
                            }
                        }
                    }
                    for (o, b) in lane_out(s).iter().zip(best) {
                        o.store(b.to_bits(), Ordering::Relaxed);
                    }
                }
            }
        }
        g = end;
        ri += 1;
    }
}

/// Builds a [`FusedGroups`]: intern shared rows first (or inline per
/// push), then emit groups in group order. [`FusedBuilder::build`]
/// picks the column width and run-length encodes the class sequence.
///
/// Call [`FusedBuilder::fixed_group`] for a rowless fixed group, or
/// [`FusedBuilder::begin_group`] / [`FusedBuilder::push_row`] /
/// [`FusedBuilder::end_group`] for a group with candidate rows — the
/// class ([`GroupClass::Empty`] / [`GroupClass::Single`] /
/// [`GroupClass::Multi`]) is derived from the row count at `end_group`.
#[derive(Debug)]
pub struct FusedBuilder {
    cols: usize,
    class: Vec<GroupClass>,
    group_ptr: Vec<u32>,
    row_pool: Vec<u32>,
    pool_ptr: Vec<u32>,
    bias: Vec<f64>,
    col: Vec<u32>,
    weight: Vec<f64>,
    open: bool,
}

impl FusedBuilder {
    /// Starts a builder for groups whose rows index into `0..cols`.
    #[must_use]
    pub fn new(cols: usize) -> Self {
        Self {
            cols,
            class: Vec::new(),
            group_ptr: vec![0],
            row_pool: Vec::new(),
            pool_ptr: vec![0],
            bias: Vec::new(),
            col: Vec::new(),
            weight: Vec::new(),
            open: false,
        }
    }

    /// Appends `entries` (with their `bias` coefficient) to the shared
    /// pool as one row and returns its handle — intern a row once,
    /// reference it from many groups. The bias binds to the pool row,
    /// so a shared row is stored (bias included) exactly once.
    ///
    /// # Panics
    ///
    /// Panics if an entry's column is out of range or the pool outgrows
    /// the `u32` index space.
    pub fn intern(&mut self, bias: f64, entries: impl IntoIterator<Item = (u32, f64)>) -> PoolRow {
        for (c, w) in entries {
            assert!((c as usize) < self.cols, "column {c} out of range");
            self.col.push(c);
            self.weight.push(w);
        }
        self.pool_ptr.push(index_u32(self.col.len()));
        self.bias.push(bias);
        PoolRow(index_u32(self.bias.len() - 1))
    }

    /// Appends a rowless [`GroupClass::Fixed`] group.
    ///
    /// # Panics
    ///
    /// Panics if a rowful group is still open.
    pub fn fixed_group(&mut self) {
        assert!(!self.open, "close the open group before adding another");
        self.class.push(GroupClass::Fixed);
        self.group_ptr.push(index_u32(self.row_pool.len()));
    }

    /// Opens a group that will receive candidate rows.
    ///
    /// # Panics
    ///
    /// Panics if a group is already open.
    pub fn begin_group(&mut self) {
        assert!(!self.open, "close the open group before opening another");
        self.open = true;
    }

    /// Appends one candidate row (a reference to an interned pool row)
    /// to the open group.
    ///
    /// # Panics
    ///
    /// Panics if no group is open or `row` did not come from this
    /// builder's [`FusedBuilder::intern`].
    pub fn push_row(&mut self, row: PoolRow) {
        assert!(self.open, "push_row needs an open group");
        assert!(
            (row.0 as usize) < self.bias.len(),
            "pool row {} out of range",
            row.0
        );
        self.row_pool.push(row.0);
    }

    /// Convenience: interns `entries` privately and pushes the row in
    /// one call (no sharing).
    ///
    /// # Panics
    ///
    /// See [`FusedBuilder::intern`] and [`FusedBuilder::push_row`].
    pub fn push_row_inline(&mut self, bias: f64, entries: impl IntoIterator<Item = (u32, f64)>) {
        let row = self.intern(bias, entries);
        self.push_row(row);
    }

    /// Closes the open group, deriving its class from the row count.
    ///
    /// # Panics
    ///
    /// Panics if no group is open.
    pub fn end_group(&mut self) {
        assert!(self.open, "end_group needs an open group");
        self.open = false;
        let prev = *self.group_ptr.last().expect("group_ptr starts non-empty") as usize;
        let rows_in_group = self.row_pool.len() - prev;
        self.class.push(match rows_in_group {
            0 => GroupClass::Empty,
            1 => GroupClass::Single,
            _ => GroupClass::Multi,
        });
        self.group_ptr.push(index_u32(self.row_pool.len()));
    }

    /// Finalizes the structure: run-length encodes the class sequence
    /// and stores columns as `u16` when the column space fits, `u32`
    /// otherwise — a choice invisible to evaluation.
    ///
    /// # Panics
    ///
    /// Panics if a group is still open.
    #[must_use]
    pub fn build(self) -> FusedGroups {
        assert!(!self.open, "close the open group before building");
        let mut class_runs: Vec<(u32, GroupClass)> = Vec::new();
        for (g, &c) in self.class.iter().enumerate() {
            match class_runs.last_mut() {
                Some((end, k)) if *k == c => *end = g as u32 + 1,
                _ => class_runs.push((g as u32 + 1, c)),
            }
        }
        let col = if self.cols <= usize::from(u16::MAX) + 1 {
            ColData::Narrow(self.col.into_iter().map(|c| c as u16).collect())
        } else {
            ColData::Wide(self.col)
        };
        FusedGroups {
            cols: self.cols,
            class: self.class,
            class_runs,
            group_ptr: self.group_ptr,
            row_pool: self.row_pool,
            pool_ptr: self.pool_ptr,
            bias: self.bias,
            col,
            weight: self.weight,
        }
    }
}

fn index_u32(i: usize) -> u32 {
    u32::try_from(i).expect("fused layout exceeds u32 index space")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane;

    /// `sweep_best` over f64 slices: `x` and `out` go through planes.
    fn sweep(
        f: &FusedGroups,
        groups: Range<usize>,
        scale: f64,
        x: &[f64],
        maximize: bool,
        out: &mut [f64],
        decisions: Option<&mut [u16]>,
    ) {
        let o = plane::from_slice(out);
        f.sweep_best(
            groups,
            scale,
            &plane::from_slice(x),
            maximize,
            &o,
            decisions,
        );
        out.copy_from_slice(&plane::to_vec(&o));
    }

    fn sample() -> FusedGroups {
        sample_builder().build()
    }

    fn sample_builder() -> FusedBuilder {
        let mut b = FusedBuilder::new(4);
        b.fixed_group(); // group 0
        let shared = b.intern(0.25, [(0, 0.5), (3, 0.5)]);
        b.begin_group(); // group 1: two rows, one shared
        b.push_row(shared);
        b.push_row_inline(0.0, [(1, 1.0)]);
        b.end_group();
        b.begin_group(); // group 2: empty
        b.end_group();
        b.begin_group(); // group 3: single row sharing group 1's pool row
        b.push_row(shared);
        b.end_group();
        b
    }

    #[test]
    fn classes_and_shapes_are_derived() {
        let f = sample();
        assert_eq!(f.num_groups(), 4);
        assert_eq!(f.num_rows(), 3);
        assert_eq!(f.num_pool_rows(), 2);
        assert_eq!(f.num_entries(), 3); // shared row stored once
        assert_eq!(f.cols(), 4);
        assert_eq!(f.class(0), GroupClass::Fixed);
        assert_eq!(f.class(1), GroupClass::Multi);
        assert_eq!(f.class(2), GroupClass::Empty);
        assert_eq!(f.class(3), GroupClass::Single);
        assert_eq!(f.rows(0), 0..0);
        assert_eq!(f.rows(1), 0..2);
        assert_eq!(f.rows(2), 2..2);
        assert_eq!(f.rows(3), 2..3);
        assert_eq!(f.classes().len(), 4);
    }

    #[test]
    fn interned_rows_are_shared() {
        let f = sample();
        assert_eq!(f.pool_rows(1), &[0, 1]);
        assert_eq!(f.pool_rows(3), &[0]);
        assert_eq!(f.pool_bias(0), 0.25);
        assert_eq!(f.pool_bias(1), 0.0);
        let entries: Vec<_> = f.pool_entries(0).collect();
        assert_eq!(entries, vec![(0, 0.5), (3, 0.5)]);
    }

    #[test]
    fn eval_matches_manual_in_order_sum_bitwise() {
        let f = sample();
        let x = [0.1, 0.2, 0.3, 0.4];
        let scale = 0.7;
        // pool row 0: scale*0.25 + 0.5*x[0] + 0.5*x[3], in order
        let mut manual = scale * 0.25;
        manual += 0.5 * x[0];
        manual += 0.5 * x[3];
        assert_eq!(f.eval_pool_row(0, scale, &x).to_bits(), manual.to_bits());
    }

    /// The reference semantics `sweep_best` must reproduce bitwise.
    fn oracle(f: &FusedGroups, g: usize, scale: f64, x: &[f64], maximize: bool) -> (f64, u16) {
        match f.class(g) {
            GroupClass::Fixed => (scale + x[g], 0),
            GroupClass::Empty => (0.0, 0),
            _ => {
                let mut best = if maximize { -1.0f64 } else { f64::INFINITY };
                let mut bi = 0u16;
                for (k, &p) in f.pool_rows(g).iter().enumerate() {
                    let v = f.eval_pool_row(p as usize, scale, x);
                    let better = if maximize { v > best } else { v < best };
                    if better {
                        best = v;
                        bi = k as u16;
                    }
                }
                (best, bi)
            }
        }
    }

    #[test]
    fn sweep_best_matches_oracle_bitwise() {
        let f = sample();
        let x = [0.1, 0.2, 0.3, 0.4];
        for &maximize in &[true, false] {
            let mut out = vec![0.0; 4];
            let mut dec = vec![u16::MAX; 4];
            sweep(&f, 0..4, 0.7, &x, maximize, &mut out, Some(&mut dec));
            for g in 0..4 {
                let (v, d) = oracle(&f, g, 0.7, &x, maximize);
                assert_eq!(out[g].to_bits(), v.to_bits(), "group {g}");
                assert_eq!(dec[g], d, "group {g}");
            }
        }
    }

    /// Many groups with varied classes and row lengths: every fourth
    /// group fixed, every fourth empty, the rest one to three rows of one
    /// to four entries into 16 columns.
    fn varied(groups: u64, rng: u64) -> FusedBuilder {
        varied_in(groups, rng, 16)
    }

    /// One column more than `u16` indexes.
    const WIDE: usize = u16::MAX as usize + 2;

    /// [`varied`] over `cols` columns; past the first 16 columns, every
    /// row's last entry reads the highest column.
    fn varied_in(groups: u64, mut rng: u64, cols: usize) -> FusedBuilder {
        let mut b = FusedBuilder::new(cols);
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for g in 0..groups {
            match g % 4 {
                0 => b.fixed_group(),
                1 => {
                    b.begin_group();
                    b.end_group();
                }
                _ => {
                    b.begin_group();
                    for _ in 0..(next() % 3 + 1) {
                        let len = (next() % 4 + 1) as u32;
                        let high = (cols - 1) as u32;
                        b.push_row_inline(
                            (next() % 8) as f64 * 0.125,
                            (0..len).map(|j| {
                                let c = if j + 1 == len && cols > 16 {
                                    high
                                } else {
                                    (next() % 16) as u32
                                };
                                (c, f64::from(j + 1) * 0.0625)
                            }),
                        );
                    }
                    b.end_group();
                }
            }
        }
        b
    }

    #[test]
    fn sweep_best_subranges_agree_with_full_sweep() {
        // Every split point must reproduce the full sweep bitwise — the
        // property the parallel engine relies on.
        let f = varied(12, 0x2545_f491_4f6c_dd1d).build();
        let x: Vec<f64> = (0..16).map(|i| f64::from(i) * 0.37 + 0.01).collect();
        let mut full = vec![0.0; 12];
        let mut full_dec = vec![0u16; 12];
        sweep(&f, 0..12, 0.9, &x, true, &mut full, Some(&mut full_dec));
        for split in 0..=12 {
            let mut lo = vec![0.0; split];
            let mut lo_dec = vec![0u16; split];
            let mut hi = vec![0.0; 12 - split];
            let mut hi_dec = vec![0u16; 12 - split];
            sweep(&f, 0..split, 0.9, &x, true, &mut lo, Some(&mut lo_dec));
            sweep(&f, split..12, 0.9, &x, true, &mut hi, Some(&mut hi_dec));
            for g in 0..split {
                assert_eq!(lo[g].to_bits(), full[g].to_bits(), "split {split} g {g}");
                assert_eq!(lo_dec[g], full_dec[g]);
            }
            for g in split..12 {
                assert_eq!(hi[g - split].to_bits(), full[g].to_bits());
                assert_eq!(hi_dec[g - split], full_dec[g]);
            }
        }
    }

    #[test]
    fn class_runs_keep_single_and_multi_distinct() {
        let f = sample();
        // Classes: Fixed, Multi, Empty, Single — four runs.
        assert_eq!(
            f.class_runs(),
            &[
                (1, GroupClass::Fixed),
                (2, GroupClass::Multi),
                (3, GroupClass::Empty),
                (4, GroupClass::Single),
            ]
        );
    }

    #[test]
    fn timed_sweep_is_bitwise_identical_and_attributes_groups() {
        let f = sample();
        let x = [0.1, 0.2, 0.3, 0.4];
        let xp = plane::from_slice(&x);
        for &maximize in &[true, false] {
            let mut plain = vec![0.0; 4];
            let mut plain_dec = vec![u16::MAX; 4];
            sweep(
                &f,
                0..4,
                0.7,
                &x,
                maximize,
                &mut plain,
                Some(&mut plain_dec),
            );
            let timed = plane::from_slice(&[0.0; 4]);
            let mut timed_dec = vec![u16::MAX; 4];
            let mut timing = ClassTiming::default();
            f.sweep_best_timed(
                0..4,
                0.7,
                &xp,
                maximize,
                &timed,
                Some(&mut timed_dec),
                &mut timing,
            );
            for g in 0..4 {
                assert_eq!(
                    plane::get(&timed, g).to_bits(),
                    plain[g].to_bits(),
                    "group {g}"
                );
                assert_eq!(timed_dec[g], plain_dec[g], "group {g}");
            }
            // Group attribution is exact even though the ns are wall time.
            assert_eq!(timing.groups[GroupClass::Fixed as usize], 1);
            assert_eq!(timing.groups[GroupClass::Multi as usize], 1);
            assert_eq!(timing.groups[GroupClass::Empty as usize], 1);
            assert_eq!(timing.groups[GroupClass::Single as usize], 1);
        }
        // Subranges attribute only what they cover, accumulating.
        let out = plane::from_slice(&[0.0; 2]);
        let mut timing = ClassTiming::default();
        f.sweep_best_timed(1..3, 0.7, &xp, true, &out, None, &mut timing);
        assert_eq!(timing.groups, [0, 1, 0, 1]); // Multi + Empty only
        f.sweep_best_timed(1..3, 0.7, &xp, true, &out, None, &mut timing);
        assert_eq!(timing.groups, [0, 2, 0, 2]);
        let mut other = ClassTiming::default();
        other.add(&timing);
        assert_eq!(other.groups, timing.groups);
    }

    #[test]
    fn sweep_best_ties_keep_first_and_nan_keeps_sentinel() {
        let mut b = FusedBuilder::new(2);
        b.begin_group(); // two equal rows: first must win
        b.push_row_inline(0.5, [(0, 1.0)]);
        b.push_row_inline(0.5, [(0, 1.0)]);
        b.end_group();
        b.begin_group(); // NaN row then a finite row
        b.push_row_inline(f64::NAN, [(0, 1.0)]);
        b.push_row_inline(0.25, [(1, 1.0)]);
        b.end_group();
        let f = b.build();
        let x = [0.5, 0.25];
        let mut out = vec![0.0; 2];
        let mut dec = vec![u16::MAX; 2];
        sweep(&f, 0..2, 1.0, &x, true, &mut out, Some(&mut dec));
        assert_eq!(dec[0], 0, "equal rows keep the first");
        assert_eq!(dec[1], 1, "NaN row never displaces the sentinel");
        assert_eq!(out[1], 0.25 + 0.25);
        // All-NaN group: the sentinel itself survives.
        let mut b = FusedBuilder::new(1);
        b.begin_group();
        b.push_row_inline(f64::NAN, [(0, 1.0)]);
        b.end_group();
        let f = b.build();
        let mut out = vec![0.0; 1];
        sweep(&f, 0..1, 1.0, &[0.0], true, &mut out, None);
        assert_eq!(out[0], -1.0);
        sweep(&f, 0..1, 1.0, &[0.0], false, &mut out, None);
        assert_eq!(out[0], f64::INFINITY);
    }

    /// Past 65,536 columns the layout keeps `u32` columns, and the sweep
    /// over them is still the oracle's, bit for bit.
    #[test]
    fn wide_columns_sweep_like_the_oracle() {
        assert!(matches!(sample().col, ColData::Narrow(_)));
        let f = varied_in(12, 0x2545_f491_4f6c_dd1d, WIDE).build();
        assert!(matches!(f.col, ColData::Wide(_)));
        assert!(f.pool_entries(1).any(|(c, _)| c > u32::from(u16::MAX)));
        let x: Vec<f64> = (0..WIDE).map(|i| (i % 97) as f64 * 0.01).collect();
        for &maximize in &[true, false] {
            let mut out = vec![0.0; 12];
            let mut dec = vec![u16::MAX; 12];
            sweep(&f, 0..12, 0.9, &x, maximize, &mut out, Some(&mut dec));
            for g in 0..12 {
                let (v, d) = oracle(&f, g, 0.9, &x, maximize);
                assert_eq!(out[g].to_bits(), v.to_bits(), "group {g}");
                assert_eq!(dec[g], d, "group {g}");
            }
        }
    }

    #[test]
    fn empty_structure_builds() {
        let f = FusedBuilder::new(0).build();
        assert_eq!(f.num_groups(), 0);
        assert_eq!(f.num_rows(), 0);
        assert_eq!(f.num_pool_rows(), 0);
        assert!(f.class_runs().is_empty());
        assert!(f.memory_bytes() > 0); // the sentinel pointers
        let mut out: Vec<f64> = Vec::new();
        sweep(&f, 0..0, 1.0, &[], true, &mut out, None); // no-op, no panic
    }

    #[test]
    #[should_panic(expected = "open group")]
    fn unbalanced_groups_are_rejected() {
        let mut b = FusedBuilder::new(1);
        b.begin_group();
        b.begin_group();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_columns_are_rejected() {
        let mut b = FusedBuilder::new(2);
        b.intern(0.0, [(2, 1.0)]);
    }

    /// Ties, a NaN row before a finite one, and an all-NaN group.
    fn ties_and_nans() -> FusedBuilder {
        let mut b = FusedBuilder::new(3);
        b.begin_group();
        b.push_row_inline(0.5, [(0, 1.0)]);
        b.push_row_inline(0.5, [(0, 1.0)]);
        b.end_group();
        b.begin_group();
        b.push_row_inline(f64::NAN, [(0, 1.0)]);
        b.push_row_inline(0.25, [(1, 1.0)]);
        b.end_group();
        b.begin_group();
        b.push_row_inline(f64::NAN, [(2, 1.0)]);
        b.end_group();
        b
    }

    /// Lane `l`'s plane over `cols` columns.
    fn lane_x(cols: usize, l: usize) -> Vec<f64> {
        (0..cols)
            .map(|i| (i as f64 * 0.37 + 0.01) / (l as f64 + 1.0))
            .collect()
    }

    /// Interleaves one plane per lane as `[column][lane]`.
    fn interleave(lanes: &[Vec<f64>]) -> Vec<f64> {
        let cols = lanes[0].len();
        (0..cols * lanes.len())
            .map(|i| lanes[i % lanes.len()][i / lanes.len()])
            .collect()
    }

    /// Rows shared across every split point: six rows interned before
    /// the first group, the last of them never referenced, each group
    /// reading two of them, which groups at both ends of the order share,
    /// and one of the rows interned between groups, some of which no
    /// group reads. Past the first 16 columns, every row's last entry
    /// reads the highest column.
    fn shared_rows(cols: usize) -> FusedBuilder {
        let mut b = FusedBuilder::new(cols);
        let row = |b: &mut FusedBuilder, i: u32| {
            let last = if cols > 16 {
                (cols - 1) as u32
            } else {
                (i * 5 + 3) % 16
            };
            let entries = [(i % 16, 0.5), ((i * 7 + 1) % 16, 0.25), (last, 0.125)];
            b.intern(f64::from(i % 3) * 0.25, entries)
        };
        let early: Vec<PoolRow> = (0..6).map(|i| row(&mut b, i)).collect();
        let mut late = Vec::new();
        for g in 0..14 {
            match g % 7 {
                3 => b.fixed_group(),
                5 => {
                    b.begin_group();
                    b.end_group();
                }
                6 => {
                    b.begin_group();
                    b.push_row(early[g % 5]);
                    b.end_group();
                }
                _ => {
                    late.push(row(&mut b, 6 + g as u32));
                    b.begin_group();
                    b.push_row(early[g % 5]);
                    b.push_row(early[(13 - g) % 5]);
                    b.push_row(late[late.len() / 2]);
                    b.end_group();
                }
            }
        }
        b
    }

    /// Every stride and active lane count, with mixed objectives, over
    /// the whole range and every split of it, narrow and wide columns:
    /// each active lane is bitwise the single-lane sweep of its own plane,
    /// and no inactive lane is written. Each side of the split keeps one
    /// row buffer per layout, so it sweeps a new range after every split
    /// and the same range once per active lane count.
    #[test]
    fn sweep_lanes_is_each_lanes_single_sweep_bitwise() {
        const MARK: f64 = 7.5;
        let builders: [fn() -> FusedBuilder; 7] = [
            sample_builder,
            ties_and_nans,
            || varied(13, 0x9e37_79b9_7f4a_7c15),
            || varied(4, 7),
            || varied_in(9, 0x9e37_79b9_7f4a_7c15, WIDE),
            || shared_rows(16),
            || shared_rows(WIDE),
        ];
        for f in builders.iter().map(|b| b().build()) {
            let (n, cols) = (f.num_groups(), f.cols().max(f.num_groups()));
            let (mut lo_rows, mut hi_rows) = (RowBuffer::default(), RowBuffer::default());
            for stride in 1..=LANES {
                let planes: Vec<Vec<f64>> = (0..stride).map(|l| lane_x(cols, l)).collect();
                let x = plane::from_slice(&interleave(&planes));
                let runs: Vec<_> = (0..=stride)
                    .map(|active| {
                        let psi: Vec<f64> = (0..active).map(|l| 0.3 + 0.2 * l as f64).collect();
                        let maximize: Vec<bool> =
                            (0..active).map(|l| (l + stride) % 2 == 0).collect();
                        let mut expected = Vec::new();
                        for l in 0..active {
                            let mut single = vec![0.0; n];
                            sweep(&f, 0..n, psi[l], &planes[l], maximize[l], &mut single, None);
                            expected.push(single);
                        }
                        (psi, maximize, expected)
                    })
                    .collect();
                for split in 0..=n {
                    for (active, (psi, maximize, expected)) in runs.iter().enumerate() {
                        let out = plane::from_slice(&vec![MARK; n * stride]);
                        f.sweep_lanes(
                            0..split,
                            psi,
                            maximize,
                            &x,
                            stride,
                            &out[..split * stride],
                            &mut lo_rows,
                        );
                        f.sweep_lanes(
                            split..n,
                            psi,
                            maximize,
                            &x,
                            stride,
                            &out[split * stride..],
                            &mut hi_rows,
                        );
                        for g in 0..n {
                            for l in 0..stride {
                                let got = plane::get(&out, g * stride + l);
                                let want = expected.get(l).map_or(MARK, |e| e[g]);
                                assert_eq!(
                                    got.to_bits(),
                                    want.to_bits(),
                                    "stride {stride} active {active} split {split} group {g} lane {l}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// A row buffer lists each row its range references once, ascending,
    /// and no other: phase 1 evaluates none of the rows between them in
    /// pool order that the range does not read.
    #[test]
    fn a_row_buffer_lists_only_the_rows_its_range_references() {
        let f = shared_rows(16).build();
        let n = f.num_groups();
        let mut unread = 0;
        for split in 0..=n {
            for groups in [0..split, split..n] {
                let refs: Vec<u32> = groups
                    .clone()
                    .flat_map(|g| f.pool_rows(g).to_vec())
                    .collect();
                let mut rows = RowBuffer::default();
                let (ids, values) = rows.prepare(&f, &groups, 3);
                assert!(
                    ids.windows(2).all(|w| w[0] < w[1]),
                    "ascending and distinct"
                );
                assert!(ids.iter().all(|p| refs.contains(p)), "split {split}");
                assert!(refs.iter().all(|p| ids.contains(p)), "split {split}");
                let span = ids.last().map_or(0, |&hi| (hi - ids[0]) as usize + 1);
                assert_eq!(values.len(), span * 3);
                unread += span - ids.len();
            }
        }
        assert!(unread > 0, "some range's rows leave gaps in pool order");
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn more_lanes_than_the_stride_are_rejected() {
        let f = sample();
        let x = plane::from_slice(&[0.0; 4]);
        let mut rows = RowBuffer::default();
        f.sweep_lanes(0..4, &[1.0, 1.0], &[true, true], &x, 1, &x, &mut rows);
    }
}
