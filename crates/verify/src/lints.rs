//! The lint passes over IMCs, CTMCs, CTMDPs and transformation output.

use unicon_ctmc::Ctmc;
use unicon_ctmdp::Ctmdp;
use unicon_imc::{Imc, StateKind, Uniformity, View};
use unicon_numeric::rates_approx_eq;
use unicon_transform::TransformOutput;

use crate::diag::{Code, Diagnostic, Report, Severity};

/// How many individual loci a lint names before aggregating.
const MAX_LISTED: usize = 8;

/// τ-strongly-connected components larger than this trip U010: every
/// member's τ-closure contains the whole component, so closure-based
/// analyses (weak/branching signatures, maximal progress) do Ω(K²) work
/// on it.
const TAU_SCC_LIMIT: usize = 16;

/// Smallest branch probability `v / E` the Fox–Glynn weights still
/// resolve at the engine's default `ε = 1e-6`: the weights are computed
/// in double precision and normalised to total ≈ 1, so per-jump
/// contributions below ~1e-12 drown in the accumulated rounding noise
/// and the truncation slack. U009 warns below this floor.
const FOXGLYNN_SPREAD_FLOOR: f64 = 1e-12;

/// Options controlling a lint pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LintOptions {
    /// Which stability notion U001/U004/U008 quantify over. Defaults to
    /// [`View::Closed`]: the lint is a pre-flight check for the
    /// transformation, which operates on complete models under urgency.
    pub view: View,
}

impl Default for LintOptions {
    fn default() -> Self {
        Self { view: View::Closed }
    }
}

fn fmt_states(states: &[u32]) -> String {
    if states.len() <= MAX_LISTED {
        format!("{states:?}")
    } else {
        let head: Vec<u32> = states[..MAX_LISTED].to_vec();
        format!("{head:?} and {} more", states.len() - MAX_LISTED)
    }
}

/// Searches the *reachable* interactive subgraph for a cycle, optionally
/// restricted to τ transitions (the open view's maximal-progress edges).
fn reachable_interactive_cycle(imc: &Imc, reachable: &[bool], tau_only: bool) -> Option<Vec<u32>> {
    let n = imc.num_states();
    let mut color = vec![0u8; n]; // 0 white, 1 on stack, 2 done
    let mut parent = vec![u32::MAX; n];
    for root in 0..n as u32 {
        if color[root as usize] != 0 || !reachable[root as usize] {
            continue;
        }
        let mut stack: Vec<(u32, usize)> = vec![(root, 0)];
        color[root as usize] = 1;
        while let Some(&mut (s, ref mut idx)) = stack.last_mut() {
            let trans = imc.interactive_from(s);
            if *idx < trans.len() {
                let tr = trans[*idx];
                *idx += 1;
                if tau_only && !tr.action.is_tau() {
                    continue;
                }
                let t = tr.target;
                match color[t as usize] {
                    0 => {
                        color[t as usize] = 1;
                        parent[t as usize] = s;
                        stack.push((t, 0));
                    }
                    1 => {
                        let mut cycle = vec![s];
                        let mut cur = s;
                        while cur != t {
                            cur = parent[cur as usize];
                            cycle.push(cur);
                        }
                        cycle.reverse();
                        return Some(cycle);
                    }
                    _ => {}
                }
            } else {
                color[s as usize] = 2;
                stack.pop();
            }
        }
    }
    None
}

/// All reachable τ-strongly-connected components with at least two states,
/// each sorted ascending (Kosaraju's two-pass algorithm, iterative).
/// Singleton SCCs with a τ self-loop also count as nontrivial.
fn nontrivial_tau_sccs(imc: &Imc, reachable: &[bool]) -> Vec<Vec<u32>> {
    let n = imc.num_states();
    let mut fwd: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n];
    for s in 0..n as u32 {
        if !reachable[s as usize] {
            continue;
        }
        for t in imc.interactive_from(s) {
            if t.action.is_tau() && reachable[t.target as usize] {
                fwd[s as usize].push(t.target);
                rev[t.target as usize].push(s);
            }
        }
    }
    // Pass 1: forward DFS finish order.
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for root in 0..n {
        if seen[root] || !reachable[root] {
            continue;
        }
        seen[root] = true;
        let mut stack: Vec<(u32, usize)> = vec![(root as u32, 0)];
        while let Some(&mut (s, ref mut idx)) = stack.last_mut() {
            if *idx < fwd[s as usize].len() {
                let t = fwd[s as usize][*idx];
                *idx += 1;
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    stack.push((t, 0));
                }
            } else {
                order.push(s);
                stack.pop();
            }
        }
    }
    // Pass 2: reverse DFS in reverse finish order; each tree is one SCC.
    let mut assigned = vec![false; n];
    let mut out = Vec::new();
    for &root in order.iter().rev() {
        if assigned[root as usize] {
            continue;
        }
        assigned[root as usize] = true;
        let mut scc = vec![root];
        let mut stack = vec![root];
        while let Some(s) = stack.pop() {
            for &t in &rev[s as usize] {
                if !assigned[t as usize] {
                    assigned[t as usize] = true;
                    scc.push(t);
                    stack.push(t);
                }
            }
        }
        let self_loop = scc.len() == 1
            && imc
                .interactive_from(scc[0])
                .iter()
                .any(|t| t.action.is_tau() && t.target == scc[0]);
        if scc.len() > 1 || self_loop {
            scc.sort_unstable();
            out.push(scc);
        }
    }
    out
}

/// Whether a τ-SCC is a *divergence trap*: no member offers a visible
/// action and no member has an interactive transition leaving the SCC.
/// Maximal progress then pre-empts every Markov rate forever.
fn is_tau_trap(imc: &Imc, scc: &[u32]) -> bool {
    let inside = |s: u32| scc.binary_search(&s).is_ok();
    scc.iter().all(|&s| {
        imc.interactive_from(s)
            .iter()
            .all(|t| t.action.is_tau() && inside(t.target))
    })
}

/// The stable states (under `view`) reachable from `from` via τ-only
/// interactive paths, sorted ascending. `from` itself is included if
/// stable.
fn tau_stable_closure(imc: &Imc, view: View, from: u32) -> Vec<u32> {
    let mut seen = vec![false; imc.num_states()];
    let mut out = Vec::new();
    let mut stack = vec![from];
    seen[from as usize] = true;
    while let Some(s) = stack.pop() {
        if imc.is_stable(s, view) {
            out.push(s);
        }
        for t in imc.interactive_from(s) {
            if t.action.is_tau() && !seen[t.target as usize] {
                seen[t.target as usize] = true;
                stack.push(t.target);
            }
        }
    }
    out.sort_unstable();
    out
}

/// Lints an IMC: uniformity (U001), rate well-formedness (U003),
/// closedness (U004), deadlocks (U006), unreachable states (U007),
/// Zeno/pre-emption findings (U008), large τ-SCCs (U010), τ-divergence
/// traps (U011) and confluent τ-branches (U013).
///
/// # Examples
///
/// ```
/// use unicon_imc::ImcBuilder;
/// use unicon_verify::{lint_imc, Code, LintOptions};
///
/// let mut b = ImcBuilder::new(2, 0);
/// b.markov(0, 1.0, 1);
/// b.markov(1, 2.0, 0); // different exit rate: not uniform
/// let report = lint_imc(&b.build(), &LintOptions::default());
/// assert_eq!(report.diagnostics()[0].code, Code::U001);
/// assert!(report.has_errors());
/// ```
pub fn lint_imc(imc: &Imc, opts: &LintOptions) -> Report {
    let mut r = Report::new();
    let reachable = imc.reachable_states();

    // U003: ill-formed rates. The builders reject these, so a hit means an
    // upstream invariant was broken — checked anyway as defence in depth.
    for m in imc.markov() {
        if !(m.rate.is_finite() && m.rate > 0.0) {
            r.push(
                Diagnostic::new(
                    Code::U003,
                    Severity::Error,
                    format!(
                        "Markov transition to state {} has rate {}",
                        m.target, m.rate
                    ),
                )
                .with_state(m.source)
                .with_hint("rates must be finite and strictly positive"),
            );
        }
    }
    for s in 0..imc.num_states() as u32 {
        if !imc.exit_rate(s).is_finite() {
            r.push(
                Diagnostic::new(
                    Code::U003,
                    Severity::Error,
                    format!("exit rate overflows to {}", imc.exit_rate(s)),
                )
                .with_state(s)
                .with_hint("rescale the model's rates"),
            );
        }
    }

    // U001 / U004: uniformity under the chosen view (Definition 4).
    match imc.uniformity(opts.view) {
        Uniformity::Uniform(_) => {}
        Uniformity::Vacuous => {
            if opts.view == View::Closed {
                r.push(
                    Diagnostic::new(
                        Code::U004,
                        Severity::Warning,
                        "no reachable stable state under the closed view: every reachable \
                         state offers interactive transitions, so the model is still open \
                         and no time can pass under urgency",
                    )
                    .with_state(imc.initial())
                    .with_hint(
                        "compose the model with its environment (or hide its actions) \
                         before closing it",
                    ),
                );
            }
        }
        Uniformity::NonUniform {
            state_a,
            rate_a,
            state_b,
            rate_b,
        } => {
            r.push(
                Diagnostic::new(
                    Code::U001,
                    Severity::Error,
                    format!(
                        "reachable stable states {state_a} and {state_b} have different \
                         exit rates {rate_a} and {rate_b}"
                    ),
                )
                .with_state(state_b)
                .with_hint(
                    "uniformity by construction failed: uniformize the components at a \
                     shared rate (e.g. via elapse/shared_elapse) before composing",
                ),
            );
        }
    }

    // U006: reachable absorbing states (the paper assumes S_A = ∅).
    for s in 0..imc.num_states() as u32 {
        if reachable[s as usize] && imc.kind(s) == StateKind::Absorbing {
            r.push(
                Diagnostic::new(
                    Code::U006,
                    Severity::Warning,
                    "reachable absorbing state: no outgoing transitions",
                )
                .with_state(s)
                .with_hint(
                    "the transformation rejects dead ends; add a self-loop or repair \
                            transition",
                ),
            );
        }
    }

    // U007: unreachable states.
    let unreachable: Vec<u32> = (0..imc.num_states() as u32)
        .filter(|&s| !reachable[s as usize])
        .collect();
    if !unreachable.is_empty() {
        r.push(
            Diagnostic::new(
                Code::U007,
                Severity::Warning,
                format!(
                    "{} of {} states are unreachable from the initial state: {}",
                    unreachable.len(),
                    imc.num_states(),
                    fmt_states(&unreachable)
                ),
            )
            .with_hint(
                "drop them with restrict_to_reachable(); uniformity only quantifies \
                        over reachable states, so dead states can hide rate mismatches",
            ),
        );
    }

    // U008: interactive cycles — Zeno behaviour. Under the closed view any
    // interactive cycle diverges in zero time (and the transformation
    // rejects it); under the open view only τ-cycles are instantaneous.
    let tau_only = opts.view == View::Open;
    if let Some(cycle) = reachable_interactive_cycle(imc, &reachable, tau_only) {
        let kind = if tau_only {
            "τ-cycle"
        } else {
            "interactive cycle"
        };
        r.push(
            Diagnostic::new(
                Code::U008,
                Severity::Error,
                format!(
                    "{kind} through states {}: Zeno behaviour (infinitely many actions \
                         in zero time)",
                    fmt_states(&cycle)
                ),
            )
            .with_state(cycle[0])
            .with_hint("break the cycle with a Markov delay, or keep the model open"),
        );
    }

    // U008 (info): Markov rates that can never fire because the state is
    // unstable under the chosen view — pre-empted, dead weight.
    let pre_empted: Vec<u32> = (0..imc.num_states() as u32)
        .filter(|&s| {
            reachable[s as usize] && !imc.is_stable(s, opts.view) && !imc.markov_from(s).is_empty()
        })
        .collect();
    if !pre_empted.is_empty() {
        let what = match opts.view {
            View::Closed => "urgency",
            View::Open => "maximal progress",
        };
        r.push(
            Diagnostic::new(
                Code::U008,
                Severity::Info,
                format!(
                    "{} reachable states carry Markov rates that {what} pre-empts: {}",
                    pre_empted.len(),
                    fmt_states(&pre_empted)
                ),
            )
            .with_hint("harmless — the transformation cuts these transitions (step 1)"),
        );
    }

    // U010 / U011: τ-SCC findings. U010 is the performance smell (large
    // components make closure-based analyses quadratic); U011 is the
    // semantic trap — a component nobody can leave and that offers no
    // visible action livelocks the model under maximal progress, pre-empting
    // its Markov rates forever.
    for scc in nontrivial_tau_sccs(imc, &reachable) {
        if scc.len() > TAU_SCC_LIMIT {
            r.push(
                Diagnostic::new(
                    Code::U010,
                    Severity::Warning,
                    format!(
                        "τ-strongly-connected component spans {} states (> {TAU_SCC_LIMIT}): \
                         each member's τ-closure walks the whole component, making \
                         closure-based analyses quadratic in its size: {}",
                        scc.len(),
                        fmt_states(&scc)
                    ),
                )
                .with_state(scc[0])
                .with_hint(
                    "minimize the components before composing — weak bisimulation collapses \
                     a τ-SCC to a single state",
                ),
            );
        }
        if is_tau_trap(imc, &scc) {
            r.push(
                Diagnostic::new(
                    Code::U011,
                    Severity::Error,
                    format!(
                        "τ-divergence trap: the {} states {} form a τ-SCC with no visible \
                         action and no interactive escape, so maximal progress pre-empts \
                         every Markov rate forever (livelock in zero time)",
                        scc.len(),
                        fmt_states(&scc)
                    ),
                )
                .with_state(scc[0])
                .with_hint(
                    "break the internal cycle with a Markov delay, or leave one of the \
                     cycle's actions visible so the environment can interrupt it",
                ),
            );
        }
    }

    // U013: confluent τ-branches. A state whose τ-alternatives all commit
    // to the same stable states is not a real decision point — IOSA-style
    // confluence says the nondeterminism is an artifact of interleaving.
    // Informational: harmless for worst-case analyses (every resolution
    // yields the same measure) but worth collapsing before scaling up.
    let mut confluent: Vec<u32> = Vec::new();
    for s in 0..imc.num_states() as u32 {
        if !reachable[s as usize] {
            continue;
        }
        let mut tau_targets: Vec<u32> = imc
            .interactive_from(s)
            .iter()
            .filter(|t| t.action.is_tau() && t.target != s)
            .map(|t| t.target)
            .collect();
        tau_targets.sort_unstable();
        tau_targets.dedup();
        if tau_targets.len() < 2 {
            continue;
        }
        let first = tau_stable_closure(imc, opts.view, tau_targets[0]);
        if !first.is_empty()
            && tau_targets[1..]
                .iter()
                .all(|&t| tau_stable_closure(imc, opts.view, t) == first)
        {
            confluent.push(s);
        }
    }
    if !confluent.is_empty() {
        r.push(
            Diagnostic::new(
                Code::U013,
                Severity::Info,
                format!(
                    "{} states have confluent τ-branches (all alternatives commit to the \
                     same stable states): {} — the nondeterminism is spurious",
                    confluent.len(),
                    fmt_states(&confluent)
                ),
            )
            .with_state(confluent[0])
            .with_hint(
                "branching-bisimulation minimization merges confluent branches; run \
                 minimize() before the transformation",
            ),
        );
    }

    r
}

/// Lints a parallel composition's product map (U012): component states that
/// appear in **no** product state. The synchronization set then structurally
/// excludes part of a component — usually a misspelled action name or a
/// constraint wired to the wrong restart action.
///
/// `map[p] = (l, r)` gives the component states of product state `p`, as
/// returned by `Imc::parallel_with_map`; `left`/`right` are the component
/// state counts.
pub fn lint_product(left: usize, right: usize, map: &[(u32, u32)]) -> Report {
    let mut r = Report::new();
    let mut seen_l = vec![false; left];
    let mut seen_r = vec![false; right];
    for &(l, rr) in map {
        if let Some(slot) = seen_l.get_mut(l as usize) {
            *slot = true;
        }
        if let Some(slot) = seen_r.get_mut(rr as usize) {
            *slot = true;
        }
    }
    for (side, seen, n) in [("left", &seen_l, left), ("right", &seen_r, right)] {
        let missing: Vec<u32> = (0..n as u32).filter(|&s| !seen[s as usize]).collect();
        if !missing.is_empty() {
            r.push(
                Diagnostic::new(
                    Code::U012,
                    Severity::Warning,
                    format!(
                        "{} of {n} {side}-component states appear in no product state: {}",
                        missing.len(),
                        fmt_states(&missing)
                    ),
                )
                .with_state(missing[0])
                .with_hint(
                    "the synchronization set excludes these states structurally — check \
                     the synchronized action names and the components' initial states",
                ),
            );
        }
    }
    r
}

/// Lints a transient analysis request against the Fox–Glynn certifiable
/// floor (U014): at uniformization rate `E` and horizon `t`, the weights
/// can only certify truncation error down to
/// `FoxGlynn::min_certifiable_epsilon(E·t)`; a tighter `epsilon` silently
/// degrades to the floor (or fails), so the reported precision is a lie.
pub fn lint_truncation(ctmdp: &Ctmdp, t: f64, epsilon: f64) -> Report {
    let mut r = Report::new();
    let Ok(rate) = ctmdp.uniform_rate() else {
        // Non-uniform models are U001 territory (lint_ctmdp); without a
        // single E there is no λ = E·t to condition on.
        return r;
    };
    let lambda = rate * t;
    if !(lambda.is_finite() && lambda > 0.0) {
        return r;
    }
    let floor = unicon_numeric::foxglynn::FoxGlynn::min_certifiable_epsilon(lambda);
    if epsilon < floor {
        r.push(
            Diagnostic::new(
                Code::U014,
                Severity::Warning,
                format!(
                    "requested epsilon {epsilon:e} is below the Fox–Glynn certifiable \
                     floor {floor:.3e} at λ = E·t = {lambda} (E = {rate}, t = {t}): the \
                     truncation window cannot guarantee that precision"
                ),
            )
            .with_hint(
                "raise epsilon to at least the floor, or shorten the horizon / lower the \
                 uniform rate (e.g. via a coarser shared_elapse timer)",
            ),
        );
    }
    r
}

/// Lints a CTMC: uniformity (U001, a warning — uniformization can repair
/// it), exit-rate bookkeeping (U002), rate well-formedness (U003),
/// absorbing states (U006, informational) and unreachable states (U007).
pub fn lint_ctmc(ctmc: &Ctmc) -> Report {
    let mut r = Report::new();
    let n = ctmc.num_states();

    // U003 first: ill-formed entries make every later judgement moot.
    for (s, t, v) in ctmc.rates().triplets() {
        if !(v.is_finite() && v > 0.0) {
            r.push(
                Diagnostic::new(
                    Code::U003,
                    Severity::Error,
                    format!("rate R({s},{t}) = {v}"),
                )
                .with_state(s as u32)
                .with_hint("rates must be finite and strictly positive"),
            );
        }
    }

    // U002: the cached exit rates must match the row sums they cache.
    for s in 0..n {
        let recomputed: f64 = ctmc.rates().row(s).map(|(_, v)| v).sum();
        if !rates_approx_eq(ctmc.exit_rate(s), recomputed) {
            r.push(
                Diagnostic::new(
                    Code::U002,
                    Severity::Error,
                    format!(
                        "cached exit rate {} disagrees with recomputed row sum {}",
                        ctmc.exit_rate(s),
                        recomputed
                    ),
                )
                .with_state(s as u32)
                .with_hint("internal inconsistency — please report this as a bug"),
            );
        }
    }

    // U001: non-uniform CTMCs are legitimate inputs (uniformize() exists),
    // so this is only a warning here.
    if ctmc.uniform_rate().is_none() {
        let mut witness: Option<(usize, f64)> = None;
        for s in 0..n {
            let e = ctmc.exit_rate(s);
            match witness {
                None => witness = Some((s, e)),
                Some((w, ew)) => {
                    if !rates_approx_eq(e, ew) {
                        r.push(
                            Diagnostic::new(
                                Code::U001,
                                Severity::Warning,
                                format!(
                                    "states {w} and {s} have different exit rates {ew} and {e}"
                                ),
                            )
                            .with_state(s as u32)
                            .with_hint(
                                "apply uniformize(rate) with rate ≥ the maximal exit \
                                        rate",
                            ),
                        );
                        break;
                    }
                }
            }
        }
    }

    // Reachability over the rate graph.
    let mut reachable = vec![false; n];
    reachable[ctmc.initial() as usize] = true;
    let mut stack = vec![ctmc.initial() as usize];
    while let Some(s) = stack.pop() {
        for (t, _) in ctmc.rates().row(s) {
            if !reachable[t] {
                reachable[t] = true;
                stack.push(t);
            }
        }
    }

    // U006: absorbing states are meaningful for CTMCs (phase-type
    // completion states), so only note them.
    for (s, _) in reachable.iter().enumerate().filter(|&(_, &re)| re) {
        if ctmc.is_absorbing(s) {
            r.push(
                Diagnostic::new(Code::U006, Severity::Info, "absorbing state (exit rate 0)")
                    .with_state(s as u32),
            );
        }
    }

    // U007: unreachable states.
    let unreachable: Vec<u32> = (0..n as u32).filter(|&s| !reachable[s as usize]).collect();
    if !unreachable.is_empty() {
        r.push(
            Diagnostic::new(
                Code::U007,
                Severity::Warning,
                format!(
                    "{} of {n} states are unreachable from the initial state: {}",
                    unreachable.len(),
                    fmt_states(&unreachable)
                ),
            )
            .with_hint("unreachable states distort the uniformity judgement"),
        );
    }

    r
}

/// Lints a CTMDP: uniformity (U001 — Algorithm 1's precondition, an
/// error), rate-function bookkeeping (U002), rate well-formedness (U003),
/// action-less states (U006) and unreachable states (U007).
pub fn lint_ctmdp(ctmdp: &Ctmdp) -> Report {
    let mut r = Report::new();
    let n = ctmdp.num_states();

    // U003: ill-formed rate-function entries.
    for (i, rf) in ctmdp.rate_functions().enumerate() {
        for &(t, v) in rf.targets() {
            if !(v.is_finite() && v > 0.0) {
                r.push(
                    Diagnostic::new(
                        Code::U003,
                        Severity::Error,
                        format!("rate function {i} maps state {t} to rate {v}"),
                    )
                    .with_hint("rates must be finite and strictly positive"),
                );
            }
        }
        // U002: the cached total must equal the branch sum.
        let recomputed: f64 = rf.targets().iter().map(|&(_, v)| v).sum();
        if !rates_approx_eq(rf.total(), recomputed) {
            r.push(
                Diagnostic::new(
                    Code::U002,
                    Severity::Error,
                    format!(
                        "rate function {i}: cached exit rate {} disagrees with branch sum {}",
                        rf.total(),
                        recomputed
                    ),
                )
                .with_hint("internal inconsistency — please report this as a bug"),
            );
        }
    }

    // U001: Algorithm 1 is only correct on uniform CTMDPs, so this is an
    // error — the same check reachability::timed_reachability enforces.
    if let Err(e) = ctmdp.uniform_rate() {
        r.push(
            Diagnostic::new(
                Code::U001,
                Severity::Error,
                format!(
                    "transitions with different exit rates {} and {}",
                    e.rate_a, e.rate_b
                ),
            )
            .with_hint(
                "Algorithm 1 requires a uniform CTMDP; obtain one by transforming a \
                 uniform IMC (uniformity by construction) instead of building directly",
            ),
        );
    }

    // U009: rate magnitudes spread wider than Fox–Glynn resolves. The
    // uniformization rate E is pinned by the fastest transition, and a
    // branch of rate v only contributes probability v/E per jump — once
    // that ratio sinks below the weights' floating-point floor, the slow
    // branch silently contributes nothing to any transient analysis.
    let max_exit = ctmdp
        .rate_functions()
        .map(|rf| rf.total())
        .filter(|e| e.is_finite())
        .fold(0.0f64, f64::max);
    let min_branch = ctmdp
        .rate_functions()
        .flat_map(|rf| rf.targets().iter())
        .map(|&(_, v)| v)
        .filter(|v| v.is_finite() && *v > 0.0)
        .fold(f64::INFINITY, f64::min);
    if max_exit > 0.0 && min_branch.is_finite() && min_branch / max_exit < FOXGLYNN_SPREAD_FLOOR {
        r.push(
            Diagnostic::new(
                Code::U009,
                Severity::Warning,
                format!(
                    "rate magnitudes spread over {:.1e}: smallest branch rate {min_branch:e} \
                     against fastest exit rate {max_exit:e}, so the slow branch's per-jump \
                     probability {:.1e} is below the {FOXGLYNN_SPREAD_FLOOR:e} resolution of \
                     the Fox–Glynn weights at the default epsilon 1e-6",
                    max_exit / min_branch,
                    min_branch / max_exit
                ),
            )
            .with_hint(
                "the uniformization rate is driven by the fastest transition; rescale the \
                 slow rates, analyse the fast subsystem separately, or tighten epsilon only \
                 as far as min_certifiable_epsilon allows",
            ),
        );
    }

    // Reachability over chosen-transition branches.
    let mut reachable = vec![false; n];
    reachable[ctmdp.initial() as usize] = true;
    let mut stack = vec![ctmdp.initial()];
    while let Some(s) = stack.pop() {
        for tr in ctmdp.transitions_from(s) {
            for &(t, _) in ctmdp.rate_function(tr.rate_fn).targets() {
                if !reachable[t as usize] {
                    reachable[t as usize] = true;
                    stack.push(t);
                }
            }
        }
    }

    // U006: reachable states without any transition (`R(s) = ∅`).
    for s in 0..n as u32 {
        if reachable[s as usize] && ctmdp.transitions_from(s).is_empty() {
            r.push(
                Diagnostic::new(
                    Code::U006,
                    Severity::Warning,
                    "reachable state offers no transition (Definition 1 forbids R(s) = ∅)",
                )
                .with_state(s)
                .with_hint("the probability mass entering this state is stuck forever"),
            );
        }
    }

    // U007: unreachable states.
    let unreachable: Vec<u32> = (0..n as u32).filter(|&s| !reachable[s as usize]).collect();
    if !unreachable.is_empty() {
        r.push(
            Diagnostic::new(
                Code::U007,
                Severity::Warning,
                format!(
                    "{} of {n} states are unreachable from the initial state: {}",
                    unreachable.len(),
                    fmt_states(&unreachable)
                ),
            )
            .with_hint("unreachable states distort the uniformity judgement"),
        );
    }

    r
}

/// Lints the strict-alternation normal form (U005): every state is purely
/// interactive or purely Markov, interactive transitions end in Markov
/// states, Markov transitions in interactive states, and the initial state
/// is interactive — the shape Theorem 1's CTMDP reading requires.
pub fn lint_alternation(imc: &Imc) -> Report {
    let mut r = Report::new();
    for s in 0..imc.num_states() as u32 {
        match imc.kind(s) {
            StateKind::Hybrid => {
                r.push(
                    Diagnostic::new(
                        Code::U005,
                        Severity::Error,
                        "hybrid state (both interactive and Markov transitions) in a \
                         strictly alternating IMC",
                    )
                    .with_state(s)
                    .with_hint("run make_alternating (step 1) to cut the pre-empted rates"),
                );
            }
            StateKind::Absorbing => {
                r.push(
                    Diagnostic::new(
                        Code::U005,
                        Severity::Error,
                        "absorbing state in a strictly alternating IMC",
                    )
                    .with_state(s)
                    .with_hint("strict alternation forbids dead ends"),
                );
            }
            StateKind::Interactive => {
                for t in imc.interactive_from(s) {
                    if imc.kind(t.target) != StateKind::Markov {
                        r.push(
                            Diagnostic::new(
                                Code::U005,
                                Severity::Error,
                                format!(
                                    "interactive transition ends in non-Markov state {}",
                                    t.target
                                ),
                            )
                            .with_state(s)
                            .with_action(imc.actions().name(t.action))
                            .with_hint(
                                "run make_interactive_alternating (step 3) to \
                                        compress interactive sequences into words",
                            ),
                        );
                    }
                }
            }
            StateKind::Markov => {
                for m in imc.markov_from(s) {
                    if imc.kind(m.target) != StateKind::Interactive {
                        r.push(
                            Diagnostic::new(
                                Code::U005,
                                Severity::Error,
                                format!(
                                    "Markov transition ends in non-interactive state {}",
                                    m.target
                                ),
                            )
                            .with_state(s)
                            .with_hint(
                                "run make_markov_alternating (step 2) to split \
                                        Markov→Markov edges",
                            ),
                        );
                    }
                }
            }
        }
    }
    if imc.kind(imc.initial()) != StateKind::Interactive {
        r.push(
            Diagnostic::new(
                Code::U005,
                Severity::Error,
                "initial state is not interactive (Definition 1 requires s₀ ∈ S_I)",
            )
            .with_state(imc.initial())
            .with_hint("prepend a fresh τ-initial state"),
        );
    }
    r
}

/// Lints a completed transformation: the strictly alternating IMC must be
/// in normal form (U005), the extracted CTMDP must lint clean, and the
/// origin/zero-closure maps must be consistent with both (U002).
///
/// `input` is the IMC the transformation ran on; the maps translate CTMDP
/// states back into its state space.
pub fn lint_transform_output(input: &Imc, out: &TransformOutput) -> Report {
    let mut r = lint_alternation(&out.strictly_alternating);
    r.merge(lint_ctmdp(&out.ctmdp));

    let n_ctmdp = out.ctmdp.num_states();
    if out.ctmdp_state_origin.len() != n_ctmdp {
        r.push(
            Diagnostic::new(
                Code::U002,
                Severity::Error,
                format!(
                    "origin map has {} entries for {n_ctmdp} CTMDP states",
                    out.ctmdp_state_origin.len()
                ),
            )
            .with_hint("internal inconsistency — please report this as a bug"),
        );
    }
    if out.ctmdp_zero_closure.len() != n_ctmdp {
        r.push(
            Diagnostic::new(
                Code::U002,
                Severity::Error,
                format!(
                    "zero-closure map has {} entries for {n_ctmdp} CTMDP states",
                    out.ctmdp_zero_closure.len()
                ),
            )
            .with_hint("internal inconsistency — please report this as a bug"),
        );
    }
    let n_input = input.num_states() as u32;
    for (s, &origin) in out.ctmdp_state_origin.iter().enumerate() {
        if origin >= n_input {
            r.push(
                Diagnostic::new(
                    Code::U002,
                    Severity::Error,
                    format!("origin {origin} of CTMDP state {s} is not an input state"),
                )
                .with_state(s as u32)
                .with_hint("internal inconsistency — please report this as a bug"),
            );
        } else if let Some(closure) = out.ctmdp_zero_closure.get(s) {
            if !closure.contains(&origin) {
                r.push(
                    Diagnostic::new(
                        Code::U002,
                        Severity::Error,
                        format!("zero closure of CTMDP state {s} misses its own origin {origin}"),
                    )
                    .with_state(s as u32)
                    .with_hint("internal inconsistency — please report this as a bug"),
                );
            }
            if let Some(&bad) = closure.iter().find(|&&o| o >= n_input) {
                r.push(
                    Diagnostic::new(
                        Code::U002,
                        Severity::Error,
                        format!(
                            "zero closure of CTMDP state {s} contains non-input state \
                                 {bad}"
                        ),
                    )
                    .with_state(s as u32)
                    .with_hint("internal inconsistency — please report this as a bug"),
                );
            }
        }
    }
    if out.stats.interactive_states != n_ctmdp {
        r.push(
            Diagnostic::new(
                Code::U002,
                Severity::Error,
                format!(
                    "statistics report {} interactive states but the CTMDP has {n_ctmdp}",
                    out.stats.interactive_states
                ),
            )
            .with_hint("internal inconsistency — please report this as a bug"),
        );
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicon_ctmdp::CtmdpBuilder;
    use unicon_imc::ImcBuilder;
    use unicon_transform::transform;

    fn codes(r: &Report) -> Vec<Code> {
        r.diagnostics().iter().map(|d| d.code).collect()
    }

    #[test]
    fn uniform_closed_model_lints_clean() {
        // 0 --tick--> 1, both Markov at rate 2, decision at 2.
        let mut b = ImcBuilder::new(3, 0);
        b.markov(0, 2.0, 1);
        b.markov(1, 2.0, 2);
        b.interactive("left", 2, 0);
        b.interactive("right", 2, 1);
        let r = lint_imc(&b.build(), &LintOptions::default());
        assert!(
            r.is_clean(),
            "unexpected diagnostics: {:?}",
            r.diagnostics()
        );
    }

    #[test]
    fn non_uniform_fires_u001() {
        let mut b = ImcBuilder::new(2, 0);
        b.markov(0, 1.0, 1);
        b.markov(1, 2.0, 0);
        let r = lint_imc(&b.build(), &LintOptions::default());
        assert!(codes(&r).contains(&Code::U001));
        assert!(r.has_errors());
    }

    #[test]
    fn open_model_fires_u004_under_closed_view() {
        // Every state interactive: vacuously uniform, but no time passes.
        let mut b = ImcBuilder::new(2, 0);
        b.interactive("ping", 0, 1);
        b.interactive("pong", 1, 0);
        b.markov(0, 1.0, 1); // pre-empted by urgency
        let imc = b.build();
        let r = lint_imc(&imc, &LintOptions::default());
        assert!(codes(&r).contains(&Code::U004));
        assert!(!r.is_clean());
        // ...but under the open view the same model is fine (states are
        // τ-free, hence stable; rate mismatch 1 vs 0 fires U001 instead).
        let r_open = lint_imc(&imc, &LintOptions { view: View::Open });
        assert!(!codes(&r_open).contains(&Code::U004));
    }

    #[test]
    fn deadlock_fires_u006() {
        let mut b = ImcBuilder::new(2, 0);
        b.markov(0, 1.0, 1); // state 1 absorbing
        let r = lint_imc(&b.build(), &LintOptions::default());
        assert!(codes(&r).contains(&Code::U006));
    }

    #[test]
    fn unreachable_fires_u007_aggregated() {
        let mut b = ImcBuilder::new(4, 0);
        b.markov(0, 1.0, 1);
        b.markov(1, 1.0, 0);
        b.markov(2, 1.0, 3);
        b.markov(3, 1.0, 2);
        let r = lint_imc(&b.build(), &LintOptions::default());
        let u7: Vec<_> = r
            .diagnostics()
            .iter()
            .filter(|d| d.code == Code::U007)
            .collect();
        assert_eq!(u7.len(), 1);
        assert!(u7[0].message.contains("2 of 4"));
    }

    #[test]
    fn interactive_cycle_fires_u008_closed_only_for_visible() {
        let mut b = ImcBuilder::new(2, 0);
        b.interactive("a", 0, 1);
        b.interactive("b", 1, 0);
        b.markov(0, 1.0, 1);
        b.markov(1, 1.0, 0);
        let imc = b.build();
        // Closed view: visible cycle is Zeno under urgency.
        let r = lint_imc(&imc, &LintOptions::default());
        assert!(codes(&r).contains(&Code::U008));
        assert!(r.has_errors());
        // Open view: visible actions are delayable, no Zeno.
        let r_open = lint_imc(&imc, &LintOptions { view: View::Open });
        assert!(r_open
            .diagnostics()
            .iter()
            .all(|d| !(d.code == Code::U008 && d.severity == Severity::Error)));
    }

    #[test]
    fn tau_cycle_fires_u008_under_open_view() {
        let mut b = ImcBuilder::new(2, 0);
        b.tau(0, 1);
        b.tau(1, 0);
        b.markov(0, 1.0, 1);
        let r = lint_imc(&b.build(), &LintOptions { view: View::Open });
        assert!(codes(&r).contains(&Code::U008));
        assert!(r.has_errors());
    }

    #[test]
    fn unreachable_cycle_does_not_fire_u008() {
        // The τ-cycle lives in an unreachable component: transform() never
        // sees it, so neither does the lint (only U007 flags the dead part).
        let mut b = ImcBuilder::new(3, 0);
        b.markov(0, 1.0, 0);
        b.tau(1, 2);
        b.tau(2, 1);
        let r = lint_imc(&b.build(), &LintOptions::default());
        assert!(!codes(&r).contains(&Code::U008));
        assert!(codes(&r).contains(&Code::U007));
    }

    #[test]
    fn pre_empted_rates_are_informational() {
        let mut b = ImcBuilder::new(2, 0);
        b.interactive("go", 0, 1);
        b.markov(0, 5.0, 1); // hybrid: urgency cuts this rate
        b.markov(1, 5.0, 0);
        let r = lint_imc(&b.build(), &LintOptions::default());
        let info: Vec<_> = r
            .diagnostics()
            .iter()
            .filter(|d| d.code == Code::U008)
            .collect();
        assert_eq!(info.len(), 1);
        assert_eq!(info[0].severity, Severity::Info);
        assert!(r.is_clean());
    }

    #[test]
    fn ctmc_lints() {
        let c = Ctmc::from_rates(2, 0, [(0, 1, 1.0), (1, 0, 2.0)]);
        let r = lint_ctmc(&c);
        assert!(codes(&r).contains(&Code::U001));
        assert!(!r.has_errors(), "non-uniform CTMC is only a warning");

        let u = c.uniformize(2.0);
        assert!(lint_ctmc(&u).is_clean());
    }

    #[test]
    fn ctmc_absorbing_is_info_unreachable_is_warning() {
        let c = Ctmc::from_rates(3, 0, [(0, 1, 1.0), (1, 1, 1.0)]);
        let r = lint_ctmc(&c);
        // state 2 unreachable; no absorbing state reachable
        assert!(codes(&r).contains(&Code::U007));
        let c2 = Ctmc::from_rates(2, 0, [(0, 1, 1.0)]);
        let r2 = lint_ctmc(&c2);
        let abs: Vec<_> = r2
            .diagnostics()
            .iter()
            .filter(|d| d.code == Code::U006)
            .collect();
        assert_eq!(abs.len(), 1);
        assert_eq!(abs[0].severity, Severity::Info);
    }

    #[test]
    fn ctmdp_non_uniform_is_error() {
        let mut b = CtmdpBuilder::new(2, 0);
        b.transition(0, "a", &[(1, 1.0)]);
        b.transition(1, "b", &[(0, 2.0)]);
        let r = lint_ctmdp(&b.build());
        assert!(codes(&r).contains(&Code::U001));
        assert!(r.has_errors());
    }

    #[test]
    fn ctmdp_action_less_state_is_u006() {
        let mut b = CtmdpBuilder::new(2, 0);
        b.transition(0, "a", &[(1, 1.0)]);
        let r = lint_ctmdp(&b.build());
        assert!(codes(&r).contains(&Code::U006));
    }

    #[test]
    fn ctmdp_extreme_rate_spread_fires_u009() {
        // branch probability 1e-7 / (1e9 + 1e-7) ≈ 1e-16 < 1e-12: the slow
        // branch is invisible to Fox–Glynn at the default epsilon
        let mut b = CtmdpBuilder::new(2, 0);
        b.transition(0, "a", &[(1, 1e9), (0, 1e-7)]);
        b.transition(1, "b", &[(0, 1e9 + 1e-7)]);
        let r = lint_ctmdp(&b.build());
        let u9: Vec<_> = r
            .diagnostics()
            .iter()
            .filter(|d| d.code == Code::U009)
            .collect();
        assert_eq!(u9.len(), 1, "diagnostics: {:?}", r.diagnostics());
        assert_eq!(u9[0].severity, Severity::Warning);
        assert!(u9[0].message.contains("spread"), "{}", u9[0].message);
        assert!(
            u9[0]
                .hint
                .as_deref()
                .unwrap_or("")
                .contains("uniformization"),
            "hint must point at the uniformization rate"
        );
    }

    #[test]
    fn ctmdp_moderate_rate_spread_stays_silent() {
        // spread 1e6: comfortably within Fox–Glynn resolution
        let mut b = CtmdpBuilder::new(2, 0);
        b.transition(0, "a", &[(1, 1e3), (0, 1e-3)]);
        b.transition(1, "b", &[(0, 1e3 + 1e-3)]);
        let r = lint_ctmdp(&b.build());
        assert!(!codes(&r).contains(&Code::U009), "{:?}", r.diagnostics());
    }

    #[test]
    fn large_tau_scc_fires_u010() {
        // τ-ring of 20 states: one SCC above the limit. (It also fires
        // U008 — Zeno — but U010 is the performance finding.)
        let n = 20u32;
        let mut b = ImcBuilder::new(n as usize, 0);
        for s in 0..n {
            b.tau(s, (s + 1) % n);
        }
        let r = lint_imc(&b.build(), &LintOptions::default());
        let u10: Vec<_> = r
            .diagnostics()
            .iter()
            .filter(|d| d.code == Code::U010)
            .collect();
        assert_eq!(u10.len(), 1, "diagnostics: {:?}", r.diagnostics());
        assert_eq!(u10[0].severity, Severity::Warning);
        assert!(u10[0].message.contains("20 states"), "{}", u10[0].message);
        assert!(
            u10[0].hint.as_deref().unwrap_or("").contains("minimize"),
            "hint must recommend minimizing before composing"
        );
    }

    #[test]
    fn small_tau_cycle_does_not_fire_u010() {
        let mut b = ImcBuilder::new(2, 0);
        b.tau(0, 1);
        b.tau(1, 0);
        let r = lint_imc(&b.build(), &LintOptions::default());
        assert!(!codes(&r).contains(&Code::U010), "{:?}", r.diagnostics());
    }

    #[test]
    fn unreachable_tau_scc_does_not_fire_u010() {
        // A big τ-ring in a dead component: the lint only inspects the
        // reachable subgraph (matching U008's behaviour).
        let n = 24u32;
        let mut b = ImcBuilder::new(n as usize, 0);
        b.markov(0, 1.0, 0);
        for s in 1..n {
            let next = if s + 1 == n { 1 } else { s + 1 };
            b.tau(s, next);
        }
        let r = lint_imc(&b.build(), &LintOptions::default());
        assert!(!codes(&r).contains(&Code::U010), "{:?}", r.diagnostics());
        assert!(codes(&r).contains(&Code::U007));
    }

    #[test]
    fn tau_chain_without_cycle_does_not_fire_u010() {
        // 30 τ-steps in a line: no SCC bigger than a singleton.
        let n = 31u32;
        let mut b = ImcBuilder::new(n as usize, 0);
        for s in 0..n - 1 {
            b.tau(s, s + 1);
        }
        b.markov(n - 1, 1.0, 0);
        let r = lint_imc(&b.build(), &LintOptions::default());
        assert!(!codes(&r).contains(&Code::U010), "{:?}", r.diagnostics());
    }

    #[test]
    fn alternation_violations_fire_u005() {
        // hybrid initial state + Markov→Markov edge + absorbing state
        let mut b = ImcBuilder::new(3, 0);
        b.interactive("a", 0, 1);
        b.markov(0, 1.0, 1);
        b.markov(1, 1.0, 2);
        let r = lint_alternation(&b.build());
        assert!(r.has_errors());
        assert!(codes(&r).iter().all(|&c| c == Code::U005));
        // hybrid state 0, Markov(1)->Markov? state 2 absorbing, 1->2 markov
        // to absorbing (non-interactive target), initial not interactive.
        assert!(r.num_errors() >= 3);
    }

    #[test]
    fn transform_output_lints_clean() {
        let mut b = ImcBuilder::new(5, 0);
        b.interactive("left", 0, 1);
        b.interactive("right", 0, 2);
        b.markov(1, 2.0, 3);
        b.markov(2, 1.5, 3);
        b.markov(2, 0.5, 4);
        b.tau(3, 0);
        b.interactive("reset", 4, 0);
        let imc = b.build();
        let out = transform(&imc).expect("transformable");
        let r = lint_transform_output(&imc, &out);
        assert!(
            r.is_clean(),
            "unexpected diagnostics: {:?}",
            r.diagnostics()
        );
    }

    #[test]
    fn hand_broken_alternation_is_caught() {
        // Looks like a transform output but a Markov→Markov edge sneaks in.
        let mut b = ImcBuilder::new(4, 0);
        b.interactive("w", 0, 1);
        b.markov(1, 1.0, 2);
        b.markov(2, 1.0, 3); // Markov→Markov: not strictly alternating
        b.interactive("v", 3, 1);
        let imc = b.build();
        let r = lint_alternation(&imc);
        assert!(r.has_errors());
        assert!(
            !unicon_transform::is_strictly_alternating(&imc),
            "sanity: the checker agrees"
        );
    }

    #[test]
    fn lint_agrees_with_is_strictly_alternating_on_transform_output() {
        let mut b = ImcBuilder::new(3, 0);
        b.tau(0, 1);
        b.markov(1, 2.0, 2);
        b.tau(2, 0);
        let imc = b.build();
        let out = transform(&imc).expect("transformable");
        assert!(unicon_transform::is_strictly_alternating(
            &out.strictly_alternating
        ));
        assert!(lint_alternation(&out.strictly_alternating).is_clean());
    }
}
