//! Counter-abstraction FTWC generator — the paper's "PRISM route".
//!
//! Workstations within a sub-cluster are interchangeable, so the model
//! tracks only *how many* are operational on each side, plus the status of
//! the two switches, the backbone and the repair unit. The probabilistic
//! high-rate Γ choice of the classic CTMC model is replaced by genuinely
//! nondeterministic interactive transitions (`g_wsL`, …, `g_bb`), exactly
//! as the paper describes.
//!
//! **Uniformity by construction.** Every Markov state carries the same exit
//! rate `E = E_rep + 2N·λ_ws + 2λ_sw + λ_bb`:
//!
//! * each failure timer is uniformized: a side with `l` of `N` workstations
//!   up advances with rate `l·λ_ws` and self-loops with the slack
//!   `(N−l)·λ_ws`; switches and backbone likewise,
//! * the single repair unit carries one shared repair timer uniformized at
//!   the maximal repair rate `E_rep`: repairing component `c` advances with
//!   `ρ_c` and self-loops with `E_rep − ρ_c`; an idle unit self-loops at
//!   `E_rep`.
//!
//! The slowly growing `E` is what keeps the paper's Table 1 iteration
//! counts almost flat in `N`.

use std::collections::HashMap;

use unicon_core::ClosedModel;
use unicon_ctmc::Ctmc;
use unicon_imc::{Imc, MarkovTransition};
use unicon_lts::{ActionTable, Transition};

use crate::params::{Component, FtwcParams};
use crate::premium::{premium, Config};

/// The largest cluster size `N` the generator can index with one repair
/// phase, the published model. Raw state ids are `u32`, and a model with
/// `k` phases has `(N+1)²·8·(1+5k)` of them, so more phases lower the
/// bound. Sizes below it can still exceed memory: generation keeps one
/// `u32` per raw id.
pub const MAX_N: usize = 9_458;

/// Repair-unit status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ru {
    /// No repair in progress.
    Idle,
    /// Repairing one component of the given type, in the given Erlang
    /// phase (`0..params.repair_phases`; phase 0 with a single phase is the
    /// plain exponential repair of the published model).
    Busy(Component, u32),
}

/// A fully decoded generator state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GenState {
    /// Structural configuration.
    pub config: Config,
    /// Repair-unit status.
    pub ru: Ru,
}

/// The generated nondeterministic uniform model.
#[derive(Debug, Clone)]
pub struct GeneratedModel {
    /// The uniform-by-construction closed IMC (reachable states only).
    ///
    /// Closed because the repair-assignment decisions are modelled with
    /// *visible* actions (`g_wsL`, …) for legible CTMDP words; under the
    /// maximal-progress (open) view those decision states would count as
    /// stable. The model is complete, so the closed view is the right one.
    pub uniform: ClosedModel,
    /// Per-state goal flag: premium service **not** guaranteed.
    pub premium_down: Vec<bool>,
    /// Per-state decoded configuration.
    pub states: Vec<GenState>,
}

/// Number of repair-unit status values for `k` phases: idle plus one per
/// (component, phase).
fn ru_count(phases: u32) -> usize {
    1 + 5 * phases as usize
}

/// Whether the raw state ids `0..(N+1)²·8·(1+5k)` fit the `u32` index.
fn fits_index(n: usize, phases: u32) -> bool {
    n.checked_add(1)
        .and_then(|side| side.checked_mul(side))
        .and_then(|sides| sides.checked_mul(8 * ru_count(phases)))
        .is_some_and(|count| u32::try_from(count - 1).is_ok())
}

fn assert_fits_index(n: usize, phases: u32) {
    assert!(
        fits_index(n, phases),
        "FTWC N = {n} with {phases} repair phases overflows the u32 state index \
         (N <= {MAX_N} with one phase)"
    );
}

// `Component::ALL` lists the variants in declaration order, so `c as
// usize` is a component's position in it.
fn ru_index(ru: Ru, phases: u32) -> usize {
    match ru {
        Ru::Idle => 0,
        Ru::Busy(c, p) => {
            debug_assert!(p < phases);
            1 + c as usize * phases as usize + p as usize
        }
    }
}

fn ru_decode(idx: usize, phases: u32) -> Ru {
    if idx == 0 {
        Ru::Idle
    } else {
        let i = idx - 1;
        Ru::Busy(
            Component::ALL[i / phases as usize],
            (i % phases as usize) as u32,
        )
    }
}

fn encode(n: usize, phases: u32, s: &GenState) -> u32 {
    let bits = usize::from(s.config.switch_left)
        | usize::from(s.config.switch_right) << 1
        | usize::from(s.config.backbone) << 2;
    let idx = ((s.config.left as usize * (n + 1) + s.config.right as usize) * 8 + bits)
        * ru_count(phases)
        + ru_index(s.ru, phases);
    idx as u32
}

fn decode(n: usize, phases: u32, id: u32) -> GenState {
    let mut x = id as usize;
    let ru = ru_decode(x % ru_count(phases), phases);
    x /= ru_count(phases);
    let bits = x % 8;
    x /= 8;
    let right = (x % (n + 1)) as u32;
    let left = (x / (n + 1)) as u32;
    GenState {
        config: Config {
            left,
            right,
            switch_left: bits & 1 != 0,
            switch_right: bits & 2 != 0,
            backbone: bits & 4 != 0,
        },
        ru,
    }
}

/// Operational units of component type `c`, and how many there are.
fn units_up(n: usize, config: &Config, c: Component) -> (u32, u32) {
    match c {
        Component::WsLeft => (config.left, n as u32),
        Component::WsRight => (config.right, n as u32),
        Component::SwitchLeft => (u32::from(config.switch_left), 1),
        Component::SwitchRight => (u32::from(config.switch_right), 1),
        Component::Backbone => (u32::from(config.backbone), 1),
    }
}

/// `config` with `up` operational units of component type `c`.
fn with_up(config: Config, c: Component, up: u32) -> Config {
    let mut cfg = config;
    match c {
        Component::WsLeft => cfg.left = up,
        Component::WsRight => cfg.right = up,
        Component::SwitchLeft => cfg.switch_left = up == 1,
        Component::SwitchRight => cfg.switch_right = up == 1,
        Component::Backbone => cfg.backbone = up == 1,
    }
    cfg
}

/// One move out of a generator state (see [`moves`]).
#[derive(Debug, Clone, Copy)]
enum Move {
    /// The idle repair unit is assigned to a failed component: the
    /// interactive `g_c` of the uIMC, a rate-Γ race in the classic CTMC.
    Grab(Component),
    /// A failure, an Erlang repair phase or a repair completion.
    Rate(f64),
}

/// The moves out of `s`, in the order both builders enumerate them. At a
/// decision state (the repair unit idle, something failed) they start
/// with one grab per failed component type in [`Component::ALL`] order.
/// Then come the failures, one per component type with a unit up, in
/// the same order, and last the repair timer's move.
///
/// Returns the uniformization slack: the rate of every uniformized timer
/// that moves nothing, summed in that same order so its bits are fixed.
/// A side with `l` of `N` workstations up fails at `l·λ_ws` with slack
/// `(N−l)·λ_ws`; switches and backbone likewise; the repair timer ticks
/// at `E_rep` and completes component `c` at `ρ_c`.
fn moves(params: &FtwcParams, s: &GenState, mut visit: impl FnMut(Move, GenState)) -> f64 {
    let n = params.n;
    if s.ru == Ru::Idle {
        for c in Component::ALL {
            let (up, total) = units_up(n, &s.config, c);
            if up < total {
                let ru = Ru::Busy(c, 0);
                visit(Move::Grab(c), GenState { ru, ..*s });
            }
        }
    }
    let mut slack = 0.0f64;
    for c in Component::ALL {
        let (up, total) = units_up(n, &s.config, c);
        let rate = params.fail_rate(c);
        if up > 0 {
            let config = with_up(s.config, c, up - 1);
            visit(Move::Rate(f64::from(up) * rate), GenState { config, ..*s });
        }
        slack += f64::from(total - up) * rate;
    }
    // The shared repair timer: an Erlang delay advancing phase by phase
    // at the per-phase rate, completing from the last phase.
    let e_rep = params.repair_timer_rate();
    match s.ru {
        Ru::Idle => slack += e_rep,
        Ru::Busy(c, p) => {
            let (up, total) = units_up(n, &s.config, c);
            debug_assert!(up < total, "repairing a component that is up");
            let rho = params.repair_phase_rate(c);
            let next = if p + 1 == params.repair_phases {
                GenState {
                    config: with_up(s.config, c, up + 1),
                    ru: Ru::Idle,
                }
            } else {
                GenState {
                    ru: Ru::Busy(c, p + 1),
                    ..*s
                }
            };
            visit(Move::Rate(rho), next);
            slack += e_rep - rho;
        }
    }
    slack
}

/// The uIMC's transitions out of raw state `raw`, with raw targets: a
/// decision state's grabs, whose urgency cuts its Markov moves, or else
/// the Markov moves and one self-loop carrying all the slack.
fn uimc_moves(params: &FtwcParams, raw: u32, mut visit: impl FnMut(Move, u32)) {
    let (n, phases) = (params.n, params.repair_phases);
    let mut decision = false;
    let slack = moves(params, &decode(n, phases, raw), |mv, next| match mv {
        Move::Grab(_) => {
            decision = true;
            visit(mv, encode(n, phases, &next));
        }
        Move::Rate(_) if !decision => visit(mv, encode(n, phases, &next)),
        Move::Rate(_) => {}
    });
    if !decision && slack > 0.0 {
        visit(Move::Rate(slack), raw);
    }
}

/// Builds the nondeterministic, uniform-by-construction FTWC model.
///
/// Two passes over the raw state index, no intermediate model: the first
/// marks what the initial state reaches, the second writes each reachable
/// state's rows, numbered by ascending raw id and sorted within the row,
/// which is [`Imc`]'s canonical order.
///
/// # Panics
///
/// Panics if the raw state ids overflow `u32` (see [`MAX_N`]), and on
/// internal inconsistencies.
pub fn build_uimc(params: &FtwcParams) -> GeneratedModel {
    const UNREACHED: u32 = u32::MAX;
    let (n, phases) = (params.n, params.repair_phases);
    assert_fits_index(n, phases);
    let all_up = GenState {
        config: Config::all_up(n),
        ru: Ru::Idle,
    };
    let initial = encode(n, phases, &all_up);

    // Reachability: `new_id` marks each reached raw id.
    let mut new_id = vec![UNREACHED; (n + 1) * (n + 1) * 8 * ru_count(phases)];
    new_id[initial as usize] = 0;
    let mut stack = vec![initial];
    while let Some(raw) = stack.pop() {
        uimc_moves(params, raw, |_, target| {
            if new_id[target as usize] == UNREACHED {
                new_id[target as usize] = 0;
                stack.push(target);
            }
        });
    }
    let mut reached = Vec::new();
    for (raw, id) in new_id.iter_mut().enumerate() {
        if *id != UNREACHED {
            *id = reached.len() as u32;
            reached.push(raw as u32);
        }
    }

    // Emit: the grab actions are interned once in `Component::ALL` order,
    // so a decision state's grabs come out sorted by action.
    let mut actions = ActionTable::new();
    let grab = Component::ALL.map(|c| actions.intern(&format!("g_{}", c.suffix())));
    let mut interactive = Vec::new();
    let mut markov: Vec<MarkovTransition> = Vec::new();
    for (source, &raw) in (0u32..).zip(&reached) {
        let row = markov.len();
        uimc_moves(params, raw, |mv, target| {
            let target = new_id[target as usize];
            match mv {
                Move::Grab(c) => interactive.push(Transition {
                    source,
                    action: grab[c as usize],
                    target,
                }),
                Move::Rate(rate) => markov.push(MarkovTransition {
                    source,
                    rate,
                    target,
                }),
            }
        });
        markov[row..]
            .sort_unstable_by(|a, b| a.target.cmp(&b.target).then(a.rate.total_cmp(&b.rate)));
    }

    let imc = Imc::from_parts(
        actions,
        reached.len(),
        new_id[initial as usize],
        interactive,
        markov,
    );
    let states: Vec<GenState> = reached.iter().map(|&raw| decode(n, phases, raw)).collect();
    let premium_down: Vec<bool> = states.iter().map(|s| !premium(&s.config, n)).collect();
    let uniform = ClosedModel::try_new(imc).expect("generator output is uniform by construction");
    GeneratedModel {
        uniform,
        premium_down,
        states,
    }
}

/// Builds the classic Γ-resolved CTMC (the modelling style of the original
/// FTWC studies): the nondeterministic repair assignment is replaced by a
/// race of rate-Γ transitions. Uniformization self-loops are omitted —
/// they are probabilistically irrelevant for a CTMC.
///
/// Returns the chain, the per-state premium-down flags and the decoded
/// states (reachable states only, numbered in depth-first discovery
/// order).
///
/// # Panics
///
/// Panics if the raw state ids overflow `u32` (see [`MAX_N`]).
pub fn build_ctmc(params: &FtwcParams) -> (Ctmc, Vec<bool>, Vec<GenState>) {
    let (n, phases) = (params.n, params.repair_phases);
    assert_fits_index(n, phases);
    let initial = GenState {
        config: Config::all_up(n),
        ru: Ru::Idle,
    };
    let mut index = HashMap::from([(encode(n, phases, &initial), 0usize)]);
    let mut states = vec![initial];
    let mut frontier = vec![0usize];
    let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
    while let Some(src) = frontier.pop() {
        // The urgent assignment becomes rate-Γ transitions that *race
        // against the ordinary failure rates* — the artificial races the
        // paper identifies as the source of the CTMC's overestimation.
        let s = states[src];
        moves(params, &s, |mv, next| {
            let t = *index.entry(encode(n, phases, &next)).or_insert_with(|| {
                states.push(next);
                frontier.push(states.len() - 1);
                states.len() - 1
            });
            let rate = match mv {
                Move::Grab(_) => params.gamma,
                Move::Rate(rate) => rate,
            };
            triplets.push((src, t, rate));
        });
    }

    let ctmc = Ctmc::from_rates(states.len(), 0, triplets);
    let premium_down: Vec<bool> = states.iter().map(|s| !premium(&s.config, n)).collect();
    (ctmc, premium_down, states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicon_imc::{StateKind, View};
    use unicon_numeric::assert_close;

    #[test]
    fn encode_decode_roundtrip() {
        for phases in [1u32, 3] {
            let n = 3;
            let raw = (n + 1) * (n + 1) * 8 * ru_count(phases);
            for id in 0..raw as u32 {
                let s = decode(n, phases, id);
                assert_eq!(encode(n, phases, &s), id);
            }
        }
    }

    #[test]
    fn max_n_is_the_largest_indexable_size() {
        assert!(fits_index(MAX_N, 1));
        assert!(!fits_index(MAX_N + 1, 1));
        assert!(!fits_index(usize::MAX, 1));
        assert!(!fits_index(MAX_N, 2));
    }

    #[test]
    #[should_panic(expected = "overflows the u32 state index")]
    fn sizes_beyond_max_n_are_refused() {
        build_uimc(&FtwcParams::new(MAX_N + 1));
    }

    #[test]
    fn model_is_uniform_with_predicted_rate() {
        for n in [1, 2, 5] {
            let p = FtwcParams::new(n);
            let m = build_uimc(&p);
            assert_close!(m.uniform.rate(), p.uniform_rate(), 1e-9);
            // double-check against the model itself
            assert!(m.uniform.imc().is_uniform(View::Closed));
        }
    }

    #[test]
    fn initial_state_is_all_up_markov() {
        let p = FtwcParams::new(2);
        let m = build_uimc(&p);
        let init = m.uniform.imc().initial();
        assert_eq!(m.states[init as usize].config, Config::all_up(2));
        assert_eq!(m.states[init as usize].ru, Ru::Idle);
        assert_eq!(m.uniform.imc().kind(init), StateKind::Markov);
        assert!(!m.premium_down[init as usize]);
    }

    #[test]
    fn decision_states_offer_one_grab_per_failed_component() {
        let p = FtwcParams::new(2);
        let m = build_uimc(&p);
        let imc = m.uniform.imc();
        let mut saw_decision = false;
        for s in 0..imc.num_states() as u32 {
            let st = &m.states[s as usize];
            let failed = Component::ALL
                .iter()
                .filter(|&&c| {
                    let (up, total) = units_up(p.n, &st.config, c);
                    up < total
                })
                .count();
            if st.ru == Ru::Idle && failed > 0 {
                saw_decision = true;
                assert_eq!(imc.kind(s), StateKind::Interactive);
                assert_eq!(imc.interactive_from(s).len(), failed);
            }
        }
        assert!(saw_decision);
    }

    #[test]
    fn no_absorbing_states_and_no_interactive_cycles() {
        let p = FtwcParams::new(2);
        let m = build_uimc(&p);
        let imc = m.uniform.imc();
        assert!(unicon_imc::analysis::absorbing_states(imc).is_empty());
        assert!(unicon_imc::analysis::is_zeno_free(imc));
    }

    #[test]
    fn state_count_grows_quadratically() {
        let s2 = build_uimc(&FtwcParams::new(2)).uniform.imc().num_states();
        let s4 = build_uimc(&FtwcParams::new(4)).uniform.imc().num_states();
        let s8 = build_uimc(&FtwcParams::new(8)).uniform.imc().num_states();
        // ratio of consecutive sizes approaches 4 for quadratic growth
        let r1 = s4 as f64 / s2 as f64;
        let r2 = s8 as f64 / s4 as f64;
        assert!(r1 > 1.8 && r2 > 2.2, "sizes {s2} {s4} {s8}");
    }

    #[test]
    fn premium_down_states_exist_and_are_labeled() {
        let p = FtwcParams::new(1);
        let m = build_uimc(&p);
        assert!(m.premium_down.iter().any(|&d| d));
        assert!(m.premium_down.iter().any(|&d| !d));
        // a state with the left workstation and the backbone down for N=1
        // with right up and switches up is premium (right side alone works)
        for (s, st) in m.states.iter().enumerate() {
            if st.config.left == 0
                && st.config.right == 1
                && st.config.switch_left
                && st.config.switch_right
                && !st.config.backbone
            {
                assert!(!m.premium_down[s]);
            }
        }
    }

    #[test]
    fn ctmc_variant_matches_state_space_scale() {
        let p = FtwcParams::new(2);
        let m = build_uimc(&p);
        let (ctmc, down, states) = build_ctmc(&p);
        assert_eq!(ctmc.num_states(), states.len());
        assert_eq!(down.len(), states.len());
        // essentially the same reachable state space as the nondeterministic
        // model; the Γ races reach a few extra configurations (failures can
        // pile up while an assignment is pending, which urgency forbids)
        assert!(ctmc.num_states() >= m.uniform.imc().num_states());
        assert!(ctmc.num_states() <= m.uniform.imc().num_states() + 8);
        // decision states race at rate gamma
        let decision = states
            .iter()
            .position(|s| s.ru == Ru::Idle && s.config != Config::all_up(p.n))
            .expect("decision state");
        assert!(ctmc.exit_rate(decision) >= p.gamma);
    }

    #[test]
    fn repair_busy_states_tick_at_uniform_repair_slack() {
        let p = FtwcParams::new(1);
        let m = build_uimc(&p);
        let imc = m.uniform.imc();
        for s in 0..imc.num_states() as u32 {
            if let Ru::Busy(c, phase) = m.states[s as usize].ru {
                // exit rate is the uniform rate regardless of c
                assert_close!(imc.exit_rate(s), p.uniform_rate(), 1e-9);
                // completion happens from the last phase (= phase 0 here)
                assert_eq!(phase, 0);
                let config = m.states[s as usize].config;
                let repaired = with_up(config, c, units_up(p.n, &config, c).0 + 1);
                let has_completion = imc.markov_from(s).iter().any(|t| {
                    m.states[t.target as usize].config == repaired
                        && m.states[t.target as usize].ru == Ru::Idle
                        && (t.rate - p.repair_rate(c)).abs() < 1e-12
                });
                assert!(has_completion, "missing completion from state {s}");
            }
        }
    }
}
