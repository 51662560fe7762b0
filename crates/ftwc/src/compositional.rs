//! Process-algebraic FTWC construction — the paper's "CADP route".
//!
//! Every component is a small LTS (Figure 2): it *fails*, *grabs* the
//! repair unit, is *repaired* and *releases* the unit. Failure and repair
//! delays are imposed by elapse time constraints (Figure 3); workstations
//! of one side share their `g_…`/`r_…` actions, so the repair unit cannot
//! (and need not) distinguish them. The full cluster is the parallel
//! composition of the repair unit with the two workstation groups, the
//! switches and the backbone, minimized compositionally — uniform at every
//! step by Lemmas 1–3.
//!
//! State labels (operational counters per side, switch/backbone status) are
//! tracked through every composition and minimization so the premium
//! predicate can be evaluated on the final model.
//!
//! Both routes join one component type at a time onto the repair process
//! and hide that type's repair protocol as soon as the join closes it, so
//! the minimizations in between merge states. The paper's CADP route
//! needed 5·10⁶ intermediate states at `N = 14`; here the largest
//! intermediate at `N = 16` has about 130,000 states, and the route builds
//! in seconds. It cross-validates the scalable [`generator`] route, which
//! stays the faster one.
//!
//! [`generator`]: crate::generator

use std::time::{Duration, Instant};

use unicon_core::{Refiner, UniformImc};
use unicon_ctmc::PhaseType;
use unicon_lts::LtsBuilder;

use crate::params::{Component, FtwcParams};
use crate::premium::{premium, Config};

/// Wall-clock decomposition of one compositional construction, mirroring
/// the paper's Table-1 phases. The phases are disjoint: *generate* covers
/// leaf component and timer construction (including their internal
/// fixed-size elapse products and relabelling), *compose* covers the
/// cluster-level parallel products and hiding, and *minimize* covers every
/// label-respecting quotient — wherever in the pipeline it happens.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimings {
    /// Leaf component and timer construction.
    pub generate: Duration,
    /// Parallel products and hiding.
    pub compose: Duration,
    /// Bisimulation minimization (all `minimize_labeled` calls).
    pub minimize: Duration,
}

/// Build context: which refiner backend minimizations use, plus the
/// accumulated per-phase timings.
struct BuildCtx {
    refiner: Refiner,
    t: BuildTimings,
}

impl BuildCtx {
    fn new(refiner: Refiner) -> Self {
        Self {
            refiner,
            t: BuildTimings::default(),
        }
    }

    fn generate<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let _span = unicon_obs::span("generate");
        let start = Instant::now();
        let out = f();
        self.t.generate += start.elapsed();
        out
    }
}

/// A model whose states carry a tracked label.
#[derive(Debug, Clone)]
struct Labeled {
    model: UniformImc,
    labels: Vec<u32>,
}

impl Labeled {
    /// `model` with every state labeled 0.
    fn unlabeled(model: UniformImc) -> Self {
        Labeled {
            labels: vec![0; model.imc().num_states()],
            model,
        }
    }

    /// Parallel composition combining labels with `f`.
    fn parallel(
        &self,
        other: &Labeled,
        sync: &[&str],
        f: impl Fn(u32, u32) -> u32,
        ctx: &mut BuildCtx,
    ) -> Labeled {
        let _span = unicon_obs::span("compose");
        let start = Instant::now();
        let (model, map) = self.model.parallel_with_map(&other.model, sync);
        let labels = map
            .iter()
            .map(|&(a, b)| f(self.labels[a as usize], other.labels[b as usize]))
            .collect();
        ctx.t.compose += start.elapsed();
        Labeled { model, labels }
    }

    /// Label-respecting minimization with the context's refiner backend.
    fn minimize(&self, ctx: &mut BuildCtx) -> Labeled {
        let _span = unicon_obs::span("minimize");
        let start = Instant::now();
        let (model, labels) = self.model.minimize_labeled_with(&self.labels, ctx.refiner);
        ctx.t.minimize += start.elapsed();
        Labeled { model, labels }
    }

    fn hide(self, actions: &[&str], ctx: &mut BuildCtx) -> Labeled {
        let _span = unicon_obs::span("compose");
        let start = Instant::now();
        let model = self.model.hide(actions);
        ctx.t.compose += start.elapsed();
        Labeled {
            model,
            labels: self.labels,
        }
    }
}

/// The result of the compositional construction.
#[derive(Debug, Clone)]
pub struct CompositionalModel {
    /// The uniform-by-construction cluster model.
    pub uniform: UniformImc,
    /// Per-state goal flag: premium service **not** guaranteed.
    pub premium_down: Vec<bool>,
}

/// The largest cluster size the compositional routes support: the packed
/// state label keeps each side's operational count in 8 bits.
pub const MAX_N: usize = 255;

/// Where a component type's label sits in the packed config label: each
/// workstation group's operational count in 8 bits, one bit per switch and
/// one for the backbone.
fn place(c: Component) -> u32 {
    match c {
        Component::WsLeft => 1,
        Component::WsRight => 1 << 8,
        Component::SwitchLeft => 1 << 16,
        Component::SwitchRight => 1 << 17,
        Component::Backbone => 1 << 18,
    }
}

fn unpack(label: u32) -> Config {
    let up = |c| label & place(c) != 0;
    Config {
        left: label & 0xff,
        right: (label >> 8) & 0xff,
        switch_left: up(Component::SwitchLeft),
        switch_right: up(Component::SwitchRight),
        backbone: up(Component::Backbone),
    }
}

/// One repairable component: the Figure-2 LTS with its two elapse time
/// constraints, actions relabelled to `g_<suffix>` / `r_<suffix>`, `fail`
/// and `repair` hidden, minimized. The label is 1 while operational.
fn timed_component(fail_rate: f64, repair_rate: f64, suffix: &str, ctx: &mut BuildCtx) -> Labeled {
    let raw = ctx.generate(|| {
        let mut b = LtsBuilder::new(4, 0);
        b.add("fail", 0, 1);
        b.add("g", 1, 2);
        b.add("repair", 2, 3);
        b.add("r", 3, 0);
        let lts = UniformImc::from_lts(&b.build());

        let tc_fail = UniformImc::from_elapse(
            &PhaseType::exponential(fail_rate).uniformize_at_max(),
            "fail",
            "r",
        );
        let tc_repair = UniformImc::from_elapse(
            &PhaseType::exponential(repair_rate).uniformize_at_max(),
            "repair",
            "g",
        );
        let constraints = tc_fail.parallel(&tc_repair, &[]);
        let (timed, map) = constraints.parallel_with_map(&lts, &["fail", "g", "repair", "r"]);
        let labels: Vec<u32> = map.iter().map(|&(_, ls)| u32::from(ls == 0)).collect();
        let renamed = timed
            .hide(&["fail", "repair"])
            .relabel(&[("g", &format!("g_{suffix}")), ("r", &format!("r_{suffix}"))]);
        Labeled {
            model: renamed,
            labels,
        }
    });
    raw.minimize(ctx)
}

/// A group of `n` interleaved identical components; the label is the number
/// of operational members. Minimized after every composition step — the
/// symmetry collapse is what makes the compositional route feasible at all.
fn component_group(n: usize, unit: &Labeled, ctx: &mut BuildCtx) -> Labeled {
    let mut acc = unit.clone();
    for _ in 1..n {
        acc = acc.parallel(unit, &[], |a, b| a + b, ctx).minimize(ctx);
    }
    acc
}

/// The join loop of both routes. Starting from `repair`, the process that
/// serializes repairs, it adds one component type at a time in
/// [`Component::ALL`] order: the type's group of `unit`s synchronizes with
/// the accumulated model on the `sync` actions of that type (`g_c` and
/// `repair_c`, or `g_c` and `r_c`), and `g_c`, `repair_c` and `r_c` are
/// hidden straight after the join, because no later process uses them.
/// Each intermediate is minimized on its packed config label; the last
/// one is minimized once, on the premium bit.
///
/// Hiding a type's protocol as soon as it closes is what lets the
/// minimizations merge states: while a grab or repair action is visible,
/// it keeps apart every pair of states that differ in what the protocol
/// can do next.
fn join_types(
    params: &FtwcParams,
    repair: Labeled,
    sync: [&str; 2],
    ctx: &mut BuildCtx,
    mut unit: impl FnMut(Component, &mut BuildCtx) -> Labeled,
) -> CompositionalModel {
    assert!(
        params.n <= MAX_N,
        "compositional route supports n <= {MAX_N}"
    );
    let last = Component::ALL.len() - 1;
    let mut acc = repair;
    for (i, c) in Component::ALL.into_iter().enumerate() {
        let members = match c {
            Component::WsLeft | Component::WsRight => params.n,
            _ => 1,
        };
        let group = component_group(members, &unit(c, ctx), ctx);
        let typed = |a: &str| format!("{a}_{}", c.suffix());
        let sync = sync.map(typed);
        let protocol = ["g", "repair", "r"].map(typed);
        let mut joined = acc
            .parallel(
                &group,
                &sync.each_ref().map(String::as_str),
                |a, l| a | (l * place(c)),
                ctx,
            )
            .hide(&protocol.each_ref().map(String::as_str), ctx);
        if i == last {
            for l in &mut joined.labels {
                *l = u32::from(!premium(&unpack(*l), params.n));
            }
        }
        acc = joined.minimize(ctx);
    }
    CompositionalModel {
        premium_down: acc.labels.iter().map(|&d| d == 1).collect(),
        uniform: acc.model,
    }
}

/// The repair-unit LTS: idle, or busy with one of the five component types.
fn repair_unit() -> UniformImc {
    let mut b = LtsBuilder::new(6, 0);
    for (i, c) in Component::ALL.iter().enumerate() {
        let busy = (i + 1) as u32;
        b.add(&format!("g_{}", c.suffix()), 0, busy);
        b.add(&format!("r_{}", c.suffix()), busy, 0);
    }
    UniformImc::from_lts(&b.build())
}

/// Builds the FTWC compositionally.
///
/// # Panics
///
/// Panics if `params.n > MAX_N` (the label packing limit).
pub fn build(params: &FtwcParams) -> CompositionalModel {
    build_with(params, Refiner::default()).0
}

/// [`build`] with an explicit refiner backend, returning per-phase timings.
///
/// # Panics
///
/// Panics if `params.n > MAX_N`.
pub fn build_with(params: &FtwcParams, refiner: Refiner) -> (CompositionalModel, BuildTimings) {
    let ctx = &mut BuildCtx::new(refiner);
    let unit = ctx.generate(|| Labeled::unlabeled(repair_unit()));
    let model = join_types(params, unit, ["g", "r"], ctx, |c, ctx| {
        timed_component(params.fail_rate(c), params.repair_rate(c), c.suffix(), ctx)
    });
    (model, ctx.t)
}

/// One repairable component for the *shared-timer* construction: the
/// repair delay lives in the cluster-wide [`shared_elapse`] timer, so the
/// component itself only carries its failure constraint. The type-level
/// actions `g_<c>`, `repair_<c>` and `r_<c>` stay visible for the timer
/// synchronization.
///
/// [`shared_elapse`]: unicon_imc::elapse::shared_elapse
fn fail_only_component(fail_rate: f64, suffix: &str, ctx: &mut BuildCtx) -> Labeled {
    let raw = ctx.generate(|| {
        let mut b = LtsBuilder::new(4, 0);
        b.add("fail", 0, 1);
        b.add(&format!("g_{suffix}"), 1, 2);
        b.add(&format!("repair_{suffix}"), 2, 3);
        b.add(&format!("r_{suffix}"), 3, 0);
        let lts = UniformImc::from_lts(&b.build());
        let tc_fail = UniformImc::from_elapse(
            &PhaseType::exponential(fail_rate).uniformize_at_max(),
            "fail",
            &format!("r_{suffix}"),
        );
        let (timed, map) = tc_fail.parallel_with_map(&lts, &["fail", &format!("r_{suffix}")]);
        let labels: Vec<u32> = map.iter().map(|&(_, ls)| u32::from(ls == 0)).collect();
        Labeled {
            model: timed.hide(&["fail"]),
            labels,
        }
    });
    raw.minimize(ctx)
}

/// Builds the FTWC compositionally with **one shared repair timer** — the
/// construction whose uniform rate (`E_rep + Σ failure rates`, about 2)
/// matches the paper's Table 1 iteration counts and the counter generator.
///
/// The shared timer plays the role of the repair unit: it offers `g_<c>`
/// only while idle (serializing repairs), runs the type-specific repair
/// delay uniformized at the maximal repair rate, and offers `repair_<c>` on
/// completion.
///
/// # Panics
///
/// Panics if `params.n > MAX_N`.
pub fn build_shared_timer(params: &FtwcParams) -> CompositionalModel {
    build_shared_timer_with(params, Refiner::default()).0
}

/// [`build_shared_timer`] with an explicit refiner backend, returning
/// per-phase timings.
///
/// # Panics
///
/// Panics if `params.n > MAX_N`.
pub fn build_shared_timer_with(
    params: &FtwcParams,
    refiner: Refiner,
) -> (CompositionalModel, BuildTimings) {
    let e_rep = params.repair_timer_rate();
    let ctx = &mut BuildCtx::new(refiner);
    // The shared repair timer, one Erlang branch per component type.
    let timer = ctx.generate(|| {
        let phases = Component::ALL.map(|c| {
            (
                format!("repair_{}", c.suffix()),
                format!("g_{}", c.suffix()),
                PhaseType::erlang(params.repair_phases, params.repair_phase_rate(c))
                    .uniformize(e_rep),
            )
        });
        let branches = phases
            .each_ref()
            .map(|(f, r, ph)| (f.as_str(), r.as_str(), ph));
        Labeled::unlabeled(UniformImc::from_shared_elapse(&branches))
    });
    let model = join_types(params, timer, ["g", "repair"], ctx, |c, ctx| {
        fail_only_component(params.fail_rate(c), c.suffix(), ctx)
    });
    (model, ctx.t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicon_imc::View;
    use unicon_numeric::assert_close;

    fn ctx() -> BuildCtx {
        BuildCtx::new(Refiner::default())
    }

    #[test]
    fn timed_component_is_uniform_with_summed_rate() {
        let c = timed_component(0.002, 2.0, "wsL", &mut ctx());
        assert_close!(c.model.rate(), 2.002, 1e-12);
        assert!(c.model.imc().is_uniform(View::Open));
        // both label classes present: up and down states
        assert!(c.labels.contains(&0) && c.labels.contains(&1));
    }

    #[test]
    fn group_counts_operational_members() {
        let mut ctx = ctx();
        let unit = timed_component(0.01, 1.0, "wsL", &mut ctx);
        let g = component_group(3, &unit, &mut ctx);
        let max = *g.labels.iter().max().unwrap();
        assert_eq!(max, 3);
        assert!(g.labels.contains(&0));
        assert_close!(g.model.rate(), 3.0 * unit.model.rate(), 1e-9);
    }

    #[test]
    fn group_minimization_collapses_symmetry() {
        // 3 interchangeable components: the minimized group must be far
        // smaller than the full 3-fold product.
        let mut ctx = ctx();
        let unit = timed_component(0.01, 1.0, "x", &mut ctx);
        let raw_states = unit.model.imc().num_states().pow(3);
        let g = component_group(3, &unit, &mut ctx);
        assert!(
            g.model.imc().num_states() * 2 < raw_states,
            "{} vs {raw_states}",
            g.model.imc().num_states()
        );
    }

    #[test]
    fn shared_timer_route_matches_generator_rate() {
        let params = FtwcParams::new(1);
        let m = build_shared_timer(&params);
        assert!(m.uniform.imc().is_uniform(View::Open));
        assert_close!(m.uniform.rate(), params.uniform_rate(), 1e-9);
        assert!(m.premium_down.iter().any(|&d| d));
        assert!(!m.premium_down[m.uniform.imc().initial() as usize]);
    }

    #[test]
    fn erlang_repairs_shared_timer_matches_generator() {
        use unicon_core::PreparedModel;
        // Extension: 2-phase Erlang repairs; the shared-timer compositional
        // route and the generator must still agree.
        let mut params = FtwcParams::new(1);
        params.repair_phases = 2;
        let t = 100.0;
        let comp = build_shared_timer(&params);
        assert_close!(comp.uniform.rate(), params.uniform_rate(), 1e-9);
        let comp_p = PreparedModel::new(&comp.uniform.close(), &comp.premium_down)
            .unwrap()
            .worst_case_from_initial(t, 1e-10)
            .unwrap();
        let gen = crate::generator::build_uimc(&params);
        let gen_p = PreparedModel::new(&gen.uniform, &gen.premium_down)
            .unwrap()
            .worst_case_from_initial(t, 1e-10)
            .unwrap();
        assert_close!(comp_p, gen_p, 1e-7);
        // The repair-time distribution's shape matters, not only its mean:
        // with the same mean, 2-phase Erlang repairs give a (slightly)
        // different probability than exponential ones. (Counter-intuitively
        // a *higher* one here: Erlang repairs are never very short, so a
        // second failure overlaps a repair window slightly more often.)
        let exp_p = {
            let gen = crate::generator::build_uimc(&FtwcParams::new(1));
            PreparedModel::new(&gen.uniform, &gen.premium_down)
                .unwrap()
                .worst_case_from_initial(t, 1e-10)
                .unwrap()
        };
        assert!(
            (gen_p - exp_p).abs() > 1e-6,
            "distribution shape should matter: Erlang {gen_p} vs exponential {exp_p}"
        );
    }

    #[test]
    fn three_routes_agree_on_probabilities() {
        use unicon_core::PreparedModel;
        let params = FtwcParams::new(1);
        let t = 100.0;
        let analyze = |model: &crate::compositional::CompositionalModel| -> f64 {
            let prepared = PreparedModel::new(&model.uniform.close(), &model.premium_down).unwrap();
            prepared.worst_case_from_initial(t, 1e-10).unwrap()
        };
        let per_component = analyze(&build(&params));
        let shared = analyze(&build_shared_timer(&params));
        let generated = {
            let g = crate::generator::build_uimc(&params);
            let prepared = PreparedModel::new(&g.uniform, &g.premium_down).unwrap();
            prepared.worst_case_from_initial(t, 1e-10).unwrap()
        };
        assert_close!(per_component, shared, 1e-7);
        assert_close!(shared, generated, 1e-7);
    }

    #[test]
    fn full_build_n1_is_uniform_and_labeled() {
        let params = FtwcParams::new(1);
        let m = build(&params);
        assert!(m.uniform.imc().is_uniform(View::Open));
        let expected_rate = 2.0 * (params.ws_fail + params.ws_repair)
            + 2.0 * (params.sw_fail + params.sw_repair)
            + (params.bb_fail + params.bb_repair);
        assert_close!(m.uniform.rate(), expected_rate, 1e-9);
        assert!(m.premium_down.iter().any(|&d| d));
        assert!(m.premium_down.iter().any(|&d| !d));
        // initial state is premium
        assert!(!m.premium_down[m.uniform.imc().initial() as usize]);
    }
}
