//! Exact policy evaluation: a stationary deterministic scheduler turns a
//! CTMDP into a CTMC, whose timed reachability can be computed exactly.
//!
//! This closes the triangle around Algorithm 1: the optimal value is
//! bracketed by `inf ≤ value(policy) ≤ sup` for every concrete policy, and
//! policy values are computed with the same uniformization machinery — no
//! sampling error, unlike the [`simulate`](crate::simulate) engine.

use unicon_ctmc::Ctmc;
use unicon_numeric::{CachedWeights, FoxGlynn};

use crate::model::Ctmdp;
use crate::reachability::{check_query, row, uniform_rate, ReachError};
use crate::scheduler::{Stationary, StepDependent};

/// Builds the CTMC induced by resolving every choice of `ctmdp` with the
/// stationary policy.
///
/// States keep their numbering. States without outgoing transitions become
/// absorbing. Choice indices out of range are clamped to the last available
/// transition (mirroring [`Stationary`]'s behaviour in simulation).
///
/// # Panics
///
/// Panics if the policy's choice table is shorter than the state count.
pub fn induced_ctmc(ctmdp: &Ctmdp, policy: &Stationary) -> Ctmc {
    let n = ctmdp.num_states();
    let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
    for s in 0..n as u32 {
        let trans = ctmdp.transitions_from(s);
        if trans.is_empty() {
            continue;
        }
        let choice = (policy.choice(s) as usize).min(trans.len() - 1);
        let rf = ctmdp.rate_function(trans[choice].rate_fn);
        for &(tgt, rate) in rf.targets() {
            triplets.push((s as usize, tgt as usize, rate));
        }
    }
    Ctmc::from_rates(n, ctmdp.initial(), triplets)
}

/// Exact timed reachability of `goal` within `t` under a stationary policy.
///
/// # Panics
///
/// Panics if `goal.len()` mismatches or `t` is negative/not finite.
pub fn evaluate_policy(
    ctmdp: &Ctmdp,
    policy: &Stationary,
    goal: &[bool],
    t: f64,
    epsilon: f64,
) -> f64 {
    assert_eq!(
        goal.len(),
        ctmdp.num_states(),
        "goal vector length mismatch"
    );
    let ctmc = induced_ctmc(ctmdp, policy);
    let opts = unicon_ctmc::transient::TransientOptions::default().with_epsilon(epsilon);
    unicon_ctmc::transient::reachability(&ctmc, goal, t, &opts).from_state(ctmdp.initial())
}

/// Evaluates a step-dependent deterministic scheduler exactly, by the same
/// uniformization recursion as Algorithm 1 with the recorded choice
/// substituted for the per-state optimization.
///
/// Because the arithmetic mirrors the engine's kernel term for term,
/// applying the scheduler extracted from a decision-recording run
/// reproduces the recorded optimal value **bitwise** — the strongest
/// possible check that the recorded decisions attain the optimum.
///
/// Steps beyond the scheduler's horizon fall back to its last recorded
/// step, matching [`StepDependent`]'s simulation semantics; choice indices
/// out of range are clamped to the last available transition.
///
/// # Errors
///
/// See [`crate::reachability::timed_reachability`] — invalid `t`,
/// `epsilon` or goal length are typed errors, not panics.
pub fn evaluate_step_dependent(
    ctmdp: &Ctmdp,
    sched: &StepDependent,
    goal: &[bool],
    t: f64,
    epsilon: f64,
) -> Result<f64, ReachError> {
    let rate = uniform_rate(ctmdp, goal)?;
    check_query(rate, t, epsilon)?;
    let init = ctmdp.initial() as usize;
    if t == 0.0 || rate == 0.0 {
        return Ok(f64::from(u8::from(goal[init])));
    }
    let CachedWeights { fg, truncation: k } = FoxGlynn::try_weights(rate * t, epsilon)?;
    let n = ctmdp.num_states();
    let decisions = sched.decisions();

    let mut q_next = vec![0.0f64; n];
    let mut q = vec![0.0f64; n];
    for i in (1..=k).rev() {
        let psi = fg.psi(i);
        // decisions.len() >= 1 is a StepDependent constructor invariant
        // ("at least one step"), so the `- 1` cannot underflow.
        let step = &decisions[(i - 1).min(decisions.len() - 1)];
        for s in 0..n {
            if goal[s] {
                q[s] = psi + q_next[s];
                continue;
            }
            let trans = ctmdp.transitions_from(s as u32);
            if trans.is_empty() {
                q[s] = 0.0;
                continue;
            }
            let choice = (step[s] as usize).min(trans.len() - 1);
            let (bias, entries) = row(ctmdp, goal, trans[choice].rate_fn);
            let mut v = psi * bias;
            for (tgt, p) in entries {
                v += p * q_next[tgt as usize];
            }
            q[s] = v;
        }
        std::mem::swap(&mut q, &mut q_next);
    }
    Ok(if goal[init] {
        1.0
    } else {
        q_next[init].clamp(0.0, 1.0)
    })
}

/// Enumerates all stationary deterministic policies of a (small) CTMDP.
///
/// The number of policies is the product of the choice counts over all
/// nondeterministic states; this iterator is intended for models where that
/// product is small (exhaustive policy search, tests, teaching).
pub fn all_policies(ctmdp: &Ctmdp) -> Vec<Stationary> {
    let n = ctmdp.num_states();
    let counts: Vec<usize> = (0..n as u32)
        .map(|s| ctmdp.transitions_from(s).len().max(1))
        .collect();
    let total: usize = counts.iter().product();
    let mut out = Vec::with_capacity(total);
    for mut idx in 0..total {
        let mut choices = Vec::with_capacity(n);
        for &c in &counts {
            choices.push((idx % c) as u16);
            idx /= c;
        }
        out.push(Stationary::new(choices));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CtmdpBuilder;
    use crate::reachability::{timed_reachability, Objective, ReachOptions};
    use unicon_numeric::assert_close;
    use unicon_numeric::special::exponential_cdf;

    fn race_model() -> Ctmdp {
        let mut b = CtmdpBuilder::new(3, 0);
        b.transition(0, "good", &[(1, 2.0)]);
        b.transition(0, "bad", &[(2, 2.0)]);
        b.transition(1, "stay", &[(1, 2.0)]);
        b.transition(2, "back", &[(0, 2.0)]);
        b.build()
    }

    #[test]
    fn induced_ctmc_uses_the_chosen_transition() {
        let m = race_model();
        let good = Stationary::new(vec![0, 0, 0]);
        let c = induced_ctmc(&m, &good);
        assert_eq!(c.rate(0, 1), 2.0);
        assert_eq!(c.rate(0, 2), 0.0);
        let bad = Stationary::new(vec![1, 0, 0]);
        let c = induced_ctmc(&m, &bad);
        assert_eq!(c.rate(0, 1), 0.0);
        assert_eq!(c.rate(0, 2), 2.0);
    }

    #[test]
    fn policy_values_match_closed_forms() {
        let m = race_model();
        let goal = [false, true, false];
        let t = 0.9;
        let good = evaluate_policy(&m, &Stationary::new(vec![0, 0, 0]), &goal, t, 1e-12);
        assert_close!(good, exponential_cdf(2.0, t), 1e-9);
        let bad = evaluate_policy(&m, &Stationary::new(vec![1, 0, 0]), &goal, t, 1e-12);
        assert_close!(bad, 0.0, 1e-9);
    }

    #[test]
    fn every_policy_lies_between_inf_and_sup() {
        let mut b = CtmdpBuilder::new(4, 0);
        b.transition(0, "x", &[(1, 1.0), (2, 1.0)]);
        b.transition(0, "y", &[(2, 1.5), (3, 0.5)]);
        b.transition(1, "x", &[(3, 2.0)]);
        b.transition(1, "z", &[(0, 2.0)]);
        b.transition(2, "x", &[(0, 2.0)]);
        b.transition(3, "x", &[(3, 2.0)]);
        let m = b.build();
        let goal = [false, false, false, true];
        let t = 1.3;
        let opts = ReachOptions::default().with_epsilon(1e-10);
        let sup = timed_reachability(&m, &goal, t, &opts)
            .unwrap()
            .from_state(0);
        let inf = timed_reachability(&m, &goal, t, &opts.with_objective(Objective::Minimize))
            .unwrap()
            .from_state(0);
        let policies = all_policies(&m);
        assert_eq!(policies.len(), 4); // two binary choices
        for p in &policies {
            let v = evaluate_policy(&m, p, &goal, t, 1e-10);
            assert!(
                v <= sup + 1e-8 && v >= inf - 1e-8,
                "policy value {v} outside [{inf}, {sup}]"
            );
        }
        // the stationary optimum may fall short of the step-dependent sup,
        // but must reach at least the best stationary bracket endpoints
        let best = policies
            .iter()
            .map(|p| evaluate_policy(&m, p, &goal, t, 1e-10))
            .fold(0.0f64, f64::max);
        assert!(best <= sup + 1e-8);
        assert!(best > inf - 1e-8);
    }

    #[test]
    fn absorbing_states_stay_absorbing() {
        let mut b = CtmdpBuilder::new(2, 0);
        b.transition(0, "a", &[(1, 1.0)]);
        let m = b.build();
        let c = induced_ctmc(&m, &Stationary::new(vec![0, 0]));
        assert!(c.is_absorbing(1));
    }

    #[test]
    fn all_policies_enumerates_the_product() {
        let m = race_model(); // one binary choice
        assert_eq!(all_policies(&m).len(), 2);
    }

    fn nondeterministic_model() -> Ctmdp {
        let mut b = CtmdpBuilder::new(4, 0);
        b.transition(0, "x", &[(1, 1.0), (2, 1.0)]);
        b.transition(0, "y", &[(2, 1.5), (3, 0.5)]);
        b.transition(1, "x", &[(3, 2.0)]);
        b.transition(1, "z", &[(0, 2.0)]);
        b.transition(2, "x", &[(0, 2.0)]);
        b.transition(3, "x", &[(3, 2.0)]);
        b.build()
    }

    #[test]
    fn recorded_scheduler_reproduces_the_optimal_value_bitwise() {
        use crate::scheduler::StepDependent;

        let m = nondeterministic_model();
        let goal = [false, false, false, true];
        let t = 1.3;
        let eps = 1e-10;
        for objective in [Objective::Maximize, Objective::Minimize] {
            let res = timed_reachability(
                &m,
                &goal,
                t,
                &ReachOptions::default()
                    .with_epsilon(eps)
                    .with_objective(objective)
                    .recording_decisions(),
            )
            .unwrap();
            let sched = StepDependent::from_result(&res);
            let replayed = evaluate_step_dependent(&m, &sched, &goal, t, eps).unwrap();
            assert_eq!(
                replayed.to_bits(),
                res.from_state(0).to_bits(),
                "{objective:?}"
            );
        }
    }

    #[test]
    fn exported_scheduler_round_trips_and_still_attains_the_value() {
        use crate::export;
        use crate::scheduler::StepDependent;

        let m = nondeterministic_model();
        let goal = [false, false, false, true];
        let t = 0.8;
        let eps = 1e-9;
        let res = timed_reachability(
            &m,
            &goal,
            t,
            &ReachOptions::default()
                .with_epsilon(eps)
                .recording_decisions(),
        )
        .unwrap();
        let sched = StepDependent::from_result(&res);
        let restored = export::scheduler_from_text(&export::scheduler_to_text(&sched)).unwrap();
        assert_eq!(restored, sched);
        let replayed = evaluate_step_dependent(&m, &restored, &goal, t, eps).unwrap();
        assert_eq!(replayed.to_bits(), res.from_state(0).to_bits());
    }

    #[test]
    fn suboptimal_step_dependent_scheduler_falls_below_the_sup() {
        use crate::scheduler::StepDependent;

        let m = race_model();
        let goal = [false, true, false];
        let t = 0.9;
        let eps = 1e-10;
        let sup = timed_reachability(&m, &goal, t, &ReachOptions::default().with_epsilon(eps))
            .unwrap()
            .from_state(0);
        // always "bad": never reaches the goal
        let bad = StepDependent::new(vec![vec![1, 0, 0]]);
        let v = evaluate_step_dependent(&m, &bad, &goal, t, eps).unwrap();
        assert_close!(v, 0.0, 1e-9);
        assert!(v < sup);
        // a one-step table that picks "good" matches the stationary value
        let good = StepDependent::new(vec![vec![0, 0, 0]]);
        let vg = evaluate_step_dependent(&m, &good, &goal, t, eps).unwrap();
        let stationary = evaluate_policy(&m, &Stationary::new(vec![0, 0, 0]), &goal, t, eps);
        assert_close!(vg, stationary, 1e-8);
    }

    #[test]
    fn evaluate_step_dependent_validates_inputs() {
        use crate::scheduler::StepDependent;

        let m = race_model();
        let goal = [false, true, false];
        let sched = StepDependent::new(vec![vec![0, 0, 0]]);
        assert!(matches!(
            evaluate_step_dependent(&m, &sched, &goal, 1.0, -1.0),
            Err(ReachError::InvalidEpsilon { .. })
        ));
        // t = 0: indicator of the initial state
        let v = evaluate_step_dependent(&m, &sched, &goal, 0.0, 1e-9).unwrap();
        assert_eq!(v, 0.0);
        let v = evaluate_step_dependent(&m, &sched, &[true, false, false], 0.0, 1e-9).unwrap();
        assert_eq!(v, 1.0);
    }
}
