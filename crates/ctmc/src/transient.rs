//! Transient analysis and timed reachability for CTMCs via uniformization.
//!
//! Both analyses run on the uniformized jump chain with Fox–Glynn Poisson
//! weights:
//!
//! * [`distribution`] computes the state distribution `π(t)` by forward
//!   vector–matrix iteration,
//! * [`reachability`] computes `Pr(s ⤳≤t B)` for *every* state by the
//!   backward value iteration that the uniform-CTMDP algorithm of the paper
//!   degenerates to when each state has exactly one transition — this is the
//!   CTMC oracle the CTMDP implementation is cross-validated against.

use unicon_numeric::FoxGlynn;
use unicon_sparse::CsrMatrix;

use crate::Ctmc;

/// Options controlling the uniformization analyses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientOptions {
    /// Truncation precision ε (the paper uses 1e-6).
    pub epsilon: f64,
    /// Optional uniformization rate override; must dominate every exit rate.
    /// `None` selects the maximal exit rate.
    pub uniformization_rate: Option<f64>,
}

impl Default for TransientOptions {
    fn default() -> Self {
        Self {
            epsilon: 1e-9,
            uniformization_rate: None,
        }
    }
}

impl TransientOptions {
    /// Sets the truncation precision.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `(0, 1)`.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");
        self.epsilon = epsilon;
        self
    }

    /// Forces a particular uniformization rate.
    pub fn with_rate(mut self, rate: f64) -> Self {
        self.uniformization_rate = Some(rate);
        self
    }

    fn rate_for(&self, ctmc: &Ctmc) -> f64 {
        let max = ctmc.max_exit_rate();
        let rate = self.uniformization_rate.unwrap_or(max);
        // A zero rate only happens for chains with no transitions at all;
        // use 1.0 so the Poisson machinery stays well-defined.
        if rate <= 0.0 {
            1.0
        } else {
            rate
        }
    }
}

/// Result of a reachability analysis: one probability per state, plus the
/// iteration count (the Fox–Glynn right truncation point `k(ε, E, t)`).
#[derive(Debug, Clone, PartialEq)]
pub struct ReachabilityResult {
    /// `values[s] = Pr(s ⤳≤t B)`.
    pub values: Vec<f64>,
    /// Number of value-iteration steps performed.
    pub iterations: usize,
    /// The uniformization rate used.
    pub rate: f64,
}

impl ReachabilityResult {
    /// The probability from a particular state.
    pub fn from_state(&self, s: u32) -> f64 {
        self.values[s as usize]
    }
}

/// Transient state distribution `π(t)` starting from the initial state.
///
/// # Panics
///
/// Panics under the conditions of [`distribution_from`].
pub fn distribution(ctmc: &Ctmc, t: f64, opts: &TransientOptions) -> Vec<f64> {
    let mut init = vec![0.0; ctmc.num_states()];
    init[ctmc.initial() as usize] = 1.0;
    distribution_from(ctmc, &init, t, opts)
}

/// Transient distribution from an arbitrary initial distribution.
///
/// # Panics
///
/// Panics if `t < 0`, `t` is not finite, `init` has the wrong length, or
/// the uniformization rate times `t` exceeds [`FoxGlynn::MAX_LAMBDA`].
pub fn distribution_from(ctmc: &Ctmc, init: &[f64], t: f64, opts: &TransientOptions) -> Vec<f64> {
    assert!(
        t.is_finite() && t >= 0.0,
        "time bound must be finite and >= 0"
    );
    assert_eq!(
        init.len(),
        ctmc.num_states(),
        "initial vector length mismatch"
    );
    if t == 0.0 {
        return init.to_vec();
    }
    let rate = opts.rate_for(ctmc);
    let p = ctmc.uniformized_jump_matrix(rate);
    let fg = FoxGlynn::new(rate * t);
    let k = fg.right_truncation(opts.epsilon);

    let mut pi = init.to_vec();
    let mut acc = vec![0.0; pi.len()];
    for n in 0..=k {
        let w = fg.psi(n);
        if w > 0.0 {
            for (a, &x) in acc.iter_mut().zip(&pi) {
                *a += w * x;
            }
        }
        if n < k {
            pi = p.matvec_transposed(&pi);
        }
    }
    acc
}

/// Timed reachability `Pr(s ⤳≤t B)` for every state, by backward value
/// iteration on the uniformized chain with goal states made absorbing.
///
/// This is Algorithm 1 of the paper specialized to a single transition per
/// state, and serves as the cross-validation oracle for the CTMDP engine.
///
/// # Panics
///
/// Panics if `goal.len()` does not match, `t` is negative/not finite, or
/// the uniformization rate times `t` exceeds [`FoxGlynn::MAX_LAMBDA`].
pub fn reachability(
    ctmc: &Ctmc,
    goal: &[bool],
    t: f64,
    opts: &TransientOptions,
) -> ReachabilityResult {
    assert_eq!(goal.len(), ctmc.num_states(), "goal vector length mismatch");
    assert!(
        t.is_finite() && t >= 0.0,
        "time bound must be finite and >= 0"
    );
    let n = ctmc.num_states();
    if t == 0.0 {
        return ReachabilityResult {
            values: goal.iter().map(|&g| f64::from(u8::from(g))).collect(),
            iterations: 0,
            rate: opts.rate_for(ctmc),
        };
    }
    let rate = opts.rate_for(ctmc);
    let p = ctmc.uniformized_jump_matrix(rate);
    let fg = FoxGlynn::new(rate * t);
    let k = fg.right_truncation(opts.epsilon);

    let mut q_next = vec![0.0; n]; // q_{i+1}
    let mut q = vec![0.0; n];
    for i in (1..=k).rev() {
        let psi = fg.psi(i);
        backward_step(&p, goal, psi, &q_next, &mut q);
        std::mem::swap(&mut q, &mut q_next);
    }
    // q_next now holds q_1.
    let values = (0..n)
        .map(|s| {
            if goal[s] {
                1.0
            } else {
                q_next[s].clamp(0.0, 1.0)
            }
        })
        .collect();
    ReachabilityResult {
        values,
        iterations: k,
        rate,
    }
}

/// One backward step: `q_i` from `q_{i+1}`.
fn backward_step(p: &CsrMatrix, goal: &[bool], psi: f64, q_next: &[f64], q: &mut [f64]) {
    for s in 0..p.rows() {
        if goal[s] {
            q[s] = psi + q_next[s];
        } else {
            let mut v = 0.0;
            let mut to_goal = 0.0;
            for (t, pr) in p.row(s) {
                if goal[t] {
                    to_goal += pr;
                }
                v += pr * q_next[t];
            }
            q[s] = psi * to_goal + v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicon_numeric::assert_close;
    use unicon_numeric::special::{erlang_cdf, exponential_cdf};

    fn opts() -> TransientOptions {
        TransientOptions::default().with_epsilon(1e-12)
    }

    #[test]
    fn distribution_at_time_zero() {
        let c = Ctmc::from_rates(2, 0, [(0, 1, 1.0)]);
        let pi = distribution(&c, 0.0, &opts());
        assert_eq!(pi, vec![1.0, 0.0]);
    }

    #[test]
    fn two_state_birth_death_matches_closed_form() {
        // 0 -> 1 at rate a, 1 -> 0 at rate b: closed-form transient solution.
        let (a, b) = (2.0, 3.0);
        let c = Ctmc::from_rates(2, 0, [(0, 1, a), (1, 0, b)]);
        for t in [0.1, 0.5, 1.0, 4.0] {
            let pi = distribution(&c, t, &opts());
            let p1 = a / (a + b) * (1.0 - (-(a + b) * t).exp());
            assert_close!(pi[1], p1, 1e-10);
            assert_close!(pi[0] + pi[1], 1.0, 1e-10);
        }
    }

    #[test]
    fn distribution_sums_to_one() {
        let c = Ctmc::from_rates(
            4,
            0,
            [
                (0, 1, 1.0),
                (1, 2, 0.5),
                (2, 3, 2.0),
                (3, 0, 1.5),
                (0, 2, 0.3),
            ],
        );
        for t in [0.0, 0.7, 3.0, 25.0] {
            let pi = distribution(&c, t, &opts());
            assert_close!(pi.iter().sum::<f64>(), 1.0, 1e-9);
        }
    }

    #[test]
    fn uniformization_rate_override_is_equivalent() {
        let c = Ctmc::from_rates(3, 0, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 0.1)]);
        let a = distribution(&c, 1.3, &opts());
        let b = distribution(&c, 1.3, &opts().with_rate(10.0));
        for (x, y) in a.iter().zip(&b) {
            assert_close!(*x, *y, 1e-9);
        }
    }

    #[test]
    fn reachability_exponential_closed_form() {
        // 0 -> 1 at rate λ, 1 absorbing; Pr(0 ⤳≤t {1}) = 1 - e^{-λt}.
        let lambda = 0.8;
        let c = Ctmc::from_rates(2, 0, [(0, 1, lambda)]);
        for t in [0.2, 1.0, 5.0] {
            let r = reachability(&c, &[false, true], t, &opts());
            assert_close!(r.from_state(0), exponential_cdf(lambda, t), 1e-10);
            assert_eq!(r.from_state(1), 1.0);
        }
    }

    #[test]
    fn reachability_erlang_chain() {
        // 0 -> 1 -> 2 each at rate λ; reaching state 2 is an Erlang-2 delay.
        let lambda = 1.7;
        let c = Ctmc::from_rates(3, 0, [(0, 1, lambda), (1, 2, lambda)]);
        for t in [0.3, 1.0, 2.5] {
            let r = reachability(&c, &[false, false, true], t, &opts());
            assert_close!(r.from_state(0), erlang_cdf(2, lambda, t), 1e-10);
            assert_close!(r.from_state(1), erlang_cdf(1, lambda, t), 1e-10);
        }
    }

    #[test]
    fn reachability_agrees_with_forward_transient_on_absorbing_goal() {
        // When goal states are absorbing, Pr(init ⤳≤t B) equals the transient
        // mass on B at time t.
        let c = Ctmc::from_rates(4, 0, [(0, 1, 1.0), (0, 2, 0.5), (1, 3, 2.0), (2, 3, 0.7)]);
        let goal = [false, false, false, true];
        for t in [0.5, 2.0] {
            let back = reachability(&c, &goal, t, &opts()).from_state(0);
            let forward = distribution(&c, t, &opts())[3];
            assert_close!(back, forward, 1e-9);
        }
    }

    #[test]
    fn reachability_monotone_in_time() {
        let c = Ctmc::from_rates(3, 0, [(0, 1, 0.4), (1, 0, 1.0), (1, 2, 0.2)]);
        let goal = [false, false, true];
        let mut prev = 0.0;
        for i in 1..10 {
            let t = i as f64;
            let v = reachability(&c, &goal, t, &opts()).from_state(0);
            assert!(v >= prev - 1e-12);
            prev = v;
        }
    }

    #[test]
    fn iteration_count_is_foxglynn_truncation() {
        let c = Ctmc::from_rates(2, 0, [(0, 1, 2.0), (1, 0, 2.0)]);
        let r = reachability(
            &c,
            &[false, true],
            100.0,
            &TransientOptions::default().with_epsilon(1e-6),
        );
        let fg = FoxGlynn::new(200.0);
        assert_eq!(r.iterations, fg.right_truncation(1e-6));
    }

    #[test]
    fn no_transition_chain_stays_put() {
        let c = Ctmc::from_rates(2, 1, []);
        let pi = distribution(&c, 5.0, &opts());
        assert_eq!(pi[0], 0.0);
        assert_close!(pi[1], 1.0, 1e-9); // short of 1 by the ε truncation
        let r = reachability(&c, &[true, false], 5.0, &opts());
        assert_eq!(r.from_state(1), 0.0);
        assert_eq!(r.from_state(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "finite and >= 0")]
    fn rejects_negative_time() {
        let c = Ctmc::from_rates(1, 0, []);
        distribution(&c, -1.0, &opts());
    }
}
