//! Differential tests of the fused value-iteration kernel.
//!
//! The fused kernel is a layout optimization, not a semantics change:
//! for every model, bound, objective, and thread count it must produce
//! values **and decisions** bitwise identical to the retained reference
//! kernel. These tests pin that contract on 40 randomly generated
//! uniform CTMDPs (XorShift64-seeded, so every run sees the same
//! models) plus the structural edge cases the fused layout special-cases
//! (empty transition rows, all-goal models, single-action models, t=0).

use unicon_ctmdp::par::timed_reachability_workers;
use unicon_ctmdp::reachability::{timed_reachability, Kernel, Objective, ReachOptions};
use unicon_ctmdp::{Ctmdp, CtmdpBuilder};
use unicon_numeric::rng::{Rng, XorShift64};

/// Builds a random uniform CTMDP: every rate function distributes
/// `UNITS * 0.5` of exit rate over up to four distinct targets, so all
/// exit rates are exactly equal (integer halves) by construction.
fn random_uniform_ctmdp(n: usize, seed: u64) -> Ctmdp {
    const UNITS: u64 = 8;
    let mut rng = XorShift64::seed_from_u64(seed);
    let mut b = CtmdpBuilder::new(n, 0);
    for s in 0..n as u32 {
        let choices = 1 + rng.random_range(3);
        for c in 0..choices {
            let k = 1 + rng.random_range(4.min(n));
            let mut targets = Vec::with_capacity(k);
            while targets.len() < k {
                let t = rng.random_range(n) as u32;
                if !targets.contains(&t) {
                    targets.push(t);
                }
            }
            let mut units = vec![1u64; k];
            for _ in 0..UNITS - k as u64 {
                units[rng.random_range(k)] += 1;
            }
            let rates: Vec<(u32, f64)> = targets
                .iter()
                .zip(&units)
                .map(|(&t, &u)| (t, u as f64 * 0.5))
                .collect();
            b.transition(s, &format!("a{c}"), &rates);
        }
    }
    b.build()
}

fn random_goal(n: usize, seed: u64) -> Vec<bool> {
    let mut rng = XorShift64::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut goal: Vec<bool> = (0..n).map(|_| rng.random_range(5) == 0).collect();
    goal[n - 1] = true; // never empty
    goal
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Runs both kernels over the same query (sequential engine) and
/// asserts bitwise parity at the value *and* decision level, then
/// repeats the fused run through the parallel engine on exactly 1, 2,
/// and 8 workers against the same reference result.
fn assert_kernel_parity(m: &Ctmdp, goal: &[bool], t: f64, objective: Objective, label: &str) {
    let base = ReachOptions::default()
        .with_epsilon(1e-7)
        .with_objective(objective)
        .recording_decisions();
    let reference = timed_reachability(m, goal, t, &base.with_kernel(Kernel::Reference)).unwrap();
    let fused = timed_reachability(m, goal, t, &base.with_kernel(Kernel::Fused)).unwrap();
    assert_eq!(bits(&fused.values), bits(&reference.values), "{label}");
    assert_eq!(fused.decisions, reference.decisions, "{label}");
    assert_eq!(fused.iterations, reference.iterations, "{label}");
    for workers in [1usize, 2, 8] {
        let exact =
            timed_reachability_workers(m, goal, t, &base.with_kernel(Kernel::Fused), workers)
                .unwrap();
        assert_eq!(
            bits(&exact.values),
            bits(&reference.values),
            "{label} workers={workers}"
        );
        assert_eq!(
            exact.decisions, reference.decisions,
            "{label} workers={workers}"
        );
    }
}

#[test]
fn fused_matches_reference_on_40_random_models() {
    for seed in 0..40u64 {
        let n = 8 + (seed as usize * 7) % 41; // sizes spread over 8..=48
        let m = random_uniform_ctmdp(n, seed);
        let goal = random_goal(n, seed);
        let t = 0.5 + (seed % 5) as f64 * 0.7;
        let objective = if seed % 2 == 0 {
            Objective::Maximize
        } else {
            Objective::Minimize
        };
        assert_kernel_parity(&m, &goal, t, objective, &format!("seed={seed} n={n}"));
    }
}

#[test]
fn fused_matches_reference_with_empty_transition_rows() {
    // States 2 and 5 are absorbing (no outgoing transitions at all) —
    // the fused layout encodes them as empty groups, the reference
    // kernel as empty `transitions_from` slices; both must agree.
    let n = 7;
    let mut b = CtmdpBuilder::new(n, 0);
    for s in [0u32, 1, 3, 4, 6] {
        b.transition(s, "a", &[((s + 1) % n as u32, 1.5), (0, 0.5)]);
        b.transition(s, "b", &[(2, 2.0)]);
    }
    let m = b.build();
    assert!(m.has_absorbing_states());
    let goal = [false, true, false, false, false, false, true];
    for objective in [Objective::Maximize, Objective::Minimize] {
        assert_kernel_parity(&m, &goal, 1.2, objective, "empty-rows");
    }
}

#[test]
fn fused_matches_reference_when_every_state_is_goal() {
    // All-goal is the fused layout's fast path: every group is Fixed and
    // the whole sweep collapses into element-wise runs.
    let n = 12;
    let m = random_uniform_ctmdp(n, 99);
    let goal = vec![true; n];
    for objective in [Objective::Maximize, Objective::Minimize] {
        assert_kernel_parity(&m, &goal, 2.0, objective, "all-goal");
    }
}

#[test]
fn fused_matches_reference_on_single_action_models() {
    // One action per state: max and min coincide and every group is a
    // Single class — no best-of loop at all.
    let n = 10;
    let mut b = CtmdpBuilder::new(n, 0);
    for s in 0..n as u32 {
        b.transition(
            s,
            "only",
            &[((s + 1) % n as u32, 3.0), ((s + 2) % n as u32, 1.0)],
        );
    }
    let m = b.build();
    let goal = random_goal(n, 4242);
    for objective in [Objective::Maximize, Objective::Minimize] {
        assert_kernel_parity(&m, &goal, 1.0, objective, "single-action");
    }
}

#[test]
fn fused_matches_reference_at_time_zero() {
    // t = 0 short-circuits to the goal indicator before any sweep runs;
    // both kernels must still agree bit-for-bit (including decisions).
    let n = 15;
    let m = random_uniform_ctmdp(n, 7);
    let goal = random_goal(n, 7);
    for objective in [Objective::Maximize, Objective::Minimize] {
        assert_kernel_parity(&m, &goal, 0.0, objective, "t=0");
    }
}
