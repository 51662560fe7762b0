//! Randomized tests for the uniform-CTMDP timed-reachability engine,
//! driven by the in-tree deterministic [`XorShift64`] generator (fixed
//! seeds, no external PRNG).

use unicon_ctmc::transient::{self, TransientOptions};
use unicon_ctmc::Ctmc;
use unicon_ctmdp::policy::evaluate_step_dependent;
use unicon_ctmdp::reachability::{timed_reachability, Objective, ReachOptions};
use unicon_ctmdp::scheduler::{StepDependent, UniformRandom};
use unicon_ctmdp::simulate::{estimate_reachability, SimulationOptions};
use unicon_ctmdp::{Ctmdp, CtmdpBuilder};
use unicon_numeric::rng::{Rng, XorShift64};

const CASES: u64 = 64;

fn uniform(rng: &mut XorShift64, lo: f64, hi: f64) -> f64 {
    lo + rng.random_f64() * (hi - lo)
}

/// A random *uniform* CTMDP: every transition's rate function sums to the
/// same rate `e`.
#[derive(Debug, Clone)]
struct RawCtmdp {
    n: usize,
    /// per state: 1..=3 transitions, each a weighted target list
    transitions: Vec<Vec<Vec<(u8, f64)>>>,
    e: f64,
}

fn raw_ctmdp(rng: &mut XorShift64, max_states: usize) -> RawCtmdp {
    let n = 2 + rng.random_range(max_states - 1);
    let transitions = (0..n)
        .map(|_| {
            let num_transitions = 1 + rng.random_range(3);
            (0..num_transitions)
                .map(|_| {
                    let num_targets = 1 + rng.random_range(3);
                    (0..num_targets)
                        .map(|_| (rng.random_range(n) as u8, uniform(rng, 0.05, 1.0)))
                        .collect()
                })
                .collect()
        })
        .collect();
    let e = uniform(rng, 0.5, 6.0);
    RawCtmdp { n, transitions, e }
}

fn build(raw: &RawCtmdp) -> Ctmdp {
    let mut b = CtmdpBuilder::new(raw.n, 0);
    for (s, trans) in raw.transitions.iter().enumerate() {
        for (i, targets) in trans.iter().enumerate() {
            let total: f64 = targets.iter().map(|&(_, w)| w).sum();
            let pairs: Vec<(u32, f64)> = targets
                .iter()
                .map(|&(t, w)| (u32::from(t), raw.e * w / total))
                .collect();
            b.transition(s as u32, &format!("a{i}"), &pairs);
        }
    }
    b.build()
}

fn goal_from_mask(n: usize, mask: u8) -> Vec<bool> {
    (0..n).map(|s| mask & (1 << (s % 8)) != 0).collect()
}

fn nonzero_mask(rng: &mut XorShift64) -> u8 {
    1 + rng.random_range(254) as u8
}

/// The generated CTMDPs are uniform.
#[test]
fn generator_is_uniform() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x6E1F + case);
        let raw = raw_ctmdp(&mut rng, 6);
        let m = build(&raw);
        let e = m.uniform_rate().expect("uniform by construction");
        assert!((e - raw.e).abs() < 1e-9 * raw.e);
    }
}

/// Values are probabilities, monotone in t, and max dominates min.
#[test]
fn value_sanity() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x5A17 + case);
        let raw = raw_ctmdp(&mut rng, 6);
        let mask = nonzero_mask(&mut rng);
        let t = uniform(&mut rng, 0.05, 5.0);
        let m = build(&raw);
        let goal = goal_from_mask(m.num_states(), mask);
        let opts = ReachOptions::default().with_epsilon(1e-9);
        let hi = timed_reachability(&m, &goal, t, &opts).unwrap();
        let hi2 = timed_reachability(&m, &goal, 2.0 * t, &opts).unwrap();
        let lo =
            timed_reachability(&m, &goal, t, &opts.with_objective(Objective::Minimize)).unwrap();
        for (s, &g) in goal.iter().enumerate() {
            assert!((0.0..=1.0).contains(&hi.values[s]));
            assert!(hi.values[s] >= lo.values[s] - 1e-9);
            assert!(hi2.values[s] >= hi.values[s] - 1e-9);
            if g {
                assert_eq!(hi.values[s], 1.0);
            }
        }
    }
}

/// With a single transition per state, Algorithm 1 equals the CTMC oracle.
#[test]
fn singleton_equals_ctmc() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x51E7 + case);
        let raw = raw_ctmdp(&mut rng, 6);
        let mask = nonzero_mask(&mut rng);
        let t = uniform(&mut rng, 0.05, 5.0);
        // keep only the first transition of each state
        let mut det = raw.clone();
        for trans in &mut det.transitions {
            trans.truncate(1);
        }
        let m = build(&det);
        let goal = goal_from_mask(m.num_states(), mask);
        let res =
            timed_reachability(&m, &goal, t, &ReachOptions::default().with_epsilon(1e-11)).unwrap();
        // equivalent CTMC
        let mut triplets = Vec::new();
        for s in 0..m.num_states() {
            let tr = m.transitions_from(s as u32)[0];
            for &(tgt, rate) in m.rate_function(tr.rate_fn).targets() {
                triplets.push((s, tgt as usize, rate));
            }
        }
        let c = Ctmc::from_rates(m.num_states(), 0, triplets);
        let oracle = transient::reachability(
            &c,
            &goal,
            t,
            &TransientOptions::default().with_epsilon(1e-11),
        );
        for s in 0..m.num_states() {
            assert!(
                (res.values[s] - oracle.values[s]).abs() < 1e-7,
                "state {s}: {} vs {}",
                res.values[s],
                oracle.values[s]
            );
        }
    }
}

/// Adding an extra transition can only increase sup and decrease inf.
#[test]
fn more_choices_widen_the_envelope() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x3C40 + case);
        let raw = raw_ctmdp(&mut rng, 5);
        let num_extra = 1 + rng.random_range(2);
        let extra: Vec<(u8, f64)> = (0..num_extra)
            .map(|_| (rng.random_range(5) as u8, uniform(&mut rng, 0.05, 1.0)))
            .collect();
        let mask = nonzero_mask(&mut rng);
        let t = uniform(&mut rng, 0.1, 3.0);
        let m = build(&raw);
        let goal = goal_from_mask(m.num_states(), mask);
        let opts = ReachOptions::default().with_epsilon(1e-9);
        let hi = timed_reachability(&m, &goal, t, &opts).unwrap();
        let lo =
            timed_reachability(&m, &goal, t, &opts.with_objective(Objective::Minimize)).unwrap();

        // extend state 0 with one extra transition at the uniform rate
        let mut raw2 = raw.clone();
        let targets: Vec<(u8, f64)> = extra
            .iter()
            .map(|&(tgt, w)| (tgt % raw.n as u8, w))
            .collect();
        raw2.transitions[0].push(targets);
        let m2 = build(&raw2);
        let hi2 = timed_reachability(&m2, &goal, t, &opts).unwrap();
        let lo2 =
            timed_reachability(&m2, &goal, t, &opts.with_objective(Objective::Minimize)).unwrap();
        assert!(hi2.values[0] >= hi.values[0] - 1e-9);
        assert!(lo2.values[0] <= lo.values[0] + 1e-9);
    }
}

/// No simulated scheduler beats the computed supremum (statistically).
#[test]
fn simulation_below_sup() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x51B5 + case);
        let raw = raw_ctmdp(&mut rng, 5);
        let mask = nonzero_mask(&mut rng);
        let seed = rng.random_range(1000) as u64;
        let m = build(&raw);
        let goal = goal_from_mask(m.num_states(), mask);
        let t = 1.0;
        let sup = timed_reachability(&m, &goal, t, &ReachOptions::default().with_epsilon(1e-9))
            .unwrap()
            .from_state(0);
        let est = estimate_reachability(
            &m,
            &goal,
            t,
            &UniformRandom,
            &SimulationOptions { runs: 2_000, seed },
        );
        assert!(est.probability <= sup + 5.0 * est.std_error + 0.02);
    }
}

/// Exact policy evaluation agrees with Monte-Carlo replay of the same
/// stationary policy, and every stationary deterministic policy's value
/// lies inside [inf, sup].
#[test]
fn policy_evaluation_is_exact() {
    let mut checked = 0;
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x90E5 + case);
        let raw = raw_ctmdp(&mut rng, 5);
        let mask = nonzero_mask(&mut rng);
        let choice_seed = rng.random_range(8) as u16;
        use unicon_ctmdp::policy::{all_policies, evaluate_policy};
        use unicon_ctmdp::scheduler::Stationary;
        let m = build(&raw);
        let goal = goal_from_mask(m.num_states(), mask);
        if goal[0] {
            continue;
        }
        let t = 1.0;
        let policy = Stationary::new(
            (0..m.num_states() as u32)
                .map(|s| {
                    let k = m.transitions_from(s).len().max(1) as u16;
                    (choice_seed + s as u16) % k
                })
                .collect(),
        );
        let exact = evaluate_policy(&m, &policy, &goal, t, 1e-10);
        let opts = ReachOptions::default().with_epsilon(1e-10);
        let sup = timed_reachability(&m, &goal, t, &opts)
            .unwrap()
            .from_state(0);
        let inf = timed_reachability(&m, &goal, t, &opts.with_objective(Objective::Minimize))
            .unwrap()
            .from_state(0);
        let policies = all_policies(&m);
        assert!(policies.contains(&policy));
        checked += 1;
        for p in &policies {
            let v = evaluate_policy(&m, p, &goal, t, 1e-10);
            assert!(
                v <= sup + 1e-8 && v >= inf - 1e-8,
                "case {case}: policy {p:?} value {v} outside [{inf}, {sup}]"
            );
        }
        let est = estimate_reachability(
            &m,
            &goal,
            t,
            &policy,
            &SimulationOptions {
                runs: 3_000,
                seed: 5,
            },
        );
        assert!(
            est.is_consistent_with(exact, 5.0) || (est.probability - exact).abs() < 0.04,
            "simulation {} vs exact {exact}",
            est.probability
        );
    }
    // 33 of the 64 cases start outside the goal set.
    assert!(checked >= 16, "only {checked} cases checked");
}

/// The extracted optimal scheduler reproduces the sup (statistically),
/// and replaying the recorded sup and inf schedulers exactly reproduces
/// both values bit for bit.
#[test]
fn extracted_scheduler_attains_sup() {
    let mut replayed_cases = 0;
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0xE587 + case);
        let raw = raw_ctmdp(&mut rng, 4);
        let mask = nonzero_mask(&mut rng);
        let m = build(&raw);
        let goal = goal_from_mask(m.num_states(), mask);
        if goal[0] {
            continue;
        }
        let t = 0.8;
        let res = timed_reachability(
            &m,
            &goal,
            t,
            &ReachOptions::default()
                .with_epsilon(1e-9)
                .recording_decisions(),
        )
        .unwrap();
        let sched = StepDependent::from_result(&res);
        let est = estimate_reachability(
            &m,
            &goal,
            t,
            &sched,
            &SimulationOptions {
                runs: 4_000,
                seed: 7,
            },
        );
        assert!(
            est.is_consistent_with(res.from_state(0), 5.0)
                || (est.probability - res.from_state(0)).abs() < 0.03,
            "sim {} vs sup {}",
            est.probability,
            res.from_state(0)
        );
        for objective in [Objective::Maximize, Objective::Minimize] {
            let opts = ReachOptions::default()
                .with_epsilon(1e-9)
                .with_objective(objective)
                .recording_decisions();
            let res = timed_reachability(&m, &goal, t, &opts).unwrap();
            let sched = StepDependent::from_result(&res);
            let replayed = evaluate_step_dependent(&m, &sched, &goal, t, 1e-9).unwrap();
            assert_eq!(
                replayed.to_bits(),
                res.from_state(0).to_bits(),
                "case {case} {objective:?}: replay {replayed} vs {}",
                res.from_state(0)
            );
        }
        replayed_cases += 1;
    }
    // 26 of the 64 cases start outside the goal set.
    assert!(replayed_cases >= 16, "only {replayed_cases} cases replayed");
}
