//! Randomized tests for CTMC analyses: uniformization invariance and
//! phase-type identities. Driven by the in-tree deterministic
//! [`XorShift64`] generator (fixed seeds, no external PRNG).

use unicon_ctmc::transient::{self, TransientOptions};
use unicon_ctmc::{Ctmc, PhaseType};
use unicon_numeric::rng::{Rng, XorShift64};

const CASES: u64 = 96;

fn uniform(rng: &mut XorShift64, lo: f64, hi: f64) -> f64 {
    lo + rng.random_f64() * (hi - lo)
}

/// Random CTMC on up to 8 states with rates in a benign range.
fn raw_ctmc(rng: &mut XorShift64) -> (usize, Vec<(u8, u8, f64)>) {
    let n = 2 + rng.random_range(7);
    let len = 1 + rng.random_range(19);
    let ts = (0..len)
        .map(|_| {
            (
                rng.random_range(n) as u8,
                rng.random_range(n) as u8,
                uniform(rng, 0.05, 4.0),
            )
        })
        .collect();
    (n, ts)
}

fn build(n: usize, triplets: &[(u8, u8, f64)]) -> Ctmc {
    Ctmc::from_rates(
        n,
        0,
        triplets
            .iter()
            .map(|&(s, t, r)| (s as usize, t as usize, r)),
    )
}

fn opts() -> TransientOptions {
    TransientOptions::default().with_epsilon(1e-12)
}

/// Jensen: uniformization does not change transient probabilities.
#[test]
fn uniformization_is_transient_invariant() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x0F14 + case);
        let (n, ts) = raw_ctmc(&mut rng);
        let extra = uniform(&mut rng, 0.0, 5.0);
        let t = uniform(&mut rng, 0.1, 10.0);
        let c = build(n, &ts);
        let u = c.uniformize(c.max_exit_rate() + extra);
        let a = transient::distribution(&c, t, &opts());
        let b = transient::distribution(&u, t, &opts());
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-8, "{x} vs {y}");
        }
    }
}

/// Transient distributions stay stochastic.
#[test]
fn transient_is_stochastic() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x5702 + case);
        let (n, ts) = raw_ctmc(&mut rng);
        let t = uniform(&mut rng, 0.0, 20.0);
        let c = build(n, &ts);
        let pi = transient::distribution(&c, t, &opts());
        let sum: f64 = pi.iter().sum();
        assert!((sum - 1.0).abs() < 1e-8);
        assert!(pi.iter().all(|&p| (-1e-12..=1.0 + 1e-9).contains(&p)));
    }
}

/// Backward reachability agrees with forward transient mass when the
/// goal is absorbing.
#[test]
fn backward_forward_consistency() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0xBF0C + case);
        let (n, ts) = raw_ctmc(&mut rng);
        let t = uniform(&mut rng, 0.1, 10.0);
        // make state n-1 the absorbing goal
        let filtered: Vec<(u8, u8, f64)> = ts
            .iter()
            .copied()
            .filter(|&(s, _, _)| (s as usize) != n - 1)
            .collect();
        if filtered.is_empty() {
            continue;
        }
        let goal: Vec<bool> = (0..n).map(|s| s == n - 1).collect();
        let cc = build(n, &filtered);
        let back = transient::reachability(&cc, &goal, t, &opts());
        let forward = transient::distribution(&cc, t, &opts());
        assert!((back.from_state(0) - forward[n - 1]).abs() < 1e-8);
    }
}

/// Reachability is monotone in the horizon.
#[test]
fn reachability_monotone() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x7EAC + case);
        let (n, ts) = raw_ctmc(&mut rng);
        let t = uniform(&mut rng, 0.1, 5.0);
        let c = build(n, &ts);
        let goal: Vec<bool> = (0..n).map(|s| s % 2 == 1).collect();
        let p1 = transient::reachability(&c, &goal, t, &opts()).from_state(0);
        let p2 = transient::reachability(&c, &goal, 2.0 * t, &opts()).from_state(0);
        assert!(p2 >= p1 - 1e-9);
    }
}

/// Phase-type cdfs are monotone, bounded, and the uniformized chain
/// keeps the distribution.
#[test]
fn phase_type_cdf_properties() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x9ACD + case);
        let num_phases = 1 + rng.random_range(4);
        let rates: Vec<f64> = (0..num_phases)
            .map(|_| uniform(&mut rng, 0.2, 5.0))
            .collect();
        let t = uniform(&mut rng, 0.01, 10.0);
        let ph = PhaseType::hypoexponential(&rates);
        let c1 = ph.cdf(t);
        let c2 = ph.cdf(t * 1.5);
        assert!((0.0..=1.0).contains(&c1));
        assert!(c2 >= c1 - 1e-10);
        let u = ph.uniformize_at_max();
        let pi = transient::distribution(u.ctmc(), t, &opts());
        assert!((pi[u.absorbing() as usize] - c1).abs() < 1e-8);
    }
}

/// Mean of a hypoexponential is the sum of phase means.
#[test]
fn hypoexponential_mean() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x4EA2 + case);
        let num_phases = 1 + rng.random_range(4);
        let rates: Vec<f64> = (0..num_phases)
            .map(|_| uniform(&mut rng, 0.2, 5.0))
            .collect();
        let ph = PhaseType::hypoexponential(&rates);
        let expect: f64 = rates.iter().map(|r| 1.0 / r).sum();
        assert!((ph.mean() - expect).abs() < 1e-6 * expect);
    }
}

/// The embedded DTMC and the uniformized jump matrix are stochastic.
#[test]
fn jump_matrices_are_stochastic() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x70CA + case);
        let (n, ts) = raw_ctmc(&mut rng);
        let c = build(n, &ts);
        let p = c.embedded_dtmc();
        let u = c.uniformized_jump_matrix(c.max_exit_rate() + 1.0);
        for s in 0..n {
            assert!((p.row_sum(s) - 1.0).abs() < 1e-9);
            assert!((u.row_sum(s) - 1.0).abs() < 1e-9);
        }
    }
}
