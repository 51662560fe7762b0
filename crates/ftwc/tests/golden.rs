//! Golden-oracle regression tests for the FTWC case study.
//!
//! The worst-case timed-reachability values of the N = 1 fault-tolerant
//! workstation cluster are pinned here as computed by the full pipeline
//! (counter generator → uIMC → uCTMDP → Algorithm 1) at ε = 1e-12. Any
//! numerically meaningful change anywhere in the pipeline — generator
//! rates, transformation, Fox–Glynn weights, value iteration — trips
//! these tolerances; pure refactors must not.

// The golden constants keep all 17 significant digits they were harvested
// with, even where the trailing ones don't change the nearest f64.
#![allow(clippy::excessive_precision)]

use unicon_ftwc::{experiment, FtwcParams};

const EPS: f64 = 1e-12;
const TOL: f64 = 1e-11;

/// `(t, worst-case P(premium lost within t), iterations at ε = 1e-12)`.
const GOLDEN_WORST: [(f64, f64, usize); 4] = [
    (10.0, 7.101_560_459_894_761_79e-5, 59),
    (50.0, 4.306_053_692_787_877_53e-4, 178),
    (100.0, 8.828_158_744_823_514_51e-4, 308),
    (500.0, 4.493_261_702_761_632_87e-3, 1233),
];

/// `(t, Γ-resolved CTMC P(premium lost within t))` at the same bounds.
const GOLDEN_CTMC: [(f64, f64); 4] = [
    (10.0, 7.110_755_150_722_028_57e-5),
    (50.0, 4.310_973_496_154_099_42e-4),
    (100.0, 8.838_074_999_698_475_49e-4),
    (500.0, 4.498_234_209_923_007_19e-3),
];

fn bounds() -> Vec<f64> {
    GOLDEN_WORST.iter().map(|&(t, _, _)| t).collect()
}

#[test]
fn golden_model_shape_n1() {
    let bench = experiment::reach_bench(&FtwcParams::new(1), &[10.0], EPS, 1).unwrap();
    assert_eq!(bench.states, 112);
    assert!(
        (bench.batch.results[0].uniform_rate - 2.0047).abs() < 1e-12,
        "uniform rate drifted: {}",
        bench.batch.results[0].uniform_rate
    );
}

#[test]
fn golden_worst_case_values_n1() {
    let bench = experiment::reach_bench(&FtwcParams::new(1), &bounds(), EPS, 1).unwrap();
    let values = bench.initial_values();
    for ((t, v), &(gt, gv, gk)) in values.iter().zip(&GOLDEN_WORST) {
        assert_eq!(*t, gt);
        assert!(
            (v - gv).abs() <= TOL,
            "t = {t}: value {v:e} drifted from golden {gv:e}"
        );
        let k = bench
            .batch
            .stats
            .queries
            .iter()
            .find(|q| q.t == gt)
            .unwrap()
            .iterations;
        assert_eq!(k, gk, "t = {t}: iteration count changed");
    }
}

#[test]
fn golden_values_hold_under_the_parallel_engine() {
    let seq = experiment::reach_bench(&FtwcParams::new(1), &bounds(), EPS, 1).unwrap();
    let par = experiment::reach_bench(&FtwcParams::new(1), &bounds(), EPS, 4).unwrap();
    for (s, p) in seq.batch.results.iter().zip(&par.batch.results) {
        let s_bits: Vec<u64> = s.values.iter().map(|v| v.to_bits()).collect();
        let p_bits: Vec<u64> = p.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(s_bits, p_bits);
    }
    for ((t, v), &(_, gv, _)) in par.initial_values().iter().zip(&GOLDEN_WORST) {
        assert!((v - gv).abs() <= TOL, "t = {t} parallel value drifted");
    }
}

#[test]
fn golden_ctmc_overestimates_the_worst_case() {
    // The paper's headline observation (Figure 4): resolving the repair
    // nondeterminism by a rate-Γ race makes the classic CTMC treatment
    // OVERestimate even the worst-case probability of losing premium
    // service, at every time bound.
    let pts = experiment::figure4(&FtwcParams::new(1), &bounds(), EPS).unwrap();
    for (p, (&(t, gw, _), &(_, gc))) in pts.iter().zip(GOLDEN_WORST.iter().zip(&GOLDEN_CTMC)) {
        assert_eq!(p.t, t);
        assert!((p.ctmdp_worst - gw).abs() <= TOL, "t = {t} ctmdp drifted");
        assert!((p.ctmc - gc).abs() <= TOL, "t = {t} ctmc drifted");
        assert!(
            p.ctmc > p.ctmdp_worst,
            "t = {t}: CTMC {:e} fails to overestimate CTMDP {:e}",
            p.ctmc,
            p.ctmdp_worst
        );
    }
    // the absolute gap grows with the horizon
    let gaps: Vec<f64> = pts.iter().map(|p| p.ctmc - p.ctmdp_worst).collect();
    for w in gaps.windows(2) {
        assert!(w[1] > w[0], "gap not increasing: {gaps:?}");
    }
}
