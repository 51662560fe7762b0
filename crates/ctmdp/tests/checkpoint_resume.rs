//! Kill/resume determinism of the guarded engine on random models.
//!
//! The guarded layer promises that a run interrupted at *any* step and
//! resumed from its checkpoint produces **bitwise identical** values to
//! an uninterrupted run, at every thread count. These tests chop runs at
//! randomized budgets on XorShift64-seeded uniform CTMDPs and compare
//! raw `f64` bits.

use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use unicon_ctmdp::guard::{
    CheckpointConfig, GuardError, GuardEvent, GuardOptions, RunBudget, StopReason,
};
use unicon_ctmdp::par::ReachBatch;
use unicon_ctmdp::reachability::Objective;
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

fn temp_ck(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("unicon_ckres_{}_{name}.ck", std::process::id()))
}

/// Interrupt at a budget, resume repeatedly until complete, and demand
/// bitwise equality with the uninterrupted guarded and plain runs.
fn chop_and_resume(threads: usize, stop_after: usize, seed: u64) {
    let n = 60;
    let m = random_uniform_ctmdp(n, seed);
    let goal = random_goal(n, seed);
    let batch = ReachBatch::new(&m, &goal)
        .with_epsilon(1e-8)
        .with_exact_workers(threads)
        .query(0.75)
        .query_with(2.0, Objective::Minimize)
        .query(2.0);
    let plain = batch.run().expect("random models are uniform");

    let path = temp_ck(&format!("t{threads}_s{stop_after}_{seed}"));
    let ck = CheckpointConfig::new(&path, 3);
    let stopper = GuardOptions::default()
        .with_checkpoint(ck.clone())
        .with_budget(RunBudget::default().with_max_iterations(stop_after));
    let first = batch.run_guarded(&stopper).unwrap();
    assert_eq!(
        first.stopped.as_ref().map(|(r, _)| *r),
        Some(StopReason::MaxIterations),
        "stop_after {stop_after} must interrupt the run"
    );

    // resume in same-size hops until the batch completes
    let mut run = batch
        .resume(&path, &stopper)
        .expect("checkpoint written at the stop");
    assert!(matches!(
        run.events.first(),
        Some(GuardEvent::Resumed { .. })
    ));
    let mut hops = 0;
    while !run.is_complete() {
        hops += 1;
        assert!(hops < 10_000, "resume loop does not converge");
        run = batch.resume(&path, &stopper).unwrap();
    }
    assert_eq!(run.results.len(), plain.results.len());
    for (i, (g, p)) in run.results.iter().zip(&plain.results).enumerate() {
        assert_eq!(
            bits(&g.values),
            bits(&p.values),
            "threads {threads} stop_after {stop_after} query {i}"
        );
        assert_eq!(g.iterations, p.iterations);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resumed_runs_are_bitwise_identical_single_threaded() {
    for (stop_after, seed) in [(1, 11), (5, 12), (17, 13)] {
        chop_and_resume(1, stop_after, seed);
    }
}

#[test]
fn resumed_runs_are_bitwise_identical_four_threads() {
    for (stop_after, seed) in [(1, 21), (5, 22), (17, 23)] {
        chop_and_resume(4, stop_after, seed);
    }
}

#[test]
fn resumed_runs_are_bitwise_identical_two_and_eight_workers() {
    for (stop_after, seed) in [(1, 61), (5, 62), (17, 63)] {
        chop_and_resume(2, stop_after, seed);
        chop_and_resume(8, stop_after, seed);
    }
}

/// A budget stop yields the same partial bracket, bit for bit, at 1, 2
/// and 8 workers.
#[test]
fn budget_stop_brackets_are_identical_at_any_worker_count() {
    let n = 40;
    let m = random_uniform_ctmdp(n, 71);
    let goal = random_goal(n, 71);
    for stop_after in [0, 1, 6] {
        let partials: Vec<_> = [1, 2, 8]
            .into_iter()
            .map(|workers| {
                let guard = GuardOptions::default()
                    .with_budget(RunBudget::default().with_max_iterations(stop_after));
                let run = ReachBatch::new(&m, &goal)
                    .with_epsilon(1e-8)
                    .with_exact_workers(workers)
                    .query(1.5)
                    .run_guarded(&guard)
                    .unwrap();
                let (reason, partial) = run.stopped.expect("the budget stops the run");
                assert_eq!(reason, StopReason::MaxIterations);
                assert_eq!(run.health_checks, stop_after);
                partial.expect("a query was in flight")
            })
            .collect();
        for p in &partials {
            assert_eq!(p.completed_steps, stop_after);
            assert_eq!(
                bits(&p.lower),
                bits(&partials[0].lower),
                "stop_after {stop_after}"
            );
            assert_eq!(
                bits(&p.upper),
                bits(&partials[0].upper),
                "stop_after {stop_after}"
            );
        }
    }
}

#[test]
fn resume_crosses_thread_counts_bitwise() {
    // interrupt at 4 threads, finish at 1 thread — the checkpoint stores
    // raw iterate bits, so even mixed-thread histories stay identical
    let n = 40;
    let m = random_uniform_ctmdp(n, 31);
    let goal = random_goal(n, 31);
    let path = temp_ck("cross_threads");
    let par = ReachBatch::new(&m, &goal)
        .with_epsilon(1e-8)
        .with_exact_workers(4)
        .query(1.5);
    let seq = ReachBatch::new(&m, &goal)
        .with_epsilon(1e-8)
        .with_threads(1)
        .query(1.5);
    let reference = seq.run().unwrap();

    let stopper = GuardOptions::default()
        .with_checkpoint(CheckpointConfig::new(&path, 2))
        .with_budget(RunBudget::default().with_max_iterations(4));
    assert!(!par.run_guarded(&stopper).unwrap().is_complete());
    let finished = seq.resume(&path, &GuardOptions::default()).unwrap();
    assert!(finished.is_complete());
    assert_eq!(
        bits(&finished.results[0].values),
        bits(&reference.results[0].values)
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn cancel_flag_stop_is_resumable_too() {
    let n = 40;
    let m = random_uniform_ctmdp(n, 41);
    let goal = random_goal(n, 41);
    let path = temp_ck("cancelled");
    let batch = ReachBatch::new(&m, &goal).with_epsilon(1e-8).query(1.0);
    let reference = batch.run().unwrap();

    let flag = Arc::new(AtomicBool::new(true));
    let guard = GuardOptions::default()
        .with_checkpoint(CheckpointConfig::new(&path, 2))
        .with_budget(RunBudget::default().with_cancel_flag(flag));
    let run = batch.run_guarded(&guard).unwrap();
    assert_eq!(run.stopped.unwrap().0, StopReason::Cancelled);

    let finished = batch.resume(&path, &GuardOptions::default()).unwrap();
    assert!(finished.is_complete());
    assert_eq!(
        bits(&finished.results[0].values),
        bits(&reference.results[0].values)
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_against_a_different_model_is_rejected() {
    let m = random_uniform_ctmdp(40, 51);
    let goal = random_goal(40, 51);
    let path = temp_ck("wrong_model");
    let batch = ReachBatch::new(&m, &goal).with_epsilon(1e-8).query(1.0);
    let guard = GuardOptions::default()
        .with_checkpoint(CheckpointConfig::new(&path, 1))
        .with_budget(RunBudget::default().with_max_iterations(2));
    batch.run_guarded(&guard).unwrap();

    let other = random_uniform_ctmdp(48, 52);
    let other_goal = random_goal(48, 52);
    let err = ReachBatch::new(&other, &other_goal)
        .with_epsilon(1e-8)
        .query(1.0)
        .resume(&path, &GuardOptions::default())
        .unwrap_err();
    assert!(
        matches!(err, GuardError::CheckpointMismatch { .. }),
        "{err}"
    );
    let _ = std::fs::remove_file(&path);
}
