//! Deterministic fault injection against the guarded engine.
//!
//! Compiled only under `--features fault-inject`. Every fault is planned
//! by a seeded [`FaultPlan`], so each scenario replays identically:
//!
//! * an injected NaN must surface as a [`GuardError::Health`] naming the
//!   planned step and state — never a silent wrong answer;
//! * an injected worker panic under [`DegradePolicy::Sequential`] must
//!   degrade the run to one thread and still produce values **bitwise
//!   identical** to a clean run, recording a Degradation event;
//! * the same panic under [`DegradePolicy::Fail`] must be the typed
//!   [`GuardError::WorkerPanicked`];
//! * a truncated checkpoint must be detected via the checksum trailer as
//!   [`GuardError::CheckpointCorrupt`] — never undefined behaviour.
#![cfg(feature = "fault-inject")]

use std::path::PathBuf;

use unicon_ctmdp::guard::{
    CheckpointConfig, DegradePolicy, FaultPlan, GuardError, GuardEvent, GuardOptions, HealthKind,
    RunBudget,
};
use unicon_ctmdp::par::ReachBatch;
use unicon_ctmdp::{Ctmdp, CtmdpBuilder};
use unicon_numeric::rng::{Rng, XorShift64};

/// Same generator as the differential suite: exact half-integer rates,
/// uniform by construction.
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
    goal[n - 1] = true;
    goal
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn temp_ck(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("unicon_fault_{}_{name}.ck", std::process::id()))
}

const N: usize = 40;
const SEED: u64 = 7;

/// `threads` is an exact worker count: planned faults name worker indices,
/// so the pool must not be clamped to the machine's cores.
fn batch<'a>(m: &'a Ctmdp, goal: &[bool], threads: usize) -> ReachBatch<'a> {
    ReachBatch::new(m, goal)
        .with_epsilon(1e-8)
        .with_exact_workers(threads)
        .query(1.5)
}

/// The iteration count of the test query, for planning faults in range.
fn steps(m: &Ctmdp, goal: &[bool]) -> usize {
    batch(m, goal, 1).run().unwrap().results[0].iterations
}

#[test]
fn injected_nan_is_a_typed_health_error_naming_step_and_state() {
    let m = random_uniform_ctmdp(N, SEED);
    let goal = random_goal(N, SEED);
    let k = steps(&m, &goal);
    for fault_seed in [1, 2, 3] {
        let plan = FaultPlan::nan(fault_seed, k, N);
        let (planned_step, planned_state) = plan.nan_at.unwrap();
        for threads in [1, 2, 4, 8] {
            let guard = GuardOptions::default().with_fault_plan(plan);
            let err = batch(&m, &goal, threads).run_guarded(&guard).unwrap_err();
            let GuardError::Health(health) = err else {
                panic!("expected a health error, got {err}");
            };
            assert_eq!(health.step, planned_step, "seed {fault_seed}");
            assert_eq!(health.state, planned_state, "seed {fault_seed}");
            assert_eq!(health.kind, HealthKind::NotANumber);
            // the message carries the location for log forensics
            let msg = health.to_string();
            assert!(msg.contains(&format!("step {planned_step}")), "{msg}");
            assert!(msg.contains(&format!("state {planned_state}")), "{msg}");
        }
    }
}

#[test]
fn worker_panic_degrades_to_sequential_with_bitwise_correct_values() {
    let m = random_uniform_ctmdp(N, SEED);
    let goal = random_goal(N, SEED);
    let k = steps(&m, &goal);
    let clean = batch(&m, &goal, 4).run().unwrap();
    for fault_seed in [1, 2, 3] {
        let plan = FaultPlan::worker_panic(fault_seed, k, 4);
        let (planned_step, planned_worker) = plan.panic_worker_at.unwrap();
        let guard = GuardOptions::default()
            .with_fault_plan(plan)
            .with_degrade_policy(DegradePolicy::Sequential);
        let run = batch(&m, &goal, 4).run_guarded(&guard).unwrap();
        assert!(run.is_complete(), "degraded run still completes");
        // quarantine + sequential replay keeps the determinism contract
        assert_eq!(
            bits(&run.results[0].values),
            bits(&clean.results[0].values),
            "seed {fault_seed}"
        );
        let degradations: Vec<_> = run
            .events
            .iter()
            .filter(|e| matches!(e, GuardEvent::Degradation { .. }))
            .collect();
        assert_eq!(degradations.len(), 1);
        let GuardEvent::Degradation {
            step,
            worker,
            from_threads,
            to_threads,
            ..
        } = degradations[0]
        else {
            unreachable!()
        };
        assert_eq!(*step, planned_step);
        assert_eq!(*worker, planned_worker);
        assert_eq!(*from_threads, 4);
        assert_eq!(*to_threads, 1);
    }
}

#[test]
fn degradation_emits_exactly_one_structured_guard_record() {
    let m = random_uniform_ctmdp(N, SEED);
    let goal = random_goal(N, SEED);
    let k = steps(&m, &goal);
    let plan = FaultPlan::worker_panic(2, k, 4);
    let (planned_step, _) = plan.panic_worker_at.unwrap();
    let guard = GuardOptions::default()
        .with_fault_plan(plan)
        .with_degrade_policy(DegradePolicy::Sequential);
    let (run, events) = unicon_obs::collect(|| batch(&m, &goal, 4).run_guarded(&guard).unwrap());
    assert!(run.is_complete());
    let degradations: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            unicon_obs::Event::Guard {
                kind: "degradation",
                query,
                step,
                detail,
            } => Some((*query, *step, detail.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(
        degradations.len(),
        1,
        "exactly one degradation record, got {degradations:?}"
    );
    let (query, step, detail) = &degradations[0];
    assert_eq!(*query, 0);
    assert_eq!(*step, planned_step);
    assert!(
        detail.contains("4 -> 1"),
        "detail names the thread drop: {detail}"
    );
}

#[test]
fn worker_panic_under_fail_policy_is_a_typed_error() {
    let m = random_uniform_ctmdp(N, SEED);
    let goal = random_goal(N, SEED);
    let k = steps(&m, &goal);
    let plan = FaultPlan::worker_panic(5, k, 4);
    let (planned_step, planned_worker) = plan.panic_worker_at.unwrap();
    let guard = GuardOptions::default()
        .with_fault_plan(plan)
        .with_degrade_policy(DegradePolicy::Fail);
    let err = batch(&m, &goal, 4).run_guarded(&guard).unwrap_err();
    let GuardError::WorkerPanicked {
        query,
        step,
        worker,
    } = err
    else {
        panic!("expected WorkerPanicked, got {err}");
    };
    assert_eq!(query, 0);
    assert_eq!(step, planned_step);
    assert_eq!(worker, planned_worker);
}

#[test]
fn truncated_checkpoints_are_detected_on_resume() {
    let m = random_uniform_ctmdp(N, SEED);
    let goal = random_goal(N, SEED);
    let path = temp_ck("truncate_plan");
    for chopped in [1, 64, 4096] {
        let guard = GuardOptions::default()
            .with_checkpoint(CheckpointConfig::new(&path, 2))
            .with_budget(RunBudget::default().with_max_iterations(5))
            .with_fault_plan(FaultPlan::truncate(chopped));
        let run = batch(&m, &goal, 1).run_guarded(&guard).unwrap();
        assert!(!run.is_complete());
        let err = batch(&m, &goal, 1)
            .resume(&path, &GuardOptions::default())
            .unwrap_err();
        assert!(
            matches!(err, GuardError::CheckpointCorrupt { .. }),
            "chopped {chopped}: {err}"
        );
        // the reason names the failed validation, not a panic backtrace
        assert!(err.to_string().contains("corrupt"), "{err}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn fault_plans_are_deterministic_given_the_seed() {
    assert_eq!(FaultPlan::nan(9, 100, 50), FaultPlan::nan(9, 100, 50));
    assert_ne!(FaultPlan::nan(9, 100, 50), FaultPlan::nan(10, 100, 50));
    let plan = FaultPlan::worker_panic(3, 20, 4);
    let (step, worker) = plan.panic_worker_at.unwrap();
    assert!((1..=20).contains(&step));
    assert!(worker < 4);
}

/// A NaN planted in the last state — the last worker's range at every
/// worker count — is the same typed error at 1, 2 and 8 workers.
#[test]
fn nan_in_the_last_workers_range_is_the_same_error_at_any_worker_count() {
    let m = random_uniform_ctmdp(N, SEED);
    let goal = random_goal(N, SEED);
    let k = steps(&m, &goal);
    let plan = FaultPlan {
        nan_at: Some((k / 2, N - 1)),
        ..FaultPlan::default()
    };
    let errors: Vec<_> = [1, 2, 8]
        .into_iter()
        .map(|workers| {
            let guard = GuardOptions::default().with_fault_plan(plan);
            match batch(&m, &goal, workers).run_guarded(&guard).unwrap_err() {
                GuardError::Health(e) => e,
                other => panic!("expected a health error at {workers} workers, got {other}"),
            }
        })
        .collect();
    assert_eq!(errors[0].step, k / 2);
    assert_eq!(errors[0].state, N - 1);
    assert_eq!(errors[0].kind, HealthKind::NotANumber);
    assert!(errors.iter().all(|e| *e == errors[0]), "{errors:?}");
}

/// A planned panic of the first or the last worker degrades to a replay
/// whose values are bitwise those of a clean run, at 1, 2 and 8 workers.
#[test]
fn planned_panic_degrades_bitwise_identically_at_any_worker_count() {
    let m = random_uniform_ctmdp(N, SEED);
    let goal = random_goal(N, SEED);
    let k = steps(&m, &goal);
    let clean = batch(&m, &goal, 1).run().unwrap();
    for workers in [1, 2, 8] {
        for worker in [0, workers - 1] {
            let plan = FaultPlan {
                panic_worker_at: Some((k / 3, worker)),
                ..FaultPlan::default()
            };
            let guard = GuardOptions::default()
                .with_fault_plan(plan)
                .with_degrade_policy(DegradePolicy::Sequential);
            let run = batch(&m, &goal, workers).run_guarded(&guard).unwrap();
            assert!(run.is_complete());
            assert_eq!(
                bits(&run.results[0].values),
                bits(&clean.results[0].values),
                "workers {workers}, panicking worker {worker}"
            );
            assert_eq!(
                run.events,
                vec![GuardEvent::Degradation {
                    query: 0,
                    step: k / 3,
                    worker,
                    from_threads: workers,
                    to_threads: 1,
                }]
            );
        }
    }
}
