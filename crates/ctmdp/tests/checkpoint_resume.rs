//! Kill/resume determinism of the guarded engine on random models.
//!
//! The guarded layer promises that a run interrupted at *any* step and
//! resumed from its checkpoint produces **bitwise identical** values to
//! an uninterrupted run, at every thread count. These tests chop runs at
//! randomized budgets on XorShift64-seeded uniform CTMDPs and compare
//! raw `f64` bits. A bounded mutation test feeds the checkpoint reader
//! damaged files: each resumes or fails with a typed error, never a
//! panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use unicon_ctmdp::guard::{
    CheckpointConfig, GuardError, GuardEvent, GuardOptions, RunBudget, StopReason,
};
use unicon_ctmdp::par::ReachBatch;
use unicon_ctmdp::reachability::Objective;
use unicon_ctmdp::{Ctmdp, CtmdpBuilder};
use unicon_numeric::fnv::fnv1a64;
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
                partial
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

/// A stop before the first step writes a checkpoint that resumes
/// bitwise.
#[test]
fn a_stop_before_the_first_step_is_resumable_too() {
    let n = 40;
    let m = random_uniform_ctmdp(n, 41);
    let goal = random_goal(n, 41);
    let path = temp_ck("first_step");
    let batch = ReachBatch::new(&m, &goal).with_epsilon(1e-8).query(1.0);
    let reference = batch.run().unwrap();

    let guard = GuardOptions::default()
        .with_checkpoint(CheckpointConfig::new(&path, 2))
        .with_budget(RunBudget::default().with_max_iterations(0));
    let run = batch.run_guarded(&guard).unwrap();
    assert_eq!(run.stopped.unwrap().0, StopReason::MaxIterations);

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

/// A checkpoint's body: everything before its FNV-1a trailer.
fn body(ck: &[u8]) -> &[u8] {
    &ck[..ck.len() - 8]
}

/// `body` with a trailer that matches it, so the reader decodes it.
fn seal(mut body: Vec<u8>) -> Vec<u8> {
    let trailer = fnv1a64(&body);
    body.extend_from_slice(&trailer.to_le_bytes());
    body
}

/// The offsets of a version-1 checkpoint's u64 count and index fields:
/// the state count, the query count, the completed count, each completed
/// query's step count and, with an in-progress section, its query index,
/// step total and step index.
fn count_fields(ck: &[u8]) -> Vec<(&'static str, usize)> {
    let at = |i: usize| u64::from_le_bytes(ck[i..i + 8].try_into().unwrap()) as usize;
    let (n, queries) = (at(12), at(36));
    let completed = 44 + 9 * queries;
    let mut fields = vec![("states", 12), ("queries", 36), ("completed", completed)];
    let mut next = completed + 8;
    for _ in 0..at(completed) {
        fields.push(("iterations", next));
        next += 8 + 8 * n;
    }
    if ck[next] == 1 {
        fields.extend([
            ("in-progress query", next + 1),
            ("step total", next + 9),
            ("step index", next + 17),
        ]);
    }
    fields
}

/// Damaged checkpoints resume or fail with a typed error, never a panic.
/// The two seeds are the checkpoint a budget stop writes in the middle of
/// a query (with an in-progress section) and the one a completed run
/// leaves (without one). Every count and index field of each is
/// overwritten with 0, 1, its neighbours, a huge value and `u64::MAX`;
/// the other mutants flip bits, truncate, or splice the two seeds. Most
/// are re-sealed with a matching trailer so that they reach the decoder;
/// one in eight keeps the seed's stale trailer.
#[test]
fn mutated_checkpoints_resume_or_fail_typed_never_panic() {
    const MUTANTS: usize = 2_400;
    let n = 40;
    let m = random_uniform_ctmdp(n, 81);
    let goal = random_goal(n, 81);
    let path = temp_ck("mutants");
    let batch = ReachBatch::new(&m, &goal)
        .with_epsilon(1e-8)
        .query(1.0)
        .query_with(1.5, Objective::Minimize);
    let k0 = batch.run().unwrap().results[0].iterations;
    let seed = |budget: RunBudget| {
        let guard = GuardOptions::default()
            .with_checkpoint(CheckpointConfig::new(&path, usize::MAX))
            .with_budget(budget);
        batch.run_guarded(&guard).unwrap();
        std::fs::read(&path).unwrap()
    };
    let seeds = [
        seed(RunBudget::default().with_max_iterations(k0 + 3)),
        seed(RunBudget::default()),
    ];
    assert_eq!(
        count_fields(&seeds[0]).len(),
        7,
        "one completed, one in progress"
    );
    assert_eq!(count_fields(&seeds[1]).len(), 5, "two completed");

    let mut mutants: Vec<(String, Vec<u8>)> = Vec::new();
    for (si, ck) in seeds.iter().enumerate() {
        for (field, at) in count_fields(ck) {
            let old = u64::from_le_bytes(ck[at..at + 8].try_into().unwrap());
            for v in [0, 1, old.wrapping_sub(1), old + 1, 1 << 40, u64::MAX] {
                let mut b = body(ck).to_vec();
                b[at..at + 8].copy_from_slice(&v.to_le_bytes());
                mutants.push((format!("seed {si}: {field} = {v}"), seal(b)));
            }
        }
    }
    let mut rng = XorShift64::seed_from_u64(0xc0ff_ee00_5eed);
    while mutants.len() < MUTANTS {
        let si = rng.random_range(2);
        let ck = body(&seeds[si]);
        let (what, b) = match rng.random_range(3) {
            0 => {
                let mut b = ck.to_vec();
                let mut at = Vec::new();
                for _ in 0..1 + rng.random_range(3) {
                    let i = rng.random_range(b.len());
                    b[i] ^= 1 << rng.random_range(8);
                    at.push(i);
                }
                (format!("bits flipped at {at:?}"), b)
            }
            1 => {
                let len = rng.random_range(ck.len());
                (format!("truncated to {len} bytes"), ck[..len].to_vec())
            }
            _ => {
                let other = body(&seeds[1 - si]);
                let (head, tail) = (rng.random_range(ck.len()), rng.random_range(other.len()));
                let mut b = ck[..head].to_vec();
                b.extend_from_slice(&other[tail..]);
                (
                    format!("first {head} bytes, then seed {} from {tail}", 1 - si),
                    b,
                )
            }
        };
        let bytes = if rng.random_range(8) == 0 {
            let mut b = b;
            b.extend_from_slice(&seeds[si][seeds[si].len() - 8..]);
            b
        } else {
            seal(b)
        };
        mutants.push((format!("seed {si}: {what}"), bytes));
    }

    let (mut resumed, mut corrupt, mut mismatched, mut panicked) = (0, 0, 0, Vec::new());
    for (what, bytes) in &mutants {
        std::fs::write(&path, bytes).unwrap();
        match catch_unwind(AssertUnwindSafe(|| {
            batch.resume(&path, &GuardOptions::default())
        })) {
            Ok(Ok(_)) => resumed += 1,
            Ok(Err(GuardError::CheckpointCorrupt { .. })) => corrupt += 1,
            Ok(Err(GuardError::CheckpointMismatch { .. })) => mismatched += 1,
            Ok(Err(_)) => {}
            Err(_) => panicked.push(what.clone()),
        }
    }
    let _ = std::fs::remove_file(&path);
    assert!(panicked.is_empty(), "mutants that panicked: {panicked:?}");
    assert!(
        resumed > 0 && corrupt > 0 && mismatched > 0,
        "{resumed} resumed, {corrupt} corrupt, {mismatched} mismatched of {MUTANTS}"
    );
}
