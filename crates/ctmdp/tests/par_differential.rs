//! Differential tests of the parallel and batched reachability engines.
//!
//! The determinism contract says parallel results are **bitwise
//! identical** to the sequential engine's for every thread count, and a
//! batch run is bitwise identical to its queries run one by one. These
//! tests pin both claims on randomly generated uniform CTMDPs
//! (XorShift64-seeded, so every run sees the same models).

use unicon_ctmdp::par::{timed_reachability_workers, ReachBatch, ReachEngine, CHECKSUM_BLOCK};
use unicon_ctmdp::reachability::{timed_reachability, Objective, ReachOptions};
use unicon_ctmdp::{Ctmdp, CtmdpBuilder};
use unicon_numeric::chunked_stable_sum;
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
            // one unit each, then scatter the rest — totals stay exact
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

#[test]
fn generated_models_are_uniform() {
    for seed in 0..5 {
        let m = random_uniform_ctmdp(20, seed);
        assert_eq!(m.uniform_rate().unwrap(), 4.0, "seed {seed}");
    }
}

#[test]
fn parallel_is_bitwise_equal_for_1_2_and_8_threads() {
    for (n, seed, t) in [(7, 1, 0.7), (33, 2, 3.0), (64, 3, 1.5)] {
        let m = random_uniform_ctmdp(n, seed);
        let goal = random_goal(n, seed);
        for objective in [Objective::Maximize, Objective::Minimize] {
            let opts = ReachOptions::default()
                .with_epsilon(1e-9)
                .with_objective(objective);
            let seq = timed_reachability(&m, &goal, t, &opts).unwrap();
            for workers in [1, 2, 8] {
                let exact = timed_reachability_workers(&m, &goal, t, &opts, workers).unwrap();
                assert_eq!(
                    bits(&exact.values),
                    bits(&seq.values),
                    "n={n} seed={seed} t={t} {objective:?} workers={workers}"
                );
                assert_eq!(exact.iterations, seq.iterations);
                assert_eq!(exact.uniform_rate.to_bits(), seq.uniform_rate.to_bits());
            }
        }
    }
}

#[test]
fn parallel_decision_recording_is_bitwise_equal() {
    let n = 40;
    let m = random_uniform_ctmdp(n, 11);
    let goal = random_goal(n, 11);
    let opts = ReachOptions::default()
        .with_epsilon(1e-8)
        .recording_decisions();
    let seq = timed_reachability(&m, &goal, 2.0, &opts).unwrap();
    assert!(!seq.decisions.is_empty());
    for workers in [2, 8] {
        let exact = timed_reachability_workers(&m, &goal, 2.0, &opts, workers).unwrap();
        assert_eq!(exact.decisions, seq.decisions, "workers {workers}");
        assert_eq!(bits(&exact.values), bits(&seq.values));
    }
    // One state per worker: every decision row is stitched from n pieces.
    let one_each = timed_reachability_workers(&m, &goal, 2.0, &opts, n).unwrap();
    assert_eq!(one_each.decisions, seq.decisions);
    assert_eq!(bits(&one_each.values), bits(&seq.values));
}

#[test]
fn batch_is_bitwise_equal_to_repeated_single_queries() {
    let n = 25;
    let m = random_uniform_ctmdp(n, 7);
    let goal = random_goal(n, 7);
    let eps = 1e-9;
    let bounds = [0.3, 1.0, 1.0, 4.0];
    for threads in [1, 2, 8] {
        let mut batch = ReachBatch::new(&m, &goal)
            .with_epsilon(eps)
            .with_exact_workers(threads);
        for &t in &bounds {
            batch = batch.query(t);
        }
        let out = batch.run().unwrap();
        assert_eq!(out.results.len(), bounds.len());
        for (r, &t) in out.results.iter().zip(&bounds) {
            let single =
                timed_reachability(&m, &goal, t, &ReachOptions::default().with_epsilon(eps))
                    .unwrap();
            assert_eq!(
                bits(&r.values),
                bits(&single.values),
                "t={t} threads={threads}"
            );
            assert_eq!(r.iterations, single.iterations);
        }
        // the repeated bound re-uses its weight vector
        assert_eq!(out.stats.cache_misses, 3);
        assert_eq!(out.stats.cache_hits, 1);
    }
}

#[test]
fn batch_checksums_are_identical_across_thread_counts() {
    let n = 50;
    let m = random_uniform_ctmdp(n, 23);
    let goal = random_goal(n, 23);
    let run = |threads| {
        ReachBatch::new(&m, &goal)
            .with_epsilon(1e-9)
            .with_exact_workers(threads)
            .query(0.5)
            .query(2.0)
            .run()
            .unwrap()
    };
    let reference = run(1);
    for threads in [2, 8] {
        let out = run(threads);
        for (a, b) in reference.stats.queries.iter().zip(&out.stats.queries) {
            assert_eq!(
                a.checksum.to_bits(),
                b.checksum.to_bits(),
                "t={} threads={threads}",
                a.t
            );
        }
    }
}

/// PR-9 regression: iterate scratch buffers are compiled once per batch
/// and reused across queries. `BatchStats::buffer_allocs` is the probe —
/// a 3-query batch must allocate exactly as much as a 1-query batch
/// (the first query warms the buffers, later ones add zero), and the
/// values computed in reused buffers must stay bitwise identical to
/// fresh single-query runs.
#[test]
fn batch_buffers_are_allocated_once_and_reused_bitwise() {
    let n = 30;
    let m = random_uniform_ctmdp(n, 13);
    let goal = random_goal(n, 13);
    let bounds = [0.8, 1.6, 2.4];
    for threads in [1, 4] {
        let one = ReachBatch::new(&m, &goal)
            .with_exact_workers(threads)
            .query(bounds[0])
            .run()
            .unwrap();
        let mut batch = ReachBatch::new(&m, &goal).with_exact_workers(threads);
        for &t in &bounds {
            batch = batch.query(t);
        }
        let three = batch.run().unwrap();
        assert!(one.stats.buffer_allocs > 0, "threads={threads}");
        assert_eq!(
            three.stats.buffer_allocs, one.stats.buffer_allocs,
            "3-query batch must not allocate beyond the first query's \
             warm-up (threads={threads})"
        );
        for (r, &t) in three.results.iter().zip(&bounds) {
            let single = timed_reachability(&m, &goal, t, &ReachOptions::default()).unwrap();
            assert_eq!(
                bits(&r.values),
                bits(&single.values),
                "reused buffer diverged at t={t} threads={threads}"
            );
        }
    }
}

/// A long-lived engine keeps its value planes between queries: repeated
/// `query_with_weights` calls allocate only on the first, at any worker
/// count, and the reused planes give the fresh-run bits.
#[test]
fn engine_planes_are_allocated_once_across_repeated_queries() {
    let n = 30;
    let m = random_uniform_ctmdp(n, 17);
    let goal = random_goal(n, 17);
    let engine = ReachEngine::new(&m, &goal).unwrap();
    let mut cache = unicon_numeric::WeightCache::new();
    let eps = 1e-9;
    let mut after_first = None;
    for (i, t) in [0.8, 1.6, 2.4, 0.8, 1.6].into_iter().enumerate() {
        for threads in [1, 2] {
            let weights = cache.get(engine.uniform_rate(), t, eps).clone();
            let r = engine
                .query_with_weights(&m, t, Objective::Maximize, eps, &weights, threads)
                .unwrap();
            let single =
                timed_reachability(&m, &goal, t, &ReachOptions::default().with_epsilon(eps))
                    .unwrap();
            assert_eq!(bits(&r.values), bits(&single.values), "t={t}");
        }
        let allocs = engine.buffer_allocs();
        assert!(allocs > 0);
        match after_first {
            None => after_first = Some(allocs),
            Some(first) => assert_eq!(allocs, first, "query {i} allocated planes again"),
        }
    }
}

/// Queries running beside each other on one engine take fresh planes and
/// drop them: the engine keeps one pair, its resident size counts that
/// pair from construction on, and a later serial query allocates nothing.
#[test]
fn engine_keeps_one_counted_pair_of_planes_under_concurrency() {
    let n = 30;
    let m = random_uniform_ctmdp(n, 19);
    let goal = random_goal(n, 19);
    let engine = ReachEngine::new(&m, &goal).unwrap();
    let bytes = engine.memory_bytes();
    assert!(bytes > 2 * n * std::mem::size_of::<f64>());
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| engine.query(&m, 1.6, Objective::Maximize, 1e-9, 2).unwrap());
        }
    });
    assert_eq!(engine.memory_bytes(), bytes);
    let allocs = engine.buffer_allocs();
    assert!(allocs >= 2);
    engine.query(&m, 0.8, Objective::Maximize, 1e-9, 1).unwrap();
    assert_eq!(engine.buffer_allocs(), allocs, "the kept pair serves it");
}

/// Runs `queries` as one batch on exactly 1, 2 and 8 workers and holds
/// every answer to its query run alone: values, iteration count and
/// checksum, bit for bit. On the fused kernel a batch with two or more
/// bounds above zero runs them as lanes over the goal-folded model, split
/// across the workers by query first and by slot after.
fn assert_batch_matches_singles(
    m: &Ctmdp,
    goal: &[bool],
    queries: &[(f64, Objective)],
    label: &str,
) {
    let eps = 1e-9;
    let singles: Vec<_> = queries
        .iter()
        .map(|&(t, objective)| {
            let opts = ReachOptions::default()
                .with_epsilon(eps)
                .with_objective(objective);
            timed_reachability(m, goal, t, &opts).unwrap()
        })
        .collect();
    for workers in [1, 2, 8] {
        let batch = queries.iter().fold(
            ReachBatch::new(m, goal)
                .with_epsilon(eps)
                .with_exact_workers(workers),
            |b, &(t, objective)| b.query_with(t, objective),
        );
        let out = batch.run().unwrap();
        assert_eq!(out.results.len(), queries.len(), "{label}");
        for (i, ((r, q), single)) in out
            .results
            .iter()
            .zip(&out.stats.queries)
            .zip(&singles)
            .enumerate()
        {
            let at = format!("{label} workers={workers} query {i} {:?}", queries[i]);
            assert_eq!(bits(&r.values), bits(&single.values), "{at}");
            assert_eq!(r.iterations, single.iterations, "{at}");
            assert_eq!(q.iterations, single.iterations, "{at}");
            assert_eq!(
                q.checksum.to_bits(),
                chunked_stable_sum(&single.values, CHECKSUM_BLOCK).to_bits(),
                "{at}"
            );
        }
        assert_eq!(
            out.stats.total_iterations,
            singles.iter().map(|s| s.iterations).sum::<usize>(),
            "{label}"
        );
    }
}

/// Random batches of 2 to 9 queries — mixed objectives, repeated bounds,
/// zero bounds — on random models: some fill one lane group, some two.
#[test]
fn laned_batches_are_bitwise_equal_to_their_single_queries() {
    const BOUNDS: [f64; 6] = [0.0, 0.3, 1.0, 1.0, 2.5, 4.0];
    let mut rng = XorShift64::seed_from_u64(0x1a4e_5eed);
    for seed in 0..12 {
        let n = 5 + rng.random_range(40);
        let m = random_uniform_ctmdp(n, 100 + seed);
        let goal = random_goal(n, 100 + seed);
        let queries: Vec<(f64, Objective)> = (0..2 + rng.random_range(8))
            .map(|_| {
                let objective = if rng.random_range(2) == 0 {
                    Objective::Maximize
                } else {
                    Objective::Minimize
                };
                (BOUNDS[rng.random_range(BOUNDS.len())], objective)
            })
            .collect();
        assert_batch_matches_singles(&m, &goal, &queries, &format!("seed {seed} n={n}"));
    }
}

/// The models folding special-cases: no goal state (no goal slot), every
/// state a goal (nothing but the slot), a state whose only successor is a
/// goal state (a row that reads the slot alone), and an absorbing
/// non-goal state.
#[test]
fn laned_batches_fold_edge_models_bitwise() {
    let queries = [
        (0.5, Objective::Maximize),
        (2.0, Objective::Minimize),
        (2.0, Objective::Maximize),
        (0.0, Objective::Minimize),
    ];
    let m = random_uniform_ctmdp(20, 41);
    assert_batch_matches_singles(&m, &[false; 20], &queries, "no goal");
    assert_batch_matches_singles(&m, &[true; 20], &queries, "all goal");

    let mut b = CtmdpBuilder::new(5, 0);
    b.transition(0, "go", &[(1, 2.0)]); // only successor: a goal state
    b.transition(0, "stay", &[(0, 1.0), (2, 1.0)]);
    b.transition(1, "loop", &[(1, 2.0)]);
    b.transition(2, "a", &[(3, 1.0), (4, 1.0)]);
    b.transition(3, "to_goal", &[(4, 2.0)]); // a second goal, same slot
    let m = b.build(); // state 4 has no transitions
    assert_batch_matches_singles(
        &m,
        &[false, true, false, false, true],
        &queries,
        "goal-only row",
    );
    assert_batch_matches_singles(
        &m,
        &[false, true, false, false, false],
        &queries,
        "absorbing",
    );
}

/// More than four lanes run as two groups, one after another on one
/// worker, and share one pair of planes whether one worker runs them or
/// the workers split them by query: the `buffer_allocs` probe of a laned
/// batch.
#[test]
fn laned_batch_groups_share_one_pair_of_planes() {
    let n = 30;
    let m = random_uniform_ctmdp(n, 29);
    let goal = random_goal(n, 29);
    let bounds = [0.4, 3.0, 1.2, 2.2, 0.8, 1.6];
    let queries: Vec<_> = bounds.iter().map(|&t| (t, Objective::Maximize)).collect();
    assert_batch_matches_singles(&m, &goal, &queries, "six lanes");
    for workers in [1, 3, 8] {
        let batch = bounds.iter().fold(
            ReachBatch::new(&m, &goal).with_exact_workers(workers),
            |b, &t| b.query(t),
        );
        let out = batch.run().unwrap();
        assert_eq!(out.stats.buffer_allocs, 2, "workers={workers}");
        if workers == 1 {
            // Lanes run k descending: the four longest, then the rest.
            let mut k: Vec<usize> = out.results.iter().map(|r| r.iterations).collect();
            k.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(out.stats.sweeps, k[0] + k[4]);
        }
    }
}

/// A laned batch reports each query's iteration records exactly as the
/// query run alone does: the same steps, Poisson weights, residuals and
/// checksums of the n-state iterate, however the lanes interleave them —
/// over one checksum block and over several.
#[test]
fn laned_iteration_records_match_single_queries() {
    for n in [25, 3 * CHECKSUM_BLOCK + 7] {
        let m = random_uniform_ctmdp(n, 31);
        let goal = random_goal(n, 31);
        assert_laned_records_match(&m, &goal);
    }
}

fn assert_laned_records_match(m: &Ctmdp, goal: &[bool]) {
    let queries = [
        (1.5, Objective::Maximize),
        (0.5, Objective::Minimize),
        (3.0, Objective::Minimize),
    ];
    let records = |events: Vec<unicon_obs::Event>| {
        let mut rows: Vec<_> = events
            .into_iter()
            .filter_map(|ev| match ev {
                unicon_obs::Event::ReachIteration {
                    query,
                    step,
                    psi,
                    residual,
                    checksum,
                } => Some((query, step, psi.to_bits(), residual.to_bits(), checksum)),
                _ => None,
            })
            .collect();
        rows.sort_by_key(|&(query, step, ..)| (query, std::cmp::Reverse(step)));
        rows
    };
    let (_, events) = unicon_obs::collect(|| {
        queries
            .iter()
            .fold(
                ReachBatch::new(m, goal).with_exact_workers(2),
                |b, &(t, o)| b.query_with(t, o),
            )
            .run()
            .unwrap()
    });
    let laned = records(events);
    let mut alone = Vec::new();
    for (qi, &(t, objective)) in queries.iter().enumerate() {
        let (_, events) = unicon_obs::collect(|| {
            ReachBatch::new(m, goal)
                .query_with(t, objective)
                .run()
                .unwrap()
        });
        alone.extend(
            records(events)
                .into_iter()
                .map(|r| (qi, r.1, r.2, r.3, r.4)),
        );
    }
    assert!(!alone.is_empty());
    assert_eq!(laned, alone, "n={}", goal.len());
}
