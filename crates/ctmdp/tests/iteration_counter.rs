//! The metrics registry counts value-iteration steps without iteration
//! records: every run reports the steps it executed as one
//! `reach_iterations` counter. This test has a binary of its own because
//! it installs a process-wide sink.

use std::sync::Arc;

use unicon_ctmdp::guard::{CheckpointConfig, GuardOptions, RunBudget};
use unicon_ctmdp::par::ReachBatch;
use unicon_ctmdp::reachability::{timed_reachability, ReachOptions};
use unicon_ctmdp::CtmdpBuilder;
use unicon_obs::{Class, Registry};

/// The `unicon_reach_iterations_total` sample of the exposition.
fn scraped(registry: &Registry) -> usize {
    registry
        .exposition()
        .lines()
        .find_map(|l| l.strip_prefix("unicon_reach_iterations_total "))
        .map_or(0, |v| v.parse().expect("a counter value"))
}

#[test]
fn scraped_counter_equals_the_steps_run() {
    // A uniform chain with a choice: rate 2 everywhere, goal state 3.
    let mut b = CtmdpBuilder::new(4, 0);
    b.transition(0, "fast", &[(1, 1.5), (0, 0.5)]);
    b.transition(0, "slow", &[(1, 0.5), (0, 1.5)]);
    b.transition(1, "go", &[(2, 1.0), (0, 1.0)]);
    b.transition(2, "go", &[(3, 2.0)]);
    b.transition(3, "stay", &[(3, 2.0)]);
    let m = b.build();
    let goal = [false, false, false, true];

    let registry = Arc::new(Registry::new());
    unicon_obs::install(registry.clone());
    assert!(!unicon_obs::live(Class::Iter));

    // A plain query reports its k.
    let before = scraped(&registry);
    let plain = timed_reachability(&m, &goal, 3.0, &ReachOptions::default()).expect("uniform");
    assert!(plain.iterations > 0);
    assert_eq!(scraped(&registry) - before, plain.iterations);

    // A laned batch, its lanes split over two workers, reports Σ k.
    let batch = ReachBatch::new(&m, &goal)
        .with_exact_workers(2)
        .query(1.0)
        .query(3.0)
        .query(8.0);
    let before = scraped(&registry);
    let laned = batch.run().expect("uniform");
    assert!(
        laned.stats.sweeps < laned.stats.total_iterations,
        "lanes ran"
    );
    assert_eq!(scraped(&registry) - before, laned.stats.total_iterations);

    // A budget-stopped run reports the steps it completed, and its resume
    // the rest.
    let path = std::env::temp_dir().join(format!(
        "unicon_iteration_counter_{}.ck",
        std::process::id()
    ));
    let guard = GuardOptions::default()
        .with_checkpoint(CheckpointConfig::new(&path, 5))
        .with_budget(RunBudget::default().with_max_iterations(7));
    let before = scraped(&registry);
    let stopped = batch.run_guarded(&guard).expect("uniform");
    assert!(!stopped.is_complete());
    let first = scraped(&registry) - before;
    assert_eq!(first, 7);
    let resumed = batch
        .resume(&path, &GuardOptions::default())
        .expect("checkpoint written at the stop");
    assert!(resumed.is_complete());
    assert_eq!(
        scraped(&registry) - before,
        laned.stats.total_iterations,
        "the stopped run and its resume together run every step"
    );
    std::fs::remove_file(&path).ok();
    unicon_obs::reset();
}
