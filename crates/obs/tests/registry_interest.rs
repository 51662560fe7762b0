//! A metrics registry alone leaves iteration telemetry off. This test
//! has a binary of its own because it installs a process-wide sink.

use std::sync::Arc;

use unicon_obs::{Class, Event, Registry};

#[test]
fn a_registry_alone_leaves_iteration_records_off() {
    let registry = Arc::new(Registry::new());
    unicon_obs::install(registry.clone());
    assert!(!unicon_obs::live(Class::Iter));
    assert!(unicon_obs::live(Class::Metric));
    let mut built = false;
    unicon_obs::emit(Class::Iter, || {
        built = true;
        Event::ReachIteration {
            query: 0,
            step: 1,
            psi: 0.5,
            residual: 0.0,
            checksum: 0,
        }
    });
    assert!(!built, "no iteration record is built for the registry");
    unicon_obs::emit(Class::Metric, || Event::Counter {
        name: "reach_iterations",
        value: 3,
    });
    assert!(registry
        .exposition()
        .contains("unicon_reach_iterations_total 3\n"));
    unicon_obs::reset();
}
