//! Corruption detection: seeded mutations of recorded witness data must
//! each make certification fail at exactly the tampered obligation.
//!
//! These tests are the negative side of the `certify` contract. The
//! positive side (a clean pipeline certifies) is covered in the crate's
//! unit tests and the FTWC integration tests; here we prove the checker
//! is not vacuous — every class of witness it consumes is load-bearing,
//! and a single corrupted claim is pinpointed without collateral
//! failures at other obligations.

use unicon_ctmc::PhaseType;
use unicon_imc::audit::{with_recording, Obligation, Witness};
use unicon_imc::{bisim, elapse, Imc, View};
use unicon_lts::LtsBuilder;
use unicon_numeric::rng::{Rng, XorShift64};
use unicon_verify::certify;

/// A small certified pipeline exercising every witness class the FTWC
/// route uses: leaf, elapse, parallel, hide, minimize, transform.
fn pipeline() -> Vec<Obligation> {
    let (_, obligations) = with_recording(|| {
        let mut b = LtsBuilder::new(2, 0);
        b.add("fail", 0, 1);
        b.add("repair", 1, 0);
        let component = Imc::from_lts(&b.build());
        let delay = PhaseType::erlang(2, 1.5).uniformize_at_max();
        let constraint = elapse::elapse(&delay, "fail", "repair");
        let timed = constraint.parallel(&component, &["fail", "repair"]);
        let hidden = timed.hide(&["fail", "repair"]);
        // Alternating labels keep the quotient from collapsing to one
        // block, so there is a second block to misassign states into.
        let labels: Vec<u32> = (0..hidden.num_states() as u32).map(|s| s % 2).collect();
        let quotient = bisim::minimize_labeled(&hidden, View::Open, &labels).0;
        unicon_transform::transform(&quotient).expect("the closed quotient transforms")
    });
    obligations
}

/// Asserts that exactly the obligation at `idx` fails and every other
/// step still verifies — corruption is *localized*, not cascading.
fn assert_only_step_fails(obligations: &[Obligation], idx: usize) {
    let outcome = certify(obligations);
    assert!(!outcome.is_certified(), "tampered chain must not certify");
    for s in &outcome.steps {
        if s.id == idx {
            assert!(!s.ok, "obligation #{idx} must fail: {s:#?}");
            assert!(!s.failures.is_empty());
        } else {
            assert!(
                s.ok,
                "only obligation #{idx} should fail, but #{} did too: {:?}",
                s.id, s.failures
            );
        }
    }
}

#[test]
fn clean_pipeline_is_the_baseline() {
    let obligations = pipeline();
    let outcome = certify(&obligations);
    assert!(
        outcome.is_certified(),
        "baseline must certify before corruption tests mean anything: {:#?}",
        outcome.failed()
    );
}

#[test]
fn corrupted_quotient_map_is_caught_at_the_minimize_obligation() {
    let mut rng = XorShift64::seed_from_u64(0xB10C);
    let mut obligations = pipeline();
    let idx = obligations
        .iter()
        .position(|o| matches!(o.witness, Witness::Minimize { .. }))
        .expect("pipeline minimizes");
    let Witness::Minimize {
        block, num_blocks, ..
    } = &mut obligations[idx].witness
    else {
        unreachable!()
    };
    assert!(*num_blocks >= 2, "need at least two blocks to misassign");
    // Move a seeded-random state into a different (existing) block, so the
    // map stays well-formed and only the semantics are wrong.
    let s = (rng.next_u64() as usize) % block.len();
    block[s] = (block[s] + 1) % *num_blocks as u32;
    assert_only_step_fails(&obligations, idx);
}

#[test]
fn corrupted_hidden_action_set_is_caught_at_the_hide_obligation() {
    let mut rng = XorShift64::seed_from_u64(0x41DE);
    let mut obligations = pipeline();
    let idx = obligations
        .iter()
        .position(|o| matches!(o.witness, Witness::Hide { .. }))
        .expect("pipeline hides");
    let Witness::Hide { hidden } = &mut obligations[idx].witness else {
        unreachable!()
    };
    assert!(hidden.len() >= 2);
    // Drop a seeded-random action from the recorded hiding set: the
    // replayed hide no longer reproduces the recorded output.
    let drop = (rng.next_u64() as usize) % hidden.len();
    hidden.remove(drop);
    assert_only_step_fails(&obligations, idx);
}

#[test]
fn corrupted_exit_rate_witness_is_caught_at_the_elapse_obligation() {
    let mut rng = XorShift64::seed_from_u64(0xE1A9);
    let mut obligations = pipeline();
    let idx = obligations
        .iter()
        .position(|o| matches!(o.witness, Witness::Elapse { .. }))
        .expect("pipeline elapses");
    let Witness::Elapse { rate, .. } = &mut obligations[idx].witness else {
        unreachable!()
    };
    // Scale the claimed uniformization rate by a seeded factor in
    // [1.5, 2.5) — far outside the rate tolerance.
    let factor = 1.5 + (rng.next_u64() as f64 / u64::MAX as f64);
    *rate *= factor;
    assert_only_step_fails(&obligations, idx);
}

#[test]
fn corrupted_ctmdp_fingerprint_is_caught_at_the_transform_obligation() {
    let mut rng = XorShift64::seed_from_u64(0x7F0A);
    let mut obligations = pipeline();
    let idx = obligations
        .iter()
        .position(|o| matches!(o.witness, Witness::Transform { .. }))
        .expect("pipeline transforms");
    let Witness::Transform {
        ctmdp_fingerprint, ..
    } = &mut obligations[idx].witness
    else {
        unreachable!()
    };
    // Flip one seeded-random bit of the claimed fingerprint: the replayed
    // step-wise extraction no longer matches it.
    *ctmdp_fingerprint ^= 1 << (rng.next_u64() % 64);
    assert_only_step_fails(&obligations, idx);
}

#[test]
fn every_seed_localizes_the_corruption() {
    // The three mutation classes above, re-run across seeds: detection
    // must not depend on which state/action the seed happens to pick.
    for seed in 0..8u64 {
        let mut rng = XorShift64::seed_from_u64(seed);
        let mut obligations = pipeline();
        let idx = match seed % 3 {
            0 => {
                let idx = obligations
                    .iter()
                    .position(|o| matches!(o.witness, Witness::Minimize { .. }))
                    .unwrap();
                if let Witness::Minimize {
                    block, num_blocks, ..
                } = &mut obligations[idx].witness
                {
                    let s = (rng.next_u64() as usize) % block.len();
                    block[s] = (block[s] + 1) % *num_blocks as u32;
                }
                idx
            }
            1 => {
                let idx = obligations
                    .iter()
                    .position(|o| matches!(o.witness, Witness::Hide { .. }))
                    .unwrap();
                if let Witness::Hide { hidden } = &mut obligations[idx].witness {
                    let drop = (rng.next_u64() as usize) % hidden.len();
                    hidden.remove(drop);
                }
                idx
            }
            _ => {
                let idx = obligations
                    .iter()
                    .position(|o| matches!(o.witness, Witness::Elapse { .. }))
                    .unwrap();
                if let Witness::Elapse { rate, .. } = &mut obligations[idx].witness {
                    *rate *= 1.5 + (rng.next_u64() as f64 / u64::MAX as f64);
                }
                idx
            }
        };
        assert_only_step_fails(&obligations, idx);
    }
}
