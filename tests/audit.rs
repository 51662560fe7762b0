//! End-to-end proof-chain tests: the FTWC case study, built through the
//! certified compositional route, must certify for N = 1..3 with zero
//! failed obligations, the certificate must round-trip through JSONL,
//! and the handoff fingerprint must pin the prepared CTMDP to the chain.

use std::panic::catch_unwind;

use unicon::ftwc::{experiment, FtwcParams};
use unicon::imc::audit::Witness;
use unicon::numeric::rng::{Rng, XorShift64};
use unicon::verify::certify::{check_records, parse_jsonl, records, to_jsonl};
use unicon::verify::{certify, Code};

#[test]
fn ftwc_chain_certifies_for_n_1_to_3() {
    for n in 1..=3usize {
        let (prepared, obligations) = experiment::certified_prepare(&FtwcParams::new(n));
        assert!(
            !obligations.is_empty(),
            "N={n}: the compositional route must record obligations"
        );
        let outcome = certify(&obligations);
        assert!(
            outcome.is_certified(),
            "N={n}: chain must certify, failures: {:#?}, report: {:?}",
            outcome.failed(),
            outcome.report.diagnostics()
        );
        assert_eq!(outcome.steps.len(), obligations.len());

        // Each repair protocol is hidden as soon as its join closes it, so
        // the minimizations in between merge states and no product grows
        // large. A repair timer joined last leaves products of 18,400
        // states at N=2 and 80,000 at N=3.
        let largest = obligations
            .iter()
            .filter(|ob| ob.op == "parallel")
            .map(|ob| ob.output.num_states())
            .max();
        assert!(
            largest.is_some_and(|s| s <= 10_000),
            "N={n}: largest parallel product has {largest:?} states"
        );

        // The ledger must end in a transform obligation whose witness
        // fingerprint is exactly the CTMDP handed to the analysis engines.
        let witness_fp = obligations
            .iter()
            .rev()
            .find_map(|ob| match &ob.witness {
                Witness::Transform {
                    ctmdp_fingerprint, ..
                } => Some(*ctmdp_fingerprint),
                _ => None,
            })
            .expect("chain ends in a transform obligation");
        assert_eq!(
            witness_fp,
            prepared.ctmdp.fingerprint(),
            "N={n}: prepared CTMDP is not the one the ledger certifies"
        );
    }
}

#[test]
fn ftwc_certificate_round_trips_through_jsonl() {
    let (_, obligations) = experiment::certified_prepare(&FtwcParams::new(2));
    let recs = records(&obligations);
    assert_eq!(recs.len(), obligations.len());
    let text = to_jsonl(&recs);
    assert_eq!(text.lines().count(), recs.len());
    let parsed = parse_jsonl(&text).expect("generated certificate parses");
    assert_eq!(parsed, recs, "JSONL round-trip must be lossless");
    let report = check_records(&parsed);
    assert!(
        !report.has_errors(),
        "clean certificate must re-check clean: {:?}",
        report.diagnostics()
    );
}

/// Mutated certificates parse and re-check, or fail to parse with an
/// error, never a panic. The seed is the N = 1 certificate. Each mutant
/// flips bits, truncates, splices the certificate with itself, or puts
/// an overflowing, non-finite, out-of-range, nested or lone-surrogate
/// token in place of a value: from just after a `:`, `[` or `,` (or the
/// start) to the next `,`, `]` or `}`.
#[test]
fn mutated_certificates_recheck_or_fail_typed_never_panic() {
    const MUTANTS: usize = 2_000;
    const TOKENS: [&str; 5] = [
        "1e400",
        "NaN",
        "18446744073709551616",
        "[[[[",
        r#""\ud800""#,
    ];
    let (_, obligations) = experiment::certified_prepare(&FtwcParams::new(1));
    let seed = to_jsonl(&records(&obligations)).into_bytes();
    let mut rng = XorShift64::seed_from_u64(0xce27_5eed);
    let (mut clean, mut flagged, mut rejected, mut panicked) = (0, 0, 0, Vec::new());
    for m in 0..MUTANTS {
        let mut b = seed.clone();
        match rng.random_range(4) {
            0 => {
                for _ in 0..1 + rng.random_range(3) {
                    let i = rng.random_range(b.len());
                    b[i] ^= 1 << rng.random_range(8);
                }
            }
            1 => b.truncate(rng.random_range(b.len())),
            2 => {
                b.truncate(rng.random_range(b.len()));
                b.extend_from_slice(&seed[rng.random_range(seed.len())..]);
            }
            _ => {
                let starts: Vec<usize> = (0..b.len())
                    .filter(|&i| i == 0 || matches!(b[i - 1], b':' | b'[' | b','))
                    .collect();
                let i = starts[rng.random_range(starts.len())];
                let j = b[i..]
                    .iter()
                    .position(|c| matches!(c, b',' | b']' | b'}'))
                    .map_or(b.len(), |k| i + k);
                b.splice(i..j, TOKENS[rng.random_range(TOKENS.len())].bytes());
            }
        }
        let text = String::from_utf8_lossy(&b);
        match catch_unwind(|| parse_jsonl(&text).map(|recs| check_records(&recs))) {
            Ok(Ok(report)) if report.has_errors() => flagged += 1,
            Ok(Ok(_)) => clean += 1,
            Ok(Err(_)) => rejected += 1,
            Err(_) => panicked.push(m),
        }
    }
    // The generator is seeded: a mutant's index reproduces it.
    assert!(panicked.is_empty(), "mutants that panicked: {panicked:?}");
    assert!(
        clean > 0 && flagged > 0 && rejected > 0,
        "{clean} clean, {flagged} flagged, {rejected} rejected of {MUTANTS}"
    );
}

#[test]
fn certified_route_agrees_with_the_generator_route() {
    // Two independent constructions of the same case study — the direct
    // generator and the certified compositional route — must agree on the
    // worst-case reachability value (their state spaces are lumped
    // differently, so structural identity is not expected).
    use unicon::ctmdp::reachability::{timed_reachability, ReachOptions};
    let opts = ReachOptions::default().with_epsilon(1e-9);
    for n in [1, 2, 8] {
        let (gen, _) = experiment::prepare(&FtwcParams::new(n));
        let (cert, _) = experiment::certified_prepare(&FtwcParams::new(n));
        let a = timed_reachability(&gen.ctmdp, &gen.goal, 20.0, &opts).expect("generator route");
        let b = timed_reachability(&cert.ctmdp, &cert.goal, 20.0, &opts).expect("certified route");
        let (pa, pb) = (
            a.from_state(gen.ctmdp.initial()),
            b.from_state(cert.ctmdp.initial()),
        );
        assert!(
            (pa - pb).abs() < 1e-6,
            "N={n}: generator route {pa} vs certified route {pb}"
        );
    }
}

#[test]
fn new_codes_are_registered_with_distinct_names() {
    for code in [Code::U011, Code::U012, Code::U013, Code::U014, Code::U015] {
        assert!(
            Code::ALL.contains(&code),
            "{code:?} must be in the registry"
        );
        assert!(!code.summary().is_empty());
    }
    assert_eq!(Code::ALL.len(), 15);
}
