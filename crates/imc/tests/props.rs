//! Randomized tests of the paper's lemmas on randomly generated uniform
//! IMCs, driven by the in-tree deterministic [`XorShift64`] generator
//! (fixed seeds, no external PRNG).
//!
//! The generator produces Definition-4-uniform models: every *stable* state
//! (no outgoing τ) carries Markov transitions summing to exactly the chosen
//! uniform rate `E`; unstable states get arbitrary junk rates — the
//! definition does not constrain them, and the operators must not be
//! confused by them.

use unicon_imc::{bisim, Imc, ImcBuilder, Uniformity, View};
use unicon_lts::LtsBuilder;
use unicon_numeric::rng::{Rng, XorShift64};

const ACTIONS: [&str; 4] = ["tau", "a", "b", "c"];
const CASES: u64 = 128;

#[derive(Debug, Clone)]
struct RawImc {
    n: usize,
    /// (action index, source, target)
    interactive: Vec<(u8, u8, u8)>,
    /// per-state candidate Markov targets with weights
    markov: Vec<Vec<(u8, f64)>>,
    rate: f64,
}

fn uniform(rng: &mut XorShift64, lo: f64, hi: f64) -> f64 {
    lo + rng.random_f64() * (hi - lo)
}

fn raw_imc(rng: &mut XorShift64, max_states: usize) -> RawImc {
    let n = 2 + rng.random_range(max_states - 1);
    let num_interactive = rng.random_range(2 * n);
    let interactive = (0..num_interactive)
        .map(|_| {
            (
                rng.random_range(4) as u8,
                rng.random_range(n) as u8,
                rng.random_range(n) as u8,
            )
        })
        .collect();
    let markov = (0..n)
        .map(|_| {
            let num_targets = 1 + rng.random_range(2);
            (0..num_targets)
                .map(|_| (rng.random_range(n) as u8, uniform(rng, 0.05, 1.0)))
                .collect()
        })
        .collect();
    let rate = uniform(rng, 0.5, 8.0);
    RawImc {
        n,
        interactive,
        markov,
        rate,
    }
}

/// Builds a uniform IMC from raw data.
fn build_uniform(raw: &RawImc) -> Imc {
    let mut b = ImcBuilder::new(raw.n, 0);
    let mut has_tau = vec![false; raw.n];
    for &(a, s, t) in &raw.interactive {
        // τ transitions only go "forward" (s < t): τ-divergence is Zeno
        // behaviour, which the paper's trajectory excludes — and branching
        // bisimulation does not preserve divergence.
        if a == 0 && s >= t {
            continue;
        }
        b.interactive(ACTIONS[a as usize], u32::from(s), u32::from(t));
        if a == 0 {
            has_tau[s as usize] = true;
        }
    }
    for (s, targets) in raw.markov.iter().enumerate() {
        let total: f64 = targets.iter().map(|&(_, w)| w).sum();
        // Stable states get exactly `rate`; unstable states get junk
        // (scaled by an arbitrary factor) to stress the "rates of unstable
        // states do not matter" property.
        let scale = if has_tau[s] { 0.3 } else { 1.0 };
        for &(t, w) in targets {
            b.markov(s as u32, raw.rate * scale * w / total, u32::from(t));
        }
    }
    b.build()
}

/// A random LTS as an IMC without Markov transitions: 1 to `max_states`
/// states and up to three transitions per state over τ, a, b and c, with
/// any source and target — τ self-loops and τ-cycles included.
fn random_lts(rng: &mut XorShift64, max_states: usize) -> Imc {
    let n = 1 + rng.random_range(max_states);
    let mut b = LtsBuilder::new(n, 0);
    for _ in 0..rng.random_range(3 * n) {
        let a = rng.random_range(4);
        let s = rng.random_range(n) as u32;
        let t = rng.random_range(n) as u32;
        b.add(ACTIONS[a], s, t);
    }
    Imc::from_lts(&b.build())
}

fn rate_of(u: Uniformity) -> Option<f64> {
    match u {
        Uniformity::Uniform(e) => Some(e),
        Uniformity::Vacuous => Some(0.0),
        Uniformity::NonUniform { .. } => None,
    }
}

#[test]
fn generated_models_are_uniform() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x6EE0 + case);
        let m = build_uniform(&raw_imc(&mut rng, 7));
        assert!(m.is_uniform(View::Open), "{:?}", m.uniformity(View::Open));
    }
}

/// Lemma 1: hiding preserves uniformity.
#[test]
fn lemma1_hiding_preserves_uniformity() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x1E1A + case);
        let raw = raw_imc(&mut rng, 7);
        let subset = rng.random_range(8) as u8;
        let m = build_uniform(&raw);
        let mut hidden: Vec<&str> = Vec::new();
        for (i, name) in ["a", "b", "c"].iter().enumerate() {
            if subset & (1 << i) != 0 {
                hidden.push(name);
            }
        }
        let h = m.hide(&hidden);
        assert!(h.is_uniform(View::Open), "{:?}", h.uniformity(View::Open));
    }
}

/// Lemma 2: parallel composition preserves uniformity; rates add.
#[test]
fn lemma2_parallel_preserves_uniformity() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x1E2A + case);
        let raw1 = raw_imc(&mut rng, 5);
        let raw2 = raw_imc(&mut rng, 5);
        let sync_mask = rng.random_range(8) as u8;
        let m = build_uniform(&raw1);
        let n = build_uniform(&raw2);
        let mut sync: Vec<&str> = Vec::new();
        for (i, name) in ["a", "b", "c"].iter().enumerate() {
            if sync_mask & (1 << i) != 0 {
                sync.push(name);
            }
        }
        let p = m.parallel(&n, &sync);
        let u = p.uniformity(View::Open);
        assert!(u.is_uniform(), "{u:?}");
        // When the composition has stable states at all, the rate is the sum.
        if let Uniformity::Uniform(e) = u {
            let (e1, e2) = (
                rate_of(m.uniformity(View::Open)).unwrap(),
                rate_of(n.uniformity(View::Open)).unwrap(),
            );
            assert!(
                (e - (e1 + e2)).abs() < 1e-9 * (e1 + e2).max(1.0),
                "composite rate {e} vs {e1} + {e2}"
            );
        }
    }
}

/// Lemma 3 / Corollary 1: the StoBraBi quotient is uniform iff the
/// original is, with the same rate.
#[test]
fn lemma3_quotient_preserves_uniformity() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x1E3A + case);
        let m = build_uniform(&raw_imc(&mut rng, 7));
        let q = bisim::minimize(&m, View::Open);
        assert!(q.is_uniform(View::Open), "{:?}", q.uniformity(View::Open));
        let e_m = rate_of(m.uniformity(View::Open)).unwrap();
        match q.uniformity(View::Open) {
            Uniformity::Uniform(e_q) => {
                assert!((e_m - e_q).abs() < 1e-9 * e_m.max(1.0))
            }
            Uniformity::Vacuous => {}
            u @ Uniformity::NonUniform { .. } => panic!("{u:?}"),
        }
    }
}

/// Minimization never grows the model and is idempotent, modulo
/// branching and modulo strong bisimilarity.
#[test]
fn minimization_shrinks_and_is_idempotent() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x3169 + case);
        let m = build_uniform(&raw_imc(&mut rng, 7)).restrict_to_reachable();
        for minimize in [bisim::minimize, bisim::minimize_strong] {
            let q = minimize(&m, View::Open);
            assert!(q.num_states() <= m.num_states());
            let qq = minimize(&q, View::Open);
            assert_eq!(q.num_states(), qq.num_states());
            assert_eq!(q.num_interactive(), qq.num_interactive());
        }
    }
}

/// Strong minimization of random LTSs, τ self-loops and τ-cycles
/// included, never grows the model and is idempotent: minimizing again
/// gives the same IMC.
#[test]
fn strong_minimization_of_ltss_is_idempotent() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x1DE9 + case);
        let m = random_lts(&mut rng, 8).restrict_to_reachable();
        for view in [View::Open, View::Closed] {
            let q = bisim::minimize_strong(&m, view);
            assert!(q.num_states() <= m.num_states());
            let qq = bisim::minimize_strong(&q, view);
            assert_eq!(q.fingerprint(), qq.fingerprint(), "case {case}");
        }
    }
}

/// Strong minimization keeps the interactive traces of length up to 2
/// from the initial state (a cheap language check), on random LTSs (τ
/// self-loops included) and on the random uniform IMCs.
#[test]
fn strong_minimization_preserves_short_traces() {
    let traces = |x: &Imc| {
        let name = |t: &unicon_lts::Transition| x.actions().name(t.action).to_owned();
        let mut out = std::collections::BTreeSet::new();
        for t1 in x.interactive_from(x.initial()) {
            out.insert(vec![name(t1)]);
            for t2 in x.interactive_from(t1.target) {
                out.insert(vec![name(t1), name(t2)]);
            }
        }
        out
    };
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x77AC + case);
        let lts = random_lts(&mut rng, 7);
        let m = build_uniform(&raw_imc(&mut rng, 7));
        for x in [lts, m] {
            let q = bisim::minimize_strong(&x, View::Open);
            assert_eq!(traces(&x), traces(&q), "case {case}");
        }
    }
}

/// The strong relation refines the branching relation.
#[test]
fn strong_refines_branching() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x57B0 + case);
        let m = build_uniform(&raw_imc(&mut rng, 6));
        let strong = bisim::strong_stochastic_bisimulation(&m, View::Open);
        let branching = bisim::stochastic_branching_bisimulation(&m, View::Open);
        assert!(strong.num_blocks >= branching.num_blocks);
        // and strong-equivalent states are branching-equivalent
        for s in 0..m.num_states() {
            for t in 0..m.num_states() {
                if strong.block[s] == strong.block[t] {
                    assert_eq!(branching.block[s], branching.block[t]);
                }
            }
        }
    }
}

/// The relation hierarchy: strong refines branching refines weak.
#[test]
fn weak_is_coarsest() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x3EAC + case);
        let m = build_uniform(&raw_imc(&mut rng, 6));
        let strong = bisim::strong_stochastic_bisimulation(&m, View::Open);
        let branching = bisim::stochastic_branching_bisimulation(&m, View::Open);
        let weak = bisim::stochastic_weak_bisimulation(&m, View::Open);
        assert!(weak.num_blocks <= branching.num_blocks);
        assert!(branching.num_blocks <= strong.num_blocks);
        for s in 0..m.num_states() {
            for t in 0..m.num_states() {
                if branching.block[s] == branching.block[t] {
                    assert_eq!(weak.block[s], weak.block[t]);
                }
            }
        }
    }
}

/// Weak quotienting preserves uniformity (the paper's remark that
/// Lemma 3 holds for weak bisimulation too).
#[test]
fn weak_quotient_preserves_uniformity() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x3EA2 + case);
        let m = build_uniform(&raw_imc(&mut rng, 6));
        let q = bisim::minimize_weak(&m, View::Open);
        assert!(q.is_uniform(View::Open), "{:?}", q.uniformity(View::Open));
    }
}

/// Labeled minimization never merges across labels.
#[test]
fn labeled_minimization_respects_labels() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x1ABE + case);
        let m = build_uniform(&raw_imc(&mut rng, 6));
        let labels: Vec<u32> = (0..m.num_states())
            .map(|_| rng.random_range(3) as u32)
            .collect();
        let part = bisim::stochastic_branching_bisimulation_labeled(&m, View::Open, &labels);
        for s in 0..m.num_states() {
            for t in 0..m.num_states() {
                if part.block[s] == part.block[t] {
                    assert_eq!(labels[s], labels[t]);
                }
            }
        }
    }
}

/// Hiding is idempotent; hiding every visible action leaves only τ.
#[test]
fn hiding_is_idempotent() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x41DE + case);
        let m = build_uniform(&raw_imc(&mut rng, 7));
        let once = m.hide(&["a", "b"]);
        assert_eq!(once.fingerprint(), once.hide(&["a", "b"]).fingerprint());
        let all = m.hide(&["a", "b", "c"]);
        assert!(all.interactive().iter().all(|t| t.action.is_tau()));
    }
}

/// Relabelling every action to itself is the identity.
#[test]
fn identity_relabelling_is_the_identity() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x2E1A + case);
        let m = build_uniform(&raw_imc(&mut rng, 7));
        let r = m.relabel(&[("a", "a"), ("b", "b")]);
        assert_eq!(r.fingerprint(), m.fingerprint());
    }
}

/// The product with a one-state IMC without transitions has the size of
/// the reachable part of the other operand.
#[test]
fn unit_of_parallel() {
    let unit = ImcBuilder::new(1, 0).build();
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x0172 + case);
        let m = build_uniform(&raw_imc(&mut rng, 7));
        let p = m.parallel(&unit, &[]);
        let reach = m.restrict_to_reachable();
        assert_eq!(p.num_states(), reach.num_states());
        assert_eq!(p.num_interactive(), reach.num_interactive());
        assert_eq!(p.num_markov(), reach.num_markov());
    }
}

/// Parallel composition is commutative up to size.
#[test]
fn parallel_commutes_in_size() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0xC033 + case);
        let a = build_uniform(&raw_imc(&mut rng, 5));
        let b = build_uniform(&raw_imc(&mut rng, 5));
        let ab = a.parallel(&b, &["a"]);
        let ba = b.parallel(&a, &["a"]);
        assert_eq!(ab.num_states(), ba.num_states());
        assert_eq!(ab.num_interactive(), ba.num_interactive());
        assert_eq!(ab.num_markov(), ba.num_markov());
    }
}

/// Every product state is a distinct pair of component states, and every
/// one is reachable.
#[test]
fn product_states_are_component_pairs() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x9A12 + case);
        let a = build_uniform(&raw_imc(&mut rng, 5));
        let b = build_uniform(&raw_imc(&mut rng, 5));
        let (p, pairs) = a.parallel_with_map(&b, &[]);
        assert_eq!(pairs.len(), p.num_states());
        assert!(p.num_states() <= a.num_states() * b.num_states());
        let distinct: std::collections::BTreeSet<_> = pairs.iter().collect();
        assert_eq!(distinct.len(), pairs.len());
        assert!(pairs
            .iter()
            .all(|&(l, r)| (l as usize) < a.num_states() && (r as usize) < b.num_states()));
        assert!(p.reachable_states().iter().all(|&r| r));
    }
}

/// Hiding everything commutes with uniformity (closed view).
#[test]
fn closing_after_hiding_is_uniform() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0xC105 + case);
        let m = build_uniform(&raw_imc(&mut rng, 6)).hide_all();
        // all interactive transitions are tau now: open and closed stability
        // coincide
        assert_eq!(m.is_uniform(View::Open), m.is_uniform(View::Closed));
        assert!(m.is_uniform(View::Closed));
    }
}

/// The extended-AUT serialization round-trips structure and rates.
#[test]
fn aut_roundtrip() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0xA073 + case);
        let m = build_uniform(&raw_imc(&mut rng, 7));
        let text = unicon_imc::io::to_aut(&m);
        let back = unicon_imc::io::from_aut(&text).expect("own output parses");
        assert_eq!(back.num_states(), m.num_states());
        assert_eq!(back.num_interactive(), m.num_interactive());
        assert_eq!(back.num_markov(), m.num_markov());
        assert_eq!(back.initial(), m.initial());
        for s in 0..m.num_states() as u32 {
            assert!((back.exit_rate(s) - m.exit_rate(s)).abs() < 1e-9);
            assert_eq!(back.has_tau(s), m.has_tau(s));
        }
        // The same transitions under the same names: the reader numbers
        // actions in order of first appearance, so compare by name.
        let named = |x: &Imc| {
            let mut v: Vec<_> = x
                .interactive()
                .iter()
                .map(|t| (t.source, x.actions().name(t.action).to_owned(), t.target))
                .collect();
            v.sort();
            v
        };
        assert_eq!(named(&back), named(&m));
        assert_eq!(back.markov(), m.markov());
        assert_eq!(
            back.uniformity(View::Open).is_uniform(),
            m.uniformity(View::Open).is_uniform()
        );
    }
}

/// Pre-emption cuts exactly the unstable states' Markov transitions.
#[test]
fn pre_emption_cut_is_exact() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x9CE7 + case);
        let m = build_uniform(&raw_imc(&mut rng, 6));
        let cut = m.apply_pre_emption(View::Open);
        for s in 0..m.num_states() as u32 {
            if m.is_stable(s, View::Open) {
                assert_eq!(cut.markov_from(s).len(), m.markov_from(s).len());
            } else {
                assert_eq!(cut.markov_from(s).len(), 0);
            }
        }
    }
}
