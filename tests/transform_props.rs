//! Randomized tests of the uIMC → uCTMDP transformation and of the
//! interplay between minimization, transformation and analysis
//! (Theorem 1 + Lemma 3, checked semantically). Driven by the in-tree
//! deterministic [`XorShift64`] generator (fixed seeds, no external PRNG).

use std::time::Duration;

use unicon::core::{ClosedModel, PreparedModel, UniformImc};
use unicon::ctmdp::reachability::{timed_reachability, ReachOptions};
use unicon::ctmdp::scheduler::StepDependent;
use unicon::ctmdp::simulate::{estimate_reachability, SimulationOptions};
use unicon::imc::{analysis, bisim, Imc, ImcBuilder, StateKind, View};
use unicon::numeric::rng::{Rng, XorShift64};
use unicon::transform::{
    is_strictly_alternating, transform, transform_one_pass, transform_stepwise, TransformOutput,
    TransformStats,
};

const CASES: u64 = 64;

fn uniform(rng: &mut XorShift64, lo: f64, hi: f64) -> f64 {
    lo + rng.random_f64() * (hi - lo)
}

/// Random **closed** uniform IMC without Zeno behaviour or dead ends:
///
/// * states alternate conceptually between "decision" states (even ids,
///   interactive transitions only, going to odd ids) and "timed" states
///   (odd ids, Markov transitions summing to the uniform rate, going to
///   even ids),
/// * every state has at least one outgoing transition.
///
/// Interactive transitions only go even → odd and Markov only odd → even,
/// so the interactive graph is trivially acyclic.
#[derive(Debug, Clone)]
struct RawClosed {
    pairs: usize,
    /// per decision state: 1..=3 choices of odd targets
    choices: Vec<Vec<u8>>,
    /// per timed state: weighted even targets
    rates: Vec<Vec<(u8, f64)>>,
    e: f64,
    /// goal mask over *even* states
    goal_mask: u8,
}

fn raw_closed(rng: &mut XorShift64) -> RawClosed {
    let pairs = 1 + rng.random_range(4);
    let choices = (0..pairs)
        .map(|_| {
            let k = 1 + rng.random_range(3);
            (0..k).map(|_| rng.random_range(pairs) as u8).collect()
        })
        .collect();
    let rates = (0..pairs)
        .map(|_| {
            let k = 1 + rng.random_range(3);
            (0..k)
                .map(|_| (rng.random_range(pairs) as u8, uniform(rng, 0.05, 1.0)))
                .collect()
        })
        .collect();
    let e = uniform(rng, 0.5, 5.0);
    let goal_mask = rng.random_range(255) as u8;
    RawClosed {
        pairs,
        choices,
        rates,
        e,
        goal_mask,
    }
}

/// Builds the IMC: decision state of pair `i` is `2i`, timed state `2i+1`.
fn build_closed(raw: &RawClosed) -> (Imc, Vec<bool>) {
    let n = raw.pairs * 2;
    let mut b = ImcBuilder::new(n, 0);
    for (i, choices) in raw.choices.iter().enumerate() {
        for (k, &tgt) in choices.iter().enumerate() {
            b.interactive(
                &format!("c{k}"),
                (2 * i) as u32,
                (2 * (tgt as usize) + 1) as u32,
            );
        }
    }
    for (i, rates) in raw.rates.iter().enumerate() {
        let total: f64 = rates.iter().map(|&(_, w)| w).sum();
        for &(tgt, w) in rates {
            b.markov(
                (2 * i + 1) as u32,
                raw.e * w / total,
                (2 * (tgt as usize)) as u32,
            );
        }
    }
    let imc = b.build();
    let goal: Vec<bool> = (0..n)
        .map(|s| s % 2 == 0 && raw.goal_mask & (1 << ((s / 2) % 8)) != 0)
        .collect();
    (imc, goal)
}

/// Transformation output invariants: strict alternation, uniformity,
/// origin consistency.
#[test]
fn transform_invariants() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x7F14 + case);
        let raw = raw_closed(&mut rng);
        let (imc, _) = build_closed(&raw);
        let out = transform(&imc).expect("alternating structure cannot be Zeno");
        assert!(is_strictly_alternating(&out.strictly_alternating));
        let e = out.ctmdp.uniform_rate().expect("uniform in, uniform out");
        assert!((e - raw.e).abs() < 1e-9 * raw.e);
        assert_eq!(out.ctmdp_state_origin.len(), out.ctmdp.num_states());
        for (&o, closure) in out.ctmdp_state_origin.iter().zip(&out.ctmdp_zero_closure) {
            assert!((o as usize) < imc.num_states());
            assert!(closure.contains(&o) || !closure.is_empty());
        }
        // stats match the structures
        assert_eq!(out.stats.interactive_states, out.ctmdp.num_states());
        assert_eq!(
            out.stats.interactive_transitions,
            out.ctmdp.num_transitions()
        );
        let (markov, interactive, hybrid, absorbing) = out.strictly_alternating.kind_counts();
        assert_eq!(hybrid, 0);
        assert_eq!(absorbing, 0);
        assert_eq!(markov, out.stats.markov_states);
        assert_eq!(interactive, out.stats.interactive_states);
    }
}

/// Lemma 3 semantically: minimizing (labels = goal) before the
/// transformation does not change the worst-case value.
#[test]
fn minimization_preserves_analysis() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x3195 + case);
        let raw = raw_closed(&mut rng);
        let t = uniform(&mut rng, 0.1, 4.0);
        let (imc, goal) = build_closed(&raw);
        let model = ClosedModel::try_new(imc.clone()).expect("uniform");
        let p_direct = PreparedModel::new(&model, &goal)
            .expect("transforms")
            .worst_case_from_initial(t, 1e-10)
            .unwrap();

        let labels: Vec<u32> = goal.iter().map(|&g| u32::from(g)).collect();
        let (small, small_labels) = bisim::minimize_labeled(&imc, View::Closed, &labels);
        let small_goal: Vec<bool> = small_labels.iter().map(|&l| l == 1).collect();
        let small_model = ClosedModel::try_new(small).expect("quotient is uniform");
        let p_min = PreparedModel::new(&small_model, &small_goal)
            .expect("transforms")
            .worst_case_from_initial(t, 1e-10)
            .unwrap();
        assert!(
            (p_direct - p_min).abs() < 1e-7,
            "direct {p_direct} vs minimized {p_min}"
        );
    }
}

/// The weak-bisimulation quotient preserves the analysis value too
/// (the paper's remark that the minimization theory works for other
/// τ-abstracting equivalences).
#[test]
fn weak_minimization_preserves_analysis() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x3EA6 + case);
        let raw = raw_closed(&mut rng);
        let t = uniform(&mut rng, 0.1, 4.0);
        let (imc, goal) = build_closed(&raw);
        let model = ClosedModel::try_new(imc.clone()).expect("uniform");
        let p_direct = PreparedModel::new(&model, &goal)
            .expect("transforms")
            .worst_case_from_initial(t, 1e-10)
            .unwrap();

        let labels: Vec<u32> = goal.iter().map(|&g| u32::from(g)).collect();
        let part = bisim::stochastic_weak_bisimulation_labeled(&imc, View::Closed, &labels);
        let q = bisim::quotient(&imc, &part, View::Closed).restrict_to_reachable();
        // labels of the quotient: via any representative
        let mut block_goal = vec![false; part.num_blocks];
        for (s, &b) in part.block.iter().enumerate() {
            if goal[s] {
                block_goal[b as usize] = true;
            }
        }
        // quotient() + restrict renumbers; recompute by rebuilding the map
        let (qq, old_of_new) =
            bisim::quotient(&imc, &part, View::Closed).restrict_to_reachable_with_map();
        let _ = q;
        let q_goal: Vec<bool> = old_of_new.iter().map(|&b| block_goal[b as usize]).collect();
        let q_model = ClosedModel::try_new(qq).expect("weak quotient stays uniform");
        let p_weak = PreparedModel::new(&q_model, &q_goal)
            .expect("transforms")
            .worst_case_from_initial(t, 1e-10)
            .unwrap();
        assert!(
            (p_direct - p_weak).abs() < 1e-7,
            "direct {p_direct} vs weak-minimized {p_weak}"
        );
    }
}

/// Theorem 1 via simulation: the extracted maximal scheduler attains
/// the computed value on the transformed model.
#[test]
fn extracted_scheduler_validates_transform() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0xE5C4 + case);
        let raw = raw_closed(&mut rng);
        let (imc, goal) = build_closed(&raw);
        let out = transform(&imc).expect("transforms");
        let cgoal = out.goal_vector(&goal);
        if cgoal[out.ctmdp.initial() as usize] {
            continue;
        }
        let t = 1.0;
        let res = timed_reachability(
            &out.ctmdp,
            &cgoal,
            t,
            &ReachOptions::default()
                .with_epsilon(1e-9)
                .recording_decisions(),
        )
        .unwrap();
        let value = res.from_state(out.ctmdp.initial());
        if !(value > 0.01 && value < 0.99) {
            continue;
        }
        let sched = StepDependent::from_result(&res);
        let est = estimate_reachability(
            &out.ctmdp,
            &cgoal,
            t,
            &sched,
            &SimulationOptions {
                runs: 3_000,
                seed: 11,
            },
        );
        assert!(
            est.is_consistent_with(value, 5.0),
            "sim {} vs algorithm {value}",
            est.probability
        );
    }
}

/// The closed-uniform wrapper accepts the generated models and the
/// composition API refuses to treat them as open.
#[test]
fn closed_view_classification() {
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0xC14F + case);
        let raw = raw_closed(&mut rng);
        let (imc, _) = build_closed(&raw);
        assert!(ClosedModel::try_new(imc.clone()).is_ok());
        // under the open view the visible decision states (rate 0) clash
        // with the timed states (rate e) whenever both kinds are reachable,
        // so UniformImc must reject exactly those models
        let has_reachable_decision = {
            let reach = imc.reachable_states();
            (0..imc.num_states()).any(|s| reach[s] && imc.kind(s as u32) == StateKind::Interactive)
        };
        assert_eq!(UniformImc::try_new(imc).is_err(), has_reachable_decision);
    }
}

/// Action names for the differential models: τ, three plain names, and
/// `a.b`, whose one-action word has the same name as the word `a`·`b`.
const DIFF_ACTIONS: [&str; 5] = ["tau", "a", "b", "c", "a.b"];

/// A random IMC with no structure promised: 1–10 states of every kind
/// (absorbing, interactive, Markov, hybrid), a random initial state, and
/// interactive transitions that mostly run forward, so τ chains and
/// multi-action words are common, with an occasional edge anywhere that
/// may close a Zeno cycle. Markov rates come from a small set, so parallel
/// transitions merge, and a Markov state often copies an earlier one's
/// transitions, so rate functions repeat; a state often repeats an
/// action towards a second target, so one state can reach two such copies
/// under one word.
fn random_imc(rng: &mut XorShift64) -> Imc {
    let n = 1 + rng.random_range(10);
    let mut b = ImcBuilder::new(n, rng.random_range(n) as u32);
    let mut rows: Vec<Vec<(f64, u32)>> = Vec::new();
    for s in 0..n {
        // 0: absorbing, 1–4: interactive, 5–7: Markov, 8–9: hybrid.
        let shape = rng.random_range(10);
        if (1..=4).contains(&shape) || shape >= 8 {
            let mut action = DIFF_ACTIONS[0];
            for _ in 0..1 + rng.random_range(3) {
                if rng.random_range(3) != 0 {
                    action = DIFF_ACTIONS[rng.random_range(DIFF_ACTIONS.len())];
                }
                let target = if s + 1 < n && rng.random_range(12) != 0 {
                    s + 1 + rng.random_range(n - s - 1)
                } else {
                    rng.random_range(n)
                };
                b.interactive(action, s as u32, target as u32);
            }
        }
        if shape >= 5 {
            let row = if !rows.is_empty() && rng.random_range(3) == 0 {
                rows[rng.random_range(rows.len())].clone()
            } else {
                (0..1 + rng.random_range(3))
                    .map(|_| {
                        let rate = [0.5, 1.0, 1.5][rng.random_range(3)];
                        (rate, rng.random_range(n) as u32)
                    })
                    .collect()
            };
            for &(rate, target) in &row {
                b.markov(s as u32, rate, target);
            }
            rows.push(row);
        }
    }
    b.build()
}

/// Every stat but the wall-clock time.
fn timeless(stats: TransformStats) -> TransformStats {
    TransformStats {
        transform_time: Duration::ZERO,
        ..stats
    }
}

/// Asserts that two transformation outputs agree field by field, bit for
/// bit (the fingerprints hash every rate by its bit pattern).
fn assert_same_output(fast: &TransformOutput, oracle: &TransformOutput, what: &str) {
    assert_eq!(fast.ctmdp, oracle.ctmdp, "{what}: CTMDP");
    assert_eq!(
        fast.ctmdp.fingerprint(),
        oracle.ctmdp.fingerprint(),
        "{what}: CTMDP fingerprint"
    );
    assert_eq!(
        fast.strictly_alternating, oracle.strictly_alternating,
        "{what}: strictly alternating IMC"
    );
    assert_eq!(
        fast.strictly_alternating.fingerprint(),
        oracle.strictly_alternating.fingerprint(),
        "{what}: strictly alternating fingerprint"
    );
    assert_eq!(
        fast.ctmdp_state_origin, oracle.ctmdp_state_origin,
        "{what}: state origins"
    );
    assert_eq!(
        fast.ctmdp_zero_closure, oracle.ctmdp_zero_closure,
        "{what}: zero-time closures"
    );
    assert_eq!(
        timeless(fast.stats),
        timeless(oracle.stats),
        "{what}: stats"
    );
}

/// The one-pass transformation against its step-wise oracle on random
/// IMCs: equal errors, or equal outputs in every field. The one pass runs
/// on every model the oracle transforms, those with an interactive cycle
/// the urgency cut leaves unreachable included, and on no other. The
/// cases must reach every outcome and the shapes the one pass renumbers.
/// The closed models of the properties above agree too.
#[test]
fn one_pass_transform_matches_the_stepwise_oracle() {
    use unicon::transform::TransformError;
    let (mut transformed, mut zeno, mut dead_ends) = (0, 0, 0);
    let (mut markov_initial, mut hybrid, mut unreachable, mut dotted) = (0, 0, 0, 0);
    let (mut pooled, mut merged, mut cyclic, mut pre_empted) = (0, 0, 0, 0);
    for case in 0..10_000u64 {
        let mut rng = XorShift64::seed_from_u64(0xD1FF + case);
        let imc = random_imc(&mut rng);
        let what = format!("case {case}");
        let oracle = transform_stepwise(&imc);
        assert_eq!(
            transform_one_pass(&imc).is_some(),
            oracle.is_ok(),
            "{what}: the one pass runs exactly where the oracle transforms"
        );
        match (transform(&imc), oracle) {
            (Ok(fast), Ok(oracle)) => {
                assert_same_output(&fast, &oracle, &what);
                transformed += 1;
                let reach = imc.reachable_states();
                markov_initial += usize::from(imc.kind(imc.initial()) == StateKind::Markov);
                hybrid += usize::from(
                    (0..imc.num_states() as u32).any(|s| imc.kind(s) == StateKind::Hybrid),
                );
                unreachable += usize::from(reach.iter().any(|&r| !r));
                dotted += usize::from(
                    fast.ctmdp
                        .actions()
                        .iter()
                        .any(|(_, name)| name.contains('.')),
                );
                pooled += usize::from(fast.ctmdp.num_rate_functions() < fast.stats.markov_states);
                merged +=
                    usize::from(fast.ctmdp.num_transitions() < fast.stats.interactive_transitions);
                cyclic += usize::from(!analysis::is_zeno_free(&imc));
                pre_empted += usize::from(!analysis::is_zeno_free(&imc.restrict_to_reachable()));
            }
            (Err(fast), Err(oracle)) => {
                assert_eq!(fast, oracle, "{what}: error");
                match fast {
                    TransformError::Zeno { .. } => zeno += 1,
                    TransformError::DeadEnd { .. } => dead_ends += 1,
                }
            }
            (fast, oracle) => panic!(
                "{what}: one pass {:?} vs oracle {:?}",
                fast.map(|o| o.stats),
                oracle.map(|o| o.stats)
            ),
        }
    }
    for (count, label) in [
        (transformed, "transformed models"),
        (zeno, "Zeno errors"),
        (dead_ends, "dead-end errors"),
        (markov_initial, "Markov initial states"),
        (hybrid, "hybrid states"),
        (unreachable, "unreachable states"),
        (dotted, "multi-action or dotted words"),
        (pooled, "Markov states sharing a rate function"),
        (merged, "repeated (action, rate function) pairs"),
        (
            cyclic,
            "interactive cycles the urgency cut leaves unreachable",
        ),
        (
            pre_empted,
            "interactive cycles behind a pre-empted Markov transition",
        ),
    ] {
        assert!(count >= 20, "only {count} cases with {label}");
    }
    for case in 0..CASES {
        let mut rng = XorShift64::seed_from_u64(0x0E4C + case);
        let (imc, _) = build_closed(&raw_closed(&mut rng));
        let fast = transform(&imc).expect("closed models transform");
        let oracle = transform_stepwise(&imc).expect("closed models transform");
        assert_same_output(&fast, &oracle, &format!("closed case {case}"));
    }
}
