//! Integration tests for the FTWC case study: structural agreement with
//! the paper's Table 1, cross-route validation, and the Figure 4
//! overestimation phenomenon.

use unicon::core::PreparedModel;
use unicon::ctmdp::par::{ReachBatch, ReachEngine, CHECKSUM_BLOCK};
use unicon::ctmdp::reachability::{timed_reachability, Objective, ReachOptions};
use unicon::ctmdp::scheduler::UniformRandom;
use unicon::ctmdp::simulate::{estimate_reachability, SimulationOptions};
use unicon::ftwc::{compositional, experiment, generator, FtwcParams};
use unicon::numeric::fnv::Fnv64;
use unicon::numeric::{assert_close, chunked_stable_sum};

#[test]
fn table1_structure_matches_paper() {
    for (n, [pi, pm, pti, ptm], ..) in experiment::PAPER_TABLE1 {
        if n > 4 {
            break;
        }
        let row = experiment::table1_row(&FtwcParams::new(n), &[], 1e-6).unwrap();
        // Our construction reproduces the published counts within a couple
        // of states (a fresh interactive prefix for the initial Markov
        // state plus its word transition).
        let close_enough = |ours: usize, paper: usize| ours.abs_diff(paper) <= 3;
        assert!(
            close_enough(row.interactive_states, pi),
            "N={n}: interactive states {} vs paper {pi}",
            row.interactive_states
        );
        assert_eq!(row.markov_states, pm, "N={n}: Markov states");
        assert!(
            close_enough(row.interactive_transitions, pti),
            "N={n}: interactive transitions {} vs paper {pti}",
            row.interactive_transitions
        );
        assert!(
            close_enough(row.markov_transitions, ptm),
            "N={n}: Markov transitions {} vs paper {ptm}",
            row.markov_transitions
        );
    }
}

/// The generator's own output: (N, repair phases, states,
/// `Imc::fingerprint`, FNV-1a hash of `premium_down` at one byte per
/// state).
const PINNED_GENERATOR: [(usize, u32, usize, u64, u64); 9] = [
    (1, 1, 111, 0x12b1_23cb_16e8_a925, 0x03c9_f09b_3a5a_593b),
    (2, 1, 275, 0xc68b_ab8d_b6ad_3721, 0xea10_d7d4_5208_b090),
    (4, 1, 819, 0x4a79_370d_605b_0da8, 0xb5b5_7b75_f18a_6d71),
    (8, 1, 2771, 0xe88d_dab3_9fc8_d2b3, 0x947a_4b40_aa23_5361),
    (16, 1, 10131, 0x53c9_1e3f_fb76_f724, 0x5ee0_7317_373c_6a41),
    (32, 1, 38675, 0x1c16_34ef_433e_d75f, 0x5283_939c_c032_4401),
    (1, 3, 271, 0x0fd6_761a_dc71_d494, 0x71cc_79b6_45e6_7821),
    (2, 3, 683, 0x7cd8_0633_5eca_f819, 0x99eb_1165_8dfc_41ee),
    (4, 3, 2059, 0x8b32_f4e8_d139_2111, 0xffb3_8705_8dbb_bc2f),
];

#[test]
fn generator_output_is_pinned() {
    for (n, phases, states, fingerprint, premium_down) in PINNED_GENERATOR {
        // N=32 is release-only, like the transform pin below.
        if n == 32 && cfg!(debug_assertions) {
            continue;
        }
        let mut params = FtwcParams::new(n);
        params.repair_phases = phases;
        let model = generator::build_uimc(&params);
        let imc = model.uniform.imc();
        let mut down = Fnv64::new();
        for &d in &model.premium_down {
            down.write(&[u8::from(d)]);
        }
        assert_eq!(imc.num_states(), states, "N={n}, {phases} phases: states");
        assert_eq!(
            imc.fingerprint(),
            fingerprint,
            "N={n}, {phases} phases: IMC fingerprint {:016x}",
            imc.fingerprint()
        );
        assert_eq!(
            down.finish(),
            premium_down,
            "N={n}, {phases} phases: premium_down hash {:016x}",
            down.finish()
        );
    }
}

/// The transformation's exact output on the FTWC: counts (interactive
/// states, Markov states, interactive transitions, Markov transitions) and
/// `Ctmdp::fingerprint`, which hashes every rate by its bit pattern.
const PINNED_TRANSFORM: [(usize, [usize; 4], u64); 6] = [
    (1, [112, 81, 157, 326], 0xee83_8a05_4b40_2b6c),
    (2, [276, 205, 405, 922], 0xd6f1_5dd6_8a15_e066),
    (4, [820, 621, 1237, 3002], 0x41d0_13b6_2fd7_dcf5),
    (8, [2772, 2125, 4245, 10714], 0x9a40_71cd_8758_f51d),
    (16, [10132, 7821, 15637, 40346], 0x7fae_5fc2_e4a8_b865),
    (32, [38676, 29965, 59925, 156442], 0x25d1_2dcb_9da3_7f55),
];

#[test]
fn transform_output_is_pinned_on_the_ftwc() {
    for (n, counts, fingerprint) in PINNED_TRANSFORM {
        // N=32 takes seconds to generate and transform in a debug build.
        if n == 32 && cfg!(debug_assertions) {
            continue;
        }
        let model = generator::build_uimc(&FtwcParams::new(n));
        let out = unicon::transform::transform(model.uniform.imc()).expect("FTWC transforms");
        let s = out.stats;
        assert_eq!(
            [
                s.interactive_states,
                s.markov_states,
                s.interactive_transitions,
                s.markov_transitions
            ],
            counts,
            "N={n}: Table-1 counts"
        );
        assert_eq!(
            out.ctmdp.fingerprint(),
            fingerprint,
            "N={n}: CTMDP fingerprint {:016x}",
            out.ctmdp.fingerprint()
        );
    }
}

/// The reach engine keeps one copy of what it sweeps: the fused state
/// layout, which interns only the rate functions non-goal states use. At
/// N = 16 that, the goal vector and two value planes come to 278,880
/// bytes, under a third of the CTMDP's own 914,264 (the engine held
/// 1,062,966 while it also kept a CSR of every rate function and value
/// tables).
#[test]
fn reach_engine_at_n16_keeps_one_copy_of_the_rows_it_sweeps() {
    let (prepared, _) = experiment::prepare(&FtwcParams::new(16));
    let engine = ReachEngine::new(&prepared.ctmdp, &prepared.goal).unwrap();
    let bytes = engine.memory_bytes();
    assert!(bytes < 350_000, "engine holds {bytes} bytes");
    assert!(bytes < prepared.ctmdp.memory_bytes() / 3, "{bytes}");
}

/// Each rate function a non-goal FTWC state uses is shared by two of
/// them, far apart in state order, so a worker's range of the folded
/// layout references rows that another worker's range references too.
/// A laned batch at N = 4, maximizing and minimizing at three bounds,
/// answers every query with the bits it gets alone on 1, 2, 3 and 8
/// workers; on 8, the longest lanes' parts split their slots between two
/// workers each.
#[test]
fn laned_ftwc_batch_matches_each_query_alone_on_any_worker_count() {
    let (prepared, _) = experiment::prepare(&FtwcParams::new(4));
    let (ctmdp, goal) = (&prepared.ctmdp, &prepared.goal);
    let mut batch = ReachBatch::new(ctmdp, goal);
    for t in [100.0, 500.0, 1000.0] {
        for objective in [Objective::Maximize, Objective::Minimize] {
            batch = batch.query_with(t, objective);
        }
    }
    let alone: Vec<_> = batch
        .queries()
        .iter()
        .map(|q| {
            let opts = ReachOptions::default().with_objective(q.objective);
            timed_reachability(ctmdp, goal, q.t, &opts).unwrap()
        })
        .collect();
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for workers in [1, 2, 3, 8] {
        let out = batch.clone().with_exact_workers(workers).run().unwrap();
        for (qi, single) in alone.iter().enumerate() {
            let (r, stats) = (&out.results[qi], &out.stats.queries[qi]);
            let at = format!("{workers} workers, query {qi}");
            assert_eq!(bits(&r.values), bits(&single.values), "{at}");
            assert_eq!(r.iterations, single.iterations, "{at}");
            assert_eq!(
                stats.checksum.to_bits(),
                chunked_stable_sum(&single.values, CHECKSUM_BLOCK).to_bits(),
                "{at}"
            );
        }
    }
}

#[test]
fn compositional_route_agrees_with_generator_route() {
    for n in [1, 2, 8] {
        let params = FtwcParams::new(n);
        for t in [20.0, 200.0] {
            let row = experiment::cross_validate(&params, t, 1e-9);
            assert_close!(row.comp_p, row.gen_p, 1e-6);
        }
    }
}

#[test]
fn worst_case_grows_with_cluster_stress() {
    // Larger horizons and smaller clusters both increase the probability of
    // losing premium quality.
    let p1 = experiment::table1_row(&FtwcParams::new(1), &[100.0, 1000.0], 1e-8).unwrap();
    assert!(p1.analyses[1].3 > p1.analyses[0].3);
}

#[test]
fn figure4_overestimation_holds_across_sizes() {
    for n in [1, 2] {
        let mut params = FtwcParams::new(n);
        params.gamma = 100.0;
        let pts = experiment::figure4(&params, &[50.0, 500.0], 1e-9).unwrap();
        for p in pts {
            assert!(
                p.ctmc > p.ctmdp_worst,
                "N={n}, t={}: CTMC {} should exceed CTMDP {}",
                p.t,
                p.ctmc,
                p.ctmdp_worst
            );
        }
    }
}

#[test]
fn random_repair_policy_sits_between_best_and_worst() {
    let params = FtwcParams::new(2);
    let model = generator::build_uimc(&params);
    let prepared = PreparedModel::new(&model.uniform, &model.premium_down).unwrap();
    let t = 500.0;
    let opts = ReachOptions::default().with_epsilon(1e-9);
    let sup = timed_reachability(&prepared.ctmdp, &prepared.goal, t, &opts)
        .unwrap()
        .from_state(prepared.ctmdp.initial());
    let inf = timed_reachability(
        &prepared.ctmdp,
        &prepared.goal,
        t,
        &opts.with_objective(Objective::Minimize),
    )
    .unwrap()
    .from_state(prepared.ctmdp.initial());
    assert!(sup >= inf);
    let est = estimate_reachability(
        &prepared.ctmdp,
        &prepared.goal,
        t,
        &UniformRandom,
        &SimulationOptions {
            runs: 30_000,
            seed: 42,
        },
    );
    assert!(
        est.probability <= sup + 4.0 * est.std_error,
        "random policy {} above sup {sup}",
        est.probability
    );
    assert!(
        est.probability >= inf - 4.0 * est.std_error,
        "random policy {} below inf {inf}",
        est.probability
    );
}

#[test]
fn compositional_minimization_collapses_symmetry() {
    // The N=2 compositional model must be dramatically smaller after
    // minimization than the raw interleaving would be, and still uniform.
    let params = FtwcParams::new(2);
    let m = compositional::build(&params);
    assert!(m.uniform.imc().num_states() < 2_000);
    assert!(m.premium_down.iter().any(|&d| d));
    assert!(!m.premium_down[m.uniform.imc().initial() as usize]);
}

#[test]
fn premium_down_probability_grows_with_cluster_size() {
    // Premium quality needs *all N* workstations of one sub-cluster (or N
    // in total across both, fully connected): more workstations mean more
    // single points of degradation, so the loss probability rises with N —
    // consistent with the spread between the two panels of Figure 4.
    let small = experiment::table1_row(&FtwcParams::new(1), &[100.0], 1e-8)
        .unwrap()
        .analyses[0]
        .3;
    let large = experiment::table1_row(&FtwcParams::new(8), &[100.0], 1e-8)
        .unwrap()
        .analyses[0]
        .3;
    assert!(
        large > small,
        "N=8 worst case {large} should exceed N=1 worst case {small}"
    );
}

#[test]
fn goal_semantics_zero_closure_vs_exact_differ_only_on_entry_prefixes() {
    // The premium-down region is dwelling (left only by Markov repairs),
    // so the closure-based and the exact goal vectors give identical
    // analysis results within numerical tolerance.
    let params = FtwcParams::new(1);
    let model = generator::build_uimc(&params);
    let out = unicon::transform::transform(model.uniform.imc()).unwrap();
    let closure_goal = out.goal_vector(&model.premium_down);
    let exact_goal = out.goal_vector_exact(&model.premium_down);
    let opts = ReachOptions::default().with_epsilon(1e-10);
    let t = 100.0;
    let a = timed_reachability(&out.ctmdp, &closure_goal, t, &opts)
        .unwrap()
        .from_state(out.ctmdp.initial());
    let b = timed_reachability(&out.ctmdp, &exact_goal, t, &opts)
        .unwrap()
        .from_state(out.ctmdp.initial());
    // closure can only be (weakly) larger
    assert!(a >= b - 1e-12);
    assert_close!(a, b, 1e-4);
}
