//! Experiment drivers for the paper's Table 1 and Figure 4.

use std::time::{Duration, Instant};

use unicon_core::{ClosedModel, PreparedModel, Refiner};
use unicon_ctmc::transient::{self, TransientOptions};
use unicon_ctmdp::export;
use unicon_ctmdp::par::BatchResult;
use unicon_ctmdp::reachability::{Kernel, Objective, ReachError, ReachResult};
use unicon_imc::audit::{with_recording, Obligation};
use unicon_numeric::FoxGlynn;

use crate::compositional::{self, BuildTimings};
use crate::generator;
use crate::params::FtwcParams;

/// One row of the paper's Table 1: `(N, [interactive states, Markov
/// states, interactive transitions, Markov transitions], [transformation
/// s, runtime 100 h s, runtime 30000 h s], [iterations 100 h, iterations
/// 30000 h])`.
pub type PaperRow = (usize, [usize; 4], [f64; 3], [usize; 2]);

/// The paper's Table 1, verbatim, for side-by-side comparison.
#[rustfmt::skip]
pub const PAPER_TABLE1: [PaperRow; 8] = [
    (1, [110, 81, 155, 324], [5.37, 0.01, 6.04], [372, 62_161]),
    (2, [274, 205, 403, 920], [4.32, 0.01, 12.33], [372, 62_284]),
    (4, [818, 621, 1235, 3000], [5.25, 0.04, 37.28], [373, 62_528]),
    (8, [2770, 2125, 4243, 10_712], [5.83, 0.13, 47.77], [375, 63_016]),
    (16, [10_130, 7821, 15_635, 40_344], [6.61, 0.52, 294.97], [378, 63_993]),
    (32, [38_674, 29_965, 59_923, 156_440], [9.44, 3.23, 877.52], [384, 65_945]),
    (64, [151_058, 117_261, 234_515, 615_960], [20.58, 37.42, 3044.72], [397, 69_849]),
    (128, [597_010, 463_885, 927_763, 2_444_312], [57.31, 557.52, 20_867.06], [423, 77_651]),
];

/// One row of Table 1: model sizes, memory, transformation time, and
/// Algorithm-1 runtime/iterations per analyzed time bound.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Cluster size `N`.
    pub n: usize,
    /// Interactive states of the strictly alternating IMC.
    pub interactive_states: usize,
    /// Markov states (= rate functions).
    pub markov_states: usize,
    /// Word-labeled interactive transitions.
    pub interactive_transitions: usize,
    /// Markov transitions (rate-function entries).
    pub markov_transitions: usize,
    /// Memory of the sparse CTMDP representation in bytes.
    pub memory_bytes: usize,
    /// Wall-clock time of the generation + transformation.
    pub transform_time: Duration,
    /// Per analyzed time bound: `(t, runtime, iterations, probability)`.
    pub analyses: Vec<(f64, Duration, usize, f64)>,
}

/// Builds the FTWC for `n` via the counter generator, transforms it and
/// runs the worst-case timed-reachability analysis for every time bound.
///
/// # Errors
///
/// See [`reach_bench`].
///
/// # Panics
///
/// Panics if the generated model fails to transform (cannot happen for
/// well-formed parameters).
pub fn table1_row(
    params: &FtwcParams,
    time_bounds: &[f64],
    epsilon: f64,
) -> Result<Table1Row, ReachError> {
    let (prepared, transform_time) = prepare(params);

    let mut analyses = Vec::new();
    for &t in time_bounds {
        let res: ReachResult = prepared.worst_case(t, epsilon)?;
        analyses.push((
            t,
            res.runtime,
            res.iterations,
            res.from_state(prepared.ctmdp.initial()),
        ));
    }
    Ok(Table1Row {
        n: params.n,
        interactive_states: prepared.stats.interactive_states,
        markov_states: prepared.stats.markov_states,
        interactive_transitions: prepared.stats.interactive_transitions,
        markov_transitions: prepared.stats.markov_transitions,
        memory_bytes: prepared.stats.memory_bytes,
        transform_time,
        analyses,
    })
}

/// Measurements of one batched worst-case reachability run over the FTWC —
/// the payload behind `unicon reach --ftwc` and `BENCH_reach.json`.
#[derive(Debug, Clone)]
pub struct ReachBench {
    /// Cluster size `N`.
    pub n: usize,
    /// CTMDP state count.
    pub states: usize,
    /// The CTMDP's initial state.
    pub initial: u32,
    /// Truncation precision.
    pub epsilon: f64,
    /// Wall-clock time of generation + transformation.
    pub build_time: Duration,
    /// The batch engine's answers, per time bound, plus phase timings and
    /// weight-cache counters.
    pub batch: BatchResult,
}

impl ReachBench {
    /// Per query: `(t, worst-case probability from the initial state)`.
    pub fn initial_values(&self) -> Vec<(f64, f64)> {
        self.batch
            .stats
            .queries
            .iter()
            .zip(&self.batch.results)
            .map(|(q, r)| (q.t, r.from_state(self.initial)))
            .collect()
    }

    /// Renders the run as one JSON object (the `BENCH_reach.json` format):
    /// the FTWC instance header plus [`export::batch_to_json`]'s phase
    /// timings, cache counters and per-query detail.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"case_study\":\"ftwc\",\"n\":{},\"states\":{},\"epsilon\":{:e},\
             \"build_ms\":{},\"reach\":{}}}",
            self.n,
            self.states,
            self.epsilon,
            self.build_time.as_secs_f64() * 1e3,
            export::batch_to_json(&self.batch, self.initial)
        )
    }
}

/// Builds the FTWC for `params` and transforms it into a
/// [`PreparedModel`], returning the wall-clock time the build took.
///
/// This is the shared front half of [`reach_bench`] and of the CLI's
/// guarded `unicon reach --ftwc` path, which needs the prepared model
/// itself to wire budgets and checkpoints around the batch run.
///
/// # Panics
///
/// Panics if the generated model fails to transform (cannot happen for
/// well-formed parameters).
pub fn prepare(params: &FtwcParams) -> (PreparedModel, Duration) {
    let start = Instant::now();
    let build_span = unicon_obs::span("build");
    let generate_span = unicon_obs::span("generate");
    let model = generator::build_uimc(params);
    drop(generate_span);
    let transform_span = unicon_obs::span("transform");
    let prepared =
        PreparedModel::new(&model.uniform, &model.premium_down).expect("FTWC transforms cleanly");
    drop(transform_span);
    drop(build_span);
    (prepared, start.elapsed())
}

/// [`prepare`] plus the FNV-1a content fingerprint of the resulting
/// CTMDP — the registry key of `unicon serve`, where prepared models are
/// cached and addressed by fingerprint across sessions. Because the
/// generator and transformation are deterministic, equal parameters
/// always map to the same fingerprint; a registry keyed by it performs
/// each build exactly once.
///
/// # Panics
///
/// See [`prepare`].
pub fn prepare_registered(params: &FtwcParams) -> (PreparedModel, Duration, u64) {
    let (prepared, build_time) = prepare(params);
    let fingerprint = prepared.ctmdp.fingerprint();
    (prepared, build_time, fingerprint)
}

/// Builds the FTWC through the *certified* compositional route — shared
/// elapse constraint, parallel composition, hiding, labeled minimization,
/// transformation — with obligation recording on, and returns the prepared
/// model together with the complete proof ledger.
///
/// Unlike [`prepare`] (which uses the direct generator for speed), every
/// construction step here is a certified operator, so the returned ledger
/// forms a gap-free chain that `unicon_verify::certify` can replay — the
/// driver behind `unicon audit --ftwc`.
///
/// # Panics
///
/// Panics if the composed model fails to transform (cannot happen for
/// well-formed parameters).
pub fn certified_prepare(params: &FtwcParams) -> (PreparedModel, Vec<Obligation>) {
    with_recording(|| {
        let model = compositional::build_shared_timer(params);
        let closed = model.uniform.close();
        PreparedModel::new(&closed, &model.premium_down).expect("FTWC transforms cleanly")
    })
}

/// Builds the FTWC for `params`, transforms it, and answers all
/// `time_bounds` worst-case queries in one batched pass over `threads`
/// worker threads — the driver behind `unicon reach --ftwc`.
///
/// # Errors
///
/// The batch's [`ReachError`] for an invalid `epsilon` or time bound,
/// including one so large that `λ = E·t` has no Fox–Glynn weights.
///
/// # Panics
///
/// Panics if the generated model fails to transform (cannot happen for
/// well-formed parameters).
pub fn reach_bench(
    params: &FtwcParams,
    time_bounds: &[f64],
    epsilon: f64,
    threads: usize,
) -> Result<ReachBench, ReachError> {
    reach_bench_with_kernel(
        params,
        time_bounds,
        epsilon,
        threads,
        Kernel::default(),
        Objective::Maximize,
    )
}

/// [`reach_bench`] with an explicit value-iteration kernel and objective
/// — the differential-benchmarking entry behind
/// `unicon reach --ftwc --kernel [--min]`. Both kernels return
/// bitwise-identical values; only the timings differ.
///
/// # Errors
///
/// See [`reach_bench`].
///
/// # Panics
///
/// See [`reach_bench`].
pub fn reach_bench_with_kernel(
    params: &FtwcParams,
    time_bounds: &[f64],
    epsilon: f64,
    threads: usize,
    kernel: Kernel,
    objective: Objective,
) -> Result<ReachBench, ReachError> {
    let (prepared, build_time) = prepare(params);

    let mut batch = prepared
        .reach_batch()
        .with_epsilon(epsilon)
        .with_threads(threads)
        .with_kernel(kernel);
    for &t in time_bounds {
        batch = batch.query_with(t, objective);
    }
    let batch = batch.run()?;
    Ok(ReachBench {
        n: params.n,
        states: prepared.ctmdp.num_states(),
        initial: prepared.ctmdp.initial(),
        epsilon,
        build_time,
        batch,
    })
}

/// One row of the construction benchmark: per-phase timings of the
/// compositional FTWC build (shared-timer route) plus the downstream
/// transformation and batch-engine precompute — the payload behind
/// `unicon bench-build` and `BENCH_build.json`.
///
/// The pipeline is built twice, once per refiner backend, so the JSON
/// records both minimization timings side by side (honest numbers from the
/// same process, same inputs). The two builds are also checked for bitwise
/// agreement — the benchmark doubles as a differential gate.
#[derive(Debug, Clone)]
pub struct BuildBenchRow {
    /// Cluster size `N`.
    pub n: usize,
    /// States of the final minimized uniform IMC.
    pub states: usize,
    /// Interactive transitions of the final model.
    pub interactive_transitions: usize,
    /// Markov transitions of the final model.
    pub markov_transitions: usize,
    /// Generate/compose/minimize timings of the worklist-refiner build.
    pub timings: BuildTimings,
    /// Total minimization time of the reference-refiner build (its
    /// generate/compose timings are discarded — they repeat the worklist
    /// build's).
    pub minimize_reference: Duration,
    /// Wall-clock time of the IMC→CTMDP transformation.
    pub transform: Duration,
    /// Batch-engine precompute: the fused state layout plus the Fox–Glynn
    /// weights of one representative query (`t = 10`).
    pub precompute: Duration,
    /// Worklist-refiner rounds across all minimizations of the build.
    pub refine_rounds: usize,
    /// States re-signed across all worklist-refiner rounds of the build.
    pub refine_dirty_states: usize,
}

impl BuildBenchRow {
    /// Renders this row as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"n\":{},\"states\":{},\"interactive_transitions\":{},\
             \"markov_transitions\":{},\"generate_ms\":{},\"compose_ms\":{},\
             \"minimize_worklist_ms\":{},\"minimize_reference_ms\":{},\
             \"transform_ms\":{},\"precompute_ms\":{},\
             \"refine_rounds\":{},\"refine_dirty_states\":{}}}",
            self.n,
            self.states,
            self.interactive_transitions,
            self.markov_transitions,
            self.timings.generate.as_secs_f64() * 1e3,
            self.timings.compose.as_secs_f64() * 1e3,
            self.timings.minimize.as_secs_f64() * 1e3,
            self.minimize_reference.as_secs_f64() * 1e3,
            self.transform.as_secs_f64() * 1e3,
            self.precompute.as_secs_f64() * 1e3,
            self.refine_rounds,
            self.refine_dirty_states,
        )
    }
}

/// Runs the construction benchmark for every `N` in `n_list`.
///
/// # Panics
///
/// Panics if the two refiner backends disagree on the final model (they
/// are proven to agree; a panic here is a refiner bug), or if the model
/// fails to transform.
pub fn build_bench(n_list: &[usize], epsilon: f64) -> Vec<BuildBenchRow> {
    n_list
        .iter()
        .map(|&n| {
            let params = FtwcParams::new(n);
            // Collect the worklist build's event stream to report the
            // refiner's round structure alongside the timings.
            let ((model, timings), build_events) = unicon_obs::collect(|| {
                let _span = unicon_obs::span("build");
                compositional::build_shared_timer_with(&params, Refiner::Worklist)
            });
            let mut refine_rounds = 0usize;
            let mut refine_dirty_states = 0usize;
            for ev in &build_events {
                if let unicon_obs::Event::RefineRound { dirty_states, .. } = ev {
                    refine_rounds += 1;
                    refine_dirty_states += dirty_states;
                }
            }
            let (oracle, oracle_timings) =
                compositional::build_shared_timer_with(&params, Refiner::Reference);

            // Differential gate: the worklist refiner must reproduce the
            // reference quotient bitwise, end to end through the pipeline.
            let (a, b) = (model.uniform.imc(), oracle.uniform.imc());
            assert_eq!(a.num_states(), b.num_states(), "refiner mismatch at N={n}");
            assert_eq!(
                a.interactive(),
                b.interactive(),
                "refiner mismatch at N={n}"
            );
            assert_eq!(
                a.markov().len(),
                b.markov().len(),
                "refiner mismatch at N={n}"
            );
            for (x, y) in a.markov().iter().zip(b.markov()) {
                assert_eq!(x.source, y.source, "refiner mismatch at N={n}");
                assert_eq!(x.target, y.target, "refiner mismatch at N={n}");
                assert_eq!(
                    x.rate.to_bits(),
                    y.rate.to_bits(),
                    "refiner rate mismatch at N={n}"
                );
            }
            assert_eq!(
                model.premium_down, oracle.premium_down,
                "refiner label mismatch at N={n}"
            );

            let start = Instant::now();
            let transform_span = unicon_obs::span("transform");
            let prepared = PreparedModel::new(&model.uniform.close(), &model.premium_down)
                .expect("compositional FTWC transforms cleanly");
            drop(transform_span);
            let transform = start.elapsed();
            let batch = prepared
                .reach_batch()
                .with_epsilon(epsilon)
                .with_threads(1)
                .query(10.0)
                .run()
                .expect("compositional FTWC CTMDP is uniform");
            BuildBenchRow {
                n,
                states: a.num_states(),
                interactive_transitions: a.num_interactive(),
                markov_transitions: a.num_markov(),
                timings,
                minimize_reference: oracle_timings.minimize,
                transform,
                precompute: batch.stats.precompute_time + batch.stats.weights_time,
                refine_rounds,
                refine_dirty_states,
            }
        })
        .collect()
}

/// Renders a [`build_bench`] run as one JSON object (the
/// `BENCH_build.json` format).
pub fn build_bench_to_json(rows: &[BuildBenchRow], epsilon: f64) -> String {
    let body: Vec<String> = rows.iter().map(BuildBenchRow::to_json).collect();
    format!(
        "{{\"case_study\":\"ftwc-build\",\"epsilon\":{:e},\"rows\":[{}]}}",
        epsilon,
        body.join(",")
    )
}

/// One point of Figure 4: worst-case CTMDP probability vs. the Γ-resolved
/// CTMC probability of losing premium service within `t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure4Point {
    /// Mission time in hours.
    pub t: f64,
    /// `sup_D Pr_D(s₀ ⤳≤t ¬premium)` from the nondeterministic model.
    pub ctmdp_worst: f64,
    /// The probability computed from the classic CTMC treatment.
    pub ctmc: f64,
}

/// Computes the Figure-4 curves for the given time grid.
///
/// The CTMC's uniformization rate grows with Γ, so a large Γ can take
/// its `λ` past the weight cap at later grid points: every point's `λ`
/// is checked before the first point is computed.
///
/// # Errors
///
/// [`ReachError::FoxGlynn`] when `λ = E·t` exceeds
/// [`FoxGlynn::MAX_LAMBDA`] at a grid point, for the
/// CTMC's uniformization rate `E` (its maximal exit rate) or for the
/// CTMDP's uniform rate, and the other errors of
/// [`PreparedModel::worst_case`].
///
/// # Panics
///
/// Panics if the models fail to build (cannot happen for well-formed
/// parameters).
pub fn figure4(
    params: &FtwcParams,
    times: &[f64],
    epsilon: f64,
) -> Result<Vec<Figure4Point>, ReachError> {
    let model = generator::build_uimc(params);
    let prepared =
        PreparedModel::new(&model.uniform, &model.premium_down).expect("FTWC transforms cleanly");
    let (ctmc, ctmc_down, _) = generator::build_ctmc(params);
    for &t in times {
        FoxGlynn::check_lambda(ctmc.max_exit_rate() * t)?;
    }

    times
        .iter()
        .map(|&t| {
            let worst = prepared
                .worst_case(t, epsilon)?
                .from_state(prepared.ctmdp.initial());
            let copts = TransientOptions::default().with_epsilon(epsilon);
            let ctmc_p = transient::reachability(&ctmc, &ctmc_down, t, &copts).from_state(0);
            Ok(Figure4Point {
                t,
                ctmdp_worst: worst,
                ctmc: ctmc_p,
            })
        })
        .collect()
}

/// Long-run premium availability of the Γ-resolved CTMC — the steady-state
/// measure the original FTWC studies (Haverkort et al., SRDS 2000)
/// reported alongside the timed properties.
///
/// # Panics
///
/// Panics if the steady-state iteration fails to converge (does not happen
/// for the FTWC's ergodic chains).
pub fn steady_state_premium_availability(params: &FtwcParams) -> f64 {
    let (ctmc, down, _) = generator::build_ctmc(params);
    let up: Vec<bool> = down.iter().map(|&d| !d).collect();
    unicon_ctmc::steady::long_run_availability(&ctmc, &up, &Default::default())
        .expect("FTWC chain is ergodic")
}

/// One row of Section 5's route comparison: the compositional
/// (CADP-route) and generated (PRISM-route) FTWC, each built, transformed
/// and analyzed for the same worst-case query.
#[derive(Debug, Clone)]
pub struct RouteRow {
    /// States of the minimized compositional uIMC.
    pub comp_states: usize,
    /// Worst-case probability on the compositional model.
    pub comp_p: f64,
    /// Wall-clock time of the compositional route, analysis included.
    pub comp_time: Duration,
    /// States of the generated uIMC.
    pub gen_states: usize,
    /// Worst-case probability on the generated model.
    pub gen_p: f64,
    /// Wall-clock time of the generated route, analysis included.
    pub gen_time: Duration,
}

/// Cross-validates the compositional (CADP-route) and generated
/// (PRISM-route) models: both worst-case probabilities for the same `t`.
///
/// The two constructions differ in their uniform rates (per-component
/// timers vs. one shared repair timer), but describe the same stochastic
/// behaviour, so the probabilities must agree.
///
/// # Panics
///
/// Panics if either model fails to build or transform.
pub fn cross_validate(params: &FtwcParams, t: f64, epsilon: f64) -> RouteRow {
    let worst_case = |model: &ClosedModel, goal: &[bool]| {
        let prepared = PreparedModel::new(model, goal).expect("FTWC transforms cleanly");
        prepared
            .worst_case(t, epsilon)
            .expect("uniform CTMDP")
            .from_state(prepared.ctmdp.initial())
    };
    let start = Instant::now();
    let comp = compositional::build(params);
    let comp_p = worst_case(&comp.uniform.close(), &comp.premium_down);
    let comp_time = start.elapsed();

    let start = Instant::now();
    let gen = generator::build_uimc(params);
    let gen_p = worst_case(&gen.uniform, &gen.premium_down);
    let gen_time = start.elapsed();

    RouteRow {
        comp_states: comp.uniform.imc().num_states(),
        comp_p,
        comp_time,
        gen_states: gen.uniform.imc().num_states(),
        gen_p,
        gen_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicon_numeric::{assert_close, FoxGlynn};

    #[test]
    fn table1_row_smoke_n1() {
        let row = table1_row(&FtwcParams::new(1), &[10.0, 100.0], 1e-6).unwrap();
        assert_eq!(row.n, 1);
        assert!(row.interactive_states > 0);
        assert!(row.markov_states > 0);
        assert_eq!(row.analyses.len(), 2);
        // iterations grow with t
        assert!(row.analyses[1].2 > row.analyses[0].2);
        // probabilities grow with t and stay in [0, 1]
        assert!(row.analyses[0].3 <= row.analyses[1].3 + 1e-12);
        for &(_, _, _, p) in &row.analyses {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    /// Table 1's iteration counts at ε = 1e-6 are Fox–Glynn right
    /// truncation points of λ = E·t: the minimal k with
    /// P[Poisson(λ) ≤ k] ≥ 1 − ε. The paper's counts are larger because
    /// Fox & Glynn's closed-form bound over-approximates the tail.
    #[test]
    fn table1_iterations_are_pinned() {
        // (N, iterations at 100 h, iterations at 30 000 h)
        const MEASURED: [(usize, usize, usize); 8] = [
            (1, 271, 61_310),
            (2, 272, 61_431),
            (4, 273, 61_674),
            (8, 275, 62_158),
            (16, 278, 63_128),
            (32, 286, 65_066),
            (64, 301, 68_941),
            (128, 330, 76_690),
        ];
        for ((n, it100, it30k), (paper_n, .., [paper100, paper30k])) in
            MEASURED.into_iter().zip(PAPER_TABLE1)
        {
            assert_eq!(n, paper_n);
            let e = FtwcParams::new(n).uniform_rate();
            let k = |t: f64| FoxGlynn::new(e * t).right_truncation(1e-6);
            assert_eq!((k(100.0), k(30_000.0)), (it100, it30k), "N={n}");
            assert!(it100 < paper100 && it30k < paper30k, "N={n}");
        }
        // The engine runs exactly the truncation point's iterations.
        let row = table1_row(&FtwcParams::new(1), &[100.0, 30_000.0], 1e-6).unwrap();
        assert_eq!((row.analyses[0].2, row.analyses[1].2), (271, 61_310));
    }

    #[test]
    fn paper_table_is_monotone_in_n() {
        for w in PAPER_TABLE1.windows(2) {
            assert!(w[1].0 > w[0].0);
            assert!(w[1].1[0] > w[0].1[0]);
        }
    }

    #[test]
    fn figure4_ctmc_overestimates() {
        // The headline qualitative finding: the Γ-resolved CTMC consistently
        // overestimates even the worst-case probability, because the
        // rate-Γ assignment races against ordinary failure rates and so
        // leaves broken components unattended for Exp(Γ)-distributed
        // windows that the faithful (urgent) interpretation does not have.
        let mut params = FtwcParams::new(1);
        params.gamma = 100.0;
        let pts = figure4(&params, &[20.0, 100.0, 500.0], 1e-9).unwrap();
        for p in &pts {
            assert!(
                p.ctmc > p.ctmdp_worst + 1e-8,
                "at t={} ctmc {} does not exceed ctmdp {}",
                p.t,
                p.ctmc,
                p.ctmdp_worst
            );
        }
        // the gap grows with the horizon
        assert!(pts[2].ctmc - pts[2].ctmdp_worst > pts[0].ctmc - pts[0].ctmdp_worst);
    }

    #[test]
    fn steady_state_availability_is_high_and_decreases_with_n() {
        // A modest Γ keeps the chain well-conditioned for the power
        // iteration (the availability itself only depends on Γ at
        // O(rates/Γ)).
        let mut p1 = FtwcParams::new(1);
        p1.gamma = 10.0;
        let mut p4 = FtwcParams::new(4);
        p4.gamma = 10.0;
        let a1 = steady_state_premium_availability(&p1);
        let a4 = steady_state_premium_availability(&p4);
        assert!(a1 > 0.999, "a1 = {a1}");
        assert!(a4 < a1, "a4 = {a4} should be below a1 = {a1}");
        assert!(a4 > 0.99, "a4 = {a4}");
    }

    #[test]
    fn reach_bench_matches_table1_values() {
        let params = FtwcParams::new(1);
        let bounds = [10.0, 100.0];
        let eps = 1e-6;
        let bench = reach_bench(&params, &bounds, eps, 2).unwrap();
        let row = table1_row(&params, &bounds, eps).unwrap();
        let values = bench.initial_values();
        assert_eq!(values.len(), 2);
        for ((t, v), &(rt, _, iters, p)) in values.iter().zip(&row.analyses) {
            assert_eq!(*t, rt);
            assert_eq!(v.to_bits(), p.to_bits(), "t = {t}");
            let qs = &bench.batch.stats.queries;
            assert_eq!(qs.iter().find(|q| q.t == *t).unwrap().iterations, iters);
        }
        // each distinct bound computes its weights once
        assert_eq!(bench.batch.stats.cache_misses, 2);
        let json = bench.to_json();
        assert!(json.contains("\"case_study\":\"ftwc\""));
        assert!(json.contains("\"n\":1"));
        assert!(json.contains("\"queries\":[{"));
    }

    #[test]
    fn compositional_and_generator_agree_n1() {
        let row = cross_validate(&FtwcParams::new(1), 50.0, 1e-8);
        assert_close!(row.comp_p, row.gen_p, 1e-5);
    }

    /// Golden sizes of the minimized shared-timer FTWC quotient. A change
    /// here means the refiner (or the construction) changed semantics —
    /// `build_bench` additionally checks the two refiner backends agree
    /// bitwise on the full model, so this test is a differential gate too.
    #[test]
    fn build_bench_golden_n1() {
        let rows = build_bench(&[1], 1e-6);
        let r = &rows[0];
        assert_eq!(
            (r.states, r.interactive_transitions, r.markov_transitions),
            (92, 79, 168)
        );
        assert!(r.timings.minimize > Duration::ZERO);
        assert!(r.minimize_reference > Duration::ZERO);
        // Every minimization runs at least one refinement round, and each
        // round re-signs at least one state.
        assert!(r.refine_rounds > 0);
        assert!(r.refine_dirty_states >= r.refine_rounds);
        let json = build_bench_to_json(&rows, 1e-6);
        assert!(json.contains("\"case_study\":\"ftwc-build\""));
        assert!(json.contains("\"minimize_worklist_ms\""));
        assert!(json.contains("\"minimize_reference_ms\""));
        assert!(json.contains("\"refine_rounds\""));
        assert!(json.contains("\"states\":92"));
    }

    /// Equal parameters must map to equal registry keys (and distinct
    /// parameters to distinct ones) for serve's fingerprint-addressed
    /// model registry to perform each build exactly once.
    #[test]
    fn prepare_registered_fingerprint_is_deterministic() {
        let p = FtwcParams::new(1);
        let (m1, _, fp1) = prepare_registered(&p);
        let (m2, _, fp2) = prepare_registered(&p);
        assert_eq!(fp1, fp2);
        assert_eq!(fp1, m1.ctmdp.fingerprint());
        assert_eq!(m1.goal, m2.goal);

        let mut q = FtwcParams::new(1);
        q.repair_phases = 2;
        let (_, _, fp3) = prepare_registered(&q);
        assert_ne!(fp1, fp3, "distinct parameters collided");
    }

    /// Larger golden instances, release-only: the debug-build uniformity
    /// audits make N = 2, 3 too slow for the default test profile.
    #[cfg(not(debug_assertions))]
    #[test]
    fn build_bench_golden_n2_n3() {
        let rows = build_bench(&[2, 3], 1e-6);
        assert_eq!(
            (
                rows[0].states,
                rows[0].interactive_transitions,
                rows[0].markov_transitions
            ),
            (204, 176, 468)
        );
        assert_eq!(
            (
                rows[1].states,
                rows[1].interactive_transitions,
                rows[1].markov_transitions
            ),
            (357, 308, 916)
        );
    }
}
