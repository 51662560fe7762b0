//! `reach-batch`: the FTWC at N = 32 answered by the batched value-iteration
//! engine. Each round runs one batch of worst-case queries at t = 100, 500
//! and 1000 on one worker thread and the same batch on two, in an order
//! that alternates every round. The one-thread batch is the sample; the
//! two-thread batch over it is the round's `parallel_ratio`.

use std::time::Instant;

use unicon_core::PreparedModel;
use unicon_ctmdp::par::{BatchResult, ReachBatch, ReachEngine};
use unicon_ftwc::{generator, FtwcParams};
use unicon_numeric::WeightCache;

use crate::metrics::{ratio, sweep_layers, Pass};
use crate::stats::median;
use crate::trace::{KernelSamples, SpanId};
use crate::Env;

const N: usize = 32;
const EPSILON: f64 = 1e-6;
/// Set-ups per pass; `setup_s` is their median.
const SETUPS: usize = 9;
/// Per query: time bound, checksum bits and iteration count, which every
/// run at every thread count must reproduce exactly.
const EXPECTED: [(f64, u64, usize); 3] = [
    (100.0, 0x40e1_f7bc_32c6_6727, 286),
    (500.0, 0x40e2_0579_ec00_be61, 1223),
    (1000.0, 0x40e2_1586_f6aa_9341, 2352),
];

pub fn run(env: &mut Env) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let params = FtwcParams::new(N);
    let mut prepared = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let span = env.tracer.begin("generate", SpanId::ROOT, None);
        let model = generator::build_uimc(&params);
        env.tracer.end(span);
        let span = env.tracer.begin("transform", SpanId::ROOT, None);
        let p = PreparedModel::new(&model.uniform, &model.premium_down)
            .map_err(|e| format!("FTWC N={N} does not transform: {e}"))?;
        env.tracer.end(span);
        pass.setup_s.push(start.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up");
    let batch = EXPECTED.iter().fold(
        prepared.reach_batch().with_epsilon(EPSILON),
        |b, &(t, ..)| b.query(t),
    );
    let one = batch.clone().with_threads(1);
    let two = batch.with_threads(2);

    // Warm-up: lets caches fill before timing starts.
    for (b, iterate) in [(&one, "iterate"), (&two, "iterate_t2")] {
        let (_, out, _) = round(env, &prepared, b, iterate, None)?;
        pass.check(correct(&out));
    }

    let mut last = None;
    let deadline = env.deadline();
    let start = Instant::now();
    for sample in 0.. {
        let mut t1 = None;
        let mut t2 = None;
        for one_first in [sample % 2 == 0, sample % 2 == 1] {
            if one_first {
                t1 = Some(round(env, &prepared, &one, "iterate", Some(sample))?);
            } else {
                t2 = Some(round(env, &prepared, &two, "iterate_t2", Some(sample))?);
            }
        }
        let (ms1, out1, bytes) = t1.expect("one-thread batch ran");
        let (ms2, out2, _) = t2.expect("two-thread batch ran");
        pass.check(correct(&out1));
        pass.check(correct(&out2));
        pass.latency_ms.push(ms1);
        pass.parallel_ratio.push(ratio(ms2, ms1));
        last = Some((out1, out2, bytes));
        if Instant::now() >= deadline {
            break;
        }
    }
    pass.elapsed_s = start.elapsed().as_secs_f64();
    let (out1, out2, engine_bytes) = last.expect("at least one round");

    // Per-class kernel speeds come from one more batch run with the
    // program's telemetry on: its class timing slows the sweeps, so it is
    // kept apart from the timed samples. The capture is thread-local, so
    // the probe sweeps on this thread alone.
    let mut kernel = KernelSamples::default();
    if env.tracer.on() {
        let engine = ReachEngine::new(&prepared.ctmdp, &prepared.goal)
            .map_err(|e| format!("engine construction failed: {e}"))?;
        let (out, events) = env
            .tracer
            .collect(|| one.run_with_engine(&engine, &mut WeightCache::new()));
        pass.check(out.is_ok_and(|out| correct(&out)));
        kernel.add(&events);
    }

    let states = prepared.ctmdp.num_states();
    let sweeps = out1.stats.total_iterations as f64;
    let iterate_ms = median(&env.tracer.durations_ms("iterate"));
    pass.layers = vec![
        ("precompute.bytes", engine_bytes as f64),
        ("iterate.sweeps", sweeps),
        (
            "iterate.threads_effective",
            out1.stats.threads_effective as f64,
        ),
        (
            "iterate_t2.threads_effective",
            out2.stats.threads_effective as f64,
        ),
        ("build.states", states as f64),
    ];
    pass.layers
        .extend(sweep_layers(engine_bytes, states, sweeps, iterate_ms));
    pass.layers.extend(kernel.layers());
    if out2.stats.threads_effective < 2 {
        pass.notes.push(format!(
            "2 threads requested but {} effective: parallel_ratio is not a parallel result (unresolved)",
            out2.stats.threads_effective
        ));
    }
    Ok(pass)
}

/// One batch: the engine's precompute, the batch's Fox–Glynn weights and
/// the batch's iteration (under span `iterate`), each a separate call
/// timed from outside — together the work of one `ReachBatch::run`.
/// Returns the wall time in milliseconds, the answers and the engine's
/// resident bytes.
fn round(
    env: &mut Env,
    prepared: &PreparedModel,
    batch: &ReachBatch<'_>,
    iterate: &'static str,
    sample: Option<u64>,
) -> Result<(f64, BatchResult, usize), String> {
    let start = Instant::now();
    let root = env.tracer.begin("batch", SpanId::ROOT, sample);
    let span = env.tracer.begin("precompute", root, sample);
    let engine = ReachEngine::new(&prepared.ctmdp, &prepared.goal)
        .map_err(|e| format!("engine construction failed: {e}"))?;
    env.tracer.end(span);
    let span = env.tracer.begin("weights", root, sample);
    let mut cache = WeightCache::new();
    for q in batch.queries() {
        cache.get(engine.uniform_rate(), q.t, EPSILON);
    }
    env.tracer.end(span);
    let span = env.tracer.begin(iterate, root, sample);
    let out = batch
        .run_with_engine(&engine, &mut cache)
        .map_err(|e| format!("batch failed: {e}"))?;
    env.tracer.end(span);
    env.tracer.end(root);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    Ok((ms, out, engine.memory_bytes()))
}

fn correct(out: &BatchResult) -> bool {
    out.stats.queries.len() == EXPECTED.len()
        && out
            .stats
            .queries
            .iter()
            .zip(EXPECTED)
            .all(|(q, (t, bits, iterations))| {
                q.t == t && q.checksum.to_bits() == bits && q.iterations == iterations
            })
}
