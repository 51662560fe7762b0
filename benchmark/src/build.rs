//! `build-compositional`: the FTWC at N = 2 built through the certified
//! operators — the shared-timer compositional construction with the
//! worklist refiner, then closure, transformation and engine precompute.
//! Each round makes two builds one after another, each a sample, and two
//! at once on two threads, in an order that alternates every round; the
//! second over the first is the round's `parallel_ratio`.

use std::time::Instant;

use unicon_core::{PreparedModel, Refiner};
use unicon_ctmdp::par::ReachEngine;
use unicon_ftwc::compositional::{self, CompositionalModel};
use unicon_ftwc::FtwcParams;
use unicon_obs::Event;

use crate::metrics::{ratio, Pass};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::Env;

const N: usize = 2;
/// States, interactive and Markov transitions of the minimized quotient.
const SIZES: (usize, usize, usize) = (204, 176, 468);
/// Reference builds per pass; `setup_s` is their median.
const SETUPS: usize = 9;

/// What one build yields for checking.
struct Built {
    sizes: (usize, usize, usize),
    fingerprint: u64,
    states: usize,
    engine_bytes: usize,
}

pub fn run(env: &mut Env) -> Result<Pass, String> {
    let mut pass = Pass::default();
    // Set-up builds the reference whose CTMDP fingerprint every measured
    // build must reproduce.
    let mut reference = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let built = build(&mut env.tracer, None)?;
        pass.setup_s.push(start.elapsed().as_secs_f64());
        let fingerprint = *reference.get_or_insert(built.fingerprint);
        pass.check(built.sizes == SIZES && built.fingerprint == fingerprint);
    }
    let reference = reference.expect("at least one set-up");
    let ok = |b: &Built| b.sizes == SIZES && b.fingerprint == reference;

    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let mut last = None;
    let deadline = env.deadline();
    let start = Instant::now();
    for round in 0u64.. {
        let (mut one, mut two) = (0.0, 0.0);
        for sequential in [round % 2 == 0, round % 2 == 1] {
            let t0 = Instant::now();
            if sequential {
                for i in 0..2 {
                    let t = Instant::now();
                    let built = build(&mut env.tracer, Some(2 * round + i))?;
                    pass.latency_ms.push(ms(t));
                    pass.check(ok(&built));
                    last = Some(built);
                }
                one = ms(t0);
            } else {
                let builds: Vec<Result<Built, String>> = std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..2)
                        .map(|_| scope.spawn(|| build(&mut Tracer::new(false), None)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("build threads do not panic"))
                        .collect()
                });
                two = ms(t0);
                for built in builds {
                    pass.check(ok(&built?));
                }
            }
        }
        pass.parallel_ratio.push(ratio(two, one));
        if Instant::now() >= deadline {
            break;
        }
    }
    pass.elapsed_s = start.elapsed().as_secs_f64();
    let last = last.expect("at least one measured build");

    let attr = |key| median(&env.tracer.attrs("build", key));
    pass.layers = vec![
        ("generate.ms", attr("generate_ms")),
        ("compose.ms", attr("compose_ms")),
        ("minimize.ms", attr("minimize_ms")),
        ("precompute.bytes", last.engine_bytes as f64),
        ("build.states", last.states as f64),
    ];
    // The refiner reports its rounds as telemetry. Capturing it switches
    // the program's telemetry on, so the counts come from one more
    // construction, made apart from the timed builds.
    if env.tracer.on() {
        let ((model, _), events) = env.tracer.collect(|| {
            compositional::build_shared_timer_with(&FtwcParams::new(N), Refiner::Worklist)
        });
        pass.check(sizes(&model) == SIZES);
        let dirty: Vec<usize> = events
            .iter()
            .filter_map(|ev| match ev {
                Event::RefineRound { dirty_states, .. } => Some(*dirty_states),
                _ => None,
            })
            .collect();
        pass.layers.extend([
            ("minimize.refine_rounds", dirty.len() as f64),
            ("minimize.dirty_states", dirty.iter().sum::<usize>() as f64),
        ]);
    }
    Ok(pass)
}

fn sizes(model: &CompositionalModel) -> (usize, usize, usize) {
    let imc = model.uniform.imc();
    (imc.num_states(), imc.num_interactive(), imc.num_markov())
}

/// One build. Generate, compose and minimize are interleaved inside the
/// construction, so their times come from the returned `BuildTimings` and
/// ride on the `build` span; transform and precompute get spans of their own.
fn build(tracer: &mut Tracer, sample: Option<u64>) -> Result<Built, String> {
    let root = tracer.begin("build", SpanId::ROOT, sample);
    let (model, timings) =
        compositional::build_shared_timer_with(&FtwcParams::new(N), Refiner::Worklist);
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    tracer.attr(root, "generate_ms", ms(timings.generate));
    tracer.attr(root, "compose_ms", ms(timings.compose));
    tracer.attr(root, "minimize_ms", ms(timings.minimize));

    let span = tracer.begin("transform", root, sample);
    let prepared = PreparedModel::new(&model.uniform.close(), &model.premium_down)
        .map_err(|e| format!("compositional FTWC N={N} does not transform: {e}"))?;
    tracer.end(span);
    let span = tracer.begin("precompute", root, sample);
    let engine = ReachEngine::new(&prepared.ctmdp, &prepared.goal)
        .map_err(|e| format!("engine construction failed: {e}"))?;
    tracer.end(span);
    tracer.end(root);

    Ok(Built {
        sizes: sizes(&model),
        fingerprint: prepared.ctmdp.fingerprint(),
        states: prepared.ctmdp.num_states(),
        engine_bytes: engine.memory_bytes(),
    })
}
