//! Metric names and units, and the result every run prints. The names
//! here are the ones `BENCHMARK.json` declares; a test keeps the two equal.

use crate::stats::{median, percentile};
use crate::trace::Tracer;

/// End-to-end metrics, reported on every workload from an untraced pass.
/// Each workload has one unit operation (a batch, a build, a query, a
/// request); `latency_ms` is the statistic of its latencies the workload
/// gates on (see [`Stat`]). `parallel_ratio` is the median, over pairs run
/// back to back, of the wall time of the same work on two threads over
/// its time on one; pairing cancels slow phases of the host.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("parallel_ratio", "ratio"),
];

/// Per-layer metrics, reported on every workload from a traced pass. A
/// layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("generate.ms", "ms"),
    ("transform.ms", "ms"),
    ("precompute.ms", "ms"),
    ("precompute.bytes", "bytes"),
    ("weights.ms", "ms"),
    ("weights.cache_hit_ratio", "ratio"),
    ("iterate.ms", "ms"),
    ("iterate.sweeps", "count"),
    ("iterate.ns_per_state_sweep", "ns"),
    ("iterate.bytes_per_sweep_computed", "bytes"),
    ("iterate.gbps_computed", "GB/s"),
    ("iterate.threads_effective", "count"),
    ("iterate_t2.ms", "ms"),
    ("iterate_t2.threads_effective", "count"),
    ("kernel.fixed_ps_per_state", "ps"),
    ("kernel.single_ps_per_state", "ps"),
    ("kernel.multi_ps_per_state", "ps"),
    ("compose.ms", "ms"),
    ("minimize.ms", "ms"),
    ("minimize.refine_rounds", "count"),
    ("minimize.dirty_states", "count"),
    ("build.states", "count"),
    ("serve.run_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("engine.query_ms", "ms"),
    ("serve.engine_ratio", "ratio"),
    ("serve.query_ms_p99", "ms"),
    ("serve.query_ms_max", "ms"),
    ("serve.register_ms", "ms"),
    ("serve.build_ms", "ms"),
    ("registry.hit_ratio", "ratio"),
    ("registry.evictions", "count"),
    ("registry.rebuilds", "count"),
    ("registry.resident_bytes_max", "bytes"),
    ("trace.spans", "count"),
    ("overhead.setup_s", "s"),
    ("overhead.latency_ms", "ms"),
    ("overhead.parallel_ratio", "ratio"),
];

/// Layers whose `<layer>.ms` metric is the median duration of the
/// harness's spans of that name.
const SPAN_LAYERS: [&str; 6] = [
    "generate",
    "transform",
    "precompute",
    "weights",
    "iterate",
    "iterate_t2",
];

/// The statistic of a workload's latencies that `latency_ms` reports. It
/// is chosen per workload for steadiness on a shared host, where slow
/// phases lasting seconds move means and medians of repeated identical
/// operations far more than their lower quartile.
#[derive(Debug, Clone, Copy)]
pub enum Stat {
    /// A nearest-rank percentile, in `(0, 1]`.
    Quantile(f64),
    /// The mean: every operation's cost counts, including rare slow ones.
    Mean,
}

impl Stat {
    pub fn of(self, xs: &[f64]) -> f64 {
        match self {
            Stat::Quantile(q) => percentile(xs, q),
            Stat::Mean => ratio(xs.iter().sum(), xs.len() as f64),
        }
    }

    pub fn label(self) -> String {
        match self {
            Stat::Quantile(q) => format!("p{:.0}", q * 100.0),
            Stat::Mean => "mean".into(),
        }
    }
}

/// What one measurement pass of a workload produced.
#[derive(Default)]
pub struct Pass {
    /// Seconds per set-up.
    pub setup_s: Vec<f64>,
    /// Milliseconds per unit operation in the measured phase.
    pub latency_ms: Vec<f64>,
    /// Per pair: the same work's wall time on two threads over one.
    pub parallel_ratio: Vec<f64>,
    /// Wall-clock seconds of the measured phase.
    pub elapsed_s: f64,
    /// Operations whose output was checked, set-up and warm-up included.
    pub attempted: u64,
    /// Checked operations that failed or gave a wrong answer.
    pub failed: u64,
    /// Per-layer values the workload measured itself; span-derived values
    /// fill in the rest.
    pub layers: Vec<(&'static str, f64)>,
    /// Remarks printed with the result.
    pub notes: Vec<String>,
}

impl Pass {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The end-to-end values, in [`END_TO_END`] order.
    pub fn end_to_end(&self, latency: Stat) -> [f64; 3] {
        [
            median(&self.setup_s),
            latency.of(&self.latency_ms),
            median(&self.parallel_ratio),
        ]
    }

    /// Operations completed per second of the measured phase.
    pub fn throughput(&self) -> f64 {
        ratio(self.latency_ms.len() as f64, self.elapsed_s)
    }

    /// The per-layer values, in [`PER_LAYER`] order: the workload's own
    /// values first, then span-derived ones, then the tracing overhead
    /// (traced minus untraced end-to-end values); everything else is 0.
    pub fn per_layer(&self, tracer: &Tracer, overhead: [f64; 3]) -> Vec<f64> {
        PER_LAYER
            .iter()
            .map(|&(name, _)| {
                if let Some(&(_, v)) = self.layers.iter().find(|(n, _)| *n == name) {
                    return v;
                }
                if let Some(i) = END_TO_END
                    .iter()
                    .position(|(e, _)| name.strip_prefix("overhead.") == Some(e))
                {
                    return overhead[i];
                }
                match name.strip_suffix(".ms") {
                    Some(layer) if SPAN_LAYERS.contains(&layer) => {
                        median(&tracer.durations_ms(layer))
                    }
                    _ if name == "trace.spans" => tracer.len() as f64,
                    _ => 0.0,
                }
            })
            .collect()
    }
}

/// The sweep-cost metrics of `sweeps` value-iteration sweeps over
/// `states` states that took `iterate_ms`. Bytes per sweep are computed
/// from sizes, not measured: the engine's resident precompute plus one
/// value plane read and one written — an upper bound, since it counts the
/// reference kernel's CSR, which the fused kernel does not read.
pub fn sweep_layers(
    engine_bytes: usize,
    states: usize,
    sweeps: f64,
    iterate_ms: f64,
) -> [(&'static str, f64); 3] {
    let states = states as f64;
    let bytes = engine_bytes as f64 + 16.0 * states;
    [
        (
            "iterate.ns_per_state_sweep",
            ratio(iterate_ms * 1e6, sweeps * states),
        ),
        ("iterate.bytes_per_sweep_computed", bytes),
        (
            "iterate.gbps_computed",
            ratio(bytes * sweeps, iterate_ms * 1e6),
        ),
    ]
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The result of one run, printed as the last line of standard output.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result object: `correct`, `attempted`, `failed` and every
    /// metric with its value and unit. Values keep all their digits.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value, which only a harness bug produces.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicon_obs::json::Value;

    fn declared(bench: &Value, key: &str) -> Vec<(String, String)> {
        let Some(Value::Arr(items)) = bench.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Every metric the runner emits is declared in `BENCHMARK.json` with
    /// the same unit, in the same order, and has a well-formed name.
    #[test]
    fn emitted_metrics_are_declared_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let bench = Value::parse(&text).expect("BENCHMARK.json parses");
        for (list, emitted) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let emitted: Vec<(String, String)> = emitted
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared(&bench, list), emitted, "{list}");
            for (name, _) in &emitted {
                assert!(valid_name(name), "bad metric name {name:?}");
            }
        }
        let Some(Value::Arr(workloads)) = bench.get("workloads") else {
            panic!("BENCHMARK.json has no workloads");
        };
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        let ours: Vec<&str> = crate::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let out = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![("latency_ms", 1.25, "ms"), ("setup_s", 0.5, "s")],
        };
        let v = Value::parse(&out.to_json()).expect("result parses");
        let Value::Obj(fields) = &v else {
            panic!("result is an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let lat = v.get("metrics").and_then(|m| m.get("latency_ms"));
        assert_eq!(lat.and_then(|l| l.get("value")), Some(&Value::Num(1.25)));
        assert_eq!(
            lat.and_then(|l| l.get("unit")).and_then(Value::as_str),
            Some("ms")
        );
    }

    #[test]
    fn per_layer_fills_spans_overhead_and_zeros() {
        let mut tracer = Tracer::new(true);
        let id = tracer.begin("iterate", crate::trace::SpanId::ROOT, Some(0));
        tracer.end(id);
        let pass = Pass {
            layers: vec![("iterate.sweeps", 3861.0)],
            ..Pass::default()
        };
        let values = pass.per_layer(&tracer, [0.1, -0.2, 0.05]);
        let get = |name: &str| values[PER_LAYER.iter().position(|(n, _)| *n == name).unwrap()];
        assert_eq!(get("iterate.sweeps"), 3861.0);
        assert!(get("iterate.ms") >= 0.0);
        assert_eq!(get("trace.spans"), 1.0);
        assert_eq!(get("overhead.setup_s"), 0.1);
        assert_eq!(get("overhead.latency_ms"), -0.2);
        assert_eq!(get("overhead.parallel_ratio"), 0.05);
        assert_eq!(get("compose.ms"), 0.0);
    }
}
