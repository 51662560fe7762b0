//! The metrics [`Registry`]: a sink that aggregates the event stream
//! into counters, gauges and histograms, rendered as Prometheus-style
//! text exposition (`unicon metrics`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

use crate::hist::Histogram;
use crate::sink::Sink;
use crate::{Class, Event};

/// `(metric name, label set)` — the label set is pre-rendered
/// (`key="value"`), empty for unlabeled samples. `BTreeMap` keys give
/// the exposition a deterministic sort order.
type SeriesKey = (String, String);

#[derive(Default)]
struct Inner {
    counters: BTreeMap<SeriesKey, u64>,
    gauges: BTreeMap<SeriesKey, f64>,
    histograms: BTreeMap<SeriesKey, Histogram>,
}

/// Aggregates events into typed metrics. Install it like any sink and
/// render with [`Registry::exposition`]; counts and histogram buckets
/// are integer-exact, so equal event streams produce byte-identical
/// expositions on every platform.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

fn help_text(metric: &str) -> &'static str {
    match metric {
        "unicon_span_duration_ns" => "Wall-clock span durations in nanoseconds, by span name.",
        "unicon_spans_total" => "Closed spans, by span name.",
        "unicon_log_messages_total" => "Console log messages, by level.",
        "unicon_reach_iterations_total" => "Value-iteration steps executed by the reach engine.",
        "unicon_reach_queries_total" => "Reach queries started.",
        "unicon_foxglynn_lambda" => "Poisson parameter of the most recent reach query.",
        "unicon_foxglynn_window_width" => {
            "Fox-Glynn truncation window width R-L+1 of the most recent reach query."
        }
        "unicon_refine_rounds_total" => "Worklist partition-refinement rounds.",
        "unicon_refine_dirty_states_total" => "States re-signed across all refinement rounds.",
        "unicon_refine_moved_states_total" => "States moved to fresh blocks during refinement.",
        "unicon_refine_blocks" => "Partition blocks after the most recent refinement round.",
        "unicon_guard_events_total" => "Guard-layer incidents, by kind.",
        "unicon_reach_kernel_ns_per_state" => {
            "Average wall nanoseconds per state per value-iteration step of the most recent reach batch."
        }
        "unicon_serve_registry_hits_total" => {
            "Model registrations answered from the serve registry cache."
        }
        "unicon_serve_registry_misses_total" => {
            "Model registrations that triggered a fresh build in serve."
        }
        "unicon_serve_requests_total" => "JSONL request lines handled by serve.",
        "unicon_serve_errors_total" => "serve requests answered with a typed error record.",
        "unicon_serve_partials_total" => "serve queries stopped by a per-request budget.",
        "unicon_serve_active_queries" => "Reach queries currently executing in serve.",
        "unicon_serve_active_sessions" => "JSONL sessions currently connected to serve.",
        "unicon_serve_queue_depth" => {
            "Requests accepted but not yet answered across all serve sessions."
        }
        "unicon_serve_sessions_rejected_total" => {
            "Connections shed at the serve session gate (--max-sessions)."
        }
        "unicon_serve_queries_shed_total" => {
            "Queries shed at the serve admission gate (--max-inflight)."
        }
        "unicon_serve_cache_evictions_total" => {
            "Models evicted from the serve registry under --cache-budget."
        }
        "unicon_serve_cache_resident_bytes" => {
            "Heap bytes held by models resident in the serve registry."
        }
        "unicon_serve_drain_seconds" => {
            "Seconds the most recent serve drain (shutdown/SIGTERM) has run."
        }
        "unicon_serve_build_failures_total" => {
            "serve model builds that panicked and quarantined their size."
        }
        "unicon_serve_idle_timeouts_total" => {
            "serve sessions closed by the socket read/idle timeout."
        }
        "unicon_serve_lines_too_long_total" => {
            "serve request lines rejected for exceeding --max-line-bytes."
        }
        "unicon_serve_query_latency_ns" => {
            "Wall-clock latency of serve reach queries in nanoseconds (admission to response)."
        }
        "unicon_serve_queue_wait_ns" => {
            "Nanoseconds serve requests waited between line read and handler start (admission wait)."
        }
        "unicon_serve_request_run_ns" => "Nanoseconds serve request handlers ran, end to end.",
        "unicon_serve_build_ns" => "Wall-clock serve model build times in nanoseconds.",
        "unicon_reach_query_ns" => "Wall-clock reach query latencies in nanoseconds.",
        "unicon_kernel_fixed_ps_per_state" => {
            "Fused-kernel sweep cost in picoseconds per state over fixed-classed (goal) groups, per query."
        }
        "unicon_kernel_empty_ps_per_state" => {
            "Fused-kernel sweep cost in picoseconds per state over empty-classed (absorbing) groups, per query."
        }
        "unicon_kernel_single_ps_per_state" => {
            "Fused-kernel sweep cost in picoseconds per state over single-row groups, per query."
        }
        "unicon_kernel_multi_ps_per_state" => {
            "Fused-kernel sweep cost in picoseconds per state over multi-row (optimizing) groups, per query."
        }
        _ => "Event-stream counter.",
    }
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn with_inner<T>(&self, f: impl FnOnce(&mut Inner) -> T) -> T {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f(&mut inner)
    }

    /// Registers an empty histogram series so the exposition shows the
    /// metric (with zeroed buckets and quantiles) before the first
    /// sample arrives — the zero-seeding convention used for counters.
    pub fn seed_histogram(&self, name: &str) {
        self.with_inner(|inner| {
            inner
                .histograms
                .entry((name.to_string(), String::new()))
                .or_default();
        });
    }

    /// Renders the Prometheus text exposition: `# HELP` / `# TYPE`
    /// headers followed by `name{labels} value` samples, sorted by
    /// metric name and label set.
    #[must_use]
    pub fn exposition(&self) -> String {
        self.with_inner(|inner| {
            // metric name -> (type, rendered sample lines)
            let mut metrics: BTreeMap<&str, (&str, Vec<String>)> = BTreeMap::new();
            for ((name, labels), value) in &inner.counters {
                let entry = metrics
                    .entry(name.as_str())
                    .or_insert_with(|| ("counter", Vec::new()));
                entry
                    .1
                    .push(render_sample(name, labels, &value.to_string()));
            }
            for ((name, labels), value) in &inner.gauges {
                let entry = metrics
                    .entry(name.as_str())
                    .or_insert_with(|| ("gauge", Vec::new()));
                let mut v = String::new();
                crate::json::write_f64(*value, &mut v);
                entry.1.push(render_sample(name, labels, &v));
            }
            for ((name, labels), hist) in &inner.histograms {
                let entry = metrics
                    .entry(name.as_str())
                    .or_insert_with(|| ("histogram", Vec::new()));
                let cumulative = hist.cumulative();
                for (i, &c) in cumulative.iter().enumerate() {
                    let le = match Histogram::bound(i) {
                        Some(b) => b.to_string(),
                        None => "+Inf".to_string(),
                    };
                    let with_le = if labels.is_empty() {
                        format!("le=\"{le}\"")
                    } else {
                        format!("{labels},le=\"{le}\"")
                    };
                    entry.1.push(render_sample(
                        &format!("{name}_bucket"),
                        &with_le,
                        &c.to_string(),
                    ));
                }
                entry.1.push(render_sample(
                    &format!("{name}_sum"),
                    labels,
                    &hist.sum().to_string(),
                ));
                entry.1.push(render_sample(
                    &format!("{name}_count"),
                    labels,
                    &hist.count().to_string(),
                ));
                // Exact-bucket quantile estimates (integer math, so equal
                // event streams stay byte-identical). Empty histograms
                // render 0 so zero-seeded series are still scrapeable.
                for (suffix, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
                    entry.1.push(render_sample(
                        &format!("{name}_{suffix}"),
                        labels,
                        &hist.quantile(q).unwrap_or(0).to_string(),
                    ));
                }
                entry.1.push(render_sample(
                    &format!("{name}_max"),
                    labels,
                    &hist.max().unwrap_or(0).to_string(),
                ));
            }

            let mut out = String::new();
            for (name, (ty, samples)) in &metrics {
                let _ = writeln!(out, "# HELP {name} {}", help_text(name));
                let _ = writeln!(out, "# TYPE {name} {ty}");
                for s in samples {
                    out.push_str(s);
                    out.push('\n');
                }
            }
            out
        })
    }
}

fn render_sample(name: &str, labels: &str, value: &str) -> String {
    if labels.is_empty() {
        format!("{name} {value}")
    } else {
        format!("{name}{{{labels}}} {value}")
    }
}

impl Sink for Registry {
    /// Every class but [`Class::Iter`]: an iteration record costs a
    /// checksum of the whole value plane per step, and the registry would
    /// only count it. The reach engine reports the steps of each run as
    /// one `reach_iterations` counter instead.
    fn interest(&self) -> u32 {
        Class::all_mask() & !Class::Iter.bit()
    }

    fn record(&self, event: &Event) {
        self.with_inner(|inner| {
            let count = |m: &mut BTreeMap<SeriesKey, u64>, name: &str, labels: String, add: u64| {
                *m.entry((name.to_string(), labels)).or_insert(0) += add;
            };
            match event {
                Event::SpanOpen { .. } | Event::ReachIteration { .. } => {}
                Event::SpanClose { name, nanos, .. } => {
                    count(
                        &mut inner.counters,
                        "unicon_spans_total",
                        format!("span=\"{name}\""),
                        1,
                    );
                    inner
                        .histograms
                        .entry((
                            "unicon_span_duration_ns".to_string(),
                            format!("span=\"{name}\""),
                        ))
                        .or_default()
                        .observe(*nanos);
                }
                Event::Log { level, .. } => {
                    count(
                        &mut inner.counters,
                        "unicon_log_messages_total",
                        format!("level=\"{}\"", level.as_str()),
                        1,
                    );
                }
                Event::Counter { name, value } => {
                    count(
                        &mut inner.counters,
                        &format!("unicon_{name}_total"),
                        String::new(),
                        *value,
                    );
                }
                Event::Gauge { name, value } => {
                    inner
                        .gauges
                        .insert((format!("unicon_{name}"), String::new()), *value);
                }
                Event::QueryStart {
                    lambda,
                    left,
                    right,
                    ..
                } => {
                    count(
                        &mut inner.counters,
                        "unicon_reach_queries_total",
                        String::new(),
                        1,
                    );
                    inner.gauges.insert(
                        ("unicon_foxglynn_lambda".to_string(), String::new()),
                        *lambda,
                    );
                    inner.gauges.insert(
                        ("unicon_foxglynn_window_width".to_string(), String::new()),
                        (right - left + 1) as f64,
                    );
                }
                Event::RefineRound {
                    dirty_states,
                    moved,
                    num_blocks,
                    ..
                } => {
                    count(
                        &mut inner.counters,
                        "unicon_refine_rounds_total",
                        String::new(),
                        1,
                    );
                    count(
                        &mut inner.counters,
                        "unicon_refine_dirty_states_total",
                        String::new(),
                        *dirty_states as u64,
                    );
                    count(
                        &mut inner.counters,
                        "unicon_refine_moved_states_total",
                        String::new(),
                        *moved as u64,
                    );
                    inner.gauges.insert(
                        ("unicon_refine_blocks".to_string(), String::new()),
                        *num_blocks as f64,
                    );
                }
                Event::Observe { name, value } => {
                    inner
                        .histograms
                        .entry((format!("unicon_{name}"), String::new()))
                        .or_default()
                        .observe(*value);
                }
                Event::Request {
                    queue_ns, run_ns, ..
                } => {
                    inner
                        .histograms
                        .entry(("unicon_serve_queue_wait_ns".to_string(), String::new()))
                        .or_default()
                        .observe(*queue_ns);
                    inner
                        .histograms
                        .entry(("unicon_serve_request_run_ns".to_string(), String::new()))
                        .or_default()
                        .observe(*run_ns);
                }
                Event::Guard { kind, .. } => {
                    count(
                        &mut inner.counters,
                        "unicon_guard_events_total",
                        format!("kind=\"{kind}\""),
                        1,
                    );
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Level;

    fn feed(reg: &Registry) {
        reg.record(&Event::SpanClose {
            name: "minimize",
            id: 1,
            nanos: 1000,
        });
        reg.record(&Event::SpanClose {
            name: "minimize",
            id: 2,
            nanos: 3,
        });
        reg.record(&Event::Counter {
            name: "weight_cache_hits",
            value: 5,
        });
        reg.record(&Event::Gauge {
            name: "serve_active_queries",
            value: 3.0,
        });
        reg.record(&Event::Gauge {
            name: "serve_active_queries",
            value: 1.0,
        });
        reg.record(&Event::Counter {
            name: "reach_iterations",
            value: 1,
        });
        reg.record(&Event::QueryStart {
            query: 0,
            t: 10.0,
            lambda: 20.0,
            left: 3,
            right: 58,
        });
        reg.record(&Event::RefineRound {
            round: 1,
            dirty_states: 10,
            dirty_blocks: 2,
            moved: 4,
            num_blocks: 7,
        });
        reg.record(&Event::Guard {
            kind: "budget-exhausted",
            query: 0,
            step: 5,
            detail: "x".into(),
        });
        reg.record(&Event::Log {
            level: Level::Info,
            message: "hi".into(),
        });
    }

    #[test]
    fn exposition_is_well_formed_and_aggregated() {
        let reg = Registry::new();
        feed(&reg);
        let text = reg.exposition();
        for line in text.lines() {
            let ok = line.starts_with("# HELP ") || line.starts_with("# TYPE ") || {
                // name{labels} value | name value
                let (head, value) = line.rsplit_once(' ').expect("sample has a value");
                !head.is_empty() && !value.is_empty()
            };
            assert!(ok, "malformed exposition line: {line}");
        }
        assert!(text.contains("# TYPE unicon_span_duration_ns histogram"));
        assert!(text.contains("unicon_span_duration_ns_count{span=\"minimize\"} 2"));
        assert!(text.contains("unicon_span_duration_ns_sum{span=\"minimize\"} 1003"));
        // 1000 ≤ 1024 = 2^10: cumulative le="1024" covers both samples
        assert!(text.contains("unicon_span_duration_ns_bucket{span=\"minimize\",le=\"1024\"} 2"));
        assert!(text.contains("unicon_span_duration_ns_bucket{span=\"minimize\",le=\"+Inf\"} 2"));
        assert!(text.contains("unicon_weight_cache_hits_total 5"));
        // gauges replace, never accumulate
        assert!(text.contains("# TYPE unicon_serve_active_queries gauge"));
        assert!(text.contains("unicon_serve_active_queries 1e0"));
        assert!(text.contains("unicon_reach_iterations_total 1"));
        assert!(text.contains("unicon_foxglynn_window_width 5.6e1"));
        assert!(text.contains("unicon_guard_events_total{kind=\"budget-exhausted\"} 1"));
        assert!(text.contains("unicon_log_messages_total{level=\"info\"} 1"));

        // identical event streams render byte-identical expositions
        let reg2 = Registry::new();
        feed(&reg2);
        assert_eq!(text, reg2.exposition());
    }

    #[test]
    fn observe_and_request_feed_histograms_with_quantiles() {
        let reg = Registry::new();
        reg.record(&Event::Observe {
            name: "serve_query_latency_ns",
            value: 100,
        });
        reg.record(&Event::Observe {
            name: "serve_query_latency_ns",
            value: 200,
        });
        reg.record(&Event::Request {
            id: 1,
            verb: "query",
            queue_ns: 50,
            run_ns: 5000,
        });
        let text = reg.exposition();
        assert!(text.contains("# TYPE unicon_serve_query_latency_ns histogram"));
        assert!(text.contains("unicon_serve_query_latency_ns_count 2"));
        // 100 lands in the 2^7 = 128 bucket; p50 reports its upper bound
        assert!(text.contains("unicon_serve_query_latency_ns_p50 128"));
        assert!(text.contains("unicon_serve_query_latency_ns_p99 200"));
        assert!(text.contains("unicon_serve_query_latency_ns_max 200"));
        assert!(text.contains("unicon_serve_queue_wait_ns_count 1"));
        assert!(text.contains("unicon_serve_queue_wait_ns_p50 50"));
        assert!(text.contains("unicon_serve_request_run_ns_count 1"));
    }

    #[test]
    fn seeded_histograms_render_zeroed_series() {
        let reg = Registry::new();
        reg.seed_histogram("unicon_serve_build_ns");
        let text = reg.exposition();
        assert!(text.contains("# HELP unicon_serve_build_ns"));
        assert!(text.contains("unicon_serve_build_ns_count 0"));
        assert!(text.contains("unicon_serve_build_ns_p50 0"));
        assert!(text.contains("unicon_serve_build_ns_p90 0"));
        assert!(text.contains("unicon_serve_build_ns_p99 0"));
        assert!(text.contains("unicon_serve_build_ns_max 0"));
    }

    #[test]
    fn exposition_sorts_by_metric_name() {
        let reg = Registry::new();
        feed(&reg);
        let text = reg.exposition();
        let names: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .map(|l| l.split(' ').next().expect("metric name"))
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }
}
