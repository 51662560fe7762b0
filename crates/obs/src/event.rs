//! The typed event vocabulary and its JSONL rendering.

use crate::json;
use crate::Class;

/// Console log severity, doubling as the console sink's verbosity
/// threshold: `quiet` shows only [`Level::Error`], the default shows
/// everything up to [`Level::Info`], `debug` shows all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Failures the user must see (always shown).
    Error,
    /// Progress and result summaries (the default).
    Info,
    /// Diagnostic chatter.
    Debug,
}

impl Level {
    /// Parses a `--log-level` value: `quiet`, `info` or `debug`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "quiet" => Some(Level::Error),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }

    /// The canonical lowercase name (as serialized into traces).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// One structured telemetry record. Every variant is timestamp-free
/// except the span pair, which carries wall-clock duration measured at
/// the span boundaries only (the bit-invisibility contract).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A span began; `parent` is the id of the enclosing open span on
    /// the same thread, if any.
    SpanOpen {
        /// Span name (a static phase label, e.g. `"minimize"`).
        name: &'static str,
        /// Process-unique span id.
        id: u64,
        /// Enclosing span's id, `None` at the root.
        parent: Option<u64>,
    },
    /// A span ended after `nanos` wall-clock nanoseconds.
    SpanClose {
        /// Span name, repeated for self-contained trace lines.
        name: &'static str,
        /// The id issued by the matching [`Event::SpanOpen`].
        id: u64,
        /// Wall-clock duration in nanoseconds.
        nanos: u64,
    },
    /// A human log line.
    Log {
        /// Severity.
        level: Level,
        /// Fully formatted message.
        message: String,
    },
    /// A monotonic count contribution (e.g. weight-cache hits).
    Counter {
        /// Metric-safe counter name.
        name: &'static str,
        /// Amount to add.
        value: u64,
    },
    /// A point-in-time level (e.g. active queries, queue depth). Unlike
    /// [`Event::Counter`] contributions, a gauge *replaces* the previous
    /// value.
    Gauge {
        /// Metric-safe gauge name.
        name: &'static str,
        /// The new level.
        value: f64,
    },
    /// One backward value-iteration step of the reach engine.
    ReachIteration {
        /// Query index within its batch.
        query: usize,
        /// Step index `i` (counts down from the truncation point to 1).
        step: usize,
        /// Poisson weight ψ(i) applied this step.
        psi: f64,
        /// Convergence residual: the unprocessed Poisson mass
        /// `Σ_{n < i} ψ(n)` plus the truncated right tail — an upper
        /// bound on the change the remaining steps can still make.
        /// Non-increasing along the iteration; ends `≤ ε`.
        residual: f64,
        /// Bits of the chunked-Neumaier checksum of `q_i`, the same
        /// quantity the determinism gates compare.
        checksum: u64,
    },
    /// A reach query began; records its Fox–Glynn truncation window.
    QueryStart {
        /// Query index within its batch.
        query: usize,
        /// Time bound analyzed.
        t: f64,
        /// Poisson parameter λ = E·t.
        lambda: f64,
        /// Left truncation point L(ε).
        left: usize,
        /// Right truncation point R(ε) = the iteration count.
        right: usize,
    },
    /// One round of the worklist partition refiner.
    RefineRound {
        /// 1-based round number.
        round: usize,
        /// States re-signed this round.
        dirty_states: usize,
        /// Blocks examined for splitting.
        dirty_blocks: usize,
        /// States moved into fresh blocks.
        moved: usize,
        /// Total blocks after the round.
        num_blocks: usize,
    },
    /// One sample for a named histogram (e.g. a request latency in
    /// nanoseconds). Unlike [`Event::Counter`] the value is a
    /// distribution sample, not a sum contribution.
    Observe {
        /// Metric-safe histogram name.
        name: &'static str,
        /// The observed value (integer units, typically nanoseconds).
        value: u64,
    },
    /// One completed serve request: the per-request accounting record
    /// that ties a `request_id` to where its wall-clock went.
    Request {
        /// Session-monotonic request id (also stamped on the response
        /// line and on every trace event emitted while handling it).
        id: u64,
        /// Request verb: `"register"`, `"query"`, `"metrics"`,
        /// `"shutdown"` or `"error"`.
        verb: &'static str,
        /// Nanoseconds between reading the request line and the handler
        /// starting work (admission/queue wait).
        queue_ns: u64,
        /// Nanoseconds the handler ran.
        run_ns: u64,
    },
    /// A guard-layer incident (checkpoint written, budget exhaustion,
    /// resume).
    Guard {
        /// Incident kind: `"checkpoint"`, `"budget-exhausted"` or
        /// `"resumed"`.
        kind: &'static str,
        /// Query index the incident occurred in.
        query: usize,
        /// Value-iteration step at the incident.
        step: usize,
        /// Human-readable detail.
        detail: String,
    },
}

impl Event {
    /// The interest class this event belongs to.
    #[must_use]
    pub fn class(&self) -> Class {
        match self {
            Event::SpanOpen { .. } | Event::SpanClose { .. } => Class::Span,
            Event::Log { .. } => Class::Log,
            Event::ReachIteration { .. } => Class::Iter,
            Event::Counter { .. }
            | Event::Gauge { .. }
            | Event::Observe { .. }
            | Event::Request { .. }
            | Event::QueryStart { .. }
            | Event::RefineRound { .. } => Class::Metric,
            Event::Guard { .. } => Class::Guard,
        }
    }

    /// Renders the event as one self-contained JSON object (one JSONL
    /// trace line, without the trailing newline).
    ///
    /// Floats use exponent notation (shortest round-trip form);
    /// checksums are 16-digit hex strings so no reader can lose
    /// precision to a double.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        match self {
            Event::SpanOpen { name, id, parent } => {
                s.push_str("{\"type\":\"span_open\",\"name\":");
                json::write_str(name, &mut s);
                s.push_str(",\"id\":");
                s.push_str(&id.to_string());
                s.push_str(",\"parent\":");
                match parent {
                    Some(p) => s.push_str(&p.to_string()),
                    None => s.push_str("null"),
                }
                s.push('}');
            }
            Event::SpanClose { name, id, nanos } => {
                s.push_str("{\"type\":\"span_close\",\"name\":");
                json::write_str(name, &mut s);
                s.push_str(",\"id\":");
                s.push_str(&id.to_string());
                s.push_str(",\"nanos\":");
                s.push_str(&nanos.to_string());
                s.push('}');
            }
            Event::Log { level, message } => {
                s.push_str("{\"type\":\"log\",\"level\":");
                json::write_str(level.as_str(), &mut s);
                s.push_str(",\"message\":");
                json::write_str(message, &mut s);
                s.push('}');
            }
            Event::Counter { name, value } => {
                s.push_str("{\"type\":\"counter\",\"name\":");
                json::write_str(name, &mut s);
                s.push_str(",\"value\":");
                s.push_str(&value.to_string());
                s.push('}');
            }
            Event::Gauge { name, value } => {
                s.push_str("{\"type\":\"gauge\",\"name\":");
                json::write_str(name, &mut s);
                s.push_str(",\"value\":");
                json::write_f64(*value, &mut s);
                s.push('}');
            }
            Event::ReachIteration {
                query,
                step,
                psi,
                residual,
                checksum,
            } => {
                s.push_str("{\"type\":\"reach_iteration\",\"query\":");
                s.push_str(&query.to_string());
                s.push_str(",\"step\":");
                s.push_str(&step.to_string());
                s.push_str(",\"psi\":");
                json::write_f64(*psi, &mut s);
                s.push_str(",\"residual\":");
                json::write_f64(*residual, &mut s);
                s.push_str(",\"checksum\":");
                json::write_str(&format!("{checksum:016x}"), &mut s);
                s.push('}');
            }
            Event::QueryStart {
                query,
                t,
                lambda,
                left,
                right,
            } => {
                s.push_str("{\"type\":\"query_start\",\"query\":");
                s.push_str(&query.to_string());
                s.push_str(",\"t\":");
                json::write_f64(*t, &mut s);
                s.push_str(",\"lambda\":");
                json::write_f64(*lambda, &mut s);
                s.push_str(",\"left\":");
                s.push_str(&left.to_string());
                s.push_str(",\"right\":");
                s.push_str(&right.to_string());
                s.push('}');
            }
            Event::RefineRound {
                round,
                dirty_states,
                dirty_blocks,
                moved,
                num_blocks,
            } => {
                s.push_str("{\"type\":\"refine_round\",\"round\":");
                s.push_str(&round.to_string());
                s.push_str(",\"dirty_states\":");
                s.push_str(&dirty_states.to_string());
                s.push_str(",\"dirty_blocks\":");
                s.push_str(&dirty_blocks.to_string());
                s.push_str(",\"moved\":");
                s.push_str(&moved.to_string());
                s.push_str(",\"num_blocks\":");
                s.push_str(&num_blocks.to_string());
                s.push('}');
            }
            Event::Observe { name, value } => {
                s.push_str("{\"type\":\"observe\",\"name\":");
                json::write_str(name, &mut s);
                s.push_str(",\"value\":");
                s.push_str(&value.to_string());
                s.push('}');
            }
            Event::Request {
                id,
                verb,
                queue_ns,
                run_ns,
            } => {
                s.push_str("{\"type\":\"request\",\"id\":");
                s.push_str(&id.to_string());
                s.push_str(",\"verb\":");
                json::write_str(verb, &mut s);
                s.push_str(",\"queue_ns\":");
                s.push_str(&queue_ns.to_string());
                s.push_str(",\"run_ns\":");
                s.push_str(&run_ns.to_string());
                s.push('}');
            }
            Event::Guard {
                kind,
                query,
                step,
                detail,
            } => {
                s.push_str("{\"type\":\"guard\",\"kind\":");
                json::write_str(kind, &mut s);
                s.push_str(",\"query\":");
                s.push_str(&query.to_string());
                s.push_str(",\"step\":");
                s.push_str(&step.to_string());
                s.push_str(",\"detail\":");
                json::write_str(detail, &mut s);
                s.push('}');
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn level_parse_and_order() {
        assert_eq!(Level::parse("quiet"), Some(Level::Error));
        assert_eq!(Level::parse("info"), Some(Level::Info));
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse("verbose"), None);
        assert!(Level::Error < Level::Info && Level::Info < Level::Debug);
    }

    /// Every event variant serializes to JSON that the in-tree parser
    /// reads back with the original field values — the JSONL round-trip
    /// contract for external consumers.
    #[test]
    fn jsonl_round_trip_all_variants() {
        let events = [
            Event::SpanOpen {
                name: "build",
                id: 7,
                parent: None,
            },
            Event::SpanOpen {
                name: "minimize",
                id: 8,
                parent: Some(7),
            },
            Event::SpanClose {
                name: "minimize",
                id: 8,
                nanos: 12_345,
            },
            Event::Log {
                level: Level::Info,
                message: "quoted \"msg\" with \\ and \n newline".into(),
            },
            Event::Counter {
                name: "weight_cache_hits",
                value: 3,
            },
            Event::Gauge {
                name: "serve_active_queries",
                value: 2.0,
            },
            Event::ReachIteration {
                query: 1,
                step: 42,
                psi: 1.25e-3,
                residual: 7.5e-9,
                checksum: 0x0123_4567_89ab_cdef,
            },
            Event::QueryStart {
                query: 0,
                t: 10.0,
                lambda: 20.047,
                left: 3,
                right: 58,
            },
            Event::RefineRound {
                round: 2,
                dirty_states: 17,
                dirty_blocks: 4,
                moved: 5,
                num_blocks: 23,
            },
            Event::Guard {
                kind: "budget-exhausted",
                query: 0,
                step: 9,
                detail: "max-iterations".into(),
            },
            Event::Observe {
                name: "serve_query_latency_ns",
                value: 1_234_567,
            },
            Event::Request {
                id: 3,
                verb: "query",
                queue_ns: 21_000,
                run_ns: 9_876_543,
            },
        ];
        for ev in &events {
            let line = ev.to_json();
            let v = Value::parse(&line).unwrap_or_else(|e| panic!("parse {line}: {e}"));
            let ty = v.get("type").and_then(Value::as_str).expect("type field");
            match ev {
                Event::SpanOpen { name, id, parent } => {
                    assert_eq!(ty, "span_open");
                    assert_eq!(v.get("name").and_then(Value::as_str), Some(*name));
                    assert_eq!(v.get("id").and_then(Value::as_f64), Some(*id as f64));
                    match parent {
                        None => assert!(matches!(v.get("parent"), Some(Value::Null))),
                        Some(p) => {
                            assert_eq!(v.get("parent").and_then(Value::as_f64), Some(*p as f64));
                        }
                    }
                }
                Event::SpanClose { name, nanos, .. } => {
                    assert_eq!(ty, "span_close");
                    assert_eq!(v.get("name").and_then(Value::as_str), Some(*name));
                    assert_eq!(v.get("nanos").and_then(Value::as_f64), Some(*nanos as f64));
                }
                Event::Log { level, message } => {
                    assert_eq!(ty, "log");
                    assert_eq!(v.get("level").and_then(Value::as_str), Some(level.as_str()));
                    assert_eq!(
                        v.get("message").and_then(Value::as_str),
                        Some(message.as_str())
                    );
                }
                Event::Counter { name, value } => {
                    assert_eq!(ty, "counter");
                    assert_eq!(v.get("name").and_then(Value::as_str), Some(*name));
                    assert_eq!(v.get("value").and_then(Value::as_f64), Some(*value as f64));
                }
                Event::Gauge { name, value } => {
                    assert_eq!(ty, "gauge");
                    assert_eq!(v.get("name").and_then(Value::as_str), Some(*name));
                    assert_eq!(
                        v.get("value").and_then(Value::as_f64).map(f64::to_bits),
                        Some(value.to_bits())
                    );
                }
                Event::ReachIteration {
                    psi,
                    residual,
                    checksum,
                    ..
                } => {
                    assert_eq!(ty, "reach_iteration");
                    // floats round-trip exactly through the exponent form
                    assert_eq!(
                        v.get("psi").and_then(Value::as_f64).map(f64::to_bits),
                        Some(psi.to_bits())
                    );
                    assert_eq!(
                        v.get("residual").and_then(Value::as_f64).map(f64::to_bits),
                        Some(residual.to_bits())
                    );
                    // checksums travel as hex strings, never as doubles
                    assert_eq!(
                        v.get("checksum").and_then(Value::as_str),
                        Some(format!("{checksum:016x}").as_str())
                    );
                }
                Event::QueryStart { lambda, right, .. } => {
                    assert_eq!(ty, "query_start");
                    assert_eq!(
                        v.get("lambda").and_then(Value::as_f64).map(f64::to_bits),
                        Some(lambda.to_bits())
                    );
                    assert_eq!(v.get("right").and_then(Value::as_f64), Some(*right as f64));
                }
                Event::RefineRound {
                    round, num_blocks, ..
                } => {
                    assert_eq!(ty, "refine_round");
                    assert_eq!(v.get("round").and_then(Value::as_f64), Some(*round as f64));
                    assert_eq!(
                        v.get("num_blocks").and_then(Value::as_f64),
                        Some(*num_blocks as f64)
                    );
                }
                Event::Guard { kind, detail, .. } => {
                    assert_eq!(ty, "guard");
                    assert_eq!(v.get("kind").and_then(Value::as_str), Some(*kind));
                    assert_eq!(
                        v.get("detail").and_then(Value::as_str),
                        Some(detail.as_str())
                    );
                }
                Event::Observe { name, value } => {
                    assert_eq!(ty, "observe");
                    assert_eq!(v.get("name").and_then(Value::as_str), Some(*name));
                    assert_eq!(v.get("value").and_then(Value::as_f64), Some(*value as f64));
                }
                Event::Request {
                    id,
                    verb,
                    queue_ns,
                    run_ns,
                } => {
                    assert_eq!(ty, "request");
                    assert_eq!(v.get("id").and_then(Value::as_f64), Some(*id as f64));
                    assert_eq!(v.get("verb").and_then(Value::as_str), Some(*verb));
                    assert_eq!(
                        v.get("queue_ns").and_then(Value::as_f64),
                        Some(*queue_ns as f64)
                    );
                    assert_eq!(
                        v.get("run_ns").and_then(Value::as_f64),
                        Some(*run_ns as f64)
                    );
                }
            }
        }
    }
}
