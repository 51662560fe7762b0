//! The JSONL wire protocol of `unicon serve`.
//!
//! One request per line, one response line per request, answered in
//! request order within a session. Requests are JSON objects carrying
//! exactly one verb:
//!
//! ```text
//! {"register": {"ftwc": 4}}
//! {"query": {"model": "<fp>", "t": 10, "objective": "max",
//!            "epsilon": 1e-6, "threads": 2,
//!            "budget": {"max_iters": 50, "timeout_ms": 250}}}
//! {"metrics": {}}
//! {"shutdown": {}}
//! ```
//!
//! Responses are `{"ok": "<verb>", ...}` objects, or `{"error":
//! {"code": N, "kind": "...", "detail": "...", "retriable": B}}` with a
//! nonzero `code` mirroring the CLI exit conventions (1 runtime, 2
//! malformed or semantically invalid request, 4 admission-control shed).
//! `retriable: true` marks transient conditions (`overloaded`) a client
//! should back off and retry; all other errors are deterministic
//! rejections that will recur verbatim. A malformed line never
//! terminates the session — every line gets exactly one response. The
//! two exceptions that do end the session after answering are
//! `line-too-long` (the remainder of an unbounded line cannot be
//! skipped in bounded memory) and `overloaded` at session admission.
//!
//! All floats travel in Rust's shortest round-trip exponent form and
//! checksums as 16-digit hex strings, exactly like `unicon reach`'s JSON
//! output, so values and checksums can be compared bitwise across the
//! two front ends. The only nondeterministic response fields are the
//! wall-clock `*_ms` measurements.

use std::time::Duration;

use unicon::ctmdp::reachability::Objective;
use unicon::ftwc::generator;
use unicon::obs::json::{self, Value};

/// A typed protocol failure, rendered as one `{"error": ...}` line.
pub struct ProtoError {
    /// Nonzero failure class: 1 runtime, 2 malformed/invalid request,
    /// 4 admission-control shed.
    pub code: u8,
    /// Stable machine-readable discriminator.
    pub kind: &'static str,
    /// Human-readable description.
    pub detail: String,
    /// Whether a client should back off and retry the same request.
    /// Only transient admission failures are retriable; every other
    /// rejection is deterministic and would recur verbatim.
    pub retriable: bool,
}

impl ProtoError {
    /// The request line is not a well-formed JSON document.
    pub fn parse(detail: impl std::fmt::Display) -> Self {
        Self {
            code: 2,
            kind: "parse",
            detail: detail.to_string(),
            retriable: false,
        }
    }

    /// The request is well-formed JSON but semantically invalid.
    pub fn usage(detail: impl std::fmt::Display) -> Self {
        Self {
            code: 2,
            kind: "usage",
            detail: detail.to_string(),
            retriable: false,
        }
    }

    /// The engine rejected the request at execution time.
    pub fn runtime(detail: impl std::fmt::Display) -> Self {
        Self {
            code: 1,
            kind: "runtime",
            detail: detail.to_string(),
            retriable: false,
        }
    }

    /// The query names a fingerprint no `register` has produced (or the
    /// model was evicted under the cache budget and must re-register).
    pub fn unknown_model(fingerprint: u64) -> Self {
        Self {
            code: 1,
            kind: "unknown-model",
            detail: format!(
                "no registered model has fingerprint {fingerprint:016x} \
                 (evicted models must be re-registered)"
            ),
            retriable: false,
        }
    }

    /// Admission control shed the request; the condition is transient.
    pub fn overloaded(detail: impl std::fmt::Display) -> Self {
        Self {
            code: 4,
            kind: "overloaded",
            detail: detail.to_string(),
            retriable: true,
        }
    }

    /// The request line exceeded the daemon's byte cap.
    pub fn line_too_long(limit: usize) -> Self {
        Self {
            code: 2,
            kind: "line-too-long",
            detail: format!("request line exceeds --max-line-bytes ({limit}); session closed"),
            retriable: false,
        }
    }

    /// The model build panicked (or is quarantined from an earlier
    /// panic); the registry stays usable for every other model.
    pub fn build_failed(detail: impl std::fmt::Display) -> Self {
        Self {
            code: 1,
            kind: "build-failed",
            detail: detail.to_string(),
            retriable: false,
        }
    }

    /// Renders the error record (one JSONL line, without the newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64);
        s.push_str("{\"error\":{\"code\":");
        s.push_str(&self.code.to_string());
        s.push_str(",\"kind\":");
        json::write_str(self.kind, &mut s);
        s.push_str(",\"detail\":");
        json::write_str(&self.detail, &mut s);
        s.push_str(",\"retriable\":");
        s.push_str(if self.retriable { "true" } else { "false" });
        s.push_str("}}");
        s
    }
}

/// One parsed request.
pub enum Request {
    /// Build (or look up) the FTWC model for cluster size `ftwc`.
    Register {
        /// Workstations per sub-cluster, ≥ 1.
        ftwc: usize,
    },
    /// Answer one timed-reachability query against a registered model.
    Query(QueryRequest),
    /// Return the Prometheus-style metrics exposition.
    Metrics,
    /// Acknowledge and shut the daemon down.
    Shutdown,
}

/// The payload of a `query` request.
pub struct QueryRequest {
    /// Registry key: the FNV-1a content fingerprint from `register`.
    pub model: u64,
    /// Time bound `t ≥ 0`.
    pub t: f64,
    /// `max` (default) or `min`.
    pub objective: Objective,
    /// Fox–Glynn truncation error, in (0, 1); default 1e-6.
    pub epsilon: f64,
    /// Worker threads (0 = auto); `None` uses the daemon's default.
    pub threads: Option<usize>,
    /// Per-request admission control: stop after this many
    /// value-iteration steps and answer with a partial result.
    pub max_iters: Option<usize>,
    /// Per-request wall-clock deadline, `budget.timeout_ms` on the wire:
    /// the query runs through the guarded engine and answers an
    /// exit-3-style partial record (lower/upper brackets) when the clock
    /// expires first.
    pub timeout: Option<Duration>,
}

fn integer_field(obj: &Value, key: &str, verb: &str) -> Result<Option<usize>, ProtoError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => {
            let x = v
                .as_f64()
                .ok_or_else(|| ProtoError::usage(format!("{verb}.{key} must be a number")))?;
            if x.fract() != 0.0 || !(0.0..=u32::MAX as f64).contains(&x) {
                return Err(ProtoError::usage(format!(
                    "{verb}.{key} must be a non-negative integer, got {x:e}"
                )));
            }
            Ok(Some(x as usize))
        }
    }
}

fn parse_register(body: &Value) -> Result<Request, ProtoError> {
    let ftwc = integer_field(body, "ftwc", "register")?
        .ok_or_else(|| ProtoError::usage("register needs an \"ftwc\" cluster size"))?;
    if ftwc == 0 {
        return Err(ProtoError::usage("register.ftwc must be at least 1"));
    }
    if ftwc > generator::MAX_N {
        return Err(ProtoError::usage(format!(
            "register.ftwc must be at most {}, got {ftwc}",
            generator::MAX_N
        )));
    }
    Ok(Request::Register { ftwc })
}

fn parse_query(body: &Value) -> Result<Request, ProtoError> {
    let fp_str = body
        .get("model")
        .and_then(Value::as_str)
        .ok_or_else(|| ProtoError::usage("query needs a \"model\" fingerprint string"))?;
    let model = u64::from_str_radix(fp_str, 16).map_err(|_| {
        ProtoError::usage(format!(
            "query.model '{fp_str}' is not a hex fingerprint (as printed by register)"
        ))
    })?;
    let t = body
        .get("t")
        .and_then(Value::as_f64)
        .ok_or_else(|| ProtoError::usage("query needs a numeric time bound \"t\""))?;
    if !t.is_finite() || t < 0.0 {
        return Err(ProtoError::usage(format!(
            "query.t must be finite and non-negative, got {t:e}"
        )));
    }
    let objective = match body.get("objective") {
        None => Objective::Maximize,
        Some(v) => match v.as_str() {
            Some("max") => Objective::Maximize,
            Some("min") => Objective::Minimize,
            _ => {
                return Err(ProtoError::usage(
                    "query.objective must be \"max\" or \"min\"",
                ))
            }
        },
    };
    let epsilon = match body.get("epsilon") {
        None => 1e-6,
        Some(v) => {
            let e = v
                .as_f64()
                .ok_or_else(|| ProtoError::usage("query.epsilon must be a number"))?;
            if !(e > 0.0 && e < 1.0) {
                return Err(ProtoError::usage(format!(
                    "query.epsilon must be in the open interval (0, 1), got {e:e}"
                )));
            }
            e
        }
    };
    let threads = integer_field(body, "threads", "query")?;
    let (max_iters, timeout) = match body.get("budget") {
        None => (None, None),
        Some(b) => {
            if !matches!(b, Value::Obj(_)) {
                return Err(ProtoError::usage("query.budget must be an object"));
            }
            let max_iters = integer_field(b, "max_iters", "query.budget")?;
            let timeout = match b.get("timeout_ms") {
                None => None,
                Some(v) => {
                    let ms = v.as_f64().ok_or_else(|| {
                        ProtoError::usage("query.budget.timeout_ms must be a number")
                    })?;
                    if !(ms.is_finite() && ms > 0.0) {
                        return Err(ProtoError::usage(format!(
                            "query.budget.timeout_ms must be finite and positive, got {ms:e}"
                        )));
                    }
                    let timeout = Duration::try_from_secs_f64(ms / 1e3).map_err(|_| {
                        ProtoError::usage(format!(
                            "query.budget.timeout_ms {ms:e} is too long a time span"
                        ))
                    })?;
                    Some(timeout)
                }
            };
            (max_iters, timeout)
        }
    };
    Ok(Request::Query(QueryRequest {
        model,
        t,
        objective,
        epsilon,
        threads,
        max_iters,
        timeout,
    }))
}

/// Parses one request line.
///
/// # Errors
///
/// [`ProtoError`] with `kind: "parse"` when the line is not JSON and
/// `kind: "usage"` when the document does not fit the protocol.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let v = Value::parse(line).map_err(ProtoError::parse)?;
    let Value::Obj(fields) = &v else {
        return Err(ProtoError::usage("request must be a JSON object"));
    };
    let [(verb, body)] = fields.as_slice() else {
        return Err(ProtoError::usage(
            "request must carry exactly one verb: register, query, metrics or shutdown",
        ));
    };
    match verb.as_str() {
        "register" => parse_register(body),
        "query" => parse_query(body),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(ProtoError::usage(format!(
            "unknown verb '{other}' (expected register, query, metrics or shutdown)"
        ))),
    }
}

/// The canonical name of an objective on the wire.
pub fn objective_str(o: Objective) -> &'static str {
    match o {
        Objective::Maximize => "max",
        Objective::Minimize => "min",
    }
}

/// Renders a `register` response. Provenance fields beyond the model
/// facts: `cached` (registry hit, nothing built), `rebuilt` (the model
/// was evicted under `--cache-budget` earlier and this register built
/// it again), `resident_bytes` (what the entry charges against the
/// cache budget) and `evicted` (fingerprints this register pushed out).
#[allow(clippy::too_many_arguments)]
pub fn render_register(
    fingerprint: u64,
    n: usize,
    states: usize,
    initial: u32,
    uniform_rate: f64,
    cached: bool,
    rebuilt: bool,
    resident_bytes: usize,
    evicted: &[u64],
    build_ms: f64,
) -> String {
    let mut evicted_json = String::from("[");
    for (i, fp) in evicted.iter().enumerate() {
        if i > 0 {
            evicted_json.push(',');
        }
        evicted_json.push_str(&format!("\"{fp:016x}\""));
    }
    evicted_json.push(']');
    format!(
        "{{\"ok\":\"register\",\"model\":\"{fingerprint:016x}\",\"n\":{n},\
         \"states\":{states},\"initial\":{initial},\"uniform_rate\":{uniform_rate:e},\
         \"cached\":{cached},\"rebuilt\":{rebuilt},\
         \"resident_bytes\":{resident_bytes},\"evicted\":{evicted_json},\
         \"build_ms\":{build_ms}}}"
    )
}

/// Renders a completed `query` response. `value` and `checksum_bits`
/// are formatted exactly like `unicon reach`'s JSON (`{:e}` / 16-digit
/// hex), so equal bits render as equal strings.
#[allow(clippy::too_many_arguments)]
pub fn render_query(
    q: &QueryRequest,
    value: f64,
    checksum_bits: u64,
    iterations: usize,
    weights_cached: bool,
    threads_requested: usize,
    threads_effective: usize,
    wall_ms: f64,
) -> String {
    format!(
        "{{\"ok\":\"query\",\"model\":\"{:016x}\",\"t\":{:e},\"objective\":\"{}\",\
         \"value\":{value:e},\"checksum\":\"{checksum_bits:016x}\",\
         \"iterations\":{iterations},\"weights_cached\":{weights_cached},\
         \"threads_requested\":{threads_requested},\
         \"threads_effective\":{threads_effective},\"wall_ms\":{wall_ms}}}",
        q.model,
        q.t,
        objective_str(q.objective),
    )
}

/// Renders a budget-exhausted `query` response: the serve analogue of
/// the CLI's exit-3 partial result, bracketing the true value at the
/// initial state.
#[allow(clippy::too_many_arguments)]
pub fn render_partial(
    q: &QueryRequest,
    stopped: &str,
    completed_steps: usize,
    total_steps: usize,
    lower: f64,
    upper: f64,
    threads_requested: usize,
    threads_effective: usize,
    wall_ms: f64,
) -> String {
    format!(
        "{{\"ok\":\"partial\",\"model\":\"{:016x}\",\"t\":{:e},\"objective\":\"{}\",\
         \"stopped\":\"{stopped}\",\"completed_steps\":{completed_steps},\
         \"total_steps\":{total_steps},\"lower\":{lower:e},\"upper\":{upper:e},\
         \"threads_requested\":{threads_requested},\
         \"threads_effective\":{threads_effective},\"wall_ms\":{wall_ms}}}",
        q.model,
        q.t,
        objective_str(q.objective),
    )
}

/// Renders a `metrics` response carrying the full text exposition.
pub fn render_metrics(exposition: &str) -> String {
    let mut s = String::with_capacity(exposition.len() + 32);
    s.push_str("{\"ok\":\"metrics\",\"exposition\":");
    json::write_str(exposition, &mut s);
    s.push('}');
    s
}

/// The `shutdown` acknowledgement line.
pub const SHUTDOWN_RESPONSE: &str = "{\"ok\":\"shutdown\"}";

#[cfg(test)]
mod tests {
    use std::panic::catch_unwind;

    use unicon::numeric::rng::{Rng, XorShift64};

    use super::*;

    #[test]
    fn parses_every_verb() {
        assert!(matches!(
            parse_request(r#"{"register": {"ftwc": 4}}"#),
            Ok(Request::Register { ftwc: 4 })
        ));
        assert!(matches!(
            parse_request(r#"{"metrics": {}}"#),
            Ok(Request::Metrics)
        ));
        assert!(matches!(
            parse_request(r#"{"shutdown": {}}"#),
            Ok(Request::Shutdown)
        ));
        let q = match parse_request(
            r#"{"query": {"model": "00000000deadbeef", "t": 10, "objective": "min",
                "epsilon": 1e-9, "threads": 2,
                "budget": {"max_iters": 7, "timeout_ms": 250.5}}}"#,
        ) {
            Ok(Request::Query(q)) => q,
            _ => panic!("query did not parse"),
        };
        assert_eq!(q.model, 0xdead_beef);
        assert_eq!(q.t, 10.0);
        assert_eq!(q.objective, Objective::Minimize);
        assert_eq!(q.epsilon, 1e-9);
        assert_eq!(q.threads, Some(2));
        assert_eq!(q.max_iters, Some(7));
        assert_eq!(q.timeout, Some(Duration::from_secs_f64(250.5 / 1e3)));
    }

    #[test]
    fn query_defaults_are_max_1e6_and_daemon_threads() {
        let q = match parse_request(r#"{"query": {"model": "1", "t": 0}}"#) {
            Ok(Request::Query(q)) => q,
            _ => panic!("minimal query did not parse"),
        };
        assert_eq!(q.model, 1);
        assert_eq!(q.objective, Objective::Maximize);
        assert_eq!(q.epsilon, 1e-6);
        assert_eq!(q.threads, None);
        assert_eq!(q.max_iters, None);
        assert_eq!(q.timeout, None);
    }

    /// Every rejection is a typed record with a nonzero code, and the
    /// code separates malformed requests (2) from runtime failures (1).
    #[test]
    fn errors_are_typed_with_nonzero_codes() {
        let cases = [
            ("not json at all", "parse"),
            ("[1,2]", "usage"),
            (r#"{"register": {"ftwc": 4}, "metrics": {}}"#, "usage"),
            (r#"{"launch": {}}"#, "usage"),
            (r#"{"register": {}}"#, "usage"),
            (r#"{"register": {"ftwc": 0}}"#, "usage"),
            (r#"{"register": {"ftwc": 100000}}"#, "usage"),
            (r#"{"register": {"ftwc": 1.5}}"#, "usage"),
            (r#"{"query": {"t": 1}}"#, "usage"),
            (r#"{"query": {"model": "zz", "t": 1}}"#, "usage"),
            (r#"{"query": {"model": "1", "t": -1}}"#, "usage"),
            (
                r#"{"query": {"model": "1", "t": 1, "epsilon": 2}}"#,
                "usage",
            ),
            (
                r#"{"query": {"model": "1", "t": 1, "objective": "best"}}"#,
                "usage",
            ),
            (r#"{"query": {"model": "1", "t": 1, "budget": 3}}"#, "usage"),
            (
                r#"{"query": {"model": "1", "t": 1, "budget": {"timeout_ms": 0}}}"#,
                "usage",
            ),
            (
                r#"{"query": {"model": "1", "t": 1, "budget": {"timeout_ms": "soon"}}}"#,
                "usage",
            ),
        ];
        for (line, kind) in cases {
            let err = match parse_request(line) {
                Err(e) => e,
                Ok(_) => panic!("accepted {line:?}"),
            };
            assert_eq!(err.kind, kind, "line {line:?}");
            assert_ne!(err.code, 0, "line {line:?}");
            let rendered = err.to_json();
            let v = Value::parse(&rendered).expect("error record is valid JSON");
            let code = v
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_f64)
                .expect("code field");
            assert!(code != 0.0, "zero code in {rendered}");
        }
        assert_eq!(ProtoError::unknown_model(7).code, 1);
        assert_eq!(ProtoError::runtime("x").code, 1);
        assert_eq!(ProtoError::build_failed("x").code, 1);
        assert_eq!(ProtoError::line_too_long(1024).code, 2);
    }

    /// Only admission-control sheds are retriable; the flag is rendered
    /// on every error record so clients never have to guess.
    #[test]
    fn overloaded_is_the_only_retriable_error() {
        let shed = ProtoError::overloaded("at capacity");
        assert_eq!(shed.code, 4);
        assert!(shed.retriable);
        let v = Value::parse(&shed.to_json()).expect("overloaded record parses");
        assert_eq!(
            v.get("error").and_then(|e| e.get("retriable")),
            Some(&Value::Bool(true))
        );
        for e in [
            ProtoError::parse("x"),
            ProtoError::usage("x"),
            ProtoError::runtime("x"),
            ProtoError::unknown_model(1),
            ProtoError::line_too_long(64),
            ProtoError::build_failed("x"),
        ] {
            assert!(!e.retriable, "{} must not be retriable", e.kind);
            let v = Value::parse(&e.to_json()).expect("record parses");
            assert_eq!(
                v.get("error").and_then(|r| r.get("retriable")),
                Some(&Value::Bool(false))
            );
        }
    }

    /// Response renderers produce valid JSON with the formats the e2e
    /// harness compares bitwise against `unicon reach`.
    #[test]
    fn responses_are_valid_json_with_exact_float_forms() {
        let q = QueryRequest {
            model: 0xabc,
            t: 10.0,
            objective: Objective::Maximize,
            epsilon: 1e-6,
            threads: None,
            max_iters: None,
            timeout: None,
        };
        let line = render_query(&q, 0.15625, 0x1234, 58, true, 0, 4, 1.25);
        let v = Value::parse(&line).expect("query response parses");
        assert_eq!(v.get("ok").and_then(Value::as_str), Some("query"));
        assert_eq!(
            v.get("value").and_then(Value::as_f64).map(f64::to_bits),
            Some(0.15625f64.to_bits())
        );
        assert_eq!(
            v.get("checksum").and_then(Value::as_str),
            Some("0000000000001234")
        );
        assert_eq!(
            v.get("threads_requested").and_then(Value::as_f64),
            Some(0.0)
        );
        assert_eq!(
            v.get("threads_effective").and_then(Value::as_f64),
            Some(4.0)
        );

        let reg = render_register(0xfeed, 4, 820, 0, 2.5, false, true, 123456, &[0xdead], 12.0);
        let v = Value::parse(&reg).expect("register response parses");
        assert_eq!(
            v.get("model").and_then(Value::as_str),
            Some("000000000000feed")
        );
        assert_eq!(v.get("cached"), Some(&Value::Bool(false)));
        assert_eq!(v.get("rebuilt"), Some(&Value::Bool(true)));
        assert_eq!(
            v.get("resident_bytes").and_then(Value::as_f64),
            Some(123456.0)
        );
        match v.get("evicted") {
            Some(Value::Arr(fps)) => {
                assert_eq!(fps.len(), 1);
                assert_eq!(fps[0].as_str(), Some("000000000000dead"));
            }
            other => panic!("evicted must be an array, got {other:?}"),
        }

        let part = render_partial(&q, "max-iterations", 5, 58, 0.1, 0.9, 1, 1, 0.5);
        let v = Value::parse(&part).expect("partial response parses");
        assert_eq!(v.get("ok").and_then(Value::as_str), Some("partial"));
        assert_eq!(v.get("completed_steps").and_then(Value::as_f64), Some(5.0));

        let m = render_metrics("# HELP x y\nx 1\n");
        let v = Value::parse(&m).expect("metrics response parses");
        assert!(v
            .get("exposition")
            .and_then(Value::as_str)
            .expect("exposition field")
            .contains("# HELP"));

        Value::parse(SHUTDOWN_RESPONSE).expect("shutdown response parses");
    }

    /// Mutated request lines parse or get a typed error, never a panic.
    /// The seeds are every line of the checked-in serve session and of
    /// its golden responses. Each mutant flips bits, truncates, splices
    /// two seeds, or puts an overflowing, non-finite, out-of-range,
    /// nested or lone-surrogate token in place of a value: from just
    /// after a `:`, `[` or `,` (or the start) to the next `,`, `]` or `}`.
    #[test]
    fn mutated_requests_parse_or_fail_typed_never_panic() {
        const MUTANTS: usize = 2_000;
        const TOKENS: [&str; 5] = [
            "1e400",
            "NaN",
            "18446744073709551616",
            "[[[[",
            r#""\ud800""#,
        ];
        let seeds: Vec<&[u8]> = include_str!("../../tests/data/serve_session.jsonl")
            .lines()
            .chain(include_str!("../../tests/data/serve_golden.jsonl").lines())
            .map(str::as_bytes)
            .collect();
        let mut rng = XorShift64::seed_from_u64(0x5e_12e5_7000);
        let (mut parsed, mut rejected, mut panicked) = (0, 0, Vec::new());
        for _ in 0..MUTANTS {
            let mut b = seeds[rng.random_range(seeds.len())].to_vec();
            match rng.random_range(4) {
                0 => {
                    for _ in 0..1 + rng.random_range(3) {
                        let i = rng.random_range(b.len());
                        b[i] ^= 1 << rng.random_range(8);
                    }
                }
                1 => b.truncate(rng.random_range(b.len())),
                2 => {
                    let other = seeds[rng.random_range(seeds.len())];
                    b.truncate(rng.random_range(b.len()));
                    b.extend_from_slice(&other[rng.random_range(other.len())..]);
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
            let line = String::from_utf8_lossy(&b);
            match catch_unwind(|| parse_request(&line)) {
                Ok(Ok(_)) => parsed += 1,
                Ok(Err(_)) => rejected += 1,
                Err(_) => panicked.push(line.into_owned()),
            }
        }
        assert!(panicked.is_empty(), "mutants that panicked: {panicked:?}");
        assert!(
            parsed > 0 && rejected > 0,
            "{parsed} parsed, {rejected} rejected"
        );
    }
}
