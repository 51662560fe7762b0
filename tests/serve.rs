//! End-to-end protocol tests of `unicon serve`: scripted JSONL sessions
//! over stdin, concurrent sessions over a Unix socket, and bitwise
//! agreement with one-shot `unicon reach` on the same models.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use unicon::obs::json::Value;

fn unicon() -> Command {
    Command::new(env!("CARGO_BIN_EXE_unicon"))
}

/// Runs one stdin JSONL session to EOF and returns the response lines.
fn stdin_session(script: &str) -> Vec<String> {
    let mut child = unicon()
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(script.as_bytes())
        .expect("script written");
    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success(), "serve failed: {:?}", out.status);
    String::from_utf8(out.stdout)
        .expect("responses are UTF-8")
        .lines()
        .map(str::to_string)
        .collect()
}

fn parse(line: &str) -> Value {
    Value::parse(line).unwrap_or_else(|e| panic!("bad response line {line:?}: {e}"))
}

fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string field {key} in {v:?}"))
}

fn num_field(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("missing numeric field {key} in {v:?}"))
}

/// `(value bits, checksum)` pairs per time bound from a one-shot
/// `unicon reach --ftwc <n>` run — the golden the service must match.
fn reach_goldens(n: usize, bounds: &str, threads: usize) -> Vec<(u64, String)> {
    let out = unicon()
        .args([
            "reach",
            "--ftwc",
            &n.to_string(),
            "--time-bounds",
            bounds,
            "--threads",
            &threads.to_string(),
        ])
        .stderr(Stdio::null())
        .output()
        .expect("reach runs");
    assert!(out.status.success(), "reach failed: {:?}", out.status);
    let json =
        Value::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("reach emits valid JSON");
    let queries = match json.get("reach").and_then(|r| r.get("queries")) {
        Some(Value::Arr(items)) => items,
        other => panic!("reach JSON lacks queries: {other:?}"),
    };
    queries
        .iter()
        .map(|q| {
            (
                num_field(q, "value").to_bits(),
                str_field(q, "checksum").to_string(),
            )
        })
        .collect()
}

/// Register FTWC `n` in a fresh session and return the fingerprint.
fn register_line(n: usize) -> String {
    format!("{{\"register\": {{\"ftwc\": {n}}}}}\n")
}

#[test]
fn stdin_session_matches_reach_goldens_for_ftwc_n1() {
    let goldens = reach_goldens(1, "10,100", 1);

    let mut script = register_line(1);
    // The fingerprint is deterministic, but the script cannot know it
    // up front: register twice (the second must be a cache hit), then
    // query via the fingerprint echoed by the first response. To keep
    // the session scriptable, fetch the fingerprint in a tiny pre-pass.
    let pre = stdin_session(&register_line(1));
    let fp = str_field(&parse(&pre[0]), "model").to_string();

    script.push_str(&register_line(1));
    for t in ["10", "100"] {
        script.push_str(&format!(
            "{{\"query\": {{\"model\": \"{fp}\", \"t\": {t}}}}}\n"
        ));
    }
    let responses = stdin_session(&script);
    assert_eq!(responses.len(), 4, "one response per request");

    let first = parse(&responses[0]);
    assert_eq!(str_field(&first, "ok"), "register");
    assert_eq!(first.get("cached"), Some(&Value::Bool(false)));
    assert_eq!(str_field(&first, "model"), fp, "fingerprint is stable");

    let second = parse(&responses[1]);
    assert_eq!(
        second.get("cached"),
        Some(&Value::Bool(true)),
        "re-register hits"
    );

    for (resp, (value_bits, checksum)) in responses[2..].iter().zip(&goldens) {
        let v = parse(resp);
        assert_eq!(str_field(&v, "ok"), "query");
        assert_eq!(
            num_field(&v, "value").to_bits(),
            *value_bits,
            "serve value differs from unicon reach"
        );
        assert_eq!(
            str_field(&v, "checksum"),
            checksum,
            "serve checksum differs from unicon reach"
        );
        assert!(num_field(&v, "iterations") > 0.0);
        assert_eq!(num_field(&v, "threads_requested"), 0.0);
        assert!(num_field(&v, "threads_effective") >= 1.0);
    }
}

#[test]
fn malformed_requests_get_typed_errors_and_the_session_survives() {
    let pre = stdin_session(&register_line(1));
    let fp = str_field(&parse(&pre[0]), "model").to_string();

    let script = format!(
        "this is not json\n\
         {{\"launch\": {{}}}}\n\
         {{\"query\": {{\"model\": \"ffffffffffffffff\", \"t\": 1}}}}\n\
         {{\"query\": {{\"model\": \"{fp}\", \"t\": -1}}}}\n\
         {register_line}{{\"query\": {{\"model\": \"{fp}\", \"t\": 10}}}}\n",
        register_line = register_line(1),
    );
    let responses = stdin_session(&script);
    assert_eq!(responses.len(), 6);
    let expected_kinds = ["parse", "usage", "unknown-model", "usage"];
    for (resp, kind) in responses[..4].iter().zip(expected_kinds) {
        let v = parse(resp);
        let err = v
            .get("error")
            .unwrap_or_else(|| panic!("not an error: {resp}"));
        assert_eq!(str_field(err, "kind"), kind);
        assert!(num_field(err, "code") != 0.0, "error code must be nonzero");
    }
    // The session is still alive and fully functional afterwards.
    assert_eq!(str_field(&parse(&responses[4]), "ok"), "register");
    assert_eq!(str_field(&parse(&responses[5]), "ok"), "query");
}

/// A line nested past the JSON parser's depth cap (500 KB of `[`, under
/// the 1 MiB line cap) gets a typed `parse` error instead of overflowing
/// the stack, and the same session answers its next request.
#[test]
fn deeply_nested_line_gets_a_parse_error_and_the_session_survives() {
    let script = format!("{}\n{}", "[".repeat(500_000), register_line(1));
    let responses = stdin_session(&script);
    assert_eq!(responses.len(), 2);
    let v = parse(&responses[0]);
    let err = v
        .get("error")
        .unwrap_or_else(|| panic!("not an error: {}", responses[0]));
    assert_eq!(str_field(err, "kind"), "parse");
    assert!(str_field(err, "detail").contains("nesting"), "{err:?}");
    assert_eq!(str_field(&parse(&responses[1]), "ok"), "register");
}

/// Time bounds past the Fox–Glynn cap (`λ = E·t` above 2³²) get typed
/// runtime errors on the plain and the budgeted path — `t = 1e20` passes
/// the underflow floor, and at `t = 4e14` the weight window alone would
/// need gigabytes — and so does an ε below that floor; the session
/// answers its next query.
#[test]
fn time_bounds_past_the_weight_cap_get_typed_errors_and_the_session_survives() {
    let pre = stdin_session(&register_line(1));
    let fp = str_field(&parse(&pre[0]), "model").to_string();

    let query = |t: &str, budget: &str| {
        format!("{{\"query\": {{\"model\": \"{fp}\", \"t\": {t}{budget}}}}}\n")
    };
    let budget = r#", "budget": {"max_iters": 5}"#;
    let mut script = register_line(1);
    for t in ["1e308", "1e300", "1e20", "4e14"] {
        script += &query(t, "");
        script += &query(t, budget);
    }
    // An ε below the Fox–Glynn certifiable floor gets no weights either,
    // plain or budgeted.
    let tiny = r#", "epsilon": 1e-17"#;
    script += &query("1000", tiny);
    script += &query(
        "1000",
        &format!(r#"{tiny}, "budget": {{"max_iters": 100000}}"#),
    );
    script += &query("10", "");
    let responses = stdin_session(&script);
    assert_eq!(responses.len(), 12);
    for (i, resp) in responses[1..11].iter().enumerate() {
        let v = parse(resp);
        let err = v
            .get("error")
            .unwrap_or_else(|| panic!("not an error: {resp}"));
        assert_eq!(str_field(err, "kind"), "runtime", "{resp}");
        assert_eq!(num_field(err, "code"), 1.0, "{resp}");
        let needle = if i < 8 { "2^32" } else { "underflow" };
        assert!(str_field(err, "detail").contains(needle), "{resp}");
    }
    assert_eq!(str_field(&parse(&responses[11]), "ok"), "query");
}

/// Whether `text` holds `len` or more consecutive ASCII digits.
fn has_digit_run(text: &str, len: usize) -> bool {
    text.as_bytes()
        .split(|b| !b.is_ascii_digit())
        .any(|run| run.len() >= len)
}

/// A `timeout_ms` past what a time span holds is a usage error naming
/// the field, extreme `t` and `epsilon` are printed in exponent form, and
/// the session answers its next line. A timeout whose deadline lies past
/// what the clock holds sets no deadline, and a drain grace past it
/// drains with none: the daemon acknowledges `shutdown` and exits 0.
#[test]
fn extreme_spans_and_floats_get_typed_errors_and_the_session_survives() {
    let pre = stdin_session(&register_line(1));
    let fp = str_field(&parse(&pre[0]), "model").to_string();
    let query = |fields: &str| format!("{{\"query\": {{\"model\": \"{fp}\", {fields}}}}}\n");
    let script = register_line(1)
        + &query(r#""t": 10, "budget": {"timeout_ms": 1e300}"#)
        + &query(r#""t": -1e300"#)
        + &query(r#""t": 10, "epsilon": 1e300"#)
        + &query(r#""t": 10, "budget": {"timeout_ms": 1e22}"#)
        + &query(r#""t": 10"#);
    let responses = stdin_session(&script);
    assert_eq!(responses.len(), 6);
    let fields = [
        "query.budget.timeout_ms 1e300",
        "query.t must be finite and non-negative, got -1e300",
        "query.epsilon must be in the open interval (0, 1), got 1e300",
    ];
    for (resp, field) in responses[1..4].iter().zip(fields) {
        let v = parse(resp);
        let err = v
            .get("error")
            .unwrap_or_else(|| panic!("not an error: {resp}"));
        assert_eq!(str_field(err, "kind"), "usage", "{resp}");
        assert_eq!(num_field(err, "code"), 2.0, "{resp}");
        assert!(str_field(err, "detail").contains(field), "{resp}");
        assert!(!has_digit_run(resp, 20), "{resp}");
    }
    for resp in &responses[4..] {
        assert_eq!(str_field(&parse(resp), "ok"), "query", "{resp}");
    }

    let mut child = unicon()
        .args(["serve", "--drain-grace", "1e19"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(b"{\"shutdown\": {}}\n")
        .expect("shutdown written");
    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success(), "serve failed: {:?}", out.status);
    let resp = String::from_utf8(out.stdout).expect("UTF-8");
    assert_eq!(str_field(&parse(resp.trim()), "ok"), "shutdown", "{resp}");
}

#[test]
fn exhausted_budget_answers_a_partial_record_bracketing_the_value() {
    let pre = stdin_session(&register_line(1));
    let fp = str_field(&parse(&pre[0]), "model").to_string();

    let script = format!(
        "{reg}{{\"query\": {{\"model\": \"{fp}\", \"t\": 100, \"budget\": {{\"max_iters\": 5}}}}}}\n\
         {{\"query\": {{\"model\": \"{fp}\", \"t\": 100}}}}\n\
         {{\"query\": {{\"model\": \"{fp}\", \"t\": 100, \"budget\": {{\"max_iters\": 1000000}}}}}}\n",
        reg = register_line(1),
    );
    let responses = stdin_session(&script);
    assert_eq!(responses.len(), 4);

    let partial = parse(&responses[1]);
    assert_eq!(str_field(&partial, "ok"), "partial");
    assert_eq!(str_field(&partial, "stopped"), "max-iterations");
    assert_eq!(num_field(&partial, "completed_steps"), 5.0);
    let total = num_field(&partial, "total_steps");
    assert!(total > 5.0, "t=100 takes more than 5 steps, got {total}");

    let full = parse(&responses[2]);
    let value = num_field(&full, "value");
    assert!(
        num_field(&partial, "lower") <= value && value <= num_field(&partial, "upper"),
        "partial bounds do not bracket the true value"
    );

    // A budget generous enough to finish returns the plain-query bits.
    let generous = parse(&responses[3]);
    assert_eq!(str_field(&generous, "ok"), "query");
    assert_eq!(
        num_field(&generous, "value").to_bits(),
        value.to_bits(),
        "budgeted-but-complete differs from unbudgeted"
    );
    assert_eq!(
        str_field(&generous, "checksum"),
        str_field(&full, "checksum")
    );
}

// ---------------------------------------------------------------------------
// Socket mode: concurrency determinism
// ---------------------------------------------------------------------------

/// A serve daemon on a Unix socket, killed on drop.
struct Daemon {
    child: Child,
    path: std::path::PathBuf,
}

impl Daemon {
    fn spawn(name: &str) -> Self {
        Self::spawn_with(name, &[])
    }

    /// Spawns a daemon with extra serve flags (chaos knobs: tiny cache
    /// budgets, short idle timeouts, seeded fault plans, …).
    fn spawn_with(name: &str, extra: &[&str]) -> Self {
        let mut path = std::env::temp_dir();
        path.push(format!("unicon_serve_{name}_{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let child = unicon()
            .args(["serve", "--socket"])
            .arg(&path)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("serve spawns");
        let daemon = Self { child, path };
        daemon.wait_ready();
        daemon
    }

    fn wait_ready(&self) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if UnixStream::connect(&self.path).is_ok() {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!(
            "serve socket {} never became connectable",
            self.path.display()
        );
    }

    /// One session: write all lines, read one response per line.
    fn session(&self, lines: &[String]) -> Vec<String> {
        let mut stream = UnixStream::connect(&self.path).expect("connect");
        for l in lines {
            stream.write_all(l.as_bytes()).expect("request written");
            stream.write_all(b"\n").expect("newline written");
        }
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut responses = Vec::new();
        for line in BufReader::new(stream).lines() {
            responses.push(line.expect("response line"));
        }
        assert_eq!(responses.len(), lines.len(), "one response per request");
        responses
    }

    fn shutdown(mut self) {
        if let Ok(mut s) = UnixStream::connect(&self.path) {
            let _ = s.write_all(b"{\"shutdown\": {}}\n");
            let mut ack = String::new();
            let _ = s.read_to_string(&mut ack);
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if self.child.try_wait().expect("try_wait").is_some() {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("serve did not exit after shutdown");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.path);
    }
}

fn query_line(fp: &str, t: f64, threads: Option<usize>) -> String {
    match threads {
        None => format!("{{\"query\": {{\"model\": \"{fp}\", \"t\": {t}}}}}"),
        Some(n) => {
            format!("{{\"query\": {{\"model\": \"{fp}\", \"t\": {t}, \"threads\": {n}}}}}")
        }
    }
}

fn value_and_checksum(resp: &str) -> (u64, String) {
    let v = parse(resp);
    assert_eq!(str_field(&v, "ok"), "query", "unexpected response {resp}");
    (
        num_field(&v, "value").to_bits(),
        str_field(&v, "checksum").to_string(),
    )
}

/// Whether `line` is a well-formed exposition line: a `# HELP ` or
/// `# TYPE ` header, or a `name[{labels}] value` sample whose value is a
/// finite float.
fn exposition_line_ok(line: &str) -> bool {
    if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
        return true;
    }
    let Some((series, value)) = line.rsplit_once(' ') else {
        return false;
    };
    let name = match series.split_once('{') {
        Some((name, labels)) if labels.strip_suffix('}').is_some_and(|l| !l.contains('}')) => name,
        Some(_) => return false,
        None => series,
    };
    let name_char = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == ':';
    name.starts_with(|c: char| name_char(c) && !c.is_ascii_digit())
        && name.chars().all(name_char)
        && value.parse::<f64>().is_ok_and(f64::is_finite)
}

/// The same 20-query batch issued (a) serially, (b) interleaved across
/// two concurrent sessions, and (c) at `--threads` 1 vs 4 produces
/// bitwise-identical values and chunked-Neumaier checksums, and the
/// registry builds the model exactly once. The `metrics` scrape that
/// shows it is a well-formed exposition.
#[test]
fn concurrent_sessions_and_thread_counts_are_bitwise_identical() {
    let daemon = Daemon::spawn("determinism");
    let reg = daemon.session(&[register_line(1).trim().to_string()]);
    let fp = str_field(&parse(&reg[0]), "model").to_string();

    let bounds: Vec<f64> = (1..=20).map(|i| i as f64 * 10.0).collect();
    let batch: Vec<String> = bounds.iter().map(|&t| query_line(&fp, t, None)).collect();

    // (a) serial baseline, one session.
    let serial: Vec<(u64, String)> = daemon
        .session(&batch)
        .iter()
        .map(|r| value_and_checksum(r))
        .collect();

    // (b) the same batch in two concurrent sessions.
    let (left, right) = std::thread::scope(|scope| {
        let a = scope.spawn(|| daemon.session(&batch));
        let b = scope.spawn(|| daemon.session(&batch));
        (a.join().expect("session a"), b.join().expect("session b"))
    });
    for responses in [&left, &right] {
        for (resp, expected) in responses.iter().zip(&serial) {
            assert_eq!(
                &value_and_checksum(resp),
                expected,
                "concurrent session diverged from serial baseline"
            );
        }
    }

    // (c) explicit thread counts 1 and 4.
    for threads in [1, 4] {
        let batch_t: Vec<String> = bounds
            .iter()
            .map(|&t| query_line(&fp, t, Some(threads)))
            .collect();
        for (resp, expected) in daemon.session(&batch_t).iter().zip(&serial) {
            let v = parse(resp);
            assert_eq!(num_field(&v, "threads_requested"), threads as f64);
            assert_eq!(
                &value_and_checksum(resp),
                expected,
                "threads={threads} diverged from baseline"
            );
        }
    }

    // Registering from several sessions never rebuilds: exactly one
    // miss (the build), every later register a hit.
    let rereg = daemon.session(&vec![register_line(1).trim().to_string(); 3]);
    for r in &rereg {
        assert_eq!(parse(r).get("cached"), Some(&Value::Bool(true)));
    }
    let metrics = daemon.session(&["{\"metrics\": {}}".to_string()]);
    let exposition = str_field(&parse(&metrics[0]), "exposition").to_string();
    assert!(
        exposition.contains("unicon_serve_registry_misses_total 1"),
        "model was built more than once:\n{exposition}"
    );
    assert!(
        exposition.contains("unicon_serve_registry_hits_total 3"),
        "registry hits not counted:\n{exposition}"
    );
    for line in exposition.lines() {
        assert!(exposition_line_ok(line), "bad exposition line: {line:?}");
    }

    daemon.shutdown();
}

/// Acceptance gate: a 100-query session against a registered FTWC N=32
/// performs exactly one build and returns values bitwise-identical to
/// one-shot `unicon reach`, under both serial and concurrent
/// submission. Release-only: the debug-build uniformity audits make
/// N=32 construction far too slow for the default test profile
/// (ci.sh runs this via `cargo test --release`).
#[cfg(not(debug_assertions))]
#[test]
fn acceptance_100_queries_against_ftwc_n32_match_one_shot_reach() {
    let bounds: Vec<f64> = (1..=100).map(|i| i as f64 * 5.0).collect();
    let bounds_spec = bounds
        .iter()
        .map(|t| format!("{t}"))
        .collect::<Vec<_>>()
        .join(",");
    let goldens = reach_goldens(32, &bounds_spec, 0);
    assert_eq!(goldens.len(), 100);

    let daemon = Daemon::spawn("acceptance32");
    let reg = daemon.session(&[register_line(32).trim().to_string()]);
    let fp = str_field(&parse(&reg[0]), "model").to_string();
    let batch: Vec<String> = bounds.iter().map(|&t| query_line(&fp, t, None)).collect();

    // Serial submission.
    for (resp, expected) in daemon.session(&batch).iter().zip(&goldens) {
        assert_eq!(
            &value_and_checksum(resp),
            expected,
            "serial serve answer differs from unicon reach"
        );
    }

    // Concurrent submission: the full batch from two sessions at once.
    let (left, right) = std::thread::scope(|scope| {
        let a = scope.spawn(|| daemon.session(&batch));
        let b = scope.spawn(|| daemon.session(&batch));
        (a.join().expect("session a"), b.join().expect("session b"))
    });
    for responses in [&left, &right] {
        for (resp, expected) in responses.iter().zip(&goldens) {
            assert_eq!(
                &value_and_checksum(resp),
                expected,
                "concurrent serve answer differs from unicon reach"
            );
        }
    }

    // Exactly one build across every session.
    let metrics = daemon.session(&["{\"metrics\": {}}".to_string()]);
    let exposition = str_field(&parse(&metrics[0]), "exposition").to_string();
    assert!(
        exposition.contains("unicon_serve_registry_misses_total 1"),
        "FTWC N=32 was built more than once:\n{exposition}"
    );

    daemon.shutdown();
}

// ---------------------------------------------------------------------------
// Chaos harness: admission control, deadlines, eviction, and drain
// ---------------------------------------------------------------------------

impl Daemon {
    /// Polls a one-shot metrics session until the daemon answers. A shed
    /// (`overloaded`) response is retried, exactly as its `retriable`
    /// flag advertises.
    fn metrics_exposition(&self) -> String {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let mut stream = UnixStream::connect(&self.path).expect("connect for metrics");
            stream
                .write_all(b"{\"metrics\": {}}\n")
                .expect("metrics request");
            stream
                .shutdown(std::net::Shutdown::Write)
                .expect("half-close");
            let mut text = String::new();
            BufReader::new(stream)
                .read_to_string(&mut text)
                .expect("metrics response");
            let first = text.lines().next().unwrap_or("").trim().to_string();
            if !first.is_empty() {
                let v = parse(&first);
                if let Some(e) = v.get("exposition").and_then(Value::as_str) {
                    return e.to_string();
                }
            }
            assert!(
                Instant::now() < deadline,
                "metrics never answered, last response: {text:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Waits for the daemon to exit on its own and asserts a clean
    /// drain: exit status 0 and the socket file removed by the server.
    fn wait_success(mut self) {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                assert!(status.success(), "serve exited dirty: {status:?}");
                assert!(
                    !self.path.exists(),
                    "drained serve left its socket file behind"
                );
                return;
            }
            assert!(Instant::now() < deadline, "serve never exited after drain");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

/// A client that fires a query and slams the connection shut without
/// reading the answer leaks nothing: the worker thread finishes, its
/// response write fails, and every gauge it held returns to rest.
#[test]
fn chaos_client_disconnect_mid_query_releases_session_and_gauges() {
    let daemon = Daemon::spawn("disconnect");
    let reg = daemon.session(&[register_line(1).trim().to_string()]);
    let fp = str_field(&parse(&reg[0]), "model").to_string();

    {
        let mut stream = UnixStream::connect(&daemon.path).expect("connect");
        stream
            .write_all(query_line(&fp, 1000.0, None).as_bytes())
            .expect("request");
        stream.write_all(b"\n").expect("newline");
        // Drop without reading: the peer's response write hits a dead
        // socket.
    }

    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let exposition = daemon.metrics_exposition();
        // The polling metrics session is the only one left alive.
        if exposition.contains("unicon_serve_active_queries 0e0")
            && exposition.contains("unicon_serve_active_sessions 1e0")
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "gauges never drained after disconnect:\n{exposition}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The daemon still does real work afterwards, bitwise-identically.
    let golden = reach_goldens(1, "10", 1);
    let resp = daemon.session(&[query_line(&fp, 10.0, None)]);
    assert_eq!(value_and_checksum(&resp[0]), golden[0]);
    daemon.shutdown();
}

/// `shutdown` issued while a 10-query batch is in flight: every query
/// still gets a typed answer (complete, or a deadline partial if the
/// grace window trips), the session sees EOF, and the daemon exits 0.
#[test]
fn chaos_shutdown_with_in_flight_queries_drains_cleanly() {
    let bounds: Vec<f64> = (1..=10).map(|i| i as f64 * 10.0).collect();
    let bounds_spec = bounds
        .iter()
        .map(|t| format!("{t}"))
        .collect::<Vec<_>>()
        .join(",");
    let goldens = reach_goldens(1, &bounds_spec, 1);

    let daemon = Daemon::spawn("drain");
    let reg = daemon.session(&[register_line(1).trim().to_string()]);
    let fp = str_field(&parse(&reg[0]), "model").to_string();
    let batch: Vec<String> = bounds.iter().map(|&t| query_line(&fp, t, None)).collect();

    let responses = std::thread::scope(|scope| {
        let worker = scope.spawn(|| daemon.session(&batch));
        // Let the batch enter the pipeline, then pull the plug.
        std::thread::sleep(Duration::from_millis(50));
        if let Ok(mut s) = UnixStream::connect(&daemon.path) {
            let _ = s.write_all(b"{\"shutdown\": {}}\n");
            let mut ack = String::new();
            let _ = s.read_to_string(&mut ack);
        }
        worker.join().expect("in-flight session")
    });

    assert_eq!(
        responses.len(),
        batch.len(),
        "a drain must not drop answers"
    );
    for (resp, expected) in responses.iter().zip(&goldens) {
        let v = parse(resp);
        let ok = str_field(&v, "ok");
        assert!(
            ok == "query" || ok == "partial",
            "drain produced a non-answer: {resp}"
        );
        if ok == "query" {
            assert_eq!(
                &value_and_checksum(resp),
                expected,
                "drain changed an answer's bits"
            );
        } else {
            assert_eq!(str_field(&v, "stopped"), "deadline");
        }
    }
    daemon.wait_success();
}

/// SIGTERM is a graceful drain, not a kill: in-flight work finishes and
/// the process exits 0 with its socket file removed.
#[test]
fn chaos_sigterm_drains_and_exits_zero() {
    let golden = reach_goldens(1, "10", 1);
    let daemon = Daemon::spawn("sigterm");
    let reg = daemon.session(&[register_line(1).trim().to_string()]);
    let fp = str_field(&parse(&reg[0]), "model").to_string();
    let resp = daemon.session(&[query_line(&fp, 10.0, None)]);
    assert_eq!(value_and_checksum(&resp[0]), golden[0]);

    let status = Command::new("kill")
        .args(["-TERM", &daemon.child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(status.success(), "kill -TERM failed");
    daemon.wait_success();
}

/// With `--max-sessions 1` a second connection is shed with exactly one
/// typed `overloaded` line (retriable), and the slot is reusable the
/// moment the first session ends.
#[test]
fn chaos_session_pool_exhaustion_sheds_with_retriable_overloaded() {
    let daemon = Daemon::spawn_with("maxsessions", &["--max-sessions", "1"]);

    // Occupy the single slot and prove the session is admitted by
    // round-tripping a request on it. The readiness probe may still be
    // draining out of the slot, so retry until admitted.
    let deadline = Instant::now() + Duration::from_secs(30);
    let reader = loop {
        let mut hold = UnixStream::connect(&daemon.path).expect("first session");
        hold.write_all(b"{\"metrics\": {}}\n").expect("request");
        let mut reader = BufReader::new(hold);
        let mut line = String::new();
        reader.read_line(&mut line).expect("admitted response");
        if parse(line.trim()).get("exposition").is_some() {
            break reader;
        }
        assert!(
            Instant::now() < deadline,
            "single-session slot never freed: {line:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };

    // The pool is full: the next connection gets one overloaded line
    // and EOF.
    let rejected = UnixStream::connect(&daemon.path).expect("second connect");
    let mut text = String::new();
    BufReader::new(rejected)
        .read_to_string(&mut text)
        .expect("rejection read");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines.len(),
        1,
        "shed connection got more than one line: {text:?}"
    );
    let v = parse(lines[0]);
    let err = v
        .get("error")
        .unwrap_or_else(|| panic!("not an error: {text}"));
    assert_eq!(str_field(err, "kind"), "overloaded");
    assert!(num_field(err, "code") != 0.0);
    assert_eq!(
        err.get("retriable"),
        Some(&Value::Bool(true)),
        "shed sessions must be advertised as retriable"
    );

    // Release the slot; the daemon admits new sessions again and the
    // rejection was counted.
    drop(reader);
    let exposition = daemon.metrics_exposition();
    let rejected_count = exposition
        .lines()
        .find_map(|l| l.strip_prefix("unicon_serve_sessions_rejected_total "))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or_else(|| panic!("rejection counter not exposed:\n{exposition}"));
    assert!(rejected_count >= 1, "rejection not counted:\n{exposition}");
    daemon.shutdown();
}

/// A request line over `--max-line-bytes` gets a typed `line-too-long`
/// error, the offending session is closed, and the daemon keeps serving
/// fresh sessions.
#[test]
fn chaos_oversized_line_gets_typed_error_and_daemon_survives() {
    let daemon = Daemon::spawn_with("maxline", &["--max-line-bytes", "1024"]);

    let mut stream = UnixStream::connect(&daemon.path).expect("connect");
    let mut big = "x".repeat(4096);
    big.push('\n');
    stream.write_all(big.as_bytes()).expect("oversized line");
    // Anything after the oversized line is never answered: the session
    // ends. The writes below may race the server's close; that is fine.
    let _ = stream.write_all(b"{\"metrics\": {}}\n");
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut text = String::new();
    BufReader::new(stream)
        .read_to_string(&mut text)
        .expect("error line read");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines.len(),
        1,
        "session must end after the cap trips: {text:?}"
    );
    let v = parse(lines[0]);
    let err = v
        .get("error")
        .unwrap_or_else(|| panic!("not an error: {text}"));
    assert_eq!(str_field(err, "kind"), "line-too-long");
    assert!(num_field(err, "code") != 0.0);

    // Fresh sessions are unaffected.
    let golden = reach_goldens(1, "10", 1);
    let reg = daemon.session(&[register_line(1).trim().to_string()]);
    let fp = str_field(&parse(&reg[0]), "model").to_string();
    let resp = daemon.session(&[query_line(&fp, 10.0, None)]);
    assert_eq!(value_and_checksum(&resp[0]), golden[0]);
    let exposition = daemon.metrics_exposition();
    assert!(
        exposition.contains("unicon_serve_lines_too_long_total 1"),
        "cap trip not counted:\n{exposition}"
    );
    daemon.shutdown();
}

/// A client that sends an unterminated fragment and stalls is cut loose
/// by `--idle-timeout` instead of pinning a session thread forever.
#[test]
fn chaos_slow_client_is_released_by_idle_timeout() {
    let daemon = Daemon::spawn_with("idle", &["--idle-timeout", "1"]);

    let mut stream = UnixStream::connect(&daemon.path).expect("connect");
    stream.write_all(b"{\"metr").expect("fragment written");
    let start = Instant::now();
    let mut text = String::new();
    BufReader::new(stream)
        .read_to_string(&mut text)
        .expect("server closes the stalled session");
    assert!(
        text.is_empty(),
        "an unterminated fragment must not be answered: {text:?}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(20),
        "idle timeout did not fire in time"
    );

    let exposition = daemon.metrics_exposition();
    assert!(
        exposition.contains("unicon_serve_idle_timeouts_total 1"),
        "idle timeout not counted:\n{exposition}"
    );
    daemon.shutdown();
}

/// Eviction + rebuild under a 1-byte cache budget is invisible to the
/// numbers: every rebuilt model keeps its fingerprint and answers
/// bitwise-identically, pinned entries are never evicted mid-query, and
/// evicted fingerprints answer `unknown-model` until re-registered.
#[test]
fn chaos_eviction_and_rebuild_yield_bitwise_identical_checksums() {
    let goldens = reach_goldens(1, "10,50", 1);
    let daemon = Daemon::spawn_with("evict", &["--cache-budget", "1"]);
    let reg = daemon.session(&[register_line(1).trim().to_string()]);
    let fp1 = str_field(&parse(&reg[0]), "model").to_string();
    let queries = vec![query_line(&fp1, 10.0, None), query_line(&fp1, 50.0, None)];

    let baseline: Vec<(u64, String)> = daemon
        .session(&queries)
        .iter()
        .map(|r| value_and_checksum(r))
        .collect();
    assert_eq!(baseline, goldens, "pre-eviction serve differs from reach");

    for round in 0..3 {
        // Registering a second model blows the budget: the idle n=1
        // entry is the LRU victim.
        let r2 = daemon.session(&[register_line(2).trim().to_string()]);
        let v2 = parse(&r2[0]);
        assert_eq!(str_field(&v2, "ok"), "register");
        match v2.get("evicted") {
            Some(Value::Arr(items)) => assert!(
                items.iter().any(|e| e.as_str() == Some(fp1.as_str())),
                "round {round}: n=1 was not evicted: {items:?}"
            ),
            other => panic!("round {round}: register lacks evicted list: {other:?}"),
        }

        // The evicted fingerprint is typed away, not mis-served.
        let gone = daemon.session(&[query_line(&fp1, 10.0, None)]);
        let gv = parse(&gone[0]);
        let err = gv
            .get("error")
            .unwrap_or_else(|| panic!("evicted model still answered: {}", gone[0]));
        assert_eq!(str_field(err, "kind"), "unknown-model");

        // Rebuild: same fingerprint, provenance marked, and bitwise
        // identical answers — including from two concurrent sessions.
        let rereg = daemon.session(&[register_line(1).trim().to_string()]);
        let vr = parse(&rereg[0]);
        assert_eq!(str_field(&vr, "ok"), "register");
        assert_eq!(
            str_field(&vr, "model"),
            fp1,
            "round {round}: rebuild changed the fingerprint"
        );
        assert_eq!(vr.get("rebuilt"), Some(&Value::Bool(true)));

        let (left, right) = std::thread::scope(|scope| {
            let a = scope.spawn(|| daemon.session(&queries));
            let b = scope.spawn(|| daemon.session(&queries));
            (a.join().expect("session a"), b.join().expect("session b"))
        });
        for responses in [&left, &right] {
            let got: Vec<(u64, String)> = responses.iter().map(|r| value_and_checksum(r)).collect();
            assert_eq!(got, baseline, "round {round}: rebuild changed bits");
        }
    }

    // Two evictions per round: n=1 out when n=2 arrives, n=2 out when
    // n=1 is rebuilt.
    let exposition = daemon.metrics_exposition();
    assert!(
        exposition.contains("unicon_serve_cache_evictions_total 6"),
        "eviction count drifted:\n{exposition}"
    );
    daemon.shutdown();
}

/// Seeded chaos: `--fault-build-panic 2` makes the FTWC n=2 build panic
/// inside the daemon. The session gets a typed `build-failed` error, the
/// size is quarantined (no rebuild storm), and every other model keeps
/// answering bitwise-identically to one-shot reach.
#[cfg(feature = "fault-inject")]
#[test]
fn chaos_build_panic_is_typed_quarantined_and_isolated() {
    let golden = reach_goldens(1, "10", 1);
    let daemon = Daemon::spawn_with("buildpanic", &["--fault-build-panic", "2"]);

    let r = daemon.session(&[register_line(2).trim().to_string()]);
    let v = parse(&r[0]);
    let err = v
        .get("error")
        .unwrap_or_else(|| panic!("seeded build panic was not reported: {}", r[0]));
    assert_eq!(str_field(err, "kind"), "build-failed");
    assert!(num_field(err, "code") != 0.0);
    assert_eq!(err.get("retriable"), Some(&Value::Bool(false)));

    // Quarantined: the failing build is not retried.
    let r = daemon.session(&[register_line(2).trim().to_string()]);
    let v = parse(&r[0]);
    let err = v
        .get("error")
        .unwrap_or_else(|| panic!("quarantine did not hold: {}", r[0]));
    assert_eq!(str_field(err, "kind"), "build-failed");

    // The blast radius is one model size; the rest of the fleet works.
    let reg = daemon.session(&[register_line(1).trim().to_string()]);
    let fp = str_field(&parse(&reg[0]), "model").to_string();
    let resp = daemon.session(&[query_line(&fp, 10.0, None)]);
    assert_eq!(value_and_checksum(&resp[0]), golden[0]);

    let exposition = daemon.metrics_exposition();
    assert!(
        exposition.contains("unicon_serve_build_failures_total 1"),
        "quarantine must not re-run the failing build:\n{exposition}"
    );
    daemon.shutdown();
}

/// Seeded chaos: `--fault-evict-stall` holds the eviction pass open
/// while queries race it. No answer is ever wrong: each response is
/// either the bitwise-golden value or a typed `unknown-model` (the
/// entry was evicted between requests), and a re-register restores
/// golden answers.
#[cfg(feature = "fault-inject")]
#[test]
fn chaos_eviction_stall_race_never_corrupts_answers() {
    let golden = reach_goldens(1, "200", 1);
    let daemon = Daemon::spawn_with(
        "evictstall",
        &["--cache-budget", "1", "--fault-evict-stall", "300"],
    );
    let reg = daemon.session(&[register_line(1).trim().to_string()]);
    let fp1 = str_field(&parse(&reg[0]), "model").to_string();
    let resp = daemon.session(&[query_line(&fp1, 200.0, None)]);
    assert_eq!(value_and_checksum(&resp[0]), golden[0]);

    // Query n=1 from one session while a register of n=2 (and its
    // stalled eviction pass) runs in another.
    let batch: Vec<String> = (0..5).map(|_| query_line(&fp1, 200.0, None)).collect();
    let responses = std::thread::scope(|scope| {
        let q = scope.spawn(|| daemon.session(&batch));
        let r2 = daemon.session(&[register_line(2).trim().to_string()]);
        assert_eq!(str_field(&parse(&r2[0]), "ok"), "register");
        q.join().expect("racing query session")
    });
    for resp in &responses {
        let v = parse(resp);
        if let Some(err) = v.get("error") {
            assert_eq!(
                str_field(err, "kind"),
                "unknown-model",
                "race produced a non-eviction error: {resp}"
            );
        } else {
            assert_eq!(
                &value_and_checksum(resp),
                &golden[0],
                "race corrupted an answer"
            );
        }
    }

    // After the dust settles, a re-register restores golden answers.
    let rereg = daemon.session(&[register_line(1).trim().to_string()]);
    assert_eq!(str_field(&parse(&rereg[0]), "model"), fp1);
    let resp = daemon.session(&[query_line(&fp1, 200.0, None)]);
    assert_eq!(value_and_checksum(&resp[0]), golden[0]);
    daemon.shutdown();
}
