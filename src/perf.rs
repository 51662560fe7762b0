//! Performance bookkeeping for `unicon bench`: BENCH_reach.json
//! composition, schema-versioned history snapshots, and the regression
//! diff that gates CI.
//!
//! Everything here consumes the JSON payloads `unicon reach` already
//! writes (parsed with the in-tree [`unicon::obs::json`] parser, so the
//! shape assumptions are tested against the real renderer) and produces
//! plain strings; the CLI layer owns all file I/O.

use std::fmt::Write as _;

use unicon::obs::json::{self, Value};

/// History line format version. Bump when a field changes meaning;
/// `diff` refuses to compare across schema versions. Version 2 added the
/// machine, so a version-1 line is never a baseline.
pub const HISTORY_SCHEMA: u64 = 2;

/// The machine a snapshot was taken on, the fingerprint `benchmark/`
/// records too: the first `model name` of `/proc/cpuinfo` (`unknown`
/// where there is none) and the available parallelism.
pub struct Machine {
    /// The CPU's `model name`, or `unknown`.
    pub cpu: String,
    /// `std::thread::available_parallelism`, or 1 where it is unknown.
    pub parallelism: usize,
}

impl Machine {
    /// The machine this process runs on.
    pub fn this() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            cpu,
            parallelism: std::thread::available_parallelism().map_or(1, usize::from),
        }
    }
}

fn field<'v>(doc: &'v Value, path: &[&str]) -> Result<&'v Value, String> {
    let mut v = doc;
    for key in path {
        v = v
            .get(key)
            .ok_or_else(|| format!("missing field '{}'", path.join(".")))?;
    }
    Ok(v)
}

fn num(doc: &Value, path: &[&str]) -> Result<f64, String> {
    field(doc, path)?
        .as_f64()
        .ok_or_else(|| format!("field '{}' is not a number", path.join(".")))
}

fn string(doc: &Value, path: &[&str]) -> Result<String, String> {
    Ok(field(doc, path)?
        .as_str()
        .ok_or_else(|| format!("field '{}' is not a string", path.join(".")))?
        .to_owned())
}

/// The per-run facts `speedup` and `history` both need, pulled out of
/// one `unicon reach --json` payload.
struct RunFacts {
    threads_requested: u64,
    threads_effective: u64,
    iterate_ms: f64,
    bounds: Vec<f64>,
}

fn run_facts(doc: &Value) -> Result<RunFacts, String> {
    let queries = match field(doc, &["reach", "queries"])? {
        Value::Arr(items) => items,
        _ => return Err("field 'reach.queries' is not an array".into()),
    };
    let bounds = queries
        .iter()
        .map(|q| num(q, &["t"]))
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(RunFacts {
        threads_requested: num(doc, &["reach", "threads_requested"])? as u64,
        threads_effective: num(doc, &["reach", "threads_effective"])? as u64,
        iterate_ms: num(doc, &["reach", "iterate_ms"])?,
        bounds,
    })
}

fn write_bounds(bounds: &[f64], out: &mut String) {
    out.push('[');
    for (i, b) in bounds.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_f64(*b, out);
    }
    out.push(']');
}

/// Composes `BENCH_reach.json` from the serial and parallel `unicon
/// reach --json` payloads.
///
/// The speedup key is derived from the **requested** thread counts —
/// the experiment the benchmark was asked to run — so it stays
/// `speedup_threads4_over_threads1` even on a clamped single-CPU
/// runner. A clamp (any run's effective count below its requested one)
/// is called out in the explicit `clamped` field instead of silently
/// renaming the key to the nonsensical `speedup_threads1_over_threads1`.
///
/// # Errors
///
/// A message naming the first structural problem: unparseable input,
/// a missing or mistyped field, mismatched time bounds, or a
/// non-positive iterate time (the ratio would be meaningless).
pub fn compose_speedup(serial_json: &str, parallel_json: &str) -> Result<String, String> {
    let serial = Value::parse(serial_json).map_err(|e| format!("serial run: {e}"))?;
    let parallel = Value::parse(parallel_json).map_err(|e| format!("parallel run: {e}"))?;
    let s = run_facts(&serial).map_err(|e| format!("serial run: {e}"))?;
    let p = run_facts(&parallel).map_err(|e| format!("parallel run: {e}"))?;
    if s.bounds != p.bounds {
        return Err(format!(
            "time bounds differ between the runs ({:?} vs {:?})",
            s.bounds, p.bounds
        ));
    }
    if s.iterate_ms <= 0.0 || p.iterate_ms <= 0.0 {
        return Err("iterate_ms must be positive in both runs".into());
    }
    let clamped =
        s.threads_effective < s.threads_requested || p.threads_effective < p.threads_requested;
    let speedup = s.iterate_ms / p.iterate_ms;
    let mut out = String::from("{\"benchmark\":\"reach_determinism_and_speedup\",\"bounds\":");
    write_bounds(&s.bounds, &mut out);
    let _ = write!(
        out,
        ",\"speedup_threads{}_over_threads{}\":",
        p.threads_requested, s.threads_requested
    );
    json::write_f64(speedup, &mut out);
    let _ = write!(
        out,
        ",\"threads_requested\":[{},{}],\"threads_effective\":[{},{}],\"clamped\":{clamped},",
        s.threads_requested, p.threads_requested, s.threads_effective, p.threads_effective
    );
    let _ = write!(
        out,
        "\"threads{}\":{},\"threads{}\":{}}}",
        s.threads_requested,
        serial_json.trim(),
        p.threads_requested,
        parallel_json.trim()
    );
    Ok(out)
}

/// Renders one history snapshot (a single JSON line) from a `unicon
/// reach --json` payload.
///
/// The snapshot carries the full **compatibility key** — schema, the
/// `machine` it ran on, kind, kernel, effective thread count, instance
/// size and time bounds — so [`diff_history`] can refuse to compare runs
/// of different experiments or machines, plus the tracked metrics.
/// `scale` multiplies the timing metrics; it exists so CI can inject a
/// synthetic regression and prove the gate fires (1.0 for real
/// snapshots).
///
/// # Errors
///
/// A message naming the unparseable or missing field.
pub fn snapshot_from_reach(
    reach_json: &str,
    rev: &str,
    scale: f64,
    machine: &Machine,
) -> Result<String, String> {
    let doc = Value::parse(reach_json).map_err(|e| format!("reach payload: {e}"))?;
    let facts = run_facts(&doc)?;
    let kind = string(&doc, &["case_study"]).unwrap_or_else(|_| "model".into());
    let kernel = string(&doc, &["reach", "kernel"])?;
    let states = num(&doc, &["states"])? as u64;
    let iterations = num(&doc, &["reach", "total_iterations"])? as u64;
    let mut out = String::from("{\"schema\":");
    let _ = write!(out, "{HISTORY_SCHEMA},\"rev\":");
    json::write_str(rev, &mut out);
    out.push_str(",\"machine\":{\"cpu\":");
    json::write_str(&machine.cpu, &mut out);
    let _ = write!(
        out,
        ",\"available_parallelism\":{}}},\"kind\":",
        machine.parallelism
    );
    json::write_str(&kind, &mut out);
    let _ = write!(out, ",\"kernel\":");
    json::write_str(&kernel, &mut out);
    let _ = write!(
        out,
        ",\"threads_requested\":{},\"threads_effective\":{},\"states\":{states},\"bounds\":",
        facts.threads_requested, facts.threads_effective
    );
    write_bounds(&facts.bounds, &mut out);
    let _ = write!(out, ",\"total_iterations\":{iterations},\"iterate_ms\":");
    json::write_f64(facts.iterate_ms * scale, &mut out);
    let _ = write!(out, ",\"kernel_ns_per_state\":");
    json::write_f64(
        num(&doc, &["reach", "kernel_ns_per_state"])? * scale,
        &mut out,
    );
    let _ = write!(out, ",\"precompute_ms\":");
    json::write_f64(num(&doc, &["reach", "precompute_ms"])?, &mut out);
    let _ = write!(out, ",\"weights_ms\":");
    json::write_f64(num(&doc, &["reach", "weights_ms"])?, &mut out);
    out.push('}');
    Ok(out)
}

/// What a [`diff_history`] run concluded.
pub struct DiffOutcome {
    /// `Some((older_rev, newer_rev, iterate_ratio))` when two
    /// compatible snapshots were found; `None` when the history is too
    /// short to compare (not a failure — a fresh repo has no baseline).
    pub compared: Option<(String, String, f64)>,
    /// The gate verdict: the newest snapshot regressed past the
    /// threshold relative to its baseline.
    pub regression: bool,
    /// Human-readable one-line summary for the CLI.
    pub message: String,
}

/// The compatibility key: two snapshots are comparable only when the
/// experiment is the same one on the same machine (schema, CPU, available
/// parallelism, kind, kernel, effective parallelism, instance size, time
/// bounds). A line of an older schema has no key, so it is never a
/// baseline.
fn compat_key(snap: &Value) -> Option<String> {
    if snap.get("schema")?.as_f64()? != HISTORY_SCHEMA as f64 {
        return None;
    }
    let machine = snap.get("machine")?;
    let mut key = String::new();
    json::write_str(machine.get("cpu")?.as_str()?, &mut key);
    let _ = write!(
        key,
        "/{}/{}/{}/{}/{}",
        machine.get("available_parallelism")?.as_f64()?,
        snap.get("kind")?.as_str()?,
        snap.get("kernel")?.as_str()?,
        snap.get("threads_effective")?.as_f64()?,
        snap.get("states")?.as_f64()?,
    );
    match snap.get("bounds")? {
        Value::Arr(bounds) => {
            for b in bounds {
                let _ = write!(key, ",{}", b.as_f64()?);
            }
        }
        _ => return None,
    }
    Some(key)
}

/// Compares the newest history snapshot against the most recent earlier
/// snapshot with the same compatibility key, gating on `iterate_ms`.
///
/// `threshold_pct` is the tolerated slowdown: 10.0 lets the newest run
/// be up to 10% slower than its baseline before `regression` trips.
/// Unparseable or incompatible lines are skipped, not fatal — a history
/// file accretes across schema changes and machine migrations.
///
/// # Errors
///
/// Only when the newest line itself is unusable (empty history counts
/// as "nothing to compare", not an error).
pub fn diff_history(history: &str, threshold_pct: f64) -> Result<DiffOutcome, String> {
    let snaps: Vec<Value> = history
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| Value::parse(l).ok())
        .collect();
    let Some(newest) = snaps.last() else {
        return Ok(DiffOutcome {
            compared: None,
            regression: false,
            message: "history is empty; nothing to compare".into(),
        });
    };
    let key = compat_key(newest).ok_or("newest snapshot lacks the compatibility fields")?;
    let newest_ms = newest
        .get("iterate_ms")
        .and_then(Value::as_f64)
        .ok_or("newest snapshot lacks iterate_ms")?;
    let newest_rev = newest
        .get("rev")
        .and_then(Value::as_str)
        .unwrap_or("?")
        .to_owned();
    let baseline = snaps[..snaps.len() - 1]
        .iter()
        .rev()
        .find(|s| compat_key(s).as_deref() == Some(key.as_str()));
    let Some(base) = baseline else {
        return Ok(DiffOutcome {
            compared: None,
            regression: false,
            message: format!("no earlier snapshot is compatible with rev '{newest_rev}'"),
        });
    };
    let base_ms = base
        .get("iterate_ms")
        .and_then(Value::as_f64)
        .filter(|ms| *ms > 0.0)
        .ok_or("baseline snapshot lacks a positive iterate_ms")?;
    let base_rev = base
        .get("rev")
        .and_then(Value::as_str)
        .unwrap_or("?")
        .to_owned();
    let ratio = newest_ms / base_ms;
    let regression = ratio > 1.0 + threshold_pct / 100.0;
    let message = format!(
        "iterate_ms {newest_ms:.3} at '{newest_rev}' vs {base_ms:.3} at '{base_rev}': \
         {ratio:.3}x ({} {threshold_pct}% threshold)",
        if regression {
            "REGRESSION past the"
        } else {
            "within the"
        }
    );
    Ok(DiffOutcome {
        compared: Some((base_rev, newest_rev, ratio)),
        regression,
        message,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic `unicon reach --json` payload in the real renderer's
    /// shape (see `export::batch_to_json`).
    fn reach_doc(requested: u64, effective: u64, iterate_ms: f64) -> String {
        format!(
            "{{\"case_study\":\"ftwc\",\"n\":32,\"states\":1056,\"epsilon\":1e-6,\
             \"build_ms\":12.5,\"reach\":{{\"threads_requested\":{requested},\
             \"threads_effective\":{effective},\"available_parallelism\":{effective},\
             \"kernel\":\"fused\",\"kernel_ns_per_state\":{},\"precompute_ms\":1.25,\
             \"weights_ms\":0.5,\"iterate_ms\":{iterate_ms},\"cache_hits\":2,\
             \"cache_misses\":1,\"total_iterations\":4242,\"queries\":[\
             {{\"t\":100,\"objective\":\"max\",\"iterations\":1414,\"wall_ms\":3.1,\
             \"value\":4.2e-1,\"checksum\":\"00ff00ff00ff00ff\"}},\
             {{\"t\":500,\"objective\":\"max\",\"iterations\":2828,\"wall_ms\":6.2,\
             \"value\":9.9e-1,\"checksum\":\"11ee11ee11ee11ee\"}}]}}}}",
            iterate_ms / 10.0
        )
    }

    /// The satellite fix itself: on a clamped runner (4 requested, 1
    /// effective) the key must still be keyed on the REQUESTED counts —
    /// never the self-comparing `speedup_threads1_over_threads1` — with
    /// the clamp stated in its own field.
    #[test]
    fn speedup_key_uses_requested_counts_and_flags_the_clamp() {
        let out =
            compose_speedup(&reach_doc(1, 1, 40.0), &reach_doc(4, 1, 40.0)).expect("composes");
        let doc = Value::parse(&out).expect("output parses");
        assert!(
            doc.get("speedup_threads4_over_threads1").is_some(),
            "missing requested-count key in {out}"
        );
        assert!(
            doc.get("speedup_threads1_over_threads1").is_none(),
            "self-comparing key resurfaced in {out}"
        );
        assert_eq!(doc.get("clamped"), Some(&Value::Bool(true)));
        assert_eq!(
            doc.get("speedup_threads4_over_threads1").unwrap().as_f64(),
            Some(1.0)
        );
    }

    /// JSON-shape regression test for the composed benchmark document:
    /// every field the dashboard consumes, with both raw runs embedded
    /// whole and the bounds echoed from the queries.
    #[test]
    fn speedup_document_shape_round_trips() {
        let serial = reach_doc(1, 1, 80.0);
        let parallel = reach_doc(4, 4, 20.0);
        let out = compose_speedup(&serial, &parallel).expect("composes");
        let doc = Value::parse(&out).expect("output parses");
        assert_eq!(
            doc.get("benchmark").and_then(Value::as_str),
            Some("reach_determinism_and_speedup")
        );
        assert_eq!(
            doc.get("bounds"),
            Some(&Value::Arr(vec![Value::Num(100.0), Value::Num(500.0)]))
        );
        assert_eq!(
            doc.get("speedup_threads4_over_threads1").unwrap().as_f64(),
            Some(4.0)
        );
        assert_eq!(doc.get("clamped"), Some(&Value::Bool(false)));
        assert_eq!(
            doc.get("threads_requested"),
            Some(&Value::Arr(vec![Value::Num(1.0), Value::Num(4.0)]))
        );
        assert_eq!(
            doc.get("threads_effective"),
            Some(&Value::Arr(vec![Value::Num(1.0), Value::Num(4.0)]))
        );
        // both runs ride along verbatim, still parseable in place
        assert_eq!(doc.get("threads1"), Some(&Value::parse(&serial).unwrap()));
        assert_eq!(doc.get("threads4"), Some(&Value::parse(&parallel).unwrap()));
    }

    #[test]
    fn speedup_rejects_mismatched_bounds_and_bad_input() {
        let other_bounds = reach_doc(4, 4, 20.0).replace("\"t\":100", "\"t\":101");
        let err = compose_speedup(&reach_doc(1, 1, 80.0), &other_bounds).unwrap_err();
        assert!(err.contains("bounds differ"), "{err}");
        let err = compose_speedup("not json", &reach_doc(4, 4, 20.0)).unwrap_err();
        assert!(err.starts_with("serial run:"), "{err}");
    }

    /// The machine every synthetic snapshot ran on.
    fn machine() -> Machine {
        Machine {
            cpu: "Test CPU @ 2.00GHz".into(),
            parallelism: 2,
        }
    }

    #[test]
    fn snapshot_carries_schema_and_compat_key() {
        let line = snapshot_from_reach(&reach_doc(4, 4, 20.0), "abc123", 1.0, &machine())
            .expect("snapshot");
        let doc = Value::parse(&line).expect("snapshot parses");
        assert_eq!(
            doc.get("schema").and_then(Value::as_f64),
            Some(HISTORY_SCHEMA as f64)
        );
        assert_eq!(doc.get("rev").and_then(Value::as_str), Some("abc123"));
        assert_eq!(doc.get("kind").and_then(Value::as_str), Some("ftwc"));
        assert_eq!(doc.get("kernel").and_then(Value::as_str), Some("fused"));
        assert_eq!(
            doc.get("threads_effective").and_then(Value::as_f64),
            Some(4.0)
        );
        assert_eq!(doc.get("iterate_ms").and_then(Value::as_f64), Some(20.0));
        let on = doc.get("machine").expect("machine recorded");
        assert_eq!(
            on.get("cpu").and_then(Value::as_str),
            Some("Test CPU @ 2.00GHz")
        );
        assert_eq!(
            on.get("available_parallelism").and_then(Value::as_f64),
            Some(2.0)
        );
        assert!(!line.contains('\n'), "snapshot must be a single JSONL line");
    }

    /// Snapshots compare only on the machine they were taken on: the same
    /// CPU and parallelism compare, another CPU or parallelism has no
    /// compatible baseline.
    #[test]
    fn diff_compares_only_snapshots_of_the_same_machine() {
        let doc = reach_doc(4, 4, 20.0);
        let at = |rev, machine: &Machine| snapshot_from_reach(&doc, rev, 1.0, machine).unwrap();
        let base = at("base", &machine());
        let same = diff_history(&format!("{base}\n{}\n", at("same", &machine())), 10.0).unwrap();
        assert_eq!(
            same.compared.map(|(base, newest, _)| (base, newest)),
            Some(("base".into(), "same".into()))
        );
        let others = [
            Machine {
                cpu: "Other CPU".into(),
                ..machine()
            },
            Machine {
                parallelism: 4,
                ..machine()
            },
        ];
        for other in &others {
            let diff = diff_history(&format!("{base}\n{}\n", at("other", other)), 10.0).unwrap();
            assert!(diff.compared.is_none(), "{}", diff.message);
            assert!(!diff.regression);
            assert!(
                diff.message.contains("no earlier snapshot"),
                "{}",
                diff.message
            );
        }
    }

    /// A schema-1 line, which records no machine, is never a baseline.
    #[test]
    fn diff_skips_schema_1_lines() {
        let new = snapshot_from_reach(&reach_doc(4, 4, 20.0), "rev-new", 1.0, &machine()).unwrap();
        let old = new
            .replace("\"schema\":2", "\"schema\":1")
            .replace("rev-new", "rev-old");
        assert_ne!(old, new);
        let diff = diff_history(&format!("{old}\n{new}\n"), 10.0).unwrap();
        assert!(diff.compared.is_none(), "{}", diff.message);
    }

    #[test]
    fn diff_passes_identical_snapshots_and_catches_synthetic_regression() {
        let a = snapshot_from_reach(&reach_doc(4, 4, 20.0), "rev-a", 1.0, &machine()).unwrap();
        let b = snapshot_from_reach(&reach_doc(4, 4, 20.0), "rev-b", 1.0, &machine()).unwrap();
        let same = diff_history(&format!("{a}\n{b}\n"), 10.0).expect("diff");
        assert!(!same.regression, "{}", same.message);
        let (base, newest, ratio) = same.compared.expect("compared");
        assert_eq!((base.as_str(), newest.as_str()), ("rev-a", "rev-b"));
        assert!((ratio - 1.0).abs() < 1e-12);

        // the --scale-metric hook doubles the timings: a 2x slowdown
        // must trip a 10% gate
        let slow =
            snapshot_from_reach(&reach_doc(4, 4, 20.0), "rev-slow", 2.0, &machine()).unwrap();
        let diff = diff_history(&format!("{a}\n{b}\n{slow}\n"), 10.0).expect("diff");
        assert!(diff.regression, "{}", diff.message);
        assert!(diff.message.contains("REGRESSION"), "{}", diff.message);
    }

    /// An incompatible snapshot (different effective thread count) is
    /// not a baseline: diff walks past it to the nearest compatible one.
    #[test]
    fn diff_skips_incompatible_baselines() {
        let old = snapshot_from_reach(&reach_doc(4, 4, 20.0), "rev-old", 1.0, &machine()).unwrap();
        let clamped =
            snapshot_from_reach(&reach_doc(4, 1, 90.0), "rev-clamped", 1.0, &machine()).unwrap();
        let new = snapshot_from_reach(&reach_doc(4, 4, 20.0), "rev-new", 1.0, &machine()).unwrap();
        let diff = diff_history(&format!("{old}\n{clamped}\n{new}\n"), 10.0).expect("diff");
        let (base, newest, _) = diff.compared.expect("compared");
        assert_eq!((base.as_str(), newest.as_str()), ("rev-old", "rev-new"));
        assert!(!diff.regression);
    }

    #[test]
    fn diff_with_too_little_history_is_not_a_failure() {
        let empty = diff_history("", 10.0).expect("empty diff");
        assert!(empty.compared.is_none() && !empty.regression);
        let only = snapshot_from_reach(&reach_doc(4, 4, 20.0), "solo", 1.0, &machine()).unwrap();
        let one = diff_history(&only, 10.0).expect("single diff");
        assert!(one.compared.is_none() && !one.regression, "{}", one.message);
    }
}
