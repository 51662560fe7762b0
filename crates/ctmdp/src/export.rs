//! Diagnostic exports for CTMDPs: DOT graphs, textual summaries,
//! scheduler serialization and batch-run JSON for the bench harness.

use std::fmt::Write as _;
use std::time::Duration;

use crate::model::Ctmdp;
use crate::par::BatchResult;
use crate::reachability::Objective;
use crate::scheduler::StepDependent;

/// Renders a CTMDP as a GraphViz DOT digraph: boxes for states, one dot
/// node per transition `(s, a, R)` (mirroring the hyperedge reading of rate
/// functions), solid edges for the action selection, dashed rate-labeled
/// edges for the probabilistic branching.
///
/// Intended for small models (debugging, papers); the output grows with
/// `Σ |R|`.
///
/// # Examples
///
/// ```
/// use unicon_ctmdp::{export, CtmdpBuilder};
///
/// let mut b = CtmdpBuilder::new(2, 0);
/// b.transition(0, "go", &[(1, 2.0)]);
/// b.transition(1, "back", &[(0, 2.0)]);
/// let dot = export::to_dot(&b.build(), "two_states");
/// assert!(dot.contains("label=\"go\""));
/// ```
pub fn to_dot(ctmdp: &Ctmdp, name: &str) -> String {
    let mut out = String::new();
    writeln!(out, "digraph \"{name}\" {{").expect("writing to a String cannot fail");
    writeln!(out, "  rankdir=LR;").expect("writing to a String cannot fail");
    writeln!(out, "  node [shape=box];").expect("writing to a String cannot fail");
    writeln!(out, "  s{} [style=bold];", ctmdp.initial()).expect("writing to a String cannot fail");
    for s in 0..ctmdp.num_states() as u32 {
        writeln!(out, "  s{s} [label=\"{s}\"];").expect("writing to a String cannot fail");
        for (i, tr) in ctmdp.transitions_from(s).iter().enumerate() {
            let mid = format!("t{s}_{i}");
            let action = ctmdp.actions().name(tr.action);
            writeln!(out, "  {mid} [shape=point];").expect("writing to a String cannot fail");
            writeln!(out, "  s{s} -> {mid} [label=\"{action}\"];")
                .expect("writing to a String cannot fail");
            for &(tgt, rate) in ctmdp.rate_function(tr.rate_fn).targets() {
                writeln!(out, "  {mid} -> s{tgt} [label=\"{rate}\", style=dashed];")
                    .expect("writing to a String cannot fail");
            }
        }
    }
    writeln!(out, "}}").expect("writing to a String cannot fail");
    out
}

/// A one-line textual summary of a CTMDP (sizes, uniformity, branching).
pub fn summary(ctmdp: &Ctmdp) -> String {
    let nondet_states = (0..ctmdp.num_states() as u32)
        .filter(|&s| ctmdp.transitions_from(s).len() > 1)
        .count();
    let max_choices = (0..ctmdp.num_states() as u32)
        .map(|s| ctmdp.transitions_from(s).len())
        .max()
        .unwrap_or(0);
    let uniform = match ctmdp.uniform_rate() {
        Ok(e) => format!("uniform (E = {e})"),
        Err(e) => format!("non-uniform ({e})"),
    };
    format!(
        "{} states, {} transitions, {} rate functions ({} entries), {} \
         nondeterministic states (max {} choices), {}",
        ctmdp.num_states(),
        ctmdp.num_transitions(),
        ctmdp.num_rate_functions(),
        ctmdp.num_rate_entries(),
        nondet_states,
        max_choices,
        uniform
    )
}

/// Serializes a recorded step-dependent scheduler as plain text:
/// a header line `unicon-scheduler v1 steps=<k> states=<n>` followed by one
/// line per step, each listing the chosen transition index for every state.
///
/// The format round-trips exactly through [`scheduler_from_text`].
pub fn scheduler_to_text(sched: &StepDependent) -> String {
    let decisions = sched.decisions();
    let states = decisions.first().map_or(0, Vec::len);
    let mut out = String::new();
    writeln!(
        out,
        "unicon-scheduler v1 steps={} states={states}",
        decisions.len()
    )
    .expect("writing to a String cannot fail");
    for step in decisions {
        let mut first = true;
        for &c in step {
            if !first {
                out.push(' ');
            }
            write!(out, "{c}").expect("writing to a String cannot fail");
            first = false;
        }
        out.push('\n');
    }
    out
}

/// Error parsing a serialized scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerParseError {
    /// What went wrong, with the offending line number where applicable.
    pub message: String,
}

impl std::fmt::Display for SchedulerParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid scheduler text: {}", self.message)
    }
}

impl std::error::Error for SchedulerParseError {}

fn parse_error(message: impl Into<String>) -> SchedulerParseError {
    SchedulerParseError {
        message: message.into(),
    }
}

/// Parses the textual scheduler format written by [`scheduler_to_text`].
///
/// # Errors
///
/// [`SchedulerParseError`] on a malformed header, a step/state count
/// mismatch, or a non-`u16` decision entry.
pub fn scheduler_from_text(text: &str) -> Result<StepDependent, SchedulerParseError> {
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| parse_error("empty input"))?;
    let mut parts = header.split_whitespace();
    if parts.next() != Some("unicon-scheduler") || parts.next() != Some("v1") {
        return Err(parse_error(format!("bad header '{header}'")));
    }
    let field = |p: Option<&str>, key: &str| -> Result<usize, SchedulerParseError> {
        p.and_then(|f| f.strip_prefix(key))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| parse_error(format!("header misses '{key}<count>'")))
    };
    let steps = field(parts.next(), "steps=")?;
    let states = field(parts.next(), "states=")?;
    if steps == 0 {
        return Err(parse_error("scheduler needs at least one step"));
    }
    let mut decisions = Vec::with_capacity(steps);
    for (i, line) in lines.enumerate() {
        let row: Vec<u16> = line
            .split_whitespace()
            .map(|tok| {
                tok.parse()
                    .map_err(|_| parse_error(format!("bad entry '{tok}' in step {}", i + 1)))
            })
            .collect::<Result<_, _>>()?;
        if row.len() != states {
            return Err(parse_error(format!(
                "step {} has {} entries, expected {states}",
                i + 1,
                row.len()
            )));
        }
        decisions.push(row);
    }
    if decisions.len() != steps {
        return Err(parse_error(format!(
            "found {} steps, header promised {steps}",
            decisions.len()
        )));
    }
    Ok(StepDependent::new(decisions))
}

/// Renders a batch run's measurements as one JSON object: requested and
/// effective thread counts (the request before and after the
/// `available_parallelism` clamp), machine parallelism, the
/// value-iteration kernel and its normalized speed
/// (`kernel_ns_per_state`), per-phase timings in milliseconds,
/// weight-cache counters, the total iteration and sweep counts, and one
/// entry per query carrying its iteration
/// count, wall time, the value from state `initial` and the deterministic
/// chunked checksum (hex-encoded bits, bitwise reproducible across
/// thread counts).
pub fn batch_to_json(batch: &BatchResult, initial: u32) -> String {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let s = &batch.stats;
    let queries: Vec<String> = s
        .queries
        .iter()
        .zip(&batch.results)
        .map(|(q, r)| {
            format!(
                "{{\"t\":{},\"objective\":\"{}\",\"iterations\":{},\"wall_ms\":{},\
                 \"value\":{:e},\"checksum\":\"{:016x}\"}}",
                q.t,
                match q.objective {
                    Objective::Maximize => "max",
                    Objective::Minimize => "min",
                },
                q.iterations,
                ms(q.wall),
                r.from_state(initial),
                q.checksum.to_bits(),
            )
        })
        .collect();
    format!(
        "{{\"threads_requested\":{},\"threads_effective\":{},\
         \"available_parallelism\":{},\"kernel\":\"{}\",\
         \"kernel_ns_per_state\":{},\"precompute_ms\":{},\
         \"weights_ms\":{},\"iterate_ms\":{},\"cache_hits\":{},\"cache_misses\":{},\
         \"total_iterations\":{},\"sweeps\":{},\"queries\":[{}]}}",
        s.threads_requested,
        s.threads_effective,
        std::thread::available_parallelism().map_or(1, usize::from),
        s.kernel.as_str(),
        s.kernel_ns_per_state,
        ms(s.precompute_time),
        ms(s.weights_time),
        ms(s.iterate_time),
        s.cache_hits,
        s.cache_misses,
        s.total_iterations,
        s.sweeps,
        queries.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CtmdpBuilder;

    fn sample() -> Ctmdp {
        let mut b = CtmdpBuilder::new(3, 0);
        b.transition(0, "left", &[(1, 1.0), (2, 1.0)]);
        b.transition(0, "right", &[(2, 2.0)]);
        b.transition(1, "stay", &[(1, 2.0)]);
        b.transition(2, "stay", &[(2, 2.0)]);
        b.build()
    }

    #[test]
    fn dot_contains_all_parts() {
        let d = to_dot(&sample(), "m");
        assert!(d.starts_with("digraph"));
        assert!(d.contains("label=\"left\""));
        assert!(d.contains("label=\"right\""));
        assert!(d.contains("style=dashed"));
        assert!(d.contains("s0 [style=bold]"));
    }

    #[test]
    fn summary_reports_nondeterminism_and_uniformity() {
        let s = summary(&sample());
        assert!(s.contains("3 states"));
        assert!(s.contains("4 transitions"));
        assert!(s.contains("1 nondeterministic states (max 2 choices)"));
        assert!(s.contains("uniform (E = 2)"));
    }

    #[test]
    fn summary_flags_non_uniform() {
        let mut b = CtmdpBuilder::new(2, 0);
        b.transition(0, "a", &[(1, 1.0)]);
        b.transition(1, "b", &[(0, 3.0)]);
        assert!(summary(&b.build()).contains("non-uniform"));
    }

    #[test]
    fn scheduler_text_round_trips_a_recorded_scheduler() {
        use crate::reachability::{timed_reachability, ReachOptions};

        let m = sample();
        let res = timed_reachability(
            &m,
            &[false, true, false],
            1.5,
            &ReachOptions::default().recording_decisions(),
        )
        .unwrap();
        let sched = StepDependent::from_result(&res);
        let text = scheduler_to_text(&sched);
        assert!(text.starts_with(&format!(
            "unicon-scheduler v1 steps={} states=3",
            sched.horizon()
        )));
        let back = scheduler_from_text(&text).unwrap();
        assert_eq!(back, sched);
        assert_eq!(back.decisions(), res.decisions.as_slice());
    }

    #[test]
    fn scheduler_text_round_trips_handwritten_tables() {
        let sched = StepDependent::new(vec![vec![0, 2, 1], vec![1, 0, 0]]);
        let back = scheduler_from_text(&scheduler_to_text(&sched)).unwrap();
        assert_eq!(back, sched);
    }

    #[test]
    fn scheduler_parse_rejects_malformed_input() {
        for (text, needle) in [
            ("", "empty"),
            ("bogus header\n0 1\n", "bad header"),
            ("unicon-scheduler v2 steps=1 states=2\n0 1\n", "bad header"),
            ("unicon-scheduler v1 steps=x states=2\n0 1\n", "steps="),
            (
                "unicon-scheduler v1 steps=0 states=2\n",
                "at least one step",
            ),
            ("unicon-scheduler v1 steps=1 states=2\n0\n", "entries"),
            ("unicon-scheduler v1 steps=2 states=1\n0\n", "promised 2"),
            ("unicon-scheduler v1 steps=1 states=1\n-3\n", "bad entry"),
            (
                "unicon-scheduler v1 steps=1 states=1\n99999999\n",
                "bad entry",
            ),
        ] {
            let err = scheduler_from_text(text).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{text:?} gave {err}, expected '{needle}'"
            );
        }
    }

    #[test]
    fn batch_json_has_phase_and_query_fields() {
        use crate::par::ReachBatch;

        let m = sample();
        let goal = [false, true, false];
        let out = ReachBatch::new(&m, &goal)
            .with_epsilon(1e-8)
            .query(1.0)
            .query(1.0)
            .run()
            .unwrap();
        let json = batch_to_json(&out, m.initial());
        for needle in [
            "\"threads_requested\":1",
            "\"threads_effective\":1",
            "\"available_parallelism\":",
            "\"kernel\":\"fused\"",
            "\"kernel_ns_per_state\":",
            "\"precompute_ms\":",
            "\"weights_ms\":",
            "\"iterate_ms\":",
            "\"cache_hits\":1",
            "\"cache_misses\":1",
            "\"sweeps\":",
            "\"queries\":[{",
            "\"objective\":\"max\"",
            "\"checksum\":\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    /// Regression: an over-subscribed request used to be silently
    /// clamped and serialized as the clamped value, so the bench file
    /// recorded `"threads":1` for a 4-thread request. Both numbers are
    /// now reported separately.
    #[test]
    fn batch_json_keeps_requested_threads_distinct_from_effective() {
        use crate::par::{resolve_threads, ReachBatch};

        let m = sample();
        let goal = [false, true, false];
        let requested = 9999;
        let out = ReachBatch::new(&m, &goal)
            .with_threads(requested)
            .query(1.0)
            .run()
            .unwrap();
        let json = batch_to_json(&out, m.initial());
        assert!(
            json.contains(&format!("\"threads_requested\":{requested}")),
            "raw request missing in {json}"
        );
        assert!(
            json.contains(&format!(
                "\"threads_effective\":{}",
                resolve_threads(requested)
            )),
            "clamped effective count missing in {json}"
        );
    }
}
