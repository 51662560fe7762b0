//! `compare A B`: two sets of result records (JSONL files written with
//! `--results`), metric by metric and workload by workload, judged against
//! the bounds `BENCHMARK.json` fixes. A is the base, B the candidate.

use unicon_obs::json::Value;

use crate::stats::{median, quartiles, spread};

/// Ungated numbers each record carries beside its metrics.
const OBSERVED: [&str; 3] = ["median_ms", "tail_ms", "throughput"];

/// One result record.
struct Record {
    workload: String,
    machine: String,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64)>,
}

fn load(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let v = Value::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
            let result = v
                .get("result")
                .ok_or(format!("{path}:{}: no result", i + 1))?;
            let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            let machine = v.get("machine").map_or(String::new(), |m| {
                format!(
                    "{} x{}",
                    m.get("cpu").and_then(Value::as_str).unwrap_or("unknown"),
                    num(m, "available_parallelism")
                )
            });
            let mut metrics: Vec<(String, f64)> = match result.get("metrics") {
                Some(Value::Obj(fields)) => fields
                    .iter()
                    .filter_map(|(k, m)| {
                        m.get("value")
                            .and_then(Value::as_f64)
                            .map(|x| (k.clone(), x))
                    })
                    .collect(),
                _ => Vec::new(),
            };
            if let Some(Value::Obj(fields)) = v.get("observed") {
                metrics.extend(
                    fields
                        .iter()
                        .filter(|(k, _)| OBSERVED.contains(&k.as_str()))
                        .filter_map(|(k, x)| x.as_f64().map(|x| (format!("observed.{k}"), x))),
                );
            }
            Ok(Record {
                workload: v
                    .get("workload")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                machine,
                attempted: num(result, "attempted"),
                failed: num(result, "failed"),
                metrics,
            })
        })
        .collect()
}

/// A metric's rule from `BENCHMARK.json`: its bound (end-to-end metrics
/// only) and whether lower is better, which only a bound uses.
struct Rule {
    name: String,
    bound: Option<f64>,
    lower: bool,
}

fn rules(bench: &Value) -> Vec<Rule> {
    let mut rules: Vec<Rule> = ["end_to_end", "per_layer"]
        .iter()
        .filter_map(|list| match bench.get(list) {
            Some(Value::Arr(items)) => Some(items),
            _ => None,
        })
        .flatten()
        .map(|m| Rule {
            name: m
                .get("name")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            bound: m.get("bound").and_then(Value::as_f64),
            lower: m.get("better").and_then(Value::as_str) != Some("higher"),
        })
        .collect();
    rules.extend(OBSERVED.iter().map(|name| Rule {
        name: format!("observed.{name}"),
        bound: None,
        lower: true,
    }));
    rules
}

/// The verdict on candidate runs `b` against base runs `a`: `WORSE` when
/// b's median is worse than a's by more than `bound`; `unresolved` when
/// either side's interquartile spread exceeds the bound, unless every run
/// of b beats every run of a (`better`); otherwise `ok`.
pub fn verdict(a: &[f64], b: &[f64], bound: f64, lower: bool) -> &'static str {
    if a.is_empty() || b.is_empty() {
        return "missing";
    }
    let (ma, mb) = (median(a), median(b));
    let worse = if ma == 0.0 {
        0.0
    } else if lower {
        (mb - ma) / ma.abs()
    } else {
        (ma - mb) / ma.abs()
    };
    if spread(a) > bound || spread(b) > bound {
        let beats = |x: f64, y: f64| if lower { x < y } else { x > y };
        let all_better = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
        return if all_better { "better" } else { "unresolved" };
    }
    if worse > bound {
        "WORSE"
    } else {
        "ok"
    }
}

fn describe(xs: &[f64]) -> String {
    if xs.is_empty() {
        return format!("{:>42}", "-");
    }
    let [q1, _, q3] = quartiles(xs);
    format!(
        "{:>12.6} [{:>11.6} {:>11.6}] {:>5.1}%",
        median(xs),
        q1,
        q3,
        spread(xs) * 100.0
    )
}

pub fn run(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: compare <base.jsonl> <candidate.jsonl>".into());
    };
    let rules = rules(&crate::benchmark_json()?);
    let (a, b) = (load(a_path)?, load(b_path)?);

    let machines = |set: &[Record]| {
        let mut m: Vec<&str> = set.iter().map(|r| r.machine.as_str()).collect();
        m.sort_unstable();
        m.dedup();
        m.join("; ")
    };
    let (ma, mb) = (machines(&a), machines(&b));
    println!("A {a_path}: {} records on {ma}", a.len());
    println!("B {b_path}: {} records on {mb}", b.len());
    if ma != mb {
        println!(
            "WARNING: the two sets come from different machines; differences may be the machines'"
        );
    }

    let mut pass = true;
    for w in crate::WORKLOADS.iter().map(|w| w.name) {
        let (ra, rb): (Vec<&Record>, Vec<&Record>) = (
            a.iter().filter(|r| r.workload == w).collect(),
            b.iter().filter(|r| r.workload == w).collect(),
        );
        if ra.is_empty() && rb.is_empty() {
            continue;
        }
        println!("== {w} (A {} runs, B {} runs)", ra.len(), rb.len());
        let fail_frac = |rs: &[&Record]| {
            let attempted: f64 = rs.iter().map(|r| r.attempted).sum();
            let failed: f64 = rs.iter().map(|r| r.failed).sum();
            if attempted == 0.0 {
                0.0
            } else {
                failed / attempted
            }
        };
        let (fa, fb) = (fail_frac(&ra), fail_frac(&rb));
        let fail_verdict = if fb > fa { "WORSE" } else { "ok" };
        pass &= fail_verdict == "ok";
        println!(
            "  {:<34} A {fa}  B {fb}  {fail_verdict} (any increase)",
            "fail_frac"
        );
        for rule in &rules {
            let values = |rs: &[&Record]| -> Vec<f64> {
                rs.iter()
                    .flat_map(|r| r.metrics.iter())
                    .filter(|(n, _)| *n == rule.name)
                    .map(|&(_, x)| x)
                    .collect()
            };
            let (va, vb) = (values(&ra), values(&rb));
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            let change = if va.is_empty() || vb.is_empty() || median(&va) == 0.0 {
                "-".to_string()
            } else {
                format!("{:+.1}%", (median(&vb) / median(&va) - 1.0) * 100.0)
            };
            let judged = match rule.bound {
                Some(bound) => {
                    let v = verdict(&va, &vb, bound, rule.lower);
                    pass &= matches!(v, "ok" | "better");
                    format!("{v} (bound {:.0}%)", bound * 100.0)
                }
                None => "-".to_string(),
            };
            println!(
                "  {:<34} A {}  B {}  {change:>7}  {judged}",
                rule.name,
                describe(&va),
                describe(&vb)
            );
        }
    }
    println!("{}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            verdict(&base, &[104.0, 105.0, 103.0, 104.5], 0.10, true),
            "ok"
        );
        assert_eq!(
            verdict(&base, &[115.0, 116.0, 114.0, 115.5], 0.10, true),
            "WORSE"
        );
        // Higher is better: a drop is the regression.
        assert_eq!(
            verdict(&base, &[85.0, 86.0, 84.0, 85.5], 0.10, false),
            "WORSE"
        );
        assert_eq!(verdict(&base, &[115.0, 116.0, 114.0], 0.10, false), "ok");
        // Too noisy to judge, unless every candidate run wins.
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(verdict(&base, &noisy, 0.10, true), "unresolved");
        assert_eq!(verdict(&noisy, &[40.0, 45.0, 50.0], 0.10, true), "better");
        assert_eq!(verdict(&[], &base, 0.10, true), "missing");
    }
}
