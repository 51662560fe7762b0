//! The unicon benchmark: four workloads, each measured end to end with
//! tracing off, and layer by layer in a traced pass.
//!
//! ```text
//! unicon-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--results <file>]
//!                                              (--seconds defaults to run_seconds in BENCHMARK.json)
//! unicon-benchmark --seed <n> ...          every workload in turn
//! unicon-benchmark compare <a.jsonl> <b.jsonl>
//! ```
//!
//! `benchmark/run.sh` builds the program and this harness, then runs it
//! from the repository root. See `benchmark/README.md`.

mod build;
mod compare;
mod metrics;
mod reach;
mod serve;
mod stats;
mod trace;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{Outcome, Pass, Stat, END_TO_END, PER_LAYER};
use trace::Tracer;

/// One workload: its name, the statistic `latency_ms` reports, the tail
/// percentile printed beside it, and its driver.
pub struct Workload {
    pub name: &'static str,
    latency: Stat,
    /// A high percentile that keeps at least ten samples beyond it at the
    /// benchmark's run length.
    tail: f64,
    run: fn(&mut Env) -> Result<Pass, String>,
}

pub const WORKLOADS: [Workload; 4] = [
    // One batch repeats identical work: its lower quartile is steady where
    // slow phases of the host move the median.
    Workload {
        name: "reach-batch",
        latency: Stat::Quantile(0.25),
        tail: 0.75,
        run: reach::run,
    },
    Workload {
        name: "build-compositional",
        latency: Stat::Quantile(0.25),
        tail: 0.80,
        run: build::run,
    },
    // Two clients and the daemon's workers share two CPUs: single
    // latencies follow the scheduler, their mean (clients over query
    // throughput) much less.
    Workload {
        name: "serve-query",
        latency: Stat::Mean,
        tail: 0.95,
        run: serve::query,
    },
    // The mean counts the rare rebuilds that the workload exists to price.
    Workload {
        name: "serve-mixed",
        latency: Stat::Mean,
        tail: 0.95,
        run: serve::mixed,
    },
];

/// What a workload driver gets: its inputs' seed, how long to measure,
/// the span recorder, and where the program and scratch files live.
pub struct Env {
    pub seed: u64,
    seconds: f64,
    pub tracer: Tracer,
    pub unicon: PathBuf,
    pub work: PathBuf,
}

impl Env {
    /// When the measured phase, starting now, ends.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }

    /// The measured phase, starting now, split in two: when the first
    /// `1 - share` of it ends, and when the whole ends.
    pub fn split_deadline(&self, share: f64) -> (Instant, Instant) {
        let now = Instant::now();
        (
            now + Duration::from_secs_f64(self.seconds * (1.0 - share)),
            now + Duration::from_secs_f64(self.seconds),
        )
    }
}

/// `BENCHMARK.json`, read from the repository root.
pub fn benchmark_json() -> Result<unicon_obs::json::Value, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    unicon_obs::json::Value::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))
}

/// `run_seconds` from `BENCHMARK.json`: the default length of the
/// measured phase.
fn run_seconds() -> Result<f64, String> {
    benchmark_json()?
        .get("run_seconds")
        .and_then(unicon_obs::json::Value::as_f64)
        .ok_or_else(|| "BENCHMARK.json has no run_seconds".into())
}

struct Options {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    results: Option<PathBuf>,
}

/// Parses the options; without `--seconds`, the run lasts `run_seconds`
/// from `BENCHMARK.json`.
fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: 0,
        seconds: 0.0,
        trace: false,
        results: None,
    };
    let mut seconds = None;
    let mut seed = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                opts.workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| format!("--seed: '{value}' is not a whole number"))?,
                );
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("--seconds: '{value}' is not a positive number"))?,
                );
            }
            "--trace" => {
                opts.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got '{value}'")),
                };
            }
            "--results" => opts.results = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    opts.seed = seed.ok_or("--seed is required")?;
    opts.seconds = match seconds {
        Some(s) => s,
        None => run_seconds()?,
    };
    Ok(opts)
}

/// The machine a result was measured on.
struct Machine {
    cpu: String,
    parallelism: usize,
    rev: String,
}

fn machine() -> Machine {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    // Only ask git inside a checkout of its own: a tree without `.git`
    // would otherwise report the revision of an enclosing repository.
    let rev = Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "--short=12", "HEAD"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        })
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    Machine {
        cpu,
        parallelism: std::thread::available_parallelism().map_or(1, usize::from),
        rev,
    }
}

/// Where the program binary and the scratch directory are: beside this
/// harness in the cargo target directory. Paths are made relative to the
/// working directory where possible, to keep socket paths short.
fn locations() -> Result<(PathBuf, PathBuf), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the harness: {e}"))?;
    let release = exe.parent().ok_or("the harness has no directory")?;
    let relative = |p: PathBuf| {
        std::env::current_dir()
            .ok()
            .and_then(|cwd| p.strip_prefix(cwd).ok().map(Path::to_path_buf))
            .unwrap_or(p)
    };
    let work = relative(release.join("..").join("unicon-bench"));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    Ok((relative(release.join("unicon")), work))
}

fn pass(w: &Workload, opts: &Options, seconds: f64, traced: bool) -> Result<(Pass, Env), String> {
    let (unicon, work) = locations()?;
    let mut env = Env {
        seed: opts.seed,
        seconds,
        tracer: Tracer::new(traced),
        unicon,
        work,
    };
    Ok(((w.run)(&mut env)?, env))
}

/// Numbers every run prints and records but no bound gates: on a shared
/// host they move between runs by more than a useful bound (see the
/// README). `compare` still shows them side by side.
struct Observed {
    median_ms: f64,
    tail_ms: f64,
    throughput: f64,
}

/// Runs one workload and prints its metrics, ending with the result line.
/// Returns whether every answer was correct.
fn run_workload(w: &Workload, opts: &Options, m: &Machine) -> Result<bool, String> {
    let mut out = std::io::stdout().lock();
    let mut say = |line: String| {
        let _ = writeln!(out, "{line}");
    };
    say(format!(
        "# workload {} seed {} seconds {} trace {}",
        w.name, opts.seed, opts.seconds, opts.trace as u8
    ));
    say(format!(
        "# machine cpu \"{}\" available_parallelism {} rev {}",
        m.cpu, m.parallelism, m.rev
    ));

    // With tracing on, an untraced and a traced pass split the run: the
    // first is the baseline the tracing overhead is measured against.
    let (base, traced) = if opts.trace {
        let (base, _) = pass(w, opts, opts.seconds / 2.0, false)?;
        (base, Some(pass(w, opts, opts.seconds / 2.0, true)?))
    } else {
        (pass(w, opts, opts.seconds, false)?.0, None)
    };
    let e2e = base.end_to_end(w.latency);
    let mut notes = base.notes.clone();
    let (metrics, attempted, failed) = match &traced {
        None => {
            let metrics: Vec<_> = END_TO_END
                .iter()
                .zip(e2e)
                .map(|(&(n, u), v)| (n, v, u))
                .collect();
            (metrics, base.attempted, base.failed)
        }
        Some((tp, env)) => {
            let t2e = tp.end_to_end(w.latency);
            let overhead = std::array::from_fn(|i| t2e[i] - e2e[i]);
            let values = tp.per_layer(&env.tracer, overhead);
            let path = env
                .work
                .join(format!("trace-{}-seed{}.jsonl", w.name, opts.seed));
            env.tracer
                .write_jsonl(&path, w.name)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            notes.push(format!(
                "{} spans written to {}",
                env.tracer.len(),
                path.display()
            ));
            let metrics: Vec<_> = PER_LAYER
                .iter()
                .zip(values)
                .map(|(&(n, u), v)| (n, v, u))
                .collect();
            (
                metrics,
                base.attempted + tp.attempted,
                base.failed + tp.failed,
            )
        }
    };
    let outcome = Outcome {
        attempted,
        failed,
        metrics,
    };
    let observed = Observed {
        median_ms: stats::median(&base.latency_ms),
        tail_ms: stats::percentile(&base.latency_ms, w.tail),
        throughput: base.throughput(),
    };

    for (name, value, unit) in &outcome.metrics {
        say(format!("{name} {value} {unit}"));
    }
    say(format!(
        "fail_frac {} ratio",
        metrics::ratio(failed as f64, attempted as f64)
    ));
    let ops = base.latency_ms.len();
    say(format!(
        "# latency_ms is the {} of {ops} operation latencies; {} set-ups",
        w.latency.label(),
        base.setup_s.len()
    ));
    say(format!(
        "# observed, not gated: median {} ms, p{:.0} {} ms with {} samples beyond, throughput {} 1/s",
        observed.median_ms,
        w.tail * 100.0,
        observed.tail_ms,
        stats::beyond(ops, w.tail),
        observed.throughput
    ));
    for note in notes {
        say(format!("# note {note}"));
    }
    if let Some(path) = &opts.results {
        append_record(path, w, opts, m, &base, &observed, &outcome)
            .map_err(|e| format!("cannot append to {}: {e}", path.display()))?;
    }
    say(outcome.to_json());
    Ok(outcome.correct())
}

/// Appends one result record, with the machine fingerprint, sample counts
/// and the ungated observations, to a JSONL results file for `compare`.
fn append_record(
    path: &Path,
    w: &Workload,
    opts: &Options,
    m: &Machine,
    base: &Pass,
    observed: &Observed,
    outcome: &Outcome,
) -> std::io::Result<()> {
    let mut cpu = String::new();
    unicon_obs::json::write_str(&m.cpu, &mut cpu);
    let line = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"machine\":{{\"cpu\":{cpu},\"available_parallelism\":{},\"rev\":\"{}\"}},\
         \"samples\":{{\"setup\":{},\"ops\":{}}},\
         \"observed\":{{\"median_ms\":{},\"tail_ms\":{},\"tail_percentile\":{},\"throughput\":{}}},\
         \"result\":{}}}\n",
        w.name,
        opts.seed,
        opts.seconds,
        opts.trace,
        m.parallelism,
        m.rev,
        base.setup_s.len(),
        base.latency_ms.len(),
        observed.median_ms,
        observed.tail_ms,
        w.tail,
        observed.throughput,
        outcome.to_json()
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?
        .write_all(line.as_bytes())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        compare::run(&args[1..])
    } else {
        parse(&args).and_then(|opts| {
            let m = machine();
            let mut correct = true;
            for w in WORKLOADS.iter() {
                if opts.workload.is_none_or(|only| only.name == w.name) {
                    correct &= run_workload(w, &opts, &m)?;
                }
            }
            Ok(correct)
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
