//! `unicon` — command-line front end for the uniformity-by-construction
//! tool chain.
//!
//! ```text
//! unicon check <model.aut>                       inspect an IMC
//! unicon lint <model.aut> [--deny warnings]      U001–U009 diagnostics
//! unicon transform <model.aut> [--dot out.dot]   uIMC -> uCTMDP
//! unicon reach <model.aut> --goal 1,2,3 --time-bounds 10   Algorithm 1
//! unicon reach --ftwc 4 --time-bounds 10,100 --threads 2   built-in case study
//! unicon bench-build --n-list 1,2 [--json]       construction benchmark
//! unicon bench speedup|history|diff              perf files + regression gate
//! unicon profile --ftwc 4 [--folded f] [--chrome f]  self-profiler
//! unicon serve [--socket <path>] [--threads <n>] JSONL query daemon
//! unicon audit --ftwc 2 [--cert-out c.jsonl]     certify the proof chain
//! unicon audit --cert c.jsonl                    re-check a certificate
//! unicon det-lint [--deny warnings]              determinism source lint
//! unicon paper table1|figure4|route|ablation     regenerate the evaluation
//! ```
//!
//! Models are read in the extended Aldebaran format of `unicon-imc::io`
//! (CADP-compatible: Markov transitions labeled `rate <λ>`, τ spelled `i`).
//!
//! Two global flags work with every command: `--log-level
//! {quiet,info,debug}` tunes the stderr console (stdout stays
//! machine-clean), and `--trace-out <file.jsonl>` streams every
//! structured event — spans, iterations, guard incidents — as JSON
//! lines. Tracing is bit-invisible: every numeric result is unchanged
//! whether a sink is installed or not.
//!
//! Exit codes: 0 success, 1 runtime error, 2 usage error (malformed or
//! semantically invalid flags), 3 partial result (a budgeted `reach` run
//! stopped before completing; resume it with `--resume`).

mod paper;
mod perf;
mod serve;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use unicon::obs;

use unicon::core::ClosedModel;
use unicon::ctmdp::export;
use unicon::ctmdp::guard::{CheckpointConfig, GuardOptions, GuardedRun, RunBudget};
use unicon::ctmdp::par::ReachBatch;
use unicon::ctmdp::reachability::{Kernel, Objective, ReachResult};
use unicon::ftwc::{compositional, experiment, generator, FtwcParams};
use unicon::imc::audit::Witness;
use unicon::imc::{analysis, io, Imc, View};
use unicon::transform::transform;
use unicon::verify::{certify, lint_imc, lint_truncation, srclint, LintOptions};

/// A classified CLI failure: usage errors (exit 2) are the caller's
/// fault — malformed or semantically invalid arguments — while runtime
/// errors (exit 1) arise from the models and files being operated on.
enum CliError {
    Usage(String),
    Runtime(String),
}

fn usage(flag: &str, reason: impl std::fmt::Display) -> CliError {
    CliError::Usage(format!("{flag}: {reason}"))
}

fn runtime(msg: impl std::fmt::Display) -> CliError {
    CliError::Runtime(msg.to_string())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let result = setup_obs(&mut args).and_then(|()| match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("transform") => cmd_transform(&args[1..]),
        Some("reach") => cmd_reach(&args[1..]),
        Some("bench-build") => cmd_bench_build(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("serve") => serve::run(&args[1..]),
        Some("audit") => cmd_audit(&args[1..]),
        Some("det-lint") => cmd_det_lint(&args[1..]),
        Some("paper") => paper::run(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(CliError::Usage(format!(
            "unknown command '{other}' (try --help)"
        ))),
    });
    let code = match result {
        Ok(code) => code,
        Err(CliError::Runtime(msg)) => {
            obs::error(|| msg);
            ExitCode::FAILURE
        }
        Err(CliError::Usage(msg)) => {
            obs::error(|| msg);
            ExitCode::from(2)
        }
    };
    obs::flush();
    code
}

/// Strips the global observability flags — they apply to every
/// subcommand, before dispatch — and installs the sinks: the console
/// (always; it listens to log events only, so it never enables hot-path
/// telemetry) and the optional `--trace-out` JSONL stream.
fn setup_obs(args: &mut Vec<String>) -> Result<(), CliError> {
    let console = Arc::new(obs::ConsoleSink::new(obs::Level::Info));
    obs::install(console.clone());
    let mut trace_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--log-level" => {
                let level = args
                    .get(i + 1)
                    .and_then(|v| obs::Level::parse(v))
                    .ok_or_else(|| usage("--log-level", "expects quiet, info or debug"))?;
                console.set_level(level);
                args.drain(i..i + 2);
            }
            "--trace-out" => {
                let path = args
                    .get(i + 1)
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| usage("--trace-out", "expects a path"))?;
                trace_out = Some(path.clone());
                args.drain(i..i + 2);
            }
            _ => i += 1,
        }
    }
    if let Some(path) = trace_out {
        let sink = obs::JsonlSink::create(&path)
            .map_err(|e| runtime(format!("cannot create trace file {path}: {e}")))?;
        obs::install(Arc::new(sink));
        obs::debug(|| format!("tracing structured events to {path}"));
    }
    Ok(())
}

fn print_usage() {
    println!(
        "unicon — uniform IMC composition and uniform-CTMDP timed reachability\n\n\
         USAGE:\n  \
         unicon check <model.aut>\n  \
         unicon lint <model.aut> [--view open|closed] [--deny warnings] [--json]\n  \
         unicon transform <model.aut> [--dot <out.dot>]\n  \
         unicon reach (--ftwc <N> | <model.aut> --goal <s1,s2,…>)\n          \
         --time-bounds <t1,t2,…> [--threads <n>] [--epsilon <e>]\n          \
         [--kernel reference|fused]\n          \
         [--min] [--exact-goal] [--json <out.json>] [--values-out <dump>]\n          \
         [--max-iters <n>] [--timeout <secs>] [--checkpoint <file>]\n          \
         [--checkpoint-every <k>] [--resume <file>]\n  \
         unicon bench-build [--n-list <N1,N2,…>] [--epsilon <e>]\n          \
         [--out <file>] [--json]\n  \
         unicon bench speedup --serial <reach.json> --parallel <reach.json>\n          \
         [--out BENCH_reach.json] [--json]\n  \
         unicon bench history --from <reach.json> --rev <id>\n          \
         [--file BENCH_HISTORY.jsonl] [--scale-metric <f>]\n  \
         unicon bench diff [--file BENCH_HISTORY.jsonl] [--threshold <pct>]\n  \
         unicon profile [--ftwc <N>] [--time-bounds <t1,…>] [--threads <n>]\n          \
         [--epsilon <e>] [--folded <file>] [--chrome <file>] [--top <n>]\n  \
         unicon serve [--socket <path>] [--threads <n>] [--max-sessions <n>]\n          \
         [--max-inflight <n>] [--default-timeout <secs>] [--idle-timeout <secs>]\n          \
         [--cache-budget <bytes>] [--max-line-bytes <n>] [--drain-grace <secs>]\n  \
         unicon audit (--ftwc <N> | --cert <file.jsonl>)\n          \
         [--cert-out <file.jsonl>] [--time <t>] [--epsilon <e>] [--json]\n  \
         unicon det-lint [--root <dir>] [--deny warnings] [--json]\n  \
         unicon paper table1 [--full] [--max-n <N>]\n  \
         unicon paper figure4 [--n <N>] [--gamma <G>] [--max-t <t>]\n  \
         unicon paper route [--max-n <N>]\n  \
         unicon paper ablation\n\n\
         GLOBAL FLAGS (any command):\n  \
         --log-level quiet|info|debug   stderr console verbosity (default info)\n  \
         --trace-out <file.jsonl>       stream structured events as JSON lines\n\n\
         `bench-build` times the compositional FTWC construction per phase\n\
         (generate/compose/minimize/transform/precompute) with both the\n\
         worklist and the reference refiner, checks that the two quotients\n\
         agree bitwise, and writes BENCH_build.json (override with --out;\n\
         --json also prints the payload to stdout).\n\n\
         `bench speedup` composes BENCH_reach.json from a serial and a\n\
         parallel `reach --json` payload; the speedup key is derived from\n\
         the REQUESTED thread counts, with a runner clamp reported in the\n\
         explicit `clamped` field. `bench history` appends one\n\
         schema-versioned snapshot line per run to BENCH_HISTORY.jsonl\n\
         (keyed by --rev, machine, kernel, effective threads, instance and\n\
         bounds);\n\
         `bench diff` compares the newest snapshot against its most recent\n\
         compatible predecessor and exits nonzero when iterate_ms regressed\n\
         past --threshold percent (default 10). --scale-metric multiplies\n\
         the recorded timings — a CI hook for proving the gate fires.\n\n\
         `profile` runs an FTWC reach workload with span collection on and\n\
         renders the nested span tree as flamegraph folded stacks\n\
         (--folded, default PROFILE.folded) and Chrome trace_event JSON\n\
         (--chrome, default PROFILE.trace.json; open in chrome://tracing\n\
         or Perfetto), plus a --top table of the hottest spans by self\n\
         time on stdout.\n\n\
         `reach` answers all time bounds in one batched pass (shared\n\
         precomputation, cached Fox–Glynn weights, optional worker threads;\n\
         results are bitwise independent of --threads) and prints phase\n\
         timings as JSON, including the normalized kernel speed\n\
         kernel_ns_per_state. --values-out dumps every state value as hex\n\
         bits for exact cross-run comparison. --kernel selects the fused\n\
         SoA kernel (default) or the retained reference oracle — both\n\
         return identical bits; only the timings differ.\n\n\
         Any of --max-iters/--timeout/--checkpoint/--resume selects the\n\
         guarded engine: per-iteration numeric health checks, budget stops\n\
         with partial lower/upper bounds (exit 3), periodic checkpoints,\n\
         bitwise-identical resume from a checkpoint, and a typed error\n\
         when a worker panics.\n\n\
         `reach --residuals-out <csv>` records the per-iteration\n\
         convergence stream (unprocessed Poisson mass + value checksum).\n\
         Telemetry is bit-invisible: results are unchanged by any sink.\n\n\
         `serve` runs a long-lived JSONL query daemon over stdin or a Unix\n\
         socket: {{\"register\":{{\"ftwc\":N}}}} builds a model once and caches\n\
         it by content fingerprint, {{\"query\":{{\"model\":\"<fp>\",\"t\":…}}}}\n\
         answers timed reachability from the shared engine (optional\n\
         \"budget\":{{\"max_iters\":N,\"timeout_ms\":M}} yields a partial\n\
         record), and {{\"metrics\":{{}}}} returns the Prometheus exposition.\n\
         Fault tolerance: --max-sessions/--max-inflight shed excess load\n\
         with a retriable 'overloaded' error, --cache-budget evicts\n\
         least-recently-used models (never pinned ones), --idle-timeout\n\
         releases stalled sessions, --max-line-bytes caps request lines,\n\
         and shutdown/SIGTERM drain in-flight work before exiting 0\n\
         (--drain-grace caps the wait). Values and checksums are bitwise\n\
         identical to `unicon reach`, at any thread count, serial or\n\
         concurrent, under load shedding, eviction, or drain.\n\n\
         `audit --ftwc N` rebuilds the FTWC through the certified\n\
         compositional route with obligation recording on, then replays\n\
         every recorded step with the independent checker: fingerprints,\n\
         rate arithmetic, quotient maps (re-derived with the reference\n\
         refiner), the CTMDP extraction, and chain completeness (U015).\n\
         --cert-out writes the certificate as JSON lines; `audit --cert`\n\
         re-checks such a file at the record level. Nonzero exit when any\n\
         obligation fails. --time/--epsilon add the U014 Fox–Glynn\n\
         truncation-risk check for the query you intend to run.\n\n\
         `det-lint` scans the workspace sources (crates/*/src and src/)\n\
         for determinism hazards: hash-order iteration, wall-clock reads\n\
         and un-compensated float sums on hot paths, entropy-seeded RNG\n\
         anywhere. Waive a finding with a\n\
         `// det-lint: allow(<rule>): <reason>` comment.\n\n\
         `paper` regenerates the paper's evaluation (EXPERIMENTS.md):\n\
         Table 1's sizes, runtimes and iterations at ε = 1e-6 (the\n\
         30000 h column for N <= 8 unless --full), Figure 4's CTMDP worst\n\
         case against the Γ-resolved CTMC (exit 1 unless the CTMC exceeds\n\
         it at every grid point), Section 5's compositional vs. generated\n\
         construction, and the ablations.\n\n\
         --threads 0 (the default) uses one worker per hardware thread;\n\
         explicit requests are clamped to the hardware. Results are\n\
         bitwise identical for every thread count.\n\n\
         Exit codes: 0 ok, 1 runtime error, 2 usage error, 3 partial result.\n\n\
         Models use the extended Aldebaran format: interactive transitions\n\
         as (from, \"label\", to), Markov transitions as (from, \"rate λ\", to),\n\
         τ spelled \"i\"."
    );
}

// ---------------------------------------------------------------------------
// Typed argument parsing
// ---------------------------------------------------------------------------

/// Arguments of one subcommand, split into `--flag value` pairs, bare
/// `--switch`es, and positional operands. Unknown flags and flags
/// missing their value are rejected up front, so a typo can never be
/// silently read as a model path or swallowed by a default.
struct Cli<'a> {
    values: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
    positional: Vec<&'a str>,
}

fn parse_cli<'a>(
    args: &'a [String],
    value_flags: &[&str],
    switch_flags: &[&str],
) -> Result<Cli<'a>, CliError> {
    let mut cli = Cli {
        values: Vec::new(),
        switches: Vec::new(),
        positional: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if value_flags.contains(&a) {
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => cli.values.push((a, v.as_str())),
                _ => return Err(usage(a, "expects a value")),
            }
            i += 2;
        } else if switch_flags.contains(&a) {
            cli.switches.push(a);
            i += 1;
        } else if a.starts_with("--") {
            return Err(usage(a, "unknown flag for this command"));
        } else {
            cli.positional.push(a);
            i += 1;
        }
    }
    Ok(cli)
}

impl<'a> Cli<'a> {
    fn value(&self, key: &str) -> Option<&'a str> {
        self.values.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    fn has(&self, key: &str) -> bool {
        self.switches.contains(&key)
    }

    /// The single positional operand (the model path), or a usage error.
    fn model_path(&self, command: &str) -> Result<&'a str, CliError> {
        match self.positional.as_slice() {
            [one] => Ok(one),
            [] => Err(CliError::Usage(format!("{command} needs a model file"))),
            [_, extra, ..] => Err(CliError::Usage(format!(
                "{command}: unexpected extra argument '{extra}'"
            ))),
        }
    }
}

fn parse_usize(key: &str, s: &str) -> Result<usize, CliError> {
    s.parse()
        .map_err(|_| usage(key, format!("'{s}' is not a non-negative integer")))
}

/// An FTWC cluster size: from 1 up to the largest the generator can
/// index.
fn parse_cluster_size(key: &str, s: &str) -> Result<usize, CliError> {
    match parse_usize(key, s)? {
        0 => Err(usage(key, "N must be at least 1")),
        n if n > generator::MAX_N => Err(usage(
            key,
            format!("N must be at most {}, got {n}", generator::MAX_N),
        )),
        n => Ok(n),
    }
}

/// A cluster-size flag, or `default` when it is absent.
fn cluster_size(cli: &Cli, key: &str, default: usize) -> Result<usize, CliError> {
    cli.value(key)
        .map_or(Ok(default), |s| parse_cluster_size(key, s))
}

/// Rejects a cluster size beyond the compositional route's label packing.
fn compositional_n(key: &str, n: usize) -> Result<usize, CliError> {
    if n > compositional::MAX_N {
        return Err(usage(
            key,
            format!(
                "the compositional route supports N <= {}, got {n}",
                compositional::MAX_N
            ),
        ));
    }
    Ok(n)
}

fn parse_f64(key: &str, s: &str) -> Result<f64, CliError> {
    s.parse()
        .map_err(|_| usage(key, format!("'{s}' is not a number")))
}

/// `secs` seconds as a time span: a usage error naming `key` when no
/// [`Duration`] holds it.
fn span(key: &str, secs: f64) -> Result<Duration, CliError> {
    Duration::try_from_secs_f64(secs)
        .map_err(|_| usage(key, format!("{secs:e} seconds is too long a time span")))
}

/// A time value: finite and non-negative (rejects `nan`, `inf`, `-1`).
fn parse_time(key: &str, s: &str) -> Result<f64, CliError> {
    let t = parse_f64(key, s)?;
    if !t.is_finite() || t < 0.0 {
        return Err(usage(
            key,
            format!("time bound must be finite and non-negative, got '{s}'"),
        ));
    }
    Ok(t)
}

/// A truncation error bound: strictly inside (0, 1). `nan` fails the
/// comparison chain, so it is rejected too.
fn parse_epsilon(key: &str, s: &str) -> Result<f64, CliError> {
    let e = parse_f64(key, s)?;
    if !(e > 0.0 && e < 1.0) {
        return Err(usage(
            key,
            format!("must be in the open interval (0, 1), got '{s}'"),
        ));
    }
    Ok(e)
}

fn epsilon_or_default(cli: &Cli) -> Result<f64, CliError> {
    cli.value("--epsilon")
        .map_or(Ok(1e-6), |s| parse_epsilon("--epsilon", s))
}

/// The `--kernel` escape hatch: `fused` (the default) or `reference`
/// (the retained oracle, for differential benchmarking).
fn kernel_or_default(cli: &Cli) -> Result<Kernel, CliError> {
    match cli.value("--kernel") {
        None | Some("fused") => Ok(Kernel::Fused),
        Some("reference") => Ok(Kernel::Reference),
        Some(other) => Err(usage(
            "--kernel",
            format!("expects 'reference' or 'fused', got '{other}'"),
        )),
    }
}

fn parse_goal(spec: &str, num_states: usize) -> Result<Vec<bool>, CliError> {
    let mut goal = vec![false; num_states];
    for part in spec.split(',') {
        let s: usize = part
            .trim()
            .parse()
            .map_err(|_| usage("--goal", format!("bad goal state '{part}'")))?;
        *goal
            .get_mut(s)
            .ok_or_else(|| usage("--goal", format!("goal state {s} out of range")))? = true;
    }
    Ok(goal)
}

fn load(path: &str) -> Result<Imc, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| runtime(format!("cannot read {path}: {e}")))?;
    io::from_aut(&text).map_err(runtime)
}

// ---------------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------------

fn cmd_check(args: &[String]) -> Result<ExitCode, CliError> {
    let cli = parse_cli(args, &[], &[])?;
    let path = cli.model_path("check")?;
    let imc = load(path)?;
    let (markov, interactive, hybrid, absorbing) = imc.kind_counts();
    println!(
        "{path}: {} states ({markov} Markov, {interactive} interactive, \
         {hybrid} hybrid, {absorbing} absorbing), {} interactive + {} Markov transitions",
        imc.num_states(),
        imc.num_interactive(),
        imc.num_markov()
    );
    println!(
        "uniformity (open view / maximal progress): {:?}",
        imc.uniformity(View::Open)
    );
    println!(
        "uniformity (closed view / urgency):        {:?}",
        imc.uniformity(View::Closed)
    );
    match analysis::interactive_cycle(&imc) {
        None => println!("Zeno-free: yes"),
        Some(c) => println!("Zeno-free: NO — interactive cycle through {c:?}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_lint(args: &[String]) -> Result<ExitCode, CliError> {
    let cli = parse_cli(args, &["--view", "--deny"], &["--json"])?;
    let path = cli.model_path("lint")?;
    let imc = load(path)?;
    let view = match cli.value("--view") {
        None | Some("closed") => View::Closed,
        Some("open") => View::Open,
        Some(other) => {
            return Err(usage(
                "--view",
                format!("'{other}' is not 'open' or 'closed'"),
            ))
        }
    };
    let deny_warnings = match cli.value("--deny") {
        None => false,
        Some("warnings") => true,
        Some(other) => return Err(usage("--deny", format!("'{other}' is not 'warnings'"))),
    };
    let report = lint_imc(&imc, &LintOptions { view });
    if cli.has("--json") {
        println!("{}", report.to_json());
    } else {
        for d in report.diagnostics() {
            println!("{d}");
        }
        let (e, w) = (report.num_errors(), report.num_warnings());
        if report.is_clean() {
            println!("{path}: lints clean ({} states)", imc.num_states());
        } else {
            println!("{path}: {e} error(s), {w} warning(s)");
        }
    }
    if report.has_errors() {
        Err(runtime(format!(
            "lint failed with {} error(s)",
            report.num_errors()
        )))
    } else if deny_warnings && report.num_warnings() > 0 {
        Err(runtime(format!(
            "lint failed with {} warning(s) (--deny warnings)",
            report.num_warnings()
        )))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

fn cmd_transform(args: &[String]) -> Result<ExitCode, CliError> {
    let cli = parse_cli(args, &["--dot"], &[])?;
    let path = cli.model_path("transform")?;
    let imc = load(path)?;
    let out = transform(&imc).map_err(runtime)?;
    println!(
        "strictly alternating IMC: {} interactive + {} Markov states, \
         {} interactive + {} Markov transitions ({} bytes, {:?})",
        out.stats.interactive_states,
        out.stats.markov_states,
        out.stats.interactive_transitions,
        out.stats.markov_transitions,
        out.stats.memory_bytes,
        out.stats.transform_time
    );
    println!("CTMDP: {}", export::summary(&out.ctmdp));
    if let Some(dot_path) = cli.value("--dot") {
        std::fs::write(dot_path, export::to_dot(&out.ctmdp, path))
            .map_err(|e| runtime(format!("cannot write {dot_path}: {e}")))?;
        println!("wrote {dot_path}");
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// reach: batched + guarded timed reachability
// ---------------------------------------------------------------------------

/// Guard configuration distilled from the CLI: `None` when no guard
/// flag is present (the plain batched engine runs), otherwise the
/// options plus an optional checkpoint to resume from.
struct GuardSpec<'a> {
    options: GuardOptions,
    resume: Option<&'a str>,
}

fn guard_spec<'a>(cli: &Cli<'a>) -> Result<Option<GuardSpec<'a>>, CliError> {
    let max_iters = cli
        .value("--max-iters")
        .map(|s| parse_usize("--max-iters", s))
        .transpose()?;
    let timeout = cli
        .value("--timeout")
        .map(|s| {
            let secs = parse_f64("--timeout", s)?;
            if !secs.is_finite() || secs <= 0.0 {
                return Err(usage(
                    "--timeout",
                    format!("must be a positive number of seconds, got '{s}'"),
                ));
            }
            span("--timeout", secs)
        })
        .transpose()?;
    let checkpoint = cli.value("--checkpoint");
    let every = cli
        .value("--checkpoint-every")
        .map(|s| parse_usize("--checkpoint-every", s))
        .transpose()?;
    let resume = cli.value("--resume");
    if every.is_some() && checkpoint.is_none() {
        return Err(usage("--checkpoint-every", "requires --checkpoint"));
    }
    if max_iters.is_none() && timeout.is_none() && checkpoint.is_none() && resume.is_none() {
        return Ok(None);
    }

    let mut budget = RunBudget::default();
    if let Some(n) = max_iters {
        budget = budget.with_max_iterations(n);
    }
    if let Some(timeout) = timeout {
        budget = budget.with_timeout(timeout);
    }
    let mut options = GuardOptions::default().with_budget(budget);
    if let Some(path) = checkpoint {
        options = options.with_checkpoint(CheckpointConfig::new(path, every.unwrap_or(64)));
    }
    Ok(Some(GuardSpec { options, resume }))
}

fn cmd_reach(args: &[String]) -> Result<ExitCode, CliError> {
    let cli = parse_cli(
        args,
        &[
            "--ftwc",
            "--goal",
            "--time-bounds",
            "--threads",
            "--epsilon",
            "--kernel",
            "--json",
            "--values-out",
            "--residuals-out",
            "--max-iters",
            "--timeout",
            "--checkpoint",
            "--checkpoint-every",
            "--resume",
        ],
        &["--min", "--exact-goal"],
    )?;
    let bounds: Vec<f64> = cli
        .value("--time-bounds")
        .ok_or_else(|| CliError::Usage("reach needs --time-bounds t1,t2,…".into()))?
        .split(',')
        .map(|p| parse_time("--time-bounds", p.trim()))
        .collect::<Result<_, _>>()?;
    if bounds.is_empty() {
        return Err(CliError::Usage(
            "reach needs at least one time bound".into(),
        ));
    }
    let epsilon = epsilon_or_default(&cli)?;
    let threads = cli
        .value("--threads")
        .map_or(Ok(0), |s| parse_usize("--threads", s))?;
    let kernel = kernel_or_default(&cli)?;
    let guard = guard_spec(&cli)?;
    let objective = if cli.has("--min") {
        Objective::Minimize
    } else {
        Objective::Maximize
    };

    if let Some(nspec) = cli.value("--ftwc") {
        let n = parse_cluster_size("--ftwc", nspec)?;
        match guard {
            None => {
                // plain batched engine with full phase-timing stats
                let (bench, events) = run_collected(&cli, || {
                    experiment::reach_bench(
                        &FtwcParams::new(n),
                        &bounds,
                        epsilon,
                        threads,
                        kernel,
                        objective,
                    )
                });
                let bench = bench.map_err(runtime)?;
                let initial = bench.initial;
                emit_results(
                    &cli,
                    &bench.to_json(),
                    &bench.batch.results,
                    initial,
                    &bounds,
                )?;
                write_residuals(&cli, &events, &bounds)?;
                Ok(ExitCode::SUCCESS)
            }
            Some(spec) => {
                let (prepared, _build) = experiment::prepare(&FtwcParams::new(n));
                let mut batch = prepared
                    .reach_batch()
                    .with_epsilon(epsilon)
                    .with_threads(threads)
                    .with_kernel(kernel);
                for &t in &bounds {
                    batch = batch.query_with(t, objective);
                }
                let meta = format!(
                    "\"case_study\":\"ftwc\",\"n\":{n},\"states\":{}",
                    prepared.ctmdp.num_states()
                );
                run_guarded_reach(
                    &batch,
                    &spec,
                    &cli,
                    &bounds,
                    prepared.ctmdp.initial(),
                    &meta,
                    epsilon,
                )
            }
        }
    } else {
        // every flag is checked before the model is read, so a malformed
        // one is a usage error even when the model path is bad too
        let path = cli.model_path("reach")?;
        let goal_spec = cli
            .value("--goal")
            .ok_or_else(|| CliError::Usage("reach on a model needs --goal s1,s2,…".into()))?;
        let imc = load(path)?;
        let goal = parse_goal(goal_spec, imc.num_states())?;
        ClosedModel::try_new(imc.clone()).map_err(runtime)?;
        let out = transform(&imc).map_err(runtime)?;
        let cgoal = if cli.has("--exact-goal") {
            out.goal_vector_exact(&goal)
        } else {
            out.goal_vector(&goal)
        };
        let mut batch = ReachBatch::new(&out.ctmdp, &cgoal)
            .with_epsilon(epsilon)
            .with_threads(threads)
            .with_kernel(kernel);
        for &t in &bounds {
            batch = batch.query_with(t, objective);
        }
        let initial = out.ctmdp.initial();
        match guard {
            None => {
                let (res, events) = run_collected(&cli, || batch.run());
                let res = res.map_err(runtime)?;
                let json = format!(
                    "{{\"model\":\"{path}\",\"states\":{},\"epsilon\":{epsilon:e},\"reach\":{}}}",
                    out.ctmdp.num_states(),
                    export::batch_to_json(&res, initial)
                );
                emit_results(&cli, &json, &res.results, initial, &bounds)?;
                write_residuals(&cli, &events, &bounds)?;
                Ok(ExitCode::SUCCESS)
            }
            Some(spec) => {
                let meta = format!("\"model\":\"{path}\",\"states\":{}", out.ctmdp.num_states());
                run_guarded_reach(&batch, &spec, &cli, &bounds, initial, &meta, epsilon)
            }
        }
    }
}

/// Runs (or resumes) the guarded engine, reports events and partial
/// bounds, and maps a budget stop to exit code 3.
fn run_guarded_reach(
    batch: &ReachBatch<'_>,
    spec: &GuardSpec<'_>,
    cli: &Cli<'_>,
    bounds: &[f64],
    initial: u32,
    meta: &str,
    epsilon: f64,
) -> Result<ExitCode, CliError> {
    let (run, events) = run_collected(cli, || match spec.resume {
        Some(path) => batch.resume(path, &spec.options),
        None => batch.run_guarded(&spec.options),
    });
    let run: GuardedRun = run.map_err(runtime)?;

    for ev in &run.events {
        obs::info(|| format!("note: {ev}"));
    }

    let (stopped, partial) = match &run.stopped {
        None => ("null".to_string(), "null".to_string()),
        Some((reason, p)) => (
            format!("\"{}\"", reason.as_str()),
            format!(
                "{{\"query\":{},\"t\":{},\"completed_steps\":{},\"total_steps\":{},\
                 \"lower\":{:e},\"upper\":{:e}}}",
                p.query,
                p.t,
                p.completed_steps,
                p.total_steps,
                p.lower[initial as usize],
                p.upper[initial as usize]
            ),
        ),
    };
    let mut json = format!(
        "{{{meta},\"epsilon\":{epsilon:e},\"guarded\":true,\"complete\":{},\"health_checks\":{},\"stopped\":{stopped},\"results\":[",
        run.is_complete(),
        run.health_checks
    );
    for (qi, r) in run.results.iter().enumerate() {
        if qi > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"t\":{},\"value\":{:e},\"iterations\":{}}}",
            bounds[qi],
            r.from_state(initial),
            r.iterations
        );
    }
    let _ = write!(json, "],\"partial\":{partial}}}");
    emit_results(cli, &json, &run.results, initial, bounds)?;
    write_residuals(cli, &events, bounds)?;

    match run.stopped {
        None => Ok(ExitCode::SUCCESS),
        Some((reason, p)) => {
            obs::info(|| {
                format!(
                    "partial: stopped by {} during query {} (t = {}) after {}/{} steps; \
                     value at initial state is in [{:.6e}, {:.6e}]",
                    reason.as_str(),
                    p.query,
                    p.t,
                    p.completed_steps,
                    p.total_steps,
                    p.lower[initial as usize],
                    p.upper[initial as usize]
                )
            });
            if spec.options.checkpoint.is_some() {
                obs::info(|| "resume with: unicon reach … --resume <checkpoint>".into());
            }
            Ok(ExitCode::from(3))
        }
    }
}

/// Runs `f` under an event collector when `--residuals-out` asks for the
/// iteration stream (collection forces telemetry live even with no
/// trace sink installed); otherwise runs it plain, at zero extra cost.
fn run_collected<T>(cli: &Cli<'_>, f: impl FnOnce() -> T) -> (T, Vec<obs::Event>) {
    if cli.value("--residuals-out").is_some() {
        obs::collect(f)
    } else {
        (f(), Vec::new())
    }
}

/// Writes the `--residuals-out` CSV: one row per value-iteration step,
/// with the convergence residual (unprocessed Poisson mass) and the
/// deterministic value checksum of the step's iterate. Rows are grouped
/// by query, steps descending: a laned batch reports its queries' steps
/// interleaved, and the file must not depend on how the queries ran.
fn write_residuals(cli: &Cli<'_>, events: &[obs::Event], bounds: &[f64]) -> Result<(), CliError> {
    let Some(path) = cli.value("--residuals-out") else {
        return Ok(());
    };
    let mut rows: Vec<_> = events
        .iter()
        .filter_map(|ev| match ev {
            obs::Event::ReachIteration {
                query,
                step,
                psi,
                residual,
                checksum,
            } => Some((*query, *step, *psi, *residual, *checksum)),
            _ => None,
        })
        .collect();
    rows.sort_by_key(|&(query, step, ..)| (query, std::cmp::Reverse(step)));
    let mut csv = String::from("query,t,step,psi,residual,checksum\n");
    for (query, step, psi, residual, checksum) in rows {
        let t = bounds.get(query).copied().unwrap_or(f64::NAN);
        writeln!(
            csv,
            "{query},{t},{step},{psi:e},{residual:e},{checksum:016x}"
        )
        .expect("writing to a String cannot fail");
    }
    std::fs::write(path, csv).map_err(|e| runtime(format!("cannot write {path}: {e}")))?;
    obs::info(|| format!("wrote {path}"));
    Ok(())
}

/// Emits the JSON payload (stdout or `--json <file>`), the per-query
/// stderr summary, and the optional `--values-out` hex dump shared by
/// the plain and guarded `reach` paths.
fn emit_results(
    cli: &Cli<'_>,
    json: &str,
    results: &[ReachResult],
    initial: u32,
    bounds: &[f64],
) -> Result<(), CliError> {
    if let Some(out_path) = cli.value("--json") {
        std::fs::write(out_path, format!("{json}\n"))
            .map_err(|e| runtime(format!("cannot write {out_path}: {e}")))?;
        obs::info(|| format!("wrote {out_path}"));
    } else {
        println!("{json}");
    }
    for (t, r) in bounds.iter().zip(results) {
        obs::info(|| {
            format!(
                "t = {t}: value {:.10e} ({} iterations, {:?})",
                r.from_state(initial),
                r.iterations,
                r.runtime
            )
        });
    }
    if let Some(dump_path) = cli.value("--values-out") {
        let mut dump = String::new();
        for (qi, r) in results.iter().enumerate() {
            for (s, v) in r.values.iter().enumerate() {
                writeln!(dump, "{qi} {s} {:016x}", v.to_bits())
                    .expect("writing to a String cannot fail");
            }
        }
        std::fs::write(dump_path, dump)
            .map_err(|e| runtime(format!("cannot write {dump_path}: {e}")))?;
        obs::info(|| format!("wrote {dump_path}"));
    }
    Ok(())
}

fn cmd_bench_build(args: &[String]) -> Result<ExitCode, CliError> {
    let cli = parse_cli(args, &["--n-list", "--epsilon", "--out"], &["--json"])?;
    if let Some(extra) = cli.positional.first() {
        return Err(CliError::Usage(format!(
            "bench-build: unexpected argument '{extra}'"
        )));
    }
    let n_list: Vec<usize> = cli
        .value("--n-list")
        .unwrap_or("1,2")
        .split(',')
        .map(|p| compositional_n("--n-list", parse_cluster_size("--n-list", p.trim())?))
        .collect::<Result<_, _>>()?;
    if n_list.is_empty() {
        return Err(CliError::Usage("bench-build needs at least one N".into()));
    }
    let epsilon = epsilon_or_default(&cli)?;
    let rows = experiment::build_bench(&n_list, epsilon);
    let json = experiment::build_bench_to_json(&rows, epsilon);
    let out = cli.value("--out").unwrap_or("BENCH_build.json");
    std::fs::write(out, format!("{json}\n"))
        .map_err(|e| runtime(format!("cannot write {out}: {e}")))?;
    obs::info(|| format!("wrote {out}"));
    if cli.has("--json") {
        println!("{json}");
    }
    for r in &rows {
        obs::info(|| {
            format!(
                "N={}: {} states; generate {:.1} ms, compose {:.1} ms, \
                 minimize {:.1} ms (reference refiner {:.1} ms), \
                 transform {:.1} ms, precompute {:.1} ms; \
                 {} refiner rounds over {} dirty states",
                r.n,
                r.states,
                r.timings.generate.as_secs_f64() * 1e3,
                r.timings.compose.as_secs_f64() * 1e3,
                r.timings.minimize.as_secs_f64() * 1e3,
                r.minimize_reference.as_secs_f64() * 1e3,
                r.transform.as_secs_f64() * 1e3,
                r.precompute.as_secs_f64() * 1e3,
                r.refine_rounds,
                r.refine_dirty_states,
            )
        });
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// profile + bench: self-profiling and perf history
// ---------------------------------------------------------------------------

/// `unicon profile`: run an FTWC reach workload with span collection
/// on, fold the nested span tree into flamegraph (`--folded`) and
/// Chrome `trace_event` (`--chrome`) renderings, and print the hottest
/// spans by self time. Only spans are collected: iteration records and
/// metrics stay dormant, so the engine takes the path of an untraced
/// `unicon reach` (laned parts side by side, no per-step checksums, no
/// per-class kernel clocks), and what the profile measures beyond that
/// path is one clock read per span boundary.
fn cmd_profile(args: &[String]) -> Result<ExitCode, CliError> {
    let cli = parse_cli(
        args,
        &[
            "--ftwc",
            "--time-bounds",
            "--epsilon",
            "--threads",
            "--folded",
            "--chrome",
            "--top",
        ],
        &[],
    )?;
    if let Some(extra) = cli.positional.first() {
        return Err(CliError::Usage(format!(
            "profile: unexpected argument '{extra}'"
        )));
    }
    let n = cluster_size(&cli, "--ftwc", 4)?;
    let bounds: Vec<f64> = cli
        .value("--time-bounds")
        .unwrap_or("10")
        .split(',')
        .map(|p| parse_time("--time-bounds", p.trim()))
        .collect::<Result<_, _>>()?;
    let epsilon = epsilon_or_default(&cli)?;
    let threads = cli
        .value("--threads")
        .map_or(Ok(0), |s| parse_usize("--threads", s))?;
    let top = cli
        .value("--top")
        .map_or(Ok(10), |s| parse_usize("--top", s))?;

    let (bench, events) = obs::collect_classes(obs::Class::Span.bit(), || {
        experiment::reach_bench(
            &FtwcParams::new(n),
            &bounds,
            epsilon,
            threads,
            Kernel::Fused,
            Objective::Maximize,
        )
    });
    let bench = bench.map_err(runtime)?;
    let tree = obs::profile::SpanTree::build(&events);
    if tree.is_empty() {
        return Err(runtime("the workload produced no spans to profile"));
    }

    let folded_path = cli.value("--folded").unwrap_or("PROFILE.folded");
    std::fs::write(folded_path, tree.folded_stacks())
        .map_err(|e| runtime(format!("cannot write {folded_path}: {e}")))?;
    obs::info(|| format!("wrote {folded_path} (flamegraph folded-stack format)"));
    let chrome_path = cli.value("--chrome").unwrap_or("PROFILE.trace.json");
    std::fs::write(chrome_path, tree.chrome_trace())
        .map_err(|e| runtime(format!("cannot write {chrome_path}: {e}")))?;
    obs::info(|| format!("wrote {chrome_path} (chrome://tracing / Perfetto format)"));

    let spans = tree.top_spans(top);
    let total_self_ns: u64 = tree.top_spans(usize::MAX).iter().map(|s| s.3).sum();
    println!(
        "profile: FTWC N={n}, {} states, {} bounds, {} span(s) collected",
        bench.states,
        bounds.len(),
        tree.len()
    );
    println!(
        "{:<24} {:>7} {:>12} {:>12} {:>7}",
        "span", "calls", "total_ms", "self_ms", "self%"
    );
    for (name, calls, total_ns, self_ns) in spans {
        println!(
            "{name:<24} {calls:>7} {:>12.3} {:>12.3} {:>6.1}%",
            total_ns as f64 / 1e6,
            self_ns as f64 / 1e6,
            if total_self_ns == 0 {
                0.0
            } else {
                self_ns as f64 * 100.0 / total_self_ns as f64
            }
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// `unicon bench`: perf bookkeeping over `reach --json` payloads —
/// `speedup` composes BENCH_reach.json, `history` appends a
/// schema-versioned snapshot line, `diff` gates on the newest two
/// compatible snapshots.
fn cmd_bench(args: &[String]) -> Result<ExitCode, CliError> {
    match args.first().map(String::as_str) {
        Some("speedup") => cmd_bench_speedup(&args[1..]),
        Some("history") => cmd_bench_history(&args[1..]),
        Some("diff") => cmd_bench_diff(&args[1..]),
        Some(other) => Err(CliError::Usage(format!(
            "bench: unknown subcommand '{other}' (expected speedup, history or diff)"
        ))),
        None => Err(CliError::Usage(
            "bench needs a subcommand: speedup, history or diff".into(),
        )),
    }
}

fn cmd_bench_speedup(args: &[String]) -> Result<ExitCode, CliError> {
    let cli = parse_cli(args, &["--serial", "--parallel", "--out"], &["--json"])?;
    if let Some(extra) = cli.positional.first() {
        return Err(CliError::Usage(format!(
            "bench speedup: unexpected argument '{extra}'"
        )));
    }
    let serial_path = cli
        .value("--serial")
        .ok_or_else(|| CliError::Usage("bench speedup needs --serial <reach.json>".into()))?;
    let parallel_path = cli
        .value("--parallel")
        .ok_or_else(|| CliError::Usage("bench speedup needs --parallel <reach.json>".into()))?;
    let serial = std::fs::read_to_string(serial_path)
        .map_err(|e| runtime(format!("cannot read {serial_path}: {e}")))?;
    let parallel = std::fs::read_to_string(parallel_path)
        .map_err(|e| runtime(format!("cannot read {parallel_path}: {e}")))?;
    let json = perf::compose_speedup(&serial, &parallel).map_err(runtime)?;
    let out = cli.value("--out").unwrap_or("BENCH_reach.json");
    std::fs::write(out, format!("{json}\n"))
        .map_err(|e| runtime(format!("cannot write {out}: {e}")))?;
    obs::info(|| format!("wrote {out}"));
    if cli.has("--json") {
        println!("{json}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_bench_history(args: &[String]) -> Result<ExitCode, CliError> {
    let cli = parse_cli(args, &["--from", "--rev", "--file", "--scale-metric"], &[])?;
    if let Some(extra) = cli.positional.first() {
        return Err(CliError::Usage(format!(
            "bench history: unexpected argument '{extra}'"
        )));
    }
    let from = cli
        .value("--from")
        .ok_or_else(|| CliError::Usage("bench history needs --from <reach.json>".into()))?;
    let rev = cli
        .value("--rev")
        .ok_or_else(|| CliError::Usage("bench history needs --rev <identifier>".into()))?;
    let scale = match cli.value("--scale-metric") {
        None => 1.0,
        Some(s) => {
            let f = parse_f64("--scale-metric", s)?;
            if !f.is_finite() || f <= 0.0 {
                return Err(usage("--scale-metric", "must be a positive number"));
            }
            f
        }
    };
    let payload =
        std::fs::read_to_string(from).map_err(|e| runtime(format!("cannot read {from}: {e}")))?;
    let line =
        perf::snapshot_from_reach(&payload, rev, scale, &perf::Machine::this()).map_err(runtime)?;
    let file = cli.value("--file").unwrap_or("BENCH_HISTORY.jsonl");
    let mut history = std::fs::read_to_string(file).unwrap_or_default();
    if !history.is_empty() && !history.ends_with('\n') {
        history.push('\n');
    }
    history.push_str(&line);
    history.push('\n');
    std::fs::write(file, history).map_err(|e| runtime(format!("cannot write {file}: {e}")))?;
    obs::info(|| format!("appended snapshot '{rev}' to {file}"));
    Ok(ExitCode::SUCCESS)
}

fn cmd_bench_diff(args: &[String]) -> Result<ExitCode, CliError> {
    let cli = parse_cli(args, &["--file", "--threshold"], &[])?;
    if let Some(extra) = cli.positional.first() {
        return Err(CliError::Usage(format!(
            "bench diff: unexpected argument '{extra}'"
        )));
    }
    let threshold = match cli.value("--threshold") {
        None => 10.0,
        Some(s) => {
            let pct = parse_f64("--threshold", s)?;
            if !pct.is_finite() || pct < 0.0 {
                return Err(usage("--threshold", "must be a non-negative percentage"));
            }
            pct
        }
    };
    let file = cli.value("--file").unwrap_or("BENCH_HISTORY.jsonl");
    // a missing history file is an empty history: a fresh checkout has
    // no baseline yet, and that must not fail the gate
    let history = std::fs::read_to_string(file).unwrap_or_default();
    let outcome = perf::diff_history(&history, threshold).map_err(runtime)?;
    println!("{}", outcome.message);
    if let Some((base_rev, newest_rev, ratio)) = &outcome.compared {
        obs::debug(|| {
            format!("compared '{newest_rev}' against baseline '{base_rev}': {ratio:.4}x")
        });
    } else {
        obs::info(|| "no compatible baseline yet; gate passes vacuously".into());
    }
    if outcome.regression {
        Err(runtime("performance regression past the threshold"))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

// ---------------------------------------------------------------------------
// audit: certify the construction proof chain
// ---------------------------------------------------------------------------

/// `unicon audit`: either rebuild the FTWC through the certified
/// compositional route and replay every recorded obligation with the
/// independent checker (`--ftwc N`), or re-check a certificate file at
/// the record level (`--cert file.jsonl`). Nonzero exit when the chain
/// does not certify.
fn cmd_audit(args: &[String]) -> Result<ExitCode, CliError> {
    let cli = parse_cli(
        args,
        &["--ftwc", "--cert", "--cert-out", "--time", "--epsilon"],
        &["--json"],
    )?;
    if let Some(extra) = cli.positional.first() {
        return Err(CliError::Usage(format!(
            "audit: unexpected argument '{extra}'"
        )));
    }
    match (cli.value("--ftwc"), cli.value("--cert")) {
        (Some(_), Some(_)) => Err(CliError::Usage(
            "audit takes either --ftwc or --cert, not both".into(),
        )),
        (None, None) => Err(CliError::Usage(
            "audit needs --ftwc <N> or --cert <file.jsonl>".into(),
        )),
        (Some(nspec), None) => {
            let n = compositional_n("--ftwc", parse_cluster_size("--ftwc", nspec)?)?;
            audit_ftwc(&cli, n)
        }
        (None, Some(path)) => audit_cert_file(&cli, path),
    }
}

fn audit_ftwc(cli: &Cli<'_>, n: usize) -> Result<ExitCode, CliError> {
    let (prepared, obligations) = experiment::certified_prepare(&FtwcParams::new(n));
    obs::info(|| {
        format!(
            "FTWC N={n}: {} construction obligations on file, CTMDP {} states",
            obligations.len(),
            prepared.ctmdp.num_states()
        )
    });
    let mut outcome = certify(&obligations);

    // The model the analysis engines will consume must be the one the
    // ledger proves: the final transform witness pins its fingerprint.
    let witness_fp = obligations.iter().rev().find_map(|ob| match &ob.witness {
        Witness::Transform {
            ctmdp_fingerprint, ..
        } => Some(*ctmdp_fingerprint),
        _ => None,
    });
    let prepared_fp = prepared.ctmdp.fingerprint();
    let handoff_ok = witness_fp == Some(prepared_fp);
    if !handoff_ok {
        obs::error(|| {
            format!(
                "prepared CTMDP fingerprint {prepared_fp:016x} is not the one the \
                 ledger certifies ({witness_fp:?})"
            )
        });
    }

    // Optional conditioning for the query the user intends to run: is the
    // requested truncation error certifiable at E·t?
    if let Some(tspec) = cli.value("--time") {
        let t = parse_time("--time", tspec)?;
        let epsilon = epsilon_or_default(cli)?;
        outcome
            .report
            .merge(lint_truncation(&prepared.ctmdp, t, epsilon));
    }

    if let Some(out_path) = cli.value("--cert-out") {
        let recs = unicon::verify::certify::records(&obligations);
        std::fs::write(out_path, unicon::verify::certify::to_jsonl(&recs))
            .map_err(|e| runtime(format!("cannot write {out_path}: {e}")))?;
        obs::info(|| format!("wrote {} certificate records to {out_path}", recs.len()));
    }

    let certified = outcome.is_certified() && handoff_ok;
    if cli.has("--json") {
        // Splice the handoff verdict into the outcome's own JSON.
        let json = outcome.to_json();
        let rest = json
            .strip_prefix("{\"certified\":")
            .and_then(|r| r.split_once(','))
            .map(|(_, rest)| rest.to_owned())
            .unwrap_or_default();
        println!(
            "{{\"certified\":{certified},\"handoff_ok\":{handoff_ok},\
             \"ctmdp_fingerprint\":\"{prepared_fp:016x}\",{rest}"
        );
    } else {
        for s in &outcome.steps {
            if s.ok {
                println!("  ok   #{:<3} {:<14} {}", s.id, s.op, s.lemma);
            } else {
                println!("  FAIL #{:<3} {:<14} {}", s.id, s.op, s.lemma);
                for f in &s.failures {
                    println!("         - {f}");
                }
            }
        }
        for d in outcome.report.diagnostics() {
            println!("{d}");
        }
        println!(
            "{} of {} obligations verified; CTMDP fingerprint {prepared_fp:016x}",
            outcome.steps.iter().filter(|s| s.ok).count(),
            outcome.steps.len()
        );
    }
    if certified {
        obs::info(|| format!("FTWC N={n}: proof chain certified"));
        Ok(ExitCode::SUCCESS)
    } else {
        Err(runtime(format!(
            "audit failed: {} obligation(s) failed, {} chain error(s)",
            outcome.failed().len(),
            outcome.report.num_errors()
        )))
    }
}

fn audit_cert_file(cli: &Cli<'_>, path: &str) -> Result<ExitCode, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| runtime(format!("cannot read {path}: {e}")))?;
    let recs =
        unicon::verify::certify::parse_jsonl(&text).map_err(|e| runtime(format!("{path}: {e}")))?;
    let report = unicon::verify::certify::check_records(&recs);
    if cli.has("--json") {
        println!(
            "{{\"certified\":{},\"records\":{},\"report\":{}}}",
            !report.has_errors(),
            recs.len(),
            report.to_json()
        );
    } else {
        for d in report.diagnostics() {
            println!("{d}");
        }
        println!(
            "{path}: {} records, {} error(s), {} warning(s)",
            recs.len(),
            report.num_errors(),
            report.num_warnings()
        );
    }
    if report.has_errors() {
        Err(runtime(format!(
            "certificate re-check failed with {} error(s)",
            report.num_errors()
        )))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// `unicon det-lint`: scan the workspace's own sources for determinism
/// hazards. Findings are warnings; `--deny warnings` turns any finding
/// into a nonzero exit (the CI gate).
fn cmd_det_lint(args: &[String]) -> Result<ExitCode, CliError> {
    let cli = parse_cli(args, &["--root", "--deny"], &["--json"])?;
    if let Some(extra) = cli.positional.first() {
        return Err(CliError::Usage(format!(
            "det-lint: unexpected argument '{extra}'"
        )));
    }
    let deny_warnings = match cli.value("--deny") {
        None => false,
        Some("warnings") => true,
        Some(other) => return Err(usage("--deny", format!("'{other}' is not 'warnings'"))),
    };
    let root = std::path::Path::new(cli.value("--root").unwrap_or("."));
    if !root.join("crates").is_dir() && !root.join("src").is_dir() {
        return Err(usage(
            "--root",
            format!("{} does not look like the workspace root", root.display()),
        ));
    }
    let findings = srclint::scan_workspace(root);
    if cli.has("--json") {
        println!("{}", srclint::to_json(&findings));
    } else {
        for f in &findings {
            println!("{f}");
        }
        if findings.is_empty() {
            println!("det-lint clean");
        } else {
            println!("{} determinism hazard(s)", findings.len());
        }
    }
    if deny_warnings && !findings.is_empty() {
        Err(runtime(format!(
            "det-lint failed with {} finding(s) (--deny warnings)",
            findings.len()
        )))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}
