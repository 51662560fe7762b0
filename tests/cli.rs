//! End-to-end tests of the `unicon` command-line binary.

use std::process::{Command, Output};

use unicon::obs::json::Value;

fn unicon() -> Command {
    Command::new(env!("CARGO_BIN_EXE_unicon"))
}

/// `(objective, value, iterations)` of the one query in the JSON report
/// that a plain `reach` run prints.
fn reach_answer(out: &Output) -> (String, f64, f64) {
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    let report = Value::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("JSON report");
    let Some(Value::Arr(queries)) = report.get("reach").and_then(|r| r.get("queries")) else {
        panic!("no queries in the report");
    };
    let [q] = queries.as_slice() else {
        panic!("{} queries in the report", queries.len());
    };
    let field = |key| q.get(key).expect("a query field");
    let objective = field("objective").as_str().expect("a string").to_string();
    let number = |key| field(key).as_f64().expect("a number");
    (objective, number("value"), number("iterations"))
}

/// A unique scratch path for a model file (no external tempfile crates).
fn model_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("unicon_cli_test_{name}_{}.aut", std::process::id()));
    p
}

/// The usage lists the eleven commands `main` dispatches, and each of
/// them is one: not the retired `analyze`, `ftwc` and `metrics`, whose
/// jobs `reach` and `serve`'s `metrics` verb do.
#[test]
fn help_prints_usage() {
    let out = unicon().arg("--help").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    let mut listed: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("  unicon "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    listed.dedup();
    assert_eq!(listed.len(), 11, "{listed:?}");
    for command in listed {
        let out = unicon()
            .args([command, "--no-such-flag"])
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{command}: {err}");
        assert!(!err.contains("unknown command"), "{command}: {err}");
    }
}

#[test]
fn unknown_command_fails() {
    let out = unicon().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
}

#[test]
fn check_reports_structure_and_uniformity() {
    let path = model_path("check");
    let model = "des (0, 3, 2)\n(0, \"go\", 1)\n(1, \"rate 2\", 0)\n(1, \"rate 1\", 1)\n";
    std::fs::write(&path, model).expect("write model");
    let out = unicon().arg("check").arg(&path).output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("2 states"));
    assert!(text.contains("Uniform(3.0)"));
    assert!(text.contains("Zeno-free: yes"));
    std::fs::remove_file(&path).ok();
}

/// A header whose state count is past the `u32` state ids is a typed
/// parse error (exit 1), not an allocation that aborts the process.
#[test]
fn check_rejects_a_state_count_past_the_u32_ids() {
    let path = model_path("huge_header");
    std::fs::write(&path, "des (0, 0, 4294967297)\n").expect("write model");
    let out = unicon().arg("check").arg(&path).output().expect("runs");
    std::fs::remove_file(&path).ok();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.starts_with("error: "), "{err}");
    assert!(err.contains("2^32"), "{err}");
}

#[test]
fn transform_and_analyze_roundtrip() {
    let path = model_path("analyze");
    // closed uniform model: decision state 0 chooses a fast (rate-2 to the
    // goal) or slow (rate-2 split) transition; state 3 is the goal region.
    let model = "des (0, 6, 4)\n\
                 (0, \"fast\", 1)\n\
                 (0, \"slow\", 2)\n\
                 (1, \"rate 2\", 3)\n\
                 (2, \"rate 1\", 3)\n\
                 (2, \"rate 1\", 0)\n\
                 (3, \"i\", 0)\n";
    std::fs::write(&path, model).expect("write model");

    let out = unicon().arg("transform").arg(&path).output().expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("CTMDP:"));
    assert!(text.contains("uniform (E = 2)"));

    let reach = |extra: &[&str]| {
        let out = unicon()
            .arg("reach")
            .arg(&path)
            .args(["--goal", "3", "--time-bounds", "1.0"])
            .args(extra)
            .output()
            .expect("runs");
        reach_answer(&out)
    };
    // max = take "fast": P = 1 - e^{-2}
    let (objective, p, iterations) = reach(&["--epsilon", "1e-9"]);
    assert_eq!(
        (objective.as_str(), p, iterations),
        ("max", 8.646647162834191e-1, 15.0)
    );
    let expect = 1.0 - (-2.0f64).exp();
    assert!((p - expect).abs() < 1e-6, "p = {p}, expect {expect}");

    // min = take "slow": strictly smaller
    let (objective, pmin, _) = reach(&["--min"]);
    assert_eq!(objective, "min");
    assert!(pmin < p);
    std::fs::remove_file(&path).ok();
}

#[test]
fn analyze_rejects_nonuniform_model() {
    let path = model_path("nonuniform");
    let model = "des (0, 2, 2)\n(0, \"rate 1\", 1)\n(1, \"rate 3\", 0)\n";
    std::fs::write(&path, model).expect("write model");
    let out = unicon()
        .arg("reach")
        .arg(&path)
        .args(["--goal", "1", "--time-bounds", "1.0"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("not uniform"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn lint_clean_model_exits_zero() {
    let path = model_path("lint_clean");
    // Closed uniform alternating model: no findings at all.
    let model = "des (0, 3, 2)\n(0, \"go\", 1)\n(1, \"rate 2\", 0)\n(1, \"rate 1\", 1)\n";
    std::fs::write(&path, model).expect("write model");
    let out = unicon().arg("lint").arg(&path).output().expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("lints clean"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn lint_nonuniform_model_reports_u001_and_fails() {
    let path = model_path("lint_u001");
    let model = "des (0, 2, 2)\n(0, \"rate 1\", 1)\n(1, \"rate 3\", 0)\n";
    std::fs::write(&path, model).expect("write model");
    let out = unicon().arg("lint").arg(&path).output().expect("runs");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("U001"), "stdout: {text}");
    assert!(text.contains("error"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn lint_deny_warnings_escalates() {
    let path = model_path("lint_deny");
    // Uniform, but state 2 is unreachable: a warning (U007), not an error.
    let model = "des (0, 3, 3)\n(0, \"rate 2\", 1)\n(1, \"rate 2\", 0)\n(2, \"rate 2\", 0)\n";
    std::fs::write(&path, model).expect("write model");
    let out = unicon().arg("lint").arg(&path).output().expect("runs");
    assert!(
        out.status.success(),
        "warnings alone must not fail: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("U007"), "stdout: {text}");

    let out = unicon()
        .args(["lint"])
        .arg(&path)
        .args(["--deny", "warnings"])
        .output()
        .expect("runs");
    assert!(!out.status.success(), "--deny warnings must fail the lint");
    std::fs::remove_file(&path).ok();
}

#[test]
fn lint_json_output_is_machine_readable() {
    let path = model_path("lint_json");
    let model = "des (0, 2, 2)\n(0, \"rate 1\", 1)\n(1, \"rate 3\", 0)\n";
    std::fs::write(&path, model).expect("write model");
    let out = unicon()
        .args(["lint"])
        .arg(&path)
        .arg("--json")
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"code\":\"U001\""), "stdout: {text}");
    assert!(text.contains("\"errors\":"), "stdout: {text}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn malformed_flags_are_usage_errors_with_exit_2() {
    // (args, expected fragment of the `error: <flag>: <reason>` line)
    let cases: &[(&[&str], &str)] = &[
        (
            &[
                "reach",
                "--ftwc",
                "1",
                "--time-bounds",
                "5",
                "--threads",
                "x",
            ],
            "--threads: 'x' is not a non-negative integer",
        ),
        (
            &[
                "reach",
                "--ftwc",
                "1",
                "--time-bounds",
                "5",
                "--epsilon",
                "nan",
            ],
            "--epsilon: must be in the open interval (0, 1)",
        ),
        (
            &[
                "reach",
                "--ftwc",
                "1",
                "--time-bounds",
                "5",
                "--epsilon",
                "2",
            ],
            "--epsilon",
        ),
        (
            &["reach", "--ftwc", "1", "--time-bounds", "-1"],
            "--time-bounds: time bound must be finite and non-negative",
        ),
        (
            &["reach", "--ftwc", "1", "--time-bounds", "inf"],
            "--time-bounds",
        ),
        (
            &["reach", "--ftwc", "1", "--time-bounds"],
            "--time-bounds: expects a value",
        ),
        (
            &[
                "reach",
                "--ftwc",
                "1",
                "--time-bounds",
                "5",
                "--frobnicate",
                "3",
            ],
            "--frobnicate: unknown flag",
        ),
        (
            &[
                "reach",
                "--ftwc",
                "1",
                "--time-bounds",
                "5",
                "--on-degrade",
                "fail",
            ],
            "--on-degrade: unknown flag",
        ),
        (
            &[
                "reach",
                "--ftwc",
                "1",
                "--time-bounds",
                "10",
                "--timeout",
                "1e300",
            ],
            "--timeout: 1e300 seconds is too long a time span",
        ),
        (
            &["serve", "--default-timeout", "1e300"],
            "--default-timeout: 1e300 seconds is too long a time span",
        ),
        (
            &["serve", "--idle-timeout", "1e300"],
            "--idle-timeout: 1e300 seconds is too long a time span",
        ),
        (
            &["serve", "--drain-grace", "1e300"],
            "--drain-grace: 1e300 seconds is too long a time span",
        ),
        (
            &[
                "reach",
                "--ftwc",
                "1",
                "--time-bounds",
                "5",
                "--checkpoint-every",
                "8",
            ],
            "--checkpoint-every: requires --checkpoint",
        ),
        (
            &["reach", "x.aut", "--goal", "0", "--time-bounds", "nan"],
            "--time-bounds: time bound must be finite and non-negative",
        ),
        (
            &["reach", "--ftwc", "-3", "--time-bounds", "1"],
            "--ftwc: '-3' is not a non-negative integer",
        ),
        (
            &["reach", "--ftwc", "0", "--time-bounds", "1"],
            "--ftwc: N must be at least 1",
        ),
        (&["profile", "--ftwc", "0"], "--ftwc: N must be at least 1"),
        (
            &["reach", "--ftwc", "9459", "--time-bounds", "1"],
            "--ftwc: N must be at most 9458, got 9459",
        ),
        (
            &["reach", "--ftwc", "100000", "--time-bounds", "1"],
            "--ftwc: N must be at most 9458",
        ),
        (&["reach", "x.aut", "--time-bounds", "1"], "needs --goal"),
        (&["analyze", "x.aut"], "unknown command 'analyze'"),
        (&["ftwc", "--n", "1"], "unknown command 'ftwc'"),
        (&["metrics", "--ftwc", "1"], "unknown command 'metrics'"),
        (&["profile", "--kernel", "fused"], "--kernel: unknown flag"),
        (&["paper"], "paper needs an experiment"),
        (&["paper", "table2"], "unknown experiment 'table2'"),
        (
            &["paper", "table1", "--max-n", "x"],
            "--max-n: 'x' is not a non-negative integer",
        ),
        (
            &["paper", "figure4", "--n", "0"],
            "--n: N must be at least 1",
        ),
        (
            &["audit", "--ftwc", "256"],
            "--ftwc: the compositional route supports N <= 255",
        ),
        (
            &["bench-build", "--n-list", "1,256"],
            "--n-list: the compositional route supports N <= 255",
        ),
        (
            &["paper", "route", "--max-n", "256"],
            "--max-n: the compositional route supports N <= 255",
        ),
    ];
    for (args, fragment) in cases {
        let out = unicon().args(*args).output().expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("error: "), "{args:?}: {err}");
        assert!(err.contains(fragment), "{args:?}: {err}");
    }
}

#[test]
fn budget_stop_exits_3_and_resume_completes_bitwise() {
    let dir = std::env::temp_dir();
    let ck = dir.join(format!("unicon_cli_partial_{}.ck", std::process::id()));
    let full = dir.join(format!("unicon_cli_full_{}.hex", std::process::id()));
    let resumed = dir.join(format!("unicon_cli_resumed_{}.hex", std::process::id()));

    let out = unicon()
        .args(["reach", "--ftwc", "1", "--time-bounds", "5"])
        .arg("--values-out")
        .arg(&full)
        .output()
        .expect("runs");
    assert!(out.status.success());

    // a budget that cannot finish: exit 3, checkpoint on disk, partial
    // bounds on stderr
    let out = unicon()
        .args([
            "reach",
            "--ftwc",
            "1",
            "--time-bounds",
            "5",
            "--max-iters",
            "2",
        ])
        .args(["--checkpoint"])
        .arg(&ck)
        .output()
        .expect("runs");
    assert_eq!(
        out.status.code(),
        Some(3),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("partial: stopped by max-iterations"), "{err}");
    assert!(err.contains("value at initial state is in ["), "{err}");
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"guarded\":true"), "{json}");
    assert!(json.contains("\"complete\":false"), "{json}");
    assert!(json.contains("\"stopped\":\"max-iterations\""), "{json}");

    // unbudgeted resume finishes and matches the uninterrupted dump
    let out = unicon()
        .args(["reach", "--ftwc", "1", "--time-bounds", "5", "--resume"])
        .arg(&ck)
        .arg("--values-out")
        .arg(&resumed)
        .output()
        .expect("runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let full_dump = std::fs::read(&full).expect("full dump written");
    let resumed_dump = std::fs::read(&resumed).expect("resumed dump written");
    assert_eq!(full_dump, resumed_dump, "resume must be bitwise identical");

    std::fs::remove_file(&ck).ok();
    std::fs::remove_file(&full).ok();
    std::fs::remove_file(&resumed).ok();
}

#[test]
fn resume_from_a_missing_checkpoint_is_a_runtime_error() {
    let out = unicon()
        .args(["reach", "--ftwc", "1", "--time-bounds", "5", "--resume"])
        .arg("/nonexistent/unicon_no_such.ck")
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("error: "), "{err}");
}

/// Whether `text` holds `len` or more consecutive ASCII digits.
fn has_digit_run(text: &str, len: usize) -> bool {
    text.as_bytes()
        .split(|b| !b.is_ascii_digit())
        .any(|run| run.len() >= len)
}

/// Time bounds whose `λ = E·t` is past the Fox–Glynn cap: infinite at
/// `t = 1e308`, 2·10³⁰⁰ at `1e300`, 2·10²⁰ at `1e20` (which the
/// underflow floor alone would admit), 8·10¹⁴ at `4e14` (whose weight
/// window alone would need gigabytes). Each is a runtime error with exit
/// 1 on `reach`'s plain and budgeted FTWC paths and on a model file,
/// never a panic (exit 101) or an allocation that grows until it fails.
/// So is an ε below the underflow floor, on both FTWC paths.
#[test]
fn time_bounds_past_the_weight_cap_are_runtime_errors() {
    let path = model_path("weight_cap");
    let model = "des (0, 2, 2)\n(0, \"rate 2\", 1)\n(1, \"rate 2\", 0)\n";
    std::fs::write(&path, model).expect("write model");
    let file = path.to_str().expect("a UTF-8 temp path");
    let fails_with = |args: &[&str], needle: &str| {
        let out = unicon().args(args).output().expect("runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.starts_with("error: "), "{args:?}: {err}");
        assert!(err.contains(needle), "{args:?}: {err}");
        err.into_owned()
    };
    for t in ["1e308", "1e300", "1e20", "4e14"] {
        let runs: [&[&str]; 3] = [
            &["reach", "--ftwc", "1", "--time-bounds", t],
            &[
                "reach",
                "--ftwc",
                "1",
                "--time-bounds",
                t,
                "--max-iters",
                "5",
            ],
            &["reach", file, "--goal", "1", "--time-bounds", t],
        ];
        for args in runs {
            let err = fails_with(args, "2^32");
            if t == "1e300" {
                // λ is printed in scientific notation, not as 301 digits
                assert!(err.contains("e300"), "{args:?}: {err}");
                assert!(!has_digit_run(&err, 20), "{args:?}: {err}");
            }
        }
    }
    // No weights either for an ε below the Fox–Glynn certifiable floor
    // (4.8e-17 at λ ≈ 2005): the plain and the budgeted engine take them
    // from one checked entry.
    let tiny = [
        "reach",
        "--ftwc",
        "1",
        "--time-bounds",
        "1000",
        "--epsilon",
        "1e-17",
    ];
    fails_with(&tiny, "underflow");
    fails_with(
        &[&tiny[..], &["--max-iters", "100000"]].concat(),
        "underflow",
    );
    std::fs::remove_file(&path).ok();
}

/// A timeout that a time span holds but whose deadline lies past what the
/// clock holds runs the guarded engine with no deadline: the run
/// completes.
#[test]
fn a_timeout_past_the_clock_runs_without_a_deadline() {
    let out = unicon()
        .args(["reach", "--ftwc", "1", "--time-bounds", "10"])
        .args(["--timeout", "1e19"])
        .output()
        .expect("runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"guarded\":true"), "{json}");
    assert!(json.contains("\"complete\":true"), "{json}");
}

/// Extreme floats from outside print in exponent form, not as hundreds
/// of digits: an ε below the underflow floor and a negative AUT rate.
#[test]
fn extreme_floats_print_in_exponent_form() {
    let path = model_path("huge_rate");
    std::fs::write(&path, "des (0, 1, 2)\n(0, \"rate -1e300\", 1)\n").expect("write model");
    let check = unicon().arg("check").arg(&path).output().expect("runs");
    std::fs::remove_file(&path).ok();
    let reach = unicon()
        .args(["reach", "--ftwc", "1", "--time-bounds", "10"])
        .args(["--epsilon", "1e-320"])
        .output()
        .expect("runs");
    for (out, needle) in [(check, "got -1e300"), (reach, "epsilon = 1e-320")] {
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{err}");
        assert!(err.contains(needle), "{err}");
        assert!(!has_digit_run(&err, 20), "{err}");
    }
}

/// `paper figure4` checks the CTMC's λ at every grid point before the
/// first one is computed: a Γ that takes a later point past 2^32 fails at
/// once, with no panic.
#[test]
fn figure4_checks_the_weight_cap_before_computing() {
    for gamma in ["1e300", "1e7"] {
        let start = std::time::Instant::now();
        let out = unicon()
            .args(["paper", "figure4", "--n", "1", "--gamma", gamma])
            .output()
            .expect("runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--gamma {gamma}: {err}");
        assert!(err.contains("2^32"), "--gamma {gamma}: {err}");
        if gamma == "1e300" {
            // λ = Γ·t = 5·10³⁰¹ at the grid point that fails first
            assert!(err.contains("got 5e301"), "--gamma {gamma}: {err}");
            assert!(!has_digit_run(&err, 20), "--gamma {gamma}: {err}");
        }
        assert!(
            start.elapsed().as_secs() < 30,
            "--gamma {gamma} computed points"
        );
    }
}

/// `reach --ftwc` answers the built-in case study's worst-case
/// P(premium lost within t).
#[test]
fn ftwc_subcommand_runs() {
    let out = unicon()
        .args(["reach", "--ftwc", "1", "--time-bounds", "10"])
        .output()
        .expect("runs");
    let (objective, p, iterations) = reach_answer(&out);
    assert_eq!(
        (objective.as_str(), p, iterations),
        ("max", 7.101551309872109e-5, 45.0)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.starts_with("{\"case_study\":\"ftwc\",\"n\":1,"),
        "{text}"
    );
}

#[test]
fn paper_subcommand_runs() {
    // (experiment, present in the N = 1 run, absent unless N = 2 ran)
    for (experiment, needle, n2_row) in [
        ("table1", "worst-case P(premium lost, 100 h)", "\n   2 |"),
        ("route", "comp states", "\n  2 |"),
    ] {
        let out = unicon()
            .args(["paper", experiment, "--max-n", "1"])
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{experiment}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains(needle), "{experiment}: {text}");
        assert!(
            !text.contains(n2_row),
            "{experiment} ignored --max-n: {text}"
        );
    }
}

/// `reach --residuals-out` writes a batch's rows grouped by query, steps
/// descending, and each query's rows are those of a run with its bound
/// alone, apart from the query column — however the batch iterates its
/// queries (one by one, or as lanes of one step loop).
#[test]
fn residuals_rows_match_single_bound_runs() {
    let dir = std::env::temp_dir();
    let run = |bounds: &str, tag: &str| {
        let path = dir.join(format!(
            "unicon_cli_residuals_{tag}_{}.csv",
            std::process::id()
        ));
        let out = unicon()
            .args([
                "reach",
                "--ftwc",
                "1",
                "--time-bounds",
                bounds,
                "--residuals-out",
            ])
            .arg(&path)
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let csv = std::fs::read_to_string(&path).expect("residuals written");
        std::fs::remove_file(&path).ok();
        let mut lines = csv.lines().map(str::to_string);
        assert_eq!(
            lines.next().as_deref(),
            Some("query,t,step,psi,residual,checksum")
        );
        lines
            .map(|l| {
                let (query, rest) = l.split_once(',').expect("a query column");
                (
                    query.parse::<usize>().expect("a query index"),
                    rest.to_string(),
                )
            })
            .collect::<Vec<_>>()
    };
    let batch = run("1,5,10", "batch");
    let mut expected = Vec::new();
    for (qi, t) in ["1", "5", "10"].into_iter().enumerate() {
        let alone = run(t, t);
        assert!(alone.len() > 1, "t = {t}");
        assert!(alone.iter().all(|(query, _)| *query == 0));
        expected.extend(alone.into_iter().map(|(_, rest)| (qi, rest)));
    }
    assert_eq!(batch, expected);
}
