//! Determinism source lint: scans this workspace's own Rust sources for
//! constructs that would silently undermine replayability.
//!
//! The certificate checker ([`crate::certify()`]) leans on one assumption:
//! re-running a construction operator on the same inputs reproduces the
//! same output, bit for bit. That assumption is easy to break from the
//! source side — iterate a `HashMap` while accumulating floats and the
//! result depends on the allocator's whim; read the wall clock inside an
//! algorithm and replays diverge. This lint makes the assumption
//! enforceable in CI.
//!
//! # Rules
//!
//! | rule | scope | flags |
//! |------|-------|-------|
//! | `hash-iter` | hot paths | iterating a `HashMap`/`HashSet` (`.iter()`, `.keys()`, `.values()`, `.drain(…)`, `.into_iter()`, `for … in map`) — hash order is randomized per process |
//! | `clock` | hot paths | `Instant::now` / `SystemTime::now` — wall-clock reads inside numeric kernels |
//! | `float-sum` | hot paths | `.sum()` reductions — additive float folds must go through `NeumaierSum` |
//! | `rng` | everywhere | entropy-seeded randomness (`thread_rng`, `rand::random`, `from_entropy`) — only the seeded in-tree generator is allowed |
//!
//! *Hot paths* are the files where numeric results are produced (value
//! iteration, partition refinement, sparse kernels, transient analysis,
//! Theorem 1's transform and the CTMDP's rate-function pool);
//! elsewhere a `HashMap` loop or a timer read is ordinary engineering.
//! The `rng` rule has no such safe harbor.
//!
//! # Waivers
//!
//! A finding is suppressed by a comment on the same line or on the
//! directly preceding comment block:
//!
//! ```text
//! // det-lint: allow(hash-iter): drained into a Vec and sorted below.
//! for (k, v) in map { … }
//! ```
//!
//! Waivers name the rule they silence, so an allow for `clock` does not
//! blanket-suppress a `hash-iter` finding on the same line. Code after
//! the file's first `#[cfg(test)]` attribute is not scanned — tests may
//! time things and stress hash order freely.

use std::fs;
use std::path::{Path, PathBuf};

use unicon_obs::json;

/// Names of every lint rule, in report order.
pub const RULES: [&str; 4] = ["hash-iter", "clock", "float-sum", "rng"];

/// Files (workspace-relative, `/`-separated; trailing `/` means the whole
/// directory) whose numeric output must be reproducible bit for bit.
const HOT_PATHS: [&str; 12] = [
    "crates/ctmdp/src/model.rs",
    "crates/ctmdp/src/reachability.rs",
    "crates/ctmdp/src/par.rs",
    "crates/ctmdp/src/guard.rs",
    "crates/numeric/src/sum.rs",
    "crates/numeric/src/foxglynn.rs",
    "crates/numeric/src/special.rs",
    "crates/sparse/src/",
    "crates/ctmc/src/transient.rs",
    "crates/ctmc/src/steady.rs",
    "crates/imc/src/bisim/",
    "crates/transform/src/",
];

/// Whether a workspace-relative path is on the reproducibility-critical
/// hot list.
pub fn is_hot_path(rel: &str) -> bool {
    HOT_PATHS.iter().any(|h| {
        if h.ends_with('/') {
            rel.starts_with(h)
        } else {
            rel == *h
        }
    })
}

/// One determinism hazard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired (one of [`RULES`]).
    pub rule: &'static str,
    /// What was found and why it matters.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

// The patterns are assembled from halves so this file never matches its
// own pattern table when the workspace is scanned.
fn clock_patterns() -> [String; 2] {
    [
        concat!("Instant::", "now").to_owned(),
        concat!("SystemTime::", "now").to_owned(),
    ]
}

fn rng_patterns() -> [String; 4] {
    [
        concat!("thread_", "rng").to_owned(),
        concat!("rand::", "random").to_owned(),
        concat!("from_", "entropy").to_owned(),
        concat!("get", "random::").to_owned(),
    ]
}

fn float_sum_patterns() -> [String; 2] {
    [
        concat!(".su", "m()").to_owned(),
        concat!(".su", "m::<").to_owned(),
    ]
}

fn hash_iter_methods() -> [String; 5] {
    [
        concat!(".it", "er()").to_owned(),
        concat!(".ke", "ys()").to_owned(),
        concat!(".val", "ues()").to_owned(),
        concat!(".dr", "ain(").to_owned(),
        concat!(".into_it", "er()").to_owned(),
    ]
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The trailing identifier of `s`, if `s` ends with one.
fn trailing_ident(s: &str) -> Option<&str> {
    let end = s.trim_end();
    let start = end
        .char_indices()
        .rev()
        .take_while(|(_, c)| is_ident_char(*c))
        .last()?
        .0;
    let ident = &end[start..];
    if ident.is_empty() || ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(ident)
    }
}

/// Identifiers bound to `HashMap`/`HashSet` values in `lines` (before the
/// test cutoff): `let [mut] name: Hash…`, `let [mut] name = Hash…::`, and
/// struct fields `name: Hash…`.
fn hash_bound_names(lines: &[&str]) -> Vec<String> {
    let map_marker = concat!("Hash", "Map");
    let set_marker = concat!("Hash", "Set");
    let mut names = Vec::new();
    for line in lines {
        if !line.contains(map_marker) && !line.contains(set_marker) {
            continue;
        }
        let name = if let Some(pos) = line.find("let ") {
            let rest = line[pos + 4..].trim_start().trim_start_matches("mut ");
            rest.split(|c: char| !is_ident_char(c)).next()
        } else {
            // Struct field or closure parameter: `name: HashMap<…>`.
            let trimmed = line.trim_start().trim_start_matches("pub ");
            match trimmed.split_once(':') {
                Some((head, _)) if head.chars().all(is_ident_char) && !head.is_empty() => {
                    Some(head)
                }
                _ => None,
            }
        };
        if let Some(name) = name {
            if !name.is_empty() && !names.iter().any(|n| n == name) {
                names.push(name.to_owned());
            }
        }
    }
    names
}

/// Whether the finding on `lines[idx]` is waived for `rule` — by a marker
/// on the line itself or in the comment block directly above it.
fn is_waived(lines: &[&str], idx: usize, rule: &str) -> bool {
    let marker = format!("det-lint: allow({rule})");
    if lines[idx].contains(&marker) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let t = lines[i].trim_start();
        if t.starts_with("//") || t.starts_with("#[") {
            if t.contains(&marker) {
                return true;
            }
        } else {
            break;
        }
    }
    false
}

/// Scans one source text. `file` labels the findings; `hot` enables the
/// hot-path-only rules.
pub fn scan_source(file: &str, text: &str, hot: bool) -> Vec<Finding> {
    let all_lines: Vec<&str> = text.lines().collect();
    let cutoff_marker = concat!("#[cfg(te", "st)]");
    let cutoff = all_lines
        .iter()
        .position(|l| l.contains(cutoff_marker))
        .unwrap_or(all_lines.len());
    let lines = &all_lines[..cutoff];
    let mut findings = Vec::new();
    let mut push = |line: usize, rule: &'static str, message: String| {
        if !is_waived(lines, line, rule) {
            findings.push(Finding {
                file: file.to_owned(),
                line: line + 1,
                rule,
                message,
            });
        }
    };

    for (i, line) in lines.iter().enumerate() {
        let code = line.split("//").next().unwrap_or("");
        for p in rng_patterns() {
            if code.contains(&p) {
                push(
                    i,
                    "rng",
                    format!(
                        "entropy-seeded randomness (`{p}`) — use the seeded in-tree \
                         generator so runs replay"
                    ),
                );
            }
        }
        if !hot {
            continue;
        }
        for p in clock_patterns() {
            if code.contains(&p) {
                push(
                    i,
                    "clock",
                    format!(
                        "wall-clock read (`{p}`) on a hot path — results must not depend \
                         on timing"
                    ),
                );
            }
        }
        for p in float_sum_patterns() {
            if code.contains(&p) {
                push(
                    i,
                    "float-sum",
                    concat!(
                        "additive float reduction (`.su",
                        "m`) on a hot path — route it \
                         through `NeumaierSum` (or waive for integer sums)"
                    )
                    .to_owned(),
                );
            }
        }
    }

    if hot {
        let names = hash_bound_names(lines);
        if !names.is_empty() {
            for (i, line) in lines.iter().enumerate() {
                let code = line.split("//").next().unwrap_or("");
                // `for … in map` / `for … in &map` / `for … in &mut map`.
                if let Some(pos) = code.find(" in ") {
                    let subject = code[pos + 4..]
                        .trim_start()
                        .trim_start_matches('&')
                        .trim_start_matches("mut ");
                    let ident: String = subject.chars().take_while(|c| is_ident_char(*c)).collect();
                    let after = &subject[ident.len()..];
                    if names.contains(&ident)
                        && (after.is_empty() || after.starts_with(' ') || after.starts_with('{'))
                    {
                        push(
                            i,
                            "hash-iter",
                            format!(
                                "iterating hash collection `{ident}` — hash order is \
                                 randomized per process"
                            ),
                        );
                    }
                }
                for m in hash_iter_methods() {
                    let mut from = 0;
                    while let Some(off) = code[from..].find(&m) {
                        let pos = from + off;
                        from = pos + m.len();
                        // The receiver: trailing identifier before the call,
                        // or — for a continuation line starting with `.` —
                        // the previous line's trailing identifier.
                        let receiver = match trailing_ident(&code[..pos]) {
                            Some(r) => Some(r.to_owned()),
                            None if code[..pos].trim().is_empty() && i > 0 => {
                                trailing_ident(lines[i - 1].split("//").next().unwrap_or(""))
                                    .map(str::to_owned)
                            }
                            None => None,
                        };
                        if let Some(r) = receiver {
                            if names.contains(&r) {
                                push(
                                    i,
                                    "hash-iter",
                                    format!(
                                        "iterating hash collection `{r}` via `{m}` — hash \
                                         order is randomized per process"
                                    ),
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Scans the workspace rooted at `root`: every `crates/*/src` tree plus
/// the root `src/`. The walk order is sorted, so output is deterministic.
pub fn scan_workspace(root: &Path) -> Vec<Finding> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates) {
        let mut members: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        members.sort();
        for m in members {
            collect_rs(&m.join("src"), &mut files);
        }
    }
    collect_rs(&root.join("src"), &mut files);

    let mut findings = Vec::new();
    for path in files {
        let rel: String = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        findings.extend(scan_source(&rel, &text, is_hot_path(&rel)));
    }
    findings
}

/// Renders findings as one JSON object:
/// `{"findings":[{"file":…,"line":…,"rule":…,"message":…}],"count":N}`.
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"file\":");
        json::write_str(&f.file, &mut out);
        out.push_str(&format!(
            ",\"line\":{},\"rule\":\"{}\",\"message\":",
            f.line, f.rule
        ));
        json::write_str(&f.message, &mut out);
        out.push('}');
    }
    out.push_str(&format!("],\"count\":{}}}", findings.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_fires_on_hot_paths_only() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(scan_source("a.rs", src, true).len(), 1);
        assert!(scan_source("a.rs", src, false).is_empty());
    }

    #[test]
    fn rng_fires_everywhere() {
        let src = "fn f() { let mut rng = rand::thread_rng(); }\n";
        let cold = scan_source("a.rs", src, false);
        assert_eq!(cold.len(), 1);
        assert_eq!(cold[0].rule, "rng");
    }

    #[test]
    fn hash_iteration_is_traced_to_the_binding() {
        let src = "\
fn f() {
    let mut m: HashMap<u32, f64> = HashMap::new();
    let v: Vec<u32> = vec![];
    for (k, _) in &m {}
    let _ = v.iter().count();
    let _ = m.keys().count();
}
";
        let findings = scan_source("a.rs", src, true);
        assert_eq!(findings.len(), 2, "{findings:#?}");
        assert!(findings.iter().all(|f| f.rule == "hash-iter"));
        assert_eq!(findings[0].line, 4);
        assert_eq!(findings[1].line, 6);
    }

    #[test]
    fn continuation_line_receiver_is_resolved() {
        let src = "\
fn f() {
    let mut m: HashMap<u32, f64> = HashMap::new();
    let v: Vec<(u32, f64)> = m
        .into_iter()
        .collect();
}
";
        let findings = scan_source("a.rs", src, true);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!(findings[0].line, 4);
    }

    #[test]
    fn waiver_silences_only_the_named_rule() {
        let src = "\
fn f() {
    // det-lint: allow(hash-iter): sorted right after.
    let mut m: HashMap<u32, f64> = HashMap::new();
    for (k, _) in &m {}
}
";
        // The waiver is two lines above the loop, separated by code: it
        // must NOT apply.
        assert_eq!(scan_source("a.rs", src, true).len(), 1);
        let adjacent = "\
fn f() {
    let mut m: HashMap<u32, f64> = HashMap::new();
    // det-lint: allow(hash-iter): sorted right after.
    for (k, _) in &m {}
}
";
        assert!(scan_source("a.rs", adjacent, true).is_empty());
        let wrong_rule = "\
fn f() {
    let mut m: HashMap<u32, f64> = HashMap::new();
    // det-lint: allow(clock): wrong rule.
    for (k, _) in &m {}
}
";
        assert_eq!(scan_source("a.rs", wrong_rule, true).len(), 1);
    }

    #[test]
    fn test_modules_are_not_scanned() {
        let src = "\
fn f() {}
#[cfg(test)]
mod tests {
    fn g() { let t = Instant::now(); }
}
";
        assert!(scan_source("a.rs", src, true).is_empty());
    }

    #[test]
    fn float_sum_fires_and_comments_do_not() {
        let src = "fn f(xs: &[f64]) -> f64 { xs.iter().sum() } // .sum() in a comment\n";
        let findings = scan_source("a.rs", src, true);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "float-sum");
    }

    #[test]
    fn workspace_scan_is_clean() {
        // The real tree must have zero unwaived findings — this is the
        // same gate ci.sh enforces via `unicon det-lint`.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = scan_workspace(&root);
        assert!(
            findings.is_empty(),
            "determinism hazards in the tree:\n{}",
            findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn json_rendering_escapes() {
        let f = vec![Finding {
            file: "a\"b.rs".into(),
            line: 3,
            rule: "rng",
            message: "x".into(),
        }];
        let json = to_json(&f);
        assert!(json.contains("a\\\"b.rs"));
        assert!(json.ends_with("\"count\":1}"));
    }
}
