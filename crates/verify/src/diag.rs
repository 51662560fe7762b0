//! Diagnostic vocabulary: severities, codes, diagnostics and reports.

use std::fmt;

use unicon_obs::json;

/// How serious a diagnostic is.
///
/// Ordered: `Info < Warning < Error`, so [`Report::max_severity`] can be
/// compared against a threshold directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational — never affects cleanliness.
    Info,
    /// Suspicious but not necessarily wrong; fails `--deny warnings`.
    Warning,
    /// A property the analyses rely on is violated.
    Error,
}

impl Severity {
    /// Lower-case label, as printed in front of the code.
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The lint codes, each tied to a definition or lemma of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// Non-uniform exit rates at reachable stable states (Definition 4).
    U001,
    /// Internal rate-accounting inconsistency (cached vs. recomputed sums).
    U002,
    /// Ill-formed rate: negative, NaN or infinite.
    U003,
    /// Model is open under the closed view: no reachable stable state.
    U004,
    /// Strict-alternation normal form violated (Section 4.1, steps 1–3).
    U005,
    /// Reachable deadlock/absorbing state (the paper assumes `S_A = ∅`).
    U006,
    /// Unreachable states (dead weight; uniformity only quantifies over
    /// reachable states, so these may hide rate mismatches).
    U007,
    /// Zeno behaviour / pre-empted rates: interactive cycles (error) or
    /// Markov transitions that urgency makes unfirable (info).
    U008,
    /// Rate magnitudes spread wider than Fox–Glynn can resolve at the
    /// default epsilon: branch probabilities below the weights'
    /// floating-point floor silently contribute nothing.
    U009,
    /// A large τ-strongly-connected component: every state of the SCC
    /// reaches every other via internal steps, so per-state τ-closures
    /// (weak/branching signatures, maximal-progress analyses) each walk
    /// the whole component — quadratic blow-up in the SCC size.
    U010,
    /// A τ-divergence trap: a reachable τ-SCC no member of which offers a
    /// visible action or an interactive escape — maximal progress pre-empts
    /// every Markov rate forever, so the model livelocks in zero time.
    U011,
    /// Component states that appear in no reachable product state: the
    /// synchronization structurally excludes part of a component.
    U012,
    /// Spurious nondeterminism in a closed model: a state's τ-branches are
    /// confluent (they commit to the same stable states), so the
    /// nondeterminism is an artifact, not a real decision.
    U013,
    /// Fox–Glynn truncation risk: the requested epsilon is below what the
    /// weights can certify at the analysis's `E·t`.
    U014,
    /// Certificate gap: a pipeline object with no obligation on file — an
    /// off-ledger construction step broke the proof chain.
    U015,
}

impl Code {
    /// All codes, in order.
    pub const ALL: [Code; 15] = [
        Code::U001,
        Code::U002,
        Code::U003,
        Code::U004,
        Code::U005,
        Code::U006,
        Code::U007,
        Code::U008,
        Code::U009,
        Code::U010,
        Code::U011,
        Code::U012,
        Code::U013,
        Code::U014,
        Code::U015,
    ];

    /// The code as printed, e.g. `"U001"`.
    pub fn as_str(&self) -> &'static str {
        match self {
            Code::U001 => "U001",
            Code::U002 => "U002",
            Code::U003 => "U003",
            Code::U004 => "U004",
            Code::U005 => "U005",
            Code::U006 => "U006",
            Code::U007 => "U007",
            Code::U008 => "U008",
            Code::U009 => "U009",
            Code::U010 => "U010",
            Code::U011 => "U011",
            Code::U012 => "U012",
            Code::U013 => "U013",
            Code::U014 => "U014",
            Code::U015 => "U015",
        }
    }

    /// One-line description of what the code checks.
    pub fn summary(&self) -> &'static str {
        match self {
            Code::U001 => "non-uniform exit rates at reachable stable states",
            Code::U002 => "internal rate-accounting inconsistency",
            Code::U003 => "ill-formed rate (negative, NaN or infinite)",
            Code::U004 => "no reachable stable state under the closed view",
            Code::U005 => "strict-alternation normal form violated",
            Code::U006 => "reachable deadlock/absorbing state",
            Code::U007 => "unreachable states",
            Code::U008 => "interactive cycle (Zeno) or pre-empted Markov rates",
            Code::U009 => "rate spread exceeds Fox–Glynn resolution at default epsilon",
            Code::U010 => "large τ-SCC makes per-state τ-closures quadratic",
            Code::U011 => "τ-divergence trap: maximal progress livelocks the model",
            Code::U012 => "component states excluded from every product state",
            Code::U013 => "confluent τ-branches: spurious nondeterminism in a closed model",
            Code::U014 => "epsilon below the Fox–Glynn certifiable floor at E·t",
            Code::U015 => "certificate gap: construction step with no obligation on file",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: a code, a severity, an optional locus, a message and an
/// optional hint on how to fix it.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Which check fired.
    pub code: Code,
    /// How serious it is.
    pub severity: Severity,
    /// The state the finding is anchored at, if any.
    pub state: Option<u32>,
    /// The action label involved, if any.
    pub action: Option<String>,
    /// Human-readable description of the finding.
    pub message: String,
    /// Suggestion on how to repair the model.
    pub hint: Option<String>,
}

impl Diagnostic {
    /// Starts a diagnostic without locus or hint.
    pub fn new(code: Code, severity: Severity, message: impl Into<String>) -> Self {
        Self {
            code,
            severity,
            state: None,
            action: None,
            message: message.into(),
            hint: None,
        }
    }

    /// Anchors the diagnostic at a state.
    pub fn with_state(mut self, state: u32) -> Self {
        self.state = Some(state);
        self
    }

    /// Attaches an action label.
    pub fn with_action(mut self, action: impl Into<String>) -> Self {
        self.action = Some(action.into());
        self
    }

    /// Attaches a repair hint.
    pub fn with_hint(mut self, hint: impl Into<String>) -> Self {
        self.hint = Some(hint.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if let Some(s) = self.state {
            write!(f, " state {s}")?;
        }
        if let Some(a) = &self.action {
            write!(f, " action `{a}`")?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(h) = &self.hint {
            write!(f, " (hint: {h})")?;
        }
        Ok(())
    }
}

/// The outcome of a lint pass: an ordered list of diagnostics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty (clean) report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Appends every diagnostic of another report.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// The diagnostics, in the order the checks produced them.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Whether the model lints clean: no errors **and** no warnings
    /// (informational diagnostics are allowed).
    pub fn is_clean(&self) -> bool {
        self.max_severity() < Some(Severity::Warning)
    }

    /// Whether any error-level diagnostic fired.
    pub fn has_errors(&self) -> bool {
        self.max_severity() == Some(Severity::Error)
    }

    /// Number of error-level diagnostics.
    pub fn num_errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-level diagnostics.
    pub fn num_warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == sev)
            .count()
    }

    /// The most severe level present, `None` for an empty report.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Renders the report as a JSON object with a `diagnostics` array and
    /// summary counters — stable enough to be consumed by scripts.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"code\":\"");
            out.push_str(d.code.as_str());
            out.push_str("\",\"severity\":\"");
            out.push_str(d.severity.as_str());
            out.push_str("\",\"state\":");
            match d.state {
                Some(s) => out.push_str(&s.to_string()),
                None => out.push_str("null"),
            }
            out.push_str(",\"action\":");
            push_json_opt_str(&mut out, d.action.as_deref());
            out.push_str(",\"message\":");
            json::write_str(&d.message, &mut out);
            out.push_str(",\"hint\":");
            push_json_opt_str(&mut out, d.hint.as_deref());
            out.push('}');
        }
        out.push_str("],\"errors\":");
        out.push_str(&self.num_errors().to_string());
        out.push_str(",\"warnings\":");
        out.push_str(&self.num_warnings().to_string());
        out.push_str(",\"clean\":");
        out.push_str(if self.is_clean() { "true" } else { "false" });
        out.push('}');
        out
    }
}

fn push_json_opt_str(out: &mut String, s: Option<&str>) {
    match s {
        Some(s) => json::write_str(s, out),
        None => out.push_str("null"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_is_ordered() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn display_has_code_state_and_hint() {
        let d = Diagnostic::new(Code::U001, Severity::Error, "rates differ")
            .with_state(3)
            .with_hint("uniformize first");
        let s = d.to_string();
        assert_eq!(
            s,
            "error[U001] state 3: rates differ (hint: uniformize first)"
        );
    }

    #[test]
    fn report_counters_and_cleanliness() {
        let mut r = Report::new();
        assert!(r.is_clean());
        assert_eq!(r.max_severity(), None);
        r.push(Diagnostic::new(Code::U008, Severity::Info, "fyi"));
        assert!(r.is_clean());
        r.push(Diagnostic::new(Code::U006, Severity::Warning, "deadlock"));
        assert!(!r.is_clean());
        assert!(!r.has_errors());
        r.push(Diagnostic::new(Code::U003, Severity::Error, "NaN"));
        assert!(r.has_errors());
        assert_eq!(r.num_errors(), 1);
        assert_eq!(r.num_warnings(), 1);
        assert_eq!(r.max_severity(), Some(Severity::Error));
    }

    #[test]
    fn merge_concatenates() {
        let mut a = Report::new();
        a.push(Diagnostic::new(Code::U001, Severity::Error, "x"));
        let mut b = Report::new();
        b.push(Diagnostic::new(Code::U007, Severity::Warning, "y"));
        a.merge(b);
        assert_eq!(a.diagnostics().len(), 2);
    }

    #[test]
    fn json_escapes_and_counts() {
        let mut r = Report::new();
        r.push(
            Diagnostic::new(Code::U005, Severity::Error, "bad \"word\"\n")
                .with_state(1)
                .with_action("a.b"),
        );
        let j = r.to_json();
        assert!(j.contains("\"code\":\"U005\""));
        assert!(j.contains("\"severity\":\"error\""));
        assert!(j.contains("\"state\":1"));
        assert!(j.contains("\"action\":\"a.b\""));
        assert!(j.contains("bad \\\"word\\\"\\n"));
        assert!(j.contains("\"hint\":null"));
        assert!(j.contains("\"errors\":1"));
        assert!(j.contains("\"clean\":false"));
    }

    #[test]
    fn all_codes_have_distinct_names() {
        let names: std::collections::HashSet<&str> = Code::ALL.iter().map(|c| c.as_str()).collect();
        assert_eq!(names.len(), Code::ALL.len());
    }
}
