//! Textual IMC exchange format (CADP-compatible flavour).
//!
//! CADP's BCG graphs represent IMCs as ordinary LTSs whose Markov
//! transitions carry labels of the form `rate <λ>`. We read and write the
//! same convention on top of the Aldebaran (`.aut`) syntax, which makes the
//! models of this workspace exchangeable with the toolbox the paper's
//! experiments were built on.
//!
//! ```text
//! des (0, 3, 2)
//! (0, "fail", 1)
//! (0, "rate 0.002", 0)
//! (1, "rate 2", 0)
//! ```
//!
//! It is also the workspace's reader and writer for plain LTSs: an LTS is
//! the IMC without Markov transitions, so `to_aut(&Imc::from_lts(&lts))`
//! writes its ordinary Aldebaran file, and [`from_aut`] reads one.

use std::fmt::Write as _;

use crate::model::{Imc, ImcBuilder};

/// Error raised when parsing an IMC-AUT file fails.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseImcError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for ParseImcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "imc parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseImcError {}

/// Serializes an IMC in extended Aldebaran format (`rate λ` labels for
/// Markov transitions, `i` for τ).
///
/// # Examples
///
/// ```
/// use unicon_imc::{io, ImcBuilder};
///
/// let mut b = ImcBuilder::new(2, 0);
/// b.interactive("fail", 0, 1);
/// b.markov(1, 2.0, 0);
/// let text = io::to_aut(&b.build());
/// assert!(text.contains("\"rate 2\""));
/// ```
pub fn to_aut(imc: &Imc) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "des ({}, {}, {})",
        imc.initial(),
        imc.num_interactive() + imc.num_markov(),
        imc.num_states()
    )
    .expect("writing to a String cannot fail");
    for t in imc.interactive() {
        let name = imc.actions().name(t.action);
        let label = if t.action.is_tau() { "i" } else { name };
        writeln!(out, "({}, \"{}\", {})", t.source, label, t.target)
            .expect("writing to a String cannot fail");
    }
    for m in imc.markov() {
        writeln!(out, "({}, \"rate {}\", {})", m.source, m.rate, m.target)
            .expect("writing to a String cannot fail");
    }
    out
}

/// Parses an IMC from extended Aldebaran format.
///
/// Labels of the form `rate <positive float>` become Markov transitions,
/// `i` becomes τ, everything else is a visible interactive action.
///
/// # Errors
///
/// [`ParseImcError`] on malformed input.
pub fn from_aut(text: &str) -> Result<Imc, ParseImcError> {
    let err = |line: usize, message: String| ParseImcError { line, message };
    let mut lines = text.lines().enumerate();
    let (first_no, header) = lines
        .by_ref()
        .find(|(_, l)| !l.trim().is_empty())
        .ok_or_else(|| err(1, "empty input".into()))?;
    let header = header.trim();
    let body = header
        .strip_prefix("des")
        .and_then(|s| s.trim().strip_prefix('('))
        .and_then(|s| s.strip_suffix(')'))
        .ok_or_else(|| err(first_no + 1, "expected 'des (...)' header".into()))?;
    let parts: Vec<&str> = body.split(',').map(str::trim).collect();
    if parts.len() != 3 {
        return Err(err(first_no + 1, "des header needs three fields".into()));
    }
    let initial: u32 = parts[0]
        .parse()
        .map_err(|_| err(first_no + 1, "bad initial state".into()))?;
    let declared: usize = parts[1]
        .parse()
        .map_err(|_| err(first_no + 1, "bad transition count".into()))?;
    let num_states: usize = parts[2]
        .parse()
        .map_err(|_| err(first_no + 1, "bad state count".into()))?;
    if num_states == 0 || (initial as usize) >= num_states {
        return Err(err(first_no + 1, "bad state space".into()));
    }
    // State ids are `u32`, and so is every loop over them
    // (`0..num_states() as u32`): a count of 2^32 or more does not fit,
    // and only asks the builder for memory no model can use.
    if num_states > u32::MAX as usize {
        return Err(err(
            first_no + 1,
            format!("state count {num_states} does not fit the u32 state ids (at most 2^32 - 1)"),
        ));
    }

    let mut b = ImcBuilder::new(num_states, initial);
    let mut seen = 0usize;
    for (no, line) in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let inner = line
            .strip_prefix('(')
            .and_then(|s| s.strip_suffix(')'))
            .ok_or_else(|| err(no + 1, "expected '(from, \"label\", to)'".into()))?;
        let (from_str, rest) = inner
            .split_once(',')
            .ok_or_else(|| err(no + 1, "missing fields".into()))?;
        let (label_part, to_str) = rest
            .rsplit_once(',')
            .ok_or_else(|| err(no + 1, "missing fields".into()))?;
        let from: u32 = from_str
            .trim()
            .parse()
            .map_err(|_| err(no + 1, "bad source state".into()))?;
        let to: u32 = to_str
            .trim()
            .parse()
            .map_err(|_| err(no + 1, "bad target state".into()))?;
        if (from as usize) >= num_states || (to as usize) >= num_states {
            return Err(err(no + 1, "state out of range".into()));
        }
        let label = label_part.trim();
        let label = label
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .unwrap_or(label);
        if let Some(rate_str) = label.strip_prefix("rate ") {
            let rate: f64 = rate_str
                .trim()
                .parse()
                .map_err(|_| err(no + 1, format!("bad rate '{rate_str}'")))?;
            if !(rate.is_finite() && rate > 0.0) {
                return Err(err(no + 1, format!("rate must be positive, got {rate:e}")));
            }
            b.markov(from, rate, to);
        } else if label == "i" {
            b.tau(from, to);
        } else {
            b.interactive(label, from, to);
        }
        seen += 1;
    }
    if seen != declared {
        return Err(err(
            first_no + 1,
            format!("header promised {declared} transitions, found {seen}"),
        ));
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::View;

    fn sample() -> Imc {
        let mut b = ImcBuilder::new(3, 0);
        b.interactive("fail", 0, 1);
        b.tau(1, 2);
        b.markov(2, 0.5, 0);
        b.markov(2, 1.5, 1);
        b.markov(0, 2.0, 2);
        b.build()
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let m = sample();
        let text = to_aut(&m);
        let back = from_aut(&text).expect("own output parses");
        assert_eq!(back.num_states(), m.num_states());
        assert_eq!(back.num_interactive(), m.num_interactive());
        assert_eq!(back.num_markov(), m.num_markov());
        assert_eq!(back.rate(2, 1), 1.5);
        assert!(back.has_tau(1));
        assert_eq!(back.uniformity(View::Closed), m.uniformity(View::Closed));
    }

    #[test]
    fn rate_labels_are_emitted() {
        let text = to_aut(&sample());
        assert!(text.contains("\"rate 0.5\""));
        assert!(text.contains("\"rate 2\""));
        assert!(text.contains("\"i\""));
        assert!(text.contains("\"fail\""));
    }

    #[test]
    fn parse_rejects_nonpositive_rate() {
        let e = from_aut("des (0, 1, 2)\n(0, \"rate -1\", 1)\n").unwrap_err();
        assert!(e.message.contains("positive"));
    }

    #[test]
    fn parse_rejects_wrong_count() {
        assert!(from_aut("des (0, 2, 2)\n(0, \"a\", 1)\n").is_err());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(from_aut("").is_err());
        assert!(from_aut("not a header").is_err());
        assert!(from_aut("des (9, 0, 2)").is_err());
        assert!(from_aut("des (0, 1, 2)\n(0, \"rate abc\", 1)\n").is_err());
        // past the u32 state ids: rejected before anything is allocated
        for header in ["des (0, 0, 4294967296)", "des (0, 0, 4294967297)"] {
            let e = from_aut(header).unwrap_err();
            assert!(e.message.contains("2^32"), "{header}: {e}");
        }
    }

    #[test]
    fn action_named_like_rate_prefix_still_works() {
        // "rated" does not start with "rate " followed by a number space
        let m = from_aut("des (0, 1, 2)\n(0, \"rated\", 1)\n").expect("parses");
        assert_eq!(m.num_interactive(), 1);
        assert_eq!(m.num_markov(), 0);
    }

    #[test]
    fn multiset_markov_duplicates_roundtrip() {
        let mut b = ImcBuilder::new(2, 0);
        b.markov(0, 1.0, 1);
        b.markov(0, 1.0, 1);
        b.markov(1, 2.0, 0);
        let m = b.build();
        let back = from_aut(&to_aut(&m)).expect("parses");
        assert_eq!(back.num_markov(), 3);
        assert_eq!(back.rate(0, 1), 2.0);
    }
}
