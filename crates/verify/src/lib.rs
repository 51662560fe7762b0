//! Static model analysis: proves that *uniformity by construction*
//! actually held.
//!
//! The library's composition operators ([Lemmas 1–3 of the paper]) promise
//! that building models from uniform parts yields uniform results; the
//! transformation (Theorem 1) promises a strictly alternating IMC and a
//! uniform CTMDP. This crate re-checks those promises **after the fact**,
//! as a lint pass over finished models, and reports violations as
//! structured [`Diagnostic`]s instead of booleans:
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | U001 | error/warning | exit rates of reachable stable states differ (Definition 4) |
//! | U002 | error | cached rate sums disagree with recomputed ones |
//! | U003 | error | negative, NaN or infinite rate |
//! | U004 | warning | no reachable stable state under the closed view (model still open) |
//! | U005 | error | strict-alternation normal form violated (Section 4.1) |
//! | U006 | warning/info | reachable deadlock/absorbing state (`S_A ≠ ∅`) |
//! | U007 | warning | unreachable states |
//! | U008 | error/info | interactive cycle (Zeno) / pre-empted Markov rates |
//! | U009 | warning | rate spread exceeds Fox–Glynn resolution at default epsilon |
//! | U010 | warning | large τ-SCC makes per-state τ-closures quadratic |
//! | U011 | error | τ-divergence trap: maximal progress livelocks the model |
//! | U012 | warning | component states excluded from every product state |
//! | U013 | info | confluent τ-branches: spurious nondeterminism in a closed model |
//! | U014 | warning | epsilon below the Fox–Glynn certifiable floor at `E·t` |
//! | U015 | error | certificate gap: construction step with no obligation on file |
//!
//! A model "lints clean" when no errors **and** no warnings fire
//! ([`Report::is_clean`]); informational findings are always allowed.
//!
//! All rate comparisons use the workspace-wide tolerance policy
//! [`rates_approx_eq`] (re-exported from `unicon-numeric`), so the lints
//! can never disagree with the model types' own uniformity checks.
//!
//! Beyond the lint passes, [`certify()`] replays the obligation ledger that
//! the certified construction operators record (`unicon_imc::audit`) and
//! independently re-establishes every claim — the machine-checkable side
//! of "uniformity by construction". [`srclint`] is the companion *source*
//! lint: it scans this workspace's own code for determinism hazards
//! (hash-order iteration, wall-clock reads, naive float reductions on hot
//! paths) that would silently undermine replayability.
//!
//! # Examples
//!
//! ```
//! use unicon_imc::ImcBuilder;
//! use unicon_verify::{lint_imc, LintOptions};
//!
//! // A uniform closed model: ticks between two Markov states at rate 3,
//! // with an interactive decision in between.
//! let mut b = ImcBuilder::new(3, 0);
//! b.markov(0, 3.0, 1);
//! b.markov(1, 3.0, 2);
//! b.interactive("retry", 2, 0);
//! let report = lint_imc(&b.build(), &LintOptions::default());
//! assert!(report.is_clean());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certify;
mod diag;
mod lints;
pub mod srclint;

pub use certify::{certify, AuditOutcome, StepVerdict};
pub use diag::{Code, Diagnostic, Report, Severity};
pub use lints::{
    lint_alternation, lint_ctmc, lint_ctmdp, lint_imc, lint_product, lint_transform_output,
    lint_truncation, LintOptions,
};
// The shared tolerance policy all rate comparisons go through.
pub use unicon_numeric::{rate_tolerance, rates_approx_eq, RATE_RTOL};
