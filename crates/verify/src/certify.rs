//! The independent certificate checker: replays construction obligations.
//!
//! `unicon-imc::audit` records what the certified construction operators
//! *claim* they did — the lemma invoked, clones of the inputs and the
//! output, uniform rates, and op-specific witness data. Nothing in those
//! [`Obligation`]s is trusted here. [`certify`] re-establishes every claim
//! against the recorded objects themselves:
//!
//! * **Replay**: `hide`, `relabel` and `parallel` are re-executed from the
//!   recorded inputs and the result compared to the recorded output by
//!   structural fingerprint; `transform` is replayed step by step through
//!   the full uIMC → uCTMDP trajectory (`transform_stepwise`, the oracle of
//!   the one-pass `transform` that recorded the obligation) and
//!   cross-checked against the witness CTMDP fingerprint.
//! * **Independent recomputation**: a `minimize` obligation's quotient map
//!   is checked for well-formedness and label refinement, its quotient is
//!   rebuilt, and the partition itself is recomputed with the *reference*
//!   refiner backend — not the worklist backend that produced it — and
//!   required to match exactly.
//! * **Rate arithmetic**: the uniform rates claimed at record time are
//!   recomputed from the objects, and the lemma's rate equation (`E_out =
//!   Σ E_in`, one operand for the unary operators) is re-verified under the
//!   workspace tolerance policy.
//! * **Chain linkage**: every non-leaf input must be the output of an
//!   earlier obligation (by fingerprint). A pipeline step executed
//!   off-ledger — e.g. a weak minimization, which is *not* a certified
//!   operation — breaks the chain and is reported as a [`Code::U015`]
//!   certificate gap.
//!
//! The result is an [`AuditOutcome`]: one [`StepVerdict`] per obligation
//! plus a [`Report`] of chain-level findings (U012 product-coverage
//! warnings from replayed compositions, U015 gaps).
//!
//! # Certificates on disk
//!
//! [`records`] summarizes obligations into flat [`CertRecord`]s —
//! fingerprints, rates and witness summaries, no models — which
//! [`to_jsonl`] serializes one-per-line and [`parse_jsonl`] reads back.
//! [`check_records`] re-validates a parsed certificate at the record level
//! (sequential ids, chain linkage, lemma rate arithmetic); it cannot replay
//! operations (the models are not in the file) but detects tampered or
//! truncated certificates.

use std::collections::HashSet;

use unicon_imc::audit::{lemma, with_recording, Obligation, Witness};
use unicon_imc::bisim::{self, Partition};
use unicon_imc::{Imc, Uniformity, View};
use unicon_numeric::rates_approx_eq;
use unicon_obs::json::{self, Value};

use crate::diag::{Code, Diagnostic, Report, Severity};
use crate::lints::lint_product;

/// The verdict on one obligation: either every re-established claim held,
/// or the list of claims that did not.
#[derive(Debug, Clone, PartialEq)]
pub struct StepVerdict {
    /// The obligation's sequence number.
    pub id: usize,
    /// The operation (`"hide"`, `"parallel"`, …).
    pub op: &'static str,
    /// The lemma tag the obligation invoked.
    pub lemma: &'static str,
    /// Whether every check passed.
    pub ok: bool,
    /// Human-readable descriptions of the failed checks.
    pub failures: Vec<String>,
}

/// The outcome of certifying an obligation ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditOutcome {
    /// One verdict per obligation, in ledger order.
    pub steps: Vec<StepVerdict>,
    /// Chain-level findings: U015 certificate gaps (errors) and U012
    /// product-coverage warnings from replayed compositions.
    pub report: Report,
}

impl AuditOutcome {
    /// Whether the whole chain certifies: every step's claims held and no
    /// error-level chain finding fired. Warnings (e.g. U012) are surfaced
    /// but do not revoke the certificate.
    pub fn is_certified(&self) -> bool {
        self.steps.iter().all(|s| s.ok) && !self.report.has_errors()
    }

    /// The steps that failed, in ledger order.
    pub fn failed(&self) -> Vec<&StepVerdict> {
        self.steps.iter().filter(|s| !s.ok).collect()
    }

    /// Renders the outcome as one JSON object (`certified`, `steps`,
    /// `report`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"certified\":");
        out.push_str(if self.is_certified() { "true" } else { "false" });
        out.push_str(",\"steps\":[");
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{},\"op\":\"{}\",\"lemma\":\"{}\",\"ok\":{},\"failures\":[",
                s.id, s.op, s.lemma, s.ok
            ));
            for (j, f) in s.failures.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json::write_str(f, &mut out);
            }
            out.push_str("]}");
        }
        out.push_str("],\"report\":");
        out.push_str(&self.report.to_json());
        out.push('}');
        out
    }
}

fn view_str(view: View) -> &'static str {
    match view {
        View::Open => "open",
        View::Closed => "closed",
    }
}

fn opt_rate_eq(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => rates_approx_eq(a, b),
        (None, None) => true,
        _ => false,
    }
}

/// Certifies an obligation ledger: replays every step, recomputes every
/// claim, and checks the fingerprint chain for gaps.
///
/// Replayed operations record nothing (an inner recording session swallows
/// and discards their obligations), so certifying inside an active
/// recording session is safe.
pub fn certify(obligations: &[Obligation]) -> AuditOutcome {
    let (outcome, _replay_obligations) = with_recording(|| certify_inner(obligations));
    outcome
}

fn certify_inner(obligations: &[Obligation]) -> AuditOutcome {
    let mut report = Report::new();
    let mut produced: HashSet<u64> = HashSet::new();
    let mut steps = Vec::with_capacity(obligations.len());
    for ob in obligations {
        let mut failures = claim_failures(ob, &mut report);
        for (k, input) in ob.inputs.iter().enumerate() {
            let fp = input.fingerprint();
            if !produced.contains(&fp) {
                report.push(
                    Diagnostic::new(
                        Code::U015,
                        Severity::Error,
                        format!(
                            "obligation #{} ({}): input {k} with fingerprint {fp:016x} was \
                             not produced by any earlier obligation — an off-ledger \
                             construction step broke the proof chain",
                            ob.id, ob.op
                        ),
                    )
                    .with_hint(
                        "only the certified operators (from_lts/from_ctmc, elapse, hide, \
                         relabel, parallel, branching minimize, transform) record \
                         obligations; route the pipeline through them or certify the \
                         missing step separately",
                    ),
                );
                failures.push(format!(
                    "input {k} fingerprint {fp:016x} has no producing obligation (U015)"
                ));
            }
        }
        produced.insert(ob.output.fingerprint());
        steps.push(StepVerdict {
            id: ob.id,
            op: ob.op,
            lemma: ob.lemma,
            ok: failures.is_empty(),
            failures,
        });
    }
    AuditOutcome { steps, report }
}

/// Re-establishes one obligation's claims; returns the failures. U012
/// product-coverage findings from replayed compositions go into `report`.
fn claim_failures(ob: &Obligation, report: &mut Report) -> Vec<String> {
    let mut f = Vec::new();

    // The recorded uniform rates must match what the objects actually say.
    for (i, (input, claimed)) in ob.inputs.iter().zip(&ob.input_rates).enumerate() {
        let actual = input.uniformity(ob.view).rate();
        if !opt_rate_eq(actual, *claimed) {
            f.push(format!(
                "input {i}: recorded uniform rate {claimed:?} but the object says {actual:?}"
            ));
        }
    }
    let actual_out = ob.output.uniformity(ob.view);
    if !opt_rate_eq(actual_out.rate(), ob.output_rate) {
        f.push(format!(
            "output: recorded uniform rate {:?} but the object says {:?}",
            ob.output_rate,
            actual_out.rate()
        ));
    }

    // The lemma's preservation claim: uniform inputs must yield a uniform
    // output, and when every rate is definite, E_out = Σ E_in.
    if !ob.inputs.is_empty() {
        let in_u: Vec<Uniformity> = ob.inputs.iter().map(|i| i.uniformity(ob.view)).collect();
        if in_u.iter().all(Uniformity::is_uniform) && !actual_out.is_uniform() {
            f.push(format!(
                "{}: uniform inputs produced a non-uniform output ({actual_out:?})",
                ob.lemma
            ));
        }
        let expected: Option<f64> = in_u.iter().map(Uniformity::rate).sum();
        if let (Some(expected), Some(actual)) = (expected, actual_out.rate()) {
            if !rates_approx_eq(expected, actual) {
                f.push(format!(
                    "{}: rate equation violated — inputs sum to {expected} but the \
                     output's uniform rate is {actual}",
                    ob.lemma
                ));
            }
        }
    }

    match &ob.witness {
        Witness::Lts => {
            if ob.output.num_markov() != 0 {
                f.push("from_lts output carries Markov transitions".into());
            }
        }
        Witness::Ctmc { ctmc_fingerprint } => {
            if ob.output.num_interactive() != 0 {
                f.push("from_ctmc output carries interactive transitions".into());
            }
            // The embedding copies the CTMC's triplets verbatim, so the
            // source chain's fingerprint is recomputable from the output.
            let mut h = unicon_numeric::fnv::Fnv64::new();
            h.write(b"ctmc-v1");
            h.write_u64(ob.output.num_states() as u64);
            h.write_u32(ob.output.initial());
            h.write_u64(ob.output.markov().len() as u64);
            for m in ob.output.markov() {
                h.write_u32(m.source);
                h.write_f64(m.rate);
                h.write_u32(m.target);
            }
            let recomputed = h.finish();
            if recomputed != *ctmc_fingerprint {
                f.push(format!(
                    "witness CTMC fingerprint {ctmc_fingerprint:016x} does not match the \
                     chain recomputed from the output ({recomputed:016x})"
                ));
            }
        }
        Witness::Elapse {
            rate,
            gate,
            restart,
            ..
        } => {
            check_constant_exit_rate(&ob.output, *rate, &mut f);
            for (what, name) in [("gate", gate), ("restart", restart)] {
                if ob.output.actions().lookup(name).is_none() {
                    f.push(format!(
                        "elapse {what} action `{name}` is absent from the output's alphabet"
                    ));
                }
            }
        }
        Witness::SharedElapse { rate } => {
            check_constant_exit_rate(&ob.output, *rate, &mut f);
        }
        Witness::Hide { hidden } => {
            let refs: Vec<&str> = hidden.iter().map(String::as_str).collect();
            let replay = ob.inputs[0].hide(&refs);
            if replay.fingerprint() != ob.output.fingerprint() {
                f.push(format!(
                    "replaying hide({hidden:?}) on the recorded input does not reproduce \
                     the recorded output"
                ));
            }
        }
        Witness::Relabel { map } => {
            let refs: Vec<(&str, &str)> =
                map.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
            let replay = ob.inputs[0].relabel(&refs);
            if replay.fingerprint() != ob.output.fingerprint() {
                f.push(format!(
                    "replaying relabel({map:?}) on the recorded input does not reproduce \
                     the recorded output"
                ));
            }
        }
        Witness::Parallel { sync } => {
            let refs: Vec<&str> = sync.iter().map(String::as_str).collect();
            let (replay, map) = ob.inputs[0].parallel_with_map(&ob.inputs[1], &refs);
            if replay.fingerprint() != ob.output.fingerprint() {
                f.push(format!(
                    "replaying parallel with sync set {sync:?} does not reproduce the \
                     recorded output"
                ));
            }
            report.merge(lint_product(
                ob.inputs[0].num_states(),
                ob.inputs[1].num_states(),
                &map,
            ));
        }
        Witness::Minimize {
            view,
            block,
            num_blocks,
            labels,
        } => check_minimize(ob, *view, block, *num_blocks, labels.as_deref(), &mut f),
        Witness::Transform {
            ctmdp_fingerprint,
            rate,
        } => {
            if !unicon_transform::is_strictly_alternating(&ob.output) {
                f.push("transform output is not strictly alternating".into());
            }
            match unicon_transform::transform_stepwise(&ob.inputs[0]) {
                Ok(replay) => {
                    if replay.strictly_alternating.fingerprint() != ob.output.fingerprint() {
                        f.push(
                            "replaying the transformation does not reproduce the recorded \
                             strictly alternating IMC"
                                .into(),
                        );
                    }
                    let replay_fp = replay.ctmdp.fingerprint();
                    if replay_fp != *ctmdp_fingerprint {
                        f.push(format!(
                            "witness CTMDP fingerprint {ctmdp_fingerprint:016x} does not \
                             match the replayed extraction ({replay_fp:016x})"
                        ));
                    }
                    if !opt_rate_eq(replay.ctmdp.uniform_rate().ok(), *rate) {
                        f.push(format!(
                            "witness CTMDP rate {rate:?} does not match the replayed \
                             CTMDP's uniform rate {:?}",
                            replay.ctmdp.uniform_rate().ok()
                        ));
                    }
                }
                Err(e) => f.push(format!(
                    "replaying the transformation on the recorded input failed: {e}"
                )),
            }
        }
    }
    f
}

/// Theorem-level claim of the elapse operators: *every* state carries the
/// full uniformization rate (not just the stable ones — that is what makes
/// Lemma 2's rate addition work in every product state).
fn check_constant_exit_rate(out: &Imc, rate: f64, f: &mut Vec<String>) {
    for s in 0..out.num_states() as u32 {
        if !rates_approx_eq(out.exit_rate(s), rate) {
            f.push(format!(
                "state {s} has exit rate {} instead of the witness rate {rate}",
                out.exit_rate(s)
            ));
            return;
        }
    }
}

/// Lemma 3: the witness partition must be a well-formed, label-refining
/// quotient map; rebuilding the quotient must reproduce the output; and an
/// independent recomputation with the reference refiner backend must yield
/// the *same* partition (the coarsest one — so the witness is neither too
/// coarse nor too fine).
fn check_minimize(
    ob: &Obligation,
    view: View,
    block: &[u32],
    num_blocks: usize,
    labels: Option<&[u32]>,
    f: &mut Vec<String>,
) {
    if view != ob.view {
        f.push(format!(
            "witness view {view:?} disagrees with the obligation's view {:?}",
            ob.view
        ));
    }
    let input = &ob.inputs[0];
    let n = input.num_states();
    if block.len() != n {
        f.push(format!(
            "quotient map covers {} states but the input has {n}",
            block.len()
        ));
        return;
    }
    let mut seen = vec![false; num_blocks];
    for (s, &b) in block.iter().enumerate() {
        if (b as usize) >= num_blocks {
            f.push(format!(
                "state {s} is mapped to block {b}, beyond the claimed {num_blocks} blocks"
            ));
            return;
        }
        seen[b as usize] = true;
    }
    if let Some(empty) = seen.iter().position(|&s| !s) {
        f.push(format!("block {empty} of the quotient map is empty"));
        return;
    }
    if let Some(labels) = labels {
        if labels.len() != n {
            f.push(format!(
                "label vector covers {} states but the input has {n}",
                labels.len()
            ));
            return;
        }
        // The partition must refine the labels: merged states agree.
        let mut label_of_block: Vec<Option<u32>> = vec![None; num_blocks];
        for (s, &b) in block.iter().enumerate() {
            match label_of_block[b as usize] {
                None => label_of_block[b as usize] = Some(labels[s]),
                Some(l) if l != labels[s] => {
                    f.push(format!(
                        "block {b} merges states with different labels {l} and {} — the \
                         quotient would conflate goal and non-goal states",
                        labels[s]
                    ));
                    return;
                }
                _ => {}
            }
        }
    }
    let part = Partition {
        block: block.to_vec(),
        num_blocks,
    };
    let replay = bisim::quotient(input, &part, view).restrict_to_reachable();
    if replay.fingerprint() != ob.output.fingerprint() {
        f.push(
            "rebuilding the quotient from the witness partition does not reproduce the \
             recorded output"
                .into(),
        );
    }
    // Independent recomputation: the reference backend (full resweep, not
    // the worklist refiner that produced the witness) must agree exactly.
    let independent = match labels {
        Some(labels) => {
            bisim::reference::stochastic_branching_bisimulation_labeled(input, view, labels)
        }
        None => bisim::reference::stochastic_branching_bisimulation(input, view),
    };
    if independent != part {
        f.push(format!(
            "the reference refiner computes a different partition ({} blocks) than the \
             witness ({num_blocks} blocks) — the witness is not the coarsest stochastic \
             branching bisimulation",
            independent.num_blocks
        ));
    }
}

// ---------------------------------------------------------------------------
// Certificates on disk: flat records, JSONL in, JSONL out.
// ---------------------------------------------------------------------------

/// One certificate record: the obligation's fingerprints, rates and witness
/// summary — everything needed for record-level re-checking, nothing that
/// needs the models themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct CertRecord {
    /// Sequence number (position in the ledger).
    pub id: usize,
    /// Operation name.
    pub op: String,
    /// Lemma tag.
    pub lemma: String,
    /// `"open"` or `"closed"`.
    pub view: String,
    /// Input fingerprints, 16 hex digits each.
    pub inputs: Vec<String>,
    /// Output fingerprint, 16 hex digits.
    pub output: String,
    /// Claimed input uniform rates.
    pub input_rates: Vec<Option<f64>>,
    /// Claimed output uniform rate.
    pub output_rate: Option<f64>,
    /// Witness kind tag (`"hide"`, `"minimize"`, …).
    pub witness_kind: String,
    /// Witness fingerprint (source CTMC, phase-type chain or extracted
    /// CTMDP), if the witness carries one.
    pub witness_fp: Option<String>,
    /// Witness rate (elapse/transform), if the witness carries one.
    pub witness_rate: Option<f64>,
    /// Witness action names (hidden/sync sets, relabel pairs as
    /// `"from->to"`, elapse gate/restart).
    pub witness_actions: Vec<String>,
    /// Number of quotient blocks (minimize witnesses).
    pub witness_blocks: Option<usize>,
}

fn fp_hex(fp: u64) -> String {
    format!("{fp:016x}")
}

/// Summarizes obligations into flat [`CertRecord`]s.
pub fn records(obligations: &[Obligation]) -> Vec<CertRecord> {
    obligations
        .iter()
        .map(|ob| {
            let (witness_fp, witness_rate, witness_actions, witness_blocks) = match &ob.witness {
                Witness::Lts => (None, None, Vec::new(), None),
                Witness::Ctmc { ctmc_fingerprint } => {
                    (Some(fp_hex(*ctmc_fingerprint)), None, Vec::new(), None)
                }
                Witness::Elapse {
                    rate,
                    gate,
                    restart,
                    phase_fingerprint,
                } => (
                    Some(fp_hex(*phase_fingerprint)),
                    Some(*rate),
                    vec![gate.clone(), restart.clone()],
                    None,
                ),
                Witness::SharedElapse { rate } => (None, Some(*rate), Vec::new(), None),
                Witness::Hide { hidden } => (None, None, hidden.clone(), None),
                Witness::Relabel { map } => (
                    None,
                    None,
                    map.iter().map(|(a, b)| format!("{a}->{b}")).collect(),
                    None,
                ),
                Witness::Parallel { sync } => (None, None, sync.clone(), None),
                Witness::Minimize { num_blocks, .. } => (None, None, Vec::new(), Some(*num_blocks)),
                Witness::Transform {
                    ctmdp_fingerprint,
                    rate,
                } => (Some(fp_hex(*ctmdp_fingerprint)), *rate, Vec::new(), None),
            };
            CertRecord {
                id: ob.id,
                op: ob.op.to_owned(),
                lemma: ob.lemma.to_owned(),
                view: view_str(ob.view).to_owned(),
                inputs: ob.inputs.iter().map(|i| fp_hex(i.fingerprint())).collect(),
                output: fp_hex(ob.output.fingerprint()),
                input_rates: ob.input_rates.clone(),
                output_rate: ob.output_rate,
                witness_kind: ob.witness.kind().to_owned(),
                witness_fp,
                witness_rate,
                witness_actions,
                witness_blocks,
            }
        })
        .collect()
}

fn push_opt_f64(out: &mut String, v: Option<f64>) {
    match v {
        Some(v) => out.push_str(&format!("{v}")),
        None => out.push_str("null"),
    }
}

/// Serializes records as JSON Lines: one record object per line.
pub fn to_jsonl(records: &[CertRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&format!(
            "{{\"id\":{},\"op\":\"{}\",\"lemma\":\"{}\",\"view\":\"{}\",\"inputs\":[",
            r.id, r.op, r.lemma, r.view
        ));
        for (i, fp) in r.inputs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(fp, &mut out);
        }
        out.push_str("],\"output\":");
        json::write_str(&r.output, &mut out);
        out.push_str(",\"input_rates\":[");
        for (i, rate) in r.input_rates.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_opt_f64(&mut out, *rate);
        }
        out.push_str("],\"output_rate\":");
        push_opt_f64(&mut out, r.output_rate);
        out.push_str(",\"witness\":{\"kind\":");
        json::write_str(&r.witness_kind, &mut out);
        out.push_str(",\"fp\":");
        match &r.witness_fp {
            Some(fp) => json::write_str(fp, &mut out),
            None => out.push_str("null"),
        }
        out.push_str(",\"rate\":");
        push_opt_f64(&mut out, r.witness_rate);
        out.push_str(",\"actions\":[");
        for (i, a) in r.witness_actions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(a, &mut out);
        }
        out.push_str("],\"blocks\":");
        match r.witness_blocks {
            Some(b) => out.push_str(&b.to_string()),
            None => out.push_str("null"),
        }
        out.push_str("}}\n");
    }
    out
}

fn get<'v>(obj: &'v Value, key: &str) -> Result<&'v Value, String> {
    obj.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn as_str(v: &Value, key: &str) -> Result<String, String> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        _ => Err(format!("field `{key}` is not a string")),
    }
}

fn as_opt_str(v: &Value, key: &str) -> Result<Option<String>, String> {
    match v {
        Value::Null => Ok(None),
        Value::Str(s) => Ok(Some(s.clone())),
        _ => Err(format!("field `{key}` is not a string or null")),
    }
}

fn as_opt_f64(v: &Value, key: &str) -> Result<Option<f64>, String> {
    match v {
        Value::Null => Ok(None),
        Value::Num(n) => Ok(Some(*n)),
        _ => Err(format!("field `{key}` is not a number or null")),
    }
}

/// Integers above 2⁵³ are not exact in a double, so they are rejected.
fn as_usize(v: &Value, key: &str) -> Result<usize, String> {
    const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    match v {
        Value::Num(n) if (0.0..=MAX_EXACT).contains(n) && n.fract() == 0.0 => Ok(*n as usize),
        _ => Err(format!(
            "field `{key}` is not a non-negative integer of at most 2^53"
        )),
    }
}

fn as_arr<'v>(v: &'v Value, key: &str) -> Result<&'v [Value], String> {
    match v {
        Value::Arr(items) => Ok(items),
        _ => Err(format!("field `{key}` is not an array")),
    }
}

/// Parses a JSONL certificate back into records.
///
/// # Errors
///
/// A description of the first malformed line.
pub fn parse_jsonl(text: &str) -> Result<Vec<CertRecord>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let obj = Value::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if !matches!(obj, Value::Obj(_)) {
            return Err(format!("line {}: record is not an object", lineno + 1));
        }
        let rec = (|| -> Result<CertRecord, String> {
            let witness = get(&obj, "witness")?;
            if !matches!(witness, Value::Obj(_)) {
                return Err("field `witness` is not an object".into());
            }
            Ok(CertRecord {
                id: as_usize(get(&obj, "id")?, "id")?,
                op: as_str(get(&obj, "op")?, "op")?,
                lemma: as_str(get(&obj, "lemma")?, "lemma")?,
                view: as_str(get(&obj, "view")?, "view")?,
                inputs: as_arr(get(&obj, "inputs")?, "inputs")?
                    .iter()
                    .map(|v| as_str(v, "inputs[]"))
                    .collect::<Result<_, _>>()?,
                output: as_str(get(&obj, "output")?, "output")?,
                input_rates: as_arr(get(&obj, "input_rates")?, "input_rates")?
                    .iter()
                    .map(|v| as_opt_f64(v, "input_rates[]"))
                    .collect::<Result<_, _>>()?,
                output_rate: as_opt_f64(get(&obj, "output_rate")?, "output_rate")?,
                witness_kind: as_str(get(witness, "kind")?, "witness.kind")?,
                witness_fp: as_opt_str(get(witness, "fp")?, "witness.fp")?,
                witness_rate: as_opt_f64(get(witness, "rate")?, "witness.rate")?,
                witness_actions: as_arr(get(witness, "actions")?, "witness.actions")?
                    .iter()
                    .map(|v| as_str(v, "witness.actions[]"))
                    .collect::<Result<_, _>>()?,
                witness_blocks: match get(witness, "blocks")? {
                    Value::Null => None,
                    v => Some(as_usize(v, "witness.blocks")?),
                },
            })
        })()
        .map_err(|e| format!("line {}: {e}", lineno + 1))?;
        out.push(rec);
    }
    Ok(out)
}

/// Record-level re-check of a certificate: sequential ids, well-formed
/// fingerprints and views, chain linkage (U015) and lemma rate arithmetic.
/// Cannot replay operations — the models are not in the file — but detects
/// tampered, truncated or re-ordered certificates.
pub fn check_records(records: &[CertRecord]) -> Report {
    let mut r = Report::new();
    let mut produced: HashSet<u64> = HashSet::new();
    for (i, rec) in records.iter().enumerate() {
        if rec.id != i {
            r.push(
                Diagnostic::new(
                    Code::U002,
                    Severity::Error,
                    format!(
                        "record {i} carries id {} — certificate re-ordered or truncated",
                        rec.id
                    ),
                )
                .with_hint("regenerate the certificate with `unicon audit --cert-out`"),
            );
        }
        if rec.view != "open" && rec.view != "closed" {
            r.push(Diagnostic::new(
                Code::U002,
                Severity::Error,
                format!("record {i}: unknown view `{}`", rec.view),
            ));
        }
        let mut fps = Vec::new();
        for (k, fp) in rec
            .inputs
            .iter()
            .chain(std::iter::once(&rec.output))
            .enumerate()
        {
            match u64::from_str_radix(fp, 16) {
                Ok(v) => fps.push(v),
                Err(_) => {
                    r.push(Diagnostic::new(
                        Code::U002,
                        Severity::Error,
                        format!("record {i}: fingerprint {k} (`{fp}`) is not 64-bit hex"),
                    ));
                }
            }
        }
        if fps.len() == rec.inputs.len() + 1 {
            for (k, &fp) in fps[..rec.inputs.len()].iter().enumerate() {
                if !produced.contains(&fp) {
                    r.push(
                        Diagnostic::new(
                            Code::U015,
                            Severity::Error,
                            format!(
                                "record {i} ({}): input {k} with fingerprint {fp:016x} was \
                                 not produced by any earlier record — certificate gap",
                                rec.op
                            ),
                        )
                        .with_hint(
                            "an off-ledger construction step (or a deleted record) broke \
                             the proof chain",
                        ),
                    );
                }
            }
            produced.insert(*fps.last().expect("output fingerprint parsed"));
        }
        if rec.input_rates.len() != rec.inputs.len() {
            r.push(Diagnostic::new(
                Code::U002,
                Severity::Error,
                format!(
                    "record {i}: {} input rates for {} inputs",
                    rec.input_rates.len(),
                    rec.inputs.len()
                ),
            ));
        }
        // Lemma rate arithmetic, from the record's own claims.
        if !rec.inputs.is_empty() {
            let expected: Option<f64> = rec.input_rates.iter().copied().sum();
            if let (Some(expected), Some(actual)) = (expected, rec.output_rate) {
                if !rates_approx_eq(expected, actual) {
                    r.push(
                        Diagnostic::new(
                            Code::U001,
                            Severity::Error,
                            format!(
                                "record {i} ({}, {}): claimed input rates sum to {expected} \
                                 but the claimed output rate is {actual}",
                                rec.op, rec.lemma
                            ),
                        )
                        .with_hint("the certificate's rate claims violate the lemma"),
                    );
                }
            }
        }
        // Leaf rate claims: the elapse witnesses pin the output rate.
        if (rec.witness_kind == "elapse" || rec.witness_kind == "shared_elapse")
            && !opt_rate_eq(rec.output_rate, rec.witness_rate)
        {
            r.push(Diagnostic::new(
                Code::U001,
                Severity::Error,
                format!(
                    "record {i} ({}): witness rate {:?} disagrees with the claimed output \
                     rate {:?}",
                    rec.op, rec.witness_rate, rec.output_rate
                ),
            ));
        }
        if rec.lemma == lemma::THEOREM1 && rec.witness_fp.is_none() {
            r.push(Diagnostic::new(
                Code::U002,
                Severity::Error,
                format!("record {i}: transform record without a CTMDP fingerprint"),
            ));
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicon_ctmc::PhaseType;
    use unicon_imc::elapse;
    use unicon_imc::ImcBuilder;
    use unicon_lts::LtsBuilder;

    fn pipeline() -> (Imc, Vec<Obligation>) {
        with_recording(|| {
            let mut b = LtsBuilder::new(2, 0);
            b.add("fail", 0, 1);
            b.add("repair", 1, 0);
            let component = Imc::from_lts(&b.build());
            let delay = PhaseType::exponential(0.5).uniformize_at_max();
            let constraint = elapse::elapse(&delay, "fail", "repair");
            let timed = constraint.parallel(&component, &["fail", "repair"]);
            let hidden = timed.hide(&["fail", "repair"]);
            bisim::minimize(&hidden, View::Open)
        })
    }

    #[test]
    fn clean_pipeline_certifies() {
        let (_, obligations) = pipeline();
        assert!(obligations.len() >= 5, "ops: {:?}", obligations.len());
        let outcome = certify(&obligations);
        assert!(
            outcome.is_certified(),
            "failures: {:#?}, report: {:?}",
            outcome.failed(),
            outcome.report.diagnostics()
        );
        assert!(outcome.to_json().contains("\"certified\":true"));
    }

    #[test]
    fn off_ledger_step_leaves_a_u015_gap() {
        let ((), obligations) = with_recording(|| {
            let mut b = ImcBuilder::new(3, 0);
            b.markov(0, 2.0, 1);
            b.markov(1, 2.0, 2);
            b.interactive("a", 2, 0);
            let m = b.build();
            // minimize_strong is intentionally uncertified: its output
            // enters the next op with no producing obligation.
            let reduced = bisim::minimize_strong(&m, View::Open);
            let _ = reduced.hide(&["a"]);
        });
        let outcome = certify(&obligations);
        assert!(!outcome.is_certified());
        assert!(outcome
            .report
            .diagnostics()
            .iter()
            .any(|d| d.code == Code::U015));
    }

    #[test]
    fn tampered_minimize_witness_is_rejected() {
        let (_, mut obligations) = pipeline();
        let idx = obligations
            .iter()
            .position(|o| matches!(o.witness, Witness::Minimize { .. }))
            .expect("pipeline minimizes");
        if let Witness::Minimize { block, .. } = &mut obligations[idx].witness {
            // Move one state into a different (existing) block.
            let n = block.len();
            block[n - 1] = (block[n - 1] + 1) % 2;
        }
        let outcome = certify(&obligations);
        assert!(!outcome.is_certified());
        assert!(!outcome.steps[idx].ok, "{:#?}", outcome.steps[idx]);
    }

    #[test]
    fn records_round_trip_through_jsonl() {
        let (_, obligations) = pipeline();
        let recs = records(&obligations);
        let text = to_jsonl(&recs);
        let parsed = parse_jsonl(&text).expect("parses");
        assert_eq!(parsed, recs);
        assert!(check_records(&parsed).is_clean());
    }

    #[test]
    fn truncated_certificate_fails_record_check() {
        let (_, obligations) = pipeline();
        let recs = records(&obligations);
        // Drop the first record: later inputs lose their producer.
        let report = check_records(&recs[1..]);
        assert!(report.has_errors());
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code == Code::U015 || d.code == Code::U002));
    }

    #[test]
    fn tampered_rate_claim_fails_record_check() {
        let (_, obligations) = pipeline();
        let mut recs = records(&obligations);
        let idx = recs
            .iter()
            .position(|r| r.op == "parallel")
            .expect("pipeline composes");
        recs[idx].output_rate = Some(recs[idx].output_rate.unwrap_or(1.0) * 3.0);
        let report = check_records(&recs);
        assert!(report.has_errors());
    }

    #[test]
    fn parser_rejects_garbage() {
        let (_, obligations) = pipeline();
        let text = to_jsonl(&records(&obligations)[..1]);
        let line = text.trim_end();
        assert!(parse_jsonl(line).is_ok());
        for bad in [
            "{\"id\":0".to_string(),
            "[]".into(),
            "{\"id\":0}".into(),
            format!("{line} x"),
            line.replacen("\"op\":\"", "\"op\":\"\u{1}", 1),
            line.replacen("\"id\":0", "\"id\":+0", 1),
            line.replacen("\"id\":0", "\"id\":1e300", 1),
            format!("{}{line}", "[".repeat(500_000)),
        ] {
            let head: String = bad.chars().take(80).collect();
            assert!(parse_jsonl(&bad).is_err(), "accepted {head:?}");
        }
        // `\b` is a valid escape, not garbage.
        let escaped = line.replacen("\"op\":\"", "\"op\":\"\\b", 1);
        let recs = parse_jsonl(&escaped).expect("\\b is a valid escape");
        assert!(recs[0].op.starts_with('\u{8}'));
    }
}
