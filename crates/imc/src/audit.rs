//! Construction audits and the proof-obligation ledger.
//!
//! Two layers share this module:
//!
//! 1. **Debug assertions** (`preserves_uniformity`): the paper's
//!    uniformity-preservation lemmas (Lemma 1 for hiding, Lemma 2 for
//!    parallel composition, Lemma 3 for bisimulation minimization) restated
//!    as executable post-conditions. In release builds they compile to
//!    nothing; in debug builds a violated lemma panics at the operator that
//!    broke it.
//! 2. **The obligation ledger** ([`with_recording`], [`Obligation`]): an
//!    always-available, release-mode promotion of the same claims. While a
//!    recording session is active, every certified construction operation —
//!    `from_lts`/`from_ctmc`, `elapse`/`shared_elapse`, `hide`/`hide_all`,
//!    `relabel`, `parallel`, branching-bisimulation `minimize`, and the
//!    uIMC → uCTMDP `transform` — appends a typed [`Obligation`]: the lemma
//!    invoked, clones of the input and output objects, the uniform rates
//!    claimed at record time, and op-specific witness data (hidden-action
//!    sets, synchronization sets, quotient maps, exit rates). The
//!    *independent* checker lives in `unicon-verify::certify`; this module
//!    only records what happened.
//!
//! Operations **not** in the certified set above (e.g. weak or strong
//! minimization, `apply_pre_emption`) record nothing. Running one inside a
//! recorded pipeline therefore leaves a fingerprint gap between consecutive
//! obligations, which the checker reports as a `U015` certificate-gap
//! finding — off-ledger construction steps are detected, not silently
//! trusted.
//!
//! Recording is thread-local and opt-in, so the hot compositional paths pay
//! nothing (one branch per operation) unless an audit is running.

use std::cell::RefCell;

use crate::model::{Imc, View};

/// Lemma tags attached to obligations, as serialized into certificates.
pub mod lemma {
    /// A construction leaf: no inputs, nothing to preserve.
    pub const LEAF: &str = "leaf";
    /// The elapse operator is uniform at the phase-type's uniformization
    /// rate (Section 3.3 of the paper).
    pub const ELAPSE: &str = "elapse-uniform";
    /// Lemma 1: hiding preserves uniformity.
    pub const LEMMA1: &str = "lemma1-hide";
    /// Relabelling does not touch Markov transitions, hence preserves
    /// uniformity trivially (remark after Lemma 1).
    pub const RELABEL: &str = "relabel-invariant";
    /// Lemma 2: parallel composition is uniform at the sum of the rates.
    pub const LEMMA2: &str = "lemma2-parallel";
    /// Lemma 3 / Corollary 1: bisimulation quotients preserve uniformity.
    pub const LEMMA3: &str = "lemma3-minimize";
    /// Theorem 1: the uIMC → uCTMDP transformation preserves
    /// scheduler-indexed path measures (and the uniform rate).
    pub const THEOREM1: &str = "theorem1-transform";
}

/// Op-specific witness data carried by an [`Obligation`].
#[derive(Debug, Clone, PartialEq)]
pub enum Witness {
    /// `from_lts`: an LTS embedding, uniform with rate `E = 0`.
    Lts,
    /// `from_ctmc`: a CTMC embedding (no interactive transitions).
    Ctmc {
        /// Structural fingerprint of the source CTMC.
        ctmc_fingerprint: u64,
    },
    /// `elapse`: the exit-rate witness is the uniformization rate every
    /// state of the constraint must carry.
    Elapse {
        /// The phase-type's uniformization rate `E`.
        rate: f64,
        /// The gated action `f`.
        gate: String,
        /// The restart action `r`.
        restart: String,
        /// Fingerprint of the uniformized phase-type chain.
        phase_fingerprint: u64,
    },
    /// `shared_elapse`: one shared timer, constant exit rate `E`.
    SharedElapse {
        /// The shared uniformization rate `E`.
        rate: f64,
    },
    /// `hide` / `hide_all`: the set of action names internalized.
    Hide {
        /// The hidden action names, exactly as requested.
        hidden: Vec<String>,
    },
    /// `relabel`: the `(from, to)` renaming pairs.
    Relabel {
        /// The renaming map, in call order.
        map: Vec<(String, String)>,
    },
    /// `parallel`: the synchronization set.
    Parallel {
        /// The synchronized action names.
        sync: Vec<String>,
    },
    /// `minimize` / `minimize_labeled`: the quotient map.
    Minimize {
        /// The view the quotient was taken under.
        view: View,
        /// `block[s]` is the block of input state `s`.
        block: Vec<u32>,
        /// Number of blocks.
        num_blocks: usize,
        /// The initial per-state labels the partition had to respect,
        /// `None` for unlabeled minimization.
        labels: Option<Vec<u32>>,
    },
    /// `transform`: Theorem 1, linking the strictly alternating IMC (the
    /// obligation's output) to the extracted CTMDP.
    Transform {
        /// Structural fingerprint of the extracted CTMDP.
        ctmdp_fingerprint: u64,
        /// The CTMDP's uniform rate, if definite.
        rate: Option<f64>,
    },
}

impl Witness {
    /// A short stable tag naming the witness kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Witness::Lts => "lts",
            Witness::Ctmc { .. } => "ctmc",
            Witness::Elapse { .. } => "elapse",
            Witness::SharedElapse { .. } => "shared_elapse",
            Witness::Hide { .. } => "hide",
            Witness::Relabel { .. } => "relabel",
            Witness::Parallel { .. } => "parallel",
            Witness::Minimize { .. } => "minimize",
            Witness::Transform { .. } => "transform",
        }
    }
}

/// One recorded construction step: the operation, the lemma it leans on,
/// clones of the objects involved, the uniform rates claimed at record
/// time, and the op-specific [`Witness`].
///
/// Obligations are *claims*, not proofs: nothing here is trusted until
/// `unicon-verify::certify` replays the step against the recorded objects.
#[derive(Debug, Clone)]
pub struct Obligation {
    /// Sequence number within the recording session (0-based).
    pub id: usize,
    /// The operation name (`"hide"`, `"parallel"`, …).
    pub op: &'static str,
    /// The lemma tag (see [`lemma`]).
    pub lemma: &'static str,
    /// The view the lemma's uniformity claim is made under.
    pub view: View,
    /// Clones of the input models (empty for leaves).
    pub inputs: Vec<Imc>,
    /// A clone of the output model.
    pub output: Imc,
    /// The inputs' uniform rates under `view` at record time
    /// (`None` = vacuous or non-uniform).
    pub input_rates: Vec<Option<f64>>,
    /// The output's uniform rate under `view` at record time.
    pub output_rate: Option<f64>,
    /// Op-specific witness data.
    pub witness: Witness,
}

thread_local! {
    static LEDGER: RefCell<Option<Vec<Obligation>>> = const { RefCell::new(None) };
}

/// Whether an obligation-recording session is active on this thread.
pub fn is_recording() -> bool {
    LEDGER.with(|l| l.borrow().is_some())
}

/// Runs `f` with obligation recording enabled on this thread and returns
/// its result together with the recorded obligations, in construction
/// order.
///
/// Sessions nest: an inner `with_recording` records into its own ledger
/// and restores the outer one (untouched) when it finishes — including on
/// unwind.
pub fn with_recording<T>(f: impl FnOnce() -> T) -> (T, Vec<Obligation>) {
    struct Restore(Option<Vec<Obligation>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            LEDGER.with(|l| *l.borrow_mut() = self.0.take());
        }
    }
    let prev = LEDGER.with(|l| l.borrow_mut().replace(Vec::new()));
    let guard = Restore(prev);
    let result = f();
    let recorded = LEDGER
        .with(|l| l.borrow_mut().replace(Vec::new()))
        .unwrap_or_default();
    drop(guard);
    (result, recorded)
}

/// Appends an obligation to the active ledger; a no-op (without cloning
/// anything) when no recording session is active.
///
/// Called by the certified construction operators of this crate and by
/// `unicon-transform`; not intended for direct use elsewhere.
pub fn record(
    op: &'static str,
    lemma: &'static str,
    view: View,
    inputs: &[&Imc],
    output: &Imc,
    witness: Witness,
) {
    if !is_recording() {
        return;
    }
    let input_rates = inputs.iter().map(|i| i.uniformity(view).rate()).collect();
    let output_rate = output.uniformity(view).rate();
    LEDGER.with(|l| {
        if let Some(ledger) = l.borrow_mut().as_mut() {
            let id = ledger.len();
            ledger.push(Obligation {
                id,
                op,
                lemma,
                view,
                inputs: inputs.iter().map(|i| (*i).clone()).collect(),
                output: output.clone(),
                input_rates,
                output_rate,
                witness,
            });
        }
    });
}

/// Asserts the lemma "if every input is uniform under `view`, so is the
/// output — and the output rate (when definite) is the sum of the definite
/// input rates" (a sum with one operand for the unary operators).
///
/// No-op in release builds; the release-mode counterpart is the obligation
/// ledger above, checked by `unicon-verify::certify`.
#[inline]
pub(crate) fn preserves_uniformity(op: &str, view: View, inputs: &[&Imc], output: &Imc) {
    if cfg!(debug_assertions) {
        let in_u: Vec<_> = inputs.iter().map(|i| i.uniformity(view)).collect();
        if in_u.iter().all(|u| u.is_uniform()) {
            let out = output.uniformity(view);
            assert!(
                out.is_uniform(),
                "{op} violated uniformity by construction: \
                 inputs {in_u:?}, output {out:?}"
            );
            let expected: Option<f64> = in_u.iter().map(|u| u.rate()).sum();
            if let (Some(expected), Some(actual)) = (expected, out.rate()) {
                assert!(
                    unicon_numeric::rates_approx_eq(expected, actual),
                    "{op} changed the uniform rate: expected {expected}, got {actual}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ImcBuilder;

    fn uniform_pair(e: f64) -> Imc {
        let mut b = ImcBuilder::new(2, 0);
        b.markov(0, e, 1);
        b.markov(1, e, 0);
        b.interactive("a", 0, 0);
        b.build()
    }

    #[test]
    fn recording_is_off_by_default() {
        assert!(!is_recording());
        let _ = uniform_pair(1.0).hide(&["a"]);
        assert!(!is_recording());
    }

    #[test]
    fn with_recording_captures_ops_in_order() {
        let ((), obligations) = with_recording(|| {
            let m = uniform_pair(2.0);
            let n = uniform_pair(3.0);
            let p = m.parallel(&n, &[]);
            let _ = p.hide(&["a"]);
        });
        let ops: Vec<&str> = obligations.iter().map(|o| o.op).collect();
        assert_eq!(ops, vec!["parallel", "hide"]);
        assert_eq!(obligations[0].id, 0);
        assert_eq!(obligations[1].id, 1);
        // The chain links: hide's input is the parallel output.
        assert_eq!(
            obligations[1].inputs[0].fingerprint(),
            obligations[0].output.fingerprint()
        );
        // Lemma 2's claimed rates were captured.
        assert_eq!(obligations[0].input_rates, vec![Some(2.0), Some(3.0)]);
        assert_eq!(obligations[0].output_rate, Some(5.0));
    }

    #[test]
    fn nested_sessions_restore_the_outer_ledger() {
        let ((), outer) = with_recording(|| {
            let _ = uniform_pair(1.0).hide(&["a"]);
            let ((), inner) = with_recording(|| {
                let _ = uniform_pair(1.0).hide(&["a"]);
            });
            assert_eq!(inner.len(), 1);
            let _ = uniform_pair(1.0).hide(&["a"]);
        });
        // The inner session's obligation did not leak into the outer ledger.
        assert_eq!(outer.len(), 2);
    }
}
