//! The transformation steps and the CTMDP extraction.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use unicon_ctmdp::{Ctmdp, CtmdpBuilder};
use unicon_imc::{analysis, Imc, ImcBuilder, MarkovTransition, StateKind, View};
use unicon_lts::{ActionId, Transition};

/// Output of [`make_interactive_alternating_with_map`]: the strictly
/// alternating IMC, the per-state origin map, and the per-state zero-time
/// closures.
pub type Step3Output = (Imc, Vec<u32>, Vec<Vec<u32>>);

/// Why a model cannot be transformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformError {
    /// A cycle of interactive transitions (Zeno behaviour under urgency).
    Zeno {
        /// States on the offending cycle.
        cycle: Vec<u32>,
    },
    /// A reachable state with no outgoing transitions. The paper assumes
    /// `S_A = ∅`; in a uniform model with positive rate absorbing states
    /// cannot occur, so hitting one indicates a modelling error.
    DeadEnd {
        /// The absorbing state.
        state: u32,
    },
}

impl std::fmt::Display for TransformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransformError::Zeno { cycle } => {
                write!(
                    f,
                    "interactive cycle (Zeno behaviour) through states {cycle:?}"
                )
            }
            TransformError::DeadEnd { state } => {
                write!(
                    f,
                    "reachable absorbing state {state} (the paper assumes S_A = ∅)"
                )
            }
        }
    }
}

impl std::error::Error for TransformError {}

/// Size and timing statistics of a transformation — the quantities reported
/// in the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransformStats {
    /// Interactive states of the strictly alternating IMC (= CTMDP states).
    pub interactive_states: usize,
    /// Markov states (= distinct rate functions).
    pub markov_states: usize,
    /// Compressed (word-labeled) interactive transitions (= CTMDP
    /// transitions).
    pub interactive_transitions: usize,
    /// Markov transitions (= rate-function entries).
    pub markov_transitions: usize,
    /// Approximate memory footprint of the CTMDP representation in bytes.
    pub memory_bytes: usize,
    /// Wall-clock time of the whole transformation.
    pub transform_time: Duration,
}

/// Result of [`transform`](crate::transform).
#[derive(Debug, Clone)]
pub struct TransformOutput {
    /// The extracted CTMDP.
    pub ctmdp: Ctmdp,
    /// The strictly alternating IMC it was read from (interactive states
    /// first, i.e. state `i` of the CTMDP is state `i` here).
    pub strictly_alternating: Imc,
    /// For every CTMDP state, the state of the *input* IMC it represents
    /// (fresh interactive splitter states are instantaneous prefixes of
    /// their successors and inherit their origin). Use this to translate a
    /// state-level goal predicate through the transformation.
    pub ctmdp_state_origin: Vec<u32>,
    /// For every CTMDP state, all input-IMC states reachable from it in
    /// zero time (along interactive paths), including itself and the Markov
    /// endpoints — the basis of the sup-faithful goal translation.
    pub ctmdp_zero_closure: Vec<Vec<u32>>,
    /// Table-1-style statistics.
    pub stats: TransformStats,
}

impl TransformOutput {
    /// Translates a per-state goal predicate on the input IMC into the goal
    /// vector for the extracted CTMDP, using **zero-time closure**
    /// semantics: a CTMDP state is a goal state if any input state its
    /// instantaneous interactive paths traverse is a goal state.
    ///
    /// This is faithful for the worst-case (`sup`) analysis: the maximizing
    /// scheduler may always steer a zero-time word through the goal region,
    /// and reachability is sticky. For goal regions that are only left by
    /// Markov jumps (every dwelling goal region, e.g. the FTWC's
    /// premium-down states), it coincides with [`Self::goal_vector_exact`]
    /// up to the instantaneous entry prefix.
    ///
    /// # Panics
    ///
    /// Panics if `goal.len()` does not match the input IMC's state count.
    pub fn goal_vector(&self, goal: &[bool]) -> Vec<bool> {
        self.ctmdp_zero_closure
            .iter()
            .map(|c| c.iter().any(|&o| goal[o as usize]))
            .collect()
    }

    /// Translates a goal predicate using only each CTMDP state's immediate
    /// origin — no zero-time closure. Goal states that are merely traversed
    /// instantaneously inside compressed words are *not* counted.
    ///
    /// # Panics
    ///
    /// Panics if `goal.len()` does not match the input IMC's state count.
    pub fn goal_vector_exact(&self, goal: &[bool]) -> Vec<bool> {
        self.ctmdp_state_origin
            .iter()
            .map(|&o| goal[o as usize])
            .collect()
    }
}

/// Step (1): cut the Markov transitions of hybrid states (urgency of the
/// closed-system view) and restrict to reachable states.
pub fn make_alternating(imc: &Imc) -> Imc {
    imc.apply_pre_emption(View::Closed).restrict_to_reachable()
}

/// Step (2): split every Markov→Markov edge `s --λ--> s'` through a fresh
/// interactive state, so each Markov transition ends in an interactive
/// state.
///
/// # Panics
///
/// Panics if the input still has hybrid states (run [`make_alternating`]
/// first).
pub fn make_markov_alternating(imc: &Imc) -> Imc {
    make_markov_alternating_with_entries(imc).0
}

/// Like [`make_markov_alternating`], additionally returning the Markov
/// states the fresh *entry* states belong to: fresh state `n + i` is the
/// interactive entry of Markov state `entries[i]`.
///
/// The paper's Step (2) formally introduces one splitter per Markov→Markov
/// *edge* `(s, s')`; all splitters of the same target `s'` are strongly
/// bisimilar (each has exactly the τ move to `s'`), so we introduce one
/// entry state per *target* instead — this quotiented form is what the
/// paper's own Table 1 state counts correspond to.
///
/// # Panics
///
/// See [`make_markov_alternating`].
pub fn make_markov_alternating_with_entries(imc: &Imc) -> (Imc, Vec<u32>) {
    let n = imc.num_states();
    for s in 0..n as u32 {
        assert!(
            imc.kind(s) != StateKind::Hybrid,
            "state {s} is hybrid; apply make_alternating first"
        );
    }
    // Markov states with at least one Markov predecessor need an entry.
    let mut entries: Vec<u32> = imc
        .markov()
        .iter()
        .filter(|m| imc.kind(m.target) == StateKind::Markov)
        .map(|m| m.target)
        .collect();
    entries.sort_unstable();
    entries.dedup();
    let fresh_base = n as u32;
    let entry_of = |t: u32| -> Option<u32> {
        entries
            .binary_search(&t)
            .ok()
            .map(|i| fresh_base + i as u32)
    };

    let mut interactive: Vec<Transition> = imc.interactive().to_vec();
    let mut markov: Vec<MarkovTransition> = Vec::with_capacity(imc.num_markov());
    for m in imc.markov() {
        match entry_of(m.target) {
            Some(entry) => markov.push(MarkovTransition {
                source: m.source,
                rate: m.rate,
                target: entry,
            }),
            None => markov.push(*m),
        }
    }
    for (i, &t) in entries.iter().enumerate() {
        interactive.push(Transition {
            source: fresh_base + i as u32,
            action: ActionId::TAU,
            target: t,
        });
    }
    let out = rebuild(imc, n + entries.len(), imc.initial(), interactive, markov);
    (out, entries)
}

/// Step (3): compress maximal interactive sequences into word-labeled
/// transitions ending in Markov states, dropping interactive states without
/// Markov predecessors (except the initial state).
///
/// Words are rendered as the non-τ action names joined by `"."`; an
/// all-internal sequence is labeled `tau`.
///
/// # Errors
///
/// [`TransformError::Zeno`] on interactive cycles,
/// [`TransformError::DeadEnd`] if an interactive path runs into an
/// absorbing state.
///
/// # Panics
///
/// Panics if the input is not Markov alternating.
pub fn make_interactive_alternating(imc: &Imc) -> Result<Imc, TransformError> {
    Ok(make_interactive_alternating_with_map(imc)?.0)
}

/// Like [`make_interactive_alternating`], additionally returning, for every
/// state of the result, the input state it came from, and for every kept
/// interactive state the set of input states its zero-time interactive
/// paths traverse (including itself and the Markov endpoints).
///
/// # Errors
///
/// See [`make_interactive_alternating`].
pub fn make_interactive_alternating_with_map(imc: &Imc) -> Result<Step3Output, TransformError> {
    if let Some(cycle) = analysis::interactive_cycle(imc) {
        return Err(TransformError::Zeno { cycle });
    }
    let n = imc.num_states();
    for m in imc.markov() {
        assert!(
            !imc.interactive_from(m.target).is_empty() || imc.markov_from(m.target).is_empty(),
            "input is not Markov alternating (run make_markov_alternating first)"
        );
    }

    // S_I' = interactive states with a Markov predecessor, plus the initial
    // state (which transform() guarantees to be interactive).
    let mut keep = vec![false; n];
    keep[imc.initial() as usize] = true;
    for m in imc.markov() {
        keep[m.target as usize] = true;
    }
    for (s, k) in keep.iter_mut().enumerate() {
        if imc.kind(s as u32) == StateKind::Markov {
            *k = false;
        }
    }

    // Enumerate all interactive paths from each kept state to Markov states,
    // recording which input states each kept state can touch in zero time.
    let mut word_transitions: Vec<(u32, Vec<ActionId>, u32)> = Vec::new();
    let mut closures: Vec<Vec<u32>> = vec![Vec::new(); n];
    for s in 0..n as u32 {
        if !keep[s as usize] {
            continue;
        }
        let mut touched: Vec<u32> = vec![s];
        let mut seen: HashSet<(Vec<ActionId>, u32)> = HashSet::new();
        // DFS over (state, word-so-far); interactive graph is acyclic here.
        let mut stack: Vec<(u32, Vec<ActionId>)> = vec![(s, Vec::new())];
        while let Some((cur, word)) = stack.pop() {
            let outs = imc.interactive_from(cur);
            if outs.is_empty() && imc.markov_from(cur).is_empty() {
                return Err(TransformError::DeadEnd { state: cur });
            }
            for t in outs {
                let mut w = word.clone();
                if !t.action.is_tau() {
                    w.push(t.action);
                }
                touched.push(t.target);
                match imc.kind(t.target) {
                    StateKind::Markov => {
                        if seen.insert((w.clone(), t.target)) {
                            word_transitions.push((s, w, t.target));
                        }
                    }
                    StateKind::Absorbing => {
                        return Err(TransformError::DeadEnd { state: t.target })
                    }
                    _ => stack.push((t.target, w)),
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();
        closures[s as usize] = touched;
    }

    // Build the strictly alternating IMC: interactive states first (their
    // order preserved), then the Markov states.
    let mut map = vec![u32::MAX; n];
    let mut next = 0u32;
    for (s, slot) in map.iter_mut().enumerate() {
        if keep[s] {
            *slot = next;
            next += 1;
        }
    }
    for (s, slot) in map.iter_mut().enumerate() {
        if imc.kind(s as u32) == StateKind::Markov {
            *slot = next;
            next += 1;
        }
    }

    let mut b = ImcBuilder::new(next as usize, map[imc.initial() as usize]);
    for (s, word, u) in &word_transitions {
        let name = word_name(imc, word);
        b.interactive(&name, map[*s as usize], map[*u as usize]);
    }
    for m in imc.markov() {
        if map[m.source as usize] != u32::MAX {
            b.markov(map[m.source as usize], m.rate, map[m.target as usize]);
        }
    }
    let (out, old_of_reached) = b.build().restrict_to_reachable_with_map();
    debug_assert!(is_strictly_alternating(&out));
    // Compose the two renumberings: result state -> pre-restriction state
    // -> input state.
    let mut input_of_mid = vec![u32::MAX; next as usize];
    for (input, &mid) in map.iter().enumerate() {
        if mid != u32::MAX {
            input_of_mid[mid as usize] = input as u32;
        }
    }
    let origin: Vec<u32> = old_of_reached
        .iter()
        .map(|&mid| input_of_mid[mid as usize])
        .collect();
    let zero_closure = origin
        .iter()
        .map(|&input| {
            let c = &closures[input as usize];
            if c.is_empty() {
                vec![input]
            } else {
                c.clone()
            }
        })
        .collect();
    Ok((out, origin, zero_closure))
}

/// Renders a word as an action name.
fn word_name(imc: &Imc, word: &[ActionId]) -> String {
    if word.is_empty() {
        unicon_lts::TAU_NAME.to_owned()
    } else {
        word.iter()
            .map(|a| imc.actions().name(*a))
            .collect::<Vec<_>>()
            .join(".")
    }
}

/// Whether interactive and Markov states strictly alternate: every
/// interactive transition ends in a Markov state, every Markov transition
/// in an interactive state, and no hybrid or absorbing states exist.
pub fn is_strictly_alternating(imc: &Imc) -> bool {
    (0..imc.num_states() as u32).all(|s| match imc.kind(s) {
        StateKind::Hybrid | StateKind::Absorbing => false,
        StateKind::Interactive => imc
            .interactive_from(s)
            .iter()
            .all(|t| imc.kind(t.target) == StateKind::Markov),
        StateKind::Markov => imc
            .markov_from(s)
            .iter()
            .all(|m| imc.kind(m.target) == StateKind::Interactive),
    })
}

/// Reads a strictly alternating IMC as a CTMDP (the paper's `C_M`): states
/// are the interactive states, actions the words, and each word transition
/// into Markov state `u` contributes `u`'s cumulative rate vector as its
/// rate function.
///
/// # Panics
///
/// Panics if the input is not strictly alternating or its initial state is
/// not interactive.
pub fn to_ctmdp(imc: &Imc) -> Ctmdp {
    to_ctmdp_with_map(imc).0
}

/// Like [`to_ctmdp`], additionally returning, for every CTMDP state, the
/// interactive IMC state it came from.
///
/// # Panics
///
/// See [`to_ctmdp`].
pub fn to_ctmdp_with_map(imc: &Imc) -> (Ctmdp, Vec<u32>) {
    assert!(
        is_strictly_alternating(imc),
        "to_ctmdp requires a strictly alternating IMC"
    );
    assert_eq!(
        imc.kind(imc.initial()),
        StateKind::Interactive,
        "the initial state must be interactive"
    );
    let n = imc.num_states();
    let mut map = vec![u32::MAX; n];
    let mut next = 0u32;
    for s in 0..n as u32 {
        if imc.kind(s) == StateKind::Interactive {
            map[s as usize] = next;
            next += 1;
        }
    }
    let mut b = CtmdpBuilder::new(next as usize, map[imc.initial() as usize]);
    for t in imc.interactive() {
        let pairs: Vec<(u32, f64)> = imc
            .markov_from(t.target)
            .iter()
            .map(|m| (map[m.target as usize], m.rate))
            .collect();
        b.transition(map[t.source as usize], imc.actions().name(t.action), &pairs);
    }
    let mut imc_of_ctmdp = vec![u32::MAX; next as usize];
    for (s, &c) in map.iter().enumerate() {
        if c != u32::MAX {
            imc_of_ctmdp[c as usize] = s as u32;
        }
    }
    (b.build(), imc_of_ctmdp)
}

/// The full trajectory run step by step: steps (1)–(3) plus the CTMDP
/// extraction, each through the public step functions above, with
/// Table-1 statistics.
///
/// This is the oracle of [`crate::transform`], which computes the same
/// output bit for bit in one pass over index arrays. Tests and the
/// certificate checker replay it; at run time it runs only where the one
/// pass finds a reachable interactive cycle or dead end, to report the
/// error.
///
/// If the initial state is a Markov state after step (1), a fresh
/// interactive initial state with a τ transition to it is introduced
/// (keeping `s₀ ∈ S_I` as Definition 1 requires).
///
/// # Errors
///
/// See [`make_interactive_alternating`].
#[doc(hidden)]
pub fn transform_stepwise(imc: &Imc) -> Result<TransformOutput, TransformError> {
    let start = Instant::now();
    // Step (1): urgency cut + restriction, tracking origins.
    let (mut m, mut origin) = imc
        .apply_pre_emption(View::Closed)
        .restrict_to_reachable_with_map();
    // Guarantee an interactive initial state. The fresh state is an
    // instantaneous prefix of s₀, so it inherits s₀'s origin.
    if matches!(
        m.kind(m.initial()),
        StateKind::Markov | StateKind::Absorbing
    ) {
        let s0_origin = origin[m.initial() as usize];
        m = prepend_interactive_initial(&m);
        origin.push(s0_origin);
    }
    // Step (2): the entry state of Markov state s' is an instantaneous
    // prefix of s'.
    let (m, entries) = make_markov_alternating_with_entries(&m);
    for &t in &entries {
        let t_origin = origin[t as usize];
        origin.push(t_origin);
    }
    // Step (3) and extraction.
    let (strictly_alternating, step3_origin, step3_closure) =
        make_interactive_alternating_with_map(&m)?;
    let (ctmdp, imc_of_ctmdp) = to_ctmdp_with_map(&strictly_alternating);
    let ctmdp_state_origin: Vec<u32> = imc_of_ctmdp
        .iter()
        .map(|&sa| origin[step3_origin[sa as usize] as usize])
        .collect();
    let ctmdp_zero_closure: Vec<Vec<u32>> = imc_of_ctmdp
        .iter()
        .map(|&sa| {
            let mut c: Vec<u32> = step3_closure[sa as usize]
                .iter()
                .map(|&mid| origin[mid as usize])
                .collect();
            c.sort_unstable();
            c.dedup();
            c
        })
        .collect();
    Ok(finish(
        imc,
        ctmdp,
        strictly_alternating,
        ctmdp_state_origin,
        ctmdp_zero_closure,
        start,
    ))
}

/// Records the transformation's audit obligation and assembles its
/// output with Table-1 statistics; `start` is when the transformation
/// began.
pub(crate) fn finish(
    imc: &Imc,
    ctmdp: Ctmdp,
    strictly_alternating: Imc,
    ctmdp_state_origin: Vec<u32>,
    ctmdp_zero_closure: Vec<Vec<u32>>,
    start: Instant,
) -> TransformOutput {
    // The witness fingerprints the whole CTMDP: build it only for a
    // ledger that keeps it.
    if unicon_imc::audit::is_recording() {
        unicon_imc::audit::record(
            "transform",
            unicon_imc::audit::lemma::THEOREM1,
            View::Closed,
            &[imc],
            &strictly_alternating,
            unicon_imc::audit::Witness::Transform {
                ctmdp_fingerprint: ctmdp.fingerprint(),
                rate: ctmdp.uniform_rate().ok(),
            },
        );
    }

    let (markov_states, interactive_states, _, _) = strictly_alternating.kind_counts();
    let stats = TransformStats {
        interactive_states,
        markov_states,
        interactive_transitions: strictly_alternating.num_interactive(),
        markov_transitions: strictly_alternating.num_markov(),
        memory_bytes: ctmdp.memory_bytes(),
        transform_time: start.elapsed(),
    };
    TransformOutput {
        ctmdp,
        strictly_alternating,
        ctmdp_state_origin,
        ctmdp_zero_closure,
        stats,
    }
}

/// Adds a fresh interactive initial state `init' --τ--> s₀`.
fn prepend_interactive_initial(imc: &Imc) -> Imc {
    let n = imc.num_states();
    let mut interactive = imc.interactive().to_vec();
    interactive.push(Transition {
        source: n as u32,
        action: ActionId::TAU,
        target: imc.initial(),
    });
    rebuild(imc, n + 1, n as u32, interactive, imc.markov().to_vec())
}

/// Rebuilds an IMC with the same action table but new structure.
fn rebuild(
    imc: &Imc,
    num_states: usize,
    initial: u32,
    interactive: Vec<Transition>,
    markov: Vec<MarkovTransition>,
) -> Imc {
    let mut b = ImcBuilder::new(num_states, initial);
    for t in &interactive {
        b.interactive(imc.actions().name(t.action), t.source, t.target);
    }
    for m in &markov {
        b.markov(m.source, m.rate, m.target);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform;
    use unicon_ctmc::transient::{self, TransientOptions};
    use unicon_ctmc::Ctmc;
    use unicon_ctmdp::reachability::{timed_reachability, ReachOptions};
    use unicon_numeric::assert_close;

    /// fail/repair workstation-in-miniature: interactive decisions between
    /// Markov phases.
    fn mini_model() -> Imc {
        let mut b = ImcBuilder::new(5, 0);
        // 0 interactive: choose left or right (visible words)
        b.interactive("left", 0, 1);
        b.interactive("right", 0, 2);
        // 1, 2 Markov with same exit rate 2 (uniform)
        b.markov(1, 2.0, 3);
        b.markov(2, 1.5, 3);
        b.markov(2, 0.5, 4);
        // 3, 4 interactive looping back
        b.tau(3, 0);
        b.interactive("reset", 4, 0);
        b.build()
    }

    #[test]
    fn step1_cuts_hybrid_markov() {
        let mut b = ImcBuilder::new(2, 0);
        b.interactive("a", 0, 1);
        b.markov(0, 5.0, 1);
        b.markov(1, 1.0, 0);
        let alt = make_alternating(&b.build());
        assert_eq!(alt.kind(0), StateKind::Interactive);
        assert_eq!(alt.num_markov(), 1);
    }

    #[test]
    fn step2_splits_markov_chains() {
        let mut b = ImcBuilder::new(3, 0);
        b.markov(0, 1.0, 1);
        b.markov(1, 1.0, 2);
        b.interactive("done", 2, 2); // interactive sink
        let m = make_markov_alternating(&b.build());
        // one fresh splitter for the 0->1 edge
        assert_eq!(m.num_states(), 4);
        // fresh state has a tau to 1
        let fresh = 3u32;
        assert_eq!(m.interactive_from(fresh).len(), 1);
        assert!(m.interactive_from(fresh)[0].action.is_tau());
        // Markov transitions all end in interactive states
        for mk in m.markov() {
            assert_ne!(m.kind(mk.target), StateKind::Markov);
        }
    }

    #[test]
    fn step2_idempotent_on_alternating_input() {
        let m = mini_model();
        let once = make_markov_alternating(&m);
        let twice = make_markov_alternating(&once);
        assert_eq!(once.num_states(), twice.num_states());
    }

    #[test]
    fn step3_compresses_words() {
        let out = transform(&mini_model()).expect("transform");
        let c = &out.ctmdp;
        // initial state has the two word choices "left", "right"
        let labels: Vec<&str> = c
            .transitions_from(c.initial())
            .iter()
            .map(|t| c.actions().name(t.action))
            .collect();
        assert!(labels.contains(&"left"));
        assert!(labels.contains(&"right"));
        // state 3's tau-loop to 0 means: after Markov state 1 the word
        // continues through 0: compressed words "left", "right" again
        assert!(c.uniform_rate().is_ok());
        assert_close!(c.uniform_rate().unwrap(), 2.0, 1e-12);
    }

    #[test]
    fn words_join_multiple_visible_actions() {
        // 0 -a-> 1 -b-> 2(Markov) ; 2 --> 0
        let mut b = ImcBuilder::new(3, 0);
        b.interactive("a", 0, 1);
        b.interactive("b", 1, 2);
        b.markov(2, 1.0, 0);
        let out = transform(&b.build()).expect("transform");
        let c = &out.ctmdp;
        let labels: Vec<&str> = c
            .transitions_from(c.initial())
            .iter()
            .map(|t| c.actions().name(t.action))
            .collect();
        assert_eq!(labels, vec!["a.b"]);
    }

    #[test]
    fn all_tau_word_is_tau() {
        let mut b = ImcBuilder::new(3, 0);
        b.tau(0, 1);
        b.tau(1, 2);
        b.markov(2, 1.0, 0);
        let out = transform(&b.build()).expect("transform");
        let c = &out.ctmdp;
        let labels: Vec<&str> = c
            .transitions_from(c.initial())
            .iter()
            .map(|t| c.actions().name(t.action))
            .collect();
        assert_eq!(labels, vec!["tau"]);
    }

    #[test]
    fn zeno_is_detected() {
        let mut b = ImcBuilder::new(2, 0);
        b.tau(0, 1);
        b.tau(1, 0);
        b.markov(1, 1.0, 0);
        match transform(&b.build()) {
            Err(TransformError::Zeno { cycle }) => assert!(!cycle.is_empty()),
            other => panic!("expected Zeno error, got {other:?}"),
        }
    }

    #[test]
    fn dead_end_is_detected() {
        let mut b = ImcBuilder::new(3, 0);
        b.interactive("a", 0, 1);
        b.markov(1, 1.0, 2);
        // state 2 absorbing
        let e = transform(&b.build()).unwrap_err();
        assert!(matches!(e, TransformError::DeadEnd { .. }));
        assert!(e.to_string().contains("absorbing"));
    }

    #[test]
    fn markov_initial_state_gets_interactive_prefix() {
        let mut b = ImcBuilder::new(2, 0);
        b.markov(0, 1.0, 1);
        b.interactive("back", 1, 0); // wait: 'back' leads to Markov state 0 ✓
        let out = transform(&b.build()).expect("transform");
        assert!(out.ctmdp.num_states() >= 2);
        // the CTMDP's initial state has a tau word into the chain
        let c = &out.ctmdp;
        let labels: Vec<&str> = c
            .transitions_from(c.initial())
            .iter()
            .map(|t| c.actions().name(t.action))
            .collect();
        assert_eq!(labels, vec!["tau"]);
    }

    #[test]
    fn deterministic_model_matches_ctmc_oracle() {
        // A closed deterministic uniform IMC == a CTMC after collapsing the
        // zero-time moves: Markov state 0 branches (rate 1 each) to a tau
        // hop into the ticking goal chain or a tau hop restarting at 0.
        let mut b = ImcBuilder::new(4, 0);
        b.markov(0, 1.0, 1);
        b.markov(0, 1.0, 2);
        b.tau(1, 3);
        b.tau(2, 0);
        b.markov(3, 2.0, 3);
        let imc = b.build();
        // Wait: initial state 0 is Markov; transform adds the tau prefix.
        let out = transform(&imc).expect("transform");
        let c = &out.ctmdp;
        // goal: the CTMDP state corresponding to interactive state "1"
        // (the one whose word leads into the ticking Markov state 3).
        // Equivalent CTMC: 0 --1.0--> goal, 0 --1.0--> 0 (restart), goal abs.
        let ctmc = Ctmc::from_rates(2, 0, [(0, 1, 1.0), (0, 0, 1.0), (1, 1, 2.0)]);
        // "Being at the ticking Markov state" corresponds to every CTMDP
        // state whose (single) rate function is the ticking self-loop:
        // one target, total rate 2.
        let mut goal = vec![false; c.num_states()];
        let mut found = false;
        for s in 0..c.num_states() as u32 {
            for tr in c.transitions_from(s) {
                let rf = c.rate_function(tr.rate_fn);
                if rf.targets().len() == 1 && (rf.total() - 2.0).abs() < 1e-12 {
                    goal[s as usize] = true;
                    found = true;
                }
            }
        }
        assert!(found, "ticking goal states not found");
        for t in [0.4, 1.0, 3.0] {
            let mdp = timed_reachability(c, &goal, t, &ReachOptions::default().with_epsilon(1e-10))
                .unwrap()
                .from_state(c.initial());
            let oracle = transient::reachability(
                &ctmc,
                &[false, true],
                t,
                &TransientOptions::default().with_epsilon(1e-12),
            )
            .from_state(0);
            assert_close!(mdp, oracle, 1e-8);
        }
    }

    #[test]
    fn stats_are_consistent() {
        let out = transform(&mini_model()).expect("transform");
        assert_eq!(out.stats.interactive_states, out.ctmdp.num_states());
        assert_eq!(
            out.stats.interactive_transitions,
            out.ctmdp.num_transitions()
        );
        assert!(out.stats.markov_states > 0);
        assert!(out.stats.memory_bytes > 0);
        assert!(is_strictly_alternating(&out.strictly_alternating));
    }

    #[test]
    fn strictly_alternating_checker() {
        let out = transform(&mini_model()).expect("transform");
        assert!(is_strictly_alternating(&out.strictly_alternating));
        assert!(!is_strictly_alternating(&mini_model()));
    }

    #[test]
    fn goal_closure_vs_exact_semantics() {
        // 0 interactive --pass--> 1 interactive --go--> 2 Markov --> 0.
        // State 1 is traversed in zero time only: it never becomes a CTMDP
        // state, so the exact goal translation misses it while the closure
        // translation marks its zero-time predecessors.
        let mut b = ImcBuilder::new(3, 0);
        b.interactive("pass", 0, 1);
        b.interactive("go", 1, 2);
        b.markov(2, 1.0, 0);
        let out = transform(&b.build()).expect("transforms");
        let goal_on_1 = [false, true, false];
        let closure = out.goal_vector(&goal_on_1);
        let exact = out.goal_vector_exact(&goal_on_1);
        // exact: no CTMDP state originates from state 1
        assert!(exact.iter().all(|&g| !g));
        // closure: the state whose word passes through 1 is marked
        assert!(closure.iter().any(|&g| g));
        // closure is always a superset of exact
        for (c, e) in closure.iter().zip(&exact) {
            assert!(*c || !*e);
        }
    }

    #[test]
    fn entries_are_one_per_markov_target() {
        // chain of three Markov states: 0 -> 1 -> 2 -> 0 plus an
        // interactive entry point.
        let mut b = ImcBuilder::new(4, 3);
        b.interactive("start", 3, 0);
        b.markov(0, 1.0, 1);
        b.markov(1, 1.0, 2);
        b.markov(2, 1.0, 0);
        let (out, entries) = make_markov_alternating_with_entries(&b.build());
        // every Markov state has a Markov predecessor -> 3 entries
        assert_eq!(entries, vec![0, 1, 2]);
        assert_eq!(out.num_states(), 7);
        // all Markov transitions now end in (fresh) interactive states
        for m in out.markov() {
            assert_eq!(out.kind(m.target), StateKind::Interactive);
        }
    }

    #[test]
    fn origin_of_entry_states_is_their_markov_target() {
        let mut b = ImcBuilder::new(3, 0);
        b.interactive("go", 0, 1);
        b.markov(1, 1.0, 2);
        b.markov(2, 1.0, 1);
        let imc = b.build();
        let out = transform(&imc).expect("transforms");
        // every CTMDP state's origin is a valid input state, and at least
        // one CTMDP state originates from each dwelling Markov state
        for &o in &out.ctmdp_state_origin {
            assert!((o as usize) < imc.num_states());
        }
        assert!(out.ctmdp_state_origin.contains(&1));
        assert!(out.ctmdp_state_origin.contains(&2));
    }
}
