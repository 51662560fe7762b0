//! Stochastic branching bisimulation and strong stochastic bisimulation.
//!
//! The minimization equivalence of the paper (Definition 6) must
//!
//! 1. abstract from internal computation (branching-style τ treatment),
//! 2. lump Markov transitions (Kemeny–Snell style),
//! 3. leave the branching structure otherwise untouched.
//!
//! We implement both relations by Blom–Orzan-style *signature refinement*:
//! the partition is repeatedly split by a per-state signature until it
//! stabilizes, then the quotient IMC is read off. For the branching variant
//! the signature closes over *inert* τ steps (τ transitions that stay
//! inside the current block).
//!
//! The computed partition is a **sound** stochastic branching bisimulation —
//! every pair of merged states satisfies Definition 6 — and on the
//! divergence-free models of the modelling trajectory (Zenoness is excluded
//! before analysis) it is the coarsest one in all our test cases. Lemma 3 /
//! Corollary 1 (quotienting preserves uniformity, in both directions) is
//! exercised by the property tests.
//!
//! # Two refiners, one partition
//!
//! Two interchangeable refiner backends compute the fixpoint:
//!
//! * [`worklist`](Refiner::Worklist) (the default) — a dirty-block worklist
//!   refiner that re-computes a state's signature only when the block of one
//!   of its dependency states changed in the previous round. Signatures are
//!   interned into flat `Vec` scratch buffers hashed with FNV-1a instead of
//!   per-state `BTreeSet`s, and closures reuse stamp-based visited buffers.
//! * [`mod@reference`] — the original full-resweep refiner, kept verbatim as a
//!   correctness oracle and as the honest baseline timed by `bench-build`.
//!
//! Both run the *same synchronous refinement rounds* (the worklist variant
//! merely skips blocks whose members' signatures provably did not change),
//! and the final partition is canonicalized by first-occurrence state order
//! — so the resulting [`Partition`], and therefore the quotient IMC, is
//! **bitwise identical** between the two. Differential tests on random IMCs
//! and the FTWC case study pin this down.

use std::collections::HashMap;

use unicon_lts::Transition;
use unicon_numeric::NeumaierSum;

use crate::model::{Imc, MarkovTransition, View};

pub mod reference;
mod worklist;

/// A partition of IMC states into dense blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `block[s]` is the block of state `s`.
    pub block: Vec<u32>,
    /// Number of blocks.
    pub num_blocks: usize,
}

impl Partition {
    fn universal(n: usize) -> Self {
        Self {
            block: vec![0; n],
            num_blocks: usize::from(n > 0),
        }
    }

    /// Builds an initial partition from arbitrary per-state labels (states
    /// with different labels are never merged), renumbering densely.
    pub fn from_labels(labels: &[u32]) -> Self {
        let mut remap: HashMap<u32, u32> = HashMap::new();
        let block: Vec<u32> = labels
            .iter()
            .map(|&l| {
                let fresh = remap.len() as u32;
                *remap.entry(l).or_insert(fresh)
            })
            .collect();
        Self {
            num_blocks: remap.len(),
            block,
        }
    }
}

/// Selects the partition-refinement backend.
///
/// Both backends produce bitwise-identical partitions; they differ only in
/// how much work they redo per refinement round. [`Refiner::Worklist`] is
/// the default everywhere; [`Refiner::Reference`] exists so benchmarks can
/// time the seed algorithm and tests can cross-check the quotients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Refiner {
    /// Dirty-block worklist refinement with interned FNV-hashed signatures.
    #[default]
    Worklist,
    /// The original full-resweep refiner (see [`mod@reference`]).
    Reference,
}

/// Computes a stochastic branching bisimulation partition of `imc`.
///
/// `view` selects which actions pre-empt Markov transitions (τ only under
/// [`View::Open`]; every interactive transition under [`View::Closed`]) and
/// which transitions can be inert (always τ).
pub fn stochastic_branching_bisimulation(imc: &Imc, view: View) -> Partition {
    worklist::refine(
        imc,
        view,
        Partition::universal(imc.num_states()),
        worklist::Mode::Branching,
    )
}

/// Like [`stochastic_branching_bisimulation`] but refining an initial
/// partition given by per-state labels: states with different labels are
/// never merged, so any label-defined measure (e.g. a goal set) survives
/// quotienting.
///
/// # Panics
///
/// Panics if `labels.len()` does not match the number of states.
pub fn stochastic_branching_bisimulation_labeled(
    imc: &Imc,
    view: View,
    labels: &[u32],
) -> Partition {
    assert_eq!(
        labels.len(),
        imc.num_states(),
        "label vector length mismatch"
    );
    worklist::refine(
        imc,
        view,
        Partition::from_labels(labels),
        worklist::Mode::Branching,
    )
}

/// Computes a strong stochastic bisimulation partition (no τ abstraction).
pub fn strong_stochastic_bisimulation(imc: &Imc, view: View) -> Partition {
    worklist::refine(
        imc,
        view,
        Partition::universal(imc.num_states()),
        worklist::Mode::Strong,
    )
}

/// Computes a stochastic **weak** bisimulation partition.
///
/// Weak bisimulation abstracts more aggressively than the branching
/// variant: a visible move may be matched by `τ* a τ*`, so e.g.
/// `a.(b + τ.c) + a.c` and `a.(b + τ.c)` are weakly but not branching
/// bisimilar. The paper remarks that the uniformity-preservation result
/// (Lemma 3) equally holds for this relation.
///
/// Implemented by signature refinement over the full τ*-closure (computed
/// once); like the branching variant, the result is a sound bisimulation —
/// every merged pair is weakly bisimilar — intended for divergence-free
/// (non-Zeno) models.
pub fn stochastic_weak_bisimulation(imc: &Imc, view: View) -> Partition {
    worklist::refine(
        imc,
        view,
        Partition::universal(imc.num_states()),
        worklist::Mode::Weak,
    )
}

/// Label-respecting variant of [`stochastic_weak_bisimulation`].
///
/// # Panics
///
/// Panics if `labels.len()` does not match the number of states.
pub fn stochastic_weak_bisimulation_labeled(imc: &Imc, view: View, labels: &[u32]) -> Partition {
    assert_eq!(
        labels.len(),
        imc.num_states(),
        "label vector length mismatch"
    );
    worklist::refine(
        imc,
        view,
        Partition::from_labels(labels),
        worklist::Mode::Weak,
    )
}

/// Minimizes modulo stochastic weak bisimilarity.
pub fn minimize_weak(imc: &Imc, view: View) -> Imc {
    let part = stochastic_weak_bisimulation(imc, view);
    let out = quotient(imc, &part, view).restrict_to_reachable();
    crate::audit::preserves_uniformity("minimize_weak (Lemma 3)", view, &[imc], &out);
    out
}

/// Builds the quotient IMC of `imc` under `partition`.
///
/// Interactive transitions: `B --a--> C` iff some `s ∈ B` moves `a` to
/// `C`, except inert τ self-loops, which vanish. Markov transitions: the
/// per-block rates of any *stable* member of `B` (all stable members agree
/// once the partition is a bisimulation); blocks without stable members get
/// none — their rates are pre-empted anyway.
///
/// # Panics
///
/// Panics if the partition length does not match the model.
pub fn quotient(imc: &Imc, partition: &Partition, view: View) -> Imc {
    assert_eq!(
        partition.block.len(),
        imc.num_states(),
        "partition does not match the model"
    );
    let m = imc.apply_pre_emption(view);
    let nb = partition.num_blocks;

    let mut interactive: Vec<Transition> = Vec::new();
    for t in m.interactive() {
        let sb = partition.block[t.source as usize];
        let tb = partition.block[t.target as usize];
        if t.action.is_tau() && sb == tb {
            continue; // inert
        }
        interactive.push(Transition {
            source: sb,
            action: t.action,
            target: tb,
        });
    }

    // One stable representative per block.
    let mut rep: Vec<Option<u32>> = vec![None; nb];
    for s in 0..m.num_states() as u32 {
        let b = partition.block[s as usize] as usize;
        if rep[b].is_none() && m.is_stable(s, view) && !m.markov_from(s).is_empty() {
            rep[b] = Some(s);
        }
    }
    let mut markov: Vec<MarkovTransition> = Vec::new();
    for (b, r) in rep.iter().enumerate() {
        if let Some(s) = r {
            let mut per_block: HashMap<u32, NeumaierSum> = HashMap::new();
            for t in m.markov_from(*s) {
                per_block
                    .entry(partition.block[t.target as usize])
                    .or_default()
                    .add(t.rate);
            }
            // det-lint: allow(hash-iter): `from_raw` sorts the Markov
            // relation, so this iteration order never reaches the output.
            for (c, acc) in per_block {
                let rate = acc.value();
                if rate > 0.0 {
                    markov.push(MarkovTransition {
                        source: b as u32,
                        rate,
                        target: c,
                    });
                }
            }
        }
    }

    Imc::from_raw(
        imc.actions().clone(),
        nb,
        partition.block[imc.initial() as usize],
        interactive,
        markov,
    )
}

/// Minimizes an IMC modulo stochastic branching bisimilarity and restricts
/// to the reachable part (the `StoBraBi` quotient of the paper).
///
/// # Examples
///
/// ```
/// use unicon_imc::{bisim, ImcBuilder, View};
///
/// // A τ step in front of a Markov state collapses into it: the quotient
/// // keeps only {0,1} and the observably different goal state {2}.
/// let mut b = ImcBuilder::new(3, 0);
/// b.tau(0, 1);
/// b.markov(1, 2.0, 2);
/// b.interactive("goal", 2, 2);
/// let min = bisim::minimize(&b.build(), View::Open);
/// assert_eq!(min.num_states(), 2);
/// ```
pub fn minimize(imc: &Imc, view: View) -> Imc {
    let part = stochastic_branching_bisimulation(imc, view);
    let out = quotient(imc, &part, view).restrict_to_reachable();
    crate::audit::preserves_uniformity("minimize (Lemma 3)", view, &[imc], &out);
    crate::audit::record(
        "minimize",
        crate::audit::lemma::LEMMA3,
        view,
        &[imc],
        &out,
        crate::audit::Witness::Minimize {
            view,
            block: part.block.clone(),
            num_blocks: part.num_blocks,
            labels: None,
        },
    );
    out
}

/// Minimizes modulo strong stochastic bisimilarity.
pub fn minimize_strong(imc: &Imc, view: View) -> Imc {
    let part = strong_stochastic_bisimulation(imc, view);
    let out = quotient(imc, &part, view).restrict_to_reachable();
    crate::audit::preserves_uniformity("minimize_strong (Lemma 3)", view, &[imc], &out);
    out
}

/// Label-respecting minimization: quotients modulo the coarsest stochastic
/// branching bisimulation refining `labels`, and returns the quotient
/// together with its per-state labels.
///
/// # Panics
///
/// Panics if `labels.len()` does not match the number of states.
pub fn minimize_labeled(imc: &Imc, view: View, labels: &[u32]) -> (Imc, Vec<u32>) {
    minimize_labeled_with(imc, view, labels, Refiner::Worklist)
}

/// Like [`minimize_labeled`], with an explicit refiner backend.
///
/// Both backends yield bitwise-identical results; `bench-build` uses this
/// entry point to time them against each other on the same models.
///
/// # Panics
///
/// Panics if `labels.len()` does not match the number of states.
pub fn minimize_labeled_with(
    imc: &Imc,
    view: View,
    labels: &[u32],
    refiner: Refiner,
) -> (Imc, Vec<u32>) {
    let part = match refiner {
        Refiner::Worklist => stochastic_branching_bisimulation_labeled(imc, view, labels),
        Refiner::Reference => {
            reference::stochastic_branching_bisimulation_labeled(imc, view, labels)
        }
    };
    let q = quotient(imc, &part, view);
    let mut block_labels = vec![0u32; part.num_blocks];
    for (s, &b) in part.block.iter().enumerate() {
        block_labels[b as usize] = labels[s];
    }
    let (reduced, old_of_new) = q.restrict_to_reachable_with_map();
    let new_labels = old_of_new
        .iter()
        .map(|&b| block_labels[b as usize])
        .collect();
    crate::audit::preserves_uniformity("minimize_labeled (Lemma 3)", view, &[imc], &reduced);
    crate::audit::record(
        "minimize_labeled",
        crate::audit::lemma::LEMMA3,
        view,
        &[imc],
        &reduced,
        crate::audit::Witness::Minimize {
            view,
            block: part.block.clone(),
            num_blocks: part.num_blocks,
            labels: Some(labels.to_vec()),
        },
    );
    (reduced, new_labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ImcBuilder, Uniformity};
    use unicon_numeric::assert_close;

    #[test]
    fn tau_prefix_collapses() {
        // 0 --τ--> 1 --1.0--> 2 --1.0--> 1: all three states are stochastic
        // branching bisimilar (unlabeled rate-1 ticking into the own class),
        // so the quotient is a single state with a rate-1 self-loop.
        let mut b = ImcBuilder::new(3, 0);
        b.tau(0, 1);
        b.markov(1, 1.0, 2);
        b.markov(2, 1.0, 1);
        let min = minimize(&b.build(), View::Open);
        assert_eq!(min.num_states(), 1);
        assert_eq!(min.num_interactive(), 0);
        assert_close!(min.exit_rate(min.initial()), 1.0, 1e-12);
    }

    #[test]
    fn tau_prefix_collapses_with_observable_goal() {
        // Same chain, but state 2 is observably different (offers `goal`),
        // so only the τ prefix merges: blocks {0,1} and {2}.
        let mut b = ImcBuilder::new(3, 0);
        b.tau(0, 1);
        b.markov(1, 1.0, 2);
        b.markov(2, 1.0, 1);
        b.interactive("goal", 2, 2);
        let m = b.build();
        let part = stochastic_branching_bisimulation(&m, View::Open);
        assert_eq!(part.num_blocks, 2);
        assert_eq!(part.block[0], part.block[1]);
        let min = minimize(&m, View::Open);
        assert_eq!(min.num_states(), 2);
        assert_close!(min.exit_rate(min.initial()), 1.0, 1e-12);
    }

    #[test]
    fn symmetric_markov_branches_lump() {
        // 0 branches at equal rates into two states with identical behaviour.
        let mut b = ImcBuilder::new(4, 0);
        b.markov(0, 1.0, 1);
        b.markov(0, 1.0, 2);
        b.interactive("done", 1, 3);
        b.interactive("done", 2, 3);
        let min = minimize(&b.build(), View::Open);
        // blocks: {0}, {1,2}, {3}
        assert_eq!(min.num_states(), 3);
        // rate from {0} into {1,2} lumps to 2.0
        let init = min.initial();
        assert_close!(min.exit_rate(init), 2.0, 1e-12);
    }

    #[test]
    fn different_rates_do_not_merge() {
        let mut b = ImcBuilder::new(3, 0);
        b.markov(0, 1.0, 2);
        b.markov(1, 2.0, 2);
        b.interactive("x", 2, 0);
        b.interactive("x", 2, 1);
        let part = stochastic_branching_bisimulation(&b.build(), View::Open);
        assert_ne!(part.block[0], part.block[1]);
    }

    #[test]
    fn visible_actions_block_merging() {
        let mut b = ImcBuilder::new(2, 0);
        b.interactive("a", 0, 0);
        b.interactive("b", 1, 1);
        let part = stochastic_branching_bisimulation(&b.build(), View::Open);
        assert_eq!(part.num_blocks, 2);
    }

    #[test]
    fn quotient_preserves_uniformity_corollary1() {
        // uniform model with redundant states
        let mut b = ImcBuilder::new(4, 0);
        b.markov(0, 2.0, 1);
        b.markov(0, 1.0, 0);
        b.markov(1, 3.0, 2);
        b.markov(2, 3.0, 1);
        b.tau(3, 0); // unreachable tau state
        let m = b.build();
        assert!(m.is_uniform(View::Open));
        let min = minimize(&m, View::Open);
        assert!(min.is_uniform(View::Open));
        // and the rate is preserved
        assert_eq!(min.uniformity(View::Open), Uniformity::Uniform(3.0));
    }

    #[test]
    fn minimization_is_idempotent() {
        let mut b = ImcBuilder::new(5, 0);
        b.tau(0, 1);
        b.tau(0, 2);
        b.markov(1, 1.0, 3);
        b.markov(2, 1.0, 4);
        b.interactive("end", 3, 3);
        b.interactive("end", 4, 4);
        let once = minimize(&b.build(), View::Open);
        let twice = minimize(&once, View::Open);
        assert_eq!(once.num_states(), twice.num_states());
        assert_eq!(once.num_interactive(), twice.num_interactive());
        assert_eq!(once.num_markov(), twice.num_markov());
    }

    #[test]
    fn strong_is_finer_than_branching() {
        let mut b = ImcBuilder::new(3, 0);
        b.tau(0, 1);
        b.markov(1, 1.0, 2);
        b.markov(2, 1.0, 1);
        let m = b.build();
        let strong = strong_stochastic_bisimulation(&m, View::Open);
        let branching = stochastic_branching_bisimulation(&m, View::Open);
        assert!(strong.num_blocks >= branching.num_blocks);
        // strong keeps the tau state separate; branching merges everything
        assert_eq!(strong.num_blocks, 2);
        assert_eq!(branching.num_blocks, 1);
    }

    #[test]
    fn closed_view_pre_emption_changes_result() {
        // Visible self-loop + Markov: hybrid state.
        let mut b = ImcBuilder::new(2, 0);
        b.interactive("v", 0, 1);
        b.markov(0, 5.0, 1); // pre-empted under Closed
        b.interactive("v", 1, 1);
        let m = b.build();
        let closed = minimize(&m, View::Closed);
        // under urgency both states behave identically: only `v` matters
        assert_eq!(closed.num_states(), 1);
        let open = minimize(&m, View::Open);
        assert_eq!(open.num_states(), 2);
    }

    #[test]
    fn quotient_respects_initial_state() {
        let mut b = ImcBuilder::new(3, 2);
        b.tau(2, 0);
        b.markov(0, 1.0, 1);
        b.markov(1, 1.0, 0);
        let m = b.build();
        let min = minimize(&m, View::Open);
        // everything merges into one ticking state; the quotient's initial
        // state must carry the Markov behaviour
        assert_eq!(min.num_states(), 1);
        assert!(min.exit_rate(min.initial()) > 0.0);
    }

    #[test]
    fn weak_is_coarser_than_branching() {
        // a.(b + τ.c) + a.c  vs  a.(b + τ.c): weakly bisimilar initial
        // states, not branching bisimilar.
        let mut b = ImcBuilder::new(12, 0);
        // process A at 0
        b.interactive("a", 0, 1);
        b.interactive("b", 1, 2);
        b.tau(1, 3);
        b.interactive("c", 3, 4);
        // process B at 5 (extra a.c summand)
        b.interactive("a", 5, 6);
        b.interactive("b", 6, 7);
        b.tau(6, 8);
        b.interactive("c", 8, 9);
        b.interactive("a", 5, 10);
        b.interactive("c", 10, 11);
        let m = b.build();
        let weak = stochastic_weak_bisimulation(&m, View::Open);
        assert_eq!(weak.block[0], weak.block[5], "weakly bisimilar");
        let branching = stochastic_branching_bisimulation(&m, View::Open);
        assert_ne!(branching.block[0], branching.block[5], "not branching");
        assert!(weak.num_blocks <= branching.num_blocks);
    }

    #[test]
    fn weak_quotient_preserves_uniformity() {
        let mut b = ImcBuilder::new(4, 0);
        b.markov(0, 2.0, 1);
        b.tau(1, 2);
        b.markov(2, 2.0, 3);
        b.markov(3, 2.0, 0);
        let m = b.build();
        assert!(m.is_uniform(View::Open));
        let q = minimize_weak(&m, View::Open);
        assert!(q.is_uniform(View::Open));
        assert_eq!(q.uniformity(View::Open).rate(), Some(2.0));
    }

    #[test]
    fn weak_respects_labels() {
        let mut b = ImcBuilder::new(2, 0);
        b.markov(0, 1.0, 1);
        b.markov(1, 1.0, 0);
        let m = b.build();
        let part = stochastic_weak_bisimulation_labeled(&m, View::Open, &[7, 9]);
        assert_eq!(part.num_blocks, 2);
        let part_unlabeled = stochastic_weak_bisimulation(&m, View::Open);
        assert_eq!(part_unlabeled.num_blocks, 1);
    }

    #[test]
    fn interactive_duplicates_dedup_in_quotient() {
        let mut b = ImcBuilder::new(4, 0);
        b.interactive("a", 0, 1);
        b.interactive("a", 0, 2);
        b.markov(1, 1.0, 3);
        b.markov(2, 1.0, 3);
        b.markov(3, 1.0, 1);
        let min = minimize(&b.build(), View::Open);
        // states 1,2,3 merge (rate-1 ticking within the class); the two
        // duplicate a-transitions collapse into one
        assert_eq!(min.num_states(), 2);
        assert_eq!(min.num_interactive(), 1);
    }

    /// Deterministically grows a pseudo-random IMC: a small action alphabet
    /// (τ included), rates drawn from a quantization-friendly set, plus a
    /// sprinkle of τ chains so inert closures are non-trivial. With
    /// `tau_acyclic`, τ transitions only ever go from lower to higher state
    /// ids: quotients of divergent (Zeno) models may deadlock a τ-cycle
    /// block, which the uniformity audit rightly rejects, so quotient-level
    /// differential tests stick to divergence-free inputs.
    fn random_imc(seed: u64, n: usize, tau_acyclic: bool) -> Imc {
        use unicon_numeric::rng::{Rng, XorShift64};
        let mut rng = XorShift64::seed_from_u64(seed);
        let actions = ["a", "b", "c", "tau"];
        let rates = [0.5, 1.0, 1.0, 2.0, 3.0];
        let mut b = ImcBuilder::new(n, 0);
        let n_int = n + rng.next_u64() as usize % (2 * n);
        for _ in 0..n_int {
            let src = (rng.next_u64() % n as u64) as u32;
            let tgt = (rng.next_u64() % n as u64) as u32;
            let act = actions[rng.next_u64() as usize % actions.len()];
            if act == "tau" {
                if tau_acyclic {
                    if src != tgt {
                        b.tau(src.min(tgt), src.max(tgt));
                    }
                } else {
                    b.tau(src, tgt);
                }
            } else {
                b.interactive(act, src, tgt);
            }
        }
        let n_mkv = n + rng.next_u64() as usize % (2 * n);
        for _ in 0..n_mkv {
            let src = (rng.next_u64() % n as u64) as u32;
            let tgt = (rng.next_u64() % n as u64) as u32;
            let rate = rates[rng.next_u64() as usize % rates.len()];
            b.markov(src, rate, tgt);
        }
        b.build()
    }

    fn random_labels(seed: u64, n: usize, kinds: u32) -> Vec<u32> {
        use unicon_numeric::rng::{Rng, XorShift64};
        let mut rng = XorShift64::seed_from_u64(seed ^ 0x9e37_79b9);
        (0..n)
            .map(|_| (rng.next_u64() % kinds as u64) as u32)
            .collect()
    }

    /// The worklist refiner must agree **bitwise** with the reference
    /// oracle — same block vector, same block count — on random IMCs, for
    /// every relation and view, labeled or not.
    #[test]
    fn worklist_matches_reference_on_random_imcs() {
        for seed in 0..40u64 {
            let n = 2 + (seed as usize * 7) % 29;
            let m = random_imc(seed, n, false);
            for view in [View::Open, View::Closed] {
                assert_eq!(
                    stochastic_branching_bisimulation(&m, view),
                    reference::stochastic_branching_bisimulation(&m, view),
                    "branching mismatch, seed {seed}, {view:?}"
                );
                assert_eq!(
                    stochastic_weak_bisimulation(&m, view),
                    reference::stochastic_weak_bisimulation(&m, view),
                    "weak mismatch, seed {seed}, {view:?}"
                );
                assert_eq!(
                    strong_stochastic_bisimulation(&m, view),
                    reference::strong_stochastic_bisimulation(&m, view),
                    "strong mismatch, seed {seed}, {view:?}"
                );
                let labels = random_labels(seed, n, 3);
                assert_eq!(
                    stochastic_branching_bisimulation_labeled(&m, view, &labels),
                    reference::stochastic_branching_bisimulation_labeled(&m, view, &labels),
                    "labeled branching mismatch, seed {seed}, {view:?}"
                );
                assert_eq!(
                    stochastic_weak_bisimulation_labeled(&m, view, &labels),
                    reference::stochastic_weak_bisimulation_labeled(&m, view, &labels),
                    "labeled weak mismatch, seed {seed}, {view:?}"
                );
            }
        }
    }

    /// Same check at the quotient level: the minimized IMCs (and labels)
    /// must be identical transition-for-transition.
    #[test]
    fn refiner_backends_yield_identical_quotients() {
        for seed in 40..60u64 {
            let n = 3 + (seed as usize * 5) % 23;
            let m = random_imc(seed, n, true);
            let labels = random_labels(seed, n, 4);
            let (qw, lw) = minimize_labeled_with(&m, View::Closed, &labels, Refiner::Worklist);
            let (qr, lr) = minimize_labeled_with(&m, View::Closed, &labels, Refiner::Reference);
            assert_eq!(lw, lr, "label mismatch, seed {seed}");
            assert_eq!(
                qw.num_states(),
                qr.num_states(),
                "state mismatch, seed {seed}"
            );
            assert_eq!(
                qw.interactive(),
                qr.interactive(),
                "interactive mismatch, seed {seed}"
            );
            assert_eq!(
                qw.markov().len(),
                qr.markov().len(),
                "markov count mismatch, seed {seed}"
            );
            for (a, b) in qw.markov().iter().zip(qr.markov()) {
                assert_eq!(a.source, b.source, "seed {seed}");
                assert_eq!(a.target, b.target, "seed {seed}");
                assert_eq!(a.rate.to_bits(), b.rate.to_bits(), "rate bits, seed {seed}");
            }
        }
    }

    /// τ-cycles (Zeno structure) must not hang or diverge the worklist
    /// refiner, and the two backends must still agree on them.
    #[test]
    fn worklist_handles_tau_cycles() {
        let mut b = ImcBuilder::new(6, 0);
        for s in 0..5u32 {
            b.tau(s, s + 1);
        }
        b.tau(5, 0); // τ-cycle through all six states
        b.markov(2, 1.0, 3);
        b.interactive("x", 4, 0);
        let m = b.build();
        for view in [View::Open, View::Closed] {
            assert_eq!(
                stochastic_branching_bisimulation(&m, view),
                reference::stochastic_branching_bisimulation(&m, view)
            );
            assert_eq!(
                stochastic_weak_bisimulation(&m, view),
                reference::stochastic_weak_bisimulation(&m, view)
            );
        }
    }

    #[test]
    fn singleton_model() {
        let single = ImcBuilder::new(1, 0).build();
        let p = stochastic_branching_bisimulation(&single, View::Open);
        assert_eq!(p.num_blocks, 1);
        assert_eq!(
            p,
            reference::stochastic_branching_bisimulation(&single, View::Open)
        );
    }
}
