//! The original full-resweep signature refiner, kept verbatim.
//!
//! Every refinement round recomputes the `BTreeSet` signature of **every**
//! state from scratch and regroups by `(old block, signature)` with fresh
//! dense block ids in first-occurrence state order. This is the seed
//! implementation of the repo; it stays alive for two reasons:
//!
//! * **Oracle** — differential tests assert that the worklist refiner in
//!   [`super`] produces bitwise-identical partitions on random IMCs and on
//!   the FTWC case study.
//! * **Baseline** — `unicon bench-build` times this refiner against the
//!   worklist refiner on the same models, so `BENCH_build.json` always
//!   records an honest before/after pair.
//!
//! Do not optimize this module; that is what [`super::Refiner::Worklist`]
//! is for.

use std::collections::{BTreeSet, HashMap};

use unicon_numeric::approx::quantize;
use unicon_numeric::NeumaierSum;

use super::Partition;
use crate::model::{Imc, View};

/// A state signature: visible/non-inert moves plus the set of stable rate
/// profiles reachable through inert internal steps.
type Signature = (BTreeSet<(u32, u32)>, BTreeSet<Vec<(u32, u64)>>);

/// Reference implementation of
/// [`super::stochastic_branching_bisimulation`].
pub fn stochastic_branching_bisimulation(imc: &Imc, view: View) -> Partition {
    stochastic_branching_bisimulation_from(imc, view, Partition::universal(imc.num_states()))
}

/// Reference implementation of
/// [`super::stochastic_branching_bisimulation_labeled`].
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
    stochastic_branching_bisimulation_from(imc, view, Partition::from_labels(labels))
}

fn stochastic_branching_bisimulation_from(imc: &Imc, view: View, init: Partition) -> Partition {
    // Rates of unstable states are semantically irrelevant: cut them first.
    let m = imc.apply_pre_emption(view);
    let n = m.num_states();
    let mut part = init;
    loop {
        let sigs: Vec<Signature> = (0..n as u32)
            .map(|s| signature(&m, view, &part, s))
            .collect();
        let (next, changed) = refine(&part, &sigs);
        part = next;
        if !changed {
            return part;
        }
    }
}

/// Reference implementation of [`super::strong_stochastic_bisimulation`].
pub fn strong_stochastic_bisimulation(imc: &Imc, view: View) -> Partition {
    let m = imc.apply_pre_emption(view);
    let n = m.num_states();
    let mut part = Partition::universal(n);
    loop {
        let sigs: Vec<Signature> = (0..n as u32)
            .map(|s| {
                let mut moves = BTreeSet::new();
                for t in m.interactive_from(s) {
                    moves.insert((t.action.0, part.block[t.target as usize]));
                }
                let mut profiles = BTreeSet::new();
                profiles.insert(rate_profile(&m, &part, s));
                (moves, profiles)
            })
            .collect();
        let (next, changed) = refine(&part, &sigs);
        part = next;
        if !changed {
            return part;
        }
    }
}

/// Reference implementation of [`super::stochastic_weak_bisimulation`].
pub fn stochastic_weak_bisimulation(imc: &Imc, view: View) -> Partition {
    stochastic_weak_bisimulation_from(imc, view, Partition::universal(imc.num_states()))
}

/// Reference implementation of
/// [`super::stochastic_weak_bisimulation_labeled`].
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
    stochastic_weak_bisimulation_from(imc, view, Partition::from_labels(labels))
}

fn stochastic_weak_bisimulation_from(imc: &Imc, view: View, init: Partition) -> Partition {
    let m = imc.apply_pre_emption(view);
    let n = m.num_states();
    // Full τ*-closure, independent of the partition: compute once.
    let closure: Vec<Vec<u32>> = (0..n as u32).map(|s| tau_closure(&m, s)).collect();
    let mut part = init;
    loop {
        let sigs: Vec<Signature> = (0..n)
            .map(|s| {
                let my_block = part.block[s];
                let mut moves = BTreeSet::new();
                let mut profiles = BTreeSet::new();
                for &s1 in &closure[s] {
                    // τ moves that change block (weak: s ⇒τ* t).
                    let b1 = part.block[s1 as usize];
                    if b1 != my_block {
                        moves.insert((unicon_lts::ActionId::TAU.0, b1));
                    }
                    // visible moves with τ*-closure on the target side.
                    for t in m.interactive_from(s1) {
                        if t.action.is_tau() {
                            continue;
                        }
                        for &t2 in &closure[t.target as usize] {
                            moves.insert((t.action.0, part.block[t2 as usize]));
                        }
                    }
                    if m.is_stable(s1, view) {
                        profiles.insert(rate_profile(&m, &part, s1));
                    }
                }
                (moves, profiles)
            })
            .collect();
        let (next, changed) = refine(&part, &sigs);
        part = next;
        if !changed {
            return part;
        }
    }
}

/// Reflexive-transitive closure over τ transitions (all of them, not just
/// inert ones), including `s` itself.
fn tau_closure(m: &Imc, s: u32) -> Vec<u32> {
    let mut seen = vec![s];
    let mut stack = vec![s];
    while let Some(x) = stack.pop() {
        for t in m.interactive_from(x) {
            if t.action.is_tau() && !seen.contains(&t.target) {
                seen.push(t.target);
                stack.push(t.target);
            }
        }
    }
    seen
}

/// Splits every block by signature; returns the new partition and whether
/// the block count grew.
fn refine(part: &Partition, sigs: &[Signature]) -> (Partition, bool) {
    let mut keys: HashMap<(u32, &Signature), u32> = HashMap::new();
    let mut block = Vec::with_capacity(sigs.len());
    for (s, sig) in sigs.iter().enumerate() {
        let fresh = keys.len() as u32;
        block.push(*keys.entry((part.block[s], sig)).or_insert(fresh));
    }
    let num_blocks = keys.len();
    let changed = num_blocks != part.num_blocks;
    (Partition { block, num_blocks }, changed)
}

/// Branching signature of `s` under the current partition: all non-inert
/// moves reachable via inert τ steps, plus the rate profiles of the stable
/// states reachable via inert τ steps.
fn signature(m: &Imc, view: View, part: &Partition, s: u32) -> Signature {
    let closure = inert_closure(m, part, s);
    let my_block = part.block[s as usize];
    let mut moves = BTreeSet::new();
    let mut profiles = BTreeSet::new();
    for &s2 in &closure {
        for t in m.interactive_from(s2) {
            let tgt_block = part.block[t.target as usize];
            if !(t.action.is_tau() && tgt_block == my_block) {
                moves.insert((t.action.0, tgt_block));
            }
        }
        if m.is_stable(s2, view) {
            profiles.insert(rate_profile(m, part, s2));
        }
    }
    (moves, profiles)
}

/// The τ-closure of `s` within its own block (inert steps only), including
/// `s` itself.
fn inert_closure(m: &Imc, part: &Partition, s: u32) -> Vec<u32> {
    let my_block = part.block[s as usize];
    let mut seen = vec![s];
    let mut stack = vec![s];
    while let Some(x) = stack.pop() {
        for t in m.interactive_from(x) {
            if t.action.is_tau()
                && part.block[t.target as usize] == my_block
                && !seen.contains(&t.target)
            {
                seen.push(t.target);
                stack.push(t.target);
            }
        }
    }
    seen
}

/// Per-block cumulative rate vector of one state, quantized for hashing.
fn rate_profile(m: &Imc, part: &Partition, s: u32) -> Vec<(u32, u64)> {
    let mut per_block: HashMap<u32, NeumaierSum> = HashMap::new();
    for t in m.markov_from(s) {
        per_block
            .entry(part.block[t.target as usize])
            .or_default()
            .add(t.rate);
    }
    let mut v: Vec<(u32, u64)> = per_block
        .into_iter() // det-lint: allow(hash-iter): collected and sorted below.
        .map(|(b, r)| (b, quantize(r.value())))
        .collect();
    v.sort_unstable();
    v
}
