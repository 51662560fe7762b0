//! Theorem 1's transformation in one pass over index arrays.
//!
//! [`transform`] returns what [`transform_stepwise`] returns, bit for
//! bit, without building the intermediate IMCs of steps (1)–(3):
//!
//! * Step (1)'s cut and reachability, the fresh initial state and step
//!   (2)'s entry states are renumberings of the input's sorted arrays
//!   ([`Alternating`]).
//! * Step (3) interns words as `(prefix word, action)` ids and builds one
//!   name per distinct word ([`Words`]).
//! * The strictly alternating IMC and the CTMDP are assembled from runs
//!   already in their sorted order, so their constructors' sorts only
//!   confirm it. The Markov rows are read from the input through the
//!   renumbering, and each Markov state's rate function is interned
//!   straight into the CTMDP's flat pool.
//!
//! The step-wise route re-interns action names twice on the way; both
//! times the names are numbered by first appearance in the restricted
//! model's sorted interactive list, and step (3)'s search visits a
//! state's transitions in that numbering. [`Alternating`] ranks actions
//! the same way, so the words come out in the same order.

use std::collections::HashMap;
use std::time::Instant;

use unicon_ctmdp::{Ctmdp, RatePool, TransitionRef};
use unicon_imc::{Imc, MarkovTransition};
use unicon_lts::{ActionId, ActionTable, Transition, TAU_NAME};
use unicon_numeric::fnv::BuildFnv;

use crate::steps::{finish, transform_stepwise, TransformError, TransformOutput, ZeroClosures};

/// No state, action or word assigned yet.
const NONE: u32 = u32::MAX;

/// The full trajectory: steps (1)–(3) plus the CTMDP extraction, with
/// Table-1 statistics.
///
/// If the initial state is a Markov state after step (1), a fresh
/// interactive initial state with a τ transition to it is introduced
/// (keeping `s₀ ∈ S_I` as Definition 1 requires).
///
/// # Errors
///
/// [`TransformError::Zeno`] on interactive cycles the urgency cut leaves
/// reachable, [`TransformError::DeadEnd`] if a reachable state has no
/// transition after the cut. Both carry the payload the step-wise route
/// reports: it runs only then, to name the offending states.
pub fn transform(imc: &Imc) -> Result<TransformOutput, TransformError> {
    // A reachable dead end or interactive cycle: the step functions name
    // the offending states.
    transform_one_pass(imc).map_or_else(|| transform_stepwise(imc), Ok)
}

/// The one pass alone: `None` on a reachable dead end or interactive
/// cycle, which is exactly where [`transform_stepwise`] fails. Its cycle
/// search runs over the states this pass numbers, which are the states
/// the step functions search. Tests use it to check that [`transform`]
/// returns this pass's output for every model it transforms.
#[doc(hidden)]
pub fn transform_one_pass(imc: &Imc) -> Option<TransformOutput> {
    // det-lint: allow(clock): Table 1's transform time; no output bit reads it.
    let start = Instant::now();
    let alt = Alternating::new(imc).filter(Alternating::is_acyclic)?;
    let words = Words::new(&alt, imc.num_states());
    let names = words.names(&alt, imc);
    let strictly_alternating = alt.strictly_alternating(imc, &words, &names);
    let ctmdp = extract(&strictly_alternating, alt.kept.len());
    let origin = alt.kept.iter().map(|&s| alt.origin[s as usize]).collect();
    Some(finish(
        imc,
        ctmdp,
        strictly_alternating,
        origin,
        words.closures,
        start,
    ))
}

/// The Markov alternating model of step (2), numbered as the step
/// functions number it: the reachable states of the cut input in
/// ascending order, then the fresh initial state (when the initial state
/// is a Markov state), then one entry state per Markov state with a
/// Markov predecessor, in the order of those Markov states.
struct Alternating {
    /// The input state each state represents; a fresh state inherits its
    /// τ successor's.
    origin: Vec<u32>,
    /// Whether each state is a Markov state (no fresh state is).
    markov: Vec<bool>,
    initial: u32,
    /// The interactive transitions of state `s` are
    /// `arcs[off[s]..off[s + 1]]`, as `(action rank, target)` pairs sorted
    /// like the step-(2) IMC's lists. Rank 0 is τ.
    off: Vec<usize>,
    arcs: Vec<(u32, u32)>,
    /// The input action of each rank.
    actions: Vec<ActionId>,
    /// Per input state, the state a Markov transition into it lands on:
    /// its entry state if it is a Markov state, else itself.
    landing: Vec<u32>,
    /// The interactive states step (3) keeps: the initial state and every
    /// Markov target, ascending.
    kept: Vec<u32>,
}

impl Alternating {
    /// Renumbers `imc`; `None` if a reachable state has no transition
    /// after the cut.
    fn new(imc: &Imc) -> Option<Self> {
        // Step (1): the urgency cut keeps a state's Markov transitions only
        // when it has no interactive one; number what is reachable after it.
        let n = imc.num_states();
        let mut new_of = vec![NONE; n];
        new_of[imc.initial() as usize] = 0;
        let mut stack = vec![imc.initial()];
        while let Some(s) = stack.pop() {
            let ints = imc.interactive_from(s);
            let rates = if ints.is_empty() {
                imc.markov_from(s)
            } else {
                &[]
            };
            let targets = ints.iter().map(|t| t.target);
            for t in targets.chain(rates.iter().map(|m| m.target)) {
                if new_of[t as usize] == NONE {
                    new_of[t as usize] = 0;
                    stack.push(t);
                }
            }
        }
        let mut origin = Vec::new();
        for (s, slot) in new_of.iter_mut().enumerate() {
            if *slot != NONE {
                *slot = origin.len() as u32;
                origin.push(s as u32);
            }
        }
        let r = origin.len();
        let mut markov = Vec::with_capacity(r);
        for &s in &origin {
            let interactive = !imc.interactive_from(s).is_empty();
            if !interactive && imc.markov_from(s).is_empty() {
                return None;
            }
            markov.push(!interactive);
        }

        // The entry states, and the interactive states step (3) keeps:
        // the initial state, every entry state and every other Markov
        // target. `keep` marks the last; fresh states are numbered past it.
        let mut entry_of = vec![NONE; r];
        let mut keep = vec![false; r];
        let mut entries = 0;
        for (x, &s) in origin.iter().enumerate() {
            if markov[x] {
                for m in imc.markov_from(s) {
                    let t = new_of[m.target as usize] as usize;
                    if !markov[t] {
                        keep[t] = true;
                    } else if entry_of[t] == NONE {
                        entry_of[t] = 0;
                        entries += 1;
                    }
                }
            }
        }
        let initial_r = new_of[imc.initial() as usize];
        let fresh_states = entries + usize::from(markov[initial_r as usize]);
        origin.reserve_exact(fresh_states);
        markov.reserve_exact(fresh_states);

        // Actions ranked by first appearance in the restricted model's
        // sorted interactive list, τ first; each state's arcs by rank.
        let mut rank = vec![NONE; imc.actions().len()];
        rank[ActionId::TAU.index()] = 0;
        let mut actions = vec![ActionId::TAU];
        let mut off = Vec::with_capacity(r + fresh_states + 1);
        off.push(0);
        let mut arcs = Vec::with_capacity(imc.num_interactive() + fresh_states);
        for &s in &origin {
            let row = arcs.len();
            for t in imc.interactive_from(s) {
                let a = &mut rank[t.action.index()];
                if *a == NONE {
                    *a = actions.len() as u32;
                    actions.push(t.action);
                }
                arcs.push((*a, new_of[t.target as usize]));
            }
            arcs[row..].sort_unstable();
            off.push(arcs.len());
        }

        // Fresh states, each with one τ transition: the initial state's
        // prefix, then the entry states.
        let mut fresh = |to: u32, origin: &mut Vec<u32>, markov: &mut Vec<bool>| {
            origin.push(origin[to as usize]);
            markov.push(false);
            arcs.push((0, to));
            off.push(arcs.len());
        };
        let initial = if markov[initial_r as usize] {
            fresh(initial_r, &mut origin, &mut markov);
            r as u32
        } else {
            initial_r
        };
        for t in 0..r as u32 {
            if entry_of[t as usize] != NONE {
                entry_of[t as usize] = origin.len() as u32;
                fresh(t, &mut origin, &mut markov);
            }
        }
        let kept = (0..origin.len() as u32)
            .filter(|&s| s == initial || s as usize >= r || keep[s as usize])
            .collect();

        let mut landing = new_of;
        for t in &mut landing {
            if *t != NONE && markov[*t as usize] {
                *t = entry_of[*t as usize];
            }
        }
        Some(Self {
            origin,
            markov,
            initial,
            off,
            arcs,
            actions,
            landing,
            kept,
        })
    }

    /// The interactive transitions of state `s`.
    fn row(&self, s: u32) -> &[(u32, u32)] {
        &self.arcs[self.off[s as usize]..self.off[s as usize + 1]]
    }

    /// Whether no interactive transitions form a cycle. These are the
    /// states and transitions the step functions search for one: the
    /// fresh states have no interactive predecessor, so they close none.
    fn is_acyclic(&self) -> bool {
        // Colour search: 0 = not seen, 1 = on the stack, 2 = done.
        let mut colour = vec![0u8; self.origin.len()];
        let mut stack: Vec<(u32, usize)> = Vec::new();
        for root in 0..self.origin.len() as u32 {
            if colour[root as usize] != 0 {
                continue;
            }
            colour[root as usize] = 1;
            stack.push((root, 0));
            while let Some(&mut (s, ref mut next)) = stack.last_mut() {
                let Some(&(_, t)) = self.row(s).get(*next) else {
                    colour[s as usize] = 2;
                    stack.pop();
                    continue;
                };
                *next += 1;
                match colour[t as usize] {
                    0 => {
                        colour[t as usize] = 1;
                        stack.push((t, 0));
                    }
                    1 => return false,
                    _ => {}
                }
            }
        }
        true
    }

    /// Step (3)'s strictly alternating IMC: the kept states, then the
    /// Markov states, each in ascending order; word names are interned in
    /// the order step (3) emits them. [`Imc::from_parts`] drops repeated
    /// transitions, which also merges words with equal names.
    fn strictly_alternating(&self, imc: &Imc, words: &Words, names: &[String]) -> Imc {
        let k = self.kept.len();
        let mut sa_of = vec![NONE; self.origin.len()];
        for (i, &s) in self.kept.iter().enumerate() {
            sa_of[s as usize] = i as u32;
        }
        let mut next = k as u32;
        for (slot, _) in sa_of.iter_mut().zip(&self.markov).filter(|(_, &m)| m) {
            *slot = next;
            next += 1;
        }

        let mut actions = ActionTable::new();
        let mut action_of = vec![NONE; names.len()];
        let mut interactive = Vec::with_capacity(words.emitted.len());
        for (i, run) in words.off.windows(2).enumerate() {
            let row = interactive.len();
            for &(w, t) in &words.emitted[run[0]..run[1]] {
                let a = &mut action_of[w as usize];
                if *a == NONE {
                    *a = actions.intern(&names[w as usize]).0;
                }
                interactive.push(Transition {
                    source: i as u32,
                    action: ActionId(*a),
                    target: sa_of[t as usize],
                });
            }
            interactive[row..].sort_unstable();
        }

        // The Markov states are the reachable states of the cut input that
        // are Markov states; each row is read from the input.
        let mut markov = Vec::with_capacity(imc.num_markov());
        for (x, &s) in self.origin.iter().enumerate() {
            if !self.markov[x] {
                continue;
            }
            let row = markov.len();
            markov.extend(imc.markov_from(s).iter().map(|m| MarkovTransition {
                source: sa_of[x],
                rate: m.rate,
                target: sa_of[self.landing[m.target as usize] as usize],
            }));
            markov[row..].sort_unstable_by(|a, b| {
                a.target
                    .cmp(&b.target)
                    .then(a.rate.partial_cmp(&b.rate).expect("rates are finite"))
            });
        }
        Imc::from_parts(
            actions,
            next as usize,
            sa_of[self.initial as usize],
            interactive,
            markov,
        )
    }
}

/// Step (3)'s words: every interactive path from a kept state to a Markov
/// state, found by the same last-in-first-out search the step function
/// runs.
struct Words {
    /// Word `w > 0` is `nodes[w] = (prefix word, action rank)`; word 0 is
    /// the empty word.
    nodes: Vec<(u32, u32)>,
    /// The `(word, Markov target)` pairs of the `i`-th kept state are
    /// `emitted[off[i]..off[i + 1]]`, in emission order. A pair found
    /// along two paths appears twice; only its first emission can intern
    /// a name, and the IMC constructor drops the repeat.
    emitted: Vec<(u32, u32)>,
    off: Vec<usize>,
    /// Per kept state, the input states its zero-time paths touch, sorted.
    closures: ZeroClosures,
}

impl Words {
    /// Searches the words of `alt`, a renumbering of an input with
    /// `input_states` states.
    fn new(alt: &Alternating, input_states: usize) -> Self {
        let mut index: HashMap<(u32, u32), u32, BuildFnv> = HashMap::default();
        let mut nodes = vec![(NONE, 0)];
        let mut emitted = Vec::new();
        let mut off = Vec::with_capacity(alt.kept.len() + 1);
        off.push(0);
        let mut closure_off = Vec::with_capacity(alt.kept.len() + 1);
        closure_off.push(0);
        let mut closure = Vec::new();
        // The last kept state whose closure took each input state.
        let mut taken_by = vec![NONE; input_states];
        let mut stack = Vec::new();
        for (i, &s) in alt.kept.iter().enumerate() {
            let i = i as u32;
            let row = closure.len();
            let mut take = |o: u32| {
                if taken_by[o as usize] != i {
                    taken_by[o as usize] = i;
                    closure.push(o);
                }
            };
            take(alt.origin[s as usize]);
            stack.push((s, 0));
            while let Some((cur, word)) = stack.pop() {
                for &(a, t) in alt.row(cur) {
                    let w = if a == 0 {
                        word
                    } else {
                        *index.entry((word, a)).or_insert_with(|| {
                            nodes.push((word, a));
                            nodes.len() as u32 - 1
                        })
                    };
                    take(alt.origin[t as usize]);
                    if alt.markov[t as usize] {
                        emitted.push((w, t));
                    } else {
                        stack.push((t, w));
                    }
                }
            }
            closure[row..].sort_unstable();
            closure_off.push(closure.len());
            off.push(emitted.len());
        }
        Self {
            nodes,
            emitted,
            off,
            closures: ZeroClosures::new(closure_off, closure),
        }
    }

    /// Each word's name: its visible actions joined by `.`, `tau` for the
    /// empty word.
    fn names(&self, alt: &Alternating, imc: &Imc) -> Vec<String> {
        let mut names = Vec::with_capacity(self.nodes.len());
        names.push(TAU_NAME.to_owned());
        for &(prefix, a) in &self.nodes[1..] {
            let action = imc.actions().name(alt.actions[a as usize]);
            names.push(if prefix == 0 {
                action.to_owned()
            } else {
                format!("{}.{action}", names[prefix as usize])
            });
        }
        names
    }
}

/// Reads the strictly alternating IMC `sa`, whose first `k` states are its
/// interactive states, as a CTMDP: the extraction of [`crate::to_ctmdp`].
///
/// [`crate::to_ctmdp`] interns action names and pools rate functions by
/// `(target, rate bits)` in the order they first appear along the sorted
/// interactive list. `sa` interned its word names in emission order, state
/// by state, and a state's new names get the highest ids so far, so names
/// first appear along the sorted list in id order: the CTMDP keeps `sa`'s
/// action table. Here each Markov state's row is interned into the pool
/// where it first appears along that list, so the pool keeps the same
/// order and indices.
fn extract(sa: &Imc, k: usize) -> Ctmdp {
    let mut pool_of = vec![NONE; sa.num_states() - k];
    let mut pool = RatePool::new(pool_of.len(), sa.num_markov());
    let mut transitions = Vec::with_capacity(sa.num_interactive());
    let mut offsets = Vec::with_capacity(k + 1);
    offsets.push(0);
    for s in 0..k as u32 {
        let row = transitions.len();
        for t in sa.interactive_from(s) {
            let p = &mut pool_of[t.target as usize - k];
            if *p == NONE {
                *p = pool.intern(sa.markov_from(t.target).iter().map(|m| (m.target, m.rate)));
            }
            let tr = TransitionRef {
                action: t.action,
                rate_fn: *p,
            };
            if !transitions[row..].contains(&tr) {
                transitions.push(tr);
            }
        }
        offsets.push(transitions.len());
    }
    let (rate_entries, rate_offsets) = pool.into_parts();
    Ctmdp::from_parts(
        sa.actions().clone(),
        k,
        sa.initial(),
        rate_entries,
        rate_offsets,
        transitions,
        offsets,
    )
}
