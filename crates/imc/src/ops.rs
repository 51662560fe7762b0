//! Composition operators on IMCs: hiding, relabelling, parallel composition
//! and the maximal-progress / urgency cuts.
//!
//! These implement the structural operational semantics rules of Section 3
//! of the paper. Hiding and parallel composition preserve uniformity
//! (Lemmas 1 and 2); the property tests of this crate check both on random
//! uniform IMCs.

use std::collections::HashMap;

use unicon_lts::{ActionId, ActionTable, Transition};

use crate::model::{Imc, MarkovTransition, View};

impl Imc {
    /// Hides (internalizes) the named actions: each becomes τ. Markov
    /// transitions are untouched (third SOS rule of hiding).
    ///
    /// Lemma 1: the result is uniform whenever `self` is (hiding never adds
    /// stable states).
    ///
    /// Unknown action names are ignored.
    pub fn hide(&self, actions: &[&str]) -> Imc {
        let hidden: Vec<ActionId> = actions
            .iter()
            .filter_map(|a| self.actions().lookup(a))
            .collect();
        let out = self.map_actions(|id| if hidden.contains(&id) { None } else { Some(id) });
        crate::audit::preserves_uniformity("hide (Lemma 1)", View::Open, &[self], &out);
        crate::audit::record(
            "hide",
            crate::audit::lemma::LEMMA1,
            View::Open,
            &[self],
            &out,
            crate::audit::Witness::Hide {
                hidden: actions.iter().map(|a| a.to_string()).collect(),
            },
        );
        out
    }

    /// Hides every visible action: the *closed system view* used right
    /// before the transformation to a CTMDP is purely structural, but
    /// closing also makes all interactive transitions internal.
    pub fn hide_all(&self) -> Imc {
        let out = self.map_actions(|_| None);
        crate::audit::preserves_uniformity("hide_all (Lemma 1)", View::Open, &[self], &out);
        crate::audit::record(
            "hide_all",
            crate::audit::lemma::LEMMA1,
            View::Open,
            &[self],
            &out,
            crate::audit::Witness::Hide {
                hidden: self
                    .actions()
                    .visible()
                    .map(|(_, n)| n.to_string())
                    .collect(),
            },
        );
        out
    }

    /// Renames actions according to `(from, to)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if τ appears as a `from` action.
    pub fn relabel(&self, map: &[(&str, &str)]) -> Imc {
        let rename: HashMap<&str, &str> = map.iter().copied().collect();
        assert!(
            !rename.contains_key(unicon_lts::TAU_NAME),
            "the internal action tau cannot be relabelled"
        );
        let mut new_actions = ActionTable::new();
        let translate: Vec<ActionId> = self
            .actions()
            .iter()
            .map(|(_, name)| new_actions.intern(rename.get(name).copied().unwrap_or(name)))
            .collect();
        let interactive = self
            .interactive()
            .iter()
            .map(|t| Transition {
                source: t.source,
                action: translate[t.action.index()],
                target: t.target,
            })
            .collect();
        let out = Imc::from_raw(
            new_actions,
            self.num_states(),
            self.initial(),
            interactive,
            self.markov().to_vec(),
        );
        crate::audit::record(
            "relabel",
            crate::audit::lemma::RELABEL,
            View::Open,
            &[self],
            &out,
            crate::audit::Witness::Relabel {
                map: map
                    .iter()
                    .map(|(f, t)| (f.to_string(), t.to_string()))
                    .collect(),
            },
        );
        out
    }

    /// Internal helper: re-map every action id; `None` means "becomes τ".
    fn map_actions<F: FnMut(ActionId) -> Option<ActionId>>(&self, mut f: F) -> Imc {
        let mut new_actions = ActionTable::new();
        let translate: Vec<ActionId> = self
            .actions()
            .iter()
            .map(|(id, name)| match f(id) {
                Some(id) if !id.is_tau() => new_actions.intern(name),
                _ => ActionId::TAU,
            })
            .collect();
        let interactive = self
            .interactive()
            .iter()
            .map(|t| Transition {
                source: t.source,
                action: translate[t.action.index()],
                target: t.target,
            })
            .collect();
        Imc::from_raw(
            new_actions,
            self.num_states(),
            self.initial(),
            interactive,
            self.markov().to_vec(),
        )
    }

    /// CSP/LOTOS-style parallel composition `self |[sync]| other`.
    ///
    /// Interactive transitions synchronize on the actions of `sync` and
    /// interleave otherwise; Markov transitions always interleave (justified
    /// by the memoryless property). Only the reachable product is built.
    ///
    /// Lemma 2: if both operands are uniform with rates `E₁` and `E₂`, the
    /// composition is uniform with rate `E₁ + E₂` — provided each operand
    /// carries its full exit rate in every state that can appear inside a
    /// stable product state (the elapse construction guarantees this).
    ///
    /// # Panics
    ///
    /// Panics if `sync` contains τ.
    pub fn parallel(&self, other: &Imc, sync: &[&str]) -> Imc {
        self.parallel_with_map(other, sync).0
    }

    /// Like [`Imc::parallel`], additionally returning, for every product
    /// state, the pair of component states it represents. Needed when state
    /// properties (goal sets) must be evaluated on the composition.
    ///
    /// # Panics
    ///
    /// Panics if `sync` contains τ.
    pub fn parallel_with_map(&self, other: &Imc, sync: &[&str]) -> (Imc, Vec<(u32, u32)>) {
        assert!(
            !sync.contains(&unicon_lts::TAU_NAME),
            "tau cannot be in a synchronization set"
        );
        let mut actions = ActionTable::new();
        let left_tr: Vec<ActionId> = self
            .actions()
            .iter()
            .map(|(_, n)| actions.intern(n))
            .collect();
        let right_tr: Vec<ActionId> = other
            .actions()
            .iter()
            .map(|(_, n)| actions.intern(n))
            .collect();
        let sync_ids: Vec<ActionId> = sync.iter().map(|a| actions.intern(a)).collect();
        // Per-action lookup table over the union alphabet: O(1) sync tests
        // instead of a linear scan per transition.
        let mut is_sync = vec![false; actions.len()];
        for &a in &sync_ids {
            is_sync[a.index()] = true;
        }
        // Union action id -> right-local action id, so synchronized matches
        // can binary-search the sorted per-state slice of `other` instead of
        // filtering it transition by transition. Interning is injective, so
        // at most one right-local id maps to each union id.
        let mut right_of_union: Vec<Option<ActionId>> = vec![None; actions.len()];
        for (local, &union) in right_tr.iter().enumerate() {
            right_of_union[union.index()] = Some(ActionId(local as u32));
        }

        let mut index: HashMap<(u32, u32), u32> = HashMap::new();
        let mut states: Vec<(u32, u32)> = Vec::new();
        let mut interactive: Vec<Transition> = Vec::new();
        let mut markov: Vec<MarkovTransition> = Vec::new();
        let start = (self.initial(), other.initial());
        index.insert(start, 0);
        states.push(start);
        let mut frontier = vec![start];

        // Note on closures: `alloc` needs mutable access to the shared
        // exploration state, so it is a small fn-style helper instead.
        fn alloc(
            index: &mut HashMap<(u32, u32), u32>,
            states: &mut Vec<(u32, u32)>,
            frontier: &mut Vec<(u32, u32)>,
            tgt: (u32, u32),
        ) -> u32 {
            *index.entry(tgt).or_insert_with(|| {
                states.push(tgt);
                frontier.push(tgt);
                (states.len() - 1) as u32
            })
        }

        while let Some((ls, rs)) = frontier.pop() {
            let src = index[&(ls, rs)];
            // Per-state adjacency slices, hoisted once per product state.
            let left_int = self.interactive_from(ls);
            let right_int = other.interactive_from(rs);
            // Interleaved interactive moves.
            for t in left_int {
                let a = left_tr[t.action.index()];
                if !is_sync[a.index()] {
                    let id = alloc(&mut index, &mut states, &mut frontier, (t.target, rs));
                    interactive.push(Transition {
                        source: src,
                        action: a,
                        target: id,
                    });
                }
            }
            for t in right_int {
                let a = right_tr[t.action.index()];
                if !is_sync[a.index()] {
                    let id = alloc(&mut index, &mut states, &mut frontier, (ls, t.target));
                    interactive.push(Transition {
                        source: src,
                        action: a,
                        target: id,
                    });
                }
            }
            // Synchronized interactive moves. Right matches for one action
            // form a contiguous run of the (action, target)-sorted slice,
            // found by binary search — same transitions, same order, so the
            // product state numbering is untouched.
            for lt in left_int {
                let a = left_tr[lt.action.index()];
                if is_sync[a.index()] {
                    let Some(ra) = right_of_union[a.index()] else {
                        continue;
                    };
                    let lo = right_int.partition_point(|t| t.action < ra);
                    let hi = lo + right_int[lo..].partition_point(|t| t.action == ra);
                    for rt in &right_int[lo..hi] {
                        let id = alloc(
                            &mut index,
                            &mut states,
                            &mut frontier,
                            (lt.target, rt.target),
                        );
                        interactive.push(Transition {
                            source: src,
                            action: a,
                            target: id,
                        });
                    }
                }
            }
            // Markov moves: plain interleaving.
            for m in self.markov_from(ls) {
                let id = alloc(&mut index, &mut states, &mut frontier, (m.target, rs));
                markov.push(MarkovTransition {
                    source: src,
                    rate: m.rate,
                    target: id,
                });
            }
            for m in other.markov_from(rs) {
                let id = alloc(&mut index, &mut states, &mut frontier, (ls, m.target));
                markov.push(MarkovTransition {
                    source: src,
                    rate: m.rate,
                    target: id,
                });
            }
        }
        let n = states.len();
        let out = Imc::from_raw(actions, n, 0, interactive, markov);
        crate::audit::preserves_uniformity("parallel (Lemma 2)", View::Open, &[self, other], &out);
        crate::audit::record(
            "parallel",
            crate::audit::lemma::LEMMA2,
            View::Open,
            &[self, other],
            &out,
            crate::audit::Witness::Parallel {
                sync: sync.iter().map(|a| a.to_string()).collect(),
            },
        );
        (out, states)
    }

    /// The visible action names occurring in both models' alphabets.
    pub fn shared_alphabet<'a>(&'a self, other: &'a Imc) -> Vec<&'a str> {
        self.actions()
            .visible()
            .filter_map(|(_, n)| other.actions().lookup(n).map(|_| n))
            .collect()
    }

    /// Restricts to the reachable states, renumbering in state order.
    pub fn restrict_to_reachable(&self) -> Imc {
        self.restrict_to_reachable_with_map().0
    }

    /// Like [`Imc::restrict_to_reachable`], additionally returning, for
    /// every new state, the old state it came from.
    pub fn restrict_to_reachable_with_map(&self) -> (Imc, Vec<u32>) {
        let reach = self.reachable_states();
        let mut map = vec![u32::MAX; self.num_states()];
        let mut next = 0u32;
        for (s, &r) in reach.iter().enumerate() {
            if r {
                map[s] = next;
                next += 1;
            }
        }
        let interactive = self
            .interactive()
            .iter()
            .filter(|t| reach[t.source as usize])
            .map(|t| Transition {
                source: map[t.source as usize],
                action: t.action,
                target: map[t.target as usize],
            })
            .collect();
        let markov = self
            .markov()
            .iter()
            .filter(|m| reach[m.source as usize])
            .map(|m| MarkovTransition {
                source: map[m.source as usize],
                rate: m.rate,
                target: map[m.target as usize],
            })
            .collect();
        let mut old_of_new = vec![0u32; next as usize];
        for (old, &new) in map.iter().enumerate() {
            if new != u32::MAX {
                old_of_new[new as usize] = old as u32;
            }
        }
        (
            Imc::from_raw(
                self.actions().clone(),
                next as usize,
                map[self.initial() as usize],
                interactive,
                markov,
            ),
            old_of_new,
        )
    }

    /// Applies the pre-emption cut of the given view: removes Markov
    /// transitions from unstable states (τ pre-empts under `Open`; any
    /// interactive transition pre-empts under `Closed`).
    ///
    /// Under `Closed` this is exactly step (1) of the uIMC → uCTMDP
    /// transformation: hybrid states lose their Markov transitions and
    /// become interactive states.
    pub fn apply_pre_emption(&self, view: View) -> Imc {
        let markov = self
            .markov()
            .iter()
            .filter(|m| self.is_stable(m.source, view))
            .copied()
            .collect();
        Imc::from_raw(
            self.actions().clone(),
            self.num_states(),
            self.initial(),
            self.interactive().to_vec(),
            markov,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ImcBuilder, StateKind, Uniformity};
    use unicon_numeric::assert_close;

    /// A two-state uniform IMC: ping-pong Markov at rate `e`, with a visible
    /// self-signal `a` on state 0.
    fn uniform_pair(e: f64, action: &str) -> Imc {
        let mut b = ImcBuilder::new(2, 0);
        b.markov(0, e, 1);
        b.markov(1, e, 0);
        b.interactive(action, 0, 0);
        b.build()
    }

    #[test]
    fn hide_preserves_uniformity_lemma1() {
        let m = uniform_pair(2.0, "a");
        assert_eq!(m.uniformity(View::Open), Uniformity::Uniform(2.0));
        let h = m.hide(&["a"]);
        // state 0 became unstable, so uniformity is checked on state 1 only
        assert!(h.is_uniform(View::Open));
        assert!(h.has_tau(0));
    }

    #[test]
    fn hide_can_make_nonuniform_model_uniform() {
        // Non-uniform: stable states 0 (rate 1) and 1 (rate 2).
        let mut b = ImcBuilder::new(2, 0);
        b.markov(0, 1.0, 1);
        b.markov(1, 2.0, 0);
        b.interactive("a", 0, 1);
        let m = b.build();
        assert!(!m.is_uniform(View::Open));
        // Hiding `a` destabilizes state 0 — the converse of Lemma 1 fails.
        assert!(m.hide(&["a"]).is_uniform(View::Open));
    }

    #[test]
    fn hide_all_closes_the_model() {
        let m = uniform_pair(1.0, "a").hide_all();
        assert!(m.actions().lookup("a").is_none());
        assert!(m.has_tau(0));
    }

    #[test]
    fn parallel_rates_add_lemma2() {
        let m = uniform_pair(2.0, "a");
        let n = uniform_pair(3.0, "b");
        let p = m.parallel(&n, &[]);
        match p.uniformity(View::Open) {
            Uniformity::Uniform(e) => assert_close!(e, 5.0, 1e-12),
            other => panic!("expected uniform composition, got {other:?}"),
        }
    }

    #[test]
    fn parallel_synchronizes() {
        let mut a = ImcBuilder::new(2, 0);
        a.interactive("s", 0, 1);
        let a = a.build();
        let mut b = ImcBuilder::new(2, 0);
        b.interactive("s", 0, 1);
        b.markov(1, 1.0, 1);
        let b = b.build();
        let p = a.parallel(&b, &["s"]);
        assert_eq!(p.num_states(), 2);
        assert_eq!(p.num_interactive(), 1);
        assert_eq!(p.num_markov(), 1);
    }

    #[test]
    fn parallel_markov_always_interleaves() {
        let mut a = ImcBuilder::new(2, 0);
        a.markov(0, 1.0, 1);
        let a = a.build();
        let p = a.parallel(&a, &[]);
        // (0,0) -> (1,0), (0,1); then to (1,1): 4 states, 4 markov arrows
        assert_eq!(p.num_states(), 4);
        assert_eq!(p.num_markov(), 4);
    }

    #[test]
    fn relabel_keeps_markov() {
        let m = uniform_pair(1.5, "a").relabel(&[("a", "fail_ws")]);
        assert!(m.actions().lookup("fail_ws").is_some());
        assert_eq!(m.num_markov(), 2);
    }

    #[test]
    fn pre_emption_cut_removes_hybrid_markov() {
        let mut b = ImcBuilder::new(2, 0);
        b.interactive("v", 0, 1);
        b.markov(0, 1.0, 1); // hybrid under both views? v is visible
        b.markov(1, 1.0, 0);
        let m = b.build();
        // Open view: `v` is delayable, state 0 keeps its Markov transition.
        assert_eq!(m.apply_pre_emption(View::Open).num_markov(), 2);
        // Closed view: urgency removes it.
        let closed = m.apply_pre_emption(View::Closed);
        assert_eq!(closed.num_markov(), 1);
        assert_eq!(closed.kind(0), StateKind::Interactive);
    }

    #[test]
    fn restrict_reachable_drops_garbage() {
        let mut b = ImcBuilder::new(4, 1);
        b.markov(1, 1.0, 2);
        b.interactive("x", 2, 1);
        b.markov(0, 9.0, 3); // unreachable island
        let m = b.build().restrict_to_reachable();
        assert_eq!(m.num_states(), 2);
        assert_eq!(m.initial(), 0);
        assert_eq!(m.num_markov(), 1);
    }

    #[test]
    #[should_panic(expected = "tau cannot be in a synchronization set")]
    fn parallel_rejects_tau_sync() {
        let m = uniform_pair(1.0, "a");
        m.parallel(&m, &["tau"]);
    }
}
