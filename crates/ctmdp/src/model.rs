//! The [`Ctmdp`] model: states, actions and rate-function transitions.

use unicon_lts::{ActionId, ActionTable};
use unicon_numeric::NeumaierSum;

/// A sparse rate function `R : S → ℝ⁺` (Definition 1).
///
/// `total()` is `E_R = Σ_{s'} R(s')`, the exit rate of the transition; the
/// discrete branching probabilities are `Pr_R(s, s') = R(s') / E_R`.
#[derive(Debug, Clone, PartialEq)]
pub struct RateFunction {
    /// `(target, rate)` pairs, sorted by target, rates > 0.
    targets: Vec<(u32, f64)>,
    total: f64,
}

impl RateFunction {
    /// Builds a rate function from `(target, rate)` pairs; duplicate targets
    /// are merged by addition.
    ///
    /// # Panics
    ///
    /// Panics if empty, or if any rate is not finite and positive.
    pub fn new(mut pairs: Vec<(u32, f64)>) -> Self {
        assert!(!pairs.is_empty(), "a rate function must be non-empty");
        pairs.sort_unstable_by_key(|&(t, _)| t);
        let mut merged: Vec<(u32, f64)> = Vec::with_capacity(pairs.len());
        for (t, r) in pairs {
            assert!(
                r.is_finite() && r > 0.0,
                "rates must be finite and positive"
            );
            match merged.last_mut() {
                Some((lt, lr)) if *lt == t => *lr += r,
                _ => merged.push((t, r)),
            }
        }
        let mut acc = NeumaierSum::new();
        for &(_, r) in &merged {
            acc.add(r);
        }
        Self {
            targets: merged,
            total: acc.value(),
        }
    }

    /// The `(target, rate)` pairs, sorted by target.
    pub fn targets(&self) -> &[(u32, f64)] {
        &self.targets
    }

    /// Exit rate `E_R`.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// `R(target)`, 0 if absent.
    pub fn rate(&self, target: u32) -> f64 {
        match self.targets.binary_search_by_key(&target, |&(t, _)| t) {
            Ok(i) => self.targets[i].1,
            Err(_) => 0.0,
        }
    }

    /// Discrete branching probability `Pr_R(·, target)`.
    pub fn prob(&self, target: u32) -> f64 {
        self.rate(target) / self.total
    }

    /// Iterates over `(target, probability)` pairs.
    pub fn probs(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.targets.iter().map(|&(t, r)| (t, r / self.total))
    }

    /// Cumulative rate into a set of states given as a membership slice.
    pub fn rate_into(&self, set: &[bool]) -> f64 {
        self.targets
            .iter()
            .filter(|&&(t, _)| set[t as usize])
            .map(|&(_, r)| r)
            .sum()
    }
}

/// Reference to one transition `(s, a, R)`: the action and the index of the
/// rate function in the model's pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionRef {
    /// Action label.
    pub action: ActionId,
    /// Index into [`Ctmdp::rate_functions`].
    pub rate_fn: u32,
}

/// Error returned by analyses that require a uniform CTMDP.
#[derive(Debug, Clone, PartialEq)]
pub struct NotUniformError {
    /// Exit rate of one transition.
    pub rate_a: f64,
    /// Exit rate of a conflicting transition.
    pub rate_b: f64,
}

impl std::fmt::Display for NotUniformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CTMDP is not uniform: transitions with exit rates {} and {} \
             (lint code U001 — Algorithm 1 requires a uniform CTMDP; build it \
             by transforming a uniform IMC)",
            self.rate_a, self.rate_b
        )
    }
}

impl std::error::Error for NotUniformError {}

/// A finite continuous-time Markov decision process (Definition 1, with
/// repeated action labels allowed).
///
/// Build with [`CtmdpBuilder`]. Rate functions are pooled and deduplicated
/// structurally — the paper's observation that "Markov states are in
/// one-to-one correspondence with the rate functions" makes this the
/// natural storage layout for transformed models.
#[derive(Debug, Clone, PartialEq)]
pub struct Ctmdp {
    actions: ActionTable,
    num_states: usize,
    initial: u32,
    rate_functions: Vec<RateFunction>,
    /// Per-state transition lists, flattened.
    transitions: Vec<TransitionRef>,
    offsets: Vec<usize>,
}

impl Ctmdp {
    /// Builds a CTMDP from checked parts: an action table, a rate-function
    /// pool, and the transitions of state `s` at
    /// `transitions[offsets[s]..offsets[s + 1]]`.
    ///
    /// # Panics
    ///
    /// Panics if `num_states == 0`, the initial state, a rate-function
    /// target, an action or a pool index is out of bounds, or `offsets` is
    /// not a non-decreasing run of `num_states + 1` offsets from 0 to
    /// `transitions.len()`.
    pub fn from_parts(
        actions: ActionTable,
        num_states: usize,
        initial: u32,
        rate_functions: Vec<RateFunction>,
        transitions: Vec<TransitionRef>,
        offsets: Vec<usize>,
    ) -> Self {
        assert!(num_states > 0, "a CTMDP needs at least one state");
        assert!(
            (initial as usize) < num_states,
            "initial state out of bounds"
        );
        assert_eq!(offsets.len(), num_states + 1, "per-state offsets mismatch");
        assert!(
            offsets[0] == 0
                && offsets.windows(2).all(|w| w[0] <= w[1])
                && offsets[num_states] == transitions.len(),
            "per-state offsets must run from 0 to the transition count"
        );
        for rf in &rate_functions {
            for &(t, _) in rf.targets() {
                assert!(
                    (t as usize) < num_states,
                    "rate-function target out of bounds"
                );
            }
        }
        for tr in &transitions {
            assert!(
                (tr.rate_fn as usize) < rate_functions.len(),
                "rate-function index out of bounds"
            );
            assert!(
                tr.action.index() < actions.len(),
                "transition action out of bounds"
            );
        }
        Self {
            actions,
            num_states,
            initial,
            rate_functions,
            transitions,
            offsets,
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of transitions `(s, a, R)`.
    pub fn num_transitions(&self) -> usize {
        self.transitions.len()
    }

    /// Number of distinct rate functions in the pool.
    pub fn num_rate_functions(&self) -> usize {
        self.rate_functions.len()
    }

    /// Total number of `(target, rate)` entries over all rate functions —
    /// the "Markov transitions" count of Table 1.
    pub fn num_rate_entries(&self) -> usize {
        self.rate_functions.iter().map(|r| r.targets().len()).sum()
    }

    /// The initial state.
    pub fn initial(&self) -> u32 {
        self.initial
    }

    /// The action table.
    pub fn actions(&self) -> &ActionTable {
        &self.actions
    }

    /// The rate-function pool.
    pub fn rate_functions(&self) -> &[RateFunction] {
        &self.rate_functions
    }

    /// One rate function by index.
    pub fn rate_function(&self, idx: u32) -> &RateFunction {
        &self.rate_functions[idx as usize]
    }

    /// A structural fingerprint: FNV-1a over the state count, the initial
    /// state, the action names, the per-state transition lists and the
    /// rate-function pool (rates by bit pattern). Used by the certification
    /// layer (`unicon-verify::certify`) to tie a recorded `transform`
    /// obligation to the CTMDP actually produced.
    pub fn fingerprint(&self) -> u64 {
        let mut h = unicon_numeric::fnv::Fnv64::new();
        h.write(b"ctmdp-v1");
        h.write_u64(self.num_states as u64);
        h.write_u32(self.initial);
        h.write_u64(self.actions.len() as u64);
        for (_, name) in self.actions.iter() {
            h.write(name.as_bytes());
            h.write(&[0xff]);
        }
        h.write_u64(self.rate_functions.len() as u64);
        for rf in &self.rate_functions {
            h.write_u64(rf.targets().len() as u64);
            for &(t, r) in rf.targets() {
                h.write_u32(t);
                h.write_f64(r);
            }
        }
        for s in 0..self.num_states as u32 {
            let trs = self.transitions_from(s);
            h.write_u64(trs.len() as u64);
            for tr in trs {
                h.write_u32(tr.action.0);
                h.write_u32(tr.rate_fn);
            }
        }
        h.finish()
    }

    /// Transitions emanating from `state` (the paper's `R(s)`).
    pub fn transitions_from(&self, state: u32) -> &[TransitionRef] {
        let s = state as usize;
        &self.transitions[self.offsets[s]..self.offsets[s + 1]]
    }

    /// Whether some state has no outgoing transition.
    pub fn has_absorbing_states(&self) -> bool {
        (0..self.num_states).any(|s| self.offsets[s] == self.offsets[s + 1])
    }

    /// Checks uniformity: all transitions' exit rates `E_R` equal under the
    /// workspace-wide tolerance policy
    /// ([`unicon_numeric::rates_approx_eq`]). Returns the common rate.
    ///
    /// # Errors
    ///
    /// Returns [`NotUniformError`] with two witness rates when non-uniform.
    /// A CTMDP without any transition is vacuously uniform with rate 0.
    pub fn uniform_rate(&self) -> Result<f64, NotUniformError> {
        let mut rate: Option<f64> = None;
        for tr in &self.transitions {
            let e = self.rate_functions[tr.rate_fn as usize].total();
            match rate {
                None => rate = Some(e),
                Some(r) => {
                    if !unicon_numeric::rates_approx_eq(e, r) {
                        return Err(NotUniformError {
                            rate_a: r,
                            rate_b: e,
                        });
                    }
                }
            }
        }
        Ok(rate.unwrap_or(0.0))
    }

    /// Approximate heap footprint of the sparse representation in bytes
    /// (Table 1's "Mem" column).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.transitions.len() * size_of::<TransitionRef>()
            + self.offsets.len() * size_of::<usize>()
            + self
                .rate_functions
                .iter()
                .map(|r| std::mem::size_of_val(r.targets()) + size_of::<f64>())
                .sum::<usize>()
    }
}

/// Builder for [`Ctmdp`].
///
/// Structurally identical rate functions are pooled automatically.
///
/// # Examples
///
/// ```
/// use unicon_ctmdp::CtmdpBuilder;
///
/// let mut b = CtmdpBuilder::new(2, 0);
/// b.transition(0, "a", &[(1, 1.0), (0, 1.0)]);
/// b.transition(0, "b", &[(1, 2.0)]);
/// b.transition(1, "a", &[(0, 2.0)]);
/// let m = b.build();
/// assert_eq!(m.num_transitions(), 3);
/// assert_eq!(m.uniform_rate().unwrap(), 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct CtmdpBuilder {
    actions: ActionTable,
    num_states: usize,
    initial: u32,
    rate_functions: Vec<RateFunction>,
    pool_index: std::collections::HashMap<Vec<(u32, u64)>, u32>,
    per_state: Vec<Vec<TransitionRef>>,
}

impl CtmdpBuilder {
    /// Starts a builder.
    ///
    /// # Panics
    ///
    /// Panics if `num_states == 0` or the initial state is out of bounds.
    pub fn new(num_states: usize, initial: u32) -> Self {
        assert!(num_states > 0, "a CTMDP needs at least one state");
        assert!(
            (initial as usize) < num_states,
            "initial state out of bounds"
        );
        Self {
            actions: ActionTable::new(),
            num_states,
            initial,
            rate_functions: Vec::new(),
            pool_index: std::collections::HashMap::new(),
            per_state: vec![Vec::new(); num_states],
        }
    }

    /// Adds a transition `(source, action, R)` where `R` is given by
    /// `(target, rate)` pairs.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds states or non-positive rates.
    pub fn transition(&mut self, source: u32, action: &str, rates: &[(u32, f64)]) -> &mut Self {
        assert!(
            (source as usize) < self.num_states,
            "source state out of bounds"
        );
        let rf = RateFunction::new(rates.to_vec());
        for &(t, _) in rf.targets() {
            assert!((t as usize) < self.num_states, "target state out of bounds");
        }
        let key: Vec<(u32, u64)> = rf
            .targets()
            .iter()
            .map(|&(t, r)| (t, r.to_bits()))
            .collect();
        let idx = match self.pool_index.get(&key) {
            Some(&i) => i,
            None => {
                let i = self.rate_functions.len() as u32;
                self.rate_functions.push(rf);
                self.pool_index.insert(key, i);
                i
            }
        };
        let action = self.actions.intern(action);
        let tr = TransitionRef {
            action,
            rate_fn: idx,
        };
        let list = &mut self.per_state[source as usize];
        if !list.contains(&tr) {
            list.push(tr);
        }
        self
    }

    /// Finalizes the CTMDP.
    pub fn build(self) -> Ctmdp {
        let mut offsets = Vec::with_capacity(self.num_states + 1);
        offsets.push(0);
        for list in &self.per_state {
            offsets.push(offsets[offsets.len() - 1] + list.len());
        }
        Ctmdp::from_parts(
            self.actions,
            self.num_states,
            self.initial,
            self.rate_functions,
            self.per_state.concat(),
            offsets,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicon_numeric::assert_close;

    #[test]
    fn rate_function_merges_and_sums() {
        let rf = RateFunction::new(vec![(2, 1.0), (0, 0.5), (2, 1.5)]);
        assert_eq!(rf.targets(), &[(0, 0.5), (2, 2.5)]);
        assert_close!(rf.total(), 3.0, 1e-12);
        assert_close!(rf.rate(2), 2.5, 1e-12);
        assert_eq!(rf.rate(1), 0.0);
        assert_close!(rf.prob(0), 0.5 / 3.0, 1e-12);
    }

    #[test]
    fn rate_into_set() {
        let rf = RateFunction::new(vec![(0, 1.0), (1, 2.0), (2, 3.0)]);
        assert_close!(rf.rate_into(&[true, false, true]), 4.0, 1e-12);
        assert_eq!(rf.rate_into(&[false, false, false]), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rate_function_rejects_empty() {
        RateFunction::new(vec![]);
    }

    #[test]
    fn builder_pools_identical_rate_functions() {
        let mut b = CtmdpBuilder::new(2, 0);
        b.transition(0, "a", &[(1, 1.0)]);
        b.transition(1, "b", &[(1, 1.0)]); // same rate function
        b.transition(0, "c", &[(0, 1.0)]);
        let m = b.build();
        assert_eq!(m.num_transitions(), 3);
        assert_eq!(m.num_rate_functions(), 2);
        assert_eq!(m.num_rate_entries(), 2);
    }

    #[test]
    fn duplicate_transitions_are_dropped() {
        let mut b = CtmdpBuilder::new(2, 0);
        b.transition(0, "a", &[(1, 1.0)]);
        b.transition(0, "a", &[(1, 1.0)]);
        assert_eq!(b.build().num_transitions(), 1);
    }

    #[test]
    fn same_action_different_rates_coexist() {
        // the paper's "mild variation"
        let mut b = CtmdpBuilder::new(3, 0);
        b.transition(0, "a", &[(1, 1.0)]);
        b.transition(0, "a", &[(2, 1.0)]);
        let m = b.build();
        assert_eq!(m.transitions_from(0).len(), 2);
        let actions: Vec<_> = m
            .transitions_from(0)
            .iter()
            .map(|t| m.actions().name(t.action))
            .collect();
        assert_eq!(actions, vec!["a", "a"]);
    }

    #[test]
    fn uniformity_check() {
        let mut b = CtmdpBuilder::new(2, 0);
        b.transition(0, "a", &[(1, 1.0), (0, 1.0)]);
        b.transition(1, "b", &[(0, 2.0)]);
        assert_eq!(b.build().uniform_rate().unwrap(), 2.0);

        let mut b = CtmdpBuilder::new(2, 0);
        b.transition(0, "a", &[(1, 1.0)]);
        b.transition(1, "b", &[(0, 2.0)]);
        let err = b.build().uniform_rate().unwrap_err();
        assert_eq!((err.rate_a, err.rate_b), (1.0, 2.0));
        assert!(err.to_string().contains("not uniform"));
    }

    #[test]
    fn empty_model_is_vacuously_uniform() {
        let m = CtmdpBuilder::new(1, 0).build();
        assert_eq!(m.uniform_rate().unwrap(), 0.0);
        assert!(m.has_absorbing_states());
    }

    #[test]
    fn memory_accounting_positive() {
        let mut b = CtmdpBuilder::new(2, 0);
        b.transition(0, "a", &[(1, 1.0)]);
        assert!(b.build().memory_bytes() > 0);
    }
}
