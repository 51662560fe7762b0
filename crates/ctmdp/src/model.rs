//! The [`Ctmdp`] model: states, actions and rate-function transitions.

use std::collections::hash_map::{Entry, HashMap};

use unicon_lts::{ActionId, ActionTable};
use unicon_numeric::fnv::{self, fnv_word, BuildFnv};
use unicon_numeric::NeumaierSum;

/// No row: the end of a [`RatePool`] hash chain.
const NONE: u32 = u32::MAX;

/// A sparse rate function `R : S → ℝ⁺` (Definition 1): a view into its
/// model's rate-function pool.
///
/// `total()` is `E_R = Σ_{s'} R(s')`, the exit rate of the transition; the
/// discrete branching probabilities are `Pr_R(s, s') = R(s') / E_R`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateFunction<'a> {
    /// `(target, rate)` pairs, targets strictly increasing, rates > 0.
    targets: &'a [(u32, f64)],
    total: f64,
}

impl<'a> RateFunction<'a> {
    /// The `(target, rate)` pairs, sorted by target.
    pub fn targets(&self) -> &'a [(u32, f64)] {
        self.targets
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
    pub fn probs(&self) -> impl Iterator<Item = (u32, f64)> + 'a {
        let total = self.total;
        self.targets.iter().map(move |&(t, r)| (t, r / total))
    }

    /// Cumulative rate into a set of states given as a membership slice.
    pub fn rate_into(&self, set: &[bool]) -> f64 {
        self.targets
            .iter()
            .filter(|&&(t, _)| set[t as usize])
            .map(|&(_, r)| r)
            // det-lint: allow(float-sum): a left-to-right fold in target
            // order; the reach checksums pin its bits.
            .sum()
    }
}

/// A rate-function pool under construction: every function's
/// `(target, rate)` entries in one flat array, each interned by content
/// so that equal functions share one index.
///
/// A row is hashed word by word (FNV-1a over each target and each rate's
/// bit pattern); rows with equal hashes are compared entry by entry. The
/// first occurrence of a row keeps its index, so indices follow the order
/// in which distinct rows first arrive.
#[derive(Debug, Clone)]
pub struct RatePool {
    entries: Vec<(u32, f64)>,
    /// Row `i` is `entries[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    /// The newest row with each hash.
    by_hash: HashMap<u64, u32, BuildFnv>,
    /// Per row, the next older row with the same hash, or [`NONE`].
    older: Vec<u32>,
}

impl RatePool {
    /// An empty pool with room for `rows` rows of `entries` entries in
    /// all, so that interning that many allocates nothing more.
    pub fn new(rows: usize, entries: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Self {
            entries: Vec::with_capacity(entries),
            offsets,
            by_hash: HashMap::with_capacity_and_hasher(rows, BuildFnv),
            older: Vec::with_capacity(rows),
        }
    }

    /// Interns one rate function given as `(target, rate)` pairs sorted by
    /// target. Neighbouring pairs with one target merge, their rates added
    /// in the order given. Returns the index of the equal row interned
    /// first, or a new index one past the last.
    ///
    /// # Panics
    ///
    /// Panics if the row is empty.
    pub fn intern(&mut self, row: impl IntoIterator<Item = (u32, f64)>) -> u32 {
        self.intern_with(row, row_hash)
    }

    /// [`Self::intern`] under the hash `hash`.
    fn intern_with(
        &mut self,
        row: impl IntoIterator<Item = (u32, f64)>,
        hash: fn(&[(u32, f64)]) -> u64,
    ) -> u32 {
        let start = self.entries.len();
        for (t, r) in row {
            match self.entries[start..].last_mut() {
                Some((last, sum)) if *last == t => *sum += r,
                _ => self.entries.push((t, r)),
            }
        }
        assert!(
            self.entries.len() > start,
            "a rate function must be non-empty"
        );
        let fresh = self.older.len() as u32;
        let candidate = &self.entries[start..];
        match self.by_hash.entry(hash(candidate)) {
            Entry::Vacant(slot) => {
                slot.insert(fresh);
                self.older.push(NONE);
            }
            Entry::Occupied(mut slot) => {
                let mut i = *slot.get();
                while i != NONE {
                    let row = &self.entries[self.offsets[i as usize]..self.offsets[i as usize + 1]];
                    if same_row(row, candidate) {
                        self.entries.truncate(start);
                        return i;
                    }
                    i = self.older[i as usize];
                }
                self.older.push(slot.insert(fresh));
            }
        }
        self.offsets.push(self.entries.len());
        fresh
    }

    /// The flat entries and the row offsets, for [`Ctmdp::from_parts`].
    pub fn into_parts(self) -> (Vec<(u32, f64)>, Vec<usize>) {
        (self.entries, self.offsets)
    }
}

/// The pool's hash of a row: FNV-1a over its targets and rate bits, one
/// word each.
fn row_hash(row: &[(u32, f64)]) -> u64 {
    row.iter().fold(fnv::OFFSET_BASIS, |h, &(t, r)| {
        fnv_word(fnv_word(h, u64::from(t)), r.to_bits())
    })
}

/// Whether two rows hold the same targets and the same rate bits.
fn same_row(a: &[(u32, f64)], b: &[(u32, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
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
/// natural storage layout for transformed models. The pool is one flat
/// `(target, rate)` array with per-function offsets and exit rates.
#[derive(Debug, Clone, PartialEq)]
pub struct Ctmdp {
    actions: ActionTable,
    num_states: usize,
    initial: u32,
    /// Rate function `i` is `rate_entries[rate_offsets[i]..rate_offsets[i + 1]]`.
    rate_entries: Vec<(u32, f64)>,
    rate_offsets: Vec<usize>,
    /// Exit rate `E_R` of each rate function.
    rate_totals: Vec<f64>,
    /// Per-state transition lists, flattened.
    transitions: Vec<TransitionRef>,
    offsets: Vec<usize>,
}

impl Ctmdp {
    /// Builds a CTMDP from checked parts: an action table, a rate-function
    /// pool whose function `i` is
    /// `rate_entries[rate_offsets[i]..rate_offsets[i + 1]]`, and the
    /// transitions of state `s` at `transitions[offsets[s]..offsets[s + 1]]`.
    /// Each function's exit rate is the compensated sum of its rates in
    /// target order.
    ///
    /// # Panics
    ///
    /// Panics if `num_states == 0`, the initial state, a rate-function
    /// target, an action or a pool index is out of bounds, a rate function
    /// is empty, its targets are not strictly increasing, or a rate is not
    /// finite and positive, or if `offsets` is not a non-decreasing run of
    /// `num_states + 1` offsets from 0 to `transitions.len()`.
    pub fn from_parts(
        actions: ActionTable,
        num_states: usize,
        initial: u32,
        rate_entries: Vec<(u32, f64)>,
        rate_offsets: Vec<usize>,
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
        assert!(
            rate_offsets.first() == Some(&0)
                && rate_offsets.last() == Some(&rate_entries.len())
                && rate_offsets.windows(2).all(|w| w[0] < w[1]),
            "rate-function offsets must rise strictly from 0 to the entry count"
        );
        let mut rate_totals = Vec::with_capacity(rate_offsets.len() - 1);
        for w in rate_offsets.windows(2) {
            let row = &rate_entries[w[0]..w[1]];
            let mut acc = NeumaierSum::new();
            for (i, &(t, r)) in row.iter().enumerate() {
                assert!(
                    (t as usize) < num_states,
                    "rate-function target out of bounds"
                );
                assert!(
                    i == 0 || row[i - 1].0 < t,
                    "rate-function targets must be strictly increasing"
                );
                assert!(
                    r.is_finite() && r > 0.0,
                    "rates must be finite and positive"
                );
                acc.add(r);
            }
            rate_totals.push(acc.value());
        }
        for tr in &transitions {
            assert!(
                (tr.rate_fn as usize) < rate_totals.len(),
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
            rate_entries,
            rate_offsets,
            rate_totals,
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
        self.rate_totals.len()
    }

    /// Total number of `(target, rate)` entries over all rate functions —
    /// the "Markov transitions" count of Table 1.
    pub fn num_rate_entries(&self) -> usize {
        self.rate_entries.len()
    }

    /// The initial state.
    pub fn initial(&self) -> u32 {
        self.initial
    }

    /// The action table.
    pub fn actions(&self) -> &ActionTable {
        &self.actions
    }

    /// The rate-function pool, in index order.
    pub fn rate_functions(&self) -> impl ExactSizeIterator<Item = RateFunction<'_>> + '_ {
        (0..self.rate_totals.len() as u32).map(|i| self.rate_function(i))
    }

    /// One rate function by index.
    pub fn rate_function(&self, idx: u32) -> RateFunction<'_> {
        let i = idx as usize;
        RateFunction {
            targets: &self.rate_entries[self.rate_offsets[i]..self.rate_offsets[i + 1]],
            total: self.rate_totals[i],
        }
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
        h.write_u64(self.num_rate_functions() as u64);
        for rf in self.rate_functions() {
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
            let e = self.rate_totals[tr.rate_fn as usize];
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
    /// (Table 1's "Mem" column): the transitions, their per-state offsets,
    /// and per rate function its entries and its exit rate.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.transitions.len() * size_of::<TransitionRef>()
            + self.offsets.len() * size_of::<usize>()
            + self.rate_entries.len() * size_of::<(u32, f64)>()
            + self.rate_totals.len() * size_of::<f64>()
    }
}

/// Builder for [`Ctmdp`].
///
/// Structurally identical rate functions are pooled automatically (see
/// [`RatePool`]). Within one transition, pairs that repeat a target merge
/// into one entry whose rate is their sum, added in the order the pairs
/// were given.
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
    pool: RatePool,
    per_state: Vec<Vec<TransitionRef>>,
    /// The pairs of the transition being added, sorted by target.
    sorted: Vec<(u32, f64)>,
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
            pool: RatePool::new(0, 0),
            per_state: vec![Vec::new(); num_states],
            sorted: Vec::new(),
        }
    }

    /// Adds a transition `(source, action, R)` where `R` is given by
    /// `(target, rate)` pairs. Pairs that repeat a target merge by
    /// addition in the order given (the sort by target is stable).
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds states, an empty `rates`, or rates that are
    /// not finite and positive.
    pub fn transition(&mut self, source: u32, action: &str, rates: &[(u32, f64)]) -> &mut Self {
        assert!(
            (source as usize) < self.num_states,
            "source state out of bounds"
        );
        assert!(!rates.is_empty(), "a rate function must be non-empty");
        for &(t, r) in rates {
            assert!(
                r.is_finite() && r > 0.0,
                "rates must be finite and positive"
            );
            assert!((t as usize) < self.num_states, "target state out of bounds");
        }
        self.sorted.clear();
        self.sorted.extend_from_slice(rates);
        self.sorted.sort_by_key(|&(t, _)| t);
        let idx = self.pool.intern(self.sorted.iter().copied());
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
        let (rate_entries, rate_offsets) = self.pool.into_parts();
        Ctmdp::from_parts(
            self.actions,
            self.num_states,
            self.initial,
            rate_entries,
            rate_offsets,
            self.per_state.concat(),
            offsets,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicon_numeric::assert_close;

    /// A one-state model whose single transition has the rate function
    /// given by `pairs`.
    fn one_function(pairs: &[(u32, f64)]) -> Ctmdp {
        let mut b = CtmdpBuilder::new(3, 0);
        b.transition(0, "a", pairs);
        b.build()
    }

    #[test]
    fn rate_function_merges_and_sums() {
        let m = one_function(&[(2, 1.0), (0, 0.5), (2, 1.5)]);
        let rf = m.rate_function(0);
        assert_eq!(rf.targets(), &[(0, 0.5), (2, 2.5)]);
        assert_close!(rf.total(), 3.0, 1e-12);
        assert_close!(rf.rate(2), 2.5, 1e-12);
        assert_eq!(rf.rate(1), 0.0);
        assert_close!(rf.prob(0), 0.5 / 3.0, 1e-12);
    }

    #[test]
    fn repeated_targets_add_in_input_order() {
        // A scrambled row of 52 pairs (an unstable sort by target has been
        // seen to reorder target 5's rates here) whose target 5 comes with
        // rates 0.1, 0.2 and 0.3 in that order. The order shows in the
        // bits: (0.1 + 0.2) + 0.3 differs from (0.2 + 0.3) + 0.1.
        assert_ne!(
            (0.1 + 0.2 + 0.3f64).to_bits(),
            (0.2 + 0.3 + 0.1f64).to_bits()
        );
        let targets = [
            5, 8, 14, 18, 25, 17, 42, 34, 5, 46, 37, 1, 38, 21, 29, 39, 36, 49, 47, 6, 41, 10, 22,
            30, 16, 5, 24, 4, 3, 23, 7, 9, 11, 31, 28, 26, 2, 20, 32, 43, 13, 35, 15, 12, 40, 27,
            45, 19, 0, 48, 33, 44,
        ];
        let mut fives = [0.1, 0.2, 0.3].into_iter();
        let pairs: Vec<(u32, f64)> = targets
            .into_iter()
            .map(|t| match t {
                5 => (t, fives.next().expect("three rates")),
                _ => (t, 1.0 + f64::from(t)),
            })
            .collect();
        let mut b = CtmdpBuilder::new(50, 0);
        b.transition(0, "a", &pairs);
        let m = b.build();
        let rf = m.rate_function(0);
        assert_eq!(rf.targets().len(), 50);
        assert!(rf.targets().windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(rf.rate(5).to_bits(), (0.1 + 0.2 + 0.3f64).to_bits());
    }

    #[test]
    fn rate_into_set() {
        let m = one_function(&[(0, 1.0), (1, 2.0), (2, 3.0)]);
        let rf = m.rate_function(0);
        assert_close!(rf.rate_into(&[true, false, true]), 4.0, 1e-12);
        assert_eq!(rf.rate_into(&[false, false, false]), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rate_function_rejects_empty() {
        one_function(&[]);
    }

    #[test]
    fn pool_interns_first_occurrences_in_order() {
        let rows: [&[(u32, f64)]; 5] = [
            &[(0, 1.0), (2, 0.5)],
            &[(1, 1.0)],
            &[(0, 1.0), (2, 0.5)],
            &[(0, 0.5), (0, 0.5), (2, 0.5)],
            &[(1, 1.0)],
        ];
        // Every row hashed into one bucket runs the equality check on each
        // lookup; the real hash gives the same indices.
        for hash in [row_hash, |_: &[(u32, f64)]| 0] {
            let mut pool = RatePool::new(0, 0);
            let ids: Vec<u32> = rows
                .iter()
                .map(|row| pool.intern_with(row.iter().copied(), hash))
                .collect();
            assert_eq!(ids, [0, 1, 0, 0, 1]);
            let (entries, offsets) = pool.into_parts();
            assert_eq!(entries, [(0, 1.0), (2, 0.5), (1, 1.0)]);
            assert_eq!(offsets, [0, 2, 3]);
        }
        // Unequal rows in one bucket get new indices in arrival order.
        let mut pool = RatePool::new(0, 0);
        let ids: Vec<u32> = [3u32, 1, 3, 2, 1, 0]
            .iter()
            .map(|&t| pool.intern_with([(t, 1.0)], |_| 7))
            .collect();
        assert_eq!(ids, [0, 1, 0, 2, 1, 3]);
        // Equal targets with different rate bits are different rows.
        assert_eq!(pool.intern_with([(3, 1.0 + f64::EPSILON)], |_| 7), 4);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_parts_rejects_unsorted_targets() {
        Ctmdp::from_parts(
            ActionTable::new(),
            2,
            0,
            vec![(1, 1.0), (0, 1.0)],
            vec![0, 2],
            Vec::new(),
            vec![0, 0, 0],
        );
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn from_parts_rejects_nonpositive_rates() {
        Ctmdp::from_parts(
            ActionTable::new(),
            2,
            0,
            vec![(1, 0.0)],
            vec![0, 1],
            Vec::new(),
            vec![0, 0, 0],
        );
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
