//! The [`Imc`] model: states, interactive and Markov transitions, state
//! partitioning and uniformity checking.

use unicon_lts::{ActionTable, Lts, Transition};
use unicon_numeric::NeumaierSum;

/// One Markov transition `source --rate--> target`.
///
/// Markov transitions form a **multiset**: parallel transitions between the
/// same pair of states coexist even when their rates are equal, and their
/// rates add up in the race. (The paper presents the Markov transitions as
/// a relation, but set semantics would silently halve the exit rate of
/// diagonal states in symmetric parallel compositions — two interleaved
/// rate-λ self-loops must race at 2λ — so, like CADP's BCG graphs, we keep
/// multiplicities.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarkovTransition {
    /// Source state.
    pub source: u32,
    /// Exponential rate (strictly positive).
    pub rate: f64,
    /// Target state.
    pub target: u32,
}

/// Classification of a state by its outgoing transitions (the paper's
/// `S = S_M ∪ S_I ∪ S_H ∪ S_A` partition).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StateKind {
    /// Markov transitions only.
    Markov,
    /// Interactive transitions only.
    Interactive,
    /// Both kinds of outgoing transitions.
    Hybrid,
    /// No outgoing transitions.
    Absorbing,
}

/// Open vs. closed interpretation of an IMC.
///
/// * `Open`: the model may still be composed; *maximal progress* applies —
///   only τ pre-empts Markov transitions, visible actions are delayable.
///   Stability means "no outgoing τ".
/// * `Closed`: the model is complete; *urgency* applies — every interactive
///   transition pre-empts Markov transitions. Stability means "no outgoing
///   interactive transition at all".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum View {
    /// Compositional view with maximal progress.
    Open,
    /// Complete-model view with urgency.
    Closed,
}

/// Result of a uniformity check over the reachable states.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Uniformity {
    /// All reachable stable states share this exit rate.
    Uniform(f64),
    /// No reachable stable state exists; the condition holds vacuously.
    Vacuous,
    /// Two reachable stable states with different exit rates.
    NonUniform {
        /// A stable state with exit rate `rate_a`.
        state_a: u32,
        /// Its exit rate.
        rate_a: f64,
        /// A stable state with exit rate `rate_b`.
        state_b: u32,
        /// Its exit rate.
        rate_b: f64,
    },
}

impl Uniformity {
    /// Whether the model is uniform (vacuously or with a common rate).
    pub fn is_uniform(&self) -> bool {
        !matches!(self, Uniformity::NonUniform { .. })
    }

    /// The common rate, if one exists (`None` when vacuous or non-uniform).
    pub fn rate(&self) -> Option<f64> {
        match self {
            Uniformity::Uniform(e) => Some(*e),
            _ => None,
        }
    }
}

/// A finite interactive Markov chain.
///
/// Immutable after construction; build with [`ImcBuilder`] or convert from
/// an [`Lts`] / CTMC. Interactive transitions are sorted by
/// `(source, action, target)`, Markov transitions by `(source, target)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Imc {
    actions: ActionTable,
    num_states: usize,
    initial: u32,
    interactive: Vec<Transition>,
    markov: Vec<MarkovTransition>,
    int_offsets: Vec<usize>,
    markov_offsets: Vec<usize>,
}

impl Imc {
    pub(crate) fn from_raw(
        actions: ActionTable,
        num_states: usize,
        initial: u32,
        mut interactive: Vec<Transition>,
        mut markov: Vec<MarkovTransition>,
    ) -> Self {
        assert!(num_states > 0, "an IMC needs at least one state");
        assert!(
            (initial as usize) < num_states,
            "initial state {initial} out of bounds"
        );
        for t in &interactive {
            assert!(
                (t.source as usize) < num_states && (t.target as usize) < num_states,
                "interactive transition {t:?} out of bounds"
            );
        }
        for m in &markov {
            assert!(
                (m.source as usize) < num_states && (m.target as usize) < num_states,
                "Markov transition out of bounds"
            );
            assert!(
                m.rate.is_finite() && m.rate > 0.0,
                "Markov rates must be finite and positive, got {}",
                m.rate
            );
        }
        interactive.sort_unstable();
        interactive.dedup();
        markov.sort_unstable_by(|a, b| {
            (a.source, a.target)
                .cmp(&(b.source, b.target))
                .then(a.rate.partial_cmp(&b.rate).expect("rates are finite"))
        });

        let mut int_offsets = vec![0usize; num_states + 1];
        for t in &interactive {
            int_offsets[t.source as usize + 1] += 1;
        }
        let mut markov_offsets = vec![0usize; num_states + 1];
        for m in &markov {
            markov_offsets[m.source as usize + 1] += 1;
        }
        for s in 0..num_states {
            int_offsets[s + 1] += int_offsets[s];
            markov_offsets[s + 1] += markov_offsets[s];
        }
        Self {
            actions,
            num_states,
            initial,
            interactive,
            markov,
            int_offsets,
            markov_offsets,
        }
    }

    /// Builds an IMC from checked parts: an action table and transition
    /// lists over `0..num_states` whose actions the table holds. The
    /// lists are put in the canonical order [`ImcBuilder::build`] gives
    /// them (interactive transitions deduplicated), so lists already in
    /// that order cost one pass to confirm.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-bounds state or action, or a rate that is not
    /// finite and positive.
    pub fn from_parts(
        actions: ActionTable,
        num_states: usize,
        initial: u32,
        interactive: Vec<Transition>,
        markov: Vec<MarkovTransition>,
    ) -> Self {
        for t in &interactive {
            assert!(
                t.action.index() < actions.len(),
                "interactive transition {t:?} names an action outside the table"
            );
        }
        Self::from_raw(actions, num_states, initial, interactive, markov)
    }

    /// Embeds an LTS as an IMC without Markov transitions — uniform with
    /// rate `E = 0` by definition.
    pub fn from_lts(lts: &Lts) -> Self {
        let out = Self::from_raw(
            lts.actions().clone(),
            lts.num_states(),
            lts.initial(),
            lts.transitions().to_vec(),
            Vec::new(),
        );
        crate::audit::record(
            "from_lts",
            crate::audit::lemma::LEAF,
            View::Open,
            &[],
            &out,
            crate::audit::Witness::Lts,
        );
        out
    }

    /// Embeds a CTMC as an IMC without interactive transitions.
    pub fn from_ctmc(ctmc: &unicon_ctmc::Ctmc) -> Self {
        let markov = ctmc
            .rates()
            .triplets()
            .map(|(s, t, r)| MarkovTransition {
                source: s as u32,
                rate: r,
                target: t as u32,
            })
            .collect();
        let out = Self::from_raw(
            ActionTable::new(),
            ctmc.num_states(),
            ctmc.initial(),
            Vec::new(),
            markov,
        );
        crate::audit::record(
            "from_ctmc",
            crate::audit::lemma::LEAF,
            View::Open,
            &[],
            &out,
            crate::audit::Witness::Ctmc {
                ctmc_fingerprint: ctmc.fingerprint(),
            },
        );
        out
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of interactive transitions.
    pub fn num_interactive(&self) -> usize {
        self.interactive.len()
    }

    /// Number of Markov transitions.
    pub fn num_markov(&self) -> usize {
        self.markov.len()
    }

    /// The initial state.
    pub fn initial(&self) -> u32 {
        self.initial
    }

    /// The action table.
    pub fn actions(&self) -> &ActionTable {
        &self.actions
    }

    /// All interactive transitions (sorted).
    pub fn interactive(&self) -> &[Transition] {
        &self.interactive
    }

    /// All Markov transitions (sorted).
    pub fn markov(&self) -> &[MarkovTransition] {
        &self.markov
    }

    /// Interactive transitions emanating from `state`.
    pub fn interactive_from(&self, state: u32) -> &[Transition] {
        let s = state as usize;
        &self.interactive[self.int_offsets[s]..self.int_offsets[s + 1]]
    }

    /// Markov transitions emanating from `state`.
    pub fn markov_from(&self, state: u32) -> &[MarkovTransition] {
        let s = state as usize;
        &self.markov[self.markov_offsets[s]..self.markov_offsets[s + 1]]
    }

    /// Cumulative rate `Rate(s, t)` (sum over parallel Markov transitions).
    pub fn rate(&self, s: u32, t: u32) -> f64 {
        self.markov_from(s)
            .iter()
            .filter(|m| m.target == t)
            .map(|m| m.rate)
            .sum()
    }

    /// Exit rate `E_s = Rate(s, S)`.
    pub fn exit_rate(&self, s: u32) -> f64 {
        let mut acc = NeumaierSum::new();
        for m in self.markov_from(s) {
            acc.add(m.rate);
        }
        acc.value()
    }

    /// Whether `state` has an outgoing τ transition.
    pub fn has_tau(&self, state: u32) -> bool {
        self.interactive_from(state)
            .iter()
            .any(|t| t.action.is_tau())
    }

    /// The paper's `S_M / S_I / S_H / S_A` classification of one state.
    pub fn kind(&self, state: u32) -> StateKind {
        let has_int = !self.interactive_from(state).is_empty();
        let has_markov = !self.markov_from(state).is_empty();
        match (has_int, has_markov) {
            (false, true) => StateKind::Markov,
            (true, false) => StateKind::Interactive,
            (true, true) => StateKind::Hybrid,
            (false, false) => StateKind::Absorbing,
        }
    }

    /// Counts states of each kind, in the order
    /// (Markov, interactive, hybrid, absorbing).
    pub fn kind_counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for s in 0..self.num_states as u32 {
            match self.kind(s) {
                StateKind::Markov => c.0 += 1,
                StateKind::Interactive => c.1 += 1,
                StateKind::Hybrid => c.2 += 1,
                StateKind::Absorbing => c.3 += 1,
            }
        }
        c
    }

    /// Whether `state` is *stable* under the given view: no outgoing τ
    /// (open) or no outgoing interactive transition at all (closed).
    pub fn is_stable(&self, state: u32, view: View) -> bool {
        match view {
            View::Open => !self.has_tau(state),
            View::Closed => self.interactive_from(state).is_empty(),
        }
    }

    /// States reachable from the initial state (over both transition kinds).
    pub fn reachable_states(&self) -> Vec<bool> {
        let mut seen = vec![false; self.num_states];
        seen[self.initial as usize] = true;
        let mut stack = vec![self.initial];
        while let Some(s) = stack.pop() {
            for t in self.interactive_from(s) {
                if !seen[t.target as usize] {
                    seen[t.target as usize] = true;
                    stack.push(t.target);
                }
            }
            for m in self.markov_from(s) {
                if !seen[m.target as usize] {
                    seen[m.target as usize] = true;
                    stack.push(m.target);
                }
            }
        }
        seen
    }

    /// Checks Definition 4 over the *reachable* states: does a rate `E`
    /// exist such that every reachable stable state has exit rate `E`?
    ///
    /// Rates are compared with the workspace-wide tolerance policy
    /// [`unicon_numeric::rates_approx_eq`], so this check can never
    /// disagree with the CTMC/CTMDP uniformity checks or the
    /// `unicon-verify` lints.
    ///
    /// # Examples
    ///
    /// ```
    /// use unicon_imc::{ImcBuilder, View, Uniformity};
    ///
    /// let mut b = ImcBuilder::new(2, 0);
    /// b.markov(0, 3.0, 1);
    /// b.markov(1, 3.0, 0);
    /// assert_eq!(b.build().uniformity(View::Open), Uniformity::Uniform(3.0));
    /// ```
    pub fn uniformity(&self, view: View) -> Uniformity {
        let reachable = self.reachable_states();
        let mut witness: Option<(u32, f64)> = None;
        for s in 0..self.num_states as u32 {
            if !reachable[s as usize] || !self.is_stable(s, view) {
                continue;
            }
            let e = self.exit_rate(s);
            match witness {
                None => witness = Some((s, e)),
                Some((w, ew)) => {
                    if !unicon_numeric::rates_approx_eq(e, ew) {
                        return Uniformity::NonUniform {
                            state_a: w,
                            rate_a: ew,
                            state_b: s,
                            rate_b: e,
                        };
                    }
                }
            }
        }
        match witness {
            Some((_, e)) => Uniformity::Uniform(e),
            None => Uniformity::Vacuous,
        }
    }

    /// Shorthand: is the model uniform (Definition 4) under `view`?
    pub fn is_uniform(&self, view: View) -> bool {
        self.uniformity(view).is_uniform()
    }

    /// A reproducible 64-bit structural fingerprint (FNV-1a) over the state
    /// count, initial state, action names and both transition relations in
    /// their canonical sorted order, with rates hashed bit-exactly.
    ///
    /// Two IMCs have equal fingerprints exactly when they are structurally
    /// identical (up to hash collisions); the certificate chain of
    /// `unicon-verify::certify` uses fingerprints to link each construction
    /// step's output to the next step's input.
    pub fn fingerprint(&self) -> u64 {
        let mut h = unicon_numeric::fnv::Fnv64::new();
        h.write(b"imc-v1");
        h.write_u64(self.num_states as u64);
        h.write_u32(self.initial);
        h.write_u64(self.actions.len() as u64);
        for (_, name) in self.actions.iter() {
            h.write(name.as_bytes());
            h.write(&[0xff]);
        }
        h.write_u64(self.interactive.len() as u64);
        for t in &self.interactive {
            h.write_u32(t.source);
            h.write_u32(t.action.0);
            h.write_u32(t.target);
        }
        h.write_u64(self.markov.len() as u64);
        for m in &self.markov {
            h.write_u32(m.source);
            h.write_f64(m.rate);
            h.write_u32(m.target);
        }
        h.finish()
    }
}

/// Builder for [`Imc`].
///
/// # Examples
///
/// ```
/// use unicon_imc::{ImcBuilder, StateKind};
///
/// let mut b = ImcBuilder::new(3, 0);
/// b.interactive("go", 0, 1);
/// b.markov(1, 2.5, 2);
/// b.markov(1, 0.5, 0);
/// let imc = b.build();
/// assert_eq!(imc.kind(0), StateKind::Interactive);
/// assert_eq!(imc.kind(1), StateKind::Markov);
/// assert_eq!(imc.exit_rate(1), 3.0);
/// ```
#[derive(Debug, Clone)]
pub struct ImcBuilder {
    actions: ActionTable,
    num_states: usize,
    initial: u32,
    interactive: Vec<Transition>,
    markov: Vec<MarkovTransition>,
}

impl ImcBuilder {
    /// Starts a builder for an IMC with `num_states` states.
    ///
    /// # Panics
    ///
    /// Panics if `num_states == 0` or the initial state is out of bounds.
    pub fn new(num_states: usize, initial: u32) -> Self {
        assert!(num_states > 0, "an IMC needs at least one state");
        assert!(
            (initial as usize) < num_states,
            "initial state out of bounds"
        );
        Self {
            actions: ActionTable::new(),
            num_states,
            initial,
            interactive: Vec::new(),
            markov: Vec::new(),
        }
    }

    /// Adds an interactive transition, interning the action name.
    pub fn interactive(&mut self, action: &str, source: u32, target: u32) -> &mut Self {
        let action = self.actions.intern(action);
        self.interactive.push(Transition {
            source,
            action,
            target,
        });
        self
    }

    /// Adds an internal (τ) transition.
    pub fn tau(&mut self, source: u32, target: u32) -> &mut Self {
        self.interactive(unicon_lts::TAU_NAME, source, target)
    }

    /// Adds a Markov transition.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not finite and positive.
    pub fn markov(&mut self, source: u32, rate: f64, target: u32) -> &mut Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "Markov rates must be finite and positive"
        );
        self.markov.push(MarkovTransition {
            source,
            rate,
            target,
        });
        self
    }

    /// Finalizes the IMC.
    pub fn build(self) -> Imc {
        Imc::from_raw(
            self.actions,
            self.num_states,
            self.initial,
            self.interactive,
            self.markov,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicon_lts::LtsBuilder;

    fn hybrid_sample() -> Imc {
        let mut b = ImcBuilder::new(4, 0);
        b.interactive("a", 0, 1);
        b.markov(0, 1.0, 2); // state 0 is hybrid
        b.markov(1, 2.0, 2);
        b.interactive("b", 2, 3);
        // state 3 absorbing
        b.build()
    }

    #[test]
    fn kinds_are_classified() {
        let m = hybrid_sample();
        assert_eq!(m.kind(0), StateKind::Hybrid);
        assert_eq!(m.kind(1), StateKind::Markov);
        assert_eq!(m.kind(2), StateKind::Interactive);
        assert_eq!(m.kind(3), StateKind::Absorbing);
        assert_eq!(m.kind_counts(), (1, 1, 1, 1));
    }

    #[test]
    fn rates_accumulate() {
        let mut b = ImcBuilder::new(2, 0);
        b.markov(0, 1.0, 1);
        b.markov(0, 2.0, 1); // parallel transition, different rate
        let m = b.build();
        assert_eq!(m.num_markov(), 2);
        assert_eq!(m.rate(0, 1), 3.0);
        assert_eq!(m.exit_rate(0), 3.0);
    }

    #[test]
    fn equal_rate_duplicates_race_multiset_semantics() {
        let mut b = ImcBuilder::new(2, 0);
        b.markov(0, 1.5, 1);
        b.markov(0, 1.5, 1); // same rate — still two racing transitions
        let m = b.build();
        assert_eq!(m.num_markov(), 2);
        assert_eq!(m.rate(0, 1), 3.0);
    }

    #[test]
    fn stability_depends_on_view() {
        let mut b = ImcBuilder::new(2, 0);
        b.interactive("v", 0, 1); // visible action only
        b.markov(0, 1.0, 1);
        let m = b.build();
        assert!(m.is_stable(0, View::Open)); // no tau
        assert!(!m.is_stable(0, View::Closed)); // has interactive
    }

    #[test]
    fn uniformity_ignores_unstable_states() {
        let mut b = ImcBuilder::new(3, 0);
        b.tau(0, 1);
        b.markov(0, 99.0, 2); // unstable state: rate irrelevant (open view)
        b.markov(1, 2.0, 2);
        b.markov(2, 2.0, 1);
        let m = b.build();
        assert_eq!(m.uniformity(View::Open), Uniformity::Uniform(2.0));
    }

    #[test]
    fn uniformity_ignores_unreachable_states() {
        let mut b = ImcBuilder::new(3, 0);
        b.markov(0, 1.0, 0);
        b.markov(2, 77.0, 2); // unreachable
        let m = b.build();
        assert_eq!(m.uniformity(View::Open), Uniformity::Uniform(1.0));
    }

    #[test]
    fn non_uniform_reports_witnesses() {
        let mut b = ImcBuilder::new(2, 0);
        b.markov(0, 1.0, 1);
        b.markov(1, 2.0, 0);
        match b.build().uniformity(View::Open) {
            Uniformity::NonUniform {
                state_a,
                rate_a,
                state_b,
                rate_b,
            } => {
                assert_eq!((state_a, state_b), (0, 1));
                assert_eq!((rate_a, rate_b), (1.0, 2.0));
            }
            other => panic!("expected NonUniform, got {other:?}"),
        }
    }

    #[test]
    fn all_interactive_model_is_vacuously_uniform_closed() {
        let mut b = ImcBuilder::new(2, 0);
        b.interactive("x", 0, 1);
        b.interactive("y", 1, 0);
        let m = b.build();
        assert_eq!(m.uniformity(View::Closed), Uniformity::Vacuous);
        assert!(m.is_uniform(View::Closed));
    }

    #[test]
    fn lts_embedding_is_uniform_rate_zero() {
        let mut b = LtsBuilder::new(2, 0);
        b.add("a", 0, 1);
        b.add("b", 1, 0);
        let m = Imc::from_lts(&b.build());
        assert_eq!(m.num_markov(), 0);
        // An LTS is uniform with E = 0 under the open view: every state is
        // stable (no tau) with exit rate 0.
        assert_eq!(m.uniformity(View::Open), Uniformity::Uniform(0.0));
    }

    #[test]
    fn ctmc_embedding_keeps_rates() {
        let c = unicon_ctmc::Ctmc::from_rates(2, 0, [(0, 1, 4.0), (1, 0, 4.0)]);
        let m = Imc::from_ctmc(&c);
        assert_eq!(m.num_interactive(), 0);
        assert_eq!(m.rate(0, 1), 4.0);
        assert_eq!(m.uniformity(View::Closed), Uniformity::Uniform(4.0));
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn rejects_zero_rate() {
        ImcBuilder::new(1, 0).markov(0, 0.0, 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_bad_transition() {
        let mut b = ImcBuilder::new(1, 0);
        b.interactive("a", 0, 7);
        b.build();
    }
}
