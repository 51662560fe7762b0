//! The [`Lts`] model and its builder.

use crate::action::{ActionId, ActionTable};

/// One labeled transition `source --action--> target`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Transition {
    /// Source state.
    pub source: u32,
    /// Action label.
    pub action: ActionId,
    /// Target state.
    pub target: u32,
}

/// A finite labeled transition system.
///
/// States are `0..num_states()`; transitions are sorted by
/// `(source, action, target)`. The model is immutable after construction —
/// build one with [`LtsBuilder`].
///
/// # Examples
///
/// ```
/// use unicon_lts::LtsBuilder;
///
/// let mut b = LtsBuilder::new(3, 0);
/// b.add("a", 0, 1);
/// b.add("b", 1, 2);
/// let lts = b.build();
/// assert_eq!(lts.num_transitions(), 2);
/// assert_eq!(lts.transitions()[0].target, 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Lts {
    actions: ActionTable,
    num_states: usize,
    initial: u32,
    /// Transition list sorted by (source, action, target), deduplicated.
    transitions: Vec<Transition>,
}

impl Lts {
    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of transitions.
    pub fn num_transitions(&self) -> usize {
        self.transitions.len()
    }

    /// The initial state.
    pub fn initial(&self) -> u32 {
        self.initial
    }

    /// The action table of this model.
    pub fn actions(&self) -> &ActionTable {
        &self.actions
    }

    /// All transitions, sorted by `(source, action, target)`.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }
}

/// Builder for [`Lts`].
///
/// # Examples
///
/// ```
/// use unicon_lts::LtsBuilder;
///
/// let mut b = LtsBuilder::new(2, 0);
/// b.add("go", 0, 1);
/// b.add_tau(1, 0);
/// let lts = b.build();
/// assert!(lts.transitions()[1].action.is_tau());
/// ```
#[derive(Debug, Clone)]
pub struct LtsBuilder {
    actions: ActionTable,
    num_states: usize,
    initial: u32,
    transitions: Vec<Transition>,
}

impl LtsBuilder {
    /// Starts a builder for an LTS with `num_states` states and the given
    /// initial state.
    ///
    /// # Panics
    ///
    /// Panics if `num_states == 0` or the initial state is out of bounds.
    pub fn new(num_states: usize, initial: u32) -> Self {
        assert!(num_states > 0, "an LTS needs at least one state");
        assert!(
            (initial as usize) < num_states,
            "initial state out of bounds"
        );
        Self {
            actions: ActionTable::new(),
            num_states,
            initial,
            transitions: Vec::new(),
        }
    }

    /// Adds `source --action--> target`, interning the action name.
    ///
    /// # Panics
    ///
    /// Panics if a state is out of bounds.
    pub fn add(&mut self, action: &str, source: u32, target: u32) -> &mut Self {
        assert!(
            (source as usize) < self.num_states && (target as usize) < self.num_states,
            "transition endpoint out of bounds"
        );
        let action = self.actions.intern(action);
        self.transitions.push(Transition {
            source,
            action,
            target,
        });
        self
    }

    /// Adds an internal `source --τ--> target` transition.
    pub fn add_tau(&mut self, source: u32, target: u32) -> &mut Self {
        self.add(crate::TAU_NAME, source, target)
    }

    /// Finalizes the LTS: sorts the transitions and merges duplicates.
    pub fn build(mut self) -> Lts {
        self.transitions.sort_unstable();
        self.transitions.dedup();
        Lts {
            actions: self.actions,
            num_states: self.num_states,
            initial: self.initial,
            transitions: self.transitions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Lts {
        let mut b = LtsBuilder::new(3, 0);
        b.add("a", 0, 1);
        b.add("b", 1, 2);
        b.add("c", 2, 0);
        b.build()
    }

    #[test]
    fn counts() {
        let l = abc();
        assert_eq!(l.num_states(), 3);
        assert_eq!(l.num_transitions(), 3);
        assert_eq!(l.initial(), 0);
    }

    #[test]
    fn transitions_are_sorted_by_source() {
        let l = abc();
        let sources: Vec<u32> = l.transitions().iter().map(|t| t.source).collect();
        assert_eq!(sources, vec![0, 1, 2]);
        assert_eq!(l.transitions()[1].target, 2);
    }

    #[test]
    fn duplicate_transitions_are_merged() {
        let mut b = LtsBuilder::new(2, 0);
        b.add("a", 0, 1);
        b.add("a", 0, 1);
        assert_eq!(b.build().num_transitions(), 1);
    }

    #[test]
    fn tau_is_action_zero() {
        let mut b = LtsBuilder::new(2, 0);
        b.add_tau(0, 1);
        b.add("v", 1, 0);
        let l = b.build();
        assert!(l.transitions()[0].action.is_tau());
        assert!(!l.transitions()[1].action.is_tau());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn builder_rejects_bad_state() {
        LtsBuilder::new(1, 0).add("a", 0, 5);
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn builder_rejects_empty() {
        LtsBuilder::new(0, 0);
    }
}
