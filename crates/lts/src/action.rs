//! Interned action labels.
//!
//! Every model owns an [`ActionTable`] mapping compact [`ActionId`]s to
//! string labels. Index 0 is always the distinguished internal action τ
//! (named [`TAU_NAME`]), which hiding produces and which the maximal-progress
//! and urgency assumptions give precedence over Markov transitions.

use std::collections::HashMap;
use std::fmt;

/// The name of the internal action τ.
///
/// The Aldebaran format uses `"i"` for the internal action; `unicon-imc`'s
/// reader and writer convert between the two spellings.
pub const TAU_NAME: &str = "tau";

/// Compact identifier of an action within a model's [`ActionTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActionId(pub u32);

impl ActionId {
    /// The internal action τ (always id 0).
    pub const TAU: ActionId = ActionId(0);

    /// Whether this is the internal action.
    pub fn is_tau(self) -> bool {
        self == Self::TAU
    }

    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ActionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Bidirectional map between action names and [`ActionId`]s.
///
/// τ is pre-interned at id 0.
///
/// # Examples
///
/// ```
/// use unicon_lts::{ActionTable, ActionId};
///
/// let mut t = ActionTable::new();
/// let fail = t.intern("fail");
/// assert_eq!(t.intern("fail"), fail); // idempotent
/// assert_eq!(t.name(fail), "fail");
/// assert_eq!(t.intern("tau"), ActionId::TAU);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionTable {
    names: Vec<String>,
    index: HashMap<String, ActionId>,
}

impl ActionTable {
    /// Creates a table containing only τ.
    pub fn new() -> Self {
        let mut t = Self {
            names: Vec::new(),
            index: HashMap::new(),
        };
        let tau = t.intern(TAU_NAME);
        debug_assert_eq!(tau, ActionId::TAU);
        t
    }

    /// Returns the id for `name`, interning it if new.
    pub fn intern(&mut self, name: &str) -> ActionId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id =
            ActionId(u32::try_from(self.names.len()).expect("more than 2^32 distinct actions"));
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        id
    }

    /// Looks up an already-interned action by name.
    pub fn lookup(&self, name: &str) -> Option<ActionId> {
        self.index.get(name).copied()
    }

    /// The name of an action.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn name(&self, id: ActionId) -> &str {
        &self.names[id.index()]
    }

    /// Number of interned actions (including τ).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table holds only τ.
    pub fn is_empty(&self) -> bool {
        self.names.len() <= 1
    }

    /// Iterates over `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ActionId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (ActionId(i as u32), n.as_str()))
    }

    /// All visible (non-τ) action names.
    pub fn visible(&self) -> impl Iterator<Item = (ActionId, &str)> {
        self.iter().filter(|(id, _)| !id.is_tau())
    }
}

impl Default for ActionTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tau_is_id_zero() {
        let t = ActionTable::new();
        assert_eq!(t.lookup(TAU_NAME), Some(ActionId::TAU));
        assert!(ActionId::TAU.is_tau());
        assert_eq!(t.len(), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut t = ActionTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        assert_eq!(a, ActionId(1));
        assert_eq!(b, ActionId(2));
        assert_eq!(t.intern("a"), a);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn name_roundtrip() {
        let mut t = ActionTable::new();
        let id = t.intern("g_wsL");
        assert_eq!(t.name(id), "g_wsL");
        assert_eq!(t.name(ActionId::TAU), TAU_NAME);
    }

    #[test]
    fn visible_excludes_tau() {
        let mut t = ActionTable::new();
        t.intern("x");
        t.intern("y");
        let names: Vec<_> = t.visible().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["x", "y"]);
    }

    #[test]
    fn lookup_missing() {
        let t = ActionTable::new();
        assert_eq!(t.lookup("nope"), None);
    }
}
