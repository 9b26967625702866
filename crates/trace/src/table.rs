//! Interning of routine names.

use crate::RoutineId;
use std::collections::HashMap;

/// A bidirectional map between routine names and dense [`RoutineId`]s.
///
/// The guest machine interns every function of a program at load time; the
/// profilers only ever see ids and use this table when rendering reports.
///
/// # Example
///
/// ```
/// use aprof_trace::RoutineTable;
/// let mut table = RoutineTable::new();
/// let f = table.intern("f");
/// let g = table.intern("g");
/// assert_ne!(f, g);
/// assert_eq!(table.intern("f"), f); // idempotent
/// assert_eq!(table.name(g), "g");
/// assert_eq!(table.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RoutineTable {
    names: Vec<String>,
    ids: HashMap<String, RoutineId>,
}

impl RoutineTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id for `name`, allocating a fresh one on first sight.
    pub fn intern(&mut self, name: &str) -> RoutineId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = RoutineId::new(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.ids.insert(name.to_owned(), id);
        id
    }

    /// Returns the id for `name` if it has been interned.
    pub fn lookup(&self, name: &str) -> Option<RoutineId> {
        self.ids.get(name).copied()
    }

    /// Returns the name of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn name(&self, id: RoutineId) -> &str {
        &self.names[id.index()]
    }

    /// Returns the name of `id`, or `None` if `id` is foreign to this table.
    pub fn get_name(&self, id: RoutineId) -> Option<&str> {
        self.names.get(id.index()).map(String::as_str)
    }

    /// Number of interned routines.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no routine has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (RoutineId, &str)> {
        self.names.iter().enumerate().map(|(i, n)| (RoutineId::new(i as u32), n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = RoutineTable::new();
        let a = t.intern("alpha");
        assert_eq!(t.intern("alpha"), a);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn ids_are_dense() {
        let mut t = RoutineTable::new();
        for i in 0..10 {
            let id = t.intern(&format!("f{i}"));
            assert_eq!(id.index(), i);
        }
    }

    #[test]
    fn lookup_and_names() {
        let mut t = RoutineTable::new();
        let f = t.intern("f");
        assert_eq!(t.lookup("f"), Some(f));
        assert_eq!(t.lookup("nope"), None);
        assert_eq!(t.get_name(f), Some("f"));
        assert_eq!(t.get_name(RoutineId::new(99)), None);
    }

    #[test]
    fn iter_in_order() {
        let mut t = RoutineTable::new();
        t.intern("a");
        t.intern("b");
        let collected: Vec<_> = t.iter().map(|(_, n)| n.to_owned()).collect();
        assert_eq!(collected, vec!["a", "b"]);
        assert!(!t.is_empty());
    }
}
