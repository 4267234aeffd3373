//! Event names and alphabets.
//!
//! The paper models interaction through *named events* (its Σ component).
//! Event names are interned process-wide so that two specifications built
//! independently synchronise on events simply by using the same name —
//! exactly how the paper treats, e.g., the `-d0` event shared between the
//! AB sender and its channel.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// A process-wide interned event name.
///
/// Equality of [`EventId`]s is equality of names. The numeric value is an
/// implementation detail and is stable only within one process run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u32);

struct Interner {
    names: Vec<String>,
    index: std::collections::HashMap<String, u32>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            names: Vec::new(),
            index: std::collections::HashMap::new(),
        })
    })
}

impl EventId {
    /// Interns `name` and returns its id. Calling twice with the same name
    /// returns the same id.
    pub fn new(name: &str) -> EventId {
        {
            let guard = interner().read().unwrap();
            if let Some(&id) = guard.index.get(name) {
                return EventId(id);
            }
        }
        let mut guard = interner().write().unwrap();
        if let Some(&id) = guard.index.get(name) {
            return EventId(id);
        }
        let id = guard.names.len() as u32;
        guard.names.push(name.to_owned());
        guard.index.insert(name.to_owned(), id);
        EventId(id)
    }

    /// The interned name of this event.
    pub fn name(&self) -> String {
        interner().read().unwrap().names[self.0 as usize].clone()
    }

    /// Raw index (stable within a process run only).
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EventId({:?})", self.name())
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl From<&str> for EventId {
    fn from(s: &str) -> Self {
        EventId::new(s)
    }
}

/// A finite set of events — the Σ of a specification, or an interface
/// (e.g. the `Int`/`Ext` split of the quotient problem).
///
/// Supports the interface calculus the composition operator needs:
/// Σ(A‖B) = (Σ_A ∪ Σ_B) − (Σ_A ∩ Σ_B).
#[derive(Clone, PartialEq, Eq, Default, Hash, PartialOrd, Ord)]
pub struct Alphabet {
    events: BTreeSet<EventId>,
}

impl Alphabet {
    /// The empty alphabet.
    pub fn new() -> Alphabet {
        Alphabet::default()
    }

    /// Builds an alphabet from event names.
    pub fn from_names<'a, I: IntoIterator<Item = &'a str>>(names: I) -> Alphabet {
        names.into_iter().map(EventId::new).collect()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, e: EventId) -> bool {
        self.events.contains(&e)
    }

    /// Inserts an event; returns true if it was not already present.
    pub fn insert(&mut self, e: EventId) -> bool {
        self.events.insert(e)
    }

    /// Removes an event; returns true if it was present.
    pub fn remove(&mut self, e: EventId) -> bool {
        self.events.remove(&e)
    }

    /// Iterates events in [`EventId`] order: the order this process
    /// interned their names in, stable within one run but not name
    /// order. Sort by name (or use an `EventTable`) where the order
    /// must hold across processes.
    pub fn iter(&self) -> impl Iterator<Item = EventId> + '_ {
        self.events.iter().copied()
    }

    /// Σ_A ∪ Σ_B.
    pub fn union(&self, other: &Alphabet) -> Alphabet {
        Alphabet {
            events: self.events.union(&other.events).copied().collect(),
        }
    }

    /// Σ_A ∩ Σ_B — the events two composed components synchronise on.
    pub fn intersection(&self, other: &Alphabet) -> Alphabet {
        Alphabet {
            events: self.events.intersection(&other.events).copied().collect(),
        }
    }

    /// Σ_A − Σ_B.
    pub fn difference(&self, other: &Alphabet) -> Alphabet {
        Alphabet {
            events: self.events.difference(&other.events).copied().collect(),
        }
    }

    /// (Σ_A ∪ Σ_B) − (Σ_A ∩ Σ_B) — the interface of a composite, per the
    /// paper's definition of `‖`.
    pub fn symmetric_difference(&self, other: &Alphabet) -> Alphabet {
        Alphabet {
            events: self
                .events
                .symmetric_difference(&other.events)
                .copied()
                .collect(),
        }
    }

    /// True iff `self ⊆ other`.
    pub fn is_subset(&self, other: &Alphabet) -> bool {
        self.events.is_subset(&other.events)
    }

    /// True iff the two alphabets share no events.
    pub fn is_disjoint(&self, other: &Alphabet) -> bool {
        self.events.is_disjoint(&other.events)
    }

    /// Event names in [`Alphabet::iter`] order (interning order, not
    /// name order).
    pub fn names(&self) -> Vec<String> {
        self.events.iter().map(|e| e.name()).collect()
    }
}

impl FromIterator<EventId> for Alphabet {
    fn from_iter<T: IntoIterator<Item = EventId>>(iter: T) -> Self {
        Alphabet {
            events: iter.into_iter().collect(),
        }
    }
}

impl<'a> FromIterator<&'a str> for Alphabet {
    fn from_iter<T: IntoIterator<Item = &'a str>>(iter: T) -> Self {
        iter.into_iter().map(EventId::new).collect()
    }
}

fn fmt_events(events: &BTreeSet<EventId>, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "{{")?;
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{}", e.name())?;
    }
    write!(f, "}}")
}

impl fmt::Debug for Alphabet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_events(&self.events, f)
    }
}

impl fmt::Display for Alphabet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_events(&self.events, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let a = EventId::new("acc");
        let b = EventId::new("acc");
        let c = EventId::new("del");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.name(), "acc");
        assert_eq!(c.name(), "del");
    }

    #[test]
    fn from_str_interns() {
        let a: EventId = "evt_x".into();
        assert_eq!(a, EventId::new("evt_x"));
    }

    #[test]
    fn alphabet_set_operations() {
        let a = Alphabet::from_names(["x", "y", "z"]);
        let b = Alphabet::from_names(["y", "z", "w"]);
        assert_eq!(a.union(&b).len(), 4);
        assert_eq!(a.intersection(&b), Alphabet::from_names(["y", "z"]));
        assert_eq!(a.difference(&b), Alphabet::from_names(["x"]));
        assert_eq!(a.symmetric_difference(&b), Alphabet::from_names(["x", "w"]));
    }

    #[test]
    fn alphabet_subset_and_disjoint() {
        let a = Alphabet::from_names(["x", "y"]);
        let b = Alphabet::from_names(["x", "y", "z"]);
        let c = Alphabet::from_names(["p", "q"]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    fn alphabet_insert_remove() {
        let mut a = Alphabet::new();
        assert!(a.is_empty());
        assert!(a.insert(EventId::new("e1")));
        assert!(!a.insert(EventId::new("e1")));
        assert!(a.contains(EventId::new("e1")));
        assert!(a.remove(EventId::new("e1")));
        assert!(!a.remove(EventId::new("e1")));
        assert!(a.is_empty());
    }

    #[test]
    fn alphabet_display_sorted_by_id() {
        let a = Alphabet::from_names(["one"]);
        assert_eq!(format!("{a}"), "{one}");
    }
}
