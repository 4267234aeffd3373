//! The specification tuple (S, Σ, T, λ, s0) of the paper's §3.
//!
//! A [`Spec`] is a finite set of states, a finite alphabet of events, an
//! *external* transition relation `T ⊆ S × Σ × S` (edges labelled with an
//! interface event) and an *internal* transition relation `λ ⊆ S × S`
//! (unlabelled edges that can fire without environmental cooperation),
//! plus a distinguished initial state.

use crate::error::SpecError;
use crate::event::{Alphabet, EventId};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Index of a state within one [`Spec`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StateId(pub u32);

impl StateId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A finite-state specification per §3 of the paper.
///
/// Construct one with [`SpecBuilder`]. The adjacency of both transition
/// relations is indexed per-state for fast traversal.
#[derive(Clone, PartialEq, Eq)]
pub struct Spec {
    name: String,
    alphabet: Alphabet,
    state_names: Vec<String>,
    initial: StateId,
    /// Per-state outgoing external transitions, `(event, target)`.
    ext: Vec<Vec<(EventId, StateId)>>,
    /// Per-state outgoing internal transitions.
    int: Vec<Vec<StateId>>,
}

impl Spec {
    /// Human-readable name of the specification.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The interface Σ. Note that Σ may include events with no
    /// transitions — the alphabet defines the interface, not the
    /// behaviour, and the composition operator keys off it.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Number of states |S|.
    pub fn num_states(&self) -> usize {
        self.state_names.len()
    }

    /// Number of external transitions |T|.
    pub fn num_external(&self) -> usize {
        self.ext.iter().map(Vec::len).sum()
    }

    /// Number of internal transitions |λ|.
    pub fn num_internal(&self) -> usize {
        self.int.iter().map(Vec::len).sum()
    }

    /// The initial state s0.
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// Iterator over all states.
    pub fn states(&self) -> impl Iterator<Item = StateId> {
        (0..self.state_names.len() as u32).map(StateId)
    }

    /// The label of a state.
    pub fn state_name(&self, s: StateId) -> &str {
        &self.state_names[s.index()]
    }

    /// Looks a state up by label.
    pub fn state_by_name(&self, name: &str) -> Option<StateId> {
        self.state_names
            .iter()
            .position(|n| n == name)
            .map(|i| StateId(i as u32))
    }

    /// Outgoing external transitions of `s` as `(event, target)` pairs.
    pub fn external_from(&self, s: StateId) -> &[(EventId, StateId)] {
        &self.ext[s.index()]
    }

    /// Outgoing internal transitions of `s`.
    pub fn internal_from(&self, s: StateId) -> &[StateId] {
        &self.int[s.index()]
    }

    /// All targets of `s --e--> _` (the relation may be nondeterministic).
    pub fn ext_successors(&self, s: StateId, e: EventId) -> impl Iterator<Item = StateId> + '_ {
        self.ext[s.index()]
            .iter()
            .filter(move |(ev, _)| *ev == e)
            .map(|&(_, t)| t)
    }

    /// True iff `s --e--> s'` for some `s'` — "`e` is enabled in `s`".
    pub fn enables(&self, s: StateId, e: EventId) -> bool {
        self.ext[s.index()].iter().any(|&(ev, _)| ev == e)
    }

    /// τ.s — the set of external events enabled in `s` (paper §3).
    pub fn tau(&self, s: StateId) -> Alphabet {
        self.ext[s.index()].iter().map(|&(e, _)| e).collect()
    }

    /// Iterator over every external transition `(source, event, target)`.
    pub fn external_transitions(&self) -> impl Iterator<Item = (StateId, EventId, StateId)> + '_ {
        self.ext
            .iter()
            .enumerate()
            .flat_map(|(s, edges)| edges.iter().map(move |&(e, t)| (StateId(s as u32), e, t)))
    }

    /// Iterator over every internal transition `(source, target)`.
    pub fn internal_transitions(&self) -> impl Iterator<Item = (StateId, StateId)> + '_ {
        self.int
            .iter()
            .enumerate()
            .flat_map(|(s, targets)| targets.iter().map(move |&t| (StateId(s as u32), t)))
    }

    /// True iff the spec has no internal transitions at all (e.g. the
    /// converters produced by the quotient algorithm: λ_C0 = ∅).
    pub fn is_internal_free(&self) -> bool {
        self.int.iter().all(Vec::is_empty)
    }

    /// True iff every state has at most one successor per event and there
    /// are no internal transitions.
    pub fn is_deterministic(&self) -> bool {
        if !self.is_internal_free() {
            return false;
        }
        self.ext.iter().all(|edges| {
            let mut seen = std::collections::HashSet::new();
            edges.iter().all(|&(e, _)| seen.insert(e))
        })
    }

    /// Renames the specification (returns self for chaining).
    pub fn with_name(mut self, name: &str) -> Spec {
        self.name = name.to_owned();
        self
    }

    /// Returns a copy whose alphabet additionally contains `extra`.
    /// Useful to align interfaces before a satisfaction check.
    pub fn with_alphabet_extended(mut self, extra: &Alphabet) -> Spec {
        self.alphabet = self.alphabet.union(extra);
        self
    }

    /// Returns a copy with every occurrence of event `from` relabelled to
    /// `to`, in both the alphabet and the transitions. `to` must not
    /// already be in the alphabet.
    pub fn rename_event(&self, from: EventId, to: EventId) -> Result<Spec, SpecError> {
        if !self.alphabet.contains(from) {
            return Err(SpecError::UnknownEvent(from.name()));
        }
        if self.alphabet.contains(to) {
            return Err(SpecError::DuplicateEvent(to.name()));
        }
        let mut out = self.clone();
        out.alphabet.remove(from);
        out.alphabet.insert(to);
        for edges in &mut out.ext {
            for (e, _) in edges.iter_mut() {
                if *e == from {
                    *e = to;
                }
            }
        }
        Ok(out)
    }

    /// A one-line summary: name, |S|, |T|, |λ|, Σ.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} states, {} external, {} internal, alphabet {}",
            self.name,
            self.num_states(),
            self.num_external(),
            self.num_internal(),
            self.alphabet
        )
    }
}

impl fmt::Debug for Spec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "spec {} (initial {}) {{",
            self.name,
            self.state_name(self.initial)
        )?;
        for s in self.states() {
            for &(e, t) in self.external_from(s) {
                writeln!(
                    f,
                    "  {} --{}--> {}",
                    self.state_name(s),
                    e,
                    self.state_name(t)
                )?;
            }
            for &t in self.internal_from(s) {
                writeln!(f, "  {} ~~~> {}", self.state_name(s), self.state_name(t))?;
            }
        }
        write!(f, "}}")
    }
}

/// Incremental builder for [`Spec`].
///
/// ```
/// use protoquot_spec::SpecBuilder;
/// let mut b = SpecBuilder::new("toggle");
/// let on = b.state("on");
/// let off = b.state("off");
/// b.ext(on, "flip", off);
/// b.ext(off, "flip", on);
/// let spec = b.build().unwrap();
/// assert_eq!(spec.num_states(), 2);
/// ```
pub struct SpecBuilder {
    name: String,
    alphabet: Alphabet,
    state_names: Vec<String>,
    state_index: HashMap<String, StateId>,
    initial: Option<StateId>,
    ext: Vec<(StateId, EventId, StateId)>,
    int: Vec<(StateId, StateId)>,
}

impl SpecBuilder {
    /// Starts a new builder for a spec called `name`.
    pub fn new(name: &str) -> SpecBuilder {
        SpecBuilder {
            name: name.to_owned(),
            alphabet: Alphabet::new(),
            state_names: Vec::new(),
            state_index: HashMap::new(),
            initial: None,
            ext: Vec::new(),
            int: Vec::new(),
        }
    }

    /// Declares (or looks up) a state by label. The first state declared
    /// becomes the initial state unless [`initial`](Self::initial) is
    /// called.
    pub fn state(&mut self, label: &str) -> StateId {
        if let Some(&id) = self.state_index.get(label) {
            return id;
        }
        let id = StateId(self.state_names.len() as u32);
        self.state_names.push(label.to_owned());
        self.state_index.insert(label.to_owned(), id);
        id
    }

    /// Declares an event as part of the interface without adding a
    /// transition.
    pub fn event(&mut self, name: &str) -> EventId {
        let e = EventId::new(name);
        self.alphabet.insert(e);
        e
    }

    /// Adds an external transition `from --event--> to`. The event is
    /// added to the alphabet automatically.
    pub fn ext(&mut self, from: StateId, event: &str, to: StateId) -> &mut Self {
        let e = self.event(event);
        self.ext.push((from, e, to));
        self
    }

    /// Adds an external transition with an already-interned event id.
    pub fn ext_id(&mut self, from: StateId, event: EventId, to: StateId) -> &mut Self {
        self.alphabet.insert(event);
        self.ext.push((from, event, to));
        self
    }

    /// Adds an internal transition `from ~~> to`.
    pub fn int(&mut self, from: StateId, to: StateId) -> &mut Self {
        self.int.push((from, to));
        self
    }

    /// Sets the initial state (default: first state declared).
    pub fn initial(&mut self, s: StateId) -> &mut Self {
        self.initial = Some(s);
        self
    }

    /// Finishes construction, validating the specification.
    pub fn build(self) -> Result<Spec, SpecError> {
        if self.state_names.is_empty() {
            return Err(SpecError::NoStates(self.name));
        }
        let n = self.state_names.len();
        let initial = self.initial.unwrap_or(StateId(0));
        if initial.index() >= n {
            return Err(SpecError::InvalidState(initial.index()));
        }
        let mut ext: Vec<Vec<(EventId, StateId)>> = vec![Vec::new(); n];
        for (s, e, t) in self.ext {
            if s.index() >= n {
                return Err(SpecError::InvalidState(s.index()));
            }
            if t.index() >= n {
                return Err(SpecError::InvalidState(t.index()));
            }
            if !ext[s.index()].contains(&(e, t)) {
                ext[s.index()].push((e, t));
            }
        }
        let mut int: Vec<Vec<StateId>> = vec![Vec::new(); n];
        for (s, t) in self.int {
            if s.index() >= n {
                return Err(SpecError::InvalidState(s.index()));
            }
            if t.index() >= n {
                return Err(SpecError::InvalidState(t.index()));
            }
            if !int[s.index()].contains(&t) {
                int[s.index()].push(t);
            }
        }
        Ok(Spec {
            name: self.name,
            alphabet: self.alphabet,
            state_names: self.state_names,
            initial,
            ext,
            int,
        })
    }
}

/// Low-level constructor used by algorithms that synthesise specs whole
/// (composition, normalization, the quotient). Performs the same
/// validation as [`SpecBuilder::build`].
pub fn spec_from_parts(
    name: String,
    alphabet: Alphabet,
    state_names: Vec<String>,
    initial: StateId,
    external: Vec<(StateId, EventId, StateId)>,
    internal: Vec<(StateId, StateId)>,
) -> Result<Spec, SpecError> {
    SpecBuilder {
        name,
        alphabet,
        state_names: distinct_labels(state_names),
        state_index: HashMap::new(),
        initial: Some(initial),
        ext: external,
        int: internal,
    }
    .build()
}

/// Synthesised state labels may repeat textually; a repeat becomes
/// `label#i` (`i` = states declared so far) so lookups still work on the
/// primary occurrence. Distinct labels — the usual case — are returned
/// as they are, without a copy.
fn distinct_labels(labels: Vec<String>) -> Vec<String> {
    let distinct = {
        let mut seen = HashSet::with_capacity(labels.len());
        labels.iter().all(|l| seen.insert(l.as_str()))
    };
    if distinct {
        return labels;
    }
    let mut b = SpecBuilder::new("");
    for label in &labels {
        if b.state_index.contains_key(label) {
            let fresh = format!("{label}#{}", b.state_names.len());
            b.state(&fresh);
        } else {
            b.state(label);
        }
    }
    b.state_names
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toggle() -> Spec {
        let mut b = SpecBuilder::new("toggle");
        let on = b.state("on");
        let off = b.state("off");
        b.ext(on, "flip", off);
        b.ext(off, "flip", on);
        b.build().unwrap()
    }

    #[test]
    fn builder_basics() {
        let s = toggle();
        assert_eq!(s.name(), "toggle");
        assert_eq!(s.num_states(), 2);
        assert_eq!(s.num_external(), 2);
        assert_eq!(s.num_internal(), 0);
        assert_eq!(s.initial(), StateId(0));
        assert!(s.is_internal_free());
        assert!(s.is_deterministic());
    }

    #[test]
    fn state_lookup_roundtrip() {
        let s = toggle();
        let on = s.state_by_name("on").unwrap();
        assert_eq!(s.state_name(on), "on");
        assert!(s.state_by_name("nonexistent").is_none());
    }

    #[test]
    fn enables_and_tau() {
        let s = toggle();
        let flip = EventId::new("flip");
        let on = s.state_by_name("on").unwrap();
        assert!(s.enables(on, flip));
        assert!(!s.enables(on, EventId::new("other")));
        assert_eq!(s.tau(on), Alphabet::from_names(["flip"]));
    }

    #[test]
    fn duplicate_transitions_are_deduped() {
        let mut b = SpecBuilder::new("d");
        let a = b.state("a");
        let c = b.state("c");
        b.ext(a, "e", c);
        b.ext(a, "e", c);
        b.int(a, c);
        b.int(a, c);
        let s = b.build().unwrap();
        assert_eq!(s.num_external(), 1);
        assert_eq!(s.num_internal(), 1);
    }

    #[test]
    fn repeated_labels_are_disambiguated() {
        let labels = ["a", "b", "a", "a#2"].map(String::from).to_vec();
        let s = spec_from_parts(
            "r".into(),
            Alphabet::new(),
            labels,
            StateId(0),
            vec![],
            vec![],
        )
        .unwrap();
        let names: Vec<&str> = s.states().map(|q| s.state_name(q)).collect();
        assert_eq!(names, ["a", "b", "a#2", "a#2#3"]);
        assert_eq!(s.state_by_name("a"), Some(StateId(0)));
    }

    #[test]
    fn empty_spec_is_error() {
        assert!(matches!(
            SpecBuilder::new("nil").build(),
            Err(SpecError::NoStates(_))
        ));
    }

    #[test]
    fn nondeterministic_spec_detected() {
        let mut b = SpecBuilder::new("nd");
        let a = b.state("a");
        let c = b.state("c");
        let d = b.state("d");
        b.ext(a, "e", c);
        b.ext(a, "e", d);
        let s = b.build().unwrap();
        assert!(!s.is_deterministic());
        assert!(s.is_internal_free());
        let e = EventId::new("e");
        let succ: Vec<_> = s.ext_successors(a, e).collect();
        assert_eq!(succ.len(), 2);
    }

    #[test]
    fn internal_transitions_make_nondeterministic() {
        let mut b = SpecBuilder::new("i");
        let a = b.state("a");
        let c = b.state("c");
        b.int(a, c);
        let s = b.build().unwrap();
        assert!(!s.is_deterministic());
        assert!(!s.is_internal_free());
    }

    #[test]
    fn rename_event() {
        let s = toggle();
        let flip = EventId::new("flip");
        let flop = EventId::new("flop");
        let r = s.rename_event(flip, flop).unwrap();
        assert!(r.alphabet().contains(flop));
        assert!(!r.alphabet().contains(flip));
        let on = r.state_by_name("on").unwrap();
        assert!(r.enables(on, flop));
        // Renaming to an existing event or from a missing one fails.
        assert!(s.rename_event(EventId::new("missing"), flop).is_err());
        let two = {
            let mut b = SpecBuilder::new("two");
            let a = b.state("a");
            b.ext(a, "x", a);
            b.ext(a, "y", a);
            b.build().unwrap()
        };
        assert!(two
            .rename_event(EventId::new("x"), EventId::new("y"))
            .is_err());
    }

    #[test]
    fn declared_event_without_transition_is_in_alphabet() {
        let mut b = SpecBuilder::new("iface");
        b.state("only");
        b.event("phantom");
        let s = b.build().unwrap();
        assert!(s.alphabet().contains(EventId::new("phantom")));
        assert_eq!(s.num_external(), 0);
    }

    #[test]
    fn invalid_initial_state_rejected() {
        let mut b = SpecBuilder::new("bad");
        b.state("a");
        b.initial(StateId(5));
        assert!(matches!(b.build(), Err(SpecError::InvalidState(5))));
    }
}
