//! Whole-graph reachability utilities: which states can occur at all,
//! and pruning those that cannot.

use crate::spec::{spec_from_parts, Spec, StateId};
use crate::stateset::StateSet;

/// The set of states reachable from the initial state via any mix of
/// external and internal transitions.
pub fn reachable(spec: &Spec) -> StateSet {
    reachable_from(spec, spec.initial())
}

/// The set of states reachable from `start`.
pub fn reachable_from(spec: &Spec, start: StateId) -> StateSet {
    let mut set = StateSet::new(spec.num_states());
    let mut stack = vec![start];
    set.insert(start);
    while let Some(s) = stack.pop() {
        for &(_, t) in spec.external_from(s) {
            if set.insert(t) {
                stack.push(t);
            }
        }
        for &t in spec.internal_from(s) {
            if set.insert(t) {
                stack.push(t);
            }
        }
    }
    set
}

/// Removes unreachable states, renumbering the rest. The alphabet is
/// unchanged (interfaces are declarative).
pub fn prune_unreachable(spec: &Spec) -> Spec {
    let live = reachable(spec);
    if live.len() == spec.num_states() {
        return spec.clone();
    }
    let mut map = vec![None; spec.num_states()];
    let mut names = Vec::new();
    for s in live.iter() {
        map[s.index()] = Some(StateId(names.len() as u32));
        names.push(spec.state_name(s).to_owned());
    }
    let ext = spec
        .external_transitions()
        .filter_map(|(s, e, t)| Some((map[s.index()]?, e, map[t.index()]?)))
        .collect();
    let int = spec
        .internal_transitions()
        .filter_map(|(s, t)| Some((map[s.index()]?, map[t.index()]?)))
        .collect();
    spec_from_parts(
        spec.name().to_owned(),
        spec.alphabet().clone(),
        names,
        map[spec.initial().index()].expect("initial state is always reachable"),
        ext,
        int,
    )
    .expect("pruning preserves validity")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecBuilder;

    fn with_island() -> Spec {
        let mut b = SpecBuilder::new("island");
        let a = b.state("a");
        let c = b.state("c");
        let orphan = b.state("orphan");
        let orphan2 = b.state("orphan2");
        b.ext(a, "e", c);
        b.int(c, a);
        b.ext(orphan, "e", orphan2);
        b.build().unwrap()
    }

    #[test]
    fn reachable_excludes_island() {
        let s = with_island();
        let r = reachable(&s);
        assert_eq!(r.len(), 2);
        assert!(r.contains(s.state_by_name("a").unwrap()));
        assert!(!r.contains(s.state_by_name("orphan").unwrap()));
    }

    #[test]
    fn prune_drops_island_and_renumbers() {
        let s = with_island();
        let p = prune_unreachable(&s);
        assert_eq!(p.num_states(), 2);
        assert_eq!(p.num_external(), 1);
        assert_eq!(p.num_internal(), 1);
        assert_eq!(p.state_name(p.initial()), "a");
        // Alphabet unchanged even though the orphan edge is gone.
        assert_eq!(p.alphabet(), s.alphabet());
    }

    #[test]
    fn prune_noop_when_fully_reachable() {
        let mut b = SpecBuilder::new("full");
        let a = b.state("a");
        let c = b.state("c");
        b.ext(a, "e", c);
        let s = b.build().unwrap();
        let p = prune_unreachable(&s);
        assert_eq!(p, s);
    }

    #[test]
    fn reachable_from_alternate_start() {
        let s = with_island();
        let orphan = s.state_by_name("orphan").unwrap();
        let r = reachable_from(&s, orphan);
        assert_eq!(r.len(), 2);
        assert!(r.contains(s.state_by_name("orphan2").unwrap()));
    }
}
