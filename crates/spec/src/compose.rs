//! The composition operator `‖` of §3.
//!
//! For specifications A and B:
//!
//! * `Σ(A‖B) = (Σ_A ∪ Σ_B) − (Σ_A ∩ Σ_B)` — shared events are the
//!   interface *between* the components and disappear from the composite
//!   interface;
//! * external transitions of the composite are moves of exactly one
//!   component on a non-shared event;
//! * internal transitions are internal moves of either component, plus
//!   synchronised moves on shared events (which become hidden).
//!
//! [`compose`] builds only the reachable part of the product (the full
//! `S_A × S_B` space per the definition contains unreachable garbage that
//! no trace can distinguish). Use [`compose_full`] when the literal
//! definition is required.

use crate::error::SpecError;
use crate::event::EventId;
use crate::spec::{spec_from_parts, Spec, StateId};
use std::collections::HashMap;

/// Reachable binary composition `a ‖ b`.
///
/// ```
/// use protoquot_spec::{compose, Alphabet, SpecBuilder};
/// // sender: ready --put--> done ; buffer: empty --put--> full --get--> empty
/// let mut s = SpecBuilder::new("S");
/// let ready = s.state("ready");
/// let done = s.state("done");
/// s.ext(ready, "put", done);
/// let sender = s.build().unwrap();
/// let mut b = SpecBuilder::new("B");
/// let empty = b.state("empty");
/// let full = b.state("full");
/// b.ext(empty, "put", full);
/// b.ext(full, "get", empty);
/// let buffer = b.build().unwrap();
/// let comp = compose(&sender, &buffer);
/// // `put` is shared: synchronised and hidden. Only `get` remains.
/// assert_eq!(comp.alphabet(), &Alphabet::from_names(["get"]));
/// assert_eq!(comp.num_internal(), 1);
/// ```
pub fn compose(a: &Spec, b: &Spec) -> Spec {
    let shared = a.alphabet().intersection(b.alphabet());
    let alphabet = a.alphabet().symmetric_difference(b.alphabet());

    // Lower-bound capacity: the product has at least as many states as
    // the larger operand reaches, and every component edge appears at
    // least once unless blocked by synchronisation.
    let state_guess = a.num_states().max(b.num_states());
    let mut index: HashMap<(StateId, StateId), StateId> = HashMap::with_capacity(state_guess);
    let mut names: Vec<String> = Vec::with_capacity(state_guess);
    let mut pairs: Vec<(StateId, StateId)> = Vec::with_capacity(state_guess);
    let mut ext: Vec<(StateId, EventId, StateId)> =
        Vec::with_capacity(a.num_external() + b.num_external());
    let mut int: Vec<(StateId, StateId)> = Vec::with_capacity(a.num_internal() + b.num_internal());

    let intern = |sa: StateId,
                  sb: StateId,
                  index: &mut HashMap<(StateId, StateId), StateId>,
                  names: &mut Vec<String>,
                  pairs: &mut Vec<(StateId, StateId)>,
                  work: &mut Vec<(StateId, StateId)>|
     -> StateId {
        *index.entry((sa, sb)).or_insert_with(|| {
            let id = StateId(names.len() as u32);
            names.push(format!("({},{})", a.state_name(sa), b.state_name(sb)));
            pairs.push((sa, sb));
            work.push((sa, sb));
            id
        })
    };

    let mut work: Vec<(StateId, StateId)> = Vec::new();
    let start = intern(
        a.initial(),
        b.initial(),
        &mut index,
        &mut names,
        &mut pairs,
        &mut work,
    );
    debug_assert_eq!(start, StateId(0));

    while let Some((sa, sb)) = work.pop() {
        let from = index[&(sa, sb)];
        // Moves of A alone.
        for &(e, ta) in a.external_from(sa) {
            if shared.contains(e) {
                // Synchronised: internal in the composite, needs B too.
                for tb in b.ext_successors(sb, e) {
                    let to = intern(ta, tb, &mut index, &mut names, &mut pairs, &mut work);
                    int.push((from, to));
                }
            } else {
                let to = intern(ta, sb, &mut index, &mut names, &mut pairs, &mut work);
                ext.push((from, e, to));
            }
        }
        // Moves of B alone on non-shared events (shared handled above).
        for &(e, tb) in b.external_from(sb) {
            if !shared.contains(e) {
                let to = intern(sa, tb, &mut index, &mut names, &mut pairs, &mut work);
                ext.push((from, e, to));
            }
        }
        // Internal moves of either component.
        for &ta in a.internal_from(sa) {
            let to = intern(ta, sb, &mut index, &mut names, &mut pairs, &mut work);
            int.push((from, to));
        }
        for &tb in b.internal_from(sb) {
            let to = intern(sa, tb, &mut index, &mut names, &mut pairs, &mut work);
            int.push((from, to));
        }
    }

    spec_from_parts(
        format!("{}||{}", a.name(), b.name()),
        alphabet,
        names,
        StateId(0),
        ext,
        int,
    )
    .expect("composition preserves validity")
}

/// Literal full-product composition over `S_A × S_B`, per the paper's
/// definition. Exposed for tests of definitional properties; algorithms
/// should use [`compose`].
pub fn compose_full(a: &Spec, b: &Spec) -> Spec {
    let shared = a.alphabet().intersection(b.alphabet());
    let alphabet = a.alphabet().symmetric_difference(b.alphabet());
    let nb = b.num_states() as u32;
    let id = |sa: StateId, sb: StateId| StateId(sa.0 * nb + sb.0);

    let mut names = Vec::with_capacity(a.num_states() * b.num_states());
    for sa in a.states() {
        for sb in b.states() {
            names.push(format!("({},{})", a.state_name(sa), b.state_name(sb)));
        }
    }
    let mut ext = Vec::new();
    let mut int = Vec::new();
    for sa in a.states() {
        for sb in b.states() {
            let from = id(sa, sb);
            for &(e, ta) in a.external_from(sa) {
                if shared.contains(e) {
                    for tb in b.ext_successors(sb, e) {
                        int.push((from, id(ta, tb)));
                    }
                } else {
                    ext.push((from, e, id(ta, sb)));
                }
            }
            for &(e, tb) in b.external_from(sb) {
                if !shared.contains(e) {
                    ext.push((from, e, id(sa, tb)));
                }
            }
            for &ta in a.internal_from(sa) {
                int.push((from, id(ta, sb)));
            }
            for &tb in b.internal_from(sb) {
                int.push((from, id(sa, tb)));
            }
        }
    }
    spec_from_parts(
        format!("{}||{}", a.name(), b.name()),
        alphabet,
        names,
        id(a.initial(), b.initial()),
        ext,
        int,
    )
    .expect("composition preserves validity")
}

/// The reference n-ary composition: the binary [`compose`] folded left
/// over `parts`. It is the oracle for [`crate::compose_all`], which builds
/// the same `Spec` (state numbering, names and adjacency order) in one
/// n-way product exploration; `tests/verify_differential.rs` pins the
/// two against each other.
///
/// Events shared by more than two components are refused
/// ([`SpecError::EventSharedByMoreThanTwo`]): the binary `‖` hides a
/// shared event after its first pair, so a third component would
/// silently fail to synchronise.
pub fn compose_all_reference(parts: &[&Spec]) -> Result<Spec, SpecError> {
    assert!(
        !parts.is_empty(),
        "compose_all_reference needs at least one component"
    );
    crate::engine::event_counts(parts)?;
    if parts.len() == 1 {
        return Ok(parts[0].clone());
    }
    // Prune the seed: the fold only ever explores from the initial
    // state, so unreachable seed states would just bloat every
    // intermediate product scan. Each subsequent `compose` result is
    // reachable by construction, keeping the fold pruned throughout.
    let mut acc = crate::graph::prune_unreachable(parts[0]);
    for p in &parts[1..] {
        acc = compose(&acc, p);
        debug_assert_eq!(
            crate::graph::reachable(&acc).to_vec().len(),
            acc.num_states(),
            "pairwise composition must only materialize reachable states"
        );
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Alphabet;
    use crate::spec::SpecBuilder;

    /// One-shot sender: ready --put--> done (put is shared with buffer).
    fn sender() -> Spec {
        let mut b = SpecBuilder::new("S");
        let ready = b.state("ready");
        let done = b.state("done");
        b.ext(ready, "put", done);
        b.build().unwrap()
    }

    /// Buffer: empty --put--> full --get--> empty.
    fn buffer() -> Spec {
        let mut b = SpecBuilder::new("B");
        let empty = b.state("empty");
        let full = b.state("full");
        b.ext(empty, "put", full);
        b.ext(full, "get", empty);
        b.build().unwrap()
    }

    #[test]
    fn shared_events_hide_and_synchronise() {
        let c = compose(&sender(), &buffer());
        // put shared -> hidden; interface is {get}.
        assert_eq!(c.alphabet(), &Alphabet::from_names(["get"]));
        // reachable: (ready,empty) -int-> (done,full) -get-> (done,empty)
        assert_eq!(c.num_states(), 3);
        assert_eq!(c.num_internal(), 1);
        assert_eq!(c.num_external(), 1);
    }

    #[test]
    fn unshared_events_interleave() {
        let mut b1 = SpecBuilder::new("L");
        let a = b1.state("a");
        let a2 = b1.state("a2");
        b1.ext(a, "x", a2);
        let l = b1.build().unwrap();
        let mut b2 = SpecBuilder::new("R");
        let c = b2.state("c");
        let c2 = b2.state("c2");
        b2.ext(c, "y", c2);
        let r = b2.build().unwrap();
        let comp = compose(&l, &r);
        assert_eq!(comp.alphabet(), &Alphabet::from_names(["x", "y"]));
        // Diamond: 4 states, 4 external transitions.
        assert_eq!(comp.num_states(), 4);
        assert_eq!(comp.num_external(), 4);
        assert_eq!(comp.num_internal(), 0);
    }

    #[test]
    fn shared_event_not_enabled_in_both_disappears() {
        // Buffer can only `get` when full; sender never does `get`, but
        // declare `get` in a second component that never enables it.
        let mut b = SpecBuilder::new("G");
        b.state("only");
        b.event("get");
        let blocker = b.build().unwrap();
        let c = compose(&buffer(), &blocker);
        // get is shared -> hidden from the interface...
        assert_eq!(c.alphabet(), &Alphabet::from_names(["put"]));
        // ...and since the blocker never enables it, no synchronised
        // transition exists: from full, nothing can happen.
        let full = c
            .states()
            .find(|&s| c.state_name(s).contains("full"))
            .unwrap();
        assert!(c.external_from(full).is_empty());
        assert!(c.internal_from(full).is_empty());
    }

    #[test]
    fn internal_moves_interleave() {
        let mut b1 = SpecBuilder::new("I1");
        let a = b1.state("a");
        let a2 = b1.state("a2");
        b1.int(a, a2);
        let l = b1.build().unwrap();
        let mut b2 = SpecBuilder::new("I2");
        let c = b2.state("c");
        let c2 = b2.state("c2");
        b2.int(c, c2);
        let r = b2.build().unwrap();
        let comp = compose(&l, &r);
        assert_eq!(comp.num_states(), 4);
        assert_eq!(comp.num_internal(), 4);
    }

    #[test]
    fn full_product_contains_reachable_as_subgraph() {
        let full = compose_full(&sender(), &buffer());
        let reach = compose(&sender(), &buffer());
        assert_eq!(full.num_states(), 4);
        assert!(reach.num_states() <= full.num_states());
        assert_eq!(full.alphabet(), reach.alphabet());
        let pruned = crate::graph::prune_unreachable(&full);
        assert_eq!(pruned.num_states(), reach.num_states());
        assert_eq!(pruned.num_external(), reach.num_external());
        assert_eq!(pruned.num_internal(), reach.num_internal());
    }

    #[test]
    fn compose_all_rejects_triple_sharing() {
        let s1 = sender();
        let s2 = sender().with_name("S2");
        let s3 = sender().with_name("S3");
        let err = compose_all_reference(&[&s1, &s2, &s3]).unwrap_err();
        assert!(matches!(err, SpecError::EventSharedByMoreThanTwo(_)));
    }

    #[test]
    fn compose_all_folds() {
        let s = sender();
        let b = buffer();
        let mut rb = SpecBuilder::new("Recv");
        let w = rb.state("w");
        let d = rb.state("d");
        rb.ext(w, "get", d);
        let r = rb.build().unwrap();
        let sys = compose_all_reference(&[&s, &b, &r]).unwrap();
        // Everything synchronises away: closed system.
        assert!(sys.alphabet().is_empty());
        // ready/empty/w -> done/full/w -> done/empty/d.
        assert_eq!(sys.num_states(), 3);
        assert_eq!(sys.num_internal(), 2);
    }

    #[test]
    fn nondeterministic_sync_produces_all_pairs() {
        let mut b1 = SpecBuilder::new("N1");
        let a = b1.state("a");
        let t1 = b1.state("t1");
        let t2 = b1.state("t2");
        b1.ext(a, "e", t1);
        b1.ext(a, "e", t2);
        let l = b1.build().unwrap();
        let mut b2 = SpecBuilder::new("N2");
        let c = b2.state("c");
        let u1 = b2.state("u1");
        let u2 = b2.state("u2");
        b2.ext(c, "e", u1);
        b2.ext(c, "e", u2);
        let r = b2.build().unwrap();
        let comp = compose(&l, &r);
        // 4 synchronised internal transitions from the initial state.
        assert_eq!(comp.internal_from(comp.initial()).len(), 4);
    }

    #[test]
    fn composition_commutes_up_to_size() {
        let ab = compose(&sender(), &buffer());
        let ba = compose(&buffer(), &sender());
        assert_eq!(ab.num_states(), ba.num_states());
        assert_eq!(ab.num_external(), ba.num_external());
        assert_eq!(ab.num_internal(), ba.num_internal());
        assert_eq!(ab.alphabet(), ba.alphabet());
    }
}

/// CSP-style synchronous product: like the paper's `‖` except shared
/// events stay *visible* — the composite's alphabet is the union, and a
/// shared event is an external transition of the composite (fired
/// jointly). Used by the bottom-up baselines (Okumura's method builds a
/// converter as a constrained product whose channel events must remain
/// part of the converter interface).
pub fn sync_product(a: &Spec, b: &Spec) -> Spec {
    let shared = a.alphabet().intersection(b.alphabet());
    let alphabet = a.alphabet().union(b.alphabet());

    let mut index: HashMap<(StateId, StateId), StateId> = HashMap::new();
    let mut names: Vec<String> = Vec::new();
    let mut ext: Vec<(StateId, EventId, StateId)> = Vec::new();
    let mut int: Vec<(StateId, StateId)> = Vec::new();
    let mut work: Vec<(StateId, StateId)> = Vec::new();

    let intern = |sa: StateId,
                  sb: StateId,
                  index: &mut HashMap<(StateId, StateId), StateId>,
                  names: &mut Vec<String>,
                  work: &mut Vec<(StateId, StateId)>|
     -> StateId {
        *index.entry((sa, sb)).or_insert_with(|| {
            let id = StateId(names.len() as u32);
            names.push(format!("({},{})", a.state_name(sa), b.state_name(sb)));
            work.push((sa, sb));
            id
        })
    };

    intern(a.initial(), b.initial(), &mut index, &mut names, &mut work);
    while let Some((sa, sb)) = work.pop() {
        let from = index[&(sa, sb)];
        for &(e, ta) in a.external_from(sa) {
            if shared.contains(e) {
                for tb in b.ext_successors(sb, e) {
                    let to = intern(ta, tb, &mut index, &mut names, &mut work);
                    ext.push((from, e, to));
                }
            } else {
                let to = intern(ta, sb, &mut index, &mut names, &mut work);
                ext.push((from, e, to));
            }
        }
        for &(e, tb) in b.external_from(sb) {
            if !shared.contains(e) {
                let to = intern(sa, tb, &mut index, &mut names, &mut work);
                ext.push((from, e, to));
            }
        }
        for &ta in a.internal_from(sa) {
            let to = intern(ta, sb, &mut index, &mut names, &mut work);
            int.push((from, to));
        }
        for &tb in b.internal_from(sb) {
            let to = intern(sa, tb, &mut index, &mut names, &mut work);
            int.push((from, to));
        }
    }

    spec_from_parts(
        format!("{}x{}", a.name(), b.name()),
        alphabet,
        names,
        StateId(0),
        ext,
        int,
    )
    .expect("sync product preserves validity")
}

/// The hiding operator: every transition on an event of `hidden`
/// becomes an internal transition, and the events leave the alphabet.
pub fn hide(spec: &Spec, hidden: &crate::event::Alphabet) -> Spec {
    let mut ext = Vec::new();
    let mut int: Vec<(StateId, StateId)> = spec.internal_transitions().collect();
    for (s, e, t) in spec.external_transitions() {
        if hidden.contains(e) {
            int.push((s, t));
        } else {
            ext.push((s, e, t));
        }
    }
    spec_from_parts(
        format!("{}\\hidden", spec.name()),
        spec.alphabet().difference(hidden),
        spec.states()
            .map(|s| spec.state_name(s).to_owned())
            .collect(),
        spec.initial(),
        ext,
        int,
    )
    .expect("hiding preserves validity")
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::event::Alphabet;
    use crate::spec::SpecBuilder;

    fn ping() -> Spec {
        let mut b = SpecBuilder::new("P");
        let a = b.state("a");
        let c = b.state("c");
        b.ext(a, "sync", c);
        b.ext(c, "p_only", a);
        b.build().unwrap()
    }

    fn pong() -> Spec {
        let mut b = SpecBuilder::new("Q");
        let a = b.state("x");
        let c = b.state("y");
        b.ext(a, "sync", c);
        b.ext(c, "q_only", a);
        b.build().unwrap()
    }

    #[test]
    fn sync_product_keeps_shared_events_visible() {
        let p = sync_product(&ping(), &pong());
        assert_eq!(
            p.alphabet(),
            &Alphabet::from_names(["sync", "p_only", "q_only"])
        );
        // (a,x) --sync--> (c,y); then p_only/q_only interleave.
        assert_eq!(p.num_internal(), 0);
        let init = p.initial();
        assert_eq!(p.external_from(init).len(), 1);
        assert_eq!(p.external_from(init)[0].0, EventId::new("sync"));
    }

    #[test]
    fn sync_product_blocks_unmatched_shared_events() {
        let mut b = SpecBuilder::new("Blocker");
        b.state("only");
        b.event("sync");
        let blocker = b.build().unwrap();
        let p = sync_product(&ping(), &blocker);
        // sync can never fire: the composite is a single stuck state.
        assert_eq!(p.num_states(), 1);
        assert_eq!(p.num_external(), 0);
    }

    #[test]
    fn hide_turns_events_internal() {
        let p = ping();
        let h = hide(&p, &Alphabet::from_names(["sync"]));
        assert_eq!(h.alphabet(), &Alphabet::from_names(["p_only"]));
        assert_eq!(h.num_internal(), 1);
        assert_eq!(h.num_external(), 1);
        assert_eq!(h.num_states(), p.num_states());
    }

    #[test]
    fn hide_nothing_is_identity_shape() {
        let p = ping();
        let h = hide(&p, &Alphabet::new());
        assert_eq!(h.num_external(), p.num_external());
        assert_eq!(h.num_internal(), 0);
        assert_eq!(h.alphabet(), p.alphabet());
    }

    #[test]
    fn paper_compose_equals_sync_product_plus_hide() {
        // A‖B = hide(sync_product(A,B), shared) up to bisimilarity.
        let a = ping();
        let b = pong();
        let shared = a.alphabet().intersection(b.alphabet());
        let via_ops = hide(&sync_product(&a, &b), &shared);
        let direct = compose(&a, &b);
        assert!(crate::minimize::bisimilar(&via_ops, &direct));
    }

    #[test]
    fn fold_with_unreachable_seed_matches_nway_composition() {
        // The seed carries an unreachable state (and a solo event only
        // it uses); the pruned fold and the single n-way exploration
        // must agree on the reachable composite.
        let mut b1 = SpecBuilder::new("L");
        let l0 = b1.state("l0");
        let l1 = b1.state("l1");
        let orphan = b1.state("orphan");
        b1.ext(l0, "in", l1);
        b1.ext(l1, "x", l0);
        b1.ext(orphan, "ghost", l0);
        let l = b1.build().unwrap();

        let mut b2 = SpecBuilder::new("M");
        let m0 = b2.state("m0");
        let m1 = b2.state("m1");
        b2.ext(m0, "x", m1);
        b2.ext(m1, "y", m0);
        let m = b2.build().unwrap();

        let mut b3 = SpecBuilder::new("R");
        let r0 = b3.state("r0");
        let r1 = b3.state("r1");
        b3.ext(r0, "y", r1);
        b3.ext(r1, "out", r0);
        let r = b3.build().unwrap();

        let folded = compose_all_reference(&[&l, &m, &r]).unwrap();
        let nway = crate::engine::compose_all(&[&l, &m, &r]).unwrap();
        assert_eq!(folded.num_states(), nway.num_states());
        assert_eq!(folded.alphabet(), nway.alphabet());
        for s in folded.states() {
            assert_eq!(folded.external_from(s), nway.external_from(s));
            assert_eq!(folded.internal_from(s), nway.internal_from(s));
        }
        assert!(crate::minimize::bisimilar(&folded, &nway));
        // No composite state mentions the unreachable seed state.
        assert!(folded
            .states()
            .all(|s| !folded.state_name(s).contains("orphan")));
    }
}
