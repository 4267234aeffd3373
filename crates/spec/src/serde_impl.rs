//! Serde support: specifications serialize to a stable, name-based
//! document (event *names*, not interner ids), so serialized specs are
//! portable across processes.

use crate::error::SpecError;
use crate::event::EventId;
use crate::spec::{spec_from_parts, Spec, StateId};
use serde::{Deserialize, Serialize, Value};
use std::collections::{BTreeMap, HashMap};

/// The serialized form of a [`Spec`].
#[derive(Clone, Debug, PartialEq)]
pub struct SpecDoc {
    /// Spec name.
    pub name: String,
    /// Alphabet as event names.
    pub alphabet: Vec<String>,
    /// State labels, index = state id.
    pub states: Vec<String>,
    /// Initial state index.
    pub initial: usize,
    /// External transitions as (from, event, to).
    pub external: Vec<(usize, String, usize)>,
    /// Internal transitions as (from, to).
    pub internal: Vec<(usize, usize)>,
}

impl From<&Spec> for SpecDoc {
    fn from(spec: &Spec) -> SpecDoc {
        SpecDoc {
            name: spec.name().to_owned(),
            alphabet: spec.alphabet().names(),
            states: spec
                .states()
                .map(|s| spec.state_name(s).to_owned())
                .collect(),
            initial: spec.initial().index(),
            external: spec
                .external_transitions()
                .map(|(s, e, t)| (s.index(), e.name(), t.index()))
                .collect(),
            internal: spec
                .internal_transitions()
                .map(|(s, t)| (s.index(), t.index()))
                .collect(),
        }
    }
}

impl TryFrom<SpecDoc> for Spec {
    type Error = SpecError;

    fn try_from(mut doc: SpecDoc) -> Result<Spec, Self::Error> {
        let name = std::mem::take(&mut doc.name);
        let states = std::mem::take(&mut doc.states);
        spec_from_doc(name, states, &doc)
    }
}

impl TryFrom<&SpecDoc> for Spec {
    type Error = SpecError;

    /// Builds the spec without copying the document: each state label
    /// is copied once, into the spec, and each distinct event name is
    /// interned once.
    fn try_from(doc: &SpecDoc) -> Result<Spec, Self::Error> {
        spec_from_doc(doc.name.clone(), doc.states.clone(), doc)
    }
}

/// `doc` as a spec named `name` with state labels `states`, resolving
/// each distinct event name to its [`EventId`] once. An edge whose event
/// is missing from the alphabet is an error, reported only if the spec
/// is otherwise valid (so every other error reads as it always has).
fn spec_from_doc(name: String, states: Vec<String>, doc: &SpecDoc) -> Result<Spec, SpecError> {
    let ids: HashMap<&str, EventId> = doc
        .alphabet
        .iter()
        .map(|n| (n.as_str(), EventId::new(n)))
        .collect();
    let mut unknown = None;
    let external = doc
        .external
        .iter()
        .map(|(s, e, t)| {
            let e = ids.get(e.as_str()).copied().unwrap_or_else(|| {
                unknown.get_or_insert(e);
                EventId::new(e)
            });
            (StateId(*s as u32), e, StateId(*t as u32))
        })
        .collect();
    let spec = spec_from_parts(
        name,
        ids.values().copied().collect(),
        states,
        StateId(doc.initial as u32),
        external,
        doc.internal
            .iter()
            .map(|&(s, t)| (StateId(s as u32), StateId(t as u32)))
            .collect(),
    )?;
    match unknown {
        Some(e) => Err(SpecError::UnknownEvent(e.clone())),
        None => Ok(spec),
    }
}

// The vendored serde shim has no derive macros, so SpecDoc's
// serialization is spelled out: an object with one entry per field.
impl Serialize for SpecDoc {
    fn to_value(&self) -> Value {
        let mut obj = BTreeMap::new();
        obj.insert("name".to_owned(), self.name.to_value());
        obj.insert("alphabet".to_owned(), self.alphabet.to_value());
        obj.insert("states".to_owned(), self.states.to_value());
        obj.insert("initial".to_owned(), self.initial.to_value());
        obj.insert("external".to_owned(), self.external.to_value());
        obj.insert("internal".to_owned(), self.internal.to_value());
        Value::Obj(obj)
    }
}

impl Deserialize for SpecDoc {
    fn from_value(v: &Value) -> Result<SpecDoc, serde::Error> {
        let obj = v
            .as_obj()
            .ok_or_else(|| serde::de::Error::custom("SpecDoc: expected object"))?;
        let field = |name: &str| {
            obj.get(name)
                .ok_or_else(|| serde::de::Error::custom(format!("SpecDoc: missing field {name:?}")))
        };
        Ok(SpecDoc {
            name: String::from_value(field("name")?)?,
            alphabet: Vec::from_value(field("alphabet")?)?,
            states: Vec::from_value(field("states")?)?,
            initial: usize::from_value(field("initial")?)?,
            external: Vec::from_value(field("external")?)?,
            internal: Vec::from_value(field("internal")?)?,
        })
    }
}

impl Serialize for Spec {
    fn to_value(&self) -> Value {
        SpecDoc::from(self).to_value()
    }
}

impl Deserialize for Spec {
    fn from_value(v: &Value) -> Result<Spec, serde::Error> {
        let doc = SpecDoc::from_value(v)?;
        Spec::try_from(doc).map_err(serde::de::Error::custom)
    }
}

/// Renders a spec as a small JSON document (hand-rolled writer so the
/// core crates stay free of a JSON dependency; escaping covers the
/// characters event/state names can contain).
pub fn to_json(spec: &Spec) -> String {
    let doc = SpecDoc::from(spec);
    let esc = |s: &str| {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    };
    let strings = |v: &[String]| v.iter().map(|s| esc(s)).collect::<Vec<_>>().join(",");
    let ext = doc
        .external
        .iter()
        .map(|(s, e, t)| format!("[{s},{},{t}]", esc(e)))
        .collect::<Vec<_>>()
        .join(",");
    let int = doc
        .internal
        .iter()
        .map(|(s, t)| format!("[{s},{t}]"))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"name\":{},\"alphabet\":[{}],\"states\":[{}],\"initial\":{},\"external\":[{ext}],\"internal\":[{int}]}}\n",
        esc(&doc.name),
        strings(&doc.alphabet),
        strings(&doc.states),
        doc.initial
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecBuilder;

    fn sample() -> Spec {
        let mut b = SpecBuilder::new("sample");
        let a = b.state("a");
        let c = b.state("c");
        b.ext(a, "go", c);
        b.int(c, a);
        b.event("declared");
        b.initial(c);
        b.build().unwrap()
    }

    #[test]
    fn doc_roundtrip() {
        let s = sample();
        let doc = SpecDoc::from(&s);
        let back = Spec::try_from(doc).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn doc_fields() {
        let doc = SpecDoc::from(&sample());
        assert_eq!(doc.name, "sample");
        assert!(doc.alphabet.contains(&"declared".to_owned()));
        assert_eq!(doc.initial, 1);
        assert_eq!(doc.external, vec![(0, "go".to_owned(), 1)]);
        assert_eq!(doc.internal, vec![(1, 0)]);
    }

    #[test]
    fn hand_rolled_json_structure() {
        let s = sample();
        let j = to_json(&s);
        assert!(j.starts_with("{\"name\":\"sample\""));
        assert!(j.contains("\"initial\":1"));
        assert!(j.contains("[0,\"go\",1]"));
        assert!(j.contains("\"internal\":[[1,0]]"));
        // Escaping: quotes and backslashes in names survive.
        let mut b = SpecBuilder::new("we\"ird\\name");
        b.state("st\"ate");
        let weird = b.build().unwrap();
        let j = to_json(&weird);
        assert!(j.contains("we\\\"ird\\\\name"), "{j}");
    }

    #[test]
    fn invalid_doc_rejected() {
        let doc = SpecDoc {
            name: "bad".into(),
            alphabet: vec![],
            states: vec!["a".into()],
            initial: 7,
            external: vec![],
            internal: vec![],
        };
        assert!(Spec::try_from(doc).is_err());
    }

    #[test]
    fn edge_event_outside_the_alphabet_is_rejected() {
        let mut doc = SpecDoc::from(&sample());
        doc.external[0].1 = "stray".into();
        assert_eq!(
            Spec::try_from(&doc),
            Err(SpecError::UnknownEvent("stray".into()))
        );
        // Any other error still reads as it did before the check.
        doc.external[0].2 = 9;
        assert_eq!(Spec::try_from(doc), Err(SpecError::InvalidState(9)));
    }
}
