//! Pins the [`EventTable`] index assignment across every consumer.
//!
//! The table is the single interning point shared by the verify
//! engine's compiled CSR automata, the simulation engine's owner
//! ordering, and the runtime's wire codec. Its contract: indices are
//! assigned by ascending event *name*, never by interner id, so two
//! processes (a gateway and a remote load generator, say) built from
//! the same specification agree on the wire encoding of every event.
//! These tests fail if any consumer drifts off that assignment.

use protoquot_core::solve;
use protoquot_protocols::{colocated_configuration, exactly_once};
use protoquot_runtime::{Frame, WireCodec};
use protoquot_sim::{Action, ExternalPolicy, Runner, System};
use protoquot_spec::{Alphabet, CompiledSystem, EventTable, Spec};

/// Indices depend only on names: the same name set yields the same
/// table regardless of the order events were inserted (and hence of
/// interner history).
#[test]
fn indices_are_name_sorted_and_insertion_order_free() {
    let forward = Alphabet::from_names(["send", "ack", "deliver", "nak"]);
    let backward = Alphabet::from_names(["nak", "deliver", "ack", "send"]);
    let a = EventTable::new(&forward);
    let b = EventTable::new(&backward);

    let names: Vec<String> = a.events.iter().map(|e| e.name()).collect();
    assert_eq!(names, ["ack", "deliver", "nak", "send"]);
    assert_eq!(a.events, b.events, "insertion order leaked into the table");
    for (i, &e) in a.events.iter().enumerate() {
        assert_eq!(a.idx(e), i as u32);
        assert_eq!(b.idx(e), i as u32);
        assert_eq!(a.event(i as u32), Some(e));
    }
}

/// Bitset rows round-trip through the pinned indices.
#[test]
fn alphabet_bitsets_round_trip() {
    let tbl = EventTable::new(&Alphabet::from_names(["send", "ack", "deliver"]));
    let subset = Alphabet::from_names(["deliver", "send"]);
    let bits = tbl.alphabet_bits(&subset);
    assert_eq!(tbl.to_alphabet(&bits), subset);
    assert_eq!(tbl.alphabet_bits(&tbl.to_alphabet(&bits)), bits);
}

fn derived_system() -> (Spec, Spec, Spec) {
    let cfg = colocated_configuration();
    let service = exactly_once();
    let q = solve(&cfg.b, &service, &cfg.int).expect("builtin configuration must solve");
    (cfg.b, q.converter, service)
}

/// The wire codec and the compiled verify engine assign the same index
/// to every service event: a frame index produced by the codec is
/// exactly the `ext_ev` index the compiled `B ‖ C` product steps on.
#[test]
fn codec_and_verify_engine_share_the_mapping() {
    let (b, converter, service) = derived_system();
    let tbl = EventTable::new(service.alphabet());
    let codec = WireCodec::new(service.alphabet()).expect("service alphabet fits the wire");

    for (i, &e) in tbl.events.iter().enumerate() {
        let frame = codec
            .event_frame(7, e)
            .expect("every service event is encodable");
        match frame {
            Frame::Event { session, event } => {
                assert_eq!(session, 7);
                assert_eq!(event, i as u16, "codec index for {} drifted", e.name());
            }
            other => panic!("expected an event frame, got {other:?}"),
        }
        assert_eq!(codec.event_of(i as u16), Some(e));
    }

    let system = CompiledSystem::new(&[&b, &converter], &service).expect("compilable system");
    assert_eq!(
        system.table().events,
        tbl.events,
        "the compiled system's event table drifted from the codec's"
    );
    for &ev in &system.composite().ext_ev {
        let e = tbl
            .event(ev)
            .unwrap_or_else(|| panic!("compiled edge carries out-of-table index {ev}"));
        assert!(
            service.alphabet().contains(e),
            "compiled external edge {} is not a service event",
            e.name()
        );
    }
}

/// The simulation engine enumerates enabled events in table order, so
/// identical seeds produce identical schedules in every process.
#[test]
fn sim_engine_enumerates_events_in_table_order() {
    let (b, converter, _service) = derived_system();
    let system = System::new(vec![b, converter], ExternalPolicy::AlwaysEnabled);
    let runner = Runner::new(system, 0);
    let names: Vec<String> = runner
        .enabled_actions()
        .into_iter()
        .filter_map(|a| match a {
            Action::Event { event, .. } => Some(event.name()),
            _ => None,
        })
        .collect();
    assert!(!names.is_empty(), "initial state enables no events");
    let mut sorted = names.clone();
    sorted.sort();
    assert_eq!(names, sorted, "sim enumeration is not in table order");
}
