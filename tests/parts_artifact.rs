//! A system shipped as its parts is the system shipped with `B` composed.
//!
//! `solve FILE --emit compiled` builds its guard and artifact from the
//! fixed parts as written plus the converter, `[parts…, C]`. A builtin
//! ships `[B, C]`, with `B` composed. On the two solvable
//! `specs/paper.pq` problems, the two shapes must be the same system:
//!
//! 1. the literal composite of `[parts…, C]` is `compose(B, C)`, state
//!    for state;
//! 2. every `redirect_transition` mutant of the derived converter gets
//!    the same verdict and the same witness from either shape;
//! 3. guards built from the two shapes accept every sampled trace of
//!    the other and convict the same planted events;
//! 4. the registry admits the parts artifact, which is smaller, as well
//!    as a `[B, C]` artifact and the format 1 fixture.

use protoquot_core::solve;
use protoquot_protocols::exactly_once;
use protoquot_runtime::{
    artifact, CompiledArtifact, ConverterRegistry, GuardProgram, SessionGuard,
};
use protoquot_sim::redirect_transition;
use protoquot_spec::{compose, compose_all, verify_system, Alphabet, Spec};
use std::path::PathBuf;
use std::sync::Arc;

/// A solvable `specs/paper.pq` problem: its fixed parts, service, the
/// composed `B` and the converter `solve` derives against it.
struct Derived {
    parts: Vec<Spec>,
    service: Spec,
    b: Spec,
    c: Spec,
}

impl Derived {
    fn new(problem: &str) -> Derived {
        let source =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/specs/paper.pq"))
                .expect("specs/paper.pq ships with the repo");
        let file = protoquot_speclang::parse_source(&source).expect("specs/paper.pq parses");
        let decl = file
            .problem(problem)
            .expect("the paper problem is declared");
        let spec = |name: &str| file.spec(name).expect("the spec is declared").clone();
        let parts: Vec<Spec> = decl.components.iter().map(|n| spec(n)).collect();
        let service = spec(&decl.service);
        let int: Alphabet = decl.internal.iter().map(String::as_str).collect();
        let b = compose_all(&parts.iter().collect::<Vec<_>>()).expect("the parts compose");
        let c = solve(&b, &service, &int)
            .expect("the problem is solvable")
            .converter;
        Derived {
            parts,
            service,
            b,
            c,
        }
    }

    /// `[parts…, c]`: the shape a FILE-derived artifact ships.
    fn with_parts<'a>(&'a self, c: &'a Spec) -> Vec<&'a Spec> {
        self.parts.iter().chain([c]).collect()
    }
}

const PROBLEMS: [&str; 2] = ["fig13", "fig9_weakened"];

#[test]
fn the_parts_composite_is_the_composed_b_composite() {
    for name in PROBLEMS {
        let d = Derived::new(name);
        let literal = compose_all(&d.with_parts(&d.c)).expect("the system composes");
        assert_eq!(literal, compose(&d.b, &d.c), "{name}");
    }
}

#[test]
fn every_mutant_gets_the_same_verdict_from_either_shape() {
    let mut tally = (0, 0);
    for name in PROBLEMS {
        let d = Derived::new(name);
        let mutants = (0..).map_while(|k| redirect_transition(&d.c, k));
        for (k, m) in std::iter::once(d.c.clone()).chain(mutants).enumerate() {
            let parts = verify_system(&d.with_parts(&m), &d.service).expect("parts compile");
            let composed = verify_system(&[&d.b, &m], &d.service).expect("[B, C] compiles");
            assert_eq!(
                format!("{:?}", parts.verdict),
                format!("{:?}", composed.verdict),
                "{name}/mut{k}"
            );
            match parts.verdict {
                Ok(()) => tally.0 += 1,
                Err(_) => tally.1 += 1,
            }
        }
    }
    assert_eq!(tally, (457, 245), "(accepted, rejected) converters");
}

/// What a session of `prog` that accepted `prefix` answers to
/// `planted`, and to a stall.
fn verdicts(prog: &Arc<GuardProgram>, prefix: &[u16], planted: u16) -> [String; 2] {
    let session = || {
        let mut g = SessionGuard::new(prog.clone());
        for &e in prefix {
            g.observe(e).expect("a sampled trace is accepted");
        }
        g
    };
    [
        format!("{:?}", session().observe(planted)),
        format!("{:?}", session().attest_stall()),
    ]
}

#[test]
fn guards_from_either_shape_accept_and_convict_alike() {
    for name in PROBLEMS {
        let d = Derived::new(name);
        let parts = Arc::new(GuardProgram::new(&d.with_parts(&d.c), &d.service).unwrap());
        let composed = Arc::new(GuardProgram::new(&[&d.b, &d.c], &d.service).unwrap());
        assert_eq!(parts.table().events, composed.table().events, "{name}");
        let nsym = parts.table().len() as u16;
        let mut convicted = 0;
        for sample in [parts.sample_accepted(48), composed.sample_accepted(48)] {
            assert_eq!(sample.len(), 48, "{name}: the sample is never stuck");
            for cut in 0..=sample.len() {
                for planted in 0..nsym {
                    let answers = verdicts(&parts, &sample[..cut], planted);
                    assert_eq!(
                        answers,
                        verdicts(&composed, &sample[..cut], planted),
                        "{name}: event {planted} after {cut} sampled events"
                    );
                    convicted += answers[0].starts_with("Err") as usize;
                }
            }
        }
        assert!(convicted > 0, "{name}: no planted event convicts");
    }
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("protoquot-parts-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn the_registry_admits_both_shapes_and_the_format_1_fixture() {
    for name in PROBLEMS {
        let d = Derived::new(name);
        let parts_bytes = artifact::encode(&d.with_parts(&d.c), &d.service).unwrap();
        let composed_bytes = artifact::encode(&[&d.b, &d.c], &d.service).unwrap();
        let decoded = CompiledArtifact::decode(&parts_bytes).expect("the parts artifact decodes");
        assert_eq!(decoded.parts.len(), d.parts.len() + 1, "{name}");
        assert!(
            parts_bytes.len() < composed_bytes.len(),
            "{name}: {} parts bytes vs {} composed",
            parts_bytes.len(),
            composed_bytes.len()
        );
        let dir = tempdir(name);
        let mut reg = ConverterRegistry::open(&dir, &d.service, 1).unwrap();
        assert_eq!(reg.admit(&parts_bytes).expect("the parts admit").version, 2);
        assert_eq!(
            reg.admit(&composed_bytes).expect("[B, C] admits").version,
            3
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    // The colocated system as artifact format 1 wrote it, `[B, C]`.
    let v1 = include_bytes!("../crates/runtime/testdata/colocated-v1.pqca");
    let dir = tempdir("format-1");
    let mut reg = ConverterRegistry::open(&dir, &exactly_once(), 1).unwrap();
    reg.admit(v1).expect("the format 1 fixture admits");
    let _ = std::fs::remove_dir_all(&dir);
}
