//! The compiled converter artifact: a binary, content-addressed,
//! strictly-validated container for one derived system.
//!
//! `solve --emit compiled --out PATH` writes one; the
//! [`crate::registry`] stores, admits and hot-swaps them; `protoquot
//! fuzz --target artifact` feeds the loader mutated bytes and demands
//! clean [`ArtifactError`]s.
//!
//! ## Layout (all integers big-endian)
//!
//! ```text
//! magic            4  b"PQCA"
//! format version   4  u32, currently 2
//! content hash     8  FNV-1a-64 over every payload byte
//! table hash       8  codec::table_hash of the event table
//! payload:
//!   service          SpecDoc
//!   part count       u32
//!   parts            SpecDocs (fixed components first, converter last)
//!   tables digest    u64 FNV-1a-64 of the guard's table section
//! ```
//!
//! A `SpecDoc` is encoded as: name, alphabet (count + names), states
//! (count + names), initial `u32`, external transitions (count ×
//! `(u32, name, u32)`), internal transitions (count × `(u32, u32)`);
//! strings are a `u32` length plus UTF-8 bytes.
//!
//! The *table section* is the guard DFA the specs compile to, laid out
//! as format 1 stored it: `nsym` and `dfa_initial` (`u32` each),
//! `trans` (`u64` count + `u32`s), `any_fail` (`u64` count + bytes
//! 0|1), `subset_size` (`u64` count + `u32`s), and the initial verdict
//! (a `u8` code — 0 none, 1 not-a-trace, 2 service violation, 3
//! stalled — plus a `u16` event for codes 1 and 2).
//!
//! The specs are the artifact: registry admission re-runs the product
//! check ([`protoquot_spec::CompiledSystem::verify`]) on the system
//! compiled from them before a version may go live, and
//! [`CompiledArtifact::instantiate`] rebuilds the guard from them and
//! refuses the artifact unless the rebuilt tables hash to the stored
//! digest — a compiler that drifted from the one that wrote the
//! artifact, or specs tampered with under a re-stamped content hash,
//! cannot reach a session unnoticed.
//!
//! A format 1 artifact stores the table section itself in place of the
//! digest. It still loads: its digest is the FNV-1a-64 of that stored
//! section, which is never parsed, so a damaged section is refused as
//! an [`ArtifactError::Divergence`] by `instantiate`.

use crate::codec::table_hash;
use crate::guard::{Conviction, GuardProgram};
use protoquot_spec::{EventId, Spec, SpecDoc, SpecError};
use std::fmt;

/// Leading magic of every compiled artifact.
pub const ARTIFACT_MAGIC: [u8; 4] = *b"PQCA";

/// The format version this build writes. It also reads format 1,
/// which stored the guard tables in place of their digest.
pub const ARTIFACT_FORMAT: u32 = 2;

/// The previous format, still read.
const FORMAT_V1: u32 = 1;

/// Sanity cap on any single encoded string (event, state, spec name):
/// far above anything a real spec produces, low enough that a corrupt
/// length prefix cannot demand a gigabyte.
const MAX_STRING: usize = 1 << 20;

/// Why artifact bytes were refused. Every path out of
/// [`CompiledArtifact::decode`] and [`CompiledArtifact::instantiate`]
/// is one of these — hostile bytes must never panic or hang.
#[derive(Clone, Debug, PartialEq)]
pub enum ArtifactError {
    /// The first four bytes are not [`ARTIFACT_MAGIC`].
    BadMagic,
    /// The format version is one this build does not read.
    UnsupportedFormat(u32),
    /// The stored content hash does not match the payload bytes.
    ContentHash {
        /// Hash stamped in the header.
        stored: u64,
        /// Hash of the bytes actually present.
        computed: u64,
    },
    /// Truncated, overlong, or structurally invalid bytes; the message
    /// names the offending field.
    Malformed(String),
    /// The embedded specs do not rebuild into a valid system.
    Spec(SpecError),
    /// The guard rebuilt from the embedded specs disagrees with the
    /// stored tables digest (or the stored table hash): the artifact
    /// was tampered with after compilation, or the compiler drifted.
    Divergence(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::BadMagic => write!(f, "not a compiled artifact (bad magic)"),
            ArtifactError::UnsupportedFormat(v) => write!(
                f,
                "unsupported artifact format {v} (this build reads {FORMAT_V1} and {ARTIFACT_FORMAT})"
            ),
            ArtifactError::ContentHash { stored, computed } => write!(
                f,
                "content hash mismatch: header says {stored:016x}, payload hashes to {computed:016x}"
            ),
            ArtifactError::Malformed(m) => write!(f, "malformed artifact: {m}"),
            ArtifactError::Spec(e) => write!(f, "embedded specs are invalid: {e}"),
            ArtifactError::Divergence(m) => write!(f, "artifact diverges from its specs: {m}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<SpecError> for ArtifactError {
    fn from(e: SpecError) -> ArtifactError {
        ArtifactError::Spec(e)
    }
}

/// One decoded compiled artifact: integrity-checked bytes parsed into
/// specs plus a tables digest, not yet trusted to serve traffic — that
/// takes [`CompiledArtifact::instantiate`] (digest agreement) and, for
/// the registry, the product check on the rebuilt system.
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledArtifact {
    /// FNV-1a-64 of the payload — the artifact's identity in the
    /// registry's on-disk store.
    pub content_hash: u64,
    /// Negotiation fingerprint of the event table
    /// ([`crate::codec::table_hash`]).
    pub table_hash: u64,
    /// The service specification the system was derived against.
    pub service: SpecDoc,
    /// The system parts: fixed components first, converter last.
    pub parts: Vec<SpecDoc>,
    /// FNV-1a-64 of the guard's table section (see the module docs).
    pub tables_digest: u64,
}

/// FNV-1a-64, the artifact's content hash and tables digest.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, x: usize) {
    out.extend_from_slice(&(x as u32).to_be_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// Writes `spec` in `SpecDoc` layout, straight from the spec: each
/// event name is looked up once per alphabet entry, not per edge. The
/// alphabet is written in name order, so the bytes do not depend on the
/// order the process happened to intern the names in.
fn put_spec(out: &mut Vec<u8>, spec: &Spec) {
    put_str(out, spec.name());
    let events: Vec<EventId> = spec.alphabet().iter().collect();
    let names = spec.alphabet().names();
    let mut sorted: Vec<&String> = names.iter().collect();
    sorted.sort();
    put_u32(out, sorted.len());
    for name in sorted {
        put_str(out, name);
    }
    put_u32(out, spec.num_states());
    for s in spec.states() {
        put_str(out, spec.state_name(s));
    }
    put_u32(out, spec.initial().index());
    put_u32(out, spec.num_external());
    for (from, event, to) in spec.external_transitions() {
        put_u32(out, from.index());
        match events.binary_search(&event) {
            Ok(k) => put_str(out, &names[k]),
            Err(_) => put_str(out, &event.name()),
        }
        put_u32(out, to.index());
    }
    put_u32(out, spec.num_internal());
    for (from, to) in spec.internal_transitions() {
        put_u32(out, from.index());
        put_u32(out, to.index());
    }
}

/// Writes `prog`'s determinized tables in the table-section layout.
fn put_tables(out: &mut Vec<u8>, prog: &GuardProgram) {
    let t = prog.dfa_tables();
    put_u32(out, t.nsym);
    out.extend_from_slice(&t.dfa_initial.to_be_bytes());
    out.extend_from_slice(&(t.trans.len() as u64).to_be_bytes());
    for &x in t.trans {
        out.extend_from_slice(&x.to_be_bytes());
    }
    out.extend_from_slice(&(t.any_fail.len() as u64).to_be_bytes());
    out.extend(t.any_fail.iter().map(|&b| u8::from(b)));
    out.extend_from_slice(&(t.subset_size.len() as u64).to_be_bytes());
    for &x in t.subset_size {
        out.extend_from_slice(&x.to_be_bytes());
    }
    match t.initial_verdict {
        None => out.push(0),
        Some(&Conviction::NotATrace { event }) => {
            out.push(1);
            out.extend_from_slice(&event.to_be_bytes());
        }
        Some(&Conviction::ServiceViolation { event }) => {
            out.push(2);
            out.extend_from_slice(&event.to_be_bytes());
        }
        Some(Conviction::Stalled) => out.push(3),
    }
}

/// The tables digest of `prog`: FNV-1a-64 of its table section.
fn tables_digest(prog: &GuardProgram) -> u64 {
    let mut tables = Vec::new();
    put_tables(&mut tables, prog);
    fnv1a(&tables)
}

/// Compiles `parts` (converter included) against `service` and encodes
/// the whole system — specs plus the guard's tables digest — as one
/// artifact.
pub fn encode(parts: &[&Spec], service: &Spec) -> Result<Vec<u8>, ArtifactError> {
    let prog = GuardProgram::new(parts, service)?;
    Ok(encode_with_program(parts, service, &prog))
}

/// Same as [`encode`] for a caller that already built the guard (the
/// CLI's `--emit compiled` builds one for its JSON dump too).
pub fn encode_with_program(parts: &[&Spec], service: &Spec, prog: &GuardProgram) -> Vec<u8> {
    let mut payload = Vec::new();
    put_spec(&mut payload, service);
    put_u32(&mut payload, parts.len());
    for part in parts {
        put_spec(&mut payload, part);
    }
    payload.extend_from_slice(&tables_digest(prog).to_be_bytes());

    let mut out = Vec::with_capacity(24 + payload.len());
    out.extend_from_slice(&ARTIFACT_MAGIC);
    out.extend_from_slice(&ARTIFACT_FORMAT.to_be_bytes());
    out.extend_from_slice(&fnv1a(&payload).to_be_bytes());
    out.extend_from_slice(&table_hash(prog.table()).to_be_bytes());
    out.extend_from_slice(&payload);
    out
}

// ---------------------------------------------------------------------
// Decoding: the strict, fuzzable loader
// ---------------------------------------------------------------------

/// Bounds-checked big-endian reader over the payload.
///
/// Every read names the field it reads with a label (`&str`, or
/// `format_args!` for labels built from a part index) that is
/// formatted only if the read fails: a successful decode formats
/// nothing.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take<W: fmt::Display + ?Sized>(
        &mut self,
        n: usize,
        what: &W,
    ) -> Result<&'a [u8], ArtifactError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| {
                ArtifactError::Malformed(format!(
                    "truncated inside {what}: need {n} bytes at offset {}, have {}",
                    self.at,
                    self.bytes.len() - self.at
                ))
            })?;
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u32<W: fmt::Display + ?Sized>(&mut self, what: &W) -> Result<u32, ArtifactError> {
        Ok(u32::from_be_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64<W: fmt::Display + ?Sized>(&mut self, what: &W) -> Result<u64, ArtifactError> {
        Ok(u64::from_be_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn str<W: fmt::Display + ?Sized>(&mut self, what: &W) -> Result<String, ArtifactError> {
        let len = self.u32(what)? as usize;
        if len > MAX_STRING {
            return Err(ArtifactError::Malformed(format!(
                "{what}: string length {len} exceeds the {MAX_STRING}-byte cap"
            )));
        }
        let bytes = self.take(len, what)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => Err(ArtifactError::Malformed(format!(
                "{what}: string is not UTF-8"
            ))),
        }
    }

    /// A count whose elements occupy at least `min_elem` bytes each:
    /// rejects counts the remaining bytes cannot possibly satisfy, so a
    /// corrupt prefix cannot demand a huge allocation.
    fn count<W: fmt::Display + ?Sized>(
        &mut self,
        min_elem: usize,
        what: &W,
    ) -> Result<usize, ArtifactError> {
        let n = self.u32(what)? as usize;
        let remaining = self.rest().len();
        if n.saturating_mul(min_elem) > remaining {
            return Err(ArtifactError::Malformed(format!(
                "{what}: count {n} cannot fit in {remaining} remaining bytes"
            )));
        }
        Ok(n)
    }

    fn rest(&self) -> &'a [u8] {
        &self.bytes[self.at..]
    }
}

/// Reads one `SpecDoc`; `what` names it (`service`, `part 1`).
fn get_doc<W: fmt::Display + ?Sized>(
    r: &mut Reader<'_>,
    what: &W,
) -> Result<SpecDoc, ArtifactError> {
    let name = r.str(&format_args!("{what}.name"))?;
    let n = r.count(4, &format_args!("{what}.alphabet"))?;
    let mut alphabet = Vec::with_capacity(n);
    for _ in 0..n {
        alphabet.push(r.str(&format_args!("{what}.alphabet entry"))?);
    }
    let n = r.count(4, &format_args!("{what}.states"))?;
    let mut states = Vec::with_capacity(n);
    for _ in 0..n {
        states.push(r.str(&format_args!("{what}.state name"))?);
    }
    let initial = r.u32(&format_args!("{what}.initial"))? as usize;
    let n = r.count(12, &format_args!("{what}.external"))?;
    let mut external = Vec::with_capacity(n);
    for _ in 0..n {
        let from = r.u32(&format_args!("{what}.external.from"))? as usize;
        let event = r.str(&format_args!("{what}.external.event"))?;
        let to = r.u32(&format_args!("{what}.external.to"))? as usize;
        external.push((from, event, to));
    }
    let n = r.count(8, &format_args!("{what}.internal"))?;
    let mut internal = Vec::with_capacity(n);
    for _ in 0..n {
        let from = r.u32(&format_args!("{what}.internal.from"))? as usize;
        let to = r.u32(&format_args!("{what}.internal.to"))? as usize;
        internal.push((from, to));
    }
    Ok(SpecDoc {
        name,
        alphabet,
        states,
        initial,
        external,
        internal,
    })
}

impl CompiledArtifact {
    /// Parses and integrity-checks artifact bytes of either readable
    /// format. Strict: every length is bounds-checked, the content hash
    /// must match the payload, and a format 2 payload must end at its
    /// digest. This is the surface `protoquot fuzz --target artifact`
    /// attacks; it must return [`ArtifactError`] on any hostile input,
    /// never panic.
    ///
    /// A decoded artifact is *parsed*, not *trusted*:
    /// [`CompiledArtifact::instantiate`] rebuilds the guard from the
    /// embedded specs and compares digests, and registry admission runs
    /// the product check on the rebuilt system on top.
    pub fn decode(bytes: &[u8]) -> Result<CompiledArtifact, ArtifactError> {
        if bytes.len() < 24 {
            return Err(ArtifactError::Malformed(format!(
                "{} bytes is shorter than the 24-byte header",
                bytes.len()
            )));
        }
        if bytes[0..4] != ARTIFACT_MAGIC {
            return Err(ArtifactError::BadMagic);
        }
        let format = u32::from_be_bytes(bytes[4..8].try_into().unwrap());
        if format != FORMAT_V1 && format != ARTIFACT_FORMAT {
            return Err(ArtifactError::UnsupportedFormat(format));
        }
        let stored = u64::from_be_bytes(bytes[8..16].try_into().unwrap());
        let table_hash = u64::from_be_bytes(bytes[16..24].try_into().unwrap());
        let payload = &bytes[24..];
        let computed = fnv1a(payload);
        if stored != computed {
            return Err(ArtifactError::ContentHash { stored, computed });
        }

        let mut r = Reader {
            bytes: payload,
            at: 0,
        };
        let service = get_doc(&mut r, "service")?;
        let nparts = r.count(4, "parts")?;
        let mut parts = Vec::with_capacity(nparts);
        for i in 0..nparts {
            parts.push(get_doc(&mut r, &format_args!("part {i}"))?);
        }
        if parts.is_empty() {
            return Err(ArtifactError::Malformed("artifact holds no parts".into()));
        }
        let tables_digest = if format == FORMAT_V1 {
            // The stored table section runs to the end of the payload.
            fnv1a(r.rest())
        } else {
            let digest = r.u64("tables digest")?;
            if !r.rest().is_empty() {
                return Err(ArtifactError::Malformed(format!(
                    "{} trailing bytes after the artifact",
                    r.rest().len()
                )));
            }
            digest
        };
        Ok(CompiledArtifact {
            content_hash: stored,
            table_hash,
            service,
            parts,
            tables_digest,
        })
    }

    /// Rebuilds the runnable system: specs out of the embedded docs, a
    /// fresh [`GuardProgram`] compiled from them, and a proof of
    /// agreement — the rebuilt guard's event-table hash and tables
    /// digest must match the stored ones exactly, else the artifact is
    /// refused with [`ArtifactError::Divergence`].
    ///
    /// Returns `(parts, service, program)`; the program's compiled
    /// system feeds registry admission's product check, the program
    /// feeds the gateway.
    pub fn instantiate(&self) -> Result<(Vec<Spec>, Spec, GuardProgram), ArtifactError> {
        let service = Spec::try_from(&self.service)?;
        let parts = self
            .parts
            .iter()
            .map(Spec::try_from)
            .collect::<Result<Vec<Spec>, SpecError>>()?;
        let refs: Vec<&Spec> = parts.iter().collect();
        let prog = GuardProgram::new(&refs, &service)?;
        let rebuilt_hash = table_hash(prog.table());
        if rebuilt_hash != self.table_hash {
            return Err(ArtifactError::Divergence(format!(
                "event-table hash: stored {:016x}, rebuilt {rebuilt_hash:016x}",
                self.table_hash
            )));
        }
        let rebuilt_digest = tables_digest(&prog);
        if rebuilt_digest != self.tables_digest {
            return Err(ArtifactError::Divergence(format!(
                "guard tables digest: stored {:016x}, rebuilt {rebuilt_digest:016x}",
                self.tables_digest
            )));
        }
        Ok((parts, service, prog))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::COLOCATED_V1;
    use protoquot_core::solve;
    use protoquot_protocols::{colocated_configuration, exactly_once};

    fn artifact_bytes() -> Vec<u8> {
        let system = colocated_configuration();
        let service = exactly_once();
        let q = solve(&system.b, &service, &system.int).expect("converter derives");
        encode(&[&system.b, &q.converter], &service).expect("system compiles")
    }

    /// Re-stamps the content hash over the (edited) payload.
    fn restamp(mut b: Vec<u8>) -> Vec<u8> {
        let hash = fnv1a(&b[24..]);
        b[8..16].copy_from_slice(&hash.to_be_bytes());
        b
    }

    /// emit → load → the same digest and event table, and a re-encode
    /// byte-identical to the artifact.
    #[test]
    fn roundtrip_is_byte_identical() {
        let bytes = artifact_bytes();
        assert_eq!(bytes[4..8], ARTIFACT_FORMAT.to_be_bytes());
        let art = CompiledArtifact::decode(&bytes).expect("decodes");
        let (parts, service, prog) = art.instantiate().expect("instantiates");
        assert_eq!(tables_digest(&prog), art.tables_digest);
        assert_eq!(table_hash(prog.table()), art.table_hash);
        // Re-encoding the instantiated system reproduces the artifact
        // byte for byte: content addressing is deterministic.
        let refs: Vec<&Spec> = parts.iter().collect();
        let again = encode(&refs, &service).expect("recompiles");
        assert_eq!(again, bytes, "re-encode must be byte-identical");
        assert_eq!(
            CompiledArtifact::decode(&again).unwrap().content_hash,
            art.content_hash
        );
    }

    /// A format 1 artifact (the colocated system as format 1 wrote it)
    /// decodes and instantiates, and its digest — of the stored table
    /// section — is the digest a format 2 encode of the same system
    /// stores. The two spec sections agree once each alphabet is read in
    /// name order.
    #[test]
    fn format_1_fixture_loads_with_the_format_2_digest() {
        assert_eq!(COLOCATED_V1[4..8], FORMAT_V1.to_be_bytes());
        let v1 = CompiledArtifact::decode(COLOCATED_V1).expect("the v1 fixture decodes");
        assert_eq!(v1.content_hash, 0xfaf8_7c19_818a_d985);
        let (parts, service, prog) = v1.instantiate().expect("the v1 fixture instantiates");
        let refs: Vec<&Spec> = parts.iter().collect();
        let bytes = encode_with_program(&refs, &service, &prog);
        assert_eq!(
            bytes,
            artifact_bytes(),
            "the fixture holds the derived system"
        );
        let v2 = CompiledArtifact::decode(&bytes).unwrap();
        assert_eq!(v2.tables_digest, v1.tables_digest);
        assert_eq!(v2.table_hash, v1.table_hash);
        // The fixture wrote each alphabet in the order its process had
        // interned the names; this encoder writes name order. Otherwise
        // the spec sections agree.
        let by_name = |mut d: SpecDoc| {
            d.alphabet.sort();
            d
        };
        assert_eq!(v2.service, by_name(v1.service.clone()));
        assert_eq!(v2.parts.len(), v1.parts.len());
        for (p2, p1) in v2.parts.iter().zip(&v1.parts) {
            assert_eq!(*p2, by_name(p1.clone()));
        }
        let specs_end = bytes.len() - 8;
        let mut section = Vec::new();
        put_tables(&mut section, &prog);
        assert_eq!(COLOCATED_V1[specs_end..], section[..]);
    }

    /// Alphabets are written in name order, whatever order the names
    /// were interned in: two fresh names interned in reverse name order
    /// still come out sorted.
    #[test]
    fn alphabets_are_written_in_name_order() {
        let second = EventId::new("zq_put_spec_second");
        let first = EventId::new("zq_put_spec_first");
        assert!(second < first, "interning order must oppose name order");
        let doc = SpecDoc {
            name: "P".into(),
            alphabet: vec!["zq_put_spec_second".into(), "zq_put_spec_first".into()],
            states: vec!["s".into()],
            initial: 0,
            external: vec![
                (0, "zq_put_spec_second".into(), 0),
                (0, "zq_put_spec_first".into(), 0),
            ],
            internal: vec![],
        };
        let mut out = Vec::new();
        put_spec(&mut out, &Spec::try_from(&doc).unwrap());
        let mut r = Reader { bytes: &out, at: 0 };
        let back = get_doc(&mut r, "spec").unwrap();
        assert_eq!(back.alphabet, ["zq_put_spec_first", "zq_put_spec_second"]);
    }

    /// A damaged format 1 table section is never parsed: it decodes,
    /// and `instantiate` refuses it because its digest diverges.
    #[test]
    fn restamped_v1_table_damage_is_a_divergence() {
        let mut b = COLOCATED_V1.to_vec();
        let at = b.len() - 10;
        b[at] ^= 0x01;
        let art = CompiledArtifact::decode(&restamp(b)).expect("a re-stamped flip decodes");
        assert!(matches!(
            art.instantiate(),
            Err(ArtifactError::Divergence(m)) if m.starts_with("guard tables digest")
        ));
    }

    /// A format 2 digest flipped under a re-stamped content hash is
    /// refused at `instantiate`.
    #[test]
    fn restamped_digest_damage_is_a_divergence() {
        let mut b = artifact_bytes();
        *b.last_mut().unwrap() ^= 0x80;
        let art = CompiledArtifact::decode(&restamp(b)).expect("a re-stamped flip decodes");
        assert!(matches!(
            art.instantiate(),
            Err(ArtifactError::Divergence(m)) if m.starts_with("guard tables digest")
        ));
    }

    #[test]
    fn header_damage_is_refused_cleanly() {
        let bytes = artifact_bytes();
        // Magic.
        let mut b = bytes.clone();
        b[0] ^= 0xFF;
        assert_eq!(CompiledArtifact::decode(&b), Err(ArtifactError::BadMagic));
        // Format version: the one after the current is refused, and
        // the refusal names both readable formats.
        let mut b = bytes.clone();
        b[7] = 3;
        let err = CompiledArtifact::decode(&b).unwrap_err();
        assert_eq!(err, ArtifactError::UnsupportedFormat(3));
        assert_eq!(
            err.to_string(),
            "unsupported artifact format 3 (this build reads 1 and 2)"
        );
        // Content hash.
        let mut b = bytes.clone();
        b[15] ^= 0x01;
        assert!(matches!(
            CompiledArtifact::decode(&b),
            Err(ArtifactError::ContentHash { .. })
        ));
        // Short header.
        assert!(matches!(
            CompiledArtifact::decode(&bytes[..20]),
            Err(ArtifactError::Malformed(_))
        ));
    }

    /// Every truncation of a valid artifact, of either format, decodes
    /// to a clean error — the loader never panics on torn files.
    #[test]
    fn every_truncation_errors_cleanly() {
        for bytes in [artifact_bytes(), COLOCATED_V1.to_vec()] {
            for cut in 0..bytes.len() {
                assert!(
                    CompiledArtifact::decode(&bytes[..cut]).is_err(),
                    "truncation to {cut} bytes must not decode"
                );
            }
            // Trailing garbage is refused by the content hash.
            let mut b = bytes.clone();
            b.push(0);
            assert!(CompiledArtifact::decode(&b).is_err());
        }
        // Re-stamped, a format 2 payload must still end at its digest.
        let mut b = artifact_bytes();
        b.push(0);
        assert_eq!(
            CompiledArtifact::decode(&restamp(b)),
            Err(ArtifactError::Malformed(
                "1 trailing bytes after the artifact".into()
            ))
        );
    }

    /// Cuts the payload to `len` bytes and re-stamps the content hash,
    /// so the decoder gets past the integrity check to the field.
    fn restamped_cut(bytes: &[u8], len: usize) -> Vec<u8> {
        restamp(bytes[..24 + len].to_vec())
    }

    fn str_len(s: &str) -> usize {
        4 + s.len()
    }

    /// Payload bytes of `d` up to its external transitions' count.
    fn doc_head_len(d: &SpecDoc) -> usize {
        str_len(&d.name)
            + 4
            + d.alphabet.iter().map(|s| str_len(s)).sum::<usize>()
            + 4
            + d.states.iter().map(|s| str_len(s)).sum::<usize>()
            + 4
    }

    /// Payload bytes of `d`, walked from the documented layout.
    fn doc_len(d: &SpecDoc) -> usize {
        doc_head_len(d)
            + 4
            + d.external
                .iter()
                .map(|(_, e, _)| 8 + str_len(e))
                .sum::<usize>()
            + 4
            + 8 * d.internal.len()
    }

    /// A truncation inside a part's external edge names the field
    /// exactly as `fuzz --target artifact` and operators see it.
    #[test]
    fn truncation_inside_an_external_edge_names_the_field() {
        let bytes = artifact_bytes();
        let art = CompiledArtifact::decode(&bytes).expect("decodes");
        // Payload offset of part 1's last external event (a cut in an
        // earlier edge would fail the edge count's size check first).
        let conv = &art.parts[1];
        let (_, event, _) = conv.external.last().expect("the converter has edges");
        let event_at = doc_len(&art.service)
            + 4
            + doc_len(&art.parts[0])
            + doc_head_len(conv)
            + 4
            + conv
                .external
                .iter()
                .rev()
                .skip(1)
                .map(|(_, e, _)| 8 + str_len(e))
                .sum::<usize>()
            + 4;
        assert!(event.len() > 1, "the cut must fall inside the name");
        let err = CompiledArtifact::decode(&restamped_cut(&bytes, event_at + 4 + 1))
            .expect_err("a cut event name is refused");
        let text = format!(
            "truncated inside part 1.external.event: need {} bytes at offset {}, have 1",
            event.len(),
            event_at + 4
        );
        assert_eq!(err, ArtifactError::Malformed(text.clone()));
        assert_eq!(err.to_string(), format!("malformed artifact: {text}"));
        // A cut inside the edge's length prefix names the same field.
        let err = CompiledArtifact::decode(&restamped_cut(&bytes, event_at + 2))
            .expect_err("a cut length prefix is refused");
        assert_eq!(
            err,
            ArtifactError::Malformed(format!(
                "truncated inside part 1.external.event: need 4 bytes at offset {event_at}, have 2"
            ))
        );
    }

    /// An embedded edge whose event is missing from its spec's alphabet
    /// is refused as an invalid spec, not left for the guard compile to
    /// trip over.
    #[test]
    fn restamped_edge_event_outside_the_alphabet_is_a_spec_error() {
        let bytes = artifact_bytes();
        let art = CompiledArtifact::decode(&bytes).expect("decodes");
        let event = &art.service.external[0].1;
        let first_byte = 24 + doc_head_len(&art.service) + 4 + 4 + 4;
        let mut b = bytes.clone();
        b[first_byte] = b'!';
        let stray = format!("!{}", &event[1..]);
        let art = CompiledArtifact::decode(&restamp(b)).expect("a re-stamped flip decodes");
        assert_eq!(art.service.external[0].1, stray);
        assert_eq!(
            art.instantiate().err(),
            Some(ArtifactError::Spec(SpecError::UnknownEvent(stray)))
        );
    }
}
