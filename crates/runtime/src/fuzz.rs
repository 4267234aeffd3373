//! Deterministic fuzz engine for the runtime's adversarial surfaces.
//!
//! A vendored, dependency-free harness in the spirit of a proptest
//! shim: a seeded SplitMix64 corpus (the vendored [`rand`] generator),
//! byte-level and structure-aware frame mutators, crash and hang
//! detection, and ddmin input shrinking with `protoquot_sim`'s
//! [`ddmin`], the loop that also minimizes soak schedules. Five targets
//! cover the paths hostile bytes can reach:
//!
//! * **codec** — [`FrameBuffer`]/[`ReplyBuffer`] incremental decode on
//!   arbitrary bytes, differentially against whole-buffer decode and
//!   the blocking [`read_frame`]/[`read_reply`] readers, at every
//!   split point (the fuzzer feeds the same bytes one at a time);
//!   decoded values must survive an encode→decode round trip.
//! * **guard** — [`SessionGuard`] (the compiled DFA) against
//!   [`SessionGuardReference`] (the subset-replaying interpreter) on
//!   arbitrary `u16` event-index streams, including indices far
//!   outside the event table; every step's verdict must agree.
//! * **gateway** — the dispatch path under arbitrary frame programs
//!   (events, stalls, closes, session reuse after close, tiny frame
//!   budgets): every frame must produce exactly one reply carrying the
//!   frame's session id, without panicking or wedging the gateway.
//! * **batch** — [`Gateway::call_batch`] at an input-derived batch
//!   width differentially against one-frame calls on a second,
//!   identically configured gateway: the same frame program (hellos
//!   with matching and mismatched hashes included) must produce the
//!   same reply stream in the same order, a well-formed inline reply
//!   stream, and the same resident-session and sessions-opened counts
//!   at every split.
//! * **artifact** — the [`CompiledArtifact`] loader on mutated,
//!   truncated, and bit-flipped copies of a valid compiled artifact,
//!   in the current format or format 1: every mutation must decode to
//!   a clean [`ArtifactError`] or a verified artifact — never a panic
//!   or a hang — and the unmutated bytes must keep decoding and
//!   instantiating.
//!
//! Every case is keyed by `(seed, target, case-index)` alone, so a
//! finding's reproduction needs nothing but the seed printed in the
//! report. Case bodies run on a harness thread and are declared hung
//! when they overrun [`FuzzConfig::hang_timeout`]; panics are caught
//! with `catch_unwind` and the offending input is shrunk before
//! reporting. [`FuzzReport::to_json`] is deterministic — timing never
//! enters it — so CI can pin the clean report byte for byte.

use crate::artifact::{encode_with_program, fnv1a, ArtifactError, CompiledArtifact};
use crate::codec::{
    decode_frame, decode_reply, encode_frame, encode_reply, read_frame, read_reply, Frame,
    FrameBuffer, RejectReason, Reply, ReplyBuffer,
};
use crate::gateway::{BatchScratch, Gateway, GatewayConfig, GatewayError};
use crate::guard::{GuardProgram, SessionGuard, SessionGuardReference};
use crate::transport::{Conn, LoopbackConn};
use protoquot_sim::ddmin;
use protoquot_spec::Spec;
use rand::prelude::*;
use serde::Value;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Budget and reproduction parameters of one fuzz campaign.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Campaign seed; case `i` of target `t` derives its generator
    /// from `(seed, t, i)` and nothing else.
    pub seed: u64,
    /// Cases to run per target.
    pub iters: u64,
    /// Longest input (in bytes) the generators produce.
    pub max_len: usize,
    /// How long one case may run before it is declared hung.
    pub hang_timeout: Duration,
    /// Whether to ddmin-shrink failing inputs before reporting.
    pub shrink: bool,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            seed: 0xF0CC_5EED,
            iters: 2_000,
            max_len: 256,
            // Two orders of magnitude above any honest case; a case
            // that needs this long has wedged a worker.
            hang_timeout: Duration::from_secs(5),
            shrink: true,
        }
    }
}

named_enum! {
    /// One fuzzable surface.
    pub enum FuzzTarget {
        /// Incremental wire decoding ([`FrameBuffer`], [`ReplyBuffer`],
        /// [`read_frame`], [`read_reply`]).
        Codec = 0 => "codec",
        /// The online guard DFA against its reference interpreter.
        Guard = 1 => "guard",
        /// The gateway dispatch path under arbitrary frame programs.
        Gateway = 2 => "gateway",
        /// Batched dispatch ([`Gateway::call_batch`]) differentially
        /// against per-frame dispatch on arbitrary frame splits.
        Batch = 3 => "batch",
        /// The compiled-artifact loader ([`CompiledArtifact::decode`]) on
        /// mutated copies of a valid artifact.
        Artifact = 4 => "artifact",
    }
}

impl FuzzTarget {
    /// Parses a CLI target name (`all` is handled by the caller).
    pub fn parse(s: &str) -> Option<FuzzTarget> {
        FuzzTarget::ALL.into_iter().find(|t| t.name() == s)
    }
}

/// How a fuzz case failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FindingKind {
    /// The case panicked; the payload message is attached.
    Panic(String),
    /// The case overran [`FuzzConfig::hang_timeout`].
    Hang,
    /// An oracle property failed (differential mismatch, lost reply,
    /// round-trip corruption); the detail says which.
    Divergence(String),
}

impl FindingKind {
    fn name(&self) -> &'static str {
        match self {
            FindingKind::Panic(_) => "panic",
            FindingKind::Hang => "hang",
            FindingKind::Divergence(_) => "divergence",
        }
    }

    fn detail(&self) -> &str {
        match self {
            FindingKind::Panic(m) | FindingKind::Divergence(m) => m,
            FindingKind::Hang => "case exceeded the hang timeout",
        }
    }
}

/// One failing case, with its (shrunk) reproducing input.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Which target failed.
    pub target: FuzzTarget,
    /// Case index within the target (reproducible from the seed).
    pub case: u64,
    /// Failure class and detail.
    pub kind: FindingKind,
    /// The input bytes, ddmin-shrunk when shrinking is enabled and the
    /// failure is re-executable (hangs are reported unshrunk).
    pub input: Vec<u8>,
}

impl Finding {
    /// The finding as a JSON value tree.
    pub fn to_value(&self) -> Value {
        let mut o = BTreeMap::new();
        o.insert("target".into(), Value::Str(self.target.name().to_string()));
        o.insert("case".into(), Value::Int(self.case as i128));
        o.insert("kind".into(), Value::Str(self.kind.name().to_string()));
        o.insert("detail".into(), Value::Str(self.kind.detail().to_string()));
        o.insert("input_hex".into(), Value::Str(hex(&self.input)));
        Value::Obj(o)
    }
}

/// Aggregated result of one fuzz campaign.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// Campaign seed (sufficient to reproduce every case).
    pub seed: u64,
    /// Cases executed per target, in [`FuzzTarget::ALL`] order.
    pub executed: Vec<(FuzzTarget, u64)>,
    /// Every failing case, in execution order.
    pub findings: Vec<Finding>,
}

impl FuzzReport {
    /// No panics, hangs, or divergences.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The report as a JSON value tree. Deterministic for a given
    /// config: timing never enters it.
    pub fn to_value(&self) -> Value {
        let mut o = BTreeMap::new();
        o.insert("seed".into(), Value::Int(self.seed as i128));
        let mut ex = BTreeMap::new();
        for (t, n) in &self.executed {
            ex.insert(t.name().to_string(), Value::Int(*n as i128));
        }
        o.insert("executed".into(), Value::Obj(ex));
        o.insert(
            "findings".into(),
            Value::Arr(self.findings.iter().map(Finding::to_value).collect()),
        );
        Value::Obj(o)
    }

    /// The report as a compact JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.to_value()).expect("report serialization cannot fail")
    }
}

impl std::fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seed {:#x} |", self.seed)?;
        for (t, n) in &self.executed {
            write!(f, " {} {}", t.name(), n)?;
        }
        write!(f, " | findings {}", self.findings.len())?;
        for finding in &self.findings {
            write!(
                f,
                "\n  {} case {} [{}] {} (input {} bytes: {})",
                finding.target.name(),
                finding.case,
                finding.kind.name(),
                finding.kind.detail(),
                finding.input.len(),
                hex(&finding.input),
            )?;
        }
        Ok(())
    }
}

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Runs `cfg.iters` cases of every target in `targets` against the
/// system `parts` (converter included) serving `service`.
///
/// The guard and gateway targets need a compiled system; an
/// uncompilable one is a configuration error, not a finding.
pub fn fuzz(
    parts: &[&Spec],
    service: &Spec,
    targets: &[FuzzTarget],
    cfg: &FuzzConfig,
) -> Result<FuzzReport, GatewayError> {
    let prog = Arc::new(GuardProgram::new(parts, service).map_err(GatewayError::Spec)?);
    let fuzz_gateway_cfg = GatewayConfig {
        // A tiny budget so the fuzzer exercises the expulsion path
        // on ordinary inputs, not only on 1000-frame outliers.
        session_frame_budget: 24,
        ..GatewayConfig::default()
    };
    let gateway = Gateway::new(parts, service, fuzz_gateway_cfg.clone())?;
    // The batch target's pair: a batched gateway and its per-frame
    // oracle, with identical configuration and stats of their own, so
    // their session counts stay comparable case by case.
    let batched = Gateway::new(parts, service, fuzz_gateway_cfg.clone())?;
    let oracle = Gateway::new(parts, service, fuzz_gateway_cfg)?;
    // The artifact target mutates copies of this known-good encoding
    // (or of the format 1 fixture).
    let artifact_base: Arc<Vec<u8>> = Arc::new(encode_with_program(parts, service, &prog));
    let mut harness = Harness::spawn();
    let mut report = FuzzReport {
        seed: cfg.seed,
        executed: Vec::new(),
        findings: Vec::new(),
    };
    for &target in targets {
        let mut executed = 0u64;
        let body = case_body(target, &prog, &gateway, (&batched, &oracle), &artifact_base);
        for case in 0..cfg.iters {
            let input = gen_input(cfg, target, case);
            let verdict = harness.run(&input, &body, cfg.hang_timeout);
            executed += 1;
            if let Some(kind) = verdict {
                let input = match (&kind, cfg.shrink) {
                    // A hang cannot be probed cheaply; report as-is.
                    (FindingKind::Hang, _) | (_, false) => input,
                    (_, true) => shrink_input(&input, &kind, &*body),
                };
                report.findings.push(Finding {
                    target,
                    case,
                    kind,
                    input,
                });
            }
        }
        report.executed.push((target, executed));
    }
    Ok(report)
}

/// A case body: deterministic, returns `None` on pass and a
/// divergence detail on oracle failure; panics are the harness's
/// problem.
type CaseBody = Arc<dyn Fn(&[u8]) -> Option<String> + Send + Sync>;

fn case_body(
    target: FuzzTarget,
    prog: &Arc<GuardProgram>,
    gateway: &Gateway,
    (batched, oracle): (&Gateway, &Gateway),
    artifact_base: &Arc<Vec<u8>>,
) -> CaseBody {
    match target {
        FuzzTarget::Codec => Arc::new(codec_case),
        FuzzTarget::Guard => {
            let prog = Arc::clone(prog);
            Arc::new(move |input| guard_case(&prog, input))
        }
        FuzzTarget::Gateway => {
            let gateway = gateway.clone();
            // Every run of a case is a fresh connection with its own
            // session table, so cases cannot observe each other.
            Arc::new(move |input| gateway_case(&gateway, input))
        }
        FuzzTarget::Batch => {
            let batched = batched.clone();
            let oracle = oracle.clone();
            Arc::new(move |input| batch_case(&batched, &oracle, input))
        }
        FuzzTarget::Artifact => {
            let base = Arc::clone(artifact_base);
            Arc::new(move |input| artifact_case(&base, input))
        }
    }
}

// ---------------------------------------------------------------------
// Input generation: seeded corpus + mutators
// ---------------------------------------------------------------------

/// SplitMix-style mix of the campaign seed, target, and case index.
fn case_seed(seed: u64, target: FuzzTarget, case: u64) -> u64 {
    let t = match target {
        FuzzTarget::Codec => 0x1u64,
        FuzzTarget::Guard => 0x2,
        FuzzTarget::Gateway => 0x3,
        FuzzTarget::Batch => 0x4,
        FuzzTarget::Artifact => 0x5,
    };
    seed ^ t.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ case.wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

/// Generates the input bytes of one case: either raw random bytes or a
/// structure-aware wire stream (valid frame/reply encodings) run
/// through a few byte-level mutations.
fn gen_input(cfg: &FuzzConfig, target: FuzzTarget, case: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(case_seed(cfg.seed, target, case));
    let max_len = cfg.max_len.max(1);
    // An artifact input is a mutation program, never a wire stream.
    if target == FuzzTarget::Artifact || rng.gen_bool(0.4) {
        // Byte-level: pure noise at a random length.
        let len = rng.gen_range(0..max_len + 1);
        return (0..len).map(|_| rng.gen_range(0u16..256) as u8).collect();
    }
    // Structure-aware: a valid wire stream, then mutations.
    let mut bytes = Vec::new();
    let msgs = rng.gen_range(1usize..9);
    for _ in 0..msgs {
        let session = rng.gen_range(0u64..4);
        if rng.gen_bool(0.75) {
            let frame = match rng.gen_range(0u8..5) {
                0 | 1 => Frame::Event {
                    session,
                    event: rng.gen_range(0u16..512),
                },
                2 => Frame::Stall { session },
                3 => Frame::Hello {
                    session,
                    table_hash: rng.next_u64(),
                    version: rng.gen_range(0u32..4),
                },
                _ => Frame::Close { session },
            };
            encode_frame(&frame, &mut bytes);
        } else {
            let reply = match rng.gen_range(0u8..3) {
                0 => Reply::Accepted { session },
                1 => Reply::HelloAck {
                    session,
                    table_hash: rng.next_u64(),
                    version: rng.gen_range(0u32..4),
                },
                _ => Reply::Rejected {
                    session,
                    reason: RejectReason::from_code(rng.gen_range(1u16..11) as u8)
                        .expect("codes 1..=10 are all assigned"),
                },
            };
            encode_reply(&reply, &mut bytes);
        }
    }
    let mutations = rng.gen_range(0usize..5);
    for _ in 0..mutations {
        mutate(&mut bytes, &mut rng);
    }
    bytes.truncate(max_len);
    bytes
}

/// Applies one byte-level mutation in place.
fn mutate(bytes: &mut Vec<u8>, rng: &mut StdRng) {
    if bytes.is_empty() {
        bytes.push(rng.gen_range(0u16..256) as u8);
        return;
    }
    match rng.gen_range(0u8..6) {
        // Flip one bit.
        0 => {
            let i = rng.gen_range(0..bytes.len());
            bytes[i] ^= 1 << rng.gen_range(0u8..8);
        }
        // Overwrite one byte.
        1 => {
            let i = rng.gen_range(0..bytes.len());
            bytes[i] = rng.gen_range(0u16..256) as u8;
        }
        // Truncate (torn frame).
        2 => {
            let keep = rng.gen_range(0..bytes.len());
            bytes.truncate(keep);
        }
        // Corrupt a length prefix: make the leading u32 huge.
        3 => {
            let i = rng.gen_range(0..bytes.len());
            bytes[i] = 0xFF;
        }
        // Duplicate a chunk (replayed bytes).
        4 => {
            let start = rng.gen_range(0..bytes.len());
            let end = rng.gen_range(start..bytes.len() + 1);
            let chunk: Vec<u8> = bytes[start..end].to_vec();
            let at = rng.gen_range(0..bytes.len() + 1);
            bytes.splice(at..at, chunk);
        }
        // Insert garbage.
        _ => {
            let at = rng.gen_range(0..bytes.len() + 1);
            let garbage: Vec<u8> = (0..rng.gen_range(1usize..9))
                .map(|_| rng.gen_range(0u16..256) as u8)
                .collect();
            bytes.splice(at..at, garbage);
        }
    }
}

// ---------------------------------------------------------------------
// Targets
// ---------------------------------------------------------------------

/// Decode endpoint comparable across decoding strategies.
#[derive(Debug, PartialEq, Eq)]
enum StreamEnd {
    /// Every byte consumed at a message boundary.
    Clean,
    /// Decoding stopped early (torn tail or corrupt message). The two
    /// strategies may classify the *reason* differently, but must
    /// agree that the stream did not end cleanly.
    Broken,
}

/// Feeds `input` to a [`FrameBuffer`] in chunks of `step` bytes and
/// collects the decoded frames and how the stream ended.
fn frames_chunked(input: &[u8], step: usize) -> (Vec<Frame>, StreamEnd) {
    let mut buf = FrameBuffer::new();
    let mut frames = Vec::new();
    for chunk in input.chunks(step.max(1)) {
        buf.extend(chunk);
        loop {
            match buf.next_frame() {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => break,
                Err(_) => return (frames, StreamEnd::Broken),
            }
        }
    }
    let end = if buf.is_mid_message() {
        StreamEnd::Broken
    } else {
        StreamEnd::Clean
    };
    (frames, end)
}

/// Same for [`ReplyBuffer`].
fn replies_chunked(input: &[u8], step: usize) -> (Vec<Reply>, StreamEnd) {
    let mut buf = ReplyBuffer::new();
    let mut replies = Vec::new();
    for chunk in input.chunks(step.max(1)) {
        buf.extend(chunk);
        loop {
            match buf.next_reply() {
                Ok(Some(reply)) => replies.push(reply),
                Ok(None) => break,
                Err(_) => return (replies, StreamEnd::Broken),
            }
        }
    }
    let end = if buf.is_mid_message() {
        StreamEnd::Broken
    } else {
        StreamEnd::Clean
    };
    (replies, end)
}

/// Codec target: incremental decode differentially against
/// whole-buffer decode and the blocking readers, plus round trips.
fn codec_case(input: &[u8]) -> Option<String> {
    // Differential: whole buffer vs one byte at a time vs 3-byte
    // chunks (frames are ≤ 15 bytes, so 3 tears every message).
    let whole = frames_chunked(input, usize::MAX);
    for step in [1usize, 3] {
        let split = frames_chunked(input, step);
        if split != whole {
            return Some(format!(
                "FrameBuffer diverges at split {step}: {split:?} vs whole {whole:?}"
            ));
        }
    }
    // Differential: blocking reader over the same bytes.
    let mut cursor = std::io::Cursor::new(input);
    let mut read = Vec::new();
    let read_end = loop {
        match read_frame(&mut cursor) {
            Ok(Some(frame)) => read.push(frame),
            Ok(None) => break StreamEnd::Clean,
            Err(_) => break StreamEnd::Broken,
        }
    };
    if (&read, &read_end) != (&whole.0, &whole.1) {
        return Some(format!(
            "read_frame diverges: {read:?}/{read_end:?} vs FrameBuffer {whole:?}"
        ));
    }
    // Round trip every successfully decoded frame.
    for frame in &whole.0 {
        let mut bytes = Vec::new();
        encode_frame(frame, &mut bytes);
        match decode_frame(&bytes[4..]) {
            Ok(back) if back == *frame => {}
            other => return Some(format!("frame round trip broke: {frame:?} -> {other:?}")),
        }
    }
    // The reply plane, identically.
    let whole = replies_chunked(input, usize::MAX);
    for step in [1usize, 3] {
        let split = replies_chunked(input, step);
        if split != whole {
            return Some(format!(
                "ReplyBuffer diverges at split {step}: {split:?} vs whole {whole:?}"
            ));
        }
    }
    let mut cursor = std::io::Cursor::new(input);
    let mut read = Vec::new();
    let read_end = loop {
        match read_reply(&mut cursor) {
            Ok(Some(reply)) => read.push(reply),
            Ok(None) => break StreamEnd::Clean,
            Err(_) => break StreamEnd::Broken,
        }
    };
    if (&read, &read_end) != (&whole.0, &whole.1) {
        return Some(format!(
            "read_reply diverges: {read:?}/{read_end:?} vs ReplyBuffer {whole:?}"
        ));
    }
    for reply in &whole.0 {
        let mut bytes = Vec::new();
        encode_reply(reply, &mut bytes);
        match decode_reply(&bytes[4..]) {
            Ok(back) if back == *reply => {}
            other => return Some(format!("reply round trip broke: {reply:?} -> {other:?}")),
        }
    }
    None
}

/// Guard target: the compiled DFA differentially against the
/// subset-replaying reference on an arbitrary event-index stream.
fn guard_case(prog: &Arc<GuardProgram>, input: &[u8]) -> Option<String> {
    let events: Vec<u16> = input
        .chunks(2)
        .map(|c| {
            if c.len() == 2 {
                u16::from_be_bytes([c[0], c[1]])
            } else {
                c[0] as u16
            }
        })
        .collect();
    let mut dfa = SessionGuard::new(Arc::clone(prog));
    let mut reference = SessionGuardReference::new(Arc::clone(prog));
    for (i, &ev) in events.iter().enumerate() {
        let a = dfa.observe(ev);
        let b = reference.observe(ev);
        if a != b {
            return Some(format!(
                "step {i} (event {ev}): DFA says {a:?}, reference says {b:?}"
            ));
        }
        if a.is_err() {
            // Both convicted identically; the session is over.
            return None;
        }
    }
    let a = dfa.attest_stall();
    let b = reference.attest_stall();
    if a != b {
        return Some(format!(
            "stall attestation: DFA says {a:?}, reference says {b:?}"
        ));
    }
    None
}

/// A case's frame program: one frame per 3-byte op, over four
/// sessions so closes and reuse collide. An op's first byte picks the
/// session (high nibble) and the kind: with `hellos`, its low three
/// bits pick event (0–3), stall, close, or a hello carrying `hash` or
/// a mismatched one; without, its low two bits pick event (0–1), stall
/// or close. The other two bytes are the event index.
fn frame_program(input: &[u8], hellos: bool, hash: u64) -> Vec<Frame> {
    input
        .chunks(3)
        .map(|op| {
            let (kind, lo, hi) = (
                op[0],
                op.get(1).copied().unwrap_or(0),
                op.get(2).copied().unwrap_or(0),
            );
            let session = u64::from(kind >> 4) % 4;
            let code = if hellos {
                kind & 7
            } else {
                [0, 1, 4, 5][usize::from(kind & 3)]
            };
            match code {
                0..=3 => Frame::Event {
                    session,
                    event: u16::from_be_bytes([lo, hi]),
                },
                4 => Frame::Stall { session },
                5 => Frame::Close { session },
                // Unpinned, pinned to the active version 1, or pinned
                // to a version the gateway does not serve.
                6 => Frame::Hello {
                    session,
                    table_hash: hash,
                    version: u32::from(lo % 3),
                },
                _ => Frame::Hello {
                    session,
                    table_hash: hash ^ u64::from(lo | 1),
                    version: 0,
                },
            }
        })
        .collect()
}

/// Gateway target: an arbitrary frame program through the dispatch
/// path of one in-process connection; every frame must yield exactly
/// one reply for its session.
fn gateway_case(gateway: &Gateway, input: &[u8]) -> Option<String> {
    let mut conn = LoopbackConn::new(gateway.clone());
    for frame in frame_program(input, false, 0) {
        let session = frame.session();
        let reply = match conn.call(&frame) {
            Ok(reply) => reply,
            Err(e) => return Some(format!("loopback call failed: {e}")),
        };
        if reply.session() != session {
            return Some(format!(
                "reply session {} for frame session {session}",
                reply.session()
            ));
        }
    }
    None
}

/// Batch target: frame programs like the gateway target's, plus
/// hellos with matching and mismatched hashes and pinned versions, cut
/// at arbitrary batch boundaries through [`Gateway::call_batch`] and
/// differentially checked against one-frame calls on an oracle gateway
/// with identical configuration. Batching must not change a reply or
/// its place in the stream; the two gateways must also agree in
/// resident sessions and sessions opened, so a hello can never open a
/// session on one path and not the other.
fn batch_case(batched: &Gateway, oracle: &Gateway, input: &[u8]) -> Option<String> {
    let frames = frame_program(input, true, batched.table_hash());
    let mut conn = LoopbackConn::new(oracle.clone());
    let mut want = Vec::with_capacity(frames.len());
    for frame in &frames {
        match conn.call(frame) {
            Ok(reply) => want.push(reply),
            Err(e) => return Some(format!("loopback call failed: {e}")),
        }
    }
    // The batched side runs the same frames through call_batch at an
    // input-derived batch size, decoding replies back off the wire.
    let split = (input.first().copied().unwrap_or(0) as usize % 7) + 1;
    let mut got = Vec::with_capacity(frames.len());
    let mut table = BatchScratch::new();
    let mut out = Vec::new();
    let mut dec = ReplyBuffer::new();
    for chunk in frames.chunks(split) {
        out.clear();
        batched.call_batch(chunk, &mut table, &mut out, &mut |_| {});
        dec.extend(&out);
        loop {
            match dec.next_reply() {
                Ok(Some(reply)) => got.push(reply),
                Ok(None) => break,
                Err(e) => return Some(format!("batch reply stream undecodable: {e}")),
            }
        }
        if dec.is_mid_message() {
            return Some("batch reply stream torn mid-message".to_string());
        }
    }
    let verdict =
        if let Some(i) = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i)) {
            Some(format!(
                "frame {i}: batched {:?} != per-frame {:?}",
                got.get(i),
                want.get(i)
            ))
        } else if batched.resident_sessions() != oracle.resident_sessions() {
            Some(format!(
                "resident sessions: batched {} != per-frame {}",
                batched.resident_sessions(),
                oracle.resident_sessions()
            ))
        } else if batched.stats().sessions_opened != oracle.stats().sessions_opened {
            Some(format!(
                "sessions opened: batched {} != per-frame {}",
                batched.stats().sessions_opened,
                oracle.stats().sessions_opened
            ))
        } else {
            None
        };
    // Leave no live session behind on either gateway.
    batched.end_sessions(&mut table);
    verdict
}

/// The colocated system as artifact format 1 wrote it: the artifact
/// target's second base, so the format 1 reader is fuzzed too.
pub(crate) static COLOCATED_V1: &[u8] = include_bytes!("../testdata/colocated-v1.pqca");

/// The artifact target's input, read as a mutation program: returns the
/// base it picked and the mutated copy.
///
/// The first byte is the program's header. Its bits 0–1 give the number
/// of ops, 1 to 4: a short program leaves enough of the artifact intact
/// for the spec rebuild and the digest check to run on it. Bit 2 picks
/// the base: the format 1 fixture [`COLOCATED_V1`] when set, else `v2`.
/// Unless bits 3–4 are both clear, the content hash is re-stamped after
/// mutating, so the bytes get past the hash check into the payload
/// parser, the spec rebuild and the digest comparison instead of
/// stopping at the header. Each following 3-byte chunk is one op — bit
/// flip, byte overwrite, truncation or insertion at a 16-bit position.
fn mutate_artifact<'a>(v2: &'a [u8], input: &[u8]) -> (&'a [u8], Vec<u8>) {
    let Some((&head, program)) = input.split_first() else {
        return (v2, v2.to_vec());
    };
    let base = if head & 0x04 != 0 { COLOCATED_V1 } else { v2 };
    let mut bytes = base.to_vec();
    for op in program.chunks(3).take(1 + usize::from(head & 0x03)) {
        let (kind, lo, hi) = (
            op[0],
            op.get(1).copied().unwrap_or(0),
            op.get(2).copied().unwrap_or(0),
        );
        if bytes.is_empty() {
            break;
        }
        let pos = u16::from_be_bytes([lo, hi]) as usize % bytes.len();
        match kind & 0x03 {
            0 => bytes[pos] ^= 1 << ((kind >> 4) & 7),
            1 => bytes[pos] = kind,
            2 => bytes.truncate(pos),
            _ => bytes.insert(pos, kind),
        }
    }
    if head & 0x18 != 0 && bytes.len() >= 24 {
        let hash = fnv1a(&bytes[24..]);
        bytes[8..16].copy_from_slice(&hash.to_be_bytes());
    }
    (base, bytes)
}

/// Artifact target: the loader must classify every mutated artifact
/// ([`mutate_artifact`]) cleanly. The empty program (pristine bytes)
/// must keep decoding and instantiating; anything that still decodes
/// after mutation must also survive `instantiate` without panicking
/// (either rebuilding the guard or refusing with a divergence).
fn artifact_case(v2: &[u8], input: &[u8]) -> Option<String> {
    let (base, bytes) = mutate_artifact(v2, input);
    let pristine = bytes == base;
    match CompiledArtifact::decode(&bytes) {
        Err(e) => {
            if pristine {
                return Some(format!("pristine artifact refused to decode: {e}"));
            }
            // A clean, classified refusal is exactly the contract.
            let _: ArtifactError = e;
        }
        Ok(artifact) => {
            // Rarely, mutations cancel out (or hit nothing); whatever
            // decodes must also instantiate or refuse — never panic.
            match artifact.instantiate() {
                Ok(_) => {}
                Err(e) if pristine => {
                    return Some(format!("pristine artifact refused to instantiate: {e}"));
                }
                Err(_) => {}
            }
        }
    }
    None
}

// ---------------------------------------------------------------------
// Harness: crash + hang detection
// ---------------------------------------------------------------------

enum HarnessVerdict {
    Pass,
    Panic(String),
    Divergence(String),
}

type Job = Box<dyn FnOnce() -> HarnessVerdict + Send>;

/// One long-lived worker thread running case bodies, so a hung case
/// can be abandoned (thread and all) without killing the campaign.
struct Harness {
    tx: mpsc::Sender<Job>,
    rx: mpsc::Receiver<HarnessVerdict>,
}

impl Harness {
    fn spawn() -> Harness {
        let (tx, jobs) = mpsc::channel::<Job>();
        let (results, rx) = mpsc::channel();
        std::thread::spawn(move || {
            for job in jobs {
                let verdict = match catch_unwind(AssertUnwindSafe(job)) {
                    Ok(v) => v,
                    Err(payload) => HarnessVerdict::Panic(panic_message(payload.as_ref())),
                };
                if results.send(verdict).is_err() {
                    break;
                }
            }
        });
        Harness { tx, rx }
    }

    /// Runs one case, replacing the worker thread if it hangs.
    fn run(&mut self, input: &[u8], body: &CaseBody, timeout: Duration) -> Option<FindingKind> {
        let input = input.to_vec();
        let body = Arc::clone(body);
        let job: Job = Box::new(move || match body(&input) {
            None => HarnessVerdict::Pass,
            Some(detail) => HarnessVerdict::Divergence(detail),
        });
        if self.tx.send(job).is_err() {
            // The worker died outside a case (only possible if a panic
            // escaped catch_unwind); treat as a crash and respawn.
            *self = Harness::spawn();
            return Some(FindingKind::Panic("fuzz worker thread died".to_string()));
        }
        match self.rx.recv_timeout(timeout) {
            Ok(HarnessVerdict::Pass) => None,
            Ok(HarnessVerdict::Panic(msg)) => Some(FindingKind::Panic(msg)),
            Ok(HarnessVerdict::Divergence(detail)) => Some(FindingKind::Divergence(detail)),
            Err(_) => {
                // Abandon the wedged worker; its thread leaks by
                // design (it may be deadlocked and cannot be joined).
                *self = Harness::spawn();
                Some(FindingKind::Hang)
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

/// Whether `input` still reproduces the failure class of `kind`.
/// Panics must still panic (any message); divergences must still
/// diverge. Runs inline — only re-executable (non-hang) findings are
/// shrunk, so there is nothing to time out.
fn still_fails(
    input: &[u8],
    kind: &FindingKind,
    body: &(dyn Fn(&[u8]) -> Option<String> + Send + Sync),
) -> bool {
    let outcome = catch_unwind(AssertUnwindSafe(|| body(input)));
    matches!(
        (kind, outcome),
        (FindingKind::Panic(_), Err(_)) | (FindingKind::Divergence(_), Ok(Some(_)))
    )
}

/// [`ddmin`] over the input bytes, with a probe budget so a
/// pathological case cannot stall the campaign.
fn shrink_input(
    input: &[u8],
    kind: &FindingKind,
    body: &(dyn Fn(&[u8]) -> Option<String> + Send + Sync),
) -> Vec<u8> {
    ddmin(input.to_vec(), 512, |candidate| {
        still_fails(candidate, kind, body).then(|| candidate.to_vec())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use protoquot_core::solve;
    use protoquot_protocols::{colocated_configuration, exactly_once};

    fn smoke_cfg(iters: u64) -> FuzzConfig {
        FuzzConfig {
            seed: 0xF0CC_5EED,
            iters,
            max_len: 128,
            ..FuzzConfig::default()
        }
    }

    /// Every target's name parses back to it; `all` is the caller's.
    #[test]
    fn target_names_parse_back() {
        for t in FuzzTarget::ALL {
            assert_eq!(FuzzTarget::parse(t.name()), Some(t));
        }
        assert_eq!(FuzzTarget::parse("all"), None);
        assert_eq!(FuzzTarget::parse("Codec"), None);
    }

    /// The fixed-seed smoke campaign over every target finds nothing
    /// — the codec, guard, gateway, batcher, and artifact loader hold
    /// their invariants on hostile input — and its report is
    /// deterministic.
    #[test]
    fn fixed_seed_smoke_is_clean_and_deterministic() {
        let system = colocated_configuration();
        let service = exactly_once();
        let q = solve(&system.b, &service, &system.int).expect("converter derives");
        let parts = [&system.b, &q.converter];
        let a = fuzz(&parts, &service, &FuzzTarget::ALL, &smoke_cfg(300)).expect("system compiles");
        assert!(a.is_clean(), "fuzz findings on the smoke seed:\n{a}");
        let b = fuzz(&parts, &service, &FuzzTarget::ALL, &smoke_cfg(300)).expect("system compiles");
        assert_eq!(a.to_json(), b.to_json(), "fuzz report is not deterministic");
    }

    /// The harness catches panics and the shrinker minimizes the
    /// reproducing input instead of reporting the raw case.
    #[test]
    fn harness_catches_and_shrinks_panics() {
        let body: CaseBody = Arc::new(|input: &[u8]| {
            if input.contains(&0x42) {
                panic!("hit the magic byte");
            }
            None
        });
        let mut harness = Harness::spawn();
        let input = vec![0u8, 1, 2, 0x42, 3, 4, 5, 6];
        let kind = harness
            .run(&input, &body, Duration::from_secs(5))
            .expect("the magic byte must be caught");
        assert!(matches!(&kind, FindingKind::Panic(m) if m.contains("magic byte")));
        let shrunk = shrink_input(&input, &kind, &*body);
        assert_eq!(shrunk, vec![0x42], "ddmin should isolate the magic byte");
    }

    /// A wedged case is reported as a hang and the campaign keeps
    /// running on a fresh worker.
    #[test]
    fn harness_detects_hangs_and_recovers() {
        let body: CaseBody = Arc::new(|input: &[u8]| {
            if input.first() == Some(&0xFF) {
                loop {
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
            None
        });
        let mut harness = Harness::spawn();
        let hang = harness.run(&[0xFF], &body, Duration::from_millis(200));
        assert!(matches!(hang, Some(FindingKind::Hang)));
        let pass = harness.run(&[0x00], &body, Duration::from_secs(5));
        assert!(pass.is_none(), "fresh worker must serve the next case");
    }

    /// Short mutation programs reach past the payload parser: at least
    /// 5 % of the first 20,000 inputs of the pinned campaign seed decode
    /// to a mutated artifact, on both bases.
    #[test]
    fn artifact_cases_reach_the_deep_layers() {
        let system = colocated_configuration();
        let service = exactly_once();
        let q = solve(&system.b, &service, &system.int).expect("converter derives");
        let v2 = crate::artifact::encode(&[&system.b, &q.converter], &service).unwrap();
        let cfg = FuzzConfig::default();
        let (mut on_v2, mut on_v1) = (0, 0);
        for case in 0..20_000 {
            let input = gen_input(&cfg, FuzzTarget::Artifact, case);
            let (base, bytes) = mutate_artifact(&v2, &input);
            if bytes != base && CompiledArtifact::decode(&bytes).is_ok() {
                if base == COLOCATED_V1 {
                    on_v1 += 1;
                } else {
                    on_v2 += 1;
                }
            }
        }
        assert!(
            on_v2 + on_v1 >= 1_000 && on_v2 > 0 && on_v1 > 0,
            "mutated artifacts decoding: {on_v2} on v2, {on_v1} on v1, of 20000"
        );
    }
}
