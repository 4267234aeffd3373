//! Hostile load generation: `protoquot drive --adversarial`.
//!
//! Eight scripted attacks against a serving gateway's wire endpoint,
//! every one a behavior the soak fleet can never produce (its faults
//! are by construction genuine traces): garbage bytes, truncated
//! length prefixes, out-of-range event indices, session floods,
//! connection churn, slow-drip partial frames, unread bursts
//! (`backpressure`), and frames to closed sessions. The campaign
//! asserts the runtime's convict-or-evict invariant from the
//! *attacker's* seat: every
//! abusive frame must end in a reply, a rejection, or a cut
//! connection — never in a stall.
//!
//! All attacks are lockstep and scripted (no randomness, no
//! concurrency), so the resulting [`AdversarialReport`] is
//! deterministic for a given server configuration: running the same
//! campaign against [`crate::transport::ReactorServer`]s with one and
//! with several event loops in front of the same gateway configuration
//! must produce byte-identical JSON — pinned by
//! `tests/adversarial_wire.rs`. The one timing-sensitive attack
//! (`slow_drip`) is deterministic as long as the campaign's hold
//! dwarfs the server's read deadline (or the deadline is disabled, in
//! which case the drip completes and is answered).
//!
//! Attacks use disjoint session-id ranges (1_000_000 apart), which
//! keeps their reports readable; each attack's sessions live on its
//! own connections, whose tables could not interact anyway.

use crate::codec::{read_reply, Frame, Reply};
use serde::Value;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Tuning of one adversarial campaign.
#[derive(Clone, Debug)]
pub struct AdversarialConfig {
    /// Frames per frame-oriented attack.
    pub frames_per_attack: u64,
    /// Connections opened by the churn attack.
    pub churn_conns: u64,
    /// How long the slow-drip attack holds its unfinished frame. Must
    /// dwarf the server's read deadline for the eviction outcome to be
    /// deterministic (or the deadline is disabled and the drip is
    /// answered).
    pub drip_hold: Duration,
    /// Socket read timeout — a reply this late is a stall, and stalls
    /// are exactly what the campaign exists to rule out.
    pub read_timeout: Duration,
}

impl Default for AdversarialConfig {
    fn default() -> AdversarialConfig {
        AdversarialConfig {
            frames_per_attack: 64,
            churn_conns: 32,
            drip_hold: Duration::from_millis(400),
            read_timeout: Duration::from_secs(5),
        }
    }
}

/// What one attack observed.
#[derive(Clone, Debug)]
pub struct AttackOutcome {
    /// Attack name (stable report key).
    pub name: &'static str,
    /// Frames (or, for byte-level attacks, messages) sent.
    pub frames_sent: u64,
    /// Bytes written to the socket.
    pub bytes_sent: u64,
    /// Replies received.
    pub replies: u64,
    /// Accepted replies among them.
    pub accepted: u64,
    /// Reject-reason histogram (deterministic for every attack).
    pub rejects: BTreeMap<String, u64>,
    /// The server cut the connection.
    pub conn_cut: bool,
    /// The attack was neutralized: every abusive frame was answered or
    /// the connection was cut — the server never stalled the attacker
    /// and never accepted what it should refuse.
    pub neutralized: bool,
}

impl AttackOutcome {
    fn new(name: &'static str) -> AttackOutcome {
        AttackOutcome {
            name,
            frames_sent: 0,
            bytes_sent: 0,
            replies: 0,
            accepted: 0,
            rejects: BTreeMap::new(),
            conn_cut: false,
            neutralized: false,
        }
    }

    /// The outcome as a JSON value tree.
    pub fn to_value(&self) -> Value {
        let mut o = BTreeMap::new();
        o.insert("name".into(), Value::Str(self.name.to_string()));
        o.insert("frames_sent".into(), Value::Int(self.frames_sent as i128));
        o.insert("bytes_sent".into(), Value::Int(self.bytes_sent as i128));
        o.insert("replies".into(), Value::Int(self.replies as i128));
        o.insert("accepted".into(), Value::Int(self.accepted as i128));
        let mut rejects = BTreeMap::new();
        for (reason, n) in &self.rejects {
            rejects.insert(reason.clone(), Value::Int(*n as i128));
        }
        o.insert("rejects".into(), Value::Obj(rejects));
        o.insert("conn_cut".into(), Value::Bool(self.conn_cut));
        o.insert("neutralized".into(), Value::Bool(self.neutralized));
        Value::Obj(o)
    }
}

/// Aggregated result of one adversarial campaign.
#[derive(Clone, Debug)]
pub struct AdversarialReport {
    /// Per-attack outcomes, in campaign order.
    pub attacks: Vec<AttackOutcome>,
}

impl AdversarialReport {
    /// Every attack was neutralized.
    pub fn is_contained(&self) -> bool {
        self.attacks.iter().all(|a| a.neutralized)
    }

    /// The report as a JSON value tree (timing never enters it).
    pub fn to_value(&self) -> Value {
        let mut o = BTreeMap::new();
        o.insert(
            "attacks".into(),
            Value::Arr(self.attacks.iter().map(AttackOutcome::to_value).collect()),
        );
        o.insert("contained".into(), Value::Bool(self.is_contained()));
        Value::Obj(o)
    }

    /// The report as a compact JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.to_value()).expect("report serialization cannot fail")
    }
}

impl std::fmt::Display for AdversarialReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "adversarial campaign: {} attacks, {}",
            self.attacks.len(),
            if self.is_contained() {
                "all neutralized"
            } else {
                "NOT CONTAINED"
            }
        )?;
        for a in &self.attacks {
            write!(
                f,
                "  {:<13} frames {:>4} bytes {:>6} replies {:>4} accepted {:>4} cut {:<5} {}",
                a.name,
                a.frames_sent,
                a.bytes_sent,
                a.replies,
                a.accepted,
                a.conn_cut,
                if a.neutralized {
                    "neutralized"
                } else {
                    "SURVIVED"
                }
            )?;
            if !a.rejects.is_empty() {
                let mix: Vec<String> = a.rejects.iter().map(|(r, n)| format!("{r}={n}")).collect();
                write!(f, " [{}]", mix.join(" "))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Session-id bases, one disjoint range per attack.
const BAD_EVENT_BASE: u64 = 1_000_000;
const FLOOD_BASE: u64 = 2_000_000;
const CHURN_BASE: u64 = 3_000_000;
const BACKPRESSURE_BASE: u64 = 4_000_000;
const ZOMBIE_BASE: u64 = 5_000_000;
const DRIP_BASE: u64 = 6_000_000;

/// Runs the full attack battery against the gateway serving at `addr`
/// (the report must not depend on the server's event-loop count).
pub fn adversarial<A: ToSocketAddrs + Clone>(
    addr: A,
    cfg: &AdversarialConfig,
) -> io::Result<AdversarialReport> {
    let attacks = vec![
        garbage(addr.clone(), cfg)?,
        truncated(addr.clone(), cfg)?,
        bad_event(addr.clone(), cfg)?,
        session_flood(addr.clone(), cfg)?,
        churn(addr.clone(), cfg)?,
        slow_drip(addr.clone(), cfg)?,
        backpressure(addr.clone(), cfg)?,
        zombie(addr, cfg)?,
    ];
    Ok(AdversarialReport { attacks })
}

fn connect<A: ToSocketAddrs>(addr: A, cfg: &AdversarialConfig) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(cfg.read_timeout))?;
    Ok(stream)
}

/// Reads one reply, classifying the connection state.
enum ReadOutcome {
    Reply(Reply),
    /// EOF or reset: the server cut us off.
    Cut,
    /// Read timeout: the server stalled — the one outcome the runtime
    /// must never produce.
    Stall,
}

fn read_one(stream: &mut TcpStream) -> ReadOutcome {
    match read_reply(stream) {
        Ok(Some(reply)) => ReadOutcome::Reply(reply),
        Ok(None) => ReadOutcome::Cut,
        Err(e) if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            ReadOutcome::Stall
        }
        Err(_) => ReadOutcome::Cut,
    }
}

fn note_reply(out: &mut AttackOutcome, reply: &Reply) {
    out.replies += 1;
    match reply {
        Reply::Accepted { .. } => out.accepted += 1,
        Reply::Rejected { reason, .. } => {
            *out.rejects.entry(reason.name().to_string()).or_insert(0) += 1;
        }
        // Connection-plane: only ever answers a Hello, which no attack
        // sends; counted in `replies` but classified as neither.
        Reply::HelloAck { .. } => {}
    }
}

/// Sends `frame` and waits for its reply lockstep; returns `false`
/// when the exchange cannot continue (cut or stall).
fn exchange(stream: &mut TcpStream, frame: &Frame, out: &mut AttackOutcome) -> bool {
    let mut bytes = Vec::with_capacity(16);
    crate::codec::encode_frame(frame, &mut bytes);
    out.bytes_sent += bytes.len() as u64;
    if stream.write_all(&bytes).is_err() {
        out.conn_cut = true;
        return false;
    }
    out.frames_sent += 1;
    match read_one(stream) {
        ReadOutcome::Reply(reply) => {
            note_reply(out, &reply);
            true
        }
        ReadOutcome::Cut => {
            out.conn_cut = true;
            false
        }
        ReadOutcome::Stall => false,
    }
}

/// Pure garbage: bytes that are not even a plausible length prefix
/// (leading `0xFF` makes the declared length absurd). The only
/// acceptable server response is cutting the connection.
fn garbage<A: ToSocketAddrs>(addr: A, cfg: &AdversarialConfig) -> io::Result<AttackOutcome> {
    let mut out = AttackOutcome::new("garbage");
    let mut stream = connect(addr, cfg)?;
    let mut bytes = vec![0xFFu8; 64];
    for (i, b) in bytes.iter_mut().enumerate().skip(1) {
        *b = (i as u8).wrapping_mul(37) ^ 0x5A;
    }
    out.bytes_sent = bytes.len() as u64;
    out.frames_sent = 1;
    if stream.write_all(&bytes).is_err() {
        out.conn_cut = true;
    } else {
        out.conn_cut = matches!(read_one(&mut stream), ReadOutcome::Cut);
    }
    out.neutralized = out.conn_cut;
    Ok(out)
}

/// A truncated frame: a valid header minus its last byte, then EOF.
/// The server must treat the torn tail as protocol damage and cut.
fn truncated<A: ToSocketAddrs>(addr: A, cfg: &AdversarialConfig) -> io::Result<AttackOutcome> {
    let mut out = AttackOutcome::new("truncated");
    let mut stream = connect(addr, cfg)?;
    let mut bytes = Vec::new();
    crate::codec::encode_frame(
        &Frame::Event {
            session: 7,
            event: 0,
        },
        &mut bytes,
    );
    bytes.pop();
    out.bytes_sent = bytes.len() as u64;
    out.frames_sent = 1;
    if stream.write_all(&bytes).is_err() {
        out.conn_cut = true;
    } else {
        let _ = stream.shutdown(Shutdown::Write);
        out.conn_cut = matches!(read_one(&mut stream), ReadOutcome::Cut);
    }
    out.neutralized = out.conn_cut;
    Ok(out)
}

/// Out-of-range event indices: every frame parses but names an event
/// the shared table does not have. Every one must bounce.
fn bad_event<A: ToSocketAddrs>(addr: A, cfg: &AdversarialConfig) -> io::Result<AttackOutcome> {
    let mut out = AttackOutcome::new("bad_event");
    let mut stream = connect(addr, cfg)?;
    for i in 0..cfg.frames_per_attack {
        let frame = Frame::Event {
            session: BAD_EVENT_BASE + 1,
            event: u16::MAX - (i % 7) as u16,
        };
        if !exchange(&mut stream, &frame, &mut out) {
            break;
        }
    }
    // The final Close is legitimate housekeeping; its accept does not
    // count against the attack.
    let bad_accepted = out.accepted;
    let _ = exchange(
        &mut stream,
        &Frame::Close {
            session: BAD_EVENT_BASE + 1,
        },
        &mut out,
    );
    out.neutralized = bad_accepted == 0 && (out.replies == out.frames_sent || out.conn_cut);
    Ok(out)
}

/// A session-id flood: every frame opens a fresh session on one
/// connection. With a per-connection session cap the overflow must
/// bounce with `resource_limit`; without one, every session must still
/// be answered and closed — and never stall the pool.
fn session_flood<A: ToSocketAddrs>(addr: A, cfg: &AdversarialConfig) -> io::Result<AttackOutcome> {
    let mut out = AttackOutcome::new("session_flood");
    let mut stream = connect(addr, cfg)?;
    let n = cfg.frames_per_attack;
    for i in 0..n {
        let frame = Frame::Event {
            session: FLOOD_BASE + i,
            event: 0,
        };
        if !exchange(&mut stream, &frame, &mut out) {
            break;
        }
    }
    for i in 0..n {
        if !exchange(
            &mut stream,
            &Frame::Close {
                session: FLOOD_BASE + i,
            },
            &mut out,
        ) {
            break;
        }
    }
    out.neutralized = out.replies == out.frames_sent || out.conn_cut;
    Ok(out)
}

/// Connection churn: open, send one frame, read its reply, drop the
/// socket without closing the session — repeatedly. The server must
/// keep answering fresh connections; each dropped connection ends its
/// abandoned session at once.
fn churn<A: ToSocketAddrs + Clone>(addr: A, cfg: &AdversarialConfig) -> io::Result<AttackOutcome> {
    let mut out = AttackOutcome::new("churn");
    for i in 0..cfg.churn_conns {
        let mut stream = connect(addr.clone(), cfg)?;
        let frame = Frame::Event {
            session: CHURN_BASE + i,
            event: 0,
        };
        if !exchange(&mut stream, &frame, &mut out) {
            break;
        }
        // Drop without Close: an abandoned session every time.
    }
    out.neutralized = out.replies == out.frames_sent;
    Ok(out)
}

/// Slow drip: a frame minus its final byte, then silence. A server
/// with a read deadline must evict the dripper; one without must
/// simply wait it out and answer when the byte finally lands. Either
/// way, no stall.
fn slow_drip<A: ToSocketAddrs>(addr: A, cfg: &AdversarialConfig) -> io::Result<AttackOutcome> {
    let mut out = AttackOutcome::new("slow_drip");
    let mut stream = connect(addr, cfg)?;
    let mut bytes = Vec::new();
    crate::codec::encode_frame(
        &Frame::Event {
            session: DRIP_BASE,
            event: 0,
        },
        &mut bytes,
    );
    let last = bytes.pop().expect("an encoded frame is never empty");
    out.bytes_sent = bytes.len() as u64;
    out.frames_sent = 1;
    if stream.write_all(&bytes).is_err() {
        out.conn_cut = true;
        out.neutralized = true;
        return Ok(out);
    }
    std::thread::sleep(cfg.drip_hold);
    // Probe: has the server cut us already (deadline eviction)?
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("socket accepts a read timeout");
    match read_one(&mut stream) {
        ReadOutcome::Cut => {
            out.conn_cut = true;
            out.neutralized = true;
            return Ok(out);
        }
        ReadOutcome::Stall => {} // still connected; finish the frame
        ReadOutcome::Reply(reply) => {
            // A reply to an unfinished frame is corruption.
            note_reply(&mut out, &reply);
            return Ok(out);
        }
    }
    stream
        .set_read_timeout(Some(cfg.read_timeout))
        .expect("socket accepts a read timeout");
    if stream.write_all(&[last]).is_err() {
        out.conn_cut = true;
        out.neutralized = true;
        return Ok(out);
    }
    out.bytes_sent += 1;
    match read_one(&mut stream) {
        ReadOutcome::Reply(reply) => {
            note_reply(&mut out, &reply);
            out.neutralized = true;
            let _ = exchange(&mut stream, &Frame::Close { session: DRIP_BASE }, &mut out);
        }
        ReadOutcome::Cut => {
            out.conn_cut = true;
            out.neutralized = true;
        }
        ReadOutcome::Stall => {}
    }
    Ok(out)
}

/// Backpressure abuse: a burst of frames on one session without
/// reading a single reply, then drain them all. Every frame is
/// answered inline in arrival order, so the verdicts are a function of
/// the burst alone; what bounds the unread replies is the reactor's
/// outbound cap, not a queue.
fn backpressure<A: ToSocketAddrs>(addr: A, cfg: &AdversarialConfig) -> io::Result<AttackOutcome> {
    let mut out = AttackOutcome::new("backpressure");
    let mut stream = connect(addr, cfg)?;
    let n = cfg.frames_per_attack * 4;
    let mut burst = Vec::new();
    for _ in 0..n {
        crate::codec::encode_frame(
            &Frame::Event {
                session: BACKPRESSURE_BASE,
                event: 0,
            },
            &mut burst,
        );
    }
    crate::codec::encode_frame(
        &Frame::Close {
            session: BACKPRESSURE_BASE,
        },
        &mut burst,
    );
    out.bytes_sent = burst.len() as u64;
    if stream.write_all(&burst).is_err() {
        out.conn_cut = true;
        out.neutralized = true;
        return Ok(out);
    }
    out.frames_sent = n + 1;
    for _ in 0..out.frames_sent {
        match read_one(&mut stream) {
            ReadOutcome::Reply(reply) => note_reply(&mut out, &reply),
            ReadOutcome::Cut => {
                out.conn_cut = true;
                break;
            }
            ReadOutcome::Stall => break,
        }
    }
    out.neutralized = out.replies == out.frames_sent || out.conn_cut;
    Ok(out)
}

/// Frames to a closed session: open, close, then keep sending. Every
/// post-close frame must bounce with `closed`.
fn zombie<A: ToSocketAddrs>(addr: A, cfg: &AdversarialConfig) -> io::Result<AttackOutcome> {
    let mut out = AttackOutcome::new("zombie");
    let mut stream = connect(addr, cfg)?;
    let session = ZOMBIE_BASE;
    let open = Frame::Event { session, event: 0 };
    if !exchange(&mut stream, &open, &mut out) {
        return Ok(out);
    }
    if !exchange(&mut stream, &Frame::Close { session }, &mut out) {
        return Ok(out);
    }
    let before = out.accepted;
    for _ in 0..cfg.frames_per_attack {
        if !exchange(&mut stream, &open, &mut out) {
            break;
        }
    }
    out.neutralized = out.accepted == before && (out.replies == out.frames_sent || out.conn_cut);
    Ok(out)
}
