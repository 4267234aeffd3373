//! The length-prefixed wire codec: frames ↔ spec events.
//!
//! Every message on the wire is a 4-byte big-endian payload length
//! followed by the payload. Payloads start with a 1-byte tag and an
//! 8-byte big-endian session id; event frames add a 2-byte big-endian
//! event index into the shared [`EventTable`].
//!
//! The table index — not the process-local numeric [`EventId`] — is
//! what crosses the wire: [`EventTable`] sorts events by *name*, so a
//! gateway and a remote load generator built from the same service
//! alphabet agree on every index even though their interners handed
//! out different ids.

use protoquot_spec::{Alphabet, EventId, EventTable};
use std::fmt;
use std::io::{self, Read, Write};
use std::sync::Arc;

/// Hard cap on payload length: the protocol's largest payload is the
/// 21-byte hello/hello-ack, so anything bigger is a corrupt or foreign
/// stream.
pub const MAX_PAYLOAD: usize = 64;

const TAG_EVENT: u8 = 0x01;
const TAG_STALL: u8 = 0x02;
const TAG_CLOSE: u8 = 0x03;
const TAG_HELLO: u8 = 0x04;
const TAG_ACCEPTED: u8 = 0x81;
const TAG_REJECTED: u8 = 0x82;
const TAG_HELLO_ACK: u8 = 0x83;

/// A client → gateway message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Frame {
    /// One external event of the conversion system, by table index.
    Event {
        /// Session the event belongs to.
        session: u64,
        /// Index into the shared [`EventTable`].
        event: u16,
    },
    /// The client attests that its end of the session has stalled
    /// (no service progress); the guard checks whether the current
    /// trace can in fact reach a progress-violating state.
    Stall {
        /// Session said to be stalled.
        session: u64,
    },
    /// Ends the session and releases its state.
    Close {
        /// Session to close.
        session: u64,
    },
    /// Version negotiation, sent once at connection open: the client's
    /// [`EventTable`] hash ([`table_hash`]) and the converter version it
    /// was built against (0 = any). A gateway acks with
    /// [`Reply::HelloAck`] on agreement and rejects with
    /// [`RejectReason::VersionMismatch`] otherwise. Hellos address the
    /// connection, not a session; the session field is conventionally 0
    /// and takes no session slot.
    Hello {
        /// Conventionally 0 — hello is per-connection.
        session: u64,
        /// FNV-1a hash of the sender's event table ([`table_hash`]).
        table_hash: u64,
        /// Registry version the sender expects, or 0 for "whatever is
        /// active".
        version: u32,
    },
}

impl Frame {
    /// The session id the frame addresses.
    pub fn session(&self) -> u64 {
        match *self {
            Frame::Event { session, .. }
            | Frame::Stall { session }
            | Frame::Close { session }
            | Frame::Hello { session, .. } => session,
        }
    }
}

named_enum! {
    /// Why the gateway refused a frame. The discriminant is the wire code.
    pub enum RejectReason {
        /// The event extends no trace of the composed system B‖C: the
        /// online guard's state set went empty.
        NotATrace = 1 => "not_a_trace",
        /// The event is a trace of B‖C but not of the service: ψ has no
        /// step for it — the dynamic twin of a safety violation.
        ServiceViolation = 2 => "service_violation",
        /// A progress-violating state of the B‖C × service product is
        /// reachable under the observed trace (confirmed stall).
        Stalled = 3 => "stalled",
        /// The session already carries a conviction; no further events
        /// are tracked.
        Convicted = 4 => "convicted",
        /// Reserved, never sent by this server: it answers every frame
        /// inline and queues nothing. The variant and its wire code 5
        /// stay so replies from older peers still decode.
        Backpressure = 5 => "backpressure",
        /// The gateway is draining for shutdown and accepts no new work.
        Draining = 6 => "draining",
        /// The session was closed or evicted.
        Closed = 7 => "closed",
        /// The event index is outside the shared table.
        UnknownEvent = 8 => "unknown_event",
        /// The frame overran a configured resource budget (per-session
        /// frame budget, or per-connection session cap at the transport).
        ResourceLimit = 9 => "resource_limit",
        /// Version negotiation failed: the peer's hello carried an
        /// [`EventTable`] hash (or pinned converter version) that does
        /// not match the active one — or a hello was required and never
        /// came.
        VersionMismatch = 10 => "version_mismatch",
    }
}

impl RejectReason {
    /// Whether the reason is a *conviction* — the online guard's
    /// verdict on the session's trace — as opposed to an operational
    /// rejection (flow control, lifecycle, malformed input, budgets)
    /// that says nothing about the converter's correctness.
    pub fn is_conviction(self) -> bool {
        matches!(
            self,
            RejectReason::NotATrace
                | RejectReason::ServiceViolation
                | RejectReason::Stalled
                | RejectReason::Convicted
        )
    }

    fn code(self) -> u8 {
        self as u8
    }

    pub(crate) fn from_code(c: u8) -> Option<RejectReason> {
        let slot = c.checked_sub(RejectReason::ALL[0].code())?;
        RejectReason::ALL.get(usize::from(slot)).copied()
    }
}

/// The name with hyphens: `not-a-trace`, `unknown-event`.
impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name().replace('_', "-"))
    }
}

/// A gateway → client message: exactly one per frame sent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reply {
    /// The frame was processed and the session trace extended.
    Accepted {
        /// Session the reply belongs to.
        session: u64,
    },
    /// The frame was refused.
    Rejected {
        /// Session the reply belongs to.
        session: u64,
        /// Why.
        reason: RejectReason,
    },
    /// Version negotiation succeeded: answers a [`Frame::Hello`] with
    /// the gateway's own [`EventTable`] hash and the active converter
    /// version, so both ends can log what they agreed on.
    HelloAck {
        /// Echoes the hello's session (conventionally 0).
        session: u64,
        /// FNV-1a hash of the gateway's event table ([`table_hash`]).
        table_hash: u64,
        /// The active converter version serving this connection.
        version: u32,
    },
}

impl Reply {
    /// The session id the reply addresses.
    pub fn session(&self) -> u64 {
        match *self {
            Reply::Accepted { session }
            | Reply::Rejected { session, .. }
            | Reply::HelloAck { session, .. } => session,
        }
    }
}

/// A malformed payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError(pub String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Encodes a frame as length prefix + payload.
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[0, 0, 0, 0]);
    match *frame {
        Frame::Event { session, event } => {
            out.push(TAG_EVENT);
            out.extend_from_slice(&session.to_be_bytes());
            out.extend_from_slice(&event.to_be_bytes());
        }
        Frame::Stall { session } => {
            out.push(TAG_STALL);
            out.extend_from_slice(&session.to_be_bytes());
        }
        Frame::Close { session } => {
            out.push(TAG_CLOSE);
            out.extend_from_slice(&session.to_be_bytes());
        }
        Frame::Hello {
            session,
            table_hash,
            version,
        } => {
            out.push(TAG_HELLO);
            out.extend_from_slice(&session.to_be_bytes());
            out.extend_from_slice(&table_hash.to_be_bytes());
            out.extend_from_slice(&version.to_be_bytes());
        }
    }
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_be_bytes());
}

/// Encodes a reply as length prefix + payload.
pub fn encode_reply(reply: &Reply, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[0, 0, 0, 0]);
    match *reply {
        Reply::Accepted { session } => {
            out.push(TAG_ACCEPTED);
            out.extend_from_slice(&session.to_be_bytes());
        }
        Reply::Rejected { session, reason } => {
            out.push(TAG_REJECTED);
            out.extend_from_slice(&session.to_be_bytes());
            out.push(reason.code());
        }
        Reply::HelloAck {
            session,
            table_hash,
            version,
        } => {
            out.push(TAG_HELLO_ACK);
            out.extend_from_slice(&session.to_be_bytes());
            out.extend_from_slice(&table_hash.to_be_bytes());
            out.extend_from_slice(&version.to_be_bytes());
        }
    }
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_be_bytes());
}

fn session_of(payload: &[u8]) -> Result<u64, WireError> {
    let bytes: [u8; 8] = payload
        .get(1..9)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| WireError("payload too short for a session id".into()))?;
    Ok(u64::from_be_bytes(bytes))
}

/// Decodes one frame payload (without the length prefix).
pub fn decode_frame(payload: &[u8]) -> Result<Frame, WireError> {
    let tag = *payload
        .first()
        .ok_or_else(|| WireError("empty payload".into()))?;
    let session = session_of(payload)?;
    match (tag, payload.len()) {
        (TAG_EVENT, 11) => {
            let event = u16::from_be_bytes([payload[9], payload[10]]);
            Ok(Frame::Event { session, event })
        }
        (TAG_STALL, 9) => Ok(Frame::Stall { session }),
        (TAG_CLOSE, 9) => Ok(Frame::Close { session }),
        (TAG_HELLO, 21) => {
            let table_hash = u64::from_be_bytes(payload[9..17].try_into().unwrap());
            let version = u32::from_be_bytes(payload[17..21].try_into().unwrap());
            Ok(Frame::Hello {
                session,
                table_hash,
                version,
            })
        }
        (tag, len) => Err(WireError(format!("bad frame tag {tag:#x} / length {len}"))),
    }
}

/// Decodes one reply payload (without the length prefix).
pub fn decode_reply(payload: &[u8]) -> Result<Reply, WireError> {
    let tag = *payload
        .first()
        .ok_or_else(|| WireError("empty payload".into()))?;
    let session = session_of(payload)?;
    match (tag, payload.len()) {
        (TAG_ACCEPTED, 9) => Ok(Reply::Accepted { session }),
        (TAG_REJECTED, 10) => {
            let reason = RejectReason::from_code(payload[9])
                .ok_or_else(|| WireError(format!("bad reject reason {}", payload[9])))?;
            Ok(Reply::Rejected { session, reason })
        }
        (TAG_HELLO_ACK, 21) => {
            let table_hash = u64::from_be_bytes(payload[9..17].try_into().unwrap());
            let version = u32::from_be_bytes(payload[17..21].try_into().unwrap());
            Ok(Reply::HelloAck {
                session,
                table_hash,
                version,
            })
        }
        (tag, len) => Err(WireError(format!("bad reply tag {tag:#x} / length {len}"))),
    }
}

/// A torn-stream error: EOF struck mid-message. Carries a [`WireError`]
/// payload (so callers can tell protocol damage from transport
/// failures) under [`io::ErrorKind::UnexpectedEof`].
fn torn(context: &str, got: usize, want: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        WireError(format!(
            "torn stream: EOF {context} ({got} of {want} bytes)"
        )),
    )
}

/// Reads one length-prefixed payload. `Ok(None)` on clean end of
/// stream (EOF before the first length byte); EOF anywhere *inside* a
/// message — mid-length-prefix or mid-payload — is a torn stream and
/// surfaces as an [`io::Error`] wrapping a [`WireError`].
pub fn read_payload<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(torn("inside a length prefix", got, 4)),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len) as usize;
    if len == 0 || len > MAX_PAYLOAD {
        return Err(WireError(format!("payload length {len} out of range")).into());
    }
    let mut payload = vec![0u8; len];
    let mut got = 0;
    while got < len {
        match r.read(&mut payload[got..]) {
            Ok(0) => return Err(torn("inside a payload", got, len)),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Some(payload))
}

/// Reads one frame; `Ok(None)` on clean end of stream.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Frame>> {
    match read_payload(r)? {
        None => Ok(None),
        Some(p) => Ok(Some(decode_frame(&p)?)),
    }
}

/// Reads one reply; `Ok(None)` on clean end of stream.
pub fn read_reply<R: Read>(r: &mut R) -> io::Result<Option<Reply>> {
    match read_payload(r)? {
        None => Ok(None),
        Some(p) => Ok(Some(decode_reply(&p)?)),
    }
}

/// Writes one frame (length prefix + payload).
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    let mut buf = Vec::with_capacity(16);
    encode_frame(frame, &mut buf);
    w.write_all(&buf)
}

/// The incremental decode engine shared by [`FrameBuffer`] and
/// [`ReplyBuffer`]: accumulates raw stream bytes, yields complete
/// length-prefixed payloads in order, compacts the consumed prefix
/// lazily.
/// Consumed-prefix bytes below which `extend` keeps carrying the
/// prefix instead of compacting: a large batched read followed by a
/// frame-at-a-time drain must never memmove per frame. Past the
/// threshold, compaction additionally waits until at least half the
/// buffer is consumed, so every memmove is amortized over at least as
/// many consumed bytes as it copies — O(1) per byte overall.
const COMPACT_MIN: usize = 4096;

#[derive(Default)]
struct PayloadBuffer {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (reset when fully drained, compacted
    /// once it grows past [`COMPACT_MIN`] *and* half the buffer).
    start: usize,
    /// Compactions that moved bytes, for memmove-regression tests.
    compactions: u64,
}

impl PayloadBuffer {
    fn extend(&mut self, bytes: &[u8]) {
        if self.start >= self.buf.len() {
            // Fully consumed: reset without moving a byte. This is the
            // steady state of a server draining every buffered frame
            // before the next read.
            self.buf.clear();
            self.start = 0;
        } else if self.start >= COMPACT_MIN && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
            self.compactions += 1;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete payload (without its length prefix), or
    /// `Ok(None)` when more bytes are needed. Consumes the message.
    fn next_payload(&mut self) -> Result<Option<&[u8]>, WireError> {
        let pending = &self.buf[self.start..];
        if pending.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([pending[0], pending[1], pending[2], pending[3]]) as usize;
        if len == 0 || len > MAX_PAYLOAD {
            return Err(WireError(format!("payload length {len} out of range")));
        }
        if pending.len() < 4 + len {
            return Ok(None);
        }
        let at = self.start + 4;
        self.start = at + len;
        Ok(Some(&self.buf[at..at + len]))
    }

    fn is_mid_message(&self) -> bool {
        self.start < self.buf.len()
    }

    fn torn_error(&self) -> WireError {
        WireError(format!(
            "torn stream: EOF with {} buffered bytes of a partial frame",
            self.buf.len() - self.start
        ))
    }
}

/// An incremental frame decoder: bytes go in as they arrive off a
/// stream, complete frames come out in order — so a transport can
/// decode *every* frame already buffered per wakeup instead of paying
/// one syscall round per frame (the gateway then drains them in one
/// batch).
///
/// EOF bookkeeping matches [`read_frame`]: ending the stream between
/// messages is clean, ending it mid-message is a torn stream.
#[derive(Default)]
pub struct FrameBuffer {
    inner: PayloadBuffer,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Appends raw stream bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.inner.extend(bytes);
    }

    /// Pops the next complete frame, or `Ok(None)` when more bytes are
    /// needed.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        match self.inner.next_payload()? {
            None => Ok(None),
            Some(p) => Ok(Some(decode_frame(p)?)),
        }
    }

    /// Whether the buffer holds a partial message: EOF now would be a
    /// torn stream, not a clean close.
    pub fn is_mid_message(&self) -> bool {
        self.inner.is_mid_message()
    }

    /// The torn-stream error for an EOF at this point; call only when
    /// [`FrameBuffer::is_mid_message`] is true.
    pub fn torn_error(&self) -> WireError {
        self.inner.torn_error()
    }

    /// Compactions that actually moved buffered bytes — the regression
    /// counter behind the amortized-O(1) guarantee: draining a large
    /// batched read frame by frame performs zero of these.
    pub fn compactions(&self) -> u64 {
        self.inner.compactions
    }
}

/// The client-side mirror of [`FrameBuffer`]: incremental decode of
/// gateway replies. A multiplexing driver reads whatever the socket has,
/// feeds it here, and dispatches each decoded [`Reply`] to the session
/// it names — many sessions' replies interleave on one connection.
#[derive(Default)]
pub struct ReplyBuffer {
    inner: PayloadBuffer,
}

impl ReplyBuffer {
    /// An empty buffer.
    pub fn new() -> ReplyBuffer {
        ReplyBuffer::default()
    }

    /// Appends raw stream bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.inner.extend(bytes);
    }

    /// Pops the next complete reply, or `Ok(None)` when more bytes are
    /// needed.
    pub fn next_reply(&mut self) -> Result<Option<Reply>, WireError> {
        match self.inner.next_payload()? {
            None => Ok(None),
            Some(p) => Ok(Some(decode_reply(p)?)),
        }
    }

    /// Whether the buffer holds a partial message: EOF now would be a
    /// torn stream, not a clean close.
    pub fn is_mid_message(&self) -> bool {
        self.inner.is_mid_message()
    }

    /// The torn-stream error for an EOF at this point; call only when
    /// [`ReplyBuffer::is_mid_message`] is true.
    pub fn torn_error(&self) -> WireError {
        self.inner.torn_error()
    }

    /// Compactions that actually moved buffered bytes; see
    /// [`FrameBuffer::compactions`].
    pub fn compactions(&self) -> u64 {
        self.inner.compactions
    }
}

/// FNV-1a hash of an [`EventTable`]'s event *names*, in table (i.e.
/// sorted-name) order, each name terminated by a NUL so the
/// concatenation is unambiguous.
///
/// This is the version-negotiation fingerprint carried by
/// [`Frame::Hello`] and [`Reply::HelloAck`]: two processes agree on it
/// exactly when they map every wire index to the same event name, which
/// is the property the codec needs — numeric [`EventId`]s are
/// process-local and never enter the hash.
pub fn table_hash(table: &EventTable) -> u64 {
    const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = FNV_OFFSET;
    let mut byte = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    };
    for i in 0..table.len() {
        let e = table
            .event(i as u32)
            .expect("indices below len are populated");
        for &b in e.name().as_bytes() {
            byte(b);
        }
        byte(0);
    }
    h
}

/// Maps spec events to wire indices and back, over the shared
/// name-sorted [`EventTable`].
#[derive(Clone)]
pub struct WireCodec {
    table: Arc<EventTable>,
}

/// Most events one [`EventTable`] can carry on the wire: frame event
/// indices are 2 bytes, so indices run 0..=65535.
pub const MAX_WIRE_EVENTS: usize = u16::MAX as usize + 1;

impl WireCodec {
    /// A codec over `alphabet` (the observable interface of the
    /// conversion system, i.e. the service alphabet).
    ///
    /// Fails with a [`WireError`] when the alphabet holds more events
    /// than a 2-byte wire index can address ([`MAX_WIRE_EVENTS`]) —
    /// silently truncating indices would alias distinct events.
    pub fn new(alphabet: &Alphabet) -> Result<WireCodec, WireError> {
        WireCodec::from_table(Arc::new(EventTable::new(alphabet)))
    }

    /// A codec sharing an existing table; same size limit as
    /// [`WireCodec::new`].
    pub fn from_table(table: Arc<EventTable>) -> Result<WireCodec, WireError> {
        if table.len() > MAX_WIRE_EVENTS {
            return Err(WireError(format!(
                "event table holds {} events but wire indices are 16-bit \
                 (max {MAX_WIRE_EVENTS})",
                table.len()
            )));
        }
        Ok(WireCodec { table })
    }

    /// The shared table.
    pub fn table(&self) -> &Arc<EventTable> {
        &self.table
    }

    /// The negotiation fingerprint of the shared table; see
    /// [`table_hash`].
    pub fn table_hash(&self) -> u64 {
        table_hash(&self.table)
    }

    /// The event frame for `e` in `session`, or `None` if `e` is not
    /// an observable event.
    pub fn event_frame(&self, session: u64, e: EventId) -> Option<Frame> {
        let idx = self.table.lookup(e)?;
        // Construction guarantees the table fits; stay checked anyway
        // so a table swapped in behind the codec cannot alias events.
        Some(Frame::Event {
            session,
            event: u16::try_from(idx).ok()?,
        })
    }

    /// The event behind wire index `idx`, or `None` if out of range.
    pub fn event_of(&self, idx: u16) -> Option<EventId> {
        self.table.event(u32::from(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protoquot_spec::Alphabet;

    #[test]
    fn frames_round_trip() {
        for f in [
            Frame::Event {
                session: 0xDEAD_BEEF_1234_5678,
                event: 513,
            },
            Frame::Stall { session: 7 },
            Frame::Close { session: u64::MAX },
            Frame::Hello {
                session: 0,
                table_hash: 0x0123_4567_89AB_CDEF,
                version: 42,
            },
        ] {
            let mut buf = Vec::new();
            encode_frame(&f, &mut buf);
            let mut r = io::Cursor::new(buf);
            assert_eq!(read_frame(&mut r).unwrap(), Some(f));
            assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF after frame");
        }
    }

    #[test]
    fn replies_round_trip() {
        let mut replies = vec![
            Reply::Accepted { session: 1 },
            Reply::HelloAck {
                session: 0,
                table_hash: 0xFEED_FACE_CAFE_F00D,
                version: 3,
            },
        ];
        for reason in RejectReason::ALL {
            replies.push(Reply::Rejected { session: 9, reason });
        }
        for reply in replies {
            let mut buf = Vec::new();
            encode_reply(&reply, &mut buf);
            let mut r = io::Cursor::new(buf);
            assert_eq!(read_reply(&mut r).unwrap(), Some(reply));
        }
    }

    /// The wire codes are fixed at 1–10, codes outside them decode to
    /// nothing, and each reason's names are pinned.
    #[test]
    fn reject_codes_and_names_are_pinned() {
        use RejectReason::*;
        let pinned = [
            (NotATrace, 1, "not_a_trace", "not-a-trace"),
            (
                ServiceViolation,
                2,
                "service_violation",
                "service-violation",
            ),
            (Stalled, 3, "stalled", "stalled"),
            (Convicted, 4, "convicted", "convicted"),
            (Backpressure, 5, "backpressure", "backpressure"),
            (Draining, 6, "draining", "draining"),
            (Closed, 7, "closed", "closed"),
            (UnknownEvent, 8, "unknown_event", "unknown-event"),
            (ResourceLimit, 9, "resource_limit", "resource-limit"),
            (VersionMismatch, 10, "version_mismatch", "version-mismatch"),
        ];
        assert_eq!(RejectReason::ALL.len(), pinned.len());
        for (reason, code, name, shown) in pinned {
            assert_eq!(reason.code(), code, "{reason:?}");
            assert_eq!(RejectReason::from_code(code), Some(reason));
            assert_eq!(reason.name(), name);
            assert_eq!(reason.to_string(), shown);
        }
        for code in [0, 11, 0xFF] {
            assert_eq!(RejectReason::from_code(code), None, "code {code}");
        }
    }

    #[test]
    fn corrupt_payloads_are_rejected() {
        assert!(decode_frame(&[]).is_err());
        assert!(decode_frame(&[TAG_EVENT, 0, 0]).is_err());
        assert!(decode_reply(&[0x77, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
        // Oversized length prefix.
        let mut r = io::Cursor::new(vec![0xFF, 0xFF, 0xFF, 0xFF, 0]);
        assert!(read_payload(&mut r).is_err());
        // Truncated length prefix.
        let mut r = io::Cursor::new(vec![0, 0]);
        assert!(read_payload(&mut r).is_err());
    }

    #[test]
    fn codec_indices_depend_on_names_not_interner_history() {
        // Intern the later name first: numeric ids disagree with name
        // order, wire indices must not.
        let _ = protoquot_spec::EventId::new("zz_codec_probe");
        let a: Alphabet = ["zz_codec_probe", "aa_codec_probe"].into_iter().collect();
        let codec = WireCodec::new(&a).unwrap();
        assert_eq!(codec.event_of(0).unwrap().name(), "aa_codec_probe");
        assert_eq!(codec.event_of(1).unwrap().name(), "zz_codec_probe");
        let f = codec
            .event_frame(3, protoquot_spec::EventId::new("zz_codec_probe"))
            .unwrap();
        assert_eq!(
            f,
            Frame::Event {
                session: 3,
                event: 1
            }
        );
        assert!(codec
            .event_frame(3, protoquot_spec::EventId::new("unrelated"))
            .is_none());
    }

    /// The negotiation fingerprint depends on event *names* only: two
    /// codecs built from the same alphabet agree regardless of interner
    /// history, and any alphabet difference changes the hash.
    #[test]
    fn table_hash_is_name_stable_and_alphabet_sensitive() {
        let _ = protoquot_spec::EventId::new("zz_hash_probe");
        let a: Alphabet = ["zz_hash_probe", "aa_hash_probe"].into_iter().collect();
        let b: Alphabet = ["aa_hash_probe", "zz_hash_probe"].into_iter().collect();
        let ca = WireCodec::new(&a).unwrap();
        let cb = WireCodec::new(&b).unwrap();
        assert_eq!(ca.table_hash(), cb.table_hash());
        let c: Alphabet = ["aa_hash_probe", "zz_hash_probe", "mm_hash_probe"]
            .into_iter()
            .collect();
        let cc = WireCodec::new(&c).unwrap();
        assert_ne!(ca.table_hash(), cc.table_hash());
        // NUL termination keeps name boundaries unambiguous.
        let d: Alphabet = ["ab", "c"].into_iter().collect();
        let e: Alphabet = ["a", "bc"].into_iter().collect();
        assert_ne!(
            WireCodec::new(&d).unwrap().table_hash(),
            WireCodec::new(&e).unwrap().table_hash()
        );
    }

    #[test]
    fn oversized_event_tables_are_rejected_at_construction() {
        // One event past the 16-bit index space: constructing the codec
        // must fail instead of silently truncating indices on the wire.
        let a: Alphabet = (0..=MAX_WIRE_EVENTS)
            .map(|i| protoquot_spec::EventId::new(&format!("ev{i:06}")))
            .collect();
        assert_eq!(a.len(), MAX_WIRE_EVENTS + 1);
        let err = match WireCodec::new(&a) {
            Ok(_) => panic!("oversized table must not build a codec"),
            Err(e) => e,
        };
        assert!(
            err.0.contains("16-bit"),
            "error should name the wire limit: {err}"
        );

        // Exactly at the limit is fine, and the extreme index survives
        // the round trip un-truncated.
        let full: Alphabet = (0..MAX_WIRE_EVENTS)
            .map(|i| protoquot_spec::EventId::new(&format!("ev{i:06}")))
            .collect();
        let codec = WireCodec::new(&full).unwrap();
        let last = protoquot_spec::EventId::new(&format!("ev{:06}", MAX_WIRE_EVENTS - 1));
        let f = codec.event_frame(1, last).unwrap();
        assert_eq!(
            f,
            Frame::Event {
                session: 1,
                event: u16::MAX
            }
        );
        assert_eq!(codec.event_of(u16::MAX), Some(last));
    }

    /// EOF at every possible byte offset of an encoded frame: offset 0
    /// is a clean end of stream, any other offset is a torn stream that
    /// must surface as a `WireError`, never as a silent `Ok(None)`.
    #[test]
    fn truncation_at_every_offset_is_a_torn_stream() {
        let frame = Frame::Event {
            session: 0x0102_0304_0506_0708,
            event: 513,
        };
        let mut bytes = Vec::new();
        encode_frame(&frame, &mut bytes);
        assert_eq!(bytes.len(), 15, "4-byte prefix + 11-byte payload");
        for cut in 0..bytes.len() {
            let mut r = io::Cursor::new(bytes[..cut].to_vec());
            match read_frame(&mut r) {
                Ok(None) => assert_eq!(cut, 0, "clean EOF only before the first byte"),
                Ok(Some(f)) => panic!("cut at {cut} produced a frame {f:?}"),
                Err(e) => {
                    assert!(cut > 0, "cut at 0 must be a clean EOF");
                    let wire = e
                        .get_ref()
                        .map(|inner| inner.is::<WireError>())
                        .unwrap_or(false);
                    assert!(wire, "cut at {cut}: expected a WireError, got {e:?}");
                }
            }
        }
        // The full message still parses, and the stream then ends clean.
        let mut r = io::Cursor::new(bytes.clone());
        assert_eq!(read_frame(&mut r).unwrap(), Some(frame));
        assert_eq!(read_frame(&mut r).unwrap(), None);

        // Replies behave identically (shared read_payload path).
        let reply = Reply::Rejected {
            session: 5,
            reason: RejectReason::Stalled,
        };
        let mut bytes = Vec::new();
        encode_reply(&reply, &mut bytes);
        for cut in 1..bytes.len() {
            let mut r = io::Cursor::new(bytes[..cut].to_vec());
            assert!(read_reply(&mut r).is_err(), "reply cut at {cut} must error");
        }
    }

    #[test]
    fn frame_buffer_decodes_batches_and_detects_torn_streams() {
        let frames = [
            Frame::Event {
                session: 1,
                event: 2,
            },
            Frame::Stall { session: 3 },
            Frame::Close { session: 4 },
        ];
        let mut bytes = Vec::new();
        for f in &frames {
            encode_frame(f, &mut bytes);
        }
        // Feed byte by byte: frames pop out exactly at their boundaries.
        let mut fb = FrameBuffer::new();
        let mut decoded = Vec::new();
        for b in &bytes {
            fb.extend(std::slice::from_ref(b));
            while let Some(f) = fb.next_frame().unwrap() {
                decoded.push(f);
            }
        }
        assert_eq!(decoded, frames);
        assert!(!fb.is_mid_message(), "all bytes consumed");

        // Feed everything at once plus half of another frame: three
        // frames decode in one batch, the remainder marks a torn EOF.
        let mut fb = FrameBuffer::new();
        let mut torn = bytes.clone();
        let mut extra = Vec::new();
        encode_frame(&Frame::Stall { session: 9 }, &mut extra);
        torn.extend_from_slice(&extra[..extra.len() / 2]);
        fb.extend(&torn);
        let mut decoded = Vec::new();
        while let Some(f) = fb.next_frame().unwrap() {
            decoded.push(f);
        }
        assert_eq!(decoded, frames);
        assert!(fb.is_mid_message());
        assert!(fb.torn_error().0.contains("torn stream"));

        // Corrupt lengths surface as errors, not hangs.
        let mut fb = FrameBuffer::new();
        fb.extend(&[0xFF, 0xFF, 0xFF, 0xFF, 0]);
        assert!(fb.next_frame().is_err());
    }

    /// The session id survives the wire byte-exactly for every frame
    /// and reply shape, across the whole u64 range.
    #[test]
    fn session_ids_round_trip_across_the_codec() {
        let sessions = [0u64, 1, 0xFF, 0x0100, u32::MAX as u64, 1 << 40, u64::MAX];
        for &session in &sessions {
            for frame in [
                Frame::Event { session, event: 0 },
                Frame::Event {
                    session,
                    event: u16::MAX,
                },
                Frame::Stall { session },
                Frame::Close { session },
            ] {
                let mut buf = Vec::new();
                encode_frame(&frame, &mut buf);
                let mut fb = FrameBuffer::new();
                fb.extend(&buf);
                let back = fb.next_frame().unwrap().unwrap();
                assert_eq!(back, frame);
                assert_eq!(back.session(), session);
            }
            for reply in [
                Reply::Accepted { session },
                Reply::Rejected {
                    session,
                    reason: RejectReason::NotATrace,
                },
            ] {
                let mut buf = Vec::new();
                encode_reply(&reply, &mut buf);
                let mut rb = ReplyBuffer::new();
                rb.extend(&buf);
                let back = rb.next_reply().unwrap().unwrap();
                assert_eq!(back, reply);
                assert_eq!(back.session(), session);
            }
        }
    }

    /// Frames from distinct sessions interleaved on one connection
    /// decode to the right sessions, in wire order, whether the bytes
    /// arrive all at once or dribble in one at a time.
    #[test]
    fn interleaved_sessions_on_one_connection_decode_to_the_right_sessions() {
        // 8 sessions, round-robin interleaved: session s sends event s,
        // then a stall, then a close — 24 frames on one byte stream.
        let mut expect = Vec::new();
        for round in 0..3u8 {
            for s in 0..8u64 {
                expect.push(match round {
                    0 => Frame::Event {
                        session: 0x1000 + s,
                        event: s as u16,
                    },
                    1 => Frame::Stall {
                        session: 0x1000 + s,
                    },
                    _ => Frame::Close {
                        session: 0x1000 + s,
                    },
                });
            }
        }
        let mut bytes = Vec::new();
        for f in &expect {
            encode_frame(f, &mut bytes);
        }

        // One shot.
        let mut fb = FrameBuffer::new();
        fb.extend(&bytes);
        let mut got = Vec::new();
        while let Some(f) = fb.next_frame().unwrap() {
            got.push(f);
        }
        assert_eq!(got, expect);

        // Byte-at-a-time (worst-case segmentation).
        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        for b in &bytes {
            fb.extend(std::slice::from_ref(b));
            while let Some(f) = fb.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, expect);

        // And the reply direction: the gateway answers grouped by
        // session, not in arrival order; the client must still attribute
        // each reply to the session its header names.
        let replies: Vec<Reply> = (0..8u64)
            .rev()
            .map(|s| {
                if s % 2 == 0 {
                    Reply::Accepted {
                        session: 0x1000 + s,
                    }
                } else {
                    Reply::Rejected {
                        session: 0x1000 + s,
                        reason: RejectReason::Stalled,
                    }
                }
            })
            .collect();
        let mut bytes = Vec::new();
        for r in &replies {
            encode_reply(r, &mut bytes);
        }
        let mut rb = ReplyBuffer::new();
        let mut got = Vec::new();
        for chunk in bytes.chunks(3) {
            rb.extend(chunk);
            while let Some(r) = rb.next_reply().unwrap() {
                got.push(r);
            }
        }
        assert_eq!(got, replies);
        assert!(!rb.is_mid_message());
    }

    /// A 64 KiB chunk of min-size frames decodes without quadratic
    /// memmoves: the consumed prefix just advances (zero compactions),
    /// and even a sustained read/drain cycle compacts at most once per
    /// `COMPACT_MIN` consumed bytes instead of once per frame.
    #[test]
    fn large_batched_reads_drain_without_per_frame_compaction() {
        let mut frame = Vec::new();
        encode_frame(&Frame::Stall { session: 42 }, &mut frame);
        assert_eq!(frame.len(), 13, "min-size frame is 13 wire bytes");
        let per_chunk = (64 * 1024) / frame.len();
        let chunk: Vec<u8> = frame
            .iter()
            .cycle()
            .take(per_chunk * frame.len())
            .copied()
            .collect();
        assert!(chunk.len() > 64 * 1024 - frame.len());

        // One batched read, frame-at-a-time drain: no compaction at all.
        let mut fb = FrameBuffer::new();
        fb.extend(&chunk);
        let mut decoded = 0;
        while fb.next_frame().unwrap().is_some() {
            decoded += 1;
        }
        assert_eq!(decoded, per_chunk);
        assert_eq!(fb.compactions(), 0, "draining must not memmove");

        // Sustained operation: 32 more such chunks through the same
        // buffer, fully drained between reads, still never compacts
        // (the fully-consumed reset path is free).
        for _ in 0..32 {
            fb.extend(&chunk);
            while fb.next_frame().unwrap().is_some() {}
        }
        assert_eq!(fb.compactions(), 0);

        // Worst case — a partial frame always pending so the reset path
        // never fires: compactions stay amortized (bounded by consumed
        // bytes / COMPACT_MIN), nowhere near one per frame.
        let mut fb = FrameBuffer::new();
        fb.extend(&frame[..5]);
        let mut total = 0usize;
        let mut frames = 0u64;
        for _ in 0..64 {
            fb.extend(&frame[5..]); // complete the pending frame,
            fb.extend(&chunk); // batch in a fresh chunk,
            fb.extend(&frame[..5]); // and leave a new torn tail.
            total += frame.len() + chunk.len() + 5;
            while fb.next_frame().unwrap().is_some() {
                frames += 1;
            }
            assert!(fb.is_mid_message());
        }
        assert_eq!(frames, 64 * (per_chunk as u64 + 1));
        assert!(
            fb.compactions() <= (total / COMPACT_MIN) as u64 + 1,
            "{} compactions over {} consumed bytes is not amortized",
            fb.compactions(),
            total
        );
    }

    /// EOF at every byte offset of a reply message through the
    /// incremental buffer: offset 0 (and any message boundary) is
    /// clean, everywhere else is a torn stream.
    #[test]
    fn reply_buffer_truncation_at_every_offset() {
        let reply = Reply::Rejected {
            session: 0x0A0B_0C0D_0E0F_1011,
            reason: RejectReason::ServiceViolation,
        };
        let mut bytes = Vec::new();
        encode_reply(&reply, &mut bytes);
        assert_eq!(bytes.len(), 14, "4-byte prefix + 10-byte payload");
        for cut in 0..=bytes.len() {
            let mut rb = ReplyBuffer::new();
            rb.extend(&bytes[..cut]);
            let decoded = rb.next_reply().unwrap();
            if cut == bytes.len() {
                assert_eq!(decoded, Some(reply));
                assert!(!rb.is_mid_message());
            } else {
                assert_eq!(decoded, None, "cut at {cut} must not yield a reply");
                if cut == 0 {
                    assert!(!rb.is_mid_message(), "empty buffer is a clean EOF");
                } else {
                    assert!(rb.is_mid_message(), "cut at {cut} must be torn");
                    assert!(rb.torn_error().0.contains("torn stream"));
                }
            }
        }
    }
}
