//! Wire transports: the in-memory loopback and the epoll reactor.
//!
//! Every transport speaks the length-prefixed codec from
//! [`crate::codec`]. [`LoopbackConn`] round-trips every frame and reply
//! through the encoder/decoder so in-process benchmarks exercise the
//! real wire format; [`ReactorServer`] carries the same bytes over
//! *non-blocking* sockets driven by a small fixed pool of epoll
//! event-loop threads, so concurrency is bounded by session state, not
//! by thread count.
//!
//! Two client shapes exist. [`Conn`] is lockstep — one outstanding
//! frame per connection, reply matching trivial — served over TCP by
//! [`TcpConn`]. [`MuxTransport`] is the multiplexed shape: a driver
//! queues frames from *many* sessions onto one connection, flushes
//! them in one batch, and attributes each interleaved reply to the
//! session its header names ([`MuxClient`] over TCP, [`LoopbackMux`]
//! in process). The reactor plus a mux client is how `protoquot drive
//! --sessions-per-conn N` holds tens of thousands of concurrent
//! sessions over a handful of sockets.
//!
//! ## Reactor anatomy
//!
//! [`ReactorServer::bind`] spawns `loops` event-loop threads, each
//! owning one `reactor::Poll`. Loop 0 also owns the (non-blocking)
//! listener and hands accepted connections round-robin to all loops
//! through per-loop inboxes, waking the target loop. Per readiness
//! wakeup a loop reads what the socket has, feeds a [`FrameBuffer`],
//! and hands every complete frame to [`Gateway::call_batch`] as one
//! batch. Every frame is answered on the loop that read it: the
//! replies land in the connection's outbound buffer, which the loop
//! owns outright, and are flushed at once. `EPOLLOUT` interest is
//! registered only while flushed-behind bytes remain, and a connection
//! whose outbound buffer outgrows [`ReactorConfig::outbuf_cap`] (a
//! client that stopped reading) is dropped as a counted
//! [`ConnEvictReason::SlowConsumer`] eviction rather than buffered
//! without bound. Each readiness event reads a bounded number of
//! chunks so a firehosing peer cannot starve its loop's other
//! connections or defer that cap; [`ConnLimits`] adds the per-
//! connection session cap and the torn-frame read deadline.

use crate::codec::{
    decode_frame, decode_reply, encode_frame, encode_reply, read_payload, write_frame, Frame,
    FrameBuffer, RejectReason, Reply, ReplyBuffer,
};
use crate::gateway::{BatchScratch, Gateway};
use crate::stats::ConnEvictReason;
use reactor::{Events, Interest, Poll, Token, Waker};
use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-connection resource limits, enforced by the reactor (the
/// in-process loopbacks have no connection to bound).
///
/// These are the transport half of the convict-or-evict invariant: a
/// peer that floods sessions is *rejected* frame by frame
/// ([`RejectReason::ResourceLimit`]), a peer that drips a frame past
/// the read deadline is *evicted*
/// ([`ConnEvictReason::SlowRead`]) — either way the event loops keep
/// serving everyone else.
#[derive(Clone, Copy, Debug)]
pub struct ConnLimits {
    /// Live sessions one connection may hold at once (a `Close` frees
    /// its slot). Frames naming a session beyond the cap bounce with
    /// [`RejectReason::ResourceLimit`] without touching the gateway.
    /// `0` disables the cap — the default, because multiplexed
    /// campaigns legitimately hold 100k+ sessions on one socket.
    pub max_sessions_per_conn: usize,
    /// How long a connection may sit *mid-frame* (length prefix or
    /// payload started but unfinished) before it is cut as a
    /// slow-reader attack. Measured from the first byte of the
    /// unfinished message. `Duration::ZERO` disables the deadline.
    pub read_deadline: Duration,
    /// Require version negotiation: a connection's first frame must be
    /// a hello carrying the gateway's event-table hash. A legacy peer
    /// that leads with anything else is answered with one counted
    /// [`RejectReason::VersionMismatch`] and cut. `false` (the
    /// default) answers hellos when offered but tolerates their
    /// absence.
    pub require_hello: bool,
}

impl Default for ConnLimits {
    fn default() -> ConnLimits {
        ConnLimits {
            max_sessions_per_conn: 0,
            // Complete frames are ≤ 15 bytes; a peer mid-frame for ten
            // seconds is dripping, not slow.
            read_deadline: Duration::from_secs(10),
            require_hello: false,
        }
    }
}

/// What the reactor does with one decoded frame, as decided by
/// [`ConnSessions::gate`].
enum Gate {
    /// Submit the frame to the gateway.
    Forward,
    /// Answer `reply` at the transport; keep the connection.
    Reply(Reply),
    /// Answer `reply`, then cut the connection.
    Refuse(Reply),
}

/// Tracks the live-session set of one connection against
/// [`ConnLimits::max_sessions_per_conn`], plus whether the connection
/// has completed hello negotiation.
#[derive(Default)]
struct ConnSessions {
    live: HashSet<u64>,
    /// Whether a hello was acked on this connection.
    hello_done: bool,
}

impl ConnSessions {
    /// Admits `frame` against the cap: `Ok(())` to forward it to the
    /// gateway, `Err(reason)` to bounce it at the transport.
    fn admit(&mut self, frame: &Frame, cap: usize) -> Result<(), RejectReason> {
        match frame {
            Frame::Close { session } => {
                self.live.remove(session);
                Ok(())
            }
            Frame::Event { session, .. } | Frame::Stall { session } => {
                if self.live.contains(session) {
                    return Ok(());
                }
                if cap > 0 && self.live.len() >= cap {
                    return Err(RejectReason::ResourceLimit);
                }
                self.live.insert(*session);
                Ok(())
            }
            // Hello is connection-level: it never holds a session slot.
            Frame::Hello { .. } => Ok(()),
        }
    }

    /// Connection-level admission for one decoded frame: hello
    /// negotiation first, then the session cap.
    fn gate(&mut self, gateway: &Gateway, frame: &Frame, limits: &ConnLimits) -> Gate {
        match frame {
            Frame::Hello {
                session,
                table_hash,
                version,
            } => {
                let reply = gateway.hello(*session, *table_hash, *version);
                if matches!(reply, Reply::HelloAck { .. }) {
                    self.hello_done = true;
                    Gate::Reply(reply)
                } else {
                    Gate::Refuse(reply)
                }
            }
            _ if limits.require_hello && !self.hello_done => Gate::Refuse(
                gateway.transport_reject(frame.session(), RejectReason::VersionMismatch),
            ),
            _ => match self.admit(frame, limits.max_sessions_per_conn) {
                Ok(()) => Gate::Forward,
                Err(reason) => Gate::Reply(gateway.transport_reject(frame.session(), reason)),
            },
        }
    }
}

/// One side of a frame/reply conversation with a gateway.
pub trait Conn {
    /// Sends `frame` and blocks for its reply.
    fn call(&mut self, frame: &Frame) -> io::Result<Reply>;
}

/// In-process transport: encodes, decodes, and calls the gateway
/// directly — the wire format without the socket.
pub struct LoopbackConn {
    gateway: Gateway,
    buf: Vec<u8>,
}

impl LoopbackConn {
    /// A loopback connection onto `gateway`.
    pub fn new(gateway: Gateway) -> LoopbackConn {
        LoopbackConn {
            gateway,
            buf: Vec::with_capacity(32),
        }
    }
}

impl Conn for LoopbackConn {
    fn call(&mut self, frame: &Frame) -> io::Result<Reply> {
        self.buf.clear();
        encode_frame(frame, &mut self.buf);
        let decoded = decode_frame(&self.buf[4..])?;
        let reply = self.gateway.call(decoded);
        self.buf.clear();
        encode_reply(&reply, &mut self.buf);
        Ok(decode_reply(&self.buf[4..])?)
    }
}

/// Client side of the TCP transport.
pub struct TcpConn {
    stream: TcpStream,
}

impl TcpConn {
    /// Connects to a serving gateway at `addr`.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<TcpConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpConn { stream })
    }

    /// Connects and negotiates: sends a hello carrying `table_hash`
    /// (version unpinned) and fails with [`io::ErrorKind::ConnectionRefused`]
    /// unless the server acks it. Required against servers running
    /// with [`ConnLimits::require_hello`].
    pub fn connect_negotiated<A: ToSocketAddrs>(addr: A, table_hash: u64) -> io::Result<TcpConn> {
        let mut conn = TcpConn::connect(addr)?;
        match conn.call(&Frame::Hello {
            session: 0,
            table_hash,
            version: 0,
        })? {
            Reply::HelloAck { .. } => Ok(conn),
            Reply::Rejected { reason, .. } => Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("server refused hello: {reason}"),
            )),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected hello reply: {other:?}"),
            )),
        }
    }
}

impl Conn for TcpConn {
    fn call(&mut self, frame: &Frame) -> io::Result<Reply> {
        write_frame(&mut self.stream, frame)?;
        match read_payload(&mut self.stream)? {
            Some(payload) => Ok(decode_reply(&payload)?),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-call",
            )),
        }
    }
}

/// Token of each loop's waker registration.
const TOKEN_WAKER: Token = Token(0);
/// Token of the listener registration (loop 0 only).
const TOKEN_LISTENER: Token = Token(1);
/// First token handed to an accepted connection.
const TOKEN_CONN_BASE: usize = 2;
/// Read chunk size per readiness wakeup.
const READ_CHUNK: usize = 64 * 1024;

/// How many `READ_CHUNK`-sized reads one readiness event may consume
/// before the event loop takes back control to flush replies and serve
/// other connections. See `read_conn` for why this bound must exist.
const MAX_READS_PER_EVENT: usize = 4;
/// Outbound bytes a connection may fall behind before it is dropped as
/// a dead or stalled reader. Generous: a full read burst's worth of
/// replies for thousands of sessions fits in a fraction of this.
pub const OUTBUF_CAP: usize = 4 << 20;

/// Tuning knobs of a [`ReactorServer`].
#[derive(Clone, Debug)]
pub struct ReactorConfig {
    /// Event-loop threads. Each owns one epoll instance; connections
    /// are assigned round-robin at accept time. Two loops saturate the
    /// guard DFA on small machines; more only help past several
    /// thousand *active* (not merely resident) connections.
    pub loops: usize,
    /// Outbound bytes a connection may fall behind before it is cut as
    /// a slow consumer ([`ConnEvictReason::SlowConsumer`]). Defaults to
    /// [`OUTBUF_CAP`]; tests shrink it to force the eviction path.
    pub outbuf_cap: usize,
    /// Per-connection session cap and read deadline.
    pub limits: ConnLimits,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            loops: 2,
            outbuf_cap: OUTBUF_CAP,
            limits: ConnLimits::default(),
        }
    }
}

/// Outbound bytes of one connection, with partial-write tracking.
#[derive(Default)]
struct OutBuf {
    buf: Vec<u8>,
    /// Flushed prefix of `buf` (partial-write tracking).
    start: usize,
}

impl OutBuf {
    fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    fn compact(&mut self) {
        if self.start > 0 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

/// The cross-thread face of one event loop: how the acceptor hands it
/// connections and how [`ReactorServer::stop`] stops it.
struct LoopShared {
    waker: Waker,
    /// Connections accepted but not yet registered on this loop.
    inbox: Mutex<Vec<TcpStream>>,
    stop: AtomicBool,
}

/// Per-connection state owned by its event loop.
struct ReactorConn {
    stream: TcpStream,
    frames: FrameBuffer,
    out: OutBuf,
    /// Whether the registration currently includes `EPOLLOUT`.
    write_interest: bool,
    /// Live sessions on this connection, for the per-connection cap.
    sessions: ConnSessions,
    /// First byte of an unfinished inbound message, for the read
    /// deadline sweep.
    mid_since: Option<Instant>,
    /// Frames decoded from the current readiness event, reused across
    /// events.
    batch: Vec<Frame>,
    /// Admitted run being accumulated for [`Gateway::call_batch`].
    admitted: Vec<Frame>,
    /// Session-grouping scratch for [`Gateway::call_batch`].
    scratch: BatchScratch,
}

/// A non-blocking TCP acceptor in front of a gateway: all connections
/// are driven by a fixed pool of epoll event-loop threads, so the
/// thread count is constant no matter how many clients — or how many
/// multiplexed sessions per client — are live. See the module docs for
/// the full data path.
pub struct ReactorServer {
    addr: SocketAddr,
    loops: Vec<Arc<LoopShared>>,
    handles: Vec<JoinHandle<()>>,
}

impl ReactorServer {
    /// Binds `addr` and serves `gateway` from `cfg.loops` event-loop
    /// threads until [`ReactorServer::stop`].
    pub fn bind<A: ToSocketAddrs>(
        gateway: Gateway,
        addr: A,
        cfg: ReactorConfig,
    ) -> io::Result<ReactorServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let n = cfg.loops.max(1);
        let mut polls = Vec::with_capacity(n);
        let mut loops = Vec::with_capacity(n);
        for _ in 0..n {
            let poll = Poll::new()?;
            let waker = Waker::new(&poll, TOKEN_WAKER)?;
            polls.push(poll);
            loops.push(Arc::new(LoopShared {
                waker,
                inbox: Mutex::new(Vec::new()),
                stop: AtomicBool::new(false),
            }));
        }

        let mut handles = Vec::with_capacity(n);
        let next = Arc::new(AtomicUsize::new(0));
        let mut listener = Some(listener);
        for (i, poll) in polls.into_iter().enumerate() {
            let gateway = gateway.clone();
            let shared = Arc::clone(&loops[i]);
            // Loop 0 owns the listener and hands connections to peers.
            let listener = if i == 0 {
                let l = listener.take().expect("listener assigned once");
                poll.register(l.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
                Some(l)
            } else {
                None
            };
            let peers: Vec<Arc<LoopShared>> = loops.clone();
            let next = Arc::clone(&next);
            let cfg = cfg.clone();
            handles.push(std::thread::spawn(move || {
                event_loop(
                    &gateway,
                    &poll,
                    &shared,
                    listener.as_ref(),
                    &peers,
                    &next,
                    &cfg,
                );
            }));
        }
        Ok(ReactorServer {
            addr,
            loops,
            handles,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops every event loop and joins it; live connections are
    /// dropped (their sessions stay in the gateway until evicted).
    pub fn stop(&mut self) {
        for l in &self.loops {
            l.stop.store(true, Ordering::Release);
            let _ = l.waker.wake();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ReactorServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One event-loop thread: readiness events in, gateway batches and
/// reply flushes out. Runs until its `LoopShared::stop` flag is set.
fn event_loop(
    gateway: &Gateway,
    poll: &Poll,
    shared: &Arc<LoopShared>,
    listener: Option<&TcpListener>,
    peers: &[Arc<LoopShared>],
    next: &AtomicUsize,
    cfg: &ReactorConfig,
) {
    let mut events = Events::with_capacity(512);
    let mut conns: HashMap<usize, ReactorConn> = HashMap::new();
    let mut next_token = TOKEN_CONN_BASE;
    let mut chunk = vec![0u8; READ_CHUNK];
    // Read-deadline sweep cadence: often enough to cut a dripper soon
    // after its deadline, rarely enough to stay off the hot path even
    // when readiness events keep the loop from ever hitting the poll
    // timeout.
    let deadline = cfg.limits.read_deadline;
    let sweep_every = (deadline / 4).clamp(Duration::from_millis(25), Duration::from_secs(1));
    let mut last_sweep = Instant::now();
    loop {
        // The timeout is a safety net for a lost wakeup; every real
        // transition arrives as a readiness event or a waker nudge.
        if poll
            .poll(&mut events, Some(Duration::from_millis(100)))
            .is_err()
        {
            break;
        }
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let mut accept_burst = false;
        for ev in events.iter() {
            match ev.token() {
                TOKEN_WAKER => shared.waker.drain(),
                TOKEN_LISTENER => accept_burst = true,
                Token(t) => {
                    let keep = match conns.get_mut(&t) {
                        // A stale event for a connection dropped earlier
                        // in this batch.
                        None => continue,
                        Some(conn) => {
                            let mut keep = true;
                            if ev.is_writable() {
                                keep = flush_conn(gateway, poll, Token(t), conn, cfg.outbuf_cap)
                                    .is_ok();
                            }
                            if keep && ev.is_readable() {
                                keep = read_conn(gateway, conn, &mut chunk, cfg);
                                // Flush the batch's replies right away
                                // — even before a cut, so a
                                // negotiation refusal reaches the peer.
                                keep = flush_conn(gateway, poll, Token(t), conn, cfg.outbuf_cap)
                                    .is_ok()
                                    && keep;
                            }
                            keep
                        }
                    };
                    if !keep {
                        drop_conn(gateway, poll, &mut conns, t);
                    }
                }
            }
        }
        if accept_burst {
            if let Some(listener) = listener {
                accept_all(
                    listener,
                    peers,
                    next,
                    shared,
                    &mut conns,
                    &mut next_token,
                    poll,
                    gateway,
                );
            }
        }
        // Register connections handed over by the acceptor loop.
        let handed: Vec<TcpStream> = std::mem::take(&mut *shared.inbox.lock().unwrap());
        for stream in handed {
            register_conn(poll, &mut conns, &mut next_token, stream, gateway);
        }
        // Read-deadline sweep: cut connections stuck mid-frame.
        if !deadline.is_zero() && last_sweep.elapsed() >= sweep_every {
            last_sweep = Instant::now();
            let expired: Vec<usize> = conns
                .iter()
                .filter(|(_, c)| c.mid_since.is_some_and(|s| s.elapsed() >= deadline))
                .map(|(&t, _)| t)
                .collect();
            for t in expired {
                gateway
                    .runtime_stats()
                    .note_conn_evict(ConnEvictReason::SlowRead);
                drop_conn(gateway, poll, &mut conns, t);
            }
        }
    }
    // Shutdown: deregister and drop everything this loop owns.
    let tokens: Vec<usize> = conns.keys().copied().collect();
    for t in tokens {
        drop_conn(gateway, poll, &mut conns, t);
    }
}

/// Accepts until the listener would block, assigning each connection
/// round-robin over all loops (self included).
#[allow(clippy::too_many_arguments)]
fn accept_all(
    listener: &TcpListener,
    peers: &[Arc<LoopShared>],
    next: &AtomicUsize,
    shared: &Arc<LoopShared>,
    conns: &mut HashMap<usize, ReactorConn>,
    next_token: &mut usize,
    poll: &Poll,
    gateway: &Gateway,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                gateway.runtime_stats().note_conn_open();
                let target = next.fetch_add(1, Ordering::Relaxed) % peers.len();
                if Arc::ptr_eq(&peers[target], shared) {
                    register_conn(poll, conns, next_token, stream, gateway);
                } else {
                    peers[target].inbox.lock().unwrap().push(stream);
                    let _ = peers[target].waker.wake();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Puts one accepted stream under this loop's epoll and conn table.
fn register_conn(
    poll: &Poll,
    conns: &mut HashMap<usize, ReactorConn>,
    next_token: &mut usize,
    stream: TcpStream,
    gateway: &Gateway,
) {
    let token = *next_token;
    *next_token += 1;
    let ok = stream.set_nodelay(true).is_ok()
        && stream.set_nonblocking(true).is_ok()
        && poll
            .register(stream.as_raw_fd(), Token(token), Interest::READABLE)
            .is_ok();
    if !ok {
        gateway.runtime_stats().note_conn_close();
        return;
    }
    conns.insert(
        token,
        ReactorConn {
            stream,
            frames: FrameBuffer::new(),
            out: OutBuf::default(),
            write_interest: false,
            sessions: ConnSessions::default(),
            mid_since: None,
            batch: Vec::new(),
            admitted: Vec::new(),
            scratch: BatchScratch::new(),
        },
    );
}

/// Drains the socket's readable bytes into the connection's
/// [`FrameBuffer`] and runs every complete frame through
/// [`Gateway::call_batch`]. Returns `false` when the connection is
/// finished (EOF, error, or protocol damage); frames decoded before the
/// damage are still answered either way.
fn read_conn(
    gateway: &Gateway,
    conn: &mut ReactorConn,
    chunk: &mut [u8],
    cfg: &ReactorConfig,
) -> bool {
    let mut keep = read_into_batch(gateway, conn, chunk);
    if !conn.batch.is_empty() {
        keep = process_batch(gateway, conn, cfg) && keep;
        conn.batch.clear();
    }
    keep
}

/// Read half: pulls bounded chunks into the frame buffer and
/// decodes complete frames into `conn.batch` without touching the
/// gateway. Returns whether the connection stays registered.
fn read_into_batch(gateway: &Gateway, conn: &mut ReactorConn, chunk: &mut [u8]) -> bool {
    // Bounded work per readiness event. A peer that writes continuously
    // would otherwise keep this loop inside `read` forever — starving
    // every other connection on the loop AND the flush that enforces
    // `outbuf_cap`, so its reply backlog could grow without bound while
    // it never reads. Registrations are level-triggered, so leftover
    // bytes re-report on the next poll, after the flush ran.
    let mut reads = 0usize;
    loop {
        if reads == MAX_READS_PER_EVENT {
            return true;
        }
        reads += 1;
        match conn.stream.read(chunk) {
            // EOF. A partial frame left in the buffer is a torn stream;
            // either way the connection is done after the frames
            // already decoded are processed.
            Ok(0) => {
                if conn.frames.is_mid_message() {
                    gateway
                        .runtime_stats()
                        .note_conn_evict(ConnEvictReason::Protocol);
                }
                return false;
            }
            Ok(n) => {
                gateway.runtime_stats().note_bytes_in(n);
                conn.frames.extend(&chunk[..n]);
                loop {
                    match conn.frames.next_frame() {
                        Ok(Some(frame)) => conn.batch.push(frame),
                        Ok(None) => break,
                        // Adversarial or corrupt input: cut the
                        // connection.
                        Err(_) => {
                            gateway
                                .runtime_stats()
                                .note_conn_evict(ConnEvictReason::Protocol);
                            return false;
                        }
                    }
                }
                // Track when the tail of an unfinished frame first
                // appeared; the event loop's sweep cuts the connection
                // if it lingers past the read deadline. Partial
                // progress does not reset the clock — that would let a
                // dripper stay alive one byte at a time.
                if conn.frames.is_mid_message() {
                    conn.mid_since.get_or_insert_with(Instant::now);
                } else {
                    conn.mid_since = None;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// Runs one readiness event's decoded frames through the
/// connection-level gate and [`Gateway::call_batch`]: one
/// session-grouped DFA pass, replies appended straight to the
/// connection's outbound buffer, which the caller flushes once
/// afterwards. Returns `false` when the connection must be cut (hello
/// negotiation refused); the refusal reply is already in the buffer.
fn process_batch(gateway: &Gateway, conn: &mut ReactorConn, cfg: &ReactorConfig) -> bool {
    let ReactorConn {
        batch,
        admitted,
        scratch,
        sessions,
        out,
        ..
    } = conn;
    admitted.clear();
    for &frame in batch.iter() {
        let (reply, cut) = match sessions.gate(gateway, &frame, &cfg.limits) {
            Gate::Forward => {
                admitted.push(frame);
                continue;
            }
            Gate::Reply(reply) => (reply, false),
            Gate::Refuse(reply) => (reply, true),
        };
        // Answer the admitted run first so a bounced session's earlier
        // replies keep their order in the buffer.
        gateway.call_batch(admitted, scratch, &mut out.buf, &mut |_| {});
        admitted.clear();
        encode_reply(&reply, &mut out.buf);
        if cut {
            return false;
        }
    }
    gateway.call_batch(admitted, scratch, &mut out.buf, &mut |_| {});
    true
}

/// Writes as much buffered output as the socket takes. Registers
/// `EPOLLOUT` interest while bytes remain, drops it once drained, and
/// evicts the connection as a counted slow consumer when the backlog
/// exceeds `outbuf_cap`.
fn flush_conn(
    gateway: &Gateway,
    poll: &Poll,
    token: Token,
    conn: &mut ReactorConn,
    outbuf_cap: usize,
) -> io::Result<()> {
    let out = &mut conn.out;
    while out.pending() > 0 {
        let start = out.start;
        match (&conn.stream).write(&out.buf[start..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                out.start += n;
                gateway.runtime_stats().note_bytes_out(n);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if out.pending() == 0 {
        out.buf.clear();
        out.start = 0;
        if conn.write_interest {
            poll.reregister(conn.stream.as_raw_fd(), token, Interest::READABLE)?;
            conn.write_interest = false;
        }
    } else {
        if out.pending() > outbuf_cap {
            gateway
                .runtime_stats()
                .note_conn_evict(ConnEvictReason::SlowConsumer);
            return Err(io::Error::other(
                "reactor connection outbound backlog over cap",
            ));
        }
        out.compact();
        if !conn.write_interest {
            poll.reregister(
                conn.stream.as_raw_fd(),
                token,
                Interest::READABLE.add(Interest::WRITABLE),
            )?;
            conn.write_interest = true;
        }
    }
    Ok(())
}

/// Deregisters and forgets one connection.
fn drop_conn(
    gateway: &Gateway,
    poll: &Poll,
    conns: &mut HashMap<usize, ReactorConn>,
    token: usize,
) {
    if let Some(conn) = conns.remove(&token) {
        let _ = poll.deregister(conn.stream.as_raw_fd());
        gateway.runtime_stats().note_conn_close();
    }
}

/// A connection carrying frames from many sessions at once: queue
/// frames, then [`MuxTransport::exchange`] to flush them and collect
/// whatever replies have arrived. Reply attribution is by the session
/// id in each reply header — valid because the driver keeps at most
/// one outstanding frame per session.
pub trait MuxTransport {
    /// Buffers `frame` for the next exchange.
    fn queue(&mut self, frame: &Frame) -> io::Result<()>;

    /// Flushes queued frames and appends decoded replies to `replies`.
    /// With `wait` true, blocks until at least one reply arrives;
    /// otherwise returns once the outbound bytes are flushed (or would
    /// block) and the readable bytes are drained.
    fn exchange(&mut self, wait: bool, replies: &mut Vec<Reply>) -> io::Result<()>;
}

/// Client side of the multiplexed TCP transport: one non-blocking
/// socket, frames batch-encoded into one outbound buffer, replies
/// batch-decoded through a [`ReplyBuffer`]. Blocks (when asked to) on
/// its own single-fd epoll instance rather than spinning.
pub struct MuxClient {
    stream: TcpStream,
    poll: Poll,
    out: OutBuf,
    replies: ReplyBuffer,
    chunk: Vec<u8>,
}

impl MuxClient {
    /// Connects to a serving gateway at `addr`.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<MuxClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let poll = Poll::new()?;
        poll.register(stream.as_raw_fd(), Token(0), Interest::READABLE)?;
        Ok(MuxClient {
            stream,
            poll,
            out: OutBuf::default(),
            replies: ReplyBuffer::new(),
            chunk: vec![0u8; READ_CHUNK],
        })
    }

    /// Connects and negotiates: sends a hello carrying `table_hash`
    /// (version unpinned) and fails with [`io::ErrorKind::ConnectionRefused`]
    /// unless the server acks it before anything else.
    pub fn connect_negotiated<A: ToSocketAddrs>(addr: A, table_hash: u64) -> io::Result<MuxClient> {
        let mut conn = MuxClient::connect(addr)?;
        conn.queue(&Frame::Hello {
            session: 0,
            table_hash,
            version: 0,
        })?;
        let mut replies = Vec::new();
        conn.exchange(true, &mut replies)?;
        match replies.first() {
            Some(Reply::HelloAck { .. }) => Ok(conn),
            Some(Reply::Rejected { reason, .. }) => Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("server refused hello: {reason}"),
            )),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected hello reply: {other:?}"),
            )),
        }
    }

    /// Writes until the socket would block; true when fully flushed.
    fn try_flush(&mut self) -> io::Result<bool> {
        while self.out.pending() > 0 {
            let start = self.out.start;
            match (&self.stream).write(&self.out.buf[start..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out.start += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.out.compact();
                    return Ok(false);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.out.buf.clear();
        self.out.start = 0;
        Ok(true)
    }

    /// Reads until the socket would block, decoding replies. Returns
    /// how many replies were appended.
    fn try_read(&mut self, replies: &mut Vec<Reply>) -> io::Result<usize> {
        let mut got = 0;
        loop {
            match self.stream.read(&mut self.chunk) {
                Ok(0) => {
                    return if self.replies.is_mid_message() {
                        Err(self.replies.torn_error().into())
                    } else {
                        Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server closed the connection with frames outstanding",
                        ))
                    };
                }
                Ok(n) => {
                    self.replies.extend(&self.chunk[..n]);
                    while let Some(r) = self.replies.next_reply()? {
                        replies.push(r);
                        got += 1;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(got),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

impl MuxTransport for MuxClient {
    fn queue(&mut self, frame: &Frame) -> io::Result<()> {
        encode_frame(frame, &mut self.out.buf);
        Ok(())
    }

    fn exchange(&mut self, wait: bool, replies: &mut Vec<Reply>) -> io::Result<()> {
        let mut events = Events::with_capacity(4);
        loop {
            let flushed = self.try_flush()?;
            let got = self.try_read(replies)?;
            if got > 0 || (!wait && flushed) {
                return Ok(());
            }
            let interest = if flushed {
                Interest::READABLE
            } else {
                Interest::READABLE.add(Interest::WRITABLE)
            };
            self.poll
                .reregister(self.stream.as_raw_fd(), Token(0), interest)?;
            self.poll
                .poll(&mut events, Some(Duration::from_millis(100)))?;
        }
    }
}

/// In-process [`MuxTransport`]: frames go through the real encoder and
/// decoder and accumulate until [`MuxTransport::exchange`] runs the
/// whole burst through [`Gateway::call_batch`] and decodes the reply
/// bytes from a reused wire buffer. Every queued frame is answered by
/// the exchange that flushes it. The socket-free counterpart of
/// [`MuxClient`] for tests and benchmarks.
pub struct LoopbackMux {
    gateway: Gateway,
    buf: Vec<u8>,
    /// Decoded frames awaiting the next exchange.
    queued: Vec<Frame>,
    /// Session-grouping scratch for [`Gateway::call_batch`].
    scratch: BatchScratch,
    /// Reused reply wire buffer.
    wire: Vec<u8>,
    /// Reused reply decoder.
    rdec: ReplyBuffer,
}

impl LoopbackMux {
    /// A multiplexed loopback connection onto `gateway`.
    pub fn new(gateway: Gateway) -> LoopbackMux {
        LoopbackMux {
            gateway,
            buf: Vec::with_capacity(32),
            queued: Vec::new(),
            scratch: BatchScratch::new(),
            wire: Vec::new(),
            rdec: ReplyBuffer::new(),
        }
    }
}

impl MuxTransport for LoopbackMux {
    fn queue(&mut self, frame: &Frame) -> io::Result<()> {
        self.buf.clear();
        encode_frame(frame, &mut self.buf);
        self.queued.push(decode_frame(&self.buf[4..])?);
        Ok(())
    }

    /// Never blocks: every queued frame is answered by the exchange
    /// that flushes it, so `wait` has nothing to wait for.
    fn exchange(&mut self, _wait: bool, replies: &mut Vec<Reply>) -> io::Result<()> {
        self.wire.clear();
        self.gateway
            .call_batch(&self.queued, &mut self.scratch, &mut self.wire, &mut |_| {});
        self.queued.clear();
        self.rdec.extend(&self.wire);
        while let Some(r) = self.rdec.next_reply()? {
            replies.push(r);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::RejectReason;
    use crate::gateway::GatewayConfig;
    use protoquot_spec::{EventId, Spec, SpecBuilder};

    fn relay_gateway() -> Gateway {
        let mut b = SpecBuilder::new("impl");
        let s0 = b.state("s0");
        let s1 = b.state("s1");
        b.ext(s0, "acc", s1);
        b.ext(s1, "del", s0);
        let implementation: Spec = b.build().unwrap();
        let mut b = SpecBuilder::new("service");
        let u0 = b.state("u0");
        let u1 = b.state("u1");
        b.ext(u0, "acc", u1);
        b.ext(u1, "del", u0);
        let service = b.build().unwrap();
        Gateway::new(&[&implementation], &service, GatewayConfig::default()).unwrap()
    }

    #[test]
    fn loopback_round_trips_through_the_codec() {
        let gw = relay_gateway();
        let mut conn = LoopbackConn::new(gw.clone());
        let acc = gw.codec().event_frame(7, EventId::new("acc")).unwrap();
        assert_eq!(conn.call(&acc).unwrap(), Reply::Accepted { session: 7 });
        let bad = gw.codec().event_frame(7, EventId::new("acc")).unwrap();
        assert_eq!(
            conn.call(&bad).unwrap(),
            Reply::Rejected {
                session: 7,
                reason: RejectReason::NotATrace,
            }
        );
        gw.drain();
    }

    #[test]
    fn reactor_serves_concurrent_lockstep_clients() {
        let gw = relay_gateway();
        let mut server =
            ReactorServer::bind(gw.clone(), "127.0.0.1:0", ReactorConfig::default()).unwrap();
        let addr = server.local_addr();
        let acc = EventId::new("acc");
        let del = EventId::new("del");
        std::thread::scope(|scope| {
            for session in 0..4u64 {
                let codec = gw.codec().clone();
                scope.spawn(move || {
                    let mut conn = TcpConn::connect(addr).unwrap();
                    for _ in 0..20 {
                        let f = codec.event_frame(session, acc).unwrap();
                        assert_eq!(conn.call(&f).unwrap(), Reply::Accepted { session });
                        let f = codec.event_frame(session, del).unwrap();
                        assert_eq!(conn.call(&f).unwrap(), Reply::Accepted { session });
                    }
                    let close = Frame::Close { session };
                    assert_eq!(conn.call(&close).unwrap(), Reply::Accepted { session });
                });
            }
        });
        server.stop();
        let snap = gw.stats();
        assert_eq!(snap.accepted, 4 * 40);
        assert_eq!(snap.convictions, 0);
        assert_eq!(snap.connections_opened, 4);
        assert_eq!(snap.connections_closed, 4);
        gw.drain();
    }

    /// Many sessions multiplexed over one reactor connection: every
    /// reply lands on the session its header names, and the guard sees
    /// each session's frames in order.
    #[test]
    fn reactor_multiplexes_sessions_over_one_connection() {
        let gw = relay_gateway();
        let mut server = ReactorServer::bind(
            gw.clone(),
            "127.0.0.1:0",
            ReactorConfig {
                loops: 1,
                ..ReactorConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let codec = gw.codec().clone();
        let acc = EventId::new("acc");
        let del = EventId::new("del");

        let sessions: Vec<u64> = (0..64).collect();
        let mut mux = MuxClient::connect(addr).unwrap();
        // Round-robin: every session sends acc, then every session del,
        // for 10 rounds — all interleaved on one socket.
        let mut outstanding = 0usize;
        let mut replies = Vec::new();
        let mut accepted = std::collections::HashMap::new();
        for round in 0..20 {
            let ev = if round % 2 == 0 { acc } else { del };
            for &s in &sessions {
                mux.queue(&codec.event_frame(s, ev).unwrap()).unwrap();
                outstanding += 1;
            }
            while outstanding > 0 {
                mux.exchange(true, &mut replies).unwrap();
                for r in replies.drain(..) {
                    match r {
                        Reply::Accepted { session } => {
                            *accepted.entry(session).or_insert(0u32) += 1;
                        }
                        other => panic!("unexpected reply {other:?}"),
                    }
                    outstanding -= 1;
                }
            }
        }
        for &s in &sessions {
            assert_eq!(accepted[&s], 20, "session {s} reply attribution");
        }
        server.stop();
        let snap = gw.stats();
        assert_eq!(snap.accepted, 64 * 20);
        assert_eq!(snap.convictions, 0);
        gw.drain();
    }

    /// Garbage bytes on one connection cut that connection — and only
    /// that connection; the server keeps serving others.
    #[test]
    fn reactor_drops_corrupt_connections_and_survives() {
        let gw = relay_gateway();
        let mut server = ReactorServer::bind(
            gw.clone(),
            "127.0.0.1:0",
            ReactorConfig {
                loops: 1,
                ..ReactorConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();

        // A client that speaks garbage: oversized length prefix.
        let mut evil = TcpStream::connect(addr).unwrap();
        evil.write_all(&[0xFF; 32]).unwrap();
        // The server must cut it: reads eventually see EOF/reset.
        evil.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut sink = [0u8; 16];
        loop {
            match evil.read(&mut sink) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(_) => break,
            }
        }

        // A well-behaved client still gets served.
        let codec = gw.codec().clone();
        let mut conn = TcpConn::connect(addr).unwrap();
        let f = codec.event_frame(1, EventId::new("acc")).unwrap();
        assert_eq!(conn.call(&f).unwrap(), Reply::Accepted { session: 1 });
        server.stop();
        gw.drain();
    }

    /// A client that dies mid-frame (torn stream) is dropped without
    /// taking the loop down.
    #[test]
    fn reactor_survives_torn_streams() {
        let gw = relay_gateway();
        let mut server = ReactorServer::bind(
            gw.clone(),
            "127.0.0.1:0",
            ReactorConfig {
                loops: 1,
                ..ReactorConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let codec = gw.codec().clone();

        let mut torn = TcpStream::connect(addr).unwrap();
        let mut bytes = Vec::new();
        encode_frame(
            &codec.event_frame(5, EventId::new("acc")).unwrap(),
            &mut bytes,
        );
        torn.write_all(&bytes[..bytes.len() / 2]).unwrap();
        drop(torn);

        let mut conn = TcpConn::connect(addr).unwrap();
        let f = codec.event_frame(2, EventId::new("acc")).unwrap();
        assert_eq!(conn.call(&f).unwrap(), Reply::Accepted { session: 2 });
        server.stop();
        gw.drain();
    }

    #[test]
    fn loopback_mux_interleaves_sessions() {
        let gw = relay_gateway();
        let codec = gw.codec().clone();
        let mut mux = LoopbackMux::new(gw.clone());
        let acc = EventId::new("acc");
        let mut outstanding = 0usize;
        for s in 0..16u64 {
            mux.queue(&codec.event_frame(s, acc).unwrap()).unwrap();
            outstanding += 1;
        }
        let mut seen = std::collections::HashSet::new();
        let mut replies = Vec::new();
        while outstanding > 0 {
            mux.exchange(true, &mut replies).unwrap();
            for r in replies.drain(..) {
                assert!(matches!(r, Reply::Accepted { .. }));
                assert!(seen.insert(r.session()), "duplicate reply for {r:?}");
                outstanding -= 1;
            }
        }
        assert_eq!(seen.len(), 16);
        gw.drain();
    }

    /// Strict negotiation: a negotiated client is served, a mismatched
    /// hash is refused at connect, and a legacy no-hello peer gets one
    /// counted `VersionMismatch` and is cut.
    #[test]
    fn strict_hello_gates_the_reactor() {
        let acc = EventId::new("acc");
        let gw = relay_gateway();
        let hash = gw.table_hash();
        let limits = ConnLimits {
            require_hello: true,
            ..ConnLimits::default()
        };
        let mut server = ReactorServer::bind(
            gw.clone(),
            "127.0.0.1:0",
            ReactorConfig {
                limits,
                ..ReactorConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let f = gw.codec().event_frame(1, acc).unwrap();
        // A negotiated client is served normally.
        let mut conn = TcpConn::connect_negotiated(addr, hash).unwrap();
        assert_eq!(conn.call(&f).unwrap(), Reply::Accepted { session: 1 });
        // A peer speaking a different event table never gets in.
        let err = match TcpConn::connect_negotiated(addr, hash ^ 1) {
            Err(e) => e,
            Ok(_) => panic!("mismatched table hash must be refused at hello"),
        };
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        // A legacy peer that skips the hello is bounced and cut.
        let mut legacy = TcpConn::connect(addr).unwrap();
        assert_eq!(
            legacy.call(&f).unwrap(),
            Reply::Rejected {
                session: 1,
                reason: RejectReason::VersionMismatch,
            }
        );
        // The negotiated mux shape works against the same server.
        let mut mux = MuxClient::connect_negotiated(addr, hash).unwrap();
        let f2 = gw.codec().event_frame(2, acc).unwrap();
        mux.queue(&f2).unwrap();
        let mut replies = Vec::new();
        mux.exchange(true, &mut replies).unwrap();
        assert_eq!(replies, vec![Reply::Accepted { session: 2 }]);
        server.stop();
        let snap = gw.stats();
        assert!(
            snap.rejects.contains(&("version_mismatch", 2)),
            "{:?}",
            snap.rejects
        );
        gw.drain();
    }
}
