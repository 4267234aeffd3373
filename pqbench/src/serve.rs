//! Serving a derived converter: the closed-loop client of the two
//! serve workloads, and the layer ladder that replays its frames.
//!
//! Client and server share the process; frames cross loopback TCP.
//! One client thread holds at most one connection at a time and waits
//! for every reply before sending more:
//!
//! * [`Mode::Mux`] — one negotiated `MuxClient` carries
//!   [`MUX_SESSIONS`] concurrent sessions; each round queues one frame
//!   per session and waits for all replies. One exchange is a round.
//! * [`Mode::Lockstep`] — one blocking `TcpConn` at a time carries
//!   [`LOCKSTEP_POOL`] sessions in turn, one frame outstanding, then is
//!   dropped and a new one negotiated. One exchange is a frame.
//!
//! The server's internals cannot be spanned from outside, so the
//! [`ladder`] replays the same frames through rungs of increasing depth
//! and a layer's self time is the gap between adjacent rungs:
//! R0 `SessionGuard::observe` on decoded indices, R1
//! `Gateway::call_batch` on in-memory frames, R2 `LoopbackMux` (adds
//! the codec), and the live run over the reactor on top.

use crate::inputs::{session_id, Script, LOCKSTEP_POOL, MUX_SESSIONS};
use crate::measure::{median, Windows};
use crate::metrics::Tally;
use crate::tracing::{close, open, Tracer, ROOT};
use protoquot_runtime::{
    BatchScratch, Conn, Frame, Gateway, GatewayConfig, GuardProgram, LoopbackMux, MuxClient,
    MuxTransport, Reply, SessionGuard, TcpConn,
};
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the client drives the gateway.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Many sessions per connection, one frame per session per round.
    Mux,
    /// One frame outstanding, sessions in turn, a connection per
    /// [`LOCKSTEP_POOL`] sessions.
    Lockstep,
}

/// What one measured segment saw.
pub struct Segment {
    /// Round-trip time of every exchange, µs.
    pub rtt_us: Vec<f64>,
    /// Frames sent.
    pub frames: u64,
    /// Wall time of the segment.
    pub elapsed: Duration,
    /// Accepted events and exchange latencies per ~1 s window.
    pub windows: Windows,
}

impl Segment {
    fn new(start: Instant) -> Segment {
        Segment {
            rtt_us: Vec::new(),
            frames: 0,
            elapsed: Duration::ZERO,
            windows: Windows::new(start),
        }
    }

    /// Wall nanoseconds per frame.
    pub fn ns_per_frame(&self) -> f64 {
        self.elapsed.as_nanos() as f64 / self.frames.max(1) as f64
    }
}

enum Transport {
    Mux(MuxClient),
    Lockstep(Option<TcpConn>),
}

/// The benchmark's single client.
pub struct Client {
    transport: Transport,
    addr: SocketAddr,
    table_hash: u64,
    seed: u64,
    pool: Vec<Script>,
    /// Next session index (lockstep) or generation (mux).
    next: u64,
    /// Lockstep: sessions sent on the current connection.
    on_conn: usize,
    /// Mux: round within the current generation.
    round: usize,
    /// Mux: the generation's session ids and scripts, and the wrapping
    /// sum of the ids, which every round's replies must reproduce.
    ids: Vec<u64>,
    scripts: Vec<usize>,
    id_sum: u64,
    replies: Vec<Reply>,
    /// Request id of the next exchange.
    req: u64,
    /// Frames sent and failed, over every segment.
    pub tally: Tally,
    /// Planted events sent; each must convict.
    pub planted: u64,
}

impl Client {
    /// Connects and negotiates the first connection; `Ok` only after
    /// the server's HelloAck.
    pub fn connect(mode: Mode, addr: SocketAddr, table_hash: u64) -> Result<Client, String> {
        let transport = match mode {
            Mode::Mux => Transport::Mux(
                MuxClient::connect_negotiated(addr, table_hash)
                    .map_err(|e| format!("connect: {e}"))?,
            ),
            Mode::Lockstep => Transport::Lockstep(Some(
                TcpConn::connect_negotiated(addr, table_hash)
                    .map_err(|e| format!("connect: {e}"))?,
            )),
        };
        Ok(Client {
            transport,
            addr,
            table_hash,
            seed: 0,
            pool: Vec::new(),
            next: 0,
            on_conn: 0,
            round: 0,
            ids: Vec::new(),
            scripts: Vec::new(),
            id_sum: 0,
            replies: Vec::new(),
            // Above every derive pass's request id.
            req: 1 << 32,
            tally: Tally::default(),
            planted: 0,
        })
    }

    /// Loads the session scripts and the seed of the session ids.
    pub fn load(&mut self, pool: Vec<Script>, seed: u64) {
        self.pool = pool;
        self.seed = seed;
    }

    /// Runs exchanges until `until`, finishing the round or session in
    /// progress. An I/O error ends the run.
    pub fn run(&mut self, until: Instant, tracer: &mut Option<Tracer>) -> Result<Segment, String> {
        let start = Instant::now();
        let mut seg = Segment::new(start);
        while Instant::now() < until {
            match self.transport {
                Transport::Mux(_) => self.mux_round(tracer, &mut seg)?,
                Transport::Lockstep(_) => self.lockstep_session(tracer, &mut seg)?,
            }
        }
        seg.elapsed = start.elapsed();
        Ok(seg)
    }

    fn mux_round(&mut self, tracer: &mut Option<Tracer>, seg: &mut Segment) -> Result<(), String> {
        let Transport::Mux(conn) = &mut self.transport else {
            unreachable!("mux round on a lockstep client")
        };
        if self.round == 0 {
            let base = self.next * MUX_SESSIONS as u64;
            self.ids = (0..MUX_SESSIONS as u64)
                .map(|i| session_id(self.seed, base + i))
                .collect();
            self.scripts = (0..MUX_SESSIONS as u64)
                .map(|i| ((base + i) % self.pool.len() as u64) as usize)
                .collect();
            self.id_sum = self.ids.iter().fold(0u64, |a, &id| a.wrapping_add(id));
        }
        let req = self.req;
        self.req += 1;
        let round = self.round;
        let is_event = round < self.pool[self.scripts[0]].events.len();
        let t0 = Instant::now();
        let span = open(tracer, "serve.round", ROOT, req);
        let q = open(tracer, "client.queue", span, req);
        for (&id, &s) in self.ids.iter().zip(&self.scripts) {
            conn.queue(&self.pool[s].frame(id, round))
                .map_err(|e| format!("queue: {e}"))?;
        }
        close(tracer, q);
        let (mut got, mut sum, mut accepted) = (0usize, 0u64, 0u64);
        while got < MUX_SESSIONS {
            let x = open(tracer, "client.exchange", span, req);
            conn.exchange(true, &mut self.replies)
                .map_err(|e| format!("exchange: {e}"))?;
            close(tracer, x);
            for r in self.replies.drain(..) {
                got += 1;
                match r {
                    Reply::Accepted { session } => {
                        sum = sum.wrapping_add(session);
                        accepted += 1;
                    }
                    other => self.tally.fail(format!("mux round {round}: {other:?}")),
                }
            }
        }
        close(tracer, span);
        let now = Instant::now();
        self.tally.attempted += MUX_SESSIONS as u64;
        if got != MUX_SESSIONS || (accepted == MUX_SESSIONS as u64 && sum != self.id_sum) {
            self.tally.fail(format!(
                "mux round {round}: replies do not match the sessions sent"
            ));
        }
        let rtt_us = (now - t0).as_secs_f64() * 1e6;
        seg.rtt_us.push(rtt_us);
        seg.frames += MUX_SESSIONS as u64;
        let events = if is_event { accepted as f64 } else { 0.0 };
        seg.windows.add(now, events, rtt_us);
        self.round += 1;
        if self.round == self.pool[self.scripts[0]].frames() {
            self.round = 0;
            self.next += 1;
        }
        Ok(())
    }

    fn lockstep_session(
        &mut self,
        tracer: &mut Option<Tracer>,
        seg: &mut Segment,
    ) -> Result<(), String> {
        let Transport::Lockstep(slot) = &mut self.transport else {
            unreachable!("lockstep session on a mux client")
        };
        if slot.is_none() || self.on_conn == LOCKSTEP_POOL {
            *slot = None;
            let span = open(tracer, "client.connect", ROOT, self.req);
            let conn = TcpConn::connect_negotiated(self.addr, self.table_hash)
                .map_err(|e| format!("connect: {e}"))?;
            close(tracer, span);
            *slot = Some(conn);
            self.on_conn = 0;
        }
        let conn = slot.as_mut().expect("connected above");
        let k = self.next;
        self.next += 1;
        self.on_conn += 1;
        let id = session_id(self.seed, k);
        let script = &self.pool[(k % self.pool.len() as u64) as usize];
        for i in 0..script.frames() {
            let req = self.req;
            self.req += 1;
            let frame = script.frame(id, i);
            let expected = script.expected(id, i);
            let t0 = Instant::now();
            let span = open(tracer, "serve.frame", ROOT, req);
            let c = open(tracer, "client.call", span, req);
            let reply = conn.call(&frame).map_err(|e| format!("call: {e}"))?;
            close(tracer, c);
            close(tracer, span);
            let now = Instant::now();
            self.tally.attempted += 1;
            let event_accepted = i < script.events.len() && reply == expected;
            if reply != expected {
                self.tally.fail(format!(
                    "session {id:#x} frame {i}: got {reply:?}, want {expected:?}"
                ));
            } else if script.planted.is_some() && i == script.events.len() {
                self.planted += 1;
            }
            let rtt_us = (now - t0).as_secs_f64() * 1e6;
            seg.rtt_us.push(rtt_us);
            seg.frames += 1;
            let events = if event_accepted { 1.0 } else { 0.0 };
            seg.windows.add(now, events, rtt_us);
        }
        Ok(())
    }

    /// The frames of the first sessions this client sends, as the
    /// ladder replays them: `(frames, session slot of each frame,
    /// frames per exchange)` — one mux generation, or the first
    /// `lockstep_sessions` lockstep sessions.
    pub fn replay_plan(&self, lockstep_sessions: usize) -> (Vec<Frame>, Vec<u32>, usize) {
        let mut frames = Vec::new();
        let mut slots = Vec::new();
        match self.transport {
            Transport::Mux(_) => {
                let len = self.pool[0].frames();
                for round in 0..len {
                    for i in 0..MUX_SESSIONS as u64 {
                        let script = &self.pool[(i % self.pool.len() as u64) as usize];
                        frames.push(script.frame(session_id(self.seed, i), round));
                        slots.push(i as u32);
                    }
                }
                (frames, slots, MUX_SESSIONS)
            }
            Transport::Lockstep(_) => {
                for k in 0..lockstep_sessions as u64 {
                    let script = &self.pool[(k % self.pool.len() as u64) as usize];
                    for i in 0..script.frames() {
                        frames.push(script.frame(session_id(self.seed, k), i));
                        slots.push(k as u32);
                    }
                }
                (frames, slots, 1)
            }
        }
    }
}

/// Wall nanoseconds per frame of each in-process rung.
#[derive(Clone, Copy, Debug)]
pub struct Rungs {
    /// R0: `SessionGuard::observe` over decoded event indices.
    pub r0: f64,
    /// R1: `Gateway::call_batch` on in-memory frames.
    pub r1: f64,
    /// R2: `LoopbackMux`, which adds frame encode/decode and reply
    /// decode.
    pub r2: f64,
}

/// Replays `frames` (exchanges of `per_exchange` frames; `slots` names
/// each frame's session) through rungs R0–R2, each on fresh state,
/// `reps` times interleaved; reports the median per rung. Every rung
/// must accept every event except the planted ones, and convict exactly
/// the sessions that end in a planted event instead of `Close`.
pub fn ladder(
    program: &Arc<GuardProgram>,
    frames: &[Frame],
    slots: &[u32],
    per_exchange: usize,
    reps: usize,
) -> Result<Rungs, String> {
    let sessions = slots.iter().max().map_or(0, |&s| s as usize + 1);
    let closes = frames
        .iter()
        .filter(|f| matches!(f, Frame::Close { .. }))
        .count() as u64;
    // Sessions that end without Close end with their planted event.
    let convicted = sessions as u64 - closes;
    let events = frames.len() as u64 - closes;
    let (mut r0, mut r1, mut r2) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        r0.push(rung0(program, frames, slots, sessions, convicted)?);
        r1.push(rung1(
            program,
            frames,
            per_exchange,
            events - convicted,
            convicted,
        )?);
        r2.push(rung2(
            program,
            frames,
            per_exchange,
            events - convicted,
            convicted,
        )?);
    }
    Ok(Rungs {
        r0: median(&r0),
        r1: median(&r1),
        r2: median(&r2),
    })
}

fn per_frame(t: Duration, frames: usize) -> f64 {
    t.as_nanos() as f64 / frames.max(1) as f64
}

fn rung0(
    program: &Arc<GuardProgram>,
    frames: &[Frame],
    slots: &[u32],
    sessions: usize,
    convicted: u64,
) -> Result<f64, String> {
    let mut guards: Vec<SessionGuard> = (0..sessions)
        .map(|_| SessionGuard::new(Arc::clone(program)))
        .collect();
    let mut refused = 0u64;
    let t0 = Instant::now();
    for (frame, &slot) in frames.iter().zip(slots) {
        if let Frame::Event { event, .. } = *frame {
            refused += u64::from(guards[slot as usize].observe(black_box(event)).is_err());
        }
    }
    let t = t0.elapsed();
    if refused != convicted {
        return Err(format!(
            "R0 convicted {refused} frames, expected {convicted}"
        ));
    }
    Ok(per_frame(t, frames.len()))
}

fn check_gateway(rung: &str, gw: &Gateway, accepted: u64, convicted: u64) -> Result<(), String> {
    let s = gw.stats();
    if s.accepted != accepted || s.convictions != convicted {
        return Err(format!(
            "{rung} accepted {} and convicted {}, expected {accepted} and {convicted}",
            s.accepted, s.convictions
        ));
    }
    gw.drain();
    Ok(())
}

fn rung1(
    program: &Arc<GuardProgram>,
    frames: &[Frame],
    per_exchange: usize,
    accepted: u64,
    convicted: u64,
) -> Result<f64, String> {
    let gw = Gateway::with_program(Arc::clone(program), GatewayConfig::default())
        .map_err(|e| e.to_string())?;
    let mut scratch = BatchScratch::new();
    let mut out = Vec::with_capacity(per_exchange * 32);
    let mut slow = 0usize;
    let t0 = Instant::now();
    for chunk in frames.chunks(per_exchange) {
        out.clear();
        gw.call_batch(chunk, &mut scratch, &mut out, &mut |_| slow += 1);
        black_box(&out);
    }
    let t = t0.elapsed();
    if slow > 0 {
        return Err(format!("R1 sent {slow} frames down the slow path"));
    }
    check_gateway("R1", &gw, accepted, convicted)?;
    Ok(per_frame(t, frames.len()))
}

fn rung2(
    program: &Arc<GuardProgram>,
    frames: &[Frame],
    per_exchange: usize,
    accepted: u64,
    convicted: u64,
) -> Result<f64, String> {
    let gw = Gateway::with_program(Arc::clone(program), GatewayConfig::default())
        .map_err(|e| e.to_string())?;
    let mut mux = LoopbackMux::new(gw.clone());
    let mut replies = Vec::with_capacity(per_exchange);
    let t0 = Instant::now();
    for chunk in frames.chunks(per_exchange) {
        for f in chunk {
            mux.queue(f).map_err(|e| format!("R2 queue: {e}"))?;
        }
        let mut got = 0;
        while got < chunk.len() {
            mux.exchange(true, &mut replies)
                .map_err(|e| format!("R2 exchange: {e}"))?;
            got += replies.len();
            replies.clear();
        }
    }
    let t = t0.elapsed();
    drop(mux);
    check_gateway("R2", &gw, accepted, convicted)?;
    Ok(per_frame(t, frames.len()))
}
