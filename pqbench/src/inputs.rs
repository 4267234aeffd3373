//! Seeded inputs. The program under test receives only what is built
//! here: specification text for the derive side, wire frames for the
//! serve side. The same seed always builds the same inputs.

use protoquot_protocols::{exactly_once, nfa_blowup};
use protoquot_runtime::{Frame, RejectReason, Reply, WireCodec};
use protoquot_sim::{derive_seed, Action, ExternalPolicy, Runner, System};
use protoquot_spec::{compose, has_trace, Alphabet, EventId, Spec};
use protoquot_speclang::{print_source, ProblemDecl, SourceFile};

/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 0x5eed;

/// The paper's §5 machines and problems (`fig13`, `fig9`,
/// `fig9_weakened`), as committed in the repository.
pub const PAPER_SOURCE: &str = include_str!("../../specs/paper.pq");

/// Sessions multiplexed on the `serve-mux` connection.
pub const MUX_SESSIONS: usize = 256;
/// Events one `serve-mux` session replays before `Close`.
pub const MUX_TRACE_LEN: usize = 4096;
/// Distinct traces the `serve-mux` sessions draw from.
const MUX_POOL: usize = 16;
/// Events one `serve-lockstep` session sends before its last frame.
pub const LOCKSTEP_EVENTS: usize = 64;
/// Every this-many-th `serve-lockstep` session ends with a planted
/// event instead of `Close`.
pub const PLANT_EVERY: usize = 8;
/// Distinct `serve-lockstep` scripts, cycled through by session index.
pub const LOCKSTEP_POOL: usize = 64;

/// Salts keeping the independent seeded streams apart.
const SALT_SESSION: u64 = 0x5e55_1011;
const SALT_TRACE: u64 = 0x7ace;
const SALT_PLANT: u64 = 0x91a7;

/// The EXP-C1 nfa-blowup(11) problem against exactly-once delivery,
/// rendered in the spec language so that its derivation starts from
/// text like the paper's problems do.
pub fn blowup_source() -> String {
    let (b, int) = nfa_blowup(11);
    let file = SourceFile {
        specs: vec![b.with_name("NFA11"), exactly_once().with_name("S")],
        problems: vec![ProblemDecl {
            name: "nfa_blowup_11".into(),
            components: vec!["NFA11".into()],
            service: "S".into(),
            internal: int.iter().map(|e| e.name()).collect(),
        }],
    };
    print_source(&file)
}

/// The seeded, shard-spreading id of the `k`-th session of a run.
pub fn session_id(seed: u64, k: u64) -> u64 {
    derive_seed(seed ^ SALT_SESSION, k).max(1)
}

/// One session's frames: its events, then either `Close` or a planted
/// event that must convict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Script {
    /// Event-table indices of an accepted trace of `B ‖ C`.
    pub events: Vec<u16>,
    /// Sent instead of `Close`: an event that extends no trace of
    /// `B ‖ C` after `events`.
    pub planted: Option<u16>,
}

impl Script {
    /// Frames the session sends.
    pub fn frames(&self) -> usize {
        self.events.len() + 1
    }

    /// The `i`-th frame of the session `session`.
    pub fn frame(&self, session: u64, i: usize) -> Frame {
        match self.events.get(i) {
            Some(&event) => Frame::Event { session, event },
            None => match self.planted {
                Some(event) => Frame::Event { session, event },
                None => Frame::Close { session },
            },
        }
    }

    /// The reply the `i`-th frame must get.
    pub fn expected(&self, session: u64, i: usize) -> Reply {
        if i == self.events.len() && self.planted.is_some() {
            Reply::Rejected {
                session,
                reason: RejectReason::NotATrace,
            }
        } else {
            Reply::Accepted { session }
        }
    }
}

/// A derived conversion system as the client sees it: the parts whose
/// traces it replays and the wire codec it encodes them with.
pub struct Wire {
    /// `B` and the converter.
    parts: Vec<Spec>,
    /// The client's own codec over the service alphabet.
    pub codec: WireCodec,
}

impl Wire {
    /// The client side of `b ‖ converter` serving `service`.
    pub fn new(b: &Spec, converter: &Spec, service: &Spec) -> Result<Wire, String> {
        let codec = WireCodec::new(service.alphabet()).map_err(|e| e.to_string())?;
        Ok(Wire {
            parts: vec![b.clone(), converter.clone()],
            codec,
        })
    }

    fn index(&self, e: EventId) -> u16 {
        let i = self
            .codec
            .table()
            .lookup(e)
            .expect("walks emit only service events");
        u16::try_from(i).expect("the codec admits at most 65 536 events")
    }

    fn service_alphabet(&self) -> Alphabet {
        self.codec.table().events.iter().copied().collect()
    }

    /// A seeded random walk of `B ‖ C`, projected onto the wire (the
    /// service) events, `len` events long.
    pub fn walk(&self, seed: u64, len: usize) -> Result<Vec<EventId>, String> {
        let mut runner = Runner::new(
            System::new(self.parts.clone(), ExternalPolicy::AlwaysEnabled),
            seed,
        );
        let mut out = Vec::with_capacity(len);
        let mut steps = 0usize;
        while out.len() < len {
            steps += 1;
            if steps > len.saturating_mul(10_000).max(100_000) {
                return Err(format!("walk stalled after {} events", out.len()));
            }
            match runner.step_random() {
                Some(Action::Event { event, moves }) if moves.len() == 1 => out.push(event),
                Some(_) => {}
                None => return Err(format!("B ‖ C deadlocked after {} events", out.len())),
            }
        }
        Ok(out)
    }

    /// The `serve-mux` trace pool: [`MUX_POOL`] walks of
    /// [`MUX_TRACE_LEN`] events, none planted.
    pub fn mux_pool(&self, seed: u64) -> Result<Vec<Script>, String> {
        (0..MUX_POOL as u64)
            .map(|i| {
                let trace = self.walk(derive_seed(seed ^ SALT_TRACE, i), MUX_TRACE_LEN)?;
                Ok(Script {
                    events: trace.into_iter().map(|e| self.index(e)).collect(),
                    planted: None,
                })
            })
            .collect()
    }

    /// The `serve-lockstep` script pool: [`LOCKSTEP_POOL`] walks of
    /// [`LOCKSTEP_EVENTS`] events. Every [`PLANT_EVERY`]-th one keeps
    /// only the longest prefix that some service event cannot extend,
    /// and ends with that event.
    pub fn lockstep_pool(&self, seed: u64) -> Result<Vec<Script>, String> {
        let composite = compose(&self.parts[0], &self.parts[1]);
        let service = self.service_alphabet();
        (0..LOCKSTEP_POOL as u64)
            .map(|i| {
                let trace = self.walk(derive_seed(seed ^ SALT_TRACE, i), LOCKSTEP_EVENTS)?;
                let (len, planted) = if i as usize % PLANT_EVERY == PLANT_EVERY - 1 {
                    let pick = derive_seed(seed ^ SALT_PLANT, i);
                    let (len, e) = plant(&composite, &service, &trace, pick)
                        .ok_or_else(|| format!("script {i}: no prefix can be planted"))?;
                    (len, Some(self.index(e)))
                } else {
                    (trace.len(), None)
                };
                Ok(Script {
                    events: trace[..len].iter().map(|&e| self.index(e)).collect(),
                    planted,
                })
            })
            .collect()
    }
}

/// The longest prefix of `walk` — a trace of `composite` — that some
/// event of `service` extends to a non-trace, and that event, chosen
/// by `pick` among all such events in name order; `None` when no
/// prefix qualifies. Both facts are decided by `has_trace`,
/// independently of the online guard.
pub fn plant(
    composite: &Spec,
    service: &Alphabet,
    walk: &[EventId],
    pick: u64,
) -> Option<(usize, EventId)> {
    let mut events: Vec<EventId> = service.iter().collect();
    events.sort_by_key(|e| e.name());
    let mut extended = Vec::with_capacity(walk.len() + 1);
    for len in (0..=walk.len()).rev() {
        extended.clear();
        extended.extend_from_slice(&walk[..len]);
        let mut candidates = Vec::new();
        for &e in &events {
            extended.push(e);
            if !has_trace(composite, &extended) {
                candidates.push(e);
            }
            extended.pop();
        }
        if !candidates.is_empty() {
            assert!(
                has_trace(composite, &extended),
                "a planted prefix must be a trace of B ‖ C"
            );
            return Some((len, candidates[(pick % candidates.len() as u64) as usize]));
        }
    }
    None
}
