//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the
//! tracer's epoch), the span that caused it, and the id of the request
//! it belongs to (a derive pass, a mux round, a lockstep frame). Spans
//! stay in memory and are written as JSON lines when the run ends.
//!
//! Spans are recorded on the benchmark's single client thread, so the
//! children of one span never overlap: a span's self time is its
//! duration minus the sum of its children's.

use std::io::{self, Write};
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;

/// Spans kept per run; later ones are counted, not stored.
const MAX_SPANS: usize = 1 << 20;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.safety`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the causing span, or [`ROOT`].
    pub parent: u32,
    /// Request id shared by every span of one request.
    pub req: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span store of one traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its id for [`Tracer::end`] and for use as
    /// a parent. Past the store's capacity the span is counted as
    /// dropped and [`ROOT`] is returned.
    pub fn begin(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return ROOT;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id` (a no-op for a dropped span).
    pub fn end(&mut self, id: u32) {
        let now = self.now_ns();
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = now;
        }
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans not stored because the store was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Self time of every span, by index: its duration minus the
    /// durations of its children.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = own.get_mut(s.parent as usize) {
                *p = p.saturating_sub(s.ns());
            }
        }
        own
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        w.flush()
    }
}

/// Runs `f` inside a span when tracing, or bare when `tracer` is
/// `None`.
pub fn span<T>(
    tracer: &mut Option<Tracer>,
    name: &'static str,
    parent: u32,
    req: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        None => f(),
        Some(t) => {
            let id = t.begin(name, parent, req);
            let out = f();
            t.end(id);
            out
        }
    }
}

/// Opens a span when tracing; pair with [`close`].
pub fn open(tracer: &mut Option<Tracer>, name: &'static str, parent: u32, req: u64) -> u32 {
    tracer.as_mut().map_or(ROOT, |t| t.begin(name, parent, req))
}

/// Closes a span opened with [`open`].
pub fn close(tracer: &mut Option<Tracer>, id: u32) {
    if let Some(t) = tracer {
        t.end(id);
    }
}
