//! The in-memory ladder: a workload's request set replayed through
//! every library rung of the served path without a socket, one span
//! per line per rung.
//!
//! Spans are recorded here, around the adapter's calls into each
//! layer; nothing inside the program is instrumented. They live in a
//! preallocated vector and are written out when the run ends. A rung's
//! self time is its span minus its children; only the per-line root
//! span has children.

use crate::layers::{self, ClientMessageRef, Engine, InProcess, ServerMessage};
use crate::workloads::{Framing, Stream};
use std::time::Instant;

/// The rungs, in the order a decision climbs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Rung {
    /// Root span of one line; its self time is harness glue.
    Line = 0,
    /// Client: `wire::write_decide[_batch]`.
    EncodeRequest,
    /// Server: `wire::parse_client_message`.
    ParseRequest,
    /// Server: `Service::decide_batch_local` (cache, and the engine on
    /// a miss).
    Decide,
    /// Server: `wire::write_{batch,decision}_reply`.
    EncodeReply,
    /// Client: `wire::parse_server_message`.
    ParseReply,
    /// Engine only: `Request::new`.
    RequestNew,
    /// Engine only: `Engine::match_request`.
    Match,
    /// Engine only: `Engine::match_request_masked`.
    MatchMasked,
    /// Engine only: `Engine::document_allowlist`.
    DocGate,
    /// Engine only: `Engine::hiding_for_domain`.
    Hiding,
}

impl Rung {
    /// Every rung, in discriminant order.
    pub const ALL: [Rung; 11] = [
        Rung::Line,
        Rung::EncodeRequest,
        Rung::ParseRequest,
        Rung::Decide,
        Rung::EncodeReply,
        Rung::ParseReply,
        Rung::RequestNew,
        Rung::Match,
        Rung::MatchMasked,
        Rung::DocGate,
        Rung::Hiding,
    ];

    /// The rung's name in the span file.
    pub fn name(self) -> &'static str {
        match self {
            Rung::Line => "line",
            Rung::EncodeRequest => "wire.encode_request",
            Rung::ParseRequest => "wire.parse_request",
            Rung::Decide => "service.decide",
            Rung::EncodeReply => "wire.encode_reply",
            Rung::ParseReply => "wire.parse_reply",
            Rung::RequestNew => "abp.request_new",
            Rung::Match => "abp.match",
            Rung::MatchMasked => "abp.match_masked",
            Rung::DocGate => "abp.doc_gate",
            Rung::Hiding => "abp.hiding",
        }
    }
}

/// One recorded interval. `line` is the id of the root span that
/// caused it (root spans carry their own id).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Which rung.
    pub rung: Rung,
    /// Root span id: spans of one line share it.
    pub line: u32,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

/// Span sink. Disabled, it runs the closures and records nothing —
/// the untraced twin the tracing overhead is measured against.
pub struct Tracer {
    origin: Instant,
    /// Recorded spans, in completion order.
    pub spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    /// A tracer with room for `capacity` spans.
    pub fn new(capacity: usize, enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            enabled,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open the root span of a line; returns its id, which every span
    /// the line causes carries.
    pub fn open_line(&mut self) -> u32 {
        let id = self.spans.len() as u32;
        if self.enabled {
            let now = self.now_ns();
            self.spans.push(Span {
                rung: Rung::Line,
                line: id,
                start_ns: now,
                end_ns: now,
            });
        }
        id
    }

    /// Close a root span opened by [`Tracer::open_line`].
    pub fn close_line(&mut self, id: u32) {
        if self.enabled {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span caused by line `line`.
    #[inline]
    pub fn span<T>(&mut self, rung: Rung, line: u32, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        self.spans.push(Span {
            rung,
            line,
            start_ns,
            end_ns: self.now_ns(),
        });
        out
    }

    /// Total nanoseconds recorded for a rung, children included.
    pub fn total_ns(&self, rung: Rung) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.rung == rung)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Self time of the root spans: line time not covered by a rung.
    pub fn glue_ns(&self) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.rung != Rung::Line)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        self.total_ns(Rung::Line).saturating_sub(children)
    }
}

/// What one pass over the served rungs measured.
#[derive(Debug, Default, Clone, Copy)]
pub struct Pass {
    /// Decisions replayed.
    pub decisions: u64,
    /// Decisions that disagreed with the oracle.
    pub wrong: u64,
    /// Replies flagged as cache hits.
    pub hits: u64,
    /// Request bytes encoded (line bodies, newline excluded).
    pub request_bytes: u64,
    /// Reply bytes encoded.
    pub reply_bytes: u64,
    /// Wall time of the whole pass, ns.
    pub wall_ns: u64,
}

impl std::ops::AddAssign for Pass {
    fn add_assign(&mut self, other: Pass) {
        self.decisions += other.decisions;
        self.wrong += other.wrong;
        self.hits += other.hits;
        self.request_bytes += other.request_bytes;
        self.reply_bytes += other.reply_bytes;
        self.wall_ns += other.wall_ns;
    }
}

/// Replay `lines` lines of `stream` from `cursor` through the served
/// rungs: encode → parse → decide → encode reply → parse reply.
/// Returns the pass summary and the cursor after it.
pub fn served_pass(
    stream: &Stream,
    framing: Framing,
    cursor: usize,
    lines: usize,
    svc: &mut InProcess,
    tracer: &mut Tracer,
) -> (Pass, usize) {
    let mut pass = Pass::default();
    let mut at = cursor;
    let mut request = Vec::with_capacity(64 * 1024);
    let mut reply = Vec::with_capacity(256 * 1024);
    let started = Instant::now();
    for _ in 0..lines {
        let id = tracer.open_line();
        let reqs = &stream.requests[at..at + framing.batch];

        request.clear();
        tracer.span(Rung::EncodeRequest, id, || {
            if framing.batch == 1 {
                layers::encode_decide(&reqs[0], &mut request);
            } else {
                layers::encode_batch(reqs, &mut request);
            }
        });
        let text = std::str::from_utf8(&request).expect("the codec emits UTF-8");
        let parsed = tracer.span(Rung::ParseRequest, id, || layers::parse_request(text));
        let refs = match parsed {
            Ok(ClientMessageRef::DecideBatch(refs)) => refs,
            Ok(ClientMessageRef::Decide(r)) => vec![r],
            other => panic!("the codec cannot read its own request line: {other:?}"),
        };
        let resps = tracer.span(Rung::Decide, id, || svc.decide(&refs));
        reply.clear();
        tracer.span(Rung::EncodeReply, id, || {
            if framing.batch == 1 {
                layers::encode_decision_reply(&resps[0], &mut reply);
            } else {
                layers::encode_batch_reply(resps, &mut reply);
            }
        });
        let text = std::str::from_utf8(&reply).expect("the codec emits UTF-8");
        let answered = tracer.span(Rung::ParseReply, id, || layers::parse_reply(text));
        let resps = match answered {
            Ok(ServerMessage::Batch(resps)) => resps,
            Ok(ServerMessage::Decision(resp)) => vec![resp],
            other => panic!("the codec cannot read its own reply line: {other:?}"),
        };
        for (j, resp) in resps.iter().enumerate() {
            pass.hits += u64::from(resp.cached);
            if stream
                .expected(at + j)
                .is_some_and(|want| *want != resp.outcome)
            {
                pass.wrong += 1;
            }
        }
        pass.decisions += framing.batch as u64;
        pass.request_bytes += request.len() as u64;
        pass.reply_bytes += reply.len() as u64;
        at = (at + framing.batch) % stream.len();
        tracer.close_line(id);
    }
    pass.wall_ns = started.elapsed().as_nanos() as u64;
    (pass, at)
}

/// Subscription mask the masked rung uses for requests that carry no
/// tenant: EasyList only, the paper's "whitelist disabled" install.
const EASYLIST_ONLY: u64 = 0b01;

/// What the engine-only rungs measured.
#[derive(Debug, Default, Clone, Copy)]
pub struct EnginePass {
    /// Requests evaluated on every rung.
    pub requests: u64,
    /// Requests the union engine blocks.
    pub blocked: u64,
}

/// Time the engine's entry points over the first `sample` requests of
/// a stream, one span per rung per chunk of `chunk` requests.
pub fn engine_pass(
    stream: &Stream,
    engine: &Engine,
    sample: usize,
    chunk: usize,
    tracer: &mut Tracer,
) -> EnginePass {
    let mut pass = EnginePass::default();
    let sample = sample.min(stream.len());
    for reqs in stream.requests[..sample].chunks(chunk) {
        let id = tracer.open_line();
        let built: Vec<layers::Request> = tracer.span(Rung::RequestNew, id, || {
            reqs.iter().map(layers::request_new).collect()
        });
        pass.blocked += tracer.span(Rung::Match, id, || {
            built
                .iter()
                .filter(|r| layers::match_request(engine, r).decision == layers::Decision::Block)
                .count() as u64
        });
        let masked = tracer.span(Rung::MatchMasked, id, || {
            reqs.iter()
                .zip(&built)
                .filter(|(wire, r)| {
                    let tenant = wire.tenant.unwrap_or(EASYLIST_ONLY);
                    layers::match_request_masked(engine, r, tenant).is_allowed()
                })
                .count()
        });
        let gated = tracer.span(Rung::DocGate, id, || {
            reqs.iter()
                .filter(|r| layers::document_gate(engine, &r.document))
                .count()
        });
        let hidden = tracer.span(Rung::Hiding, id, || {
            reqs.iter()
                .map(|r| layers::hiding_for_domain(engine, &r.document))
                .sum::<usize>()
        });
        std::hint::black_box((masked, gated, hidden));
        pass.requests += reqs.len() as u64;
        tracer.close_line(id);
    }
    pass
}

/// Write the spans as JSON: rung names once, then one
/// `[rung, line, start_ns, end_ns]` row per span.
pub fn write_spans(path: &std::path::Path, tracer: &Tracer) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"rungs\":[")?;
    for (i, rung) in Rung::ALL.iter().enumerate() {
        write!(out, "{}\"{}\"", if i > 0 { "," } else { "" }, rung.name())?;
    }
    write!(
        out,
        "],\"columns\":[\"rung\",\"line\",\"start_ns\",\"end_ns\"],\"self_ns\":{{\"line\":{}",
        tracer.glue_ns()
    )?;
    for rung in &Rung::ALL[1..] {
        write!(out, ",\"{}\":{}", rung.name(), tracer.total_ns(*rung))?;
    }
    write!(out, "}},\"spans\":[")?;
    for (i, s) in tracer.spans.iter().enumerate() {
        write!(
            out,
            "{}[{},{},{},{}]",
            if i > 0 { "," } else { "" },
            s.rung as u8,
            s.line,
            s.start_ns,
            s.end_ns
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(8, true);
        t.spans.push(Span {
            rung: Rung::Line,
            line: 0,
            start_ns: 0,
            end_ns: 100,
        });
        t.spans.push(Span {
            rung: Rung::Decide,
            line: 0,
            start_ns: 10,
            end_ns: 70,
        });
        t.spans.push(Span {
            rung: Rung::ParseReply,
            line: 0,
            start_ns: 70,
            end_ns: 90,
        });
        assert_eq!(t.total_ns(Rung::Decide), 60);
        assert_eq!(t.glue_ns(), 20);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(8, false);
        assert_eq!(t.span(Rung::Match, 0, || 7), 7);
        assert!(t.spans.is_empty());
    }
}
