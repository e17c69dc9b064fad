//! The wire path: every line of the abpd protocol is read and written
//! here, by one of two codecs.
//!
//! The generic serde stack (vendored `serde`/`serde_json`) round-trips
//! every message through a [`serde::Content`] tree — one heap `String`
//! per key and string value, one `Vec` per object — which is fine for
//! the cold verbs (`Stats`, `Health`, `Reload`, `ReloadDelta` and their
//! replies, a few a second at most) but dominates the socket-to-socket
//! cost of a decision at service rates. So the cold messages *are*
//! serde: their payloads go through the `Serialize`/`Deserialize`
//! derives in [`protocol`](crate::protocol), behind one tagged writer
//! and one payload reader. The hot ones — `Decide`, `DecideBatch`,
//! `Decision`, `Batch`, plus the dataless verbs and `Error` — get the
//! allocation-conscious codec the server and client use on every
//! decision:
//!
//! * **Borrowed decode** ([`parse_client_message`]): parses a request
//!   line directly into [`ClientMessageRef`], whose string fields
//!   borrow from the line buffer (`Cow::Borrowed` unless a JSON escape
//!   forces unescaping). No `Content` tree, no per-field `String`.
//! * **Streaming encode** ([`write_decision_reply`] and friends):
//!   appends a reply's bytes to a caller-owned `Vec<u8>`, so a
//!   connection reuses one write buffer for its whole lifetime.
//! * **Splicing** ([`parse_client_message_spans`], [`split_decisions`],
//!   [`splice_decide_batch`], [`splice_batch_reply`]): a router that
//!   only re-groups decisions finds where each one sits in a line and
//!   copies those bytes, instead of decoding and re-encoding them. The
//!   daemon's cache does the same: an outcome is encoded once, on the
//!   miss ([`push_decision`]), and each hit copies those bytes
//!   ([`push_decision_raw`]) into the run of decision objects that
//!   [`splice_batch_reply`] / `write_decision_reply_raw` frame.
//! * **Canonical decode**: each hot object — request, activation,
//!   outcome, decision — has exactly one writer here and so one byte
//!   layout, and daemon, client library and router all write through
//!   it. So each object is first read by a *canonical reader* that
//!   consumes that layout and nothing else: a `"key":` prefix is one
//!   slice compare, an enum value one lookup in its name table,
//!   `null`/`true}`/`false}` are literals, and only the free strings
//!   (url, document, sitekey, filter, subject) go through the string
//!   reader. At the first byte the writer would not have written, it
//!   rewinds to the object's `{` and the *field walker* — any order,
//!   whitespace, escapes, unknown and absent fields — reads the object
//!   instead. The layout decides only the speed: every line is
//!   accepted or rejected (with the same message) and decodes as under
//!   the walker alone. [`split_decisions`] runs the same canonical
//!   reader building nothing, before falling back to skipping the
//!   decision as generic JSON.
//!
//! String bodies — most of a line's bytes — are walked eight at a time
//! by one safe-Rust SWAR kernel, `first_special`, shared by reader
//! and writer: the reader borrows up to the closing quote it finds, the
//! writer copies a string with nothing to escape verbatim and leaves
//! every other to serde's escaper. Newlines are found by
//! [`abp::scan::memchr`].
//!
//! The hot writers are **tested against serde**: each is byte-identical
//! to `serde_json::to_string` of the corresponding protocol value, and
//! the hot parsers accept anything the serde path accepts (any field
//! order, unknown fields skipped, optional fields defaulted) —
//! property-tested in `crate::proptests::wire_equivalence`, where the
//! derives stay as the reference, requests and replies alike in foreign
//! layouts. The same module holds the canonical readers to the field
//! walker alone (`walked`) on written, foreign and damaged lines, and a
//! unit test here holds every written object to its canonical reader,
//! so a writer that drifts from its reader fails a test instead of
//! quietly sending every line down the walker. No other module of
//! `abpd` or `abpd-proxy` calls the serde parser (`scripts/ci.sh`
//! checks). Enum names have one owner each, a `wire_names!` table.

use crate::protocol::{
    DecisionRequest, DecisionResponse, HealthReport, ReloadDeltaList, ReloadList, ReloadMismatch,
    ReloadReport, ServerMessage, StatsReport,
};
use abp::{Activation, Decision, Engine, ListSource, MatchKind, RequestOutcome, ResourceType};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::io::{BufRead, Write};
use std::ops::Range;

// ------------------------------------------------------------ borrowed types

/// One decision to make, borrowing its strings from the request line.
///
/// The borrowed analog of [`DecisionRequest`]: `Cow::Borrowed` unless a
/// JSON escape in the wire form forced unescaping into an owned string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionRequestRef<'a> {
    /// Absolute URL being fetched.
    pub url: Cow<'a, str>,
    /// The first-party (document) hostname the fetch happens under.
    pub document: Cow<'a, str>,
    /// Resource type inferred from the initiating element.
    pub resource_type: ResourceType,
    /// Verified sitekey presented by the document, if any.
    pub sitekey: Option<Cow<'a, str>>,
    /// Subscription-set bitmask for the requesting tenant; absent
    /// means the union of every loaded list.
    pub tenant: Option<u64>,
}

impl DecisionRequestRef<'_> {
    /// Clone into the owned wire struct.
    pub fn to_owned_request(&self) -> DecisionRequest {
        DecisionRequest {
            url: self.url.clone().into_owned(),
            document: self.document.clone().into_owned(),
            resource_type: self.resource_type,
            sitekey: self.sitekey.clone().map(Cow::into_owned),
            tenant: self.tenant,
        }
    }
}

impl DecisionRequest {
    /// Borrow this request as the zero-copy wire form.
    pub fn as_request_ref(&self) -> DecisionRequestRef<'_> {
        DecisionRequestRef {
            url: Cow::Borrowed(&self.url),
            document: Cow::Borrowed(&self.document),
            resource_type: self.resource_type,
            sitekey: self.sitekey.as_deref().map(Cow::Borrowed),
            tenant: self.tenant,
        }
    }
}

/// A parsed client message; `Decide`/`DecideBatch` payloads borrow from
/// the request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientMessageRef<'a> {
    /// Evaluate one request.
    Decide(DecisionRequestRef<'a>),
    /// Evaluate a batch in order; answered by one `Batch` message.
    DecideBatch(Vec<DecisionRequestRef<'a>>),
    /// Fetch service statistics.
    Stats,
    /// Liveness probe.
    Ping,
    /// Swap in new filter lists. Owned, like every cold payload: list
    /// text always carries `\n` escapes, so it could never borrow.
    Reload(Vec<ReloadList>),
    /// Apply delta updates to the serving filter lists.
    ReloadDelta(Vec<ReloadDeltaList>),
    /// Fetch service health.
    Health,
    /// Ask the server to stop accepting connections and drain.
    Shutdown,
}

/// An activation as the canonical reader finds it, its strings borrowed
/// from the reply line unless escaped: what [`split_decisions`] checks
/// and drops, and what the typed readers turn into an [`Activation`].
struct ActivationRef<'a> {
    filter: Cow<'a, str>,
    source: ListSource,
    kind: MatchKind,
    subject: Cow<'a, str>,
    donottrack: bool,
}

impl ActivationRef<'_> {
    fn into_activation(self) -> Activation {
        Activation {
            filter: abp::IStr::from(&*self.filter),
            source: self.source,
            kind: self.kind,
            subject: abp::IStr::from(&*self.subject),
            donottrack: self.donottrack,
        }
    }
}

// ------------------------------------------------------------ enum names

/// `const $table: &[(&str, $ty)]`: each variant of `$ty` with its wire
/// name — the variant name, as the serde derive spells it (for
/// [`ResourceType`] that is not the filter-option keyword). The one
/// owner of an enum's names: writers index the table by discriminant,
/// and both readers look names up in it. Listing every variant in
/// declaration order is checked at compile time, so a variant added to
/// the enum fails the build until it has its line here.
macro_rules! wire_names {
    ($table:ident: $ty:ident { $($variant:ident),+ $(,)? }) => {
        const $table: &[(&str, $ty)] = &[$((stringify!($variant), $ty::$variant)),+];
        const _: () = {
            // Exhaustive: a variant missing here is a compile error.
            let _: fn($ty) = |v| match v {
                $($ty::$variant)|+ => {}
            };
            // In declaration order: `TABLE[v as usize]` is `v`'s entry.
            let mut i = 0;
            while i < $table.len() {
                assert!($table[i].1 as usize == i);
                i += 1;
            }
        };
    };
}

wire_names!(RESOURCE_TYPES: ResourceType {
    Script,
    Image,
    Stylesheet,
    Object,
    XmlHttpRequest,
    ObjectSubrequest,
    Subdocument,
    Document,
    Other,
    Background,
    Xbl,
    Ping,
    Dtd,
});
wire_names!(DECISIONS: Decision {
    NoMatch,
    Block,
    AllowedByException,
});
wire_names!(LIST_SOURCES: ListSource {
    EasyList,
    AcceptableAds,
    Custom,
});
wire_names!(MATCH_KINDS: MatchKind {
    BlockRequest,
    AllowRequest,
    HideElement,
    AllowElement,
    DocumentAllow,
    ElemhideAllow,
    SitekeyAllow,
});

/// The value `name` spells in `table`, if any.
fn from_name<T: Copy>(table: &[(&str, T)], name: &str) -> Option<T> {
    table.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
}

// ------------------------------------------------------------ scan kernel

/// Offset of the first byte of `hay` that a JSON string cannot carry
/// as itself — `"`, `\`, or a control byte below 0x20 — or `hay.len()`
/// when there is none. The one place that decides this: the string
/// reader stops here to end, unescape or step over, the string writer
/// copies verbatim up to here.
///
/// Eight bytes per step with the zero-byte trick of [`abp::scan`], in
/// safe Rust. A borrow can flag a byte wrongly only *above* a byte that
/// is flagged rightly (it propagates out of a true hit), in each of
/// the three masks and so in their union: the lowest flagged byte is
/// always genuine, and nothing but the lowest is read.
#[inline]
pub(crate) fn first_special(hay: &[u8]) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let mut words = hay.chunks_exact(8);
    let mut at = 0;
    for word in words.by_ref() {
        let w = u64::from_le_bytes(word.try_into().expect("chunks_exact(8) yields 8 bytes"));
        let quote = w ^ (ONES * u64::from(b'"'));
        let backslash = w ^ (ONES * u64::from(b'\\'));
        let special = ((quote.wrapping_sub(ONES) & !quote)
            | (backslash.wrapping_sub(ONES) & !backslash)
            | (w.wrapping_sub(ONES * 0x20) & !w))
            & HIGHS;
        if special != 0 {
            return at + (special.trailing_zeros() / 8) as usize;
        }
        at += 8;
    }
    words
        .remainder()
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
        .map_or(hay.len(), |i| at + i)
}

// ------------------------------------------------------------ writers

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(s.as_bytes());
}

/// Append `s` as a JSON string literal. One with nothing to escape
/// (nearly all of them) is copied between quotes as it is; anything
/// else goes to serde's writer, which stays the owner of the escape
/// rules — so the bytes are serde's either way.
fn write_string(s: &str, out: &mut Vec<u8>) {
    if first_special(s.as_bytes()) == s.len() {
        out.push(b'"');
        out.extend_from_slice(s.as_bytes());
        out.push(b'"');
    } else {
        serde_json::write_escaped_str(s, out);
    }
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    write!(out, "{v}").expect("Vec<u8> writes are infallible");
}

fn write_request_parts(
    url: &str,
    document: &str,
    resource_type: ResourceType,
    sitekey: Option<&str>,
    tenant: Option<u64>,
    out: &mut Vec<u8>,
) {
    push_str(out, "{\"url\":");
    write_string(url, out);
    push_str(out, ",\"document\":");
    write_string(document, out);
    push_str(out, ",\"resource_type\":\"");
    push_str(out, RESOURCE_TYPES[resource_type as usize].0);
    push_str(out, "\",\"sitekey\":");
    match sitekey {
        Some(k) => write_string(k, out),
        None => push_str(out, "null"),
    }
    push_str(out, ",\"tenant\":");
    match tenant {
        Some(t) => push_u64(out, t),
        None => push_str(out, "null"),
    }
    out.push(b'}');
}

/// Append a `Decide` request line body (no trailing newline).
pub fn write_decide(req: &DecisionRequest, out: &mut Vec<u8>) {
    push_str(out, "{\"Decide\":");
    write_request_parts(
        &req.url,
        &req.document,
        req.resource_type,
        req.sitekey.as_deref(),
        req.tenant,
        out,
    );
    out.push(b'}');
}

/// Append a `DecideBatch` request line body (no trailing newline).
pub fn write_decide_batch(reqs: &[DecisionRequest], out: &mut Vec<u8>) {
    push_str(out, "{\"DecideBatch\":[");
    for (i, req) in reqs.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write_request_parts(
            &req.url,
            &req.document,
            req.resource_type,
            req.sitekey.as_deref(),
            req.tenant,
            out,
        );
    }
    push_str(out, "]}");
}

/// Append the `Stats` verb.
pub fn write_stats_request(out: &mut Vec<u8>) {
    push_str(out, "\"Stats\"");
}

/// Append the `Ping` verb.
pub fn write_ping(out: &mut Vec<u8>) {
    push_str(out, "\"Ping\"");
}

/// Append the `Shutdown` verb.
pub fn write_shutdown(out: &mut Vec<u8>) {
    push_str(out, "\"Shutdown\"");
}

/// Append `{"tag":value}`, serde writing the value: the one writer of
/// the cold messages, the same bytes as `serde_json::to_string` of the
/// tagged protocol enum.
fn write_tagged<T: Serialize + ?Sized>(tag: &str, value: &T, out: &mut Vec<u8>) {
    push_str(out, "{\"");
    push_str(out, tag);
    push_str(out, "\":");
    serde_json::to_writer(&mut *out, value).expect("Vec<u8> writes are infallible");
    out.push(b'}');
}

/// Append a `Reload` request line body (no trailing newline).
pub fn write_reload(lists: &[ReloadList], out: &mut Vec<u8>) {
    write_tagged("Reload", lists, out);
}

/// Append a `ReloadDelta` request line body (no trailing newline).
pub fn write_reload_delta(deltas: &[ReloadDeltaList], out: &mut Vec<u8>) {
    write_tagged("ReloadDelta", deltas, out);
}

/// Append the `Health` verb.
pub fn write_health_request(out: &mut Vec<u8>) {
    push_str(out, "\"Health\"");
}

impl<'a> ActivationRef<'a> {
    fn of(a: &'a Activation) -> ActivationRef<'a> {
        ActivationRef {
            filter: Cow::Borrowed(&a.filter),
            source: a.source,
            kind: a.kind,
            subject: Cow::Borrowed(&a.subject),
            donottrack: a.donottrack,
        }
    }
}

/// The one activation writer, whether the activation was built
/// ([`push_decision`]) or is an engine id ([`push_decision_ids`]).
fn write_activation(a: &ActivationRef<'_>, out: &mut Vec<u8>) {
    push_str(out, "{\"filter\":");
    write_string(&a.filter, out);
    push_str(out, ",\"source\":\"");
    push_str(out, LIST_SOURCES[a.source as usize].0);
    push_str(out, "\",\"kind\":\"");
    push_str(out, MATCH_KINDS[a.kind as usize].0);
    push_str(out, "\",\"subject\":");
    write_string(&a.subject, out);
    push_str(out, ",\"donottrack\":");
    push_str(out, if a.donottrack { "true" } else { "false" });
    out.push(b'}');
}

fn write_outcome<'a>(
    decision: Decision,
    activations: impl IntoIterator<Item = ActivationRef<'a>>,
    out: &mut Vec<u8>,
) {
    push_str(out, "{\"decision\":\"");
    push_str(out, DECISIONS[decision as usize].0);
    push_str(out, "\",\"activations\":[");
    for (i, a) in activations.into_iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write_activation(&a, out);
    }
    push_str(out, "]}");
}

fn write_request_outcome(o: &RequestOutcome, out: &mut Vec<u8>) {
    write_outcome(o.decision, o.activations.iter().map(ActivationRef::of), out);
}

/// Opens a `Decision` reply line; one decision object and `}` close it.
const DECISION_OPEN: &str = "{\"Decision\":";
/// Opens a `Batch` reply line; comma-joined decision objects and `]}`
/// close it.
const BATCH_OPEN: &str = "{\"Batch\":[";

/// Append one decision object, `{"outcome":…,"cached":…}`, its outcome
/// written by `outcome`; returns where in `out` the outcome landed.
fn write_response(
    cached: bool,
    out: &mut Vec<u8>,
    outcome: impl FnOnce(&mut Vec<u8>),
) -> Range<usize> {
    push_str(out, "{\"outcome\":");
    let start = out.len();
    outcome(out);
    let span = start..out.len();
    push_str(out, ",\"cached\":");
    push_str(out, if cached { "true" } else { "false" });
    out.push(b'}');
    span
}

/// Append `outcome` as one more decision object to `run`, a
/// comma-joined run of them: the body of a `Batch` reply, which
/// [`splice_batch_reply`] frames. Returns the range of `run` holding
/// the encoded outcome, `{"decision":…,"activations":[…]}` — the bytes
/// a cache keeps to answer the same request with
/// [`push_decision_raw`].
pub fn push_decision(run: &mut Vec<u8>, outcome: &RequestOutcome, cached: bool) -> Range<usize> {
    if !run.is_empty() {
        run.push(b',');
    }
    write_response(cached, run, |out| write_request_outcome(outcome, out))
}

/// [`push_decision`] of the outcome [`Engine::match_request_ids`] left in
/// `matched` for a request whose normalized URL is `subject`, written
/// straight from the engine's filters: the same bytes as the built
/// outcome, and no `Activation` made.
pub fn push_decision_ids(
    run: &mut Vec<u8>,
    engine: &Engine,
    decision: Decision,
    matched: &[(u32, MatchKind)],
    subject: &str,
    cached: bool,
) -> Range<usize> {
    if !run.is_empty() {
        run.push(b',');
    }
    let activations = matched.iter().map(|&(id, kind)| {
        let (filter, source, donottrack) = engine.request_filter_parts(id);
        ActivationRef {
            filter: Cow::Borrowed(filter),
            source,
            kind,
            subject: Cow::Borrowed(subject),
            donottrack,
        }
    });
    write_response(cached, run, |out| write_outcome(decision, activations, out))
}

/// [`push_decision`] with the outcome already encoded: copied as it is.
pub fn push_decision_raw(run: &mut Vec<u8>, outcome: &[u8], cached: bool) {
    if !run.is_empty() {
        run.push(b',');
    }
    write_response(cached, run, |out| out.extend_from_slice(outcome));
}

/// Append a `Decision` reply line body (no trailing newline).
pub fn write_decision_reply(resp: &DecisionResponse, out: &mut Vec<u8>) {
    push_str(out, DECISION_OPEN);
    write_response(resp.cached, out, |out| {
        write_request_outcome(&resp.outcome, out)
    });
    out.push(b'}');
}

/// Append a `Decision` reply line body around `run`, a run of exactly
/// one decision object ([`push_decision`]).
pub(crate) fn write_decision_reply_raw(run: &[u8], out: &mut Vec<u8>) {
    push_str(out, DECISION_OPEN);
    out.extend_from_slice(run);
    out.push(b'}');
}

/// Append a `Batch` reply line body (no trailing newline).
pub fn write_batch_reply(resps: &[DecisionResponse], out: &mut Vec<u8>) {
    push_str(out, BATCH_OPEN);
    for (i, resp) in resps.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write_response(resp.cached, out, |out| {
            write_request_outcome(&resp.outcome, out)
        });
    }
    push_str(out, "]}");
}

/// Append a `Stats` reply line body (no trailing newline).
pub fn write_stats_reply(r: &StatsReport, out: &mut Vec<u8>) {
    write_tagged("Stats", r, out);
}

/// Append the `Pong` reply.
pub fn write_pong(out: &mut Vec<u8>) {
    push_str(out, "\"Pong\"");
}

/// Append a `Reloaded` reply line body (no trailing newline).
pub fn write_reloaded(r: &ReloadReport, out: &mut Vec<u8>) {
    write_tagged("Reloaded", r, out);
}

/// Append a `ReloadBaseMismatch` reply line body (no trailing newline).
pub fn write_reload_base_mismatch(m: &ReloadMismatch, out: &mut Vec<u8>) {
    write_tagged("ReloadBaseMismatch", m, out);
}

/// Append a `Health` reply line body (no trailing newline).
pub fn write_health_reply(h: &HealthReport, out: &mut Vec<u8>) {
    write_tagged("Health", h, out);
}

/// Append the `Overloaded` reply.
pub fn write_overloaded(out: &mut Vec<u8>) {
    push_str(out, "\"Overloaded\"");
}

/// Append the `ShuttingDown` reply.
pub fn write_shutting_down(out: &mut Vec<u8>) {
    push_str(out, "\"ShuttingDown\"");
}

/// Append an `Error` reply line body (no trailing newline).
pub fn write_error(msg: &str, out: &mut Vec<u8>) {
    push_str(out, "{\"Error\":");
    write_string(msg, out);
    out.push(b'}');
}

// ------------------------------------------------------------ parser

/// Deepest nesting [`Scan::skip_value`] follows (serde_json's own
/// limit). It recurses once per level and the sender chooses the line:
/// unbounded, 20 KB of `[` overflow the stack.
const MAX_SKIP_DEPTH: usize = 128;

struct Scan<'a> {
    s: &'a str,
    b: &'a [u8],
    pos: usize,
    /// Tests only: leave the canonical readers out, so the field walker
    /// alone decodes — the reference they are checked against.
    #[cfg(test)]
    walk_only: bool,
}

type ScanResult<T> = Result<T, String>;

impl<'a> Scan<'a> {
    fn new(s: &'a str) -> Scan<'a> {
        Scan {
            s,
            b: s.as_bytes(),
            pos: 0,
            #[cfg(test)]
            walk_only: false,
        }
    }

    #[cfg(test)]
    fn walker(s: &'a str) -> Scan<'a> {
        Scan {
            walk_only: true,
            ..Scan::new(s)
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> ScanResult<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn expect_end(&self) -> ScanResult<()> {
        if self.pos == self.b.len() {
            Ok(())
        } else {
            Err(format!("trailing characters at offset {}", self.pos))
        }
    }

    /// A JSON string, borrowed from the input unless it contains an
    /// escape sequence.
    fn string(&mut self) -> ScanResult<Cow<'a, str>> {
        self.expect(b'"')?;
        let start = self.pos;
        loop {
            // Bytes of multi-byte chars are >= 0x80, never special, so
            // the kernel only ever stops on ASCII and the slice
            // boundaries below always land on char boundaries.
            self.pos += first_special(&self.b[self.pos..]);
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    let s = &self.s[start..self.pos];
                    self.pos += 1;
                    return Ok(Cow::Borrowed(s));
                }
                Some(b'\\') => return self.string_owned(start).map(Cow::Owned),
                // A raw control byte: taken as it is, as it always was.
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Slow path: the string contains at least one escape (the scanner
    /// sits on the first `\`); unescape into an owned buffer.
    fn string_owned(&mut self, start: usize) -> ScanResult<String> {
        let mut out = String::with_capacity(self.pos - start + 16);
        out.push_str(&self.s[start..self.pos]);
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&hi) {
                                if !self.eat_literal("\\u") {
                                    return Err("lone high surrogate".to_string());
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".to_string());
                                }
                                let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c).ok_or("bad surrogate pair")?
                            } else {
                                char::from_u32(hi).ok_or("bad unicode escape")?
                            };
                            out.push(ch);
                            continue; // pos already past the escape
                        }
                        other => {
                            return Err(format!("bad escape {:?}", other.map(|b| b as char)));
                        }
                    }
                    self.pos += 1;
                }
                // A plain run: this byte (a raw control byte at most)
                // and everything up to the next special one.
                Some(_) => {
                    let run = self.pos;
                    self.pos += 1;
                    self.pos += first_special(&self.b[self.pos..]);
                    out.push_str(&self.s[run..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> ScanResult<u32> {
        let end = self.pos + 4;
        if end > self.b.len() {
            return Err("truncated \\u escape".to_string());
        }
        // Decode byte-wise: slicing `self.s` here could split a
        // multi-byte char (e.g. `\u` followed by non-hex UTF-8) and
        // panic on the char boundary.
        let mut v: u32 = 0;
        for &b in &self.b[self.pos..end] {
            let digit = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                b'A'..=b'F' => b - b'A' + 10,
                _ => return Err("bad \\u escape".to_string()),
            };
            v = (v << 4) | u32::from(digit);
        }
        self.pos = end;
        Ok(v)
    }

    fn u64_number(&mut self) -> ScanResult<u64> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected integer at offset {start}"));
        }
        self.s[start..self.pos]
            .parse::<u64>()
            .map_err(|e| format!("bad integer at offset {start}: {e}"))
    }

    fn bool_value(&mut self) -> ScanResult<bool> {
        if self.eat_literal("true") {
            Ok(true)
        } else if self.eat_literal("false") {
            Ok(false)
        } else {
            Err(format!("expected bool at offset {}", self.pos))
        }
    }

    /// Skip any JSON value (for unknown fields, and for decisions a
    /// router only relocates).
    fn skip_value(&mut self) -> ScanResult<()> {
        self.skip_nested(MAX_SKIP_DEPTH)
    }

    /// [`Scan::skip_value`] with `depth` more levels of nesting allowed.
    fn skip_nested(&mut self, depth: usize) -> ScanResult<()> {
        self.skip_ws();
        let depth = match self.peek() {
            Some(b'{' | b'[') => depth.checked_sub(1).ok_or_else(|| {
                format!("nested deeper than {MAX_SKIP_DEPTH} at offset {}", self.pos)
            })?,
            _ => depth,
        };
        match self.peek() {
            // One without escapes (nearly all of them) is one kernel pass
            // and a borrow; one with is decoded for the escape checks.
            Some(b'"') => drop(self.string()?),
            Some(b'{') => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    self.skip_ws();
                    self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_nested(depth)?;
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    self.skip_nested(depth)?;
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
                    }
                }
            }
            Some(b't') if self.eat_literal("true") => {}
            Some(b'f') if self.eat_literal("false") => {}
            Some(b'n') if self.eat_literal("null") => {}
            Some(b'-' | b'0'..=b'9') => {
                self.pos += 1;
                while matches!(
                    self.peek(),
                    Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
                ) {
                    self.pos += 1;
                }
            }
            other => {
                return Err(format!(
                    "unexpected {:?} at offset {}",
                    other.map(|b| b as char),
                    self.pos
                ));
            }
        }
        Ok(())
    }

    /// Iterate the fields of an object whose `{` has not been consumed.
    /// Calls `field` with each key; `field` must consume the value.
    fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, &str) -> ScanResult<()>,
    ) -> ScanResult<()> {
        self.skip_ws();
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            field(self, &key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }

    /// Iterate the elements of an array whose `[` has not been
    /// consumed. `elem` must consume one value per call.
    fn array(&mut self, mut elem: impl FnMut(&mut Self) -> ScanResult<()>) -> ScanResult<()> {
        self.skip_ws();
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            elem(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    // -------------------------------------------- canonical readers
    //
    // The module doc's canonical decode: one reader per hot writer
    // (`write_request_parts`, `write_activation`, `write_outcome`,
    // `write_response`), each returning `None` at the first byte that
    // writer would not have written, or at any error; `canonical_or` then
    // rewinds and runs the field walker, whose verdict stands.

    /// Whether the canonical readers run: always, outside tests.
    fn tries_canonical(&self) -> bool {
        #[cfg(test)]
        return !self.walk_only;
        #[cfg(not(test))]
        true
    }

    /// The object at the scanner read by `canonical`, or — if that
    /// declines — by `walk` from the same offset.
    fn canonical_or<T>(
        &mut self,
        canonical: impl FnOnce(&mut Self) -> Option<T>,
        walk: impl FnOnce(&mut Self) -> ScanResult<T>,
    ) -> ScanResult<T> {
        let start = self.pos;
        if self.tries_canonical() {
            if let Some(value) = canonical(self) {
                return Ok(value);
            }
            self.pos = start;
        }
        walk(self)
    }

    /// Consume `lit` if the input continues with it.
    fn eat(&mut self, lit: &str) -> Option<()> {
        self.eat_literal(lit).then_some(())
    }

    /// A name from `table` and the `"` closing it (the opening one ends
    /// the key prefix before it).
    fn name<T: Copy>(&mut self, table: &[(&str, T)]) -> Option<T> {
        let rest = &self.b[self.pos..];
        let &(name, value) = table.iter().find(|(name, _)| {
            rest.get(name.len()) == Some(&b'"') && rest.starts_with(name.as_bytes())
        })?;
        self.pos += name.len() + 1;
        Some(value)
    }

    /// A free string (url, document, sitekey, filter, subject), read by
    /// [`Scan::string`]: borrowed unless escaped.
    fn free_string(&mut self) -> Option<Cow<'a, str>> {
        // Checked here so that a value that is no string at all declines
        // without building `string`'s error message.
        if self.peek() != Some(b'"') {
            return None;
        }
        self.string().ok()
    }

    /// A tenant mask, read by [`Scan::u64_number`].
    fn tenant_mask(&mut self) -> Option<u64> {
        // As in `free_string`: no error message built for a non-number.
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return None;
        }
        self.u64_number().ok()
    }

    /// `true}` or `false}`: a trailing flag and its object's close.
    fn flag_and_close(&mut self) -> Option<bool> {
        if self.eat_literal("true}") {
            Some(true)
        } else {
            self.eat("false}").map(|()| false)
        }
    }

    /// `write_request_parts`' layout.
    fn canonical_request(&mut self) -> Option<DecisionRequestRef<'a>> {
        self.eat("{\"url\":")?;
        let url = self.free_string()?;
        self.eat(",\"document\":")?;
        let document = self.free_string()?;
        self.eat(",\"resource_type\":\"")?;
        let resource_type = self.name(RESOURCE_TYPES)?;
        self.eat(",\"sitekey\":")?;
        let sitekey = match self.eat("null") {
            Some(()) => None,
            None => Some(self.free_string()?),
        };
        self.eat(",\"tenant\":")?;
        let tenant = match self.eat("null") {
            Some(()) => None,
            None => Some(self.tenant_mask()?),
        };
        self.eat("}")?;
        Some(DecisionRequestRef {
            url,
            document,
            resource_type,
            sitekey,
            tenant,
        })
    }

    /// `write_activation`'s layout.
    fn canonical_activation(&mut self) -> Option<ActivationRef<'a>> {
        self.eat("{\"filter\":")?;
        let filter = self.free_string()?;
        self.eat(",\"source\":\"")?;
        let source = self.name(LIST_SOURCES)?;
        self.eat(",\"kind\":\"")?;
        let kind = self.name(MATCH_KINDS)?;
        self.eat(",\"subject\":")?;
        let subject = self.free_string()?;
        self.eat(",\"donottrack\":")?;
        let donottrack = self.flag_and_close()?;
        Some(ActivationRef {
            filter,
            source,
            kind,
            subject,
            donottrack,
        })
    }

    /// `write_outcome`'s layout, each activation handed to `each`.
    fn canonical_outcome(&mut self, mut each: impl FnMut(ActivationRef<'a>)) -> Option<Decision> {
        self.eat("{\"decision\":\"")?;
        let decision = self.name(DECISIONS)?;
        self.eat(",\"activations\":[")?;
        if self.eat_literal("]}") {
            return Some(decision);
        }
        loop {
            each(self.canonical_activation()?);
            if !self.eat_literal(",") {
                break;
            }
        }
        self.eat("]}")?;
        Some(decision)
    }

    /// `write_response`'s layout around `write_outcome`'s: the decision
    /// and the `cached` flag, each activation handed to `each`.
    fn canonical_response(
        &mut self,
        each: impl FnMut(ActivationRef<'a>),
    ) -> Option<(Decision, bool)> {
        self.eat("{\"outcome\":")?;
        let decision = self.canonical_outcome(each)?;
        self.eat(",\"cached\":")?;
        Some((decision, self.flag_and_close()?))
    }

    // ------------------------------------------------ typed readers

    fn decision_request(&mut self) -> ScanResult<DecisionRequestRef<'a>> {
        self.canonical_or(Self::canonical_request, Self::walk_request)
    }

    fn activation(&mut self) -> ScanResult<Activation> {
        self.canonical_or(
            |s| s.canonical_activation().map(ActivationRef::into_activation),
            Self::walk_activation,
        )
    }

    fn outcome(&mut self) -> ScanResult<RequestOutcome> {
        self.canonical_or(
            |s| {
                let mut activations = Vec::new();
                let decision = s.canonical_outcome(|a| activations.push(a.into_activation()))?;
                Some(RequestOutcome {
                    decision,
                    activations,
                })
            },
            Self::walk_outcome,
        )
    }

    fn decision_response(&mut self) -> ScanResult<DecisionResponse> {
        self.canonical_or(
            |s| {
                let mut activations = Vec::new();
                let (decision, cached) =
                    s.canonical_response(|a| activations.push(a.into_activation()))?;
                Some(DecisionResponse {
                    outcome: RequestOutcome {
                        decision,
                        activations,
                    },
                    cached,
                })
            },
            Self::walk_response,
        )
    }

    // ------------------------------------------------ field walkers

    /// The field walker: any field order, whitespace and escapes,
    /// unknown fields skipped, absent options defaulted.
    fn walk_request(&mut self) -> ScanResult<DecisionRequestRef<'a>> {
        let mut url = None;
        let mut document = None;
        let mut resource_type = None;
        let mut sitekey = None;
        let mut tenant = None;
        self.object(|s, key| {
            match key {
                "url" => url = Some(s.string()?),
                "document" => document = Some(s.string()?),
                "resource_type" => {
                    let name = s.string()?;
                    resource_type = Some(
                        from_name(RESOURCE_TYPES, &name)
                            .ok_or_else(|| format!("unknown resource type {name:?}"))?,
                    );
                }
                "sitekey" => {
                    if s.peek() == Some(b'n') {
                        if !s.eat_literal("null") {
                            return Err(format!("expected null at offset {}", s.pos));
                        }
                    } else {
                        sitekey = Some(s.string()?);
                    }
                }
                "tenant" => {
                    if s.peek() == Some(b'n') {
                        if !s.eat_literal("null") {
                            return Err(format!("expected null at offset {}", s.pos));
                        }
                    } else {
                        tenant = Some(s.u64_number()?);
                    }
                }
                _ => s.skip_value()?,
            }
            Ok(())
        })?;
        Ok(DecisionRequestRef {
            url: url.ok_or("missing field `url`")?,
            document: document.ok_or("missing field `document`")?,
            resource_type: resource_type.ok_or("missing field `resource_type`")?,
            sitekey,
            tenant,
        })
    }

    fn walk_activation(&mut self) -> ScanResult<Activation> {
        let mut filter = None;
        let mut source = None;
        let mut kind = None;
        let mut subject = None;
        let mut donottrack = false;
        self.object(|s, key| {
            match key {
                "filter" => filter = Some(abp::IStr::from(&*s.string()?)),
                "source" => {
                    let name = s.string()?;
                    source = Some(
                        from_name(LIST_SOURCES, &name)
                            .ok_or_else(|| format!("unknown list source {name:?}"))?,
                    );
                }
                "kind" => {
                    let name = s.string()?;
                    kind = Some(
                        from_name(MATCH_KINDS, &name)
                            .ok_or_else(|| format!("unknown match kind {name:?}"))?,
                    );
                }
                "subject" => subject = Some(abp::IStr::from(&*s.string()?)),
                "donottrack" => donottrack = s.bool_value()?,
                _ => s.skip_value()?,
            }
            Ok(())
        })?;
        Ok(Activation {
            filter: filter.ok_or("missing field `filter`")?,
            source: source.ok_or("missing field `source`")?,
            kind: kind.ok_or("missing field `kind`")?,
            subject: subject.ok_or("missing field `subject`")?,
            donottrack,
        })
    }

    fn walk_outcome(&mut self) -> ScanResult<RequestOutcome> {
        let mut decision = None;
        let mut activations = None;
        self.object(|s, key| {
            match key {
                "decision" => {
                    let name = s.string()?;
                    decision = Some(
                        from_name(DECISIONS, &name)
                            .ok_or_else(|| format!("unknown decision {name:?}"))?,
                    );
                }
                "activations" => {
                    let mut list = Vec::new();
                    s.array(|s| {
                        list.push(s.activation()?);
                        Ok(())
                    })?;
                    activations = Some(list);
                }
                _ => s.skip_value()?,
            }
            Ok(())
        })?;
        Ok(RequestOutcome {
            decision: decision.ok_or("missing field `decision`")?,
            activations: activations.ok_or("missing field `activations`")?,
        })
    }

    fn walk_response(&mut self) -> ScanResult<DecisionResponse> {
        let mut outcome = None;
        let mut cached = None;
        self.object(|s, key| {
            match key {
                "outcome" => outcome = Some(s.outcome()?),
                "cached" => cached = Some(s.bool_value()?),
                _ => s.skip_value()?,
            }
            Ok(())
        })?;
        Ok(DecisionResponse {
            outcome: outcome.ok_or("missing field `outcome`")?,
            cached: cached.ok_or("missing field `cached`")?,
        })
    }

    /// The payload of a `{"Tag":payload}` line whose tag the scanner
    /// has just passed, read by serde — the one reader of the cold
    /// messages. The payload is everything up to the line's closing
    /// `}`, where the scanner is left for the caller's closing checks.
    /// serde is its only validator: a pre-scan here would check every
    /// byte twice and leave the serde parser's own bounds untested.
    fn serde_payload<T: Deserialize>(&mut self) -> ScanResult<T> {
        let end = self
            .s
            .trim_end_matches([' ', '\t', '\n', '\r'])
            .len()
            .checked_sub(1)
            .filter(|&end| end >= self.pos && self.b[end] == b'}')
            .ok_or("expected `}` closing the message")?;
        let value = serde_json::from_str(&self.s[self.pos..end]).map_err(|e| e.to_string())?;
        self.pos = end;
        Ok(value)
    }
}

/// Parse one request line into the borrowed message form.
pub fn parse_client_message(line: &str) -> Result<ClientMessageRef<'_>, String> {
    parse_client(Scan::new(line), |_| {})
}

/// [`parse_client_message`], also reporting where each `DecideBatch`
/// element sits: `spans` is cleared, then receives one byte range of
/// `line` per element, in order, running from the element's `{`
/// through its `}`. Each range is a complete request object that this
/// same grammar accepted, so a router can forward the bytes as they
/// are ([`splice_decide_batch`]). Other messages leave `spans` empty.
pub fn parse_client_message_spans<'a>(
    line: &'a str,
    spans: &mut Vec<Range<usize>>,
) -> Result<ClientMessageRef<'a>, String> {
    spans.clear();
    parse_client(Scan::new(line), |span| spans.push(span))
}

fn parse_client<'a>(
    mut s: Scan<'a>,
    mut element: impl FnMut(Range<usize>),
) -> Result<ClientMessageRef<'a>, String> {
    s.skip_ws();
    let msg = match s.peek() {
        Some(b'"') => {
            let verb = s.string()?;
            match &*verb {
                "Stats" => ClientMessageRef::Stats,
                "Ping" => ClientMessageRef::Ping,
                "Health" => ClientMessageRef::Health,
                "Shutdown" => ClientMessageRef::Shutdown,
                other => return Err(format!("unknown verb {other:?}")),
            }
        }
        Some(b'{') => {
            s.pos += 1;
            s.skip_ws();
            let key = s.string()?;
            s.skip_ws();
            s.expect(b':')?;
            s.skip_ws();
            let msg = match &*key {
                "Decide" => ClientMessageRef::Decide(s.decision_request()?),
                "DecideBatch" => {
                    let mut reqs = Vec::new();
                    s.array(|s| {
                        s.skip_ws();
                        let start = s.pos;
                        reqs.push(s.decision_request()?);
                        element(start..s.pos);
                        Ok(())
                    })?;
                    ClientMessageRef::DecideBatch(reqs)
                }
                "Reload" => ClientMessageRef::Reload(s.serde_payload()?),
                "ReloadDelta" => ClientMessageRef::ReloadDelta(s.serde_payload()?),
                other => return Err(format!("unknown message variant {other:?}")),
            };
            s.skip_ws();
            s.expect(b'}')?;
            msg
        }
        _ => return Err(format!("expected a JSON message at offset {}", s.pos)),
    };
    s.skip_ws();
    s.expect_end()?;
    Ok(msg)
}

/// Parse one reply line into an owned [`ServerMessage`].
pub fn parse_server_message(line: &str) -> Result<ServerMessage, String> {
    parse_server(Scan::new(line))
}

fn parse_server(mut s: Scan<'_>) -> Result<ServerMessage, String> {
    s.skip_ws();
    let msg = match s.peek() {
        Some(b'"') => {
            let verb = s.string()?;
            match &*verb {
                "Pong" => ServerMessage::Pong,
                "Overloaded" => ServerMessage::Overloaded,
                "ShuttingDown" => ServerMessage::ShuttingDown,
                other => return Err(format!("unknown reply verb {other:?}")),
            }
        }
        Some(b'{') => {
            s.pos += 1;
            s.skip_ws();
            let key = s.string()?;
            s.skip_ws();
            s.expect(b':')?;
            s.skip_ws();
            let msg = match &*key {
                "Decision" => ServerMessage::Decision(s.decision_response()?),
                "Batch" => {
                    let mut resps = Vec::new();
                    s.array(|s| {
                        resps.push(s.decision_response()?);
                        Ok(())
                    })?;
                    ServerMessage::Batch(resps)
                }
                "Stats" => ServerMessage::Stats(s.serde_payload()?),
                "Reloaded" => ServerMessage::Reloaded(s.serde_payload()?),
                "ReloadBaseMismatch" => ServerMessage::ReloadBaseMismatch(s.serde_payload()?),
                "Health" => ServerMessage::Health(s.serde_payload()?),
                "Error" => ServerMessage::Error(s.string()?.into_owned()),
                other => return Err(format!("unknown reply variant {other:?}")),
            };
            s.skip_ws();
            s.expect(b'}')?;
            msg
        }
        _ => return Err(format!("expected a JSON reply at offset {}", s.pos)),
    };
    s.skip_ws();
    s.expect_end()?;
    Ok(msg)
}

// ------------------------------------------------------------ splicing

/// The two reply shapes that carry decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionShape {
    /// `{"Decision":{…}}`, the answer to a `Decide`.
    Single,
    /// `{"Batch":[{…},…]}`, the answer to a `DecideBatch`.
    Batch,
}

/// Find the decisions in a reply line without decoding them: `spans`
/// is cleared, then receives the byte range of each decision object
/// (the one of a `Decision`, every element of a `Batch`, in order).
/// The line is checked to be well-formed JSON of one of those two
/// shapes whose decisions are objects. A decision in the writer's
/// layout is checked by the canonical reader, building nothing; any
/// other is checked as JSON only, its fields not looked at. Anything
/// else — `Overloaded`, `Error`, a torn line — is an `Err` for the
/// caller to hand to [`parse_server_message`].
pub fn split_decisions(line: &str, spans: &mut Vec<Range<usize>>) -> Result<DecisionShape, String> {
    split(Scan::new(line), spans)
}

fn split(mut s: Scan<'_>, spans: &mut Vec<Range<usize>>) -> Result<DecisionShape, String> {
    spans.clear();
    s.skip_ws();
    s.expect(b'{')?;
    s.skip_ws();
    let key = s.string()?;
    s.skip_ws();
    s.expect(b':')?;
    let mut decision = |s: &mut Scan<'_>| {
        s.skip_ws();
        let start = s.pos;
        if s.peek() != Some(b'{') {
            return Err(format!("expected a decision object at offset {start}"));
        }
        s.canonical_or(|s| s.canonical_response(|_| {}).map(drop), Scan::skip_value)?;
        spans.push(start..s.pos);
        Ok(())
    };
    let shape = match &*key {
        "Decision" => {
            decision(&mut s)?;
            DecisionShape::Single
        }
        "Batch" => {
            s.array(decision)?;
            DecisionShape::Batch
        }
        _ => return Err("not a `Decision` or `Batch` reply".to_string()),
    };
    s.skip_ws();
    s.expect(b'}')?;
    s.skip_ws();
    s.expect_end()?;
    Ok(shape)
}

/// The message readers with the canonical readers left out: the field
/// walker (and, in [`split_decisions`], `skip_value`) alone — the
/// reference the canonical readers are checked against.
#[cfg(test)]
pub(crate) mod walked {
    use super::*;

    pub(crate) fn parse_client_message_spans<'a>(
        line: &'a str,
        spans: &mut Vec<Range<usize>>,
    ) -> Result<ClientMessageRef<'a>, String> {
        spans.clear();
        parse_client(Scan::walker(line), |span| spans.push(span))
    }

    pub(crate) fn parse_server_message(line: &str) -> Result<ServerMessage, String> {
        parse_server(Scan::walker(line))
    }

    pub(crate) fn split_decisions(
        line: &str,
        spans: &mut Vec<Range<usize>>,
    ) -> Result<DecisionShape, String> {
        split(Scan::walker(line), spans)
    }
}

fn splice<'a>(open: &str, elements: impl IntoIterator<Item = &'a [u8]>, out: &mut Vec<u8>) {
    push_str(out, open);
    for (i, raw) in elements.into_iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(raw);
    }
    push_str(out, "]}");
}

/// Append a `DecideBatch` request line body whose elements are the
/// given raw request objects ([`parse_client_message_spans`]), copied
/// as they are.
pub fn splice_decide_batch<'a>(elements: impl IntoIterator<Item = &'a [u8]>, out: &mut Vec<u8>) {
    splice("{\"DecideBatch\":[", elements, out);
}

/// Append a `Batch` reply line body whose elements are the given raw
/// decision objects ([`split_decisions`]), or comma-joined runs of them
/// ([`push_decision`]), copied as they are.
pub fn splice_batch_reply<'a>(elements: impl IntoIterator<Item = &'a [u8]>, out: &mut Vec<u8>) {
    splice(BATCH_OPEN, elements, out);
}

// ------------------------------------------------------------ line reader

/// Outcome of one bounded line read.
#[derive(Debug, PartialEq, Eq)]
pub enum LineRead {
    /// A complete line is in the buffer (terminator stripped).
    Line,
    /// Clean end of stream at a line boundary.
    Eof,
    /// End of stream mid-line; the partial line is in the buffer.
    EofMidLine,
    /// The line exceeded the limit; it was discarded up to and
    /// including its newline. Carries the full line length in bytes.
    TooLong(usize),
}

/// Read one `\n`-terminated line into `out` (cleared first), refusing
/// to buffer more than `max` bytes. Oversized lines are consumed and
/// discarded to keep the stream in sync, and reported with their total
/// length.
pub fn read_line_limited<R: std::io::Read>(
    reader: &mut std::io::BufReader<R>,
    out: &mut Vec<u8>,
    max: usize,
) -> std::io::Result<LineRead> {
    out.clear();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(if out.is_empty() {
                LineRead::Eof
            } else {
                LineRead::EofMidLine
            });
        }
        match abp::scan::memchr(b'\n', buf) {
            Some(i) => {
                if out.len() + i > max {
                    let total = out.len() + i;
                    reader.consume(i + 1);
                    return Ok(LineRead::TooLong(total));
                }
                out.extend_from_slice(&buf[..i]);
                reader.consume(i + 1);
                if out.last() == Some(&b'\r') {
                    out.pop();
                }
                return Ok(LineRead::Line);
            }
            None => {
                let n = buf.len();
                if out.len() + n > max {
                    // Too long already; discard through the newline.
                    let mut total = out.len() + n;
                    reader.consume(n);
                    loop {
                        let buf = reader.fill_buf()?;
                        if buf.is_empty() {
                            return Ok(LineRead::TooLong(total));
                        }
                        match abp::scan::memchr(b'\n', buf) {
                            Some(i) => {
                                total += i;
                                reader.consume(i + 1);
                                return Ok(LineRead::TooLong(total));
                            }
                            None => {
                                total += buf.len();
                                let n = buf.len();
                                reader.consume(n);
                            }
                        }
                    }
                }
                out.extend_from_slice(buf);
                reader.consume(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ClientMessage, HealthState, ShardStats};
    use abpdelta::{Delta, DeltaOp};

    fn req(url: &str, sitekey: Option<&str>) -> DecisionRequest {
        DecisionRequest {
            url: url.to_string(),
            document: "news.example".to_string(),
            resource_type: ResourceType::Script,
            sitekey: sitekey.map(str::to_string),
            tenant: None,
        }
    }

    /// Each table entry is serde's spelling of its value, both ways;
    /// the tables hold every variant (checked where they are built).
    #[test]
    fn enum_names_round_trip_through_serde() {
        fn check<T>(table: &[(&str, T)])
        where
            T: Copy + PartialEq + std::fmt::Debug + Serialize + Deserialize,
        {
            for (i, &(name, v)) in table.iter().enumerate() {
                assert_eq!(serde_json::to_string(&v).unwrap(), format!("\"{name}\""));
                assert_eq!(
                    serde_json::from_str::<T>(&format!("\"{name}\"")).unwrap(),
                    v
                );
                assert_eq!(from_name(table, name), Some(v));
                assert_eq!(table[..i].iter().find(|e| e.0 == name), None);
            }
            assert_eq!(from_name(table, "Nope"), None);
        }
        check(RESOURCE_TYPES);
        check(DECISIONS);
        check(LIST_SOURCES);
        check(MATCH_KINDS);
    }

    /// `read` over the whole of `obj`: its value if it accepts and
    /// consumes every byte.
    fn whole<'a, T>(obj: &'a str, read: impl FnOnce(&mut Scan<'a>) -> Option<T>) -> Option<T> {
        let mut s = Scan::new(obj);
        read(&mut s).filter(|_| s.pos == obj.len())
    }

    /// The writers and the canonical readers stay in step: every object
    /// a hot writer produces — each enum variant, options present and
    /// absent, strings that need escapes — is taken by the canonical
    /// reader, whole, as the value the field walker reads. A field
    /// added to a writer alone would send every line down the walker
    /// with no answer changing; this is where that shows.
    #[test]
    fn canonical_readers_take_every_written_object() {
        const TEXTS: [&str; 4] = [
            "http://ads.example/x.js?a=1&b=2",
            "",
            "q\"uote\\ back/slash\n\t\u{1}\u{7f} é😀",
            "$sitekey=K,donottrack",
        ];
        let mut reqs = Vec::new();
        for (i, &(_, resource_type)) in RESOURCE_TYPES.iter().enumerate() {
            for sitekey in [None, Some(""), Some("MFwwDQYJKEY"), Some(TEXTS[2])] {
                for tenant in [None, Some(0), Some(0b1011), Some(u64::MAX)] {
                    reqs.push(DecisionRequest {
                        url: TEXTS[i % 4].to_string(),
                        document: TEXTS[(i + 2) % 4].to_string(),
                        resource_type,
                        sitekey: sitekey.map(str::to_string),
                        tenant,
                    });
                }
            }
        }
        let mut line = Vec::new();
        write_decide_batch(&reqs, &mut line);
        let line = std::str::from_utf8(&line).unwrap();
        let mut spans = Vec::new();
        walked::parse_client_message_spans(line, &mut spans).unwrap();
        assert_eq!(spans.len(), reqs.len());
        for (span, r) in spans.into_iter().zip(&reqs) {
            let obj = &line[span];
            let walked = Scan::new(obj).walk_request().unwrap();
            assert_eq!(walked.to_owned_request(), *r);
            assert_eq!(whole(obj, Scan::canonical_request), Some(walked), "{obj}");
        }

        let mut activations = Vec::new();
        for &(_, source) in LIST_SOURCES {
            for &(_, kind) in MATCH_KINDS {
                for donottrack in [false, true] {
                    let i = activations.len();
                    activations.push(Activation {
                        filter: TEXTS[(i + 3) % 4].into(),
                        source,
                        kind,
                        subject: TEXTS[i % 4].into(),
                        donottrack,
                    });
                }
            }
        }
        for &(_, decision) in DECISIONS {
            for n in [0, 1, 2, activations.len()] {
                activations.rotate_left(1);
                for cached in [false, true] {
                    let resp = DecisionResponse {
                        outcome: RequestOutcome {
                            decision,
                            activations: activations[..n].to_vec(),
                        },
                        cached,
                    };
                    let mut run = Vec::new();
                    let outcome = push_decision(&mut run, &resp.outcome, cached);
                    let mut reply = Vec::new();
                    write_decision_reply(&resp, &mut reply);
                    let reply = std::str::from_utf8(&reply).unwrap();
                    assert_eq!(reply.as_bytes()[DECISION_OPEN.len()..reply.len() - 1], run);
                    let obj = std::str::from_utf8(&run).unwrap();

                    let walked = Scan::new(obj).walk_response().unwrap();
                    assert_eq!(walked, resp);
                    let mut read = Vec::new();
                    let canonical = whole(obj, |s| {
                        s.canonical_response(|a| read.push(a.into_activation()))
                    });
                    assert_eq!(canonical, Some((decision, cached)), "{obj}");
                    assert_eq!(read, resp.outcome.activations);
                    let obj = &obj[outcome];
                    assert_eq!(whole(obj, |s| s.canonical_outcome(|_| {})), Some(decision));
                    for a in &resp.outcome.activations {
                        let mut one = Vec::new();
                        write_activation(&ActivationRef::of(a), &mut one);
                        let one = std::str::from_utf8(&one).unwrap();
                        let read = whole(one, Scan::canonical_activation);
                        assert_eq!(read.map(ActivationRef::into_activation).as_ref(), Some(a));
                    }
                }
            }
        }
    }

    #[test]
    fn request_writers_match_serde() {
        for r in [
            req("http://ads.example/x.js", None),
            req("http://q.example/\"quoted\"\npath", Some("KEY")),
            req("http://é😀.example/", Some("")),
            DecisionRequest {
                tenant: Some(0b1011),
                ..req("http://t.example/x.js", None)
            },
            DecisionRequest {
                tenant: Some(u64::MAX),
                ..req("http://t.example/y.js", Some("KEY"))
            },
        ] {
            let mut buf = Vec::new();
            write_decide(&r, &mut buf);
            let expect = serde_json::to_string(&ClientMessage::Decide(r.clone())).unwrap();
            assert_eq!(std::str::from_utf8(&buf).unwrap(), expect);

            buf.clear();
            write_decide_batch(std::slice::from_ref(&r), &mut buf);
            let expect =
                serde_json::to_string(&ClientMessage::DecideBatch(vec![r.clone()])).unwrap();
            assert_eq!(std::str::from_utf8(&buf).unwrap(), expect);
        }
        let mut buf = Vec::new();
        write_decide_batch(&[], &mut buf);
        assert_eq!(
            std::str::from_utf8(&buf).unwrap(),
            serde_json::to_string(&ClientMessage::DecideBatch(vec![])).unwrap()
        );
    }

    #[test]
    fn parse_accepts_serde_output_and_borrows() {
        let r = req("http://ads.example/x.js", None);
        let line = serde_json::to_string(&ClientMessage::Decide(r.clone())).unwrap();
        let parsed = parse_client_message(&line).unwrap();
        match &parsed {
            ClientMessageRef::Decide(p) => {
                assert!(matches!(p.url, Cow::Borrowed(_)), "escape-free url borrows");
                assert_eq!(p.to_owned_request(), r);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        assert_eq!(
            parse_client_message("\"Ping\"").unwrap(),
            ClientMessageRef::Ping
        );
        assert_eq!(
            parse_client_message("  \"Stats\" ").unwrap(),
            ClientMessageRef::Stats
        );
    }

    #[test]
    fn parse_handles_field_order_unknown_fields_and_defaults() {
        let line = r#"{"Decide":{"resource_type":"Image","ignored":{"a":[1,2,{"b":null}]},"document":"d.example","url":"http://u.example/"}}"#;
        match parse_client_message(line).unwrap() {
            ClientMessageRef::Decide(p) => {
                assert_eq!(p.url, "http://u.example/");
                assert_eq!(p.document, "d.example");
                assert_eq!(p.resource_type, ResourceType::Image);
                assert_eq!(p.sitekey, None);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        // Explicit null sitekey, and escaped strings go owned.
        let line = r#"{"Decide":{"url":"http:\/\/u.example\/","document":"d","resource_type":"Other","sitekey":null}}"#;
        match parse_client_message(line).unwrap() {
            ClientMessageRef::Decide(p) => {
                assert_eq!(p.url, "http://u.example/");
                assert!(matches!(p.url, Cow::Owned(_)));
                assert_eq!(p.sitekey, None);
                assert_eq!(p.tenant, None, "missing tenant defaults to None");
            }
            other => panic!("wrong variant: {other:?}"),
        }
        // Tenant: explicit number, explicit null, any field position.
        let line = r#"{"Decide":{"tenant":11,"url":"http://u.example/","document":"d","resource_type":"Other"}}"#;
        match parse_client_message(line).unwrap() {
            ClientMessageRef::Decide(p) => assert_eq!(p.tenant, Some(11)),
            other => panic!("wrong variant: {other:?}"),
        }
        let line = format!(
            r#"{{"Decide":{{"url":"http://u.example/","document":"d","resource_type":"Other","tenant":{}}}}}"#,
            u64::MAX
        );
        match parse_client_message(&line).unwrap() {
            ClientMessageRef::Decide(p) => assert_eq!(p.tenant, Some(u64::MAX)),
            other => panic!("wrong variant: {other:?}"),
        }
        let line = r#"{"Decide":{"url":"http://u.example/","document":"d","resource_type":"Other","tenant":null}}"#;
        match parse_client_message(line).unwrap() {
            ClientMessageRef::Decide(p) => assert_eq!(p.tenant, None),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    /// Parse a Decide line whose url field holds `escaped` verbatim and
    /// return the decoded url (or the parse error).
    fn parse_url(escaped: &str) -> Result<String, String> {
        let line =
            format!(r#"{{"Decide":{{"url":"{escaped}","document":"d","resource_type":"Other"}}}}"#);
        parse_client_message(&line).map(|m| match m {
            ClientMessageRef::Decide(p) => p.url.into_owned(),
            other => panic!("wrong variant: {other:?}"),
        })
    }

    #[test]
    fn unicode_escapes_decode_like_serde() {
        assert_eq!(parse_url(r"\u00e9").unwrap(), "é");
        assert_eq!(parse_url(r"\ud83d\ude00").unwrap(), "😀");
        assert_eq!(parse_url(r"\uD83D\uDE00x").unwrap(), "😀x");
    }

    #[test]
    fn bad_unicode_escapes_error_instead_of_panicking() {
        // `\u` followed by multi-byte UTF-8: byte 2 of the "4 hex
        // digits" is mid-char — must be a parse error, not a
        // char-boundary panic (the hex window may not be sliceable
        // as &str).
        assert!(parse_url("\\ua\u{e9}\u{91d1}").is_err());
        assert!(parse_url("\\u\u{91d1}x").is_err());
        // Truncated and non-hex escapes.
        assert!(parse_url(r"\u12").is_err());
        assert!(parse_url(r"\uzzzz").is_err());
        // Lone or malformed surrogates: a high surrogate must be
        // followed by `\u` + a *low* surrogate; anything else errors
        // (never wraps into a wrong char) — same as serde.
        assert!(parse_url(r"\ud800").is_err());
        assert!(parse_url(r"\ud800\u0041").is_err());
        assert!(parse_url(r"\ud800\udbff").is_err());
        assert!(parse_url(r"\udc00").is_err());

        // The same, where serde reads them: in every cold payload,
        // through both message parsers.
        for line in cold_lines_carrying("\"ok\"") {
            assert!(either_parser_accepts(&line), "{line}");
        }
        for bad in [
            "\\ua\u{e9}\u{91d1}",
            r"\u12",
            r"\ud800",
            concat!(r"\ud800\u", "0041"),
            r"\ud800\udbff",
            r"\udc00",
        ] {
            for line in cold_lines_carrying(&format!("\"{bad}\"")) {
                assert!(!either_parser_accepts(&line), "{line}");
            }
        }
    }

    /// Every cold message, client and server, carrying the JSON value
    /// `x` where serde parses it: as `Reload` list content, as a
    /// `ReloadDelta` `Insert`, and as an unknown field of each reply.
    fn cold_lines_carrying(x: &str) -> [String; 6] {
        [
            format!(r#"{{"Reload":[{{"source":"EasyList","content":{x}}}]}}"#),
            format!(
                r#"{{"ReloadDelta":[{{"source":"Custom","delta":{{"base_len":0,"base_check":0,"target_len":2,"target_check":0,"block_size":4,"ops":[{{"Insert":{x}}}]}}}}]}}"#
            ),
            format!(
                r#"{{"Stats":{{"requests":1,"cache_hits":0,"blocks":0,"exceptions":0,"p50_us":0,"p99_us":0,"shards":[],"x":{x}}}}}"#
            ),
            format!(
                r#"{{"Health":{{"state":"ok","generation":0,"reloads":0,"shard_restarts":[],"shed":0,"deadline_timeouts":0,"list_checksum":0,"x":{x}}}}}"#
            ),
            format!(r#"{{"Reloaded":{{"generation":1,"filters":2,"x":{x}}}}}"#),
            format!(
                r#"{{"ReloadBaseMismatch":{{"source":"Custom","serving_check":0,"generation":1,"x":{x}}}}}"#
            ),
        ]
    }

    fn either_parser_accepts(line: &str) -> bool {
        parse_client_message(line).is_ok() || parse_server_message(line).is_ok()
    }

    /// Leniency worth pinning: a raw control byte inside a string is
    /// not JSON, but this reader has always taken it as itself — the
    /// word-wide scan stops on it and steps over — and the writer
    /// still escapes it on the way out, exactly as serde does.
    #[test]
    fn raw_control_bytes_are_read_as_they_are_and_written_escaped() {
        let raw = "a\u{1}b\tc\u{1f}, then eight more\r.";
        assert_eq!(parse_url(raw).unwrap(), raw);
        // On the owned path too (an escape earlier in the string), and
        // inside a value that is only skipped.
        assert_eq!(
            parse_url(&format!("\\/{raw}\\n")).unwrap(),
            format!("/{raw}\n")
        );
        let skipped = format!(
            r#"{{"Decide":{{"x":"{raw}","url":"u","document":"d","resource_type":"Other"}}}}"#
        );
        assert!(parse_client_message(&skipped).is_ok());

        let mut out = Vec::new();
        write_string("a\u{1}\n\t\r\u{1f}\u{7f}é", &mut out);
        assert_eq!(
            std::str::from_utf8(&out).unwrap(),
            "\"a\\u0001\\n\\t\\r\\u001f\u{7f}é\""
        );
        assert_eq!(
            std::str::from_utf8(&out).unwrap(),
            serde_json::to_string("a\u{1}\n\t\r\u{1f}\u{7f}é").unwrap()
        );
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let decide = |x: &str| {
            format!(r#"{{"Decide":{{"x":{x},"url":"u","document":"d","resource_type":"Other"}}}}"#)
        };
        assert!(parse_client_message(&decide(&nested(MAX_SKIP_DEPTH))).is_ok());
        assert!(parse_client_message(&decide(&nested(MAX_SKIP_DEPTH + 1))).is_err());
        // Far past where an unbounded recursion would have died.
        let bomb = "[{\"a\":".repeat(200_000);
        assert!(parse_client_message(&decide(&bomb)).is_err());
        let mut spans = Vec::new();
        let batch = format!("{{\"DecideBatch\":[{}", &decide(&bomb)[10..]);
        assert!(parse_client_message_spans(&batch, &mut spans).is_err());
        assert!(split_decisions(&format!("{{\"Batch\":[{{\"a\":{bomb}"), &mut spans).is_err());
        assert!(parse_server_message(&format!("{{\"Decision\":{{\"a\":{bomb}")).is_err());
        // Inside cold payloads the serde parser recurses, so its own
        // limit is what stands between the bomb and the stack.
        for line in cold_lines_carrying(&bomb) {
            assert!(!either_parser_accepts(&line));
        }
        let deep = nested(MAX_SKIP_DEPTH - 1);
        for line in cold_lines_carrying(&deep).into_iter().skip(2) {
            assert!(either_parser_accepts(&line), "{line}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_client_message("this is not json").is_err());
        assert!(parse_client_message("\"Nope\"").is_err());
        assert!(parse_client_message("{\"Decide\":{}}").is_err());
        assert!(parse_client_message("{\"Decide\":{\"url\":\"u\"}} trailing").is_err());
        assert!(parse_server_message("{\"Decision\":{}}").is_err());
    }

    #[test]
    fn batch_spans_are_the_elements_as_sent() {
        let a = r#"{"url":"http:\/\/a.example\/","document":"d","resource_type":"Other"}"#;
        let b = r#"{ "x" : ["]},{", 1e3] , "tenant":3,"resource_type":"Image","document":"e","url":"u" }"#;
        let line = format!("{{\"DecideBatch\" : [ {a}\t,{b} ] }}");
        let mut spans = vec![0..0; 3]; // stale: must be cleared
        let parsed = parse_client_message_spans(&line, &mut spans).unwrap();
        assert_eq!(parsed, parse_client_message(&line).unwrap());
        let raw: Vec<&str> = spans.iter().map(|s| &line[s.clone()]).collect();
        assert_eq!(raw, [a, b]);

        let mut sub = Vec::new();
        splice_decide_batch([b.as_bytes()], &mut sub);
        match parse_client_message(std::str::from_utf8(&sub).unwrap()).unwrap() {
            ClientMessageRef::DecideBatch(reqs) => {
                assert_eq!(reqs.len(), 1);
                assert_eq!(reqs[0].tenant, Some(3));
                assert_eq!(reqs[0].document, "e");
            }
            other => panic!("wrong variant: {other:?}"),
        }

        // Every other message leaves no spans behind.
        parse_client_message_spans("\"Ping\"", &mut spans).unwrap();
        assert!(spans.is_empty());
        parse_client_message_spans(&format!("{{\"Decide\":{a}}}"), &mut spans).unwrap();
        assert!(spans.is_empty());
        assert!(parse_client_message_spans("{\"DecideBatch\":[{}]}", &mut spans).is_err());
    }

    #[test]
    fn split_decisions_finds_each_decision_or_declines() {
        let x = r#"{"outcome":{"decision":"Block","activations":[{"filter":"a\"]}","n":-1}]},"cached":false}"#;
        let y = r#"{"cached":true}"#;
        let mut spans = Vec::new();
        let line = format!("{{\"Batch\":[{x} , {y}]}}");
        assert_eq!(split_decisions(&line, &mut spans), Ok(DecisionShape::Batch));
        let raw: Vec<&str> = spans.iter().map(|s| &line[s.clone()]).collect();
        assert_eq!(raw, [x, y]);
        let mut joined = Vec::new();
        splice_batch_reply([y.as_bytes(), x.as_bytes()], &mut joined);
        assert_eq!(joined, format!("{{\"Batch\":[{y},{x}]}}").as_bytes());

        let line = format!(" {{\"Decision\": {x} }} ");
        assert_eq!(
            split_decisions(&line, &mut spans),
            Ok(DecisionShape::Single)
        );
        assert_eq!(&line[spans[0].clone()], x);
        assert_eq!(
            split_decisions("{\"Batch\":[]}", &mut spans),
            Ok(DecisionShape::Batch)
        );
        assert!(spans.is_empty());

        for not_decisions in [
            "\"Overloaded\"",
            "{\"Error\":\"shed\"}",
            "{\"Batch\":[1,2]}",
            "{\"Batch\":[{\"a\":1}",
            "{\"Batch\":[{\"a\":1},]}",
            "{\"Batch\":[{\"a\":\"x]}",
            "{\"Batch\":[{\"a\":\"\\q\"}]}",
            "{\"Decision\":{}} x",
            "",
        ] {
            assert!(
                split_decisions(not_decisions, &mut spans).is_err(),
                "{not_decisions}"
            );
        }
    }

    type Goldens<M> = Vec<(M, &'static str)>;

    /// One of each cold message and the exact line the hand-rolled
    /// writers emitted before serde took these messages over.
    fn cold_goldens() -> (Goldens<ClientMessage>, Goldens<ServerMessage>) {
        let shard = |requests, p99_us| ShardStats {
            requests,
            cache_hits: 3,
            blocks: 2,
            exceptions: 1,
            p50_us: 5,
            p99_us,
        };
        let client = vec![
            (
                ClientMessage::Reload(vec![
                    ReloadList {
                        source: ListSource::EasyList,
                        content: "||ads.example^\n! \"quoted\" — é😀\n".to_string(),
                    },
                    ReloadList {
                        source: ListSource::AcceptableAds,
                        content: "@@||ok.example^$sitekey=K\\\t\u{1}\n".to_string(),
                    },
                ]),
                r#"{"Reload":[{"source":"EasyList","content":"||ads.example^\n! \"quoted\" — é😀\n"},{"source":"AcceptableAds","content":"@@||ok.example^$sitekey=K\\\t\u0001\n"}]}"#,
            ),
            (
                ClientMessage::ReloadDelta(vec![ReloadDeltaList {
                    source: ListSource::Custom,
                    delta: Delta {
                        base_len: 5,
                        base_check: 11,
                        target_len: 9,
                        target_check: 22,
                        block_size: 4,
                        ops: vec![
                            DeltaOp::Copy { off: 0, len: 4 },
                            DeltaOp::Insert("é\"x\n".to_string()),
                        ],
                    },
                }]),
                r#"{"ReloadDelta":[{"source":"Custom","delta":{"base_len":5,"base_check":11,"target_len":9,"target_check":22,"block_size":4,"ops":[{"Copy":{"off":0,"len":4}},{"Insert":"é\"x\n"}]}}]}"#,
            ),
        ];
        let server = vec![
            (
                ServerMessage::Stats(StatsReport {
                    requests: 10,
                    cache_hits: 4,
                    blocks: 3,
                    exceptions: 2,
                    p50_us: 7,
                    p99_us: 41,
                    shards: vec![shard(6, 40), shard(4, 41)],
                    distinct_tenants: 3,
                    tenant_requests_by_lists: vec![1, 2, 3, 4, 0],
                    tenant_cache_hits_by_lists: vec![0, 1, 1, 2, 0],
                }),
                r#"{"Stats":{"requests":10,"cache_hits":4,"blocks":3,"exceptions":2,"p50_us":7,"p99_us":41,"shards":[{"requests":6,"cache_hits":3,"blocks":2,"exceptions":1,"p50_us":5,"p99_us":40},{"requests":4,"cache_hits":3,"blocks":2,"exceptions":1,"p50_us":5,"p99_us":41}],"distinct_tenants":3,"tenant_requests_by_lists":[1,2,3,4,0],"tenant_cache_hits_by_lists":[0,1,1,2,0]}}"#,
            ),
            (
                ServerMessage::Health(HealthReport {
                    state: HealthState::Degraded,
                    generation: 2,
                    reloads: 1,
                    shard_restarts: vec![0, 3],
                    shed: 0,
                    deadline_timeouts: 4,
                    list_checksum: u64::MAX,
                    distinct_tenants: 5,
                }),
                r#"{"Health":{"state":"degraded","generation":2,"reloads":1,"shard_restarts":[0,3],"shed":0,"deadline_timeouts":4,"list_checksum":18446744073709551615,"distinct_tenants":5}}"#,
            ),
            (
                ServerMessage::Reloaded(ReloadReport {
                    generation: 3,
                    filters: 412,
                }),
                r#"{"Reloaded":{"generation":3,"filters":412}}"#,
            ),
            (
                ServerMessage::ReloadBaseMismatch(ReloadMismatch {
                    source: ListSource::AcceptableAds,
                    serving_check: 0x1234_5678_9abc_def0,
                    generation: 3,
                }),
                r#"{"ReloadBaseMismatch":{"source":"AcceptableAds","serving_check":1311768467463790320,"generation":3}}"#,
            ),
        ];
        (client, server)
    }

    #[test]
    fn cold_messages_are_the_parent_commits_bytes() {
        let (client, server) = cold_goldens();
        for (msg, golden) in client {
            let mut out = Vec::new();
            let parsed = match msg {
                ClientMessage::Reload(ls) => {
                    write_reload(&ls, &mut out);
                    ClientMessageRef::Reload(ls)
                }
                ClientMessage::ReloadDelta(ds) => {
                    write_reload_delta(&ds, &mut out);
                    ClientMessageRef::ReloadDelta(ds)
                }
                _ => unreachable!(),
            };
            assert_eq!(std::str::from_utf8(&out).unwrap(), golden);
            assert_eq!(parse_client_message(golden), Ok(parsed));
        }
        for (msg, golden) in server {
            let mut out = Vec::new();
            match &msg {
                ServerMessage::Stats(s) => write_stats_reply(s, &mut out),
                ServerMessage::Health(h) => write_health_reply(h, &mut out),
                ServerMessage::Reloaded(r) => write_reloaded(r, &mut out),
                ServerMessage::ReloadBaseMismatch(m) => write_reload_base_mismatch(m, &mut out),
                _ => unreachable!(),
            }
            assert_eq!(std::str::from_utf8(&out).unwrap(), golden);
            assert_eq!(parse_server_message(golden), Ok(msg));
        }
    }

    /// A reader from before the tenant fields still parses the line a
    /// pre-tenant server sends: the `#[serde(default)]` trailing fields
    /// come back at their defaults.
    #[test]
    fn pre_tenant_stats_and_health_lines_still_parse() {
        let stats = r#"{"Stats":{"requests":9,"cache_hits":1,"blocks":2,"exceptions":3,"p50_us":4,"p99_us":5,"shards":[{"requests":9,"cache_hits":1,"blocks":2,"exceptions":3,"p50_us":4,"p99_us":5}]}}"#;
        let shard = ShardStats {
            requests: 9,
            cache_hits: 1,
            blocks: 2,
            exceptions: 3,
            p50_us: 4,
            p99_us: 5,
        };
        assert_eq!(
            parse_server_message(stats),
            Ok(ServerMessage::Stats(StatsReport {
                requests: 9,
                cache_hits: 1,
                blocks: 2,
                exceptions: 3,
                p50_us: 4,
                p99_us: 5,
                shards: vec![shard],
                distinct_tenants: 0,
                tenant_requests_by_lists: vec![],
                tenant_cache_hits_by_lists: vec![],
            }))
        );
        let health = r#"{"Health":{"state":"draining","generation":4,"reloads":3,"shard_restarts":[1],"shed":0,"deadline_timeouts":2,"list_checksum":7}}"#;
        assert_eq!(
            parse_server_message(health),
            Ok(ServerMessage::Health(HealthReport {
                state: HealthState::Draining,
                generation: 4,
                reloads: 3,
                shard_restarts: vec![1],
                shed: 0,
                deadline_timeouts: 2,
                list_checksum: 7,
                distinct_tenants: 0,
            }))
        );
    }

    #[test]
    fn line_reader_bounds_and_resyncs() {
        use std::io::BufReader;
        let data = b"short\nway too long line here\nnext\npartial";
        let mut r = BufReader::with_capacity(8, &data[..]);
        let mut buf = Vec::new();
        assert_eq!(
            read_line_limited(&mut r, &mut buf, 10).unwrap(),
            LineRead::Line
        );
        assert_eq!(buf, b"short");
        assert_eq!(
            read_line_limited(&mut r, &mut buf, 10).unwrap(),
            LineRead::TooLong(22)
        );
        assert_eq!(
            read_line_limited(&mut r, &mut buf, 10).unwrap(),
            LineRead::Line
        );
        assert_eq!(buf, b"next");
        assert_eq!(
            read_line_limited(&mut r, &mut buf, 10).unwrap(),
            LineRead::EofMidLine
        );
        assert_eq!(buf, b"partial");
        assert_eq!(
            read_line_limited(&mut r, &mut buf, 10).unwrap(),
            LineRead::Eof
        );
    }

    #[test]
    fn crlf_is_stripped() {
        use std::io::BufReader;
        let mut r = BufReader::new(&b"\"Ping\"\r\n"[..]);
        let mut buf = Vec::new();
        assert_eq!(
            read_line_limited(&mut r, &mut buf, 100).unwrap(),
            LineRead::Line
        );
        assert_eq!(buf, b"\"Ping\"");
    }
}
