//! Blocking client for the abpd wire protocol.
//!
//! [`Client`] keeps a reusable write buffer and a reusable reply-line
//! buffer, encodes requests with the zero-copy [`wire`](crate::wire)
//! codec, and bounds how large a reply line it will buffer
//! ([`Client::max_reply_bytes`]). Besides the classic lockstep calls
//! (`decide`, `decide_batch`), it offers pipelined evaluation
//! ([`Client::decide_pipelined`], [`Client::decide_batch_pipelined`]):
//! up to `depth` requests are written before the first reply is read,
//! and because the server answers every line in order, replies are
//! matched back to requests by position. Pipelining changes throughput,
//! never semantics — the responses are identical to lockstep calls.
//!
//! # Failure handling
//!
//! Every read and every write carries a timeout (default 30 s) so a
//! dead or stalled server surfaces as an error instead of a
//! forever-block. Once any transport operation fails — timeout,
//! truncated reply, EOF — the connection is marked *broken*: replies
//! may still be in flight for requests this client will never read, so
//! every later call fails fast instead of desynchronizing. Reconnect
//! by building a new `Client`, or let [`RetryClient`] do it: it wraps
//! the pipelined path with transparent reconnects, resends of
//! unanswered chunks (decisions are pure, so resending is safe), and
//! exponential backoff with jitter on `Overloaded` replies.

use crate::faults::splitmix64;
use crate::protocol::{
    DecisionRequest, DecisionResponse, HealthReport, ReloadDeltaList, ReloadList, ReloadMismatch,
    ReloadReport, ServerMessage, StatsReport,
};
use crate::wire::{self, LineRead};
use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Longest reply line the client will buffer by default (16 MiB — a
/// 4096-request batch of worst-case replies fits comfortably).
const DEFAULT_MAX_REPLY_BYTES: usize = 16 * 1024 * 1024;

/// How long a read waits for a reply line before failing with
/// [`std::io::ErrorKind::TimedOut`].
pub const DEFAULT_REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Marker payload inside an [`std::io::Error`] when the server answered
/// `Overloaded`: the request was shed before evaluation and a retry
/// with backoff is appropriate. Test with [`is_overloaded`].
#[derive(Debug)]
pub struct OverloadedError;

impl std::fmt::Display for OverloadedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "server overloaded: the request was shed")
    }
}

impl std::error::Error for OverloadedError {}

/// Whether an error is the server's `Overloaded` shed reply.
pub fn is_overloaded(e: &std::io::Error) -> bool {
    e.get_ref()
        .is_some_and(|inner| inner.is::<OverloadedError>())
}

fn overloaded_error() -> std::io::Error {
    std::io::Error::other(OverloadedError)
}

/// What the server said to a [`Client::reload_delta`].
#[derive(Debug, Clone)]
pub enum ReloadDeltaOutcome {
    /// Every delta applied; the server swapped in the new generation.
    Applied(ReloadReport),
    /// The server's serving body is not the delta's base — send a full
    /// `Reload` instead. Carries the server's serving checksum and
    /// generation for the mismatched list.
    BaseMismatch(ReloadMismatch),
}

/// A connected abpd client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Reusable encode buffer for outgoing request lines.
    wbuf: Vec<u8>,
    /// Reusable buffer for incoming reply lines.
    line: Vec<u8>,
    max_reply_bytes: usize,
    /// Set once a transport operation fails; later calls fail fast.
    broken: bool,
}

fn protocol_error(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

impl Client {
    /// Connect to a server, waiting at most [`DEFAULT_REPLY_TIMEOUT`]
    /// for the connection, each reply and each request write; tune the
    /// last two with [`Client::reply_timeout`].
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        Client::connect_timeout(addr, DEFAULT_REPLY_TIMEOUT)
    }

    /// Connect within `timeout` (tried per resolved address), and time
    /// out replies and request writes after the same `timeout`.
    pub fn connect_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> std::io::Result<Client> {
        let timeout = timeout.max(Duration::from_millis(1));
        let mut last = None;
        for addr in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(timeout))?;
                    stream.set_write_timeout(Some(timeout))?;
                    // A 256-decision reply line is ~54 KB: one read, one
                    // newline search, where the default 8 KiB buffer took
                    // seven of each.
                    let reader = BufReader::with_capacity(64 * 1024, stream.try_clone()?);
                    return Ok(Client {
                        reader,
                        writer: stream,
                        wbuf: Vec::with_capacity(4096),
                        line: Vec::new(),
                        max_reply_bytes: DEFAULT_MAX_REPLY_BYTES,
                        broken: false,
                    });
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| std::io::ErrorKind::AddrNotAvailable.into()))
    }

    /// Bound the longest reply line this client will buffer; longer
    /// replies surface as a protocol error naming the byte count.
    pub fn max_reply_bytes(&mut self, max: usize) -> &mut Self {
        self.max_reply_bytes = max.max(64);
        self
    }

    /// How long to wait for each reply line, and for the server to
    /// take each request write; `None` waits forever. A server that
    /// stops reading fails the write instead of blocking the caller.
    pub fn reply_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<&mut Self> {
        // Zero is "no timeout" to the OS but an error to std; treat it
        // as the smallest real timeout instead of surprising callers.
        let timeout = timeout.map(|t| t.max(Duration::from_millis(1)));
        self.writer.set_read_timeout(timeout)?;
        self.writer.set_write_timeout(timeout)?;
        Ok(self)
    }

    /// Whether a transport failure has poisoned this connection (see
    /// the module docs); if so, every call fails fast until you
    /// reconnect.
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    fn ensure_usable(&self) -> std::io::Result<()> {
        if self.broken {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "connection is broken after an earlier transport failure; reconnect",
            ));
        }
        Ok(())
    }

    /// Send whatever is in `wbuf` as one syscall and clear it.
    fn send(&mut self) -> std::io::Result<()> {
        if let Err(e) = self.writer.write_all(&self.wbuf) {
            self.broken = true;
            self.wbuf.clear();
            return Err(e);
        }
        self.wbuf.clear();
        Ok(())
    }

    /// Read one reply line ([`Client::read_reply_raw`]) and parse it. A
    /// reply that is not UTF-8 or not a server message marks the
    /// connection broken like a transport failure.
    fn read_reply(&mut self) -> std::io::Result<ServerMessage> {
        self.read_reply_raw()?;
        let parsed = match std::str::from_utf8(&self.line) {
            Ok(text) => wire::parse_server_message(text).map_err(|e| format!("bad reply: {e}")),
            Err(e) => Err(format!("reply is not UTF-8: {e}")),
        };
        parsed.map_err(|e| {
            self.broken = true;
            protocol_error(e)
        })
    }

    /// Evaluate one request.
    pub fn decide(&mut self, req: &DecisionRequest) -> std::io::Result<DecisionResponse> {
        self.ensure_usable()?;
        wire::write_decide(req, &mut self.wbuf);
        self.wbuf.push(b'\n');
        self.send()?;
        match self.read_reply()? {
            ServerMessage::Decision(d) => Ok(d),
            ServerMessage::Overloaded => Err(overloaded_error()),
            ServerMessage::Error(e) => Err(protocol_error(e)),
            other => Err(protocol_error(format!("unexpected reply: {other:?}"))),
        }
    }

    /// Evaluate a batch; responses come back in request order.
    pub fn decide_batch(
        &mut self,
        reqs: &[DecisionRequest],
    ) -> std::io::Result<Vec<DecisionResponse>> {
        self.ensure_usable()?;
        wire::write_decide_batch(reqs, &mut self.wbuf);
        self.wbuf.push(b'\n');
        self.send()?;
        match self.read_reply()? {
            ServerMessage::Batch(b) if b.len() == reqs.len() => Ok(b),
            ServerMessage::Batch(b) => Err(protocol_error(format!(
                "expected {} responses, got {}",
                reqs.len(),
                b.len()
            ))),
            ServerMessage::Overloaded => Err(overloaded_error()),
            ServerMessage::Error(e) => Err(protocol_error(e)),
            other => Err(protocol_error(format!("unexpected reply: {other:?}"))),
        }
    }

    /// Evaluate `reqs` with up to `depth` single `Decide` lines in
    /// flight, returning responses in request order. Semantically
    /// identical to calling [`Client::decide`] in a loop; the window
    /// just overlaps the network and the server's evaluation.
    pub fn decide_pipelined(
        &mut self,
        reqs: &[DecisionRequest],
        depth: usize,
    ) -> std::io::Result<Vec<DecisionResponse>> {
        self.run_pipeline(reqs.len(), depth, |wbuf, i| {
            wire::write_decide(&reqs[i], wbuf);
            1
        })
    }

    /// Evaluate `reqs` chopped into `DecideBatch` lines of `batch`
    /// requests, with up to `depth` batch lines in flight. Responses
    /// come back flattened, in request order.
    pub fn decide_batch_pipelined(
        &mut self,
        reqs: &[DecisionRequest],
        batch: usize,
        depth: usize,
    ) -> std::io::Result<Vec<DecisionResponse>> {
        let batch = batch.max(1);
        let chunks: Vec<&[DecisionRequest]> = reqs.chunks(batch).collect();
        self.run_pipeline(chunks.len(), depth, |wbuf, i| {
            wire::write_decide_batch(chunks[i], wbuf);
            chunks[i].len()
        })
    }

    /// The shared pipeline driver: `messages` lines total, at most
    /// `depth` unread at any moment. `encode` appends line `i` (without
    /// its newline) to the write buffer and returns how many responses
    /// that line must produce.
    ///
    /// Any mid-pipeline failure — including a semantic `Error` or
    /// `Overloaded` reply — abandons replies still in flight, so it
    /// also marks the connection broken.
    fn run_pipeline(
        &mut self,
        messages: usize,
        depth: usize,
        mut encode: impl FnMut(&mut Vec<u8>, usize) -> usize,
    ) -> std::io::Result<Vec<DecisionResponse>> {
        self.ensure_usable()?;
        let depth = depth.max(1);
        let mut responses = Vec::new();
        let mut expected: VecDeque<usize> = VecDeque::with_capacity(depth);
        let mut next = 0usize;
        while next < messages || !expected.is_empty() {
            // Fill the window: encode every line it has room for, then
            // ship them with one write.
            while next < messages && expected.len() < depth {
                expected.push_back(encode(&mut self.wbuf, next));
                self.wbuf.push(b'\n');
                next += 1;
            }
            if !self.wbuf.is_empty() {
                self.send()?;
            }
            // Drain one reply, opening one window slot. Replies arrive
            // in send order, so the front of `expected` is always the
            // reply being read.
            let want = expected.pop_front().expect("a reply is outstanding");
            // If the pipeline aborts while later replies are still in
            // flight, the stream is permanently out of step — poison
            // the connection so nothing reads a misaligned reply.
            let outstanding = !expected.is_empty() || next < messages;
            let err = match self.read_reply()? {
                ServerMessage::Decision(d) if want == 1 => {
                    responses.push(d);
                    continue;
                }
                ServerMessage::Batch(b) if b.len() == want => {
                    responses.extend(b);
                    continue;
                }
                ServerMessage::Batch(b) => {
                    protocol_error(format!("expected {want} responses, got {}", b.len()))
                }
                ServerMessage::Overloaded => overloaded_error(),
                ServerMessage::Error(e) => protocol_error(e),
                other => protocol_error(format!("unexpected reply: {other:?}")),
            };
            if outstanding {
                self.broken = true;
            }
            return Err(err);
        }
        Ok(responses)
    }

    /// Fetch service statistics.
    pub fn stats(&mut self) -> std::io::Result<StatsReport> {
        self.ensure_usable()?;
        wire::write_stats_request(&mut self.wbuf);
        self.wbuf.push(b'\n');
        self.send()?;
        match self.read_reply()? {
            ServerMessage::Stats(s) => Ok(s),
            other => Err(protocol_error(format!("unexpected reply: {other:?}"))),
        }
    }

    /// Fetch service health (state, generation, restart counters).
    pub fn health(&mut self) -> std::io::Result<HealthReport> {
        self.ensure_usable()?;
        wire::write_health_request(&mut self.wbuf);
        self.wbuf.push(b'\n');
        self.send()?;
        match self.read_reply()? {
            ServerMessage::Health(h) => Ok(h),
            other => Err(protocol_error(format!("unexpected reply: {other:?}"))),
        }
    }

    /// Replace the server's filter lists with a new engine generation.
    /// A rejected reload (the server keeps its old engine) surfaces as
    /// an `InvalidData` error carrying the server's bounded report.
    pub fn reload(&mut self, lists: &[ReloadList]) -> std::io::Result<ReloadReport> {
        self.ensure_usable()?;
        wire::write_reload(lists, &mut self.wbuf);
        self.wbuf.push(b'\n');
        self.send()?;
        match self.read_reply()? {
            ServerMessage::Reloaded(r) => Ok(r),
            ServerMessage::Error(e) => Err(protocol_error(e)),
            other => Err(protocol_error(format!("unexpected reply: {other:?}"))),
        }
    }

    /// Ship list deltas instead of full bodies. `BaseMismatch` is a
    /// *negotiation* outcome, not an error: the server's serving body
    /// differs from the delta's base, so the caller should follow up
    /// with a full [`Client::reload`]. Malformed deltas surface as
    /// `InvalidData` errors like any other rejected reload.
    pub fn reload_delta(
        &mut self,
        deltas: &[ReloadDeltaList],
    ) -> std::io::Result<ReloadDeltaOutcome> {
        self.ensure_usable()?;
        wire::write_reload_delta(deltas, &mut self.wbuf);
        self.wbuf.push(b'\n');
        self.send()?;
        match self.read_reply()? {
            ServerMessage::Reloaded(r) => Ok(ReloadDeltaOutcome::Applied(r)),
            ServerMessage::ReloadBaseMismatch(m) => Ok(ReloadDeltaOutcome::BaseMismatch(m)),
            ServerMessage::Error(e) => Err(protocol_error(e)),
            other => Err(protocol_error(format!("unexpected reply: {other:?}"))),
        }
    }

    /// Send one pre-encoded request line (without its newline) as-is.
    /// Exists for proxies that forward lines verbatim instead of
    /// re-encoding; pair each call with [`Client::read_reply_raw`].
    pub fn send_raw(&mut self, line_body: &[u8]) -> std::io::Result<()> {
        self.ensure_usable()?;
        self.wbuf.extend_from_slice(line_body);
        self.wbuf.push(b'\n');
        self.send()
    }

    /// Read one raw reply line (without its newline). The bytes stay
    /// valid until the next read on this client. Truncated (EOF
    /// mid-line) and oversized replies are reported as protocol errors
    /// carrying the offending byte count; a read that outlives the
    /// reply timeout comes back as [`std::io::ErrorKind::TimedOut`].
    /// All of these mark the connection broken.
    pub fn read_reply_raw(&mut self) -> std::io::Result<&[u8]> {
        let read = wire::read_line_limited(&mut self.reader, &mut self.line, self.max_reply_bytes)
            .map_err(|e| {
                self.broken = true;
                // Unix reports a passed SO_RCVTIMEO as WouldBlock;
                // surface one typed kind either way.
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) {
                    std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "timed out waiting for a reply",
                    )
                } else {
                    e
                }
            })?;
        match read {
            LineRead::Line => Ok(&self.line),
            LineRead::Eof => {
                self.broken = true;
                Err(protocol_error("server closed the connection"))
            }
            LineRead::EofMidLine => {
                self.broken = true;
                Err(protocol_error(format!(
                    "truncated reply: connection closed after {} bytes of an unterminated line",
                    self.line.len()
                )))
            }
            LineRead::TooLong(n) => {
                self.broken = true;
                Err(protocol_error(format!(
                    "oversized reply: {n} byte line exceeds the {} byte limit",
                    self.max_reply_bytes
                )))
            }
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> std::io::Result<()> {
        self.ensure_usable()?;
        wire::write_ping(&mut self.wbuf);
        self.wbuf.push(b'\n');
        self.send()?;
        match self.read_reply()? {
            ServerMessage::Pong => Ok(()),
            other => Err(protocol_error(format!("unexpected reply: {other:?}"))),
        }
    }

    /// Ask the server to drain and stop. The connection is closed by
    /// the server afterwards.
    pub fn shutdown_server(&mut self) -> std::io::Result<()> {
        self.ensure_usable()?;
        wire::write_shutdown(&mut self.wbuf);
        self.wbuf.push(b'\n');
        self.send()?;
        match self.read_reply()? {
            ServerMessage::ShuttingDown => Ok(()),
            other => Err(protocol_error(format!("unexpected reply: {other:?}"))),
        }
    }
}

/// Retry behavior for [`RetryClient`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Attempts per chunk (first try included) before an `Overloaded`
    /// or `Error` answer sticks, and consecutive transport failures
    /// tolerated before giving up.
    pub max_attempts: u32,
    /// First backoff; doubles per consecutive failure.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed for deterministic backoff jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(500),
            seed: 0x5eed,
        }
    }
}

/// Counters kept by [`RetryClient`]; read them after a run to see how
/// rough the ride was.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Retry passes forced by transport failures (timeouts, torn
    /// replies, disconnects).
    pub transport_retries: u64,
    /// Reconnects after the first successful connection.
    pub reconnects: u64,
    /// `Overloaded` replies received (each chunk may count several).
    pub overloaded_replies: u64,
    /// `Error` replies received.
    pub error_replies: u64,
    /// Reply timeouts hit.
    pub timeouts: u64,
}

/// The final word on one request driven through
/// [`RetryClient::decide_batch_pipelined`].
#[derive(Debug, Clone)]
pub enum ItemAnswer {
    /// The server evaluated it.
    Decision(DecisionResponse),
    /// The server answered the item's chunk with a typed `Error` on
    /// every attempt; this is the last message.
    Rejected(String),
    /// The server shed the item's chunk with `Overloaded` on every
    /// attempt.
    Shed,
}

/// What a chunk's retries concluded (shared by all its items).
enum ChunkAnswer {
    Decisions(Vec<DecisionResponse>),
    Rejected(String),
    Shed,
}

/// A self-healing pipelined client: wraps [`Client`] with reply
/// timeouts, transparent reconnects, resends of unanswered chunks, and
/// exponential backoff with deterministic jitter. Safe because
/// decisions are pure — resending an unanswered chunk cannot change
/// any outcome.
pub struct RetryClient {
    addr: String,
    policy: RetryPolicy,
    reply_timeout: Option<Duration>,
    client: Option<Client>,
    connected_once: bool,
    rng: u64,
    stats: RetryStats,
}

impl RetryClient {
    /// Build a retrying client for `addr` (connects lazily).
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> RetryClient {
        let rng = splitmix64(policy.seed ^ 0x9e37_79b9);
        RetryClient {
            addr: addr.into(),
            policy,
            reply_timeout: Some(DEFAULT_REPLY_TIMEOUT),
            client: None,
            connected_once: false,
            rng,
            stats: RetryStats::default(),
        }
    }

    /// How long each reply may take before the attempt is abandoned
    /// and the chunk resent over a fresh connection.
    pub fn reply_timeout(&mut self, timeout: Option<Duration>) -> &mut Self {
        self.reply_timeout = timeout;
        self
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// Sleep a uniform `[0, backoff]` where backoff doubles with
    /// `consecutive` (capped) — *full* jitter, not `backoff/2 +
    /// jitter/2`: when a shard dies under N pipelined load threads,
    /// every thread hits the same failure in the same instant, and
    /// half-jitter still concentrates their reconnects in the back
    /// half of the window. Spreading over the whole window keeps the
    /// respawned shard from eating a synchronized reconnect storm.
    fn sleep_backoff(&mut self, consecutive: u32) {
        let exp = consecutive.min(10);
        let backoff = self
            .policy
            .base_backoff
            .saturating_mul(2u32.saturating_pow(exp))
            .min(self.policy.max_backoff);
        self.rng = splitmix64(self.rng);
        let span = backoff.as_micros() as u64;
        let jitter = if span == 0 { 0 } else { self.rng % (span + 1) };
        std::thread::sleep(Duration::from_micros(jitter));
    }

    /// A usable connection, reconnecting (with backoff) if the current
    /// one is missing or broken.
    fn connection(&mut self) -> std::io::Result<&mut Client> {
        if self.client.as_ref().is_none_or(Client::is_broken) {
            self.client = None;
            let mut last_err = None;
            for attempt in 0..self.policy.max_attempts.max(1) {
                if attempt > 0 {
                    self.sleep_backoff(attempt - 1);
                }
                match Client::connect(&*self.addr) {
                    Ok(mut c) => {
                        c.reply_timeout(self.reply_timeout)?;
                        if self.connected_once {
                            self.stats.reconnects += 1;
                        }
                        self.connected_once = true;
                        self.client = Some(c);
                        last_err = None;
                        break;
                    }
                    Err(e) => last_err = Some(e),
                }
            }
            if let Some(e) = last_err {
                return Err(e);
            }
        }
        Ok(self.client.as_mut().expect("connection established"))
    }

    /// Evaluate one request, retrying through overload and transport
    /// failures.
    pub fn decide(&mut self, req: &DecisionRequest) -> std::io::Result<DecisionResponse> {
        let answers = self.decide_batch_pipelined(std::slice::from_ref(req), 1, 1)?;
        match answers.into_iter().next().expect("one answer per request") {
            ItemAnswer::Decision(d) => Ok(d),
            ItemAnswer::Rejected(e) => Err(protocol_error(e)),
            ItemAnswer::Shed => Err(overloaded_error()),
        }
    }

    /// Drive `reqs` through the server in `DecideBatch` chunks of
    /// `batch`, `depth` chunks in flight, retrying as needed. Returns
    /// one [`ItemAnswer`] per request, in request order; the call
    /// itself only fails when the server stays unreachable (or keeps
    /// tearing connections) past the policy's patience.
    pub fn decide_batch_pipelined(
        &mut self,
        reqs: &[DecisionRequest],
        batch: usize,
        depth: usize,
    ) -> std::io::Result<Vec<ItemAnswer>> {
        let batch = batch.max(1);
        let depth = depth.max(1);
        let chunks: Vec<&[DecisionRequest]> = reqs.chunks(batch).collect();
        let mut answers: Vec<Option<ChunkAnswer>> = Vec::new();
        answers.resize_with(chunks.len(), || None);
        let mut attempts: Vec<u32> = vec![0; chunks.len()];
        let mut consecutive_failures = 0u32;

        loop {
            let pending: Vec<usize> = (0..chunks.len())
                .filter(|&i| answers[i].is_none())
                .collect();
            if pending.is_empty() {
                break;
            }
            let max_attempts = self.policy.max_attempts.max(1);
            self.connection()?;
            // Re-borrow just the field so `self.stats` stays usable.
            let client = self.client.as_mut().expect("connection established");

            // One pipelined pass over the still-unanswered chunks.
            let mut inflight: VecDeque<usize> = VecDeque::with_capacity(depth);
            let mut cursor = 0usize;
            let mut transport_err: Option<std::io::Error> = None;
            let mut progressed = false;
            while cursor < pending.len() || !inflight.is_empty() {
                while cursor < pending.len() && inflight.len() < depth {
                    let ci = pending[cursor];
                    wire::write_decide_batch(chunks[ci], &mut client.wbuf);
                    client.wbuf.push(b'\n');
                    inflight.push_back(ci);
                    cursor += 1;
                }
                if !client.wbuf.is_empty() {
                    if let Err(e) = client.send() {
                        transport_err = Some(e);
                        break;
                    }
                }
                let ci = *inflight.front().expect("a chunk is in flight");
                match client.read_reply() {
                    Ok(ServerMessage::Batch(b)) if b.len() == chunks[ci].len() => {
                        answers[ci] = Some(ChunkAnswer::Decisions(b));
                        progressed = true;
                    }
                    Ok(ServerMessage::Overloaded) => {
                        self.stats.overloaded_replies += 1;
                        attempts[ci] += 1;
                        if attempts[ci] >= max_attempts {
                            answers[ci] = Some(ChunkAnswer::Shed);
                        }
                    }
                    Ok(ServerMessage::Error(e)) => {
                        self.stats.error_replies += 1;
                        attempts[ci] += 1;
                        if attempts[ci] >= max_attempts {
                            answers[ci] = Some(ChunkAnswer::Rejected(e));
                        }
                    }
                    Ok(ServerMessage::Batch(b)) => {
                        transport_err = Some(protocol_error(format!(
                            "expected {} responses, got {}",
                            chunks[ci].len(),
                            b.len()
                        )));
                        break;
                    }
                    Ok(other) => {
                        transport_err =
                            Some(protocol_error(format!("unexpected reply: {other:?}")));
                        break;
                    }
                    Err(e) => {
                        if e.kind() == std::io::ErrorKind::TimedOut {
                            self.stats.timeouts += 1;
                        }
                        transport_err = Some(e);
                        break;
                    }
                }
                inflight.pop_front();
            }

            if progressed {
                consecutive_failures = 0;
            }
            if let Some(e) = transport_err {
                // The connection is out of sync or gone; everything
                // still pending is resent over a fresh one. Decisions
                // are pure, so a reply the server computed but we never
                // read costs nothing to recompute.
                self.stats.transport_retries += 1;
                self.client = None;
                consecutive_failures += 1;
                if consecutive_failures >= self.policy.max_attempts.max(1) {
                    return Err(e);
                }
                self.sleep_backoff(consecutive_failures - 1);
            } else if answers.iter().any(Option::is_none) {
                // Only Overloaded/Error chunks remain: back off before
                // hammering an overloaded server again.
                self.sleep_backoff(0);
            }
        }

        let mut out = Vec::with_capacity(reqs.len());
        for (ci, chunk) in chunks.iter().enumerate() {
            match answers[ci].take().expect("every chunk answered") {
                ChunkAnswer::Decisions(ds) => out.extend(ds.into_iter().map(ItemAnswer::Decision)),
                ChunkAnswer::Rejected(e) => {
                    out.extend((0..chunk.len()).map(|_| ItemAnswer::Rejected(e.clone())))
                }
                ChunkAnswer::Shed => out.extend((0..chunk.len()).map(|_| ItemAnswer::Shed)),
            }
        }
        Ok(out)
    }

    /// Health probe over the managed connection.
    pub fn health(&mut self) -> std::io::Result<HealthReport> {
        self.connection()?.health()
    }

    /// Liveness probe over the managed connection.
    pub fn ping(&mut self) -> std::io::Result<()> {
        self.connection()?.ping()
    }
}
