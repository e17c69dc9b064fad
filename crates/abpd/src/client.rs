//! Blocking client for the abpd wire protocol.
//!
//! [`Client`] keeps a reusable write buffer and a reusable reply-line
//! buffer, encodes requests with the zero-copy [`wire`](crate::wire)
//! codec, and bounds how large a reply line it will buffer
//! ([`Client::max_reply_bytes`]). Each typed call (`decide`,
//! `decide_batch`, `stats`, `reload`, ...) writes one line and reads
//! its reply. A caller that keeps several lines in flight writes them
//! with [`Client::send_raw`] and reads one reply per line with
//! [`Client::read_reply_raw`]: the server answers every line in order,
//! so replies match their lines by position.
//!
//! # Failure handling
//!
//! Every read and every write carries a timeout (default 30 s) so a
//! dead or stalled server surfaces as an error instead of a
//! forever-block. Once any transport operation fails — timeout,
//! truncated reply, EOF — the connection is marked *broken*: replies
//! may still be in flight for requests this client will never read, so
//! every later call fails fast instead of desynchronizing. Reconnect
//! by building a new `Client`; decisions are pure, so resending an
//! unanswered request over it cannot change an answer.

use crate::protocol::{
    DecisionRequest, DecisionResponse, HealthReport, ReloadDeltaList, ReloadList, ReloadMismatch,
    ReloadReport, ServerMessage, StatsReport,
};
use crate::wire::{self, LineRead};
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

    /// Send pre-encoded request lines (without the last newline) as-is,
    /// in one write. Proxies forward lines verbatim with it, and
    /// pipelining callers keep lines in flight: a body of several
    /// `\n`-joined lines goes out as one burst. Read one
    /// [`Client::read_reply_raw`] per line sent.
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
