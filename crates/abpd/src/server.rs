//! The TCP fronts of the decision service, and the one verb dispatch
//! they share.
//!
//! A [`Server`] runs one of two socket fronts ([`ServerMode`]): the
//! event-driven reactors of the `reactor` module, or — here, and the
//! fallback wherever `SO_REUSEPORT` listeners or epoll cannot be had —
//! one OS thread per connection reading newline-delimited
//! [`ClientMessage`](crate::protocol::ClientMessage) lines and writing
//! one [`ServerMessage`](crate::protocol::ServerMessage) line per
//! request, in order. Both fronts hand every complete line to
//! [`answer_line`], so a verb behaves the same behind either; they
//! differ only in how bytes reach it and who holds the evaluation
//! shard: a reactor owns its [`LocalEval`], this front keeps one per
//! shard behind a mutex, picks by connection id, and locks it for the
//! evaluation only. `Shutdown` stops the acceptor and waits for open
//! connections to finish.
//!
//! The connection loop is built for pipelined clients: requests are
//! parsed with the zero-copy [`wire`](crate::wire) codec straight out
//! of a reusable line buffer, replies accumulate in a reusable write
//! buffer, and the socket is only written once per *drained burst* —
//! replies stay corked for as long as the kernel already holds more
//! request bytes, and are flushed the instant a read would block (see
//! [`flush_if_read_would_block`]), so a depth-N pipeline costs O(1)
//! write syscalls per burst instead of one per reply while a client
//! that pauses mid-line still gets its pending replies immediately.
//! Line length is bounded
//! ([`ServerConfig::max_line_bytes`]) so a malformed client cannot
//! balloon server memory; an oversized line is discarded, answered
//! with an `Error` naming its byte count, and the stream stays in sync.

use crate::faults::{FaultPlan, WriteFault};
use crate::protocol::{ReloadList, ReloadMismatch};
use crate::reactor::{self, EventServer};
use crate::service::{BatchScratch, LocalEval, ReloadDeltaError, Service, ServiceConfig};
use crate::wire::{self, ClientMessageRef, LineRead};
use abp::Engine;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::DerefMut;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Flush the write buffer once it holds this many bytes even if more
/// input is pending, so huge batch bursts don't buffer unboundedly.
pub(crate) const CORK_FLUSH_BYTES: usize = 64 * 1024;

/// Which socket front serves connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServerMode {
    /// One OS thread per connection, blocking reads (the portable
    /// front, and the only one off Linux).
    Blocking,
    /// One epoll reactor thread per shard, each with its own
    /// `SO_REUSEPORT` listener and its own evaluation state (the
    /// `reactor` module). Falls back to [`ServerMode::Blocking`] where
    /// such listeners cannot be had.
    #[default]
    Event,
}

impl std::str::FromStr for ServerMode {
    type Err = String;
    fn from_str(s: &str) -> Result<ServerMode, String> {
        match s {
            "blocking" => Ok(ServerMode::Blocking),
            "event" => Ok(ServerMode::Event),
            other => Err(format!(
                "unknown server mode {other:?} (expected \"blocking\" or \"event\")"
            )),
        }
    }
}

/// Server configuration: bind address plus service tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind; port 0 picks a free port.
    pub addr: String,
    /// Longest accepted request line in bytes; longer lines are
    /// discarded and answered with an `Error`. Default 1 MiB.
    pub max_line_bytes: usize,
    /// Socket front: event-driven reactors or blocking
    /// thread-per-connection.
    pub mode: ServerMode,
    /// Shard count, cache and deadline configuration.
    pub service: ServiceConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_line_bytes: 1024 * 1024,
            mode: ServerMode::default(),
            service: ServiceConfig::default(),
        }
    }
}

/// The reply-path fault plan a front arms (torn writes / disconnects);
/// `None` in production. Evaluation faults live inside the service.
pub(crate) fn write_fault_plan(config: &ServerConfig) -> Option<FaultPlan> {
    config
        .service
        .faults
        .as_ref()
        .filter(|c| c.torn_write_per_million > 0 || c.disconnect_per_million > 0)
        .cloned()
        .map(FaultPlan::new)
}

struct Shared {
    service: Service,
    /// The service's evaluation shards; connection `id` decides on
    /// `evals[id % len]`, locked per decision line.
    evals: Vec<parking_lot::Mutex<LocalEval>>,
    running: AtomicBool,
    /// Open-connection count plus the condvar the drain loop parks on;
    /// the last [`ConnGuard`] drop signals it. Event-driven shutdown:
    /// nobody polls a counter on a sleep loop.
    open_connections: Mutex<usize>,
    drained: Condvar,
    /// Monotonic connection ids for the socket registry below (also
    /// each connection's shard pick and write-fault slot).
    conn_seq: AtomicU64,
    /// Duplicate handles for every open connection socket, so
    /// [`Server::kill`] can slam them shut without waiting for the
    /// graceful drain. Touched once per connection, never per request.
    conns: Mutex<Vec<(u64, TcpStream)>>,
    max_line_bytes: usize,
    write_faults: Option<FaultPlan>,
}

impl Shared {
    /// Park until every open connection has closed.
    fn wait_drained(&self) {
        let mut open = self.open_connections.lock().unwrap();
        while *open > 0 {
            open = self.drained.wait(open).unwrap();
        }
    }
}

enum Inner {
    Blocking {
        shared: Arc<Shared>,
        acceptor: Option<JoinHandle<()>>,
    },
    Event(EventServer),
}

/// A running server; dropping the handle does **not** stop it — call
/// [`Server::shutdown`] or send the `Shutdown` verb.
pub struct Server {
    local_addr: SocketAddr,
    inner: Inner,
}

impl Server {
    /// Bind and start serving `engine` decisions.
    pub fn start(engine: Engine, config: &ServerConfig) -> std::io::Result<Server> {
        let service = Service::start(engine, &config.service);
        Server::start_with_service(service, config)
    }

    /// Bind and start serving decisions compiled from `lists`, keeping
    /// the list bodies around so `ReloadDelta` has a base to patch and
    /// `Health` can report the serving checksum. Compilation failures
    /// surface as `io::Error` so callers have one error path.
    pub fn start_with_lists(
        lists: Vec<ReloadList>,
        config: &ServerConfig,
    ) -> std::io::Result<Server> {
        let service =
            Service::start_with_lists(lists, &config.service).map_err(std::io::Error::other)?;
        Server::start_with_service(service, config)
    }

    fn start_with_service(service: Service, config: &ServerConfig) -> std::io::Result<Server> {
        if config.mode == ServerMode::Event {
            // No epoll or no `SO_REUSEPORT`: the thread-per-connection
            // front below is the one fallback, and it reports a bind
            // failure that has any other cause.
            if let Ok(listeners) = reactor::bind_listeners(&config.addr, service.shard_count()) {
                let server = EventServer::start(service, listeners, config)?;
                return Ok(Server {
                    local_addr: server.local_addr,
                    inner: Inner::Event(server),
                });
            }
        }
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let evals = service
            .shard_evals()
            .into_iter()
            .map(parking_lot::Mutex::new)
            .collect();
        let shared = Arc::new(Shared {
            service,
            evals,
            running: AtomicBool::new(true),
            open_connections: Mutex::new(0),
            drained: Condvar::new(),
            conn_seq: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
            max_line_bytes: config.max_line_bytes.max(64),
            write_faults: write_fault_plan(config),
        });

        let acceptor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("abpd-accept".to_string())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if !shared.running.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = conn else { continue };
                        // Replies are one short line each; never let
                        // Nagle hold them back.
                        let _ = stream.set_nodelay(true);
                        let shared = shared.clone();
                        *shared.open_connections.lock().unwrap() += 1;
                        let conn_id = shared.conn_seq.fetch_add(1, Ordering::SeqCst);
                        if let Ok(dup) = stream.try_clone() {
                            shared.conns.lock().unwrap().push((conn_id, dup));
                        }
                        let _ = std::thread::Builder::new()
                            .name("abpd-conn".to_string())
                            .spawn(move || {
                                // Decrement via a guard so a panic in the
                                // handler can't leak the counter and wedge
                                // the shutdown drain.
                                let _open = ConnGuard(&shared, conn_id);
                                let addr = local_addr;
                                handle_connection(stream, &shared, addr, conn_id);
                            });
                    }
                    // Stopped accepting; park until in-flight
                    // connections have signaled their exits.
                    shared.wait_drained();
                })?
        };

        Ok(Server {
            local_addr,
            inner: Inner::Blocking {
                shared,
                acceptor: Some(acceptor),
            },
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Request filters loaded in the engine.
    pub fn filter_count(&self) -> usize {
        self.service().filter_count()
    }

    /// Evaluation shard count.
    pub fn shard_count(&self) -> usize {
        self.service().shard_count()
    }

    /// The underlying decision service — lets an in-process supervisor
    /// (e.g. the `--watch` reload thread) call
    /// [`Service::reload`]/[`Service::health`] without a loopback
    /// connection.
    pub fn service(&self) -> &Service {
        match &self.inner {
            Inner::Blocking { shared, .. } => &shared.service,
            Inner::Event(server) => &server.shared.service,
        }
    }

    /// Stop accepting, then wait for open connections to finish.
    pub fn shutdown(self) {
        match self.inner {
            Inner::Blocking {
                shared,
                mut acceptor,
            } => {
                trigger_stop(&shared, self.local_addr);
                if let Some(a) = acceptor.take() {
                    let _ = a.join();
                }
            }
            Inner::Event(server) => server.shutdown(),
        }
    }

    /// Abrupt stop for chaos drills: stop accepting, then slam every
    /// open connection socket shut instead of draining. In-flight
    /// requests die mid-line — from a peer's point of view this is the
    /// process being killed, which is exactly what fleet failover
    /// exercises need from an in-process shard.
    pub fn kill(self) {
        match self.inner {
            Inner::Blocking {
                shared,
                mut acceptor,
            } => {
                trigger_stop(&shared, self.local_addr);
                for (_, conn) in shared.conns.lock().unwrap().iter() {
                    let _ = conn.shutdown(std::net::Shutdown::Both);
                }
                // Connection threads exit on their next (failing) read,
                // signaling the acceptor's drain condvar down to zero.
                if let Some(a) = acceptor.take() {
                    let _ = a.join();
                }
            }
            Inner::Event(server) => server.kill(),
        }
    }

    /// Block until the server stops (via the `Shutdown` verb).
    pub fn join(self) {
        match self.inner {
            Inner::Blocking { mut acceptor, .. } => {
                if let Some(a) = acceptor.take() {
                    let _ = a.join();
                }
            }
            Inner::Event(server) => server.join(),
        }
    }
}

/// Write one corked reply burst, consulting the fault plan first: a
/// `Torn` draw writes half the burst then fails (the connection dies
/// mid-line from the client's perspective); a `Disconnect` draw fails
/// without writing. Either way the buffer is consumed — the connection
/// is about to close, so the bytes have nowhere else to go.
fn flush_burst(
    sock: &mut TcpStream,
    out: &mut Vec<u8>,
    faults: Option<&FaultPlan>,
    slot: usize,
) -> std::io::Result<()> {
    if out.is_empty() {
        return Ok(());
    }
    if let Some(plan) = faults {
        match plan.write_fault(slot) {
            WriteFault::Torn => {
                let _ = sock.write_all(&out[..out.len() / 2]);
                out.clear();
                return Err(std::io::Error::other("injected torn write"));
            }
            WriteFault::Disconnect => {
                out.clear();
                return Err(std::io::Error::other("injected disconnect"));
            }
            WriteFault::None => {}
        }
    }
    sock.write_all(out)?;
    out.clear();
    Ok(())
}

/// Flush corked replies iff the next socket read would block.
///
/// Called by the line reader right before a `fill_buf` whose buffer is
/// empty. A 1-byte non-blocking `peek` distinguishes "more requests
/// already in the kernel buffer" (keep corking — this is the hot
/// pipelined path) from "the client has gone quiet" (it may be waiting
/// for these replies before sending more — possibly mid-line — so
/// withholding them would deadlock both sides). `Ok(0)` from the peek
/// means EOF: the read won't block, and the loop's exit path flushes.
fn flush_if_read_would_block(
    sock: &mut TcpStream,
    out: &mut Vec<u8>,
    faults: Option<&FaultPlan>,
    slot: usize,
) -> std::io::Result<()> {
    if out.is_empty() {
        return Ok(());
    }
    sock.set_nonblocking(true)?;
    let probe = sock.peek(&mut [0u8]);
    sock.set_nonblocking(false)?;
    match probe {
        Ok(_) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
            flush_burst(sock, out, faults, slot)
        }
        Err(e) => Err(e),
    }
}

/// Deregisters the socket and drops `open_connections` by one when the
/// connection thread exits, however it exits; the last one out signals
/// the drain condvar.
struct ConnGuard<'a>(&'a Shared, u64);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.conns.lock().unwrap().retain(|(id, _)| *id != self.1);
        let mut open = self.0.open_connections.lock().unwrap();
        *open -= 1;
        if *open == 0 {
            self.0.drained.notify_all();
        }
    }
}

/// Flip `running` and poke the listener so `accept` wakes up.
fn trigger_stop(shared: &Shared, addr: SocketAddr) {
    if shared.running.swap(false, Ordering::SeqCst) {
        let _ = TcpStream::connect(addr);
    }
}

/// Append the `Error` reply (newline included) owed for a discarded
/// request line of `bytes` bytes.
pub(crate) fn write_line_too_long(bytes: usize, limit: usize, out: &mut Vec<u8>) {
    wire::write_error(
        &format!("request line too long: {bytes} bytes exceeds the {limit} byte limit"),
        out,
    );
    out.push(b'\n');
}

/// Answer one request line into `out`, newline included — the one verb
/// dispatch, called by both socket fronts for every complete line
/// within the length limit (trailing `\r` already stripped). A blank
/// line gets no reply. `eval` yields the connection's evaluation shard
/// and is called only for `Decide`/`DecideBatch`, so a front that has
/// to lock its shard holds the lock for the evaluation alone. Returns
/// `true` once `Shutdown` has been acknowledged: the caller stops its
/// front and answers nothing further on this connection.
pub(crate) fn answer_line<G: DerefMut<Target = LocalEval>>(
    service: &Service,
    raw: &[u8],
    scratch: &mut BatchScratch,
    eval: impl FnOnce() -> G,
    out: &mut Vec<u8>,
) -> bool {
    let Ok(text) = std::str::from_utf8(raw) else {
        wire::write_error("unparseable message: request line is not UTF-8", out);
        out.push(b'\n');
        return false;
    };
    if text.trim().is_empty() {
        return false;
    }
    let mut shutdown = false;
    match wire::parse_client_message(text) {
        Err(e) => wire::write_error(&format!("unparseable message: {e}"), out),
        Ok(ClientMessageRef::Ping) => wire::write_pong(out),
        Ok(ClientMessageRef::Stats) => wire::write_stats_reply(&service.stats(), out),
        Ok(ClientMessageRef::Decide(req)) => {
            // Bound by `let`, not matched on directly: the shard — a
            // lock guard behind the blocking front — is released before
            // the reply is encoded.
            let decided =
                service.decide_batch_local(std::slice::from_ref(&req), scratch, &mut eval());
            match decided {
                Ok(()) => wire::write_decision_reply(&scratch.responses()[0], out),
                Err(e) => wire::write_error(&e.to_string(), out),
            }
        }
        Ok(ClientMessageRef::DecideBatch(reqs)) => {
            let decided = service.decide_batch_local(&reqs, scratch, &mut eval());
            match decided {
                Ok(()) => wire::write_batch_reply(scratch.responses(), out),
                Err(e) => wire::write_error(&e.to_string(), out),
            }
        }
        Ok(ClientMessageRef::Reload(lists)) => match service.reload(&lists) {
            Ok(report) => wire::write_reloaded(&report, out),
            Err(e) => wire::write_error(&e, out),
        },
        Ok(ClientMessageRef::ReloadDelta(deltas)) => match service.reload_delta(&deltas) {
            Ok(report) => wire::write_reloaded(&report, out),
            Err(ReloadDeltaError::BaseMismatch {
                source,
                serving_check,
                generation,
            }) => wire::write_reload_base_mismatch(
                &ReloadMismatch {
                    source,
                    serving_check,
                    generation,
                },
                out,
            ),
            Err(ReloadDeltaError::Rejected(e)) => wire::write_error(&e, out),
        },
        Ok(ClientMessageRef::Health) => wire::write_health_reply(&service.health(), out),
        Ok(ClientMessageRef::Shutdown) => {
            service.begin_drain();
            wire::write_shutting_down(out);
            shutdown = true;
        }
    }
    out.push(b'\n');
    shutdown
}

fn handle_connection(stream: TcpStream, shared: &Shared, addr: SocketAddr, conn_id: u64) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    let faults = shared.write_faults.as_ref();
    // Each connection draws write faults from its own plan slot.
    let slot = conn_id as usize;
    let eval = &shared.evals[slot % shared.evals.len()];
    // Per-connection reusable state: the line buffer, the corked write
    // buffer, and the batch scratch. Nothing here is reallocated per
    // request once warmed up.
    let mut line = Vec::new();
    let mut out: Vec<u8> = Vec::with_capacity(4096);
    let mut scratch = shared.service.scratch();

    loop {
        let read =
            wire::read_line_limited_flushing(&mut reader, &mut line, shared.max_line_bytes, || {
                flush_if_read_would_block(&mut writer, &mut out, faults, slot)
            });
        match read {
            Err(_) | Ok(LineRead::Eof) | Ok(LineRead::EofMidLine) => break,
            Ok(LineRead::TooLong(n)) => write_line_too_long(n, shared.max_line_bytes, &mut out),
            Ok(LineRead::Line) => {
                let service = &shared.service;
                if answer_line(service, &line, &mut scratch, || eval.lock(), &mut out) {
                    // Every earlier request on this connection is
                    // already answered (the loop is synchronous), so
                    // flushing the corked burst with the ack drains the
                    // pipeline before the socket closes.
                    let _ = writer.write_all(&out);
                    trigger_stop(shared, addr);
                    return;
                }
            }
        }
        // Cork: replies are flushed by the would-block hook above the
        // moment the reader would sleep on the socket, so here only the
        // size cap matters — don't let a huge burst buffer unboundedly.
        if out.len() >= CORK_FLUSH_BYTES
            && flush_burst(&mut writer, &mut out, faults, slot).is_err()
        {
            return;
        }
    }
    let _ = flush_burst(&mut writer, &mut out, faults, slot);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::time::Duration;

    fn tiny_engine() -> Engine {
        let list = abp::FilterList::parse(abp::ListSource::EasyList, "||ads.example^\n");
        Engine::from_lists([&list])
    }

    /// These tests are about this file's front, whatever the default.
    fn blocking() -> ServerConfig {
        ServerConfig {
            mode: ServerMode::Blocking,
            ..ServerConfig::default()
        }
    }

    fn connect(server: &Server) -> (TcpStream, BufReader<TcpStream>) {
        let sock = TcpStream::connect(server.local_addr()).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let reader = BufReader::new(sock.try_clone().unwrap());
        (sock, reader)
    }

    /// A client may wait for reply N before sending the rest of line
    /// N+1; replies must not stay corked behind a buffered *partial*
    /// line or both sides deadlock.
    #[test]
    fn replies_flush_while_a_partial_line_is_buffered() {
        let server = Server::start(tiny_engine(), &blocking()).unwrap();
        let (mut sock, mut reader) = connect(&server);
        // One complete line plus the start of the next, in one write.
        sock.write_all(b"\"Ping\"\n\"Pi").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(reply.trim_end(), "\"Pong\"");
        // Finishing the partial line yields its own reply.
        sock.write_all(b"ng\"\n").unwrap();
        reply.clear();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(reply.trim_end(), "\"Pong\"");
        drop((sock, reader));
        server.shutdown();
    }

    /// A `\u` escape followed by multi-byte UTF-8 once panicked the
    /// connection thread mid-parse: no Error reply, and the leaked
    /// open-connections counter wedged shutdown's drain loop forever.
    /// It must instead answer with an Error, keep the stream in sync,
    /// and leave shutdown able to finish.
    #[test]
    fn malformed_escape_gets_error_reply_and_shutdown_still_drains() {
        let server = Server::start(tiny_engine(), &blocking()).unwrap();
        let (mut sock, mut reader) = connect(&server);
        let line = format!(
            "{{\"Decide\":{{\"url\":\"\\ua\u{e9}\u{91d1}\",\"document\":\"d\",\"resource_type\":\"Other\"}}}}\n"
        );
        sock.write_all(line.as_bytes()).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(
            reply.contains("Error"),
            "expected Error reply, got: {reply}"
        );
        sock.write_all(b"\"Ping\"\n").unwrap();
        reply.clear();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(reply.trim_end(), "\"Pong\"");
        drop((sock, reader));
        server.shutdown();
    }
}
