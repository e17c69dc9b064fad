//! The TCP front of the decision service, and the one verb dispatch it
//! runs.
//!
//! A [`Server`] is a [`Front`] of epoll reactors, one per evaluation
//! shard, each with its own `SO_REUSEPORT` listener and its own
//! [`LocalEval`]. Clients send newline-delimited
//! [`ClientMessage`](crate::protocol::ClientMessage) lines and get one
//! [`ServerMessage`](crate::protocol::ServerMessage) line per request,
//! in order; every complete line goes to [`answer_line`]. Line length
//! is bounded ([`ServerConfig::max_line_bytes`]) so a malformed client
//! cannot balloon server memory; an oversized line is discarded,
//! answered with an `Error` naming its byte count, and the stream stays
//! in sync. `Shutdown` stops the listeners and waits for open
//! connections to finish.
//!
//! The reactors are Linux-only: elsewhere [`Server::start`] fails with
//! `std::io::ErrorKind::Unsupported`.

use crate::faults::FaultPlan;
use crate::protocol::{ReloadList, ReloadMismatch};
use crate::reactor::{Answer, Front};
use crate::service::{BatchScratch, LocalEval, ReloadDeltaError, Service, ServiceConfig};
use crate::wire::{self, ClientMessageRef};
use abp::Engine;
use std::net::SocketAddr;
use std::sync::Arc;

/// Server configuration: bind address plus service tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind; port 0 picks a free port. A fixed port another
    /// socket already listens on fails with `AddrInUse`.
    pub addr: String,
    /// Longest accepted request line in bytes; longer lines are
    /// discarded and answered with an `Error`. Default 1 MiB.
    pub max_line_bytes: usize,
    /// Shard count, cache and deadline configuration.
    pub service: ServiceConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_line_bytes: 1024 * 1024,
            service: ServiceConfig::default(),
        }
    }
}

/// A running server — its reactor threads; dropping the handle does
/// **not** stop it — call [`Server::shutdown`] or send the `Shutdown`
/// verb.
pub struct Server {
    service: Arc<Service>,
    front: Front,
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
        let service = Arc::new(service);
        let deciders = service
            .shard_evals()
            .into_iter()
            .map(|local| Decider {
                service: service.clone(),
                scratch: service.scratch(),
                local,
            })
            .collect();
        let write_faults = config
            .service
            .faults
            .as_ref()
            .filter(|c| c.torn_write_per_million > 0 || c.disconnect_per_million > 0)
            .cloned()
            .map(FaultPlan::new);
        let front = Front::start(&config.addr, deciders, config.max_line_bytes, write_faults)?;
        Ok(Server { service, front })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
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
        &self.service
    }

    /// Stop accepting, serve open connections until their peers close,
    /// then return.
    pub fn shutdown(self) {
        self.front.shutdown();
    }

    /// Abrupt stop for chaos drills: stop accepting, then slam every
    /// open connection socket shut instead of draining. In-flight
    /// requests die mid-line — from a peer's point of view this is the
    /// process being killed, which is exactly what fleet failover
    /// exercises need from an in-process shard.
    pub fn kill(self) {
        self.front.kill();
    }

    /// Block until the server stops (via the `Shutdown` verb).
    pub fn join(self) {
        self.front.join();
    }
}

/// One reactor's answerer: the service and the evaluation shard the
/// reactor owns.
struct Decider {
    service: Arc<Service>,
    scratch: BatchScratch,
    local: LocalEval,
}

impl Answer for Decider {
    fn answer(&mut self, line: &[u8], out: &mut Vec<u8>) -> bool {
        answer_line(&self.service, line, &mut self.scratch, &mut self.local, out)
    }
}

/// Answer one request line into `out`, newline included — the one verb
/// dispatch, called by a reactor for every complete line within the
/// length limit (trailing `\r` already stripped). A blank line gets no
/// reply. `eval` is the reactor's evaluation shard; a `Decide` or
/// `DecideBatch` is answered by framing the decision objects it leaves
/// in `scratch` as they are (a cache hit's were encoded on its miss).
/// Returns `true` once `Shutdown` has been acknowledged: the caller
/// stops the server and answers nothing further on this connection.
pub(crate) fn answer_line(
    service: &Service,
    raw: &[u8],
    scratch: &mut BatchScratch,
    eval: &mut LocalEval,
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
            match service.decide_batch_local(std::slice::from_ref(&req), scratch, eval) {
                Ok(()) => wire::write_decision_reply_raw(scratch.elements(), out),
                Err(e) => wire::write_error(&e.to_string(), out),
            }
        }
        Ok(ClientMessageRef::DecideBatch(reqs)) => {
            match service.decide_batch_local(&reqs, scratch, eval) {
                Ok(()) => wire::splice_batch_reply([scratch.elements()], out),
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

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    fn tiny_engine() -> Engine {
        let list = abp::FilterList::parse(abp::ListSource::EasyList, "||ads.example^\n");
        Engine::from_lists([&list])
    }

    fn connect(server: &Server) -> (TcpStream, BufReader<TcpStream>) {
        let sock = TcpStream::connect(server.local_addr()).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let reader = BufReader::new(sock.try_clone().unwrap());
        (sock, reader)
    }

    fn ping(sock: &mut TcpStream, reader: &mut BufReader<TcpStream>) -> String {
        sock.write_all(b"\"Ping\"\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply
    }

    /// A client may wait for reply N before sending the rest of line
    /// N+1; replies must not stay corked behind a buffered *partial*
    /// line or both sides deadlock.
    #[test]
    fn replies_flush_while_a_partial_line_is_buffered() {
        let server = Server::start(tiny_engine(), &ServerConfig::default()).unwrap();
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
    /// parser mid-line. It must instead answer with an Error, keep the
    /// stream in sync, and leave shutdown able to finish.
    #[test]
    fn malformed_escape_gets_error_reply_and_shutdown_still_drains() {
        let server = Server::start(tiny_engine(), &ServerConfig::default()).unwrap();
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
        assert_eq!(ping(&mut sock, &mut reader).trim_end(), "\"Pong\"");
        drop((sock, reader));
        server.shutdown();
    }

    /// A fixed port another server already listens on is refused, the
    /// way `TcpListener::bind` refuses it, instead of the second server
    /// joining the first one's `SO_REUSEPORT` group and splitting its
    /// connections. The first server keeps answering.
    #[test]
    fn a_busy_fixed_port_fails_with_addr_in_use() {
        let first = Server::start(tiny_engine(), &ServerConfig::default()).unwrap();
        let busy = ServerConfig {
            addr: first.local_addr().to_string(),
            ..ServerConfig::default()
        };
        match Server::start(tiny_engine(), &busy) {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::AddrInUse, "{e}"),
            Ok(second) => {
                second.shutdown();
                panic!("a second server bound {}", busy.addr);
            }
        }
        for _ in 0..8 {
            let (mut sock, mut reader) = connect(&first);
            assert_eq!(ping(&mut sock, &mut reader).trim_end(), "\"Pong\"");
        }
        first.shutdown();
    }
}
