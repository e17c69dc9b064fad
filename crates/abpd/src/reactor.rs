//! The socket front: one reactor thread per shard, each owning an
//! epoll instance, a `SO_REUSEPORT` listener, its nonblocking
//! connections, and all the hot state a decision touches — read/write
//! buffers, [`BatchScratch`], a [`LocalEval`] with its unsynchronized
//! decision cache, and cache-line-padded metrics. A shard *is* a
//! reactor: `--shards N` is N of these threads, and an idle connection
//! costs a [`LineBuf`] and an fd, never a thread.
//!
//! A connection is accepted by exactly one reactor and never migrates:
//! parse → evaluate → corked reply all run on that core, so the steady
//! state shares no cache line between cores. Every complete line goes
//! to [`answer_line`], the verb dispatch, which evaluates batches of
//! any size on this thread through [`Service::decide_batch_local`].
//!
//! Replies stay corked per readiness burst: every line parsed from one
//! drained read burst appends to the connection's write buffer, which
//! is flushed once at burst end (and incrementally past 64 KiB). When
//! the peer stops draining, the buffer caps at
//! [`WRITE_BACKPRESSURE_BYTES`]: the reactor stops reading and parsing
//! for that connection, arms `EPOLLOUT`, and resumes where it left off
//! once the kernel accepts the backlog — one slow reader never holds
//! buffers or the reactor hostage.

use crate::faults::{FaultPlan, WriteFault};
use crate::poll::{self, Poller, WakeFd};
use crate::server::{answer_line, ServerConfig};
use crate::service::{BatchScratch, LocalEval, Service};
use crate::wire;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Flush the write buffer once it holds this many bytes even if more
/// input is pending, so huge batch bursts don't buffer unboundedly.
const CORK_FLUSH_BYTES: usize = 64 * 1024;

/// Stop reading and parsing a connection whose corked replies the peer
/// is not draining once this many bytes are pending; resume when the
/// kernel accepts the backlog.
pub(crate) const WRITE_BACKPRESSURE_BYTES: usize = 256 * 1024;

const TOKEN_WAKE: u64 = 0;
const TOKEN_LISTEN: u64 = 1;
const TOKEN_CONN_BASE: u64 = 2;

/// State shared by the reactors and the [`Server`](crate::Server)
/// handle.
pub(crate) struct Shared {
    pub(crate) service: Service,
    running: AtomicBool,
    kill: AtomicBool,
    max_line_bytes: usize,
    /// The reply-path fault plan (torn writes / disconnects); `None` in
    /// production. Evaluation faults live inside the service.
    write_faults: Option<FaultPlan>,
    /// Each reactor's eventfd, for waking it out of `epoll_wait`.
    wakers: Vec<Arc<WakeFd>>,
}

impl Shared {
    /// Flip `running` and wake every reactor out of `epoll_wait` — also
    /// when already stopping (the `Shutdown` verb got there first), so
    /// a joiner can't race a missed edge.
    pub(crate) fn stop(&self) {
        self.running.store(false, Ordering::SeqCst);
        for w in &self.wakers {
            w.wake();
        }
    }

    /// Stop, and have every reactor slam its connections shut instead
    /// of draining them.
    pub(crate) fn kill(&self) {
        self.kill.store(true, Ordering::SeqCst);
        self.stop();
    }
}

/// One `SO_REUSEPORT` listener per reactor, all on the address the
/// first one resolved (so port 0 picks one port for all): the kernel
/// hashes incoming connections across the accept queues and no thread
/// ever touches another's connections. Fails with `Unsupported` off
/// Linux.
///
/// A fixed port is first bound plainly, as `TcpListener::bind` binds
/// it: a reuseport listener would otherwise join the group of any other
/// process of the same user already serving that port, and the kernel
/// would split new connections between the two. A busy port fails with
/// `AddrInUse` instead.
pub(crate) fn bind_listeners(addr: &str, n: usize) -> io::Result<Vec<TcpListener>> {
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or(io::ErrorKind::AddrNotAvailable)?;
    if addr.port() != 0 {
        drop(TcpListener::bind(addr)?);
    }
    let first = poll::listen_reuseport(addr)?;
    let resolved = first.local_addr()?;
    let mut listeners = vec![first];
    for _ in 1..n {
        listeners.push(poll::listen_reuseport(resolved)?);
    }
    Ok(listeners)
}

/// Spawn one reactor per listener — one per service shard — and start
/// serving; the returned threads end once the reactors stop.
pub(crate) fn spawn(
    service: Service,
    listeners: Vec<TcpListener>,
    config: &ServerConfig,
) -> io::Result<(Arc<Shared>, Vec<JoinHandle<()>>)> {
    let evals = service.shard_evals();
    let wakers = (0..listeners.len())
        .map(|_| WakeFd::new().map(Arc::new))
        .collect::<io::Result<Vec<_>>>()?;
    let pollers = (0..listeners.len())
        .map(|_| Poller::new())
        .collect::<io::Result<Vec<_>>>()?;
    let shared = Arc::new(Shared {
        service,
        running: AtomicBool::new(true),
        kill: AtomicBool::new(false),
        max_line_bytes: config.max_line_bytes.max(64),
        write_faults: config
            .service
            .faults
            .as_ref()
            .filter(|c| c.torn_write_per_million > 0 || c.disconnect_per_million > 0)
            .cloned()
            .map(FaultPlan::new),
        wakers,
    });

    let mut threads = Vec::with_capacity(listeners.len());
    let shards = listeners.into_iter().zip(pollers).zip(evals);
    for (idx, ((listener, poller), local)) in shards.enumerate() {
        let reactor = Reactor {
            idx,
            shared: shared.clone(),
            poller,
            wake: shared.wakers[idx].clone(),
            listener: Some(listener),
            conns: Vec::new(),
            free: Vec::new(),
            open: 0,
            scratch: shared.service.scratch(),
            local,
            rbuf: vec![0u8; 64 * 1024],
        };
        threads.push(
            std::thread::Builder::new()
                .name(format!("abpd-reactor-{idx}"))
                .spawn(move || reactor.run())?,
        );
    }
    Ok((shared, threads))
}

/// A connection's unparsed input and the framing state over it.
#[derive(Default)]
struct LineBuf {
    /// Unparsed input; a partial line stays here across bursts.
    buf: Vec<u8>,
    /// Where the first line not yet handed out starts in `buf`.
    start: usize,
    /// `buf[start..searched]` holds no `\n`: the search for the end of
    /// the line resumes here, so a line that arrives in a thousand
    /// segments has each byte looked at once, not once per segment.
    searched: usize,
    /// Bytes discarded so far of an oversized line (reply owed at its
    /// newline).
    discarding: Option<usize>,
}

/// What [`LineBuf::next_frame`] found.
#[derive(Debug, PartialEq, Eq)]
enum Frame {
    /// A complete line within the limit, terminator and trailing `\r`
    /// stripped: this range of the buffer.
    Line(Range<usize>),
    /// A complete line of this many bytes, over the limit and discarded.
    TooLong(usize),
}

impl LineBuf {
    /// The next complete line, or `None` when the buffered input ends
    /// mid-line. A tail already longer than `max` is dropped as it
    /// arrives and reported as [`Frame::TooLong`] at its newline.
    fn next_frame(&mut self, max: usize) -> Option<Frame> {
        let Some(nl) = abp::scan::memchr(b'\n', &self.buf[self.searched..]) else {
            let tail = self.buf.len() - self.start;
            if self.discarding.is_some() || tail > max {
                self.discarding = Some(self.discarding.unwrap_or(0) + tail);
                self.start = self.buf.len();
            }
            self.searched = self.buf.len();
            return None;
        };
        let end = self.searched + nl;
        let line = self.start..end;
        self.start = end + 1;
        self.searched = end + 1;
        let len = self.discarding.take().unwrap_or(0) + line.len();
        if len > max {
            return Some(Frame::TooLong(len));
        }
        let cr = usize::from(self.buf[line.clone()].ends_with(b"\r"));
        Some(Frame::Line(line.start..line.end - cr))
    }

    /// Drop the bytes already handed out.
    fn compact(&mut self) {
        self.buf.drain(..self.start);
        self.searched -= self.start;
        self.start = 0;
    }
}

/// One nonblocking connection owned by a reactor.
struct Conn {
    sock: TcpStream,
    input: LineBuf,
    /// Corked replies; `out[out_pos..]` is the unwritten remainder.
    out: Vec<u8>,
    out_pos: usize,
    /// Input parsing suspended by write backpressure.
    paused: bool,
    /// Peer finished sending; close once replies drain.
    eof: bool,
    /// Close once replies drain (Shutdown verb answered).
    close_after_flush: bool,
    /// A write fault has been drawn for the burst in `out`.
    fault_drawn: bool,
    /// Interest currently registered with the poller.
    cur_read: bool,
    cur_write: bool,
}

struct Reactor {
    idx: usize,
    shared: Arc<Shared>,
    poller: Poller,
    wake: Arc<WakeFd>,
    /// Own reuseport listener; `None` once a graceful stop closed it.
    listener: Option<TcpListener>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    open: usize,
    scratch: BatchScratch,
    local: LocalEval,
    rbuf: Vec<u8>,
}

impl Reactor {
    fn run(mut self) {
        if self
            .poller
            .add(self.wake.raw(), TOKEN_WAKE, true, false)
            .is_err()
        {
            return;
        }
        if let Some(l) = &self.listener {
            if self
                .poller
                .add(poll::raw_fd(l), TOKEN_LISTEN, true, false)
                .is_err()
            {
                return;
            }
        }
        let mut events = Vec::new();
        loop {
            if self.shared.kill.load(Ordering::SeqCst) {
                // Slam every socket shut (close mid-burst); peers see
                // a reset, exactly like a killed process.
                return;
            }
            if !self.shared.running.load(Ordering::SeqCst) {
                if let Some(l) = self.listener.take() {
                    let _ = self.poller.delete(poll::raw_fd(&l));
                    drop(l);
                }
                if self.open == 0 {
                    return;
                }
            }
            // Every state change that matters wakes us via eventfd;
            // the finite timeout is only a safety net.
            if self.poller.wait(&mut events, 500).is_err() {
                return;
            }
            let batch = std::mem::take(&mut events);
            for ev in &batch {
                match ev.token {
                    TOKEN_WAKE => self.wake.drain(),
                    TOKEN_LISTEN => self.accept_burst(),
                    t => {
                        let idx = (t - TOKEN_CONN_BASE) as usize;
                        self.on_conn_event(idx, ev.readable, ev.writable);
                    }
                }
            }
            events = batch;
        }
    }

    fn accept_burst(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((sock, _)) => self.register(sock),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn register(&mut self, sock: TcpStream) {
        let _ = sock.set_nodelay(true);
        if sock.set_nonblocking(true).is_err() {
            return;
        }
        let idx = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let token = idx as u64 + TOKEN_CONN_BASE;
        if self
            .poller
            .add(poll::raw_fd(&sock), token, true, false)
            .is_err()
        {
            self.free.push(idx);
            return;
        }
        self.conns[idx] = Some(Conn {
            sock,
            input: LineBuf::default(),
            out: Vec::with_capacity(4096),
            out_pos: 0,
            paused: false,
            eof: false,
            close_after_flush: false,
            fault_drawn: false,
            cur_read: true,
            cur_write: false,
        });
        self.open += 1;
    }

    fn close(&mut self, idx: usize, conn: Conn) {
        // Dropping the socket closes the fd, which also deregisters it
        // from the poller.
        drop(conn);
        self.free.push(idx);
        self.open -= 1;
    }

    fn on_conn_event(&mut self, idx: usize, readable: bool, writable: bool) {
        // A connection closed earlier in this event batch can leave a
        // stale event behind (or its slot may already be reused — in
        // which case the spurious read below just WouldBlocks).
        let Some(mut conn) = self.conns.get_mut(idx).and_then(Option::take) else {
            return;
        };
        match self.drive(&mut conn, readable, writable) {
            Ok(false) => {
                self.update_interest(idx, &mut conn);
                self.conns[idx] = Some(conn);
            }
            Ok(true) | Err(_) => self.close(idx, conn),
        }
    }

    /// Progress one connection for one readiness event. `Ok(true)`
    /// means the connection is finished and should close cleanly.
    fn drive(&mut self, conn: &mut Conn, readable: bool, writable: bool) -> io::Result<bool> {
        if writable {
            self.flush(conn)?;
        }
        if readable && !conn.paused && !conn.eof {
            if self.read_burst(conn)? {
                conn.eof = true;
            }
        }
        let shutdown = self.process(conn)?;
        self.flush(conn)?;
        if shutdown {
            conn.close_after_flush = true;
        }
        let pending = conn.out.len() - conn.out_pos;
        if pending == 0 && (conn.close_after_flush || (conn.eof && !conn.paused)) {
            return Ok(true);
        }
        Ok(false)
    }

    /// Drain the socket into the connection's input buffer. `Ok(true)`
    /// on EOF. Input is capped per pass; level-triggered epoll re-fires
    /// for the remainder.
    fn read_burst(&mut self, conn: &mut Conn) -> io::Result<bool> {
        let cap = self.shared.max_line_bytes + self.rbuf.len();
        loop {
            if conn.input.buf.len() >= cap {
                return Ok(false);
            }
            match conn.sock.read(&mut self.rbuf) {
                Ok(0) => return Ok(true),
                Ok(n) => {
                    conn.input.buf.extend_from_slice(&self.rbuf[..n]);
                    if n < self.rbuf.len() {
                        return Ok(false);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Parse and answer every complete line buffered for `conn`,
    /// corking replies into `conn.out`. Framing — the oversized-line
    /// discard protocol included — is [`LineBuf::next_frame`]'s; this
    /// loop honors the 64 KiB cork cap and write backpressure (which
    /// leaves the remaining input buffered and `paused` set).
    /// `Ok(true)` when a `Shutdown` verb was answered.
    fn process(&mut self, conn: &mut Conn) -> io::Result<bool> {
        let max = self.shared.max_line_bytes;
        let mut shutdown = false;
        loop {
            if conn.out.len() - conn.out_pos >= CORK_FLUSH_BYTES {
                self.flush(conn)?;
                if conn.out.len() - conn.out_pos >= WRITE_BACKPRESSURE_BYTES {
                    conn.paused = true;
                    break;
                }
            }
            conn.paused = false;
            match conn.input.next_frame(max) {
                None => break,
                Some(Frame::TooLong(bytes)) => {
                    wire::write_error(
                        &format!(
                            "request line too long: {bytes} bytes exceeds the {max} byte limit"
                        ),
                        &mut conn.out,
                    );
                    conn.out.push(b'\n');
                }
                Some(Frame::Line(line)) => {
                    shutdown = answer_line(
                        &self.shared.service,
                        &conn.input.buf[line],
                        &mut self.scratch,
                        &mut self.local,
                        &mut conn.out,
                    );
                    if shutdown {
                        // Once the shutdown ack is corked, later
                        // pipelined lines on this connection go
                        // unanswered.
                        self.shared.stop();
                        break;
                    }
                }
            }
        }
        conn.input.compact();
        Ok(shutdown)
    }

    /// Write as much of the corked burst as the kernel will take. A
    /// `WouldBlock` mid-burst returns `Ok` with bytes left pending
    /// (interest recomputation arms `EPOLLOUT`). The write-fault plan
    /// is consulted once per fresh burst.
    fn flush(&self, conn: &mut Conn) -> io::Result<()> {
        if conn.out_pos == conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
            return Ok(());
        }
        if conn.out_pos == 0 && !conn.fault_drawn {
            conn.fault_drawn = true;
            if let Some(plan) = &self.shared.write_faults {
                match plan.write_fault(self.idx) {
                    WriteFault::Torn => {
                        let _ = conn.sock.write(&conn.out[..conn.out.len() / 2]);
                        return Err(io::Error::other("injected torn write"));
                    }
                    WriteFault::Disconnect => {
                        return Err(io::Error::other("injected disconnect"));
                    }
                    WriteFault::None => {}
                }
            }
        }
        loop {
            match conn.sock.write(&conn.out[conn.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    conn.out_pos += n;
                    if conn.out_pos == conn.out.len() {
                        conn.out.clear();
                        conn.out_pos = 0;
                        conn.fault_drawn = false;
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn update_interest(&self, idx: usize, conn: &mut Conn) {
        let want_read = !conn.paused && !conn.eof && !conn.close_after_flush;
        let want_write = conn.out.len() > conn.out_pos;
        if (want_read, want_write) != (conn.cur_read, conn.cur_write) {
            let token = idx as u64 + TOKEN_CONN_BASE;
            if self
                .poller
                .modify(poll::raw_fd(&conn.sock), token, want_read, want_write)
                .is_ok()
            {
                conn.cur_read = want_read;
                conn.cur_write = want_write;
            }
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::{Frame, LineBuf};
    use crate::server::{Server, ServerConfig};
    use crate::service::ServiceConfig;
    use abp::Engine;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    fn tiny_engine() -> Engine {
        let list = abp::FilterList::parse(abp::ListSource::EasyList, "||ads.example^\n");
        Engine::from_lists([&list])
    }

    fn sharded(shards: usize) -> ServerConfig {
        ServerConfig {
            service: ServiceConfig {
                shards,
                ..ServiceConfig::default()
            },
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

    /// Feed `input` to a fresh [`LineBuf`] in `piece`-byte segments the
    /// way [`Reactor::process`] does — frames until `None`, then
    /// compact — and return what came out, lines as their bytes.
    fn frames_of(input: &[u8], piece: usize, max: usize) -> Vec<Result<Vec<u8>, usize>> {
        let mut lines = LineBuf::default();
        let mut frames = Vec::new();
        for segment in input.chunks(piece) {
            lines.buf.extend_from_slice(segment);
            while let Some(frame) = lines.next_frame(max) {
                frames.push(match frame {
                    Frame::Line(range) => Ok(lines.buf[range].to_vec()),
                    Frame::TooLong(bytes) => Err(bytes),
                });
            }
            lines.compact();
        }
        frames
    }

    /// The slow-loris shape: one long line dribbled in small segments.
    /// Every byte is searched for the newline exactly once — the cursor
    /// only moves forward, never back to the start of the tail — and
    /// the line comes out whole at the end.
    #[test]
    fn a_dribbled_line_is_searched_once() {
        const LINE: usize = 256 * 1024;
        let mut input = vec![b'x'; LINE];
        input.push(b'\n');
        let mut lines = LineBuf::default();
        let mut looked_at = 0;
        let mut cursor = 0;
        let mut frame = None;
        for segment in input.chunks(64) {
            lines.buf.extend_from_slice(segment);
            assert_eq!(lines.searched, cursor, "compaction moved the cursor");
            frame = lines.next_frame(1024 * 1024);
            assert!(lines.searched >= cursor, "the cursor moved backwards");
            looked_at += lines.searched - cursor;
            cursor = lines.searched;
            if frame.is_none() {
                assert_eq!(cursor, lines.buf.len());
                lines.compact();
            }
        }
        assert_eq!(frame, Some(Frame::Line(0..LINE)));
        assert_eq!(cursor, LINE + 1, "the cursor ends just past the newline");
        assert_eq!(looked_at, input.len(), "each byte is looked at once");
    }

    /// What comes out of the framing step depends on the bytes, not on
    /// how the socket happened to segment them: short, blank, `\r\n`,
    /// at-the-limit and oversized lines frame the same in one piece and
    /// in pieces of every small size.
    #[test]
    fn framing_is_independent_of_segmentation() {
        const MAX: usize = 16;
        let input = [
            &b"\"Ping\"\n\r\n\n"[..],
            b"exactly 16 bytes\n",
            b"exactly 16 + cr.\r\n",
            b"seventeen bytes..\n",
            &[b'y'; 100],
            b"\nafter\r\n",
            &[b'z'; 33],
            b"\r\nlast\nunterminated",
        ]
        .concat();
        let whole = frames_of(&input, input.len(), MAX);
        let ok = |line: &[u8]| Ok(line.to_vec());
        assert_eq!(
            whole,
            [
                ok(b"\"Ping\""),
                ok(b""),
                ok(b""),
                ok(b"exactly 16 bytes"),
                Err(17),
                Err(17),
                Err(100),
                ok(b"after"),
                Err(34),
                ok(b"last"),
            ]
        );
        for piece in 1..=40 {
            assert_eq!(frames_of(&input, piece, MAX), whole, "pieces of {piece}");
        }
    }

    /// A reply must not stay corked behind a buffered *partial* next
    /// line, and finishing the line later must yield its own reply.
    #[test]
    fn partial_line_reads_reassemble() {
        let server = Server::start(tiny_engine(), &sharded(1)).unwrap();
        let (mut sock, mut reader) = connect(&server);
        sock.write_all(b"\"Ping\"\n\"Pi").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(reply.trim_end(), "\"Pong\"");
        // Drip the rest through byte by byte.
        for b in b"ng\"\n" {
            sock.write_all(std::slice::from_ref(b)).unwrap();
        }
        reply.clear();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(reply.trim_end(), "\"Pong\"");
        drop((sock, reader));
        server.shutdown();
    }

    /// A peer that pipelines far more requests than it drains must hit
    /// the write-backpressure cap (the reactor pauses reading, arms
    /// EPOLLOUT, and resumes later) and still receive every reply in
    /// order once it starts reading.
    #[test]
    fn corked_write_backpressure_pauses_and_resumes() {
        // ~200k pongs ≈ 1.4 MB of replies: far past the 256 KiB cap
        // plus both kernel socket buffers.
        const N: usize = 200_000;
        let server = Server::start(tiny_engine(), &sharded(1)).unwrap();
        let (sock, mut reader) = connect(&server);
        let writer = {
            let mut sock = sock.try_clone().unwrap();
            std::thread::spawn(move || {
                let chunk = "\"Ping\"\n".repeat(1000);
                for _ in 0..(N / 1000) {
                    sock.write_all(chunk.as_bytes()).unwrap();
                }
            })
        };
        let mut reply = String::new();
        for i in 0..N {
            reply.clear();
            reader.read_line(&mut reply).unwrap();
            assert_eq!(reply.trim_end(), "\"Pong\"", "reply {i}");
        }
        writer.join().unwrap();
        drop((sock, reader));
        server.shutdown();
    }

    /// A client that dies mid-line must not wedge the reactor or leak
    /// the connection; the server keeps serving others.
    #[test]
    fn mid_line_disconnect_is_dropped_cleanly() {
        let server = Server::start(tiny_engine(), &sharded(2)).unwrap();
        for _ in 0..8 {
            let (mut sock, mut reader) = connect(&server);
            sock.write_all(b"\"Ping\"\n{\"Decide\":{\"url\":\"http://x")
                .unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            assert_eq!(reply.trim_end(), "\"Pong\"");
            drop((sock, reader)); // mid-line EOF
        }
        // Server still healthy and answering.
        let (mut sock, mut reader) = connect(&server);
        sock.write_all(b"\"Health\"\n\"Ping\"\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(
            reply.contains("\"ok\""),
            "health after disconnects: {reply}"
        );
        reply.clear();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(reply.trim_end(), "\"Pong\"");
        drop((sock, reader));
        server.shutdown();
    }

    /// `Server::kill` must slam nonblocking sockets shut: blocked
    /// client reads fail fast instead of waiting out a drain.
    #[test]
    fn kill_slams_open_connections() {
        let server = Server::start(tiny_engine(), &sharded(2)).unwrap();
        let mut clients = Vec::new();
        for _ in 0..4 {
            let (mut sock, mut reader) = connect(&server);
            sock.write_all(b"\"Ping\"\n").unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            assert_eq!(reply.trim_end(), "\"Pong\"");
            clients.push((sock, reader));
        }
        server.kill(); // joins the reactors: sockets are already dead
        for (sock, _reader) in &mut clients {
            sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut buf = [0u8; 16];
            match sock.read(&mut buf) {
                Ok(0) | Err(_) => {} // EOF or reset: the slam
                Ok(n) => panic!("expected slammed socket, read {n} bytes"),
            }
        }
    }
}
