//! The connection-scale drill, shared by the daemon's and the fleet
//! router's: a serving binary spawned on port 0, and a [`Drill`] that
//! holds many mostly idle browser connections open on it while a few
//! are busy. Half the idle ones sit on an unterminated `Decide` line;
//! the busy ones send lockstep `Decide`s checked against the engine in
//! this process. The drill shrinks to fit a host whose open-file limit
//! is below what 2,000 connections need on both ends. A test binary
//! includes this file as a module.

use abp::{Engine, Request};
use abpd::protocol::ServerMessage;
use abpd::{Client, DecisionRequest};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStderr, Command, Stdio};

/// Connections the drill opens, the active ones included.
const CONNECTIONS: usize = 2_000;
/// Connections that send decisions while the rest are open.
const ACTIVE: usize = 10;
/// Lockstep `Decide`s per active connection.
const DECISIONS_PER_ACTIVE: usize = 300;
/// Bytes of its line a held connection sends before the rest.
pub const HELD_BYTES: usize = 200;
/// Descriptors kept free below the soft limit for everything that is
/// not a drill connection, in this process and in the server.
const FD_HEADROOM: usize = 64;
/// Resident bytes one open connection may add to the serving binary:
/// its slot, its first read's input buffer and the kernel's share, but
/// no reply buffer before its first reply.
pub const MAX_BYTES_PER_CONNECTION: u64 = 1024;

/// Resident growth per connection, in bytes, between two `VmRSS:`
/// readings in KiB.
pub fn bytes_per_connection(rss_before_kib: u64, rss_after_kib: u64, connections: usize) -> u64 {
    rss_after_kib.saturating_sub(rss_before_kib) * 1024 / connections as u64
}

/// A spawned serving binary, killed if a failed assertion leaves it
/// behind.
pub struct Spawned {
    pub child: Child,
    pub addr: String,
    _stderr: BufReader<ChildStderr>,
}

impl Spawned {
    /// Run `bin` with `args` and wait for its `{name}: listening on
    /// ADDR` line.
    pub fn start(bin: &str, name: &str, args: &[&str]) -> Spawned {
        let mut child = Command::new(bin)
            .args(args)
            .env_remove("ABPD_FAULTS")
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let banner = format!("{name}: listening on ");
        let mut log = String::new();
        let addr = loop {
            let start = log.len();
            let n = stderr.read_line(&mut log).expect("read stderr");
            assert!(n > 0, "{name} exited before listening:\n{log}");
            if let Some(rest) = log[start..].strip_prefix(&banner) {
                break rest.split_whitespace().next().expect("address").to_string();
            }
        };
        Spawned {
            child,
            addr,
            _stderr: stderr,
        }
    }

    /// A `/proc/<pid>/status` field's leading number (`Threads:`,
    /// `VmRSS:` in KiB).
    pub fn status(&self, field: &str) -> u64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .expect("read /proc/<pid>/status");
        status
            .lines()
            .find_map(|l| l.strip_prefix(field))
            .and_then(|v| v.split_whitespace().next()?.parse().ok())
            .unwrap_or_else(|| panic!("no {field} in /proc/<pid>/status"))
    }

    pub fn open_fds(&self) -> usize {
        open_fds(&self.child.id().to_string())
    }

    /// Wait for the binary to exit after a `Shutdown`; true if it
    /// exited cleanly.
    pub fn exited_cleanly(mut self) -> bool {
        self.child.wait().expect("wait for the server").success()
    }
}

impl Drop for Spawned {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Open descriptors of process `pid` (`self` for this one).
pub fn open_fds(pid: &str) -> usize {
    std::fs::read_dir(format!("/proc/{pid}/fd"))
        .expect("read /proc/<pid>/fd")
        .count()
}

/// The `RLIMIT_NOFILE` soft limit, which a spawned binary inherits.
fn fd_soft_limit() -> usize {
    let limits = std::fs::read_to_string("/proc/self/limits").expect("read /proc/self/limits");
    let line = limits
        .lines()
        .find(|l| l.starts_with("Max open files"))
        .expect("a Max open files row");
    match line.split_whitespace().nth(3).expect("a soft limit") {
        "unlimited" => usize::MAX,
        n => n.parse().expect("a numeric soft limit"),
    }
}

fn engine_decides(engine: &Engine, req: &DecisionRequest) -> abp::RequestOutcome {
    engine.match_request(&Request::new(&req.url, &req.document, req.resource_type).unwrap())
}

/// The drill's connections and the traffic they carry.
pub struct Drill {
    /// Connections opened, the active ones included.
    pub connections: usize,
    /// Connections held open while the active ones decide.
    pub idle: usize,
    active_reqs: Vec<DecisionRequest>,
    /// Times the active traffic ran ([`Drill::run_active`]).
    active_passes: usize,
    idle_reqs: Vec<DecisionRequest>,
    conns: Vec<TcpStream>,
    /// Each holding connection's index and its whole line.
    held: Vec<(usize, Vec<u8>)>,
}

impl Drill {
    /// Size the drill to the open-file limit, with the corpus traffic
    /// the served engine decides.
    pub fn new() -> Drill {
        let connections = CONNECTIONS.min(fd_soft_limit().saturating_sub(FD_HEADROOM));
        assert!(
            connections > 2 * ACTIVE,
            "open-file limit too low for any drill"
        );
        let idle = connections - ACTIVE;
        let mut traffic: Vec<DecisionRequest> = websim::traffic::TrafficGen::new(2015)
            .samples()
            .take(ACTIVE * DECISIONS_PER_ACTIVE + idle)
            .map(|s| abpd::request_of_sample(&s))
            .collect();
        let idle_reqs = traffic.split_off(ACTIVE * DECISIONS_PER_ACTIVE);
        Drill {
            connections,
            idle,
            active_reqs: traffic,
            active_passes: 0,
            idle_reqs,
            conns: Vec::with_capacity(idle),
            held: Vec::new(),
        }
    }

    /// Open the idle connections to `addr`. Every other one sends the
    /// first [`HELD_BYTES`] of a `Decide` line (leading spaces, then the
    /// start of the object); the rest send nothing.
    pub fn open(&mut self, addr: &str) {
        for (i, req) in self.idle_reqs.iter().enumerate() {
            let sock = TcpStream::connect(addr).expect("open an idle connection");
            sock.set_nodelay(true).unwrap();
            if i % 2 == 1 {
                let mut line = vec![b' '; HELD_BYTES - 20];
                abpd::wire::write_decide(req, &mut line);
                line.push(b'\n');
                (&sock).write_all(&line[..HELD_BYTES]).unwrap();
                self.held.push((i, line));
            }
            self.conns.push(sock);
        }
    }

    /// Lockstep decisions on the active connections, each checked
    /// against `engine`.
    pub fn run_active(&mut self, addr: &str, engine: &Engine) {
        self.active_passes += 1;
        let active_reqs = &self.active_reqs;
        std::thread::scope(|scope| {
            for reqs in active_reqs.chunks(DECISIONS_PER_ACTIVE) {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect an active client");
                    for req in reqs {
                        let resp = client.decide(req).expect("decide");
                        assert_eq!(resp.outcome, engine_decides(engine, req), "{}", req.url);
                    }
                });
            }
        });
    }

    /// Finish every held line; each gets exactly one reply, the
    /// engine's decision.
    pub fn finish_held(&self, engine: &Engine) {
        for (i, line) in &self.held {
            (&self.conns[*i]).write_all(&line[HELD_BYTES..]).unwrap();
        }
        for (i, _) in &self.held {
            let sock = &self.conns[*i];
            sock.set_read_timeout(Some(std::time::Duration::from_secs(30)))
                .unwrap();
            let mut reader = BufReader::new(sock);
            let mut reply = String::new();
            reader
                .read_line(&mut reply)
                .expect("read the held line's reply");
            assert!(reader.buffer().is_empty(), "more than one reply: {reply}");
            let Ok(ServerMessage::Decision(resp)) =
                abpd::wire::parse_server_message(reply.trim_end())
            else {
                panic!("connection {i}: not a Decision: {reply}");
            };
            assert_eq!(resp.outcome, engine_decides(engine, &self.idle_reqs[*i]));
            sock.set_nonblocking(true).unwrap();
            match (&*sock).read(&mut [0u8; 1]) {
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                other => panic!("connection {i}: after its one reply: {other:?}"),
            }
        }
    }

    /// Connections holding a line.
    pub fn held(&self) -> usize {
        self.held.len()
    }

    /// Decisions the server made for the drill.
    pub fn decided(&self) -> u64 {
        (self.active_passes * self.active_reqs.len() + self.held.len()) as u64
    }

    /// Close every drill connection (a `Shutdown` drains open ones).
    pub fn close(&mut self) {
        self.conns.clear();
    }
}
